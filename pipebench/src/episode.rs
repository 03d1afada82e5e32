//! One episode: set a workload up from its seed, drive it through the
//! daemon, answer its queries, finalize, and check every output.
//!
//! An untraced episode times only what the end-to-end metrics need: the
//! set-up, each `Daemon::tick` and each query, on the process CPU clock
//! ([`crate::clock`]). A traced episode builds the same daemon
//! from timing probes and, beside it, a twin `ClusterRun` stepped over the
//! same instants (valid because runs are deterministic) whose records are
//! replayed into fresh stores, so that every layer's span is taken around a
//! public call from the benchmark's own code.

use crate::clock::{cpu_since, process_cpu_ns};
use crate::queries;
use crate::workload::{launch, sub_seed, QueryLoad, Sinks, Spec};
use envmon_serve::{Daemon, Published, Query, QueryError, QueryFront, Response, ServeConfig};
use moneq::{ClusterResult, ClusterRun, Completeness};
use simkit::rng::mix64;
use simkit::store::{SeriesId, StoreSnapshot, StoreStats, TsStore};
use simkit::wire::LinkStats;
use simkit::{CacheStats, DetRng, SimDuration, SimTime};
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One named output check.
#[derive(Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The compared values, for the log.
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// Spans and counts only a traced episode has.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Timed device-model calls.
    pub backend_reads: u64,
    /// Device-model calls that returned an error.
    pub backend_errors: u64,
    /// Wall time inside device-model calls, summed over workers.
    pub backend_ms: f64,
    /// Wall time inside whole remote reads minus `backend_ms`.
    pub exchange_ms: f64,
    /// Wall time of the twin's `ClusterRun::run_until` calls.
    pub run_until_ms: f64,
    /// The twin's worker time inside sessions (`SchedStats`), all workers.
    pub worker_busy_ms: f64,
    /// Records the twin's sessions collected.
    pub cluster_records: u64,
    /// Wall time of every `Daemon::tick`, warm-up included.
    pub tick_ms: f64,
    /// Replay: `TsStore::record` into a store published after every tick.
    pub record_ms: f64,
    /// Replay: the same records into a store that is never published.
    pub record_unshared_ms: f64,
    /// Replay: `TsStore::snapshot`, dropping the previous one.
    pub snapshot_ms: f64,
}

/// What one episode measured and checked.
#[derive(Debug, Default)]
pub struct Episode {
    /// Launch plus warm-up, CPU seconds.
    pub setup_s: f64,
    /// Wall seconds of the whole episode, set-up to checks.
    pub wall_s: f64,
    /// CPU time of each timed tick, ns.
    pub tick_ns: Vec<u64>,
    /// Wall time of every tick, warm-up included, ns.
    pub all_ticks_ns: u64,
    /// Records the store accepted during the timed ticks.
    pub ingested: u64,
    /// Query latencies by kind (in [`queries::kind`] order), CPU ns.
    pub query_ns: [Vec<u64>; 4],
    /// Queries attempted.
    pub attempted: u64,
    /// Queries answered without error.
    pub answered: u64,
    /// CPU time spent answering queries, seconds.
    pub query_cpu_s: f64,
    /// The run digest: a fold of the finalized outputs and the store
    /// counters.
    pub digest: u64,
    /// Fold of every query answer, in a fixed order.
    pub answers: u64,
    /// `ClusterResult::worst_case_overhead().total()`, virtual ms.
    pub overhead_ms: f64,
    /// Completeness ledgers merged by device.
    pub completeness: Vec<Completeness>,
    /// The collection plan's cache ledger.
    pub cache: CacheStats,
    /// Link ledgers deposited by the probes, merged.
    pub wire: LinkStats,
    /// The daemon's store counters at the end.
    pub store: StoreStats,
    /// Series in the daemon's store.
    pub series: usize,
    /// Raw samples the daemon's store retains.
    pub retained: u64,
    /// Every output check.
    pub checks: Vec<Check>,
    /// Present on a traced episode.
    pub layers: Option<Layers>,
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A second cluster stepped in lockstep with the daemon's, whose records
/// are replayed into two fresh stores.
struct Twin {
    run: ClusterRun,
    sinks: Sinks,
    run_until_ns: u64,
    replay: Replay,
}

/// Per rank: records filed so far, and the series each (device, domain)
/// files under.
type Cursor = (usize, Vec<(String, String, SeriesId)>);

struct Replay {
    /// Published after every step, as the daemon publishes its store.
    store: TsStore,
    /// Never published, so no record ever copies a shared series.
    unshared: TsStore,
    held: Option<StoreSnapshot>,
    cursors: Vec<Cursor>,
    batch: Vec<(SeriesId, SimTime, f64)>,
    record_ns: u64,
    unshared_ns: u64,
    snapshot_ns: u64,
}

impl Replay {
    fn new(agents: usize) -> Replay {
        let cfg = ServeConfig::default().store;
        Replay {
            store: TsStore::new(cfg.clone()),
            unshared: TsStore::new(cfg),
            held: None,
            cursors: (0..agents).map(|_| (0, Vec::new())).collect(),
            batch: Vec::new(),
            record_ns: 0,
            unshared_ns: 0,
            snapshot_ns: 0,
        }
    }

    /// File each newly collected record the way the daemon does (rank
    /// order, then record order; series named `agent/device/domain`), then
    /// time the store calls alone.
    fn ingest(&mut self, run: &ClusterRun, at: SimTime) {
        self.batch.clear();
        for (session, (seen, map)) in run.sessions().iter().zip(&mut self.cursors) {
            let data = session.collected();
            for i in *seen..data.len() {
                let p = data.get(i).expect("cursor within arena");
                let id = match map.iter().find(|(d, m, _)| d == p.device && m == p.domain) {
                    Some(&(_, _, id)) => id,
                    None => {
                        let name = format!("{}/{}/{}", session.agent_name(), p.device, p.domain);
                        let id = self.store.series(&name);
                        assert_eq!(self.unshared.series(&name), id, "replay stores diverged");
                        map.push((p.device.to_owned(), p.domain.to_owned(), id));
                        id
                    }
                };
                self.batch.push((id, p.timestamp, p.watts));
            }
            *seen = data.len();
        }
        let start = Instant::now();
        for &(id, t, v) in &self.batch {
            self.store.record(id, t, v);
        }
        self.record_ns += ns_since(start);
        let start = Instant::now();
        for &(id, t, v) in &self.batch {
            self.unshared.record(id, t, v);
        }
        self.unshared_ns += ns_since(start);
        let start = Instant::now();
        self.held = Some(self.store.snapshot(at));
        self.snapshot_ns += ns_since(start);
    }
}

struct Pipeline {
    daemon: Daemon,
    twin: Option<Twin>,
    all_ticks_ns: u64,
}

impl Pipeline {
    /// One `Daemon::tick` (timed), then the twin's step (traced only).
    /// Returns the tick's CPU time and the records it ingested.
    fn tick(&mut self) -> (u64, u64) {
        let cpu = process_cpu_ns();
        let start = Instant::now();
        let ingested = self.daemon.tick();
        self.all_ticks_ns += ns_since(start);
        let cpu = cpu_since(cpu);
        if let Some(twin) = &mut self.twin {
            let until = self.daemon.now();
            let start = Instant::now();
            twin.run.run_until(until);
            twin.run_until_ns += ns_since(start);
            twin.replay.ingest(&twin.run, until);
        }
        (cpu, ingested)
    }
}

/// Query latencies and counts from one query-issuing thread.
#[derive(Default)]
struct Answers {
    ns: [Vec<u64>; 4],
    attempted: u64,
    answered: u64,
}

impl Answers {
    /// Answer `q` on `view`, timing `QueryFront::answer` alone from when
    /// the query is sent.
    fn answer(&mut self, view: &Published, q: &Query) -> Result<Response, QueryError> {
        let sent = process_cpu_ns();
        let out = QueryFront::answer(view, q);
        self.ns[queries::kind(q)].push(cpu_since(sent));
        self.attempted += 1;
        self.answered += u64::from(out.is_ok());
        out
    }

    fn absorb(&mut self, other: Answers) {
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            a.extend(b);
        }
        self.attempted += other.attempted;
        self.answered += other.answered;
    }
}

/// The query stream of one client and round in the seed's `set`-th set
/// of streams.
fn query_rng(seed: u64, set: u64, client: usize, round: u64) -> DetRng {
    DetRng::new(sub_seed(seed, "queries")).child(&format!("set{set}/client{client}/round{round}"))
}

/// Launch `spec`'s cluster behind a daemon (and, traced, its twin) and run
/// the warm-up ticks: everything before the first timed tick.
fn set_up(spec: &Spec, seed: u64, traced: bool) -> (Pipeline, Sinks) {
    let sinks = Sinks::default();
    let run = launch(spec, seed, &sinks, traced);
    let daemon = Daemon::new(run, SimTime::ZERO, ServeConfig::default());
    let twin = traced.then(|| {
        let sinks = Sinks::default();
        Twin {
            run: launch(spec, seed, &sinks, true),
            sinks,
            run_until_ns: 0,
            replay: Replay::new(spec.agents),
        }
    });
    let mut pipe = Pipeline {
        daemon,
        twin,
        all_ticks_ns: 0,
    };
    for _ in 0..spec.warmup_ticks {
        pipe.tick();
    }
    (pipe, sinks)
}

/// Run one episode of `spec` at `seed`, sending the seed's `set`-th set
/// of query streams. Set 0, which every run sends first, also answers
/// every closed-loop round serially and compares; later sets skip that,
/// as it costs as much again as their queries.
pub fn run(spec: &Spec, seed: u64, set: u64, traced: bool) -> Episode {
    let replay = set == 0;
    let wall = Instant::now();
    let setup = process_cpu_ns();
    let (mut pipe, sinks) = set_up(spec, seed, traced);
    let mut ep = Episode {
        setup_s: cpu_since(setup) as f64 / 1e9,
        ..Episode::default()
    };
    // Fold of every answer, in a fixed order.
    let mut answer_digest = 0u64;
    let mut answers = Answers::default();
    let mut checks = Vec::new();
    let tick = |pipe: &mut Pipeline, ep: &mut Episode| {
        let (ns, ingested) = pipe.tick();
        ep.tick_ns.push(ns);
        ep.ingested += ingested;
    };
    match spec.queries {
        QueryLoad::AfterTick { per_tick } => {
            let mut stream = queries::Clean::new(query_rng(seed, set, 0, 0));
            let mut busy = 0;
            for _ in 0..spec.timed_ticks {
                tick(&mut pipe, &mut ep);
                let view = pipe.daemon.front().view();
                let qs: Vec<Query> = (0..per_tick).map(|_| stream.draw(&view)).collect();
                let start = process_cpu_ns();
                for q in &qs {
                    let out = answers.answer(&view, q);
                    answer_digest = queries::fold(answer_digest, &out);
                }
                busy += cpu_since(start);
            }
            ep.query_cpu_s = busy as f64 / 1e9;
        }
        QueryLoad::Closed { clients, per_round } => {
            let front = pipe.daemon.front();
            let barrier = Barrier::new(clients + 1);
            let chains: Vec<Mutex<u64>> = (0..clients).map(|_| Mutex::new(0)).collect();
            let rounds = spec.timed_ticks;
            let mut busy = 0;
            let mut serial_ok = true;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let (front, barrier, chains) = (front.clone(), &barrier, &chains);
                        s.spawn(move || {
                            let mut mine = Answers::default();
                            for round in 0..rounds {
                                barrier.wait();
                                let view = front.view();
                                let mut stream =
                                    queries::Clean::new(query_rng(seed, set, c, round));
                                let mut chain = 0u64;
                                for _ in 0..per_round {
                                    let q = stream.draw(&view);
                                    let out = mine.answer(&view, &q);
                                    chain = queries::fold(chain, &out);
                                }
                                *chains[c].lock().unwrap_or_else(PoisonError::into_inner) = chain;
                                drop(view);
                                barrier.wait();
                            }
                            mine
                        })
                    })
                    .collect();
                for round in 0..rounds {
                    tick(&mut pipe, &mut ep);
                    // The process clock counts the clients' CPU while this
                    // thread waits for them.
                    let start = process_cpu_ns();
                    barrier.wait();
                    barrier.wait();
                    busy += cpu_since(start);
                    // The daemon is paused until the next tick: a serial
                    // replay of every client's stream must match bitwise.
                    let view = front.view();
                    for (c, chain) in chains.iter().enumerate() {
                        let threaded = *chain.lock().unwrap_or_else(PoisonError::into_inner);
                        answer_digest = mix64(answer_digest, threaded);
                        if !replay {
                            continue;
                        }
                        let mut stream = queries::Clean::new(query_rng(seed, set, c, round));
                        let mut serial = 0u64;
                        for _ in 0..per_round {
                            let q = stream.draw(&view);
                            serial = queries::fold(serial, &QueryFront::answer(&view, &q));
                        }
                        serial_ok &= serial == threaded;
                    }
                }
                for h in handles {
                    answers.absorb(h.join().expect("query client thread panicked"));
                }
            });
            ep.query_cpu_s = busy as f64 / 1e9;
            if replay {
                checks.push(Check::new(
                    "clients_match_serial",
                    serial_ok,
                    format!("{rounds} rounds x {clients} clients"),
                ));
            }
        }
    }
    ep.query_ns = answers.ns;
    ep.attempted = answers.attempted;
    ep.answered = answers.answered;
    ep.all_ticks_ns = pipe.all_ticks_ns;

    let Pipeline { daemon, twin, .. } = pipe;
    checks.push(store_exact(&daemon));
    let store = daemon.store();
    ep.store = store.stats();
    ep.series = store.len();
    ep.retained = store.ids().map(|id| store.get(id).raw_len() as u64).sum();
    let now = daemon.now();
    let result = daemon.finalize();
    ep.wire = sinks.ledger.wire();
    ep.digest = digest(&result, &ep.store);
    ep.answers = answer_digest;
    ep.overhead_ms = result.worst_case_overhead().total().as_millis_f64();
    ep.completeness = result.completeness_by_device();
    ep.cache = result.cache;
    checks.extend(ledger_checks(&result, &ep.store, &ep.wire));

    if let Some(twin) = twin {
        let busy: Duration = twin.run.sched_stats().busy_per_worker.iter().sum();
        let cluster_records = twin.run.sessions().iter().map(|s| s.records() as u64).sum();
        let replay_stats = twin.replay.store.stats();
        let twin_result = twin.run.finalize(now);
        checks.push(Check::new(
            "twin_matches_daemon",
            digest(&twin_result, &replay_stats) == ep.digest,
            "twin cluster + replayed store vs daemon".into(),
        ));
        let backend = &twin.sinks.backend;
        let exchange = &twin.sinks.exchange;
        ep.layers = Some(Layers {
            backend_reads: backend.reads(),
            backend_errors: backend.errors(),
            backend_ms: backend.millis(),
            exchange_ms: if exchange.reads() > 0 {
                exchange.millis() - backend.millis()
            } else {
                0.0
            },
            run_until_ms: twin.run_until_ns as f64 / 1e6,
            worker_busy_ms: busy.as_secs_f64() * 1e3,
            cluster_records,
            tick_ms: ep.all_ticks_ns as f64 / 1e6,
            record_ms: twin.replay.record_ns as f64 / 1e6,
            record_unshared_ms: twin.replay.unshared_ns as f64 / 1e6,
            snapshot_ms: twin.replay.snapshot_ns as f64 / 1e6,
        });
    }
    ep.checks = checks;
    ep.wall_s = wall.elapsed().as_secs_f64();
    ep
}

/// Rollup exactness on every series and tier: a tier aggregate equals the
/// fold over the raw samples, bit for bit. When the raw ring has evicted,
/// the window starts at the first coarsest-tier boundary it fully covers.
fn store_exact(daemon: &Daemon) -> Check {
    let store = daemon.store();
    let now = daemon.now();
    let mut checked = 0u64;
    let ok = store.ids().all(|id| {
        let d = store.get(id);
        let from = if d.raw_evicted() == 0 {
            SimTime::ZERO
        } else {
            let coarsest = (0..d.tier_count())
                .map(|t| d.tier_width(t))
                .max()
                .unwrap_or(SimDuration::from_secs(60));
            match d.raw_range(SimTime::ZERO, now).next() {
                Some(oldest) => oldest.at.grid_floor(SimTime::ZERO, coarsest) + coarsest,
                None => return true,
            }
        };
        (0..d.tier_count()).all(|tier| {
            checked += 1;
            d.aggregate(tier, from, now) == d.aggregate_raw(d.tier_width(tier), from, now)
        })
    });
    Check::new("rollup_exact", ok, format!("{checked} series-tiers"))
}

/// Completeness, store and wire ledgers reconcile.
fn ledger_checks(result: &ClusterResult, store: &StoreStats, w: &LinkStats) -> Vec<Check> {
    let merged = result.completeness_by_device();
    let polls_ok = merged.iter().all(Completeness::reconciles);
    let records_ok = merged
        .iter()
        .all(|c| c.records_expected() == c.records_fresh + c.records_stale + c.records_lost);
    let delivered: u64 = merged
        .iter()
        .map(|c| c.records_fresh + c.records_stale)
        .sum();
    let collected: u64 = result.files.iter().map(|f| f.points.len() as u64).sum();
    vec![
        Check::new(
            "polls_reconcile",
            polls_ok,
            "scheduled == succeeded + stale + missed".into(),
        ),
        Check::new(
            "records_reconcile",
            records_ok && delivered == collected,
            format!("fresh + stale = {delivered}, records in outputs = {collected}"),
        ),
        Check::new(
            "store_ingested_every_record",
            store.recorded + store.rejected_late == collected,
            format!(
                "recorded {} + rejected_late {} vs collected {collected}",
                store.recorded, store.rejected_late
            ),
        ),
        Check::new(
            "wire_reconciles",
            w.tx == w.rx + w.timeouts,
            format!("tx {} rx {} timeouts {}", w.tx, w.rx, w.timeouts),
        ),
    ]
}

/// FNV-1a, for folding labels cheaply.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The run digest: a fold of the finalized `ClusterResult` outputs
/// (records, overhead and completeness ledgers, cache ledger) and the
/// store's counters. Wall-clock scheduling stats are left out.
pub fn digest(result: &ClusterResult, store: &StoreStats) -> u64 {
    let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
    let mut h = mix64(0, result.files.len() as u64);
    for f in &result.files {
        h = mix64(h, u64::from(f.rank) ^ fnv(&f.agent));
        h = mix64(h, f.interval_ns);
        h = mix64(h, f.points.len() as u64);
        for p in &f.points {
            h = mix64(h, p.timestamp.as_nanos());
            h = mix64(h, fnv(p.device) ^ fnv(p.domain).rotate_left(1));
            h = mix64(h, p.watts.to_bits() ^ u64::from(p.stale));
            h = mix64(
                h,
                opt(p.volts) ^ opt(p.amps).rotate_left(1) ^ opt(p.temp_c).rotate_left(2),
            );
        }
        h = mix64(h, f.tags.len() as u64);
    }
    for o in &result.overheads {
        for d in [
            o.app_runtime,
            o.init,
            o.finalize,
            o.collection,
            o.fault_recovery,
        ] {
            h = mix64(h, d.as_nanos());
        }
        h = mix64(h, o.polls);
        h = mix64(h, o.retries);
    }
    for c in result.completeness.iter().flatten() {
        h = mix64(h, fnv(&c.device));
        for n in [
            c.scheduled,
            c.succeeded,
            c.retried,
            c.stale_polls,
            c.missed_polls,
            c.records_fresh,
            c.records_stale,
            c.records_lost,
            c.disabled_at_ns.unwrap_or(u64::MAX),
            c.disabled_ranks.len() as u64,
        ] {
            h = mix64(h, n);
        }
    }
    let cache = &result.cache;
    for n in [
        result.dropped_records,
        cache.hits,
        cache.misses,
        cache.bypasses,
        store.recorded,
        store.rejected_late,
        store.raw_evicted,
        store.bins_closed,
        store.bins_evicted,
    ] {
        h = mix64(h, n);
    }
    h
}
