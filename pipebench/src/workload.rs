//! The three workloads and how each builds its cluster from a seed.
//!
//! Everything a run depends on is derived from the `--seed` argument here;
//! the library only ever sees the generated machine, registry, fault plan
//! and link.

use crate::probe::{Ledger, Probe, ReadTimer};
use bgq_sim::topology::{BOARDS_PER_MIDPLANE, MIDPLANES_PER_RACK};
use hpc_workloads::profile::{Channel, WorkloadProfile};
use moneq::backends::BgqBackend;
use moneq::{ClusterRun, CollectionPlan, EnvBackend, RemoteBackend};
use simkit::rng::mix64;
use simkit::wire::LinkSpec;
use simkit::{DetRng, FaultPlan, SimDuration, SimTime};
use std::sync::Arc;

/// Agents per BG/Q node card, which is also the `remote_live` block size.
pub const BLOCK: usize = 32;

/// Per-class fault rate of every `remote_live` mechanism (see NOTES.md).
pub const REMOTE_FAULT_RATE: f64 = 0.0001;

/// Per-leg drop, corrupt and reorder probabilities of the `remote_live` link.
pub const REMOTE_LINK_FAULTS: (f64, f64, f64) = (0.002, 0.001, 0.002);

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Mira-shaped collection and ingest from a cold store.
    FleetIngest,
    /// Closed-loop dashboard queries against a quiesced daemon.
    DashboardQuery,
    /// Every mechanism, served remotely with faults, queried after each tick.
    RemoteLive,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetIngest,
        Workload::DashboardQuery,
        Workload::RemoteLive,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetIngest => "fleet_ingest",
            Workload::DashboardQuery => "dashboard_query",
            Workload::RemoteLive => "remote_live",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How queries reach the front during the timed phase.
#[derive(Clone, Copy, Debug)]
pub enum QueryLoad {
    /// After every publish the daemon thread answers `per_tick` queries.
    AfterTick {
        /// Queries per publish.
        per_tick: usize,
    },
    /// Every timed tick is followed by a round in which `clients` threads
    /// each answer `per_round` queries back to back on the quiesced view.
    Closed {
        /// Client threads.
        clients: usize,
        /// Queries per client per round.
        per_round: usize,
    },
}

/// The size of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Agent ranks.
    pub agents: usize,
    /// One-second ticks run during setup, before timing starts.
    pub warmup_ticks: u64,
    /// Timed one-second ticks.
    pub timed_ticks: u64,
    /// The query load of the timed phase.
    pub queries: QueryLoad,
}

impl Spec {
    /// The benchmark's size for `w`.
    pub fn full(w: Workload) -> Spec {
        match w {
            Workload::FleetIngest => Spec {
                workload: w,
                agents: 1024,
                warmup_ticks: 10,
                timed_ticks: 110,
                queries: QueryLoad::AfterTick { per_tick: 8 },
            },
            Workload::DashboardQuery => Spec {
                workload: w,
                agents: 256,
                warmup_ticks: 300,
                timed_ticks: 100,
                // One client: two busy readers on a host of a few shared
                // cores measured the neighbours' load in the query tail.
                queries: QueryLoad::Closed {
                    clients: 1,
                    per_round: 64,
                },
            },
            Workload::RemoteLive => Spec {
                workload: w,
                agents: 384,
                warmup_ticks: 10,
                timed_ticks: 110,
                queries: QueryLoad::AfterTick { per_tick: 32 },
            },
        }
    }

    /// A few-second version of `w` with the same shape, for tests.
    pub fn small(w: Workload) -> Spec {
        let full = Spec::full(w);
        let queries = match full.queries {
            QueryLoad::Closed { clients, .. } => QueryLoad::Closed {
                clients,
                per_round: 8,
            },
            q => q,
        };
        Spec {
            agents: if w == Workload::RemoteLive { 192 } else { 64 },
            warmup_ticks: full.warmup_ticks.min(5),
            timed_ticks: 6,
            queries,
            ..full
        }
    }

    /// Virtual seconds an episode covers.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.warmup_ticks + self.timed_ticks)
    }
}

/// Where one cluster's probes report. A traced run gives each cluster its
/// own set; an untraced run only uses the ledger.
#[derive(Debug, Default)]
pub struct Sinks {
    /// Device-model reads (the `backends` layer).
    pub backend: Arc<ReadTimer>,
    /// Whole remote reads, wire included (`wire` = this minus `backend`).
    pub exchange: Arc<ReadTimer>,
    /// Final link ledgers.
    pub ledger: Arc<Ledger>,
}

/// A sub-seed for one input, so inputs do not share random streams.
pub fn sub_seed(seed: u64, what: &str) -> u64 {
    what.bytes()
        .fold(mix64(seed, 0x5049_5045), |h, b| mix64(h, u64::from(b)))
}

/// The per-rank agent name (`agent00042`).
pub fn agent_name(rank: usize) -> String {
    format!("agent{rank:05}")
}

/// A CPU demand that changes level every ten virtual seconds, the levels
/// drawn from `seed`.
fn demand_profile(seed: u64, horizon: SimTime) -> WorkloadProfile {
    let secs = horizon.as_secs_f64().ceil() as u64 + 30;
    let mut rng = DetRng::new(seed);
    let mut phases = powermodel::PhaseBuilder::new();
    for _ in 0..secs.div_ceil(10) {
        phases = phases.phase(SimDuration::from_secs(10), rng.uniform(0.3, 0.95));
    }
    let mut p = WorkloadProfile::new("pipebench", SimDuration::from_secs(secs));
    p.set_demand(Channel::Cpu, phases.build());
    p
}

/// Launch the cluster `spec` describes at `seed`. With `traced`, every
/// backend reads through a timing [`Probe`]; remote backends always carry
/// a ledger probe so the wire ledger can be reconciled.
pub fn launch(spec: &Spec, seed: u64, sinks: &Sinks, traced: bool) -> ClusterRun {
    let timer = |t: &Arc<ReadTimer>| traced.then(|| Arc::clone(t));
    let horizon = spec.horizon() + SimDuration::from_secs(2);
    match spec.workload {
        Workload::FleetIngest | Workload::DashboardQuery => {
            let boards = spec.agents.div_ceil(BLOCK);
            let per_rack = MIDPLANES_PER_RACK * BOARDS_PER_MIDPLANE;
            let racks = u16::try_from(boards.div_ceil(per_rack)).expect("rack count fits u16");
            let config = bgq_sim::BgqConfig {
                topology: bgq_sim::Topology { racks },
                ..bgq_sim::BgqConfig::default()
            };
            let mut machine = bgq_sim::BgqMachine::new(config, sub_seed(seed, "machine"));
            let profile = demand_profile(sub_seed(seed, "demand"), horizon);
            machine.assign_job(&(0..boards).collect::<Vec<_>>(), &profile);
            let machine = Arc::new(machine);
            ClusterRun::launch(
                spec.agents,
                None,
                |rank| {
                    let b: Box<dyn EnvBackend> =
                        Box::new(BgqBackend::new(Arc::clone(&machine), rank / BLOCK));
                    if traced {
                        Box::new(Probe::new(b, timer(&sinks.backend), None))
                    } else {
                        b
                    }
                },
                agent_name,
                SimTime::ZERO,
            )
            // One worker: on a host of a few shared cores a second busy
            // thread measures the scheduler, not the pipeline.
            .with_par_agents(1)
            .with_collection_plan(CollectionPlan::node_card())
        }
        Workload::RemoteLive => {
            let mechanisms =
                envmon_analysis::registry::mechanisms(sub_seed(seed, "registry"), horizon);
            let faults = sub_seed(seed, "faults");
            let (drop, corrupt, reorder) = REMOTE_LINK_FAULTS;
            let link = LinkSpec::lan()
                .with_faults(drop, corrupt, reorder)
                .with_seed(sub_seed(seed, "link"));
            ClusterRun::launch(
                spec.agents,
                None,
                |rank| {
                    let mechanism = &mechanisms[(rank / BLOCK) % mechanisms.len()];
                    // Every rank of a mechanism reads the mechanism's one
                    // shared device, each through its own fault gate seeded
                    // per rank.
                    let plan = FaultPlan::uniform(mix64(faults, rank as u64), REMOTE_FAULT_RATE);
                    let mut inner = mechanism.faulted(&plan);
                    if traced {
                        inner = Box::new(Probe::new(inner, timer(&sinks.backend), None));
                    }
                    // What `MonEq::deploy_remote` builds, with probes around
                    // and inside the wire.
                    let remote = RemoteBackend::connect_salted(inner, link, rank as u64);
                    Box::new(Probe::new(
                        Box::new(remote),
                        timer(&sinks.exchange),
                        Some(Arc::clone(&sinks.ledger)),
                    ))
                },
                agent_name,
                SimTime::ZERO,
            )
        }
    }
}
