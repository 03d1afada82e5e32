//! `sweep telemetry` — wall-clock cost of the telemetry layer, on vs off.
//!
//! Drives the same [`ClusterRun`] workload twice per scale — telemetry
//! disabled (the default) and enabled. The disabled leg is the claim under
//! test: with `MonEqConfig::telemetry = false` the layer is one branch per
//! event, so the disabled runs must cost the same as the seed code and
//! produce byte-identical output files.
//!
//! The off and on legs run interleaved, one pair per rep with the first
//! leg alternating, and the overhead is the median of the pairs' on/off
//! ratios: a host speed phase then slows both legs of a pair instead of
//! every rep of one leg.
//!
//! `--smoke` runs the single full-Mira leg (1,536 agents) at full reps and
//! fails if enabling telemetry costs more than 10 % wall clock: the CI
//! perf-smoke stage.
//!
//! [`ClusterRun`]: moneq::ClusterRun

use crate::gate::{Gate, Read, Rule};
use crate::json::{fixed, Doc, Obj};
use crate::rig::{bgq_machine, bgq_run, card_round_robin, drive, records};
use crate::Mode;
use moneq::{ClusterResult, MonEqConfig};
use simkit::stats::quantile;

/// The on/off wall ratio is compared, `1 + overhead_pct / 100`.
pub const GATES: &[Gate] = &[Gate::new(
    "telemetry on/off ratio",
    Rule::Ceiling(Read::MaxPct("overhead_pct"), Read::MaxPct("overhead_pct")),
)];

/// The most wall clock the `--smoke` leg lets enabling telemetry cost.
const SMOKE_LIMIT_PCT: f64 = 10.0;

fn leg(seed: u64, agents: usize, virtual_secs: u64, telemetry: bool) -> (f64, ClusterResult) {
    let machine = bgq_machine(seed, virtual_secs);
    let config = MonEqConfig {
        telemetry,
        ..MonEqConfig::default()
    };
    let run = bgq_run(
        &machine,
        agents,
        card_round_robin,
        config,
        moneq::host_cpus(),
    );
    drive(run, virtual_secs)
}

pub fn run(seed: u64, mode: Mode) -> String {
    // The smoke leg doubles the virtual window of the recorded 1,536-agent
    // leg: twice the work halves the relative wall-clock noise, which the
    // pass/fail smoke gate needs more than a recording run does.
    let sweep: &[(usize, u64)] = match mode {
        Mode::Smoke => &[(1_536, 8)],
        Mode::Quick => &[(128, 4)],
        Mode::Full => &[(256, 8), (1_536, 4)],
    };
    // The on/off *ratio* is the product here, and a single slow pair skews
    // it by more than the claim under test; five pairs keep the median
    // tight against ~±5% VM jitter everywhere except quick mode, where wall
    // clock is not the point.
    let reps = if mode == Mode::Quick { 2 } else { 5 };

    // Sanity: enabling telemetry must not change a single output byte.
    {
        let (_, off) = leg(seed, 64, 4, false);
        let (_, on) = leg(seed, 64, 4, true);
        assert_eq!(off.files, on.files, "telemetry changed the output files");
        assert_eq!(off.overheads, on.overheads, "telemetry changed the ledger");
        assert!(off.telemetry_merged().is_empty(), "off run recorded events");
        assert!(!on.telemetry_merged().is_empty(), "on run recorded nothing");
    }

    let mut rows = Vec::new();
    let mut over_limit = false;
    for &(agents, virtual_secs) in sweep {
        // Discarded warm-up leg at this footprint (allocator/page faults).
        drop(leg(seed, agents, virtual_secs, false));
        let (_, result) = leg(seed, agents, virtual_secs, true);
        let records = records(&result);
        let events: u64 = result.telemetry_merged().counters.values().sum();
        drop(result);
        let time = |telemetry| leg(seed, agents, virtual_secs, telemetry).0;
        let pairs: Vec<(f64, f64)> = (0..reps)
            .map(|rep| {
                if rep % 2 == 0 {
                    let off = time(false);
                    (off, time(true))
                } else {
                    let on = time(true);
                    (time(false), on)
                }
            })
            .collect();
        let off_ms = pairs.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let on_ms = pairs.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let ratios: Vec<f64> = pairs.iter().map(|(off, on)| on / off).collect();
        let overhead_pct = (quantile(&ratios, 0.5) - 1.0) * 100.0;
        eprintln!(
            "agents {agents:>6}  off {off_ms:>8.1} ms  on {on_ms:>8.1} ms  \
             overhead {overhead_pct:+.1}%  ({events} events)"
        );
        over_limit |= mode == Mode::Smoke && overhead_pct > SMOKE_LIMIT_PCT;
        rows.push(
            Obj::default()
                .field("agents", agents)
                .field("virtual_secs", virtual_secs)
                .field("records", records)
                .field("events", events)
                .field("off_ms", fixed(off_ms, 1))
                .field("on_ms", fixed(on_ms, 1))
                .field("overhead_pct", fixed(overhead_pct, 1)),
        );
    }

    if over_limit {
        eprintln!("sweep telemetry: overhead past {SMOKE_LIMIT_PCT}% at --smoke");
        std::process::exit(1);
    }

    Doc::new("telemetry_overhead_sweep", seed)
        .field("reps", reps)
        .rows("sweeps", rows)
        .finish()
}
