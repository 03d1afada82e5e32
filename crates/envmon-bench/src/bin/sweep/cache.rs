//! `sweep cache` — what batched collection saves on a BG/Q node card.
//!
//! Drives the EMON workload twice per scale — every agent collecting for
//! itself vs one leader per 32-node node card
//! ([`moneq::CollectionPlan::node_card`]). Two claims are under test:
//!
//! 1. the charged virtual collection cost drops by the sharing-domain
//!    factor (~32× for a full node card: one EMON query per generation
//!    instead of 32);
//! 2. the output files are byte-identical either way — the plan changes
//!    cost, never data — checked on every leg, not just asserted once.

use crate::gate::{Gate, Read, Rule};
use crate::json::{fixed, Doc, Obj};
use crate::rig::{best_of, bgq_machine, bgq_run, card_blocked, drive, records};
use crate::Mode;
use moneq::{ClusterResult, CollectionPlan, MonEqConfig};
use simkit::SimDuration;

pub const GATES: &[Gate] = &[Gate::new(
    "cache collection_factor",
    Rule::Floor(
        Read::Min("collection_factor"),
        Read::Min("collection_factor"),
    ),
)];

/// Drive `agents` EMON agents, 32 per node card, with or without the
/// node-card collection plan.
fn leg(seed: u64, agents: usize, virtual_secs: u64, plan: bool) -> (f64, ClusterResult) {
    let machine = bgq_machine(seed, virtual_secs);
    let mut run = bgq_run(
        &machine,
        agents,
        card_blocked,
        MonEqConfig::default(),
        moneq::host_cpus(),
    );
    if plan {
        run = run.with_collection_plan(CollectionPlan::node_card());
    }
    drive(run, virtual_secs)
}

fn collection_us(result: &ClusterResult) -> f64 {
    result
        .overheads
        .iter()
        .fold(SimDuration::ZERO, |acc, o| acc + o.collection)
        .as_nanos() as f64
        / 1e3
}

pub fn run(seed: u64, mode: Mode) -> String {
    let quick = mode != Mode::Full;
    let sweep: &[(usize, u64)] = if quick {
        &[(32, 4)]
    } else {
        &[(32, 8), (128, 8), (512, 4)]
    };
    let reps = if quick { 2 } else { 3 };

    let mut rows = Vec::new();
    let mut first_factor = None;
    for &(agents, virtual_secs) in sweep {
        // Discarded warm-up leg at this footprint (allocator/page faults).
        drop(leg(seed, agents, virtual_secs, false));
        let (_, naive) = leg(seed, agents, virtual_secs, false);
        let (_, planned) = leg(seed, agents, virtual_secs, true);
        let identical = naive.files == planned.files;
        assert!(identical, "the collection plan changed the output files");
        let records = records(&naive);
        let naive_us = collection_us(&naive);
        let planned_us = collection_us(&planned);
        let factor = naive_us / planned_us;
        first_factor.get_or_insert(factor);
        let (hits, misses) = (planned.cache.hits, planned.cache.misses);
        drop((naive, planned));
        let naive_ms = best_of(reps, || leg(seed, agents, virtual_secs, false).0);
        let planned_ms = best_of(reps, || leg(seed, agents, virtual_secs, true).0);
        eprintln!(
            "agents {agents:>5}  charged {naive_us:>12.0} us -> {planned_us:>10.0} us \
             ({factor:.1}x)  wall {naive_ms:>7.1} -> {planned_ms:>7.1} ms"
        );
        rows.push(
            Obj::default()
                .field("agents", agents)
                .field("virtual_secs", virtual_secs)
                .field("records", records)
                .field("naive_collection_us", fixed(naive_us, 1))
                .field("planned_collection_us", fixed(planned_us, 1))
                .field("collection_factor", fixed(factor, 1))
                .field("cache_hits", hits)
                .field("cache_misses", misses)
                .field("naive_ms", fixed(naive_ms, 1))
                .field("planned_ms", fixed(planned_ms, 1))
                .field("outputs_identical", identical),
        );
    }

    // The headline claim: a full 32-agent node card pays >= 10x (in fact
    // exactly 32x) less charged collection time under the plan.
    let factor = first_factor.expect("at least one leg");
    assert!(
        factor >= 10.0,
        "node-card batching only saved {factor:.1}x, expected ~32x"
    );

    Doc::new("cache_collection_sweep", seed)
        .field("reps", reps)
        .field("domain_size", 32)
        .rows("sweeps", rows)
        .finish()
}
