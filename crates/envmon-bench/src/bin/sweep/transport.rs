//! `sweep transport` — the in-band/out-of-band deployment sweep over the
//! framed wire protocol (DESIGN.md §14).
//!
//! Runs [`envmon_analysis::transport::transport`] and emits one JSON row
//! per mechanism: charged collection cost per deployment, the wire ledger
//! of the faulty-link run, and round-trip percentiles. Three invariants
//! are asserted in-process, tolerance-free, and gated on the committed
//! rows:
//!
//! * `identical` — a remote run over the zero-fault, zero-latency link is
//!   byte-identical to the local run;
//! * `exact` — a latency-only link's cost lands in the overhead ledger as
//!   exactly `polls × 2·latency`, and record timestamps shift by exactly
//!   one leg;
//! * `reconciled` — the faulty run's wire ledger (`tx = rx + timeouts`)
//!   and completeness ledger both balance.

use crate::gate::{Gate, Rule};
use crate::json::{fixed, Doc, Obj};
use crate::Mode;
use envmon_analysis::transport::transport;
use std::time::Instant;

pub const GATES: &[Gate] = &[
    Gate::new("committed transport identical", Rule::Flag("identical", 1)),
    Gate::new("committed transport exact", Rule::Flag("exact", 1)),
    Gate::new(
        "committed transport reconciled",
        Rule::Flag("reconciled", 1),
    ),
];

pub fn run(seed: u64, mode: Mode) -> String {
    let t0 = Instant::now();
    let table = transport(seed);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert!(
        table.all_identical(),
        "zero-latency remote != local somewhere"
    );
    assert!(table.all_exact(), "latency or fault ledger drifted");

    // The ablation is one fixed registry pass either way; quick mode only
    // skips the second-run determinism leg.
    if mode == Mode::Full {
        let again = transport(seed);
        assert_eq!(
            table.render(),
            again.render(),
            "transport ablation is not deterministic in its seed"
        );
    }

    for r in &table.rows {
        eprintln!(
            "{:<14} {:<12} polls {:>5}  local {:>12}  latent {:>12}  \
             tx {:>5}  retrans {:>4}  rtt p50 {:>10}  [{}{}{}]",
            r.mechanism,
            r.band,
            r.polls,
            r.local_collection.to_string(),
            r.latent_collection.to_string(),
            r.wire_tx,
            r.wire_retrans,
            r.rtt_p50.to_string(),
            if r.ideal_identical { "I" } else { "-" },
            if r.latency_exact { "E" } else { "-" },
            if r.faulty_reconciles { "R" } else { "-" },
        );
    }

    let rows = table.rows.iter().map(|r| {
        Obj::default()
            .text("mechanism", &r.mechanism)
            .text("band", r.band)
            .field("polls", r.polls)
            .field("local_ns", r.local_collection.as_nanos())
            .field("ideal_ns", r.ideal_collection.as_nanos())
            .field("latent_ns", r.latent_collection.as_nanos())
            .field("latency_ns", r.latency.as_nanos())
            .field("identical", u8::from(r.ideal_identical))
            .field("exact", u8::from(r.latency_exact))
            .field("tx", r.wire_tx)
            .field("rx", r.wire_rx)
            .field("retrans", r.wire_retrans)
            .field("timeouts", r.wire_timeouts)
            .field("rtt_p50_ns", r.rtt_p50.as_nanos())
            .field("rtt_p99_ns", r.rtt_p99.as_nanos())
            .field("reconciled", u8::from(r.faulty_reconciles))
    });
    Doc::new("transport_sweep", seed)
        .field("wall_ms", fixed(wall_ms, 1))
        .field("all_identical", u8::from(table.all_identical()))
        .field("all_exact", u8::from(table.all_exact()))
        .rows("mechanisms", rows)
        .finish()
}
