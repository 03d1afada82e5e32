//! `sweep scenarios` — run the closed-loop scenario catalog (DESIGN.md
//! §16).
//!
//! For every catalog entry (`exp1`..`exp4`) the sweep runs the
//! replication schedule — seeds come from
//! [`envmon_bench::replication_seed`], the same helper `repro scenarios`
//! uses, so a BENCH row and a repro summary line for the same
//! `(exp, rep)` pair describe the *same* run — and asserts every
//! machine-checked invariant in-process. A determinism referee then
//! reruns replication 0 of each experiment and byte-compares the full
//! rendered artifact (CSV + JSON + invariant verdicts); any drift is a
//! hard failure, not a tolerance. `--quick` caps replications at 2;
//! `--smoke` runs one replication per experiment and skips the referee.
//!
//! Each row carries `"invariant": 1|0`, and the top level carries
//! `"deterministic": 1|0` plus `"determinism_checked": 1|0` (0 only
//! under `--smoke`). The process exits 1 if any row or the referee fails.

use crate::gate::{Gate, Rule};
use crate::json::Doc;
use crate::Mode;
use envmon_analysis::scenarios::CATALOG;
use envmon_bench::replication_seed;
use envmon_scenarios::run_replication;

pub const GATES: &[Gate] = &[
    // An empty or truncated file must not pass by matching nothing: at
    // least one replication row per experiment.
    Gate::new("committed scenario invariant", Rule::Flag("invariant", 4)),
    Gate::new(
        "committed scenario deterministic",
        Rule::Flag("deterministic", 1),
    ),
];

pub fn run(seed: u64, mode: Mode) -> String {
    let wall = std::time::Instant::now();
    let mut rows: Vec<String> = Vec::new();
    let mut failures = 0usize;

    for spec in CATALOG {
        let reps = match mode {
            Mode::Smoke => 1,
            Mode::Quick => spec.replications.min(2),
            Mode::Full => spec.replications,
        };
        eprintln!("== {}: {} ({} reps)", spec.key, spec.title, reps);
        for rep in 0..reps {
            let rep_seed = replication_seed(spec.key, rep, seed);
            let r = run_replication(spec.key, rep, rep_seed);
            eprintln!("   {}", r.summary_line());
            if !r.passed() {
                failures += 1;
                for inv in r.invariants.iter().filter(|i| !i.pass) {
                    eprintln!("   FAILED {}: {}", inv.name, inv.detail);
                }
            }
            rows.push(r.json());
        }
    }

    // Determinism referee: replication 0 of each experiment, rerun from
    // the same seed, must reproduce the artifact byte-for-byte.
    let checked = mode != Mode::Smoke;
    let mut deterministic = true;
    if checked {
        for spec in CATALOG {
            let rep_seed = replication_seed(spec.key, 0, seed);
            let a = run_replication(spec.key, 0, rep_seed).artifact();
            let b = run_replication(spec.key, 0, rep_seed).artifact();
            if a != b {
                deterministic = false;
                eprintln!("   NONDETERMINISTIC: {} rep0 artifacts differ", spec.key);
            }
        }
    }

    if failures > 0 {
        eprintln!("sweep scenarios: {failures} replication(s) violated invariants");
        std::process::exit(1);
    }
    if !deterministic {
        eprintln!("sweep scenarios: determinism referee failed");
        std::process::exit(1);
    }

    Doc::new("scenario_sweep", seed)
        .field("wall_ms", wall.elapsed().as_millis())
        .field("determinism_checked", u8::from(checked))
        .field("deterministic", u8::from(deterministic))
        .rows("replications", rows)
        .finish()
}
