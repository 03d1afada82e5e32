//! `sweep` — the repo's guarded benches, one subcommand per experiment.
//!
//! ```text
//! sweep <cluster|cache|telemetry|accuracy|query|transport|scenarios>
//!       [--seed N] [--out FILE] [--quick | --smoke]
//! sweep check
//! ```
//!
//! Each sweep asserts its own invariants in-process (serial == parallel,
//! byte-identical outputs, exact rollups, …) and writes its rows as JSON,
//! by default to `BENCH_<name>.json` in the working directory. `--quick`
//! runs smaller scales; `--smoke` exists only where a sweep has a distinct
//! CI leg (`telemetry`, `scenarios`).
//!
//! `sweep check` runs every sweep at `--quick`, at the default seed the
//! committed files were recorded at, into a temp dir and holds the fresh
//! JSON against the committed `BENCH_<name>.json` in the working directory, using the gates each sweep's module declares next to the
//! rows they guard ([`gate`]). It prints one `ok`, `skip` or `FAIL` line
//! per gate and exits 1 if any gate fails.

mod accuracy;
mod cache;
mod cluster;
mod gate;
mod json;
mod query;
mod rig;
mod scenarios;
mod telemetry;
mod transport;

use envmon_bench::DEFAULT_SEED;
use gate::Gate;
use std::path::PathBuf;

/// How much of a sweep to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The recorded scales, the ones the committed `BENCH_*.json` hold.
    Full,
    /// Smaller scales: what `sweep check` holds against the committed rows.
    Quick,
    /// The sweep's single CI leg.
    Smoke,
}

/// One experiment: how to run it and which gates guard its rows.
struct Sweep {
    name: &'static str,
    /// Runs the sweep at `(seed, mode)`, asserting its invariants, and
    /// returns the JSON document.
    run: fn(u64, Mode) -> String,
    /// Held by `sweep check`: fresh `--quick` JSON vs the committed file.
    gates: &'static [Gate],
    /// Whether the sweep has a `--smoke` leg.
    smoke: bool,
}

const SWEEPS: [Sweep; 7] = [
    Sweep {
        name: "cluster",
        run: cluster::run,
        gates: cluster::GATES,
        smoke: false,
    },
    Sweep {
        name: "cache",
        run: cache::run,
        gates: cache::GATES,
        smoke: false,
    },
    Sweep {
        name: "telemetry",
        run: telemetry::run,
        gates: telemetry::GATES,
        smoke: true,
    },
    Sweep {
        name: "accuracy",
        run: accuracy::run,
        gates: accuracy::GATES,
        smoke: false,
    },
    Sweep {
        name: "query",
        run: query::run,
        gates: query::GATES,
        smoke: false,
    },
    Sweep {
        name: "transport",
        run: transport::run,
        gates: transport::GATES,
        smoke: false,
    },
    Sweep {
        name: "scenarios",
        run: scenarios::run,
        gates: scenarios::GATES,
        smoke: true,
    },
];

const USAGE: &str = "usage: sweep <cluster|cache|telemetry|accuracy|query|transport|scenarios> \
                     [--seed N] [--out FILE] [--quick | --smoke]\n       sweep check";

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| die("missing subcommand"));
    if command == "--help" || command == "-h" {
        println!("{USAGE}");
        return;
    }
    let mut seed = None;
    let mut out: Option<PathBuf> = None;
    let mut mode = Mode::Full;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--seed needs an integer")),
                );
            }
            "--out" => {
                out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--out needs a path"))
                        .into(),
                )
            }
            "--quick" | "--smoke" if mode != Mode::Full => {
                die("--quick and --smoke exclude each other")
            }
            "--quick" => mode = Mode::Quick,
            "--smoke" => mode = Mode::Smoke,
            other => die(&format!("unknown argument {other}")),
        }
    }

    if command == "check" {
        // The committed rows were recorded at the default seed, and the
        // seed moves the figures the gates compare.
        if seed.is_some() || out.is_some() || mode != Mode::Full {
            die("check takes no options");
        }
        std::process::exit(check());
    }
    let sweep = SWEEPS
        .iter()
        .find(|s| s.name == command)
        .unwrap_or_else(|| die(&format!("unknown sweep {command}")));
    if mode == Mode::Smoke && !sweep.smoke {
        die(&format!("{command} has no --smoke leg"));
    }
    let doc = (sweep.run)(seed.unwrap_or(DEFAULT_SEED), mode);
    let out = out.unwrap_or_else(|| format!("BENCH_{}.json", sweep.name).into());
    std::fs::write(&out, &doc).unwrap_or_else(|e| die(&format!("writing {}: {e}", out.display())));
    eprintln!("[wrote {}]", out.display());
}

/// `sweep check`: every sweep at `--quick` into a temp dir, each gate held
/// against the committed `BENCH_<name>.json`. Returns the exit code.
fn check() -> i32 {
    let tmp = std::env::temp_dir().join(format!("sweep-check-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap_or_else(|e| die(&format!("{}: {e}", tmp.display())));
    let mut failed = false;
    for sweep in &SWEEPS {
        eprintln!("==> sweep {} --quick", sweep.name);
        let fresh = (sweep.run)(DEFAULT_SEED, Mode::Quick);
        let fresh_path = tmp.join(format!("{}.json", sweep.name));
        std::fs::write(&fresh_path, &fresh)
            .unwrap_or_else(|e| die(&format!("writing {}: {e}", fresh_path.display())));
        let committed_path = format!("BENCH_{}.json", sweep.name);
        // A missing file fails every gate below; say why once.
        let committed = std::fs::read_to_string(&committed_path).unwrap_or_else(|e| {
            println!("FAIL {committed_path}: {e}");
            String::new()
        });
        for g in sweep.gates {
            let v = g.judge(&fresh, &committed);
            failed |= v.failed();
            println!("{v}");
        }
    }
    if failed {
        println!(
            "bench gates failed (fresh JSON kept in {}); if the change is \
             intended, re-record the BENCH_*.json files with the full sweeps \
             and commit them",
            tmp.display()
        );
        return 1;
    }
    let _ = std::fs::remove_dir_all(&tmp);
    println!("BENCH OK");
    0
}

fn die(msg: &str) -> ! {
    eprintln!("sweep: {msg}\n{USAGE}");
    std::process::exit(2);
}
