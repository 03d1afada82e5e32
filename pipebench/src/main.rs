//! `pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! `--trace 0` repeats untraced episodes until `--seconds` have passed
//! (at least three, whose run digests must agree; each sends its own set
//! of the seed's query streams) and prints the end-to-end metrics, timed on
//! the process CPU clock.
//! `--trace 1` runs one untraced and one traced episode at the same seed
//! and query set (their run and answer digests must agree) and prints the
//! per-layer metrics.
//! The last line of standard output is the JSON result; the exit code is
//! non-zero when any output check failed.

use pipebench::episode::{self, Episode};
use pipebench::report::{self, Metric};
use pipebench::workload::{Spec, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Untraced episodes per run at least; timings are medians over them.
const MIN_EPISODES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15),
        trace: trace.unwrap_or(false),
    })
}

/// A field of `/proc/self/status`, in kB.
fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User and system CPU seconds of this process (`/proc/self/stat`, at the
/// kernel's usual 100 ticks per second).
fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| {
        rest.split_whitespace()
            .nth(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    (field(11), field(12))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::full(args.workload);
    let name = args.workload.name();
    let mut episodes: Vec<Episode> = Vec::new();
    let metrics: Vec<Metric> = if args.trace {
        episodes.push(episode::run(&spec, args.seed, 0, false));
        episodes.push(episode::run(&spec, args.seed, 0, true));
        report::per_layer(&episodes[0], &episodes[1], cpu_seconds())
    } else {
        let start = Instant::now();
        let budget = Duration::from_secs(args.seconds);
        while episodes.len() < MIN_EPISODES || start.elapsed() < budget {
            let set = episodes.len() as u64;
            episodes.push(episode::run(&spec, args.seed, set, false));
        }
        // The process's high-water mark at exit: nothing is allocated
        // after the last episode but the report.
        let Some(peak_kb) = status_kb("VmHWM:") else {
            eprintln!("pipebench: cannot read VmHWM from /proc/self/status");
            return ExitCode::from(3);
        };
        report::end_to_end(&episodes, peak_kb / 1024.0)
    };

    let mut correct = true;
    for (i, ep) in episodes.iter().enumerate() {
        let [rps, p50, p90, q50, q99, qps] = report::timings(ep);
        eprintln!(
            "[{name} episode {i}] wall {:.3} s  CPU: setup {:.6} s  ingest {rps:.0}/s  \
             tick p50 {p50:.3} p90 {p90:.3} ms  query p50 {q50:.3} p99 {q99:.3} us  {qps:.1} q/s",
            ep.wall_s, ep.setup_s
        );
        for c in &ep.checks {
            correct &= c.ok;
            let verdict = if c.ok { "ok" } else { "FAILED" };
            eprintln!(
                "[{name} episode {i}] {:<28} {verdict}  ({})",
                c.name, c.detail
            );
        }
    }
    for c in &episodes[0].completeness {
        eprintln!(
            "[{name}] {:<12} scheduled {} succeeded {} retried {} stale {} missed {} \
             fresh {} stale_rec {} lost {} disabled_ranks {}",
            c.device,
            c.scheduled,
            c.succeeded,
            c.retried,
            c.stale_polls,
            c.missed_polls,
            c.records_fresh,
            c.records_stale,
            c.records_lost,
            c.disabled_count()
        );
    }
    let digests: Vec<String> = episodes
        .iter()
        .map(|e| format!("{:016x}", e.digest))
        .collect();
    let same = episodes.iter().all(|e| e.digest == episodes[0].digest);
    correct &= same;
    if args.trace {
        let answers = episodes[0].answers == episodes[1].answers;
        correct &= answers;
        eprintln!(
            "[{name}] traced answers equal untraced: {}",
            if answers { "ok" } else { "FAILED" }
        );
    }
    eprintln!(
        "[{name}] run digest identical across {} episodes: {}  ({})",
        episodes.len(),
        if same { "ok" } else { "FAILED" },
        digests.join(" ")
    );
    let ticks: u64 = episodes.iter().map(|e| e.tick_ns.len() as u64).sum();
    let attempted: u64 = ticks + episodes.iter().map(|e| e.attempted).sum::<u64>();
    let failed: u64 = episodes.iter().map(|e| e.attempted - e.answered).sum();
    for x in &metrics {
        println!("{:<32} {:>16.6} {}", x.name, x.value, x.unit);
    }
    println!("{}", report::json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
