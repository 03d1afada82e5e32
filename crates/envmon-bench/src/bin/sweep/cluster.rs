//! `sweep cluster` — wall-clock benchmark of the parallel [`ClusterRun`].
//!
//! Runs the Table III–style cluster fan-out serially and on the worker
//! pool at Mira scales — 1,536 node-card agents (the paper's full-system
//! run), then 16k and 49k node-level agents — and a Figure 8–style
//! machine-wide sum reduction.
//!
//! [`ClusterRun`]: moneq::ClusterRun

use crate::gate::{Gate, Read, Rule};
use crate::json::{fixed, Doc, Obj};
use crate::rig::{bgq_machine, bgq_run, card_round_robin, drive, records};
use crate::Mode;
use moneq::{ClusterResult, MonEqConfig};
use std::time::Instant;

pub const GATES: &[Gate] = &[
    Gate::new(
        "cluster parallel speedup",
        Rule::Speedup(Read::Max("speedup"), Read::Min("speedup")),
    ),
    // The committed 49k-agent leg carries an absolute claim the docs
    // repeat (README, DESIGN §12.4): launch under 10 ms. It is a property
    // of the committed recording, not of this machine, so a re-record
    // that regresses past it fails here rather than drifting silently.
    Gate::new(
        "committed 49k launch_ms",
        Rule::CommittedBelow(Read::Agents(49_152, "launch_ms"), 10.0),
    ),
];

/// Drive `agents` agents on `workers` workers in chunks of `chunk`
/// ranks; returns (launch ms, drive ms, result).
fn leg(
    seed: u64,
    agents: usize,
    virtual_secs: u64,
    workers: usize,
    chunk: usize,
) -> (f64, f64, ClusterResult) {
    let machine = bgq_machine(seed, virtual_secs);
    let t0 = Instant::now();
    let run = bgq_run(
        &machine,
        agents,
        card_round_robin,
        MonEqConfig::default(),
        workers,
    )
    .with_chunk_size(chunk);
    let launch_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (drive_ms, result) = drive(run, virtual_secs);
    (launch_ms, drive_ms, result)
}

pub fn run(seed: u64, mode: Mode) -> String {
    // Pool width = physical CPUs: requesting more only adds scheduling
    // overhead (ClusterRun caps internally regardless, and takes the
    // serial path outright on a single-CPU host).
    let workers = moneq::host_cpus();
    let chunk = 64;
    // (agents, virtual seconds): the 1,536-agent row is the paper's full
    // Mira run at node-card granularity over a longer window; the 16k/49k
    // rows stress scheduler + memory at node granularity with a short
    // window so the serial baseline stays measurable.
    // The 1M-agent leg (full mode only) probes launch and memory behavior
    // an order of magnitude past the paper's largest machine; one virtual
    // second keeps its serial baseline measurable.
    let sweep: &[(usize, u64)] = if mode == Mode::Full {
        &[(1_536, 10), (16_384, 2), (49_152, 2), (1_048_576, 1)]
    } else {
        &[(256, 4), (1_536, 2)]
    };

    // Sanity: the parallel path must be indistinguishable from serial.
    {
        let (_, _, a) = leg(seed, 64, 4, 1, 1);
        let (_, _, b) = leg(seed, 64, 4, workers, 5);
        assert_eq!(a.files, b.files, "parallel diverged from serial");
        assert_eq!(a.overheads, b.overheads, "ledger diverged");
    }

    let mut rows = Vec::new();
    for &(agents, virtual_secs) in sweep {
        // Discarded warm-up leg: the first run at a given footprint pays
        // the allocator/page-fault cost, which would otherwise be billed
        // to whichever leg ran first.
        let (warm_launch_ms, _, _) = leg(seed, agents, virtual_secs, workers, chunk);
        let (serial_launch_ms, serial_ms, serial) = leg(seed, agents, virtual_secs, 1, chunk);
        let records = records(&serial);
        drop(serial);
        let (par_launch_ms, parallel_ms, parallel) =
            leg(seed, agents, virtual_secs, workers, chunk);
        assert_eq!(parallel.files.len(), agents);
        // Effective pool width of the parallel leg (1 = it actually ran
        // serial, e.g. on a single-CPU host): the speedup gate skips
        // such legs, since a serial-vs-serial ratio is pure noise.
        let pool_width = parallel.sched.workers.max(1);
        drop(parallel);
        // Launch does identical deterministic work on every leg, so
        // record the best of the three — the same minimum-as-estimator
        // discipline the other sweeps use against VM jitter.
        let launch_ms = warm_launch_ms.min(serial_launch_ms).min(par_launch_ms);
        let speedup = serial_ms / parallel_ms;
        eprintln!(
            "agents {agents:>7}  serial {serial_ms:>9.1} ms  parallel {parallel_ms:>9.1} ms  \
             speedup {speedup:.2}x  (pool width {pool_width})"
        );
        rows.push(
            Obj::default()
                .field("agents", agents)
                .field("virtual_secs", virtual_secs)
                .field("records", records)
                .field("pool_width", pool_width)
                .field("launch_ms", fixed(launch_ms, 1))
                .field("serial_ms", fixed(serial_ms, 1))
                .field("parallel_ms", fixed(parallel_ms, 1))
                .field("speedup", fixed(speedup, 2)),
        );
    }

    // Figure 8-style reduction on the first sweep's scale: machine-wide sum
    // of node-card power across all agents.
    let (fig8_agents, fig8_secs) = sweep[0];
    let (_, _, result) = leg(seed, fig8_agents, fig8_secs, workers, chunk);
    let t = Instant::now();
    let sum = result.sum_series("nodecard");
    let reduce_ms = t.elapsed().as_secs_f64() * 1e3;

    Doc::new("cluster_parallel_sweep", seed)
        .field("workers", workers)
        .field("chunk_size", chunk)
        .rows("sweeps", rows)
        .field(
            "figure8_sum",
            Obj::default()
                .field("agents", fig8_agents)
                .field("reduce_ms", fixed(reduce_ms, 1))
                .field("sum_mean_w", fixed(sum.stats().mean(), 1)),
        )
        .finish()
}
