//! The BG/Q cluster every wall-clock sweep drives, and how it is timed.

use bgq_sim::{BgqConfig, BgqMachine};
use hpc_workloads::{Channel, WorkloadProfile};
use moneq::{ClusterResult, ClusterRun, MonEqConfig};
use simkit::{SimDuration, SimTime};
use std::sync::Arc;

/// One rack (32 node cards) running a flat 60 % CPU job for
/// `virtual_secs`.
pub fn bgq_machine(seed: u64, virtual_secs: u64) -> Arc<BgqMachine> {
    let mut profile = WorkloadProfile::new("sweep", SimDuration::from_secs(virtual_secs));
    profile.set_demand(
        Channel::Cpu,
        powermodel::PhaseBuilder::new()
            .phase(SimDuration::from_secs(virtual_secs), 0.6)
            .build(),
    );
    let mut machine = BgqMachine::new(BgqConfig::default(), seed);
    machine.assign_job(&(0..32).collect::<Vec<_>>(), &profile);
    Arc::new(machine)
}

/// Agent `rank` reads node card `rank % 32`: neighbours on different cards.
pub fn card_round_robin(rank: usize) -> usize {
    rank % 32
}

/// Agent `rank` reads node card `(rank / 32) % 32`: 32 consecutive ranks
/// share a card, matching the node-card sharing domain.
pub fn card_blocked(rank: usize) -> usize {
    (rank / 32) % 32
}

/// Launch `agents` EMON agents over `machine` on a pool of `workers`.
pub fn bgq_run(
    machine: &Arc<BgqMachine>,
    agents: usize,
    card: fn(usize) -> usize,
    config: MonEqConfig,
    workers: usize,
) -> ClusterRun {
    ClusterRun::launch_with(
        agents,
        |rank| {
            Box::new(moneq::backends::BgqBackend::new(
                machine.clone(),
                card(rank),
            ))
        },
        envmon_bench::agent_name,
        SimTime::ZERO,
        config,
    )
    .with_par_agents(workers)
}

/// Run `run` to `virtual_secs` and finalize it; returns the wall-clock
/// milliseconds that took, with the result.
pub fn drive(mut run: ClusterRun, virtual_secs: u64) -> (f64, ClusterResult) {
    let end = SimTime::from_secs(virtual_secs);
    let t0 = std::time::Instant::now();
    run.run_until(end);
    let result = run.finalize(end);
    (t0.elapsed().as_secs_f64() * 1e3, result)
}

/// Records across every agent's output file.
pub fn records(result: &ClusterResult) -> usize {
    result.files.iter().map(|f| f.points.len()).sum()
}

/// Best-of-N wall-clock: the minimum is the least noisy estimator for a
/// deterministic workload under scheduler jitter.
pub fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}
