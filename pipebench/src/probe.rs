//! The benchmark's one `EnvBackend` wrapper.
//!
//! A [`Probe`] forwards every trait method to the backend it wraps, so a
//! run built from probes computes exactly what the bare run computes. It
//! can additionally time `read`/`poll`/`read_many` into a [`ReadTimer`]
//! and, when dropped (sessions drop their backends at finalize), deposit
//! the wrapped backend's final link ledger into a [`Ledger`].

use moneq::{EnvBackend, GateStats, Poll, ReadError, StatedLimitation};
use powermodel::{Metric, Platform, Support};
use simkit::wire::LinkStats;
use simkit::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Wall-clock read counters shared by every probe of one layer.
///
/// The counters are statistics that publish no other data, so `Relaxed`
/// is enough; they are read after the run's worker pool has joined.
#[derive(Debug, Default)]
pub struct ReadTimer {
    reads: AtomicU64,
    errors: AtomicU64,
    nanos: AtomicU64,
}

impl ReadTimer {
    /// Calls timed so far (`read`, `poll` and `read_many` each count one).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Timed calls that returned an error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Wall time spent inside timed calls, in milliseconds.
    pub fn millis(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn time<T>(&self, call: impl FnOnce() -> T, failed: impl FnOnce(&T) -> bool) -> T {
        let start = Instant::now();
        let out = call();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
        if failed(&out) {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// The merged link ledgers of every probe that carried one.
#[derive(Debug, Default)]
pub struct Ledger {
    wire: Mutex<LinkStats>,
}

impl Ledger {
    /// The link ledgers deposited so far, merged.
    pub fn wire(&self) -> LinkStats {
        self.wire
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A forwarding wrapper around one backend (see the module docs).
pub struct Probe {
    inner: Box<dyn EnvBackend>,
    timer: Option<Arc<ReadTimer>>,
    ledger: Option<Arc<Ledger>>,
}

impl Probe {
    /// Wrap `inner`, timing reads into `timer` and depositing its link
    /// ledger into `ledger` at drop, each when given.
    pub fn new(
        inner: Box<dyn EnvBackend>,
        timer: Option<Arc<ReadTimer>>,
        ledger: Option<Arc<Ledger>>,
    ) -> Self {
        Probe {
            inner,
            timer,
            ledger,
        }
    }

    fn timed<T>(
        &mut self,
        call: impl FnOnce(&mut dyn EnvBackend) -> T,
        failed: impl FnOnce(&T) -> bool,
    ) -> T {
        match &self.timer {
            Some(timer) => {
                let inner = self.inner.as_mut();
                timer.time(|| call(inner), failed)
            }
            None => call(self.inner.as_mut()),
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let (Some(ledger), Some(wire)) = (&self.ledger, self.inner.wire_stats()) else {
            return;
        };
        // Never panic in drop: a poisoned lock still holds a valid ledger,
        // since every update is a plain merge.
        ledger
            .wire
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(&wire);
    }
}

impl EnvBackend for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn platform(&self) -> Platform {
        self.inner.platform()
    }

    fn min_interval(&self) -> SimDuration {
        self.inner.min_interval()
    }

    fn poll_cost(&self) -> SimDuration {
        self.inner.poll_cost()
    }

    fn capabilities(&self) -> Vec<(Metric, Support)> {
        self.inner.capabilities()
    }

    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        self.timed(|b| b.read(t), Result::is_err)
    }

    fn poll(&mut self, t: SimTime) -> Vec<moneq::DataPoint> {
        self.timed(|b| b.poll(t), |_| false)
    }

    fn read_cadence(&self) -> SimDuration {
        self.inner.read_cadence()
    }

    fn replayable(&self) -> bool {
        self.inner.replayable()
    }

    fn read_many(&mut self, t: SimTime, agents: usize) -> Result<Vec<Poll>, ReadError> {
        self.timed(|b| b.read_many(t, agents), Result::is_err)
    }

    fn batched_cost(&self, agents: usize) -> SimDuration {
        self.inner.batched_cost(agents)
    }

    fn records_per_poll(&self) -> usize {
        self.inner.records_per_poll()
    }

    fn limitations(&self) -> Vec<StatedLimitation> {
        self.inner.limitations()
    }

    fn gate_stats(&self) -> Option<GateStats> {
        self.inner.gate_stats()
    }

    fn last_poll_cost(&self) -> SimDuration {
        self.inner.last_poll_cost()
    }

    fn wire_stats(&self) -> Option<LinkStats> {
        self.inner.wire_stats()
    }
}
