//! The timing probe is transparent: every `EnvBackend` method it does not
//! time is forwarded verbatim, the ones it times return the inner result,
//! and a dropped probe deposits the inner backend's final link ledger.

use moneq::{DataPoint, EnvBackend, GateStats, Poll, ReadError, StatedLimitation};
use pipebench::probe::{Ledger, Probe, ReadTimer};
use powermodel::{Metric, Platform, Support};
use simkit::wire::LinkStats;
use simkit::{SimDuration, SimTime};
use std::sync::Arc;

/// A backend whose every method returns a value no default would.
struct Distinct;

fn link() -> LinkStats {
    LinkStats {
        tx: 5,
        rx: 4,
        retrans: 1,
        timeouts: 1,
        ..LinkStats::default()
    }
}

fn gate() -> GateStats {
    GateStats {
        admitted: 9,
        transient: 2,
        ..GateStats::default()
    }
}

impl EnvBackend for Distinct {
    fn name(&self) -> &'static str {
        "distinct"
    }
    fn platform(&self) -> Platform {
        Platform::Nvml
    }
    fn min_interval(&self) -> SimDuration {
        SimDuration::from_millis(70)
    }
    fn poll_cost(&self) -> SimDuration {
        SimDuration::from_micros(33)
    }
    fn capabilities(&self) -> Vec<(Metric, Support)> {
        vec![(Metric::Voltage, Support::NotApplicable)]
    }
    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        if t == SimTime::from_secs(13) {
            return Err(ReadError::NoData);
        }
        Ok(Poll::with_missing(
            vec![DataPoint::power(t, "dev", "dom", 7.5)],
            2,
        ))
    }
    fn poll(&mut self, t: SimTime) -> Vec<DataPoint> {
        vec![DataPoint::power(t, "poll-only", "dom", 1.25)]
    }
    fn read_cadence(&self) -> SimDuration {
        SimDuration::from_millis(11)
    }
    fn replayable(&self) -> bool {
        true
    }
    fn read_many(&mut self, t: SimTime, agents: usize) -> Result<Vec<Poll>, ReadError> {
        Ok(vec![
            Poll::complete(vec![DataPoint::power(
                t, "many", "dom", 3.0
            )]);
            agents + 1
        ])
    }
    fn batched_cost(&self, agents: usize) -> SimDuration {
        SimDuration::from_micros(100 + agents as u64)
    }
    fn records_per_poll(&self) -> usize {
        17
    }
    fn limitations(&self) -> Vec<StatedLimitation> {
        vec![StatedLimitation::new("cost", "distinct")]
    }
    fn gate_stats(&self) -> Option<GateStats> {
        Some(gate())
    }
    fn last_poll_cost(&self) -> SimDuration {
        SimDuration::from_micros(41)
    }
    fn wire_stats(&self) -> Option<LinkStats> {
        Some(link())
    }
}

fn assert_same(probe: &mut dyn EnvBackend, bare: &mut dyn EnvBackend) {
    assert_eq!(probe.name(), bare.name());
    assert_eq!(probe.platform(), bare.platform());
    assert_eq!(probe.min_interval(), bare.min_interval());
    assert_eq!(probe.poll_cost(), bare.poll_cost());
    assert_eq!(probe.capabilities(), bare.capabilities());
    assert_eq!(probe.read_cadence(), bare.read_cadence());
    assert_eq!(probe.replayable(), bare.replayable());
    assert_eq!(probe.batched_cost(5), bare.batched_cost(5));
    assert_eq!(probe.records_per_poll(), bare.records_per_poll());
    assert_eq!(probe.limitations(), bare.limitations());
    assert_eq!(probe.gate_stats(), bare.gate_stats());
    assert_eq!(probe.last_poll_cost(), bare.last_poll_cost());
    assert_eq!(probe.wire_stats(), bare.wire_stats());
    for t in [SimTime::from_secs(12), SimTime::from_secs(13)] {
        assert_eq!(probe.read(t), bare.read(t));
        assert_eq!(probe.poll(t), bare.poll(t));
        assert_eq!(probe.read_many(t, 3), bare.read_many(t, 3));
    }
}

#[test]
fn untimed_probe_forwards_every_method() {
    let mut probe = Probe::new(Box::new(Distinct), None, None);
    assert_same(&mut probe, &mut Distinct);
}

#[test]
fn timed_probe_forwards_and_counts() {
    let timer = Arc::new(ReadTimer::default());
    let ledger = Arc::new(Ledger::default());
    let mut probe = Probe::new(
        Box::new(Distinct),
        Some(Arc::clone(&timer)),
        Some(Arc::clone(&ledger)),
    );
    assert_same(&mut probe, &mut Distinct);
    // Two instants x (read, poll, read_many); the read at 13 s failed.
    assert_eq!(timer.reads(), 6);
    assert_eq!(timer.errors(), 1);
    assert!(timer.millis() >= 0.0);
    drop(probe);
    assert_eq!(ledger.wire(), link());
}
