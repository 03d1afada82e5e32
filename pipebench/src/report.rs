//! Turn episodes into the metrics `BENCHMARK.json` names.

use crate::episode::Episode;
use crate::queries::{median, percentile};

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn count(name: &'static str, value: u64) -> Metric {
    m(name, value as f64, "count")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The timing metrics of one episode: ingest rate, tick p50 and p90,
/// query p50 and p99 (µs), queries per second.
pub fn timings(e: &Episode) -> [f64; 6] {
    let mut ticks = e.tick_ns.clone();
    let tick_s = ticks.iter().sum::<u64>() as f64 / 1e9;
    let mut queries: Vec<u64> = e.query_ns.iter().flatten().copied().collect();
    [
        ratio(e.ingested as f64, tick_s),
        percentile(&mut ticks, 50.0) as f64 / 1e6,
        percentile(&mut ticks, 90.0) as f64 / 1e6,
        percentile(&mut queries, 50.0) as f64 / 1e3,
        percentile(&mut queries, 99.0) as f64 / 1e3,
        ratio(e.answered as f64, e.query_cpu_s),
    ]
}

/// End-to-end metrics of one untraced run. Every timing but `query_p50_us`
/// is taken per episode and the median over episodes reported, so one
/// episode slowed by the host does not move the result. `query_p50_us` is
/// taken over every query of the run: the clean mix is half `Range`, so
/// its median sits where the slowest `Range` answers meet the fastest
/// answers of the other kinds, where latencies are sparse, and it needs
/// every sample the run has. Each episode sends its own set of the seed's
/// query streams, so the run samples several sets.
pub fn end_to_end(episodes: &[Episode], peak_rss_mb: f64) -> Vec<Metric> {
    let per_episode: Vec<[f64; 6]> = episodes.iter().map(timings).collect();
    let med = |i: usize| median(&per_episode.iter().map(|t| t[i]).collect::<Vec<_>>());
    let mut queries: Vec<u64> = episodes
        .iter()
        .flat_map(|e| e.query_ns.iter().flatten().copied())
        .collect();
    let first = &episodes[0];
    let (mut delivered, mut expected) = (0u64, 0u64);
    for c in &first.completeness {
        delivered += c.records_fresh + c.records_stale;
        expected += c.records_expected();
    }
    vec![
        m(
            "setup_s",
            median(&episodes.iter().map(|e| e.setup_s).collect::<Vec<_>>()),
            "s",
        ),
        m("ingest_rps", med(0), "1/s"),
        m("tick_p50_ms", med(1), "ms"),
        m("tick_p90_ms", med(2), "ms"),
        m(
            "query_p50_us",
            percentile(&mut queries, 50.0) as f64 / 1e3,
            "us",
        ),
        m("query_p99_us", med(4), "us"),
        m("qps", med(5), "1/s"),
        m("agent_overhead_ms", first.overhead_ms, "sim_ms"),
        m(
            "records_delivered_frac",
            ratio(delivered as f64, expected as f64),
            "frac",
        ),
        m(
            "queries_answered_frac",
            ratio(
                episodes.iter().map(|e| e.answered).sum::<u64>() as f64,
                episodes.iter().map(|e| e.attempted).sum::<u64>() as f64,
            ),
            "frac",
        ),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Per-layer metrics of a traced episode, with `untraced` (same seed) as
/// the reference for the tracing overhead. `cpu` is the process's user
/// and system seconds.
pub fn per_layer(untraced: &Episode, traced: &Episode, cpu: (f64, f64)) -> Vec<Metric> {
    let l = traced.layers.clone().unwrap_or_default();
    let mut fault = (0, 0, 0);
    for c in &traced.completeness {
        fault.0 += c.retried;
        fault.1 += c.stale_polls;
        fault.2 += c.missed_polls;
    }
    let cache = &traced.cache;
    let kind_p50 = |k: usize| percentile(&mut traced.query_ns[k].clone(), 50.0) as f64 / 1e3;
    let w = &traced.wire;
    vec![
        count("backends.reads", l.backend_reads),
        m("backends.read_ms", l.backend_ms, "ms"),
        count("backends.read_errors", l.backend_errors),
        count("fault.retries", fault.0),
        count("fault.stale_polls", fault.1),
        count("fault.missed_polls", fault.2),
        count("plan.hits", cache.hits),
        count("plan.misses", cache.misses),
        count("plan.bypasses", cache.bypasses),
        m(
            "plan.hit_ratio",
            ratio(cache.hits as f64, cache.lookups() as f64),
            "frac",
        ),
        m("cluster.run_until_ms", l.run_until_ms, "ms"),
        m(
            "cluster.self_ms",
            l.worker_busy_ms - l.backend_ms - l.exchange_ms,
            "ms",
        ),
        m("cluster.worker_busy_ms", l.worker_busy_ms, "ms"),
        count("cluster.records", l.cluster_records),
        m("daemon.tick_ms", l.tick_ms, "ms"),
        m("daemon.self_ms", l.tick_ms - l.run_until_ms, "ms"),
        m("store.record_ms", l.record_ms, "ms"),
        m("store.record_unshared_ms", l.record_unshared_ms, "ms"),
        count("store.records", traced.store.recorded),
        m("store.snapshot_ms", l.snapshot_ms, "ms"),
        count("store.series", traced.series as u64),
        count("store.retained_samples", traced.retained),
        count("store.evicted", traced.store.raw_evicted),
        count("store.rejected_late", traced.store.rejected_late),
        m("query.range_us_p50", kind_p50(0), "us"),
        m("query.domain_aggregate_us_p50", kind_p50(1), "us"),
        m("query.topk_us_p50", kind_p50(2), "us"),
        m("query.freshness_us_p50", kind_p50(3), "us"),
        count("query.answered", traced.answered),
        count("query.errors", traced.attempted - traced.answered),
        m("wire.exchange_ms", l.exchange_ms, "ms"),
        count("wire.tx", w.tx),
        count("wire.rx", w.rx),
        count("wire.retrans", w.retrans),
        count("wire.timeouts", w.timeouts),
        m("process.user_s", cpu.0, "s"),
        m("process.sys_s", cpu.1, "s"),
        m(
            "trace.overhead_frac",
            ratio(
                traced.tick_ns.iter().sum::<u64>() as f64,
                untraced.tick_ns.iter().sum::<u64>() as f64,
            ) - 1.0,
            "frac",
        ),
    ]
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}, ..}}`.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
