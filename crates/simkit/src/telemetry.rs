//! Deterministic observability: named counters, simulated-time log₂
//! histograms, and hierarchical spans.
//!
//! The paper's whole contribution is *measuring the measurers*; this module
//! turns the same discipline on the harness itself. A [`Telemetry`] registry
//! is threaded through a profiling session and records
//!
//! * **counters** — named monotonic event counts (polls scheduled, retries,
//!   stale substitutions, per-fault-kind gate decisions, …);
//! * **histograms** — [`LogHistogram`], distributions of *simulated-time*
//!   durations in log₂ buckets (per-mechanism query latency, backoff);
//! * **spans** — nested named sections of simulated time, aggregated on
//!   close into per-name [`SpanStats`] so memory stays bounded at any scale.
//!
//! Two properties are load-bearing:
//!
//! 1. **Zero cost when disabled.** A disabled registry is a `None`; every
//!    operation is a single branch, no allocation, no formatting. Callers
//!    gate any name construction on [`Telemetry::is_enabled`], so a
//!    telemetry-off run executes the same instruction stream it did before
//!    this module existed (`BENCH_telemetry.json` holds the measurement).
//! 2. **Determinism.** Everything recorded is derived from the virtual
//!    timeline (simulated clocks, indexed draws) — never from wall clock or
//!    scheduling order. Serial and parallel drives of the same seed produce
//!    byte-identical [`TelemetryReport`]s, which is property-tested.
//!
//! # Interned metric IDs
//!
//! The string-keyed API (`count("polls.scheduled", 1)`) pays a `BTreeMap`
//! lookup — and, for per-backend metrics, a `format!` — on every call.
//! Hot paths instead **intern** each name once at setup
//! ([`Telemetry::intern_counter`] / [`intern_histogram`](Telemetry::intern_histogram) /
//! [`intern_span`](Telemetry::intern_span)) and then hit dense vectors
//! through copyable [`CounterId`] / [`HistogramId`] / [`SpanId`] handles:
//! one bounds-checked index, no string hashing, no allocation. The string
//! API remains for cold paths and delegates through the intern table, so
//! both APIs observe the same metric. Interning alone does not create a
//! report entry: a counter appears only once it has been added to (even
//! with `n = 0`, mirroring the string API), a histogram once it has an
//! observation, a span once one has closed.
//!
//! Registries are **sharded by construction**: each session/worker owns its
//! own `Telemetry`, so recording takes no shared locks. Reports from many
//! ranks merge with [`TelemetryReport::absorb`] exactly like per-device
//! completeness ledgers: counters and histogram buckets are exact sums, so
//! aggregation is associative and order-independent.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Number of buckets in a [`LogHistogram`]: one zero bucket plus one per
/// power of two representable in a `u64` nanosecond count.
pub const LOG2_BUCKETS: usize = 65;

/// A histogram of simulated-time durations in log₂ buckets.
///
/// Bucket 0 holds exact-zero durations; bucket `i >= 1` holds durations in
/// `[2^(i-1), 2^i)` nanoseconds. Alongside the buckets the exact count,
/// sum, minimum, and maximum are tracked, so the mean is exact and
/// [`LogHistogram::percentile`] is exact whenever the answer falls in the
/// lowest or highest occupied bucket (in particular: exact for constant
/// distributions, the clean-run case).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; LOG2_BUCKETS],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

/// The log₂ bucket index of a nanosecond count.
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        64 - ns.leading_zeros() as usize
    }
}

/// The largest nanosecond count bucket `i` can hold.
fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Absorb one observation.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// `true` when the exact sum exceeds what a `u64` nanosecond count (a
    /// [`SimDuration`]) can carry, so [`LogHistogram::sum`] — and possibly
    /// [`LogHistogram::mean`] — are clamped. The internal accumulator is a
    /// `u128`, so the merged bucket counts and the mean stay exact far past
    /// that point; this flag makes the clamp observable instead of silent.
    pub fn saturated(&self) -> bool {
        self.sum_ns > u128::from(u64::MAX)
    }

    /// Exact sum of all observations (saturating at [`SimDuration::MAX`];
    /// see [`LogHistogram::saturated`]).
    pub fn sum(&self) -> SimDuration {
        SimDuration::from_nanos(u64::try_from(self.sum_ns).unwrap_or(u64::MAX))
    }

    /// Exact arithmetic mean ([`SimDuration::ZERO`] when empty; saturating
    /// at [`SimDuration::MAX`] in the astronomical case — see
    /// [`LogHistogram::saturated`]).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            let mean = self.sum_ns / u128::from(self.total);
            SimDuration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX))
        }
    }

    /// Exact smallest observation; `None` when empty.
    pub fn min(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_nanos(self.min_ns))
    }

    /// Exact largest observation; `None` when empty.
    pub fn max(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_nanos(self.max_ns))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) at log₂-bucket resolution: the
    /// upper bound of the bucket where the cumulative count crosses
    /// `q × count`, clamped into the exact observed `[min, max]` range.
    /// Returns [`SimDuration::ZERO`] for an empty histogram.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_nanos(bucket_hi(i).clamp(self.min_ns, self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// The raw bucket counts (`LOG2_BUCKETS` entries).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Fold another histogram into this one: buckets, counts, and sums are
    /// exact sums; min/max are the combined extrema.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Aggregated statistics for all closed spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// How many spans with this name closed.
    pub count: u64,
    /// Total simulated time covered (sum over closings).
    pub total: SimDuration,
    /// Longest single span.
    pub max: SimDuration,
    /// Nesting depth at which the span runs (0 = top level). Spans of one
    /// name always open at one depth in practice; merges keep the minimum.
    pub depth: u16,
}

/// A pre-resolved handle to one named counter (see the module docs on
/// interning). Valid only for the registry that issued it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterId(u32);

/// A pre-resolved handle to one named histogram. Valid only for the
/// registry that issued it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramId(u32);

/// A pre-resolved handle to one named span. Valid only for the registry
/// that issued it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanId(u32);

/// A telemetry registry: disabled (`None` inside, every operation a single
/// branch) or enabled (owning counters, histograms, and span aggregates).
///
/// Sessions own one registry each — registries are per-worker shards, never
/// shared. A finished shard is *moved* out of its session (a few pointer
/// copies, no allocation) and snapshotted into a mergeable
/// [`TelemetryReport`] only when a consumer asks ([`Telemetry::report`]):
/// materializing the string-keyed maps is deferred to read time, so the
/// per-session finalize path never pays for it.
///
/// Equality compares full registry state — interned names (in intern
/// order), values, and open spans — so it is strictly stronger than
/// comparing reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Telemetry {
    inner: Option<Box<Inner>>,
}

/// Dense interned storage. The `*_index` maps are consulted only while
/// interning (setup) and by the delegating string API (cold paths); the
/// hot ID paths index straight into the vectors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Inner {
    counter_index: BTreeMap<String, u32>,
    counter_names: Vec<String>,
    counter_vals: Vec<u64>,
    /// Interning alone must not create a report entry; only counters that
    /// have actually been added to (even with `n = 0`, matching the string
    /// API of old) appear in [`Telemetry::report`].
    counter_touched: Vec<bool>,
    hist_index: BTreeMap<String, u32>,
    hist_names: Vec<String>,
    hists: Vec<LogHistogram>,
    span_index: BTreeMap<String, u32>,
    span_names: Vec<String>,
    span_stats: Vec<SpanStats>,
    open: Vec<(u32, SimTime)>,
}

impl Inner {
    fn intern_counter(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.counter_index.get(name) {
            return i;
        }
        let i = u32::try_from(self.counter_names.len()).unwrap_or(u32::MAX);
        self.counter_index.insert(name.to_owned(), i);
        self.counter_names.push(name.to_owned());
        self.counter_vals.push(0);
        self.counter_touched.push(false);
        i
    }

    fn intern_hist(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.hist_index.get(name) {
            return i;
        }
        let i = u32::try_from(self.hist_names.len()).unwrap_or(u32::MAX);
        self.hist_index.insert(name.to_owned(), i);
        self.hist_names.push(name.to_owned());
        self.hists.push(LogHistogram::default());
        i
    }

    fn intern_span(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.span_index.get(name) {
            return i;
        }
        let i = u32::try_from(self.span_names.len()).unwrap_or(u32::MAX);
        self.span_index.insert(name.to_owned(), i);
        self.span_names.push(name.to_owned());
        self.span_stats.push(SpanStats::default());
        i
    }
}

impl Telemetry {
    /// The zero-cost disabled registry (the default).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled, empty registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Box::default()),
        }
    }

    /// Enabled or disabled per `on`.
    pub fn with(on: bool) -> Self {
        if on {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }

    /// Is this registry recording? Callers use this to gate any work spent
    /// *constructing* names (formatting), keeping the disabled path free of
    /// allocation entirely.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolve (creating on first use) the ID of the named counter. On a
    /// disabled registry returns a dummy ID whose operations no-op. Intern
    /// once at setup; the returned ID is valid only for this registry.
    pub fn intern_counter(&mut self, name: &str) -> CounterId {
        match self.inner.as_deref_mut() {
            None => CounterId(0),
            Some(inner) => CounterId(inner.intern_counter(name)),
        }
    }

    /// Resolve (creating on first use) the ID of the named histogram. See
    /// [`Telemetry::intern_counter`].
    pub fn intern_histogram(&mut self, name: &str) -> HistogramId {
        match self.inner.as_deref_mut() {
            None => HistogramId(0),
            Some(inner) => HistogramId(inner.intern_hist(name)),
        }
    }

    /// Resolve (creating on first use) the ID of the named span. See
    /// [`Telemetry::intern_counter`].
    pub fn intern_span(&mut self, name: &str) -> SpanId {
        match self.inner.as_deref_mut() {
            None => SpanId(0),
            Some(inner) => SpanId(inner.intern_span(name)),
        }
    }

    /// Add `n` to an interned counter: one branch and one vector index, no
    /// string work.
    ///
    /// # Panics
    /// Panics if `id` was interned by a different (enabled) registry and is
    /// out of range for this one.
    #[inline]
    pub fn count_id(&mut self, id: CounterId, n: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let i = id.0 as usize;
        inner.counter_vals[i] += n;
        inner.counter_touched[i] = true;
    }

    /// Record one observation into an interned histogram.
    ///
    /// # Panics
    /// Panics if `id` was interned by a different (enabled) registry and is
    /// out of range for this one.
    #[inline]
    pub fn record_id(&mut self, id: HistogramId, d: SimDuration) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.hists[id.0 as usize].record(d);
    }

    /// Open an interned span at simulated instant `at`. Spans nest: a span
    /// opened while another is open is its child (depth + 1). No
    /// allocation: the open stack holds `(id, start)` pairs.
    #[inline]
    pub fn span_enter_id(&mut self, id: SpanId, at: SimTime) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.open.push((id.0, at));
    }

    /// Add `n` to the named counter (cold-path string API; delegates
    /// through the intern table).
    #[inline]
    pub fn count(&mut self, name: &str, n: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let i = inner.intern_counter(name) as usize;
        inner.counter_vals[i] += n;
        inner.counter_touched[i] = true;
    }

    /// Fold a whole pre-built histogram into the named histogram (used to
    /// import per-link round-trip ledgers at finalize). Empty histograms
    /// are skipped so they do not intern a name that was never observed.
    #[inline]
    pub fn merge_histogram(&mut self, name: &str, h: &LogHistogram) {
        if h.is_empty() {
            return;
        }
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let i = inner.intern_hist(name) as usize;
        inner.hists[i].merge(h);
    }

    /// Close the innermost open span at simulated instant `at`, folding its
    /// duration into that name's [`SpanStats`]. An exit with no open span
    /// is ignored (a caller bug, but never a panic source mid-run).
    #[inline]
    pub fn span_exit(&mut self, at: SimTime) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let Some((id, start)) = inner.open.pop() else {
            return;
        };
        let d = at.saturating_since(start);
        let depth = u16::try_from(inner.open.len()).unwrap_or(u16::MAX);
        let s = &mut inner.span_stats[id as usize];
        if s.count == 0 {
            s.depth = depth;
        } else {
            s.depth = s.depth.min(depth);
        }
        s.count += 1;
        s.total += d;
        s.max = s.max.max(d);
    }

    /// `true` when nothing has been recorded: the registry is disabled, or
    /// every interned metric is still untouched (interning alone never
    /// counts as recording — see the module docs).
    pub fn is_empty(&self) -> bool {
        let Some(inner) = self.inner.as_deref() else {
            return true;
        };
        !inner.counter_touched.iter().any(|&t| t)
            && inner.hists.iter().all(LogHistogram::is_empty)
            && inner.span_stats.iter().all(|s| s.count == 0)
    }

    /// The named counter's current value (0 when unknown or untouched) —
    /// the registry-side equivalent of [`TelemetryReport::counter`].
    pub fn counter(&self, name: &str) -> u64 {
        let Some(inner) = self.inner.as_deref() else {
            return 0;
        };
        inner
            .counter_index
            .get(name)
            .map_or(0, |&i| inner.counter_vals[i as usize])
    }

    /// The named histogram, if interned and non-empty (mirrors which
    /// histograms [`Telemetry::report`] would include).
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        let inner = self.inner.as_deref()?;
        let &i = inner.hist_index.get(name)?;
        let h = &inner.hists[i as usize];
        (!h.is_empty()).then_some(h)
    }

    /// Snapshot the registry into a mergeable report. Open spans are not
    /// included (close them first); interned-but-never-recorded metrics are
    /// not included (see the module docs). Disabled registries report
    /// empty.
    pub fn report(&self) -> TelemetryReport {
        let Some(inner) = self.inner.as_deref() else {
            return TelemetryReport::default();
        };
        TelemetryReport {
            counters: inner
                .counter_names
                .iter()
                .zip(&inner.counter_vals)
                .zip(&inner.counter_touched)
                .filter(|(_, &touched)| touched)
                .map(|((k, &v), _)| (k.clone(), v))
                .collect(),
            histograms: inner
                .hist_names
                .iter()
                .zip(&inner.hists)
                .filter(|(_, h)| !h.is_empty())
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
            spans: inner
                .span_names
                .iter()
                .zip(&inner.span_stats)
                .filter(|(_, s)| s.count > 0)
                .map(|(k, &s)| (k.clone(), s))
                .collect(),
        }
    }
}

/// A snapshot of one registry — or the exact merge of many.
///
/// Merging ([`TelemetryReport::absorb`]) sums counters and histogram
/// buckets and folds span aggregates, so a cluster-wide report is
/// independent of gather order, exactly like the completeness ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Named monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Named simulated-time histograms.
    pub histograms: BTreeMap<String, LogHistogram>,
    /// Per-name aggregated span statistics.
    pub spans: BTreeMap<String, SpanStats>,
}

impl TelemetryReport {
    /// `true` when nothing was recorded (a disabled run).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another report into this one (exact sums; see type docs).
    pub fn absorb(&mut self, other: &TelemetryReport) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, s) in &other.spans {
            let e = self.spans.entry(k.clone()).or_insert(SpanStats {
                depth: s.depth,
                ..SpanStats::default()
            });
            e.count += s.count;
            e.total += s.total;
            e.max = e.max.max(s.max);
            e.depth = e.depth.min(s.depth);
        }
    }

    /// Render as an indented plain-text block (the `repro telemetry` and
    /// example output). A histogram whose sum clamped at the `u64`
    /// nanosecond ceiling is flagged `[sum saturated]` on its row.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(telemetry disabled — nothing recorded)\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<40}{v:>12}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (simulated time):\n");
            let _ = writeln!(
                out,
                "  {:<32}{:>8}{:>12}{:>12}{:>12}{:>12}",
                "name", "n", "mean", "p50", "p99", "max"
            );
            for (k, h) in &self.histograms {
                let _ = write!(
                    out,
                    "  {:<32}{:>8}{:>12}{:>12}{:>12}{:>12}",
                    k,
                    h.count(),
                    h.mean().to_string(),
                    h.percentile(0.50).to_string(),
                    h.percentile(0.99).to_string(),
                    h.max().unwrap_or(SimDuration::ZERO).to_string(),
                );
                if h.saturated() {
                    out.push_str("  [sum saturated]");
                }
                out.push('\n');
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            let _ = writeln!(
                out,
                "  {:<32}{:>8}{:>14}{:>14}",
                "name (indented by depth)", "n", "total", "max"
            );
            for (k, s) in &self.spans {
                let name = format!("{}{}", "  ".repeat(usize::from(s.depth)), k);
                let _ = writeln!(
                    out,
                    "  {:<32}{:>8}{:>14}{:>14}",
                    name,
                    s.count,
                    s.total.to_string(),
                    s.max.to_string()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.count("x", 3);
        let c = t.intern_counter("x");
        let h = t.intern_histogram("h");
        let s = t.intern_span("s");
        t.count_id(c, 3);
        t.record_id(h, SimDuration::from_millis(1));
        t.span_enter_id(s, SimTime::ZERO);
        t.span_exit(SimTime::from_secs(1));
        assert!(t.report().is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let mut t = Telemetry::enabled();
        t.count("polls", 1);
        t.count("polls", 2);
        t.count("retries", 5);
        let r = t.report();
        assert_eq!(r.counter("polls"), 3);
        assert_eq!(r.counter("retries"), 5);
        assert_eq!(r.counter("absent"), 0);
    }

    #[test]
    fn interned_ids_alias_the_string_api() {
        // Both APIs must observe the same metric: a report built through
        // IDs is indistinguishable from one built through the string
        // `count` and `merge_histogram`.
        let mut by_id = Telemetry::enabled();
        let polls = by_id.intern_counter("polls");
        let lat = by_id.intern_histogram("lat");
        let span = by_id.intern_span("s");
        by_id.count_id(polls, 2);
        by_id.count("polls", 1); // string delegate hits the same slot
        by_id.record_id(lat, SimDuration::from_micros(7));
        by_id.span_enter_id(span, SimTime::ZERO);
        by_id.span_exit(SimTime::from_secs(1));

        let mut by_name = Telemetry::enabled();
        by_name.count("polls", 3);
        let mut h = LogHistogram::new();
        h.record(SimDuration::from_micros(7));
        by_name.merge_histogram("lat", &h);
        let span_by_name = by_name.intern_span("s");
        by_name.span_enter_id(span_by_name, SimTime::ZERO);
        by_name.span_exit(SimTime::from_secs(1));

        assert_eq!(by_id.report(), by_name.report());
        // Re-interning resolves to the same handle.
        assert_eq!(by_id.intern_counter("polls"), polls);
        assert_eq!(by_id.intern_histogram("lat"), lat);
        assert_eq!(by_id.intern_span("s"), span);
    }

    #[test]
    fn interning_alone_creates_no_report_entries() {
        // A session pre-interns its whole vocabulary at setup; names never
        // actually hit (e.g. fault counters on a clean run) must not leak
        // into the report. A counter *added to* with n = 0 does appear,
        // matching the string API.
        let mut t = Telemetry::enabled();
        let silent = t.intern_counter("faults.transient");
        let zeroed = t.intern_counter("records.lost");
        t.intern_histogram("retry_backoff");
        t.intern_span("poll");
        let _ = silent;
        t.count_id(zeroed, 0);
        let r = t.report();
        assert_eq!(
            r.counters.keys().collect::<Vec<_>>(),
            vec!["records.lost"],
            "{r:?}"
        );
        assert!(r.histograms.is_empty());
        assert!(r.spans.is_empty());
    }

    #[test]
    fn histogram_buckets_and_exact_moments() {
        let mut h = LogHistogram::new();
        for ns in [0u64, 1, 1, 7, 8, 1_000_000] {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets()[0], 1); // the zero
        assert_eq!(h.buckets()[1], 2); // the two 1s
        assert_eq!(h.buckets()[3], 1); // 7 in [4,8)
        assert_eq!(h.buckets()[4], 1); // 8 in [8,16)
        assert_eq!(h.min(), Some(SimDuration::ZERO));
        assert_eq!(h.max(), Some(SimDuration::from_nanos(1_000_000)));
        assert_eq!(h.sum(), SimDuration::from_nanos(1_000_017));
        // Mean is exact, not bucket-resolution.
        assert_eq!(h.mean(), SimDuration::from_nanos(1_000_017 / 6));
    }

    #[test]
    fn saturation_is_observable_not_silent() {
        let mut h = LogHistogram::new();
        let big = SimDuration::from_nanos(u64::MAX);
        h.record(big);
        assert!(!h.saturated());
        assert_eq!(h.sum(), big);
        h.record(big);
        // The u64 sum clamps, and says so.
        assert!(h.saturated());
        assert_eq!(h.sum(), big);
        // The mean stays exact (u128 accumulator).
        assert_eq!(h.mean(), big);
        // Merging saturated shards stays saturated, and the report says so.
        let mut merged = LogHistogram::new();
        merged.merge(&h);
        assert!(merged.saturated());
        let mut report = TelemetryReport::default();
        report.histograms.insert("big".into(), merged);
        assert!(report.render().contains("[sum saturated]"));
        // An unsaturated report never mentions it.
        let mut t = Telemetry::enabled();
        let small = t.intern_histogram("small");
        t.record_id(small, SimDuration::from_millis(1));
        assert!(!t.report().render().contains("saturated"));
    }

    #[test]
    fn constant_distribution_percentiles_are_exact() {
        // The clean-run case: every poll costs exactly the paper constant.
        let mut h = LogHistogram::new();
        let c = SimDuration::from_micros(1_100); // EMON's 1.10 ms
        for _ in 0..352 {
            h.record(c);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), c, "q = {q}");
        }
        assert_eq!(h.mean(), c);
    }

    #[test]
    fn percentiles_are_bucket_bounded_and_monotone() {
        let mut h = LogHistogram::new();
        for k in 1..=1000u64 {
            h.record(SimDuration::from_nanos(k * 1_000));
        }
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max().expect("nonempty"));
        // p50 of 1..=1000 us lies in the [2^19, 2^20) ns bucket.
        assert!(p50 >= SimDuration::from_nanos(500_000));
        assert!(p50 <= SimDuration::from_nanos(1 << 20));
    }

    #[test]
    fn histogram_merge_is_exact_sum() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for k in 0..100u64 {
            let d = SimDuration::from_nanos(k * k);
            if k % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            all.record(d);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let mut t = Telemetry::enabled();
        let [session, poll, child] = ["session", "poll", "poll/bgq-emon"].map(|n| t.intern_span(n));
        t.span_enter_id(session, SimTime::ZERO);
        for k in 0..3u64 {
            let at = SimTime::from_secs(k);
            t.span_enter_id(poll, at);
            t.span_enter_id(child, at);
            t.span_exit(at + SimDuration::from_micros(1_100));
            t.span_exit(at + SimDuration::from_millis(2));
        }
        t.span_exit(SimTime::from_secs(10));
        let r = t.report();
        let session = r.spans["session"];
        assert_eq!((session.count, session.depth), (1, 0));
        assert_eq!(session.total, SimDuration::from_secs(10));
        let poll = r.spans["poll"];
        assert_eq!((poll.count, poll.depth), (3, 1));
        assert_eq!(poll.total, SimDuration::from_millis(6));
        let child = r.spans["poll/bgq-emon"];
        assert_eq!((child.count, child.depth), (3, 2));
        assert_eq!(child.max, SimDuration::from_micros(1_100));
    }

    #[test]
    fn unbalanced_span_exit_is_ignored() {
        let mut t = Telemetry::enabled();
        t.span_exit(SimTime::from_secs(1));
        assert!(t.report().spans.is_empty());
    }

    #[test]
    fn report_absorb_is_order_independent() {
        let mk = |seed: u64| {
            let mut t = Telemetry::enabled();
            t.count("polls", seed);
            let (lat, s) = (t.intern_histogram("lat"), t.intern_span("s"));
            t.record_id(lat, SimDuration::from_nanos(seed * 37));
            t.span_enter_id(s, SimTime::ZERO);
            t.span_exit(SimTime::from_nanos(seed));
            t.report()
        };
        let parts: Vec<TelemetryReport> = (1..=5).map(mk).collect();
        let mut fwd = TelemetryReport::default();
        for p in &parts {
            fwd.absorb(p);
        }
        let mut rev = TelemetryReport::default();
        for p in parts.iter().rev() {
            rev.absorb(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.counter("polls"), 15);
        assert_eq!(fwd.spans["s"].count, 5);
    }

    #[test]
    fn render_mentions_every_section() {
        let mut t = Telemetry::enabled();
        t.count("polls", 2);
        let (lat, session) = (
            t.intern_histogram("query_latency/x"),
            t.intern_span("session"),
        );
        t.record_id(lat, SimDuration::from_millis(1));
        t.span_enter_id(session, SimTime::ZERO);
        t.span_exit(SimTime::from_secs(1));
        let text = t.report().render();
        for needle in [
            "counters:",
            "histograms",
            "spans:",
            "polls",
            "query_latency/x",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(TelemetryReport::default().render().contains("disabled"));
    }
}
