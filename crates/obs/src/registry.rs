//! The process-wide metrics registry.
//!
//! One [`Registry`] (usually [`Registry::global`]) maps static metric
//! names to lock-free instruments. Registration takes a mutex once;
//! callers hold cheap cloneable handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) whose hot-path operations are single relaxed atomic
//! RMWs — safe inside the query inner loop. A process-wide enable flag
//! ([`set_enabled`]) turns every instrument into a branch-and-return, so
//! the instrumented hot path can be timed against a registry-disabled
//! run of the *same* binary.
//!
//! ## Naming scheme
//!
//! `ppq_<layer>_<what>[_<unit>]`, e.g. `ppq_pool_hits`,
//! `ppq_server_connections_active`, `ppq_wal_fsync_ns`. Histograms carry
//! a `_ns` suffix (all durations are recorded in nanoseconds). Names are
//! `&'static str` — instruments are declared at call sites with string
//! literals, and lookup never allocates.

use crate::hist::{self, LatencyHistogram};
use crate::span::{self, SlowQuery};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable/disable every instrument (default: enabled). When
/// disabled, counters, gauges, histograms, and spans are a relaxed
/// boolean load and a branch — the baseline side of the overhead bench.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether instruments currently record.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn sub(&self, n: u64) {
        if enabled() {
            // Saturating: a racing add/sub pair can transiently observe
            // 0; never wrap to u64::MAX.
            let _ = self
                .0
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(n))
                });
        }
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The sharable innards of an atomic histogram: the same fixed
/// log-linear bucket layout as [`LatencyHistogram`], with every cell an
/// atomic so concurrent recorders never lock.
pub(crate) struct HistInner {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistInner {
    fn new() -> HistInner {
        HistInner {
            buckets: (0..hist::TOTAL_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A concurrent latency/size histogram handle.
#[derive(Clone)]
pub struct Histogram(pub(crate) Arc<HistInner>);

impl Histogram {
    /// Record one observation in nanoseconds (O(1), lock-free).
    #[inline]
    pub fn record(&self, nanos: u64) {
        if !enabled() {
            return;
        }
        let inner = &*self.0;
        inner.buckets[hist::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(nanos, Ordering::Relaxed);
        inner.min.fetch_min(nanos, Ordering::Relaxed);
        inner.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`].
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Materialize a point-in-time [`LatencyHistogram`]. The snapshot's
    /// count is derived from the bucket cells themselves, so
    /// `count == Σ buckets` holds even while recorders are mid-flight —
    /// there is no separately-updated count to tear against.
    pub fn snapshot(&self) -> LatencyHistogram {
        let inner = &*self.0;
        let buckets: Vec<u64> = inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        LatencyHistogram::from_parts(
            buckets,
            inner.sum.load(Ordering::Relaxed) as u128,
            inner.min.load(Ordering::Relaxed),
            inner.max.load(Ordering::Relaxed),
        )
    }
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistInner>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// A name → instrument map. Use [`Registry::global`] (what every
/// instrumented layer and the wire `Metrics` frame read); fresh
/// instances exist for tests that need isolation.
#[derive(Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<&'static str, Slot>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Handle to the counter `name`, registering it on first use.
    /// Panics if `name` is already registered as a different kind — a
    /// call-site bug, not a runtime condition.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut slots = self.slots.lock().expect("registry lock poisoned");
        match slots
            .entry(name)
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))))
        {
            Slot::Counter(c) => Counter(Arc::clone(c)),
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Handle to the gauge `name` (see [`Registry::counter`]).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut slots = self.slots.lock().expect("registry lock poisoned");
        match slots
            .entry(name)
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0))))
        {
            Slot::Gauge(g) => Gauge(Arc::clone(g)),
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Handle to the histogram `name` (see [`Registry::counter`]).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut slots = self.slots.lock().expect("registry lock poisoned");
        match slots
            .entry(name)
            .or_insert_with(|| Slot::Histogram(Arc::new(HistInner::new())))
        {
            Slot::Histogram(h) => Histogram(Arc::clone(h)),
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// A point-in-time snapshot of every registered instrument, plus the
    /// slow-query log. Ordering is the registry's name order (sorted),
    /// so two snapshots of the same registry always list metrics
    /// identically.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().expect("registry lock poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => snap
                    .counters
                    .push((name.to_string(), c.load(Ordering::Relaxed))),
                Slot::Gauge(g) => snap
                    .gauges
                    .push((name.to_string(), g.load(Ordering::Relaxed))),
                Slot::Histogram(h) => {
                    let full = Histogram(Arc::clone(h)).snapshot();
                    snap.histograms
                        .push((name.to_string(), HistogramStats::of(&full)));
                }
            }
        }
        drop(slots);
        snap.slow_queries = span::slow_queries();
        snap
    }

    /// Prometheus-style text exposition. Deterministic: metrics appear
    /// in sorted name order, histograms as `summary` families with
    /// quantile labels plus `_sum`/`_count` lines.
    pub fn render_text(&self) -> String {
        let slots = self.slots.lock().expect("registry lock poisoned");
        let mut out = String::new();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.load(Ordering::Relaxed));
                }
                Slot::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.load(Ordering::Relaxed));
                }
                Slot::Histogram(h) => {
                    let full = Histogram(Arc::clone(h)).snapshot();
                    let _ = writeln!(out, "# TYPE {name} summary");
                    for q in [0.5, 0.9, 0.99, 0.999] {
                        let _ = writeln!(
                            out,
                            "{name}{{quantile=\"{q}\"}} {}",
                            full.value_at_quantile(q)
                        );
                    }
                    let _ = writeln!(out, "{name}_sum {}", full.sum_nanos());
                    let _ = writeln!(out, "{name}_count {}", full.count());
                }
            }
        }
        out
    }

    /// Zero every counter and gauge, clear every histogram, and empty
    /// the slow-query log. Handles stay valid (they share the same
    /// cells). For benches and tests; production never resets.
    pub fn reset(&self) {
        let slots = self.slots.lock().expect("registry lock poisoned");
        for slot in slots.values() {
            match slot {
                Slot::Counter(c) | Slot::Gauge(c) => c.store(0, Ordering::Relaxed),
                Slot::Histogram(h) => h.reset(),
            }
        }
        drop(slots);
        span::clear_slow_log();
    }
}

/// Integer digest of one histogram for snapshots and the wire — all
/// nanosecond values, no floats, so the encoding is canonical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramStats {
    pub count: u64,
    /// Sum of recorded values (clamped to u64 for the wire; ≈ 584 years
    /// of nanoseconds before clamping matters).
    pub sum_ns: u64,
    pub min_ns: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
}

impl HistogramStats {
    pub fn of(h: &LatencyHistogram) -> HistogramStats {
        HistogramStats {
            count: h.count(),
            sum_ns: h.sum_nanos().min(u64::MAX as u128) as u64,
            min_ns: h.min_nanos(),
            p50_ns: h.value_at_quantile(0.5),
            p90_ns: h.value_at_quantile(0.9),
            p99_ns: h.value_at_quantile(0.99),
            p999_ns: h.value_at_quantile(0.999),
            max_ns: h.max_nanos(),
        }
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// Everything the registry knows at one instant — the payload of the
/// wire `Metrics` frame and the structured twin of
/// [`Registry::render_text`]. Each section is sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramStats)>,
    pub slow_queries: Vec<SlowQuery>,
}

impl MetricsSnapshot {
    /// Value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Digest of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStats> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The same text exposition as [`Registry::render_text`], from this
    /// snapshot's precomputed digests — what a remote admin client
    /// prints after fetching a `Metrics` frame. Families are merged
    /// back into one global sorted name order (names are unique across
    /// kinds), so the page is byte-identical to rendering the live
    /// registry at the same state.
    pub fn render_text(&self) -> String {
        enum Fam<'a> {
            Counter(u64),
            Gauge(u64),
            Summary(&'a HistogramStats),
        }
        let mut families: Vec<(&str, Fam<'_>)> = Vec::new();
        families.extend(
            self.counters
                .iter()
                .map(|(n, v)| (n.as_str(), Fam::Counter(*v))),
        );
        families.extend(
            self.gauges
                .iter()
                .map(|(n, v)| (n.as_str(), Fam::Gauge(*v))),
        );
        families.extend(
            self.histograms
                .iter()
                .map(|(n, h)| (n.as_str(), Fam::Summary(h))),
        );
        families.sort_by_key(|(n, _)| *n);
        let mut out = String::new();
        for (name, fam) in families {
            match fam {
                Fam::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                Fam::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                Fam::Summary(h) => {
                    let _ = writeln!(out, "# TYPE {name} summary");
                    for (q, v) in [
                        (0.5, h.p50_ns),
                        (0.9, h.p90_ns),
                        (0.99, h.p99_ns),
                        (0.999, h.p999_ns),
                    ] {
                        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum_ns);
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
            }
        }
        out
    }
}
