//! Runtime observability for the PPQ service (zero dependencies, in the
//! shim-crate spirit: nothing here needs a registry crate or a network).
//!
//! Three pieces, one story:
//!
//! - **Registry** ([`Registry`], usually via the free functions
//!   [`counter`] / [`gauge`] / [`histogram`]): a process-wide map from
//!   static metric names to lock-free instruments. Handles are cached
//!   `Arc`s; the hot path is one relaxed atomic RMW. A global
//!   [`set_enabled`] flag reduces every instrument to a branch, which is
//!   how the `ppq_obs_path` bench proves the instrumentation overhead
//!   bound.
//! - **Histograms** ([`LatencyHistogram`] / [`LatencySummary`], hoisted
//!   from `ppq_bench::report`): fixed-layout log-linear buckets with
//!   ≤ 1.6% relative quantization error, mergeable across threads. The
//!   registry's [`Histogram`] is the same layout with atomic cells;
//!   [`Histogram::snapshot`] materializes a mergeable plain histogram.
//! - **Spans + slow-query log** ([`span`], [`set_slow_threshold`],
//!   [`slow_queries`]): RAII timers that feed histograms and capture
//!   per-query context (latency, `IoStats` reads/hits, STRQ visited
//!   counts) into a bounded ring buffer when a query crosses the slow
//!   threshold.
//!
//! Two exposition paths read the same state: [`render_text`] renders a
//! deterministic Prometheus-style text page (served by the example
//! server's `--admin` listener), and [`snapshot`] produces the
//! structured [`MetricsSnapshot`] the wire protocol's `Metrics` frame
//! serializes.

mod hist;
mod registry;
mod span;

pub use hist::{LatencyHistogram, LatencySummary};
pub use registry::{
    enabled, set_enabled, Counter, Gauge, Histogram, HistogramStats, MetricsSnapshot, Registry,
};
pub use span::{set_slow_threshold, slow_queries, SlowQuery, Span, SLOW_LOG_CAPACITY};

/// Handle to counter `name` in the global registry.
pub fn counter(name: &'static str) -> Counter {
    Registry::global().counter(name)
}

/// Handle to gauge `name` in the global registry.
pub fn gauge(name: &'static str) -> Gauge {
    Registry::global().gauge(name)
}

/// Handle to histogram `name` in the global registry.
pub fn histogram(name: &'static str) -> Histogram {
    Registry::global().histogram(name)
}

/// Start an RAII timing span recording into the global registry (see
/// [`Span::with`] for the cached-handle hot-path form).
pub fn span(name: &'static str) -> Span {
    span::span(name)
}

/// Snapshot the global registry (instruments + slow-query log).
pub fn snapshot() -> MetricsSnapshot {
    Registry::global().snapshot()
}

/// Prometheus-style text exposition of the global registry.
pub fn render_text() -> String {
    Registry::global().render_text()
}

/// Reset the global registry (benches/tests only — see
/// [`Registry::reset`]).
pub fn reset() {
    Registry::global().reset()
}

/// Milliseconds since the Unix epoch — the timestamp convention of the
/// maintenance gauges (`ppq_live_last_fold_unix_ms` et al.) and the
/// Stats frame, so dashboards can compute ages without a monotonic
/// reference.
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Global-state tests share this lock so parallel test threads do
    /// not clobber each other's enabled-flag or threshold changes. Every
    /// test that records into an instrument takes it too: recording is a
    /// no-op while another test holds the process-wide flag off.
    pub(crate) fn global_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_and_gauges_register_once() {
        let _guard = global_guard();
        let r = Registry::new();
        let a = r.counter("test_hits");
        let b = r.counter("test_hits");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let g = r.gauge("test_level");
        g.set(7);
        g.add(3);
        g.sub(4);
        assert_eq!(g.get(), 6);
        g.sub(100); // saturates, never wraps
        assert_eq!(g.get(), 0);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_clash_is_a_panic() {
        let r = Registry::new();
        let _ = r.counter("test_clash");
        let _ = r.gauge("test_clash");
    }

    #[test]
    fn atomic_histogram_matches_plain() {
        let _guard = global_guard();
        let r = Registry::new();
        let h = r.histogram("test_lat_ns");
        let mut plain = LatencyHistogram::new();
        for i in 0..10_000u64 {
            let v = (i * 2_654_435_761) % 80_000_000;
            h.record(v);
            plain.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), plain.count());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(snap.value_at_quantile(q), plain.value_at_quantile(q));
        }
        assert_eq!(snap.summary(), plain.summary());
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let _guard = global_guard();
        let r = Registry::new();
        r.counter("test_c").add(5);
        r.gauge("test_g").set(9);
        r.histogram("test_h_ns").record(1_000);
        let snap = r.snapshot();
        assert_eq!(snap.counter("test_c"), Some(5));
        assert_eq!(snap.gauge("test_g"), Some(9));
        assert_eq!(snap.histogram("test_h_ns").unwrap().count, 1);
        assert_eq!(snap.counter("absent"), None);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _guard = global_guard();
        let r = Registry::new();
        let c = r.counter("test_off");
        let h = r.histogram("test_off_ns");
        set_enabled(false);
        c.inc();
        h.record(123);
        let sp = Span::with("test_off_ns", &h);
        drop(sp);
        set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn span_records_and_slow_log_captures() {
        let _guard = global_guard();
        let r = Registry::new();
        let h = r.histogram("test_span_ns");
        set_slow_threshold(Some(Duration::ZERO)); // everything is "slow"
        {
            let mut sp = Span::with("test_span_ns", &h);
            sp.io(3, 11);
            sp.visited(42);
        }
        set_slow_threshold(None);
        assert_eq!(h.snapshot().count(), 1);
        let slow = slow_queries();
        let rec = slow.last().expect("span crossed the zero threshold");
        assert_eq!(rec.name, "test_span_ns");
        assert_eq!((rec.reads, rec.hits, rec.visited), (3, 11, 42));
        assert!(rec.latency_ns > 0);
    }

    #[test]
    fn slow_log_is_bounded_and_ordered() {
        let _guard = global_guard();
        reset();
        set_slow_threshold(Some(Duration::ZERO));
        let h = Registry::global().histogram("test_ring_ns");
        for _ in 0..SLOW_LOG_CAPACITY + 10 {
            drop(Span::with("test_ring_ns", &h));
        }
        set_slow_threshold(None);
        let slow = slow_queries();
        assert_eq!(slow.len(), SLOW_LOG_CAPACITY);
        // Oldest evicted: sequence numbers are contiguous and end at the
        // last admitted record.
        for pair in slow.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1);
        }
        reset();
        assert!(slow_queries().is_empty());
    }

    #[test]
    fn render_text_shape() {
        let _guard = global_guard();
        let r = Registry::new();
        r.counter("test_rt_requests").add(4);
        r.gauge("test_rt_active").set(2);
        r.histogram("test_rt_ns").record(5_000);
        let text = r.render_text();
        assert!(text.contains("# TYPE test_rt_requests counter\ntest_rt_requests 4\n"));
        assert!(text.contains("# TYPE test_rt_active gauge\ntest_rt_active 2\n"));
        assert!(text.contains("# TYPE test_rt_ns summary"));
        assert!(text.contains("test_rt_ns{quantile=\"0.5\"}"));
        assert!(text.contains("test_rt_ns_count 1"));
        assert!(text.contains("test_rt_ns_sum 5000"));
    }

    #[test]
    fn reset_zeroes_everything_but_keeps_handles() {
        let _guard = global_guard();
        let r = Registry::new();
        let c = r.counter("test_reset_c");
        let h = r.histogram("test_reset_ns");
        c.add(9);
        h.record(77);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
        c.inc(); // the handle still points at the live cell
        assert_eq!(r.snapshot().counter("test_reset_c"), Some(1));
    }

    #[test]
    fn unix_ms_is_sane() {
        let t = unix_ms();
        // After 2020-01-01 and before 2100-01-01.
        assert!(t > 1_577_836_800_000 && t < 4_102_444_800_000);
    }
}
