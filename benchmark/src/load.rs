//! The benchmark's own timing loops: closed loop (next request after the
//! previous answer) and open loop (requests sent on a precomputed
//! schedule, latency counted from the *scheduled* send).

use crate::gen::{Kind, Query};
use crate::stats;
use crate::sut::Exec;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Latency samples in microseconds, per query class.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    pub strq_us: Vec<f64>,
    pub tpq_us: Vec<f64>,
}

impl Latencies {
    fn push(&mut self, kind: Kind, us: f64) {
        match kind {
            Kind::Strq => self.strq_us.push(us),
            Kind::Tpq => self.tpq_us.push(us),
        }
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.strq_us.extend_from_slice(&other.strq_us);
        self.tpq_us.extend_from_slice(&other.tpq_us);
    }

    pub fn len(&self) -> usize {
        self.strq_us.len() + self.tpq_us.len()
    }

    /// `[strq p50, strq p99, tpq p50, tpq p99]`, each the median over
    /// consecutive windows of [`WINDOW`] samples of the window's exact
    /// percentile. A stall of the machine lands in one window and leaves
    /// the median alone; a tail the system produces all the time is in
    /// every window. `whole` takes the percentiles over all samples at
    /// once instead, for a run whose stalls are the signal.
    pub fn percentiles(&self, whole: bool) -> [Windowed; 4] {
        let window = if whole { usize::MAX } else { WINDOW };
        [
            windowed(&self.strq_us, 0.5, window),
            windowed(&self.strq_us, 0.99, window),
            windowed(&self.tpq_us, 0.5, window),
            windowed(&self.tpq_us, 0.99, window),
        ]
    }
}

/// Samples per percentile window: p99 of 2000 has twenty beyond it.
pub const WINDOW: usize = 2_000;

#[derive(Clone, Copy, Debug)]
pub struct Windowed {
    pub value: f64,
    /// The quantile actually read in each window (see
    /// [`stats::percentile`]).
    pub q: f64,
    pub samples: usize,
    pub windows: usize,
}

/// Median over consecutive `window`-sample windows of `samples` (in
/// arrival order) of each window's exact `q` percentile. A short last
/// window joins the one before it.
pub fn windowed(samples: &[f64], q: f64, window: usize) -> Windowed {
    let n_windows = (samples.len() / window.max(1)).max(1);
    let mut values = Vec::with_capacity(n_windows);
    let mut read_q = q;
    for w in 0..n_windows {
        let end = if w + 1 == n_windows {
            samples.len()
        } else {
            (w + 1) * window
        };
        let mut chunk = samples[w * window..end].to_vec();
        stats::sort(&mut chunk);
        let p = stats::percentile(&chunk, q);
        read_q = read_q.min(p.q);
        values.push(p.value);
    }
    Windowed {
        value: stats::median(&values),
        q: read_q,
        samples: samples.len(),
        windows: n_windows,
    }
}

fn span_name(names: (&'static str, &'static str), kind: Kind) -> &'static str {
    match kind {
        Kind::Strq => names.0,
        Kind::Tpq => names.1,
    }
}

/// Operations per chunk when a closed loop reports its rate as the median
/// over chunks, which a burst of machine noise cannot move.
pub const CHUNK_OPS: usize = 5_000;

#[derive(Clone, Debug, Default)]
pub struct ClosedPass {
    pub lat: Latencies,
    /// Completed operations per second of each [`CHUNK_OPS`] chunk.
    pub chunk_rates: Vec<f64>,
    pub wall_s: f64,
    pub answers: u64,
}

/// One thread, closed loop, over `queries` in order. Each query is a span
/// `names.0` (STRQ) or `names.1` (TPQ); what the pass takes beyond its
/// spans is the generator's own cost.
pub fn closed_loop(
    exec: &mut impl Exec,
    queries: &[Query],
    names: (&'static str, &'static str),
    tr: &mut Tracer,
) -> ClosedPass {
    let mut pass = ClosedPass::default();
    pass.lat.strq_us.reserve(queries.len());
    let start = Instant::now();
    let mut chunk_start = start;
    tr.reserve(queries.len());
    for (i, q) in queries.iter().enumerate() {
        tr.begin(span_name(names, q.kind), i as u64);
        let t = Instant::now();
        let n = exec.exec(q);
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        tr.end();
        pass.lat.push(q.kind, us);
        pass.answers += n as u64;
        if (i + 1).is_multiple_of(CHUNK_OPS) {
            let now = Instant::now();
            pass.chunk_rates
                .push(CHUNK_OPS as f64 / (now - chunk_start).as_secs_f64());
            chunk_start = now;
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    if pass.chunk_rates.is_empty() {
        pass.chunk_rates.push(queries.len() as f64 / pass.wall_s);
    }
    pass
}

/// Closed loop until told to stop: cycle over `queries` until `done` says
/// so, asked before each request.
pub fn closed_loop_until(
    exec: &mut impl Exec,
    queries: &[Query],
    mut done: impl FnMut() -> bool,
    names: (&'static str, &'static str),
    tr: &mut Tracer,
) -> ClosedPass {
    let mut pass = ClosedPass::default();
    let start = Instant::now();
    let mut chunk_start = start;
    let mut i = 0usize;
    while !done() {
        let q = &queries[i % queries.len()];
        tr.begin(span_name(names, q.kind), i as u64);
        let t = Instant::now();
        pass.answers += exec.exec(q) as u64;
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        tr.end();
        pass.lat.push(q.kind, us);
        i += 1;
        if i.is_multiple_of(CHUNK_OPS) {
            let now = Instant::now();
            pass.chunk_rates
                .push(CHUNK_OPS as f64 / (now - chunk_start).as_secs_f64());
            chunk_start = now;
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    if pass.chunk_rates.is_empty() {
        pass.chunk_rates.push(i as f64 / pass.wall_s);
    }
    pass
}

/// Sleep until `at` after `start`. No spinning: in a sandbox whose CPU
/// allowance is below its core count, a spinning generator gets the whole
/// process throttled in 4 ms slices. The sleep's overshoot is part of
/// every latency alike and is reported as the generator's lateness.
fn wait_until(start: Instant, at: Duration) {
    if let Some(remain) = at.checked_sub(start.elapsed()) {
        std::thread::sleep(remain);
    }
}

/// One completed open-loop operation.
#[derive(Clone, Copy, Debug)]
pub struct OpenOp {
    pub kind: Kind,
    /// Scheduled send, nanoseconds from the start.
    pub at_ns: u64,
    /// Completion minus *scheduled* send, microseconds.
    pub lat_us: f64,
    /// Actual send minus scheduled send: how late the generator ran.
    pub late_us: f64,
}

#[derive(Clone, Debug, Default)]
pub struct OpenRun {
    pub ops: Vec<OpenOp>,
    pub wall_s: f64,
    pub answers: u64,
}

impl OpenRun {
    pub fn latencies(&self) -> Latencies {
        let mut lat = Latencies::default();
        for op in &self.ops {
            lat.push(op.kind, op.lat_us);
        }
        lat
    }

    pub fn offered_per_s(&self) -> f64 {
        match self.ops.last() {
            Some(last) if last.at_ns > 0 => self.ops.len() as f64 / (last.at_ns as f64 / 1e9),
            _ => 0.0,
        }
    }

    pub fn achieved_per_s(&self) -> f64 {
        self.ops.len() as f64 / self.wall_s.max(1e-9)
    }
}

/// One connection, open loop: fire `queries` at their scheduled instants
/// (relative to `start`). A stall makes the following requests late, and
/// their wait counts as latency.
pub fn open_loop(
    exec: &mut impl Exec,
    queries: &[Query],
    start: Instant,
    names: (&'static str, &'static str),
    tr: &mut Tracer,
) -> OpenRun {
    let mut run = OpenRun::default();
    let us = |d: Duration| d.as_nanos() as f64 / 1e3;
    for (i, q) in queries.iter().enumerate() {
        let at = Duration::from_nanos(q.at_ns);
        wait_until(start, at);
        tr.begin("load.op", i as u64);
        let sent = start.elapsed();
        tr.begin(span_name(names, q.kind), i as u64);
        run.answers += exec.exec(q) as u64;
        tr.end();
        let done = start.elapsed();
        run.ops.push(OpenOp {
            kind: q.kind,
            at_ns: q.at_ns,
            lat_us: us(done.saturating_sub(at)),
            late_us: us(sent.saturating_sub(at)),
        });
        tr.end();
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_median_ignores_a_stall_in_one_window() {
        // Three windows of 1000 samples at 10 us; the middle one holds a
        // stall that delays 50 samples to 5 ms.
        let mut samples = vec![10.0; 3000];
        for s in &mut samples[1200..1250] {
            *s = 5_000.0;
        }
        let whole = windowed(&samples, 0.99, usize::MAX);
        assert_eq!((whole.value, whole.windows), (5_000.0, 1));
        let w = windowed(&samples, 0.99, 1000);
        assert_eq!((w.value, w.windows, w.samples), (10.0, 3, 3000));
        assert_eq!(w.q, 0.99);
    }

    #[test]
    fn short_last_window_joins_the_one_before() {
        let samples: Vec<f64> = (0..2500).map(|i| i as f64).collect();
        let w = windowed(&samples, 0.5, 1000);
        // Windows [0,1000) and [1000,2500): medians 499 and 1749.
        assert_eq!(w.windows, 2);
        assert_eq!(w.value, (499.0 + 1749.0) / 2.0);
        // Fewer samples than one window: one window, lowered quantile.
        let few = windowed(&samples[..500], 0.99, 1000);
        assert_eq!((few.windows, few.value), (1, 489.0));
        assert!(few.q < 0.99);
    }
}
