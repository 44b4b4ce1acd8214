//! In-memory spans taken by the benchmark around its own calls into each
//! layer, their reduction to per-layer self time, and the JSONL dump.
//!
//! Spans are kept in memory while the workload runs and written once at
//! exit. End-to-end metrics never come from a traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `core.push_slice`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one operation (query, slice, repetition) share this.
    pub op_id: u64,
}

/// One thread's span recorder. A disabled tracer records nothing, so the
/// same loop serves the traced and the untraced run.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant, on: bool) -> Tracer {
        Tracer {
            origin,
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(Instant::now(), false)
    }

    /// Make room for `spans` more spans, so recording them allocates
    /// nothing.
    pub fn reserve(&mut self, spans: usize) {
        if self.on {
            self.spans.reserve(spans);
        }
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op_id: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op_id,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("end without begin");
        self.spans[i as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "span left open");
        self.spans
    }
}

/// Concatenate per-thread span lists, re-basing parent indices.
pub fn merge(threads: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(threads.iter().map(Vec::len).sum());
    for spans in threads {
        let base = out.len() as u32;
        out.extend(spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    out
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part of each span its child spans cover.
    pub self_ns: u64,
}

/// Per-name totals and self time. A span's self time is its duration
/// minus the length of the union of its children's intervals (clipped to
/// the span), so overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| {
            let p = &spans[s.parent as usize];
            (
                s.parent,
                s.start_ns.clamp(p.start_ns, p.end_ns),
                s.end_ns.clamp(p.start_ns, p.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut cover = vec![0u64; spans.len()];
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0;
        let (mut lo, mut hi) = (children[i].1, children[i].2);
        i += 1;
        while i < children.len() && children[i].0 == parent {
            let (_, s, e) = children[i];
            if s > hi {
                cover[parent as usize] += hi - lo;
                (lo, hi) = (s, e);
            } else {
                hi = hi.max(e);
            }
            i += 1;
        }
        cover[parent as usize] += hi - lo;
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, c) in spans.iter().zip(&cover) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - c;
    }
    out
}

/// One JSON object per line: `{name, start_ns, end_ns, parent, op_id}`,
/// `parent` the zero-based line of the causing span or `null`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        write!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.name, s.start_ns, s.end_ns
        )?;
        match s.parent {
            NO_PARENT => write!(w, "null")?,
            p => write!(w, "{p}")?,
        }
        writeln!(w, ",\"op_id\":{}}}", s.op_id)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_cover() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 40, 70, 0),
            span("c", 45, 50, 2),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"].total_ns, 100);
        assert_eq!(st["op"].self_ns, 50);
        assert_eq!(st["a"].self_ns, 20);
        assert_eq!(st["b"].self_ns, 25);
        assert_eq!(st["c"].self_ns, 5);
        // Self times of a tree add up to the root's duration.
        assert_eq!(st.values().map(|s| s.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("x", 10, 60, 0),
            span("x", 50, 80, 0),  // overlaps the first by 10
            span("x", 90, 120, 0), // hangs 20 past the parent
        ];
        let st = self_times(&spans);
        // Cover = [10,80] ∪ [90,100] = 80.
        assert_eq!(st["op"].self_ns, 20);
        assert_eq!(st["x"].count, 3);
    }

    #[test]
    fn tracer_nests_and_merge_rebases_parents() {
        let mut t = Tracer::new(Instant::now(), true);
        t.begin("outer", 7);
        t.begin("inner", 7);
        t.end();
        t.end();
        let a = t.into_spans();
        assert_eq!(a[0].parent, NO_PARENT);
        assert_eq!(a[1].parent, 0);
        assert!(a[1].start_ns >= a[0].start_ns && a[1].end_ns <= a[0].end_ns);
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[2].parent, NO_PARENT);
        assert_eq!(merged[3].parent, 2);

        let mut off = Tracer::off();
        off.begin("x", 0);
        off.end();
        assert!(off.into_spans().is_empty());
    }
}
