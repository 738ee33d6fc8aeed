//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! origin), a parent and the op it belongs to. Spans are appended to a
//! vector while the run is hot and analysed once it ends: a span's *self
//! time* is its duration minus the part of it that its children cover, and
//! an op's *unattributed* time is the self time of its root span.
//!
//! A disabled tracer records nothing and reads no clock, so the untraced
//! runs execute the same code path at the cost of one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span with no parent (an op's root span).
const ROOT: u32 = u32::MAX;

/// Spans one tracer keeps (about 6 MiB). A traced phase ends early once
/// its tracer is full, so every op it times is traced and memory stays
/// bounded.
const MAX_SPANS: usize = 1 << 17;

/// The reconciliation tolerance: the self times of an op's spans must sum
/// to the op's duration within this share of the op time, summed over all
/// traced ops.
pub const RECONCILE_TOLERANCE: f64 = 0.001;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// No room for another op's spans: the traced phase should end.
    pub fn full(&self) -> bool {
        self.enabled && self.spans.len() >= MAX_SPANS
    }

    /// Start op `op`'s root span.
    pub fn begin_op(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled || self.full() {
            return Open(None);
        }
        debug_assert!(self.stack.is_empty(), "op started inside another op");
        self.op = op;
        self.push(name, ROOT)
    }

    /// Open a child of the innermost open span; a no-op outside a traced op.
    pub fn begin(&mut self, name: &'static str) -> Open {
        match self.stack.last() {
            Some(&parent) => self.push(name, parent),
            None => Open(None),
        }
    }

    fn push(&mut self, name: &'static str, parent: u32) -> Open {
        let idx = u32::try_from(self.spans.len()).expect("span count fits in u32");
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start: self.now(),
            end: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.now();
        self.spans[idx as usize].end = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: calls, inclusive time and self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    /// Mean inclusive time per call, in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// What the analysis of one traced run found.
#[derive(Debug, Default)]
pub struct Analysis {
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Traced ops and the sum of their root-span durations.
    pub ops: u64,
    pub op_ns: u64,
    /// Sum over ops of their root span's self time.
    pub unattributed_ns: u64,
    /// |Σ self times − Σ op times| / Σ op times over all traced ops.
    pub reconcile_err: f64,
    pub spans: usize,
}

impl Analysis {
    pub fn name(&self, name: &str) -> NameStats {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    pub fn unattributed_us(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / self.ops as f64 / 1e3
        }
    }

    pub fn reconciled(&self) -> bool {
        self.ops > 0 && self.reconcile_err <= RECONCILE_TOLERANCE
    }
}

/// Self times and reconciliation over `spans`. Spans of one tracer are
/// stored in begin order, so every child follows its parent.
pub fn analyse(spans: &[Span]) -> Analysis {
    let mut out = Analysis {
        spans: spans.len(),
        ..Analysis::default()
    };
    // Children of each span, as (start, end) clipped to the parent.
    let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans.iter() {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start.max(p.start), s.end.min(p.end));
            if b > a {
                covered[s.parent as usize].push((a, b));
            }
        }
    }
    let mut self_sum = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end.saturating_sub(s.start);
        let self_ns = dur.saturating_sub(union_len(&mut covered[i]));
        self_sum += self_ns;
        let e = out.by_name.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += dur;
        e.self_ns += self_ns;
        if s.parent == ROOT {
            out.ops += 1;
            out.op_ns += dur;
            out.unattributed_ns += self_ns;
        }
    }
    out.reconcile_err = if out.op_ns == 0 {
        0.0
    } else {
        (self_sum as f64 - out.op_ns as f64).abs() / out.op_ns as f64
    };
    out
}

/// Length of the union of `intervals`.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// Concatenate the spans of several tracers (one per caller thread),
/// re-basing parent indices.
pub fn concat(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all: Vec<Span> = Vec::new();
    for part in parts {
        let base = u32::try_from(all.len()).expect("span count fits in u32");
        all.extend(part.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Write spans as tab-separated `op name parent start_ns end_ns` lines.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "op\tname\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}",
            s.op, s.name, parent, s.start, s.end
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_times_sum_to_op_time() {
        let spans = [
            span("op", ROOT, 0, 100),
            span("a", 0, 10, 40),
            span("b", 0, 50, 90),
            span("b.inner", 2, 60, 70),
        ];
        let a = analyse(&spans);
        assert_eq!(a.ops, 1);
        assert_eq!(a.unattributed_ns, 30);
        assert_eq!(a.name("b").self_ns, 30);
        assert_eq!(a.reconcile_err, 0.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut iv = [(0, 10), (5, 20), (30, 40)];
        assert_eq!(union_len(&mut iv), 30);
    }
}
