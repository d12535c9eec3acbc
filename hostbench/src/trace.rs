//! In-memory spans for the traced run.
//!
//! The benchmark wraps each call into a crate's public API in a span: a
//! name, a start and end on the host clock, the span that caused it and the
//! request it belongs to. Spans stay in memory and are written out once, at
//! the end of the run. A layer's *self time* is its span's duration minus
//! the part of that interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Identifies an open or closed span.
pub type SpanId = usize;

/// One recorded span; times are ns since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `hnsw.probe`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (query, batch or mutation) the span belongs to.
    pub request: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (`start_ns` while still open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing, so the untraced run
/// pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id to pass as the parent of nested spans. Returns `f`'s result and
    /// the span id (`None` when disabled).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(&mut Self, Option<SpanId>) -> R,
    ) -> (R, Option<SpanId>) {
        if !self.enabled {
            return (f(self, None), None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        let r = f(self, Some(id));
        self.spans[id].end_ns = self.now_ns();
        (r, Some(id))
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time of all spans, by name, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64)> {
        let children = children_of(&self.spans);
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = self_time_ns(&self.spans, i, &children[i]) as f64;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, acc)) => *acc += t,
                None => out.push((s.name, t)),
            }
        }
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

fn children_of(spans: &[Span]) -> Vec<Vec<SpanId>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    children
}

/// Duration of span `id` minus the length of the union of its children's
/// intervals, each clipped to the parent's interval.
pub fn self_time_ns(spans: &[Span], id: SpanId, children: &[SpanId]) -> u64 {
    let p = &spans[id];
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&c| {
            let s = &spans[c];
            (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns))
        })
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    p.dur_ns().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // parent [0, 100); children [10, 30) and [50, 60)
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_time_ns(&spans, 0, &[1, 2]), 70);
        assert_eq!(self_time_ns(&spans, 1, &[]), 20);
    }

    #[test]
    fn overlapping_children_count_once() {
        // children [10, 40) and [30, 50) overlap: 40 ns covered, not 50
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
        ];
        assert_eq!(self_time_ns(&spans, 0, &[1, 2]), 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // a child running past the parent's end only covers the overlap
        let spans = vec![span(None, 0, 100), span(Some(0), 90, 130)];
        assert_eq!(self_time_ns(&spans, 0, &[1]), 90);
        // a child fully outside covers nothing
        let spans = vec![span(None, 0, 100), span(Some(0), 100, 130)];
        assert_eq!(self_time_ns(&spans, 0, &[1]), 100);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let (v, outer) = t.span("outer", None, 1, |t, me| {
            let (_, inner) = t.span("inner", me, 1, |_, _| std::hint::black_box(3));
            inner
        });
        let (outer, inner) = (outer.expect("enabled"), v.expect("enabled"));
        assert_eq!(t.spans().len(), 2);
        assert!(t.spans()[outer].start_ns <= t.spans()[inner].start_ns);
        assert!(t.spans()[inner].end_ns <= t.spans()[outer].end_ns);
        assert_eq!(t.spans()[inner].parent, Some(outer));
        let by_name = t.self_time_by_name();
        assert_eq!(by_name.len(), 2);
        assert!(t.to_jsonl().lines().count() == 2);

        let mut off = Tracer::new(false);
        let (r, id) = off.span("x", None, 0, |_, _| 5);
        assert_eq!((r, id), (5, None));
        assert!(off.spans().is_empty());
    }
}
