//! Execution traces: per-rank virtual-time event records and a text
//! timeline renderer.
//!
//! A [`Trace`] collects `(rank, start, end, kind)` spans emitted by
//! simulated code; [`Trace::render`] draws them as an ASCII Gantt chart —
//! the quickest way to *see* a load imbalance, a master bottleneck, or a
//! serialisation bug in a protocol. Collection is explicit (the engine
//! code records what it considers interesting) and cheap enough to leave on.

use std::sync::{Arc, Mutex};

use crate::cluster::lock;

/// What a span represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Modelled computation.
    Compute,
    /// Blocked waiting for a message or window synchronisation.
    Wait,
    /// Communication CPU (send/receive/RMA overheads).
    Comm,
    /// Fault-recovery activity: request timeouts, retries, failover
    /// re-dispatches, degraded-result bookkeeping.
    Recovery,
}

impl SpanKind {
    fn glyph(self) -> char {
        match self {
            SpanKind::Compute => '#',
            SpanKind::Wait => '.',
            SpanKind::Comm => '~',
            SpanKind::Recovery => '!',
        }
    }
}

/// One recorded interval on one rank's virtual timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Global rank the span belongs to.
    pub rank: usize,
    /// Virtual start (ns).
    pub start: f64,
    /// Virtual end (ns).
    pub end: f64,
    /// Category.
    pub kind: SpanKind,
    /// Short label (shown in span listings).
    pub label: &'static str,
}

/// A shared, thread-safe span collector.
#[derive(Clone, Default)]
pub struct Trace {
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one span.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn record(&self, rank: usize, start: f64, end: f64, kind: SpanKind, label: &'static str) {
        assert!(end >= start, "span ends before it starts: {start}..{end}");
        lock(&self.spans).push(Span {
            rank,
            start,
            end,
            kind,
            label,
        });
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        lock(&self.spans).len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.spans).is_empty()
    }

    /// Copies out the spans, sorted by (rank, start).
    pub fn spans(&self) -> Vec<Span> {
        let mut v = lock(&self.spans).clone();
        v.sort_by(|a, b| a.rank.cmp(&b.rank).then(a.start.total_cmp(&b.start)));
        v
    }

    /// Latest span end (the trace's makespan), 0 when empty.
    pub fn end_ns(&self) -> f64 {
        lock(&self.spans).iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Renders an ASCII Gantt chart: one row per rank, `width` columns over
    /// `[0, end_ns]`. `#` compute, `~` comm CPU, `.` waiting, `!` fault
    /// recovery, space idle. Later-recorded spans overwrite earlier ones in
    /// a cell.
    pub fn render(&self, n_ranks: usize, width: usize) -> String {
        assert!(width >= 10, "need at least 10 columns");
        let end = self.end_ns().max(1.0);
        let mut rows = vec![vec![' '; width]; n_ranks];
        for s in lock(&self.spans).iter() {
            if s.rank >= n_ranks {
                continue;
            }
            let a = ((s.start / end) * width as f64).floor() as usize;
            let b = (((s.end / end) * width as f64).ceil() as usize).min(width);
            for cell in &mut rows[s.rank][a.min(width - 1)..b.max(a + 1).min(width)] {
                *cell = s.kind.glyph();
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "virtual timeline 0 .. {:.2} ms   (# compute, ~ comm, . wait, ! recovery)\n",
            end / 1e6
        ));
        for (r, row) in rows.iter().enumerate() {
            out.push_str(&format!("rank {r:>3} |"));
            out.extend(row.iter());
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sorts() {
        let t = Trace::new();
        t.record(1, 10.0, 20.0, SpanKind::Compute, "b");
        t.record(0, 5.0, 9.0, SpanKind::Wait, "a");
        t.record(1, 0.0, 5.0, SpanKind::Comm, "c");
        assert_eq!(t.len(), 3);
        let spans = t.spans();
        assert_eq!(spans[0].rank, 0);
        assert_eq!(spans[1].rank, 1);
        assert_eq!(spans[1].start, 0.0);
        assert_eq!(t.end_ns(), 20.0);
    }

    #[test]
    fn render_shows_glyphs() {
        let t = Trace::new();
        t.record(0, 0.0, 50.0, SpanKind::Compute, "work");
        t.record(1, 50.0, 100.0, SpanKind::Wait, "wait");
        let out = t.render(2, 20);
        assert!(out.contains('#'));
        assert!(out.contains('.'));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        // rank 0 busy early, rank 1 waiting late
        assert!(lines[1].starts_with("rank   0 |#"));
        assert!(lines[2].trim_end().ends_with(".|"));
    }

    #[test]
    fn empty_trace_renders() {
        let t = Trace::new();
        let out = t.render(1, 12);
        assert!(out.contains("rank   0"));
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic]
    fn inverted_span_panics() {
        Trace::new().record(0, 5.0, 1.0, SpanKind::Compute, "bad");
    }

    #[test]
    fn shared_across_threads() {
        let t = Trace::new();
        std::thread::scope(|s| {
            for r in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..10 {
                        t.record(r, i as f64, i as f64 + 1.0, SpanKind::Compute, "par");
                    }
                });
            }
        });
        assert_eq!(t.len(), 40);
    }
}
