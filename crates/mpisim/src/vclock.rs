//! Virtual-clock event source: the deterministic discrete-event substrate
//! online runtimes (e.g. `fastann-serve`) are driven by.
//!
//! The cluster simulator advances per-rank clocks implicitly through
//! message timestamps; a *serving* runtime instead needs an explicit
//! event loop — request arrivals, batch timers — ordered by virtual time.
//! [`EventQueue`] provides that ordering with a deterministic tie-break
//! (insertion sequence), and [`VClock`] is the monotonic read side: time
//! only moves forward, no matter what timestamps events carry.
//!
//! Determinism contract: popping order depends only on the sequence of
//! `push` calls and their timestamps — never on heap internals, hash
//! state, or host scheduling — so a simulation replayed from the same
//! inputs pops the same events in the same order.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A monotonic virtual clock in nanoseconds (`f64`, like the rank clocks).
#[derive(Clone, Copy, Debug, Default)]
pub struct VClock {
    now: f64,
}

impl VClock {
    /// A clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances to `t` if `t` is later than the current time (monotonic:
    /// an event carrying an older timestamp never rewinds the clock).
    /// Returns the clock value after the advance.
    #[inline]
    pub fn advance_to(&mut self, t: f64) -> f64 {
        if t > self.now {
            self.now = t;
        }
        self.now
    }
}

/// One scheduled event: ordered by `(at, seq)`, payload excluded.
struct Ev<T> {
    at: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Ev<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at.to_bits() == other.at.to_bits() && self.seq == other.seq
    }
}

impl<T> Eq for Ev<T> {}

impl<T> Ord for Ev<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .total_cmp(&other.at)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl<T> PartialOrd for Ev<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic virtual-time event queue.
///
/// Events pop in ascending timestamp order; events sharing a timestamp pop
/// in insertion order (first pushed, first popped). Timestamps are ordered
/// with `f64::total_cmp`, so even NaN timestamps (sorted last) cannot make
/// two replays disagree.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Ev<T>>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` at virtual time `at` (nanoseconds).
    pub fn push(&mut self, at: f64, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Ev { at, seq, payload }));
    }

    /// Removes and returns the earliest event as `(at, payload)`; `None`
    /// when the queue is empty.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|Reverse(ev)| (ev.at, ev.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30.0, "c");
        q.push(10.0, "a");
        q.push(20.0, "b");
        assert_eq!(q.pop(), Some((10.0, "a")));
        assert_eq!(q.pop(), Some((20.0, "b")));
        assert_eq!(q.pop(), Some((30.0, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.push(7.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pushes_stay_deterministic() {
        // pushing while popping (the serving loop schedules timers and
        // follow-up arrivals mid-drain) keeps the (time, seq) order
        let mut q = EventQueue::new();
        q.push(1.0, 1u32);
        q.push(5.0, 5);
        assert_eq!(q.pop(), Some((1.0, 1)));
        q.push(3.0, 3);
        q.push(5.0, 50); // later insertion, same time as the earlier 5
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert_eq!(q.pop(), Some((5.0, 5)));
        assert_eq!(q.pop(), Some((5.0, 50)));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = VClock::new();
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.advance_to(10.0), 10.0);
        assert_eq!(c.advance_to(5.0), 10.0, "never rewinds");
        assert_eq!(c.advance_to(10.0), 10.0);
        assert_eq!(c.advance_to(11.5), 11.5);
        assert_eq!(c.now(), 11.5);
    }

    #[test]
    fn nan_timestamps_sort_last_not_nondeterministically() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, "nan");
        q.push(1e18, "huge");
        assert_eq!(q.pop().map(|(_, p)| p), Some("huge"));
        assert_eq!(q.pop().map(|(_, p)| p), Some("nan"));
    }
}
