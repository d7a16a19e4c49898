//! A deterministic future-event list.
//!
//! [`EventQueue`] orders items primarily by their firing [`Timestamp`]; items
//! scheduled for the *same* instant are delivered in insertion order. That
//! tie-break is what makes whole-simulation runs reproducible: a plain binary
//! heap over timestamps alone would pop equal-time events in an arbitrary
//! order that depends on heap internals.
//!
//! ```
//! use envirotrack_sim::queue::EventQueue;
//! use envirotrack_sim::time::Timestamp;
//!
//! let mut q = EventQueue::new();
//! q.push(Timestamp::from_secs(2), "late");
//! q.push(Timestamp::from_secs(1), "early");
//! q.push(Timestamp::from_secs(1), "early-second");
//! assert_eq!(q.pop(), Some((Timestamp::from_secs(1), "early")));
//! assert_eq!(q.pop(), Some((Timestamp::from_secs(1), "early-second")));
//! assert_eq!(q.pop(), Some((Timestamp::from_secs(2), "late")));
//! assert_eq!(q.pop(), None);
//! ```
//!
//! The queue is a binary heap of `(time, seq, item)` entries, where `seq`
//! is a per-queue insertion counter. It has no cancellation: protocol
//! timers are re-armable and invalidate stale firings lazily with a
//! generation token (`envirotrack_node::timer::TimerToken`), so a
//! superseded event simply runs as a no-op when it surfaces.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Timestamp;

/// One heap entry. Ordered so that the binary heap (a max-heap) pops the
/// earliest time first, then the lowest sequence number.
struct Entry<E> {
    at: Timestamp,
    seq: u64,
    item: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we want the earliest entry.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timed events with deterministic FIFO ordering among
/// events scheduled for the same instant.
///
/// The queue never reorders same-time events, so a simulation driven from it
/// is a pure function of its inputs and RNG seed.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `item` to fire at instant `at`.
    pub fn push(&mut self, at: Timestamp, item: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, item });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        self.heap.pop().map(|e| (e.at, e.item))
    }

    /// The firing time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Timestamp> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Timestamp::from_secs(3), 'c');
        q.push(Timestamp::from_secs(1), 'a');
        q.push(Timestamp::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pushes_preserve_fifo_per_instant() {
        let mut q = EventQueue::new();
        let t1 = Timestamp::from_secs(1);
        let t2 = Timestamp::from_secs(2);
        q.push(t2, "t2-first");
        q.push(t1, "t1-first");
        q.push(t2, "t2-second");
        q.push(t1, "t1-second");
        assert_eq!(q.pop().unwrap().1, "t1-first");
        assert_eq!(q.pop().unwrap().1, "t1-second");
        assert_eq!(q.pop().unwrap().1, "t2-first");
        assert_eq!(q.pop().unwrap().1, "t2-second");
    }

    #[test]
    fn peek_and_len_reflect_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Timestamp::from_secs(5), ());
        q.push(Timestamp::from_secs(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Timestamp::from_secs(4)));
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
