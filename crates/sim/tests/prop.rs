//! Property-based tests for the simulation kernel.

use envirotrack_sim::queue::EventQueue;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use testkit::prelude::*;

prop_test! {
    /// Popping the queue yields items sorted by time, and FIFO among equal
    /// times (tracked via the insertion index).
    #[test]
    fn queue_pops_sorted_and_fifo(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Timestamp::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated for equal times");
            }
        }
    }

    /// The queue agrees with a reference model — pending items kept in
    /// insertion order, popped by the earliest time with the lowest
    /// insertion index winning ties (a stable sort by time) — on every pop,
    /// peek and length across randomized interleavings. Pushes land at or
    /// after the last popped instant, as the kernel allows, and some land
    /// exactly *at* it: the barrier-injection pattern the sharded kernel
    /// relies on, which must pop next, ahead of every later entry.
    #[test]
    fn queue_matches_a_stable_sort_reference_model(
        ops in prop::collection::vec((0u8..8, 0u64..500), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(Timestamp, usize)> = Vec::new();
        let mut now = Timestamp::ZERO;
        let mut next_item = 0usize;
        for &(op, t) in &ops {
            match op {
                0..=4 => {
                    // Op 4 injects at the current instant; the rest
                    // schedule up to 500 µs ahead of it.
                    let at = if op == 4 { now } else { now + SimDuration::from_micros(t) };
                    q.push(at, next_item);
                    model.push((at, next_item));
                    next_item += 1;
                }
                _ => {
                    // Items are numbered in insertion order, so tuple
                    // order (time, item) is the model's pop order.
                    let expected = model.iter().copied().min();
                    model.retain(|&e| Some(e) != expected);
                    let got = q.pop();
                    prop_assert_eq!(got, expected, "pop diverged from the model");
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.peek_time(), model.iter().map(|&(at, _)| at).min());
        }
        // Drain: the tail must come out as the stable sort of the model.
        model.sort_by_key(|&(at, _)| at);
        let drained: Vec<(Timestamp, usize)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(drained, model);
    }

    /// Timestamp/duration arithmetic is consistent: (t + d) − t == d and
    /// (t + d) − d == t for any in-range values.
    #[test]
    fn time_arithmetic_round_trips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = Timestamp::from_micros(t);
        let d = SimDuration::from_micros(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert!(t.saturating_since(t + d).is_zero());
    }

    /// Forked RNG streams are stable: forking twice with the same label
    /// gives the same stream, regardless of parent draws in between.
    #[test]
    fn rng_forks_are_stable(seed: u64, label in "[a-z]{1,12}", draws in 0usize..16) {
        let mut parent = SimRng::seed_from(seed);
        let early = parent.fork(&label);
        for _ in 0..draws {
            let _ = parent.next_u64();
        }
        let late = parent.fork(&label);
        let mut a = early.clone();
        let mut b = late.clone();
        for _ in 0..8 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `below(n)` stays in range and `chance` respects its clamps.
    #[test]
    fn rng_bounds_hold(seed: u64, n in 1u64..10_000) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(n) < n);
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }
}
