//! The discrete-event simulation engine.
//!
//! An [`Engine`] owns a user-supplied *world* (the mutable state of the whole
//! simulation — nodes, radio medium, targets) and a [`Kernel`] (virtual
//! clock and event queue). Events are boxed `FnOnce` closures invoked with
//! exclusive access to both, so handlers can mutate the world *and* schedule
//! follow-up events:
//!
//! ```
//! use envirotrack_sim::engine::Engine;
//! use envirotrack_sim::time::{SimDuration, Timestamp};
//!
//! struct Counter { ticks: u32 }
//!
//! let mut engine = Engine::new(Counter { ticks: 0 });
//!
//! // A self-rescheduling periodic tick.
//! fn tick(world: &mut Counter, kernel: &mut envirotrack_sim::engine::Kernel<Counter>) {
//!     world.ticks += 1;
//!     if world.ticks < 5 {
//!         kernel.schedule_in(SimDuration::from_secs(1), tick);
//!     }
//! }
//! engine.kernel_mut().schedule_at(Timestamp::ZERO, tick);
//! engine.run_until(Timestamp::from_secs(10));
//! assert_eq!(engine.world().ticks, 5);
//! assert_eq!(engine.kernel().now(), Timestamp::from_secs(10));
//! ```
//!
//! Determinism: the event queue is FIFO among equal timestamps and the
//! kernel draws no randomness of its own (worlds own their seeded
//! [`crate::rng::SimRng`] streams), so two runs with identical
//! configuration execute identical event sequences.

use envirotrack_telemetry::{CounterHandle, Telemetry};

use crate::queue::EventQueue;
use crate::time::{SimDuration, Timestamp};

/// A scheduled event: a one-shot closure over the world and the kernel.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Kernel<W>)>;

/// The simulation kernel: virtual clock and future-event list.
///
/// Handlers receive `&mut Kernel<W>` and use it to read the clock, schedule
/// further events, and request a stop.
pub struct Kernel<W> {
    now: Timestamp,
    queue: EventQueue<EventFn<W>>,
    stop_requested: bool,
    events_processed: u64,
    /// Pre-resolved `kernel.events` counter: the per-event accounting is one
    /// cell increment instead of a registry borrow + name lookup.
    events_counter: Option<CounterHandle>,
}

impl<W> Kernel<W> {
    fn new() -> Self {
        Kernel {
            now: Timestamp::ZERO,
            queue: EventQueue::new(),
            stop_requested: false,
            events_processed: 0,
            events_counter: None,
        }
    }

    /// Attaches the run-wide telemetry registry; the kernel counts every
    /// executed event on it (`kernel.events`).
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.events_counter = Some(telemetry.counter_handle("kernel.events"));
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Schedules `event` to run at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — the simulator has no time machine, and
    /// silently clamping would hide protocol bugs.
    pub fn schedule_at<F>(&mut self, at: Timestamp, event: F)
    where
        F: FnOnce(&mut W, &mut Kernel<W>) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        self.queue.push(at, Box::new(event));
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, event: F)
    where
        F: FnOnce(&mut W, &mut Kernel<W>) + 'static,
    {
        let at = self.now.saturating_add(delay);
        self.queue.push(at, Box::new(event));
    }

    /// Requests that the run loop stop after the current event completes.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }

    /// Number of events executed so far in this run.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

impl<W> std::fmt::Debug for Kernel<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.events_processed)
            .finish()
    }
}

/// Why a call to one of the run methods returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The horizon was reached; the clock now equals the horizon.
    HorizonReached,
    /// The event queue drained before the horizon.
    QueueDrained,
    /// A handler called [`Kernel::stop`].
    Stopped,
    /// The safety cap on event count was hit (runaway-simulation guard).
    EventLimit,
}

/// A discrete-event simulation engine over a user world `W`.
///
/// See the [module documentation](self) for an end-to-end example.
pub struct Engine<W> {
    kernel: Kernel<W>,
    world: W,
    event_limit: u64,
}

impl<W> Engine<W> {
    /// Default safety cap on the number of events per run-call.
    pub const DEFAULT_EVENT_LIMIT: u64 = 2_000_000_000;

    /// Creates an engine over `world` with an empty event queue at time zero.
    pub fn new(world: W) -> Self {
        Engine {
            kernel: Kernel::new(),
            world,
            event_limit: Self::DEFAULT_EVENT_LIMIT,
        }
    }

    /// Replaces the runaway-simulation guard (events per run call).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Shared access to the world.
    #[must_use]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (e.g. for inspection between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Shared access to the kernel.
    #[must_use]
    pub fn kernel(&self) -> &Kernel<W> {
        &self.kernel
    }

    /// Exclusive access to the kernel (e.g. to schedule initial events).
    pub fn kernel_mut(&mut self) -> &mut Kernel<W> {
        &mut self.kernel
    }

    /// Executes exactly one event if one is pending, returning its time.
    pub fn step(&mut self) -> Option<Timestamp> {
        let (at, event) = self.kernel.queue.pop()?;
        debug_assert!(
            at >= self.kernel.now,
            "event queue yielded an event from the past"
        );
        self.kernel.now = at;
        self.kernel.events_processed += 1;
        if let Some(c) = &self.kernel.events_counter {
            c.incr();
        }
        event(&mut self.world, &mut self.kernel);
        Some(at)
    }

    /// Runs until the virtual clock reaches `horizon`, the queue drains, a
    /// handler stops the run, or the event cap is hit.
    ///
    /// On [`RunOutcome::HorizonReached`] and [`RunOutcome::QueueDrained`]
    /// the clock is advanced to `horizon` so repeated calls compose.
    pub fn run_until(&mut self, horizon: Timestamp) -> RunOutcome {
        let start_processed = self.kernel.events_processed;
        loop {
            if self.kernel.stop_requested {
                self.kernel.stop_requested = false;
                return RunOutcome::Stopped;
            }
            if self.kernel.events_processed - start_processed >= self.event_limit {
                return RunOutcome::EventLimit;
            }
            match self.kernel.queue.peek_time() {
                None => {
                    self.kernel.now = self.kernel.now.max(horizon);
                    return RunOutcome::QueueDrained;
                }
                Some(t) if t > horizon => {
                    self.kernel.now = self.kernel.now.max(horizon);
                    return RunOutcome::HorizonReached;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Runs until the queue drains or a handler stops the run.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(Timestamp::MAX)
    }
}

impl<W: std::fmt::Debug> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("kernel", &self.kernel)
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let mut e = Engine::new(World::default());
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(2), |w: &mut World, k| {
                w.log.push((k.now().as_micros(), "b"));
            });
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(1), |w: &mut World, k| {
                w.log.push((k.now().as_micros(), "a1"));
            });
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(1), |w: &mut World, k| {
                w.log.push((k.now().as_micros(), "a2"));
            });
        assert_eq!(e.run_to_completion(), RunOutcome::QueueDrained);
        assert_eq!(
            e.world().log,
            vec![(1_000_000, "a1"), (1_000_000, "a2"), (2_000_000, "b")]
        );
    }

    /// The epoch-barrier contract the sharded kernel
    /// (`envirotrack-core::shard`) builds on: `run_until(b)` consumes
    /// every event at or before `b`, so an event scheduled *at* `b`
    /// afterwards (legal — `schedule_at` accepts `at == now`) is strictly
    /// the next to execute, ahead of anything later. Barrier injections
    /// therefore occupy a fixed point in the global event order.
    #[test]
    fn post_horizon_scheduling_at_the_horizon_runs_next() {
        let b = Timestamp::from_secs(2);
        let mut e = Engine::new(World::default());
        e.kernel_mut().schedule_at(b, |w: &mut World, _| {
            w.log.push((0, "pre-barrier"));
        });
        e.kernel_mut()
            .schedule_at(b + SimDuration::from_micros(1), |w: &mut World, _| {
                w.log.push((0, "post-barrier"));
            });
        assert_eq!(e.run_until(b), RunOutcome::HorizonReached);
        assert_eq!(e.world().log, vec![(0, "pre-barrier")], "run_until is inclusive");
        e.kernel_mut().schedule_at(b, |w: &mut World, k| {
            w.log.push((k.now().as_micros(), "injected"));
        });
        e.run_to_completion();
        assert_eq!(
            e.world().log,
            vec![
                (0, "pre-barrier"),
                (2_000_000, "injected"),
                (0, "post-barrier")
            ]
        );
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut e = Engine::new(World::default());
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(1), |_w: &mut World, k| {
                k.schedule_in(SimDuration::from_secs(1), |w: &mut World, k| {
                    w.log.push((k.now().as_micros(), "child"));
                });
            });
        e.run_to_completion();
        assert_eq!(e.world().log, vec![(2_000_000, "child")]);
    }

    #[test]
    fn run_until_respects_horizon_and_advances_clock() {
        let mut e = Engine::new(World::default());
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(5), |w: &mut World, _| {
                w.log.push((5, "late"));
            });
        assert_eq!(
            e.run_until(Timestamp::from_secs(3)),
            RunOutcome::HorizonReached
        );
        assert!(e.world().log.is_empty());
        assert_eq!(e.kernel().now(), Timestamp::from_secs(3));
        assert_eq!(
            e.run_until(Timestamp::from_secs(6)),
            RunOutcome::QueueDrained
        );
        assert_eq!(e.world().log.len(), 1);
        assert_eq!(e.kernel().now(), Timestamp::from_secs(6));
    }

    #[test]
    fn stop_interrupts_the_run() {
        let mut e = Engine::new(World::default());
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(1), |_: &mut World, k| k.stop());
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(2), |w: &mut World, _| {
                w.log.push((2, "unreachable"));
            });
        assert_eq!(e.run_to_completion(), RunOutcome::Stopped);
        assert!(e.world().log.is_empty());
        // Stop is one-shot: the next run proceeds.
        assert_eq!(e.run_to_completion(), RunOutcome::QueueDrained);
        assert_eq!(e.world().log.len(), 1);
    }

    #[test]
    fn event_limit_halts_runaway_simulations() {
        fn forever(_: &mut World, k: &mut Kernel<World>) {
            k.schedule_in(SimDuration::from_micros(1), forever);
        }
        let mut e = Engine::new(World::default());
        e.set_event_limit(1000);
        e.kernel_mut().schedule_at(Timestamp::ZERO, forever);
        assert_eq!(e.run_to_completion(), RunOutcome::EventLimit);
        assert_eq!(e.kernel().events_processed(), 1000);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e = Engine::new(World::default());
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(1), |_: &mut World, _| {});
        e.run_to_completion();
        e.kernel_mut()
            .schedule_at(Timestamp::ZERO, |_: &mut World, _| {});
    }
}
