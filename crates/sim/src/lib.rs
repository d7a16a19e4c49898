//! # envirotrack-sim
//!
//! The discrete-event simulation kernel underlying the EnviroTrack
//! reproduction. The paper ran on physical MICA motes; this crate provides
//! the deterministic substrate on which every other crate in the workspace
//! (radio medium, mote runtime, middleware) executes.
//!
//! ## Pieces
//!
//! * [`time`] — integral virtual time ([`time::Timestamp`],
//!   [`time::SimDuration`]).
//! * [`queue`] — a binary-heap future-event list, FIFO among equal
//!   timestamps.
//! * [`rng`] — seeded, forkable randomness ([`rng::SimRng`]).
//! * [`engine`] — the run loop ([`engine::Engine`], [`engine::Kernel`]).
//!
//! Counters and histograms live in `envirotrack-telemetry`; the kernel
//! counts executed events there (`kernel.events`) once a registry is
//! attached.
//!
//! ## Example
//!
//! ```
//! use envirotrack_sim::prelude::*;
//!
//! struct World { pings: u32 }
//!
//! let mut engine = Engine::new(World { pings: 0 });
//! engine.kernel_mut().schedule_at(Timestamp::from_secs(1), |w: &mut World, _k| {
//!     w.pings += 1;
//! });
//! engine.run_until(Timestamp::from_secs(2));
//! assert_eq!(engine.world().pings, 1);
//! ```
//!
//! ## Determinism contract
//!
//! Given identical world construction and identical scheduled events, two
//! runs execute byte-identical event sequences. The contract rests on
//! (a) integral timestamps, (b) FIFO tie-breaking in the queue, and (c) all
//! randomness flowing from seeded [`rng::SimRng`] streams the world owns.

pub mod engine;
pub mod queue;
pub mod rng;
pub mod time;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::engine::{Engine, Kernel, RunOutcome};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, Timestamp};
}
