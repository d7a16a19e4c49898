//! The simulation hub: one thread owning every shared `SensorNetwork` run.
//!
//! The simulation stack is deliberately single-threaded (`Rc` handles,
//! deterministic event order), so it cannot be touched from the socket
//! workers. Instead *all* worlds live on one hub thread; workers talk to
//! it through an mpsc command queue and receive events through per-session
//! [`Outbox`]es — lock-guarded frame queues the hub only ever *try*-pushes
//! into. A slow consumer therefore fills its own outbox and gets shed; it
//! can never block the hub, and the shared simulation advances at full
//! speed for everyone else. This is the determinism boundary: virtual sim
//! time is produced on the hub clock, wall-clock pacing and delivery
//! happen outside it.
//!
//! Worlds are keyed by `(scenario, seed)` and shared: a thousand clients
//! subscribing to the same scenario+seed cost one simulation, not a
//! thousand. Each world wraps around when its tank finishes crossing — the
//! engine is rebuilt with the same seed and an epoch offset keeps event
//! timestamps monotone per query.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use envirotrack_core::api::tracker_program;
use envirotrack_core::context::ContextTypeId;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::wire::session::{SessionMsg, SubAck, TrackEvent};
use envirotrack_sim::engine::Engine;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::scenario::TankScenario;

use crate::metrics::ServeMetrics;

/// Scenario 0: the paper's 10×2 testbed grid.
pub const SCENARIO_TESTBED: u8 = 0;
/// Scenario 1: a wider, faster 20×3 field (requires `CAP_SCENARIO_RUN`).
pub const SCENARIO_WIDE: u8 = 1;

/// A bounded, shed-on-overflow frame queue from the hub to one session.
#[derive(Debug)]
pub struct Outbox {
    queue: Mutex<std::collections::VecDeque<Bytes>>,
    /// Maximum queued frames (the session's negotiated send budget).
    budget: usize,
    /// Set when a push overflowed: the session must be shed.
    shed: AtomicBool,
    /// Set by the worker when the session dies: the hub drops the
    /// subscription on its next tick.
    closed: AtomicBool,
    /// Frames dropped on the floor after overflow.
    dropped: AtomicU64,
}

impl Outbox {
    /// A new outbox holding at most `budget` frames.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        Outbox {
            queue: Mutex::new(std::collections::VecDeque::new()),
            budget: budget.max(1),
            shed: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    /// Queues a frame; on overflow marks the outbox shed and returns
    /// `false`. Never blocks beyond the queue mutex (no waiting on the
    /// consumer).
    pub fn push(&self, frame: Bytes) -> bool {
        let mut q = self.queue.lock().expect("outbox lock");
        if q.len() >= self.budget {
            drop(q);
            self.shed.store(true, Ordering::Release);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        q.push_back(frame);
        true
    }

    /// Dequeues the next frame for the socket.
    #[must_use]
    pub fn pop(&self) -> Option<Bytes> {
        self.queue.lock().expect("outbox lock").pop_front()
    }

    /// Whether an overflow marked this session for shedding.
    #[must_use]
    pub fn is_shed(&self) -> bool {
        self.shed.load(Ordering::Acquire)
    }

    /// Marks the session dead so the hub forgets the subscription.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether the worker declared the session dead.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Frames dropped after overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A validated-at-the-hub subscription request.
pub struct SubscribeReq {
    /// Client-chosen query id, echoed in events.
    pub query_id: u32,
    /// Scenario catalog entry.
    pub scenario: u8,
    /// World RNG seed.
    pub seed: u64,
    /// Context type to stream leader positions for.
    pub type_id: ContextTypeId,
    /// Where acks and events for this session go.
    pub outbox: Arc<Outbox>,
    /// When the worker pulled the SUBSCRIBE off the socket, for the
    /// query-latency histograms.
    pub received_at: Instant,
}

/// A worker→hub request.
pub enum HubCommand {
    /// Register a streaming query on a (possibly new) world.
    Subscribe(SubscribeReq),
    /// Stop the hub thread.
    Shutdown,
}

/// Hub tuning knobs.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Maximum concurrently simulated worlds; further `(scenario, seed)`
    /// keys are denied.
    pub max_worlds: usize,
    /// Virtual time each hub tick advances every world by.
    pub tick_virtual: SimDuration,
    /// Wall-clock pacing between hub ticks (the virtual:real speedup is
    /// `tick_virtual / tick_real`).
    pub tick_real: Duration,
    /// Virtual interval between leader snapshots *within* a tick: a tick
    /// emits `tick_virtual / sample_virtual` event batches. Equal to
    /// `tick_virtual` → one batch per tick.
    pub sample_virtual: SimDuration,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            max_worlds: 8,
            tick_virtual: SimDuration::from_millis(200),
            tick_real: Duration::from_millis(2),
            sample_virtual: SimDuration::from_millis(200),
        }
    }
}

struct Subscription {
    query_id: u32,
    outbox: Arc<Outbox>,
    seq: u64,
    subscribed_at: Instant,
    first_event_recorded: bool,
}

struct World {
    engine: Engine<SensorNetwork>,
    scenario: u8,
    seed: u64,
    type_id: ContextTypeId,
    /// Virtual duration of one crossing; the engine is rebuilt past this.
    horizon: SimDuration,
    /// Accumulated virtual time of completed crossings, keeping event
    /// timestamps monotone across engine rebuilds.
    epoch: SimDuration,
    subs: Vec<Subscription>,
}

fn scenario_spec(scenario: u8) -> Option<TankScenario> {
    match scenario {
        SCENARIO_TESTBED => Some(TankScenario {
            cols: 10,
            rows: 2,
            speed_hops_per_s: 0.5,
            sensing_radius: 1.0,
            lane_y: 0.5,
            approach: 1.5,
        }),
        SCENARIO_WIDE => Some(TankScenario {
            cols: 20,
            rows: 3,
            speed_hops_per_s: 1.0,
            sensing_radius: 1.5,
            lane_y: 1.0,
            approach: 2.0,
        }),
        _ => None,
    }
}

fn build_world(scenario: u8, seed: u64, type_id: ContextTypeId) -> Option<World> {
    let spec = scenario_spec(scenario)?;
    let built = spec.build();
    let tank = built.environment.target(built.primary_target)?.clone();
    let crossing = tank.trajectory().duration()?;
    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg.radio.with_comm_radius(6.0).with_base_loss(0.05);
    let engine = SensorNetwork::build_engine(
        tracker_program(),
        built.deployment,
        built.environment,
        net_cfg,
        seed,
    );
    Some(World {
        engine,
        scenario,
        seed,
        type_id,
        horizon: crossing + SimDuration::from_secs(5),
        epoch: SimDuration::ZERO,
        subs: Vec::new(),
    })
}

impl World {
    /// Advances virtual time by `slice` in sub-steps of `sample`,
    /// emitting a leader snapshot after each sub-step. A finer `sample`
    /// raises the event rate without changing the virtual:real speedup.
    fn tick(&mut self, slice: SimDuration, sample: SimDuration, metrics: &ServeMetrics) {
        let mut remaining = slice;
        while !remaining.is_zero() {
            let step = remaining.min(sample);
            remaining = remaining.saturating_sub(step);
            self.advance(step);
            self.emit(metrics);
        }
    }

    /// Advances virtual time by `slice`, wrapping (rebuild, same seed) at
    /// the crossing horizon.
    fn advance(&mut self, slice: SimDuration) {
        let target = self.engine.kernel().now().saturating_add(slice);
        if target.saturating_since(Timestamp::ZERO) > self.horizon {
            // Crossing complete: restart the same world, advancing the
            // epoch so per-query timestamps keep increasing.
            self.epoch += self.engine.kernel().now().saturating_since(Timestamp::ZERO);
            if let Some(fresh) = build_world(self.scenario, self.seed, self.type_id) {
                self.engine = fresh.engine;
            }
            self.engine.run_until(Timestamp::ZERO.saturating_add(slice));
        } else {
            self.engine.run_until(target);
        }
    }

    /// Fans the current leader positions out to every live subscription.
    fn emit(&mut self, metrics: &ServeMetrics) {
        self.subs.retain(|s| !s.outbox.is_closed());
        if self.subs.is_empty() {
            return;
        }
        let now = self.engine.kernel().now().saturating_since(Timestamp::ZERO);
        let at = Timestamp::ZERO.saturating_add(self.epoch + now);
        let leaders = self.engine.world().leaders_of_type(self.type_id);
        if leaders.is_empty() {
            return;
        }
        let deployment_positions: Vec<_> = leaders
            .iter()
            .map(|(n, label)| (*label, self.engine.world().deployment().position(*n)))
            .collect();
        for sub in &mut self.subs {
            if sub.outbox.is_shed() {
                continue; // stop wasting encode work on a doomed session
            }
            for (label, pos) in &deployment_positions {
                let frame = SessionMsg::Event(TrackEvent {
                    query_id: sub.query_id,
                    seq: sub.seq,
                    at,
                    label: *label,
                    pos: *pos,
                })
                .encode();
                if sub.outbox.push(frame) {
                    sub.seq += 1;
                    metrics.events_sent.fetch_add(1, Ordering::Relaxed);
                    if !sub.first_event_recorded {
                        sub.first_event_recorded = true;
                        let us = u64::try_from(sub.subscribed_at.elapsed().as_micros())
                            .unwrap_or(u64::MAX);
                        metrics.observe_first_event(us);
                    }
                } else {
                    metrics.events_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Handle to the hub thread.
pub struct SimHub {
    tx: Sender<HubCommand>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for SimHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHub").finish_non_exhaustive()
    }
}

impl SimHub {
    /// Spawns the hub thread.
    #[must_use]
    pub fn spawn(cfg: HubConfig, metrics: Arc<ServeMetrics>) -> SimHub {
        let (tx, rx) = std::sync::mpsc::channel();
        let join = std::thread::Builder::new()
            .name("serve-hub".into())
            .spawn(move || {
                let guard = PanicCounter(Arc::clone(&metrics));
                hub_loop(&cfg, &rx, &metrics);
                drop(guard);
            })
            .expect("spawn hub thread");
        SimHub {
            tx,
            join: Some(join),
        }
    }

    /// A sender for worker threads.
    #[must_use]
    pub fn sender(&self) -> Sender<HubCommand> {
        self.tx.clone()
    }

    /// Stops the hub and joins it.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(HubCommand::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for SimHub {
    fn drop(&mut self) {
        let _ = self.tx.send(HubCommand::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Counts a panicking unwind on drop, so the acceptance criterion
/// "zero server panics" is a checkable counter rather than a hope.
pub(crate) struct PanicCounter(pub(crate) Arc<ServeMetrics>);

impl Drop for PanicCounter {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn hub_loop(cfg: &HubConfig, rx: &Receiver<HubCommand>, metrics: &ServeMetrics) {
    let mut worlds: BTreeMap<(u8, u64), World> = BTreeMap::new();
    loop {
        // Drain all pending commands first: subscription acks must not
        // wait behind a sim tick.
        loop {
            match rx.try_recv() {
                Ok(HubCommand::Shutdown) | Err(TryRecvError::Disconnected) => return,
                Ok(HubCommand::Subscribe(sub)) => subscribe(&mut worlds, cfg, metrics, sub),
                Err(TryRecvError::Empty) => break,
            }
        }

        for world in worlds.values_mut() {
            world.tick(cfg.tick_virtual, cfg.sample_virtual.max(SimDuration::from_micros(1)), metrics);
        }
        // Worlds with no subscribers left cost sim time for nobody.
        worlds.retain(|_, w| !w.subs.is_empty());

        match rx.recv_timeout(cfg.tick_real) {
            Ok(HubCommand::Shutdown) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return;
            }
            Ok(HubCommand::Subscribe(sub)) => subscribe(&mut worlds, cfg, metrics, sub),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Validates a subscription request, registers it on its (possibly new)
/// world, and pushes the SUBACK into the session outbox.
fn subscribe(
    worlds: &mut BTreeMap<(u8, u64), World>,
    cfg: &HubConfig,
    metrics: &ServeMetrics,
    req: SubscribeReq,
) {
    let accepted = admit(worlds, cfg, &req);
    if !accepted {
        metrics.subs_denied.fetch_add(1, Ordering::Relaxed);
    }
    let ack = SessionMsg::SubAck(SubAck {
        query_id: req.query_id,
        accepted,
    })
    .encode();
    let us = u64::try_from(req.received_at.elapsed().as_micros()).unwrap_or(u64::MAX);
    metrics.observe_ack(us);
    let _ = req.outbox.push(ack);
}

fn admit(worlds: &mut BTreeMap<(u8, u64), World>, cfg: &HubConfig, req: &SubscribeReq) -> bool {
    // Only the tracker type exists in the served program.
    if req.type_id != ContextTypeId(0) {
        return false;
    }
    let key = (req.scenario, req.seed);
    if !worlds.contains_key(&key) {
        if worlds.len() >= cfg.max_worlds {
            return false;
        }
        let Some(world) = build_world(req.scenario, req.seed, req.type_id) else {
            return false;
        };
        worlds.insert(key, world);
    }
    let world = worlds.get_mut(&key).expect("world just ensured");
    world.subs.push(Subscription {
        query_id: req.query_id,
        outbox: Arc::clone(&req.outbox),
        seq: 0,
        subscribed_at: req.received_at,
        first_event_recorded: false,
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_sheds_on_overflow_and_never_blocks() {
        let o = Outbox::new(2);
        assert!(o.push(Bytes::from_static(b"a")));
        assert!(o.push(Bytes::from_static(b"b")));
        assert!(!o.is_shed());
        assert!(!o.push(Bytes::from_static(b"c")), "third push overflows");
        assert!(o.is_shed());
        assert_eq!(o.dropped(), 1);
        // Draining does not clear the shed mark: one overflow is terminal.
        assert!(o.pop().is_some());
        assert!(o.is_shed());
    }

    #[test]
    fn hub_acks_and_streams_then_shuts_down() {
        let metrics = Arc::new(ServeMetrics::new());
        let hub = SimHub::spawn(
            HubConfig {
                max_worlds: 2,
                tick_virtual: SimDuration::from_millis(500),
                tick_real: Duration::from_millis(1),
                sample_virtual: SimDuration::from_millis(500),
            },
            Arc::clone(&metrics),
        );
        let outbox = Arc::new(Outbox::new(64));
        hub.sender()
            .send(HubCommand::Subscribe(SubscribeReq {
                query_id: 9,
                scenario: SCENARIO_TESTBED,
                seed: 2,
                type_id: ContextTypeId(0),
                outbox: Arc::clone(&outbox),
                received_at: Instant::now(),
            }))
            .expect("hub alive");
        // First frame out must be the ack; events follow once the tank
        // activates trackers.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut got_ack = false;
        let mut got_event = false;
        while Instant::now() < deadline && !(got_ack && got_event) {
            match outbox.pop() {
                Some(frame) => match SessionMsg::decode(&frame).expect("hub frames are valid") {
                    SessionMsg::SubAck(a) => {
                        assert!(a.accepted);
                        assert_eq!(a.query_id, 9);
                        assert!(!got_ack, "exactly one ack");
                        got_ack = true;
                    }
                    SessionMsg::Event(e) => {
                        assert!(got_ack, "ack precedes events");
                        assert_eq!(e.query_id, 9);
                        got_event = true;
                    }
                    other => panic!("unexpected hub frame: {other:?}"),
                },
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        assert!(got_ack && got_event, "hub streamed an ack and an event");

        // Unknown scenario and unknown type are denied, not ignored.
        let denied = Arc::new(Outbox::new(4));
        hub.sender()
            .send(HubCommand::Subscribe(SubscribeReq {
                query_id: 10,
                scenario: 99,
                seed: 2,
                type_id: ContextTypeId(0),
                outbox: Arc::clone(&denied),
                received_at: Instant::now(),
            }))
            .expect("hub alive");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(frame) = denied.pop() {
                match SessionMsg::decode(&frame).expect("valid") {
                    SessionMsg::SubAck(a) => {
                        assert!(!a.accepted);
                        break;
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            }
            assert!(Instant::now() < deadline, "denial ack arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(metrics.subs_denied.load(Ordering::Relaxed), 1);
        hub.shutdown();
        assert_eq!(metrics.panics.load(Ordering::Relaxed), 0);
    }
}
