//! The shared wireless channel.
//!
//! [`Medium`] models the MICA mote radio the paper ran on:
//!
//! * **Unit-disk connectivity** — nodes hear each other within a
//!   configurable communication radius (in grid units).
//! * **50 kb/s serialisation** — a frame occupies the channel for
//!   `on_air_bits / bandwidth` of virtual time.
//! * **CSMA deferral** — a transmitter that senses an in-range transmission
//!   defers until the channel frees (plus a random backoff); frames deferred
//!   beyond a bound are dropped, modelling queue overflow under overload.
//! * **Collisions** — two overlapping transmissions audible at a common
//!   receiver destroy each other there (hidden terminals), and a node
//!   cannot receive while transmitting (half-duplex).
//! * **Fading** — independent per-receiver Bernoulli loss, the residual
//!   unreliability the paper observed even at low utilisation (MICA's MAC
//!   has no reliability layer).
//! * **Burst loss** (optional) — a per-receiver Gilbert–Elliott two-state
//!   chain layered on top of the Bernoulli fading, modelling correlated
//!   deep fades; installed and removed at runtime by the chaos harness.
//! * **Partitions** (optional) — a node-group mask that severs every link
//!   between groups, modelling an RF barrier or a split field; enforced at
//!   carrier sensing, collision resolution and delivery alike.
//!
//! ## One channel core, two steps
//!
//! The medium is passive, and every transmission crosses the same two
//! steps whichever way the run is executed:
//!
//! * **Resolve** ([`Medium::resolve`], the transmit side) decides everything
//!   about the transmission itself, exactly once: CSMA deferral with a
//!   backoff from the sequential `radio-medium` stream, the MAC drop,
//!   link-fault reorder slip, garbling and duplication from the
//!   `link-faults` stream, and the transmit-side statistics. The result is
//!   a [`ResolvedTx`].
//! * **Deliver** (the receiver side): [`Medium::ingest`] records the
//!   resolved channel window, and [`Medium::deliver`], called at the
//!   completion instant, resolves collisions and half-duplex against the
//!   ingested windows and walks the **owned** receivers only
//!   ([`Medium::set_owned`]; a fresh medium owns every node).
//!
//! A monolithic world resolves on its own medium when a node asks to send
//! and ingests the result straight back: zero added latency, every node
//! owned. A sharded run resolves every merged request once on the
//! orchestrator's medium, one pipeline latency later, and routes each
//! [`ResolvedTx`] to the shards whose owned receivers can hear it (see
//! `envirotrack-core`'s `shard` module).
//!
//! ## The keyed-draw discipline
//!
//! The receiver side never draws from a shared sequential stream. A fade
//! is a *keyed* draw, a pure function of `(source, seq, receiver)`; a
//! Gilbert–Elliott chain is a per-receiver stream advanced only when that
//! receiver's owner walks an arrival opportunity. Skipping a receiver, or
//! never ingesting a transmission no owned receiver can hear, therefore
//! consumes zero randomness — which is what makes any routed subset of the
//! traffic byte-identical to the full replay.
//!
//! "Heard by nobody" (`tx_lost`, the paper's message-loss metric) needs
//! every receiver's answer. [`DeliveryReport::heard`] reports the owned
//! receivers' part; whoever holds all of them settles the verdict with
//! [`Medium::note_lost`] — the monolithic world at delivery, the sharded
//! orchestrator once every shard has reported.

use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use envirotrack_sim::rng::{splitmix64, SimRng};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::{CounterHandle, Telemetry};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::grid::neighbor_lists;

use crate::packet::{Frame, FrameKind};

/// Radio and MAC parameters.
#[derive(Debug, Clone)]
pub struct RadioConfig {
    /// Communication radius in grid units.
    pub comm_radius: f64,
    /// Channel bandwidth in bits per second (MICA: 50 kb/s).
    pub bandwidth_bps: u64,
    /// Independent per-receiver fade probability.
    pub base_loss: f64,
    /// Whether transmitters carrier-sense and defer (CSMA).
    pub csma: bool,
    /// Longest a frame may wait for the channel before being dropped.
    pub max_defer: SimDuration,
    /// Upper bound on the random post-defer backoff.
    pub backoff_max: SimDuration,
    /// Fixed receive-path processing delay added after the last bit.
    pub proc_delay: SimDuration,
}

impl Default for RadioConfig {
    /// MICA-mote-like defaults: 50 kb/s, 5 % fade, CSMA with a 250 ms defer
    /// cap, and a 2 ms receive-processing delay.
    fn default() -> Self {
        RadioConfig {
            comm_radius: 6.0,
            bandwidth_bps: 50_000,
            base_loss: 0.05,
            csma: true,
            max_defer: SimDuration::from_millis(250),
            backoff_max: SimDuration::from_millis(4),
            proc_delay: SimDuration::from_millis(2),
        }
    }
}

impl RadioConfig {
    /// Sets the communication radius; chainable.
    #[must_use]
    pub fn with_comm_radius(mut self, r: f64) -> Self {
        assert!(r > 0.0, "communication radius must be positive");
        self.comm_radius = r;
        self
    }

    /// Sets the fade probability; chainable.
    #[must_use]
    pub fn with_base_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.base_loss = p;
        self
    }

    /// On-air time of `frame` at this bandwidth.
    #[must_use]
    pub fn tx_time(&self, frame: &Frame) -> SimDuration {
        let micros = frame.on_air_bits() * 1_000_000 / self.bandwidth_bps;
        SimDuration::from_micros(micros.max(1))
    }

    /// On-air time of the smallest possible frame (empty payload): a lower
    /// bound on how long *any* transmission spends on the channel.
    #[must_use]
    pub fn min_tx_airtime(&self) -> SimDuration {
        let min_bits = ((Frame::PREAMBLE_BYTES + Frame::HEADER_BYTES) * 8) as u64;
        SimDuration::from_micros((min_bits * 1_000_000 / self.bandwidth_bps).max(1))
    }

    /// The conservative cross-shard synchronisation window: no frame
    /// requested at time `t` can be processed by a receiver before
    /// `t + epoch_latency()`, because even the smallest frame spends
    /// [`min_tx_airtime`](Self::min_tx_airtime) on the channel and then
    /// [`proc_delay`](Self::proc_delay) in the receive path. Sharded runs
    /// use this as both the epoch length and the uniform pipeline latency
    /// applied to every transmit request (see `envirotrack-core`'s shard
    /// module).
    #[must_use]
    pub fn epoch_latency(&self) -> SimDuration {
        self.min_tx_airtime() + self.proc_delay
    }
}

/// A Gilbert–Elliott two-state burst-loss channel model.
///
/// Each receiver carries an independent Good/Bad state advanced once per
/// frame-arrival opportunity; the loss probability depends on the state.
/// With the default parameters the Bad state loses most frames and bursts
/// last a handful of frames, which is what defeats single-shot delivery
/// while bounded retransmission still gets through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving Good → Bad at each arrival opportunity.
    pub p_good_to_bad: f64,
    /// Probability of moving Bad → Good at each arrival opportunity.
    pub p_bad_to_good: f64,
    /// Loss probability while in the Good state.
    pub loss_good: f64,
    /// Loss probability while in the Bad state.
    pub loss_bad: f64,
}

impl Default for GilbertElliott {
    /// Mild-Good / severe-Bad defaults: ~7-frame mean burst length, 85 %
    /// loss inside a burst, clean channel outside it.
    fn default() -> Self {
        GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.15,
            loss_good: 0.0,
            loss_bad: 0.85,
        }
    }
}

impl GilbertElliott {
    /// Validates the four probabilities.
    ///
    /// # Panics
    ///
    /// Panics when any probability is outside `[0, 1]`.
    pub fn validate(&self) {
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
    }
}

/// Link-level fault injection: what a hostile channel does to frames that
/// the loss models alone cannot express. Installed and removed at runtime
/// by the chaos harness (see `envirotrack-chaos`); every draw comes from a
/// dedicated forked RNG stream, so installing the injector never perturbs
/// the baseline fading/backoff sequences and fixed-seed runs replay
/// byte-identically.
///
/// Corruption garbles the *transmission* — all receivers of one broadcast
/// share the same garbled bytes, which keeps the decode-once broadcast path
/// valid. The frame's [`Frame::shadow`] hash is left untouched, so the
/// receiver stack can audit that no garbled frame is ever accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Per-payload-byte probability of flipping one random bit.
    pub flip_per_byte: f64,
    /// Per-frame probability of truncating the payload at a random point.
    pub truncate: f64,
    /// Per-frame probability the link delivers the frame twice.
    pub duplicate: f64,
    /// Per-frame probability of delaying delivery *processing* by a random
    /// extra amount (bounded below), letting later frames overtake it.
    pub reorder: f64,
    /// Upper bound on the reordering delay.
    pub reorder_max_delay: SimDuration,
}

impl Default for LinkFaults {
    /// The soak profile: 1e-3 per-byte bit flips (a ~20-byte frame is
    /// garbled every ~50 transmissions), occasional truncation, and mild
    /// duplication/reordering.
    fn default() -> Self {
        LinkFaults {
            flip_per_byte: 1e-3,
            truncate: 0.005,
            duplicate: 0.01,
            reorder: 0.02,
            reorder_max_delay: SimDuration::from_millis(30),
        }
    }
}

impl LinkFaults {
    /// Validates the probabilities.
    ///
    /// # Panics
    ///
    /// Panics when any probability is outside `[0, 1]`.
    pub fn validate(&self) {
        for (name, p) in [
            ("flip_per_byte", self.flip_per_byte),
            ("truncate", self.truncate),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
    }
}

/// What happened to one (transmission, receiver) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The frame arrived intact.
    Delivered,
    /// Destroyed by an overlapping transmission audible at the receiver.
    Collided,
    /// The receiver was itself transmitting (half-duplex radio).
    HalfDuplex,
    /// Independent fading loss.
    Faded,
    /// Lost to a Gilbert–Elliott burst (receiver in the Bad state).
    BurstFaded,
    /// The link is severed by an active partition mask.
    PartitionDrop,
}

/// The outcome set of one delivery step.
#[derive(Debug, Clone)]
pub struct DeliveryReport {
    /// The transmission's global identity.
    pub key: TxKey,
    /// The transmitted frame — payload possibly garbled by the link-fault
    /// injector (compare [`Frame::payload_is_pristine`]).
    pub frame: Frame,
    /// Per-receiver outcomes for the owned receivers, in ascending node-id
    /// order.
    pub outcomes: Vec<(NodeId, DeliveryOutcome)>,
    /// The link duplicated this frame: the receiver stack must process the
    /// outcome set a second time (dedup layers are what's under test).
    pub duplicated: bool,
    /// At least one owned receiver got the frame intact.
    pub heard: bool,
}

impl DeliveryReport {
    /// Receivers that got the frame intact.
    pub fn delivered(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.outcomes
            .iter()
            .filter(|(_, o)| *o == DeliveryOutcome::Delivered)
            .map(|(n, _)| *n)
    }
}

/// Per-frame-kind delivery statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindStats {
    /// Transmissions attempted (after MAC drops).
    pub tx: u64,
    /// (tx, receiver) pairs delivered intact.
    pub rx: u64,
    /// Transmissions heard intact by *no* receiver — the paper's message
    /// loss metric ("sent but never received on any other mote").
    pub tx_lost: u64,
    /// (tx, receiver) pairs destroyed by collisions.
    pub collided: u64,
    /// (tx, receiver) pairs lost to fading.
    pub faded: u64,
    /// (tx, receiver) pairs missed because the receiver was transmitting.
    pub half_duplex: u64,
    /// Frames dropped by the MAC before transmission (channel saturated).
    pub mac_dropped: u64,
    /// (tx, receiver) pairs lost to Gilbert–Elliott bursts — kept separate
    /// from `faded` so chaos-induced loss is distinguishable from the
    /// baseline Bernoulli fading.
    pub burst_faded: u64,
    /// (tx, receiver) pairs severed by an active partition mask.
    pub partition_dropped: u64,
    /// Bytes this kind actually serialised onto the channel (preamble and
    /// link header included), from the canonical [`Frame::wire_len`] — the
    /// per-kind share of `NetStats::total_bits`.
    pub bytes_on_air: u64,
    /// Transmissions garbled by the link-fault injector (bit flips and/or
    /// truncation). Receivers must reject every one of these at the CRC
    /// check — the accepted-corrupt invariant audits exactly that.
    pub corrupted: u64,
    /// Transmissions the injector delivered twice.
    pub duplicated: u64,
    /// Transmissions whose delivery processing the injector delayed past
    /// their natural instant (reordering opportunities).
    pub reordered: u64,
}

impl KindStats {
    /// Fraction of transmissions heard by nobody, in `[0, 1]`.
    /// MAC-dropped frames count as lost transmissions too.
    #[must_use]
    pub fn tx_loss_ratio(&self) -> f64 {
        let attempts = self.tx + self.mac_dropped;
        if attempts == 0 {
            0.0
        } else {
            (self.tx_lost + self.mac_dropped) as f64 / attempts as f64
        }
    }

    /// Fraction of (transmission, in-range receiver) pairs that failed —
    /// the per-receiver channel unreliability (fading + collisions +
    /// half-duplex misses), in `[0, 1]`. This is the loss a protocol
    /// running on one mote experiences, matching Table 1 of the paper.
    #[must_use]
    pub fn pair_loss_ratio(&self) -> f64 {
        let lost = self.faded
            + self.collided
            + self.half_duplex
            + self.burst_faded
            + self.partition_dropped;
        let total = self.rx + lost;
        if total == 0 {
            0.0
        } else {
            lost as f64 / total as f64
        }
    }

    /// Adds another snapshot's counts into this one. Sharded runs use this
    /// to combine the orchestrator's transmit-side stats with every shard's
    /// receiver-side stats into one whole-run view.
    pub fn absorb(&mut self, other: &KindStats) {
        self.tx += other.tx;
        self.rx += other.rx;
        self.tx_lost += other.tx_lost;
        self.collided += other.collided;
        self.faded += other.faded;
        self.half_duplex += other.half_duplex;
        self.mac_dropped += other.mac_dropped;
        self.burst_faded += other.burst_faded;
        self.partition_dropped += other.partition_dropped;
        self.bytes_on_air += other.bytes_on_air;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
    }
}

/// A whole-run snapshot of channel statistics.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Statistics per frame kind.
    pub per_kind: BTreeMap<u8, KindStats>,
    /// Total transmissions across kinds.
    pub total_tx: u64,
    /// Total bits serialised onto the channel (preamble included).
    pub total_bits: u64,
    /// Total channel-busy time summed over transmissions.
    pub busy_time: SimDuration,
}

impl NetStats {
    /// Stats for one kind (zeroed if never seen).
    #[must_use]
    pub fn kind(&self, kind: FrameKind) -> KindStats {
        self.per_kind.get(&kind.0).copied().unwrap_or_default()
    }

    /// Sum of a per-kind counter over every kind — e.g.
    /// `stats.sum(|k| k.burst_faded)` for the whole-run burst-loss count.
    #[must_use]
    pub fn sum(&self, f: impl Fn(&KindStats) -> u64) -> u64 {
        self.per_kind.values().map(f).sum()
    }

    /// Receiver-side loss ratio over every kind (see
    /// [`KindStats::pair_loss_ratio`]).
    #[must_use]
    pub fn pair_loss_ratio(&self) -> f64 {
        let mut all = KindStats::default();
        for ks in self.per_kind.values() {
            all.absorb(ks);
        }
        all.pair_loss_ratio()
    }

    /// Total bytes serialised on air across every kind (preamble + header
    /// + canonical payload), the Table-1 "bytes actually sent" number.
    #[must_use]
    pub fn bytes_on_air(&self) -> u64 {
        self.sum(|k| k.bytes_on_air)
    }

    /// Worst-case broadcast-channel utilisation over `elapsed`: total bits
    /// sent divided by what the link could carry, as in Table 1 of the
    /// paper (assumes no spatial reuse).
    #[must_use]
    pub fn link_utilization(&self, elapsed: SimDuration, bandwidth_bps: u64) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_bits as f64 / (secs * bandwidth_bps as f64)
    }

    /// Adds another snapshot's counts into this one (see
    /// [`KindStats::absorb`]).
    pub fn absorb(&mut self, other: &NetStats) {
        for (kind, ks) in &other.per_kind {
            self.per_kind.entry(*kind).or_default().absorb(ks);
        }
        self.total_tx += other.total_tx;
        self.total_bits += other.total_bits;
        self.busy_time += other.busy_time;
    }
}

/// Pre-resolved telemetry handles for one frame kind, so the hot path
/// increments a shared cell instead of formatting a counter name and
/// walking the registry map per event.
#[derive(Debug, Clone)]
struct KindCounters {
    tx: CounterHandle,
    lost: CounterHandle,
    mac_drop: CounterHandle,
    bytes: CounterHandle,
}

/// Upper bound on pooled outcome buffers; deliveries are collected one at a
/// time in practice, so the pool never grows past a handful of entries.
const OUTCOME_POOL_CAP: usize = 64;

/// Applies link-fault payload corruption to `frame` in the pinned draw
/// order (truncation first, then per-byte bit flips); returns whether
/// anything mutated. The charged [`Frame::wire_len`] and the sender's
/// [`Frame::shadow`] hash stay pristine, so airtime accounting and the
/// accepted-corrupt audit are unaffected.
fn garble_payload(frame: &mut Frame, f: &LinkFaults, rng: &mut SimRng) -> bool {
    let mut mutated = false;
    if f.truncate > 0.0 && !frame.payload.is_empty() && rng.chance(f.truncate) {
        let keep = rng.below(frame.payload.len() as u64) as usize;
        let mut cut = frame.payload.to_vec();
        cut.truncate(keep);
        frame.payload = Bytes::from(cut);
        mutated = true;
    }
    if f.flip_per_byte > 0.0 {
        let mut garbled: Option<Vec<u8>> = None;
        for i in 0..frame.payload.len() {
            if rng.chance(f.flip_per_byte) {
                let bit = rng.below(8) as u8;
                garbled.get_or_insert_with(|| frame.payload.to_vec())[i] ^= 1 << bit;
            }
        }
        if let Some(v) = garbled {
            frame.payload = Bytes::from(v);
            mutated = true;
        }
    }
    mutated
}

/// Deterministic 64-bit key for one `(transmission, receiver)` fade draw:
/// a double-[`splitmix64`] mix of `(source, seq, receiver)`. A pure
/// function of the pair, so every medium that walks the pair derives the
/// same fade, and skipping a pair consumes nothing.
fn fade_mix(key: TxKey, v: NodeId) -> u64 {
    let mut s = (u64::from(key.0) << 32) ^ u64::from(v.0);
    let a = splitmix64(&mut s);
    let mut s2 = a ^ key.1;
    splitmix64(&mut s2)
}

/// Globally unique identity of one transmission:
/// `(source node id, sequence number)`. Sharded runs number each source's
/// requests; a monolithic world numbers all of its transmissions.
pub type TxKey = (u32, u64);

/// One transmission resolved by [`Medium::resolve`]: the channel window
/// plus every transmit-side random decision, computed exactly once so any
/// set of receiver-side media can replay the delivery identically.
#[derive(Debug, Clone)]
pub struct ResolvedTx {
    /// Sequence number (second half of [`ResolvedTx::key`]).
    pub seq: u64,
    /// The frame as it left the transmit side — payload possibly garbled
    /// by the link-fault injector (every receiver shares the same garbled
    /// bytes), the charged [`Frame::wire_len`] always pristine.
    pub frame: Frame,
    /// When the first bit hits the channel (after CSMA defer + backoff).
    pub start: Timestamp,
    /// When the last bit leaves the channel.
    pub end: Timestamp,
    /// When receivers finish decoding (processing delay plus any reorder
    /// slip); schedule the delivery event here.
    pub completes_at: Timestamp,
    /// The link duplicated this transmission: receivers process the
    /// outcome set twice.
    pub duplicated: bool,
}

impl ResolvedTx {
    /// The transmission's global identity.
    #[must_use]
    pub fn key(&self) -> TxKey {
        (self.frame.src.0, self.seq)
    }
}

/// One ingested transmission awaiting (or past) its delivery step.
#[derive(Debug, Clone)]
struct Window {
    local: u64,
    key: TxKey,
    start: Timestamp,
    end: Timestamp,
    frame: Frame,
    duplicated: bool,
    resolved: bool,
}

/// One receiver's Gilbert–Elliott chain: its Good/Bad state and the
/// dedicated stream only that receiver's deliveries advance.
#[derive(Debug, Clone)]
struct BurstChain {
    bad: bool,
    rng: SimRng,
}

/// The shared broadcast radio channel. See the [module docs](self).
pub struct Medium {
    config: RadioConfig,
    /// Per-node neighbor lists, ascending by id. Shared: the world's
    /// geographic router reads this same table.
    neighbors: Rc<[Vec<NodeId>]>,
    stats: NetStats,
    /// Windows older than this horizon can no longer affect any outcome.
    prune_horizon: SimDuration,
    /// Partition group per node; links between different groups are severed.
    partition: Option<Vec<u8>>,
    /// Transmit side: `(source, end)` of every resolved transmission still
    /// inside the horizon — what carrier sensing defers behind.
    busy: Vec<(NodeId, Timestamp)>,
    /// Sequential CSMA backoff stream (`radio-medium`).
    backoff_rng: SimRng,
    /// Optional link-level fault injector (corruption, duplication,
    /// reordering), drawing from its own `link-faults` stream so
    /// installing it never disturbs the backoff draws.
    faults: Option<LinkFaults>,
    fault_rng: SimRng,
    /// Receiver side: which nodes this medium resolves receptions for.
    owned: Vec<bool>,
    /// Ingested transmissions, in ingestion order.
    windows: Vec<Window>,
    next_local: u64,
    /// Reused buffer for `deliver`: sources of the windows overlapping the
    /// one being delivered.
    overlapping: Vec<NodeId>,
    /// Base stream for the keyed per-pair fade draws.
    fade_rng: SimRng,
    /// Base stream the per-receiver burst chains derive from.
    burst_rng: SimRng,
    /// Optional burst-loss model with one chain per receiver, rebuilt anew
    /// at every install so the chains are a deterministic function of the
    /// install point.
    burst: Option<(GilbertElliott, Vec<BurstChain>)>,
    /// When enabled, every intact (src, dst) delivery is appended here for
    /// the invariant monitor to audit (e.g. "nothing crosses a partition").
    delivery_log: Option<Vec<(Timestamp, NodeId, NodeId)>>,
    /// Run-wide telemetry; a detached registry until the owning network
    /// attaches the shared one.
    telemetry: Telemetry,
    /// Counter handles per frame kind (indexed by `FrameKind.0`), resolved
    /// lazily against the current telemetry registry.
    kind_counters: Vec<Option<KindCounters>>,
    /// Recycled outcome buffers handed back via [`Medium::recycle`].
    outcome_pool: Vec<Vec<(NodeId, DeliveryOutcome)>>,
    /// Fresh outcome-buffer allocations made by `deliver`; stays flat in
    /// steady state when callers recycle their reports.
    outcome_allocs: u64,
}

impl Medium {
    /// Builds a medium over `deployment` with the given parameters, owning
    /// every receiver, and derives its randomness streams from `rng`.
    #[must_use]
    pub fn new(deployment: &Deployment, config: RadioConfig, rng: &SimRng) -> Self {
        let neighbors: Rc<[Vec<NodeId>]> = neighbor_lists(deployment, config.comm_radius).into();
        debug_assert!(
            neighbors
                .iter()
                .all(|list| list.windows(2).all(|w| w[0] < w[1])),
            "neighbor lists must be strictly ascending by node id"
        );
        let prune_horizon = config.max_defer + config.proc_delay + SimDuration::from_secs(1);
        // Renaming these labels would move every sharded run's bytes.
        let receiver_rng = rng.fork("shard-exec");
        Medium {
            config,
            owned: vec![true; neighbors.len()],
            neighbors,
            stats: NetStats::default(),
            prune_horizon,
            partition: None,
            busy: Vec::new(),
            backoff_rng: rng.fork("radio-medium"),
            faults: None,
            fault_rng: rng.fork("link-faults"),
            windows: Vec::new(),
            next_local: 0,
            overlapping: Vec::new(),
            fade_rng: receiver_rng.fork("fade").fork("pair"),
            burst_rng: receiver_rng.fork("burst").fork("rx"),
            burst: None,
            delivery_log: None,
            telemetry: Telemetry::new(),
            kind_counters: Vec::new(),
            outcome_pool: Vec::new(),
            outcome_allocs: 0,
        }
    }

    /// Replaces the detached default registry with the run-wide one. The
    /// medium records per-frame-kind transmission and whole-broadcast-loss
    /// counters (`net.k<kind>.tx`, `net.k<kind>.lost`, `net.k<kind>.mac_drop`,
    /// `net.k<kind>.bytes`).
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        // Handles resolved against the old registry are stale; re-resolve
        // lazily against the new one.
        self.kind_counters.clear();
    }

    /// The cached counter handles for `kind`, resolving them on first use.
    fn kind_counters(&mut self, kind: FrameKind) -> &KindCounters {
        let i = kind.0 as usize;
        if self.kind_counters.len() <= i {
            self.kind_counters.resize(i + 1, None);
        }
        let telemetry = &self.telemetry;
        self.kind_counters[i].get_or_insert_with(|| KindCounters {
            tx: telemetry.counter_handle(&format!("net.k{}.tx", kind.0)),
            lost: telemetry.counter_handle(&format!("net.k{}.lost", kind.0)),
            mac_drop: telemetry.counter_handle(&format!("net.k{}.mac_drop", kind.0)),
            bytes: telemetry.counter_handle(&format!("net.k{}.bytes", kind.0)),
        })
    }

    /// The radio configuration.
    #[must_use]
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// The whole neighbor table, for sharing with other per-world
    /// consumers (the geographic router) instead of rebuilding it.
    #[must_use]
    pub fn neighbor_table(&self) -> &Rc<[Vec<NodeId>]> {
        &self.neighbors
    }

    /// The neighbours of `node` (nodes within communication radius).
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.neighbors[node.index()]
    }

    /// Whether `a` and `b` are within communication range.
    #[must_use]
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        // Neighbor lists are built ascending by id (asserted in `new`).
        self.neighbors[a.index()].binary_search(&b).is_ok()
    }

    /// Restricts the receiver side to `owned` nodes: deliveries walk only
    /// those receivers (a shard's share of the field).
    ///
    /// # Panics
    ///
    /// Panics when `owned` does not cover every node.
    pub fn set_owned(&mut self, owned: Vec<bool>) {
        assert_eq!(
            owned.len(),
            self.neighbors.len(),
            "ownership mask must cover every node"
        );
        self.owned = owned;
    }

    /// Whether this medium resolves receptions for `node`.
    #[must_use]
    pub fn owns(&self, node: NodeId) -> bool {
        self.owned[node.index()]
    }

    /// Installs (or clears) a partition mask: `groups[i]` is node `i`'s
    /// group, and links between different groups are severed — no carrier
    /// sensing, no collisions, no delivery across the cut.
    ///
    /// # Panics
    ///
    /// Panics when the mask length does not match the deployment size.
    pub fn set_partition(&mut self, groups: Option<Vec<u8>>) {
        if let Some(g) = &groups {
            assert_eq!(
                g.len(),
                self.neighbors.len(),
                "partition mask must cover every node"
            );
        }
        self.partition = groups;
    }

    /// The currently active partition mask, if any.
    #[must_use]
    pub fn partition(&self) -> Option<&[u8]> {
        self.partition.as_deref()
    }

    /// Whether the link `a`↔`b` is severed by the active partition.
    #[must_use]
    pub fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        severed(self.partition.as_deref(), a, b)
    }

    /// Installs (or clears) the Gilbert–Elliott burst-loss model. Every
    /// receiver starts Good with a fresh chain stream, so the chains are a
    /// deterministic function of the install point, and each advances only
    /// when that receiver's owner walks an arrival opportunity.
    pub fn set_burst_loss(&mut self, model: Option<GilbertElliott>) {
        self.burst = model.map(|m| {
            m.validate();
            let chains = (0..self.neighbors.len() as u64)
                .map(|v| BurstChain {
                    bad: false,
                    rng: self.burst_rng.indexed(v),
                })
                .collect();
            (m, chains)
        });
    }

    /// Installs (or clears) the link-level fault injector.
    pub fn set_link_faults(&mut self, faults: Option<LinkFaults>) {
        if let Some(f) = &faults {
            f.validate();
        }
        self.faults = faults;
    }

    /// Enables or disables the delivery audit log (disabled by default; the
    /// invariant monitor turns it on and drains it every sample tick).
    pub fn set_delivery_log(&mut self, enabled: bool) {
        self.delivery_log = if enabled {
            Some(self.delivery_log.take().unwrap_or_default())
        } else {
            None
        };
    }

    /// Drains the delivery audit log: `(tx-end instant, src, dst)` triples
    /// for every intact delivery since the last drain. Empty when the log
    /// is disabled.
    pub fn take_delivery_log(&mut self) -> Vec<(Timestamp, NodeId, NodeId)> {
        match &mut self.delivery_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// The transmit side: resolves one transmission requested at `now`,
    /// exactly once — CSMA deferral and backoff, the MAC drop, link-fault
    /// reorder slip, garbling and duplication, and the transmit-side
    /// statistics. Returns `None` on a MAC drop (counted in the stats).
    /// Requests must arrive in nondecreasing `now` order; `(frame.src, seq)`
    /// must be unique, since it keys every fade draw of the delivery.
    pub fn resolve(&mut self, now: Timestamp, seq: u64, mut frame: Frame) -> Option<ResolvedTx> {
        let horizon = self.prune_horizon;
        self.busy.retain(|&(_, end)| end + horizon > now);
        let mut start = now;
        if self.config.csma {
            // Sense every in-progress or deferred transmission audible at
            // the sender, and start after the latest of them.
            let mut busy_until = now;
            for &(src, end) in &self.busy {
                let audible = src == frame.src
                    || (self.in_range(src, frame.src) && !self.partitioned(src, frame.src));
                if audible && end > busy_until {
                    busy_until = end;
                }
            }
            if busy_until > now {
                let backoff = SimDuration::from_micros(
                    self.backoff_rng
                        .below(self.config.backoff_max.as_micros().max(1)),
                );
                start = busy_until + backoff;
            }
            if start.saturating_since(now) > self.config.max_defer {
                self.kind_stats_mut(frame.kind).mac_dropped += 1;
                self.kind_counters(frame.kind).mac_drop.incr();
                return None;
            }
        }
        let tx_time = self.config.tx_time(&frame);
        let end = start + tx_time;
        self.stats.total_tx += 1;
        self.stats.total_bits += frame.on_air_bits();
        self.stats.busy_time += tx_time;
        let charged = frame.on_air_bits() / 8;
        {
            let ks = self.kind_stats_mut(frame.kind);
            ks.tx += 1;
            ks.bytes_on_air += charged;
        }
        let kc = self.kind_counters(frame.kind);
        kc.tx.incr();
        kc.bytes.add(charged);

        // Link faults, drawn in a fixed order (reorder slip, garbling,
        // duplication). Reordering keeps the frame on the channel over
        // [start, end] — collisions and CSMA see the truth — but slips the
        // receiver-side processing instant, letting later frames overtake.
        // Garbling degrades the radio signal itself, so every receiver
        // shares the garbled copy; `frame.shadow` keeps the sender's
        // pristine hash so acceptance of a garbled frame stays detectable.
        let mut extra = SimDuration::ZERO;
        let mut duplicated = false;
        if let Some(f) = self.faults {
            if f.reorder > 0.0 && self.fault_rng.chance(f.reorder) {
                extra = SimDuration::from_micros(
                    self.fault_rng.below(f.reorder_max_delay.as_micros().max(1)),
                );
                self.kind_stats_mut(frame.kind).reordered += 1;
            }
            if garble_payload(&mut frame, &f, &mut self.fault_rng) {
                self.kind_stats_mut(frame.kind).corrupted += 1;
            }
            if f.duplicate > 0.0 && self.fault_rng.chance(f.duplicate) {
                duplicated = true;
                self.kind_stats_mut(frame.kind).duplicated += 1;
            }
        }
        self.busy.push((frame.src, end));
        Some(ResolvedTx {
            seq,
            frame,
            start,
            end,
            completes_at: end + self.config.proc_delay + extra,
            duplicated,
        })
    }

    /// Ingests one resolved transmission on the receiver side; returns the
    /// local handle to pass to [`Medium::deliver`] and the completion
    /// instant to schedule it at.
    pub fn ingest(&mut self, rtx: ResolvedTx) -> (u64, Timestamp) {
        let horizon = self.prune_horizon;
        let now = rtx.start;
        // Unresolved windows must survive until their delivery step,
        // however late that happens.
        self.windows
            .retain(|w| !w.resolved || w.end + horizon > now);
        let local = self.next_local;
        self.next_local += 1;
        let completes_at = rtx.completes_at;
        self.windows.push(Window {
            local,
            key: rtx.key(),
            start: rtx.start,
            end: rtx.end,
            frame: rtx.frame,
            duplicated: rtx.duplicated,
            resolved: false,
        });
        (local, completes_at)
    }

    /// The receiver side: resolves the per-receiver outcomes of ingested
    /// transmission `local` for **owned** receivers only, at (or after)
    /// its completion instant. Collisions and half-duplex come from the
    /// ingested windows; fades are keyed draws and burst chains
    /// per-receiver streams, so a skipped receiver consumes zero
    /// randomness (the [module docs](self) discipline).
    ///
    /// `tx_lost` is *not* tallied here: [`DeliveryReport::heard`] says
    /// whether any owned receiver got the frame, and whoever holds every
    /// receiver's answer settles it with [`Medium::note_lost`].
    ///
    /// # Panics
    ///
    /// Panics when `local` is unknown or already delivered.
    pub fn deliver(&mut self, local: u64) -> DeliveryReport {
        let Medium {
            config,
            neighbors,
            stats,
            partition,
            owned,
            windows,
            overlapping,
            fade_rng,
            burst,
            delivery_log,
            outcome_pool,
            outcome_allocs,
            ..
        } = self;
        let partition = partition.as_deref();
        let idx = windows
            .iter()
            .position(|w| w.local == local && !w.resolved)
            .expect("unknown or already-resolved transmission");
        windows[idx].resolved = true;
        let (key, start, end, frame, duplicated) = {
            let w = &windows[idx];
            (w.key, w.start, w.end, w.frame.clone(), w.duplicated)
        };
        let src = frame.src;
        // Only windows overlapping this one in time can destroy it at a
        // receiver; collect their sources once, in ingestion order, instead
        // of rescanning every window per receiver.
        overlapping.clear();
        overlapping.extend(
            windows
                .iter()
                .filter(|o| o.frame.src != src && o.start < end && start < o.end)
                .map(|o| o.frame.src),
        );
        let mut outcomes = outcome_pool.pop().unwrap_or_else(|| {
            *outcome_allocs += 1;
            Vec::new()
        });
        let receivers = &neighbors[src.index()];
        outcomes.reserve(receivers.len());
        // Tally per-kind stats locally and fold them into the BTreeMap once
        // at the end, rather than one map lookup per receiver.
        let mut tally = KindStats::default();
        for &v in receivers {
            if !owned[v.index()] {
                continue;
            }
            let mut outcome = if severed(partition, src, v) {
                DeliveryOutcome::PartitionDrop
            } else {
                // Collision / half-duplex: the first overlapping window
                // that `v` sent or can hear.
                let mut o = DeliveryOutcome::Delivered;
                for &osrc in overlapping.iter() {
                    if osrc == v {
                        o = DeliveryOutcome::HalfDuplex;
                        break;
                    }
                    if neighbors[osrc.index()].binary_search(&v).is_ok()
                        && !severed(partition, osrc, v)
                    {
                        o = DeliveryOutcome::Collided;
                        break;
                    }
                }
                o
            };
            if outcome == DeliveryOutcome::Delivered
                && fade_rng.indexed(fade_mix(key, v)).chance(config.base_loss)
            {
                outcome = DeliveryOutcome::Faded;
            }
            // The Gilbert–Elliott chain advances once per arrival
            // opportunity and can turn a surviving delivery into a burst
            // loss.
            if let Some((model, chains)) = burst.as_mut() {
                if outcome != DeliveryOutcome::PartitionDrop {
                    let chain = &mut chains[v.index()];
                    let flip = if chain.bad {
                        model.p_bad_to_good
                    } else {
                        model.p_good_to_bad
                    };
                    if chain.rng.chance(flip) {
                        chain.bad = !chain.bad;
                    }
                    let loss = if chain.bad {
                        model.loss_bad
                    } else {
                        model.loss_good
                    };
                    if outcome == DeliveryOutcome::Delivered && chain.rng.chance(loss) {
                        outcome = DeliveryOutcome::BurstFaded;
                    }
                }
            }
            match outcome {
                DeliveryOutcome::Delivered => {
                    tally.rx += 1;
                    if let Some(log) = delivery_log.as_mut() {
                        log.push((end, src, v));
                    }
                }
                DeliveryOutcome::Collided => tally.collided += 1,
                DeliveryOutcome::HalfDuplex => tally.half_duplex += 1,
                DeliveryOutcome::Faded => tally.faded += 1,
                DeliveryOutcome::BurstFaded => tally.burst_faded += 1,
                DeliveryOutcome::PartitionDrop => tally.partition_dropped += 1,
            }
            outcomes.push((v, outcome));
        }
        let heard = tally.rx > 0;
        stats
            .per_kind
            .entry(frame.kind.0)
            .or_default()
            .absorb(&tally);
        DeliveryReport {
            key,
            frame,
            outcomes,
            duplicated,
            heard,
        }
    }

    /// Settles one transmission as heard intact by no receiver at all —
    /// the paper's message-loss metric (`tx_lost`, `net.k<kind>.lost`).
    pub fn note_lost(&mut self, kind: FrameKind) {
        self.kind_stats_mut(kind).tx_lost += 1;
        self.kind_counters(kind).lost.incr();
    }

    /// Hands a delivery report's outcome buffer back for reuse, so the next
    /// [`Medium::deliver`] call pops it instead of allocating. Optional —
    /// skipping it only costs one allocation per broadcast.
    pub fn recycle(&mut self, report: DeliveryReport) {
        let mut buf = report.outcomes;
        if self.outcome_pool.len() < OUTCOME_POOL_CAP {
            buf.clear();
            self.outcome_pool.push(buf);
        }
    }

    /// Fresh outcome-buffer allocations `deliver` has made so far. With
    /// recycling in steady state this stays pinned at the number of reports
    /// simultaneously in flight (one, for the event-driven network stack).
    #[must_use]
    pub fn outcome_buffer_allocs(&self) -> u64 {
        self.outcome_allocs
    }

    /// A snapshot of the channel statistics so far.
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn kind_stats_mut(&mut self, kind: FrameKind) -> &mut KindStats {
        self.stats.per_kind.entry(kind.0).or_default()
    }
}

/// Whether an active partition mask severs the link `a`↔`b`.
fn severed(partition: Option<&[u8]>, a: NodeId, b: NodeId) -> bool {
    partition.is_some_and(|g| g[a.index()] != g[b.index()])
}

impl std::fmt::Debug for Medium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Medium")
            .field("nodes", &self.neighbors.len())
            .field("comm_radius", &self.config.comm_radius)
            .field("busy", &self.busy.len())
            .field("in_flight", &self.windows.len())
            .field("total_tx", &self.stats.total_tx)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use envirotrack_world::geometry::Point;

    fn line_deployment(n: u32, spacing: f64) -> Deployment {
        Deployment::from_positions(
            (0..n)
                .map(|i| Point::new(f64::from(i) * spacing, 0.0))
                .collect(),
        )
    }

    fn lossless(comm_radius: f64) -> RadioConfig {
        RadioConfig::default()
            .with_comm_radius(comm_radius)
            .with_base_loss(0.0)
    }

    fn frame(src: u32) -> Frame {
        Frame::broadcast(NodeId(src), FrameKind(1), Bytes::from_static(&[0u8; 20]))
    }

    /// One monolithic send: resolve at `now`, ingest straight back. Returns
    /// the local handle and completion instant, or `None` on a MAC drop.
    fn send(m: &mut Medium, now: Timestamp, src: u32) -> Option<(u64, Timestamp)> {
        let seq = m.stats().total_tx + m.stats().sum(|k| k.mac_dropped);
        m.resolve(now, seq, frame(src)).map(|rtx| m.ingest(rtx))
    }

    /// One monolithic delivery step: deliver, then settle "heard by
    /// nobody" — the medium owns every receiver, so its answer is final.
    fn complete(m: &mut Medium, local: u64) -> DeliveryReport {
        let report = m.deliver(local);
        if !report.heard {
            m.note_lost(report.frame.kind);
        }
        report
    }

    #[test]
    fn epoch_latency_lower_bounds_every_frame() {
        let cfg = RadioConfig::default();
        // MICA defaults: a 25-byte minimum frame is 200 bits at 50 kb/s
        // (4 ms), plus the 2 ms receive-processing delay.
        assert_eq!(cfg.min_tx_airtime(), SimDuration::from_millis(4));
        assert_eq!(cfg.epoch_latency(), SimDuration::from_millis(6));
        // Any concrete frame takes at least the minimum airtime, so no
        // delivery can complete within the epoch window of its request.
        let empty = Frame::broadcast(NodeId(0), FrameKind(1), Bytes::new());
        assert_eq!(cfg.tx_time(&empty), cfg.min_tx_airtime());
        assert!(cfg.tx_time(&frame(1)) >= cfg.min_tx_airtime());
    }

    #[test]
    fn neighbor_lists_follow_the_disk() {
        let d = line_deployment(5, 1.0);
        let m = Medium::new(&d, lossless(1.5), &SimRng::seed_from(1));
        assert_eq!(m.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(m.neighbors(NodeId(2)), &[NodeId(1), NodeId(3)]);
        assert!(m.in_range(NodeId(0), NodeId(1)));
        assert!(!m.in_range(NodeId(0), NodeId(2)));
    }

    #[test]
    fn clean_broadcast_reaches_all_neighbors() {
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let (tx, completes_at) = send(&mut m, Timestamp::ZERO, 1).unwrap();
        assert!(completes_at > Timestamp::ZERO);
        let report = complete(&mut m, tx);
        let delivered: Vec<NodeId> = report.delivered().collect();
        assert_eq!(delivered, vec![NodeId(0), NodeId(2)]);
        assert!(report.heard);
        let ks = m.stats().kind(FrameKind(1));
        assert_eq!(ks.tx, 1);
        assert_eq!(ks.rx, 2);
        assert_eq!(ks.tx_lost, 0);
    }

    #[test]
    fn link_faults_garble_but_never_resize_the_charge() {
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(3));
        m.set_link_faults(Some(LinkFaults {
            flip_per_byte: 1.0, // every byte flips one bit: certain corruption
            truncate: 0.0,
            duplicate: 1.0,
            reorder: 0.0,
            reorder_max_delay: SimDuration::ZERO,
        }));
        let pristine = frame(1).payload.to_vec();
        assert_eq!(m.stats().kind(FrameKind(1)).bytes_on_air, 0);
        let (tx, _) = send(&mut m, Timestamp::ZERO, 1).unwrap();
        let report = complete(&mut m, tx);
        assert_ne!(report.frame.payload.to_vec(), pristine);
        assert!(!report.frame.payload_is_pristine());
        assert_eq!(report.frame.payload.len(), pristine.len());
        assert!(report.duplicated);
        let ks = m.stats().kind(FrameKind(1));
        assert_eq!(ks.corrupted, 1);
        assert_eq!(ks.duplicated, 1);
        // Airtime was charged at resolve from the pristine wire length.
        assert_eq!(ks.bytes_on_air, (18 + 7 + 20) as u64);
    }

    #[test]
    fn truncation_shortens_the_payload_only() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(5));
        m.set_link_faults(Some(LinkFaults {
            flip_per_byte: 0.0,
            truncate: 1.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_max_delay: SimDuration::ZERO,
        }));
        let (tx, _) = send(&mut m, Timestamp::ZERO, 0).unwrap();
        let report = complete(&mut m, tx);
        assert!(report.frame.payload.len() < 20, "truncation must cut bytes");
        assert_eq!(report.frame.wire_len, 20, "charged length is pristine");
        assert!(!report.frame.payload_is_pristine());
        assert_eq!(m.stats().kind(FrameKind(1)).corrupted, 1);
    }

    #[test]
    fn reordering_delays_processing_but_not_airtime() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(7));
        let (_, base) = send(&mut m, Timestamp::ZERO, 0).unwrap();
        let busy = m.stats().busy_time;
        let mut m2 = Medium::new(&d, lossless(5.0), &SimRng::seed_from(7));
        m2.set_link_faults(Some(LinkFaults {
            flip_per_byte: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            reorder: 1.0,
            reorder_max_delay: SimDuration::from_millis(30),
        }));
        let (delayed, delayed_at) = send(&mut m2, Timestamp::ZERO, 0).unwrap();
        assert!(delayed_at >= base);
        assert_eq!(m2.stats().busy_time, busy, "channel occupancy unchanged");
        assert_eq!(m2.stats().kind(FrameKind(1)).reordered, 1);
        // The delayed report still resolves normally.
        assert!(complete(&mut m2, delayed).frame.payload_is_pristine());
    }

    #[test]
    fn fault_injection_leaves_other_rng_streams_untouched() {
        // Two media, same seed, one with an (impossible-to-fire) injector
        // installed: the delivery outcomes must be identical because faults
        // draw from their own forked stream.
        let d = line_deployment(8, 1.0);
        let mut cfg = lossless(3.0);
        cfg.base_loss = 0.4;
        let mut a = Medium::new(&d, cfg.clone(), &SimRng::seed_from(11));
        let mut b = Medium::new(&d, cfg, &SimRng::seed_from(11));
        b.set_link_faults(Some(LinkFaults {
            flip_per_byte: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_max_delay: SimDuration::ZERO,
        }));
        for src in 0..4u32 {
            let now = Timestamp::ZERO + SimDuration::from_millis(u64::from(src) * 50);
            let (ta, _) = send(&mut a, now, src).unwrap();
            let (tb, _) = send(&mut b, now, src).unwrap();
            assert_eq!(complete(&mut a, ta).outcomes, complete(&mut b, tb).outcomes);
        }
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let cfg = RadioConfig::default();
        // (18 preamble + 7 header + 20 payload) * 8 bits / 50_000 bps = 7.2 ms
        assert_eq!(cfg.tx_time(&frame(0)), SimDuration::from_micros(7200));
    }

    #[test]
    fn hidden_terminal_collides_at_the_common_receiver() {
        // 0 --- 1 --- 2 with radius 1.5: 0 and 2 cannot hear each other.
        let d = line_deployment(3, 1.0);
        let mut cfg = lossless(1.5);
        cfg.csma = true; // CSMA cannot prevent hidden-terminal collisions
        let mut m = Medium::new(&d, cfg, &SimRng::seed_from(1));
        let (t0, _) = send(&mut m, Timestamp::ZERO, 0).unwrap();
        let (t2, _) = send(&mut m, Timestamp::ZERO, 2).unwrap();
        let r0 = complete(&mut m, t0);
        let r2 = complete(&mut m, t2);
        assert_eq!(r0.outcomes, vec![(NodeId(1), DeliveryOutcome::Collided)]);
        assert_eq!(r2.outcomes, vec![(NodeId(1), DeliveryOutcome::Collided)]);
        assert_eq!(m.stats().kind(FrameKind(1)).tx_lost, 2);
    }

    #[test]
    fn csma_serialises_in_range_transmitters() {
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let (t0, at0) = send(&mut m, Timestamp::ZERO, 0).unwrap();
        // Node 2 hears node 0, so its send defers past t0's end.
        let (t2, at2) = send(&mut m, Timestamp::ZERO, 2).unwrap();
        assert!(at2 > at0);
        let r0 = complete(&mut m, t0);
        assert_eq!(
            r0.delivered().count(),
            2,
            "deferral must avoid the collision"
        );
        assert_eq!(complete(&mut m, t2).delivered().count(), 2);
    }

    #[test]
    fn half_duplex_blocks_simultaneous_send_and_receive() {
        // Disable CSMA so both nodes transmit simultaneously.
        let d = line_deployment(2, 1.0);
        let mut cfg = lossless(5.0);
        cfg.csma = false;
        let mut m = Medium::new(&d, cfg, &SimRng::seed_from(1));
        let (t0, _) = send(&mut m, Timestamp::ZERO, 0).unwrap();
        let (t1, _) = send(&mut m, Timestamp::ZERO, 1).unwrap();
        let r0 = complete(&mut m, t0);
        let r1 = complete(&mut m, t1);
        assert_eq!(r0.outcomes, vec![(NodeId(1), DeliveryOutcome::HalfDuplex)]);
        assert_eq!(r1.outcomes, vec![(NodeId(0), DeliveryOutcome::HalfDuplex)]);
    }

    #[test]
    fn saturation_drops_frames_past_the_defer_bound() {
        let d = line_deployment(2, 1.0);
        let mut cfg = lossless(5.0);
        cfg.max_defer = SimDuration::from_micros(10);
        let mut m = Medium::new(&d, cfg, &SimRng::seed_from(1));
        assert!(send(&mut m, Timestamp::ZERO, 0).is_some());
        assert!(send(&mut m, Timestamp::ZERO, 1).is_none());
        let ks = m.stats().kind(FrameKind(1));
        assert_eq!(ks.mac_dropped, 1);
        assert!(ks.tx_loss_ratio() > 0.0);
    }

    #[test]
    fn keyed_fading_loses_roughly_the_configured_fraction() {
        let d = line_deployment(2, 1.0);
        let cfg = RadioConfig::default()
            .with_comm_radius(5.0)
            .with_base_loss(0.2);
        let mut m = Medium::new(&d, cfg, &SimRng::seed_from(7));
        let mut now = Timestamp::ZERO;
        let mut delivered = 0u32;
        let trials = 2000;
        for _ in 0..trials {
            let (tx, at) = send(&mut m, now, 0).unwrap();
            now = at + SimDuration::from_millis(1);
            delivered += complete(&mut m, tx).delivered().count() as u32;
        }
        let rate = 1.0 - f64::from(delivered) / f64::from(trials);
        assert!((rate - 0.2).abs() < 0.04, "fade rate {rate}");
    }

    #[test]
    fn isolated_transmitter_counts_as_lost() {
        let d = line_deployment(2, 10.0); // out of range of each other
        let mut m = Medium::new(&d, lossless(1.0), &SimRng::seed_from(1));
        let (tx, _) = send(&mut m, Timestamp::ZERO, 0).unwrap();
        let r = complete(&mut m, tx);
        assert!(r.outcomes.is_empty());
        assert!(!r.heard);
        assert_eq!(m.stats().kind(FrameKind(1)).tx_lost, 1);
    }

    #[test]
    fn utilization_accumulates_bits() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let (tx, _) = send(&mut m, Timestamp::ZERO, 0).unwrap();
        let _ = complete(&mut m, tx);
        let bits = frame(0).on_air_bits();
        assert_eq!(m.stats().total_bits, bits);
        let util = m
            .stats()
            .link_utilization(SimDuration::from_secs(1), 50_000);
        assert!((util - bits as f64 / 50_000.0).abs() < 1e-12);
    }

    #[test]
    fn partition_severs_cross_group_links_and_counts_drops() {
        let d = line_deployment(4, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        // Nodes {0,1} vs {2,3}.
        m.set_partition(Some(vec![0, 0, 1, 1]));
        assert!(m.partitioned(NodeId(1), NodeId(2)));
        assert!(!m.partitioned(NodeId(0), NodeId(1)));
        let (tx, _) = send(&mut m, Timestamp::ZERO, 1).unwrap();
        let r = complete(&mut m, tx);
        let delivered: Vec<NodeId> = r.delivered().collect();
        assert_eq!(delivered, vec![NodeId(0)]);
        assert!(r
            .outcomes
            .iter()
            .any(|(n, o)| *n == NodeId(2) && *o == DeliveryOutcome::PartitionDrop));
        let ks = m.stats().kind(FrameKind(1));
        assert_eq!(ks.partition_dropped, 2);
        assert!(ks.pair_loss_ratio() > 0.0);

        // Healing restores the full broadcast.
        m.set_partition(None);
        let (tx, _) = send(&mut m, Timestamp::from_secs(1), 1).unwrap();
        assert_eq!(complete(&mut m, tx).delivered().count(), 3);
    }

    #[test]
    fn partition_blocks_carrier_sensing_across_the_cut() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        m.set_partition(Some(vec![0, 1]));
        let (_, at0) = send(&mut m, Timestamp::ZERO, 0).unwrap();
        // Node 1 cannot hear node 0 across the cut, so it does not defer.
        let (_, at1) = send(&mut m, Timestamp::ZERO, 1).unwrap();
        assert_eq!(at0, at1);
    }

    #[test]
    fn burst_loss_is_bursty_and_counted_separately() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(11));
        m.set_burst_loss(Some(GilbertElliott::default()));
        let mut now = Timestamp::ZERO;
        let mut lost_runs = Vec::new();
        let mut run = 0u32;
        for _ in 0..2000 {
            let (tx, at) = send(&mut m, now, 0).unwrap();
            now = at + SimDuration::from_millis(1);
            if complete(&mut m, tx).heard {
                if run > 0 {
                    lost_runs.push(run);
                }
                run = 0;
            } else {
                run += 1;
            }
        }
        let ks = m.stats().kind(FrameKind(1));
        assert_eq!(ks.faded, 0, "base loss is zero; only bursts may lose");
        assert!(ks.burst_faded > 100, "bursts must actually lose frames");
        // Burst losses cluster: mean lost-run length well above 1.
        let mean = f64::from(lost_runs.iter().sum::<u32>()) / lost_runs.len().max(1) as f64;
        assert!(mean > 1.5, "losses should be correlated, mean run {mean}");
        // Removing the model restores a clean channel.
        m.set_burst_loss(None);
        let before = m.stats().kind(FrameKind(1)).rx;
        for _ in 0..50 {
            let (tx, at) = send(&mut m, now, 0).unwrap();
            now = at + SimDuration::from_millis(1);
            let _ = complete(&mut m, tx);
        }
        assert_eq!(m.stats().kind(FrameKind(1)).rx, before + 50);
    }

    #[test]
    fn steady_state_deliveries_allocate_exactly_one_outcome_buffer() {
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let mut now = Timestamp::ZERO;
        for _ in 0..200 {
            let (tx, at) = send(&mut m, now, 1).unwrap();
            now = at + SimDuration::from_millis(1);
            let report = complete(&mut m, tx);
            assert_eq!(report.outcomes.len(), 2);
            m.recycle(report);
        }
        assert_eq!(
            m.outcome_buffer_allocs(),
            1,
            "200 recycled broadcasts must reuse a single buffer"
        );
    }

    #[test]
    fn zero_receiver_deliveries_never_build_a_receiver_list() {
        // Two nodes far out of range: every broadcast lands on nobody.
        let d = line_deployment(2, 10.0);
        let mut m = Medium::new(&d, lossless(1.0), &SimRng::seed_from(1));
        let mut now = Timestamp::ZERO;
        for _ in 0..50 {
            let (tx, at) = send(&mut m, now, 0).unwrap();
            now = at + SimDuration::from_millis(1);
            let report = complete(&mut m, tx);
            assert!(report.outcomes.is_empty());
            assert_eq!(
                report.outcomes.capacity(),
                0,
                "the zero-receiver path must not reserve heap space"
            );
            m.recycle(report);
        }
        assert_eq!(m.outcome_buffer_allocs(), 1);
    }

    #[test]
    fn delivery_log_records_intact_pairs_only() {
        let d = line_deployment(3, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        m.set_delivery_log(true);
        m.set_partition(Some(vec![0, 0, 1]));
        let (tx, _) = send(&mut m, Timestamp::ZERO, 1).unwrap();
        let _ = complete(&mut m, tx);
        let log = m.take_delivery_log();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].1, log[0].2), (NodeId(1), NodeId(0)));
        assert!(m.take_delivery_log().is_empty(), "drain empties the log");
    }

    /// Drives one frame sequence through two setups built from the same
    /// seed — one all-owning medium, and a transmit-only medium feeding two
    /// receiver-side media that split the field — in completion order, and
    /// returns every report of each, plus the summed statistics. The split
    /// side settles "heard by nobody" from the union of its halves.
    #[allow(clippy::type_complexity)]
    fn run_both(
        cfg: &RadioConfig,
        chaos: bool,
    ) -> (Vec<DeliveryReport>, Vec<DeliveryReport>, NetStats, NetStats) {
        let n = 12u32;
        let d = line_deployment(n, 1.0);
        let rng = SimRng::seed_from(17);
        let mut whole = Medium::new(&d, cfg.clone(), &rng);
        let mut sched = Medium::new(&d, cfg.clone(), &rng);
        let mut halves = [
            Medium::new(&d, cfg.clone(), &rng),
            Medium::new(&d, cfg.clone(), &rng),
        ];
        halves[0].set_owned((0..n).map(|i| i % 3 != 0).collect());
        halves[1].set_owned((0..n).map(|i| i % 3 == 0).collect());
        if chaos {
            let faults = LinkFaults {
                flip_per_byte: 0.02,
                truncate: 0.1,
                duplicate: 0.2,
                reorder: 0.3,
                reorder_max_delay: SimDuration::from_millis(30),
            };
            let cut: Vec<u8> = (0..n).map(|i| u8::from(i >= 8)).collect();
            for m in [&mut whole, &mut sched] {
                m.set_link_faults(Some(faults));
                m.set_partition(Some(cut.clone()));
            }
            for m in std::iter::once(&mut whole).chain(&mut halves) {
                m.set_burst_loss(Some(GilbertElliott::default()));
                m.set_partition(Some(cut.clone()));
            }
        }
        let mut traffic = SimRng::seed_from(3);
        let mut pending: Vec<(Timestamp, u64, u64)> = Vec::new();
        let (mut one, mut split) = (Vec::new(), Vec::new());
        let mut now = Timestamp::ZERO;
        for seq in 0..400u64 {
            // Every completion due before the next request runs first, as
            // the kernel would order them.
            now += SimDuration::from_micros(traffic.below(6_000));
            pending.sort_unstable();
            while pending.first().is_some_and(|p| p.0 <= now) {
                let (_, a, b) = pending.remove(0);
                let r = whole.deliver(a);
                if !r.heard {
                    whole.note_lost(r.frame.kind);
                }
                one.push(r);
                let (r0, r1) = (halves[0].deliver(b), halves[1].deliver(b));
                if !r0.heard && !r1.heard {
                    sched.note_lost(r0.frame.kind);
                }
                let mut merged = r0.clone();
                merged.outcomes.extend(r1.outcomes);
                merged.outcomes.sort_by_key(|(v, _)| *v);
                merged.heard |= r1.heard;
                split.push(merged);
            }
            let src = NodeId(traffic.below(u64::from(n)) as u32);
            let f = Frame::broadcast(src, FrameKind(1), Bytes::from(vec![7u8; 12]));
            let a = whole.resolve(now, seq, f.clone());
            let b = sched.resolve(now, seq, f);
            assert_eq!(a.is_some(), b.is_some(), "MAC drops must agree");
            if let (Some(a), Some(b)) = (a, b) {
                let (la, at) = whole.ingest(a);
                let (lb, _) = halves[0].ingest(b.clone());
                assert_eq!(halves[1].ingest(b).0, lb);
                pending.push((at, la, lb));
            }
        }
        let mut summed = sched.stats().clone();
        summed.absorb(halves[0].stats());
        summed.absorb(halves[1].stats());
        (one, split, whole.stats().clone(), summed)
    }

    #[test]
    fn split_ownership_replays_the_all_owning_channel_exactly() {
        let mut cfg = lossless(2.5);
        cfg.base_loss = 0.2;
        // A tight defer bound, so the MAC drop path runs too.
        cfg.max_defer = SimDuration::from_millis(15);
        for chaos in [false, true] {
            let (one, split, whole, summed) = run_both(&cfg, chaos);
            assert_eq!(one.len(), split.len());
            for (a, b) in one.iter().zip(&split) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.outcomes, b.outcomes, "chaos={chaos}");
                assert_eq!(a.frame.payload, b.frame.payload);
                assert_eq!((a.duplicated, a.heard), (b.duplicated, b.heard));
            }
            assert_eq!(format!("{whole:?}"), format!("{summed:?}"), "chaos={chaos}");
            // Every mechanism actually fired, so the pin is not vacuous.
            let bites = [
                whole.sum(|k| k.faded),
                whole.sum(|k| k.collided),
                whole.sum(|k| k.tx_lost),
                whole.sum(|k| k.mac_dropped),
            ];
            assert!(bites.iter().all(|&c| c > 0), "chaos={chaos}: {bites:?}");
            if chaos {
                let bites = [
                    whole.sum(|k| k.burst_faded),
                    whole.sum(|k| k.partition_dropped),
                    whole.sum(|k| k.corrupted),
                    whole.sum(|k| k.duplicated),
                    whole.sum(|k| k.reordered),
                ];
                assert!(bites.iter().all(|&c| c > 0), "{bites:?}");
            }
        }
    }

    #[test]
    fn outcomes_ignore_unrouted_traffic_and_ownership() {
        // An all-owning medium and a subset one (owning only nodes 0..=2,
        // routed only node 1's traffic) must agree byte-for-byte on every
        // owned outcome — the invariant partitioned routing rests on —
        // with fading and burst chains both active.
        let d = line_deployment(6, 1.0);
        let mut cfg = lossless(1.5);
        cfg.base_loss = 0.4;
        let rng = SimRng::seed_from(11);
        let mut sched = Medium::new(&d, cfg.clone(), &rng);
        let mut full = Medium::new(&d, cfg.clone(), &rng);
        let mut sub = Medium::new(&d, cfg, &rng);
        sub.set_owned(vec![true, true, true, false, false, false]);
        full.set_burst_loss(Some(GilbertElliott::default()));
        sub.set_burst_loss(Some(GilbertElliott::default()));
        let mut now = Timestamp::ZERO;
        let mut seq = 0u64;
        for _ in 0..50 {
            let a = sched.resolve(now, seq, frame(1)).unwrap();
            seq += 1;
            let b = sched
                .resolve(now + SimDuration::from_millis(10), seq, frame(4))
                .unwrap();
            seq += 1;
            let (fa, _) = full.ingest(a.clone());
            let (fb, _) = full.ingest(b);
            let (sa, _) = sub.ingest(a);
            let rf = full.deliver(fa);
            let _ = full.deliver(fb);
            let rs = sub.deliver(sa);
            let full_owned: Vec<_> = rf
                .outcomes
                .iter()
                .filter(|(n, _)| n.0 <= 2)
                .copied()
                .collect();
            assert_eq!(full_owned, rs.outcomes);
            now += SimDuration::from_millis(20);
        }
        // Both loss models actually fired, so the pin is not vacuous.
        let ks = full.stats().kind(FrameKind(1));
        assert!(ks.faded > 0, "fades must bite");
        assert!(ks.burst_faded > 0, "burst chains must bite");
    }

    #[test]
    #[should_panic(expected = "unknown or already-resolved")]
    fn double_delivery_is_a_bug() {
        let d = line_deployment(2, 1.0);
        let mut m = Medium::new(&d, lossless(5.0), &SimRng::seed_from(1));
        let (tx, _) = send(&mut m, Timestamp::ZERO, 0).unwrap();
        let _ = complete(&mut m, tx);
        // Push time far enough that pruning discards the window.
        let _ = send(&mut m, Timestamp::from_secs(100), 0).unwrap();
        let _ = m.deliver(tx);
    }
}
