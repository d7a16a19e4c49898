//! Sharded execution: one simulation advanced by several OS threads in
//! lock-step epochs — conservative time-window synchronisation with a
//! partitioned medium.
//!
//! ## Model
//!
//! The field is partitioned into node shards along the spatial grid
//! (`envirotrack_world::grid::shard_assignment`). Every shard thread owns a
//! *complete* replica of the world — full deployment, full radio medium —
//! but only *drives* its owned nodes: bootstrap ticks, timers, and receive
//! dispatch are filtered to owned nodes, so each node's protocol state
//! machine runs on exactly one shard.
//!
//! The only coupling between shards is the radio channel, whose two steps
//! (see `envirotrack_net::medium`'s module docs) run in different places:
//!
//! * **Resolve, centralised.** During an epoch no shard touches the
//!   channel: every transmit request an owned node makes is captured as an
//!   [`OutIntent`] in the shard's outbox. At each epoch barrier the
//!   orchestrator merges all outboxes into one batch sorted by
//!   `(time, src, seq)` — a total order, since `seq` is a per-source
//!   counter — and resolves it exactly once on its own [`Medium`]: CSMA
//!   deferral and backoff, MAC drops, link-fault garbling/duplication/
//!   reorder, and the transmit-side statistics. Each intent is resolved at
//!   `request_time + L`, where `L` is the epoch length
//!   ([`envirotrack_net::medium::RadioConfig::epoch_latency`]): the minimum
//!   frame airtime plus the receive processing delay, a lower bound on how
//!   soon *any* frame could reach *any* receiver's handler.
//! * **Deliver, partitioned.** Each shard's medium owns only the shard's
//!   nodes: it ingests the [`ResolvedTx`]es the orchestrator routes to it
//!   and resolves outcomes for its **owned** receivers only, using keyed
//!   per-pair fade draws and per-receiver burst streams so that skipping a
//!   receiver — or never ingesting an irrelevant transmission — consumes
//!   zero randomness. Each shard reports the keys its receivers heard, and
//!   the orchestrator settles "heard by nobody" from the union.
//!
//! ## Interest routing
//!
//! A transmission from node `s` can only be heard within `comm_radius` of
//! `s`, so only shards owning a grid cell inside that footprint need to
//! ingest it. `envirotrack_world::grid::shard_interest_ranges` precomputes,
//! per source node, the contiguous shard range `[lo, hi]` covering its
//! footprint columns (cell side ≥ radius, so the footprint is confined to
//! the sender's column ± 1; column-monotone shard striping makes the
//! interested set a contiguous range that always contains the sender's own
//! shard). Soundness — every shard owning *any* in-range receiver is in
//! the range — is what keeps a routed subset byte-identical to the full
//! replay: an un-routed transmission could only have produced an empty
//! outcome set on that shard anyway, and skipping it draws nothing.
//! At one shard every range is `(0, 0)`, so the one-shard run *is* the
//! full route-to-all replay: `bench/tests/shard_determinism.rs` pins
//! N shards against it byte-for-byte at 2/4/8 shards, clean and under
//! chaos, and `world/tests/prop.rs` checks range soundness directly.
//!
//! ## Faults
//!
//! Faults use the chaos vocabulary ([`FaultEvent`]) and are quantized to
//! barriers. At a barrier the orchestrator installs each channel fault on
//! its scheduler (transmit side), and every shard applies the same events
//! through [`SensorNetwork::apply_fault`]: channel faults on its own
//! medium (delivery masking, burst chains), node faults only on the
//! owning shard, and `Heal`'s anti-entropy kick only from owned replicas.
//!
//! ## Why the result is shard-count invariant
//!
//! Pick any two events on one shard. Their relative order equals their
//! order in the single-shard run by induction over barriers: bootstrap
//! iterates nodes in id order (skipping non-owned nodes, whose RNG streams
//! are per-node forks and therefore undisturbed), barrier injections ingest
//! a routed subsequence of one globally-resolved batch (same relative
//! order), and handlers are deterministic functions of per-node state plus
//! the delivered frame. No handler reads another node's runtime state, so
//! interleaving *across* shards within an epoch cannot be observed. All
//! channel randomness is either resolved once centrally or keyed per
//! `(transmission, receiver)` pair, so no shard's draws depend on what the
//! others were routed. Telemetry counters and histograms are commutative
//! sums over per-node activity partitioned by ownership; channel counters
//! are derived at merge time from the combined scheduler + shard
//! statistics.
//!
//! A monolithic world (`build_engine`) runs the same channel core with
//! zero latency and every node owned, so the only thing that makes a
//! sharded run its *own* golden family is the uniform `+L` pipeline
//! latency (and the barrier-quantized faults that come with epochs): it is
//! byte-identical across shard counts, not to the monolithic golden.
//! `kernel.events` is stripped from the merged telemetry (event counts are
//! not partition-additive), and trace events are excluded entirely.

use std::collections::HashSet;
use std::sync::{mpsc, Arc};

use envirotrack_net::medium::{Medium, NetStats, ResolvedTx, TxKey};
use envirotrack_net::packet::{Frame, FrameKind};
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::Timestamp;
use envirotrack_telemetry::{LogLinearHistogram, Telemetry};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::grid::shard_interest_ranges;
use envirotrack_world::sensing::Environment;

use crate::api::Program;
use crate::fault::FaultEvent;
use crate::network::{NetworkConfig, SensorNetwork};
use crate::report::{telemetry_to_jsonl, RunRecord};

/// One captured transmit request, exchanged across shards at epoch
/// barriers. `(at, src, seq)` is a total order over all intents of a run:
/// `seq` counts each source's requests, so two intents can never tie.
#[derive(Debug, Clone)]
pub struct OutIntent {
    /// When the owning node requested the transmission.
    pub at: Timestamp,
    /// The transmitting node.
    pub src: NodeId,
    /// Per-source request counter (breaks `(at, src)` ties).
    pub seq: u64,
    /// The frame to put on the channel.
    pub frame: Frame,
}

impl OutIntent {
    /// The global merge key: `(time, source id, per-source seq)`.
    #[must_use]
    pub fn key(&self) -> (Timestamp, u32, u64) {
        (self.at, self.src.0, self.seq)
    }
}

/// How resolved transmissions are routed to shards. Interest routing is
/// the only mode; the type stays so existing `run_sharded` callers keep
/// compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediumMode {
    /// Each resolved transmission goes only to the shards whose owned
    /// cells its radio footprint can reach (plus the sender's owner).
    Partitioned,
}

/// Replay-work and buffer-reuse accounting for one sharded run. These are
/// *diagnostics across the sharding machinery* — `routed`/`skipped`
/// depend on the shard count by construction, so they live here and in
/// BENCH output, never in the byte-compared merged telemetry.
/// (`tail_dropped` *is* invariant and is also surfaced as the
/// `shard.intents.tail_dropped` counter.)
#[derive(Debug, Clone, Copy, Default)]
pub struct IntentStats {
    /// Intents collected across all barriers (the merged batch total).
    pub merged: u64,
    /// Intents that survived MAC admission on the central scheduler.
    pub resolved: u64,
    /// Shard replay deliveries routed by interest: the channel work
    /// interest routing keeps below `shards × resolved`.
    pub routed: u64,
    /// Shard deliveries skipped as out-of-footprint.
    pub skipped: u64,
    /// Intents requested after the last barrier and never exchanged (the
    /// final partial epoch; counted, asserted fresh, and shard-count
    /// invariant).
    pub tail_dropped: u64,
    /// Times the orchestrator's merged batch buffer grew from nothing
    /// (buffer-reuse pin: 1 in steady state).
    pub batch_allocs: u64,
    /// Per-shard outbox buffer allocations summed over shards
    /// (buffer-reuse pin: ≤ shards in steady state).
    pub outbox_allocs: u64,
    /// Route-buffer allocations for resolved batches (buffer-reuse pin:
    /// ≤ 2 × shards; shards, in steady state).
    pub resolved_buf_allocs: u64,
}

/// Per-world sharding state, attached to a `SensorNetwork` built with
/// [`SensorNetwork::build_engine_sharded`].
#[derive(Debug)]
pub struct ShardState {
    outbox: Vec<OutIntent>,
    next_seq: Vec<u64>,
    /// Keys of ingested transmissions at least one owned receiver heard
    /// intact; drained each epoch for the orchestrator's `tx_lost` verdict.
    delivered: Vec<TxKey>,
    /// Emptied resolved-batch buffers waiting to ride back to the
    /// orchestrator for reuse.
    resolved_pool: Vec<Vec<ResolvedTx>>,
    outbox_allocs: u64,
}

impl ShardState {
    /// Fresh state for one shard of a run over `nodes` nodes.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        ShardState {
            outbox: Vec::new(),
            next_seq: vec![0; nodes],
            delivered: Vec::new(),
            resolved_pool: Vec::new(),
            outbox_allocs: 0,
        }
    }

    /// Records that an owned receiver heard transmission `key` intact.
    pub fn note_delivered(&mut self, key: TxKey) {
        self.delivered.push(key);
    }

    /// Takes the keys recorded since the last drain.
    pub fn drain_delivered(&mut self) -> Vec<TxKey> {
        std::mem::take(&mut self.delivered)
    }

    /// Captures one transmit request into the outbox, stamping the next
    /// per-source sequence number.
    pub fn push(&mut self, at: Timestamp, src: NodeId, frame: Frame) {
        if self.outbox.capacity() == 0 {
            self.outbox_allocs += 1;
        }
        let seq = self.next_seq[src.index()];
        self.next_seq[src.index()] += 1;
        self.outbox.push(OutIntent {
            at,
            src,
            seq,
            frame,
        });
    }

    /// Takes the accumulated intents (the outbox is left empty).
    pub fn drain(&mut self) -> Vec<OutIntent> {
        std::mem::take(&mut self.outbox)
    }

    /// Hands a drained outbox buffer back so the next epoch's pushes reuse
    /// its capacity instead of growing from nothing.
    pub fn restore(&mut self, buf: Vec<OutIntent>) {
        debug_assert!(buf.is_empty(), "restored outbox must be drained");
        debug_assert!(self.outbox.is_empty(), "no pushes between drain and restore");
        if buf.capacity() > self.outbox.capacity() {
            self.outbox = buf;
        }
    }

    /// Stashes an emptied resolved-batch buffer for the ride back.
    pub fn stash_resolved(&mut self, buf: Vec<ResolvedTx>) {
        debug_assert!(buf.is_empty(), "stashed resolved buffer must be drained");
        self.resolved_pool.push(buf);
    }

    /// Pops one stashed resolved-batch buffer, if any.
    pub fn take_spare_resolved(&mut self) -> Option<Vec<ResolvedTx>> {
        self.resolved_pool.pop()
    }

    /// Outbox buffer allocations so far (the reuse pin).
    #[must_use]
    pub fn outbox_allocs(&self) -> u64 {
        self.outbox_allocs
    }
}

/// The merged result of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Run record with event-log counts summed across shards and channel
    /// fields recomputed from the combined scheduler + shard statistics.
    pub record: RunRecord,
    /// Merged telemetry rendered by `telemetry_to_jsonl`: counters then
    /// histograms, name-sorted; `kernel.events` stripped, traces excluded,
    /// channel counters derived from the combined statistics.
    pub telemetry_jsonl: String,
    /// Kernel events processed, summed over shards (diagnostic only — not
    /// part of the byte-compared output, since the ingested-transmission
    /// count varies with routing).
    pub events_processed: u64,
    /// Replay-work and buffer-reuse accounting (not byte-compared; the
    /// perf story of the partitioned medium).
    pub intents: IntentStats,
}

/// One shard's contribution to the merge.
struct ShardOutput {
    record: RunRecord,
    counters: Vec<(String, u64)>,
    hists: Vec<(String, LogLinearHistogram)>,
    events: u64,
    net: NetStats,
    delivered: Vec<TxKey>,
    tail_dropped: u64,
    outbox_allocs: u64,
}

enum Cmd {
    /// Run to the barrier (inclusive) and send the epoch response back.
    Advance(Timestamp),
    /// Schedule the barrier injection: faults first, then ingestion of the
    /// routed resolved batch. `outbox` returns this shard's drained buffer
    /// for reuse.
    Inject {
        barrier: Timestamp,
        resolved: Vec<ResolvedTx>,
        faults: Vec<FaultEvent>,
        outbox: Vec<OutIntent>,
    },
    /// Run to the horizon and send the final output back. `last_barrier`
    /// lets the shard assert that every tail intent genuinely postdates
    /// the final exchange (the off-by-one guard).
    Finish {
        horizon: Timestamp,
        last_barrier: Option<Timestamp>,
    },
}

enum Resp {
    Epoch {
        outbox: Vec<OutIntent>,
        delivered: Vec<TxKey>,
        spare: Option<Vec<ResolvedTx>>,
    },
    Done(Box<ShardOutput>),
}

/// Runs one simulation split over `shards` threads in lock-step epochs and
/// merges the result. With identical inputs the output is byte-identical
/// for every `shards >= 1`. `faults` are quantized to the first barrier at
/// or after their nominal time; barriers run strictly before `horizon`, so
/// a fault after the last barrier never fires. `mode` has one value,
/// [`MediumMode::Partitioned`].
///
/// # Panics
///
/// Panics if `shards` is zero or a shard thread panics: each shard answers
/// on its own channel, so a dead shard's closed channel fails the
/// orchestrator's next receive instead of leaving it waiting forever.
#[must_use]
#[allow(clippy::too_many_arguments)] // one call site family; a params struct would just rename them
pub fn run_sharded(
    program: &Arc<Program>,
    deployment: &Deployment,
    environment: &Environment,
    config: &NetworkConfig,
    seed: u64,
    shards: usize,
    horizon: Timestamp,
    faults: &[(Timestamp, FaultEvent)],
    mode: MediumMode,
) -> ShardedRun {
    assert!(shards >= 1, "at least one shard is required");
    let MediumMode::Partitioned = mode;
    let epoch = config.radio.epoch_latency();
    let mut schedule: Vec<(Timestamp, FaultEvent)> = faults.to_vec();
    schedule.sort_by_key(|(t, _)| *t);

    // The central transmit side: one medium resolving every merged intent
    // exactly once, and the per-source interest ranges that bound each
    // transmission's audience.
    let sched_rng = SimRng::seed_from(seed).fork("shard-scheduler");
    let mut scheduler = Medium::new(deployment, config.radio.clone(), &sched_rng);
    let interest = shard_interest_ranges(deployment, config.radio.comm_radius, shards);

    std::thread::scope(|scope| {
        let mut cmd_txs = Vec::with_capacity(shards);
        let mut resp_rxs = Vec::with_capacity(shards);
        for idx in 0..shards {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            let (resp, resp_rx) = mpsc::channel::<Resp>();
            cmd_txs.push(cmd_tx);
            resp_rxs.push(resp_rx);
            let program = Arc::clone(program);
            let deployment = deployment.clone();
            let environment = environment.clone();
            let config = config.clone();
            scope.spawn(move || {
                let mut engine = SensorNetwork::build_engine_sharded(
                    program,
                    deployment,
                    environment,
                    config,
                    seed,
                    shards,
                    idx,
                );
                while let Ok(cmd) = cmd_rx.recv() {
                    match cmd {
                        Cmd::Advance(barrier) => {
                            engine.run_until(barrier);
                            let outbox = engine.world_mut().drain_shard_outbox();
                            let delivered = engine.world_mut().drain_shard_delivered();
                            let spare = engine.world_mut().take_shard_spare();
                            resp.send(Resp::Epoch {
                                outbox,
                                delivered,
                                spare,
                            })
                            .expect("the orchestrator outlives its shards");
                        }
                        Cmd::Inject {
                            barrier,
                            resolved,
                            faults,
                            outbox,
                        } => {
                            engine.world_mut().restore_shard_outbox(outbox);
                            // `run_until(barrier)` already consumed every
                            // event at or before the barrier, so this event
                            // is strictly the next to execute: the faults
                            // and the ingestion happen at a fixed point in
                            // the event order, independent of shard count.
                            engine.kernel_mut().schedule_at(
                                barrier,
                                move |w: &mut SensorNetwork, k| {
                                    for f in &faults {
                                        w.apply_fault(k, f);
                                    }
                                    w.inject_shard_resolved(k, resolved);
                                },
                            );
                        }
                        Cmd::Finish {
                            horizon,
                            last_barrier,
                        } => {
                            engine.run_until(horizon);
                            // Intents from the final partial epoch never
                            // reach the channel — identically at every
                            // shard count. Count them, and assert each one
                            // genuinely postdates the last exchange so a
                            // barrier off-by-one cannot silently eat sends.
                            let tail = engine.world_mut().drain_shard_outbox();
                            if let Some(lb) = last_barrier {
                                for intent in &tail {
                                    assert!(
                                        intent.at > lb,
                                        "intent at {} from {} missed the {} barrier",
                                        intent.at,
                                        intent.src,
                                        lb
                                    );
                                }
                            }
                            let delivered = engine.world_mut().drain_shard_delivered();
                            let world = engine.world();
                            let record =
                                world.run_record(seed, horizon - Timestamp::ZERO, 0);
                            let (counters, hists) = world.telemetry().with_registry(|r| {
                                (
                                    r.counters().map(|(n, v)| (n.to_owned(), v)).collect(),
                                    r.histograms()
                                        .map(|(n, h)| (n.to_owned(), h.clone()))
                                        .collect(),
                                )
                            });
                            let out = ShardOutput {
                                record,
                                counters,
                                hists,
                                events: engine.kernel().events_processed(),
                                net: world.net_stats().clone(),
                                delivered,
                                tail_dropped: tail.len() as u64,
                                outbox_allocs: world.shard_outbox_allocs(),
                            };
                            resp.send(Resp::Done(Box::new(out)))
                                .expect("the orchestrator outlives its shards");
                            break;
                        }
                    }
                }
            });
        }

        let mut intents = IntentStats::default();
        let mut batch: Vec<OutIntent> = Vec::new();
        let mut outboxes: Vec<Vec<OutIntent>> = (0..shards).map(|_| Vec::new()).collect();
        let mut routes: Vec<Vec<ResolvedTx>> = (0..shards).map(|_| Vec::new()).collect();
        let mut route_pool: Vec<Vec<ResolvedTx>> = Vec::new();
        let mut delivered: HashSet<TxKey> = HashSet::new();
        // Resolved transmissions awaiting their "heard by nobody" verdict.
        let mut pending: Vec<(Timestamp, TxKey, FrameKind)> = Vec::new();
        let mut next_fault = 0usize;
        let mut last_barrier: Option<Timestamp> = None;
        let mut barrier = Timestamp::ZERO + epoch;
        while barrier < horizon {
            for tx in &cmd_txs {
                tx.send(Cmd::Advance(barrier)).expect("shard thread alive");
            }
            batch.clear();
            for (idx, rx) in resp_rxs.iter().enumerate() {
                match rx.recv().expect("shard thread alive") {
                    Resp::Epoch {
                        outbox,
                        delivered: keys,
                        spare,
                    } => {
                        if batch.capacity() == 0 && !outbox.is_empty() {
                            intents.batch_allocs += 1;
                        }
                        let mut outbox = outbox;
                        batch.append(&mut outbox);
                        outboxes[idx] = outbox;
                        delivered.extend(keys);
                        if let Some(buf) = spare {
                            route_pool.push(buf);
                        }
                    }
                    Resp::Done(..) => unreachable!("no shard finishes mid-run"),
                }
            }
            // (time, src, seq) is a total order: the merged batch is the
            // same regardless of which shard's outbox arrived first.
            batch.sort_by_key(OutIntent::key);
            intents.merged += batch.len() as u64;
            // Everything completing by this barrier has had its deliveries
            // reported; settle the "heard by nobody" verdicts.
            settle_lost(&mut scheduler, &mut pending, &mut delivered, barrier);
            let mut due = Vec::new();
            while next_fault < schedule.len() && schedule[next_fault].0 <= barrier {
                due.push(schedule[next_fault].1.clone());
                next_fault += 1;
            }
            // Channel faults bite the transmit side here, at the same
            // quantized barrier the shards apply them (receiver side).
            for f in &due {
                f.apply_to_channel(&mut scheduler);
            }
            for buf in &mut routes {
                if buf.capacity() == 0 {
                    *buf = route_pool.pop().unwrap_or_else(|| {
                        intents.resolved_buf_allocs += 1;
                        Vec::new()
                    });
                }
            }
            // Resolve the merged batch centrally, in merged order, and
            // route each resolved transmission to its interested shards.
            for intent in batch.drain(..) {
                let at = intent.at + epoch;
                let (lo, hi) = interest[intent.src.index()];
                let Some(rtx) = scheduler.resolve(at, intent.seq, intent.frame) else {
                    continue; // MAC drop, decided once for everyone
                };
                intents.resolved += 1;
                pending.push((rtx.completes_at, rtx.key(), rtx.frame.kind));
                intents.routed += (hi - lo + 1) as u64;
                intents.skipped += (shards - (hi - lo + 1)) as u64;
                for buf in &mut routes[lo..=hi] {
                    buf.push(rtx.clone());
                }
            }
            for (idx, tx) in cmd_txs.iter().enumerate() {
                tx.send(Cmd::Inject {
                    barrier,
                    resolved: std::mem::take(&mut routes[idx]),
                    faults: due.clone(),
                    outbox: std::mem::take(&mut outboxes[idx]),
                })
                .expect("shard thread alive");
            }
            last_barrier = Some(barrier);
            barrier += epoch;
        }
        for tx in &cmd_txs {
            tx.send(Cmd::Finish {
                horizon,
                last_barrier,
            })
            .expect("shard thread alive");
        }
        let outputs: Vec<ShardOutput> = resp_rxs
            .iter()
            .map(|rx| match rx.recv().expect("shard thread alive") {
                Resp::Done(out) => *out,
                Resp::Epoch { .. } => unreachable!("every shard got Finish"),
            })
            .collect();
        // Final loss verdicts: everything completing by the horizon, with
        // the tail deliveries the shards reported at Finish.
        for out in &outputs {
            delivered.extend(out.delivered.iter().copied());
        }
        settle_lost(&mut scheduler, &mut pending, &mut delivered, horizon);
        // The whole-run channel view: transmit side from the scheduler,
        // receiver side summed over shards (ownership partitions every
        // (transmission, receiver) pair onto exactly one shard).
        let mut net = scheduler.stats().clone();
        for out in &outputs {
            net.absorb(&out.net);
            intents.tail_dropped += out.tail_dropped;
            intents.outbox_allocs += out.outbox_allocs;
        }
        merge_outputs(outputs, &net, intents)
    })
}

/// Settles the "heard by nobody" verdict for every pending transmission
/// completing at or before `up_to`: any whose key no shard reported in
/// `delivered` counts as `tx_lost` on the orchestrator's medium.
fn settle_lost(
    scheduler: &mut Medium,
    pending: &mut Vec<(Timestamp, TxKey, FrameKind)>,
    delivered: &mut HashSet<TxKey>,
    up_to: Timestamp,
) {
    pending.retain(|&(completes_at, key, kind)| {
        if completes_at > up_to {
            return true;
        }
        if !delivered.remove(&key) {
            scheduler.note_lost(kind);
        }
        false
    });
}

/// Merges per-shard outputs: counters and histograms sum (ownership
/// partitions node activity), channel counters and the run record's
/// channel fields are derived from the combined scheduler + shard
/// statistics, and the run record sums its event-log counts.
fn merge_outputs(outputs: Vec<ShardOutput>, net: &NetStats, intents: IntentStats) -> ShardedRun {
    let telemetry = Telemetry::new();
    let mut events = 0u64;
    for out in &outputs {
        events += out.events;
        for (name, v) in &out.counters {
            // Kernel event counts vary with routing (each ingested
            // transmission is one event); they are diagnostic, not output.
            if name != "kernel.events" {
                telemetry.add(name, *v);
            }
        }
        for (name, h) in &out.hists {
            telemetry.merge_histogram(name, h);
        }
    }
    // Channel counters, derived from the combined statistics exactly where
    // a monolithic medium would have recorded them (shards never resolve or
    // settle, so no shard registers these names). Presence matches the
    // lazy registration: a kind appears once it transmits or MAC-drops.
    for (kind, ks) in &net.per_kind {
        telemetry.add(&format!("net.k{kind}.tx"), ks.tx);
        telemetry.add(&format!("net.k{kind}.lost"), ks.tx_lost);
        telemetry.add(&format!("net.k{kind}.mac_drop"), ks.mac_dropped);
        telemetry.add(&format!("net.k{kind}.bytes"), ks.bytes_on_air);
    }
    // Invariant across shard counts (every tail intent is captured by
    // exactly one owner), so it belongs in the compared bytes.
    telemetry.add("shard.intents.tail_dropped", intents.tail_dropped);

    let mut record = outputs[0].record.clone();
    for out in &outputs[1..] {
        record.labels_created += out.record.labels_created;
        record.labels_suppressed += out.record.labels_suppressed;
        record.handovers += out.record.handovers;
        record.base_reports += out.record.base_reports;
        record.mtp_delivered += out.record.mtp_delivered;
        record.mtp_dropped += out.record.mtp_dropped;
        record.violations += out.record.violations;
    }
    // Channel fields come from the combined view, not any single replica.
    record.hb_loss = net.kind(crate::wire::kinds::HEARTBEAT).tx_loss_ratio();
    record.report_loss = net.kind(crate::wire::kinds::REPORT).tx_loss_ratio();
    record.pair_loss = net.pair_loss_ratio();
    record.burst_faded = net.sum(|k| k.burst_faded);
    record.partition_dropped = net.sum(|k| k.partition_dropped);
    record.mac_dropped = net.sum(|k| k.mac_dropped);
    ShardedRun {
        record,
        telemetry_jsonl: telemetry_to_jsonl(&telemetry),
        events_processed: events,
        intents,
    }
}
