//! Shard-count and medium-mode determinism: a sharded run's merged output
//! is a pure function of the scenario — the shard count, thread
//! scheduling, barrier batching, and interest routing must never show
//! through. This extends the byte-identical contract of
//! `sweep_determinism.rs` (worker count) to the lock-step sharded kernel in
//! `envirotrack_core::shard`, including under a chaos plan that partitions
//! the field, injects link faults and burst loss, and crashes a node
//! mid-run. The replicated medium (every resolved transmission routed to
//! every shard) is the full-replay reference; the partitioned medium
//! (interest-routed delivery) must match it byte-for-byte at 1/2/4/8
//! shards while replaying strictly less.

use envirotrack_bench::harness::tracker_program;
use envirotrack_core::network::NetworkConfig;
use envirotrack_core::shard::{run_sharded, IntentStats, MediumMode, ShardFault};
use envirotrack_net::medium::{GilbertElliott, LinkFaults};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::NodeId;
use envirotrack_world::scenario::ScaleScenario;

/// Bounded horizon: the pin runs in the debug profile under `cargo test`,
/// so keep the event count modest while still crossing group formation,
/// heartbeats and member reports (same envelope as `scale_determinism`).
const HORIZON: SimDuration = SimDuration::from_secs(3);
const SEED: u64 = 7;
const NODES: u32 = 2_000;

fn at(ms: u64) -> Timestamp {
    Timestamp::ZERO + SimDuration::from_millis(ms)
}

/// Runs the fixed-seed 2k-node tracking field under `shards` shard
/// threads and returns the full observable output — merged telemetry
/// JSONL plus the run-record JSON line — and the replay-work accounting.
fn run(
    shards: usize,
    mode: MediumMode,
    faults: &[(Timestamp, ShardFault)],
) -> (String, String, IntentStats) {
    let scenario = ScaleScenario {
        nodes: NODES,
        targets: 2,
        speed_hops_per_s: 1.0,
        seed: SEED,
        ..ScaleScenario::default()
    }
    .build();
    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg.radio.with_comm_radius(2.5);
    let out = run_sharded(
        &tracker_program(),
        &scenario.deployment,
        &scenario.environment,
        &net_cfg,
        SEED,
        shards,
        Timestamp::ZERO + HORIZON,
        faults,
        mode,
    );
    (out.telemetry_jsonl, out.record.to_json(), out.intents)
}

/// Partitions the field in half, garbles the link layer, switches on
/// Gilbert–Elliott burst loss, and crashes a node mid-run — every fault
/// class `run_sharded` quantizes to barriers: channel faults (installed on
/// the central scheduler and every shard's executor) and node faults
/// (applied on the owning shard only). Burst loss in particular exercises
/// the per-receiver chain streams that keep partitioned routing honest.
fn chaos_plan() -> Vec<(Timestamp, ShardFault)> {
    let halves: Vec<u8> = (0..NODES).map(|i| u8::from(i >= NODES / 2)).collect();
    // The short horizon carries only a few dozen frames, so the fault
    // rates are cranked far above the soak profile — a plan that bites
    // nothing would make the cross-shard comparison vacuous (and the
    // `assert_ne` against the clean run fail).
    let harsh = LinkFaults {
        flip_per_byte: 0.02,
        truncate: 0.2,
        duplicate: 0.3,
        reorder: 0.3,
        reorder_max_delay: SimDuration::from_millis(30),
    };
    vec![
        (at(100), ShardFault::LinkFaultsOn(harsh)),
        (at(400), ShardFault::Partition(halves)),
        (at(600), ShardFault::BurstLossOn(GilbertElliott::default())),
        (at(800), ShardFault::Crash(NodeId(40))),
        (at(1_800), ShardFault::BurstLossOff),
        (at(2_000), ShardFault::Revive(NodeId(40))),
        (at(2_400), ShardFault::ClearPartition),
        (at(2_600), ShardFault::LinkFaultsOff),
    ]
}

#[test]
fn fixed_seed_2k_node_run_is_byte_identical_at_1_2_4_and_8_shards() {
    let (one_tel, one_rec, _) = run(1, MediumMode::Replicated, &[]);
    assert!(
        one_tel.contains("net.k1.tx"),
        "the pin must cover live protocol traffic, not an idle field"
    );
    assert!(
        one_tel.contains("shard.intents.tail_dropped"),
        "the tail accounting must be part of the compared bytes"
    );
    for shards in [1usize, 2, 4, 8] {
        let (tel, rec, _) = run(shards, MediumMode::Partitioned, &[]);
        assert_eq!(
            one_tel, tel,
            "telemetry JSONL diverged between replicated@1 and partitioned@{shards}"
        );
        assert_eq!(
            one_rec, rec,
            "run record diverged between replicated@1 and partitioned@{shards}"
        );
    }
    let (tel, rec, _) = run(4, MediumMode::Replicated, &[]);
    assert_eq!(one_tel, tel, "replicated medium diverged between 1 and 4 shards");
    assert_eq!(one_rec, rec, "replicated record diverged between 1 and 4 shards");
}

#[test]
fn chaos_plan_stays_byte_identical_across_shards_and_medium_modes() {
    let plan = chaos_plan();
    let (one_tel, one_rec, _) = run(1, MediumMode::Replicated, &plan);
    for shards in [2usize, 4, 8] {
        let (tel, rec, _) = run(shards, MediumMode::Partitioned, &plan);
        assert_eq!(
            one_tel, tel,
            "chaos telemetry diverged between replicated@1 and partitioned@{shards}"
        );
        assert_eq!(
            one_rec, rec,
            "chaos run record diverged between replicated@1 and partitioned@{shards}"
        );
    }
    let (tel, rec, _) = run(4, MediumMode::Replicated, &plan);
    assert_eq!(one_tel, tel, "chaos replicated medium diverged at 4 shards");
    assert_eq!(one_rec, rec, "chaos replicated record diverged at 4 shards");
    // The plan must actually bite: a faulted run cannot match the clean
    // stream, or the quantized faults silently never fired.
    let (clean_tel, _, _) = run(1, MediumMode::Replicated, &[]);
    assert_ne!(one_tel, clean_tel, "the chaos plan left no trace");
}

#[test]
fn interest_routing_reduces_replay_work_and_reuses_buffers() {
    let shards = 4usize;
    let (_, _, rep) = run(shards, MediumMode::Replicated, &[]);
    let (_, _, part) = run(shards, MediumMode::Partitioned, &[]);
    assert_eq!(
        rep.merged, part.merged,
        "the merged intent stream is mode-independent"
    );
    assert!(part.merged > 0, "a busy field must produce intents");
    assert!(part.routed > 0, "partitioned mode must route intents");
    assert_eq!(rep.routed, 0, "replicated mode never interest-routes");
    assert_eq!(part.broadcast, 0, "partitioned mode never broadcasts");
    // The acceptance bound: total replayed intents strictly below the
    // N-fold replay of the merged batches.
    assert!(
        part.replayed() < shards as u64 * part.merged,
        "interest routing saved nothing: {} replayed vs {} merged × {shards}",
        part.replayed(),
        part.merged
    );
    assert!(
        part.replayed() < rep.replayed(),
        "partitioned ({}) must replay strictly less than replicated ({})",
        part.replayed(),
        rep.replayed()
    );
    // Routed and skipped must account for every (resolved tx, shard) pair.
    assert_eq!(part.routed + part.skipped, shards as u64 * part.resolved);
    // Buffer-reuse pins: the merged batch, the per-shard outboxes, and the
    // resolved route buffers are recycled, not reallocated per epoch.
    for stats in [&rep, &part] {
        assert!(
            stats.batch_allocs <= 1,
            "merged batch must be reused: {stats:?}"
        );
        assert!(
            stats.outbox_allocs <= shards as u64,
            "outbox buffers must be reused: {stats:?}"
        );
        assert!(
            stats.resolved_buf_allocs <= 2 * shards as u64,
            "route buffers must be reused: {stats:?}"
        );
    }
}
