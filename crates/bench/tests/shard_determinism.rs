//! Shard-count determinism: a sharded run's merged output is a pure
//! function of the scenario — the shard count, thread scheduling, barrier
//! batching, and interest routing must never show through. This extends
//! the byte-identical contract of `sweep_determinism.rs` (worker count) to
//! the lock-step sharded kernel in `envirotrack_core::shard`, including
//! under a chaos plan that partitions the field, injects link faults and
//! burst loss, skews a clock, and crashes a node mid-run. One shard is the
//! full-replay reference: every interest range is `(0, 0)` there, so every
//! resolved transmission reaches the only shard. Interest-routed runs at
//! 2/4/8 shards must match it byte-for-byte while replaying strictly less.

use envirotrack_bench::harness::tracker_program;
use envirotrack_core::fault::FaultEvent;
use envirotrack_core::network::NetworkConfig;
use envirotrack_core::shard::{run_sharded, IntentStats, MediumMode};
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

fn config() -> NetworkConfig {
    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg.radio.with_comm_radius(2.5);
    net_cfg
}

/// Runs the fixed-seed 2k-node tracking field under `shards` shard
/// threads and returns the full observable output — merged telemetry
/// JSONL plus the run-record JSON line — and the replay-work accounting.
fn run_with(
    shards: usize,
    faults: &[(Timestamp, FaultEvent)],
    net_cfg: &NetworkConfig,
) -> (String, String, IntentStats) {
    let scenario = ScaleScenario {
        nodes: NODES,
        targets: 2,
        speed_hops_per_s: 1.0,
        seed: SEED,
        ..ScaleScenario::default()
    }
    .build();
    let out = run_sharded(
        &tracker_program(),
        &scenario.deployment,
        &scenario.environment,
        net_cfg,
        SEED,
        shards,
        Timestamp::ZERO + HORIZON,
        faults,
        MediumMode::Partitioned,
    );
    (out.telemetry_jsonl, out.record.to_json(), out.intents)
}

fn run(shards: usize, faults: &[(Timestamp, FaultEvent)]) -> (String, String, IntentStats) {
    run_with(shards, faults, &config())
}

fn halves() -> Vec<u8> {
    (0..NODES).map(|i| u8::from(i >= NODES / 2)).collect()
}

/// Partitions the field in half, garbles the link layer, switches on
/// Gilbert–Elliott burst loss, skews a clock, and crashes a node mid-run —
/// every fault class `run_sharded` quantizes to barriers: channel faults
/// (installed on the central scheduler and every shard's executor) and
/// node faults (applied on the owning shard only). Burst loss in
/// particular exercises the per-receiver chain streams that keep
/// interest routing honest.
fn chaos_plan() -> Vec<(Timestamp, FaultEvent)> {
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
        (at(100), FaultEvent::LinkFaultsOn(harsh)),
        (
            at(300),
            FaultEvent::ClockRate {
                node: NodeId(41),
                rate: 1.1,
            },
        ),
        (at(400), FaultEvent::Partition(halves())),
        (at(600), FaultEvent::BurstLossOn(GilbertElliott::default())),
        (at(800), FaultEvent::Crash(NodeId(40))),
        (at(1_800), FaultEvent::BurstLossOff),
        (at(2_000), FaultEvent::Reboot(NodeId(40))),
        (at(2_400), FaultEvent::Heal),
        (at(2_600), FaultEvent::LinkFaultsOff),
    ]
}

#[test]
fn fixed_seed_2k_node_run_is_byte_identical_at_1_2_4_and_8_shards() {
    let (one_tel, one_rec, _) = run(1, &[]);
    assert!(
        one_tel.contains("net.k1.tx"),
        "the pin must cover live protocol traffic, not an idle field"
    );
    assert!(
        one_tel.contains("shard.intents.tail_dropped"),
        "the tail accounting must be part of the compared bytes"
    );
    for shards in [2usize, 4, 8] {
        let (tel, rec, _) = run(shards, &[]);
        assert_eq!(
            one_tel, tel,
            "telemetry JSONL diverged between 1 and {shards} shards"
        );
        assert_eq!(
            one_rec, rec,
            "run record diverged between 1 and {shards} shards"
        );
    }
}

#[test]
fn chaos_plan_stays_byte_identical_across_shard_counts() {
    let plan = chaos_plan();
    let (one_tel, one_rec, _) = run(1, &plan);
    for shards in [2usize, 4, 8] {
        let (tel, rec, _) = run(shards, &plan);
        assert_eq!(
            one_tel, tel,
            "chaos telemetry diverged between 1 and {shards} shards"
        );
        assert_eq!(
            one_rec, rec,
            "chaos run record diverged between 1 and {shards} shards"
        );
    }
    // The plan must actually bite: a faulted run cannot match the clean
    // stream, or the quantized faults silently never fired.
    let (clean_tel, _, _) = run(1, &[]);
    assert_ne!(one_tel, clean_tel, "the chaos plan left no trace");
}

/// `Heal` kicks one anti-entropy round from every live directory replica.
/// Each shard holds a full replica of the world, so only the owning shard
/// may send a replica's round: were every shard to kick every replica,
/// `dir.gossip.tx` and the DirSync traffic would grow with the shard
/// count.
#[test]
fn heal_kicks_gossip_from_owned_replicas_only() {
    let mut net_cfg = config();
    net_cfg.middleware = net_cfg
        .middleware
        .with_directory(true)
        .with_directory_replicas(2);
    let plan = vec![
        (at(400), FaultEvent::Partition(halves())),
        (at(2_000), FaultEvent::Heal),
    ];
    let (one_tel, one_rec, _) = run_with(1, &plan, &net_cfg);
    assert!(
        one_tel
            .lines()
            .any(|l| l.contains("\"name\":\"dir.gossip.tx\"") && !l.ends_with("\"value\":0}")),
        "the heal kick must send DirSync rounds"
    );
    for shards in [2usize, 4] {
        let (tel, rec, _) = run_with(shards, &plan, &net_cfg);
        assert_eq!(
            one_tel, tel,
            "heal-kick telemetry diverged at {shards} shards"
        );
        assert_eq!(
            one_rec, rec,
            "heal-kick run record diverged at {shards} shards"
        );
    }
}

/// A shard that panics must fail the whole run, not leave the
/// orchestrator waiting on it forever. An out-of-range clock rate panics
/// on the owning shard only, so the other shards stay alive and blocked.
#[test]
fn a_panicking_shard_fails_the_run_instead_of_hanging() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let bad = [(
            at(100),
            FaultEvent::ClockRate {
                node: NodeId(0),
                rate: 3.0,
            },
        )];
        let run = std::panic::catch_unwind(|| run(4, &bad));
        tx.send(run.is_err())
            .expect("the test thread waits for the verdict");
    });
    let panicked = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("run_sharded hung after a shard panicked");
    assert!(panicked, "an out-of-range clock rate must fail the run");
}

#[test]
fn interest_routing_reduces_replay_work_and_reuses_buffers() {
    let shards = 4usize;
    let (_, _, part) = run(shards, &[]);
    assert!(part.merged > 0, "a busy field must produce intents");
    assert!(part.routed > 0, "interest routing must route intents");
    // The acceptance bound: total replayed intents strictly below the
    // N-fold replay of the merged batches.
    assert!(
        part.routed < shards as u64 * part.merged,
        "interest routing saved nothing: {} replayed vs {} merged × {shards}",
        part.routed,
        part.merged
    );
    // Routed and skipped must account for every (resolved tx, shard) pair.
    assert_eq!(part.routed + part.skipped, shards as u64 * part.resolved);
    // Buffer-reuse pins: the merged batch, the per-shard outboxes, and the
    // resolved route buffers are recycled, not reallocated per epoch.
    assert!(
        part.batch_allocs <= 1,
        "merged batch must be reused: {part:?}"
    );
    assert!(
        part.outbox_allocs <= shards as u64,
        "outbox buffers must be reused: {part:?}"
    );
    assert!(
        part.resolved_buf_allocs <= 2 * shards as u64,
        "route buffers must be reused: {part:?}"
    );
}
