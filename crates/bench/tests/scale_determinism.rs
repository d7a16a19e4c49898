//! Determinism pin for the two observably-equivalent neighbor-table scans:
//! a fixed-seed 2k-node tracking run must be *byte-identical* — telemetry
//! JSONL and the run record — whether the neighbor table is built by the
//! grid or by the all-pairs scan. The table feeds every downstream stream
//! (delivery order, RNG draws, timers), so any ordering difference would
//! show up here long before it corrupted a golden digest.

use envirotrack_bench::harness::tracker_program;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::report::telemetry_to_jsonl;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::grid::NeighborStrategy;
use envirotrack_world::scenario::ScaleScenario;

/// Bounded horizon: the pin runs in the debug profile under
/// `cargo test`, so keep the event count modest while still crossing
/// group formation, heartbeats and member reports.
const HORIZON: SimDuration = SimDuration::from_secs(3);
const SEED: u64 = 7;

fn run(strategy: NeighborStrategy) -> (String, String) {
    let scenario = ScaleScenario {
        nodes: 2_000,
        targets: 2,
        speed_hops_per_s: 1.0,
        seed: SEED,
        ..ScaleScenario::default()
    }
    .build();
    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg.radio.with_comm_radius(2.5);
    net_cfg.radio.topology = strategy;
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        net_cfg,
        SEED,
    );
    engine.run_until(Timestamp::ZERO + HORIZON);
    let world = engine.world();
    (
        telemetry_to_jsonl(world.telemetry()),
        world.run_record(SEED, HORIZON, 0).to_json(),
    )
}

#[test]
fn fixed_seed_2k_node_run_is_byte_identical_under_grid_and_brute_force() {
    let (grid_telemetry, grid_record) = run(NeighborStrategy::Grid);
    let (brute_telemetry, brute_record) = run(NeighborStrategy::BruteForce);
    assert!(
        grid_telemetry.contains("group.hb"),
        "the pin must cover live protocol traffic, not an idle field"
    );
    assert_eq!(
        grid_telemetry, brute_telemetry,
        "telemetry JSONL diverged between grid and brute-force topologies"
    );
    assert_eq!(
        grid_record, brute_record,
        "run record diverged between grid and brute-force topologies"
    );
}

/// The CRC trailer rides inside the binary frame, so it is part of the
/// charged airtime: dropping the 4 trailer bytes from [`Frame::wire_len`]
/// would shift every frame's timing.
///
/// [`Frame::wire_len`]: envirotrack_net::packet::Frame::wire_len
#[test]
fn airtime_charges_include_the_crc_trailer() {
    use envirotrack_core::context::{ContextLabel, ContextTypeId};
    use envirotrack_core::wire::{crc, Heartbeat, Message};
    use envirotrack_net::packet::Frame;
    use envirotrack_world::field::NodeId;
    use envirotrack_world::geometry::Point;

    let msg = Message::Heartbeat(Heartbeat {
        label: ContextLabel {
            type_id: ContextTypeId(0),
            creator: NodeId(3),
            seq: 1,
        },
        leader: NodeId(3),
        leader_pos: Point::new(1.0, 2.0),
        weight: 900,
        hb_seq: 5,
        ttl: 1,
        state: None,
    });
    let bin = msg.encode();
    let (body, trailer) = bin.split_at(bin.len() - crc::TRAILER_BYTES);
    assert_eq!(trailer, crc::crc32(body).to_le_bytes());

    // The frame the network builds carries the encoded bytes, trailer
    // included, and is charged for all of them.
    let frame = Frame::broadcast(NodeId(3), msg.kind(), bin.clone());
    assert_eq!(usize::from(frame.wire_len), bin.len(), "trailer missing from airtime");
    assert_eq!(frame.size_bytes(), Frame::HEADER_BYTES + bin.len());
}
