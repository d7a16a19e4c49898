//! Determinism pin for the neighbor table: the table a built world's
//! medium (and router) uses on a fixed-seed 2k-node field must equal the
//! all-pairs oracle, list for list and in the same order. The table feeds
//! every downstream stream (delivery order, RNG draws, timers), so any
//! difference here would move every run built on it.

use envirotrack_bench::harness::tracker_program;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_world::grid::brute_force_neighbor_lists;
use envirotrack_world::scenario::ScaleScenario;

const SEED: u64 = 7;

#[test]
fn fixed_seed_2k_node_medium_table_equals_the_brute_force_oracle() {
    let scenario = ScaleScenario {
        nodes: 2_000,
        targets: 2,
        speed_hops_per_s: 1.0,
        seed: SEED,
        ..ScaleScenario::default()
    }
    .build();
    let oracle = brute_force_neighbor_lists(&scenario.deployment, 2.5);
    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg.radio.with_comm_radius(2.5);
    let engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        net_cfg,
        SEED,
    );
    let table = engine.world().neighbor_table();
    assert!(
        table.iter().any(|list| !list.is_empty()),
        "the pin must cover a connected field, not isolated nodes"
    );
    assert!(
        table[..] == oracle[..],
        "the medium's neighbor table diverged from the brute-force oracle"
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
