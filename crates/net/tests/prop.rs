//! Property-based tests for the radio medium and geographic routing.

use bytes::Bytes;
use envirotrack_net::medium::{DeliveryOutcome, Medium, RadioConfig};
use envirotrack_net::packet::{Frame, FrameKind};
use envirotrack_net::routing::GeoRouter;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use testkit::prelude::*;

/// The delivery-range and statistics invariants, checked for one concrete
/// configuration. Shared between the property below and the saved
/// regression case.
fn check_delivery_invariants(
    cols: u32,
    rows: u32,
    comm_radius: f64,
    loss: f64,
    sends: &[(u32, u64)],
    seed: u64,
) {
    let field = Deployment::grid(cols, rows, 1.0);
    let n = field.len() as u32;
    let cfg = RadioConfig::default()
        .with_comm_radius(comm_radius)
        .with_base_loss(loss);
    let mut medium = Medium::new(&field, cfg, &SimRng::seed_from(seed));
    let mut now = Timestamp::ZERO;
    let mut pending = Vec::new();
    for (seq, &(src, gap_ms)) in sends.iter().enumerate() {
        now += SimDuration::from_millis(gap_ms);
        let frame = Frame::broadcast(NodeId(src % n), FrameKind(1), Bytes::from_static(&[0; 8]));
        if let Some(rtx) = medium.resolve(now, seq as u64, frame) {
            let (tx, completes_at) = medium.ingest(rtx);
            pending.push((completes_at, tx, NodeId(src % n)));
        }
    }
    // Deliver in completion order.
    pending.sort_by_key(|&(completes_at, tx, _)| (completes_at, tx));
    let mut rx_pairs = 0u64;
    let mut lost_pairs = 0u64;
    let mut lost_txs = 0u64;
    for (_, tx, src) in pending {
        let report = medium.deliver(tx);
        if !report.heard {
            medium.note_lost(report.frame.kind);
            lost_txs += 1;
        }
        for (receiver, outcome) in &report.outcomes {
            let d = field.position(src).distance_to(field.position(*receiver));
            prop_assert!(d <= comm_radius + 1e-9, "delivered beyond the radio range");
            prop_assert_ne!(*receiver, src, "no self-delivery");
            match outcome {
                DeliveryOutcome::Delivered => rx_pairs += 1,
                _ => lost_pairs += 1,
            }
        }
    }
    let ks = medium.stats().kind(FrameKind(1));
    prop_assert_eq!(ks.rx, rx_pairs);
    prop_assert_eq!(ks.collided + ks.faded + ks.half_duplex, lost_pairs);
    prop_assert_eq!(ks.tx_lost, lost_txs);
    prop_assert!(ks.tx_lost <= ks.tx);
    let ratio = ks.pair_loss_ratio();
    prop_assert!((0.0..=1.0).contains(&ratio));
}

/// The failing case proptest once saved to `prop.proptest-regressions`
/// for `deliveries_stay_in_range_and_stats_balance`, preserved verbatim
/// as an explicit regression test across the testkit port.
#[test]
fn saved_regression_two_by_two_grid_short_radius() {
    check_delivery_invariants(2, 2, 0.5, 0.0, &[(0, 0), (0, 856), (0, 402)], 0);
}

prop_test! {
    /// Deliveries only ever reach nodes within the communication radius,
    /// and the per-kind statistics add up.
    #[test]
    fn deliveries_stay_in_range_and_stats_balance(
        cols in 2u32..6,
        rows in 2u32..6,
        comm_radius in 0.5..4.0f64,
        loss in 0.0..0.5f64,
        sends in prop::collection::vec((0u32..36, 0u64..1000u64), 1..30),
        seed: u64,
    ) {
        check_delivery_invariants(cols, rows, comm_radius, loss, &sends, seed);
    }

    /// With zero loss and serialized (non-overlapping) transmissions,
    /// every in-range receiver gets every frame.
    #[test]
    fn quiet_lossless_channel_delivers_everything(
        sends in prop::collection::vec(0u32..9, 1..20),
        seed: u64,
    ) {
        let field = Deployment::grid(3, 3, 1.0);
        let cfg = RadioConfig::default().with_comm_radius(5.0).with_base_loss(0.0);
        let mut medium = Medium::new(&field, cfg, &SimRng::seed_from(seed));
        let mut now = Timestamp::ZERO;
        for (seq, &src) in sends.iter().enumerate() {
            let frame = Frame::broadcast(NodeId(src), FrameKind(2), Bytes::from_static(&[0; 4]));
            let rtx = medium.resolve(now, seq as u64, frame).expect("channel idle");
            let (tx, completes_at) = medium.ingest(rtx);
            // Wait until well past completion before delivering and sending
            // the next one.
            now = completes_at + SimDuration::from_millis(50);
            let report = medium.deliver(tx);
            prop_assert!(report.heard);
            prop_assert_eq!(report.outcomes.len(), 8);
            prop_assert!(report
                .outcomes
                .iter()
                .all(|(_, o)| *o == DeliveryOutcome::Delivered));
        }
    }

    /// Greedy routing: every hop strictly decreases the distance to the
    /// destination, and the path ends at a node no neighbour beats.
    #[test]
    fn greedy_routes_decrease_distance_monotonically(
        cols in 2u32..10,
        rows in 2u32..10,
        start in 0u32..100,
        dx in -20.0..20.0f64,
        dy in -20.0..20.0f64,
        comm_radius in 1.0..3.0f64,
    ) {
        let field = Deployment::grid(cols, rows, 1.0);
        let start = NodeId(start % field.len() as u32);
        let dest = Point::new(dx, dy);
        let router = GeoRouter::new(&field, comm_radius);
        let path = router.route(start, dest).expect("grids have no voids under greedy");
        prop_assert_eq!(path[0], start);
        for w in path.windows(2) {
            let d0 = router.position(w[0]).distance_to(dest);
            let d1 = router.position(w[1]).distance_to(dest);
            prop_assert!(d1 < d0, "hop did not approach the destination");
            prop_assert!(
                router.position(w[0]).distance_to(router.position(w[1])) <= comm_radius + 1e-9,
                "hop exceeds the radio range"
            );
        }
        let last = *path.last().unwrap();
        prop_assert!(router.is_home(last, dest));
    }

    /// Frame airtime scales linearly with payload size.
    #[test]
    fn airtime_is_linear_in_size(extra in 0usize..64) {
        let cfg = RadioConfig::default();
        let small = Frame::broadcast(NodeId(0), FrameKind(0), Bytes::from(vec![0u8; 1]));
        let big = Frame::broadcast(NodeId(0), FrameKind(0), Bytes::from(vec![0u8; 1 + extra]));
        let dt = cfg.tx_time(&big).as_micros() as i64 - cfg.tx_time(&small).as_micros() as i64;
        let expected = (extra as i64) * 8 * 1_000_000 / 50_000;
        prop_assert!((dt - expected).abs() <= 1, "airtime delta {dt} vs {expected}");
    }
}
