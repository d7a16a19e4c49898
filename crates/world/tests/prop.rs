//! Property-based tests for the physical-environment substrate.

use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::Deployment;
use envirotrack_world::geometry::{Aabb, Point};
use envirotrack_world::grid::{
    brute_force_neighbor_lists, neighbor_lists, shard_assignment, shard_interest_ranges,
};
use envirotrack_world::target::{Falloff, Trajectory};
use testkit::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-100.0..100.0f64, -100.0..100.0f64).prop_map(|(x, y)| Point::new(x, y))
}

prop_test! {
    /// A trajectory never moves faster than its declared speed.
    #[test]
    fn trajectory_respects_its_speed_limit(
        pts in prop::collection::vec(arb_point(), 2..6),
        speed in 0.1..20.0f64,
        t0 in 0u64..100_000_000,
        dt in 1u64..5_000_000,
    ) {
        let traj = Trajectory::waypoints(pts, speed);
        let a = traj.position_at(Timestamp::from_micros(t0));
        let b = traj.position_at(Timestamp::from_micros(t0 + dt));
        let max_move = speed * dt as f64 / 1e6;
        prop_assert!(
            a.distance_to(b) <= max_move + 1e-6,
            "moved {} in {}us at speed {}", a.distance_to(b), dt, speed
        );
    }

    /// A trajectory stays within the bounding box of its waypoints.
    #[test]
    fn trajectory_stays_in_waypoint_hull_bbox(
        pts in prop::collection::vec(arb_point(), 2..6),
        speed in 0.1..20.0f64,
        t in 0u64..1_000_000_000,
    ) {
        let traj = Trajectory::waypoints(pts.clone(), speed);
        let p = traj.position_at(Timestamp::from_micros(t));
        let min_x = pts.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let max_x = pts.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        let min_y = pts.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
        let max_y = pts.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p.x >= min_x - 1e-9 && p.x <= max_x + 1e-9);
        prop_assert!(p.y >= min_y - 1e-9 && p.y <= max_y + 1e-9);
    }

    /// Looped trajectories are periodic with period `path_length / speed`.
    #[test]
    fn looped_trajectories_are_periodic(
        pts in prop::collection::vec(arb_point(), 3..6),
        speed in 0.5..10.0f64,
        t in 0u64..100_000_000,
    ) {
        let traj = Trajectory::waypoints(pts, speed).looped();
        let period_us = (traj.path_length() / speed * 1e6) as u64;
        prop_assume!(period_us > 0);
        let a = traj.position_at(Timestamp::from_micros(t));
        let b = traj.position_at(Timestamp::from_micros(t + period_us));
        prop_assert!(a.distance_to(b) < 1e-3, "{a} vs {b} one period later");
    }

    /// Every falloff is non-increasing with distance.
    #[test]
    fn falloffs_are_monotone_decreasing(
        d1 in 0.0..50.0f64,
        d2 in 0.0..50.0f64,
        radius in 0.5..10.0f64,
        floor in 0.01..1.0f64,
    ) {
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        for f in [
            Falloff::Disk { radius },
            Falloff::InverseCube { floor },
            Falloff::InverseSquare { floor },
            Falloff::Linear { radius },
        ] {
            prop_assert!(
                f.gain(near) >= f.gain(far),
                "{f:?} increased from {near} to {far}"
            );
        }
    }

    /// The detection radius is consistent with the gain function: just
    /// inside the radius the signal meets the threshold, just outside it
    /// does not (for continuous falloffs).
    #[test]
    fn detection_radius_matches_gain(
        strength in 0.5..100.0f64,
        threshold in 0.01..0.4f64,
        floor in 0.01..0.5f64,
    ) {
        for f in [Falloff::InverseCube { floor }, Falloff::InverseSquare { floor }] {
            if let Some(r) = f.detection_radius(strength, threshold) {
                if r > floor * 1.01 {
                    prop_assert!(strength * f.gain(r * 0.99) >= threshold);
                    prop_assert!(strength * f.gain(r * 1.01) <= threshold * 1.05);
                }
            }
        }
    }

    /// `nodes_within` agrees with a brute-force distance check, and
    /// `nearest` really is the closest node.
    #[test]
    fn deployment_queries_match_brute_force(
        cols in 1u32..8,
        rows in 1u32..8,
        probe in arb_point(),
        radius in 0.0..10.0f64,
    ) {
        let d = Deployment::grid(cols, rows, 1.0);
        let within = d.nodes_within(probe, radius);
        for (id, pos) in d.iter() {
            let inside = pos.distance_to(probe) <= radius;
            prop_assert_eq!(within.contains(&id), inside);
        }
        let nearest = d.nearest(probe);
        let best = d.iter().map(|(_, p)| p.distance_to(probe)).fold(f64::INFINITY, f64::min);
        prop_assert!((d.position(nearest).distance_to(probe) - best).abs() < 1e-12);
    }

    /// Random deployments honour their area and are seed-deterministic.
    #[test]
    fn random_deployment_is_bounded_and_deterministic(seed: u64, n in 1u32..100) {
        let area = Aabb::new(Point::new(-5.0, 0.0), Point::new(5.0, 3.0));
        let d1 = Deployment::random_uniform(n, area, &mut SimRng::seed_from(seed));
        let d2 = Deployment::random_uniform(n, area, &mut SimRng::seed_from(seed));
        prop_assert_eq!(&d1, &d2);
        for (_, p) in d1.iter() {
            prop_assert!(area.contains(p));
        }
    }

    /// Spatial-grid neighbor tables are *exactly* the brute-force tables:
    /// per node, the same neighbors in the same (ascending id) order,
    /// across random placements, radii and field aspect ratios. This is
    /// the invariant the medium's byte-identical determinism rests on.
    #[test]
    fn grid_neighbor_tables_equal_brute_force(
        seed: u64,
        n in 1u32..120,
        radius in 0.05..30.0f64,
        w in 0.5..80.0f64,
        h in 0.5..80.0f64,
    ) {
        let area = Aabb::new(Point::new(-w / 2.0, -h / 2.0), Point::new(w / 2.0, h / 2.0));
        let d = Deployment::random_uniform(n, area, &mut SimRng::seed_from(seed));
        let grid = neighbor_lists(&d, radius);
        let brute = brute_force_neighbor_lists(&d, radius);
        for (id, _) in d.iter() {
            prop_assert_eq!(
                &grid[id.index()], &brute[id.index()],
                "node {} differs (n={}, radius={})", id, n, radius
            );
        }
    }

    /// Clustered placements (several dense blobs with empty space between)
    /// exercise uneven bucket occupancy; the tables must still match.
    #[test]
    fn grid_neighbor_tables_equal_brute_force_on_clusters(
        seed: u64,
        clusters in 1usize..5,
        per in 1u32..25,
        radius in 0.1..5.0f64,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let mut positions = Vec::new();
        for _ in 0..clusters {
            let cx = rng.uniform_range(-50.0, 50.0);
            let cy = rng.uniform_range(-50.0, 50.0);
            for _ in 0..per {
                positions.push(Point::new(
                    cx + rng.uniform_range(-1.0, 1.0),
                    cy + rng.uniform_range(-1.0, 1.0),
                ));
            }
        }
        let d = Deployment::from_positions(positions);
        let grid = neighbor_lists(&d, radius);
        let brute = brute_force_neighbor_lists(&d, radius);
        prop_assert_eq!(grid, brute);
    }

    /// Interest-set soundness — the invariant partitioned-medium routing
    /// rests on: for random placements, radii, and shard counts, every
    /// receiver the brute-force medium would reach from a sender belongs
    /// to a shard inside that sender's computed interest range. An unsound
    /// range would silently drop deliveries on exactly one shard count and
    /// break the byte-identical sharding contract.
    #[test]
    fn interest_ranges_cover_every_brute_force_receiver(
        seed: u64,
        n in 2u32..120,
        radius in 0.05..20.0f64,
        shards in 1usize..9,
        w in 0.5..60.0f64,
        h in 0.5..60.0f64,
    ) {
        let area = Aabb::new(Point::new(-w / 2.0, -h / 2.0), Point::new(w / 2.0, h / 2.0));
        let d = Deployment::random_uniform(n, area, &mut SimRng::seed_from(seed));
        let owners = shard_assignment(&d, radius, shards);
        let ranges = shard_interest_ranges(&d, radius, shards);
        for (src, src_pos) in d.iter() {
            let (lo, hi) = ranges[src.index()];
            prop_assert!(lo <= hi && hi < shards);
            // The sender's own shard must always be interested
            // (self-accounting: transmit energy is charged there).
            let own = owners[src.index()];
            prop_assert!(
                (lo..=hi).contains(&own),
                "sender {} owned by shard {} outside its range [{}, {}]", src, own, lo, hi
            );
            for (dst, dst_pos) in d.iter() {
                if dst == src || src_pos.distance_to(dst_pos) > radius {
                    continue;
                }
                let owner = owners[dst.index()];
                prop_assert!(
                    (lo..=hi).contains(&owner),
                    "receiver {} (shard {}) of sender {} escaped range [{}, {}] \
                     (n={}, radius={}, shards={})",
                    dst, owner, src, lo, hi, n, radius, shards
                );
            }
        }
    }
}
