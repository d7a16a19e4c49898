//! Uniform spatial grid for near-linear neighbor-table construction.
//!
//! The unit-disk radio model needs, for every node, the list of nodes
//! within `radius`. The naive construction compares all pairs — O(n²)
//! distance checks — which caps simulated fields at a few thousand nodes.
//! [`SpatialGrid`] buckets nodes into square cells of side `>= radius`;
//! any node within `radius` of a point then lies in the point's own cell
//! or one of its 8 neighbors (the *9-cell stencil*), because crossing out
//! of the stencil requires moving more than one cell side (`>= radius`)
//! along some axis. Construction visits each node's stencil once, so the
//! total work is O(n · deg) for fields of bounded density.
//!
//! [`neighbor_lists`] returns per-node lists sorted ascending by
//! [`NodeId`] — exactly the lists the brute-force scan produces, in the
//! same order. The all-pairs scan stays available as
//! [`brute_force_neighbor_lists`], the O(n²) oracle that property tests,
//! the medium's pins and the construction benchmark compare against.

use crate::field::{Deployment, NodeId};
use crate::geometry::Point;

/// A uniform bucket grid over a deployment, cell side `>= radius`.
///
/// The cell side is normally exactly `radius`, but is grown when the field
/// is so much larger than the radius that a radius-sized grid would
/// allocate far more cells than nodes (a sparse field with a tiny radio
/// range); a larger cell never misses a neighbor, it only adds candidates.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    origin: Point,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Node indices per cell, row-major; each bucket ascending (nodes are
    /// inserted in id order).
    buckets: Vec<Vec<u32>>,
}

impl SpatialGrid {
    /// Buckets every node of `deployment` into cells of side `>= radius`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive.
    #[must_use]
    pub fn new(deployment: &Deployment, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "grid radius must be finite and positive, got {radius}"
        );
        let bounds = deployment.bounds();
        let origin = bounds.min;
        let span_x = (bounds.max.x - origin.x).max(0.0);
        let span_y = (bounds.max.y - origin.y).max(0.0);
        // Cap the cell count near the node count: at most ~sqrt(n)+1 cells
        // per axis. Correctness only needs `cell >= radius`.
        let n = deployment.len();
        let max_axis = (n as f64).sqrt().ceil().max(1.0);
        let cell = radius.max(span_x / max_axis).max(span_y / max_axis);
        let cols = Self::axis_cells(span_x, cell);
        let rows = Self::axis_cells(span_y, cell);
        let mut buckets = vec![Vec::new(); cols * rows];
        let mut grid = SpatialGrid {
            origin,
            cell,
            cols,
            rows,
            buckets: Vec::new(),
        };
        for (id, pos) in deployment.iter() {
            let (cx, cy) = grid.cell_of(pos);
            buckets[cy * cols + cx].push(id.0);
        }
        grid.buckets = buckets;
        grid
    }

    fn axis_cells(span: f64, cell: f64) -> usize {
        // floor(span / cell) + 1 cells cover [0, span]; the +1 also keeps
        // a degenerate zero-span axis at one cell.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let c = (span / cell).floor() as usize + 1;
        c
    }

    /// The (clamped) cell coordinates of a position.
    fn cell_of(&self, pos: Point) -> (usize, usize) {
        // Non-finite coordinates would silently clamp into cell (0, 0)
        // below; `Deployment` rejects them at construction, so reaching
        // here with NaN/∞ is a caller bug.
        debug_assert!(
            pos.x.is_finite() && pos.y.is_finite(),
            "cell_of requires finite coordinates, got {pos}"
        );
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let clamp = |v: f64, cells: usize| -> usize {
            // Positions sit inside the bounds by construction; the clamp
            // only absorbs float round-off at the far edge.
            (((v / self.cell).floor()).max(0.0) as usize).min(cells - 1)
        };
        (
            clamp(pos.x - self.origin.x, self.cols),
            clamp(pos.y - self.origin.y, self.rows),
        )
    }

    /// Visits every node bucketed in the 9-cell stencil around `pos`
    /// (including the node itself if it lives there). Any node within one
    /// cell side of `pos` is guaranteed to be visited.
    pub fn for_each_candidate(&self, pos: Point, mut f: impl FnMut(u32)) {
        let (cx, cy) = self.cell_of(pos);
        let x0 = cx.saturating_sub(1);
        let y0 = cy.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y1 = (cy + 1).min(self.rows - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                for &id in &self.buckets[y * self.cols + x] {
                    f(id);
                }
            }
        }
    }

    /// Total number of cells (for diagnostics).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.buckets.len()
    }

    /// Number of cell columns (for shard striping).
    #[must_use]
    pub fn cell_cols(&self) -> usize {
        self.cols
    }

    /// The grid-column index of a position (for shard striping).
    #[must_use]
    pub fn col_of(&self, pos: Point) -> usize {
        self.cell_of(pos).0
    }
}

/// The shard owning grid column `col` of a `cols`-column grid striped over
/// `shards` shards. Monotone non-decreasing in `col`, which is what makes
/// footprint interest sets contiguous shard ranges.
#[must_use]
pub fn shard_of_column(col: usize, cols: usize, shards: usize) -> usize {
    (col * shards / cols).min(shards - 1)
}

/// Assigns every node of `deployment` to one of `shards` shards by striping
/// the spatial grid's cell columns via [`shard_of_column`]. The sharded
/// kernel is shard-count-invariant for *any* node partition; striping along
/// the grid keeps each shard's nodes spatially contiguous, so almost all
/// radio traffic a shard dispatches is to its own nodes.
///
/// # Panics
///
/// Panics if `shards` is zero or `radius` is not finite and positive.
#[must_use]
pub fn shard_assignment(deployment: &Deployment, radius: f64, shards: usize) -> Vec<usize> {
    assert!(shards >= 1, "at least one shard is required");
    let grid = SpatialGrid::new(deployment, radius);
    let cols = grid.cell_cols();
    deployment
        .positions()
        .iter()
        .map(|&p| shard_of_column(grid.col_of(p), cols, shards))
        .collect()
}

/// Per-node shard *interest ranges* for partitioned-medium intent routing:
/// `ranges[i] = (lo, hi)` means a transmission by node `i` can only be
/// heard by nodes owned by shards `lo..=hi` (under the same `radius` and
/// the [`shard_assignment`] striping).
///
/// Soundness is the 9-cell-stencil argument restricted to columns: the
/// grid's cell side is `>= radius`, so any receiver within `radius` of a
/// node in column `cx` lies in column `cx - 1`, `cx`, or `cx + 1`; shards
/// stripe whole columns monotonically ([`shard_of_column`]), so the owning
/// shards of those three columns form the contiguous range
/// `shard_of_column(cx-1) ..= shard_of_column(cx+1)`. The sender's own
/// owner is `shard_of_column(cx)`, inside the range by monotonicity — the
/// range always covers self-accounting (transmit energy, half-duplex).
///
/// # Panics
///
/// Panics if `shards` is zero or `radius` is not finite and positive.
#[must_use]
pub fn shard_interest_ranges(
    deployment: &Deployment,
    radius: f64,
    shards: usize,
) -> Vec<(usize, usize)> {
    assert!(shards >= 1, "at least one shard is required");
    let grid = SpatialGrid::new(deployment, radius);
    let cols = grid.cell_cols();
    deployment
        .positions()
        .iter()
        .map(|&p| {
            let cx = grid.col_of(p);
            let lo = shard_of_column(cx.saturating_sub(1), cols, shards);
            let hi = shard_of_column((cx + 1).min(cols - 1), cols, shards);
            (lo, hi)
        })
        .collect()
}

/// Builds per-node neighbor lists: for every node, the ids of all *other*
/// nodes at distance `<= radius`, ascending by [`NodeId`]. Buckets nodes
/// into a [`SpatialGrid`] and scans each node's 9-cell stencil, O(n · deg).
#[must_use]
pub fn neighbor_lists(deployment: &Deployment, radius: f64) -> Vec<Vec<NodeId>> {
    let r2 = radius * radius;
    let grid = SpatialGrid::new(deployment, radius);
    deployment
        .iter()
        .map(|(a, pa)| {
            let mut list = Vec::new();
            grid.for_each_candidate(pa, |b| {
                if b != a.0 && pa.distance_sq_to(deployment.position(NodeId(b))) <= r2 {
                    list.push(NodeId(b));
                }
            });
            // Stencil cells are visited row-major, not in id order.
            list.sort_unstable();
            list
        })
        .collect()
}

/// The O(n²) oracle for [`neighbor_lists`]: compares all pairs and must
/// produce an identical table.
#[must_use]
pub fn brute_force_neighbor_lists(deployment: &Deployment, radius: f64) -> Vec<Vec<NodeId>> {
    let r2 = radius * radius;
    deployment
        .iter()
        .map(|(a, pa)| {
            deployment
                .iter()
                .filter(|&(b, pb)| a != b && pa.distance_sq_to(pb) <= r2)
                .map(|(b, _)| b)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_brute_force_on_the_testbed_grid() {
        let d = Deployment::grid(10, 2, 1.0);
        assert_eq!(neighbor_lists(&d, 6.0), brute_force_neighbor_lists(&d, 6.0));
    }

    #[test]
    fn lists_are_ascending_and_symmetric() {
        let d = Deployment::grid(7, 7, 1.0);
        let lists = neighbor_lists(&d, 2.5);
        for (a, list) in lists.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "node {a} not sorted");
            for b in list {
                assert!(
                    lists[b.index()].binary_search(&NodeId(a as u32)).is_ok(),
                    "asymmetric edge {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        // Two nodes exactly `radius` apart are neighbors, even across a
        // cell boundary.
        let d = Deployment::from_positions(vec![Point::new(0.0, 0.0), Point::new(3.0, 0.0)]);
        let lists = neighbor_lists(&d, 3.0);
        assert_eq!(lists[0], vec![NodeId(1)]);
        assert_eq!(lists[1], vec![NodeId(0)]);
    }

    #[test]
    fn single_node_field_has_no_neighbors() {
        let d = Deployment::from_positions(vec![Point::new(4.0, -2.0)]);
        assert!(neighbor_lists(&d, 10.0)[0].is_empty());
    }

    #[test]
    fn sparse_field_with_tiny_radius_caps_cell_count() {
        // 16 nodes spread over a 1000-unit span with radius 0.5 must not
        // allocate a 2000x2000 cell grid.
        let positions = (0..16)
            .map(|i| Point::new(f64::from(i) * 66.0, f64::from(i % 4) * 250.0))
            .collect();
        let d = Deployment::from_positions(positions);
        let grid = SpatialGrid::new(&d, 0.5);
        assert!(grid.cell_count() <= 64, "cells = {}", grid.cell_count());
        assert_eq!(neighbor_lists(&d, 0.5), brute_force_neighbor_lists(&d, 0.5));
    }

    #[test]
    fn max_edge_nodes_land_in_the_last_cell() {
        // Nodes sitting exactly on the field's max edge must bucket into
        // the last cell, not wrap or clamp to cell 0.
        let d = Deployment::from_positions(vec![
            Point::new(0.0, 0.0),
            Point::new(12.0, 0.0),
            Point::new(0.0, 12.0),
            Point::new(12.0, 12.0),
        ]);
        let grid = SpatialGrid::new(&d, 3.0);
        let last = (grid.cols - 1, grid.rows - 1);
        assert_eq!(grid.cell_of(Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(grid.cell_of(Point::new(12.0, 12.0)), last);
        assert_eq!(grid.cell_of(Point::new(12.0, 0.0)), (last.0, 0));
        assert_eq!(grid.cell_of(Point::new(0.0, 12.0)), (0, last.1));
        // Property over many spans: the max corner always maps to the
        // last cell, for spans that do and do not divide the cell side.
        for n in 1..40u32 {
            let span = f64::from(n) * 0.7;
            let d = Deployment::from_positions(vec![
                Point::new(0.0, 0.0),
                Point::new(span, span),
            ]);
            let grid = SpatialGrid::new(&d, 1.3);
            assert_eq!(
                grid.cell_of(Point::new(span, span)),
                (grid.cols - 1, grid.rows - 1),
                "span {span}"
            );
        }
    }

    #[test]
    fn shard_assignment_stripes_columns_and_covers_every_shard() {
        let d = Deployment::grid(20, 20, 1.0);
        for shards in [1usize, 2, 4, 7] {
            let owners = shard_assignment(&d, 2.5, shards);
            assert_eq!(owners.len(), d.len());
            assert!(owners.iter().all(|&s| s < shards));
            let mut seen = vec![false; shards];
            for &s in &owners {
                seen[s] = true;
            }
            assert!(seen.iter().all(|&b| b), "{shards} shards not all used");
            // Striping is monotone in x: a node never owns a lower shard
            // than a node strictly to its left in the same row.
            for (id, p) in d.iter() {
                for (id2, p2) in d.iter() {
                    if p.y == p2.y && p.x < p2.x {
                        assert!(owners[id.index()] <= owners[id2.index()]);
                    }
                }
            }
        }
        assert!(shard_assignment(&d, 2.5, 1).iter().all(|&s| s == 0));
    }

    #[test]
    fn interest_ranges_cover_every_brute_force_receiver() {
        let d = Deployment::grid(20, 20, 1.0);
        let radius = 2.5;
        for shards in [1usize, 2, 4, 7] {
            let owners = shard_assignment(&d, radius, shards);
            let ranges = shard_interest_ranges(&d, radius, shards);
            let lists = brute_force_neighbor_lists(&d, radius);
            for (a, list) in lists.iter().enumerate() {
                let (lo, hi) = ranges[a];
                assert!(lo <= hi && hi < shards);
                assert!(
                    (lo..=hi).contains(&owners[a]),
                    "node {a} outside its own interest range"
                );
                for b in list {
                    assert!(
                        (lo..=hi).contains(&owners[b.index()]),
                        "receiver {b} of {a} outside interest range {lo}..={hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn interest_ranges_are_proper_subsets_on_wide_fields() {
        // A field much wider than the radius must give interior nodes an
        // interest range narrower than the full shard set — otherwise
        // partitioned routing degenerates to broadcast.
        let d = Deployment::grid(40, 4, 1.0);
        let ranges = shard_interest_ranges(&d, 1.5, 8);
        assert!(
            ranges.iter().any(|&(lo, hi)| hi - lo + 1 < 8),
            "no node had a narrow interest range"
        );
    }

    #[test]
    fn one_shard_interest_ranges_are_all_zero() {
        // The sharded kernel's full-replay reference is the one-shard run:
        // every transmission must route to shard 0 and nowhere else.
        for (d, radius) in [
            (Deployment::grid(20, 20, 1.0), 2.5),
            (Deployment::grid(40, 4, 1.0), 1.5),
            (Deployment::grid(3, 3, 10.0), 0.5),
        ] {
            let ranges = shard_interest_ranges(&d, radius, 1);
            assert_eq!(ranges.len(), d.len());
            assert!(ranges.iter().all(|&r| r == (0, 0)), "{ranges:?}");
        }
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let d = Deployment::from_positions(vec![
            Point::new(-5.0, -5.0),
            Point::new(-4.5, -5.0),
            Point::new(5.0, 5.0),
        ]);
        let lists = neighbor_lists(&d, 1.0);
        assert_eq!(lists[0], vec![NodeId(1)]);
        assert_eq!(lists[1], vec![NodeId(0)]);
        assert!(lists[2].is_empty());
    }
}
