//! The sweep engine: independent cells on the [`super::parallel_map`]
//! pool, with a deterministic ordered reduction.
//!
//! Workers claim cells from a shared atomic cursor, so no cell waits
//! behind another worker's backlog. The reducer merges finished lines by
//! *cell id*, never completion order, which together with per-cell RNG
//! isolation (see [`super::cells`]) makes the merged output byte-identical
//! at any worker count.

use std::time::{Duration, Instant};

use super::cells::SweepCell;
use super::parallel_map;

/// The merged result of one sweep plus its execution profile.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// All cell lines, sorted by cell id, one per line, trailing newline.
    pub merged_jsonl: String,
    /// Cells executed.
    pub cells_run: usize,
    /// Wall-clock spent running cells (the parallel phase).
    pub run_wall: Duration,
    /// Wall-clock spent joining lines in cell-id order (the reduction
    /// phase).
    pub merge_wall: Duration,
}

impl SweepReport {
    /// Completed runs per wall-clock second over the parallel phase.
    #[must_use]
    pub fn runs_per_sec(&self) -> f64 {
        let s = self.run_wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.cells_run as f64 / s
        }
    }
}

/// Runs every cell across `workers` threads and reduces the lines.
///
/// # Panics
///
/// Panics when `workers == 0` or when two cells share an id (the merge
/// key must identify a cell uniquely).
#[must_use]
pub fn run_sweep(cells: &[SweepCell], workers: usize) -> SweepReport {
    // Reduce in cell-id order — never completion order — so the merged
    // bytes are independent of scheduling.
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| cells[a].id.cmp(&cells[b].id));
    assert!(
        order.windows(2).all(|w| cells[w[0]].id != cells[w[1]].id),
        "cell ids must be unique"
    );

    let run_start = Instant::now();
    let lines = parallel_map(workers, cells, SweepCell::run);
    let run_wall = run_start.elapsed();

    let merge_start = Instant::now();
    let mut merged_jsonl = String::new();
    for i in order {
        merged_jsonl.push_str(&lines[i]);
        merged_jsonl.push('\n');
    }
    let merge_wall = merge_start.elapsed();

    SweepReport {
        merged_jsonl,
        cells_run: lines.len(),
        run_wall,
        merge_wall,
    }
}

#[cfg(test)]
mod tests {
    use super::super::cells::default_cells;
    use super::*;

    #[test]
    fn every_cell_runs_exactly_once_at_any_worker_count() {
        let cells = default_cells(6, 40);
        for workers in [1, 3, 8] {
            let report = run_sweep(&cells, workers);
            assert_eq!(report.cells_run, cells.len());
            let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
            ids.sort_unstable();
            let merged: Vec<&str> = report
                .merged_jsonl
                .lines()
                .map(|l| l.split('"').nth(3).expect("cell id field"))
                .collect();
            assert_eq!(merged, ids, "each cell's line appears exactly once");
        }
    }

    #[test]
    fn merged_output_is_sorted_by_cell_id() {
        let cells = default_cells(6, 40);
        let report = run_sweep(&cells, 4);
        let keys: Vec<&str> = report
            .merged_jsonl
            .lines()
            .map(|l| l.split('"').nth(3).expect("cell id field"))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    #[should_panic(expected = "cell ids must be unique")]
    fn duplicate_cell_ids_are_rejected() {
        let mut cells = default_cells(2, 40);
        cells[1].id = cells[0].id.clone();
        let _ = run_sweep(&cells, 2);
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let cells = default_cells(2, 77);
        let report = run_sweep(&cells, 8);
        assert_eq!(report.cells_run, 2);
    }
}
