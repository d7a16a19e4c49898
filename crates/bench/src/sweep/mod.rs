//! Parameter sweeps: parallel execution, the scenario sweep engine, and
//! max-trackable-speed search.
//!
//! [`parallel_map`] is the one worker pool: the figure experiments call it
//! directly, and [`engine`] runs `(scenario, seed)` [`cells`] on it and
//! merges their JSON lines by cell id, byte-identically at any worker
//! count (see DESIGN.md §10).

pub mod cells;
pub mod engine;

pub use cells::{CellSpec, SweepCell};
pub use engine::{run_sweep, SweepReport};

use crate::harness::{run_tracking, TrackingRun};

/// The host's available parallelism (4 when it cannot be read): the
/// worker count the figure experiments pass to [`parallel_map`].
#[must_use]
pub fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |w| w.get())
}

/// Runs `f` over `inputs` on at most `workers` scoped threads, preserving
/// input order in the output. Workers claim the next input from a shared
/// atomic cursor, so a slow input never holds up a queue of others behind
/// it. Pure `std`: scoped threads + an mpsc channel for results.
///
/// # Panics
///
/// Panics when `workers == 0`.
pub fn parallel_map<I, O, F>(workers: usize, inputs: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(workers > 0, "parallel_map needs at least one worker");
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, O)>();
    let f_ref = &f;
    let next_ref = &next;
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            s.spawn(move || loop {
                let i = next_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f_ref(&inputs[i]);
                tx.send((i, out)).expect("result channel open");
            });
        }
    });
    drop(tx);
    let mut indexed: Vec<(usize, O)> = rx.into_iter().collect();
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, o)| o).collect()
}

/// How a coherence check at one speed is produced from a run template.
pub type SpeedProbe<'a> = dyn Fn(f64) -> bool + Sync + 'a;

/// Finds the maximum trackable speed (in hops/s) for a run template by
/// exponential bracketing followed by bisection.
///
/// `coherent_at(speed)` must be monotone-ish (true at low speeds); protocol
/// noise can make it ragged, so a speed is accepted only if a majority of
/// `votes` seeds agree.
#[must_use]
pub fn max_trackable_speed(template: &TrackingRun, votes: u32, resolution: f64) -> f64 {
    let coherent_at = |speed: f64| -> bool {
        let mut ok = 0;
        for v in 0..votes {
            let cfg = TrackingRun {
                speed_hops_per_s: speed,
                seed: template
                    .seed
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(v) + 1),
                ..template.clone()
            };
            if run_tracking(&cfg).coherent() {
                ok += 1;
            }
        }
        2 * ok > votes
    };

    let mut lo = 0.05;
    if !coherent_at(lo) {
        return 0.0;
    }
    // Exponential bracket.
    let mut hi = lo * 2.0;
    while coherent_at(hi) {
        lo = hi;
        hi *= 2.0;
        if hi > 16.0 {
            return hi / 2.0;
        }
    }
    // Bisect.
    while hi - lo > resolution {
        let mid = (lo + hi) / 2.0;
        if coherent_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<i32> = (0..50).collect();
        for workers in [1, 3, 64] {
            let out = parallel_map(workers, &inputs, |x: &i32| x * 2);
            assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<i32> = parallel_map(2, &[] as &[i32], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn max_speed_search_finds_a_positive_speed_for_sane_configs() {
        let template = TrackingRun {
            cols: 14,
            rows: 3,
            lane_y: 1.0,
            ..TrackingRun::default()
        };
        let v = max_trackable_speed(&template, 1, 0.5);
        assert!(v > 0.0, "the default config must track something");
    }
}
