//! `sweep` — run a scenario sweep across worker threads.
//!
//! ```text
//! cargo run --release -p envirotrack-bench --bin sweep -- --workers 4 --cells 16
//! cargo run --release -p envirotrack-bench --bin sweep -- --cells 8 --out merged.jsonl
//! cargo run --release -p envirotrack-bench --bin sweep -- --bench --cells 16 --bench-out BENCH_sweep.json
//! ```
//!
//! Without `--bench`, runs the sweep once at `--workers` and writes the
//! merged JSON-lines (sorted by cell id; byte-identical at any worker
//! count) to stdout or `--out`. With `--bench`, runs the same cell set at
//! 1, 2, 4 and 8 workers, cross-checks that every merge is byte-identical,
//! and writes wall-clock / runs-per-second / per-stage numbers as
//! `BENCH_sweep.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use envirotrack_bench::sweep::cells::default_cells;
use envirotrack_bench::sweep::run_sweep;
use envirotrack_core::report::json::JsonObject;

struct Args {
    workers: usize,
    cells: usize,
    seed: u64,
    out: Option<PathBuf>,
    bench: bool,
    bench_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workers: 1,
        cells: 8,
        seed: 1,
        out: None,
        bench: false,
        bench_out: PathBuf::from("BENCH_sweep.json"),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < raw.len() {
        let value = |i: usize| -> Result<&str, String> {
            raw.get(i + 1)
                .map(String::as_str)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{} requires a value", raw[i]))
        };
        match raw[i].as_str() {
            "--workers" => {
                args.workers = value(i)?.parse().map_err(|e| format!("--workers: {e}"))?;
                i += 2;
            }
            "--cells" => {
                args.cells = value(i)?.parse().map_err(|e| format!("--cells: {e}"))?;
                i += 2;
            }
            "--seed" => {
                args.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--out" => {
                args.out = Some(PathBuf::from(value(i)?));
                i += 2;
            }
            "--bench-out" => {
                args.bench_out = PathBuf::from(value(i)?);
                i += 2;
            }
            "--bench" => {
                args.bench = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if args.cells == 0 {
        return Err("--cells must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::from(2);
        }
    };
    let cells = default_cells(args.cells, args.seed);
    if args.bench {
        return bench(&args, &cells);
    }
    let report = run_sweep(&cells, args.workers);
    eprintln!(
        "sweep: {} cells, {} workers, run {:.3}s ({:.1} runs/s), merge {:.6}s",
        report.cells_run,
        args.workers,
        report.run_wall.as_secs_f64(),
        report.runs_per_sec(),
        report.merge_wall.as_secs_f64(),
    );
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report.merged_jsonl) {
                eprintln!("sweep: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        None => print!("{}", report.merged_jsonl),
    }
    ExitCode::SUCCESS
}

/// Runs the cell set at 1, 2, 4 and 8 workers, checks all four merges are
/// byte-identical, and writes the profile JSON.
fn bench(args: &Args, cells: &[envirotrack_bench::sweep::SweepCell]) -> ExitCode {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut baseline: Option<String> = None;
    let mut baseline_rps = 0.0;
    let mut rows = Vec::new();
    let mut speedup_8v1 = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let report = run_sweep(cells, workers);
        match &baseline {
            None => {
                baseline = Some(report.merged_jsonl.clone());
                baseline_rps = report.runs_per_sec();
            }
            Some(b) => assert_eq!(
                *b, report.merged_jsonl,
                "merged output changed with worker count — determinism bug"
            ),
        }
        let speedup = if baseline_rps > 0.0 {
            report.runs_per_sec() / baseline_rps
        } else {
            0.0
        };
        if workers == 8 {
            speedup_8v1 = speedup;
        }
        eprintln!(
            "sweep bench: {workers} workers → {:.2}s wall, {:.1} runs/s ({speedup:.2}x vs 1)",
            report.run_wall.as_secs_f64(),
            report.runs_per_sec(),
        );
        rows.push(
            JsonObject::new()
                .field_u64("workers", workers as u64)
                .field_f64("run_wall_s", report.run_wall.as_secs_f64())
                .field_f64("merge_wall_s", report.merge_wall.as_secs_f64())
                .field_f64("runs_per_sec", report.runs_per_sec())
                .field_f64("speedup_vs_1", speedup)
                .finish(),
        );
    }
    let head = JsonObject::new()
        .field_str("bench", "sweep")
        .field_u64("host_cpus", host_cpus as u64)
        .field_u64("cells", cells.len() as u64)
        .field_u64("seed", args.seed)
        .field_bool("merged_outputs_identical", true)
        .field_f64("speedup_8_vs_1", speedup_8v1)
        .finish();
    let json = format!(
        "{},\"results\":[{}]}}\n",
        &head[..head.len() - 1],
        rows.join(",")
    );
    if let Err(e) = std::fs::write(&args.bench_out, json) {
        eprintln!("sweep: writing {}: {e}", args.bench_out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("sweep bench: wrote {}", args.bench_out.display());
    ExitCode::SUCCESS
}
