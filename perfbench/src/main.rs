//! EnviroTrack benchmark: two workloads driven only through the library's
//! public API, reported as one JSON line.
//!
//! ```text
//! envirotrack-perfbench --workload <sparse_field|dense_swarm>
//!     [--seed <n|default|held-out>] [--seconds <s>] [--trace <0|1>]
//!     [--size <full|tiny>] [--inject-fault <none|invariant|suback-id>]
//! envirotrack-perfbench --serve-sweep <rate,rate,...> [--seed <n>] [--seconds <s>]
//! ```
//!
//! Standard output is a `{"report": ...}` line (workload properties,
//! sample counts, digests, problems found) followed by the result line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Usually run
//! through `perfbench/run.py`, which builds this package first.
//! `--serve-sweep` instead runs the `serve_fanout` load at each SUBSCRIBE
//! rate for `--seconds` and prints one line per rate.

mod serve;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use stats::{quote, Obj};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for validating claims made on the default.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// End-to-end metrics (name, unit), reported by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sim_speed", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("events_per_s", "1/s"),
    ("virtual_rate", "s/s"),
];

/// Per-layer metrics (name, unit), reported by every `--trace 1` run; a
/// layer a workload does not exercise reads 0 and is listed in the
/// report's `not_applicable`.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("failed_frac", "ratio"),
    ("sim.steps", "count"),
    ("sim.step_ns", "ns"),
    ("sim.queue_depth_max", "count"),
    ("core.idle_step.calls", "count"),
    ("core.idle_step.ns", "ns"),
    ("core.idle_step.ns_per_call", "ns"),
    ("core.idle_step.share", "ratio"),
    ("core.group_step.calls", "count"),
    ("core.group_step.ns", "ns"),
    ("core.group_step.ns_per_call", "ns"),
    ("core.group_step.share", "ratio"),
    ("net.tx_step.calls", "count"),
    ("net.tx_step.ns", "ns"),
    ("net.tx_step.ns_per_call", "ns"),
    ("net.tx_step.share", "ratio"),
    ("net.deliver_step.calls", "count"),
    ("net.deliver_step.ns", "ns"),
    ("net.deliver_step.ns_per_call", "ns"),
    ("net.deliver_step.share", "ratio"),
    ("net.tx", "count"),
    ("net.rx", "count"),
    ("net.collided", "count"),
    ("net.faded", "count"),
    ("net.half_duplex", "count"),
    ("net.mac_dropped", "count"),
    ("net.bytes_on_air", "bytes"),
    ("net.rx_useful_ratio", "ratio"),
    ("shard.barriers", "count"),
    ("shard.merged_intents", "count"),
    ("shard.intents_per_barrier", "ratio"),
    ("shard.routed", "count"),
    ("shard.skipped", "count"),
    ("shard.events", "count"),
    ("shard.ns_per_barrier", "ns"),
    ("world.scenario_build_s", "s"),
    ("core.build_engine_s", "s"),
    ("telemetry.export_ns", "ns"),
    ("telemetry.export_bytes", "bytes"),
    ("telemetry.trace_len", "count"),
    ("serve.hub_ack_p50_us", "us"),
    ("serve.hub_ack_p99_us", "us"),
    ("serve.ping_rtt_p50_ms", "ms"),
    ("serve.ping_rtt_p99_ms", "ms"),
    ("serve.first_event_p50_us", "us"),
    ("serve.events_sent", "count"),
    ("serve.events_dropped", "count"),
    ("serve.subs_denied", "count"),
    ("serve.slow_consumer_sheds", "count"),
    ("serve.protocol_errors", "count"),
    ("serve.frame_decode_ns", "ns"),
    ("serve.event_encode_ns", "ns"),
    ("serve.worlds", "count"),
    ("serve.live_subs_max", "count"),
    ("serve.hub_ack_samples", "count"),
    ("serve.ping_samples", "count"),
    ("bench.ack_samples", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.step_coverage", "ratio"),
    ("bench.traced_runs", "count"),
    ("bench.untraced_runs", "count"),
];

/// Benchmark size: `full` is the measured configuration, `tiny` the
/// seconds-long self-test configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// A deliberately planted failure, for checking that the benchmark's
/// correctness checks bite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Sim workloads: run the invariant monitor with a duplicate-leader
    /// rule no multi-target run can satisfy.
    Invariant,
    /// The `serve_fanout` load: expect the wrong query id in some SUBACKs.
    SubackId,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub inject: Inject,
    /// SUBSCRIBE rates for `--serve-sweep`; empty for a workload run.
    pub sweep: Vec<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        inject: Inject::None,
        sweep: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = match value.as_str() {
                    "default" => DEFAULT_SEED,
                    "held-out" => HELD_OUT_SEED,
                    n => n.parse().map_err(|_| format!("bad --seed {n}"))?,
                }
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("bad --size {v}")),
                }
            }
            "--inject-fault" => {
                args.inject = match value.as_str() {
                    "none" => Inject::None,
                    "invariant" => Inject::Invariant,
                    "suback-id" => Inject::SubackId,
                    v => return Err(format!("bad --inject-fault {v}")),
                }
            }
            "--serve-sweep" => {
                args.sweep = value
                    .split(',')
                    .map(|r| r.parse().ok().filter(|r: &f64| r.is_finite() && *r > 0.0))
                    .collect::<Option<_>>()
                    .ok_or_else(|| format!("bad --serve-sweep {value}"))?;
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    Ok(args)
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness problems found, failed operations' reasons included.
    pub problems: Vec<String>,
    pub values: BTreeMap<String, f64>,
    pub report: Obj,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Counts one failed operation; a reason already listed is not
    /// repeated.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if !self.problems.contains(&problem) {
            self.problems.push(problem);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.sweep.is_empty() {
        return match serve::sweep(args.seed, args.seconds, &args.sweep) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: serve sweep: {e}");
                ExitCode::from(1)
            }
        };
    }
    let Some(spec) = sim::SimSpec::for_workload(&args.workload, args.size) else {
        eprintln!(
            "perfbench: unknown --workload {:?} (sparse_field, dense_swarm)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let mut out = sim::run(&spec, &args);

    let (list, trace) = if args.trace {
        (&PER_LAYER[..], 1)
    } else {
        (&END_TO_END[..], 0)
    };
    let mut metrics = Vec::new();
    let mut not_applicable = Vec::new();
    for (name, unit) in list {
        let value = out.values.get(*name).copied().unwrap_or_else(|| {
            assert!(args.trace, "end-to-end metric {name} was not measured");
            not_applicable.push(quote(name));
            0.0
        });
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        ));
    }
    let problems: Vec<String> = out.problems.iter().map(|p| quote(p)).collect();
    out.report
        .text("workload", &args.workload)
        .int("seed", args.seed)
        .int("trace", trace)
        .text(
            "size",
            if args.size == Size::Full {
                "full"
            } else {
                "tiny"
            },
        )
        .raw("not_applicable", format!("[{}]", not_applicable.join(", ")))
        .raw("problems", format!("[{}]", problems.join(", ")));
    println!("{{\"report\": {}}}", out.report.render());
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
