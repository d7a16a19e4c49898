//! The simulation workloads: `sparse_field` and `dense_swarm`, each one
//! monolithic engine.
//!
//! Every timed region wraps calls into the program only
//! (`ScaleScenario::build`, `SensorNetwork::build_engine`,
//! `Engine::run_until`, `run_sharded`); checks and digests run between
//! those regions.

use std::time::Instant;

use envirotrack_bench::harness::tracker_program;
use envirotrack_chaos::monitor::{InvariantMonitor, MonitorConfig};
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::report::{telemetry_to_jsonl, RunRecord};
use envirotrack_core::shard::{run_sharded, MediumMode};
use envirotrack_sim::engine::{Engine, RunOutcome};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::{CounterHandle, Telemetry};
use envirotrack_world::scenario::{ScaleScenario, Scenario};

use crate::stats::{median, peak_rss_mb, quantile, Fnv};
use crate::{Args, Inject, Outcome, Size};

/// One simulation workload's field and run length.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub nodes: u32,
    pub targets: u32,
    pub sensing_radius: f64,
    pub comm_radius: f64,
    /// Cross-label proximity radius of the middleware, mirrored by the
    /// invariant monitor's duplicate-leader rule. Leaders of different
    /// targets must stay further apart than this, or the monitor counts
    /// them as duplicates.
    pub proximity_radius: f64,
    /// At full size at least 1,000 slices, so that the slice p99
    /// has 10 or more samples beyond it.
    pub horizon: SimDuration,
    /// Shards of one extra `run_sharded` call of the same field in the
    /// traced run, which supplies the `shard.*` metrics (0 = none).
    pub traced_shards: usize,
    /// Whether the traced run also runs one `serve_fanout` load phase,
    /// which supplies the `serve.*` metrics.
    pub traced_serve: bool,
}

/// Target speed in hops/s (the `ScaleRun` default).
const SPEED_HOPS_PER_S: f64 = 1.0;
/// Virtual length of one `run_until` slice. Sense ticks are phase-spread,
/// so every slice carries a tenth of a sense period's work.
const SLICE: SimDuration = SimDuration::from_millis(20);
/// Virtual interval between invariant checks, in every run. A multiple of
/// `SLICE`, so checks fall between timed slices. Duplicate leaders count
/// only once they outlast the monitor's 5 s settle window, so a run must
/// be longer than that for the check to be able to fail.
const CHECK_EVERY: SimDuration = SimDuration::from_millis(200);
/// Length of the `serve_fanout` load phase in a traced run with
/// `traced_serve`.
const TRACED_SERVE_S: f64 = 10.0;
/// Set-ups before the timed runs: at least `MIN_SETUPS`, and more until
/// they have taken `SETUP_BUDGET_S` in all. `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 2.0;

impl SimSpec {
    pub fn for_workload(name: &str, size: Size) -> Option<SimSpec> {
        let tiny = size == Size::Tiny;
        let sparse = SimSpec {
            nodes: if tiny { 2_000 } else { 50_000 },
            targets: 4,
            sensing_radius: 1.0,
            comm_radius: 2.5,
            proximity_radius: 3.0,
            horizon: SimDuration::from_secs(if tiny { 8 } else { 20 }),
            traced_shards: 2,
            traced_serve: true,
        };
        match name {
            "sparse_field" => Some(sparse),
            // The widest groups the protocol's premises allow: radio range
            // twice the sensing radius, so every node that senses a target
            // hears every other one, and the tracking harness's proximity
            // coupling (2.5 x sensing radius). The two lanes are 15.5 units
            // apart, so leaders of different targets stay further apart
            // than the proximity radius. A frame reaches about 113 nodes.
            "dense_swarm" => Some(SimSpec {
                nodes: 1_024,
                targets: 2,
                sensing_radius: 3.0,
                comm_radius: 6.0,
                proximity_radius: 7.5,
                horizon: SimDuration::from_secs(if tiny { 20 } else { 120 }),
                traced_shards: 0,
                traced_serve: false,
            }),
            _ => None,
        }
    }

    fn scenario(&self, seed: u64) -> Scenario {
        ScaleScenario {
            nodes: self.nodes,
            targets: self.targets,
            speed_hops_per_s: SPEED_HOPS_PER_S,
            sensing_radius: self.sensing_radius,
            seed,
            ..ScaleScenario::default()
        }
        .build()
    }

    fn horizon(&self) -> Timestamp {
        Timestamp::ZERO + self.horizon
    }
}

fn net_config(spec: &SimSpec) -> NetworkConfig {
    let mut cfg = NetworkConfig::default();
    cfg.radio = cfg.radio.with_comm_radius(spec.comm_radius);
    cfg.middleware.proximity_radius = spec.proximity_radius;
    cfg
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Set-up cost of one world: scenario build, then engine build.
struct Setup {
    scenario_s: f64,
    engine_s: f64,
}

fn build(spec: &SimSpec, seed: u64) -> (Setup, Engine<SensorNetwork>) {
    let t = Instant::now();
    let scenario = spec.scenario(seed);
    let scenario_s = secs(t);
    let t = Instant::now();
    let engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        net_config(spec),
        seed,
    );
    (
        Setup {
            scenario_s,
            engine_s: secs(t),
        },
        engine,
    )
}

/// Tracking output of one run and what was wrong with it, if anything.
#[derive(Default)]
struct Checked {
    digest: String,
    labels: u64,
    handovers: u64,
    problems: Vec<String>,
}

impl Checked {
    fn check_record(&mut self, targets: u32) {
        if self.labels < u64::from(targets) {
            self.problems
                .push(format!("{} labels for {targets} targets", self.labels));
        }
        if self.handovers == 0 {
            self.problems.push("no leader handover".into());
        }
    }
}

/// Run record plus event log, with no work counter in it: a change means
/// the simulation behaved differently, not that it did more or less work.
fn mono_digest(engine: &Engine<SensorNetwork>, record: &RunRecord) -> String {
    let mut h = Fnv::new();
    h.feed(record.to_json().as_bytes());
    for (at, event) in engine.world().events().entries() {
        h.feed(format!("{at:?} {event:?}\n").as_bytes());
    }
    h.hex()
}

/// The run's invariant monitor. `Inject::Invariant` makes the
/// duplicate-leader invariant fail on purpose: any two live leaders count
/// as duplicates, however far apart, and still only once the condition
/// outlasts the default settle window.
fn monitor(
    spec: &SimSpec,
    seed: u64,
    engine: &Engine<SensorNetwork>,
    inject: Inject,
) -> InvariantMonitor {
    let proximity_radius = if inject == Inject::Invariant {
        1e12
    } else {
        spec.proximity_radius
    };
    let cfg = MonitorConfig {
        proximity_radius,
        ..MonitorConfig::default()
    };
    InvariantMonitor::new(seed, engine.world(), cfg)
}

/// Step classes of the traced run, in classification priority order.
const CLASSES: [&str; 4] = [
    "net.tx_step",
    "net.deliver_step",
    "core.group_step",
    "core.idle_step",
];

/// Counters whose movement marks a step as group work: group management,
/// aggregates, the directory, and context-object methods.
const GROUP_PREFIXES: [&str; 4] = ["group.", "agg.", "dir.", "app."];

/// Watches the group/aggregate/directory counters between steps.
struct GroupProbe {
    known: usize,
    handles: Vec<CounterHandle>,
    last: u64,
}

impl GroupProbe {
    fn new() -> Self {
        GroupProbe {
            known: usize::MAX,
            handles: Vec::new(),
            last: 0,
        }
    }

    fn moved(&mut self, tel: &Telemetry) -> bool {
        // The registry's counter count is O(1) to read; re-resolve handles
        // only when a step registered a new counter.
        let count = tel.with_registry(|r| r.counters().size_hint().0);
        if count != self.known {
            let names: Vec<String> = tel.with_registry(|r| {
                r.counters()
                    .map(|(n, _)| n)
                    .filter(|n| GROUP_PREFIXES.iter().any(|p| n.starts_with(p)))
                    .map(str::to_owned)
                    .collect()
            });
            self.handles = names.iter().map(|n| tel.counter_handle(n)).collect();
            self.known = count;
        }
        let sum: u64 = self.handles.iter().map(CounterHandle::get).sum();
        let moved = sum != self.last;
        self.last = sum;
        moved
    }
}

/// Per-step layer attribution of one traced run.
#[derive(Default)]
struct StepTrace {
    calls: [u64; 4],
    ns: [u64; 4],
    queue_max: usize,
    wall_s: f64,
}

impl StepTrace {
    fn steps(&self) -> u64 {
        self.calls.iter().sum()
    }

    fn step_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Radio signatures: (transmit side, receive side) outcome totals.
fn radio_signature(world: &SensorNetwork) -> (u64, u64) {
    let st = world.net_stats();
    let mut tx = st.total_tx;
    let mut rx = 0;
    for k in st.per_kind.values() {
        tx += k.mac_dropped;
        rx += k.rx
            + k.collided
            + k.faded
            + k.half_duplex
            + k.burst_faded
            + k.partition_dropped
            + k.tx_lost;
    }
    (tx, rx)
}

/// What one monolithic run measured.
struct MonoRun {
    setup: Setup,
    run_s: f64,
    slice_ms: Vec<f64>,
    checked: Checked,
    export_ns: f64,
    export_bytes: usize,
    trace_len: usize,
    net: NetCounts,
}

/// Whole-run radio counts.
struct NetCounts {
    tx: u64,
    rx: u64,
    collided: u64,
    faded: u64,
    half_duplex: u64,
    mac_dropped: u64,
    bytes_on_air: u64,
}

/// One monolithic run: build, then advance slice by slice to the horizon,
/// running the invariant monitor every `CHECK_EVERY` between slices.
/// With `trace`, every slice is stepped one event at a time
/// (`run_until` under an event limit of one: peek, horizon check, step —
/// event-identical to the untraced loop) and each step is classified by
/// which counters it moved.
fn mono_run(
    spec: &SimSpec,
    seed: u64,
    inject: Inject,
    mut trace: Option<&mut StepTrace>,
) -> MonoRun {
    let (setup, mut engine) = build(spec, seed);
    let mut mon = monitor(spec, seed, &engine, inject);
    let horizon = spec.horizon();
    let mut slice_ms = Vec::new();
    let mut checked = Checked::default();
    let mut group = GroupProbe::new();
    let mut radio = radio_signature(engine.world());
    if trace.is_some() {
        engine.set_event_limit(1);
    }
    let mut t = Timestamp::ZERO;
    let mut run_s = 0.0;
    while t < horizon {
        t = (t + SLICE).min(horizon);
        let start = Instant::now();
        match trace.as_deref_mut() {
            None => {
                engine.run_until(t);
            }
            Some(tr) => loop {
                let a = Instant::now();
                let outcome = engine.run_until(t);
                let ns = u64::try_from(a.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if outcome != RunOutcome::EventLimit {
                    break;
                }
                let world = engine.world();
                let now_radio = radio_signature(world);
                let class = if now_radio.0 != radio.0 {
                    0
                } else if now_radio.1 != radio.1 {
                    1
                } else if group.moved(world.telemetry()) {
                    2
                } else {
                    3
                };
                if class < 2 {
                    // Keep the group baseline current on radio steps too.
                    group.moved(world.telemetry());
                }
                radio = now_radio;
                tr.calls[class] += 1;
                tr.ns[class] += ns;
                tr.queue_max = tr.queue_max.max(engine.kernel().pending_events());
            },
        }
        let dt = secs(start);
        run_s += dt;
        slice_ms.push(dt * 1e3);
        let due = (t - Timestamp::ZERO)
            .as_micros()
            .is_multiple_of(CHECK_EVERY.as_micros());
        if due || t == horizon {
            mon.check(engine.world_mut(), t);
        }
    }
    if let Some(tr) = trace {
        tr.wall_s += run_s;
    }
    let record = engine.world().run_record(seed, spec.horizon, 0);
    checked.digest = mono_digest(&engine, &record);
    checked.labels = record.labels_created;
    checked.handovers = record.handovers;
    if let Some(v) = mon.violations().first() {
        checked.problems.push(format!(
            "{} invariant violation(s), first: {:?} at {}: {}",
            mon.violations().len(),
            v.kind,
            v.at,
            v.detail
        ));
    }
    checked.check_record(spec.targets);
    let st = engine.world().net_stats();
    let net = NetCounts {
        tx: st.total_tx,
        rx: st.sum(|k| k.rx),
        collided: st.sum(|k| k.collided),
        faded: st.sum(|k| k.faded),
        half_duplex: st.sum(|k| k.half_duplex),
        mac_dropped: st.sum(|k| k.mac_dropped),
        bytes_on_air: st.bytes_on_air(),
    };
    let tel = engine.world().telemetry();
    let t = Instant::now();
    let export = telemetry_to_jsonl(tel);
    let export_ns = t.elapsed().as_secs_f64() * 1e9;
    MonoRun {
        setup,
        run_s,
        slice_ms,
        checked,
        export_ns,
        export_bytes: export.len(),
        trace_len: tel.trace_len(),
        net,
    }
}

/// `(name, value)` of every counter line in a `telemetry_to_jsonl` export.
fn jsonl_counters(jsonl: &str) -> Vec<(String, u64)> {
    jsonl
        .lines()
        .filter(|l| l.contains("\"counter\""))
        .filter_map(|l| {
            let name = l
                .split("\"name\":")
                .nth(1)?
                .trim_start()
                .strip_prefix('"')?;
            let name = name.split('"').next()?;
            let value = l.split("\"value\":").nth(1)?;
            let digits: String = value
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            Some((name.to_owned(), digits.parse().ok()?))
        })
        .collect()
}

/// What one sharded run measured.
struct ShardRun {
    run_s: f64,
    checked: Checked,
    barriers: u64,
    merged: u64,
    routed: u64,
    skipped: u64,
    events: u64,
}

/// The workload's field through `run_sharded` on `shards` shards with the
/// partitioned medium.
fn shard_run(spec: &SimSpec, seed: u64, shards: usize) -> ShardRun {
    let scenario = spec.scenario(seed);
    let cfg = net_config(spec);
    let horizon = spec.horizon();
    let t = Instant::now();
    let run = run_sharded(
        &tracker_program(),
        &scenario.deployment,
        &scenario.environment,
        &cfg,
        seed,
        shards,
        horizon,
        &[],
        MediumMode::Partitioned,
    );
    let run_s = secs(t);
    let mut h = Fnv::new();
    h.feed(run.record.to_json().as_bytes());
    h.feed(run.telemetry_jsonl.as_bytes());
    let counters = jsonl_counters(&run.telemetry_jsonl);
    let epoch = cfg.radio.epoch_latency();
    let mut barriers = 0;
    let mut b = Timestamp::ZERO + epoch;
    while b < horizon {
        barriers += 1;
        b += epoch;
    }
    let r = &run.record;
    let mut checked = Checked {
        digest: h.hex(),
        labels: r.labels_created,
        handovers: r.handovers,
        ..Checked::default()
    };
    if counters
        .iter()
        .any(|(n, v)| n == "net.corrupt_accepted" && *v > 0)
    {
        checked.problems.push("corrupt frame accepted".into());
    }
    checked.check_record(spec.targets);
    ShardRun {
        run_s,
        checked,
        barriers,
        merged: run.intents.merged,
        routed: run.intents.routed,
        skipped: run.intents.skipped,
        events: run.events_processed,
    }
}

/// Runs a sim workload for `args.seconds`: end-to-end metrics from
/// untraced runs (`--trace 0`), or per-layer metrics from alternating
/// untraced and traced runs (`--trace 1`).
pub fn run(spec: &SimSpec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    while setup_s.len() < MIN_SETUPS || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S {
        let (s, engine) = build(spec, args.seed);
        setup_s.push(s.scenario_s + s.engine_s);
        drop(engine);
    }
    let mut digests: Vec<String> = Vec::new();
    let mut note = |checked: &Checked, out: &mut Outcome| {
        out.attempted += 1;
        if !checked.problems.is_empty() {
            out.fail(checked.problems.join("; "));
        }
        if !digests.contains(&checked.digest) {
            digests.push(checked.digest.clone());
        }
    };
    let start = Instant::now();
    let horizon_s = spec.horizon.as_secs_f64();
    if args.trace {
        traced(spec, args, &mut out, &mut note, start);
    } else {
        // Per-run figures; each end-to-end metric is a median over runs
        // (or slices), so one disturbed stretch of a shared host moves it
        // little.
        let mut speeds = Vec::new();
        let mut runs: Vec<Vec<f64>> = Vec::new();
        let mut peak_rss = 0.0;
        while out.attempted == 0 || secs(start) < args.seconds {
            let r = mono_run(spec, args.seed, args.inject, None);
            if speeds.is_empty() {
                // Every run of a seed is the same run. Read the peak before
                // the kept slice samples grow with the run count.
                peak_rss = peak_rss_mb();
            }
            note(&r.checked, &mut out);
            speeds.push(horizon_s / r.run_s);
            runs.push(r.slice_ms);
        }
        // Every run of a seed does the same work in its k-th slice, so the
        // median of slice k over the runs drops a host stall that hit it
        // in a minority of them. The percentiles are over these medians.
        let slices: Vec<f64> = (0..runs[0].len())
            .map(|k| median(&runs.iter().map(|r| r[k]).collect::<Vec<_>>()))
            .collect();
        let sim_speed = median(&speeds);
        let samples_per_virtual_s =
            f64::from(spec.nodes) / net_config(spec).middleware.sense_period.as_secs_f64();
        out.set("sim_speed", sim_speed);
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", peak_rss);
        out.set("ack_p50_ms", median(&slices));
        out.set("ack_p99_ms", quantile(&slices, 0.99));
        out.set("virtual_rate", SLICE.as_secs_f64() * 1e3 / median(&slices));
        out.set("events_per_s", sim_speed * samples_per_virtual_s);
        out.report
            .int("runs", out.attempted)
            .int("ack_samples", slices.len() as u64)
            .int("ack_runs_per_sample", runs.len() as u64)
            .int("setup_samples", setup_s.len() as u64)
            .text(
                "ack_is",
                "wall latency of one 20 ms virtual run_until slice, as the median over runs of each slice; p50 and p99 over those slices",
            )
            .text("events_are", "node sense samples simulated (nodes x virtual time / sense period)");
    }
    if digests.len() > 1 {
        out.problems
            .push(format!("same-seed runs disagree: digests {digests:?}"));
    }
    out.report
        .text("digest", digests.first().map_or("", String::as_str))
        .int("nodes", u64::from(spec.nodes))
        .int("targets", u64::from(spec.targets))
        .num("horizon_s", horizon_s);
    out
}

/// `--trace 1`: pairs of untraced and traced runs on the same seed until
/// the time is up. The traced run's digest must equal the untraced one.
#[allow(clippy::cast_precision_loss)]
fn traced(
    spec: &SimSpec,
    args: &Args,
    out: &mut Outcome,
    note: &mut impl FnMut(&Checked, &mut Outcome),
    start: Instant,
) {
    let mut tr = StepTrace::default();
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut pairs = 0u64;
    let mut setups: Vec<Setup> = Vec::new();
    let mut last: Option<MonoRun> = None;
    while pairs == 0 || secs(start) < args.seconds {
        let plain = mono_run(spec, args.seed, args.inject, None);
        note(&plain.checked, out);
        plain_s += plain.run_s;
        let traced = mono_run(spec, args.seed, args.inject, Some(&mut tr));
        note(&traced.checked, out);
        traced_s += traced.run_s;
        setups.push(plain.setup);
        last = Some(traced);
        pairs += 1;
    }
    let m = last.expect("at least one traced run");
    if spec.traced_shards > 0 {
        let r = shard_run(spec, args.seed, spec.traced_shards);
        // Sharded runs are their own digest family: checked, not compared.
        out.attempted += 1;
        if !r.checked.problems.is_empty() {
            out.fail(r.checked.problems.join("; "));
        }
        let barriers = r.barriers.max(1) as f64;
        out.set("shard.barriers", r.barriers as f64);
        out.set("shard.merged_intents", r.merged as f64);
        out.set("shard.intents_per_barrier", r.merged as f64 / barriers);
        out.set("shard.routed", r.routed as f64);
        out.set("shard.skipped", r.skipped as f64);
        out.set("shard.events", r.events as f64);
        out.set("shard.ns_per_barrier", r.run_s * 1e9 / barriers);
        out.report
            .text("sharded_digest", &r.checked.digest)
            .num("intents_per_barrier", r.merged as f64 / barriers);
    }
    if spec.traced_serve {
        if let Err(e) = crate::serve::trace_into(args.seed, TRACED_SERVE_S, args.inject, out) {
            out.fail(format!("serve phase: {e}"));
        }
    }
    out.set("failed_frac", out.failed as f64 / out.attempted as f64);
    out.set("bench.trace_overhead", traced_s / plain_s);
    out.set("bench.untraced_runs", pairs as f64);
    out.set("bench.traced_runs", pairs as f64);
    let scenario_s: Vec<f64> = setups.iter().map(|s| s.scenario_s).collect();
    let engine_s: Vec<f64> = setups.iter().map(|s| s.engine_s).collect();
    out.set("world.scenario_build_s", median(&scenario_s));
    out.set("core.build_engine_s", median(&engine_s));
    out.set("sim.steps", tr.steps() as f64);
    out.set("sim.step_ns", tr.step_ns() as f64);
    out.set("sim.queue_depth_max", tr.queue_max as f64);
    let step_ns = tr.step_ns().max(1) as f64;
    for (i, class) in CLASSES.iter().enumerate() {
        let (calls, ns) = (tr.calls[i] as f64, tr.ns[i] as f64);
        out.set(&format!("{class}.calls"), calls);
        out.set(&format!("{class}.ns"), ns);
        out.set(
            &format!("{class}.ns_per_call"),
            if calls > 0.0 { ns / calls } else { 0.0 },
        );
        out.set(&format!("{class}.share"), ns / step_ns);
    }
    out.set("bench.step_coverage", step_ns / (tr.wall_s * 1e9));
    out.set("telemetry.export_ns", m.export_ns);
    out.set("telemetry.export_bytes", m.export_bytes as f64);
    out.set("telemetry.trace_len", m.trace_len as f64);
    out.report
        .num("idle_step_share", tr.ns[3] as f64 / step_ns)
        .num("group_step_share", tr.ns[2] as f64 / step_ns)
        .num("radio_step_share", (tr.ns[0] + tr.ns[1]) as f64 / step_ns)
        .num("step_coverage_gap", 1.0 - step_ns / (tr.wall_s * 1e9));
    let net = &m.net;
    out.set("net.tx", net.tx as f64);
    out.set("net.rx", net.rx as f64);
    out.set("net.collided", net.collided as f64);
    out.set("net.faded", net.faded as f64);
    out.set("net.half_duplex", net.half_duplex as f64);
    out.set("net.mac_dropped", net.mac_dropped as f64);
    out.set("net.bytes_on_air", net.bytes_on_air as f64);
    let attempts = net.rx + net.collided + net.faded + net.half_duplex;
    if attempts > 0 {
        out.set("net.rx_useful_ratio", net.rx as f64 / attempts as f64);
    }
}
