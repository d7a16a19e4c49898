//! The shared experiment harness: configure → run → audit.
//!
//! Every table and figure in the paper's evaluation (§6) is a sweep over
//! the same primitive: run the Figure-2 tracking application on a tank
//! crossing a grid, then audit the protocol event log. [`TrackingRun`]
//! is that primitive; [`TrackingOutcome`] carries the audited metrics.
//!
//! ## Handover audit (Fig. 4's metric)
//!
//! A *successful handover* is a leadership change within one context label
//! (the label follows the tank). An *unsuccessful handover* spawns a fresh
//! context label at the tank's new position, "not realizing that it refers
//! to the same tank" — i.e. every label created beyond the first counts as
//! a failure, whether or not the weight rule later suppresses it.
//!
//! ## Coherence criterion (Figs. 5–6's metric)
//!
//! The paper's *maximum trackable speed* is "the highest speed at which the
//! single group abstraction is maintained". A run is **coherent** when (a)
//! no label beyond the first was spawned for the tank and (b) the tank was
//! actually under a live leader for most of its crossing (the track never
//! went dark).

pub use envirotrack_core::api::tracker_program;
use envirotrack_core::context::ContextTypeId;
use envirotrack_core::events::SystemEvent;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::wire::kinds;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::geometry::Point;
use envirotrack_world::scenario::TankScenario;

/// The tracker context type id (the only type in the Figure-2 program).
pub const TRACKER: ContextTypeId = ContextTypeId(0);

/// One configured tracking run.
#[derive(Debug, Clone)]
pub struct TrackingRun {
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
    /// Lane the tank drives along.
    pub lane_y: f64,
    /// Tank speed in grid hops per second.
    pub speed_hops_per_s: f64,
    /// Magnetic sensing radius in grid units.
    pub sensing_radius: f64,
    /// Radio communication radius in grid units.
    pub comm_radius: f64,
    /// Per-receiver fade probability of the radio.
    pub base_loss: f64,
    /// Leader heartbeat period.
    pub heartbeat_period: SimDuration,
    /// Heartbeat flood TTL `h`.
    pub heartbeat_ttl: u8,
    /// Whether the relinquish optimisation is on.
    pub relinquish: bool,
    /// Overrides the node outer-loop (sensing) period. The paper's NesC
    /// template drives the *whole* stack from one timer handler, so the
    /// stress tests couple this to the heartbeat period; `None` keeps the
    /// default decoupled 200 ms loop.
    pub sense_period: Option<SimDuration>,
    /// RNG seed.
    pub seed: u64,
    /// Extra virtual time after the crossing completes.
    pub cooldown: SimDuration,
}

impl Default for TrackingRun {
    /// The paper's testbed configuration: 10×2 grid, lane y = 0.5, sensing
    /// radius 1, comm radius 6, 0.5 s heartbeats, h = 1, relinquish on.
    fn default() -> Self {
        TrackingRun {
            cols: 10,
            rows: 2,
            lane_y: 0.5,
            speed_hops_per_s: 0.1,
            sensing_radius: 1.0,
            comm_radius: 6.0,
            base_loss: 0.05,
            heartbeat_period: SimDuration::from_millis(500),
            heartbeat_ttl: 1,
            relinquish: true,
            sense_period: None,
            seed: 2,
            cooldown: SimDuration::from_secs(5),
        }
    }
}

/// The audited result of one tracking run.
#[derive(Debug, Clone)]
pub struct TrackingOutcome {
    /// Context labels minted for the tank.
    pub labels_created: usize,
    /// Labels deleted as spurious by the weight rule.
    pub labels_suppressed: usize,
    /// Successful leadership handovers within a label.
    pub handovers: usize,
    /// Fraction of in-field samples during which some leader tracked the
    /// tank, in `[0, 1]`.
    pub tracked_fraction: f64,
    /// The reported track: `(generation time, reported position)`.
    pub track: Vec<(Timestamp, Point)>,
    /// The true trajectory sampled at the report times.
    pub truth: Vec<(Timestamp, Point)>,
    /// Mean distance between reported and true positions.
    pub mean_error: f64,
    /// Heartbeat transmissions and loss ratio.
    pub hb_tx: u64,
    /// Per-receiver heartbeat loss ratio.
    pub hb_loss: f64,
    /// Member-report transmissions.
    pub report_tx: u64,
    /// Per-receiver member-report loss ratio.
    pub report_loss: f64,
    /// Worst-case broadcast link utilisation over the run.
    pub link_utilization: f64,
    /// Mote CPU tasks (admitted, dropped) summed over nodes.
    pub cpu: (u64, u64),
    /// Virtual duration of the run.
    pub elapsed: SimDuration,
}

impl TrackingOutcome {
    /// Failed handovers: labels spawned for an already-labelled tank.
    ///
    /// Zero labels means the tank was never tracked at all — that is not
    /// a failed handover (there was nothing to hand over), so both the
    /// 0-label and 1-label runs legitimately report zero here; the two
    /// are distinguished by [`handover_success_ratio`] and [`coherent`]
    /// consulting `labels_created` directly.
    ///
    /// [`handover_success_ratio`]: Self::handover_success_ratio
    /// [`coherent`]: Self::coherent
    #[must_use]
    pub fn failed_handovers(&self) -> usize {
        self.labels_created.saturating_sub(1)
    }

    /// Fig. 4's metric: successful handovers over all handover attempts,
    /// in `[0, 1]`. A single-label run with no transitions at all counts
    /// as 1.0, but a run that never minted a label tracked nothing and
    /// scores 0.0 — previously both collapsed to a perfect score.
    #[must_use]
    pub fn handover_success_ratio(&self) -> f64 {
        let attempts = self.handovers + self.failed_handovers();
        if attempts == 0 {
            if self.labels_created == 0 { 0.0 } else { 1.0 }
        } else {
            self.handovers as f64 / attempts as f64
        }
    }

    /// Figs. 5–6's criterion: the single-group abstraction held. Requires
    /// that a label existed at all — a run with zero labels never formed
    /// the abstraction, so it cannot be coherent.
    #[must_use]
    pub fn coherent(&self) -> bool {
        self.labels_created >= 1 && self.failed_handovers() == 0 && self.tracked_fraction >= 0.7
    }
}

/// Executes one tracking run and audits it.
#[must_use]
pub fn run_tracking(cfg: &TrackingRun) -> TrackingOutcome {
    let scenario = TankScenario {
        cols: cfg.cols,
        rows: cfg.rows,
        speed_hops_per_s: cfg.speed_hops_per_s,
        sensing_radius: cfg.sensing_radius,
        lane_y: cfg.lane_y,
        approach: cfg.sensing_radius.max(1.0) + 0.5,
    }
    .build();
    let tank = scenario
        .environment
        .target(scenario.primary_target)
        .expect("scenario has a tank")
        .clone();
    let crossing = tank
        .trajectory()
        .duration()
        .expect("the tank path is finite");

    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg
        .radio
        .with_comm_radius(cfg.comm_radius)
        .with_base_loss(cfg.base_loss);
    net_cfg.middleware = net_cfg
        .middleware
        .with_heartbeat_period(cfg.heartbeat_period)
        .with_heartbeat_ttl(cfg.heartbeat_ttl)
        .with_relinquish(cfg.relinquish);
    // Cross-label interactions only make sense within one stimulus's
    // footprint; scale with the sensing radius.
    net_cfg.middleware.proximity_radius = (2.5 * cfg.sensing_radius).max(3.0);
    if let Some(p) = cfg.sense_period {
        net_cfg.middleware.sense_period = p;
    }

    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        net_cfg,
        cfg.seed,
    );

    // Sample tracking liveness while the tank is inside the field.
    let field_min_x = 0.0;
    let field_max_x = f64::from(cfg.cols - 1);
    let mut in_field_samples = 0u32;
    let mut tracked_samples = 0u32;
    // Sample densely enough that fast crossings still get ~20 samples.
    let sample_every = SimDuration::from_secs_f64((0.5 / cfg.speed_hops_per_s).clamp(0.05, 1.0));
    let horizon = Timestamp::ZERO + crossing + cfg.cooldown;
    let mut t = Timestamp::ZERO;
    while t < horizon {
        t = (t + sample_every).min(horizon);
        engine.run_until(t);
        let pos = tank.position_at(t);
        if pos.x >= field_min_x && pos.x <= field_max_x {
            in_field_samples += 1;
            // Tracking means a leader *near the tank* — a stale leader left
            // behind by an overloaded node does not count.
            let world = engine.world();
            let near = world.leaders_of_type(TRACKER).iter().any(|(n, _)| {
                world.deployment().position(*n).distance_to(pos) <= cfg.sensing_radius + 1.0
            });
            if near {
                tracked_samples += 1;
            }
        }
    }

    let world = engine.world();
    let events = world.events();
    let labels_created = events.labels_created(TRACKER).len();
    let labels_suppressed = events.suppressed(TRACKER).len();
    let handovers = events.count(|e| matches!(e, SystemEvent::LeaderHandover { .. }));

    let mut track = Vec::new();
    let mut truth = Vec::new();
    let mut err_sum = 0.0;
    for (_, label_track) in world.base_log().tracks_of_type(TRACKER) {
        for (gen_t, p) in label_track {
            let actual = tank.position_at(gen_t);
            err_sum += p.distance_to(actual);
            track.push((gen_t, p));
            truth.push((gen_t, actual));
        }
    }
    let mean_error = if track.is_empty() {
        f64::NAN
    } else {
        err_sum / track.len() as f64
    };

    let stats = world.net_stats();
    let hb = stats.kind(kinds::HEARTBEAT);
    let rpt = stats.kind(kinds::REPORT);
    let elapsed = horizon - Timestamp::ZERO;

    TrackingOutcome {
        labels_created,
        labels_suppressed,
        handovers,
        tracked_fraction: if in_field_samples == 0 {
            0.0
        } else {
            f64::from(tracked_samples) / f64::from(in_field_samples)
        },
        track,
        truth,
        mean_error,
        hb_tx: hb.tx,
        hb_loss: hb.pair_loss_ratio(),
        report_tx: rpt.tx,
        report_loss: rpt.pair_loss_ratio(),
        link_utilization: stats.link_utilization(elapsed, world.config().radio.bandwidth_bps),
        cpu: world.cpu_totals(),
        elapsed,
    }
}

/// One measured benchmark case from [`measure`]: wall-clock statistics over
/// batched iterations.
#[derive(Debug, Clone)]
pub struct BenchMeasurement {
    /// Case name as printed.
    pub name: String,
    /// Total timed iterations (excluding warmup).
    pub iters: u64,
    /// Mean wall time per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// Fastest per-iteration batch mean, in nanoseconds.
    pub min_ns: f64,
    /// Slowest per-iteration batch mean, in nanoseconds.
    pub max_ns: f64,
}

/// Renders nanoseconds with a readable unit.
#[must_use]
pub fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:8.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:8.3} s ", ns / 1_000_000_000.0)
    }
}

impl BenchMeasurement {
    /// One aligned report line for the bench tables.
    #[must_use]
    pub fn report(&self) -> String {
        format!(
            "{:<44} {} /iter   ({} iters, min {}, max {})",
            self.name,
            format_ns(self.mean_ns),
            self.iters,
            format_ns(self.min_ns).trim_start(),
            format_ns(self.max_ns).trim_start(),
        )
    }
}

/// The timing loop behind the workspace's `cargo bench` targets (the
/// benches are plain `harness = false` binaries; no external bench crate).
///
/// Warms up for `warmup`, sizes batches to roughly 10 ms from the warmup's
/// per-iteration estimate, then measures batches until `target` wall time
/// has elapsed (at least three batches). Returns per-iteration statistics.
pub fn measure_with<R>(
    name: &str,
    warmup: std::time::Duration,
    target: std::time::Duration,
    mut f: impl FnMut() -> R,
) -> BenchMeasurement {
    use std::time::Instant;

    // Warmup: run until the budget elapses (at least once) and estimate
    // the per-iteration cost.
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    loop {
        std::hint::black_box(f());
        warm_iters += 1;
        if warm_start.elapsed() >= warmup {
            break;
        }
    }
    let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
    let batch = ((10_000_000.0 / est_ns) as u64).max(1);

    let mut iters = 0u64;
    let mut total_ns = 0.0f64;
    let mut min_ns = f64::INFINITY;
    let mut max_ns = 0.0f64;
    let mut batches = 0u32;
    let run_start = Instant::now();
    while batches < 3 || run_start.elapsed() < target {
        let t0 = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let batch_ns = t0.elapsed().as_nanos() as f64;
        let per_iter = batch_ns / batch as f64;
        total_ns += batch_ns;
        iters += batch;
        min_ns = min_ns.min(per_iter);
        max_ns = max_ns.max(per_iter);
        batches += 1;
    }

    BenchMeasurement {
        name: name.to_string(),
        iters,
        mean_ns: total_ns / iters as f64,
        min_ns,
        max_ns,
    }
}

/// [`measure_with`] under default budgets (100 ms warmup, 500 ms timed).
pub fn measure<R>(name: &str, f: impl FnMut() -> R) -> BenchMeasurement {
    measure_with(
        name,
        std::time::Duration::from_millis(100),
        std::time::Duration::from_millis(500),
        f,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_statistics() {
        let m = measure_with(
            "spin",
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(5),
            || std::hint::black_box((0..100u64).sum::<u64>()),
        );
        assert!(m.iters >= 3);
        assert!(m.mean_ns > 0.0);
        assert!(m.min_ns <= m.mean_ns && m.mean_ns <= m.max_ns + 1e-9);
        assert!(m.report().contains("spin"));
    }

    #[test]
    fn default_run_is_coherent_and_accurate() {
        let out = run_tracking(&TrackingRun::default());
        assert!(
            out.coherent(),
            "default testbed run must track coherently: {out:?}"
        );
        assert!(
            out.handovers >= 1,
            "the label should hand over along the path"
        );
        assert!(!out.track.is_empty(), "the pursuer should hear reports");
        assert!(out.mean_error < 1.5, "tracking error {}", out.mean_error);
        assert!(out.link_utilization > 0.0 && out.link_utilization < 0.5);
        assert_eq!(out.handover_success_ratio(), 1.0);
    }

    #[test]
    fn audits_are_deterministic_per_seed() {
        let a = run_tracking(&TrackingRun::default());
        let b = run_tracking(&TrackingRun::default());
        assert_eq!(a.labels_created, b.labels_created);
        assert_eq!(a.handovers, b.handovers);
        assert_eq!(a.hb_tx, b.hb_tx);
        assert_eq!(a.track, b.track);
    }

    #[test]
    fn zero_target_run_scores_zero_not_perfect() {
        use envirotrack_world::field::Deployment;
        use envirotrack_world::sensing::Environment;

        // A field with nothing to sense: no target ever crosses, so no
        // label is ever minted. That must read as "tracked nothing", not
        // as a flawless no-handover run.
        let mut engine = SensorNetwork::build_engine(
            tracker_program(),
            Deployment::grid(4, 4, 1.0),
            Environment::new(),
            NetworkConfig::default(),
            2,
        );
        engine.run_until(Timestamp::ZERO + SimDuration::from_secs(10));
        let events = engine.world().events();
        assert_eq!(events.labels_created(TRACKER).len(), 0);

        let base = run_tracking(&TrackingRun::default());
        let empty = TrackingOutcome {
            labels_created: 0,
            labels_suppressed: 0,
            handovers: 0,
            tracked_fraction: 0.0,
            track: Vec::new(),
            truth: Vec::new(),
            mean_error: f64::NAN,
            ..base.clone()
        };
        let single = TrackingOutcome {
            labels_created: 1,
            ..empty.clone()
        };
        // Same failed_handovers (0) for both, but the ratio and coherence
        // now tell the two apart.
        assert_eq!(empty.failed_handovers(), single.failed_handovers());
        assert_eq!(empty.handover_success_ratio(), 0.0);
        assert_eq!(single.handover_success_ratio(), 1.0);
        assert!(!empty.coherent());
    }

    #[test]
    fn absurd_speed_breaks_coherence() {
        let cfg = TrackingRun {
            speed_hops_per_s: 8.0,
            cols: 20,
            rows: 3,
            lane_y: 1.0,
            // Takeover-only mode, long heartbeat period: the group cannot
            // migrate fast enough.
            relinquish: false,
            heartbeat_period: SimDuration::from_secs(2),
            comm_radius: 2.0,
            ..TrackingRun::default()
        };
        let out = run_tracking(&cfg);
        assert!(
            !out.coherent(),
            "an 8 hops/s tank with 2 s heartbeats must not track coherently: {out:?}"
        );
    }
}
