//! Telemetry on the flagship chaos storm: run it, then print the
//! end-of-run summary table and a digest of the protocol trace.
//!
//! The output is fully determined by the seed — `scripts/verify.sh` runs
//! this twice and diffs the bytes as the telemetry determinism smoke.
//!
//! Run with: `cargo run --example telemetry_summary [seed]`

use envirotrack::chaos::harness;
use envirotrack::chaos::monitor::MonitorConfig;
use envirotrack::chaos::plan::{FaultEvent, FaultPlan};
use envirotrack::core::prelude::*;
use envirotrack::core::report::{telemetry_summary, telemetry_to_jsonl};
use envirotrack::net::medium::GilbertElliott;
use envirotrack::sim::time::Timestamp;
use envirotrack::world::scenario::TankScenario;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let scenario = TankScenario::default()
        .with_grid(12, 3)
        .with_speed_hops_per_s(0.03)
        .build();
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        seed,
    );
    engine.run_until(Timestamp::from_secs(30));
    let leader = engine.world().leaders_of_type(ContextTypeId(0))[0].0;
    let split: Vec<u8> = engine
        .world()
        .deployment()
        .iter()
        .map(|(_, p)| u8::from(p.x >= 6.0))
        .collect();
    let at = Timestamp::from_secs;
    let plan = FaultPlan::new()
        .at(at(31), FaultEvent::Crash(leader))
        .at(at(32), FaultEvent::BurstLossOn(GilbertElliott::default()))
        .at(at(35), FaultEvent::Partition(split))
        .at(at(40), FaultEvent::Reboot(leader))
        .at(at(45), FaultEvent::Heal)
        .at(at(52), FaultEvent::BurstLossOff);
    let monitor = harness::install(&mut engine, plan, seed, MonitorConfig::default());
    engine.run_until(Timestamp::from_secs(90));

    let world = engine.world();
    let telemetry = world.telemetry();
    print!("{}", telemetry_summary(telemetry));
    println!("violations: {}", monitor.borrow().violations().len());

    let jsonl = telemetry_to_jsonl(telemetry);
    println!("trace stream: {} JSON lines", jsonl.lines().count());
    println!("last protocol events:");
    for line in telemetry.last_events(10) {
        println!("  {line}");
    }
}
