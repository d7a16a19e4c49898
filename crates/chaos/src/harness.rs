//! Installing a fault plan and monitor into an engine.
//!
//! [`install`] turns a [`FaultPlan`] into ordinary kernel events on an
//! existing [`Engine<SensorNetwork>`] and starts the recurring invariant
//! tick, returning the shared [`InvariantMonitor`]. The harness owns no
//! event loop of its own: everything rides the simulation kernel, so fault
//! timing composes deterministically with protocol traffic under a single
//! seed. The world applies each fault itself
//! ([`SensorNetwork::apply_fault`], the applier sharded runs use too); the
//! harness only records it on the monitor first.

use std::cell::RefCell;
use std::rc::Rc;

use envirotrack_core::network::SensorNetwork;
use envirotrack_core::report::RunRecord;
use envirotrack_sim::engine::{Engine, Kernel};
use envirotrack_sim::time::Timestamp;

use crate::monitor::{InvariantMonitor, MonitorConfig};
use crate::plan::{FaultEvent, FaultPlan};

/// Shared monitor handle: kernel events and the caller both sample it.
pub type MonitorHandle = Rc<RefCell<InvariantMonitor>>;

/// Schedules every event of `plan` on the engine's kernel, enables the
/// medium's delivery audit log, and starts the invariant tick. Returns the
/// monitor to inspect after the run.
///
/// # Panics
///
/// Panics when the plan fails [`FaultPlan::validate`] against the engine's
/// deployment — a malformed plan is a harness bug, not a run outcome.
pub fn install(
    engine: &mut Engine<SensorNetwork>,
    plan: FaultPlan,
    seed: u64,
    cfg: MonitorConfig,
) -> MonitorHandle {
    plan.validate(engine.world().deployment().len())
        .expect("fault plan must match the deployment");
    let monitor: MonitorHandle =
        Rc::new(RefCell::new(InvariantMonitor::new(seed, engine.world(), cfg)));
    engine.world_mut().set_delivery_log(true);

    let k = engine.kernel_mut();
    for (at, event) in plan.events().iter().cloned() {
        let mon = Rc::clone(&monitor);
        k.schedule_at(at.max(k.now()), move |w: &mut SensorNetwork, k| {
            let mut mon = mon.borrow_mut();
            mon.note_fault(k.now(), event.describe());
            if matches!(event, FaultEvent::Partition(_) | FaultEvent::Heal) {
                // Judge the delivery log by the outgoing mask before
                // switching.
                mon.check_deliveries(w, k.now());
            }
            drop(mon);
            w.apply_fault(k, &event);
        });
    }
    let mon = Rc::clone(&monitor);
    let first = k.now() + cfg.tick;
    k.schedule_at(first, move |w: &mut SensorNetwork, k| {
        monitor_tick(w, k, mon, cfg);
    });
    monitor
}

/// One run summary for JSON-lines emission: the world's counters plus the
/// monitor's violation count.
#[must_use]
pub fn summarize(
    world: &SensorNetwork,
    seed: u64,
    now: Timestamp,
    monitor: &InvariantMonitor,
) -> RunRecord {
    world.run_record(
        seed,
        now.saturating_since(Timestamp::ZERO),
        monitor.violations().len() as u64,
    )
}

fn monitor_tick(
    w: &mut SensorNetwork,
    k: &mut Kernel<SensorNetwork>,
    monitor: MonitorHandle,
    cfg: MonitorConfig,
) {
    // Reschedule first so a panicking check still leaves a live loop when
    // tests catch and continue.
    let mon = Rc::clone(&monitor);
    k.schedule_at(k.now() + cfg.tick, move |w: &mut SensorNetwork, k| {
        monitor_tick(w, k, mon, cfg);
    });
    monitor.borrow_mut().check(w, k.now());
}
