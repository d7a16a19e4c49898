//! Failure-injection integration tests: the middleware's whole premise is
//! that "applications must not depend on the correctness or availability
//! of any particular node" — so break nodes and the channel, on purpose.

use envirotrack::core::context::ContextTypeId;
use envirotrack::core::network::{NetworkConfig, SensorNetwork};
use envirotrack::core::prelude::*;
use envirotrack::sim::engine::Engine;
use envirotrack::sim::time::{SimDuration, Timestamp};
use envirotrack::world::scenario::TankScenario;

const TRACKER: ContextTypeId = ContextTypeId(0);

fn build(speed: f64, loss: f64, seed: u64) -> Engine<SensorNetwork> {
    let scenario = TankScenario::default()
        .with_grid(12, 3)
        .with_speed_hops_per_s(speed)
        .build();
    let mut cfg = NetworkConfig::default();
    cfg.radio = cfg.radio.with_base_loss(loss);
    SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        cfg,
        seed,
    )
}

#[test]
fn tracking_survives_heavy_fading() {
    // 30 % per-receiver loss: far beyond the paper's worst measured rate.
    for seed in [1u64, 2, 3] {
        let mut engine = build(0.05, 0.30, seed);
        engine.run_until(Timestamp::from_secs(280));
        let world = engine.world();
        let created = world.events().labels_created(TRACKER).len();
        let suppressed = world.events().suppressed(TRACKER).len();
        assert!(
            created - suppressed <= 1,
            "seed {seed}: coherence lost under 30% fade: created {created}, suppressed {suppressed}"
        );
        assert!(
            !world.base_log().is_empty(),
            "seed {seed}: no report survived 30% fade (link ACKs should cope)"
        );
    }
}

#[test]
fn repeated_leader_assassination_does_not_stop_tracking() {
    let mut engine = build(0.03, 0.05, 9);
    // Let the group form.
    engine.run_until(Timestamp::from_secs(30));
    assert_eq!(engine.world().leaders_of_type(TRACKER).len(), 1);

    // Kill every leader the moment we see it, five times in a row.
    let mut kills = 0;
    let mut t = Timestamp::from_secs(30);
    while kills < 5 {
        t += SimDuration::from_secs(8);
        engine.run_until(t);
        if let Some(&(leader, _)) = engine.world().leaders_of_type(TRACKER).first() {
            engine.world_mut().kill_node(leader);
            kills += 1;
        }
    }
    // After the spree, tracking has recovered on a live node.
    engine.run_until(t + SimDuration::from_secs(12));
    let world = engine.world();
    let leaders = world.leaders_of_type(TRACKER);
    assert_eq!(leaders.len(), 1, "tracking must recover, got {leaders:?}");
    assert!(world.is_alive(leaders[0].0));
    // The label survives each kill whenever any member outlived the
    // leader: new labels are allowed only when a whole group died, so the
    // total stays far below one-per-kill.
    let created = world.events().labels_created(TRACKER).len();
    assert!(
        created <= 1 + kills,
        "label churn exceeded one per assassination: {created} labels for {kills} kills"
    );
    let takeovers = world.events().count(|e| {
        matches!(
            e,
            envirotrack::core::events::SystemEvent::LeaderHandover {
                reason: envirotrack::core::events::HandoverReason::ReceiveTimeout,
                ..
            }
        )
    });
    assert!(
        takeovers >= 2,
        "most assassinations should resolve via takeover, got {takeovers}"
    );
}

#[test]
fn revived_node_rejoins_cleanly() {
    let mut engine = build(0.02, 0.05, 4);
    engine.run_until(Timestamp::from_secs(40));
    let (leader, label) = engine.world().leaders_of_type(TRACKER)[0];
    engine.world_mut().kill_node(leader);
    engine.run_until(Timestamp::from_secs(55));
    // Revive with amnesia and restart its sensing loop.
    engine.world_mut().revive_node(leader);
    engine
        .kernel_mut()
        .schedule_at(Timestamp::from_secs(55), move |w: &mut SensorNetwork, k| {
            w.sense_tick(k, leader);
        });
    engine.run_until(Timestamp::from_secs(90));
    let world = engine.world();
    let leaders = world.leaders_of_type(TRACKER);
    assert_eq!(
        leaders.len(),
        1,
        "exactly one label after the revival: {leaders:?}"
    );
    assert_eq!(
        leaders[0].1, label,
        "the revived node must not have forked the label"
    );
}

#[test]
fn killing_every_group_member_restarts_tracking_with_a_new_label() {
    let mut engine = build(0.02, 0.05, 12);
    engine.run_until(Timestamp::from_secs(40));
    let world = engine.world_mut();
    let (leader, label) = world.leaders_of_type(TRACKER)[0];
    let members = world.members_of_label(label);
    world.kill_node(leader);
    for m in &members {
        world.kill_node(*m);
    }
    // The tank keeps moving; new nodes sense it and must eventually mint a
    // fresh label (the old one's holders are all dead).
    engine.run_until(Timestamp::from_secs(150));
    let world = engine.world();
    let leaders = world.leaders_of_type(TRACKER);
    assert_eq!(leaders.len(), 1, "tracking must resume: {leaders:?}");
    assert!(world.is_alive(leaders[0].0));
    let created = world.events().labels_created(TRACKER).len();
    assert!(
        created >= 2,
        "a fresh label was required after annihilation"
    );
}
