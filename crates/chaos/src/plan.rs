//! Declarative fault plans.
//!
//! A [`FaultPlan`] is the whole chaos script of a run: a list of
//! `(time, event)` pairs, built either explicitly or pseudo-randomly from
//! a seed via [`FaultPlan::random`]. Plans carry no behaviour of their own
//! — [`crate::harness::install`] schedules them — so the same plan value
//! replays identically on any engine with the same seed.

pub use envirotrack_core::fault::FaultEvent;
use envirotrack_net::medium::{GilbertElliott, LinkFaults};
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::NodeId;

/// A seed-deterministic schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(Timestamp, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends one event; chainable. Events need not be added in time
    /// order — the kernel orders them.
    #[must_use]
    pub fn at(mut self, time: Timestamp, event: FaultEvent) -> Self {
        self.events.push((time, event));
        self
    }

    /// The scheduled events in insertion order.
    #[must_use]
    pub fn events(&self) -> &[(Timestamp, FaultEvent)] {
        &self.events
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the plan against a deployment size.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid event: a node id out of
    /// range, a partition mask of the wrong length, a clock rate outside
    /// `[0.5, 2.0]`, or a link-fault probability outside `[0, 1]`.
    pub fn validate(&self, node_count: usize) -> Result<(), String> {
        for (t, ev) in &self.events {
            let bad_node = |n: NodeId| n.index() >= node_count;
            match ev {
                FaultEvent::Crash(n) | FaultEvent::Reboot(n) if bad_node(*n) => {
                    return Err(format!("{}: node {} out of range", t, n.0));
                }
                FaultEvent::Partition(groups) if groups.len() != node_count => {
                    return Err(format!(
                        "{}: partition mask has {} entries for {} nodes",
                        t,
                        groups.len(),
                        node_count
                    ));
                }
                FaultEvent::ClockRate { node, rate } => {
                    if bad_node(*node) {
                        return Err(format!("{}: node {} out of range", t, node.0));
                    }
                    if !(0.5..=2.0).contains(rate) {
                        return Err(format!("{t}: clock rate {rate} outside [0.5, 2.0]"));
                    }
                }
                FaultEvent::LinkFaultsOn(f) => {
                    for (name, p) in [
                        ("flip_per_byte", f.flip_per_byte),
                        ("truncate", f.truncate),
                        ("duplicate", f.duplicate),
                        ("reorder", f.reorder),
                    ] {
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("{t}: link-fault {name} {p} outside [0, 1]"));
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Generates a pseudo-random but well-formed plan from a seed: a
    /// handful of crash/reboot pairs, at most one partition interval
    /// (healed before the horizon), at most one burst-loss interval, at
    /// most one link-fault interval, and a few bounded clock skews. Same
    /// seed, node count, and horizon → the identical plan.
    #[must_use]
    pub fn random(seed: u64, node_count: usize, horizon: SimDuration) -> Self {
        let mut rng = SimRng::seed_from(seed).fork("fault-plan");
        let span = horizon.as_micros().max(1);
        let mut plan = FaultPlan::new();
        let when = |rng: &mut SimRng, lo_frac: u64, hi_frac: u64| {
            // A uniform instant in [span*lo/8, span*hi/8).
            let lo = span * lo_frac / 8;
            let hi = (span * hi_frac / 8).max(lo + 1);
            Timestamp::from_micros(lo + rng.below(hi - lo))
        };

        // Crash/reboot pairs on distinct random nodes.
        let crashes = 1 + rng.below(3);
        for _ in 0..crashes {
            let node = NodeId(u32::try_from(rng.below(node_count as u64)).unwrap_or(0));
            let down = when(&mut rng, 1, 4);
            let up = down + SimDuration::from_micros(1 + rng.below(span / 4));
            plan = plan
                .at(down, FaultEvent::Crash(node))
                .at(up, FaultEvent::Reboot(node));
        }
        // One optional partition interval, split along a random group map.
        if rng.chance(0.7) {
            let groups = (0..node_count)
                .map(|_| u8::try_from(rng.below(2)).unwrap_or(0))
                .collect();
            let start = when(&mut rng, 2, 5);
            let end = start + SimDuration::from_micros(1 + rng.below(span / 4));
            plan = plan
                .at(start, FaultEvent::Partition(groups))
                .at(end, FaultEvent::Heal);
        }
        // One optional burst-loss interval with the default model.
        if rng.chance(0.7) {
            let start = when(&mut rng, 1, 5);
            let end = start + SimDuration::from_micros(1 + rng.below(span / 4));
            plan = plan
                .at(start, FaultEvent::BurstLossOn(GilbertElliott::default()))
                .at(end, FaultEvent::BurstLossOff);
        }
        // One optional link-fault interval with the default soak profile.
        if rng.chance(0.7) {
            let start = when(&mut rng, 1, 5);
            let end = start + SimDuration::from_micros(1 + rng.below(span / 4));
            plan = plan
                .at(start, FaultEvent::LinkFaultsOn(LinkFaults::default()))
                .at(end, FaultEvent::LinkFaultsOff);
        }
        // A few bounded clock skews (±10 %).
        let skews = rng.below(3);
        for _ in 0..skews {
            let node = NodeId(u32::try_from(rng.below(node_count as u64)).unwrap_or(0));
            let rate = 0.9 + rng.below(21) as f64 * 0.01;
            plan = plan.at(when(&mut rng, 0, 3), FaultEvent::ClockRate { node, rate });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_each_malformed_event() {
        let ok = FaultPlan::new()
            .at(Timestamp::from_secs(1), FaultEvent::Crash(NodeId(3)))
            .at(Timestamp::from_secs(2), FaultEvent::Partition(vec![0; 9]))
            .at(
                Timestamp::from_secs(3),
                FaultEvent::ClockRate {
                    node: NodeId(0),
                    rate: 1.05,
                },
            );
        assert!(ok.validate(9).is_ok());

        let bad_node =
            FaultPlan::new().at(Timestamp::from_secs(1), FaultEvent::Crash(NodeId(9)));
        assert!(bad_node.validate(9).unwrap_err().contains("out of range"));

        let bad_mask =
            FaultPlan::new().at(Timestamp::from_secs(1), FaultEvent::Partition(vec![0; 4]));
        assert!(bad_mask.validate(9).unwrap_err().contains("4 entries"));

        let bad_rate = FaultPlan::new().at(
            Timestamp::from_secs(1),
            FaultEvent::ClockRate {
                node: NodeId(0),
                rate: 3.0,
            },
        );
        assert!(bad_rate.validate(9).unwrap_err().contains("clock rate"));
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        for seed in 0..20 {
            let a = FaultPlan::random(seed, 25, SimDuration::from_secs(60));
            let b = FaultPlan::random(seed, 25, SimDuration::from_secs(60));
            assert_eq!(a, b, "seed {seed} not deterministic");
            a.validate(25).expect("random plans must be well-formed");
            assert!(!a.is_empty());
        }
        // Different seeds diverge (overwhelmingly likely across 20 seeds).
        let distinct: std::collections::BTreeSet<usize> = (0..20)
            .map(|s| FaultPlan::random(s, 25, SimDuration::from_secs(60)).len())
            .collect();
        assert!(distinct.len() > 1 || FaultPlan::random(0, 25, SimDuration::from_secs(60)) != FaultPlan::random(1, 25, SimDuration::from_secs(60)));
    }

    #[test]
    fn describe_is_stable_and_informative() {
        assert_eq!(FaultEvent::Crash(NodeId(4)).describe(), "crash node 4");
        assert_eq!(
            FaultEvent::Partition(vec![0, 1, 0, 1]).describe(),
            "partition into 2 regions"
        );
        assert!(FaultEvent::BurstLossOn(GilbertElliott::default())
            .describe()
            .contains("0.85"));
    }
}
