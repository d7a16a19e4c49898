//! The fault vocabulary shared by chaos plans and sharded runs.
//!
//! A [`FaultEvent`] is one scripted fault. Monolithic runs schedule them
//! through the chaos harness; sharded runs quantize them to epoch barriers
//! ([`crate::shard::run_sharded`]). Either way the world applies one with
//! [`crate::network::SensorNetwork::apply_fault`], so both execution modes
//! share a single applier.

use envirotrack_net::medium::{GilbertElliott, LinkFaults, Medium};
use envirotrack_world::field::NodeId;

/// One scripted fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The node dies: no sensing, processing, or transmission.
    Crash(NodeId),
    /// The node reboots with amnesia (fresh protocol state) and restarts
    /// its sensing loop.
    Reboot(NodeId),
    /// Install a partition mask: nodes with different group values cannot
    /// exchange frames. The vector must name a group per node.
    Partition(Vec<u8>),
    /// Remove any active partition mask and kick one anti-entropy round on
    /// every live directory replica.
    Heal,
    /// Install a Gilbert–Elliott burst-loss model on the channel.
    BurstLossOn(GilbertElliott),
    /// Remove the burst-loss model (base fading remains).
    BurstLossOff,
    /// Install a link-level fault injector: bit-flip corruption,
    /// truncation, duplication, and bounded reordering of frames in
    /// flight.
    LinkFaultsOn(LinkFaults),
    /// Remove the link-level fault injector.
    LinkFaultsOff,
    /// Set a node's clock rate (1.0 = ideal). Must stay within the
    /// bounded-skew range `[0.5, 2.0]`.
    ClockRate {
        /// The skewed node.
        node: NodeId,
        /// Local seconds per global second.
        rate: f64,
    },
}

impl FaultEvent {
    /// A compact human-readable form, used in violation traces.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            FaultEvent::Crash(n) => format!("crash node {}", n.0),
            FaultEvent::Reboot(n) => format!("reboot node {}", n.0),
            FaultEvent::Partition(groups) => {
                let distinct = {
                    let mut g: Vec<u8> = groups.clone();
                    g.sort_unstable();
                    g.dedup();
                    g.len()
                };
                format!("partition into {distinct} regions")
            }
            FaultEvent::Heal => "heal partition".to_string(),
            FaultEvent::BurstLossOn(m) => {
                format!("burst loss on (bad={:.2})", m.loss_bad)
            }
            FaultEvent::BurstLossOff => "burst loss off".to_string(),
            FaultEvent::LinkFaultsOn(f) => {
                format!("link faults on (flip/byte={:.0e})", f.flip_per_byte)
            }
            FaultEvent::LinkFaultsOff => "link faults off".to_string(),
            FaultEvent::ClockRate { node, rate } => {
                format!("clock rate node {} = {rate:.3}", node.0)
            }
        }
    }

    /// Installs a channel fault on `medium` and returns `true`; node faults
    /// leave it untouched and return `false`. Installing draws no
    /// randomness, so a medium that never needs a fault (the sharded
    /// scheduler never delivers, so burst chains are idle there) can take
    /// it anyway.
    pub(crate) fn apply_to_channel(&self, medium: &mut Medium) -> bool {
        match self {
            FaultEvent::Partition(groups) => medium.set_partition(Some(groups.clone())),
            FaultEvent::Heal => medium.set_partition(None),
            FaultEvent::BurstLossOn(model) => medium.set_burst_loss(Some(*model)),
            FaultEvent::BurstLossOff => medium.set_burst_loss(None),
            FaultEvent::LinkFaultsOn(faults) => medium.set_link_faults(Some(*faults)),
            FaultEvent::LinkFaultsOff => medium.set_link_faults(None),
            FaultEvent::Crash(_) | FaultEvent::Reboot(_) | FaultEvent::ClockRate { .. } => {
                return false;
            }
        }
        true
    }
}
