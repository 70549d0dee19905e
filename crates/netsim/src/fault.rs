//! Deterministic fault injection: timed schedules of link and node events
//! executed by the event engine.
//!
//! A [`FaultAction`] is scheduled on a [`Simulator`](crate::Simulator)
//! before (or during) a run via
//! [`Simulator::schedule_fault`](crate::Simulator::schedule_fault). Each
//! action becomes an ordinary scheduled event, so faults interleave with
//! packet deliveries and timers through the same `(time, sequence)` total
//! order — two runs with the same schedule and seeds are byte-identical.
//!
//! Actions cover the failure modes of the paper's §3.3 control plane
//! discussion: link failures ([`FaultAction::LinkDown`]/[`FaultAction::LinkUp`],
//! which also model host crash/rejoin — a host whose access link is down is
//! unreachable), loss-rate changes ([`FaultAction::SetLinkLoss`]), latency
//! degradation ([`FaultAction::DelaySpike`]), and device-directed triggers
//! ([`FaultAction::InjectTimer`], used e.g. to reset a switch's aggregation
//! accelerator mid-run via `iswitch-core`'s fault-reset timer token).

use crate::ids::{LinkId, NodeId};
use crate::link::LossModel;
use crate::time::SimDuration;

/// One fault to apply to the simulation.
///
/// # Examples
///
/// ```
/// use iswitch_netsim::{
///     build_star, FaultAction, HostApp, HostCtx, Packet, SimTime, Simulator, TopologyConfig,
/// };
///
/// struct Quiet;
/// impl HostApp for Quiet {
///     fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, _pkt: Packet) {}
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut sim = Simulator::new();
/// let star = build_star(&mut sim, vec![Box::new(Quiet)], None, &TopologyConfig::default());
/// // Host 0's access link fails at 1 ms and is back at 2 ms.
/// let link = star.host_links[0];
/// sim.schedule_fault(SimTime::from_nanos(1_000_000), FaultAction::LinkDown { link });
/// sim.schedule_fault(SimTime::from_nanos(2_000_000), FaultAction::LinkUp { link });
/// sim.run_until_idle();
/// assert_eq!(sim.stats().faults_applied, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Takes a link down: every packet handed to either direction is
    /// discarded until a matching [`FaultAction::LinkUp`].
    LinkDown {
        /// The link to fail.
        link: LinkId,
    },
    /// Restores a downed link.
    LinkUp {
        /// The link to restore.
        link: LinkId,
    },
    /// Replaces a link's loss model (both directions share one model). The
    /// per-link sequence counter keeps running; a fresh `Random` model is
    /// reseeded from its own seed.
    SetLinkLoss {
        /// The link to modify.
        link: LinkId,
        /// The new loss behaviour.
        loss: LossModel,
    },
    /// Adds a fixed extra one-way delay to every delivery on a link (both
    /// directions) — a congestion/BER latency spike.
    DelaySpike {
        /// The link to slow down.
        link: LinkId,
        /// Extra per-packet delay.
        extra: SimDuration,
    },
    /// Clears a previous [`FaultAction::DelaySpike`].
    ClearDelaySpike {
        /// The link to restore.
        link: LinkId,
    },
    /// Fires `on_timer(token)` on a node's device, as if a timer had been
    /// scheduled for this instant. This is the generic device-directed
    /// fault hook: `iswitch-core` reserves a token that makes its switch
    /// extension reset the aggregation accelerator (a switch restart).
    InjectTimer {
        /// The node whose device receives the callback.
        node: NodeId,
        /// Token passed to `on_timer`.
        token: u64,
    },
}

impl FaultAction {
    /// The link this action targets, if any.
    pub fn link(&self) -> Option<LinkId> {
        match *self {
            FaultAction::LinkDown { link }
            | FaultAction::LinkUp { link }
            | FaultAction::SetLinkLoss { link, .. }
            | FaultAction::DelaySpike { link, .. }
            | FaultAction::ClearDelaySpike { link } => Some(link),
            FaultAction::InjectTimer { .. } => None,
        }
    }

    /// The node this action targets, if any.
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            FaultAction::InjectTimer { node, .. } => Some(node),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_expose_targets() {
        let actions = [
            FaultAction::LinkDown { link: LinkId(3) },
            FaultAction::LinkUp { link: LinkId(3) },
            FaultAction::SetLinkLoss {
                link: LinkId(0),
                loss: LossModel::Random {
                    probability: 0.25,
                    seed: 7,
                },
            },
            FaultAction::SetLinkLoss {
                link: LinkId(1),
                loss: LossModel::Exact {
                    drops: vec![4, 9, 12],
                },
            },
            FaultAction::DelaySpike {
                link: LinkId(2),
                extra: SimDuration::from_micros(50),
            },
            FaultAction::ClearDelaySpike { link: LinkId(2) },
            FaultAction::InjectTimer {
                node: NodeId(1),
                token: u64::MAX - 1,
            },
        ];
        assert_eq!(actions[0].link(), Some(LinkId(3)));
        assert_eq!(actions[0].node(), None);
        assert_eq!(actions[6].node(), Some(NodeId(1)));
        assert_eq!(actions[6].link(), None);
    }
}
