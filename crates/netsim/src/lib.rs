//! # iswitch-netsim
//!
//! A deterministic discrete-event network simulator purpose-built for the
//! iSwitch (ISCA '19) reproduction. It models the pieces of a rack-scale
//! Ethernet deployment that determine gradient-aggregation latency:
//!
//! * full-duplex links with line-rate serialization, propagation delay, and
//!   FIFO queueing (plus optional loss injection),
//! * store-and-forward switches with static IP routing and a pluggable
//!   [`SwitchExtension`] hook — the seam where `iswitch-core` installs the
//!   in-switch aggregation accelerator,
//! * hosts running event-driven [`HostApp`] state machines with per-packet
//!   NIC/stack overheads, and
//! * topology builders for the paper's two deployment shapes (star and
//!   two-layer ToR/Core tree).
//!
//! Determinism: all state advances through a single event queue ordered by
//! `(time, insertion sequence)`; any randomness (loss models) is seeded.
//!
//! ## Example
//!
//! ```
//! use iswitch_netsim::{
//!     build_star, host_ip, HostApp, HostCtx, Packet, Simulator, TopologyConfig,
//! };
//!
//! struct Hello { to: usize, heard: usize }
//! impl HostApp for Hello {
//!     fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
//!         let pkt = Packet::udp(ctx.ip(), host_ip(0, self.to), 9, 9, 0);
//!         ctx.send(pkt);
//!     }
//!     fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, _pkt: Packet) {
//!         self.heard += 1;
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut sim = Simulator::new();
//! let star = build_star(
//!     &mut sim,
//!     vec![Box::new(Hello { to: 1, heard: 0 }), Box::new(Hello { to: 0, heard: 0 })],
//!     None,
//!     &TopologyConfig::default(),
//! );
//! sim.run_until_idle();
//! let h0 = sim.device::<iswitch_netsim::Host>(star.hosts[0]).app::<Hello>();
//! assert_eq!(h0.heard, 1);
//! ```

#![warn(missing_docs)]

mod engine;
mod fault;
mod host;
mod ids;
mod link;
mod obs;
mod packet;
mod shard;
mod stats;
mod switch;
mod time;
mod topology;
mod wheel;

pub use engine::{Context, Device, NodeOpts, Simulator};
pub use fault::{FaultAction, FaultEvent, FaultPlan};
pub use host::{Host, HostApp, HostCtx};
pub use ids::{LinkId, NodeId, PortId, TimerId};
pub use link::{EgressQueue, LinkSpec, LossModel};
pub use packet::{
    CausalKey, IpAddr, Ipv4Header, Packet, UdpHeader, ECN_CE, ECN_MASK, ETH_OVERHEAD,
    ETH_PREAMBLE_IFG, IPV4_HEADER, MAX_FRAME, MAX_UDP_PAYLOAD, UDP_HEADER,
};
pub use shard::{CrossAttach, ShardedSim};
pub use stats::SimStats;
pub use switch::{ExtAction, RouteTable, Switch, SwitchExtension, SwitchServices};
pub use time::{SimDuration, SimTime};
pub use topology::{
    build_fattree, build_star, build_tree, build_tree3, host_ip, Fattree, FattreeShape, Star,
    SwitchRole, TopologyConfig, Tree, Tree3,
};
