//! Hosts: single-port endpoints driven by application state machines.

use std::any::Any;
use std::sync::Arc;

use iswitch_obs::{Timeseries, Trace};

use crate::engine::{Context, Device};
use crate::ids::{PortId, TimerId};
use crate::packet::{IpAddr, Packet};
use crate::time::{SimDuration, SimTime};

/// Services available to a [`HostApp`] during a callback.
pub struct HostCtx<'a, 'b> {
    ctx: &'a mut Context<'b>,
    ip: IpAddr,
}

impl<'a, 'b> HostCtx<'a, 'b> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This host's IP address.
    pub fn ip(&self) -> IpAddr {
        self.ip
    }

    /// Sends a packet out of the host's single uplink port.
    pub fn send(&mut self, pkt: Packet) {
        self.ctx.send(PortId(0), pkt);
    }

    /// Schedules an `on_timer` callback after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.ctx.set_timer(delay, token)
    }

    /// Cancels a pending timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.ctx.cancel_timer(id);
    }

    /// The causal trace sink, if tracing is enabled for this simulation.
    pub fn trace(&self) -> Option<&Arc<Trace>> {
        self.ctx.trace()
    }

    /// The counter-track telemetry sink, if timeseries sampling is enabled.
    /// Host apps record per-worker tracks here (e.g.
    /// `cluster.worker.IP.tx_rate_bps`).
    pub fn timeseries(&self) -> Option<&Arc<Timeseries>> {
        self.ctx.timeseries()
    }
}

/// Application logic running on a [`Host`].
///
/// Implementations are event-driven state machines: they get a start
/// callback at time zero, packet callbacks, and timer callbacks. Long local
/// computation is modelled by setting a timer for the compute duration
/// rather than blocking.
pub trait HostApp: Send + 'static {
    /// Called once at simulation start.
    fn on_start(&mut self, _ctx: &mut HostCtx<'_, '_>) {}

    /// Called for each packet delivered to this host.
    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Packet);

    /// Called when a timer set via [`HostCtx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut HostCtx<'_, '_>, _token: u64) {}

    /// Upcast for concrete-type recovery via [`Host::app`].
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for concrete-type recovery.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A single-port endpoint with an IP address and a [`HostApp`].
pub struct Host {
    ip: IpAddr,
    app: Box<dyn HostApp>,
}

impl Host {
    /// A host at `ip` running `app`.
    pub fn new(ip: IpAddr, app: Box<dyn HostApp>) -> Self {
        Host { ip, app }
    }

    /// This host's IP address.
    pub fn ip(&self) -> IpAddr {
        self.ip
    }

    /// Borrows the app as concrete type `T`.
    ///
    /// # Panics
    ///
    /// Panics if the app is not a `T`.
    pub fn app<T: HostApp>(&self) -> &T {
        self.app
            .as_any()
            .downcast_ref::<T>()
            .expect("host app type mismatch")
    }
}

impl Device for Host {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut hctx = HostCtx { ctx, ip: self.ip };
        self.app.on_start(&mut hctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortId, pkt: Packet) {
        let mut hctx = HostCtx { ctx, ip: self.ip };
        self.app.on_packet(&mut hctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let mut hctx = HostCtx { ctx, ip: self.ip };
        self.app.on_timer(&mut hctx, token);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NodeOpts, Simulator};
    use crate::link::LinkSpec;

    struct Chatter {
        peer: IpAddr,
        inbox: Vec<Packet>,
        start_delay: SimDuration,
    }
    impl HostApp for Chatter {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
            ctx.set_timer(self.start_delay, 0);
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
            self.inbox.push(pkt);
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, _token: u64) {
            let pkt = Packet::udp(ctx.ip(), self.peer, 9, 9, 0).with_payload(vec![1u8; 4]);
            ctx.send(pkt);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn hosts_exchange_packets_over_a_direct_link() {
        let ip_a = IpAddr::new(10, 0, 0, 1);
        let ip_b = IpAddr::new(10, 0, 0, 2);
        let mut sim = Simulator::new();
        let a = sim.add_node(
            Box::new(Host::new(
                ip_a,
                Box::new(Chatter {
                    peer: ip_b,
                    inbox: vec![],
                    start_delay: SimDuration::ZERO,
                }),
            )),
            NodeOpts::new("a"),
        );
        let b = sim.add_node(
            Box::new(Host::new(
                ip_b,
                Box::new(Chatter {
                    peer: ip_a,
                    inbox: vec![],
                    start_delay: SimDuration::from_micros(5),
                }),
            )),
            NodeOpts::new("b"),
        );
        sim.connect(a, b, &LinkSpec::ten_gbe());
        sim.run_until_idle();
        assert_eq!(sim.device::<Host>(a).app::<Chatter>().inbox.len(), 1);
        assert_eq!(sim.device::<Host>(b).app::<Chatter>().inbox.len(), 1);
        assert_eq!(sim.device::<Host>(b).app::<Chatter>().inbox[0].ip.src, ip_a);
    }
}
