//! Store-and-forward Ethernet switch with a pluggable extension hook.
//!
//! The [`Switch`] device forwards packets by destination IP using a static
//! [`RouteTable`]. A [`SwitchExtension`] — the mechanism through which
//! `iswitch-core` injects its in-switch aggregation accelerator — sees every
//! packet first and may consume it, emit new packets, or pass it through to
//! regular forwarding, mirroring the paper's extended input arbiter (Fig. 6):
//! tagged packets divert to the accelerator, everything else follows the
//! normal packet-process path.

use std::any::Any;
use std::sync::Arc;

use iswitch_obs::{Registry, Timeseries, Trace};

use crate::engine::{Context, Device};
use crate::ids::{NodeId, PortId, TimerId};
use crate::packet::{IpAddr, Packet};
use crate::time::{SimDuration, SimTime};

/// Static destination-IP routing table.
///
/// # Examples
///
/// ```
/// use iswitch_netsim::{IpAddr, PortId, RouteTable};
///
/// let mut routes = RouteTable::new();
/// routes.add(IpAddr::new(10, 0, 0, 1), PortId::new(0));
/// routes.set_default(PortId::new(3));
/// assert_eq!(routes.lookup(IpAddr::new(10, 0, 0, 1)), Some(PortId::new(0)));
/// assert_eq!(routes.lookup(IpAddr::new(10, 0, 9, 9)), Some(PortId::new(3)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    /// Sorted by address, one entry per address: a switch knows a few
    /// dozen at most, so a binary search beats hashing the key.
    exact: Vec<(IpAddr, PortId)>,
    default: Option<PortId>,
}

impl RouteTable {
    /// An empty table with no default route.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Adds (or replaces) an exact-match route.
    pub fn add(&mut self, dst: IpAddr, port: PortId) {
        match self.exact.binary_search_by_key(&dst, |&(ip, _)| ip) {
            Ok(i) => self.exact[i].1 = port,
            Err(i) => self.exact.insert(i, (dst, port)),
        }
    }

    /// Sets the default route used when no exact match exists.
    pub fn set_default(&mut self, port: PortId) {
        self.default = Some(port);
    }

    /// Resolves a destination to an output port.
    pub fn lookup(&self, dst: IpAddr) -> Option<PortId> {
        match self.exact.binary_search_by_key(&dst, |&(ip, _)| ip) {
            Ok(i) => Some(self.exact[i].1),
            Err(_) => self.default,
        }
    }

    /// Number of exact-match entries.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether the table has no exact-match entries.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }
}

/// What a [`SwitchExtension`] decided about an incoming packet.
#[derive(Debug)]
pub enum ExtAction {
    /// The extension consumed the packet (it may have emitted others).
    Consumed,
    /// Hand the packet to regular IP forwarding.
    Forward(Packet),
}

/// Services available to a [`SwitchExtension`] during a callback.
pub struct SwitchServices<'a, 'b> {
    ctx: &'a mut Context<'b>,
    routes: &'a RouteTable,
}

impl<'a, 'b> SwitchServices<'a, 'b> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Sends a packet out of a specific port.
    pub fn send_port(&mut self, port: PortId, pkt: Packet) {
        self.ctx.send(port, pkt);
    }

    /// Routes a packet by its destination IP and sends it. Returns `false`
    /// (dropping the packet) when no route exists.
    pub fn send_routed(&mut self, pkt: Packet) -> bool {
        match self.routes.lookup(pkt.ip.dst) {
            Some(port) => {
                self.ctx.send(port, pkt);
                true
            }
            None => false,
        }
    }

    /// Schedules an `on_timer` callback on the extension.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.ctx.set_timer(delay, token)
    }

    /// Number of ports on this switch.
    pub fn port_count(&self) -> usize {
        self.ctx.port_count()
    }

    /// The node this switch occupies (useful as a stable metric-name prefix).
    pub fn node(&self) -> NodeId {
        self.ctx.node()
    }

    /// Metrics registry of the owning simulation. Extensions register their
    /// own counters and histograms here so one export covers the whole run.
    pub fn metrics(&self) -> &Arc<Registry> {
        self.ctx.metrics()
    }

    /// The causal trace sink, if tracing is enabled for this simulation.
    pub fn trace(&self) -> Option<&Arc<Trace>> {
        self.ctx.trace()
    }

    /// The counter-track telemetry sink, if timeseries sampling is enabled.
    /// Extensions record their own tracks here (e.g.
    /// `core.switch.NNN.codec_saturations`); change-collapse in the sink
    /// keeps idle tracks free.
    pub fn timeseries(&self) -> Option<&Arc<Timeseries>> {
        self.ctx.timeseries()
    }
}

/// In-switch packet processing plugged into a [`Switch`].
///
/// Implementations see every packet before regular forwarding.
pub trait SwitchExtension: Send + 'static {
    /// Inspects an incoming packet. Return [`ExtAction::Forward`] to let the
    /// switch route it normally, or [`ExtAction::Consumed`] after handling
    /// it (possibly emitting new packets via `sw`).
    fn on_packet(
        &mut self,
        sw: &mut SwitchServices<'_, '_>,
        in_port: PortId,
        pkt: Packet,
    ) -> ExtAction;

    /// A timer set through [`SwitchServices::set_timer`] fired.
    fn on_timer(&mut self, _sw: &mut SwitchServices<'_, '_>, _token: u64) {}

    /// Upcast for concrete-type recovery via [`Switch::extension`].
    fn as_any(&self) -> &dyn Any;

    /// Upcast for concrete-type recovery via [`Switch::extension_mut`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A store-and-forward switch device.
///
/// Forwarding latency is modelled via the node's `rx_overhead`
/// ([`crate::NodeOpts`]); the switch itself adds no further delay.
pub struct Switch {
    routes: RouteTable,
    ext: Option<Box<dyn SwitchExtension>>,
    /// Packets that matched no route and were discarded.
    pub unroutable: u64,
}

impl Switch {
    /// A switch with the given routes and no extension.
    pub fn new(routes: RouteTable) -> Self {
        Switch {
            routes,
            ext: None,
            unroutable: 0,
        }
    }

    /// A switch with the given routes and an extension.
    pub fn with_extension(routes: RouteTable, ext: Box<dyn SwitchExtension>) -> Self {
        Switch {
            routes,
            ext: Some(ext),
            unroutable: 0,
        }
    }

    /// Read access to the routing table.
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Mutable access to the routing table.
    pub fn routes_mut(&mut self) -> &mut RouteTable {
        &mut self.routes
    }

    /// Borrows the extension as concrete type `T`.
    ///
    /// # Panics
    ///
    /// Panics if there is no extension or it is not a `T`.
    pub fn extension<T: SwitchExtension>(&self) -> &T {
        self.ext
            .as_ref()
            .expect("switch has no extension")
            .as_any()
            .downcast_ref::<T>()
            .expect("extension type mismatch")
    }

    /// Mutably borrows the extension as concrete type `T`.
    ///
    /// # Panics
    ///
    /// Panics if there is no extension or it is not a `T`.
    pub fn extension_mut<T: SwitchExtension>(&mut self) -> &mut T {
        self.ext
            .as_mut()
            .expect("switch has no extension")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("extension type mismatch")
    }

    fn forward(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        match self.routes.lookup(pkt.ip.dst) {
            Some(port) => ctx.send(port, pkt),
            None => self.unroutable += 1,
        }
    }
}

impl Device for Switch {
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet) {
        let action = match self.ext.as_mut() {
            Some(ext) => {
                let mut sw = SwitchServices {
                    ctx,
                    routes: &self.routes,
                };
                ext.on_packet(&mut sw, port, pkt)
            }
            None => ExtAction::Forward(pkt),
        };
        if let ExtAction::Forward(pkt) = action {
            self.forward(ctx, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if let Some(ext) = self.ext.as_mut() {
            let mut sw = SwitchServices {
                ctx,
                routes: &self.routes,
            };
            ext.on_timer(&mut sw, token);
        }
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

    struct Recorder {
        got: Vec<Packet>,
        announce: Option<Packet>,
    }
    impl Device for Recorder {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if let Some(pkt) = self.announce.take() {
                ctx.send(PortId(0), pkt);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortId, pkt: Packet) {
            self.got.push(pkt);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn recorder(announce: Option<Packet>) -> Box<Recorder> {
        Box::new(Recorder {
            got: vec![],
            announce,
        })
    }

    #[test]
    fn switch_forwards_by_destination_ip() {
        let a_ip = IpAddr::new(10, 0, 0, 1);
        let b_ip = IpAddr::new(10, 0, 0, 2);
        let pkt = Packet::udp(a_ip, b_ip, 5, 5, 0).with_payload(vec![9u8; 8]);

        let mut sim = Simulator::new();
        let mut routes = RouteTable::new();
        let sw = sim.add_node(
            Box::new(Switch::new(RouteTable::new())),
            NodeOpts::new("sw"),
        );
        let a = sim.add_node(recorder(Some(pkt)), NodeOpts::new("a"));
        let b = sim.add_node(recorder(None), NodeOpts::new("b"));
        let (_, _, pa) = sim.connect(a, sw, &LinkSpec::ten_gbe());
        let (_, _, pb) = sim.connect(b, sw, &LinkSpec::ten_gbe());
        routes.add(a_ip, pa);
        routes.add(b_ip, pb);
        *sim.device_mut::<Switch>(sw).routes_mut() = routes;

        sim.run_until_idle();
        assert_eq!(sim.device::<Recorder>(b).got.len(), 1);
        assert_eq!(sim.device::<Recorder>(b).got[0].payload.as_ref(), &[9u8; 8]);
        assert!(sim.device::<Recorder>(a).got.is_empty());
    }

    #[test]
    fn adding_an_address_twice_replaces_its_route() {
        let mut routes = RouteTable::new();
        for (host, port) in [(9, 0), (2, 1), (5, 2), (2, 3), (9, 4)] {
            routes.add(IpAddr::new(10, 0, 0, host), PortId::new(port));
        }
        assert_eq!(routes.len(), 3, "an address is counted once");
        let port_of = |host| routes.lookup(IpAddr::new(10, 0, 0, host));
        assert_eq!(port_of(2), Some(PortId::new(3)));
        assert_eq!(port_of(5), Some(PortId::new(2)));
        assert_eq!(port_of(9), Some(PortId::new(4)));
        assert_eq!(port_of(3), None);
        assert!(!routes.is_empty());
    }

    #[test]
    fn unroutable_packets_are_counted_and_dropped() {
        let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 9, 9, 9), 5, 5, 0);
        let mut sim = Simulator::new();
        let sw = sim.add_node(
            Box::new(Switch::new(RouteTable::new())),
            NodeOpts::new("sw"),
        );
        let a = sim.add_node(recorder(Some(pkt)), NodeOpts::new("a"));
        sim.connect(a, sw, &LinkSpec::ten_gbe());
        sim.run_until_idle();
        assert_eq!(sim.device::<Switch>(sw).unroutable, 1);
    }

    /// An extension that consumes packets to port 7777 and reflects them to
    /// the sender, passing everything else through.
    struct Reflector {
        seen: u64,
    }
    impl SwitchExtension for Reflector {
        fn on_packet(
            &mut self,
            sw: &mut SwitchServices<'_, '_>,
            _in_port: PortId,
            pkt: Packet,
        ) -> ExtAction {
            if pkt.udp.dst_port == 7777 {
                self.seen += 1;
                let mut back = pkt;
                std::mem::swap(&mut back.ip.src, &mut back.ip.dst);
                back.udp.dst_port = 1;
                assert!(sw.send_routed(back));
                ExtAction::Consumed
            } else {
                ExtAction::Forward(pkt)
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn extension_intercepts_and_emits() {
        let a_ip = IpAddr::new(10, 0, 0, 1);
        let b_ip = IpAddr::new(10, 0, 0, 2);
        let hit = Packet::udp(a_ip, b_ip, 5, 7777, 0);

        let mut sim = Simulator::new();
        let sw = sim.add_node(
            Box::new(Switch::with_extension(
                RouteTable::new(),
                Box::new(Reflector { seen: 0 }),
            )),
            NodeOpts::new("sw"),
        );
        let a = sim.add_node(recorder(Some(hit)), NodeOpts::new("a"));
        let b = sim.add_node(recorder(None), NodeOpts::new("b"));
        let (_, _, pa) = sim.connect(a, sw, &LinkSpec::ten_gbe());
        let (_, _, pb) = sim.connect(b, sw, &LinkSpec::ten_gbe());
        let mut routes = RouteTable::new();
        routes.add(a_ip, pa);
        routes.add(b_ip, pb);
        *sim.device_mut::<Switch>(sw).routes_mut() = routes;

        sim.run_until_idle();
        // Reflected back to a; b saw nothing.
        assert_eq!(sim.device::<Recorder>(a).got.len(), 1);
        assert!(sim.device::<Recorder>(b).got.is_empty());
        assert_eq!(
            sim.device_mut::<Switch>(sw).extension::<Reflector>().seen,
            1
        );
    }
}
