//! Shared by the integration tests that script a switch packet by packet.

use std::any::Any;

use iswitch_core::{dscp, TOS_DATA};
use iswitch_netsim::{HostApp, HostCtx, NodeId, Packet, SimDuration, Simulator};

/// A host that sends packet `i` of its script at the script's time (ns
/// after start) and keeps every data packet that comes back, with its
/// arrival time.
pub struct Puppet {
    pub script: Vec<(u64, Packet)>,
    pub got: Vec<(u64, Packet)>,
}

impl Puppet {
    pub fn new(script: Vec<(u64, Packet)>) -> Box<Self> {
        let got = Vec::new();
        Box::new(Puppet { script, got })
    }
}

impl HostApp for Puppet {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.set_timer(SimDuration::from_nanos(*at), i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        ctx.send(self.script[token as usize].1.clone());
    }
    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        if dscp(pkt.ip.tos) == TOS_DATA {
            self.got.push((ctx.now().as_nanos(), pkt));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The `core.switch.nNNN.<metric>` registry counter of the switch at `node`.
pub fn switch_counter(sim: &Simulator, node: NodeId, metric: &str) -> u64 {
    let name = format!("core.switch.n{:03}.{metric}", node.index());
    sim.metrics().counter(&name).get()
}
