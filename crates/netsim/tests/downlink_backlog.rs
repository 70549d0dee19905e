//! The central-bottleneck effect the paper attributes to the parameter
//! server (§5.2) shows up in the per-link `backlog_ns` histograms every
//! simulator records: the downlink three senders share queues far longer
//! than an idle one.

use std::any::Any;

use iswitch_netsim::{
    build_star, host_ip, HostApp, HostCtx, Packet, SimDuration, Simulator, TopologyConfig,
};

/// Sends `n` back-to-back 1 kB packets to a fixed destination at start.
struct Blaster {
    dst: iswitch_netsim::IpAddr,
    n: usize,
}

impl HostApp for Blaster {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        for _ in 0..self.n {
            let pkt = Packet::udp(ctx.ip(), self.dst, 9, 9, 0).with_payload(vec![0u8; 1_000]);
            ctx.send(pkt);
        }
    }
    fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, _pkt: Packet) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn congested_sink_flow_shows_higher_latency() {
    // Hosts 0..3 all blast host 3 (the "server"); host 0 also receives a
    // little traffic from host 3 for comparison.
    let mut sim = Simulator::new();
    let server = host_ip(0, 3);
    let apps: Vec<Box<dyn HostApp>> = vec![
        Box::new(Blaster {
            dst: server,
            n: 200,
        }),
        Box::new(Blaster {
            dst: server,
            n: 200,
        }),
        Box::new(Blaster {
            dst: server,
            n: 200,
        }),
        Box::new(Blaster {
            dst: host_ip(0, 0),
            n: 5,
        }),
    ];
    build_star(&mut sim, apps, None, &TopologyConfig::default());
    sim.run_until_idle();

    // Link `i` joins host `i` to the switch; its `switch->host` direction
    // is the downlink. The server's carries all 600 packets, with queueing
    // delay growing as three senders share it.
    let downlink = |i: usize| {
        let name = format!("netsim.link.{i:03}.switch->host{i}.backlog_ns");
        sim.metrics().histogram(&name)
    };
    let (into_server, into_h0) = (downlink(3), downlink(0));
    assert_eq!(into_server.count(), 600);
    assert_eq!(into_h0.count(), 5);
    assert!(
        into_server.p99() > into_h0.p99() * 3,
        "congested downlink p99 {} should dwarf idle downlink p99 {}",
        into_server.p99(),
        into_h0.p99()
    );
    // The mean backlog is also well beyond one serialization time (~0.85us).
    let ten_us = SimDuration::from_micros(10).as_nanos() as f64;
    assert!(into_server.mean() > ten_us);
    assert_eq!(sim.stats().packets_dropped, 0);
}
