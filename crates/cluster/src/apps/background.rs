//! Background cross-traffic generator for congestion experiments.
//!
//! A [`BackgroundFlow`] source periodically blasts a burst of plain UDP
//! packets at a sink host on the same switch. The traffic shares the
//! switch's egress links with the training protocol, loading any
//! configured [`iswitch_netsim::EgressQueue`]s so ECN marking and
//! tail-drop fire under realistic contention — without participating in
//! aggregation (the packets carry a non-iSwitch ToS and a dedicated port,
//! so switch extensions forward them as ordinary FIB traffic).
//!
//! Everything is deterministic: burst size, period, and the per-source
//! start offset derive from the flow seed, and the burst count is bounded
//! so `run_until_idle` terminates.

use std::any::Any;

use iswitch_netsim::{HostApp, HostCtx, IpAddr, Packet, SimDuration};

/// UDP port of background flows (distinct from the baseline blob port and
/// the iSwitch port, so nothing mistakes cross traffic for protocol
/// traffic).
pub const BACKGROUND_PORT: u16 = 9900;

/// Payload bytes per background packet (a full-sized datagram, matching
/// the training protocols' wire footprint).
const BACKGROUND_PAYLOAD: usize = 1000;

const T_BURST: u64 = 1;

/// One endpoint of a background flow: a bursting source or a counting
/// sink.
pub struct BackgroundFlow {
    dst: IpAddr,
    burst_packets: usize,
    period: SimDuration,
    start_offset: SimDuration,
    bursts_remaining: u64,
    /// The one packet a source sends, built at start (when the host knows
    /// its address); every send clones it and shares its payload.
    packet: Option<Packet>,
    /// Packets this endpoint sent (source) — deterministic, so it doubles
    /// as a fingerprint for run-twice identity checks.
    pub sent: u64,
    /// Packets this endpoint received (sink).
    pub received: u64,
}

impl BackgroundFlow {
    /// A source blasting `bursts` bursts at `dst`. The flow `seed` varies
    /// the start offset and period slightly so multiple sources don't
    /// phase-lock, while staying fully deterministic.
    pub fn source(dst: IpAddr, seed: u64, bursts: u64) -> Self {
        BackgroundFlow {
            dst,
            burst_packets: 12,
            period: SimDuration::from_micros(200 + (seed % 5) * 37),
            start_offset: SimDuration::from_micros(10 + (seed % 7) * 50),
            bursts_remaining: bursts,
            packet: None,
            sent: 0,
            received: 0,
        }
    }

    /// A passive sink that only counts arrivals.
    pub fn sink() -> Self {
        BackgroundFlow {
            dst: IpAddr::new(0, 0, 0, 0),
            burst_packets: 0,
            period: SimDuration::ZERO,
            start_offset: SimDuration::ZERO,
            bursts_remaining: 0,
            packet: None,
            sent: 0,
            received: 0,
        }
    }
}

impl HostApp for BackgroundFlow {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        if self.bursts_remaining > 0 {
            self.packet = Some(
                Packet::udp(ctx.ip(), self.dst, BACKGROUND_PORT, BACKGROUND_PORT, 0)
                    .with_payload(vec![0u8; BACKGROUND_PAYLOAD]),
            );
            ctx.set_timer(self.start_offset, T_BURST);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        if token != T_BURST || self.bursts_remaining == 0 {
            return;
        }
        let Some(packet) = &self.packet else {
            return;
        };
        self.bursts_remaining -= 1;
        for _ in 0..self.burst_packets {
            ctx.send(packet.clone());
            self.sent += 1;
        }
        if self.bursts_remaining > 0 {
            ctx.set_timer(self.period, T_BURST);
        }
    }

    fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, _pkt: Packet) {
        self.received += 1;
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
    use iswitch_netsim::{build_star, Host, Simulator, TopologyConfig};

    #[test]
    fn bounded_bursts_terminate_and_arrive() {
        let mut sim = Simulator::new();
        let sink_ip = iswitch_netsim::host_ip(0, 1);
        let apps: Vec<Box<dyn HostApp>> = vec![
            Box::new(BackgroundFlow::source(sink_ip, 3, 4)),
            Box::new(BackgroundFlow::sink()),
        ];
        let star = build_star(&mut sim, apps, None, &TopologyConfig::default());
        sim.run_until_idle();
        let src = sim.device::<Host>(star.hosts[0]).app::<BackgroundFlow>();
        assert_eq!(src.sent, 4 * 12);
        let sink = sim.device::<Host>(star.hosts[1]).app::<BackgroundFlow>();
        assert_eq!(sink.received, 4 * 12);
    }
}
