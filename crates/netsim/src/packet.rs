//! Network packets and protocol headers.
//!
//! The simulator models Ethernet/IPv4/UDP framing at the accounting level:
//! header fields that matter to forwarding and to the iSwitch protocol (IP
//! addresses, the ToS byte, UDP ports) are carried explicitly, while byte
//! sizes of all layers are tracked so link serialization times are faithful
//! to a real 10 GbE deployment.

use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Ethernet header + FCS overhead in bytes (no VLAN tag).
pub const ETH_OVERHEAD: usize = 18;
/// Preamble + start-frame delimiter + inter-frame gap, charged on the wire.
pub const ETH_PREAMBLE_IFG: usize = 20;
/// IPv4 header size in bytes (no options).
pub const IPV4_HEADER: usize = 20;
/// UDP header size in bytes.
pub const UDP_HEADER: usize = 8;
/// Maximum Ethernet frame size used by the paper (1,522 bytes incl. VLAN).
pub const MAX_FRAME: usize = 1_522;
/// Maximum UDP payload that fits in a [`MAX_FRAME`]-sized frame.
///
/// `1522 - 18 (eth+fcs) - 4 (vlan) - 20 (ip) - 8 (udp) = 1472`.
pub const MAX_UDP_PAYLOAD: usize = MAX_FRAME - ETH_OVERHEAD - 4 - IPV4_HEADER - UDP_HEADER;

/// Mask of the two-bit ECN field at the bottom of the IPv4 ToS byte
/// (RFC 3168). Protocol classification on ToS must ignore these bits —
/// links rewrite them in flight when an egress queue marks congestion.
pub const ECN_MASK: u8 = 0b11;

/// ECN "Congestion Experienced" codepoint: both ECN bits set.
pub const ECN_CE: u8 = 0b11;

/// A 32-bit IPv4-style address used for routing inside the simulation.
///
/// # Examples
///
/// ```
/// use iswitch_netsim::IpAddr;
///
/// let ip = IpAddr::new(10, 0, 0, 2);
/// assert_eq!(ip.to_string(), "10.0.0.2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IpAddr(u32);

impl IpAddr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: IpAddr = IpAddr(0);

    /// Builds an address from four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        IpAddr(u32::from_be_bytes([a, b, c, d]))
    }

    /// Builds an address from its raw 32-bit value.
    pub const fn from_u32(raw: u32) -> Self {
        IpAddr(raw)
    }

    /// Returns the raw 32-bit value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the four dotted-quad octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl From<[u8; 4]> for IpAddr {
    fn from(o: [u8; 4]) -> Self {
        IpAddr::new(o[0], o[1], o[2], o[3])
    }
}

/// Causal identity a sender can stamp on a packet so tracing can follow it
/// across hops.
///
/// The key names the unit of training work the packet carries: which
/// aggregation `round`, which gradient `segment` within the round, and
/// which `worker` produced it. The simulator never interprets the key — it
/// only copies it into per-hop trace events (`pkt.tx` / `pkt.rx` /
/// `pkt.drop`) when tracing is enabled, so untraced runs pay nothing.
///
/// The fields are 32 bits wide because every value fits (a round tag is
/// 16 bits, a segment index below 2^32, a worker an IPv4 address) and the
/// key rides in every [`Packet`], which the timing wheel moves several
/// times per hop; trace events widen them to `u64` as they are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CausalKey {
    /// Aggregation round / iteration index.
    pub round: u32,
    /// Gradient segment index within the round.
    pub segment: u32,
    /// Producer identity. The reproduction stamps the sender's IPv4
    /// address; analyzers map it back to a worker index through
    /// run-metadata events.
    pub worker: u32,
    /// Tenant (job) identity in multi-tenant runs, standing in for the
    /// VLAN/overlay tag a production deployment would carry on the wire.
    /// Zero — the single-tenant default — is never emitted into trace
    /// events, so single-tenant artifacts stay byte-identical to the
    /// pre-tenancy build. The engine stamps it at transmit time from
    /// [`crate::Simulator::set_tenant`]; applications leave it zero.
    pub tenant: u32,
}

/// IPv4 header fields the simulator cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Header {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Type-of-Service byte. The iSwitch protocol reserves specific values
    /// here to tag control and data packets (paper §3.2, Fig. 5).
    pub tos: u8,
}

/// UDP header fields the simulator cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

/// A simulated UDP/IPv4/Ethernet packet.
///
/// The payload is opaque bytes; higher layers (the iSwitch protocol in
/// `iswitch-core`) define its meaning. Construct packets with
/// [`Packet::udp`].
///
/// # Examples
///
/// ```
/// use iswitch_netsim::{IpAddr, Packet};
///
/// let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 9999, 9999, 0x00)
///     .with_payload(vec![1u8, 2, 3]);
/// assert_eq!(pkt.payload.len(), 3);
/// assert!(pkt.frame_bytes() > 3);
/// ```
#[derive(Debug, Clone)]
pub struct Packet {
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// UDP header.
    pub udp: UdpHeader,
    /// UDP payload bytes.
    pub payload: Bytes,
    /// Optional causal identity for tracing (not a wire field; carries no
    /// bytes).
    pub cause: Option<CausalKey>,
}

// Every hop moves the packet through the timing wheel; keep it to six words.
const _: () = assert!(std::mem::size_of::<Packet>() <= 48);

impl Packet {
    /// Creates an empty UDP packet between two endpoints with a ToS tag.
    pub fn udp(src: IpAddr, dst: IpAddr, src_port: u16, dst_port: u16, tos: u8) -> Self {
        Packet {
            ip: Ipv4Header { src, dst, tos },
            udp: UdpHeader { src_port, dst_port },
            payload: Bytes::new(),
            cause: None,
        }
    }

    /// Stamps a causal identity on the packet (builder style).
    pub fn with_cause(mut self, cause: CausalKey) -> Self {
        self.cause = Some(cause);
        self
    }

    /// Replaces the payload, consuming and returning the packet.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_UDP_PAYLOAD`]; the simulator does
    /// not model IP fragmentation — senders must segment.
    pub fn with_payload(mut self, payload: impl Into<Bytes>) -> Self {
        let payload = payload.into();
        assert!(
            payload.len() <= MAX_UDP_PAYLOAD,
            "payload {} exceeds MAX_UDP_PAYLOAD {}",
            payload.len(),
            MAX_UDP_PAYLOAD
        );
        self.payload = payload;
        self
    }

    /// The size of this packet's Ethernet frame in bytes (headers + payload,
    /// excluding preamble/IFG). Minimum frame size of 64 bytes is enforced.
    pub fn frame_bytes(&self) -> usize {
        (ETH_OVERHEAD + IPV4_HEADER + UDP_HEADER + self.payload.len()).max(64)
    }

    /// The number of bytes this packet occupies on the wire, including
    /// preamble and inter-frame gap; this is what serialization time charges.
    pub fn wire_bytes(&self) -> usize {
        self.frame_bytes() + ETH_PREAMBLE_IFG
    }

    /// Whether the ECN field carries the Congestion Experienced codepoint.
    pub fn ecn_ce(&self) -> bool {
        self.ip.tos & ECN_MASK == ECN_CE
    }

    /// Sets the ECN field to Congestion Experienced, leaving the DSCP bits
    /// (protocol classification) untouched.
    pub fn mark_ecn_ce(&mut self) {
        self.ip.tos |= ECN_CE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_round_trips_octets() {
        let ip = IpAddr::new(192, 168, 1, 7);
        assert_eq!(IpAddr::from(ip.octets()), ip);
        assert_eq!(IpAddr::from_u32(ip.as_u32()), ip);
    }

    #[test]
    fn frame_accounting_includes_headers() {
        let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 1, 2, 0)
            .with_payload(vec![0u8; 1000]);
        assert_eq!(
            pkt.frame_bytes(),
            1000 + ETH_OVERHEAD + IPV4_HEADER + UDP_HEADER
        );
        assert_eq!(pkt.wire_bytes(), pkt.frame_bytes() + ETH_PREAMBLE_IFG);
    }

    #[test]
    fn tiny_frames_pad_to_minimum() {
        let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 1, 2, 0);
        assert_eq!(pkt.frame_bytes(), 64);
    }

    #[test]
    fn max_payload_fits_max_frame() {
        let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 1, 2, 0)
            .with_payload(vec![0u8; MAX_UDP_PAYLOAD]);
        assert!(pkt.frame_bytes() <= MAX_FRAME);
    }

    #[test]
    fn ecn_marking_preserves_dscp_bits() {
        let mut pkt = Packet::udp(
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 0, 2),
            1,
            2,
            0xBC,
        );
        assert!(!pkt.ecn_ce());
        pkt.mark_ecn_ce();
        assert!(pkt.ecn_ce());
        assert_eq!(pkt.ip.tos & !ECN_MASK, 0xBC);
        // Marking is idempotent.
        pkt.mark_ecn_ce();
        assert_eq!(pkt.ip.tos, 0xBC | ECN_CE);
    }

    #[test]
    #[should_panic(expected = "MAX_UDP_PAYLOAD")]
    fn oversized_payload_panics() {
        let _ = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 1, 2, 0)
            .with_payload(vec![0u8; MAX_UDP_PAYLOAD + 1]);
    }
}
