//! Worker-side packet helpers: building gradient/control packets and
//! parsing what comes back from the switch.

use bytes::Bytes;
use iswitch_netsim::{CausalKey, IpAddr, Packet};

use crate::protocol::codec::{CodecKind, FixedPointCodec};
use crate::protocol::data::seg_header;
use crate::protocol::{
    dscp, seg_index, seg_round, tag_round, ControlMessage, DataSegment, SegmentMeta,
    ISWITCH_UDP_PORT, SEG_HEADER_BYTES, TOS_CONTROL, TOS_DATA,
};
use crate::switch_ext::UPSTREAM_IP;

/// The one packetiser: splits `grad` into `codec`-sized segments tagged
/// with `round` and encodes each as a worker contribution, yielding the
/// wire `Seg` value next to its payload. `exp_bias` seeds the fixed-point
/// exponent-stamp bug (the chaos harness's codec bug); zero is correct
/// operation and the only value other codecs accept a stamp for.
fn contribution_payloads(
    grad: &[f32],
    round: u32,
    codec: CodecKind,
    exp_bias: i8,
) -> impl Iterator<Item = (u64, Bytes)> + '_ {
    grad.chunks(codec.elems_per_segment())
        .enumerate()
        .map(move |(i, chunk)| {
            let seg = tag_round(i as u64, round);
            let payload = if exp_bias != 0 && codec == CodecKind::FixedPoint {
                FixedPointCodec.encode_contribution_biased(seg, chunk, exp_bias)
            } else {
                codec.codec().encode_contribution(seg, chunk)
            };
            (seg, payload.expect("gradient values are finite"))
        })
}

/// Builds the sequence of data packets carrying `grad` from a worker at
/// `src` toward its switch. One packet per segment, in segment order.
///
/// The destination address is the upstream aggregation address: iSwitch
/// switches intercept by ToS, so data packets never need a concrete
/// switch IP.
pub fn gradient_packets(src: IpAddr, grad: &[f32]) -> Vec<Packet> {
    gradient_packets_round(src, grad, 0)
}

/// Like [`gradient_packets`] with an explicit aggregation-round tag in the
/// `Seg` field (see [`crate::tag_round`]); receivers use the tag to ignore
/// stale re-broadcasts.
pub fn gradient_packets_round(src: IpAddr, grad: &[f32], round: u32) -> Vec<Packet> {
    gradient_packets_round_codec(src, grad, round, CodecKind::F32, 0)
}

/// Like [`gradient_packets_round`] with the contribution payloads encoded
/// under `codec`. `exp_bias` seeds the fixed-point exponent-stamp bug
/// (zero for correct operation; ignored by other codecs).
///
/// # Panics
///
/// Panics if the gradient contains non-finite values — quantized codecs
/// reject NaN/Inf at encode time.
pub fn gradient_packets_round_codec(
    src: IpAddr,
    grad: &[f32],
    round: u32,
    codec: CodecKind,
    exp_bias: i8,
) -> Vec<Packet> {
    contribution_payloads(grad, round, codec, exp_bias)
        .map(|(seg, payload)| sealed_data_packet(src, UPSTREAM_IP, seg, payload))
        .collect()
}

/// Pre-encoded contribution payloads for a gradient vector whose contents
/// do not change between iterations (timing-mode synthetic gradients).
///
/// [`gradient_packets_round_codec`] re-encodes every element each
/// iteration even though only the 8-byte round-tagged header differs
/// between rounds. This cache encodes the vector once; per iteration,
/// round 0 packets reuse the stored [`Bytes`] outright (refcount clone),
/// and other rounds pay one memcpy plus an 8-byte header patch per packet.
/// Output is byte-for-byte identical to [`gradient_packets_round_codec`].
pub struct EncodedGradient {
    src: IpAddr,
    /// Encoded payloads tagged with round 0 (identity tag).
    round0: Vec<Bytes>,
}

impl EncodedGradient {
    /// Encodes `grad` once as f32 worker contributions (count = 1).
    pub fn new(src: IpAddr, grad: &[f32]) -> Self {
        Self::with_codec(src, grad, CodecKind::F32, 0)
    }

    /// Encodes `grad` once under `codec` (`exp_bias` seeds the fixed-point
    /// exponent-stamp bug; zero is correct operation). The per-round header
    /// patch in [`EncodedGradient::packets_round`] works for every codec —
    /// all layouts share the 8-byte `Seg` header and nothing else in the
    /// payload depends on the round.
    ///
    /// # Panics
    ///
    /// Panics if the gradient contains non-finite values and the codec is
    /// quantized.
    pub fn with_codec(src: IpAddr, grad: &[f32], codec: CodecKind, exp_bias: i8) -> Self {
        EncodedGradient {
            src,
            round0: contribution_payloads(grad, 0, codec, exp_bias)
                .map(|(_, payload)| payload)
                .collect(),
        }
    }

    /// Builds the packet sequence for `round` — the cached-template
    /// equivalent of [`gradient_packets_round_codec`].
    pub fn packets_round(&self, round: u32) -> Vec<Packet> {
        self.round0
            .iter()
            .enumerate()
            .map(|(i, template)| {
                let seg = tag_round(i as u64, round);
                let header = seg_header(seg, 1);
                let payload = if template[..SEG_HEADER_BYTES] == header {
                    // Header already matches (segment 0 of round 0, and any
                    // template whose patch would be a no-op): share storage.
                    template.clone()
                } else {
                    let mut buf = template.to_vec();
                    buf[..SEG_HEADER_BYTES].copy_from_slice(&header);
                    Bytes::from(buf)
                };
                sealed_data_packet(self.src, UPSTREAM_IP, seg, payload)
            })
            .collect()
    }
}

/// Builds a single data packet carrying `seg`.
///
/// The packet is stamped with a [`CausalKey`] derived from the tagged `Seg`
/// field (round and spatial segment index) plus the sender's address as the
/// producer identity, so per-hop trace events can be tied back to the unit
/// of training work the packet carries.
pub fn data_packet(src: IpAddr, dst: IpAddr, seg: &DataSegment) -> Packet {
    sealed_data_packet(src, dst, seg.seg, seg.encode())
}

/// Builds a result packet carrying an aggregate in `codec`'s wide result
/// format — what iSwitch switches broadcast down (and intermediates send
/// up). For [`CodecKind::F32`] this is exactly [`data_packet`].
pub fn result_packet(src: IpAddr, dst: IpAddr, seg: &DataSegment, codec: CodecKind) -> Packet {
    sealed_data_packet(src, dst, seg.seg, codec.codec().encode_result(seg))
}

/// Re-wraps an already-encoded data payload into a packet from `src` —
/// the zero-copy relay path: an intermediate switch fanning out a result
/// from its parent forwards the payload [`Bytes`] as-is, no decode or
/// re-encode (`meta` comes from [`decode_data_meta`] on the way in).
pub fn data_packet_wire(src: IpAddr, dst: IpAddr, meta: SegmentMeta, payload: Bytes) -> Packet {
    sealed_data_packet(src, dst, meta.seg, payload)
}

/// Wraps an encoded payload whose `Seg` field is `seg` into a data packet
/// with the standard causal stamp.
fn sealed_data_packet(src: IpAddr, dst: IpAddr, seg: u64, payload: Bytes) -> Packet {
    Packet::udp(src, dst, ISWITCH_UDP_PORT, ISWITCH_UDP_PORT, TOS_DATA)
        .with_payload(payload)
        .with_cause(CausalKey {
            round: u64::from(seg_round(seg)),
            segment: seg_index(seg),
            worker: u64::from(src.as_u32()),
            tenant: 0,
        })
}

/// Builds a control packet carrying `msg` from `src` to `dst`.
pub fn control_packet(src: IpAddr, dst: IpAddr, msg: &ControlMessage) -> Packet {
    Packet::udp(src, dst, ISWITCH_UDP_PORT, ISWITCH_UDP_PORT, TOS_CONTROL)
        .with_payload(msg.encode())
}

/// Parses an iSwitch data packet, returning `None` for anything else
/// (wrong ToS or malformed payload).
pub fn decode_data(pkt: &Packet) -> Option<DataSegment> {
    if dscp(pkt.ip.tos) != TOS_DATA {
        return None;
    }
    DataSegment::decode(&pkt.payload).ok()
}

/// Parses just the header of an iSwitch data packet — the cheap peek for
/// consumers that do not need the values materialized (arrival bookkeeping,
/// [`crate::Accelerator::ingest_wire`]).
pub fn decode_data_meta(pkt: &Packet) -> Option<SegmentMeta> {
    if dscp(pkt.ip.tos) != TOS_DATA {
        return None;
    }
    DataSegment::decode_meta(&pkt.payload).ok()
}

/// Parses an iSwitch control packet, returning `None` for anything else.
pub fn decode_control(pkt: &Packet) -> Option<ControlMessage> {
    if dscp(pkt.ip.tos) != TOS_CONTROL {
        return None;
    }
    ControlMessage::decode(&pkt.payload).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FLOATS_PER_SEGMENT;

    #[test]
    fn gradient_packets_cover_the_vector_in_order() {
        let grad: Vec<f32> = (0..FLOATS_PER_SEGMENT + 5).map(|i| i as f32).collect();
        let pkts = gradient_packets(IpAddr::new(10, 0, 0, 1), &grad);
        assert_eq!(pkts.len(), 2);
        let seg0 = decode_data(&pkts[0]).unwrap();
        let seg1 = decode_data(&pkts[1]).unwrap();
        assert_eq!(seg0.seg, 0);
        assert_eq!(seg1.seg, 1);
        assert_eq!(seg0.values.len(), FLOATS_PER_SEGMENT);
        assert_eq!(seg1.values.len(), 5);
        assert_eq!(seg1.values[4], (FLOATS_PER_SEGMENT + 4) as f32);
    }

    #[test]
    fn decode_rejects_wrong_tos() {
        let grad = vec![1.0f32; 4];
        let mut pkt = gradient_packets(IpAddr::new(10, 0, 0, 1), &grad).remove(0);
        pkt.ip.tos = 0;
        assert!(decode_data(&pkt).is_none());

        let ctrl = control_packet(
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 255, 1),
            &ControlMessage::Reset,
        );
        assert!(decode_control(&ctrl).is_some());
        assert!(decode_data(&ctrl).is_none());
    }
}
