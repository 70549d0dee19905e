//! Worker-side packet helpers: building gradient/control packets and
//! parsing what comes back from the switch.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use iswitch_netsim::{CausalKey, IpAddr, Ipv4Header, Packet, UdpHeader, MAX_UDP_PAYLOAD};

use crate::protocol::codec::{CodecKind, FIXED_POINT};
use crate::protocol::data::seg_header;
use crate::protocol::{
    dscp, seg_index, seg_round, tag_round, ControlMessage, DataSegment, SegmentMeta,
    ISWITCH_UDP_PORT, SEG_HEADER_BYTES, TOS_CONTROL, TOS_DATA,
};
use crate::switch_ext::UPSTREAM_IP;

/// The one packetiser: segment `index` of `grad` (its `index`-th
/// `codec`-sized chunk), tagged with `round` and encoded as a worker
/// contribution, as the wire `Seg` value next to its payload. `exp_bias`
/// seeds the fixed-point exponent-stamp bug (the chaos harness's codec
/// bug); zero is correct operation and the only value other codecs accept
/// a stamp for.
fn contribution_payload(
    grad: &[f32],
    index: usize,
    round: u32,
    codec: CodecKind,
    exp_bias: i8,
) -> (u64, Bytes) {
    let elems = codec.elems_per_segment();
    let chunk = &grad[index * elems..grad.len().min((index + 1) * elems)];
    let seg = tag_round(index as u64, round);
    let payload = if exp_bias != 0 && codec == CodecKind::FixedPoint {
        FIXED_POINT.encode_contribution_biased(seg, chunk, exp_bias)
    } else {
        codec.codec().encode_contribution(seg, chunk)
    };
    (seg, payload.expect("gradient values are finite"))
}

/// Segment `index` of `grad`, tagged with `round` and encoded under `codec`
/// as a data packet from a worker at `src` toward its switch — the
/// straightforward packetiser, one encode per call, that every
/// [`EncodedGradient`] packet equals byte for byte.
///
/// The destination address is the upstream aggregation address: iSwitch
/// switches intercept by ToS, so data packets never need a concrete
/// switch IP.
///
/// # Panics
///
/// Panics if the gradient contains non-finite values and the codec is
/// quantized, or if `index` is past the last segment.
pub fn contribution_packet(
    src: IpAddr,
    grad: &[f32],
    index: usize,
    round: u32,
    codec: CodecKind,
    exp_bias: i8,
) -> Packet {
    let (seg, payload) = contribution_payload(grad, index, round, codec, exp_bias);
    sealed_data_packet(src, UPSTREAM_IP, seg, payload)
}

/// A worker's contribution payloads: the one way a gradient goes on the
/// wire. A live gradient is encoded once per round; a vector whose contents
/// do not change between iterations (timing-mode synthetic gradients) is
/// encoded once for the run and shared by every sender of it.
///
/// Only the 8-byte round-tagged header differs between rounds of the same
/// vector — and the sender's address is in the IP header, not the payload,
/// so every worker pushing the same vector sends the same bytes. This
/// encodes the vector once into one store of per-segment payloads,
/// each tagged for the round it last went out in. Every handle over the
/// store ([`EncodedGradient::with_src`]) carries its own sender address,
/// and a segment retags by one rule:
///
/// * the header already matches the round: the packet shares the payload
///   (refcount clone), so the first sender of a round retags each segment
///   and every later sender of that round shares it;
/// * no packet holds the payload: its 8-byte header is patched in place;
/// * a packet of another round still holds it (in flight, or kept for
///   retransmission): it is copied first, and that packet keeps its own.
///
/// The store sits behind one lock, taken once per
/// [`EncodedGradient::packets_round`], so handles may send from the
/// domains of a sharded run on different threads. Every packet is byte for
/// byte the [`contribution_packet`] of the same segment and round.
pub struct EncodedGradient {
    src: IpAddr,
    /// One encoded payload per segment (always `Some` between calls).
    store: Arc<Mutex<Vec<Option<Bytes>>>>,
}

impl EncodedGradient {
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
        let store = (0..codec.num_segments(grad.len()))
            .map(|index| Some(contribution_payload(grad, index, 0, codec, exp_bias).1))
            .collect();
        EncodedGradient {
            src,
            store: Arc::new(Mutex::new(store)),
        }
    }

    /// Another handle over the same store, sending from `src`.
    pub fn with_src(&self, src: IpAddr) -> Self {
        EncodedGradient {
            src,
            store: Arc::clone(&self.store),
        }
    }

    /// Builds the packet sequence for `round`: one packet per segment, in
    /// segment order.
    pub fn packets_round(&self, round: u32) -> Vec<Packet> {
        let mut store = self.store.lock().expect("shared state lock");
        (store.iter_mut().enumerate())
            .map(|(index, slot)| self.retagged(slot, index, round))
            .collect()
    }

    /// Contribution `index` of `round` alone — the one segment a worker
    /// resends when its switch asks for it back.
    ///
    /// # Panics
    ///
    /// Panics if `index` is past the last segment.
    pub fn packet(&self, index: usize, round: u32) -> Packet {
        let mut store = self.store.lock().expect("shared state lock");
        self.retagged(&mut store[index], index, round)
    }

    /// Segment `index`'s packet for `round`, retagging the stored payload
    /// by the rule in the type's docs.
    fn retagged(&self, slot: &mut Option<Bytes>, index: usize, round: u32) -> Packet {
        let seg = tag_round(index as u64, round);
        let header = seg_header(seg, 1);
        let mut payload = slot.take().expect("a payload per segment");
        if payload[..SEG_HEADER_BYTES] != header {
            payload = match payload.try_into_mut() {
                // Nothing else holds the bytes: retag them where they are.
                Ok(mut own) => {
                    own[..SEG_HEADER_BYTES].copy_from_slice(&header);
                    own.freeze()
                }
                // A packet of another round is still in flight (or kept for
                // retransmission): it must keep its own header.
                Err(shared) => {
                    let mut buf = shared.to_vec();
                    buf[..SEG_HEADER_BYTES].copy_from_slice(&header);
                    Bytes::from(buf)
                }
            };
        }
        *slot = Some(payload.clone());
        sealed_data_packet(self.src, UPSTREAM_IP, seg, payload)
    }
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
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_UDP_PAYLOAD`].
pub(crate) fn sealed_data_packet(src: IpAddr, dst: IpAddr, seg: u64, payload: Bytes) -> Packet {
    assert!(
        payload.len() <= MAX_UDP_PAYLOAD,
        "payload exceeds MAX_UDP_PAYLOAD"
    );
    // Built whole: `Packet::udp(..).with_payload(..)` would allocate a
    // placeholder payload for every packet, only to drop it.
    Packet {
        ip: Ipv4Header {
            src,
            dst,
            tos: TOS_DATA,
        },
        udp: UdpHeader {
            src_port: ISWITCH_UDP_PORT,
            dst_port: ISWITCH_UDP_PORT,
        },
        payload,
        cause: Some(CausalKey {
            round: seg_round(seg),
            // Below 2^32: the index is the `Seg` field's low 32 bits.
            segment: seg_index(seg) as u32,
            worker: src.as_u32(),
            tenant: 0,
        }),
    }
}

/// Builds a control packet carrying `msg` from `src` to `dst`.
pub fn control_packet(src: IpAddr, dst: IpAddr, msg: &ControlMessage) -> Packet {
    Packet::udp(src, dst, ISWITCH_UDP_PORT, ISWITCH_UDP_PORT, TOS_CONTROL)
        .with_payload(msg.encode())
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
    fn packets_cover_the_vector_in_order() {
        let grad: Vec<f32> = (0..FLOATS_PER_SEGMENT + 5).map(|i| i as f32).collect();
        let enc = EncodedGradient::with_codec(IpAddr::new(10, 0, 0, 1), &grad, CodecKind::F32, 0);
        let pkts = enc.packets_round(0);
        assert_eq!(pkts.len(), 2);
        let seg0 = DataSegment::decode(&pkts[0].payload).unwrap();
        let seg1 = DataSegment::decode(&pkts[1].payload).unwrap();
        assert_eq!((seg0.seg, seg0.count), (0, 1));
        assert_eq!((seg1.seg, seg1.count), (1, 1));
        assert_eq!(seg0.values.len(), FLOATS_PER_SEGMENT);
        assert_eq!(seg1.values.len(), 5);
        assert_eq!(seg1.values[4], (FLOATS_PER_SEGMENT + 4) as f32);
        assert_eq!(pkts[1].ip.dst, UPSTREAM_IP);
    }

    /// Handles with their own senders over one store, driven by a random
    /// interleaving of whole rounds and single segments while random
    /// packets stay alive: every packet is byte for byte the one the
    /// packetiser builds, and a segment sent again for the round it last
    /// went out in shares that payload's storage. Every codec, plus the
    /// seeded fixed-point exponent-stamp bug, which live sources send
    /// through a store too.
    #[test]
    fn handles_over_one_store_send_the_packetisers_bytes_and_share_a_round() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn send_and_sync<T: Send + Sync>() {}
        send_and_sync::<EncodedGradient>();
        const HANDLES: u8 = 4;
        let biased = [(CodecKind::FixedPoint, 3), (CodecKind::FixedPoint, -2)];
        for (codec, bias) in CodecKind::ALL.map(|c| (c, 0)).into_iter().chain(biased) {
            let elems = codec.elems_per_segment();
            let grad: Vec<f32> = (0..3 * elems + 7)
                .map(|i| (i % 11) as f32 * 0.5 - 2.0)
                .collect();
            let segments = codec.num_segments(grad.len());
            let first = EncodedGradient::with_codec(IpAddr::new(10, 0, 0, 1), &grad, codec, bias);
            if bias != 0 {
                let honest = contribution_packet(first.src, &grad, 0, 0, codec, 0);
                assert_ne!(
                    first.packet(0, 0).payload,
                    honest.payload,
                    "bias {bias} ignored"
                );
            }
            let mut handles: Vec<EncodedGradient> = (1..HANDLES)
                .map(|h| first.with_src(IpAddr::new(10, 0, 0, 1 + h)))
                .collect();
            handles.push(first);
            let mut rng = StdRng::seed_from_u64(29);
            // Per segment: the round it last went out in, and where its
            // payload lives.
            let mut last: Vec<Option<(u32, *const u8)>> = vec![None; segments];
            let (mut kept, mut shared) = (Vec::new(), 0);
            for _ in 0..400 {
                let enc = &handles[rng.gen_range(0..handles.len())];
                let round = rng.gen_range(0..4u32);
                let sent: Vec<(usize, Packet)> = if rng.gen::<bool>() {
                    enc.packets_round(round).into_iter().enumerate().collect()
                } else {
                    let index = rng.gen_range(0..segments);
                    vec![(index, enc.packet(index, round))]
                };
                for (index, pkt) in sent {
                    let want = contribution_packet(enc.src, &grad, index, round, codec, bias);
                    let at = format!(
                        "{codec} (bias {bias}): segment {index} of round {round} from {}",
                        enc.src
                    );
                    assert_eq!(
                        (pkt.ip, pkt.udp, pkt.cause),
                        (want.ip, want.udp, want.cause),
                        "{at}"
                    );
                    assert_eq!(pkt.payload[..], want.payload[..], "{at}");
                    let ptr = pkt.payload.as_ptr();
                    if let Some((r, p)) = last[index] {
                        if r == round {
                            assert_eq!(p, ptr, "{at}: not shared with its last sender");
                            shared += 1;
                        }
                    }
                    last[index] = Some((round, ptr));
                    if rng.gen_range(0..4) == 0 {
                        kept.push(pkt);
                    }
                }
                while kept.len() > 32 {
                    kept.swap_remove(rng.gen_range(0..kept.len()));
                }
            }
            assert!(
                shared > 100,
                "{codec}: only {shared} sends repeated a round"
            );
        }
    }

    #[test]
    fn decode_rejects_wrong_tos() {
        let grad = vec![1.0f32; 4];
        let enc = EncodedGradient::with_codec(IpAddr::new(10, 0, 0, 1), &grad, CodecKind::F32, 0);
        let mut pkt = enc.packet(0, 0);
        assert!(decode_data_meta(&pkt).is_some());
        pkt.ip.tos = 0;
        assert!(decode_data_meta(&pkt).is_none());

        let ctrl = control_packet(
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 255, 1),
            &ControlMessage::Reset,
        );
        assert!(decode_control(&ctrl).is_some());
        assert!(decode_data_meta(&ctrl).is_none());
    }
}
