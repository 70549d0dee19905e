//! Property-based tests (proptest) on the core protocol and accelerator
//! invariants.

use iswitch::core::{
    decode_data_meta, num_segments, Accelerator, AcceleratorConfig, CodecKind, ControlMessage,
    DataSegment, EncodedGradient, RoundAssembler, RoundInsert, FLOATS_PER_SEGMENT,
};
use iswitch::netsim::{IpAddr, Packet};
use proptest::prelude::*;

/// Worker `w`'s packets carrying `grad` in the f32 format.
fn packets(w: u8, grad: &[f32]) -> Vec<Packet> {
    EncodedGradient::with_codec(IpAddr::new(10, 0, 0, w), grad, CodecKind::F32, 0).packets_round(0)
}

/// Feeds one contribution to the accelerator off the wire.
fn ingest(accel: &mut Accelerator, pkt: &Packet) -> Option<DataSegment> {
    let meta = decode_data_meta(pkt).expect("an f32 data packet");
    accel.ingest_wire(meta, &pkt.payload).0
}

fn finite_f32() -> impl Strategy<Value = f32> {
    // Keep values in a range where f32 summation error stays tiny.
    -1e3f32..1e3f32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Segmentation followed by reassembly is the identity for any
    /// gradient length and contents.
    #[test]
    fn segmentation_round_trips(grad in prop::collection::vec(finite_f32(), 1..2_000)) {
        let pkts = packets(1, &grad);
        prop_assert_eq!(pkts.len(), num_segments(grad.len()));
        let mut asm = RoundAssembler::new(grad.len(), true);
        asm.begin_round(Some(0));
        for pkt in &pkts {
            prop_assert_ne!(asm.insert_wire(&pkt.payload), RoundInsert::Stale);
        }
        prop_assert!(asm.is_done());
        prop_assert_eq!(asm.take_mean(), Some(grad));
    }

    /// Wire encoding of data segments round-trips exactly (bit-level f32).
    #[test]
    fn data_segment_wire_round_trips(
        seg in 0u64..1_000_000,
        count in 1u16..512,
        values in prop::collection::vec(any::<f32>().prop_filter("finite", |v| v.is_finite()), 0..FLOATS_PER_SEGMENT)
    ) {
        let original = DataSegment { seg, count, values };
        let decoded = DataSegment::decode(&original.encode()).expect("decodes");
        prop_assert_eq!(decoded, original);
    }

    /// The accelerator's aggregate equals the element-wise sum no matter
    /// how the workers' packets interleave.
    #[test]
    fn aggregation_is_order_invariant(
        grads in prop::collection::vec(
            prop::collection::vec(finite_f32(), 400..900), 2..5
        ),
        seed in any::<u64>(),
    ) {
        // Equalize lengths (workers share one model).
        let len = grads.iter().map(Vec::len).min().unwrap();
        let grads: Vec<Vec<f32>> = grads.into_iter().map(|mut g| { g.truncate(len); g }).collect();
        let n = grads.len();

        // Reference sum.
        let mut expect = vec![0.0f32; len];
        for g in &grads {
            for (e, v) in expect.iter_mut().zip(g) {
                *e += v;
            }
        }

        // Shuffle all packets deterministically from the seed.
        let mut packets: Vec<Packet> = (grads.iter().enumerate())
            .flat_map(|(w, g)| packets(w as u8 + 1, g))
            .collect();
        let mut state = seed | 1;
        for i in (1..packets.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            packets.swap(i, j);
        }

        let mut accel = Accelerator::new(AcceleratorConfig::default(), num_segments(len), n as u16);
        let mut asm = RoundAssembler::new(len, true);
        asm.begin_round(Some(0));
        for pkt in &packets {
            if let Some(done) = ingest(&mut accel, pkt) {
                prop_assert_eq!(done.count as usize, n);
                let start = done.seg as usize * FLOATS_PER_SEGMENT;
                prop_assert_eq!(done.values.len(), (len - start).min(FLOATS_PER_SEGMENT));
                for (a, b) in done.values.iter().zip(&expect[start..]) {
                    prop_assert!((a - b).abs() <= 1e-2 * (1.0 + b.abs()),
                        "sum mismatch: {} vs {}", a, b);
                }
                prop_assert_ne!(asm.insert_wire(&done.encode()), RoundInsert::Stale);
            }
        }
        prop_assert!(asm.is_done(), "all segments must aggregate");
    }

    /// Control messages survive the wire for arbitrary field values.
    #[test]
    fn control_messages_round_trip(worker_id in any::<u32>(), h in 1u32..65_536, seg in 0u64..(1u64<<48)) {
        for msg in [
            ControlMessage::Join { worker_id, grad_len: h },
            ControlMessage::Leave { worker_id },
            ControlMessage::SetH { h },
            ControlMessage::FBcast { seg },
            ControlMessage::Help { seg },
        ] {
            let decoded = ControlMessage::decode(&msg.encode()).expect("decodes");
            prop_assert_eq!(decoded, msg);
        }
    }

    /// Decoding arbitrary bytes never panics — it returns a protocol error
    /// or a structurally valid message.
    #[test]
    fn decoding_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = ControlMessage::decode(&bytes);
        let _ = DataSegment::decode(&bytes);
    }

    /// Accelerator buffers always drain back to zero after every worker
    /// contributed every segment (no leaks across rounds).
    #[test]
    fn accelerator_drains_after_full_rounds(
        len in 1usize..1_200,
        workers in 2u16..6,
        rounds in 1usize..4,
    ) {
        let grad = vec![1.0f32; len];
        let packets = packets(1, &grad);
        let mut accel =
            Accelerator::new(AcceleratorConfig::default(), num_segments(len), workers);
        for _ in 0..rounds {
            for _ in 0..workers {
                for pkt in &packets {
                    let _ = ingest(&mut accel, pkt);
                }
            }
            prop_assert_eq!(accel.resident_bytes(), 0);
        }
        prop_assert_eq!(
            accel.stats().segments_emitted as usize,
            rounds * num_segments(len)
        );
    }
}
