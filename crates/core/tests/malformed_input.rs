//! Malformed-input battery: whatever bytes arrive, every wire decoder
//! returns an error, `Stale`, or a counted drop — never a panic. The
//! switch sees arbitrary frames; so do the workers listening for results.
//!
//! Inputs are arbitrary byte strings up to a full UDP payload, and valid
//! payloads of every codec (narrow contribution and wide result) with one
//! header, sub-header or body byte flipped, or the tail cut.

use iswitch_core::{
    data_packet_wire, decode_seg_field, Accelerator, AcceleratorConfig, CodecKind, ControlMessage,
    DataSegment, ExtensionConfig, IswitchExtension, ProtocolError, RoundAssembler, RoundInsert,
    SegmentMeta, UPSTREAM_IP,
};
use iswitch_netsim::{
    build_star, host_ip, PortId, SimDuration, Simulator, Switch, TopologyConfig, MAX_UDP_PAYLOAD,
};
use proptest::prelude::*;

mod common;
use common::{switch_counter, Puppet};

/// A well-formed payload for segment 0 under `kind`: a contribution, or
/// (`wide`) the result encoding an intermediate switch sends upward.
fn valid_payload(kind: CodecKind, wide: bool, values: &[f32]) -> Vec<u8> {
    let codec = kind.codec();
    if wide {
        let aggregate = DataSegment {
            seg: 0,
            count: 3,
            values: values.to_vec(),
        };
        codec.encode_result(&aggregate).to_vec()
    } else {
        codec
            .encode_contribution(0, values)
            .expect("finite values")
            .to_vec()
    }
}

/// Flips bits of one byte, or cuts the tail, as `how` selects. `at` picks
/// the byte or the cut; low values of `region` aim at the 8-byte `Seg`
/// header and the 4-byte codec sub-header, where the structure lives.
fn mutate(mut payload: Vec<u8>, how: u8, region: u8, at: usize, mask: u8) -> Vec<u8> {
    if how.is_multiple_of(4) {
        payload.truncate(at % payload.len());
        return payload;
    }
    let span = match region % 3 {
        0 => 8.min(payload.len()),
        1 => 12.min(payload.len()),
        _ => payload.len(),
    };
    payload[at % span] ^= mask | 1;
    payload
}

/// Drives every decoder that can meet `bytes` and checks they agree on
/// whether the payload is well-formed.
fn decode_everywhere(kind: CodecKind, bytes: &[u8], len: usize) {
    let codec = kind.codec();
    let meta = codec.decode_meta(bytes);
    let values = codec.decode_values(bytes);
    if let (Ok(meta), Ok(values)) = (&meta, &values) {
        assert_eq!(
            (meta.seg, meta.count, meta.len),
            (values.seg, values.count, values.values.len()),
            "{kind}: header-only and full decode disagree"
        );
    }
    if meta.is_err() {
        assert!(values.is_err(), "{kind}: values decoded past a bad header");
    }
    assert_eq!(decode_seg_field(bytes).is_err(), bytes.len() < 8);

    // A switch accumulator already holding one valid contribution.
    let mut acc = codec.new_acc(len);
    let first = valid_payload(kind, false, &vec![1.0; len]);
    codec
        .accumulate(&mut acc, &first)
        .expect("valid first contribution");
    let _ = codec.accumulate(&mut acc, bytes);
    assert_eq!(acc.len(), len, "{kind}: accumulator resized by a payload");

    // A worker waiting for the one-segment result of round 0, with and
    // without value storage.
    for store_values in [false, true] {
        let mut asm = RoundAssembler::with_codec(len, store_values, kind);
        asm.begin_round(Some(0));
        let verdict = asm.insert_wire(bytes);
        if meta.is_err() {
            assert_eq!(verdict, RoundInsert::Stale, "{kind}");
        }
        if verdict == RoundInsert::Completed && store_values {
            assert_eq!(asm.take_mean().expect("values stored").len(), len);
        }
    }
}

/// Feeds `bytes` to an accelerator whose round 0 is already open, then
/// checks the round still completes — and, if the packet was refused,
/// that the round, its BRAM and its aggregate are exactly those of a
/// switch that never saw it. Returns whether the accelerator refused it.
fn ingest_after_a_valid_first(kind: CodecKind, bytes: &[u8], len: usize, host_path: bool) -> bool {
    let codec = kind.codec();
    let Ok(meta) = codec.decode_meta(bytes) else {
        return false; // the switch extension drops these before the accelerator
    };
    let new_accel = || {
        let mut a = Accelerator::with_codec(AcceleratorConfig::default(), 1, 3, kind);
        if host_path {
            a.set_grant(Some(0), None);
            a.set_host_fallback(true);
        }
        a
    };
    let valid = |v: f32| valid_payload(kind, false, &vec![v; len]);
    let feed = |a: &mut Accelerator, payload: &[u8]| {
        let meta = codec.decode_meta(payload).expect("well-formed");
        a.ingest_wire(meta, payload).0
    };

    let mut accel = new_accel();
    assert!(feed(&mut accel, &valid(1.0)).is_none());
    let _ = accel.ingest_wire(meta, bytes);
    let stats = accel.stats().clone();
    assert_eq!(stats.packets_in, 2);
    assert!(stats.malformed_drops <= 1);
    let refused = stats.malformed_drops == 1;
    if refused {
        assert_eq!(
            stats.segments_emitted, 0,
            "{kind}: a refused packet emitted"
        );
        let mut clean = new_accel();
        feed(&mut clean, &valid(1.0));
        assert_eq!(accel.partial_segments(), vec![0], "{kind}");
        assert_eq!(accel.resident_bytes(), clean.resident_bytes(), "{kind}");
        assert!(feed(&mut accel, &valid(2.0)).is_none());
        let done = feed(&mut accel, &valid(4.0)).expect("round 0 completes");
        feed(&mut clean, &valid(2.0));
        assert_eq!(Some(done), feed(&mut clean, &valid(4.0)), "{kind}");
    } else {
        // Accepted, into round 0 or into a round of its own: round 0 still
        // completes within the two contributions it may be missing.
        let second = feed(&mut accel, &valid(2.0));
        assert!(second.is_some() || feed(&mut accel, &valid(4.0)).is_some());
    }
    refused
}

/// The scaling exponent is the one byte of an integer payload that can
/// turn a finite accumulator into `inf` (the switch's result encoder
/// asserts against it in debug builds). Exponents past what a saturated
/// accumulator decodes finite — 2^96 — are refused wherever outside bytes
/// enter, in either payload width and on either path, before anything is
/// accumulated; the largest admitted one stays finite at full saturation.
#[test]
fn wild_scaling_exponents_are_refused_before_anything_accumulates() {
    const LEN: usize = 40; // two block-float blocks: 32 + 8 elements
    let wild = Err(ProtocolError::InvalidField("scaling exponent"));
    for wide in [false, true] {
        // (codec, offsets of its exponent bytes, byte of the largest
        // admitted exponent 2^96, bytes to refuse).
        let second_block = 12 + 1 + 32 * if wide { 2 } else { 1 };
        let rows: [(CodecKind, &[usize], u8, &[u8]); 2] = [
            (
                CodecKind::BlockFloat,
                &[12, second_block],
                223,
                &[224, 254, 255],
            ),
            (CodecKind::FixedPoint, &[10], 96, &[97, 127, 0x80, 0x81]),
        ];
        for (kind, exponent_at, admitted, refused) in rows {
            let codec = kind.codec();
            // Every mantissa byte 0x7F: each element at (narrow block-float,
            // i8) or within 1 % of its largest value. The exponent bytes are
            // set below.
            let mut saturated = valid_payload(kind, wide, &[1.0; LEN]);
            saturated[12..].fill(0x7F);
            for &at in exponent_at {
                let tamper = |e: u8| {
                    let mut bytes = saturated.clone();
                    exponent_at
                        .iter()
                        .for_each(|&other| bytes[other] = admitted);
                    bytes[at] = e;
                    bytes
                };
                let bytes = tamper(admitted);
                let decoded = codec.decode_values(&bytes).expect("admitted exponent");
                assert!(decoded.values.iter().all(|v| v.is_finite()), "{kind}");
                let mut acc = codec.new_acc(LEN);
                for _ in 0..4 {
                    codec
                        .accumulate(&mut acc, &bytes)
                        .expect("admitted exponent");
                }
                assert!(
                    codec.decode_acc(&acc).iter().all(|v| v.is_finite()),
                    "{kind}"
                );

                for &e in refused {
                    let bytes = tamper(e);
                    assert!(
                        codec.decode_meta(&bytes).is_ok(),
                        "{kind}: the header parses"
                    );
                    assert_eq!(codec.decode_values(&bytes).map(|_| ()), wild, "{kind} {e}");
                    let before = codec.decode_acc(&acc);
                    assert_eq!(
                        codec.accumulate(&mut acc, &bytes).map(|_| ()),
                        wild,
                        "{kind} {e}"
                    );
                    assert_eq!(
                        codec.decode_acc(&acc),
                        before,
                        "{kind} {e}: half-accumulated"
                    );
                    for host_path in [false, true] {
                        assert!(
                            ingest_after_a_valid_first(kind, &bytes, LEN, host_path),
                            "{kind}: exponent byte {e} at {at} accepted (wide {wide}, host {host_path})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_refused_packet_under_stale_flush_arms_nothing_and_leaves_nothing() {
    let kind = CodecKind::TopK;
    let elems = kind.elems_per_segment();
    let age = SimDuration::from_millis(1);
    // Each payload leaves the one host at its time (µs). The switch parses
    // the payload itself; the packet's own stamp is for tracing only.
    let run = |script: Vec<(u64, Vec<u8>)>| {
        let (seg, count, len) = (0, 1, 0);
        let stamp = SegmentMeta { seg, count, len };
        let send =
            |payload: Vec<u8>| data_packet_wire(host_ip(0, 0), UPSTREAM_IP, stamp, payload.into());
        let script = script
            .into_iter()
            .map(|(at, payload)| (at * 1_000, send(payload)));
        let mut cfg = ExtensionConfig::for_star(vec![PortId::new(0)], 2 * elems)
            .with_threshold(2)
            .with_codec(kind)
            .with_stale_flush(age);
        cfg.accel.buffer_bytes = kind.acc_bytes(elems); // one round fits
        let mut sim = Simulator::new();
        let star = build_star(
            &mut sim,
            vec![Puppet::new(script.collect())],
            Some(Box::new(IswitchExtension::new(cfg))),
            &TopologyConfig::default(),
        );
        let idle_at = sim.run_until_idle();
        let ext = sim
            .device::<Switch>(star.switch)
            .extension::<IswitchExtension>();
        assert!(ext.accelerator().is_idle());
        assert_eq!(ext.accelerator().resident_bytes(), 0);
        let swept = switch_counter(&sim, star.switch, "stale_flushes");
        (idle_at, ext.accelerator().stats().clone(), swept)
    };
    let seg = |index: u64| {
        let full = kind.codec().encode_contribution(index, &vec![1.0; elems]);
        full.expect("finite values").to_vec()
    };

    // Malformed for the round it would open (its first sparse index points
    // past the segment): the round is released again and no sweep is armed
    // — the run is over the moment the packet is dropped.
    let mut bad = seg(0);
    bad[12] ^= 0x80;
    let (idle_at, stats, swept) = run(vec![(0, bad)]);
    assert_eq!(
        (stats.malformed_drops, stats.segments_emitted, swept),
        (1, 0, 0)
    );
    assert!(
        idle_at.as_nanos() < age.as_nanos() / 2,
        "a sweep was armed: {idle_at}"
    );

    // Refused for lack of BRAM while segment 0's round is open. That round
    // goes stale and is flushed by the sweep tick 1 ms after it opened,
    // and the chain ends there: the refused packet, 100 µs before, left no
    // arrival time behind for another tick to come back for.
    let (idle_at, stats, swept) = run(vec![(0, seg(0)), (900, seg(1))]);
    assert_eq!(
        (stats.bram_drops, stats.forced_broadcasts, swept),
        (1, 1, 1)
    );
    assert!(
        idle_at.as_nanos() < age.as_nanos() * 3 / 2,
        "a ghost sweep ran: {idle_at}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary and truncated byte strings, 0..=1,472 bytes.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..MAX_UDP_PAYLOAD + 1),
        len in 1usize..64,
        host_path in any::<bool>(),
    ) {
        let _ = ControlMessage::decode(&bytes);
        for kind in CodecKind::ALL {
            decode_everywhere(kind, &bytes, len);
            let _ = ingest_after_a_valid_first(kind, &bytes, len, host_path);
        }
    }

    /// Valid payloads with one byte flipped or the tail cut.
    #[test]
    fn damaged_valid_payloads_never_panic(
        values in prop::collection::vec(-100.0f32..100.0, 1..366),
        wide in any::<bool>(),
        same_len in any::<bool>(),
        how in any::<u8>(),
        region in any::<u8>(),
        at in any::<u64>(),
        mask in any::<u8>(),
        host_path in any::<bool>(),
    ) {
        for kind in CodecKind::ALL {
            let values = &values[..values.len().min(kind.elems_per_segment())];
            let damaged = mutate(valid_payload(kind, wide, values), how, region, at as usize, mask);
            // Against a round of the payload's own length (only the damage
            // is wrong) or of another length (the shape is wrong too).
            let len = if same_len { values.len() } else { values.len() % 7 + 1 };
            decode_everywhere(kind, &damaged, len);
            let _ = ingest_after_a_valid_first(kind, &damaged, len, host_path);
        }
    }

    /// Control packets with one byte flipped or the tail cut.
    #[test]
    fn damaged_control_messages_never_panic(
        worker_id in any::<u32>(),
        seg in any::<u64>(),
        how in any::<u8>(),
        at in any::<u64>(),
        mask in any::<u8>(),
    ) {
        for msg in [
            ControlMessage::Join { worker_id, grad_len: worker_id.rotate_left(7) },
            ControlMessage::Leave { worker_id },
            ControlMessage::SetH { h: worker_id },
            ControlMessage::FBcast { seg },
            ControlMessage::Help { seg },
            ControlMessage::Ack { of: mask, ok: true },
            ControlMessage::Reset,
        ] {
            let damaged = mutate(msg.encode().to_vec(), how, 2, at as usize, mask);
            let _ = ControlMessage::decode(&damaged);
        }
    }
}
