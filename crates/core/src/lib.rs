//! # iswitch-core
//!
//! The core of the iSwitch (ISCA '19) reproduction — the paper's actual
//! contribution, built atop the `iswitch-netsim` substrate:
//!
//! * the **network protocol extension** (§3.2): ToS-tagged control and data
//!   packets, Table-2 control actions, and `Seg`-indexed gradient
//!   segmentation against the 1,522-byte Ethernet frame;
//! * the **in-switch aggregation accelerator** (§3.3, Fig. 7): per-segment
//!   counters and buffers with a bank of parallel f32 adders, performing
//!   *on-the-fly* aggregation at network-packet granularity (Fig. 8b), with
//!   a cycle-accurate latency model (256-bit bus @ 200 MHz);
//! * the **control plane** (Fig. 9): a membership table plus accelerator
//!   management via `Join`/`Leave`/`Reset`/`SetH`, and the lost-packet
//!   paths `FBcast`/`Help`;
//! * **hierarchical aggregation** (§3.4): ToR switches aggregate their rack
//!   locally and forward one contribution upward; the core switch
//!   aggregates rack contributions and broadcasts the global result down.
//!
//! ## Example: 4 workers aggregated in one switch
//!
//! Each worker sends its gradient as the packets of an
//! [`EncodedGradient`]; the accelerator sums them straight off the wire,
//! and a worker's [`RoundAssembler`] turns the results back into the mean
//! gradient.
//!
//! ```
//! use iswitch_core::{decode_data_meta, Accelerator, AcceleratorConfig, EncodedGradient};
//! use iswitch_core::{CodecKind, RoundAssembler};
//! use iswitch_netsim::IpAddr;
//!
//! let len = 1000;
//! let segments = iswitch_core::num_segments(len);
//! let mut accel = Accelerator::new(AcceleratorConfig::default(), segments, 4);
//! let mut results = RoundAssembler::new(len, true);
//! results.begin_round(Some(0));
//!
//! for w in 0..4u8 {
//!     let grad = vec![f32::from(w); len];
//!     let src = IpAddr::new(10, 0, 0, w + 1);
//!     for pkt in EncodedGradient::with_codec(src, &grad, CodecKind::F32, 0).packets_round(0) {
//!         let meta = decode_data_meta(&pkt).expect("an f32 data packet");
//!         if let (Some(sum), _latency) = accel.ingest_wire(meta, &pkt.payload) {
//!             results.insert_wire(&sum.encode());
//!         }
//!     }
//! }
//! // (0 + 1 + 2 + 3) / 4 in every element.
//! assert_eq!(results.take_mean(), Some(vec![1.5; len]));
//! ```

#![warn(missing_docs)]

mod accelerator;
mod control_plane;
mod error;
mod protocol;
mod switch_ext;
mod worker;

pub use accelerator::{
    Accelerator, AcceleratorConfig, AcceleratorStats, ClosedRound, Ingest, IngestOutcome, Refusal,
    ResourceReport, HOST_PATH_LATENCY_FACTOR,
};
pub use control_plane::{Member, MemberType, MembershipTable};
pub use error::ProtocolError;
pub use protocol::{
    decode_seg_field, dscp, is_iswitch_tos, num_segments, seg_index, seg_round, tag_round,
    topk_indices, AccEffects, AggregationCodec, BlockScaledCodec, CodecKind, ControlMessage,
    DataSegment, F32Codec, RoundAssembler, RoundInsert, SegmentMeta, TopKCodec, WireAcc,
    BLOCKFLOAT_ELEMS_PER_SEGMENT, BLOCK_ELEMS, BLOCK_FLOAT, CODEC_HEADER_BYTES,
    FIXED_ELEMS_PER_SEGMENT, FIXED_POINT, FLOATS_PER_SEGMENT, ISWITCH_UDP_PORT, MAX_SEG_INDEX,
    ROUND_SHIFT, SEG_HEADER_BYTES, TOPK_DIVISOR, TOPK_ELEMS_PER_SEGMENT, TOS_CONTROL, TOS_DATA,
};
pub use switch_ext::{
    AggregationMode, AggregationRole, ExtensionConfig, ExtensionStats, IswitchExtension,
    FAULT_RESET_TOKEN, RESULT_BROADCAST_IP, RESULT_DEPTH, UPSTREAM_IP,
};
pub use worker::{
    contribution_packet, control_packet, data_packet_wire, decode_control, decode_data_meta,
    EncodedGradient,
};
