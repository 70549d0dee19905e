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
//! ```
//! use iswitch_core::{Accelerator, AcceleratorConfig, segment_gradient};
//!
//! let grads: Vec<Vec<f32>> = (0..4).map(|w| vec![w as f32; 1000]).collect();
//! let segments = iswitch_core::num_segments(1000);
//! let mut accel = Accelerator::new(AcceleratorConfig::default(), segments, 4);
//!
//! let mut aggregated = Vec::new();
//! for grad in &grads {
//!     for seg in segment_gradient(grad) {
//!         if let (Some(done), _latency) = accel.ingest(&seg) {
//!             aggregated.push(done);
//!         }
//!     }
//! }
//! // 0 + 1 + 2 + 3 = 6 in every element.
//! assert!(aggregated.iter().all(|s| s.values.iter().all(|&v| v == 6.0)));
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
    decode_seg_field, dscp, is_iswitch_tos, num_segments, seg_index, seg_round, segment_gradient,
    segment_gradient_round, tag_round, topk_indices, AccEffects, AggregationCodec,
    BlockScaledCodec, CodecKind, ControlMessage, DataSegment, F32Codec, GradientAssembler,
    RoundAssembler, RoundInsert, SegmentMeta, TopKCodec, WireAcc, BLOCKFLOAT_ELEMS_PER_SEGMENT,
    BLOCK_ELEMS, BLOCK_FLOAT, CODEC_HEADER_BYTES, FIXED_ELEMS_PER_SEGMENT, FIXED_POINT,
    FLOATS_PER_SEGMENT, ISWITCH_UDP_PORT, MAX_SEG_INDEX, ROUND_SHIFT, SEG_HEADER_BYTES,
    TOPK_DIVISOR, TOPK_ELEMS_PER_SEGMENT, TOS_CONTROL, TOS_DATA,
};
pub use switch_ext::{
    AggregationMode, AggregationRole, ExtensionConfig, ExtensionStats, IswitchExtension,
    FAULT_RESET_TOKEN, RESULT_BROADCAST_IP, RESULT_DEPTH, UPSTREAM_IP,
};
pub use worker::{
    contribution_packet, control_packet, data_packet, data_packet_wire, decode_control,
    decode_data, decode_data_meta, gradient_packets, gradient_packets_round,
    gradient_packets_round_codec, EncodedGradient,
};
