//! The iSwitch network protocol (paper §3.2): ToS tagging, control
//! messages, and gradient data segmentation.

pub(crate) mod codec;
mod control;
pub(crate) mod data;
mod tos;

pub use codec::{
    topk_indices, AccEffects, AggregationCodec, BlockFloatCodec, CodecKind, F32Codec,
    FixedPointCodec, TopKCodec, WireAcc, BLOCKFLOAT_ELEMS_PER_SEGMENT, BLOCK_ELEMS,
    CODEC_HEADER_BYTES, FIXED_ELEMS_PER_SEGMENT, TOPK_DIVISOR, TOPK_ELEMS_PER_SEGMENT,
};
pub use control::ControlMessage;
pub use data::{
    decode_seg_field, num_segments, seg_index, seg_round, segment_gradient, segment_gradient_round,
    tag_round, DataSegment, GradientAssembler, RoundAssembler, RoundInsert, SegmentMeta,
    FLOATS_PER_SEGMENT, MAX_SEG_INDEX, ROUND_SHIFT, SEG_HEADER_BYTES,
};
pub use tos::{dscp, is_iswitch_tos, ISWITCH_UDP_PORT, TOS_CONTROL, TOS_DATA};
