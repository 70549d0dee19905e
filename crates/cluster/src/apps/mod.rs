//! Event-driven host applications implementing every distributed-training
//! strategy the paper evaluates, for timing-mode and co-simulation runs.
//!
//! Every worker is a [`StrategyRuntime`] over a strategy-specific
//! [`StrategyProtocol`]; the shared iteration/retry/span machinery lives in
//! [`runtime`], the per-strategy modules hold only wire behaviour.

mod allreduce;
mod background;
mod common;
mod isw_async;
mod isw_sync;
mod ps_async;
mod ps_sync;
pub mod runtime;

pub use allreduce::{RingProto, RingWorker, TAG_RING};
pub use background::{BackgroundFlow, BACKGROUND_PORT};
pub use common::{
    blob_packets, BlobAssembler, BlobDone, IterLog, IterSpans, IterationTokens, StallTracker,
    BASELINE_PORT, BLOB_CHUNK, BLOB_HEADER,
};
pub use isw_async::{IswAsyncProto, IswAsyncWorker};
pub use isw_sync::{IswSyncProto, IswSyncWorker};
pub use ps_async::{AsyncPsServer, AsyncPsWorker, PsAsyncProto};
pub use ps_sync::{PsSyncProto, SyncPsServer, SyncPsWorker, TAG_GRAD, TAG_PULL, TAG_WEIGHTS};
pub use runtime::{
    Pacing, ProtoEvent, RoundOutcome, Rt, StrategyProtocol, StrategyRuntime, WorkerCore,
    WorkerView, PROTO_BASE,
};
