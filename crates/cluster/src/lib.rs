//! # iswitch-cluster
//!
//! The distributed-training harness of the iSwitch (ISCA '19)
//! reproduction. It combines the substrates into the paper's experiments:
//!
//! * **timing mode** ([`run_timing`]): paper-sized gradient traffic driven
//!   through the packet-level simulator by event-driven worker/server
//!   applications, one per strategy — synchronous PS, Ring-AllReduce, and
//!   iSwitch, plus asynchronous PS and the three-stage-pipelined
//!   asynchronous iSwitch. Produces per-iteration times, component
//!   breakdowns, and staleness distributions.
//! * **convergence mode** ([`run_convergence`]): real (scaled-down) RL
//!   training with per-strategy aggregation semantics; async strategies
//!   replay the staleness distributions measured in timing mode — the
//!   paper's own §5.3 emulation methodology.
//! * **experiments** ([`experiments`]): one function per table/figure of
//!   the paper's evaluation, composing the two modes.
//!
//! ## Example
//!
//! ```no_run
//! use iswitch_cluster::{run_timing, Strategy, TimingConfig};
//! use iswitch_rl::Algorithm;
//!
//! let ps = run_timing(&TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncPs));
//! let isw = run_timing(&TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw));
//! assert!(isw.per_iteration < ps.per_iteration);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod apps;
mod chaos;
pub mod cli;
mod compute_model;
mod convergence;
mod cosim;
pub mod experiments;
mod gradient_source;
mod lifecycle;
pub mod report;
mod staleness;
mod tenancy;
mod timing_runner;
pub mod transport;

pub use chaos::{
    generate_schedule, run_chaos, run_chaos_isolation, ChaosConfig, ChaosFault, ChaosReport,
    ChaosSchedule, IsolationConfig, IsolationReport,
};
pub use compute_model::{CommCosts, Component, ComputeModel};
pub use convergence::{
    default_max_iterations, default_target, run_convergence, AggregationSemantics,
    ConvergenceConfig, ConvergenceResult,
};
pub use cosim::{run_cosim, CosimConfig, CosimResult};
pub use gradient_source::{
    AgentGradients, GradientSource, ReplayGradients, ReplaySchedule, SyntheticGradients,
};
pub use staleness::{StalenessDistribution, StalenessLedger};
pub use tenancy::{
    run_multi_tenant, run_multi_tenant_perf, FabricConfig, MultiJobConfig, MultiTenantOutcome,
    TenantQuota, TenantRun, TenantSpec,
};
pub use timing_runner::{
    run_timing, run_timing_observed, run_timing_observed_with, run_timing_perf, Breakdown,
    PerfSample, Strategy, TimingConfig, TimingObservation, TimingResult, TraceOptions,
};
pub use transport::{
    make_transport, Dcqcn, GoBackRetransmit, NackReliable, Transport, TransportKind, TransportStats,
};

pub use iswitch_core::AggregationMode;
