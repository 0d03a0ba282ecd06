//! FEAST-style experiment framework for deadline-distribution studies.
//!
//! The paper evaluates its techniques inside FEAST, "a framework for
//! evaluation of allocation and scheduling techniques for distributed hard
//! real-time systems". This crate is that framework for the present
//! reproduction: it sweeps [`Scenario`]s (workload × metric × estimation ×
//! platform) over system sizes with many random replications, aggregates
//! lateness statistics, and renders the paper's figures as tables, ASCII
//! plots, CSV and JSON.
//!
//! * [`Scenario`] / [`Runner`] — one parameter combination, swept and
//!   replicated by the experiment engine. Workload seeds are per-replication
//!   seed streams (see [`taskgraph::gen::stream_seed`]): identical across
//!   scenarios sharing a workload source (paired comparisons) and
//!   independently addressable, which is what makes runs shardable
//!   ([`ShardSpec`], [`PartialResult::merge`]), resumable
//!   ([`Runner::checkpoint`]) and cancellable ([`CancelToken`]).
//! * [`experiments`] — one regenerator per figure of the paper (`fig2` …
//!   `fig5`) and per §8 complementary study (`ext-*`).
//! * [`ExperimentResult`] — panels × series of mean maximum task lateness,
//!   with renderers.
//!
//! # Examples
//!
//! Run one scenario through the engine:
//!
//! ```
//! use feast::{Runner, Scenario};
//! use slicing::{CommEstimate, MetricKind};
//! use taskgraph::gen::{ExecVariation, WorkloadSpec};
//!
//! # fn main() -> Result<(), feast::RunError> {
//! let scenario = Scenario::paper(
//!     "ADAPT/CCNE",
//!     WorkloadSpec::paper(ExecVariation::Mdet),
//!     MetricKind::adapt(),
//!     CommEstimate::Ccne,
//! )
//! .with_replications(4)
//! .with_system_sizes(vec![2, 4]);
//! let result = Runner::new(scenario).threads(2).run()?;
//! assert_eq!(result.points.len(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! Regenerate a scaled-down Figure 5 and print it:
//!
//! ```
//! use feast::experiments::{fig5, ExperimentConfig};
//!
//! # fn main() -> Result<(), feast::RunError> {
//! let cfg = ExperimentConfig::quick().with_replications(2);
//! let result = fig5(&cfg)?;
//! println!("{}", result.to_tables());
//! assert_eq!(result.panels.len(), 3); // LDET, MDET, HDET
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod admission;
mod error;
pub mod experiments;
pub mod fault;
mod pipeline;
pub mod progress;
mod report;
mod runner;
mod scenario;
mod sealed_log;
mod stats;
pub mod telemetry;

pub use admission::{
    AdmissionController, AdmissionLog, AdmissionService, AdmitConfig, AdmitOutcome, AdmitRequest,
    AdmitVerdict, EvictionCandidate, EvictionPolicy, LowestUtilization, OldestFirst, Refusal,
};
pub use error::{AdmitError, Error, RunError};
pub use fault::{FaultPlan, FaultSite, FaultSpec};
pub use pipeline::{Pipeline, SliceOutput, Sliced, Verdict};
pub use progress::{MetricsFile, MetricsWriter, ProgressSnapshot, ProgressTracker};
pub use report::{ExperimentResult, Panel, ProfileRow, Series};
pub use runner::{
    CancelToken, FailedReplication, PartialResult, ReplicationOutcome, ReplicationRecord, Runner,
    ScenarioPoint, ScenarioResult, ShardSpec,
};
pub use scenario::{
    PinningPolicy, Scenario, ScenarioError, SchedulerSpec, Technique, TopologyKind, WorkloadSource,
};
pub use stats::SummaryStats;

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_and_sync() {
        assert_send_sync::<Scenario>();
        assert_send_sync::<ScenarioResult>();
        assert_send_sync::<ExperimentResult>();
        assert_send_sync::<RunError>();
        assert_send_sync::<SummaryStats>();
        assert_send_sync::<Runner>();
        assert_send_sync::<PartialResult>();
        assert_send_sync::<ReplicationRecord>();
        assert_send_sync::<ShardSpec>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<ScenarioError>();
        assert_send_sync::<FailedReplication>();
        assert_send_sync::<ReplicationOutcome>();
        assert_send_sync::<FaultPlan>();
        assert_send_sync::<FaultSpec>();
        assert_send_sync::<FaultSite>();
        assert_send_sync::<ProgressTracker>();
        assert_send_sync::<ProgressSnapshot>();
        assert_send_sync::<MetricsWriter>();
        assert_send_sync::<MetricsFile>();
        assert_send_sync::<ProfileRow>();
        assert_send_sync::<Error>();
        assert_send_sync::<AdmitError>();
        assert_send_sync::<Pipeline>();
        assert_send_sync::<SliceOutput>();
        assert_send_sync::<Verdict>();
        assert_send_sync::<AdmissionController>();
        assert_send_sync::<AdmissionService>();
        assert_send_sync::<AdmitConfig>();
        assert_send_sync::<AdmitRequest>();
        assert_send_sync::<AdmitVerdict>();
        assert_send_sync::<AdmissionLog>();
    }
}
