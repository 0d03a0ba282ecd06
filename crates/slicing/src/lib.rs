//! Deadline distribution for distributed hard real-time systems with
//! relaxed locality constraints.
//!
//! This crate is the core contribution of the reproduced paper (Jonsson &
//! Shin, ICDCS 1997): given a task graph with end-to-end deadlines, assign
//! every subtask — and every non-negligible communication subtask — a static
//! execution window (*slice*) **before** tasks are assigned to processors.
//!
//! The engine is the basic slicing loop of Figure 1 ([`Slicer`]),
//! parameterized by:
//!
//! * a **metric** ([`SliceMetric`]) that scores candidate critical paths and
//!   shapes per-subtask slack:
//!   [`metrics::Norm`] and [`metrics::Pure`] form the **Basic Slicing
//!   Technique (BST)**; [`metrics::Thres`] and [`metrics::Adapt`] form the
//!   **Adaptive Slicing Technique (AST)**;
//! * a **communication-cost estimation strategy** ([`CommEstimate`]):
//!   CCNE (assume no interprocessor communication), CCAA (always assume it),
//!   or real costs from a known assignment (the strict-locality baseline).
//!
//! The result is a [`DeadlineAssignment`] mapping every subtask to a
//! [`Window`], ready for a deadline-driven scheduler.
//!
//! # Examples
//!
//! ```
//! use platform::Platform;
//! use rand::SeedableRng;
//! use slicing::{CommEstimate, Slicer};
//! use taskgraph::gen::{generate, ExecVariation, WorkloadSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = WorkloadSpec::paper(ExecVariation::Ldet);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let graph = generate(&spec, &mut rng)?;
//! let platform = Platform::paper(8)?;
//!
//! // The paper's best BST configuration ...
//! let bst = Slicer::bst_pure().distribute(&graph, &platform)?;
//! // ... and the proposed AST configuration.
//! let ast = Slicer::ast_adapt().distribute(&graph, &platform)?;
//!
//! assert!(bst.validate(&graph).is_ok());
//! assert!(ast.validate(&graph).is_ok());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod algorithm;
mod assignment;
mod baselines;
mod cache;
mod context;
mod delta;
mod error;
mod estimate;
mod expanded;
mod incremental;
mod inputs;
pub mod metrics;
mod path_search;
mod prefilter;

pub use algorithm::Slicer;
pub use assignment::{DeadlineAssignment, SliceViolation, ValidationReport, Window};
pub use baselines::{distribute_baseline, BaselineStrategy};
pub use cache::{SliceCache, SliceKey};
pub use context::MetricContext;
pub use delta::{Applied, DeltaError, DeltaOp, GraphDelta};
pub use error::SliceError;
pub use estimate::CommEstimate;
pub use incremental::{RedistributeStats, Redistribution, SliceMemo};
pub use inputs::SliceInputs;
pub use metrics::{Adapt, MetricKind, Norm, Pure, ShareRule, SliceMetric, Thres, ThresholdSpec};
pub use prefilter::{prefilter, PrefilterReject};

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_and_sync() {
        assert_send_sync::<Slicer>();
        assert_send_sync::<DeadlineAssignment>();
        assert_send_sync::<Window>();
        assert_send_sync::<MetricKind>();
        assert_send_sync::<CommEstimate>();
        assert_send_sync::<SliceError>();
        assert_send_sync::<MetricContext>();
        assert_send_sync::<GraphDelta>();
        assert_send_sync::<DeltaOp>();
        assert_send_sync::<DeltaError>();
        assert_send_sync::<Applied>();
        assert_send_sync::<SliceMemo>();
        assert_send_sync::<Redistribution>();
        assert_send_sync::<RedistributeStats>();
        assert_send_sync::<SliceKey>();
        assert_send_sync::<SliceInputs>();
        assert_send_sync::<SliceCache<u32>>();
        assert_send_sync::<PrefilterReject>();
    }
}
