//! Task-graph model and workload generators for distributed hard real-time
//! systems.
//!
//! This crate provides the *task model* of Jonsson & Shin, "Deadline
//! Assignment in Distributed Hard Real-Time Systems with Relaxed Locality
//! Constraints" (ICDCS 1997), §3:
//!
//! * a real-time application is a directed acyclic [`TaskGraph`] whose nodes
//!   are [`Subtask`]s characterised by worst-case execution times and whose
//!   arcs carry *messages* ([`Edge`]) of a given size in data items;
//! * *input* subtasks (no predecessors) carry release times and *output*
//!   subtasks (no successors) carry absolute end-to-end deadlines;
//! * all temporal quantities are integer [`Time`] units.
//!
//! A [`TaskGraph`] stores its adjacency in CSR form (one offset array plus
//! one flat edge-id array per direction), so a graph is a fixed handful of
//! allocations whatever its size; [`TaskGraph::out_edges`] and
//! [`TaskGraph::in_edges`] are slices of those arrays.
//!
//! The [`gen`] module reproduces the paper's random workload generator
//! (§5.2) and adds the structured shapes of §8; [`analysis`] computes the
//! aggregates that drive the adaptive slicing metric (total workload, longest
//! path, average parallelism ξ, MET).
//!
//! # Examples
//!
//! Build a small pipeline by hand:
//!
//! ```
//! use taskgraph::{Subtask, TaskGraph, Time};
//!
//! # fn main() -> Result<(), taskgraph::GraphError> {
//! let mut b = TaskGraph::builder();
//! let sample = b.add_subtask(Subtask::new(Time::new(10)).named("sample").released_at(Time::ZERO));
//! let filter = b.add_subtask(Subtask::new(Time::new(25)).named("filter"));
//! let actuate = b.add_subtask(Subtask::new(Time::new(8)).named("actuate").due_at(Time::new(120)));
//! b.add_edge(sample, filter, 16)?;
//! b.add_edge(filter, actuate, 4)?;
//! let graph = b.build()?;
//! assert_eq!(graph.topological_order().len(), 3);
//! # Ok(())
//! # }
//! ```
//!
//! Generate one of the paper's random workloads:
//!
//! ```
//! use rand::SeedableRng;
//! use taskgraph::gen::{generate, ExecVariation, WorkloadSpec};
//!
//! # fn main() -> Result<(), taskgraph::gen::GenerateError> {
//! let spec = WorkloadSpec::paper(ExecVariation::Hdet);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
//! let graph = generate(&spec, &mut rng)?;
//! assert!(graph.subtask_count() >= 40);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analysis;
#[cfg(test)]
mod builder_oracle;
pub mod dot;
mod error;
pub mod gen;
mod graph;
mod time;

pub use error::GraphError;
pub use graph::{Edge, EdgeId, Subtask, SubtaskId, TaskGraph, TaskGraphBuilder};
pub use time::Time;

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_and_sync() {
        assert_send_sync::<Time>();
        assert_send_sync::<TaskGraph>();
        assert_send_sync::<TaskGraphBuilder>();
        assert_send_sync::<Subtask>();
        assert_send_sync::<Edge>();
        assert_send_sync::<GraphError>();
        assert_send_sync::<gen::WorkloadSpec>();
    }
}
