//! What the slicing loop reads of the platform and the metric.
//!
//! The loop of Figure 1 runs before task assignment, so the platform
//! reaches it only through two channels: the metric context (N_proc and
//! the nominal message cost in ξ, which the adaptive metrics read) and
//! the estimated cost of each message. [`Slicer::inputs`] is the one place
//! that reads them. The loop takes the resulting [`SliceInputs`] and the
//! graph, and nothing else, so two equal inputs for one graph and one
//! slicer give a bit-identical [`DeadlineAssignment`] by construction —
//! for every metric, custom ones included, with no list of which metrics
//! read which platform field.
//!
//! [`DeadlineAssignment`]: crate::DeadlineAssignment

use platform::Platform;
use taskgraph::{TaskGraph, Time};

use crate::{MetricContext, Slicer};

/// Everything the slicing loop takes from the platform and the metric for
/// one graph: every edge's estimated communication cost, and every
/// expanded node's virtual execution time in the metric context.
///
/// Equality compares the costs and the virtual times (bit for bit), the
/// whole of what the loop reads. The loop reads the context (and so the
/// system size) only through the virtual times, so no system size the
/// loop cannot tell apart is told apart here. Equal inputs computed by
/// one slicer for one graph therefore give bit-identical
/// [`Slicer::distribute_from`] output.
///
/// # Examples
///
/// ```
/// use platform::Platform;
/// use slicing::Slicer;
/// use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
///
/// let graph = generate_seeded(&WorkloadSpec::paper(ExecVariation::Mdet), 3).unwrap();
/// let (two, eight) = (Platform::paper(2).unwrap(), Platform::paper(8).unwrap());
/// // Under CCNE, PURE reads nothing that depends on the system size ...
/// let pure = Slicer::bst_pure();
/// assert_eq!(pure.inputs(&graph, &two), pure.inputs(&graph, &eight));
/// // ... while ADAPT's surplus ξ/N_proc does.
/// let adapt = Slicer::ast_adapt();
/// assert_ne!(adapt.inputs(&graph, &two), adapt.inputs(&graph, &eight));
/// ```
#[derive(Debug, Clone)]
pub struct SliceInputs {
    /// Estimated cost of every edge's message, in edge order. The
    /// positive ones become communication subtasks.
    pub(crate) comm: Vec<Time>,
    /// Virtual execution time of every expanded node, in expanded-node
    /// order: the subtasks by id, then the materialized messages in edge
    /// order.
    pub(crate) vweights: Vec<f64>,
}

impl PartialEq for SliceInputs {
    fn eq(&self, other: &Self) -> bool {
        self.comm == other.comm
            && self.vweights.len() == other.vweights.len()
            && self
                .vweights
                .iter()
                .zip(&other.vweights)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for SliceInputs {}

impl Slicer {
    /// What slicing `graph` for `platform` reads of the platform and this
    /// slicer's metric: the only place the slicing loop reads either.
    ///
    /// Costs O(V + E): the metric context, one estimate per edge and one
    /// virtual time per expanded node.
    pub fn inputs(&self, graph: &TaskGraph, platform: &Platform) -> SliceInputs {
        let ctx = MetricContext::for_workload(graph, platform);
        let comm: Vec<Time> = graph
            .edge_ids()
            .map(|eid| self.estimate().estimated_cost(graph.edge(eid), platform))
            .collect();
        let vweights = graph
            .subtask_ids()
            .map(|id| graph.subtask(id).wcet())
            .chain(comm.iter().copied().filter(|cost| cost.is_positive()))
            .map(|w| self.metric().virtual_time(w, &ctx))
            .collect();
        SliceInputs { comm, vweights }
    }
}
