//! Graph deltas: compact descriptions of workload mutations.
//!
//! An online admission-control service does not regenerate its task graph
//! from scratch when one WCET estimate is revised or one sensor task is
//! re-pinned — it mutates the resident workload. A [`GraphDelta`] captures
//! such a mutation batch as a sequence of [`DeltaOp`]s and
//! [applies](GraphDelta::apply) it to an existing [`TaskGraph`] +
//! [`Pinning`] pair, producing a fresh, fully re-validated pair (the
//! original is untouched; `TaskGraph` is immutable by design).
//!
//! The applied graph is sliced and scheduled from scratch, like any other
//! graph: an amendment is an ordinary trial of the amended graph.

use std::fmt;

use platform::{Pinning, PlatformError, ProcessorId};
use serde::{Deserialize, Serialize};
use taskgraph::{GraphError, Subtask, SubtaskId, TaskGraph, Time};

/// One mutation of a task graph or its locality constraints.
///
/// Subtask ids refer to the numbering *at the time the op is applied*:
/// earlier ops in the same [`GraphDelta`] shift it (a
/// [`RemoveSubtask`](DeltaOp::RemoveSubtask) renumbers every id above the
/// removed one down by one; an [`AddSubtask`](DeltaOp::AddSubtask) appends
/// at the end).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeltaOp {
    /// Replaces a subtask's worst-case execution time.
    SetWcet {
        /// The subtask to edit.
        subtask: SubtaskId,
        /// The new WCET (must stay positive; validated on rebuild).
        wcet: Time,
    },
    /// Sets or clears a subtask's given release time.
    SetRelease {
        /// The subtask to edit.
        subtask: SubtaskId,
        /// The new release anchor, or `None` to clear it.
        release: Option<Time>,
    },
    /// Sets or clears a subtask's given end-to-end deadline.
    SetDeadline {
        /// The subtask to edit.
        subtask: SubtaskId,
        /// The new deadline anchor, or `None` to clear it.
        deadline: Option<Time>,
    },
    /// Appends a new subtask (its id becomes the current subtask count).
    AddSubtask {
        /// The subtask to insert, with its anchors already set.
        subtask: Subtask,
    },
    /// Removes a subtask along with every incident edge and its pin;
    /// subtasks with higher ids are renumbered down by one.
    RemoveSubtask {
        /// The subtask to remove.
        subtask: SubtaskId,
    },
    /// Adds a precedence edge carrying `items` data items.
    AddEdge {
        /// The producing subtask.
        src: SubtaskId,
        /// The consuming subtask.
        dst: SubtaskId,
        /// Message payload in data items (must be positive).
        items: u64,
    },
    /// Removes the edge `src → dst`.
    RemoveEdge {
        /// The producing subtask.
        src: SubtaskId,
        /// The consuming subtask.
        dst: SubtaskId,
    },
    /// Pins a subtask to a processor (replacing any existing pin, so a pin
    /// *move* is a single op).
    Pin {
        /// The subtask to constrain.
        subtask: SubtaskId,
        /// The processor it must run on.
        processor: ProcessorId,
    },
    /// Removes a subtask's locality constraint (a no-op if unpinned).
    Unpin {
        /// The subtask to relax.
        subtask: SubtaskId,
    },
}

/// An ordered batch of [`DeltaOp`]s applied atomically: either every op
/// applies and the rebuilt graph validates, or nothing is produced.
///
/// # Examples
///
/// ```
/// use platform::Pinning;
/// use slicing::{DeltaOp, GraphDelta};
/// use taskgraph::{Subtask, SubtaskId, TaskGraph, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TaskGraph::builder();
/// let a = b.add_subtask(Subtask::new(Time::new(10)).released_at(Time::ZERO));
/// let z = b.add_subtask(Subtask::new(Time::new(20)).due_at(Time::new(100)));
/// b.add_edge(a, z, 5)?;
/// let graph = b.build()?;
///
/// let delta = GraphDelta::new().set_wcet(a, Time::new(15));
/// let applied = delta.apply(&graph, &Pinning::new())?;
/// assert_eq!(applied.graph.subtask(a).wcet(), Time::new(15));
/// assert_eq!(applied.graph.subtask(z).wcet(), Time::new(20));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GraphDelta {
    ops: Vec<DeltaOp>,
}

/// The result of applying a [`GraphDelta`]: a rebuilt, validated graph and
/// the updated locality constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct Applied {
    /// The mutated task graph (re-validated by the builder).
    pub graph: TaskGraph,
    /// The mutated pinning, with removed subtasks dropped and surviving
    /// ones renumbered consistently with the graph.
    pub pinning: Pinning,
}

/// Why a [`GraphDelta`] could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An op referenced a subtask id that does not exist at that point of
    /// the sequence.
    UnknownSubtask(SubtaskId),
    /// [`DeltaOp::RemoveEdge`] referenced an edge that does not exist.
    UnknownEdge(SubtaskId, SubtaskId),
    /// The rebuilt graph failed validation (cycle, non-positive WCET,
    /// missing anchor, duplicate edge, ...).
    Graph(GraphError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownSubtask(id) => write!(f, "delta references unknown subtask {id}"),
            DeltaError::UnknownEdge(src, dst) => {
                write!(f, "delta references unknown edge {src} -> {dst}")
            }
            DeltaError::Graph(e) => write!(f, "delta produced an invalid graph: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeltaError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for DeltaError {
    fn from(e: GraphError) -> Self {
        DeltaError::Graph(e)
    }
}

impl GraphDelta {
    /// An empty delta (applying it clones the inputs verbatim).
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Appends an arbitrary op.
    #[must_use]
    pub fn push(mut self, op: DeltaOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Appends a WCET change.
    #[must_use]
    pub fn set_wcet(self, subtask: SubtaskId, wcet: Time) -> Self {
        self.push(DeltaOp::SetWcet { subtask, wcet })
    }

    /// Appends a release-anchor change.
    #[must_use]
    pub fn set_release(self, subtask: SubtaskId, release: Option<Time>) -> Self {
        self.push(DeltaOp::SetRelease { subtask, release })
    }

    /// Appends a deadline-anchor change.
    #[must_use]
    pub fn set_deadline(self, subtask: SubtaskId, deadline: Option<Time>) -> Self {
        self.push(DeltaOp::SetDeadline { subtask, deadline })
    }

    /// Appends a subtask insertion.
    #[must_use]
    pub fn add_subtask(self, subtask: Subtask) -> Self {
        self.push(DeltaOp::AddSubtask { subtask })
    }

    /// Appends a subtask removal.
    #[must_use]
    pub fn remove_subtask(self, subtask: SubtaskId) -> Self {
        self.push(DeltaOp::RemoveSubtask { subtask })
    }

    /// Appends an edge insertion.
    #[must_use]
    pub fn add_edge(self, src: SubtaskId, dst: SubtaskId, items: u64) -> Self {
        self.push(DeltaOp::AddEdge { src, dst, items })
    }

    /// Appends an edge removal.
    #[must_use]
    pub fn remove_edge(self, src: SubtaskId, dst: SubtaskId) -> Self {
        self.push(DeltaOp::RemoveEdge { src, dst })
    }

    /// Appends a pin (move).
    #[must_use]
    pub fn pin(self, subtask: SubtaskId, processor: ProcessorId) -> Self {
        self.push(DeltaOp::Pin { subtask, processor })
    }

    /// Appends an unpin.
    #[must_use]
    pub fn unpin(self, subtask: SubtaskId) -> Self {
        self.push(DeltaOp::Unpin { subtask })
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Returns `true` when the delta contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether every op only rewrites subtask attributes (WCET and anchor
    /// values). Attribute-only deltas take the in-place
    /// [`apply`](GraphDelta::apply) fast path; anything else (structure or
    /// pinning) forces the full builder rebuild.
    pub fn is_attribute_only(&self) -> bool {
        self.ops.iter().all(|op| {
            matches!(
                op,
                DeltaOp::SetWcet { .. } | DeltaOp::SetRelease { .. } | DeltaOp::SetDeadline { .. }
            )
        })
    }

    /// Applies every op in order to a working copy of `graph` + `pinning`
    /// and rebuilds through the ordinary builder, so the result satisfies
    /// every invariant a from-scratch graph does (acyclic, anchored inputs
    /// and outputs, positive WCETs, positive messages).
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownSubtask`] / [`DeltaError::UnknownEdge`] when an
    /// op references something that does not exist at its point in the
    /// sequence; [`DeltaError::Graph`] when the rebuilt graph fails builder
    /// validation. On error nothing is produced and the inputs are
    /// untouched.
    pub fn apply(&self, graph: &TaskGraph, pinning: &Pinning) -> Result<Applied, DeltaError> {
        if let Some(applied) = self.apply_attributes_only(graph, pinning)? {
            return Ok(applied);
        }
        let mut subs: Vec<Subtask> = graph
            .subtask_ids()
            .map(|id| graph.subtask(id).clone())
            .collect();
        let mut edges: Vec<(usize, usize, u64)> = graph
            .edge_ids()
            .map(|eid| {
                let e = graph.edge(eid);
                (e.src().index(), e.dst().index(), e.items())
            })
            .collect();
        let mut pins: Vec<Option<ProcessorId>> = (0..subs.len())
            .map(|i| pinning.processor_for(SubtaskId::new(i as u32)))
            .collect();

        let check = |id: SubtaskId, len: usize| -> Result<usize, DeltaError> {
            if id.index() < len {
                Ok(id.index())
            } else {
                Err(DeltaError::UnknownSubtask(id))
            }
        };

        for op in &self.ops {
            match op {
                DeltaOp::SetWcet { subtask, wcet } => {
                    let i = check(*subtask, subs.len())?;
                    subs[i].set_wcet(*wcet);
                }
                DeltaOp::SetRelease { subtask, release } => {
                    let i = check(*subtask, subs.len())?;
                    subs[i].set_release(*release);
                }
                DeltaOp::SetDeadline { subtask, deadline } => {
                    let i = check(*subtask, subs.len())?;
                    subs[i].set_deadline(*deadline);
                }
                DeltaOp::AddSubtask { subtask } => {
                    subs.push(subtask.clone());
                    pins.push(None);
                }
                DeltaOp::RemoveSubtask { subtask } => {
                    let i = check(*subtask, subs.len())?;
                    subs.remove(i);
                    pins.remove(i);
                    edges.retain(|&(s, d, _)| s != i && d != i);
                    for e in &mut edges {
                        if e.0 > i {
                            e.0 -= 1;
                        }
                        if e.1 > i {
                            e.1 -= 1;
                        }
                    }
                }
                DeltaOp::AddEdge { src, dst, items } => {
                    let s = check(*src, subs.len())?;
                    let d = check(*dst, subs.len())?;
                    edges.push((s, d, *items));
                }
                DeltaOp::RemoveEdge { src, dst } => {
                    let s = check(*src, subs.len())?;
                    let d = check(*dst, subs.len())?;
                    let pos = edges
                        .iter()
                        .position(|&(es, ed, _)| es == s && ed == d)
                        .ok_or(DeltaError::UnknownEdge(*src, *dst))?;
                    edges.remove(pos);
                }
                DeltaOp::Pin { subtask, processor } => {
                    let i = check(*subtask, subs.len())?;
                    pins[i] = Some(*processor);
                }
                DeltaOp::Unpin { subtask } => {
                    let i = check(*subtask, subs.len())?;
                    pins[i] = None;
                }
            }
        }

        let mut b = TaskGraph::builder();
        let ids: Vec<SubtaskId> = subs.into_iter().map(|s| b.add_subtask(s)).collect();
        for (s, d, items) in edges {
            b.add_edge(ids[s], ids[d], items)?;
        }
        let graph = b.build()?;

        let mut pinning = Pinning::new();
        for (i, p) in pins.into_iter().enumerate() {
            if let Some(p) = p {
                pinning
                    .pin(ids[i], p)
                    .unwrap_or_else(|e: PlatformError| unreachable!("fresh pinning: {e}"));
            }
        }

        Ok(Applied { graph, pinning })
    }

    /// Fast path for deltas that only rewrite subtask attributes (WCET and
    /// anchor values): clones the graph and mutates it in place via
    /// [`TaskGraph::try_update_subtasks`], skipping the full builder
    /// rebuild. Sound because attribute ops cannot change the structure
    /// the builder derives (adjacency, topological order, input/output
    /// sets), and the in-place update re-checks exactly the attribute
    /// invariants the builder would. Returns `Ok(None)` when any op is
    /// structural or touches the pinning, deferring to the rebuild path.
    ///
    /// Errors and results are identical to the rebuild path: ids are
    /// checked in op order first, attribute invariants afterwards — the
    /// same observable sequence the builder-based path produces.
    fn apply_attributes_only(
        &self,
        graph: &TaskGraph,
        pinning: &Pinning,
    ) -> Result<Option<Applied>, DeltaError> {
        if !self.is_attribute_only() {
            return Ok(None);
        }
        let n = graph.subtask_count();
        for op in &self.ops {
            let id = match op {
                DeltaOp::SetWcet { subtask, .. }
                | DeltaOp::SetRelease { subtask, .. }
                | DeltaOp::SetDeadline { subtask, .. } => *subtask,
                _ => unreachable!("attribute-only checked above"),
            };
            if id.index() >= n {
                return Err(DeltaError::UnknownSubtask(id));
            }
        }
        let mut graph = graph.clone();
        graph.try_update_subtasks(|subs| {
            for op in &self.ops {
                match op {
                    DeltaOp::SetWcet { subtask, wcet } => subs[subtask.index()].set_wcet(*wcet),
                    DeltaOp::SetRelease { subtask, release } => {
                        subs[subtask.index()].set_release(*release)
                    }
                    DeltaOp::SetDeadline { subtask, deadline } => {
                        subs[subtask.index()].set_deadline(*deadline)
                    }
                    _ => unreachable!("attribute-only checked above"),
                }
            }
        })?;
        Ok(Some(Applied {
            graph,
            pinning: pinning.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_round_trip_through_serde() {
        let delta = GraphDelta::new()
            .set_wcet(SubtaskId::new(1), Time::new(25))
            .add_subtask(Subtask::new(Time::new(10)).due_at(Time::new(90)))
            .add_edge(SubtaskId::new(0), SubtaskId::new(2), 7)
            .pin(SubtaskId::new(0), ProcessorId::new(3));
        let json = serde_json::to_string(&delta).unwrap();
        let parsed: GraphDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, delta);
    }

    #[test]
    fn attribute_only_classification() {
        let attrs = GraphDelta::new()
            .set_wcet(SubtaskId::new(0), Time::new(5))
            .set_release(SubtaskId::new(1), None)
            .set_deadline(SubtaskId::new(1), Some(Time::new(50)));
        assert!(attrs.is_attribute_only());
        assert!(GraphDelta::new().is_attribute_only(), "empty delta");
        assert!(!attrs
            .clone()
            .remove_edge(SubtaskId::new(0), SubtaskId::new(1))
            .is_attribute_only());
        assert!(!GraphDelta::new()
            .pin(SubtaskId::new(0), ProcessorId::new(0))
            .is_attribute_only());
    }

    fn diamond() -> TaskGraph {
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(Subtask::new(Time::new(10)).released_at(Time::ZERO));
        let x = b.add_subtask(Subtask::new(Time::new(60)));
        let y = b.add_subtask(Subtask::new(Time::new(20)));
        let d = b.add_subtask(Subtask::new(Time::new(10)).due_at(Time::new(200)));
        b.add_edge(a, x, 1).unwrap();
        b.add_edge(a, y, 1).unwrap();
        b.add_edge(x, d, 1).unwrap();
        b.add_edge(y, d, 1).unwrap();
        b.build().unwrap()
    }

    fn id(i: u32) -> SubtaskId {
        SubtaskId::new(i)
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = diamond();
        let applied = GraphDelta::new().apply(&g, &Pinning::new()).unwrap();
        assert_eq!(applied.graph, g);
        assert!(applied.pinning.is_empty());
    }

    #[test]
    fn wcet_and_anchor_edits() {
        let g = diamond();
        let delta = GraphDelta::new()
            .set_wcet(id(1), Time::new(75))
            .set_release(id(0), Some(Time::new(5)))
            .set_deadline(id(3), Some(Time::new(300)));
        let applied = delta.apply(&g, &Pinning::new()).unwrap();
        assert_eq!(applied.graph.subtask(id(1)).wcet(), Time::new(75));
        assert_eq!(applied.graph.subtask(id(0)).release(), Some(Time::new(5)));
        assert_eq!(
            applied.graph.subtask(id(3)).deadline(),
            Some(Time::new(300))
        );
        // Untouched structure survives verbatim.
        assert_eq!(applied.graph.edge_count(), 4);
    }

    #[test]
    fn remove_subtask_renumbers_and_drops_incident_edges_and_pin() {
        let g = diamond();
        let mut pins = Pinning::new();
        pins.pin(id(1), ProcessorId::new(0)).unwrap();
        pins.pin(id(2), ProcessorId::new(1)).unwrap();
        let applied = GraphDelta::new()
            .remove_subtask(id(1))
            .apply(&g, &pins)
            .unwrap();
        // a -> y -> d survives; x and its two edges are gone; y is now id 1.
        assert_eq!(applied.graph.subtask_count(), 3);
        assert_eq!(applied.graph.edge_count(), 2);
        assert_eq!(applied.graph.subtask(id(1)).wcet(), Time::new(20));
        // x's pin is dropped, y's pin follows the renumbering.
        assert_eq!(applied.pinning.len(), 1);
        assert_eq!(
            applied.pinning.processor_for(id(1)),
            Some(ProcessorId::new(1))
        );
    }

    #[test]
    fn add_subtask_and_edges() {
        let g = diamond();
        let delta = GraphDelta::new()
            .add_subtask(Subtask::new(Time::new(30)).due_at(Time::new(250)))
            .add_edge(id(3), id(4), 7);
        let applied = delta.apply(&g, &Pinning::new()).unwrap();
        assert_eq!(applied.graph.subtask_count(), 5);
        assert_eq!(applied.graph.edge_count(), 5);
        assert_eq!(applied.graph.subtask(id(4)).wcet(), Time::new(30));
    }

    #[test]
    fn remove_edge_requires_existence() {
        let g = diamond();
        let ok = GraphDelta::new()
            .remove_edge(id(0), id(1))
            .apply(&g, &Pinning::new());
        // Removing a -> x leaves x without a release anchor: builder error.
        assert!(matches!(
            ok,
            Err(DeltaError::Graph(GraphError::MissingRelease(_)))
        ));
        assert_eq!(
            GraphDelta::new()
                .remove_edge(id(1), id(2))
                .apply(&g, &Pinning::new()),
            Err(DeltaError::UnknownEdge(id(1), id(2)))
        );
    }

    #[test]
    fn pin_move_and_unpin() {
        let g = diamond();
        let mut pins = Pinning::new();
        pins.pin(id(0), ProcessorId::new(0)).unwrap();
        let applied = GraphDelta::new()
            .pin(id(0), ProcessorId::new(3))
            .pin(id(2), ProcessorId::new(1))
            .unpin(id(2))
            .apply(&g, &pins)
            .unwrap();
        assert_eq!(
            applied.pinning.processor_for(id(0)),
            Some(ProcessorId::new(3))
        );
        assert!(!applied.pinning.is_pinned(id(2)));
    }

    #[test]
    fn unknown_subtask_is_rejected_before_rebuild() {
        let g = diamond();
        assert_eq!(
            GraphDelta::new()
                .set_wcet(id(9), Time::new(1))
                .apply(&g, &Pinning::new()),
            Err(DeltaError::UnknownSubtask(id(9)))
        );
    }

    #[test]
    fn invalid_rebuild_is_rejected() {
        let g = diamond();
        // A non-positive WCET passes the op stage but fails the builder.
        let err = GraphDelta::new()
            .set_wcet(id(1), Time::ZERO)
            .apply(&g, &Pinning::new());
        assert!(matches!(
            err,
            Err(DeltaError::Graph(GraphError::NonPositiveWcet(_)))
        ));
        // Error display is useful.
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("invalid graph"), "{msg}");
    }

    #[test]
    fn ops_compose_sequentially_with_renumbering() {
        let g = diamond();
        // Remove x (id 1); afterwards y is id 1 and d is id 2, so the WCET
        // edit below targets y under its *new* number.
        let applied = GraphDelta::new()
            .remove_subtask(id(1))
            .set_wcet(id(1), Time::new(99))
            .apply(&g, &Pinning::new())
            .unwrap();
        assert_eq!(applied.graph.subtask(id(1)).wcet(), Time::new(99));
    }

    /// The attribute-only fast path must be observationally identical to
    /// the builder rebuild. Forcing the rebuild by appending a structural
    /// no-op (add then remove a fresh edge) makes the two comparable on
    /// the same net mutation.
    #[test]
    fn attribute_fast_path_matches_the_rebuild_path() {
        let g = diamond();
        let mut pins = Pinning::new();
        pins.pin(id(2), ProcessorId::new(1)).unwrap();
        let attrs = GraphDelta::new()
            .set_wcet(id(1), Time::new(75))
            .set_release(id(0), Some(Time::new(5)))
            .set_deadline(id(3), Some(Time::new(300)));
        let fast = attrs.clone().apply(&g, &pins).unwrap();
        // No other x→y edge exists, so remove drops exactly the added one.
        let slow = attrs
            .add_edge(id(1), id(2), 3)
            .remove_edge(id(1), id(2))
            .apply(&g, &pins)
            .unwrap();
        assert_eq!(fast.graph, slow.graph);
        assert_eq!(fast.pinning, slow.pinning);
    }

    #[test]
    fn attribute_fast_path_reports_rebuild_errors() {
        let g = diamond();
        assert!(matches!(
            GraphDelta::new()
                .set_wcet(id(1), Time::ZERO)
                .apply(&g, &Pinning::new()),
            Err(DeltaError::Graph(GraphError::NonPositiveWcet(v))) if v == id(1)
        ));
        assert!(matches!(
            GraphDelta::new()
                .set_release(id(0), None)
                .apply(&g, &Pinning::new()),
            Err(DeltaError::Graph(GraphError::MissingRelease(v))) if v == id(0)
        ));
        assert!(matches!(
            GraphDelta::new()
                .set_wcet(id(9), Time::new(5))
                .apply(&g, &Pinning::new()),
            Err(DeltaError::UnknownSubtask(v)) if v == id(9)
        ));
    }
}
