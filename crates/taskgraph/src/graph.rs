//! The task-graph data model.
//!
//! A real-time application is modelled as a directed acyclic graph whose
//! nodes are *subtasks* and whose arcs are precedence constraints carrying
//! *messages* (see §3 of the paper). Input subtasks (no predecessors) carry
//! release times; output subtasks (no successors) carry end-to-end deadlines.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{GraphError, Time};

/// Identifier of a subtask (a node) within one [`TaskGraph`].
///
/// Ids are dense indices assigned in insertion order, so they can be used to
/// index per-subtask side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SubtaskId(u32);

impl SubtaskId {
    /// Creates an id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        SubtaskId(index)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SubtaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a precedence edge (and its message) within one
/// [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        EdgeId(index)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A subtask: the unit of computation in the task model.
///
/// A subtask is characterised by the tuple ⟨cᵢ, rᵢ, dᵢ⟩ in the paper. Here
/// only the *given* temporal attributes are stored: the worst-case execution
/// time, plus a release time for inputs and an end-to-end (absolute) deadline
/// for outputs. Per-subtask release times and relative deadlines for interior
/// subtasks are *produced* by deadline distribution and live in
/// `slicing::DeadlineAssignment`, not here.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subtask {
    name: Option<String>,
    wcet: Time,
    release: Option<Time>,
    deadline: Option<Time>,
}

impl Subtask {
    /// Creates a subtask with the given worst-case execution time.
    pub fn new(wcet: Time) -> Self {
        Subtask {
            name: None,
            wcet,
            release: None,
            deadline: None,
        }
    }

    /// Sets a human-readable name (used in reports and DOT output).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the given release time (for input subtasks).
    #[must_use]
    pub fn released_at(mut self, release: Time) -> Self {
        self.release = Some(release);
        self
    }

    /// Sets the given absolute end-to-end deadline (for output subtasks).
    #[must_use]
    pub fn due_at(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The worst-case execution time cᵢ.
    #[inline]
    pub fn wcet(&self) -> Time {
        self.wcet
    }

    /// The given release time, if this subtask has one.
    #[inline]
    pub fn release(&self) -> Option<Time> {
        self.release
    }

    /// The given absolute end-to-end deadline, if this subtask has one.
    #[inline]
    pub fn deadline(&self) -> Option<Time> {
        self.deadline
    }

    /// The human-readable name, if one was set.
    #[inline]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Sets or clears the release time in place.
    ///
    /// Useful when anchoring inputs after the graph structure is known (the
    /// workload generators set end-to-end deadlines this way once the total
    /// workload has been computed).
    #[inline]
    pub fn set_release(&mut self, release: Option<Time>) {
        self.release = release;
    }

    /// Sets or clears the absolute end-to-end deadline in place.
    #[inline]
    pub fn set_deadline(&mut self, deadline: Option<Time>) {
        self.deadline = deadline;
    }

    /// Sets the worst-case execution time in place.
    ///
    /// The new value is validated the same way [`TaskGraphBuilder::build`]
    /// validates original WCETs — a rebuilt graph rejects non-positive
    /// values — so delta application (perturbing one node's cᵢ) can edit a
    /// cloned subtask without round-tripping through the constructor.
    #[inline]
    pub fn set_wcet(&mut self, wcet: Time) {
        self.wcet = wcet;
    }
}

/// A precedence edge carrying a message of `items` data items from `src` to
/// `dst` (the communication subtask χ of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    src: SubtaskId,
    dst: SubtaskId,
    items: u64,
}

impl Edge {
    /// The producing subtask.
    #[inline]
    pub fn src(self) -> SubtaskId {
        self.src
    }

    /// The consuming subtask.
    #[inline]
    pub fn dst(self) -> SubtaskId {
        self.dst
    }

    /// The maximum message size in data items (mᵢⱼ).
    #[inline]
    pub fn items(self) -> u64 {
        self.items
    }
}

/// An immutable, validated task graph.
///
/// Construct one through [`TaskGraph::builder`]. A valid graph is a non-empty
/// DAG where every input subtask has a release time and every output subtask
/// has an end-to-end deadline.
///
/// # Examples
///
/// ```
/// use taskgraph::{Subtask, TaskGraph, Time};
///
/// # fn main() -> Result<(), taskgraph::GraphError> {
/// let mut b = TaskGraph::builder();
/// let a = b.add_subtask(Subtask::new(Time::new(10)).released_at(Time::ZERO));
/// let c = b.add_subtask(Subtask::new(Time::new(20)).due_at(Time::new(100)));
/// b.add_edge(a, c, 15)?;
/// let graph = b.build()?;
/// assert_eq!(graph.subtask_count(), 2);
/// assert_eq!(graph.inputs(), &[a]);
/// assert_eq!(graph.outputs(), &[c]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    nodes: Vec<Subtask>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node, ordered by insertion.
    succ: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node, ordered by insertion.
    pred: Vec<Vec<EdgeId>>,
    /// Node ids in a topological order.
    topo: Vec<SubtaskId>,
    inputs: Vec<SubtaskId>,
    outputs: Vec<SubtaskId>,
}

impl TaskGraph {
    /// Returns a builder for incrementally constructing a graph.
    pub fn builder() -> TaskGraphBuilder {
        TaskGraphBuilder::new()
    }

    /// Number of subtasks (nodes).
    #[inline]
    pub fn subtask_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of precedence edges (messages).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The subtask with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn subtask(&self, id: SubtaskId) -> &Subtask {
        &self.nodes[id.index()]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// A stable 64-bit hash of the graph's content: every subtask's name,
    /// WCET, release and deadline and every edge's endpoints and message
    /// size, in id order. The adjacency, topological order and input /
    /// output sets are derived from those, so they are not hashed again.
    ///
    /// The mix is FNV-1a over 64-bit words, each step followed by a
    /// rotation so high bits feed back into low ones. It depends only on
    /// the content, never on the process, the platform or the build, so it
    /// may be stored on disk (the admission write-ahead log references
    /// graphs by it). Equal graphs hash equally; unequal graphs collide
    /// rarely, so a caller that must be exact compares contents on a match.
    pub fn content_hash(&self) -> u64 {
        fn mix(hash: u64, word: u64) -> u64 {
            (hash ^ word)
                .wrapping_mul(0x0000_0100_0000_01B3)
                .rotate_left(29)
        }
        fn mix_time(hash: u64, time: Option<Time>) -> u64 {
            match time {
                Some(t) => mix(mix(hash, 1), t.as_i64() as u64),
                None => mix(hash, 0),
            }
        }
        let mut hash = mix(0xCBF2_9CE4_8422_2325, self.nodes.len() as u64);
        for node in &self.nodes {
            match &node.name {
                Some(name) => {
                    hash = mix(hash, 1 + name.len() as u64);
                    for chunk in name.as_bytes().chunks(8) {
                        let mut word = [0u8; 8];
                        word[..chunk.len()].copy_from_slice(chunk);
                        hash = mix(hash, u64::from_le_bytes(word));
                    }
                }
                None => hash = mix(hash, 0),
            }
            hash = mix(hash, node.wcet.as_i64() as u64);
            hash = mix_time(hash, node.release);
            hash = mix_time(hash, node.deadline);
        }
        hash = mix(hash, self.edges.len() as u64);
        for edge in &self.edges {
            hash = mix(hash, u64::from(edge.src.0) | u64::from(edge.dst.0) << 32);
            hash = mix(hash, edge.items);
        }
        hash
    }

    /// Updates subtask attributes in place, then re-checks the attribute
    /// invariants ([`TaskGraphBuilder::build`] enforces on construction):
    /// every WCET positive, every input released, every output
    /// deadline-anchored. The graph's structure — and therefore its
    /// derived adjacency, topological order and input/output sets — is
    /// untouched, which is what makes the in-place form sound: only the
    /// attribute invariants can be violated by `f`.
    ///
    /// This is the cheap path for attribute-only graph amendments
    /// (WCET re-estimation, anchor shifts), avoiding a full rebuild.
    ///
    /// # Errors
    ///
    /// Returns the same [`GraphError`] a full rebuild would report for the
    /// violated invariant. The graph is left with `f` applied even on
    /// error; callers treating the update as a transaction should apply it
    /// to a clone.
    pub fn try_update_subtasks<F>(&mut self, f: F) -> Result<(), GraphError>
    where
        F: FnOnce(&mut [Subtask]),
    {
        f(&mut self.nodes);
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.wcet.is_positive() {
                return Err(GraphError::NonPositiveWcet(SubtaskId::new(i as u32)));
            }
        }
        for &id in &self.inputs {
            if self.nodes[id.index()].release.is_none() {
                return Err(GraphError::MissingRelease(id));
            }
        }
        for &id in &self.outputs {
            if self.nodes[id.index()].deadline.is_none() {
                return Err(GraphError::MissingDeadline(id));
            }
        }
        Ok(())
    }

    /// Iterates over all subtask ids in insertion order.
    pub fn subtask_ids(&self) -> impl ExactSizeIterator<Item = SubtaskId> + '_ {
        (0..self.nodes.len() as u32).map(SubtaskId::new)
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId::new)
    }

    /// Outgoing edges of `id`.
    #[inline]
    pub fn out_edges(&self, id: SubtaskId) -> &[EdgeId] {
        &self.succ[id.index()]
    }

    /// Incoming edges of `id`.
    #[inline]
    pub fn in_edges(&self, id: SubtaskId) -> &[EdgeId] {
        &self.pred[id.index()]
    }

    /// Successor subtasks of `id`.
    pub fn successors(&self, id: SubtaskId) -> impl Iterator<Item = SubtaskId> + '_ {
        self.succ[id.index()]
            .iter()
            .map(|&e| self.edges[e.index()].dst)
    }

    /// Predecessor subtasks of `id`.
    pub fn predecessors(&self, id: SubtaskId) -> impl Iterator<Item = SubtaskId> + '_ {
        self.pred[id.index()]
            .iter()
            .map(|&e| self.edges[e.index()].src)
    }

    /// Input subtasks (no predecessors), in insertion order.
    #[inline]
    pub fn inputs(&self) -> &[SubtaskId] {
        &self.inputs
    }

    /// Output subtasks (no successors), in insertion order.
    #[inline]
    pub fn outputs(&self) -> &[SubtaskId] {
        &self.outputs
    }

    /// Subtask ids in a topological order (predecessors before successors).
    #[inline]
    pub fn topological_order(&self) -> &[SubtaskId] {
        &self.topo
    }

    /// Returns `true` if `id` is an input subtask.
    #[inline]
    pub fn is_input(&self, id: SubtaskId) -> bool {
        self.pred[id.index()].is_empty()
    }

    /// Returns `true` if `id` is an output subtask.
    #[inline]
    pub fn is_output(&self, id: SubtaskId) -> bool {
        self.succ[id.index()].is_empty()
    }
}

/// Incremental builder for [`TaskGraph`] (see `C-BUILDER`).
///
/// Subtasks are added first, then edges between them; [`build`] validates the
/// result (acyclicity, anchored inputs/outputs, positive execution times).
///
/// [`build`]: TaskGraphBuilder::build
#[derive(Debug, Default, Clone)]
pub struct TaskGraphBuilder {
    nodes: Vec<Subtask>,
    edges: Vec<Edge>,
}

impl TaskGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TaskGraphBuilder::default()
    }

    /// Adds a subtask and returns its id.
    pub fn add_subtask(&mut self, subtask: Subtask) -> SubtaskId {
        let id = SubtaskId::new(self.nodes.len() as u32);
        self.nodes.push(subtask);
        id
    }

    /// Adds a precedence edge carrying a message of `items` data items.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownSubtask`] if either endpoint has not been
    /// added, [`GraphError::SelfLoop`] if `src == dst`,
    /// [`GraphError::DuplicateEdge`] if the pair is already connected, and
    /// [`GraphError::EmptyMessage`] if `items` is zero.
    pub fn add_edge(
        &mut self,
        src: SubtaskId,
        dst: SubtaskId,
        items: u64,
    ) -> Result<EdgeId, GraphError> {
        if src.index() >= self.nodes.len() {
            return Err(GraphError::UnknownSubtask(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(GraphError::UnknownSubtask(dst));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if self.edges.iter().any(|e| e.src == src && e.dst == dst) {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        let id = EdgeId::new(self.edges.len() as u32);
        if items == 0 {
            return Err(GraphError::EmptyMessage(id));
        }
        self.edges.push(Edge { src, dst, items });
        Ok(id)
    }

    /// Returns `true` if an edge `src → dst` already exists.
    pub fn has_edge(&self, src: SubtaskId, dst: SubtaskId) -> bool {
        self.edges.iter().any(|e| e.src == src && e.dst == dst)
    }

    /// Number of subtasks added so far.
    pub fn subtask_count(&self) -> usize {
        self.nodes.len()
    }

    /// Mutable access to a subtask added earlier (e.g. to set a deadline once
    /// the total workload is known).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this builder.
    pub fn subtask_mut(&mut self, id: SubtaskId) -> &mut Subtask {
        &mut self.nodes[id.index()]
    }

    /// Read access to a subtask added earlier.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this builder.
    pub fn subtask(&self, id: SubtaskId) -> &Subtask {
        &self.nodes[id.index()]
    }

    /// Current out-degree of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this builder.
    pub fn out_degree(&self, id: SubtaskId) -> usize {
        assert!(id.index() < self.nodes.len(), "unknown subtask {id}");
        self.edges.iter().filter(|e| e.src == id).count()
    }

    /// Current in-degree of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this builder.
    pub fn in_degree(&self, id: SubtaskId) -> usize {
        assert!(id.index() < self.nodes.len(), "unknown subtask {id}");
        self.edges.iter().filter(|e| e.dst == id).count()
    }

    /// The execution-time length of the longest path through the subtasks
    /// added so far, or `None` if the current edges contain a cycle.
    ///
    /// Workload generators use this to anchor end-to-end deadlines that are
    /// proportional to the critical-path workload before the graph is
    /// finalized.
    pub fn longest_path_work(&self) -> Option<Time> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            succ[e.src.index()].push(e.dst.index());
            indeg[e.dst.index()] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut best: Vec<Time> = (0..n).map(|v| self.nodes[v].wcet).collect();
        let mut head = 0;
        let mut overall = Time::ZERO;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            overall = overall.max(best[v]);
            for &w in &succ[v] {
                best[w] = best[w].max(best[v] + self.nodes[w].wcet);
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if queue.len() != n {
            return None;
        }
        Some(overall)
    }

    /// Validates and finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty, cyclic, a subtask has a
    /// non-positive execution time, an input lacks a release time, or an
    /// output lacks a deadline.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.wcet.is_positive() {
                return Err(GraphError::NonPositiveWcet(SubtaskId::new(i as u32)));
            }
        }

        let n = self.nodes.len();
        let mut succ: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut pred: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId::new(i as u32);
            succ[e.src.index()].push(id);
            pred[e.dst.index()].push(id);
        }

        // Kahn's algorithm: topological order + cycle detection.
        let mut indeg: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut queue: Vec<SubtaskId> = (0..n as u32)
            .map(SubtaskId::new)
            .filter(|id| indeg[id.index()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            topo.push(v);
            for &e in &succ[v.index()] {
                let w = self.edges[e.index()].dst;
                indeg[w.index()] -= 1;
                if indeg[w.index()] == 0 {
                    queue.push(w);
                }
            }
        }
        if topo.len() != n {
            let offender = (0..n as u32)
                .map(SubtaskId::new)
                .find(|id| indeg[id.index()] > 0)
                .expect("cycle implies a node with remaining in-degree");
            return Err(GraphError::Cycle(offender));
        }

        let inputs: Vec<SubtaskId> = (0..n as u32)
            .map(SubtaskId::new)
            .filter(|id| pred[id.index()].is_empty())
            .collect();
        let outputs: Vec<SubtaskId> = (0..n as u32)
            .map(SubtaskId::new)
            .filter(|id| succ[id.index()].is_empty())
            .collect();

        for &id in &inputs {
            if self.nodes[id.index()].release.is_none() {
                return Err(GraphError::MissingRelease(id));
            }
        }
        for &id in &outputs {
            if self.nodes[id.index()].deadline.is_none() {
                return Err(GraphError::MissingDeadline(id));
            }
        }

        Ok(TaskGraph {
            nodes: self.nodes,
            edges: self.edges,
            succ,
            pred,
            topo,
            inputs,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(wcet: i64) -> Subtask {
        Subtask::new(Time::new(wcet))
    }

    fn anchored(wcet: i64) -> Subtask {
        node(wcet).released_at(Time::ZERO).due_at(Time::new(1000))
    }

    #[test]
    fn builds_simple_chain() {
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(node(10).released_at(Time::ZERO));
        let c = b.add_subtask(node(20));
        let d = b.add_subtask(node(30).due_at(Time::new(200)));
        b.add_edge(a, c, 5).unwrap();
        b.add_edge(c, d, 5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.subtask_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.inputs(), &[a]);
        assert_eq!(g.outputs(), &[d]);
        assert_eq!(g.topological_order(), &[a, c, d]);
        assert!(g.is_input(a) && !g.is_input(c));
        assert!(g.is_output(d) && !g.is_output(c));
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![c]);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![c]);
        assert_eq!(g.edge(EdgeId::new(0)).items(), 5);
    }

    #[test]
    fn content_hash_is_pinned() {
        // The admission write-ahead log stores this hash on disk: changing
        // the mix breaks every log written before the change.
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(node(10).named("sense").released_at(Time::ZERO));
        let c = b.add_subtask(node(20));
        let d = b.add_subtask(node(30).due_at(Time::new(200)));
        b.add_edge(a, c, 5).unwrap();
        b.add_edge(c, d, 7).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.content_hash(), 0xFFB3_3FBD_157B_8386);
        assert_eq!(g.clone().content_hash(), g.content_hash());

        let mut slower = g.clone();
        slower
            .try_update_subtasks(|nodes| nodes[1].set_wcet(Time::new(21)))
            .unwrap();
        assert_ne!(slower.content_hash(), g.content_hash());
    }

    #[test]
    fn set_wcet_edits_in_place() {
        let mut s = anchored(10);
        assert_eq!(s.wcet(), Time::new(10));
        s.set_wcet(Time::new(25));
        assert_eq!(s.wcet(), Time::new(25));
        // Anchors are untouched by a WCET edit.
        assert_eq!(s.release(), Some(Time::ZERO));
        assert_eq!(s.deadline(), Some(Time::new(1000)));
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(TaskGraph::builder().build(), Err(GraphError::Empty));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = TaskGraph::builder();
        let x = b.add_subtask(anchored(1));
        let y = b.add_subtask(anchored(1));
        b.add_edge(x, y, 1).unwrap();
        b.add_edge(y, x, 1).unwrap();
        assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn rejects_self_loop_and_duplicates() {
        let mut b = TaskGraph::builder();
        let x = b.add_subtask(anchored(1));
        let y = b.add_subtask(anchored(1));
        assert_eq!(b.add_edge(x, x, 1), Err(GraphError::SelfLoop(x)));
        b.add_edge(x, y, 1).unwrap();
        assert_eq!(b.add_edge(x, y, 2), Err(GraphError::DuplicateEdge(x, y)));
        assert!(b.has_edge(x, y));
        assert!(!b.has_edge(y, x));
    }

    #[test]
    fn rejects_unknown_endpoints_and_zero_items() {
        let mut b = TaskGraph::builder();
        let x = b.add_subtask(anchored(1));
        let ghost = SubtaskId::new(99);
        assert_eq!(
            b.add_edge(x, ghost, 1),
            Err(GraphError::UnknownSubtask(ghost))
        );
        assert_eq!(
            b.add_edge(ghost, x, 1),
            Err(GraphError::UnknownSubtask(ghost))
        );
        let y = b.add_subtask(anchored(1));
        assert!(matches!(
            b.add_edge(x, y, 0),
            Err(GraphError::EmptyMessage(_))
        ));
    }

    #[test]
    fn rejects_missing_anchors() {
        let mut b = TaskGraph::builder();
        let x = b.add_subtask(node(1).due_at(Time::new(10)));
        let _ = x;
        assert!(matches!(b.build(), Err(GraphError::MissingRelease(_))));

        let mut b = TaskGraph::builder();
        let _ = b.add_subtask(node(1).released_at(Time::ZERO));
        assert!(matches!(b.build(), Err(GraphError::MissingDeadline(_))));
    }

    #[test]
    fn rejects_non_positive_wcet() {
        let mut b = TaskGraph::builder();
        b.add_subtask(anchored(0));
        assert!(matches!(b.build(), Err(GraphError::NonPositiveWcet(_))));
    }

    #[test]
    fn topological_order_respects_edges() {
        // Diamond: a -> {b, c} -> d
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(node(1).released_at(Time::ZERO));
        let x = b.add_subtask(node(1));
        let y = b.add_subtask(node(1));
        let d = b.add_subtask(node(1).due_at(Time::new(100)));
        b.add_edge(a, x, 1).unwrap();
        b.add_edge(a, y, 1).unwrap();
        b.add_edge(x, d, 1).unwrap();
        b.add_edge(y, d, 1).unwrap();
        let g = b.build().unwrap();
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.subtask_count()];
            for (i, &v) in g.topological_order().iter().enumerate() {
                pos[v.index()] = i;
            }
            pos
        };
        for e in g.edge_ids().map(|e| g.edge(e)) {
            assert!(pos[e.src().index()] < pos[e.dst().index()]);
        }
    }

    #[test]
    fn builder_mutation_and_degrees() {
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(node(5).released_at(Time::ZERO));
        let z = b.add_subtask(node(5));
        b.add_edge(a, z, 3).unwrap();
        assert_eq!(b.out_degree(a), 1);
        assert_eq!(b.in_degree(z), 1);
        assert_eq!(b.subtask_count(), 2);
        // Deadlines can be anchored after the structure is known.
        b.subtask_mut(z).set_deadline(Some(Time::new(500)));
        let g = b.build().unwrap();
        assert_eq!(g.subtask(z).deadline(), Some(Time::new(500)));
        assert_eq!(g.subtask(a).name(), None);
    }

    #[test]
    fn named_subtasks_round_trip() {
        let s = Subtask::new(Time::new(3)).named("sensor");
        assert_eq!(s.name(), Some("sensor"));
    }
}
