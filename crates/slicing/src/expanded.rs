//! The expanded graph: computation subtasks plus materialized communication
//! subtasks.
//!
//! The slicing algorithm operates on a graph in which every message whose
//! estimated cost is non-negligible becomes an explicit *communication
//! subtask* node χ between its producer and consumer (§4.2). Messages with a
//! zero estimated cost (CCNE, or intra-processor under a known assignment)
//! stay transparent: the producer connects directly to the consumer and no
//! window will be assigned to the message.
//!
//! Adjacency is stored in CSR form (one offset array plus one contiguous
//! index array per direction) rather than `Vec<Vec<_>>`: the critical-path
//! search walks successor lists millions of times per slicing sweep, and the
//! flat layout keeps those walks on a handful of cache lines with no
//! per-node pointer chase.

use taskgraph::{EdgeId, SubtaskId, TaskGraph, Time};

/// What an expanded-graph node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExpKind {
    /// An ordinary computation subtask.
    Task(SubtaskId),
    /// A communication subtask materialized from the given edge.
    Comm(EdgeId),
}

/// The expanded precedence graph used by the slicing algorithm.
#[derive(Debug, Clone)]
pub(crate) struct ExpandedGraph {
    kinds: Vec<ExpKind>,
    /// CSR successors: node `v`'s successors are
    /// `succ_idx[succ_off[v] .. succ_off[v + 1]]`, in arc-insertion order.
    succ_off: Vec<u32>,
    succ_idx: Vec<u32>,
    /// CSR predecessors, same encoding.
    pred_off: Vec<u32>,
    pred_idx: Vec<u32>,
    /// Expanded node index of each subtask.
    task_node: Vec<usize>,
    /// Expanded node index of each materialized communication subtask.
    comm_node: Vec<Option<usize>>,
    /// Expanded node indices in topological order.
    topo: Vec<u32>,
    /// Position of each node in `topo` (inverse permutation).
    topo_pos: Vec<u32>,
    /// Longest chain length in nodes (an upper bound for path search).
    max_chain: usize,
}

/// Builds a CSR adjacency (offsets + flat index array) from an arc list,
/// preserving the per-endpoint arc order.
fn csr<F: Fn(&(usize, usize)) -> (usize, usize)>(
    n: usize,
    arcs: &[(usize, usize)],
    endpoint: F,
) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for arc in arcs {
        off[endpoint(arc).0 + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut idx = vec![0u32; arcs.len()];
    let mut cursor = off.clone();
    for arc in arcs {
        let (from, to) = endpoint(arc);
        idx[cursor[from] as usize] = to as u32;
        cursor[from] += 1;
    }
    (off, idx)
}

impl ExpandedGraph {
    /// Builds the expanded graph for `graph` given every edge's estimated
    /// communication cost (`comm`, in edge order): each positive cost
    /// becomes a communication subtask.
    pub(crate) fn build(graph: &TaskGraph, comm: &[Time]) -> ExpandedGraph {
        let n_tasks = graph.subtask_count();
        let mut kinds: Vec<ExpKind> = Vec::with_capacity(n_tasks);
        let mut task_node = Vec::with_capacity(n_tasks);
        for id in graph.subtask_ids() {
            task_node.push(kinds.len());
            kinds.push(ExpKind::Task(id));
        }

        let mut comm_node = vec![None; graph.edge_count()];
        let mut arcs: Vec<(usize, usize)> = Vec::with_capacity(graph.edge_count() * 2);
        for eid in graph.edge_ids() {
            let edge = graph.edge(eid);
            let cost = comm[eid.index()];
            let from = task_node[edge.src().index()];
            let to = task_node[edge.dst().index()];
            if cost.is_positive() {
                let chi = kinds.len();
                kinds.push(ExpKind::Comm(eid));
                comm_node[eid.index()] = Some(chi);
                arcs.push((from, chi));
                arcs.push((chi, to));
            } else {
                arcs.push((from, to));
            }
        }

        let n = kinds.len();
        let (succ_off, succ_idx) = csr(n, &arcs, |&(u, v)| (u, v));
        let (pred_off, pred_idx) = csr(n, &arcs, |&(u, v)| (v, u));

        // Topological order (the expanded graph is a DAG because the source
        // graph is and χ nodes subdivide arcs).
        let mut indeg: Vec<u32> = (0..n).map(|v| pred_off[v + 1] - pred_off[v]).collect();
        let mut topo: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut head = 0;
        while head < topo.len() {
            let v = topo[head] as usize;
            head += 1;
            for &w in &succ_idx[succ_off[v] as usize..succ_off[v + 1] as usize] {
                indeg[w as usize] -= 1;
                if indeg[w as usize] == 0 {
                    topo.push(w);
                }
            }
        }
        debug_assert_eq!(topo.len(), n, "expanded graph must remain acyclic");
        let mut topo_pos = vec![0u32; n];
        for (pos, &v) in topo.iter().enumerate() {
            topo_pos[v as usize] = pos as u32;
        }

        // Longest chain in nodes: path-search state bound.
        let mut chain = vec![1usize; n];
        let mut max_chain = 1;
        for &v in &topo {
            let v = v as usize;
            for &p in &pred_idx[pred_off[v] as usize..pred_off[v + 1] as usize] {
                chain[v] = chain[v].max(chain[p as usize] + 1);
            }
            max_chain = max_chain.max(chain[v]);
        }

        ExpandedGraph {
            kinds,
            succ_off,
            succ_idx,
            pred_off,
            pred_idx,
            task_node,
            comm_node,
            topo,
            topo_pos,
            max_chain,
        }
    }

    /// Number of expanded nodes.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// What node `v` represents.
    pub(crate) fn kind(&self, v: usize) -> ExpKind {
        self.kinds[v]
    }

    /// Successor node indices of `v`.
    #[inline]
    pub(crate) fn succ(&self, v: usize) -> &[u32] {
        &self.succ_idx[self.succ_off[v] as usize..self.succ_off[v + 1] as usize]
    }

    /// Predecessor node indices of `v`.
    #[inline]
    pub(crate) fn pred(&self, v: usize) -> &[u32] {
        &self.pred_idx[self.pred_off[v] as usize..self.pred_off[v + 1] as usize]
    }

    /// Expanded node index of subtask `id`.
    pub(crate) fn task_node(&self, id: SubtaskId) -> usize {
        self.task_node[id.index()]
    }

    /// Expanded node index of the communication subtask for `id`, if the
    /// message was materialized.
    pub(crate) fn comm_node(&self, id: EdgeId) -> Option<usize> {
        self.comm_node[id.index()]
    }

    /// Node indices in topological order.
    pub(crate) fn topo(&self) -> &[u32] {
        &self.topo
    }

    /// Position of node `v` in the topological order.
    #[inline]
    pub(crate) fn topo_pos(&self, v: usize) -> u32 {
        self.topo_pos[v]
    }

    /// Upper bound on path length in nodes.
    pub(crate) fn max_chain(&self) -> usize {
        self.max_chain
    }
}

#[cfg(test)]
impl ExpandedGraph {
    /// The expanded graph under `estimate` on `platform`, for tests that
    /// build one without a slicer.
    pub(crate) fn estimated(
        graph: &TaskGraph,
        estimate: &crate::CommEstimate,
        platform: &platform::Platform,
    ) -> ExpandedGraph {
        let comm: Vec<Time> = graph
            .edge_ids()
            .map(|eid| estimate.estimated_cost(graph.edge(eid), platform))
            .collect();
        ExpandedGraph::build(graph, &comm)
    }
}

#[cfg(test)]
mod tests {
    use platform::Platform;
    use taskgraph::Subtask;

    use super::*;
    use crate::CommEstimate;

    fn chain_graph() -> TaskGraph {
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(Subtask::new(Time::new(10)).released_at(Time::ZERO));
        let c = b.add_subtask(Subtask::new(Time::new(20)));
        let z = b.add_subtask(Subtask::new(Time::new(30)).due_at(Time::new(500)));
        b.add_edge(a, c, 15).unwrap();
        b.add_edge(c, z, 25).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn ccne_keeps_messages_transparent() {
        let g = chain_graph();
        let p = Platform::paper(4).unwrap();
        let exp = ExpandedGraph::estimated(&g, &CommEstimate::Ccne, &p);
        assert_eq!(exp.len(), 3);
        assert!(g.edge_ids().all(|e| exp.comm_node(e).is_none()));
        assert_eq!(exp.max_chain(), 3);
        // Direct arcs a -> c -> z.
        let a = exp.task_node(SubtaskId::new(0));
        let c = exp.task_node(SubtaskId::new(1));
        assert_eq!(exp.succ(a), &[c as u32]);
    }

    #[test]
    fn ccaa_materializes_comm_subtasks() {
        let g = chain_graph();
        let p = Platform::paper(4).unwrap();
        let exp = ExpandedGraph::estimated(&g, &CommEstimate::Ccaa, &p);
        assert_eq!(exp.len(), 5);
        assert_eq!(exp.max_chain(), 5);
        let e0 = g.edge_ids().next().unwrap();
        let chi = exp.comm_node(e0).expect("materialized");
        assert_eq!(exp.kind(chi), ExpKind::Comm(e0));
        // a -> chi -> c
        let a = exp.task_node(SubtaskId::new(0));
        let c = exp.task_node(SubtaskId::new(1));
        assert_eq!(exp.succ(a), &[chi as u32]);
        assert_eq!(exp.pred(c), &[chi as u32]);
        // Topological order covers all nodes exactly once, and `topo_pos`
        // is its inverse.
        let mut seen = vec![false; exp.len()];
        for (pos, &v) in exp.topo().iter().enumerate() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
            assert_eq!(exp.topo_pos(v as usize), pos as u32);
        }
        assert!(seen.into_iter().all(|s| s));
    }

    /// A slicer's inputs list virtual times in expanded-node order: under
    /// PURE (virtual = real) each subtask's is its WCET and each
    /// materialized message's its estimated cost.
    #[test]
    fn weights_mirror_wcet_for_tasks() {
        let g = chain_graph();
        let p = Platform::paper(2).unwrap();
        for estimate in [CommEstimate::Ccne, CommEstimate::Ccaa] {
            let exp = ExpandedGraph::estimated(&g, &estimate, &p);
            let inputs = crate::Slicer::bst_pure()
                .with_estimate(estimate.clone())
                .inputs(&g, &p);
            assert_eq!(inputs.vweights.len(), exp.len());
            for id in g.subtask_ids() {
                let real = g.subtask(id).wcet().as_f64();
                assert_eq!(inputs.vweights[exp.task_node(id)], real);
            }
            for eid in g.edge_ids() {
                if let Some(chi) = exp.comm_node(eid) {
                    let cost = estimate.estimated_cost(g.edge(eid), &p).as_f64();
                    assert_eq!(inputs.vweights[chi], cost);
                }
            }
        }
    }

    #[test]
    fn csr_adjacency_matches_arc_insertion_order() {
        // Diamond with an extra skip edge: multi-entry successor lists must
        // preserve the order the arcs were materialized in.
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(Subtask::new(Time::new(1)).released_at(Time::ZERO));
        let x = b.add_subtask(Subtask::new(Time::new(1)));
        let y = b.add_subtask(Subtask::new(Time::new(1)));
        let d = b.add_subtask(Subtask::new(Time::new(1)).due_at(Time::new(100)));
        b.add_edge(a, x, 1).unwrap();
        b.add_edge(a, y, 1).unwrap();
        b.add_edge(a, d, 1).unwrap();
        b.add_edge(x, d, 1).unwrap();
        b.add_edge(y, d, 1).unwrap();
        let g = b.build().unwrap();
        let p = Platform::paper(2).unwrap();
        let exp = ExpandedGraph::estimated(&g, &CommEstimate::Ccne, &p);
        let node = |i: u32| exp.task_node(SubtaskId::new(i)) as u32;
        assert_eq!(exp.succ(node(0) as usize), &[node(1), node(2), node(3)]);
        assert_eq!(exp.pred(node(3) as usize), &[node(0), node(1), node(2)]);
        assert_eq!(exp.succ(node(3) as usize), &[] as &[u32]);
        assert_eq!(exp.pred(node(0) as usize), &[] as &[u32]);
    }
}
