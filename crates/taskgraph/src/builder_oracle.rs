//! The graph builder against a reference that scans every edge.
//!
//! The reference keeps the builder's original form: the edge list alone,
//! an edge scan for every duplicate check, `has_edge` and degree query, and
//! one `Vec` per node for the critical-path pass and for the built
//! adjacency. Random call sequences (duplicates, self-loops, unknown ids,
//! empty messages, cycles, missing anchors) drive both, and every answer,
//! every error and every built graph must agree.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{EdgeId, GraphError, Subtask, SubtaskId, TaskGraph, TaskGraphBuilder, Time};

/// The scanning builder.
#[derive(Default)]
struct Reference {
    nodes: Vec<Subtask>,
    /// `(src, dst, items)` per edge, in id order.
    edges: Vec<(SubtaskId, SubtaskId, u64)>,
}

/// What the reference builds: the adjacency as one `Vec` per node.
#[derive(Debug)]
struct Built {
    succ: Vec<Vec<EdgeId>>,
    pred: Vec<Vec<EdgeId>>,
    topo: Vec<SubtaskId>,
    inputs: Vec<SubtaskId>,
    outputs: Vec<SubtaskId>,
}

impl Reference {
    fn add_subtask(&mut self, subtask: Subtask) -> SubtaskId {
        self.nodes.push(subtask);
        SubtaskId::new(self.nodes.len() as u32 - 1)
    }

    fn add_edge(
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
        if self.has_edge(src, dst) {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        let id = EdgeId::new(self.edges.len() as u32);
        if items == 0 {
            return Err(GraphError::EmptyMessage(id));
        }
        self.edges.push((src, dst, items));
        Ok(id)
    }

    fn has_edge(&self, src: SubtaskId, dst: SubtaskId) -> bool {
        self.edges.iter().any(|&(s, d, _)| s == src && d == dst)
    }

    fn out_degree(&self, id: SubtaskId) -> usize {
        self.edges.iter().filter(|&&(s, _, _)| s == id).count()
    }

    fn in_degree(&self, id: SubtaskId) -> usize {
        self.edges.iter().filter(|&&(_, d, _)| d == id).count()
    }

    fn longest_path_work(&self) -> Option<Time> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(s, d, _) in &self.edges {
            succ[s.index()].push(d.index());
            indeg[d.index()] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut best: Vec<Time> = self.nodes.iter().map(Subtask::wcet).collect();
        let mut head = 0;
        let mut overall = Time::ZERO;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            overall = overall.max(best[v]);
            for &w in &succ[v] {
                best[w] = best[w].max(best[v] + self.nodes[w].wcet());
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        (queue.len() == n).then_some(overall)
    }

    fn build(&self) -> Result<Built, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let ids = || (0..self.nodes.len() as u32).map(SubtaskId::new);
        if let Some(id) = ids().find(|id| !self.nodes[id.index()].wcet().is_positive()) {
            return Err(GraphError::NonPositiveWcet(id));
        }
        let n = self.nodes.len();
        let mut succ: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut pred: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for (i, &(s, d, _)) in self.edges.iter().enumerate() {
            succ[s.index()].push(EdgeId::new(i as u32));
            pred[d.index()].push(EdgeId::new(i as u32));
        }
        let mut indeg: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut topo: Vec<SubtaskId> = ids().filter(|id| indeg[id.index()] == 0).collect();
        let mut head = 0;
        while head < topo.len() {
            let v = topo[head];
            head += 1;
            for &e in &succ[v.index()] {
                let w = self.edges[e.index()].1;
                indeg[w.index()] -= 1;
                if indeg[w.index()] == 0 {
                    topo.push(w);
                }
            }
        }
        if topo.len() != n {
            let offender = ids().find(|id| indeg[id.index()] > 0).expect("cycle");
            return Err(GraphError::Cycle(offender));
        }
        let inputs: Vec<SubtaskId> = ids().filter(|id| pred[id.index()].is_empty()).collect();
        let outputs: Vec<SubtaskId> = ids().filter(|id| succ[id.index()].is_empty()).collect();
        if let Some(&id) = inputs
            .iter()
            .find(|id| self.nodes[id.index()].release().is_none())
        {
            return Err(GraphError::MissingRelease(id));
        }
        if let Some(&id) = outputs
            .iter()
            .find(|id| self.nodes[id.index()].deadline().is_none())
        {
            return Err(GraphError::MissingDeadline(id));
        }
        Ok(Built {
            succ,
            pred,
            topo,
            inputs,
            outputs,
        })
    }
}

/// A random subtask, anchored both ways with a positive WCET unless
/// `messy`, when now and then one of those is missing.
fn random_subtask(rng: &mut StdRng, messy: bool) -> Subtask {
    let flaw = |rng: &mut StdRng| messy && rng.gen_bool(0.05);
    let wcet = if flaw(rng) { 0 } else { rng.gen_range(1..=9) };
    let mut subtask = Subtask::new(Time::new(wcet));
    if !flaw(rng) {
        subtask = subtask.released_at(Time::new(rng.gen_range(0..=3)));
    }
    if !flaw(rng) {
        subtask = subtask.due_at(Time::new(rng.gen_range(50..=90)));
    }
    subtask
}

/// An endpoint pair: mostly forward (`src <= dst`, so sometimes a
/// self-loop), now and then an id no subtask has, and if `messy` now and
/// then backward.
fn random_pair(rng: &mut StdRng, n: usize, messy: bool) -> (SubtaskId, SubtaskId) {
    let id = |v: usize| SubtaskId::new(v as u32);
    if n == 0 || rng.gen_bool(0.04) {
        return (id(rng.gen_range(0..n + 2)), id(rng.gen_range(0..n + 2)));
    }
    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
    if messy && rng.gen_bool(0.08) {
        (id(a.max(b)), id(a.min(b)))
    } else {
        (id(a.min(b)), id(a.max(b)))
    }
}

/// Runs one random call sequence on both builders, asserting every answer
/// agrees, and returns the pair for building.
fn drive(
    rng: &mut StdRng,
    calls: usize,
    messy: bool,
) -> Result<(TaskGraphBuilder, Reference), TestCaseError> {
    let mut fast = TaskGraph::builder();
    let mut slow = Reference::default();
    for _ in 0..calls {
        let n = slow.nodes.len();
        match rng.gen_range(0..100) {
            0..=24 => {
                let subtask = random_subtask(rng, messy);
                prop_assert_eq!(fast.add_subtask(subtask.clone()), slow.add_subtask(subtask));
            }
            25..=69 => {
                let (src, dst) = random_pair(rng, n, messy);
                let items = if rng.gen_bool(0.05) {
                    0
                } else {
                    rng.gen_range(1..=5)
                };
                prop_assert_eq!(
                    fast.add_edge(src, dst, items),
                    slow.add_edge(src, dst, items)
                );
            }
            70..=79 => {
                let (src, dst) = random_pair(rng, n, messy);
                prop_assert_eq!(fast.has_edge(src, dst), slow.has_edge(src, dst));
            }
            80..=89 if n > 0 => {
                let v = SubtaskId::new(rng.gen_range(0..n as u32));
                prop_assert_eq!(fast.out_degree(v), slow.out_degree(v));
                prop_assert_eq!(fast.in_degree(v), slow.in_degree(v));
            }
            _ => prop_assert_eq!(fast.longest_path_work(), slow.longest_path_work()),
        }
    }
    prop_assert_eq!(fast.subtask_count(), slow.nodes.len());
    Ok((fast, slow))
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn builder_matches_the_scanning_reference(
        seed in 0u64..u64::MAX,
        calls in 0usize..=80,
        messy in proptest::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (fast, slow) = drive(&mut rng, calls, messy)?;
        match (fast.build(), slow.build()) {
            (Ok(graph), Ok(built)) => {
                prop_assert_eq!(graph.subtask_count(), slow.nodes.len());
                prop_assert_eq!(graph.edge_count(), slow.edges.len());
                for (i, &(src, dst, items)) in slow.edges.iter().enumerate() {
                    let edge = graph.edge(EdgeId::new(i as u32));
                    prop_assert_eq!((edge.src(), edge.dst(), edge.items()), (src, dst, items));
                }
                for id in graph.subtask_ids() {
                    prop_assert_eq!(graph.subtask(id), &slow.nodes[id.index()]);
                    prop_assert_eq!(graph.out_edges(id), built.succ[id.index()].as_slice());
                    prop_assert_eq!(graph.in_edges(id), built.pred[id.index()].as_slice());
                    prop_assert_eq!(graph.is_input(id), built.pred[id.index()].is_empty());
                    prop_assert_eq!(graph.is_output(id), built.succ[id.index()].is_empty());
                }
                prop_assert_eq!(graph.topological_order(), built.topo.as_slice());
                prop_assert_eq!(graph.inputs(), built.inputs.as_slice());
                prop_assert_eq!(graph.outputs(), built.outputs.as_slice());
            }
            (fast, slow) => prop_assert_eq!(fast.err(), slow.err()),
        }
    }
}
