//! The slicing loop (Figure 1), with every per-start search reused while
//! the slices since left it untouched.
//!
//! # How it works
//!
//! The loop is deterministic: given the expanded graph, per-node virtual
//! times, and the accumulated `assigned`/release/deadline state at the top
//! of an iteration, the chosen critical path — and hence the whole rest of
//! the run — is a pure function of those inputs. Each per-start DP search
//! records its *local* winner together with the search's **read set**
//! (every node whose mutable state it touched, as a bitset).
//!
//! A slice changes exactly its spine and the spine's neighbours (the
//! `touched` set): the spine is assigned, predecessors inherit deadlines
//! and successors releases. So after each slice the loop reclassifies only
//! the touched nodes — which nodes a path may enter, end at, or start
//! from — and re-searches only the starts that are new or whose read set
//! meets `touched`: no node the others read changed, so a new search would
//! reproduce their record bit for bit. About a fifth of the starts are
//! searched live on the paper's graphs under CCNE, a tenth under CCAA.
//! Anchors are never removed and
//! `assigned` is never reset, so a start present in an iteration was
//! present, and recorded, in every iteration since its first search.
//!
//! Winners compose in the same pass over ascending starts with the same
//! strict `<` as the full sweep, so the chosen path — and therefore the
//! produced [`DeadlineAssignment`] — is **bit-identical** to the plain loop
//! that reclassifies every node and searches every start each iteration.
//! The slicing tests keep that loop as an oracle.
//!
//! # Layout
//!
//! One record per expanded node, kept for the whole run: a valid flag, the
//! local winner, a fixed-width read-set row and a fixed-width path row of
//! `max_chain` nodes. A record is overwritten only when its start is
//! searched again, so a run allocates a handful of buffers whatever its
//! iteration count and copies nothing between iterations.

use platform::Platform;
use taskgraph::{TaskGraph, Time};

use crate::algorithm::{apply_path, finalize, SliceState};
use crate::expanded::ExpandedGraph;
use crate::path_search::{ones, set_bit, CriticalPath, PathSearch};
use crate::{DeadlineAssignment, ShareRule, SliceError, SliceInputs, Slicer, Window};

/// The last search from one start. Its read set and winner path are row
/// `s` of [`Searches::deps`] and [`Searches::paths`] for start `s`.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    /// The start was searched, so the rows hold its last search.
    valid: bool,
    /// Winner path length in nodes; 0 when the start reaches no endpoint
    /// (a path has at least one node).
    len: u32,
    score: f64,
    window_start: Time,
    window_end: Time,
}

/// One [`Record`] per expanded node, for the whole run.
#[derive(Debug)]
struct Searches {
    /// 64-bit words per read-set row.
    words: usize,
    /// Nodes per path row: the longest chain.
    width: usize,
    records: Vec<Record>,
    deps: Vec<u64>,
    paths: Vec<u32>,
    /// Live searches and reused records, summed over the run's passes.
    searched: usize,
    kept: usize,
}

impl Searches {
    /// No start searched yet, for a run over `n` expanded nodes.
    fn new(n: usize, max_chain: usize) -> Self {
        let words = n.div_ceil(64);
        Searches {
            words,
            width: max_chain,
            records: vec![Record::default(); n],
            deps: vec![0; n * words],
            paths: vec![0; n * max_chain],
            searched: 0,
            kept: 0,
        }
    }

    /// One iteration's per-start pass. Every start, ascending, keeps its
    /// record when it has one and its read set misses `touched`, the nodes
    /// the previous slice changed, and is searched live into its record
    /// when not. Returns the start whose winner scores strictly lowest,
    /// the first one on ties.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &mut self,
        search: &mut PathSearch,
        exp: &ExpandedGraph,
        vweights: &[f64],
        rule: ShareRule,
        state: &SliceState,
        starts: &[u64],
        touched: &[u64],
    ) -> Result<usize, SliceError> {
        let words = self.words;
        let mut best: Option<(usize, f64)> = None;
        for s in ones(starts) {
            let dep = &mut self.deps[s * words..(s + 1) * words];
            if self.records[s].valid && disjoint(dep, touched) {
                self.kept += 1;
            } else {
                self.searched += 1;
                dep.fill(0);
                let release = state.rel[s].expect("starts are release-anchored");
                let found = search.search_from(exp, vweights, &state.dl, s, release, rule, dep);
                let rec = &mut self.records[s];
                rec.valid = true;
                rec.len = 0;
                if let Some(w) = found {
                    search.path_into(&w, &mut self.paths[s * self.width..]);
                    rec.len = w.len;
                    rec.score = w.score;
                    rec.window_start = w.window_start;
                    rec.window_end = w.window_end;
                }
            }
            let rec = &self.records[s];
            if rec.len > 0 && best.is_none_or(|(_, b)| rec.score < b) {
                best = Some((s, rec.score));
            }
        }
        best.map(|(s, _)| s).ok_or(SliceError::NoAnchoredPath)
    }

    /// Loads start `s`'s winner into the reusable `cp`.
    fn load(&self, s: usize, cp: &mut CriticalPath) {
        let rec = &self.records[s];
        let row = &self.paths[s * self.width..][..rec.len as usize];
        cp.nodes.clear();
        cp.nodes.extend(row.iter().map(|&v| v as usize));
        cp.score = rec.score;
        cp.window_start = rec.window_start;
        cp.window_end = rec.window_end;
    }
}

/// Reclassifies node `v` for `state`: its search classes and whether it
/// is in `starts`.
fn classify(search: &mut PathSearch, starts: &mut [u64], state: &SliceState, v: usize) {
    let start = search.classify(v, &state.assigned, &state.rel, &state.dl);
    set_bit(starts, v, start);
}

/// Sets `touched` to every node the slice along `spine` changed: the spine
/// itself and its neighbours.
fn mark_touched(exp: &ExpandedGraph, spine: &[usize], touched: &mut [u64]) {
    touched.fill(0);
    for &v in spine {
        let nodes = std::iter::once(v as u32)
            .chain(exp.pred(v).iter().copied())
            .chain(exp.succ(v).iter().copied());
        for u in nodes {
            set_bit(touched, u as usize, true);
        }
    }
}

/// Whether two bitsets share no node.
fn disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

#[cfg(test)]
thread_local! {
    /// Iterations whose incrementally kept classes were checked against a
    /// from-scratch classification, on this thread.
    pub(crate) static CLASS_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Asserts that the kept classes equal a from-scratch classification of
/// every node.
#[cfg(test)]
fn check_classes(search: &PathSearch, starts: &[u64], state: &SliceState) {
    let n = state.assigned.len();
    let mut scratch = PathSearch::new(n, 0);
    let mut scratch_starts = vec![0u64; starts.len()];
    for v in 0..n {
        classify(&mut scratch, &mut scratch_starts, state, v);
    }
    assert_eq!(
        search.classes(),
        scratch.classes(),
        "kept search classes drifted"
    );
    assert_eq!(starts, &scratch_starts[..], "kept start set drifted");
    CLASS_CHECKS.with(|c| c.set(c.get() + 1));
}

impl Slicer {
    /// The slicing loop: runs over `graph` with what [`Slicer::inputs`]
    /// read for it, and reads neither the platform nor the metric's
    /// virtual times anywhere else.
    pub(crate) fn run(
        &self,
        graph: &TaskGraph,
        inputs: &SliceInputs,
    ) -> Result<DeadlineAssignment, SliceError> {
        let _span = tracing::debug_span!(
            "distribute",
            metric = self.metric_name(),
            estimate = self.estimate_label(),
            subtasks = graph.subtask_count()
        )
        .entered();

        let rule = self.metric().share_rule();
        let exp = ExpandedGraph::build(graph, &inputs.comm);
        let n = exp.len();
        let vweights = &inputs.vweights[..];
        assert_eq!(vweights.len(), n, "inputs computed for another graph");
        let mut search = PathSearch::new(n, exp.max_chain());
        let mut state = SliceState::init(graph, &exp);
        let mut searches = Searches::new(n, exp.max_chain());
        // The nodes searches start at, and those the previous iteration's
        // slice changed.
        let mut starts = vec![0u64; n.div_ceil(64)];
        let mut touched = vec![0u64; n.div_ceil(64)];
        for v in 0..n {
            classify(&mut search, &mut starts, &state, v);
        }
        let mut path_weights: Vec<f64> = Vec::new();
        let mut slices: Vec<Window> = Vec::new();
        // The chosen path of each iteration, reloaded in place.
        let mut cp = CriticalPath::default();
        let mut paths = 0usize;

        while state.remaining > 0 {
            let best =
                searches.pass(&mut search, &exp, vweights, rule, &state, &starts, &touched)?;
            searches.load(best, &mut cp);
            paths += 1;
            apply_path(
                &exp,
                vweights,
                rule,
                &cp,
                &mut state,
                &mut path_weights,
                &mut slices,
                paths,
            );
            mark_touched(&exp, &cp.nodes, &mut touched);
            for v in ones(&touched) {
                classify(&mut search, &mut starts, &state, v);
            }
            #[cfg(test)]
            check_classes(&search, &starts, &state);
        }

        tracing::debug!(
            paths = paths,
            inverted = state.inverted,
            expanded_nodes = n,
            searched = searches.searched,
            kept = searches.kept,
            "deadline distribution complete"
        );
        finalize(self, graph, &exp, state)
    }

    /// [`distribute`](Slicer::distribute) under the name of the delta
    /// replay it replaced, with zeroed statistics. `memo` is not read.
    /// Kept only so perfbench's frozen mirror compiles; goes with
    /// `mirror.rs` (ROADMAP item 5(d)).
    ///
    /// # Errors
    ///
    /// Exactly those of [`distribute`](Slicer::distribute).
    pub fn redistribute(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        _memo: &mut SliceMemo,
    ) -> Result<Redistribution, SliceError> {
        Ok(Redistribution {
            assignment: self.distribute(graph, platform)?,
            stats: RedistributeStats::default(),
        })
    }
}

/// An empty memo for [`Slicer::redistribute`]. Kept only so perfbench's
/// frozen mirror compiles; goes with `mirror.rs` (ROADMAP item 5(d)).
#[derive(Debug, Default, Clone)]
pub struct SliceMemo;

impl SliceMemo {
    /// The empty memo.
    pub fn new() -> Self {
        SliceMemo
    }
}

/// Always-zero counters of [`Slicer::redistribute`]. Kept only so
/// perfbench's frozen mirror compiles; goes with `mirror.rs` (ROADMAP
/// item 5(d)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedistributeStats {
    /// Always zero.
    pub cache_hits: u64,
    /// Always zero.
    pub cache_misses: u64,
}

/// The result of [`Slicer::redistribute`]. Kept only so perfbench's
/// frozen mirror compiles; goes with `mirror.rs` (ROADMAP item 5(d)).
#[derive(Debug)]
pub struct Redistribution {
    /// The assignment [`Slicer::distribute`] produces.
    pub assignment: DeadlineAssignment,
    /// Always zero.
    pub stats: RedistributeStats,
}

#[cfg(test)]
mod tests {
    use taskgraph::Subtask;

    use super::*;

    fn chain(wcets: &[i64], deadline: i64) -> TaskGraph {
        let mut b = TaskGraph::builder();
        let mut prev = None;
        for (i, &c) in wcets.iter().enumerate() {
            let mut s = Subtask::new(Time::new(c));
            if i == 0 {
                s = s.released_at(Time::ZERO);
            }
            if i + 1 == wcets.len() {
                s = s.due_at(Time::new(deadline));
            }
            let id = b.add_subtask(s);
            if let Some(p) = prev {
                b.add_edge(p, id, 10).unwrap();
            }
            prev = Some(id);
        }
        b.build().unwrap()
    }

    #[test]
    fn traced_distribute_matches_plain_distribute() {
        let g = chain(&[10, 30, 20], 120);
        let p = Platform::paper(2).unwrap();
        for slicer in [Slicer::bst_pure(), Slicer::bst_norm(), Slicer::ast_adapt()] {
            let plain = slicer.distribute(&g, &p).unwrap();
            let mut memo = SliceMemo::new();
            let traced = slicer.redistribute(&g, &p, &mut memo).unwrap().assignment;
            assert_eq!(plain, traced);
        }
    }
}
