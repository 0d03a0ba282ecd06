//! The slicing loop (Figure 1), with every per-start search carried over
//! from the previous iteration while the last slice left it untouched.
//!
//! # How it works
//!
//! The loop is deterministic: given the expanded graph, per-node virtual
//! times, and the accumulated `assigned`/release/deadline state at the top
//! of an iteration, the chosen critical path — and hence the whole rest of
//! the run — is a pure function of those inputs. Each iteration records
//! the *local* winner of every per-start DP search together with the
//! search's **read set** (every node whose mutable state it touched, as a
//! bitset).
//!
//! A start's search carries over from the previous iteration while its
//! read set misses the nodes the last slice touched (the spine and the
//! spine's neighbours): no node it read changed, so a new search would
//! reproduce it bit for bit. Only newly anchored starts and those whose
//! read set the last slice touched are searched live, about a fifth on the
//! paper's graphs.
//!
//! Winners compose across ascending starts with the same strict `<` as the
//! full sweep, so the chosen path — and therefore the produced
//! [`DeadlineAssignment`] — is **bit-identical** to the plain loop that
//! searches every start each iteration. The slicing tests keep that loop
//! as an oracle.
//!
//! # Layout
//!
//! An iteration's record is three flat buffers: its candidates, their read
//! sets (one fixed-width row each) and their winner paths. The loop keeps
//! two records, the previous iteration's and the open one, and swaps them
//! after every slice, so a run allocates a handful of buffers whatever its
//! iteration count.

use platform::Platform;
use taskgraph::{TaskGraph, Time};

use crate::algorithm::{apply_path, finalize, SliceState};
use crate::expanded::ExpandedGraph;
use crate::path_search::{CriticalPath, PathSearch};
use crate::{DeadlineAssignment, ShareRule, SliceError, SliceInputs, Slicer, Window};

/// One per-start search of an iteration: its start and local winner. The
/// read set is row `c` of [`Iteration::deps`] for candidate `c`.
#[derive(Debug, Clone, Copy)]
struct Cand {
    start: u32,
    /// The winner path is `len` nodes of [`Iteration::path_nodes`] from
    /// offset `path`; `len == 0` when the start reaches no endpoint (a
    /// path has at least one node).
    path: u32,
    len: u32,
    score: f64,
    window_start: Time,
    window_end: Time,
}

/// The per-start searches of one iteration, ascending by start.
#[derive(Debug)]
struct Iteration {
    /// 64-bit words per read-set row.
    words: usize,
    cands: Vec<Cand>,
    /// Per candidate: the read set of its search.
    deps: Vec<u64>,
    path_nodes: Vec<u32>,
}

impl Iteration {
    /// An empty record for a run over `n` expanded nodes. An iteration has
    /// at most one candidate per node.
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Iteration {
            words,
            cands: Vec::with_capacity(n),
            deps: Vec::with_capacity(n * words),
            path_nodes: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.cands.clear();
        self.deps.clear();
        self.path_nodes.clear();
    }

    /// The read set of candidate `c`.
    fn dep(&self, c: usize) -> &[u64] {
        &self.deps[c * self.words..(c + 1) * self.words]
    }

    /// The winner path of candidate `c` (empty if none).
    fn path(&self, c: usize) -> &[u32] {
        let cand = &self.cands[c];
        &self.path_nodes[cand.path as usize..(cand.path + cand.len) as usize]
    }

    /// Runs the search from start `s` live: it marks its read set straight
    /// into a fresh row, and its winner's path is walked straight into the
    /// node array.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        search: &mut PathSearch,
        exp: &ExpandedGraph,
        vweights: &[f64],
        dl: &[Option<Time>],
        s: usize,
        start_release: Time,
        rule: ShareRule,
    ) {
        let at = self.deps.len();
        self.deps.resize(at + self.words, 0);
        let found = search.search_from(
            exp,
            vweights,
            dl,
            s,
            start_release,
            rule,
            &mut self.deps[at..],
        );
        let path = self.path_nodes.len();
        let mut cand = Cand {
            start: s as u32,
            path: path as u32,
            len: 0,
            score: 0.0,
            window_start: Time::ZERO,
            window_end: Time::ZERO,
        };
        if let Some(w) = found {
            search.path_into(&w, &mut self.path_nodes);
            cand.len = (self.path_nodes.len() - path) as u32;
            cand.score = w.score;
            cand.window_start = w.window_start;
            cand.window_end = w.window_end;
        }
        self.cands.push(cand);
    }

    /// Appends candidate `c` of `prev` unchanged.
    fn carry(&mut self, prev: &Iteration, c: usize) {
        self.deps.extend_from_slice(prev.dep(c));
        let path = self.path_nodes.len() as u32;
        self.path_nodes.extend_from_slice(prev.path(c));
        self.cands.push(Cand {
            path,
            ..prev.cands[c]
        });
    }

    /// One iteration's per-start pass into this (empty) record. Every
    /// unassigned release-anchored start, ascending, is carried from
    /// `prev` when `prev` searched it and its read set misses `touched`,
    /// the nodes the previous slice changed, and searched live when not.
    /// Returns the winning candidate.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &mut self,
        prev: &Iteration,
        search: &mut PathSearch,
        exp: &ExpandedGraph,
        vweights: &[f64],
        rule: ShareRule,
        state: &SliceState,
        touched: &[u64],
    ) -> Result<usize, SliceError> {
        let mut classified = false;
        let mut carried = 0..prev.cands.len();
        for s in 0..exp.len() {
            let Some(release) = state.rel[s].filter(|_| !state.assigned[s]) else {
                continue;
            };
            if seek(&prev.cands, &mut carried, s) && disjoint(prev.dep(carried.start), touched) {
                self.carry(prev, carried.start);
                continue;
            }
            // Most passes search nothing live: classify on demand.
            if !std::mem::replace(&mut classified, true)
                && !search.classify(exp.len(), &state.assigned, &state.rel, &state.dl)
            {
                return Err(SliceError::NoAnchoredPath);
            }
            self.search(search, exp, vweights, &state.dl, s, release, rule);
        }
        self.best().ok_or(SliceError::NoAnchoredPath)
    }

    /// The first candidate (ascending start order) attaining the strictly
    /// smallest score — the same composition rule as the full sweep's `<`.
    fn best(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (c, cand) in self.cands.iter().enumerate() {
            if cand.len > 0 && best.is_none_or(|(_, s)| cand.score < s) {
                best = Some((c, cand.score));
            }
        }
        best.map(|(c, _)| c)
    }

    /// Loads candidate `c` into the reusable `cp`.
    fn load(&self, c: usize, cp: &mut CriticalPath) {
        let cand = &self.cands[c];
        cp.nodes.clear();
        cp.nodes.extend(self.path(c).iter().map(|&v| v as usize));
        cp.score = cand.score;
        cp.window_start = cand.window_start;
        cp.window_end = cand.window_end;
    }
}

/// Sets `touched` to every node the slice along `spine` may have changed:
/// the spine itself and its neighbours.
fn mark_touched(exp: &ExpandedGraph, spine: &[usize], touched: &mut [u64]) {
    touched.fill(0);
    for &v in spine {
        let nodes = std::iter::once(v as u32)
            .chain(exp.pred(v).iter().copied())
            .chain(exp.succ(v).iter().copied());
        for u in nodes {
            touched[(u >> 6) as usize] |= 1u64 << (u & 63);
        }
    }
}

/// Whether two bitsets share no node.
fn disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

/// Advances `range`, a run of candidates ascending by start, past every
/// start below `s`; returns whether its first candidate is the one from
/// `s`.
fn seek(cands: &[Cand], range: &mut std::ops::Range<usize>, s: usize) -> bool {
    while range.start < range.end && (cands[range.start].start as usize) < s {
        range.start += 1;
    }
    range.start < range.end && cands[range.start].start as usize == s
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
        // The previous iteration's searches and the open one's.
        let (mut prev, mut open) = (Iteration::new(n), Iteration::new(n));
        // The nodes the previous iteration's slice changed.
        let mut touched = vec![0u64; n.div_ceil(64)];
        let mut path_weights: Vec<f64> = Vec::new();
        let mut slices: Vec<Window> = Vec::new();
        // The chosen path of each iteration, reloaded in place.
        let mut cp = CriticalPath {
            nodes: Vec::new(),
            score: 0.0,
            window_start: Time::ZERO,
            window_end: Time::ZERO,
        };
        let mut paths = 0usize;

        while state.remaining > 0 {
            let best = open.pass(&prev, &mut search, &exp, vweights, rule, &state, &touched)?;
            open.load(best, &mut cp);
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
            std::mem::swap(&mut prev, &mut open);
            open.clear();
        }

        tracing::debug!(
            paths = paths,
            inverted = state.inverted,
            expanded_nodes = n,
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
