//! The slicing loop (Figure 1). Every run records what a later run can
//! reuse, and a replay against a memoized previous run re-searches only
//! the dirty cone of a graph delta. [`Slicer::distribute`] is this loop
//! with no memo: its trace serves only its own carry and is dropped
//! untrimmed.
//!
//! # How it works
//!
//! The loop is deterministic: given the expanded graph, per-node virtual
//! times, and the accumulated `assigned`/release/deadline state at the top
//! of an iteration, the chosen critical path — and hence the whole rest of
//! the run — is a pure function of those inputs. A run therefore records
//! the *local* winner of every per-start DP search together with the
//! search's **read set** (every node whose mutable state it touched, as a
//! bitset), and the nodes each slice changed (its **steps**).
//!
//! Within one run, a start's search carries over from the previous
//! iteration while its read set misses that iteration's steps: no node it
//! read changed, so a new search would reproduce it bit for bit. Only
//! newly anchored starts and those whose read set the last slice touched
//! are searched live, about a fifth on the paper's graphs.
//!
//! On redistribute, the loop replays from a fresh state over the mutated
//! graph, answering each start from the old run's same iteration when the
//! delta cannot have changed it. Invalidation works at three strengths:
//!
//! * **State dirt** (read-set level). The new state is diffed against the
//!   old run's at the same iteration; both runs change only the nodes their
//!   steps record, so the diff is kept up to date from those. It
//!   distinguishes what a search can actually observe: interior
//!   exploration branches only on anchor *presence* (`assigned`,
//!   `rel.is_none()`, `dl.is_some()`), while anchor *values* are read in
//!   exactly two places — the start's release and the deadlines of reached
//!   endpoints. An assignment or presence flip therefore dirties the node
//!   for every cached search whose read set touches it, but a value-only
//!   change (a still-anchored node whose anchor moved) invalidates only
//!   searches *starting* at the node (release values) or reaching it as an
//!   endpoint (deadline values, checked against the read set). This keeps
//!   the re-anchoring ripple of an accepted slice — which rewrites
//!   neighbour anchor values but rarely their presence — from cascading
//!   into a full re-search. A node assigned in both runs is always clean.
//! * **Increased virtual weights** (read-set level). The DP's exploration
//!   order is weight-independent, but a larger weight can promote any path
//!   through the node, so every cached search that examined it re-runs.
//! * **Decreased virtual weights** (winner level). Path scores are
//!   monotone non-increasing in total virtual weight — `EqualShare`
//!   unconditionally, `Proportional` whenever every window is non-negative
//!   (checked via the envelope `min deadline ≥ max release` over the
//!   unassigned anchors, demoting to read-set strength when it fails). A
//!   decrease can therefore only make competing paths *lose*, so a cached
//!   winner stays the first-found argmin unless its own path routes
//!   through a decreased node. This is what makes WCET *tightenings* — the
//!   common direction for measurement-based re-estimation — nearly free.
//!
//! A start the old run cannot answer is carried or searched live as
//! above. On top of the dirty rules, the replay tracks whether the state
//! still **matches** the old run's (it does until a different winner is
//! chosen, and again once a divergent region has been sliced away in both
//! runs). On the matched prefix only the few weight-dirty nodes are
//! consulted; an iteration they leave clean is copied into the new trace
//! as a few short slice copies, so an identity or far-from-the-cone delta
//! replays in time proportional to the candidates it copies.
//!
//! # Trace layout
//!
//! The record is a handful of flat, append-only arenas rather than a tree
//! of small vectors. The state is kept once, as the anchors the run started
//! from, plus one short list per iteration of the nodes its slice changed
//! (the spine and the spine's neighbours, each with its state after the
//! slice); a replay rebuilds the old run's state at every iteration by
//! applying those steps to one rolling snapshot, so no per-node row is
//! stored or copied per iteration. Candidates live in one table: each
//! one's read set is a fixed-width row of a shared word array and its
//! winner path a range of a shared node array; the read-set union is one
//! row per iteration. A search marks straight into its arena row and its
//! winner's path is walked straight into the node array, and a reused or
//! carried run of candidates is one slice copy per arena, so recording
//! allocates nothing per start. A replay reads the old arenas and appends
//! to a second set; the two swap afterwards, and the memo keeps the spare
//! (emptied, capacity intact) so chained amendments reuse its buffers.
//! Cloning or dropping a memo therefore touches a few buffers, whatever the
//! iteration count.
//!
//! Winners compose across ascending starts with the same strict `<` as the
//! full sweep, so the chosen path — and therefore the produced
//! [`DeadlineAssignment`] — is **bit-identical** to the plain loop that
//! searches every start each iteration. The slicing tests keep that loop
//! as an oracle, and the delta-equivalence property suite checks
//! redistribute against a from-scratch [`Slicer::distribute`] over random
//! delta sequences.
//!
//! # Fallback
//!
//! The replay silently falls back to a full run (still priming the memo
//! for next time, and still carrying searches within the run) when reuse
//! would be unsound: the memo is unprimed, the slicer configuration or
//! the system size changed, or the delta changed the *structure* of the
//! expanded graph (subtask/edge insertion or removal, or a message
//! crossing the materialization threshold). Anchor, WCET and pin deltas
//! keep the structure intact and stay on the incremental path; when they
//! also leave the subtask/edge signature and every estimated message cost
//! untouched, the memoized expanded graph is reused without being
//! rebuilt. [`RedistributeStats::fell_back`] reports which path ran.

use std::borrow::Cow;
use std::ops::Range;

use platform::Platform;
use taskgraph::{TaskGraph, Time};

use crate::algorithm::{apply_path, finalize, SliceState};
use crate::expanded::ExpandedGraph;
use crate::path_search::{CriticalPath, PathSearch};
use crate::{DeadlineAssignment, ShareRule, SliceError, SliceInputs, Slicer, Window};

/// Memoized state of one traced slicing run, consumed and refreshed by
/// [`Slicer::redistribute`].
///
/// Create one with [`SliceMemo::new`] (unprimed): the first
/// `redistribute` against it falls back to a full traced run, which
/// primes it. A memo is tied to the slicer configuration and system
/// size it was primed with; mismatches are detected and degrade to a full
/// recompute rather than an error.
#[derive(Debug, Default, Clone)]
pub struct SliceMemo {
    inner: Option<MemoInner>,
}

impl SliceMemo {
    /// An unprimed memo: the next redistribute falls back and primes it.
    pub fn new() -> Self {
        SliceMemo::default()
    }

    /// Returns `true` once a traced run has primed the memo.
    pub fn is_primed(&self) -> bool {
        self.inner.is_some()
    }
}

#[derive(Debug, Clone)]
struct MemoInner {
    fingerprint: Fingerprint,
    graph_sig: GraphSig,
    exp: ExpandedGraph,
    /// What the run read; `exp` was built from its message costs.
    inputs: SliceInputs,
    trace: Trace,
    /// An empty trace whose buffers the next replay appends to.
    spare: Trace,
    search: PathSearch,
}

/// The configuration a memo was primed under. Virtual times are compared
/// per node separately, so metric *parameters* (e.g. a THRES surplus) need
/// not be captured here — only inputs that could change behaviour while
/// leaving every virtual time bit-identical. The system size is kept so
/// that a memo primed at one size falls back at another: a replay there
/// would be sound, but no caller amends a graph across sizes.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    metric: String,
    estimate: &'static str,
    rule: ShareRule,
    strict: bool,
    processors: usize,
}

/// The task-graph inputs the expanded graph's *shape* is a function of,
/// together with the estimated message costs. While this signature and
/// the costs hold, the memoized [`ExpandedGraph`] is valid verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GraphSig {
    subtasks: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphSig {
    fn of(graph: &TaskGraph) -> Self {
        GraphSig {
            subtasks: graph.subtask_count(),
            edges: graph
                .edge_ids()
                .map(|eid| {
                    let e = graph.edge(eid);
                    (e.src().index() as u32, e.dst().index() as u32)
                })
                .collect(),
        }
    }
}

/// One per-start search of a traced iteration: its start and local winner.
/// The read set is row `c` of [`Trace::deps`] for candidate `c`.
#[derive(Debug, Clone, Copy)]
struct Cand {
    start: u32,
    /// The winner path is `len` nodes of [`Trace::path_nodes`] from offset
    /// `path` within its iteration's range; `len == 0` when the start
    /// reaches no endpoint (a path has at least one node).
    path: u32,
    len: u32,
    score: f64,
    window_start: Time,
    window_end: Time,
}

/// One node's slicing state right after an iteration's slice.
#[derive(Debug, Clone, Copy)]
struct Step {
    node: u32,
    assigned: bool,
    rel: Option<Time>,
    dl: Option<Time>,
}

/// The slicing state a traced run saw at the start of one iteration: what
/// a replay diffs its own state against.
#[derive(Debug)]
struct Snapshot {
    assigned: Vec<bool>,
    rel: Vec<Option<Time>>,
    dl: Vec<Option<Time>>,
}

/// Where the live state differs from the old run's at the same iteration
/// (the module docs' state dirt), one bit per node: hard dirt, and value
/// dirt of releases and of deadlines. A slice changes only the nodes its
/// steps record, so after each iteration only those of either run are
/// re-checked.
#[derive(Debug)]
struct Diff {
    hard: Vec<u64>,
    rel_val: Vec<u64>,
    dl_val: Vec<u64>,
}

impl Diff {
    fn new(words: usize) -> Self {
        Diff {
            hard: vec![0; words],
            rel_val: vec![0; words],
            dl_val: vec![0; words],
        }
    }

    /// Re-checks node `v` of `state` against the old run's `snap`.
    fn check(&mut self, v: usize, state: &SliceState, snap: &Snapshot) {
        let mut hard = state.assigned[v] != snap.assigned[v];
        let (mut rel_val, mut dl_val) = (false, false);
        if !hard && !state.assigned[v] {
            for (new, old, val) in [
                (state.rel[v], snap.rel[v], &mut rel_val),
                (state.dl[v], snap.dl[v], &mut dl_val),
            ] {
                match (new, old) {
                    (Some(a), Some(b)) => *val = a != b,
                    (a, b) => hard |= a.is_some() != b.is_some(),
                }
            }
        }
        let (w, b) = (v >> 6, 1u64 << (v & 63));
        for (bits, on) in [
            (&mut self.hard, hard),
            (&mut self.rel_val, rel_val),
            (&mut self.dl_val, dl_val),
        ] {
            bits[w] = if on { bits[w] | b } else { bits[w] & !b };
        }
    }

    /// The number of dirty nodes.
    fn dirt(&self) -> u64 {
        let words = self.hard.iter().zip(&self.rel_val).zip(&self.dl_val);
        words
            .map(|((h, r), d)| u64::from((h | r | d).count_ones()))
            .sum()
    }
}

/// The record of one traced run in flat, append-only arenas (see the
/// module docs). Iteration `i` owns row `i` of the union arena (`words`
/// bitset words wide) and the ranges of `steps`, the candidate table and
/// the path-node array that end at `step_end[i]`, `cand_end[i]` and
/// `path_end[i]`. An iteration's candidates run ascending by start.
#[derive(Debug, Clone, Default)]
struct Trace {
    /// Expanded nodes.
    n: usize,
    /// 64-bit words per bitset row.
    words: usize,
    /// The release anchors the run started from (nothing assigned).
    rel0: Vec<Option<Time>>,
    /// The deadline anchors the run started from.
    dl0: Vec<Option<Time>>,
    /// Per iteration: every node its slice touched — the spine and the
    /// spine's neighbours — with that node's state after the slice.
    steps: Vec<Step>,
    /// Per iteration: one past its last entry in `steps`.
    step_end: Vec<u32>,
    /// Per iteration: union of every candidate's read set. A weight-dirty
    /// node outside it cannot invalidate any cached search of the
    /// iteration, letting a matched replay skip the per-candidate checks.
    dep_union: Vec<u64>,
    /// Per iteration: one past its last candidate in `cands`.
    cand_end: Vec<u32>,
    /// Per iteration: one past its last node in `path_nodes`.
    path_end: Vec<u32>,
    cands: Vec<Cand>,
    /// Per candidate: the read set of its search.
    deps: Vec<u64>,
    path_nodes: Vec<u32>,
}

/// Row `i` of an arena of `width`-wide rows.
fn row<T>(buf: &[T], i: usize, width: usize) -> &[T] {
    &buf[i * width..(i + 1) * width]
}

/// Range `i` of an arena whose iteration `i` ends at `ends[i]`.
fn span(ends: &[u32], i: usize) -> Range<usize> {
    let lo = if i == 0 { 0 } else { ends[i - 1] as usize };
    lo..ends[i] as usize
}

impl Trace {
    /// Empties the trace for a run over `n` expanded nodes, keeping every
    /// buffer's capacity.
    fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(64);
        self.rel0.clear();
        self.dl0.clear();
        self.steps.clear();
        self.step_end.clear();
        self.dep_union.clear();
        self.cand_end.clear();
        self.path_end.clear();
        self.cands.clear();
        self.deps.clear();
        self.path_nodes.clear();
    }

    /// Reserves room for a run shaped like `like` (a replay records about
    /// as much as the run it replays), or for a first guess when there is
    /// none, so appending rarely regrows a buffer.
    fn reserve_like(&mut self, like: Option<&Trace>) {
        let (iters, steps, cands, path_nodes) = match like {
            Some(t) => (t.iters(), t.steps.len(), t.cands.len(), t.path_nodes.len()),
            // Every iteration slices at least one node. On the paper's
            // graphs a run takes up to ~3n/4 iterations, each touching a
            // few nodes and searching from a dozen starts whose local
            // winners are mostly single nodes.
            None => {
                let iters = self.n * 3 / 4 + 1;
                (iters, iters * 8, iters * 16, iters * 32)
            }
        };
        let words = self.words;
        self.rel0.reserve(self.n);
        self.dl0.reserve(self.n);
        self.steps.reserve(steps);
        self.step_end.reserve(iters);
        self.dep_union.reserve(iters * words);
        self.cand_end.reserve(iters);
        self.path_end.reserve(iters);
        self.cands.reserve(cands);
        self.deps.reserve(cands * words);
        self.path_nodes.reserve(path_nodes);
    }

    /// Releases the capacity a first guess over-reserved.
    fn trim(&mut self) {
        self.steps.shrink_to_fit();
        self.step_end.shrink_to_fit();
        self.dep_union.shrink_to_fit();
        self.cand_end.shrink_to_fit();
        self.path_end.shrink_to_fit();
        self.cands.shrink_to_fit();
        self.deps.shrink_to_fit();
        self.path_nodes.shrink_to_fit();
    }

    fn iters(&self) -> usize {
        self.cand_end.len()
    }

    /// Start of the ranges the next (open) iteration appends to.
    fn open_cands(&self) -> usize {
        self.cand_end.last().map_or(0, |&e| e as usize)
    }

    fn open_paths(&self) -> usize {
        self.path_end.last().map_or(0, |&e| e as usize)
    }

    /// Candidate indices of iteration `i`.
    fn cands_of(&self, i: usize) -> Range<usize> {
        span(&self.cand_end, i)
    }

    fn paths_of(&self, i: usize) -> Range<usize> {
        span(&self.path_end, i)
    }

    fn dep_union(&self, i: usize) -> &[u64] {
        row(&self.dep_union, i, self.words)
    }

    /// The read set of candidate `c`.
    fn dep(&self, c: usize) -> &[u64] {
        row(&self.deps, c, self.words)
    }

    /// The winner path of candidate `c` of iteration `i` (empty if none).
    fn path(&self, i: usize, c: usize) -> &[u32] {
        let cand = &self.cands[c];
        let from = self.paths_of(i).start + cand.path as usize;
        &self.path_nodes[from..from + cand.len as usize]
    }

    /// Records the state the run starts from.
    fn start(&mut self, state: &SliceState) {
        self.rel0.extend_from_slice(&state.rel);
        self.dl0.extend_from_slice(&state.dl);
    }

    /// The state the run's first iteration started from.
    fn first_snapshot(&self) -> Snapshot {
        Snapshot {
            assigned: vec![false; self.n],
            rel: self.rel0.clone(),
            dl: self.dl0.clone(),
        }
    }

    /// The nodes iteration `i`'s slice changed, with their state after it.
    fn steps_of(&self, i: usize) -> &[Step] {
        &self.steps[span(&self.step_end, i)]
    }

    /// Rolls `snap` from the start of iteration `i` to the start of the
    /// next one.
    fn advance(&self, i: usize, snap: &mut Snapshot) {
        for step in self.steps_of(i) {
            let v = step.node as usize;
            snap.assigned[v] = step.assigned;
            snap.rel[v] = step.rel;
            snap.dl[v] = step.dl;
        }
    }

    /// Sets `bits` to the nodes iteration `i`'s slice changed.
    fn mark_steps(&self, i: usize, bits: &mut [u64]) {
        bits.fill(0);
        for step in self.steps_of(i) {
            bits[(step.node >> 6) as usize] |= 1u64 << (step.node & 63);
        }
    }

    /// Records the state of every node the latest slice, along `spine`,
    /// may have changed: the spine itself and its neighbours.
    fn record_steps(&mut self, exp: &ExpandedGraph, spine: &[usize], state: &SliceState) {
        for &v in spine {
            let touched = std::iter::once(v as u32)
                .chain(exp.pred(v).iter().copied())
                .chain(exp.succ(v).iter().copied());
            for u in touched {
                let w = u as usize;
                self.steps.push(Step {
                    node: u,
                    assigned: state.assigned[w],
                    rel: state.rel[w],
                    dl: state.dl[w],
                });
            }
        }
        self.step_end.push(self.steps.len() as u32);
    }

    /// Runs the search from start `s` live into the open iteration: it
    /// marks its read set straight into a fresh arena row, and its winner's
    /// path is walked straight into the node array.
    #[allow(clippy::too_many_arguments)]
    fn run_search(
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
        let path = self.path_nodes.len() - self.open_paths();
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
            cand.len = (self.path_nodes.len() - self.open_paths() - path) as u32;
            cand.score = w.score;
            cand.window_start = w.window_start;
            cand.window_end = w.window_end;
        }
        self.cands.push(cand);
    }

    /// Appends the run of candidates `cands` to the open iteration, one
    /// slice copy each for their read sets, paths and entries. The run is
    /// `old`'s from iteration `i` when `from_old`, else this trace's own
    /// from iteration `i - 1`; `cands` is left empty.
    fn copy_run(&mut self, old: &Trace, i: usize, (from_old, cands): &mut (bool, Range<usize>)) {
        let cands = std::mem::replace(cands, 0..0);
        if cands.is_empty() {
            return;
        }
        let (src, j) = if *from_old { (old, i) } else { (&*self, i - 1) };
        let (first, last) = (src.cands[cands.start], src.cands[cands.end - 1]);
        let base = src.paths_of(j).start;
        let paths = base + first.path as usize..base + (last.path + last.len) as usize;
        let deps = cands.start * self.words..cands.end * self.words;
        // Path offsets are iteration-relative: shift the run's to the open
        // iteration's end.
        let shift = ((self.path_nodes.len() - self.open_paths()) as u32).wrapping_sub(first.path);
        let at = self.cands.len();
        if *from_old {
            self.deps.extend_from_slice(&old.deps[deps]);
            self.path_nodes.extend_from_slice(&old.path_nodes[paths]);
            self.cands.extend_from_slice(&old.cands[cands]);
        } else {
            self.deps.extend_from_within(deps);
            self.path_nodes.extend_from_within(paths);
            self.cands.extend_from_within(cands);
        }
        for cand in &mut self.cands[at..] {
            cand.path = cand.path.wrapping_add(shift);
        }
    }

    /// One iteration's per-start pass. Every unassigned release-anchored
    /// start, ascending, is answered from `old`'s candidate `c` of
    /// iteration `i` when `hit(c)` holds (a cache hit); otherwise (a cache
    /// miss) it is carried from this run's previous iteration when that
    /// iteration searched it and its read set misses `touched`, the nodes
    /// the previous slice changed, and searched live when not. Consecutive
    /// answers from one source are copied as one run. Closes the open
    /// iteration and returns its winning candidate.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &mut self,
        old: &Trace,
        i: usize,
        search: &mut PathSearch,
        exp: &ExpandedGraph,
        vweights: &[f64],
        rule: ShareRule,
        state: &SliceState,
        touched: &[u64],
        stats: &mut RedistributeStats,
        hit: &dyn Fn(usize) -> bool,
    ) -> Result<usize, SliceError> {
        let mut classified = false;
        let mut cached = if i < old.iters() {
            old.cands_of(i)
        } else {
            0..0
        };
        let mut prev = if i > 0 { self.cands_of(i - 1) } else { 0..0 };
        let mut run = (true, 0..0);
        for s in 0..exp.len() {
            let Some(release) = state.rel[s].filter(|_| !state.assigned[s]) else {
                continue;
            };
            let answer = if seek(&old.cands, &mut cached, s) && hit(cached.start) {
                stats.cache_hits += 1;
                (true, cached.start)
            } else {
                stats.cache_misses += 1;
                if seek(&self.cands, &mut prev, s) && disjoint(self.dep(prev.start), touched) {
                    (false, prev.start)
                } else {
                    self.copy_run(old, i, &mut run);
                    // Most passes search nothing live: classify on demand.
                    if !std::mem::replace(&mut classified, true)
                        && !search.classify(exp.len(), &state.assigned, &state.rel, &state.dl)
                    {
                        return Err(SliceError::NoAnchoredPath);
                    }
                    self.run_search(search, exp, vweights, &state.dl, s, release, rule);
                    continue;
                }
            };
            if run.0 != answer.0 || run.1.end != answer.1 {
                self.copy_run(old, i, &mut run);
                run = (answer.0, answer.1..answer.1);
            }
            run.1.end += 1;
        }
        self.copy_run(old, i, &mut run);
        self.close().ok_or(SliceError::NoAnchoredPath)
    }

    /// Closes the open iteration (its union and ranges) and returns its
    /// winning candidate.
    fn close(&mut self) -> Option<usize> {
        let (words, cands) = (self.words, self.open_cands()..self.cands.len());
        let at = self.dep_union.len();
        self.dep_union.resize(at + words, 0);
        for d in self.deps[cands.start * words..].chunks_exact(words) {
            for (u, x) in self.dep_union[at..].iter_mut().zip(d) {
                *u |= x;
            }
        }
        self.cand_end.push(cands.end as u32);
        self.path_end.push(self.path_nodes.len() as u32);
        self.best(self.iters() - 1)
    }

    /// Appends iteration `i` of `old`'s candidates, read sets, paths and
    /// union whole, one slice copy each (candidate path offsets are
    /// iteration-relative). Its steps are recorded from the live state like
    /// any other iteration's.
    fn copy_iteration(&mut self, old: &Trace, i: usize) {
        self.copy_run(old, i, &mut (true, old.cands_of(i)));
        self.dep_union.extend_from_slice(old.dep_union(i));
        self.cand_end.push(self.cands.len() as u32);
        self.path_end.push(self.path_nodes.len() as u32);
    }

    /// The first candidate of iteration `i` (ascending start order)
    /// attaining the strictly smallest score — the same composition rule
    /// as the full sweep's `<`.
    fn best(&self, i: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for c in self.cands_of(i) {
            let cand = &self.cands[c];
            if cand.len > 0 && best.is_none_or(|(_, s)| cand.score < s) {
                best = Some((c, cand.score));
            }
        }
        best.map(|(c, _)| c)
    }

    /// Whether candidate `c` of iteration `i` and candidate `d` of
    /// `other`'s iteration `j` chose the same path, score and window.
    fn same_winner(&self, i: usize, c: usize, other: &Trace, j: usize, d: usize) -> bool {
        let (a, b) = (&self.cands[c], &other.cands[d]);
        a.score == b.score
            && a.window_start == b.window_start
            && a.window_end == b.window_end
            && self.path(i, c) == other.path(j, d)
    }

    /// Loads candidate `c` of iteration `i` into the reusable `cp`.
    fn load(&self, i: usize, c: usize, cp: &mut CriticalPath) {
        let cand = &self.cands[c];
        cp.nodes.clear();
        cp.nodes.extend(self.path(i, c).iter().map(|&v| v as usize));
        cp.score = cand.score;
        cp.window_start = cand.window_start;
        cp.window_end = cand.window_end;
    }
}

/// Counters from one [`Slicer::redistribute`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedistributeStats {
    /// Per-start searches answered from the memo.
    pub cache_hits: u64,
    /// Per-start searches not answered from the memo: searched live, or
    /// carried from the previous iteration of the same run.
    pub cache_misses: u64,
    /// Dirty (node, iteration) pairs across all diffed iterations.
    pub dirty_nodes: u64,
    /// Scanned (node, iteration) pairs — the denominator for
    /// [`dirty_frac`](Self::dirty_frac). Iterations fast-forwarded on the
    /// matched prefix are not diffed and contribute nothing here.
    pub scanned_nodes: u64,
    /// Whether the call fell back to a full traced recompute.
    pub fell_back: bool,
}

impl RedistributeStats {
    /// Fraction of scanned per-iteration node states that were dirty
    /// (`0.0` when nothing was scanned).
    pub fn dirty_frac(&self) -> f64 {
        if self.scanned_nodes == 0 {
            0.0
        } else {
            self.dirty_nodes as f64 / self.scanned_nodes as f64
        }
    }
}

/// The result of a [`Slicer::redistribute`] call.
#[derive(Debug)]
pub struct Redistribution {
    /// The new assignment, bit-identical to a from-scratch
    /// [`Slicer::distribute`] over the same graph.
    pub assignment: DeadlineAssignment,
    /// Cache-effectiveness counters for telemetry.
    pub stats: RedistributeStats,
}

fn bit(bits: &[u64], v: u32) -> bool {
    bits[(v >> 6) as usize] & (1u64 << (v & 63)) != 0
}

/// Whether two bitsets share no node.
fn disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

/// Advances `range`, a run of candidates ascending by start, past every
/// start below `s`; returns whether its first candidate is the one from
/// `s`.
fn seek(cands: &[Cand], range: &mut Range<usize>, s: usize) -> bool {
    while range.start < range.end && (cands[range.start].start as usize) < s {
        range.start += 1;
    }
    range.start < range.end && cands[range.start].start as usize == s
}

/// Every admissible window is non-negative iff the smallest unassigned
/// deadline anchor is at or after the largest unassigned release anchor.
/// This is the soundness gate for treating weight decreases at winner
/// strength under `ShareRule::Proportional` (score `(W-T)/T` is only
/// monotone in `T` for `W ≥ 0`).
fn windows_nonneg(state: &SliceState) -> bool {
    let (mut min_dl, mut max_rel) = (i64::MAX, i64::MIN);
    for v in 0..state.assigned.len() {
        if state.assigned[v] {
            continue;
        }
        if let Some(r) = state.rel[v] {
            max_rel = max_rel.max(r.as_i64());
        }
        if let Some(d) = state.dl[v] {
            min_dl = min_dl.min(d.as_i64());
        }
    }
    min_dl == i64::MAX || max_rel == i64::MIN || min_dl >= max_rel
}

impl Slicer {
    /// Recomputes the deadline assignment for `graph` — typically the
    /// output of [`GraphDelta::apply`](crate::GraphDelta::apply) on the
    /// memoized run's graph — reusing every per-start search whose read
    /// set the delta left untouched.
    ///
    /// The result is bit-identical to `self.distribute(graph, platform)`;
    /// only the work performed differs. `memo` is refreshed to describe
    /// this run, so deltas can be chained. See this module's source
    /// docs for the dirty-set rules and fallback conditions.
    ///
    /// # Errors
    ///
    /// Exactly those of [`distribute`](Slicer::distribute).
    pub fn redistribute(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        memo: &mut SliceMemo,
    ) -> Result<Redistribution, SliceError> {
        let mut stats = RedistributeStats::default();
        let inputs = self.inputs(graph, platform);
        let fingerprint = self.fingerprint(&inputs);
        let reusable = match &memo.inner {
            Some(inner) => inner.fingerprint == fingerprint,
            None => false,
        };
        if !reusable {
            memo.inner = None;
        }
        stats.fell_back = memo.inner.is_none();
        let assignment = self.run_traced(graph, Cow::Owned(inputs), Some(memo), &mut stats)?;
        Ok(Redistribution { assignment, stats })
    }

    fn fingerprint(&self, inputs: &SliceInputs) -> Fingerprint {
        Fingerprint {
            metric: self.metric_name().to_owned(),
            estimate: self.estimate_label(),
            rule: self.metric().share_rule(),
            strict: self.strict(),
            processors: inputs.ctx.processors,
        }
    }

    /// The slicing loop: runs over `graph` with what [`Slicer::inputs`]
    /// read for it, and reads neither the platform nor the metric's
    /// virtual times anywhere else. Consumes whatever usable memo state
    /// exists (structure still has to match — checked here) and leaves
    /// `memo` primed with this run. Without a memo the run is scratch
    /// ([`distribute`](Slicer::distribute)): it records the same trace for
    /// its own carry, but neither trims it nor keeps it.
    pub(crate) fn run_traced(
        &self,
        graph: &TaskGraph,
        inputs: Cow<'_, SliceInputs>,
        mut memo: Option<&mut SliceMemo>,
        stats: &mut RedistributeStats,
    ) -> Result<DeadlineAssignment, SliceError> {
        let _span = tracing::debug_span!(
            "distribute",
            metric = self.metric_name(),
            estimate = self.estimate_label(),
            subtasks = graph.subtask_count()
        )
        .entered();

        let rule = self.metric().share_rule();
        let sig = memo.is_some().then(|| GraphSig::of(graph));

        // A structural change invalidates every recorded read set (node
        // indices shift, reachability changes): ignore the old trace and
        // run everything live, which primes the memo for the next delta.
        // An unchanged subtask/edge signature with unchanged message costs
        // goes further: the memoized expanded graph is node-for-node
        // identical, and the rebuild is skipped entirely.
        let prior = memo.as_deref_mut().and_then(|memo| memo.inner.take());
        let (exp, old, mut new, old_vweights, mut search) = match prior {
            Some(inner)
                if sig.as_ref() == Some(&inner.graph_sig) && inner.inputs.comm == inputs.comm =>
            {
                (
                    inner.exp,
                    inner.trace,
                    inner.spare,
                    inner.inputs.vweights,
                    inner.search,
                )
            }
            inner => {
                let exp = ExpandedGraph::build(graph, &inputs.comm);
                match inner {
                    Some(inner) if inner.exp.same_structure(&exp) => (
                        exp,
                        inner.trace,
                        inner.spare,
                        inner.inputs.vweights,
                        inner.search,
                    ),
                    _ => {
                        stats.fell_back = true;
                        let search = PathSearch::new(exp.len(), exp.max_chain());
                        (exp, Trace::default(), Trace::default(), Vec::new(), search)
                    }
                }
            }
        };

        let n = exp.len();
        let vweights = &inputs.vweights[..];
        assert_eq!(vweights.len(), n, "inputs computed for another graph");
        let words = n.div_ceil(64);
        let replay = old.iters() > 0;
        new.reset(n);
        new.reserve_like(replay.then_some(&old));

        // Weight dirt for the whole call, split by direction (see module
        // docs): decreases invalidate at winner strength, everything else
        // at read-set strength.
        let mut w_minus = vec![0u64; words];
        let mut w_plus = vec![0u64; words];
        let mut w_minus_list: Vec<u32> = Vec::new();
        let mut w_plus_list: Vec<u32> = Vec::new();
        for v in 0..old_vweights.len() {
            let (new, old) = (vweights[v], old_vweights[v]);
            if new.to_bits() != old.to_bits() {
                if new < old {
                    w_minus[v >> 6] |= 1u64 << (v & 63);
                    w_minus_list.push(v as u32);
                } else {
                    w_plus[v >> 6] |= 1u64 << (v & 63);
                    w_plus_list.push(v as u32);
                }
            }
        }

        let mut state = SliceState::init(graph, &exp);
        new.start(&state);
        // The old run's state at the current iteration, rolled forward
        // through its recorded steps.
        let mut old_state = old.first_snapshot();
        let mut diff = Diff::new(words);
        if replay {
            for v in 0..n {
                diff.check(v, &state, &old_state);
            }
        }
        // The nodes the previous iteration's slice changed.
        let mut touched = vec![0u64; words];
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
        // Whether the state provably equals the old snapshot for the
        // current iteration (assigned flags plus every unassigned anchor).
        // Maintained inductively while the chosen winner is the old one
        // and off every weight-dirty node; re-proven by the diff after a
        // divergence.
        let mut matched = false;

        while state.remaining > 0 {
            // The iteration both traces are at: `i` indexes `old` and the
            // open iteration of `new` alike. Each branch below closes it
            // and yields its winning candidate in `new`.
            let i = new.iters();
            let mut pass = |hit: &dyn Fn(usize) -> bool, stats: &mut RedistributeStats| {
                new.pass(
                    &old,
                    i,
                    &mut search,
                    &exp,
                    vweights,
                    rule,
                    &state,
                    &touched,
                    stats,
                    hit,
                )
            };
            let best = 'choose: {
                if i >= old.iters() {
                    // The old run finished earlier (or there is no trace):
                    // nothing is answered from it.
                    break 'choose pass(&|_| false, stats)?;
                }

                if !matched {
                    let dirt = diff.dirt();
                    stats.scanned_nodes += n as u64;
                    stats.dirty_nodes += dirt;
                    matched = dirt == 0;
                }

                let minus_live = w_minus_list.iter().any(|&v| !state.assigned[v as usize]);
                let plus_live = w_plus_list.iter().any(|&v| !state.assigned[v as usize]);
                // Winner-strength handling of decreases needs the score to
                // be monotone in total weight: unconditional for
                // EqualShare, window-gated for Proportional.
                let soft = minus_live && (rule == ShareRule::EqualShare || windows_nonneg(&state));

                // Whether old candidate `c` survives the weight dirt alone:
                // increased (and, without the monotonicity shortcut,
                // decreased) weights must be outside its read set; under
                // the shortcut its winner must not route through a
                // decreased node (a winner lies inside its read set).
                // Assigned nodes' weights are never read.
                let weight_clean = |c: usize| {
                    let read = |&v: &u32| !state.assigned[v as usize] && bit(old.dep(c), v);
                    let routed = |v: &u32| read(v) && old.path(i, c).contains(v);
                    !w_plus_list.iter().any(read)
                        && if soft {
                            !w_minus_list.iter().any(routed)
                        } else {
                            !w_minus_list.iter().any(read)
                        }
                };

                if matched {
                    // The state equals the old snapshot, so the start set
                    // and every anchor any search reads are the old run's:
                    // only weight dirt can invalidate, and with none live
                    // the whole iteration fast-forwards.
                    // Whole-iteration screen first: weight dirt outside the
                    // recorded read-set union cannot touch any cached
                    // search (a winner path lies inside its read set), so
                    // the per-candidate checks — the dominant cost of a
                    // fast-forwarded iteration — are skipped for the
                    // overwhelmingly common off-cone iteration.
                    let union_clear = w_plus_list
                        .iter()
                        .chain(&w_minus_list)
                        .all(|&v| state.assigned[v as usize] || !bit(old.dep_union(i), v));
                    let cands = old.cands_of(i);
                    if (!minus_live && !plus_live) || union_clear || cands.clone().all(weight_clean)
                    {
                        stats.cache_hits += cands.len() as u64;
                        new.copy_iteration(&old, i);
                        break 'choose new.best(i).ok_or(SliceError::NoAnchoredPath)?;
                    }

                    // Some start must re-search. The chosen winner decides
                    // whether the state keeps tracking the old run: the old
                    // winner, off every weight-dirty node, evolves both
                    // runs identically.
                    let best = pass(&weight_clean, stats)?;
                    matched = old
                        .best(i)
                        .is_some_and(|ob| old.same_winner(i, ob, &new, i, best))
                        && !new
                            .path(i, best)
                            .iter()
                            .any(|&u| bit(&w_minus, u) || bit(&w_plus, u));
                    break 'choose best;
                }

                // Diverged: per-candidate reuse against the diff and the
                // weight dirt. Live weight-dirty nodes held at read-set
                // strength count as dirty nodes too.
                let minus = if soft { &[][..] } else { &w_minus_list[..] };
                stats.dirty_nodes += w_plus_list
                    .iter()
                    .chain(minus)
                    .filter(|&&v| !state.assigned[v as usize] && !bit(&diff.hard, v))
                    .count() as u64;
                let clean = |c: usize| {
                    let dep = old.dep(c);
                    !bit(&diff.rel_val, old.cands[c].start)
                        && disjoint(dep, &diff.hard)
                        && disjoint(dep, &diff.dl_val)
                        && weight_clean(c)
                };
                pass(&clean, stats)?
            };

            new.load(i, best, &mut cp);
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
            new.record_steps(&exp, &cp.nodes, &state);
            new.mark_steps(i, &mut touched);
            if i < old.iters() {
                old.advance(i, &mut old_state);
                for step in new.steps_of(i).iter().chain(old.steps_of(i)) {
                    diff.check(step.node as usize, &state, &old_state);
                }
            }
        }

        tracing::debug!(
            paths = paths,
            inverted = state.inverted,
            expanded_nodes = n,
            cache_hits = stats.cache_hits,
            cache_misses = stats.cache_misses,
            fell_back = stats.fell_back,
            "deadline distribution complete"
        );

        let assignment = finalize(self, graph, &exp, state)?;
        // A scratch run keeps nothing, so it has nothing to trim.
        if let Some((memo, graph_sig)) = memo.zip(sig) {
            if !replay {
                new.trim();
            }
            // The replayed trace becomes the spare: emptied, capacity kept.
            let mut spare = old;
            spare.reset(n);
            memo.inner = Some(MemoInner {
                fingerprint: self.fingerprint(&inputs),
                graph_sig,
                exp,
                inputs: inputs.into_owned(),
                trace: new,
                spare,
                search,
            });
        }
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use platform::Pinning;
    use taskgraph::{Subtask, SubtaskId};

    use super::*;
    use crate::{CommEstimate, GraphDelta};

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
            assert!(memo.is_primed());
        }
    }

    #[test]
    fn redistribute_after_wcet_delta_is_bit_identical() {
        let g = chain(&[10, 30, 20, 40, 15], 400);
        let p = Platform::paper(4).unwrap();
        let slicer = Slicer::bst_pure();
        let mut memo = SliceMemo::new();
        slicer.redistribute(&g, &p, &mut memo).unwrap();

        let delta = GraphDelta::new().set_wcet(SubtaskId::new(2), Time::new(35));
        let applied = delta.apply(&g, &Pinning::new()).unwrap();
        let red = slicer.redistribute(&applied.graph, &p, &mut memo).unwrap();
        let scratch = slicer.distribute(&applied.graph, &p).unwrap();
        assert_eq!(red.assignment, scratch);
        assert!(!red.stats.fell_back);
        assert!(red.stats.scanned_nodes > 0);
    }

    #[test]
    fn identity_delta_hits_every_cached_search() {
        let g = chain(&[10, 30, 20, 40, 15], 400);
        let p = Platform::paper(4).unwrap();
        let slicer = Slicer::bst_pure();
        let mut memo = SliceMemo::new();
        let primed = slicer.redistribute(&g, &p, &mut memo).unwrap().assignment;
        let red = slicer.redistribute(&g, &p, &mut memo).unwrap();
        assert_eq!(red.assignment, primed);
        assert_eq!(red.stats.cache_misses, 0);
        assert!(red.stats.cache_hits > 0);
        assert_eq!(red.stats.dirty_nodes, 0);
        assert_eq!(red.stats.dirty_frac(), 0.0);
    }

    #[test]
    fn structural_delta_falls_back_but_stays_correct() {
        let g = chain(&[10, 30, 20], 300);
        let p = Platform::paper(2).unwrap();
        let slicer = Slicer::bst_pure();
        let mut memo = SliceMemo::new();
        slicer.redistribute(&g, &p, &mut memo).unwrap();

        let delta = GraphDelta::new()
            .add_subtask(Subtask::new(Time::new(12)).due_at(Time::new(280)))
            .add_edge(SubtaskId::new(1), SubtaskId::new(3), 4);
        let applied = delta.apply(&g, &Pinning::new()).unwrap();
        let red = slicer.redistribute(&applied.graph, &p, &mut memo).unwrap();
        assert!(red.stats.fell_back);
        assert_eq!(red.stats.cache_hits, 0);
        let scratch = slicer.distribute(&applied.graph, &p).unwrap();
        assert_eq!(red.assignment, scratch);

        // The fallback primed the memo: a follow-up WCET delta is
        // incremental again.
        let delta2 = GraphDelta::new().set_wcet(SubtaskId::new(0), Time::new(11));
        let applied2 = delta2.apply(&applied.graph, &Pinning::new()).unwrap();
        let red2 = slicer.redistribute(&applied2.graph, &p, &mut memo).unwrap();
        assert!(!red2.stats.fell_back);
        assert_eq!(
            red2.assignment,
            slicer.distribute(&applied2.graph, &p).unwrap()
        );
    }

    #[test]
    fn unprimed_memo_falls_back_and_primes() {
        let g = chain(&[10, 30], 100);
        let p = Platform::paper(2).unwrap();
        let slicer = Slicer::bst_pure();
        let mut memo = SliceMemo::new();
        assert!(!memo.is_primed());
        let red = slicer.redistribute(&g, &p, &mut memo).unwrap();
        assert!(red.stats.fell_back);
        assert!(memo.is_primed());
        assert_eq!(red.assignment, slicer.distribute(&g, &p).unwrap());
    }

    #[test]
    fn configuration_change_falls_back() {
        let g = chain(&[10, 30, 20], 120);
        let p = Platform::paper(2).unwrap();
        let mut memo = SliceMemo::new();
        Slicer::bst_pure().redistribute(&g, &p, &mut memo).unwrap();
        // Different metric, same memo: must fall back, not corrupt.
        let red = Slicer::bst_norm().redistribute(&g, &p, &mut memo).unwrap();
        assert!(red.stats.fell_back);
        assert_eq!(
            red.assignment,
            Slicer::bst_norm().distribute(&g, &p).unwrap()
        );
        // Different processor count likewise (ADAPT reads it).
        let p8 = Platform::paper(8).unwrap();
        let mut memo = SliceMemo::new();
        Slicer::ast_adapt().redistribute(&g, &p, &mut memo).unwrap();
        let red = Slicer::ast_adapt()
            .redistribute(&g, &p8, &mut memo)
            .unwrap();
        assert!(red.stats.fell_back);
        assert_eq!(
            red.assignment,
            Slicer::ast_adapt().distribute(&g, &p8).unwrap()
        );
    }

    /// Two parallel branches between a forked source and a joined sink:
    /// per-start winners can avoid a perturbed branch, exercising the
    /// winner-strength (path containment) shortcut for weight decreases.
    fn forked(wcets: &[i64; 7], deadline: i64) -> TaskGraph {
        let mut b = TaskGraph::builder();
        let ids: Vec<SubtaskId> = wcets
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let mut s = Subtask::new(Time::new(c));
                if i == 0 {
                    s = s.released_at(Time::ZERO);
                }
                if i >= 5 {
                    s = s.due_at(Time::new(deadline));
                }
                b.add_subtask(s)
            })
            .collect();
        // 0 -> {1 -> 2, 3 -> 4} -> 5, plus an independent sink 4 -> 6.
        b.add_edge(ids[0], ids[1], 5).unwrap();
        b.add_edge(ids[1], ids[2], 5).unwrap();
        b.add_edge(ids[0], ids[3], 5).unwrap();
        b.add_edge(ids[3], ids[4], 5).unwrap();
        b.add_edge(ids[2], ids[5], 5).unwrap();
        b.add_edge(ids[4], ids[5], 5).unwrap();
        b.add_edge(ids[4], ids[6], 5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn wcet_tightenings_stay_bit_identical_across_metrics() {
        let g = forked(&[10, 40, 25, 30, 35, 20, 15], 400);
        let p = Platform::paper(3).unwrap();
        for slicer in [
            Slicer::bst_pure(),
            Slicer::bst_norm(),
            Slicer::ast_thres(1.0),
            Slicer::ast_adapt(),
        ] {
            let mut memo = SliceMemo::new();
            slicer.redistribute(&g, &p, &mut memo).unwrap();
            let mut current = g.clone();
            // Tighten one node per step, walking across both branches.
            for (node, wcet) in [(1u32, 32i64), (4, 28), (3, 22), (1, 30)] {
                let delta = GraphDelta::new().set_wcet(SubtaskId::new(node), Time::new(wcet));
                current = delta.apply(&current, &Pinning::new()).unwrap().graph;
                let red = slicer.redistribute(&current, &p, &mut memo).unwrap();
                assert!(!red.stats.fell_back);
                assert_eq!(
                    red.assignment,
                    slicer.distribute(&current, &p).unwrap(),
                    "metric {}",
                    slicer.metric_name()
                );
            }
        }
    }

    #[test]
    fn inverted_window_decrease_under_norm_stays_bit_identical() {
        // The sink is due *before* the source releases, so every window is
        // negative and the Proportional monotonicity gate must demote
        // decreases to read-set strength — correctness must survive.
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(Subtask::new(Time::new(30)).released_at(Time::new(100)));
        let c = b.add_subtask(Subtask::new(Time::new(20)));
        let d = b.add_subtask(Subtask::new(Time::new(25)).due_at(Time::new(50)));
        b.add_edge(a, c, 5).unwrap();
        b.add_edge(c, d, 5).unwrap();
        let g = b.build().unwrap();
        let p = Platform::paper(2).unwrap();
        let slicer = Slicer::bst_norm();
        let mut memo = SliceMemo::new();
        slicer.redistribute(&g, &p, &mut memo).unwrap();
        let delta = GraphDelta::new().set_wcet(SubtaskId::new(1), Time::new(12));
        let mutated = delta.apply(&g, &Pinning::new()).unwrap().graph;
        let red = slicer.redistribute(&mutated, &p, &mut memo).unwrap();
        assert!(!red.stats.fell_back);
        assert_eq!(red.assignment, slicer.distribute(&mutated, &p).unwrap());
    }

    #[test]
    fn anchor_deltas_stay_bit_identical() {
        let g = forked(&[10, 40, 25, 30, 35, 20, 15], 400);
        let p = Platform::paper(3).unwrap();
        let slicer = Slicer::ast_thres(1.0);
        let mut memo = SliceMemo::new();
        slicer.redistribute(&g, &p, &mut memo).unwrap();
        // Anchor value changes perturb the very first iteration's state, so
        // the replay starts diverged and must reconverge (or re-search) —
        // either way the result must be exact.
        let delta = GraphDelta::new()
            .set_deadline(SubtaskId::new(5), Some(Time::new(380)))
            .set_release(SubtaskId::new(0), Some(Time::new(4)));
        let mutated = delta.apply(&g, &Pinning::new()).unwrap().graph;
        let red = slicer.redistribute(&mutated, &p, &mut memo).unwrap();
        assert!(!red.stats.fell_back);
        assert_eq!(red.assignment, slicer.distribute(&mutated, &p).unwrap());
        // And a follow-up WCET tightening chains off the refreshed memo.
        let delta2 = GraphDelta::new().set_wcet(SubtaskId::new(3), Time::new(24));
        let mutated2 = delta2.apply(&mutated, &Pinning::new()).unwrap().graph;
        let red2 = slicer.redistribute(&mutated2, &p, &mut memo).unwrap();
        assert!(!red2.stats.fell_back);
        assert_eq!(red2.assignment, slicer.distribute(&mutated2, &p).unwrap());
    }

    #[test]
    fn chained_deltas_stay_bit_identical() {
        let g = chain(&[10, 30, 20, 40, 15, 25], 500);
        let p = Platform::paper(4).unwrap();
        let slicer = Slicer::ast_adapt();
        let mut memo = SliceMemo::new();
        slicer.redistribute(&g, &p, &mut memo).unwrap();
        let mut current = g;
        for (node, wcet) in [(1u32, 45i64), (3, 10), (1, 30), (5, 60)] {
            let delta = GraphDelta::new().set_wcet(SubtaskId::new(node), Time::new(wcet));
            current = delta.apply(&current, &Pinning::new()).unwrap().graph;
            let red = slicer.redistribute(&current, &p, &mut memo).unwrap();
            assert!(!red.stats.fell_back);
            assert_eq!(red.assignment, slicer.distribute(&current, &p).unwrap());
        }
    }

    /// Stats of [`paper_graph_tightenings_pin_replay_decisions`], captured
    /// before the trace moved to flat arenas: per estimate (CCNE, CCAA),
    /// per seed 0..8, per step 0..4, `(cache_hits, cache_misses,
    /// dirty_nodes, scanned_nodes, fell_back)`. A storage change that
    /// alters no replay decision leaves every row untouched.
    const PINNED_PAPER_STATS: [(u64, u64, u64, u64, bool); 64] = [
        (369, 31, 35, 624, false),
        (364, 36, 0, 96, false),
        (339, 61, 19, 288, false),
        (394, 6, 0, 96, false),
        (396, 28, 31, 770, false),
        (0, 456, 585, 1760, false),
        (359, 98, 138, 1595, false),
        (371, 89, 81, 1320, false),
        (0, 387, 528, 1683, false),
        (0, 391, 528, 1683, false),
        (259, 139, 192, 1581, false),
        (366, 32, 2, 102, false),
        (337, 103, 116, 1537, false),
        (386, 55, 9, 265, false),
        (405, 41, 27, 530, false),
        (412, 39, 32, 636, false),
        (356, 79, 123, 1560, false),
        (433, 2, 0, 104, false),
        (2, 437, 613, 1924, false),
        (0, 390, 719, 1872, false),
        (507, 66, 0, 104, false),
        (533, 40, 11, 312, false),
        (7, 595, 641, 1872, false),
        (601, 1, 0, 104, false),
        (434, 2, 2, 159, false),
        (394, 47, 54, 1113, false),
        (352, 85, 125, 1060, false),
        (408, 29, 0, 106, false),
        (27, 332, 354, 1247, false),
        (294, 65, 2, 86, false),
        (348, 11, 3, 172, false),
        (347, 13, 10, 215, false),
        (611, 212, 297, 5240, false),
        (709, 114, 72, 3668, false),
        (460, 376, 397, 6026, false),
        (696, 110, 169, 5764, false),
        (56, 1131, 1434, 8848, false),
        (553, 646, 761, 8848, false),
        (725, 475, 553, 7584, false),
        (870, 328, 223, 6794, false),
        (46, 932, 1221, 7599, false),
        (22, 933, 1247, 7599, false),
        (157, 820, 948, 7301, false),
        (948, 29, 4, 447, false),
        (774, 366, 449, 8100, false),
        (978, 162, 33, 3450, false),
        (1038, 94, 111, 4350, false),
        (1039, 89, 137, 3750, false),
        (1114, 239, 188, 6594, false),
        (1053, 300, 300, 6751, false),
        (2, 1348, 1930, 9420, false),
        (0, 1384, 1931, 9420, false),
        (75, 1530, 1869, 9472, false),
        (1417, 195, 93, 5032, false),
        (7, 1595, 2152, 9472, false),
        (1525, 77, 42, 1776, false),
        (1178, 177, 66, 1920, false),
        (1314, 42, 36, 1760, false),
        (1075, 285, 216, 7040, false),
        (1121, 237, 132, 5440, false),
        (546, 83, 123, 1824, false),
        (320, 316, 259, 3192, false),
        (575, 57, 55, 1938, false),
        (599, 41, 73, 1368, false),
    ];

    /// Paper-size replays: 8 seeded MDET graphs on 8 processors, each
    /// tightened four times in a chain, under CCNE and under CCAA (whose
    /// materialized messages push the expanded graph past 64 nodes, so
    /// every bitset spans several words). Each step must match a scratch
    /// `distribute` bit for bit and make exactly the pinned decisions.
    #[test]
    fn paper_graph_tightenings_pin_replay_decisions() {
        use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};

        let spec = WorkloadSpec::paper(ExecVariation::Mdet);
        let p = Platform::paper(8).unwrap();
        let mut got = Vec::new();
        for estimate in [CommEstimate::Ccne, CommEstimate::Ccaa] {
            let multi_word = estimate == CommEstimate::Ccaa;
            let slicer = Slicer::bst_norm().with_estimate(estimate);
            for seed in 0..8u64 {
                let g = generate_seeded(&spec, seed).unwrap();
                let mut memo = SliceMemo::new();
                slicer.redistribute(&g, &p, &mut memo).unwrap();
                let nodes = memo.inner.as_ref().unwrap().exp.len();
                assert_eq!(nodes > 64, multi_word, "seed {seed}: {nodes} nodes");
                let n = g.subtask_count() as u64;
                let mut current = g;
                for step in 0..4u64 {
                    let id = SubtaskId::new(((seed * 7 + step * 13) % n) as u32);
                    let w = current.subtask(id).wcet().as_i64();
                    let delta = GraphDelta::new().set_wcet(id, Time::new((w * 3 / 4).max(1)));
                    current = delta.apply(&current, &Pinning::new()).unwrap().graph;
                    let red = slicer.redistribute(&current, &p, &mut memo).unwrap();
                    assert_eq!(red.assignment, slicer.distribute(&current, &p).unwrap());
                    let s = red.stats;
                    got.push((
                        s.cache_hits,
                        s.cache_misses,
                        s.dirty_nodes,
                        s.scanned_nodes,
                        s.fell_back,
                    ));
                }
            }
        }
        assert_eq!(got, PINNED_PAPER_STATS);
    }

    /// A memo clone shares no buffer with its original: both replay one
    /// delta identically, and chaining a second delta on the clone leaves
    /// the original describing its own run.
    #[test]
    fn cloned_memo_replays_independently() {
        let g = forked(&[10, 40, 25, 30, 35, 20, 15], 400);
        let p = Platform::paper(3).unwrap();
        let slicer = Slicer::bst_norm();
        let mut original = SliceMemo::new();
        slicer.redistribute(&g, &p, &mut original).unwrap();
        let mut clone = original.clone();

        let step = |graph: &TaskGraph, node: u32, wcet: i64| {
            let delta = GraphDelta::new().set_wcet(SubtaskId::new(node), Time::new(wcet));
            delta.apply(graph, &Pinning::new()).unwrap().graph
        };
        let g1 = step(&g, 1, 32);
        let from_clone = slicer.redistribute(&g1, &p, &mut clone).unwrap();
        let from_original = slicer.redistribute(&g1, &p, &mut original).unwrap();
        assert_eq!(from_clone.assignment, from_original.assignment);
        assert_eq!(from_clone.stats, from_original.stats);
        assert!(!from_clone.stats.fell_back);

        let g2 = step(&g1, 4, 28);
        let chained = slicer.redistribute(&g2, &p, &mut clone).unwrap();
        assert_eq!(chained.assignment, slicer.distribute(&g2, &p).unwrap());

        // The original still describes `g1`: replaying it is a full hit.
        let replay = slicer.redistribute(&g1, &p, &mut original).unwrap();
        assert_eq!(replay.assignment, from_original.assignment);
        assert_eq!(replay.stats.cache_misses, 0);
        assert_eq!(replay.stats.dirty_nodes, 0);
        assert!(replay.stats.cache_hits > 0);
    }
}
