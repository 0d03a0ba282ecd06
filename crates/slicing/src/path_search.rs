//! Critical-path search (Step 3 of the basic algorithm, Figure 1).
//!
//! In each iteration the algorithm must find, among all *anchored* paths of
//! not-yet-assigned nodes, the one minimizing the metric's laxity ratio R. A
//! path is anchored when it starts at a node with a known release time and
//! ends at a node with a known (end-to-end) deadline; interior nodes must be
//! unanchored so that slices never contradict constraints imposed by
//! previously-assigned neighbours.
//!
//! Because R is a ratio, it does not decompose over edges; instead we run a
//! dynamic program over states `(node, path length)` tracking the maximum
//! (and, under the proportional share rule, the minimum) total virtual
//! execution time of any admissible path reaching the node with that
//! length. For a fixed window `D` and length `n`, R is monotone in the
//! total weight, so evaluating the extremes at every deadline-anchored
//! endpoint finds the exact minimum over all admissible paths. Under the
//! equal-share rule the maximum alone decides (see
//! [`search_from`](PathSearch::search_from)).
//!
//! The state space is `O(V · L)` (`L` = longest chain), but the search never
//! sweeps it: state slots carry a generation stamp (`epoch`), so starting a
//! new DP costs one counter increment instead of four `O(V · L)` array
//! fills, and each start only ever touches slots its paths actually reach.
//! Traversal is driven by a frontier bitset over topological positions —
//! one bit per node that holds at least one live state — taken in
//! ascending order, so a start's DP visits exactly the admissible nodes
//! reachable from it rather than every node times every chain length.
//! Relaxations happen in the same order as a full topological sweep, which
//! keeps results bit-identical to the naive DP (asserted by the
//! `reference` equivalence suite below).
//!
//! The node classes the DP reads (which nodes a path may enter, which it
//! may end at) are kept per node by [`classify`](PathSearch::classify); the
//! slicing loop refreshes only the nodes its last slice touched.

use taskgraph::Time;

use crate::expanded::ExpandedGraph;
use crate::ShareRule;

/// A critical path chosen by the search.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CriticalPath {
    /// Expanded-graph node indices from start to end.
    pub nodes: Vec<usize>,
    /// The metric score R of the path (lower = more critical).
    pub score: f64,
    /// The release anchor of the start node.
    pub window_start: Time,
    /// The deadline anchor of the end node.
    pub window_end: Time,
}

/// The local winner of one per-start search: its score and window, plus
/// where its path ends so the DP's parent links can walk it back. The walk
/// reads scratch that the next search overwrites, so callers take the path
/// ([`PathSearch::path_into`]) first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Winner {
    end: u32,
    /// The number of nodes on the path.
    pub len: u32,
    use_max: bool,
    /// The metric score R of the path (lower = more critical).
    pub score: f64,
    /// The release anchor of the start node.
    pub window_start: Time,
    /// The deadline anchor of the end node.
    pub window_end: Time,
}

const NO_PARENT: u32 = u32::MAX;

/// Sets or clears node `v` in a bitset (one bit per node).
#[inline]
pub(crate) fn set_bit(bits: &mut [u64], v: usize, on: bool) {
    let bit = 1u64 << (v & 63);
    if on {
        bits[v >> 6] |= bit;
    } else {
        bits[v >> 6] &= !bit;
    }
}

/// The set bits of a bitset, ascending.
pub(crate) fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let b = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (b < 64).then_some(w * 64 + b)
        })
    })
}

/// One DP state slot: extremes of total virtual time over admissible paths
/// reaching `(node, length)`, their parent choices, and the generation that
/// last wrote the slot. Interleaved so one cache line serves the whole
/// relax-and-compare sequence. `wmin`/`pmin` stay stale under the
/// equal-share rule, which never scores them.
#[derive(Debug, Clone, Copy)]
struct State {
    wmax: f64,
    wmin: f64,
    pmax: u32,
    pmin: u32,
    stamp: u32,
}

const STALE: State = State {
    wmax: f64::NEG_INFINITY,
    wmin: f64::INFINITY,
    pmax: NO_PARENT,
    pmin: NO_PARENT,
    stamp: 0,
};

/// Scratch buffers reused across iterations of the slicing loop, and the
/// node classes the searches read.
#[derive(Debug, Clone)]
pub(crate) struct PathSearch {
    cols: usize,
    /// Current generation; a state slot or node marker is live iff its
    /// stamp equals this.
    epoch: u32,
    /// `(node, length)` DP slots, row-major by node.
    states: Vec<State>,
    /// Per-node liveness stamp: the node holds ≥ 1 live state.
    node_stamp: Vec<u32>,
    /// Live length range per node (valid when `node_stamp` matches).
    kmin: Vec<u32>,
    kmax: Vec<u32>,
    /// Topological positions of live, not-yet-processed nodes (bitset).
    frontier: Vec<u64>,
    /// Per node: a path may enter it (see [`classify`](Self::classify)).
    can_enter: Vec<bool>,
    /// The nodes a path may end at (bitset).
    endpoints: Vec<u64>,
}

impl PathSearch {
    /// Creates scratch space for a graph of `nodes` nodes and longest chain
    /// `max_chain`, with every node unclassified (no path may enter or end
    /// at it).
    pub(crate) fn new(nodes: usize, max_chain: usize) -> Self {
        let cols = max_chain + 1;
        PathSearch {
            cols,
            epoch: 0,
            states: vec![STALE; nodes * cols],
            node_stamp: vec![0; nodes],
            kmin: vec![0; nodes],
            kmax: vec![0; nodes],
            frontier: vec![0; nodes.div_ceil(64)],
            can_enter: vec![false; nodes],
            endpoints: vec![0; nodes.div_ceil(64)],
        }
    }

    /// Starts a new generation; on (absurdly unlikely) wrap-around, resets
    /// every stamp so stale slots cannot alias the new generation.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            for st in &mut self.states {
                st.stamp = 0;
            }
            for s in &mut self.node_stamp {
                *s = 0;
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.epoch
    }

    /// Classifies node `v` for the current `assigned`/`rel`/`dl` state:
    /// paths may *enter* it only when it is unassigned and not
    /// release-anchored (a slice entering an anchored node from elsewhere
    /// could start before the anchor and violate an already-assigned
    /// predecessor's deadline), and may *end* at it when it is unassigned
    /// and deadline-anchored. Returns whether searches *start* at it:
    /// unassigned and release-anchored.
    pub(crate) fn classify(
        &mut self,
        v: usize,
        assigned: &[bool],
        rel: &[Option<Time>],
        dl: &[Option<Time>],
    ) -> bool {
        let open = !assigned[v];
        self.can_enter[v] = open && rel[v].is_none();
        set_bit(&mut self.endpoints, v, open && dl[v].is_some());
        open && rel[v].is_some()
    }

    /// Runs the DP from one release-anchored start `s` and returns the best
    /// candidate path it can reach, or `None` if no endpoint is reachable.
    /// Take the winner's path before the next search.
    ///
    /// Every node must be [classified](Self::classify) for the current
    /// `assigned`/`rel`/`dl` state first. Within a start, candidates are
    /// evaluated in a fixed order with a strict `<`, so the local winner is
    /// the first candidate attaining the local minimum — composing local
    /// winners across ascending starts with the same strict `<` reproduces
    /// the global sweep exactly.
    ///
    /// Under [`ShareRule::EqualShare`] only the heaviest path per
    /// `(endpoint, length)` is tracked and scored. At one endpoint `t` and
    /// length `k` both extremes share the window `W`, so with
    /// `wmin <= wmax` the slacks satisfy `fl(W − wmin) >= fl(W − wmax)`
    /// (IEEE subtraction rounds monotonically) and, dividing by the same
    /// positive `k`, `score(wmin) >= score(wmax)`. Were both scored, `wmax`
    /// first with a strict `<`, then whenever `wmin` beat the best so far
    /// `wmax` would already have, and `wmin` cannot beat `wmax`. So `wmin`
    /// never wins, and leaving it out changes no winner.
    ///
    /// Every node whose *mutable per-iteration state* the search reads (the
    /// start, every visited node, every examined successor) is marked in the
    /// caller's `dep` bitset (one bit per expanded node; existing bits are
    /// kept). A result from this start stays valid, in a later iteration or
    /// a later run, as long as none of those nodes' state changed: unreached
    /// nodes beyond the recorded boundary cannot influence the search
    /// without some boundary node's `can_enter`/anchor state changing
    /// first, and that boundary node is in the set.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn search_from(
        &mut self,
        exp: &ExpandedGraph,
        vweights: &[f64],
        dl: &[Option<Time>],
        s: usize,
        start_release: Time,
        rule: ShareRule,
        dep: &mut [u64],
    ) -> Option<Winner> {
        let cols = self.cols;
        let track_min = rule == ShareRule::Proportional;
        let epoch = self.next_epoch();
        let mut best: Option<Winner> = None;
        set_bit(dep, s, true);

        // Seed the single-node path (s, length 1).
        self.states[s * cols + 1] = State {
            wmax: vweights[s],
            wmin: vweights[s],
            pmax: NO_PARENT,
            pmin: NO_PARENT,
            stamp: epoch,
        };
        self.node_stamp[s] = epoch;
        self.kmin[s] = 1;
        self.kmax[s] = 1;
        debug_assert!(self.frontier.iter().all(|&w| w == 0));
        let mut word = exp.topo_pos(s) as usize >> 6;
        set_bit(&mut self.frontier, exp.topo_pos(s) as usize, true);

        // Process live nodes in topological order. Every node on the
        // frontier already satisfies the interior admissibility rules
        // (it is the start, or it was entered through `can_enter`), so
        // it may extend iff it is not deadline-anchored. Arcs only point
        // forward in topological order, so every push lands past the
        // position just taken.
        while word < self.frontier.len() {
            let bits = self.frontier[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            self.frontier[word] = bits & (bits - 1);
            let pos = word * 64 + bits.trailing_zeros() as usize;
            let u = exp.topo()[pos] as usize;
            set_bit(dep, u, true);
            // Paths cannot exceed the longest chain.
            let lo = self.kmin[u];
            if dl[u].is_some() || lo as usize + 1 >= cols {
                continue;
            }
            let hi = self.kmax[u].min((cols - 2) as u32);
            for &z in exp.succ(u) {
                let z = z as usize;
                set_bit(dep, z, true);
                if !self.can_enter[z] {
                    continue;
                }
                for k in lo..=hi {
                    let st = self.states[u * cols + k as usize];
                    if st.stamp != epoch {
                        continue;
                    }
                    let zst = &mut self.states[z * cols + k as usize + 1];
                    if zst.stamp != epoch {
                        *zst = State {
                            stamp: epoch,
                            ..STALE
                        };
                    }
                    let cand_max = st.wmax + vweights[z];
                    if cand_max > zst.wmax {
                        zst.wmax = cand_max;
                        zst.pmax = u as u32;
                    }
                    if track_min {
                        let cand_min = st.wmin + vweights[z];
                        if cand_min < zst.wmin {
                            zst.wmin = cand_min;
                            zst.pmin = u as u32;
                        }
                    }
                    if self.node_stamp[z] != epoch {
                        // First live state: z joins the frontier.
                        self.node_stamp[z] = epoch;
                        self.kmin[z] = k + 1;
                        self.kmax[z] = k + 1;
                        set_bit(&mut self.frontier, exp.topo_pos(z) as usize, true);
                    } else {
                        self.kmin[z] = self.kmin[z].min(k + 1);
                        self.kmax[z] = self.kmax[z].max(k + 1);
                    }
                }
            }
        }

        // Evaluate every deadline-anchored endpoint this start reached, in
        // ascending node order. Reached endpoints were visited above and
        // are therefore already in the dependency set; unreached ones only
        // have their (stale) stamp read, which is not part of the mutable
        // slicing state.
        for t in ones(&self.endpoints) {
            if self.node_stamp[t] != epoch {
                continue;
            }
            let window_end = dl[t].expect("endpoint is deadline-anchored");
            let window = window_end - start_release;
            for k in self.kmin[t]..=self.kmax[t] {
                let st = self.states[t * cols + k as usize];
                if st.stamp != epoch {
                    continue;
                }
                let extremes = [(st.wmax, true), (st.wmin, false)];
                for (total, use_max) in &extremes[..1 + track_min as usize] {
                    let score = rule.score(window, *total, k as usize);
                    if best.as_ref().is_none_or(|b| score < b.score) {
                        best = Some(Winner {
                            end: t as u32,
                            len: k,
                            use_max: *use_max,
                            score,
                            window_start: start_release,
                            window_end,
                        });
                    }
                }
            }
        }

        best
    }

    /// Writes the last search's winner path, start to end, to the first
    /// `w.len` slots of `out`, walking the parent links back from its end.
    pub(crate) fn path_into(&self, w: &Winner, out: &mut [u32]) {
        let mut v = w.end as usize;
        for k in (1..=w.len as usize).rev() {
            out[k - 1] = v as u32;
            if k > 1 {
                let st = &self.states[v * self.cols + k];
                let p = if w.use_max { st.pmax } else { st.pmin };
                debug_assert_ne!(p, NO_PARENT, "state must have a parent");
                v = p as usize;
            }
        }
    }
}

#[cfg(test)]
impl PathSearch {
    /// The node classes, for comparison against a from-scratch
    /// classification.
    pub(crate) fn classes(&self) -> (&[bool], &[u64]) {
        (&self.can_enter, &self.endpoints)
    }

    /// Finds the admissible path minimizing `rule`'s score, or `None` if no
    /// anchored path exists.
    ///
    /// `vweights` are per-node virtual execution times; `assigned` marks
    /// nodes already sliced; `rel`/`dl` are the accumulated release/deadline
    /// anchors.
    ///
    /// Reclassifies every node, then runs one
    /// [`search_from`](Self::search_from) per release-anchored start,
    /// composed with a strict `<` over ascending starts — the evaluation
    /// order of the original monolithic sweep, so the winner (the first
    /// candidate attaining the global minimum) is bit-identical. The
    /// slicing loop composes the same per-start winners itself, reusing
    /// starts whose recorded read set is untouched; this whole-iteration
    /// form is the test oracles' view of one search.
    pub(crate) fn find_critical_path(
        &mut self,
        exp: &ExpandedGraph,
        vweights: &[f64],
        assigned: &[bool],
        rel: &[Option<Time>],
        dl: &[Option<Time>],
        rule: ShareRule,
    ) -> Option<CriticalPath> {
        let n = exp.len();
        let starts: Vec<usize> = (0..n)
            .filter(|&v| self.classify(v, assigned, rel, dl))
            .collect();
        let mut best: Option<CriticalPath> = None;
        let mut dep = vec![0u64; n.div_ceil(64)];
        for s in starts {
            let start_release = rel[s].expect("starts are release-anchored");
            if let Some(w) = self.search_from(exp, vweights, dl, s, start_release, rule, &mut dep) {
                if best.as_ref().is_none_or(|b| w.score < b.score) {
                    best = Some(self.critical_path(&w));
                }
            }
        }
        best
    }

    /// The last search's winner as an owned [`CriticalPath`].
    fn critical_path(&self, w: &Winner) -> CriticalPath {
        let mut nodes = vec![0u32; w.len as usize];
        self.path_into(w, &mut nodes);
        CriticalPath {
            nodes: nodes.into_iter().map(|v| v as usize).collect(),
            score: w.score,
            window_start: w.window_start,
            window_end: w.window_end,
        }
    }
}

/// The original quadratic-sweep DP, kept verbatim as the behavioural oracle
/// for the optimized search: the proptest suite below asserts both return
/// identical critical paths across random graphs and anchor patterns.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Naive search: four full `O(V · L)` array fills and a whole-graph
    /// topological sweep per start node.
    #[derive(Debug)]
    pub(crate) struct ReferencePathSearch {
        cols: usize,
        wmax: Vec<f64>,
        wmin: Vec<f64>,
        pmax: Vec<u32>,
        pmin: Vec<u32>,
    }

    impl ReferencePathSearch {
        pub(crate) fn new(nodes: usize, max_chain: usize) -> Self {
            let cols = max_chain + 1;
            ReferencePathSearch {
                cols,
                wmax: vec![f64::NEG_INFINITY; nodes * cols],
                wmin: vec![f64::INFINITY; nodes * cols],
                pmax: vec![NO_PARENT; nodes * cols],
                pmin: vec![NO_PARENT; nodes * cols],
            }
        }

        pub(crate) fn find_critical_path(
            &mut self,
            exp: &ExpandedGraph,
            vweights: &[f64],
            assigned: &[bool],
            rel: &[Option<Time>],
            dl: &[Option<Time>],
            rule: ShareRule,
        ) -> Option<CriticalPath> {
            let n = exp.len();
            let cols = self.cols;
            let mut best: Option<CriticalPath> = None;

            for s in 0..n {
                if assigned[s] || rel[s].is_none() {
                    continue;
                }
                let start_release = rel[s].expect("checked above");

                // Reset only the states we may touch: all of them.
                self.wmax.fill(f64::NEG_INFINITY);
                self.wmin.fill(f64::INFINITY);
                self.pmax.fill(NO_PARENT);
                self.pmin.fill(NO_PARENT);
                self.wmax[s * cols + 1] = vweights[s];
                self.wmin[s * cols + 1] = vweights[s];

                for &u in exp.topo() {
                    let u = u as usize;
                    if assigned[u] {
                        continue;
                    }
                    let extendable = if u == s {
                        dl[s].is_none()
                    } else {
                        rel[u].is_none() && dl[u].is_none()
                    };
                    if !extendable {
                        continue;
                    }
                    for k in 1..cols {
                        let idx = u * cols + k;
                        let wmax_u = self.wmax[idx];
                        let wmin_u = self.wmin[idx];
                        if wmax_u == f64::NEG_INFINITY && wmin_u == f64::INFINITY {
                            continue;
                        }
                        if k + 1 >= cols {
                            continue;
                        }
                        for &z in exp.succ(u) {
                            let z = z as usize;
                            if assigned[z] || rel[z].is_some() {
                                continue;
                            }
                            let zidx = z * cols + k + 1;
                            let cand_max = wmax_u + vweights[z];
                            if cand_max > self.wmax[zidx] {
                                self.wmax[zidx] = cand_max;
                                self.pmax[zidx] = u as u32;
                            }
                            let cand_min = wmin_u + vweights[z];
                            if cand_min < self.wmin[zidx] {
                                self.wmin[zidx] = cand_min;
                                self.pmin[zidx] = u as u32;
                            }
                        }
                    }
                }

                for t in 0..n {
                    if assigned[t] || dl[t].is_none() {
                        continue;
                    }
                    let window_end = dl[t].expect("checked above");
                    let window = window_end - start_release;
                    for k in 1..cols {
                        let idx = t * cols + k;
                        for (total, use_max) in [(self.wmax[idx], true), (self.wmin[idx], false)] {
                            if !total.is_finite() {
                                continue;
                            }
                            let score = rule.score(window, total, k);
                            if best.as_ref().is_none_or(|b| score < b.score) {
                                let nodes = self.reconstruct(t, k, use_max);
                                best = Some(CriticalPath {
                                    nodes,
                                    score,
                                    window_start: start_release,
                                    window_end,
                                });
                            }
                        }
                    }
                }
            }

            best
        }

        fn reconstruct(&self, end: usize, len: usize, use_max: bool) -> Vec<usize> {
            let parents = if use_max { &self.pmax } else { &self.pmin };
            let mut nodes = Vec::with_capacity(len);
            let mut v = end;
            let mut k = len;
            loop {
                nodes.push(v);
                if k == 1 {
                    break;
                }
                let p = parents[v * self.cols + k];
                debug_assert_ne!(p, NO_PARENT, "state must have a parent");
                v = p as usize;
                k -= 1;
            }
            nodes.reverse();
            nodes
        }
    }
}

#[cfg(test)]
mod equivalence {
    //! The optimized search against the [`reference`] oracle: identical
    //! critical paths (same score, same window, same node sequence) across
    //! random DAGs, random anchor/assignment patterns, both communication
    //! estimates and both share rules.

    use platform::Platform;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use taskgraph::{Subtask, TaskGraph, Time};

    use super::reference::ReferencePathSearch;
    use super::PathSearch;
    use crate::expanded::ExpandedGraph;
    use crate::{CommEstimate, ShareRule};

    /// A random DAG: edges only point from lower to higher node index, so
    /// acyclicity is structural. The edge set is drawn first so that input
    /// subtasks can be given the release and output subtasks the deadline
    /// the builder requires; interior nodes carry anchors at random, as
    /// generated workloads do.
    fn random_graph(rng: &mut StdRng, n: usize, density: f64) -> TaskGraph {
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        let mut has_pred = vec![false; n];
        let mut has_succ = vec![false; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(density) {
                    edges.push((i, j, rng.gen_range(1..=20)));
                    has_succ[i] = true;
                    has_pred[j] = true;
                }
            }
        }

        let mut b = TaskGraph::builder();
        let ids: Vec<_> = (0..n)
            .map(|v| {
                let mut s = Subtask::new(Time::new(rng.gen_range(1..=50)));
                if !has_pred[v] || rng.gen_bool(0.4) {
                    s = s.released_at(Time::new(rng.gen_range(0..=30)));
                }
                if !has_succ[v] || rng.gen_bool(0.4) {
                    s = s.due_at(Time::new(rng.gen_range(40..=400)));
                }
                b.add_subtask(s)
            })
            .collect();
        for (i, j, items) in edges {
            b.add_edge(ids[i], ids[j], items)
                .expect("forward edges cannot cycle or duplicate");
        }
        b.build()
            .expect("non-empty graph with anchored inputs/outputs")
    }

    proptest! {
        // Honours `PROPTEST_CASES` (the CI deep step scales it up).
        #![proptest_config(ProptestConfig::default())]

        #[test]
        fn optimized_search_matches_reference(
            seed in 0u64..u64::MAX,
            n in 1usize..=14,
            density in 0.0f64..0.7,
            ccaa in proptest::bool::ANY,
            proportional in proptest::bool::ANY,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = random_graph(&mut rng, n, density);
            let platform = Platform::paper(2).expect("valid platform");
            let estimate = if ccaa { CommEstimate::Ccaa } else { CommEstimate::Ccne };
            let rule = if proportional {
                ShareRule::Proportional
            } else {
                ShareRule::EqualShare
            };
            let exp = ExpandedGraph::estimated(&graph, &estimate, &platform);
            let en = exp.len();

            // Random anchor/assignment pattern over the *expanded* nodes,
            // layered on top of the graph's own anchors — mirrors the
            // accumulated state of a mid-flight slicing loop.
            let mut assigned = vec![false; en];
            let mut rel: Vec<Option<Time>> = vec![None; en];
            let mut dl: Vec<Option<Time>> = vec![None; en];
            for id in graph.subtask_ids() {
                rel[exp.task_node(id)] = graph.subtask(id).release();
                dl[exp.task_node(id)] = graph.subtask(id).deadline();
            }
            for v in 0..en {
                if rng.gen_bool(0.2) {
                    assigned[v] = true;
                }
                if rng.gen_bool(0.25) {
                    rel[v] = Some(Time::new(rng.gen_range(0..=60)));
                }
                if rng.gen_bool(0.25) {
                    dl[v] = Some(Time::new(rng.gen_range(20..=500)));
                }
            }
            let vweights: Vec<f64> = (0..en).map(|_| rng.gen_range(0.5f64..50.0)).collect();

            let mut optimized = PathSearch::new(en, exp.max_chain());
            let mut naive = ReferencePathSearch::new(en, exp.max_chain());
            let fast = optimized.find_critical_path(&exp, &vweights, &assigned, &rel, &dl, rule);
            let slow = naive.find_critical_path(&exp, &vweights, &assigned, &rel, &dl, rule);
            prop_assert_eq!(&fast, &slow);

            // When a path exists, re-deriving its score from the returned
            // nodes must reproduce it: the path really scores what the DP
            // claims (an "equally-scoring path", independently of parents).
            if let Some(cp) = &fast {
                let total: f64 = cp.nodes.iter().map(|&v| vweights[v]).sum();
                let window = cp.window_end - cp.window_start;
                let rescored = rule.score(window, total, cp.nodes.len());
                prop_assert!(
                    (rescored - cp.score).abs() < 1e-9,
                    "path rescoring drifted: {} vs {}",
                    rescored,
                    cp.score
                );
            }

            // The scratch state must be reusable: a second run over the same
            // inputs sees only epoch-stamped slots, never stale data.
            let again = optimized.find_critical_path(&exp, &vweights, &assigned, &rel, &dl, rule);
            prop_assert_eq!(&again, &slow);
        }
    }
}

#[cfg(test)]
mod tests {
    use platform::Platform;
    use taskgraph::{Subtask, SubtaskId, TaskGraph};

    use super::*;
    use crate::CommEstimate;

    /// The real execution times in expanded-node order (PURE's virtual
    /// times), for graphs with transparent messages.
    fn weights(g: &TaskGraph) -> Vec<f64> {
        let p = Platform::paper(2).unwrap();
        crate::Slicer::bst_pure().inputs(g, &p).vweights
    }

    /// Diamond a -> {b, c} -> d with distinct weights.
    fn diamond(wb: i64, wc: i64) -> (TaskGraph, ExpandedGraph) {
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(Subtask::new(Time::new(10)).released_at(Time::ZERO));
        let x = b.add_subtask(Subtask::new(Time::new(wb)));
        let y = b.add_subtask(Subtask::new(Time::new(wc)));
        let d = b.add_subtask(Subtask::new(Time::new(10)).due_at(Time::new(200)));
        b.add_edge(a, x, 1).unwrap();
        b.add_edge(a, y, 1).unwrap();
        b.add_edge(x, d, 1).unwrap();
        b.add_edge(y, d, 1).unwrap();
        let g = b.build().unwrap();
        let p = Platform::paper(2).unwrap();
        let exp = ExpandedGraph::estimated(&g, &CommEstimate::Ccne, &p);
        (g, exp)
    }

    fn anchors(
        g: &TaskGraph,
        exp: &ExpandedGraph,
    ) -> (Vec<bool>, Vec<Option<Time>>, Vec<Option<Time>>) {
        let n = exp.len();
        let mut rel = vec![None; n];
        let mut dl = vec![None; n];
        for id in g.subtask_ids() {
            rel[exp.task_node(id)] = g.subtask(id).release();
            dl[exp.task_node(id)] = g.subtask(id).deadline();
        }
        (vec![false; n], rel, dl)
    }

    #[test]
    fn picks_heavier_branch_under_equal_share() {
        let (g, exp) = diamond(60, 20);
        let (assigned, rel, dl) = anchors(&g, &exp);
        let w = weights(&g);
        let mut search = PathSearch::new(exp.len(), exp.max_chain());
        let cp = search
            .find_critical_path(&exp, &w, &assigned, &rel, &dl, ShareRule::EqualShare)
            .expect("path exists");
        // Heavier branch (through x, weight 60) has less slack per node:
        // (200 - 80)/3 = 40 < (200 - 40)/3 ≈ 53.3.
        let heavy = exp.task_node(SubtaskId::new(1));
        assert!(
            cp.nodes.contains(&heavy),
            "expected heavy branch in {:?}",
            cp.nodes
        );
        assert_eq!(cp.nodes.len(), 3);
        assert!((cp.score - 40.0).abs() < 1e-9);
        assert_eq!(cp.window_start, Time::ZERO);
        assert_eq!(cp.window_end, Time::new(200));
    }

    #[test]
    fn proportional_rule_prefers_heavy_paths_too() {
        let (g, exp) = diamond(60, 20);
        let (assigned, rel, dl) = anchors(&g, &exp);
        let w = weights(&g);
        let mut search = PathSearch::new(exp.len(), exp.max_chain());
        let cp = search
            .find_critical_path(&exp, &w, &assigned, &rel, &dl, ShareRule::Proportional)
            .expect("path exists");
        // R = (200-80)/80 = 1.5 on the heavy path, (200-40)/40 = 4 on light.
        assert!((cp.score - 1.5).abs() < 1e-9);
    }

    #[test]
    fn respects_assigned_and_anchored_nodes() {
        let (g, exp) = diamond(60, 20);
        let (mut assigned, mut rel, mut dl) = anchors(&g, &exp);
        let heavy = exp.task_node(SubtaskId::new(1));
        // Pretend the heavy branch was already sliced with window [10, 150].
        assigned[heavy] = true;
        let a = exp.task_node(SubtaskId::new(0));
        let d = exp.task_node(SubtaskId::new(3));
        dl[a] = Some(Time::new(10));
        rel[d] = Some(Time::new(150));
        let w = weights(&g);
        let mut search = PathSearch::new(exp.len(), exp.max_chain());
        let cp = search
            .find_critical_path(&exp, &w, &assigned, &rel, &dl, ShareRule::EqualShare)
            .expect("path exists");
        assert!(!cp.nodes.contains(&heavy));
        // `a` is now deadline-anchored: it can only be a 1-node path; `d` is
        // release-anchored: only a start. The light branch node is
        // unanchored, so no admissible path contains it yet — the best must
        // be a single-node path (`a` with window [0,10] scoring (10-10)/1=0,
        // or `d` with window [150,200] scoring 40).
        assert_eq!(cp.nodes.len(), 1);
        assert_eq!(cp.nodes[0], a);
        assert!((cp.score - 0.0).abs() < 1e-9);
    }

    #[test]
    fn single_node_graph_is_its_own_path() {
        let mut b = TaskGraph::builder();
        b.add_subtask(
            Subtask::new(Time::new(5))
                .released_at(Time::new(3))
                .due_at(Time::new(30)),
        );
        let g = b.build().unwrap();
        let p = Platform::paper(2).unwrap();
        let exp = ExpandedGraph::estimated(&g, &CommEstimate::Ccne, &p);
        let (assigned, rel, dl) = anchors(&g, &exp);
        let w = vec![5.0];
        let mut search = PathSearch::new(exp.len(), exp.max_chain());
        let cp = search
            .find_critical_path(&exp, &w, &assigned, &rel, &dl, ShareRule::EqualShare)
            .unwrap();
        assert_eq!(cp.nodes, vec![0]);
        assert!((cp.score - 22.0).abs() < 1e-9); // (27 - 5)/1
        assert_eq!(cp.window_start, Time::new(3));
    }

    #[test]
    fn no_candidates_returns_none() {
        let (g, exp) = diamond(10, 10);
        let (mut assigned, rel, dl) = anchors(&g, &exp);
        for a in assigned.iter_mut() {
            *a = true;
        }
        let w: Vec<f64> = vec![1.0; exp.len()];
        let mut search = PathSearch::new(exp.len(), exp.max_chain());
        assert!(search
            .find_critical_path(&exp, &w, &assigned, &rel, &dl, ShareRule::EqualShare)
            .is_none());
    }

    #[test]
    fn scratch_state_is_reusable_across_searches() {
        // The same PathSearch must give identical answers when reused: the
        // epoch stamps must fully isolate consecutive searches.
        let (g, exp) = diamond(60, 20);
        let (assigned, rel, dl) = anchors(&g, &exp);
        let w = weights(&g);
        let mut search = PathSearch::new(exp.len(), exp.max_chain());
        let first = search
            .find_critical_path(&exp, &w, &assigned, &rel, &dl, ShareRule::EqualShare)
            .unwrap();
        for _ in 0..3 {
            let again = search
                .find_critical_path(&exp, &w, &assigned, &rel, &dl, ShareRule::EqualShare)
                .unwrap();
            assert_eq!(first, again);
        }
    }
}
