//! The basic deadline-assignment algorithm (Figure 1 of the paper).
//!
//! ```text
//! 1.  initialize set Π with all subtasks in the task graph;
//! 2.  while Π ≠ ∅ loop
//! 3.    find a critical path Φ in Π that minimizes metric R;
//! 4.    distribute the end-to-end deadline of Φ by assigning
//!       release times and deadlines to the subtasks in Φ;
//! 5-12. attach the remaining subtasks: predecessors of spine nodes
//!       inherit deadlines, successors inherit release times;
//! 13.   remove all subtasks in Φ from Π;
//! 14. end loop
//! ```
//!
//! Communication subtasks participate whenever their estimated cost is
//! non-negligible, which is what lets the algorithm run *before* task
//! assignment (relaxed locality constraints).

use std::fmt;

use platform::Platform;
use taskgraph::{TaskGraph, Time};

use crate::expanded::{ExpKind, ExpandedGraph};
use crate::path_search::CriticalPath;
use crate::{
    CommEstimate, DeadlineAssignment, MetricKind, ShareRule, SliceError, SliceInputs, SliceMetric,
    Thres, Window,
};

/// The deadline-distribution engine: a metric plus a communication-cost
/// estimation strategy.
///
/// Use the convenience constructors for the paper's configurations:
///
/// * [`Slicer::bst_norm`] / [`Slicer::bst_pure`] — the Basic Slicing
///   Technique metrics of Di Natale & Stankovic evaluated in §6;
/// * [`Slicer::ast_thres`] / [`Slicer::ast_adapt`] — the Adaptive Slicing
///   Technique of §7 (always CCNE, per the paper's design decision).
///
/// # Examples
///
/// ```
/// use platform::Platform;
/// use rand::SeedableRng;
/// use slicing::Slicer;
/// use taskgraph::gen::{generate, ExecVariation, WorkloadSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = WorkloadSpec::paper(ExecVariation::Mdet);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let graph = generate(&spec, &mut rng)?;
/// let platform = Platform::paper(4)?;
///
/// let assignment = Slicer::ast_adapt().distribute(&graph, &platform)?;
/// assert!(assignment.validate(&graph).is_ok());
/// # Ok(())
/// # }
/// ```
pub struct Slicer {
    metric: Box<dyn SliceMetric + Send + Sync>,
    estimate: CommEstimate,
    strict_windows: bool,
}

impl fmt::Debug for Slicer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slicer")
            .field("metric", &self.metric.name())
            .field("estimate", &self.estimate.label())
            .field("strict_windows", &self.strict_windows)
            .finish()
    }
}

impl Slicer {
    /// Creates a slicer with a custom metric and the CCNE estimation
    /// strategy.
    pub fn new(metric: impl SliceMetric + Send + Sync + 'static) -> Self {
        Slicer {
            metric: Box::new(metric),
            estimate: CommEstimate::Ccne,
            strict_windows: false,
        }
    }

    /// Replaces the communication-cost estimation strategy.
    #[must_use]
    pub fn with_estimate(mut self, estimate: CommEstimate) -> Self {
        self.estimate = estimate;
        self
    }

    /// Enables a final clamp that tightens every deadline to its successors'
    /// assigned releases, in one reverse-topological pass.
    ///
    /// The paper's algorithm slices each critical path against the path's
    /// *endpoint* anchors only; release/deadline anchors inherited by
    /// *interior* nodes from previously sliced spines are used for path
    /// selection but not re-checked during slicing, so skewed weightings
    /// (NORM/THRES/ADAPT) can leave a producer's deadline marginally past a
    /// consumer's release (an `EdgeOrdering` violation that
    /// [`DeadlineAssignment::validate`] reports). The clamp repairs every
    /// such edge; deadlines only shrink, so feasible schedules stay
    /// feasible, but windows (and therefore measured lateness) change for
    /// the affected cells — which is why it is off by default and the
    /// published figures are reproduced without it.
    ///
    /// On an *inverted* (overconstrained) instance the clamp can shrink a
    /// window to zero width and, for anchored inputs, below the given
    /// release; the residual violation is then reported by `validate` as
    /// usual.
    #[must_use]
    pub fn with_strict_windows(mut self, strict: bool) -> Self {
        self.strict_windows = strict;
        self
    }

    /// BST with the NORM metric (§6).
    pub fn bst_norm() -> Self {
        Slicer::new(MetricKind::Norm)
    }

    /// BST with the PURE metric (§6).
    pub fn bst_pure() -> Self {
        Slicer::new(MetricKind::Pure)
    }

    /// AST with the THRES metric (§7): surplus factor Δ, threshold 1.25 ×
    /// MET, CCNE estimation.
    pub fn ast_thres(surplus: f64) -> Self {
        Slicer::new(MetricKind::Thres {
            surplus,
            threshold: crate::ThresholdSpec::PAPER,
        })
    }

    /// AST with the THRES metric and an explicit threshold.
    pub fn ast_thres_with(thres: Thres) -> Self {
        Slicer::new(thres)
    }

    /// AST with the ADAPT metric (§7): surplus ξ/N_proc, threshold 1.25 ×
    /// MET, CCNE estimation.
    pub fn ast_adapt() -> Self {
        Slicer::new(MetricKind::adapt())
    }

    /// The metric's display name.
    pub fn metric_name(&self) -> &str {
        self.metric.name()
    }

    /// The estimation strategy's label.
    pub fn estimate_label(&self) -> &'static str {
        self.estimate.label()
    }

    /// The metric, for the slicing loop and its inputs.
    pub(crate) fn metric(&self) -> &(dyn SliceMetric + Send + Sync) {
        self.metric.as_ref()
    }

    /// The estimation strategy, for the slicing inputs.
    pub(crate) fn estimate(&self) -> &CommEstimate {
        &self.estimate
    }

    /// Whether the strict-window clamp is enabled.
    pub(crate) fn strict(&self) -> bool {
        self.strict_windows
    }

    /// Distributes end-to-end deadlines over all subtasks of `graph`,
    /// producing a window for every subtask and every non-negligible
    /// communication subtask.
    ///
    /// Each iteration of the loop carries over every per-start search the
    /// previous slice left untouched and searches only the rest.
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::NoAnchoredPath`] if the internal invariant that
    /// an anchored path always exists is violated (this would indicate a
    /// bug, not a property of the input).
    pub fn distribute(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Result<DeadlineAssignment, SliceError> {
        self.distribute_from(graph, &self.inputs(graph, platform))
    }

    /// [`distribute`](Slicer::distribute) from inputs already read for
    /// `graph` by this slicer's [`inputs`](Slicer::inputs): a caller that
    /// compares inputs (to share one assignment across platforms the loop
    /// cannot tell apart, or to key a cache) slices without reading them
    /// twice.
    ///
    /// # Panics
    ///
    /// May panic if `inputs` were read for a graph of another shape.
    ///
    /// # Errors
    ///
    /// Exactly those of [`distribute`](Slicer::distribute).
    pub fn distribute_from(
        &self,
        graph: &TaskGraph,
        inputs: &SliceInputs,
    ) -> Result<DeadlineAssignment, SliceError> {
        self.run(graph, inputs)
    }
}

/// Mutable per-run slicing state: which expanded nodes are sliced, the
/// accumulated release/deadline anchors, and the windows produced so far.
///
/// The slicing loop in [`crate::incremental`] advances it with
/// [`apply_path`] and turns it into an assignment with [`finalize`]; the
/// test-only reference loop below advances the *same* state with the
/// *same* transition function, so bit-identity between the two is a matter
/// of choosing identical critical paths.
#[derive(Debug, Clone)]
pub(crate) struct SliceState {
    pub(crate) assigned: Vec<bool>,
    pub(crate) rel: Vec<Option<Time>>,
    pub(crate) dl: Vec<Option<Time>>,
    pub(crate) windows: Vec<Option<Window>>,
    pub(crate) remaining: usize,
    pub(crate) inverted: usize,
}

impl SliceState {
    /// Fresh state for one run: anchors seeded from the graph's own
    /// release/deadline attributes, nothing sliced yet.
    pub(crate) fn init(graph: &TaskGraph, exp: &ExpandedGraph) -> SliceState {
        let n = exp.len();
        let mut rel: Vec<Option<Time>> = vec![None; n];
        let mut dl: Vec<Option<Time>> = vec![None; n];
        for id in graph.subtask_ids() {
            let v = exp.task_node(id);
            rel[v] = graph.subtask(id).release();
            dl[v] = graph.subtask(id).deadline();
        }
        SliceState {
            assigned: vec![false; n],
            rel,
            dl,
            windows: vec![None; n],
            remaining: n,
            inverted: 0,
        }
    }
}

/// Applies one chosen critical path to the slicing state: slices its window,
/// marks the spine assigned, and runs the attach step (spine predecessors
/// inherit deadlines, spine successors inherit release times; anchors
/// accumulate across iterations — max for releases, min for deadlines).
///
/// `path_weights` and `slices` are reusable scratch buffers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_path(
    exp: &ExpandedGraph,
    vweights: &[f64],
    rule: ShareRule,
    cp: &CriticalPath,
    state: &mut SliceState,
    path_weights: &mut Vec<f64>,
    slices: &mut Vec<Window>,
    path_no: usize,
) {
    path_weights.clear();
    path_weights.extend(cp.nodes.iter().map(|&v| vweights[v]));
    let was_inverted = slice_window(cp, path_weights, rule, slices);
    if was_inverted {
        state.inverted += 1;
    }
    tracing::trace!(
        path = path_no,
        len = cp.nodes.len(),
        window_start = %cp.window_start,
        window_end = %cp.window_end,
        slack = (cp.window_end.max(cp.window_start) - cp.window_start).as_f64()
            - path_weights.iter().sum::<f64>(),
        inverted = was_inverted,
        "sliced critical path"
    );

    for (&v, &win) in cp.nodes.iter().zip(slices.iter()) {
        debug_assert!(state.windows[v].is_none(), "node sliced twice");
        state.windows[v] = Some(win);
        state.assigned[v] = true;
        state.remaining -= 1;
    }

    for &v in &cp.nodes {
        let win = state.windows[v].expect("just assigned");
        for &p in exp.pred(v) {
            let p = p as usize;
            if !state.assigned[p] {
                let bound = win.release();
                state.dl[p] = Some(state.dl[p].map_or(bound, |d| d.min(bound)));
            }
        }
        for &s in exp.succ(v) {
            let s = s as usize;
            if !state.assigned[s] {
                let bound = win.deadline();
                state.rel[s] = Some(state.rel[s].map_or(bound, |r| r.max(bound)));
            }
        }
    }
}

/// Turns a fully-sliced state into a [`DeadlineAssignment`]: optional
/// strict-window clamp, then window collection in subtask/edge order.
pub(crate) fn finalize(
    slicer: &Slicer,
    graph: &TaskGraph,
    exp: &ExpandedGraph,
    mut state: SliceState,
) -> Result<DeadlineAssignment, SliceError> {
    let windows = &mut state.windows;
    if slicer.strict() {
        // Reverse-topological clamp: successors are finalized before any
        // of their predecessors, so one pass suffices even when a clamp
        // cascades through a chain of zero-slack windows.
        let mut clamped = 0usize;
        for &v in exp.topo().iter().rev() {
            let v = v as usize;
            let win = windows[v].expect("all expanded nodes are sliced");
            let mut bound = win.deadline();
            for &s in exp.succ(v) {
                let succ_release = windows[s as usize]
                    .expect("all expanded nodes are sliced")
                    .release();
                bound = bound.min(succ_release);
            }
            if bound < win.deadline() {
                clamped += 1;
                windows[v] = Some(Window::new(win.release().min(bound), bound));
            }
        }
        if clamped > 0 {
            tracing::debug!(clamped = clamped, "strict window clamp tightened deadlines");
        }
    }

    let mut task_windows = Vec::with_capacity(graph.subtask_count());
    for id in graph.subtask_ids() {
        task_windows.push(windows[exp.task_node(id)].ok_or(SliceError::NoAnchoredPath)?);
    }
    let mut comm_windows = Vec::with_capacity(graph.edge_count());
    for eid in graph.edge_ids() {
        comm_windows.push(match exp.comm_node(eid) {
            Some(v) => {
                debug_assert!(matches!(exp.kind(v), ExpKind::Comm(e) if e == eid));
                windows[v]
            }
            None => None,
        });
    }

    Ok(DeadlineAssignment::new(
        task_windows,
        comm_windows,
        state.inverted,
        slicer.metric_name().to_owned(),
        slicer.estimate_label().to_owned(),
    ))
}

/// Partitions the critical path's window into consecutive slices according
/// to the share rule, rounding to integer boundaries while preserving the
/// exact window and monotonicity. Fills `slices` (a reusable scratch
/// buffer, cleared first) and returns whether the window was inverted
/// (deadline anchor before release anchor) and clamped.
fn slice_window(
    cp: &CriticalPath,
    weights: &[f64],
    rule: ShareRule,
    slices: &mut Vec<Window>,
) -> bool {
    let w0 = cp.window_start;
    let inverted = cp.window_end < w0;
    let w1 = cp.window_end.max(w0);
    let window = w1 - w0;
    let total: f64 = weights.iter().sum();
    let score = rule.score(window, total, weights.len());

    slices.clear();
    slices.reserve(weights.len());
    let mut prev = w0;
    let mut acc = w0.as_f64();
    for (i, &w) in weights.iter().enumerate() {
        acc += rule.relative_deadline(w, score);
        let bound = if i + 1 == weights.len() {
            w1
        } else {
            Time::from_f64_rounded(acc).max(prev).min(w1)
        };
        slices.push(Window::new(prev, bound));
        prev = bound;
    }
    inverted
}

#[cfg(test)]
mod tests {
    use platform::Platform;
    use taskgraph::{Subtask, SubtaskId, TaskGraph};

    use super::*;
    use crate::MetricContext;

    /// A custom metric that inflates everything 2x.
    #[derive(Debug)]
    struct Doubler;

    impl crate::SliceMetric for Doubler {
        fn name(&self) -> &str {
            "DOUBLER"
        }
        fn virtual_time(&self, real: Time, _ctx: &MetricContext) -> f64 {
            real.as_f64() * 2.0
        }
        fn share_rule(&self) -> ShareRule {
            ShareRule::Proportional
        }
    }

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
    fn pure_assigns_equal_slack_on_a_chain() {
        let g = chain(&[10, 30, 20], 120);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        // Slack = 120 - 60 = 60, three nodes => 20 each.
        for (i, expected) in [(0, 30), (1, 50), (2, 40)] {
            assert_eq!(
                a.window(SubtaskId::new(i)).relative_deadline(),
                Time::new(expected)
            );
        }
        // Windows tile the end-to-end window exactly.
        assert_eq!(a.window(SubtaskId::new(0)).release(), Time::ZERO);
        assert_eq!(a.window(SubtaskId::new(2)).deadline(), Time::new(120));
        assert_eq!(
            a.window(SubtaskId::new(0)).deadline(),
            a.window(SubtaskId::new(1)).release()
        );
        assert!(a.validate(&g).is_ok());
        assert_eq!(a.metric_name(), "PURE");
        assert_eq!(a.estimate_name(), "CCNE");
        assert_eq!(a.inverted_paths(), 0);
        assert_eq!(a.min_laxity(&g), Time::new(20));
    }

    #[test]
    fn norm_assigns_proportional_slack_on_a_chain() {
        let g = chain(&[10, 30, 20], 120);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_norm().distribute(&g, &p).unwrap();
        // R = (120-60)/60 = 1 => d_i = 2 c_i.
        for (i, expected) in [(0, 20), (1, 60), (2, 40)] {
            assert_eq!(
                a.window(SubtaskId::new(i)).relative_deadline(),
                Time::new(expected)
            );
        }
        assert!(a.validate(&g).is_ok());
    }

    #[test]
    fn ccaa_gives_windows_to_messages() {
        let g = chain(&[10, 30], 200);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure()
            .with_estimate(CommEstimate::Ccaa)
            .distribute(&g, &p)
            .unwrap();
        let eid = g.edge_ids().next().unwrap();
        let chi = a.comm_window(eid).expect("CCAA materializes messages");
        // Slack = 200 - (10 + 10 + 30) = 150 over 3 nodes => 50 each.
        assert_eq!(chi.relative_deadline(), Time::new(60));
        assert_eq!(a.window(SubtaskId::new(0)).deadline(), chi.release());
        assert_eq!(chi.deadline(), a.window(SubtaskId::new(1)).release());
        assert!(a.validate(&g).is_ok());
    }

    #[test]
    fn ccne_messages_are_transparent() {
        let g = chain(&[10, 30], 200);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        assert!(a.comm_window(g.edge_ids().next().unwrap()).is_none());
    }

    #[test]
    fn diamond_distribution_is_structurally_sound() {
        // a -> {b(60), c(20)} -> d; heavy branch sliced first, light branch
        // attaches to the spine windows.
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(Subtask::new(Time::new(10)).released_at(Time::ZERO));
        let x = b.add_subtask(Subtask::new(Time::new(60)));
        let y = b.add_subtask(Subtask::new(Time::new(20)));
        let d = b.add_subtask(Subtask::new(Time::new(10)).due_at(Time::new(200)));
        b.add_edge(a, x, 1).unwrap();
        b.add_edge(a, y, 1).unwrap();
        b.add_edge(x, d, 1).unwrap();
        b.add_edge(y, d, 1).unwrap();
        let g = b.build().unwrap();
        let p = Platform::paper(2).unwrap();
        let asg = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let report = asg.validate(&g);
        assert!(report.is_ok(), "{report}");
        // The light branch lives inside the window left by the spine.
        let yw = asg.window(y);
        assert!(yw.release() >= asg.window(a).deadline());
        assert!(yw.deadline() <= asg.window(d).release());
    }

    #[test]
    fn adapt_gives_long_tasks_more_slack_on_small_systems() {
        let g = chain(&[10, 40, 10], 240); // MET = 20, threshold 25
        let small = Platform::paper(1).unwrap();
        let a = Slicer::ast_adapt().distribute(&g, &small).unwrap();
        let slack_long = a.laxity(&g, SubtaskId::new(1));
        let slack_short = a.laxity(&g, SubtaskId::new(0));
        assert!(
            slack_long > slack_short,
            "long {slack_long} vs short {slack_short}"
        );
        assert!(a.validate(&g).is_ok());
    }

    #[test]
    fn thres_matches_hand_computation() {
        // weights: 10, 40(1+1)=80, 10 => total 100; window 240 => R = 140/3.
        let g = chain(&[10, 40, 10], 240);
        let p = Platform::paper(4).unwrap();
        let a = Slicer::ast_thres(1.0).distribute(&g, &p).unwrap();
        let d0 = a.window(SubtaskId::new(0)).relative_deadline().as_i64();
        let d1 = a.window(SubtaskId::new(1)).relative_deadline().as_i64();
        let d2 = a.window(SubtaskId::new(2)).relative_deadline().as_i64();
        assert_eq!(d0 + d1 + d2, 240);
        // d0 ≈ 10 + 46.67 ≈ 57, d1 ≈ 80 + 46.67 ≈ 127, d2 rest.
        assert!((56..=58).contains(&d0), "d0={d0}");
        assert!((126..=128).contains(&d1), "d1={d1}");
    }

    #[test]
    fn threshold_metrics_degenerate_to_pure_when_threshold_unreachable() {
        // With an absolute threshold above every execution time, THRES and
        // ADAPT inflate nothing and must reproduce PURE exactly.
        let g = chain(&[10, 30, 20], 120);
        let p = Platform::paper(2).unwrap();
        let pure = Slicer::bst_pure().distribute(&g, &p).unwrap();
        for metric in [
            MetricKind::Thres {
                surplus: 3.0,
                threshold: crate::ThresholdSpec::Absolute(Time::new(1_000)),
            },
            MetricKind::Adapt {
                threshold: crate::ThresholdSpec::Absolute(Time::new(1_000)),
            },
        ] {
            let asg = Slicer::new(metric).distribute(&g, &p).unwrap();
            for id in g.subtask_ids() {
                assert_eq!(asg.window(id), pure.window(id), "{}", metric.label());
            }
        }
    }

    #[test]
    fn custom_metric_through_trait_object() {
        // Users can plug their own metric: one that inflates everything 2x
        // behaves like NORM (uniform inflation cancels in the proportional
        // share).
        let g = chain(&[10, 30, 20], 120);
        let p = Platform::paper(2).unwrap();
        let asg = Slicer::new(Doubler).distribute(&g, &p).unwrap();
        assert_eq!(asg.metric_name(), "DOUBLER");
        // Proportional over doubled weights == proportional over weights.
        let norm = Slicer::bst_norm().distribute(&g, &p).unwrap();
        for id in g.subtask_ids() {
            assert_eq!(asg.window(id), norm.window(id));
        }
    }

    #[test]
    fn slicer_debug_and_labels() {
        let s = Slicer::ast_adapt();
        let dbg = format!("{s:?}");
        assert!(dbg.contains("ADAPT") && dbg.contains("CCNE"));
        assert_eq!(s.metric_name(), "ADAPT");
        assert_eq!(Slicer::bst_norm().metric_name(), "NORM");
        assert_eq!(
            Slicer::bst_pure()
                .with_estimate(CommEstimate::Ccaa)
                .estimate_label(),
            "CCAA"
        );
        assert_eq!(Slicer::ast_thres(2.0).metric_name(), "THRES");
        assert_eq!(
            Slicer::ast_thres_with(Thres::paper()).metric_name(),
            "THRES"
        );
    }

    #[test]
    fn strict_windows_is_a_no_op_on_clean_assignments() {
        let g = chain(&[10, 30, 20], 120);
        let p = Platform::paper(2).unwrap();
        for metric in [MetricKind::Pure, MetricKind::Norm, MetricKind::adapt()] {
            let plain = Slicer::new(metric).distribute(&g, &p).unwrap();
            assert!(plain.validate(&g).is_ok());
            let strict = Slicer::new(metric)
                .with_strict_windows(true)
                .distribute(&g, &p)
                .unwrap();
            for id in g.subtask_ids() {
                assert_eq!(strict.window(id), plain.window(id), "{}", metric.label());
            }
        }
    }

    #[test]
    fn strict_windows_repairs_latent_edge_ordering_violations() {
        use rand::SeedableRng;
        use taskgraph::gen::{generate, ExecVariation, WorkloadSpec};

        // The skewed metrics leave a producer's deadline marginally past a
        // consumer's release on ≈1 % of paper workloads (EXPERIMENTS.md,
        // deviation 5), mostly at 2 processors. Scan enough seeds to hit
        // the latent case, then check the clamp repairs every edge.
        let spec = WorkloadSpec::paper(ExecVariation::Mdet);
        let p = Platform::paper(2).unwrap();
        let mut latent = 0usize;
        for seed in 0..256u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let Ok(g) = generate(&spec, &mut rng) else {
                continue;
            };
            for metric in [MetricKind::Norm, MetricKind::adapt()] {
                let plain = Slicer::new(metric).distribute(&g, &p).unwrap();
                latent += plain.validate(&g).violations().len();
                let strict = Slicer::new(metric)
                    .with_strict_windows(true)
                    .distribute(&g, &p)
                    .unwrap();
                let report = strict.validate(&g);
                assert!(report.is_ok(), "seed {seed}, {}: {report}", metric.label());
            }
        }
        assert!(
            latent > 0,
            "expected the unclamped metrics to exhibit the latent ordering \
             violations this clamp exists for"
        );
    }

    #[test]
    fn single_subtask_graph() {
        let mut b = TaskGraph::builder();
        let only = b.add_subtask(
            Subtask::new(Time::new(8))
                .released_at(Time::new(2))
                .due_at(Time::new(40)),
        );
        let g = b.build().unwrap();
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        assert_eq!(a.window(only), Window::new(Time::new(2), Time::new(40)));
        assert!(a.validate(&g).is_ok());
    }

    #[test]
    fn parallel_independent_chains() {
        // Two disconnected chains must both be sliced.
        let mut b = TaskGraph::builder();
        let a1 = b.add_subtask(Subtask::new(Time::new(10)).released_at(Time::ZERO));
        let a2 = b.add_subtask(Subtask::new(Time::new(10)).due_at(Time::new(100)));
        let b1 = b.add_subtask(Subtask::new(Time::new(20)).released_at(Time::ZERO));
        let b2 = b.add_subtask(Subtask::new(Time::new(20)).due_at(Time::new(80)));
        b.add_edge(a1, a2, 5).unwrap();
        b.add_edge(b1, b2, 5).unwrap();
        let g = b.build().unwrap();
        let p = Platform::paper(2).unwrap();
        let asg = Slicer::bst_pure().distribute(&g, &p).unwrap();
        assert!(asg.validate(&g).is_ok());
        // Chain B is more critical: (80-40)/2 = 20 < (100-20)/2 = 40.
        assert_eq!(asg.window(b1).relative_deadline(), Time::new(40));
        assert_eq!(asg.window(a1).relative_deadline(), Time::new(50));
    }

    /// The independent oracle for the slicing loop: `distribute` against
    /// the plain loop it replaced, which records and reuses nothing.
    mod oracle {
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};

        use super::*;
        use crate::path_search::PathSearch;

        /// The plain slicing loop: one whole-iteration
        /// [`PathSearch::find_critical_path`] per critical path, through the
        /// same state transition as the production loop. Also returns the
        /// starts (unassigned release-anchored nodes) summed over its
        /// iterations.
        fn reference_distribute(
            slicer: &Slicer,
            graph: &TaskGraph,
            platform: &Platform,
        ) -> (Result<DeadlineAssignment, SliceError>, usize) {
            let ctx = MetricContext::for_workload(graph, platform);
            let exp = ExpandedGraph::estimated(graph, slicer.estimate(), platform);
            let rule = slicer.metric().share_rule();
            let vweights: Vec<f64> = (0..exp.len())
                .map(|v| {
                    let real = match exp.kind(v) {
                        ExpKind::Task(id) => graph.subtask(id).wcet(),
                        ExpKind::Comm(eid) => {
                            slicer.estimate().estimated_cost(graph.edge(eid), platform)
                        }
                    };
                    slicer.metric().virtual_time(real, &ctx)
                })
                .collect();
            let mut state = SliceState::init(graph, &exp);
            let mut search = PathSearch::new(exp.len(), exp.max_chain());
            let (mut path_weights, mut slices, mut paths) = (Vec::new(), Vec::new(), 0);
            let mut starts = 0;
            while state.remaining > 0 {
                starts += (0..exp.len())
                    .filter(|&v| !state.assigned[v] && state.rel[v].is_some())
                    .count();
                let Some(cp) = search.find_critical_path(
                    &exp,
                    &vweights,
                    &state.assigned,
                    &state.rel,
                    &state.dl,
                    rule,
                ) else {
                    return (Err(SliceError::NoAnchoredPath), starts);
                };
                paths += 1;
                apply_path(
                    &exp,
                    &vweights,
                    rule,
                    &cp,
                    &mut state,
                    &mut path_weights,
                    &mut slices,
                    paths,
                );
            }
            (finalize(slicer, graph, &exp, state), starts)
        }

        fn slicer(metric: usize, ccaa: bool) -> Slicer {
            let slicer = match metric {
                0 => Slicer::bst_norm(),
                1 => Slicer::bst_pure(),
                2 => Slicer::ast_thres(1.0),
                _ => Slicer::ast_adapt(),
            };
            let estimate = if ccaa {
                CommEstimate::Ccaa
            } else {
                CommEstimate::Ccne
            };
            slicer.with_estimate(estimate)
        }

        /// A random DAG (forward-only edges), anchored inputs and outputs,
        /// and a release or deadline on any other subtask at random.
        pub(super) fn random_graph(rng: &mut StdRng, n: usize, density: f64) -> TaskGraph {
            let edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .filter(|_| rng.gen_bool(density))
                .collect();
            let mut b = TaskGraph::builder();
            let ids: Vec<_> = (0..n)
                .map(|v| {
                    let mut s = Subtask::new(Time::new(rng.gen_range(1..=50)));
                    if !edges.iter().any(|&(_, j)| j == v) || rng.gen_bool(0.3) {
                        s = s.released_at(Time::new(rng.gen_range(0..=30)));
                    }
                    if !edges.iter().any(|&(i, _)| i == v) || rng.gen_bool(0.3) {
                        s = s.due_at(Time::new(rng.gen_range(40..=400)));
                    }
                    b.add_subtask(s)
                })
                .collect();
            for (i, j) in edges {
                b.add_edge(ids[i], ids[j], rng.gen_range(1..=20))
                    .expect("forward edges cannot cycle or duplicate");
            }
            b.build().expect("anchored inputs and outputs")
        }

        proptest! {
            // Honours `PROPTEST_CASES` (the CI deep step scales it up).
            #![proptest_config(ProptestConfig::default())]

            #[test]
            fn distribute_matches_reference_loop_on_random_graphs(
                seed in 0u64..u64::MAX,
                n in 1usize..=16,
                density in 0.0f64..0.6,
                metric in 0usize..4,
                ccaa in proptest::bool::ANY,
            ) {
                let graph = random_graph(&mut StdRng::seed_from_u64(seed), n, density);
                let platform = Platform::paper(2).expect("valid platform");
                let slicer = slicer(metric, ccaa);
                prop_assert_eq!(
                    slicer.distribute(&graph, &platform),
                    reference_distribute(&slicer, &graph, &platform).0
                );
            }
        }

        proptest! {
            // Honours `PROPTEST_CASES` (the CI deep step scales it up).
            #![proptest_config(ProptestConfig::default())]

            /// After every iteration the loop's kept node classes (which
            /// nodes a path may enter, end at and start from) equal a
            /// from-scratch classification: the loop's test-only hook
            /// asserts it and counts the checks.
            #[test]
            fn kept_classes_match_a_fresh_classification(
                seed in 0u64..u64::MAX,
                n in 1usize..=16,
                density in 0.0f64..0.6,
                metric in 0usize..4,
                ccaa in proptest::bool::ANY,
            ) {
                let graph = random_graph(&mut StdRng::seed_from_u64(seed), n, density);
                let platform = Platform::paper(2).expect("valid platform");
                let checks = || crate::incremental::CLASS_CHECKS.with(|c| c.get());
                let before = checks();
                let result = slicer(metric, ccaa).distribute(&graph, &platform);
                // One check per sliced path; a run that slices nothing
                // fails before its first.
                prop_assert!(checks() > before || result.is_err());
            }
        }

        /// The `deadline distribution complete` event counts every start
        /// of every iteration once, as searched live or kept.
        #[test]
        fn distribution_event_counts_searched_and_kept_starts() {
            use std::sync::{Arc, Mutex};

            #[derive(Clone, Default)]
            struct Capture(Arc<Mutex<Vec<tracing::Event>>>);
            impl tracing::Subscriber for Capture {
                fn enabled(&self, _level: tracing::Level, _target: &str) -> bool {
                    true
                }
                fn event(&self, event: &tracing::Event) {
                    self.0.lock().unwrap().push(event.clone());
                }
            }

            let spec = WorkloadSpec::paper(ExecVariation::paper_scenarios()[1]);
            let graph = generate_seeded(&spec, 7).expect("paper graph");
            let platform = Platform::paper(8).expect("valid platform");
            let slicer = Slicer::bst_pure();
            let capture = Capture::default();
            tracing::subscriber::with_default(capture.clone(), || {
                slicer.distribute(&graph, &platform).unwrap();
            });
            let events = capture.0.lock().unwrap();
            let done = events
                .iter()
                .find(|e| e.message == "deadline distribution complete")
                .expect("the loop reports its end");
            let field = |key: &str| -> usize {
                done.fields
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v.to_string().parse().unwrap())
                    .unwrap_or_else(|| panic!("missing field `{key}`"))
            };
            let (searched, kept) = (field("searched"), field("kept"));
            assert!(kept > 0, "a paper graph reuses searches");
            assert_eq!(
                searched + kept,
                reference_distribute(&slicer, &graph, &platform).1
            );
        }

        proptest! {
            // Each case slices a 40-60 subtask graph (CCAA: ~150 expanded
            // nodes) twice, so the count is pinned.
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn distribute_matches_reference_loop_on_paper_graphs(
                seed in 0u64..u64::MAX,
                variation in 0usize..3,
                procs in 1usize..=16,
                metric in 0usize..4,
                ccaa in proptest::bool::ANY,
            ) {
                let spec = WorkloadSpec::paper(ExecVariation::paper_scenarios()[variation]);
                let graph = generate_seeded(&spec, seed).expect("paper graph");
                let platform = Platform::paper(procs).expect("valid platform");
                let slicer = slicer(metric, ccaa);
                prop_assert_eq!(
                    slicer.distribute(&graph, &platform),
                    reference_distribute(&slicer, &graph, &platform).0
                );
            }
        }
    }

    /// [`SliceInputs`] as the witness for sharing one assignment across
    /// platforms: equal inputs give identical assignments and cache keys,
    /// unequal inputs never share a key.
    mod shared_inputs {
        use platform::{Pinning, ProcessorId, Topology};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use super::oracle::random_graph;
        use super::*;

        fn slicer(metric: usize, estimate: usize, pins: Pinning) -> Slicer {
            let slicer = match metric {
                0 => Slicer::bst_norm(),
                1 => Slicer::bst_pure(),
                2 => Slicer::ast_thres(1.0),
                3 => Slicer::ast_adapt(),
                _ => Slicer::new(Doubler),
            };
            slicer.with_estimate(match estimate {
                0 => CommEstimate::Ccne,
                1 => CommEstimate::Ccaa,
                _ => CommEstimate::Known(pins),
            })
        }

        /// A bus, a ring or a near-square mesh of `n` processors.
        fn platform(topology: usize, n: usize) -> Platform {
            let cost = Time::new(1);
            let topology = match topology {
                0 => Topology::SharedBus {
                    cost_per_item: cost,
                },
                1 => Topology::Ring {
                    cost_per_item_hop: cost,
                },
                _ => {
                    let width = (1..=n)
                        .rev()
                        .find(|&w| n.is_multiple_of(w) && w * w <= n)
                        .unwrap_or(1);
                    Topology::Mesh2D {
                        width,
                        height: n / width,
                        cost_per_item_hop: cost,
                    }
                }
            };
            Platform::homogeneous(n, topology).expect("valid platform")
        }

        proptest! {
            #![proptest_config(ProptestConfig::default())]

            #[test]
            fn equal_inputs_share_an_assignment_and_unequal_never_share_a_key(
                seed in 0u64..u64::MAX,
                n in 1usize..=16,
                density in 0.0f64..0.6,
                metric in 0usize..5,
                estimate in 0usize..3,
                topology in 0usize..3,
                sizes in (1usize..=16, 1usize..=16),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let graph = random_graph(&mut rng, n, density);
                // Pins may name processors a small platform lacks; those
                // messages are estimated at the worst case.
                let mut pins = Pinning::new();
                for id in graph.subtask_ids() {
                    pins.pin(id, ProcessorId::new(rng.gen_range(0..16))).expect("one pin each");
                }
                let slicer = slicer(metric, estimate, pins);
                let (a, b) = (platform(topology, sizes.0), platform(topology, sizes.1));
                let (ia, ib) = (slicer.inputs(&graph, &a), slicer.inputs(&graph, &b));
                let (ka, kb) = (slicer.cache_key(&graph, &a), slicer.cache_key(&graph, &b));
                prop_assert_eq!(ka == kb, ia == ib);
                let from_a = slicer.distribute_from(&graph, &ia);
                prop_assert_eq!(&from_a, &slicer.distribute(&graph, &a));
                if ia == ib {
                    prop_assert_eq!(&from_a, &slicer.distribute(&graph, &b));
                }
            }
        }
    }
}
