//! The random task-graph generator of §5.2.
//!
//! Generation is layered: a depth is drawn, every level receives at least one
//! subtask, each non-input subtask draws 1–3 predecessors from the previous
//! level, and any interior subtask left without successors is reconnected
//! forward so that only last-level subtasks are outputs of the *construction*
//! (nodes that organically end a chain earlier remain outputs, as in the
//! paper's model where an output is simply a successor-less subtask).
//!
//! Execution times are drawn uniformly in `MET·(1±v)`; message sizes
//! uniformly in `MET·CCR·(1±message_variation)`; the end-to-end deadline
//! grants a slack of `OLR × accumulated workload` over the deadline base
//! (critical path by default — see [`DeadlineBase`]), anchoring every
//! output subtask.
//!
//! [`DeadlineBase`]: crate::gen::DeadlineBase

use std::ops::Range;

use rand::Rng;

use crate::gen::WorkloadSpec;
use crate::{GraphError, Subtask, SubtaskId, TaskGraph, TaskGraphBuilder, Time};

/// Generates one random task graph from `spec` using `rng`.
///
/// Two calls with identically-seeded RNGs produce identical graphs, which the
/// experiment harness relies on for paired comparisons between techniques.
///
/// # Errors
///
/// Returns an error if the specification fails validation (wrapped into a
/// [`GraphError`] is not possible, so the message is carried in
/// [`GenerateError::InvalidSpec`]) or if graph assembly fails (a bug).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use taskgraph::gen::{generate, ExecVariation, WorkloadSpec};
///
/// # fn main() -> Result<(), taskgraph::gen::GenerateError> {
/// let spec = WorkloadSpec::paper(ExecVariation::Ldet);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let graph = generate(&spec, &mut rng)?;
/// assert!(graph.subtask_count() >= 40 && graph.subtask_count() <= 60);
/// # Ok(())
/// # }
/// ```
pub fn generate<R: Rng + ?Sized>(
    spec: &WorkloadSpec,
    rng: &mut R,
) -> Result<TaskGraph, GenerateError> {
    spec.validate().map_err(GenerateError::InvalidSpec)?;

    let _span = tracing::debug_span!(
        "generate",
        met = spec.mean_exec_time,
        olr = spec.olr,
        ccr = spec.ccr,
        variation = ?spec.variation
    )
    .entered();

    let depth = rng.gen_range(spec.depth.clone());
    let min_n = (*spec.subtasks.start()).max(depth);
    let max_n = (*spec.subtasks.end()).max(min_n);
    let n = rng.gen_range(min_n..=max_n);

    // Assign one subtask per level, then spread the rest uniformly. Sorted,
    // each level is a contiguous range of node ids.
    let mut level_of = Vec::with_capacity(n);
    for l in 0..depth {
        level_of.push(l);
    }
    for _ in depth..n {
        level_of.push(rng.gen_range(0..depth));
    }
    level_of.sort_unstable();
    let level =
        |l: usize| level_of.partition_point(|&x| x < l)..level_of.partition_point(|&x| x <= l);
    let id = |node: usize| SubtaskId::new(node as u32);

    // Every non-input subtask draws at most `fan_in.end()` predecessors from
    // the level before, and every subtask gets at most one reconnecting
    // successor.
    let max_edges = n
        + (1..depth)
            .map(|l| level(l).len() * (*spec.fan_in.end()).min(level(l - 1).len()))
            .sum::<usize>();
    let mut builder = TaskGraphBuilder::with_capacity(n, max_edges);
    for &l in &level_of {
        let wcet = draw_exec_time(spec, rng);
        let mut subtask = Subtask::new(wcet);
        if l == 0 {
            subtask = subtask.released_at(Time::ZERO);
        }
        builder.add_subtask(subtask);
    }

    // Draw predecessors for each non-input subtask from the previous level.
    let mut picked = Vec::with_capacity(n);
    for l in 1..depth {
        let prev = level(l - 1);
        for node in level(l) {
            let max_fan = (*spec.fan_in.end()).min(prev.len());
            let min_fan = (*spec.fan_in.start()).min(max_fan);
            let fan = rng.gen_range(min_fan..=max_fan);
            sample_distinct(prev.clone(), fan, rng, &mut picked);
            for &p in &picked {
                add_message(&mut builder, spec, rng, id(p), id(node))?;
            }
        }
    }

    // Reconnect interior subtasks that ended up without successors so chains
    // do not terminate by accident: attach them to a random node in the next
    // level. (Nodes in the last level legitimately have no successors.)
    for l in 0..depth.saturating_sub(1) {
        let next = level(l + 1);
        for node in level(l) {
            if builder.out_degree(id(node)) == 0 {
                let target = next.start + rng.gen_range(0..next.len());
                if !builder.has_edge(id(node), id(target)) {
                    add_message(&mut builder, spec, rng, id(node), id(target))?;
                }
            }
        }
    }

    // Anchor the end-to-end deadline: OLR × accumulated workload (along the
    // critical path, or of the whole graph — see `DeadlineBase`), applied
    // to every input–output pair (inputs release at 0, so the absolute
    // deadline of every output subtask equals the end-to-end deadline).
    let base = deadline_base_work(spec, &builder);
    let deadline = end_to_end_deadline(spec, base);
    for v in (0..n).map(id) {
        if builder.out_degree(v) == 0 {
            builder.subtask_mut(v).set_deadline(Some(deadline));
        }
        // Inputs can also occur above level 0 only by construction error;
        // level-0 nodes already carry a release. Interior nodes with no
        // in-edges would be inputs: give them a release as well.
        if builder.in_degree(v) == 0 {
            builder.subtask_mut(v).set_release(Some(Time::ZERO));
        }
    }

    let graph = builder.build().map_err(GenerateError::Graph)?;
    tracing::debug!(
        subtasks = graph.subtask_count(),
        messages = graph.edge_count(),
        depth = depth,
        deadline = %deadline,
        "generated task graph"
    );
    Ok(graph)
}

/// End-to-end deadline the generator would assign for a given deadline-base
/// workload (critical-path or total work, per [`WorkloadSpec::deadline_base`]),
/// exposed so that analyses can recompute the OLR.
///
/// The OLR is a *laxity ratio* in the same family as the slicing metrics:
/// the end-to-end slack is `OLR × base work`, so `D = (1 + OLR) × base`.
///
/// [`WorkloadSpec::deadline_base`]: crate::gen::WorkloadSpec
pub fn end_to_end_deadline(spec: &WorkloadSpec, base_work: Time) -> Time {
    Time::from_f64_rounded((1.0 + spec.olr) * base_work.as_f64())
}

/// The workload quantity the OLR multiplies, computed from a builder.
pub(crate) fn deadline_base_work(spec: &WorkloadSpec, builder: &crate::TaskGraphBuilder) -> Time {
    match spec.deadline_base {
        crate::gen::DeadlineBase::CriticalPath => builder
            .longest_path_work()
            .expect("generators never create cycles"),
        crate::gen::DeadlineBase::TotalWork => {
            let mut total = Time::ZERO;
            for i in 0..builder.subtask_count() as u32 {
                total += builder.subtask(SubtaskId::new(i)).wcet();
            }
            total
        }
    }
}

fn draw_exec_time<R: Rng + ?Sized>(spec: &WorkloadSpec, rng: &mut R) -> Time {
    let v = spec.variation.fraction();
    let met = spec.mean_exec_time as f64;
    let lo = ((met * (1.0 - v)).round() as i64).max(1);
    let hi = ((met * (1.0 + v)).round() as i64).max(lo);
    Time::new(rng.gen_range(lo..=hi))
}

fn draw_message_items<R: Rng + ?Sized>(spec: &WorkloadSpec, rng: &mut R) -> u64 {
    let mean = spec.mean_exec_time as f64 * spec.ccr;
    if mean < 0.5 {
        return 1;
    }
    let v = spec.message_variation;
    let lo = ((mean * (1.0 - v)).round() as u64).max(1);
    let hi = ((mean * (1.0 + v)).round() as u64).max(lo);
    rng.gen_range(lo..=hi)
}

fn add_message<R: Rng + ?Sized>(
    builder: &mut crate::TaskGraphBuilder,
    spec: &WorkloadSpec,
    rng: &mut R,
    src: SubtaskId,
    dst: SubtaskId,
) -> Result<(), GenerateError> {
    let items = draw_message_items(spec, rng);
    builder
        .add_edge(src, dst, items)
        .map_err(GenerateError::Graph)?;
    Ok(())
}

/// Leaves `k` distinct members of `pool` in `picked`, drawn by a partial
/// Fisher–Yates shuffle of the pool.
fn sample_distinct<R: Rng + ?Sized>(
    pool: Range<usize>,
    k: usize,
    rng: &mut R,
    picked: &mut Vec<usize>,
) {
    debug_assert!(k <= pool.len());
    picked.clear();
    picked.extend(pool);
    // Partial Fisher–Yates: the first k elements become the sample.
    for i in 0..k {
        let j = rng.gen_range(i..picked.len());
        picked.swap(i, j);
    }
    picked.truncate(k);
}

/// Error produced by the workload generator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GenerateError {
    /// The workload specification is inconsistent; the message names the
    /// violated constraint.
    InvalidSpec(String),
    /// Graph assembly failed (indicates a generator bug).
    Graph(GraphError),
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::InvalidSpec(msg) => write!(f, "invalid workload spec: {msg}"),
            GenerateError::Graph(e) => write!(f, "graph assembly failed: {e}"),
        }
    }
}

impl std::error::Error for GenerateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenerateError::InvalidSpec(_) => None,
            GenerateError::Graph(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::analysis::GraphAnalysis;
    use crate::gen::ExecVariation;

    fn paper_graph(seed: u64, variation: ExecVariation) -> TaskGraph {
        let spec = WorkloadSpec::paper(variation);
        let mut rng = StdRng::seed_from_u64(seed);
        generate(&spec, &mut rng).unwrap()
    }

    #[test]
    fn respects_size_and_depth_ranges() {
        for seed in 0..20 {
            let g = paper_graph(seed, ExecVariation::Mdet);
            assert!(
                (40..=60).contains(&g.subtask_count()),
                "n={}",
                g.subtask_count()
            );
            let depth = GraphAnalysis::new(&g).depth();
            assert!((8..=12).contains(&depth), "depth={depth}");
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = paper_graph(7, ExecVariation::Hdet);
        let b = paper_graph(7, ExecVariation::Hdet);
        assert_eq!(a, b);
        let c = paper_graph(8, ExecVariation::Hdet);
        assert_ne!(a, c);
    }

    #[test]
    fn execution_times_within_variation_bounds() {
        for (variation, lo, hi) in [
            (ExecVariation::Ldet, 15, 25),
            (ExecVariation::Mdet, 10, 30),
            (ExecVariation::Hdet, 1, 40),
        ] {
            let g = paper_graph(3, variation);
            for id in g.subtask_ids() {
                let c = g.subtask(id).wcet().as_i64();
                assert!((lo..=hi).contains(&c), "{variation:?}: wcet={c}");
            }
        }
    }

    #[test]
    fn deadline_matches_olr_times_critical_path() {
        let g = paper_graph(11, ExecVariation::Ldet);
        let an = GraphAnalysis::new(&g);
        let expected = end_to_end_deadline(
            &WorkloadSpec::paper(ExecVariation::Ldet),
            an.longest_path_work(),
        );
        for &out in g.outputs() {
            assert_eq!(g.subtask(out).deadline(), Some(expected));
        }
        for &input in g.inputs() {
            assert_eq!(g.subtask(input).release(), Some(Time::ZERO));
        }
    }

    #[test]
    fn total_work_deadline_base_supported() {
        let spec = WorkloadSpec::paper(ExecVariation::Ldet)
            .with_deadline_base(crate::gen::DeadlineBase::TotalWork);
        let mut rng = StdRng::seed_from_u64(11);
        let g = generate(&spec, &mut rng).unwrap();
        let an = GraphAnalysis::new(&g);
        let expected = end_to_end_deadline(&spec, an.total_work());
        for &out in g.outputs() {
            assert_eq!(g.subtask(out).deadline(), Some(expected));
        }
        // The total-work deadline is much looser than the critical-path one.
        assert!(an.total_work() > an.longest_path_work());
    }

    #[test]
    fn interior_nodes_have_successors() {
        let g = paper_graph(5, ExecVariation::Mdet);
        let an = GraphAnalysis::new(&g);
        let levels = an.levels();
        let depth = an.depth();
        for id in g.subtask_ids() {
            if levels[id.index()] + 1 < depth && g.is_output(id) {
                // The reconnection pass should keep chains alive until the
                // deepest level reached by this node's component; outputs
                // above the last level are only acceptable if they were
                // created at the last *constructed* level. The generator
                // guarantees no interior node is successor-less.
                panic!(
                    "interior node {id} has no successors (level {})",
                    levels[id.index()]
                );
            }
        }
    }

    #[test]
    fn ccr_close_to_spec() {
        let mut total = 0.0;
        let runs = 16;
        for seed in 0..runs {
            let g = paper_graph(seed, ExecVariation::Ldet);
            total += GraphAnalysis::new(&g).realized_ccr(1.0);
        }
        let mean_ccr = total / runs as f64;
        assert!((0.8..=1.25).contains(&mean_ccr), "mean CCR {mean_ccr}");
    }

    #[test]
    fn rejects_invalid_spec() {
        let spec = WorkloadSpec::default().with_olr(-1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            generate(&spec, &mut rng),
            Err(GenerateError::InvalidSpec(_))
        ));
    }

    #[test]
    fn accepts_unbounded_fan_in() {
        // A fan-in bound above every level's width must not size anything.
        let spec = WorkloadSpec::paper(ExecVariation::Mdet).with_fan_in(1..=usize::MAX);
        for seed in 0..8 {
            let g = generate(&spec, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert!((40..=60).contains(&g.subtask_count()));
        }
    }

    #[test]
    fn builder_longest_path_matches_analysis() {
        // The builder-side critical path (used to anchor deadlines) must
        // agree with the post-build analysis.
        for seed in 0..6 {
            let g = paper_graph(seed, ExecVariation::Hdet);
            let analysis_cp = GraphAnalysis::new(&g).longest_path_work();
            // Rebuild a builder with the same nodes/edges.
            let mut b = TaskGraph::builder();
            for id in g.subtask_ids() {
                b.add_subtask(g.subtask(id).clone());
            }
            for eid in g.edge_ids() {
                let e = g.edge(eid);
                b.add_edge(e.src(), e.dst(), e.items()).unwrap();
            }
            assert_eq!(b.longest_path_work(), Some(analysis_cp), "seed {seed}");
        }
    }

    #[test]
    fn dot_export_covers_generated_graphs() {
        let g = paper_graph(2, ExecVariation::Mdet);
        let dot = crate::dot::to_dot(&g);
        assert_eq!(dot.matches(" -> ").count(), g.edge_count());
        for id in g.subtask_ids() {
            assert!(dot.contains(&format!("\"{id}\"")));
        }
    }

    #[test]
    fn generate_error_display() {
        let e = GenerateError::InvalidSpec("bad".to_owned());
        assert!(e.to_string().contains("bad"));
        let g = GenerateError::Graph(GraphError::Empty);
        assert!(g.to_string().contains("graph assembly failed"));
        assert!(std::error::Error::source(&g).is_some());
    }
}
