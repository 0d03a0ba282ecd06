//! End-to-end equivalence of the incremental delta pipeline.
//!
//! Random workloads are mutated by random chained [`GraphDelta`]
//! sequences; after every step the incremental path
//! ([`Slicer::redistribute`] feeding [`ListScheduler::repair`]) must
//! produce bit-identical results to a from-scratch
//! [`Slicer::distribute`] + [`ListScheduler::schedule_with`] over the
//! same mutated inputs. Covered dimensions: all four paper metrics, both
//! bus models, both placement policies, pinned and unpinned subtasks,
//! and non-structural (WCET, anchor, pin) as well as structural
//! (subtask/edge insertion and removal) ops — the latter exercise the
//! documented full-recompute fallback, which must be equally
//! bit-identical.
//!
//! The case count of the random-DAG suite honours `PROPTEST_CASES` (CI
//! pins it for reproducible runtime). The paper-size suite pins its own:
//! each of its cases slices a 40–60 subtask graph several times over.

use platform::{Pinning, Platform, ProcessorId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::{BusModel, ListScheduler, PlacementPolicy, SchedWorkspace};
use slicing::{CommEstimate, DeltaOp, GraphDelta, MetricKind, SliceMemo, Slicer};
use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
use taskgraph::{Subtask, SubtaskId, TaskGraph, Time};

/// A random DAG with forward-only edges (acyclicity is structural),
/// anchored inputs/outputs, and random interior anchors — the same
/// shape the scheduler-equivalence suite uses.
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
            if !has_pred[v] || rng.gen_bool(0.3) {
                s = s.released_at(Time::new(rng.gen_range(0..=30)));
            }
            if !has_succ[v] || rng.gen_bool(0.3) {
                s = s.due_at(Time::new(rng.gen_range(300..=2000)));
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

/// One random mutation of the *current* graph. Weighted towards the
/// WCET/anchor/pin ops the incremental path repairs in place, with a
/// structural-op tail that forces the fallback. Ops may produce an
/// invalid rebuild (cleared input anchor, duplicate edge, ...) — the
/// caller skips those steps, mirroring how an admission controller
/// rejects an inapplicable delta.
fn random_op(rng: &mut StdRng, graph: &TaskGraph, nproc: usize) -> DeltaOp {
    let n = graph.subtask_count() as u32;
    let pick = |rng: &mut StdRng| SubtaskId::new(rng.gen_range(0..n));
    match rng.gen_range(0u32..12) {
        // WCET re-estimation, both tightening and loosening.
        0..=4 => DeltaOp::SetWcet {
            subtask: pick(rng),
            wcet: Time::new(rng.gen_range(1..=60)),
        },
        5 => DeltaOp::SetRelease {
            subtask: pick(rng),
            release: rng.gen_bool(0.8).then(|| Time::new(rng.gen_range(0..=30))),
        },
        6 => DeltaOp::SetDeadline {
            subtask: pick(rng),
            deadline: rng
                .gen_bool(0.8)
                .then(|| Time::new(rng.gen_range(300..=2000))),
        },
        7 => DeltaOp::Pin {
            subtask: pick(rng),
            processor: ProcessorId::new(rng.gen_range(0..nproc as u32)),
        },
        8 => DeltaOp::Unpin { subtask: pick(rng) },
        9 => {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            DeltaOp::AddEdge {
                src: SubtaskId::new(a.min(b)),
                dst: SubtaskId::new(a.max(b).max(a.min(b) + 1).min(n - 1)),
                items: rng.gen_range(1..=20),
            }
        }
        10 => DeltaOp::AddSubtask {
            subtask: Subtask::new(Time::new(rng.gen_range(1..=50)))
                .released_at(Time::new(rng.gen_range(0..=30)))
                .due_at(Time::new(rng.gen_range(300..=2000))),
        },
        _ => DeltaOp::RemoveSubtask { subtask: pick(rng) },
    }
}

fn metric(idx: usize) -> MetricKind {
    match idx {
        0 => MetricKind::norm(),
        1 => MetricKind::pure(),
        2 => MetricKind::thres(1.0),
        _ => MetricKind::adapt(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn delta_pipeline_matches_from_scratch(
        seed in 0u64..u64::MAX,
        n in 2usize..=12,
        density in 0.0f64..0.7,
        nproc in 1usize..=6,
        metric_idx in 0usize..4,
        contention in proptest::bool::ANY,
        append in proptest::bool::ANY,
        steps in 1usize..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let platform = Platform::paper(nproc).expect("valid platform");
        let slicer = Slicer::new(metric(metric_idx));
        let scheduler = ListScheduler::new()
            .with_bus_model(if contention {
                BusModel::Contention
            } else {
                BusModel::Delay
            })
            .with_placement(if append {
                PlacementPolicy::Append
            } else {
                PlacementPolicy::Insertion
            });

        let mut graph = random_graph(&mut rng, n, density);
        let mut pinning = Pinning::new();
        for id in graph.subtask_ids() {
            if rng.gen_bool(0.25) {
                let p = ProcessorId::new(rng.gen_range(0..nproc as u32));
                pinning.pin(id, p).expect("processor within platform");
            }
        }

        // Prime the pipeline on the pristine workload. Degenerate windows
        // can reject slicing outright; such cases exercise nothing
        // incremental, so bail out.
        let mut memo = SliceMemo::new();
        let Ok(assignment) = slicer.redistribute(&graph, &platform, &mut memo).map(|r| r.assignment)
        else { return Ok(()); };
        let mut ws = SchedWorkspace::new();
        let mut prev = scheduler
            .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws)
            .expect("valid sliced workload schedules");

        for _ in 0..steps {
            let ops = (0..rng.gen_range(1..=3))
                .map(|_| random_op(&mut rng, &graph, nproc))
                .collect::<Vec<_>>();
            let delta = ops.into_iter().fold(GraphDelta::new(), GraphDelta::push);
            // Inapplicable delta (invalid rebuild): rejected atomically,
            // the resident workload is untouched — try the next step.
            let Ok(applied) = delta.apply(&graph, &pinning) else { continue };

            let scratch = slicer.distribute(&applied.graph, &platform);
            let incremental = slicer.redistribute(&applied.graph, &platform, &mut memo);
            match (scratch, incremental) {
                (Ok(scratch), Ok(incremental)) => {
                    prop_assert_eq!(&incremental.assignment, &scratch);

                    let mut scratch_ws = SchedWorkspace::new();
                    let full = scheduler
                        .schedule_with(
                            &applied.graph,
                            &platform,
                            &scratch,
                            &applied.pinning,
                            &mut scratch_ws,
                        )
                        .expect("valid sliced workload schedules");
                    let repaired = scheduler
                        .repair(
                            &applied.graph,
                            &platform,
                            &incremental.assignment,
                            &applied.pinning,
                            &prev,
                            &mut ws,
                        )
                        .expect("repair accepts whatever schedule_with accepts");
                    prop_assert_eq!(&repaired.schedule, &full);

                    graph = applied.graph;
                    pinning = applied.pinning;
                    prev = repaired.schedule;
                }
                // The incremental path must fail exactly when the
                // from-scratch path does. The memo is consumed by the
                // failed attempt; later steps re-prime it via fallback.
                (Err(_), Err(_)) => {}
                (scratch, incremental) => prop_assert!(
                    false,
                    "divergent outcomes: scratch {scratch:?} vs incremental {incremental:?}"
                ),
            }
        }
    }
}

/// One random non-structural mutation of a paper graph: a WCET
/// re-estimation around the paper's MET, a release or deadline anchor
/// moved (or cleared, which the rebuild may reject), or a pin change.
fn paper_op(rng: &mut StdRng, graph: &TaskGraph, nproc: usize) -> DeltaOp {
    let n = graph.subtask_count() as u32;
    let subtask = SubtaskId::new(rng.gen_range(0..n));
    let horizon = graph
        .subtask_ids()
        .filter_map(|id| graph.subtask(id).deadline())
        .map(Time::as_i64)
        .max()
        .unwrap_or(1_000);
    match rng.gen_range(0u32..10) {
        0..=4 => DeltaOp::SetWcet {
            subtask,
            wcet: Time::new(rng.gen_range(1..=40)),
        },
        5 => DeltaOp::SetRelease {
            subtask,
            release: rng
                .gen_bool(0.8)
                .then(|| Time::new(rng.gen_range(0..=horizon / 4))),
        },
        6 => DeltaOp::SetDeadline {
            subtask,
            deadline: rng
                .gen_bool(0.8)
                .then(|| Time::new(rng.gen_range(horizon / 2..=horizon * 3 / 2))),
        },
        7 | 8 => DeltaOp::Pin {
            subtask,
            processor: ProcessorId::new(rng.gen_range(0..nproc as u32)),
        },
        _ => DeltaOp::Unpin { subtask },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Paper-size graphs: seeded MDET workloads on 8 processors, whose
    /// CCAA expansion spans several bitset words, under chained
    /// non-structural deltas that keep every step on the incremental
    /// path.
    #[test]
    fn paper_graph_delta_pipeline_matches_from_scratch(
        graph_seed in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        metric_idx in 0usize..4,
        ccaa in proptest::bool::ANY,
        contention in proptest::bool::ANY,
        append in proptest::bool::ANY,
        steps in 1usize..=4,
    ) {
        const NPROC: usize = 8;
        let mut rng = StdRng::seed_from_u64(seed);
        let platform = Platform::paper(NPROC).expect("valid platform");
        let estimate = if ccaa { CommEstimate::Ccaa } else { CommEstimate::Ccne };
        let slicer = Slicer::new(metric(metric_idx)).with_estimate(estimate);
        let scheduler = ListScheduler::new()
            .with_bus_model(if contention {
                BusModel::Contention
            } else {
                BusModel::Delay
            })
            .with_placement(if append {
                PlacementPolicy::Append
            } else {
                PlacementPolicy::Insertion
            });

        let spec = WorkloadSpec::paper(ExecVariation::Mdet);
        let mut graph = generate_seeded(&spec, graph_seed).expect("paper graph");
        let mut pinning = Pinning::new();
        for id in graph.subtask_ids() {
            if rng.gen_bool(0.25) {
                let p = ProcessorId::new(rng.gen_range(0..NPROC as u32));
                pinning.pin(id, p).expect("processor within platform");
            }
        }

        let mut memo = SliceMemo::new();
        let assignment = slicer
            .redistribute(&graph, &platform, &mut memo)
            .expect("paper graphs slice")
            .assignment;
        let mut ws = SchedWorkspace::new();
        let mut prev = scheduler
            .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws)
            .expect("valid sliced workload schedules");

        for _ in 0..steps {
            let ops = (0..rng.gen_range(1..=3))
                .map(|_| paper_op(&mut rng, &graph, NPROC))
                .collect::<Vec<_>>();
            let delta = ops.into_iter().fold(GraphDelta::new(), GraphDelta::push);
            let Ok(applied) = delta.apply(&graph, &pinning) else { continue };

            let scratch = slicer.distribute(&applied.graph, &platform);
            let incremental = slicer.redistribute(&applied.graph, &platform, &mut memo);
            match (scratch, incremental) {
                (Ok(scratch), Ok(incremental)) => {
                    prop_assert_eq!(&incremental.assignment, &scratch);
                    prop_assert!(!incremental.stats.fell_back, "{:?}", incremental.stats);

                    let mut scratch_ws = SchedWorkspace::new();
                    let full = scheduler
                        .schedule_with(
                            &applied.graph,
                            &platform,
                            &scratch,
                            &applied.pinning,
                            &mut scratch_ws,
                        )
                        .expect("valid sliced workload schedules");
                    let repaired = scheduler
                        .repair(
                            &applied.graph,
                            &platform,
                            &incremental.assignment,
                            &applied.pinning,
                            &prev,
                            &mut ws,
                        )
                        .expect("repair accepts whatever schedule_with accepts");
                    prop_assert_eq!(&repaired.schedule, &full);

                    graph = applied.graph;
                    pinning = applied.pinning;
                    prev = repaired.schedule;
                }
                // Both fail or neither. A failed replay consumes the memo,
                // so the chain ends here.
                (Err(_), Err(_)) => return Ok(()),
                (scratch, incremental) => prop_assert!(
                    false,
                    "divergent outcomes: scratch {scratch:?} vs incremental {incremental:?}"
                ),
            }
        }
    }
}
