//! End-to-end integration tests: workload generation → deadline
//! distribution → list scheduling → lateness analysis, across metrics,
//! estimation strategies, system sizes and seeds.

use feast::{Pipeline, Scenario};
use platform::{Pinning, Platform, ProcessorId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sched::{BusModel, LatenessReport, ListScheduler};
use slicing::{CommEstimate, MetricKind, Slicer};
use taskgraph::gen::{
    generate, generate_seeded, stream_label, stream_seed, ExecVariation, WorkloadSpec,
};
use taskgraph::TaskGraph;

fn paper_graph(seed: u64, variation: ExecVariation) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generate(&WorkloadSpec::paper(variation), &mut rng).expect("valid spec")
}

#[test]
fn full_pipeline_is_sound_for_every_metric_and_estimate() {
    let metrics = [
        MetricKind::norm(),
        MetricKind::pure(),
        MetricKind::thres(1.0),
        MetricKind::thres(4.0),
        MetricKind::adapt(),
    ];
    let estimates = [CommEstimate::Ccne, CommEstimate::Ccaa];
    for seed in 0..4 {
        let graph = paper_graph(seed, ExecVariation::Mdet);
        for nproc in [2, 5, 16] {
            let platform = Platform::paper(nproc).unwrap();
            for metric in metrics {
                for estimate in &estimates {
                    let assignment = Slicer::new(metric)
                        .with_estimate(estimate.clone())
                        .distribute(&graph, &platform)
                        .unwrap();
                    // Structural soundness is guaranteed whenever no path
                    // window was inverted; inversions only occur on
                    // overconstrained instances (e.g. extreme surplus
                    // factors on tight deadlines) and are reported.
                    let report = assignment.validate(&graph);
                    assert!(
                        report.is_ok() || assignment.inverted_paths() > 0,
                        "seed {seed} nproc {nproc} {} {}: {report}",
                        metric.label(),
                        estimate.label()
                    );
                    let schedule = ListScheduler::new()
                        .schedule(&graph, &platform, &assignment, &Pinning::new())
                        .unwrap();
                    let violations = schedule.validate(&graph, &platform, &Pinning::new(), false);
                    assert!(
                        violations.is_empty(),
                        "seed {seed} nproc {nproc} {}: {violations:?}",
                        metric.label()
                    );
                    // Lateness analysis is total and self-consistent.
                    let lateness = LatenessReport::new(&graph, &assignment, &schedule);
                    assert_eq!(
                        lateness.lateness(lateness.critical_subtask()),
                        lateness.max_lateness()
                    );
                }
            }
        }
    }
}

#[test]
fn windows_partition_end_to_end_deadlines_on_critical_paths() {
    // Along every edge the producer's window ends no later than the
    // consumer's begins whenever the instance was not overconstrained
    // (no inverted path windows); most paper workloads are in that regime.
    let mut inversion_free = 0;
    let total = 8;
    for seed in 0..total {
        let graph = paper_graph(seed, ExecVariation::Hdet);
        let platform = Platform::paper(4).unwrap();
        let assignment = Slicer::ast_adapt().distribute(&graph, &platform).unwrap();
        if assignment.inverted_paths() > 0 {
            continue;
        }
        inversion_free += 1;
        for eid in graph.edge_ids() {
            let e = graph.edge(eid);
            assert!(
                assignment.absolute_deadline(e.src()) <= assignment.release(e.dst()),
                "seed {seed} edge {eid}"
            );
        }
    }
    assert!(
        inversion_free * 2 >= total,
        "most paper workloads must distribute without inverted windows \
         ({inversion_free}/{total})"
    );
}

#[test]
fn strict_locality_baseline_reproduces_bst_setting() {
    // With a total pinning and the KNOWN estimation strategy, the distributor
    // sees real communication costs — the original BST setting. The
    // resulting schedule must still be sound, and local messages must be
    // free (no materialized windows for same-processor pairs).
    let graph = paper_graph(13, ExecVariation::Ldet);
    let platform = Platform::paper(4).unwrap();

    // Pin every subtask round-robin: locality constraints are fully strict.
    let mut pins = Pinning::new();
    for (i, id) in graph.subtask_ids().enumerate() {
        pins.pin(id, ProcessorId::new((i % 4) as u32)).unwrap();
    }
    assert!(pins.is_total_for(&graph));

    let assignment = Slicer::bst_pure()
        .with_estimate(CommEstimate::Known(pins.clone()))
        .distribute(&graph, &platform)
        .unwrap();
    assert!(assignment.validate(&graph).is_ok() || assignment.inverted_paths() > 0);

    for eid in graph.edge_ids() {
        let e = graph.edge(eid);
        let same = pins.processor_for(e.src()) == pins.processor_for(e.dst());
        if same {
            assert!(
                assignment.comm_window(eid).is_none(),
                "local message {eid} must be transparent"
            );
        } else {
            assert!(
                assignment.comm_window(eid).is_some(),
                "remote message {eid} must be windowed"
            );
        }
    }

    let schedule = ListScheduler::new()
        .schedule(&graph, &platform, &assignment, &pins)
        .unwrap();
    assert!(schedule
        .validate(&graph, &platform, &pins, false)
        .is_empty());
    // Every subtask sits on its pinned processor.
    for id in graph.subtask_ids() {
        assert_eq!(Some(schedule.processor(id)), pins.processor_for(id));
    }
}

#[test]
fn contention_model_produces_exclusive_bus_schedules() {
    for seed in [3, 17] {
        let graph = paper_graph(seed, ExecVariation::Mdet);
        let platform = Platform::paper(3).unwrap();
        let assignment = Slicer::bst_pure().distribute(&graph, &platform).unwrap();
        let schedule = ListScheduler::new()
            .with_bus_model(BusModel::Contention)
            .schedule(&graph, &platform, &assignment, &Pinning::new())
            .unwrap();
        let violations = schedule.validate(&graph, &platform, &Pinning::new(), true);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

#[test]
fn pipeline_is_deterministic() {
    let graph = paper_graph(29, ExecVariation::Mdet);
    let platform = Platform::paper(6).unwrap();
    let run = || {
        let assignment = Slicer::ast_adapt().distribute(&graph, &platform).unwrap();
        let schedule = ListScheduler::new()
            .schedule(&graph, &platform, &assignment, &Pinning::new())
            .unwrap();
        (assignment, schedule)
    };
    let (a1, s1) = run();
    let (a2, s2) = run();
    assert_eq!(a1, a2);
    assert_eq!(s1, s2);
}

#[test]
fn more_processors_never_hurt_the_time_driven_schedule_much() {
    // Monotone improvement is not guaranteed per-instance, but across a
    // batch the average must improve from 2 to 16 processors (the paper's
    // headline curve shape).
    let mut small_sum = 0.0;
    let mut large_sum = 0.0;
    let runs = 8;
    for seed in 0..runs {
        let graph = paper_graph(seed, ExecVariation::Mdet);
        for (nproc, sum) in [(2usize, &mut small_sum), (16, &mut large_sum)] {
            let platform = Platform::paper(nproc).unwrap();
            let assignment = Slicer::bst_pure().distribute(&graph, &platform).unwrap();
            let schedule = ListScheduler::new()
                .schedule(&graph, &platform, &assignment, &Pinning::new())
                .unwrap();
            *sum += LatenessReport::new(&graph, &assignment, &schedule)
                .max_lateness()
                .as_f64();
        }
    }
    assert!(
        large_sum / runs as f64 <= small_sum / runs as f64,
        "16 processors must not be worse on average: {large_sum} vs {small_sum}"
    );
}

#[test]
fn work_conserving_scheduler_is_also_sound() {
    let graph = paper_graph(41, ExecVariation::Hdet);
    let platform = Platform::paper(4).unwrap();
    let assignment = Slicer::bst_norm().distribute(&graph, &platform).unwrap();
    let schedule = ListScheduler::new()
        .with_respect_release(false)
        .schedule(&graph, &platform, &assignment, &Pinning::new())
        .unwrap();
    assert!(schedule
        .validate(&graph, &platform, &Pinning::new(), false)
        .is_empty());
}

/// Graphs at 2× (80–120 subtasks) and 4× (160–240 subtasks) the paper's
/// size run end to end through the production [`feast::Pipeline`] under all
/// four paper metrics, and every schedule passes the structural audit.
/// Window violations are not asserted: the EdgeOrdering anomaly
/// (EXPERIMENTS.md) is a property of the metrics' slack division, not of
/// the pipeline.
#[test]
fn pipeline_covers_every_metric_on_2x_and_4x_graphs() {
    let paper = WorkloadSpec::paper(ExecVariation::Mdet);
    let sizes = [
        (
            "2x",
            paper.clone().with_subtasks(80..=120).with_depth(16..=24),
        ),
        ("4x", paper.with_subtasks(160..=240).with_depth(32..=48)),
    ];
    let metrics = [
        MetricKind::norm(),
        MetricKind::pure(),
        MetricKind::thres(1.0),
        MetricKind::adapt(),
    ];
    let platform = Platform::paper(8).unwrap();
    for (label, spec) in sizes {
        let seed = stream_seed(0x000F_EA57_BE5C, stream_label(label.as_bytes()), 0, 0);
        let graph = generate_seeded(&spec, seed).expect("valid spec");
        assert!(spec.subtasks.contains(&graph.subtask_count()), "{label}");
        for metric in metrics {
            let scenario = Scenario::paper(label, spec.clone(), metric, CommEstimate::Ccne);
            let verdict = Pipeline::new(&scenario)
                .slice(&graph, &platform)
                .unwrap_or_else(|e| panic!("{label} {}: slice: {e}", metric.label()))
                .trial(&platform)
                .unwrap_or_else(|e| panic!("{label} {}: trial: {e}", metric.label()));
            assert_eq!(
                verdict.schedule_violations,
                0,
                "{label} {}: schedule violations",
                metric.label()
            );
        }
    }
}
