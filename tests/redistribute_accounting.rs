//! Exact accounting of the `redistribute` stage and the `delta_*`
//! counters. The telemetry registry is process-global, so this binary
//! holds a single test: nothing else feeds the registry while it runs, and
//! its deltas are exact rather than lower bounds.

use feast::telemetry;
use feast::{AdmissionController, AdmitConfig, Scenario};
use slicing::{CommEstimate, DeltaOp, GraphDelta, MetricKind};
use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
use taskgraph::{SubtaskId, TaskGraph, Time};

use std::sync::Arc;

/// Admits re-slice nothing: only amendments land in `redistribute`, and a
/// resident's first amendment is the one that primes its memo, so it
/// counts as a delta fallback while the second replays.
#[test]
fn a_residents_first_amendment_is_a_delta_fallback_and_an_admit_adds_nothing() {
    let spec = WorkloadSpec::paper(ExecVariation::Mdet);
    let scenario = Scenario::paper(
        "ADM/IT",
        spec.clone(),
        MetricKind::adapt(),
        CommEstimate::Ccne,
    );
    let mut controller = AdmissionController::new(AdmitConfig::new(scenario, 8)).unwrap();
    let template = Arc::new(generate_seeded(&spec, 2).unwrap());
    let tighten = |subtask| {
        GraphDelta::new().push(DeltaOp::SetWcet {
            subtask: SubtaskId::new(subtask),
            wcet: Time::new(1),
        })
    };

    // A cache miss and a cache hit of the same content.
    let before = telemetry::global().snapshot();
    assert!(
        controller
            .admit(0, Arc::clone(&template), Time::ZERO)
            .unwrap()
            .admitted
    );
    let twin = Arc::new(TaskGraph::clone(&template));
    assert!(controller.admit(1, twin, Time::ZERO).unwrap().admitted);
    let admits = telemetry::global().snapshot().delta(&before);
    assert_eq!(admits.slice_cache_hits, 1);
    assert_eq!(admits.redistribute.count, 0, "{:?}", admits.redistribute);
    assert_eq!(admits.delta_fallbacks, 0);
    assert_eq!(admits.delta_cache_hits + admits.delta_cache_misses, 0);

    let before = telemetry::global().snapshot();
    assert!(controller.amend(0, &tighten(0)).unwrap().admitted);
    let first = telemetry::global().snapshot().delta(&before);
    assert_eq!(first.redistribute.count, 1, "{:?}", first.redistribute);
    assert_eq!(first.delta_fallbacks, 1);

    let before = telemetry::global().snapshot();
    assert!(controller.amend(0, &tighten(1)).unwrap().admitted);
    let second = telemetry::global().snapshot().delta(&before);
    assert_eq!(second.redistribute.count, 1, "{:?}", second.redistribute);
    assert_eq!(second.delta_fallbacks, 0);
    assert!(second.delta_scanned_nodes > 0);
}
