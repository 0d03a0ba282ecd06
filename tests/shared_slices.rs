//! Exact accounting of slices shared across a replication's system sizes.
//! The telemetry registry is process-global, so this binary holds a single
//! test: nothing else feeds the registry while it runs, and its deltas are
//! exact rather than lower bounds.

use feast::telemetry;
use feast::{Runner, Scenario, TopologyKind};
use slicing::{BaselineStrategy, CommEstimate, MetricKind};
use taskgraph::gen::{ExecVariation, WorkloadSpec};

const REPS: usize = 6;
const SIZES: [usize; 4] = [2, 4, 8, 16];

/// Runs `scenario` at [`SIZES`] and returns the run's (`slices_shared`,
/// `distribute` sample) counts.
fn shared_and_sliced(scenario: Scenario) -> (u64, u64) {
    let before = telemetry::global().snapshot();
    let partial = Runner::new(
        scenario
            .with_replications(REPS)
            .with_system_sizes(SIZES.to_vec()),
    )
    .threads(2)
    .run_partial()
    .unwrap();
    assert_eq!(partial.records.len(), REPS * SIZES.len());
    let after = telemetry::global().snapshot();
    (
        after.slices_shared - before.slices_shared,
        after.distribute.count - before.distribute.count,
    )
}

/// A size shares exactly when slicing reads nothing that tells it apart
/// from the replication's last sliced size: every later size on the
/// paper's bus under PURE (and under a baseline, which reads no
/// platform); none under ADAPT, whose surplus reads N_proc, or under CCAA
/// on a ring, whose per-item cost grows with N. A shared cell adds no
/// `distribute` sample.
#[test]
fn shared_cells_are_counted_exactly_and_never_sampled_as_distribution() {
    let spec = WorkloadSpec::paper(ExecVariation::Mdet);
    let paper = |metric, estimate| Scenario::paper("SHARED", spec.clone(), metric, estimate);
    let later_sizes = (REPS * (SIZES.len() - 1)) as u64;

    assert_eq!(
        shared_and_sliced(paper(MetricKind::pure(), CommEstimate::Ccne)),
        (later_sizes, REPS as u64)
    );
    assert_eq!(
        shared_and_sliced(Scenario::baseline(
            "SHARED",
            spec.clone(),
            BaselineStrategy::Ultimate
        )),
        (later_sizes, REPS as u64)
    );
    let every_cell = (REPS * SIZES.len()) as u64;
    assert_eq!(
        shared_and_sliced(paper(MetricKind::adapt(), CommEstimate::Ccne)),
        (0, every_cell)
    );
    assert_eq!(
        shared_and_sliced(
            paper(MetricKind::pure(), CommEstimate::Ccaa).with_topology(TopologyKind::Ring)
        ),
        (0, every_cell)
    );
}
