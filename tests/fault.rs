//! Fault-matrix integration tests (require `--features fault-inject`).
//!
//! Each fault class gets the same treatment the CI fault matrix gives it:
//! inject it deterministically, then assert the engine either *recovers
//! bit-identically* to a fault-free run (transient faults inside the
//! retry budget) or *degrades to typed, exactly-counted outcomes*
//! (permanent faults), never silently corrupting statistics.

#![cfg(feature = "fault-inject")]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use feast::{FaultPlan, FaultSite, FaultSpec, RunError, Runner, Scenario};
use slicing::{CommEstimate, MetricKind};
use taskgraph::gen::{ExecVariation, WorkloadSpec};

const REPS: usize = 8;
const SIZES: [usize; 2] = [2, 4];

fn scenario() -> Scenario {
    Scenario::paper(
        "PURE/CCNE",
        WorkloadSpec::paper(ExecVariation::Mdet),
        MetricKind::pure(),
        CommEstimate::Ccne,
    )
    .with_replications(REPS)
    .with_system_sizes(SIZES.to_vec())
}

/// A fresh temp-file path; the file is removed by [`TempPath`]'s Drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        TempPath(std::env::temp_dir().join(format!(
            "feast-fault-{tag}-{}-{n}.jsonl",
            std::process::id()
        )))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn transient_checkpoint_io_faults_recover_bit_identically() {
    let fault_free = Runner::new(scenario()).threads(2).run().unwrap();

    // Every cell's first two append attempts fail; the retry budget
    // (CHECKPOINT_RETRY_LIMIT) absorbs them.
    const { assert!(2 < Runner::CHECKPOINT_RETRY_LIMIT as u64) };
    let checkpoint = TempPath::new("transient-io");
    let plan =
        FaultPlan::new(0xFA).with_fault(FaultSpec::new(FaultSite::CheckpointIo, 1.0).transient(2));
    let faulted = Runner::new(scenario())
        .threads(2)
        .checkpoint(&checkpoint.0)
        .faults(plan)
        .run()
        .unwrap();
    assert_eq!(faulted, fault_free, "recovered run must be bit-identical");

    // The retried appends must actually have landed: a fault-free replay
    // of the checkpoint recomputes nothing and still matches.
    let replayed = Runner::new(scenario())
        .threads(2)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    assert_eq!(replayed, fault_free);
}

#[test]
fn permanent_checkpoint_io_faults_abort_with_a_typed_io_error() {
    let checkpoint = TempPath::new("permanent-io");
    let plan = FaultPlan::new(1).with_fault(FaultSpec::new(FaultSite::CheckpointIo, 1.0));
    let err = Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .faults(plan)
        .run()
        .unwrap_err();
    assert!(matches!(err, RunError::Io(_)), "got {err:?}");
    assert!(err
        .to_string()
        .contains("injected checkpoint write failure"));
}

#[test]
fn corrupted_checkpoint_records_are_rejected_on_resume() {
    let checkpoint = TempPath::new("corrupt");
    // Corruption is silent at write time (that is the point of the
    // fault): the run itself succeeds.
    let plan = FaultPlan::new(2).with_fault(FaultSpec::new(FaultSite::CheckpointCorrupt, 1.0));
    Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .faults(plan)
        .run()
        .unwrap();

    // Resume detects the per-record CRC mismatch and refuses the file —
    // corruption is rejected, never folded into statistics.
    let err = Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap_err();
    match err {
        RunError::CheckpointCorrupt { detail, .. } => {
            assert!(detail.contains("checksum"), "unexpected detail: {detail}");
        }
        other => panic!("expected CheckpointCorrupt, got {other:?}"),
    }
}

#[test]
fn worker_panics_degrade_to_exactly_the_planned_failed_cells() {
    let plan = FaultPlan::new(0xBEEF).with_fault(FaultSpec::new(FaultSite::WorkerPanic, 0.4));
    let expected: Vec<(usize, usize)> = SIZES
        .iter()
        .flat_map(|&size| (0..REPS).map(move |rep| (size, rep)))
        .filter(|&(size, rep)| plan.should_fire(FaultSite::WorkerPanic, size, rep, 0))
        .collect();
    assert!(
        !expected.is_empty(),
        "seed must fault at least one cell for the test to bite"
    );

    let partial = Runner::new(scenario())
        .threads(2)
        .faults(plan)
        .run_partial()
        .unwrap();
    let mut failed_cells: Vec<(usize, usize)> = partial
        .failed
        .iter()
        .map(|f| (f.system_size, f.replication))
        .collect();
    failed_cells.sort_unstable();
    assert_eq!(
        failed_cells, expected,
        "failed cells must match the plan exactly"
    );
    for f in &partial.failed {
        assert_eq!(f.stage, "panic");
        assert!(
            f.error.contains("injected worker panic"),
            "got {:?}",
            f.error
        );
    }
    assert_eq!(
        partial.records.len() + partial.failed.len(),
        SIZES.len() * REPS,
        "every cell is accounted for, as a record or a typed failure"
    );
}

#[test]
fn degraded_replications_reach_the_installed_event_sink_without_teardown() {
    use feast::telemetry;

    // Unique label: while the global sink is installed, concurrent tests'
    // events also stream into this file, so assertions filter on it.
    const LABEL: &str = "GLOBAL-SINK/FLUSH";
    let events = TempPath::new("global-sink");
    telemetry::install(telemetry::EventSink::create(&events.0).unwrap());

    let plan = FaultPlan::new(0xBEEF).with_fault(FaultSpec::new(FaultSite::WorkerPanic, 0.4));
    let expected = SIZES
        .iter()
        .flat_map(|&size| (0..REPS).map(move |rep| (size, rep)))
        .filter(|&(size, rep)| plan.should_fire(FaultSite::WorkerPanic, size, rep, 0))
        .count();
    assert!(expected > 0, "seed must fault at least one cell");

    let scenario = Scenario::paper(
        LABEL,
        WorkloadSpec::paper(ExecVariation::Mdet),
        MetricKind::pure(),
        CommEstimate::Ccne,
    )
    .with_replications(REPS)
    .with_system_sizes(SIZES.to_vec());
    Runner::new(scenario)
        .threads(2)
        .faults(plan)
        .run_partial()
        .unwrap();

    // Read the live file WITHOUT flushing or uninstalling the sink: the
    // runner itself must have pushed the degraded replications to disk
    // (it flushes the installed sink after each failure and at exit).
    let text = std::fs::read_to_string(&events.0).unwrap();
    let failed = text
        .lines()
        .filter(|l| l.contains("ReplicationFailed") && l.contains(LABEL))
        .count();
    assert_eq!(
        failed, expected,
        "events.jsonl must hold every degraded replication before teardown"
    );
    telemetry::uninstall();
}

#[test]
fn fail_fast_turns_a_worker_panic_into_an_aborting_error() {
    let plan = FaultPlan::new(0xBEEF).with_fault(FaultSpec::new(FaultSite::WorkerPanic, 0.4));
    let err = Runner::new(scenario())
        .threads(2)
        .faults(plan)
        .fail_fast(true)
        .run_partial()
        .unwrap_err();
    assert!(matches!(err, RunError::WorkerPanic(_)), "got {err:?}");
}

#[test]
fn transient_generation_rejections_recover_bit_identically() {
    let fault_free = Runner::new(scenario()).threads(2).run().unwrap();

    // Injected rejections are virtual: they burn retry budget without
    // advancing the seed sub-stream, so once the fault clears the draw
    // reproduces the fault-free graph exactly.
    const { assert!(3 < Runner::MAX_GENERATE_ATTEMPTS) };
    let plan =
        FaultPlan::new(3).with_fault(FaultSpec::new(FaultSite::GenerateReject, 1.0).transient(3));
    let faulted = Runner::new(scenario())
        .threads(2)
        .faults(plan)
        .run()
        .unwrap();
    assert_eq!(faulted, fault_free);
}

#[test]
fn permanent_generation_rejections_degrade_every_swept_size() {
    let plan = FaultPlan::new(4).with_fault(FaultSpec::new(FaultSite::GenerateReject, 1.0));
    let partial = Runner::new(scenario())
        .threads(2)
        .faults(plan.clone())
        .run_partial()
        .unwrap();
    assert!(partial.records.is_empty());
    assert_eq!(
        partial.failed.len(),
        SIZES.len() * REPS,
        "a rejected replication fails at every swept system size"
    );
    for f in &partial.failed {
        assert_eq!(f.stage, "generate");
    }

    let err = Runner::new(scenario())
        .threads(2)
        .faults(plan)
        .fail_fast(true)
        .run_partial()
        .unwrap_err();
    assert!(
        matches!(err, RunError::GenerateRejected { .. }),
        "got {err:?}"
    );
}

#[test]
fn cancel_races_leave_a_resumable_checkpoint() {
    let fault_free = Runner::new(scenario()).threads(2).run().unwrap();

    let checkpoint = TempPath::new("cancel-race");
    let plan = FaultPlan::new(5).with_fault(FaultSpec::new(FaultSite::CancelRace, 1.0));
    let err = Runner::new(scenario())
        .threads(2)
        .checkpoint(&checkpoint.0)
        .faults(plan)
        .run()
        .unwrap_err();
    assert!(matches!(err, RunError::Cancelled), "got {err:?}");

    // The racing cancellation landed *after* the checkpoint append: the
    // completed cells survive and a fault-free resume finishes the sweep
    // bit-identically.
    let resumed = Runner::new(scenario())
        .threads(2)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    assert_eq!(resumed, fault_free);
}

#[test]
fn a_panic_at_a_replications_first_size_leaves_nothing_to_share() {
    // PURE on the bus shares each replication's first slice with its later
    // size. A panic at the first size must leave the later size to slice
    // on its own, bit-identically, and a fault-free resume must fill the
    // panicked cells in to the uninterrupted result.
    let plan = FaultPlan::new(0xBEEF).with_fault(FaultSpec::new(FaultSite::WorkerPanic, 0.4));
    let fires = |size, rep| plan.should_fire(FaultSite::WorkerPanic, size, rep, 0);
    let first_only: Vec<usize> = (0..REPS)
        .filter(|&rep| fires(SIZES[0], rep) && !fires(SIZES[1], rep))
        .collect();
    assert!(
        !first_only.is_empty(),
        "seed must fault some replication at its first size only"
    );

    let uninterrupted = Runner::new(scenario()).threads(2).run_partial().unwrap();
    let checkpoint = TempPath::new("first-size-panic");
    let faulted = Runner::new(scenario())
        .threads(2)
        .checkpoint(&checkpoint.0)
        .faults(plan)
        .run_partial()
        .unwrap();
    for rep in first_only {
        let later = |records: &[feast::ReplicationRecord]| {
            records
                .iter()
                .find(|r| (r.system_size, r.replication) == (SIZES[1], rep))
                .copied()
        };
        assert!(later(&faulted.records).is_some());
        assert_eq!(later(&faulted.records), later(&uninterrupted.records));
    }
    assert!(faulted
        .records
        .iter()
        .all(|r| uninterrupted.records.contains(r)));

    let resumed = Runner::new(scenario())
        .threads(2)
        .checkpoint(&checkpoint.0)
        .run_partial()
        .unwrap();
    assert_eq!(resumed, uninterrupted);
}
