//! Integration tests of the sharded, resumable experiment engine: shard
//! merging and checkpoint resumption must reproduce a monolithic run
//! bit for bit, cancellation must be clean and resumable, and every
//! failure path must surface as a typed [`RunError`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use feast::{
    PartialResult, ReplicationRecord, RunError, Runner, Scenario, ScenarioError, ShardSpec,
};
use slicing::{CommEstimate, MetricKind};
use taskgraph::gen::{ExecVariation, WorkloadSpec};

fn scenario() -> Scenario {
    Scenario::paper(
        "PURE/CCNE",
        WorkloadSpec::paper(ExecVariation::Mdet),
        MetricKind::pure(),
        CommEstimate::Ccne,
    )
    .with_replications(12)
    .with_system_sizes(vec![2, 8])
}

/// A fresh temp-file path; the file is removed by [`TempPath`]'s Drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        TempPath(std::env::temp_dir().join(format!(
            "feast-engine-{tag}-{}-{n}.jsonl",
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
fn sharded_and_merged_equals_monolithic() {
    let monolithic = Runner::new(scenario()).threads(2).run().unwrap();
    let parts: Vec<PartialResult> = (0..4)
        .map(|i| {
            Runner::new(scenario())
                .threads(2)
                .shard(ShardSpec::new(i, 4))
                .run_partial()
                .unwrap()
        })
        .collect();
    // Each shard owns a quarter of the 12 replications at both sizes.
    for part in &parts {
        assert_eq!(part.records.len(), 2 * 3);
    }
    let merged = PartialResult::merge(&parts).unwrap();
    // Bit-identical f64 statistics, not approximately equal.
    assert_eq!(merged, monolithic);
}

#[test]
fn merge_order_does_not_matter() {
    let mut parts: Vec<PartialResult> = (0..3)
        .map(|i| {
            Runner::new(scenario())
                .threads(1)
                .shard(ShardSpec::new(i, 3))
                .run_partial()
                .unwrap()
        })
        .collect();
    let forward = PartialResult::merge(&parts).unwrap();
    parts.reverse();
    let backward = PartialResult::merge(&parts).unwrap();
    assert_eq!(forward, backward);
}

#[test]
fn resumed_run_equals_uninterrupted_run() {
    let checkpoint = TempPath::new("resume");
    let uninterrupted = Runner::new(scenario()).threads(2).run().unwrap();

    // First pass: compute only shard 0 of 2 into the checkpoint, as if the
    // sweep had been killed partway through.
    let partial = Runner::new(scenario())
        .threads(2)
        .shard(ShardSpec::new(0, 2))
        .checkpoint(&checkpoint.0)
        .run_partial()
        .unwrap();
    assert!(partial.records.len() < 2 * 12);

    // Second pass: a full run against the same checkpoint resumes — it
    // recomputes only the missing cells and must match exactly.
    let resumed = Runner::new(scenario())
        .threads(2)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    assert_eq!(resumed, uninterrupted);

    // Third pass: everything is checkpointed now, nothing to compute.
    let replayed = Runner::new(scenario())
        .threads(2)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    assert_eq!(replayed, uninterrupted);
}

#[test]
fn cancelled_run_preserves_checkpoint_for_resumption() {
    let checkpoint = TempPath::new("cancel");
    let runner = Runner::new(scenario()).threads(1).checkpoint(&checkpoint.0);
    let token = runner.cancel_token();
    token.cancel();
    assert!(matches!(runner.run(), Err(RunError::Cancelled)));

    // The checkpoint was created with a valid header; resuming completes
    // the sweep and matches an uninterrupted run.
    let resumed = Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    let uninterrupted = Runner::new(scenario()).threads(1).run().unwrap();
    assert_eq!(resumed, uninterrupted);
}

#[test]
fn checkpoint_of_different_scenario_is_rejected() {
    let checkpoint = TempPath::new("mismatch");
    Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();

    let other = scenario().with_base_seed(1);
    let err = Runner::new(other)
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap_err();
    assert!(matches!(err, RunError::CheckpointMismatch { .. }));
}

#[test]
fn checkpoint_without_header_is_corrupt() {
    let checkpoint = TempPath::new("corrupt");
    std::fs::write(&checkpoint.0, "not json\n").unwrap();
    let err = Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap_err();
    assert!(matches!(err, RunError::CheckpointCorrupt { .. }));
}

#[test]
fn checkpoint_tolerates_torn_trailing_line() {
    let checkpoint = TempPath::new("torn");
    Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    // Simulate a write torn by a kill: append half a JSON record.
    let mut text = std::fs::read_to_string(&checkpoint.0).unwrap();
    text.push_str("{\"Record\":{\"system_size\":2,\"repl");
    std::fs::write(&checkpoint.0, text).unwrap();

    let resumed = Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    let uninterrupted = Runner::new(scenario()).threads(1).run().unwrap();
    assert_eq!(resumed, uninterrupted);
}

#[test]
fn sweep_killed_twice_resumes_to_the_uninterrupted_result() {
    let checkpoint = TempPath::new("kill-twice");
    let uninterrupted = Runner::new(scenario()).threads(2).run().unwrap();

    // First kill: shard 0 of 2 is checkpointed, then a write is torn
    // mid-record.
    Runner::new(scenario())
        .threads(2)
        .shard(ShardSpec::new(0, 2))
        .checkpoint(&checkpoint.0)
        .run_partial()
        .unwrap();
    let mut text = std::fs::read_to_string(&checkpoint.0).unwrap();
    text.push_str("{\"Sealed\":{\"crc\":12,\"record\":{\"system_size\":2,\"repl");
    std::fs::write(&checkpoint.0, text).unwrap();

    // The resume appends the missing cells; the fragment must not absorb
    // the first of them, or the next resume meets it mid-file.
    let resumed = Runner::new(scenario())
        .threads(2)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    assert_eq!(resumed, uninterrupted);

    // Second kill, after the resume finished: resuming again still loads.
    let again = Runner::new(scenario())
        .threads(2)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    assert_eq!(again, uninterrupted);
}

#[test]
fn checkpoint_survives_extending_the_sweep() {
    // A checkpoint's fingerprint covers the scenario physics, not the sweep
    // shape: extending replications or sizes reuses the completed cells.
    let checkpoint = TempPath::new("extend");
    Runner::new(scenario().with_replications(6))
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    let extended = Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    let uninterrupted = Runner::new(scenario()).threads(1).run().unwrap();
    assert_eq!(extended, uninterrupted);
}

/// The `(system size, replication)` cell of every record line of a
/// checkpoint, in file order; none before the file exists.
fn checkpoint_cells(path: &std::path::Path) -> Vec<(usize, usize)> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .skip(1)
        .map(|line| {
            // `{"Sealed":{"crc":…,"record":{…}}}`
            let start = line.find("\"record\":").expect("a sealed record") + "\"record\":".len();
            let record: ReplicationRecord =
                serde_json::from_str(&line[start..line.len() - 2]).unwrap();
            (record.system_size, record.replication)
        })
        .collect()
}

/// The cells of `sizes` × `reps`, sorted.
fn grid(sizes: &[usize], reps: std::ops::Range<usize>) -> Vec<(usize, usize)> {
    sizes
        .iter()
        .flat_map(|&size| reps.clone().map(move |rep| (size, rep)))
        .collect()
}

#[test]
fn resume_into_more_sizes_computes_only_the_missing_cells() {
    // A replication resumed at more sizes than its checkpoint holds runs
    // only the sizes it misses: the fingerprint ignores the sweep shape.
    let checkpoint = TempPath::new("grow-sizes");
    let reps = scenario().replications;
    let resume = |scenario: Scenario| {
        let before = checkpoint_cells(&checkpoint.0);
        let resumed = Runner::new(scenario.clone())
            .threads(2)
            .checkpoint(&checkpoint.0)
            .run()
            .unwrap();
        let uninterrupted = Runner::new(scenario).threads(2).run().unwrap();
        assert_eq!(resumed, uninterrupted);
        let after = checkpoint_cells(&checkpoint.0);
        assert_eq!(after[..before.len()], before[..]);
        let mut added = after[before.len()..].to_vec();
        added.sort_unstable();
        added
    };
    assert_eq!(resume(scenario()), grid(&[2, 8], 0..reps));

    let grown = scenario().with_system_sizes(vec![2, 4, 8, 16]);
    assert_eq!(
        resume(grown),
        grid(&[4, 16], 0..reps),
        "exactly the 2 x reps missing cells"
    );

    // Two new replications need every size, so every size's platform is
    // built; the old replications still run only the one size they miss.
    let mut expected = grid(&[6], 0..reps);
    expected.extend(grid(&[2, 4, 6, 8, 16], reps..reps + 2));
    expected.sort_unstable();
    let wider = scenario()
        .with_system_sizes(vec![2, 4, 6, 8, 16])
        .with_replications(reps + 2);
    assert_eq!(resume(wider), expected);
}

#[test]
fn duplicate_sizes_run_each_cell_once() {
    let checkpoint = TempPath::new("dup-sizes");
    let reps = scenario().replications;
    let result = Runner::new(scenario().with_system_sizes(vec![2, 8, 2]))
        .threads(2)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    let mut cells = checkpoint_cells(&checkpoint.0);
    cells.sort_unstable();
    assert_eq!(
        cells,
        grid(&[2, 8], 0..reps),
        "one checkpoint line per unique cell"
    );

    // The sweep keeps its shape: the repeated size folds the same cells.
    let sizes: Vec<usize> = result.points.iter().map(|p| p.system_size).collect();
    assert_eq!(sizes, vec![2, 8, 2]);
    assert_eq!(result.points[0], result.points[2]);
    let plain = Runner::new(scenario()).threads(1).run().unwrap();
    assert_eq!(result.points[..2], plain.points[..]);
}

#[test]
fn merge_rejects_mismatched_and_incomplete_parts() {
    let part0 = Runner::new(scenario())
        .threads(1)
        .shard(ShardSpec::new(0, 2))
        .run_partial()
        .unwrap();
    let part1 = Runner::new(scenario())
        .threads(1)
        .shard(ShardSpec::new(1, 2))
        .run_partial()
        .unwrap();

    assert!(matches!(
        PartialResult::merge(&[]),
        Err(RunError::MergeMismatch(_))
    ));
    assert!(matches!(
        PartialResult::merge(std::slice::from_ref(&part0)),
        Err(RunError::MergeIncomplete { missing: 12 })
    ));

    let foreign = Runner::new(scenario().with_base_seed(7))
        .threads(1)
        .shard(ShardSpec::new(1, 2))
        .run_partial()
        .unwrap();
    assert!(matches!(
        PartialResult::merge(&[part0.clone(), foreign]),
        Err(RunError::MergeMismatch(_))
    ));

    let mut renamed = part1.clone();
    renamed.label = "OTHER".to_owned();
    assert!(matches!(
        PartialResult::merge(&[part0.clone(), renamed]),
        Err(RunError::MergeMismatch(_))
    ));

    // Overlapping parts are fine: determinism makes duplicates identical.
    let whole = Runner::new(scenario()).threads(1).run().unwrap();
    let merged = PartialResult::merge(&[part0.clone(), part1.clone(), part0]).unwrap();
    assert_eq!(merged, whole);
    drop(part1);
}

#[test]
fn partial_result_round_trips_through_json() {
    let part = Runner::new(scenario())
        .threads(1)
        .shard(ShardSpec::new(0, 3))
        .run_partial()
        .unwrap();
    let json = serde_json::to_string(&part).unwrap();
    let back: PartialResult = serde_json::from_str(&json).unwrap();
    // Exact f64 round-trip: the merge of serialized parts must still be
    // bit-identical, which is what shard workers on other machines rely on.
    assert_eq!(part, back);
}

#[test]
fn replication_record_round_trips_through_json() {
    let record = ReplicationRecord {
        system_size: 8,
        replication: 3,
        max_lateness: -28.062_5,
        end_to_end: -35.929_687_5,
        makespan: 583.023_437_5,
        feasible: true,
        violations: 0,
        window_violations: Some(0),
        schedule_violations: Some(0),
    };
    let json = serde_json::to_string(&record).unwrap();
    let back: ReplicationRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(record, back);

    // Records written before the audit split carry no counters; they must
    // still deserialize (as None) rather than fail the checkpoint load.
    let legacy = "{\"system_size\":8,\"replication\":3,\"max_lateness\":-28.0625,\
                  \"end_to_end\":-35.9296875,\"makespan\":583.0234375,\
                  \"feasible\":true,\"violations\":0}";
    let back: ReplicationRecord = serde_json::from_str(legacy).unwrap();
    assert_eq!(back.window_violations, None);
    assert_eq!(back.schedule_violations, None);
    assert_eq!(back.violations, 0);
}

#[test]
fn checkpoint_rejects_mid_file_corruption() {
    let checkpoint = TempPath::new("midfile");
    Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    // Flip one digit in a sealed mid-file record: the line still parses,
    // so only the per-record checksum can notice.
    let text = std::fs::read_to_string(&checkpoint.0).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 3, "expected header + several records");
    let target = lines[2];
    let digit = target
        .char_indices()
        .rfind(|(_, c)| c.is_ascii_digit())
        .expect("record has digits");
    let mut corrupted = target.to_owned();
    corrupted.replace_range(digit.0..digit.0 + 1, if digit.1 == '9' { "0" } else { "9" });
    assert_ne!(corrupted, target);
    let mut rewritten: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
    rewritten[2] = corrupted;
    std::fs::write(&checkpoint.0, rewritten.join("\n") + "\n").unwrap();

    let err = Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap_err();
    match err {
        RunError::CheckpointCorrupt { detail, .. } => {
            assert!(
                detail.contains("checksum"),
                "expected a checksum complaint, got: {detail}"
            );
        }
        other => panic!("expected CheckpointCorrupt, got {other:?}"),
    }
}

#[test]
fn checkpoint_reads_legacy_unsealed_records() {
    // Checkpoints written before per-record checksums used a bare `Record`
    // line. Rewrite a fresh checkpoint into that shape and resume from it.
    let checkpoint = TempPath::new("legacy");
    Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    let text = std::fs::read_to_string(&checkpoint.0).unwrap();
    let mut rewritten = String::new();
    for line in text.lines() {
        let value: serde::Value = serde_json::from_str(line).unwrap();
        let is_sealed = matches!(
            &value,
            serde::Value::Object(entries) if entries.iter().any(|(k, _)| k == "Sealed")
        );
        if is_sealed {
            let serde::Value::Object(entries) = value else {
                unreachable!()
            };
            let sealed = entries.into_iter().find(|(k, _)| k == "Sealed").unwrap().1;
            let serde::Value::Object(fields) = sealed else {
                panic!("Sealed is an object")
            };
            let record = fields.into_iter().find(|(k, _)| k == "record").unwrap().1;
            let legacy = serde::Value::Object(vec![("Record".to_owned(), record)]);
            rewritten.push_str(&serde_json::to_string(&legacy).unwrap());
            rewritten.push('\n');
        } else {
            rewritten.push_str(line);
            rewritten.push('\n');
        }
    }
    assert!(rewritten.contains("\"Record\""));
    std::fs::write(&checkpoint.0, rewritten).unwrap();

    let resumed = Runner::new(scenario())
        .threads(1)
        .checkpoint(&checkpoint.0)
        .run()
        .unwrap();
    let uninterrupted = Runner::new(scenario()).threads(1).run().unwrap();
    assert_eq!(resumed, uninterrupted);
}

#[test]
fn validation_errors_are_typed() {
    let err = Runner::new(scenario().with_replications(0))
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        RunError::Scenario(ScenarioError::NoReplications)
    ));

    let err = Runner::new(scenario().with_system_sizes(vec![]))
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        RunError::Scenario(ScenarioError::NoSystemSizes)
    ));

    let err = Runner::new(scenario().with_system_sizes(vec![2, 0]))
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        RunError::Scenario(ScenarioError::ZeroSystemSize)
    ));

    let err = Runner::new(scenario())
        .shard(ShardSpec::new(5, 2))
        .run_partial()
        .unwrap_err();
    assert!(matches!(err, RunError::InvalidShard { index: 5, count: 2 }));

    let err = Runner::new(scenario())
        .shard(ShardSpec::new(0, 2))
        .run()
        .unwrap_err();
    assert!(matches!(err, RunError::ShardedRun { count: 2 }));
}
