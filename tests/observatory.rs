//! Integration coverage of the sweep observatory: histogram percentile
//! correctness against an exact sorted-vector reference, snapshot
//! merge/delta algebra, registry reset/serde completeness (exhaustive
//! destructures that fail to compile when a field is added but not
//! covered), and the runner's progress + `metrics.json` surface.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use feast::progress::METRICS_SCHEMA;
use feast::telemetry::{percentile_reference, MetricsSnapshot, Registry, Stage, StageSnapshot};
use feast::{MetricsFile, ProgressTracker, Runner, Scenario};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slicing::{CommEstimate, MetricKind};
use taskgraph::gen::{ExecVariation, WorkloadSpec};

/// Strategy: a non-empty vector of microsecond-scale duration samples
/// spanning seven orders of magnitude (the vendored proptest shim has no
/// collection strategies, so the vector is derived from a drawn seed).
fn duration_samples() -> impl Strategy<Value = Vec<u64>> {
    (1usize..200, 0u64..u64::MAX).prop_map(|(len, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..10_000_000u64)).collect()
    })
}

/// The log2 bucket a microsecond value falls into, clamped to the
/// histogram's top bucket — the resolution unit of the percentile
/// guarantee.
fn log2_bucket(us: u64) -> u32 {
    (64 - us.leading_zeros()).min(31)
}

/// Records `samples` (as microsecond durations) into one stage of a fresh
/// registry and returns that stage's snapshot.
fn snapshot_of(samples: &[u64]) -> StageSnapshot {
    let registry = Registry::default();
    for &us in samples {
        registry.record_stage(Stage::Schedule, Duration::from_micros(us));
    }
    registry.snapshot().schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The histogram's percentile estimate always lands in the same log2
    /// bucket as the exact nearest-rank order statistic of the recorded
    /// samples, for any sample set and any probe probability.
    #[test]
    fn histogram_percentiles_match_reference_within_one_bucket(
        samples in duration_samples(),
        probe in 0.01f64..1.0,
    ) {
        let snap = snapshot_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [probe, 0.50, 0.90, 0.99] {
            let estimate = snap.percentile_us(p);
            let exact = percentile_reference(&sorted, p);
            prop_assert_eq!(log2_bucket(estimate), log2_bucket(exact));
            prop_assert!(estimate <= snap.max_us);
        }
        prop_assert_eq!(snap.max_us, *sorted.last().unwrap());
        prop_assert_eq!(snap.count, sorted.len() as u64);
    }

    /// Merging two snapshots is indistinguishable from recording both
    /// sample sets into a single histogram, and the delta of a later
    /// snapshot against an earlier one of the same histogram recovers the
    /// later samples' counts and totals.
    #[test]
    fn snapshot_merge_and_delta_match_single_histogram(
        a in duration_samples(),
        b in duration_samples(),
    ) {
        let combined: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(snapshot_of(&a).merge(&snapshot_of(&b)), snapshot_of(&combined));

        // Delta: record `a`, snapshot, record `b` on top, snapshot again.
        let registry = Registry::default();
        for &us in &a {
            registry.record_stage(Stage::Schedule, Duration::from_micros(us));
        }
        let earlier = registry.snapshot().schedule;
        for &us in &b {
            registry.record_stage(Stage::Schedule, Duration::from_micros(us));
        }
        let delta = registry.snapshot().schedule.delta(&earlier);
        prop_assert_eq!(delta.count, b.len() as u64);
        prop_assert_eq!(delta.total_us, b.iter().sum::<u64>());
    }
}

/// Asserts every field of `snap` satisfies `check`. The destructures are
/// exhaustive (no `..`), so adding a field to `MetricsSnapshot` or
/// `StageSnapshot` without extending this helper — and therefore the
/// reset/round-trip coverage below — is a compile error.
fn for_every_field(snap: &MetricsSnapshot, check: impl Fn(&str, u64)) {
    let MetricsSnapshot {
        graphs_generated,
        schedules_built,
        feasibility_failures,
        structural_violations,
        window_violations,
        schedule_violations,
        replications_failed,
        checkpoint_retries,
        slices_shared,
        admissions_admitted,
        admissions_rejected,
        admissions_shed,
        admissions_worker_failed,
        admissions_evicted,
        admissions_prefiltered,
        admission_log_retries,
        admission_log_failures,
        slice_cache_hits,
        slice_cache_misses,
        slice_cache_evictions,
        admission,
        admission_sojourn,
        generate,
        distribute,
        schedule,
        audit,
    } = snap;
    for (name, value) in [
        ("graphs_generated", *graphs_generated),
        ("schedules_built", *schedules_built),
        ("feasibility_failures", *feasibility_failures),
        ("structural_violations", *structural_violations),
        ("window_violations", *window_violations),
        ("schedule_violations", *schedule_violations),
        ("replications_failed", *replications_failed),
        ("checkpoint_retries", *checkpoint_retries),
        ("slices_shared", *slices_shared),
        ("admissions_admitted", *admissions_admitted),
        ("admissions_rejected", *admissions_rejected),
        ("admissions_shed", *admissions_shed),
        ("admissions_worker_failed", *admissions_worker_failed),
        ("admissions_evicted", *admissions_evicted),
        ("admissions_prefiltered", *admissions_prefiltered),
        ("admission_log_retries", *admission_log_retries),
        ("admission_log_failures", *admission_log_failures),
        ("slice_cache_hits", *slice_cache_hits),
        ("slice_cache_misses", *slice_cache_misses),
        ("slice_cache_evictions", *slice_cache_evictions),
    ] {
        check(name, value);
    }
    for (stage, snap) in [
        ("admission", admission),
        ("admission_sojourn", admission_sojourn),
        ("generate", generate),
        ("distribute", distribute),
        ("schedule", schedule),
        ("audit", audit),
    ] {
        let StageSnapshot {
            count,
            total_us,
            mean_us,
            p50_us,
            p90_us,
            p99_us,
            max_us,
            buckets,
        } = snap;
        for (field, value) in [
            ("count", *count),
            ("total_us", *total_us),
            ("mean_us", *mean_us),
            ("p50_us", *p50_us),
            ("p90_us", *p90_us),
            ("p99_us", *p99_us),
            ("max_us", *max_us),
            ("buckets_len", buckets.len() as u64),
        ] {
            check(&format!("{stage}.{field}"), value);
        }
    }
}

/// A registry with every counter and every stage histogram non-zero.
fn populated_registry() -> Registry {
    let registry = Registry::default();
    for stage in Stage::ALL {
        registry.record_stage(stage, Duration::from_micros(123));
    }
    registry.graphs_generated.inc();
    registry.count_schedule(false, 3);
    registry.count_audit(2, 1);
    registry.replications_failed.inc();
    registry.checkpoint_retries.inc();
    registry.slices_shared.inc();
    registry.record_admission(true, Duration::from_micros(45));
    registry.record_admission(false, Duration::from_micros(60));
    registry.admission_sojourn.record(Duration::from_micros(90));
    registry.admissions_shed.inc();
    registry.admissions_worker_failed.inc();
    registry.admissions_evicted.inc();
    registry.admission_log_retries.inc();
    registry.admission_log_failures.inc();
    registry.admissions_prefiltered.inc();
    registry.slice_cache_hits.inc();
    registry.slice_cache_misses.inc();
    registry.slice_cache_evictions.inc();
    registry
}

#[test]
fn registry_reset_clears_every_field() {
    let registry = populated_registry();
    // Guard the guard: the populated registry must touch every field, or
    // the cleared-after-reset assertion below would pass vacuously.
    for_every_field(&registry.snapshot(), |name, value| {
        assert!(value > 0, "populated registry left `{name}` at zero");
    });
    registry.reset();
    for_every_field(&registry.snapshot(), |name, value| {
        assert_eq!(value, 0, "reset left `{name}` at {value}");
    });
}

#[test]
fn metrics_snapshot_round_trips_through_json() {
    let snap = populated_registry().snapshot();
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
    assert_eq!(snap, back);
    // The exhaustive walk also pins the deserialized copy field by field,
    // so a field silently dropped by serde plumbing cannot hide behind a
    // (then equally incomplete) PartialEq.
    for_every_field(&back, |name, value| {
        assert!(value > 0, "round trip lost `{name}`");
    });
}

/// `metrics.json`'s telemetry section, byte for byte: the field names,
/// their order and every derived histogram statistic of the populated
/// registry. A change here breaks every consumer of existing snapshots.
#[test]
fn metrics_snapshot_json_is_byte_stable() {
    const HISTOGRAM_123: &str = r#"{"count":1,"total_us":123,"mean_us":123,"p50_us":123,"p90_us":123,"p99_us":123,"max_us":123,"buckets":[[128,1]]}"#;
    let golden = [
        r#"{"graphs_generated":1,"schedules_built":1,"feasibility_failures":1,"#,
        r#""structural_violations":3,"window_violations":2,"schedule_violations":1,"#,
        r#""replications_failed":1,"checkpoint_retries":1,"slices_shared":1,"#,
        r#""admissions_admitted":1,"admissions_rejected":1,"admissions_shed":1,"#,
        r#""admissions_worker_failed":1,"admissions_evicted":1,"admissions_prefiltered":1,"#,
        r#""slice_cache_hits":1,"slice_cache_misses":1,"slice_cache_evictions":1,"#,
        r#""admission_log_retries":1,"admission_log_failures":1,"#,
        r#""admission":{"count":2,"total_us":105,"mean_us":52,"p50_us":60,"p90_us":60,"#,
        r#""p99_us":60,"max_us":60,"buckets":[[64,2]]},"#,
        r#""admission_sojourn":{"count":1,"total_us":90,"mean_us":90,"p50_us":90,"#,
        r#""p90_us":90,"p99_us":90,"max_us":90,"buckets":[[128,1]]},"#,
        r#""generate":"#,
        HISTOGRAM_123,
        r#","distribute":"#,
        HISTOGRAM_123,
        r#","schedule":"#,
        HISTOGRAM_123,
        r#","audit":"#,
        HISTOGRAM_123,
        "}",
    ]
    .concat();
    let json = serde_json::to_string(&populated_registry().snapshot()).expect("serializes");
    assert_eq!(json, golden);
}

/// A snapshot written before the incremental-delta and admission metrics
/// existed lacks their keys; it still parses, and the missing metrics read
/// as zero counters and empty histograms.
#[test]
fn legacy_snapshot_without_delta_and_admission_keys_parses() {
    const HISTOGRAM: &str = r#"{"count":2,"total_us":30,"mean_us":15,"p50_us":15,"p90_us":15,"p99_us":15,"max_us":15,"buckets":[[16,2]]}"#;
    let legacy = [
        r#"{"graphs_generated":2,"schedules_built":2,"feasibility_failures":1,"#,
        r#""structural_violations":0,"window_violations":0,"schedule_violations":0,"#,
        r#""replications_failed":0,"checkpoint_retries":0,"generate":"#,
        HISTOGRAM,
        r#","distribute":"#,
        HISTOGRAM,
        r#","schedule":"#,
        HISTOGRAM,
        r#","audit":"#,
        HISTOGRAM,
        "}",
    ]
    .concat();
    let snap: MetricsSnapshot = serde_json::from_str(&legacy).expect("legacy snapshot parses");
    let histogram: StageSnapshot = serde_json::from_str(HISTOGRAM).expect("histogram parses");
    let mut expected = Registry::default().snapshot();
    expected.graphs_generated = 2;
    expected.schedules_built = 2;
    expected.feasibility_failures = 1;
    expected.generate = histogram.clone();
    expected.distribute = histogram.clone();
    expected.schedule = histogram.clone();
    expected.audit = histogram;
    assert_eq!(snap, expected);

    // A key that is present must still hold a value of its type.
    let null_count = legacy.replace(r#""graphs_generated":2"#, r#""graphs_generated":null"#);
    assert!(serde_json::from_str::<MetricsSnapshot>(&null_count).is_err());
}

/// A unique temp path removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("feast-observatory-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir creates");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn runner_feeds_progress_and_writes_metrics_file() {
    let dir = TempDir::new("runner");
    let metrics_path = dir.0.join("metrics.json");
    let scenario = Scenario::paper(
        "OBS/IT",
        WorkloadSpec::paper(ExecVariation::Mdet),
        MetricKind::pure(),
        CommEstimate::Ccne,
    )
    .with_replications(4)
    .with_system_sizes(vec![2, 4]);

    let tracker = Arc::new(ProgressTracker::new());
    let result = Runner::new(scenario)
        .threads(2)
        .progress(Arc::clone(&tracker))
        .metrics_out(&metrics_path)
        .run()
        .expect("sweep completes");
    assert_eq!(result.points.len(), 2);

    // The shared tracker saw the whole run: 4 replications × 2 sizes.
    let snap = tracker.snapshot();
    assert_eq!(snap.total, 8);
    assert_eq!(snap.done, 8);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.outcome.as_deref(), Some("complete"));
    assert_eq!(snap.eta_s, 0.0);
    assert!((snap.fraction_done() - 1.0).abs() < 1e-12);

    // The at-exit metrics.json reflects the same terminal state and a
    // consistent telemetry section (global registry: `>=` because other
    // tests in this binary may run pipelines concurrently).
    let text = std::fs::read_to_string(&metrics_path).expect("metrics.json written");
    let file: MetricsFile = serde_json::from_str(&text).expect("metrics.json parses");
    assert_eq!(file.schema, METRICS_SCHEMA);
    assert_eq!(file.progress.done, 8);
    assert_eq!(file.progress.outcome.as_deref(), Some("complete"));
    assert!(file.metrics.schedule.count >= 8);
    assert!(file.metrics.audit.count >= 8);
    assert!(file.metrics.schedule.p99_us >= file.metrics.schedule.p50_us);
    assert!(file.metrics.schedule.max_us >= file.metrics.schedule.p99_us);
    assert!(
        !metrics_path.with_extension("json.tmp").exists(),
        "atomic write must not leave its temp file behind"
    );
}
