//! CI gates of the FEAST pipeline's hot paths.
//!
//! Performance is recorded by `perfbench/` (see `BENCHMARK.json`); this
//! binary records nothing. One invocation measures one fixed-seed point —
//! the schedule-stage stress point ([`STRESS_GRAPHS`] graphs) — then runs
//! every gate and exits with status 2 when one trips:
//!
//! ```text
//! cargo run --release -p bench --bin bench -- [--overhead-pct F]
//! ```
//!
//! * the **bench guard**: the schedule-stage mean at the stress point
//!   must stay within [`STRESS_SCHEDULE_LIMIT_US`];
//! * the **observatory overhead gate**: schedule the stress workload twice
//!   per iteration over identical seeds — bare, and with the runner's full
//!   per-replication telemetry accounting (stage histograms, progress
//!   tracking, gated metrics writes, miss-log) — failing if the
//!   order-balanced paired median of the schedule-stage difference exceeds
//!   the bare median by more than `--overhead-pct` percent (default 2).
//!   Run-level noise — preemption bursts, per-process code layout — only
//!   ever *inflates* the paired difference, so the first of up to
//!   [`OVERHEAD_ATTEMPTS`] attempts under budget is proof the true
//!   accounting cost is under budget.

use std::sync::Arc;
use std::time::Instant;

use feast::telemetry;
use feast::{MetricsWriter, ProgressTracker, ReplicationRecord, Runner};
use platform::{Pinning, Platform};
use sched::{BusModel, ListScheduler, MissLog, SchedWorkspace};
use slicing::{MetricKind, Slicer};
use taskgraph::gen::{generate_seeded, stream_label, stream_seed, ExecVariation, WorkloadSpec};

/// Base seed for workload generation; iteration `i` of a point draws from
/// the seed stream `stream_seed(SEED, point stream, 0, i)`, so the same
/// graphs recur across runs (the baseline was measured on them too).
const SEED: u64 = 0x000F_EA57_BE5C;

/// Processor count of the schedule-stage stress point: large enough that
/// candidate-processor estimation dominates each dispatch.
const STRESS_PROCESSORS: usize = 32;

/// Label (and seed stream) of the schedule-stage stress point: 4× paper
/// subtasks on [`STRESS_PROCESSORS`] processors under bus contention.
const STRESS_LABEL: &str = "stress";

/// Graphs measured at the stress point.
const STRESS_GRAPHS: usize = 4;

/// Limit of the stress point's schedule-stage mean: 1.25 × the 580.5 µs
/// mean of the `post-pr7` run in the frozen `BENCH_pipeline.json` history.
const STRESS_SCHEDULE_LIMIT_US: f64 = 725.625;

/// Wall-clock statistics of one pipeline stage at one point.
struct StageStats {
    mean_us: f64,
    /// Exact (nearest-rank) median.
    p50_us: u64,
}

impl StageStats {
    fn from_samples(samples: &[u64]) -> StageStats {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        StageStats {
            mean_us: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            // Exact order statistic — the same nearest-rank definition the
            // runtime histogram approximates (telemetry::percentile_reference
            // is its proptest reference).
            p50_us: telemetry::percentile_reference(&sorted, 0.50),
        }
    }
}

/// The distribute and schedule timings of one measured point.
struct BenchPoint {
    label: &'static str,
    metric: &'static str,
    distribute: StageStats,
    schedule: StageStats,
}

/// The 4× paper workload the stress point and the overhead gate draw
/// their graphs from.
fn stress_spec() -> WorkloadSpec {
    WorkloadSpec::paper(ExecVariation::Mdet)
        .with_subtasks(160..=240)
        .with_depth(32..=48)
}

/// The schedule-stage stress point: 4× paper subtasks sliced by ADAPT and
/// scheduled on [`STRESS_PROCESSORS`] processors under
/// [`BusModel::Contention`] — every dispatch estimates 32 candidate
/// processors against a mutable bus timeline, the scheduler's worst case.
/// One metric is enough: the schedule stage is metric-independent once
/// the assignment exists, and ADAPT is the headline technique.
fn measure_stress(iterations: usize) -> BenchPoint {
    let spec = stress_spec();
    let platform = Platform::paper(STRESS_PROCESSORS).expect("paper platform is valid");
    let slicer = Slicer::new(MetricKind::adapt());
    let scheduler = ListScheduler::new().with_bus_model(BusModel::Contention);
    let pinning = Pinning::new();
    // Reused across iterations — the production configuration (the runner
    // holds one workspace per worker thread).
    let mut ws = SchedWorkspace::new();

    let stream = stream_label(STRESS_LABEL.as_bytes());
    let mut dist_us = Vec::with_capacity(iterations);
    let mut sched_us = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let seed = stream_seed(SEED, stream, 0, i as u64);
        let graph = generate_seeded(&spec, seed).expect("workload spec is valid");

        let t = Instant::now();
        let assignment = slicer
            .distribute(&graph, &platform)
            .expect("distribution succeeds");
        dist_us.push(t.elapsed().as_micros() as u64);

        let t = Instant::now();
        let schedule = scheduler
            .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws)
            .expect("scheduling succeeds");
        sched_us.push(t.elapsed().as_micros() as u64);
        std::hint::black_box(schedule);
    }

    BenchPoint {
        label: STRESS_LABEL,
        metric: "ADAPT",
        distribute: StageStats::from_samples(&dist_us),
        schedule: StageStats::from_samples(&sched_us),
    }
}

/// The CI bench guard: the schedule-stage mean at the stress point — the
/// largest absolute schedule time, so the most stable signal across
/// machines — must stay within its stated limit.
fn guard(stress: &BenchPoint) -> Result<(), String> {
    let (mean, limit) = (stress.schedule.mean_us, STRESS_SCHEDULE_LIMIT_US);
    eprintln!(
        "guard: {} × {:<5} schedule mean {mean:>9.1}us (limit {limit:>9.1}us)",
        stress.label, stress.metric
    );
    if mean > limit {
        return Err(format!(
            "schedule-stage regression at the {} point ({}): \
             {mean:.1}us over the {limit}us limit",
            stress.label, stress.metric
        ));
    }
    Ok(())
}

/// Iterations of the observatory overhead gate: the per-iteration cost is
/// two stress-point schedules (~1 ms total), so a far larger count than
/// the stress point's is affordable and stabilises the paired median the
/// gate compares.
const OVERHEAD_ITERATIONS: usize = 200;

/// Overhead-gate attempts before the gate fails.
const OVERHEAD_ATTEMPTS: usize = 3;

/// The observatory overhead gate: schedules the stress workload twice per
/// iteration over identical seeds — once bare, once wrapped in the
/// per-cell accounting the runner performs for a sliced cell: the same
/// [`telemetry::account_cell`] call (three stage-histogram records,
/// schedule/audit counters and the `Replication` event, offered to the
/// process-global sink), a progress-cell record and a gated
/// `metrics.json` write attempt, with a miss-log attached to the
/// workspace. A/B order alternates every iteration so cache warming
/// cannot favour either side.
///
/// The gate statistic is the **median of order-balanced paired
/// differences**, normalised by the bare median: each iteration schedules
/// the same graph twice, so the pairwise difference isolates the
/// accounting cost; averaging each adjacent bare-first/observed-first
/// iteration pair cancels run-order bias (frequency drift, cache state)
/// per sample, and the median discards the preemption outliers that make
/// mean ratios flake on shared runners.
///
/// `Err` if the overhead exceeds `max_overhead_pct` percent.
fn overhead_gate(iterations: usize, max_overhead_pct: f64) -> Result<(), String> {
    let spec = stress_spec();
    let platform = Platform::paper(STRESS_PROCESSORS).expect("paper platform is valid");
    let slicer = Slicer::new(MetricKind::adapt());
    let scheduler = ListScheduler::new().with_bus_model(BusModel::Contention);
    let pinning = Pinning::new();
    let mut ws_bare = SchedWorkspace::new();
    let mut ws_observed = SchedWorkspace::new();
    ws_observed.set_miss_log(Some(Arc::new(MissLog::new(Runner::MISS_WARN_LIMIT))));

    let registry = telemetry::global();
    let progress = ProgressTracker::new();
    progress.configure("overhead-gate", 0, 1, iterations as u64, 0);
    let metrics_path = std::env::temp_dir().join(format!(
        "bench-overhead-{}.metrics.json",
        std::process::id()
    ));
    let writer = MetricsWriter::new(&metrics_path, Runner::METRICS_WRITE_INTERVAL);

    let stream = stream_label(b"overhead");
    let mut bare_us = Vec::with_capacity(iterations);
    let mut observed_us = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let seed = stream_seed(SEED, stream, 0, i as u64);
        let graph = generate_seeded(&spec, seed).expect("workload spec is valid");

        let t = Instant::now();
        let assignment = slicer
            .distribute(&graph, &platform)
            .expect("distribution succeeds");
        let distribute_elapsed = t.elapsed();
        // The window audit the runner times into its audit stage; it runs
        // outside both timed sides, which differ only by the accounting.
        let t = Instant::now();
        let window_violations = assignment.validate(&graph).violations().len();
        let audit_elapsed = t.elapsed();

        let mut bare = || {
            let t = Instant::now();
            let schedule = scheduler
                .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws_bare)
                .expect("scheduling succeeds");
            std::hint::black_box(schedule);
            bare_us.push(t.elapsed().as_micros() as u64);
        };
        let mut observed = || {
            let t = Instant::now();
            let schedule = scheduler
                .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws_observed)
                .expect("scheduling succeeds");
            let schedule_elapsed = t.elapsed();
            // The lateness figures are placeholders: what the accounting
            // costs does not depend on them.
            let record = ReplicationRecord {
                system_size: STRESS_PROCESSORS,
                replication: i,
                max_lateness: 0.0,
                end_to_end: 0.0,
                makespan: 0.0,
                feasible: true,
                violations: window_violations,
                window_violations: Some(window_violations),
                schedule_violations: Some(0),
            };
            telemetry::account_cell(
                "overhead-gate",
                &record,
                Some(distribute_elapsed),
                schedule_elapsed,
                audit_elapsed,
                None,
            );
            progress.record_cell(true, record.violations as u64);
            writer.maybe_write(&progress, || registry.snapshot());
            std::hint::black_box(schedule);
            observed_us.push(t.elapsed().as_micros() as u64);
        };
        if i % 2 == 0 {
            bare();
            observed();
        } else {
            observed();
            bare();
        }
    }
    std::fs::remove_file(&metrics_path).ok();

    let bare = StageStats::from_samples(&bare_us);
    let observed = StageStats::from_samples(&observed_us);
    let diffs: Vec<f64> = bare_us
        .iter()
        .zip(&observed_us)
        .map(|(&b, &o)| o as f64 - b as f64)
        .collect();
    // Fold adjacent iterations (bare-first, then observed-first) into one
    // order-balanced sample each; a trailing odd iteration is dropped.
    let mut balanced: Vec<f64> = diffs.chunks_exact(2).map(|p| (p[0] + p[1]) / 2.0).collect();
    balanced.sort_unstable_by(f64::total_cmp);
    let median_diff = balanced[balanced.len() / 2];
    let bare_p50 = bare.p50_us as f64;
    let overhead_pct = median_diff / bare_p50 * 100.0;
    eprintln!(
        "overhead gate: bare p50 {bare_p50:.0}us, paired median diff {median_diff:+.0}us \
         ({overhead_pct:+.2}%, budget {max_overhead_pct}%; means: bare {:.1}us, observed {:.1}us)",
        bare.mean_us, observed.mean_us,
    );
    if overhead_pct > max_overhead_pct {
        return Err(format!(
            "observatory overhead {overhead_pct:.2}% exceeds the {max_overhead_pct}% budget \
             (paired median diff {median_diff:+.0}us over bare p50 {bare_p50:.0}us)"
        ));
    }
    Ok(())
}

/// Parses the one flag, `--overhead-pct F`: the overhead gate's budget in
/// percent (default 2).
fn parse_overhead_pct() -> f64 {
    let mut overhead_pct = 2.0;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--overhead-pct" => {
                overhead_pct = it
                    .next()
                    .and_then(|value| value.parse().ok())
                    .expect("--overhead-pct takes a number (percent)")
            }
            "--help" | "-h" => {
                eprintln!("usage: bench [--overhead-pct F]");
                std::process::exit(0);
            }
            other => panic!("unknown argument `{other}` (try --help)"),
        }
    }
    overhead_pct
}

fn main() {
    let overhead_pct = parse_overhead_pct();

    let stress = measure_stress(STRESS_GRAPHS);
    eprintln!(
        "{:>17} × {:<5} distribute {:>11.1}us  schedule {:>9.1}us",
        stress.label, stress.metric, stress.distribute.mean_us, stress.schedule.mean_us,
    );
    if let Err(message) = guard(&stress) {
        eprintln!("bench guard FAILED: {message}");
        std::process::exit(2);
    }
    eprintln!("bench guard passed");

    let mut outcome = Err(String::new());
    for attempt in 1..=OVERHEAD_ATTEMPTS {
        outcome = overhead_gate(OVERHEAD_ITERATIONS, overhead_pct);
        match &outcome {
            // Noise only inflates the paired difference: one attempt under
            // budget proves the true cost is under budget.
            Ok(()) => break,
            Err(message) => {
                eprintln!("overhead gate attempt {attempt}/{OVERHEAD_ATTEMPTS}: {message}")
            }
        }
    }
    if let Err(message) = outcome {
        eprintln!("overhead gate FAILED: {message}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule-stage mean of the `label` × `metric` point in the last
    /// run labelled `post-pr7` of the frozen pipeline history.
    fn post_pr7_schedule_mean(label: &str, metric: &str) -> f64 {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
        let text = std::fs::read_to_string(path).expect("the frozen history is readable");
        let file: serde_json::Value = serde_json::from_str(&text).expect("the history parses");
        let field = |value: &serde_json::Value, name: &str| {
            let entries = value.as_object().expect("an object");
            entries
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| value.clone())
                .unwrap_or_else(|| panic!("no field `{name}`"))
        };
        let runs = field(&file, "runs");
        let run = runs
            .as_array()
            .expect("runs is an array")
            .iter()
            .rev()
            .find(|run| field(run, "label").as_str() == Some("post-pr7"))
            .expect("a post-pr7 run");
        let points = field(run, "points");
        let point = points
            .as_array()
            .expect("points is an array")
            .iter()
            .find(|p| {
                field(p, "size").as_str() == Some(label)
                    && field(p, "metric").as_str() == Some(metric)
            })
            .unwrap_or_else(|| panic!("no {label} × {metric} point"))
            .clone();
        match field(&field(&point, "schedule"), "mean_us") {
            serde_json::Value::F64(mean) => mean,
            other => panic!("mean_us is not a number: {other:?}"),
        }
    }

    /// The stated limit is exactly the limit the guard used to compute
    /// from the frozen history: the post-pr7 mean plus 25%.
    #[test]
    fn guard_limits_are_the_post_pr7_means_plus_25_percent() {
        assert_eq!(
            STRESS_SCHEDULE_LIMIT_US,
            post_pr7_schedule_mean(STRESS_LABEL, "ADAPT") * 1.25
        );
    }
}
