//! The `sweep-paper` workload: the Figure 5 technique set (PURE,
//! THRES Δ=1, ADAPT; all CCNE) over LDET/MDET/HDET and the paper's system
//! sizes 2–16, run through `Runner::threads(2)` with a checkpoint file.
//!
//! * End-to-end run: sweep rounds alternate with rounds that time single
//!   cells (one graph on one system size: `Pipeline::slice` + `trial`)
//!   back to back.
//! * Traced run: sweep rounds with and without the checkpoint and on one
//!   thread, then the sweep replayed cell by cell through the public layer
//!   calls (`generate_seeded`, `Slicer::distribute`,
//!   `ListScheduler::schedule_with`, the two audits), each record checked
//!   against the runner's.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use feast::{Pipeline, ReplicationRecord, RunError, Runner, Scenario, ScenarioResult};
use platform::Platform;
use sched::{LatenessReport, SchedWorkspace};
use slicing::{CommEstimate, MetricKind};
use taskgraph::gen::{
    generate_seeded, stream_label, stream_seed, sub_stream, ExecVariation, WorkloadSpec,
};
use taskgraph::TaskGraph;

use crate::mirror::Layers;
use crate::stats::{elementwise_median, mean, median, per, quantile};
use crate::trace::Tracer;
use crate::{repeat_setup, Report, THROUGHPUT_QUANTILE};

/// Replications per scenario in a sweep round: the paper's 128.
const REPLICATIONS: usize = 128;
/// Replications per scenario whose cells a latency round times.
const LATENCY_REPLICATIONS: usize = 16;
/// The runner's threads: the machine's two cores.
const THREADS: usize = 2;
/// The runner's bounded retry of rejected workload draws.
const GENERATE_ATTEMPTS: u64 = Runner::MAX_GENERATE_ATTEMPTS;
const MIN_ROUNDS: usize = 3;

/// The nine Figure 5 scenarios: three techniques in each variation panel.
fn scenarios(seed: u64, replications: usize) -> Vec<Scenario> {
    let techniques = [
        ("PURE", MetricKind::pure()),
        ("THRES d=1", MetricKind::thres(1.0)),
        ("ADAPT", MetricKind::adapt()),
    ];
    ExecVariation::paper_scenarios()
        .into_iter()
        .flat_map(|variation| {
            techniques.iter().map(move |(label, metric)| {
                Scenario::paper(
                    format!("{label} {}", variation.label()),
                    WorkloadSpec::paper(variation),
                    *metric,
                    CommEstimate::Ccne,
                )
                .with_replications(replications)
                .with_base_seed(seed)
            })
        })
        .collect()
}

/// Replication `rep`'s graph, drawn as the runner draws it.
fn graph(scenario: &Scenario, rep: usize) -> Result<TaskGraph, String> {
    let workload =
        serde_json::to_string(&scenario.workload).map_err(|e| format!("workload: {e}"))?;
    let seed = stream_seed(
        scenario.base_seed,
        stream_label(workload.as_bytes()),
        0,
        rep as u64,
    );
    (0..GENERATE_ATTEMPTS)
        .find_map(|attempt| {
            generate_seeded(scenario.workload.spec(), sub_stream(seed, attempt)).ok()
        })
        .ok_or_else(|| format!("replication {rep} generated no workload"))
}

fn platform(scenario: &Scenario, size: usize) -> Result<Platform, String> {
    let topology = scenario.topology.build(size, scenario.cost_per_item);
    Platform::homogeneous(size, topology).map_err(|e| format!("platform: {e}"))
}

fn checkpoint(scratch: &Path, index: usize) -> PathBuf {
    scratch.join(format!("sweep-{index}.ckpt.jsonl"))
}

/// One sweep round: every scenario through a fresh runner, checkpointed
/// under `scratch` when given. `run` is `Runner::run`, or
/// `Runner::run_partial` where the per-replication records are wanted.
fn sweep_round<T>(
    scenarios: &[Scenario],
    scratch: Option<&Path>,
    threads: usize,
    run: fn(Runner) -> Result<T, RunError>,
) -> Result<(Vec<T>, f64), String> {
    if let Some(dir) = scratch {
        for index in 0..scenarios.len() {
            let _ = std::fs::remove_file(checkpoint(dir, index));
        }
    }
    let started = Instant::now();
    let mut results = Vec::with_capacity(scenarios.len());
    for (index, scenario) in scenarios.iter().enumerate() {
        let mut runner = Runner::new(scenario.clone()).threads(threads);
        if let Some(dir) = scratch {
            runner = runner.checkpoint(checkpoint(dir, index));
        }
        results.push(run(runner).map_err(|e| format!("sweep {}: {e}", scenario.label))?);
    }
    Ok((results, started.elapsed().as_secs_f64()))
}

fn cells(scenarios: &[Scenario]) -> usize {
    scenarios
        .iter()
        .map(|s| s.replications * s.system_sizes.len())
        .sum()
}

/// The inputs of a latency round: every scenario's first replications.
struct LatencyInputs {
    graphs: Vec<Vec<TaskGraph>>,
    platforms: Vec<Vec<Platform>>,
}

fn latency_inputs(scenarios: &[Scenario]) -> Result<LatencyInputs, String> {
    let mut graphs = Vec::new();
    let mut platforms = Vec::new();
    for scenario in scenarios {
        graphs.push(
            (0..LATENCY_REPLICATIONS)
                .map(|rep| graph(scenario, rep))
                .collect::<Result<_, _>>()?,
        );
        platforms.push(
            scenario
                .system_sizes
                .iter()
                .map(|&size| platform(scenario, size))
                .collect::<Result<_, _>>()?,
        );
    }
    Ok(LatencyInputs { graphs, platforms })
}

/// Times every latency cell once, back to back on this thread. Returns
/// µs per cell and the number of cells that failed.
fn latency_round(scenarios: &[Scenario], inputs: &LatencyInputs) -> (Vec<f64>, usize) {
    let mut micros = Vec::new();
    let mut failed = 0;
    for (index, scenario) in scenarios.iter().enumerate() {
        let mut pipeline = Pipeline::new(scenario);
        for platform in &inputs.platforms[index] {
            for graph in &inputs.graphs[index] {
                let started = Instant::now();
                let verdict = pipeline
                    .slice(graph, platform)
                    .and_then(|s| s.trial(platform));
                micros.push(started.elapsed().as_secs_f64() * 1e6);
                failed += usize::from(verdict.is_err());
            }
        }
    }
    (micros, failed)
}

/// Failed replications and schedule violations must be zero. Window
/// violations are the documented latent EdgeOrdering anomaly of the
/// non-strict NORM/THRES/ADAPT weighting (EXPERIMENTS.md): they are
/// counted and reported, and must repeat exactly.
fn audit(results: &[ScenarioResult]) -> Result<usize, String> {
    let mut window = 0;
    for result in results {
        for point in &result.points {
            if point.failed > 0 {
                return Err(format!(
                    "{}: {} failed replications",
                    result.label, point.failed
                ));
            }
            if point.schedule_violations != Some(0) {
                return Err(format!(
                    "{} on {} processors: schedule violations {:?}",
                    result.label, point.system_size, point.schedule_violations
                ));
            }
            window += point.window_violations.unwrap_or(point.violations);
        }
    }
    Ok(window)
}

/// Resuming every scenario from its completed checkpoint must return the
/// identical result.
fn verify_resume(
    scenarios: &[Scenario],
    scratch: &Path,
    results: &[ScenarioResult],
) -> Result<(), String> {
    for (index, (scenario, expected)) in scenarios.iter().zip(results).enumerate() {
        let resumed = Runner::new(scenario.clone())
            .threads(THREADS)
            .checkpoint(checkpoint(scratch, index))
            .run()
            .map_err(|e| format!("resume {}: {e}", scenario.label))?;
        if &resumed != expected {
            return Err(format!(
                "{}: the resumed sweep differs from the completed one",
                scenario.label
            ));
        }
    }
    Ok(())
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, scratch: &Path) -> Result<Report, String> {
    let ((scenarios, inputs), setup) = repeat_setup(|| {
        let started = Instant::now();
        let scenarios = scenarios(seed, REPLICATIONS);
        for scenario in &scenarios {
            scenario
                .validate()
                .map_err(|e| format!("{}: {e}", scenario.label))?;
        }
        let inputs = latency_inputs(&scenarios)?;
        Ok(((scenarios, inputs), started.elapsed().as_secs_f64()))
    })?;

    let mut rates = Vec::new();
    let mut latency_rounds = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first: Option<Vec<ScenarioResult>> = None;
    // Sweep and latency rounds share the time evenly: whichever has had
    // less of it runs next.
    let (mut sweep_time, mut latency_time) = (0.0, 0.0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rates.len() < MIN_ROUNDS || latency_rounds.len() < MIN_ROUNDS || Instant::now() < deadline
    {
        if sweep_time <= latency_time {
            let (results, secs) = sweep_round(&scenarios, Some(scratch), THREADS, Runner::run)?;
            sweep_time += secs;
            let swept = cells(&scenarios);
            rates.push(swept as f64 / secs);
            attempted += swept as u64;
            failed += results
                .iter()
                .flat_map(|r| &r.points)
                .map(|p| p.failed as u64)
                .sum::<u64>();
            match &first {
                None => first = Some(results),
                Some(first) if *first != results => {
                    return Err("two sweep rounds of one scenario set disagree".to_owned())
                }
                Some(_) => {}
            }
        } else {
            let (micros, errors) = latency_round(&scenarios, &inputs);
            latency_time += micros.iter().sum::<f64>() / 1e6;
            attempted += micros.len() as u64;
            failed += errors as u64;
            latency_rounds.push(micros);
        }
    }
    let results = first.expect("at least one round ran");
    // Each cell's latency is its median over the rounds.
    let latencies = elementwise_median(&latency_rounds);
    let window = audit(&results)?;
    verify_resume(&scenarios, scratch, &results)?;
    eprintln!(
        "sweep-paper: {} sweep and {} latency rounds of {} cells; {window} window violations; \
         {:.0} cells/s; cell p50 {:.1} µs p99 {:.1} µs over {} cells; checks passed",
        rates.len(),
        latency_rounds.len(),
        cells(&scenarios),
        quantile(&rates, THROUGHPUT_QUANTILE),
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.99),
        latencies.len()
    );
    let mut report = Report::new(attempted, failed);
    report.push("setup_s", setup);
    report.push("throughput_rps", quantile(&rates, THROUGHPUT_QUANTILE));
    report.push("latency_p50_us", quantile(&latencies, 0.5));
    report.push("latency_p99_us", quantile(&latencies, 0.99));
    report.push(
        "answered_frac",
        1.0 - per(failed as f64, attempted as usize),
    );
    report.push_peak_rss()?;
    Ok(report)
}

/// Replays `scenario` cell by cell through the layer calls, checking each
/// record against the runner's. Returns the replay's wall time.
fn replay(
    scenario: &Scenario,
    records: &[ReplicationRecord],
    tr: &mut Tracer,
) -> Result<f64, String> {
    let layers = Layers::of(scenario)?;
    let platforms: Vec<Platform> = scenario
        .system_sizes
        .iter()
        .map(|&size| platform(scenario, size))
        .collect::<Result<_, _>>()?;
    let mut ws = SchedWorkspace::new();
    let started = Instant::now();
    for rep in 0..scenario.replications {
        let cell_base = (rep * platforms.len()) as u64;
        let graph = tr.time("gen.generate", cell_base, || graph(scenario, rep))?;
        for (offset, platform) in platforms.iter().enumerate() {
            let cell = cell_base + offset as u64;
            let open = tr.enter("replication", cell);
            let assignment = tr
                .time("slicing.distribute", cell, || {
                    layers.slicer.distribute(&graph, platform)
                })
                .map_err(|e| format!("distribute: {e}"))?;
            let window = tr.time("slicing.window_audit", cell, || {
                assignment.validate(&graph).violations().len()
            });
            let pins = scenario
                .pinning
                .build(&graph, platform)
                .map_err(|e| format!("pinning: {e}"))?;
            let schedule = tr
                .time("sched.schedule", cell, || {
                    layers
                        .scheduler
                        .schedule_with(&graph, platform, &assignment, &pins, &mut ws)
                })
                .map_err(|e| format!("schedule: {e}"))?;
            let schedule_violations = tr.time("audit.schedule", cell, || {
                schedule
                    .validate(&graph, platform, &pins, layers.contention)
                    .len()
            });
            let report = tr.time("lateness", cell, || {
                LatenessReport::new(&graph, &assignment, &schedule)
            });
            tr.exit(open);
            let size = platform.processor_count();
            let expected = records
                .iter()
                .find(|r| r.system_size == size && r.replication == rep)
                .ok_or_else(|| {
                    format!(
                        "{}: the runner has no record of cell {size}/{rep}",
                        scenario.label
                    )
                })?;
            let same = expected.max_lateness == report.max_lateness().as_f64()
                && expected.end_to_end == report.end_to_end_lateness().as_f64()
                && expected.makespan == report.makespan().as_f64()
                && expected.feasible == report.is_feasible()
                && expected.violations == window + schedule_violations;
            if !same {
                return Err(format!(
                    "{}: the layer replay of cell {size}/{rep} differs from the runner's record",
                    scenario.label
                ));
            }
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, scratch: &Path, spans: &Path) -> Result<Report, String> {
    let scenarios = scenarios(seed, REPLICATIONS);
    let swept = cells(&scenarios) as f64;
    let mut checkpointed = Vec::new();
    let mut bare = Vec::new();
    let mut single = Vec::new();
    let mut records = None;
    for _ in 0..MIN_ROUNDS {
        let (with_ckpt, secs) =
            sweep_round(&scenarios, Some(scratch), THREADS, Runner::run_partial)?;
        checkpointed.push(secs);
        let (without, secs) = sweep_round(&scenarios, None, THREADS, Runner::run_partial)?;
        bare.push(secs);
        let (one, secs) = sweep_round(&scenarios, None, 1, Runner::run_partial)?;
        single.push(secs);
        if with_ckpt != without || without != one {
            return Err("sweep records differ between thread counts or checkpointing".to_owned());
        }
        if let Some(partial) = without.iter().find(|p| !p.failed.is_empty()) {
            return Err(format!(
                "{}: {} failed replications",
                partial.label,
                partial.failed.len()
            ));
        }
        records = Some(without);
    }
    let records = records.expect("the rounds ran");

    let mut tr = Tracer::new(true);
    let mut plain = 0.0;
    let mut traced = 0.0;
    for (scenario, partial) in scenarios.iter().zip(&records) {
        plain += replay(scenario, &partial.records, &mut Tracer::new(false))?;
        traced += replay(scenario, &partial.records, &mut tr)?;
    }
    let (results, _) = sweep_round(&scenarios, Some(scratch), THREADS, Runner::run)?;
    let violations = audit(&results)?;
    verify_resume(&scenarios, scratch, &results)?;

    let layer_total: f64 = [
        "gen.generate",
        "slicing.distribute",
        "slicing.window_audit",
        "sched.schedule",
        "audit.schedule",
        "lateness",
    ]
    .iter()
    .map(|name| tr.total(name))
    .sum::<f64>()
        / 1e6;
    let w1 = median(&single);
    let w2 = median(&bare);
    let distribute = tr.self_micros("slicing.distribute");
    let window_audit = tr.self_micros("slicing.window_audit");
    let schedule_audit = tr.self_micros("audit.schedule");
    // Three runner rounds per pass above plus the checked sweep round.
    let mut report = Report::new(swept as u64 * (3 * MIN_ROUNDS as u64 + 1), 0);
    report.push("slicing.distribute_us_mean", mean(&distribute));
    report.push("slicing.distribute_us_p99", quantile(&distribute, 0.99));
    report.push("slicing.window_audit_us_mean", mean(&window_audit));
    report.push(
        "sched.schedule_us_mean",
        mean(&tr.self_micros("sched.schedule")),
    );
    report.push(
        "gen.generate_us_mean",
        mean(&tr.self_micros("gen.generate")),
    );
    let audit_total = window_audit.iter().sum::<f64>() + schedule_audit.iter().sum::<f64>();
    report.push("audit.us_mean", audit_total / swept);
    report.push("audit.violations", violations as f64);
    report.push("runner.self_frac", 1.0 - layer_total / w1);
    report.push(
        "runner.checkpoint_us_per_rep",
        (median(&checkpointed) - w2) / swept * 1e6,
    );
    report.push("runner.parallel_eff", w1 / (THREADS as f64 * w2));
    report.push(
        "share.slicing_frac",
        tr.total("slicing.distribute") / 1e6 / w1,
    );
    report.push("share.sched_frac", tr.total("sched.schedule") / 1e6 / w1);
    report.push("tracing.overhead_frac", traced / plain - 1.0);

    tr.write_jsonl(spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    eprintln!(
        "sweep-paper traced: {} spans to {}; layer replay matched all {} runner records",
        tr.spans().len(),
        spans.display(),
        swept
    );
    Ok(report)
}
