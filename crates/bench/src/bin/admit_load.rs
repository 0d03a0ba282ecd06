//! Load test of the online admission service (`feast::admission`).
//!
//! Generates a deterministic stream of admission requests from the shared
//! seed, pushes them through an [`AdmissionService`] ([`WORKERS`] slicer
//! threads) as fast as the bounded queue accepts them, and measures
//! sustained throughput (admissions decided per second) plus the
//! coordinator's decision-latency distribution. CI's admission smoke,
//! guard, chaos and fault steps run it; performance is recorded by
//! `perfbench/`, not here.
//!
//! Every run re-verifies the service's determinism contract before
//! reporting anything: the service's transcript is replayed through a
//! fresh sequential [`AdmissionController`] and must match bit for bit
//! (verdicts, final state digest, resident count). A run that fails
//! replay exits non-zero and writes nothing.
//!
//! ```text
//! cargo run --release -p bench --bin admit-load -- [--requests N] \
//!     [--size P] [--amend-every K] [--stride T] [--capacity N] \
//!     [--trials N] [--out PATH] [--guard] [--floor F] [--metrics PATH] \
//!     [--durable] [--wal PATH] [--recover PATH] [--budget-us N] \
//!     [--fault SPEC] [--template-pool N] [--infeasible-frac F] \
//!     [--slice-cache on|off] [--eviction oldest|lowest]
//! ```
//!
//! * `--requests N`    admission requests to submit (default 4096);
//! * `--size P`        platform processors (default 8, the paper size);
//! * `--amend-every K` submit an amendment of the latest admit after every
//!   K admits (default 16; 0 disables amendments);
//! * `--stride T`      mean origin advance between admits in time units
//!   (default 1000; sets the steady-state residency);
//! * `--capacity N`    maximum committed residents (default 64);
//! * `--trials N`      run the stream N times and report the fastest trial
//!   (every trial is replay-verified; default 1);
//! * `--out PATH`      write the fastest trial's result as one JSON object
//!   (`"schema": 2`); without it nothing is written;
//! * `--guard`         exit non-zero unless throughput ≥ the floor
//!   (the CI admission guard);
//! * `--floor F`       guard floor in admissions/second (default 10000);
//! * `--metrics PATH`  also write a live `metrics.json` (progress +
//!   telemetry) while the run drains;
//! * `--durable`       seal every verdict to a write-ahead log before it
//!   returns, and re-verify crash recovery after every trial;
//! * `--wal PATH`      the write-ahead log path (default
//!   `admit_load.wal.jsonl`; implies `--durable`);
//! * `--recover PATH`  standalone mode: recover the WAL at PATH, verify
//!   bit-identical replay, report, and exit (0 ok / 2 divergence);
//! * `--budget-us N`   decision budget in µs — requests that out-wait it
//!   are shed before slicing (with `--guard`, also bounds the non-shed
//!   p99 sojourn);
//! * `--fault SPEC`    deterministic fault injection, `site:rate[:attempts]`
//!   (only fires in `--features fault-inject` builds; repeatable);
//! * `--template-pool N` draw admit graphs from a pool of N seed-derived
//!   templates instead of a fresh graph per request (exercises the
//!   cross-request slice cache; 0 = fresh graphs, the default);
//! * `--infeasible-frac F` make fraction F (0..1) of admits provably
//!   infeasible chains (exercises the feasibility pre-filter; default 0);
//! * `--slice-cache on|off` enable the cross-request slice cache
//!   (default on; `off` is the cache-equivalence baseline);
//! * `--eviction oldest|lowest` capacity-pressure eviction policy
//!   (default oldest = `OldestFirst`; lowest = `LowestUtilization`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use feast::telemetry::{self, StageSnapshot};
use feast::{
    AdmissionController, AdmissionLog, AdmissionService, AdmitConfig, AdmitError, AdmitOutcome,
    AdmitRequest, FaultPlan, FaultSpec, LowestUtilization, MetricsWriter, OldestFirst,
    ProgressTracker, Refusal, Runner, Scenario,
};
use serde::Serialize;
use slicing::{CommEstimate, GraphDelta, MetricKind};
use taskgraph::gen::{generate_seeded, stream_label, stream_seed, ExecVariation, WorkloadSpec};
use taskgraph::{Subtask, SubtaskId, TaskGraph, TaskGraphBuilder, Time};

/// Shared bench seed (same as `bench.rs`): request `i` draws its workload
/// from `stream_seed(SEED, admission stream, size, i)`, so the request
/// stream is identical across runs and machines.
const SEED: u64 = 0x000F_EA57_BE5C;

/// Slicer worker threads of the service under load.
const WORKERS: usize = 4;

/// Decision-latency statistics, copied from the telemetry registry's
/// `admission` histogram delta for this run (percentiles are within one
/// log2 bucket of the exact order statistic).
#[derive(Debug, Clone, Serialize)]
struct LatencyStats {
    count: u64,
    mean_us: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
}

impl LatencyStats {
    fn from_snapshot(snap: &StageSnapshot) -> LatencyStats {
        LatencyStats {
            count: snap.count,
            mean_us: snap.mean_us,
            p50_us: snap.p50_us,
            p90_us: snap.p90_us,
            p99_us: snap.p99_us,
            max_us: snap.max_us,
        }
    }
}

/// The result of one load run: the fastest trial, as `--out` writes it.
#[derive(Debug, Clone, Serialize)]
struct LoadResult {
    /// Document schema (2: this object is the whole document).
    schema: u32,
    /// The shared bench seed the request stream was derived from.
    seed: u64,
    processors: usize,
    workers: usize,
    queue_depth: usize,
    capacity: usize,
    amend_every: usize,
    /// Mean origin advance between admits (time units); sets the
    /// steady-state residency the trials schedule against.
    stride: i64,
    /// Trials this result is the best of (every trial replay-verified; the
    /// fastest is recorded, being the least noise-contaminated).
    trials: usize,
    /// Requests submitted (admits + amends; every one was accepted by the
    /// queue, retrying on backpressure).
    requests: usize,
    admitted: usize,
    rejected: usize,
    /// Requests answered with a typed refusal (e.g. amendment of an
    /// already retired resident) — still decisions, still replayed.
    /// Pre-filter refusals are counted separately in `prefilter_rejects`,
    /// so `prefilter_rejects + admitted + rejected + errors + shed +
    /// failed == requests`.
    errors: usize,
    /// Requests refused by the O(V+E) feasibility pre-filter before any
    /// slicing ran (a deterministic refusal; disjoint from `errors`).
    prefilter_rejects: usize,
    /// Template pool this run drew admit graphs from (0 = a fresh graph
    /// per request).
    template_pool: usize,
    /// Fraction of admits built provably infeasible (pre-filter fodder).
    infeasible_frac: f64,
    /// Cross-request slice cache capacity in force (0 = cache off).
    slice_cache: usize,
    /// Capacity-pressure eviction policy (`oldest` or `lowest`).
    eviction: String,
    /// Residents evicted under capacity pressure during the recorded
    /// trial (telemetry delta).
    evicted: u64,
    /// Requests shed over the decision budget (environmental outcomes;
    /// replayed verbatim, never trialed).
    shed: usize,
    /// Requests lost to supervised worker failures (environmental; the
    /// worker was respawned and the stream continued).
    failed: usize,
    /// Submissions refused by the bounded queue before eventually landing
    /// (backpressure retries; not counted in `requests`).
    queue_retries: usize,
    elapsed_ms: f64,
    /// Decisions per second of wall clock, submit of the first request to
    /// drained shutdown.
    admissions_per_sec: f64,
    /// Coordinator decision latency: trial + commit for an admit (its
    /// slicing ran in parallel before it), plus applying the delta and
    /// re-slicing the resident for an amendment; queueing is excluded.
    latency: LatencyStats,
    /// End-to-end sojourn of non-shed, non-failed requests: submit to
    /// concluded verdict, including queueing and slicing.
    sojourn: LatencyStats,
    /// The determinism contract held: sequential replay of the transcript
    /// reproduced every verdict and the final state digest bit for bit.
    replay_verified: bool,
    /// This run sealed every verdict to a write-ahead log before
    /// returning it.
    durable: bool,
    /// In durable mode: sealed decisions recovered (and digest-verified)
    /// from the WAL after the run.
    wal_recovered: Option<usize>,
}

/// A provably infeasible two-subtask chain: 100 + 100 time units of
/// serial WCET against an end-to-end deadline of 50, so the pre-filter's
/// chain bound (and, without the pre-filter, the full slice + trial path)
/// must refuse it. `salt` perturbs the WCETs so the infeasible stream is
/// not one endlessly repeated graph.
fn infeasible_chain(salt: u64) -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    let head =
        b.add_subtask(Subtask::new(Time::new(100 + (salt % 7) as i64)).released_at(Time::ZERO));
    let tail = b.add_subtask(Subtask::new(Time::new(100)).due_at(Time::new(50)));
    b.add_edge(head, tail, 1).expect("two-node chain edge");
    b.build().expect("infeasible chain still builds")
}

/// Builds the deterministic request stream: paper workloads at origins
/// that advance by a seed-derived stride around `stride`, with an
/// amendment of the latest admit every `amend_every` admits. The stride
/// sets the steady-state residency (how many committed graphs a trial
/// schedules against) and is therefore the load axis of this bench.
///
/// `template_pool` > 0 draws every feasible admit from a pool of that
/// many seed-derived template graphs (the templated-workload regime the
/// cross-request slice cache targets); `infeasible_frac` replaces that
/// fraction of admits with [`infeasible_chain`]s for the pre-filter.
fn request_stream(
    count: usize,
    size: usize,
    amend_every: usize,
    stride: i64,
    template_pool: usize,
    infeasible_frac: f64,
) -> Vec<AdmitRequest> {
    let stream = stream_label(b"admission");
    let templates: Vec<Arc<TaskGraph>> = (0..template_pool)
        .map(|slot| {
            Arc::new(
                (0..16)
                    .find_map(|attempt| {
                        generate_seeded(
                            &WorkloadSpec::paper(ExecVariation::Mdet),
                            stream_seed(
                                SEED,
                                stream_label(b"admission-template"),
                                size as u64,
                                slot as u64,
                            )
                            .wrapping_add(attempt),
                        )
                        .ok()
                    })
                    .expect("a paper workload generates within 16 seed attempts"),
            )
        })
        .collect();
    let infeasible_per_mille = (infeasible_frac.clamp(0.0, 1.0) * 1000.0) as u64;
    let mut requests = Vec::with_capacity(count);
    let mut origin = 0i64;
    let mut admits = 0u64;
    let mut last_admit: Option<(u64, Arc<TaskGraph>)> = None;
    while requests.len() < count {
        let draw = stream_seed(SEED, stream, size as u64, requests.len() as u64);
        let amend_due = amend_every > 0 && admits > 0 && admits.is_multiple_of(amend_every as u64);
        if amend_due {
            if let Some((id, graph)) = &last_admit {
                // Tighten one WCET of the latest admit.
                let subtask = SubtaskId::new((draw % graph.subtask_count() as u64) as u32);
                let old = graph.subtask(subtask).wcet().as_i64();
                let wcet = (old - 1 - (draw >> 33) as i64 % 3).max(1);
                requests.push(AdmitRequest::Amend {
                    id: *id,
                    delta: GraphDelta::new().set_wcet(subtask, Time::new(wcet)),
                });
                admits += 1; // arm the next window
                continue;
            }
        }
        // A seed-derived slice of the stream is provably infeasible: the
        // pre-filter refuses these before slicing, and they are never
        // amended (they hold no residency).
        if infeasible_per_mille > 0 && (draw >> 17) % 1000 < infeasible_per_mille {
            origin += stride / 5 + (draw % (stride as u64 * 2).max(1)) as i64;
            requests.push(AdmitRequest::Admit {
                id: admits,
                graph: Arc::new(infeasible_chain(draw)),
                origin: Time::new(origin),
            });
            admits += 1;
            continue;
        }
        let graph = if templates.is_empty() {
            // Workload generation can reject a stream; walk to the next
            // one, as the engine does.
            Arc::new(
                (0..16)
                    .find_map(|attempt| {
                        generate_seeded(
                            &WorkloadSpec::paper(ExecVariation::Mdet),
                            draw.wrapping_add(attempt),
                        )
                        .ok()
                    })
                    .expect("a paper workload generates within 16 seed attempts"),
            )
        } else {
            Arc::clone(&templates[(draw % templates.len() as u64) as usize])
        };
        origin += stride / 5 + (draw % (stride as u64 * 2).max(1)) as i64;
        let id = admits;
        requests.push(AdmitRequest::Admit {
            id,
            graph: Arc::clone(&graph),
            origin: Time::new(origin),
        });
        last_admit = Some((id, graph));
        admits += 1;
    }
    requests
}

struct Args {
    requests: usize,
    size: usize,
    amend_every: usize,
    stride: i64,
    capacity: usize,
    trials: usize,
    out: Option<String>,
    guard: bool,
    floor: f64,
    metrics: Option<String>,
    durable: bool,
    wal: Option<String>,
    recover: Option<String>,
    budget_us: Option<u64>,
    faults: Vec<FaultSpec>,
    template_pool: usize,
    infeasible_frac: f64,
    slice_cache: bool,
    eviction: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 4096,
        size: 8,
        amend_every: 16,
        stride: 1_000,
        capacity: 64,
        trials: 1,
        out: None,
        guard: false,
        floor: 10_000.0,
        metrics: None,
        durable: false,
        wal: None,
        recover: None,
        budget_us: None,
        faults: Vec::new(),
        template_pool: 0,
        infeasible_frac: 0.0,
        slice_cache: true,
        eviction: "oldest".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--requests" => {
                args.requests = value("--requests")
                    .parse()
                    .expect("--requests takes a positive integer")
            }
            "--size" => {
                args.size = value("--size")
                    .parse()
                    .expect("--size takes a positive integer")
            }
            "--amend-every" => {
                args.amend_every = value("--amend-every")
                    .parse()
                    .expect("--amend-every takes an integer (0 disables)")
            }
            "--stride" => {
                args.stride = value("--stride")
                    .parse()
                    .expect("--stride takes a positive integer (time units)")
            }
            "--capacity" => {
                args.capacity = value("--capacity")
                    .parse()
                    .expect("--capacity takes a positive integer")
            }
            "--trials" => {
                args.trials = value("--trials")
                    .parse()
                    .expect("--trials takes a positive integer")
            }
            "--out" => args.out = Some(value("--out")),
            "--guard" => args.guard = true,
            "--floor" => {
                args.floor = value("--floor")
                    .parse()
                    .expect("--floor takes a number (admissions/second)")
            }
            "--metrics" => args.metrics = Some(value("--metrics")),
            "--durable" => args.durable = true,
            "--wal" => {
                args.wal = Some(value("--wal"));
                args.durable = true;
            }
            "--recover" => args.recover = Some(value("--recover")),
            "--budget-us" => {
                args.budget_us = Some(
                    value("--budget-us")
                        .parse()
                        .expect("--budget-us takes a positive integer (microseconds)"),
                )
            }
            "--template-pool" => {
                args.template_pool = value("--template-pool")
                    .parse()
                    .expect("--template-pool takes an integer (0 disables)")
            }
            "--infeasible-frac" => {
                args.infeasible_frac = value("--infeasible-frac")
                    .parse()
                    .expect("--infeasible-frac takes a fraction in 0..1");
                assert!(
                    (0.0..=1.0).contains(&args.infeasible_frac),
                    "--infeasible-frac takes a fraction in 0..1"
                );
            }
            "--slice-cache" => {
                args.slice_cache = match value("--slice-cache").as_str() {
                    "on" => true,
                    "off" => false,
                    other => panic!("--slice-cache takes on|off, not `{other}`"),
                }
            }
            "--eviction" => {
                args.eviction = value("--eviction");
                assert!(
                    args.eviction == "oldest" || args.eviction == "lowest",
                    "--eviction takes oldest|lowest"
                );
            }
            "--fault" => args.faults.push(
                value("--fault")
                    .parse()
                    .unwrap_or_else(|e| panic!("bad --fault spec: {e}")),
            ),
            "--help" | "-h" => {
                eprintln!(
                    "usage: admit-load [--requests N] [--size P] \
                     [--amend-every K] [--stride T] [--capacity N] [--trials N] [--out PATH] \
                     [--guard] [--floor F] [--metrics PATH] [--durable] [--wal PATH] \
                     [--recover PATH] [--budget-us N] [--fault SPEC] [--template-pool N] \
                     [--infeasible-frac F] [--slice-cache on|off] [--eviction oldest|lowest]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument `{other}` (try --help)"),
        }
    }
    args
}

/// Builds the bench's admission configuration (shared by load runs and
/// the standalone `--recover` mode, whose WAL fingerprints must agree).
fn bench_config(args: &Args) -> AdmitConfig {
    let scenario = Scenario::paper(
        "admit-load",
        WorkloadSpec::paper(ExecVariation::Mdet),
        // NORM/CCNE is the paper's baseline technique and — unlike ADAPT,
        // whose PURE mode has a millisecond-scale distribute tail — slices
        // with a tight latency distribution, so the coordinator's in-order
        // reorder buffer is not head-of-line blocked by a slow slicer.
        MetricKind::norm(),
        CommEstimate::Ccne,
    );
    let mut config = AdmitConfig::new(scenario, args.size)
        .with_workers(WORKERS)
        .with_queue_depth(512)
        .with_capacity(args.capacity.max(1))
        .with_slice_cache(if args.slice_cache { 64 } else { 0 });
    if args.eviction == "lowest" {
        config = config.with_eviction(LowestUtilization);
    } else {
        config = config.with_eviction(OldestFirst);
    }
    if let Some(budget_us) = args.budget_us {
        config = config.with_decision_budget(Duration::from_micros(budget_us));
    }
    if !args.faults.is_empty() {
        let mut plan = FaultPlan::new(SEED);
        for spec in &args.faults {
            plan = plan.with_fault(*spec);
        }
        config = config.with_fault_plan(plan);
    }
    config
}

/// Standalone `--recover PATH`: rebuild the committed state from a
/// write-ahead log (e.g. one left behind by a killed run), verify the
/// transcript replays bit-identically, report, and exit.
fn recover_and_report(args: &Args, path: &str) -> ! {
    let config = bench_config(args);
    let (controller, log) = match AdmissionController::recover(config.clone(), path) {
        Ok(recovered) => recovered,
        Err(e) => {
            eprintln!("admit-load recovery FAILED: {e}");
            std::process::exit(2);
        }
    };
    let replayed = log
        .replay(&config)
        .expect("sequential replay controller builds");
    if !log.matches(&replayed) {
        eprintln!("admit-load recovery FAILED: transcript diverged from sequential replay");
        std::process::exit(2);
    }
    println!(
        "recovered {} sealed decisions from {path}: {} admitted, {} rejected, \
         {} prefilter-rejected, {} errors, {} shed, {} failed; digest {:#018x}, \
         {} residents; replay verified",
        log.outcomes.len(),
        log.admitted(),
        log.rejected(),
        log.prefilter_rejected(),
        log.refused() - log.prefilter_rejected(),
        log.shed(),
        log.failed(),
        controller.digest(),
        controller.residents()
    );
    std::process::exit(0)
}

fn main() {
    let args = parse_args();
    if let Some(path) = args.recover.clone() {
        recover_and_report(&args, &path);
    }
    let requests = request_stream(
        args.requests.max(1),
        args.size,
        args.amend_every,
        args.stride.max(1),
        args.template_pool,
        args.infeasible_frac,
    );

    let wal_path = args.durable.then(|| {
        args.wal
            .clone()
            .unwrap_or_else(|| "admit_load.wal.jsonl".to_owned())
    });
    let mut config = bench_config(&args);
    if let Some(path) = &wal_path {
        config = config.durable(path);
    }

    let trials = args.trials.max(1);
    let progress = ProgressTracker::new();
    progress.configure("admit-load", 0, 1, (requests.len() * trials) as u64, 0);
    let writer = args
        .metrics
        .as_ref()
        .map(|path| MetricsWriter::new(path, Runner::METRICS_WRITE_INTERVAL));

    let registry = telemetry::global();

    eprintln!(
        "admit-load: {} requests ({} amend stride) onto {} processors, {} slicers, {} trial(s)",
        requests.len(),
        args.amend_every,
        args.size,
        WORKERS,
        trials
    );
    // Best-of-N: the request stream is fixed, so every trial does identical
    // work and the fastest one is the least noise-contaminated estimate of
    // the service's sustained rate. Every trial (not just the best) must
    // pass the replay check before anything is reported.
    let mut best: Option<(AdmissionLog, f64, LatencyStats, LatencyStats, usize, u64)> = None;
    let mut last_delta = None;
    let mut wal_recovered: Option<usize> = None;
    for trial in 0..trials {
        let before = registry.snapshot();
        let service = AdmissionService::new(config.clone()).expect("admission service starts");
        let started = Instant::now();
        let mut queue_retries = 0usize;
        for request in &requests {
            let mut pending = request.clone();
            loop {
                match service.submit(pending) {
                    Ok(()) => break,
                    Err(AdmitError::QueueFull { .. }) => {
                        queue_retries += 1;
                        std::thread::yield_now();
                        pending = request.clone();
                    }
                    Err(other) => panic!("submission failed: {other}"),
                }
                if let Some(writer) = &writer {
                    writer.maybe_write(&progress, || registry.snapshot());
                }
            }
            progress.record_cell(true, 0);
        }
        let log = service.shutdown().expect("service drains and stops");
        let elapsed = started.elapsed();

        let after = registry.snapshot();
        let latency = LatencyStats::from_snapshot(&after.admission.delta(&before.admission));
        let sojourn =
            LatencyStats::from_snapshot(&after.admission_sojourn.delta(&before.admission_sojourn));
        let evicted = after.admissions_evicted - before.admissions_evicted;
        last_delta = Some(after.delta(&before));

        // The determinism contract, re-proven on every load run: the
        // service's transcript must replay bit-identically through a fresh
        // sequential controller before the numbers are worth reporting.
        let replayed = log
            .replay(&config)
            .expect("sequential replay controller builds");
        if !log.matches(&replayed) {
            eprintln!(
                "admit-load FAILED: trial {} transcript diverged from sequential replay",
                trial + 1
            );
            std::process::exit(2);
        }

        // Durable runs additionally re-prove crash recovery on every
        // trial: rebuilding from the WAL must reproduce the live
        // transcript (outcomes, digest, residents) bit for bit.
        if let Some(path) = &wal_path {
            let (recovered, rlog) = match AdmissionController::recover(config.clone(), path) {
                Ok(recovered) => recovered,
                Err(e) => {
                    eprintln!("admit-load FAILED: trial {} WAL recovery: {e}", trial + 1);
                    std::process::exit(2);
                }
            };
            if !log.matches(&rlog) || recovered.digest() != log.digest {
                eprintln!(
                    "admit-load FAILED: trial {} WAL recovery diverged from the live run",
                    trial + 1
                );
                std::process::exit(2);
            }
            wal_recovered = Some(rlog.outcomes.len());
        }

        let aps = log.outcomes.len() as f64 / elapsed.as_secs_f64();
        eprintln!(
            "trial {}/{}: {} decisions in {:.1}ms = {aps:.0}/s ({} shed, {} failed; \
             replay verified{})",
            trial + 1,
            trials,
            log.outcomes.len(),
            elapsed.as_secs_f64() * 1e3,
            log.shed(),
            log.failed(),
            if wal_path.is_some() {
                ", recovery verified"
            } else {
                ""
            }
        );
        if best.as_ref().is_none_or(|(_, b, _, _, _, _)| aps > *b) {
            best = Some((log, aps, latency, sojourn, queue_retries, evicted));
        }
    }
    progress.finish("complete");
    // The at-exit metrics document (last trial's telemetry delta), written
    // after finish so it carries the run outcome.
    if let (Some(writer), Some(delta)) = (&writer, last_delta) {
        writer.write_now(&progress, delta);
    }

    let (log, admissions_per_sec, latency, sojourn, queue_retries, evicted) =
        best.expect("at least one trial ran");
    let decisions = log.outcomes.len();
    let admitted = log.admitted();
    let rejected = log.rejected();
    let prefilter_rejects = log.prefilter_rejected();
    let errors = log.refused() - prefilter_rejects;
    let shed = log.shed();
    let failed = log.failed();

    // Conservativeness audit: the pre-filter may only refuse graphs the
    // full slice + trial path would also have rejected. Re-run every
    // pre-filter refusal through a pre-filter-off controller against an
    // empty state (the most permissive state any trial can see); an
    // admit here means a bound is unsound and the run is worthless.
    if prefilter_rejects > 0 {
        let mut audit_config = config.clone();
        audit_config.wal_path = None;
        audit_config = audit_config.with_prefilter(false);
        let mut unsound = 0usize;
        for (request, outcome) in log.requests.iter().zip(log.outcomes.iter()) {
            if !matches!(outcome, AdmitOutcome::Refused(Refusal::Prefilter { .. })) {
                continue;
            }
            let mut probe = AdmissionController::new(audit_config.clone())
                .expect("conservativeness-audit controller builds");
            if matches!(
                probe.handle(request),
                Ok(verdict) if verdict.admitted
            ) {
                unsound += 1;
            }
        }
        if unsound > 0 {
            eprintln!(
                "WARNING: pre-filter UNSOUND — {unsound} of {prefilter_rejects} \
                 pre-filter refusals would have been ADMITTED by the full \
                 slice + trial path; a necessary-condition bound is wrong"
            );
            std::process::exit(2);
        }
        eprintln!(
            "conservativeness audit passed: all {prefilter_rejects} pre-filter \
             refusals also reject under the full slice + trial path"
        );
    }
    let elapsed_ms = decisions as f64 / admissions_per_sec * 1e3;
    let replay_verified = true;

    let result = LoadResult {
        schema: 2,
        seed: SEED,
        processors: args.size,
        workers: WORKERS,
        queue_depth: config.queue_depth,
        capacity: config.capacity,
        amend_every: args.amend_every,
        stride: args.stride.max(1),
        trials,
        requests: decisions,
        admitted,
        rejected,
        errors,
        prefilter_rejects,
        template_pool: args.template_pool,
        infeasible_frac: args.infeasible_frac,
        slice_cache: if args.slice_cache { 64 } else { 0 },
        eviction: args.eviction.clone(),
        evicted,
        shed,
        failed,
        queue_retries,
        elapsed_ms,
        admissions_per_sec,
        latency,
        sojourn,
        durable: wal_path.is_some(),
        wal_recovered,
        replay_verified,
    };
    eprintln!(
        "admit-load: {decisions} decisions in {elapsed_ms:.1}ms = {admissions_per_sec:.0}/s \
         ({admitted} admitted, {rejected} rejected, {prefilter_rejects} prefilter-rejected, \
         {errors} errors, {shed} shed, {failed} failed, {evicted} evicted, \
         {queue_retries} retries)"
    );
    eprintln!(
        "latency: mean {}us p50 {}us p90 {}us p99 {}us max {}us; replay verified",
        result.latency.mean_us,
        result.latency.p50_us,
        result.latency.p90_us,
        result.latency.p99_us,
        result.latency.max_us
    );
    let sojourn = &result.sojourn;
    eprintln!(
        "sojourn: mean {}us p50 {}us p90 {}us p99 {}us max {}us",
        sojourn.mean_us, sojourn.p50_us, sojourn.p90_us, sojourn.p99_us, sojourn.max_us
    );
    if let Some(recovered) = wal_recovered {
        eprintln!("durable: {recovered} sealed decisions recovered bit-identically from the WAL");
    }

    if args.guard && admissions_per_sec < args.floor {
        eprintln!(
            "admission guard FAILED: {admissions_per_sec:.0} admissions/s is below the \
             {:.0}/s floor",
            args.floor
        );
        std::process::exit(2);
    }
    if args.guard {
        eprintln!(
            "admission guard passed ({admissions_per_sec:.0}/s >= {:.0}/s)",
            args.floor
        );
    }
    // With a decision budget in force, no request may sojourn far past it:
    // anything older is shed before slicing, so the sojourn tail is bounded
    // by budget + service time (doubled to absorb the log2-bucket
    // percentile error of the histogram).
    if args.guard {
        if let Some(budget_us) = args.budget_us {
            let bound = 2 * (budget_us + result.latency.max_us);
            if sojourn.p99_us > bound {
                eprintln!(
                    "staleness guard FAILED: p99 sojourn {}us exceeds {bound}us \
                     (budget {budget_us}us)",
                    sojourn.p99_us
                );
                std::process::exit(2);
            }
            eprintln!(
                "staleness guard passed (p99 sojourn {}us <= {bound}us)",
                sojourn.p99_us
            );
        }
    }

    let Some(out) = &args.out else {
        return;
    };
    let json = serde_json::to_string_pretty(&result).expect("serialization cannot fail");
    std::fs::write(out, json + "\n").unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");
}
