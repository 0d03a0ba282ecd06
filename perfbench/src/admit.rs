//! The admission workloads: `admit-fresh` and `admit-churn`.
//!
//! Both run NORM/CCNE on 8 processors with a 64-entry slice cache and
//! oldest-first eviction of at most 64 residents.
//!
//! * End-to-end run: rounds of the service (one slicer worker plus the
//!   coordinator, fed the whole stream) alternate with rounds of a bare
//!   controller timing each `handle` call back to back.
//! * Traced run: the same stream through the service and the controller,
//!   then through [`Mirror`], which times every layer call, plus a seeded
//!   Poisson open loop at half the controller's capacity.
//!
//! Every run ends with the correctness gate in [`verify`].

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use feast::{
    AdmissionController, AdmissionLog, AdmissionService, AdmitConfig, AdmitError, AdmitOutcome,
    AdmitRequest, OldestFirst, Refusal, Scenario,
};
use slicing::{CommEstimate, GraphDelta, MetricKind};
use taskgraph::gen::{
    generate_seeded, stream_label, stream_seed, sub_stream, ExecVariation, WorkloadSpec,
};
use taskgraph::{Subtask, SubtaskId, TaskGraph, TaskGraphBuilder, Time};

use crate::mirror::Mirror;
use crate::stats::{elementwise_median, frac, mean, median, per, quantile};
use crate::trace::Tracer;
use crate::{repeat_setup, Report, THROUGHPUT_QUANTILE};

const SYSTEM_SIZE: usize = 8;
const SLICE_CACHE: usize = 64;
const CAPACITY: usize = 64;
/// Mean origin advance between admits (time units): sets how many
/// residents a trial schedules around.
const STRIDE: u64 = 500;
/// Templates `admit-churn` draws from: fewer than the cache's entries.
const TEMPLATES: usize = 32;
/// `admit-churn` amends the latest admit after every this many admits.
const AMEND_EVERY: u64 = 4;
/// `admit-churn` makes this share (per mille) of admits infeasible chains.
const INFEASIBLE_PER_MILLE: u64 = 100;
/// Requests per stream: enough distinct graphs that the latency
/// percentiles barely depend on the seed.
const STREAM_LEN: usize = 2048;
/// Rounds of each kind every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// How long the submitter sleeps on a full queue before it retries.
const QUEUE_BACKOFF: Duration = Duration::from_micros(200);
/// How long a submission may wait on a full queue before it is dropped
/// (and counted as failed).
const SUBMIT_PATIENCE: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A freshly generated MDET paper graph per admit, in memory.
    Fresh,
    /// Templated admits, amendments, infeasible chains, sealed to a WAL.
    Churn,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Fresh => "admit-fresh",
            Kind::Churn => "admit-churn",
        }
    }

    fn durable(self) -> bool {
        self == Kind::Churn
    }
}

/// The admission configuration of every phase. The queue holds the whole
/// stream, so the submitter is never refused in a correct run.
fn config(kind: Kind, wal: Option<&Path>) -> AdmitConfig {
    let scenario = Scenario::paper(
        kind.name(),
        WorkloadSpec::paper(ExecVariation::Mdet),
        MetricKind::norm(),
        CommEstimate::Ccne,
    );
    let config = AdmitConfig::new(scenario, SYSTEM_SIZE)
        .with_workers(1)
        .with_queue_depth(STREAM_LEN)
        .with_capacity(CAPACITY)
        .with_slice_cache(SLICE_CACHE)
        .with_prefilter(true)
        .with_eviction(OldestFirst);
    match wal {
        Some(path) => config.durable(path),
        None => config,
    }
}

/// A paper MDET graph from `seed`, walking sub-streams past rejected draws
/// as the sweep engine does.
fn paper_graph(seed: u64) -> TaskGraph {
    let spec = WorkloadSpec::paper(ExecVariation::Mdet);
    (0..16)
        .find_map(|attempt| generate_seeded(&spec, sub_stream(seed, attempt)).ok())
        .expect("a paper workload generates within 16 sub-streams")
}

/// A provably infeasible chain: 100 + 100 units of serial work against an
/// end-to-end deadline of 50. `salt` varies the head's WCET.
fn infeasible_chain(salt: u64) -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    let head =
        b.add_subtask(Subtask::new(Time::new(100 + (salt % 7) as i64)).released_at(Time::ZERO));
    let tail = b.add_subtask(Subtask::new(Time::new(100)).due_at(Time::new(50)));
    b.add_edge(head, tail, 1).expect("two-node chain edge");
    b.build().expect("the infeasible chain builds")
}

/// The request stream of `kind` for `seed`; every generated graph is one
/// `gen.generate` span on `tr`.
fn stream(kind: Kind, seed: u64, tr: &mut Tracer) -> Vec<AdmitRequest> {
    let label = stream_label(kind.name().as_bytes());
    let size = SYSTEM_SIZE as u64;
    let templates: Vec<Arc<TaskGraph>> = match kind {
        Kind::Fresh => Vec::new(),
        Kind::Churn => (0..TEMPLATES as u64)
            .map(|slot| {
                let draw = stream_seed(seed, stream_label(b"admit-churn/template"), size, slot);
                Arc::new(tr.time("gen.generate", slot, || paper_graph(draw)))
            })
            .collect(),
    };
    let mut requests = Vec::with_capacity(STREAM_LEN);
    let mut origin = 0u64;
    let mut admits = 0u64;
    let mut latest: Option<(u64, Arc<TaskGraph>)> = None;
    while requests.len() < STREAM_LEN {
        let seq = requests.len() as u64;
        let draw = stream_seed(seed, label, size, seq);
        if kind == Kind::Churn && admits > 0 && admits.is_multiple_of(AMEND_EVERY) {
            if let Some((id, graph)) = &latest {
                // Tighten one WCET of the latest admit: the repair path's
                // case while it is still the newest commit.
                let subtask = SubtaskId::new((draw % graph.subtask_count() as u64) as u32);
                let wcet = graph.subtask(subtask).wcet().as_i64();
                let tightened = (wcet - 1 - (draw >> 33) as i64 % 3).max(1);
                requests.push(AdmitRequest::Amend {
                    id: *id,
                    delta: GraphDelta::new().set_wcet(subtask, Time::new(tightened)),
                });
                admits += 1;
                continue;
            }
        }
        origin += STRIDE / 5 + draw % (2 * STRIDE);
        let infeasible = kind == Kind::Churn && (draw >> 17) % 1000 < INFEASIBLE_PER_MILLE;
        let graph = if infeasible {
            Arc::new(infeasible_chain(draw))
        } else if templates.is_empty() {
            Arc::new(tr.time("gen.generate", seq, || paper_graph(draw)))
        } else {
            Arc::clone(&templates[(draw % templates.len() as u64) as usize])
        };
        requests.push(AdmitRequest::Admit {
            id: admits,
            graph: Arc::clone(&graph),
            origin: Time::new(origin as i64),
        });
        if !infeasible {
            latest = Some((admits, graph));
        }
        admits += 1;
    }
    requests
}

/// An outcome that is a failure of the system rather than an answer:
/// shed, worker failure, or a pipeline error. Rejections, pre-filter
/// refusals and refusals the stream provokes (amending a resident that has
/// retired) are answers.
fn is_failure(outcome: &AdmitOutcome) -> bool {
    matches!(
        outcome,
        AdmitOutcome::Shed { .. }
            | AdmitOutcome::Failed { .. }
            | AdmitOutcome::Refused(
                Refusal::Trial { .. } | Refusal::Other { .. } | Refusal::DuplicateId { .. }
            )
    )
}

/// One service round over the whole stream.
struct ServiceRound {
    log: AdmissionLog,
    seconds: f64,
    queue_full: usize,
    dropped: usize,
}

fn service_round(config: &AdmitConfig, requests: &[AdmitRequest]) -> Result<ServiceRound, String> {
    let service = AdmissionService::new(config.clone()).map_err(|e| format!("service: {e}"))?;
    let started = Instant::now();
    let mut queue_full = 0;
    let mut dropped = 0;
    for request in requests {
        let mut waited = Duration::ZERO;
        loop {
            match service.submit(request.clone()) {
                Ok(()) => break,
                Err(AdmitError::QueueFull { .. }) => {
                    queue_full += 1;
                    if waited >= SUBMIT_PATIENCE {
                        dropped += 1;
                        break;
                    }
                    std::thread::sleep(QUEUE_BACKOFF);
                    waited += QUEUE_BACKOFF;
                }
                Err(e) => return Err(format!("submit: {e}")),
            }
        }
    }
    let log = service
        .shutdown()
        .map_err(|e| format!("service shutdown: {e}"))?;
    Ok(ServiceRound {
        log,
        seconds: started.elapsed().as_secs_f64(),
        queue_full,
        dropped,
    })
}

/// One controller round: every request through `handle`, back to back.
struct ControllerRound {
    /// µs per `handle` call, in request order.
    micros: Vec<f64>,
    outcomes: Vec<AdmitOutcome>,
    digest: u64,
}

fn controller_round(
    config: &AdmitConfig,
    requests: &[AdmitRequest],
) -> Result<ControllerRound, String> {
    let mut controller =
        AdmissionController::new(config.clone()).map_err(|e| format!("controller: {e}"))?;
    let mut micros = Vec::with_capacity(requests.len());
    let mut outcomes = Vec::with_capacity(requests.len());
    for request in requests {
        let started = Instant::now();
        let result = controller.handle(request);
        micros.push(started.elapsed().as_secs_f64() * 1e6);
        outcomes.push(AdmitOutcome::of(&result));
    }
    Ok(ControllerRound {
        micros,
        outcomes,
        digest: controller.digest(),
    })
}

/// Per-run scratch files (WALs), removed when the run ends.
struct Wals {
    dir: PathBuf,
    next: usize,
}

impl Wals {
    fn path(&mut self, what: &str) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("{what}-{}.wal.jsonl", self.next))
    }
}

/// The correctness gate every run passes before it reports anything.
fn verify(
    kind: Kind,
    memory: &AdmitConfig,
    service: &ServiceRound,
    service_wal: Option<&Path>,
    controllers: &[&ControllerRound],
) -> Result<(), String> {
    let log = &service.log;
    if service.dropped > 0 {
        return Err(format!(
            "{} submissions were dropped on a full queue",
            service.dropped
        ));
    }
    let replayed = log
        .replay(memory)
        .map_err(|e| format!("replay controller: {e}"))?;
    if !log.matches(&replayed) {
        return Err("the service transcript does not replay bit-identically".to_owned());
    }
    for round in controllers {
        if round.digest != log.digest || round.outcomes != log.outcomes {
            return Err(format!(
                "a controller fed the same stream ended at digest {:#018x}, the service at {:#018x}",
                round.digest, log.digest
            ));
        }
    }
    if let Some(path) = service_wal {
        let (recovered, rlog) = AdmissionController::recover(config(kind, Some(path)), path)
            .map_err(|e| format!("WAL recovery: {e}"))?;
        if !log.matches(&rlog) || recovered.digest() != log.digest {
            return Err("WAL recovery diverged from the live run".to_owned());
        }
    }
    // Every pre-filter refusal must also be rejected by the full slice +
    // trial path on an empty state, the most permissive state there is.
    let audit = memory.clone().with_prefilter(false);
    for (request, outcome) in log.requests.iter().zip(&log.outcomes) {
        if !matches!(outcome, AdmitOutcome::Refused(Refusal::Prefilter { .. })) {
            continue;
        }
        let mut probe = AdmissionController::new(audit.clone())
            .map_err(|e| format!("audit controller: {e}"))?;
        if matches!(probe.handle(request), Ok(v) if v.admitted) {
            return Err(format!(
                "request {} was refused by the pre-filter but admits without it",
                request.id()
            ));
        }
    }
    Ok(())
}

fn remove_quietly(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// The end-to-end run.
pub fn run(kind: Kind, seed: u64, seconds: f64, scratch: &Path) -> Result<Report, String> {
    let mut wals = Wals {
        dir: scratch.to_path_buf(),
        next: 0,
    };
    let (requests, setup) = repeat_setup(|| {
        let service_wal = kind.durable().then(|| wals.path("setup"));
        let controller_wal = kind.durable().then(|| wals.path("setup"));
        let started = Instant::now();
        let requests = stream(kind, seed, &mut Tracer::new(false));
        let service = AdmissionService::new(config(kind, service_wal.as_deref()))
            .map_err(|e| format!("service: {e}"))?;
        let controller = AdmissionController::new(config(kind, controller_wal.as_deref()))
            .map_err(|e| format!("controller: {e}"))?;
        let secs = started.elapsed().as_secs_f64();
        drop(controller);
        service
            .shutdown()
            .map_err(|e| format!("service shutdown: {e}"))?;
        for path in service_wal.iter().chain(&controller_wal) {
            remove_quietly(path);
        }
        Ok((requests, secs))
    })?;

    let memory = config(kind, None);
    let mut rates = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first: Option<ServiceRound> = None;
    let mut first_wal: Option<PathBuf> = None;
    let mut controllers = Vec::new();
    // Service and controller rounds share the time evenly: whichever has
    // had less of it runs next.
    let (mut service_time, mut controller_time) = (0.0, 0.0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rates.len() < MIN_ROUNDS || controllers.len() < MIN_ROUNDS || Instant::now() < deadline {
        attempted += requests.len() as u64;
        if service_time <= controller_time {
            let wal = kind.durable().then(|| wals.path("service"));
            let service = service_round(&config(kind, wal.as_deref()), &requests)?;
            service_time += service.seconds;
            rates.push(service.log.outcomes.len() as f64 / service.seconds);
            failed += (service
                .log
                .outcomes
                .iter()
                .filter(|o| is_failure(o))
                .count()
                + service.dropped) as u64;
            match &first {
                None => {
                    first = Some(service);
                    first_wal = wal;
                }
                Some(first) => {
                    if first.log.outcomes != service.log.outcomes
                        || first.log.digest != service.log.digest
                    {
                        return Err("two service rounds over one stream disagree".to_owned());
                    }
                    if service.dropped > 0 {
                        return Err(format!(
                            "{} submissions were dropped on a full queue",
                            service.dropped
                        ));
                    }
                    if let Some(path) = &wal {
                        remove_quietly(path);
                    }
                }
            }
        } else {
            let wal = kind.durable().then(|| wals.path("controller"));
            let controller = controller_round(&config(kind, wal.as_deref()), &requests)?;
            controller_time += controller.micros.iter().sum::<f64>() / 1e6;
            failed += controller.outcomes.iter().filter(|o| is_failure(o)).count() as u64;
            if let Some(path) = &wal {
                remove_quietly(path);
            }
            controllers.push(controller);
        }
    }
    let first = first.expect("at least one round ran");
    // Each request's latency is its median over the rounds.
    let latencies = per_request_median(&controllers);
    let controllers: Vec<&ControllerRound> = controllers.iter().collect();
    verify(kind, &memory, &first, first_wal.as_deref(), &controllers)?;
    eprintln!(
        "{}: {} service and {} controller rounds of {} requests; {} admitted, {} rejected, {} refused; \
         service {:.0}/s; handle p50 {:.1} µs p99 {:.1} µs over {} requests; checks passed",
        kind.name(),
        rates.len(),
        controllers.len(),
        requests.len(),
        first.log.admitted(),
        first.log.rejected(),
        first.log.refused(),
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
        1.0 - frac(failed as usize, attempted as usize),
    );
    report.push_peak_rss()?;
    Ok(report)
}

/// SplitMix64: the open loop's arrival-gap generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the open loop measured, in µs per request.
struct OpenLoop {
    /// From the due time to the start of `handle`.
    wait: Vec<f64>,
    /// How late the generator sent each request.
    lag: Vec<f64>,
    outcomes: Vec<AdmitOutcome>,
}

/// A seeded Poisson open loop at `rate` requests/s against one controller:
/// a generator thread sleeps until each due time and sends; the controller
/// thread handles requests as they arrive. Nothing spins.
fn open_loop(
    config: &AdmitConfig,
    requests: &[AdmitRequest],
    rate: f64,
    seed: u64,
) -> Result<OpenLoop, String> {
    let mut rng = seed ^ 0x0BE7_10AD;
    let mut offsets = Vec::with_capacity(requests.len());
    let mut at = 0.0f64;
    for _ in requests {
        let uniform = ((splitmix(&mut rng) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        at += -uniform.ln() / rate;
        offsets.push(Duration::from_secs_f64(at));
    }
    let mut controller =
        AdmissionController::new(config.clone()).map_err(|e| format!("controller: {e}"))?;
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let start = Instant::now() + Duration::from_millis(1);
    let offsets_ref = &offsets;
    let mut outcomes = Vec::with_capacity(requests.len());
    let (wait, lag) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut lag = Vec::with_capacity(offsets_ref.len());
            for (index, offset) in offsets_ref.iter().enumerate() {
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lag.push(due.elapsed().as_secs_f64() * 1e6);
                if tx.send((index, due)).is_err() {
                    break;
                }
            }
            lag
        });
        let mut wait = Vec::with_capacity(requests.len());
        for (index, due) in rx {
            wait.push(due.elapsed().as_secs_f64() * 1e6);
            outcomes.push(AdmitOutcome::of(&controller.handle(&requests[index])));
        }
        (
            wait,
            generator
                .join()
                .expect("the open-loop generator does not panic"),
        )
    });
    Ok(OpenLoop {
        wait,
        lag,
        outcomes,
    })
}

/// One pass of the stream through a fresh mirror; returns its wall time.
fn mirror_pass(
    memory: &AdmitConfig,
    requests: &[AdmitRequest],
    log: &AdmissionLog,
    tr: &mut Tracer,
) -> Result<(Mirror, f64), String> {
    let mut mirror = Mirror::new(memory)?;
    let started = Instant::now();
    for (seq, (request, expected)) in requests.iter().zip(&log.outcomes).enumerate() {
        let outcome = mirror.handle(tr, seq as u64, request)?;
        if &outcome != expected {
            return Err(format!(
                "the layer replay decided request {seq} as {outcome:?}, the service as {expected:?}"
            ));
        }
    }
    let wall = started.elapsed().as_secs_f64();
    if mirror.digest() != log.digest {
        return Err("the layer replay ended at another state digest than the service".to_owned());
    }
    Ok((mirror, wall))
}

/// Each request's median `handle` time over the rounds.
fn per_request_median(rounds: &[ControllerRound]) -> Vec<f64> {
    elementwise_median(&rounds.iter().map(|r| r.micros.clone()).collect::<Vec<_>>())
}

/// The traced run: per-layer metrics.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    spans: &Path,
) -> Result<Report, String> {
    let mut wals = Wals {
        dir: scratch.to_path_buf(),
        next: 0,
    };
    let mut tr = Tracer::new(true);
    let requests = stream(kind, seed, &mut tr);
    let memory = config(kind, None);
    let rounds = MIN_ROUNDS.max((seconds / 4.0).round() as usize);

    // Service and controller rounds on the workload's own configuration,
    // plus in-memory controller rounds pairing off the WAL seal.
    let mut service_rates = Vec::new();
    let mut queue_full = 0;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first: Option<ServiceRound> = None;
    let mut service_wal = None;
    let mut native = Vec::new();
    let mut in_memory = Vec::new();
    for _ in 0..rounds {
        let wal = kind.durable().then(|| wals.path("service"));
        let service = service_round(&config(kind, wal.as_deref()), &requests)?;
        service_rates.push(service.log.outcomes.len() as f64 / service.seconds);
        queue_full += service.queue_full;
        attempted += requests.len() as u64;
        failed += (service
            .log
            .outcomes
            .iter()
            .filter(|o| is_failure(o))
            .count()
            + service.dropped) as u64;
        if first.is_none() {
            first = Some(service);
            service_wal = wal;
        } else if let Some(path) = wal {
            remove_quietly(&path);
        }
        if kind.durable() {
            let path = wals.path("controller");
            native.push(controller_round(&config(kind, Some(&path)), &requests)?);
            remove_quietly(&path);
        }
        in_memory.push(controller_round(&memory, &requests)?);
    }
    let first = first.expect("at least one round ran");
    let log = &first.log;
    let own = if kind.durable() { &native } else { &in_memory };
    let handle_native = per_request_median(own);
    let handle_memory = per_request_median(&in_memory);
    let controller_rate = requests.len() as f64 / (handle_native.iter().sum::<f64>() / 1e6);

    // The layer replay: untraced and traced passes alternate; the first
    // traced pass records the spans the layer metrics come from.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let (_, wall) = mirror_pass(&memory, &requests, log, &mut Tracer::new(false))?;
    plain.push(wall);
    let (mirror, wall) = mirror_pass(&memory, &requests, log, &mut tr)?;
    traced.push(wall);
    let (_, wall) = mirror_pass(&memory, &requests, log, &mut Tracer::new(false))?;
    plain.push(wall);
    let (_, wall) = mirror_pass(&memory, &requests, log, &mut Tracer::new(true))?;
    traced.push(wall);

    // Worker-mode slicing: what a slicer worker distributes from scratch.
    for (seq, graph) in &mirror.missed {
        tr.time("slicing.distribute", *seq, || {
            mirror.slicer().distribute(graph, mirror.platform())
        })
        .map_err(|e| format!("distribute: {e}"))?;
    }

    let open = open_loop(
        &config(kind, kind.durable().then(|| wals.path("open")).as_deref()),
        &requests,
        controller_rate / 2.0,
        seed,
    )?;

    let controllers: Vec<&ControllerRound> = own.iter().chain(in_memory.iter()).collect();
    verify(kind, &memory, &first, service_wal.as_deref(), &controllers)?;
    if open.outcomes != log.outcomes {
        return Err("the open-loop controller decided the stream differently".to_owned());
    }

    // Self time of `handle`: the controller's per-request wall time minus
    // the layer calls the replay timed for the same request.
    let mut children = vec![0.0; requests.len()];
    for (seq, covered) in tr.children_of("request") {
        children[seq as usize] = covered;
    }
    let self_us: Vec<f64> = handle_memory
        .iter()
        .zip(&children)
        .map(|(h, c)| h - c)
        .collect();
    let seal_us: Vec<f64> = if kind.durable() {
        handle_native
            .iter()
            .zip(&handle_memory)
            .map(|(d, m)| d - m)
            .collect()
    } else {
        Vec::new()
    };
    let wal_bytes = match &service_wal {
        Some(path) => {
            std::fs::metadata(path)
                .map_err(|e| format!("WAL size: {e}"))?
                .len() as f64
                / log.outcomes.len() as f64
        }
        None => 0.0,
    };

    let c = &mirror.counts;
    let decisions = log.outcomes.len();
    let window_audit = tr.self_micros("slicing.window_audit");
    let schedule_audit = tr.self_micros("audit.schedule");
    let trial = tr.self_micros("sched.trial");
    let distribute = tr.self_micros("slicing.distribute");
    let misses = tr.total("cache.miss") + tr.total("cache.insert");
    let mut report = Report::new(attempted, failed);
    report.push("admission.self_us_mean", mean(&self_us));
    report.push("admission.wait_us_p50", quantile(&open.wait, 0.5));
    report.push("admission.wait_us_p99", quantile(&open.wait, 0.99));
    report.push("admission.gen_lag_us_p99", quantile(&open.lag, 0.99));
    report.push("admission.admitted_frac", frac(log.admitted(), decisions));
    report.push("admission.refused_frac", frac(log.refused(), decisions));
    report.push("service.speedup", median(&service_rates) / controller_rate);
    report.push("service.queue_full", queue_full as f64);
    report.push("prefilter.us_mean", mean(&tr.self_micros("prefilter")));
    report.push(
        "prefilter.refused_frac",
        frac(c.prefilter_refused, c.prefilter_checks),
    );
    report.push(
        "cache.hit_frac",
        frac(c.cache_hits, c.cache_hits + c.cache_misses),
    );
    report.push("cache.hit_us_mean", mean(&tr.self_micros("cache.hit")));
    report.push("cache.miss_us_mean", per(misses, c.cache_misses));
    report.push("cache.evictions", c.cache_evictions as f64);
    report.push("slicing.distribute_us_mean", mean(&distribute));
    report.push("slicing.distribute_us_p99", quantile(&distribute, 0.99));
    report.push(
        "slicing.traced_us_mean",
        mean(&tr.self_micros("slicing.traced")),
    );
    report.push("slicing.window_audit_us_mean", mean(&window_audit));
    report.push(
        "incremental.redistribute_us_mean",
        mean(&tr.self_micros("incremental.redistribute")),
    );
    report.push(
        "incremental.reuse_frac",
        frac(c.reuse_hits, c.reuse_hits + c.reuse_misses),
    );
    report.push("sched.trial_us_mean", mean(&trial));
    report.push("sched.trial_us_p99", quantile(&trial, 0.99));
    report.push(
        "sched.residents_mean",
        per(c.residents_at_trial as f64, c.trials),
    );
    report.push(
        "sched.commit_us_mean",
        mean(&tr.self_micros("sched.commit")),
    );
    report.push(
        "sched.repair_us_mean",
        mean(&tr.self_micros("sched.repair")),
    );
    report.push(
        "sched.repair_fastpath_frac",
        frac(c.repaired, c.amend_trials),
    );
    report.push("wal.seal_us_mean", mean(&seal_us));
    report.push("wal.bytes_per_record", wal_bytes);
    report.push(
        "gen.generate_us_mean",
        mean(&tr.self_micros("gen.generate")),
    );
    let audited = window_audit.iter().sum::<f64>() + schedule_audit.iter().sum::<f64>();
    report.push("audit.us_mean", per(audited, schedule_audit.len()));
    report.push(
        "audit.violations",
        log.verdicts().map(|v| v.violations).sum::<usize>() as f64,
    );
    let handled: f64 = handle_native.iter().sum();
    let slicing_us = tr.total("slicing.traced") + tr.total("incremental.redistribute");
    let sched_us: f64 = [
        "sched.trial",
        "sched.repair",
        "sched.commit",
        "sched.release",
        "sched.rollback",
    ]
    .iter()
    .map(|name| tr.total(name))
    .sum();
    report.push("share.slicing_frac", slicing_us / handled);
    report.push("share.sched_frac", sched_us / handled);
    report.push("share.wal_frac", seal_us.iter().sum::<f64>() / handled);
    report.push(
        "tracing.overhead_frac",
        traced.iter().sum::<f64>() / plain.iter().sum::<f64>() - 1.0,
    );

    tr.write_jsonl(spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    eprintln!(
        "{} traced: {} spans to {}; layer replay matched all {} decisions",
        kind.name(),
        tr.spans().len(),
        spans.display(),
        decisions
    );
    Ok(report)
}
