//! Integration coverage of the admission service: the determinism
//! contract (a concurrent service's transcript replays bit-identically
//! through a sequential controller, for arbitrary request mixes), the
//! reject-leaves-no-trace invariant, crash durability (write-ahead log
//! recovery after an arbitrarily torn tail, content-addressed graph
//! records), staleness-aware shedding
//! accounting, and the unified `feast::Error` surface over the admission
//! path.

use feast::{
    AdmissionController, AdmissionService, AdmitConfig, AdmitError, AdmitOutcome, AdmitRequest,
    Error, Scenario,
};
use platform::Platform;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slicing::PrefilterReject;
use slicing::{CommEstimate, DeltaOp, GraphDelta, MetricKind};
use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
use taskgraph::{Subtask, SubtaskId, TaskGraph, TaskGraphBuilder, Time};

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fresh temp-file path; the file is removed by Drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        TempPath(std::env::temp_dir().join(format!(
            "feast-admission-it-{tag}-{}-{n}.jsonl",
            std::process::id()
        )))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn spec() -> WorkloadSpec {
    WorkloadSpec::paper(ExecVariation::Mdet)
}

fn config(size: usize) -> AdmitConfig {
    let scenario = Scenario::paper("ADM/IT", spec(), MetricKind::adapt(), CommEstimate::Ccne);
    AdmitConfig::new(scenario, size)
}

/// Generates the first paper workload at or after `seed` (generation can
/// reject a stream; admission callers retry on the next one, so do we).
fn graph(seed: u64) -> Arc<TaskGraph> {
    Arc::new(
        (seed..seed + 16)
            .find_map(|s| generate_seeded(&spec(), s).ok())
            .expect("a paper workload generates within 16 seed attempts"),
    )
}

/// A provably infeasible two-subtask chain: 200 time units of serial
/// WCET against an end-to-end deadline of 50, so both the pre-filter's
/// chain bound and the full slice + trial path must refuse it.
fn infeasible_graph() -> Arc<TaskGraph> {
    let mut b = TaskGraphBuilder::new();
    let head = b.add_subtask(Subtask::new(Time::new(100)).released_at(Time::ZERO));
    let tail = b.add_subtask(Subtask::new(Time::new(100)).due_at(Time::new(50)));
    b.add_edge(head, tail, 1).unwrap();
    Arc::new(b.build().unwrap())
}

/// The platform an [`AdmissionController`] at `size` trials against,
/// derived from the same scenario knobs the controller uses.
fn controller_platform(size: usize) -> Platform {
    let scenario = config(size).scenario;
    Platform::homogeneous(size, scenario.topology.build(size, scenario.cost_per_item)).unwrap()
}

/// A randomized request mix like [`request_mix`], but admits draw from a
/// pool of 3 template graphs so the cross-request slice cache sees
/// repeats (and, at capacity 2, eviction churn).
fn templated_mix(seed: u64, len: usize) -> Vec<AdmitRequest> {
    let templates: Vec<Arc<TaskGraph>> = (0..3)
        .map(|slot| graph((seed % 64) * 31 + slot * 17 + 1))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e3);
    let mut requests = Vec::with_capacity(len);
    let mut origin = 0i64;
    for id in 0..len as u64 {
        if id > 0 && rng.gen_range(0..4u32) == 0 {
            let target = rng.gen_range(0..id);
            let delta = GraphDelta::new().push(DeltaOp::SetWcet {
                subtask: SubtaskId::new(rng.gen_range(0..8u32)),
                wcet: Time::new(rng.gen_range(1..40i64)),
            });
            requests.push(AdmitRequest::Amend { id: target, delta });
        } else {
            origin += rng.gen_range(0..1_500i64);
            requests.push(AdmitRequest::Admit {
                id,
                graph: Arc::clone(&templates[rng.gen_range(0..templates.len())]),
                origin: Time::new(origin),
            });
        }
    }
    requests
}

/// A templated mix whose amendments target earlier *admits* only — any of
/// them, oldest to latest, often the same one several times — so a
/// resident is amended long after newer admits (and the cache entries
/// they brought) took over.
fn resident_amend_mix(seed: u64, len: usize) -> Vec<AdmitRequest> {
    let templates: Vec<Arc<TaskGraph>> = (0..3)
        .map(|slot| graph((seed % 64) * 29 + slot * 13 + 5))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a1);
    let mut requests = Vec::with_capacity(len);
    let mut admits: Vec<u64> = Vec::new();
    let mut origin = 0i64;
    for id in 0..len as u64 {
        if !admits.is_empty() && rng.gen_range(0..3u32) == 0 {
            let target = admits[rng.gen_range(0..admits.len())];
            let delta = GraphDelta::new().push(DeltaOp::SetWcet {
                subtask: SubtaskId::new(rng.gen_range(0..8u32)),
                wcet: Time::new(rng.gen_range(1..40i64)),
            });
            requests.push(AdmitRequest::Amend { id: target, delta });
        } else {
            origin += rng.gen_range(0..400i64);
            admits.push(id);
            requests.push(AdmitRequest::Admit {
                id,
                graph: Arc::clone(&templates[rng.gen_range(0..templates.len())]),
                origin: Time::new(origin),
            });
        }
    }
    requests
}

/// A randomized request mix: admits at non-decreasing origins, with
/// occasional amendments of previously submitted ids (resident or not —
/// both outcomes must replay identically).
fn request_mix(seed: u64, len: usize) -> Vec<AdmitRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests = Vec::with_capacity(len);
    let mut origin = 0i64;
    for id in 0..len as u64 {
        if id > 0 && rng.gen_range(0..4u32) == 0 {
            let target = rng.gen_range(0..id);
            let delta = GraphDelta::new().push(DeltaOp::SetWcet {
                subtask: SubtaskId::new(rng.gen_range(0..8u32)),
                wcet: Time::new(rng.gen_range(1..40i64)),
            });
            requests.push(AdmitRequest::Amend { id: target, delta });
        } else {
            origin += rng.gen_range(0..1_500i64);
            requests.push(AdmitRequest::Admit {
                id,
                graph: graph(seed.wrapping_add(id).wrapping_mul(2654435761) % 10_000),
                origin: Time::new(origin),
            });
        }
    }
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole's determinism contract: any request mix pushed
    /// through the concurrent service (parallel slicers, out-of-order
    /// completion, reorder buffer) produces the byte-identical verdict
    /// sequence and final committed state as a fresh sequential
    /// controller handling the same requests one by one.
    #[test]
    fn service_transcript_replays_bit_identically(
        seed in 0u64..1_000,
        workers in 1usize..4,
        len in 4usize..12,
    ) {
        let config = config(8).with_workers(workers).with_queue_depth(64);
        let requests = request_mix(seed, len);

        let service = AdmissionService::new(config.clone()).expect("service starts");
        for request in &requests {
            service.submit(request.clone()).expect("queue is deep enough");
        }
        let log = service.shutdown().expect("service drains and stops");
        prop_assert_eq!(log.outcomes.len(), requests.len());
        prop_assert_eq!(&log.requests, &requests);

        let replayed = log.replay(&config).expect("replay controller builds");
        prop_assert!(
            log.matches(&replayed),
            "service verdicts diverged from sequential replay at seed {}",
            seed
        );
    }

    /// Crash durability: tear an arbitrary number of bytes off the final
    /// write-ahead-log line (as a crash mid-append would) and recovery
    /// must land on exactly the state of the sealed prefix — the torn
    /// record behaves as if the request was never concluded.
    #[test]
    fn recovery_after_a_torn_tail_matches_the_sealed_prefix(
        seed in 0u64..500,
        cut in 1usize..200,
    ) {
        let wal = TempPath::new("torn");
        let requests = request_mix(seed, 6);
        let mut durable =
            AdmissionController::new(config(8).durable(&wal.0)).expect("controller builds");
        for request in &requests {
            let _ = durable.handle(request);
        }
        drop(durable);

        let text = std::fs::read_to_string(&wal.0).expect("wal exists");
        let body = text.trim_end_matches('\n');
        let final_len = body.len() - body.rfind('\n').map_or(0, |p| p + 1);
        // Clamp the tear inside the final record (+1 for its newline), so
        // exactly one record is at stake.
        let cut = cut.min(final_len + 1);
        std::fs::write(&wal.0, &text[..text.len() - cut]).expect("torn wal written");

        // cut == 1 removes only the trailing newline: the final record is
        // still complete. Any deeper cut tears it.
        let expected = if cut == 1 { requests.len() } else { requests.len() - 1 };
        let (recovered, log) =
            AdmissionController::recover(config(8), &wal.0).expect("recovery succeeds");
        prop_assert_eq!(log.outcomes.len(), expected);

        let mut fresh = AdmissionController::new(config(8)).expect("controller builds");
        for request in requests.iter().take(expected) {
            let _ = fresh.handle(request);
        }
        prop_assert_eq!(recovered.digest(), fresh.digest());
        prop_assert_eq!(recovered.residents(), fresh.residents());
    }

    /// Slice-cache transparency: for any templated admit/amend mix, the
    /// transcript (every outcome, the final digest, the resident count)
    /// is bit-identical with the cache off, with the default cache, and
    /// with a capacity-2 cache under eviction churn — the cache can make
    /// admission faster, never different. Amendments of cache-hit
    /// residents exercise the memoized-`SliceMemo` repair path.
    #[test]
    fn slice_cache_is_transcript_invisible(
        seed in 0u64..1_000,
        len in 6usize..14,
    ) {
        let requests = templated_mix(seed, len);
        let drive = |cache: usize| {
            let mut controller =
                AdmissionController::new(config(8).with_slice_cache(cache)).unwrap();
            let outcomes: Vec<AdmitOutcome> = requests
                .iter()
                .map(|request| AdmitOutcome::of(&controller.handle(request)))
                .collect();
            (outcomes, controller.digest(), controller.residents())
        };
        let off = drive(0);
        let tiny = drive(2);
        let on = drive(64);
        // A differing transcript at capacity 2 means eviction churn leaked
        // into outcomes; at 64 it means hits did.
        prop_assert_eq!(&off, &tiny);
        prop_assert_eq!(&off, &on);
    }

    /// Amendments of any resident — not only the latest — through a
    /// 2-worker service replay bit-identically through a sequential
    /// controller, and the transcript is the same with the cache off, at
    /// capacity 2 (entries evicted under live residents) and at capacity 64.
    #[test]
    fn amendments_of_any_resident_replay_across_cache_sizes(
        seed in 0u64..1_000,
        len in 8usize..18,
    ) {
        let requests = resident_amend_mix(seed, len);
        let drive = |cache: usize| -> Result<feast::AdmissionLog, TestCaseError> {
            let config = config(8)
                .with_slice_cache(cache)
                .with_workers(2)
                .with_queue_depth(64);
            let service = AdmissionService::new(config.clone()).expect("service starts");
            for request in &requests {
                service.submit(request.clone()).expect("queue is deep enough");
            }
            let log = service.shutdown().expect("service drains and stops");
            let replayed = log.replay(&config).expect("replay controller builds");
            prop_assert!(
                log.matches(&replayed),
                "cache {}: service diverged from sequential replay at seed {}",
                cache,
                seed
            );
            Ok(log)
        };
        let off = drive(0)?;
        for cache in [2, 64] {
            let on = drive(cache)?;
            prop_assert!(off.matches(&on), "cache {} changed the transcript", cache);
        }
    }

    /// Content-addressed WAL records: for any templated admit/amend mix
    /// (every other admit re-allocates its template, so equality is by
    /// content, not by pointer), a durable controller and a 2-worker
    /// durable service both seal each distinct graph inline exactly once
    /// and reference it afterwards, and recovery resolves every reference
    /// back to a transcript that replays bit-identically.
    #[test]
    fn wal_seals_each_distinct_graph_inline_once(
        seed in 0u64..1_000,
        len in 6usize..20,
    ) {
        let requests: Vec<AdmitRequest> = templated_mix(seed, len)
            .into_iter()
            .map(|request| match request {
                AdmitRequest::Admit { id, graph, origin } if id % 2 == 1 => AdmitRequest::Admit {
                    id,
                    graph: Arc::new((*graph).clone()),
                    origin,
                },
                other => other,
            })
            .collect();
        let mut distinct: Vec<&TaskGraph> = Vec::new();
        for request in &requests {
            if let AdmitRequest::Admit { graph, .. } = request {
                if !distinct.iter().any(|known| **known == **graph) {
                    distinct.push(graph);
                }
            }
        }
        let admits = requests
            .iter()
            .filter(|request| matches!(request, AdmitRequest::Admit { .. }))
            .count();

        let controller_wal = TempPath::new("cas-controller");
        let mut controller =
            AdmissionController::new(config(8).durable(&controller_wal.0)).unwrap();
        let mut live = feast::AdmissionLog::default();
        for request in &requests {
            live.outcomes.push(AdmitOutcome::of(&controller.handle(request)));
        }
        live.digest = controller.digest();
        live.residents = controller.residents();
        drop(controller);

        let service_wal = TempPath::new("cas-service");
        let service =
            AdmissionService::new(config(8).with_workers(2).durable(&service_wal.0)).unwrap();
        for request in &requests {
            service.submit(request.clone()).expect("queue is deep enough");
        }
        let served = service.shutdown().expect("service drains and stops");

        for (wal, log) in [(&controller_wal, &live), (&service_wal, &served)] {
            let text = std::fs::read_to_string(&wal.0).unwrap();
            let inline = text.matches(r#""request":{"Admit":"#).count();
            let refs = text.matches(r#""request":{"AdmitRef":"#).count();
            prop_assert_eq!(inline, distinct.len());
            prop_assert_eq!(inline + refs, admits);

            let (recovered, recovered_log) =
                AdmissionController::recover(config(8), &wal.0).expect("recovery succeeds");
            prop_assert!(log.matches(&recovered_log), "WAL transcript diverged");
            prop_assert_eq!(recovered.digest(), log.digest);
            prop_assert_eq!(&recovered_log.requests, &requests);
            let replayed = recovered_log.replay(&config(8)).expect("replay builds");
            prop_assert!(recovered_log.matches(&replayed));
        }
    }

    /// Chain-bound conservativeness: whenever the pre-filter's critical-
    /// path bound refuses a random chain, the full slice + trial path —
    /// against the most permissive (empty) state — also refuses it.
    #[test]
    fn prefilter_chain_bound_is_conservative(
        len in 2usize..6,
        wcet_seed in 0u64..10_000,
        deadline in 1i64..400,
    ) {
        let mut rng = StdRng::seed_from_u64(wcet_seed);
        let wcets: Vec<i64> = (0..len).map(|_| rng.gen_range(1i64..120)).collect();
        let mut b = TaskGraphBuilder::new();
        let mut prev = None;
        let last = wcets.len() - 1;
        for (i, &w) in wcets.iter().enumerate() {
            let mut subtask = Subtask::new(Time::new(w));
            if i == 0 {
                subtask = subtask.released_at(Time::ZERO);
            }
            if i == last {
                subtask = subtask.due_at(Time::new(deadline));
            }
            let id = b.add_subtask(subtask);
            if let Some(p) = prev {
                b.add_edge(p, id, 1).unwrap();
            }
            prev = Some(id);
        }
        let graph = Arc::new(b.build().unwrap());

        let pipeline = feast::Pipeline::new(&config(2).scenario);
        if let Some(reject) = pipeline.prefilter(&graph, &controller_platform(2)) {
            let chain_kind = matches!(reject, PrefilterReject::ChainBound { .. });
            prop_assert!(chain_kind, "a pure chain can only trip the chain bound");
            let mut full =
                AdmissionController::new(config(2).with_prefilter(false)).unwrap();
            let admitted = match full.admit(0, graph, Time::ZERO) {
                Ok(verdict) => verdict.admitted,
                Err(_) => false,
            };
            prop_assert!(
                !admitted,
                "chain bound refused a graph the full path admits (wcets {:?}, deadline {})",
                wcets,
                deadline
            );
        }
    }

    /// Capacity-bound conservativeness: whenever the pre-filter's total-
    /// demand bound refuses a random fork graph (one source fanning out
    /// to parallel sinks, so the chain bound stays quiet), the full
    /// slice + trial path against an empty state also refuses it.
    #[test]
    fn prefilter_capacity_bound_is_conservative(
        branches in 3usize..10,
        wcet_seed in 0u64..10_000,
        processors in 1usize..3,
        slack in 0i64..40,
    ) {
        let mut rng = StdRng::seed_from_u64(wcet_seed ^ 0xcafe);
        let branch_wcets: Vec<i64> = (0..branches).map(|_| rng.gen_range(5i64..60)).collect();
        let source_wcet = 5i64;
        // Every root-to-sink chain fits the window, so only the demand
        // bound can fire.
        let deadline = source_wcet
            + branch_wcets.iter().copied().max().unwrap()
            + slack;
        let mut b = TaskGraphBuilder::new();
        let source = b.add_subtask(
            Subtask::new(Time::new(source_wcet)).released_at(Time::ZERO),
        );
        for &w in &branch_wcets {
            let sink =
                b.add_subtask(Subtask::new(Time::new(w)).due_at(Time::new(deadline)));
            b.add_edge(source, sink, 1).unwrap();
        }
        let graph = Arc::new(b.build().unwrap());

        let pipeline = feast::Pipeline::new(&config(processors).scenario);
        if let Some(reject) = pipeline.prefilter(&graph, &controller_platform(processors)) {
            if matches!(reject, PrefilterReject::CapacityBound { .. }) {
                let mut full = AdmissionController::new(
                    config(processors).with_prefilter(false),
                )
                .unwrap();
                let admitted = match full.admit(0, graph, Time::ZERO) {
                    Ok(verdict) => verdict.admitted,
                    Err(_) => false,
                };
                prop_assert!(
                    !admitted,
                    "capacity bound refused a graph the full path admits \
                     (branches {:?}, {} processors, deadline {})",
                    branch_wcets,
                    processors,
                    deadline
                );
            }
        }
    }
}

/// Mixed-schema WAL compatibility: logs written before the pre-filter
/// existed (or with it disabled) seal infeasible graphs as rejecting
/// verdicts, while pre-filter-enabled sessions seal them as typed
/// refusals. Recovery replays each record under the schema it was sealed
/// with, so either kind of log recovers bit-identically under either
/// config.
#[test]
fn mixed_schema_wal_recovers_across_prefilter_generations() {
    // Old schema → new config: the sealed record stays a verdict.
    let wal = TempPath::new("mixed-old");
    let mut old =
        AdmissionController::new(config(8).with_prefilter(false).durable(&wal.0)).unwrap();
    old.admit(0, graph(3), Time::ZERO).unwrap();
    let verdict = old.admit(1, infeasible_graph(), Time::new(100)).unwrap();
    assert!(
        !verdict.admitted,
        "full path must reject the infeasible chain"
    );
    old.admit(2, graph(9), Time::new(200)).unwrap();
    let digest = old.digest();
    drop(old);

    let (recovered, log) = AdmissionController::recover(config(8).with_prefilter(true), &wal.0)
        .expect("pre-pre-filter WAL recovers under a pre-filter-enabled config");
    assert_eq!(log.outcomes.len(), 3);
    assert_eq!(recovered.digest(), digest);
    assert_eq!(
        log.prefilter_rejected(),
        0,
        "the sealed reject verdict must not be rewritten into a refusal"
    );
    assert!(matches!(&log.outcomes[1], AdmitOutcome::Verdict(v) if !v.admitted));

    // New schema → old config: the sealed pre-filter refusal replays
    // through the pre-filter even though the session has it disabled.
    let wal = TempPath::new("mixed-new");
    let mut new = AdmissionController::new(config(8).with_prefilter(true).durable(&wal.0)).unwrap();
    new.admit(0, graph(3), Time::ZERO).unwrap();
    let refused = new.admit(1, infeasible_graph(), Time::new(100));
    assert!(matches!(refused, Err(AdmitError::Prefilter(_))));
    new.admit(2, graph(9), Time::new(200)).unwrap();
    let digest = new.digest();
    drop(new);

    let (recovered, log) = AdmissionController::recover(config(8).with_prefilter(false), &wal.0)
        .expect("pre-filter-refusal WAL recovers under a pre-filter-off config");
    assert_eq!(log.outcomes.len(), 3);
    assert_eq!(recovered.digest(), digest);
    assert_eq!(log.prefilter_rejected(), 1);
}

#[test]
fn rejects_and_failed_amends_leave_no_trace() {
    let mut controller = AdmissionController::new(config(4)).unwrap();

    // Saturate the small platform at a single origin.
    let mut id = 0;
    let rejected = loop {
        let verdict = controller.admit(id, graph(id + 1), Time::ZERO).unwrap();
        if !verdict.admitted {
            break verdict;
        }
        id += 1;
        assert!(id < 64, "4 processors never saturated");
    };
    assert!(!rejected.admitted);
    let digest = controller.digest();
    let residents = controller.residents();

    // A rejected admit left no reservation behind...
    let verdict = controller.admit(99, graph(123), Time::ZERO).unwrap();
    assert!(!verdict.admitted, "saturated platform keeps rejecting");
    assert_eq!(controller.digest(), digest);
    assert_eq!(controller.residents(), residents);

    // ...and an amendment that inflates a resident beyond feasibility is
    // rejected with the original reservation restored bit-identically.
    let inflate = GraphDelta::new().push(DeltaOp::SetWcet {
        subtask: SubtaskId::new(0),
        wcet: Time::new(1_000_000),
    });
    let amended = controller.amend(0, &inflate).unwrap();
    assert!(!amended.admitted, "absurd WCET cannot stay admitted");
    assert_eq!(controller.digest(), digest);
    assert_eq!(controller.residents(), residents);
}

/// The consolidated error surface: admission failures flow through
/// `AdmitError` into the crate-wide `feast::Error` with `?` alone, and
/// the chain preserves the typed variants.
#[test]
fn admission_errors_flow_through_the_unified_error() {
    fn drive() -> Result<(), Error> {
        let mut controller = AdmissionController::new(config(4))?;
        let delta = GraphDelta::new().push(DeltaOp::SetWcet {
            subtask: SubtaskId::new(0),
            wcet: Time::new(5),
        });
        controller.amend(42, &delta)?;
        Ok(())
    }

    let err = drive().expect_err("amending an empty service must fail");
    assert!(matches!(
        err,
        Error::Admit(AdmitError::NoResident { id: 42 })
    ));
    assert!(err.to_string().contains("42"));
    let source = std::error::Error::source(&err).expect("Admit wraps its cause");
    assert!(source.to_string().contains("no resident"));

    // A zero-processor platform is a pipeline error, not a panic.
    let err = AdmissionController::new(config(0)).expect_err("zero processors");
    assert!(matches!(err, AdmitError::Trial(_)));

    // Submitting to a service whose queue has been shut down is
    // impossible by construction (submit consumes &self and shutdown
    // consumes self), so the remaining refusal is backpressure:
    let service = AdmissionService::new(config(4).with_queue_depth(1).with_workers(1)).unwrap();
    let mut saw_full = false;
    for id in 0..64 {
        match service.submit(AdmitRequest::Admit {
            id,
            graph: graph(7),
            origin: Time::ZERO,
        }) {
            Ok(()) => {}
            Err(AdmitError::QueueFull { depth: 1 }) => {
                saw_full = true;
                break;
            }
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert!(saw_full, "rendezvous queue must exert backpressure");
    service.shutdown().unwrap();
}

/// Staleness-aware shedding accounting: every shed request is concluded
/// with a typed outcome, appears in the transcript, is sealed to the WAL,
/// and leaves no trace in committed state — recovery and replay both
/// reproduce the run with the shed requests' (never-run) trials skipped.
#[test]
fn shed_requests_are_accounted_sealed_and_leave_no_trace() {
    let wal = TempPath::new("shed");
    let svc_config = config(8)
        .with_workers(2)
        .with_decision_budget(Duration::ZERO)
        .durable(&wal.0);
    let service = AdmissionService::new(svc_config.clone()).unwrap();
    for id in 0..5 {
        service
            .submit(AdmitRequest::Admit {
                id,
                graph: graph(id + 1),
                origin: Time::ZERO,
            })
            .unwrap();
    }
    let log = service.shutdown().unwrap();
    assert_eq!(log.outcomes.len(), 5, "every request concluded");
    assert_eq!(log.shed(), 5, "zero budget sheds everything");
    assert_eq!(log.admitted() + log.rejected(), 0, "no trial ever ran");
    assert_eq!(log.residents, 0);

    // No trace: the final state is the idle state.
    let idle = AdmissionController::new(config(8)).unwrap();
    assert_eq!(log.digest, idle.digest());

    // The shed outcomes were sealed; recovery adopts them verbatim and
    // lands on the same (idle) digest.
    let (recovered, recovered_log) = AdmissionController::recover(config(8), &wal.0).unwrap();
    assert_eq!(recovered_log.outcomes.len(), 5);
    assert_eq!(recovered_log.shed(), 5);
    assert_eq!(recovered.digest(), idle.digest());
    assert!(log.matches(&recovered_log), "recovered transcript diverged");

    // And the in-memory replay agrees too.
    let replayed = log.replay(&svc_config).unwrap();
    assert!(log.matches(&replayed));
}

/// A service with a generous budget sheds nothing: the budget bounds
/// latency without distorting an unloaded run.
#[test]
fn generous_budget_sheds_nothing() {
    let svc_config = config(8)
        .with_workers(2)
        .with_decision_budget(Duration::from_secs(3600));
    let service = AdmissionService::new(svc_config.clone()).unwrap();
    for id in 0..5 {
        service
            .submit(AdmitRequest::Admit {
                id,
                graph: graph(id + 1),
                origin: Time::new(i64::try_from(id).unwrap() * 700),
            })
            .unwrap();
    }
    let log = service.shutdown().unwrap();
    assert_eq!(log.shed(), 0);
    assert_eq!(log.outcomes.len(), 5);
    assert_eq!(log.admitted() + log.rejected(), 5);
    let replayed = log.replay(&svc_config).unwrap();
    assert!(log.matches(&replayed));
}

/// The durable service: a full service run seals every verdict, and
/// recovery from the WAL is bit-identical to the live transcript.
#[test]
fn durable_service_run_recovers_bit_identically() {
    let wal = TempPath::new("service");
    let svc_config = config(8).with_workers(3).durable(&wal.0);
    let service = AdmissionService::new(svc_config.clone()).unwrap();
    let requests = request_mix(17, 10);
    for request in &requests {
        service.submit(request.clone()).unwrap();
    }
    let log = service.shutdown().unwrap();
    assert_eq!(log.outcomes.len(), requests.len());

    let (recovered, recovered_log) = AdmissionController::recover(config(8), &wal.0).unwrap();
    assert!(log.matches(&recovered_log), "WAL transcript diverged");
    assert_eq!(recovered.digest(), log.digest);
    assert_eq!(recovered.residents(), log.residents);
}

/// Origin-shifted admissions onto an idle platform predict the same
/// lateness as the offline pipeline at time zero: the service is the
/// paper's pipeline, re-anchored — not a different algorithm.
#[test]
fn online_verdicts_match_the_offline_pipeline() {
    let graph = graph(42);
    let platform = platform::Platform::paper(8).unwrap();
    let scenario = config(8).scenario;

    let mut pipeline = feast::Pipeline::new(&scenario);
    let offline = pipeline
        .slice(&graph, &platform)
        .unwrap()
        .trial(&platform)
        .unwrap();

    let mut controller = AdmissionController::new(config(8)).unwrap();
    let online = controller
        .admit(1, Arc::clone(&graph), Time::new(777_777))
        .unwrap();

    assert_eq!(online.admitted, offline.admit);
    assert_eq!(online.max_lateness, offline.max_lateness);
    assert_eq!(online.end_to_end, offline.end_to_end);
    assert_eq!(online.makespan, offline.makespan + Time::new(777_777));
}
