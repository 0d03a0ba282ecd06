//! Amendments are sliced on stage one, ahead of the coordinator, against
//! the resident graph `AdmissionService::submit` predicts: the latest
//! accepted admit of the id among the last `capacity` admits, for the
//! first amendment after it. The
//! coordinator uses that product only when its base is the resident's
//! own graph. The telemetry registry is process-global, so this binary
//! holds a single test: nothing else feeds the registry while it runs,
//! and the `admissions_amend_presliced` deltas are exact.

use std::sync::Arc;

use feast::telemetry;
use feast::{
    AdmissionController, AdmissionLog, AdmissionService, AdmitConfig, AdmitOutcome, AdmitRequest,
    Refusal, Scenario,
};
use slicing::{CommEstimate, GraphDelta, MetricKind};
use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
use taskgraph::{Subtask, SubtaskId, TaskGraph, TaskGraphBuilder, Time};

/// Blocks of the stream; each holds every case once.
const BLOCKS: u64 = 6;

/// Resident capacity, and so the length of `submit`'s admit ring.
const CAPACITY: usize = 8;

/// Origin advance between admits that must meet an empty platform: far
/// past any paper graph's horizon, so every earlier resident retires.
const STRIDE: i64 = 100_000;

fn spec() -> WorkloadSpec {
    WorkloadSpec::paper(ExecVariation::Mdet)
}

fn config(workers: usize, cache: usize, queue: usize) -> AdmitConfig {
    let scenario = Scenario::paper("PRESLICE", spec(), MetricKind::norm(), CommEstimate::Ccne);
    AdmitConfig::new(scenario, 8)
        .with_workers(workers)
        .with_slice_cache(cache)
        .with_capacity(CAPACITY)
        .with_queue_depth(queue)
}

/// The sequential outcome each request must get.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// An admitted verdict.
    Admitted,
    /// A rejected verdict.
    Rejected,
    /// A verdict either way.
    Decided,
    /// A pre-filter refusal.
    Prefiltered,
    /// A duplicate-id refusal.
    Duplicate,
    /// A no-resident refusal.
    NoResident,
    /// An inapplicable-delta refusal.
    DeltaRefused,
}

impl Expect {
    fn holds(self, outcome: &AdmitOutcome) -> bool {
        match (self, outcome) {
            (Expect::Admitted, AdmitOutcome::Verdict(v)) => v.admitted,
            (Expect::Rejected, AdmitOutcome::Verdict(v)) => !v.admitted,
            (Expect::Decided, AdmitOutcome::Verdict(_)) => true,
            (Expect::Prefiltered, AdmitOutcome::Refused(Refusal::Prefilter { .. }))
            | (Expect::Duplicate, AdmitOutcome::Refused(Refusal::DuplicateId { .. }))
            | (Expect::NoResident, AdmitOutcome::Refused(Refusal::NoResident { .. }))
            | (Expect::DeltaRefused, AdmitOutcome::Refused(Refusal::Delta { .. })) => true,
            _ => false,
        }
    }
}

/// The request stream, each request with its expected outcome and whether
/// the coordinator must decide it with stage one's product.
struct Stream {
    cases: Vec<(AdmitRequest, Expect, bool)>,
    next_seed: u64,
    next_origin: i64,
}

impl Stream {
    /// The next paper graph that generates and that a fresh sequential
    /// controller admits on its empty platform.
    fn paper(&mut self) -> Arc<TaskGraph> {
        loop {
            self.next_seed += 1;
            let Ok(graph) = generate_seeded(&spec(), self.next_seed) else {
                continue;
            };
            let mut probe = AdmissionController::new(config(1, 0, 1)).expect("controller builds");
            if probe
                .admit(0, graph.clone(), Time::ZERO)
                .is_ok_and(|v| v.admitted)
            {
                return Arc::new(graph);
            }
        }
    }

    /// An origin past every earlier resident's horizon.
    fn fresh_origin(&mut self) -> Time {
        self.next_origin += STRIDE;
        Time::new(self.next_origin)
    }

    fn admit(&mut self, id: u64, graph: &Arc<TaskGraph>, origin: Time, expect: Expect) {
        let graph = Arc::clone(graph);
        let request = AdmitRequest::Admit { id, graph, origin };
        self.cases.push((request, expect, false));
    }

    fn amend(&mut self, id: u64, delta: GraphDelta, expect: Expect, hit: bool) {
        self.cases
            .push((AdmitRequest::Amend { id, delta }, expect, hit));
    }
}

/// Tightens one WCET to a single unit.
fn tighten(subtask: u32) -> GraphDelta {
    GraphDelta::new().set_wcet(SubtaskId::new(subtask), Time::new(1))
}

/// Nine independent 100-unit subtasks due at 150 on 8 processors. Both
/// pre-filter bounds pass (900 ≤ 8 × 150, 100 ≤ 150), but the ninth
/// subtask can only start at 100, so the trial rejects.
fn overloaded_fork() -> Arc<TaskGraph> {
    let mut b = TaskGraphBuilder::new();
    for _ in 0..9 {
        b.add_subtask(
            Subtask::new(Time::new(100))
                .released_at(Time::ZERO)
                .due_at(Time::new(150)),
        );
    }
    Arc::new(b.build().expect("independent subtasks build"))
}

/// 100 + 100 units of serial work against a deadline of 50: the
/// pre-filter's chain bound refuses it.
fn infeasible_chain() -> Arc<TaskGraph> {
    let mut b = TaskGraphBuilder::new();
    let head = b.add_subtask(Subtask::new(Time::new(100)).released_at(Time::ZERO));
    let tail = b.add_subtask(Subtask::new(Time::new(100)).due_at(Time::new(50)));
    b.add_edge(head, tail, 1).expect("two-node chain edge");
    Arc::new(b.build().expect("the chain builds"))
}

fn stream() -> Vec<(AdmitRequest, Expect, bool)> {
    let mut s = Stream {
        cases: Vec::new(),
        next_seed: 0,
        next_origin: 0,
    };
    for block in 0..BLOCKS {
        let id = block * 100;

        // The latest admit, amended: the prediction holds.
        let (graph, origin) = (s.paper(), s.fresh_origin());
        s.admit(id, &graph, origin, Expect::Admitted);
        s.amend(id, tighten(0), Expect::Admitted, true);
        // Amended again: the resident holds the first amendment's graph,
        // so the amendment carries no base and is sliced on the
        // coordinator.
        s.amend(id, tighten(1), Expect::Decided, false);

        // Amendments of a rejected and of a pre-filter-refused admit find
        // no resident, whatever stage one made of them.
        let origin = s.fresh_origin();
        s.admit(id + 1, &overloaded_fork(), origin, Expect::Rejected);
        s.amend(id + 1, tighten(0), Expect::NoResident, false);
        let origin = s.fresh_origin();
        s.admit(id + 2, &infeasible_chain(), origin, Expect::Prefiltered);
        s.amend(id + 2, tighten(0), Expect::NoResident, false);

        // An id re-admitted with another graph after it retired: the ring
        // predicts the new graph, which is the resident.
        let (first, origin) = (s.paper(), s.fresh_origin());
        s.admit(id + 3, &first, origin, Expect::Admitted);
        let (second, origin) = (s.paper(), s.fresh_origin());
        s.admit(id + 3, &second, origin, Expect::Admitted);
        s.amend(id + 3, tighten(2), Expect::Decided, true);

        // A delta that does not apply: stage one makes no product and the
        // coordinator refuses it as the sequential controller does.
        let (graph, origin) = (s.paper(), s.fresh_origin());
        s.admit(id + 5, &graph, origin, Expect::Admitted);
        let unknown = GraphDelta::new().set_wcet(SubtaskId::new(9_999), Time::new(1));
        s.amend(id + 5, unknown, Expect::DeltaRefused, false);

        // A first amendment that is rejected leaves the admit's graph
        // resident, but the second one still carries no base: only the
        // first amendment after an admit is sliced ahead.
        let (graph, origin) = (s.paper(), s.fresh_origin());
        s.admit(id + 6, &graph, origin, Expect::Admitted);
        let bloated = GraphDelta::new().set_wcet(SubtaskId::new(0), Time::new(10_000));
        s.amend(id + 6, bloated, Expect::Rejected, true);
        s.amend(id + 6, tighten(1), Expect::Decided, false);

        // An id re-submitted while still resident: the duplicate is
        // refused, but the ring predicts its graph, so the amendment
        // misses and is sliced on the coordinator.
        let (kept, refused, origin) = (s.paper(), s.paper(), s.fresh_origin());
        s.admit(id + 4, &kept, origin, Expect::Admitted);
        s.admit(id + 4, &refused, origin, Expect::Duplicate);
        s.amend(id + 4, tighten(0), Expect::Decided, false);
    }

    // A resident older than the ring: `CAPACITY` pre-filter refusals
    // (which retire no one) push its admit out, so its amendment carries no
    // base and is sliced on the coordinator.
    let (graph, origin) = (s.paper(), s.fresh_origin());
    s.admit(10_000, &graph, origin, Expect::Admitted);
    for k in 0..CAPACITY as u64 {
        s.admit(10_001 + k, &infeasible_chain(), origin, Expect::Prefiltered);
    }
    s.amend(10_000, tighten(0), Expect::Decided, false);
    s.cases
}

/// Runs `requests` through a service and returns its transcript and the
/// number of amendments decided with stage one's product.
fn serve(config: &AdmitConfig, requests: &[AdmitRequest]) -> (AdmissionLog, u64) {
    let before = telemetry::global().snapshot().admissions_amend_presliced;
    let service = AdmissionService::new(config.clone()).expect("service starts");
    for request in requests {
        service
            .submit(request.clone())
            .expect("the queue holds the stream");
    }
    let log = service.shutdown().expect("service drains and stops");
    let presliced = telemetry::global().snapshot().admissions_amend_presliced - before;
    (log, presliced)
}

#[test]
fn presliced_amendments_keep_the_transcript_of_sequential_replay() {
    let cases = stream();
    let requests: Vec<AdmitRequest> = cases.iter().map(|(r, ..)| r.clone()).collect();
    let hits = cases.iter().filter(|(_, _, hit)| *hit).count() as u64;
    assert_eq!(hits, 3 * BLOCKS);

    let mut reference: Option<AdmissionLog> = None;
    for cache in [0, 64] {
        for workers in [1, 3] {
            let config = config(workers, cache, requests.len());
            let (log, presliced) = serve(&config, &requests);
            assert_eq!(log.requests, requests);
            let replayed = log.replay(&config).expect("replay controller builds");
            assert!(
                log.matches(&replayed),
                "{workers} workers, cache {cache}: transcript diverged from sequential replay"
            );
            for (seq, ((_, expect, _), outcome)) in cases.iter().zip(&replayed.outcomes).enumerate()
            {
                assert!(
                    expect.holds(outcome),
                    "request {seq}: expected {expect:?}, got {outcome:?}"
                );
            }
            assert_eq!(
                presliced, hits,
                "{workers} workers, cache {cache}: amendments decided with stage one's product"
            );
            match &reference {
                None => reference = Some(log),
                Some(reference) => assert!(
                    reference.matches(&log),
                    "{workers} workers, cache {cache}: transcripts differ across services"
                ),
            }
        }
    }
}
