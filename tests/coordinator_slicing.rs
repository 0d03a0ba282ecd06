//! The admission coordinator slices queued admits itself while the next
//! sequence is still out on a worker. Which thread slices must never
//! change a verdict. The telemetry registry is process-global, so this
//! binary holds a single test: nothing else feeds the registry while it
//! runs, and the `admissions_coordinator_sliced` deltas are exact.

use std::sync::Arc;

use feast::telemetry;
use feast::{AdmissionLog, AdmissionService, AdmitConfig, AdmitRequest, Scenario};
use slicing::{CommEstimate, GraphDelta, MetricKind};
use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
use taskgraph::{SubtaskId, Time};

const ADMITS: u64 = 256;

/// Every 8th request amends the latest admit.
const AMEND_EVERY: usize = 8;

fn spec() -> WorkloadSpec {
    WorkloadSpec::paper(ExecVariation::Mdet)
}

/// `ADMITS` fresh paper MDET graphs (every slice-cache probe misses),
/// with an amendment of the latest admit as every 8th request. Admits lie
/// far apart, so each trial meets an empty platform and slicing, not
/// deciding, is the slower stage: the coordinator has waits to fill.
fn stream() -> Vec<AdmitRequest> {
    let mut requests = Vec::new();
    let mut admits = 0u64;
    let mut seed = 0u64;
    while admits < ADMITS {
        if (requests.len() + 1) % AMEND_EVERY == 0 {
            let delta = GraphDelta::new().set_wcet(
                SubtaskId::new((admits % 4) as u32),
                Time::new(1 + (admits % 7) as i64),
            );
            requests.push(AdmitRequest::Amend {
                id: admits - 1,
                delta,
            });
            continue;
        }
        let graph = loop {
            seed += 1;
            if let Ok(graph) = generate_seeded(&spec(), seed) {
                break graph;
            }
        };
        requests.push(AdmitRequest::Admit {
            id: admits,
            graph: Arc::new(graph),
            origin: Time::new(admits as i64 * 100_000),
        });
        admits += 1;
    }
    requests
}

fn config(workers: usize, cache: usize, queue: usize) -> AdmitConfig {
    let scenario = Scenario::paper("COORD", spec(), MetricKind::norm(), CommEstimate::Ccne);
    AdmitConfig::new(scenario, 8)
        .with_workers(workers)
        .with_slice_cache(cache)
        .with_queue_depth(queue)
}

/// Runs `requests` through a service and returns its transcript and the
/// number of admits its coordinator sliced.
fn serve(config: &AdmitConfig, requests: &[AdmitRequest]) -> (AdmissionLog, u64) {
    let before = telemetry::global().snapshot().admissions_coordinator_sliced;
    let service = AdmissionService::new(config.clone()).expect("service starts");
    for request in requests {
        service
            .submit(request.clone())
            .expect("the queue holds the stream");
    }
    let log = service.shutdown().expect("service drains and stops");
    let sliced = telemetry::global().snapshot().admissions_coordinator_sliced - before;
    (log, sliced)
}

/// Runs of the 1-worker service allowed to show a coordinator slice. The
/// coordinator slices only while it waits, so one whose thread starts
/// late can find the worker through the whole stream; that took about 1
/// run in 80 on a loaded 2-vCPU machine.
const TRIES: usize = 4;

#[test]
fn coordinator_slicing_keeps_the_transcript_of_sequential_replay() {
    let requests = stream();
    assert!(requests.len() > ADMITS as usize);
    for cache in [0, 64] {
        let one = config(1, cache, requests.len());
        let mut tries = 0;
        let log = loop {
            tries += 1;
            let (log, sliced) = serve(&one, &requests);
            assert_eq!(log.requests, requests);
            assert!(sliced <= ADMITS);
            let replayed = log.replay(&one).expect("replay controller builds");
            assert!(
                log.matches(&replayed),
                "cache {cache}: 1-worker transcript diverged from sequential replay"
            );
            if sliced >= 1 {
                break log;
            }
            assert!(
                tries < TRIES,
                "cache {cache}: the coordinator sliced no admit in {TRIES} runs"
            );
        };

        let (three, sliced) = serve(&config(3, cache, requests.len()), &requests);
        assert!(sliced <= ADMITS);
        assert!(
            log.matches(&three),
            "cache {cache}: 1-worker and 3-worker transcripts differ"
        );
    }
}
