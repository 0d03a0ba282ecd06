//! Online admission control: the paper's pipeline as a long-running
//! scheduler service.
//!
//! The sweep engine answers an *offline* question — how late does a
//! technique run over thousands of independent replications. This module
//! answers the *online* one: task graphs arrive one by one at a live
//! platform that already carries committed reservations, and each must be
//! answered admit/reject **now**, with the predicted worst-case lateness
//! it would incur against the platform's current load.
//!
//! * [`AdmissionController`] — the sequential core. Owns one [`Pipeline`],
//!   one [`CommittedState`] and the resident set; [`admit`] trial-schedules
//!   a new graph around the committed reservations (admitted graphs commit
//!   exactly the trialed schedule, rejected ones leave no trace) and
//!   [`amend`] re-slices and re-trials a resident after a [`GraphDelta`],
//!   exactly as a fresh admit of the amended graph would be trialled.
//! * [`AdmissionService`] — the same semantics behind a bounded queue:
//!   slicer workers distribute deadlines in parallel (stage one of the
//!   pipeline never reads committed load), a single coordinator re-orders
//!   their products by submission sequence and runs every trial + commit
//!   in submission order, so concurrency never changes a verdict.
//! * [`AdmissionLog`] — the service's full transcript: every request and
//!   outcome in submission order plus the final state digest. Replaying it
//!   through a fresh sequential controller ([`AdmissionLog::replay`])
//!   reproduces bit-identical verdicts — the determinism contract tests
//!   and load harnesses check.
//! * The write-ahead log ([`AdmitConfig::durable`]) — the durable half
//!   of the transcript: every concluded request is CRC32-sealed to an
//!   append-only JSONL log *before* its verdict is returned, and
//!   [`AdmissionController::recover`] rebuilds the committed state from
//!   that log after a crash, bit-identical to the pre-crash digest. Each
//!   distinct graph is written inline once; later admits of equal content
//!   reference it by [`TaskGraph::content_hash`].
//!
//! The service is built to *degrade, not die*: a slicer-worker panic
//! becomes a typed [`Failed`](AdmitOutcome::Failed) outcome and the
//! worker's pipeline is rebuilt in place; a request that out-waits its
//! [decision budget](AdmitConfig::with_decision_budget) is shed with a
//! typed [`Shed`](AdmitOutcome::Shed) outcome before any slicing work is
//! spent on it, bounding decision latency under overload; WAL appends
//! retry transiently failing I/O with bounded exponential backoff.
//!
//! A verdict is a *prediction under the trialed load*, not a
//! schedulability proof: admitted means the non-preemptive EDF trial met
//! every sliced deadline given the reservations committed at decision
//! time. Residents depart automatically once the decision clock passes
//! their horizon (last reserved completion), and a capacity bound evicts
//! residents chosen by the configured [`EvictionPolicy`] on admit so the
//! committed state stays small.
//!
//! [`admit`]: AdmissionController::admit
//! [`amend`]: AdmissionController::amend

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use platform::Platform;
use sched::{CommittedState, MissLog, Schedule};
use serde::{Deserialize, Serialize};
use slicing::{DeltaError, GraphDelta};
use taskgraph::gen::{stream_label, stream_seed};
use taskgraph::{TaskGraph, Time};

use crate::error::AdmitError;
use crate::fault::{self, FaultPlan, FaultSite};
use crate::pipeline::{Pipeline, SharedSliceCache, SliceOutput, Verdict};
use crate::runner::{fingerprint, Runner};
use crate::scenario::Scenario;
use crate::sealed_log::{self, seal, sealed_line, SealedLine, SealedLog};
use crate::{telemetry, RunError};

/// Configuration of an admission controller or service: the pipeline
/// scenario, the platform size, and the service's operational bounds.
#[derive(Debug, Clone)]
pub struct AdmitConfig {
    /// The pipeline configuration: technique, scheduler spec, pinning
    /// policy. Sweep shape (sizes, replications, seeds) is ignored.
    pub scenario: Scenario,
    /// Number of processors in the live platform.
    pub system_size: usize,
    /// Bound of the service's ingress queue; [`AdmissionService::submit`]
    /// refuses with [`AdmitError::QueueFull`] instead of blocking.
    pub queue_depth: usize,
    /// Maximum number of resident (committed) graphs; an admit beyond the
    /// bound evicts residents chosen by [`eviction`](AdmitConfig::eviction).
    pub capacity: usize,
    /// Number of parallel slicer workers in an [`AdmissionService`].
    pub workers: usize,
    /// The capacity bound's victim-selection policy (default
    /// [`OldestFirst`]). Part of the WAL fingerprint: recovery refuses a
    /// log written under a different policy.
    pub eviction: Arc<dyn EvictionPolicy>,
    /// Decision budget for staleness-aware shedding: a service request
    /// that has already waited longer than this when a worker or the
    /// coordinator picks it up is refused with [`AdmitError::Shed`]
    /// before any slicing or trial work is spent on it. `None` (the
    /// default) never sheds. The sequential controller has no queue and
    /// ignores the budget.
    pub decision_budget: Option<Duration>,
    /// Path of the durable write-ahead log. `Some` makes every concluded
    /// request durable before its verdict is returned (see
    /// [`AdmitConfig::durable`]); `None` (the default) keeps the
    /// transcript in-memory only.
    pub wal_path: Option<PathBuf>,
    /// Deterministic fault plan for the admission fault sites. Only
    /// consulted when the `fault-inject` cargo feature is enabled;
    /// release builds compile the hooks to constant `false`.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Whether the feasibility pre-filter runs in front of slicing
    /// (default `true`). A pre-filtered graph is refused with the typed
    /// [`AdmitError::Prefilter`] before any DP work; the bounds are
    /// conservative, so the full path would have rejected it too.
    pub prefilter: bool,
    /// Capacity of the cross-request slice cache shared by the
    /// controller and its slicer workers (default 64 entries; `0`
    /// disables caching). The cache is invisible in transcripts — hits
    /// return bit-identical output — so it is a pure throughput knob,
    /// not part of the WAL fingerprint.
    pub slice_cache: usize,
}

impl AdmitConfig {
    /// A configuration with service defaults: queue depth 256, capacity
    /// 64 residents, 4 slicer workers, oldest-first eviction, no
    /// shedding, no write-ahead log, no fault plan, the feasibility
    /// pre-filter on, and a 64-entry slice cache. Deadline-miss WARNs are
    /// capped at [`Runner::MISS_WARN_LIMIT`] lines per service.
    pub fn new(scenario: Scenario, system_size: usize) -> AdmitConfig {
        AdmitConfig {
            scenario,
            system_size,
            queue_depth: 256,
            capacity: 64,
            workers: 4,
            eviction: Arc::new(OldestFirst),
            decision_budget: None,
            wal_path: None,
            fault_plan: None,
            prefilter: true,
            slice_cache: 64,
        }
    }

    /// Sets the ingress queue bound (clamped to at least 1).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the resident capacity bound (clamped to at least 1).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the number of slicer workers (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the capacity bound's eviction policy.
    #[must_use]
    pub fn with_eviction(mut self, policy: impl EvictionPolicy + 'static) -> Self {
        self.eviction = Arc::new(policy);
        self
    }

    /// Sets the decision budget for staleness-aware shedding.
    #[must_use]
    pub fn with_decision_budget(mut self, budget: Duration) -> Self {
        self.decision_budget = Some(budget);
        self
    }

    /// Makes the transcript durable: every concluded request is sealed to
    /// the write-ahead log at `path` before its verdict is returned.
    /// "Durable" means flushed to the operating system, never fsynced: a
    /// sealed verdict survives the process being killed (SIGKILL, a
    /// panic, an abort) but not an operating-system crash or a power
    /// loss. A fresh controller truncates any existing file at `path`;
    /// use [`AdmissionController::recover`] to resume from one instead.
    ///
    /// An admitted graph is written inline the first time its content is
    /// sealed; a later admit of equal content is sealed as a reference
    /// to it by content hash while it is among the last
    /// [`capacity`](AdmitConfig::capacity) graphs written inline.
    #[must_use]
    pub fn durable(mut self, path: impl Into<PathBuf>) -> Self {
        self.wal_path = Some(path.into());
        self
    }

    /// Installs a deterministic fault plan for the admission fault sites
    /// (no effect unless built with the `fault-inject` feature).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Enables or disables the feasibility pre-filter.
    #[must_use]
    pub fn with_prefilter(mut self, enabled: bool) -> Self {
        self.prefilter = enabled;
        self
    }

    /// Sets the cross-request slice-cache capacity (`0` disables it).
    #[must_use]
    pub fn with_slice_cache(mut self, capacity: usize) -> Self {
        self.slice_cache = capacity;
        self
    }
}

/// One request to the admission service, identified by a caller-chosen id.
///
/// Requests are processed strictly in submission order; the id names the
/// resident for later amendment and must be unique among live residents.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitRequest {
    /// Admit a new task graph arriving at absolute time `origin`.
    Admit {
        /// Caller-chosen resident id (unique among live residents).
        id: u64,
        /// The arriving task graph, in graph-local time. Shared so the
        /// queue, the transcript, and the resident set all reference one
        /// allocation — cloning a request never copies the graph.
        graph: Arc<TaskGraph>,
        /// Absolute arrival time; every sliced window is re-anchored here.
        origin: Time,
    },
    /// Amend a resident graph and re-trial it at its original origin.
    Amend {
        /// The resident to amend.
        id: u64,
        /// The structural amendment to apply.
        delta: GraphDelta,
    },
}

impl AdmitRequest {
    /// The resident id this request names.
    pub fn id(&self) -> u64 {
        match self {
            AdmitRequest::Admit { id, .. } | AdmitRequest::Amend { id, .. } => *id,
        }
    }
}

/// The decision for one request: admit/reject plus the trial's predicted
/// lateness figures.
///
/// Deliberately excludes wall-clock latency (that goes to the telemetry
/// registry), so replaying a request log reproduces verdicts bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmitVerdict {
    /// The request's resident id.
    pub id: u64,
    /// Did the trial meet every sliced deadline? Admitted graphs have
    /// their trial schedule committed; rejected ones leave no trace.
    pub admitted: bool,
    /// Predicted maximum task lateness (negative values are slack).
    pub max_lateness: Time,
    /// Predicted maximum end-to-end lateness, relative to the origin.
    pub end_to_end: Time,
    /// Completion time of the trialed schedule (absolute time); an
    /// admitted resident departs once the decision clock passes it.
    pub makespan: Time,
    /// Structural violations found by the always-on window and schedule
    /// audits (expected zero).
    pub violations: usize,
    /// Always `false`: every amendment is a full trial. Kept only so
    /// perfbench's frozen mirror compiles; goes with `mirror.rs` (ROADMAP
    /// item 5(d)).
    pub repaired: bool,
    /// Residents committed after this decision.
    pub residents: usize,
}

/// One resolved request: what the transcript and the write-ahead log
/// record per submission.
///
/// Splits the service's four ways of answering a request into variants a
/// replay can reason about: [`Verdict`](AdmitOutcome::Verdict) and
/// [`Refused`](AdmitOutcome::Refused) are *deterministic* — a fresh
/// controller fed the same request sequence reproduces them bit for bit —
/// while [`Shed`](AdmitOutcome::Shed) and [`Failed`](AdmitOutcome::Failed)
/// are *environmental* (wall-clock overload, injected or real panics):
/// replay copies them verbatim, which is sound because both conclude a
/// request **before** any state mutation, so they provably leave no trace
/// in committed state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmitOutcome {
    /// The trial completed: an admit or reject verdict.
    Verdict(AdmitVerdict),
    /// A deterministic typed refusal (duplicate id, unknown resident,
    /// inapplicable delta, pipeline failure), sealed in structured form.
    Refused(Refusal),
    /// The request out-waited its decision budget and was shed before any
    /// slicing or trial work was spent on it.
    Shed {
        /// How long the request had waited when it was shed, µs.
        waited_us: u64,
    },
    /// A slicer worker panicked while processing the request; the worker
    /// was respawned and the service kept running.
    Failed {
        /// The pipeline stage the worker died in.
        stage: String,
    },
}

impl AdmitOutcome {
    /// The transcript form of a controller result.
    pub fn of(result: &Result<AdmitVerdict, AdmitError>) -> AdmitOutcome {
        match result {
            Ok(verdict) => AdmitOutcome::Verdict(verdict.clone()),
            Err(AdmitError::Shed { waited_us }) => AdmitOutcome::Shed {
                waited_us: *waited_us,
            },
            Err(AdmitError::WorkerFailed { stage }) => AdmitOutcome::Failed {
                stage: (*stage).to_owned(),
            },
            Err(e) => AdmitOutcome::Refused(Refusal::of(e)),
        }
    }

    /// The verdict, when the trial completed.
    pub fn verdict(&self) -> Option<&AdmitVerdict> {
        match self {
            AdmitOutcome::Verdict(verdict) => Some(verdict),
            _ => None,
        }
    }

    /// Whether this outcome depends on the environment (queue timing,
    /// panics) rather than the request sequence. Environmental outcomes
    /// are copied verbatim on replay; deterministic ones are re-derived.
    pub fn is_environmental(&self) -> bool {
        matches!(
            self,
            AdmitOutcome::Shed { .. } | AdmitOutcome::Failed { .. }
        )
    }
}

/// The structured, message-stable form of a deterministic refusal: a
/// variant plus the fields replay re-derives from the request sequence.
///
/// This — not the rendered [`AdmitError`] message — is what the
/// write-ahead log seals and recovery compares, so rewording a `Display`
/// impl never invalidates an existing log. The variant shapes and the
/// kind tags ([`AdmitError::kind`], [`RunError::kind`], and the delta
/// tags below) are part of the WAL format contract and must stay stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Refusal {
    /// [`AdmitError::DuplicateId`].
    DuplicateId {
        /// The already-resident id.
        id: u64,
    },
    /// [`AdmitError::NoResident`].
    NoResident {
        /// The unknown resident id.
        id: u64,
    },
    /// [`AdmitError::Delta`]: the amendment did not apply.
    Delta {
        /// Stable tag of the delta failure: `unknown-subtask`,
        /// `unknown-edge` or `invalid-graph`.
        kind: String,
    },
    /// [`AdmitError::Trial`]: the pipeline itself failed.
    Trial {
        /// Stable tag of the failing stage ([`RunError::kind`]).
        kind: String,
    },
    /// [`AdmitError::Prefilter`]: the feasibility pre-filter proved the
    /// graph infeasible before slicing.
    Prefilter {
        /// Stable tag of the failed bound: `chain-bound` or
        /// `capacity-bound` ([`slicing::PrefilterReject::kind`]).
        bound: String,
    },
    /// Any other deterministic refusal, by its stable tag
    /// ([`AdmitError::kind`]).
    Other {
        /// The refusal's stable tag.
        kind: String,
    },
}

impl Refusal {
    /// The sealed form of a refusing [`AdmitError`].
    fn of(error: &AdmitError) -> Refusal {
        let delta_kind = |e: &DeltaError| match e {
            DeltaError::UnknownSubtask(_) => "unknown-subtask",
            DeltaError::UnknownEdge(..) => "unknown-edge",
            DeltaError::Graph(_) => "invalid-graph",
        };
        match error {
            AdmitError::DuplicateId { id } => Refusal::DuplicateId { id: *id },
            AdmitError::NoResident { id } => Refusal::NoResident { id: *id },
            AdmitError::Delta(e) => Refusal::Delta {
                kind: delta_kind(e).to_owned(),
            },
            AdmitError::Trial(e) => Refusal::Trial {
                kind: e.kind().to_owned(),
            },
            AdmitError::Prefilter(reject) => Refusal::Prefilter {
                bound: reject.kind().to_owned(),
            },
            other => Refusal::Other {
                kind: other.kind().to_owned(),
            },
        }
    }
}

/// One resident's identity and load figures, offered to an
/// [`EvictionPolicy`] when the capacity bound must choose a victim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictionCandidate {
    /// The resident id.
    pub id: u64,
    /// Position in admission order (0 = oldest resident).
    pub seniority: usize,
    /// The resident's arrival time.
    pub origin: Time,
    /// Completion time of the resident's reserved schedule.
    pub horizon: Time,
    /// Total reserved processor-busy time of the resident's schedule.
    pub busy: Time,
}

impl EvictionCandidate {
    /// The resident's processor-time utilization over its reservation
    /// span: `busy / (horizon - origin)`. Low values mean the resident
    /// blocks capacity it barely uses.
    pub fn utilization(&self) -> f64 {
        let span = (self.horizon - self.origin).as_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.busy.as_f64() / span
        }
    }
}

/// Victim selection for the capacity bound: which resident departs when
/// an admit would exceed [`AdmitConfig::capacity`].
///
/// Policies must be deterministic functions of the candidate list — the
/// choice is part of the replay contract (and of the WAL fingerprint, so
/// recovery refuses a log written under a different policy).
pub trait EvictionPolicy: fmt::Debug + Send + Sync {
    /// The policy's stable name (used in the WAL fingerprint).
    fn name(&self) -> &'static str;
    /// Chooses the victim among `candidates` (never empty), returning its
    /// resident id.
    fn victim(&self, candidates: &[EvictionCandidate]) -> u64;
}

/// Evicts the longest-resident graph first — the default policy (and the
/// only behavior before eviction became pluggable).
#[derive(Debug, Clone, Copy, Default)]
pub struct OldestFirst;

impl EvictionPolicy for OldestFirst {
    fn name(&self) -> &'static str {
        "oldest-first"
    }

    fn victim(&self, candidates: &[EvictionCandidate]) -> u64 {
        candidates
            .iter()
            .min_by_key(|c| c.seniority)
            .expect("eviction candidates are never empty")
            .id
    }
}

/// Evicts the resident with the lowest processor-time utilization over
/// its reservation span (ties broken oldest-first): frees the most
/// blocked capacity per unit of reserved work discarded.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowestUtilization;

impl EvictionPolicy for LowestUtilization {
    fn name(&self) -> &'static str {
        "lowest-utilization"
    }

    fn victim(&self, candidates: &[EvictionCandidate]) -> u64 {
        candidates
            .iter()
            .min_by(|a, b| {
                a.utilization()
                    .partial_cmp(&b.utilization())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.seniority.cmp(&b.seniority))
            })
            .expect("eviction candidates are never empty")
            .id
    }
}

/// One committed admission: the graph, its reserved schedule, and when
/// it arrived / departs.
#[derive(Debug)]
struct Resident {
    graph: Arc<TaskGraph>,
    schedule: Schedule,
    origin: Time,
    horizon: Time,
}

/// One line of an admission write-ahead log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum WalLine {
    /// First line: identifies the configuration the records belong to.
    Header {
        /// Configuration fingerprint (see [`wal_fingerprint`]).
        fingerprint: u64,
        /// Scenario label, for human readers of the file.
        label: String,
    },
    /// One concluded request, sealed with the CRC32 of the record's
    /// canonical JSON so silent corruption is detected on recovery.
    Sealed {
        /// IEEE CRC32 of `serde_json::to_string(&record)`.
        crc: u32,
        /// The concluded request.
        record: WalRecord,
    },
}

impl SealedLine for WalLine {
    const KIND: &'static str = "admission log";
    const NOT_A_HEADER: &'static str = "first line is not an admission log header";

    fn fingerprint(&self) -> Option<u64> {
        match self {
            WalLine::Header { fingerprint, .. } => Some(*fingerprint),
            WalLine::Sealed { .. } => None,
        }
    }

    fn seal_holds(&self) -> bool {
        match self {
            WalLine::Header { .. } => true,
            WalLine::Sealed { crc, record } => seal(record) == *crc,
        }
    }

    fn count_retry() {
        telemetry::global().admission_log_retries.inc();
    }
}

/// The wire form of an [`AdmitRequest`]. An admit carries its graph
/// inline ([`Admit`](WalRequest::Admit)) the first time that content is
/// sealed, and a reference by [`TaskGraph::content_hash`]
/// ([`AdmitRef`](WalRequest::AdmitRef)) while the writer still holds the
/// inline copy (see [`WalWriter`]). The inline graph is the request's own
/// `Arc` — the vendored serde writes an `Arc<T>` as its `T` — so sealing
/// never clones it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum WalRequest {
    /// An [`AdmitRequest::Admit`] with its graph inline.
    Admit {
        /// Resident id.
        id: u64,
        /// The arriving graph.
        graph: Arc<TaskGraph>,
        /// Absolute arrival time.
        origin: Time,
    },
    /// An [`AdmitRequest::Admit`] whose graph equals the latest inline
    /// graph with this content hash.
    AdmitRef {
        /// Resident id.
        id: u64,
        /// [`TaskGraph::content_hash`] of the arriving graph.
        graph: u64,
        /// Absolute arrival time.
        origin: Time,
    },
    /// An [`AdmitRequest::Amend`].
    Amend {
        /// Resident id.
        id: u64,
        /// The amendment.
        delta: GraphDelta,
    },
}

/// One sealed record of the admission write-ahead log: a request, its
/// outcome, and the state digest *after* the outcome was applied — the
/// per-record self-check [`AdmissionController::recover`] verifies while
/// replaying.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct WalRecord {
    /// Submission sequence (records are contiguous from 0).
    seq: u64,
    /// The concluded request.
    request: WalRequest,
    /// How it was concluded.
    outcome: AdmitOutcome,
    /// [`CommittedState::digest`] after this record's outcome.
    digest: u64,
}

#[cfg(test)]
impl WalRecord {
    /// One inline admit and one reference to its graph, for codec tests.
    pub(crate) fn samples() -> Vec<WalRecord> {
        let mut b = taskgraph::TaskGraphBuilder::new();
        let head = b.add_subtask(
            taskgraph::Subtask::new(Time::new(10))
                .named("in \"quoted\"")
                .released_at(Time::ZERO),
        );
        let tail = b.add_subtask(taskgraph::Subtask::new(Time::new(20)).due_at(Time::new(90)));
        b.add_edge(head, tail, 3).expect("two-node chain edge");
        let graph = Arc::new(b.build().expect("the chain builds"));
        let outcome = AdmitOutcome::Refused(Refusal::DuplicateId { id: 7 });
        vec![
            WalRecord {
                seq: 0,
                request: WalRequest::Admit {
                    id: 7,
                    graph: Arc::clone(&graph),
                    origin: Time::new(40),
                },
                outcome: outcome.clone(),
                digest: 0xFEED_FACE_CAFE_BEEF,
            },
            WalRecord {
                seq: 1,
                request: WalRequest::AdmitRef {
                    id: 7,
                    graph: graph.content_hash(),
                    origin: Time::new(41),
                },
                outcome,
                digest: u64::MAX,
            },
        ]
    }
}

/// The write-ahead log's record format, the last step of
/// [`wal_fingerprint`]. Format 2 added [`WalRequest::AdmitRef`]. Format 3
/// seals every amendment verdict with `repaired: false`, since no
/// amendment is repaired any more; a format-2 log would fail recovery at
/// its first repaired amendment. The step makes each build refuse the
/// others' logs with a typed `CheckpointMismatch` instead of failing on
/// (or silently dropping) a record it cannot read or reproduce.
const WAL_FORMAT: u64 = 3;

/// Fingerprint of everything a write-ahead log's records depend on: the
/// scenario's measurement-relevant content (reusing the checkpoint
/// [`fingerprint`]), the platform size, the capacity bound, the eviction
/// policy and the record format ([`WAL_FORMAT`]). Operational knobs that
/// cannot change a committed record — queue depth, worker count, decision
/// budget — are deliberately excluded, so a log recovers under a
/// differently-tuned service.
fn wal_fingerprint(config: &AdmitConfig) -> u64 {
    // Capacity, eviction policy and format feed separate chained mixing
    // steps — never XORed into one word — so distinct (capacity, policy)
    // pairs cannot cancel into the same fingerprint.
    let shape = stream_seed(
        fingerprint(&config.scenario),
        stream_label(b"admission-wal"),
        config.system_size as u64,
        config.capacity as u64,
    );
    let policy = stream_seed(
        shape,
        stream_label(b"admission-wal-eviction"),
        stream_label(config.eviction.name().as_bytes()),
        0,
    );
    stream_seed(policy, stream_label(b"admission-wal-format"), WAL_FORMAT, 0)
}

/// The durable half of a controller: the open write-ahead log, the
/// sequence of its next record, and the graphs it last sealed inline.
#[derive(Debug)]
struct WalWriter {
    log: SealedLog<WalLine>,
    /// Sequence the next sealed record will carry.
    seq: u64,
    /// The graphs most recently sealed inline, keyed by content hash, one
    /// entry per hash, oldest first; at most `bound` entries.
    inline: VecDeque<(u64, Arc<TaskGraph>)>,
    /// [`AdmitConfig::capacity`] (at least 1).
    bound: usize,
}

impl WalWriter {
    fn new(log: SealedLog<WalLine>, seq: u64, capacity: usize) -> WalWriter {
        WalWriter {
            log,
            seq,
            inline: VecDeque::new(),
            bound: capacity.max(1),
        }
    }

    /// The wire form of `request`. An admit becomes a reference only when
    /// the table holds a graph with the same content hash *and* equal
    /// content, so a hash collision falls back to inline. An inline admit
    /// also returns the entry to [`remember`](WalWriter::remember) once its
    /// record is appended.
    fn wire(&self, request: &AdmitRequest) -> (WalRequest, Option<(u64, Arc<TaskGraph>)>) {
        match request {
            AdmitRequest::Admit { id, graph, origin } => {
                let hash = graph.content_hash();
                let sealed = self.inline.iter().any(|(h, known)| {
                    *h == hash && (Arc::ptr_eq(known, graph) || **known == **graph)
                });
                if sealed {
                    let wire = WalRequest::AdmitRef {
                        id: *id,
                        graph: hash,
                        origin: *origin,
                    };
                    (wire, None)
                } else {
                    let wire = WalRequest::Admit {
                        id: *id,
                        graph: Arc::clone(graph),
                        origin: *origin,
                    };
                    (wire, Some((hash, Arc::clone(graph))))
                }
            }
            AdmitRequest::Amend { id, delta } => {
                let wire = WalRequest::Amend {
                    id: *id,
                    delta: delta.clone(),
                };
                (wire, None)
            }
        }
    }

    /// Records that `graph` was sealed inline under `hash`: it replaces
    /// any entry with that hash, and the oldest entry goes past the bound.
    /// Recovery resolves references by the same rule — the latest inline
    /// graph with the hash.
    fn remember(&mut self, hash: u64, graph: Arc<TaskGraph>) {
        self.inline.retain(|(h, _)| *h != hash);
        self.inline.push_back((hash, graph));
        if self.inline.len() > self.bound {
            self.inline.pop_front();
        }
    }
}

/// The sequential admission core: one pipeline, one committed state, the
/// resident set. Processes one request at a time; [`AdmissionService`]
/// wraps it with a queue and parallel slicers without changing any
/// verdict.
///
/// # Examples
///
/// ```
/// use feast::{AdmissionController, AdmitConfig, Scenario};
/// use slicing::{CommEstimate, MetricKind};
/// use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
/// use taskgraph::Time;
///
/// # fn main() -> Result<(), feast::Error> {
/// let spec = WorkloadSpec::paper(ExecVariation::Mdet);
/// let scenario = Scenario::paper("ADM", spec.clone(), MetricKind::adapt(), CommEstimate::Ccne);
/// let mut controller = AdmissionController::new(AdmitConfig::new(scenario, 8))?;
///
/// let graph = generate_seeded(&spec, 1).unwrap();
/// let verdict = controller.admit(1, graph, Time::ZERO)?;
/// assert_eq!(controller.residents(), usize::from(verdict.admitted));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmitConfig,
    platform: Platform,
    pipeline: Pipeline,
    state: CommittedState,
    residents: BTreeMap<u64, Resident>,
    /// Resident ids in admission order — the capacity bound's eviction
    /// queue.
    order: VecDeque<u64>,
    miss_log: Arc<MissLog>,
    /// The durable transcript, when [`AdmitConfig::wal_path`] is set.
    wal: Option<WalWriter>,
    /// The cross-request slice cache, when enabled — shared with every
    /// slicer worker of an [`AdmissionService`] built on this controller.
    slice_cache: Option<SharedSliceCache>,
}

impl AdmissionController {
    /// Builds the live platform and an idle (empty) committed state for
    /// `config`.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError::Trial`] when the platform cannot be
    /// constructed (e.g. zero processors).
    pub fn new(config: AdmitConfig) -> Result<AdmissionController, AdmitError> {
        let topology = config
            .scenario
            .topology
            .build(config.system_size, config.scenario.cost_per_item);
        let platform =
            Platform::homogeneous(config.system_size, topology).map_err(RunError::Platform)?;
        let miss_log = Arc::new(MissLog::new(Runner::MISS_WARN_LIMIT));
        let slice_cache: Option<SharedSliceCache> = if config.slice_cache > 0 {
            Some(Arc::new(Mutex::new(slicing::SliceCache::new(
                config.slice_cache,
            ))))
        } else {
            None
        };
        let pipeline = service_pipeline(&config.scenario, slice_cache.as_ref(), &miss_log);
        let state = CommittedState::new(config.system_size, config.scenario.scheduler.bus_model);
        let wal = match &config.wal_path {
            Some(path) => Some(WalWriter::new(
                SealedLog::create(
                    path,
                    &WalLine::Header {
                        fingerprint: wal_fingerprint(&config),
                        label: config.scenario.label.clone(),
                    },
                )
                .map_err(AdmitError::Log)?,
                0,
                config.capacity,
            )),
            None => None,
        };
        Ok(AdmissionController {
            config,
            platform,
            pipeline,
            state,
            residents: BTreeMap::new(),
            order: VecDeque::new(),
            miss_log,
            wal,
            slice_cache,
        })
    }

    /// Rebuilds a controller from the write-ahead log at `path`, replaying
    /// every sealed record through a fresh sequential controller and
    /// verifying each against its recorded outcome and post-outcome state
    /// digest — the recovered state is provably bit-identical to the
    /// pre-crash committed state. Environmental outcomes
    /// ([`Shed`](AdmitOutcome::Shed), [`Failed`](AdmitOutcome::Failed))
    /// are adopted verbatim (they concluded before any state mutation;
    /// the digest check still validates their no-trace invariant).
    ///
    /// A record that references its graph by content hash resolves to the
    /// latest earlier inline graph with that hash — the rule the writer
    /// follows when it decides to reference.
    ///
    /// Returns the recovered controller — re-attached to `path` for
    /// further appends — and the transcript of the replayed prefix.
    /// `config` must match the log's fingerprint (scenario, platform
    /// size, capacity, eviction policy, record format); operational knobs
    /// may differ.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Log`] for an unreadable, corrupt, or
    /// fingerprint-mismatching log — a reference to a hash no earlier
    /// inline graph has is corrupt, naming its line, and a log written in
    /// another record format is a mismatch — and
    /// [`AdmitError::RecoveryDiverged`] when a replayed record does not
    /// reproduce its sealed outcome or digest.
    pub fn recover(
        config: AdmitConfig,
        path: impl AsRef<Path>,
    ) -> Result<(AdmissionController, AdmissionLog), AdmitError> {
        let path = path.as_ref();
        let loaded = sealed_log::load::<WalLine>(path, wal_fingerprint(&config))
            .and_then(|loaded| {
                loaded.ok_or_else(|| RunError::CheckpointCorrupt {
                    path: path.to_path_buf(),
                    detail: "log file is empty (no header)".to_owned(),
                })
            })
            .map_err(AdmitError::Log)?;
        // Records are contiguous from sequence 0; `load` already
        // rejected every header past the first line. Each inline graph is
        // remembered under its content hash (the latest wins) and each
        // reference resolves to it — the writer's own rule, so a
        // reference names exactly the graph the writer compared equal.
        let mut inline: HashMap<u64, Arc<TaskGraph>> = HashMap::new();
        let records = loaded
            .records
            .into_iter()
            .enumerate()
            .map(|(i, (line_no, line))| {
                let record = match line {
                    WalLine::Sealed { record, .. } if record.seq == i as u64 => record,
                    _ => return Err(sealed_log::corrupt(path, line_no, "record sequence gap")),
                };
                let request = match record.request {
                    WalRequest::Admit { id, graph, origin } => {
                        inline.insert(graph.content_hash(), Arc::clone(&graph));
                        AdmitRequest::Admit { id, graph, origin }
                    }
                    WalRequest::AdmitRef { id, graph, origin } => match inline.get(&graph) {
                        Some(graph) => AdmitRequest::Admit {
                            id,
                            graph: Arc::clone(graph),
                            origin,
                        },
                        None => {
                            let detail = format!("reference to unknown graph {graph:#018x}");
                            return Err(sealed_log::corrupt(path, line_no, &detail));
                        }
                    },
                    WalRequest::Amend { id, delta } => AdmitRequest::Amend { id, delta },
                };
                Ok((record.seq, request, record.outcome, record.digest))
            })
            .collect::<Result<Vec<_>, RunError>>()
            .map_err(AdmitError::Log)?;
        let mut replay_config = config.clone();
        replay_config.wal_path = None;
        let mut controller = AdmissionController::new(replay_config)?;
        let mut log = AdmissionLog::default();
        for (seq, request, recorded, digest) in records {
            let outcome = if recorded.is_environmental() {
                recorded.clone()
            } else {
                // Schema-compatible replay: each record re-derives under
                // the slicing schema it was sealed with. A record sealed
                // as a pre-filter refusal re-derives through the
                // pre-filter; every other record re-derives through the
                // full slice + trial path — which is exactly what
                // produced it, whether the writing session predated the
                // pre-filter, had it disabled, or had it enabled (the
                // bounds are conservative, so a sealed verdict means the
                // pre-filter passed the graph through). Outcome and
                // digest stay strict bit-for-bit checks either way, and
                // the session's own knob is restored for post-recovery
                // appends.
                let sealed_prefiltered =
                    matches!(&recorded, AdmitOutcome::Refused(Refusal::Prefilter { .. }));
                let session = controller.config.prefilter;
                controller.config.prefilter = sealed_prefiltered;
                let outcome = AdmitOutcome::of(&controller.handle(&request));
                controller.config.prefilter = session;
                outcome
            };
            if outcome != recorded {
                return Err(AdmitError::RecoveryDiverged {
                    seq,
                    detail: format!("recorded outcome {recorded:?}, replay produced {outcome:?}"),
                });
            }
            if controller.digest() != digest {
                return Err(AdmitError::RecoveryDiverged {
                    seq,
                    detail: format!(
                        "recorded state digest {digest:#018x}, replay reached {:#018x}",
                        controller.digest()
                    ),
                });
            }
            log.requests.push(request);
            // The sealed record stays the truth in the recovered
            // transcript, even where the schema bridge accepted a
            // non-identical (but provably trace-free) derivation.
            log.outcomes.push(recorded);
        }
        log.digest = controller.digest();
        log.residents = controller.residents();
        // The writer's table starts empty: the first post-recovery admit
        // of each content is sealed inline again.
        let reopened = SealedLog::reopen(path, loaded.tail).map_err(AdmitError::Log)?;
        controller.wal = Some(WalWriter::new(
            reopened,
            log.requests.len() as u64,
            controller.config.capacity,
        ));
        controller.config.wal_path = Some(path.to_path_buf());
        Ok((controller, log))
    }

    /// Processes one request: [`admit`](AdmissionController::admit) or
    /// [`amend`](AdmissionController::amend). This is the replay entry
    /// point — feeding a recorded request sequence through `handle`
    /// reproduces the original verdicts bit for bit.
    ///
    /// # Errors
    ///
    /// Exactly those of the dispatched method.
    pub fn handle(&mut self, request: &AdmitRequest) -> Result<AdmitVerdict, AdmitError> {
        match request {
            AdmitRequest::Admit { id, graph, origin } => {
                self.admit(*id, Arc::clone(graph), *origin)
            }
            AdmitRequest::Amend { id, delta } => self.amend(*id, delta),
        }
    }

    /// Slices `graph` and trial-schedules it around the current committed
    /// reservations at absolute time `origin`. On admit the trial schedule
    /// is committed as a reservation; on reject the state is left exactly
    /// as the retirement of expired residents left it.
    ///
    /// Processing first advances the decision clock to `origin`: residents
    /// whose horizon has passed depart. That retirement depends only on
    /// `origin`, never on this request's verdict.
    ///
    /// # Errors
    ///
    /// [`AdmitError::DuplicateId`] when `id` is already resident, and
    /// [`AdmitError::Trial`] when the pipeline itself fails. A *reject* is
    /// not an error — it is an `Ok` verdict with `admitted == false`.
    pub fn admit(
        &mut self,
        id: u64,
        graph: impl Into<Arc<TaskGraph>>,
        origin: Time,
    ) -> Result<AdmitVerdict, AdmitError> {
        let graph = graph.into();
        let result = slice_admit(
            &mut self.pipeline,
            &self.platform,
            self.config.prefilter,
            &graph,
        )
        .and_then(|output| self.decide(id, &graph, origin, output));
        let request = AdmitRequest::Admit { id, graph, origin };
        self.conclude(&request, result)
    }

    /// The sealing choke point: records `result` for `request` in the
    /// write-ahead log (when durable) **before** handing the verdict back.
    /// Every public conclusion — the controller's own
    /// [`admit`](AdmissionController::admit) /
    /// [`amend`](AdmissionController::amend) and the service coordinator —
    /// funnels through here exactly once per request.
    ///
    /// An append that exhausts its retries degrades rather than dies: the
    /// failure is WARNed and counted
    /// ([`admission_log_failures`](crate::telemetry::MetricsSnapshot::admission_log_failures))
    /// and the verdict is still returned — the caller gets its answer, the
    /// operator gets the signal that durability lapsed.
    pub(crate) fn conclude(
        &mut self,
        request: &AdmitRequest,
        result: Result<AdmitVerdict, AdmitError>,
    ) -> Result<AdmitVerdict, AdmitError> {
        if matches!(result, Err(AdmitError::Prefilter(_))) {
            telemetry::global().admissions_prefiltered.inc();
        }
        if let Some(wal) = &mut self.wal {
            let seq = wal.seq;
            let (wire, inline) = wal.wire(request);
            let record = WalRecord {
                seq,
                request: wire,
                outcome: AdmitOutcome::of(&result),
                digest: self.state.digest(),
            };
            // The variant name of `WalLine::Sealed`.
            let line = sealed_line("Sealed", &record);
            let (plan, size) = (self.config.fault_plan.as_deref(), self.config.system_size);
            let cell = seq as usize;
            let corrupt = fault::fires(plan, FaultSite::AdmitLogCorrupt, size, cell, 0);
            match wal.log.append(line, corrupt, |attempt| {
                fault::fires(plan, FaultSite::AdmitLogIo, size, cell, attempt)
            }) {
                Ok(()) => {
                    wal.seq += 1;
                    if let Some((hash, graph)) = inline {
                        wal.remember(hash, graph);
                    }
                }
                Err(e) => {
                    tracing::warn!(
                        path = %wal.log.path().display(),
                        seq = seq,
                        "admission log append exhausted retries ({e}); verdict returned undurable"
                    );
                    telemetry::global().admission_log_failures.inc();
                }
            }
        }
        result
    }

    /// The serial half of an admit: retire, trial against committed load,
    /// commit on admit. The service's coordinator calls this with products
    /// sliced on worker threads.
    pub(crate) fn decide(
        &mut self,
        id: u64,
        graph: &Arc<TaskGraph>,
        origin: Time,
        output: SliceOutput,
    ) -> Result<AdmitVerdict, AdmitError> {
        let started = Instant::now();
        self.retire(origin);
        if self.residents.contains_key(&id) {
            return Err(AdmitError::DuplicateId { id });
        }
        let against = Some((&self.state, origin));
        let verdict = self
            .pipeline
            .trial(graph, &self.platform, output, against)?;
        let admitted = verdict.admit;
        if admitted {
            // The capacity bound evicts via the configured policy, only on
            // an actual admit. The trial ran with the evictees still
            // resident, so its schedule avoids their reservations too —
            // committing it after they leave is strictly sound.
            while self.residents.len() >= self.config.capacity.max(1) {
                let candidates: Vec<EvictionCandidate> = self
                    .order
                    .iter()
                    .enumerate()
                    .filter_map(|(seniority, &rid)| {
                        self.residents.get(&rid).map(|resident| EvictionCandidate {
                            id: rid,
                            seniority,
                            origin: resident.origin,
                            horizon: resident.horizon,
                            busy: resident
                                .schedule
                                .entries()
                                .iter()
                                .fold(Time::ZERO, |acc, entry| acc + (entry.finish - entry.start)),
                        })
                    })
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let victim = self.config.eviction.victim(&candidates);
                if !self.residents.contains_key(&victim) {
                    debug_assert!(false, "eviction policy chose a non-resident id {victim}");
                    break;
                }
                self.evict(victim);
                telemetry::global().admissions_evicted.inc();
            }
            self.state.commit(&verdict.schedule)?;
            let decision = self.verdict_of(id, &verdict, self.residents.len() + 1);
            self.residents.insert(
                id,
                Resident {
                    graph: Arc::clone(graph),
                    horizon: verdict.makespan,
                    origin,
                    schedule: verdict.schedule,
                },
            );
            self.order.push_back(id);
            telemetry::global().record_admission(true, started.elapsed());
            Ok(decision)
        } else {
            let decision = self.verdict_of(id, &verdict, self.residents.len());
            telemetry::global().record_admission(false, started.elapsed());
            Ok(decision)
        }
    }

    /// Applies `delta` to the resident `id`, withdraws its reservation,
    /// slices the amended graph from scratch (the slice cache is not
    /// consulted) and trials it at the resident's original origin, the
    /// path every fresh trial takes. On admit the new schedule replaces
    /// the old reservation; on reject (or any pipeline error) the
    /// original reservation is restored unchanged.
    ///
    /// # Errors
    ///
    /// [`AdmitError::NoResident`] for an unknown id,
    /// [`AdmitError::Delta`] when the amendment does not apply, and
    /// [`AdmitError::Trial`] when the pipeline itself fails.
    pub fn amend(&mut self, id: u64, delta: &GraphDelta) -> Result<AdmitVerdict, AdmitError> {
        let result = self.amend_unsealed(id, delta);
        let request = AdmitRequest::Amend {
            id,
            delta: delta.clone(),
        };
        self.conclude(&request, result)
    }

    /// [`amend`](AdmissionController::amend) without the sealing step —
    /// the service's coordinator runs this and seals through
    /// [`conclude`](AdmissionController::conclude) itself.
    pub(crate) fn amend_unsealed(
        &mut self,
        id: u64,
        delta: &GraphDelta,
    ) -> Result<AdmitVerdict, AdmitError> {
        let started = Instant::now();
        let resident = match self.residents.remove(&id) {
            Some(resident) => resident,
            None => return Err(AdmitError::NoResident { id }),
        };
        let (resident, result) = self.amend_inner(id, resident, delta);
        self.residents.insert(id, resident);
        if let Ok(decision) = &result {
            telemetry::global().record_admission(decision.admitted, started.elapsed());
        }
        result
    }

    /// Body of [`amend`](AdmissionController::amend) with the resident
    /// held out of the map (so the state and pipeline can be borrowed
    /// mutably alongside it); the caller re-inserts it on every path.
    fn amend_inner(
        &mut self,
        id: u64,
        mut resident: Resident,
        delta: &GraphDelta,
    ) -> (Resident, Result<AdmitVerdict, AdmitError>) {
        let pinning = match self
            .config
            .scenario
            .pinning
            .build(&resident.graph, &self.platform)
        {
            Ok(pinning) => pinning,
            Err(e) => return (resident, Err(AdmitError::Trial(RunError::Platform(e)))),
        };
        let amended = match delta.apply(&resident.graph, &pinning) {
            Ok(applied) => applied.graph,
            Err(e) => return (resident, Err(e.into())),
        };

        // Withdraw the resident's reservation, then slice the amended
        // graph from scratch and trial it at the resident's origin.
        if let Err(e) = self.state.release(&resident.schedule) {
            return (resident, Err(e.into()));
        }
        let result = self
            .pipeline
            .slice_or_share(&amended, &self.platform, &mut None)
            .and_then(|(output, _)| {
                let against = Some((&self.state, resident.origin));
                self.pipeline
                    .trial(&amended, &self.platform, output, against)
            });
        let verdict = match result {
            Ok(verdict) => verdict,
            Err(e) => {
                // Pipeline failure: restore the original reservation, then
                // surface the error.
                let error = match self.state.commit(&resident.schedule) {
                    Ok(_) => AdmitError::Trial(e),
                    Err(restore) => restore.into(),
                };
                return (resident, Err(error));
            }
        };
        let decision = self.verdict_of(id, &verdict, self.residents.len() + 1);
        // An admit replaces the reservation with the new schedule. A
        // reject leaves no trace: it restores the original reservation
        // (content-identical, so the state digest is unchanged).
        let kept = if verdict.admit {
            &verdict.schedule
        } else {
            &resident.schedule
        };
        if let Err(e) = self.state.commit(kept) {
            return (resident, Err(e.into()));
        }
        if verdict.admit {
            resident.graph = Arc::new(amended);
            resident.horizon = verdict.makespan;
            resident.schedule = verdict.schedule;
        }
        (resident, Ok(decision))
    }

    /// Releases every resident whose horizon has passed the decision
    /// clock `now` (all reserved work complete — the graph has departed).
    fn retire(&mut self, now: Time) {
        let expired: Vec<u64> = self
            .residents
            .iter()
            .filter(|(_, resident)| resident.horizon <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.evict(id);
        }
    }

    /// Removes a resident and releases its reservations.
    fn evict(&mut self, id: u64) {
        if let Some(resident) = self.residents.remove(&id) {
            // Shape mismatch is impossible for a schedule this state
            // committed, so the release cannot fail meaningfully.
            let _ = self.state.release(&resident.schedule);
            self.order.retain(|&other| other != id);
        }
    }

    fn verdict_of(&self, id: u64, verdict: &Verdict, residents: usize) -> AdmitVerdict {
        AdmitVerdict {
            id,
            admitted: verdict.admit,
            max_lateness: verdict.max_lateness,
            end_to_end: verdict.end_to_end,
            makespan: verdict.makespan,
            violations: verdict.violations(),
            repaired: false,
            residents,
        }
    }

    /// The committed reservations the next trial will run against.
    pub fn state(&self) -> &CommittedState {
        &self.state
    }

    /// Number of committed residents.
    pub fn residents(&self) -> usize {
        self.residents.len()
    }

    /// Whether `id` is currently resident.
    pub fn is_resident(&self, id: u64) -> bool {
        self.residents.contains_key(&id)
    }

    /// Content digest of the committed state (see
    /// [`CommittedState::digest`]); equal digests mean identical
    /// reservations.
    pub fn digest(&self) -> u64 {
        self.state.digest()
    }

    /// The configuration this controller was built from.
    pub fn config(&self) -> &AdmitConfig {
        &self.config
    }

    /// The shared deadline-miss warning budget (see
    /// [`Runner::MISS_WARN_LIMIT`]).
    pub fn miss_log(&self) -> &Arc<MissLog> {
        &self.miss_log
    }
}

/// The pipeline the controller and each of its slicer workers run: the
/// scenario's, attached to the service's shared slice cache (when on) and
/// deadline-miss log.
fn service_pipeline(
    scenario: &Scenario,
    slice_cache: Option<&SharedSliceCache>,
    miss_log: &Arc<MissLog>,
) -> Pipeline {
    let mut pipeline = Pipeline::new(scenario);
    if let Some(cache) = slice_cache {
        pipeline = pipeline.with_slice_cache(Arc::clone(cache));
    }
    pipeline.set_miss_log(Some(Arc::clone(miss_log)));
    pipeline
}

/// Stage one of an admit, for the controller and every slicer worker
/// alike: the feasibility pre-filter (when `prefilter` is on), then the
/// slice through the cross-request cache. The pre-filter's bounds are
/// necessary conditions, so a graph it refuses would have been rejected
/// by the full path too; no DP search runs for it.
fn slice_admit(
    pipeline: &mut Pipeline,
    platform: &Platform,
    prefilter: bool,
    graph: &TaskGraph,
) -> Result<SliceOutput, AdmitError> {
    if let Some(reject) = prefilter
        .then(|| pipeline.prefilter(graph, platform))
        .flatten()
    {
        return Err(AdmitError::Prefilter(reject));
    }
    let sliced = pipeline.slice(graph, platform).map_err(AdmitError::Trial)?;
    Ok(sliced.into_output())
}

/// A slicing job shipped to a worker: stage one never reads committed
/// load, so it runs concurrently with other requests' trials.
struct WorkerJob {
    seq: u64,
    id: u64,
    graph: Arc<TaskGraph>,
    origin: Time,
    /// When [`AdmissionService::submit`] accepted the request — the
    /// decision budget's staleness clock.
    accepted: Instant,
}

/// A unit of serial coordinator work, tagged with its submission sequence.
enum CoordJob {
    Admit {
        seq: u64,
        id: u64,
        graph: Arc<TaskGraph>,
        origin: Time,
        accepted: Instant,
        output: Result<SliceOutput, AdmitError>,
    },
    Amend {
        seq: u64,
        id: u64,
        delta: GraphDelta,
        accepted: Instant,
    },
    /// A spurious redelivery of an already-shipped sequence (injected by
    /// the `admit-queue-race` fault site); the coordinator's dedup guard
    /// must drop it without disturbing the real job.
    Duplicate { seq: u64 },
}

impl CoordJob {
    fn seq(&self) -> u64 {
        match self {
            CoordJob::Admit { seq, .. }
            | CoordJob::Amend { seq, .. }
            | CoordJob::Duplicate { seq } => *seq,
        }
    }
}

/// How many queued requests a slicer worker drains per pickup. One
/// blocking receive plus up to `WORKER_BATCH - 1` opportunistic ones
/// amortizes the receiver-lock round trip under load; under light load
/// `try_recv` comes back empty immediately, so batching adds no latency.
const WORKER_BATCH: usize = 8;

/// Micro-seconds `accepted` has waited beyond `budget`, when over it.
fn over_budget(budget: Option<Duration>, accepted: Instant) -> Option<u64> {
    let budget = budget?;
    let waited = accepted.elapsed();
    if waited > budget {
        Some(waited.as_micros() as u64)
    } else {
        None
    }
}

/// The admission controller behind a bounded queue: a pool of slicer
/// workers distributes deadlines in parallel while a single coordinator
/// trials and commits strictly in submission order, so the service's
/// verdicts are bit-identical to a sequential [`AdmissionController`] fed
/// the same requests (the contract [`AdmissionLog::replay`] checks).
///
/// [`submit`](AdmissionService::submit) never blocks — a full queue is an
/// [`AdmitError::QueueFull`] refusal — and
/// [`shutdown`](AdmissionService::shutdown) drains every accepted request
/// before returning the transcript.
///
/// # Examples
///
/// ```
/// use feast::{AdmissionService, AdmitConfig, AdmitRequest, Scenario};
/// use slicing::{CommEstimate, MetricKind};
/// use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
/// use taskgraph::Time;
///
/// # fn main() -> Result<(), feast::Error> {
/// let spec = WorkloadSpec::paper(ExecVariation::Mdet);
/// let scenario = Scenario::paper("SVC", spec.clone(), MetricKind::adapt(), CommEstimate::Ccne);
/// let service = AdmissionService::new(AdmitConfig::new(scenario, 8).with_workers(2))?;
/// for id in 0..4 {
///     let graph = generate_seeded(&spec, id).unwrap();
///     service.submit(AdmitRequest::Admit { id, graph: graph.into(), origin: Time::ZERO })?;
/// }
/// let log = service.shutdown()?;
/// assert_eq!(log.outcomes.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AdmissionService {
    ingress: SyncSender<WorkerJob>,
    coord: SyncSender<CoordJob>,
    /// Next submission sequence number; the lock also serializes sends, so
    /// sequence order equals queue order.
    seq: Mutex<u64>,
    depth: usize,
    workers: Vec<JoinHandle<()>>,
    coordinator: JoinHandle<AdmissionLog>,
}

impl AdmissionService {
    /// Starts the worker pool and coordinator for `config`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`AdmissionController::new`], plus
    /// [`AdmitError::Trial`] wrapping an I/O error when a thread cannot be
    /// spawned.
    pub fn new(config: AdmitConfig) -> Result<AdmissionService, AdmitError> {
        let controller = AdmissionController::new(config.clone())?;
        let depth = config.queue_depth.max(1);
        let (ingress, worker_rx) = sync_channel::<WorkerJob>(depth);
        let (coord_tx, coord_rx) = sync_channel::<CoordJob>(depth);
        let worker_rx = Arc::new(Mutex::new(worker_rx));

        let mut workers = Vec::new();
        for index in 0..config.workers.max(1) {
            let rx = Arc::clone(&worker_rx);
            let tx = coord_tx.clone();
            let scenario = config.scenario.clone();
            let platform = controller.platform.clone();
            let miss_log = Arc::clone(&controller.miss_log);
            let budget = config.decision_budget;
            let plan = config.fault_plan.clone();
            let system_size = config.system_size;
            let prefilter_on = config.prefilter;
            let slice_cache = controller.slice_cache.clone();
            let worker = std::thread::Builder::new()
                .name(format!("admit-slicer-{index}"))
                .spawn(move || {
                    let build = || service_pipeline(&scenario, slice_cache.as_ref(), &miss_log);
                    let mut pipeline = build();
                    let mut batch: Vec<WorkerJob> = Vec::with_capacity(WORKER_BATCH);
                    loop {
                        // Take the receiver lock only to dequeue; slicing
                        // runs unlocked, concurrently across the pool.
                        // One blocking receive, then opportunistically
                        // drain up to the batch bound — under light load
                        // the batch is a single job and nothing waits.
                        batch.clear();
                        {
                            let guard = match rx.lock() {
                                Ok(guard) => guard,
                                Err(_) => return,
                            };
                            match guard.recv() {
                                Ok(job) => batch.push(job),
                                Err(_) => return,
                            }
                            while batch.len() < WORKER_BATCH {
                                match guard.try_recv() {
                                    Ok(job) => batch.push(job),
                                    Err(_) => break,
                                }
                            }
                        }
                        for job in batch.drain(..) {
                            // Staleness-aware shedding: a request already
                            // over its decision budget is refused before
                            // any slicing work is spent on it. The typed
                            // refusal still ships, so the reorder buffer
                            // never waits on a hole.
                            let output = if let Some(waited_us) = over_budget(budget, job.accepted)
                            {
                                Err(AdmitError::Shed { waited_us })
                            } else {
                                // Supervision: a panicking slicer (real or
                                // injected) is caught, its possibly-
                                // poisoned pipeline discarded and rebuilt
                                // in place, and the request concluded with
                                // a typed failure — the service degrades
                                // by one verdict, it never dies.
                                let sliced = catch_unwind(AssertUnwindSafe(|| {
                                    if fault::fires(
                                        plan.as_deref(),
                                        FaultSite::AdmitWorkerPanic,
                                        system_size,
                                        job.seq as usize,
                                        0,
                                    ) {
                                        panic!("injected admission worker panic");
                                    }
                                    slice_admit(&mut pipeline, &platform, prefilter_on, &job.graph)
                                }));
                                match sliced {
                                    Ok(output) => output,
                                    Err(_) => {
                                        pipeline = build();
                                        Err(AdmitError::WorkerFailed { stage: "slice" })
                                    }
                                }
                            };
                            let seq = job.seq;
                            let shipped = tx.send(CoordJob::Admit {
                                seq,
                                id: job.id,
                                graph: job.graph,
                                origin: job.origin,
                                accepted: job.accepted,
                                output,
                            });
                            if shipped.is_err() {
                                return;
                            }
                            // Queue-race injection: redeliver the sequence.
                            // The channel is FIFO per sender, so the real
                            // job above always lands first and the
                            // coordinator's dedup guard must discard this
                            // one.
                            if fault::fires(
                                plan.as_deref(),
                                FaultSite::AdmitQueueRace,
                                system_size,
                                seq as usize,
                                0,
                            ) && tx.send(CoordJob::Duplicate { seq }).is_err()
                            {
                                return;
                            }
                        }
                    }
                })
                .map_err(|e| AdmitError::Trial(RunError::Io(e)))?;
            workers.push(worker);
        }

        let coordinator = std::thread::Builder::new()
            .name("admit-coordinator".into())
            .spawn(move || Self::coordinate(controller, coord_rx))
            .map_err(|e| AdmitError::Trial(RunError::Io(e)))?;

        Ok(AdmissionService {
            ingress,
            coord: coord_tx,
            seq: Mutex::new(0),
            depth,
            workers,
            coordinator,
        })
    }

    /// Enqueues a request without blocking: admits go to the slicer pool,
    /// amendments straight to the coordinator (they need the resident
    /// graph, which only the coordinator holds). Both carry the same
    /// submission sequence, so processing order is exactly submission
    /// order regardless of which worker finishes first.
    ///
    /// # Errors
    ///
    /// [`AdmitError::QueueFull`] when the bounded queue is full (the
    /// request was not accepted; the caller may retry) and
    /// [`AdmitError::ServiceStopped`] after shutdown began.
    pub fn submit(&self, request: AdmitRequest) -> Result<(), AdmitError> {
        let mut seq = match self.seq.lock() {
            Ok(seq) => seq,
            Err(_) => return Err(AdmitError::ServiceStopped),
        };
        fn refused<T>(depth: usize) -> impl Fn(TrySendError<T>) -> AdmitError {
            move |e| match e {
                TrySendError::Full(_) => AdmitError::QueueFull { depth },
                TrySendError::Disconnected(_) => AdmitError::ServiceStopped,
            }
        }
        let accepted = Instant::now();
        match request {
            AdmitRequest::Admit { id, graph, origin } => self
                .ingress
                .try_send(WorkerJob {
                    seq: *seq,
                    id,
                    graph,
                    origin,
                    accepted,
                })
                .map_err(refused(self.depth))?,
            AdmitRequest::Amend { id, delta } => self
                .coord
                .try_send(CoordJob::Amend {
                    seq: *seq,
                    id,
                    delta,
                    accepted,
                })
                .map_err(refused(self.depth))?,
        }
        // A sequence number is consumed only by an accepted request, so
        // the coordinator's reorder buffer never waits on a hole.
        *seq += 1;
        Ok(())
    }

    /// Stops accepting requests, drains everything already accepted, and
    /// returns the service's transcript.
    ///
    /// # Errors
    ///
    /// [`AdmitError::ServiceStopped`] if a worker or the coordinator
    /// panicked.
    pub fn shutdown(self) -> Result<AdmissionLog, AdmitError> {
        let AdmissionService {
            ingress,
            coord,
            seq: _,
            workers,
            coordinator,
            ..
        } = self;
        drop(ingress);
        for worker in workers {
            if worker.join().is_err() {
                return Err(AdmitError::ServiceStopped);
            }
        }
        drop(coord);
        coordinator.join().map_err(|_| AdmitError::ServiceStopped)
    }

    /// The coordinator: re-orders jobs into submission sequence and runs
    /// every decision serially on the single controller.
    fn coordinate(mut controller: AdmissionController, rx: Receiver<CoordJob>) -> AdmissionLog {
        let mut next = 0u64;
        let mut reorder: BTreeMap<u64, CoordJob> = BTreeMap::new();
        let mut log = AdmissionLog::default();
        while let Ok(job) = rx.recv() {
            // Dedup guard: each sequence is processed exactly once. A
            // redelivery — the injected queue race, or any future retry
            // path — is dropped whether its twin is already processed
            // (seq < next) or still waiting in the reorder buffer.
            let seq = job.seq();
            if matches!(job, CoordJob::Duplicate { .. }) || seq < next || reorder.contains_key(&seq)
            {
                tracing::warn!(seq = seq, "dropping duplicate coordinator delivery");
                continue;
            }
            reorder.insert(seq, job);
            while let Some(job) = reorder.remove(&next) {
                Self::process(&mut controller, job, &mut log);
                next += 1;
            }
        }
        // Senders are gone; every accepted sequence has arrived.
        while let Some(job) = reorder.remove(&next) {
            Self::process(&mut controller, job, &mut log);
            next += 1;
        }
        log.digest = controller.digest();
        log.residents = controller.residents();
        log
    }

    fn process(controller: &mut AdmissionController, job: CoordJob, log: &mut AdmissionLog) {
        let budget = controller.config.decision_budget;
        match job {
            CoordJob::Admit {
                id,
                graph,
                origin,
                accepted,
                output,
                ..
            } => {
                // The coordinator re-checks the budget: slicing may have
                // been fast, but a request can also go stale waiting in
                // the reorder buffer behind a slow predecessor.
                let result = match output {
                    Ok(output) => match over_budget(budget, accepted) {
                        Some(waited_us) => Err(AdmitError::Shed { waited_us }),
                        None => controller.decide(id, &graph, origin, output),
                    },
                    Err(e) => Err(e),
                };
                let request = AdmitRequest::Admit { id, graph, origin };
                Self::record(controller, log, request, result, accepted);
            }
            CoordJob::Amend {
                id,
                delta,
                accepted,
                ..
            } => {
                let result = match over_budget(budget, accepted) {
                    Some(waited_us) => Err(AdmitError::Shed { waited_us }),
                    None => controller.amend_unsealed(id, &delta),
                };
                let request = AdmitRequest::Amend { id, delta };
                Self::record(controller, log, request, result, accepted);
            }
            CoordJob::Duplicate { .. } => {
                // Unreachable past the dedup guard; nothing to process.
            }
        }
    }

    /// Concludes one request on the coordinator: seals it (through the
    /// controller's choke point), counts it, and appends it to the
    /// transcript.
    fn record(
        controller: &mut AdmissionController,
        log: &mut AdmissionLog,
        request: AdmitRequest,
        result: Result<AdmitVerdict, AdmitError>,
        accepted: Instant,
    ) {
        let result = controller.conclude(&request, result);
        let outcome = AdmitOutcome::of(&result);
        match &outcome {
            AdmitOutcome::Shed { .. } => telemetry::global().admissions_shed.inc(),
            AdmitOutcome::Failed { .. } => telemetry::global().admissions_worker_failed.inc(),
            _ => telemetry::global()
                .admission_sojourn
                .record(accepted.elapsed()),
        }
        log.requests.push(request);
        log.outcomes.push(outcome);
    }
}

/// The transcript of an admission run: every request and its outcome in
/// submission order, plus the final committed-state fingerprint.
///
/// The log is the service's determinism witness:
/// [`replay`](AdmissionLog::replay) re-runs the requests through a fresh
/// *sequential* controller and must reproduce the service's verdicts and
/// digest bit for bit ([`matches`](AdmissionLog::matches)).
#[derive(Debug, Default)]
pub struct AdmissionLog {
    /// Every accepted request, in submission order.
    pub requests: Vec<AdmitRequest>,
    /// The outcome of each request, aligned with
    /// [`requests`](AdmissionLog::requests).
    pub outcomes: Vec<AdmitOutcome>,
    /// Content digest of the final committed state.
    pub digest: u64,
    /// Residents still committed at the end of the run.
    pub residents: usize,
}

impl AdmissionLog {
    /// Number of admitted requests.
    pub fn admitted(&self) -> usize {
        self.verdicts().filter(|v| v.admitted).count()
    }

    /// Number of rejected requests (successful trials that missed).
    pub fn rejected(&self) -> usize {
        self.verdicts().filter(|v| !v.admitted).count()
    }

    /// Number of requests shed over their decision budget.
    pub fn shed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, AdmitOutcome::Shed { .. }))
            .count()
    }

    /// Number of requests lost to worker failures.
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, AdmitOutcome::Failed { .. }))
            .count()
    }

    /// Number of deterministic typed refusals.
    pub fn refused(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, AdmitOutcome::Refused(_)))
            .count()
    }

    /// Number of requests refused by the feasibility pre-filter (a subset
    /// of [`refused`](AdmissionLog::refused)).
    pub fn prefilter_rejected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, AdmitOutcome::Refused(Refusal::Prefilter { .. })))
            .count()
    }

    /// The completed verdicts, in submission order.
    pub fn verdicts(&self) -> impl Iterator<Item = &AdmitVerdict> {
        self.outcomes.iter().filter_map(AdmitOutcome::verdict)
    }

    /// Re-runs this log's requests through a fresh sequential
    /// [`AdmissionController`] and returns the resulting log. Determinism
    /// means the result [`matches`](AdmissionLog::matches) `self`.
    ///
    /// Environmental outcomes (shed, worker failure) are copied verbatim —
    /// they are artifacts of queue timing and faults, not of the request
    /// sequence, and they conclude a request before any state mutation, so
    /// skipping their (never-run) trials preserves every later verdict.
    /// The replay runs in memory only, even when `config` names a WAL.
    ///
    /// # Errors
    ///
    /// Exactly those of [`AdmissionController::new`]; per-request failures
    /// are recorded in the returned log, not raised.
    pub fn replay(&self, config: &AdmitConfig) -> Result<AdmissionLog, AdmitError> {
        let mut replay_config = config.clone();
        replay_config.wal_path = None;
        let mut controller = AdmissionController::new(replay_config)?;
        let mut log = AdmissionLog {
            requests: self.requests.clone(),
            ..AdmissionLog::default()
        };
        for (request, recorded) in log.requests.iter().zip(self.outcomes.iter()) {
            let outcome = if recorded.is_environmental() {
                recorded.clone()
            } else {
                AdmitOutcome::of(&controller.handle(request))
            };
            log.outcomes.push(outcome);
        }
        log.digest = controller.digest();
        log.residents = controller.residents();
        Ok(log)
    }

    /// Whether two logs recorded identical outcomes and final state —
    /// the bit-identical replay check.
    pub fn matches(&self, other: &AdmissionLog) -> bool {
        self.outcomes == other.outcomes
            && self.digest == other.digest
            && self.residents == other.residents
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use slicing::{CommEstimate, DeltaOp, MetricKind};
    use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
    use taskgraph::SubtaskId;

    use super::*;

    /// A fresh temp-file path; the file is removed by Drop.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> TempPath {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            TempPath(std::env::temp_dir().join(format!(
                "feast-admission-{tag}-{}-{n}.jsonl",
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
        let scenario = Scenario::paper("ADM/TEST", spec(), MetricKind::adapt(), CommEstimate::Ccne);
        AdmitConfig::new(scenario, size)
    }

    fn graph(seed: u64) -> Arc<TaskGraph> {
        Arc::new(generate_seeded(&spec(), seed).expect("paper workloads generate"))
    }

    #[test]
    fn admit_commits_and_reject_leaves_no_trace() {
        let mut controller = AdmissionController::new(config(8)).unwrap();
        let idle = controller.digest();

        let first = controller.admit(1, graph(1), Time::ZERO).unwrap();
        assert!(first.admitted, "paper workload fits an idle platform");
        assert_eq!(controller.residents(), 1);
        let loaded = controller.digest();
        assert_ne!(loaded, idle);

        // Pile on admissions at the same origin until one is rejected:
        // the rejection must leave the committed state bit-identical.
        let mut id = 2;
        loop {
            let before = controller.digest();
            let verdict = controller.admit(id, graph(id), Time::ZERO).unwrap();
            if !verdict.admitted {
                assert_eq!(controller.digest(), before, "reject left a trace");
                assert_eq!(controller.residents() as u64, id - 1);
                break;
            }
            id += 1;
            assert!(id < 100, "platform never saturated");
        }
    }

    #[test]
    fn residents_retire_once_the_clock_passes_their_horizon() {
        let mut controller = AdmissionController::new(config(8)).unwrap();
        let first = controller.admit(1, graph(3), Time::ZERO).unwrap();
        assert!(first.admitted);

        // A later arrival past the first graph's horizon retires it; the
        // platform is effectively idle again, so the digest after both
        // depart matches a fresh admit at that origin.
        let origin = first.makespan + Time::new(1);
        let second = controller.admit(2, graph(3), origin).unwrap();
        assert!(second.admitted);
        assert_eq!(controller.residents(), 1);
        assert!(!controller.is_resident(1));
        assert_eq!(second.max_lateness, first.max_lateness);

        let mut fresh = AdmissionController::new(config(8)).unwrap();
        fresh.admit(2, graph(3), origin).unwrap();
        assert_eq!(controller.digest(), fresh.digest());
    }

    #[test]
    fn duplicate_resident_id_is_refused() {
        let mut controller = AdmissionController::new(config(8)).unwrap();
        assert!(controller.admit(7, graph(1), Time::ZERO).unwrap().admitted);
        let digest = controller.digest();
        match controller.admit(7, graph(2), Time::ZERO) {
            Err(AdmitError::DuplicateId { id: 7 }) => {}
            other => panic!("expected DuplicateId, got {other:?}"),
        }
        assert_eq!(controller.digest(), digest);
    }

    #[test]
    fn capacity_bound_evicts_oldest_on_admit() {
        // Admit simultaneous graphs (no retirement at a common origin)
        // until the capacity bound forces an eviction on admit.
        let mut controller = AdmissionController::new(config(8).with_capacity(2)).unwrap();
        let mut admitted = Vec::new();
        for id in 1..32 {
            let verdict = controller.admit(id, graph(id), Time::ZERO).unwrap();
            if verdict.admitted {
                admitted.push(id);
            }
            if admitted.len() == 3 {
                break;
            }
        }
        assert_eq!(admitted.len(), 3, "8 processors should admit 3 graphs");
        assert_eq!(controller.residents(), 2);
        assert!(
            !controller.is_resident(admitted[0]),
            "oldest resident evicted"
        );
        assert!(controller.is_resident(admitted[1]));
        assert!(controller.is_resident(admitted[2]));
    }

    #[test]
    fn amend_repairs_in_place_and_matches_a_fresh_controller() {
        let delta = GraphDelta::new().push(DeltaOp::SetWcet {
            subtask: SubtaskId::new(2),
            wcet: Time::new(25),
        });

        let mut controller = AdmissionController::new(config(8)).unwrap();
        assert!(controller.admit(1, graph(5), Time::ZERO).unwrap().admitted);
        let amended = controller.amend(1, &delta).unwrap();

        // A fresh controller admitting the amended graph directly must
        // land on the identical committed state and lateness.
        let pinning = platform::Pinning::new();
        let applied = delta.apply(&graph(5), &pinning).unwrap();
        let mut fresh = AdmissionController::new(config(8)).unwrap();
        let direct = fresh.admit(1, applied.graph, Time::ZERO).unwrap();
        assert_eq!(controller.digest(), fresh.digest());
        assert_eq!(amended.admitted, direct.admitted);
        assert_eq!(amended.max_lateness, direct.max_lateness);
        assert_eq!(amended.makespan, direct.makespan);
    }

    #[test]
    fn amend_after_a_newer_commit_falls_back_but_stays_exact() {
        let delta = GraphDelta::new().push(DeltaOp::SetWcet {
            subtask: SubtaskId::new(1),
            wcet: Time::new(30),
        });

        let mut controller = AdmissionController::new(config(8)).unwrap();
        assert!(controller.admit(1, graph(5), Time::ZERO).unwrap().admitted);
        assert!(controller.admit(2, graph(6), Time::ZERO).unwrap().admitted);
        // Resident 1 is no longer the latest commit.
        let amended = controller.amend(1, &delta).unwrap();

        // A fresh controller handling the identical request sequence
        // lands on the identical verdict and committed state.
        let mut fresh = AdmissionController::new(config(8)).unwrap();
        fresh.admit(1, graph(5), Time::ZERO).unwrap();
        fresh.admit(2, graph(6), Time::ZERO).unwrap();
        let replayed = fresh.amend(1, &delta).unwrap();
        assert_eq!(amended, replayed);
        assert_eq!(controller.digest(), fresh.digest());
    }

    #[test]
    fn amend_unknown_resident_is_refused_without_mutation() {
        let mut controller = AdmissionController::new(config(4)).unwrap();
        assert!(controller.admit(1, graph(1), Time::ZERO).unwrap().admitted);
        let digest = controller.digest();
        let delta = GraphDelta::new().push(DeltaOp::SetWcet {
            subtask: SubtaskId::new(0),
            wcet: Time::new(9),
        });
        match controller.amend(99, &delta) {
            Err(AdmitError::NoResident { id: 99 }) => {}
            other => panic!("expected NoResident, got {other:?}"),
        }
        assert_eq!(controller.digest(), digest);
    }

    #[test]
    fn service_matches_sequential_replay() {
        let config = config(8).with_workers(3).with_queue_depth(64);
        let service = AdmissionService::new(config.clone()).unwrap();
        for id in 0..12 {
            service
                .submit(AdmitRequest::Admit {
                    id,
                    graph: graph(id + 1),
                    origin: Time::new(i64::try_from(id).unwrap() * 500),
                })
                .unwrap();
        }
        let log = service.shutdown().unwrap();
        assert_eq!(log.outcomes.len(), 12);
        assert!(log.admitted() > 0);

        let replayed = log.replay(&config).unwrap();
        assert!(log.matches(&replayed), "service diverged from replay");
    }

    #[test]
    fn service_amendments_keep_submission_order() {
        let config = config(8).with_workers(2);
        let service = AdmissionService::new(config.clone()).unwrap();
        service
            .submit(AdmitRequest::Admit {
                id: 1,
                graph: graph(5),
                origin: Time::ZERO,
            })
            .unwrap();
        // The amendment is submitted while the admit may still be slicing
        // on a worker; sequence ordering must hold it back regardless.
        service
            .submit(AdmitRequest::Amend {
                id: 1,
                delta: GraphDelta::new().push(DeltaOp::SetWcet {
                    subtask: SubtaskId::new(3),
                    wcet: Time::new(40),
                }),
            })
            .unwrap();
        let log = service.shutdown().unwrap();
        assert_eq!(log.outcomes.len(), 2);
        assert!(
            log.outcomes[1].verdict().is_some(),
            "amend found its resident"
        );
        let replayed = log.replay(&config).unwrap();
        assert!(log.matches(&replayed));
    }

    #[test]
    fn durable_controller_recovers_bit_identical() {
        let wal = TempPath::new("recover");
        let delta = GraphDelta::new().push(DeltaOp::SetWcet {
            subtask: SubtaskId::new(2),
            wcet: Time::new(25),
        });

        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        for id in 1..6 {
            durable.admit(id, graph(id), Time::ZERO).unwrap();
        }
        durable.amend(1, &delta).unwrap();
        // A deterministic refusal is sealed too.
        assert!(matches!(
            durable.admit(1, graph(9), Time::ZERO),
            Err(AdmitError::DuplicateId { id: 1 })
        ));
        let digest = durable.digest();
        let residents = durable.residents();
        drop(durable); // crash stand-in: recovery reads only the file

        let (recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(recovered.digest(), digest, "recovered state diverged");
        assert_eq!(recovered.residents(), residents);
        assert_eq!(log.outcomes.len(), 7);
        assert_eq!(log.refused(), 1);
        let replayed = log.replay(&config(8)).unwrap();
        assert!(log.matches(&replayed));
    }

    #[test]
    fn recovered_controller_keeps_appending_to_the_same_log() {
        let wal = TempPath::new("reattach");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        durable.admit(1, graph(1), Time::ZERO).unwrap();
        drop(durable);

        let (mut recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 1);
        recovered.admit(2, graph(2), Time::ZERO).unwrap();
        let digest = recovered.digest();
        drop(recovered);

        let (again, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 2, "post-recovery admit was sealed");
        assert_eq!(again.digest(), digest);
    }

    #[test]
    fn recovery_tolerates_a_torn_final_line() {
        let wal = TempPath::new("torn");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        for id in 1..5 {
            durable.admit(id, graph(id), Time::ZERO).unwrap();
        }
        drop(durable);
        let (intact, _) = AdmissionController::recover(config(8), &wal.0).unwrap();
        let _ = intact;

        // Tear the final record mid-line, as a crash mid-append would.
        let text = std::fs::read_to_string(&wal.0).unwrap();
        let torn = &text[..text.len() - 17];
        std::fs::write(&wal.0, torn).unwrap();

        let (recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 3, "torn record dropped, prefix kept");
        let mut fresh = AdmissionController::new(config(8)).unwrap();
        for id in 1..4 {
            fresh.admit(id, graph(id), Time::ZERO).unwrap();
        }
        assert_eq!(recovered.digest(), fresh.digest());
    }

    #[test]
    fn appends_after_torn_tail_recovery_do_not_merge_with_the_fragment() {
        let wal = TempPath::new("torn-append");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        for id in 1..5 {
            durable.admit(id, graph(id), Time::ZERO).unwrap();
        }
        drop(durable);

        // Tear the final record mid-line, recover, and keep appending:
        // the fragment must be truncated, not fused with the new record.
        let text = std::fs::read_to_string(&wal.0).unwrap();
        std::fs::write(&wal.0, &text[..text.len() - 17]).unwrap();
        let (mut recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 3);
        recovered.admit(9, graph(9), Time::ZERO).unwrap();
        let digest = recovered.digest();
        drop(recovered);

        let (again, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 4, "post-recovery admit sealed cleanly");
        assert_eq!(again.digest(), digest);
    }

    #[test]
    fn appends_after_a_missing_final_newline_start_a_fresh_line() {
        let wal = TempPath::new("unterminated");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        durable.admit(1, graph(1), Time::ZERO).unwrap();
        durable.admit(2, graph(2), Time::ZERO).unwrap();
        drop(durable);

        // Strip only the trailing newline: the final record is intact and
        // must be kept — and the next append must restore the terminator
        // rather than writing onto the same line.
        let text = std::fs::read_to_string(&wal.0).unwrap();
        assert!(text.ends_with('\n'));
        std::fs::write(&wal.0, &text[..text.len() - 1]).unwrap();
        let (mut recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 2, "unterminated final record kept");
        recovered.admit(3, graph(3), Time::ZERO).unwrap();
        let digest = recovered.digest();
        drop(recovered);

        let (again, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 3);
        assert_eq!(again.digest(), digest);
    }

    #[test]
    fn wal_fingerprint_separates_capacity_from_eviction_policy() {
        // Craft a (capacity, policy) pair that would collide with the
        // base configuration if capacity and policy-name hash were XORed
        // into a single fingerprint input word.
        let oldest = stream_label(b"oldest-first");
        let lowest = stream_label(b"lowest-utilization");
        let base = config(8).with_capacity(16);
        let crafted = config(8)
            .with_capacity((16u64 ^ oldest ^ lowest) as usize)
            .with_eviction(LowestUtilization);
        assert_eq!(
            (base.capacity as u64) ^ oldest,
            (crafted.capacity as u64) ^ lowest,
            "the crafted pair must collide under the old XOR folding"
        );
        assert_ne!(wal_fingerprint(&base), wal_fingerprint(&crafted));
    }

    #[test]
    fn refusals_seal_stable_tags_not_rendered_messages() {
        let wal = TempPath::new("refusal");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        durable.admit(1, graph(1), Time::ZERO).unwrap();
        let refusal = durable.admit(1, graph(2), Time::ZERO).unwrap_err();
        drop(durable);

        // The WAL carries the structured refusal, never the Display
        // rendering — rewording an error message must not invalidate it.
        let text = std::fs::read_to_string(&wal.0).unwrap();
        assert!(
            !text.contains(&refusal.to_string()),
            "WAL sealed a rendered error message"
        );
        assert!(text.contains("DuplicateId"), "structured refusal missing");
        let (_, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.refused(), 1);
        assert_eq!(
            log.outcomes[1],
            AdmitOutcome::Refused(Refusal::DuplicateId { id: 1 })
        );
    }

    #[test]
    fn recovery_refuses_a_mismatching_configuration() {
        let wal = TempPath::new("mismatch");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        durable.admit(1, graph(1), Time::ZERO).unwrap();
        drop(durable);

        match AdmissionController::recover(config(4), &wal.0) {
            Err(AdmitError::Log(RunError::CheckpointMismatch { .. })) => {}
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
        match AdmissionController::recover(config(8).with_eviction(LowestUtilization), &wal.0) {
            Err(AdmitError::Log(RunError::CheckpointMismatch { .. })) => {}
            other => panic!("expected an eviction-policy mismatch, got {other:?}"),
        }
    }

    #[test]
    fn recovery_rejects_mid_file_corruption() {
        let wal = TempPath::new("corrupt");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        for id in 1..4 {
            durable.admit(id, graph(id), Time::ZERO).unwrap();
        }
        drop(durable);

        // Flip a digit inside the *second* record (not the final line, so
        // the torn-tail tolerance must not apply).
        let text = std::fs::read_to_string(&wal.0).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let target = &mut lines[2];
        let pos = target
            .char_indices()
            .position(|(_, c)| c.is_ascii_digit())
            .expect("record contains digits");
        let original = target.as_bytes()[pos];
        let flipped = if original == b'9' { b'0' } else { original + 1 };
        target.replace_range(pos..=pos, std::str::from_utf8(&[flipped]).unwrap());
        std::fs::write(&wal.0, lines.join("\n") + "\n").unwrap();

        match AdmissionController::recover(config(8), &wal.0) {
            Err(AdmitError::Log(RunError::CheckpointCorrupt { .. })) => {}
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
    }

    /// The request variant of every record in the log at `path`.
    fn wal_kinds(path: &Path) -> Vec<&'static str> {
        let text = std::fs::read_to_string(path).unwrap();
        text.lines()
            .skip(1)
            .map(
                |line| match serde_json::from_str::<WalLine>(line).unwrap() {
                    WalLine::Sealed { record, .. } => match record.request {
                        WalRequest::Admit { .. } => "inline",
                        WalRequest::AdmitRef { .. } => "ref",
                        WalRequest::Amend { .. } => "amend",
                    },
                    WalLine::Header { .. } => panic!("extra header"),
                },
            )
            .collect()
    }

    #[test]
    fn equal_content_seals_a_reference_and_new_content_seals_inline() {
        let wal = TempPath::new("refs");
        let template = graph(1);
        let mut slower = (*template).clone();
        slower
            .try_update_subtasks(|nodes| {
                let wcet = nodes[0].wcet();
                nodes[0].set_wcet(wcet + Time::new(1));
            })
            .unwrap();
        let delta = GraphDelta::new().set_wcet(SubtaskId::new(0), Time::new(5));

        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        let mut origin = 0;
        let mut admit = |durable: &mut AdmissionController, id: u64, g: Arc<TaskGraph>| {
            origin += 100_000; // every earlier resident has retired
            durable.admit(id, g, Time::new(origin)).unwrap();
        };
        admit(&mut durable, 1, Arc::clone(&template));
        // Equal content in a distinct allocation is still a reference.
        admit(&mut durable, 2, Arc::new((*template).clone()));
        admit(&mut durable, 3, Arc::clone(&template));
        durable.amend(3, &delta).unwrap();
        // An amended copy and a different graph are new content.
        admit(&mut durable, 4, Arc::new(slower.clone()));
        admit(&mut durable, 5, graph(2));
        admit(&mut durable, 6, Arc::new(slower));
        let digest = durable.digest();
        drop(durable);

        assert_eq!(
            wal_kinds(&wal.0),
            ["inline", "ref", "ref", "amend", "inline", "inline", "ref"]
        );
        let (recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(recovered.digest(), digest);
        assert!(log.matches(&log.replay(&config(8)).unwrap()));
        match &log.requests[1] {
            AdmitRequest::Admit { graph, .. } => assert_eq!(**graph, *template),
            other => panic!("expected an admit, got {other:?}"),
        }
    }

    #[test]
    fn the_reference_table_holds_at_most_capacity_graphs() {
        let wal = TempPath::new("ref-bound");
        let mut durable =
            AdmissionController::new(config(8).with_capacity(2).durable(&wal.0)).unwrap();
        for (id, seed) in [1, 2, 1, 3, 1, 2].into_iter().enumerate() {
            let origin = Time::new(100_000 * (id as i64 + 1));
            durable.admit(id as u64, graph(seed), origin).unwrap();
        }
        drop(durable);
        // Eviction goes by inline write, oldest first, whether or not the
        // entry was referenced since: seed 3 pushes seed 1 out of the
        // two-entry table, and seed 1's second inline write pushes out
        // seed 2.
        assert_eq!(
            wal_kinds(&wal.0),
            ["inline", "inline", "ref", "inline", "inline", "inline"]
        );
        let (_, log) = AdmissionController::recover(config(8).with_capacity(2), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 6);
    }

    #[test]
    fn recovery_refuses_a_reference_to_an_unknown_graph() {
        let wal = TempPath::new("unknown-ref");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        durable.admit(1, graph(1), Time::ZERO).unwrap();
        durable.admit(2, graph(1), Time::new(100_000)).unwrap();
        drop(durable);

        // Point the reference (line 3) at a hash no inline graph has, and
        // re-seal it, so only the reference itself is wrong.
        let text = std::fs::read_to_string(&wal.0).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let WalLine::Sealed { mut record, .. } = serde_json::from_str(&lines[2]).unwrap() else {
            panic!("line 3 is a record");
        };
        let WalRequest::AdmitRef { graph, .. } = &mut record.request else {
            panic!("line 3 is a reference, got {:?}", record.request);
        };
        *graph ^= 1;
        lines[2] = sealed_line("Sealed", &record);
        std::fs::write(&wal.0, lines.join("\n") + "\n").unwrap();

        match AdmissionController::recover(config(8), &wal.0) {
            Err(AdmitError::Log(RunError::CheckpointCorrupt { detail, .. })) => {
                assert!(detail.contains("unknown graph"), "{detail}");
                assert!(detail.ends_with("at line 3"), "{detail}");
            }
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
    }

    /// [`wal_fingerprint`] of `config(8)` before [`WAL_FORMAT`] joined the
    /// chain: the header every log written without references carries.
    const LEGACY_FINGERPRINT: u64 = 0x40DA_1A77_C982_0227;

    /// [`wal_fingerprint`] of `config(8)` at format 2: the header of every
    /// log whose amendment verdicts may read `repaired: true`.
    const FORMAT_2_FINGERPRINT: u64 = 0xC5E9_2145_2C1F_B224;

    #[test]
    fn the_format_step_separates_new_logs_from_legacy_ones() {
        for legacy_fingerprint in [LEGACY_FINGERPRINT, FORMAT_2_FINGERPRINT] {
            assert_ne!(wal_fingerprint(&config(8)), legacy_fingerprint);

            // A legacy log (one inline admit) is refused as a mismatch, not
            // read record by record.
            let wal = TempPath::new("legacy");
            let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
            durable.admit(1, graph(1), Time::ZERO).unwrap();
            drop(durable);
            let text = std::fs::read_to_string(&wal.0).unwrap();
            let (_, records) = text.split_once('\n').unwrap();
            let header = WalLine::Header {
                fingerprint: legacy_fingerprint,
                label: "ADM/TEST".to_owned(),
            };
            let legacy = serde_json::to_string(&header).unwrap() + "\n" + records;
            std::fs::write(&wal.0, legacy).unwrap();
            match AdmissionController::recover(config(8), &wal.0) {
                Err(AdmitError::Log(RunError::CheckpointMismatch { .. })) => {}
                other => panic!("expected a format mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn lowest_utilization_policy_picks_the_idlest_resident() {
        let candidates = vec![
            EvictionCandidate {
                id: 1,
                seniority: 0,
                origin: Time::ZERO,
                horizon: Time::new(100),
                busy: Time::new(90),
            },
            EvictionCandidate {
                id: 2,
                seniority: 1,
                origin: Time::ZERO,
                horizon: Time::new(100),
                busy: Time::new(10),
            },
            EvictionCandidate {
                id: 3,
                seniority: 2,
                origin: Time::ZERO,
                horizon: Time::new(100),
                busy: Time::new(50),
            },
        ];
        assert_eq!(OldestFirst.victim(&candidates), 1);
        assert_eq!(LowestUtilization.victim(&candidates), 2);
        // Ties break oldest-first: equal utilization, distinct
        // seniorities — the lower seniority must win regardless of
        // candidate order.
        let tied = vec![
            EvictionCandidate {
                id: 7,
                seniority: 3,
                origin: Time::ZERO,
                horizon: Time::new(100),
                busy: Time::new(10),
            },
            EvictionCandidate {
                id: 8,
                seniority: 1,
                origin: Time::ZERO,
                horizon: Time::new(100),
                busy: Time::new(10),
            },
        ];
        assert_eq!(LowestUtilization.victim(&tied), 8);
        let reversed: Vec<_> = tied.iter().rev().copied().collect();
        assert_eq!(LowestUtilization.victim(&reversed), 8);
    }

    #[test]
    fn eviction_policy_changes_the_victim_in_a_live_controller() {
        let mut controller =
            AdmissionController::new(config(8).with_capacity(2).with_eviction(LowestUtilization))
                .unwrap();
        let mut admitted = Vec::new();
        for id in 1..32 {
            let verdict = controller.admit(id, graph(id), Time::ZERO).unwrap();
            if verdict.admitted {
                admitted.push(id);
            }
            if admitted.len() == 3 {
                break;
            }
        }
        assert_eq!(admitted.len(), 3);
        assert_eq!(controller.residents(), 2, "capacity bound held");
    }

    #[test]
    fn shed_outcomes_leave_no_trace_and_replay_verbatim() {
        // A zero budget sheds every service request before any slicing.
        let config = config(8)
            .with_workers(2)
            .with_decision_budget(Duration::ZERO);
        let service = AdmissionService::new(config.clone()).unwrap();
        for id in 0..6 {
            service
                .submit(AdmitRequest::Admit {
                    id,
                    graph: graph(id + 1),
                    origin: Time::ZERO,
                })
                .unwrap();
        }
        let log = service.shutdown().unwrap();
        assert_eq!(log.outcomes.len(), 6);
        assert_eq!(log.shed(), 6, "zero budget sheds everything");
        assert_eq!(log.admitted(), 0);
        assert_eq!(log.residents, 0, "shed requests leave no residents");

        let idle = AdmissionController::new(config.clone()).unwrap();
        assert_eq!(log.digest, idle.digest(), "shed requests left a trace");

        let replayed = log.replay(&config).unwrap();
        assert!(log.matches(&replayed), "shed outcomes must copy verbatim");
    }

    #[test]
    fn sequential_controller_ignores_the_decision_budget() {
        let mut controller =
            AdmissionController::new(config(8).with_decision_budget(Duration::ZERO)).unwrap();
        let verdict = controller.admit(1, graph(1), Time::ZERO).unwrap();
        assert!(verdict.admitted, "no queue, nothing to shed");
    }

    #[test]
    fn full_queue_refuses_without_blocking() {
        // A rendezvous ingress (depth clamps to 1) with a saturated
        // pool: submissions beyond the in-flight capacity are refused.
        let config = config(4).with_workers(1).with_queue_depth(1);
        let service = AdmissionService::new(config.clone()).unwrap();
        let mut refused = 0;
        for id in 0..64 {
            match service.submit(AdmitRequest::Admit {
                id,
                graph: graph(1),
                origin: Time::ZERO,
            }) {
                Ok(()) => {}
                Err(AdmitError::QueueFull { depth }) => {
                    assert_eq!(depth, 1);
                    refused += 1;
                }
                Err(other) => panic!("unexpected refusal: {other}"),
            }
        }
        let log = service.shutdown().unwrap();
        assert_eq!(log.outcomes.len() + refused, 64);
        // Refused submissions consumed no sequence numbers: the accepted
        // ones replay cleanly.
        let replayed = log.replay(&config).unwrap();
        assert!(log.matches(&replayed));
    }

    #[cfg(feature = "fault-inject")]
    mod fault_inject {
        use crate::fault::FaultSpec;

        use super::*;

        #[test]
        fn worker_panic_becomes_one_typed_failure_and_the_service_survives() {
            // Pick a seed whose plan panics exactly one of the 8 requests,
            // so the assertion is exact rather than statistical.
            let plan_for = |seed: u64| {
                FaultPlan::new(seed).with_fault(FaultSpec::new(FaultSite::AdmitWorkerPanic, 0.2))
            };
            let (seed, victim) = (0..500u64)
                .find_map(|seed| {
                    let plan = plan_for(seed);
                    let firing: Vec<u64> = (0..8)
                        .filter(|&s| {
                            plan.should_fire(FaultSite::AdmitWorkerPanic, 8, s as usize, 0)
                        })
                        .collect();
                    match firing.as_slice() {
                        [only] => Some((seed, *only)),
                        _ => None,
                    }
                })
                .expect("some seed fires exactly once in 8 draws");

            let config = config(8).with_workers(2).with_fault_plan(plan_for(seed));
            let service = AdmissionService::new(config.clone()).unwrap();
            for id in 0..8 {
                service
                    .submit(AdmitRequest::Admit {
                        id,
                        graph: graph(id + 1),
                        origin: Time::new(i64::try_from(id).unwrap() * 500),
                    })
                    .unwrap();
            }
            let log = service.shutdown().unwrap();
            assert_eq!(log.outcomes.len(), 8, "service concluded every request");
            assert_eq!(log.failed(), 1, "exactly one typed worker failure");
            assert!(matches!(
                &log.outcomes[victim as usize],
                AdmitOutcome::Failed { stage } if stage == "slice"
            ));
            assert_eq!(log.verdicts().count(), 7, "every other request decided");
            let replayed = log.replay(&config).unwrap();
            assert!(log.matches(&replayed), "failure outcome replays verbatim");
        }

        #[test]
        fn queue_race_duplicates_are_dropped_by_the_dedup_guard() {
            // Redeliver every sequence: each request must still conclude
            // exactly once, in order, with unchanged verdicts.
            let plan =
                FaultPlan::new(11).with_fault(FaultSpec::new(FaultSite::AdmitQueueRace, 1.0));
            let config = config(8).with_workers(3).with_fault_plan(plan);
            let service = AdmissionService::new(config.clone()).unwrap();
            for id in 0..10 {
                service
                    .submit(AdmitRequest::Admit {
                        id,
                        graph: graph(id + 1),
                        origin: Time::new(i64::try_from(id).unwrap() * 500),
                    })
                    .unwrap();
            }
            let log = service.shutdown().unwrap();
            assert_eq!(log.outcomes.len(), 10, "each sequence concluded once");
            let replayed = log.replay(&config).unwrap();
            assert!(log.matches(&replayed));
        }

        #[test]
        fn transient_log_io_faults_retry_and_the_log_stays_durable() {
            let wal = TempPath::new("faulty-io");
            // Every append fails twice, then the retry clears it.
            let plan = FaultPlan::new(3)
                .with_fault(FaultSpec::new(FaultSite::AdmitLogIo, 1.0).transient(2));
            let mut durable =
                AdmissionController::new(config(8).durable(&wal.0).with_fault_plan(plan)).unwrap();
            for id in 1..4 {
                durable.admit(id, graph(id), Time::ZERO).unwrap();
            }
            let digest = durable.digest();
            drop(durable);

            let (recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
            assert_eq!(log.outcomes.len(), 3, "no record lost to the faults");
            assert_eq!(recovered.digest(), digest);
        }

        #[test]
        fn injected_corruption_is_detected_on_recovery() {
            // Pick a seed that corrupts a record which is *not* the final
            // line, so the torn-tail tolerance cannot excuse it.
            let plan_for = |seed: u64| {
                FaultPlan::new(seed).with_fault(FaultSpec::new(FaultSite::AdmitLogCorrupt, 0.3))
            };
            let seed = (0..500u64)
                .find(|&seed| {
                    let plan = plan_for(seed);
                    plan.should_fire(FaultSite::AdmitLogCorrupt, 8, 1, 0)
                        && !plan.should_fire(FaultSite::AdmitLogCorrupt, 8, 2, 0)
                })
                .expect("some seed corrupts only the middle record");

            let wal = TempPath::new("faulty-crc");
            let mut durable =
                AdmissionController::new(config(8).durable(&wal.0).with_fault_plan(plan_for(seed)))
                    .unwrap();
            for id in 1..4 {
                durable.admit(id, graph(id), Time::ZERO).unwrap();
            }
            drop(durable);

            match AdmissionController::recover(config(8), &wal.0) {
                Err(AdmitError::Log(RunError::CheckpointCorrupt { .. })) => {}
                other => panic!("expected CheckpointCorrupt, got {other:?}"),
            }
        }
    }
}
