//! Scenario execution: the generate → distribute → schedule → measure
//! pipeline, swept over system sizes and replications by a sharded,
//! checkpointable, cancellable [`Runner`].
//!
//! # The engine
//!
//! Every replication's workload seed is derived from its coordinates via
//! [`stream_seed`] (never from a sequential RNG walk), so any replication
//! is independently computable in any order on any worker.
//!
//! The unit of work is one replication, as in the paper's experiment: one
//! random graph, run at every system size of the sweep. A run starts one
//! pool of worker threads for the whole scenario. Each worker owns one
//! [`Pipeline`] and claims the next replication from a shared index,
//! generates its graph and runs it at every size it still misses, back to
//! back, while the graph is hot in cache. A size
//! whose slicing inputs equal those of the last size the replication
//! sliced shares that slice and only trials: equal inputs give a
//! bit-identical assignment. A cell is one `(system size, replication)`
//! pair; duplicate sizes in the sweep name the same cell, which runs
//! once. On top of that the engine layers:
//!
//! * **sharding** — [`ShardSpec`] partitions the replication indices;
//!   [`Runner::run_partial`] computes one shard's [`PartialResult`] and
//!   [`PartialResult::merge`] folds N shard outputs into the exact
//!   [`ScenarioResult`] a monolithic run produces (bit-identical `f64`s,
//!   because the merge recombines raw per-replication records in
//!   replication order rather than combining floating-point summaries);
//! * **checkpointing** — [`Runner::checkpoint`] appends every completed
//!   replication to a JSONL file; a restarted run loads it, skips the
//!   completed `(system size, replication)` cells and computes only the
//!   rest;
//! * **cancellation** — a [`CancelToken`] checked before every cell
//!   stops the run with [`RunError::Cancelled`] while preserving the
//!   checkpoint, which holds every cell finished before it;
//! * **bounded retry** — a rejected workload draw is retried on fresh
//!   [`sub_stream`]s a bounded number of times
//!   ([`Runner::MAX_GENERATE_ATTEMPTS`]) before the replication fails
//!   with a typed error;
//! * **degrade-don't-die** — a replication that still fails after
//!   retries (generation exhausted, a pipeline error, or a worker panic)
//!   is recorded as a typed [`ReplicationOutcome::Failed`] cell,
//!   excluded from the statistics with an explicit count in
//!   [`ScenarioPoint::failed`], instead of aborting the whole sweep
//!   ([`Runner::fail_fast`] restores abort-on-first-failure);
//! * **audit oracle** — every schedule produced during a sweep passes
//!   through `Schedule::validate` and the assignment-window checker; the
//!   violation counts ride on every [`ReplicationRecord`] and
//!   [`ScenarioPoint`], and [`Runner::strict_validate`] turns any
//!   violation (or degraded cell) into a typed error;
//! * **checkpoint integrity** — records are sealed with a per-record
//!   CRC32; transient append failures are retried with exponential
//!   backoff ([`Runner::CHECKPOINT_RETRY_LIMIT`]); silently-corrupted
//!   mid-file records are rejected with [`RunError::CheckpointCorrupt`]
//!   rather than skipped (only an unparseable *final* line — a torn
//!   write from a killed process — is tolerated, and cut off before the
//!   resumed run appends);
//! * **fault injection** — with the `fault-inject` cargo feature, a
//!   deterministic [`FaultPlan`](crate::fault::FaultPlan) can fire
//!   synthetic faults (checkpoint I/O errors, corrupted records, worker
//!   panics, generation rejections, cancel races) at named sites in this
//!   engine; release builds compile the hooks down to constant `false`.
//!
//! [`stream_seed`]: taskgraph::gen::stream_seed
//! [`sub_stream`]: taskgraph::gen::sub_stream

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use platform::Platform;
use sched::MissLog;
use taskgraph::gen::{
    generate_seeded, generate_shape_seeded, stream_label, stream_seed, sub_stream, GenerateError,
};
use taskgraph::TaskGraph;

use crate::fault::{self, FaultPlan, FaultSite};
use crate::pipeline::LastSlice;
use crate::progress::{MetricsWriter, ProgressTracker};
use crate::sealed_log::{self, seal, sealed_line, SealedLine, SealedLog};
use crate::telemetry::{self, EventSink, RunEvent, Stage};
use crate::{Pipeline, RunError, Scenario, SummaryStats, WorkloadSource};

/// Measurements of one scenario at one system size, aggregated over all
/// replications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPoint {
    /// Number of processors.
    pub system_size: usize,
    /// Maximum task lateness (the paper's headline measure).
    pub max_lateness: SummaryStats,
    /// Lateness of output subtasks against their end-to-end deadlines.
    pub end_to_end_lateness: SummaryStats,
    /// Schedule makespan.
    pub makespan: SummaryStats,
    /// Fraction of replications whose schedules met every assigned
    /// deadline.
    pub feasible_fraction: f64,
    /// Structural violations found across all replications (0 for a sound
    /// pipeline): the always-on audit count, window + schedule.
    pub violations: usize,
    /// Deadline-window violations (assignment checker) within
    /// [`ScenarioPoint::violations`]. `None` when the point folds legacy
    /// records that predate the audit split.
    pub window_violations: Option<usize>,
    /// Schedule violations (`Schedule::validate`) within
    /// [`ScenarioPoint::violations`]. `None` when the point folds legacy
    /// records that predate the audit split.
    pub schedule_violations: Option<usize>,
    /// Replications that failed after retries, were recorded as typed
    /// [`ReplicationOutcome::Failed`] cells and excluded from the
    /// statistics above.
    pub failed: usize,
}

impl ScenarioPoint {
    /// Aggregates one system size's records (already in replication order)
    /// into a point. All folds — monolithic, sharded-and-merged,
    /// resumed-from-checkpoint — go through this one function, which is
    /// what makes their `f64` statistics bit-identical. Failed cells are
    /// excluded from the statistics and surfaced as an explicit count; a
    /// point whose replications *all* failed keeps finite (empty)
    /// statistics.
    fn from_cell(
        system_size: usize,
        records: &[ReplicationRecord],
        failed: usize,
    ) -> ScenarioPoint {
        if records.is_empty() {
            return ScenarioPoint {
                system_size,
                max_lateness: SummaryStats::empty(),
                end_to_end_lateness: SummaryStats::empty(),
                makespan: SummaryStats::empty(),
                feasible_fraction: 0.0,
                violations: 0,
                window_violations: Some(0),
                schedule_violations: Some(0),
                failed,
            };
        }
        let collect =
            |f: fn(&ReplicationRecord) -> f64| -> Vec<f64> { records.iter().map(f).collect() };
        // The split is only meaningful when every record carries it;
        // legacy checkpoint records degrade the point to the total-only
        // audit count.
        let split = |f: fn(&ReplicationRecord) -> Option<usize>| -> Option<usize> {
            records.iter().map(f).sum()
        };
        ScenarioPoint {
            system_size,
            max_lateness: SummaryStats::from_values(&collect(|r| r.max_lateness)),
            end_to_end_lateness: SummaryStats::from_values(&collect(|r| r.end_to_end)),
            makespan: SummaryStats::from_values(&collect(|r| r.makespan)),
            feasible_fraction: records.iter().filter(|r| r.feasible).count() as f64
                / records.len() as f64,
            violations: records.iter().map(|r| r.violations).sum(),
            window_violations: split(|r| r.window_violations),
            schedule_violations: split(|r| r.schedule_violations),
            failed,
        }
    }
}

/// The outcome of running one scenario over its system-size sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The scenario's display label.
    pub label: String,
    /// One point per system size, in sweep order.
    pub points: Vec<ScenarioPoint>,
}

impl ScenarioResult {
    /// The mean maximum task lateness per system size, in sweep order —
    /// the series plotted in every figure of the paper.
    pub fn lateness_series(&self) -> Vec<(usize, f64)> {
        self.points
            .iter()
            .map(|p| (p.system_size, p.max_lateness.mean))
            .collect()
    }

    /// The mean end-to-end lateness (output subtasks against their given
    /// end-to-end deadlines) per system size — the technique-neutral
    /// measure used when comparing against the UD/ED baselines, whose
    /// local deadlines are not comparable to sliced windows.
    pub fn end_to_end_series(&self) -> Vec<(usize, f64)> {
        self.points
            .iter()
            .map(|p| (p.system_size, p.end_to_end_lateness.mean))
            .collect()
    }
}

/// Raw measurements of one replication at one system size: the engine's
/// unit of work, checkpointing and shard merging.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicationRecord {
    /// Number of processors this replication was scheduled on.
    pub system_size: usize,
    /// Replication index (also the seed-stream coordinate).
    pub replication: usize,
    /// Maximum task lateness.
    pub max_lateness: f64,
    /// End-to-end lateness of output subtasks.
    pub end_to_end: f64,
    /// Schedule makespan.
    pub makespan: f64,
    /// Did the schedule meet every assigned deadline?
    pub feasible: bool,
    /// Structural violations found by validation (window + schedule).
    pub violations: usize,
    /// Deadline-window violations (assignment checker) within
    /// [`ReplicationRecord::violations`]. `None` on legacy checkpoint
    /// records written before the audit split.
    pub window_violations: Option<usize>,
    /// Schedule violations (`Schedule::validate`) within
    /// [`ReplicationRecord::violations`]. `None` on legacy checkpoint
    /// records written before the audit split.
    pub schedule_violations: Option<usize>,
}

/// A replication that failed after every retry and was degraded to a
/// typed outcome instead of aborting the sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailedReplication {
    /// Number of processors the replication was aimed at.
    pub system_size: usize,
    /// Replication index (also the seed-stream coordinate).
    pub replication: usize,
    /// The pipeline stage that failed: `generate`, `distribute`,
    /// `schedule` or `panic`.
    pub stage: String,
    /// The failure, rendered for humans and logs.
    pub error: String,
}

/// The outcome of one `(system size, replication)` cell: either a
/// completed measurement or a typed failure.
///
/// Under the engine's degrade-don't-die policy a cell that keeps failing
/// after bounded retries becomes [`ReplicationOutcome::Failed`]: the
/// sweep continues, the failure is checkpointed and counted explicitly
/// ([`ScenarioPoint::failed`]), and the cell is excluded from the
/// statistics — never silently folded into them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplicationOutcome {
    /// The replication completed and was measured.
    Ok(ReplicationRecord),
    /// The replication failed after retries.
    Failed(FailedReplication),
}

impl ReplicationOutcome {
    /// The completed record, if the replication succeeded.
    pub fn record(&self) -> Option<&ReplicationRecord> {
        match self {
            ReplicationOutcome::Ok(r) => Some(r),
            ReplicationOutcome::Failed(_) => None,
        }
    }

    /// The cell's `(system size, replication)` coordinates.
    pub fn cell(&self) -> (usize, usize) {
        match self {
            ReplicationOutcome::Ok(r) => (r.system_size, r.replication),
            ReplicationOutcome::Failed(f) => (f.system_size, f.replication),
        }
    }
}

/// One shard of a replicated sweep: this worker computes exactly the
/// replications `r` with `r % count == index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This worker's shard index, in `0..count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// The unsharded (whole-sweep) shard.
    pub const FULL: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// A shard covering every `count`-th replication starting at `index`.
    pub fn new(index: usize, count: usize) -> ShardSpec {
        ShardSpec { index, count }
    }

    /// Does this shard own replication `replication`?
    pub fn owns(self, replication: usize) -> bool {
        self.count != 0 && replication % self.count == self.index
    }

    /// Is this the whole sweep?
    pub fn is_full(self) -> bool {
        self.count == 1
    }

    /// Checks that the shard is addressable.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidShard`] if `count == 0` or
    /// `index >= count`.
    pub fn validate(self) -> Result<(), RunError> {
        if self.count == 0 || self.index >= self.count {
            return Err(RunError::InvalidShard {
                index: self.index,
                count: self.count,
            });
        }
        Ok(())
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec::FULL
    }
}

/// A cooperative cancellation flag, checked by the engine before every
/// cell.
///
/// Clone the token (cheap, shared) before handing the [`Runner`] to a
/// worker thread; calling [`CancelToken::cancel`] makes the run stop at
/// the next cell boundary with [`RunError::Cancelled`], leaving any
/// configured checkpoint valid for resumption.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// One shard's completed records, ready to be folded into a
/// [`ScenarioResult`] by [`PartialResult::merge`]. Serializable, so shard
/// workers on different machines can exchange it as JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialResult {
    /// The scenario's display label.
    pub label: String,
    /// Fingerprint of the scenario the records belong to (seed, workload,
    /// technique, platform — everything that influences measurements).
    pub fingerprint: u64,
    /// Total replications of the full sweep (not just this shard's).
    pub replications: usize,
    /// System sizes of the full sweep, in sweep order.
    pub system_sizes: Vec<usize>,
    /// The shard that produced these records.
    pub shard: ShardSpec,
    /// Completed records, sorted by `(system_size, replication)`.
    pub records: Vec<ReplicationRecord>,
    /// Cells that degraded to typed failures, sorted by
    /// `(system_size, replication)`; disjoint from `records`.
    pub failed: Vec<FailedReplication>,
}

impl PartialResult {
    /// Folds shard outputs into the [`ScenarioResult`] of the full sweep.
    ///
    /// The merge recombines raw per-replication records in replication
    /// order — not floating-point summaries — so the result is
    /// bit-identical to a monolithic [`Runner::run`] of the same scenario.
    /// Overlapping shards are fine (first record per cell wins; by
    /// determinism duplicates are equal anyway).
    ///
    /// # Errors
    ///
    /// [`RunError::MergeMismatch`] if the parts disagree on scenario
    /// fingerprint, label or sweep shape; [`RunError::MergeIncomplete`] if
    /// the union of records does not cover every
    /// `(system size, replication)` cell.
    pub fn merge(parts: &[PartialResult]) -> Result<ScenarioResult, RunError> {
        let first = parts
            .first()
            .ok_or_else(|| RunError::MergeMismatch("no partial results to merge".to_owned()))?;
        for p in &parts[1..] {
            if p.fingerprint != first.fingerprint {
                return Err(RunError::MergeMismatch(format!(
                    "scenario fingerprints differ ({:#x} vs {:#x})",
                    first.fingerprint, p.fingerprint
                )));
            }
            if p.label != first.label {
                return Err(RunError::MergeMismatch(format!(
                    "labels differ ({:?} vs {:?})",
                    first.label, p.label
                )));
            }
            if p.replications != first.replications || p.system_sizes != first.system_sizes {
                return Err(RunError::MergeMismatch(
                    "sweep shapes (replications / system sizes) differ".to_owned(),
                ));
            }
        }

        let in_sweep = |size: usize, rep: usize| {
            rep < first.replications && first.system_sizes.contains(&size)
        };
        let mut cells: BTreeMap<(usize, usize), ReplicationOutcome> = BTreeMap::new();
        for part in parts {
            // Failed cells first, so that any part that completed the
            // cell wins over a part that degraded it.
            for f in &part.failed {
                if in_sweep(f.system_size, f.replication) {
                    cells
                        .entry((f.system_size, f.replication))
                        .or_insert_with(|| ReplicationOutcome::Failed(f.clone()));
                }
            }
        }
        for part in parts {
            for r in &part.records {
                if in_sweep(r.system_size, r.replication) {
                    match cells.entry((r.system_size, r.replication)) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(ReplicationOutcome::Ok(*r));
                        }
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            if e.get().record().is_none() {
                                e.insert(ReplicationOutcome::Ok(*r));
                            }
                        }
                    }
                }
            }
        }
        fold_records(
            first.label.clone(),
            &first.system_sizes,
            first.replications,
            &cells,
            None,
        )
    }
}

/// Builds the full sweep's points (in sweep order) from completed cells,
/// verifying coverage. `events` receives one `Point` event per size when
/// given.
fn fold_records(
    label: String,
    system_sizes: &[usize],
    replications: usize,
    cells: &BTreeMap<(usize, usize), ReplicationOutcome>,
    events: Option<&EventScope>,
) -> Result<ScenarioResult, RunError> {
    let mut unique_sizes: Vec<usize> = system_sizes.to_vec();
    unique_sizes.sort_unstable();
    unique_sizes.dedup();
    // A typed failure covers its cell: degraded sweeps fold, they are
    // just counted. Only cells with *no* recorded outcome are missing.
    let missing = unique_sizes.len() * replications
        - cells
            .keys()
            .filter(|(s, r)| unique_sizes.contains(s) && *r < replications)
            .count();
    if missing > 0 {
        return Err(RunError::MergeIncomplete { missing });
    }

    let mut points = Vec::with_capacity(system_sizes.len());
    for &size in system_sizes {
        let mut records = Vec::with_capacity(replications);
        let mut failed = 0usize;
        for rep in 0..replications {
            match &cells[&(size, rep)] {
                ReplicationOutcome::Ok(r) => records.push(*r),
                ReplicationOutcome::Failed(_) => failed += 1,
            }
        }
        let point = ScenarioPoint::from_cell(size, &records, failed);
        if point.violations > 0 {
            tracing::warn!(
                scenario = %label,
                system_size = size,
                violations = point.violations,
                "structural violations detected"
            );
        }
        if point.failed > 0 {
            tracing::warn!(
                scenario = %label,
                system_size = size,
                failed = point.failed,
                "replications degraded to failed outcomes and were excluded from statistics"
            );
        }
        tracing::debug!(
            scenario = %label,
            system_size = size,
            mean_max_lateness = point.max_lateness.mean,
            feasible_fraction = point.feasible_fraction,
            "scenario point complete"
        );
        if let Some(scope) = events {
            scope.emit(|| RunEvent::Point {
                scenario: label.clone(),
                system_size: size,
                mean_max_lateness: point.max_lateness.mean,
                feasible_fraction: point.feasible_fraction,
                violations: point.violations,
                failed: point.failed,
            });
        }
        points.push(point);
    }
    Ok(ScenarioResult { label, points })
}

/// Where a run's events go: its own sink if one was configured with
/// [`Runner::events`], else the process-global stream.
#[derive(Debug, Clone, Default)]
struct EventScope(Option<Arc<EventSink>>);

impl EventScope {
    fn emit(&self, f: impl FnOnce() -> RunEvent) {
        match &self.0 {
            Some(sink) => sink.emit(&f()),
            None => telemetry::emit_with(f),
        }
    }

    fn flush(&self) {
        match &self.0 {
            Some(sink) => sink.flush(),
            // Events went to the process-global stream: flush the sink
            // installed there (if any), so `events.jsonl` is complete even
            // when the process keeps running after a degraded replication.
            None => {
                if let Some(sink) = telemetry::installed() {
                    sink.flush();
                }
            }
        }
    }
}

/// Asks the fault hook ([`fault::fires`]) whether `site` fires at
/// `(system_size, replication)` on this `attempt`, recording a firing as a
/// [`RunEvent::FaultInjected`] event.
fn inject_fault(
    faults: Option<&FaultPlan>,
    site: FaultSite,
    system_size: usize,
    replication: usize,
    attempt: u64,
    events: &EventScope,
) -> bool {
    let fired = fault::fires(faults, site, system_size, replication, attempt);
    if fired {
        events.emit(|| RunEvent::FaultInjected {
            site: site.name().to_owned(),
            system_size,
            replication,
            attempt,
        });
    }
    fired
}

/// Fingerprint of everything that influences a scenario's measurements:
/// workload, technique, platform family, scheduler and base seed — but not
/// the label or the sweep shape, so a checkpoint stays valid when the user
/// extends `replications` or `system_sizes`.
///
/// Options that default to "off" (currently `strict_windows`) are stripped
/// from the canonical form when disabled, so checkpoints written before an
/// option existed keep fingerprinting identically.
pub(crate) fn fingerprint(scenario: &Scenario) -> u64 {
    let mut canonical = scenario.clone();
    canonical.label = String::new();
    canonical.replications = 0;
    canonical.system_sizes = Vec::new();
    let mut value = serde_json::to_value(&canonical).expect("scenario serializes");
    if let serde::Value::Object(entries) = &mut value {
        entries.retain(|(key, _)| key != "strict_windows" || canonical.strict_windows);
    }
    let json = serde_json::to_string(&value).expect("scenario serializes");
    stream_label(json.as_bytes())
}

/// The workload's seed-stream coordinate: a stable hash of the workload
/// *source* only. Deliberately independent of the technique, so competing
/// techniques draw identical graphs (the paper's paired comparison).
fn workload_stream(workload: &WorkloadSource) -> u64 {
    let json = serde_json::to_string(workload).expect("workload serializes");
    stream_label(json.as_bytes())
}

/// Generates the workload for replication `rep`, retrying rejected draws
/// on fresh sub-streams a bounded number of times.
///
/// Seeds depend only on `(base_seed, workload stream, rep)` — not on the
/// technique or the system size — so different techniques and sizes see
/// the same graphs (paired comparison), and any replication is computable
/// in isolation.
///
/// Injected `generate-reject` faults are *virtual* rejections: they
/// consume retry budget without advancing the sub-stream, so a recovered
/// draw reproduces the fault-free graph bit-identically.
fn workload(
    scenario: &Scenario,
    stream: u64,
    rep: usize,
    faults: Option<&FaultPlan>,
    events: &EventScope,
) -> Result<TaskGraph, RunError> {
    let seed = stream_seed(scenario.base_seed, stream, 0, rep as u64);
    let mut injected = 0u64;
    while inject_fault(faults, FaultSite::GenerateReject, 0, rep, injected, events) {
        injected += 1;
        if injected >= Runner::MAX_GENERATE_ATTEMPTS {
            return Err(RunError::GenerateRejected {
                replication: rep,
                attempts: injected as usize,
                last: GenerateError::InvalidSpec(
                    "injected generation rejection (fault plan)".to_owned(),
                ),
            });
        }
    }
    let mut last = None;
    for attempt in 0..Runner::MAX_GENERATE_ATTEMPTS.saturating_sub(injected) {
        let attempt_seed = sub_stream(seed, attempt);
        let result = match &scenario.workload {
            WorkloadSource::Random(spec) => generate_seeded(spec, attempt_seed),
            WorkloadSource::Shaped { shape, spec } => {
                generate_shape_seeded(*shape, spec, attempt_seed)
            }
        };
        match result {
            Ok(graph) => return Ok(graph),
            // An invalid spec is deterministic: retrying cannot help.
            Err(e @ GenerateError::InvalidSpec(_)) => return Err(e.into()),
            Err(e) => {
                tracing::warn!(
                    replication = rep,
                    attempt = attempt,
                    "workload draw rejected: {e}; retrying on a fresh sub-stream"
                );
                last = Some(e);
            }
        }
    }
    Err(RunError::GenerateRejected {
        replication: rep,
        attempts: Runner::MAX_GENERATE_ATTEMPTS as usize,
        last: last.expect("at least one attempt was made"),
    })
}

/// Runs one full replication through the [`Pipeline`] facade: distribute
/// deadlines, schedule, measure.
///
/// `pipeline` is per-worker: it owns the scheduler scratch state, which
/// every trial fully resets on entry, so reusing one pipeline across
/// replications (even after a caught panic) changes nothing but the
/// allocation count.
///
/// `last` is the slice product of the last size this replication sliced:
/// a size whose slicing inputs equal its inputs shares it
/// ([`Pipeline::slice_or_share`]) and only trials.
///
/// Stage timing is self-time: `distribute_us` covers the slicer alone and
/// `schedule_us` the list scheduler alone, while both validation passes
/// (window audit + schedule audit) are accounted to [`Stage::Audit`].
/// [`telemetry::account_cell`] records all three, and each replication's
/// [`RunEvent::Replication`] carries them. A
/// shared cell ran no distribution and no window audit: it adds no
/// `distribute` sample, counts in `slices_shared`, and its event reads
/// `distribute_us` 0.
fn run_once(
    scenario: &Scenario,
    graph: &TaskGraph,
    platform: &Platform,
    rep: usize,
    events: &EventScope,
    pipeline: &mut Pipeline,
    last: &mut Option<LastSlice>,
) -> Result<ReplicationRecord, RunError> {
    let (output, shared) = pipeline.slice_or_share(graph, platform, last)?;
    let verdict = pipeline.trial(graph, platform, output, None)?;
    let record = ReplicationRecord {
        system_size: platform.processor_count(),
        replication: rep,
        max_lateness: verdict.max_lateness.as_f64(),
        end_to_end: verdict.end_to_end.as_f64(),
        makespan: verdict.makespan.as_f64(),
        feasible: verdict.admit,
        violations: verdict.violations(),
        window_violations: Some(verdict.window_violations),
        schedule_violations: Some(verdict.schedule_violations),
    };
    telemetry::account_cell(
        &scenario.label,
        &record,
        (!shared).then_some(verdict.distribute),
        verdict.schedule_time,
        verdict.audit,
        events.0.as_deref(),
    );
    Ok(record)
}

/// One line of a `checkpoint.jsonl` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum CheckpointLine {
    /// First line: identifies the scenario the records belong to.
    Header {
        /// Scenario fingerprint (see [`fingerprint`]).
        fingerprint: u64,
        /// Scenario label, for human readers of the file.
        label: String,
        /// Base seed, for human readers of the file.
        base_seed: u64,
    },
    /// One completed replication (legacy, checksum-less format; still
    /// read, no longer written).
    Record(ReplicationRecord),
    /// One completed replication, sealed with the CRC32 of the record's
    /// canonical JSON so silent corruption is detected on resume.
    Sealed {
        /// IEEE CRC32 of `serde_json::to_string(&record)`.
        crc: u32,
        /// The completed replication.
        record: ReplicationRecord,
    },
    /// One degraded replication, sealed like [`CheckpointLine::Sealed`].
    /// Read back for audit trails, but *not* loaded as a completed cell:
    /// a resumed run retries failed cells.
    Failed {
        /// IEEE CRC32 of `serde_json::to_string(&record)`.
        crc: u32,
        /// The recorded failure.
        record: FailedReplication,
    },
}

impl SealedLine for CheckpointLine {
    const KIND: &'static str = "checkpoint";
    const NOT_A_HEADER: &'static str = "first line is not a checkpoint header";

    fn fingerprint(&self) -> Option<u64> {
        match self {
            CheckpointLine::Header { fingerprint, .. } => Some(*fingerprint),
            _ => None,
        }
    }

    fn seal_holds(&self) -> bool {
        match self {
            CheckpointLine::Header { .. } | CheckpointLine::Record(_) => true,
            CheckpointLine::Sealed { crc, record } => seal(record) == *crc,
            CheckpointLine::Failed { crc, record } => seal(record) == *crc,
        }
    }

    fn count_retry() {
        telemetry::global().checkpoint_retries.inc();
    }
}

/// Appends one outcome to the checkpoint, so a killed process loses at
/// most the replication in flight; a failure that survives every retry
/// aborts the run with a typed I/O error.
fn checkpoint_outcome(
    log: &SealedLog<CheckpointLine>,
    outcome: &ReplicationOutcome,
    faults: Option<&FaultPlan>,
    events: &EventScope,
) -> Result<(), RunError> {
    let (size, rep) = outcome.cell();
    // The variant names of `CheckpointLine::Sealed` / `::Failed`.
    let line = match outcome {
        ReplicationOutcome::Ok(record) => sealed_line("Sealed", record),
        ReplicationOutcome::Failed(record) => sealed_line("Failed", record),
    };
    let corrupt = inject_fault(faults, FaultSite::CheckpointCorrupt, size, rep, 0, events);
    log.append(line, corrupt, |attempt| {
        inject_fault(faults, FaultSite::CheckpointIo, size, rep, attempt, events)
    })?;
    Ok(())
}

/// Opens (or creates) the checkpoint at `path`, loading completed records
/// into `cells`. Records of cells outside the current sweep are left in
/// the file but ignored; degraded (`Failed`) records are acknowledged but
/// not loaded, so a resumed run retries them. A missing or empty file
/// starts a fresh checkpoint; a torn final line is skipped and cut off
/// before appending, and any other damage is a typed error (see
/// [`sealed_log::load`]) — corruption is detected, never silently folded
/// into statistics.
fn open_checkpoint(
    path: &Path,
    scenario: &Scenario,
    fp: u64,
    cells: &mut BTreeMap<(usize, usize), ReplicationOutcome>,
    events: &EventScope,
) -> Result<SealedLog<CheckpointLine>, RunError> {
    let loaded = match sealed_log::load::<CheckpointLine>(path, fp) {
        Err(RunError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
        loaded => loaded?,
    };
    let Some(loaded) = loaded else {
        return SealedLog::create(
            path,
            &CheckpointLine::Header {
                fingerprint: fp,
                label: scenario.label.clone(),
                base_seed: scenario.base_seed,
            },
        );
    };
    let mut resumed = 0usize;
    for (_, line) in loaded.records {
        let record = match line {
            CheckpointLine::Header { .. } => unreachable!("load rejects extra headers"),
            // Legacy checksum-less records are accepted as-is.
            CheckpointLine::Record(record) | CheckpointLine::Sealed { record, .. } => record,
            CheckpointLine::Failed { record, .. } => {
                tracing::debug!(
                    system_size = record.system_size,
                    replication = record.replication,
                    stage = %record.stage,
                    "checkpoint records a degraded cell; it will be retried"
                );
                continue;
            }
        };
        if record.replication < scenario.replications
            && scenario.system_sizes.contains(&record.system_size)
        {
            cells
                .entry((record.system_size, record.replication))
                .or_insert(ReplicationOutcome::Ok(record));
            resumed += 1;
        }
    }
    tracing::info!(
        path = %path.display(),
        records = resumed,
        "resuming from checkpoint"
    );
    events.emit(|| RunEvent::CheckpointLoaded {
        path: path.display().to_string(),
        records: resumed,
    });
    SealedLog::reopen(path, loaded.tail)
}

/// Runs `work` on every item from one scoped pool of `threads` workers.
/// Each worker builds its own state with `init`, then claims the next
/// unclaimed item from a shared atomic index until none is left or
/// `cancel` fires. An `Err` stops every worker from claiming items past
/// the failing one, and the earliest failing item's error is returned:
/// the error a sequential run meets first. Otherwise the results come
/// back in item order, without the items that cancellation skipped.
/// Worker panics surface as [`RunError::WorkerPanic`]`("schedule")`.
fn claim_each<T, S, R>(
    items: &[T],
    threads: usize,
    cancel: &CancelToken,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &T) -> Result<R, RunError> + Sync,
) -> Result<Vec<R>, RunError>
where
    T: Sync,
    R: Send,
{
    // Both atomics only decide which items run; they publish no data.
    // `items` is read-only for the pool's lifetime, and the results come
    // back through the joins, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let first_err = AtomicUsize::new(usize::MAX);
    let worker = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() || i > first_err.load(Ordering::Relaxed) || cancel.is_cancelled() {
                return done;
            }
            let result = work(&mut state, &items[i]);
            if result.is_err() {
                first_err.fetch_min(i, Ordering::Relaxed);
            }
            done.push((i, result));
        }
    };
    let mut done = if threads <= 1 || items.len() <= 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(items.len()))
                .map(|_| scope.spawn(worker))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| RunError::WorkerPanic("schedule")))
                .collect::<Result<Vec<_>, _>>()
        })?
        .into_iter()
        .flatten()
        .collect()
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// The sharded, resumable experiment engine: builds and executes one
/// scenario sweep.
///
/// # Examples
///
/// A plain (monolithic) run:
///
/// ```
/// use feast::{Runner, Scenario};
/// use slicing::{CommEstimate, MetricKind};
/// use taskgraph::gen::{ExecVariation, WorkloadSpec};
///
/// # fn main() -> Result<(), feast::RunError> {
/// let scenario = Scenario::paper(
///     "PURE/CCNE",
///     WorkloadSpec::paper(ExecVariation::Mdet),
///     MetricKind::pure(),
///     CommEstimate::Ccne,
/// )
/// .with_replications(4)
/// .with_system_sizes(vec![2]);
/// let result = Runner::new(scenario).threads(1).run()?;
/// assert_eq!(result.points.len(), 1);
/// # Ok(())
/// # }
/// ```
///
/// A two-shard run folded back together (each `run_partial` could execute
/// on a different machine):
///
/// ```
/// use feast::{PartialResult, Runner, Scenario, ShardSpec};
/// use slicing::{CommEstimate, MetricKind};
/// use taskgraph::gen::{ExecVariation, WorkloadSpec};
///
/// # fn main() -> Result<(), feast::RunError> {
/// let scenario = Scenario::paper(
///     "PURE/CCNE",
///     WorkloadSpec::paper(ExecVariation::Mdet),
///     MetricKind::pure(),
///     CommEstimate::Ccne,
/// )
/// .with_replications(4)
/// .with_system_sizes(vec![2]);
/// let parts: Vec<PartialResult> = (0..2)
///     .map(|i| {
///         Runner::new(scenario.clone())
///             .threads(1)
///             .shard(ShardSpec::new(i, 2))
///             .run_partial()
///     })
///     .collect::<Result<_, _>>()?;
/// let merged = PartialResult::merge(&parts)?;
/// let monolithic = Runner::new(scenario).threads(1).run()?;
/// assert_eq!(merged, monolithic); // bit-identical f64 statistics
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Runner {
    scenario: Scenario,
    threads: usize,
    shard: ShardSpec,
    checkpoint: Option<PathBuf>,
    events: EventScope,
    cancel: CancelToken,
    strict_validate: bool,
    fail_fast: bool,
    progress: Arc<ProgressTracker>,
    metrics: Option<Arc<MetricsWriter>>,
    faults: Option<Arc<FaultPlan>>,
}

impl Runner {
    /// Maximum fresh [`sub_stream`]s tried when a workload draw is
    /// rejected before the replication fails with
    /// [`RunError::GenerateRejected`].
    ///
    /// Retrying on *sub*-streams (rather than walking an RNG forward)
    /// keeps every replication independently addressable: the retry
    /// sequence of replication `r` is a pure function of `r`, never of
    /// what other replications did.
    ///
    /// [`sub_stream`]: taskgraph::gen::sub_stream
    pub const MAX_GENERATE_ATTEMPTS: u64 = 8;

    /// Maximum *retries* of a failed checkpoint append (so up to
    /// `CHECKPOINT_RETRY_LIMIT + 1` attempts in total) before the run
    /// aborts with the underlying I/O error.
    pub const CHECKPOINT_RETRY_LIMIT: u32 = 4;

    /// Backoff before the first checkpoint-append retry; it doubles on
    /// every subsequent retry (1 ms, 2 ms, 4 ms, 8 ms at the default
    /// limit).
    pub const CHECKPOINT_BACKOFF_BASE: Duration = Duration::from_millis(1);

    /// Per-scenario budget of full deadline-miss WARN lines; the
    /// rest are counted and summarised in one
    /// [`RunEvent::DeadlineMissSummary`] at the end of the run. An
    /// admission service applies the same budget to its deadline-miss and
    /// structural-fallback WARNs.
    pub const MISS_WARN_LIMIT: u64 = 8;

    /// Minimum spacing between periodic `metrics.json` writes.
    pub const METRICS_WRITE_INTERVAL: Duration = Duration::from_secs(2);

    /// A runner for `scenario` with default settings: all cores, no shard,
    /// no checkpoint, events to the process-global stream, degrade-don't-
    /// die failure policy, non-strict audit, deadline-miss warnings capped at
    /// [`MISS_WARN_LIMIT`](Runner::MISS_WARN_LIMIT), no metrics file.
    pub fn new(scenario: Scenario) -> Runner {
        Runner {
            scenario,
            threads: 0,
            shard: ShardSpec::FULL,
            checkpoint: None,
            events: EventScope::default(),
            cancel: CancelToken::new(),
            strict_validate: false,
            fail_fast: false,
            progress: Arc::new(ProgressTracker::new()),
            metrics: None,
            faults: None,
        }
    }

    /// Sets the worker-thread count (`0` = all available cores).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Runner {
        self.threads = threads;
        self
    }

    /// Restricts this runner to one shard of the replication indices.
    #[must_use]
    pub fn shard(mut self, shard: ShardSpec) -> Runner {
        self.shard = shard;
        self
    }

    /// Checkpoints completed replications to (and resumes them from) the
    /// JSONL file at `path`. Each record is flushed to the operating
    /// system, never fsynced: a checkpointed replication survives the
    /// process being killed (SIGKILL, a panic, an abort) but not an
    /// operating-system crash or a power loss.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Runner {
        self.checkpoint = Some(path.into());
        self
    }

    /// Streams this run's events to `sink` instead of the process-global
    /// stream — shard workers can keep separate event files.
    #[must_use]
    pub fn events(mut self, sink: EventSink) -> Runner {
        self.events = EventScope(Some(Arc::new(sink)));
        self
    }

    /// Makes the always-on audit *strict*: any structural violation (or
    /// degraded replication) found during the run turns into a typed
    /// error — [`RunError::AuditFailed`] / [`RunError::DegradedRun`] —
    /// instead of being counted and surfaced in the results.
    #[must_use]
    pub fn strict_validate(mut self, strict: bool) -> Runner {
        self.strict_validate = strict;
        self
    }

    /// Restores abort-on-first-failure: a replication that fails after
    /// retries aborts the run with its typed error instead of degrading
    /// to a [`ReplicationOutcome::Failed`] cell. A generation failure and
    /// a cell error abort alike: no replication after the failing one
    /// starts, but earlier ones in flight may finish and checkpoint
    /// first, and the error of the earliest failing replication is
    /// returned.
    #[must_use]
    pub fn fail_fast(mut self, fail_fast: bool) -> Runner {
        self.fail_fast = fail_fast;
        self
    }

    /// Shares `tracker` as this run's progress state. The runner arms it
    /// ([`ProgressTracker::configure`]) once the shard's workload is known
    /// and feeds it as cells complete, so a caller-owned render thread
    /// (the sweep bin's `--progress` view) can poll the same tracker live.
    #[must_use]
    pub fn progress(mut self, tracker: Arc<ProgressTracker>) -> Runner {
        self.progress = tracker;
        self
    }

    /// Serializes progress + metrics snapshots to `path` (atomically, via
    /// temp file + rename): periodically during the run — at most every
    /// [`METRICS_WRITE_INTERVAL`](Runner::METRICS_WRITE_INTERVAL) — and
    /// unconditionally at exit, on the error path included.
    #[must_use]
    pub fn metrics_out(mut self, path: impl Into<PathBuf>) -> Runner {
        self.metrics = Some(Arc::new(MetricsWriter::new(
            path,
            Runner::METRICS_WRITE_INTERVAL,
        )));
        self
    }

    /// Injects faults from `plan` at the engine's named sites (only
    /// available with the `fault-inject` cargo feature).
    #[cfg(feature = "fault-inject")]
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Runner {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// A clone of this runner's cancellation token. Cancel it from any
    /// thread to stop the run at the next cell boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs the full sweep and aggregates every system size.
    ///
    /// # Errors
    ///
    /// [`RunError::ShardedRun`] if a multi-shard [`ShardSpec`] is
    /// configured (use [`Runner::run_partial`] + [`PartialResult::merge`]);
    /// otherwise any engine error (validation, generation, scheduling,
    /// checkpoint, cancellation, I/O).
    pub fn run(self) -> Result<ScenarioResult, RunError> {
        self.shard.validate()?;
        if !self.shard.is_full() {
            return Err(RunError::ShardedRun {
                count: self.shard.count,
            });
        }
        let label = self.scenario.label.clone();
        let system_sizes = self.scenario.system_sizes.clone();
        let replications = self.scenario.replications;
        let events = self.events.clone();
        let partial = self.run_partial()?;
        let mut cells: BTreeMap<(usize, usize), ReplicationOutcome> = BTreeMap::new();
        for f in partial.failed {
            cells.insert(
                (f.system_size, f.replication),
                ReplicationOutcome::Failed(f),
            );
        }
        for r in partial.records {
            cells.insert((r.system_size, r.replication), ReplicationOutcome::Ok(r));
        }
        fold_records(label, &system_sizes, replications, &cells, Some(&events))
    }

    /// Runs this runner's shard of the sweep and returns its records.
    ///
    /// Honours the checkpoint (completed cells are loaded, not recomputed)
    /// and the cancellation token (checked before every cell). The
    /// returned [`PartialResult`] contains every known record for the
    /// shard — freshly computed and resumed alike — sorted by
    /// `(system size, replication)`.
    ///
    /// # Errors
    ///
    /// Any engine error; see [`RunError`].
    pub fn run_partial(self) -> Result<PartialResult, RunError> {
        let label = self.scenario.label.clone();
        let events = self.events.clone();
        let progress = Arc::clone(&self.progress);
        let metrics = self.metrics.clone();
        let miss_log = Arc::new(MissLog::new(Runner::MISS_WARN_LIMIT));
        let result = self.run_partial_inner(&miss_log);

        // Exit accounting runs on success *and* on the degraded/error
        // paths: the miss summary, the terminal progress state, the final
        // metrics.json snapshot, and a last event flush.
        if miss_log.suppressed() > 0 {
            tracing::warn!(
                scenario = %label,
                emitted = miss_log.emitted(),
                suppressed = miss_log.suppressed(),
                "deadline-miss warnings were rate-limited; see the summary event"
            );
        }
        if miss_log.total() > 0 {
            events.emit(|| RunEvent::DeadlineMissSummary {
                scenario: label.clone(),
                emitted: miss_log.emitted(),
                suppressed: miss_log.suppressed(),
            });
        }
        match &result {
            Ok(_) => progress.finish("complete"),
            Err(e) => progress.finish(&e.to_string()),
        }
        if let Some(m) = &metrics {
            m.write_now(&progress, telemetry::global().snapshot());
        }
        events.flush();
        result
    }

    /// The body of [`Runner::run_partial`]; the wrapper owns the exit
    /// accounting so early returns here cannot skip it.
    fn run_partial_inner(self, miss_log: &Arc<MissLog>) -> Result<PartialResult, RunError> {
        let Runner {
            scenario,
            threads,
            shard,
            checkpoint,
            events,
            cancel,
            strict_validate,
            fail_fast,
            progress,
            metrics,
            faults,
            ..
        } = self;
        let faults = faults.as_deref();
        scenario.validate()?;
        shard.validate()?;
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        }
        .min(scenario.replications.max(1));

        let _span = tracing::info_span!(
            "scenario",
            label = %scenario.label,
            replications = scenario.replications,
            threads = threads,
            shard_index = shard.index,
            shard_count = shard.count
        )
        .entered();

        let fp = fingerprint(&scenario);
        let stream = workload_stream(&scenario.workload);

        let mut cells: BTreeMap<(usize, usize), ReplicationOutcome> = BTreeMap::new();
        let writer = match &checkpoint {
            Some(path) => Some(open_checkpoint(path, &scenario, fp, &mut cells, &events)?),
            None => None,
        };

        let owned: Vec<usize> = (0..scenario.replications)
            .filter(|&r| shard.owns(r))
            .collect();

        // Arm the progress tracker now that the shard's workload is known:
        // one cell per owned replication per distinct system size, minus
        // whatever the checkpoint already resumed.
        let unique_sizes: BTreeSet<usize> = scenario.system_sizes.iter().copied().collect();
        let resumed_cells = cells
            .keys()
            .filter(|(size, rep)| unique_sizes.contains(size) && shard.owns(*rep))
            .count() as u64;
        progress.configure(
            &scenario.label,
            shard.index,
            shard.count,
            (owned.len() * unique_sizes.len()) as u64,
            resumed_cells,
        );

        // One unit of work per replication some size still misses.
        let needed: Vec<usize> = owned
            .iter()
            .copied()
            .filter(|&rep| {
                unique_sizes
                    .iter()
                    .any(|&size| !cells.contains_key(&(size, rep)))
            })
            .collect();

        // Each size's platform is built once, for the sizes some unit
        // still misses.
        let mut platforms: Vec<(usize, Platform)> = Vec::with_capacity(unique_sizes.len());
        for &size in &unique_sizes {
            if needed.iter().any(|&rep| !cells.contains_key(&(size, rep))) {
                let topology = scenario.topology.build(size, scenario.cost_per_item);
                platforms.push((size, Platform::homogeneous(size, topology)?));
            }
        }

        // One pool for the whole scenario. A worker owns one pipeline (and
        // thus one scheduling workspace), so steady-state cells run
        // allocation-free, and claims whole replications: it generates the
        // unit's graph, which then stays hot while it runs at every size
        // the unit misses. All workers share the run's deadline-miss
        // budget. Under the degrade-don't-die policy a generation failure
        // becomes a typed failed cell at every missing size. `fail_fast`
        // (and any deterministic spec error, where retrying cannot help)
        // aborts instead, by the rule a cell error follows: earlier
        // replications may finish and checkpoint first.
        let computed = claim_each(
            &needed,
            threads,
            &cancel,
            || {
                let mut pipeline = Pipeline::new(&scenario);
                pipeline.set_miss_log(Some(Arc::clone(miss_log)));
                pipeline
            },
            |pipeline, &rep| {
                let _span = tracing::debug_span!("replication", index = rep).entered();
                let started = Instant::now();
                let graph = match workload(&scenario, stream, rep, faults, &events) {
                    Ok(graph) => Ok(graph),
                    Err(e @ RunError::GenerateRejected { .. }) if !fail_fast => Err(e.to_string()),
                    Err(e) => return Err(e),
                };
                // Telemetry counts the graph now; its event is emitted
                // from the ordered results, so `GraphGenerated` events
                // stay ordered by replication index.
                let generated = graph.as_ref().ok().map(|graph| {
                    let elapsed = started.elapsed();
                    let registry = telemetry::global();
                    registry.record_stage(Stage::Generate, elapsed);
                    registry.graphs_generated.inc();
                    RunEvent::GraphGenerated {
                        replication: rep,
                        subtasks: graph.subtask_count(),
                        messages: graph.edge_count(),
                        generate_us: elapsed.as_micros() as u64,
                    }
                });
                let mut out = Vec::with_capacity(platforms.len());
                let mut last = None;
                for (size, platform) in &platforms {
                    let size = *size;
                    if cells.contains_key(&(size, rep)) {
                        continue;
                    }
                    if cancel.is_cancelled() {
                        break;
                    }
                    let failed = |stage: &str, error: String| {
                        ReplicationOutcome::Failed(FailedReplication {
                            system_size: size,
                            replication: rep,
                            stage: stage.to_owned(),
                            error,
                        })
                    };
                    let outcome = match &graph {
                        Err(error) => failed("generate", error.clone()),
                        Ok(graph) => {
                            let inject_panic =
                                inject_fault(faults, FaultSite::WorkerPanic, size, rep, 0, &events);
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                if inject_panic {
                                    panic!("injected worker panic (fault plan)");
                                }
                                run_once(
                                    &scenario, graph, platform, rep, &events, pipeline, &mut last,
                                )
                            }));
                            match result {
                                Ok(Ok(record)) => ReplicationOutcome::Ok(record),
                                Ok(Err(e)) if fail_fast => return Err(e),
                                Ok(Err(e)) => {
                                    let stage = match &e {
                                        RunError::Slice(_) => "distribute",
                                        _ => "schedule",
                                    };
                                    failed(stage, e.to_string())
                                }
                                Err(_) if fail_fast => {
                                    return Err(RunError::WorkerPanic("schedule"))
                                }
                                Err(panic) => failed("panic", panic_message(panic.as_ref())),
                            }
                        }
                    };
                    if let ReplicationOutcome::Failed(f) = &outcome {
                        tracing::warn!(
                            system_size = size,
                            replication = rep,
                            stage = %f.stage,
                            "degrading replication: {}",
                            f.error
                        );
                        telemetry::global().replications_failed.inc();
                        events.emit(|| RunEvent::ReplicationFailed {
                            scenario: scenario.label.clone(),
                            system_size: size,
                            replication: rep,
                            stage: f.stage.clone(),
                            error: f.error.clone(),
                        });
                        // Flush straight after a degraded cell so
                        // events.jsonl records it even if the process is
                        // killed before the end-of-run flush.
                        events.flush();
                    }
                    if let Some(log) = &writer {
                        checkpoint_outcome(log, &outcome, faults, &events)?;
                    }
                    match &outcome {
                        ReplicationOutcome::Ok(r) => {
                            progress.record_cell(true, r.violations as u64);
                        }
                        ReplicationOutcome::Failed(_) => progress.record_cell(false, 0),
                    }
                    if let Some(m) = &metrics {
                        m.maybe_write(&progress, || telemetry::global().snapshot());
                    }
                    out.push(outcome);
                    if inject_fault(faults, FaultSite::CancelRace, size, rep, 0, &events) {
                        cancel.cancel();
                    }
                }
                Ok((generated, out))
            },
        )?;
        for (generated, outcomes) in computed {
            if let Some(event) = generated {
                events.emit(|| event);
            }
            for outcome in outcomes {
                cells.insert(outcome.cell(), outcome);
            }
        }
        if cancel.is_cancelled() {
            events.flush();
            return Err(RunError::Cancelled);
        }

        if strict_validate {
            strict_checks(&cells)?;
        }

        events.flush();
        let mut records = Vec::new();
        let mut failed = Vec::new();
        for outcome in cells.into_values() {
            match outcome {
                ReplicationOutcome::Ok(r) => records.push(r),
                ReplicationOutcome::Failed(f) => failed.push(f),
            }
        }
        Ok(PartialResult {
            label: scenario.label.clone(),
            fingerprint: fp,
            replications: scenario.replications,
            system_sizes: scenario.system_sizes.clone(),
            shard,
            records,
            failed,
        })
    }
}

/// Renders a panic payload for the degraded-cell record.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// The strict-audit gate: rejects any structural violation, then any
/// degraded cell, with typed errors.
fn strict_checks(cells: &BTreeMap<(usize, usize), ReplicationOutcome>) -> Result<(), RunError> {
    let mut violations = 0usize;
    let mut violating_cells = 0usize;
    let mut failed = 0usize;
    for outcome in cells.values() {
        match outcome {
            ReplicationOutcome::Ok(r) if r.violations > 0 => {
                violations += r.violations;
                violating_cells += 1;
            }
            ReplicationOutcome::Ok(_) => {}
            ReplicationOutcome::Failed(_) => failed += 1,
        }
    }
    if violations > 0 {
        return Err(RunError::AuditFailed {
            violations,
            cells: violating_cells,
        });
    }
    if failed > 0 {
        return Err(RunError::DegradedRun { failed });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use slicing::{CommEstimate, MetricKind};
    use taskgraph::gen::{ExecVariation, WorkloadSpec};

    use crate::ScenarioError;

    use super::*;

    fn tiny_scenario(metric: MetricKind) -> Scenario {
        Scenario::paper(
            "test",
            WorkloadSpec::paper(ExecVariation::Mdet),
            metric,
            CommEstimate::Ccne,
        )
        .with_replications(4)
        .with_system_sizes(vec![2, 8])
    }

    /// Every cell of `scenario` at `sizes`, sliced and trialed on its own
    /// through `Pipeline::slice(..).trial(..)`: an oracle that shares
    /// nothing across sizes.
    fn per_cell_records(scenario: &Scenario, sizes: &[usize]) -> Vec<ReplicationRecord> {
        let stream = workload_stream(&scenario.workload);
        let mut pipeline = Pipeline::new(scenario);
        let mut records = Vec::new();
        for &size in sizes {
            let topology = scenario.topology.build(size, scenario.cost_per_item);
            let platform = Platform::homogeneous(size, topology).unwrap();
            for rep in 0..scenario.replications {
                let graph = workload(scenario, stream, rep, None, &EventScope::default()).unwrap();
                let verdict = pipeline.slice(&graph, &platform).unwrap().trial(&platform);
                let verdict = verdict.unwrap();
                records.push(ReplicationRecord {
                    system_size: size,
                    replication: rep,
                    max_lateness: verdict.max_lateness.as_f64(),
                    end_to_end: verdict.end_to_end.as_f64(),
                    makespan: verdict.makespan.as_f64(),
                    feasible: verdict.admit,
                    violations: verdict.violations(),
                    window_violations: Some(verdict.window_violations),
                    schedule_violations: Some(verdict.schedule_violations),
                });
            }
        }
        records
    }

    #[test]
    fn shared_slices_match_per_cell_slicing() {
        // PURE shares every size after a replication's first; ADAPT's
        // surplus reads N_proc, so it slices every size.
        for metric in [MetricKind::pure(), MetricKind::adapt()] {
            let scenario = tiny_scenario(metric)
                .with_replications(6)
                .with_system_sizes(vec![1, 2, 4, 8, 16]);
            let partial = Runner::new(scenario.clone())
                .threads(2)
                .run_partial()
                .unwrap();
            assert!(partial.failed.is_empty());
            assert_eq!(
                partial.records,
                per_cell_records(&scenario, &[1, 2, 4, 8, 16]),
                "{}",
                metric.label()
            );
        }
    }

    #[test]
    fn resume_into_more_sizes_matches_per_cell_slicing() {
        // The resumed units start at a size they never sliced: their
        // first missing size slices, the later ones share it.
        let checkpoint = std::env::temp_dir().join(format!(
            "feast-runner-shared-resume-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&checkpoint).ok();
        let scenario = tiny_scenario(MetricKind::pure());
        let run = |sizes: Vec<usize>| {
            Runner::new(scenario.clone().with_system_sizes(sizes))
                .threads(2)
                .checkpoint(&checkpoint)
                .run_partial()
                .unwrap()
        };
        run(vec![2, 8]);
        let resumed = run(vec![2, 4, 8, 16]);
        std::fs::remove_file(&checkpoint).ok();
        assert_eq!(resumed.records, per_cell_records(&scenario, &[2, 4, 8, 16]));
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let scenario = tiny_scenario(MetricKind::pure());
        let seq = Runner::new(scenario.clone()).threads(1).run().unwrap();
        let par = Runner::new(scenario).threads(4).run().unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn pipeline_produces_no_structural_violations() {
        for metric in [
            MetricKind::norm(),
            MetricKind::pure(),
            MetricKind::thres(1.0),
            MetricKind::adapt(),
        ] {
            let result = Runner::new(tiny_scenario(metric)).threads(1).run().unwrap();
            for p in &result.points {
                assert_eq!(p.violations, 0, "{} at n={}", result.label, p.system_size);
            }
        }
    }

    #[test]
    fn more_processors_do_not_hurt_lateness() {
        let result = Runner::new(tiny_scenario(MetricKind::pure()))
            .threads(1)
            .run()
            .unwrap();
        let series = result.lateness_series();
        assert_eq!(series.len(), 2);
        assert!(
            series[1].1 <= series[0].1 + 1e-9,
            "lateness should improve (or stay) from 2 to 8 processors: {series:?}"
        );
    }

    #[test]
    fn rejects_degenerate_scenarios_with_typed_errors() {
        let s = tiny_scenario(MetricKind::pure()).with_replications(0);
        assert!(matches!(
            Runner::new(s).run(),
            Err(RunError::Scenario(ScenarioError::NoReplications))
        ));
        let s = tiny_scenario(MetricKind::pure()).with_system_sizes(vec![]);
        assert!(matches!(
            Runner::new(s).run(),
            Err(RunError::Scenario(ScenarioError::NoSystemSizes))
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let scenario = tiny_scenario(MetricKind::adapt());
        let a = Runner::new(scenario.clone()).threads(1).run().unwrap();
        let b = Runner::new(scenario).threads(1).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_spec_partitions_and_validates() {
        let shards: Vec<ShardSpec> = (0..3).map(|i| ShardSpec::new(i, 3)).collect();
        for rep in 0..20 {
            let owners = shards.iter().filter(|s| s.owns(rep)).count();
            assert_eq!(owners, 1, "replication {rep} must have exactly one owner");
        }
        assert!(ShardSpec::new(0, 1).validate().is_ok());
        assert!(ShardSpec::FULL.is_full());
        assert!(matches!(
            ShardSpec::new(2, 2).validate(),
            Err(RunError::InvalidShard { index: 2, count: 2 })
        ));
        assert!(matches!(
            ShardSpec::new(0, 0).validate(),
            Err(RunError::InvalidShard { .. })
        ));
    }

    #[test]
    fn run_on_sharded_runner_is_a_typed_error() {
        let runner = Runner::new(tiny_scenario(MetricKind::pure())).shard(ShardSpec::new(0, 2));
        assert!(matches!(
            runner.run(),
            Err(RunError::ShardedRun { count: 2 })
        ));
    }

    #[test]
    fn cancel_token_stops_the_run() {
        let runner = Runner::new(tiny_scenario(MetricKind::pure())).threads(1);
        let token = runner.cancel_token();
        token.cancel();
        assert!(matches!(runner.run(), Err(RunError::Cancelled)));
    }

    #[test]
    fn fingerprint_ignores_label_and_sweep_shape() {
        let a = tiny_scenario(MetricKind::pure());
        let mut b = a.clone().with_replications(99).with_system_sizes(vec![4]);
        b.label = "renamed".to_owned();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = a.clone().with_base_seed(1);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        let d = tiny_scenario(MetricKind::adapt());
        assert_ne!(fingerprint(&a), fingerprint(&d));
    }

    #[test]
    fn fingerprint_strips_the_disabled_strict_windows_option() {
        // The canonical form with the option off must match what pre-option
        // releases fingerprinted, so their checkpoints stay loadable.
        let a = tiny_scenario(MetricKind::pure());
        let mut legacy = a.clone();
        legacy.label = String::new();
        legacy.replications = 0;
        legacy.system_sizes = Vec::new();
        let mut value = serde_json::to_value(&legacy).unwrap();
        if let serde::Value::Object(entries) = &mut value {
            entries.retain(|(key, _)| key != "strict_windows");
        }
        let legacy_json = serde_json::to_string(&value).unwrap();
        assert!(!legacy_json.contains("strict_windows"));
        assert_eq!(fingerprint(&a), stream_label(legacy_json.as_bytes()));
        // Turning the clamp on is a measurement change: new fingerprint.
        let strict = a.clone().with_strict_windows(true);
        assert_ne!(fingerprint(&a), fingerprint(&strict));
    }

    #[test]
    fn workload_stream_is_technique_independent() {
        let pure = tiny_scenario(MetricKind::pure());
        let adapt = tiny_scenario(MetricKind::adapt());
        assert_eq!(
            workload_stream(&pure.workload),
            workload_stream(&adapt.workload)
        );
        let other = pure.with_workload(WorkloadSource::Random(WorkloadSpec::paper(
            ExecVariation::Hdet,
        )));
        assert_ne!(
            workload_stream(&tiny_scenario(MetricKind::pure()).workload),
            workload_stream(&other.workload)
        );
    }

    fn record(size: usize, rep: usize, lateness: f64, violations: usize) -> ReplicationRecord {
        ReplicationRecord {
            system_size: size,
            replication: rep,
            max_lateness: lateness,
            end_to_end: lateness,
            makespan: lateness.abs(),
            feasible: violations == 0,
            violations,
            window_violations: Some(violations),
            schedule_violations: Some(0),
        }
    }

    fn failure(size: usize, rep: usize) -> FailedReplication {
        FailedReplication {
            system_size: size,
            replication: rep,
            stage: "schedule".to_owned(),
            error: "synthetic failure".to_owned(),
        }
    }

    #[test]
    fn degraded_cells_fold_with_explicit_counts() {
        let mut cells = BTreeMap::new();
        cells.insert((2, 0), ReplicationOutcome::Ok(record(2, 0, -1.0, 0)));
        cells.insert((2, 1), ReplicationOutcome::Failed(failure(2, 1)));
        cells.insert((2, 2), ReplicationOutcome::Ok(record(2, 2, -3.0, 0)));
        let result = fold_records("t".to_owned(), &[2], 3, &cells, None).unwrap();
        let p = &result.points[0];
        assert_eq!(p.failed, 1);
        assert_eq!(p.max_lateness.count, 2);
        assert_eq!(p.max_lateness.mean, -2.0);
        assert_eq!(p.feasible_fraction, 1.0);
        assert_eq!(p.window_violations, Some(0));
        assert_eq!(p.schedule_violations, Some(0));
    }

    #[test]
    fn all_failed_point_keeps_finite_empty_statistics() {
        let mut cells = BTreeMap::new();
        cells.insert((4, 0), ReplicationOutcome::Failed(failure(4, 0)));
        cells.insert((4, 1), ReplicationOutcome::Failed(failure(4, 1)));
        let result = fold_records("t".to_owned(), &[4], 2, &cells, None).unwrap();
        let p = &result.points[0];
        assert_eq!(p.failed, 2);
        assert_eq!(p.max_lateness.count, 0);
        assert_eq!(p.feasible_fraction, 0.0);
        // The point must stay serializable (no NaN/infinity anywhere).
        let json = serde_json::to_string(&result).unwrap();
        let back: ScenarioResult = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, &result);
    }

    #[test]
    fn legacy_records_without_audit_split_degrade_the_point_split() {
        let mut with_split = record(2, 0, -1.0, 1);
        let mut legacy = record(2, 1, -2.0, 2);
        legacy.window_violations = None;
        legacy.schedule_violations = None;
        with_split.violations = 1;
        let mut cells = BTreeMap::new();
        cells.insert((2, 0), ReplicationOutcome::Ok(with_split));
        cells.insert((2, 1), ReplicationOutcome::Ok(legacy));
        let result = fold_records("t".to_owned(), &[2], 2, &cells, None).unwrap();
        let p = &result.points[0];
        assert_eq!(p.violations, 3, "the total audit count never degrades");
        assert_eq!(p.window_violations, None);
        assert_eq!(p.schedule_violations, None);
    }

    #[test]
    fn strict_checks_reject_violations_then_degraded_cells() {
        let mut clean = BTreeMap::new();
        clean.insert((2, 0), ReplicationOutcome::Ok(record(2, 0, -1.0, 0)));
        assert!(strict_checks(&clean).is_ok());

        let mut violating = clean.clone();
        violating.insert((2, 1), ReplicationOutcome::Ok(record(2, 1, 0.5, 2)));
        assert!(matches!(
            strict_checks(&violating),
            Err(RunError::AuditFailed {
                violations: 2,
                cells: 1
            })
        ));

        let mut degraded = clean.clone();
        degraded.insert((2, 1), ReplicationOutcome::Failed(failure(2, 1)));
        assert!(matches!(
            strict_checks(&degraded),
            Err(RunError::DegradedRun { failed: 1 })
        ));
    }

    #[test]
    fn strict_validate_passes_on_a_clean_scenario() {
        let result = Runner::new(tiny_scenario(MetricKind::pure()))
            .threads(1)
            .strict_validate(true)
            .run()
            .unwrap();
        assert!(result.points.iter().all(|p| p.failed == 0));
    }

    #[test]
    fn panic_messages_render_for_common_payloads() {
        let p = catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "plain str");
        let p = catch_unwind(|| panic!("{}", String::from("formatted"))).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "opaque panic payload");
    }
}
