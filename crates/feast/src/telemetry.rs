//! Run-wide pipeline metrics and the machine-readable run-event stream.
//!
//! Two complementary mechanisms:
//!
//! * a process-global [`Registry`] of lock-free counters and log-scale
//!   duration histograms, fed by the runner for every pipeline stage
//!   (generate → distribute → schedule) and summarized by
//!   [`Registry::snapshot`];
//! * an optional [`EventSink`] writing one JSON object per line
//!   (`events.jsonl`): install it with [`install`] and every replication
//!   the runner executes is recorded as a [`RunEvent`] with its per-stage
//!   timings and feasibility outcome.
//!
//! Both are no-ops by default: with no sink installed [`emit_with`] never
//! even constructs the event, and the registry is a handful of relaxed
//! atomic increments per replication.
//!
//! # Adding a metric
//!
//! Every metric is one entry in the `metrics!` table in this file: a doc
//! comment, `#[serde(default)]` (so snapshots written before the metric
//! existed still parse) and the name, under `counters`, `histograms` or
//! `stages` (a stage also names its [`Stage`] variant). The table
//! generates the [`Registry`] field, the [`MetricsSnapshot`] field and its
//! `snapshot`, `reset` and `delta` lines; feed it at the call site with
//! `global().name.inc()`, `.add(n)` or `.record(elapsed)`. The new metric
//! is a new `metrics.json` key at its table position, so extend the golden
//! and the exhaustive field walk in `tests/observatory.rs` in the same
//! change.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::ReplicationRecord;

/// Number of power-of-two histogram buckets; bucket `i` counts durations
/// with `floor(log2(µs)) == i - 1` (bucket 0 is `< 1 µs`), so the top
/// bucket covers everything from ~35 minutes up.
const BUCKETS: usize = 32;

/// A lock-free histogram of wall-clock durations with power-of-two
/// microsecond buckets.
#[derive(Debug)]
pub struct DurationHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl DurationHistogram {
    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn total(&self) -> Duration {
        Duration::from_micros(self.total_us.load(Ordering::Relaxed))
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> Duration {
        let total = self.total_us.load(Ordering::Relaxed);
        total
            .checked_div(self.count())
            .map_or(Duration::ZERO, Duration::from_micros)
    }

    /// The `p`-th percentile observation (`0.0 < p <= 1.0`), estimated from
    /// the log2 buckets by nearest rank; exact to within one power-of-two
    /// bucket of the true order statistic (zero when empty).
    pub fn percentile(&self, p: f64) -> Duration {
        let snap = self.snapshot();
        Duration::from_micros(percentile_from_buckets(
            snap.count,
            snap.max_us,
            &snap.buckets,
            p,
        ))
    }

    /// An immutable copy of the histogram's state.
    pub fn snapshot(&self) -> StageSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then(|| (upper_bound_us(i), count))
            })
            .collect();
        StageSnapshot::from_parts(
            self.count(),
            self.total_us.load(Ordering::Relaxed),
            self.max_us.load(Ordering::Relaxed),
            buckets,
        )
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.total_us.store(0, Ordering::Relaxed);
        self.max_us.store(0, Ordering::Relaxed);
    }
}

/// Exclusive upper bound (µs) of histogram bucket `i`.
fn upper_bound_us(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Nearest-rank percentile over sparse `(exclusive upper bound µs, count)`
/// buckets: walks the cumulative counts to the bucket holding rank
/// `ceil(p · count)` and reports that bucket's largest representable value,
/// clamped to the recorded maximum so the estimate always lies inside the
/// selected bucket. Exact to within one log2 bucket of the true order
/// statistic; zero when empty.
fn percentile_from_buckets(count: u64, max_us: u64, buckets: &[(u64, u64)], p: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for &(upper, n) in buckets {
        seen += n;
        if seen >= rank {
            return max_us.min(upper.saturating_sub(1));
        }
    }
    max_us
}

/// Exact nearest-rank percentile of a **sorted** slice: the reference the
/// histogram estimate is property-tested against. Returns the element at
/// rank `ceil(p · len)` (1-based); zero when empty.
pub fn percentile_reference(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Merges two sorted sparse bucket lists by summing counts per bound.
fn merge_buckets(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(ub, n)), None) => {
                out.push((ub, n));
                i += 1;
            }
            (None, Some(&(ub, n))) => {
                out.push((ub, n));
                j += 1;
            }
            (Some(&(ua, na)), Some(&(ub, nb))) => {
                if ua == ub {
                    out.push((ua, na + nb));
                    i += 1;
                    j += 1;
                } else if ua < ub {
                    out.push((ua, na));
                    i += 1;
                } else {
                    out.push((ub, nb));
                    j += 1;
                }
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    out
}

/// A lock-free event counter. Relaxed ordering throughout: counters are
/// statistics, never synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Counts one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Counts `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Events counted so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Expands the metric table below into [`Stage`], [`Registry`] and
/// [`MetricsSnapshot`], plus every per-metric method: `Stage::ALL`,
/// `Stage::label`, the two `stage` lookups, [`Registry::snapshot`],
/// [`Registry::reset`] and [`MetricsSnapshot::delta`]. Registry and
/// snapshot fields appear in table order, which is the `metrics.json` key
/// order.
macro_rules! metrics {
    (
        counters {
            $( $(#[doc = $cdoc:literal])* $(#[serde($cserde:ident)])? $counter:ident, )*
        }
        histograms {
            $( $(#[doc = $hdoc:literal])* $(#[serde($hserde:ident)])? $hist:ident, )*
        }
        stages {
            $( $(#[doc = $sdoc:literal])* $(#[serde($sserde:ident)])? $variant:ident => $stage:ident, )*
        }
    ) => {
        /// The pipeline stages measured by the [`Registry`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stage {
            $( $(#[doc = $sdoc])* $variant, )*
        }

        impl Stage {
            /// All stages, in pipeline order.
            pub const ALL: [Stage; [$(Stage::$variant),*].len()] = [$(Stage::$variant),*];

            /// The stage's snake_case label, as used in event fields.
            pub fn label(self) -> &'static str {
                match self {
                    $( Stage::$variant => stringify!($stage), )*
                }
            }
        }

        /// Aggregated pipeline metrics: counters, the admission
        /// histograms and one duration histogram per [`Stage`].
        #[derive(Debug, Default)]
        pub struct Registry {
            $( $(#[doc = $cdoc])* pub $counter: Counter, )*
            $( $(#[doc = $hdoc])* pub $hist: DurationHistogram, )*
            $( $(#[doc = $sdoc])* pub $stage: DurationHistogram, )*
        }

        impl Registry {
            /// The stage's histogram.
            pub fn stage(&self, stage: Stage) -> &DurationHistogram {
                match stage {
                    $( Stage::$variant => &self.$stage, )*
                }
            }

            /// An immutable, serializable copy of every counter and
            /// histogram.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $counter: self.$counter.get(), )*
                    $( $hist: self.$hist.snapshot(), )*
                    $( $stage: self.$stage.snapshot(), )*
                }
            }

            /// Zeroes every counter and histogram (for tests and repeated
            /// runs).
            pub fn reset(&self) {
                $( self.$counter.reset(); )*
                $( self.$hist.reset(); )*
                $( self.$stage.reset(); )*
            }
        }

        /// Serializable copy of the whole [`Registry`].
        #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $( $(#[doc = $cdoc])* $(#[serde($cserde)])? pub $counter: u64, )*
            $( $(#[doc = $hdoc])* $(#[serde($hserde)])? pub $hist: StageSnapshot, )*
            $( $(#[doc = $sdoc])* $(#[serde($sserde)])? pub $stage: StageSnapshot, )*
        }

        impl MetricsSnapshot {
            /// The named stage's snapshot.
            pub fn stage(&self, stage: Stage) -> &StageSnapshot {
                match stage {
                    $( Stage::$variant => &self.$stage, )*
                }
            }

            /// Everything recorded between `earlier` and `self` (two
            /// snapshots of the *same* registry): counters subtract and
            /// each histogram is windowed via [`StageSnapshot::delta`].
            /// Used to attribute the process-global registry to one
            /// experiment.
            #[must_use]
            pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $counter: self.$counter.saturating_sub(earlier.$counter), )*
                    $( $hist: self.$hist.delta(&earlier.$hist), )*
                    $( $stage: self.$stage.delta(&earlier.$stage), )*
                }
            }
        }
    };
}

// The metric table. `#[serde(default)]` marks a metric added after
// snapshots were first written: its key reads as zero (or an empty
// histogram) when an older snapshot lacks it.
metrics! {
    counters {
        /// Task graphs generated.
        graphs_generated,
        /// Schedules built.
        schedules_built,
        /// Schedules that missed at least one assigned deadline.
        feasibility_failures,
        /// Structural violations across all replications (deadline-window
        /// plus schedule violations).
        structural_violations,
        /// Deadline-window violations found by the assignment audit.
        window_violations,
        /// Schedule violations found by
        /// [`Schedule::validate`](sched::Schedule::validate).
        schedule_violations,
        /// Replications degraded to failed outcomes (excluded from
        /// statistics instead of aborting the sweep).
        replications_failed,
        /// Checkpoint appends retried after a transient I/O failure.
        checkpoint_retries,
        /// Sweep cells that reused the slice product of an earlier system
        /// size of their replication, whose slicing inputs were equal: no
        /// distribution ran, so they add no `distribute` sample.
        #[serde(default)]
        slices_shared,
        /// Admission requests answered with an admit verdict.
        #[serde(default)]
        admissions_admitted,
        /// Admission requests answered with a reject verdict.
        #[serde(default)]
        admissions_rejected,
        /// Admission requests shed for out-waiting their decision budget.
        #[serde(default)]
        admissions_shed,
        /// Admission requests degraded to `WorkerFailed` verdicts by a
        /// slicer-worker panic.
        #[serde(default)]
        admissions_worker_failed,
        /// Residents evicted by the capacity bound's eviction policy
        /// (retirement at the horizon is not an eviction).
        #[serde(default)]
        admissions_evicted,
        /// Admissions refused by the feasibility pre-filter before any
        /// slicing work.
        #[serde(default)]
        admissions_prefiltered,
        /// Slicing runs answered from the cross-request slice cache.
        #[serde(default)]
        slice_cache_hits,
        /// Slicing runs that missed the cross-request slice cache and ran
        /// the DP live.
        #[serde(default)]
        slice_cache_misses,
        /// Entries evicted from the cross-request slice cache by its LRU
        /// bound.
        #[serde(default)]
        slice_cache_evictions,
        /// Admission-WAL appends retried after a transient I/O failure.
        #[serde(default)]
        admission_log_retries,
        /// Admission-WAL appends that failed past every retry (the verdict
        /// was still returned; durability for that record is lost).
        #[serde(default)]
        admission_log_failures,
    }
    histograms {
        /// Admission-decision service time on the coordinator: for an
        /// admit, the trial-schedule plus commit/discard critical section
        /// (slicing ran before it); for an amendment, also applying the
        /// delta and re-slicing the resident.
        #[serde(default)]
        admission,
        /// Submission-to-decision sojourn of non-shed requests, including
        /// queue wait and slicing.
        #[serde(default)]
        admission_sojourn,
    }
    stages {
        /// Random task-graph generation.
        Generate => generate,
        /// Deadline distribution (slicing or a baseline).
        Distribute => distribute,
        /// List scheduling.
        Schedule => schedule,
        /// The always-on audit (assignment checker plus schedule
        /// validation), timed separately from the stages it checks.
        Audit => audit,
    }
}

impl Registry {
    /// Records a stage's wall-clock time.
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.stage(stage).record(elapsed);
    }

    /// Counts one completed schedule, its feasibility outcome and any
    /// structural violations found by validation.
    pub fn count_schedule(&self, feasible: bool, violations: usize) {
        self.schedules_built.inc();
        if !feasible {
            self.feasibility_failures.inc();
        }
        self.structural_violations.add(violations as u64);
    }

    /// Counts one replication's audit outcome, split into deadline-window
    /// violations (the assignment checker) and schedule violations
    /// ([`Schedule::validate`]). The split sums to the total recorded by
    /// [`Registry::count_schedule`].
    ///
    /// [`Schedule::validate`]: sched::Schedule::validate
    pub fn count_audit(&self, window: usize, schedule: usize) {
        self.window_violations.add(window as u64);
        self.schedule_violations.add(schedule as u64);
    }

    /// Records one admission decision and the service time spent deciding
    /// it: the trial-schedule + commit/discard critical section, plus, for
    /// an amendment, applying the delta and re-slicing the resident.
    pub fn record_admission(&self, admitted: bool, elapsed: Duration) {
        if admitted {
            self.admissions_admitted.inc();
        } else {
            self.admissions_rejected.inc();
        }
        self.admission.record(elapsed);
    }
}

/// The process-global registry the runner feeds.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Serializable copy of one stage's histogram. The default value is an
/// empty histogram (it also backs deserialization of snapshots written
/// before a stage existed).
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, µs.
    pub total_us: u64,
    /// Mean observation, µs.
    pub mean_us: u64,
    /// Median observation, µs (nearest rank, within one log2 bucket).
    pub p50_us: u64,
    /// 90th-percentile observation, µs (within one log2 bucket).
    pub p90_us: u64,
    /// 99th-percentile observation, µs (within one log2 bucket).
    pub p99_us: u64,
    /// Largest observation, µs.
    pub max_us: u64,
    /// Non-empty `(exclusive upper bound µs, count)` power-of-two buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl StageSnapshot {
    /// Builds a snapshot from raw accumulator state, deriving the mean and
    /// the percentile estimates.
    fn from_parts(count: u64, total_us: u64, max_us: u64, buckets: Vec<(u64, u64)>) -> Self {
        StageSnapshot {
            count,
            total_us,
            mean_us: total_us.checked_div(count).unwrap_or(0),
            p50_us: percentile_from_buckets(count, max_us, &buckets, 0.50),
            p90_us: percentile_from_buckets(count, max_us, &buckets, 0.90),
            p99_us: percentile_from_buckets(count, max_us, &buckets, 0.99),
            max_us,
            buckets,
        }
    }

    /// The `p`-th percentile (`0.0 < p <= 1.0`) of this snapshot, within
    /// one log2 bucket of the true order statistic.
    pub fn percentile_us(&self, p: f64) -> u64 {
        percentile_from_buckets(self.count, self.max_us, &self.buckets, p)
    }

    /// Combines two snapshots as if every observation had been recorded
    /// into one histogram: counts, totals and buckets add, the max is the
    /// larger max, and the derived mean/percentiles are recomputed from the
    /// merged buckets. Shard merging relies on this being associative and
    /// commutative.
    #[must_use]
    pub fn merge(&self, other: &StageSnapshot) -> StageSnapshot {
        StageSnapshot::from_parts(
            self.count + other.count,
            self.total_us + other.total_us,
            self.max_us.max(other.max_us),
            merge_buckets(&self.buckets, &other.buckets),
        )
    }

    /// The observations recorded between `earlier` and `self` (two
    /// snapshots of the *same* histogram): counts, totals and buckets
    /// subtract and the derived statistics are recomputed. The max cannot
    /// be windowed from snapshots alone, so the later max is kept as an
    /// upper bound.
    #[must_use]
    pub fn delta(&self, earlier: &StageSnapshot) -> StageSnapshot {
        let mut buckets: Vec<(u64, u64)> = Vec::with_capacity(self.buckets.len());
        for &(upper, n) in &self.buckets {
            let before = earlier
                .buckets
                .iter()
                .find(|&&(u, _)| u == upper)
                .map_or(0, |&(_, c)| c);
            let remaining = n.saturating_sub(before);
            if remaining > 0 {
                buckets.push((upper, remaining));
            }
        }
        StageSnapshot::from_parts(
            self.count.saturating_sub(earlier.count),
            self.total_us.saturating_sub(earlier.total_us),
            self.max_us,
            buckets,
        )
    }
}

/// One record of the `events.jsonl` stream, serialized externally tagged:
/// `{"Replication": {...}}`.
// The once-per-run `RunEnd` variant inlines the full `MetricsSnapshot`;
// boxing it is not an option (the vendored serde has no `Box` impls) and
// events live only briefly on the emitting thread's stack.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunEvent {
    /// A run began (emitted once by the driving binary).
    RunStart {
        /// Free-form description of what is being run (experiment ids,
        /// CLI arguments, …).
        command: String,
        /// Replications per scenario point.
        replications: usize,
        /// System sizes swept.
        system_sizes: Vec<usize>,
    },
    /// A checkpoint was loaded and its completed replications will be
    /// skipped (emitted by a resuming [`Runner`]).
    ///
    /// [`Runner`]: crate::Runner
    CheckpointLoaded {
        /// Checkpoint file.
        path: String,
        /// Completed `(system size, replication)` cells found in it.
        records: usize,
    },
    /// A workload was generated.
    GraphGenerated {
        /// Replication index (also the seed offset).
        replication: usize,
        /// Subtasks in the graph.
        subtasks: usize,
        /// Messages (edges) in the graph.
        messages: usize,
        /// Generation wall-clock, µs.
        generate_us: u64,
    },
    /// One full pipeline replication (distribute + schedule + measure)
    /// finished.
    Replication {
        /// Scenario label.
        scenario: String,
        /// Processors.
        system_size: usize,
        /// Replication index.
        replication: usize,
        /// Deadline-distribution wall-clock, µs; `0` for a cell that
        /// shared the slice product of an earlier system size (counted in
        /// `slices_shared`).
        distribute_us: u64,
        /// List-scheduling wall-clock, µs.
        schedule_us: u64,
        /// Audit self-time (assignment checker + schedule validation), µs;
        /// `0` in event streams written before it was recorded.
        #[serde(default)]
        audit_us: u64,
        /// Did the schedule meet every assigned deadline?
        feasible: bool,
        /// Structural violations found by validation.
        violations: usize,
        /// Maximum task lateness of this replication.
        max_lateness: f64,
    },
    /// The always-on audit found structural violations in one
    /// replication's output (also counted in the `Replication` event's
    /// `violations`; this event carries the window/schedule split).
    AuditViolation {
        /// Scenario label.
        scenario: String,
        /// Processors.
        system_size: usize,
        /// Replication index.
        replication: usize,
        /// Deadline-window violations (assignment checker).
        window: usize,
        /// Schedule violations (`Schedule::validate`).
        schedule: usize,
    },
    /// A replication failed after retries and was degraded to a typed
    /// failed outcome (excluded from statistics) instead of aborting the
    /// sweep.
    ReplicationFailed {
        /// Scenario label.
        scenario: String,
        /// Processors.
        system_size: usize,
        /// Replication index.
        replication: usize,
        /// Pipeline stage that failed (`generate`, `distribute`,
        /// `schedule`, `panic`).
        stage: String,
        /// The failure, rendered.
        error: String,
    },
    /// Deadline-miss warnings were rate-limited: only the first K misses
    /// of the scenario were logged; the rest are accounted for here
    /// (emitted at most once per run, at the end).
    DeadlineMissSummary {
        /// Scenario label.
        scenario: String,
        /// Warnings actually emitted (at most the per-run limit).
        emitted: u64,
        /// Warnings suppressed beyond the limit.
        suppressed: u64,
    },
    /// A fault plan injected a fault (only emitted by `fault-inject`
    /// builds).
    FaultInjected {
        /// The fault site's kebab-case name.
        site: String,
        /// Processors (0 for size-independent sites).
        system_size: usize,
        /// Replication index.
        replication: usize,
        /// Which consecutive attempt at the cell was faulted.
        attempt: u64,
    },
    /// A scenario point (all replications at one system size) was
    /// aggregated.
    Point {
        /// Scenario label.
        scenario: String,
        /// Processors.
        system_size: usize,
        /// Mean maximum task lateness over the replications.
        mean_max_lateness: f64,
        /// Fraction of feasible replications.
        feasible_fraction: f64,
        /// Structural violations summed over the replications.
        violations: usize,
        /// Replications that degraded to failed outcomes and were
        /// excluded from the point's statistics.
        failed: usize,
    },
    /// The run finished (emitted once by the driving binary).
    RunEnd {
        /// Final registry snapshot.
        metrics: MetricsSnapshot,
    },
}

/// A line-buffered JSONL writer for [`RunEvent`]s.
#[derive(Debug)]
pub struct EventSink {
    writer: Mutex<BufWriter<File>>,
    path: PathBuf,
}

impl EventSink {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<EventSink> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(EventSink {
            writer: Mutex::new(BufWriter::new(file)),
            path,
        })
    }

    /// The file this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event as a JSON line. I/O errors are reported once as a
    /// tracing error and otherwise ignored: diagnostics must never abort an
    /// experiment.
    pub fn emit(&self, event: &RunEvent) {
        let line = serde_json::to_string(event).expect("plain data serializes");
        let mut writer = self.writer.lock().expect("event sink poisoned");
        if let Err(e) = writeln!(writer, "{line}") {
            tracing::error!(path = %self.path.display(), "event sink write failed: {e}");
        }
    }

    /// Flushes buffered lines to disk.
    pub fn flush(&self) {
        let _ = self.writer.lock().expect("event sink poisoned").flush();
    }
}

impl Drop for EventSink {
    fn drop(&mut self) {
        self.flush();
    }
}

fn sink_slot() -> &'static Mutex<Option<Arc<EventSink>>> {
    static SINK: OnceLock<Mutex<Option<Arc<EventSink>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Installs `sink` as the process-wide event stream, replacing (and
/// flushing) any previous one.
pub fn install(sink: EventSink) {
    *sink_slot().lock().expect("sink slot poisoned") = Some(Arc::new(sink));
}

/// Removes and returns the installed sink, flushing it first.
pub fn uninstall() -> Option<Arc<EventSink>> {
    let sink = sink_slot().lock().expect("sink slot poisoned").take();
    if let Some(sink) = &sink {
        sink.flush();
    }
    sink
}

/// The currently installed sink, if any.
pub fn installed() -> Option<Arc<EventSink>> {
    sink_slot().lock().expect("sink slot poisoned").clone()
}

/// Emits the event built by `f` to the installed sink; without a sink the
/// closure is never called.
pub fn emit_with(f: impl FnOnce() -> RunEvent) {
    if let Some(sink) = installed() {
        sink.emit(&f());
    }
}

/// Accounts one finished sweep cell, as the [`Runner`](crate::Runner)
/// does after every trial: the stage timings and counters go to the
/// [`global`] registry, and the cell's events (a
/// [`RunEvent::AuditViolation`] when its audits found any, then its
/// [`RunEvent::Replication`]) go to `sink`, or to the installed
/// process-global sink when `sink` is `None`. `distribute` is `None` for
/// a cell that shared the slice product of an earlier system size; such
/// a cell counts in `slices_shared` instead.
pub fn account_cell(
    scenario: &str,
    record: &ReplicationRecord,
    distribute: Option<Duration>,
    schedule: Duration,
    audit: Duration,
    sink: Option<&EventSink>,
) {
    let emit = |event: &dyn Fn() -> RunEvent| match sink {
        Some(sink) => sink.emit(&event()),
        None => emit_with(event),
    };
    let registry = global();
    match distribute {
        Some(elapsed) => registry.record_stage(Stage::Distribute, elapsed),
        None => registry.slices_shared.inc(),
    }
    registry.record_stage(Stage::Schedule, schedule);
    registry.record_stage(Stage::Audit, audit);
    let window = record.window_violations.unwrap_or(0);
    let scheduled = record.schedule_violations.unwrap_or(0);
    registry.count_schedule(record.feasible, record.violations);
    registry.count_audit(window, scheduled);
    if record.violations > 0 {
        emit(&|| RunEvent::AuditViolation {
            scenario: scenario.to_owned(),
            system_size: record.system_size,
            replication: record.replication,
            window,
            schedule: scheduled,
        });
    }
    emit(&|| RunEvent::Replication {
        scenario: scenario.to_owned(),
        system_size: record.system_size,
        replication: record.replication,
        distribute_us: distribute.unwrap_or_default().as_micros() as u64,
        schedule_us: schedule.as_micros() as u64,
        audit_us: audit.as_micros() as u64,
        feasible: record.feasible,
        violations: record.violations,
        max_lateness: record.max_lateness,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_counts_totals_and_buckets() {
        let h = DurationHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);

        h.record(Duration::from_micros(3)); // bucket for 2..4 µs
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(900)); // bucket for 512..1024 µs
        assert_eq!(h.count(), 3);
        assert_eq!(h.total(), Duration::from_micros(906));
        assert_eq!(h.mean(), Duration::from_micros(302));

        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.total_us, 906);
        assert_eq!(snap.max_us, 900);
        assert_eq!(snap.buckets, vec![(4, 2), (1024, 1)]);
        // Ranks 1..=2 land in the 2..4 µs bucket, rank 3 in 512..1024 µs.
        assert_eq!(snap.p50_us, 3); // bucket top (4 - 1)
        assert_eq!(snap.p90_us, 900); // clamped to the recorded max
        assert_eq!(snap.p99_us, 900);
        assert_eq!(h.percentile(0.5), Duration::from_micros(3));
        assert_eq!(h.percentile(1.0), Duration::from_micros(900));
    }

    #[test]
    fn percentiles_match_reference_on_a_known_series() {
        let h = DurationHistogram::default();
        let mut values: Vec<u64> = (1..=100).map(|i| i * 7).collect();
        for &v in &values {
            h.record(Duration::from_micros(v));
        }
        values.sort_unstable();
        for p in [0.5, 0.9, 0.99] {
            let reference = percentile_reference(&values, p);
            let estimate = h.percentile(p).as_micros() as u64;
            // Same log2 bucket: identical bit length.
            assert_eq!(
                64 - estimate.leading_zeros(),
                64 - reference.leading_zeros(),
                "p={p}: estimate {estimate} vs reference {reference}"
            );
            assert!(estimate >= reference, "nearest-rank upper bound");
        }
    }

    #[test]
    fn snapshots_merge_like_one_histogram() {
        let (a, b, both) = (
            DurationHistogram::default(),
            DurationHistogram::default(),
            DurationHistogram::default(),
        );
        for v in [3u64, 17, 900, 64] {
            a.record(Duration::from_micros(v));
            both.record(Duration::from_micros(v));
        }
        for v in [5u64, 5000, 12] {
            b.record(Duration::from_micros(v));
            both.record(Duration::from_micros(v));
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), both.snapshot());
        // Commutative, and merging an empty snapshot is the identity.
        assert_eq!(b.snapshot().merge(&a.snapshot()), both.snapshot());
        let empty = DurationHistogram::default().snapshot();
        assert_eq!(both.snapshot().merge(&empty), both.snapshot());
    }

    #[test]
    fn snapshot_delta_windows_the_new_observations() {
        let h = DurationHistogram::default();
        h.record(Duration::from_micros(10));
        let earlier = h.snapshot();
        h.record(Duration::from_micros(300));
        h.record(Duration::from_micros(12));
        let delta = h.snapshot().delta(&earlier);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.total_us, 312);
        assert_eq!(delta.mean_us, 156);
        // 10 and 12 share the 8..16 bucket: one of its two entries remains.
        assert_eq!(delta.buckets, vec![(16, 1), (512, 1)]);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = DurationHistogram::default();
        h.record(Duration::ZERO); // sub-microsecond → bucket 0
        h.record(Duration::from_secs(1 << 30)); // saturates in the top bucket
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.buckets.first().unwrap().0, 1);
        assert_eq!(snap.buckets.last().unwrap().0, u64::MAX);
    }

    #[test]
    fn registry_counters_accumulate_and_reset() {
        let r = Registry::default();
        r.graphs_generated.inc();
        r.graphs_generated.inc();
        r.count_schedule(true, 0);
        r.count_schedule(false, 3);
        r.count_audit(2, 1);
        r.replications_failed.inc();
        r.checkpoint_retries.inc();
        r.checkpoint_retries.inc();
        r.record_stage(Stage::Generate, Duration::from_micros(10));
        r.record_stage(Stage::Distribute, Duration::from_micros(20));
        r.record_stage(Stage::Schedule, Duration::from_micros(30));
        r.record_stage(Stage::Audit, Duration::from_micros(5));
        r.record_admission(true, Duration::from_micros(40));
        r.record_admission(true, Duration::from_micros(45));
        r.record_admission(false, Duration::from_micros(50));
        r.admissions_prefiltered.inc();
        r.slice_cache_hits.inc();
        r.slice_cache_hits.inc();
        r.slice_cache_misses.inc();
        r.slice_cache_evictions.inc();

        assert_eq!(r.graphs_generated.get(), 2);
        assert_eq!(r.schedules_built.get(), 2);
        assert_eq!(r.feasibility_failures.get(), 1);
        assert_eq!(r.structural_violations.get(), 3);
        assert_eq!(r.window_violations.get(), 2);
        assert_eq!(r.schedule_violations.get(), 1);
        assert_eq!(r.replications_failed.get(), 1);
        assert_eq!(r.checkpoint_retries.get(), 2);
        assert_eq!(r.admissions_admitted.get(), 2);
        assert_eq!(r.admissions_rejected.get(), 1);
        assert_eq!(r.admissions_prefiltered.get(), 1);
        assert_eq!(r.slice_cache_hits.get(), 2);
        assert_eq!(r.slice_cache_misses.get(), 1);
        assert_eq!(r.slice_cache_evictions.get(), 1);
        assert_eq!(r.admission.count(), 3);
        for stage in Stage::ALL {
            assert_eq!(r.stage(stage).count(), 1, "{}", stage.label());
        }

        let snap = r.snapshot();
        assert_eq!(snap.graphs_generated, 2);
        assert_eq!(snap.distribute.total_us, 20);
        assert_eq!(snap.admissions_admitted, 2);
        assert_eq!(snap.admissions_prefiltered, 1);
        assert_eq!(snap.slice_cache_hits, 2);
        assert_eq!(snap.admission.count, 3);

        r.reset();
        assert_eq!(r.graphs_generated.get(), 0);
        assert_eq!(r.admissions_prefiltered.get(), 0);
        assert_eq!(r.slice_cache_hits.get(), 0);
        assert_eq!(r.slice_cache_evictions.get(), 0);
        assert_eq!(r.schedules_built.get(), 0);
        assert_eq!(r.window_violations.get(), 0);
        assert_eq!(r.replications_failed.get(), 0);
        assert_eq!(r.checkpoint_retries.get(), 0);
        assert_eq!(r.admissions_admitted.get(), 0);
        assert_eq!(r.admissions_rejected.get(), 0);
        assert_eq!(r.admission.count(), 0);
        assert_eq!(r.stage(Stage::Schedule).count(), 0);
        assert_eq!(r.snapshot().schedule.buckets, vec![]);
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let r = Registry::default();
        r.count_schedule(false, 1);
        r.record_stage(Stage::Schedule, Duration::from_micros(100));
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn event_sink_writes_one_json_line_per_event() {
        let path =
            std::env::temp_dir().join(format!("feast-telemetry-test-{}.jsonl", std::process::id()));
        let sink = EventSink::create(&path).unwrap();
        sink.emit(&RunEvent::RunStart {
            command: "test".into(),
            replications: 2,
            system_sizes: vec![2, 4],
        });
        sink.emit(&RunEvent::Replication {
            scenario: "PURE/CCNE".into(),
            system_size: 4,
            replication: 0,
            distribute_us: 11,
            schedule_us: 22,
            audit_us: 3,
            feasible: true,
            violations: 0,
            max_lateness: -12.5,
        });
        sink.flush();

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: RunEvent = serde_json::from_str(lines[0]).unwrap();
        assert!(matches!(
            first,
            RunEvent::RunStart {
                replications: 2,
                ..
            }
        ));
        let second: RunEvent = serde_json::from_str(lines[1]).unwrap();
        match second {
            RunEvent::Replication {
                scenario,
                distribute_us,
                feasible,
                ..
            } => {
                assert_eq!(scenario, "PURE/CCNE");
                assert_eq!(distribute_us, 11);
                assert!(feasible);
            }
            other => panic!("expected Replication, got {other:?}"),
        }
    }

    #[test]
    fn replication_events_without_audit_us_still_parse() {
        let legacy = r#"{"Replication":{"scenario":"PURE/CCNE","system_size":4,"replication":0,"distribute_us":11,"schedule_us":22,"feasible":true,"violations":0,"max_lateness":-12.5}}"#;
        match serde_json::from_str::<RunEvent>(legacy).unwrap() {
            RunEvent::Replication { audit_us, .. } => assert_eq!(audit_us, 0),
            other => panic!("expected Replication, got {other:?}"),
        }
    }

    #[test]
    fn emit_with_skips_construction_without_a_sink() {
        // `installed()` may race with other tests only if one installs a
        // global sink; none does, so the closure must not run.
        if installed().is_none() {
            emit_with(|| panic!("no sink installed: closure must not run"));
        }
    }
}
