//! The consolidated slice → trial pipeline facade.
//!
//! Every consumer of the paper's pipeline used to hand-wire the same four
//! steps — build a distributor from the scenario's technique, distribute
//! deadlines, build the scheduler from the scenario's spec, list-schedule —
//! plus the always-on audits and the lateness measurement. [`Pipeline`]
//! owns that wiring once: it is configured from a [`Scenario`], holds the
//! per-worker [`SchedWorkspace`], and exposes the whole pipeline as
//!
//! ```text
//! Pipeline::new(&scenario).slice(&graph, &platform)?.trial(&platform)?  →  Verdict
//! ```
//!
//! The sweep engine ([`Runner`]) and the admission service
//! ([`AdmissionController`]) both run on this facade; the pre-existing
//! entry points ([`Slicer::distribute`], [`ListScheduler::schedule_with`])
//! are unchanged and remain the primitives the facade composes, so output
//! is bit-identical to the hand-wired sequence.
//!
//! # Entry points
//!
//! Stage one has two entries:
//!
//! * [`Pipeline::slice`] slices a fresh graph, first probing the
//!   cross-request slice cache when one is attached. It is the public
//!   path and the admission service's path for admits.
//! * [`Pipeline::slice_or_share`] slices without the cache. A sweep
//!   replication runs one graph at every system size, and a size whose
//!   [`SliceInputs`] equal those of the last size it sliced reuses that
//!   slice product. An amendment has no earlier size to share with, and
//!   its amended graph essentially never repeats across requests, so the
//!   admission controller slices it here from scratch.
//!
//! Stage two has one: [`Pipeline::trial`] schedules a slice product,
//! audits the schedule and measures its lateness. It trials on an empty
//! platform ([`Sliced::trial`] and every sweep cell) or against a
//! [`CommittedState`] at an origin (an admission decision: an admit or
//! an amendment).
//!
//! The two stages are deliberately separable: [`Pipeline::slice`] depends
//! only on the graph and the platform *shape* (never on committed load),
//! so an admission service can slice requests on parallel workers and
//! trial them serially against the platform's committed state (see
//! [`Sliced::into_output`]).
//!
//! [`Runner`]: crate::Runner
//! [`AdmissionController`]: crate::AdmissionController
//! [`Slicer::distribute`]: slicing::Slicer::distribute
//! [`ListScheduler::schedule_with`]: sched::ListScheduler::schedule_with

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use platform::Platform;
use sched::{
    BusModel, CommittedState, LatenessReport, ListScheduler, MissLog, SchedWorkspace, Schedule,
};
use slicing::{
    distribute_baseline, prefilter, BaselineStrategy, DeadlineAssignment, PrefilterReject,
    SliceCache, SliceInputs, Slicer,
};
use taskgraph::{TaskGraph, Time};

use crate::scenario::{PinningPolicy, Scenario, SchedulerSpec, Technique};
use crate::telemetry;
use crate::RunError;

/// A cross-request slice cache shared between pipelines (the admission
/// controller and its slicer workers): full-content
/// [`SliceKey`](slicing::SliceKey)s mapping to shared [`SliceOutput`]s. A
/// hit bumps a refcount and copies only the assignment.
pub type SharedSliceCache = Arc<Mutex<SliceCache<Arc<SliceOutput>>>>;

/// How a pipeline distributes deadlines: the scenario's technique,
/// materialized once.
#[derive(Debug)]
enum Distributor {
    /// A slicing technique (§4 of the paper), built with the scenario's
    /// metric, estimate and strictness.
    Slicing(Slicer),
    /// A pre-slicing baseline (UD/ED).
    Baseline(BaselineStrategy),
}

/// The full deadline-distribution pipeline of the paper, configured once
/// from a [`Scenario`] and reusable across graphs: distribute → audit
/// windows → schedule → audit schedule → measure lateness.
///
/// A pipeline owns its scratch state (a [`SchedWorkspace`]), so
/// steady-state trials are allocation-free; hand each worker thread its
/// own pipeline. It is the single entry point both the sweep engine and
/// the admission service drive.
///
/// # Examples
///
/// ```
/// use feast::{Pipeline, Scenario};
/// use platform::Platform;
/// use slicing::{CommEstimate, MetricKind};
/// use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
///
/// # fn main() -> Result<(), feast::RunError> {
/// let scenario = Scenario::paper(
///     "ADAPT/CCNE",
///     WorkloadSpec::paper(ExecVariation::Mdet),
///     MetricKind::adapt(),
///     CommEstimate::Ccne,
/// );
/// let graph = generate_seeded(&WorkloadSpec::paper(ExecVariation::Mdet), 7).unwrap();
/// let platform = Platform::paper(8).unwrap();
///
/// let mut pipeline = Pipeline::new(&scenario);
/// let verdict = pipeline.slice(&graph, &platform)?.trial(&platform)?;
/// println!(
///     "max lateness {} → {}",
///     verdict.max_lateness,
///     if verdict.admit { "admit" } else { "reject" }
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Pipeline {
    distributor: Distributor,
    scheduler: ListScheduler,
    spec: SchedulerSpec,
    pinning: PinningPolicy,
    ws: SchedWorkspace,
    cache: Option<SharedSliceCache>,
}

impl Pipeline {
    /// Builds the pipeline a scenario describes: its technique (slicer or
    /// baseline), scheduler configuration and pinning policy. Only the
    /// pipeline-relevant fields of the scenario are read — sweep shape
    /// (sizes, replications, seeds) stays with the [`Runner`].
    ///
    /// [`Runner`]: crate::Runner
    pub fn new(scenario: &Scenario) -> Pipeline {
        let distributor = match &scenario.technique {
            Technique::Slicing { metric, estimate } => Distributor::Slicing(
                Slicer::new(*metric)
                    .with_estimate(estimate.clone())
                    .with_strict_windows(scenario.strict_windows),
            ),
            Technique::Baseline(strategy) => Distributor::Baseline(*strategy),
        };
        Pipeline {
            distributor,
            scheduler: ListScheduler::new()
                .with_respect_release(scenario.scheduler.respect_release)
                .with_bus_model(scenario.scheduler.bus_model)
                .with_placement(scenario.scheduler.placement),
            spec: scenario.scheduler,
            pinning: scenario.pinning,
            ws: SchedWorkspace::new(),
            cache: None,
        }
    }

    /// Attaches a shared cross-request slice cache:
    /// [`slice`](Pipeline::slice) first probes it under a full-content
    /// [`SliceKey`](slicing::SliceKey) and returns the memoized product on a hit, skipping
    /// the distribution DP entirely. Hit output is bit-identical to a
    /// fresh run by the key's construction (equal keys pin every slicing
    /// input), so the cache is invisible in admission transcripts.
    /// Baselines never consult the cache.
    #[must_use]
    pub fn with_slice_cache(mut self, cache: SharedSliceCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches (or detaches) a shared [`MissLog`] rate-limiting the
    /// scheduler's deadline-miss warnings across every trial through this
    /// pipeline.
    pub fn set_miss_log(&mut self, log: Option<Arc<MissLog>>) {
        self.ws.set_miss_log(log);
    }

    /// The admission fast lane's feasibility pre-filter: runs the O(V+E)
    /// necessary-condition bounds ([`slicing::prefilter`]) over `graph`
    /// with the pinning this pipeline's trials will use. `Some` proves the
    /// full slice + trial path would reject — under any committed load —
    /// so admission can refuse without slicing.
    ///
    /// Conservatively answers `None` (no claim) when the scheduler spec
    /// does not respect given releases (the bounds' proofs need that
    /// floor), for baseline distributors, and when the pinning policy
    /// fails to build (the trial will surface that error itself).
    pub fn prefilter(&self, graph: &TaskGraph, platform: &Platform) -> Option<PrefilterReject> {
        if !self.spec.respect_release {
            return None;
        }
        if !matches!(self.distributor, Distributor::Slicing(_)) {
            return None;
        }
        let pins = self.pinning.build(graph, platform).ok()?;
        prefilter(graph, platform, Some(&pins))
    }

    /// Stage one: distributes deadlines over `graph` for `platform` and
    /// audits the produced windows, returning a [`Sliced`] handle that
    /// trial-schedules fluently (or detaches into a [`SliceOutput`] for a
    /// pipelined service).
    ///
    /// Slicing reads the platform's processor count and communication
    /// costs but never its committed load, so this stage may run on any
    /// worker, concurrently with other requests' trials.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Slice`] when deadline distribution fails.
    pub fn slice<'p, 'g>(
        &'p mut self,
        graph: &'g TaskGraph,
        platform: &'g Platform,
    ) -> Result<Sliced<'p, 'g>, RunError> {
        let started = Instant::now();
        // Cross-request cache probe: a full-content key hit returns the
        // memoized product verbatim (bit-identical by the key contract).
        // Baselines never consult the cache.
        let key = match (&self.distributor, &self.cache) {
            (Distributor::Slicing(slicer), Some(_)) => Some(slicer.cache_key(graph, platform)),
            _ => None,
        };
        if let (Some(key), Some(cache)) = (&key, &self.cache) {
            let hit = cache.lock().ok().and_then(|mut c| c.get(key));
            if let Some(entry) = hit {
                telemetry::global().slice_cache_hits.inc();
                // The cached timings described the producing run; report
                // this call's (lookup) cost so stage accounting stays
                // honest.
                let output = SliceOutput {
                    assignment: entry.assignment.clone(),
                    window_violations: entry.window_violations,
                    distribute: started.elapsed(),
                    window_audit: Duration::ZERO,
                };
                return Ok(Sliced {
                    pipeline: self,
                    graph,
                    output,
                });
            }
            telemetry::global().slice_cache_misses.inc();
        }
        let assignment = match (&self.distributor, &key) {
            (Distributor::Slicing(slicer), Some(key)) => {
                slicer.distribute_from(graph, key.inputs())?
            }
            (Distributor::Slicing(slicer), None) => slicer.distribute(graph, platform)?,
            (Distributor::Baseline(strategy), _) => distribute_baseline(graph, *strategy),
        };
        let output = self.audited(graph, assignment, started.elapsed());
        if let (Some(key), Some(cache)) = (key, &self.cache) {
            if let Ok(mut c) = cache.lock() {
                if c.insert(key, Arc::new(output.clone())) {
                    telemetry::global().slice_cache_evictions.inc();
                }
            }
        }
        Ok(Sliced {
            pipeline: self,
            graph,
            output,
        })
    }

    /// Stage one without the cross-request cache. `last` holds the
    /// product of the last size a sweep replication sliced (a replication
    /// runs one `graph` at every size). When this size's slicing inputs
    /// ([`Slicer::inputs`]) equal the ones `last` was sliced from, the
    /// assignment would be bit-identical, so `last`'s product is reused:
    /// no distribution and no window audit run, and both read zero time.
    /// Otherwise the graph is sliced from these inputs and `last` becomes
    /// the new product; a failed slice leaves `last` empty. Baselines
    /// read no platform, so every size after the first shares. Returns
    /// the product and whether it was shared. An amended graph is sliced
    /// here with an empty `last`.
    ///
    /// [`Slicer::inputs`]: slicing::Slicer::inputs
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Slice`] when deadline distribution fails.
    pub(crate) fn slice_or_share(
        &mut self,
        graph: &TaskGraph,
        platform: &Platform,
        last: &mut Option<LastSlice>,
    ) -> Result<(SliceOutput, bool), RunError> {
        let started = Instant::now();
        let inputs = match &self.distributor {
            Distributor::Slicing(slicer) => Some(slicer.inputs(graph, platform)),
            Distributor::Baseline(_) => None,
        };
        if let Some(last) = last.as_ref().filter(|last| last.inputs == inputs) {
            let output = SliceOutput {
                distribute: Duration::ZERO,
                window_audit: Duration::ZERO,
                ..last.output.clone()
            };
            return Ok((output, true));
        }
        *last = None;
        let assignment = match &self.distributor {
            Distributor::Slicing(slicer) => {
                slicer.distribute_from(graph, inputs.as_ref().expect("read for the slicer"))?
            }
            Distributor::Baseline(strategy) => distribute_baseline(graph, *strategy),
        };
        let output = self.audited(graph, assignment, started.elapsed());
        *last = Some(LastSlice {
            inputs,
            output: output.clone(),
        });
        Ok((output, false))
    }

    /// Stage one's tail: the always-on window audit over a fresh
    /// assignment, assembled into a [`SliceOutput`].
    fn audited(
        &self,
        graph: &TaskGraph,
        assignment: DeadlineAssignment,
        distribute: Duration,
    ) -> SliceOutput {
        // Baselines produce deliberately overlapping windows, so
        // structural window validation only applies to slicing.
        let audit_started = Instant::now();
        let window_violations = match &self.distributor {
            Distributor::Slicing(_) => assignment.validate(graph).violations().len(),
            Distributor::Baseline(_) => 0,
        };
        SliceOutput {
            assignment,
            window_violations,
            distribute,
            window_audit: audit_started.elapsed(),
        }
    }

    /// Stage two, the one trial path: schedules the slice product `output`
    /// of `graph`, audits the schedule and measures its lateness. Without
    /// `against`, the trial runs on an empty platform ([`Sliced::trial`],
    /// every sweep cell). With `(base, origin)`, it re-anchors the
    /// product at `origin` (every window shifted uniformly) and schedules
    /// it around `base`'s reservations; `base` is untouched, since an
    /// admission service commits the verdict's schedule only on admit.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Platform`] for an invalid pinning and
    /// [`RunError::Sched`] when scheduling fails (including a `base`
    /// incompatible with the platform or bus model).
    pub(crate) fn trial(
        &mut self,
        graph: &TaskGraph,
        platform: &Platform,
        output: SliceOutput,
        against: Option<(&CommittedState, Time)>,
    ) -> Result<Verdict, RunError> {
        let SliceOutput {
            assignment,
            window_violations,
            distribute,
            window_audit,
        } = output;
        let pinning = self.pinning.build(graph, platform)?;
        let (assignment, origin) = match against {
            Some((_, origin)) => (assignment.shifted(origin), origin),
            None => (assignment, Time::ZERO),
        };
        let (scheduler, ws) = (&self.scheduler, &mut self.ws);
        let schedule_started = Instant::now();
        let schedule = match against {
            None => scheduler.schedule_with(graph, platform, &assignment, &pinning, ws)?,
            Some((base, _)) => {
                scheduler.schedule_against(graph, platform, &assignment, &pinning, base, ws)?
            }
        };
        let schedule_time = schedule_started.elapsed();

        let audit_started = Instant::now();
        let schedule_violations = schedule
            .validate(
                graph,
                platform,
                &pinning,
                self.spec.bus_model == BusModel::Contention,
            )
            .len();
        let audit = window_audit + audit_started.elapsed();

        let report = LatenessReport::new(graph, &assignment, &schedule);
        Ok(Verdict {
            admit: report.is_feasible(),
            max_lateness: report.max_lateness(),
            end_to_end: report.end_to_end_lateness() - origin,
            makespan: report.makespan(),
            window_violations,
            schedule_violations,
            distribute,
            schedule_time,
            audit,
            assignment,
            schedule,
        })
    }
}

/// A graph with its deadlines distributed, bound to the pipeline that
/// produced it: stage one's result, ready for a trial. Borrow-holds the
/// pipeline so the fluent chain reuses its workspace; a pipelined service
/// detaches the owned product with [`into_output`](Sliced::into_output)
/// instead.
#[derive(Debug)]
pub struct Sliced<'p, 'g> {
    pipeline: &'p mut Pipeline,
    graph: &'g TaskGraph,
    output: SliceOutput,
}

impl Sliced<'_, '_> {
    /// Detaches the owned slice product, releasing the pipeline borrow.
    /// The product is `Send`: an admission service slices on worker
    /// threads and ships products to the coordinator that owns the
    /// committed state, which trials them against it.
    pub fn into_output(self) -> SliceOutput {
        self.output
    }

    /// Trial-schedules against an empty platform and measures the result.
    ///
    /// `platform` must be the platform the graph was sliced for.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Platform`] for an invalid pinning and
    /// [`RunError::Sched`] when scheduling fails.
    pub fn trial(self, platform: &Platform) -> Result<Verdict, RunError> {
        self.pipeline.trial(self.graph, platform, self.output, None)
    }
}

/// The slice product a sweep replication keeps for its later system
/// sizes ([`Pipeline::slice_or_share`]): what stage one read (`None` for
/// a baseline, which reads no platform) and what it produced.
#[derive(Debug)]
pub(crate) struct LastSlice {
    inputs: Option<SliceInputs>,
    output: SliceOutput,
}

/// The detached product of [`Pipeline::slice`]: the assignment plus the
/// stage's audit result and timings. Owned and `Send`, so it can cross the
/// thread boundary between slicer workers and a trial coordinator.
#[derive(Debug, Clone)]
pub struct SliceOutput {
    /// The distributed deadline assignment, in graph-local time (inputs at
    /// their given releases). Trials against committed load re-anchor it
    /// via [`DeadlineAssignment::shifted`].
    pub assignment: DeadlineAssignment,
    /// Structural window violations found by the always-on audit (always
    /// zero for baselines, whose overlapping windows are intentional).
    pub window_violations: usize,
    /// Wall-clock of the distribution stage alone; zero for a sweep cell
    /// that shared the product of an earlier system size.
    pub distribute: Duration,
    /// Wall-clock of the window audit (accounted to the audit stage);
    /// zero for a shared product, whose audit result is reused.
    pub window_audit: Duration,
}

/// The measured outcome of one trial: everything the sweep engine records
/// and everything an admission decision needs.
///
/// A verdict is a *prediction under the trialed load*, not a
/// schedulability proof: `admit` says the non-preemptive EDF trial met
/// every assigned deadline given the committed reservations at trial time.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Did the trial meet every assigned deadline? (The paper's
    /// feasibility criterion: maximum task lateness not positive.)
    pub admit: bool,
    /// Maximum task lateness over all subtasks (the paper's figure of
    /// merit; negative values are slack).
    pub max_lateness: Time,
    /// Maximum end-to-end lateness over output subtasks, relative to the
    /// trial's origin (directly comparable across origins).
    pub end_to_end: Time,
    /// Completion time of the last subtask (absolute time).
    pub makespan: Time,
    /// Structural window violations from stage one's audit.
    pub window_violations: usize,
    /// Structural schedule violations from stage two's audit.
    pub schedule_violations: usize,
    /// Wall-clock of the distribution stage.
    pub distribute: Duration,
    /// Wall-clock of the scheduling stage.
    pub schedule_time: Duration,
    /// Wall-clock of both audits combined.
    pub audit: Duration,
    /// The assignment the trial measured (shifted to the trial's origin).
    pub assignment: DeadlineAssignment,
    /// The trial schedule. On admit, committing exactly this schedule
    /// reserves what the verdict predicted.
    pub schedule: Schedule,
}

impl Verdict {
    /// Total structural violations found by both audits.
    pub fn violations(&self) -> usize {
        self.window_violations + self.schedule_violations
    }
}

#[cfg(test)]
mod tests {
    use slicing::{CommEstimate, MetricKind};
    use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};

    use super::*;
    use crate::scenario::Scenario;

    fn paper_scenario() -> Scenario {
        Scenario::paper(
            "PIPE/TEST",
            WorkloadSpec::paper(ExecVariation::Mdet),
            MetricKind::adapt(),
            CommEstimate::Ccne,
        )
    }

    fn workload(seed: u64) -> TaskGraph {
        generate_seeded(&WorkloadSpec::paper(ExecVariation::Mdet), seed).unwrap()
    }

    /// Slices `graph` and trials the detached product against `state` at
    /// `origin`, as admission does.
    fn trial_against(
        pipeline: &mut Pipeline,
        graph: &TaskGraph,
        platform: &Platform,
        state: &CommittedState,
        origin: Time,
    ) -> Verdict {
        let output = pipeline.slice(graph, platform).unwrap().into_output();
        pipeline
            .trial(graph, platform, output, Some((state, origin)))
            .unwrap()
    }

    #[test]
    fn facade_matches_hand_wired_pipeline() {
        let scenario = paper_scenario();
        let graph = workload(3);
        let platform = Platform::paper(8).unwrap();

        let mut pipeline = Pipeline::new(&scenario);
        let verdict = pipeline
            .slice(&graph, &platform)
            .unwrap()
            .trial(&platform)
            .unwrap();

        // The same steps, hand-wired as every consumer wrote them before.
        let assignment = Slicer::new(MetricKind::adapt())
            .with_estimate(CommEstimate::Ccne)
            .distribute(&graph, &platform)
            .unwrap();
        let schedule = ListScheduler::new()
            .schedule(&graph, &platform, &assignment, &platform::Pinning::new())
            .unwrap();
        let report = LatenessReport::new(&graph, &assignment, &schedule);

        assert_eq!(verdict.assignment, assignment);
        assert_eq!(verdict.schedule, schedule);
        assert_eq!(verdict.max_lateness, report.max_lateness());
        assert_eq!(verdict.end_to_end, report.end_to_end_lateness());
        assert_eq!(verdict.makespan, report.makespan());
        assert_eq!(verdict.admit, report.is_feasible());
    }

    #[test]
    fn trial_against_empty_state_at_zero_matches_plain_trial() {
        let scenario = paper_scenario();
        let graph = workload(11);
        let platform = Platform::paper(4).unwrap();
        let state = CommittedState::new(4, scenario.scheduler.bus_model);

        let mut pipeline = Pipeline::new(&scenario);
        let plain = pipeline
            .slice(&graph, &platform)
            .unwrap()
            .trial(&platform)
            .unwrap();
        let against = trial_against(&mut pipeline, &graph, &platform, &state, Time::ZERO);
        assert_eq!(against.schedule, plain.schedule);
        assert_eq!(against.max_lateness, plain.max_lateness);
        assert_eq!(against.end_to_end, plain.end_to_end);
        assert_eq!(against.admit, plain.admit);
    }

    #[test]
    fn shifted_trial_predicts_origin_invariant_lateness() {
        let scenario = paper_scenario();
        let graph = workload(5);
        let platform = Platform::paper(4).unwrap();
        let state = CommittedState::new(4, scenario.scheduler.bus_model);
        let origin = Time::new(10_000);

        let mut pipeline = Pipeline::new(&scenario);
        let at_zero = trial_against(&mut pipeline, &graph, &platform, &state, Time::ZERO);
        let at_origin = trial_against(&mut pipeline, &graph, &platform, &state, origin);

        // An empty platform is origin-invariant: the shifted trial is the
        // zero trial translated wholesale.
        assert_eq!(at_origin.max_lateness, at_zero.max_lateness);
        assert_eq!(at_origin.end_to_end, at_zero.end_to_end);
        assert_eq!(at_origin.admit, at_zero.admit);
        assert_eq!(at_origin.makespan, at_zero.makespan + origin);
        assert_eq!(at_origin.assignment, at_zero.assignment.shifted(origin));
    }

    #[test]
    fn trial_leaves_committed_state_untouched() {
        let scenario = paper_scenario();
        let graph = workload(2);
        let platform = Platform::paper(4).unwrap();
        let mut state = CommittedState::new(4, scenario.scheduler.bus_model);
        let mut pipeline = Pipeline::new(&scenario);

        let first = trial_against(&mut pipeline, &graph, &platform, &state, Time::ZERO);
        state.commit(&first.schedule).unwrap();
        let digest = state.digest();

        // Trials are read-only: same state in, same verdict out, digest
        // unchanged.
        let probe = trial_against(&mut pipeline, &graph, &platform, &state, Time::new(50));
        assert_eq!(state.digest(), digest);
        assert_eq!(state.residents(), 1);
        let again = trial_against(&mut pipeline, &graph, &platform, &state, Time::new(50));
        assert_eq!(probe.schedule, again.schedule);
    }

    #[test]
    fn baseline_technique_skips_window_audit() {
        let scenario = Scenario::baseline(
            "UD/BASE",
            WorkloadSpec::paper(ExecVariation::Mdet),
            BaselineStrategy::Ultimate,
        );
        let graph = workload(4);
        let platform = Platform::paper(4).unwrap();
        let mut pipeline = Pipeline::new(&scenario);
        let output = pipeline.slice(&graph, &platform).unwrap().into_output();
        assert_eq!(output.window_violations, 0);
        let verdict = pipeline
            .slice(&graph, &platform)
            .unwrap()
            .trial(&platform)
            .unwrap();
        assert_eq!(verdict.window_violations, 0);
    }

    #[test]
    fn uncached_slice_is_bit_identical_and_leaves_the_cache_alone() {
        let scenario = paper_scenario();
        let graph = workload(9);
        let platform = Platform::paper(4).unwrap();
        let cache: SharedSliceCache = Arc::new(Mutex::new(SliceCache::new(8)));
        let mut pipeline = Pipeline::new(&scenario).with_slice_cache(Arc::clone(&cache));

        // An amendment's slice: no earlier size to share with, no cache.
        let a = pipeline.slice(&graph, &platform).unwrap().into_output();
        let (b, shared) = pipeline
            .slice_or_share(&graph, &platform, &mut None)
            .unwrap();
        assert!(!shared);
        assert_eq!(b.assignment, a.assignment);
        assert_eq!(b.window_violations, a.window_violations);

        // The cache holds only the cached slice's entry.
        assert_eq!(cache.lock().unwrap().len(), 1);
    }
}
