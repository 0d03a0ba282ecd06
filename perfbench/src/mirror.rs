//! The admission controller's decision sequence, replayed through the
//! public layer calls so each call can be timed on its own.
//!
//! `AdmissionController::handle` runs prefilter → slice cache → slice →
//! trial (or repair) → commit behind one call. [`Mirror`] makes the same
//! calls in the same order on the same kind of state — `slicing::prefilter`,
//! `SliceCache`, `Slicer::redistribute`, `ListScheduler::schedule_against`
//! / `repair_against`, `CommittedState` — and returns the outcome the
//! controller would. The traced run checks every outcome against the
//! service's transcript, so the per-layer numbers describe the very work
//! the end-to-end numbers measured.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use feast::{
    AdmitConfig, AdmitOutcome, AdmitRequest, AdmitVerdict, PinningPolicy, Refusal, Scenario,
    Technique,
};
use platform::Platform;
use sched::{
    BusModel, CommitReceipt, CommittedState, LatenessReport, ListScheduler, SchedWorkspace,
    Schedule,
};
use slicing::{DeadlineAssignment, DeltaError, GraphDelta, SliceCache, SliceMemo, Slicer};
use taskgraph::{TaskGraph, Time};

use crate::trace::Tracer;

/// A cached slice product: what the controller's cache keeps per key.
#[derive(Debug, Clone)]
struct Cached {
    assignment: DeadlineAssignment,
    window_violations: usize,
    memo: SliceMemo,
}

#[derive(Debug)]
struct Resident {
    graph: Arc<TaskGraph>,
    origin: Time,
    horizon: Time,
    schedule: Schedule,
}

/// What one trial produced.
struct Trialed {
    admit: bool,
    max_lateness: Time,
    end_to_end: Time,
    makespan: Time,
    violations: usize,
    /// `Some(kept)` for repairs: whether the retained dispatch log served.
    repaired: Option<bool>,
    schedule: Schedule,
}

impl Trialed {
    /// The controller's verdict on this trial, with `residents` committed
    /// after it.
    fn verdict(&self, id: u64, residents: usize) -> AdmitOutcome {
        AdmitOutcome::Verdict(AdmitVerdict {
            id,
            admitted: self.admit,
            max_lateness: self.max_lateness,
            end_to_end: self.end_to_end,
            makespan: self.makespan,
            violations: self.violations,
            repaired: self.repaired == Some(true),
            residents,
        })
    }
}

/// Counts taken at the layer boundaries.
#[derive(Debug, Default)]
pub struct Counts {
    pub prefilter_checks: usize,
    pub prefilter_refused: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub cache_evictions: usize,
    /// Per-start searches the amendment re-slices reused / recomputed.
    pub reuse_hits: usize,
    pub reuse_misses: usize,
    pub trials: usize,
    pub residents_at_trial: usize,
    pub amend_trials: usize,
    pub repaired: usize,
}

/// The slicer and scheduler a scenario configures, built as
/// `Pipeline::new` builds them.
#[derive(Debug)]
pub struct Layers {
    pub slicer: Slicer,
    pub scheduler: ListScheduler,
    pub respect_release: bool,
    /// Whether schedule audits check bus exclusivity.
    pub contention: bool,
}

impl Layers {
    pub fn of(scenario: &Scenario) -> Result<Layers, String> {
        let Technique::Slicing { metric, estimate } = &scenario.technique else {
            return Err("the benchmark replays slicing techniques only".to_owned());
        };
        let spec = scenario.scheduler;
        Ok(Layers {
            slicer: Slicer::new(*metric)
                .with_estimate(estimate.clone())
                .with_strict_windows(scenario.strict_windows),
            scheduler: ListScheduler::new()
                .with_respect_release(spec.respect_release)
                .with_bus_model(spec.bus_model)
                .with_placement(spec.placement),
            respect_release: spec.respect_release,
            contention: spec.bus_model == BusModel::Contention,
        })
    }
}

#[derive(Debug)]
pub struct Mirror {
    platform: Platform,
    pinning: PinningPolicy,
    layers: Layers,
    ws: SchedWorkspace,
    memo: SliceMemo,
    cache: SliceCache<Cached>,
    state: CommittedState,
    residents: BTreeMap<u64, Resident>,
    order: VecDeque<u64>,
    last_commit: Option<(u64, CommitReceipt)>,
    capacity: usize,
    pub counts: Counts,
    /// Admitted graphs whose cache probe missed, in request order: the
    /// graphs a slicer worker distributes from scratch.
    pub missed: Vec<(u64, Arc<TaskGraph>)>,
}

impl Mirror {
    /// A mirror of a fresh controller built from `config` (slicing
    /// technique, oldest-first eviction, slice cache on).
    pub fn new(config: &AdmitConfig) -> Result<Mirror, String> {
        let scenario = &config.scenario;
        if config.eviction.name() != "oldest-first" || config.slice_cache == 0 || !config.prefilter
        {
            return Err(
                "the mirror replays oldest-first eviction with cache and prefilter on".to_owned(),
            );
        }
        let topology = scenario
            .topology
            .build(config.system_size, scenario.cost_per_item);
        let platform = Platform::homogeneous(config.system_size, topology)
            .map_err(|e| format!("platform: {e}"))?;
        Ok(Mirror {
            platform,
            pinning: scenario.pinning,
            layers: Layers::of(scenario)?,
            ws: SchedWorkspace::new(),
            memo: SliceMemo::new(),
            cache: SliceCache::new(config.slice_cache),
            state: CommittedState::new(config.system_size, scenario.scheduler.bus_model),
            residents: BTreeMap::new(),
            order: VecDeque::new(),
            last_commit: None,
            capacity: config.capacity.max(1),
            counts: Counts::default(),
            missed: Vec::new(),
        })
    }

    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    pub fn slicer(&self) -> &Slicer {
        &self.layers.slicer
    }

    pub fn digest(&self) -> u64 {
        self.state.digest()
    }

    /// Decides request `seq`, recording one span per layer call under a
    /// `request` span.
    pub fn handle(
        &mut self,
        tr: &mut Tracer,
        seq: u64,
        request: &AdmitRequest,
    ) -> Result<AdmitOutcome, String> {
        let open = tr.enter("request", seq);
        let outcome = match request {
            AdmitRequest::Admit { id, graph, origin } => self.admit(tr, seq, *id, graph, *origin),
            AdmitRequest::Amend { id, delta } => self.amend(tr, seq, *id, delta),
        };
        tr.exit(open);
        outcome
    }

    fn admit(
        &mut self,
        tr: &mut Tracer,
        seq: u64,
        id: u64,
        graph: &Arc<TaskGraph>,
        origin: Time,
    ) -> Result<AdmitOutcome, String> {
        self.counts.prefilter_checks += 1;
        let reject = tr.time("prefilter", seq, || {
            if !self.layers.respect_release {
                return None;
            }
            let pins = self.pinning.build(graph, &self.platform).ok()?;
            slicing::prefilter(graph, &self.platform, Some(&pins))
        });
        if let Some(reject) = reject {
            self.counts.prefilter_refused += 1;
            return Ok(AdmitOutcome::Refused(Refusal::Prefilter {
                bound: reject.kind().to_owned(),
            }));
        }

        let probe = tr.enter("cache.probe", seq);
        let key = self.layers.slicer.cache_key(graph, &self.platform);
        let hit = self.cache.get(&key);
        tr.exit_as(
            probe,
            if hit.is_some() {
                "cache.hit"
            } else {
                "cache.miss"
            },
        );
        let (assignment, window_violations) = match hit {
            Some(cached) => {
                self.counts.cache_hits += 1;
                self.memo = cached.memo;
                (cached.assignment, cached.window_violations)
            }
            None => {
                self.counts.cache_misses += 1;
                self.missed.push((seq, Arc::clone(graph)));
                let sliced = tr.time("slicing.traced", seq, || {
                    self.layers
                        .slicer
                        .redistribute(graph, &self.platform, &mut self.memo)
                });
                let assignment = sliced.map_err(|e| format!("slice: {e}"))?.assignment;
                let window_violations = tr.time("slicing.window_audit", seq, || {
                    assignment.validate(graph).violations().len()
                });
                let cached = Cached {
                    assignment: assignment.clone(),
                    window_violations,
                    memo: self.memo.clone(),
                };
                if tr.time("cache.insert", seq, || self.cache.insert(key, cached)) {
                    self.counts.cache_evictions += 1;
                }
                (assignment, window_violations)
            }
        };

        self.retire(tr, seq, origin);
        if self.residents.contains_key(&id) {
            return Ok(AdmitOutcome::Refused(Refusal::DuplicateId { id }));
        }
        let trial = self.trial(tr, seq, graph, &assignment, window_violations, origin, None)?;
        if !trial.admit {
            return Ok(trial.verdict(id, self.residents.len()));
        }
        while self.residents.len() >= self.capacity {
            let Some(&oldest) = self.order.front() else {
                break;
            };
            self.evict(tr, seq, oldest);
        }
        let receipt = tr
            .time("sched.commit", seq, || self.state.commit(&trial.schedule))
            .map_err(|e| format!("commit: {e}"))?;
        self.last_commit = Some((id, receipt));
        let decision = trial.verdict(id, self.residents.len() + 1);
        self.residents.insert(
            id,
            Resident {
                graph: Arc::clone(graph),
                origin,
                horizon: trial.makespan,
                schedule: trial.schedule,
            },
        );
        self.order.push_back(id);
        Ok(decision)
    }

    fn amend(
        &mut self,
        tr: &mut Tracer,
        seq: u64,
        id: u64,
        delta: &GraphDelta,
    ) -> Result<AdmitOutcome, String> {
        let Some(mut resident) = self.residents.remove(&id) else {
            return Ok(AdmitOutcome::Refused(Refusal::NoResident { id }));
        };
        let outcome = self.amend_resident(tr, seq, id, &mut resident, delta);
        self.residents.insert(id, resident);
        outcome
    }

    fn amend_resident(
        &mut self,
        tr: &mut Tracer,
        seq: u64,
        id: u64,
        resident: &mut Resident,
        delta: &GraphDelta,
    ) -> Result<AdmitOutcome, String> {
        let pins = self
            .pinning
            .build(&resident.graph, &self.platform)
            .map_err(|e| format!("pinning: {e}"))?;
        let amended = match tr.time("delta.apply", seq, || delta.apply(&resident.graph, &pins)) {
            Ok(applied) => applied.graph,
            Err(e) => {
                let kind = match e {
                    DeltaError::UnknownSubtask(_) => "unknown-subtask",
                    DeltaError::UnknownEdge(..) => "unknown-edge",
                    DeltaError::Graph(_) => "invalid-graph",
                };
                return Ok(AdmitOutcome::Refused(Refusal::Delta {
                    kind: kind.to_owned(),
                }));
            }
        };

        // Withdraw the reservation: a receipt rollback when it is the
        // latest commit (which keeps the repair path open), else a release.
        let fast = match &self.last_commit {
            Some((last, receipt)) if *last == id => tr.time("sched.rollback", seq, || {
                self.state.rollback(&resident.schedule, receipt).is_ok()
            }),
            _ => false,
        };
        if !fast {
            tr.time("sched.release", seq, || {
                self.state.release(&resident.schedule)
            })
            .map_err(|e| format!("release: {e}"))?;
        }
        self.last_commit = None;

        // Amendment re-slices bypass the cross-request cache.
        let sliced = tr.time("incremental.redistribute", seq, || {
            self.layers
                .slicer
                .redistribute(&amended, &self.platform, &mut self.memo)
        });
        let sliced = sliced.map_err(|e| format!("re-slice: {e}"))?;
        self.counts.reuse_hits += sliced.stats.cache_hits as usize;
        self.counts.reuse_misses += sliced.stats.cache_misses as usize;
        let window_violations = tr.time("slicing.window_audit", seq, || {
            sliced.assignment.validate(&amended).violations().len()
        });
        let prev = fast.then_some(&resident.schedule);
        let trial = self.trial(
            tr,
            seq,
            &amended,
            &sliced.assignment,
            window_violations,
            resident.origin,
            prev,
        )?;
        self.counts.amend_trials += 1;
        self.counts.repaired += usize::from(trial.repaired == Some(true));
        let decision = trial.verdict(id, self.residents.len() + 1);
        // On admit the new schedule replaces the reservation; on reject the
        // old one is restored unchanged.
        if trial.admit {
            resident.graph = Arc::new(amended);
            resident.horizon = trial.makespan;
            resident.schedule = trial.schedule;
        }
        let receipt = tr
            .time("sched.commit", seq, || {
                self.state.commit(&resident.schedule)
            })
            .map_err(|e| format!("commit: {e}"))?;
        self.last_commit = Some((id, receipt));
        Ok(decision)
    }

    #[allow(clippy::too_many_arguments)]
    fn trial(
        &mut self,
        tr: &mut Tracer,
        seq: u64,
        graph: &TaskGraph,
        assignment: &DeadlineAssignment,
        window_violations: usize,
        origin: Time,
        prev: Option<&Schedule>,
    ) -> Result<Trialed, String> {
        let pins = self
            .pinning
            .build(graph, &self.platform)
            .map_err(|e| format!("pinning: {e}"))?;
        let shifted = assignment.shifted(origin);
        self.counts.trials += 1;
        self.counts.residents_at_trial += self.residents.len();
        let (schedule, repaired) = match prev {
            None => {
                let schedule = tr.time("sched.trial", seq, || {
                    self.layers.scheduler.schedule_against(
                        graph,
                        &self.platform,
                        &shifted,
                        &pins,
                        &self.state,
                        &mut self.ws,
                    )
                });
                (schedule.map_err(|e| format!("trial: {e}"))?, None)
            }
            Some(prev) => {
                let outcome = tr.time("sched.repair", seq, || {
                    self.layers.scheduler.repair_against(
                        graph,
                        &self.platform,
                        &shifted,
                        &pins,
                        prev,
                        &self.state,
                        &mut self.ws,
                    )
                });
                let outcome = outcome.map_err(|e| format!("repair: {e}"))?;
                (outcome.schedule, Some(!outcome.fell_back))
            }
        };
        let schedule_violations = tr.time("audit.schedule", seq, || {
            schedule
                .validate(graph, &self.platform, &pins, self.layers.contention)
                .len()
        });
        let report = tr.time("lateness", seq, || {
            LatenessReport::new(graph, &shifted, &schedule)
        });
        Ok(Trialed {
            admit: report.is_feasible(),
            max_lateness: report.max_lateness(),
            end_to_end: report.end_to_end_lateness() - origin,
            makespan: report.makespan(),
            violations: window_violations + schedule_violations,
            repaired,
            schedule,
        })
    }

    /// Residents whose horizon has passed `now` depart, in id order.
    fn retire(&mut self, tr: &mut Tracer, seq: u64, now: Time) {
        let expired: Vec<u64> = self
            .residents
            .iter()
            .filter(|(_, r)| r.horizon <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.evict(tr, seq, id);
        }
    }

    fn evict(&mut self, tr: &mut Tracer, seq: u64, id: u64) {
        if let Some(resident) = self.residents.remove(&id) {
            // A schedule this state committed always releases.
            let _ = tr.time("sched.release", seq, || {
                self.state.release(&resident.schedule)
            });
            self.order.retain(|&other| other != id);
            if matches!(self.last_commit, Some((last, _)) if last == id) {
                self.last_commit = None;
            }
        }
    }
}
