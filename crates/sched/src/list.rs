//! The deadline-driven list scheduler (§5.3).
//!
//! A deadline-driven version of classic list scheduling with interprocessor
//! communication delays (Lee, Hwang, Chow & Anger): at every step the
//! scheduler picks, among the *schedulable* subtasks (all predecessors
//! scheduled), the one with the earliest assigned absolute deadline, and
//! places it on the processor yielding the earliest start time under a
//! non-preemptive, time-driven run-time model.
//!
//! Start times respect (a) data availability — a message from a different
//! processor arrives only after its communication delay, and under the
//! contention model after queueing for the bus; (b) processor availability;
//! and (c) by default the *assigned release time* of the subtask, because
//! slices are execution windows with static positions in time.
//!
//! Processor availability follows the [`PlacementPolicy`]:
//! [`PlacementPolicy::Insertion`] (default) places a subtask into the
//! earliest idle interval large enough for it, so short subtasks slot into
//! gaps while long subtasks must wait for large contiguous windows — the
//! contention vulnerability of long subtasks that motivates AST's
//! threshold metrics (§7). [`PlacementPolicy::Append`] only ever schedules
//! after the processor's last reservation.
//!
//! # Hot path
//!
//! Dispatch is *estimate-once*: each candidate processor's earliest start is
//! computed against a read-only view of the committed state, message slots
//! (and, under [`BusModel::Contention`], bus reservations) for the winning
//! candidate are captured during that trial pass and spliced in on commit —
//! the winner is never re-evaluated. Under [`BusModel::Delay`] the bus
//! timeline is never touched at all. The `reference` submodule keeps the
//! original two-pass scheduler, which evaluates every candidate, as the
//! behavioural oracle; a proptest suite asserts both produce bit-identical
//! [`Schedule`]s, fresh and against committed load.
//!
//! The candidate scan stops at the *data-ready floor*
//! `floor = max(static lower bound, max over in-edges of the producer's
//! finish)`: once the best start found is `<= floor`, no later candidate
//! can replace it. Every candidate's start is at least its own lower bound
//! (`earliest_gap` and `append_start` never return less than the bound
//! they are given), and that bound is at least `floor`: a local input is
//! ready at its producer's finish, and a remote one arrives at
//! `depart + cost` with `depart >= finish` (the contention model's bus gap
//! starts no earlier than the finish) and `cost >= 0` (`Platform` rejects
//! negative per-item costs). The winner test is a strict `<`, so a later
//! candidate that ties the floor would not have replaced the lowest-index
//! winner anyway. The stop is therefore exact: it changes how many
//! candidates are evaluated (the `scanned` field of the `dispatched` trace
//! event, next to the `candidates` offered), never the schedule.

use std::cmp::Reverse;

use platform::{Pinning, Platform, ProcessorId};
use serde::{Deserialize, Serialize};
use slicing::DeadlineAssignment;
use taskgraph::{SubtaskId, TaskGraph, Time};

use crate::bus::BusModel;
use crate::committed::CommittedState;
use crate::timeline::Timeline;
use crate::workspace::SchedWorkspace;
use crate::{MessageSlot, SchedError, Schedule, ScheduleEntry};

#[cfg(test)]
#[path = "list_reference.rs"]
pub(crate) mod reference;

/// How a processor's idle time is allocated to subtasks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Place each subtask into the earliest idle interval that fits it
    /// (insertion-based list scheduling). Default.
    #[default]
    Insertion,
    /// Place each subtask after the processor's latest reservation.
    Append,
}

impl PlacementPolicy {
    /// A short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::Insertion => "insertion",
            PlacementPolicy::Append => "append",
        }
    }
}

/// The result of [`ListScheduler::repair_against`]. Kept only so
/// perfbench's frozen mirror compiles; goes with `mirror.rs` (ROADMAP item
/// 5(d)).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The schedule [`ListScheduler::schedule_against`] produces.
    pub schedule: Schedule,
    /// Always `true`: every call schedules in full.
    pub fell_back: bool,
}

/// Deadline-driven list scheduler.
///
/// # Examples
///
/// ```
/// use platform::{Pinning, Platform};
/// use rand::SeedableRng;
/// use sched::ListScheduler;
/// use slicing::Slicer;
/// use taskgraph::gen::{generate, ExecVariation, WorkloadSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = WorkloadSpec::paper(ExecVariation::Ldet);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let graph = generate(&spec, &mut rng)?;
/// let platform = Platform::paper(8)?;
/// let assignment = Slicer::ast_adapt().distribute(&graph, &platform)?;
///
/// let schedule = ListScheduler::new().schedule(&graph, &platform, &assignment, &Pinning::new())?;
/// assert!(schedule.validate(&graph, &platform, &Pinning::new(), false).is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListScheduler {
    respect_release: bool,
    bus: BusModel,
    placement: PlacementPolicy,
}

impl Default for ListScheduler {
    /// Same configuration as [`ListScheduler::new`].
    fn default() -> Self {
        ListScheduler::new()
    }
}

impl ListScheduler {
    /// Creates the paper's scheduler: time-driven (assigned release times
    /// honoured), insertion-based placement, fixed-delay communication.
    pub fn new() -> Self {
        ListScheduler {
            respect_release: true,
            bus: BusModel::Delay,
            placement: PlacementPolicy::Insertion,
        }
    }

    /// Sets whether assigned release times are honoured as earliest start
    /// times (the time-driven model). Disabling lets subtasks start as soon
    /// as data and a processor are available (a work-conserving variant).
    #[must_use]
    pub fn with_respect_release(mut self, respect: bool) -> Self {
        self.respect_release = respect;
        self
    }

    /// Sets the communication model.
    #[must_use]
    pub fn with_bus_model(mut self, bus: BusModel) -> Self {
        self.bus = bus;
        self
    }

    /// Sets the processor-placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Whether assigned release times are honoured.
    pub fn respects_release(&self) -> bool {
        self.respect_release
    }

    /// The communication model in use.
    pub fn bus_model(&self) -> BusModel {
        self.bus
    }

    /// The processor-placement policy in use.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// Schedules `graph` on `platform` under the given deadline assignment
    /// and strict locality constraints.
    ///
    /// Allocates fresh scratch state; callers scheduling repeatedly should
    /// hold a [`SchedWorkspace`] and use [`ListScheduler::schedule_with`].
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::AssignmentMismatch`] if `assignment` does not
    /// cover the graph and [`SchedError::Platform`] if `pinning` refers to
    /// processors outside the platform.
    pub fn schedule(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        assignment: &DeadlineAssignment,
        pinning: &Pinning,
    ) -> Result<Schedule, SchedError> {
        let mut ws = SchedWorkspace::new();
        self.fresh(graph, platform, assignment, pinning, None, &mut ws)
    }

    /// Schedules `graph` on `platform`, reusing the buffers in `ws`.
    ///
    /// Behaviourally identical to [`ListScheduler::schedule`] — the
    /// workspace is fully reset on entry and carries no state between calls
    /// — but steady-state calls allocate nothing beyond the two `Vec`s owned
    /// by the returned [`Schedule`].
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::AssignmentMismatch`] if `assignment` does not
    /// cover the graph and [`SchedError::Platform`] if `pinning` refers to
    /// processors outside the platform.
    pub fn schedule_with(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        assignment: &DeadlineAssignment,
        pinning: &Pinning,
        ws: &mut SchedWorkspace,
    ) -> Result<Schedule, SchedError> {
        self.fresh(graph, platform, assignment, pinning, None, ws)
    }

    /// Schedules `graph` on `platform` **against committed load**: the
    /// workspace timelines are seeded from `base`, so the graph is placed
    /// into the idle time the admitted residents leave free. `base` itself
    /// is read-only — a caller that rejects the resulting schedule simply
    /// drops it (no trace), one that admits it calls
    /// [`CommittedState::commit`].
    ///
    /// Data dependencies still only exist *within* `graph`; resident
    /// schedules interact with the request purely through processor (and,
    /// under [`BusModel::Contention`], bus) availability.
    ///
    /// # Errors
    ///
    /// Those of [`ListScheduler::schedule_with`], plus
    /// [`SchedError::BaseMismatch`] if `base` covers a different processor
    /// count than `platform` or was built for a different bus model than
    /// this scheduler uses.
    pub fn schedule_against(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        assignment: &DeadlineAssignment,
        pinning: &Pinning,
        base: &CommittedState,
        ws: &mut SchedWorkspace,
    ) -> Result<Schedule, SchedError> {
        self.fresh(graph, platform, assignment, pinning, Some(base), ws)
    }

    /// [`schedule_against`](ListScheduler::schedule_against) under the
    /// name of the schedule repair it replaced; `prev` is not read.
    /// Kept only so perfbench's frozen mirror compiles; goes with
    /// `mirror.rs` (ROADMAP item 5(d)).
    ///
    /// # Errors
    ///
    /// Exactly those of [`ListScheduler::schedule_against`].
    #[allow(clippy::too_many_arguments)]
    pub fn repair_against(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        assignment: &DeadlineAssignment,
        pinning: &Pinning,
        _prev: &Schedule,
        base: &CommittedState,
        ws: &mut SchedWorkspace,
    ) -> Result<RepairOutcome, SchedError> {
        Ok(RepairOutcome {
            schedule: self.schedule_against(graph, platform, assignment, pinning, base, ws)?,
            fell_back: true,
        })
    }

    /// Rejects inputs no dispatch run may start from: an assignment that
    /// does not cover the graph, a pinning outside the platform, and a
    /// `base` of another processor count or bus model.
    fn check(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        assignment: &DeadlineAssignment,
        pinning: &Pinning,
        base: Option<&CommittedState>,
    ) -> Result<(), SchedError> {
        if assignment.subtask_count() != graph.subtask_count() {
            return Err(SchedError::AssignmentMismatch {
                graph_subtasks: graph.subtask_count(),
                assignment_subtasks: assignment.subtask_count(),
            });
        }
        pinning.validate(graph, platform)?;
        let Some(base) = base else { return Ok(()) };
        if base.processor_count() != platform.processor_count() {
            return Err(SchedError::BaseMismatch(format!(
                "committed state covers {} processors but the platform has {}",
                base.processor_count(),
                platform.processor_count()
            )));
        }
        if base.bus_model() != self.bus {
            return Err(SchedError::BaseMismatch(format!(
                "committed state was built for bus model {:?} but the scheduler uses {:?}",
                base.bus_model(),
                self.bus
            )));
        }
        Ok(())
    }

    /// The dispatch run behind every scheduling entry: resets `ws`, seeds
    /// its timelines from `base` when one is given (an empty platform
    /// otherwise) and dispatches the whole graph.
    fn fresh(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        assignment: &DeadlineAssignment,
        pinning: &Pinning,
        base: Option<&CommittedState>,
        ws: &mut SchedWorkspace,
    ) -> Result<Schedule, SchedError> {
        self.check(graph, platform, assignment, pinning, base)?;

        let _span = tracing::debug_span!(
            "schedule",
            subtasks = graph.subtask_count(),
            processors = platform.processor_count(),
            residents = base.map_or(0, CommittedState::residents),
            bus = ?self.bus,
            placement = self.placement.label()
        )
        .entered();

        ws.reset(
            graph.subtask_count(),
            graph.edge_count(),
            platform.processor_count(),
        );
        if let Some(base) = base {
            for (tl, committed) in ws.procs.iter_mut().zip(&base.procs) {
                tl.clone_from(committed);
            }
            if self.bus == BusModel::Contention {
                ws.bus.clone_from(&base.bus);
            }
        }
        ws.missing_preds
            .extend(graph.subtask_ids().map(|id| graph.in_edges(id).len()));
        for id in graph.subtask_ids() {
            if ws.missing_preds[id.index()] == 0 {
                ws.ready
                    .push(Reverse((assignment.absolute_deadline(id), id)));
            }
        }
        self.run_dispatch(graph, platform, assignment, pinning, ws)
    }

    /// The placement lower bound of `id` that does not depend on earlier
    /// placements: the assigned release (when respected) joined with the
    /// given release.
    fn static_lower_bound(
        &self,
        graph: &TaskGraph,
        assignment: &DeadlineAssignment,
        id: SubtaskId,
    ) -> Time {
        let mut lb = Time::ZERO;
        if self.respect_release {
            lb = lb.max(assignment.release(id));
        }
        if let Some(given) = graph.subtask(id).release() {
            lb = lb.max(given);
        }
        lb
    }

    /// The dispatch loop of [`fresh`](Self::fresh): drains the ready heap,
    /// committing one dispatch per pop, then assembles the [`Schedule`].
    fn run_dispatch(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        assignment: &DeadlineAssignment,
        pinning: &Pinning,
        ws: &mut SchedWorkspace,
    ) -> Result<Schedule, SchedError> {
        // Disjoint field borrows: the candidate slice must borrow
        // `all_procs` while the dispatch loop mutates the other buffers.
        let SchedWorkspace {
            placed,
            messages,
            procs,
            bus,
            trial_bus,
            missing_preds,
            ready,
            all_procs,
            trial_slots,
            best_slots,
            miss_log,
        } = ws;

        // Hoisted once per call: the unpinned candidate list is the same
        // for every dispatch.
        all_procs.extend(platform.processors());

        // `(deadline, id)` keys are unique (ids are), so the min-heap pops
        // the exact sequence the previous BTreeSet walk produced.
        let mut suppressed_batch: u64 = 0;
        while let Some(Reverse((deadline, id))) = ready.pop() {
            let pinned = pinning.processor_for(id);
            let candidates: &[ProcessorId] = match pinned.as_ref() {
                Some(p) => std::slice::from_ref(p),
                None => all_procs,
            };
            let static_lb = self.static_lower_bound(graph, assignment, id);
            // The data-ready floor: no candidate can start before its last
            // input is produced (see "Hot path" above).
            let floor = graph.in_edges(id).iter().fold(static_lb, |floor, &eid| {
                let src = graph.edge(eid).src();
                floor.max(
                    placed[src.index()]
                        .expect("list order guarantees scheduled preds")
                        .finish,
                )
            });

            // Estimate the earliest start on each candidate against the
            // committed state, capturing the candidate's message slots (and
            // implied bus reservations); the winner's are spliced in below
            // without re-running the computation. A start at the floor
            // cannot be beaten, so the scan stops there.
            let mut best: Option<(Time, ProcessorId)> = None;
            let mut scanned = 0usize;
            for &p in candidates {
                scanned += 1;
                trial_slots.clear();
                let start = self.earliest_start(
                    graph,
                    platform,
                    static_lb,
                    placed,
                    procs,
                    bus,
                    trial_bus,
                    trial_slots,
                    id,
                    p,
                )?;
                if best.is_none_or(|(s, _)| start < s) {
                    best = Some((start, p));
                    std::mem::swap(best_slots, trial_slots);
                    if start <= floor {
                        break;
                    }
                }
            }
            let (start, proc) = best.ok_or(SchedError::Unschedulable(id))?;

            // Commit: replaying the winner's slots in edge order rebuilds
            // exactly the bus state its trial pass computed.
            for slot in best_slots.drain(..) {
                if self.bus == BusModel::Contention {
                    bus.reserve(slot.depart, slot.arrive - slot.depart);
                }
                messages[slot.edge.index()] = Some(slot);
            }

            let wcet = graph.subtask(id).wcet();
            let finish = start + wcet;
            procs[proc.index()].reserve(start, wcet);
            placed[id.index()] = Some(ScheduleEntry {
                subtask: id,
                processor: proc,
                start,
                finish,
            });
            tracing::trace!(
                subtask = %id,
                processor = proc.index(),
                start = %start,
                finish = %finish,
                deadline = %deadline,
                candidates = candidates.len(),
                scanned = scanned,
                "dispatched"
            );
            if finish > deadline {
                // Without a miss log every miss warns; with one, only the
                // first `limit` do and the rest are counted for a summary.
                // Once the budget is spent the count is batched locally —
                // an infeasible point misses on hundreds of subtasks, and
                // per-miss atomics would tax the dispatch loop.
                let emit = match miss_log.as_ref() {
                    None => true,
                    Some(log) if log.is_exhausted() => {
                        suppressed_batch += 1;
                        false
                    }
                    Some(log) => log.note(),
                };
                if emit {
                    tracing::warn!(
                        subtask = %id,
                        processor = proc.index(),
                        release = %assignment.release(id),
                        deadline = %deadline,
                        finish = %finish,
                        lateness = %(finish - deadline),
                        "deadline miss"
                    );
                }
            }

            for succ in graph.successors(id) {
                let slot = &mut missing_preds[succ.index()];
                *slot -= 1;
                if *slot == 0 {
                    ready.push(Reverse((assignment.absolute_deadline(succ), succ)));
                }
            }
        }

        if suppressed_batch > 0 {
            if let Some(log) = miss_log.as_ref() {
                log.suppress_many(suppressed_batch);
            }
        }

        let entries: Result<Vec<ScheduleEntry>, SchedError> = graph
            .subtask_ids()
            .map(|id| placed[id.index()].ok_or(SchedError::Unschedulable(id)))
            .collect();
        Ok(Schedule::new(
            entries?,
            std::mem::take(messages),
            platform.processor_count(),
        ))
    }

    /// Earliest start of `id` on processor `p` against the committed state,
    /// with the message slot of every remote input pushed onto `slots`.
    ///
    /// The committed `bus` is read-only here: under the contention model the
    /// implied reservations are simulated on `trial_bus` (snapshotted lazily
    /// at the first remote input); under the delay model the bus is not
    /// consulted at all. The caller replays the winning candidate's slots
    /// into the committed state.
    #[allow(clippy::too_many_arguments)]
    fn earliest_start(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        static_lb: Time,
        placed: &[Option<ScheduleEntry>],
        procs: &[Timeline],
        bus: &Timeline,
        trial_bus: &mut Timeline,
        slots: &mut Vec<MessageSlot>,
        id: SubtaskId,
        p: ProcessorId,
    ) -> Result<Time, SchedError> {
        let mut data_ready = Time::ZERO;
        let mut snapshotted = false;
        for &eid in graph.in_edges(id) {
            let edge = graph.edge(eid);
            let producer =
                placed[edge.src().index()].expect("list order guarantees scheduled preds");
            if producer.processor == p {
                data_ready = data_ready.max(producer.finish);
                continue;
            }
            let cost = platform.comm_cost(producer.processor, p, edge.items())?;
            let depart = match self.bus {
                BusModel::Delay => producer.finish,
                BusModel::Contention => {
                    if !snapshotted {
                        trial_bus.clone_from(bus);
                        snapshotted = true;
                    }
                    let depart = trial_bus.earliest_gap(producer.finish, cost);
                    trial_bus.reserve(depart, cost);
                    depart
                }
            };
            let arrive = depart + cost;
            data_ready = data_ready.max(arrive);
            slots.push(MessageSlot {
                edge: eid,
                from: producer.processor,
                to: p,
                depart,
                arrive,
            });
        }

        let lower_bound = data_ready.max(static_lb);
        let wcet = graph.subtask(id).wcet();
        let start = match self.placement {
            PlacementPolicy::Insertion => procs[p.index()].earliest_gap(lower_bound, wcet),
            PlacementPolicy::Append => procs[p.index()].append_start(lower_bound),
        };
        Ok(start)
    }
}

#[cfg(test)]
mod equivalence {
    //! The optimized scheduler against the [`reference`] oracle:
    //! bit-identical [`Schedule`]s across random DAGs, 1–16 processors on
    //! every topology kind at per-item cost 0–3, both bus models, both
    //! placement policies, pinned/unpinned mixes, and both release-time
    //! modes, fresh and against committed residents — plus workspace-reuse
    //! determinism.

    use platform::Topology;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use slicing::Slicer;
    use taskgraph::Subtask;

    use super::reference;
    use super::*;

    /// A random DAG: edges only point from lower to higher node index, so
    /// acyclicity is structural. Inputs carry releases and outputs carry
    /// deadlines (the builder requires anchored boundaries); interior nodes
    /// get anchors at random.
    fn random_graph(rng: &mut StdRng, n: usize, density: f64) -> TaskGraph {
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        let mut has_pred = vec![false; n];
        let mut has_succ = vec![false; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(density) {
                    edges.push((i, j, rng.gen_range(1..=20)));
                    has_succ[i] = true;
                    has_pred[j] = true;
                }
            }
        }

        let mut b = TaskGraph::builder();
        let ids: Vec<_> = (0..n)
            .map(|v| {
                let mut s = Subtask::new(Time::new(rng.gen_range(1..=50)));
                if !has_pred[v] || rng.gen_bool(0.3) {
                    s = s.released_at(Time::new(rng.gen_range(0..=30)));
                }
                if !has_succ[v] || rng.gen_bool(0.3) {
                    s = s.due_at(Time::new(rng.gen_range(300..=2000)));
                }
                b.add_subtask(s)
            })
            .collect();
        for (i, j, items) in edges {
            b.add_edge(ids[i], ids[j], items)
                .expect("forward edges cannot cycle or duplicate");
        }
        b.build()
            .expect("non-empty graph with anchored inputs/outputs")
    }

    /// A random platform of `nproc` processors: `kind` picks the shared
    /// bus, fully-connected links, a ring or a 2-D mesh (of a random
    /// width dividing `nproc`), all at `cost` per item (and hop).
    fn random_platform(rng: &mut StdRng, nproc: usize, kind: u8, cost: i64) -> Platform {
        let cost = Time::new(cost);
        let topology = match kind {
            0 => Topology::SharedBus {
                cost_per_item: cost,
            },
            1 => Topology::FullyConnected {
                cost_per_item: cost,
            },
            2 => Topology::Ring {
                cost_per_item_hop: cost,
            },
            _ => {
                let widths: Vec<usize> = (1..=nproc).filter(|w| nproc.is_multiple_of(*w)).collect();
                let width = widths[rng.gen_range(0..widths.len())];
                Topology::Mesh2D {
                    width,
                    height: nproc / width,
                    cost_per_item_hop: cost,
                }
            }
        };
        Platform::homogeneous(nproc, topology).expect("fitting topology, cost >= 0")
    }

    /// Pins about 30% of `graph`'s subtasks to random processors.
    fn random_pinning(rng: &mut StdRng, graph: &TaskGraph, nproc: usize) -> Pinning {
        let mut pinning = Pinning::new();
        for id in graph.subtask_ids() {
            if rng.gen_bool(0.3) {
                let p = ProcessorId::new(rng.gen_range(0..nproc as u32));
                pinning.pin(id, p).expect("processor within platform");
            }
        }
        pinning
    }

    fn configured(contention: bool, append: bool, respect: bool) -> ListScheduler {
        ListScheduler::new()
            .with_bus_model(if contention {
                BusModel::Contention
            } else {
                BusModel::Delay
            })
            .with_placement(if append {
                PlacementPolicy::Append
            } else {
                PlacementPolicy::Insertion
            })
            .with_respect_release(respect)
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]

        #[test]
        fn optimized_scheduler_matches_reference(
            seed in 0u64..u64::MAX,
            n in 1usize..=12,
            density in 0.0f64..0.7,
            nproc in 1usize..=16,
            kind in 0u8..4,
            cost in 0i64..=3,
            contention in proptest::bool::ANY,
            append in proptest::bool::ANY,
            respect in proptest::bool::ANY,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = random_graph(&mut rng, n, density);
            let platform = random_platform(&mut rng, nproc, kind, cost);

            // Slicing can reject degenerate windows; those cases exercise
            // nothing scheduler-side, so skip them.
            if let Ok(assignment) = Slicer::bst_pure().distribute(&graph, &platform) {
                let pinning = random_pinning(&mut rng, &graph, nproc);
                let scheduler = configured(contention, append, respect);

                let slow = reference::schedule(&scheduler, &graph, &platform, &assignment, &pinning, None)
                    .expect("reference schedules every valid input");
                let mut ws = SchedWorkspace::new();
                let fast = scheduler
                    .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws)
                    .expect("optimized schedules every valid input");
                prop_assert_eq!(&fast, &slow);

                // The workspace must be reusable: a second run over the same
                // inputs sees only reset buffers, never stale state.
                let again = scheduler
                    .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws)
                    .expect("workspace reuse is deterministic");
                prop_assert_eq!(&again, &slow);
            }
        }

        #[test]
        fn schedule_against_matches_reference(
            seed in 0u64..u64::MAX,
            residents in 1usize..=5,
            nproc in 1usize..=16,
            kind in 0u8..4,
            cost in 0i64..=3,
            contention in proptest::bool::ANY,
            append in proptest::bool::ANY,
            respect in proptest::bool::ANY,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let platform = random_platform(&mut rng, nproc, kind, cost);
            let scheduler = configured(contention, append, respect);
            let mut state = CommittedState::new(nproc, scheduler.bus_model());
            let mut ws = SchedWorkspace::new();

            // Each request is trialled against every earlier one, then
            // committed whatever its lateness, so later trials meet a
            // fragmented base.
            for _ in 0..residents {
                let n = rng.gen_range(1..=10);
                let density = rng.gen_range(0.0..0.6);
                let graph = random_graph(&mut rng, n, density);
                let Ok(assignment) = Slicer::bst_pure().distribute(&graph, &platform) else {
                    continue;
                };
                let pinning = random_pinning(&mut rng, &graph, nproc);
                let slow = reference::schedule(
                    &scheduler,
                    &graph,
                    &platform,
                    &assignment,
                    &pinning,
                    Some(&state),
                )
                .expect("reference schedules every valid input");
                let fast = scheduler
                    .schedule_against(&graph, &platform, &assignment, &pinning, &state, &mut ws)
                    .expect("optimized schedules every valid input");
                prop_assert_eq!(&fast, &slow);
                state.commit(&fast).expect("schedule covers the state's processors");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use slicing::Slicer;
    use taskgraph::Subtask;

    use super::*;

    /// fork: a -> {b, c} -> d, equal weights, configurable messages.
    fn fork_graph(items: u64, deadline: i64) -> TaskGraph {
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(Subtask::new(Time::new(10)).released_at(Time::ZERO));
        let x = b.add_subtask(Subtask::new(Time::new(20)));
        let y = b.add_subtask(Subtask::new(Time::new(20)));
        let d = b.add_subtask(Subtask::new(Time::new(10)).due_at(Time::new(deadline)));
        b.add_edge(a, x, items).unwrap();
        b.add_edge(a, y, items).unwrap();
        b.add_edge(x, d, items).unwrap();
        b.add_edge(y, d, items).unwrap();
        b.build().unwrap()
    }

    fn schedule_fork(
        nproc: usize,
        scheduler: ListScheduler,
    ) -> (TaskGraph, Platform, DeadlineAssignment, Schedule) {
        let g = fork_graph(5, 300);
        let p = Platform::paper(nproc).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let s = scheduler.schedule(&g, &p, &a, &Pinning::new()).unwrap();
        (g, p, a, s)
    }

    #[test]
    fn schedules_all_subtasks_validly() {
        for nproc in [1, 2, 4] {
            for placement in [PlacementPolicy::Insertion, PlacementPolicy::Append] {
                let (g, p, _a, s) =
                    schedule_fork(nproc, ListScheduler::new().with_placement(placement));
                assert!(
                    s.validate(&g, &p, &Pinning::new(), false).is_empty(),
                    "nproc={nproc} placement={}",
                    placement.label()
                );
                assert_eq!(s.entries().len(), 4);
                assert!(s.makespan().is_positive());
            }
        }
    }

    #[test]
    fn single_processor_serializes_everything() {
        let (g, p, _a, s) = schedule_fork(1, ListScheduler::new().with_respect_release(false));
        assert!(s.validate(&g, &p, &Pinning::new(), false).is_empty());
        // 4 subtasks, 60 units of work, no remote messages on 1 processor.
        assert_eq!(s.makespan(), Time::new(60));
        assert_eq!(s.remote_message_count(), 0);
        assert!((s.utilization(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn respects_assigned_release_times() {
        let (g, _p, a, s) = schedule_fork(4, ListScheduler::new());
        for id in g.subtask_ids() {
            assert!(
                s.start(id) >= a.release(id),
                "{id}: start {} < release {}",
                s.start(id),
                a.release(id)
            );
        }
    }

    #[test]
    fn work_conserving_variant_can_start_earlier() {
        let time_driven = schedule_fork(4, ListScheduler::new()).3;
        let eager = schedule_fork(4, ListScheduler::new().with_respect_release(false)).3;
        assert!(eager.makespan() <= time_driven.makespan());
    }

    #[test]
    fn insertion_fills_gaps_append_does_not() {
        // One processor. A long subtask whose window starts late leaves an
        // idle prefix; a short independent subtask released at 0 fits into
        // that prefix only under the insertion policy.
        let mut b = TaskGraph::builder();
        let long = b.add_subtask(
            Subtask::new(Time::new(50))
                .released_at(Time::new(40)) // window opens at 40
                .due_at(Time::new(100)),
        );
        let short = b.add_subtask(
            Subtask::new(Time::new(10))
                .released_at(Time::ZERO)
                .due_at(Time::new(200)),
        );
        let g = b.build().unwrap();
        let p = Platform::paper(1).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        // EDF picks `long` first (deadline 100 < 200); `short` then either
        // slots into the idle prefix [0, 40) or waits until 90.
        let insertion = ListScheduler::new()
            .schedule(&g, &p, &a, &Pinning::new())
            .unwrap();
        assert_eq!(insertion.start(long), Time::new(40));
        assert_eq!(insertion.start(short), Time::ZERO);

        let append = ListScheduler::new()
            .with_placement(PlacementPolicy::Append)
            .schedule(&g, &p, &a, &Pinning::new())
            .unwrap();
        assert_eq!(append.start(long), Time::new(40));
        assert_eq!(append.start(short), Time::new(90));
    }

    #[test]
    fn remote_messages_incur_delay() {
        let g = fork_graph(50, 1000);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let s = ListScheduler::new()
            .with_respect_release(false)
            .schedule(&g, &p, &a, &Pinning::new())
            .unwrap();
        assert!(s.validate(&g, &p, &Pinning::new(), false).is_empty());
        if s.remote_message_count() > 0 {
            let slot = s
                .messages()
                .iter()
                .flatten()
                .next()
                .copied()
                .expect("at least one remote message");
            assert_eq!(slot.arrive - slot.depart, Time::new(50));
        }
    }

    #[test]
    fn pinning_is_respected() {
        let g = fork_graph(5, 500);
        let p = Platform::paper(4).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let mut pins = Pinning::new();
        pins.pin(SubtaskId::new(0), ProcessorId::new(3)).unwrap();
        pins.pin(SubtaskId::new(3), ProcessorId::new(3)).unwrap();
        let s = ListScheduler::new().schedule(&g, &p, &a, &pins).unwrap();
        assert_eq!(s.processor(SubtaskId::new(0)), ProcessorId::new(3));
        assert_eq!(s.processor(SubtaskId::new(3)), ProcessorId::new(3));
        assert!(s.validate(&g, &p, &pins, false).is_empty());
    }

    #[test]
    fn contention_serializes_bus_transfers() {
        let g = fork_graph(30, 2000);
        let p = Platform::paper(4).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let s = ListScheduler::new()
            .with_respect_release(false)
            .with_bus_model(BusModel::Contention)
            .schedule(&g, &p, &a, &Pinning::new())
            .unwrap();
        assert!(
            s.validate(&g, &p, &Pinning::new(), true).is_empty(),
            "bus slots must be exclusive"
        );
    }

    #[test]
    fn workspace_reuse_matches_fresh_allocation() {
        let g = fork_graph(30, 2000);
        let p = Platform::paper(4).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let scheduler = ListScheduler::new().with_bus_model(BusModel::Contention);
        let fresh = scheduler.schedule(&g, &p, &a, &Pinning::new()).unwrap();
        let mut ws = SchedWorkspace::new();
        // Dirty the workspace on an unrelated problem first.
        let other = fork_graph(5, 300);
        let p2 = Platform::paper(2).unwrap();
        let a2 = Slicer::bst_pure().distribute(&other, &p2).unwrap();
        scheduler
            .schedule_with(&other, &p2, &a2, &Pinning::new(), &mut ws)
            .unwrap();
        let reused = scheduler
            .schedule_with(&g, &p, &a, &Pinning::new(), &mut ws)
            .unwrap();
        assert_eq!(reused, fresh);
    }

    #[test]
    fn workspace_reuse_across_shrinking_and_growing_graphs() {
        // Satellite coverage: a workspace cycled big → small → big must
        // produce bit-identical schedules to fresh workspaces each time.
        let scheduler = ListScheduler::new().with_bus_model(BusModel::Contention);
        let mut ws = SchedWorkspace::new();
        let configs = [
            (fork_graph(30, 2000), Platform::paper(8).unwrap()),
            (fork_graph(5, 300), Platform::paper(1).unwrap()),
            (fork_graph(50, 4000), Platform::paper(4).unwrap()),
        ];
        for (g, p) in &configs {
            let a = Slicer::bst_pure().distribute(g, p).unwrap();
            let reused = scheduler
                .schedule_with(g, p, &a, &Pinning::new(), &mut ws)
                .unwrap();
            let fresh = scheduler.schedule(g, p, &a, &Pinning::new()).unwrap();
            assert_eq!(reused, fresh, "graph with {} procs", p.processor_count());
        }
    }

    #[test]
    fn schedule_against_packs_around_committed_load() {
        use crate::CommittedState;

        let g = fork_graph(5, 2000);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let scheduler = ListScheduler::new().with_respect_release(false);
        let mut ws = SchedWorkspace::new();
        let mut state = CommittedState::new(2, BusModel::Delay);

        // Admit the same graph three times; every trial must avoid the
        // reservations of all earlier residents.
        let mut schedules = Vec::new();
        for round in 0..3 {
            let s = scheduler
                .schedule_against(&g, &p, &a, &Pinning::new(), &state, &mut ws)
                .unwrap();
            for entry in s.entries() {
                for &(busy_s, busy_e) in state.processor_busy(entry.processor.index()) {
                    assert!(
                        entry.finish <= busy_s || busy_e <= entry.start,
                        "round {round}: entry [{}, {}) overlaps committed [{busy_s}, {busy_e})",
                        entry.start,
                        entry.finish
                    );
                }
            }
            state.commit(&s).unwrap();
            schedules.push(s);
        }
        assert_eq!(state.residents(), 3);
        // Same graph, same windows: later admissions must finish no earlier.
        assert!(schedules[1].makespan() >= schedules[0].makespan());
        assert!(schedules[2].makespan() >= schedules[1].makespan());
    }

    #[test]
    fn schedule_against_empty_state_matches_schedule_with() {
        use crate::CommittedState;

        for bus in [BusModel::Delay, BusModel::Contention] {
            let g = fork_graph(30, 2000);
            let p = Platform::paper(4).unwrap();
            let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
            let scheduler = ListScheduler::new().with_bus_model(bus);
            let state = CommittedState::new(4, bus);
            let mut ws = SchedWorkspace::new();
            let against = scheduler
                .schedule_against(&g, &p, &a, &Pinning::new(), &state, &mut ws)
                .unwrap();
            let plain = scheduler.schedule(&g, &p, &a, &Pinning::new()).unwrap();
            assert_eq!(against, plain, "bus={bus:?}");
        }
    }

    #[test]
    fn schedule_against_rejects_incompatible_base() {
        use crate::CommittedState;

        let g = fork_graph(5, 2000);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let mut ws = SchedWorkspace::new();

        let wrong_size = CommittedState::new(4, BusModel::Delay);
        assert!(matches!(
            ListScheduler::new().schedule_against(
                &g,
                &p,
                &a,
                &Pinning::new(),
                &wrong_size,
                &mut ws
            ),
            Err(SchedError::BaseMismatch(_))
        ));

        let wrong_bus = CommittedState::new(2, BusModel::Contention);
        assert!(matches!(
            ListScheduler::new().schedule_against(&g, &p, &a, &Pinning::new(), &wrong_bus, &mut ws),
            Err(SchedError::BaseMismatch(_))
        ));
    }

    #[test]
    fn mismatched_assignment_rejected() {
        let other = fork_graph(5, 300);
        let mut b = TaskGraph::builder();
        b.add_subtask(
            Subtask::new(Time::new(1))
                .released_at(Time::ZERO)
                .due_at(Time::new(10)),
        );
        let tiny = b.build().unwrap();
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&other, &p).unwrap();
        // Assignment for the 4-node graph cannot drive the 1-node graph.
        assert!(matches!(
            ListScheduler::new().schedule(&tiny, &p, &a, &Pinning::new()),
            Err(SchedError::AssignmentMismatch { .. })
        ));
    }

    #[test]
    fn invalid_pinning_rejected() {
        let g = fork_graph(5, 300);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let mut pins = Pinning::new();
        pins.pin(SubtaskId::new(0), ProcessorId::new(7)).unwrap();
        assert!(matches!(
            ListScheduler::new().schedule(&g, &p, &a, &pins),
            Err(SchedError::Platform(_))
        ));
    }

    #[test]
    fn deadline_miss_emits_warn_event_naming_the_window() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Capture(Arc<Mutex<Vec<tracing::Event>>>);
        impl tracing::Subscriber for Capture {
            fn enabled(&self, level: tracing::Level, _target: &str) -> bool {
                level <= tracing::Level::Warn
            }
            fn event(&self, event: &tracing::Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }

        // One subtask whose execution time exceeds its end-to-end deadline:
        // the assigned window is [0, 10] but the subtask runs for 50, so the
        // scheduler must report the miss with the offending window.
        let mut b = TaskGraph::builder();
        let only = b.add_subtask(
            Subtask::new(Time::new(50))
                .released_at(Time::ZERO)
                .due_at(Time::new(10)),
        );
        let g = b.build().unwrap();
        let p = Platform::paper(1).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();

        let capture = Capture::default();
        tracing::subscriber::with_default(capture.clone(), || {
            ListScheduler::new()
                .schedule(&g, &p, &a, &Pinning::new())
                .unwrap();
        });

        let events = capture.0.lock().unwrap();
        let miss = events
            .iter()
            .find(|e| e.message == "deadline miss")
            .expect("scheduling past the deadline must emit a warn event");
        assert_eq!(miss.level, tracing::Level::Warn);
        let field = |key: &str| {
            miss.fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
                .unwrap_or_else(|| panic!("missing field `{key}`"))
        };
        assert_eq!(field("subtask"), only.to_string());
        assert_eq!(field("release"), "0");
        assert_eq!(field("deadline"), "10");
        assert_eq!(field("finish"), "50");
        assert_eq!(field("lateness"), "40");
    }

    #[test]
    fn dispatched_event_reports_scanned_candidates() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Capture(Arc<Mutex<Vec<tracing::Event>>>);
        impl tracing::Subscriber for Capture {
            fn enabled(&self, _level: tracing::Level, _target: &str) -> bool {
                true
            }
            fn event(&self, event: &tracing::Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }

        // On an idle 16-processor platform the first processor already
        // starts a subtask at its data-ready floor, so the scan stops
        // short of the 16 candidates offered.
        let g = fork_graph(5, 2000);
        let p = Platform::paper(16).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let capture = Capture::default();
        tracing::subscriber::with_default(capture.clone(), || {
            ListScheduler::new()
                .schedule(&g, &p, &a, &Pinning::new())
                .unwrap();
        });

        let events = capture.0.lock().unwrap();
        let counts: Vec<(usize, usize)> = events
            .iter()
            .filter(|e| e.message == "dispatched")
            .map(|e| {
                let field = |key: &str| {
                    e.fields
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| v.to_string().parse::<usize>().unwrap())
                        .unwrap_or_else(|| panic!("missing field `{key}`"))
                };
                (field("scanned"), field("candidates"))
            })
            .collect();
        assert_eq!(counts.len(), g.subtask_count());
        assert!(counts
            .iter()
            .all(|&(scanned, offered)| (1..=offered).contains(&scanned) && offered == 16));
        assert!(
            counts.iter().any(|&(scanned, offered)| scanned < offered),
            "{counts:?}"
        );
    }

    #[test]
    fn miss_log_rate_limits_deadline_miss_warns() {
        use std::sync::{Arc, Mutex};

        use crate::MissLog;

        #[derive(Clone, Default)]
        struct Capture(Arc<Mutex<Vec<tracing::Event>>>);
        impl tracing::Subscriber for Capture {
            fn enabled(&self, level: tracing::Level, _target: &str) -> bool {
                level <= tracing::Level::Warn
            }
            fn event(&self, event: &tracing::Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }

        // A chain of three subtasks that all run past the end-to-end
        // deadline: three misses per schedule call.
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(Subtask::new(Time::new(50)).released_at(Time::ZERO));
        let c = b.add_subtask(Subtask::new(Time::new(50)));
        let d = b.add_subtask(Subtask::new(Time::new(50)).due_at(Time::new(10)));
        b.add_edge(a, c, 1).unwrap();
        b.add_edge(c, d, 1).unwrap();
        let g = b.build().unwrap();
        let p = Platform::paper(1).unwrap();
        let asg = Slicer::bst_pure().distribute(&g, &p).unwrap();

        let log = Arc::new(MissLog::new(2));
        let mut ws = SchedWorkspace::new();
        ws.set_miss_log(Some(Arc::clone(&log)));

        let capture = Capture::default();
        tracing::subscriber::with_default(capture.clone(), || {
            // Two calls → six misses; only the first two may warn.
            for _ in 0..2 {
                ListScheduler::new()
                    .schedule_with(&g, &p, &asg, &Pinning::new(), &mut ws)
                    .unwrap();
            }
        });

        let warns = capture
            .0
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.message == "deadline miss")
            .count();
        assert_eq!(warns, 2, "only the budgeted warnings may be emitted");
        assert_eq!(log.emitted(), 2);
        assert_eq!(log.suppressed(), 4);

        // Detaching the log restores unlimited warnings.
        ws.set_miss_log(None);
        let capture = Capture::default();
        tracing::subscriber::with_default(capture.clone(), || {
            ListScheduler::new()
                .schedule_with(&g, &p, &asg, &Pinning::new(), &mut ws)
                .unwrap();
        });
        let warns = capture
            .0
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.message == "deadline miss")
            .count();
        assert_eq!(warns, 3);
    }

    #[test]
    fn accessors() {
        let s = ListScheduler::new()
            .with_bus_model(BusModel::Contention)
            .with_respect_release(false)
            .with_placement(PlacementPolicy::Append);
        assert!(!s.respects_release());
        assert_eq!(s.bus_model(), BusModel::Contention);
        assert_eq!(s.placement(), PlacementPolicy::Append);
        // Default matches `new` (C-COMMON-TRAITS).
        assert_eq!(ListScheduler::default(), ListScheduler::new());
        assert!(ListScheduler::new().respects_release());
        assert_eq!(ListScheduler::new().placement(), PlacementPolicy::Insertion);
        assert_eq!(PlacementPolicy::Insertion.label(), "insertion");
        assert_eq!(PlacementPolicy::Append.label(), "append");
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::Insertion);
    }
}
