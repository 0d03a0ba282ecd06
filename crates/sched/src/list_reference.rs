//! The original list scheduler, kept verbatim as the behavioural oracle for
//! the optimized hot path — the `sched` analogue of
//! `slicing::path_search::reference` from the critical-path overhaul.
//!
//! # Equivalence contract
//!
//! [`schedule`] reproduces the pre-overhaul dispatch loop exactly: a
//! `BTreeSet` ready queue walked with iter-then-remove, a candidate list
//! rebuilt per dispatch, a full trial pass (bus snapshot per candidate under
//! every bus model) and a second, committed `start_on` run for the winner.
//! [`RefTimeline`] is the pre-overhaul timeline: linear `earliest_gap`
//! scans from the front and `reserve` keeps every reservation as its own
//! interval — no coalescing, no binary search, no hint.
//!
//! Every candidate processor is evaluated for every dispatch: the oracle
//! has no data-ready floor, so it also checks that the optimized scan's
//! early stop never changes a winner. With a [`CommittedState`] base, the
//! processor and bus timelines start from the base's committed intervals,
//! as [`ListScheduler::schedule_against`] does.
//!
//! The `equivalence` proptest suite in [`super`] (`PROPTEST_CASES` cases,
//! 256 by default) pins the optimized scheduler to this oracle:
//! bit-identical [`Schedule`]s (entries, message slots, processor count —
//! `Schedule` equality covers all three) across random DAGs, 1–16
//! processors on every topology kind, both bus models, both placement
//! policies, pinned/unpinned mixes, both release-time modes, and fresh or
//! committed load. Estimate-once dispatch, interval coalescing, the heap
//! ready queue, the floor stop and workspace reuse are all pure strength
//! reductions; any observable divergence is a bug in the optimized path.
//!
//! This module may be removed once the optimized scheduler has an
//! independent oracle (e.g. a constraint checker proving optimality of each
//! greedy choice); until then it is the specification.

use std::collections::BTreeSet;

use platform::{Pinning, Platform, ProcessorId};
use slicing::DeadlineAssignment;
use taskgraph::{SubtaskId, TaskGraph, Time};

use crate::bus::BusModel;
use crate::{
    CommittedState, ListScheduler, MessageSlot, PlacementPolicy, SchedError, Schedule,
    ScheduleEntry,
};

/// The pre-overhaul reservation timeline: sorted disjoint intervals with a
/// linear `earliest_gap` scan and one interval per reservation.
#[derive(Debug, Default, Clone)]
pub(crate) struct RefTimeline {
    busy: Vec<(Time, Time)>,
    horizon: Time,
}

impl RefTimeline {
    pub(crate) fn new() -> Self {
        RefTimeline::default()
    }

    /// A timeline holding `busy` (sorted, disjoint) as its reservations.
    fn seeded(busy: &[(Time, Time)]) -> Self {
        RefTimeline {
            busy: busy.to_vec(),
            horizon: busy.last().map_or(Time::ZERO, |&(_, end)| end),
        }
    }

    pub(crate) fn earliest_gap(&self, earliest: Time, duration: Time) -> Time {
        if !duration.is_positive() {
            return earliest;
        }
        let mut candidate = earliest;
        for &(start, end) in &self.busy {
            if candidate + duration <= start {
                break;
            }
            if end > candidate {
                candidate = end;
            }
        }
        candidate
    }

    pub(crate) fn append_start(&self, earliest: Time) -> Time {
        earliest.max(self.horizon)
    }

    pub(crate) fn reserve(&mut self, start: Time, duration: Time) {
        if !duration.is_positive() {
            return;
        }
        let end = start + duration;
        let idx = self.busy.partition_point(|&(s, _)| s < start);
        debug_assert!(
            idx == 0 || self.busy[idx - 1].1 <= start,
            "slot overlaps previous reservation"
        );
        debug_assert!(
            idx == self.busy.len() || end <= self.busy[idx].0,
            "slot overlaps next reservation"
        );
        self.busy.insert(idx, (start, end));
        self.horizon = self.horizon.max(end);
    }
}

/// The pre-overhaul `ListScheduler::schedule`: trial pass with a bus
/// snapshot per candidate, then a second committed `start_on` for the
/// winner. Reads the scheduler's configuration through its public
/// accessors, so both implementations answer to the same knobs. With a
/// `base`, the timelines start from its committed reservations (the
/// caller keeps the base's shape and bus model matched to the platform
/// and scheduler).
pub(crate) fn schedule(
    scheduler: &ListScheduler,
    graph: &TaskGraph,
    platform: &Platform,
    assignment: &DeadlineAssignment,
    pinning: &Pinning,
    base: Option<&CommittedState>,
) -> Result<Schedule, SchedError> {
    if assignment.subtask_count() != graph.subtask_count() {
        return Err(SchedError::AssignmentMismatch {
            graph_subtasks: graph.subtask_count(),
            assignment_subtasks: assignment.subtask_count(),
        });
    }
    pinning.validate(graph, platform)?;

    let n = graph.subtask_count();
    let mut placed: Vec<Option<ScheduleEntry>> = vec![None; n];
    let mut messages: Vec<Option<MessageSlot>> = vec![None; graph.edge_count()];
    let (mut procs, mut bus) = match base {
        Some(base) => (
            (0..platform.processor_count())
                .map(|p| RefTimeline::seeded(base.processor_busy(p)))
                .collect(),
            RefTimeline::seeded(base.bus_busy()),
        ),
        None => (
            vec![RefTimeline::new(); platform.processor_count()],
            RefTimeline::new(),
        ),
    };

    let mut missing_preds: Vec<usize> = graph
        .subtask_ids()
        .map(|id| graph.in_edges(id).len())
        .collect();
    let mut ready: BTreeSet<(Time, SubtaskId)> = graph
        .subtask_ids()
        .filter(|&id| missing_preds[id.index()] == 0)
        .map(|id| (assignment.absolute_deadline(id), id))
        .collect();

    let mut candidates: Vec<ProcessorId> = Vec::with_capacity(platform.processor_count());
    let mut trial_bus = RefTimeline::new();

    while let Some(&(deadline, id)) = ready.iter().next() {
        ready.remove(&(deadline, id));

        candidates.clear();
        match pinning.processor_for(id) {
            Some(p) => candidates.push(p),
            None => candidates.extend(platform.processors()),
        }

        let mut best: Option<(Time, ProcessorId)> = None;
        for &p in &candidates {
            trial_bus.clone_from(&bus);
            let start = start_on(
                scheduler,
                graph,
                platform,
                assignment,
                &placed,
                &procs,
                &mut trial_bus,
                None,
                id,
                p,
            )?;
            if best.is_none_or(|(s, _)| start < s) {
                best = Some((start, p));
            }
        }
        let (start, proc) = best.ok_or(SchedError::Unschedulable(id))?;
        let committed_start = start_on(
            scheduler,
            graph,
            platform,
            assignment,
            &placed,
            &procs,
            &mut bus,
            Some(&mut messages),
            id,
            proc,
        )?;
        debug_assert_eq!(committed_start, start, "estimate must match commit");

        let wcet = graph.subtask(id).wcet();
        let finish = start + wcet;
        procs[proc.index()].reserve(start, wcet);
        placed[id.index()] = Some(ScheduleEntry {
            subtask: id,
            processor: proc,
            start,
            finish,
        });

        for succ in graph.successors(id) {
            let slot = &mut missing_preds[succ.index()];
            *slot -= 1;
            if *slot == 0 {
                ready.insert((assignment.absolute_deadline(succ), succ));
            }
        }
    }

    let entries: Result<Vec<ScheduleEntry>, SchedError> = graph
        .subtask_ids()
        .map(|id| placed[id.index()].ok_or(SchedError::Unschedulable(id)))
        .collect();
    Ok(Schedule::new(
        entries?,
        messages,
        platform.processor_count(),
    ))
}

#[allow(clippy::too_many_arguments)]
fn start_on(
    scheduler: &ListScheduler,
    graph: &TaskGraph,
    platform: &Platform,
    assignment: &DeadlineAssignment,
    placed: &[Option<ScheduleEntry>],
    procs: &[RefTimeline],
    bus: &mut RefTimeline,
    mut commit: Option<&mut Vec<Option<MessageSlot>>>,
    id: SubtaskId,
    p: ProcessorId,
) -> Result<Time, SchedError> {
    let mut data_ready = Time::ZERO;
    for &eid in graph.in_edges(id) {
        let edge = graph.edge(eid);
        let producer = placed[edge.src().index()].expect("list order guarantees scheduled preds");
        if producer.processor == p {
            data_ready = data_ready.max(producer.finish);
            continue;
        }
        let cost = platform.comm_cost(producer.processor, p, edge.items())?;
        let depart = match scheduler.bus_model() {
            BusModel::Delay => producer.finish,
            BusModel::Contention => bus.earliest_gap(producer.finish, cost),
        };
        if scheduler.bus_model() == BusModel::Contention {
            bus.reserve(depart, cost);
        }
        let arrive = depart + cost;
        data_ready = data_ready.max(arrive);
        if let Some(messages) = commit.as_deref_mut() {
            messages[eid.index()] = Some(MessageSlot {
                edge: eid,
                from: producer.processor,
                to: p,
                depart,
                arrive,
            });
        }
    }

    let mut lower_bound = data_ready;
    if scheduler.respects_release() {
        lower_bound = lower_bound.max(assignment.release(id));
    }
    if let Some(given) = graph.subtask(id).release() {
        lower_bound = lower_bound.max(given);
    }

    let wcet = graph.subtask(id).wcet();
    let start = match scheduler.placement() {
        PlacementPolicy::Insertion => procs[p.index()].earliest_gap(lower_bound, wcet),
        PlacementPolicy::Append => procs[p.index()].append_start(lower_bound),
    };
    Ok(start)
}
