//! Reusable scratch state for [`ListScheduler`](crate::ListScheduler).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use platform::{Platform, ProcessorId};
use taskgraph::{SubtaskId, Time};

use crate::committed::BaseStamp;
use crate::list::ListScheduler;
use crate::misslog::MissLog;
use crate::timeline::Timeline;
use crate::{MessageSlot, ScheduleEntry};

/// Reusable scratch buffers for the list scheduler's workspace-taking
/// entries ([`ListScheduler::schedule_with`],
/// [`ListScheduler::schedule_against`], [`ListScheduler::repair`] and
/// [`ListScheduler::repair_against`]).
///
/// Scheduling a graph needs per-subtask placement state, per-edge message
/// slots, one reservation timeline per processor (plus the bus and a trial
/// snapshot of it), a ready queue, and a handful of smaller buffers. A workspace owns
/// all of them, so a caller that schedules many times — the FEAST runner
/// schedules once per metric per replication, thousands of times per sweep —
/// pays the allocations once and then runs the scheduler allocation-free in
/// steady state: `schedule_with` resizes the buffers to the incoming
/// graph/platform and clears them, reusing every previously grown
/// allocation. The only per-call allocations left are the two `Vec`s handed
/// to the returned [`Schedule`](crate::Schedule), which owns its entries and
/// message slots by value.
///
/// A workspace never leaks state *into* a run — every fresh run fully
/// resets it on entry, so a workspace may be reused freely across different
/// graphs, platforms, scheduler configurations, and even after a panic
/// unwound through a previous call. (The only state that survives a reset
/// is configuration the caller attached deliberately: the optional
/// [`MissLog`] set via [`SchedWorkspace::set_miss_log`].) It *does* retain
/// state **out of** a successful run: the committed timelines, placements,
/// and a dispatch log tagged with the run's provenance, which a repair
/// consumes to rebuild only the suffix of a schedule downstream of a
/// change. A repair that cannot use that state runs fresh and resets it;
/// nothing a later fresh run produces can be affected by it. It is deliberately *not* `Clone`: hand each worker
/// thread its own via [`SchedWorkspace::new`].
///
/// # Examples
///
/// ```
/// use platform::{Pinning, Platform};
/// use rand::SeedableRng;
/// use sched::{ListScheduler, SchedWorkspace};
/// use slicing::Slicer;
/// use taskgraph::gen::{generate, ExecVariation, WorkloadSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = WorkloadSpec::paper(ExecVariation::Mdet);
/// let platform = Platform::paper(8)?;
/// let scheduler = ListScheduler::new();
/// let mut ws = SchedWorkspace::new();
/// for seed in 0..4 {
///     let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
///     let graph = generate(&spec, &mut rng)?;
///     let assignment = Slicer::ast_adapt().distribute(&graph, &platform)?;
///     // Identical output to `schedule`, but buffers are reused.
///     let s = scheduler.schedule_with(&graph, &platform, &assignment, &Pinning::new(), &mut ws)?;
///     assert!(s.validate(&graph, &platform, &Pinning::new(), false).is_empty());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SchedWorkspace {
    /// Per subtask: its committed schedule entry, once dispatched.
    pub(crate) placed: Vec<Option<ScheduleEntry>>,
    /// Per edge: the committed message slot for remote transfers. Handed to
    /// the returned `Schedule` by value (`mem::take`) at the end of a run.
    pub(crate) messages: Vec<Option<MessageSlot>>,
    /// One busy-interval timeline per processor.
    pub(crate) procs: Vec<Timeline>,
    /// The shared-bus timeline (only mutated under contention).
    pub(crate) bus: Timeline,
    /// Snapshot of `bus` used to estimate candidate starts without
    /// committing their reservations.
    pub(crate) trial_bus: Timeline,
    /// Per subtask: number of still-unscheduled predecessors.
    pub(crate) missing_preds: Vec<usize>,
    /// Schedulable subtasks, min-ordered by `(absolute deadline, id)`.
    pub(crate) ready: BinaryHeap<Reverse<(Time, SubtaskId)>>,
    /// All platform processors, hoisted once per fresh run so
    /// unpinned dispatches don't rebuild the candidate list.
    pub(crate) all_procs: Vec<ProcessorId>,
    /// Message slots produced while estimating the current candidate.
    pub(crate) trial_slots: Vec<MessageSlot>,
    /// Message slots of the best candidate so far, spliced in on commit.
    pub(crate) best_slots: Vec<MessageSlot>,
    /// Optional deadline-miss warning budget shared across calls (and,
    /// via `Arc`, across workspaces). Configuration, not scratch: `reset`
    /// leaves it in place.
    pub(crate) miss_log: Option<Arc<MissLog>>,
    /// Commit-ordered record of the last successful run's dispatches —
    /// the replay script [`ListScheduler::replay`] diffs against.
    pub(crate) log: Vec<DispatchRecord>,
    /// What the last successful run ran *on*. `replay` refuses to reuse
    /// retained state unless this matches its inputs exactly.
    pub(crate) provenance: Option<Provenance>,
}

/// One committed dispatch of the last successful run, in commit order:
/// every input of the placement decision that is not derived from earlier
/// placements. If these match (and every earlier dispatch matched), the
/// dispatch is bit-identical by induction and its entry can be kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DispatchRecord {
    /// Which subtask was dispatched at this position.
    pub(crate) subtask: SubtaskId,
    /// The placement lower bound independent of predecessor data: the
    /// assigned release (when respected) joined with the given release.
    pub(crate) static_lb: Time,
    /// Execution time reserved on the winning processor.
    pub(crate) wcet: Time,
    /// The locality constraint in force, if any.
    pub(crate) pinned: Option<ProcessorId>,
}

/// Identity of the problem the retained workspace state belongs to.
/// Everything a dispatch reads that the per-dispatch [`DispatchRecord`]s
/// don't cover: scheduler configuration, the platform (processor count and
/// communication costs), and the exact edge structure with message sizes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Provenance {
    pub(crate) scheduler: ListScheduler,
    pub(crate) platform: Platform,
    pub(crate) subtasks: usize,
    pub(crate) edges: Vec<(u32, u32, u64)>,
    /// The committed-load snapshot [`ListScheduler::fresh`] seeded the run
    /// from: `None` for a run on an empty platform, the base state's stamp
    /// otherwise. [`ListScheduler::replay`] refuses retained state whose
    /// base no longer matches.
    pub(crate) base: Option<BaseStamp>,
}

impl SchedWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SchedWorkspace::default()
    }

    /// Attaches (or with `None`, detaches) a shared [`MissLog`] that
    /// rate-limits the scheduler's per-subtask deadline-miss warnings
    /// across every scheduling call through this workspace. Without
    /// one, every miss warns — the standalone default.
    pub fn set_miss_log(&mut self, log: Option<Arc<MissLog>>) {
        self.miss_log = log;
    }

    /// Sizes every buffer for a `subtasks`/`edges`/`processors` problem and
    /// clears all state left over from the previous run.
    pub(crate) fn reset(&mut self, subtasks: usize, edges: usize, processors: usize) {
        self.placed.clear();
        self.placed.resize(subtasks, None);
        self.messages.clear();
        self.messages.resize(edges, None);
        for tl in &mut self.procs {
            tl.clear();
        }
        self.procs.resize_with(processors, Timeline::new);
        self.bus.clear();
        self.trial_bus.clear();
        self.missing_preds.clear();
        self.ready.clear();
        self.all_procs.clear();
        self.trial_slots.clear();
        self.best_slots.clear();
        self.log.clear();
        self.provenance = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_sizes_and_clears() {
        let mut ws = SchedWorkspace::new();
        ws.reset(3, 2, 4);
        assert_eq!(ws.placed.len(), 3);
        assert_eq!(ws.messages.len(), 2);
        assert_eq!(ws.procs.len(), 4);
        ws.placed[0] = Some(ScheduleEntry {
            subtask: SubtaskId::new(0),
            processor: ProcessorId::new(0),
            start: Time::ZERO,
            finish: Time::new(5),
        });
        ws.ready.push(Reverse((Time::ZERO, SubtaskId::new(0))));
        // Shrinking and growing both land clean.
        ws.reset(1, 0, 2);
        assert_eq!(ws.placed, vec![None]);
        assert!(ws.messages.is_empty());
        assert_eq!(ws.procs.len(), 2);
        assert!(ws.ready.is_empty());
        ws.reset(5, 3, 8);
        assert!(ws.placed.iter().all(Option::is_none));
        assert_eq!(ws.procs.len(), 8);
    }
}
