//! Reusable scratch state for [`ListScheduler`](crate::ListScheduler).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use platform::ProcessorId;
use taskgraph::{SubtaskId, Time};

use crate::misslog::MissLog;
use crate::timeline::Timeline;
use crate::{MessageSlot, ScheduleEntry};

/// Reusable scratch buffers for the list scheduler's workspace-taking
/// entries ([`ListScheduler::schedule_with`] and
/// [`ListScheduler::schedule_against`]).
///
/// [`ListScheduler::schedule_with`]: crate::ListScheduler::schedule_with
/// [`ListScheduler::schedule_against`]: crate::ListScheduler::schedule_against
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
/// A workspace never leaks state into a run — every run fully resets it
/// on entry, so a workspace may be reused freely across different graphs,
/// platforms, scheduler configurations, and even after a panic unwound
/// through a previous call. (The only state that survives a reset is
/// configuration the caller attached deliberately: the optional
/// [`MissLog`] set via [`SchedWorkspace::set_miss_log`].) It is
/// deliberately *not* `Clone`: hand each worker thread its own via
/// [`SchedWorkspace::new`].
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
    /// All platform processors, hoisted once per run so
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
