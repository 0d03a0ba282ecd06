//! Committed platform load for online admission control.
//!
//! A [`CommittedState`] holds the reservations of every *admitted* task
//! graph — one busy-interval timeline per processor plus the shared bus —
//! so that new requests can be trial-scheduled against the platform's
//! current load without disturbing it:
//!
//! * [`ListScheduler::schedule_against`] seeds a workspace from the state
//!   and schedules a graph into the remaining idle time, **read-only** with
//!   respect to the state (a rejected request leaves no trace);
//! * [`CommittedState::commit`] splices an admitted schedule's reservations
//!   into the state and returns a [`CommitReceipt`];
//! * [`CommittedState::rollback`] undoes exactly that commit (amending the
//!   most recent admission), restoring the state bit-for-bit;
//! * [`CommittedState::release`] retires a resident schedule whose
//!   reservations are no longer needed (departure).
//!
//! The state carries an opaque *token* that changes on every mutation and
//! is restored by a rollback. [`ListScheduler::repair_against`] uses the
//! token recorded at trial time to decide whether a workspace's retained
//! dispatch log is still grounded in the present committed load: token
//! equality implies interval-set equality, because fresh tokens are never
//! reused and `rollback` — the only operation that restores one — provably
//! restores the intervals it stamps.
//!
//! [`ListScheduler::schedule_against`]: crate::ListScheduler::schedule_against
//! [`ListScheduler::repair_against`]: crate::ListScheduler::repair_against

use std::sync::atomic::{AtomicU64, Ordering};

use taskgraph::Time;

use crate::bus::BusModel;
use crate::timeline::Timeline;
use crate::{SchedError, Schedule};

/// Process-global source of [`CommittedState`] identities, so stamps from
/// different states can never compare equal.
static NEXT_STATE_ID: AtomicU64 = AtomicU64::new(1);

/// Identity of a committed-load snapshot: which state, at which token.
///
/// Recorded into the workspace provenance by the fresh dispatch run
/// ([`ListScheduler::fresh`](crate::ListScheduler::fresh)) of a
/// [`ListScheduler::schedule_against`](crate::ListScheduler::schedule_against)
/// and compared by the retained-log replay
/// ([`ListScheduler::replay`](crate::ListScheduler::replay)) of a
/// [`ListScheduler::repair_against`](crate::ListScheduler::repair_against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BaseStamp {
    pub(crate) state: u64,
    pub(crate) token: u64,
}

/// Proof of one [`CommittedState::commit`], required to roll it back.
///
/// A receipt is only honoured while its commit is the *latest* mutation of
/// the state; interleaving another commit or release invalidates it (the
/// rollback would no longer restore a state the token ever named).
#[derive(Debug, Clone, Copy)]
pub struct CommitReceipt {
    before: u64,
    after: u64,
}

/// The committed reservations of every admitted task graph on a platform.
///
/// # Examples
///
/// ```
/// use platform::{Pinning, Platform};
/// use sched::{BusModel, CommittedState, LatenessReport, ListScheduler, SchedWorkspace};
/// use slicing::Slicer;
/// use taskgraph::{Subtask, TaskGraph, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TaskGraph::builder();
/// let a = b.add_subtask(Subtask::new(Time::new(10)).released_at(Time::ZERO));
/// let z = b.add_subtask(Subtask::new(Time::new(10)).due_at(Time::new(100)));
/// b.add_edge(a, z, 4)?;
/// let g = b.build()?;
/// let platform = Platform::paper(2)?;
/// let assignment = Slicer::bst_pure().distribute(&g, &platform)?;
///
/// let mut committed = CommittedState::new(2, BusModel::Delay);
/// let scheduler = ListScheduler::new();
/// let mut ws = SchedWorkspace::new();
/// let schedule =
///     scheduler.schedule_against(&g, &platform, &assignment, &Pinning::new(), &committed, &mut ws)?;
/// if LatenessReport::new(&g, &assignment, &schedule).is_feasible() {
///     committed.commit(&schedule)?;
/// }
/// assert_eq!(committed.residents(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CommittedState {
    pub(crate) procs: Vec<Timeline>,
    pub(crate) bus: Timeline,
    bus_model: BusModel,
    id: u64,
    /// Monotonic mutation counter; fresh token values come from here.
    next_token: u64,
    /// Current content token: changes on every mutation, restored only by
    /// [`CommittedState::rollback`] (which provably restores the content).
    token: u64,
    residents: usize,
}

impl CommittedState {
    /// Creates an empty state for a platform with `processors` processors
    /// whose resident schedules were (and will be) produced under `bus`.
    ///
    /// The bus model is part of the state because only
    /// [`BusModel::Contention`] schedules carry exclusive bus reservations;
    /// mixing models would let delay-model message slots shadow bus time
    /// they never arbitrated for.
    pub fn new(processors: usize, bus: BusModel) -> Self {
        CommittedState {
            procs: (0..processors).map(|_| Timeline::new()).collect(),
            bus: Timeline::new(),
            bus_model: bus,
            id: NEXT_STATE_ID.fetch_add(1, Ordering::Relaxed),
            next_token: 0,
            token: 0,
            residents: 0,
        }
    }

    /// Number of processors the state covers.
    pub fn processor_count(&self) -> usize {
        self.procs.len()
    }

    /// The bus model resident schedules were produced under.
    pub fn bus_model(&self) -> BusModel {
        self.bus_model
    }

    /// Number of schedules currently committed.
    pub fn residents(&self) -> usize {
        self.residents
    }

    /// `true` while no reservations are committed.
    pub fn is_empty(&self) -> bool {
        self.procs.iter().all(|tl| tl.busy().is_empty()) && self.bus.busy().is_empty()
    }

    /// The committed busy intervals of processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the platform.
    pub fn processor_busy(&self, p: usize) -> &[(Time, Time)] {
        self.procs[p].busy()
    }

    /// The committed bus reservations (empty under [`BusModel::Delay`]).
    pub fn bus_busy(&self) -> &[(Time, Time)] {
        self.bus.busy()
    }

    /// An order-sensitive FNV-1a digest of every committed interval: equal
    /// digests across snapshots of the *same* state mean equal content.
    /// Used by invariant tests (reject-leaves-no-trace) and replay checks.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: i64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        for tl in self.procs.iter().chain(std::iter::once(&self.bus)) {
            mix(-1);
            for &(s, e) in tl.busy() {
                mix(s.as_i64());
                mix(e.as_i64());
            }
        }
        h
    }

    pub(crate) fn stamp(&self) -> BaseStamp {
        BaseStamp {
            state: self.id,
            token: self.token,
        }
    }

    /// Stamps a fresh, never-reused token after a mutation.
    fn touch(&mut self) {
        self.next_token += 1;
        self.token = self.next_token;
    }

    /// Commits `schedule`'s reservations into the state.
    ///
    /// `schedule` must have been produced by
    /// [`ListScheduler::schedule_against`](crate::ListScheduler::schedule_against)
    /// over this state *at its current token* — its reservations are spliced
    /// in unchecked (debug builds assert non-overlap), so a schedule trialled
    /// against other load would silently double-book the platform.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::BaseMismatch`] if the schedule covers a
    /// different number of processors than the state.
    pub fn commit(&mut self, schedule: &Schedule) -> Result<CommitReceipt, SchedError> {
        self.check_shape(schedule)?;
        let before = self.token;
        for entry in schedule.entries() {
            self.procs[entry.processor.index()].reserve(entry.start, entry.finish - entry.start);
        }
        if self.bus_model == BusModel::Contention {
            for slot in schedule.messages().iter().flatten() {
                self.bus.reserve(slot.depart, slot.arrive - slot.depart);
            }
        }
        self.residents += 1;
        self.touch();
        Ok(CommitReceipt {
            before,
            after: self.token,
        })
    }

    /// Rolls back the commit named by `receipt`, restoring the state —
    /// content *and* token — to the instant before it. Only the latest
    /// commit can be rolled back; this is the amend path of an admission
    /// service (retract the most recent admission, re-trial a changed
    /// version of it, commit again or restore the original).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::RollbackMismatch`] if the state was mutated
    /// since that commit; the reservations are left untouched. Callers then
    /// fall back to [`CommittedState::release`] plus a full re-trial.
    pub fn rollback(
        &mut self,
        schedule: &Schedule,
        receipt: &CommitReceipt,
    ) -> Result<(), SchedError> {
        if self.token != receipt.after {
            return Err(SchedError::RollbackMismatch);
        }
        self.check_shape(schedule)?;
        self.remove(schedule);
        // The commit being undone was the latest mutation, so releasing its
        // reservations restores exactly the content `receipt.before` named;
        // restoring the token re-validates retained workspace state built
        // against it.
        self.token = receipt.before;
        Ok(())
    }

    /// Releases a resident schedule's reservations (departure). Unlike
    /// [`CommittedState::rollback`] this stamps a *fresh* token: the
    /// resulting content is new, so retained workspace state grounded in
    /// any earlier token must re-trial from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::BaseMismatch`] if the schedule covers a
    /// different number of processors than the state.
    pub fn release(&mut self, schedule: &Schedule) -> Result<(), SchedError> {
        self.check_shape(schedule)?;
        self.remove(schedule);
        self.touch();
        Ok(())
    }

    fn remove(&mut self, schedule: &Schedule) {
        for entry in schedule.entries() {
            self.procs[entry.processor.index()].release(entry.start, entry.finish - entry.start);
        }
        if self.bus_model == BusModel::Contention {
            for slot in schedule.messages().iter().flatten() {
                self.bus.release(slot.depart, slot.arrive - slot.depart);
            }
        }
        self.residents = self.residents.saturating_sub(1);
    }

    fn check_shape(&self, schedule: &Schedule) -> Result<(), SchedError> {
        if schedule.processor_count() != self.procs.len() {
            return Err(SchedError::BaseMismatch(format!(
                "schedule covers {} processors but the committed state has {}",
                schedule.processor_count(),
                self.procs.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use platform::{Pinning, Platform};
    use slicing::Slicer;
    use taskgraph::{Subtask, TaskGraph, Time};

    use crate::{ListScheduler, SchedWorkspace};

    use super::*;

    fn chain(wcets: &[i64], deadline: i64) -> TaskGraph {
        let mut b = TaskGraph::builder();
        let mut prev = None;
        for (i, &c) in wcets.iter().enumerate() {
            let mut s = Subtask::new(Time::new(c));
            if i == 0 {
                s = s.released_at(Time::ZERO);
            }
            if i + 1 == wcets.len() {
                s = s.due_at(Time::new(deadline));
            }
            let id = b.add_subtask(s);
            if let Some(p) = prev {
                b.add_edge(p, id, 10).unwrap();
            }
            prev = Some(id);
        }
        b.build().unwrap()
    }

    #[test]
    fn empty_state_reports_empty() {
        let s = CommittedState::new(4, BusModel::Delay);
        assert_eq!(s.processor_count(), 4);
        assert_eq!(s.residents(), 0);
        assert!(s.is_empty());
        assert!(s.processor_busy(0).is_empty());
        assert!(s.bus_busy().is_empty());
        assert_eq!(s.bus_model(), BusModel::Delay);
    }

    #[test]
    fn commit_then_rollback_restores_content_and_token() {
        let g = chain(&[20, 20], 200);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let mut state = CommittedState::new(2, BusModel::Contention);
        let scheduler = ListScheduler::new().with_bus_model(BusModel::Contention);
        let mut ws = SchedWorkspace::new();

        let before_digest = state.digest();
        let before_stamp = state.stamp();
        let schedule = scheduler
            .schedule_against(&g, &p, &a, &Pinning::new(), &state, &mut ws)
            .unwrap();
        // Trialling leaves no trace.
        assert_eq!(state.digest(), before_digest);
        assert_eq!(state.stamp(), before_stamp);

        let receipt = state.commit(&schedule).unwrap();
        assert_eq!(state.residents(), 1);
        assert!(!state.is_empty());
        assert_ne!(state.stamp(), before_stamp);

        state.rollback(&schedule, &receipt).unwrap();
        assert_eq!(state.residents(), 0);
        assert_eq!(state.digest(), before_digest);
        assert_eq!(state.stamp(), before_stamp);
        assert!(state.is_empty());
    }

    #[test]
    fn stale_rollback_rejected_and_leaves_state_untouched() {
        let g = chain(&[10, 10], 200);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let mut state = CommittedState::new(2, BusModel::Delay);
        let scheduler = ListScheduler::new();
        let mut ws = SchedWorkspace::new();

        let s1 = scheduler
            .schedule_against(&g, &p, &a, &Pinning::new(), &state, &mut ws)
            .unwrap();
        let r1 = state.commit(&s1).unwrap();
        let s2 = scheduler
            .schedule_against(&g, &p, &a, &Pinning::new(), &state, &mut ws)
            .unwrap();
        let _r2 = state.commit(&s2).unwrap();

        let digest = state.digest();
        assert!(matches!(
            state.rollback(&s1, &r1),
            Err(SchedError::RollbackMismatch)
        ));
        assert_eq!(state.digest(), digest);
        assert_eq!(state.residents(), 2);
    }

    #[test]
    fn release_frees_time_but_stamps_a_fresh_token() {
        let g = chain(&[10, 10], 200);
        let p = Platform::paper(1).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let mut state = CommittedState::new(1, BusModel::Delay);
        let scheduler = ListScheduler::new();
        let mut ws = SchedWorkspace::new();

        let empty_digest = state.digest();
        let empty_stamp = state.stamp();
        let s = scheduler
            .schedule_against(&g, &p, &a, &Pinning::new(), &state, &mut ws)
            .unwrap();
        state.commit(&s).unwrap();
        state.release(&s).unwrap();
        assert_eq!(state.digest(), empty_digest);
        assert_eq!(state.residents(), 0);
        // Same content, different token: retained trial state must not be
        // trusted after an arbitrary release.
        assert_ne!(state.stamp(), empty_stamp);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = chain(&[10, 10], 200);
        let p = Platform::paper(2).unwrap();
        let a = Slicer::bst_pure().distribute(&g, &p).unwrap();
        let s = ListScheduler::new()
            .schedule(&g, &p, &a, &Pinning::new())
            .unwrap();
        let mut state = CommittedState::new(4, BusModel::Delay);
        assert!(matches!(state.commit(&s), Err(SchedError::BaseMismatch(_))));
        assert!(matches!(
            state.release(&s),
            Err(SchedError::BaseMismatch(_))
        ));
    }

    #[test]
    fn stamps_from_different_states_never_compare_equal() {
        let a = CommittedState::new(1, BusModel::Delay);
        let b = CommittedState::new(1, BusModel::Delay);
        assert_ne!(a.stamp(), b.stamp());
    }
}
