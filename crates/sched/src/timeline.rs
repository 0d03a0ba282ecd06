//! A reservation timeline for an exclusive resource (a processor or the
//! shared bus): disjoint busy intervals with earliest-gap queries.
//!
//! The interval set is kept sorted, disjoint **and coalesced** — a
//! reservation that touches an existing interval extends it instead of
//! adding a new element. Coalescing never changes what
//! [`earliest_gap`](Timeline::earliest_gap) or
//! [`append_start`](Timeline::append_start) return (merging `[a, b)` and
//! `[b, c)` into `[a, c)` removes no free time and adds none), but it
//! keeps the interval count `K` proportional to the number of *gaps*
//! rather than the number of reservations: a processor packed
//! back-to-back by insertion-based list scheduling collapses to a single
//! interval, so queries and snapshots stay cheap no matter how many
//! subtasks it runs.
//!
//! Queries binary-search for the first relevant interval instead of
//! scanning from the front, and [`reserve`](Timeline::reserve) checks a
//! last-hit hint before searching — the scheduler reserves
//! monotonically-ish (EDF order correlates with time), so the hint makes
//! steady-state inserts `O(1)` comparisons.

use taskgraph::Time;

/// Disjoint, sorted, coalesced busy intervals `[start, end)` on one
/// exclusive resource.
#[derive(Debug, Default)]
pub(crate) struct Timeline {
    busy: Vec<(Time, Time)>,
    /// End of the latest reservation (for append-style allocation).
    horizon: Time,
    /// Index at (or next to) which the previous `reserve` landed: checked
    /// before binary-searching, since consecutive reservations cluster.
    hint: usize,
}

impl Clone for Timeline {
    fn clone(&self) -> Self {
        Timeline {
            busy: self.busy.clone(),
            horizon: self.horizon,
            hint: self.hint,
        }
    }

    /// Reuses the existing interval buffer: the scheduler re-snapshots the
    /// bus timeline for every candidate processor of every dispatch under
    /// the contention model, so this must not allocate once the buffer has
    /// grown.
    fn clone_from(&mut self, source: &Self) {
        self.busy.clone_from(&source.busy);
        self.horizon = source.horizon;
        self.hint = source.hint;
    }
}

impl Timeline {
    pub(crate) fn new() -> Self {
        Timeline::default()
    }

    /// Empties the timeline, keeping the interval buffer's capacity — the
    /// workspace reset between replications.
    pub(crate) fn clear(&mut self) {
        self.busy.clear();
        self.horizon = Time::ZERO;
        self.hint = 0;
    }

    /// The earliest start `t ≥ earliest` such that `[t, t + duration)` is
    /// free. Zero-duration requests are always placeable at `earliest`.
    pub(crate) fn earliest_gap(&self, earliest: Time, duration: Time) -> Time {
        if !duration.is_positive() {
            return earliest;
        }
        // Intervals ending at or before `earliest` cannot constrain the
        // request; binary-search past them instead of scanning.
        let mut idx = self.busy.partition_point(|&(_, e)| e <= earliest);
        let mut candidate = earliest;
        while let Some(&(s, e)) = self.busy.get(idx) {
            if candidate + duration <= s {
                break;
            }
            if e > candidate {
                candidate = e;
            }
            idx += 1;
        }
        candidate
    }

    /// The earliest start `t ≥ earliest` with nothing scheduled earlier
    /// than `t + duration` — append semantics (no gap reuse).
    pub(crate) fn append_start(&self, earliest: Time) -> Time {
        earliest.max(self.horizon)
    }

    /// End of the latest reservation so far.
    #[cfg(test)]
    pub(crate) fn horizon(&self) -> Time {
        self.horizon
    }

    /// Reserves `[start, start + duration)`, coalescing with adjacent
    /// intervals.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the slot overlaps an existing reservation;
    /// callers must query [`earliest_gap`](Self::earliest_gap) or
    /// [`append_start`](Self::append_start) first.
    pub(crate) fn reserve(&mut self, start: Time, duration: Time) {
        if !duration.is_positive() {
            return;
        }
        let end = start + duration;
        self.horizon = self.horizon.max(end);

        // Append fast path: at or past the last interval (the common case
        // for EDF dispatch order and the whole case for append placement).
        if let Some(last) = self.busy.last_mut() {
            if last.1 <= start {
                if last.1 == start {
                    last.1 = end;
                } else {
                    self.busy.push((start, end));
                }
                self.hint = self.busy.len() - 1;
                return;
            }
        } else {
            self.busy.push((start, end));
            self.hint = 0;
            return;
        }

        // General case: find the insertion index — the first interval
        // starting at or after `start` — trying the last-hit hint before
        // binary-searching.
        let hint_ok = self.hint <= self.busy.len()
            && (self.hint == 0 || self.busy[self.hint - 1].0 < start)
            && (self.hint == self.busy.len() || self.busy[self.hint].0 >= start);
        let idx = if hint_ok {
            self.hint
        } else {
            self.busy.partition_point(|&(s, _)| s < start)
        };
        debug_assert!(
            idx == 0 || self.busy[idx - 1].1 <= start,
            "slot overlaps previous reservation"
        );
        debug_assert!(
            idx == self.busy.len() || end <= self.busy[idx].0,
            "slot overlaps next reservation"
        );

        let joins_prev = idx > 0 && self.busy[idx - 1].1 == start;
        let joins_next = idx < self.busy.len() && self.busy[idx].0 == end;
        match (joins_prev, joins_next) {
            (true, true) => {
                // Fills the gap exactly: the neighbours fuse into one.
                self.busy[idx - 1].1 = self.busy[idx].1;
                self.busy.remove(idx);
            }
            (true, false) => self.busy[idx - 1].1 = end,
            (false, true) => self.busy[idx].0 = start,
            (false, false) => self.busy.insert(idx, (start, end)),
        }
        self.hint = idx;
    }

    /// Releases `[start, start + duration)`: any busy time inside the span
    /// becomes free again. Intervals that merely overlap the span are
    /// trimmed; an interval strictly containing it is split in two —
    /// coalescing is undone exactly where the released reservation used to
    /// sit, so the interval set stays sorted, disjoint and canonical
    /// (touching intervals only ever arise from `reserve`, which merges
    /// them).
    ///
    /// Releasing free time is a no-op, as is a non-positive duration. The
    /// horizon is recomputed from the remaining intervals so
    /// [`append_start`](Self::append_start) never points past freed time.
    pub(crate) fn release(&mut self, start: Time, duration: Time) {
        if !duration.is_positive() {
            return;
        }
        let end = start + duration;
        // First interval that extends past `start` — the only candidates
        // that can intersect the released span.
        let first = self.busy.partition_point(|&(_, e)| e <= start);
        let mut idx = first;
        while idx < self.busy.len() && self.busy[idx].0 < end {
            let (s, e) = self.busy[idx];
            if s < start && end < e {
                // Strictly inside: split into the two surviving flanks.
                self.busy[idx].1 = start;
                self.busy.insert(idx + 1, (end, e));
                idx += 2;
            } else if s < start {
                // Overlaps the left edge: keep the prefix.
                self.busy[idx].1 = start;
                idx += 1;
            } else if end < e {
                // Overlaps the right edge: keep the suffix.
                self.busy[idx].0 = end;
                idx += 1;
            } else {
                // Fully covered: the interval disappears.
                self.busy.remove(idx);
            }
        }
        self.horizon = self.busy.last().map_or(Time::ZERO, |&(_, e)| e);
        self.hint = 0;
    }

    /// The sorted, disjoint, coalesced busy intervals.
    pub(crate) fn busy(&self) -> &[(Time, Time)] {
        &self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Time {
        Time::new(x)
    }

    #[test]
    fn gap_in_empty_timeline() {
        let tl = Timeline::new();
        assert_eq!(tl.earliest_gap(t(5), t(10)), t(5));
        assert_eq!(tl.earliest_gap(t(5), t(0)), t(5));
        assert_eq!(tl.append_start(t(3)), t(3));
    }

    #[test]
    fn reservations_block_overlaps() {
        let mut tl = Timeline::new();
        tl.reserve(t(0), t(10));
        assert_eq!(tl.earliest_gap(t(0), t(5)), t(10));
        tl.reserve(t(10), t(5));
        // Adjacent reservations coalesce into one busy interval.
        assert_eq!(tl.busy(), &[(t(0), t(15))]);
        assert_eq!(tl.earliest_gap(t(2), t(1)), t(15));
        assert_eq!(tl.horizon(), t(15));
    }

    #[test]
    fn short_requests_fit_into_gaps_long_ones_do_not() {
        let mut tl = Timeline::new();
        tl.reserve(t(0), t(10));
        tl.reserve(t(30), t(10));
        // A 15-unit request fits between the reservations ...
        assert_eq!(tl.earliest_gap(t(0), t(15)), t(10));
        // ... a 25-unit request must wait until after both.
        assert_eq!(tl.earliest_gap(t(0), t(25)), t(40));
        // Append ignores the gap entirely.
        assert_eq!(tl.append_start(t(0)), t(40));
    }

    #[test]
    fn zero_duration_never_reserves() {
        let mut tl = Timeline::new();
        tl.reserve(t(3), t(0));
        assert!(tl.busy().is_empty());
        assert_eq!(tl.horizon(), t(0));
    }

    #[test]
    fn gap_fill_fuses_neighbours() {
        let mut tl = Timeline::new();
        tl.reserve(t(0), t(10));
        tl.reserve(t(20), t(10));
        tl.reserve(t(40), t(10));
        assert_eq!(tl.busy().len(), 3);
        // Filling [10, 20) exactly fuses the first two intervals ...
        tl.reserve(t(10), t(10));
        assert_eq!(tl.busy(), &[(t(0), t(30)), (t(40), t(50))]);
        // ... and filling [30, 40) collapses everything to one.
        tl.reserve(t(30), t(10));
        assert_eq!(tl.busy(), &[(t(0), t(50))]);
        assert_eq!(tl.horizon(), t(50));
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut tl = Timeline::new();
        tl.reserve(t(0), t(10));
        tl.reserve(t(20), t(5));
        let cap = {
            tl.clear();
            tl.busy.capacity()
        };
        assert!(cap >= 2);
        assert!(tl.busy().is_empty());
        assert_eq!(tl.horizon(), t(0));
        assert_eq!(tl.earliest_gap(t(0), t(100)), t(0));
    }

    /// A naive timeline over a boolean occupancy array: the behavioural
    /// model for the property tests below.
    struct NaiveTimeline {
        occupied: Vec<bool>,
        horizon: i64,
    }

    impl NaiveTimeline {
        fn new(span: usize) -> Self {
            NaiveTimeline {
                occupied: vec![false; span],
                horizon: 0,
            }
        }

        fn earliest_gap(&self, earliest: i64, duration: i64) -> i64 {
            if duration <= 0 {
                return earliest;
            }
            let mut start = earliest;
            let mut u = start;
            while u < start + duration {
                if *self.occupied.get(u as usize).unwrap_or(&false) {
                    start = u + 1;
                }
                u += 1;
            }
            start
        }

        fn append_start(&self, earliest: i64) -> i64 {
            earliest.max(self.horizon)
        }

        fn reserve(&mut self, start: i64, duration: i64) {
            for u in start..start + duration {
                assert!(!self.occupied[u as usize], "model overlap at {u}");
                self.occupied[u as usize] = true;
            }
            if duration > 0 {
                self.horizon = self.horizon.max(start + duration);
            }
        }

        fn release(&mut self, start: i64, duration: i64) {
            for u in start..start + duration {
                self.occupied[u as usize] = false;
            }
            if duration > 0 {
                self.horizon = self.intervals().last().map_or(0, |&(_, e)| e);
            }
        }

        /// The coalesced busy intervals of the occupancy array.
        fn intervals(&self) -> Vec<(i64, i64)> {
            let mut out: Vec<(i64, i64)> = Vec::new();
            for (u, &busy) in self.occupied.iter().enumerate() {
                let u = u as i64;
                if !busy {
                    continue;
                }
                match out.last_mut() {
                    Some(last) if last.1 == u => last.1 = u + 1,
                    _ => out.push((u, u + 1)),
                }
            }
            out
        }
    }

    #[test]
    fn release_splits_a_coalesced_interval() {
        let mut tl = Timeline::new();
        tl.reserve(t(0), t(10));
        tl.reserve(t(10), t(10));
        tl.reserve(t(20), t(10));
        assert_eq!(tl.busy(), &[(t(0), t(30))]);
        // Releasing the middle reservation splits the run back in two.
        tl.release(t(10), t(10));
        assert_eq!(tl.busy(), &[(t(0), t(10)), (t(20), t(30))]);
        assert_eq!(tl.horizon(), t(30));
        assert_eq!(tl.earliest_gap(t(0), t(10)), t(10));
    }

    #[test]
    fn release_exact_interval_removes_it() {
        let mut tl = Timeline::new();
        tl.reserve(t(5), t(10));
        tl.reserve(t(30), t(5));
        tl.release(t(30), t(5));
        assert_eq!(tl.busy(), &[(t(5), t(15))]);
        // Horizon shrinks back to the surviving interval's end.
        assert_eq!(tl.horizon(), t(15));
        assert_eq!(tl.append_start(t(0)), t(15));
    }

    #[test]
    fn release_trims_partial_overlaps() {
        let mut tl = Timeline::new();
        tl.reserve(t(10), t(10));
        tl.reserve(t(30), t(10));
        // The span [15, 35) clips the first interval's tail and the second
        // interval's head.
        tl.release(t(15), t(20));
        assert_eq!(tl.busy(), &[(t(10), t(15)), (t(35), t(40))]);
        assert_eq!(tl.horizon(), t(40));
    }

    #[test]
    fn release_spanning_several_intervals_removes_them_all() {
        let mut tl = Timeline::new();
        tl.reserve(t(0), t(5));
        tl.reserve(t(10), t(5));
        tl.reserve(t(20), t(5));
        tl.release(t(0), t(25));
        assert!(tl.busy().is_empty());
        assert_eq!(tl.horizon(), t(0));
        assert_eq!(tl.earliest_gap(t(0), t(100)), t(0));
    }

    #[test]
    fn release_of_free_time_is_a_noop() {
        let mut tl = Timeline::new();
        tl.reserve(t(10), t(10));
        tl.release(t(30), t(5));
        tl.release(t(0), t(10));
        tl.release(t(5), t(0));
        assert_eq!(tl.busy(), &[(t(10), t(20))]);
        assert_eq!(tl.horizon(), t(20));
    }

    #[test]
    fn reserve_after_release_reuses_the_freed_span() {
        let mut tl = Timeline::new();
        tl.reserve(t(0), t(30));
        tl.release(t(10), t(10));
        let gap = tl.earliest_gap(t(0), t(10));
        assert_eq!(gap, t(10));
        tl.reserve(gap, t(10));
        assert_eq!(tl.busy(), &[(t(0), t(30))]);
        assert_eq!(tl.horizon(), t(30));
    }

    mod properties {
        //! Random reserve/release/query sequences against the boolean-array
        //! model: every query agrees, every mutation leaves the indexed
        //! timeline's (coalesced) intervals equal to the model's occupied
        //! runs — including zero-duration requests, exact gap fills, and
        //! releases that split or clip reservations.

        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use super::*;

        /// Total span the model covers; operations stay well inside it.
        const SPAN: usize = 4_096;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn indexed_timeline_matches_boolean_array_model(
                seed in 0u64..u64::MAX,
                ops in 1usize..=60,
                adjacent_bias in proptest::bool::ANY,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut tl = Timeline::new();
                let mut model = NaiveTimeline::new(SPAN);

                for _ in 0..ops {
                    // Durations of 0 exercise the always-placeable edge
                    // case; an adjacency bias of small earliest values
                    // forces back-to-back reservations that must coalesce.
                    let duration = if rng.gen_bool(0.1) {
                        0
                    } else {
                        rng.gen_range(1..=12)
                    };
                    let earliest = if adjacent_bias {
                        rng.gen_range(0..=8)
                    } else {
                        rng.gen_range(0..=800)
                    };

                    if rng.gen_bool(0.3) {
                        // Release an arbitrary span: it may cover free
                        // time, clip interval edges, or split a coalesced
                        // run down the middle.
                        tl.release(t(earliest), t(duration));
                        model.release(earliest, duration);
                    } else {
                        let fast = tl.earliest_gap(t(earliest), t(duration));
                        let slow = model.earliest_gap(earliest, duration);
                        prop_assert_eq!(fast, t(slow));

                        // Reserve at the reported gap, as the scheduler
                        // does.
                        tl.reserve(fast, t(duration));
                        model.reserve(slow, duration);
                    }

                    prop_assert_eq!(
                        tl.append_start(t(earliest)),
                        t(model.append_start(earliest))
                    );

                    let intervals: Vec<(i64, i64)> = model
                        .intervals()
                        .into_iter()
                        .collect();
                    let busy: Vec<(i64, i64)> = tl
                        .busy()
                        .iter()
                        .map(|&(s, e)| (s.as_i64(), e.as_i64()))
                        .collect();
                    prop_assert_eq!(busy, intervals);
                }
            }
        }
    }
}
