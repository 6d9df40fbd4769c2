//! Bucketed (calendar-queue) round scheduler for the engine hot loop.
//!
//! Wakeups land in one of two places:
//!
//! * a **dense ring** of `window` buckets covering the near future
//!   `[base, base + window)`, indexed by `round & (window - 1)` with an
//!   occupancy bitmap for O(window/64) next-round scans, or
//! * a **sorted overflow spill** for far-future wakeups, kept descending
//!   by round so entries entering the window pop off the tail in O(1).
//!
//! Popping rounds in increasing order therefore never sorts or dedups:
//! buckets keep raw insertion order (possibly with duplicates), and the
//! engine filters duplicates/halted nodes with its per-round stamp when
//! it drains a bucket. The structure is fully reusable: [`clear`] resets
//! it without dropping any bucket capacity.
//!
//! [`clear`]: BucketScheduler::clear

use crate::{NodeId, Round};

/// Number of near-future rounds covered by the dense ring.
const DEFAULT_WINDOW: usize = 512;

/// Insertion-side probe counters of one scheduler: how many wakeups it
/// took, how many spilled past the ring, and the largest bucket seen.
/// Reset by [`BucketScheduler::clear`]; read by the engine when it fills
/// [`crate::telemetry::EngineProbes`] / [`crate::telemetry::EngineStats`]
/// at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SchedStats {
    /// Total [`BucketScheduler::schedule`] calls (duplicates included).
    pub scheduled: u64,
    /// Insertions that landed beyond the ring and spilled to overflow.
    pub spilled: u64,
    /// Largest single-bucket length observed at insertion time.
    pub peak_bucket: u64,
}

/// Calendar queue mapping `Round -> Vec<NodeId>`; see the module docs.
#[derive(Debug)]
pub(crate) struct BucketScheduler {
    /// Ring size; a power of two, at least 64.
    window: usize,
    /// `window` reusable buckets; bucket `round & (window-1)` holds the
    /// wake list of `round` when `round ∈ [base, base + window)`.
    buckets: Vec<Vec<NodeId>>,
    /// Occupancy bitmap over buckets (`window / 64` words).
    occupied: Vec<u64>,
    /// Lower bound of the ring window; every queued entry (ring or
    /// overflow) has `round >= base`. Advances monotonically.
    base: Round,
    /// Total queued entries across ring and overflow.
    pending: usize,
    /// Far-future spill; sorted descending by round when `sorted`.
    overflow: Vec<(Round, NodeId)>,
    sorted: bool,
    /// Minimum round present in `overflow` (`Round::MAX` when empty).
    overflow_min: Round,
    /// Insertion-side probe counters; see [`SchedStats`].
    stats: SchedStats,
}

impl BucketScheduler {
    pub fn new() -> BucketScheduler {
        BucketScheduler::with_window(DEFAULT_WINDOW)
    }

    /// A scheduler with a custom ring size (rounded up to a power of two,
    /// minimum 64). Small windows force the overflow path; tests use this.
    pub fn with_window(window: usize) -> BucketScheduler {
        let window = window.next_power_of_two().max(64);
        BucketScheduler {
            window,
            buckets: (0..window).map(|_| Vec::new()).collect(),
            occupied: vec![0; window / 64],
            base: 0,
            pending: 0,
            overflow: Vec::new(),
            sorted: true,
            overflow_min: Round::MAX,
            stats: SchedStats::default(),
        }
    }

    /// Empties the queue and rewinds `base` to 0, keeping all capacity.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied.fill(0);
        self.base = 0;
        self.pending = 0;
        self.overflow.clear();
        self.sorted = true;
        self.overflow_min = Round::MAX;
        self.stats = SchedStats::default();
    }

    /// Insertion-side probe counters accumulated since the last
    /// [`clear`](BucketScheduler::clear).
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Number of queued entries (counting duplicates).
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Queues node `v` to wake in `round`. Duplicate `(round, v)` pairs
    /// are allowed; the engine dedups with its awake stamp when draining.
    #[inline]
    pub fn schedule(&mut self, round: Round, v: NodeId) {
        debug_assert!(
            round >= self.base,
            "wakeup {round} behind base {}",
            self.base
        );
        self.pending += 1;
        self.stats.scheduled += 1;
        if round - self.base < self.window as u64 {
            let idx = (round & (self.window as u64 - 1)) as usize;
            self.buckets[idx].push(v);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.stats.peak_bucket = self.stats.peak_bucket.max(self.buckets[idx].len() as u64);
        } else {
            self.overflow.push((round, v));
            self.sorted = false;
            self.overflow_min = self.overflow_min.min(round);
            self.stats.spilled += 1;
        }
    }

    /// Earliest queued round without advancing the window — what
    /// [`pop_round`] returns, with no mutation.
    ///
    /// [`pop_round`]: BucketScheduler::pop_round
    fn peek_round(&self) -> Option<Round> {
        if self.pending == 0 {
            return None;
        }
        Some(match (self.scan_ring(), self.overflow_min) {
            (Some(r), o) => r.min(o),
            (None, o) => {
                // Note `o == Round::MAX` is legitimate here when a real
                // round u64::MAX is queued in the spill.
                debug_assert!(!self.overflow.is_empty(), "pending > 0 but nothing queued");
                o
            }
        })
    }

    /// Earliest queued round, advancing the window to it and pulling any
    /// overflow entries that now fall inside the window into the ring.
    /// Returns `None` when the queue is empty.
    pub fn pop_round(&mut self) -> Option<Round> {
        let round = self.peek_round()?;
        self.base = round;
        if self.overflow_min < round.saturating_add(self.window as u64) {
            self.migrate();
        }
        Some(round)
    }

    /// Moves the wake list of `round` out of the ring; the caller drains
    /// it and hands the (cleared) buffer back via [`restore_bucket`] so
    /// its capacity is reused.
    ///
    /// [`restore_bucket`]: BucketScheduler::restore_bucket
    pub fn take_bucket(&mut self, round: Round) -> Vec<NodeId> {
        let idx = (round & (self.window as u64 - 1)) as usize;
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        let bucket = std::mem::take(&mut self.buckets[idx]);
        self.pending -= bucket.len();
        bucket
    }

    /// Returns a drained bucket buffer taken with [`take_bucket`].
    ///
    /// [`take_bucket`]: BucketScheduler::take_bucket
    pub fn restore_bucket(&mut self, round: Round, mut bucket: Vec<NodeId>) {
        bucket.clear();
        let idx = (round & (self.window as u64 - 1)) as usize;
        // Nothing can have landed here in between: an in-window round with
        // this index is `round` itself, and `round + k*window` is outside
        // the window until `base` advances.
        debug_assert!(self.buckets[idx].is_empty());
        self.buckets[idx] = bucket;
    }

    /// Sum of held buffer capacities (the allocation oracle for the
    /// zero-steady-state-allocation test).
    pub fn capacity_signature(&self, out: &mut Vec<usize>) {
        out.push(self.overflow.capacity());
        out.extend(self.buckets.iter().map(Vec::capacity));
    }

    /// First occupied round in `[base, base + window)`, by circular
    /// bitmap scan from `base`'s bucket.
    fn scan_ring(&self) -> Option<Round> {
        let w = self.window;
        let words = w / 64;
        let start = (self.base & (w as u64 - 1)) as usize;
        let (sw, sb) = (start / 64, start % 64);
        for k in 0..=words {
            let wi = (sw + k) % words;
            let mut word = self.occupied[wi];
            if k == 0 {
                word &= !0u64 << sb;
            } else if k == words {
                // Wrapped back to the start word: only bits before `start`.
                word &= (1u64 << sb).wrapping_sub(1);
            }
            if word != 0 {
                let p = wi * 64 + word.trailing_zeros() as usize;
                let dist = (p + w - start) % w;
                return Some(self.base + dist as u64);
            }
        }
        None
    }

    /// Pulls every overflow entry with `round < base + window` into the
    /// ring. Sorts the spill (descending) first if new entries arrived
    /// since the last migration, so in-window entries pop off the tail.
    fn migrate(&mut self) {
        if !self.sorted {
            self.overflow
                .sort_unstable_by_key(|&(r, _)| std::cmp::Reverse(r));
            self.sorted = true;
        }
        let limit = self.base.saturating_add(self.window as u64);
        while let Some(&(r, v)) = self.overflow.last() {
            if r >= limit {
                break;
            }
            self.overflow.pop();
            let idx = (r & (self.window as u64 - 1)) as usize;
            self.buckets[idx].push(v);
            self.occupied[idx / 64] |= 1 << (idx % 64);
        }
        self.overflow_min = self.overflow.last().map_or(Round::MAX, |&(r, _)| r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the scheduler, returning `(round, nodes)` pairs in pop
    /// order. Nodes within a round are sorted: intra-round order is not
    /// part of the contract (the engine is insensitive to it).
    fn drain(s: &mut BucketScheduler) -> Vec<(Round, Vec<NodeId>)> {
        let mut out = Vec::new();
        while let Some(r) = s.pop_round() {
            let b = s.take_bucket(r);
            let mut nodes = b.clone();
            nodes.sort_unstable();
            out.push((r, nodes));
            s.restore_bucket(r, b);
        }
        out
    }

    #[test]
    fn pops_rounds_in_order() {
        let mut s = BucketScheduler::with_window(64);
        s.schedule(5, 1);
        s.schedule(2, 2);
        s.schedule(5, 3);
        s.schedule(0, 4);
        let got = drain(&mut s);
        assert_eq!(got, vec![(0, vec![4]), (2, vec![2]), (5, vec![1, 3])],);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn far_future_spill_fires_in_order() {
        let mut s = BucketScheduler::with_window(64);
        // Mix near, boundary (== base + window), and far-future rounds.
        s.schedule(1_000_000, 9);
        s.schedule(0, 1);
        s.schedule(64, 2); // exactly base + window: spills
        s.schedule(63, 3); // last in-window slot
        s.schedule(100_000, 8);
        s.schedule(1_000_000, 10);
        let got = drain(&mut s);
        assert_eq!(
            got,
            vec![
                (0, vec![1]),
                (63, vec![3]),
                (64, vec![2]),
                (100_000, vec![8]),
                (1_000_000, vec![9, 10]),
            ],
        );
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut s = BucketScheduler::with_window(64);
        s.schedule(0, 0);
        assert_eq!(s.pop_round(), Some(0));
        let b = s.take_bucket(0);
        assert_eq!(b, vec![0]);
        s.restore_bucket(0, b);
        // While at base 0: schedule the same ring index one window later
        // (spills), plus a near round.
        s.schedule(64, 7);
        s.schedule(3, 5);
        assert_eq!(s.pop_round(), Some(3));
        let b = s.take_bucket(3);
        assert_eq!(b, vec![5]);
        s.restore_bucket(3, b);
        assert_eq!(s.pop_round(), Some(64));
        let b = s.take_bucket(64);
        assert_eq!(b, vec![7]);
        s.restore_bucket(64, b);
        assert_eq!(s.pop_round(), None);
    }

    #[test]
    fn duplicates_survive_to_the_bucket() {
        // Dedup is the engine's job (awake stamp); the queue keeps both.
        let mut s = BucketScheduler::with_window(64);
        s.schedule(4, 1);
        s.schedule(4, 1);
        assert_eq!(drain(&mut s), vec![(4, vec![1, 1])]);
    }

    #[test]
    fn clear_resets_base_and_contents() {
        let mut s = BucketScheduler::with_window(64);
        s.schedule(1000, 1);
        s.schedule(3, 2);
        assert_eq!(s.pop_round(), Some(3));
        let b = s.take_bucket(3);
        s.restore_bucket(3, b);
        s.clear();
        assert_eq!(s.pending(), 0);
        assert_eq!(s.pop_round(), None);
        // base rewound: round 0 schedulable again.
        s.schedule(0, 9);
        assert_eq!(drain(&mut s), vec![(0, vec![9])]);
    }

    #[test]
    fn window_wraps_across_many_laps() {
        let mut s = BucketScheduler::with_window(64);
        // Chain: each pop schedules the next wake 40 rounds later, lapping
        // the 64-slot ring many times.
        s.schedule(0, 0);
        let mut expected = 0;
        for _ in 0..100 {
            let r = s.pop_round().expect("chain alive");
            assert_eq!(r, expected);
            let b = s.take_bucket(r);
            assert_eq!(b, vec![0]);
            s.restore_bucket(r, b);
            expected += 40;
            if expected <= 4000 {
                s.schedule(r + 40, 0);
            } else {
                break;
            }
        }
    }

    #[test]
    fn peek_matches_pop_without_mutation() {
        let mut s = BucketScheduler::with_window(64);
        assert_eq!(s.peek_round(), None);
        s.schedule(9, 1);
        s.schedule(500, 2); // overflow spill
        assert_eq!(s.peek_round(), Some(9));
        assert_eq!(s.peek_round(), Some(9), "peek must not advance");
        assert_eq!(s.pop_round(), Some(9));
        let b = s.take_bucket(9);
        s.restore_bucket(9, b);
        // Only the overflow entry remains; peek sees through the spill.
        assert_eq!(s.peek_round(), Some(500));
        assert_eq!(s.pop_round(), Some(500));
        let b = s.take_bucket(500);
        assert_eq!(b, vec![2]);
        s.restore_bucket(500, b);
        assert_eq!(s.peek_round(), None);
    }

    #[test]
    fn stats_count_insertions_spills_and_peaks() {
        let mut s = BucketScheduler::with_window(64);
        s.schedule(4, 1);
        s.schedule(4, 2);
        s.schedule(4, 3); // bucket of 3 — the peak
        s.schedule(9, 4);
        s.schedule(500, 5); // spill
        let st = s.stats();
        assert_eq!(st.scheduled, 5);
        assert_eq!(st.spilled, 1);
        assert_eq!(st.peak_bucket, 3);
        // Draining does not change insertion-side stats.
        let _ = drain(&mut s);
        assert_eq!(s.stats(), st);
        // clear() resets them along with the contents.
        s.clear();
        assert_eq!(s.stats(), SchedStats::default());
    }

    #[test]
    fn overflow_resort_after_new_pushes() {
        let mut s = BucketScheduler::with_window(64);
        s.schedule(500, 1);
        s.schedule(0, 0);
        assert_eq!(s.pop_round(), Some(0));
        let b = s.take_bucket(0);
        s.restore_bucket(0, b);
        // New far-future entries after the first migration check dirty the
        // sorted flag; both spills must still come out in round order.
        s.schedule(300, 2);
        s.schedule(700, 3);
        let got = drain(&mut s);
        assert_eq!(got, vec![(300, vec![2]), (500, vec![1]), (700, vec![3])],);
    }
}
