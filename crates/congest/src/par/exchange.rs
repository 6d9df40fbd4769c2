//! Cross-shard payload hand-off and the one-barrier round agreement.
//!
//! This module owns *all* inter-shard synchronization of a parallel run
//! (the `det-barrier-outside-sync` lint pins that): the sense-reversing
//! [`SpinBarrier`], the fused publish/agree state in [`RoundSync`], and
//! the per-cut-pair sequence-counter hand-off in [`Exchange`].

use crate::{NodeId, Round};
use mis_graphs::EdgeId;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One staged cross-shard delivery: `(receiver-side slot id, destination
/// node, payload)`. The destination rides along because the sender has
/// it loaded already at claim time — without it the receiver would pay
/// two dependent random-access graph lookups (`reverse_edge` then
/// `edge_target`) per cut message on the apply hot path.
pub(crate) type Staged<M> = (EdgeId, NodeId, M);

/// Spins this many times on a stalled wait before yielding the core to
/// the OS scheduler. Busy rounds are microseconds apart, so a short spin
/// usually wins; oversubscribed hosts (more workers than cores — the
/// normal CI shape) fall through to `yield_now` and stay fair.
const SPIN_LIMIT: u32 = 64;

/// A generation-counter (sense-reversing) rendezvous barrier.
///
/// `std::sync::Barrier` parks threads in the kernel on every wait; at one
/// barrier per busy round that syscall round-trip dominates small-graph
/// runs. This barrier spins briefly on a generation counter and only then
/// yields, so the uncontended same-core case costs a few atomic ops.
///
/// Memory ordering: every arriver does an `AcqRel` RMW on `arrived`, so
/// the final arriver's view includes all pre-barrier writes of every
/// thread (the RMW chain forms a release sequence); it then bumps
/// `generation` with `Release`, and the spinners' `Acquire` loads pick
/// the whole set up. Everything before any `wait` therefore
/// happens-before everything after every `wait` — the same guarantee the
/// std barrier gives, without the parking.
#[derive(Debug)]
pub(crate) struct SpinBarrier {
    size: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
}

impl SpinBarrier {
    pub fn new(size: usize) -> SpinBarrier {
        SpinBarrier {
            size: size.max(1),
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Blocks until all `size` threads arrive.
    pub fn wait(&self) {
        let g = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.size {
            // Reset before the generation bump: leavers of *this*
            // barrier observe the bump with Acquire, so their next
            // arrival is ordered after the reset.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(g.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == g {
                spins += 1;
                if spins < SPIN_LIMIT {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Per-cut-pair payload cells moving staged buffers between shards.
///
/// One cell per *directed shard pair that has cut edges* — pairs without
/// cut edges (precomputed by the [`super::partition::ShardPlan`]) get no
/// cell at all, so the exchange footprint scales with the partition's cut
/// structure, not `k²`. The hand-off per cell is a sequence counter plus
/// a double-buffered vector:
///
/// * the sender swaps its staged buffer into the cell (only when
///   non-empty) and then publishes `(participation_count << 1) | payload`
///   to `seq` with `Release`;
/// * the receiver spins on `seq` until the count matches the number of
///   busy rounds the sender has participated in (which it knows from the
///   [`RoundSync`] snapshot), observing the buffer through the `Acquire`
///   load. A clear payload bit skips the cell without ever touching its
///   mutex — the per-round cost of a quiet pair is one atomic load.
///
/// The mutex around the buffer is uncontended by construction (the
/// sequence counter orders the one poster against the one taker, and the
/// round barrier orders round `r`'s take before round `r + 1`'s post);
/// it exists only to keep the workspace `unsafe`-free.
#[derive(Debug)]
pub(crate) struct Exchange<M> {
    cells: Vec<PairCell<M>>,
}

#[derive(Debug)]
struct PairCell<M> {
    /// `(sender participation count << 1) | payload-present`.
    seq: AtomicU64,
    buf: Mutex<Vec<Staged<M>>>,
}

impl<M> Exchange<M> {
    /// One cell per cut pair, each cell's buffer reserved to its pair's
    /// worst-case payload count (`caps`). The reserve keeps the two
    /// ping-pong buffers of a pair (the cell's and the sender's staging
    /// buffer, reserved the same way, which swap on every post) large
    /// enough for any round, so no post ever grows a buffer mid-round.
    pub fn new(caps: impl IntoIterator<Item = usize>) -> Exchange<M> {
        Exchange {
            cells: caps
                .into_iter()
                .map(|cap| PairCell {
                    seq: AtomicU64::new(0),
                    buf: Mutex::new(Vec::with_capacity(cap)),
                })
                .collect(),
        }
    }

    /// Posts a non-empty staged buffer into cell `p` by swapping; `buf`
    /// comes back empty with the cell's old capacity. Visible to the
    /// receiver only after the matching [`Exchange::publish`].
    pub fn post(&self, p: usize, buf: &mut Vec<Staged<M>>) {
        let mut slot = self.cells[p].buf.lock().expect("exchange cell poisoned");
        debug_assert!(slot.is_empty(), "exchange cell {p} not drained");
        std::mem::swap(&mut *slot, buf);
    }

    /// Publishes cell `p`'s sequence number for this busy round:
    /// `count` is the sender's participation count, `payload` whether a
    /// buffer was posted. Senders call this for **every** out-pair on
    /// every busy round they participate in — even when erroring out —
    /// which is what makes [`Exchange::await_seq`] deadlock-free.
    pub fn publish(&self, p: usize, count: u64, payload: bool) {
        self.cells[p]
            .seq
            .store((count << 1) | u64::from(payload), Ordering::Release);
    }

    /// Waits until cell `p`'s sender has published sequence `count`;
    /// returns whether a payload buffer awaits. This is the only
    /// receiver-side synchronization — there is no post-send barrier.
    pub fn await_seq(&self, p: usize, count: u64) -> bool {
        let mut spins = 0u32;
        loop {
            let v = self.cells[p].seq.load(Ordering::Acquire);
            if v >> 1 == count {
                return v & 1 == 1;
            }
            debug_assert!(v >> 1 < count, "exchange cell {p} overran its reader");
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Locks cell `p`'s buffer for draining by the receiving shard.
    pub fn take(&self, p: usize) -> MutexGuard<'_, Vec<Staged<M>>> {
        self.cells[p].buf.lock().expect("exchange cell poisoned")
    }
}

/// Shared round-agreement state of one parallel run — the *one* publish
/// per shard per round that the single barrier orders.
///
/// Each iteration, every shard publishes its whole candidate tuple —
/// earliest pending round, speculatively drained active count, and
/// whether it posted any cross-shard payload last round — then crosses
/// the barrier once and reads everyone's tuples. The arrays are
/// double-buffered by iteration parity: a fast shard publishing its
/// *next* candidate writes the other parity's slots, so it can never
/// clobber values a slower shard is still reading from the current
/// round's snapshot (the barrier separates parity `i` writers from
/// parity `i` readers by a full iteration).
#[derive(Debug)]
pub(crate) struct RoundSync {
    barrier: SpinBarrier,
    k: usize,
    /// `next[parity * k + s]`, valid iff the matching `has_next` is set.
    next: Vec<AtomicU64>,
    /// Whether `next[..]` holds a round at all; a separate flag rather
    /// than a sentinel value, because every `u64` — including
    /// `u64::MAX` — is a legal round a protocol can schedule.
    has_next: Vec<AtomicBool>,
    active: Vec<AtomicUsize>,
    /// Whether shard `s` posted any cross-shard payload in the busy
    /// round *before* this publish (the fast-path detector for
    /// local-only rounds).
    posted: Vec<AtomicBool>,
    /// Whether shard `s` hit an error or caught a protocol panic before
    /// this publish. Part of the snapshot — *not* a free-running flag —
    /// so every shard observes the abort after the same barrier; a
    /// racing global flag would let a slow shard abort one round early
    /// (nondeterministic) and leave faster shards stranded at the next
    /// rendezvous (deadlock).
    failed: Vec<AtomicBool>,
}

impl RoundSync {
    /// Fresh agreement state for `k` workers.
    pub fn new(k: usize) -> RoundSync {
        let slots = 2 * k;
        RoundSync {
            barrier: SpinBarrier::new(k),
            k,
            next: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            has_next: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            active: (0..slots).map(|_| AtomicUsize::new(0)).collect(),
            posted: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            failed: (0..slots).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Blocks until all `k` workers arrive — the round's one rendezvous.
    #[inline]
    pub fn wait(&self) {
        self.barrier.wait();
    }

    /// Publishes shard `s`'s whole per-round tuple into the `parity`
    /// buffer: earliest pending round (`None` = drained), the active
    /// count of that candidate round, whether the shard posted any
    /// cross-shard payload in the previous busy round, and whether it
    /// has hit an error or protocol panic.
    #[inline]
    pub fn publish(
        &self,
        parity: usize,
        s: usize,
        round: Option<Round>,
        active: usize,
        posted: bool,
        failed: bool,
    ) {
        let i = parity * self.k + s;
        self.has_next[i].store(round.is_some(), Ordering::Relaxed);
        self.next[i].store(round.unwrap_or(0), Ordering::Relaxed);
        self.active[i].store(active, Ordering::Relaxed);
        self.posted[i].store(posted, Ordering::Relaxed);
        self.failed[i].store(failed, Ordering::Relaxed);
    }

    fn slots(&self, parity: usize) -> std::ops::Range<usize> {
        parity * self.k..(parity + 1) * self.k
    }

    /// Minimum published round across shards, `None` when all drained.
    pub fn min_next(&self, parity: usize) -> Option<Round> {
        self.slots(parity)
            .filter(|&i| self.has_next[i].load(Ordering::Relaxed))
            .map(|i| self.next[i].load(Ordering::Relaxed))
            .min()
    }

    /// Whether shard `s` published `round` as its earliest pending round
    /// — i.e. whether `s` runs its send half (and bumps its out-pair
    /// sequence counters) in this busy round.
    #[inline]
    pub fn participates(&self, parity: usize, s: usize, round: Round) -> bool {
        let i = parity * self.k + s;
        self.has_next[i].load(Ordering::Relaxed) && self.next[i].load(Ordering::Relaxed) == round
    }

    /// Total awake nodes across the shards participating in `round`.
    pub fn active_for(&self, parity: usize, round: Round) -> usize {
        self.slots(parity)
            .filter(|&i| {
                self.has_next[i].load(Ordering::Relaxed)
                    && self.next[i].load(Ordering::Relaxed) == round
            })
            .map(|i| self.active[i].load(Ordering::Relaxed))
            .sum()
    }

    /// Whether any shard posted a cross-shard payload in the previous
    /// busy round; clear means that round was local-only.
    pub fn any_posted(&self, parity: usize) -> bool {
        self.slots(parity)
            .any(|i| self.posted[i].load(Ordering::Relaxed))
    }

    /// Whether any shard published a failure into this parity's
    /// snapshot; identical for every shard reading after the barrier, so
    /// all workers abort after the same rendezvous.
    pub fn failed(&self, parity: usize) -> bool {
        self.slots(parity)
            .any(|i| self.failed[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn exchange_swap_preserves_capacity() {
        let ex: Exchange<u32> = Exchange::new([16, 16]);
        let mut buf = Vec::with_capacity(16);
        buf.push((3, 1, 7u32));
        ex.post(0, &mut buf);
        ex.publish(0, 1, true);
        assert!(buf.is_empty());
        assert!(ex.await_seq(0, 1), "payload bit lost");
        {
            let mut got = ex.take(0);
            assert_eq!(got.as_slice(), &[(3, 1, 7u32)]);
            got.drain(..);
            // The posted buffer's capacity now sits (drained) in the
            // cell…
            assert!(got.capacity() >= 16, "capacity lost");
        }
        // …and the next round's post swaps it back out to the sender:
        // the two buffers ping-pong, nothing is ever reallocated.
        ex.post(0, &mut buf);
        assert!(buf.capacity() >= 16, "swap returned a bare buffer");
    }

    #[test]
    fn empty_rounds_skip_without_touching_the_cell() {
        let ex: Exchange<u32> = Exchange::new([4]);
        // Three participating rounds with nothing staged: publish-only.
        for count in 1..=3 {
            ex.publish(0, count, false);
            assert!(!ex.await_seq(0, count), "phantom payload");
        }
        // A real payload on round 4 still lands.
        let mut buf = vec![(9, 4, 1u32)];
        ex.post(0, &mut buf);
        ex.publish(0, 4, true);
        assert!(ex.await_seq(0, 4));
        assert_eq!(ex.take(0).as_slice(), &[(9, 4, 1u32)]);
    }

    #[test]
    fn round_sync_min_active_and_participation() {
        let sync = RoundSync::new(3);
        for parity in [0, 1] {
            assert_eq!(sync.min_next(parity), None);
        }
        sync.publish(0, 0, Some(7), 2, false, false);
        sync.publish(0, 1, None, 0, false, false);
        sync.publish(0, 2, Some(4), 5, true, false);
        assert_eq!(sync.min_next(0), Some(4));
        // Only the shards whose candidate *is* the agreed round count
        // toward the active total or participate.
        assert_eq!(sync.active_for(0, 4), 5);
        assert_eq!(sync.active_for(0, 7), 2);
        assert!(sync.participates(0, 2, 4));
        assert!(!sync.participates(0, 0, 4));
        assert!(!sync.participates(0, 1, 4));
        assert!(sync.any_posted(0));
        // The other parity is untouched — that's what lets a fast shard
        // publish its next candidate while a slow one still reads these.
        assert_eq!(sync.min_next(1), None);
        assert!(!sync.any_posted(1));
        // Failure is per parity-snapshot, not a free-running flag: a
        // publish into one parity never aborts readers of the other.
        assert!(!sync.failed(0));
        sync.publish(1, 1, None, 0, false, true);
        assert!(sync.failed(1));
        assert!(!sync.failed(0));
        // A fresh run starts from a clean snapshot.
        let fresh = RoundSync::new(3);
        assert!(!fresh.failed(1));
        assert_eq!(fresh.min_next(0), None);
    }

    #[test]
    fn round_u64_max_is_publishable() {
        let sync = RoundSync::new(2);
        sync.publish(1, 0, Some(u64::MAX), 1, false, false);
        sync.publish(1, 1, None, 0, false, false);
        assert_eq!(sync.min_next(1), Some(u64::MAX));
        assert!(sync.participates(1, 0, u64::MAX));
    }

    #[test]
    fn spin_barrier_rendezvous_and_reuse() {
        let barrier = SpinBarrier::new(4);
        let hits = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 0..50u32 {
                        hits.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Everyone's increment for this round is visible
                        // after the rendezvous — on every reuse.
                        assert!(hits.load(Ordering::Relaxed) >= 4 * (round + 1));
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 200);
    }
}
