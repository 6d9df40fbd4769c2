//! One worker thread's shard: scratch state and the per-shard round loop.
//!
//! # The one-barrier round
//!
//! Each loop iteration crosses exactly one rendezvous. Before it, a shard
//! *speculatively* drains its earliest calendar bucket (safe: a shard's
//! nodes change state only when their own shard participates, so the
//! drain commutes with other shards' rounds) and publishes its whole
//! candidate tuple — pending round, active count, posted-last-round flag
//! — in one [`RoundSync::publish`]. After the barrier every shard reads
//! the same snapshot: the agreed round is the published minimum, the
//! busy/empty decision is the participating shards' active sum, and the
//! previous round's local-only fast path is the OR of the posted flags.
//!
//! The rest of the round runs with **no further barrier**: participants
//! compute + send (local deliveries straight into their claim words and
//! arena, cross payloads staged per cut pair), then bump every
//! out-pair's sequence counter; receivers wait on exactly the counters
//! of the shards the snapshot says participated
//! ([`Exchange::await_seq`]), apply, run the receive half, and loop back
//! to the next publish. The barrier that starts iteration `i + 1` is what
//! orders round `i`'s takes before round `i + 1`'s posts, so each pair
//! cell double-buffers at depth 1.

use super::exchange::{Exchange, RoundSync};
use super::partition::ShardPlan;
use crate::bits::NodeBits;
use crate::channel::FaultPlan;
use crate::engine::{
    claim_word, fit_claims, next_tick, wipe_collision, CrossShard, Inbox, InitApi, Protocol,
    RecvApi, SendApi, SimConfig, Sink,
};
use crate::error::SimError;
use crate::message::Message;
use crate::metrics::Metrics;
use crate::observer::RoundEvent;
use crate::rng;
use crate::sched::BucketScheduler;
use crate::{NodeId, Round};
use mis_graphs::Graph;
use rand::rngs::SmallRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Reusable per-shard buffers, the sharded mirror of
/// [`crate::EngineScratch`]: everything a worker touches per round lives
/// here, sized once and recycled across rounds and runs. Delivery uses
/// the same type-free claim words as the sequential scratch; only the
/// cross-shard staging buffers are typed.
#[derive(Debug)]
pub(crate) struct ShardScratch<M> {
    sched: BucketScheduler,
    /// RNGs of this shard's nodes, re-derived in place per run.
    rngs: Vec<SmallRng>,
    /// Busy-round counter, one increment per globally agreed round. Only
    /// this shard's own `claims` and `out_stamp` are compared against it
    /// (cross-shard payloads are claimed by the receiving shard, with its
    /// tick), so shards' ticks need not agree. On 32-bit wrap-around both
    /// arrays are zeroed together and the tick restarts at 1.
    tick: u32,
    /// Bit `v - node_base` set iff local node `v` has halted.
    halted: NodeBits,
    /// Bit `v - node_base` set iff `v` is awake in this shard's pending
    /// candidate round; set while speculatively draining the bucket,
    /// cleared per active node when that round has been executed (also
    /// consulted by the cross-shard apply step while participating).
    awake: NodeBits,
    /// Awake, non-halted local nodes of the pending candidate round
    /// (global ids); carried across iterations until the candidate is
    /// agreed.
    active: Vec<NodeId>,
    wakes: Vec<Round>,
    /// Claim words of this shard's slot range (the edges of its nodes,
    /// each recording what that neighbor sent the node); receivers
    /// borrow payloads in place from the round's arena through [`Inbox`]
    /// (no per-node inbox buffer).
    claims: Vec<u64>,
    /// Sender-side duplicate-destination ticks (same index space),
    /// consulted only for *cross-shard* sends — local sends reuse the
    /// receiver's claim word like the sequential engine, so this array
    /// stays out of the send half's working set for local traffic.
    out_stamp: Vec<u32>,
    /// Receiver-side sequence expectations, one per in-pair: how many
    /// busy rounds that pair's src shard has participated in so far.
    in_seq: Vec<u64>,
    /// Staging buffers, one per *cut* out-pair (not per shard — pairs
    /// without cut edges have no buffer, no cell, no per-round cost).
    out: Vec<Vec<super::exchange::Staged<M>>>,
}

impl<M: Message> ShardScratch<M> {
    pub fn new() -> ShardScratch<M> {
        ShardScratch {
            sched: BucketScheduler::new(),
            rngs: Vec::new(),
            tick: 0,
            halted: NodeBits::new(),
            awake: NodeBits::new(),
            active: Vec::new(),
            wakes: Vec::new(),
            claims: Vec::new(),
            out_stamp: Vec::new(),
            in_seq: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Resizes for this shard of the plan and resets per-run state; the
    /// tick (and thus both stamp arrays) carries over, as in the
    /// sequential scratch.
    fn fit_to(&mut self, plan: &ShardPlan, shard: usize) {
        let local_n = plan.nodes(shard).len();
        let local_slots = plan.slots(shard).len();
        self.halted.fit(local_n);
        self.awake.fit(local_n);
        fit_claims(&mut self.claims, local_slots);
        if self.out_stamp.len() < local_slots {
            // Zeroed like the claims: only cut edges ever touch it.
            self.out_stamp = vec![0; local_slots];
        }
        let out_pairs = plan.out_pairs(shard);
        self.out.truncate(out_pairs.len());
        self.out.resize_with(out_pairs.len(), Vec::new);
        for (oi, buf) in self.out.iter_mut().enumerate() {
            buf.clear();
            // `reserve_exact(n)` on an empty Vec guarantees capacity for
            // n elements (no-op when already large enough), so staging
            // never reallocates mid-round.
            buf.reserve_exact(plan.pair_capacity(out_pairs.start + oi));
        }
        self.in_seq.clear();
        self.in_seq.resize(plan.in_pairs(shard).len(), 0);
        self.sched.clear();
        self.active.clear();
        self.wakes.clear();
    }

    /// Starts the tick at `tick`, so a test can run rounds across the
    /// 32-bit wrap-around.
    #[cfg(test)]
    pub(crate) fn start_tick_at(&mut self, tick: u32) {
        self.tick = tick;
    }

    /// Buffer capacities for the allocation oracle. Fixed order: RNGs,
    /// halted words, awake words, active list, wake list, claim words,
    /// out stamps, in-pair sequence expectations, staging buffers —
    /// [`ShardScratch::FIXED_BUFFERS`] entries before the
    /// variable-length staging/scheduler tail. (The pre-zero-copy shard
    /// had a per-node inbox buffer here; the three-barrier shard had no
    /// `in_seq`.)
    pub fn capacity_signature(&self, out: &mut Vec<usize>) {
        out.push(self.rngs.capacity());
        self.halted.capacity_signature(out);
        self.awake.capacity_signature(out);
        out.extend([
            self.active.capacity(),
            self.wakes.capacity(),
            self.claims.capacity(),
            self.out_stamp.capacity(),
            self.in_seq.capacity(),
            self.out.capacity(),
        ]);
        out.extend(self.out.iter().map(Vec::capacity));
        self.sched.capacity_signature(out);
    }

    /// Number of scratch buffers before the variable-length tail of
    /// [`ShardScratch::capacity_signature`]; pinned by tests so a retired
    /// buffer cannot silently come back.
    #[allow(dead_code, reason = "test-facing layout pin")]
    pub const FIXED_BUFFERS: usize = 9;
}

/// What one worker hands back: its nodes' final states (in node order),
/// its slice of the metrics, and how the run ended.
pub(crate) struct ShardOutcome<S> {
    pub states: Vec<S>,
    /// `awake_rounds` covers only this shard's nodes; the global
    /// `busy_rounds`/`elapsed_rounds` are identical in every shard (all
    /// observe the same agreed rounds and total active counts).
    pub metrics: Metrics,
    /// This shard's slice of the per-round event stream (empty unless
    /// the run was observed): one entry per globally busy round, in
    /// lockstep across shards, carrying shard-local counts that the
    /// merge step sums into the global [`RoundEvent`] stream.
    pub trace: Vec<RoundEvent>,
    pub error: Option<SimError>,
    /// A panic caught at the protocol boundary, re-raised by the caller.
    pub panic: Option<Box<dyn std::any::Any + Send>>,
    /// This shard's per-configuration stats slice (cut traffic, mailbox
    /// posts, fast-path counters, scheduler peak); merged by
    /// [`super::engine`].
    pub stats: crate::telemetry::EngineStats,
}

/// Runs one shard of a parallel run to completion. All workers execute
/// this same function; cross-shard coordination happens only through
/// `sync` (the per-round publish + rendezvous) and `exchange` (per-pair
/// sequence-counted payload cells).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shard<P: Protocol>(
    shard: usize,
    graph: &Graph,
    plan: &ShardPlan,
    protocol: &P,
    cfg: &SimConfig,
    sync: &RoundSync,
    exchange: &Exchange<P::Msg>,
    scratch: &mut ShardScratch<P::Msg>,
    record_trace: bool,
) -> ShardOutcome<P::State> {
    let nodes = plan.nodes(shard);
    let node_base = nodes.start;
    let node_end = nodes.end;
    let local_n = nodes.len();
    let slot_base = plan.slots(shard).start;
    let out_pairs = plan.out_pairs(shard);
    let in_pairs = plan.in_pairs(shard);
    // The same pure fault plan every shard derives from (seed, salt):
    // channel decisions depend only on (round, edge) / (node, round),
    // never on which shard evaluates them.
    let faults = FaultPlan::new(cfg);

    scratch.fit_to(plan, shard);
    scratch.rngs.clear();
    scratch
        .rngs
        .extend(nodes.clone().map(|v| rng::derive(cfg.seed, cfg.salt, v)));
    let ShardScratch {
        sched,
        rngs,
        tick,
        halted,
        awake,
        active,
        wakes,
        claims,
        out_stamp,
        in_seq,
        out,
    } = scratch;
    // This run's payloads, one round at a time (typed, so not scratch);
    // local sends and the cross-shard apply both push here.
    let mut arena: Vec<P::Msg> = Vec::new();

    let mut metrics = Metrics::new(local_n);
    let mut states: Vec<P::State> = Vec::with_capacity(local_n);
    let mut trace: Vec<RoundEvent> = Vec::new();
    let mut error: Option<SimError> = None;
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    let mut last_round: Option<Round> = None;
    // Per-configuration stats of this shard: cross-shard traffic volume,
    // cell handshakes, and the fast-path skip counters.
    let mut cut_messages: u64 = 0;
    let mut mailbox_posts: u64 = 0;
    let mut exchange_skipped_pairs: u64 = 0;
    let mut local_only_rounds: u64 = 0;
    // How many busy rounds this shard has participated in — the sequence
    // number all of its out-pair cells advance to, together, per round.
    let mut sent_rounds: u64 = 0;

    // Initialization (free local pre-computation), local nodes only.
    for v in nodes.clone() {
        wakes.clear();
        let li = (v - node_base) as usize;
        let mut api = InitApi::new(v, graph, &mut rngs[li], wakes);
        match catch_unwind(AssertUnwindSafe(|| protocol.init(v, &mut api))) {
            Ok(state) => states.push(state),
            Err(p) => {
                // Published as failed in the first tuple below, so every
                // shard aborts after the first rendezvous and no one
                // ever waits on this shard's sequence counters.
                panic = Some(p);
                break;
            }
        }
        for &r in wakes.iter() {
            sched.schedule(r, v);
        }
    }

    // Our drained-but-not-yet-agreed candidate round; `active` holds its
    // awake nodes until it is executed.
    let mut pending: Option<Round> = None;
    // Whether the previous iteration was a busy round / posted payloads
    // (published next iteration; identical across shards by agreement).
    let mut prev_busy = false;
    let mut posted_prev = false;
    let mut iter: u64 = 0;

    loop {
        // Writers of parity p are separated from its readers by a full
        // iteration on either side of the barrier, so a fast shard's
        // next publish never clobbers a slow shard's current snapshot.
        let parity = (iter & 1) as usize;
        iter = iter.wrapping_add(1);

        // Speculative drain: pop our earliest bucket *before* knowing
        // the global round. Safe because only this shard ever mutates
        // its nodes (wakeups are receiver-local, and we sit out every
        // round until this candidate is agreed), and the fault decisions
        // below are pure in (node, candidate round) — so the result is
        // bit-identical to draining after agreement.
        if pending.is_none() && error.is_none() && panic.is_none() {
            if let Some(round) = sched.peek_round() {
                let popped = sched.pop_round();
                debug_assert_eq!(popped, Some(round));
                let bucket = sched.take_bucket(round);
                for &v in &bucket {
                    let li = (v - node_base) as usize;
                    if halted.get(li) || awake.get(li) {
                        metrics.probes.wakeups_deduped += 1;
                        continue;
                    }
                    // Adversary hooks, identical to the sequential
                    // drain: crash halts the node, a forced-sleep window
                    // consumes the wakeup.
                    if faults.crashes(v, round) {
                        halted.set(li);
                        metrics.probes.crash_halts += 1;
                        continue;
                    }
                    if faults.forces_asleep(v, round) {
                        metrics.probes.forced_sleeps += 1;
                        continue;
                    }
                    awake.set(li);
                    active.push(v);
                }
                sched.restore_bucket(round, bucket);
                pending = Some(round);
            }
        }

        // The round's single rendezvous: one publish, one barrier. The
        // failure bit rides in the snapshot so every shard aborts after
        // the *same* barrier (a free-running flag would race: a slow
        // shard could observe a failure one round before its peers and
        // leave them stranded at the next rendezvous).
        sync.publish(
            parity,
            shard,
            pending,
            active.len(),
            posted_prev,
            error.is_some() || panic.is_some(),
        );
        sync.wait();

        // Previous-round fast-path accounting first (every shard reads
        // the same flags, so the counter is identical across shards and
        // covers the final busy round before any break below).
        if prev_busy && !sync.any_posted(parity) {
            local_only_rounds += 1;
        }
        prev_busy = false;
        posted_prev = false;

        if sync.failed(parity) {
            break; // init, send, or recv failed somewhere last round
        }
        let Some(round) = sync.min_next(parity) else {
            break; // every shard drained: the run is complete
        };
        if round >= cfg.max_rounds {
            // All shards compute the same round, so all break here.
            error = Some(SimError::ExceededMaxRounds {
                max_rounds: cfg.max_rounds,
            });
            break;
        }
        let stamp = next_tick(tick, || {
            claims.fill(0);
            out_stamp.fill(0);
        });

        let participating = pending == Some(round);
        let total_active = sync.active_for(parity, round);
        if participating {
            pending = None;
        }
        if total_active == 0 {
            // Everyone woken this round had already halted; no shard
            // sends, so no sequence counter advances either.
            debug_assert!(!participating || active.is_empty());
            continue;
        }
        last_round = Some(round);
        metrics.busy_rounds += 1;
        prev_busy = true;
        // Counter snapshot for this shard's slice of the round event.
        let (sent_before, delivered_before, dropped_before, collisions_before, bits_before) = (
            metrics.messages_sent,
            metrics.messages_delivered,
            metrics.messages_dropped,
            metrics.collisions,
            metrics.bits_sent,
        );
        let all_awake = total_active == graph.n();

        if participating {
            for &v in active.iter() {
                metrics.awake_rounds[(v - node_base) as usize] += 1;
            }
            // Send half: local deliveries claim our edges and push to the
            // arena, cross-shard payloads are staged per cut pair.
            for &v in active.iter() {
                let li = (v - node_base) as usize;
                let sink = Sink {
                    claims: &mut claims[..],
                    arena: &mut arena,
                    awake: &*awake,
                    node_base,
                    node_end,
                    slot_base,
                    cross: Some(CrossShard {
                        out_stamp: &mut out_stamp[..],
                        slot_starts: plan.slot_boundaries(),
                        pair_local: plan.pair_local(shard),
                        out: &mut out[..],
                    }),
                };
                let mut api = SendApi::new(
                    v,
                    round,
                    graph,
                    &mut rngs[li],
                    stamp,
                    sink,
                    all_awake,
                    faults,
                    cfg,
                    &mut error,
                );
                let sent = catch_unwind(AssertUnwindSafe(|| {
                    protocol.send(&mut states[li], &mut api)
                }));
                if let Err(p) = sent {
                    panic = Some(p);
                    break;
                }
                metrics.commit_send(api.into_tally());
                if error.is_some() {
                    break; // mirror the sequential engine's first-error abort
                }
            }
            // Advance every out-pair's sequence counter — *always*, even
            // empty and even when aborting, so a receiver awaiting this
            // round's count can never deadlock. Only non-empty buffers
            // pay the post (the cut-aware fast path).
            sent_rounds += 1;
            for (oi, buf) in out.iter_mut().enumerate() {
                let payload = !buf.is_empty();
                if payload {
                    cut_messages += buf.len() as u64;
                    mailbox_posts += 1;
                    exchange.post(out_pairs.start + oi, buf);
                    posted_prev = true;
                }
                exchange.publish(out_pairs.start + oi, sent_rounds, payload);
            }
            if error.is_some() || panic.is_some() {
                // Peers hold every bump they will wait for; everyone
                // observes the failure flag after the next barrier.
                continue;
            }
        }

        // Apply: drain each participating sender's cell (ascending src
        // order; write order is immaterial — claim words are per
        // directed edge, and sender-side stamps already rejected
        // duplicates). A stored payload *is* the delivery to this
        // shard's node, so delivered counts accrue here — batched once
        // per apply step — and the receive half below does no
        // accounting at all.
        let mut applied: u64 = 0;
        let mut channel_dropped: u64 = 0;
        for (ii, &p) in in_pairs.iter().enumerate() {
            let p = p as usize;
            if !sync.participates(parity, plan.pair_src(p), round) {
                continue; // src sat this round out: no bump, no payload
            }
            in_seq[ii] += 1;
            if !exchange.await_seq(p, in_seq[ii]) {
                // The pair moved nothing this round: skip the cell
                // without locking it.
                exchange_skipped_pairs += 1;
                continue;
            }
            let mut buf = exchange.take(p);
            if participating {
                for (rid, dst, msg) in buf.drain(..) {
                    let li = (dst - node_base) as usize;
                    if all_awake || awake.get(li) {
                        if faults.drops(round, rid) {
                            // Channel loss for a cross-shard delivery:
                            // the receiving shard applies the same pure
                            // (round, rid) decision the sequential
                            // engine made at claim time, at the same
                            // commit point where delivered counts
                            // accrue.
                            channel_dropped += 1;
                        } else {
                            claims[rid - slot_base] = claim_word(stamp, arena.len() as u32);
                            arena.push(msg);
                            applied += 1;
                        }
                    } // else: receiver asleep, payload dropped (as at
                      // send time in the sequential engine — same
                      // round, same loss)
                }
            } else {
                // Not participating means *none* of our nodes are awake
                // this round (our earliest pending round is later), so
                // every payload is lost exactly as a send to a sleeping
                // receiver: uncounted. The awake bits must not be
                // consulted — they describe the future candidate round.
                buf.clear();
            }
        }
        metrics.messages_delivered += applied;
        metrics.messages_dropped += channel_dropped;

        if participating {
            // Radio-collision pass over our local receivers, mirroring
            // the sequential engine's pass between send and recv halves.
            // All deliveries to a node were counted in its own shard's
            // metrics (local sends by the sender's tally here,
            // cross-shard by `applied` above), so decrementing here
            // keeps the merged totals exact.
            if faults.is_collision() {
                for &v in active.iter() {
                    let er = graph.edge_range(v);
                    let local = er.start - slot_base..er.end - slot_base;
                    wipe_collision(&mut claims[local], stamp, &mut metrics);
                }
            }

            // Receive half: each awake local node reacts to a borrowed
            // view of its claim range (ascending sender order by CSR
            // construction); payloads are read in place in the arena,
            // never copied out. Purely shard-local: no one else touches
            // our claims or arena now.
            for &v in active.iter() {
                let li = (v - node_base) as usize;
                let er = graph.edge_range(v);
                let inbox = Inbox::new(
                    &claims[er.start - slot_base..er.end - slot_base],
                    &arena,
                    graph.neighbors(v),
                    stamp,
                );
                wakes.clear();
                let mut halt = false;
                let mut api = RecvApi::new(v, round, graph, &mut rngs[li], wakes, &mut halt);
                let res = catch_unwind(AssertUnwindSafe(|| {
                    protocol.recv(&mut states[li], inbox, &mut api)
                }));
                if let Err(p) = res {
                    // Published in the next tuple, observed by all after
                    // the next barrier; our sequence counters for this
                    // round are already bumped, so no receiver hangs on
                    // us.
                    panic = Some(p);
                    break;
                }
                if halt {
                    halted.set(li);
                } else {
                    for &r in wakes.iter() {
                        sched.schedule(r, v);
                    }
                }
            }
        }
        arena.clear();

        if record_trace {
            // Shard-local slice of this busy round; every shard appends
            // in lockstep (same rounds, same order), so the merge step
            // can sum entry-wise into the global event stream. A
            // non-participating shard contributes an all-zero slice.
            trace.push(RoundEvent {
                round,
                awake: if participating {
                    active.len() as u64
                } else {
                    0
                },
                messages_sent: metrics.messages_sent - sent_before,
                messages_delivered: metrics.messages_delivered - delivered_before,
                messages_dropped: metrics.messages_dropped - dropped_before,
                collisions: metrics.collisions - collisions_before,
                bits_sent: metrics.bits_sent - bits_before,
            });
        }

        if participating {
            // Reset this round's awake bits, touching only active
            // nodes' words, and release the candidate's node list (the
            // next speculative drain refills both).
            for &v in active.iter() {
                awake.clear((v - node_base) as usize);
            }
            active.clear();
        }
    }

    metrics.elapsed_rounds = last_round.map_or(0, |r| r + 1);
    // Scheduler probes mirror the sequential engine: insertion volume
    // and spills sum to the sequential totals across shards (every
    // schedule() happens against base == current round in both engines,
    // and every speculatively drained bucket is eventually agreed on a
    // successful run); the peak bucket is shard-layout dependent and
    // stays in stats.
    let sched_stats = sched.stats();
    metrics.probes.wakeups_scheduled = sched_stats.scheduled;
    metrics.probes.sched_spills = sched_stats.spilled;
    let stats = crate::telemetry::EngineStats {
        shards: 0, // the merge step records the worker count
        cut_messages,
        mailbox_posts,
        exchange_skipped_pairs,
        local_only_rounds,
        cut_slots: 0, // the merge step records the plan-wide value
        peak_bucket: sched_stats.peak_bucket,
    };
    ShardOutcome {
        states,
        metrics,
        trace,
        error,
        panic,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The signature layout is exactly the fixed buffers plus the
    /// variable staging/scheduler tail — pinning that the slice-era
    /// per-node inbox buffer is gone, and that the staging tail is one
    /// buffer per *cut pair*, not per shard.
    #[test]
    fn capacity_signature_is_fixed_buffers_plus_tail() {
        let g = mis_graphs::generators::grid2d(3, 3);
        let mut plan = ShardPlan::new();
        plan.rebuild(&g, 2);
        let mut s: ShardScratch<u32> = ShardScratch::new();
        s.fit_to(&plan, 0);
        let mut sig = Vec::new();
        s.capacity_signature(&mut sig);
        let mut sched_sig = Vec::new();
        s.sched.capacity_signature(&mut sched_sig);
        assert_eq!(
            sig.len(),
            ShardScratch::<u32>::FIXED_BUFFERS + s.out.len() + sched_sig.len()
        );
        // A 2-way split of a connected grid has exactly one out-pair.
        assert_eq!(s.out.len(), 1);
        assert_eq!(s.in_seq.len(), 1);
    }
}
