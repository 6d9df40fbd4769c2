//! The round loop: one shard's scratch, and the loop every run executes.
//!
//! A run splits the graph into `k` contiguous shards and executes
//! [`run_shard`] once per shard. At `k = 1` (every [`SimConfig::threads`]
//! value below 2) the one shard is the whole graph: the loop runs on the
//! calling thread with no rendezvous, exchange, staging or
//! `catch_unwind`, and streams each [`RoundEvent`] to the observer as its
//! round ends. That is the sequential engine.
//!
//! # The one-barrier round (`k ≥ 2`)
//!
//! Each shard runs the loop on its own thread, joined to the others by a
//! [`Link`], and each loop iteration crosses exactly one rendezvous.
//! Before it, a shard *speculatively* drains its earliest calendar bucket
//! (safe: a shard's nodes change state only when their own shard
//! participates, so the drain commutes with other shards' rounds) and
//! publishes its whole candidate tuple — pending round, active count,
//! posted-last-round flag — in one [`RoundSync::publish`]. After the
//! barrier every shard reads the same snapshot: the agreed round is the
//! published minimum, the busy/empty decision is the participating
//! shards' active sum, and the previous round's local-only fast path is
//! the OR of the posted flags. At `k = 1` the same drain simply yields
//! the next round.
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

use super::exchange::{Exchange, RoundSync, Staged};
use super::partition::ShardPlan;
use crate::bits::NodeBits;
use crate::channel::FaultPlan;
use crate::engine::{
    claim_word, fit_claims, next_tick, wipe_collision, CrossShard, Inbox, InitApi, Protocol,
    RecvApi, SendApi, SimConfig, Sink,
};
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::observer::{RoundEvent, RoundObserver};
use crate::rng;
use crate::sched::BucketScheduler;
use crate::telemetry::EngineStats;
use crate::{NodeId, Round};
use mis_graphs::Graph;
use rand::rngs::SmallRng;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Reusable buffers of one shard: everything the loop touches per round
/// lives here, sized once and recycled across rounds and runs.
///
/// The scratch has no message type. Claim words hold a round tick and an
/// arena index, never a payload, so runs whose protocols use different
/// [`Protocol::Msg`] types share one scratch; the payload arena and, at
/// `k ≥ 2`, the cross-shard staging buffers are typed and belong to the
/// run. Ticks only grow, so reuse never clears the O(m) claim array.
#[derive(Debug)]
pub(crate) struct ShardScratch {
    sched: BucketScheduler,
    /// RNGs of this shard's nodes, each derived on its node's first draw
    /// of a run.
    rngs: NodeRngs,
    /// Busy-round counter, carried across runs, so stale claim words
    /// from earlier rounds (or earlier runs) can never match. Only this
    /// shard's own `claims` and `out_stamp` are compared against it
    /// (cross-shard payloads are claimed by the receiving shard, with its
    /// tick), so shards' ticks need not agree. 32 bits, to fit a claim
    /// word's high half; on wrap-around both arrays are zeroed together
    /// and the tick restarts at 1 (see [`next_tick`]).
    tick: u32,
    /// Bit `v - node_base` set iff local node `v` has halted.
    halted: NodeBits,
    /// Bit `v - node_base` set iff `v` is awake in this shard's pending
    /// candidate round (also the duplicate-wakeup filter of the drain);
    /// cleared per active node when that round has been executed.
    awake: NodeBits,
    /// Awake, non-halted local nodes of the pending candidate round;
    /// carried across iterations until the candidate is agreed.
    active: Vec<NodeId>,
    /// Wakeups requested by the node currently in `init`/`recv`.
    wakes: Vec<Round>,
    /// One claim word per edge of this shard's slot range (each records
    /// what that neighbor sent the node, see [`claim_word`]); receivers
    /// borrow payloads in place from the round's arena through [`Inbox`].
    claims: Vec<u64>,
    /// Sender-side duplicate-destination ticks over the same index
    /// space, consulted only for *cross-shard* sends — local sends reuse
    /// the receiver's claim word — so only `k ≥ 2` runs size it.
    out_stamp: Vec<u32>,
}

impl ShardScratch {
    pub(crate) fn new() -> ShardScratch {
        ShardScratch {
            sched: BucketScheduler::new(),
            rngs: NodeRngs::new(),
            tick: 0,
            halted: NodeBits::new(),
            awake: NodeBits::new(),
            active: Vec::new(),
            wakes: Vec::new(),
            claims: Vec::new(),
            out_stamp: Vec::new(),
        }
    }

    /// Resizes for this shard of the plan and resets per-run state. The
    /// tick — and therefore every claim word and out stamp — carries over
    /// untouched: no payload outlives its round, so there is nothing to
    /// wipe.
    pub(crate) fn fit_to(&mut self, plan: &ShardPlan, shard: usize) {
        let nodes = plan.nodes(shard);
        let local_n = nodes.len();
        let local_slots = plan.slots(shard).len();
        self.rngs.fit(nodes.start, local_n);
        self.halted.fit(local_n);
        self.awake.fit(local_n);
        fit_claims(&mut self.claims, local_slots);
        if plan.k() > 1 && self.out_stamp.len() < local_slots {
            // Zeroed like the claims: only cut edges ever touch it.
            self.out_stamp = vec![0; local_slots];
        }
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
    /// derived-RNG words, halted words, awake words, active list, wake
    /// list, claim words, out stamps — [`ShardScratch::FIXED_BUFFERS`]
    /// entries — then the scheduler's buffers.
    pub(crate) fn capacity_signature(&self, out: &mut Vec<usize>) {
        self.rngs.capacity_signature(out);
        self.halted.capacity_signature(out);
        self.awake.capacity_signature(out);
        out.extend([
            self.active.capacity(),
            self.wakes.capacity(),
            self.claims.capacity(),
            self.out_stamp.capacity(),
        ]);
        self.sched.capacity_signature(out);
    }

    /// Number of scratch buffers before the scheduler's entries in
    /// [`ShardScratch::capacity_signature`]; pinned by tests so a retired
    /// buffer (the per-node inbox of the slice-era engine) cannot
    /// silently come back.
    pub(crate) const FIXED_BUFFERS: usize = 8;
}

/// The RNGs of one shard's nodes in one run.
///
/// A node's stream is a pure function of `(seed, salt, node)`, so it
/// need not exist before the node first draws: [`NodeRngs::get`] derives
/// it then, and a node that never draws costs no derivation. A run's
/// entry therefore pays one bitset clear, not one derivation per node.
#[derive(Debug)]
pub(crate) struct NodeRngs {
    /// Slot `v - base` holds node `v`'s RNG while its `derived` bit is
    /// set. Slots only grow, so later runs reuse them.
    slots: Vec<SmallRng>,
    /// Bit `v - base` set iff node `v` has drawn in this run.
    derived: NodeBits,
    /// First node of the shard.
    base: NodeId,
    seed: u64,
    salt: u64,
    /// Derivations in this run: the `rngs_derived` probe.
    count: u64,
}

impl NodeRngs {
    fn new() -> NodeRngs {
        NodeRngs {
            slots: Vec::new(),
            derived: NodeBits::new(),
            base: 0,
            seed: 0,
            salt: 0,
            count: 0,
        }
    }

    /// Covers nodes `base..base + n`, none of them derived. Reserves the
    /// slots in one allocation, untouched until a node draws, so lazy
    /// derivation never reallocates.
    fn fit(&mut self, base: NodeId, n: usize) {
        self.slots.reserve_exact(n.saturating_sub(self.slots.len()));
        self.derived.fit(n);
        self.base = base;
        self.count = 0;
    }

    /// Sets the run's `(seed, salt)`; call after [`NodeRngs::fit`].
    fn key(&mut self, seed: u64, salt: u64) {
        self.seed = seed;
        self.salt = salt;
    }

    /// Node `v`'s RNG, derived from `(seed, salt, v)` on its first draw
    /// of the run.
    #[inline]
    pub(crate) fn get(&mut self, v: NodeId) -> &mut SmallRng {
        let i = (v - self.base) as usize;
        if !self.derived.get(i) {
            self.derive(i, v);
        }
        &mut self.slots[i]
    }

    #[cold]
    #[inline(never)]
    fn derive(&mut self, i: usize, v: NodeId) {
        let fresh = rng::derive(self.seed, self.salt, v);
        if i < self.slots.len() {
            self.slots[i] = fresh;
        } else {
            self.slots.resize(i + 1, fresh);
        }
        self.derived.set(i);
        self.count += 1;
    }

    fn capacity_signature(&self, out: &mut Vec<usize>) {
        out.push(self.slots.capacity());
        self.derived.capacity_signature(out);
    }
}

/// How a shard of a `k ≥ 2` run reaches the other shards: the round
/// agreement and the payload exchange, both shared by every worker.
pub(crate) struct Link<'r, M> {
    pub(crate) shard: usize,
    pub(crate) sync: &'r RoundSync,
    pub(crate) exchange: &'r Exchange<M>,
}

/// Where a shard's per-round events go.
pub(crate) enum Events<'o> {
    /// Nowhere: the run is not observed.
    Off,
    /// To the observer as each round ends (`k = 1`: the shard's counts
    /// are the whole round's).
    Live(&'o mut dyn RoundObserver),
    /// Into [`ShardOutcome::trace`], for the merge step to sum across
    /// shards and replay (`k ≥ 2`).
    Record,
}

/// What one shard hands back: its nodes' final states (in node order),
/// its slice of the metrics, and how the run ended.
pub(crate) struct ShardOutcome<S> {
    pub states: Vec<S>,
    /// `awake_rounds` covers only this shard's nodes; the global
    /// `busy_rounds`/`elapsed_rounds` are identical in every shard (all
    /// observe the same agreed rounds and total active counts).
    pub metrics: Metrics,
    /// This shard's slice of the per-round event stream under
    /// [`Events::Record`]: one entry per globally busy round, in lockstep
    /// across shards, carrying shard-local counts that the merge step
    /// sums into the global [`RoundEvent`] stream.
    pub trace: Vec<RoundEvent>,
    pub error: Option<SimError>,
    /// A panic caught at the protocol boundary (`k ≥ 2` only), re-raised
    /// by the caller.
    pub panic: Option<Box<dyn Any + Send>>,
    /// This shard's per-configuration stats slice (cut traffic, mailbox
    /// posts, fast-path counters, scheduler peak).
    pub stats: EngineStats,
}

/// Calls a protocol callback. A linked shard catches a panic, so that it
/// can publish the failure and shut down with its peers; a lone shard
/// lets the panic unwind straight to the caller.
#[inline(always)]
fn guarded<const LINKED: bool, R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    if LINKED {
        catch_unwind(AssertUnwindSafe(f))
    } else {
        Ok(f())
    }
}

/// Runs shard `link.shard` of `plan` (shard 0 without a link) to
/// completion: the one round loop behind every run. Cross-shard
/// coordination happens only through the link's `sync` (the per-round
/// publish + rendezvous) and `exchange` (per-pair sequence-counted
/// payload cells).
///
/// `LINKED` must be `link.is_some()`. It makes the one-shard loop its own
/// instance, compiled with no unwinding landing pad around the protocol
/// callbacks and with every cross-shard branch dead, so a sequential run
/// executes only the code a sequential loop needs.
pub(crate) fn run_shard<P: Protocol, const LINKED: bool>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    plan: &ShardPlan,
    scratch: &mut ShardScratch,
    link: Option<Link<'_, P::Msg>>,
    mut events: Events<'_>,
) -> ShardOutcome<P::State> {
    debug_assert_eq!(link.is_some(), LINKED);
    let link = link.filter(|_| LINKED);
    let shard = link.as_ref().map_or(0, |l| l.shard);
    let nodes = plan.nodes(shard);
    let node_base = nodes.start;
    let node_end = nodes.end;
    let local_n = nodes.len();
    let slot_base = plan.slots(shard).start;
    // The same pure fault plan every shard derives from (seed, salt):
    // channel decisions depend only on (round, edge) / (node, round),
    // never on which shard evaluates them.
    let faults = FaultPlan::new(cfg);

    scratch.fit_to(plan, shard);
    scratch.rngs.key(cfg.seed, cfg.salt);
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
    } = scratch;
    // This run's payloads, one round at a time: typed, so not scratch;
    // local sends and the cross-shard apply both push here, and it is
    // cleared after every busy round, so its capacity is reused.
    let mut arena: Vec<P::Msg> = Vec::new();
    // Staging buffers, one per *cut* out-pair, each reserved to the
    // pair's worst-case round, so staging never reallocates mid-round;
    // and the receiver-side sequence expectation of each in-pair: how
    // many busy rounds that pair's src shard has participated in so far.
    // A one-shard plan has no pairs, so both stay unallocated.
    let mut out: Vec<Vec<Staged<P::Msg>>> = plan
        .out_pairs(shard)
        .map(|p| Vec::with_capacity(plan.pair_capacity(p)))
        .collect();
    let mut in_seq = vec![0u64; plan.in_pairs(shard).len()];

    let mut metrics = Metrics::new(local_n);
    let mut states: Vec<P::State> = Vec::with_capacity(local_n);
    let mut trace: Vec<RoundEvent> = Vec::new();
    let mut error: Option<SimError> = None;
    let mut panic: Option<Box<dyn Any + Send>> = None;
    let mut last_round: Option<Round> = None;
    // Cross-shard traffic volume, cell handshakes, fast-path skips.
    let mut stats = EngineStats::default();
    // How many busy rounds this shard has participated in — the sequence
    // number all of its out-pair cells advance to, together, per round.
    let mut sent_rounds: u64 = 0;

    // Initialization: free local pre-computation, may request wakeups.
    for v in nodes.clone() {
        wakes.clear();
        let mut api = InitApi::new(v, graph, rngs, wakes);
        match guarded::<LINKED, _>(|| protocol.init(v, &mut api)) {
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

        // Drain our earliest bucket: the awake bit dedups repeated
        // wakeups and the halted bit drops dead nodes; no sort needed
        // (processing order within a round is unobservable — per-node
        // RNGs, slot-indexed delivery). At `k ≥ 2` this is speculative,
        // *before* the global round is known: safe because only this
        // shard ever mutates its nodes (wakeups are receiver-local, and
        // we sit out every round until this candidate is agreed), and the
        // fault decisions below are pure in (node, candidate round) — so
        // the result is bit-identical to draining after agreement.
        if pending.is_none() && error.is_none() && panic.is_none() {
            if let Some(round) = sched.pop_round() {
                let bucket = sched.take_bucket(round);
                for &v in &bucket {
                    let li = (v - node_base) as usize;
                    if halted.get(li) || awake.get(li) {
                        metrics.probes.wakeups_deduped += 1;
                        continue;
                    }
                    // Adversarial channel: a crash kills the node at its
                    // next wakeup on or after the crash round; a
                    // forced-sleep window consumes the wakeup (the node
                    // misses the round entirely, spending no energy).
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

        // Agree on the round. Alone, ours is the round. Linked, the
        // round's single rendezvous: one publish, one barrier. The
        // failure bit rides in the snapshot so every shard aborts after
        // the *same* barrier (a free-running flag would race: a slow
        // shard could observe a failure one round before its peers and
        // leave them stranded at the next rendezvous).
        let (round, total_active) = match &link {
            None => match pending {
                Some(round) => (round, active.len()),
                None => break, // drained, or failed last round
            },
            Some(l) => {
                let sync = l.sync;
                sync.publish(
                    parity,
                    shard,
                    pending,
                    active.len(),
                    posted_prev,
                    error.is_some() || panic.is_some(),
                );
                sync.wait();
                // Previous-round fast-path accounting first (every shard
                // reads the same flags, so the counter is identical across
                // shards and covers the final busy round before any break
                // below).
                if prev_busy && !sync.any_posted(parity) {
                    stats.local_only_rounds += 1;
                }
                prev_busy = false;
                posted_prev = false;
                if sync.failed(parity) {
                    break; // init, send, or recv failed somewhere last round
                }
                let Some(round) = sync.min_next(parity) else {
                    break; // every shard drained: the run is complete
                };
                (round, sync.active_for(parity, round))
            }
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
            // Send half: each send claims its edge and pushes its payload
            // to the arena, or is staged per cut pair for another shard;
            // each node's CONGEST accounting is tallied locally and
            // committed to the metrics in one batch per node, not one
            // update per message.
            for &v in active.iter() {
                let li = (v - node_base) as usize;
                let sink = Sink {
                    claims: &mut claims[..],
                    arena: &mut arena,
                    awake: &*awake,
                    node_base,
                    node_end,
                    slot_base,
                    cross: link.as_ref().map(|l| CrossShard {
                        out_stamp: &mut out_stamp[..],
                        slot_starts: plan.slot_boundaries(),
                        pair_local: plan.pair_local(l.shard),
                        out: &mut out[..],
                    }),
                };
                let mut api = SendApi::new(
                    v, round, graph, rngs, stamp, sink, all_awake, faults, cfg, &mut error,
                );
                if let Err(p) = guarded::<LINKED, _>(|| protocol.send(&mut states[li], &mut api)) {
                    panic = Some(p);
                    break;
                }
                metrics.commit_send(api.into_tally());
                if error.is_some() {
                    break; // the first error aborts the run
                }
            }
            if let Some(l) = &link {
                // Advance every out-pair's sequence counter — *always*,
                // even empty and even when aborting, so a receiver
                // awaiting this round's count can never deadlock. Only
                // non-empty buffers pay the post (the cut-aware fast
                // path).
                sent_rounds += 1;
                for (p, buf) in plan.out_pairs(shard).zip(out.iter_mut()) {
                    let payload = !buf.is_empty();
                    if payload {
                        stats.cut_messages += buf.len() as u64;
                        stats.mailbox_posts += 1;
                        l.exchange.post(p, buf);
                        posted_prev = true;
                    }
                    l.exchange.publish(p, sent_rounds, payload);
                }
            }
            if error.is_some() || panic.is_some() {
                // Alone, the next iteration drains nothing and stops.
                // Linked, peers hold every bump they will wait for, and
                // everyone observes the failure after the next barrier.
                continue;
            }
        }

        if let Some(l) = &link {
            // Apply: drain each participating sender's cell (ascending
            // src order; write order is immaterial — claim words are per
            // directed edge, and sender-side stamps already rejected
            // duplicates). A stored payload *is* the delivery to this
            // shard's node, so delivered counts accrue here — batched
            // once per apply step — and the receive half below does no
            // accounting at all.
            let mut applied: u64 = 0;
            let mut channel_dropped: u64 = 0;
            for (&p, seq) in plan.in_pairs(shard).iter().zip(in_seq.iter_mut()) {
                let p = p as usize;
                if !l.sync.participates(parity, plan.pair_src(p), round) {
                    continue; // src sat this round out: no bump, no payload
                }
                *seq += 1;
                if !l.exchange.await_seq(p, *seq) {
                    // The pair moved nothing this round: skip the cell
                    // without locking it.
                    stats.exchange_skipped_pairs += 1;
                    continue;
                }
                let mut buf = l.exchange.take(p);
                if participating {
                    for (rid, dst, msg) in buf.drain(..) {
                        let li = (dst - node_base) as usize;
                        if all_awake || awake.get(li) {
                            if faults.drops(round, rid) {
                                // Channel loss for a cross-shard delivery:
                                // the receiving shard applies the same
                                // pure (round, rid) decision a local send
                                // makes at claim time, at the same commit
                                // point where delivered counts accrue.
                                channel_dropped += 1;
                            } else {
                                claims[rid - slot_base] = claim_word(stamp, arena.len() as u32);
                                arena.push(msg);
                                applied += 1;
                            }
                        } // else: receiver asleep, payload dropped (as a
                          // local send to a sleeper is — same round, same
                          // loss)
                    }
                } else {
                    // Not participating means *none* of our nodes are
                    // awake this round (our earliest pending round is
                    // later), so every payload is lost exactly as a send
                    // to a sleeping receiver: uncounted. The awake bits
                    // must not be consulted — they describe the future
                    // candidate round.
                    buf.clear();
                }
            }
            metrics.messages_delivered += applied;
            metrics.messages_dropped += channel_dropped;
        }

        if participating {
            // Radio-collision pass: between the send half (all claims
            // written) and the receive half, each receiver that heard
            // ≥ 2 simultaneous transmissions loses them all. All
            // deliveries to a node were counted in its own shard's
            // metrics (local sends by the sender's tally, cross-shard by
            // `applied` above), so decrementing here keeps the merged
            // totals exact.
            if faults.is_collision() {
                for &v in active.iter() {
                    let er = graph.edge_range(v);
                    let local = er.start - slot_base..er.end - slot_base;
                    wipe_collision(&mut claims[local], stamp, &mut metrics);
                }
            }

            // Receive half: each awake node reacts to a borrowed view of
            // its claim range (ascending sender order by CSR
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
                let mut api = RecvApi::new(v, round, graph, rngs, wakes, &mut halt);
                let received =
                    guarded::<LINKED, _>(|| protocol.recv(&mut states[li], inbox, &mut api));
                if let Err(p) = received {
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

        if !matches!(events, Events::Off) {
            // A non-participating shard contributes an all-zero slice;
            // recording shards append in lockstep (same rounds, same
            // order), so the merge step can sum entry-wise.
            let event = RoundEvent {
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
            };
            match &mut events {
                Events::Live(observer) => observer.on_round(&event),
                _ => trace.push(event),
            }
        }

        if participating {
            // Reset this round's awake bits, touching only active nodes'
            // words (sparse rounds stay O(active)), and release the
            // candidate's node list (the next drain refills both).
            for &v in active.iter() {
                awake.clear((v - node_base) as usize);
            }
            active.clear();
        }
    }

    metrics.elapsed_rounds = last_round.map_or(0, |r| r + 1);
    // Scheduler probes: insertion volume and spills are thread-invariant
    // (every schedule() happens against base == current round, and every
    // drained bucket is eventually agreed on a successful run), so they
    // sum across shards to the one-shard totals; the peak bucket depends
    // on the shard layout, so it lands in the per-configuration stats.
    let sched_stats = sched.stats();
    metrics.probes.wakeups_scheduled = sched_stats.scheduled;
    metrics.probes.sched_spills = sched_stats.spilled;
    // Each node derives at most once per run, whichever shard owns it.
    metrics.probes.rngs_derived = rngs.count;
    stats.peak_bucket = sched_stats.peak_bucket;
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
    /// scheduler's entries — pinning that the slice-era per-node inbox
    /// buffer is gone, and that no typed staging buffer lives in the
    /// scratch any more.
    #[test]
    fn capacity_signature_is_fixed_buffers_plus_tail() {
        let g = mis_graphs::generators::grid2d(3, 3);
        let mut plan = ShardPlan::new();
        plan.rebuild(&g, 2);
        let mut s = ShardScratch::new();
        s.fit_to(&plan, 0);
        let mut sig = Vec::new();
        s.capacity_signature(&mut sig);
        let mut sched_sig = Vec::new();
        s.sched.capacity_signature(&mut sched_sig);
        assert_eq!(sig.len(), ShardScratch::FIXED_BUFFERS + sched_sig.len());
        // Two shards: the out stamps cover this shard's slots.
        assert_eq!(s.out_stamp.len(), plan.slots(0).len());
        // One shard never sizes them.
        plan.rebuild(&g, 1);
        let mut solo = ShardScratch::new();
        solo.fit_to(&plan, 0);
        assert!(solo.out_stamp.is_empty());
    }
}
