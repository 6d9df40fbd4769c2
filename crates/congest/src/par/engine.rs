//! The `k ≥ 2` run: one worker per shard, then the merge.

use super::exchange::{Exchange, RoundSync};
use super::partition::ShardPlan;
use super::shard::{run_shard, Events, Link, ShardOutcome, ShardScratch};
use crate::engine::{Protocol, SimConfig, SimResult};
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::observer::RoundObserver;
use mis_graphs::Graph;

/// Runs `protocol` across the `k ≥ 2` shards of `plan`, shard `s` on
/// `shards[s]`: shard 0 on the calling thread, every other shard on a
/// scoped worker. The round agreement and the typed exchange cells live
/// for this run only. When an observer rides along, each shard records
/// its slice of every busy round and the merged stream is replayed when
/// the run completes.
///
/// # Errors
///
/// Same contract as [`crate::run`]: when shards fail in the same round,
/// the lowest-numbered shard's error is returned.
///
/// # Panics
///
/// Re-raises a panic unwinding out of a protocol callback, after all
/// workers shut down cleanly.
pub(crate) fn run_sharded<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    plan: &ShardPlan,
    shards: &mut [ShardScratch],
    observer: Option<&mut dyn RoundObserver>,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    let k = plan.k();
    debug_assert!(k >= 2 && shards.len() == k);
    let sync = RoundSync::new(k);
    // One exchange cell per cut pair — not k²: shard pairs without cut
    // edges have no cell, no buffer, and no per-round cost.
    let exchange: Exchange<P::Msg> =
        Exchange::new((0..plan.pair_count()).map(|p| plan.pair_capacity(p)));
    let record = observer.is_some();
    let shard = |s: usize, scratch: &mut ShardScratch| {
        let link = Link {
            shard: s,
            sync: &sync,
            exchange: &exchange,
        };
        let events = if record { Events::Record } else { Events::Off };
        run_shard::<P, true>(graph, protocol, cfg, plan, scratch, Some(link), events)
    };
    let (first, rest) = shards.split_first_mut().expect("k >= 2 shards");
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, scratch)| scope.spawn(move || shard(i + 1, scratch)))
            .collect();
        // Shard 0 runs on the calling thread; one spawn saved.
        let mut outcomes = vec![shard(0, first)];
        for h in handles {
            outcomes.push(h.join().expect("shard worker died outside a protocol call"));
        }
        outcomes
    });
    merge(graph, outcomes, observer, plan.cut_slots())
}

/// Stitches per-shard outcomes into one [`SimResult`]: states concatenate
/// in shard (= node) order, per-node energy concatenates, counters sum,
/// and the global round counts come from shard 0 (every shard computed
/// the same values). When an observer rode along, the per-shard round
/// traces — recorded in lockstep, one entry per globally busy round —
/// are summed entry-wise and replayed in round order, reproducing the
/// one-shard event stream exactly.
fn merge<S>(
    graph: &Graph,
    mut outcomes: Vec<ShardOutcome<S>>,
    observer: Option<&mut dyn RoundObserver>,
    cut_slots: u64,
) -> Result<SimResult<S>, SimError> {
    for o in &mut outcomes {
        if let Some(p) = o.panic.take() {
            std::panic::resume_unwind(p);
        }
    }
    for o in &mut outcomes {
        if let Some(e) = o.error.take() {
            return Err(e);
        }
    }
    if let Some(obs) = observer {
        let (head, rest) = outcomes.split_first().expect("k >= 1 outcomes");
        for (i, ev) in head.trace.iter().enumerate() {
            let mut sum = ev.clone();
            for o in rest {
                let other = &o.trace[i];
                debug_assert_eq!(other.round, sum.round, "shard traces out of lockstep");
                sum.awake += other.awake;
                sum.messages_sent += other.messages_sent;
                sum.messages_delivered += other.messages_delivered;
                sum.messages_dropped += other.messages_dropped;
                sum.collisions += other.collisions;
                sum.bits_sent += other.bits_sent;
            }
            obs.on_round(&sum);
        }
    }
    let n = graph.n();
    let k = outcomes.len();
    let mut metrics = Metrics::new(n);
    metrics.awake_rounds.clear();
    let mut stats = crate::telemetry::EngineStats {
        shards: k as u64,
        cut_slots,
        ..Default::default()
    };
    let mut states = Vec::with_capacity(n);
    for (s, o) in outcomes.into_iter().enumerate() {
        if s == 0 {
            metrics.busy_rounds = o.metrics.busy_rounds;
            metrics.elapsed_rounds = o.metrics.elapsed_rounds;
        } else {
            debug_assert_eq!(metrics.busy_rounds, o.metrics.busy_rounds);
            debug_assert_eq!(metrics.elapsed_rounds, o.metrics.elapsed_rounds);
        }
        metrics.messages_sent += o.metrics.messages_sent;
        metrics.messages_delivered += o.metrics.messages_delivered;
        metrics.messages_dropped += o.metrics.messages_dropped;
        metrics.collisions += o.metrics.collisions;
        metrics.bits_sent += o.metrics.bits_sent;
        metrics.bandwidth_violations += o.metrics.bandwidth_violations;
        metrics.max_message_bits = metrics.max_message_bits.max(o.metrics.max_message_bits);
        metrics.probes.absorb(&o.metrics.probes);
        stats.cut_messages += o.stats.cut_messages;
        stats.mailbox_posts += o.stats.mailbox_posts;
        stats.exchange_skipped_pairs += o.stats.exchange_skipped_pairs;
        // Every shard observes the same posted-flag snapshots, so the
        // local-only count is global, not per-shard: take shard 0's.
        if s == 0 {
            stats.local_only_rounds = o.stats.local_only_rounds;
        } else {
            debug_assert_eq!(stats.local_only_rounds, o.stats.local_only_rounds);
        }
        stats.peak_bucket = stats.peak_bucket.max(o.stats.peak_bucket);
        metrics
            .awake_rounds
            .extend_from_slice(&o.metrics.awake_rounds);
        states.extend(o.states);
    }
    debug_assert_eq!(states.len(), n);
    debug_assert_eq!(metrics.awake_rounds.len(), n);
    Ok(SimResult {
        states,
        metrics,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use crate::engine::{run, run_with, EngineScratch, Inbox, InitApi, RecvApi, SendApi};
    use crate::NodeId;
    use crate::{Protocol, RoundLog, SimConfig, SimError, SimResult};
    use mis_graphs::{generators, Graph};
    use rand::Rng;

    /// An observed run on a fresh scratch.
    fn observed<P>(g: &Graph, p: &P, cfg: &SimConfig, log: &mut RoundLog) -> SimResult<P::State>
    where
        P: Protocol + Sync,
        P::State: Send,
        P::Msg: Send,
    {
        run_with(g, p, cfg, &mut EngineScratch::new(g), Some(log)).unwrap()
    }

    /// Chatty protocol exercising every delivery path: broadcasts, rank
    /// sends, sleeping receivers, halts, and RNG draws.
    struct Gossip {
        rounds: u64,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct GossipState {
        sum: u64,
        draws: u64,
        heard: u32,
    }

    impl Protocol for Gossip {
        type State = GossipState;
        type Msg = u32;

        fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> GossipState {
            // Nodes stagger their wakeups so some messages hit sleepers.
            let offset = u64::from(node % 3);
            api.wake_range(offset..self.rounds + offset);
            GossipState {
                sum: api.rng().gen::<u32>() as u64,
                draws: 0,
                heard: 0,
            }
        }

        fn send(&self, state: &mut GossipState, api: &mut SendApi<'_, u32>) {
            let r = api.round();
            if r % 2 == 0 {
                api.broadcast((state.sum & 0xffff) as u32);
            } else if api.degree() > 0 {
                let rank = (state.sum as usize) % api.degree();
                api.send_to_rank(rank, api.node());
            }
        }

        fn recv(&self, state: &mut GossipState, inbox: Inbox<'_, u32>, api: &mut RecvApi<'_>) {
            for (src, v) in inbox {
                state.sum = state
                    .sum
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(src) ^ u64::from(*v));
                state.heard += 1;
            }
            state.draws = state.draws.wrapping_add(api.rng().gen::<u64>());
            if api.round() + 1 >= self.rounds && state.heard > 0 {
                api.halt();
            }
        }
    }

    fn graphs() -> Vec<(&'static str, Graph)> {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut r = SmallRng::seed_from_u64(5);
        vec![
            ("path", generators::path(97)),
            ("star", generators::star(64)),
            ("gnp", generators::gnp(256, 8.0 / 256.0, &mut r)),
            ("grid", generators::grid2d(12, 11)),
            ("edgeless", generators::empty(30)),
            ("singleton", generators::empty(1)),
            ("nil", generators::empty(0)),
        ]
    }

    #[test]
    fn parallel_matches_sequential_at_every_thread_count() {
        for (name, g) in graphs() {
            let cfg = SimConfig::seeded(11);
            let seq = run(&g, &Gossip { rounds: 12 }, &cfg).unwrap();
            for threads in [1, 2, 3, 4, 8] {
                let par = run(&g, &Gossip { rounds: 12 }, &cfg.with_threads(threads)).unwrap();
                assert_eq!(par.metrics, seq.metrics, "{name} @ {threads} threads");
                assert_eq!(par.states, seq.states, "{name} @ {threads} threads");
            }
        }
    }

    /// The bit-identical contract extends to every channel model: the
    /// fault decisions are pure in `(seed, salt, round, edge)` /
    /// `(node, round)`, so faulty runs agree across engines and thread
    /// counts exactly like ideal ones.
    #[test]
    fn channel_models_match_sequential_at_every_thread_count() {
        use crate::channel::{AdversarySchedule, ChannelModel, SleepWindow};
        let channels = [
            ChannelModel::Loss { p: 0.2 },
            ChannelModel::RadioCollision,
            ChannelModel::Adversary(AdversarySchedule {
                crashes: vec![(3, 4), (10, 2)],
                sleeps: vec![SleepWindow {
                    nodes: vec![0, 5, 17],
                    from: 1,
                    to: 6,
                }],
            }),
        ];
        for (name, g) in graphs() {
            for ch in &channels {
                let cfg = SimConfig::seeded(11).with_channel(ch.clone());
                let mut seq_log = RoundLog::new();
                let seq = observed(&g, &Gossip { rounds: 12 }, &cfg, &mut seq_log);
                for threads in [1, 2, 3, 4, 8] {
                    let mut par_log = RoundLog::new();
                    let par = observed(
                        &g,
                        &Gossip { rounds: 12 },
                        &cfg.with_threads(threads),
                        &mut par_log,
                    );
                    assert_eq!(
                        par.metrics, seq.metrics,
                        "{name} {ch:?} @ {threads} threads"
                    );
                    assert_eq!(par.states, seq.states, "{name} {ch:?} @ {threads} threads");
                    assert_eq!(
                        par_log, seq_log,
                        "{name} {ch:?} @ {threads} threads: events"
                    );
                }
            }
        }
    }

    /// The cross-configuration observation contract: the merged event
    /// stream of a `k ≥ 2` run is identical to the live one-shard stream
    /// at every thread count.
    #[test]
    fn observed_events_identical_across_thread_counts() {
        for (name, g) in graphs() {
            let cfg = SimConfig::seeded(11);
            let mut seq_log = RoundLog::new();
            let seq = observed(&g, &Gossip { rounds: 12 }, &cfg, &mut seq_log);
            for threads in [1, 2, 4] {
                let mut par_log = RoundLog::new();
                let cfg = cfg.with_threads(threads);
                let par = observed(&g, &Gossip { rounds: 12 }, &cfg, &mut par_log);
                assert_eq!(par.metrics, seq.metrics, "{name} @ {threads} threads");
                assert_eq!(par_log, seq_log, "{name} @ {threads} threads: event stream");
            }
        }
    }

    /// Probes (inside `Metrics`) are thread-invariant — covered by every
    /// `par.metrics == seq.metrics` assertion above — while the
    /// per-configuration `stats` legitimately differ: `threads = 0`
    /// reports 0 shards and no cut traffic, a 2-worker run reports 2
    /// shards and nonzero mailbox activity.
    #[test]
    fn engine_stats_report_shards_and_cut_traffic() {
        let g = generators::grid2d(8, 8);
        let cfg = SimConfig::seeded(11);
        let seq = run(&g, &Gossip { rounds: 8 }, &cfg).unwrap();
        assert_eq!(seq.stats.shards, 0);
        assert_eq!(seq.stats.cut_messages, 0);
        assert_eq!(seq.stats.mailbox_posts, 0);
        assert!(seq.metrics.probes.wakeups_scheduled > 0, "probes dead");
        let par = run(&g, &Gossip { rounds: 8 }, &cfg.with_threads(2)).unwrap();
        assert_eq!(par.stats.shards, 2);
        assert!(par.stats.cut_messages > 0, "a split grid has cut edges");
        assert!(par.stats.mailbox_posts > 0);
        assert_eq!(par.metrics.probes, seq.metrics.probes);
    }

    #[test]
    fn run_dispatches_on_threads() {
        let g = generators::cycle(40);
        let run_at = |threads| {
            let cfg = SimConfig::seeded(3).with_threads(threads);
            run(&g, &Gossip { rounds: 8 }, &cfg).unwrap()
        };
        let seq = run_at(0);
        for (threads, shards) in [(0, 0), (1, 1), (4, 4)] {
            let res = run_at(threads);
            assert_eq!(res.stats.shards, shards, "{threads} threads");
            assert_eq!(seq.metrics, res.metrics);
            assert_eq!(seq.states, res.states);
        }
        // One worker: every busy round is local-only.
        assert_eq!(run_at(1).stats.local_only_rounds, seq.metrics.busy_rounds);
        assert_eq!(seq.stats.local_only_rounds, 0);
    }

    #[test]
    fn scratch_reuse_is_deterministic_and_allocation_free() {
        let g = generators::grid2d(10, 10);
        let cfg = SimConfig::seeded(7);
        let baseline = run(&g, &Gossip { rounds: 10 }, &cfg).unwrap();

        let cfg4 = cfg.with_threads(4);
        let mut scratch = EngineScratch::new(&g);
        let first = run_with(&g, &Gossip { rounds: 10 }, &cfg4, &mut scratch, None).unwrap();
        let _ = run_with(&g, &Gossip { rounds: 10 }, &cfg4, &mut scratch, None).unwrap();
        let warm = scratch.capacity_signature();
        let third = run_with(&g, &Gossip { rounds: 10 }, &cfg4, &mut scratch, None).unwrap();
        assert_eq!(
            warm,
            scratch.capacity_signature(),
            "steady-state allocation"
        );
        for res in [&first, &third] {
            assert_eq!(res.metrics, baseline.metrics);
            assert_eq!(res.states, baseline.states);
        }
    }

    #[test]
    fn scratch_refits_across_graphs_and_thread_counts() {
        let g1 = generators::path(50);
        let g2 = generators::grid2d(8, 8);
        let cfg = SimConfig::seeded(2);
        let mut scratch = EngineScratch::new(&g1);
        let mut at = |g: &Graph, threads| {
            let cfg = cfg.with_threads(threads);
            run_with(g, &Gossip { rounds: 6 }, &cfg, &mut scratch, None).unwrap()
        };
        let a = at(&g1, 2);
        let b = at(&g2, 5);
        let c = at(&g1, 3);
        // Back to one shard, and to two on the other graph.
        let d = at(&g2, 0);
        let e = at(&g2, 2);
        assert_eq!(
            a.metrics,
            run(&g1, &Gossip { rounds: 6 }, &cfg).unwrap().metrics
        );
        assert_eq!(
            b.metrics,
            run(&g2, &Gossip { rounds: 6 }, &cfg).unwrap().metrics
        );
        assert_eq!(c.states, a.states);
        assert_eq!(d.metrics, b.metrics);
        assert_eq!(e.states, b.states);
    }

    /// Every node broadcasts once, in round 0, and halts.
    struct Shout;
    impl Protocol for Shout {
        type State = ();
        type Msg = u32;
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _s: &mut (), api: &mut SendApi<'_, u32>) {
            api.broadcast(api.node());
        }
        fn recv(&self, _s: &mut (), _i: Inbox<'_, u32>, api: &mut RecvApi<'_>) {
            api.halt();
        }
    }

    /// Rounds across the 32-bit tick wrap-around, at every shard count. A
    /// warm-up run leaves every claim word (and each shard's
    /// `out_stamp` on every cut edge) holding tick 1; then the tick
    /// starts just below 2^32, and a 14-round run crosses the wrap after
    /// its first round, so its second round has tick 1 again. Unless the
    /// wrap zeroes both arrays, the stale words resurface as phantom
    /// payloads or false duplicate sends.
    #[test]
    fn tick_wrap_around_replays_fresh_runs() {
        use crate::channel::ChannelModel;
        let g = generators::grid2d(10, 9);
        let proto = Gossip { rounds: 12 };
        let below_wrap = u32::MAX - 1;
        for ch in [
            ChannelModel::Ideal,
            ChannelModel::Loss { p: 0.05 },
            ChannelModel::RadioCollision,
        ] {
            let cfg = SimConfig::seeded(6).with_channel(ch.clone());
            let fresh = run(&g, &proto, &cfg).unwrap();
            assert!(fresh.metrics.busy_rounds > 5, "the run must cross the wrap");
            match ch {
                ChannelModel::Loss { .. } => assert!(fresh.metrics.messages_dropped > 0),
                ChannelModel::RadioCollision => assert!(fresh.metrics.collisions > 0),
                _ => {}
            }

            for threads in [0, 1, 2, 4] {
                let cfg = cfg.with_threads(threads);
                let mut scratch = EngineScratch::new(&g);
                run_with(&g, &Shout, &cfg, &mut scratch, None).unwrap();
                scratch.start_tick_at(below_wrap);
                let par = run_with(&g, &proto, &cfg, &mut scratch, None).unwrap();
                assert_eq!(par.metrics, fresh.metrics, "{ch:?} @ {threads} threads");
                assert_eq!(par.states, fresh.states, "{ch:?} @ {threads} threads");
            }
        }
    }

    #[test]
    fn more_threads_than_nodes() {
        let g = generators::path(3);
        let cfg = SimConfig::seeded(1);
        let seq = run(&g, &Gossip { rounds: 5 }, &cfg).unwrap();
        let par = run(&g, &Gossip { rounds: 5 }, &cfg.with_threads(8)).unwrap();
        assert_eq!(par.metrics, seq.metrics);
        assert_eq!(par.states, seq.states);
    }

    /// Duplicate sends crossing a shard boundary must still be caught —
    /// by the sender-side stamp, since the receiver's claim word is remote.
    struct CrossDouble;
    impl Protocol for CrossDouble {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _s: &mut (), api: &mut SendApi<'_, ()>) {
            if api.node() == 0 {
                let last = api.degree() - 1;
                api.send_to_rank(last, ());
                api.send_to_rank(last, ());
            }
        }
        fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn cross_shard_duplicate_destination_rejected() {
        // Node 0 of a star talks to the highest leaf, which lands in the
        // last shard when split; every thread count must reject it.
        let g = generators::star(32);
        for threads in [1, 2, 4] {
            let cfg = SimConfig::default().with_threads(threads);
            let err = run(&g, &CrossDouble, &cfg).unwrap_err();
            assert!(
                matches!(err, SimError::DuplicateDestination { src: 0, .. }),
                "threads {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn max_rounds_enforced_in_parallel() {
        struct Forever;
        impl Protocol for Forever {
            type State = ();
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_at(0);
            }
            fn send(&self, _s: &mut (), _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
                let next = api.round() + 1;
                api.wake_at(next);
            }
        }
        let g = generators::path(6);
        let cfg = SimConfig {
            max_rounds: 50,
            ..SimConfig::default()
        };
        for threads in [0, 1, 3] {
            assert_eq!(
                run(&g, &Forever, &cfg.with_threads(threads)).unwrap_err(),
                SimError::ExceededMaxRounds { max_rounds: 50 }
            );
        }
    }

    /// `u64::MAX` is a legal round, not a sentinel: a protocol that
    /// schedules it must get the same `ExceededMaxRounds` at every shard
    /// count, not a silent `Ok` from a `k ≥ 2` run.
    #[test]
    fn round_u64_max_is_not_treated_as_drained() {
        struct FarSleeper;
        impl Protocol for FarSleeper {
            type State = ();
            type Msg = ();
            fn init(&self, node: NodeId, api: &mut InitApi<'_>) {
                if node == 0 {
                    api.wake_at(u64::MAX);
                }
            }
            fn send(&self, _s: &mut (), _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::path(4);
        let cfg = SimConfig::default();
        let seq = run(&g, &FarSleeper, &cfg).unwrap_err();
        for threads in [1, 2] {
            assert_eq!(
                run(&g, &FarSleeper, &cfg.with_threads(threads)).unwrap_err(),
                seq,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn protocol_panic_propagates_without_hanging() {
        struct Bomb;
        impl Protocol for Bomb {
            type State = ();
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_at(0);
            }
            fn send(&self, _s: &mut (), api: &mut SendApi<'_, ()>) {
                assert!(api.node() != 3, "boom at node 3");
            }
            fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::path(10);
        for threads in [0, 1, 2, 4] {
            let res = std::panic::catch_unwind(|| {
                let _ = run(&g, &Bomb, &SimConfig::default().with_threads(threads));
            });
            assert!(res.is_err(), "threads {threads}: panic swallowed");
        }
    }

    /// An abort after real traffic — an engine error, or a protocol panic
    /// the caller catches — must leave reused scratch clean: at every
    /// shard count, the next run on the same scratch equals a fresh one.
    #[test]
    fn scratch_survives_an_aborted_run() {
        /// Broadcasts for four rounds; in round 2 node 0 either sends a
        /// duplicate of its broadcast or panics mid-send.
        struct FailLate {
            panic: bool,
        }
        impl Protocol for FailLate {
            type State = ();
            type Msg = u32;
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_range(0..4);
            }
            fn send(&self, _s: &mut (), api: &mut SendApi<'_, u32>) {
                api.broadcast(1);
                if api.round() == 2 && api.node() == 0 {
                    assert!(!self.panic, "boom in round 2");
                    let last = api.degree() - 1;
                    api.send_to_rank(last, 9); // duplicate of the broadcast
                }
            }
            fn recv(&self, _s: &mut (), _i: Inbox<'_, u32>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::cycle(24);
        for threads in [0, 1, 3] {
            let cfg = SimConfig::default().with_threads(threads);
            let fresh = run(&g, &Gossip { rounds: 7 }, &cfg).unwrap();
            let mut scratch = EngineScratch::new(&g);
            let err = run_with(&g, &FailLate { panic: false }, &cfg, &mut scratch, None);
            assert!(
                matches!(err, Err(SimError::DuplicateDestination { .. })),
                "threads {threads}: {err:?}"
            );
            let after_error = run_with(&g, &Gossip { rounds: 7 }, &cfg, &mut scratch, None);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_with(&g, &FailLate { panic: true }, &cfg, &mut scratch, None)
            }));
            assert!(caught.is_err(), "threads {threads}: panic swallowed");
            let after_panic = run_with(&g, &Gossip { rounds: 7 }, &cfg, &mut scratch, None);
            for reused in [after_error.unwrap(), after_panic.unwrap()] {
                assert_eq!(reused.metrics, fresh.metrics, "threads {threads}");
                assert_eq!(reused.states, fresh.states, "threads {threads}");
            }
        }
    }

    /// Node RNGs are derived at a node's first draw, wherever that is: in
    /// `init`, in a later send half, only in receive halves, or never.
    /// Each drawing node must see exactly its `rng::derive(seed, salt, v)`
    /// stream at every shard count, and a reused scratch must carry no
    /// stream into the next run — after a clean run with another salt and
    /// other drawing nodes, and after a run aborted by a protocol panic.
    #[test]
    fn lazy_rngs_are_exact_across_reuse_and_aborts() {
        /// Node `v` draws by class `(v + shift) % 4`: 0 in `init` and every
        /// send half, 1 in send halves from round 1 on, 2 in every receive
        /// half, 3 never. Each draw is recorded in the state.
        struct Draws {
            shift: u32,
            /// Node 0 panics in round 1's receive half.
            panic: bool,
        }
        impl Draws {
            fn class(&self, v: NodeId) -> u32 {
                (v + self.shift) % 4
            }
            /// Draws a node of `class` makes in a three-round run.
            fn expected(class: u32) -> usize {
                [4, 2, 3, 0][class as usize]
            }
        }
        impl Protocol for Draws {
            type State = Vec<u64>;
            type Msg = ();
            fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> Vec<u64> {
                api.wake_range(0..3);
                match self.class(node) {
                    0 => vec![api.rng().gen()],
                    _ => Vec::new(),
                }
            }
            fn send(&self, drawn: &mut Vec<u64>, api: &mut SendApi<'_, ()>) {
                let class = self.class(api.node());
                if class == 0 || (class == 1 && api.round() >= 1) {
                    drawn.push(api.rng().gen());
                }
                api.broadcast(());
            }
            fn recv(&self, drawn: &mut Vec<u64>, _inbox: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
                if self.class(api.node()) == 2 {
                    drawn.push(api.rng().gen());
                }
                assert!(
                    !(self.panic && api.round() == 1 && api.node() == 0),
                    "boom in round 1"
                );
            }
        }
        fn check(res: &SimResult<Vec<u64>>, p: &Draws, cfg: &SimConfig, what: &str) {
            let mut drawing = 0;
            for (v, drawn) in res.states.iter().enumerate() {
                let v = v as NodeId;
                let mut rng = crate::rng::derive(cfg.seed, cfg.salt, v);
                let stream: Vec<u64> = (0..Draws::expected(p.class(v)))
                    .map(|_| rng.gen())
                    .collect();
                assert_eq!(*drawn, stream, "{what}: node {v}");
                drawing += u64::from(!stream.is_empty());
            }
            assert_eq!(res.metrics.probes.rngs_derived, drawing, "{what}");
        }
        let g = generators::grid2d(5, 6);
        for threads in [0, 1, 2, 4] {
            let cfg = SimConfig::seeded(17).with_threads(threads);
            let step = |scratch: &mut EngineScratch, shift: u32, salt: u64, what: &str| {
                let p = Draws {
                    shift,
                    panic: false,
                };
                let cfg = cfg.with_salt(salt);
                let res = run_with(&g, &p, &cfg, scratch, None).unwrap();
                check(&res, &p, &cfg, &format!("threads {threads}, {what}"));
                res.metrics
            };
            let mut scratch = EngineScratch::new(&g);
            let first = step(&mut scratch, 0, 1, "first run");
            step(&mut scratch, 1, 2, "second run");
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let p = Draws {
                    shift: 2,
                    panic: true,
                };
                run_with(&g, &p, &cfg.with_salt(3), &mut scratch, None)
            }));
            assert!(caught.is_err(), "threads {threads}: panic swallowed");
            step(&mut scratch, 3, 4, "run after a panic");
            let again = step(&mut scratch, 0, 1, "rerun of the first");
            assert_eq!(again, first, "threads {threads}");
        }
    }

    /// Sending twice to a neighbor that sleeps this round is still a
    /// duplicate destination, though neither payload is delivered: by
    /// two rank sends, or by a broadcast and then an id send, to a
    /// receiver on the sender's shard or on another.
    #[test]
    fn duplicate_send_to_a_sleeping_receiver_rejected() {
        struct SleeperDouble {
            broadcast_first: bool,
            last_rank: bool,
        }
        impl Protocol for SleeperDouble {
            type State = ();
            type Msg = ();
            fn init(&self, node: NodeId, api: &mut InitApi<'_>) {
                // Only the hub is awake in round 0; the leaves sleep.
                api.wake_at(u64::from(node != 0));
            }
            fn send(&self, _s: &mut (), api: &mut SendApi<'_, ()>) {
                if api.node() != 0 {
                    return;
                }
                let rank = if self.last_rank { api.degree() - 1 } else { 0 };
                if self.broadcast_first {
                    let dst = api.neighbors()[rank];
                    api.broadcast(());
                    api.send(dst, ());
                } else {
                    api.send_to_rank(rank, ());
                    api.send_to_rank(rank, ());
                }
            }
            fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        // The hub is node 0; at two shards its first leaf shares its
        // shard and its last leaf does not.
        let g = generators::star(32);
        for threads in [0, 1, 2] {
            for broadcast_first in [false, true] {
                for last_rank in [false, true] {
                    let proto = SleeperDouble {
                        broadcast_first,
                        last_rank,
                    };
                    let err = run(&g, &proto, &SimConfig::default().with_threads(threads));
                    assert!(
                        matches!(
                            err,
                            Err(SimError::DuplicateDestination {
                                src: 0,
                                round: 0,
                                ..
                            })
                        ),
                        "threads {threads}, broadcast {broadcast_first}, last {last_rank}: {err:?}"
                    );
                }
            }
        }
    }

    /// Bandwidth accounting (lax and strict) is engine-independent.
    #[test]
    fn bandwidth_modes_match_sequential() {
        struct Big;
        impl Protocol for Big {
            type State = ();
            type Msg = u64;
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_at(0);
            }
            fn send(&self, _s: &mut (), api: &mut SendApi<'_, u64>) {
                api.broadcast(u64::MAX);
            }
            fn recv(&self, _s: &mut (), _i: Inbox<'_, u64>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::cycle(20);
        let lax = SimConfig {
            bandwidth_bits: Some(32),
            ..SimConfig::default()
        };
        let seq = run(&g, &Big, &lax).unwrap();
        let par = run(&g, &Big, &lax.with_threads(4)).unwrap();
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq.metrics.bandwidth_violations, 40);

        let strict = SimConfig {
            bandwidth_bits: Some(32),
            strict_bandwidth: true,
            ..SimConfig::default()
        };
        assert!(matches!(
            run(&g, &Big, &strict.with_threads(2)).unwrap_err(),
            SimError::BandwidthExceeded { .. }
        ));
    }
}
