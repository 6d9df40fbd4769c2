//! The parallel run entry points: scratch, spawn, merge.

use super::exchange::{Exchange, RoundSync};
use super::partition::ShardPlan;
use super::shard::{run_shard, ShardOutcome, ShardScratch};
use crate::engine::{Protocol, SimConfig, SimResult};
use crate::error::SimError;
use crate::message::Message;
use crate::metrics::Metrics;
use crate::observer::RoundObserver;
use mis_graphs::Graph;

/// Reusable buffers of a parallel run, the sharded counterpart of
/// [`crate::EngineScratch`]: one [`ShardScratch`] per worker plus the
/// shared exchange mailboxes and round-sync state.
///
/// Repeated runs on the same graph and thread count perform zero
/// steady-state allocation: every growable buffer is recycled, which the
/// capacity-signature oracle pins down in tests exactly like the
/// sequential scratch. (The spawned worker threads themselves are per
/// run; thread reuse is the OS scheduler's job, not the engine's.)
#[derive(Debug)]
pub struct ParScratch<M> {
    k: usize,
    plan: ShardPlan,
    shards: Vec<ShardScratch<M>>,
    exchange: Exchange<M>,
    sync: RoundSync,
}

impl<M: Message + Send> ParScratch<M> {
    /// Scratch sized for `graph` split across `threads` workers.
    pub fn new(graph: &Graph, threads: usize) -> ParScratch<M> {
        let mut s = ParScratch::empty();
        s.fit_to(graph, threads.max(1));
        s
    }

    fn empty() -> ParScratch<M> {
        ParScratch {
            k: 0,
            plan: ShardPlan::new(),
            shards: Vec::new(),
            exchange: Exchange::new(),
            sync: RoundSync::new(),
        }
    }

    /// Re-partitions for `graph`/`k` and resets per-run state. Always
    /// recomputes the plan: partition boundaries follow the graph's CSR
    /// offsets, and the refit reuses every buffer.
    fn fit_to(&mut self, graph: &Graph, k: usize) {
        self.k = k;
        self.plan.rebuild(graph, k);
        self.shards.truncate(k);
        while self.shards.len() < k {
            self.shards.push(ShardScratch::new());
        }
        // One exchange cell per cut pair — not k²: shard pairs without
        // cut edges have no cell, no buffer, and no per-round cost.
        let plan = &self.plan;
        self.exchange
            .fit((0..plan.pair_count()).map(|p| plan.pair_capacity(p)));
        self.sync.fit(k);
    }

    /// Capacities of every growable buffer, in a fixed order; the
    /// allocation oracle for the zero-steady-state-allocation test (see
    /// [`crate::EngineScratch::capacity_signature`] for the reasoning).
    pub fn capacity_signature(&mut self) -> Vec<usize> {
        let mut out = vec![self.shards.capacity()];
        self.plan.capacity_signature(&mut out);
        for s in &self.shards {
            s.capacity_signature(&mut out);
        }
        self.exchange.capacity_signature(&mut out);
        out
    }
}

/// Runs `protocol` on `graph` under `cfg` across `threads` worker shards,
/// producing results *bit-identical* to the sequential [`crate::run`] for
/// every thread count (see [`crate::par`] for why).
///
/// `threads` is clamped to at least 1; `threads = 1` still exercises the
/// sharded machinery (on the calling thread, nothing spawned), which is
/// what pins the `k = 1` case of the determinism contract in tests.
///
/// # Errors
///
/// Same contract as [`crate::run`]. When shards fail in the same round,
/// the lowest-numbered shard's error is returned.
///
/// # Panics
///
/// Re-raises a panic unwinding out of a protocol callback (after all
/// workers shut down cleanly).
pub fn run_parallel<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    threads: usize,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    let mut scratch = ParScratch::empty();
    run_parallel_inner(graph, protocol, cfg, threads, &mut scratch, None)
}

/// [`run_parallel`] with a round observer attached: each shard records
/// its slice of every busy round, and the merged stream — identical to
/// what the sequential [`crate::run_observed`] emits — is replayed into
/// `observer` when the run completes (see [`crate::observer`]).
///
/// # Errors
///
/// Same contract as [`run_parallel`]; on an error nothing is replayed.
pub fn run_parallel_observed<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    threads: usize,
    observer: &mut dyn RoundObserver,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    let mut scratch = ParScratch::empty();
    run_parallel_inner(graph, protocol, cfg, threads, &mut scratch, Some(observer))
}

/// [`run_parallel`], reusing caller-owned scratch across runs (the
/// sharded counterpart of [`crate::run_with_scratch`]).
///
/// # Errors
///
/// Same contract as [`run_parallel`].
pub fn run_parallel_with_scratch<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    threads: usize,
    scratch: &mut ParScratch<P::Msg>,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    run_parallel_inner(graph, protocol, cfg, threads, scratch, None)
}

/// The one sharded entry point behind every `run_parallel*` variant;
/// observation is `None` on the unobserved paths, so shards skip trace
/// recording entirely unless someone is listening.
fn run_parallel_inner<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    threads: usize,
    scratch: &mut ParScratch<P::Msg>,
    observer: Option<&mut dyn RoundObserver>,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    cfg.validate()?;
    let k = threads.max(1);
    scratch.fit_to(graph, k);
    let ParScratch {
        plan,
        shards,
        exchange,
        sync,
        ..
    } = scratch;
    let plan: &ShardPlan = plan;
    let exchange: &Exchange<P::Msg> = exchange;
    let sync: &RoundSync = sync;

    let record = observer.is_some();
    let mut outcomes: Vec<ShardOutcome<P::State>> = Vec::with_capacity(k);
    let (first, rest) = shards.split_first_mut().expect("k >= 1 shards");
    if rest.is_empty() {
        // Single shard: run on the calling thread, spawn nothing.
        outcomes.push(run_shard(
            0, graph, plan, protocol, cfg, sync, exchange, first, record,
        ));
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .iter_mut()
                .enumerate()
                .map(|(i, sc)| {
                    scope.spawn(move || {
                        run_shard(
                            i + 1,
                            graph,
                            plan,
                            protocol,
                            cfg,
                            sync,
                            exchange,
                            sc,
                            record,
                        )
                    })
                })
                .collect();
            // Shard 0 runs on the calling thread; one spawn saved.
            outcomes.push(run_shard(
                0, graph, plan, protocol, cfg, sync, exchange, first, record,
            ));
            for h in handles {
                outcomes.push(h.join().expect("shard worker died outside a protocol call"));
            }
        });
    }
    merge(graph, outcomes, observer, plan.cut_slots())
}

/// Stitches per-shard outcomes into one [`SimResult`]: states concatenate
/// in shard (= node) order, per-node energy concatenates, counters sum,
/// and the global round counts come from shard 0 (every shard computed
/// the same values). When an observer rode along, the per-shard round
/// traces — recorded in lockstep, one entry per globally busy round —
/// are summed entry-wise and replayed in round order, reproducing the
/// sequential engine's event stream exactly.
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

/// Dispatches on [`SimConfig::threads`]: `0` runs the sequential engine
/// on the calling thread, anything else runs [`run_parallel`] with that
/// many workers. Bit-identical either way; this is what single-run
/// algorithm entry points call ([`crate::Pipeline`] dispatches the same
/// way, with its shared [`crate::EngineScratch`] on the sequential arm).
///
/// # Errors
///
/// Same contract as [`crate::run`].
pub fn run_auto<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    if cfg.threads == 0 {
        crate::engine::run(graph, protocol, cfg)
    } else {
        run_parallel(graph, protocol, cfg, cfg.threads)
    }
}

/// [`run_auto`] with a round observer attached; the observed event
/// stream is identical for every [`SimConfig::threads`] value (streamed
/// live on the sequential engine, replayed at completion on the sharded
/// one — see [`crate::observer`]).
///
/// # Errors
///
/// Same contract as [`crate::run`].
pub fn run_auto_observed<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    observer: &mut dyn RoundObserver,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    if cfg.threads == 0 {
        crate::engine::run_observed(graph, protocol, cfg, observer)
    } else {
        run_parallel_observed(graph, protocol, cfg, cfg.threads, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, Inbox, InitApi, RecvApi, SendApi};
    use crate::NodeId;
    use mis_graphs::generators;
    use rand::Rng;

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
                let par = run_parallel(&g, &Gossip { rounds: 12 }, &cfg, threads).unwrap();
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
                let mut seq_log = crate::RoundLog::new();
                let seq =
                    crate::run_observed(&g, &Gossip { rounds: 12 }, &cfg, &mut seq_log).unwrap();
                for threads in [1, 2, 3, 4, 8] {
                    let mut par_log = crate::RoundLog::new();
                    let par = run_parallel_observed(
                        &g,
                        &Gossip { rounds: 12 },
                        &cfg,
                        threads,
                        &mut par_log,
                    )
                    .unwrap();
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

    /// The cross-engine observation contract: the merged parallel event
    /// stream is identical to the sequential one at every thread count.
    #[test]
    fn observed_events_identical_across_thread_counts() {
        for (name, g) in graphs() {
            let cfg = SimConfig::seeded(11);
            let mut seq_log = crate::RoundLog::new();
            let seq = crate::run_observed(&g, &Gossip { rounds: 12 }, &cfg, &mut seq_log).unwrap();
            for threads in [1, 2, 4] {
                let mut par_log = crate::RoundLog::new();
                let par =
                    run_parallel_observed(&g, &Gossip { rounds: 12 }, &cfg, threads, &mut par_log)
                        .unwrap();
                assert_eq!(par.metrics, seq.metrics, "{name} @ {threads} threads");
                assert_eq!(par_log, seq_log, "{name} @ {threads} threads: event stream");
            }
        }
    }

    /// Probes (inside `Metrics`) are thread-invariant — covered by every
    /// `par.metrics == seq.metrics` assertion above — while the
    /// per-configuration `stats` legitimately differ: the sequential
    /// engine reports 0 shards and no cut traffic, a 2-worker run
    /// reports 2 shards and nonzero mailbox activity.
    #[test]
    fn engine_stats_report_shards_and_cut_traffic() {
        let g = generators::grid2d(8, 8);
        let cfg = SimConfig::seeded(11);
        let seq = run(&g, &Gossip { rounds: 8 }, &cfg).unwrap();
        assert_eq!(seq.stats.shards, 0);
        assert_eq!(seq.stats.cut_messages, 0);
        assert_eq!(seq.stats.mailbox_posts, 0);
        assert!(seq.metrics.probes.wakeups_scheduled > 0, "probes dead");
        let par = run_parallel(&g, &Gossip { rounds: 8 }, &cfg, 2).unwrap();
        assert_eq!(par.stats.shards, 2);
        assert!(par.stats.cut_messages > 0, "a split grid has cut edges");
        assert!(par.stats.mailbox_posts > 0);
        assert_eq!(par.metrics.probes, seq.metrics.probes);
    }

    #[test]
    fn run_auto_dispatches_on_threads() {
        let g = generators::cycle(40);
        let seq = run_auto(&g, &Gossip { rounds: 8 }, &SimConfig::seeded(3)).unwrap();
        let par = run_auto(
            &g,
            &Gossip { rounds: 8 },
            &SimConfig::seeded(3).with_threads(4),
        )
        .unwrap();
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq.states, par.states);
    }

    #[test]
    fn scratch_reuse_is_deterministic_and_allocation_free() {
        let g = generators::grid2d(10, 10);
        let cfg = SimConfig::seeded(7);
        let baseline = run(&g, &Gossip { rounds: 10 }, &cfg).unwrap();

        let mut scratch = ParScratch::new(&g, 4);
        let first =
            run_parallel_with_scratch(&g, &Gossip { rounds: 10 }, &cfg, 4, &mut scratch).unwrap();
        // One more warmup run: exchange buffers ping-pong capacity with
        // the mailboxes, so the steady state needs a full swap cycle.
        let _ =
            run_parallel_with_scratch(&g, &Gossip { rounds: 10 }, &cfg, 4, &mut scratch).unwrap();
        let warm = scratch.capacity_signature();
        let third =
            run_parallel_with_scratch(&g, &Gossip { rounds: 10 }, &cfg, 4, &mut scratch).unwrap();
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
        let mut scratch = ParScratch::new(&g1, 2);
        let a =
            run_parallel_with_scratch(&g1, &Gossip { rounds: 6 }, &cfg, 2, &mut scratch).unwrap();
        let b =
            run_parallel_with_scratch(&g2, &Gossip { rounds: 6 }, &cfg, 5, &mut scratch).unwrap();
        let c =
            run_parallel_with_scratch(&g1, &Gossip { rounds: 6 }, &cfg, 3, &mut scratch).unwrap();
        assert_eq!(
            a.metrics,
            run(&g1, &Gossip { rounds: 6 }, &cfg).unwrap().metrics
        );
        assert_eq!(
            b.metrics,
            run(&g2, &Gossip { rounds: 6 }, &cfg).unwrap().metrics
        );
        assert_eq!(c.states, a.states);
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

    /// Rounds across the 32-bit tick wrap-around, on both engines. A
    /// warm-up run leaves every claim word (and each shard's
    /// `out_stamp` on every cut edge) holding tick 1; then the tick
    /// starts just below 2^32, and a 14-round run crosses the wrap after
    /// its first round, so its second round has tick 1 again. Unless the
    /// wrap zeroes both arrays, the stale words resurface as phantom
    /// payloads or false duplicate sends.
    #[test]
    fn tick_wrap_around_replays_fresh_runs() {
        use crate::channel::ChannelModel;
        use crate::engine::run_with_scratch;
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

            let mut scratch = crate::EngineScratch::new(&g);
            run_with_scratch(&g, &Shout, &cfg, &mut scratch).unwrap();
            scratch.start_tick_at(below_wrap);
            let seq = run_with_scratch(&g, &proto, &cfg, &mut scratch).unwrap();
            assert_eq!(seq.metrics, fresh.metrics, "{ch:?} sequential");
            assert_eq!(seq.states, fresh.states, "{ch:?} sequential");

            for threads in [1, 2, 4] {
                let mut scratch = ParScratch::new(&g, threads);
                run_parallel_with_scratch(&g, &Shout, &cfg, threads, &mut scratch).unwrap();
                for shard in &mut scratch.shards {
                    shard.start_tick_at(below_wrap);
                }
                let par =
                    run_parallel_with_scratch(&g, &proto, &cfg, threads, &mut scratch).unwrap();
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
        let par = run_parallel(&g, &Gossip { rounds: 5 }, &cfg, 8).unwrap();
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
            let err = run_parallel(&g, &CrossDouble, &SimConfig::default(), threads).unwrap_err();
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
        for threads in [1, 3] {
            assert_eq!(
                run_parallel(&g, &Forever, &cfg, threads).unwrap_err(),
                SimError::ExceededMaxRounds { max_rounds: 50 }
            );
        }
    }

    /// `u64::MAX` is a legal round, not a sentinel: a protocol that
    /// schedules it must get the same `ExceededMaxRounds` from both
    /// engines, not a silent `Ok` from the parallel one.
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
                run_parallel(&g, &FarSleeper, &cfg, threads).unwrap_err(),
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
        for threads in [1, 2, 4] {
            let res = std::panic::catch_unwind(|| {
                let _ = run_parallel(&g, &Bomb, &SimConfig::default(), threads);
            });
            assert!(res.is_err(), "threads {threads}: panic swallowed");
        }
    }

    /// An error after real traffic must leave reused scratch clean.
    #[test]
    fn scratch_survives_an_aborted_run() {
        struct FailLate;
        impl Protocol for FailLate {
            type State = ();
            type Msg = u32;
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_range(0..4);
            }
            fn send(&self, _s: &mut (), api: &mut SendApi<'_, u32>) {
                api.broadcast(1);
                if api.round() == 2 && api.node() == 0 {
                    let last = api.degree() - 1;
                    api.send_to_rank(last, 9); // duplicate of the broadcast
                }
            }
            fn recv(&self, _s: &mut (), _i: Inbox<'_, u32>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::cycle(24);
        let cfg = SimConfig::default();
        let mut scratch = ParScratch::new(&g, 3);
        let err = run_parallel_with_scratch(&g, &FailLate, &cfg, 3, &mut scratch).unwrap_err();
        assert!(matches!(err, SimError::DuplicateDestination { .. }));
        // A good protocol on the same scratch still matches sequential.
        let seq = run(&g, &Gossip { rounds: 7 }, &cfg).unwrap();
        let par =
            run_parallel_with_scratch(&g, &Gossip { rounds: 7 }, &cfg, 3, &mut scratch).unwrap();
        assert_eq!(par.metrics, seq.metrics);
        assert_eq!(par.states, seq.states);
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
        let par = run_parallel(&g, &Big, &lax, 4).unwrap();
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq.metrics.bandwidth_violations, 40);

        let strict = SimConfig {
            bandwidth_bits: Some(32),
            strict_bandwidth: true,
            ..SimConfig::default()
        };
        assert!(matches!(
            run_parallel(&g, &Big, &strict, 2).unwrap_err(),
            SimError::BandwidthExceeded { .. }
        ));
    }
}
