//! Multi-phase accounting.

use crate::engine::{run_with, EngineScratch, Protocol, SimConfig, SimResult};
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::observer::RoundObserver;
use mis_graphs::Graph;

/// Chains protocol phases on one graph, accumulating time and energy the
/// way the paper's theorems add phase budgets: elapsed rounds add up and
/// each node's awake rounds add up across phases.
///
/// Each phase gets a distinct RNG salt automatically, so phases draw
/// independent randomness from the same master seed.
///
/// Every phase runs on one [`EngineScratch`] that the pipeline owns,
/// whatever the phases' message types and at any
/// [`SimConfig::threads`], so a solve sizes the engine's per-edge claim
/// arrays once rather than once per phase. The pipeline's graph never
/// changes, so at `k ≥ 2` shards the scratch plans the split once, not
/// once per phase.
///
/// # Example
///
/// ```
/// use congest_sim::{Inbox, InitApi, Pipeline, Protocol, RecvApi, SendApi, SimConfig};
/// use mis_graphs::{generators, NodeId};
///
/// struct OneRound;
/// impl Protocol for OneRound {
///     type State = ();
///     type Msg = ();
///     fn init(&self, _n: NodeId, api: &mut InitApi<'_>) { api.wake_at(0); }
///     fn send(&self, _s: &mut (), _api: &mut SendApi<'_, ()>) {}
///     fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
/// }
///
/// let g = generators::cycle(5);
/// let mut pipe = Pipeline::new(&g, SimConfig::seeded(1));
/// pipe.run_phase("a", &OneRound).unwrap();
/// pipe.run_phase("b", &OneRound).unwrap();
/// assert_eq!(pipe.metrics().elapsed_rounds, 2);
/// assert_eq!(pipe.metrics().max_awake(), 2);
/// assert_eq!(pipe.phases().len(), 2);
/// ```
pub struct Pipeline<'g, 'o> {
    graph: &'g Graph,
    cfg: SimConfig,
    next_salt: u64,
    total: Metrics,
    phases: Vec<(String, Metrics)>,
    /// Per-configuration engine stats accumulated across phases (cut
    /// traffic adds, peaks max; see [`crate::telemetry::EngineStats`]).
    engine: crate::telemetry::EngineStats,
    /// Optional per-round event sink; phases announce themselves through
    /// [`RoundObserver::on_phase`] before their rounds stream.
    observer: Option<&'o mut dyn RoundObserver>,
    /// Engine buffers and shard plan shared by every phase; sized and
    /// planned by the first phase.
    scratch: EngineScratch,
}

impl std::fmt::Debug for Pipeline<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("cfg", &self.cfg)
            .field("next_salt", &self.next_salt)
            .field("phases", &self.phases.len())
            .field("observed", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl<'g, 'o> Pipeline<'g, 'o> {
    /// Creates a pipeline over `graph`; `cfg.salt` is the salt of the
    /// first phase, later phases increment it.
    pub fn new(graph: &'g Graph, cfg: SimConfig) -> Pipeline<'g, 'o> {
        Pipeline {
            graph,
            next_salt: cfg.salt,
            cfg,
            total: Metrics::new(graph.n()),
            phases: Vec::new(),
            engine: crate::telemetry::EngineStats::default(),
            observer: None,
            scratch: EngineScratch::for_one_graph(),
        }
    }

    /// Attaches a round observer: every subsequent phase announces
    /// itself via [`RoundObserver::on_phase`] and streams one
    /// [`crate::RoundEvent`] per busy round. The stream is identical
    /// for every [`SimConfig::threads`] value (the engine's
    /// determinism contract; see [`crate::observer`]).
    pub fn observe(&mut self, observer: &'o mut dyn RoundObserver) {
        self.observer = Some(observer);
    }

    /// Runs one phase, folds its metrics into the total, and returns the
    /// final per-node states.
    ///
    /// Phases execute on [`SimConfig::threads`] shards, on the
    /// pipeline's shared scratch, with bit-identical results at every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the engine.
    pub fn run_phase<P>(&mut self, name: &str, protocol: &P) -> Result<Vec<P::State>, SimError>
    where
        P: Protocol + Sync,
        P::State: Send,
        P::Msg: Send,
    {
        let cfg = self.cfg.with_salt(self.next_salt);
        self.next_salt += 1;
        let observer: Option<&mut dyn RoundObserver> = match self.observer.as_deref_mut() {
            Some(obs) => {
                obs.on_phase(name);
                Some(obs)
            }
            None => None,
        };
        let SimResult {
            states,
            metrics,
            stats,
        } = run_with(self.graph, protocol, &cfg, &mut self.scratch, observer)?;
        self.total.absorb(&metrics);
        self.engine.absorb(&stats);
        self.phases.push((name.to_string(), metrics));
        Ok(states)
    }

    /// The graph this pipeline runs on. The borrow is the graph's own,
    /// not the pipeline's, so a caller can hold it while running phases.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Aggregate metrics across all phases run so far.
    pub fn metrics(&self) -> &Metrics {
        &self.total
    }

    /// Per-phase metrics in execution order.
    pub fn phases(&self) -> &[(String, Metrics)] {
        &self.phases
    }

    /// Per-configuration engine stats accumulated across all phases run
    /// so far (deterministic per thread count, not thread-invariant).
    pub fn engine_stats(&self) -> &crate::telemetry::EngineStats {
        &self.engine
    }

    /// Consumes the pipeline, returning aggregate and per-phase metrics.
    pub fn into_metrics(self) -> (Metrics, Vec<(String, Metrics)>) {
        (self.total, self.phases)
    }

    /// Consumes the pipeline, returning aggregate metrics, per-phase
    /// metrics, and the accumulated per-configuration engine stats.
    pub fn into_parts(
        self,
    ) -> (
        Metrics,
        Vec<(String, Metrics)>,
        crate::telemetry::EngineStats,
    ) {
        (self.total, self.phases, self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Inbox, InitApi, RecvApi, SendApi};
    use crate::NodeId;
    use mis_graphs::generators;
    use rand::Rng;

    /// Stays awake for `rounds` rounds doing nothing.
    struct Idle {
        rounds: u64,
    }
    impl Protocol for Idle {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_range(0..self.rounds);
        }
        fn send(&self, _s: &mut (), _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn phases_accumulate() {
        let g = generators::path(4);
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(3));
        pipe.run_phase("p1", &Idle { rounds: 5 }).unwrap();
        pipe.run_phase("p2", &Idle { rounds: 2 }).unwrap();
        assert_eq!(pipe.metrics().elapsed_rounds, 7);
        assert_eq!(pipe.metrics().max_awake(), 7);
        assert_eq!(pipe.phases()[0].1.elapsed_rounds, 5);
        assert_eq!(pipe.phases()[1].1.elapsed_rounds, 2);
        let (total, phases) = pipe.into_metrics();
        assert_eq!(total.elapsed_rounds, 7);
        assert_eq!(phases.len(), 2);
    }

    #[test]
    fn observer_gets_phase_marks_and_rounds() {
        let g = generators::path(4);
        let mut log = crate::RoundLog::new();
        {
            let mut pipe = Pipeline::new(&g, SimConfig::seeded(3));
            pipe.observe(&mut log);
            pipe.run_phase("p1", &Idle { rounds: 5 }).unwrap();
            pipe.run_phase("p2", &Idle { rounds: 2 }).unwrap();
        }
        assert_eq!(log.phases.len(), 2);
        assert_eq!(log.phases[0].name, "p1");
        assert_eq!(log.phases[0].rounds.len(), 5);
        assert_eq!(log.phases[1].name, "p2");
        assert_eq!(log.phases[1].rounds.len(), 2);
        assert!(log.events().all(|e| e.awake == 4));
    }

    /// A chatty phase over any message type, six rounds per node:
    /// staggered wakeups (so some sends reach sleepers), broadcasts on
    /// even rounds, one rank send on odd rounds, and a state that folds
    /// in every `(sender, payload)` heard plus an RNG draw per awake
    /// round.
    struct Chat<M> {
        payload: fn(NodeId, u64) -> M,
        digest: fn(&M) -> u64,
    }

    impl<M: crate::Message> Protocol for Chat<M> {
        type State = u64;
        type Msg = M;

        fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> u64 {
            let offset = u64::from(node % 3);
            api.wake_range(offset..6 + offset);
            api.rng().gen::<u32>().into()
        }

        fn send(&self, state: &mut u64, api: &mut SendApi<'_, M>) {
            let msg = (self.payload)(api.node(), api.round());
            if api.round() % 2 == 0 {
                api.broadcast(msg);
            } else if api.degree() > 0 {
                let rank = *state as usize % api.degree();
                api.send_to_rank(rank, msg);
            }
        }

        fn recv(&self, state: &mut u64, inbox: Inbox<'_, M>, api: &mut RecvApi<'_>) {
            for (src, msg) in inbox {
                *state = state
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(src) ^ (self.digest)(msg));
            }
            *state ^= api.rng().gen::<u64>() >> 40;
        }
    }

    fn words() -> Chat<u32> {
        Chat {
            payload: |v, r| v * 7 + r as u32,
            digest: |&m| u64::from(m),
        }
    }

    fn packed() -> Chat<crate::PackedBits> {
        Chat {
            payload: |v, r| {
                let mut bits = crate::PackedBits::new(70);
                bits.set((v as usize + r as usize) % 70, true);
                bits
            },
            digest: |bits| bits.first_one().map_or(99, |i| i as u64),
        }
    }

    fn flags() -> Chat<bool> {
        Chat {
            payload: |v, r| (u64::from(v) + r) % 2 == 0,
            digest: |&b| u64::from(b),
        }
    }

    /// Phases with different message types run on the pipeline's one
    /// scratch, and each equals a standalone run with that phase's salt.
    #[test]
    fn phases_of_different_message_types_share_one_scratch() {
        let g = generators::grid2d(9, 7);
        // At two shards the phases also share the one shard plan.
        for threads in [0, 2] {
            let cfg = SimConfig::seeded(8).with_threads(threads);
            let mut pipe = Pipeline::new(&g, cfg.clone());
            let states = [
                pipe.run_phase("u32", &words()).unwrap(),
                pipe.run_phase("packed", &packed()).unwrap(),
                pipe.run_phase("bool", &flags()).unwrap(),
                pipe.run_phase("u32 again", &words()).unwrap(),
            ];
            let alone = [
                crate::run(&g, &words(), &cfg.with_salt(0)).unwrap(),
                crate::run(&g, &packed(), &cfg.with_salt(1)).unwrap(),
                crate::run(&g, &flags(), &cfg.with_salt(2)).unwrap(),
                crate::run(&g, &words(), &cfg.with_salt(3)).unwrap(),
            ];
            for (i, (got, want)) in states.iter().zip(&alone).enumerate() {
                assert!(want.metrics.messages_delivered > 0, "phase {i} idle");
                assert_eq!(got, &want.states, "phase {i} states @ {threads}");
                assert_eq!(pipe.phases()[i].1, want.metrics, "phase {i} @ {threads}");
            }
        }
    }

    /// One scratch serves a large graph, a smaller one, and the large one
    /// again, each run equal to a fresh one; a warm scratch allocates
    /// nothing when the next run uses another message type.
    #[test]
    fn one_scratch_serves_any_graph_and_message_type() {
        let large = generators::grid2d(16, 12);
        let small = generators::cycle(11);
        let cfg = SimConfig::seeded(4);
        let mut scratch = EngineScratch::new(&large);
        let mut warm = None;
        for g in [&large, &small, &large] {
            let reused = run_with(g, &words(), &cfg, &mut scratch, None).unwrap();
            let fresh = crate::run(g, &words(), &cfg).unwrap();
            assert_eq!(reused.metrics, fresh.metrics);
            assert_eq!(reused.states, fresh.states);
            if g.n() == large.n() {
                let sig = scratch.capacity_signature();
                assert_eq!(*warm.get_or_insert_with(|| sig.clone()), sig);
            }
        }
        let warm = warm.unwrap();
        let bits = run_with(&large, &packed(), &cfg, &mut scratch, None).unwrap();
        assert_eq!(warm, scratch.capacity_signature(), "PackedBits run");
        let bools = run_with(&large, &flags(), &cfg, &mut scratch, None).unwrap();
        assert_eq!(warm, scratch.capacity_signature(), "bool run");
        assert_eq!(
            bits.states,
            crate::run(&large, &packed(), &cfg).unwrap().states
        );
        assert_eq!(
            bools.states,
            crate::run(&large, &flags(), &cfg).unwrap().states
        );
    }

    #[test]
    fn phases_use_distinct_randomness() {
        struct Draw;
        impl Protocol for Draw {
            type State = u64;
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> u64 {
                api.rng().gen()
            }
            fn send(&self, _s: &mut u64, _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _s: &mut u64, _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::path(8);
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(5));
        let a = pipe.run_phase("a", &Draw).unwrap();
        let b = pipe.run_phase("b", &Draw).unwrap();
        assert_ne!(a, b, "two phases drew identical randomness");
    }
}
