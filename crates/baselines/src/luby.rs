//! Classic Luby MIS: `O(log n)` time, `O(log n)` energy.

use crate::{Decision, MisRun};
use congest_sim::{
    run, run_with, EngineScratch, Inbox, InitApi, NodeId, Protocol, RecvApi, RoundObserver,
    SendApi, SimConfig, SimError,
};
use mis_graphs::Graph;
use rand::Rng;

/// Message of the Luby protocol.
///
/// * `Mark(deg)` — "I am marked this iteration and my current active degree
///   is `deg`" (sub-round 0),
/// * `Join` — "I joined the MIS" (sub-round 1),
/// * `Inactive` — "I am decided; remove me from your active neighborhood"
///   (sub-round 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LubyMsg {
    /// Marked announcement carrying the sender's active degree.
    Mark(u32),
    /// MIS join announcement.
    Join,
    /// Decided announcement (joined or removed).
    Inactive,
}

impl congest_sim::Message for LubyMsg {
    fn bits(&self) -> usize {
        match self {
            // 2 tag bits plus the degree value.
            LubyMsg::Mark(d) => 2 + congest_sim::Message::bits(d),
            LubyMsg::Join | LubyMsg::Inactive => 2,
        }
    }
}

/// Per-node state of [`LubyProtocol`].
#[derive(Debug, Clone)]
pub struct LubyState {
    /// Final decision of this node.
    pub decision: Decision,
    /// Whether each neighbor (by position in the adjacency list) is still
    /// active.
    nbr_active: Vec<bool>,
    active_degree: u32,
    marked: bool,
    beaten: bool,
    announced: bool,
}

/// Classic Luby MIS as a [`Protocol`].
///
/// Every iteration spans 3 CONGEST rounds: mark exchange, join exchange,
/// and an inactive-status exchange. An undecided node is marked with
/// probability `1 / (2 (d+1))` for its current active degree `d`; a marked
/// node joins unless a marked active neighbor beats it by
/// (degree, id). Nodes stay awake until decided — that is the point of this
/// baseline: its energy equals its time, the `Θ(log n)` bound the paper
/// improves on.
#[derive(Debug, Clone, Default)]
pub struct LubyProtocol;

impl LubyProtocol {
    const SUB_ROUNDS: u64 = 3;

    fn sub_round(round: u64) -> u64 {
        round % Self::SUB_ROUNDS
    }
}

impl Protocol for LubyProtocol {
    type State = LubyState;
    type Msg = LubyMsg;

    fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> LubyState {
        api.wake_range(0..Self::SUB_ROUNDS);
        LubyState {
            decision: Decision::Undecided,
            nbr_active: vec![true; api.degree()],
            active_degree: api.degree() as u32,
            marked: false,
            beaten: false,
            announced: false,
        }
    }

    fn send(&self, state: &mut LubyState, api: &mut SendApi<'_, LubyMsg>) {
        match Self::sub_round(api.round()) {
            0 => {
                if state.decision == Decision::Undecided {
                    let p = 1.0 / (2.0 * (state.active_degree as f64 + 1.0));
                    state.marked = api.rng().gen_bool(p);
                    state.beaten = false;
                    if state.marked {
                        let deg = state.active_degree;
                        for i in 0..api.degree() {
                            if state.nbr_active[i] {
                                api.send_to_rank(i, LubyMsg::Mark(deg));
                            }
                        }
                    }
                }
            }
            1 => {
                if state.decision == Decision::Undecided {
                    let joins = state.active_degree == 0 || (state.marked && !state.beaten);
                    if joins {
                        state.decision = Decision::InMis;
                        for i in 0..api.degree() {
                            if state.nbr_active[i] {
                                api.send_to_rank(i, LubyMsg::Join);
                            }
                        }
                    }
                }
            }
            _ => {
                if state.decision != Decision::Undecided && !state.announced {
                    state.announced = true;
                    for i in 0..api.degree() {
                        if state.nbr_active[i] {
                            api.send_to_rank(i, LubyMsg::Inactive);
                        }
                    }
                }
            }
        }
    }

    fn recv(&self, state: &mut LubyState, inbox: Inbox<'_, LubyMsg>, api: &mut RecvApi<'_>) {
        match Self::sub_round(api.round()) {
            0 => {
                if state.marked {
                    let me = (state.active_degree, api.node());
                    for (src, msg) in inbox {
                        if let LubyMsg::Mark(deg) = msg {
                            if (*deg, src) > me {
                                state.beaten = true;
                            }
                        }
                    }
                }
            }
            1 => {
                if state.decision == Decision::Undecided
                    && inbox.iter().any(|(_, m)| *m == LubyMsg::Join)
                {
                    state.decision = Decision::Removed;
                }
            }
            _ => {
                for (src, msg) in inbox {
                    if *msg == LubyMsg::Inactive {
                        let i = api
                            .neighbors()
                            .binary_search(&src)
                            .expect("sender is a neighbor");
                        if state.nbr_active[i] {
                            state.nbr_active[i] = false;
                            state.active_degree -= 1;
                        }
                    }
                }
                if state.decision != Decision::Undecided {
                    api.halt();
                } else {
                    let next = api.round() + 1;
                    api.wake_range(next..next + Self::SUB_ROUNDS);
                }
            }
        }
    }
}

/// Runs classic Luby MIS on `graph` and returns the computed set plus
/// metrics. Executes on the engine selected by [`SimConfig::threads`]
/// (bit-identical results at any setting).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine (notably the round cap if the
/// protocol were to stall, which does not happen with high probability).
pub fn luby(graph: &Graph, cfg: &SimConfig) -> Result<MisRun, SimError> {
    let result = run(graph, &LubyProtocol, cfg)?;
    Ok(MisRun::from_decisions(result, |s| s.decision))
}

/// [`luby`] with a [`RoundObserver`] attached: streams one event per
/// busy round (identical for every [`SimConfig::threads`] value).
///
/// # Errors
///
/// Same contract as [`luby`].
pub fn luby_observed(
    graph: &Graph,
    cfg: &SimConfig,
    observer: &mut dyn RoundObserver,
) -> Result<MisRun, SimError> {
    let mut scratch = EngineScratch::new(graph);
    let result = run_with(graph, &LubyProtocol, cfg, &mut scratch, Some(observer))?;
    Ok(MisRun::from_decisions(result, |s| s.decision))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graphs::{generators, props};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn luby_on_gnp_is_mis() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::gnp(500, 0.02, &mut rng);
        for seed in 0..5 {
            let r = luby(&g, &SimConfig::seeded(seed)).unwrap();
            assert!(props::is_mis(&g, &r.in_mis), "seed {seed}");
        }
    }

    #[test]
    fn luby_on_structured_graphs() {
        for (name, g) in [
            ("path", generators::path(64)),
            ("cycle", generators::cycle(63)),
            ("star", generators::star(40)),
            ("complete", generators::complete(25)),
            ("grid", generators::grid2d(8, 8)),
            ("singleton", generators::empty(1)),
            ("edgeless", generators::empty(17)),
        ] {
            let r = luby(&g, &SimConfig::seeded(3)).unwrap();
            assert!(props::is_mis(&g, &r.in_mis), "family {name}");
        }
    }

    #[test]
    fn luby_isolated_nodes_join() {
        let g = generators::empty(5);
        let r = luby(&g, &SimConfig::seeded(0)).unwrap();
        assert!(r.in_mis.iter().all(|&b| b));
        // Isolated nodes decide in the first iteration: 3 awake rounds.
        assert_eq!(r.metrics.max_awake(), 3);
    }

    #[test]
    fn luby_energy_tracks_time() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::gnp(2000, 0.005, &mut rng);
        let r = luby(&g, &SimConfig::seeded(1)).unwrap();
        // The last-deciding node was awake for (almost) the whole run: the
        // defining weakness of the baseline.
        assert!(
            r.metrics.max_awake() + 3 >= r.metrics.elapsed_rounds,
            "max_awake {} vs rounds {}",
            r.metrics.max_awake(),
            r.metrics.elapsed_rounds
        );
    }

    #[test]
    fn luby_messages_fit_congest() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::gnp(300, 0.05, &mut rng);
        let cfg = SimConfig {
            bandwidth_bits: Some(congest_sim::SimConfig::congest_bandwidth(300, 2)),
            strict_bandwidth: true,
            ..SimConfig::seeded(2)
        };
        let r = luby(&g, &cfg).unwrap();
        assert_eq!(r.metrics.bandwidth_violations, 0);
        assert!(props::is_mis(&g, &r.in_mis));
    }

    #[test]
    fn luby_deterministic_per_seed() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::gnp(200, 0.03, &mut rng);
        let a = luby(&g, &SimConfig::seeded(9)).unwrap();
        let b = luby(&g, &SimConfig::seeded(9)).unwrap();
        assert_eq!(a.in_mis, b.in_mis);
        assert_eq!(a.metrics.elapsed_rounds, b.metrics.elapsed_rounds);
    }
}
