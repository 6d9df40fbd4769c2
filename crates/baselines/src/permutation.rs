//! The Alon–Babai–Itai / random-priority MIS variant.

use crate::{Decision, MisRun};
use congest_sim::{
    run, run_with, EngineScratch, Inbox, InitApi, NodeId, Protocol, RecvApi, RoundObserver,
    SendApi, SimConfig, SimError,
};
use mis_graphs::Graph;
use rand::Rng;

/// Message of the permutation protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermMsg {
    /// Random priority drawn this iteration.
    Priority(u32),
    /// MIS join announcement.
    Join,
    /// Decided announcement.
    Inactive,
}

impl congest_sim::Message for PermMsg {
    fn bits(&self) -> usize {
        match self {
            PermMsg::Priority(p) => 2 + congest_sim::Message::bits(p),
            PermMsg::Join | PermMsg::Inactive => 2,
        }
    }
}

/// Per-node state of [`PermutationProtocol`].
#[derive(Debug, Clone)]
pub struct PermState {
    /// Final decision of this node.
    pub decision: Decision,
    nbr_active: Vec<bool>,
    active_degree: u32,
    priority: u32,
    is_local_min: bool,
    announced: bool,
}

/// Random-priority MIS (\[ABI86\], Luby's permutation variant): every
/// iteration each undecided node draws a fresh random priority; local
/// minima (by `(priority, id)`) join the MIS. Like classic Luby this
/// takes `O(log n)` rounds and keeps every node awake until it decides.
#[derive(Debug, Clone, Default)]
pub struct PermutationProtocol;

impl PermutationProtocol {
    const SUB_ROUNDS: u64 = 3;
}

impl Protocol for PermutationProtocol {
    type State = PermState;
    type Msg = PermMsg;

    fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> PermState {
        api.wake_range(0..Self::SUB_ROUNDS);
        PermState {
            decision: Decision::Undecided,
            nbr_active: vec![true; api.degree()],
            active_degree: api.degree() as u32,
            priority: 0,
            is_local_min: false,
            announced: false,
        }
    }

    fn send(&self, state: &mut PermState, api: &mut SendApi<'_, PermMsg>) {
        match api.round() % Self::SUB_ROUNDS {
            0 => {
                if state.decision == Decision::Undecided {
                    state.priority = api.rng().gen();
                    state.is_local_min = true;
                    let p = state.priority;
                    for i in 0..api.degree() {
                        if state.nbr_active[i] {
                            api.send_to_rank(i, PermMsg::Priority(p));
                        }
                    }
                }
            }
            1 => {
                if state.decision == Decision::Undecided && state.is_local_min {
                    state.decision = Decision::InMis;
                    for i in 0..api.degree() {
                        if state.nbr_active[i] {
                            api.send_to_rank(i, PermMsg::Join);
                        }
                    }
                }
            }
            _ => {
                if state.decision != Decision::Undecided && !state.announced {
                    state.announced = true;
                    for i in 0..api.degree() {
                        if state.nbr_active[i] {
                            api.send_to_rank(i, PermMsg::Inactive);
                        }
                    }
                }
            }
        }
    }

    fn recv(&self, state: &mut PermState, inbox: Inbox<'_, PermMsg>, api: &mut RecvApi<'_>) {
        match api.round() % Self::SUB_ROUNDS {
            0 => {
                if state.decision == Decision::Undecided {
                    let me = (state.priority, api.node());
                    for (src, msg) in inbox {
                        if let PermMsg::Priority(p) = msg {
                            if (*p, src) < me {
                                state.is_local_min = false;
                            }
                        }
                    }
                }
            }
            1 => {
                if state.decision == Decision::Undecided
                    && inbox.iter().any(|(_, m)| *m == PermMsg::Join)
                {
                    state.decision = Decision::Removed;
                }
            }
            _ => {
                for (src, msg) in inbox {
                    if *msg == PermMsg::Inactive {
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
                let _ = state.active_degree;
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

/// Runs the random-priority MIS on `graph`.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn permutation(graph: &Graph, cfg: &SimConfig) -> Result<MisRun, SimError> {
    let result = run(graph, &PermutationProtocol, cfg)?;
    Ok(MisRun::from_decisions(result, |s| s.decision))
}

/// [`permutation`] with a [`RoundObserver`] attached: streams one event
/// per busy round (identical for every [`SimConfig::threads`] value).
///
/// # Errors
///
/// Same contract as [`permutation`].
pub fn permutation_observed(
    graph: &Graph,
    cfg: &SimConfig,
    observer: &mut dyn RoundObserver,
) -> Result<MisRun, SimError> {
    let mut scratch = EngineScratch::new(graph);
    let result = run_with(
        graph,
        &PermutationProtocol,
        cfg,
        &mut scratch,
        Some(observer),
    )?;
    Ok(MisRun::from_decisions(result, |s| s.decision))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graphs::{generators, props};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn permutation_on_gnp_is_mis() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = generators::gnp(400, 0.02, &mut rng);
        for seed in 0..5 {
            let r = permutation(&g, &SimConfig::seeded(seed)).unwrap();
            assert!(props::is_mis(&g, &r.in_mis), "seed {seed}");
        }
    }

    #[test]
    fn permutation_structured_families() {
        for (name, g) in [
            ("path", generators::path(50)),
            ("cycle", generators::cycle(51)),
            ("star", generators::star(33)),
            ("complete", generators::complete(20)),
            ("torus", generators::torus2d(6, 6)),
        ] {
            let r = permutation(&g, &SimConfig::seeded(4)).unwrap();
            assert!(props::is_mis(&g, &r.in_mis), "family {name}");
        }
    }

    #[test]
    fn permutation_complete_graph_one_winner() {
        let g = generators::complete(30);
        let r = permutation(&g, &SimConfig::seeded(11)).unwrap();
        assert_eq!(r.in_mis.iter().filter(|&&b| b).count(), 1);
        // Complete graph decides in one iteration (3 rounds).
        assert_eq!(r.metrics.elapsed_rounds, 3);
    }

    #[test]
    fn permutation_energy_tracks_time() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = generators::gnp(1000, 0.01, &mut rng);
        let r = permutation(&g, &SimConfig::seeded(2)).unwrap();
        assert!(r.metrics.max_awake() + 3 >= r.metrics.elapsed_rounds);
    }
}
