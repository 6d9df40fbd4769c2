//! Ghaffari's MIS algorithm (\[Gha16\]) in the 1-bit-message form used by
//! \[Gha19\] — the substrate of Phase II (shattering) and Phase III
//! (parallel executions, Lemma 2.7).
//!
//! Every node keeps a *desire level* `p_t(v)`, initially 1/2. Per
//! iteration, the node marks itself with probability `p_t(v)`; a marked
//! node with no marked neighbor joins the MIS. The desire level halves
//! when a marked neighbor is observed and doubles (capped at 1/2)
//! otherwise. All feedback is carried by the 1-bit mark/join
//! announcements, so `Θ(log n)` independent executions fit in one
//! `O(log n)`-bit CONGEST message ([`congest_sim::PackedBits`]) — exactly
//! the parallel-execution trick of Lemma 2.7.

use congest_sim::{Inbox, InitApi, NodeId, PackedBits, Protocol, RecvApi, SendApi};
use rand::Rng;

/// Ghaffari's MIS, possibly many executions in parallel.
///
/// Each iteration spans 2 CONGEST rounds (mark exchange, join exchange).
/// Nodes outside `participating` sleep throughout. With `halt_when_done`
/// (single-execution shattering mode), decided nodes stop paying energy;
/// in multi-execution mode nodes stay awake for all `iterations` as in
/// Lemma 2.7.
#[derive(Debug, Clone)]
pub struct GhaffariMis<'a> {
    /// Which nodes run the algorithm.
    pub participating: &'a [bool],
    /// Number of desire-level iterations (2 rounds each).
    pub iterations: u32,
    /// Number of parallel independent executions.
    pub executions: usize,
    /// Whether decided nodes halt early (valid only for 1 execution).
    pub halt_when_done: bool,
}

/// Per-node, per-execution state of [`GhaffariMis`].
#[derive(Debug, Clone)]
pub struct GhaffariState {
    /// Per-execution membership in the independent set.
    pub joined: PackedBits,
    /// Per-execution coverage (a neighbor joined).
    pub removed: PackedBits,
    /// Per-execution desire levels; empty at a node that does not
    /// participate, so a sleeping node's state holds no heap memory.
    p: Vec<f64>,
    marked: PackedBits,
    saw_mark: PackedBits,
}

impl GhaffariState {
    /// Whether execution `e` still runs at this node.
    pub fn alive(&self, e: usize) -> bool {
        !self.joined.get(e) && !self.removed.get(e)
    }

    /// Whether every execution has decided.
    pub fn all_decided(&self) -> bool {
        (0..self.joined.width()).all(|e| !self.alive(e))
    }

    /// Desire level of execution `e` (test/inspection hook); a node that
    /// does not participate keeps the initial 1/2.
    pub fn desire(&self, e: usize) -> f64 {
        self.p.get(e).copied().unwrap_or(P_MAX)
    }
}

/// Initial and largest desire level.
const P_MAX: f64 = 0.5;

const P_MIN: f64 = 1.0 / (1u64 << 40) as f64;

impl Protocol for GhaffariMis<'_> {
    type State = GhaffariState;
    type Msg = PackedBits;

    fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> GhaffariState {
        assert!(
            !self.halt_when_done || self.executions == 1,
            "early halting is only sound for a single execution"
        );
        let participates = self.participating[node as usize];
        if participates {
            // Self-rescheduling: wake for the first iteration; each recv
            // schedules the next while undecided.
            api.wake_range(0..2);
        }
        GhaffariState {
            joined: PackedBits::new(self.executions),
            removed: PackedBits::new(self.executions),
            p: if participates {
                vec![P_MAX; self.executions]
            } else {
                Vec::new()
            },
            marked: PackedBits::new(self.executions),
            saw_mark: PackedBits::new(self.executions),
        }
    }

    fn send(&self, state: &mut GhaffariState, api: &mut SendApi<'_, PackedBits>) {
        let sub = api.round() % 2;
        if sub == 0 {
            // Mark sub-round: draw marks for all alive executions.
            let mut any = false;
            for e in 0..self.executions {
                let mark = state.alive(e) && api.rng().gen_bool(state.p[e]);
                state.marked.set(e, mark);
                any |= mark;
            }
            if any {
                api.broadcast(state.marked.clone());
            }
        } else {
            // Join sub-round: marked nodes with no marked neighbor join.
            let mut joins = PackedBits::new(self.executions);
            let mut any = false;
            for e in 0..self.executions {
                if state.alive(e) && state.marked.get(e) && !state.saw_mark.get(e) {
                    state.joined.set(e, true);
                    joins.set(e, true);
                    any = true;
                }
            }
            if any {
                api.broadcast(joins);
            }
        }
    }

    fn recv(&self, state: &mut GhaffariState, inbox: Inbox<'_, PackedBits>, api: &mut RecvApi<'_>) {
        let sub = api.round() % 2;
        if sub == 0 {
            let mut seen = PackedBits::new(self.executions);
            for (_, bits) in inbox {
                seen.or_assign(bits);
            }
            state.saw_mark = seen;
            for e in 0..self.executions {
                if state.alive(e) {
                    state.p[e] = if state.saw_mark.get(e) {
                        (state.p[e] / 2.0).max(P_MIN)
                    } else {
                        (state.p[e] * 2.0).min(P_MAX)
                    };
                }
            }
        } else {
            for (_, bits) in inbox {
                for e in 0..self.executions {
                    if bits.get(e) && !state.joined.get(e) {
                        state.removed.set(e, true);
                    }
                }
            }
            let iteration = api.round() / 2;
            if iteration + 1 < u64::from(self.iterations) {
                if self.halt_when_done && state.all_decided() {
                    api.halt();
                } else {
                    let next = api.round() + 1;
                    api.wake_range(next..next + 2);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{run, SimConfig};
    use mis_graphs::{generators, props};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_single(
        g: &mis_graphs::Graph,
        iterations: u32,
        seed: u64,
        halt: bool,
    ) -> (Vec<bool>, Vec<bool>, congest_sim::Metrics) {
        let participating = vec![true; g.n()];
        let proto = GhaffariMis {
            participating: &participating,
            iterations,
            executions: 1,
            halt_when_done: halt,
        };
        let res = run(g, &proto, &SimConfig::seeded(seed)).unwrap();
        let joined: Vec<bool> = res.states.iter().map(|s| s.joined.get(0)).collect();
        let alive: Vec<bool> = res.states.iter().map(|s| s.alive(0)).collect();
        (joined, alive, res.metrics)
    }

    #[test]
    fn output_is_independent_always() {
        let mut rng = SmallRng::seed_from_u64(3);
        for seed in 0..8 {
            let g = generators::gnp(300, 0.03, &mut rng);
            let (joined, _, _) = run_single(&g, 20, seed, true);
            assert!(
                props::independence_violation(&g, &joined).is_none(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn long_run_decides_everyone_on_bounded_degree() {
        let g = generators::grid2d(20, 20);
        let (joined, alive, _) = run_single(&g, 60, 7, true);
        assert!(alive.iter().all(|&a| !a), "grid not fully decided");
        assert!(props::is_mis(&g, &joined));
    }

    #[test]
    fn shattering_leaves_few_undecided() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = generators::gnp(3000, 8.0 / 3000.0, &mut rng);
        // O(log ∆) iterations: degree ~8, run 24 iterations.
        let (joined, alive, _) = run_single(&g, 24, 1, true);
        assert!(props::independence_violation(&g, &joined).is_none());
        let remaining = alive.iter().filter(|&&a| a).count();
        assert!(
            remaining < 3000 / 20,
            "shattering left {remaining} of 3000 nodes undecided"
        );
    }

    #[test]
    fn parallel_executions_are_independent_sets() {
        let mut rng = SmallRng::seed_from_u64(13);
        let g = generators::gnp(200, 0.05, &mut rng);
        let participating = vec![true; g.n()];
        let execs = 16;
        let proto = GhaffariMis {
            participating: &participating,
            iterations: 30,
            executions: execs,
            halt_when_done: false,
        };
        let res = run(&g, &proto, &SimConfig::seeded(5)).unwrap();
        let mut fully_decided_execs = 0;
        for e in 0..execs {
            let joined: Vec<bool> = res.states.iter().map(|s| s.joined.get(e)).collect();
            assert!(
                props::independence_violation(&g, &joined).is_none(),
                "execution {e} not independent"
            );
            if res.states.iter().all(|s| !s.alive(e)) {
                assert!(props::is_mis(&g, &joined), "decided execution {e} not MIS");
                fully_decided_execs += 1;
            }
        }
        assert!(
            fully_decided_execs > 0,
            "no execution finished in 30 iterations"
        );
        // Message width = executions, CONGEST-compatible by construction.
        assert_eq!(res.metrics.max_message_bits, execs);
    }

    #[test]
    fn nonparticipants_sleep() {
        let g = generators::path(6);
        let mut participating = vec![true; 6];
        participating[0] = false;
        let proto = GhaffariMis {
            participating: &participating,
            iterations: 30,
            executions: 1,
            halt_when_done: true,
        };
        let res = run(&g, &proto, &SimConfig::seeded(2)).unwrap();
        assert_eq!(res.metrics.awake_rounds[0], 0);
        // Node 0 never acts, so the MIS is over nodes 1..6 only.
        let joined: Vec<bool> = res.states.iter().map(|s| s.joined.get(0)).collect();
        assert!(!joined[0]);
        assert!(props::independence_violation(&g, &joined).is_none());
    }

    #[test]
    fn early_halt_saves_energy() {
        let g = generators::complete(12);
        let (_, _, m_halt) = run_single(&g, 40, 3, true);
        // On K12 one node joins in iteration ~1 and everyone halts.
        assert!(
            m_halt.max_awake() < 20,
            "halting nodes kept paying: {}",
            m_halt.max_awake()
        );
    }

    #[test]
    #[should_panic(expected = "only sound for a single execution")]
    fn multi_exec_halt_rejected() {
        let g = generators::path(2);
        let participating = vec![true; 2];
        let proto = GhaffariMis {
            participating: &participating,
            iterations: 2,
            executions: 2,
            halt_when_done: true,
        };
        let _ = run(&g, &proto, &SimConfig::seeded(0));
    }

    #[test]
    fn desire_levels_move() {
        let g = generators::complete(8);
        let participating = vec![true; 8];
        let proto = GhaffariMis {
            participating: &participating,
            iterations: 3,
            executions: 1,
            halt_when_done: false,
        };
        let res = run(&g, &proto, &SimConfig::seeded(9)).unwrap();
        // On a complete graph with many marks flying around, at least one
        // node should have halved its desire below the initial 1/2, unless
        // everything decided in the very first iterations.
        let any_below = res.states.iter().any(|s| s.desire(0) < 0.5);
        let all_decided = res.states.iter().all(|s| !s.alive(0));
        assert!(any_below || all_decided);
    }
}
