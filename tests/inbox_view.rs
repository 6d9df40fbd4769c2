//! Property tests for the zero-copy [`Inbox`] view.
//!
//! The view replaced the engine's materialized `&[(NodeId, Msg)]` inbox
//! slices; its contract is that iterating it yields **exactly** the
//! sequence the old engine would have copied out: one `(sender, msg)`
//! pair per message delivered this round, in ascending sender order.
//! These tests replay randomized workloads (G(n,p) and d-regular, mixed
//! broadcast / rank-addressed sends, staggered sleepers) on both engines
//! and compare every node's recorded inbox sequence against a model
//! computed directly from the graph — plus consistency of the view's
//! `count` / `is_empty` / `first` accessors with its iteration.

use congest_sim::{
    run, run_with, EngineScratch, Inbox, InitApi, NodeId, Protocol, RecvApi, SendApi, SimConfig,
};
use mis_graphs::{generators, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Rounds the recorder protocol runs for.
const ROUNDS: u64 = 6;

/// Whether node `v` is awake in round `r` (staggered so every round has
/// sleepers and messages to them are dropped).
fn awake(v: NodeId, r: u64) -> bool {
    (u64::from(v) + r) % 3 != 0
}

/// The payload node `v` sends in round `r` (distinct per sender/round).
fn payload(v: NodeId, r: u64) -> u64 {
    u64::from(v) * 100_003 + r
}

/// Whether `v` addresses its neighbor at `rank` in an odd round (the
/// rank-addressed subset pattern; even rounds broadcast to everyone).
fn targets_rank(v: NodeId, rank: usize) -> bool {
    (v as usize + rank) % 2 == 0
}

/// Records, for every round a node was awake, the exact sequence the
/// inbox view yielded.
struct Recorder;

type Trace = Vec<(u64, NodeId, u64)>;

impl Protocol for Recorder {
    type State = Trace;
    type Msg = u64;

    fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> Trace {
        for r in 0..ROUNDS {
            if awake(node, r) {
                api.wake_at(r);
            }
        }
        Vec::new()
    }

    fn send(&self, _state: &mut Trace, api: &mut SendApi<'_, u64>) {
        let (v, r) = (api.node(), api.round());
        if r % 2 == 0 {
            api.broadcast(payload(v, r));
        } else {
            for rank in 0..api.degree() {
                if targets_rank(v, rank) {
                    api.send_to_rank(rank, payload(v, r));
                }
            }
        }
    }

    fn recv(&self, state: &mut Trace, inbox: Inbox<'_, u64>, api: &mut RecvApi<'_>) {
        let r = api.round();
        let items: Vec<(NodeId, u64)> = inbox.iter().map(|(src, &m)| (src, m)).collect();
        // The view's accessors must agree with its iteration, and the
        // `Copy` view must yield the same sequence twice.
        assert_eq!(inbox.count(), items.len());
        assert_eq!(inbox.is_empty(), items.is_empty());
        assert_eq!(inbox.first().map(|(s, &m)| (s, m)), items.first().copied());
        let replay: Vec<(NodeId, u64)> = inbox.into_iter().map(|(src, &m)| (src, m)).collect();
        assert_eq!(items, replay, "iterating a Copy view twice diverged");
        for (src, msg) in items {
            state.push((r, src, msg));
        }
    }
}

/// The old engine's materialized inbox of node `v` in round `r`, modeled
/// straight from the graph: awake neighbors that addressed `v`, in
/// ascending sender order (the adjacency list is sorted).
fn model_inbox(g: &Graph, v: NodeId, r: u64) -> Vec<(u64, NodeId, u64)> {
    g.neighbors(v)
        .iter()
        .filter(|&&u| awake(u, r))
        .filter(|&&u| {
            if r % 2 == 0 {
                true // broadcast reaches every neighbor
            } else {
                let rank = g
                    .neighbors(u)
                    .binary_search(&v)
                    .expect("symmetric adjacency");
                targets_rank(u, rank)
            }
        })
        .map(|&u| (r, u, payload(u, r)))
        .collect()
}

fn check_graph(g: &Graph, threads: usize) {
    let cfg = SimConfig::seeded(1).with_threads(threads);
    let res = run(g, &Recorder, &cfg).unwrap();
    for v in g.nodes() {
        let expected: Trace = (0..ROUNDS)
            .filter(|&r| awake(v, r))
            .flat_map(|r| model_inbox(g, v, r))
            .collect();
        assert_eq!(
            res.states[v as usize], expected,
            "node {v} inbox sequence diverged from the slice-era model \
             ({threads} threads)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On random G(n,p), the view yields the exact ascending-by-sender
    /// `(sender, msg)` sequence of the old copied inbox — sequential and
    /// sharded engines alike.
    #[test]
    fn inbox_view_matches_slice_model_on_gnp(
        n in 8usize..72,
        avg in 1.0f64..9.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, (avg / n as f64).min(1.0), &mut rng);
        for threads in [0, 2] {
            check_graph(&g, threads);
        }
    }

    /// Same contract on random d-regular graphs.
    #[test]
    fn inbox_view_matches_slice_model_on_regular(
        n in 8usize..64,
        d in 2usize..6,
        seed in any::<u64>(),
    ) {
        let n = if n * d % 2 == 1 { n + 1 } else { n };
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng);
        for threads in [0, 3] {
            check_graph(&g, threads);
        }
    }
}

/// The scratch no longer carries a per-node inbox buffer — delivery
/// borrows from the round's payload arena in place. `FIXED_BUFFERS`
/// pins the per-shard buffer count (the slice-era scratch held the inbox
/// buffer where a shard now holds its cross-shard out stamps; the eighth
/// buffer is the derived-RNG bitset), and the capacity signature proves
/// reuse still allocates nothing in steady state even for this
/// broadcast-heavy recorder.
#[test]
fn scratch_has_no_inbox_buffer_and_reuse_is_allocation_free() {
    assert_eq!(EngineScratch::FIXED_BUFFERS, 8);
    let mut rng = SmallRng::seed_from_u64(9);
    let g = generators::gnp(256, 12.0 / 256.0, &mut rng);
    let cfg = SimConfig::seeded(4);
    let mut scratch = EngineScratch::new(&g);
    let first = run_with(&g, &Recorder, &cfg, &mut scratch, None).unwrap();
    let warm = scratch.capacity_signature();
    let second = run_with(&g, &Recorder, &cfg, &mut scratch, None).unwrap();
    assert_eq!(
        warm,
        scratch.capacity_signature(),
        "steady-state allocation"
    );
    assert_eq!(first.metrics, second.metrics);
    assert_eq!(first.states, second.states);
}
