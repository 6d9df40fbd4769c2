//! Zero-fault channels are free: a run on `channel=ideal` — or on
//! `loss:p=0`, which the engine plans as ideal — must be bit-identical
//! to a run that never mentions a channel at all. Metrics, final states,
//! and the per-round observer stream, on both engines.
//!
//! This is the backward-compatibility half of the channel-model
//! contract: adding the delivery-fault layer must not perturb a single
//! bit of any pre-existing run (which is also why every golden
//! fingerprint recorded before the layer existed still holds).

use congest_sim::{
    run_with, ChannelModel, Inbox, InitApi, NodeId, Protocol, RecvApi, RoundLog, SendApi, SimConfig,
};
use distributed_mis::prelude::*;
use proptest::prelude::*;

/// A deliberately messy protocol: staggered wakeups (so sleeping
/// receivers exercise the lost-message path), per-node payloads, and a
/// state hash that is sensitive to message order and content.
struct Gossip {
    rounds: u64,
}

impl Protocol for Gossip {
    type State = u64;
    type Msg = u32;

    fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> u64 {
        for r in 0..self.rounds {
            if (u64::from(node) + r) % 3 != 0 {
                api.wake_at(r);
            }
        }
        u64::from(node).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn send(&self, state: &mut u64, api: &mut SendApi<'_, u32>) {
        api.broadcast((*state & 0xffff) as u32);
    }

    fn recv(&self, state: &mut u64, inbox: Inbox<'_, u32>, _api: &mut RecvApi<'_>) {
        for (src, v) in inbox {
            *state = state
                .wrapping_mul(31)
                .wrapping_add(u64::from(src) ^ u64::from(*v));
        }
    }
}

/// One observed run: (metrics, final states, full round log).
fn observed(g: &Graph, cfg: &SimConfig) -> (Metrics, Vec<u64>, RoundLog) {
    let mut log = RoundLog::default();
    let mut scratch = EngineScratch::new(g);
    let res = run_with(g, &Gossip { rounds: 6 }, cfg, &mut scratch, Some(&mut log)).expect("run");
    (res.metrics, res.states, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `channel=ideal` and `loss:p=0` are bit-identical to the
    /// channel-less default on random G(n,p) and d-regular graphs, at
    /// thread counts 0 (sequential), 2, and 4.
    #[test]
    fn zero_fault_channels_are_bit_identical(
        kind in 0u32..2,
        n in 8usize..160,
        deg in 2u32..7,
        gseed in 0u64..500,
        seed in 0u64..500,
    ) {
        let g = match kind {
            0 => format!("gnp:n={n},deg={deg},seed={gseed}"),
            // d-regular needs n·d even.
            _ => format!("regular:n={},d={},seed={gseed}", n * 2, deg),
        }
        .parse::<WorkloadSpec>()
        .expect("generated spec is valid")
        .build();

        for threads in [0usize, 2, 4] {
            let base_cfg = SimConfig::seeded(seed).with_threads(threads);
            let baseline = observed(&g, &base_cfg);
            for channel in [ChannelModel::Ideal, ChannelModel::Loss { p: 0.0 }] {
                let got = observed(&g, &base_cfg.with_channel(channel.clone()));
                prop_assert_eq!(&got.0, &baseline.0, "metrics diverged ({:?}, {} threads)", channel, threads);
                prop_assert_eq!(&got.1, &baseline.1, "states diverged ({:?}, {} threads)", channel, threads);
                prop_assert_eq!(&got.2, &baseline.2, "observer stream diverged ({:?}, {} threads)", channel, threads);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The per-round fault columns are an exact decomposition of the
    /// aggregate counters: on a faulty channel, the observer stream's
    /// `messages_dropped` / `collisions` sum to the run's
    /// [`Metrics::messages_dropped`] / [`Metrics::collisions`], and the
    /// full stream is bit-identical across engines and thread counts.
    #[test]
    fn per_round_fault_columns_sum_to_metrics(
        n in 8usize..120,
        deg in 2u32..7,
        gseed in 0u64..500,
        seed in 0u64..500,
        radio in any::<bool>(),
    ) {
        let g = format!("gnp:n={n},deg={deg},seed={gseed}")
            .parse::<WorkloadSpec>()
            .expect("generated spec is valid")
            .build();
        let channel = if radio {
            ChannelModel::RadioCollision
        } else {
            ChannelModel::Loss { p: 0.25 }
        };

        let seq = observed(&g, &SimConfig::seeded(seed).with_channel(channel.clone()));
        let dropped: u64 = seq.2.events().map(|e| e.messages_dropped).sum();
        let collisions: u64 = seq.2.events().map(|e| e.collisions).sum();
        prop_assert_eq!(dropped, seq.0.messages_dropped, "per-round drops must sum to the aggregate");
        prop_assert_eq!(collisions, seq.0.collisions, "per-round collisions must sum to the aggregate");
        if radio {
            // Each collision event silences ≥ 2 transmitting in-neighbors.
            prop_assert!(seq.0.messages_dropped >= 2 * seq.0.collisions);
        } else {
            prop_assert_eq!(seq.0.collisions, 0, "loss channels never collide");
        }

        for threads in [2usize, 4] {
            let par = observed(
                &g,
                &SimConfig::seeded(seed).with_threads(threads).with_channel(channel.clone()),
            );
            prop_assert_eq!(&par.0, &seq.0, "metrics diverged at {} threads", threads);
            prop_assert_eq!(&par.2, &seq.2, "fault stream diverged at {} threads", threads);
        }
    }
}

/// The same guarantee one layer up: a `;channel=ideal` (or `loss:p=0`)
/// workload produces the same reports as the bare spec, through the
/// full Scenario path (registry dispatch, seed sweep, report assembly).
#[test]
fn scenario_zero_fault_channels_match_bare_workloads() {
    let run = |workload: &str, threads: usize| {
        Scenario::parse("luby", workload)
            .unwrap()
            .seeds(0..2)
            .threads(threads)
            .run()
            .unwrap()
    };
    for threads in [0usize, 2] {
        let bare = run("gnp:n=128,deg=6", threads);
        for channel in [
            "gnp:n=128,deg=6;channel=ideal",
            "gnp:n=128,deg=6;channel=loss:p=0",
        ] {
            let got = run(channel, threads);
            for (a, b) in bare.iter().zip(&got) {
                assert_eq!(a.in_mis, b.in_mis, "{channel} @ {threads} threads");
                assert_eq!(a.metrics, b.metrics, "{channel} @ {threads} threads");
                assert_eq!(a.mis_size(), b.mis_size());
            }
        }
    }
}
