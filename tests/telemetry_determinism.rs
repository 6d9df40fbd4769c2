//! Telemetry's determinism contract, end to end: for a fixed
//! `(algorithm, graph, seed)` the artifact's deterministic sections —
//! `counters` and `histograms` — are bit-identical across the
//! sequential engine and every sharded thread count, while the
//! quarantined sections (`engine`, `timings_ns`) are allowed to differ.
//! And when telemetry is *off* (the default), runs carry no artifact at
//! all and the engine's steady-state allocation profile is untouched.

use congest_sim::{
    run_with, EngineScratch, Inbox, InitApi, NodeId, Protocol, RecvApi, SendApi, SimConfig,
};
use distributed_mis::prelude::*;
use mis_runner::registry;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Counters and histograms are bit-identical across thread counts
    /// 0/2/4 for the paper algorithms and the Luby baseline, on both
    /// random graph families.
    #[test]
    fn telemetry_counters_are_engine_invariant(
        kind in 0u32..2,
        n in 8usize..96,
        deg in 2u32..6,
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

        for algo in ["luby", "alg1", "alg2"] {
            let alg = registry::from_name(algo).expect("registered");
            let baseline = alg
                .run(&g, &RunConfig::seeded(seed).telemetry(true))
                .expect("sequential run");
            let base_tel = baseline.telemetry.as_ref().expect("telemetry requested");
            prop_assert!(
                base_tel.get_counter("elapsed_rounds").is_some()
                    && base_tel.get_histogram("awake_rounds").is_some(),
                "core counter and histogram must always be registered"
            );
            for threads in [2usize, 4] {
                let par = alg
                    .run(&g, &RunConfig::seeded(seed).threads(threads).telemetry(true))
                    .expect("parallel run");
                let par_tel = par.telemetry.as_ref().expect("telemetry requested");
                // The deterministic sections must survive a cross-engine
                // byte diff; `engine`/`timings_ns` are exempt by design.
                prop_assert_eq!(
                    &par_tel.counters, &base_tel.counters,
                    "counters diverged: {} @ {} threads", algo, threads
                );
                prop_assert_eq!(
                    &par_tel.histograms, &base_tel.histograms,
                    "histograms diverged: {} @ {} threads", algo, threads
                );
                prop_assert_eq!(&par.metrics.probes, &baseline.metrics.probes);
            }
        }
    }
}

/// The engine's fast-path counters (`exchange_skipped_pairs`,
/// `local_only_rounds`) and cut accounting are *per-configuration*
/// deterministic: re-running the same `(algorithm, graph, seed,
/// threads)` reproduces the whole `engine_stats` section bit-identically
/// at 2 and 4 threads, and the counters reach the telemetry artifact's
/// engine section and its Prometheus rendering. (Across thread counts
/// they may differ — that is why they live in quarantined stats, not in
/// fingerprinted probes.)
#[test]
fn fast_path_counters_are_deterministic_per_config() {
    let g = "gnp:n=96,deg=5,seed=7"
        .parse::<WorkloadSpec>()
        .unwrap()
        .build();
    for algo in ["luby", "alg1", "alg2"] {
        let alg = registry::from_name(algo).expect("registered");
        for threads in [2usize, 4] {
            let cfg = RunConfig::seeded(11).threads(threads).telemetry(true);
            let a = alg.run(&g, &cfg).expect("first run");
            let b = alg.run(&g, &cfg).expect("second run");
            assert_eq!(
                a.engine_stats, b.engine_stats,
                "engine stats diverged: {algo} @ {threads} threads"
            );
            assert_eq!(a.engine_stats.shards, threads as u64);
            let tel = a.telemetry.as_ref().expect("telemetry requested");
            let engine: std::collections::BTreeMap<&str, u64> = tel
                .engine
                .iter()
                .map(|(name, v)| (name.as_str(), *v))
                .collect();
            for key in [
                "exchange_skipped_pairs",
                "local_only_rounds",
                "cut_messages",
                "cut_slots",
            ] {
                assert!(
                    engine.contains_key(key),
                    "{key} missing from the telemetry engine section ({algo})"
                );
            }
            let text = tel.to_prometheus();
            assert!(
                text.contains("exchange_skipped_pairs") && text.contains("local_only_rounds"),
                "fast-path counters missing from the Prometheus snapshot ({algo})"
            );
        }
    }
}

/// Telemetry off (the default) means no artifact: every registry
/// algorithm leaves `RunReport::telemetry` as `None`, and the explicit
/// builder round-trips.
#[test]
fn disabled_telemetry_attaches_nothing() {
    let g = "gnp:n=64,deg=4,seed=1"
        .parse::<WorkloadSpec>()
        .unwrap()
        .build();
    for alg in registry::algorithms() {
        let report = alg.run(&g, &RunConfig::seeded(3)).unwrap();
        assert!(report.telemetry.is_none(), "{}", alg.name());
        let report = alg.run(&g, &RunConfig::seeded(3).telemetry(false)).unwrap();
        assert!(report.telemetry.is_none(), "{}", alg.name());
    }
}

/// The always-on probe layer is plain counter increments: re-running a
/// protocol on a warm [`EngineScratch`] still allocates nothing, so
/// instrumentation costs no steady-state memory even though probes are
/// counted unconditionally.
#[test]
fn probe_counting_is_allocation_free_in_steady_state() {
    struct Ping;
    impl Protocol for Ping {
        type State = u64;
        type Msg = u8;
        fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> u64 {
            for r in 0..4 {
                api.wake_at(r);
            }
            u64::from(node)
        }
        fn send(&self, state: &mut u64, api: &mut SendApi<'_, u8>) {
            api.broadcast((*state & 0xff) as u8);
        }
        fn recv(&self, state: &mut u64, inbox: Inbox<'_, u8>, _api: &mut RecvApi<'_>) {
            for (_, v) in inbox {
                *state = state.wrapping_add(u64::from(*v));
            }
        }
    }

    let g = "gnp:n=128,deg=6,seed=2"
        .parse::<WorkloadSpec>()
        .unwrap()
        .build();
    let cfg = SimConfig::seeded(5);
    let mut scratch = EngineScratch::new(&g);
    let first = run_with(&g, &Ping, &cfg, &mut scratch, None).unwrap();
    let warm = scratch.capacity_signature();
    let second = run_with(&g, &Ping, &cfg, &mut scratch, None).unwrap();
    assert_eq!(
        warm,
        scratch.capacity_signature(),
        "probe counting must not allocate in steady state"
    );
    assert_eq!(first.metrics, second.metrics);
    assert!(
        first.metrics.probes.wakeups_scheduled > 0,
        "probes were live during the allocation-free run"
    );
}

/// A node's RNG is derived at its first draw, so a phase derives one RNG
/// per node that draws and none for the nodes that sleep through it. On
/// a grid that shattering does not finish, the tail's merge protocols
/// never draw, the shattering derives one RNG per participant, and each
/// finish execution derives exactly its pending nodes — at every thread
/// count.
#[test]
fn rng_derivations_follow_the_nodes_that_draw() {
    let g = "grid:n=16384".parse::<WorkloadSpec>().unwrap().build();
    let alg = registry::from_name("alg1").expect("registered");
    let mut per_phase = Vec::new();
    for threads in [0usize, 2] {
        let report = alg
            .run(&g, &RunConfig::seeded(9).threads(threads))
            .expect("alg1 solves the grid");
        let residual = report.extras["phase2_remaining"] as u64;
        assert!(residual > 0, "shattering left no residual");
        assert!(
            report.phases.iter().any(|(name, _)| name == "merge:ports"),
            "the Borůvka merge never chose an edge"
        );
        let mut finishes = 0;
        for (name, m) in &report.phases {
            let derived = m.probes.rngs_derived;
            let woke = m.awake_rounds.iter().filter(|&&a| a > 0).count() as u64;
            if name.starts_with("merge:") {
                assert_eq!(derived, 0, "{name} drew randomness ({threads} threads)");
            } else if name == "phase2:shatter" {
                let active = report.extras["tail_input_active"] as u64;
                assert_eq!(derived, active, "{name} ({threads} threads)");
            } else if name == "finish:executions" {
                if finishes == 0 {
                    assert_eq!(derived, residual, "first attempt ({threads} threads)");
                }
                assert_eq!(derived, woke, "{name} ({threads} threads)");
                finishes += 1;
            }
        }
        assert!(finishes > 0, "the finish never ran");
        let total: u64 = report
            .phases
            .iter()
            .map(|(_, m)| m.probes.rngs_derived)
            .sum();
        assert_eq!(report.metrics.probes.rngs_derived, total);
        assert!(
            total < 2 * g.n() as u64,
            "{total} derivations for n = {}",
            g.n()
        );
        per_phase.push(
            report
                .phases
                .iter()
                .map(|(_, m)| m.probes.rngs_derived)
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        per_phase[0], per_phase[1],
        "derivations differ across threads"
    );
}
