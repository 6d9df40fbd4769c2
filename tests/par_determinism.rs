//! Property test: the sharded parallel engine is observationally
//! indistinguishable from the sequential engine on random instances.
//!
//! For random `G(n, p)` and random `d`-regular graphs, Luby and both of
//! the paper's algorithms must produce identical `Metrics` and identical
//! final states (MIS membership) at 2 and 4 worker threads as they do
//! sequentially — the engine's determinism-across-thread-counts
//! contract, probed across the input space rather than only on the
//! recorded golden workloads.

use congest_sim::{RoundLog, SimConfig};
use energy_mis::params::{Alg1Params, Alg2Params};
use energy_mis::{alg1, alg2};
use mis_baselines::{luby, luby_observed};
use mis_graphs::{generators, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a over a run's final per-node MIS bits: the "final-state hash"
/// the parity assertions compare.
fn state_hash(in_mis: &[bool]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in in_mis {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Random G(n,p) with the given average degree.
fn gnp(n: usize, avg_deg: f64, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    generators::gnp(n, (avg_deg / n.max(2) as f64).min(1.0), &mut rng)
}

/// Random d-regular; rounds `n` up so `n * d` is even.
fn regular(n: usize, d: usize, seed: u64) -> Graph {
    let n = if n * d % 2 == 1 { n + 1 } else { n };
    let mut rng = SmallRng::seed_from_u64(seed);
    generators::random_regular(n, d, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn luby_parallel_parity(n in 24usize..140, avg in 1.0f64..8.0, seed in any::<u64>()) {
        for g in [gnp(n, avg, seed), regular(n, 4, seed)] {
            let cfg = SimConfig::seeded(seed ^ 0x5eed);
            let seq = luby(&g, &cfg).unwrap();
            for threads in [2usize, 4] {
                let par = luby(&g, &cfg.with_threads(threads)).unwrap();
                prop_assert_eq!(&par.metrics, &seq.metrics, "metrics @ {} threads", threads);
                prop_assert_eq!(
                    state_hash(&par.in_mis),
                    state_hash(&seq.in_mis),
                    "state hash @ {} threads",
                    threads
                );
            }
        }
    }

    #[test]
    fn alg1_parallel_parity(n in 24usize..120, d in 3usize..9, seed in any::<u64>()) {
        for g in [gnp(n, d as f64, seed), regular(n, d, seed)] {
            let params = Alg1Params::default();
            let cfg = SimConfig::seeded(seed ^ 0xa1);
            let seq = alg1::run_algorithm1_with(&g, &params, &cfg).unwrap();
            prop_assert!(seq.is_mis());
            for threads in [2usize, 4] {
                let par = alg1::run_algorithm1_with(&g, &params, &cfg.with_threads(threads)).unwrap();
                prop_assert_eq!(&par.metrics, &seq.metrics, "metrics @ {} threads", threads);
                prop_assert_eq!(
                    state_hash(&par.in_mis),
                    state_hash(&seq.in_mis),
                    "state hash @ {} threads",
                    threads
                );
            }
        }
    }

    /// Adversarially imbalanced partitions: a star puts one hub of
    /// degree `n - 1` in a single shard (the degree-weighted split gives
    /// that shard almost everything, so most cut pairs never exist), and
    /// a Barabási–Albert graph concentrates its heavy tail the same way.
    /// At 2, 4, and 8 shards — including shards that end up with zero or
    /// one node — metrics, final states, and the full per-round observer
    /// stream must stay bit-identical to the sequential engine, and the
    /// one-barrier loop must terminate (a skew-induced deadlock would
    /// hang this test, not fail an assertion).
    #[test]
    fn imbalanced_graphs_match_sequential_at_every_shard_count(
        n in 16usize..120,
        m in 2usize..5,
        seed in any::<u64>(),
    ) {
        let ba = {
            let mut rng = SmallRng::seed_from_u64(seed);
            generators::barabasi_albert(n, m, &mut rng)
        };
        for g in [generators::star(n), ba] {
            let cfg = SimConfig::seeded(seed ^ 0x1b);
            let mut seq_log = RoundLog::new();
            let seq = luby_observed(&g, &cfg, &mut seq_log).unwrap();
            for threads in [2usize, 4, 8] {
                let mut par_log = RoundLog::new();
                let par = luby_observed(&g, &cfg.with_threads(threads), &mut par_log).unwrap();
                prop_assert_eq!(&par.metrics, &seq.metrics, "metrics @ {} threads", threads);
                prop_assert_eq!(
                    state_hash(&par.in_mis),
                    state_hash(&seq.in_mis),
                    "state hash @ {} threads",
                    threads
                );
                prop_assert_eq!(
                    &par_log, &seq_log,
                    "observer stream diverged @ {} threads", threads
                );
            }
            // The paper's algorithm on the same skewed shapes, for the
            // metrics/state half of the contract (its observer path is
            // covered by the runner's round-log plumbing elsewhere).
            let params = Alg1Params::default();
            let seq = alg1::run_algorithm1_with(&g, &params, &cfg).unwrap();
            for threads in [2usize, 4, 8] {
                let par =
                    alg1::run_algorithm1_with(&g, &params, &cfg.with_threads(threads)).unwrap();
                prop_assert_eq!(&par.metrics, &seq.metrics, "alg1 metrics @ {} threads", threads);
                prop_assert_eq!(
                    state_hash(&par.in_mis),
                    state_hash(&seq.in_mis),
                    "alg1 state hash @ {} threads",
                    threads
                );
            }
        }
    }

    #[test]
    fn alg2_parallel_parity(n in 24usize..120, d in 3usize..9, seed in any::<u64>()) {
        for g in [gnp(n, d as f64, seed), regular(n, d, seed)] {
            let params = Alg2Params::default();
            let cfg = SimConfig::seeded(seed ^ 0xa2);
            let seq = alg2::run_algorithm2_with(&g, &params, &cfg).unwrap();
            prop_assert!(seq.is_mis());
            for threads in [2usize, 4] {
                let par = alg2::run_algorithm2_with(&g, &params, &cfg.with_threads(threads)).unwrap();
                prop_assert_eq!(&par.metrics, &seq.metrics, "metrics @ {} threads", threads);
                prop_assert_eq!(
                    state_hash(&par.in_mis),
                    state_hash(&seq.in_mis),
                    "state hash @ {} threads",
                    threads
                );
            }
        }
    }
}
