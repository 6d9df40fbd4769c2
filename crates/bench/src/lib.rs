//! Experiment harness for the energy-MIS reproduction.
//!
//! The paper (PODC 2023) has no empirical tables — it is a theory paper —
//! so the "evaluation" to regenerate is the set of theorem claims, turned
//! into measured scaling experiments E1–E14 (see DESIGN.md §6 and
//! EXPERIMENTS.md). Each experiment here prints a markdown table; the
//! `experiments` binary drives them and `cargo bench` provides wall-clock
//! counterparts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod degradation;
pub mod experiments;
pub mod table;

use mis_graphs::generators::Family;
use mis_graphs::Graph;
use mis_runner::WorkloadSpec;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-thread count every experiment's engine runs use; see
/// [`set_threads`].
static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the parallel worker count for the whole experiment suite (the
/// `--threads N` flag of the `experiments` binary): `0` and `1` run one
/// shard on the calling thread (the sequential engine), `N >= 2` runs
/// `N` worker shards (matching `SimConfig::threads` and the examples). Every value
/// produces bit-identical tables (the engine's determinism contract), so
/// this is purely a wall-clock knob.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The current suite-wide worker-thread count.
pub fn threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// Standard workload: `G(n, p)` with expected average degree 10
/// (`gnp:n=..,deg=10` in the [`WorkloadSpec`] grammar every suite now
/// shares).
pub fn workload_gnp(n: usize, seed: u64) -> Graph {
    WorkloadSpec::new(Family::GnpAvgDeg(10), n)
        .with_seed(seed)
        .build()
}

/// Dense workload: a `d`-regular graph that forces Phase I to engage
/// (`regular:n=..,d=..`).
pub fn workload_regular(n: usize, d: usize, seed: u64) -> Graph {
    WorkloadSpec::new(Family::Regular(d as u32), n)
        .with_seed(seed)
        .build()
}

/// Skewed workload: Barabási–Albert preferential attachment with `m`
/// edges per arrival (`ba:n=..,m=..`) — a heavy-tailed degree
/// distribution whose hubs stress partition balance and cut quality.
pub fn workload_ba(n: usize, m: usize, seed: u64) -> Graph {
    WorkloadSpec::new(Family::BarabasiAlbert(m as u32), n)
        .with_seed(seed)
        .build()
}

/// The n-sweep used by the scaling experiments.
pub fn size_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![1 << 10, 1 << 12, 1 << 14]
    } else {
        vec![
            1 << 10,
            1 << 11,
            1 << 12,
            1 << 13,
            1 << 14,
            1 << 15,
            1 << 16,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_requested_sizes() {
        assert_eq!(workload_gnp(256, 1).n(), 256);
        assert_eq!(workload_regular(128, 4, 1).n(), 128);
        assert!(size_sweep(true).len() < size_sweep(false).len());
    }
}
