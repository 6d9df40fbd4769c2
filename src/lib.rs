//! `distributed-mis` — reproduction of *"Distributed MIS with Low Energy
//! and Time Complexities"* (Ghaffari & Portmann, PODC 2023,
//! arXiv:2305.11639).
//!
//! This facade crate re-exports the five building blocks of the
//! workspace so applications can depend on a single crate:
//!
//! * [`runner`] ([`mis_runner`]) — **the unified scenario API**: the
//!   type-erased [`Algorithm`](mis_runner::Algorithm) registry, the
//!   [`WorkloadSpec`](mis_runner::WorkloadSpec) workload grammar,
//!   declarative [`Scenario`](mis_runner::Scenario) sweeps, and the
//!   [`IncrementalAlgorithm`](mis_runner::IncrementalAlgorithm)
//!   registry maintaining an MIS under churn (`edits:` workloads,
//!   repairs that wake only the affected set);
//! * [`algorithms`] ([`energy_mis`]) — the paper's Algorithm 1,
//!   Algorithm 2, and the Section 4 constant-average-energy extension;
//! * [`sim`] ([`congest_sim`]) — the sleeping-CONGEST simulator with
//!   energy accounting and per-round [`RoundObserver`](congest_sim::RoundObserver)
//!   hooks;
//! * [`graphs`] ([`mis_graphs`]) — graph types and workload generators;
//! * [`baselines`] ([`mis_baselines`]) — Luby and friends.
//!
//! # Quickstart
//!
//! Every algorithm of the reproduction — the paper's two, the Section 4
//! average-energy variants, and the baselines — runs through one code
//! path and returns one report type:
//!
//! ```
//! use distributed_mis::prelude::*;
//!
//! let g = "gnp:n=400,deg=8".parse::<WorkloadSpec>().unwrap().build();
//! let cfg = RunConfig::seeded(7);
//!
//! let ours = <dyn Algorithm>::from_name("alg1").unwrap().run(&g, &cfg).unwrap();
//! let luby = <dyn Algorithm>::from_name("luby").unwrap().run(&g, &cfg).unwrap();
//!
//! assert!(ours.is_mis() && luby.is_mis());
//! // Both are MISes; ours lets nodes sleep.
//! println!(
//!     "energy: ours = {}, luby = {}",
//!     ours.metrics.max_awake(),
//!     luby.metrics.max_awake()
//! );
//! ```
//!
//! Whole sweeps are one [`Scenario`](mis_runner::Scenario) value:
//!
//! ```
//! use distributed_mis::prelude::*;
//!
//! let reports = Scenario::parse("luby", "cycle:n=64")
//!     .unwrap()
//!     .seeds(0..3)
//!     .run()
//!     .unwrap();
//! assert!(reports.iter().all(|r| r.is_mis()));
//! ```
//!
//! Churn workloads drive the incremental registry through the same
//! path — solve the base graph once, then per edit batch a repair that
//! wakes only the affected set, with [`RunReport::repair`](mis_runner::RunReport::repair)
//! accounting for the awake sets:
//!
//! ```
//! use distributed_mis::prelude::*;
//!
//! let reports = Scenario::parse("inc-luby", "edits:base=gnp:n=128,deg=6;batches=4;ops=8")
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(reports[0].is_mis());
//! assert_eq!(reports[0].repair.unwrap().batches, 4);
//! ```
//!
//! # Migrating from the old free functions
//!
//! New code should prefer the registry. The seed-only shims
//! (`run_algorithm1`, `run_algorithm2`, `run_avg_energy`,
//! `run_avg_energy2`) have been **removed** after their deprecation
//! cycle — the `_with`/`_observed` variants stay, as the parameterized
//! escape hatch the registry wraps:
//!
//! | old | new |
//! |---|---|
//! | `run_algorithm1(&g, &params, seed)` (removed) | `<dyn Algorithm>::from_name("alg1")?.run(&g, &RunConfig::seeded(seed))` |
//! | `run_algorithm2_with(&g, &params, &sim_cfg)` | `<dyn Algorithm>::from_name("alg2")?.run(&g, &sim_cfg.into())` |
//! | `run_avg_energy(&g, &base, &ae, seed)` (removed) | `<dyn Algorithm>::from_name("avg1")?.run(&g, &RunConfig::seeded(seed))` |
//! | `run_avg_energy2(&g, &base, &ae, seed)` (removed) | `<dyn Algorithm>::from_name("avg2")?.run(&g, &RunConfig::seeded(seed))` |
//! | `luby(&g, &sim_cfg)` | `<dyn Algorithm>::from_name("luby")?.run(&g, &sim_cfg.into())` |
//! | `permutation(&g, &sim_cfg)` | `<dyn Algorithm>::from_name("permutation")?.run(&g, &sim_cfg.into())` |
//! | `greedy_mis(&g)` | `<dyn Algorithm>::from_name("greedy")?.run(&g, &RunConfig::default())` |
//! | hand-rolled `generators::gnp(n, p, &mut rng)` setup | `"gnp:n=..,deg=..".parse::<WorkloadSpec>()?.build()` |
//! | custom params: `run_algorithm1_with(&g, &p, &c)` | `runner::Alg1 { params: p }.run(&g, &c.into())` |
//! | re-running from scratch after a graph edit | `incremental::from_name("inc-alg1")?` + `run_churn_on(alg, g, churn, &cfg)` (or an `edits:` [`Scenario`](mis_runner::Scenario)) |
//! | clean-network-only runs (no channel knob) | `"gnp:n=..,deg=..;channel=loss:p=0.05".parse::<WorkloadSpec>()?` — the `;channel=` arm selects the delivery model ([`ChannelModel`](congest_sim::ChannelModel); default `ideal` is the old behavior, bit for bit) |
//!
//! The engine has two entry points, [`run`](congest_sim::run) and
//! [`run_with`](congest_sim::run_with), and one round loop at every
//! thread count; its nine old entry points are gone:
//!
//! | old (removed) | new |
//! |---|---|
//! | `run_auto(&g, &p, &cfg)`, `run_parallel(&g, &p, &cfg, t)` | `run(&g, &p, &cfg.with_threads(t))` |
//! | `run_observed(&g, &p, &cfg, obs)`, `run_auto_observed(..)`, `run_parallel_observed(..)` | `run_with(&g, &p, &cfg, &mut EngineScratch::new(&g), Some(obs))` |
//! | `run_with_scratch(&g, &p, &cfg, &mut s)`, `run_with_scratch_observed(..)` | `run_with(&g, &p, &cfg, &mut s, obs)` |
//! | `run_parallel_with_scratch(&g, &p, &cfg, t, &mut ParScratch::new(&g, t))` | `run_with(&g, &p, &cfg.with_threads(t), &mut EngineScratch::new(&g), None)` |
//!
//! The old result types convert thinly:
//! [`MisReport`](energy_mis::MisReport) ↔
//! [`RunReport`](mis_runner::RunReport) via
//! [`RunReport::from_mis_report`](mis_runner::RunReport::from_mis_report) /
//! [`RunReport::into_mis_report`](mis_runner::RunReport::into_mis_report),
//! and [`MisRun`](mis_baselines::MisRun) via
//! [`RunReport::from_mis_run`](mis_runner::RunReport::from_mis_run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The unified scenario API (re-export of [`mis_runner`]).
pub mod runner {
    pub use mis_runner::*;
}

/// The paper's algorithms (re-export of [`energy_mis`]).
pub mod algorithms {
    pub use energy_mis::*;
}

/// The sleeping-CONGEST simulator (re-export of [`congest_sim`]).
pub mod sim {
    pub use congest_sim::*;
}

/// Graph substrate (re-export of [`mis_graphs`]).
pub mod graphs {
    pub use mis_graphs::*;
}

/// Baseline MIS algorithms (re-export of [`mis_baselines`]).
pub mod baselines {
    pub use mis_baselines::*;
}

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use congest_sim::{
        run, run_with, AdversarySchedule, ChannelModel, EnergyHistogram, EngineProbes,
        EngineScratch, EngineStats, Metrics, RoundEvent, RoundLog, RoundObserver, SimConfig,
        SleepWindow, Telemetry,
    };
    pub use energy_mis::alg1::{run_algorithm1_observed, run_algorithm1_with};
    pub use energy_mis::alg2::{run_algorithm2_observed, run_algorithm2_with};
    pub use energy_mis::avg_energy::{run_avg_energy2_with, run_avg_energy_with};
    pub use energy_mis::params::{Alg1Params, Alg2Params, AvgEnergyParams};
    pub use energy_mis::MisReport;
    pub use mis_baselines::{greedy_mis, luby, permutation, MisRun};
    pub use mis_graphs::{generators, props, Graph, GraphBuilder, Partition};
    pub use mis_graphs::{DeltaGraph, EditBatch};
    pub use mis_runner::{
        incremental, registry, run_churn, run_churn_on, Algorithm, ChannelSpec, ChurnSpec,
        ChurnStream, IncrementalAlgorithm, RepairStats, RunConfig, RunReport, Scenario,
        ScenarioError, WorkloadSpec,
    };
}
