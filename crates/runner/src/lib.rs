//! `mis-runner`: the unified scenario API of the energy-MIS
//! reproduction.
//!
//! The paper's experimental story is a *matrix*: {Algorithm 1,
//! Algorithm 2, the Section 4 average-energy variants, Luby,
//! permutation, greedy} × {graph families} × {seeds, thread counts}.
//! This crate makes every cell of that matrix reachable through one
//! code path:
//!
//! * [`Algorithm`] — an object-safe trait with a built-in
//!   [`registry`] type-erasing the seven bespoke entry points behind
//!   one [`RunReport`] (bitmap + metrics + verdicts + extras +
//!   optional per-round time series);
//! * [`WorkloadSpec`] — a round-trippable textual workload grammar
//!   (`gnp:n=65536,deg=8`, `regular:n=4096,d=16,seed=7`, …) so
//!   examples, benches, experiments, and CI share one workload
//!   language;
//! * [`Scenario`] — algorithm × workload × seed sweep as a value,
//!   with [`RunConfig::collect_rounds`] unlocking the engine's
//!   deterministic [`congest_sim::RoundObserver`] time series;
//! * [`IncrementalAlgorithm`] — the churn-facing twin of [`Algorithm`]:
//!   solve once, then per edit batch a repair that wakes only the
//!   affected set, driven by the `edits:` arm of the workload grammar
//!   (`edits:base=gnp:n=65536,deg=8;batches=64;ops=32;seed=3`) and
//!   reported through [`RunReport::repair`].
//!
//! # Quickstart
//!
//! ```
//! use mis_runner::{registry, RunConfig, WorkloadSpec};
//!
//! let g = "regular:n=256,d=8,seed=1".parse::<WorkloadSpec>().unwrap().build();
//! for alg in registry::algorithms() {
//!     let report = alg.run(&g, &RunConfig::seeded(7)).unwrap();
//!     assert!(report.is_mis(), "{}", alg.name());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
pub mod cli;
pub mod incremental;
pub mod registry;
mod report;
mod scenario;
pub mod trace;
mod workload;

pub use algorithm::{Algorithm, RunConfig, UnknownAlgorithm};
pub use incremental::{
    run_churn, run_churn_on, ChurnStream, Incremental, IncrementalAlgorithm, RepairOutcome,
};
pub use registry::{Alg1, Alg2, AvgEnergy1, AvgEnergy2, Greedy, Luby, Permutation};
pub use report::{RepairStats, RunReport};
pub use scenario::{Scenario, ScenarioError};
pub use trace::{append_trace, render_trace};
pub use workload::{ChannelSpec, ChurnSpec, ParseWorkloadError, WorkloadSpec};
