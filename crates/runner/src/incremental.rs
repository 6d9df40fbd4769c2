//! Incremental MIS under churn: the [`IncrementalAlgorithm`] trait, its
//! registry, and the edit-stream driver.
//!
//! The paper's sleeping model pays for what wakes, and under churn
//! almost nothing needs to: [`congest_sim::plan_repair`] computes the
//! exact neighborhood an edit batch disturbs, and a repair runs the base
//! protocol only on that induced subgraph. An incremental run is
//!
//! 1. **solve** — the base algorithm on the initial graph, then
//! 2. per edit batch, **repair** — plan, wake the affected set, merge —
//!
//! with every step bit-identical across thread counts (the engine's
//! determinism contract extends to repairs, because each repair is an
//! ordinary engine run on the planned subgraph).
//!
//! The registry wraps base protocols as `inc-<base>`; churn workloads
//! are described by the `edits:` arm of the [`WorkloadSpec`] grammar and
//! driven by [`run_churn`]:
//!
//! ```
//! use mis_runner::Scenario;
//!
//! let reports = Scenario::parse("inc-luby", "edits:base=gnp:n=128,deg=6;batches=4;ops=8")
//!     .unwrap()
//!     .seeds(0..2)
//!     .run()
//!     .unwrap();
//! for r in &reports {
//!     assert!(r.is_mis(), "MIS maintained through the whole edit stream");
//!     assert_eq!(r.repair.as_ref().unwrap().batches, 4);
//! }
//! ```

use crate::algorithm::{Algorithm, RunConfig, UnknownAlgorithm};
use crate::report::{RepairStats, RunReport};
use crate::workload::{ChurnSpec, WorkloadSpec};
use congest_sim::{plan_repair, EnergyHistogram, Metrics, SimError};
use mis_graphs::{AppliedBatch, DeltaGraph, EditBatch, Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// One repaired step of an incremental run: the new MIS bitmap plus the
/// cost accounting of the awake sub-run that produced it.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired MIS, indexed by current (post-batch) node ids.
    pub in_mis: Vec<bool>,
    /// MIS nodes the planner demoted.
    pub demoted: usize,
    /// Nodes that woke (the planner's undecided set); `0` for a trivial
    /// repair.
    pub affected: usize,
    /// Metrics of the sub-run on the affected subgraph (all-zero for a
    /// trivial repair).
    pub metrics: Metrics,
}

/// An MIS algorithm that can *maintain* its output under graph edits:
/// a full solve on a [`DeltaGraph`], and a repair after an applied edit
/// batch that wakes only the affected set.
///
/// Object-safe, like [`Algorithm`]; registered strategies resolve via
/// [`from_name`] under `inc-<base>` names. The default method bodies
/// implement the plan-wake-merge strategy over [`base`](Self::base),
/// which is what every registry entry uses; implementors with a smarter
/// repair can override them.
pub trait IncrementalAlgorithm: Send + Sync + std::fmt::Debug {
    /// Stable registry name (`inc-luby`, `inc-alg1`, …).
    fn name(&self) -> &str;

    /// The base protocol repairs are delegated to.
    fn base(&self) -> &'static dyn Algorithm;

    /// Full solve on the current topology of `dg`: runs the base
    /// algorithm on a snapshot and verifies the result against the
    /// delta graph (dead ids are never reported in the set).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the base run.
    fn solve(&self, dg: &DeltaGraph, cfg: &RunConfig) -> Result<RunReport, SimError> {
        let mut report = self.base().run(&dg.snapshot(), cfg)?;
        // Dead ids survive in the snapshot as isolated nodes, which any
        // maximal algorithm puts in the set; mask them back out.
        for v in 0..dg.n() as NodeId {
            if !dg.is_alive(v) {
                report.in_mis[v as usize] = false;
            }
        }
        let check = dg.check_mis(&report.in_mis);
        report.independent = check.independent;
        report.maximal = check.maximal;
        report.algorithm = self.name().to_string();
        Ok(report)
    }

    /// Repairs `in_mis` (a valid MIS of the pre-batch topology) after
    /// `applied` edits: plans the affected set, wakes exactly that
    /// subgraph under the base protocol, and merges. Sleeping nodes
    /// cost nothing; a trivial plan costs no simulation at all.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the planner or the sub-run.
    fn repair(
        &self,
        dg: &DeltaGraph,
        applied: &AppliedBatch,
        in_mis: &[bool],
        cfg: &RunConfig,
    ) -> Result<RepairOutcome, SimError> {
        let plan = plan_repair(dg, applied, in_mis)?;
        if plan.is_trivial() {
            return Ok(RepairOutcome {
                in_mis: plan.merge(&[]),
                demoted: plan.demoted.len(),
                affected: 0,
                metrics: Metrics::new(0),
            });
        }
        let sub = self.base().run(&plan.sub, cfg)?;
        Ok(RepairOutcome {
            in_mis: plan.merge(&sub.in_mis),
            demoted: plan.demoted.len(),
            affected: plan.affected(),
            metrics: sub.metrics,
        })
    }
}

/// The registry's incremental strategy: plan-wake-merge over a named
/// base algorithm, using the trait's default `solve`/`repair`.
#[derive(Debug, Clone)]
pub struct Incremental {
    name: String,
    base: &'static dyn Algorithm,
}

impl Incremental {
    /// Wraps the registered base algorithm `base` as `inc-<base>`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownAlgorithm`] when `base` is not a registered
    /// static algorithm.
    pub fn over(base: &str) -> Result<Incremental, UnknownAlgorithm> {
        let base = crate::registry::from_name(base)?;
        Ok(Incremental {
            name: format!("inc-{}", base.name()),
            base,
        })
    }
}

impl IncrementalAlgorithm for Incremental {
    fn name(&self) -> &str {
        &self.name
    }

    fn base(&self) -> &'static dyn Algorithm {
        self.base
    }
}

/// The built-in incremental registry, in stable order.
fn registry() -> &'static [Incremental] {
    static REG: OnceLock<Vec<Incremental>> = OnceLock::new();
    REG.get_or_init(|| {
        ["alg1", "alg2", "luby", "permutation"]
            .iter()
            .map(|base| Incremental::over(base).expect("base is registered"))
            .collect()
    })
}

/// Every registered incremental algorithm, in stable order.
pub fn algorithms() -> impl Iterator<Item = &'static dyn IncrementalAlgorithm> {
    registry().iter().map(|a| a as &dyn IncrementalAlgorithm)
}

/// The registered incremental names, in registry order.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|a| a.name.as_str()).collect()
}

/// Resolves a registered incremental algorithm by name.
///
/// # Errors
///
/// Returns [`UnknownAlgorithm`] when `name` is not registered; a static
/// algorithm's name suggests its `inc-` wrapper.
pub fn from_name(name: &str) -> Result<&'static dyn IncrementalAlgorithm, UnknownAlgorithm> {
    registry()
        .iter()
        .find(|a| a.name == name)
        .map(|a| a as &dyn IncrementalAlgorithm)
        .ok_or_else(|| {
            if crate::registry::from_name(name).is_ok() {
                // A known static name in an incremental context: point
                // straight at its wrapper.
                UnknownAlgorithm {
                    name: name.to_string(),
                    suggestion: Some(format!("inc-{name}")),
                }
            } else {
                UnknownAlgorithm::with_suggestion_from(name, &names())
            }
        })
}

/// Deterministic generator of *valid* edit batches against a live
/// [`DeltaGraph`]: roughly 40% edge insertions, 40% edge deletions, 10%
/// node arrivals, 10% node departures, degrading gracefully (an
/// impossible op becomes a node arrival) so every draw applies cleanly.
///
/// The stream is a pure function of the [`ChurnSpec`] seed and the graph
/// states it is applied to — independent of the algorithm seed and of
/// the engine's thread count, so churn runs stay bit-identical across
/// engines.
#[derive(Debug)]
pub struct ChurnStream {
    rng: SmallRng,
    ops: u32,
}

impl ChurnStream {
    /// A stream producing `spec.ops`-edit batches from `spec.seed`.
    pub fn new(spec: ChurnSpec) -> ChurnStream {
        ChurnStream {
            rng: SmallRng::seed_from_u64(spec.seed ^ 0xc2b2_ae3d_27d4_eb4f),
            ops: spec.ops,
        }
    }

    /// Generates and applies the next batch, op by op, returning the
    /// merged applied summary.
    ///
    /// # Errors
    ///
    /// Propagates a [`DeltaError`](mis_graphs::DeltaError) as
    /// [`SimError::InvalidInput`]; generation only proposes valid ops,
    /// so an error indicates a bug.
    pub fn next_batch(&mut self, dg: &mut DeltaGraph) -> Result<AppliedBatch, SimError> {
        let mut total = AppliedBatch::default();
        for _ in 0..self.ops {
            let mut b = EditBatch::new();
            match self.rng.gen_range(0u32..10) {
                0..=3 => match self.sample_missing_edge(dg) {
                    Some((u, v)) => {
                        b.add_edge(u, v);
                    }
                    None => {
                        b.add_node();
                    }
                },
                4..=7 => match self.sample_present_edge(dg) {
                    Some((u, v)) => {
                        b.remove_edge(u, v);
                    }
                    None => {
                        b.add_node();
                    }
                },
                8 => {
                    b.add_node();
                }
                _ => {
                    // Keep at least two live nodes so edge ops stay
                    // possible.
                    if dg.live_nodes() > 2 {
                        let v = self.live_node(dg);
                        b.remove_node(v);
                    } else {
                        b.add_node();
                    }
                }
            }
            total.absorb(&dg.apply(&b)?);
        }
        Ok(total)
    }

    /// A uniform-ish live node: rejection sampling with a deterministic
    /// scan fallback (dead ids are a bounded fraction under churn).
    fn live_node(&mut self, dg: &DeltaGraph) -> NodeId {
        let n = dg.n() as NodeId;
        for _ in 0..32 {
            let v = self.rng.gen_range(0..n);
            if dg.is_alive(v) {
                return v;
            }
        }
        let start = self.rng.gen_range(0..n);
        for off in 0..n {
            let v = (start + off) % n;
            if dg.is_alive(v) {
                return v;
            }
        }
        unreachable!("a DeltaGraph under churn always keeps a live node")
    }

    /// A live non-adjacent pair, or `None` when the graph is (locally)
    /// too dense to find one quickly.
    fn sample_missing_edge(&mut self, dg: &DeltaGraph) -> Option<(NodeId, NodeId)> {
        for _ in 0..32 {
            let u = self.live_node(dg);
            let v = self.live_node(dg);
            if u != v && !dg.has_edge(u, v) {
                return Some((u, v));
            }
        }
        None
    }

    /// A present edge, or `None` when the graph is (nearly) empty.
    fn sample_present_edge(&mut self, dg: &DeltaGraph) -> Option<(NodeId, NodeId)> {
        if dg.m() == 0 {
            return None;
        }
        for _ in 0..32 {
            let u = self.live_node(dg);
            let deg = dg.degree(u);
            if deg == 0 {
                continue;
            }
            let k = self.rng.gen_range(0..deg);
            return Some((u, dg.neighbors(u)[k]));
        }
        None
    }
}

/// Overlay size at which [`run_churn_on`] folds the [`DeltaGraph`] back
/// into a fresh CSR.
fn compact_threshold(n: usize) -> usize {
    (n / 16).max(32)
}

/// Runs the full churn protocol an `edits:` workload describes: builds
/// the base graph and delegates to [`run_churn_on`].
///
/// # Errors
///
/// [`SimError::InvalidInput`] when `spec` has no churn component;
/// otherwise propagates engine errors.
pub fn run_churn(
    alg: &dyn IncrementalAlgorithm,
    spec: &WorkloadSpec,
    cfg: &RunConfig,
) -> Result<RunReport, SimError> {
    let churn = spec.churn.ok_or_else(|| {
        SimError::invalid_input(format!("workload \"{spec}\" has no edits: churn component"))
    })?;
    run_churn_on(alg, spec.build(), churn, cfg)
}

/// Churn driver on a caller-built base graph: one solve, then per batch
/// a generated edit stream, a repair that wakes only the affected set,
/// and periodic compaction of the delta overlay. The returned report
/// carries the *final* MIS (verified against the final topology), the
/// solve-phase metrics, and [`RunReport::repair`] accounting for the
/// repairs.
///
/// Bit-identical across [`congest_sim::SimConfig::threads`] values: the
/// stream is engine-independent and every sub-run inherits the engine's
/// determinism contract. Each batch's sub-run is salted differently so
/// repeated repairs never reuse a node's randomness.
///
/// # Errors
///
/// Propagates [`SimError`] from any solve or repair.
pub fn run_churn_on(
    alg: &dyn IncrementalAlgorithm,
    base: Graph,
    churn: ChurnSpec,
    cfg: &RunConfig,
) -> Result<RunReport, SimError> {
    let mut dg = DeltaGraph::new(base);
    let mut report = alg.solve(&dg, cfg)?;
    let mut stream = ChurnStream::new(churn);
    let mut stats = RepairStats::default();
    // Per-batch affected-set sizes feed the `repair_affected` telemetry
    // histogram; collected only when telemetry is on.
    let mut affected_sizes: Option<Vec<u64>> = cfg.telemetry.then(Vec::new);
    for b in 0..u64::from(churn.batches) {
        let applied = stream.next_batch(&mut dg)?;
        let mut sub_cfg = cfg.clone();
        sub_cfg.sim = cfg
            .sim
            .with_salt(cfg.sim.salt ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(b + 1));
        // Repair sub-runs feed `stats`, not their own artifacts.
        sub_cfg.telemetry = false;
        let out = alg.repair(&dg, &applied, &report.in_mis, &sub_cfg)?;
        stats.record(
            applied.changes() as u64,
            out.demoted as u64,
            out.affected as u64,
            &out.metrics,
        );
        if let Some(sizes) = affected_sizes.as_mut() {
            sizes.push(out.affected as u64);
        }
        report.in_mis = out.in_mis;
        if dg.overlay_edits() >= compact_threshold(dg.base().n()) {
            dg.compact();
        }
    }
    let check = dg.check_mis(&report.in_mis);
    report.independent = check.independent;
    report.maximal = check.maximal;
    report.repair = Some(stats);
    if let Some(sizes) = affected_sizes {
        // Rebuild the artifact now that repair tallies exist; the solve's
        // wall timing carries over under a `solve.` prefix.
        let solve_timings = report
            .telemetry
            .take()
            .map(|t| t.timings_ns)
            .unwrap_or_default();
        let mut tel = report.build_telemetry();
        tel.histogram("repair_affected", EnergyHistogram::from_values(&sizes));
        for (name, v) in solve_timings {
            tel.timing_ns(format!("solve.{name}"), v);
        }
        report.telemetry = Some(tel);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graphs::generators;

    #[test]
    fn registry_names_are_stable() {
        assert_eq!(
            names(),
            vec!["inc-alg1", "inc-alg2", "inc-luby", "inc-permutation"]
        );
        for alg in algorithms() {
            assert_eq!(from_name(alg.name()).unwrap().name(), alg.name());
        }
    }

    #[test]
    fn static_name_suggests_its_wrapper() {
        let err = from_name("luby").unwrap_err();
        assert_eq!(err.suggestion.as_deref(), Some("inc-luby"));
        let err = from_name("inc-lubyy").unwrap_err();
        assert_eq!(err.suggestion.as_deref(), Some("inc-luby"));
        assert!(from_name("warp").unwrap_err().suggestion.is_none());
    }

    #[test]
    fn solve_masks_dead_ids() {
        let mut dg = DeltaGraph::new(generators::path(6));
        let mut b = EditBatch::new();
        b.remove_node(2);
        dg.apply(&b).unwrap();
        let alg = from_name("inc-luby").unwrap();
        let report = alg.solve(&dg, &RunConfig::seeded(1)).unwrap();
        assert!(report.is_mis());
        assert!(!report.in_mis[2], "dead id reported in the set");
        assert_eq!(report.algorithm, "inc-luby");
    }

    #[test]
    fn churn_stream_is_deterministic_and_valid() {
        let spec = ChurnSpec {
            batches: 4,
            ops: 12,
            seed: 9,
        };
        let mut a = DeltaGraph::new(generators::cycle(40));
        let mut b = DeltaGraph::new(generators::cycle(40));
        let mut sa = ChurnStream::new(spec);
        let mut sb = ChurnStream::new(spec);
        for _ in 0..spec.batches {
            let ba = sa.next_batch(&mut a).unwrap();
            let bb = sb.next_batch(&mut b).unwrap();
            assert_eq!(ba, bb);
            assert!(ba.changes() > 0);
        }
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
    }

    #[test]
    fn run_churn_maintains_a_verified_mis() {
        for spec in WorkloadSpec::tiny_churn_suite() {
            for alg in algorithms() {
                let report = run_churn(alg, &spec, &RunConfig::seeded(3)).unwrap();
                assert!(report.is_mis(), "{} on {spec}", alg.name());
                let stats = report.repair.expect("churn runs report repair stats");
                assert_eq!(stats.batches, u64::from(spec.churn.unwrap().batches));
                assert!(stats.edits > 0);
            }
        }
    }

    #[test]
    fn run_churn_is_thread_invariant() {
        let spec: WorkloadSpec = "edits:base=gnp:n=160,deg=6;batches=4;ops=10;seed=2"
            .parse()
            .unwrap();
        let alg = from_name("inc-alg1").unwrap();
        let seq = run_churn(alg, &spec, &RunConfig::seeded(5)).unwrap();
        let par = run_churn(alg, &spec, &RunConfig::seeded(5).threads(2)).unwrap();
        assert_eq!(seq.in_mis, par.in_mis);
        assert_eq!(seq.repair, par.repair);
        assert_eq!(seq.metrics, par.metrics);
    }

    #[test]
    fn run_churn_rejects_static_workloads() {
        let spec: WorkloadSpec = "path:n=16".parse().unwrap();
        let alg = from_name("inc-luby").unwrap();
        let err = run_churn(alg, &spec, &RunConfig::seeded(0)).unwrap_err();
        assert!(matches!(err, SimError::InvalidInput { .. }), "{err}");
    }
}
