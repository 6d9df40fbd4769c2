//! The three workloads: the input each builds, the algorithm it runs,
//! and one operation on that input.

use crate::measure::timed;
use crate::trace::Tracer;
use congest_sim::{plan_repair, Metrics, RoundObserver, SimConfig, SimError};
use energy_mis::params::{Alg1Params, Alg2Params};
use energy_mis::MisReport;
use mis_graphs::{props, DeltaGraph, Graph};
use mis_runner::{
    incremental, registry, ChurnSpec, ChurnStream, IncrementalAlgorithm, RepairOutcome, RunConfig,
    RunReport, WorkloadSpec,
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `alg2` on a dense G(n, p) with Δ > log² n: the regime where the
    /// paper's Phase I runs.
    DenseAlg2,
    /// `alg1` on a 2-D grid: Δ = 4, so shattering leaves a residual and
    /// the whole Phase II/III tail runs.
    GridAlg1,
    /// `inc-alg1` keeping an MIS of a sparse G(n, p) through an edit
    /// stream: many tiny engine runs plus the delta-graph and repair
    /// planner layers.
    ChurnAlg1,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::DenseAlg2, Workload::GridAlg1, Workload::ChurnAlg1];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseAlg2 => "dense-alg2",
            Workload::GridAlg1 => "grid-alg1",
            Workload::ChurnAlg1 => "churn-alg1",
        }
    }

    /// Resolves a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: `Full` is measured, `Tiny` keeps each workload's shape
/// at a size tests can run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Test sizes.
    Tiny,
}

/// The workload seed used unless one is given: fixed, so that every run
/// of a workload builds the same input and repeats the same simulation.
pub const DEFAULT_WORKLOAD_SEED: u64 = 1;

/// A workload at one size and seed: everything an operation needs
/// except the built input.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The static graph, or the base graph of the edit stream.
    pub graph: WorkloadSpec,
    /// The edit stream (churn workload only).
    pub churn: Option<ChurnSpec>,
    /// Registry name of the algorithm an operation runs; an incremental
    /// name for the churn workload.
    pub algorithm: &'static str,
    /// Run configuration: the sequential engine (`threads = 0`), seeded
    /// with the workload seed.
    pub cfg: RunConfig,
}

impl Plan {
    /// Instantiates `workload` at `size` from `seed`, which seeds the
    /// graph generator, the algorithm and the edit stream alike.
    pub fn new(workload: Workload, size: Size, seed: u64) -> Plan {
        use {Size::*, Workload::*};
        let (graph, churn, algorithm) = match (workload, size) {
            (DenseAlg2, Full) => ("gnp:n=16384,deg=400", None, "alg2"),
            (DenseAlg2, Tiny) => ("gnp:n=1024,deg=160", None, "alg2"),
            (GridAlg1, Full) => ("grid:n=65536", None, "alg1"),
            (GridAlg1, Tiny) => ("grid:n=1024", None, "alg1"),
            (ChurnAlg1, Full) => ("gnp:n=65536,deg=8", Some((2000, 4)), "inc-alg1"),
            (ChurnAlg1, Tiny) => ("gnp:n=1024,deg=8", Some((64, 4)), "inc-alg1"),
        };
        Plan {
            workload,
            graph: graph
                .parse::<WorkloadSpec>()
                .expect("workload specs are well-formed")
                .with_seed(seed),
            churn: churn.map(|(batches, ops)| ChurnSpec { batches, ops, seed }),
            algorithm,
            cfg: RunConfig::seeded(seed).threads(0),
        }
    }

    /// The incremental algorithm of a churn plan.
    fn incremental(&self) -> &'static dyn IncrementalAlgorithm {
        incremental::from_name(self.algorithm).expect("churn plans name a registered algorithm")
    }

    /// Registry name of the static algorithm an engine run executes: the
    /// plan's own, or the base of its incremental algorithm.
    pub fn base_algorithm(&self) -> &'static str {
        match self.churn {
            Some(_) => self.incremental().base().name(),
            None => self.algorithm,
        }
    }
}

/// A built input.
#[derive(Debug)]
pub enum Input {
    /// The graph a static workload solves.
    Static(Graph),
    /// The state every edit stream starts from.
    Churn(ChurnStart),
}

/// The base graph of an edit stream with its initial, verified MIS.
#[derive(Debug, Clone)]
pub struct ChurnStart {
    /// The base graph as a delta graph with an empty overlay.
    pub dg: DeltaGraph,
    /// The initial `inc-*` solve's MIS.
    pub in_mis: Vec<bool>,
}

/// Wall seconds of one set-up and of its parts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total_s: f64,
    /// `WorkloadSpec::build`.
    pub generate_s: f64,
    /// The initial `IncrementalAlgorithm::solve` (churn only).
    pub solve_s: f64,
}

/// Builds the plan's input: `WorkloadSpec::build`, and for the churn
/// workload also `DeltaGraph::new` and the initial solve.
///
/// # Errors
///
/// An engine error of the initial solve, or an initial set that is not
/// an MIS.
pub fn set_up(plan: &Plan) -> Result<(Input, SetupTimes), SimError> {
    let (result, total_s) = timed(|| -> Result<_, SimError> {
        let (graph, generate_s) = timed(|| plan.graph.build());
        if plan.churn.is_none() {
            return Ok((Input::Static(graph), generate_s, 0.0));
        }
        let dg = DeltaGraph::new(graph);
        let (report, solve_s) = timed(|| plan.incremental().solve(&dg, &plan.cfg));
        let report = report?;
        if !report.is_mis() {
            return Err(SimError::invalid_input("the initial solve is not an MIS"));
        }
        let start = ChurnStart {
            dg,
            in_mis: report.in_mis,
        };
        Ok((Input::Churn(start), generate_s, solve_s))
    });
    let (input, generate_s, solve_s) = result?;
    Ok((
        input,
        SetupTimes {
            total_s,
            generate_s,
            solve_s,
        },
    ))
}

/// The deterministic metrics of one operation, which must repeat exactly
/// for a fixed workload seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Energy {
    /// Simulated rounds; for a stream, summed over its repair sub-runs.
    pub rounds: u64,
    /// Largest per-node awake count; for a stream, the largest over its
    /// sub-runs.
    pub max_awake: u64,
    /// Node-averaged awake rounds; for a stream, awake node-rounds per
    /// woken node.
    pub avg_awake: f64,
}

impl Energy {
    /// The energy of one solve.
    pub fn of(m: &Metrics) -> Energy {
        Energy {
            rounds: m.elapsed_rounds,
            max_awake: m.max_awake(),
            avg_awake: m.avg_awake(),
        }
    }
}

/// What one operation works on: the static graph, or a fresh copy of
/// the stream's start, made before the clock starts.
#[derive(Debug)]
pub enum Operand<'a> {
    /// A static graph.
    Static(&'a Graph),
    /// A stream start of its own.
    Churn(ChurnStart),
}

impl Input {
    /// The graph engine runs start from: the static graph, or the base
    /// graph of the edit stream.
    pub fn graph(&self) -> &Graph {
        match self {
            Input::Static(g) => g,
            Input::Churn(start) => start.dg.base(),
        }
    }

    /// The operand of the next operation.
    pub fn operand(&self) -> Operand<'_> {
        match self {
            Input::Static(g) => Operand::Static(g),
            Input::Churn(start) => Operand::Churn(start.clone()),
        }
    }
}

/// What one operation returned, kept whole until it is checked after the
/// clock stops.
#[derive(Debug)]
pub enum Output {
    /// A registry run.
    Report(Box<RunReport>),
    /// A run with a round observer attached.
    Observed(MisReport),
    /// The end of an edit stream.
    Stream(StreamEnd),
}

/// An operation's verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checked {
    /// The operation's deterministic metrics.
    pub energy: Energy,
    /// Whether the output verified as a maximal independent set.
    pub is_mis: bool,
}

impl Output {
    /// Verifies the output against `input` and reads its deterministic
    /// metrics: `props::is_mis` for a solve, `DeltaGraph::check_mis` on
    /// the final topology for a stream.
    pub fn check(&self, input: &Input) -> Checked {
        match self {
            Output::Report(r) => Checked {
                energy: Energy::of(&r.metrics),
                is_mis: props::is_mis(input.graph(), &r.in_mis),
            },
            Output::Observed(r) => Checked {
                energy: Energy::of(&r.metrics),
                is_mis: props::is_mis(input.graph(), &r.in_mis),
            },
            Output::Stream(end) => Checked {
                energy: end.energy,
                is_mis: end.dg.check_mis(&end.in_mis).is_mis(),
            },
        }
    }
}

/// One untraced operation: a registry `Algorithm::run` on a static
/// graph, or the whole edit stream.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_op(plan: &Plan, operand: Operand<'_>) -> Result<Output, SimError> {
    match operand {
        Operand::Static(g) => {
            let alg = registry::from_name(plan.algorithm)
                .expect("static plans name a registry algorithm");
            alg.run(g, &plan.cfg).map(|r| Output::Report(Box::new(r)))
        }
        Operand::Churn(start) => stream(plan, start, None).map(Output::Stream),
    }
}

/// Runs registry algorithm `name` with default parameters, as the
/// registry's instance does, with `observer` attached.
///
/// # Errors
///
/// Propagates engine errors; rejects an algorithm this benchmark does
/// not observe.
pub fn run_observed(
    name: &str,
    g: &Graph,
    cfg: &SimConfig,
    observer: &mut dyn RoundObserver,
) -> Result<MisReport, SimError> {
    match name {
        "alg1" => {
            energy_mis::alg1::run_algorithm1_observed(g, &Alg1Params::default(), cfg, observer)
        }
        "alg2" => {
            energy_mis::alg2::run_algorithm2_observed(g, &Alg2Params::default(), cfg, observer)
        }
        other => Err(SimError::invalid_input(format!(
            "no observed entry point for {other}"
        ))),
    }
}

/// One traced operation, inside an operation span the caller opens and
/// closes: an observed run of the plan's algorithm on a static graph, or
/// the edit stream with its repairs split into pieces.
///
/// # Errors
///
/// Propagates edit and engine errors.
pub fn traced_op(
    plan: &Plan,
    operand: Operand<'_>,
    tracer: &mut Tracer,
) -> Result<Output, SimError> {
    match operand {
        Operand::Static(g) => {
            let report = run_observed(plan.base_algorithm(), g, &plan.cfg.sim, tracer)?;
            tracer.count_run(g.n(), &report);
            Ok(Output::Observed(report))
        }
        Operand::Churn(start) => stream(plan, start, Some(tracer)).map(Output::Stream),
    }
}

/// Where an edit stream ends.
#[derive(Debug)]
pub struct StreamEnd {
    /// The final topology.
    pub dg: DeltaGraph,
    /// The final MIS.
    pub in_mis: Vec<bool>,
    /// The stream's deterministic metrics.
    pub energy: Energy,
}

/// Overlay size at which the stream compacts its delta graph: the
/// policy of `mis_runner::run_churn_on`.
fn compact_threshold(n: usize) -> usize {
    (n / 16).max(32)
}

/// The run configuration of batch `b`'s repair: salted per batch, as
/// `mis_runner::run_churn_on` does, so repeated repairs never reuse a
/// node's randomness.
fn batch_config(cfg: &RunConfig, b: u64) -> RunConfig {
    let mut sub = cfg.clone();
    sub.sim = cfg
        .sim
        .with_salt(cfg.sim.salt ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(b + 1));
    sub.telemetry = false;
    sub
}

/// Runs `f` inside a tracer span named `name`, when tracing.
fn piece<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer.as_deref_mut() {
        None => f(),
        Some(t) => {
            t.open(name);
            let out = f();
            t.close();
            out
        }
    }
}

/// Runs the plan's edit stream from `start`: per batch,
/// `ChurnStream::next_batch`, then a repair, then compaction on
/// `run_churn_on`'s policy. Untraced, the repair is the
/// `IncrementalAlgorithm::repair` call; traced, it runs as the pieces of
/// that method's default body, each in a span of its own.
///
/// # Errors
///
/// Propagates edit and engine errors.
pub fn stream(
    plan: &Plan,
    start: ChurnStart,
    mut tracer: Option<&mut Tracer>,
) -> Result<StreamEnd, SimError> {
    let churn = plan.churn.expect("streams run on churn plans");
    let inc = plan.incremental();
    let ChurnStart { mut dg, mut in_mis } = start;
    let mut edits = ChurnStream::new(churn);
    let (mut rounds, mut max_awake, mut awake, mut woken) = (0u64, 0u64, 0u64, 0u64);
    for b in 0..u64::from(churn.batches) {
        let applied = piece(&mut tracer, "delta_apply", || edits.next_batch(&mut dg))?;
        let cfg = batch_config(&plan.cfg, b);
        let out = match tracer.as_deref_mut() {
            None => inc.repair(&dg, &applied, &in_mis, &cfg)?,
            Some(t) => traced_repair(t, inc, &dg, &applied, &in_mis, &cfg)?,
        };
        rounds += out.metrics.elapsed_rounds;
        max_awake = max_awake.max(out.metrics.max_awake());
        awake += out.metrics.total_awake();
        woken += out.affected as u64;
        in_mis = out.in_mis;
        if dg.overlay_edits() >= compact_threshold(dg.base().n()) {
            piece(&mut tracer, "compact", || dg.compact());
        }
    }
    let avg_awake = if woken == 0 {
        0.0
    } else {
        awake as f64 / woken as f64
    };
    Ok(StreamEnd {
        dg,
        in_mis,
        energy: Energy {
            rounds,
            max_awake,
            avg_awake,
        },
    })
}

/// `IncrementalAlgorithm::repair`'s default body, one span per piece:
/// `plan_repair`, the base run on the planned subgraph (observed, so its
/// engine runs are split like a static solve's), and `RepairPlan::merge`.
fn traced_repair(
    t: &mut Tracer,
    inc: &dyn IncrementalAlgorithm,
    dg: &DeltaGraph,
    applied: &mis_graphs::AppliedBatch,
    in_mis: &[bool],
    cfg: &RunConfig,
) -> Result<RepairOutcome, SimError> {
    t.open("repair_plan");
    let plan = plan_repair(dg, applied, in_mis);
    t.close();
    let plan = plan?;
    let (sub_mis, metrics) = if plan.is_trivial() {
        (Vec::new(), Metrics::new(0))
    } else {
        t.open("subrun");
        let sub = run_observed(inc.base().name(), &plan.sub, &cfg.sim, t);
        t.close();
        let sub = sub?;
        t.count_run(plan.sub.n(), &sub);
        t.count_subrun(plan.affected());
        (sub.in_mis, sub.metrics)
    };
    t.open("repair_merge");
    let merged = plan.merge(&sub_mis);
    t.close();
    Ok(RepairOutcome {
        in_mis: merged,
        demoted: plan.demoted.len(),
        affected: plan.affected(),
        metrics,
    })
}
