//! End-to-end benchmark of the registry MIS algorithms, with a separate
//! traced run that splits each workload's time across the repository's
//! layers (`mis_graphs`, `congest_sim`, `energy_mis`, `mis_runner`).
//!
//! Everything is timed from outside: the benchmark calls the crates'
//! public functions and observes engine runs through its own
//! [`congest_sim::RoundObserver`]. One process runs one workload on the
//! sequential engine:
//!
//! 1. set-up several times (`setup_s` is the median), keeping the last
//!    input;
//! 2. one untimed warm-up operation;
//! 3. untraced: timed operations for the given seconds (`op_s` is the
//!    median); traced: pairs of an untraced and a traced operation for
//!    the given seconds, whose medians give the per-layer metrics.
//!
//! Every operation is verified as an MIS and its deterministic metrics
//! must equal the first operation's; any other outcome counts as failed.

#![forbid(unsafe_code)]
// Reading the wall clock is this crate's purpose; the repository's
// clippy.toml bans it in program code.
#![allow(clippy::disallowed_methods)]

pub mod measure;
pub mod trace;
pub mod workload;

use measure::{median, peak_rss_mb, ratio, timed, Metric, Outcome, ProcStat};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{OpLayers, Tracer};
use workload::{set_up, Checked, Energy, Input, Plan, SetupTimes};
pub use workload::{Size, Workload, DEFAULT_WORKLOAD_SEED};

/// The end-to-end metrics, printed by untraced runs, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("rounds", "rounds"),
    ("max_awake", "rounds"),
    ("avg_awake", "rounds"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by traced runs, as `(name, unit)`. A
/// metric of a layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("congest.runs", "count"),
    ("congest.entry_s", "s"),
    ("congest.loop_s", "s"),
    ("congest.exit_s", "s"),
    ("congest.empty_run_s", "s"),
    ("congest.messages", "count"),
    ("congest.busy_rounds", "count"),
    ("congest.awake_node_rounds", "count"),
    ("congest.ns_per_message", "ns"),
    ("congest.awake_frac", "ratio"),
    ("congest.repair_plan_s", "s"),
    ("congest.repair_merge_s", "s"),
    ("mem.minor_faults", "count"),
    ("mem.sys_s", "s"),
    ("mem.user_s", "s"),
    ("core.alg2p1_s", "s"),
    ("core.alg2p1.runs", "count"),
    ("core.shatter_s", "s"),
    ("core.shatter.runs", "count"),
    ("core.cluster_s", "s"),
    ("core.cluster.runs", "count"),
    ("core.merge_s", "s"),
    ("core.merge.runs", "count"),
    ("core.finish_s", "s"),
    ("core.finish.runs", "count"),
    ("core.finish_retries", "count"),
    ("core.finish_fallback_nodes", "count"),
    ("graphs.generate_s", "s"),
    ("graphs.delta_apply_s", "s"),
    ("graphs.compact_s", "s"),
    ("graphs.compactions", "count"),
    ("runner.solve_s", "s"),
    ("runner.subrun_s", "s"),
    ("runner.subruns", "count"),
    ("runner.affected", "count"),
    ("trace.overhead", "ratio"),
    ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.span_coverage", "ratio"),
    ("trace.top_cost_s", "s"),
    ("trace.top_cost_share", "ratio"),
    ("trace.ops", "count"),
    ("trace.untraced_ops", "count"),
];

/// Set-ups per run: at least [`MIN_SETUPS`], more while their total stays
/// under [`SETUP_BUDGET`], at most [`MAX_SETUPS`].
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Timed operations (or traced pairs) per run, whatever the seconds.
const MIN_OPS: usize = 3;

/// Timed runs of the protocol that wakes no node.
const EMPTY_RUNS: usize = 5;

/// What one benchmark process does.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its input scale.
    pub size: Size,
    /// Seeds the graph, the algorithm and the edit stream.
    pub workload_seed: u64,
    /// How long the operations are measured.
    pub seconds: f64,
    /// Run traced (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// The directory a traced run writes `spans-<workload>.jsonl` to, if
    /// any.
    pub spans_dir: Option<std::path::PathBuf>,
}

/// Attempted and failed operations, and the deterministic metrics every
/// operation must repeat.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    reference: Option<Energy>,
}

impl Checks {
    fn record(&mut self, what: &str, result: Result<Checked, congest_sim::SimError>) {
        self.attempted += 1;
        let ok = match result {
            Err(e) => {
                eprintln!("perfbench: {what} failed: {e}");
                false
            }
            Ok(c) => {
                let reference = *self.reference.get_or_insert(c.energy);
                if !c.is_mis {
                    eprintln!("perfbench: {what} returned a set that is not an MIS");
                }
                if c.energy != reference {
                    eprintln!(
                        "perfbench: {what} metrics {:?} differ from the first operation's {reference:?}",
                        c.energy
                    );
                }
                c.is_mis && c.energy == reference
            }
        };
        if !ok {
            self.failed += 1;
        }
    }
}

/// A built workload with the record of its set-ups and checks.
struct Bench {
    plan: Plan,
    input: Input,
    setups: Vec<SetupTimes>,
    checks: Checks,
}

impl Bench {
    /// Sets the workload up several times, keeping the last input, and
    /// runs the warm-up operation.
    fn new(opts: &Options) -> Result<Bench, String> {
        ProcStat::read()?;
        let plan = Plan::new(opts.workload, opts.size, opts.workload_seed);
        let mut setups = Vec::new();
        let mut input = None;
        let t0 = Instant::now();
        while setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && t0.elapsed() < SETUP_BUDGET)
        {
            // Drop the previous input first, so builds never overlap in
            // memory and each one starts from the same heap state.
            drop(input.take());
            let (built, times) = set_up(&plan).map_err(|e| format!("set-up failed: {e}"))?;
            input = Some(built);
            setups.push(times);
        }
        let mut bench = Bench {
            plan,
            input: input.expect("at least one set-up ran"),
            setups,
            checks: Checks::default(),
        };
        bench.untraced_op();
        Ok(bench)
    }

    /// One untraced operation: its seconds (`None` if it failed) and the
    /// process counters it moved.
    fn untraced_op(&mut self) -> (Option<f64>, ProcStat) {
        let operand = self.input.operand();
        let before = ProcStat::read().unwrap_or_default();
        let (out, secs) = timed(|| workload::run_op(&self.plan, operand));
        let used = ProcStat::read().unwrap_or_default().since(&before);
        let ok = out.is_ok();
        self.checks
            .record("operation", out.map(|o| o.check(&self.input)));
        (ok.then_some(secs), used)
    }

    /// One traced operation: its layer totals (`None` if it failed).
    fn traced_op(&mut self, tracer: &mut Tracer) -> Option<OpLayers> {
        let operand = self.input.operand();
        tracer.begin_op();
        let out = workload::traced_op(&self.plan, operand, tracer);
        let layers = tracer.end_op();
        let ok = out.is_ok();
        self.checks
            .record("traced operation", out.map(|o| o.check(&self.input)));
        ok.then_some(layers)
    }

    fn setup_median(&self, part: impl Fn(&SetupTimes) -> f64) -> f64 {
        median(&self.setups.iter().map(part).collect::<Vec<_>>())
    }

    fn outcome(
        &self,
        values: &BTreeMap<&'static str, f64>,
        table: &[(&'static str, &'static str)],
    ) -> Outcome {
        Outcome {
            attempted: self.checks.attempted,
            failed: self.checks.failed,
            metrics: table
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: values.get(name).copied().unwrap_or(0.0),
                })
                .collect(),
        }
    }
}

/// Runs one benchmark process.
///
/// # Errors
///
/// A set-up that fails, or process counters that cannot be read.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut bench = Bench::new(opts)?;
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    if opts.trace {
        return traced(&mut bench, budget, opts.spans_dir.as_deref());
    }
    let mut op_s = Vec::new();
    let t0 = Instant::now();
    let mut tries = 0;
    while tries < MIN_OPS || t0.elapsed() < budget {
        tries += 1;
        op_s.extend(bench.untraced_op().0);
    }
    let setup_s: Vec<f64> = bench.setups.iter().map(|t| t.total_s).collect();
    eprintln!(
        "perfbench: {}: {} set-ups, setup_s {}; {} ops, op_s {}",
        bench.plan.workload.name(),
        setup_s.len(),
        spread(&setup_s),
        op_s.len(),
        spread(&op_s),
    );
    let energy = bench.checks.reference.unwrap_or_default();
    let values = BTreeMap::from([
        ("setup_s", median(&setup_s)),
        ("op_s", median(&op_s)),
        ("rounds", energy.rounds as f64),
        ("max_awake", energy.max_awake as f64),
        ("avg_awake", energy.avg_awake),
        ("peak_rss_mb", peak_rss_mb()?),
    ]);
    Ok(bench.outcome(&values, &END_TO_END))
}

/// The traced run: untraced and traced operations in pairs, so the
/// tracing overhead compares neighbours in time.
fn traced(
    bench: &mut Bench,
    budget: Duration,
    spans_dir: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let (mut plain, mut mem, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut tries = 0;
    while tries < MIN_OPS || t0.elapsed() < budget {
        tries += 1;
        let (secs, used) = bench.untraced_op();
        if let Some(s) = secs {
            plain.push(s);
            mem.push(used);
        }
        layers.extend(bench.traced_op(&mut tracer));
    }
    let graph = bench.input.graph();
    let mut empty = Vec::new();
    for _ in 0..EMPTY_RUNS {
        let (run, secs) = timed(|| congest_sim::run(graph, &Asleep, &bench.plan.cfg.sim));
        run.map_err(|e| format!("the empty run failed: {e}"))?;
        empty.push(secs);
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(first) = layers.first() {
        for &key in first.values.keys() {
            let xs: Vec<f64> = layers.iter().map(|l| l.values[key]).collect();
            values.insert(key, median(&xs));
        }
    }
    let traced_op_s = values.get("trace.op_s").copied().unwrap_or(0.0);
    let plain_op_s = median(&plain);
    let self_time = median_self_time(&layers);
    let top = self_time
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(label, &s)| (label.clone(), s))
        .unwrap_or_default();
    let share = |s: f64| ratio(s, traced_op_s);
    let field = |f: fn(&ProcStat) -> f64| median(&mem.iter().map(f).collect::<Vec<_>>());
    values.extend([
        ("congest.empty_run_s", median(&empty)),
        ("mem.minor_faults", field(|m| m.minor_faults)),
        ("mem.sys_s", field(|m| m.sys_s)),
        ("mem.user_s", field(|m| m.user_s)),
        ("graphs.generate_s", bench.setup_median(|t| t.generate_s)),
        ("runner.solve_s", bench.setup_median(|t| t.solve_s)),
        ("trace.untraced_op_s", plain_op_s),
        (
            "trace.overhead",
            ratio(traced_op_s - plain_op_s, plain_op_s),
        ),
        ("trace.top_cost_s", top.1),
        ("trace.top_cost_share", share(top.1)),
        ("trace.ops", layers.len() as f64),
        ("trace.untraced_ops", plain.len() as f64),
    ]);

    eprintln!(
        "perfbench: {} traced: {} traced and {} untraced ops; op_s traced {:.4} s, untraced {:.4} s, overhead {:+.1}%",
        bench.plan.workload.name(),
        layers.len(),
        plain.len(),
        traced_op_s,
        plain_op_s,
        100.0 * values["trace.overhead"],
    );
    eprintln!(
        "perfbench: spans cover {:.1}% of traced op_s; top cost {} = {:.4} s ({:.1}% of traced op_s)",
        100.0 * values.get("trace.span_coverage").copied().unwrap_or(0.0),
        top.0,
        top.1,
        100.0 * share(top.1),
    );
    let mut ranked: Vec<_> = self_time.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (label, s) in ranked.iter().take(8) {
        eprintln!(
            "perfbench:   self time {label:<16} {s:>9.4} s {:>5.1}%",
            100.0 * share(*s)
        );
    }
    if let Some(dir) = spans_dir {
        let path = dir.join(format!("spans-{}.jsonl", bench.plan.workload.name()));
        let shown = path.display();
        let file = std::fs::File::create(&path).map_err(|e| format!("creating {shown}: {e}"))?;
        tracer
            .write_jsonl(file)
            .map_err(|e| format!("writing {shown}: {e}"))?;
    }
    Ok(bench.outcome(&values, &PER_LAYER))
}

/// `min / median / max` of `xs`, in seconds.
fn spread(xs: &[f64]) -> String {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(0.0, f64::max);
    format!("{min:.4} / {:.4} / {max:.4} s", median(xs))
}

/// The median over operations of each self-time label's seconds (an
/// operation without a label counts 0 for it).
fn median_self_time(layers: &[OpLayers]) -> BTreeMap<String, f64> {
    let mut labels: Vec<&String> = layers.iter().flat_map(|l| l.self_time.keys()).collect();
    labels.sort();
    labels.dedup();
    labels
        .into_iter()
        .map(|label| {
            let xs: Vec<f64> = layers
                .iter()
                .map(|l| l.self_time.get(label).copied().unwrap_or(0.0))
                .collect();
            (label.clone(), median(&xs))
        })
        .collect()
}

/// A protocol that wakes no node: timing it on a workload's graph gives
/// the engine's fixed cost of one run.
struct Asleep;

impl congest_sim::Protocol for Asleep {
    type State = ();
    type Msg = ();
    fn init(&self, _node: mis_graphs::NodeId, _api: &mut congest_sim::InitApi<'_>) {}
    fn send(&self, _state: &mut (), _api: &mut congest_sim::SendApi<'_, ()>) {}
    fn recv(
        &self,
        _state: &mut (),
        _inbox: congest_sim::Inbox<'_, ()>,
        _api: &mut congest_sim::RecvApi<'_>,
    ) {
    }
}
