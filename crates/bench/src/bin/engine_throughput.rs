//! Engine throughput measurement: emits `BENCH_engine.json`.
//!
//! Drives a chatty all-awake protocol (every node broadcasts a small
//! payload every round) through `congest_sim::run` on the standard G(n,p)
//! and d-regular workloads and records rounds/sec and messages/sec, next
//! to the pre-rearchitecture baseline numbers recorded on the same
//! workloads (see `baseline::ROWS`). This is the perf trajectory artifact
//! CI uploads on every push.
//!
//! The emitter also runs a **thread sweep**: three workload families —
//! G(n,p), d-regular, and the hub-skewed Barabási–Albert — through `run`
//! at 1/2/4/8 workers, recording each entry's rounds/sec, messages/sec, achieved
//! `cut_edge_fraction` (cut slots over directed edges, the partition
//! quality the engine's overhead scales with), and its speedup over a
//! sequential reference measured in the same process (the
//! `thread_sweep` JSON section). The sweep also records
//! `available_parallelism`, because a speedup curve measured on fewer
//! cores than workers says more about the host than the engine.
//!
//! And a **degradation** section: rounds-to-MIS and node-averaged awake
//! complexity vs per-delivery loss rate for alg1/alg2/luby, with the
//! verification verdict per cell (see `mis_bench::degradation`).
//!
//! Usage: `engine_throughput [--tiny] [--telemetry] [--out PATH]
//! [--plain-out PATH]`
//!
//! * `--tiny` shrinks the sweep to CI scale (n ∈ {2^10, 2^12}; thread
//!   sweep of all three families at 2^12 with 1/2 workers).
//! * `--telemetry` assembles a full telemetry artifact (counters +
//!   awake-rounds histogram) inside every timed region, so the emitted
//!   rates price the telemetry-enabled path. The main workload rows are
//!   then measured *paired* — `TELEMETRY_PAIRS` back-to-back plain and
//!   priced runs in the same process, the first variant alternating —
//!   and the priced row's time is the plain row's times the median
//!   per-pair ratio. `--plain-out PATH` writes the plain twins as a
//!   standalone document, so CI's 5% overhead gate compares exactly that
//!   median ratio.
//! * default sweep: workload rows at n ∈ {2^14, 2^16, 2^18}; thread
//!   sweep of all three families at n ∈ {2^12, 2^14, 2^16} with 1/2/4/8
//!   workers.

use congest_sim::{
    run, EnergyHistogram, Inbox, InitApi, NodeId, Protocol, RecvApi, SendApi, SimConfig, Telemetry,
};
use mis_bench::{workload_ba, workload_gnp, workload_regular};
use mis_graphs::Graph;
use std::time::Instant;

/// All-awake chatter: every node broadcasts its running counter each
/// round for `rounds` rounds. This maximises engine work per unit of
/// protocol logic, so it measures scheduler + delivery overhead, not the
/// protocol.
struct Chatter {
    rounds: u64,
}

impl Protocol for Chatter {
    type State = u32;
    type Msg = u32;

    fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> u32 {
        api.wake_range(0..self.rounds);
        node
    }

    fn send(&self, state: &mut u32, api: &mut SendApi<'_, u32>) {
        api.broadcast(*state & 0xffff);
    }

    fn recv(&self, state: &mut u32, inbox: Inbox<'_, u32>, _api: &mut RecvApi<'_>) {
        for (src, v) in inbox {
            *state = state.wrapping_add(src.wrapping_add(*v));
        }
    }
}

/// Baseline rounds/sec and messages/sec of the pre-rearchitecture engine
/// (BTreeMap wakeup queue + global sorted outbox), recorded with this
/// same binary at the commit before the bucketed-scheduler/edge-slot
/// rewrite. `None` where the baseline was not measured (tiny CI sizes).
///
/// These are absolute numbers from the *recording host*; on a different
/// (or contended) machine the `speedup_*` ratios mix host speed with
/// engine speed — compare them only against runs from the same host, and
/// check the emitted `available_parallelism` for context.
mod baseline {
    /// `(family, n, rounds_per_sec, messages_per_sec)`.
    pub const ROWS: &[(&str, usize, f64, f64)] = &[
        ("gnp", 1 << 14, 187.8, 30840677.0),
        ("gnp", 1 << 16, 35.9, 23508429.0),
        ("gnp", 1 << 18, 5.3, 13895294.0),
        ("regular", 1 << 14, 327.8, 42953163.0),
        ("regular", 1 << 16, 67.0, 35131047.0),
        ("regular", 1 << 18, 9.1, 19175679.0),
    ];

    pub fn lookup(family: &str, n: usize) -> Option<(f64, f64)> {
        ROWS.iter()
            .find(|(f, bn, _, _)| *f == family && *bn == n)
            .map(|&(_, _, r, m)| (r, m))
    }
}

#[derive(Clone)]
struct Row {
    family: &'static str,
    n: usize,
    rounds: u64,
    messages: u64,
    secs: f64,
    /// Directed edge slots crossing shards over all directed edges —
    /// the partition quality achieved by this run's engine
    /// configuration (`0` on the sequential engine).
    cut_fraction: f64,
}

/// Assembles the telemetry artifact the runner would build for this
/// run — the enabled-path cost the `--telemetry` mode prices into the
/// timed region.
fn assemble_telemetry(metrics: &congest_sim::Metrics) -> Telemetry {
    let mut tel = Telemetry::new();
    tel.counter("elapsed_rounds", metrics.elapsed_rounds);
    tel.counter("busy_rounds", metrics.busy_rounds);
    tel.counter("messages_sent", metrics.messages_sent);
    tel.counter("messages_delivered", metrics.messages_delivered);
    tel.counter("bits_sent", metrics.bits_sent);
    for (name, v) in metrics.probes.counters() {
        tel.counter(format!("probe.{name}"), v);
    }
    tel.histogram(
        "awake_rounds",
        EnergyHistogram::from_values(&metrics.awake_rounds),
    );
    tel
}

fn measure(family: &'static str, n: usize, g: &Graph, reps: usize, telemetry: bool) -> Row {
    measure_threads(family, n, g, 0, reps, telemetry)
}

/// Plain/priced pairs behind each `--telemetry` workload row.
const TELEMETRY_PAIRS: usize = 15;

/// The median of `xs` (the mean of the middle two for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 0 {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// Times one sequential workload plain and priced (the telemetry
/// artifact assembled inside the timed region) as [`TELEMETRY_PAIRS`]
/// back-to-back pairs, alternating which variant runs first. Host noise (noisy
/// neighbors, frequency scaling, regime switches) moves slowly next to
/// one pair, so each pair's priced/plain ratio is a fair overhead sample
/// even on a contended runner; the median drops the few pairs a switch
/// splits, and the alternation cancels any first-run bias. Returns
/// `(plain, priced)`: the plain row carries the median plain time, the
/// priced row that time scaled by the median ratio.
fn measure_paired(family: &'static str, n: usize, g: &Graph) -> (Row, Row) {
    let rounds = ((1u64 << 22) / n as u64).max(8);
    let proto = Chatter { rounds };
    let cfg = SimConfig::seeded(1);
    run(
        g,
        &Chatter {
            rounds: (rounds / 8).max(1),
        },
        &cfg,
    )
    .expect("warmup");
    let timed = |priced: bool| {
        #[allow(clippy::disallowed_methods)]
        // lint:allow(det-wall-clock, reason = "throughput bench timing; wall seconds are the measurement, never an engine input")
        let start = Instant::now();
        let r = run(g, &proto, &cfg).expect("measured run");
        if priced {
            std::hint::black_box(assemble_telemetry(&r.metrics));
        }
        (start.elapsed().as_secs_f64(), r)
    };
    let mut plain = Vec::with_capacity(TELEMETRY_PAIRS);
    let mut ratios = Vec::with_capacity(TELEMETRY_PAIRS);
    let mut res = None;
    for pair in 0..TELEMETRY_PAIRS {
        let ((plain_secs, r), (priced_secs, r2)) = if pair % 2 == 0 {
            let p = timed(false);
            (p, timed(true))
        } else {
            let q = timed(true);
            (timed(false), q)
        };
        assert_eq!(r.metrics, r2.metrics, "same seed, same run");
        plain.push(plain_secs);
        ratios.push(priced_secs / plain_secs);
        res = Some(r);
    }
    let res = res.expect("at least one timed pair");
    let plain_secs = median(plain);
    let priced_secs = plain_secs * median(ratios);
    let row = |secs| Row {
        family,
        n,
        rounds: res.metrics.busy_rounds,
        messages: res.metrics.messages_sent,
        secs,
        cut_fraction: 0.0,
    };
    (row(plain_secs), row(priced_secs))
}

/// Times one workload at the given worker count (`0` = sequential
/// engine), keeping the best (minimum) wall time of `reps` timed runs.
/// Tiny CI mode uses `reps = 3`: its per-run times are a fraction of a
/// second, where shared-runner noisy-neighbor variance alone can exceed
/// the bench-compare gate's 20% budget — the min of three is what the
/// hardware can actually do. Full mode uses `reps = 1` (runs are
/// seconds long and local).
fn measure_threads(
    family: &'static str,
    n: usize,
    g: &Graph,
    threads: usize,
    reps: usize,
    telemetry: bool,
) -> Row {
    // Keep total traffic roughly constant across n so the big sizes stay
    // tractable: ~2^22 node-rounds per run, at least 8 rounds.
    let rounds = ((1u64 << 22) / n as u64).max(8);
    let proto = Chatter { rounds };
    let cfg = SimConfig::seeded(1).with_threads(threads);
    // One warmup at an eighth of the rounds to fault in caches.
    run(
        g,
        &Chatter {
            rounds: (rounds / 8).max(1),
        },
        &cfg,
    )
    .expect("warmup");
    let mut secs = f64::INFINITY;
    let mut res = None;
    for _ in 0..reps.max(1) {
        #[allow(clippy::disallowed_methods)]
        // lint:allow(det-wall-clock, reason = "throughput bench timing; wall seconds are the measurement, never an engine input")
        let start = Instant::now();
        let r = run(g, &proto, &cfg).expect("measured run");
        if telemetry {
            // Price the enabled path: the artifact is built inside the
            // timed region, exactly as the runner does per run.
            std::hint::black_box(assemble_telemetry(&r.metrics));
        }
        secs = secs.min(start.elapsed().as_secs_f64());
        res = Some(r);
    }
    let res = res.expect("at least one timed run");
    // The determinism contract, spot-checked where it is cheapest: the
    // parallel engine's metrics must equal the sequential engine's.
    if threads > 1 && n <= 1 << 12 {
        let seq = run(g, &proto, &SimConfig::seeded(1)).expect("sequential check");
        assert_eq!(
            res.metrics, seq.metrics,
            "parallel metrics diverged at {threads} threads"
        );
    }
    // `cut_slots / directed_m`: the fraction of directed edge slots
    // whose endpoints landed on different shards — 0 sequentially.
    let directed_m = (g.m() * 2) as f64;
    let cut_fraction = if directed_m > 0.0 {
        res.stats.cut_slots as f64 / directed_m
    } else {
        0.0
    };
    Row {
        family,
        n,
        rounds: res.metrics.busy_rounds,
        messages: res.metrics.messages_sent,
        secs,
        cut_fraction,
    }
}

/// Times one workload at every sweep worker count **plus** a sequential
/// reference, with the reps *interleaved* across configurations (seq,
/// t₁, t₂, … per rep, min wall time per configuration). A speedup is a
/// ratio of two measurements; on a throttled or noisy host, measuring
/// the reference minutes before the parallel runs folds clock drift
/// into the ratio — interleaving makes drift hit every configuration
/// alike, the same discipline `measure_paired` uses for the telemetry
/// overhead gate. Returns `(row, threads)` with the sequential
/// reference first (`threads == 0`).
fn measure_sweep(
    family: &'static str,
    n: usize,
    g: &Graph,
    sweep_threads: &[usize],
    reps: usize,
    telemetry: bool,
) -> Vec<(Row, usize)> {
    let rounds = ((1u64 << 22) / n as u64).max(8);
    let proto = Chatter { rounds };
    let warm = Chatter {
        rounds: (rounds / 8).max(1),
    };
    let mut threads: Vec<usize> = vec![0];
    threads.extend_from_slice(sweep_threads);
    let cfgs: Vec<SimConfig> = threads
        .iter()
        .map(|&t| SimConfig::seeded(1).with_threads(t))
        .collect();
    for cfg in &cfgs {
        run(g, &warm, cfg).expect("warmup");
    }
    let mut secs = vec![f64::INFINITY; cfgs.len()];
    let mut results: Vec<Option<_>> = (0..cfgs.len()).map(|_| None).collect();
    // Rotate the starting config each rep: if the host throttles on a
    // periodic quota, a fixed visit order would let stalls land on the
    // same config every cycle and bias its minimum.
    for rep in 0..reps.max(1) {
        for k in 0..cfgs.len() {
            let i = (k + rep) % cfgs.len();
            let cfg = &cfgs[i];
            #[allow(clippy::disallowed_methods)]
            // lint:allow(det-wall-clock, reason = "throughput bench timing; wall seconds are the measurement, never an engine input")
            let start = Instant::now();
            let r = run(g, &proto, cfg).expect("sweep run");
            if telemetry {
                std::hint::black_box(assemble_telemetry(&r.metrics));
            }
            secs[i] = secs[i].min(start.elapsed().as_secs_f64());
            results[i] = Some(r);
        }
    }
    let directed_m = (g.m() * 2) as f64;
    let results: Vec<_> = results
        .into_iter()
        .map(|r| r.expect("at least one timed rep"))
        .collect();
    // Same protocol, graph, and seed at every worker count: the
    // determinism contract, spot-checked on every sweep cell for free.
    for (res, &t) in results.iter().zip(&threads) {
        assert_eq!(
            res.metrics, results[0].metrics,
            "parallel metrics diverged from sequential at {t} threads ({family} n={n})"
        );
    }
    threads
        .into_iter()
        .zip(secs)
        .zip(results)
        .map(|((t, secs), res)| {
            (
                Row {
                    family,
                    n,
                    rounds: res.metrics.busy_rounds,
                    messages: res.metrics.messages_sent,
                    secs,
                    cut_fraction: if directed_m > 0.0 {
                        res.stats.cut_slots as f64 / directed_m
                    } else {
                        0.0
                    },
                },
                t,
            )
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let telemetry = args.iter().any(|a| a == "--telemetry");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("BENCH_engine.json")
        .to_string();
    let plain_out = args
        .iter()
        .position(|a| a == "--plain-out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let sizes: &[usize] = if tiny {
        &[1 << 10, 1 << 12]
    } else {
        &[1 << 14, 1 << 16, 1 << 18]
    };
    let sweep_sizes: &[usize] = if tiny {
        &[1 << 12]
    } else {
        &[1 << 12, 1 << 14, 1 << 16]
    };
    let sweep_threads: &[usize] = if tiny { &[1, 2] } else { &[1, 2, 4, 8] };
    let reps = if tiny { 3 } else { 1 };

    let mut rows = Vec::new();
    // In `--telemetry` mode the main rows are measured *paired* (plain
    // and priced reps interleaved in this same process); the plain twins
    // land here, and `--plain-out` can persist them as the overhead
    // gate's noise-matched baseline.
    let mut plain_rows: Vec<Row> = Vec::new();
    let mut gnp_graphs: Vec<(usize, Graph)> = Vec::new();
    for &n in sizes {
        let g = workload_gnp(n, 5);
        let rg = workload_regular(n, 8, 5);
        if telemetry {
            let (p, t) = measure_paired("gnp", n, &g);
            plain_rows.push(p);
            rows.push(t);
            let (p, t) = measure_paired("regular", n, &rg);
            plain_rows.push(p);
            rows.push(t);
        } else {
            rows.push(measure("gnp", n, &g, reps, false));
            rows.push(measure("regular", n, &rg, reps, false));
        }
        gnp_graphs.push((n, g));
    }

    // Thread sweep: run at each worker count on all three
    // families — G(n,p), d-regular, and the hub-skewed Barabási–Albert
    // — each against a sequential reference measured in the same
    // process with the reps interleaved (see `measure_sweep`: a
    // speedup ratio taken across minutes of host drift measures the
    // host, not the engine).
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let sweep_families: &[&'static str] = &["gnp", "regular", "ba"];
    let sweep_reps = reps.max(7);
    let mut sweep: Vec<(Row, usize, f64)> = Vec::new(); // (row, threads, speedup)
    for &n in sweep_sizes {
        for &family in sweep_families {
            let built;
            let g: &Graph = match family {
                // Main-row G(n,p) graphs are reused where sizes overlap.
                "gnp" => match gnp_graphs.iter().find(|(gn, _)| *gn == n) {
                    Some((_, g)) => g,
                    None => {
                        built = workload_gnp(n, 5);
                        &built
                    }
                },
                "regular" => {
                    built = workload_regular(n, 8, 5);
                    &built
                }
                _ => {
                    built = workload_ba(n, 4, 5);
                    &built
                }
            };
            let cells = measure_sweep(family, n, g, sweep_threads, sweep_reps, telemetry);
            let seq_rps = {
                let seq = &cells[0].0;
                seq.rounds as f64 / seq.secs
            };
            for (row, t) in cells {
                let speedup = (row.rounds as f64 / row.secs) / seq_rps;
                sweep.push((row, t, speedup));
            }
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"bench-engine-v1\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if tiny { "tiny" } else { "full" }
    ));
    json.push_str("  \"protocol\": \"chatter-broadcast-all-awake\",\n");
    // Host context: baseline_* ratios compare against numbers recorded
    // on a *different* host (see `baseline::ROWS`), so a reader needs to
    // know how parallel this machine was before reading them as a
    // same-host trajectory.
    json.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    json.push_str(&format!("  \"telemetry_enabled\": {telemetry},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let rps = r.rounds as f64 / r.secs;
        let mps = r.messages as f64 / r.secs;
        let base = baseline::lookup(r.family, r.n);
        println!(
            "{:>8} n={:<8} {:>10.1} rounds/s {:>14.0} msgs/s{}",
            r.family,
            r.n,
            rps,
            mps,
            match base {
                Some((br, _)) => format!("  ({:.2}x baseline)", rps / br),
                None => String::new(),
            }
        );
        json.push_str("    {");
        json.push_str(&format!(
            "\"family\": \"{}\", \"n\": {}, \"rounds\": {}, \"messages\": {}, \"secs\": {:.6}, \"rounds_per_sec\": {:.1}, \"messages_per_sec\": {:.0}",
            r.family, r.n, r.rounds, r.messages, r.secs, rps, mps
        ));
        if let Some((br, bm)) = base {
            json.push_str(&format!(
                ", \"baseline_rounds_per_sec\": {br:.1}, \"baseline_messages_per_sec\": {bm:.0}, \"speedup_rounds\": {:.3}, \"speedup_messages\": {:.3}",
                rps / br,
                mps / bm
            ));
        }
        json.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    json.push_str("  ],\n");

    json.push_str("  \"thread_sweep\": {\n");
    json.push_str(&format!("    \"available_parallelism\": {cores},\n"));
    json.push_str("    \"entries\": [\n");
    for (i, (r, t, speedup)) in sweep.iter().enumerate() {
        let rps = r.rounds as f64 / r.secs;
        let mps = r.messages as f64 / r.secs;
        println!(
            "{:>8} {:<8} n={:<8} threads={:<2} {:>10.1} rounds/s  cut {:>6.4}  ({:.2}x sequential)",
            "sweep", r.family, r.n, t, rps, r.cut_fraction, speedup
        );
        json.push_str(&format!(
            "      {{\"family\": \"{}\", \"n\": {}, \"threads\": {}, \"engine\": \"{}\", \"rounds\": {}, \"secs\": {:.6}, \"rounds_per_sec\": {:.1}, \"messages_per_sec\": {:.0}, \"cut_edge_fraction\": {:.6}, \"speedup_vs_sequential\": {:.3}}}{}\n",
            r.family,
            r.n,
            t,
            if *t == 0 { "sequential" } else { "parallel" },
            r.rounds,
            r.secs,
            rps,
            mps,
            r.cut_fraction,
            speedup,
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  },\n");

    // Degradation: the channel-robustness sweep — rounds and awake
    // energy vs per-delivery loss rate, per algorithm, each cell carrying
    // its MIS-verification verdict (`experiments degrade` prints the
    // same rows as a table). Lossy cells may legitimately fail to verify;
    // the p=0 control cells must not.
    let degrade_n = if tiny { 1 << 12 } else { 1 << 16 };
    json.push_str("  \"degradation\": {\n    \"base_family\": \"gnp\",\n    \"entries\": [\n");
    let degrade_rows =
        mis_bench::degradation::degradation_rows(degrade_n, 0, &mis_bench::degradation::ALGOS);
    for (i, r) in degrade_rows.iter().enumerate() {
        println!(
            "{:>8} n={:<8} {:<6} p={:<5} {:>8} rounds  avg awake {:>7.2}  {}",
            "degrade",
            r.n,
            r.algo,
            r.p,
            r.rounds,
            r.avg_awake,
            if r.verified { "verified" } else { "NOT AN MIS" }
        );
        json.push_str(&format!(
            "      {{\"algo\": \"{}\", \"n\": {}, \"loss_p\": {}, \"rounds\": {}, \"avg_awake\": {:.4}, \"max_awake\": {}, \"messages_dropped\": {}, \"verified\": {}}}{}\n",
            r.algo,
            r.n,
            r.p,
            r.rounds,
            r.avg_awake,
            r.max_awake,
            r.dropped,
            r.verified,
            if i + 1 == degrade_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");

    // The paired plain rows as a standalone bench document — the
    // noise-matched baseline the telemetry overhead gate compares the
    // priced emission against (same process, interleaved reps). Without
    // `--telemetry` the main rows *are* plain, so the file is just the
    // workloads section again.
    if let Some(path) = plain_out {
        let rows = if telemetry { &plain_rows } else { &rows };
        let mut pj = String::from("{\n  \"schema\": \"bench-engine-v1\",\n");
        pj.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if tiny { "tiny" } else { "full" }
        ));
        pj.push_str("  \"protocol\": \"chatter-broadcast-all-awake\",\n");
        pj.push_str("  \"telemetry_enabled\": false,\n");
        pj.push_str("  \"workloads\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let rps = r.rounds as f64 / r.secs;
            let mps = r.messages as f64 / r.secs;
            pj.push_str(&format!(
                "    {{\"family\": \"{}\", \"n\": {}, \"rounds\": {}, \"messages\": {}, \"secs\": {:.6}, \"rounds_per_sec\": {rps:.1}, \"messages_per_sec\": {mps:.0}}}{}\n",
                r.family,
                r.n,
                r.rounds,
                r.messages,
                r.secs,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        pj.push_str("  ]\n}\n");
        std::fs::write(&path, pj).expect("write plain-out document");
        println!("wrote {path}");
    }
}
