//! The experiment suite E1–E14 (DESIGN.md §6, EXPERIMENTS.md).
//!
//! Every function prints the table(s) it regenerates and returns the raw
//! series so tests can assert the claimed *shapes* (who wins, growth
//! rates), never absolute round counts.
//!
//! All end-to-end runs go through the unified [`mis_runner`] registry
//! (`Algorithm::run` on a [`WorkloadSpec`]-built graph → [`RunReport`]),
//! so every experiment speaks the same API as the examples, the benches,
//! and the `scenario` CLI mode. Only the two protocol-dissection
//! experiments (E7, E8) drive a raw engine protocol directly — they
//! measure *inside* a phase, which no end-to-end entry point exposes.

use crate::table::{f2, Table};
use crate::{size_sweep, workload_gnp, workload_regular};
use congest_sim::schedule::{set_size_bound, AwakeSchedule};
use congest_sim::{run, SimConfig};
use energy_mis::alg1::phase1::Phase1Protocol;
use energy_mis::alg2::phase1::Alg2Phase1Iteration;
use energy_mis::params::{log2n, Alg1Params, Alg2Params};
use mis_graphs::generators::Family;
use mis_graphs::Graph;
use mis_runner::{registry, Alg1, Alg2, Algorithm, RunConfig, RunReport, WorkloadSpec};

/// Engine config every experiment runs under: the given seed plus the
/// suite-wide worker-thread setting ([`crate::set_threads`]). Results are
/// bit-identical for every thread count, so the tables never depend on it.
fn cfg(seed: u64) -> RunConfig {
    RunConfig::from(SimConfig::seeded(seed).with_threads(crate::threads()))
}

/// Runs a registered algorithm by name — the one code path every
/// end-to-end experiment shares.
fn run_named(name: &str, g: &Graph, seed: u64) -> RunReport {
    registry::from_name(name)
        .expect("registered algorithm")
        .run(g, &cfg(seed))
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// One row of the scaling sweep (E1–E4).
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Graph size.
    pub n: usize,
    /// (rounds, max awake, avg awake) per algorithm: alg1, alg2, luby.
    pub alg1: (u64, u64, f64),
    /// Algorithm 2 numbers.
    pub alg2: (u64, u64, f64),
    /// Luby numbers.
    pub luby: (u64, u64, f64),
}

fn triple(r: &RunReport) -> (u64, u64, f64) {
    (
        r.metrics.elapsed_rounds,
        r.metrics.max_awake(),
        r.metrics.avg_awake(),
    )
}

/// E1–E4: time and energy scaling of both algorithms vs Luby on
/// `G(n, 10/n)`.
pub fn scaling(quick: bool) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for n in size_sweep(quick) {
        let g = workload_gnp(n, n as u64);
        let reports: Vec<RunReport> = ["alg1", "alg2", "luby"]
            .iter()
            .map(|name| {
                let r = run_named(name, &g, 1);
                assert!(r.is_mis(), "{name} at n={n}");
                r
            })
            .collect();
        rows.push(ScalingRow {
            n,
            alg1: triple(&reports[0]),
            alg2: triple(&reports[1]),
            luby: triple(&reports[2]),
        });
    }
    let mut time = Table::new([
        "n",
        "alg1 rounds",
        "alg2 rounds",
        "luby rounds",
        "log2n",
        "log2^2 n",
    ]);
    let mut energy = Table::new(["n", "alg1 awake", "alg2 awake", "luby awake", "loglog n"]);
    for r in &rows {
        let l = log2n(r.n);
        time.row([
            r.n.to_string(),
            r.alg1.0.to_string(),
            r.alg2.0.to_string(),
            r.luby.0.to_string(),
            f2(l),
            f2(l * l),
        ]);
        energy.row([
            r.n.to_string(),
            r.alg1.1.to_string(),
            r.alg2.1.to_string(),
            r.luby.1.to_string(),
            f2(l.log2()),
        ]);
    }
    time.print("E1/E3 — time complexity vs n, sparse G(n, 10/n) (Theorems 1.1, 1.2)");
    energy.print("E2/E4 — worst-case energy vs n, sparse G(n, 10/n)");

    // Dense regime: d = 2 (log2 n)^2 regular graphs, where ∆ > log² n and
    // Phase I actually engages — the regime of the paper's analysis.
    let mut dtime = Table::new(["n", "d", "alg1 rounds", "alg2 rounds", "luby rounds"]);
    let mut denergy = Table::new(["n", "d", "alg1 awake", "alg2 awake", "luby awake"]);
    for n in size_sweep(quick) {
        let l = log2n(n);
        let mut d = (2.0 * l * l) as usize;
        if d % 2 == 1 {
            d += 1;
        }
        let d = d.min(n / 4);
        let g = workload_regular(n, d, n as u64);
        let a1 = run_named("alg1", &g, 1);
        let a2 = run_named("alg2", &g, 1);
        let lb = run_named("luby", &g, 1);
        assert!(a1.is_mis() && a2.is_mis());
        dtime.row([
            n.to_string(),
            d.to_string(),
            a1.metrics.elapsed_rounds.to_string(),
            a2.metrics.elapsed_rounds.to_string(),
            lb.metrics.elapsed_rounds.to_string(),
        ]);
        denergy.row([
            n.to_string(),
            d.to_string(),
            a1.metrics.max_awake().to_string(),
            a2.metrics.max_awake().to_string(),
            lb.metrics.max_awake().to_string(),
        ]);
    }
    dtime.print("E1/E3 (dense regime) — time vs n on 2·log²n-regular graphs");
    denergy.print("E2/E4 (dense regime) — energy vs n on 2·log²n-regular graphs");
    rows
}

/// E5: correctness rates across families and seeds.
pub fn correctness(quick: bool) -> (usize, usize) {
    let seeds = if quick { 3 } else { 10 };
    let n = if quick { 400 } else { 1000 };
    let fams = [
        Family::GnpAvgDeg(8),
        Family::GnpAvgDeg(32),
        Family::Regular(6),
        Family::GeometricAvgDeg(10),
        Family::BarabasiAlbert(3),
        Family::Grid,
        Family::Path,
        Family::Cycle,
        Family::Star,
    ];
    let mut t = Table::new(["family", "alg1 ok", "alg2 ok", "runs"]);
    let (mut total, mut ok) = (0, 0);
    for fam in fams {
        let (mut ok1, mut ok2) = (0, 0);
        for seed in 0..seeds {
            let g = WorkloadSpec::new(fam, n).with_seed(seed).build();
            if run_named("alg1", &g, seed).is_mis() {
                ok1 += 1;
            }
            if run_named("alg2", &g, seed).is_mis() {
                ok2 += 1;
            }
        }
        total += 2 * seeds as usize;
        ok += (ok1 + ok2) as usize;
        t.row([
            fam.name(),
            format!("{ok1}/{seeds}"),
            format!("{ok2}/{seeds}"),
            (2 * seeds).to_string(),
        ]);
    }
    t.print("E5 — MIS correctness across families and seeds (w.h.p. claim)");
    (ok, total)
}

/// E6: per-phase breakdown of one Algorithm 1 run.
pub fn phase_breakdown(quick: bool) -> Vec<(String, u64, u64)> {
    let n = if quick { 1 << 12 } else { 1 << 14 };
    let l = log2n(n);
    let d = (2.0 * l * l) as usize / 2 * 2;
    let g = workload_regular(n, d.min(n / 4), 7);
    // shatter_c = 2 leaves genuine shattered components so that the
    // Phase III machinery shows up in the breakdown. Custom parameters
    // run through the same Algorithm trait as the registry defaults.
    let alg = Alg1 {
        params: Alg1Params {
            shatter_c: 2.0,
            ..Alg1Params::default()
        },
    };
    let r = alg.run(&g, &cfg(3)).expect("alg1");
    assert!(r.is_mis());
    let groups = [
        ("phase1", "Phase I (degree reduction)"),
        ("phase2", "Phase II (shatter + cluster)"),
        ("merge", "Phase III (Borůvka merge)"),
        ("finish", "Phase III (parallel finish)"),
    ];
    let mut t = Table::new(["phase", "rounds", "max awake", "messages"]);
    let mut out = Vec::new();
    for (prefix, label) in groups {
        if let Some(m) = r.phase_group(prefix) {
            t.row([
                label.to_string(),
                m.elapsed_rounds.to_string(),
                m.max_awake().to_string(),
                m.messages_sent.to_string(),
            ]);
            out.push((label.to_string(), m.elapsed_rounds, m.max_awake()));
        }
    }
    t.row([
        "TOTAL".to_string(),
        r.metrics.elapsed_rounds.to_string(),
        r.metrics.max_awake().to_string(),
        r.metrics.messages_sent.to_string(),
    ]);
    t.print("E6 — phase decomposition of Algorithm 1 (proof of Thm 1.1)");
    out
}

/// E7: measured per-iteration degree trajectory of Phase I vs the
/// `∆/2^(i+1)` invariant B(i) of Lemma 2.2.
pub fn degree_trajectory(quick: bool) -> Vec<(u32, usize, f64)> {
    let (n, d) = if quick { (2048, 512) } else { (8192, 1024) };
    let g = workload_regular(n, d, 5);
    let params = Alg1Params::default();
    let iters = params.phase1_iterations(n, d).max(2);
    let rounds = params.phase1_rounds_per_iter(n);
    let participating = vec![true; n];
    let proto = Phase1Protocol::new(&participating, iters, rounds, d, params.mark_base);
    let states = run(&g, &proto, &cfg(9).sim).expect("phase1").states;

    // Offline reconstruction: a node is inactive from the round its
    // neighborhood (or itself) joined; spoiled from its sample round.
    let joined_at = |v: u32| -> Option<u32> {
        let s = &states[v as usize];
        s.joined
            .then(|| s.sampled_round.expect("joined implies sampled"))
    };
    let mut out = Vec::new();
    let mut t = Table::new([
        "iteration",
        "max active non-spoiled degree",
        "bound ∆/2^(i+1)",
    ]);
    for i in 0..iters {
        let horizon = (i + 1) * rounds;
        let inactive_at = |v: u32| -> bool {
            if joined_at(v).is_some_and(|r| r < horizon) {
                return true;
            }
            g.neighbors(v)
                .iter()
                .any(|&u| joined_at(u).is_some_and(|r| r < horizon))
        };
        let spoiled_at = |v: u32| -> bool {
            let s = &states[v as usize];
            s.sampled_round.is_some_and(|r| r < horizon) && !s.joined
        };
        let mut max_deg = 0usize;
        for v in g.nodes() {
            if inactive_at(v) {
                continue;
            }
            let deg = g
                .neighbors(v)
                .iter()
                .filter(|&&u| !inactive_at(u) && !spoiled_at(u))
                .count();
            max_deg = max_deg.max(deg);
        }
        let bound = d as f64 / f64::from(1u32 << (i + 1).min(30));
        t.row([(i + 1).to_string(), max_deg.to_string(), f2(bound)]);
        out.push((i + 1, max_deg, bound));
    }
    t.print("E7 — Phase I degree-reduction trajectory (invariant B(i), Lemma 2.2)");
    out
}

/// E8: one Algorithm 2 Phase I iteration shrinks `∆ → ~∆^0.7`
/// (Lemma 3.1); reports the measured exponent.
pub fn alg2_shrink(quick: bool) -> f64 {
    let (n, d) = if quick { (2048, 512) } else { (8192, 1024) };
    let g = workload_regular(n, d, 3);
    let participating = vec![true; n];
    let rounds = (3.0 * log2n(n)).ceil() as u32;
    let proto = Alg2Phase1Iteration::new(&participating, rounds, d as f64, 0.5, 0.6);
    let states = run(&g, &proto, &cfg(2).sim).expect("iteration").states;
    let mut active = vec![true; n];
    for v in g.nodes() {
        if states[v as usize].joined {
            active[v as usize] = false;
            for &u in g.neighbors(v) {
                active[u as usize] = false;
            }
        }
    }
    let residual = mis_graphs::props::masked_max_degree(&g, &active).max(1);
    let exponent = (residual as f64).ln() / (d as f64).ln();
    let mut t = Table::new(["∆ before", "∆ after", "measured exponent", "paper target"]);
    t.row([
        d.to_string(),
        residual.to_string(),
        f2(exponent),
        "0.70".to_string(),
    ]);
    t.print("E8 — Algorithm 2 Phase I degree shrink (Lemma 3.1)");
    exponent
}

/// E9: Lemma 2.5 schedule sizes: `|S_k| = O(log T)`.
pub fn schedule_sizes(quick: bool) -> Vec<(usize, usize)> {
    let ts: Vec<usize> = if quick {
        vec![16, 256, 4096]
    } else {
        vec![16, 64, 256, 1024, 4096, 16384, 65536]
    };
    let mut t = Table::new(["T", "max |S_k|", "avg |S_k|", "bound log2 T + 2"]);
    let mut out = Vec::new();
    for &tt in &ts {
        let s = AwakeSchedule::build(tt);
        t.row([
            tt.to_string(),
            s.max_set_size().to_string(),
            f2(s.avg_set_size()),
            set_size_bound(tt).to_string(),
        ]);
        out.push((tt, s.max_set_size()));
    }
    t.print("E9 — awake-schedule sizes (Lemma 2.5)");
    out
}

/// E10: robustness across graph families (time/energy table).
pub fn families(quick: bool) -> Vec<(String, u64, u64, u64)> {
    let n = if quick { 1 << 11 } else { 1 << 13 };
    let fams = [
        Family::GnpAvgDeg(8),
        Family::GnpAvgDeg(64),
        Family::Regular(8),
        Family::GeometricAvgDeg(12),
        Family::BarabasiAlbert(4),
        Family::Grid,
        Family::Path,
        Family::Star,
    ];
    let mut t = Table::new(["family", "alg1 rounds", "alg1 awake", "luby awake"]);
    let mut out = Vec::new();
    for fam in fams {
        let g = WorkloadSpec::new(fam, n).with_seed(31).build();
        let a1 = run_named("alg1", &g, 1);
        let lb = run_named("luby", &g, 1);
        assert!(a1.is_mis(), "family {}", fam.name());
        t.row([
            fam.name(),
            a1.metrics.elapsed_rounds.to_string(),
            a1.metrics.max_awake().to_string(),
            lb.metrics.max_awake().to_string(),
        ]);
        out.push((
            fam.name(),
            a1.metrics.elapsed_rounds,
            a1.metrics.max_awake(),
            lb.metrics.max_awake(),
        ));
    }
    t.print("E10 — robustness across graph families");
    out
}

/// E11: CONGEST compliance — the largest message vs the `O(log n)`
/// budget.
pub fn congest_compliance(quick: bool) -> Vec<(usize, usize, usize)> {
    let mut t = Table::new(["n", "alg1 max bits", "alg2 max bits", "budget 12·log2 n"]);
    let mut out = Vec::new();
    for n in size_sweep(quick) {
        let g = workload_gnp(n, 7);
        let a1 = run_named("alg1", &g, 1);
        let a2 = run_named("alg2", &g, 1);
        let budget = SimConfig::congest_bandwidth(n, 12);
        t.row([
            n.to_string(),
            a1.metrics.max_message_bits.to_string(),
            a2.metrics.max_message_bits.to_string(),
            budget.to_string(),
        ]);
        out.push((n, a1.metrics.max_message_bits, a2.metrics.max_message_bits));
    }
    t.print("E11 — CONGEST message-size compliance");
    out
}

/// E12: shattering — post-Phase-II component sizes stay polylog.
pub fn shattering(quick: bool) -> Vec<(usize, f64)> {
    let mut t = Table::new(["n", "max component after shatter", "log2^3 n"]);
    let mut out = Vec::new();
    let alg = Alg1 {
        params: Alg1Params {
            shatter_c: 1.5,
            ..Alg1Params::default()
        },
    };
    for n in size_sweep(quick) {
        let g = workload_gnp(n, 13);
        let r = alg.run(&g, &cfg(5)).expect("alg1");
        assert!(r.is_mis());
        let comp = r.extras.get("phase2_max_component").copied().unwrap_or(0.0);
        let l = log2n(n);
        t.row([n.to_string(), comp.to_string(), f2(l * l * l)]);
        out.push((n, comp));
    }
    t.print("E12 — shattering: residual component sizes (Lemma 2.6)");
    out
}

/// E13: Section 4 — node-averaged energy stays near-constant.
pub fn avg_energy(quick: bool) -> Vec<(usize, f64, f64)> {
    let mut t = Table::new([
        "n",
        "avg awake (Section 4)",
        "avg awake (alg1)",
        "avg awake (luby)",
    ]);
    let mut out = Vec::new();
    for n in size_sweep(quick) {
        let g = workload_gnp(n, 23);
        let ae = run_named("avg1", &g, 1);
        let a1 = run_named("alg1", &g, 1);
        let lb = run_named("luby", &g, 1);
        assert!(ae.is_mis());
        t.row([
            n.to_string(),
            f2(ae.metrics.avg_awake()),
            f2(a1.metrics.avg_awake()),
            f2(lb.metrics.avg_awake()),
        ]);
        out.push((n, ae.metrics.avg_awake(), lb.metrics.avg_awake()));
    }
    t.print("E13 — node-averaged energy (Section 4: O(1) average)");
    out
}

/// E14: ablations — (a) Phase I early stopping (`log ∆ − 2 log log n`
/// iterations vs the full `log ∆` ladder), (b) KW color reduction in
/// Algorithm 2's merge.
pub fn ablations(quick: bool) -> Vec<(String, u64, u64)> {
    let (n, d) = if quick { (2048, 256) } else { (8192, 512) };
    let g = workload_regular(n, d, 11);
    let mut out = Vec::new();
    let mut t = Table::new(["variant", "rounds", "max awake", "residual degree", "MIS"]);

    // Ablation variants are the same Algorithm trait with non-default
    // parameters; `Box<dyn Algorithm>` erases the two param types.
    let variants: [(&str, Box<dyn Algorithm>); 4] = [
        (
            "alg1: early-stopped Phase I (paper)",
            Box::new(Alg1::default()),
        ),
        (
            "alg1: full Luby ladder",
            Box::new(Alg1 {
                params: Alg1Params {
                    iter_cut: 0.0,
                    ..Alg1Params::default()
                },
            }),
        ),
        (
            "alg2: Linial fixed point (paper)",
            Box::new(Alg2::default()),
        ),
        (
            "alg2: + KW reduction to ∆+1 colors",
            Box::new(Alg2 {
                params: Alg2Params {
                    kw_reduction: true,
                    ..Alg2Params::default()
                },
            }),
        ),
    ];
    for (label, alg) in variants {
        let r = alg.run(&g, &cfg(3)).expect(label);
        t.row([
            label.to_string(),
            r.metrics.elapsed_rounds.to_string(),
            r.metrics.max_awake().to_string(),
            r.extras["phase1_residual_degree"].to_string(),
            r.is_mis().to_string(),
        ]);
        out.push((
            label.to_string(),
            r.metrics.elapsed_rounds,
            r.metrics.max_awake(),
        ));
    }
    t.print("E14 — ablations (Phase I cut-off; KW color reduction)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_schedule_sizes_match_bound() {
        let rows = schedule_sizes(true);
        for (t, max) in rows {
            assert!(max <= set_size_bound(t));
        }
    }

    #[test]
    fn e8_shrink_exponent_is_sublinear() {
        let e = alg2_shrink(true);
        assert!(e < 1.0, "no degree reduction: exponent {e}");
    }

    #[test]
    fn e5_correctness_is_total() {
        let (ok, total) = correctness(true);
        assert_eq!(ok, total, "some runs failed to produce an MIS");
    }

    #[test]
    fn e13_average_energy_flat_vs_luby() {
        let rows = avg_energy(true);
        let (first, last) = (rows.first().unwrap(), rows.last().unwrap());
        // Section-4 average grows slower than Luby's average.
        let ae_growth = last.1 / first.1.max(0.1);
        let luby_growth = last.2 / first.2.max(0.1);
        assert!(
            ae_growth <= luby_growth + 0.5,
            "avg-energy curve grows faster than Luby: {ae_growth:.2} vs {luby_growth:.2}"
        );
    }
}
