//! The benchmark's own tests, on the tiny sizes of every workload.

use perfbench::trace::Tracer;
use perfbench::workload::{self, set_up, Input, Output, Plan};
use perfbench::{Size, Workload, END_TO_END, PER_LAYER};
use std::process::Command;

/// Runs the benchmark binary on a tiny workload and returns its last
/// standard-output line.
fn run_binary(w: Workload, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", w.name(), "--seed", "7", "--seconds", "0"])
        .args(["--size", "tiny", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = run_binary(w, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{line}");
            for (name, unit) in table {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&key)
                    .unwrap_or_else(|| panic!("{name} missing: {line}"));
                let rest = &line[at + key.len()..];
                let (value, tail) = rest.split_once(',').expect("a value then a unit");
                value.parse::<f64>().expect("a plain JSON number");
                assert!(
                    tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                    "{name} has the wrong unit: {line}"
                );
            }
            assert_eq!(line.matches("\"unit\"").count(), table.len(), "{line}");
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\"").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

/// The deterministic metrics of one untraced operation.
fn energy(w: Workload, seed: u64) -> workload::Energy {
    let plan = Plan::new(w, Size::Tiny, seed);
    let (input, _) = set_up(&plan).expect("tiny set-up succeeds");
    let checked = workload::run_op(&plan, input.operand())
        .expect("tiny operation succeeds")
        .check(&input);
    assert!(checked.is_mis, "{} seed {seed}", w.name());
    checked.energy
}

#[test]
fn deterministic_metrics_repeat_for_a_seed_and_differ_for_another() {
    for w in Workload::ALL {
        let a = energy(w, 3);
        assert_eq!(a, energy(w, 3), "{} repeats", w.name());
        assert_ne!(a, energy(w, 4), "{} depends on the seed", w.name());
        assert!(
            a.rounds > 0 && a.max_awake > 0 && a.avg_awake > 0.0,
            "{a:?}"
        );
    }
}

#[test]
fn span_totals_match_the_traced_op() {
    for w in Workload::ALL {
        let plan = Plan::new(w, Size::Tiny, 5);
        let (input, _) = set_up(&plan).expect("tiny set-up succeeds");
        let untraced = workload::run_op(&plan, input.operand())
            .unwrap()
            .check(&input);
        let mut tracer = Tracer::new();
        tracer.begin_op();
        let out = workload::traced_op(&plan, input.operand(), &mut tracer).unwrap();
        let layers = tracer.end_op();
        let traced = out.check(&input);
        assert!(traced.is_mis, "{}", w.name());
        assert_eq!(
            traced.energy,
            untraced.energy,
            "{}: tracing changed the run",
            w.name()
        );

        let v = &layers.values;
        let parts = v["congest.entry_s"] + v["congest.loop_s"] + v["congest.exit_s"];
        let families: f64 = perfbench::trace::FAMILIES
            .iter()
            .map(|(_, s, _)| v[*s])
            .sum();
        let runs: f64 = perfbench::trace::FAMILIES
            .iter()
            .map(|(_, _, r)| v[*r])
            .sum();
        assert!(v["congest.runs"] > 0.0, "{}", w.name());
        assert_eq!(
            runs,
            v["congest.runs"],
            "{}: a phase fell outside the families",
            w.name()
        );
        assert!(
            (parts - families).abs() < 1e-6,
            "{}: {parts} vs {families}",
            w.name()
        );
        let coverage = v["trace.span_coverage"];
        assert!(
            (0.5..=1.0).contains(&coverage),
            "{}: coverage {coverage}",
            w.name()
        );
        let self_total: f64 = layers.self_time.values().sum();
        assert!(
            (self_total - v["trace.op_s"]).abs() < 1e-6,
            "{}: self times {self_total} vs op {}",
            w.name(),
            v["trace.op_s"]
        );
        if let Input::Churn(_) = input {
            let pieces: f64 = perfbench::trace::PIECES.iter().map(|(_, s)| v[*s]).sum();
            assert!(pieces <= v["trace.op_s"] + 1e-9);
            assert!((pieces / v["trace.op_s"] - coverage).abs() < 1e-6);
            assert!(matches!(out, Output::Stream(_)));
        } else {
            assert!((families / v["trace.op_s"] - coverage).abs() < 1e-6);
        }
    }
}

#[test]
fn the_churn_stream_follows_run_churn_on() {
    let plan = Plan::new(Workload::ChurnAlg1, Size::Tiny, 9);
    let (input, _) = set_up(&plan).unwrap();
    let Output::Stream(end) = workload::run_op(&plan, input.operand()).unwrap() else {
        panic!("the churn workload streams");
    };
    let spec = plan.graph.with_churn(plan.churn.unwrap());
    let alg = mis_runner::incremental::from_name(plan.algorithm).unwrap();
    let reference = mis_runner::run_churn(alg, &spec, &plan.cfg).unwrap();
    assert_eq!(end.in_mis, reference.in_mis);
    let stats = reference.repair.unwrap();
    assert_eq!(end.energy.avg_awake, stats.awake_per_affected());
}
