//! `perfbench` — runs one workload and prints its metrics as the last
//! line of standard output.
//!
//! ```text
//! perfbench --workload <dense-alg2|grid-alg1|churn-alg1> [--seed N]
//!           [--seconds S] [--trace 0|1] [--workload-seed N]
//!           [--size full|tiny] [--spans-dir DIR]
//! ```
//!
//! `--seed` only numbers the run. It does not change the input:
//! `--workload-seed` (default 1) seeds the graph, the algorithm and the
//! edit stream, so every run of a workload repeats the same simulation
//! and its deterministic metrics repeat exactly.

use perfbench::{Options, Size, Workload, DEFAULT_WORKLOAD_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <dense-alg2|grid-alg1|churn-alg1> [--seed N] \
                     [--seconds S] [--trace 0|1] [--workload-seed N] [--size full|tiny] [--spans-dir DIR]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::DenseAlg2,
        size: Size::Full,
        workload_seed: DEFAULT_WORKLOAD_SEED,
        seconds: 10.0,
        trace: false,
        spans_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => {
                value.parse::<u64>().map_err(|_| bad())?;
            }
            "--seconds" => {
                opts.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--workload-seed" => opts.workload_seed = value.parse().map_err(|_| bad())?,
            "--size" => {
                opts.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                };
            }
            "--spans-dir" => opts.spans_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&opts) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
