//! Clocks, order statistics, process counters and the result line.

use std::time::Instant;

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The median of `xs` (the mean of the middle two for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `a / b`, or `0.0` when `b` is not positive.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Kernel-kept counters of this process, from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    /// Page faults served without disk I/O (fresh or reclaimed pages).
    pub minor_faults: f64,
    /// CPU seconds in user mode.
    pub user_s: f64,
    /// CPU seconds in kernel mode.
    pub sys_s: f64,
}

/// `/proc` reports CPU times in `USER_HZ` ticks, which Linux fixes at
/// 100 per second on every architecture.
const USER_HZ: f64 = 100.0;

impl ProcStat {
    /// Reads this process's counters.
    ///
    /// # Errors
    ///
    /// Fails when `/proc/self/stat` is missing or malformed.
    pub fn read() -> Result<ProcStat, String> {
        let text = std::fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
        // Fields after the parenthesised command name, which may itself
        // hold spaces; `fields[0]` is field 3 (state) of proc(5).
        let rest = text.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| -> Result<f64, String> {
            fields
                .get(n - 3)
                .and_then(|s| s.parse::<u64>().ok())
                .map(|v| v as f64)
                .ok_or_else(|| format!("/proc/self/stat has no field {n}"))
        };
        Ok(ProcStat {
            minor_faults: field(10)?,
            user_s: field(14)? / USER_HZ,
            sys_s: field(15)? / USER_HZ,
        })
    }

    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            minor_faults: self.minor_faults - earlier.minor_faults,
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails when `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one benchmark run: how many operations were attempted,
/// how many failed their checks, and the metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations run, warm-up included.
    pub attempted: u64,
    /// Operations that returned an error, a set that is not an MIS, or
    /// deterministic metrics that differ from the first operation's.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result:
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Rust prints the shortest decimal that reads back to the
                // same f64, never an exponent; non-finite values are not
                // JSON and only arise from a bug, so they print as 0.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn proc_counters_read_and_grow() {
        let a = ProcStat::read().unwrap();
        let block = vec![1u8; 1 << 22];
        std::hint::black_box(&block);
        let d = ProcStat::read().unwrap().since(&a);
        assert!(d.minor_faults >= 0.0 && d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(peak_rss_mb().unwrap() > 1.0);
    }

    #[test]
    fn json_line_shape() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "op_s",
                unit: "s",
                value: 0.125,
            }],
        };
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"op_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
    }
}
