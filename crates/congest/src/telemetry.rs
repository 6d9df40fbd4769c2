//! Telemetry: deterministic engine probes, distribution summaries, and
//! export formats.
//!
//! The paper's headline claims are *distributions* — worst-case and
//! node-averaged awake complexity — so the aggregate [`crate::Metrics`]
//! view is not enough on its own. This module adds three layers:
//!
//! 1. **Probes** ([`EngineProbes`]): engine-internal counters (scheduler
//!    occupancy, overflow spills, wakeup dedups, fault injections, RNG
//!    derivations) that are pure functions of the run — bit-identical
//!    across every thread count, safe to fingerprint, and carried inside
//!    [`crate::Metrics`] so every existing equality test strengthens
//!    automatically.
//! 2. **Per-configuration stats** ([`EngineStats`]): quantities that
//!    legitimately depend on the engine configuration (shard count,
//!    cut-edge exchange volume, mailbox swaps, peak scheduler bucket).
//!    These are deterministic for a *fixed* thread count but vary across
//!    thread counts, so they are quarantined outside `Metrics` and never
//!    enter cross-engine fingerprints.
//! 3. **The assembled artifact** ([`Telemetry`]): named counter /
//!    histogram / timing sections built after a run, exportable as a
//!    Prometheus-style text snapshot ([`Telemetry::to_prometheus`]).
//!    Wall-clock timings live in their own section
//!    ([`Telemetry::timings_ns`]) which is, by contract, the *only*
//!    non-deterministic part of the artifact.
//!
//! The determinism contract, precisely: for any run, `counters` and
//! `histograms` are bit-identical across thread counts 0/1/2/4/8;
//! `engine` is bit-identical across repeats at one thread count; and
//! `timings_ns` carries no guarantee at all. Trace tooling that diffs
//! runs across engines must strip the last two sections — see
//! `trace_tool diff` in the bench crate.

/// Deterministic engine-internal probe counters, accumulated in both
/// the sequential and the sharded engine along identical code paths.
///
/// Lives inside [`crate::Metrics`] (as [`crate::Metrics::probes`]) so it
/// flows through phase accounting, pipeline absorption, and every
/// sequential-vs-parallel equality assertion for free. All fields are
/// pure functions of `(graph, protocol, SimConfig)` — independent of
/// thread count and shard layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProbes {
    /// Calendar-scheduler insertions: every `wake_at`/`wake_in` that
    /// reached [`crate::sched::BucketScheduler::schedule`], duplicates
    /// included.
    pub wakeups_scheduled: u64,
    /// Scheduler insertions that landed beyond the bucket ring and
    /// spilled to the sorted overflow heap (a window-sizing signal:
    /// nonzero means wakeups are being scheduled further ahead than the
    /// ring covers).
    pub sched_spills: u64,
    /// Wakeup entries drained but skipped because the node was already
    /// awake this round (a duplicate) or already halted.
    pub wakeups_deduped: u64,
    /// Nodes halted by an adversarial crash fault.
    pub crash_halts: u64,
    /// Scheduled wakeups consumed by an adversarial forced-sleep fault.
    pub forced_sleeps: u64,
    /// Node RNGs derived from `(seed, salt, node)`: one per node that
    /// draws in a run, at its first draw. Nodes that never draw cost
    /// none.
    pub rngs_derived: u64,
}

impl EngineProbes {
    /// Folds another probe set into this one (all fields are additive).
    pub fn absorb(&mut self, other: &EngineProbes) {
        self.wakeups_scheduled += other.wakeups_scheduled;
        self.sched_spills += other.sched_spills;
        self.wakeups_deduped += other.wakeups_deduped;
        self.crash_halts += other.crash_halts;
        self.forced_sleeps += other.forced_sleeps;
        self.rngs_derived += other.rngs_derived;
    }

    /// The probes as stable `(name, value)` pairs, in export order.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("wakeups_scheduled", self.wakeups_scheduled),
            ("sched_spills", self.sched_spills),
            ("wakeups_deduped", self.wakeups_deduped),
            ("crash_halts", self.crash_halts),
            ("forced_sleeps", self.forced_sleeps),
            ("rngs_derived", self.rngs_derived),
        ]
    }
}

/// Per-engine-configuration statistics: deterministic for a fixed
/// [`crate::SimConfig::threads`], but *not* invariant across thread
/// counts — so they live outside [`crate::Metrics`] and never enter
/// cross-engine fingerprints or the deterministic trace sections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Worker shards the run executed on (`0` = the sequential engine).
    pub shards: u64,
    /// Cross-shard messages staged through the pair-cell exchange
    /// (cut-edge traffic; always `0` on the sequential engine).
    pub cut_messages: u64,
    /// Buffer swaps posted to the exchange — **non-empty posts only**:
    /// a cut pair with nothing staged this round advances its sequence
    /// counter without posting (see `exchange_skipped_pairs`), so this
    /// counts actual payload hand-offs, not a fixed handshake volume.
    pub mailbox_posts: u64,
    /// Cut-pair rounds that skipped the exchange entirely because the
    /// pair had no pending payloads (the receiver saw a clear payload
    /// bit and never touched the cell's buffer).
    pub exchange_skipped_pairs: u64,
    /// Busy rounds in which *no* shard posted any cross-shard payload —
    /// the rounds the engine fast-paths past all exchange work.
    pub local_only_rounds: u64,
    /// Directed edge slots whose endpoints live on different shards
    /// under the run's partition; `cut_slots / directed_m` is the
    /// achieved cut fraction (recorded as the integer numerator so the
    /// stats stay float-free and fingerprintable per configuration).
    pub cut_slots: u64,
    /// Largest calendar-scheduler bucket observed at insertion time (a
    /// load signal for the ring; per-shard maximum under sharding).
    pub peak_bucket: u64,
}

impl EngineStats {
    /// Folds another stat set into this one: volumes add, peaks and
    /// structural maxima (shard count, cut slots) max.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.shards = self.shards.max(other.shards);
        self.cut_messages += other.cut_messages;
        self.mailbox_posts += other.mailbox_posts;
        self.exchange_skipped_pairs += other.exchange_skipped_pairs;
        self.local_only_rounds += other.local_only_rounds;
        self.cut_slots = self.cut_slots.max(other.cut_slots);
        self.peak_bucket = self.peak_bucket.max(other.peak_bucket);
    }

    /// The stats as stable `(name, value)` pairs, in export order.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("shards", self.shards),
            ("cut_messages", self.cut_messages),
            ("mailbox_posts", self.mailbox_posts),
            ("exchange_skipped_pairs", self.exchange_skipped_pairs),
            ("local_only_rounds", self.local_only_rounds),
            ("cut_slots", self.cut_slots),
            ("peak_bucket", self.peak_bucket),
        ]
    }
}

/// Percentile summary of a per-node distribution (awake rounds per node
/// — the paper's energy complexity as a distribution — or repair
/// affected-set sizes under churn).
///
/// Percentiles use the nearest-rank method on the sorted values, so the
/// summary is an exact pure function of the multiset: bit-identical
/// across engines whenever the underlying distribution is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyHistogram {
    /// Number of values summarized.
    pub count: u64,
    /// Smallest value.
    pub min: u64,
    /// 50th percentile (nearest-rank).
    pub p50: u64,
    /// 90th percentile (nearest-rank).
    pub p90: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Largest value.
    pub max: u64,
    /// Sum of all values.
    pub total: u64,
}

impl EnergyHistogram {
    /// Summarizes `values` (need not be sorted); all-zero on empty input.
    pub fn from_values(values: &[u64]) -> EnergyHistogram {
        if values.is_empty() {
            return EnergyHistogram::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        // Nearest rank: the ⌈q·count⌉-th smallest value (1-based).
        let rank = |q_num: u64, q_den: u64| {
            let n = sorted.len() as u64;
            let r = (n * q_num).div_ceil(q_den);
            sorted[(r.max(1) - 1) as usize]
        };
        EnergyHistogram {
            count: sorted.len() as u64,
            min: sorted[0],
            p50: rank(50, 100),
            p90: rank(90, 100),
            p99: rank(99, 100),
            max: *sorted.last().expect("non-empty"),
            total: sorted.iter().sum(),
        }
    }

    /// Mean value; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// The summary as stable `(field, value)` pairs, in export order.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("count", self.count),
            ("min", self.min),
            ("p50", self.p50),
            ("p90", self.p90),
            ("p99", self.p99),
            ("max", self.max),
            ("total", self.total),
        ]
    }
}

/// The assembled telemetry artifact of one run: named sections with an
/// explicit determinism contract per section (see the module docs).
///
/// Insertion order is preserved and meaningful: exporters emit sections
/// and entries in the order they were registered, so two runs that
/// register the same names in the same order produce byte-identical
/// deterministic sections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Deterministic counters: aggregate metrics, engine probes, repair
    /// tallies. Bit-identical across thread counts.
    pub counters: Vec<(String, u64)>,
    /// Per-configuration engine stats (shard count, cut traffic, …):
    /// deterministic per thread count, excluded from cross-engine diffs.
    pub engine: Vec<(String, u64)>,
    /// Wall-clock timings in nanoseconds. The only non-deterministic
    /// section; never enters fingerprints or trace diffs.
    pub timings_ns: Vec<(String, u64)>,
    /// Named distribution summaries (per-phase awake rounds, repair
    /// affected sets). Bit-identical across thread counts.
    pub histograms: Vec<(String, EnergyHistogram)>,
}

/// Version of the telemetry artifact and its JSONL trace encoding;
/// bumped on any backward-incompatible schema change.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

impl Telemetry {
    /// Fresh, empty artifact.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Registers a deterministic counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Registers a per-configuration engine stat.
    pub fn engine_stat(&mut self, name: impl Into<String>, value: u64) {
        self.engine.push((name.into(), value));
    }

    /// Registers a wall-clock timing (nanoseconds).
    pub fn timing_ns(&mut self, name: impl Into<String>, nanos: u64) {
        self.timings_ns.push((name.into(), nanos));
    }

    /// Registers a distribution summary.
    pub fn histogram(&mut self, name: impl Into<String>, h: EnergyHistogram) {
        self.histograms.push((name.into(), h));
    }

    /// Looks up a deterministic counter by name (first match).
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram by name (first match).
    pub fn get_histogram(&self, name: &str) -> Option<&EnergyHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Prometheus-style text exposition of the whole artifact, ready
    /// for a future `mis-serve` scrape endpoint. Metric names are
    /// sanitized (`.`/`-`/`:` → `_`) and prefixed `congest_`; histogram
    /// percentiles become `quantile`-labelled gauges.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE congest_{n} counter\n"));
            out.push_str(&format!("congest_{n} {v}\n"));
        }
        for (name, v) in &self.engine {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE congest_engine_{n} gauge\n"));
            out.push_str(&format!("congest_engine_{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE congest_{n} summary\n"));
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                out.push_str(&format!("congest_{n}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("congest_{n}_min {}\n", h.min));
            out.push_str(&format!("congest_{n}_max {}\n", h.max));
            out.push_str(&format!("congest_{n}_sum {}\n", h.total));
            out.push_str(&format!("congest_{n}_count {}\n", h.count));
        }
        for (name, v) in &self.timings_ns {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE congest_timing_{n}_ns gauge\n"));
            out.push_str(&format!("congest_timing_{n}_ns {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_absorb_is_fieldwise_addition() {
        let mut a = EngineProbes {
            wakeups_scheduled: 1,
            sched_spills: 2,
            wakeups_deduped: 3,
            crash_halts: 4,
            forced_sleeps: 5,
            rngs_derived: 6,
        };
        a.absorb(&a.clone());
        assert_eq!(a.wakeups_scheduled, 2);
        assert_eq!(a.sched_spills, 4);
        assert_eq!(a.wakeups_deduped, 6);
        assert_eq!(a.crash_halts, 8);
        assert_eq!(a.forced_sleeps, 10);
        assert_eq!(a.rngs_derived, 12);
        assert_eq!(a.counters().len(), 6);
    }

    #[test]
    fn stats_absorb_adds_volumes_and_maxes_peaks() {
        let mut a = EngineStats {
            shards: 2,
            cut_messages: 10,
            mailbox_posts: 4,
            exchange_skipped_pairs: 6,
            local_only_rounds: 3,
            cut_slots: 40,
            peak_bucket: 7,
        };
        a.absorb(&EngineStats {
            shards: 4,
            cut_messages: 5,
            mailbox_posts: 1,
            exchange_skipped_pairs: 2,
            local_only_rounds: 1,
            cut_slots: 12,
            peak_bucket: 3,
        });
        assert_eq!(a.shards, 4);
        assert_eq!(a.cut_messages, 15);
        assert_eq!(a.mailbox_posts, 5);
        assert_eq!(a.exchange_skipped_pairs, 8);
        assert_eq!(a.local_only_rounds, 4);
        assert_eq!(a.cut_slots, 40);
        assert_eq!(a.peak_bucket, 7);
        assert_eq!(a.counters().len(), 7);
    }

    #[test]
    fn histogram_nearest_rank_percentiles() {
        // 1..=100: pX is exactly X under nearest-rank.
        let values: Vec<u64> = (1..=100).collect();
        let h = EnergyHistogram::from_values(&values);
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1);
        assert_eq!(h.p50, 50);
        assert_eq!(h.p90, 90);
        assert_eq!(h.p99, 99);
        assert_eq!(h.max, 100);
        assert_eq!(h.total, 5050);
        assert_eq!(h.mean(), 50.5);

        // Order-independence: the summary is a function of the multiset.
        let mut shuffled = values.clone();
        shuffled.reverse();
        assert_eq!(EnergyHistogram::from_values(&shuffled), h);
    }

    #[test]
    fn histogram_small_and_empty_inputs() {
        assert_eq!(
            EnergyHistogram::from_values(&[]),
            EnergyHistogram::default()
        );
        let h = EnergyHistogram::from_values(&[7]);
        assert_eq!((h.min, h.p50, h.p99, h.max), (7, 7, 7, 7));
        let h = EnergyHistogram::from_values(&[3, 1]);
        assert_eq!((h.min, h.p50, h.p90, h.max), (1, 1, 3, 3));
    }

    #[test]
    fn prometheus_exposition_covers_every_section() {
        let mut t = Telemetry::new();
        t.counter("messages_sent", 42);
        t.engine_stat("shards", 2);
        t.histogram("awake_rounds", EnergyHistogram::from_values(&[1, 2, 3]));
        t.timing_ns("solve", 1234);
        let text = t.to_prometheus();
        assert!(text.contains("congest_messages_sent 42"));
        assert!(text.contains("congest_engine_shards 2"));
        assert!(text.contains("congest_awake_rounds{quantile=\"0.5\"} 2"));
        assert!(text.contains("congest_awake_rounds_count 3"));
        assert!(text.contains("congest_timing_solve_ns 1234"));
        assert_eq!(t.get_counter("messages_sent"), Some(42));
        assert!(t.get_histogram("awake_rounds").is_some());
        // Names with separators are sanitized for the exposition format.
        let mut t2 = Telemetry::new();
        t2.counter("repair.batch-0:affected", 1);
        assert!(t2
            .to_prometheus()
            .contains("congest_repair_batch_0_affected 1"));
    }
}
