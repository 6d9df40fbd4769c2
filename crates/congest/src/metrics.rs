//! Time and energy accounting.

use crate::telemetry::EngineProbes;

/// Measurements collected by the simulator during one protocol run, or
/// accumulated across phases by [`crate::Pipeline`].
///
/// The paper's two headline measures map to:
///
/// * **time complexity** → [`Metrics::elapsed_rounds`],
/// * **energy complexity** → [`Metrics::max_awake`] (worst case over
///   nodes) and [`Metrics::avg_awake`] (node-averaged, Section 4 of the
///   paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    /// Number of nodes the run was executed on.
    pub n: usize,
    /// Total rounds elapsed from the start of the algorithm until the last
    /// node terminated (the paper's time complexity), including rounds in
    /// which every node slept.
    pub elapsed_rounds: u64,
    /// Rounds in which at least one node was awake.
    pub busy_rounds: u64,
    /// Per-node count of awake rounds (the paper's energy).
    pub awake_rounds: Vec<u64>,
    /// Total messages sent (including messages lost to sleeping receivers).
    pub messages_sent: u64,
    /// Total messages actually delivered to awake receivers.
    pub messages_delivered: u64,
    /// Messages destroyed by the channel model en route to an *awake*
    /// receiver (loss drops, collision victims). Always 0 on the ideal
    /// channel; messages lost to sleeping receivers are not counted
    /// here (the sleeping model loses those on every channel). See
    /// [`crate::channel`].
    pub messages_dropped: u64,
    /// Receiver-round collision events under
    /// [`crate::ChannelModel::RadioCollision`]: the number of
    /// (receiver, round) pairs in which ≥ 2 in-neighbors transmitted
    /// simultaneously and the receiver heard nothing.
    pub collisions: u64,
    /// Total bits across all sent messages.
    pub bits_sent: u64,
    /// Largest single message observed, in bits.
    pub max_message_bits: usize,
    /// Number of messages exceeding the configured bandwidth (0 when a
    /// limit is enforced strictly or no limit was set).
    pub bandwidth_violations: u64,
    /// Deterministic engine-internal probe counters (scheduler traffic,
    /// wakeup dedups, fault injections, RNG derivations); like every
    /// other field, a pure function of the run, bit-identical across
    /// thread counts.
    pub probes: EngineProbes,
}

impl Metrics {
    /// Fresh all-zero metrics for `n` nodes.
    pub fn new(n: usize) -> Metrics {
        Metrics {
            n,
            elapsed_rounds: 0,
            busy_rounds: 0,
            awake_rounds: vec![0; n],
            messages_sent: 0,
            messages_delivered: 0,
            messages_dropped: 0,
            collisions: 0,
            bits_sent: 0,
            max_message_bits: 0,
            bandwidth_violations: 0,
            probes: EngineProbes::default(),
        }
    }

    /// Maximum awake rounds over all nodes — the paper's worst-case
    /// *energy complexity*.
    pub fn max_awake(&self) -> u64 {
        self.awake_rounds.iter().copied().max().unwrap_or(0)
    }

    /// Node-averaged awake rounds — the paper's *average energy* measure
    /// (Section 4).
    pub fn avg_awake(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total_awake() as f64 / self.n as f64
        }
    }

    /// Sum of awake rounds over all nodes.
    pub fn total_awake(&self) -> u64 {
        self.awake_rounds.iter().sum()
    }

    /// Accumulates a subsequent phase into `self`: rounds add up, per-node
    /// energy adds up, message counters add up.
    ///
    /// # Panics
    ///
    /// Panics if the phases ran on different node counts.
    pub fn absorb(&mut self, phase: &Metrics) {
        assert_eq!(self.n, phase.n, "metrics from different graphs");
        self.elapsed_rounds += phase.elapsed_rounds;
        self.busy_rounds += phase.busy_rounds;
        for (a, b) in self.awake_rounds.iter_mut().zip(&phase.awake_rounds) {
            *a += b;
        }
        self.messages_sent += phase.messages_sent;
        self.messages_delivered += phase.messages_delivered;
        self.messages_dropped += phase.messages_dropped;
        self.collisions += phase.collisions;
        self.bits_sent += phase.bits_sent;
        self.max_message_bits = self.max_message_bits.max(phase.max_message_bits);
        self.bandwidth_violations += phase.bandwidth_violations;
        self.probes.absorb(&phase.probes);
    }

    /// Folds one node's batched send-half accounting into the totals —
    /// the engine calls this once per awake node per round instead of
    /// bumping counters per message (see `SendTally` in the engine).
    pub(crate) fn commit_send(&mut self, t: crate::engine::SendTally) {
        self.messages_sent += t.sent;
        self.messages_delivered += t.delivered;
        self.messages_dropped += t.dropped;
        self.bits_sent += t.bits;
        self.max_message_bits = self.max_message_bits.max(t.max_bits);
        self.bandwidth_violations += t.violations;
    }

    /// Histogram of awake-round counts: `hist[b]` = number of nodes awake
    /// for exactly `b` rounds, up to `max_awake`. Useful for seeing the
    /// paper's energy story at a glance: almost all mass at tiny values,
    /// a thin tail at the worst case.
    pub fn awake_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_awake() as usize + 1];
        for &a in &self.awake_rounds {
            hist[a as usize] += 1;
        }
        hist
    }

    /// Condensed numbers for tables and logs.
    pub fn summary(&self) -> EnergySummary {
        EnergySummary {
            n: self.n,
            rounds: self.elapsed_rounds,
            max_awake: self.max_awake(),
            avg_awake: self.avg_awake(),
            messages: self.messages_sent,
            max_message_bits: self.max_message_bits,
        }
    }
}

/// Condensed view of a [`Metrics`]; what experiment tables print.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySummary {
    /// Number of nodes.
    pub n: usize,
    /// Time complexity measured in rounds.
    pub rounds: u64,
    /// Worst-case energy (max awake rounds over nodes).
    pub max_awake: u64,
    /// Node-averaged energy.
    pub avg_awake: f64,
    /// Messages sent.
    pub messages: u64,
    /// Largest message in bits.
    pub max_message_bits: usize,
}

impl std::fmt::Display for EnergySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} rounds={} max_awake={} avg_awake={:.3} msgs={} max_bits={}",
            self.n,
            self.rounds,
            self.max_awake,
            self.avg_awake,
            self.messages,
            self.max_message_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_metrics() {
        let m = Metrics::new(3);
        assert_eq!(m.max_awake(), 0);
        assert_eq!(m.avg_awake(), 0.0);
        assert_eq!(m.total_awake(), 0);
    }

    #[test]
    fn empty_graph_metrics() {
        let m = Metrics::new(0);
        assert_eq!(m.avg_awake(), 0.0);
        assert_eq!(m.max_awake(), 0);
    }

    #[test]
    fn absorb_adds_up() {
        let mut a = Metrics::new(2);
        a.elapsed_rounds = 10;
        a.awake_rounds = vec![3, 1];
        a.messages_sent = 5;
        a.max_message_bits = 8;

        let mut b = Metrics::new(2);
        b.elapsed_rounds = 4;
        b.awake_rounds = vec![0, 2];
        b.messages_sent = 1;
        b.max_message_bits = 3;

        a.absorb(&b);
        assert_eq!(a.elapsed_rounds, 14);
        assert_eq!(a.awake_rounds, vec![3, 3]);
        assert_eq!(a.messages_sent, 6);
        assert_eq!(a.max_message_bits, 8);
        assert_eq!(a.max_awake(), 3);
        assert!((a.avg_awake() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different graphs")]
    fn absorb_rejects_mismatched_n() {
        Metrics::new(2).absorb(&Metrics::new(3));
    }

    #[test]
    fn histogram_counts_nodes_per_energy_level() {
        let mut m = Metrics::new(5);
        m.awake_rounds = vec![0, 2, 2, 1, 4];
        assert_eq!(m.awake_histogram(), vec![1, 1, 2, 0, 1]);
    }

    #[test]
    fn summary_display() {
        let mut m = Metrics::new(4);
        m.elapsed_rounds = 7;
        m.awake_rounds = vec![1, 2, 3, 4];
        let s = m.summary();
        assert_eq!(s.rounds, 7);
        assert_eq!(s.max_awake, 4);
        let text = format!("{s}");
        assert!(text.contains("rounds=7"));
        assert!(text.contains("max_awake=4"));
    }
}
