//! Per-round observation of a run: the time-series counterpart of the
//! aggregate [`crate::Metrics`].
//!
//! A [`RoundObserver`] receives one [`RoundEvent`] per *busy* round
//! (rounds in which at least one node was awake), carrying that round's
//! awake-node count and message traffic. The stream is part of the
//! engine's determinism contract: for a fixed `(graph, protocol, seed,
//! salt)` the observed events are **identical across every thread
//! count** — a one-shard run (`threads` 0 or 1) streams them live at the
//! end of each round, while a run of `k ≥ 2` shards records per-shard
//! traces and replays the merged, order-identical stream when the run
//! completes. (On an error or panic a `k ≥ 2` run replays nothing; a
//! one-shard run has already streamed the rounds that completed.)
//!
//! [`RoundLog`] is the batteries-included observer: it collects the
//! events (grouped by pipeline phase when attached through
//! [`crate::Pipeline::observe`]) so callers get a ready-made time series
//! without writing an observer of their own.

use crate::Round;

/// Aggregate measurements of one busy round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundEvent {
    /// The round index (within the current run/phase, starting at 0).
    pub round: Round,
    /// Nodes awake in this round.
    pub awake: u64,
    /// Messages sent in this round (including ones lost to sleepers).
    pub messages_sent: u64,
    /// Messages delivered to awake receivers in this round.
    pub messages_delivered: u64,
    /// Messages destroyed by the channel model this round (loss drops,
    /// collision victims) — the per-round slice of
    /// [`crate::Metrics::messages_dropped`].
    pub messages_dropped: u64,
    /// Receiver-round collision events this round under
    /// [`crate::ChannelModel::RadioCollision`] — the per-round slice of
    /// [`crate::Metrics::collisions`].
    pub collisions: u64,
    /// Total bits across this round's sent messages.
    pub bits_sent: u64,
}

/// Receives the per-round event stream of a run.
///
/// Implementations are driven from the thread that owns the run (the
/// caller of [`crate::run_with`]), never from a worker thread, so no
/// `Sync` bound is required.
pub trait RoundObserver {
    /// Called once per busy round, in round order.
    fn on_round(&mut self, event: &RoundEvent);

    /// Called when a new named phase begins (only when the observer is
    /// attached to a [`crate::Pipeline`]; plain engine runs never call
    /// this). Defaults to a no-op.
    fn on_phase(&mut self, _name: &str) {}
}

/// The round events of one pipeline phase (or of a whole un-phased run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Phase name (`""` for events observed outside any named phase).
    pub name: String,
    /// Busy-round events of the phase, in round order.
    pub rounds: Vec<RoundEvent>,
}

/// A [`RoundObserver`] that collects the full event stream — or, in
/// capacity mode ([`RoundLog::with_capacity`]), a deterministically
/// downsampled one that stays bounded on million-round runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundLog {
    /// Traces in phase order; a log driven without phase marks holds one
    /// unnamed trace.
    pub phases: Vec<PhaseTrace>,
    /// Per-phase retention cap; `0` means unbounded (collect everything).
    capacity: usize,
    /// Current decimation stride of the active phase: an event is
    /// retained iff its per-phase stream index is a multiple of this.
    stride: u64,
    /// Events observed so far in the active phase (retained or not).
    seen: u64,
}

impl RoundLog {
    /// An empty log.
    pub fn new() -> RoundLog {
        RoundLog::default()
    }

    /// An empty log that retains at most `capacity` events per phase
    /// (`0` = unbounded, same as [`RoundLog::new`]).
    ///
    /// Retention is a stride-doubling decimation: the log starts keeping
    /// every event, and whenever a phase outgrows its cap it drops every
    /// other retained event and doubles the stride, so the survivors are
    /// always the events whose per-phase index is a multiple of the
    /// current power-of-two stride (index 0 — the phase's first busy
    /// round — always survives). The surviving set is a pure function of
    /// the event stream, so capacity-mode logs stay bit-identical across
    /// engines and thread counts just like full logs.
    pub fn with_capacity(capacity: usize) -> RoundLog {
        RoundLog {
            capacity,
            ..RoundLog::default()
        }
    }

    /// All collected events, across phases, in observation order.
    pub fn events(&self) -> impl Iterator<Item = &RoundEvent> {
        self.phases.iter().flat_map(|p| p.rounds.iter())
    }

    /// Total busy rounds observed.
    pub fn busy_rounds(&self) -> usize {
        self.phases.iter().map(|p| p.rounds.len()).sum()
    }

    /// The peak awake-node count over all observed rounds — the width of
    /// the awake time series.
    pub fn peak_awake(&self) -> u64 {
        self.events().map(|e| e.awake).max().unwrap_or(0)
    }
}

impl RoundObserver for RoundLog {
    fn on_round(&mut self, event: &RoundEvent) {
        if self.phases.is_empty() {
            self.phases.push(PhaseTrace::default());
        }
        let idx = self.seen;
        self.seen += 1;
        if self.capacity > 0 && idx % self.stride.max(1) != 0 {
            return; // decimated out at the current stride
        }
        let rounds = &mut self
            .phases
            .last_mut()
            .expect("just ensured non-empty")
            .rounds;
        rounds.push(event.clone());
        if self.capacity > 0 && rounds.len() > self.capacity {
            // Outgrew the cap: keep every other retained event (stream
            // indices that are multiples of the doubled stride) and
            // double the stride.
            let mut i = 0;
            rounds.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            self.stride = self.stride.max(1) * 2;
        }
    }

    fn on_phase(&mut self, name: &str) {
        self.phases.push(PhaseTrace {
            name: name.to_string(),
            rounds: Vec::new(),
        });
        self.stride = 1;
        self.seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_collects_in_order_and_groups_by_phase() {
        let mut log = RoundLog::new();
        let ev = |round, awake| RoundEvent {
            round,
            awake,
            messages_sent: 0,
            messages_delivered: 0,
            messages_dropped: 0,
            collisions: 0,
            bits_sent: 0,
        };
        log.on_round(&ev(0, 3)); // before any phase mark: unnamed trace
        log.on_phase("p1");
        log.on_round(&ev(0, 2));
        log.on_round(&ev(1, 5));
        assert_eq!(log.phases.len(), 2);
        assert_eq!(log.phases[0].name, "");
        assert_eq!(log.phases[1].name, "p1");
        assert_eq!(log.busy_rounds(), 3);
        assert_eq!(log.peak_awake(), 5);
        assert_eq!(
            log.events().map(|e| e.awake).collect::<Vec<_>>(),
            vec![3, 2, 5]
        );
    }

    #[test]
    fn empty_log_is_quiet() {
        let log = RoundLog::new();
        assert_eq!(log.busy_rounds(), 0);
        assert_eq!(log.peak_awake(), 0);
        assert_eq!(log.events().count(), 0);
    }

    fn ev(round: Round) -> RoundEvent {
        RoundEvent {
            round,
            awake: 1,
            messages_sent: 0,
            messages_delivered: 0,
            messages_dropped: 0,
            collisions: 0,
            bits_sent: 0,
        }
    }

    /// Pins exactly which rounds survive stride-doubling decimation:
    /// with capacity 4 and 10 events, the survivors are stream indices
    /// 0, 4, 8 (stride has doubled twice, to 4).
    #[test]
    fn with_capacity_pins_the_surviving_rounds() {
        let mut log = RoundLog::with_capacity(4);
        for r in 0..10 {
            log.on_round(&ev(r));
        }
        let got: Vec<Round> = log.events().map(|e| e.round).collect();
        assert_eq!(got, vec![0, 4, 8]);

        // The same stream through an unbounded log keeps everything.
        let mut full = RoundLog::new();
        for r in 0..10 {
            full.on_round(&ev(r));
        }
        assert_eq!(full.events().count(), 10);
    }

    /// Decimation state is per phase: each phase restarts at stride 1,
    /// and its first busy round always survives.
    #[test]
    fn with_capacity_resets_per_phase() {
        let mut log = RoundLog::with_capacity(2);
        log.on_phase("a");
        for r in 0..5 {
            log.on_round(&ev(r));
        }
        log.on_phase("b");
        for r in 0..3 {
            log.on_round(&ev(10 + r));
        }
        // Phase a: indices 0..5 at cap 2 → push 0,1; overflow at 1? No:
        // len 2 == cap keeps; idx2 push → len 3 > 2 → keep [0, 2],
        // stride 2; idx3 skip; idx4 push → len 3 > 2 → keep [0, 4],
        // stride 4.
        let a: Vec<Round> = log.phases[0].rounds.iter().map(|e| e.round).collect();
        assert_eq!(a, vec![0, 4]);
        // Phase b restarts: indices 0,1 retained, idx2 triggers one
        // compaction → [10, 12].
        let b: Vec<Round> = log.phases[1].rounds.iter().map(|e| e.round).collect();
        assert_eq!(b, vec![10, 12]);
        // Never exceeds capacity by more than the transient +1.
        assert!(log.phases.iter().all(|p| p.rounds.len() <= 3));
    }
}
