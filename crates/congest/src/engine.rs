//! The round-by-round simulation engine: the protocol API and the two
//! entry points, [`run`] and [`run_with`].
//!
//! # One loop at every thread count
//!
//! A run splits the graph into `k = max(threads, 1)` contiguous shards
//! (see [`SimConfig::threads`]) and executes one round loop per shard.
//! At `k = 1` the one shard is the whole graph and the loop runs on the
//! calling thread with nothing else around it: that is the sequential
//! engine. At `k ≥ 2` each shard runs the same loop on its own worker,
//! and the shards meet once per round at a rendezvous and trade
//! cross-shard payloads through per-pair cells. Both produce
//! bit-identical results, so the thread count is a pure performance knob.
//!
//! # Hot-loop architecture
//!
//! The engine is built around two data structures chosen so that the
//! steady-state round loop performs **no sorting, no searching, and no
//! heap allocation**:
//!
//! * a bucketed calendar queue ([`crate::sched`]) replaces an ordered
//!   map as the wakeup queue — popping the next busy round is an O(1)
//!   amortized bitmap scan, and duplicate wakeups are filtered with a
//!   per-round stamp instead of `sort + dedup`;
//! * messages are delivered through **per-directed-edge claim words**
//!   (indexed by [`mis_graphs::EdgeId`]) instead of a global outbox —
//!   a send addressed by neighbor rank is an O(1) write through the
//!   precomputed reverse-edge table, duplicate-destination detection is
//!   an O(1) tick compare, and a receiver reads its claim range already
//!   in ascending sender order.
//!
//! A claim word is one `u64`: the 32-bit tick of the round that claimed
//! the edge, and the index of the payload in that round's arena (a
//! `Vec<Msg>` the send pushes to). A reserved index marks a claim without
//! a payload: the receiver slept, or the channel destroyed the delivery
//! (loss drop, collision wipe). Ticks only grow, so stale words never
//! need wiping.
//!
//! Claim words carry no message type, so one [`EngineScratch`] serves
//! every phase of a [`crate::Pipeline`], whatever each phase's
//! [`Protocol::Msg`]: a solve sizes the claim array once, not once per
//! phase. The array is allocated zeroed, so pages that no send touches
//! are never faulted in, and a run that wakes no node costs O(n), not
//! O(m).
//!
//! Delivery is **zero-copy**: a payload is never cloned after its send
//! (a broadcast stores one copy that all of its receivers share), and
//! [`Protocol::recv`] receives a borrowed [`Inbox`] view that iterates
//! `(sender, &msg)` straight out of the arena, filtered by the claim
//! words. Per-node hot flags (awake / halted) are packed into `u64`
//! bitset words ([`crate::bits::NodeBits`]), and CONGEST message/bit
//! accounting is tallied locally per node and committed to the
//! [`Metrics`] once per send half, not once per message.
//!
//! All reusable buffers live in an [`EngineScratch`], allocated once per
//! run, or once across many runs via [`run_with`] (which is how a
//! [`crate::Pipeline`] shares one scratch across its phases). The arena
//! is per run and reused round over round.
//!
//! # What a run's entry costs
//!
//! A run calls [`Protocol::init`] once per node, and that is the only
//! per-node work before round 0. A node's RNG is a pure function of
//! `(seed, salt, node)` ([`crate::rng::derive`]), so the engine derives
//! it at the node's first draw — the first `rng()` call of its `init`,
//! `send` or `recv` — into a reusable slot guarded by a per-run bitset.
//! A run whose nodes mostly sleep, like the Phase III tail on a shattered
//! graph, therefore pays O(n) `init` calls plus one derivation per node
//! that draws, counted by [`crate::EngineProbes::rngs_derived`].

use crate::bits::NodeBits;
use crate::channel::{ChannelModel, FaultPlan};
use crate::error::SimError;
use crate::message::Message;
use crate::metrics::Metrics;
use crate::observer::RoundObserver;
use crate::par::partition::ShardPlan;
use crate::par::shard::{run_shard, Events, NodeRngs, ShardScratch};
use crate::telemetry::EngineStats;
use crate::{NodeId, Round};
use mis_graphs::{EdgeId, Graph};
use rand::rngs::SmallRng;

/// A distributed protocol in the sleeping CONGEST model.
///
/// The engine drives each awake node through a *send* half and a *receive*
/// half per round, mirroring one synchronous CONGEST round: messages sent
/// at the start of a round are delivered by its end. Sleeping nodes are
/// never called.
///
/// Implementations hold the protocol *parameters* (and any read-only input
/// from earlier phases); all per-node mutable data lives in
/// [`Protocol::State`].
pub trait Protocol {
    /// Per-node mutable state.
    type State;
    /// Message payload type.
    type Msg: Message;

    /// Called once per node before round 0. This models the paper's free
    /// local pre-computation ("each node can find its round r_v before the
    /// algorithm even starts"): it costs no energy. Wakeups requested here
    /// determine when the node first participates; a node that requests
    /// nothing sleeps through the whole run.
    fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> Self::State;

    /// Send half of an awake round: inspect state, optionally transmit.
    fn send(&self, state: &mut Self::State, api: &mut SendApi<'_, Self::Msg>);

    /// Receive half of an awake round: `inbox` is a borrowed view over
    /// the messages sent to this node in this round by awake neighbors,
    /// iterated in ascending sender order directly from the round's
    /// payload arena (no payload is copied). Future wakeups and halting
    /// are requested here.
    fn recv(&self, state: &mut Self::State, inbox: Inbox<'_, Self::Msg>, api: &mut RecvApi<'_>);
}

/// Borrowed view of one node's inbox for the current round.
///
/// The engine hands this to [`Protocol::recv`] instead of a materialized
/// `&[(NodeId, Msg)]` slice: iteration walks the node's contiguous
/// in-edge claim range, yields `(sender, &msg)` for every word claimed
/// this round with a payload, and skips the rest — ascending sender
/// order falls out of the CSR layout for free. The payload stays in the
/// round's arena; it is never cloned after its send.
///
/// The view is `Copy`, so it can be passed around freely inside `recv`.
/// [`Inbox::count`] and [`Inbox::is_empty`] scan the claim range (cost
/// `O(degree)`, like one iteration); protocols that need the count *and*
/// the items should iterate once instead of calling both.
pub struct Inbox<'a, M> {
    /// The receiver's in-edge claim words, `claims[k]` paired with
    /// `senders[k]`.
    claims: &'a [u64],
    /// The round's payloads, indexed by the claim words.
    arena: &'a [M],
    /// The receiver's sorted neighbor list (word `k` ⇔ `senders[k]`).
    senders: &'a [NodeId],
    /// Tick of the current round.
    tick: u32,
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<M: std::fmt::Debug> std::fmt::Debug for Inbox<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, M> Inbox<'a, M> {
    /// Assembles a view over one node's claim range (engine internal).
    pub(crate) fn new(
        claims: &'a [u64],
        arena: &'a [M],
        senders: &'a [NodeId],
        tick: u32,
    ) -> Inbox<'a, M> {
        debug_assert_eq!(claims.len(), senders.len());
        Inbox {
            claims,
            arena,
            senders,
            tick,
        }
    }

    /// Iterates `(sender, &msg)` in ascending sender order.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inner: self.claims.iter().zip(self.senders.iter()),
            arena: self.arena,
            tick: self.tick,
        }
    }

    /// Whether no message arrived this round (`O(degree)` scan, stopping
    /// at the first hit).
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Number of messages delivered this round (`O(degree)` scan).
    pub fn count(&self) -> usize {
        self.claims
            .iter()
            .filter(|&&w| payload_index(w, self.tick).is_some())
            .count()
    }

    /// The first (lowest-sender) message, if any.
    pub fn first(&self) -> Option<(NodeId, &'a M)> {
        self.iter().next()
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

impl<'a, M> IntoIterator for &Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`]: filters the claim range by the round tick.
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    inner: std::iter::Zip<std::slice::Iter<'a, u64>, std::slice::Iter<'a, NodeId>>,
    arena: &'a [M],
    tick: u32,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (NodeId, &'a M);

    fn next(&mut self) -> Option<(NodeId, &'a M)> {
        for (&word, &src) in self.inner.by_ref() {
            if let Some(i) = payload_index(word, self.tick) {
                return Some((src, &self.arena[i]));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.inner.size_hint().1)
    }
}

/// Low half of a claim word that marks a claim without a payload: the
/// receiver slept at send time, or the channel destroyed the delivery
/// (loss drop, collision wipe).
const NO_PAYLOAD: u32 = u32::MAX;

/// The claim word of an edge claimed in the round with tick `tick`,
/// carrying arena index `index` (or [`NO_PAYLOAD`]).
#[inline]
pub(crate) fn claim_word(tick: u32, index: u32) -> u64 {
    (u64::from(tick) << 32) | u64::from(index)
}

/// Whether `word` was claimed in the round with tick `tick`.
#[inline]
fn claimed(word: u64, tick: u32) -> bool {
    (word >> 32) as u32 == tick
}

/// The arena index `word` carries if it was claimed in the round with
/// tick `tick` and holds a payload. One subtract and one compare: the
/// difference is below [`NO_PAYLOAD`] only when the high half equals
/// the tick and the low half is a real index.
#[inline]
fn payload_index(word: u64, tick: u32) -> Option<usize> {
    let index = word.wrapping_sub(u64::from(tick) << 32);
    (index < u64::from(NO_PAYLOAD)).then_some(index as usize)
}

/// Grows a claim array to cover `edges` edges. Growth allocates a fresh
/// zeroed array, which the allocator maps lazily, so pages that no send
/// touches are never faulted in; a longer array is kept as it is, since
/// its stale words carry older ticks. Tick 0 is never a round's tick, so
/// a zero word is never claimed.
///
/// # Panics
///
/// Panics if `edges` does not fit a claim word's 32-bit payload index.
pub(crate) fn fit_claims(claims: &mut Vec<u64>, edges: usize) {
    assert!(
        edges < NO_PAYLOAD as usize,
        "{edges} directed edges overflow a claim word's payload index"
    );
    if claims.len() < edges {
        *claims = vec![0; edges];
    }
}

/// Advances a scratch's round tick. On 32-bit wrap-around, `zero` wipes
/// the scratch's claim and stamp arrays and the tick restarts at 1, so no
/// word written before the wrap can match a later tick.
#[inline]
pub(crate) fn next_tick(tick: &mut u32, zero: impl FnOnce()) -> u32 {
    *tick = tick.wrapping_add(1);
    if *tick == 0 {
        zero();
        *tick = 1;
    }
    *tick
}

/// The radio-collision rule for one awake receiver's claim range: when
/// two or more payloads arrived this round, all of them are lost. Wipes
/// them (the claims stay, without payload) and moves them from
/// delivered to dropped in `metrics`, which must be the metrics that
/// counted their delivery.
pub(crate) fn wipe_collision(claims: &mut [u64], tick: u32, metrics: &mut Metrics) {
    let hits = claims
        .iter()
        .filter(|&&w| payload_index(w, tick).is_some())
        .count() as u64;
    if hits < 2 {
        return;
    }
    for w in claims.iter_mut().filter(|w| claimed(**w, tick)) {
        *w = claim_word(tick, NO_PAYLOAD);
    }
    metrics.messages_delivered -= hits;
    metrics.messages_dropped += hits;
    metrics.collisions += 1;
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Master seed; combined with `salt` and the node id for per-node RNGs.
    pub seed: u64,
    /// Phase salt, so consecutive phases draw independent randomness.
    pub salt: u64,
    /// Abort threshold for runaway protocols.
    pub max_rounds: u64,
    /// Optional bandwidth limit in bits per message. `Some(b)` with
    /// [`SimConfig::strict_bandwidth`] returns an error on violation;
    /// otherwise violations are only counted.
    pub bandwidth_bits: Option<usize>,
    /// Whether a bandwidth violation aborts the run.
    pub strict_bandwidth: bool,
    /// Shards to split each run into, one worker thread each: `0` (the
    /// default) and `1` run one shard on the calling thread — the
    /// sequential engine — and `k ≥ 2` runs `k` shards in parallel.
    /// Results are bit-identical for every value; only
    /// [`SimResult::stats`] names the configuration.
    pub threads: usize,
    /// The channel model faults are drawn from ([`ChannelModel::Ideal`]
    /// by default — the clean network, zero-cost). Fault decisions are
    /// pure in `(seed, salt, round, edge_id)`, so every channel keeps
    /// the bit-identical cross-engine contract; see [`crate::channel`].
    pub channel: ChannelModel,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            seed: 0,
            salt: 0,
            max_rounds: 50_000_000,
            bandwidth_bits: None,
            strict_bandwidth: false,
            threads: 0,
            channel: ChannelModel::Ideal,
        }
    }
}

impl SimConfig {
    /// Config with the given seed and defaults elsewhere.
    pub fn seeded(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Returns a copy with the given phase salt.
    #[must_use]
    pub fn with_salt(&self, salt: u64) -> SimConfig {
        SimConfig {
            salt,
            ..self.clone()
        }
    }

    /// Returns a copy with the given worker count ([`SimConfig::threads`]).
    /// Results are bit-identical for every value.
    #[must_use]
    pub fn with_threads(&self, threads: usize) -> SimConfig {
        SimConfig {
            threads,
            ..self.clone()
        }
    }

    /// Returns a copy running under the given [`ChannelModel`].
    #[must_use]
    pub fn with_channel(&self, channel: ChannelModel) -> SimConfig {
        SimConfig {
            channel,
            ..self.clone()
        }
    }

    /// Checks the configuration before a run: [`run_with`] calls this at
    /// entry, so an invalid config is rejected with a descriptive error
    /// instead of producing a degenerate simulation.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] when `bandwidth_bits` is `Some(0)` (no
    /// message can ever fit; use `None` for "unlimited") or when the
    /// channel model's parameters are out of range
    /// ([`ChannelModel::validate`]).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.bandwidth_bits == Some(0) {
            return Err(SimError::invalid_input(
                "\"bandwidth_bits=0\" admits no message; use None for unlimited",
            ));
        }
        self.channel.validate()
    }

    /// Parses the conventional `--threads N` / `--threads=N` flag from
    /// this process's arguments (the value for [`SimConfig::threads`]):
    /// `0` or `1` runs one shard on the calling thread, `N >= 2` runs `N`
    /// worker shards; `default` when the flag is absent. One
    /// shared parser so every example and binary exposes identical
    /// semantics.
    ///
    /// # Panics
    ///
    /// Panics if the flag is present without a parseable value.
    pub fn threads_from_args(default: usize) -> usize {
        let args: Vec<String> = std::env::args().collect();
        SimConfig::threads_from(&args, default)
    }

    /// [`SimConfig::threads_from_args`] over an explicit argument slice
    /// (what the process-arg variant and the `experiments` binary share).
    /// Accepts both the space-separated (`--threads 4`) and the equals
    /// (`--threads=4`) form.
    ///
    /// # Panics
    ///
    /// Panics if the flag is present without a parseable value.
    pub fn threads_from(args: &[String], default: usize) -> usize {
        for (i, a) in args.iter().enumerate() {
            if a == "--threads" {
                return args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .expect("--threads requires an integer value");
            }
            if let Some(v) = a.strip_prefix("--threads=") {
                return v.parse().expect("--threads requires an integer value");
            }
        }
        default
    }

    /// The standard CONGEST bandwidth for an `n`-node graph:
    /// `c * ceil(log2 n)` bits (at least 32).
    pub fn congest_bandwidth(n: usize, c: usize) -> usize {
        let logn = (n.max(2) as f64).log2().ceil() as usize;
        (c * logn).max(32)
    }
}

/// Outcome of a run: final per-node states plus metrics.
#[derive(Debug)]
pub struct SimResult<S> {
    /// Final state of every node, indexed by node id.
    pub states: Vec<S>,
    /// Time/energy/message accounting for the run. Bit-identical across
    /// thread counts (including the embedded [`Metrics::probes`]).
    pub metrics: Metrics,
    /// Per-engine-configuration statistics (shard count, cut-edge
    /// traffic, scheduler peaks): deterministic for a fixed
    /// [`SimConfig::threads`] but *not* invariant across thread counts,
    /// so they are carried outside [`Metrics`] and excluded from
    /// cross-engine fingerprints.
    pub stats: crate::telemetry::EngineStats,
}

/// API available during [`Protocol::init`].
#[derive(Debug)]
pub struct InitApi<'a> {
    node: NodeId,
    graph: &'a Graph,
    rngs: &'a mut NodeRngs,
    wakes: &'a mut Vec<Round>,
}

impl<'a> InitApi<'a> {
    /// Assembles an init API (engine internal).
    pub(crate) fn new(
        node: NodeId,
        graph: &'a Graph,
        rngs: &'a mut NodeRngs,
        wakes: &'a mut Vec<Round>,
    ) -> InitApi<'a> {
        InitApi {
            node,
            graph,
            rngs,
            wakes,
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// This node's sorted neighbor list.
    pub fn neighbors(&self) -> &[NodeId] {
        self.graph.neighbors(self.node)
    }

    /// The rank of `u` in this node's neighbor list, if adjacent. Useful
    /// to precompute a rank once here and use the O(1)
    /// [`SendApi::send_to_rank`] fast path in every later round.
    pub fn neighbor_rank(&self, u: NodeId) -> Option<usize> {
        self.graph.neighbor_rank(self.node, u)
    }

    /// The node's deterministic RNG, derived from `(seed, salt, node)`
    /// on the node's first draw of the run.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rngs.get(self.node)
    }

    /// Schedules this node to be awake in `round`.
    pub fn wake_at(&mut self, round: Round) {
        self.wakes.push(round);
    }

    /// Schedules this node to be awake in every round of `rounds`.
    ///
    /// Debug builds reject an empty range: a protocol asking for zero
    /// awake rounds is almost always a bug silently disabling the node.
    pub fn wake_range(&mut self, rounds: std::ops::Range<Round>) {
        debug_assert!(
            rounds.start < rounds.end,
            "node {} requested empty wake_range {rounds:?} (silent no-op)",
            self.node
        );
        if rounds.start >= rounds.end {
            return;
        }
        self.wakes.reserve((rounds.end - rounds.start) as usize);
        for r in rounds {
            self.wakes.push(r);
        }
    }
}

/// Where a send's payload lands: the delivery backend behind a
/// [`SendApi`].
///
/// Every shard delivers the same way, into claim words over a contiguous
/// range of receiver-side edge ids plus the round's payload arena. A
/// lone shard owns every word; a shard of a `k ≥ 2` run owns only the
/// words of its own nodes and routes payloads for other shards' nodes
/// through [`CrossShard`].
#[derive(Debug)]
pub(crate) struct Sink<'a, M> {
    /// Claim words of the edges this sink owns, indexed by the
    /// *receiver-side* [`mis_graphs::EdgeId`] (the edge `dst → src`)
    /// minus `slot_base`. A word claimed this round doubles as the
    /// duplicate-destination filter.
    pub(crate) claims: &'a mut [u64],
    /// This round's payloads; a claim word's low half indexes it.
    pub(crate) arena: &'a mut Vec<M>,
    /// Bit `v - node_base` marks receiver `v` awake this round; payloads
    /// for sleeping receivers are dropped at send time (the model loses
    /// them anyway).
    pub(crate) awake: &'a NodeBits,
    /// First node whose claim words this sink owns.
    pub(crate) node_base: NodeId,
    /// One past the last node whose claim words this sink owns.
    pub(crate) node_end: NodeId,
    /// First edge id this sink owns.
    pub(crate) slot_base: EdgeId,
    /// Routing for receivers outside `node_base..node_end`; `None` for a
    /// lone shard, where every receiver is local.
    pub(crate) cross: Option<CrossShard<'a, M>>,
}

/// How a shard of a `k ≥ 2` run routes payloads to other shards' nodes;
/// see [`Sink::cross`].
#[derive(Debug)]
pub(crate) struct CrossShard<'a, M> {
    /// Duplicate-destination stamps over this shard's *outgoing* edges
    /// (index `EdgeId - slot_base`), holding the tick of the round each
    /// edge last carried a cross-shard send. The receiver-side claim word
    /// cannot be used here because it lives on another shard.
    pub(crate) out_stamp: &'a mut [u32],
    /// Slot boundaries of all shards (`k + 1` entries), for O(log k)
    /// destination-shard classification of cross-shard payloads.
    pub(crate) slot_starts: &'a [EdgeId],
    /// Destination shard → staging-buffer index (`k` entries,
    /// [`crate::par::partition::NO_PAIR`] where this shard shares no cut
    /// edges with the destination — unreachable from a real send, since
    /// a cross-shard payload *is* a cut edge).
    pub(crate) pair_local: &'a [u32],
    /// Cross-shard staging buffers, one per *cut* destination pair
    /// (indexed through `pair_local`); entry `(rid, dst, msg)` is the
    /// receiver-side edge (and its owning node) the destination shard
    /// claims on this shard's behalf during the exchange step.
    pub(crate) out: &'a mut [Vec<crate::par::exchange::Staged<M>>],
}

/// Resolved placement of one payload; computed by [`SendApi::claim`].
enum Place {
    /// Deliver locally: the claim word at this (sink-local) index gets
    /// the payload's arena index.
    Slot(usize),
    /// Stage for the exchange step: `(staging-buffer index, receiver
    /// edge, destination node)` — the buffer index is the sender
    /// shard's *local cut-pair* rank of the destination shard, not the
    /// shard id; the destination rides along so the receiving shard's
    /// apply loop needs no graph lookups.
    Stage(usize, EdgeId, NodeId),
    /// Receiver is asleep: the payload is dropped (but still counted).
    Lost,
    /// The channel destroyed the delivery (receiver awake, payload
    /// never arrives); tallied as `messages_dropped`.
    Dropped,
}

/// Per-node, per-round CONGEST accounting, tallied locally during one
/// node's send half and committed to the [`Metrics`] in one batch after
/// the protocol returns ([`Metrics::commit_send`]) — the round loop never
/// updates global counters per message.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SendTally {
    /// Messages sent (including those lost to sleeping receivers).
    pub(crate) sent: u64,
    /// Messages stored for an awake receiver on this sink. Cross-shard
    /// stages are *not* counted here; the owning shard counts them when
    /// it applies the exchange (it alone knows the receiver's state).
    pub(crate) delivered: u64,
    /// Bits across all sent messages.
    pub(crate) bits: u64,
    /// Largest single message, in bits.
    pub(crate) max_bits: usize,
    /// Messages exceeding the (non-strict) bandwidth limit.
    pub(crate) violations: u64,
    /// Messages the channel destroyed en route to an awake receiver
    /// (loss drops decided at claim time). Collision wipes are tallied
    /// at the receiver pass, not here.
    pub(crate) dropped: u64,
}

/// API available during [`Protocol::send`].
#[derive(Debug)]
pub struct SendApi<'a, M: Message> {
    node: NodeId,
    round: Round,
    graph: &'a Graph,
    rngs: &'a mut NodeRngs,
    /// Tick of the current round; an edge whose claim word carries it
    /// was already sent on this round.
    tick: u32,
    sink: Sink<'a, M>,
    /// Every node is awake this round: skip the per-message receiver
    /// check entirely (the dense-workload fast path).
    all_awake: bool,
    /// The run's channel fault plan; `Ideal` on the clean network.
    faults: FaultPlan<'a>,
    /// Local accounting, committed once when the send half ends.
    tally: SendTally,
    bandwidth_bits: Option<usize>,
    strict_bandwidth: bool,
    /// First CONGEST violation observed during this node's send half;
    /// checked by the engine after the protocol returns.
    error: &'a mut Option<SimError>,
}

impl<'a, M: Message> SendApi<'a, M> {
    /// Assembles a send API over the given delivery sink (engine
    /// internal; the round loop constructs one per awake node per
    /// round).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: NodeId,
        round: Round,
        graph: &'a Graph,
        rngs: &'a mut NodeRngs,
        tick: u32,
        sink: Sink<'a, M>,
        all_awake: bool,
        faults: FaultPlan<'a>,
        cfg: &SimConfig,
        error: &'a mut Option<SimError>,
    ) -> SendApi<'a, M> {
        SendApi {
            node,
            round,
            graph,
            rngs,
            tick,
            sink,
            all_awake,
            faults,
            tally: SendTally::default(),
            bandwidth_bits: cfg.bandwidth_bits,
            strict_bandwidth: cfg.strict_bandwidth,
            error,
        }
    }

    /// Consumes the API, returning this node's batched round accounting
    /// (engine internal; committed via [`Metrics::commit_send`]).
    pub(crate) fn into_tally(self) -> SendTally {
        self.tally
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of nodes in the graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// This node's sorted neighbor list.
    pub fn neighbors(&self) -> &[NodeId] {
        self.graph.neighbors(self.node)
    }

    /// The rank of `u` in this node's neighbor list, if adjacent.
    pub fn neighbor_rank(&self, u: NodeId) -> Option<usize> {
        self.graph.neighbor_rank(self.node, u)
    }

    /// The node's deterministic RNG, derived from `(seed, salt, node)`
    /// on the node's first draw of the run.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rngs.get(self.node)
    }

    /// Sends `msg` to the neighbor at position `rank` of this node's
    /// sorted neighbor list (delivered at the end of this round if that
    /// neighbor is awake, silently lost otherwise).
    ///
    /// This is the engine's O(1) fast path: the destination's claim
    /// word is found through the precomputed reverse-edge table, with no
    /// neighbor search. Protocols that already iterate their adjacency
    /// list (or that precompute a rank via [`InitApi::neighbor_rank`])
    /// should prefer it over the id-addressed [`SendApi::send`].
    ///
    /// # Panics
    ///
    /// Panics if `rank >= degree()` (debug builds panic with a rank
    /// message; release builds via index bounds).
    pub fn send_to_rank(&mut self, rank: usize, msg: M) {
        if self.error.is_some() {
            return; // a violation already aborts this round
        }
        let eid = self.graph.edge_id(self.node, rank);
        let Some(place) = self.claim(eid) else {
            return; // duplicate destination recorded
        };
        let bits = msg.bits();
        self.tally.sent += 1;
        self.tally.bits += bits as u64;
        self.tally.max_bits = self.tally.max_bits.max(bits);
        if let Some(limit) = self.bandwidth_bits {
            if bits > limit {
                if self.strict_bandwidth {
                    *self.error = Some(SimError::BandwidthExceeded {
                        node: self.node,
                        round: self.round,
                        bits,
                        limit,
                    });
                    return;
                }
                self.tally.violations += 1;
            }
        }
        self.place(place, msg);
    }

    /// Sends `msg` to neighbor `dst` (delivered at the end of this round
    /// if `dst` is awake, silently lost otherwise).
    ///
    /// Id-addressed legacy path: costs a binary search over the neighbor
    /// list to validate adjacency and resolve the rank. Hot protocols
    /// should address by rank ([`SendApi::send_to_rank`]) instead.
    pub fn send(&mut self, dst: NodeId, msg: M) {
        match self.graph.neighbor_rank(self.node, dst) {
            Some(rank) => self.send_to_rank(rank, msg),
            None => {
                if self.error.is_none() {
                    *self.error = Some(SimError::NotANeighbor {
                        src: self.node,
                        dst,
                    });
                }
            }
        }
    }

    /// Sends `msg` to every neighbor. The payload is stored once: every
    /// receiver on this shard reads the same copy, and only payloads
    /// staged for another shard are cloned.
    ///
    /// Every copy has the same size, so the CONGEST bit accounting and
    /// bandwidth check are hoisted out of the per-neighbor loop; each
    /// neighbor costs one reverse-edge lookup, one tick compare, and one
    /// claim-word write.
    pub fn broadcast(&mut self, msg: M) {
        if self.error.is_some() {
            return;
        }
        let range = self.graph.edge_range(self.node);
        let deg = range.len();
        if deg == 0 {
            return;
        }
        let bits = msg.bits();
        self.tally.sent += deg as u64;
        self.tally.bits += (bits * deg) as u64;
        self.tally.max_bits = self.tally.max_bits.max(bits);
        if let Some(limit) = self.bandwidth_bits {
            if bits > limit {
                if self.strict_bandwidth {
                    *self.error = Some(SimError::BandwidthExceeded {
                        node: self.node,
                        round: self.round,
                        bits,
                        limit,
                    });
                    return;
                }
                self.tally.violations += deg as u64;
            }
        }
        // The index the shared copy takes when it is pushed below; no
        // other push happens in between.
        let shared = self.sink.arena.len() as u32;
        let mut stored = false;
        for eid in range {
            let Some(place) = self.claim(eid) else {
                break; // duplicate destination recorded
            };
            match place {
                Place::Slot(i) => {
                    self.sink.claims[i] = claim_word(self.tick, shared);
                    self.tally.delivered += 1;
                    stored = true;
                }
                Place::Stage(..) => self.place(place, msg.clone()),
                Place::Lost => {}
                Place::Dropped => self.tally.dropped += 1,
            }
        }
        if stored {
            self.sink.arena.push(msg);
        }
    }

    /// Claims the outgoing edge `eid` for this round and resolves where
    /// its payload goes, or returns `None` after recording a
    /// duplicate-destination violation.
    ///
    /// A local receiver's claim word is both the delivery and the
    /// duplicate check: one touch does both, at any shard count. A receiver
    /// on another shard has its claim word there, so the shard checks its
    /// sender-side `out_stamp` instead — the *outgoing* edge always
    /// belongs to the sender, so the check stays lock-free and
    /// thread-local.
    #[inline]
    fn claim(&mut self, eid: mis_graphs::EdgeId) -> Option<Place> {
        let dst = self.graph.edge_target(eid);
        let rid = self.graph.reverse_edge(eid);
        let sink = &mut self.sink;
        if dst < sink.node_base || dst >= sink.node_end {
            return self.claim_cross(eid, rid, dst);
        }
        let i = rid - sink.slot_base;
        if claimed(sink.claims[i], self.tick) {
            *self.error = Some(SimError::DuplicateDestination {
                src: self.node,
                dst,
                round: self.round,
            });
            return None;
        }
        // Claimed without a payload until `place` stores one: a sleeping
        // receiver or a loss drop leaves it so, and a duplicate send to
        // the same receiver is still caught.
        sink.claims[i] = claim_word(self.tick, NO_PAYLOAD);
        let awake = self.all_awake || sink.awake.get((dst - sink.node_base) as usize);
        Some(if !awake {
            Place::Lost
        } else if self.faults.drops(self.round, rid) {
            // Keyed on the *global* receiver-side id, so every shard
            // layout draws the same decision.
            Place::Dropped
        } else {
            Place::Slot(i)
        })
    }

    /// [`SendApi::claim`] for a receiver on another shard: stage the
    /// payload for the exchange step; the owning shard performs the awake
    /// and loss checks when it applies it.
    fn claim_cross(&mut self, eid: mis_graphs::EdgeId, rid: EdgeId, dst: NodeId) -> Option<Place> {
        let sink = &mut self.sink;
        let cross = sink
            .cross
            .as_mut()
            .expect("a sink without cross-shard routing owns every receiver");
        let out = &mut cross.out_stamp[eid - sink.slot_base];
        if *out == self.tick {
            *self.error = Some(SimError::DuplicateDestination {
                src: self.node,
                dst,
                round: self.round,
            });
            return None;
        }
        *out = self.tick;
        let shard = cross.slot_starts.partition_point(|&b| b <= rid) - 1;
        let pair = cross.pair_local[shard];
        debug_assert_ne!(
            pair,
            crate::par::partition::NO_PAIR,
            "cross payload on a pair the plan saw no cut edges for"
        );
        Some(Place::Stage(pair as usize, rid, dst))
    }

    /// Stores a claimed payload: push it to the arena and point the claim
    /// word at it (the receiver's [`Inbox`] reads it there), stage it for
    /// the cross-shard exchange, or drop it (sleeping receiver, channel
    /// loss). A stored payload *is* the delivery, so `delivered` is
    /// tallied here rather than in the receive half.
    #[inline]
    fn place(&mut self, place: Place, msg: M) {
        match place {
            Place::Slot(i) => {
                let sink = &mut self.sink;
                sink.claims[i] = claim_word(self.tick, sink.arena.len() as u32);
                sink.arena.push(msg);
                self.tally.delivered += 1;
            }
            Place::Stage(pair, rid, dst) => match &mut self.sink.cross {
                Some(cross) => cross.out[pair].push((rid, dst, msg)),
                None => unreachable!("only a shard sink stages"),
            },
            Place::Lost => {}
            Place::Dropped => self.tally.dropped += 1,
        }
    }
}

/// API available during [`Protocol::recv`].
#[derive(Debug)]
pub struct RecvApi<'a> {
    node: NodeId,
    round: Round,
    graph: &'a Graph,
    rngs: &'a mut NodeRngs,
    wakes: &'a mut Vec<Round>,
    halt: &'a mut bool,
}

impl<'a> RecvApi<'a> {
    /// Assembles a receive API (engine internal).
    pub(crate) fn new(
        node: NodeId,
        round: Round,
        graph: &'a Graph,
        rngs: &'a mut NodeRngs,
        wakes: &'a mut Vec<Round>,
        halt: &'a mut bool,
    ) -> RecvApi<'a> {
        RecvApi {
            node,
            round,
            graph,
            rngs,
            wakes,
            halt,
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of nodes in the graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// This node's sorted neighbor list.
    pub fn neighbors(&self) -> &[NodeId] {
        self.graph.neighbors(self.node)
    }

    /// The rank of `u` in this node's neighbor list, if adjacent.
    pub fn neighbor_rank(&self, u: NodeId) -> Option<usize> {
        self.graph.neighbor_rank(self.node, u)
    }

    /// The node's deterministic RNG, derived from `(seed, salt, node)`
    /// on the node's first draw of the run.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rngs.get(self.node)
    }

    /// Schedules this node to be awake in `round` (must be in the future).
    ///
    /// # Panics
    ///
    /// Panics if `round` is not strictly after the current round.
    pub fn wake_at(&mut self, round: Round) {
        assert!(
            round > self.round,
            "node {} asked to wake at {} during round {}",
            self.node,
            round,
            self.round
        );
        self.wakes.push(round);
    }

    /// Schedules this node to be awake in every round of `rounds` (all in
    /// the future).
    ///
    /// Debug builds reject an empty range: a protocol asking for zero
    /// awake rounds is almost always a bug silently stalling the node.
    pub fn wake_range(&mut self, rounds: std::ops::Range<Round>) {
        debug_assert!(
            rounds.start < rounds.end,
            "node {} requested empty wake_range {rounds:?} (silent no-op)",
            self.node
        );
        if rounds.start >= rounds.end {
            return;
        }
        self.wakes.reserve((rounds.end - rounds.start) as usize);
        for r in rounds {
            self.wake_at(r);
        }
    }

    /// Permanently stops this node: all of its pending and future wakeups
    /// are cancelled and it spends no more energy. Models a node that has
    /// terminated (e.g. it joined the MIS or was removed).
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

/// Reusable buffers of the engine, for any graph and any
/// [`SimConfig::threads`].
///
/// The steady-state round loop allocates nothing: per shard, the wake
/// buckets, RNG slots and their derived bits, halted and awake bits,
/// active and wake lists, and per-edge claim words all live here and are
/// recycled round over round, and run over run with [`run_with`]. There
/// is **no inbox buffer**: receivers borrow payloads in place from the
/// round's arena through the [`Inbox`] view.
///
/// The scratch has no message type. Claim words hold a round tick and an
/// arena index, never a payload, so runs whose protocols use different
/// [`Protocol::Msg`] types share one scratch; a run's payload arena and,
/// at `k ≥ 2` shards, its cross-shard staging buffers and exchange cells
/// are typed, so they belong to the run. A [`crate::Pipeline`] owns one
/// scratch and passes it to every phase, so a solve sizes the claim
/// arrays once. Ticks only grow, so reuse never clears the O(m) claim
/// arrays; on 32-bit wrap-around they are zeroed once and the tick
/// restarts.
///
/// The scratch also holds the run's shard plan. A plan is valid for one
/// graph only, and a caller may pass one scratch for several graphs, so
/// every `k ≥ 2` run rebuilds it (an `O(m)` sweep; a one-shard plan costs
/// `O(log n)`). A pipeline's scratch serves its one graph only and keeps
/// the plan across phases.
#[derive(Debug)]
pub struct EngineScratch {
    plan: ShardPlan,
    /// The shard count `plan` was last built for (`0`: never built).
    plan_k: usize,
    /// Whether every run of this scratch is on the same graph, so a plan
    /// for the current shard count stays valid: a pipeline's own scratch.
    one_graph: bool,
    /// One scratch per shard of the last run.
    shards: Vec<ShardScratch>,
}

impl EngineScratch {
    /// One-shard scratch sized for `graph`; a run at another
    /// [`SimConfig::threads`] or on another graph refits it.
    pub fn new(graph: &Graph) -> EngineScratch {
        let mut s = EngineScratch::empty();
        s.fit_to(graph, 1);
        s.shards[0].fit_to(&s.plan, 0);
        s
    }

    /// Unsized scratch; the first run does the single sizing pass.
    fn empty() -> EngineScratch {
        EngineScratch {
            plan: ShardPlan::new(),
            plan_k: 0,
            one_graph: false,
            shards: Vec::new(),
        }
    }

    /// Unsized scratch that every run will use on one graph, so it keeps
    /// its shard plan across runs (what a [`crate::Pipeline`] owns).
    pub(crate) fn for_one_graph() -> EngineScratch {
        EngineScratch {
            one_graph: true,
            ..EngineScratch::empty()
        }
    }

    /// Plans `graph` for `k` shards (unless the plan in hand is known to
    /// fit) and keeps exactly `k` shard scratches; each shard resets its
    /// own per-run state when its loop starts.
    fn fit_to(&mut self, graph: &Graph, k: usize) {
        if !self.one_graph || self.plan_k != k {
            self.plan.rebuild(graph, k);
            self.plan_k = k;
        }
        self.shards.truncate(k);
        self.shards.resize_with(k, ShardScratch::new);
    }

    /// Starts every shard's tick at `tick`, so a test can run rounds
    /// across the 32-bit wrap-around.
    #[cfg(test)]
    pub(crate) fn start_tick_at(&mut self, tick: u32) {
        for shard in &mut self.shards {
            shard.start_tick_at(tick);
        }
    }

    /// Capacities of every growable buffer, in a fixed order. Two runs of
    /// the same workload must produce identical signatures — `Vec` growth
    /// strictly increases capacity, so an unchanged signature proves the
    /// second run performed zero scratch allocations. This is the
    /// allocation oracle for the no-steady-state-allocation test (the
    /// workspace forbids `unsafe`, so a counting `GlobalAlloc` is not an
    /// option).
    ///
    /// The fixed order is, per shard: RNGs, derived-RNG words, halted
    /// words, awake words, active list, wake list, claim words, out stamps
    /// ([`EngineScratch::FIXED_BUFFERS`] entries), then the shard's
    /// scheduler buffers; after the last shard, the shard list and the
    /// plan's buffers. (The pre-zero-copy engine had one more per shard:
    /// a per-node inbox buffer, retired when [`Inbox`] made delivery
    /// borrow in place.)
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.capacity_signature(&mut out);
        }
        out.push(self.shards.capacity());
        self.plan.capacity_signature(&mut out);
        out
    }

    /// Number of scratch buffers per shard outside its scheduler (the
    /// leading entries of each shard's part of
    /// [`EngineScratch::capacity_signature`]); pinned by tests so a
    /// retired buffer cannot silently come back.
    pub const FIXED_BUFFERS: usize = ShardScratch::FIXED_BUFFERS;
}

/// Runs `protocol` on `graph` under `cfg` until no node has a pending
/// wakeup, on [`SimConfig::threads`] shards.
///
/// # Errors
///
/// Returns [`SimError`] if the protocol exceeds `cfg.max_rounds`, addresses
/// a non-neighbor, sends twice to the same neighbor in one round, or (in
/// strict mode) exceeds the bandwidth. When shards fail in the same
/// round, the lowest-numbered shard's error is returned.
///
/// # Panics
///
/// Re-raises a panic unwinding out of a protocol callback (at `k ≥ 2`
/// shards, after all workers shut down cleanly).
pub fn run<P>(graph: &Graph, protocol: &P, cfg: &SimConfig) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    run_with(graph, protocol, cfg, &mut EngineScratch::empty(), None)
}

/// [`run`] on caller-owned scratch buffers, optionally streaming one
/// [`crate::RoundEvent`] per busy round into `observer`.
///
/// Repeated executions (parameter sweeps, benchmark loops, the phases of
/// a [`crate::Pipeline`], whatever their message types or thread counts)
/// skip all per-run buffer allocation except the result, the round
/// payload arena and, at `k ≥ 2` shards, the cross-shard exchange. A
/// scratch sized for a larger graph serves a smaller one as it is.
///
/// The event stream is identical for every thread count (see
/// [`crate::observer`]). A one-shard run streams each event as its round
/// ends; a `k ≥ 2` run replays the merged stream when it completes, and
/// replays nothing on an error.
///
/// # Errors
///
/// Same contract as [`run`].
///
/// # Panics
///
/// Same contract as [`run`]; the scratch stays reusable after a caught
/// panic.
pub fn run_with<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    scratch: &mut EngineScratch,
    observer: Option<&mut dyn RoundObserver>,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    cfg.validate()?;
    let k = cfg.threads.max(1);
    scratch.fit_to(graph, k);
    let EngineScratch { plan, shards, .. } = scratch;
    if k > 1 {
        return crate::par::engine::run_sharded(graph, protocol, cfg, plan, shards, observer);
    }
    let events = match observer {
        Some(observer) => Events::Live(observer),
        None => Events::Off,
    };
    let solo = run_shard::<P, false>(graph, protocol, cfg, plan, &mut shards[0], None, events);
    if let Some(e) = solo.error {
        return Err(e);
    }
    // `threads = 0` names the sequential engine and reports no shards; a
    // one-worker run reports its one shard, every busy round local-only.
    let worker = u64::from(cfg.threads > 0);
    let stats = EngineStats {
        shards: worker,
        local_only_rounds: worker * solo.metrics.busy_rounds,
        ..solo.stats
    };
    Ok(SimResult {
        states: solo.states,
        metrics: solo.metrics,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graphs::generators;

    /// Flood protocol: node 0 starts "infected" in round 0; infection
    /// spreads one hop per round; infected nodes halt after notifying.
    struct Flood {
        rounds_cap: u64,
    }

    #[derive(Debug, Clone, Default)]
    struct FloodState {
        infected_at: Option<Round>,
        notified: bool,
    }

    impl Protocol for Flood {
        type State = FloodState;
        type Msg = ();

        fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> FloodState {
            // Everyone listens every round (energy-naive baseline style).
            api.wake_range(0..self.rounds_cap);
            FloodState {
                infected_at: (node == 0).then_some(0),
                notified: false,
            }
        }

        fn send(&self, state: &mut FloodState, api: &mut SendApi<'_, ()>) {
            if state.infected_at.is_some() && !state.notified {
                api.broadcast(());
                state.notified = true;
            }
        }

        fn recv(&self, state: &mut FloodState, inbox: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
            if state.infected_at.is_none() && !inbox.is_empty() {
                state.infected_at = Some(api.round() + 1);
            }
            if state.notified {
                api.halt();
            }
        }
    }

    #[test]
    fn flood_reaches_everyone_on_path() {
        let g = generators::path(6);
        let res = run(&g, &Flood { rounds_cap: 10 }, &SimConfig::default()).unwrap();
        for (v, s) in res.states.iter().enumerate() {
            assert_eq!(s.infected_at, Some(v as u64), "node {v}");
        }
        assert!(res.metrics.elapsed_rounds <= 10);
        assert!(res.metrics.messages_sent > 0);
    }

    #[test]
    fn halted_nodes_pay_no_more_energy() {
        let g = generators::path(3);
        let res = run(&g, &Flood { rounds_cap: 50 }, &SimConfig::default()).unwrap();
        // Node 0 halts after round 0 (notify + halt): energy exactly 1.
        assert_eq!(res.metrics.awake_rounds[0], 1);
        // Node 2 hears in round 1, notifies in round 2, halts: 3 awake rounds.
        assert_eq!(res.metrics.awake_rounds[2], 3);
    }

    /// Protocol where nobody wakes: the run ends immediately.
    struct Silent;
    impl Protocol for Silent {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, _api: &mut InitApi<'_>) {}
        fn send(&self, _state: &mut (), _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn silent_protocol_costs_nothing() {
        let g = generators::cycle(10);
        let res = run(&g, &Silent, &SimConfig::default()).unwrap();
        assert_eq!(res.metrics.elapsed_rounds, 0);
        assert_eq!(res.metrics.max_awake(), 0);
        assert_eq!(res.metrics.messages_sent, 0);
    }

    /// Messages to sleeping neighbors are lost.
    struct LonelySender;
    impl Protocol for LonelySender {
        type State = usize;
        type Msg = ();
        fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> usize {
            if node == 0 {
                api.wake_at(0);
            } else {
                api.wake_at(1); // neighbors awake only in round 1
            }
            0
        }
        fn send(&self, _state: &mut usize, api: &mut SendApi<'_, ()>) {
            if api.node() == 0 && api.round() == 0 {
                api.broadcast(());
            }
        }
        fn recv(&self, state: &mut usize, inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {
            *state += inbox.count();
        }
    }

    #[test]
    fn sleeping_receivers_lose_messages() {
        let g = generators::star(5);
        let res = run(&g, &LonelySender, &SimConfig::default()).unwrap();
        assert_eq!(res.metrics.messages_sent, 4);
        assert_eq!(res.metrics.messages_delivered, 0);
        assert!(res.states[1..].iter().all(|&c| c == 0));
    }

    /// A runaway protocol trips the round limit.
    struct Runaway;
    impl Protocol for Runaway {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _state: &mut (), _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
            let next = api.round() + 1;
            api.wake_at(next);
        }
    }

    #[test]
    fn max_rounds_enforced() {
        let g = generators::path(2);
        let cfg = SimConfig {
            max_rounds: 100,
            ..SimConfig::default()
        };
        assert_eq!(
            run(&g, &Runaway, &cfg).unwrap_err(),
            SimError::ExceededMaxRounds { max_rounds: 100 }
        );
    }

    /// Sending to a non-neighbor is rejected.
    struct BadAddress;
    impl Protocol for BadAddress {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _state: &mut (), api: &mut SendApi<'_, ()>) {
            if api.node() == 0 {
                api.send(3, ()); // not adjacent on a path of 4
            }
        }
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn non_neighbor_send_rejected() {
        let g = generators::path(4);
        assert_eq!(
            run(&g, &BadAddress, &SimConfig::default()).unwrap_err(),
            SimError::NotANeighbor { src: 0, dst: 3 }
        );
    }

    /// Duplicate destination in one round is rejected.
    struct DoubleSend;
    impl Protocol for DoubleSend {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _state: &mut (), api: &mut SendApi<'_, ()>) {
            if api.node() == 0 {
                api.send(1, ());
                api.send(1, ());
            }
        }
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn duplicate_destination_rejected() {
        let g = generators::path(2);
        assert!(matches!(
            run(&g, &DoubleSend, &SimConfig::default()).unwrap_err(),
            SimError::DuplicateDestination { src: 0, dst: 1, .. }
        ));
    }

    /// Mixing the rank-addressed fast path with the id-addressed legacy
    /// path still trips the one-message-per-edge check.
    struct MixedDoubleSend;
    impl Protocol for MixedDoubleSend {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _state: &mut (), api: &mut SendApi<'_, ()>) {
            if api.node() == 0 {
                api.send_to_rank(0, ());
                api.send(1, ()); // same neighbor, by id
            }
        }
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn rank_and_id_sends_share_duplicate_detection() {
        let g = generators::path(2);
        assert!(matches!(
            run(&g, &MixedDoubleSend, &SimConfig::default()).unwrap_err(),
            SimError::DuplicateDestination { src: 0, dst: 1, .. }
        ));
    }

    /// Rank-addressed sends land on the rank-th neighbor, in order.
    struct RankSender;
    impl Protocol for RankSender {
        type State = Vec<(NodeId, u32)>;
        type Msg = u32;
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> Self::State {
            api.wake_at(0);
            Vec::new()
        }
        fn send(&self, _state: &mut Self::State, api: &mut SendApi<'_, u32>) {
            if api.node() == 0 {
                // Send each neighbor its own rank, highest rank first: the
                // receiver order must still come out ascending by sender.
                for rank in (0..api.degree()).rev() {
                    api.send_to_rank(rank, rank as u32);
                }
            }
        }
        fn recv(&self, state: &mut Self::State, inbox: Inbox<'_, u32>, _api: &mut RecvApi<'_>) {
            state.extend(inbox.iter().map(|(src, &v)| (src, v)));
        }
    }

    #[test]
    fn send_to_rank_addresses_sorted_neighbors() {
        let g = generators::star(5); // center 0, leaves 1..=4
        let res = run(&g, &RankSender, &SimConfig::default()).unwrap();
        for leaf in 1..5u32 {
            assert_eq!(res.states[leaf as usize], vec![(0, leaf - 1)]);
        }
    }

    /// Oversized messages: counted, or fatal in strict mode.
    struct BigTalker;
    impl Protocol for BigTalker {
        type State = ();
        type Msg = u64;
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _state: &mut (), api: &mut SendApi<'_, u64>) {
            if api.node() == 0 {
                api.send(1, u64::MAX); // 64 bits
            }
        }
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, u64>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn bandwidth_counting_and_strict_modes() {
        let g = generators::path(2);
        let lax = SimConfig {
            bandwidth_bits: Some(32),
            ..SimConfig::default()
        };
        let res = run(&g, &BigTalker, &lax).unwrap();
        assert_eq!(res.metrics.bandwidth_violations, 1);
        assert_eq!(res.metrics.max_message_bits, 64);

        let strict = SimConfig {
            bandwidth_bits: Some(32),
            strict_bandwidth: true,
            ..SimConfig::default()
        };
        assert!(matches!(
            run(&g, &BigTalker, &strict).unwrap_err(),
            SimError::BandwidthExceeded {
                bits: 64,
                limit: 32,
                ..
            }
        ));
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        use rand::Rng;
        struct Sampler;
        impl Protocol for Sampler {
            type State = u64;
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> u64 {
                api.wake_at(0);
                api.rng().gen()
            }
            fn send(&self, _state: &mut u64, _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _state: &mut u64, _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::cycle(16);
        let a = run(&g, &Sampler, &SimConfig::seeded(7)).unwrap();
        let b = run(&g, &Sampler, &SimConfig::seeded(7)).unwrap();
        let c = run(&g, &Sampler, &SimConfig::seeded(8)).unwrap();
        assert_eq!(a.states, b.states);
        assert_ne!(a.states, c.states);
    }

    #[test]
    fn congest_bandwidth_helper() {
        assert_eq!(SimConfig::congest_bandwidth(1 << 20, 4), 80);
        assert!(SimConfig::congest_bandwidth(2, 1) >= 32);
    }

    #[test]
    fn threads_flag_accepts_space_and_equals_forms() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        assert_eq!(
            SimConfig::threads_from(&args(&["bin", "--threads", "4"]), 1),
            4
        );
        assert_eq!(
            SimConfig::threads_from(&args(&["bin", "--threads=8"]), 1),
            8
        );
        assert_eq!(
            SimConfig::threads_from(&args(&["bin", "--threads=0"]), 1),
            0
        );
        assert_eq!(SimConfig::threads_from(&args(&["bin", "--quick"]), 3), 3);
    }

    #[test]
    #[should_panic(expected = "--threads requires an integer value")]
    fn threads_flag_rejects_garbage_value() {
        let args: Vec<String> = vec!["bin".into(), "--threads=lots".into()];
        SimConfig::threads_from(&args, 1);
    }

    #[test]
    fn elapsed_counts_gap_rounds() {
        struct Sparse;
        impl Protocol for Sparse {
            type State = ();
            type Msg = ();
            fn init(&self, node: NodeId, api: &mut InitApi<'_>) {
                if node == 0 {
                    api.wake_at(0);
                    api.wake_at(41);
                }
            }
            fn send(&self, _state: &mut (), _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::path(2);
        let res = run(&g, &Sparse, &SimConfig::default()).unwrap();
        assert_eq!(res.metrics.elapsed_rounds, 42);
        assert_eq!(res.metrics.busy_rounds, 2);
        assert_eq!(res.metrics.awake_rounds[0], 2);
    }

    /// Duplicate `wake_at` calls for one round cost one awake round.
    struct DoubleWake;
    impl Protocol for DoubleWake {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(3);
            api.wake_at(3);
            api.wake_at(3);
        }
        fn send(&self, _state: &mut (), _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn duplicate_wakeups_are_idempotent_in_energy() {
        let g = generators::path(2);
        let res = run(&g, &DoubleWake, &SimConfig::default()).unwrap();
        assert_eq!(res.metrics.awake_rounds, vec![1, 1]);
        assert_eq!(res.metrics.busy_rounds, 1);
        assert_eq!(res.metrics.elapsed_rounds, 4);
    }

    /// Far-future wakeups (past the scheduler's dense ring window) fire,
    /// fire in order, and count gap rounds in elapsed time.
    struct FarFuture;
    impl Protocol for FarFuture {
        type State = Vec<Round>;
        type Msg = ();
        fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> Vec<Round> {
            match node {
                0 => {
                    // Scheduled out of order, spanning several ring laps.
                    api.wake_at(100_000);
                    api.wake_at(0);
                    api.wake_at(700);
                    api.wake_at(99_000);
                }
                _ => api.wake_at(5),
            }
            Vec::new()
        }
        fn send(&self, _state: &mut Vec<Round>, _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, state: &mut Vec<Round>, _inbox: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
            state.push(api.round());
        }
    }

    #[test]
    fn far_future_wakeups_fire_in_order() {
        let g = generators::path(2);
        let res = run(&g, &FarFuture, &SimConfig::default()).unwrap();
        assert_eq!(res.states[0], vec![0, 700, 99_000, 100_000]);
        assert_eq!(res.states[1], vec![5]);
        assert_eq!(res.metrics.busy_rounds, 5);
        assert_eq!(res.metrics.elapsed_rounds, 100_001);
    }

    /// Halting cancels wakeups that were already queued for the future,
    /// including far-future (overflow) ones.
    struct EagerThenHalt;
    impl Protocol for EagerThenHalt {
        type State = u64;
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> u64 {
            api.wake_at(0);
            api.wake_at(5);
            api.wake_at(10_000); // far future: lands in the overflow spill
            0
        }
        fn send(&self, _state: &mut u64, _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, state: &mut u64, _inbox: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
            *state += 1;
            api.halt();
        }
    }

    #[test]
    fn halt_cancels_queued_future_wakeups() {
        let g = generators::path(2);
        let res = run(&g, &EagerThenHalt, &SimConfig::default()).unwrap();
        // Both nodes halt in round 0; the queued rounds 5 and 10_000 fire
        // nothing and cost nothing.
        assert_eq!(res.states, vec![1, 1]);
        assert_eq!(res.metrics.awake_rounds, vec![1, 1]);
        assert_eq!(res.metrics.busy_rounds, 1);
        assert_eq!(res.metrics.elapsed_rounds, 1);
    }

    /// Scratch reuse: identical results, and the second run performs zero
    /// scratch allocations (capacities are unchanged — `Vec` growth
    /// strictly increases capacity, so equality proves no reallocation on
    /// the steady-state path).
    #[test]
    fn scratch_reuse_is_deterministic_and_allocation_free() {
        let g = generators::grid2d(8, 8);
        let cfg = SimConfig::seeded(3);
        let baseline = run(&g, &Flood { rounds_cap: 30 }, &cfg).unwrap();

        let mut scratch = EngineScratch::new(&g);
        let first = run_with(&g, &Flood { rounds_cap: 30 }, &cfg, &mut scratch, None).unwrap();
        let warm = scratch.capacity_signature();
        let second = run_with(&g, &Flood { rounds_cap: 30 }, &cfg, &mut scratch, None).unwrap();
        assert_eq!(
            warm,
            scratch.capacity_signature(),
            "steady-state allocation"
        );

        for res in [&first, &second] {
            assert_eq!(res.metrics, baseline.metrics);
            for (a, b) in res.states.iter().zip(baseline.states.iter()) {
                assert_eq!(a.infected_at, b.infected_at);
            }
        }
    }

    /// A one-shard signature is exactly the shard's fixed buffers plus
    /// its scheduler's entries, then the shard list and the plan —
    /// pinning that the slice-era per-node inbox buffer is gone (it
    /// would show up as an extra leading entry).
    #[test]
    fn capacity_signature_is_fixed_buffers_plus_scheduler() {
        let g = generators::grid2d(4, 4);
        let s = EngineScratch::new(&g);
        let mut shard_sig = Vec::new();
        s.shards[0].capacity_signature(&mut shard_sig);
        let mut plan_sig = Vec::new();
        s.plan.capacity_signature(&mut plan_sig);
        let sig = s.capacity_signature();
        assert_eq!(sig.len(), shard_sig.len() + 1 + plan_sig.len());
        assert_eq!(sig[..shard_sig.len()], shard_sig[..]);
        let mut sched_sig = Vec::new();
        crate::sched::BucketScheduler::new().capacity_signature(&mut sched_sig);
        assert_eq!(
            shard_sig.len(),
            EngineScratch::FIXED_BUFFERS + sched_sig.len()
        );
    }

    /// Payloads addressed to sleeping receivers are dropped at send
    /// time, not stored in the round's arena.
    #[test]
    fn undelivered_payloads_are_dropped_at_send_time() {
        use std::sync::Arc;
        #[derive(Clone, Debug)]
        struct Tracked(#[allow(dead_code, reason = "held only to track drops")] Arc<()>);
        impl crate::Message for Tracked {
            fn bits(&self) -> usize {
                1
            }
        }
        struct SendToSleepers(Arc<()>);
        impl Protocol for SendToSleepers {
            type State = ();
            type Msg = Tracked;
            fn init(&self, node: NodeId, api: &mut InitApi<'_>) {
                if node == 0 {
                    api.wake_at(0);
                }
            }
            fn send(&self, _state: &mut (), api: &mut SendApi<'_, Tracked>) {
                api.broadcast(Tracked(self.0.clone()));
            }
            fn recv(&self, _state: &mut (), _inbox: Inbox<'_, Tracked>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::star(5);
        let handle = Arc::new(());
        let proto = SendToSleepers(handle.clone());
        let mut scratch = EngineScratch::new(&g);
        let res = run_with(&g, &proto, &SimConfig::default(), &mut scratch, None).unwrap();
        assert_eq!(res.metrics.messages_sent, 4);
        assert_eq!(res.metrics.messages_delivered, 0);
        // Scratch is still alive, yet no broadcast copy survives: only the
        // local handle and the protocol's own copy remain.
        assert_eq!(Arc::strong_count(&handle), 2);
    }

    /// The observed event stream partitions the aggregate metrics: the
    /// per-round deltas sum back to every counter, in round order.
    #[test]
    fn observer_streams_per_round_aggregates() {
        let g = generators::grid2d(5, 5);
        let mut log = crate::observer::RoundLog::new();
        let res = run_with(
            &g,
            &Flood { rounds_cap: 20 },
            &SimConfig::default(),
            &mut EngineScratch::new(&g),
            Some(&mut log),
        )
        .unwrap();
        assert_eq!(log.busy_rounds() as u64, res.metrics.busy_rounds);
        let sum = |f: fn(&crate::RoundEvent) -> u64| log.events().map(f).sum::<u64>();
        assert_eq!(sum(|e| e.messages_sent), res.metrics.messages_sent);
        assert_eq!(
            sum(|e| e.messages_delivered),
            res.metrics.messages_delivered
        );
        assert_eq!(sum(|e| e.bits_sent), res.metrics.bits_sent);
        assert_eq!(sum(|e| e.awake), res.metrics.total_awake());
        let rounds: Vec<_> = log.events().map(|e| e.round).collect();
        assert!(
            rounds.windows(2).all(|w| w[0] < w[1]),
            "rounds out of order"
        );
    }

    /// Unobserved runs and observed ones produce the same run.
    #[test]
    fn observation_does_not_perturb_the_run() {
        let g = generators::grid2d(6, 6);
        let cfg = SimConfig::seeded(5);
        let plain = run(&g, &Flood { rounds_cap: 15 }, &cfg).unwrap();
        let mut log = crate::observer::RoundLog::new();
        let mut scratch = EngineScratch::new(&g);
        let observed = run_with(
            &g,
            &Flood { rounds_cap: 15 },
            &cfg,
            &mut scratch,
            Some(&mut log),
        );
        assert_eq!(plain.metrics, observed.unwrap().metrics);
    }

    /// A one-shard run streams each event as its round ends: when the
    /// observer hears round `r`, the protocol has received exactly the
    /// rounds up to `r` — never a later one, as a replay at the end of
    /// the run would show.
    #[test]
    fn observers_stream_live_at_one_shard() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        /// Counts every `recv` call, one per awake node per round.
        struct Counted(Arc<AtomicU64>);
        impl Protocol for Counted {
            type State = ();
            type Msg = ();
            fn init(&self, node: NodeId, api: &mut InitApi<'_>) {
                api.wake_range(u64::from(node % 3)..6);
            }
            fn send(&self, _state: &mut (), api: &mut SendApi<'_, ()>) {
                api.broadcast(());
            }
            fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        /// Checks the count against the awake totals heard so far.
        struct Live {
            receives: Arc<AtomicU64>,
            awake_so_far: u64,
            rounds: u64,
        }
        impl RoundObserver for Live {
            fn on_round(&mut self, event: &crate::RoundEvent) {
                self.awake_so_far += event.awake;
                self.rounds += 1;
                let seen = self.receives.load(Ordering::Relaxed);
                assert_eq!(seen, self.awake_so_far, "round {}: not live", event.round);
            }
        }
        let g = generators::grid2d(5, 4);
        for threads in [0, 1] {
            let receives = Arc::new(AtomicU64::new(0));
            let mut live = Live {
                receives: receives.clone(),
                awake_so_far: 0,
                rounds: 0,
            };
            let cfg = SimConfig::seeded(2).with_threads(threads);
            let mut scratch = EngineScratch::new(&g);
            let res = run_with(&g, &Counted(receives), &cfg, &mut scratch, Some(&mut live));
            assert_eq!(
                live.rounds,
                res.unwrap().metrics.busy_rounds,
                "threads {threads}"
            );
            assert_eq!(live.rounds, 6);
        }
    }

    /// Always-awake broadcaster: every node wakes rounds `0..rounds`
    /// and broadcasts each round, so no message is ever lost to a
    /// sleeping receiver — channel accounting is exactly
    /// `sent = delivered + dropped`.
    struct Beacon {
        rounds: u64,
    }
    impl Protocol for Beacon {
        type State = u64; // messages heard
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> u64 {
            api.wake_range(0..self.rounds);
            0
        }
        fn send(&self, _state: &mut u64, api: &mut SendApi<'_, ()>) {
            api.broadcast(());
        }
        fn recv(&self, state: &mut u64, inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {
            *state += inbox.count() as u64;
        }
    }

    #[test]
    fn invalid_configs_are_rejected_at_run_entry() {
        let g = generators::path(4);
        let zero_bw = SimConfig {
            bandwidth_bits: Some(0),
            ..SimConfig::default()
        };
        assert!(matches!(
            run(&g, &Beacon { rounds: 1 }, &zero_bw).unwrap_err(),
            SimError::InvalidInput { .. }
        ));
        let bad_p = SimConfig::default().with_channel(ChannelModel::Loss { p: 1.5 });
        assert!(matches!(
            run(&g, &Beacon { rounds: 1 }, &bad_p).unwrap_err(),
            SimError::InvalidInput { .. }
        ));
    }

    #[test]
    fn loss_channel_accounting_adds_up() {
        use rand::SeedableRng;
        let mut r = rand::rngs::SmallRng::seed_from_u64(3);
        let g = generators::gnp(128, 8.0 / 128.0, &mut r);
        let ideal = run(&g, &Beacon { rounds: 20 }, &SimConfig::seeded(1)).unwrap();
        assert_eq!(ideal.metrics.messages_dropped, 0);
        assert_eq!(ideal.metrics.collisions, 0);
        assert_eq!(
            ideal.metrics.messages_sent,
            ideal.metrics.messages_delivered
        );

        let lossy = SimConfig::seeded(1).with_channel(ChannelModel::Loss { p: 0.25 });
        let res = run(&g, &Beacon { rounds: 20 }, &lossy).unwrap();
        let m = &res.metrics;
        assert_eq!(m.messages_sent, ideal.metrics.messages_sent);
        assert!(m.messages_dropped > 0, "p=0.25 must drop something");
        assert_eq!(m.messages_sent, m.messages_delivered + m.messages_dropped);
        // Heard counts match what was actually delivered.
        let heard: u64 = res.states.iter().sum();
        assert_eq!(heard, m.messages_delivered);
    }

    #[test]
    fn loss_p1_drops_everything_and_p0_nothing() {
        let g = generators::cycle(16);
        let all = SimConfig::seeded(2).with_channel(ChannelModel::Loss { p: 1.0 });
        let res = run(&g, &Beacon { rounds: 5 }, &all).unwrap();
        assert_eq!(res.metrics.messages_delivered, 0);
        assert_eq!(res.metrics.messages_dropped, res.metrics.messages_sent);
        assert!(res.states.iter().all(|&h| h == 0));

        let none = SimConfig::seeded(2).with_channel(ChannelModel::Loss { p: 0.0 });
        let ideal = run(&g, &Beacon { rounds: 5 }, &SimConfig::seeded(2)).unwrap();
        let z = run(&g, &Beacon { rounds: 5 }, &none).unwrap();
        assert_eq!(z.metrics, ideal.metrics);
        assert_eq!(z.states, ideal.states);
    }

    #[test]
    fn radio_collision_wipes_contended_receivers() {
        // Star: every leaf hears only the hub (1 message — no
        // collision); the hub hears every leaf at once (collision).
        let g = generators::star(9); // hub 0 + 8 leaves
        let cfg = SimConfig::seeded(4).with_channel(ChannelModel::RadioCollision);
        let rounds = 3u64;
        let res = run(&g, &Beacon { rounds }, &cfg).unwrap();
        let m = &res.metrics;
        assert_eq!(m.collisions, rounds, "hub collides every round");
        assert_eq!(m.messages_dropped, 8 * rounds, "all leaf→hub wiped");
        assert_eq!(res.states[0], 0, "hub never hears anything");
        assert!(res.states[1..].iter().all(|&h| h == rounds));
        assert_eq!(m.messages_sent, m.messages_delivered + m.messages_dropped);
    }

    #[test]
    fn adversary_crash_and_forced_sleep() {
        use crate::channel::{AdversarySchedule, SleepWindow};
        let g = generators::cycle(8);
        let sched = AdversarySchedule {
            crashes: vec![(2, 3)],
            sleeps: vec![SleepWindow {
                nodes: vec![5],
                from: 1,
                to: 2,
            }],
        };
        let cfg = SimConfig::seeded(6).with_channel(ChannelModel::Adversary(sched));
        let res = run(&g, &Beacon { rounds: 6 }, &cfg).unwrap();
        // Node 2 crashes at round 3: awake rounds 0..3 only.
        assert_eq!(res.metrics.awake_rounds[2], 3);
        // Node 5 misses rounds 1 and 2 but participates otherwise.
        assert_eq!(res.metrics.awake_rounds[5], 4);
        // An untouched node pays the full schedule.
        assert_eq!(res.metrics.awake_rounds[0], 6);
        // Messages to crashed/sleeping nodes are sleep-losses, not
        // channel drops.
        assert_eq!(res.metrics.messages_dropped, 0);
        assert!(res.metrics.messages_delivered < res.metrics.messages_sent);
    }

    #[test]
    #[should_panic(expected = "empty wake_range")]
    #[cfg(debug_assertions)]
    fn empty_wake_range_panics_in_debug() {
        struct EmptyRange;
        impl Protocol for EmptyRange {
            type State = ();
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_range(7..7);
            }
            fn send(&self, _state: &mut (), _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::path(2);
        let _ = run(&g, &EmptyRange, &SimConfig::default());
    }
}
