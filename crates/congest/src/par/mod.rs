//! Sharded round execution: the engine's one round loop, and the
//! workers and exchange that run it at `k ≥ 2` shards.
//!
//! [`crate::run_with`] splits every run into `k = max(threads, 1)`
//! contiguous shards and executes [`shard::run_shard`] once per shard.
//! At `k = 1` that is the sequential engine: one shard, on the calling
//! thread, with none of the machinery below. At `k ≥ 2` the shards run
//! concurrently. **Determinism is the contract:** for every graph,
//! protocol, config, and thread count, a run produces *bit-identical*
//! [`crate::Metrics`], final states and round events. Thread count is a
//! pure performance knob, never an observable.
//!
//! # Why this is possible
//!
//! Within a round, per-node work is already order-free by construction:
//! every node draws from its own RNG (derived from `(seed, salt, node)`),
//! and messages are claimed in per-directed-edge words indexed by the
//! receiver's CSR layout, so inboxes come out ascending-by-sender no
//! matter who wrote first. One shard exploits this to skip sorting;
//! several exploit it to skip coordination.
//!
//! # Architecture: the one-barrier round
//!
//! At `k ≥ 2` each worker crosses exactly **one rendezvous per round**.
//! Everything else — round agreement, the busy/empty decision, failure
//! aborts, and the cross-shard payload hand-off — rides on that single
//! barrier or on per-pair sequence counters, so synchronization overhead
//! scales with actual cross-shard traffic, not with `k²` or with barrier
//! count:
//!
//! ```text
//!        ┌──────────────── one loop iteration (round r) ───────────────┐
//! shard: │ drain bucket → publish(round, active, posted, failed)       │
//!        │                        ═══ barrier ═══                      │
//!        │ read snapshot: agreed round = min, busy = Σ active,         │
//!        │                abort if any shard published failure         │
//!        │ send: claim local edges + push to own arena, cross payloads │
//!        │   staged per cut pair                                       │
//!        │ bump every out-pair sequence counter (cut-aware: only       │
//!        │   non-empty buffers post; empty pairs publish counter only) │
//!        │ apply: await in-pair counters of participating senders,     │
//!        │   drain payload cells into own claims + arena; recv half    │
//!        └───────────── next iteration's barrier orders r before r+1 ──┘
//! ```
//!
//! * [`partition`] — a [`mis_graphs::Partition`] cuts nodes into `k`
//!   contiguous shards balanced by degree weight and refined toward the
//!   sparsest nearby cut; the [`partition::ShardPlan`] enumerates the
//!   *cut pairs* (directed shard pairs that actually share cut edges)
//!   with per-pair capacities, so the exchange allocates one cell per
//!   cut pair instead of a `k²` mailbox matrix. A one-shard plan has no
//!   cut and costs two boundary searches.
//! * [`shard`] — the round loop, and the untyped per-shard scratch it
//!   runs on: RNGs, calendar scheduler, halt and awake bits, active and
//!   wake lists, claim words, and (at `k ≥ 2`) out stamps.
//! * [`exchange`] — all inter-shard synchronization: the spinning
//!   rendezvous barrier, the parity-double-buffered round-agreement
//!   snapshot, and the per-cut-pair payload cells whose atomic sequence
//!   counters replace the post-send barrier. A pair that moved nothing
//!   this round costs its receiver one atomic load; a round in which no
//!   shard posted at all is counted as local-only. Both live for one run.
//! * [`engine`] — the `k ≥ 2` run: spawn, and the merge of per-shard
//!   outcomes into one result.
//!
//! Since the workspace forbids `unsafe`, no thread ever writes another
//! shard's memory: all cross-shard traffic moves by ownership through the
//! payload cells (a swap under a mutex that the sequence counters keep
//! uncontended), and the barrier plus counter protocol makes every phase
//! data-race-free by construction.
//!
//! # Caveat
//!
//! A protocol that *panics* mid-run aborts the whole run. At `k ≥ 2` the
//! panic is caught at the protocol boundary, all workers shut down at the
//! next synchronization point, and the payload is re-raised on the
//! calling thread; at `k = 1` it unwinds directly. Either way the scratch
//! stays reusable. Protocol panics are programming errors, not control
//! flow.

pub(crate) mod engine;
pub(crate) mod exchange;
pub(crate) mod partition;
pub(crate) mod shard;
