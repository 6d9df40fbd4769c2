//! A deterministic simulator for the synchronous CONGEST model with
//! *sleeping* nodes and energy accounting.
//!
//! This crate is the execution substrate for the reproduction of
//! *"Distributed MIS with Low Energy and Time Complexities"* (Ghaffari &
//! Portmann, PODC 2023). It implements exactly the model of that paper:
//!
//! * **Synchronous rounds.** Per round, every *awake* node computes, sends
//!   at most one message per neighbor, and receives the messages its awake
//!   neighbors sent to it this round.
//! * **Sleeping.** A node is awake in a round only if it scheduled a wakeup
//!   for that round (at initialization or during an earlier awake round).
//!   Sleeping nodes cannot compute, send, or receive — messages addressed
//!   to them are lost — and they cannot be woken by other nodes.
//! * **Energy accounting.** The *energy complexity* is the maximum number
//!   of rounds any node is awake; the simulator meters awake rounds per
//!   node, messages, and bits, and can enforce the `O(log n)`-bit CONGEST
//!   bandwidth.
//! * **Determinism.** Every node draws randomness from an RNG derived from
//!   `(seed, salt, node)`, so a run is a pure function of the graph, the
//!   protocol parameters, and the seed.
//!
//! Protocols implement the [`Protocol`] trait; [`run`] executes one
//! protocol, [`run_with`] does so on reusable [`EngineScratch`] buffers
//! with an optional [`RoundObserver`], and [`Pipeline`] chains protocol
//! phases while accumulating time and energy exactly the way the
//! paper's theorems add up phase budgets. [`SimConfig::threads`] splits
//! each run across worker shards; every thread count runs the same round
//! loop and gives bit-identical results.
//!
//! # Example: a one-round "hello" protocol
//!
//! ```
//! use congest_sim::{run, Inbox, InitApi, Message, Protocol, RecvApi, SendApi, SimConfig};
//! use mis_graphs::{generators, NodeId};
//!
//! struct Hello;
//!
//! impl Protocol for Hello {
//!     type State = usize; // number of greetings heard
//!     type Msg = ();
//!
//!     fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> usize {
//!         api.wake_at(0);
//!         0
//!     }
//!
//!     fn send(&self, _state: &mut usize, api: &mut SendApi<'_, ()>) {
//!         api.broadcast(());
//!     }
//!
//!     fn recv(&self, state: &mut usize, inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {
//!         *state += inbox.count();
//!     }
//! }
//!
//! let g = generators::cycle(8);
//! let result = run(&g, &Hello, &SimConfig::default()).unwrap();
//! assert!(result.states.iter().all(|&heard| heard == 2));
//! assert_eq!(result.metrics.max_awake(), 1); // everyone awake exactly once
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
pub mod channel;
mod engine;
mod error;
mod message;
mod metrics;
pub mod observer;
mod par;
mod pipeline;
pub mod repair;
pub mod rng;
mod sched;
pub mod schedule;
pub mod telemetry;

pub use channel::{AdversarySchedule, ChannelModel, SleepWindow};
pub use engine::{
    run, run_with, EngineScratch, Inbox, InboxIter, InitApi, Protocol, RecvApi, SendApi, SimConfig,
    SimResult,
};
pub use error::SimError;
pub use message::{Message, PackedBits};
pub use metrics::{EnergySummary, Metrics};
pub use observer::{PhaseTrace, RoundEvent, RoundLog, RoundObserver};
pub use pipeline::Pipeline;
pub use repair::{plan_repair, RepairPlan};
pub use telemetry::{
    EnergyHistogram, EngineProbes, EngineStats, Telemetry, TELEMETRY_SCHEMA_VERSION,
};

/// A round index; the algorithm starts at round 0.
pub type Round = u64;

/// Re-export of the node identifier used by [`mis_graphs`].
pub type NodeId = mis_graphs::NodeId;
