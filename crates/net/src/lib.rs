#![warn(missing_docs)]
//! Deterministic network simulator for the `distclass` workspace.
//!
//! Implements the paper's network model (§3.1): a static, directed,
//! connected topology of `n` nodes joined by reliable asynchronous links —
//! messages are never lost, duplicated or forged, but may be delayed
//! arbitrarily. Two execution engines are provided:
//!
//! * [`RoundEngine`] — the synchronous, round-based engine used by the
//!   paper's evaluation (§5.3): in each round every live node takes one
//!   communication turn, then all messages sent in the round are delivered.
//!   Supports crash faults (nodes crash with a per-round probability, as in
//!   Figure 4).
//! * [`EventEngine`] — a fully asynchronous discrete-event engine with
//!   randomized per-message delays and per-node tick times, used to
//!   exercise the convergence theorem's asynchronous setting.
//!
//! Protocols implement the [`Protocol`] trait and are completely
//! deterministic given the engine seed, which makes every simulation in the
//! test suite and benchmark harness reproducible.
//!
//! # Example
//!
//! ```
//! use distclass_net::{Context, NodeId, Protocol, RoundEngine, Topology};
//!
//! /// Every node pushes its max-so-far to a round-robin neighbor.
//! struct MaxGossip {
//!     value: u64,
//! }
//!
//! impl Protocol for MaxGossip {
//!     type Message = u64;
//!     fn on_tick(&mut self, ctx: &mut Context<'_, u64>) {
//!         let to = ctx.round_robin_neighbor();
//!         ctx.send(to, self.value);
//!     }
//!     fn on_message(&mut self, _from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
//!         self.value = self.value.max(msg);
//!     }
//! }
//!
//! let topo = Topology::ring(8);
//! let mut engine = RoundEngine::new(topo, 42, |i| MaxGossip { value: i as u64 });
//! engine.run_rounds(16);
//! assert!(engine.nodes().iter().all(|n| n.value == 7));
//! ```

mod engine;
mod events;
mod faults;
mod metrics;
mod rng;
mod rounds;
mod topology;

pub use engine::{Context, Protocol};
pub use events::{DelayModel, EventEngine};
pub use faults::CrashModel;
pub use metrics::NetMetrics;
pub use rng::{derive_seed, seeded_pick, SeedSequence};
pub use rounds::RoundEngine;
pub use topology::{Neighbors, Topology, TopologyError};

/// Identifies a node in a simulated network (dense indices `0..n`).
pub type NodeId = usize;
