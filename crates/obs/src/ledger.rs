//! The grain ledger: one incremental fold of a trace into per-node
//! conservation books.
//!
//! Algorithm 1 rests on one invariant — weight is conserved system-wide —
//! which the runtime enforces as exact grain conservation. Every replay
//! that checks it (`trace-report`, the causal provenance, `dyn-report`
//! and the live console) folds the trace through this [`Ledger`], so the
//! identity is written once:
//!
//! ```text
//! final = base + merged + returned − split + injected − forgotten − voided
//! ```
//!
//! * `base` is `initial_grains / nodes`, or 0 for a node that joined
//!   mid-run (its whole unit arrives as a declared injection);
//! * `split`, `merged` and `returned` sum the node's `grain_delta` events;
//! * `injected` and `forgotten` sum its `sensor_drift` re-reads, plus a
//!   joiner's declared unit;
//! * `voided` is the net of its `grains_voided` rollbacks,
//!   `merged + returned − split + injected − forgotten`.
//!
//! The ledger also keeps each node's durable checkpoint sums (the live
//! console's running totals), its `peer_final` outcome, and the auditor's
//! settled [`AuditVerdict`].

use std::collections::BTreeMap;

use crate::event::{GrainOp, TraceEvent};
use crate::json::{field, unum, Json};

/// Grains moved in each wire direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Moves {
    /// Grains split away to peers.
    pub split: u64,
    /// Grains merged in from peers.
    pub merged: u64,
    /// Grains returned after abandoned retransmissions.
    pub returned: u64,
}

impl Moves {
    /// `merged + returned − split`.
    pub fn net(&self) -> i128 {
        i128::from(self.merged) + i128::from(self.returned) - i128::from(self.split)
    }

    fn add(&mut self, other: &Moves) {
        self.split += other.split;
        self.merged += other.merged;
        self.returned += other.returned;
    }
}

/// The five terms `grains_voided` rollbacks took back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Voided {
    /// Voided wire movements.
    pub moves: Moves,
    /// Voided drift injections.
    pub injected: u64,
    /// Voided drift decay.
    pub forgotten: u64,
}

impl Voided {
    /// `merged + returned − split + injected − forgotten`.
    pub fn net(&self) -> i128 {
        self.moves.net() + i128::from(self.injected) - i128::from(self.forgotten)
    }
}

/// One node's books.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeBooks {
    /// Whether the node joined mid-run (its base is then 0).
    pub joined: bool,
    /// `grain_delta` events traced: a node can move zero grains and still
    /// be active.
    pub deltas: u64,
    /// Σ `grain_delta` movements.
    pub moved: Moves,
    /// Σ durable `peer_checkpoint` batches.
    pub checkpointed: Moves,
    /// Σ `grains_voided` rollbacks.
    pub voided: Voided,
    /// Grains injected by drift re-reads, plus a joiner's unit.
    pub injected: u64,
    /// Grains decayed away by drift re-reads.
    pub forgotten: u64,
    /// Outcome from `peer_final` (`"completed"`, `"retired"`, `"dead"`,
    /// `"panicked"`), when recorded.
    pub outcome: Option<String>,
    /// Grains held at shutdown, when a `peer_final` was recorded.
    pub final_grains: Option<u64>,
}

impl NodeBooks {
    /// `injected − forgotten`, before voiding.
    pub fn dynamic(&self) -> i128 {
        i128::from(self.injected) - i128::from(self.forgotten)
    }

    /// Net dynamic mass that survived the rollbacks:
    /// `injected − forgotten − (voided injected − voided forgotten)`.
    pub fn durable_dynamic(&self) -> i128 {
        self.dynamic() - i128::from(self.voided.injected) + i128::from(self.voided.forgotten)
    }

    fn absorb(&mut self, other: &NodeBooks) {
        self.deltas += other.deltas;
        self.moved.add(&other.moved);
        self.checkpointed.add(&other.checkpointed);
        self.voided.moves.add(&other.voided.moves);
        self.voided.injected += other.voided.injected;
        self.voided.forgotten += other.voided.forgotten;
        self.injected += other.injected;
        self.forgotten += other.forgotten;
    }
}

/// The in-run auditor's verdict, copied from the `audit_summary` event.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditVerdict {
    /// Grains minted at start.
    pub initial: u64,
    /// Grains held by completed peers at shutdown.
    pub final_grains: u64,
    /// Declared gains.
    pub gains: u64,
    /// Declared losses.
    pub losses: u64,
    /// Declared dynamic injections (drift re-reads and joins).
    pub injected: u64,
    /// Declared dynamic decay (drift forgetting).
    pub forgotten: u64,
    /// Books closed exactly.
    pub exact: bool,
    /// Conservation held.
    pub conserved: bool,
}

impl AuditVerdict {
    /// Encodes the verdict as one JSON object; `final_key` names the
    /// final-count field (`"final"` in `trace-report`, `"final_grains"`
    /// on the live console).
    pub fn to_json(&self, final_key: &str) -> Json {
        Json::Obj(vec![
            field("initial", unum(self.initial)),
            field(final_key, unum(self.final_grains)),
            field("gains", unum(self.gains)),
            field("losses", unum(self.losses)),
            field("injected", unum(self.injected)),
            field("forgotten", unum(self.forgotten)),
            field("exact", Json::Bool(self.exact)),
            field("conserved", Json::Bool(self.conserved)),
        ])
    }
}

/// The conservation books of one trace, folded event by event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// `(nodes, initial_grains)` from `cluster_started`, once seen.
    pub started: Option<(usize, u64)>,
    /// Per-node books, keyed by node id.
    pub books: BTreeMap<usize, NodeBooks>,
    /// The auditor's settled verdict, once seen.
    pub audit: Option<AuditVerdict>,
}

impl Ledger {
    /// Folds one event; events that carry no ledger term are ignored. A
    /// retirement's handoff already shows up as an ordinary split on the
    /// retiring node, so `peer_retired` adds nothing either.
    pub fn record(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::ClusterStarted {
                nodes,
                initial_grains,
            } => self.started = Some((*nodes, *initial_grains)),
            TraceEvent::GrainDelta {
                node, op, grains, ..
            } => {
                let b = self.books.entry(*node).or_default();
                b.deltas += 1;
                match op {
                    GrainOp::Split => b.moved.split += grains,
                    GrainOp::Merge => b.moved.merged += grains,
                    GrainOp::Return => b.moved.returned += grains,
                }
            }
            TraceEvent::PeerCheckpoint {
                node,
                split,
                merged,
                returned,
                ..
            } => {
                let c = &mut self.books.entry(*node).or_default().checkpointed;
                c.split += split;
                c.merged += merged;
                c.returned += returned;
            }
            TraceEvent::GrainsVoided {
                node,
                split,
                merged,
                returned,
                injected,
                forgotten,
                ..
            } => {
                let v = &mut self.books.entry(*node).or_default().voided;
                v.moves.split += split;
                v.moves.merged += merged;
                v.moves.returned += returned;
                v.injected += injected;
                v.forgotten += forgotten;
            }
            TraceEvent::SensorDrift {
                node,
                injected,
                forgotten,
                ..
            } => {
                let b = self.books.entry(*node).or_default();
                b.injected += injected;
                b.forgotten += forgotten;
            }
            TraceEvent::PeerJoined { node, grains, .. } => {
                let b = self.books.entry(*node).or_default();
                b.joined = true;
                b.injected += grains;
            }
            TraceEvent::PeerFinal {
                node,
                outcome,
                grains,
            } => {
                let b = self.books.entry(*node).or_default();
                b.outcome = Some(outcome.clone());
                b.final_grains = Some(*grains);
            }
            TraceEvent::AuditSummary {
                initial,
                final_grains,
                gains,
                losses,
                injected,
                forgotten,
                exact,
                conserved,
            } => {
                self.audit = Some(AuditVerdict {
                    initial: *initial,
                    final_grains: *final_grains,
                    gains: *gains,
                    losses: *losses,
                    injected: *injected,
                    forgotten: *forgotten,
                    exact: *exact,
                    conserved: *conserved,
                });
            }
            _ => {}
        }
    }

    /// Nodes declared by `cluster_started` (0 before it).
    pub fn nodes(&self) -> usize {
        self.started.map_or(0, |(n, _)| n)
    }

    /// Grains minted at start (0 before `cluster_started`).
    pub fn initial_grains(&self) -> u64 {
        self.started.map_or(0, |(_, g)| g)
    }

    /// The node's starting mass: `initial_grains / nodes`, or 0 for a
    /// joiner (or before `cluster_started`).
    pub fn base(&self, node: usize) -> u64 {
        match self.started {
            Some((n, g)) if n > 0 && !self.books.get(&node).is_some_and(|b| b.joined) => {
                g / n as u64
            }
            _ => 0,
        }
    }

    /// What the node should hold at shutdown:
    /// `base + merged + returned − split + injected − forgotten − voided`.
    pub fn expected(&self, node: usize) -> i128 {
        let base = i128::from(self.base(node));
        match self.books.get(&node) {
            Some(b) => base + b.moved.net() + b.dynamic() - b.voided.net(),
            None => base,
        }
    }

    /// `final − expected`; `Some(0)` means the node's books close exactly.
    /// `None` when it panicked (its books are unaccounted) or never
    /// reported a final.
    pub fn drift(&self, node: usize) -> Option<i128> {
        let b = self.books.get(&node)?;
        if b.outcome.as_deref() == Some("panicked") {
            return None;
        }
        Some(i128::from(b.final_grains?) - self.expected(node))
    }

    /// Every term summed over all nodes (outcome and final left empty).
    pub fn totals(&self) -> NodeBooks {
        let mut t = NodeBooks::default();
        for b in self.books.values() {
            t.absorb(b);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(events: &[TraceEvent]) -> Ledger {
        let mut ledger = Ledger::default();
        for ev in events {
            ledger.record(ev);
        }
        ledger
    }

    fn delta(node: usize, op: GrainOp, grains: u64) -> TraceEvent {
        TraceEvent::GrainDelta {
            node,
            incarnation: 0,
            op,
            grains,
            peer: (node + 1) % 4,
            lamport: None,
            seq: None,
            span_inc: None,
            span_seq: None,
            wait_us: None,
            transit_us: None,
        }
    }

    fn final_ev(node: usize, outcome: &str, grains: u64) -> TraceEvent {
        TraceEvent::PeerFinal {
            node,
            outcome: outcome.to_string(),
            grains,
        }
    }

    /// One event list exercising every term: split, merge, return,
    /// checkpoint, a void of all five fields, drift, join, retire, and a
    /// panicked final.
    #[test]
    fn every_term_reconciles_in_one_identity() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 3,
                initial_grains: 3000,
            },
            // Node 0: 1000 − 300 + 50 (return) + 200 (merge) = 950.
            delta(0, GrainOp::Split, 300),
            delta(0, GrainOp::Return, 50),
            delta(0, GrainOp::Merge, 200),
            TraceEvent::PeerCheckpoint {
                node: 0,
                incarnation: 0,
                split: 300,
                merged: 200,
                returned: 50,
            },
            // Node 1 merges 250, splits 200, re-reads its sensor, then
            // crashes: the unflushed batch is voided, all five terms.
            delta(1, GrainOp::Merge, 250),
            delta(1, GrainOp::Split, 200),
            TraceEvent::SensorDrift {
                node: 1,
                incarnation: 0,
                injected: 1000,
                forgotten: 400,
                tick: 9,
            },
            TraceEvent::GrainsVoided {
                node: 1,
                incarnation: 0,
                split: 200,
                merged: 250,
                returned: 7,
                injected: 1000,
                forgotten: 400,
            },
            // After the restart it re-reads again, durably this time.
            TraceEvent::SensorDrift {
                node: 1,
                incarnation: 1,
                injected: 1000,
                forgotten: 500,
                tick: 12,
            },
            // Node 2 hands everything off and retires.
            delta(2, GrainOp::Split, 1000),
            TraceEvent::PeerRetired {
                node: 2,
                grains: 1000,
                at: 0.4,
            },
            // Node 3 joins with a 4096-grain unit and absorbs the handoff.
            TraceEvent::PeerJoined {
                node: 3,
                grains: 4096,
                at: 0.25,
            },
            delta(3, GrainOp::Merge, 1000),
            delta(3, GrainOp::Split, 100),
            final_ev(0, "completed", 950),
            // 1000 + 250 − 200 + 2000 − 900 − (250 + 7 − 200 + 1000 − 400).
            final_ev(1, "completed", 1493),
            final_ev(2, "retired", 0),
            final_ev(3, "panicked", 0),
        ];
        let ledger = fold(&events);
        assert_eq!(ledger.nodes(), 3);
        assert_eq!(ledger.initial_grains(), 3000);

        // (node, base, expected, drift, outcome)
        let table: [(usize, u64, i128, Option<i128>, &str); 4] = [
            (0, 1000, 950, Some(0), "completed"),
            (1, 1000, 1493, Some(0), "completed"),
            (2, 1000, 0, Some(0), "retired"),
            (3, 0, 4996, None, "panicked"),
        ];
        for (node, base, expected, drift, outcome) in table {
            assert_eq!(ledger.base(node), base, "node {node} base");
            assert_eq!(ledger.expected(node), expected, "node {node} expected");
            assert_eq!(ledger.drift(node), drift, "node {node} drift");
            let b = &ledger.books[&node];
            assert_eq!(b.outcome.as_deref(), Some(outcome), "node {node} outcome");
        }

        let n0 = &ledger.books[&0];
        assert_eq!(
            n0.checkpointed,
            Moves {
                split: 300,
                merged: 200,
                returned: 50
            }
        );
        let n1 = &ledger.books[&1];
        assert_eq!(n1.voided.net(), 250 + 7 - 200 + 1000 - 400);
        assert_eq!(n1.dynamic(), 2000 - 900);
        assert_eq!(n1.durable_dynamic(), 1000 - 500);
        let n3 = &ledger.books[&3];
        assert!(n3.joined);
        assert_eq!(n3.injected, 4096);

        let t = ledger.totals();
        assert_eq!(t.deltas, 8);
        assert_eq!(t.injected, 2000 + 4096);
        assert_eq!(t.voided.forgotten, 400);
        assert_eq!(t.checkpointed.split, 300);
    }

    /// A perturbed final shows up as signed drift; a node without a final
    /// has none.
    #[test]
    fn drift_is_final_minus_expected() {
        let mut events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            delta(0, GrainOp::Split, 10),
            delta(1, GrainOp::Merge, 10),
            final_ev(0, "completed", 993),
        ];
        let ledger = fold(&events);
        assert_eq!(ledger.drift(0), Some(3));
        assert_eq!(ledger.drift(1), None, "no final recorded");
        events.push(final_ev(1, "dead", 1010));
        assert_eq!(fold(&events).drift(1), Some(0));
    }

    #[test]
    fn audit_summary_is_kept_verbatim() {
        let ledger = fold(&[TraceEvent::AuditSummary {
            initial: 10,
            final_grains: 12,
            gains: 1,
            losses: 0,
            injected: 3,
            forgotten: 1,
            exact: true,
            conserved: true,
        }]);
        let a = ledger.audit.expect("verdict");
        assert_eq!((a.final_grains, a.injected, a.forgotten), (12, 3, 1));
        let json = a.to_json("final").to_string();
        assert!(json.contains("\"final\":12"), "{json}");
    }
}
