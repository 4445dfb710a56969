//! Happens-before reconstruction: the causal DAG, convergence critical
//! path, grain provenance, and the influence matrix — all derived offline
//! from a `--trace` JSONL file.
//!
//! Every message path in the stack stamps its events with a Lamport clock
//! and a *span id*:
//!
//! * simulation engines give each send the span `(from, seq)` (incarnation
//!   0) and each delivery names it back via `span_seq`;
//! * the deployment runtime gives each outgoing half the span
//!   `(node, incarnation, seq)` — carried in the v3 wire frame — and each
//!   merge/return names the parent span it consumed.
//!
//! [`CausalReport::from_events`] rebuilds the happens-before DAG from
//! those stamps:
//!
//! * **vertices** are the causally stamped events (sends, deliveries,
//!   grain splits/merges/returns carrying a `lamport` field);
//! * **program edges** (weight 0) chain each node's events in emission
//!   order — one peer is one thread, so file order *is* program order;
//! * **cross edges** (weight 1 per message hop) connect a send/split to
//!   every delivery/merge naming its span, and a split to the return that
//!   brought its grains home (weight 0 — a timeout is not a hop).
//!
//! From the DAG the report derives:
//!
//! * **convergence critical path** — the longest chain of message hops
//!   from any initial input to an event at or before the trace's earliest
//!   convergence marker, with per-hop Lamport and trace-clock latency
//!   attribution;
//! * **grain provenance** — for every node, which origin nodes' grains it
//!   absorbed, reconciled *exactly* (i128 arithmetic, zero drift
//!   tolerated) against the auditor's ledgers: checkpoint-delimited delta
//!   segments are matched against `GrainsVoided` rollbacks so only
//!   durable movements count, and the base and the drift/join terms come
//!   from the shared [`Ledger`];
//! * **influence matrix** — for every ordered pair `(i, j)`, whether
//!   node `i`'s initial state causally reached node `j`, and the earliest
//!   round marker (Lamport clock for unmarked traces) where it did;
//! * **clock health** — per-node final clocks, cross-node skew, Lamport
//!   monotonicity violations, and the causal-depth histogram (the same
//!   log-bucketed shape the live metrics registry uses).
//!
//! A clean report means: the DAG is acyclic, every edge strictly
//! increases the Lamport clock, every parent span resolved, and the
//! provenance books closed exactly. Any failure surfaces as a
//! [`CausalAnomaly`], which the CI trace gate fails on.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use crate::event::{parse_jsonl, GrainOp, TraceEvent};
use crate::json::{field, num, str as jstr, unum, Json, JsonError};
use crate::ledger::{Ledger, NodeBooks};
use crate::metrics::{Histogram, HistogramSnapshot, Metrics};
use crate::telemetry::{trajectory, ConvergenceRule};

/// A message span id: `(origin node, origin incarnation, sequence)`.
///
/// Simulation engines always use incarnation 0; runtime spans carry the
/// minting incarnation so a restarted peer's sequence space stays
/// disjoint from its predecessor's.
pub type SpanId = (usize, u64, u64);

/// What a causal DAG vertex describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VertexKind {
    /// A simulator `message_sent`.
    Send,
    /// A simulator `message_delivered`.
    Deliver,
    /// A runtime grain split (half leaving the node).
    Split,
    /// A runtime grain merge (half absorbed).
    Merge,
    /// A runtime grain return (abandoned half coming home).
    Return,
}

impl VertexKind {
    fn as_str(self) -> &'static str {
        match self {
            VertexKind::Send => "send",
            VertexKind::Deliver => "deliver",
            VertexKind::Split => "split",
            VertexKind::Merge => "merge",
            VertexKind::Return => "return",
        }
    }
}

/// One causally stamped event, as a DAG vertex.
#[derive(Debug, Clone, PartialEq)]
struct Vertex {
    /// Node the event happened on.
    node: usize,
    /// The node's Lamport clock at the event.
    lamport: u64,
    /// Index into the original event slice (file order).
    pos: usize,
    /// Trace clock (`at`) for message events, `None` for grain events.
    at: Option<f64>,
    /// The span this vertex mints (sends and splits).
    span: Option<SpanId>,
    /// Merge vertices: the delivered frame's `(wait_us, transit_us)`
    /// stamps — how long it sat in the sender's retry queue and how long
    /// it spent on the wire plus the receiver's ingress queue. `None`
    /// for every other kind and for legacy traces.
    hop_us: Option<(u64, u64)>,
    /// Deliveries, merges and returns: the span they name and the
    /// cross-edge weight (1 per message hop, 0 for a return).
    parent: Option<(ParentRef, u32)>,
    kind: VertexKind,
}

impl Vertex {
    /// The span key this vertex mints, for sends and stamped splits.
    fn minted(&self) -> Option<ParentRef> {
        let (node, inc, seq) = self.span?;
        match self.kind {
            VertexKind::Send => Some(ParentRef::Msg(node, seq)),
            VertexKind::Split => Some(ParentRef::Grain((node, inc, seq))),
            _ => None,
        }
    }
}

/// One message hop on the convergence critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalHop {
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// Span id of the message that carried the dependency.
    pub span: SpanId,
    /// Sender's Lamport clock at the send.
    pub lamport_send: u64,
    /// Receiver's Lamport clock after the fold.
    pub lamport_recv: u64,
    /// Latency of the hop. For runtime grain hops this is real time in
    /// milliseconds, computed as exactly `wait + transit` (the same
    /// floating-point sum, so the decomposition reconciles bit-for-bit).
    /// For simulator message pairs it is the trace-clock difference when
    /// both ends carry an `at` stamp. `None` for legacy runtime traces
    /// without frame time stamps.
    pub latency: Option<f64>,
    /// How long the delivered frame waited on the sender side before the
    /// transmission attempt that got through (retry/backoff delay), in
    /// the same unit as `latency`. Simulator hops are never queued, so
    /// they report `Some(0.0)` whenever `latency` is known.
    pub wait: Option<f64>,
    /// How long the delivered frame spent in transit — channel plus the
    /// receiver's ingress queue — in the same unit as `latency`.
    pub transit: Option<f64>,
}

/// The longest causal chain ending at or before convergence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Message hops on the path (its length in causal depth).
    pub depth: u64,
    /// Round marker of the earliest convergence point, when the trace's
    /// telemetry converged; `None` caps the path at end of trace instead.
    pub converged_round: Option<u64>,
    /// Node the path ends on, `None` when the trace has no causal events.
    pub end_node: Option<usize>,
    /// Lamport clock of the path's final event.
    pub end_lamport: Option<u64>,
    /// The hops, in causal order.
    pub hops: Vec<CriticalHop>,
}

/// One node's grain provenance, replayed with the auditor's arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProvenance {
    /// The node.
    pub node: usize,
    /// Outcome string from `peer_final`, when the trace carries one.
    pub outcome: Option<String>,
    /// Grains minted to the node at start (`initial_grains / nodes`, 0
    /// for a mid-run joiner).
    pub initial: u64,
    /// Durable (non-voided) grains absorbed, keyed by the origin node
    /// that split them away — "whose grains ended up here".
    pub absorbed: BTreeMap<usize, u128>,
    /// Durable grains split away to peers.
    pub split: u128,
    /// Durable grains returned after abandoned retransmissions.
    pub returned: u128,
    /// `initial + Σ absorbed + returned − split`, plus the durable net
    /// drift and join terms, in i128 (cannot wrap).
    pub expected: i128,
    /// Grains held at shutdown, when a `peer_final` was recorded.
    pub final_grains: Option<u64>,
    /// `final − expected`; `Some(0)` means the books closed exactly.
    /// Only computed for completed peers — a dead peer's holdings are
    /// declared losses by the auditor, not ledger errors.
    pub drift: Option<i128>,
}

/// Per-pair causal reachability: did node `i`'s initial state reach `j`?
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InfluenceMatrix {
    /// Matrix dimension (node count).
    pub nodes: usize,
    /// `earliest[i][j]` is the earliest marker at which origin `i`'s
    /// state had causally reached node `j` (`Some(0)` on the diagonal),
    /// `None` if it never did. The marker is the current round index
    /// when the trace carries round/telemetry markers, otherwise the
    /// receiving event's Lamport clock.
    pub earliest: Vec<Vec<Option<u64>>>,
}

impl InfluenceMatrix {
    /// Whether origin `i`'s state causally reached node `j`.
    pub fn reached(&self, i: usize, j: usize) -> bool {
        self.earliest
            .get(i)
            .and_then(|row| row.get(j))
            .is_some_and(Option::is_some)
    }

    /// Ordered pairs (including the diagonal) that were reached.
    pub fn pairs_reached(&self) -> usize {
        self.earliest
            .iter()
            .map(|row| row.iter().filter(|e| e.is_some()).count())
            .sum()
    }
}

/// A red flag from the causal replay; any anomaly fails the CI gate.
#[derive(Debug, Clone, PartialEq)]
pub enum CausalAnomaly {
    /// The reconstructed graph has a cycle — happens-before is a partial
    /// order, so this means corrupt stamps or a corrupt trace.
    Cyclic,
    /// Edges whose Lamport clocks do not strictly increase (a clock
    /// rewind — e.g. a peer that panicked without a death receipt).
    LamportViolations {
        /// Offending edges.
        count: usize,
    },
    /// Deliveries/merges/returns naming a span no send/split minted
    /// (typically a truncated trace).
    UnmatchedParents {
        /// Orphaned events.
        count: usize,
    },
    /// `grains_voided` rollbacks that matched no checkpoint-delimited
    /// delta segment — per-origin attribution cannot be trusted.
    UnmatchedVoids {
        /// Unmatched rollbacks.
        count: usize,
    },
    /// A `peer_checkpoint`'s sums disagree with the grain deltas traced
    /// since the previous checkpoint.
    CheckpointMismatch {
        /// Offending peer.
        node: usize,
        /// Offending incarnation.
        incarnation: u16,
    },
    /// A completed peer's provenance books do not close exactly.
    ProvenanceDrift {
        /// Offending peer.
        node: usize,
        /// `final − expected` in grains.
        drift: i64,
    },
    /// The trace sink hit its size cap: the DAG beyond the marker is
    /// missing.
    TraceTruncated {
        /// Bytes written before the cap fired.
        bytes_written: u64,
    },
    /// JSONL lines with unknown event types were skipped.
    UnknownEvents {
        /// Skipped lines.
        count: usize,
    },
}

impl fmt::Display for CausalAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalAnomaly::Cyclic => write!(f, "happens-before graph has a cycle"),
            CausalAnomaly::LamportViolations { count } => {
                write!(f, "{count} edge(s) with non-increasing Lamport clocks")
            }
            CausalAnomaly::UnmatchedParents { count } => {
                write!(f, "{count} event(s) name a span no send/split minted")
            }
            CausalAnomaly::UnmatchedVoids { count } => {
                write!(f, "{count} void(s) matched no delta segment")
            }
            CausalAnomaly::CheckpointMismatch { node, incarnation } => write!(
                f,
                "node {node} incarnation {incarnation}: checkpoint sums disagree with traced deltas"
            ),
            CausalAnomaly::ProvenanceDrift { node, drift } => {
                write!(f, "node {node}: provenance drift of {drift} grains")
            }
            CausalAnomaly::TraceTruncated { bytes_written } => {
                write!(f, "trace truncated at its size cap ({bytes_written} bytes)")
            }
            CausalAnomaly::UnknownEvents { count } => {
                write!(f, "{count} line(s) with unknown event types were skipped")
            }
        }
    }
}

impl CausalAnomaly {
    /// A machine-readable discriminator for the JSON report.
    pub fn kind(&self) -> &'static str {
        match self {
            CausalAnomaly::Cyclic => "cyclic",
            CausalAnomaly::LamportViolations { .. } => "lamport_violations",
            CausalAnomaly::UnmatchedParents { .. } => "unmatched_parents",
            CausalAnomaly::UnmatchedVoids { .. } => "unmatched_voids",
            CausalAnomaly::CheckpointMismatch { .. } => "checkpoint_mismatch",
            CausalAnomaly::ProvenanceDrift { .. } => "provenance_drift",
            CausalAnomaly::TraceTruncated { .. } => "trace_truncated",
            CausalAnomaly::UnknownEvents { .. } => "unknown_events",
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            field("kind", jstr(self.kind())),
            field("detail", jstr(self.to_string())),
        ];
        match self {
            CausalAnomaly::LamportViolations { count }
            | CausalAnomaly::UnmatchedParents { count }
            | CausalAnomaly::UnmatchedVoids { count }
            | CausalAnomaly::UnknownEvents { count } => {
                fields.push(field("count", unum(*count as u64)));
            }
            CausalAnomaly::CheckpointMismatch { node, incarnation } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("incarnation", unum(*incarnation as u64)));
            }
            CausalAnomaly::ProvenanceDrift { node, drift } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("drift", num(*drift as f64)));
            }
            CausalAnomaly::TraceTruncated { bytes_written } => {
                fields.push(field("bytes_written", unum(*bytes_written)));
            }
            CausalAnomaly::Cyclic => {}
        }
        Json::Obj(fields)
    }
}

/// One checkpoint-delimited run of grain deltas on a `(node, incarnation)`
/// — the unit the supervisor voids when a batch was not durable.
#[derive(Debug, Default)]
struct Segment {
    split: u64,
    merged: u64,
    returned: u64,
    /// Merged grains keyed by the origin node that split them away.
    by_src: BTreeMap<usize, u128>,
    voided: bool,
    /// Whether any delta landed in this segment (distinguishes a fresh
    /// open segment from one that traced zero-grain movements).
    touched: bool,
}

/// Everything the causal replay derived from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalReport {
    /// Events consumed.
    pub events: usize,
    /// Events carrying causal stamps (DAG vertices).
    pub causal_events: usize,
    /// Nodes (declared by `cluster_started`, or inferred from indices).
    pub nodes: usize,
    /// Whether the happens-before graph is cycle-free.
    pub acyclic: bool,
    /// Edges whose Lamport clocks failed to strictly increase.
    pub lamport_violations: usize,
    /// Events naming a span no send/split minted.
    pub unmatched_parents: usize,
    /// Void rollbacks that matched no delta segment.
    pub unmatched_voids: usize,
    /// Same-node program-order edges.
    pub program_edges: usize,
    /// Cross-node (and split→return) span edges.
    pub cross_edges: usize,
    /// Highest Lamport clock observed per node.
    pub node_clocks: BTreeMap<usize, u64>,
    /// `max − min` of the per-node final clocks (0 with < 2 nodes).
    pub clock_skew: u64,
    /// Distribution of causal depth (message hops from any initial
    /// input) over all vertices.
    pub depth: HistogramSnapshot,
    /// Raw per-vertex depths, kept so [`CausalReport::export_metrics`]
    /// can feed a live registry histogram.
    depths: Vec<u64>,
    /// The convergence critical path.
    pub critical_path: CriticalPath,
    /// Per-node provenance, ordered by node id. Empty when the trace
    /// carries no grain accounting.
    pub provenance: Vec<NodeProvenance>,
    /// Whether every completed peer's books closed exactly and every
    /// void/checkpoint reconciled.
    pub provenance_exact: bool,
    /// Pairwise causal reachability.
    pub influence: InfluenceMatrix,
    /// JSONL lines skipped for unknown event types (populated by
    /// [`CausalReport::from_jsonl`]).
    pub unknown_events: usize,
    /// Red flags; empty means the causal layer is healthy.
    pub anomalies: Vec<CausalAnomaly>,
}

/// Largest matrix Display renders cell-by-cell; bigger runs summarize.
const DISPLAY_MATRIX_MAX: usize = 16;

/// The node count: what `cluster_started` declares, widened by any
/// larger index the trace actually uses.
fn node_count(events: &[TraceEvent]) -> usize {
    let mut n = 0usize;
    for ev in events {
        let m = match ev {
            TraceEvent::ClusterStarted { nodes, .. } => *nodes,
            TraceEvent::MessageSent { from, to, .. }
            | TraceEvent::MessageDelivered { from, to, .. }
            | TraceEvent::MessageDropped { from, to, .. } => from.max(to) + 1,
            TraceEvent::GrainDelta { node, peer, .. } => node.max(peer) + 1,
            TraceEvent::TickCompleted { node, .. }
            | TraceEvent::PeerCrashed { node, .. }
            | TraceEvent::PeerRestarted { node, .. }
            | TraceEvent::PeerCheckpoint { node, .. }
            | TraceEvent::GrainsVoided { node, .. }
            | TraceEvent::PeerFinal { node, .. } => node + 1,
            _ => 0,
        };
        n = n.max(m);
    }
    n
}

/// A span key: what a send or split mints, and what a cross-edge child
/// names as the span that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ParentRef {
    /// A simulator message span `(from, seq)`.
    Msg(usize, u64),
    /// A runtime grain span.
    Grain(SpanId),
}

/// ORs `snap` into `reach`, returning the origins newly reached.
fn fold_mask(reach: &mut [u64], snap: &[u64]) -> Vec<usize> {
    let mut fresh = Vec::new();
    for (w, (dst, src)) in reach.iter_mut().zip(snap).enumerate() {
        let new_bits = *src & !*dst;
        *dst |= *src;
        let mut bits = new_bits;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            fresh.push(w * 64 + b);
            bits &= bits - 1;
        }
    }
    fresh
}

impl CausalReport {
    /// Rebuilds the happens-before DAG from a parsed event stream (in
    /// trace-file order) and derives the full report.
    pub fn from_events(events: &[TraceEvent], rule: &ConvergenceRule) -> CausalReport {
        // The convergence point caps the critical path: its file position
        // and round marker.
        let (series, positions) = trajectory(events);
        let converged = rule.first_converged(&series.samples);
        let conv_pos = converged.map(|i| positions[i]);
        let conv_round = converged.map(|i| series.samples[i].round);
        let n = node_count(events);
        let words = n.div_ceil(64);
        let Dag {
            verts,
            out,
            program_edges,
            cross_edges,
            lamport_violations,
            unmatched_parents,
        } = Dag::build(events);

        let mut ledger = Ledger::default();
        // Influence: per-node reach masks, snapshotted at every mint so a
        // delivery absorbs exactly what the sender knew *at send time*.
        let mut reach: Vec<Vec<u64>> = (0..n)
            .map(|i| {
                let mut m = vec![0u64; words];
                m[i / 64] |= 1u64 << (i % 64);
                m
            })
            .collect();
        let mut snaps: HashMap<ParentRef, Vec<u64>> = HashMap::new();
        let mut earliest: Vec<Vec<Option<u64>>> = vec![vec![None; n]; n];
        for (i, row) in earliest.iter_mut().enumerate() {
            row[i] = Some(0);
        }
        // Provenance: checkpoint-delimited delta segments per
        // (node, incarnation); the last entry is the open tail.
        let mut segments: HashMap<(usize, u16), Vec<Segment>> = HashMap::new();

        let mut unmatched_voids = 0usize;
        let mut checkpoint_mismatches: Vec<(usize, u16)> = Vec::new();
        let mut truncated: Option<u64> = None;
        let mut marker: Option<u64> = None;
        let mut cluster_marker = 0u64;
        // Vertices are in file order; `next` walks them alongside.
        let mut next = verts.iter().peekable();

        for (pos, ev) in events.iter().enumerate() {
            ledger.record(ev);
            match ev {
                TraceEvent::RoundCompleted { round, .. } => marker = Some(*round),
                TraceEvent::Telemetry(sample) => marker = Some(sample.round),
                TraceEvent::ClusterTelemetry { .. } => {
                    marker = Some(cluster_marker);
                    cluster_marker += 1;
                }
                TraceEvent::GrainDelta {
                    node,
                    incarnation,
                    op,
                    grains,
                    peer,
                    ..
                } => {
                    // Provenance bookkeeping happens regardless of the
                    // causal stamps, so legacy traces still reconcile.
                    let segs = segments.entry((*node, *incarnation)).or_default();
                    if segs.is_empty() || segs.last().is_some_and(|s| s.voided) {
                        segs.push(Segment::default());
                    }
                    let seg = segs.last_mut().expect("open segment");
                    seg.touched = true;
                    match op {
                        GrainOp::Split => seg.split += grains,
                        GrainOp::Merge => {
                            seg.merged += grains;
                            *seg.by_src.entry(*peer).or_default() += u128::from(*grains);
                        }
                        GrainOp::Return => seg.returned += grains,
                    }
                }
                TraceEvent::PeerCheckpoint {
                    node,
                    incarnation,
                    split,
                    merged,
                    returned,
                } => {
                    // The flushed batch must equal the deltas traced
                    // since the previous checkpoint; close the segment.
                    let segs = segments.entry((*node, *incarnation)).or_default();
                    if segs.is_empty() || segs.last().is_some_and(|s| s.voided) {
                        segs.push(Segment::default());
                    }
                    let seg = segs.last().expect("open segment");
                    if (seg.split, seg.merged, seg.returned) != (*split, *merged, *returned) {
                        checkpoint_mismatches.push((*node, *incarnation));
                    }
                    segs.push(Segment::default());
                }
                // Voided drift terms carry no causal span of their own
                // (re-reads are local), so only the wire 3-tuple matters
                // for segment attribution.
                TraceEvent::GrainsVoided {
                    node,
                    incarnation,
                    split,
                    merged,
                    returned,
                    ..
                } => {
                    // Attribute the rollback to the earliest unvoided
                    // segment with exactly matching sums: the open tail
                    // for a crash before flush, a closed segment for a
                    // stale checkpoint the supervisor refused. A void
                    // with no wire terms has nothing to attribute.
                    let sums = (*split, *merged, *returned);
                    if sums != (0, 0, 0) {
                        let segs = segments.entry((*node, *incarnation)).or_default();
                        match segs
                            .iter_mut()
                            .find(|s| !s.voided && (s.split, s.merged, s.returned) == sums)
                        {
                            Some(seg) => seg.voided = true,
                            None => unmatched_voids += 1,
                        }
                    }
                }
                TraceEvent::TraceTruncated { bytes_written } => {
                    truncated = Some(*bytes_written);
                }
                _ => {}
            }
            // Influence rides the causal stamps: mints snapshot the
            // sender's reach, deliveries and merges fold it in.
            let Some(v) = next.next_if(|v| v.pos == pos) else {
                continue;
            };
            if let Some(key) = v.minted() {
                snaps.insert(key, reach[v.node].clone());
            }
            if let (Some((parent, _)), VertexKind::Deliver | VertexKind::Merge) = (v.parent, v.kind)
            {
                if let Some(snap) = snaps.get(&parent) {
                    for origin in fold_mask(&mut reach[v.node], snap) {
                        if earliest[origin][v.node].is_none() {
                            earliest[origin][v.node] = Some(marker.unwrap_or(v.lamport));
                        }
                    }
                }
            }
        }

        // ---- Clock health ----
        let mut node_clocks: BTreeMap<usize, u64> = BTreeMap::new();
        for v in &verts {
            let c = node_clocks.entry(v.node).or_default();
            *c = (*c).max(v.lamport);
        }
        let clock_skew = match (node_clocks.values().max(), node_clocks.values().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        };

        // ---- Toposort (Kahn) and longest-hop distances ----
        let nv = verts.len();
        let mut indeg = vec![0usize; nv];
        for outs in &out {
            for &(v, _) in outs {
                indeg[v] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..nv).filter(|&v| indeg[v] == 0).collect();
        let mut topo = Vec::with_capacity(nv);
        while let Some(u) = queue.pop_front() {
            topo.push(u);
            for &(v, _) in &out[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        let acyclic = topo.len() == nv;

        let mut dist = vec![0u64; nv];
        let mut prev: Vec<Option<usize>> = vec![None; nv];
        let depth_hist = Histogram::standalone();
        let mut depths = Vec::new();
        if acyclic {
            for &u in &topo {
                for &(v, w) in &out[u] {
                    let d = dist[u] + u64::from(w);
                    if d > dist[v] {
                        dist[v] = d;
                        prev[v] = Some(u);
                    }
                }
            }
            for &d in &dist {
                depth_hist.observe(d);
            }
            depths = dist.clone();
        }

        // ---- Convergence critical path ----
        let end = if acyclic {
            (0..nv)
                .filter(|&v| conv_pos.is_none_or(|cp| verts[v].pos <= cp))
                .max_by_key(|&v| (dist[v], verts[v].lamport))
        } else {
            None
        };
        let mut hops = Vec::new();
        if let Some(end) = end {
            let mut v = end;
            while let Some(u) = prev[v] {
                if verts[u].node != verts[v].node {
                    // A real hop; the parent minted the span it rode.
                    let span = verts[u].span.unwrap_or((verts[u].node, 0, 0));
                    // Runtime merge vertices carry the delivered frame's
                    // wait/transit stamps (real milliseconds); the hop's
                    // latency is their exact f64 sum, so the printed
                    // decomposition reconciles bit-for-bit. Simulator
                    // hops fall back to the trace-clock difference with
                    // zero wait — the simulator has no retry queue.
                    let (wait, transit, latency) = match verts[v].hop_us {
                        Some((w, t)) => {
                            let (w_ms, t_ms) = (w as f64 / 1e3, t as f64 / 1e3);
                            (Some(w_ms), Some(t_ms), Some(w_ms + t_ms))
                        }
                        None => {
                            let lat = verts[u].at.zip(verts[v].at).map(|(a, b)| (b - a).max(0.0));
                            (lat.map(|_| 0.0), lat, lat)
                        }
                    };
                    hops.push(CriticalHop {
                        from: verts[u].node,
                        to: verts[v].node,
                        span,
                        lamport_send: verts[u].lamport,
                        lamport_recv: verts[v].lamport,
                        latency,
                        wait,
                        transit,
                    });
                }
                v = u;
            }
            hops.reverse();
        }
        let critical_path = CriticalPath {
            depth: end.map_or(0, |e| dist[e]),
            converged_round: conv_round,
            end_node: end.map(|e| verts[e].node),
            end_lamport: end.map(|e| verts[e].lamport),
            hops,
        };

        // ---- Provenance: durable movements only, i128-exact ----
        // Wire movements come from the unvoided segments, attributed per
        // origin; the base and the net dynamic terms (drift re-reads and
        // join units, less voided drift) come from the shared ledger.
        let mut touched: Vec<usize> = segments
            .keys()
            .map(|&(node, _)| node)
            .chain(
                ledger
                    .books
                    .iter()
                    .filter(|(_, b)| b.outcome.is_some())
                    .map(|(&node, _)| node),
            )
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let mut provenance = Vec::new();
        let mut drift_anomalies = Vec::new();
        for node in touched {
            let mut absorbed: BTreeMap<usize, u128> = BTreeMap::new();
            let (mut split, mut merged, mut returned) = (0u128, 0u128, 0u128);
            for ((_, _), segs) in segments.iter().filter(|((nd, _), _)| *nd == node) {
                for seg in segs.iter().filter(|s| !s.voided && s.touched) {
                    split += u128::from(seg.split);
                    merged += u128::from(seg.merged);
                    returned += u128::from(seg.returned);
                    for (&src, &g) in &seg.by_src {
                        *absorbed.entry(src).or_default() += g;
                    }
                }
            }
            let books = ledger.books.get(&node);
            let initial = ledger.base(node);
            let expected = i128::from(initial) + merged as i128 + returned as i128 - split as i128
                + books.map_or(0, NodeBooks::durable_dynamic);
            let outcome = books.and_then(|b| b.outcome.clone());
            let final_grains = books.and_then(|b| b.final_grains);
            let drift = match (&outcome, final_grains) {
                (Some(o), Some(g)) if o == "completed" => {
                    let d = i128::from(g) - expected;
                    if d != 0 {
                        drift_anomalies.push(CausalAnomaly::ProvenanceDrift {
                            node,
                            drift: d as i64,
                        });
                    }
                    Some(d)
                }
                _ => None,
            };
            provenance.push(NodeProvenance {
                node,
                outcome,
                initial,
                absorbed,
                split,
                returned,
                expected,
                final_grains,
                drift,
            });
        }
        let provenance_exact =
            drift_anomalies.is_empty() && unmatched_voids == 0 && checkpoint_mismatches.is_empty();

        // ---- Anomalies ----
        let mut anomalies = Vec::new();
        if !acyclic {
            anomalies.push(CausalAnomaly::Cyclic);
        }
        if lamport_violations > 0 {
            anomalies.push(CausalAnomaly::LamportViolations {
                count: lamport_violations,
            });
        }
        if unmatched_parents > 0 {
            anomalies.push(CausalAnomaly::UnmatchedParents {
                count: unmatched_parents,
            });
        }
        if unmatched_voids > 0 {
            anomalies.push(CausalAnomaly::UnmatchedVoids {
                count: unmatched_voids,
            });
        }
        for (node, incarnation) in checkpoint_mismatches {
            anomalies.push(CausalAnomaly::CheckpointMismatch { node, incarnation });
        }
        anomalies.extend(drift_anomalies);
        if let Some(bytes_written) = truncated {
            anomalies.push(CausalAnomaly::TraceTruncated { bytes_written });
        }

        CausalReport {
            events: events.len(),
            causal_events: nv,
            nodes: n,
            acyclic,
            lamport_violations,
            unmatched_parents,
            unmatched_voids,
            program_edges,
            cross_edges,
            node_clocks,
            clock_skew,
            depth: depth_hist.snapshot(),
            depths,
            critical_path,
            provenance,
            provenance_exact,
            influence: InfluenceMatrix { nodes: n, earliest },
            unknown_events: 0,
            anomalies,
        }
    }

    /// Parses a JSONL trace and rebuilds the causal report.
    ///
    /// Unknown event types are skipped and counted (anomalously), like
    /// [`crate::TraceReport::from_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending line on the first
    /// malformed line.
    pub fn from_jsonl(text: &str, rule: &ConvergenceRule) -> Result<CausalReport, JsonError> {
        let (events, unknown) = parse_jsonl(text)?;
        let mut report = CausalReport::from_events(&events, rule);
        if unknown > 0 {
            report.unknown_events = unknown;
            report
                .anomalies
                .push(CausalAnomaly::UnknownEvents { count: unknown });
        }
        Ok(report)
    }

    /// Whether the causal layer is healthy: acyclic, clock-monotone,
    /// fully matched, and exactly reconciled.
    pub fn clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Publishes the report's aggregates into a live metrics registry:
    /// `causal_clock_skew`, `causal_critical_path_depth`, and the
    /// `causal_depth_hops` histogram.
    pub fn export_metrics(&self, metrics: &Metrics) {
        metrics
            .gauge(
                "causal_clock_skew",
                "Max minus min final Lamport clock across nodes",
                &[],
            )
            .set(self.clock_skew as f64);
        metrics
            .gauge(
                "causal_critical_path_depth",
                "Message hops on the convergence critical path",
                &[],
            )
            .set(self.critical_path.depth as f64);
        let hist = metrics.histogram(
            "causal_depth_hops",
            "Causal depth (message hops from any initial input) per event",
            &[],
        );
        for &d in &self.depths {
            hist.observe(d);
        }
    }

    /// Encodes the full report as one JSON object (the `--json` output).
    pub fn to_json(&self) -> Json {
        let opt_u = |v: Option<u64>| v.map_or(Json::Null, unum);
        let hops = self
            .critical_path
            .hops
            .iter()
            .map(|h| {
                Json::Obj(vec![
                    field("from", unum(h.from as u64)),
                    field("to", unum(h.to as u64)),
                    field(
                        "span",
                        Json::Arr(vec![unum(h.span.0 as u64), unum(h.span.1), unum(h.span.2)]),
                    ),
                    field("lamport_send", unum(h.lamport_send)),
                    field("lamport_recv", unum(h.lamport_recv)),
                    field("latency", h.latency.map_or(Json::Null, num)),
                    field("wait", h.wait.map_or(Json::Null, num)),
                    field("transit", h.transit.map_or(Json::Null, num)),
                ])
            })
            .collect();
        let provenance = self
            .provenance
            .iter()
            .map(|p| {
                let absorbed = p
                    .absorbed
                    .iter()
                    .map(|(&src, &g)| {
                        Json::Obj(vec![
                            field("src", unum(src as u64)),
                            field("grains", num(g as f64)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    field("node", unum(p.node as u64)),
                    field("outcome", p.outcome.clone().map_or(Json::Null, jstr)),
                    field("initial", unum(p.initial)),
                    field("absorbed", Json::Arr(absorbed)),
                    field("split", num(p.split as f64)),
                    field("returned", num(p.returned as f64)),
                    field("expected", num(p.expected as f64)),
                    field("final", p.final_grains.map_or(Json::Null, unum)),
                    field("drift", p.drift.map_or(Json::Null, |d| num(d as f64))),
                ])
            })
            .collect();
        let influence = Json::Arr(
            self.influence
                .earliest
                .iter()
                .map(|row| Json::Arr(row.iter().map(|e| opt_u(*e)).collect()))
                .collect(),
        );
        let node_clocks = self
            .node_clocks
            .iter()
            .map(|(&node, &clock)| {
                Json::Obj(vec![
                    field("node", unum(node as u64)),
                    field("max_lamport", unum(clock)),
                ])
            })
            .collect();
        Json::Obj(vec![
            field("events", unum(self.events as u64)),
            field("causal_events", unum(self.causal_events as u64)),
            field("nodes", unum(self.nodes as u64)),
            field("acyclic", Json::Bool(self.acyclic)),
            field("lamport_violations", unum(self.lamport_violations as u64)),
            field("unmatched_parents", unum(self.unmatched_parents as u64)),
            field("unmatched_voids", unum(self.unmatched_voids as u64)),
            field("program_edges", unum(self.program_edges as u64)),
            field("cross_edges", unum(self.cross_edges as u64)),
            field("node_clocks", Json::Arr(node_clocks)),
            field("clock_skew", unum(self.clock_skew)),
            field(
                "depth",
                Json::Obj(vec![
                    field("count", unum(self.depth.count)),
                    field("mean", num(self.depth.mean())),
                    field("p50", num(self.depth.quantile(0.50))),
                    field("p99", num(self.depth.quantile(0.99))),
                    field("max", unum(self.depth.max)),
                ]),
            ),
            field(
                "critical_path",
                Json::Obj(vec![
                    field("depth", unum(self.critical_path.depth)),
                    field("converged_round", opt_u(self.critical_path.converged_round)),
                    field(
                        "end_node",
                        self.critical_path
                            .end_node
                            .map_or(Json::Null, |e| unum(e as u64)),
                    ),
                    field("end_lamport", opt_u(self.critical_path.end_lamport)),
                    field("hops", Json::Arr(hops)),
                ]),
            ),
            field("provenance", Json::Arr(provenance)),
            field("provenance_exact", Json::Bool(self.provenance_exact)),
            field(
                "influence",
                Json::Obj(vec![
                    field("nodes", unum(self.influence.nodes as u64)),
                    field("pairs_reached", unum(self.influence.pairs_reached() as u64)),
                    field("earliest", influence),
                ]),
            ),
            field("unknown_events", unum(self.unknown_events as u64)),
            field(
                "anomalies",
                Json::Arr(self.anomalies.iter().map(CausalAnomaly::to_json).collect()),
            ),
            field("clean", Json::Bool(self.clean())),
        ])
    }

    /// Renders the happens-before DAG in Graphviz DOT. Program-order
    /// edges are dotted, message hops solid and labeled with their span.
    ///
    /// Rebuilds the vertex/edge structure from the same event slice the
    /// report was derived from (the report itself keeps only aggregates).
    pub fn to_dot(events: &[TraceEvent]) -> String {
        // Reuse the exact construction path so the picture matches the
        // report, then walk the structure into DOT.
        let dag = Dag::build(events);
        let mut s = String::from("digraph causal {\n  rankdir=LR;\n  node [shape=box];\n");
        for (i, v) in dag.verts.iter().enumerate() {
            let span = v
                .span
                .map(|(o, inc, q)| format!(" ({o},{inc},{q})"))
                .unwrap_or_default();
            s.push_str(&format!(
                "  e{i} [label=\"n{}@{} {}{}\"];\n",
                v.node,
                v.lamport,
                v.kind.as_str(),
                span
            ));
        }
        for (u, outs) in dag.out.iter().enumerate() {
            for &(v, w) in outs {
                if w == 0 {
                    s.push_str(&format!("  e{u} -> e{v} [style=dotted];\n"));
                } else {
                    s.push_str(&format!("  e{u} -> e{v};\n"));
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

/// The happens-before structure — vertices in file order, program and
/// cross edges — and the health counts found building it. The report
/// and the DOT renderer share this one construction.
struct Dag {
    verts: Vec<Vertex>,
    out: Vec<Vec<(usize, u32)>>,
    program_edges: usize,
    cross_edges: usize,
    /// Edges whose Lamport clocks do not strictly increase.
    lamport_violations: usize,
    /// Children naming no span, or a span nothing minted.
    unmatched_parents: usize,
}

impl Dag {
    fn build(events: &[TraceEvent]) -> Dag {
        let mut dag = Dag {
            verts: Vec::new(),
            out: Vec::new(),
            program_edges: 0,
            cross_edges: 0,
            lamport_violations: 0,
            unmatched_parents: 0,
        };
        let mut last_on_node: HashMap<usize, usize> = HashMap::new();
        // Span mint sites: simulator messages by (from, seq), runtime
        // grain halves by the full (node, incarnation, seq) triple.
        let mut minted: HashMap<ParentRef, usize> = HashMap::new();
        for (pos, ev) in events.iter().enumerate() {
            let v = match ev {
                TraceEvent::MessageSent {
                    from,
                    at,
                    lamport: Some(l),
                    seq: Some(q),
                    ..
                } => Vertex {
                    node: *from,
                    lamport: *l,
                    pos,
                    at: Some(*at),
                    span: Some((*from, 0, *q)),
                    hop_us: None,
                    parent: None,
                    kind: VertexKind::Send,
                },
                TraceEvent::MessageDelivered {
                    from,
                    to,
                    at,
                    lamport: Some(l),
                    span_seq: Some(q),
                    ..
                } => Vertex {
                    node: *to,
                    lamport: *l,
                    pos,
                    at: Some(*at),
                    span: None,
                    hop_us: None,
                    parent: Some((ParentRef::Msg(*from, *q), 1)),
                    kind: VertexKind::Deliver,
                },
                TraceEvent::GrainDelta {
                    node,
                    incarnation,
                    op,
                    peer,
                    lamport: Some(l),
                    seq,
                    span_inc,
                    span_seq,
                    wait_us,
                    transit_us,
                    ..
                } => {
                    // A merge's parent is the *sender's* split; a
                    // return's is this node's own earlier split — a
                    // timeout, not a message hop.
                    let (kind, parent) = match op {
                        GrainOp::Split => (VertexKind::Split, None),
                        GrainOp::Merge => (VertexKind::Merge, Some((*peer, 1))),
                        GrainOp::Return => (VertexKind::Return, Some((*node, 0))),
                    };
                    let parent = parent.and_then(|(origin, weight)| {
                        let span = span_inc.zip(*span_seq);
                        if span.is_none() {
                            dag.unmatched_parents += 1;
                        }
                        span.map(|(i, q)| (ParentRef::Grain((origin, i, q)), weight))
                    });
                    Vertex {
                        node: *node,
                        lamport: *l,
                        pos,
                        at: None,
                        span: seq.map(|q| (*node, u64::from(*incarnation), q)),
                        hop_us: wait_us.zip(*transit_us),
                        parent,
                        kind,
                    }
                }
                _ => continue,
            };
            // Program edge from the node's previous event, checking clock
            // monotonicity along its own timeline.
            let id = dag.verts.len();
            if let Some(prev) = last_on_node.insert(v.node, id) {
                if dag.verts[prev].lamport >= v.lamport {
                    dag.lamport_violations += 1;
                }
                dag.out[prev].push((id, 0));
                dag.program_edges += 1;
            }
            if let Some(key) = v.minted() {
                minted.insert(key, id);
            }
            dag.verts.push(v);
            dag.out.push(Vec::new());
        }
        // Cross edges resolve against the complete mint map, so a trace
        // whose sink reordered a send behind its delivery still links
        // (and then fails the Lamport/cycle checks honestly).
        for child in 0..dag.verts.len() {
            let Some((parent, weight)) = dag.verts[child].parent else {
                continue;
            };
            match minted.get(&parent) {
                Some(&p) => {
                    if dag.verts[p].lamport >= dag.verts[child].lamport {
                        dag.lamport_violations += 1;
                    }
                    dag.out[p].push((child, weight));
                    dag.cross_edges += 1;
                }
                None => dag.unmatched_parents += 1,
            }
        }
        dag
    }
}

impl fmt::Display for CausalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "causal: {} events ({} causal), {} nodes, {} program + {} cross edges",
            self.events, self.causal_events, self.nodes, self.program_edges, self.cross_edges
        )?;
        writeln!(
            f,
            "dag: {}, {} lamport violation(s), {} unmatched parent(s)",
            if self.acyclic { "acyclic" } else { "CYCLIC" },
            self.lamport_violations,
            self.unmatched_parents
        )?;
        if !self.node_clocks.is_empty() {
            writeln!(
                f,
                "clocks: skew {} (per-node max: {})",
                self.clock_skew,
                self.node_clocks
                    .iter()
                    .map(|(n, c)| format!("{n}:{c}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            )?;
        }
        if self.depth.count > 0 {
            writeln!(
                f,
                "depth: p50 {:.1} p99 {:.1} max {} hops over {} events",
                self.depth.quantile(0.50),
                self.depth.quantile(0.99),
                self.depth.max,
                self.depth.count
            )?;
        }
        let cp = &self.critical_path;
        match cp.end_node {
            Some(end) => {
                let conv = cp
                    .converged_round
                    .map_or("end of trace".to_string(), |r| format!("round {r}"));
                writeln!(
                    f,
                    "critical path: {} hop(s) to node {} (lamport {}), capped at {}",
                    cp.depth,
                    end,
                    cp.end_lamport.unwrap_or(0),
                    conv
                )?;
                for (i, h) in cp.hops.iter().enumerate() {
                    let lat = match (h.latency, h.wait.zip(h.transit)) {
                        (Some(l), Some((w, t))) => {
                            format!(", {l:.3} = wait {w:.3} + transit {t:.3}")
                        }
                        (Some(l), None) => format!(", {l:.3} clock units"),
                        _ => String::new(),
                    };
                    writeln!(
                        f,
                        "  hop {:>2}: {} -> {} span ({},{},{}) lamport {} -> {}{}",
                        i + 1,
                        h.from,
                        h.to,
                        h.span.0,
                        h.span.1,
                        h.span.2,
                        h.lamport_send,
                        h.lamport_recv,
                        lat
                    )?;
                }
            }
            None => writeln!(f, "critical path: no causal events")?,
        }
        if !self.provenance.is_empty() {
            writeln!(
                f,
                "provenance ({}):",
                if self.provenance_exact {
                    "exact"
                } else {
                    "INEXACT"
                }
            )?;
            for p in &self.provenance {
                let absorbed = if p.absorbed.is_empty() {
                    "-".to_string()
                } else {
                    p.absorbed
                        .iter()
                        .map(|(s, g)| format!("{s}:{g}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                writeln!(
                    f,
                    "  node {:>3} [{}] initial {} absorbed {{{}}} returned {} split {} expected {} final {} drift {}",
                    p.node,
                    p.outcome.as_deref().unwrap_or("?"),
                    p.initial,
                    absorbed,
                    p.returned,
                    p.split,
                    p.expected,
                    p.final_grains.map_or("-".to_string(), |g| g.to_string()),
                    p.drift.map_or("-".to_string(), |d| d.to_string()),
                )?;
            }
        }
        writeln!(
            f,
            "influence: {}/{} pairs reached",
            self.influence.pairs_reached(),
            self.influence.nodes * self.influence.nodes
        )?;
        if self.influence.nodes > 0 && self.influence.nodes <= DISPLAY_MATRIX_MAX {
            writeln!(
                f,
                "  (rows = origin, cols = destination, cell = earliest marker)"
            )?;
            for (i, row) in self.influence.earliest.iter().enumerate() {
                let cells = row
                    .iter()
                    .map(|e| e.map_or(".".to_string(), |m| m.to_string()))
                    .collect::<Vec<_>>()
                    .join(" ");
                writeln!(f, "  {i:>3}: {cells}")?;
            }
        }
        if self.unknown_events > 0 {
            writeln!(f, "unknown events: {} line(s) skipped", self.unknown_events)?;
        }
        if self.anomalies.is_empty() {
            writeln!(f, "verdict: CLEAN")?;
        } else {
            writeln!(f, "verdict: {} ANOMALY(IES)", self.anomalies.len())?;
            for a in &self.anomalies {
                writeln!(f, "  ! {a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::telemetry::TelemetrySample;

    fn sent(from: usize, to: usize, at: f64, lamport: u64, seq: u64) -> TraceEvent {
        TraceEvent::MessageSent {
            from,
            to,
            bytes: 64,
            at,
            lamport: Some(lamport),
            seq: Some(seq),
        }
    }

    fn delivered(from: usize, to: usize, at: f64, lamport: u64, span_seq: u64) -> TraceEvent {
        TraceEvent::MessageDelivered {
            from,
            to,
            bytes: 64,
            at,
            lamport: Some(lamport),
            span_seq: Some(span_seq),
        }
    }

    fn split(node: usize, inc: u16, grains: u64, peer: usize, l: u64, seq: u64) -> TraceEvent {
        TraceEvent::GrainDelta {
            node,
            incarnation: inc,
            op: GrainOp::Split,
            grains,
            peer,
            lamport: Some(l),
            seq: Some(seq),
            span_inc: None,
            span_seq: None,
            wait_us: None,
            transit_us: None,
        }
    }

    fn merge(
        node: usize,
        inc: u16,
        grains: u64,
        peer: usize,
        l: u64,
        span_inc: u64,
        span_seq: u64,
    ) -> TraceEvent {
        TraceEvent::GrainDelta {
            node,
            incarnation: inc,
            op: GrainOp::Merge,
            grains,
            peer,
            lamport: Some(l),
            seq: None,
            span_inc: Some(span_inc),
            span_seq: Some(span_seq),
            wait_us: None,
            transit_us: None,
        }
    }

    fn merge_timed(
        node: usize,
        grains: u64,
        peer: usize,
        l: u64,
        span_seq: u64,
        wait_us: u64,
        transit_us: u64,
    ) -> TraceEvent {
        TraceEvent::GrainDelta {
            node,
            incarnation: 0,
            op: GrainOp::Merge,
            grains,
            peer,
            lamport: Some(l),
            seq: None,
            span_inc: Some(0),
            span_seq: Some(span_seq),
            wait_us: Some(wait_us),
            transit_us: Some(transit_us),
        }
    }

    /// A 3-node relay: 0 -> 1 -> 2. The chain is the critical path.
    fn relay() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ClusterStarted {
                nodes: 3,
                initial_grains: 3000,
            },
            sent(0, 1, 0.0, 1, 1),
            delivered(0, 1, 1.0, 2, 1),
            sent(1, 2, 1.0, 3, 1),
            delivered(1, 2, 2.0, 4, 1),
        ]
    }

    #[test]
    fn relay_dag_is_acyclic_with_two_hop_critical_path() {
        let report = CausalReport::from_events(&relay(), &ConvergenceRule::TRACE_REPORT);
        assert!(report.acyclic);
        assert_eq!(report.causal_events, 4);
        assert_eq!(report.lamport_violations, 0);
        assert_eq!(report.unmatched_parents, 0);
        assert_eq!(report.cross_edges, 2);
        assert_eq!(report.critical_path.depth, 2);
        assert_eq!(report.critical_path.end_node, Some(2));
        assert_eq!(report.critical_path.hops.len(), 2);
        let h = &report.critical_path.hops[0];
        assert_eq!((h.from, h.to), (0, 1));
        assert_eq!(h.span, (0, 0, 1));
        assert_eq!(h.latency, Some(1.0));
        // Sim hops have no frame stamps: the whole latency is booked as transit.
        assert_eq!(h.wait, Some(0.0));
        assert_eq!(h.transit, Some(1.0));
        assert!(report.clean(), "{:?}", report.anomalies);
    }

    #[test]
    fn stamped_merge_hops_split_latency_into_wait_plus_transit() {
        // One split on node 0 delivered to node 1 with frame stamps:
        // wait 1500 us, transit 2500 us -> 1.5 ms + 2.5 ms = 4 ms exactly.
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            split(0, 0, 100, 1, 1, 1),
            merge_timed(1, 100, 0, 2, 1, 1_500, 2_500),
        ];
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        let hop = report
            .critical_path
            .hops
            .iter()
            .find(|h| h.wait != Some(0.0) && h.wait.is_some())
            .expect("stamped hop on critical path");
        let (w, t) = (hop.wait.unwrap(), hop.transit.unwrap());
        assert_eq!(w, 1.5);
        assert_eq!(t, 2.5);
        // The acceptance identity: latency is the *same* f64 sum, bit-exact.
        assert_eq!(hop.latency, Some(w + t));
    }

    #[test]
    fn influence_matrix_tracks_transitive_reach_with_markers() {
        let mut events = relay();
        // Round markers so "by round r" is round-indexed.
        events.insert(
            1,
            TraceEvent::RoundCompleted {
                round: 0,
                live: 3,
                sent: 0,
                delivered: 0,
                dropped: 0,
            },
        );
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        let inf = &report.influence;
        assert!(inf.reached(0, 1));
        assert!(inf.reached(0, 2), "influence must be transitive");
        assert!(inf.reached(1, 2));
        assert!(!inf.reached(2, 0), "nothing flowed backwards");
        assert!(!inf.reached(1, 0));
        assert_eq!(inf.earliest[0][1], Some(0), "marker is the current round");
        // Diagonal is reached at marker 0 by definition.
        assert!(inf.reached(1, 1));
        assert_eq!(inf.pairs_reached(), 3 + 3);
    }

    /// Node 1's state rides a message *sent before* node 1 learned of
    /// node 2 — the snapshot-at-send rule must not leak later knowledge.
    #[test]
    fn influence_snapshots_at_send_time() {
        let events = vec![
            sent(0, 1, 0.0, 1, 1),      // 0 sends before knowing anything
            delivered(2, 0, 0.5, 2, 7), // unmatched: span (2,7) never sent
            delivered(0, 1, 1.0, 2, 1),
        ];
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        // The delivery of (0,1) folds 0's snapshot from *before* node 2
        // could have influenced node 0 — and the (2,7) parent is
        // unmatched anyway.
        assert!(report.influence.reached(0, 1));
        assert!(!report.influence.reached(2, 1));
        assert_eq!(report.unmatched_parents, 1);
        assert!(!report.clean());
    }

    #[test]
    fn grain_spans_link_merges_and_reconcile_provenance_exactly() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            split(0, 0, 300, 1, 1, 1),
            merge(1, 0, 300, 0, 2, 0, 1),
            TraceEvent::PeerCheckpoint {
                node: 0,
                incarnation: 0,
                split: 300,
                merged: 0,
                returned: 0,
            },
            TraceEvent::PeerCheckpoint {
                node: 1,
                incarnation: 0,
                split: 0,
                merged: 300,
                returned: 0,
            },
            TraceEvent::PeerFinal {
                node: 0,
                outcome: "completed".to_string(),
                grains: 700,
            },
            TraceEvent::PeerFinal {
                node: 1,
                outcome: "completed".to_string(),
                grains: 1300,
            },
        ];
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(report.acyclic);
        assert_eq!(report.cross_edges, 1);
        assert!(report.provenance_exact, "{:?}", report.anomalies);
        let p1 = report.provenance.iter().find(|p| p.node == 1).unwrap();
        assert_eq!(p1.absorbed.get(&0), Some(&300u128));
        assert_eq!(p1.expected, 1300);
        assert_eq!(p1.drift, Some(0));
        assert!(report.clean(), "{:?}", report.anomalies);
    }

    /// A crash voids the unflushed batch: the voided segment's merges
    /// must not count toward provenance, and the books still close.
    #[test]
    fn voided_segments_are_excluded_from_provenance() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            split(0, 0, 300, 1, 1, 1),
            merge(1, 0, 300, 0, 2, 0, 1),
            // Node 1 crashes before flushing; the supervisor voids its
            // batch and node 0's half eventually comes home.
            TraceEvent::GrainsVoided {
                node: 1,
                incarnation: 0,
                split: 0,
                merged: 300,
                returned: 0,
                injected: 0,
                forgotten: 0,
            },
            TraceEvent::GrainDelta {
                node: 0,
                incarnation: 0,
                op: GrainOp::Return,
                grains: 300,
                peer: 1,
                lamport: Some(5),
                seq: None,
                span_inc: Some(0),
                span_seq: Some(1),
                wait_us: None,
                transit_us: None,
            },
            TraceEvent::PeerFinal {
                node: 0,
                outcome: "completed".to_string(),
                grains: 1000,
            },
            TraceEvent::PeerFinal {
                node: 1,
                outcome: "completed".to_string(),
                grains: 1000,
            },
        ];
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(report.provenance_exact, "{:?}", report.anomalies);
        let p1 = report.provenance.iter().find(|p| p.node == 1).unwrap();
        assert!(p1.absorbed.is_empty(), "voided merge must not count");
        assert_eq!(p1.drift, Some(0));
        let p0 = report.provenance.iter().find(|p| p.node == 0).unwrap();
        assert_eq!(p0.returned, 300);
        assert_eq!(p0.drift, Some(0));
        // The return edge is weight 0: no hop was involved.
        assert_eq!(report.critical_path.depth, 1);
        assert!(report.clean(), "{:?}", report.anomalies);
    }

    #[test]
    fn provenance_drift_and_unmatched_voids_are_flagged() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            split(0, 0, 300, 1, 1, 1),
            merge(1, 0, 300, 0, 2, 0, 1),
            // A void that matches no traced segment.
            TraceEvent::GrainsVoided {
                node: 1,
                incarnation: 0,
                split: 7,
                merged: 9,
                returned: 0,
                injected: 0,
                forgotten: 0,
            },
            TraceEvent::PeerFinal {
                node: 0,
                outcome: "completed".to_string(),
                grains: 690, // 10 grains unaccounted
            },
        ];
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(!report.provenance_exact);
        assert_eq!(report.unmatched_voids, 1);
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            CausalAnomaly::ProvenanceDrift {
                node: 0,
                drift: -10
            }
        )));
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, CausalAnomaly::UnmatchedVoids { count: 1 })));
    }

    /// Provenance closes through the dynamic terms: drift re-reads, a
    /// crash that voids a re-read along with its batch, and a joiner
    /// whose unit differs from the per-node share (its base is 0).
    #[test]
    fn provenance_reconciles_drift_voids_and_joins() {
        let drift = |node: usize, incarnation: u16, injected: u64, forgotten: u64| {
            TraceEvent::SensorDrift {
                node,
                incarnation,
                injected,
                forgotten,
                tick: 3,
            }
        };
        let done = |node: usize, grains: u64| TraceEvent::PeerFinal {
            node,
            outcome: "completed".to_string(),
            grains,
        };
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            TraceEvent::PeerJoined {
                node: 2,
                grains: 1500,
                at: 0.1,
            },
            split(0, 0, 300, 2, 1, 1),
            merge(2, 0, 300, 0, 2, 0, 1),
            // Node 1 re-reads, sends, then crashes before flushing: the
            // batch and the re-read are voided together.
            drift(1, 0, 1000, 400),
            split(1, 0, 50, 0, 1, 1),
            TraceEvent::GrainsVoided {
                node: 1,
                incarnation: 0,
                split: 50,
                merged: 0,
                returned: 0,
                injected: 1000,
                forgotten: 400,
            },
            // Its next incarnation re-reads durably.
            drift(1, 1, 1000, 500),
            done(0, 700),
            done(1, 1000 + 1000 - 500),
            done(2, 1500 + 300),
        ];
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(report.clean(), "{:?}", report.anomalies);
        assert!(report.provenance_exact);
        for p in &report.provenance {
            assert_eq!(p.drift, Some(0), "node {}: {p:?}", p.node);
        }
        let joiner = report.provenance.iter().find(|p| p.node == 2).unwrap();
        assert_eq!(joiner.initial, 0, "a joiner is minted nothing at start");
        assert_eq!(joiner.absorbed.get(&0), Some(&300u128));
    }

    #[test]
    fn checkpoint_mismatch_is_flagged() {
        let events = vec![
            split(0, 0, 300, 1, 1, 1),
            TraceEvent::PeerCheckpoint {
                node: 0,
                incarnation: 0,
                split: 299, // disagrees with the traced delta
                merged: 0,
                returned: 0,
            },
        ];
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            CausalAnomaly::CheckpointMismatch {
                node: 0,
                incarnation: 0
            }
        )));
        assert!(!report.provenance_exact);
    }

    #[test]
    fn lamport_rewind_is_a_violation() {
        let events = vec![
            sent(0, 1, 0.0, 5, 1),
            sent(0, 1, 1.0, 3, 2), // clock went backwards on node 0
        ];
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert_eq!(report.lamport_violations, 1);
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, CausalAnomaly::LamportViolations { count: 1 })));
    }

    /// Crafted crossing spans force a cycle; the report must flag it
    /// rather than loop or miscount.
    #[test]
    fn cycles_are_detected() {
        let events = vec![
            // Node 0 delivers a span node 1 only mints *later* in file
            // order, and vice versa: e0→e1 (program), e1→e2 (cross),
            // e2→e3 (program), e3→e0 (cross).
            delivered(1, 0, 0.0, 10, 1),
            sent(0, 1, 0.0, 11, 1),
            delivered(0, 1, 1.0, 12, 1),
            sent(1, 0, 1.0, 13, 1),
        ];
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(!report.acyclic);
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, CausalAnomaly::Cyclic)));
        assert_eq!(report.critical_path.depth, 0);
    }

    #[test]
    fn critical_path_is_capped_at_convergence() {
        let mk_sample = |round: u64, d: f64| {
            TraceEvent::Telemetry(TelemetrySample {
                round,
                live: 2,
                classifications_mean: 1.0,
                classifications_max: 1,
                weight_spread: 0.0,
                mean_error: None,
                max_error: None,
                dispersion: Some(d),
                unix_ms: None,
            })
        };
        let events = vec![
            sent(0, 1, 0.0, 1, 1),
            delivered(0, 1, 1.0, 2, 1),
            mk_sample(0, 0.01),
            mk_sample(1, 0.01), // converged here (window 2)
            // Post-convergence traffic must not extend the path.
            sent(1, 0, 2.0, 3, 1),
            delivered(1, 0, 3.0, 4, 1),
        ];
        let opts = ConvergenceRule {
            window: 2,
            delta_tol: 1e-2,
            level: 0.05,
        };
        let report = CausalReport::from_events(&events, &opts);
        assert_eq!(report.critical_path.converged_round, Some(1));
        assert_eq!(report.critical_path.depth, 1, "capped at convergence");
        assert_eq!(report.critical_path.end_node, Some(1));
    }

    #[test]
    fn clock_skew_and_depth_histogram_export_to_registry() {
        let report = CausalReport::from_events(&relay(), &ConvergenceRule::TRACE_REPORT);
        // Final clocks: node 0 -> 1, node 1 -> 3, node 2 -> 4.
        assert_eq!(report.clock_skew, 3);
        assert_eq!(report.depth.count, 4);
        assert_eq!(report.depth.max, 2);

        let registry = std::sync::Arc::new(MetricsRegistry::new());
        report.export_metrics(&Metrics::new(std::sync::Arc::clone(&registry)));
        let snap = registry.snapshot();
        let skew = snap
            .families
            .iter()
            .find(|fam| fam.name == "causal_clock_skew")
            .expect("gauge registered");
        assert_eq!(skew.series.len(), 1);
        assert!(snap
            .families
            .iter()
            .any(|fam| fam.name == "causal_depth_hops"));
    }

    #[test]
    fn legacy_traces_without_stamps_yield_an_empty_clean_dag() {
        let events = vec![
            TraceEvent::MessageSent {
                from: 0,
                to: 1,
                bytes: 9,
                at: 0.0,
                lamport: None,
                seq: None,
            },
            TraceEvent::MessageDelivered {
                from: 0,
                to: 1,
                bytes: 9,
                at: 1.0,
                lamport: None,
                span_seq: None,
            },
        ];
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert_eq!(report.causal_events, 0);
        assert!(report.acyclic);
        assert!(report.clean(), "{:?}", report.anomalies);
        assert_eq!(report.critical_path.end_node, None);
    }

    #[test]
    fn jsonl_round_trip_and_unknown_events() {
        let text = relay()
            .iter()
            .map(|e| e.to_string())
            .chain(["{\"type\":\"tachyon_burst\"}".to_string()])
            .collect::<Vec<_>>()
            .join("\n");
        let report =
            CausalReport::from_jsonl(&text, &ConvergenceRule::TRACE_REPORT).expect("parses");
        assert_eq!(report.unknown_events, 1);
        assert_eq!(report.critical_path.depth, 2);
        assert!(!report.clean());
        let back = Json::parse(&report.to_json().to_string()).expect("report JSON parses");
        assert!(back.req_bool("acyclic").expect("field"));
        assert_eq!(back.req_u64("causal_events").expect("field"), 4);
    }

    #[test]
    fn dot_export_names_every_vertex_and_hop() {
        let dot = CausalReport::to_dot(&relay());
        assert!(dot.starts_with("digraph causal {"), "{dot}");
        assert!(dot.contains("n0@1 send (0,0,1)"), "{dot}");
        assert!(dot.contains("style=dotted"), "program edges dotted: {dot}");
        assert!(dot.trim_end().ends_with('}'), "{dot}");
        // Four vertices, three program edges... exactly 2 solid hops.
        let solid = dot
            .lines()
            .filter(|l| l.contains("->") && !l.contains("dotted"))
            .count();
        assert_eq!(solid, 2, "{dot}");
    }

    #[test]
    fn truncated_trace_is_anomalous() {
        let mut events = relay();
        events.push(TraceEvent::TraceTruncated {
            bytes_written: 4096,
        });
        let report = CausalReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            CausalAnomaly::TraceTruncated {
                bytes_written: 4096
            }
        )));
        assert!(!report.clean());
    }
}
