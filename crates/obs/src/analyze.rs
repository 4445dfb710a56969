//! Offline trace analysis: replay a `--trace` JSONL file into a
//! structured report.
//!
//! [`TraceReport::from_events`] consumes a stream of [`TraceEvent`]s (in
//! file order) and derives everything the `trace-report` CLI subcommand
//! prints:
//!
//! * **per-link latency** — `MessageSent`/`MessageDelivered` pairs are
//!   matched FIFO per `(from, to)` link; the difference of their `at`
//!   clocks feeds a [`HistogramSnapshot`] (the same log-bucketed
//!   histogram the live metrics registry uses). The trace clock is
//!   whatever the emitting engine used — round indices for the rounds
//!   engine, simulated seconds for the event engine — so latencies are
//!   reported in *trace clock units*.
//! * **fault windows** — `FaultActivated`/`FaultHealed` pairs keyed by
//!   `(kind, node)`, annotated with the round (or telemetry sample)
//!   marker current when they fired.
//! * **per-peer grain ledgers** — the trace folded through the shared
//!   [`Ledger`], whose identity mirrors the grain-conservation auditor:
//!   for every non-panicked peer, `final = base + merged + returned −
//!   split + injected − forgotten − voided`. Any residue is reported as
//!   drift.
//! * **convergence** — the earliest sample where the
//!   [`ConvergenceRule`] holds over the trace's [`trajectory`]
//!   (per-round `Telemetry` events, or `ClusterTelemetry` wall-clock
//!   samples when the trace came from the deployment runtime).
//! * **anomalies** — the flags the CI gate fails on: ledger drift,
//!   panicked peers, stalled peers, stale unmatched sends, and audit
//!   verdict mismatches.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

pub use crate::ledger::AuditVerdict;

use crate::event::{parse_jsonl, TraceEvent};
use crate::json::{field, num, str as jstr, unum, Json, JsonError};
use crate::ledger::Ledger;
use crate::metrics::{Histogram, HistogramSnapshot};
use crate::telemetry::{trajectory, ConvergenceRule};

/// Latencies are observed in thousandths of a trace clock unit so the
/// integer-valued histogram keeps sub-unit resolution (a round-engine
/// hop of exactly 1 round lands at 1000).
const LATENCY_SCALE: f64 = 1000.0;

/// Send→deliver statistics for one directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStats {
    /// Sender node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Messages that reached the destination.
    pub delivered: u64,
    /// Messages dropped in flight (crash or partition).
    pub dropped: u64,
    /// Sends from the newest trace-clock instant still unresolved —
    /// legitimately in flight when the run ended.
    pub in_flight: u64,
    /// Sends older than the newest instant that never resolved; each
    /// link with any is flagged as an [`Anomaly::UnmatchedSends`].
    pub unmatched: u64,
    /// Send→deliver latency in thousandths of a trace clock unit.
    pub latency: HistogramSnapshot,
}

impl LinkStats {
    /// A latency quantile converted back to trace clock units.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        self.latency.quantile(q) / LATENCY_SCALE
    }

    /// Mean latency in trace clock units.
    pub fn latency_mean(&self) -> f64 {
        self.latency.mean() / LATENCY_SCALE
    }
}

/// One fault's lifetime, annotated against the round timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// Fault kind (`"crash"`, `"partition"`, ...).
    pub kind: String,
    /// Affected node, when the fault targets one.
    pub node: Option<usize>,
    /// Trace clock when the fault fired.
    pub activated_at: f64,
    /// Trace clock when it healed; `None` if it never did.
    pub healed_at: Option<f64>,
    /// Round (or telemetry sample) marker current at activation.
    pub round: Option<u64>,
    /// Marker current at healing.
    pub healed_round: Option<u64>,
}

/// A peer's grain ledger replayed from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerLedger {
    /// Peer id.
    pub node: usize,
    /// Grains minted to this peer at start (`initial_grains / nodes`, 0
    /// for a mid-run joiner).
    pub initial: u64,
    /// Net signed grain movement: Σ (merge + return − split).
    pub deltas: i64,
    /// Net rolled-back movement: Σ voided (merged + returned − split
    /// + injected − forgotten).
    pub voided: i64,
    /// Net dynamic-workload movement: Σ (injected − forgotten) from
    /// sensor re-reads, plus a joiner's declared unit. Zero in static
    /// runs.
    pub dynamic: i64,
    /// Outcome string from `PeerFinal` (`"completed"`, `"retired"`,
    /// `"dead"`, `"panicked"`), when present.
    pub outcome: Option<String>,
    /// Grains held at shutdown, when a `PeerFinal` was recorded.
    pub final_grains: Option<u64>,
    /// `final − (initial + deltas + dynamic − voided)`; `Some(0)` means
    /// the ledger reconciles exactly. `None` when the peer panicked or
    /// never reported a final.
    pub drift: Option<i64>,
}

/// Aggregate round-engine counters from the last `RoundCompleted` event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundsSummary {
    /// Rounds completed.
    pub count: u64,
    /// Cumulative messages sent.
    pub sent: u64,
    /// Cumulative messages delivered.
    pub delivered: u64,
    /// Cumulative messages dropped.
    pub dropped: u64,
}

/// Convergence verdict over the trace's telemetry trajectory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Convergence {
    /// Telemetry samples considered.
    pub samples: usize,
    /// Earliest round (or sample index for wall-clock telemetry) where
    /// the convergence rule first held; `None` if it never did.
    pub round: Option<u64>,
    /// Dispersion of the final sample, when it carried one.
    pub final_dispersion: Option<f64>,
}

/// A red flag the replay raises; any anomaly fails the CI trace gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// A peer's replayed ledger does not match its final holdings.
    LedgerDrift {
        /// Offending peer.
        node: usize,
        /// `final − expected` in grains (surplus positive).
        drift: i64,
    },
    /// A peer exited by panic — its books are unaccounted.
    PanickedPeer {
        /// Offending peer.
        node: usize,
    },
    /// The trace records finals for some peers but not this one.
    MissingPeerFinal {
        /// Peer without a `peer_final` event.
        node: usize,
    },
    /// A completed peer moved no grains while others did.
    StalledPeer {
        /// The inactive peer.
        node: usize,
    },
    /// Sends on a link never resolved although later traffic did.
    UnmatchedSends {
        /// Sender node.
        from: usize,
        /// Destination node.
        to: usize,
        /// Stale unresolved sends.
        count: u64,
    },
    /// The in-run auditor declared its books inexact.
    AuditInexact,
    /// The in-run auditor saw conservation fail.
    AuditNotConserved,
    /// Completed peers' final grains disagree with the audit total.
    AuditFinalMismatch {
        /// Σ final grains over completed peers, replayed from the trace.
        replayed: i64,
        /// The auditor's final count.
        audited: u64,
    },
    /// JSONL lines with event types this binary does not know were
    /// skipped — the trace is from a newer taxonomy and the replay below
    /// may be missing information.
    UnknownEvents {
        /// Skipped lines.
        count: usize,
    },
    /// The trace sink hit its size cap mid-run: everything after the
    /// marker is missing, so the replay's books cannot be trusted.
    TraceTruncated {
        /// Bytes the sink had written when the cap fired.
        bytes_written: u64,
    },
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::LedgerDrift { node, drift } => {
                write!(f, "node {node}: ledger drift of {drift} grains")
            }
            Anomaly::PanickedPeer { node } => write!(f, "node {node}: panicked"),
            Anomaly::MissingPeerFinal { node } => {
                write!(f, "node {node}: no peer_final event")
            }
            Anomaly::StalledPeer { node } => {
                write!(f, "node {node}: no grain activity while peers were active")
            }
            Anomaly::UnmatchedSends { from, to, count } => {
                write!(f, "link {from}->{to}: {count} stale unmatched send(s)")
            }
            Anomaly::AuditInexact => write!(f, "audit books are inexact"),
            Anomaly::AuditNotConserved => write!(f, "audit says grains were not conserved"),
            Anomaly::AuditFinalMismatch { replayed, audited } => write!(
                f,
                "completed peers hold {replayed} grains but the audit counted {audited}"
            ),
            Anomaly::UnknownEvents { count } => {
                write!(f, "{count} line(s) with unknown event types were skipped")
            }
            Anomaly::TraceTruncated { bytes_written } => {
                write!(f, "trace truncated at its size cap ({bytes_written} bytes)")
            }
        }
    }
}

impl Anomaly {
    /// A machine-readable discriminator for the JSON report.
    pub fn kind(&self) -> &'static str {
        match self {
            Anomaly::LedgerDrift { .. } => "ledger_drift",
            Anomaly::PanickedPeer { .. } => "panicked_peer",
            Anomaly::MissingPeerFinal { .. } => "missing_peer_final",
            Anomaly::StalledPeer { .. } => "stalled_peer",
            Anomaly::UnmatchedSends { .. } => "unmatched_sends",
            Anomaly::AuditInexact => "audit_inexact",
            Anomaly::AuditNotConserved => "audit_not_conserved",
            Anomaly::AuditFinalMismatch { .. } => "audit_final_mismatch",
            Anomaly::UnknownEvents { .. } => "unknown_events",
            Anomaly::TraceTruncated { .. } => "trace_truncated",
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            field("kind", jstr(self.kind())),
            field("detail", jstr(self.to_string())),
        ];
        match self {
            Anomaly::LedgerDrift { node, drift } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("drift", num(*drift as f64)));
            }
            Anomaly::PanickedPeer { node }
            | Anomaly::MissingPeerFinal { node }
            | Anomaly::StalledPeer { node } => {
                fields.push(field("node", unum(*node as u64)));
            }
            Anomaly::UnmatchedSends { from, to, count } => {
                fields.push(field("from", unum(*from as u64)));
                fields.push(field("to", unum(*to as u64)));
                fields.push(field("count", unum(*count)));
            }
            Anomaly::AuditFinalMismatch { replayed, audited } => {
                fields.push(field("replayed", num(*replayed as f64)));
                fields.push(field("audited", unum(*audited)));
            }
            Anomaly::UnknownEvents { count } => {
                fields.push(field("count", unum(*count as u64)));
            }
            Anomaly::TraceTruncated { bytes_written } => {
                fields.push(field("bytes_written", unum(*bytes_written)));
            }
            Anomaly::AuditInexact | Anomaly::AuditNotConserved => {}
        }
        Json::Obj(fields)
    }
}

/// Everything the replay derived from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Events consumed.
    pub events: usize,
    /// Nodes declared by `cluster_started` (0 if the event is missing).
    pub nodes: usize,
    /// Grains minted at start.
    pub initial_grains: u64,
    /// Round-engine counters.
    pub rounds: RoundsSummary,
    /// Per-link latency and delivery stats, ordered by `(from, to)`.
    pub links: Vec<LinkStats>,
    /// Fault activations paired with their healings.
    pub faults: Vec<FaultWindow>,
    /// Per-peer grain ledgers, ordered by node id. Empty when the trace
    /// carries no grain accounting (pure simulation traces).
    pub ledgers: Vec<PeerLedger>,
    /// Convergence verdict over the telemetry trajectory.
    pub convergence: Convergence,
    /// The in-run auditor's verdict, when the trace carries one.
    pub audit: Option<AuditVerdict>,
    /// JSONL lines skipped because their event type was unknown (only
    /// populated by [`TraceReport::from_jsonl`]).
    pub unknown_events: usize,
    /// Red flags; empty means the trace is clean.
    pub anomalies: Vec<Anomaly>,
}

/// Per-link accumulator used during the replay.
struct LinkAcc {
    pending: VecDeque<f64>,
    delivered: u64,
    dropped: u64,
    hist: Histogram,
}

impl Default for LinkAcc {
    fn default() -> Self {
        LinkAcc {
            pending: VecDeque::new(),
            delivered: 0,
            dropped: 0,
            hist: Histogram::standalone(),
        }
    }
}

impl TraceReport {
    /// Replays a parsed event stream (in trace-file order).
    pub fn from_events(events: &[TraceEvent], rule: &ConvergenceRule) -> TraceReport {
        let mut ledger = Ledger::default();
        let mut rounds = RoundsSummary::default();
        let mut links: BTreeMap<(usize, usize), LinkAcc> = BTreeMap::new();
        let mut max_at = f64::NEG_INFINITY;
        let mut faults: Vec<FaultWindow> = Vec::new();
        // The round/sample marker current as the stream advances, used to
        // place fault windows on the round timeline; wall-clock cluster
        // samples are numbered by arrival.
        let mut marker: Option<u64> = None;
        let mut cluster_samples = 0u64;
        let mut anomalies: Vec<Anomaly> = Vec::new();

        for ev in events {
            ledger.record(ev);
            match ev {
                TraceEvent::RoundCompleted {
                    round,
                    sent,
                    delivered,
                    dropped,
                    ..
                } => {
                    rounds.count = rounds.count.max(round + 1);
                    rounds.sent = *sent;
                    rounds.delivered = *delivered;
                    rounds.dropped = *dropped;
                    marker = Some(*round);
                }
                TraceEvent::MessageSent { from, to, at, .. } => {
                    max_at = max_at.max(*at);
                    links
                        .entry((*from, *to))
                        .or_default()
                        .pending
                        .push_back(*at);
                }
                TraceEvent::MessageDelivered { from, to, at, .. } => {
                    max_at = max_at.max(*at);
                    let link = links.entry((*from, *to)).or_default();
                    link.delivered += 1;
                    if let Some(sent_at) = link.pending.pop_front() {
                        let dt = (at - sent_at).max(0.0);
                        link.hist.observe((dt * LATENCY_SCALE).round() as u64);
                    }
                }
                TraceEvent::MessageDropped { from, to, .. } => {
                    let link = links.entry((*from, *to)).or_default();
                    link.dropped += 1;
                    link.pending.pop_front();
                }
                TraceEvent::FaultActivated { kind, node, at } => {
                    faults.push(FaultWindow {
                        kind: kind.clone(),
                        node: *node,
                        activated_at: *at,
                        healed_at: None,
                        round: marker,
                        healed_round: None,
                    });
                }
                TraceEvent::FaultHealed { kind, node, at } => {
                    if let Some(w) = faults
                        .iter_mut()
                        .find(|w| w.healed_at.is_none() && w.kind == *kind && w.node == *node)
                    {
                        w.healed_at = Some(*at);
                        w.healed_round = marker;
                    }
                }
                TraceEvent::Telemetry(sample) => marker = Some(sample.round),
                TraceEvent::ClusterTelemetry { .. } => {
                    marker = Some(cluster_samples);
                    cluster_samples += 1;
                }
                TraceEvent::TraceTruncated { bytes_written } => {
                    anomalies.push(Anomaly::TraceTruncated {
                        bytes_written: *bytes_written,
                    });
                }
                _ => {}
            }
        }

        // Per-link stats. Unresolved sends from the newest trace instant
        // were legitimately in flight at shutdown; anything older had
        // later traffic pass it by and counts as unmatched.
        let links: Vec<LinkStats> = links
            .into_iter()
            .map(|((from, to), acc)| {
                let (mut in_flight, mut unmatched) = (0u64, 0u64);
                for &sent_at in &acc.pending {
                    if sent_at < max_at {
                        unmatched += 1;
                    } else {
                        in_flight += 1;
                    }
                }
                if unmatched > 0 {
                    anomalies.push(Anomaly::UnmatchedSends {
                        from,
                        to,
                        count: unmatched,
                    });
                }
                LinkStats {
                    from,
                    to,
                    delivered: acc.delivered,
                    dropped: acc.dropped,
                    in_flight,
                    unmatched,
                    latency: acc.hist.snapshot(),
                }
            })
            .collect();

        // Per-peer ledgers, for every peer that reported a final. Ledgers
        // only exist when the trace carries grain accounting at all.
        let nodes = ledger.nodes();
        let finals: Vec<(usize, &str, u64)> = ledger
            .books
            .iter()
            .filter_map(|(&node, b)| Some((node, b.outcome.as_deref()?, b.final_grains?)))
            .collect();
        let mut ledgers: Vec<PeerLedger> = Vec::new();
        if !finals.is_empty() && nodes > 0 {
            for node in 0..nodes {
                if !finals.iter().any(|&(n, _, _)| n == node) {
                    anomalies.push(Anomaly::MissingPeerFinal { node });
                }
            }
            let any_active = ledger.books.values().any(|b| b.deltas > 0);
            for &(node, outcome, grains) in &finals {
                let b = &ledger.books[&node];
                let drift = ledger.drift(node).map(|d| d as i64);
                match drift {
                    None => anomalies.push(Anomaly::PanickedPeer { node }),
                    Some(drift) if drift != 0 => {
                        anomalies.push(Anomaly::LedgerDrift { node, drift });
                    }
                    Some(_) => {}
                }
                if any_active && nodes > 1 && outcome == "completed" && b.deltas == 0 {
                    anomalies.push(Anomaly::StalledPeer { node });
                }
                ledgers.push(PeerLedger {
                    node,
                    initial: ledger.base(node),
                    deltas: b.moved.net() as i64,
                    voided: b.voided.net() as i64,
                    dynamic: b.dynamic() as i64,
                    outcome: Some(outcome.to_string()),
                    final_grains: Some(grains),
                    drift,
                });
            }
        }

        // The replayed books must agree with the in-run auditor, whose
        // final count covers completed and retired peers only.
        if let Some(a) = &ledger.audit {
            if !a.exact {
                anomalies.push(Anomaly::AuditInexact);
            }
            if !a.conserved {
                anomalies.push(Anomaly::AuditNotConserved);
            }
            if !finals.is_empty() {
                let replayed: i64 = finals
                    .iter()
                    .filter(|(_, outcome, _)| *outcome == "completed" || *outcome == "retired")
                    .map(|&(_, _, grains)| grains as i64)
                    .sum();
                if replayed != a.final_grains as i64 {
                    anomalies.push(Anomaly::AuditFinalMismatch {
                        replayed,
                        audited: a.final_grains,
                    });
                }
            }
        }

        // Convergence: the earliest sample where the stopping rule holds.
        let (series, _) = trajectory(events);
        let convergence = Convergence {
            samples: series.len(),
            round: rule
                .first_converged(&series.samples)
                .map(|i| series.samples[i].round),
            final_dispersion: series.last().and_then(|s| s.dispersion),
        };

        TraceReport {
            events: events.len(),
            nodes,
            initial_grains: ledger.initial_grains(),
            rounds,
            links,
            faults,
            ledgers,
            convergence,
            audit: ledger.audit,
            unknown_events: 0,
            anomalies,
        }
    }

    /// Parses a JSONL trace leniently (see [`parse_jsonl`]) and replays
    /// it. Skipped lines with unknown event types surface as an
    /// [`Anomaly::UnknownEvents`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending line on the first
    /// malformed line (bad JSON or a known event with broken fields).
    pub fn from_jsonl(text: &str, rule: &ConvergenceRule) -> Result<TraceReport, JsonError> {
        let (events, unknown) = parse_jsonl(text)?;
        let mut report = TraceReport::from_events(&events, rule);
        if unknown > 0 {
            report.unknown_events = unknown;
            report
                .anomalies
                .push(Anomaly::UnknownEvents { count: unknown });
        }
        Ok(report)
    }

    /// Whether the replay raised no red flags.
    pub fn clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Encodes the full report as one JSON object (the `--json` output).
    pub fn to_json(&self) -> Json {
        let links = self
            .links
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    field("from", unum(l.from as u64)),
                    field("to", unum(l.to as u64)),
                    field("delivered", unum(l.delivered)),
                    field("dropped", unum(l.dropped)),
                    field("in_flight", unum(l.in_flight)),
                    field("unmatched", unum(l.unmatched)),
                    field("latency_count", unum(l.latency.count)),
                    field("latency_mean", num(l.latency_mean())),
                    field("latency_p50", num(l.latency_quantile(0.50))),
                    field("latency_p90", num(l.latency_quantile(0.90))),
                    field("latency_p95", num(l.latency_quantile(0.95))),
                    field("latency_p99", num(l.latency_quantile(0.99))),
                    field("latency_max", num(l.latency.max as f64 / LATENCY_SCALE)),
                ])
            })
            .collect();
        let faults = self
            .faults
            .iter()
            .map(|w| {
                let opt_u = |v: Option<u64>| v.map_or(Json::Null, unum);
                Json::Obj(vec![
                    field("kind", jstr(w.kind.clone())),
                    field("node", w.node.map_or(Json::Null, |n| unum(n as u64))),
                    field("activated_at", num(w.activated_at)),
                    field("healed_at", w.healed_at.map_or(Json::Null, num)),
                    field("round", opt_u(w.round)),
                    field("healed_round", opt_u(w.healed_round)),
                ])
            })
            .collect();
        let ledgers = self
            .ledgers
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    field("node", unum(l.node as u64)),
                    field("initial", unum(l.initial)),
                    field("deltas", num(l.deltas as f64)),
                    field("voided", num(l.voided as f64)),
                    field("dynamic", num(l.dynamic as f64)),
                    field("outcome", l.outcome.clone().map_or(Json::Null, jstr)),
                    field("final", l.final_grains.map_or(Json::Null, unum)),
                    field("drift", l.drift.map_or(Json::Null, |d| num(d as f64))),
                ])
            })
            .collect();
        let audit = self
            .audit
            .as_ref()
            .map_or(Json::Null, |a| a.to_json("final"));
        Json::Obj(vec![
            field("events", unum(self.events as u64)),
            field("nodes", unum(self.nodes as u64)),
            field("initial_grains", unum(self.initial_grains)),
            field(
                "rounds",
                Json::Obj(vec![
                    field("count", unum(self.rounds.count)),
                    field("sent", unum(self.rounds.sent)),
                    field("delivered", unum(self.rounds.delivered)),
                    field("dropped", unum(self.rounds.dropped)),
                ]),
            ),
            field("links", Json::Arr(links)),
            field("faults", Json::Arr(faults)),
            field("ledgers", Json::Arr(ledgers)),
            field(
                "convergence",
                Json::Obj(vec![
                    field("samples", unum(self.convergence.samples as u64)),
                    field("round", self.convergence.round.map_or(Json::Null, unum)),
                    field(
                        "final_dispersion",
                        self.convergence.final_dispersion.map_or(Json::Null, num),
                    ),
                ]),
            ),
            field("audit", audit),
            field("unknown_events", unum(self.unknown_events as u64)),
            field(
                "anomalies",
                Json::Arr(self.anomalies.iter().map(Anomaly::to_json).collect()),
            ),
            field("clean", Json::Bool(self.clean())),
        ])
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events, {} nodes, {} grains minted",
            self.events, self.nodes, self.initial_grains
        )?;
        if self.rounds.count > 0 {
            writeln!(
                f,
                "rounds: {} (sent {}, delivered {}, dropped {})",
                self.rounds.count, self.rounds.sent, self.rounds.delivered, self.rounds.dropped
            )?;
        }
        if !self.links.is_empty() {
            writeln!(f, "links ({} active):", self.links.len())?;
            for l in &self.links {
                writeln!(
                    f,
                    "  {:>3} -> {:<3} delivered {:>6} dropped {:>4} latency p50 {:.3} p95 {:.3} p99 {:.3} (clock units)",
                    l.from,
                    l.to,
                    l.delivered,
                    l.dropped,
                    l.latency_quantile(0.50),
                    l.latency_quantile(0.95),
                    l.latency_quantile(0.99),
                )?;
            }
        }
        if !self.faults.is_empty() {
            writeln!(f, "fault windows:")?;
            for w in &self.faults {
                let node = w.node.map_or("-".to_string(), |n| n.to_string());
                let healed = w
                    .healed_at
                    .map_or("never healed".to_string(), |t| format!("healed at {t}"));
                let round = w.round.map_or(String::new(), |r| format!(" (round {r})"));
                writeln!(
                    f,
                    "  {} node {} at {}{round}, {}",
                    w.kind, node, w.activated_at, healed
                )?;
            }
        }
        if !self.ledgers.is_empty() {
            writeln!(f, "grain ledgers:")?;
            for l in &self.ledgers {
                let outcome = l.outcome.as_deref().unwrap_or("?");
                let drift = l.drift.map_or("-".to_string(), |d| d.to_string());
                writeln!(
                    f,
                    "  node {:>3} [{}] initial {} deltas {:+} voided {:+} final {} drift {}",
                    l.node,
                    outcome,
                    l.initial,
                    l.deltas,
                    l.voided,
                    l.final_grains.map_or("-".to_string(), |g| g.to_string()),
                    drift,
                )?;
            }
        }
        match self.convergence.round {
            Some(r) => writeln!(
                f,
                "convergence: reached at round {r} ({} samples)",
                self.convergence.samples
            )?,
            None if self.convergence.samples > 0 => writeln!(
                f,
                "convergence: not reached in {} samples",
                self.convergence.samples
            )?,
            None => {}
        }
        if let Some(a) = &self.audit {
            writeln!(
                f,
                "audit: initial {} final {} gains {} losses {} exact {} conserved {}",
                a.initial, a.final_grains, a.gains, a.losses, a.exact, a.conserved
            )?;
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
    use crate::event::GrainOp;
    use crate::telemetry::TelemetrySample;

    fn sent(from: usize, to: usize, at: f64) -> TraceEvent {
        TraceEvent::MessageSent {
            from,
            to,
            bytes: 64,
            at,
            lamport: None,
            seq: None,
        }
    }

    fn delivered(from: usize, to: usize, at: f64) -> TraceEvent {
        TraceEvent::MessageDelivered {
            from,
            to,
            bytes: 64,
            at,
            lamport: None,
            span_seq: None,
        }
    }

    fn delta(node: usize, op: GrainOp, grains: u64, peer: usize) -> TraceEvent {
        TraceEvent::GrainDelta {
            node,
            incarnation: 0,
            op,
            grains,
            peer,
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

    #[test]
    fn link_latency_matches_fifo_and_flags_stale_sends() {
        let events = vec![
            sent(0, 1, 1.0),
            sent(0, 1, 1.0),
            delivered(0, 1, 2.0),
            delivered(0, 1, 4.0),
            // A send that later traffic passes by — anomalous.
            sent(2, 3, 1.0),
            sent(0, 1, 5.0),
            delivered(0, 1, 6.0),
            // In flight at shutdown on the newest instant — benign.
            sent(0, 1, 6.0),
        ];
        let report = TraceReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert_eq!(report.links.len(), 2);
        let link01 = &report.links[0];
        assert_eq!((link01.from, link01.to), (0, 1));
        assert_eq!(link01.delivered, 3);
        assert_eq!(link01.in_flight, 1);
        assert_eq!(link01.unmatched, 0);
        assert_eq!(link01.latency.count, 3);
        // Latencies were 1, 3, 1: max is exact, p50 within one bucket.
        assert_eq!(link01.latency.max, 3000);
        let p50 = link01.latency_quantile(0.50);
        assert!((1.0..=1.2).contains(&p50), "p50 = {p50}");

        let link23 = &report.links[1];
        assert_eq!(link23.unmatched, 1);
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            Anomaly::UnmatchedSends {
                from: 2,
                to: 3,
                count: 1
            }
        )));
    }

    #[test]
    fn dropped_messages_consume_sends_without_latency() {
        let events = vec![
            sent(0, 1, 1.0),
            TraceEvent::MessageDropped {
                from: 0,
                to: 1,
                reason: crate::event::DropReason::Crashed,
            },
        ];
        let report = TraceReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        let link = &report.links[0];
        assert_eq!(link.dropped, 1);
        assert_eq!(link.latency.count, 0);
        assert_eq!(link.unmatched, 0);
        assert!(report.clean(), "{:?}", report.anomalies);
    }

    /// The ledger replay mirrors the auditor: clean books reconcile to
    /// drift 0; a perturbed final is flagged.
    #[test]
    fn ledgers_reconcile_and_flag_drift() {
        let mk = |finals: [u64; 2]| {
            vec![
                TraceEvent::ClusterStarted {
                    nodes: 2,
                    initial_grains: 2000,
                },
                delta(0, GrainOp::Split, 300, 1),
                delta(1, GrainOp::Merge, 300, 0),
                delta(1, GrainOp::Split, 100, 0),
                // Node 1 crashes before flushing its batch: everything
                // above is voided, node 0's return brings grains home.
                TraceEvent::GrainsVoided {
                    node: 1,
                    incarnation: 0,
                    split: 100,
                    merged: 300,
                    returned: 0,
                    injected: 0,
                    forgotten: 0,
                },
                delta(0, GrainOp::Return, 300, 1),
                final_ev(0, "completed", finals[0]),
                final_ev(1, "completed", finals[1]),
                TraceEvent::AuditSummary {
                    initial: 2000,
                    final_grains: finals[0] + finals[1],
                    gains: 300,
                    losses: 300,
                    injected: 0,
                    forgotten: 0,
                    exact: true,
                    conserved: true,
                },
            ]
        };
        // Node 0: 1000 − 300 + 300 = 1000. Node 1: 1000 + 300 − 100 −
        // (300 − 100) = 1000.
        let clean = TraceReport::from_events(&mk([1000, 1000]), &ConvergenceRule::TRACE_REPORT);
        assert!(clean.clean(), "{:?}", clean.anomalies);
        assert_eq!(clean.ledgers.len(), 2);
        assert!(clean.ledgers.iter().all(|l| l.drift == Some(0)));

        let drifted = TraceReport::from_events(&mk([1000, 993]), &ConvergenceRule::TRACE_REPORT);
        assert!(drifted
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::LedgerDrift { node: 1, drift: -7 })));
    }

    #[test]
    fn panicked_and_missing_finals_are_flagged() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 3,
                initial_grains: 3000,
            },
            delta(0, GrainOp::Split, 10, 1),
            delta(1, GrainOp::Merge, 10, 0),
            final_ev(0, "completed", 990),
            final_ev(1, "panicked", 0),
        ];
        let report = TraceReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::PanickedPeer { node: 1 })));
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::MissingPeerFinal { node: 2 })));
    }

    #[test]
    fn stalled_completed_peer_is_flagged_but_dead_is_not() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 3,
                initial_grains: 3000,
            },
            delta(0, GrainOp::Split, 10, 1),
            delta(1, GrainOp::Merge, 10, 0),
            final_ev(0, "completed", 990),
            final_ev(1, "completed", 1010),
            final_ev(2, "dead", 1000),
        ];
        let report = TraceReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(
            !report
                .anomalies
                .iter()
                .any(|a| matches!(a, Anomaly::StalledPeer { node: 2 })),
            "dead peers are not stalled: {:?}",
            report.anomalies
        );

        let mut events = events;
        events[5] = final_ev(2, "completed", 1000);
        let report = TraceReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::StalledPeer { node: 2 })));
    }

    #[test]
    fn audit_mismatch_is_flagged() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 1,
                initial_grains: 1000,
            },
            delta(0, GrainOp::Split, 0, 0),
            final_ev(0, "completed", 1000),
            TraceEvent::AuditSummary {
                initial: 1000,
                final_grains: 999,
                gains: 0,
                losses: 0,
                injected: 0,
                forgotten: 0,
                exact: true,
                conserved: false,
            },
        ];
        let report = TraceReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::AuditNotConserved)));
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            Anomaly::AuditFinalMismatch {
                replayed: 1000,
                audited: 999
            }
        )));
    }

    #[test]
    fn convergence_finds_earliest_round() {
        let mut events = vec![];
        let disps = [0.9, 0.5, 0.2, 0.04, 0.041, 0.0405, 0.040, 0.0401];
        for (round, d) in disps.iter().enumerate() {
            events.push(TraceEvent::Telemetry(TelemetrySample {
                round: round as u64,
                live: 4,
                classifications_mean: 2.0,
                classifications_max: 3,
                weight_spread: 0.1,
                mean_error: None,
                max_error: None,
                dispersion: Some(*d),
                unix_ms: None,
            }));
        }
        let opts = ConvergenceRule {
            window: 3,
            delta_tol: 1e-2,
            level: 0.05,
        };
        let report = TraceReport::from_events(&events, &opts);
        assert_eq!(report.convergence.samples, 8);
        // Rounds 3..=5 are the first window that is low and flat.
        assert_eq!(report.convergence.round, Some(5));
    }

    #[test]
    fn cluster_telemetry_feeds_convergence_when_no_round_samples() {
        let mut events = vec![];
        for d in [0.5, 0.01, 0.011, 0.0105] {
            events.push(TraceEvent::ClusterTelemetry {
                elapsed_ms: 10.0,
                live: 4,
                dispersion: d,
                unix_ms: None,
            });
        }
        let opts = ConvergenceRule {
            window: 2,
            delta_tol: 1e-2,
            level: 0.05,
        };
        let report = TraceReport::from_events(&events, &opts);
        assert_eq!(report.convergence.samples, 4);
        assert_eq!(report.convergence.round, Some(2));
    }

    #[test]
    fn fault_windows_pair_and_annotate_rounds() {
        let events = vec![
            TraceEvent::RoundCompleted {
                round: 2,
                live: 4,
                sent: 8,
                delivered: 8,
                dropped: 0,
            },
            TraceEvent::FaultActivated {
                kind: "crash".to_string(),
                node: Some(1),
                at: 0.3,
            },
            TraceEvent::RoundCompleted {
                round: 3,
                live: 3,
                sent: 11,
                delivered: 10,
                dropped: 1,
            },
            TraceEvent::FaultHealed {
                kind: "crash".to_string(),
                node: Some(1),
                at: 0.5,
            },
            TraceEvent::FaultActivated {
                kind: "partition".to_string(),
                node: None,
                at: 0.6,
            },
        ];
        let report = TraceReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert_eq!(report.faults.len(), 2);
        let crash = &report.faults[0];
        assert_eq!(crash.round, Some(2));
        assert_eq!(crash.healed_at, Some(0.5));
        assert_eq!(crash.healed_round, Some(3));
        let part = &report.faults[1];
        assert_eq!(part.healed_at, None);
        assert_eq!(report.rounds.count, 4);
    }

    #[test]
    fn jsonl_parse_errors_name_the_line() {
        let text = "{\"type\":\"cluster_started\",\"nodes\":2,\"initial_grains\":200}\nnot json\n";
        let err = TraceReport::from_jsonl(text, &ConvergenceRule::TRACE_REPORT)
            .expect_err("second line is garbage");
        assert!(err.message.contains("line 2"), "{err}");
    }

    /// Unknown event types are skipped and counted, not fatal — older
    /// binaries stay able to read newer traces. The count is anomalous.
    #[test]
    fn unknown_event_types_are_counted_not_fatal() {
        let text = "{\"type\":\"cluster_started\",\"nodes\":2,\"initial_grains\":200}\n\
                    {\"type\":\"quantum_entangled\",\"with\":7}\n\
                    {\"type\":\"tick_completed\",\"node\":0,\"time\":1.0,\"extra_key\":true}\n\
                    {\"type\":\"also_unknown\"}\n";
        let report =
            TraceReport::from_jsonl(text, &ConvergenceRule::TRACE_REPORT).expect("replay survives");
        assert_eq!(report.unknown_events, 2);
        assert_eq!(report.events, 2, "known lines were all consumed");
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::UnknownEvents { count: 2 })));
        assert!(!report.clean());
        // The count survives into the JSON report.
        let back = Json::parse(&report.to_json().to_string()).expect("parses");
        assert_eq!(back.req_u64("unknown_events").expect("field"), 2);
    }

    #[test]
    fn truncated_trace_is_flagged() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 200,
            },
            TraceEvent::TraceTruncated { bytes_written: 512 },
        ];
        let report = TraceReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::TraceTruncated { bytes_written: 512 })));
        assert!(!report.clean());
    }

    #[test]
    fn report_json_is_parseable_and_carries_verdict() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            sent(0, 1, 1.0),
            delivered(0, 1, 2.0),
            final_ev(0, "completed", 1000),
            final_ev(1, "completed", 1000),
        ];
        let report = TraceReport::from_events(&events, &ConvergenceRule::TRACE_REPORT);
        let text = report.to_json().to_string();
        let back = Json::parse(&text).expect("report JSON parses");
        assert_eq!(back.req_u64("nodes").expect("nodes"), 2);
        assert_eq!(back.req_bool("clean").expect("clean"), report.clean());
        // Human rendering mentions the verdict too.
        let human = report.to_string();
        assert!(human.contains("verdict:"), "{human}");
    }
}
