//! The peer thread: one classifier node driven by a real transport.
//!
//! Each peer owns a [`ClassifierNode`], a [`Transport`] endpoint and a
//! small reliability layer, and runs a single loop:
//!
//! 1. drain control commands (quiesce / crash / exit) from the harness;
//! 2. on its gossip tick, split the classification and send half to a
//!    neighbor as a sequenced data frame, remembering it as pending;
//! 3. retransmit pending frames whose ack is overdue, with exponential
//!    backoff; after the retry budget is spent, merge the half back into
//!    the local classification (*return-to-sender*) so its grains are
//!    never lost;
//! 4. receive for a few milliseconds: merge fresh data frames (acking
//!    them), re-ack suppressed duplicates, settle pendings on acks;
//! 5. periodically report status to the harness, and periodically ship a
//!    *checkpoint* — classification, sequence state, duplicate-suppression
//!    trackers and in-flight frames — so the supervisor can respawn this
//!    node after a crash.
//!
//! Steps 2–4 turn a fair-loss transport into the reliable links the paper
//! assumes (§3.1), while keeping the grain-conservation invariant exact:
//! every sent half is eventually either acknowledged (the receiver merged
//! it, exactly once thanks to duplicate suppression) or returned to the
//! sender.
//!
//! # Incarnations
//!
//! A respawned peer is a fresh *incarnation*: its sequence numbers start
//! over in a namespace disjoint from its predecessor's (the frame carries
//! the incarnation — see [`crate::frame`]), so receivers never mistake a
//! new half for a retransmission from before the crash, and stale acks
//! never settle new pendings. State restored from the checkpoint —
//! trackers and pending frames — keeps its *original* incarnation
//! labels: a restored pending retransmits the exact bytes the dead
//! incarnation sent, and the ack that settles it echoes that old
//! incarnation.
//!
//! # Grain logs
//!
//! Between checkpoints the peer records every grain movement (splits
//! sent, merges, returns) in a [`GrainLogs`] batch. A checkpoint flushes
//! the batch to the supervisor as *durable*; a crash receipt hands the
//! unflushed batch over as *voided* — the restore rewinds to a state from
//! before any of it happened. The auditor ([`crate::audit`]) settles the
//! books from those two piles.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use distclass_core::{Classification, ClassifierNode, Instance, Quantum};
use distclass_gossip::wire::WireSummary;
use distclass_gossip::SelectorKind;
use distclass_net::{derive_seed, NodeId};
use distclass_obs::{Counter, GrainOp, Histogram, Metrics, Phase, Profiler, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::audit::{FrameId, GrainLogs, MergedRec, RejectedRec, SentRec};
use crate::byz::{AttackState, DefenseState, StrikeReason};
use crate::cluster::{NodeOutcome, NodeReport, RetryPolicy};
use crate::frame::{decode_frame, encode_frame, restamp_sent, stamp_times, FrameKind};
use crate::metrics::RuntimeMetrics;
use crate::transport::Transport;

/// Commands from the harness to a peer.
pub(crate) enum Ctrl {
    /// Stop initiating gossip; keep receiving, acking and retransmitting
    /// until all pending sends settle.
    Quiesce,
    /// Die *now*, as a fault injection: exit mid-stride with a death
    /// receipt (exact state and unflushed logs) for the supervisor.
    Crash,
    /// Terminate cleanly and report the final state.
    Exit,
    /// The supervisor's cluster-wide strike tally convicted a peer:
    /// quarantine it (stop selecting it, reject its frames).
    Convict(NodeId),
    /// Leave gracefully: hand the entire classification to a live
    /// neighbor as a [`FrameKind::Handoff`], then drain and exit. Unlike
    /// [`Ctrl::Crash`], no grains are stranded — the handoff rides the
    /// normal sequenced/acked/retried machinery, so it is either merged
    /// by the neighbor or returned to this peer before it exits.
    Retire,
    /// A churn join: start gossiping with this brand-new peer too.
    Adopt(NodeId),
    /// A churn leave: stop selecting this peer (it is retiring).
    Forget(NodeId),
}

/// A peer's periodic report to the harness.
pub(crate) struct Status<S> {
    pub id: NodeId,
    pub classification: Classification<S>,
    /// Quiescing with no unsettled sends: every half this peer put on the
    /// wire has been acknowledged or returned, and a retiree's grains are
    /// handed off.
    pub drained: bool,
}

/// A periodic checkpoint: everything the supervisor needs to respawn this
/// peer, plus the grain-log batch accumulated since the last checkpoint
/// (durable once this message is received).
pub(crate) struct CheckpointMsg<S> {
    pub id: NodeId,
    pub classification: Classification<S>,
    pub restore: RestoreState,
    pub logs: GrainLogs,
}

/// What a peer sends the harness on its events channel.
pub(crate) enum PeerEvent<S> {
    Status(Status<S>),
    Checkpoint(Box<CheckpointMsg<S>>),
    /// Evidence of misbehavior found by this peer's defense layer. The
    /// supervisor tallies strikes cluster-wide and convicts at the
    /// configured threshold. (The *reason* travels in the striker's
    /// [`TraceEvent::PeerStrike`]; the tribunal only counts testimony.)
    Strike {
        from: NodeId,
        target: NodeId,
        tick: u64,
    },
}

/// An in-flight frame snapshotted for (or restored from) a checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct PendingFrame {
    pub to: NodeId,
    /// The exact encoded frame — incarnation and seq included — so a
    /// restored pending retransmits byte-identical copies.
    pub frame: Vec<u8>,
    pub grains: u64,
}

/// Mutable protocol state a respawned incarnation starts from.
#[derive(Debug, Clone, Default)]
pub(crate) struct RestoreState {
    /// The incarnation about to run (0 at first spawn). No sequence
    /// number is carried: seqs are scoped per incarnation, so a respawn
    /// starts its own namespace at 1.
    pub incarnation: u16,
    /// The Lamport clock the incarnation resumes from. Unlike sequence
    /// numbers the clock is *lineage-scoped*: it must never rewind across
    /// a restart, so the supervisor seeds it with the maximum of the
    /// checkpointed value and the dead incarnation's final clock.
    pub lamport: u64,
    /// Duplicate-suppression trackers, keyed by `(sender, incarnation)`.
    pub trackers: HashMap<(u16, u16), SeqTracker>,
    /// Frames that were unacknowledged at the checkpoint; the new
    /// incarnation resumes retrying them with a fresh retry budget.
    pub pendings: Vec<PendingFrame>,
    /// Peers convicted before this incarnation spawned — the quarantine
    /// survives crash–restart (the supervisor, which owns the tally,
    /// seeds this from its own conviction set at respawn time).
    pub convicted: Vec<NodeId>,
}

/// Static per-peer configuration, fixed at spawn time.
pub(crate) struct PeerConfig {
    pub id: NodeId,
    pub neighbors: Vec<NodeId>,
    pub tick: Duration,
    pub status_interval: Duration,
    /// Checkpoint period; `Duration::ZERO` disables checkpointing (no
    /// crash recovery possible).
    pub checkpoint_interval: Duration,
    pub retry: RetryPolicy,
    pub selector: SelectorKind,
    pub seed: u64,
    /// Trace sink handle; grain movements and checkpoints are emitted
    /// live so an external reader can replay the run.
    pub tracer: Tracer,
    /// Metrics registry handle; a disabled handle (the default) keeps the
    /// peer loop at its uninstrumented cost.
    pub metrics: Metrics,
    /// Phase profiler handle; when enabled, the loop's tick / retry /
    /// receive / checkpoint work is attributed to hierarchical spans
    /// (everything unspanned lands in the thread's residual).
    pub profiler: Profiler,
    /// Byzantine attack machinery, when this peer is an adversary
    /// (corrupts outgoing data frames; everything else stays truthful).
    pub attack: Option<AttackState>,
    /// Byzantine defense configuration, when the run has defenses
    /// enabled (ingress screening, stochastic audit, quarantine). The
    /// mutable [`DefenseState`] is built per incarnation inside the peer,
    /// re-adopting the restore state's convicted set.
    pub defense: Option<crate::byz::DefenseConfig>,
    /// Grains per whole weight unit (the run's quantum) — the defense's
    /// mint bound is expressed in units.
    pub grains_per_unit: u64,
    /// The cluster's shared epoch. Drift offsets below are measured from
    /// it — a respawned incarnation must not replay re-reads whose time
    /// already passed (their effect is either durable or was voided with
    /// the rollback).
    pub epoch: Instant,
    /// Sensor re-reads this peer plays: `(offset from epoch, raw
    /// reading)`, sorted ascending. Each re-read decays the current
    /// classification by `decay` and injects a fresh unit-weight
    /// reading.
    pub drift: Vec<(Duration, Vec<f64>)>,
    /// Forgetting fraction `num/den` applied before each re-injection.
    pub decay: (u64, u64),
    /// Whether this peer is a churn joiner: announce itself to its
    /// neighbors with a [`FrameKind::Join`] at startup so they adopt it.
    pub announce_join: bool,
}

/// Registry handles a peer updates in its loop, minted once per
/// incarnation (series are shared across incarnations: same name and
/// labels resolve to the same cells).
struct PeerInstruments {
    /// Registry handle kept for lazily minting per-sender hop series —
    /// churn can introduce senders that were not neighbors at spawn.
    metrics: Metrics,
    /// This peer's `peer=` label value.
    peer_label: String,
    /// Frame retransmissions.
    retries: Counter,
    /// Duplicate data frames suppressed.
    duplicates: Counter,
    /// Fresh data frames that arrived out of order (left a seq gap).
    reorders: Counter,
    /// Halves returned to sender after an exhausted retry budget.
    returns: Counter,
    /// Wall time of building and shipping one checkpoint, ns.
    checkpoint_ns: Histogram,
    /// Send→ack latency per neighbor link, ns.
    ack_rtt_ns: HashMap<NodeId, Histogram>,
    /// Sender-side waiting time of each merged data frame, per sender, µs.
    hop_wait_us: HashMap<NodeId, Histogram>,
    /// Channel + ingress time of each merged data frame, per sender, µs.
    hop_transit_us: HashMap<NodeId, Histogram>,
}

impl PeerInstruments {
    fn mint(cfg: &PeerConfig) -> Option<PeerInstruments> {
        if !cfg.metrics.enabled() {
            return None;
        }
        let peer = cfg.id.to_string();
        let labels = [("peer", peer.as_str())];
        Some(PeerInstruments {
            metrics: cfg.metrics.clone(),
            peer_label: peer.clone(),
            retries: cfg.metrics.counter(
                "distclass_retries_total",
                "Frame retransmissions after an overdue ack",
                &labels,
            ),
            duplicates: cfg.metrics.counter(
                "distclass_duplicates_total",
                "Duplicate data frames suppressed and re-acked",
                &labels,
            ),
            reorders: cfg.metrics.counter(
                "distclass_reorders_total",
                "Fresh data frames that arrived out of sequence order",
                &labels,
            ),
            returns: cfg.metrics.counter(
                "distclass_returns_total",
                "Halves returned to sender after the retry budget",
                &labels,
            ),
            checkpoint_ns: cfg.metrics.histogram(
                "distclass_checkpoint_ns",
                "Wall time of building and shipping one checkpoint, ns",
                &labels,
            ),
            ack_rtt_ns: cfg
                .neighbors
                .iter()
                .map(|&to| {
                    let to_label = to.to_string();
                    let h = cfg.metrics.histogram(
                        "distclass_ack_rtt_ns",
                        "Send-to-ack latency per link, ns (includes retries)",
                        &[("peer", peer.as_str()), ("to", to_label.as_str())],
                    );
                    (to, h)
                })
                .collect(),
            hop_wait_us: HashMap::new(),
            hop_transit_us: HashMap::new(),
        })
    }

    fn observe_ack(&self, to: NodeId, sent_at: Instant) {
        if let Some(h) = self.ack_rtt_ns.get(&to) {
            h.observe(sent_at.elapsed().as_nanos() as u64);
        }
    }

    /// Records one merged frame's waiting-vs-transit split against the
    /// sender's link series, minting the pair on first sight.
    fn observe_hop(&mut self, from: NodeId, wait_us: u64, transit_us: u64) {
        let from_label = from.to_string();
        let metrics = self.metrics.clone();
        let peer = self.peer_label.clone();
        self.hop_wait_us
            .entry(from)
            .or_insert_with(|| {
                metrics.histogram(
                    "distclass_hop_wait_us",
                    "Sender-side wait (enqueue to delivered transmission) of merged frames, us",
                    &[("peer", peer.as_str()), ("from", from_label.as_str())],
                )
            })
            .observe(wait_us);
        self.hop_transit_us
            .entry(from)
            .or_insert_with(|| {
                metrics.histogram(
                    "distclass_hop_transit_us",
                    "Channel and ingress time (delivered transmission to merge) of merged frames, us",
                    &[("peer", peer.as_str()), ("from", from_label.as_str())],
                )
            })
            .observe(transit_us);
    }
}

/// An unacknowledged data frame, keyed in the pending map by
/// `(incarnation, seq)` — restored pendings keep their dead incarnation's
/// key so old acks still settle them.
struct PendingSend {
    to: NodeId,
    frame: Vec<u8>,
    grains: u64,
    attempts: u32,
    due: Instant,
    /// When this incarnation first put the frame on the wire (restore
    /// time for restored pendings) — the ack-RTT baseline.
    sent_at: Instant,
}

/// How far above the contiguous watermark out-of-order sequence numbers
/// are remembered exactly. The retry layer abandons a frame after
/// `max_retries` backoffs (~1.7 s at defaults), and a sender emits one
/// seq per tick (ms scale), so live frames span far fewer than 4096
/// numbers; the window only force-advances under pathological reordering.
pub(crate) const SEQ_WINDOW: u64 = 4096;

/// Per-sender duplicate suppression with bounded memory: a contiguous
/// watermark plus a sliding window of out-of-order numbers above it.
///
/// When a number arrives more than [`SEQ_WINDOW`] past the watermark, the
/// watermark is forced forward and every skipped number is treated as
/// seen. That direction is the grain-safe one — forgetting a *seen*
/// number would let a late retransmission merge twice (grain creation),
/// while treating an unseen number as seen merely suppresses a frame the
/// retry layer will return to its sender. The forced flag is still
/// surfaced because a suppressed-but-returned half can no longer be
/// distinguished from a delivered one by the auditor's tracker
/// cross-checks, making its books inexact.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqTracker {
    /// Every sequence number in `1..=contiguous` counts as seen.
    contiguous: u64,
    /// Seen numbers above the watermark (reordering gaps).
    above: HashSet<u64>,
    /// Whether the window ever force-advanced past unseen numbers.
    forced: bool,
}

impl SeqTracker {
    /// Whether `seq` has been recorded (or skipped by a forced advance).
    pub(crate) fn contains(&self, seq: u64) -> bool {
        seq <= self.contiguous || self.above.contains(&seq)
    }

    /// Records `seq`; `true` iff it had not been seen before.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if seq > self.contiguous + SEQ_WINDOW {
            // Slide the window: everything at or below the new watermark
            // is treated as seen, whether or not it ever arrived. At
            // least one skipped number is genuinely unseen — had they all
            // been seen, the watermark would have advanced past them.
            let floor = seq - SEQ_WINDOW;
            self.forced = true;
            self.contiguous = self.contiguous.max(floor);
            self.above.retain(|&s| s > floor);
        }
        if seq <= self.contiguous || !self.above.insert(seq) {
            return false;
        }
        while self.above.remove(&(self.contiguous + 1)) {
            self.contiguous += 1;
        }
        true
    }

    /// Whether the window ever force-advanced (audit exactness).
    pub(crate) fn was_forced(&self) -> bool {
        self.forced
    }
}

/// A peer's complete exit record: the public [`NodeReport`] plus the
/// recovery and audit state the supervisor consumes.
pub(crate) struct PeerExit<S> {
    pub report: NodeReport<S>,
    /// Grain-log batch since the last checkpoint. Durable on a clean
    /// exit; voided on a crash (the restore predates all of it).
    pub logs: GrainLogs,
    /// Unsettled sends at exit, by wire identity.
    pub pendings: Vec<SentRec>,
    /// Final duplicate-suppression trackers — the audit's authority on
    /// which frames this node merged and kept.
    pub trackers: HashMap<(u16, u16), SeqTracker>,
    /// Whether the exit was an injected crash ([`Ctrl::Crash`]).
    pub crashed: bool,
    /// Whether any tracker force-advanced (audit becomes inexact).
    pub forced: bool,
    /// The incarnation's final Lamport clock — the floor for any
    /// successor incarnation's clock (no-rewind across restarts).
    pub lamport: u64,
}

/// Runs one incarnation of a peer to completion. The loop exits on
/// `Ctrl::Exit`, `Ctrl::Crash` or when the harness hangs up.
pub(crate) fn run_peer<I, T>(
    mut node: ClassifierNode<I>,
    mut transport: T,
    cfg: PeerConfig,
    restore: RestoreState,
    ctrl: Receiver<Ctrl>,
    events: Sender<PeerEvent<I::Summary>>,
) -> PeerExit<I::Summary>
where
    I: Instance,
    I::Summary: WireSummary,
    T: Transport,
{
    let start = Instant::now();
    let me = cfg.id as u16;
    let incarnation = restore.incarnation;
    // One profile thread per incarnation; the core dedups respawned
    // labels (`peer3`, `peer3#1`, …) so lifetimes never overlap-merge.
    // Dropping `prof` on exit finalizes the thread's lifetime.
    let prof = cfg.profiler.thread(&format!("peer{}", cfg.id));
    let mut rng = StdRng::seed_from_u64(derive_seed(
        cfg.seed,
        0x9EE9 ^ cfg.id as u64 ^ ((incarnation as u64) << 32),
    ));
    let mut metrics = RuntimeMetrics::default();
    let mut instruments = PeerInstruments::mint(&cfg);
    let mut logs = GrainLogs::default();
    let quantum = Quantum::new(cfg.grains_per_unit);
    // Gossip partners can change mid-run (churn joins adopt new peers,
    // leaves forget them), so the neighbor list is owned state.
    let mut neighbors = cfg.neighbors.clone();
    // Drift events whose offset already passed belong to a predecessor
    // incarnation: played there, and either durable or voided with the
    // rollback. Never replay them.
    let mut drift_idx = cfg
        .drift
        .partition_point(|(at, _)| cfg.epoch + *at <= start);
    let mut attack = cfg.attack.clone();
    // The defense's probe-target stream is seeded per lineage (not per
    // incarnation): a restart resumes the same deterministic schedule.
    let mut defense = cfg.defense.map(|d| {
        DefenseState::new(
            d,
            cfg.id,
            derive_seed(cfg.seed, 0xA0D1_7000 ^ cfg.id as u64),
            cfg.grains_per_unit,
            &restore.convicted,
        )
    });
    // Audit retention: the *true* halves this incarnation put on the
    // wire, by seq, recorded before any adversarial corruption — what an
    // `AuditProbe` naming one of those sends is answered from. Bounded
    // so memory stays O(1); a probe for an evicted seq is answered with
    // an empty attestation, which the auditor treats as a vacuous pass.
    const SENT_LOG_CAP: usize = 64;
    let mut sent_log: VecDeque<(u64, Vec<u8>)> = VecDeque::new();
    let mut seen = restore.trackers;
    // Restored pendings keep their original (incarnation, seq) keys and
    // byte-identical frames; only the retry clock restarts.
    let mut pending: HashMap<(u16, u64), PendingSend> = HashMap::new();
    for p in restore.pendings {
        if let Ok(f) = decode_frame(&p.frame) {
            pending.insert(
                (f.incarnation, f.seq),
                PendingSend {
                    to: p.to,
                    grains: p.grains,
                    frame: p.frame,
                    attempts: 0,
                    due: start + cfg.retry.base,
                    sent_at: start,
                },
            );
        }
    }
    // A fresh incarnation starts its own sequence namespace at 1. The
    // Lamport clock, by contrast, continues the lineage's: it resumes
    // from the restore and only ever moves forward.
    let mut seq = 0u64;
    let mut clock = restore.lamport;
    // Stagger round-robin starts so structured topologies don't aim every
    // node at the same recipient in lockstep.
    let mut rr = if neighbors.is_empty() {
        0
    } else {
        cfg.id % neighbors.len()
    };
    let mut quiescing = false;
    let mut crashed = false;
    let mut retiring = false;
    // Whether the retiree's current grains are handed off (or cannot
    // be); a returned half clears it so the retiree hands off again.
    let mut handed_off = false;
    // Handoffs sent so far: each new one goes to the next eligible
    // neighbor, so a returned handoff does not retry a dead target.
    let mut handoffs = 0usize;
    // A churn joiner introduces itself so established peers adopt it.
    // Join frames are fire-and-forget (the supervisor also broadcasts
    // `Ctrl::Adopt`, so a lost announcement is only a lost shortcut).
    if cfg.announce_join {
        for &to in &neighbors {
            clock += 1;
            let hello = encode_frame(FrameKind::Join, me, incarnation, 0, clock, &[]);
            match transport.send(to, &hello) {
                Ok(()) => metrics.bytes_sent += hello.len() as u64,
                Err(_) => metrics.send_errors += 1,
            }
        }
    }
    let mut drained_reported = false;
    let mut last_merge: Option<Duration> = None;
    let mut next_tick = start + cfg.tick;
    let mut next_status = start + cfg.status_interval;
    let checkpointing = cfg.checkpoint_interval > Duration::ZERO;
    let mut next_ckpt = start + cfg.checkpoint_interval;

    'run: loop {
        // 1. Control commands.
        loop {
            match ctrl.try_recv() {
                Ok(Ctrl::Quiesce) => quiescing = true,
                Ok(Ctrl::Crash) => {
                    crashed = true;
                    break 'run;
                }
                Ok(Ctrl::Convict(target)) => {
                    if let Some(d) = defense.as_mut() {
                        d.convict(target);
                    }
                }
                Ok(Ctrl::Retire) => {
                    retiring = true;
                    quiescing = true;
                }
                Ok(Ctrl::Adopt(peer)) => {
                    if peer != cfg.id && !neighbors.contains(&peer) {
                        neighbors.push(peer);
                    }
                }
                Ok(Ctrl::Forget(peer)) => {
                    neighbors.retain(|&p| p != peer);
                }
                Ok(Ctrl::Exit) | Err(TryRecvError::Disconnected) => break 'run,
                Err(TryRecvError::Empty) => break,
            }
        }

        let now = Instant::now();

        // 1b. Retirement handoff: give the entire classification to one
        // live neighbor through the normal sequenced/acked machinery.
        // Until the ack lands the handoff sits in `pending` like any
        // other send — retried, and returned to this peer if abandoned —
        // so the books stay exact whichever way it goes. A returned
        // handoff (or any other returned half) is handed off again.
        if retiring && !handed_off {
            let eligible: Vec<NodeId> = neighbors
                .iter()
                .copied()
                .filter(|&p| defense.as_ref().is_none_or(|d| !d.is_convicted(p)))
                .collect();
            let to = (!eligible.is_empty()).then(|| eligible[handoffs % eligible.len()]);
            match to {
                None => handed_off = true, // no live neighbor: keep the grains
                Some(to) => {
                    let whole = node.take_classification();
                    if whole.is_empty() {
                        handed_off = true;
                    } else {
                        let grains = whole.total_weight().grains();
                        match <I::Summary as WireSummary>::encode(&whole) {
                            Ok(payload) => {
                                seq += 1;
                                clock += 1;
                                let mut frame = encode_frame(
                                    FrameKind::Handoff,
                                    me,
                                    incarnation,
                                    seq,
                                    clock,
                                    &payload,
                                );
                                let now_us = now.duration_since(cfg.epoch).as_micros() as u64;
                                stamp_times(&mut frame, now_us, now_us);
                                match transport.send(to, &frame) {
                                    Ok(()) => {
                                        metrics.msgs_sent += 1;
                                        metrics.bytes_sent += frame.len() as u64;
                                        metrics.grains_split += grains;
                                        logs.sent.push(SentRec {
                                            id: FrameId {
                                                sender: me,
                                                incarnation,
                                                seq,
                                            },
                                            to,
                                            grains,
                                        });
                                        cfg.tracer.emit(|| TraceEvent::GrainDelta {
                                            node: cfg.id,
                                            incarnation,
                                            op: GrainOp::Split,
                                            grains,
                                            peer: to,
                                            lamport: Some(clock),
                                            seq: Some(seq),
                                            span_inc: None,
                                            span_seq: None,
                                            wait_us: None,
                                            transit_us: None,
                                        });
                                        if cfg.defense.is_some() {
                                            if sent_log.len() == SENT_LOG_CAP {
                                                sent_log.pop_front();
                                            }
                                            sent_log.push_back((seq, payload.to_vec()));
                                        }
                                        pending.insert(
                                            (incarnation, seq),
                                            PendingSend {
                                                to,
                                                frame,
                                                grains,
                                                attempts: 0,
                                                due: now + cfg.retry.base,
                                                sent_at: now,
                                            },
                                        );
                                        handed_off = true;
                                        handoffs += 1;
                                    }
                                    Err(_) => {
                                        // Transport refused; take the
                                        // grains back and retry next lap.
                                        metrics.send_errors += 1;
                                        node.receive(whole);
                                    }
                                }
                            }
                            // Unencodable state cannot travel; exit with
                            // the grains still held (accounted as an
                            // ordinary final).
                            Err(_) => {
                                node.receive(whole);
                                handed_off = true;
                            }
                        }
                    }
                }
            }
        }

        // 2a. Sensor drift: play due re-reads from the seeded schedule —
        // decay the old contribution, inject the fresh unit-weight
        // reading, and account both sides so the auditor's
        // `injected`/`forgotten` terms stay exact. Suppressed while
        // quiescing: the drain must converge, not chase a moving sensor.
        while !quiescing && drift_idx < cfg.drift.len() && now >= cfg.epoch + cfg.drift[drift_idx].0
        {
            let reading = &cfg.drift[drift_idx].1;
            drift_idx += 1;
            let Some(val) = node.instance().value_from_components(reading) else {
                continue;
            };
            let (injected, forgotten) =
                node.refresh_reading(&val, quantum, cfg.decay.0, cfg.decay.1);
            metrics.drift_events += 1;
            metrics.grains_injected += injected;
            metrics.grains_forgotten += forgotten;
            logs.injected += injected;
            logs.forgotten += forgotten;
            clock += 1;
            cfg.tracer.emit(|| TraceEvent::SensorDrift {
                node: cfg.id,
                incarnation,
                injected,
                forgotten,
                tick: metrics.ticks,
            });
        }

        // 2. Gossip tick: split and push half to one neighbor.
        if !quiescing && now >= next_tick && !neighbors.is_empty() {
            let _tick_span = prof.span(Phase::Tick);
            next_tick = now + cfg.tick;
            metrics.ticks += 1;
            // Reputation-weighted neighbor selection, degenerate form:
            // convicted peers have reputation zero and are skipped (with
            // a bounded number of re-picks so the tick stays O(degree)).
            let to = {
                let n = neighbors.len();
                let mut next_pick = || match cfg.selector {
                    SelectorKind::RoundRobin => {
                        let pick = neighbors[rr % n];
                        rr = (rr + 1) % n;
                        pick
                    }
                    SelectorKind::UniformRandom => neighbors[rng.gen_range(0..n)],
                };
                let mut pick = next_pick();
                if let Some(d) = &defense {
                    let mut tries = 0;
                    while d.is_convicted(pick) && tries < n {
                        pick = next_pick();
                        tries += 1;
                    }
                    // Every neighbor convicted: hold the half this tick.
                    if d.is_convicted(pick) {
                        None
                    } else {
                        Some(pick)
                    }
                } else {
                    Some(pick)
                }
            };
            let half = match to {
                Some(_) => node.split_for_send(),
                None => Classification::new(),
            };
            // An empty half (every collection at quantum weight) is a
            // legal no-op; anything else goes on the wire.
            if let (Some(to), false) = (to, half.is_empty()) {
                let grains = half.total_weight().grains();
                // An adversary corrupts only the wire copy; its own books
                // below record the true half it gave up.
                let wire_half = attack.as_mut().map(|a| a.corrupt(&half));
                let enc_span = prof.span(Phase::Encode);
                match <I::Summary as WireSummary>::encode(wire_half.as_ref().unwrap_or(&half)) {
                    Ok(payload) => {
                        seq += 1;
                        clock += 1;
                        let mut frame =
                            encode_frame(FrameKind::Data, me, incarnation, seq, clock, &payload);
                        // First transmission: the frame enters the retry
                        // queue and hits the wire in the same instant.
                        let now_us = now.duration_since(cfg.epoch).as_micros() as u64;
                        stamp_times(&mut frame, now_us, now_us);
                        drop(enc_span);
                        let _enq_span = prof.span(Phase::Enqueue);
                        match transport.send(to, &frame) {
                            Ok(()) => {
                                metrics.msgs_sent += 1;
                                metrics.bytes_sent += frame.len() as u64;
                                metrics.grains_split += grains;
                                logs.sent.push(SentRec {
                                    id: FrameId {
                                        sender: me,
                                        incarnation,
                                        seq,
                                    },
                                    to,
                                    grains,
                                });
                                cfg.tracer.emit(|| TraceEvent::GrainDelta {
                                    node: cfg.id,
                                    incarnation,
                                    op: GrainOp::Split,
                                    grains,
                                    peer: to,
                                    lamport: Some(clock),
                                    seq: Some(seq),
                                    span_inc: None,
                                    span_seq: None,
                                    wait_us: None,
                                    transit_us: None,
                                });
                                pending.insert(
                                    (incarnation, seq),
                                    PendingSend {
                                        to,
                                        frame,
                                        grains,
                                        attempts: 0,
                                        due: now + cfg.retry.base,
                                        sent_at: now,
                                    },
                                );
                                // Retain the true half for audit
                                // attestation. An honest node's books
                                // equal its wire copy; an adversary's
                                // books record the half it actually
                                // gave up, pre-corruption.
                                if cfg.defense.is_some() {
                                    let true_payload = if attack.is_some() {
                                        <I::Summary as WireSummary>::encode(&half).ok()
                                    } else {
                                        Some(payload.clone())
                                    };
                                    if let Some(p) = true_payload {
                                        if sent_log.len() == SENT_LOG_CAP {
                                            sent_log.pop_front();
                                        }
                                        sent_log.push_back((seq, p.to_vec()));
                                    }
                                }
                            }
                            Err(_) => {
                                metrics.send_errors += 1;
                                node.receive(half);
                            }
                        }
                    }
                    // Unencodable halves (never produced by a healthy
                    // instance) stay local rather than vanish.
                    Err(_) => {
                        drop(enc_span);
                        node.receive(half)
                    }
                }
            }

            // Stochastic audit: on this tick's cadence slot, challenge a
            // seeded pick among remembered senders to attest the send
            // named in the probe payload (the seq of the last data frame
            // accepted from that sender).
            if let Some(d) = defense.as_mut() {
                if let Some((target, probe_seq, audited_seq)) = d.due_probe(metrics.ticks) {
                    let _audit_span = prof.span(Phase::Audit);
                    clock += 1;
                    let probe = encode_frame(
                        FrameKind::AuditProbe,
                        me,
                        incarnation,
                        probe_seq,
                        clock,
                        &audited_seq.to_le_bytes(),
                    );
                    cfg.tracer.emit(|| TraceEvent::AuditProbe {
                        node: cfg.id,
                        target,
                        tick: metrics.ticks,
                    });
                    match transport.send(target, &probe) {
                        Ok(()) => {
                            metrics.bytes_sent += probe.len() as u64;
                            metrics.audit_bytes += probe.len() as u64;
                        }
                        Err(_) => metrics.send_errors += 1,
                    }
                }
            }
        }

        // 3. Retransmit overdue pendings; return exhausted ones to sender.
        // Spanned only when there is work: an empty pending map is a
        // no-op scan and would otherwise flood the retry phase with
        // zero-length samples every loop lap.
        let retry_span = (!pending.is_empty()).then(|| prof.span(Phase::Retry));
        let mut abandoned: Vec<(u16, u64)> = Vec::new();
        for (&key, p) in pending.iter_mut() {
            if now < p.due {
                continue;
            }
            if p.attempts >= cfg.retry.max_retries {
                abandoned.push(key);
                continue;
            }
            p.attempts += 1;
            p.due = now + cfg.retry.backoff(p.attempts);
            // Refresh the sent stamp in place: waiting vs transit is
            // measured against the transmission that actually delivered,
            // and only this attempt can be it if the frame reaches the
            // receiver's merge. The enqueue stamp and the acked identity
            // (sender, incarnation, seq) are untouched.
            restamp_sent(
                &mut p.frame,
                now.duration_since(cfg.epoch).as_micros() as u64,
            );
            match transport.send(p.to, &p.frame) {
                Ok(()) => {
                    metrics.retries += 1;
                    metrics.bytes_sent += p.frame.len() as u64;
                    if let Some(ins) = &instruments {
                        ins.retries.inc();
                    }
                }
                Err(_) => metrics.send_errors += 1,
            }
        }
        for key in abandoned {
            let p = pending.remove(&key).expect("abandoned key is pending");
            if let Ok(frame) = decode_frame(&p.frame) {
                if let Ok(half) = <I::Summary as WireSummary>::decode(frame.payload) {
                    node.receive(half);
                    metrics.returned += 1;
                    metrics.grains_returned += p.grains;
                    if let Some(ins) = &instruments {
                        ins.returns.inc();
                    }
                    logs.returned.push(SentRec {
                        id: FrameId {
                            sender: me,
                            incarnation: key.0,
                            seq: key.1,
                        },
                        to: p.to,
                        grains: p.grains,
                    });
                    clock += 1;
                    cfg.tracer.emit(|| TraceEvent::GrainDelta {
                        node: cfg.id,
                        incarnation,
                        op: GrainOp::Return,
                        grains: p.grains,
                        peer: p.to,
                        lamport: Some(clock),
                        seq: None,
                        // The span names this node's own earlier split
                        // (possibly from a prior incarnation, for
                        // restored pendings).
                        span_inc: Some(key.0 as u64),
                        span_seq: Some(key.1),
                        // A return is a local timeout, not a hop.
                        wait_us: None,
                        transit_us: None,
                    });
                    last_merge = Some(start.elapsed());
                    // A retiree must not leave with returned grains.
                    if retiring {
                        handed_off = false;
                    }
                }
            }
        }
        drop(retry_span);

        // 4. Receive window: until the next deadline, capped for control
        // responsiveness.
        let next_deadline = if quiescing {
            next_status
        } else {
            next_tick.min(next_status)
        };
        let wait = next_deadline
            .saturating_duration_since(now)
            .clamp(Duration::from_micros(500), Duration::from_millis(5));
        let idle_span = prof.span(Phase::IdleWait);
        let received = transport.recv_timeout(wait);
        drop(idle_span);
        match received {
            Ok(Some(buf)) => match decode_frame(&buf) {
                Ok(frame) => match frame.kind {
                    FrameKind::Ack => {
                        metrics.bytes_received += buf.len() as u64;
                        // Lamport receive rule: acks carry causality too.
                        clock = clock.max(frame.lamport) + 1;
                        // The ack echoes the data frame's (incarnation,
                        // seq); only the addressee's ack settles it.
                        let key = (frame.incarnation, frame.seq);
                        let settled = pending
                            .get(&key)
                            .is_some_and(|p| p.to == frame.sender as NodeId);
                        if settled {
                            let p = pending.remove(&key).expect("settled key is pending");
                            metrics.acks_received += 1;
                            if let Some(ins) = &instruments {
                                ins.observe_ack(p.to, p.sent_at);
                            }
                        }
                    }
                    FrameKind::Join => {
                        // A churn joiner's announcement: adopt it as a
                        // gossip partner. Idempotent, no ack needed.
                        metrics.bytes_received += buf.len() as u64;
                        clock = clock.max(frame.lamport) + 1;
                        let peer = frame.sender as NodeId;
                        if peer != cfg.id && !neighbors.contains(&peer) {
                            neighbors.push(peer);
                        }
                    }
                    // A handoff is a retiring peer's whole classification;
                    // it rides the same dedup/screen/merge/ack path as an
                    // ordinary half.
                    FrameKind::Data | FrameKind::Handoff => {
                        let _recv_span = prof.span(Phase::Recv);
                        metrics.bytes_received += buf.len() as u64;
                        // Lamport receive rule: advance past the sender's
                        // stamp before any event this receipt causes.
                        clock = clock.max(frame.lamport) + 1;
                        let tracker = seen.entry((frame.sender, frame.incarnation)).or_default();
                        if tracker.contains(frame.seq) {
                            // Duplicate: the merge already happened; just
                            // re-ack so the sender stops retransmitting.
                            metrics.duplicates += 1;
                            if let Some(ins) = &instruments {
                                ins.duplicates.inc();
                            }
                            clock += 1;
                            send_ack(&mut transport, &mut metrics, me, clock, &frame);
                        } else if retiring {
                            // A retiree merges nothing new and sends no
                            // ack: the sender's retry budget runs out and
                            // its return path takes the half back, so the
                            // retiree leaves holding no grains. The seq
                            // stays unseen, so nothing is suppressed.
                        } else {
                            // A fresh frame that leaves a sequence gap
                            // arrived out of order (loss or reordering).
                            let gapped = frame.seq > tracker.contiguous + 1;
                            // The seq is recorded only once the payload
                            // decodes — an undecodable frame must stay
                            // unseen so a clean retransmission can land.
                            let decode_span = prof.span(Phase::Decode);
                            let decoded = <I::Summary as WireSummary>::decode(frame.payload);
                            drop(decode_span);
                            // Ingress screening, one verdict per decoded
                            // frame (the screen is pure).
                            let verdict = decoded.as_ref().ok().and_then(|half| {
                                let _screen_span =
                                    defense.as_ref().map(|_| prof.span(Phase::Screen));
                                defense
                                    .as_ref()
                                    .and_then(|d| d.screen(frame.sender as NodeId, half))
                            });
                            match (decoded, verdict) {
                                (Ok(half), Some(reason)) => {
                                    // Ingress screening: acknowledge and
                                    // discard. The seq is recorded so
                                    // retransmissions stay suppressed and
                                    // the sender settles; the claim is
                                    // logged so the grain auditor can
                                    // measure any minted excess; nothing
                                    // is merged.
                                    tracker.insert(frame.seq);
                                    let claimed = half.total_weight().grains();
                                    metrics.frames_rejected += 1;
                                    logs.rejected.push(RejectedRec {
                                        id: FrameId {
                                            sender: frame.sender,
                                            incarnation: frame.incarnation,
                                            seq: frame.seq,
                                        },
                                        grains: claimed,
                                    });
                                    cfg.tracer.emit(|| TraceEvent::FrameRejected {
                                        node: cfg.id,
                                        sender: frame.sender as NodeId,
                                        grains: claimed,
                                        reason: reason.as_str().to_string(),
                                        tick: metrics.ticks,
                                    });
                                    if let Some(strike) = reason.strike() {
                                        cfg.tracer.emit(|| TraceEvent::PeerStrike {
                                            node: cfg.id,
                                            target: frame.sender as NodeId,
                                            reason: strike.as_str().to_string(),
                                            tick: metrics.ticks,
                                        });
                                        let _ = events.send(PeerEvent::Strike {
                                            from: cfg.id,
                                            target: frame.sender as NodeId,
                                            tick: metrics.ticks,
                                        });
                                    }
                                    clock += 1;
                                    send_ack(&mut transport, &mut metrics, me, clock, &frame);
                                }
                                (Ok(half), None) => {
                                    tracker.insert(frame.seq);
                                    if gapped {
                                        if let Some(ins) = &instruments {
                                            ins.reorders.inc();
                                        }
                                    }
                                    // Waiting-vs-transit split of this hop,
                                    // from the frame's stamps (µs since the
                                    // cluster epoch shared by every peer
                                    // thread). A zero sent stamp means the
                                    // frame was never stamped (legacy bytes
                                    // restored from an old checkpoint).
                                    let deliver_us = cfg.epoch.elapsed().as_micros() as u64;
                                    let (wait_us, transit_us) = if frame.sent_us == 0 {
                                        (None, None)
                                    } else {
                                        (
                                            Some(frame.sent_us.saturating_sub(frame.enqueue_us)),
                                            Some(deliver_us.saturating_sub(frame.sent_us)),
                                        )
                                    };
                                    if let (Some(w), Some(t)) = (wait_us, transit_us) {
                                        metrics.wait_us = metrics.wait_us.saturating_add(w);
                                        metrics.transit_us = metrics.transit_us.saturating_add(t);
                                        if let Some(ins) = instruments.as_mut() {
                                            ins.observe_hop(frame.sender as NodeId, w, t);
                                        }
                                    }
                                    let grains = half.total_weight().grains();
                                    // The audit's reference: the wire
                                    // copy of this sender's last send,
                                    // and which send it was.
                                    if let Some(d) = defense.as_mut() {
                                        d.remember(
                                            frame.sender as NodeId,
                                            &half,
                                            frame.incarnation,
                                            frame.seq,
                                        );
                                    }
                                    let merge_span = prof.span(Phase::Merge);
                                    node.receive(half);
                                    drop(merge_span);
                                    metrics.msgs_received += 1;
                                    metrics.grains_merged += grains;
                                    logs.merged.push(MergedRec {
                                        id: FrameId {
                                            sender: frame.sender,
                                            incarnation: frame.incarnation,
                                            seq: frame.seq,
                                        },
                                        grains,
                                    });
                                    cfg.tracer.emit(|| TraceEvent::GrainDelta {
                                        node: cfg.id,
                                        incarnation,
                                        op: GrainOp::Merge,
                                        grains,
                                        peer: frame.sender as NodeId,
                                        lamport: Some(clock),
                                        seq: None,
                                        // The parent span: the sender's
                                        // split that minted this half.
                                        span_inc: Some(frame.incarnation as u64),
                                        span_seq: Some(frame.seq),
                                        wait_us,
                                        transit_us,
                                    });
                                    last_merge = Some(start.elapsed());
                                    clock += 1;
                                    send_ack(&mut transport, &mut metrics, me, clock, &frame);
                                }
                                (Err(_), _) => metrics.decode_errors += 1,
                            }
                        }
                    }
                    FrameKind::AuditProbe => {
                        let _audit_span = prof.span(Phase::Audit);
                        metrics.bytes_received += buf.len() as u64;
                        metrics.audit_bytes += buf.len() as u64;
                        clock = clock.max(frame.lamport) + 1;
                        // Attest the half recorded in the books for the
                        // audited send — adversaries too: attacks
                        // corrupt only the outgoing wire copy, the
                        // books stay truthful, and the gap between a
                        // corrupted wire half and this truthful send
                        // record is exactly what convicts them (a liar
                        // consistent enough to also forge its books
                        // breaks grain conservation instead; see
                        // `byz::plan::AdversaryRole`). An unknown or
                        // evicted seq attests empty — a vacuous pass
                        // at the auditor, never a strike.
                        let audited = <[u8; 8]>::try_from(frame.payload)
                            .ok()
                            .map(u64::from_le_bytes);
                        let attested: Vec<u8> = audited
                            .and_then(|s| {
                                sent_log
                                    .iter()
                                    .find(|(q, _)| *q == s)
                                    .map(|(_, p)| p.clone())
                            })
                            .unwrap_or_default();
                        clock += 1;
                        let reply = encode_frame(
                            FrameKind::AuditReply,
                            me,
                            incarnation,
                            frame.seq,
                            clock,
                            &attested,
                        );
                        match transport.send(frame.sender as NodeId, &reply) {
                            Ok(()) => {
                                metrics.bytes_sent += reply.len() as u64;
                                metrics.audit_bytes += reply.len() as u64;
                            }
                            Err(_) => metrics.send_errors += 1,
                        }
                    }
                    FrameKind::AuditReply => {
                        let _audit_span = prof.span(Phase::Audit);
                        metrics.bytes_received += buf.len() as u64;
                        metrics.audit_bytes += buf.len() as u64;
                        clock = clock.max(frame.lamport) + 1;
                        if let Some(d) = defense.as_mut() {
                            // An empty payload is the target saying "I
                            // no longer retain that send" — passed to
                            // the verifier as `None` (vacuous pass). An
                            // undecodable non-empty payload is ignored;
                            // the probe simply expires unanswered.
                            let attested = if frame.payload.is_empty() {
                                Some(None)
                            } else {
                                <I::Summary as WireSummary>::decode(frame.payload)
                                    .ok()
                                    .map(Some)
                            };
                            if let Some(attested) = attested {
                                if let Some(out) = d.verify_reply(
                                    frame.sender as NodeId,
                                    frame.incarnation,
                                    frame.seq,
                                    attested.as_ref(),
                                ) {
                                    metrics.vacuous_passes += out.vacuous as u64;
                                    cfg.tracer.emit(|| TraceEvent::AuditVerdict {
                                        node: cfg.id,
                                        target: out.target,
                                        passed: out.passed,
                                        vacuous: out.vacuous,
                                        tick: metrics.ticks,
                                    });
                                    if !out.passed {
                                        cfg.tracer.emit(|| TraceEvent::PeerStrike {
                                            node: cfg.id,
                                            target: out.target,
                                            reason: StrikeReason::Drift.as_str().to_string(),
                                            tick: metrics.ticks,
                                        });
                                        let _ = events.send(PeerEvent::Strike {
                                            from: cfg.id,
                                            target: out.target,
                                            tick: metrics.ticks,
                                        });
                                    }
                                }
                            }
                        }
                    }
                },
                Err(_) => metrics.decode_errors += 1,
            },
            Ok(None) => {}
            Err(_) => metrics.decode_errors += 1,
        }

        let now = Instant::now();

        // 5a. Checkpoint: snapshot recovery state, flush the grain-log
        // batch (it becomes durable once the supervisor receives it).
        if checkpointing && now >= next_ckpt {
            next_ckpt = now + cfg.checkpoint_interval;
            metrics.checkpoints += 1;
            // One measurement feeds both the profiler tree and the legacy
            // checkpoint histogram, so the two always agree; the clock is
            // read only when at least one consumer wants it.
            let ckpt_span = prof.span_timed(Phase::Checkpoint, instruments.is_some());
            cfg.tracer.emit(|| {
                let (split, merged, returned) = logs.grain_sums();
                TraceEvent::PeerCheckpoint {
                    node: cfg.id,
                    incarnation,
                    split,
                    merged,
                    returned,
                }
            });
            let msg = CheckpointMsg {
                id: cfg.id,
                classification: node.classification().clone(),
                restore: RestoreState {
                    incarnation,
                    lamport: clock,
                    trackers: seen.clone(),
                    pendings: pending
                        .values()
                        .map(|p| PendingFrame {
                            to: p.to,
                            frame: p.frame.clone(),
                            grains: p.grains,
                        })
                        .collect(),
                    convicted: defense
                        .as_ref()
                        .map(DefenseState::convicted)
                        .unwrap_or_default(),
                },
                logs: std::mem::take(&mut logs),
            };
            let hung_up = events.send(PeerEvent::Checkpoint(Box::new(msg))).is_err();
            let ckpt_ns = ckpt_span.stop();
            if let (Some(ins), Some(ns)) = (&instruments, ckpt_ns) {
                ins.checkpoint_ns.observe(ns);
            }
            if hung_up {
                break 'run;
            }
        }

        // 5b. Status reports: periodic, plus immediately on drain. A
        // retiree is drained only once its grains are handed off.
        let drained = quiescing && pending.is_empty() && (!retiring || handed_off);
        if now >= next_status || (drained && !drained_reported) {
            next_status = now + cfg.status_interval;
            drained_reported = drained;
            let status = Status {
                id: cfg.id,
                classification: node.classification().clone(),
                drained,
            };
            if events.send(PeerEvent::Status(status)).is_err() {
                // Harness hung up: nothing left to report to.
                break 'run;
            }
        }
    }

    let forced = seen.values().any(SeqTracker::was_forced);
    PeerExit {
        report: NodeReport {
            id: cfg.id,
            classification: node.classification().clone(),
            metrics,
            last_merge,
            undelivered: pending.len(),
            restarts: incarnation as u32,
            outcome: NodeOutcome::Completed,
            error: None,
        },
        logs,
        pendings: pending
            .iter()
            .map(|(&(inc, seq), p)| SentRec {
                id: FrameId {
                    sender: me,
                    incarnation: inc,
                    seq,
                },
                to: p.to,
                grains: p.grains,
            })
            .collect(),
        trackers: seen,
        crashed,
        forced,
        lamport: clock,
    }
}

fn send_ack<T: Transport>(
    transport: &mut T,
    metrics: &mut RuntimeMetrics,
    me: u16,
    clock: u64,
    data: &crate::frame::Frame<'_>,
) {
    // The ack names the acker as sender but echoes the *data frame's*
    // incarnation and seq — the key of the pending entry it settles.
    // It carries the acker's (pre-bumped) Lamport clock.
    let ack = encode_frame(FrameKind::Ack, me, data.incarnation, data.seq, clock, &[]);
    match transport.send(data.sender as NodeId, &ack) {
        Ok(()) => metrics.bytes_sent += ack.len() as u64,
        Err(_) => metrics.send_errors += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChannelNet, ChannelTransport};
    use distclass_core::{CentroidInstance, Collection, Weight};
    use distclass_linalg::Vector;
    use std::sync::{mpsc, Arc};
    use std::thread;

    const GPU: u64 = 1 << 10;

    /// Node 0 of an `n`-endpoint channel net, running as a retiring
    /// peer whose neighbors are every other node. The test plays those
    /// neighbors through `far` (index `k` is node `k + 1`).
    struct Retiree {
        far: Vec<ChannelTransport>,
        ctrl: Sender<Ctrl>,
        events: Receiver<PeerEvent<Vector>>,
        handle: thread::JoinHandle<PeerExit<Vector>>,
    }

    fn spawn_retiree(n: usize, retry: RetryPolicy) -> Retiree {
        let mut endpoints = ChannelNet::reliable(n);
        let near = endpoints.remove(0);
        let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
        let node = ClassifierNode::new(inst, &Vector::from([1.0, 1.0]), Quantum::new(GPU));
        let cfg = PeerConfig {
            id: 0,
            neighbors: (1..n).collect(),
            tick: Duration::from_millis(1),
            status_interval: Duration::from_millis(5),
            checkpoint_interval: Duration::ZERO,
            retry,
            selector: SelectorKind::RoundRobin,
            seed: 5,
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            profiler: Profiler::disabled(),
            attack: None,
            defense: None,
            grains_per_unit: GPU,
            epoch: Instant::now(),
            drift: Vec::new(),
            decay: (1, 2),
            announce_join: false,
        };
        let (ctrl_tx, ctrl_rx) = mpsc::channel();
        let (ev_tx, ev_rx) = mpsc::channel();
        ctrl_tx.send(Ctrl::Retire).expect("peer not started yet");
        let handle = thread::spawn(move || {
            run_peer(node, near, cfg, RestoreState::default(), ctrl_rx, ev_tx)
        });
        Retiree {
            far: endpoints,
            ctrl: ctrl_tx,
            events: ev_rx,
            handle,
        }
    }

    /// The next frame of `kind` at `endpoint`, as (incarnation, seq, grains).
    fn next_frame(endpoint: &mut ChannelTransport, kind: FrameKind) -> (u16, u64, u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let Some(buf) = endpoint
                .recv_timeout(Duration::from_millis(10))
                .expect("recv")
            else {
                continue;
            };
            let frame = decode_frame(&buf).expect("peer frames decode");
            if frame.kind == kind {
                let half = Vector::decode(frame.payload).expect("payload decodes");
                return (frame.incarnation, frame.seq, half.total_weight().grains());
            }
        }
        panic!("no {kind:?} frame within 10 s");
    }

    impl Retiree {
        /// Waits for the retiree to report drained, then exits it.
        fn exit_when_drained(self) -> (Vec<ChannelTransport>, PeerExit<Vector>) {
            loop {
                match self.events.recv_timeout(Duration::from_secs(10)) {
                    Ok(PeerEvent::Status(s)) if s.drained => break,
                    Ok(_) => {}
                    Err(e) => panic!("retiree never drained: {e}"),
                }
            }
            self.ctrl.send(Ctrl::Exit).expect("peer alive");
            (self.far, self.handle.join().expect("peer thread"))
        }
    }

    fn ack(endpoint: &mut ChannelTransport, me: u16, incarnation: u16, seq: u64) {
        let frame = encode_frame(FrameKind::Ack, me, incarnation, seq, 100, &[]);
        endpoint.send(0, &frame).expect("peer alive");
    }

    /// A data frame that was in flight when its recipient retired (the
    /// retiree-holds-grains failure of `dyn_workloads` seed 5): the
    /// retiree must neither merge nor ack it, so the sender's return path
    /// takes the half back.
    #[test]
    fn retiree_refuses_data_that_lands_after_its_handoff() {
        let mut retiree = spawn_retiree(2, RetryPolicy::default());
        let (inc, seq, grains) = next_frame(&mut retiree.far[0], FrameKind::Handoff);
        assert_eq!(grains, GPU, "the handoff carries the whole unit");
        let mut half = Classification::new();
        half.push(Collection::new(
            Vector::from([5.0, 5.0]),
            Weight::from_grains(GPU / 2),
        ));
        let payload = Vector::encode(&half).expect("encodes");
        let data = encode_frame(FrameKind::Data, 1, 0, 1, 50, &payload);
        retiree.far[0].send(0, &data).expect("peer alive");
        ack(&mut retiree.far[0], 1, inc, seq);
        let (mut far, exit) = retiree.exit_when_drained();
        assert_eq!(exit.report.classification.total_weight().grains(), 0);
        assert_eq!(exit.report.metrics.msgs_received, 0);
        while let Some(buf) = far[0].recv_timeout(Duration::ZERO).expect("recv") {
            let frame = decode_frame(&buf).expect("peer frames decode");
            assert_ne!(
                frame.kind,
                FrameKind::Ack,
                "the retiree acked a refused frame"
            );
        }
    }

    /// A handoff whose retry budget runs out comes back to the retiree,
    /// which hands it off again — to the next neighbor — before it exits.
    #[test]
    fn retiree_hands_off_a_returned_handoff_again() {
        let retry = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            max_retries: 2,
        };
        let mut retiree = spawn_retiree(3, retry);
        // Node 1 swallows the first handoff; node 2 takes the second.
        let (_, _, first) = next_frame(&mut retiree.far[0], FrameKind::Handoff);
        let (inc, seq, second) = next_frame(&mut retiree.far[1], FrameKind::Handoff);
        assert_eq!((first, second), (GPU, GPU));
        ack(&mut retiree.far[1], 2, inc, seq);
        let (_, exit) = retiree.exit_when_drained();
        assert_eq!(exit.report.metrics.returned, 1);
        assert_eq!(exit.report.classification.total_weight().grains(), 0);
        assert!(exit.pendings.is_empty());
    }

    #[test]
    fn seq_tracker_dedups_in_order() {
        let mut t = SeqTracker::default();
        assert!(t.insert(1));
        assert!(t.insert(2));
        assert!(!t.insert(1));
        assert!(!t.insert(2));
        assert_eq!(t.contiguous, 2);
        assert!(t.above.is_empty());
        assert!(!t.was_forced());
    }

    #[test]
    fn seq_tracker_handles_reordering_with_bounded_memory() {
        let mut t = SeqTracker::default();
        assert!(t.insert(3));
        assert!(t.insert(1));
        assert!(!t.insert(3));
        assert_eq!(t.contiguous, 1);
        assert_eq!(t.above.len(), 1);
        assert!(t.insert(2));
        // Gap closed: watermark advances, set empties.
        assert_eq!(t.contiguous, 3);
        assert!(t.above.is_empty());
        assert!(!t.insert(2));
        assert!(!t.was_forced());
    }

    /// Regression: the out-of-order set must not grow without bound on a
    /// long-lived link with persistent gaps.
    #[test]
    fn seq_tracker_window_bounds_memory_under_persistent_gaps() {
        let mut t = SeqTracker::default();
        // Seq 1 never arrives, so the watermark can't advance naturally;
        // a million further seqs must not hoard a million entries.
        for s in 2..=1_000_000u64 {
            t.insert(s);
        }
        assert!(
            (t.above.len() as u64) <= SEQ_WINDOW,
            "out-of-order set grew to {}",
            t.above.len()
        );
        assert!(t.was_forced(), "forced advance must be surfaced");
        // Skipped numbers count as seen: a late copy of seq 1 (say, a
        // stale retransmission) is suppressed, never merged twice.
        assert!(t.contains(1));
        assert!(!t.insert(1));
        // The recent window still dedups exactly.
        assert!(!t.insert(1_000_000));
        assert!(t.insert(1_000_001));
    }

    #[test]
    fn seq_tracker_never_forgets_seen_numbers() {
        let mut t = SeqTracker::default();
        for s in 1..=10_000u64 {
            assert!(t.insert(s));
        }
        assert!(!t.was_forced(), "contiguous growth needs no forcing");
        for s in 1..=10_000u64 {
            assert!(t.contains(s), "seq {s} forgotten — double-merge hazard");
        }
    }

    /// Sustained join/leave churn cycles incarnations rapidly, and every
    /// `(peer, incarnation)` pair gets a fresh tracker whose sequence
    /// space restarts at 1. A forced advance anywhere marks the whole
    /// audit inexact, so cycling incarnations fast must not force as
    /// long as each incarnation's reordering stays inside the
    /// [`SEQ_WINDOW`] (4096-seq) bound — otherwise every churn storm
    /// would be unauditable by construction.
    #[test]
    fn seq_tracker_stays_exact_under_rapid_incarnation_cycling() {
        let mut trackers: HashMap<(u16, u16), SeqTracker> = HashMap::new();
        for peer in 0..8u16 {
            for incarnation in 0..64u16 {
                let t = trackers.entry((peer, incarnation)).or_default();
                // Worst tolerated reordering: deliver each block of 1000
                // sequence numbers in reverse — displacement stays well
                // inside the 4096 window.
                for block in 0..2u64 {
                    for s in (block * 1000 + 1..=(block + 1) * 1000).rev() {
                        assert!(t.insert(s), "peer {peer}/{incarnation} seq {s} fresh");
                    }
                }
            }
        }
        for ((peer, incarnation), t) in &trackers {
            assert!(
                !t.was_forced(),
                "peer {peer} incarnation {incarnation} force-advanced — the audit would go inexact"
            );
            assert_eq!(t.contiguous, 2000);
        }
        // Late frames from a dead incarnation land in that incarnation's
        // own tracker and dedup there; they can never collide with the
        // successor's identical sequence numbers.
        assert!(!trackers.get_mut(&(3, 0)).unwrap().insert(7));
        assert!(trackers.get_mut(&(3, 1)).unwrap().insert(2001));
    }
}
