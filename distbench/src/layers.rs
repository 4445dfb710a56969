//! The traced run: untraced/traced operation pairs, their fidelity check,
//! and the per-layer metrics folded from the traced operations' spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::sync::{Arc, Mutex};

use distclass_core::{Classification, Instance};
use distclass_gossip::wire::WireSummary;
use distclass_linalg::Vector;
use distclass_runtime::RuntimeMetrics;

use crate::alloc;
use crate::report::Metric;
use crate::trace::{self, highest_supported, percentile, tail_supported, Name, Span, NO_PARENT};
use crate::workloads::{cluster_op, sim_op, ClusterOp, Workload, CLUSTER_N};
use crate::wrap::{FrameSplit, Timed};

/// Per-name span totals: count, duration, self time (ns), self allocations.
#[derive(Debug, Clone, Copy, Default)]
struct NameTotals {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    allocs: u64,
}

/// Accumulates the traced operations of one run.
#[derive(Debug)]
pub struct Layers {
    workload: Workload,
    ops: u64,
    build_s: Vec<f64>,
    sim_new_s: Vec<f64>,
    adjacency_bytes: u64,
    round_ms: Vec<f64>,
    round_ns: u64,
    engine_self_ns: u64,
    engine_allocs: u64,
    msgs: u64,
    wire_bytes: u64,
    wire_msgs: u64,
    partition_us: Vec<f64>,
    partition_len: u64,
    em_iters: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    send_us: Vec<f64>,
    recv_empty: u64,
    frame_decode_us: Vec<f64>,
    split: FrameSplit,
    runtime: RuntimeMetrics,
    cluster_cpu_s: f64,
    cluster_wall_s: f64,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    by_name: BTreeMap<Name, NameTotals>,
    /// The last traced operation's spans, kept only for `--spans`.
    last_spans: Option<Vec<Span>>,
    notes: Vec<String>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Layers {
    /// An empty accumulator for `workload`; `keep_spans` keeps the last
    /// traced operation's spans for [`Layers::write_spans`].
    pub fn new(workload: Workload, keep_spans: bool) -> Self {
        Layers {
            workload,
            ops: 0,
            build_s: Vec::new(),
            sim_new_s: Vec::new(),
            adjacency_bytes: 0,
            round_ms: Vec::new(),
            round_ns: 0,
            engine_self_ns: 0,
            engine_allocs: 0,
            msgs: 0,
            wire_bytes: 0,
            wire_msgs: 0,
            partition_us: Vec::new(),
            partition_len: 0,
            em_iters: Vec::new(),
            encode_us: Vec::new(),
            decode_us: Vec::new(),
            send_us: Vec::new(),
            recv_empty: 0,
            frame_decode_us: Vec::new(),
            split: FrameSplit::default(),
            runtime: RuntimeMetrics::default(),
            cluster_cpu_s: 0.0,
            cluster_wall_s: 0.0,
            traced_wall_s: 0.0,
            untraced_wall_s: 0.0,
            by_name: BTreeMap::new(),
            last_spans: keep_spans.then(Vec::new),
            notes: Vec::new(),
        }
    }

    /// Folds one traced operation's spans; returns each span's self time.
    fn absorb_spans(&mut self, spans: Vec<Span>) -> (Vec<Span>, Vec<u64>) {
        let selfs = trace::self_times(&spans);
        for (s, &self_ns) in spans.iter().zip(&selfs) {
            let t = self.by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
            t.allocs += s.self_allocs;
            let us = s.dur_ns() as f64 / 1e3;
            match s.name {
                Name::TopologyBuild => self.build_s.push(us / 1e6),
                Name::SimNew => self.sim_new_s.push(us / 1e6),
                Name::Round => {
                    self.round_ms.push(us / 1e3);
                    self.round_ns += s.dur_ns();
                    self.engine_self_ns += self_ns;
                    self.engine_allocs += s.self_allocs;
                }
                Name::Partition => {
                    self.partition_us.push(us);
                    self.partition_len += u64::from(s.tag);
                }
                Name::Send => self.send_us.push(us),
                Name::Recv => self.recv_empty += u64::from(s.tag),
                Name::FrameDecode => self.frame_decode_us.push(us),
                Name::MergeSet | Name::Cluster => {}
            }
        }
        self.ops += 1;
        (spans, selfs)
    }

    /// Runs one simulator operation untraced and then traced at `seed`,
    /// checks that the two agree bit for bit, and folds the traced one.
    /// Returns why the pair failed, if it did.
    pub fn sim_pair<I, E>(
        &mut self,
        workload: Workload,
        make: fn() -> I,
        n: usize,
        seed: u64,
        em_iters: E,
    ) -> Vec<String>
    where
        I: Instance<Value = Vector>,
        I::Summary: WireSummary,
        E: Fn(&I, &[Classification<I::Summary>]) -> Vec<f64>,
    {
        // Alternate which side runs first so that warm-up favours neither.
        let untraced_first = self.ops.is_multiple_of(2);
        let untraced = || sim_op(workload, make(), n, seed, false, true).0;
        let mut reference = untraced_first.then(untraced);
        alloc::set_counting(true);
        let (traced, inst) = sim_op(workload, Timed::new(make()), n, seed, true, true);
        alloc::set_counting(false);
        let spans = trace::take();
        let reference = reference.take().unwrap_or_else(untraced);

        let mut why = Vec::new();
        why.extend(reference.failure.iter().map(|w| format!("untraced: {w}")));
        why.extend(traced.failure.iter().map(|w| format!("traced: {w}")));
        if reference.fingerprint != traced.fingerprint {
            why.push("traced classifications differ from the untraced ones".into());
        }
        let counts = |o: &crate::workloads::SimOp| (o.rounds, o.msgs, o.bytes);
        if counts(&reference) != counts(&traced) {
            why.push(format!(
                "traced (rounds, msgs, bytes) {:?} differ from untraced {:?}",
                counts(&traced),
                counts(&reference)
            ));
        }

        let rounds_ns: u64 = spans
            .iter()
            .filter(|s| s.name == Name::Round)
            .map(Span::dur_ns)
            .sum();
        let (spans, selfs) = self.absorb_spans(spans);
        let under_rounds: u64 = (0..spans.len())
            .filter(|&i| spans[root_of(&spans, i)].name == Name::Round)
            .map(|i| selfs[i])
            .sum();
        if under_rounds != rounds_ns {
            why.push(format!(
                "per-layer self times add up to {under_rounds} ns, run_round spans to {rounds_ns} ns"
            ));
        }
        self.keep(spans);

        self.em_iters
            .extend(em_iters(inst.inner(), &inst.take_samples()));
        self.adjacency_bytes = traced.adjacency_bytes;
        self.msgs += traced.msgs;
        self.wire_bytes += traced.bytes;
        self.wire_msgs += traced.msgs;
        self.encode_us.extend(&traced.encode_us);
        self.decode_us.extend(&traced.decode_us);
        self.traced_wall_s += traced.wall_s;
        self.untraced_wall_s += reference.wall_s;
        why
    }

    /// Runs one cluster untraced and one traced at `seed` and folds the
    /// traced one. Cluster schedules depend on thread timing, so the two
    /// are not compared; each passes its own correctness gate.
    pub fn cluster_pair(&mut self, seed: u64) -> Vec<String> {
        let untraced_first = self.ops.is_multiple_of(2);
        let mut reference = untraced_first.then(|| cluster_op(seed, None));
        let split = Arc::new(Mutex::new(FrameSplit::default()));
        alloc::set_counting(true);
        let traced = cluster_op(seed, Some(&split));
        alloc::set_counting(false);
        let spans = trace::take();
        let reference = reference.take().unwrap_or_else(|| cluster_op(seed, None));
        let (spans, _) = self.absorb_spans(spans);
        self.keep(spans);

        let mut why = Vec::new();
        why.extend(reference.failure.iter().map(|w| format!("untraced: {w}")));
        why.extend(traced.failure.iter().map(|w| format!("traced: {w}")));
        let split = *split.lock().expect("frame split poisoned");
        if split.undecodable > 0 {
            why.push(format!("{} sent frames did not decode", split.undecodable));
        }
        self.fold_cluster(&traced, &split);
        self.untraced_wall_s += reference.wall_s;
        why
    }

    fn keep(&mut self, spans: Vec<Span>) {
        if let Some(last) = &mut self.last_spans {
            *last = spans;
        }
    }

    fn fold_cluster(&mut self, op: &ClusterOp, split: &FrameSplit) {
        self.adjacency_bytes = op.adjacency_bytes;
        self.runtime.absorb(&op.metrics);
        self.msgs += op.metrics.msgs_sent;
        self.wire_bytes += split.payload;
        self.wire_msgs += split.data_frames;
        self.split.header += split.header;
        self.split.payload += split.payload;
        self.split.ack += split.ack;
        self.split.data_frames += split.data_frames;
        self.encode_us.extend(&op.encode_us);
        self.decode_us.extend(&op.decode_us);
        self.cluster_cpu_s += op.cpu_s;
        self.cluster_wall_s += op.wall_s;
        self.traced_wall_s += op.wall_s;
    }

    /// The `p`-th percentile of `v`, falling back to the highest
    /// percentile with ten samples beyond it (noted) when `v` is short.
    fn pct(&mut self, name: &str, v: &[f64], p: f64) -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        let mut sorted = v.to_vec();
        sorted.sort_by(f64::total_cmp);
        let used = if p > 50.0 && !tail_supported(v.len(), p) {
            let fallback = highest_supported(v.len()).unwrap_or(50.0);
            self.notes.push(format!(
                "{name}: {} samples leave fewer than ten beyond p{p}; reporting p{fallback}",
                v.len()
            ));
            fallback
        } else {
            p
        };
        percentile(&sorted, used)
    }

    fn totals(&self, name: Name) -> NameTotals {
        self.by_name.get(&name).copied().unwrap_or_default()
    }

    /// Every per-layer metric. Layers a workload does not reach read 0.
    pub fn metrics(&mut self) -> Vec<Metric> {
        let ops = self.ops.max(1) as f64;
        let per_op = format!("per traced operation, mean of {}", self.ops);
        let part = self.totals(Name::Partition);
        let merge = self.totals(Name::MergeSet);
        let recv = self.totals(Name::Recv);
        let rt = self.runtime;
        let sent_frames = (rt.msgs_sent + rt.retries) as f64;
        let split = self.split;
        let is_cluster = self.workload == Workload::ClusterLossy;
        let clusters = if is_cluster { ops } else { 1.0 };
        let on_cluster = |v: f64| if is_cluster { v } else { 0.0 };

        let partition_us = std::mem::take(&mut self.partition_us);
        let round_ms = std::mem::take(&mut self.round_ms);
        let send_us = std::mem::take(&mut self.send_us);
        let (encode_us, decode_us, frame_us) = (
            std::mem::take(&mut self.encode_us),
            std::mem::take(&mut self.decode_us),
            std::mem::take(&mut self.frame_decode_us),
        );
        let p = |n: usize| format!("nearest-rank percentile of {n} calls");
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { trace::median(v) };
        vec![
            Metric::new(
                "net.topology.build_s",
                "s",
                med(&self.build_s),
                format!("median of {} traced operations", self.build_s.len()),
            ),
            Metric::new(
                "net.topology.adjacency_mb",
                "MB",
                self.adjacency_bytes as f64 / 1e6,
                "sum of degrees x 8 B",
            ),
            Metric::new(
                "net.engine.self_s",
                "s",
                self.engine_self_ns as f64 / 1e9 / ops,
                per_op.clone(),
            ),
            Metric::new(
                "net.engine.self_share",
                "1",
                ratio(self.engine_self_ns as f64, self.round_ns as f64),
                "run_round self time / run_round time",
            ),
            Metric::new(
                "net.engine.allocs_per_msg",
                "count",
                ratio(self.engine_allocs as f64, self.msgs as f64),
                "run_round self allocations / messages",
            ),
            Metric::new(
                "gossip.round.ms_p50",
                "ms",
                self.pct("gossip.round.ms_p50", &round_ms, 50.0),
                p(round_ms.len()),
            ),
            Metric::new(
                "gossip.sim_new_s",
                "s",
                med(&self.sim_new_s),
                format!("median of {} traced operations", self.sim_new_s.len()),
            ),
            Metric::new(
                "core.partition.calls",
                "count",
                part.count as f64 / ops,
                per_op.clone(),
            ),
            Metric::new(
                "core.partition.self_s",
                "s",
                part.self_ns as f64 / 1e9 / ops,
                per_op.clone(),
            ),
            Metric::new(
                "core.partition.us_p50",
                "us",
                self.pct("core.partition.us_p50", &partition_us, 50.0),
                p(partition_us.len()),
            ),
            Metric::new(
                "core.partition.us_p99",
                "us",
                self.pct("core.partition.us_p99", &partition_us, 99.0),
                p(partition_us.len()),
            ),
            Metric::new(
                "core.partition.allocs_per_call",
                "count",
                ratio(part.allocs as f64, part.count as f64),
                "partition self allocations / calls",
            ),
            Metric::new(
                "core.partition.input_len_mean",
                "count",
                ratio(self.partition_len as f64, part.count as f64),
                "collections per partition input",
            ),
            Metric::new(
                "core.merge_set.calls",
                "count",
                merge.count as f64 / ops,
                per_op.clone(),
            ),
            Metric::new(
                "core.merge_set.self_s",
                "s",
                merge.self_ns as f64 / 1e9 / ops,
                per_op.clone(),
            ),
            Metric::new(
                "core.em.iters_per_reduce",
                "count",
                ratio(self.em_iters.iter().sum(), self.em_iters.len() as f64),
                format!(
                    "em::reduce replayed on {} sampled over-full partition inputs",
                    self.em_iters.len()
                ),
            ),
            Metric::new(
                "gossip.wire.bytes_per_msg",
                "B",
                ratio(self.wire_bytes as f64, self.wire_msgs as f64),
                "encoded classification bytes / data messages",
            ),
            Metric::new(
                "gossip.codec.encode_us_p50",
                "us",
                self.pct("encode", &encode_us, 50.0),
                format!("replayed, {}", p(encode_us.len())),
            ),
            Metric::new(
                "gossip.codec.decode_us_p50",
                "us",
                self.pct("decode", &decode_us, 50.0),
                format!("replayed, {}", p(decode_us.len())),
            ),
            Metric::new(
                "runtime.transport.sends",
                "count",
                self.totals(Name::Send).count as f64 / clusters,
                "per cluster",
            ),
            Metric::new(
                "runtime.transport.send_us_p50",
                "us",
                self.pct("send", &send_us, 50.0),
                p(send_us.len()),
            ),
            Metric::new(
                "runtime.transport.send_us_p99",
                "us",
                self.pct("runtime.transport.send_us_p99", &send_us, 99.0),
                p(send_us.len()),
            ),
            Metric::new(
                "runtime.transport.recv_polls",
                "count",
                recv.count as f64 / clusters,
                "per cluster",
            ),
            Metric::new(
                "runtime.transport.recv_empty_share",
                "1",
                ratio(self.recv_empty as f64, recv.count as f64),
                "recv_timeout calls that returned no frame",
            ),
            Metric::new(
                "runtime.transport.recv_wait_s",
                "s",
                recv.total_ns as f64 / 1e9 / clusters,
                "per cluster, all peers",
            ),
            Metric::new(
                "runtime.frame.header_bytes",
                "B",
                split.header as f64 / clusters,
                "per cluster",
            ),
            Metric::new(
                "runtime.frame.payload_bytes",
                "B",
                split.payload as f64 / clusters,
                "per cluster",
            ),
            Metric::new(
                "runtime.frame.ack_bytes",
                "B",
                split.ack as f64 / clusters,
                "per cluster",
            ),
            Metric::new(
                "runtime.frame.header_share",
                "1",
                ratio((split.header + split.ack) as f64, split.total() as f64),
                "(header + ack bytes) / all bytes sent",
            ),
            Metric::new(
                "runtime.frame.decode_us_p50",
                "us",
                self.pct("frame", &frame_us, 50.0),
                p(frame_us.len()),
            ),
            Metric::new(
                "runtime.retries_per_msg",
                "count",
                ratio(rt.retries as f64, rt.msgs_sent as f64),
                "retransmissions / data messages",
            ),
            Metric::new(
                "runtime.duplicates_per_msg",
                "count",
                ratio(rt.duplicates as f64, rt.msgs_sent as f64),
                "suppressed duplicates / data messages",
            ),
            Metric::new(
                "runtime.returned",
                "count",
                rt.returned as f64 / clusters,
                "returned-to-sender halves per cluster",
            ),
            Metric::new(
                "runtime.useful_ratio",
                "1",
                ratio(rt.msgs_received as f64, sent_frames),
                "received / (sent + retries)",
            ),
            Metric::new(
                "runtime.hop.wait_us_mean",
                "us",
                ratio(rt.wait_us as f64, rt.msgs_received as f64),
                "per merged data frame",
            ),
            Metric::new(
                "runtime.hop.transit_us_mean",
                "us",
                ratio(rt.transit_us as f64, rt.msgs_received as f64),
                "per merged data frame",
            ),
            Metric::new(
                "runtime.core.partition.self_s",
                "s",
                on_cluster(part.self_ns as f64 / 1e9 / ops),
                "per cluster, all peers",
            ),
            Metric::new(
                "runtime.cpu_share",
                "cores",
                ratio(self.cluster_cpu_s, self.cluster_wall_s),
                "process CPU time / cluster wall time",
            ),
            Metric::new(
                "bench.trace_overhead",
                "x",
                ratio(self.traced_wall_s, self.untraced_wall_s),
                "traced wall / untraced wall at the same input seeds",
            ),
        ]
    }

    /// Notes gathered while computing the metrics.
    pub fn notes(&self) -> Vec<String> {
        let mut notes = self.notes.clone();
        if self.workload == Workload::ClusterLossy {
            notes.push(format!(
                "cluster figures cover the whole run of {CLUSTER_N} peers up to drained shutdown"
            ));
        }
        notes
    }

    /// Writes the last traced operation's spans as tab-separated text.
    pub fn write_spans(&self, path: &str) -> io::Result<()> {
        let spans = self.last_spans.as_deref().unwrap_or_default();
        let selfs = trace::self_times(spans);
        let mut out =
            String::from("idx\tname\tgroup\tparent\tstart_ns\tend_ns\tself_ns\tself_allocs\ttag\n");
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}\t{}\t{}",
                s.name.as_str(),
                s.group,
                s.start_ns,
                s.end_ns,
                s.self_allocs,
                s.tag
            );
        }
        std::fs::write(path, out)
    }

    /// Prints per-span-name totals to stderr.
    pub fn print_span_summary(&self) {
        eprintln!(
            "{:<32} {:>10} {:>12} {:>12} {:>12}",
            "span", "count", "total ms", "self ms", "self allocs"
        );
        for (name, t) in &self.by_name {
            eprintln!(
                "{:<32} {:>10} {:>12.3} {:>12.3} {:>12}",
                name.as_str(),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.allocs
            );
        }
    }
}

/// Index of the span at the top of `i`'s chain of parents.
fn root_of(spans: &[Span], mut i: usize) -> usize {
    while spans[i].parent != NO_PARENT {
        i = spans[i].parent as usize;
    }
    i
}
