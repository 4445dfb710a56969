//! The three workloads and one operation of each: a run to ε-agreement
//! (simulators) or one cluster (runtime), with its correctness gate.
//!
//! Every operation generates the figure-2 three-Gaussian 2-D inputs from
//! its own input seed, so the same benchmark seed always gives the same
//! inputs. The same functions run untraced (plain instance, plain
//! network) and traced (the delegates of `wrap.rs` plus spans around the
//! simulator and topology calls).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use distclass_core::{em, CentroidInstance, Classification, GmInstance, Instance};
use distclass_experiments::data::{figure2_components, sample_mixture, TrueComponent};
use distclass_gossip::wire::WireSummary;
use distclass_gossip::{GossipConfig, RoundSim};
use distclass_linalg::Vector;
use distclass_net::Topology;
use distclass_runtime::{
    run_cluster_with_faults, ChannelNet, ClusterConfig, EndpointNet, FaultPlan, NodeOutcome,
    RuntimeMetrics,
};

use crate::procfs;
use crate::trace::{self, Name};
use crate::wrap::{FrameSplit, Timed, TimedNet};

/// ε of ε-agreement: the largest classification distance from node 0 to
/// any live node. Equal to `ClusterConfig::default().tol`, which the
/// cluster uses for its own convergence test.
pub const EPS: f64 = 0.01;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `RoundSim`, GM k = 7, n = 1000, complete graph (the paper's Fig. 2).
    Fig2Gm,
    /// `RoundSim`, centroid k = 3, n = 8192, complete graph.
    ScaleCentroid,
    /// Threaded cluster, 16 peers, 10% data-frame loss, centroid k = 3.
    ClusterLossy,
}

impl Workload {
    /// All workloads, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig2Gm,
        Workload::ScaleCentroid,
        Workload::ClusterLossy,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Gm => "fig2-gm",
            Workload::ScaleCentroid => "scale-centroid",
            Workload::ClusterLossy => "cluster-lossy",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Largest acceptable `error_at_eps`: the mean distance from each true
    /// figure-2 component mean to the nearest collection at node 0.
    ///
    /// GM recovers all three components (error ≈ 0.1). The greedy
    /// centroid partition never undoes a merge, so it often settles with
    /// two components merged (error 2.7–3.7) and sometimes with every
    /// collection near the data mean (≈ 5.05); its bound only catches
    /// collections outside the data or non-finite summaries.
    pub fn error_bound(self) -> f64 {
        match self {
            Workload::Fig2Gm => 1.0,
            Workload::ScaleCentroid | Workload::ClusterLossy => 6.0,
        }
    }
}

/// The input seed of operation `op` of a run with benchmark seed `seed`.
pub fn input_seed(seed: u64, op: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(op)
}

/// Mean distance from each true component mean to the nearest collection
/// of `c`, in the instance's own summary distance.
fn error_at<I: Instance<Value = Vector>>(
    inst: &I,
    c: &Classification<I::Summary>,
    truth: &[TrueComponent],
) -> f64 {
    let total: f64 = truth
        .iter()
        .map(|t| {
            let target = inst.val_to_summary(&t.gaussian.mean);
            c.iter()
                .map(|col| inst.summary_distance(&col.summary, &target))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total / truth.len() as f64
}

/// `f()` under a span named `name` when `traced`.
fn maybe_span<T>(traced: bool, name: Name, f: impl FnOnce() -> T) -> T {
    if traced {
        trace::within(name, f)
    } else {
        f()
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Sum of out-degrees times the 8 bytes of a `usize` node id: the bytes
/// the adjacency lists hold.
fn adjacency_bytes(topo: &Topology) -> u64 {
    (0..topo.len()).map(|i| topo.degree(i) as u64 * 8).sum()
}

/// One simulator run to ε-agreement.
#[derive(Debug, Clone, Default)]
pub struct SimOp {
    /// Input seed.
    pub input_seed: u64,
    /// Each set-up's topology, inputs and simulator construction, seconds.
    pub setups_s: Vec<f64>,
    /// Bytes of the topology's adjacency lists.
    pub adjacency_bytes: u64,
    /// Sum of the timed `run_round` calls, seconds.
    pub wall_s: f64,
    /// CPU time of the simulator thread in those calls, seconds.
    pub cpu_s: f64,
    /// Rounds to ε.
    pub rounds: u64,
    /// Messages to ε.
    pub msgs: u64,
    /// Wire bytes to ε.
    pub bytes: u64,
    /// `error_at_eps`.
    pub error: f64,
    /// Every node's encoded classification (traced replays only).
    pub fingerprint: Vec<u8>,
    /// `WireSummary::encode` times on sampled classifications, µs.
    pub encode_us: Vec<f64>,
    /// `WireSummary::decode` times on the same, µs.
    pub decode_us: Vec<f64>,
    /// Why the correctness gate failed, if it did.
    pub failure: Option<String>,
}

/// Rounds after which a simulator run counts as not reaching ε.
const ROUND_CAP: u64 = 200;

/// An untraced simulator operation repeats its set-up (keeping the last)
/// until the set-ups have taken this long: one `fig2-gm` set-up takes a
/// few milliseconds, and its median needs more samples than a run has
/// operations.
const MIN_SETUP_S: f64 = 0.02;
/// Cap on set-ups per operation.
const MAX_SETUPS: usize = 16;

/// Runs one simulator operation of `n` nodes with `inst`.
///
/// `replay` records what the traced run's fidelity check compares and
/// replays the codec on sampled classifications; `traced` adds spans.
pub fn sim_op<I>(
    workload: Workload,
    inst: I,
    n: usize,
    input_seed: u64,
    traced: bool,
    replay: bool,
) -> (SimOp, Arc<I>)
where
    I: Instance<Value = Vector>,
    I::Summary: WireSummary,
{
    let truth = figure2_components();
    let inst = Arc::new(inst);
    let config = GossipConfig {
        seed: input_seed,
        ..GossipConfig::default()
    };
    let mut setups_s = Vec::new();
    let (mut sim, adjacency_bytes) = loop {
        let t = Instant::now();
        let topo = maybe_span(traced, Name::TopologyBuild, || Topology::complete(n));
        let build_s = secs(t);
        let adjacency_bytes = adjacency_bytes(&topo);
        let t = Instant::now();
        let (values, _) = sample_mixture(n, &truth, input_seed);
        let sim = maybe_span(traced, Name::SimNew, || {
            RoundSim::new(topo, Arc::clone(&inst), &values, &config).with_byte_accounting()
        });
        setups_s.push(build_s + secs(t));
        // A traced operation sets up once, so its spans describe one run.
        if traced || setups_s.len() >= MAX_SETUPS || setups_s.iter().sum::<f64>() >= MIN_SETUP_S {
            break (sim, adjacency_bytes);
        }
    };

    let mut op = SimOp {
        input_seed,
        setups_s,
        adjacency_bytes,
        ..SimOp::default()
    };
    let mut dispersion = f64::INFINITY;
    while op.rounds < ROUND_CAP {
        if traced {
            trace::new_group();
        }
        let cpu0 = procfs::thread_cpu_s();
        let t = Instant::now();
        maybe_span(traced, Name::Round, || sim.run_round());
        op.wall_s += secs(t);
        op.cpu_s += procfs::thread_cpu_s() - cpu0;
        op.rounds += 1;
        // The ε check is the benchmark's own, outside the timed call.
        dispersion = sim.dispersion();
        if dispersion <= EPS {
            break;
        }
    }
    let metrics = sim.metrics();
    op.msgs = metrics.messages_sent;
    op.bytes = metrics.bytes_sent;
    op.error = error_at(inst.as_ref(), sim.classification_of(0), &truth);

    let grains = sim.total_live_weight().grains();
    let expected = n as u64 * config.quantum.grains_per_unit();
    op.failure = if dispersion > EPS {
        Some(format!(
            "no ε-agreement within {ROUND_CAP} rounds (dispersion {dispersion})"
        ))
    } else if sim.live_count() != n || grains != expected {
        Some(format!(
            "grains not conserved: {grains} live, {expected} expected"
        ))
    } else if op.error.is_nan() || op.error > workload.error_bound() {
        Some(format!(
            "error_at_eps {} over the bound {}",
            op.error,
            workload.error_bound()
        ))
    } else {
        None
    };

    if replay {
        for i in 0..n {
            let bytes =
                I::Summary::encode(sim.classification_of(i)).expect("classification encodes");
            op.fingerprint.extend_from_slice(&bytes);
        }
        let sampled: Vec<&Classification<I::Summary>> = (0..n)
            .step_by(n.div_ceil(256))
            .map(|i| sim.classification_of(i))
            .collect();
        (op.encode_us, op.decode_us) = codec_replay(&sampled);
    }
    (op, inst)
}

/// Times `WireSummary::encode` and `decode` on each classification, four
/// times each; returns the encode and decode times in µs.
fn codec_replay<S: WireSummary>(sampled: &[&Classification<S>]) -> (Vec<f64>, Vec<f64>) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for c in sampled.iter().cycle().take(4 * sampled.len()) {
        let t = Instant::now();
        let bytes = std::hint::black_box(S::encode(c).expect("classification encodes"));
        enc.push(secs(t) * 1e6);
        let t = Instant::now();
        std::hint::black_box(S::decode(&bytes).expect("own encoding decodes"));
        dec.push(secs(t) * 1e6);
    }
    (enc, dec)
}

/// Mean EM iterations of `em::reduce` replayed on sampled over-full
/// `partition` inputs, with the instance's own configuration.
pub fn em_iterations(
    inst: &GmInstance,
    samples: &[Classification<distclass_core::GaussianSummary>],
) -> Vec<f64> {
    samples
        .iter()
        .filter_map(|c| {
            let components: Vec<_> = c
                .iter()
                .map(|col| (col.summary.clone(), col.weight.grains() as f64))
                .collect();
            em::reduce(&components, inst.k(), inst.em_config())
                .ok()
                .map(|o| o.iterations as f64)
        })
        .collect()
}

/// The GM instance of `fig2-gm`.
pub fn fig2_instance() -> GmInstance {
    GmInstance::new(7).expect("k = 7 is valid")
}

/// The centroid instance of `scale-centroid` and `cluster-lossy`.
pub fn centroid_instance() -> CentroidInstance {
    CentroidInstance::new(3).expect("k = 3 is valid")
}

/// Nodes of `fig2-gm`.
pub const FIG2_N: usize = 1000;
/// Nodes of `scale-centroid`.
pub const SCALE_N: usize = 8192;
/// Peers of `cluster-lossy`.
pub const CLUSTER_N: usize = 16;
/// Data-frame loss of `cluster-lossy`.
pub const CLUSTER_LOSS: f64 = 0.1;

/// One threaded cluster, run to drained shutdown.
#[derive(Debug, Clone, Default)]
pub struct ClusterOp {
    /// Input seed.
    pub input_seed: u64,
    /// Topology, inputs, network and configuration, seconds.
    pub setup_s: f64,
    /// Bytes of the topology's adjacency lists.
    pub adjacency_bytes: u64,
    /// `run_cluster_with_faults` wall time, seconds.
    pub wall_s: f64,
    /// `converged_after`, seconds.
    pub eps_s: f64,
    /// Process CPU time over the whole cluster run, seconds.
    pub cpu_s: f64,
    /// Cluster-wide runtime counters, whole run.
    pub metrics: RuntimeMetrics,
    /// `error_at_eps` at node 0.
    pub error: f64,
    /// `WireSummary::encode` times on the final classifications, µs.
    pub encode_us: Vec<f64>,
    /// `WireSummary::decode` times on the same, µs.
    pub decode_us: Vec<f64>,
    /// Why the correctness gate failed, if it did.
    pub failure: Option<String>,
}

/// Runs one cluster of [`CLUSTER_N`] peers over a lossy channel network.
/// With `split`, the instance and network are the timing delegates and
/// the frame bytes are added to `split`.
pub fn cluster_op(input_seed: u64, split: Option<&Arc<Mutex<FrameSplit>>>) -> ClusterOp {
    let truth = figure2_components();
    let t = Instant::now();
    let topo = maybe_span(split.is_some(), Name::TopologyBuild, || {
        Topology::complete(CLUSTER_N)
    });
    let mut setup_s = secs(t);
    let adjacency_bytes = adjacency_bytes(&topo);
    let t = Instant::now();
    let (values, _) = sample_mixture(CLUSTER_N, &truth, input_seed);
    let net = ChannelNet::with_loss(CLUSTER_N, CLUSTER_LOSS, input_seed);
    let inputs = ClusterInputs {
        truth,
        topo,
        values,
        plan: FaultPlan::new(input_seed),
        config: ClusterConfig {
            seed: input_seed,
            ..ClusterConfig::default()
        },
    };
    setup_s += secs(t);
    let base = ClusterOp {
        input_seed,
        setup_s,
        adjacency_bytes,
        ..ClusterOp::default()
    };
    match split {
        None => run_cluster(base, &inputs, centroid_instance(), net, false),
        Some(split) => {
            trace::new_group();
            let cluster = trace::span(Name::Cluster);
            trace::set_root(cluster.index());
            let net = TimedNet::new(net, Arc::clone(split));
            let op = run_cluster(base, &inputs, Timed::new(centroid_instance()), net, true);
            trace::set_root(trace::NO_PARENT);
            drop(cluster);
            op
        }
    }
}

/// What one cluster runs on, apart from the instance and the network.
struct ClusterInputs {
    truth: Vec<TrueComponent>,
    topo: Topology,
    values: Vec<Vector>,
    plan: FaultPlan,
    config: ClusterConfig,
}

fn run_cluster<I, N>(
    mut op: ClusterOp,
    inputs: &ClusterInputs,
    inst: I,
    net: N,
    replay: bool,
) -> ClusterOp
where
    I: Instance<Value = Vector> + Send + Sync + 'static,
    I::Summary: WireSummary + Send + 'static,
    N: EndpointNet,
{
    let ClusterInputs {
        truth,
        topo,
        values,
        plan,
        config,
    } = inputs;
    let inst = Arc::new(inst);
    let cpu0 = procfs::process_cpu_s();
    let t = Instant::now();
    let report = run_cluster_with_faults(topo, Arc::clone(&inst), values, net, plan, config);
    op.wall_s = secs(t);
    op.cpu_s = procfs::process_cpu_s() - cpu0;
    op.metrics = report.total_metrics();
    op.eps_s = report
        .converged_after
        .map_or(f64::NAN, |d: Duration| d.as_secs_f64());

    op.error = error_at(inst.as_ref(), &report.nodes[0].classification, truth);
    let grains = report.total_grains();
    let expected = CLUSTER_N as u64 * config.quantum.grains_per_unit();
    let lost = report
        .nodes
        .iter()
        .filter(|r| r.outcome != NodeOutcome::Completed)
        .count();
    let bound = Workload::ClusterLossy.error_bound();
    op.failure = if !report.converged {
        Some(format!(
            "no ε-agreement within {:?} (final dispersion {})",
            config.max_wall, report.final_dispersion
        ))
    } else if !report.drained || lost > 0 {
        Some(format!(
            "not drained cleanly ({lost} peers did not complete)"
        ))
    } else if grains != expected {
        Some(format!(
            "grains not conserved: {grains} held, {expected} expected"
        ))
    } else if op.error.is_nan() || op.error > bound {
        Some(format!("error_at_eps {} over the bound {bound}", op.error))
    } else {
        None
    };
    if replay {
        let finals: Vec<_> = report.nodes.iter().map(|r| &r.classification).collect();
        (op.encode_us, op.decode_us) = codec_replay(&finals);
    }
    op
}
