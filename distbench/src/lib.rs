//! distbench: time, CPU and bytes to ε-agreement for distclass, end to
//! end and layer by layer. See `README.md` in this directory.
//!
//! ```text
//! distbench        --workload W --seed N --seconds S --trace 0
//! distbench_traced --workload W --seed N --seconds S --trace 1 [--spans FILE]
//! ```

pub mod alloc;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod trace;
pub mod workloads;
pub mod wrap;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use distclass_runtime::ClusterConfig;

use crate::layers::Layers;
use crate::report::{Context, Metric};
use crate::trace::{median, trimmed_mean};
use crate::workloads::{
    centroid_instance, cluster_op, fig2_instance, input_seed, sim_op, SimOp, Workload, CLUSTER_N,
    EPS, FIG2_N, SCALE_N,
};

const USAGE: &str = "usage: distbench --workload fig2-gm|scale-centroid|cluster-lossy \
                     --seed N --seconds S --trace 0|1 [--spans FILE]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Benchmark seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: u64,
    /// The traced run instead of the end-to-end one.
    pub trace: bool,
    /// Where the traced run writes the spans of its last operation.
    pub spans: Option<String>,
}

/// Parses the command line (without the program name).
pub fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// Runs `op(0)`, `op(1)`, … until the next one is expected to end past
/// `seconds` (at least one).
fn run_ops<T>(seconds: u64, mut op: impl FnMut(u64) -> T) -> Vec<T> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(op(out.len() as u64));
        let per_op = start.elapsed() / out.len() as u32;
        if start.elapsed() + per_op > budget {
            return out;
        }
    }
}

/// The outcome of one run: metrics, operations attempted, and one line
/// per failed operation.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    notes: Vec<String>,
}

fn failure_line(args: &Args, op: u64, why: &str) -> String {
    format!(
        "FAIL {} seed {} operation {op} (input seed {}): {why}; reproduce: \
         bash distbench/run.sh --workload {} --seed {} --seconds {} --trace {}",
        args.workload.name(),
        args.seed,
        input_seed(args.seed, op),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn peak_rss_metric() -> Metric {
    Metric::new(
        "peak_rss_mb",
        "MB",
        procfs::peak_rss_bytes() as f64 / 1e6,
        "VmHWM of this process at exit",
    )
}

/// Prints one line per simulator operation to stderr.
fn log_sim(op: SimOp) -> SimOp {
    eprintln!(
        "op input_seed={} setup_s={:.4} wall_s={:.4} cpu_s={:.4} rounds={} error={:.4}{}",
        op.input_seed,
        median(&op.setups_s),
        op.wall_s,
        op.cpu_s,
        op.rounds,
        op.error,
        if op.failure.is_some() { " FAILED" } else { "" }
    );
    op
}

/// Prints one line per cluster to stderr.
fn log_cluster(op: workloads::ClusterOp) -> workloads::ClusterOp {
    eprintln!(
        "op input_seed={} setup_s={:.6} eps_s={:.4} wall_s={:.4} cpu_s={:.2} msgs={} error={:.4}{}",
        op.input_seed,
        op.setup_s,
        op.eps_s,
        op.wall_s,
        op.cpu_s,
        op.metrics.msgs_sent,
        op.error,
        if op.failure.is_some() { " FAILED" } else { "" }
    );
    op
}

/// End-to-end metrics of the simulator workloads: the mean over the run's
/// runs to ε of each per-run figure, without its lowest and highest fifth.
fn e2e_sim(args: &Args) -> Outcome {
    let n = if args.workload == Workload::Fig2Gm {
        FIG2_N
    } else {
        SCALE_N
    };
    let ops = run_ops(args.seconds, |i| {
        let seed = input_seed(args.seed, i);
        log_sim(match args.workload {
            Workload::Fig2Gm => sim_op(args.workload, fig2_instance(), n, seed, false, false).0,
            _ => sim_op(args.workload, centroid_instance(), n, seed, false, false).0,
        })
    });
    let stat = format!("20%-trimmed mean of {} runs to ε", ops.len());
    let avg = |f: &dyn Fn(&SimOp) -> f64| trimmed_mean(&ops.iter().map(f).collect::<Vec<_>>());
    let setups: Vec<f64> = ops
        .iter()
        .flat_map(|o| o.setups_s.iter().copied())
        .collect();
    let metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&setups),
            format!("median of {} set-ups", setups.len()),
        ),
        Metric::new("wall_to_eps_s", "s", avg(&|o| o.wall_s), &stat),
        Metric::new("cpu_to_eps_s", "s", avg(&|o| o.cpu_s), &stat),
        Metric::new(
            "cpu_us_per_msg",
            "us",
            avg(&|o| o.cpu_s * 1e6 / o.msgs as f64),
            &stat,
        ),
        Metric::new("rounds_to_eps", "count", avg(&|o| o.rounds as f64), &stat),
        Metric::new("msgs_to_eps", "count", avg(&|o| o.msgs as f64), &stat),
        Metric::new(
            "bytes_per_node_to_eps",
            "B",
            avg(&|o| o.bytes as f64 / n as f64),
            &stat,
        ),
        // Multi-modal on the centroid workloads, where the mean over a
        // run's operations is steadier across seeds than their median.
        Metric::new(
            "error_at_eps",
            "1",
            ops.iter().map(|o| o.error).sum::<f64>() / ops.len() as f64,
            format!("mean of {} runs to ε", ops.len()),
        )
        .record_only(),
        peak_rss_metric(),
    ];
    let failures: Vec<String> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            o.failure
                .as_deref()
                .map(|w| failure_line(args, i as u64, w))
        })
        .collect();
    Outcome {
        metrics,
        attempted: ops.len(),
        failed: failures.len(),
        failures,
        notes: Vec::new(),
    }
}

/// End-to-end metrics of `cluster-lossy`: means over clusters (process
/// CPU time has clock-tick resolution, so it is only read as a sum).
fn e2e_cluster(args: &Args) -> Outcome {
    let ops = run_ops(args.seconds, |i| {
        log_cluster(cluster_op(input_seed(args.seed, i), None))
    });
    let k = ops.len() as f64;
    let sum = |f: &dyn Fn(&workloads::ClusterOp) -> f64| ops.iter().map(f).sum::<f64>();
    let msgs = sum(&|o| o.metrics.msgs_sent as f64);
    let cpu = sum(&|o| o.cpu_s);
    let stat = format!("mean of {} clusters", ops.len());
    let whole = format!(
        "mean of {} clusters, whole run to drained shutdown",
        ops.len()
    );
    let n = CLUSTER_N as f64;
    let metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&ops.iter().map(|o| o.setup_s).collect::<Vec<_>>()),
            format!("median of {} set-ups", ops.len()),
        ),
        Metric::new(
            "wall_to_eps_s",
            "s",
            sum(&|o| o.eps_s) / k,
            format!("{stat}: converged_after"),
        ),
        Metric::new(
            "cpu_to_eps_s",
            "s",
            cpu / k,
            format!("{whole}: process utime+stime"),
        ),
        Metric::new(
            "cpu_us_per_msg",
            "us",
            cpu * 1e6 / msgs,
            format!("{whole}: CPU / data messages"),
        ),
        Metric::new(
            "rounds_to_eps",
            "count",
            sum(&|o| o.metrics.ticks as f64) / (k * n),
            format!("{whole}: gossip ticks per peer"),
        ),
        Metric::new(
            "msgs_to_eps",
            "count",
            msgs / k,
            format!("{whole}: data messages"),
        ),
        Metric::new(
            "bytes_per_node_to_eps",
            "B",
            sum(&|o| o.metrics.bytes_sent as f64) / (k * n),
            format!("{whole}: RuntimeMetrics::bytes_sent per peer"),
        ),
        Metric::new("error_at_eps", "1", sum(&|o| o.error) / k, &stat).record_only(),
        peak_rss_metric(),
    ];
    let failures: Vec<String> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            o.failure
                .as_deref()
                .map(|w| failure_line(args, i as u64, w))
        })
        .collect();
    Outcome {
        metrics,
        attempted: ops.len(),
        failed: failures.len(),
        failures,
        notes: Vec::new(),
    }
}

/// The traced run: each operation runs untraced and then traced at the
/// same input seed; the pair is compared and the traced one's spans
/// feed the per-layer metrics.
fn traced(args: &Args) -> Outcome {
    let mut layers = Layers::new(args.workload, args.spans.is_some());
    let mut failures = Vec::new();
    let mut failed = 0;
    let pairs = run_ops(args.seconds, |i| {
        let seed = input_seed(args.seed, i);
        let why = match args.workload {
            Workload::Fig2Gm => layers.sim_pair(
                args.workload,
                fig2_instance,
                FIG2_N,
                seed,
                workloads::em_iterations,
            ),
            Workload::ScaleCentroid => {
                layers.sim_pair(args.workload, centroid_instance, SCALE_N, seed, |_, _| {
                    Vec::new()
                })
            }
            Workload::ClusterLossy => layers.cluster_pair(seed),
        };
        failed += usize::from(!why.is_empty());
        failures.extend(why.iter().map(|w| failure_line(args, i, w)));
    });
    if let Some(path) = &args.spans {
        if let Err(e) = layers.write_spans(path) {
            failures.push(format!("cannot write spans to {path}: {e}"));
        }
    }
    layers.print_span_summary();
    Outcome {
        metrics: layers.metrics(),
        attempted: pairs.len(),
        failed,
        failures,
        notes: layers.notes(),
    }
}

/// Entry point of both binaries; `traced_build` is true in the one that
/// installs the counting allocator.
pub fn main(traced_build: bool) -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("distbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace != traced_build {
        eprintln!("distbench: --trace 1 runs in distbench_traced and --trace 0 in distbench; run.sh picks the binary");
        return ExitCode::from(2);
    }
    assert_eq!(
        EPS,
        ClusterConfig::default().tol,
        "ε must match the cluster's own tolerance"
    );
    let out = match (args.trace, args.workload) {
        (true, _) => traced(&args),
        (false, Workload::ClusterLossy) => e2e_cluster(&args),
        (false, _) => e2e_sim(&args),
    };
    for f in &out.failures {
        eprintln!("{f}");
        println!("{f}");
    }
    let ctx = Context {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        reps: out.attempted,
    };
    let mut metrics = out.metrics;
    metrics.push(
        Metric::new(
            "failed_share",
            "1",
            out.failed as f64 / out.attempted as f64,
            "failed / attempted operations",
        )
        .record_only(),
    );
    let correct = report::emit(&ctx, &metrics, out.attempted, out.failed, &out.notes);
    if correct && out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload fig2-gm --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Fig2Gm);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fig2-gm --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fig2-gm --seconds 1").is_err());
        assert!(args("--workload fig2-gm --seed 1 --seconds 1 --bogus 1").is_err());
    }
}
