//! Dynamic-workload sweeps: sensor drift, join/leave churn, and
//! continuous re-classification.
//!
//! A static run converges once and stops. These scenarios keep the world
//! moving — half the sensors step to a new reading mid-run, a brand-new
//! peer joins with fresh mass, an old peer retires and hands its grains
//! off — and assert the two properties that make dynamics trustworthy:
//!
//! 1. **Re-convergence**: the cluster settles again on the *new*
//!    centroids, and the offline [`DynReport`] replay confirms the
//!    converged → perturbed → re-converged episode timeline.
//! 2. **Exact accounting**: every grain of injected and forgotten mass
//!    is declared, so the auditor's books balance to the grain through
//!    drift, joins and retirement handoffs
//!    (`final = initial + gains + injected − losses − forgotten`).
//!
//! Each scenario sweeps a seed matrix; set `DISTCLASS_DYN_SEEDS` to a
//! comma-separated list to override the default eight seeds.

use std::sync::Arc;
use std::time::Duration;

use distclass::core::CentroidInstance;
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::obs::{DynOptions, DynReport, RingSink, Tracer};
use distclass::runtime::{
    run_channel_cluster, run_chaos_channel_cluster, AdversaryPlan, ChurnPlan, ClusterConfig,
    ClusterReport, DefenseConfig, DriftSchedule, FaultPlan, NodeOutcome,
};

fn seeds() -> Vec<u64> {
    match std::env::var("DISTCLASS_DYN_SEEDS") {
        Ok(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("DISTCLASS_DYN_SEEDS: bad seed"))
            .collect(),
        Err(_) => (1..=8).collect(),
    }
}

fn two_site_values(n: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            Vector::from(vec![x, x])
        })
        .collect()
}

/// Grain-weighted mean of the first coordinate across every completed
/// node's final classification — the crudest possible summary of where
/// the cluster thinks the data lives, used to prove the drift actually
/// moved the answer.
fn grand_mean_x(report: &ClusterReport<Vector>) -> f64 {
    let mut grains = 0u128;
    let mut sum = 0.0;
    for node in report
        .nodes
        .iter()
        .filter(|r| r.outcome == NodeOutcome::Completed)
    {
        for c in node.classification.iter() {
            let g = c.weight.grains();
            grains += u128::from(g);
            sum += g as f64 * c.summary[0];
        }
    }
    assert!(grains > 0, "no completed node holds any mass");
    sum / grains as f64
}

/// Every pair of completed, unconvicted nodes must agree on the final
/// centroid set to within `tol` (nearest-centroid matching).
fn assert_centroid_agreement(report: &ClusterReport<Vector>, tol: f64, label: &str) {
    let honest: Vec<_> = report
        .nodes
        .iter()
        .filter(|r| r.outcome == NodeOutcome::Completed && !report.convicted.contains(&r.id))
        .collect();
    assert!(honest.len() >= 2, "{label}: too few completed survivors");
    let reference = &honest[0].classification;
    for node in &honest[1..] {
        assert_eq!(
            node.classification.len(),
            reference.len(),
            "{label}: node {} disagrees on collection count",
            node.id
        );
        for c in node.classification.iter() {
            let nearest = reference
                .iter()
                .map(|r| r.summary.distance(&c.summary))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest < tol,
                "{label}: node {} centroid {} is {nearest} from consensus",
                node.id,
                c.summary
            );
        }
    }
}

/// The tentpole sweep: four sensors step from their old site to (9, 9)
/// at 300 ms, a ninth peer joins at 250 ms with a reading of its own,
/// and peer 2 retires at 450 ms, handing its grains to a neighbor. The
/// cluster must settle on the *new* mixture, the auditor must balance
/// exactly through the injected/forgotten/handoff terms, and the offline
/// `dyn-report` replay must come back clean.
#[test]
fn drift_and_churn_reconverge_and_balance_exactly() {
    for seed in seeds() {
        let n = 8;
        let label = format!("seed {seed}");
        let drift = DriftSchedule::parse("step@300ms:0-3=9.0,9.0", seed).expect("drift spec");
        let churn =
            ChurnPlan::parse("join@250ms:8=4.0,4.0;leave@450ms:2", seed).expect("churn spec");
        let sink = Arc::new(RingSink::new(1 << 20));
        let config = ClusterConfig {
            tick: Duration::from_millis(1),
            tol: 1e-6,
            stable_window: Duration::from_millis(150),
            max_wall: Duration::from_secs(30),
            drain_wall: Duration::from_secs(15),
            seed,
            audit: true,
            tracer: Tracer::new(Arc::clone(&sink) as _),
            drift: Some(Arc::new(drift)),
            churn: Some(Arc::new(churn)),
            ..ClusterConfig::default()
        };
        let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
        let report =
            run_channel_cluster(&Topology::complete(n), inst, &two_site_values(n), &config);

        assert!(report.converged, "{label}: cluster did not re-converge");
        assert!(report.drained, "{label}: cluster did not drain");
        assert_centroid_agreement(&report, 1e-3, &label);

        // The drift must have *moved* the answer: four units of fresh
        // mass at (9, 9) pull the grand mean well above the static
        // mixture's ~4.9 (8 seed units at mean 5 plus one join unit at
        // 4, halved old mass on the drifted nodes).
        let mean_x = grand_mean_x(&report);
        assert!(
            mean_x > 5.5,
            "{label}: grand mean x = {mean_x}, drift to (9,9) did not register"
        );

        // Exact books through injection, decay and the handoff.
        let audit = report.audit.as_ref().expect("audit was requested");
        assert!(audit.ok(), "{label}: audit failed\n{audit}");
        assert!(
            audit.exact,
            "{label}: dynamic books must balance exactly\n{audit}"
        );
        let gpu = config.quantum.grains_per_unit();
        assert_eq!(
            audit.injected_grains,
            5 * gpu,
            "{label}: 4 drift re-reads + 1 join unit, one unit each"
        );
        assert!(
            audit.forgotten_grains > 0,
            "{label}: decay must have forgotten mass"
        );

        // The retiree handed everything off; the joiner ended with mass.
        assert_eq!(
            report.nodes[2].outcome,
            NodeOutcome::Retired,
            "{label}: peer 2 was scheduled to retire"
        );
        assert_eq!(
            report.nodes[2].classification.total_weight().grains(),
            0,
            "{label}: a retiree must leave no grains behind"
        );
        assert_eq!(
            report.nodes[8].outcome,
            NodeOutcome::Completed,
            "{label}: the joiner must live to the end"
        );
        assert!(
            report.nodes[8].classification.total_weight().grains() > 0,
            "{label}: the joiner must hold mass at shutdown"
        );

        // And the offline replay agrees: a settled episode timeline that
        // holds to the end, reconciled against the auditor.
        let dyn_report = DynReport::from_events(&sink.events(), &DynOptions::default());
        assert!(
            dyn_report.clean(),
            "{label}: dyn-report anomalies: {:?}",
            dyn_report.anomalies
        );
        assert!(
            !dyn_report.episodes.is_empty(),
            "{label}: no settled episode in the telemetry"
        );
        assert!(
            dyn_report
                .episodes
                .last()
                .expect("non-empty")
                .lost_round
                .is_none(),
            "{label}: the final episode must hold to the end"
        );
        assert_eq!(dyn_report.joins.len(), 1, "{label}");
        assert_eq!(dyn_report.retirements.len(), 1, "{label}");
    }
}

/// Regression at the seed where the sweep above once failed: a retiree
/// kept merging data frames that landed after its handoff (and kept
/// returned halves), so it exited holding grains. The race depends on
/// thread timing, so the seed is replayed several times.
#[test]
fn retiree_leaves_no_grains_at_pinned_seed_5() {
    let seed = 5;
    for rep in 0..3 {
        let drift = DriftSchedule::parse("step@300ms:0-3=9.0,9.0", seed).expect("drift spec");
        let churn =
            ChurnPlan::parse("join@250ms:8=4.0,4.0;leave@450ms:2", seed).expect("churn spec");
        let config = ClusterConfig {
            tick: Duration::from_millis(1),
            tol: 1e-6,
            stable_window: Duration::from_millis(150),
            max_wall: Duration::from_secs(30),
            drain_wall: Duration::from_secs(15),
            seed,
            audit: true,
            drift: Some(Arc::new(drift)),
            churn: Some(Arc::new(churn)),
            ..ClusterConfig::default()
        };
        let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
        let report =
            run_channel_cluster(&Topology::complete(8), inst, &two_site_values(8), &config);
        assert!(report.drained, "rep {rep}: cluster did not drain");
        assert_eq!(report.nodes[2].outcome, NodeOutcome::Retired, "rep {rep}");
        assert_eq!(
            report.nodes[2].classification.total_weight().grains(),
            0,
            "rep {rep}: a retiree must leave no grains behind"
        );
        let audit = report.audit.as_ref().expect("audit was requested");
        assert!(
            audit.ok() && audit.exact,
            "rep {rep}: audit failed\n{audit}"
        );
    }
}

/// Drift, a partition and a colluding cartel in one run: the defense
/// must tell scripted sensor drift (honest, declared) apart from wire
/// lies (malicious), convicting exactly the cast while the honest
/// majority re-converges on agreeing centroids and the books balance.
#[test]
fn drift_partition_cartel_zero_false_convictions() {
    for seed in seeds() {
        let n = 14;
        let cast = [4usize, 11];
        let label = format!("seed {seed}");
        let plan = AdversaryPlan::new(seed).cartel(&cast, 1.2);
        let faults = FaultPlan::new(seed).partition(
            Duration::from_millis(150),
            Duration::from_millis(350),
            (0..n / 2).collect(),
        );
        let drift = DriftSchedule::parse("step@450ms:0-5=9.0,9.0", seed).expect("drift spec");
        let sink = Arc::new(RingSink::new(1 << 20));
        let config = ClusterConfig {
            tick: Duration::from_millis(1),
            tol: 1e-6,
            stable_window: Duration::from_millis(150),
            max_wall: Duration::from_secs(30),
            drain_wall: Duration::from_secs(15),
            seed,
            audit: true,
            tracer: Tracer::new(Arc::clone(&sink) as _),
            adversaries: Some(Arc::new(plan)),
            defense: Some(DefenseConfig::default()),
            drift: Some(Arc::new(drift)),
            ..ClusterConfig::default()
        };
        let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
        let report = run_chaos_channel_cluster(
            &Topology::complete(n),
            inst,
            &two_site_values(n),
            &faults,
            &config,
        );

        // Zero false convictions: nobody honest swept up by drift or the
        // partition churn.
        for &convicted in &report.convicted {
            assert!(
                cast.contains(&convicted),
                "{label}: honest node {convicted} was falsely convicted"
            );
        }
        assert_eq!(
            report.convicted, cast,
            "{label}: the cartel must still be fully convicted under drift"
        );
        assert!(report.converged, "{label}: honest nodes did not converge");
        assert_centroid_agreement(&report, 1e-3, &label);
        let audit = report.audit.as_ref().expect("audit was requested");
        assert!(audit.ok(), "{label}: audit failed\n{audit}");
        assert_eq!(
            audit.injected_grains,
            6 * config.quantum.grains_per_unit(),
            "{label}: six drifting sensors, one unit each"
        );

        let dyn_report = DynReport::from_events(&sink.events(), &DynOptions::default());
        assert!(
            dyn_report.clean(),
            "{label}: dyn-report anomalies: {:?}",
            dyn_report.anomalies
        );
    }
}

/// End-to-end CLI contract: a dynamic run traced through the binary
/// must gate clean — `dyn-report` exits 0 on its own trace and reports
/// the join, the retirement and the reconciled injection terms.
#[test]
fn cli_dyn_report_gates_a_clean_dynamic_run() {
    let dir = std::env::temp_dir().join(format!("distclass-dyn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("dyn.jsonl");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
        .args([
            "run-cluster",
            "--transport",
            "channel",
            "--n",
            "8",
            "--tick-ms",
            "1",
            "--max-secs",
            "20",
            "--seed",
            "11",
            "--drift",
            "step@300ms:0-3=9.0,9.0",
            "--churn",
            "join@250ms:8=4.0,4.0;leave@450ms:2",
            "--trace",
            trace.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("spawn distclass run-cluster");
    assert!(
        out.status.success(),
        "run-cluster failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let report = std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
        .args(["dyn-report", trace.to_str().expect("utf-8 path")])
        .output()
        .expect("spawn distclass dyn-report");
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert_eq!(
        report.status.code(),
        Some(0),
        "dyn-report on a clean dynamic run must exit 0:\n{stdout}\n{}",
        String::from_utf8_lossy(&report.stderr)
    );
    assert!(stdout.contains("anomalies: none"), "{stdout}");
    assert!(stdout.contains("1 joins, 1 retirements"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
