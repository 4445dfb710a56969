//! Newscast EM (Kowalczyk & Vlassis \[14\]): distributed Gaussian-Mixture
//! estimation by having nodes *simulate centralized EM*, with every M-step
//! aggregate computed by gossip averaging.
//!
//! Each node holds one data point `xᵢ` and responsibilities `rᵢⱼ` for the
//! `k` model components. The global M-step needs the averages (over nodes)
//! of `rᵢⱼ`, `rᵢⱼ·xᵢ` and `rᵢⱼ·xᵢxᵢᵀ`; Newscast estimates them with
//! pairwise uniform gossip averaging — `cycles_per_iter` cycles in which
//! every node exchanges and averages its aggregate estimate with a random
//! neighbor. After each aggregation phase nodes recompute parameters
//! locally and run their local E-step, then the next EM iteration begins.
//!
//! This is the related-work comparison point of the paper (§2): it
//! produces good mixtures, but needs *multiple aggregation phases, each
//! comparable in length to one complete run of the classification
//! algorithm* — the experiment `related_work` quantifies that.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use distclass_core::{CoreError, GaussianSummary};
use distclass_linalg::{Matrix, Vector};
use distclass_net::{derive_seed, NodeId, Topology};

/// Tunables for a Newscast EM run.
#[derive(Debug, Clone, PartialEq)]
pub struct NewscastConfig {
    /// Number of mixture components.
    pub k: usize,
    /// Outer EM iterations.
    pub em_iters: usize,
    /// Gossip averaging cycles per EM iteration (each cycle: every node
    /// exchanges once).
    pub cycles_per_iter: usize,
    /// Covariance regularization.
    pub reg: f64,
    /// Seed for responsibilities initialization and partner choice.
    pub seed: u64,
}

impl Default for NewscastConfig {
    /// `k = 2`, 10 EM iterations, 15 cycles each, `reg = 1e-6`, seed 42.
    fn default() -> Self {
        NewscastConfig {
            k: 2,
            em_iters: 10,
            cycles_per_iter: 15,
            reg: 1e-6,
            seed: 42,
        }
    }
}

/// The outcome of a Newscast EM run.
#[derive(Debug, Clone)]
pub struct NewscastResult {
    /// Each node's final mixture estimate (component, mixing weight).
    pub models: Vec<Vec<(GaussianSummary, f64)>>,
    /// Equivalent communication rounds executed (`em_iters × cycles`).
    pub rounds: u64,
    /// Total point-to-point messages exchanged.
    pub messages: u64,
    /// Floats carried per message (`k · (1 + d + d(d+1)/2)`).
    pub floats_per_message: usize,
}

/// Per-node aggregate estimate: for each component, the running averages of
/// `r`, `r·x` and `r·xxᵀ` (upper triangle).
#[derive(Debug, Clone)]
struct Aggregate {
    data: Vec<f64>,
}

impl Aggregate {
    fn stride(d: usize) -> usize {
        1 + d + d * (d + 1) / 2
    }

    fn from_local(x: &Vector, resp: &[f64]) -> Self {
        let d = x.dim();
        let stride = Self::stride(d);
        let mut data = vec![0.0; resp.len() * stride];
        for (j, &r) in resp.iter().enumerate() {
            let base = j * stride;
            data[base] = r;
            for a in 0..d {
                data[base + 1 + a] = r * x[a];
            }
            let mut idx = base + 1 + d;
            for a in 0..d {
                for b in a..d {
                    data[idx] = r * x[a] * x[b];
                    idx += 1;
                }
            }
        }
        Aggregate { data }
    }

    fn average_with(&mut self, other: &mut Aggregate) {
        for (a, b) in self.data.iter_mut().zip(other.data.iter_mut()) {
            let avg = 0.5 * (*a + *b);
            *a = avg;
            *b = avg;
        }
    }

    /// Extracts the model `(summary, π)` for component `j`.
    fn component(&self, j: usize, d: usize, reg: f64) -> (GaussianSummary, f64) {
        let stride = Self::stride(d);
        let base = j * stride;
        let pi = self.data[base].max(1e-12);
        let mean: Vector = (0..d).map(|a| self.data[base + 1 + a] / pi).collect();
        let mut cov = Matrix::zeros(d, d);
        let mut idx = base + 1 + d;
        for a in 0..d {
            for b in a..d {
                let second = self.data[idx] / pi;
                let c = second - mean[a] * mean[b];
                cov[(a, b)] = c;
                cov[(b, a)] = c;
                idx += 1;
            }
        }
        cov.add_diagonal(reg);
        (GaussianSummary::new(mean, cov), pi)
    }
}

/// Runs Newscast EM over a topology.
///
/// # Errors
///
/// Returns [`CoreError::InvalidK`] for `k == 0` and
/// [`CoreError::InvalidParameter`] for an empty value set or mismatched
/// configuration.
///
/// # Panics
///
/// Panics if `values.len() != topology.len()`.
pub fn run(
    topology: &Topology,
    values: &[Vector],
    cfg: &NewscastConfig,
) -> Result<NewscastResult, CoreError> {
    if cfg.k == 0 {
        return Err(CoreError::InvalidK { k: cfg.k });
    }
    if values.is_empty() {
        return Err(CoreError::InvalidParameter {
            name: "values",
            constraint: "at least one value",
        });
    }
    if cfg.em_iters == 0 || cfg.cycles_per_iter == 0 {
        return Err(CoreError::InvalidParameter {
            name: "em_iters/cycles_per_iter",
            constraint: "at least one iteration and one cycle",
        });
    }
    assert_eq!(values.len(), topology.len(), "one value per node required");

    let n = values.len();
    let d = values[0].dim();
    let k = cfg.k.min(n);
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 0xCA57));

    // Initialize responsibilities from k farthest-point anchor values
    // (deterministic k-means++ analogue, like the centralized EM seeding).
    let mut anchors: Vec<&Vector> = vec![&values[0]];
    while anchors.len() < k {
        let far = values
            .iter()
            .max_by(|a, b| {
                let da = anchors
                    .iter()
                    .map(|c| a.distance(c))
                    .fold(f64::INFINITY, f64::min);
                let db = anchors
                    .iter()
                    .map(|c| b.distance(c))
                    .fold(f64::INFINITY, f64::min);
                da.total_cmp(&db)
            })
            .expect("non-empty values");
        anchors.push(far);
    }
    let mut resp: Vec<Vec<f64>> = values
        .iter()
        .map(|x| {
            let scores: Vec<f64> = anchors
                .iter()
                .map(|a| {
                    let dist = x.distance(a);
                    (-dist * dist).exp() + 1e-9
                })
                .collect();
            let total: f64 = scores.iter().sum();
            scores.into_iter().map(|s| s / total).collect()
        })
        .collect();

    let mut messages = 0u64;
    let mut rounds = 0u64;

    for _ in 0..cfg.em_iters {
        // --- Aggregation phase (gossip averaging of M-step sums). ---
        let mut aggregates: Vec<Aggregate> = values
            .iter()
            .zip(resp.iter())
            .map(|(x, r)| Aggregate::from_local(x, r))
            .collect();
        for _ in 0..cfg.cycles_per_iter {
            rounds += 1;
            for i in 0..n {
                let nbrs = topology.neighbors(i);
                let partner: NodeId = nbrs.get(rng.gen_range(0..nbrs.len()));
                if partner == i {
                    continue;
                }
                // Bilateral exchange: two messages (one each way).
                messages += 2;
                let (lo, hi) = if i < partner {
                    (i, partner)
                } else {
                    (partner, i)
                };
                let (left, right) = aggregates.split_at_mut(hi);
                left[lo].average_with(&mut right[0]);
            }
        }

        // --- Local parameter extraction and E-step. ---
        for (i, x) in values.iter().enumerate() {
            let model: Vec<(GaussianSummary, f64)> = (0..k)
                .map(|j| aggregates[i].component(j, d, cfg.reg))
                .collect();
            let mut scores = Vec::with_capacity(k);
            for (g, pi) in &model {
                let lp = g.log_pdf(x, cfg.reg).unwrap_or(f64::NEG_INFINITY);
                scores.push(pi.max(1e-300).ln() + lp);
            }
            let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
            let total: f64 = exps.iter().sum();
            resp[i] = exps.into_iter().map(|e| e / total).collect();
        }

        // Keep the last aggregation's models for the result.
        if rounds as usize >= cfg.em_iters * cfg.cycles_per_iter {
            let models = (0..n)
                .map(|i| {
                    (0..k)
                        .map(|j| aggregates[i].component(j, d, cfg.reg))
                        .collect()
                })
                .collect();
            return Ok(NewscastResult {
                models,
                rounds,
                messages,
                floats_per_message: k * Aggregate::stride(d),
            });
        }
    }
    unreachable!("loop always returns on the last iteration")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_values(n: usize) -> Vec<Vector> {
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 10.0 };
                Vector::from([c + 0.02 * (i / 2) as f64, c * 0.5])
            })
            .collect()
    }

    #[test]
    fn recovers_two_blobs() {
        let n = 60;
        let values = blob_values(n);
        let cfg = NewscastConfig {
            k: 2,
            em_iters: 8,
            cycles_per_iter: 20,
            ..NewscastConfig::default()
        };
        let out = run(&Topology::complete(n), &values, &cfg).unwrap();
        assert_eq!(out.rounds, 8 * 20);
        // Node 0's model should place components near (0, 0) and (10, 5).
        let mut means: Vec<f64> = out.models[0].iter().map(|(g, _)| g.mean[0]).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(means[0].abs() < 1.0, "means {means:?}");
        assert!((means[1] - 10.0).abs() < 1.0, "means {means:?}");
        // Mixing weights near 1/2 each.
        for (_, pi) in &out.models[0] {
            assert!((pi - 0.5).abs() < 0.15, "pi {pi}");
        }
    }

    #[test]
    fn nodes_agree_after_enough_cycles() {
        let n = 40;
        let values = blob_values(n);
        let cfg = NewscastConfig {
            k: 2,
            em_iters: 6,
            cycles_per_iter: 25,
            ..NewscastConfig::default()
        };
        let out = run(&Topology::complete(n), &values, &cfg).unwrap();
        let reference = &out.models[0];
        for model in &out.models[1..] {
            for ((ga, _), (gb, _)) in reference.iter().zip(model.iter()) {
                assert!(
                    ga.mean.distance(&gb.mean) < 0.5,
                    "disagreement {} vs {}",
                    ga.mean,
                    gb.mean
                );
            }
        }
    }

    #[test]
    fn message_cost_scales_with_iterations() {
        let n = 20;
        let values = blob_values(n);
        let cheap = NewscastConfig {
            em_iters: 2,
            cycles_per_iter: 5,
            ..NewscastConfig::default()
        };
        let pricey = NewscastConfig {
            em_iters: 4,
            cycles_per_iter: 10,
            ..NewscastConfig::default()
        };
        let a = run(&Topology::complete(n), &values, &cheap).unwrap();
        let b = run(&Topology::complete(n), &values, &pricey).unwrap();
        assert_eq!(a.messages, 2 * 5 * 2 * n as u64);
        assert_eq!(b.messages, 4 * 10 * 2 * n as u64);
        assert!(b.rounds > a.rounds);
    }

    #[test]
    fn rejects_bad_config() {
        let values = blob_values(4);
        let topo = Topology::complete(4);
        assert!(matches!(
            run(
                &topo,
                &values,
                &NewscastConfig {
                    k: 0,
                    ..NewscastConfig::default()
                }
            ),
            Err(CoreError::InvalidK { .. })
        ));
        assert!(matches!(
            run(
                &topo,
                &values,
                &NewscastConfig {
                    em_iters: 0,
                    ..NewscastConfig::default()
                }
            ),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            run(&Topology::complete(2), &[], &NewscastConfig::default()),
            Err(CoreError::InvalidParameter { .. })
        ));
    }
}
