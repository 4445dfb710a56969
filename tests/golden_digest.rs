//! Fixed-seed golden digests of whole simulator runs.
//!
//! Each test runs `RoundSim` from fixed inputs and seed and hashes every
//! node's final classification — summary components as `f64` bits and
//! weights in grains — with 64-bit FNV-1a. The expected values were
//! recorded before the allocation-free round work (inline small-d
//! `Vector`, cached greedy summaries, reused round buffers), so any
//! change of arithmetic order, tie-breaking or collection order in the
//! hot path shows here as a different digest.

use std::sync::Arc;

use distclass::core::{CentroidInstance, Classification, GaussianSummary, GmInstance, Instance};
use distclass::gossip::{GossipConfig, RoundSim};
use distclass::linalg::Vector;
use distclass::net::Topology;

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// `n` 2-D readings around three centres, from a fixed LCG stream.
fn readings(n: usize) -> Vec<Vector> {
    let centres = [[0.0, 0.0], [6.0, 1.0], [2.0, 7.0]];
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let c = centres[i % centres.len()];
            Vector::from([c[0] + 2.0 * unit() - 1.0, c[1] + 2.0 * unit() - 1.0])
        })
        .collect()
}

/// Runs `rounds` rounds from `readings(topo.len())` and digests every
/// node's classification with `summary_words`.
fn digest<I: Instance<Value = Vector>>(
    topo: Topology,
    instance: I,
    rounds: u64,
    summary_words: impl Fn(&mut Fnv, &I::Summary),
) -> u64 {
    let n = topo.len();
    let cfg = GossipConfig {
        seed: 11,
        ..GossipConfig::default()
    };
    let mut sim = RoundSim::new(topo, Arc::new(instance), &readings(n), &cfg);
    sim.run_rounds(rounds);
    let mut h = Fnv::new();
    for i in 0..n {
        let c: &Classification<I::Summary> = sim.classification_of(i);
        h.word(c.len() as u64);
        for col in c {
            summary_words(&mut h, &col.summary);
            h.word(col.weight.grains());
        }
    }
    h.0
}

fn centroid_words(h: &mut Fnv, s: &Vector) {
    h.floats(s.as_slice());
}

fn gaussian_words(h: &mut Fnv, s: &GaussianSummary) {
    h.floats(s.mean.as_slice());
    h.floats(s.cov.as_slice());
}

#[test]
fn centroid_complete_1024_digest_is_unchanged() {
    let inst = CentroidInstance::new(3).expect("k >= 1");
    let d = digest(Topology::complete(1024), inst, 30, centroid_words);
    assert_eq!(d, 0x57b1_171c_dcd6_d0c5, "digest {d:#018x}");
}

#[test]
fn centroid_ring_256_digest_is_unchanged() {
    let inst = CentroidInstance::new(3).expect("k >= 1");
    let d = digest(Topology::ring(256), inst, 40, centroid_words);
    assert_eq!(d, 0x25a2_1ee0_2bed_954d, "digest {d:#018x}");
}

#[test]
fn gm_complete_64_digest_is_unchanged() {
    let inst = GmInstance::new(3).expect("k >= 1");
    let d = digest(Topology::complete(64), inst, 15, gaussian_words);
    assert_eq!(d, 0xaa14_83f4_7af1_1ba8, "digest {d:#018x}");
}
