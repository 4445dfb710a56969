use std::fmt;

use crate::classification::Classification;
use crate::collection::with_parts;
use crate::mixture::MixtureVector;

/// The application-specific functions that instantiate the generic
/// algorithm (Algorithm 1): a summary domain `S`, `valToSummary`,
/// `mergeSet`, `partition` and the summary distance `d_S`.
///
/// Implementations must satisfy the paper's requirements:
///
/// * **R1** — collections of similar values have similar summaries
///   (`d_S(f(v₁), f(v₂)) ≤ ρ · d_M(v₁, v₂)`);
/// * **R2** — [`Instance::val_to_summary`] agrees with `f` on singleton
///   collections;
/// * **R3** — summaries are invariant under weight scaling;
/// * **R4** — merging summaries equals summarizing the merged collection.
///
/// R2–R4 are checked for all bundled instances by the property tests in
/// [`crate::audit`] (via the [`MixtureSummary`] reference mapping).
///
/// `partition` must additionally respect the two structural restrictions of
/// §4.1: at most `k` groups, and no group may consist of a single
/// collection of quantum weight. [`crate::ClassifierNode`] asserts both.
pub trait Instance {
    /// The input value domain `D`.
    type Value: Clone;
    /// The summary domain `S`.
    type Summary: Clone + fmt::Debug;

    /// The bound `k` on the number of collections per classification.
    fn k(&self) -> usize;

    /// Summarizes a whole input value (weight 1) — the paper's
    /// `valToSummary`.
    fn val_to_summary(&self, val: &Self::Value) -> Self::Summary;

    /// Merges weighted summaries into the summary of the union collection —
    /// the paper's `mergeSet`. Weights are supplied as arbitrary positive
    /// numbers; by R3 only their ratios may matter.
    ///
    /// # Panics
    ///
    /// Implementations may panic on an empty slice; the node never passes
    /// one.
    fn merge_set(&self, parts: &[(&Self::Summary, f64)]) -> Self::Summary;

    /// Partitions the collections of `big` into at most `k` groups to be
    /// merged — the paper's `partition`. Returns groups of indices into
    /// `big.collections()`; every index must appear in exactly one group.
    fn partition(&self, big: &Classification<Self::Summary>) -> Vec<Vec<usize>>;

    /// The distance `d_S` between summaries.
    fn summary_distance(&self, a: &Self::Summary, b: &Self::Summary) -> f64;

    /// Reconstructs an input value from raw sensor components — the
    /// dynamic-workload layer's bridge from a drift schedule's numeric
    /// readings to `Self::Value`. `None` (the default) means the value
    /// domain has no canonical component form; drift events targeting
    /// such an instance are skipped.
    fn value_from_components(&self, components: &[f64]) -> Option<Self::Value> {
        let _ = components;
        None
    }
}

/// The reference summary mapping `f` from mixture-space vectors to
/// summaries (§4.2), used to audit Lemma 1 and requirements R2–R4.
///
/// `f` is defined on the *actual input values*, which only the test/audit
/// harness knows; the distributed algorithm itself never evaluates it.
pub trait MixtureSummary: Instance {
    /// Evaluates `f(mixture)` given the global input values: the summary of
    /// the collection containing `mixture[j]` weight of each value `j`.
    ///
    /// # Panics
    ///
    /// May panic if `values.len() != mixture.len()` or the mixture is all
    /// zeros.
    fn summarize_mixture(&self, values: &[Self::Value], mixture: &MixtureVector) -> Self::Summary;
}

/// Generic greedy partition (Algorithm 2's `partition`, phrased over any
/// instance): start from singleton groups, ensure no quantum-weight
/// collection sits alone, then repeatedly merge the two closest groups
/// (by `d_S` of their merged summaries) until at most `k` remain.
///
/// Shared by the centroid instance and used as the Gaussian instance's
/// fallback when EM cannot run.
///
/// Each group's summary is computed once and, after a merge, recomputed
/// only for the grown group, from its full member list in member order —
/// the same `merge_set` call a from-scratch pass would make, so the result
/// does not depend on the caching. Until the result is built, groups live
/// as linked chains in a single allocation.
pub fn greedy_partition<I: Instance>(
    instance: &I,
    big: &Classification<I::Summary>,
) -> Vec<Vec<usize>> {
    let mut groups = Chains::singletons(big.len());
    let summarize = |groups: &Chains<I::Summary>, g: usize| {
        with_parts(big.collections(), groups.members(g), |p| {
            instance.merge_set(p)
        })
    };

    // Restriction (2): merge quantum-weight singletons with their nearest
    // other group first.
    merge_quantum_singletons_in(instance, big, &mut groups);

    // Greedy closest-pair merging down to k groups.
    if groups.count() > instance.k() {
        for g in 0..groups.count() {
            let summary = summarize(&groups, g);
            groups.set_summary(g, summary);
        }
        while groups.count() > instance.k() {
            let (mut bx, mut by, mut best) = (0, 1, f64::INFINITY);
            for x in 0..groups.count() {
                for y in (x + 1)..groups.count() {
                    let d = instance.summary_distance(groups.summary(x), groups.summary(y));
                    if d < best {
                        best = d;
                        bx = x;
                        by = y;
                    }
                }
            }
            // `bx < by`, so removing `by` leaves `bx` in place.
            groups.join(bx, by);
            let summary = summarize(&groups, bx);
            groups.set_summary(bx, summary);
        }
    }
    groups.into_vecs()
}

/// Enforces restriction (2) of §4.1 on a set of groups: every group that is
/// a single collection of quantum weight is merged into the nearest other
/// group (by `d_S` between that collection's summary and the other group's
/// first member).
///
/// No-op when only one group exists.
pub fn merge_quantum_singletons<I: Instance>(
    instance: &I,
    big: &Classification<I::Summary>,
    groups: &mut Vec<Vec<usize>>,
) {
    merge_quantum_singletons_in(instance, big, groups);
}

fn merge_quantum_singletons_in<I: Instance>(
    instance: &I,
    big: &Classification<I::Summary>,
    groups: &mut impl Groups,
) {
    loop {
        if groups.count() <= 1 {
            return;
        }
        let offender = (0..groups.count()).position(|g| {
            groups.size(g) == 1 && big.collection(groups.first(g)).weight.is_quantum()
        });
        let Some(ox) = offender else { return };
        let osum = &big.collection(groups.first(ox)).summary;
        let (mut target, mut best) = (usize::MAX, f64::INFINITY);
        for y in 0..groups.count() {
            if y == ox {
                continue;
            }
            let d = instance.summary_distance(osum, &big.collection(groups.first(y)).summary);
            if d < best {
                best = d;
                target = y;
            }
        }
        groups.join(target, ox);
    }
}

/// The group operations the merging steps of a partition need.
trait Groups {
    /// The number of groups.
    fn count(&self) -> usize;
    /// The number of members of group `g`.
    fn size(&self, g: usize) -> usize;
    /// The first member of group `g`.
    fn first(&self, g: usize) -> usize;
    /// Appends the members of group `src` to group `dst`, then removes
    /// `src` as `Vec::swap_remove` would (the last group takes its slot).
    fn join(&mut self, dst: usize, src: usize);
}

impl Groups for Vec<Vec<usize>> {
    fn count(&self) -> usize {
        self.len()
    }

    fn size(&self, g: usize) -> usize {
        self[g].len()
    }

    fn first(&self, g: usize) -> usize {
        self[g][0]
    }

    fn join(&mut self, dst: usize, src: usize) {
        let moved = self.swap_remove(src);
        // swap_remove may have moved the target; recompute by identity.
        let dst = if dst == self.len() { src } else { dst };
        self[dst].extend(moved);
    }
}

/// Groups of collection indices as linked chains, in one allocation:
/// slot `i` holds member `i`'s successor, and slot `g < count` also holds
/// group `g`. Joining two groups is O(1) and keeps member order.
struct Chains<S> {
    slots: Vec<Slot<S>>,
    count: usize,
}

struct Slot<S> {
    next: usize,
    group: Group<S>,
}

struct Group<S> {
    head: usize,
    tail: usize,
    size: usize,
    summary: Option<S>,
}

impl<S> Chains<S> {
    /// One singleton group per index `0..n`.
    fn singletons(n: usize) -> Self {
        Chains {
            slots: (0..n)
                .map(|i| Slot {
                    next: usize::MAX,
                    group: Group {
                        head: i,
                        tail: i,
                        size: 1,
                        summary: None,
                    },
                })
                .collect(),
            count: n,
        }
    }

    /// The members of group `g`, in order.
    fn members(&self, g: usize) -> impl Iterator<Item = usize> + '_ {
        let group = &self.slots[g].group;
        std::iter::successors(Some(group.head), |&i| Some(self.slots[i].next)).take(group.size)
    }

    /// Group `g`'s cached summary.
    ///
    /// # Panics
    ///
    /// Panics if none is set.
    fn summary(&self, g: usize) -> &S {
        self.slots[g]
            .group
            .summary
            .as_ref()
            .expect("group summary is cached")
    }

    fn set_summary(&mut self, g: usize, summary: S) {
        self.slots[g].group.summary = Some(summary);
    }

    /// The groups as index lists.
    fn into_vecs(self) -> Vec<Vec<usize>> {
        (0..self.count)
            .map(|g| {
                let mut members = Vec::with_capacity(self.size(g));
                members.extend(self.members(g));
                members
            })
            .collect()
    }
}

impl<S> Groups for Chains<S> {
    fn count(&self) -> usize {
        self.count
    }

    fn size(&self, g: usize) -> usize {
        self.slots[g].group.size
    }

    fn first(&self, g: usize) -> usize {
        self.slots[g].group.head
    }

    fn join(&mut self, dst: usize, src: usize) {
        // Swap-remove `src`: the last group moves into its slot, and `src`
        // ends up past the live groups.
        self.count -= 1;
        let last = self.count;
        if src != last {
            let (live, rest) = self.slots.split_at_mut(last);
            std::mem::swap(&mut live[src].group, &mut rest[0].group);
        }
        let (head, tail, size) = {
            let removed = &self.slots[last].group;
            (removed.head, removed.tail, removed.size)
        };
        let dst = if dst == last { src } else { dst };
        let old_tail = std::mem::replace(&mut self.slots[dst].group.tail, tail);
        self.slots[old_tail].next = head;
        self.slots[dst].group.size += size;
    }
}

/// The greedy partition as first written: every group's summary is
/// recomputed from scratch on every merge step and groups are `Vec`s
/// throughout. The reference [`greedy_partition`] must match exactly.
#[cfg(test)]
fn naive_greedy_partition<I: Instance>(
    instance: &I,
    big: &Classification<I::Summary>,
) -> Vec<Vec<usize>> {
    let n = big.len();
    let mut groups: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let group_summary = |g: &[usize]| -> I::Summary {
        let parts: Vec<(&I::Summary, f64)> = g
            .iter()
            .map(|&i| {
                let c = big.collection(i);
                (&c.summary, c.weight.grains() as f64)
            })
            .collect();
        instance.merge_set(&parts)
    };

    // Restriction (2), as first written.
    loop {
        if groups.len() <= 1 {
            break;
        }
        let offender = groups
            .iter()
            .position(|g| g.len() == 1 && big.collection(g[0]).weight.is_quantum());
        let Some(ox) = offender else { break };
        let osum = &big.collection(groups[ox][0]).summary;
        let (mut target, mut best) = (usize::MAX, f64::INFINITY);
        for (y, g) in groups.iter().enumerate() {
            if y == ox {
                continue;
            }
            let d = instance.summary_distance(osum, &big.collection(g[0]).summary);
            if d < best {
                best = d;
                target = y;
            }
        }
        let singleton = groups.swap_remove(ox);
        let target = if target == groups.len() { ox } else { target };
        groups[target].extend(singleton);
    }

    while groups.len() > instance.k() {
        let summaries: Vec<I::Summary> = groups.iter().map(|g| group_summary(g)).collect();
        let (mut bx, mut by, mut best) = (0, 1, f64::INFINITY);
        for x in 0..groups.len() {
            for y in (x + 1)..groups.len() {
                let d = instance.summary_distance(&summaries[x], &summaries[y]);
                if d < best {
                    best = d;
                    bx = x;
                    by = y;
                }
            }
        }
        let merged = groups.swap_remove(by);
        groups[bx].extend(merged);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;
    use crate::weight::Weight;

    /// A toy 1-D centroid instance for exercising the helpers.
    struct Toy {
        k: usize,
    }

    impl Instance for Toy {
        type Value = f64;
        type Summary = f64;

        fn k(&self) -> usize {
            self.k
        }

        fn val_to_summary(&self, val: &f64) -> f64 {
            *val
        }

        fn merge_set(&self, parts: &[(&f64, f64)]) -> f64 {
            let w: f64 = parts.iter().map(|(_, w)| w).sum();
            parts.iter().map(|(s, pw)| *s * pw).sum::<f64>() / w
        }

        fn partition(&self, big: &Classification<f64>) -> Vec<Vec<usize>> {
            greedy_partition(self, big)
        }

        fn summary_distance(&self, a: &f64, b: &f64) -> f64 {
            (a - b).abs()
        }
    }

    fn big(vals_weights: &[(f64, u64)]) -> Classification<f64> {
        vals_weights
            .iter()
            .map(|&(v, g)| Collection::new(v, Weight::from_grains(g)))
            .collect()
    }

    #[test]
    fn greedy_merges_closest() {
        let inst = Toy { k: 2 };
        let c = big(&[(0.0, 10), (0.1, 10), (5.0, 10)]);
        let mut groups = inst.partition(&c);
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort();
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn greedy_respects_k() {
        let inst = Toy { k: 3 };
        let c = big(&[(0.0, 5), (1.0, 5), (2.0, 5), (3.0, 5), (4.0, 5), (5.0, 5)]);
        let groups = inst.partition(&c);
        assert_eq!(groups.len(), 3);
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn quantum_singletons_never_left_alone() {
        let inst = Toy { k: 4 };
        // Collection 2 has quantum weight and is closest to collection 1.
        let c = big(&[(0.0, 10), (4.0, 10), (4.5, 1)]);
        let groups = inst.partition(&c);
        let holder = groups.iter().find(|g| g.contains(&2)).unwrap();
        assert!(
            holder.len() >= 2,
            "quantum singleton left alone: {groups:?}"
        );
        assert!(holder.contains(&1));
    }

    #[test]
    fn single_quantum_collection_alone_is_allowed() {
        // With only one collection total there is nothing to merge with.
        let inst = Toy { k: 2 };
        let c = big(&[(1.0, 1)]);
        let groups = inst.partition(&c);
        assert_eq!(groups, vec![vec![0]]);
    }

    #[test]
    fn weighted_merge_set_is_weighted_mean() {
        let inst = Toy { k: 1 };
        let m = inst.merge_set(&[(&0.0, 3.0), (&4.0, 1.0)]);
        assert!((m - 1.0).abs() < 1e-12);
    }

    /// Collections on a small integer grid (so equal summaries and tied
    /// distances are common), a quarter of them of quantum weight.
    fn grid_classification<S>(
        cells: &[(u8, u8, u8)],
        summary: impl Fn(f64, f64) -> S,
    ) -> Classification<S> {
        cells
            .iter()
            .map(|&(x, y, w)| {
                let grains = if w == 0 { 1 } else { 10 * u64::from(w) };
                Collection::new(
                    summary(f64::from(x), f64::from(y)),
                    Weight::from_grains(grains),
                )
            })
            .collect()
    }

    mod equivalence {
        use super::*;
        use crate::{CentroidInstance, GaussianSummary, GmInstance, PartitionStrategy};
        use distclass_linalg::{Matrix, Vector};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            #[test]
            fn centroid_greedy_matches_naive(
                k in 1usize..=5,
                cells in collection::vec((0u8..4, 0u8..4, 0u8..4), 0..=14),
            ) {
                let inst = CentroidInstance::new(k).unwrap();
                let big = grid_classification(&cells, |x, y| Vector::from([x, y]));
                prop_assert_eq!(
                    greedy_partition(&inst, &big),
                    naive_greedy_partition(&inst, &big)
                );
            }

            #[test]
            fn gm_greedy_fallback_matches_naive(
                k in 1usize..=5,
                cells in collection::vec((0u8..4, 0u8..4, 0u8..4), 0..=14),
            ) {
                let inst = GmInstance::new(k)
                    .unwrap()
                    .with_partition_strategy(PartitionStrategy::Greedy);
                let big = grid_classification(&cells, |x, y| {
                    let spread = 0.5 + (x + y) / 8.0;
                    GaussianSummary::new(
                        Vector::from([x, y]),
                        Matrix::from_rows(&[&[spread, 0.0], &[0.0, spread]]).unwrap(),
                    )
                });
                let naive = naive_greedy_partition(&inst, &big);
                prop_assert_eq!(greedy_partition(&inst, &big), naive.clone());
                if big.len() > k {
                    prop_assert_eq!(inst.partition(&big), naive);
                }
            }
        }
    }
}
