use std::sync::Arc;

use crate::classification::Classification;
use crate::collection::{with_parts, Collection};
use crate::instance::Instance;
use crate::mixture::MixtureVector;
use crate::weight::{Quantum, Weight};

/// A node's state machine for the generic distributed classification
/// algorithm (Algorithm 1).
///
/// The node holds a classification of weighted collection summaries.
/// [`ClassifierNode::split_for_send`] implements lines 3–7 (halve every
/// collection, keep one half, return the other for sending);
/// [`ClassifierNode::receive`] implements lines 8–11 (union with the
/// incoming classification, partition, merge each group).
///
/// The node is transport-agnostic: the gossip runtime decides *when* to
/// split and *whom* to send to. All application-specific behavior lives in
/// the [`Instance`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use distclass_core::{CentroidInstance, ClassifierNode, Quantum};
/// use distclass_linalg::Vector;
///
/// let inst = Arc::new(CentroidInstance::new(2)?);
/// let q = Quantum::default();
/// let mut a = ClassifierNode::new(Arc::clone(&inst), &Vector::from(vec![0.0]), q);
/// let mut b = ClassifierNode::new(inst, &Vector::from(vec![2.0]), q);
///
/// // One gossip exchange: a sends half its weight to b.
/// let msg = a.split_for_send();
/// b.receive(msg);
/// assert_eq!(b.classification().len(), 2);
/// # Ok::<(), distclass_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClassifierNode<I: Instance> {
    instance: Arc<I>,
    classification: Classification<I::Summary>,
}

impl<I: Instance> ClassifierNode<I> {
    /// Creates a node holding input value `val` at weight 1 (line 2 of
    /// Algorithm 1), without auxiliary tracking.
    pub fn new(instance: Arc<I>, val: &I::Value, quantum: Quantum) -> Self {
        let summary = instance.val_to_summary(val);
        let mut classification = Classification::new();
        classification.push(Collection::new(summary, quantum.unit()));
        ClassifierNode {
            instance,
            classification,
        }
    }

    /// Creates a node with auxiliary mixture-vector tracking enabled: the
    /// initial collection carries the basis vector `e_index` over
    /// `n_values` inputs (§4.2's auxiliary algorithm).
    pub fn new_audited(
        instance: Arc<I>,
        val: &I::Value,
        quantum: Quantum,
        n_values: usize,
        index: usize,
    ) -> Self {
        let summary = instance.val_to_summary(val);
        let mut classification = Classification::new();
        classification.push(Collection::with_aux(
            summary,
            quantum.unit(),
            MixtureVector::basis(n_values, index),
        ));
        ClassifierNode {
            instance,
            classification,
        }
    }

    /// Rebuilds a node around a previously captured classification — the
    /// crash-recovery path: a respawned peer resumes from its checkpoint
    /// instead of its initial reading. The classification is adopted
    /// verbatim; callers are responsible for it having come from a node
    /// of the same instance.
    pub fn from_classification(
        instance: Arc<I>,
        classification: Classification<I::Summary>,
    ) -> Self {
        ClassifierNode {
            instance,
            classification,
        }
    }

    /// The instance this node runs.
    pub fn instance(&self) -> &Arc<I> {
        &self.instance
    }

    /// The node's current classification (its output at every time `t`).
    pub fn classification(&self) -> &Classification<I::Summary> {
        &self.classification
    }

    /// Splits the classification in half (lines 5–7): the node keeps one
    /// half and the returned half is meant to be sent to a neighbor.
    ///
    /// The returned classification can be empty if every collection has
    /// quantum weight; sending an empty classification is a harmless no-op.
    pub fn split_for_send(&mut self) -> Classification<I::Summary> {
        self.classification.split_off_half()
    }

    /// Handles an incoming classification (lines 8–11): unions it with the
    /// local one, partitions the result with the instance's `partition`,
    /// and merges each group with `mergeSet`.
    pub fn receive(&mut self, incoming: Classification<I::Summary>) {
        self.receive_batch(std::iter::once(incoming));
    }

    /// Takes the node's entire classification, leaving it empty — a
    /// graceful retirement's handoff. The caller owns every grain now;
    /// a failed handoff must [`receive`](Self::receive) them back.
    pub fn take_classification(&mut self) -> Classification<I::Summary> {
        std::mem::take(&mut self.classification)
    }

    /// Re-reads the node's sensor: decays the current classification by
    /// the exact fraction `decay_num / decay_den` (the forgetting window
    /// of a dynamic workload) and injects a fresh unit-weight collection
    /// built from the new reading, then repartitions.
    ///
    /// Returns `(injected, forgotten)` grain counts, both integer-exact,
    /// so the caller's conservation ledger can extend its balance to
    /// `final = initial + gains + injected − losses − forgotten`.
    pub fn refresh_reading(
        &mut self,
        val: &I::Value,
        quantum: Quantum,
        decay_num: u64,
        decay_den: u64,
    ) -> (u64, u64) {
        let forgotten = self.classification.decay(decay_num, decay_den);
        let summary = self.instance.val_to_summary(val);
        let unit = quantum.unit();
        let mut big = self.classification.take_with_room(1);
        big.push(Collection::new(summary, unit));
        self.repartition(big);
        (unit.grains(), forgotten)
    }

    /// Handles several incoming classifications at once, running
    /// `partition` a single time for the entire accumulated set — the
    /// batching the paper's simulations use when a node hears from multiple
    /// neighbors in one round.
    pub fn receive_batch(
        &mut self,
        incoming: impl IntoIterator<Item = Classification<I::Summary>>,
    ) {
        let mut incoming = incoming.into_iter();
        let Some(first) = incoming.next() else {
            return;
        };
        // The union: the node's collections, then each message's. Room is
        // sized as if every message carried as many as the first.
        let room = first.len() * (1 + incoming.size_hint().0);
        let mut big = self.classification.take_with_room(room);
        big.absorb(first);
        for c in incoming {
            big.absorb(c);
        }
        self.repartition(big);
    }

    /// Partitions the union `big` and merges each group into the node's
    /// (empty) classification, in group order.
    fn repartition(&mut self, big: Classification<I::Summary>) {
        let mut groups = self.instance.partition(&big);
        validate_groups::<I>(&self.instance, &big, &groups);

        // Each group's result lands on the slot of its first member. A
        // group reads only its own members and the slots are distinct, so
        // no group reads a slot another group has overwritten.
        let mut collections = big.into_collections();
        for group in &groups {
            if let [home, _, ..] = group[..] {
                collections[home] = merge_group(self.instance.as_ref(), &collections, group);
            }
        }
        // Move the results out in group order. `swap_remove` refills the
        // slot with the last one, so a later group homed there follows it.
        for j in 0..groups.len() {
            let home = groups[j][0];
            let last = collections.len() - 1;
            self.classification.push(collections.swap_remove(home));
            if let Some(later) = groups[j + 1..].iter_mut().find(|g| g[0] == last) {
                later[0] = home;
            }
        }
    }
}

/// The collection a group of `collections` merges into: `mergeSet` of the
/// members' summaries, their summed weight and auxiliary vectors.
fn merge_group<I: Instance>(
    instance: &I,
    collections: &[Collection<I::Summary>],
    group: &[usize],
) -> Collection<I::Summary> {
    let summary = with_parts(collections, group.iter().copied(), |parts| {
        instance.merge_set(parts)
    });
    let weight: Weight = group.iter().map(|&i| collections[i].weight).sum();
    match merge_aux(group.iter().map(|&i| &collections[i])) {
        Some(aux) => Collection::with_aux(summary, weight, aux),
        None => Collection::new(summary, weight),
    }
}

fn merge_aux<'a, S: 'a>(
    mut members: impl Iterator<Item = &'a Collection<S>>,
) -> Option<MixtureVector> {
    let mut acc = members.next()?.aux.clone()?;
    for m in members {
        acc.add_assign(m.aux.as_ref()?);
    }
    Some(acc)
}

fn validate_groups<I: Instance>(
    instance: &I,
    big: &Classification<I::Summary>,
    groups: &[Vec<usize>],
) {
    assert!(
        groups.len() <= instance.k(),
        "partition produced {} groups, k = {}",
        groups.len(),
        instance.k()
    );
    // Indices seen so far: a bitmask up to 64 collections, flags above.
    let mut bits = 0u64;
    let mut flags = if big.len() > 64 {
        vec![false; big.len()]
    } else {
        Vec::new()
    };
    let mut covered = 0;
    for g in groups {
        assert!(!g.is_empty(), "partition produced an empty group");
        for &i in g {
            assert!(i < big.len(), "partition index {i} out of range");
            let repeat = if flags.is_empty() {
                let bit = 1u64 << i;
                let seen = bits & bit != 0;
                bits |= bit;
                seen
            } else {
                std::mem::replace(&mut flags[i], true)
            };
            assert!(!repeat, "partition assigned index {i} twice");
            covered += 1;
        }
    }
    // Every index is in range and seen once, so a full count is a cover.
    assert!(
        covered == big.len(),
        "partition did not cover all collections"
    );
    if groups.len() > 1 {
        for g in groups {
            assert!(
                !(g.len() == 1 && big.collection(g[0]).weight.is_quantum()),
                "partition left a quantum-weight collection alone"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centroid::CentroidInstance;
    use distclass_linalg::Vector;

    fn node(inst: &Arc<CentroidInstance>, x: f64) -> ClassifierNode<CentroidInstance> {
        ClassifierNode::new(Arc::clone(inst), &Vector::from([x]), Quantum::new(8))
    }

    #[test]
    fn initial_state_is_own_value() {
        let inst = Arc::new(CentroidInstance::new(3).unwrap());
        let n = node(&inst, 2.5);
        assert_eq!(n.classification().len(), 1);
        let c = n.classification().collection(0);
        assert_eq!(c.weight.grains(), 8);
        assert_eq!(c.summary.as_slice(), &[2.5]);
    }

    #[test]
    fn split_then_receive_conserves_weight() {
        let inst = Arc::new(CentroidInstance::new(3).unwrap());
        let mut a = node(&inst, 0.0);
        let mut b = node(&inst, 1.0);
        let msg = a.split_for_send();
        assert_eq!(msg.total_weight().grains(), 4);
        assert_eq!(a.classification().total_weight().grains(), 4);
        b.receive(msg);
        assert_eq!(b.classification().total_weight().grains(), 12);
    }

    #[test]
    fn k_bound_forces_merging() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let mut target = node(&inst, 0.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            let mut peer = node(&inst, x);
            target.receive(peer.split_for_send());
        }
        assert!(target.classification().len() <= 2);
        // All weight accounted for: own 8 + 4 × 4 sent halves.
        assert_eq!(target.classification().total_weight().grains(), 24);
    }

    #[test]
    fn receive_batch_partitions_once() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let mut target = node(&inst, 0.0);
        let msgs: Vec<_> = [10.0, 20.0, 30.0]
            .iter()
            .map(|&x| node(&inst, x).split_for_send())
            .collect();
        target.receive_batch(msgs);
        assert!(target.classification().len() <= 2);
        assert_eq!(target.classification().total_weight().grains(), 8 + 3 * 4);
    }

    #[test]
    fn receive_batch_empty_is_noop() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let mut n = node(&inst, 1.0);
        let before = n.classification().clone();
        n.receive_batch(Vec::new());
        assert_eq!(n.classification(), &before);
    }

    #[test]
    fn refresh_reading_balances_injected_against_forgotten() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let q = Quantum::new(8);
        let mut n = node(&inst, 0.0);
        let before = n.classification().total_weight().grains();
        let (injected, forgotten) = n.refresh_reading(&Vector::from([5.0]), q, 1, 2);
        assert_eq!(injected, 8);
        assert_eq!(forgotten, 4);
        assert_eq!(
            n.classification().total_weight().grains(),
            before + injected - forgotten
        );
        // The fresh reading dominates: the heaviest centroid sits at 5.
        let heavy = n.classification().heaviest().unwrap();
        let c = n.classification().collection(heavy);
        assert!((c.summary.as_slice()[0] - 5.0).abs() < 2.0);
    }

    #[test]
    fn refresh_reading_with_full_decay_replaces_state() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let q = Quantum::new(8);
        let mut n = node(&inst, 0.0);
        let (injected, forgotten) = n.refresh_reading(&Vector::from([9.0]), q, 1, 1);
        assert_eq!(injected, 8);
        assert_eq!(forgotten, 8);
        assert_eq!(n.classification().len(), 1);
        assert_eq!(n.classification().collection(0).summary.as_slice(), &[9.0]);
    }

    #[test]
    fn from_classification_restores_state_verbatim() {
        let inst = Arc::new(CentroidInstance::new(3).unwrap());
        let mut a = node(&inst, 2.0);
        let mut b = node(&inst, 5.0);
        a.receive(b.split_for_send());
        let snapshot = a.classification().clone();
        let restored = ClassifierNode::from_classification(Arc::clone(&inst), snapshot.clone());
        assert_eq!(restored.classification(), &snapshot);
        assert_eq!(
            restored.classification().total_weight().grains(),
            a.classification().total_weight().grains()
        );
    }

    #[test]
    fn audited_node_carries_basis_vector() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let n = ClassifierNode::new_audited(inst, &Vector::from([1.0]), Quantum::new(8), 5, 3);
        let aux = n.classification().collection(0).aux.as_ref().unwrap();
        assert_eq!(aux.component(3), 1.0);
        assert_eq!(aux.norm_l1(), 1.0);
    }

    #[test]
    fn aux_flows_through_split_and_merge() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let q = Quantum::new(8);
        let mut a = ClassifierNode::new_audited(Arc::clone(&inst), &Vector::from([0.0]), q, 2, 0);
        let mut b = ClassifierNode::new_audited(inst, &Vector::from([0.1]), q, 2, 1);
        let msg = a.split_for_send();
        b.receive(msg);
        // With k=2 and close values the partition may or may not merge; the
        // total aux over b's collections must equal e1 + 0.5 e0.
        let mut total = MixtureVector::zeros(2);
        for c in b.classification().iter() {
            total.add_assign(c.aux.as_ref().unwrap());
        }
        assert!((total.component(0) - 0.5).abs() < 1e-12);
        assert!((total.component(1) - 1.0).abs() < 1e-12);
    }
}
