use std::fmt;

use crate::mixture::MixtureVector;
use crate::weight::Weight;

/// A collection as the algorithm stores it: a summary, the collection's
/// quantized weight, and (optionally) the auxiliary mixture-space vector of
/// §4.2 used to audit the run.
///
/// The paper overloads the word *collection* for both the abstract set of
/// weighted values and its summary–weight representation; this type is the
/// latter. The underlying value set is never materialized — that is the
/// whole point of the algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Collection<S> {
    /// The application-specific summary of the underlying weighted values.
    pub summary: S,
    /// The collection's total weight (a multiple of the quantum `q`).
    pub weight: Weight,
    /// Auxiliary mixture vector (`None` outside audited runs).
    pub aux: Option<MixtureVector>,
}

impl<S> Collection<S> {
    /// Creates a collection without auxiliary tracking.
    pub fn new(summary: S, weight: Weight) -> Self {
        Collection {
            summary,
            weight,
            aux: None,
        }
    }

    /// Creates a collection with an auxiliary mixture vector.
    pub fn with_aux(summary: S, weight: Weight, aux: MixtureVector) -> Self {
        Collection {
            summary,
            weight,
            aux: Some(aux),
        }
    }
}

impl<S: Clone> Collection<S> {
    /// Halves this collection in place per the paper's `half` function
    /// and returns the sent half, which carries a clone of the summary;
    /// the auxiliary vector (if any) is scaled by the same ratios.
    ///
    /// Returns `None`, and keeps the whole weight, when the collection's
    /// weight is a single grain (nothing can be sent without violating
    /// quantization).
    pub fn split_off_half(&mut self) -> Option<Collection<S>> {
        let (keep_w, send_w) = self.weight.split();
        let ratio = if self.weight.is_zero() {
            0.5
        } else {
            keep_w.grains() as f64 / self.weight.grains() as f64
        };
        let sent = (!send_w.is_zero()).then(|| Collection {
            summary: self.summary.clone(),
            weight: send_w,
            aux: self.aux.as_ref().map(|a| a.scaled(1.0 - ratio)),
        });
        self.weight = keep_w;
        if let Some(aux) = self.aux.as_mut() {
            *aux = aux.scaled(ratio);
        }
        sent
    }
}

/// How many `merge_set` parts [`with_parts`] gathers without allocating.
const PARTS_INLINE: usize = 16;

/// Calls `f` with the `(summary, grains)` pairs of `collections[i]` for
/// each `i` of `members`, in that order — the argument
/// `Instance::merge_set` takes. Up to [`PARTS_INLINE`] pairs are gathered
/// on the stack; longer member lists spill to a `Vec`.
///
/// # Panics
///
/// Panics if a member index is out of range.
pub(crate) fn with_parts<S, R>(
    collections: &[Collection<S>],
    mut members: impl Iterator<Item = usize>,
    f: impl FnOnce(&[(&S, f64)]) -> R,
) -> R {
    let part = |i: usize| {
        let c = &collections[i];
        (&c.summary, c.weight.grains() as f64)
    };
    let Some(first) = members.next() else {
        return f(&[]);
    };
    let mut buf = [part(first); PARTS_INLINE];
    let mut len = 1;
    while let Some(i) = members.next() {
        if len == PARTS_INLINE {
            let mut parts = buf.to_vec();
            parts.push(part(i));
            parts.extend(members.map(part));
            return f(&parts);
        }
        buf[len] = part(i);
        len += 1;
    }
    f(&buf[..len])
}

impl<S: fmt::Display> fmt::Display for Collection<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.summary, self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_conserves_weight_and_aux() {
        let c = Collection::with_aux("s", Weight::from_grains(5), MixtureVector::basis(2, 0));
        let mut kept = c.clone();
        let sent = kept.split_off_half().unwrap();
        assert_eq!(kept.weight + sent.weight, c.weight);
        assert_eq!(kept.summary, "s");
        assert_eq!(sent.summary, "s");
        let total = kept.aux.unwrap().plus(&sent.aux.unwrap());
        assert!((total.component(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_of_single_grain_sends_nothing() {
        let mut kept: Collection<&str> = Collection::new("s", Weight::from_grains(1));
        let sent = kept.split_off_half();
        assert!(sent.is_none());
        assert_eq!(kept.weight.grains(), 1);
    }

    #[test]
    fn aux_ratio_matches_weight_ratio() {
        let mut kept = Collection::with_aux((), Weight::from_grains(3), MixtureVector::basis(1, 0));
        let sent = kept.split_off_half();
        // keep = 2 grains of 3 → aux scaled by 2/3.
        assert!((kept.aux.unwrap().component(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((sent.unwrap().aux.unwrap().component(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_shows_summary_and_weight() {
        let c = Collection::new(42, Weight::from_grains(2));
        assert_eq!(format!("{c}"), "⟨42, 2g⟩");
    }
}
