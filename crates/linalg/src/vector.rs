use std::fmt;
use std::ops::{Add, AddAssign, Deref, DerefMut, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::LinalgError;

/// Dimensions up to this size are stored inline, without a heap
/// allocation. Every workload in the paper has `d ≤ 4`.
const INLINE_CAP: usize = 4;

/// The components of a [`Vector`]: inline for `d ≤ INLINE_CAP`, on the
/// heap above. A vector of dimension `≤ INLINE_CAP` is always `Inline`.
#[derive(Clone)]
enum Storage {
    Inline { len: u8, buf: [f64; INLINE_CAP] },
    Heap(Vec<f64>),
}

impl Storage {
    fn from_slice(data: &[f64]) -> Self {
        if data.len() <= INLINE_CAP {
            let mut buf = [0.0; INLINE_CAP];
            buf[..data.len()].copy_from_slice(data);
            Storage::Inline {
                len: data.len() as u8,
                buf,
            }
        } else {
            Storage::Heap(data.to_vec())
        }
    }

    fn from_vec(data: Vec<f64>) -> Self {
        if data.len() <= INLINE_CAP {
            Storage::from_slice(&data)
        } else {
            Storage::Heap(data)
        }
    }

    fn filled(dim: usize, value: f64) -> Self {
        if dim <= INLINE_CAP {
            let mut buf = [0.0; INLINE_CAP];
            buf[..dim].fill(value);
            Storage::Inline {
                len: dim as u8,
                buf,
            }
        } else {
            Storage::Heap(vec![value; dim])
        }
    }
}

impl Default for Storage {
    fn default() -> Self {
        Storage::Inline {
            len: 0,
            buf: [0.0; INLINE_CAP],
        }
    }
}

impl FromIterator<f64> for Storage {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        let mut buf = [0.0; INLINE_CAP];
        let mut len = 0;
        while let Some(x) = iter.next() {
            if len == INLINE_CAP {
                let mut data = Vec::with_capacity(INLINE_CAP + 1 + iter.size_hint().0);
                data.extend_from_slice(&buf);
                data.push(x);
                data.extend(iter);
                return Storage::Heap(data);
            }
            buf[len] = x;
            len += 1;
        }
        Storage::Inline {
            len: len as u8,
            buf,
        }
    }
}

impl Deref for Storage {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            Storage::Inline { len, buf } => &buf[..usize::from(*len)],
            Storage::Heap(data) => data,
        }
    }
}

impl DerefMut for Storage {
    fn deref_mut(&mut self) -> &mut [f64] {
        match self {
            Storage::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Storage::Heap(data) => data,
        }
    }
}

/// A dense `d`-dimensional real vector.
///
/// `Vector` is the value type used for sensor readings, centroids and
/// Gaussian means throughout the workspace. Arithmetic is implemented for
/// borrowed operands so vectors are not consumed by expressions.
/// Vectors of dimension at most 4 keep their components inline, so
/// creating, cloning and dropping them never touches the heap.
///
/// # Panics
///
/// Binary arithmetic operators panic on dimension mismatch; fallible
/// checked variants ([`Vector::checked_add`], …) return a [`LinalgError`]
/// instead.
///
/// # Example
///
/// ```
/// use distclass_linalg::Vector;
///
/// let a = Vector::from(vec![1.0, 2.0]);
/// let b = Vector::from(vec![3.0, 4.0]);
/// assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
/// assert_eq!(a.dot(&b), 11.0);
/// ```
#[derive(Clone, Default)]
pub struct Vector {
    data: Storage,
}

impl Vector {
    /// Creates a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Vector::filled(dim, 0.0)
    }

    /// Creates a vector filled with `value`.
    pub fn filled(dim: usize, value: f64) -> Self {
        Vector {
            data: Storage::filled(dim, value),
        }
    }

    /// Creates the `i`-th standard basis vector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn basis(dim: usize, i: usize) -> Self {
        assert!(i < dim, "basis index {i} out of range for dimension {dim}");
        let mut v = Vector::zeros(dim);
        v.data[i] = 1.0;
        v
    }

    /// The dimension of the vector.
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has dimension zero.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A borrowed view of the components.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A mutable borrowed view of the components.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, returning its components as a `Vec`.
    pub fn into_inner(self) -> Vec<f64> {
        match self.data {
            Storage::Inline { .. } => self.data.to_vec(),
            Storage::Heap(data) => data,
        }
    }

    /// Iterates over components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// The dot product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dot: dimension mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// The Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// The L1 norm (sum of absolute component values).
    pub fn norm_l1(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).sum()
    }

    /// The L∞ norm (largest absolute component).
    pub fn norm_linf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Euclidean distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn distance(&self, other: &Vector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "distance: dimension mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Returns `self * s` without consuming `self`.
    pub fn scaled(&self, s: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Scales the vector in place.
    pub fn scale(&mut self, s: f64) {
        for x in self.data.iter_mut() {
            *x *= s;
        }
    }

    /// `self += alpha * other` (BLAS axpy).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(self.dim(), other.dim(), "axpy: dimension mismatch");
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn checked_add(&self, other: &Vector) -> Result<Vector, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        Ok(self + other)
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn checked_sub(&self, other: &Vector) -> Result<Vector, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        Ok(self - other)
    }

    /// Returns `true` when every component differs from `other` by at most
    /// `tol` in absolute value.
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.dim() == other.dim()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Returns `true` if all components are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector {
            data: Storage::from_vec(data),
        }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: Storage::from_slice(data),
        }
    }
}

impl<const N: usize> From<[f64; N]> for Vector {
    fn from(data: [f64; N]) -> Self {
        Vector {
            data: Storage::from_slice(&data),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.dim(), rhs.dim(), "add: dimension mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.dim(), rhs.dim(), "sub: dimension mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, s: f64) -> Vector {
        self.scaled(s)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl PartialEq for Vector {
    fn eq(&self, other: &Vector) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Prints as `Vector { data: [..] }`, the same text whatever the storage.
impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vector")
            .field("data", &self.as_slice())
            .finish()
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_basis() {
        let z = Vector::zeros(3);
        assert_eq!(z.dim(), 3);
        assert_eq!(z.norm(), 0.0);
        let e1 = Vector::basis(3, 1);
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0]);
        assert_eq!(e1.norm(), 1.0);
    }

    #[test]
    #[should_panic(expected = "basis index")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(2, 2);
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from([1.0, 2.0, 3.0]);
        let b = Vector::from([4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0, -3.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn assign_ops() {
        let mut a = Vector::from([1.0, 1.0]);
        a += &Vector::from([2.0, 3.0]);
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
        a -= &Vector::from([1.0, 1.0]);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        a.axpy(2.0, &Vector::from([1.0, 0.0]));
        assert_eq!(a.as_slice(), &[4.0, 3.0]);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn norms_and_distance() {
        let a = Vector::from([3.0, -4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_l1(), 7.0);
        assert_eq!(a.norm_linf(), 4.0);
        let b = Vector::from([0.0, 0.0]);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn checked_ops_report_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert_eq!(
            a.checked_add(&b),
            Err(LinalgError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        );
        assert_eq!(
            a.checked_sub(&b),
            Err(LinalgError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        );
        assert!(a.checked_add(&Vector::zeros(2)).is_ok());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Vector::from([1.0, 2.0]);
        let b = Vector::from([1.0 + 1e-9, 2.0 - 1e-9]);
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
        assert!(!a.approx_eq(&Vector::zeros(3), 1.0));
    }

    #[test]
    fn display_formats_components() {
        let a = Vector::from([1.0, -2.5]);
        assert_eq!(format!("{a}"), "[1.000000, -2.500000]");
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut v = Vector::zeros(2);
        assert!(v.is_finite());
        v[0] = f64::NAN;
        assert!(!v.is_finite());
    }

    /// Components `1.5, -2.5, 3.5, …` of a `d`-vector, distinct per slot.
    fn components(d: usize) -> Vec<f64> {
        (0..d)
            .map(|i| (i as f64 + 1.5) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect()
    }

    /// Every constructor, across the inline/heap boundary.
    #[test]
    fn constructors_agree_on_both_sides_of_the_inline_boundary() {
        let arrays: [Vector; 7] = [
            Vector::from([0.0; 0]),
            Vector::from([1.5]),
            Vector::from([1.5, -2.5]),
            Vector::from([1.5, -2.5, 3.5]),
            Vector::from([1.5, -2.5, 3.5, -4.5]),
            Vector::from([1.5, -2.5, 3.5, -4.5, 5.5]),
            Vector::from([1.5, -2.5, 3.5, -4.5, 5.5, -6.5]),
        ];
        for (d, from_array) in arrays.iter().enumerate() {
            let c = components(d);
            let from_vec = Vector::from(c.clone());
            let from_slice = Vector::from(c.as_slice());
            let collected: Vector = c.iter().copied().collect();
            for v in [&from_vec, &from_slice, &collected, from_array] {
                assert_eq!(v.dim(), d);
                assert_eq!(v.as_slice(), c.as_slice(), "d = {d}");
                assert_eq!(v.is_empty(), d == 0);
                assert_eq!(v, &from_vec);
                assert_eq!(v.clone(), from_vec);
                assert_eq!(v.iter().copied().collect::<Vec<_>>(), c);
            }

            assert_eq!(Vector::zeros(d).as_slice(), vec![0.0; d].as_slice());
            assert_eq!(Vector::zeros(d), Vector::from(vec![0.0; d]));
            assert_eq!(Vector::filled(d, 2.5).as_slice(), vec![2.5; d].as_slice());
            for i in 0..d {
                let mut e = vec![0.0; d];
                e[i] = 1.0;
                assert_eq!(Vector::basis(d, i), Vector::from(e));
            }

            let other = Vector::from(components(d).iter().map(|x| x * 0.25).collect::<Vec<_>>());
            let sum: Vec<f64> = c.iter().zip(other.iter()).map(|(a, b)| a + b).collect();
            let diff: Vec<f64> = c.iter().zip(other.iter()).map(|(a, b)| a - b).collect();
            let scaled: Vec<f64> = c.iter().map(|x| x * -3.0).collect();
            assert_eq!((&from_vec + &other).as_slice(), sum.as_slice());
            assert_eq!((&from_vec - &other).as_slice(), diff.as_slice());
            assert_eq!(from_vec.scaled(-3.0).as_slice(), scaled.as_slice());
            assert_eq!((&from_vec * -3.0).as_slice(), scaled.as_slice());
            let mut acc = from_vec.clone();
            acc += &other;
            assert_eq!(acc.as_slice(), sum.as_slice());
            acc.as_mut_slice().fill(7.0);
            assert_eq!(acc, Vector::filled(d, 7.0));
        }
        assert_ne!(Vector::zeros(4), Vector::zeros(5));
        assert_eq!(Vector::default(), Vector::zeros(0));
    }

    #[test]
    fn into_inner_round_trips_every_dimension() {
        for d in 0..=6 {
            let c = components(d);
            assert_eq!(Vector::from(c.clone()).into_inner(), c);
            assert_eq!(Vector::from(c.as_slice()).into_inner(), c);
            assert_eq!(Vector::zeros(d).into_inner(), vec![0.0; d]);
        }
    }

    /// `Debug` keeps the text of the former `#[derive(Debug)]` over a
    /// `data: Vec<f64>` field; `Display` is unchanged too.
    #[test]
    fn debug_and_display_text_is_storage_independent() {
        for d in 0..=6 {
            let c = components(d);
            let v = Vector::from(c.clone());
            assert_eq!(format!("{v:?}"), format!("Vector {{ data: {c:?} }}"));
            assert_eq!(
                format!("{v:#?}"),
                format!(
                    "Vector {{\n    data: {},\n}}",
                    format!("{c:#?}").replace('\n', "\n    ")
                )
            );
            let shown: Vec<String> = c.iter().map(|x| format!("{x:.6}")).collect();
            assert_eq!(format!("{v}"), format!("[{}]", shown.join(", ")));
        }
        assert_eq!(
            format!("{:?}", Vector::from([1.0, -2.5])),
            "Vector { data: [1.0, -2.5] }"
        );
    }
}
