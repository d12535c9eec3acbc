//! Flat, cache-friendly storage for sets of dense `f32` vectors.
//!
//! A [`VectorSet`] stores `n` vectors of a fixed dimension `dim` contiguously
//! in one `Vec<f32>` (structure-of-arrays at the vector granularity). All
//! indexes handed around the workspace are `u32` row ids into a `VectorSet`.

use std::fmt;

/// A set of dense vectors with a fixed dimension, stored contiguously.
///
/// Row `i` occupies `data[i*dim .. (i+1)*dim]`. The contiguous layout keeps
/// brute-force scans and index construction memory-bandwidth friendly, which
/// matters for the distance kernels in [`crate::metric`].
#[derive(Clone, PartialEq)]
pub struct VectorSet {
    dim: usize,
    data: Vec<f32>,
}

impl VectorSet {
    /// Creates an empty set of vectors of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty set with capacity for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Builds a set from a flat buffer of length `n*dim`.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim` or `dim == 0`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        Self { dim, data }
    }

    /// Builds a set from row slices; all rows must share one dimension.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let dim = rows[0].len();
        let mut out = Self::with_capacity(dim, rows.len());
        for r in rows {
            out.push(r);
        }
        out
    }

    /// Number of vectors stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// `true` when no vectors are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The common dimension of every vector in the set.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows vector `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &[f32] {
        let s = i * self.dim;
        &self.data[s..s + self.dim]
    }

    /// Mutably borrows vector `i`.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut [f32] {
        let s = i * self.dim;
        &mut self.data[s..s + self.dim]
    }

    /// Appends one vector.
    ///
    /// # Panics
    /// Panics if `v.len() != dim()`.
    #[inline]
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "pushed vector has wrong dimension");
        self.data.extend_from_slice(v);
    }

    /// Iterates over the rows in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// The underlying flat buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Returns a new set containing the rows selected by `ids`, in order.
    ///
    /// This is the primitive used to materialise data partitions.
    pub fn gather(&self, ids: &[u32]) -> VectorSet {
        let mut out = VectorSet::with_capacity(self.dim, ids.len());
        for &id in ids {
            out.push(self.get(id as usize));
        }
        out
    }

    /// Splits the set into `parts` nearly-equal contiguous chunks.
    ///
    /// The first `len % parts` chunks receive one extra row, matching the
    /// initial equi-partitioning of the dataset across processes in the
    /// paper's Section IV.
    pub fn split_even(&self, parts: usize) -> Vec<VectorSet> {
        assert!(parts > 0, "cannot split into zero parts");
        let n = self.len();
        let base = n / parts;
        let extra = n % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 0..parts {
            let sz = base + usize::from(p < extra);
            let mut vs = VectorSet::with_capacity(self.dim, sz);
            for i in start..start + sz {
                vs.push(self.get(i));
            }
            start += sz;
            out.push(vs);
        }
        out
    }

    /// In-place Euclidean normalisation of every row; zero rows are left
    /// untouched. Used by the DEEP1B-style generator (CNN descriptors are
    /// unit-normalised).
    pub fn normalize_l2(&mut self) {
        let dim = self.dim;
        for row in self.data.chunks_exact_mut(dim) {
            let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                for x in row.iter_mut() {
                    *x /= norm;
                }
            }
        }
    }

    /// Per-dimension (min, max) bounds over all rows; `None` when empty.
    pub fn bounds(&self) -> Option<(Vec<f32>, Vec<f32>)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = self.get(0).to_vec();
        let mut hi = lo.clone();
        for row in self.iter().skip(1) {
            for (d, &x) in row.iter().enumerate() {
                if x < lo[d] {
                    lo[d] = x;
                }
                if x > hi[d] {
                    hi[d] = x;
                }
            }
        }
        Some((lo, hi))
    }
}

impl fmt::Debug for VectorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VectorSet")
            .field("len", &self.len())
            .field("dim", &self.dim)
            .finish()
    }
}

impl std::ops::Index<usize> for VectorSet {
    type Output = [f32];
    #[inline]
    fn index(&self, i: usize) -> &[f32] {
        self.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VectorSet {
        VectorSet::from_flat(2, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    }

    #[test]
    fn len_and_dim() {
        let v = sample();
        assert_eq!(v.len(), 3);
        assert_eq!(v.dim(), 2);
        assert!(!v.is_empty());
        assert!(VectorSet::new(4).is_empty());
    }

    #[test]
    fn get_returns_rows() {
        let v = sample();
        assert_eq!(v.get(0), &[0.0, 1.0]);
        assert_eq!(v.get(2), &[4.0, 5.0]);
        assert_eq!(&v[1], &[2.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn get_out_of_bounds_panics() {
        let v = sample();
        let _ = v.get(3);
    }

    #[test]
    #[should_panic]
    fn push_wrong_dim_panics() {
        let mut v = sample();
        v.push(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn from_flat_ragged_panics() {
        let _ = VectorSet::from_flat(2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn push_and_iter() {
        let mut v = VectorSet::new(3);
        v.push(&[1.0, 2.0, 3.0]);
        v.push(&[4.0, 5.0, 6.0]);
        let rows: Vec<_> = v.iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
    }

    #[test]
    fn gather_selects_rows() {
        let v = sample();
        let g = v.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(0), &[4.0, 5.0]);
        assert_eq!(g.get(1), &[0.0, 1.0]);
    }

    #[test]
    fn split_even_distributes_remainder() {
        let mut v = VectorSet::new(1);
        for i in 0..7 {
            v.push(&[i as f32]);
        }
        let parts = v.split_even(3);
        assert_eq!(
            parts.iter().map(VectorSet::len).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        assert_eq!(parts[0].get(2), &[2.0]);
        assert_eq!(parts[2].get(0), &[5.0]);
    }

    #[test]
    fn split_even_more_parts_than_rows() {
        let mut v = VectorSet::new(1);
        v.push(&[1.0]);
        let parts = v.split_even(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 1);
        assert_eq!(parts[1].len(), 0);
    }

    #[test]
    fn normalize_l2_unit_norm() {
        let mut v = VectorSet::from_flat(2, vec![3.0, 4.0, 0.0, 0.0]);
        v.normalize_l2();
        assert!((v.get(0)[0] - 0.6).abs() < 1e-6);
        assert!((v.get(0)[1] - 0.8).abs() < 1e-6);
        // zero row untouched
        assert_eq!(v.get(1), &[0.0, 0.0]);
    }

    #[test]
    fn bounds_cover_all_rows() {
        let v = sample();
        let (lo, hi) = v.bounds().expect("non-empty set has bounds");
        assert_eq!(lo, vec![0.0, 1.0]);
        assert_eq!(hi, vec![4.0, 5.0]);
        assert!(VectorSet::new(2).bounds().is_none());
    }

    #[test]
    fn from_rows_builds() {
        let v = VectorSet::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.dim(), 2);
    }
}
