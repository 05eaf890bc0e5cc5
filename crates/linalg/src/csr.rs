use crate::{CooMatrix, RateMatrix};

/// A sparse matrix in compressed-sparse-row format.
///
/// `CsrMatrix` is the flat representation used for explicit CTMC analysis and
/// for the optimal state-level lumping baseline. Entries within a row are
/// sorted by column and duplicate-free (guaranteed by construction via
/// [`CooMatrix::to_csr`]).
///
/// # Example
///
/// ```
/// use mdl_linalg::{CooMatrix, CsrMatrix};
///
/// let mut coo = CooMatrix::new(2, 3);
/// coo.push(0, 2, 1.0);
/// coo.push(1, 0, 3.0);
/// let m: CsrMatrix = coo.to_csr();
/// assert_eq!(m.row(1).collect::<Vec<_>>(), vec![(0, 3.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a matrix directly from raw CSR arrays.
    ///
    /// This is intended for format converters; most callers should assemble
    /// a [`CooMatrix`] and convert.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are structurally inconsistent.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr length must be nrows + 1");
        assert_eq!(col_idx.len(), values.len(), "col_idx and values must align");
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr must cover all entries"
        );
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(col_idx.iter().all(|&c| (c as usize) < ncols));
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Creates an empty (all-zero) matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates the `n` × `n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the value at `(row, col)`, or `0.0` when not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        match self.col_idx[lo..hi].binary_search(&(col as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored entries of one row as `(col, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Sum of each row (`rs(A)` in the paper's notation, as a vector).
    pub fn row_sums_vec(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.nrows];
        for (r, s) in sums.iter_mut().enumerate() {
            *s = self.row(r).map(|(_, v)| v).sum();
        }
        sums
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.col_idx {
            counts[c as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.ncols + 1);
        row_ptr.push(0);
        for c in 0..self.ncols {
            row_ptr.push(row_ptr[c] + counts[c]);
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for (r, c, v) in self.iter() {
            let slot = next[c];
            col_idx[slot] = r as u32;
            values[slot] = v;
            next[c] += 1;
        }
        CsrMatrix::from_raw_parts(self.ncols, self.nrows, row_ptr, col_idx, values)
    }

    /// Converts back to coordinate format.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        coo.extend(self.iter());
        coo
    }

    /// Approximate memory footprint of the matrix in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Maximum absolute difference between two matrices of equal dimensions.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn max_abs_diff(&self, other: &CsrMatrix) -> f64 {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        let mut diff: f64 = 0.0;
        for r in 0..self.nrows {
            let mut a: std::collections::HashMap<usize, f64> = self.row(r).collect();
            for (c, v) in other.row(r) {
                let e = a.entry(c).or_insert(0.0);
                *e -= v;
            }
            for (_, v) in a {
                diff = diff.max(v.abs());
            }
        }
        diff
    }
}

impl RateMatrix for CsrMatrix {
    fn num_states(&self) -> usize {
        debug_assert_eq!(self.nrows, self.ncols, "rate matrices are square");
        self.nrows
    }

    fn acc_mat_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yr += acc;
        }
    }

    fn acc_vec_mat(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows);
        assert_eq!(y.len(), self.ncols);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                y[self.col_idx[k] as usize] += self.values[k] * xr;
            }
        }
    }

    fn row_sums(&self) -> Vec<f64> {
        self.row_sums_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 2.0);
        coo.push(0, 2, 3.0);
        coo.push(1, 0, 1.0);
        coo.push(2, 2, 4.0);
        coo.to_csr()
    }

    #[test]
    fn get_present_and_absent() {
        let m = sample();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 2), 4.0);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let id = CsrMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        id.acc_mat_vec(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn mat_vec_and_vec_mat_agree_with_transpose() {
        let m = sample();
        let t = m.transpose();
        let x = vec![1.0, -2.0, 0.5];
        let mut y1 = vec![0.0; 3];
        m.acc_vec_mat(&x, &mut y1); // y1 = x M
        let mut y2 = vec![0.0; 3];
        t.acc_mat_vec(&x, &mut y2); // y2 = M^T x = (x M)^T
        assert_eq!(y1, y2);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn row_sums_match_manual() {
        let m = sample();
        assert_eq!(m.row_sums_vec(), vec![5.0, 1.0, 4.0]);
    }

    #[test]
    fn max_abs_diff_zero_for_equal() {
        let m = sample();
        assert_eq!(m.max_abs_diff(&m), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let m = sample();
        let mut coo = m.to_coo();
        coo.push(1, 1, 0.25);
        let n = coo.to_csr();
        assert_eq!(m.max_abs_diff(&n), 0.25);
    }

    #[test]
    fn memory_bytes_positive() {
        assert!(sample().memory_bytes() > 0);
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::zeros(3, 2);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.get(2, 1), 0.0);
    }
}
