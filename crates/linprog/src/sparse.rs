//! Compressed sparse column (CSC) matrices: the storage of the
//! standard-form constraint matrix ([`crate::standard::StandardForm`]).
//!
//! The HTA relaxation matrix is extremely sparse — every variable appears
//! in one assignment row and at most one capacity row — so a dense
//! `m × n` matrix wastes both memory (zeros) and time (dense column
//! gathers during pricing). [`CscMatrix`] stores only the nonzeros,
//! column-major; the revised simplex reads it directly, and the dense
//! backends materialise it once with [`CscMatrix::to_dense`].

use crate::matrix::Matrix;

/// A sparse matrix in compressed-sparse-column form.
///
/// Row indices within each column are strictly increasing; values may be
/// zero only if explicitly stored (builders here never store zeros).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j + 1]` indexes column `j`'s entries.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CscMatrix {
    /// Builds from per-column `(row, value)` lists. Entries with a zero
    /// value are dropped; rows within a column must be strictly
    /// increasing.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or non-increasing row index.
    #[must_use]
    pub fn from_columns(nrows: usize, columns: &[Vec<(usize, f64)>]) -> CscMatrix {
        let ncols = columns.len();
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_idx = Vec::new();
        let mut vals = Vec::new();
        col_ptr.push(0);
        for col in columns {
            let mut prev: Option<usize> = None;
            for &(r, v) in col {
                assert!(r < nrows, "row {r} out of range ({nrows} rows)");
                assert!(
                    prev.is_none_or(|p| r > p),
                    "rows within a column must be strictly increasing"
                );
                prev = Some(r);
                if v != 0.0 {
                    row_idx.push(r);
                    vals.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            vals,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Column `j` as parallel `(rows, values)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.vals[s..e])
    }

    /// Sparse dot product of column `j` with a dense vector.
    #[must_use]
    pub fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &v)| y[r] * v).sum()
    }

    /// Scatters column `j` into a dense vector (overwriting only the
    /// column's nonzero rows; the caller zeroes the buffer).
    pub fn scatter_col(&self, j: usize, out: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            out[r] = v;
        }
    }

    /// The same matrix stored densely (unstored entries are `+0.0`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no rows or no columns.
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut dense = Matrix::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                dense[(r, j)] = v;
            }
        }
        dense
    }

    /// `Aᵀ y`: one sparse dot per column.
    #[must_use]
    pub fn transpose_mul_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.nrows);
        (0..self.ncols).map(|j| self.col_dot(j, y)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csc_round_trips_columns() {
        let cols = vec![
            vec![(0, 1.0), (2, -3.0)],
            vec![],
            vec![(1, 2.0), (2, 0.0)], // explicit zero dropped
        ];
        let a = CscMatrix::from_columns(3, &cols);
        assert_eq!((a.nrows(), a.ncols(), a.nnz()), (3, 3, 3));
        assert_eq!(a.col(0), (&[0usize, 2][..], &[1.0, -3.0][..]));
        assert_eq!(a.col(1), (&[][..], &[][..]));
        assert_eq!(a.col(2), (&[1usize][..], &[2.0][..]));
        assert_eq!(a.col_dot(0, &[1.0, 1.0, 2.0]), 1.0 - 6.0);
        let mut dense = vec![0.0; 3];
        a.scatter_col(0, &mut dense);
        assert_eq!(dense, vec![1.0, 0.0, -3.0]);
        let full = a.to_dense();
        for j in 0..3 {
            let mut col = vec![0.0; 3];
            a.scatter_col(j, &mut col);
            for i in 0..3 {
                assert_eq!(full[(i, j)].to_bits(), col[i].to_bits(), "entry ({i}, {j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn csc_rejects_unsorted_rows() {
        let _ = CscMatrix::from_columns(3, &[vec![(2, 1.0), (0, 1.0)]]);
    }
}
