//! Dense, row-major matrix and the small amount of numerical linear algebra
//! the LP solvers need: products, transposes, Gauss–Jordan inversion and a
//! Cholesky factorization for the interior-point normal equations.
//!
//! The matrices appearing in the MEC assignment LPs are small (a few hundred
//! rows), so a straightforward dense representation is both simpler and —
//! for these sizes — faster than a sparse one.
//!
//! Every kernel is serial: the solvers run one LP per cluster, and the
//! callers parallelize across clusters, not inside one LP.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use linprog::matrix::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.nrows(), 2);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        for r in 0..self.nrows.min(12) {
            write!(f, "  [")?;
            for c in 0..self.ncols.min(12) {
                write!(f, "{:>10.4}", self[(r, c)])?;
                if c + 1 < self.ncols.min(12) {
                    write!(f, ", ")?;
                }
            }
            if self.ncols > 12 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.nrows > 12 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a zero matrix with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        assert!(nrows > 0 && ncols > 0, "matrix dimensions must be nonzero");
        Matrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let ncols = rows[0].len();
        assert!(ncols > 0, "rows must be nonempty");
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Matrix {
            nrows: rows.len(),
            ncols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "shape does not match data");
        Matrix { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Borrow of one row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.ncols;
        &self.data[start..start + self.ncols]
    }

    /// Mutable borrow of one row as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.ncols;
        &mut self.data[start..start + self.ncols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.nrows).map(|r| self[(r, c)]).collect()
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.ncols, self.nrows);
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "dimension mismatch in mul_vec");
        let mut out = vec![0.0; self.nrows];
        for r in 0..self.nrows {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            out[r] = acc;
        }
        out
    }

    /// Transposed matrix–vector product `Aᵀ y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.nrows()`.
    pub fn mul_vec_transposed(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(
            y.len(),
            self.nrows,
            "dimension mismatch in mul_vec_transposed"
        );
        let mut out = vec![0.0; self.ncols];
        for r in 0..self.nrows {
            let row = self.row(r);
            let yr = y[r];
            if yr == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(row.iter()) {
                *o += a * yr;
            }
        }
        out
    }

    /// Matrix–matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul_mat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.ncols, other.nrows, "dimension mismatch in mul_mat");
        let mut out = Matrix::zeros(self.nrows, other.ncols);
        for r in 0..self.nrows {
            let orow = out.row_mut(r);
            for (k, &a) in self.row(r).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, b) in orow.iter_mut().zip(other.row(k).iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Computes `A Θ Aᵀ` for a diagonal matrix `Θ` given by `theta`,
    /// the workhorse of the interior-point normal equations.
    ///
    /// # Panics
    ///
    /// Panics if `theta.len() != self.ncols()`.
    pub fn scaled_gram(&self, theta: &[f64]) -> Matrix {
        assert_eq!(theta.len(), self.ncols, "theta length mismatch");
        let m = self.nrows;
        let mut out = Matrix::zeros(m, m);
        // Upper triangle: out[i][j] = sum_k A[i][k] * theta[k] * A[j][k].
        for i in 0..m {
            let ri = self.row(i);
            for j in i..m {
                let rj = self.row(j);
                let mut acc = 0.0;
                for k in 0..self.ncols {
                    let aik = ri[k];
                    if aik == 0.0 {
                        continue;
                    }
                    acc += aik * theta[k] * rj[k];
                }
                out[(i, j)] = acc;
            }
        }
        // Mirror the strict upper triangle onto the lower one.
        for i in 0..m {
            for j in (i + 1)..m {
                out[(j, i)] = out[(i, j)];
            }
        }
        out
    }

    /// In-place Cholesky factorization `A = L Lᵀ` of a symmetric
    /// positive-definite matrix; returns the lower-triangular factor.
    ///
    /// # Errors
    ///
    /// Returns `None` when the matrix is not (numerically) positive
    /// definite. Callers typically respond by regularizing the diagonal.
    pub fn cholesky(&self) -> Option<Matrix> {
        assert_eq!(self.nrows, self.ncols, "cholesky requires a square matrix");
        let n = self.nrows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solves `L Lᵀ x = b` given the lower-triangular Cholesky factor `L`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = l.nrows;
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Forward substitution: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            let row = l.row(i);
            for k in 0..i {
                sum -= row[k] * y[k];
            }
            y[i] = sum / row[i];
        }
        // Backward substitution: Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        x
    }

    /// Inverts the matrix with Gauss–Jordan elimination and partial
    /// pivoting. Used for periodic basis refactorization in the simplex.
    ///
    /// # Errors
    ///
    /// Returns `None` when the matrix is (numerically) singular.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.nrows, self.ncols, "inverse requires a square matrix");
        let n = self.nrows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[(col, col)].abs();
            for r in (col + 1)..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let p = a[(col, col)];
            for c in 0..n {
                a[(col, c)] /= p;
                inv[(col, c)] /= p;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a[(r, col)];
                if factor == 0.0 {
                    continue;
                }
                for c in 0..n {
                    let ac = a[(col, c)];
                    let ic = inv[(col, c)];
                    a[(r, c)] -= factor * ac;
                    inv[(r, c)] -= factor * ic;
                }
            }
        }
        Some(inv)
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        let ncols = self.ncols;
        let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
        let (a, b) = self.data.split_at_mut(hi * ncols);
        a[lo * ncols..lo * ncols + ncols].swap_with_slice(&mut b[..ncols]);
    }

    /// Adds `value` to every diagonal entry (Tikhonov regularization).
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.nrows.min(self.ncols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Maximum absolute entry; zero matrices report `0.0`.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        &self.data[r * self.ncols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        &mut self.data[r * self.ncols + c]
    }
}

/// Dot product of two equally sized slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Infinity norm of a slice; empty slices report `0.0`.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_vector_is_vector() {
        let i = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.mul_vec(&x), x);
    }

    #[test]
    fn from_rows_indexes_row_major() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn mul_mat_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul_mat(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn mul_vec_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, -1.0, 4.0]]);
        let y = vec![2.0, 3.0];
        assert_eq!(a.mul_vec_transposed(&y), a.transpose().mul_vec(&y));
    }

    #[test]
    fn scaled_gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 1.0, -1.0]]);
        let theta = vec![2.0, 0.5, 1.0];
        let explicit = {
            let mut d = Matrix::zeros(3, 3);
            for i in 0..3 {
                d[(i, i)] = theta[i];
            }
            a.mul_mat(&d).mul_mat(&a.transpose())
        };
        let fast = a.scaled_gram(&theta);
        for i in 0..2 {
            for j in 0..2 {
                assert!((explicit[(i, j)] - fast[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = M Mᵀ with M well-conditioned is SPD.
        let m = Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[0.5, -1.0, 2.5]]);
        let a = m.mul_mat(&m.transpose());
        let l = a.cholesky().expect("SPD matrix must factor");
        let b = vec![1.0, 2.0, 3.0];
        let x = Matrix::cholesky_solve(&l, &b);
        let ax = a.mul_vec(&x);
        for (lhs, rhs) in ax.iter().zip(b.iter()) {
            assert!((lhs - rhs).abs() < 1e-9, "residual too large");
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().expect("invertible");
        let prod = a.mul_mat(&inv);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn inverse_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn swap_rows_swaps() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.swap_rows(0, 1);
        assert_eq!(m, Matrix::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]]));
    }

    #[test]
    fn norms_behave() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }
}
