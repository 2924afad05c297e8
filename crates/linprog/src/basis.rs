//! Basis factorization for the revised simplex: a sparse LU decomposition
//! of the `m × m` basis matrix, extended between refactorizations by a
//! product-form **eta file**.
//!
//! [`LuFactors::factor`] is a left-looking (Gilbert–Peierls) sparse LU,
//! `P B Q = L U`. The columns of `B` arrive as lists of `(row, value)`
//! pairs and are factored sparsest first. The earlier columns of `L` are
//! applied to each in increasing pivot order, driven by a min-heap over
//! the pivoted rows the column touches; what lands on pivoted rows is the
//! column of `U`, what lands on the others are the pivot candidates.
//! Threshold partial pivoting admits every candidate with
//! `|x| ≥ 0.1 · max |x|` and picks the one whose row has the fewest
//! nonzeros in `B`, then the larger `|x|`, then the lower row index, so
//! the choice is deterministic. The HTA basis has at most two nonzeros
//! per column and is mostly a permuted identity: its unit columns pivot
//! first, the row-count rule takes the singleton rows, and the cluster
//! bases factor with no fill at all. `L` and `U` are stored as sparse
//! columns, and a solve touches each stored entry once:
//! O(m + nnz(L + U)).
//!
//! After a pivot replaces basic column `r` with entering column `a_q`,
//! the new basis is `B' = B · F` where `F` is the identity except column
//! `r = α = B⁻¹ a_q`. Its inverse is the eta matrix `E` (identity except
//! column `r`), so
//!
//! * **FTRAN** `B'⁻¹ v`: LU-solve, then apply the etas oldest → newest;
//! * **BTRAN** `B'⁻ᵀ v`: apply the transposed etas newest → oldest, then
//!   LU-transpose-solve.
//!
//! Etas store only the nonzeros of `α`, so a sparse pivot column costs
//! O(nnz) to record and apply instead of the dense simplex's O(m²)
//! basis-inverse row update. The eta file is bounded by the caller's
//! refactorization interval; the caller refactorizes by factoring the
//! current basis afresh and adopting it with [`BasisFactor::from_lu`].

use crate::error::LpError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sparse LU factors of an `m × m` matrix with row and column
/// permutations, `P B Q = L U`. `L` (unit diagonal) and `U` are indexed
/// by pivot step and stored as sparse columns of `(step, value)` pairs.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// `pivot_row[k]` = the row of `B` pivoted at step `k`.
    pivot_row: Vec<usize>,
    /// `pivot_col[k]` = the column of `B` factored at step `k`.
    pivot_col: Vec<usize>,
    /// `l_start[k]..l_start[k + 1]` indexes column `k` of `L` below the
    /// diagonal in `l_entries`.
    l_start: Vec<usize>,
    l_entries: Vec<(usize, f64)>,
    /// `u_start[k]..u_start[k + 1]` indexes column `k` of `U` above the
    /// diagonal in `u_entries`.
    u_start: Vec<usize>,
    u_entries: Vec<(usize, f64)>,
    /// The diagonal of `U`: the pivots.
    diag: Vec<f64>,
}

/// Pivots smaller than this are treated as singular.
const SINGULAR_TOL: f64 = 1e-12;
/// A candidate may pivot when its magnitude is at least this fraction of
/// the column's largest candidate.
const PIVOT_THRESHOLD: f64 = 0.1;
/// `step_of` marker for a row no step has pivoted on yet.
const UNPIVOTED: usize = usize::MAX;

/// The column being factored: a dense accumulator plus the rows it has
/// touched, and a min-heap of the pivot steps still to apply to it.
struct ActiveColumn {
    x: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<usize>,
    pending: BinaryHeap<Reverse<usize>>,
}

impl ActiveColumn {
    fn add(&mut self, row: usize, value: f64, step_of: &[usize]) {
        if !self.seen[row] {
            self.seen[row] = true;
            self.touched.push(row);
            if step_of[row] != UNPIVOTED {
                self.pending.push(Reverse(step_of[row]));
            }
        }
        self.x[row] += value;
    }

    fn clear(&mut self) {
        for &r in &self.touched {
            self.x[r] = 0.0;
            self.seen[r] = false;
        }
        self.touched.clear();
    }
}

impl LuFactors {
    /// Factors the `m × m` matrix whose columns are given, in order, as
    /// `(row, value)` lists. Zero values are ignored; a row repeated
    /// within a column accumulates.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::NumericalFailure`] when the matrix is singular
    /// to working precision.
    ///
    /// # Panics
    ///
    /// Panics when `columns` does not yield exactly `m` columns or names
    /// a row outside `0..m`.
    pub fn factor<C, E>(m: usize, columns: C) -> Result<LuFactors, LpError>
    where
        C: IntoIterator<Item = E>,
        E: IntoIterator<Item = (usize, f64)>,
    {
        let mut b_start = vec![0];
        let mut b_entries = Vec::new();
        let mut row_nnz = vec![0usize; m];
        for column in columns {
            for (r, v) in column {
                if v != 0.0 {
                    row_nnz[r] += 1;
                    b_entries.push((r, v));
                }
            }
            b_start.push(b_entries.len());
        }
        assert_eq!(b_start.len(), m + 1, "expected {m} basis columns");
        // Sparsest columns first (a stable sort keeps ties in order): the
        // unit columns pivot before the columns that share their rows, so
        // those arrive with nothing left to fill.
        let mut pivot_col: Vec<usize> = (0..m).collect();
        pivot_col.sort_by_key(|&j| b_start[j + 1] - b_start[j]);

        let mut lu = LuFactors {
            pivot_row: Vec::with_capacity(m),
            pivot_col,
            l_start: vec![0],
            l_entries: Vec::new(),
            u_start: vec![0],
            u_entries: Vec::new(),
            diag: Vec::with_capacity(m),
        };
        let mut step_of = vec![UNPIVOTED; m];
        let mut col = ActiveColumn {
            x: vec![0.0; m],
            seen: vec![false; m],
            touched: Vec::new(),
            pending: BinaryHeap::new(),
        };
        for k in 0..m {
            let j = lu.pivot_col[k];
            for &(r, v) in &b_entries[b_start[j]..b_start[j + 1]] {
                col.add(r, v, &step_of);
            }
            // x ← L⁻¹ x over the steps taken so far; each popped step's
            // value is final and is column k of U at that step.
            while let Some(Reverse(s)) = col.pending.pop() {
                let xs = col.x[lu.pivot_row[s]];
                if xs == 0.0 {
                    continue;
                }
                lu.u_entries.push((s, xs));
                for &(i, l) in &lu.l_entries[lu.l_start[s]..lu.l_start[s + 1]] {
                    col.add(i, -l * xs, &step_of);
                }
            }

            let candidates = || {
                col.touched
                    .iter()
                    .copied()
                    .filter(|&r| step_of[r] == UNPIVOTED)
            };
            let max = candidates().map(|r| col.x[r].abs()).fold(0.0, f64::max);
            let pivot = candidates()
                .filter(|&r| max > SINGULAR_TOL && col.x[r].abs() >= PIVOT_THRESHOLD * max)
                .min_by(|&a, &b| {
                    row_nnz[a]
                        .cmp(&row_nnz[b])
                        .then(col.x[b].abs().total_cmp(&col.x[a].abs()))
                        .then(a.cmp(&b))
                });
            let Some(p) = pivot else {
                return Err(LpError::NumericalFailure("singular basis matrix"));
            };
            let d = col.x[p];
            step_of[p] = k;
            lu.pivot_row.push(p);
            lu.diag.push(d);
            for &r in &col.touched {
                if step_of[r] == UNPIVOTED && col.x[r] != 0.0 {
                    lu.l_entries.push((r, col.x[r] / d));
                }
            }
            lu.l_start.push(lu.l_entries.len());
            lu.u_start.push(lu.u_entries.len());
            col.clear();
        }
        // L was recorded against rows; every row has a step now.
        for entry in &mut lu.l_entries {
            entry.0 = step_of[entry.0];
        }
        Ok(lu)
    }

    /// The identity factorization (empty basis of artificial columns).
    #[must_use]
    pub fn identity(m: usize) -> LuFactors {
        LuFactors {
            pivot_row: (0..m).collect(),
            pivot_col: (0..m).collect(),
            l_start: vec![0; m + 1],
            l_entries: Vec::new(),
            u_start: vec![0; m + 1],
            u_entries: Vec::new(),
            diag: vec![1.0; m],
        }
    }

    /// Stored nonzeros of `L` and `U`, diagonal included: the basis'
    /// nonzeros plus fill.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.l_entries.len() + self.u_entries.len() + self.diag.len()
    }

    fn l_col(&self, k: usize) -> &[(usize, f64)] {
        &self.l_entries[self.l_start[k]..self.l_start[k + 1]]
    }

    fn u_col(&self, k: usize) -> &[(usize, f64)] {
        &self.u_entries[self.u_start[k]..self.u_start[k + 1]]
    }

    /// Solves `B x = v` in place: `v` is indexed by row, `x` by column.
    pub fn solve(&self, v: &mut [f64]) {
        debug_assert_eq!(v.len(), self.diag.len());
        let mut w: Vec<f64> = self.pivot_row.iter().map(|&r| v[r]).collect();
        // Forward: L y = P v.
        for k in 0..w.len() {
            let t = w[k];
            if t != 0.0 {
                for &(s, l) in self.l_col(k) {
                    w[s] -= l * t;
                }
            }
        }
        // Backward: U z = y, then x = Q z.
        for k in (0..w.len()).rev() {
            let t = w[k] / self.diag[k];
            w[k] = t;
            if t != 0.0 {
                for &(s, u) in self.u_col(k) {
                    w[s] -= u * t;
                }
            }
        }
        for (k, &j) in self.pivot_col.iter().enumerate() {
            v[j] = w[k];
        }
    }

    /// Solves `Bᵀ x = v` in place: `v` is indexed by column, `x` by row.
    pub fn solve_transposed(&self, v: &mut [f64]) {
        debug_assert_eq!(v.len(), self.diag.len());
        let mut w: Vec<f64> = self.pivot_col.iter().map(|&j| v[j]).collect();
        // Forward: Uᵀ z = Qᵀ v.
        for k in 0..w.len() {
            let dot: f64 = self.u_col(k).iter().map(|&(s, u)| u * w[s]).sum();
            w[k] = (w[k] - dot) / self.diag[k];
        }
        // Backward: Lᵀ y = z (unit diagonal).
        for k in (0..w.len()).rev() {
            let dot: f64 = self.l_col(k).iter().map(|&(s, l)| l * w[s]).sum();
            w[k] -= dot;
        }
        // Undo the row permutation: x = Pᵀ y.
        for (k, &r) in self.pivot_row.iter().enumerate() {
            v[r] = w[k];
        }
    }
}

/// One product-form eta: basic position `row` was replaced by a column
/// whose FTRAN image was `α`; only `α`'s nonzeros are stored.
#[derive(Debug, Clone)]
struct Eta {
    row: usize,
    /// `α_row` — the pivot element.
    pivot: f64,
    /// Off-pivot nonzeros of `α` as `(position, value)`.
    entries: Vec<(usize, f64)>,
}

/// An LU factorization of the basis plus the eta file accumulated since
/// the last refactorization.
#[derive(Debug, Clone)]
pub struct BasisFactor {
    lu: LuFactors,
    etas: Vec<Eta>,
    /// Total stored eta nonzeros (pivot + off-pivot), for observability.
    eta_nnz: usize,
}

impl BasisFactor {
    /// The identity basis (all-artificial start).
    #[must_use]
    pub fn identity(m: usize) -> BasisFactor {
        BasisFactor::from_lu(LuFactors::identity(m))
    }

    /// Adopts a fresh LU factorization with an empty eta file: a warm
    /// start adopts its acceptance probe's factors, and a scheduled
    /// refactorization adopts the factors of the current basis.
    #[must_use]
    pub fn from_lu(lu: LuFactors) -> BasisFactor {
        BasisFactor {
            lu,
            etas: Vec::new(),
            eta_nnz: 0,
        }
    }

    /// Number of etas accumulated since the last refactorization.
    #[must_use]
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Total nonzeros stored across the eta file.
    #[must_use]
    pub fn eta_nnz(&self) -> usize {
        self.eta_nnz
    }

    /// Records a pivot: basic position `row` was replaced by the column
    /// whose FTRAN image is `alpha`.
    ///
    /// # Panics
    ///
    /// Panics (debug) when the pivot element is numerically zero — the
    /// ratio test guarantees it is not.
    pub fn push_eta(&mut self, row: usize, alpha: &[f64]) {
        let pivot = alpha[row];
        debug_assert!(pivot.abs() > 0.0, "zero pivot reached push_eta");
        let entries: Vec<(usize, f64)> = alpha
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != row && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.eta_nnz += entries.len() + 1;
        self.etas.push(Eta {
            row,
            pivot,
            entries,
        });
    }

    /// FTRAN: `x ← B⁻¹ x` for the current basis.
    pub fn ftran(&self, x: &mut [f64]) {
        self.lu.solve(x);
        for eta in &self.etas {
            let t = x[eta.row];
            if t != 0.0 {
                x[eta.row] = t / eta.pivot;
                for &(i, v) in &eta.entries {
                    x[i] -= (v / eta.pivot) * t;
                }
            }
        }
    }

    /// BTRAN: `x ← B⁻ᵀ x` for the current basis.
    pub fn btran(&self, x: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut acc = x[eta.row];
            for &(i, v) in &eta.entries {
                acc -= v * x[i];
            }
            x[eta.row] = acc / eta.pivot;
        }
        self.lu.solve_transposed(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `A x` for `A` given as columns of `(row, value)` pairs.
    fn mul(cols: &[Vec<(usize, f64)>], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; cols.len()];
        for (j, col) in cols.iter().enumerate() {
            for &(i, a) in col {
                out[i] += a * x[j];
            }
        }
        out
    }

    /// `Aᵀ y` for `A` given as columns.
    fn mul_t(cols: &[Vec<(usize, f64)>], y: &[f64]) -> Vec<f64> {
        cols.iter()
            .map(|col| col.iter().map(|&(i, a)| a * y[i]).sum())
            .collect()
    }

    fn factor(cols: &[Vec<(usize, f64)>]) -> Result<LuFactors, LpError> {
        LuFactors::factor(cols.len(), cols.iter().map(|c| c.iter().copied()))
    }

    fn assert_close(got: &[f64], want: &[f64], tol: f64) {
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < tol, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn lu_solves_forward_and_transposed() {
        // Rows (2, 1, -1), (-3, -1, 2), (-2, 1, 2) as columns.
        let a = vec![
            vec![(0, 2.0), (1, -3.0), (2, -2.0)],
            vec![(0, 1.0), (1, -1.0), (2, 1.0)],
            vec![(0, -1.0), (1, 2.0), (2, 2.0)],
        ];
        let lu = factor(&a).unwrap();
        let mut x = [8.0, -11.0, -3.0];
        lu.solve(&mut x);
        assert_close(&mul(&a, &x), &[8.0, -11.0, -3.0], 1e-10);
        let mut y = [1.0, 2.0, 3.0];
        lu.solve_transposed(&mut y);
        assert_close(&mul_t(&a, &y), &[1.0, 2.0, 3.0], 1e-10);
    }

    #[test]
    fn lu_detects_singularity() {
        let dependent = vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 2.0), (1, 4.0)]];
        assert!(factor(&dependent).is_err());
        let zero_column = vec![vec![(0, 1.0)], vec![]];
        assert!(factor(&zero_column).is_err());
    }

    #[test]
    fn permuted_identity_has_no_fill() {
        // Unit columns in reverse order plus one 2-nonzero column.
        let a = vec![
            vec![(3, 1.0)],
            vec![(2, 1.0)],
            vec![(0, 1.0), (1, 2.0)],
            vec![(0, -1.0)],
        ];
        let lu = factor(&a).unwrap();
        assert_eq!(lu.nnz(), 5, "{lu:?}");
        let mut x = [1.0, 2.0, 3.0, 4.0];
        lu.solve(&mut x);
        assert_close(&mul(&a, &x), &[1.0, 2.0, 3.0, 4.0], 1e-12);
    }

    /// The cluster-relaxation basis: `n` tasks with one basic fraction
    /// each — a station fraction (coupling row `n` with a byte-sized
    /// coefficient, plus the task's one-site row) or a device fraction
    /// (its device row plus the one-site row) — and the slacks of the
    /// device rows and the coupling row. It factors with no fill.
    #[test]
    fn cluster_basis_factors_without_fill() {
        let n = 50;
        let mut a: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|k| {
                let bytes = 1.0e6 + 5.0e4 * k as f64;
                if k % 3 == 0 {
                    vec![(k, bytes), (n + 1 + k, 1.0)]
                } else {
                    vec![(n, bytes), (n + 1 + k, 1.0)]
                }
            })
            .collect();
        a.extend((0..=n).map(|r| vec![(r, 1.0)]));
        let nnz: usize = a.iter().map(Vec::len).sum();
        let lu = factor(&a).unwrap();
        assert_eq!(lu.nnz(), nnz);
        let v: Vec<f64> = (0..a.len()).map(|i| 1.0 + i as f64).collect();
        let mut x = v.clone();
        lu.solve(&mut x);
        assert_close(&mul(&a, &x), &v, 1e-6);
        let mut y = v.clone();
        lu.solve_transposed(&mut y);
        assert_close(&mul_t(&a, &y), &v, 1e-6);
    }

    #[test]
    fn eta_updates_track_column_replacement() {
        // Start from B = I, replace position 1 with a = (1, 2, 1)ᵀ:
        // B' = [e0, a, e2]. Check FTRAN/BTRAN against the explicit B'.
        let mut f = BasisFactor::identity(3);
        let mut alpha = [1.0, 2.0, 1.0]; // B⁻¹ a = a for B = I
        f.push_eta(1, &alpha);
        assert_eq!(f.eta_count(), 1);
        assert_eq!(f.eta_nnz(), 3);

        let b_new = vec![
            vec![(0, 1.0)],
            vec![(0, 1.0), (1, 2.0), (2, 1.0)],
            vec![(2, 1.0)],
        ];
        let v = [3.0, 4.0, 5.0];
        let mut x = v;
        f.ftran(&mut x);
        assert_close(&mul(&b_new, &x), &v, 1e-12);
        let mut y = v;
        f.btran(&mut y);
        assert_close(&mul_t(&b_new, &y), &v, 1e-12);

        // A second replacement on top of the first: position 2 with the
        // column whose FTRAN image is alpha2.
        alpha = [0.5, 0.0, 2.0];
        f.ftran(&mut alpha);
        f.push_eta(2, &alpha);
        let b2 = vec![
            vec![(0, 1.0)],
            vec![(0, 1.0), (1, 2.0), (2, 1.0)],
            vec![(0, 0.5), (2, 2.0)],
        ];
        let mut x2 = [1.0, -2.0, 0.5];
        f.ftran(&mut x2);
        assert_close(&mul(&b2, &x2), &[1.0, -2.0, 0.5], 1e-12);
    }

    #[test]
    fn refactorize_replaces_the_eta_file() {
        let mut f = BasisFactor::identity(2);
        f.push_eta(0, &[2.0, 1.0]);
        assert_eq!(f.eta_count(), 1);
        let basis = vec![vec![(0, 3.0), (1, 1.0)], vec![(0, 1.0), (1, 2.0)]];
        f = BasisFactor::from_lu(factor(&basis).unwrap());
        assert_eq!(f.eta_count(), 0);
        assert_eq!(f.eta_nnz(), 0);
        let mut x = [5.0, 5.0];
        f.ftran(&mut x);
        assert_close(&mul(&basis, &x), &[5.0, 5.0], 1e-12);
    }
}
