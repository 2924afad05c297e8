//! Conversion of an [`LpProblem`] into the *standard
//! computational form* shared by all three solver backends:
//!
//! ```text
//! minimize    cᵀ x
//! subject to  A x = b
//!             0 ≤ xⱼ ≤ uⱼ        (uⱼ may be +∞)
//! ```
//!
//! Lower bounds are shifted away, `≤` rows receive a `+1` slack column,
//! `≥` rows a `−1` surplus column, equalities none, and the objective
//! offset caused by the shift is remembered so solutions can be mapped
//! back to the user's variables. `A` is stored sparsely ([`CscMatrix`]):
//! the revised simplex reads its columns directly, and the two dense
//! backends densify it once with [`CscMatrix::to_dense`].

use crate::problem::{ConstraintSense, LpProblem};
use crate::sparse::CscMatrix;

/// A linear program in standard computational form, plus the bookkeeping
/// needed to translate solutions back to the original problem.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardForm {
    /// Constraint matrix over structural + slack columns, `m × n_total`.
    pub a: CscMatrix,
    /// Right-hand side, adjusted for the lower-bound shift, length `m`.
    pub b: Vec<f64>,
    /// Objective over all columns (zero for slacks), length `n_total`.
    pub c: Vec<f64>,
    /// Upper bounds per column in shifted space (lower bounds are all
    /// zero; `+∞` preserved; slacks unbounded).
    pub upper: Vec<f64>,
    /// Number of structural (user) variables; they occupy the first
    /// `num_structural` columns.
    pub num_structural: usize,
    /// Shift applied to each structural variable (its original lower bound).
    pub shift: Vec<f64>,
    /// `c · shift`: added back by [`Self::original_objective`].
    pub objective_offset: f64,
}

impl StandardForm {
    /// Builds the standard form of `lp`.
    ///
    /// # Panics
    ///
    /// Panics if the problem has no constraints (the solvers need at least
    /// one row; add a vacuous one if necessary).
    #[must_use]
    pub fn from_problem(lp: &LpProblem) -> StandardForm {
        let m = lp.num_constraints();
        assert!(m > 0, "standard form needs at least one constraint row");
        let n = lp.num_vars();
        let shift: Vec<f64> = lp.bounds().iter().map(|bd| bd.lower).collect();
        let num_slacks = lp
            .constraints()
            .iter()
            .filter(|c| c.sense != ConstraintSense::Eq)
            .count();
        let total = n + num_slacks;

        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); total];
        let mut b = Vec::with_capacity(m);
        let mut slack = n;
        for (i, row) in lp.constraints().iter().enumerate() {
            let mut rhs = row.rhs;
            // Terms may arrive in any column order; per-column row lists
            // stay sorted because `i` only ever increases.
            for &(j, aij) in &row.terms {
                columns[j].push((i, aij));
                rhs -= aij * shift[j];
            }
            b.push(rhs);
            match row.sense {
                ConstraintSense::Le => {
                    columns[slack].push((i, 1.0));
                    slack += 1;
                }
                ConstraintSense::Ge => {
                    columns[slack].push((i, -1.0));
                    slack += 1;
                }
                ConstraintSense::Eq => {}
            }
        }

        let mut c = vec![0.0; total];
        c[..n].copy_from_slice(lp.objective());
        let mut upper = vec![f64::INFINITY; total];
        for (j, bd) in lp.bounds().iter().enumerate() {
            upper[j] = if bd.upper.is_finite() {
                bd.upper - bd.lower
            } else {
                f64::INFINITY
            };
        }
        let objective_offset = crate::matrix::dot(lp.objective(), &shift);

        StandardForm {
            a: CscMatrix::from_columns(m, &columns),
            b,
            c,
            upper,
            num_structural: n,
            shift,
            objective_offset,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.a.nrows()
    }

    /// Total number of columns (structural + slack).
    #[must_use]
    pub fn num_cols(&self) -> usize {
        self.a.ncols()
    }

    /// Maps a standard-form point back to the original variable space.
    ///
    /// # Panics
    ///
    /// Panics if `x_std` has fewer than `num_structural` entries.
    #[must_use]
    pub fn recover(&self, x_std: &[f64]) -> Vec<f64> {
        (0..self.num_structural)
            .map(|j| x_std[j] + self.shift[j])
            .collect()
    }

    /// Objective value in the *original* problem for a standard-form point.
    #[must_use]
    pub fn original_objective(&self, x_std: &[f64]) -> f64 {
        let direct: f64 = (0..self.num_structural).map(|j| self.c[j] * x_std[j]).sum();
        direct + self.objective_offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintSense, LpProblem};

    fn toy() -> LpProblem {
        // minimize x + y  s.t.  x + 2y >= 4,  x - y = 1,  1 <= x <= 5, y >= 0
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![1.0, 1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintSense::Ge, 4.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintSense::Eq, 1.0)
            .unwrap();
        lp.set_bounds(0, 1.0, 5.0).unwrap();
        lp
    }

    #[test]
    fn shapes_and_slacks() {
        let sf = StandardForm::from_problem(&toy());
        assert_eq!(sf.num_rows(), 2);
        // 2 structural + 1 surplus (only the Ge row needs one).
        assert_eq!(sf.num_cols(), 3);
        assert_eq!(sf.num_structural, 2);
        // Surplus column has coefficient -1 in row 0, 0 in row 1.
        let dense = sf.a.to_dense();
        assert_eq!(dense[(0, 2)], -1.0);
        assert_eq!(dense[(1, 2)], 0.0);
    }

    #[test]
    fn lower_bound_shift_adjusts_rhs_and_offset() {
        let sf = StandardForm::from_problem(&toy());
        // x >= 1 shifts rhs: row0 4 - 1 = 3, row1 1 - 1 = 0.
        assert_eq!(sf.b, vec![3.0, 0.0]);
        assert_eq!(sf.shift, vec![1.0, 0.0]);
        assert_eq!(sf.objective_offset, 1.0);
        // x in [1,5] becomes x' in [0,4].
        assert_eq!(sf.upper[0], 4.0);
        assert_eq!(sf.upper[1], f64::INFINITY);
    }

    #[test]
    fn recover_round_trips() {
        let sf = StandardForm::from_problem(&toy());
        let x_std = vec![1.5, 0.0, 0.0];
        let x = sf.recover(&x_std);
        assert_eq!(x, vec![2.5, 0.0]);
        assert!((sf.original_objective(&x_std) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one constraint")]
    fn standard_form_rejects_empty() {
        let lp = LpProblem::new(1);
        let _ = StandardForm::from_problem(&lp);
    }
}
