//! Problem description types: a small modelling layer for linear programs
//! of the form
//!
//! ```text
//! minimize    cᵀ x
//! subject to  aᵢᵀ x  {≤, =, ≥}  bᵢ      for every constraint i
//!             lⱼ ≤ xⱼ ≤ uⱼ               for every variable j
//! ```
//!
//! The builder does not assume any particular solver; both the simplex and
//! the interior-point backends consume the same [`LpProblem`].

use crate::error::LpError;

/// Sense of one linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintSense {
    /// `aᵀx ≤ b`
    Le,
    /// `aᵀx = b`
    Eq,
    /// `aᵀx ≥ b`
    Ge,
}

/// One linear constraint row, stored sparsely as `(column, coefficient)`
/// pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse coefficients; columns may appear at most once.
    pub terms: Vec<(usize, f64)>,
    /// Constraint sense.
    pub sense: ConstraintSense,
    /// Right-hand side.
    pub rhs: f64,
}

/// Bounds of one variable. `upper` may be `f64::INFINITY`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Lower bound (finite).
    pub lower: f64,
    /// Upper bound, possibly `+∞`.
    pub upper: f64,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            lower: 0.0,
            upper: f64::INFINITY,
        }
    }
}

/// A linear program in minimization form.
///
/// # Examples
///
/// ```
/// use linprog::{LpProblem, ConstraintSense};
///
/// // minimize  -x - 2y   s.t.  x + y <= 4,  0 <= x,y <= 3
/// let mut lp = LpProblem::new(2);
/// lp.set_objective(vec![-1.0, -2.0]).unwrap();
/// lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0).unwrap();
/// lp.set_bounds(0, 0.0, 3.0).unwrap();
/// lp.set_bounds(1, 0.0, 3.0).unwrap();
/// assert_eq!(lp.num_vars(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LpProblem {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    bounds: Vec<Bounds>,
}

impl LpProblem {
    /// Creates a problem with `num_vars` variables, zero objective and
    /// default bounds `0 ≤ x < ∞`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars == 0`.
    pub fn new(num_vars: usize) -> Self {
        assert!(num_vars > 0, "an LP needs at least one variable");
        LpProblem {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
            bounds: vec![Bounds::default(); num_vars],
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The variable bounds.
    pub fn bounds(&self) -> &[Bounds] {
        &self.bounds
    }

    /// Sets the full objective vector (minimization).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::DimensionMismatch`] if `c.len() != num_vars`, and
    /// [`LpError::InvalidNumber`] if any coefficient is non-finite.
    pub fn set_objective(&mut self, c: Vec<f64>) -> Result<(), LpError> {
        if c.len() != self.num_vars {
            return Err(LpError::DimensionMismatch {
                expected: self.num_vars,
                got: c.len(),
            });
        }
        if let Some(&bad) = c.iter().find(|v| !v.is_finite()) {
            return Err(LpError::InvalidNumber(bad));
        }
        self.objective = c;
        Ok(())
    }

    /// Sets one objective coefficient.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::VariableOutOfRange`] for a bad index and
    /// [`LpError::InvalidNumber`] for a non-finite coefficient.
    pub fn set_objective_coeff(&mut self, var: usize, coeff: f64) -> Result<(), LpError> {
        if var >= self.num_vars {
            return Err(LpError::VariableOutOfRange {
                var,
                num_vars: self.num_vars,
            });
        }
        if !coeff.is_finite() {
            return Err(LpError::InvalidNumber(coeff));
        }
        self.objective[var] = coeff;
        Ok(())
    }

    /// Adds a constraint row given sparse `(column, coefficient)` terms.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::VariableOutOfRange`] when a term references an
    /// unknown column, [`LpError::DuplicateTerm`] when a column repeats and
    /// [`LpError::InvalidNumber`] when a coefficient or the right-hand side
    /// is non-finite.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(usize, f64)>,
        sense: ConstraintSense,
        rhs: f64,
    ) -> Result<usize, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::InvalidNumber(rhs));
        }
        let mut seen = vec![false; self.num_vars];
        for &(col, coeff) in &terms {
            if col >= self.num_vars {
                return Err(LpError::VariableOutOfRange {
                    var: col,
                    num_vars: self.num_vars,
                });
            }
            if !coeff.is_finite() {
                return Err(LpError::InvalidNumber(coeff));
            }
            if seen[col] {
                return Err(LpError::DuplicateTerm { col });
            }
            seen[col] = true;
        }
        self.constraints.push(Constraint { terms, sense, rhs });
        Ok(self.constraints.len() - 1)
    }

    /// Sets the bounds of one variable.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::VariableOutOfRange`] for a bad index,
    /// [`LpError::InvalidNumber`] for a NaN bound or non-finite lower bound,
    /// and [`LpError::InfeasibleBounds`] when `lower > upper`.
    pub fn set_bounds(&mut self, var: usize, lower: f64, upper: f64) -> Result<(), LpError> {
        if var >= self.num_vars {
            return Err(LpError::VariableOutOfRange {
                var,
                num_vars: self.num_vars,
            });
        }
        if lower.is_nan() || upper.is_nan() || !lower.is_finite() && lower != f64::NEG_INFINITY {
            return Err(LpError::InvalidNumber(lower));
        }
        if !lower.is_finite() {
            return Err(LpError::InvalidNumber(lower));
        }
        if lower > upper {
            return Err(LpError::InfeasibleBounds { var, lower, upper });
        }
        self.bounds[var] = Bounds { lower, upper };
        Ok(())
    }

    /// Evaluates the objective at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars);
        crate::matrix::dot(&self.objective, x)
    }

    /// Largest violation of any constraint or bound at `x`; a feasible
    /// point reports a value `≤ tol` for suitable tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars`.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars);
        let mut worst = 0.0_f64;
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(j, a)| a * x[j]).sum();
            let v = match c.sense {
                ConstraintSense::Le => lhs - c.rhs,
                ConstraintSense::Ge => c.rhs - lhs,
                ConstraintSense::Eq => (lhs - c.rhs).abs(),
            };
            worst = worst.max(v);
        }
        for (j, b) in self.bounds.iter().enumerate() {
            worst = worst.max(b.lower - x[j]);
            if b.upper.is_finite() {
                worst = worst.max(x[j] - b.upper);
            }
        }
        worst
    }
}

/// Status of a solve attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The iteration limit was reached before convergence.
    IterationLimit,
}

impl std::fmt::Display for LpStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LpStatus::Optimal => "optimal",
            LpStatus::Infeasible => "infeasible",
            LpStatus::Unbounded => "unbounded",
            LpStatus::IterationLimit => "iteration limit reached",
        };
        f.write_str(s)
    }
}

/// Result of a successful solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Primal point (meaningful when `status == Optimal`).
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Iterations used by the backend.
    pub iterations: usize,
    /// Dual values (shadow prices) per constraint row, when the backend
    /// produced them at optimality: `duals[i] ≈ ∂objective/∂rhs_i`. For a
    /// minimization, a binding `≤` capacity row has a nonpositive dual
    /// (more capacity cannot increase the optimum). Every backend derives
    /// them at optimality; `None` for any other status.
    pub duals: Option<Vec<f64>>,
}

impl LpSolution {
    /// True iff the backend proved optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_everything() {
        let mut lp = LpProblem::new(2);
        assert!(lp.set_objective(vec![1.0]).is_err());
        assert!(lp.set_objective(vec![1.0, f64::NAN]).is_err());
        assert!(lp.set_objective(vec![1.0, 2.0]).is_ok());
        assert!(lp.set_objective_coeff(5, 1.0).is_err());
        assert!(lp
            .add_constraint(vec![(0, 1.0), (0, 2.0)], ConstraintSense::Le, 1.0)
            .is_err());
        assert!(lp
            .add_constraint(vec![(7, 1.0)], ConstraintSense::Le, 1.0)
            .is_err());
        assert!(lp
            .add_constraint(vec![(0, 1.0)], ConstraintSense::Le, f64::INFINITY)
            .is_err());
        assert!(lp.set_bounds(0, 2.0, 1.0).is_err());
        assert!(lp.set_bounds(0, f64::NEG_INFINITY, 1.0).is_err());
        assert!(lp.set_bounds(0, 0.0, f64::INFINITY).is_ok());
    }

    #[test]
    fn violation_is_zero_inside_feasible_region() {
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        lp.set_bounds(0, 0.0, 3.0).unwrap();
        lp.set_bounds(1, 0.0, 3.0).unwrap();
        assert_eq!(lp.max_violation(&[1.0, 1.0]), 0.0);
        assert!(lp.max_violation(&[3.5, 3.0]) > 0.0);
    }

    #[test]
    fn objective_value_is_dot_product() {
        let mut lp = LpProblem::new(3);
        lp.set_objective(vec![1.0, -2.0, 0.5]).unwrap();
        assert_eq!(lp.objective_value(&[2.0, 1.0, 4.0]), 2.0 - 2.0 + 2.0);
    }

    #[test]
    fn status_displays() {
        assert_eq!(LpStatus::Optimal.to_string(), "optimal");
        assert_eq!(LpStatus::Infeasible.to_string(), "infeasible");
    }
}
