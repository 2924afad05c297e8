//! # linprog — a linear-programming substrate
//!
//! Self-contained LP solvers backing the LP-HTA task-assignment algorithm
//! of the Data-Shared MEC reproduction. Three interchangeable backends
//! solve the same [`LpProblem`]:
//!
//! * [`revised::solve_revised`] — sparse revised simplex over a CSC
//!   matrix ([`sparse::CscMatrix`]) with a sparse-LU-factored basis
//!   extended by a product-form eta file ([`basis::BasisFactor`]);
//!   supports warm starts from a previous [`Basis`] via [`solve_from`]
//!   (the default backend, and LP-HTA's, whose constraint matrix is
//!   extremely sparse);
//! * [`simplex::solve_simplex`] — two-phase dense simplex with bounded
//!   variables (exact vertex solutions; used as the reference oracle);
//! * [`interior::solve_interior_point`] — Mehrotra predictor–corrector
//!   primal–dual interior-point method (the paper's Step 1 cites
//!   Karmarkar's interior-point algorithm).
//!
//! Problems are stated as minimization with row constraints of any sense
//! and per-variable bounds:
//!
//! ```
//! use linprog::{LpProblem, ConstraintSense, Solver, solve};
//!
//! // minimize -x - 2y  subject to  x + y <= 4,  0 <= x,y <= 3
//! let mut lp = LpProblem::new(2);
//! lp.set_objective(vec![-1.0, -2.0])?;
//! lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)?;
//! lp.set_bounds(0, 0.0, 3.0)?;
//! lp.set_bounds(1, 0.0, 3.0)?;
//!
//! let sol = solve(&lp, Solver::InteriorPoint)?;
//! assert!(sol.is_optimal());
//! assert!((sol.objective - (-7.0)).abs() < 1e-6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Numerical kernels index several parallel arrays by row/column; the
// "use an iterator" suggestion obscures them. `!(x > 0)`-style guards are
// deliberate NaN catches.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod basis;
pub mod error;
pub mod interior;
pub mod matrix;
pub mod mps;
pub mod presolve;
pub mod problem;
pub mod revised;
pub mod simplex;
pub mod sparse;
pub mod standard;

pub use error::LpError;
pub use problem::{Bounds, Constraint, ConstraintSense, LpProblem, LpSolution, LpStatus};
pub use revised::{Basis, BasisVarStatus, SolveOutcome};

/// Which backend to use for a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Solver {
    /// Mehrotra predictor–corrector interior-point method (what the
    /// paper's Step 1 prescribes).
    InteriorPoint,
    /// Two-phase dense simplex with bounded variables.
    Simplex,
    /// Sparse revised simplex (sparse LU-factored basis, eta updates,
    /// warm starts); the default. Falls back to the dense simplex on
    /// numerical failure.
    #[default]
    Revised,
}

impl std::fmt::Display for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Solver::InteriorPoint => f.write_str("interior-point"),
            Solver::Simplex => f.write_str("simplex"),
            Solver::Revised => f.write_str("revised-simplex"),
        }
    }
}

/// Solves `lp` with the chosen backend. The interior-point backend falls
/// back to the simplex automatically when it stalls before reaching its
/// tolerance, so callers always receive a definite status.
///
/// # Errors
///
/// Returns [`LpError::NumericalFailure`] only when *both* applicable
/// backends fail numerically.
pub fn solve(lp: &LpProblem, solver: Solver) -> Result<LpSolution, LpError> {
    match solver {
        Solver::Simplex => simplex::solve_simplex(lp),
        Solver::Revised => match revised::solve_revised(lp) {
            Ok(sol) => Ok(sol),
            // A singular basis the eta file cannot recover from; the
            // dense oracle keeps its own inverse and gets the verdict.
            Err(_) => simplex::solve_simplex(lp),
        },
        Solver::InteriorPoint => {
            let attempt = interior::solve_interior_point(lp);
            match attempt {
                Ok(sol) if sol.status == LpStatus::Optimal => Ok(sol),
                // IPMs are poor at certifying infeasibility; let the
                // simplex deliver the verdict on any non-optimal outcome.
                Ok(_) | Err(_) => simplex::solve_simplex(lp),
            }
        }
    }
}

/// Solves `lp` with the sparse revised simplex, optionally warm-starting
/// from a [`Basis`] returned by a previous call, and returns the final
/// basis alongside the solution so sweeps can chain adjacent points.
///
/// Falls back to the dense simplex on numerical failure; the fallback
/// reports `warm_used: false` and no basis (dense solves don't export
/// one), so a chain simply goes cold at that point.
///
/// # Errors
///
/// Returns [`LpError::NumericalFailure`] only when both the revised and
/// the dense backend fail.
pub fn solve_from(lp: &LpProblem, warm: Option<&Basis>) -> Result<SolveOutcome, LpError> {
    match revised::solve_revised_from(lp, warm) {
        Ok(outcome) => Ok(outcome),
        Err(_) => simplex::solve_simplex(lp).map(|solution| SolveOutcome {
            solution,
            basis: None,
            warm_used: false,
            warm_rejection: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_display() {
        assert_eq!(Solver::InteriorPoint.to_string(), "interior-point");
        assert_eq!(Solver::Simplex.to_string(), "simplex");
        assert_eq!(Solver::Revised.to_string(), "revised-simplex");
        assert_eq!(Solver::default(), Solver::Revised);
    }

    #[test]
    fn dispatch_reaches_all_backends() {
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 2.0)
            .unwrap();
        for solver in [Solver::Simplex, Solver::InteriorPoint, Solver::Revised] {
            let sol = solve(&lp, solver).unwrap();
            assert!(sol.is_optimal(), "{solver} failed");
            assert!((sol.objective - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn solve_from_chains_bases_across_calls() {
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![-1.0, -2.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        lp.set_bounds(0, 0.0, 3.0).unwrap();
        lp.set_bounds(1, 0.0, 3.0).unwrap();
        let cold = solve_from(&lp, None).unwrap();
        assert!(cold.solution.is_optimal());
        assert!(!cold.warm_used);
        let basis = cold.basis.expect("optimal solve exports a basis");
        let warm = solve_from(&lp, Some(&basis)).unwrap();
        assert!(warm.warm_used);
        assert!((warm.solution.objective - cold.solution.objective).abs() < 1e-9);
    }

    #[test]
    fn infeasible_is_certified_via_fallback() {
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 3.0)
            .unwrap();
        let sol = solve(&lp, Solver::InteriorPoint).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }
}
