//! A tour of the LP substrate on its own: model a small problem, solve it
//! with the dense simplex and the interior-point method, inspect duals.
//!
//! Run with:
//!
//! ```text
//! cargo run -p linprog --example lp_tour
//! ```

use linprog::{solve, ConstraintSense, LpProblem, Solver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny production-planning LP:
    //   maximize 3x + 5y  (min -3x - 5y)
    //   s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    let mut lp = LpProblem::new(2);
    lp.set_objective(vec![-3.0, -5.0])?;
    lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 4.0)?;
    lp.add_constraint(vec![(1, 2.0)], ConstraintSense::Le, 12.0)?;
    lp.add_constraint(vec![(0, 3.0), (1, 2.0)], ConstraintSense::Le, 18.0)?;

    for solver in [Solver::Simplex, Solver::InteriorPoint] {
        let sol = solve(&lp, solver)?;
        println!(
            "{solver:<15} objective {:8.4}  x = ({:.4}, {:.4})  [{} iterations]",
            -sol.objective, sol.x[0], sol.x[1], sol.iterations
        );
        if let Some(duals) = &sol.duals {
            println!(
                "{:<15} shadow prices: {:?}",
                "",
                duals
                    .iter()
                    .map(|d| (d * 1e4).round() / 1e4)
                    .collect::<Vec<_>>()
            );
        }
    }

    Ok(())
}
