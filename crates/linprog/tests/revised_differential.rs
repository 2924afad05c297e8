//! Differential coverage for the sparse revised simplex: on a reference
//! problem, degenerate cases (fixed variables, singleton and duplicated
//! rows, a vacuous row), and randomized instances, the revised backend
//! must agree with the dense simplex oracle and the interior-point method
//! on status, objective, and feasibility — and warm starts must never
//! change the answer.

use detrand::prop::run_cases;
use detrand::{prop_assert, prop_assert_eq, ChaCha8Rng};
use linprog::revised::solve_revised_from;
use linprog::{solve, solve_from, ConstraintSense, LpProblem, LpStatus, Solver};

/// A 2-variable reference problem with every row sense and both finite
/// and shifted bounds: min x0 + 2 x1 s.t. x0 + x1 ≥ 1, x0 − x1 ≤ 2,
/// x0 + 2 x1 = 2, 0 ≤ x0 ≤ 3, 0 ≤ x1 ≤ 5.
fn reference_problem() -> LpProblem {
    let mut lp = LpProblem::new(2);
    lp.set_objective(vec![1.0, 2.0]).unwrap();
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Ge, 1.0)
        .unwrap();
    lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintSense::Le, 2.0)
        .unwrap();
    lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintSense::Eq, 2.0)
        .unwrap();
    lp.set_bounds(0, 0.0, 3.0).unwrap();
    lp.set_bounds(1, 0.0, 5.0).unwrap();
    lp
}

fn assert_backends_agree(lp: &LpProblem, label: &str) {
    let dense = solve(lp, Solver::Simplex).unwrap();
    let revised = solve(lp, Solver::Revised).unwrap();
    assert_eq!(
        revised.status, dense.status,
        "{label}: status mismatch (dense {:?}, revised {:?})",
        dense.status, revised.status
    );
    if dense.status != LpStatus::Optimal {
        return;
    }
    let scale = 1.0 + dense.objective.abs();
    assert!(
        (revised.objective - dense.objective).abs() < 1e-6 * scale,
        "{label}: objective dense {} vs revised {}",
        dense.objective,
        revised.objective
    );
    assert!(
        lp.max_violation(&revised.x) < 1e-6,
        "{label}: revised point violates constraints by {}",
        lp.max_violation(&revised.x)
    );
    let ipm = solve(lp, Solver::InteriorPoint).unwrap();
    assert!(
        (revised.objective - ipm.objective).abs() < 1e-5 * scale,
        "{label}: objective ipm {} vs revised {}",
        ipm.objective,
        revised.objective
    );
}

#[test]
fn revised_matches_oracles_on_mps_fixtures() {
    let lp = reference_problem();
    assert_backends_agree(&lp, "reference problem");
}

#[test]
fn revised_handles_degenerate_presolve_cases() {
    // All variables fixed by bounds: nothing for the simplex to do but
    // confirm feasibility of the only point.
    let mut fixed = LpProblem::new(2);
    fixed.set_objective(vec![3.0, 4.0]).unwrap();
    fixed
        .add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 10.0)
        .unwrap();
    fixed.set_bounds(0, 1.0, 1.0).unwrap();
    fixed.set_bounds(1, 2.0, 2.0).unwrap();
    assert_backends_agree(&fixed, "fully fixed variables");
    let revised = solve(&fixed, Solver::Revised).unwrap();
    assert_eq!(revised.status, LpStatus::Optimal);
    assert!((revised.objective - 11.0).abs() < 1e-9);

    // Conflicting singleton rows: infeasible, and every backend says so.
    let mut squeezed = LpProblem::new(1);
    squeezed.set_objective(vec![1.0]).unwrap();
    squeezed
        .add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
        .unwrap();
    squeezed
        .add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 2.0)
        .unwrap();
    let revised = solve(&squeezed, Solver::Revised).unwrap();
    assert_eq!(revised.status, LpStatus::Infeasible);

    // Redundant duplicated rows make the basis degenerate; termination
    // and agreement must survive the ties.
    let mut degenerate = LpProblem::new(2);
    degenerate.set_objective(vec![-1.0, -1.0]).unwrap();
    for _ in 0..3 {
        degenerate
            .add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 2.0)
            .unwrap();
    }
    degenerate
        .add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 2.0)
        .unwrap();
    assert_backends_agree(&degenerate, "duplicated degenerate rows");

    // A vacuous row (zero coefficient): the only row a problem with no
    // real constraints can carry into the standard form.
    let mut vacuous = LpProblem::new(1);
    vacuous.set_objective(vec![1.0]).unwrap();
    vacuous
        .add_constraint(vec![(0, 0.0)], ConstraintSense::Le, 1.0)
        .unwrap();
    vacuous.set_bounds(0, 0.5, 2.0).unwrap();
    assert_backends_agree(&vacuous, "vacuous row");
}

/// The random family from the property suite: feasible at the origin,
/// bounded in `[0,1]^n`.
fn random_lp(rng: &mut ChaCha8Rng) -> LpProblem {
    let n = rng.gen_range(2usize..8);
    let m = rng.gen_range(1usize..5);
    let mut lp = LpProblem::new(n);
    lp.set_objective((0..n).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .unwrap();
    for _ in 0..m {
        let terms: Vec<(usize, f64)> = (0..n).map(|j| (j, rng.gen_range(-2.0..2.0))).collect();
        lp.add_constraint(terms, ConstraintSense::Le, rng.gen_range(0.5..6.0))
            .unwrap();
    }
    for v in 0..n {
        lp.set_bounds(v, 0.0, 1.0).unwrap();
    }
    lp
}

/// `random_lp` plus a fixed variable and a singleton row. The fixed
/// variable shifts every row's right-hand side, so the origin is no
/// longer a known feasible point: backends must agree on the status
/// before objectives are compared.
fn random_with_fixed_and_singleton(rng: &mut ChaCha8Rng) -> LpProblem {
    let mut lp = random_lp(rng);
    lp.set_bounds(0, 0.5, 0.5).unwrap();
    lp.add_constraint(vec![(1, 1.0)], ConstraintSense::Le, rng.gen_range(0.3..1.0))
        .unwrap();
    lp
}

#[test]
fn revised_agrees_with_both_oracles_on_random_instances() {
    run_cases("revised_vs_oracles", 64, |rng| {
        let lp = random_lp(rng);
        let dense = solve(&lp, Solver::Simplex).map_err(|e| e.to_string())?;
        let revised = solve(&lp, Solver::Revised).map_err(|e| e.to_string())?;
        prop_assert_eq!(dense.status, LpStatus::Optimal);
        prop_assert_eq!(revised.status, LpStatus::Optimal);
        let scale = 1.0 + dense.objective.abs();
        prop_assert!(
            (revised.objective - dense.objective).abs() < 1e-6 * scale,
            "dense {} vs revised {}",
            dense.objective,
            revised.objective
        );
        prop_assert!(lp.max_violation(&revised.x) < 1e-6);

        // Second family: fixed columns take the interior-point method
        // through its reduced (active-column) form.
        let lp = random_with_fixed_and_singleton(rng);
        let dense = solve(&lp, Solver::Simplex).map_err(|e| e.to_string())?;
        let revised = solve(&lp, Solver::Revised).map_err(|e| e.to_string())?;
        let ipm = solve(&lp, Solver::InteriorPoint).map_err(|e| e.to_string())?;
        prop_assert_eq!(revised.status, dense.status);
        prop_assert_eq!(ipm.status, dense.status);
        if dense.status == LpStatus::Optimal {
            let scale = 1.0 + dense.objective.abs();
            for (name, sol) in [("revised", &revised), ("interior-point", &ipm)] {
                prop_assert!(
                    (sol.objective - dense.objective).abs() < 1e-6 * scale,
                    "dense {} vs {name} {}",
                    dense.objective,
                    sol.objective
                );
                prop_assert!(
                    lp.max_violation(&sol.x) < 1e-6,
                    "{name} point violates the problem by {}",
                    lp.max_violation(&sol.x)
                );
            }
        }
        Ok(())
    });
}

#[test]
fn warm_started_solves_match_cold_solves_on_random_instances() {
    run_cases("revised_warm_vs_cold", 48, |rng| {
        // A base instance and a same-shape neighbor (what adjacent sweep
        // points look like): chain the base's basis into the neighbor and
        // demand the cold answer.
        let base = random_lp(rng);
        let mut neighbor = base.clone();
        let nudge = rng.gen_range(-0.2..0.2);
        let n = neighbor.num_vars();
        let mut objective = neighbor.objective().to_vec();
        objective[rng.gen_range(0..n)] += nudge;
        neighbor
            .set_objective(objective)
            .map_err(|e| e.to_string())?;

        let seed = solve_from(&base, None).map_err(|e| e.to_string())?;
        prop_assert_eq!(seed.solution.status, LpStatus::Optimal);
        let Some(basis) = seed.basis else {
            return Ok(()); // no exportable basis (artificial stuck); nothing to chain
        };
        let warm = solve_revised_from(&neighbor, Some(&basis)).map_err(|e| e.to_string())?;
        let cold = solve_revised_from(&neighbor, None).map_err(|e| e.to_string())?;
        prop_assert_eq!(warm.solution.status, cold.solution.status);
        if cold.solution.status == LpStatus::Optimal {
            let scale = 1.0 + cold.solution.objective.abs();
            prop_assert!(
                (warm.solution.objective - cold.solution.objective).abs() < 1e-7 * scale,
                "warm {} vs cold {} (warm_used: {})",
                warm.solution.objective,
                cold.solution.objective,
                warm.warm_used
            );
            prop_assert!(neighbor.max_violation(&warm.solution.x) < 1e-6);
        }
        Ok(())
    });
}
