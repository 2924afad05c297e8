//! Mehrotra predictor–corrector primal–dual interior-point method.
//!
//! This is the "interior points method" the paper's LP-HTA Step 1 calls for
//! (it cites Karmarkar's polynomial-time algorithm; Mehrotra's
//! predictor–corrector is the modern practical descendant used by every
//! production LP solver). It operates on the same [`StandardForm`]
//! `min cᵀx, Ax = b, 0 ≤ x ≤ u` as the simplex backend:
//!
//! * upper-bounded variables get a slack `w = u − x` with its own dual `s`;
//! * each Newton step reduces to the normal equations `A Θ Aᵀ Δy = r`,
//!   solved by dense Cholesky with adaptive diagonal regularization;
//! * the predictor chooses the centering parameter `σ = (μ_aff/μ)³`, the
//!   corrector re-solves with the second-order complementarity terms.

use crate::error::LpError;
use crate::matrix::{dot, norm_inf, Matrix};
use crate::problem::{LpProblem, LpSolution, LpStatus};
use crate::sparse::CscMatrix;
use crate::standard::StandardForm;

/// Tunable parameters of the interior-point solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpmOptions {
    /// Relative feasibility/optimality tolerance.
    pub tolerance: f64,
    /// Hard cap on Newton iterations.
    pub max_iterations: usize,
    /// Fraction of the maximal step actually taken (< 1 keeps iterates
    /// strictly interior).
    pub step_scale: f64,
}

impl Default for IpmOptions {
    fn default() -> Self {
        IpmOptions {
            tolerance: 1e-8,
            max_iterations: 200,
            step_scale: 0.9995,
        }
    }
}

/// Solves `lp` with default options.
///
/// # Errors
///
/// Returns [`LpError::NumericalFailure`] when the normal-equation systems
/// stay singular even after heavy regularization.
///
/// # Examples
///
/// ```
/// use linprog::{LpProblem, ConstraintSense, interior};
///
/// let mut lp = LpProblem::new(2);
/// lp.set_objective(vec![-1.0, -2.0])?;
/// lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)?;
/// lp.set_bounds(0, 0.0, 3.0)?;
/// lp.set_bounds(1, 0.0, 3.0)?;
/// let sol = interior::solve_interior_point(&lp)?;
/// assert!(sol.is_optimal());
/// assert!((sol.objective - (-7.0)).abs() < 1e-6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_interior_point(lp: &LpProblem) -> Result<LpSolution, LpError> {
    solve_interior_point_with(lp, IpmOptions::default())
}

/// Solves `lp` with explicit [`IpmOptions`].
///
/// # Errors
///
/// See [`solve_interior_point`].
pub fn solve_interior_point_with(lp: &LpProblem, opts: IpmOptions) -> Result<LpSolution, LpError> {
    let _timer = mec_obs::span("linprog/interior/solve");
    let sol = solve_inner(lp, opts)?;
    mec_obs::counter_add("linprog/interior/solves", 1);
    mec_obs::counter_add("linprog/interior/iterations", sol.iterations as u64);
    if sol.status == LpStatus::IterationLimit {
        mec_obs::counter_add("linprog/interior/iteration_limit", 1);
    }
    if mec_obs::enabled() {
        mec_obs::observe("linprog/interior/residual", lp.max_violation(&sol.x));
    }
    Ok(sol)
}

fn solve_inner(lp: &LpProblem, opts: IpmOptions) -> Result<LpSolution, LpError> {
    // Once per solve, so it nests under linprog/interior/solve without
    // flooding the flight-recorder ring the way a per-iteration span would.
    let presolve_timer = mec_obs::span("linprog/interior/presolve");
    let sf = StandardForm::from_problem(lp);

    // Presolve: columns fixed at zero (upper bound ~ 0 after the lower-bound
    // shift) have an empty relative interior and would keep the barrier from
    // converging; drop them and scatter zeros back afterwards. LP-HTA
    // produces such columns whenever a site is deadline-infeasible.
    let active: Vec<usize> = (0..sf.num_cols())
        .filter(|&j| sf.upper[j] > 1e-12)
        .collect();
    if active.len() == sf.num_cols() {
        drop(presolve_timer);
        let mut ipm = Ipm::new(&sf, opts);
        return ipm.run(&sf);
    }
    mec_obs::counter_add("linprog/interior/presolve/reduced", 1);

    let width = active.len().max(1);
    let mut columns = vec![Vec::new(); width];
    let mut c = vec![0.0; width];
    let mut upper = vec![f64::INFINITY; width];
    for (k, &j) in active.iter().enumerate() {
        let (rows, vals) = sf.a.col(j);
        columns[k] = rows.iter().copied().zip(vals.iter().copied()).collect();
        c[k] = sf.c[j];
        upper[k] = sf.upper[j];
    }
    let reduced = StandardForm {
        a: CscMatrix::from_columns(sf.num_rows(), &columns),
        b: sf.b.clone(),
        c,
        upper,
        num_structural: width,
        shift: vec![0.0; width],
        objective_offset: 0.0,
    };
    drop(presolve_timer);
    let mut ipm = Ipm::new(&reduced, opts);
    let inner = ipm.run(&reduced)?;

    // Scatter back to the full standard-form coordinates.
    let mut x_std = vec![0.0; sf.num_cols()];
    for (k, &j) in active.iter().enumerate() {
        x_std[j] = inner.x.get(k).copied().unwrap_or(0.0);
    }
    let x = sf.recover(&x_std);
    let objective = sf.original_objective(&x_std);
    Ok(LpSolution {
        status: inner.status,
        x,
        objective,
        iterations: inner.iterations,
        duals: inner.duals.clone(),
    })
}

/// One Newton direction `(Δx, Δw, Δy, Δz, Δs)`.
type Direction = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

struct Ipm {
    opts: IpmOptions,
    a: Matrix,
    b: Vec<f64>,
    c: Vec<f64>,
    upper: Vec<f64>,
    n: usize,
    m: usize,
    // Primal and dual iterates.
    x: Vec<f64>,
    w: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    s: Vec<f64>,
    iterations: usize,
}

impl Ipm {
    fn new(sf: &StandardForm, opts: IpmOptions) -> Ipm {
        let m = sf.num_rows();
        let n = sf.num_cols();
        let upper = sf.upper.clone();

        // Simple well-scaled interior starting point.
        let b_scale = 1.0 + norm_inf(&sf.b);
        let mut x = vec![b_scale.max(1.0); n];
        let mut w = vec![0.0; n];
        for j in 0..n {
            if upper[j].is_finite() {
                x[j] = (upper[j] * 0.5).max(upper[j].min(1e-4));
                if x[j] <= 0.0 {
                    x[j] = 1e-8;
                }
                w[j] = (upper[j] - x[j]).max(1e-8);
            }
        }
        let z = vec![1.0 + norm_inf(&sf.c); n];
        let s: Vec<f64> = (0..n)
            .map(|j| {
                if upper[j].is_finite() {
                    1.0 + norm_inf(&sf.c)
                } else {
                    0.0
                }
            })
            .collect();

        Ipm {
            opts,
            a: sf.a.to_dense(),
            b: sf.b.clone(),
            c: sf.c.clone(),
            upper,
            n,
            m,
            x,
            w,
            y: vec![0.0; m],
            z,
            s,
            iterations: 0,
        }
    }

    fn bounded(&self, j: usize) -> bool {
        self.upper[j].is_finite()
    }

    fn mu(&self) -> f64 {
        let mut total = dot(&self.x, &self.z);
        let mut count = self.n;
        for j in 0..self.n {
            if self.bounded(j) {
                total += self.w[j] * self.s[j];
                count += 1;
            }
        }
        total / count as f64
    }

    fn residuals(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        // r_p = b − A x
        let ax = self.a.mul_vec(&self.x);
        let r_p: Vec<f64> = self.b.iter().zip(ax.iter()).map(|(b, a)| b - a).collect();
        // r_u = u − x − w  (bounded columns only)
        let r_u: Vec<f64> = (0..self.n)
            .map(|j| {
                if self.bounded(j) {
                    self.upper[j] - self.x[j] - self.w[j]
                } else {
                    0.0
                }
            })
            .collect();
        // r_d = c − Aᵀy − z + s
        let aty = self.a.mul_vec_transposed(&self.y);
        let r_d: Vec<f64> = (0..self.n)
            .map(|j| self.c[j] - aty[j] - self.z[j] + self.s[j])
            .collect();
        (r_p, r_u, r_d)
    }

    fn converged(&self, r_p: &[f64], r_u: &[f64], r_d: &[f64]) -> bool {
        let tol = self.opts.tolerance;
        let primal_ok = norm_inf(r_p) <= tol * (1.0 + norm_inf(&self.b));
        let upper_ok = norm_inf(r_u) <= tol * (1.0 + norm_inf(&self.upper_finite()));
        let dual_ok = norm_inf(r_d) <= tol * (1.0 + norm_inf(&self.c));
        let p_obj = dot(&self.c, &self.x);
        let d_obj = dot(&self.b, &self.y)
            - (0..self.n)
                .filter(|&j| self.bounded(j))
                .map(|j| self.upper[j] * self.s[j])
                .sum::<f64>();
        let gap_ok = (p_obj - d_obj).abs() <= tol * (1.0 + p_obj.abs());
        primal_ok && upper_ok && dual_ok && gap_ok
    }

    fn upper_finite(&self) -> Vec<f64> {
        self.upper
            .iter()
            .map(|u| if u.is_finite() { *u } else { 0.0 })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn newton_direction(
        &self,
        chol: &Matrix,
        theta_inv: &[f64],
        r_p: &[f64],
        r_u: &[f64],
        r_d: &[f64],
        r_xz: &[f64],
        r_ws: &[f64],
    ) -> Direction {
        // rhs_x[j] = r_d − r_xz/x + (r_ws − s·r_u)/w  (bounded part optional)
        let mut rhs_x = vec![0.0; self.n];
        for j in 0..self.n {
            let mut v = r_d[j] - r_xz[j] / self.x[j];
            if self.bounded(j) {
                v += (r_ws[j] - self.s[j] * r_u[j]) / self.w[j];
            }
            rhs_x[j] = v;
        }
        // Normal equations: (A Θ Aᵀ) Δy = r_p + A Θ rhs_x, Θ = D⁻¹.
        let mut rhs_y = vec![0.0; self.m];
        let scaled: Vec<f64> = (0..self.n).map(|j| theta_inv[j] * rhs_x[j]).collect();
        let a_scaled = self.a.mul_vec(&scaled);
        for i in 0..self.m {
            rhs_y[i] = r_p[i] + a_scaled[i];
        }
        let dy = Matrix::cholesky_solve(chol, &rhs_y);

        // Δx = Θ (AᵀΔy − rhs_x)
        let at_dy = self.a.mul_vec_transposed(&dy);
        let dx: Vec<f64> = (0..self.n)
            .map(|j| theta_inv[j] * (at_dy[j] - rhs_x[j]))
            .collect();

        // Δz = (r_xz − z Δx)/x ; Δw = r_u − Δx ; Δs = (r_ws − s Δw)/w
        let mut dz = vec![0.0; self.n];
        let mut dw = vec![0.0; self.n];
        let mut ds = vec![0.0; self.n];
        for j in 0..self.n {
            dz[j] = (r_xz[j] - self.z[j] * dx[j]) / self.x[j];
            if self.bounded(j) {
                dw[j] = r_u[j] - dx[j];
                ds[j] = (r_ws[j] - self.s[j] * dw[j]) / self.w[j];
            }
        }
        (dx, dw, dy, dz, ds)
    }

    /// Largest `α ∈ (0, 1]` keeping `v + α dv > 0` componentwise over the
    /// positive variables.
    fn max_step(&self, primal: bool, dx: &[f64], dw: &[f64], dz: &[f64], ds: &[f64]) -> f64 {
        let mut alpha = 1.0_f64;
        for j in 0..self.n {
            if primal {
                if dx[j] < 0.0 {
                    alpha = alpha.min(-self.x[j] / dx[j]);
                }
                if self.bounded(j) && dw[j] < 0.0 {
                    alpha = alpha.min(-self.w[j] / dw[j]);
                }
            } else {
                if dz[j] < 0.0 {
                    alpha = alpha.min(-self.z[j] / dz[j]);
                }
                if self.bounded(j) && ds[j] < 0.0 {
                    alpha = alpha.min(-self.s[j] / ds[j]);
                }
            }
        }
        alpha
    }

    fn run(&mut self, sf: &StandardForm) -> Result<LpSolution, LpError> {
        for iter in 0..self.opts.max_iterations {
            self.iterations = iter + 1;
            let (r_p, r_u, r_d) = self.residuals();
            if self.converged(&r_p, &r_u, &r_d) {
                return Ok(self.solution(sf, LpStatus::Optimal));
            }

            // Diagonal scaling D = Z/X + S/W; Θ = D⁻¹ (clamped for safety).
            let mut theta_inv = vec![0.0; self.n];
            for j in 0..self.n {
                let mut d = self.z[j] / self.x[j];
                if self.bounded(j) {
                    d += self.s[j] / self.w[j];
                }
                theta_inv[j] = (1.0 / d).clamp(1e-14, 1e14);
            }

            // Factor A Θ Aᵀ, regularizing on failure. Counters, not spans:
            // this runs every Newton iteration, and per-iteration events
            // would evict the coarse spans from the flight-recorder ring.
            mec_obs::counter_add("linprog/interior/factorizations", 1);
            let mut gram = self.a.scaled_gram(&theta_inv);
            let mut reg = 0.0;
            let chol = loop {
                if let Some(l) = gram.cholesky() {
                    break l;
                }
                mec_obs::counter_add("linprog/interior/regularizations", 1);
                reg = if reg == 0.0 {
                    1e-10 * (1.0 + gram.max_abs())
                } else {
                    reg * 100.0
                };
                if reg > 1e6 * (1.0 + gram.max_abs()) {
                    return Err(LpError::NumericalFailure(
                        "normal equations stayed singular despite regularization",
                    ));
                }
                gram.add_diagonal(reg);
            };

            let mu = self.mu();

            // Predictor (affine-scaling) direction: σ = 0.
            let r_xz_aff: Vec<f64> = (0..self.n).map(|j| -self.x[j] * self.z[j]).collect();
            let r_ws_aff: Vec<f64> = (0..self.n)
                .map(|j| {
                    if self.bounded(j) {
                        -self.w[j] * self.s[j]
                    } else {
                        0.0
                    }
                })
                .collect();
            let (dx_a, dw_a, _dy_a, dz_a, ds_a) =
                self.newton_direction(&chol, &theta_inv, &r_p, &r_u, &r_d, &r_xz_aff, &r_ws_aff);

            let ap = self.max_step(true, &dx_a, &dw_a, &dz_a, &ds_a);
            let ad = self.max_step(false, &dx_a, &dw_a, &dz_a, &ds_a);

            // μ after the affine step → centering parameter σ.
            let mut mu_aff_total = 0.0;
            let mut count = 0usize;
            for j in 0..self.n {
                mu_aff_total += (self.x[j] + ap * dx_a[j]) * (self.z[j] + ad * dz_a[j]);
                count += 1;
                if self.bounded(j) {
                    mu_aff_total += (self.w[j] + ap * dw_a[j]) * (self.s[j] + ad * ds_a[j]);
                    count += 1;
                }
            }
            let mu_aff = (mu_aff_total / count as f64).max(0.0);
            let sigma = if mu > 0.0 {
                (mu_aff / mu).powi(3).clamp(0.0, 1.0)
            } else {
                0.0
            };

            // Corrector: include second-order terms.
            let r_xz: Vec<f64> = (0..self.n)
                .map(|j| sigma * mu - self.x[j] * self.z[j] - dx_a[j] * dz_a[j])
                .collect();
            let r_ws: Vec<f64> = (0..self.n)
                .map(|j| {
                    if self.bounded(j) {
                        sigma * mu - self.w[j] * self.s[j] - dw_a[j] * ds_a[j]
                    } else {
                        0.0
                    }
                })
                .collect();
            let (dx, dw, dy, dz, ds) =
                self.newton_direction(&chol, &theta_inv, &r_p, &r_u, &r_d, &r_xz, &r_ws);

            let ap = (self.opts.step_scale * self.max_step(true, &dx, &dw, &dz, &ds)).min(1.0);
            let ad = (self.opts.step_scale * self.max_step(false, &dx, &dw, &dz, &ds)).min(1.0);

            for j in 0..self.n {
                self.x[j] += ap * dx[j];
                self.z[j] += ad * dz[j];
                if self.bounded(j) {
                    self.w[j] += ap * dw[j];
                    self.s[j] += ad * ds[j];
                }
            }
            for i in 0..self.m {
                self.y[i] += ad * dy[i];
            }
        }
        Ok(self.solution(sf, LpStatus::IterationLimit))
    }

    fn solution(&self, sf: &StandardForm, status: LpStatus) -> LpSolution {
        // Snap tiny interior residue to the bounds before reporting.
        let snapped: Vec<f64> = (0..self.n)
            .map(|j| {
                let mut v = self.x[j];
                if v < 1e-9 {
                    v = 0.0;
                }
                if self.bounded(j) && (self.upper[j] - v).abs() < 1e-9 {
                    v = self.upper[j];
                }
                v
            })
            .collect();
        let x = sf.recover(&snapped);
        let objective = sf.original_objective(&snapped);
        let duals = if status == LpStatus::Optimal {
            Some(self.y.clone())
        } else {
            None
        };
        LpSolution {
            status,
            x,
            objective,
            iterations: self.iterations,
            duals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ConstraintSense;
    use crate::simplex::solve_simplex;

    #[test]
    fn agrees_with_simplex_on_triangle() {
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![-1.0, -2.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        lp.set_bounds(0, 0.0, 3.0).unwrap();
        lp.set_bounds(1, 0.0, 3.0).unwrap();
        let ipm = solve_interior_point(&lp).unwrap();
        let spx = solve_simplex(&lp).unwrap();
        assert!(ipm.is_optimal());
        assert!((ipm.objective - spx.objective).abs() < 1e-6);
    }

    #[test]
    fn equality_and_bounds() {
        // min 2x + 3y + z  s.t.  x + y + z = 1, 0 <= each <= 1 → z = 1.
        let mut lp = LpProblem::new(3);
        lp.set_objective(vec![2.0, 3.0, 1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintSense::Eq, 1.0)
            .unwrap();
        for v in 0..3 {
            lp.set_bounds(v, 0.0, 1.0).unwrap();
        }
        let sol = solve_interior_point(&lp).unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective - 1.0).abs() < 1e-6);
        assert!((sol.x[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn degenerate_bounds_fixed_variable() {
        // A variable fixed by bounds: 0 <= x <= 0.
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![-5.0, -1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 2.0)
            .unwrap();
        lp.set_bounds(0, 0.0, 0.0).unwrap();
        lp.set_bounds(1, 0.0, 5.0).unwrap();
        let sol = solve_interior_point(&lp).unwrap();
        assert!(sol.is_optimal());
        assert!(sol.x[0].abs() < 1e-6);
        assert!((sol.objective - (-2.0)).abs() < 1e-5);
    }

    #[test]
    fn respects_iteration_limit_option() {
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![1.0, 1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Ge, 1.0)
            .unwrap();
        let opts = IpmOptions {
            max_iterations: 1,
            ..IpmOptions::default()
        };
        let sol = solve_interior_point_with(&lp, opts).unwrap();
        assert_eq!(sol.status, LpStatus::IterationLimit);
    }

    #[test]
    fn iteration_limit_is_recorded_as_an_obs_counter() {
        let _guard = mec_obs::TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        mec_obs::reset();
        mec_obs::set_enabled(true);
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![1.0, 1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Ge, 1.0)
            .unwrap();
        let opts = IpmOptions {
            max_iterations: 1,
            ..IpmOptions::default()
        };
        let sol = solve_interior_point_with(&lp, opts).unwrap();
        mec_obs::set_enabled(false);
        let snap = mec_obs::snapshot();
        assert_eq!(sol.status, LpStatus::IterationLimit);
        // Other tests may record concurrently while tracing is on, so the
        // counters are lower-bounded rather than matched exactly.
        assert!(
            snap.counter("linprog/interior/iteration_limit")
                .unwrap_or(0)
                >= 1
        );
        assert!(snap.counter("linprog/interior/solves").unwrap_or(0) >= 1);
        assert!(snap.counter("linprog/interior/iterations").unwrap_or(0) >= 1);
    }

    #[test]
    fn larger_random_problem_matches_simplex() {
        // A pseudo-random feasible LP compared against the simplex answer.
        // Deterministic LCG so the test is stable.
        let mut seed = 0x2545f4914f6cdd1d_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 20;
        let m = 8;
        let mut lp = LpProblem::new(n);
        let c: Vec<f64> = (0..n).map(|_| next() * 4.0 - 2.0).collect();
        lp.set_objective(c).unwrap();
        for _ in 0..m {
            let terms: Vec<(usize, f64)> = (0..n).map(|j| (j, next() * 2.0)).collect();
            // rhs large enough to be feasible at x = 0.
            lp.add_constraint(terms, ConstraintSense::Le, 5.0 + next() * 5.0)
                .unwrap();
        }
        for v in 0..n {
            lp.set_bounds(v, 0.0, 1.0).unwrap();
        }
        let ipm = solve_interior_point(&lp).unwrap();
        let spx = solve_simplex(&lp).unwrap();
        assert!(ipm.is_optimal(), "ipm status {:?}", ipm.status);
        assert!(spx.is_optimal());
        assert!(
            (ipm.objective - spx.objective).abs() < 1e-5 * (1.0 + spx.objective.abs()),
            "ipm {} vs simplex {}",
            ipm.objective,
            spx.objective
        );
    }
}
