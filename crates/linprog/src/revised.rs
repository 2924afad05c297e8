//! Sparse revised simplex with bounded variables and warm starts.
//!
//! Algorithmically this mirrors [`crate::simplex`] — same two phases,
//! Dantzig pricing with Bland's anti-cycling fallback, bound flips, and
//! tolerances — but the substrate is sparse: it reads the
//! [`StandardForm`]'s [`CscMatrix`] directly, and instead of maintaining a dense `m × m` basis
//! inverse it factors only the basis, with a sparse LU that reads the
//! basis columns straight from the CSC matrix
//! ([`crate::basis::LuFactors`]), and extends the factorization between
//! periodic refactorizations with a product-form eta file
//! ([`crate::basis::BasisFactor`]). Nothing `m × m` is ever allocated.
//! Pricing is a sparse `Aᵀy` product, so an iteration costs
//! O(nnz(A) + nnz(L+U) + m) plus the eta file, instead of the dense
//! method's O(n·m + m²).
//!
//! On top of the cold solve, [`solve_revised_from`] accepts a [`Basis`]
//! from a previous solve of a *similar* problem (same shape, nearby data
//! — e.g. the previous point of a bench sweep). When the warm basis is
//! still nonsingular and primal feasible, phase 1 is skipped entirely and
//! the probe's fresh LU is adopted, so the refactorization countdown
//! starts at zero; otherwise the solver falls back to a cold start. Every
//! solve returns its final basis so callers can chain.
//!
//! **Determinism:** given the same problem and the same (or no) warm
//! basis, the solve is bit-deterministic: it runs on the calling thread,
//! so callers that solve many LPs in parallel get the same answers at any
//! thread count.

use crate::basis::{BasisFactor, LuFactors};
use crate::error::LpError;
use crate::problem::{LpProblem, LpSolution, LpStatus};
use crate::sparse::CscMatrix;
use crate::standard::StandardForm;

const PIVOT_TOL: f64 = 1e-9;
const COST_TOL: f64 = 1e-7;
const FEAS_TOL: f64 = 1e-7;
const REFACTOR_EVERY: usize = 128;
/// After this many consecutive degenerate pivots, switch to Bland's rule.
const BLAND_TRIGGER: usize = 64;

/// Where one standard-form column rests in a basis snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisVarStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
}

/// A simplex basis snapshot over the standard-form columns (structural
/// variables followed by slacks; artificials are never part of a
/// snapshot). Opaque beyond its dimensions: obtain one from
/// [`solve_revised_from`] and feed it back to warm-start a similar
/// problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Constraint rows of the problem the snapshot came from.
    pub num_rows: usize,
    /// Standard-form columns (structural + slacks).
    pub num_cols: usize,
    statuses: Vec<BasisVarStatus>,
}

impl Basis {
    /// Per-column statuses (length [`Self::num_cols`]).
    #[must_use]
    pub fn statuses(&self) -> &[BasisVarStatus] {
        &self.statuses
    }
}

/// Result of [`solve_revised_from`]: the solution, the final basis for
/// chaining, and whether the supplied warm basis was actually used.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The solve result.
    pub solution: LpSolution,
    /// The final basis, when one exists over the real columns (absent
    /// when an artificial variable remained basic, e.g. on infeasible
    /// problems).
    pub basis: Option<Basis>,
    /// True when the warm basis was accepted and phase 1 was skipped.
    pub warm_used: bool,
    /// Why a supplied warm basis was structurally rejected, when it was
    /// ([`LpError::BasisShapeMismatch`] after a churn event changed the
    /// problem shape, or after its public dimensions were tampered out of
    /// sync with the status vector). `None` when no basis was supplied,
    /// it was accepted, or it was declined for silent numerical or
    /// feasibility reasons. A rejection is not a failure: the solve
    /// proceeded from the crash basis.
    pub warm_rejection: Option<LpError>,
}

/// Solves `lp` with the sparse revised simplex method (cold start).
///
/// # Errors
///
/// Returns [`LpError::NumericalFailure`] when basis factorization fails
/// irrecoverably; infeasibility/unboundedness are reported via the status.
pub fn solve_revised(lp: &LpProblem) -> Result<LpSolution, LpError> {
    solve_revised_from(lp, None).map(|o| o.solution)
}

/// Solves `lp`, optionally warm-starting from a previous [`Basis`].
///
/// # Errors
///
/// Returns [`LpError::NumericalFailure`] when basis factorization fails
/// irrecoverably (warm-start rejection is *not* an error — it falls back
/// to a cold start).
pub fn solve_revised_from(lp: &LpProblem, warm: Option<&Basis>) -> Result<SolveOutcome, LpError> {
    let _timer = mec_obs::span("linprog/revised/solve");
    let started = std::time::Instant::now();
    let sf = StandardForm::from_problem(lp);
    let mut state = RevisedState::new(&sf);
    let mut warm_used = false;
    let mut warm_rejection = None;
    if let Some(basis) = warm {
        mec_obs::counter_add("linprog/revised/warm/attempts", 1);
        match state.try_warm_start(basis) {
            Ok(true) => {
                warm_used = true;
                mec_obs::counter_add("linprog/revised/warm/accepted", 1);
            }
            Ok(false) => {}
            Err(e) => {
                // Structural mismatch (churned problem shape or tampered
                // dimensions): record why, then solve from the crash
                // basis like any other cold start.
                mec_obs::counter_add("linprog/revised/warm/shape_rejections", 1);
                warm_rejection = Some(e);
            }
        }
    }
    let sol = state.run(&sf, warm_used)?;

    mec_obs::counter_add("linprog/revised/solves", 1);
    mec_obs::counter_add("linprog/revised/iterations", sol.iterations as u64);
    mec_obs::counter_add("linprog/revised/pivots", state.pivots as u64);
    mec_obs::counter_add(
        "linprog/revised/factorizations",
        state.factorizations as u64,
    );
    mec_obs::counter_add(
        "linprog/revised/refactorizations",
        state.refactorizations as u64,
    );
    mec_obs::counter_add("linprog/revised/eta_nnz", state.eta_nnz_pushed as u64);
    if sol.status == LpStatus::IterationLimit {
        mec_obs::counter_add("linprog/revised/iteration_limit", 1);
    }
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    if warm_used {
        mec_obs::counter_add("linprog/revised/warm/solves", 1);
        mec_obs::counter_add("linprog/revised/warm/solve_ns", elapsed_ns);
    } else {
        mec_obs::counter_add("linprog/revised/cold/solves", 1);
        mec_obs::counter_add("linprog/revised/cold/solve_ns", elapsed_ns);
    }
    if mec_obs::enabled() {
        mec_obs::observe("linprog/revised/residual", lp.max_violation(&sol.x));
        let which = if warm_used {
            "linprog/revised/warm/iterations"
        } else {
            "linprog/revised/cold/iterations"
        };
        mec_obs::observe(which, sol.iterations as f64);
    }

    let basis = state.export_basis();
    Ok(SolveOutcome {
        solution: sol,
        basis,
        warm_used,
        warm_rejection,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Basic(usize),
    AtLower,
    AtUpper,
}

struct RevisedState {
    /// Real columns (structural + slacks), *unflipped*; row flips are
    /// applied at the access points via `row_flip`.
    a: CscMatrix,
    /// Right-hand side, flipped nonnegative.
    b: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    num_real: usize,
    m: usize,
    n_total: usize,
    basis: Vec<usize>,
    state: Vec<VarState>,
    /// +1/−1 per row: flips applied so the rhs is nonnegative (duals are
    /// unflipped on the way out).
    row_flip: Vec<f64>,
    factor: BasisFactor,
    x_basic: Vec<f64>,
    pivots_since_refactor: usize,
    degenerate_streak: usize,
    iterations: usize,
    pivots: usize,
    /// LU factorizations performed (warm-start probe + refactorizations).
    factorizations: usize,
    /// Scheduled refactorizations triggered by the eta-file length.
    refactorizations: usize,
    /// Total eta nonzeros recorded across the solve.
    eta_nnz_pushed: usize,
}

impl RevisedState {
    fn new(sf: &StandardForm) -> RevisedState {
        let m = sf.num_rows();
        let num_real = sf.num_cols();
        let n_total = num_real + m;

        let mut b = sf.b.clone();
        let mut row_flip = vec![1.0; m];
        for i in 0..m {
            if b[i] < 0.0 {
                row_flip[i] = -1.0;
                b[i] = -b[i];
            }
        }

        let mut upper = sf.upper.clone();
        upper.extend(std::iter::repeat_n(f64::INFINITY, m));
        let mut cost = sf.c.clone();
        cost.extend(std::iter::repeat_n(0.0, m));

        // Crash basis: a unit singleton column — a slack, or a structural
        // variable appearing in exactly one row, like the uncapacitated
        // cloud fractions of the HTA relaxation — whose flipped
        // coefficient is exactly +1 and whose upper bound admits the
        // row's rhs can start basic in place of the row's artificial.
        // The basis matrix stays the identity (`x_B = b`, nothing to
        // factor) and phase 1 only has to clear the rows no singleton
        // covered — for the cluster relaxation that is usually none.
        let mut basis: Vec<usize> = (num_real..n_total).collect();
        for j in 0..num_real {
            let (rows, vals) = sf.a.col(j);
            if rows.len() != 1 {
                continue;
            }
            let r = rows[0];
            if vals[0] * row_flip[r] == 1.0 && basis[r] >= num_real && upper[j] >= b[r] {
                basis[r] = j;
            }
        }
        let mut state = vec![VarState::AtLower; n_total];
        for (row, &col) in basis.iter().enumerate() {
            state[col] = VarState::Basic(row);
            if col < num_real {
                // The displaced artificial is never needed: pin it so
                // pricing skips it even during phase 1.
                upper[num_real + row] = 0.0;
            }
        }

        RevisedState {
            x_basic: b.clone(),
            a: sf.a.clone(),
            b,
            upper,
            cost,
            num_real,
            m,
            n_total,
            basis,
            state,
            row_flip,
            factor: BasisFactor::identity(m),
            pivots_since_refactor: 0,
            degenerate_streak: 0,
            iterations: 0,
            pivots: 0,
            factorizations: 0,
            refactorizations: 0,
            eta_nnz_pushed: 0,
        }
    }

    /// Column `j` in flipped row space as `(row, value)` pairs: a column
    /// of the real matrix, or the unit column of an artificial.
    fn flipped_col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rows, vals) = if j < self.num_real {
            self.a.col(j)
        } else {
            (&[][..], &[][..])
        };
        let unit = (j >= self.num_real).then(|| (j - self.num_real, 1.0));
        rows.iter()
            .zip(vals)
            .map(|(&r, &v)| (r, v * self.row_flip[r]))
            .chain(unit)
    }

    /// Column `j` scattered into a dense buffer in flipped row space.
    fn scatter_flipped(&self, j: usize, out: &mut [f64]) {
        out.fill(0.0);
        for (r, v) in self.flipped_col(j) {
            out[r] = v;
        }
    }

    /// Factors the basis whose positions hold the columns `cols`. Counts
    /// the factors' nonzeros, and their time while tracing is on.
    fn factor_basis(&self, cols: &[usize]) -> Result<LuFactors, LpError> {
        let started = mec_obs::enabled().then(std::time::Instant::now);
        let lu = LuFactors::factor(self.m, cols.iter().map(|&j| self.flipped_col(j)));
        if let Some(t) = started {
            mec_obs::counter_add("linprog/revised/factor_ns", t.elapsed().as_nanos() as u64);
        }
        let lu = lu?;
        mec_obs::counter_add("linprog/revised/lu_nnz", lu.nnz() as u64);
        Ok(lu)
    }

    /// Attempts to adopt `warm` as the starting basis. On success
    /// (`Ok(true)`) the state is primal feasible with artificials pinned
    /// (phase 1 can be skipped); on a silent numerical or feasibility
    /// mismatch (`Ok(false)`) the cold-start state is left untouched. A
    /// *structural* mismatch — the basis was built for a different
    /// problem shape, or its public dimensions disagree with its own
    /// status vector — is the typed [`LpError::BasisShapeMismatch`]
    /// rejection: the caller records it and still proceeds cold.
    fn try_warm_start(&mut self, warm: &Basis) -> Result<bool, LpError> {
        // Dimensions AND internal consistency: `num_rows`/`num_cols` are
        // public, so a dimension check alone would still let a basis
        // whose status vector is shorter than its claimed width index out
        // of bounds below.
        if warm.num_rows != self.m
            || warm.num_cols != self.num_real
            || warm.statuses.len() != warm.num_cols
        {
            return Err(LpError::BasisShapeMismatch {
                basis_rows: warm.num_rows,
                basis_cols: warm.statuses.len(),
                lp_rows: self.m,
                lp_cols: self.num_real,
            });
        }
        let basic_cols: Vec<usize> = (0..self.num_real)
            .filter(|&j| warm.statuses[j] == BasisVarStatus::Basic)
            .collect();
        if basic_cols.len() != self.m {
            return Ok(false);
        }
        // AtUpper only makes sense against a finite bound.
        if (0..self.num_real)
            .any(|j| warm.statuses[j] == BasisVarStatus::AtUpper && !self.upper[j].is_finite())
        {
            return Ok(false);
        }

        self.factorizations += 1;
        let Ok(lu) = self.factor_basis(&basic_cols) else {
            return Ok(false);
        };

        // x_B = B⁻¹ (b − Σ_{j at upper} a_j u_j); accept only if within
        // bounds (primal feasible), so phase 1 is provably unnecessary.
        let mut rhs = self.b.clone();
        for j in 0..self.num_real {
            if warm.statuses[j] == BasisVarStatus::AtUpper {
                let u = self.upper[j];
                let (rows, vals) = self.a.col(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    rhs[r] -= v * self.row_flip[r] * u;
                }
            }
        }
        lu.solve(&mut rhs);
        // Per-column tolerances: bounded columns (the costed fractions,
        // spans of order 1) get a tight band so a stale basis cannot
        // smuggle in bound violations that depress the objective;
        // unbounded columns (slacks on byte-valued capacity rows) are
        // judged on the right-hand-side scale, where sub-ulp row noise is
        // harmless.
        let slack_tol = FEAS_TOL * (1.0 + crate::matrix::norm_inf(&self.b));
        for (k, &j) in basic_cols.iter().enumerate() {
            let ub = self.upper[j];
            let tol = if ub.is_finite() {
                FEAS_TOL * (1.0 + ub.abs())
            } else {
                slack_tol
            };
            if rhs[k] < -tol || (ub.is_finite() && rhs[k] > ub + tol) {
                return Ok(false);
            }
        }

        // Commit: adopt states, pin artificials out of the problem.
        for j in 0..self.num_real {
            self.state[j] = match warm.statuses[j] {
                BasisVarStatus::Basic => VarState::AtLower, // fixed below
                BasisVarStatus::AtLower => VarState::AtLower,
                BasisVarStatus::AtUpper => VarState::AtUpper,
            };
        }
        for (k, &j) in basic_cols.iter().enumerate() {
            self.state[j] = VarState::Basic(k);
        }
        for j in self.num_real..self.n_total {
            self.state[j] = VarState::AtLower;
            self.upper[j] = 0.0;
        }
        self.basis = basic_cols;
        self.x_basic = rhs;
        // Adopt the acceptance probe's LU directly instead of factoring
        // the same matrix a second time (this also removes the only
        // non-test `expect` this path used to carry).
        self.factor = BasisFactor::from_lu(lu);
        Ok(true)
    }

    fn run(&mut self, sf: &StandardForm, skip_phase1: bool) -> Result<LpSolution, LpError> {
        let limit = 200 * (self.m + self.n_total).max(100);

        if !skip_phase1 {
            // The crash basis often covers every row with a real column,
            // in which case the start is already feasible and phase 1
            // has nothing to minimize.
            if self.basis.iter().any(|&col| col >= self.num_real) {
                let p1 = self.optimize(Phase::One, limit)?;
                if p1 == RunOutcome::IterationLimit {
                    return Ok(self.solution(sf, LpStatus::IterationLimit));
                }
                let infeas: f64 = self
                    .basis
                    .iter()
                    .enumerate()
                    .filter(|&(_, &col)| col >= self.num_real)
                    .map(|(row, _)| self.x_basic[row])
                    .sum();
                if infeas > FEAS_TOL * (1.0 + crate::matrix::norm_inf(&self.b)) {
                    return Ok(self.solution(sf, LpStatus::Infeasible));
                }
                self.drive_out_artificials();
            }
            for j in self.num_real..self.n_total {
                self.upper[j] = 0.0;
            }
        }

        let p2 = self.optimize(Phase::Two, limit)?;
        let status = match p2 {
            RunOutcome::Optimal => LpStatus::Optimal,
            RunOutcome::Unbounded => LpStatus::Unbounded,
            RunOutcome::IterationLimit => LpStatus::IterationLimit,
        };
        Ok(self.solution(sf, status))
    }

    fn cost_of(&self, phase: Phase, j: usize) -> f64 {
        match phase {
            Phase::One => {
                if j >= self.num_real {
                    1.0
                } else {
                    0.0
                }
            }
            Phase::Two => self.cost[j],
        }
    }

    fn optimize(&mut self, phase: Phase, limit: usize) -> Result<RunOutcome, LpError> {
        let mut alpha = vec![0.0; self.m];
        loop {
            if self.iterations >= limit {
                return Ok(RunOutcome::IterationLimit);
            }
            self.iterations += 1;

            if self.pivots_since_refactor >= REFACTOR_EVERY {
                self.refactorize()?;
            }

            // Dual prices y = B⁻ᵀ c_B (flipped row space).
            let mut y: Vec<f64> = self
                .basis
                .iter()
                .map(|&col| self.cost_of(phase, col))
                .collect();
            self.factor.btran(&mut y);

            let use_bland = self.degenerate_streak >= BLAND_TRIGGER;
            let entering = self.price(phase, &y, use_bland);
            let Some(enter_col) = entering else {
                return Ok(RunOutcome::Optimal);
            };

            self.scatter_flipped(enter_col, &mut alpha);
            self.factor.ftran(&mut alpha);
            let from_lower = self.state[enter_col] == VarState::AtLower;

            match self.ratio_test(enter_col, &alpha, from_lower, use_bland) {
                Ratio::Unbounded => {
                    return Ok(match phase {
                        // Phase 1 is bounded below by zero; an unbounded
                        // ray here is a numerical artifact.
                        Phase::One => RunOutcome::IterationLimit,
                        Phase::Two => RunOutcome::Unbounded,
                    });
                }
                Ratio::BoundFlip(t) => {
                    self.apply_bound_flip(enter_col, &alpha, from_lower, t);
                }
                Ratio::Pivot { row, t } => {
                    self.apply_pivot(enter_col, &alpha, from_lower, row, t);
                }
            }
        }
    }

    /// Chooses the entering column; Dantzig rule normally, Bland's rule
    /// when a degenerate streak suggests cycling. Reduced costs over the
    /// real columns come from one sparse `Aᵀ(y ⊙ flip)` product.
    fn price(&self, phase: Phase, y: &[f64], bland: bool) -> Option<usize> {
        let yf: Vec<f64> = y
            .iter()
            .zip(self.row_flip.iter())
            .map(|(v, f)| v * f)
            .collect();
        let at_y = self.a.transpose_mul_vec(&yf);

        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.n_total {
            let dir = match self.state[j] {
                VarState::Basic(_) => continue,
                VarState::AtLower => 1.0,
                VarState::AtUpper => -1.0,
            };
            // Artificials never re-enter once pinned (upper == 0 at lower).
            if self.upper[j] <= 0.0 && self.state[j] == VarState::AtLower && j >= self.num_real {
                continue;
            }
            let d = if j < self.num_real {
                self.cost_of(phase, j) - at_y[j]
            } else {
                self.cost_of(phase, j) - y[j - self.num_real]
            };
            let improving = d * dir < -COST_TOL;
            if !improving {
                continue;
            }
            if bland {
                return Some(j);
            }
            let score = d.abs();
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((j, score));
            }
        }
        best.map(|(j, _)| j)
    }

    fn ratio_test(&self, enter_col: usize, alpha: &[f64], from_lower: bool, bland: bool) -> Ratio {
        // t is how far the entering variable moves away from its bound.
        let mut t_max = self.upper[enter_col];
        let mut leave: Option<usize> = None;

        for i in 0..self.m {
            let a_i = if from_lower { alpha[i] } else { -alpha[i] };
            // Basic value decreases toward 0 when a_i > 0, increases
            // toward its upper bound when a_i < 0.
            let (limit, active) = if a_i > PIVOT_TOL {
                (self.x_basic[i] / a_i, true)
            } else if a_i < -PIVOT_TOL {
                let ub = self.upper[self.basis[i]];
                if ub.is_finite() {
                    ((ub - self.x_basic[i]) / (-a_i), true)
                } else {
                    (f64::INFINITY, false)
                }
            } else {
                (f64::INFINITY, false)
            };
            if !active {
                continue;
            }
            let limit = limit.max(0.0);
            let replace = match leave {
                None => limit < t_max - PIVOT_TOL,
                Some(r) => {
                    limit < t_max - PIVOT_TOL
                        || (limit < t_max + PIVOT_TOL && bland && self.basis[i] < self.basis[r])
                }
            };
            if replace {
                t_max = limit.min(t_max);
                leave = Some(i);
            } else if leave.is_none() && limit <= t_max {
                t_max = limit;
                leave = Some(i);
            }
        }

        if t_max.is_infinite() {
            return Ratio::Unbounded;
        }
        match leave {
            Some(row) if t_max <= self.upper[enter_col] + PIVOT_TOL => {
                if t_max >= self.upper[enter_col] - PIVOT_TOL
                    && self.upper[enter_col].is_finite()
                    && self.upper[enter_col] <= t_max
                {
                    // The entering variable reaches its opposite bound
                    // first (or simultaneously): prefer the cheaper flip.
                    return Ratio::BoundFlip(self.upper[enter_col]);
                }
                Ratio::Pivot { row, t: t_max }
            }
            Some(row) => Ratio::Pivot { row, t: t_max },
            None => Ratio::BoundFlip(self.upper[enter_col]),
        }
    }

    fn apply_bound_flip(&mut self, col: usize, alpha: &[f64], from_lower: bool, t: f64) {
        let dir = if from_lower { 1.0 } else { -1.0 };
        for i in 0..self.m {
            self.x_basic[i] -= dir * t * alpha[i];
        }
        self.state[col] = if from_lower {
            VarState::AtUpper
        } else {
            VarState::AtLower
        };
        if t <= PIVOT_TOL {
            self.degenerate_streak += 1;
        } else {
            self.degenerate_streak = 0;
        }
    }

    fn apply_pivot(
        &mut self,
        enter_col: usize,
        alpha: &[f64],
        from_lower: bool,
        row: usize,
        t: f64,
    ) {
        let dir = if from_lower { 1.0 } else { -1.0 };
        let leaving_col = self.basis[row];
        self.pivots += 1;

        for i in 0..self.m {
            self.x_basic[i] -= dir * t * alpha[i];
        }
        let enter_value = if from_lower {
            t
        } else {
            self.upper[enter_col] - t
        };
        self.x_basic[row] = enter_value;

        // Leaving variable rests at whichever bound it hit.
        let a_r = if from_lower { alpha[row] } else { -alpha[row] };
        self.state[leaving_col] = if a_r > 0.0 {
            VarState::AtLower
        } else {
            VarState::AtUpper
        };
        self.state[enter_col] = VarState::Basic(row);
        self.basis[row] = enter_col;

        // Product-form update instead of a dense inverse row sweep.
        self.factor.push_eta(row, alpha);
        self.eta_nnz_pushed = self.eta_nnz_pushed.max(self.factor.eta_nnz());

        self.pivots_since_refactor += 1;
        if t <= PIVOT_TOL {
            self.degenerate_streak += 1;
        } else {
            self.degenerate_streak = 0;
        }
    }

    /// Pivots zero-valued artificial variables out of the basis where a
    /// nonzero pivot in a real column exists; fully redundant rows keep
    /// their artificial (pinned at zero).
    fn drive_out_artificials(&mut self) {
        let mut e_row = vec![0.0; self.m];
        let mut alpha = vec![0.0; self.m];
        for row in 0..self.m {
            if self.basis[row] < self.num_real {
                continue;
            }
            if self.x_basic[row].abs() > FEAS_TOL {
                continue; // handled by the infeasibility check
            }
            // Row `row` of B⁻¹, then flip-adjusted for sparse dots
            // against the unflipped columns.
            e_row.fill(0.0);
            e_row[row] = 1.0;
            self.factor.btran(&mut e_row);
            for i in 0..self.m {
                e_row[i] *= self.row_flip[i];
            }
            let candidate = (0..self.num_real).find(|&j| {
                matches!(self.state[j], VarState::AtLower | VarState::AtUpper)
                    && self.a.col_dot(j, &e_row).abs() > 1e-7
            });
            if let Some(j) = candidate {
                self.scatter_flipped(j, &mut alpha);
                self.factor.ftran(&mut alpha);
                let from_lower = self.state[j] == VarState::AtLower;
                self.apply_pivot(j, &alpha, from_lower, row, 0.0);
                // A degenerate pivot: fix the entering value explicitly.
                self.x_basic[row] = if from_lower { 0.0 } else { self.upper[j] };
            }
        }
    }

    fn refactorize(&mut self) -> Result<(), LpError> {
        self.factor = BasisFactor::from_lu(self.factor_basis(&self.basis)?);
        self.factorizations += 1;
        self.refactorizations += 1;
        // Recompute basic values from scratch: x_B = B⁻¹ (b − N x_N).
        let mut rhs = self.b.clone();
        for j in 0..self.n_total {
            if self.state[j] == VarState::AtUpper && self.upper[j] > 0.0 {
                let u = self.upper[j];
                for (r, v) in self.flipped_col(j) {
                    rhs[r] -= v * u;
                }
            }
        }
        self.factor.ftran(&mut rhs);
        self.x_basic = rhs;
        self.pivots_since_refactor = 0;
        Ok(())
    }

    fn solution(&self, sf: &StandardForm, status: LpStatus) -> LpSolution {
        // Duals: y = B⁻ᵀ c_B in the flipped row space; undo the flips so
        // duals refer to the user's right-hand sides.
        let duals = if status == LpStatus::Optimal {
            let mut y: Vec<f64> = self.basis.iter().map(|&col| self.cost[col]).collect();
            self.factor.btran(&mut y);
            Some(
                y.iter()
                    .zip(self.row_flip.iter())
                    .map(|(v, f)| v * f)
                    .collect(),
            )
        } else {
            None
        };
        let mut x_std = vec![0.0; self.num_real];
        for (j, item) in x_std.iter_mut().enumerate() {
            *item = match self.state[j] {
                VarState::Basic(row) => self.x_basic[row].max(0.0),
                VarState::AtLower => 0.0,
                VarState::AtUpper => self.upper[j],
            };
        }
        let x = sf.recover(&x_std);
        let objective = sf.original_objective(&x_std);
        LpSolution {
            status,
            x,
            objective,
            iterations: self.iterations,
            duals,
        }
    }

    /// The final basis over the real columns; `None` when an artificial
    /// variable is still basic (no real-column basis exists).
    fn export_basis(&self) -> Option<Basis> {
        if self.basis.iter().any(|&col| col >= self.num_real) {
            return None;
        }
        let statuses: Vec<BasisVarStatus> = (0..self.num_real)
            .map(|j| match self.state[j] {
                VarState::Basic(_) => BasisVarStatus::Basic,
                VarState::AtLower => BasisVarStatus::AtLower,
                VarState::AtUpper => BasisVarStatus::AtUpper,
            })
            .collect();
        Some(Basis {
            num_rows: self.m,
            num_cols: self.num_real,
            statuses,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ratio {
    Pivot { row: usize, t: f64 },
    BoundFlip(f64),
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ConstraintSense;

    fn assert_optimal(sol: &LpSolution, objective: f64, tol: f64) {
        assert_eq!(
            sol.status,
            LpStatus::Optimal,
            "expected optimal, got {sol:?}"
        );
        assert!(
            (sol.objective - objective).abs() < tol,
            "objective {} != expected {objective}",
            sol.objective
        );
    }

    fn triangle_lp() -> LpProblem {
        // min -x - 2y s.t. x + y <= 4, 0 <= x,y <= 3. Optimum (1,3): -7.
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![-1.0, -2.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        lp.set_bounds(0, 0.0, 3.0).unwrap();
        lp.set_bounds(1, 0.0, 3.0).unwrap();
        lp
    }

    #[test]
    fn matches_dense_simplex_on_the_oracle_problems() {
        let sol = solve_revised(&triangle_lp()).unwrap();
        assert_optimal(&sol, -7.0, 1e-8);
        assert!((sol.x[0] - 1.0).abs() < 1e-8);
        assert!((sol.x[1] - 3.0).abs() < 1e-8);

        // Equalities: min x + y s.t. x + y = 2, x − y = 0 → 2.
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![1.0, 1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, 2.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintSense::Eq, 0.0)
            .unwrap();
        assert_optimal(&solve_revised(&lp).unwrap(), 2.0, 1e-8);

        // Lower-bound shift: min x + y s.t. x + y >= 4, x >= 1.5 → 4.
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![1.0, 1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Ge, 4.0)
            .unwrap();
        lp.set_bounds(0, 1.5, f64::INFINITY).unwrap();
        let sol = solve_revised(&lp).unwrap();
        assert_optimal(&sol, 4.0, 1e-8);
        assert!(sol.x[0] >= 1.5 - 1e-9);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 2.0)
            .unwrap();
        assert_eq!(solve_revised(&lp).unwrap().status, LpStatus::Infeasible);

        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![-1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 1.0)
            .unwrap();
        assert_eq!(solve_revised(&lp).unwrap().status, LpStatus::Unbounded);
    }

    #[test]
    fn transportation_problem_and_duals() {
        let cost = [2.0, 3.0, 1.0, 5.0, 4.0, 8.0];
        let mut lp = LpProblem::new(6);
        lp.set_objective(cost.to_vec()).unwrap();
        lp.add_constraint(
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            ConstraintSense::Le,
            20.0,
        )
        .unwrap();
        lp.add_constraint(
            vec![(3, 1.0), (4, 1.0), (5, 1.0)],
            ConstraintSense::Le,
            30.0,
        )
        .unwrap();
        lp.add_constraint(vec![(0, 1.0), (3, 1.0)], ConstraintSense::Eq, 10.0)
            .unwrap();
        lp.add_constraint(vec![(1, 1.0), (4, 1.0)], ConstraintSense::Eq, 25.0)
            .unwrap();
        lp.add_constraint(vec![(2, 1.0), (5, 1.0)], ConstraintSense::Eq, 15.0)
            .unwrap();
        let sol = solve_revised(&lp).unwrap();
        assert_optimal(&sol, 150.0, 1e-7);
        let duals = sol.duals.expect("optimal revised solve reports duals");
        assert_eq!(duals.len(), 5);
        // The dense oracle agrees on the duals' economics: ≤ supply rows
        // cannot have positive shadow prices in a minimization.
        assert!(duals[0] <= 1e-9 && duals[1] <= 1e-9, "{duals:?}");
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![-1.0, -1.0]).unwrap();
        for rhs in [2.0, 2.0, 2.0] {
            lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, rhs)
                .unwrap();
        }
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 2.0)
            .unwrap();
        lp.add_constraint(vec![(1, 1.0)], ConstraintSense::Le, 2.0)
            .unwrap();
        assert_optimal(&solve_revised(&lp).unwrap(), -2.0, 1e-8);
    }

    #[test]
    fn warm_start_from_own_basis_skips_phase_one() {
        let lp = triangle_lp();
        let cold = solve_revised_from(&lp, None).unwrap();
        assert!(!cold.warm_used);
        let basis = cold.basis.expect("optimal solve exports a basis");
        assert_eq!(basis.num_rows, 1);
        assert_eq!(basis.num_cols, 3); // 2 structural + 1 slack

        let warm = solve_revised_from(&lp, Some(&basis)).unwrap();
        assert!(warm.warm_used, "identical problem must accept the basis");
        assert_optimal(&warm.solution, -7.0, 1e-8);
        // Re-solving from the optimal basis needs only the optimality
        // check, far fewer iterations than the cold two-phase run.
        assert!(warm.solution.iterations < cold.solution.iterations);
    }

    #[test]
    fn warm_start_survives_a_data_perturbation() {
        let lp = triangle_lp();
        let basis = solve_revised_from(&lp, None).unwrap().basis.unwrap();

        // Same shape, slightly different rhs and costs: the old basis
        // stays feasible and the warm solve matches a cold solve.
        let mut nudged = LpProblem::new(2);
        nudged.set_objective(vec![-1.1, -1.9]).unwrap();
        nudged
            .add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 3.9)
            .unwrap();
        nudged.set_bounds(0, 0.0, 3.0).unwrap();
        nudged.set_bounds(1, 0.0, 3.0).unwrap();
        let warm = solve_revised_from(&nudged, Some(&basis)).unwrap();
        let cold = solve_revised_from(&nudged, None).unwrap();
        assert!(warm.warm_used);
        assert_eq!(warm.solution.status, LpStatus::Optimal);
        assert!(
            (warm.solution.objective - cold.solution.objective).abs() < 1e-8,
            "warm {} vs cold {}",
            warm.solution.objective,
            cold.solution.objective
        );
    }

    #[test]
    fn warm_start_rejects_mismatched_shapes() {
        let basis = solve_revised_from(&triangle_lp(), None)
            .unwrap()
            .basis
            .unwrap();
        // Different constraint count → dimension mismatch → cold start.
        let mut other = LpProblem::new(2);
        other.set_objective(vec![1.0, 1.0]).unwrap();
        other
            .add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        other
            .add_constraint(vec![(1, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        let out = solve_revised_from(&other, Some(&basis)).unwrap();
        assert!(!out.warm_used);
        assert_eq!(out.solution.status, LpStatus::Optimal);
        // The rejection is typed, not silent: churn that changes the
        // problem shape is observable on the outcome.
        match out.warm_rejection {
            Some(LpError::BasisShapeMismatch {
                basis_rows,
                basis_cols,
                lp_rows,
                lp_cols,
            }) => {
                assert_eq!((basis_rows, basis_cols), (1, 3));
                assert_eq!((lp_rows, lp_cols), (2, 4)); // 2 rows, 2 structural + 2 slacks
            }
            other => panic!("expected BasisShapeMismatch, got {other:?}"),
        }
        // An accepted warm start reports no rejection.
        let lp = triangle_lp();
        let own = solve_revised_from(&lp, None).unwrap().basis.unwrap();
        let warm = solve_revised_from(&lp, Some(&own)).unwrap();
        assert!(warm.warm_used && warm.warm_rejection.is_none());
    }

    /// `Basis` dimensions are public, so a caller can desynchronize them
    /// from the status vector. This used to pass the dimension check and
    /// index out of bounds; now it is the same typed rejection with a
    /// crash-basis fallback.
    #[test]
    fn warm_start_rejects_a_tampered_basis_without_panicking() {
        // A basis from a 1-variable problem: 1 row, 2 standard-form
        // columns (1 structural + 1 slack).
        let mut small = LpProblem::new(1);
        small.set_objective(vec![-1.0]).unwrap();
        small
            .add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        small.set_bounds(0, 0.0, 1.0).unwrap();
        let mut basis = solve_revised_from(&small, None).unwrap().basis.unwrap();
        assert_eq!(basis.statuses().len(), 2);
        // Tamper the public width to match the triangle LP's 3 columns
        // while the status vector stays at length 2.
        basis.num_cols = 3;
        let out = solve_revised_from(&triangle_lp(), Some(&basis)).unwrap();
        assert!(!out.warm_used);
        assert!(
            matches!(
                out.warm_rejection,
                Some(LpError::BasisShapeMismatch {
                    basis_cols: 2,
                    lp_cols: 3,
                    ..
                })
            ),
            "{:?}",
            out.warm_rejection
        );
        assert_optimal(&out.solution, -7.0, 1e-8);
    }

    #[test]
    fn refactorization_keeps_long_solves_stable() {
        // A chain of coupled rows forces many pivots, crossing the
        // REFACTOR_EVERY boundary at least once.
        let n = 70;
        let mut lp = LpProblem::new(n);
        lp.set_objective((0..n).map(|j| -((j % 7 + 1) as f64)).collect())
            .unwrap();
        for i in 0..n {
            let mut terms = vec![(i, 1.0)];
            if i + 1 < n {
                terms.push((i + 1, 0.5));
            }
            lp.add_constraint(terms, ConstraintSense::Le, 1.0 + (i % 3) as f64)
                .unwrap();
        }
        for j in 0..n {
            lp.set_bounds(j, 0.0, 2.0).unwrap();
        }
        let sol = solve_revised(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        let dense = crate::simplex::solve_simplex(&lp).unwrap();
        assert!(
            (sol.objective - dense.objective).abs() < 1e-6 * (1.0 + dense.objective.abs()),
            "revised {} vs dense {}",
            sol.objective,
            dense.objective
        );
        assert!(lp.max_violation(&sol.x) < 1e-6);
    }
}
