//! Property tests for the sparse basis LU ([`linprog::basis::LuFactors`]):
//! on random sparse nonsingular matrices — general ones and HTA-shaped
//! ones — FTRAN and BTRAN leave relative residuals at rounding level, and
//! singular inputs come back as `NumericalFailure` instead of a panic.
//!
//! Runs on the in-repo seeded harness ([`detrand::prop`]); failures print
//! the seed to replay via the `DSMEC_PROP_SEED` environment variable.

use detrand::prop::run_cases;
use detrand::{prop_assert, ChaCha8Rng, SliceRandom};
use linprog::basis::LuFactors;
use linprog::LpError;

/// A square matrix as columns of `(row, value)` pairs.
type Columns = Vec<Vec<(usize, f64)>>;

fn permutation(rng: &mut ChaCha8Rng, m: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..m).collect();
    p.shuffle(rng);
    p
}

fn signed(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> f64 {
    let v = rng.gen_range(lo..hi);
    if rng.gen_bool(0.5) {
        -v
    } else {
        v
    }
}

/// `P · L₀ · U₀ · Q` for random sparse unit-lower `L₀` and upper `U₀`
/// (diagonal in ±[1, 2]) and random permutations: nonsingular by
/// construction, with a general sparsity pattern.
fn random_sparse(rng: &mut ChaCha8Rng) -> Columns {
    let m = rng.gen_range(1usize..40);
    let density = rng.gen_range(0.0..0.15);
    let mut lower = vec![vec![0.0; m]; m]; // lower[col][row]
    let mut upper = vec![vec![0.0; m]; m];
    for j in 0..m {
        lower[j][j] = 1.0;
        upper[j][j] = signed(rng, 1.0, 2.0);
        for i in 0..m {
            if i > j && rng.gen_bool(density) {
                lower[j][i] = signed(rng, 0.1, 1.0);
            }
            if i < j && rng.gen_bool(density) {
                upper[j][i] = signed(rng, 0.1, 1.0);
            }
        }
    }
    let rows = permutation(rng, m);
    let cols = permutation(rng, m);
    let mut out = vec![Vec::new(); m];
    for (j, &target) in cols.iter().enumerate() {
        let mut dense = vec![0.0; m];
        for (k, &u) in upper[j].iter().enumerate() {
            if u != 0.0 {
                for (i, &l) in lower[k].iter().enumerate() {
                    dense[rows[i]] += l * u;
                }
            }
        }
        out[target] = dense
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
    }
    out
}

/// The cluster-relaxation basis shape: at most two nonzeros per column,
/// mostly a permuted identity, with many columns also touching one
/// coupling row. Every column has its own anchor row and its second
/// entry only in an earlier column's anchor row, so the matrix is a
/// permuted triangle and nonsingular.
fn hta_shaped(rng: &mut ChaCha8Rng) -> Columns {
    let m = rng.gen_range(1usize..120);
    let anchor = permutation(rng, m);
    let coupling = anchor[0];
    let mut cols: Columns = (0..m)
        .map(|j| {
            let mut col = vec![(anchor[j], signed(rng, 0.5, 2.0))];
            if j > 0 && rng.gen_bool(0.5) {
                let second = if rng.gen_bool(0.7) {
                    coupling
                } else {
                    anchor[rng.gen_range(0..j)]
                };
                col.push((second, signed(rng, 0.1, 3.0)));
            }
            col
        })
        .collect();
    cols.shuffle(rng);
    cols
}

fn factor(cols: &Columns) -> Result<LuFactors, LpError> {
    LuFactors::factor(cols.len(), cols.iter().map(|c| c.iter().copied()))
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, x| acc.max(x.abs()))
}

/// `B x` (`transposed = false`) or `Bᵀ x`, plus `‖B‖∞` of the operator.
fn apply(cols: &Columns, x: &[f64], transposed: bool) -> (Vec<f64>, f64) {
    let m = cols.len();
    let mut out = vec![0.0; m];
    let mut abs_rows = vec![0.0; m];
    for (j, col) in cols.iter().enumerate() {
        for &(i, a) in col {
            let (to, from) = if transposed { (j, i) } else { (i, j) };
            out[to] += a * x[from];
            abs_rows[to] += a.abs();
        }
    }
    (out, norm_inf(&abs_rows))
}

/// Solves `B x = v` and `Bᵀ y = v` for a random `v` and checks both
/// relative residuals `‖B x − v‖∞ / (‖B‖∞ ‖x‖∞ + ‖v‖∞)` against 1e-9.
fn check_residuals(rng: &mut ChaCha8Rng, cols: &Columns) -> Result<(), String> {
    let lu = factor(cols).map_err(|e| format!("nonsingular matrix rejected: {e}"))?;
    let m = cols.len();
    let v: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
    for transposed in [false, true] {
        let mut x = v.clone();
        if transposed {
            lu.solve_transposed(&mut x);
        } else {
            lu.solve(&mut x);
        }
        let (bx, b_norm) = apply(cols, &x, transposed);
        let residual: Vec<f64> = bx.iter().zip(&v).map(|(a, b)| a - b).collect();
        let relative = norm_inf(&residual) / (b_norm * norm_inf(&x) + norm_inf(&v));
        prop_assert!(
            relative <= 1e-9,
            "m = {m}, transposed = {transposed}: relative residual {relative:e}"
        );
    }
    Ok(())
}

#[test]
fn random_sparse_solves_have_small_residuals() {
    run_cases("random_sparse_solves_have_small_residuals", 96, |rng| {
        let cols = random_sparse(rng);
        check_residuals(rng, &cols)
    });
}

#[test]
fn hta_shaped_solves_have_small_residuals() {
    run_cases("hta_shaped_solves_have_small_residuals", 96, |rng| {
        let cols = hta_shaped(rng);
        check_residuals(rng, &cols)
    });
}

#[test]
fn singular_inputs_are_numerical_failures() {
    run_cases("singular_inputs_are_numerical_failures", 96, |rng| {
        let mut cols = if rng.gen_bool(0.5) {
            random_sparse(rng)
        } else {
            hta_shaped(rng)
        };
        let m = cols.len();
        let target = rng.gen_range(0..m);
        let zero_column = m == 1 || rng.gen_bool(0.5);
        if zero_column {
            cols[target].clear();
        } else {
            let source = (target + rng.gen_range(1..m)) % m;
            cols[target] = cols[source].clone();
        }
        match factor(&cols) {
            Err(LpError::NumericalFailure(_)) => Ok(()),
            other => Err(format!(
                "m = {m}, zero column = {zero_column}: expected NumericalFailure, got {other:?}"
            )),
        }
    });
}
