//! Sweep machinery: algorithm dispatch, seed-averaged metric extraction
//! and the flat (point × seed) fan-out that spreads a whole figure over
//! worker threads (see [`crate::par`]) while keeping the output
//! bit-identical to a serial run.

use crate::cache;
use dsmec_core::costs::CostTable;
use dsmec_core::error::AssignError;
use dsmec_core::hta::{
    AllOffload, AllToC, Hgos, HtaAlgorithm, LocalFirst, LpHta, NashOffload, RandomAssign, WarmBases,
};
use dsmec_core::metrics::{evaluate_assignment, Metrics};
use mec_sim::workload::{Scenario, ScenarioConfig};

pub use crate::par::par_map_result;

/// The holistic algorithms a figure can sweep, as a value type so sweeps
/// are `Send + Sync` without trait-object plumbing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// The paper's LP-HTA.
    LpHta(LpHta),
    /// The reconstructed HGOS comparator.
    Hgos(Hgos),
    /// Everything to the cloud.
    AllToC,
    /// Everything off the device.
    AllOffload,
    /// Keep work local while capacity lasts.
    LocalFirst,
    /// Seeded random placement.
    Random(u64),
    /// Best-response offloading game to Nash equilibrium (refs \[8\]/\[13\]).
    Nash(NashOffload),
}

impl Algo {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::LpHta(_) => "LP-HTA",
            Algo::Hgos(_) => "HGOS",
            Algo::AllToC => "AllToC",
            Algo::AllOffload => "AllOffload",
            Algo::LocalFirst => "LocalFirst",
            Algo::Random(_) => "Random",
            Algo::Nash(_) => "NashOffload",
        }
    }

    /// Runs the algorithm over an already-generated scenario.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped algorithm's errors.
    pub fn run(&self, scenario: &Scenario, costs: &CostTable) -> Result<Metrics, AssignError> {
        let assignment = match self {
            Algo::LpHta(a) => a.assign(&scenario.system, &scenario.tasks, costs)?,
            Algo::Hgos(a) => a.assign(&scenario.system, &scenario.tasks, costs)?,
            Algo::AllToC => AllToC.assign(&scenario.system, &scenario.tasks, costs)?,
            Algo::AllOffload => AllOffload.assign(&scenario.system, &scenario.tasks, costs)?,
            Algo::LocalFirst => LocalFirst.assign(&scenario.system, &scenario.tasks, costs)?,
            Algo::Random(seed) => {
                RandomAssign { seed: *seed }.assign(&scenario.system, &scenario.tasks, costs)?
            }
            Algo::Nash(a) => a.assign(&scenario.system, &scenario.tasks, costs)?,
        };
        evaluate_assignment(&scenario.tasks, costs, &assignment)
    }

    /// Like [`Self::run`], but threads a [`WarmBases`] chain through
    /// LP-HTA's relaxation so a sequence of adjacent instances (a sweep's
    /// points under one seed) reuses optimal bases. Algorithms without an
    /// LP are unaffected and delegate to [`Self::run`].
    ///
    /// # Errors
    ///
    /// Propagates the wrapped algorithm's errors.
    pub fn run_warm(
        &self,
        scenario: &Scenario,
        costs: &CostTable,
        warm: &mut WarmBases,
    ) -> Result<Metrics, AssignError> {
        match self {
            Algo::LpHta(a) => {
                let (assignment, _) =
                    a.assign_with_report_warm(&scenario.system, &scenario.tasks, costs, warm)?;
                evaluate_assignment(&scenario.tasks, costs, &assignment)
            }
            _ => self.run(scenario, costs),
        }
    }
}

/// Per-seed chain state for [`eval_algos_warm`]: one [`WarmBases`] per
/// algorithm slot, created lazily on first use so the engine's generic
/// `Default` bound is enough.
#[derive(Debug, Default)]
pub struct WarmChain {
    per_algo: Vec<WarmBases>,
}

impl WarmChain {
    fn slots(&mut self, n: usize) -> &mut [WarmBases] {
        if self.per_algo.len() != n {
            self.per_algo = (0..n).map(|_| WarmBases::new()).collect();
        }
        &mut self.per_algo
    }

    /// Total `(attempts, hits)` across all algorithm slots.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        self.per_algo
            .iter()
            .fold((0, 0), |(a, h), w| (a + w.attempts, h + w.hits))
    }
}

/// The paper's Fig. 2–4 comparator set.
pub fn paper_comparators() -> Vec<Algo> {
    vec![
        Algo::LpHta(LpHta::paper()),
        Algo::Hgos(Hgos::default()),
        Algo::AllToC,
        Algo::AllOffload,
    ]
}

/// Runs every algorithm on `base` with its seed set to `seed` (scenario
/// and cost table come from the shared cache) and extracts one value per
/// algorithm.
///
/// # Errors
///
/// Propagates generation and algorithm errors.
pub fn eval_algos(
    base: &ScenarioConfig,
    seed: u64,
    algos: &[Algo],
    extract: impl Fn(&Metrics) -> f64,
) -> Result<Vec<f64>, AssignError> {
    let mut cfg = base.clone();
    cfg.seed = seed;
    let cached = cache::scenario_with_costs(&cfg)?;
    algos
        .iter()
        .map(|algo| {
            algo.run(&cached.scenario, &cached.costs)
                .map(|m| extract(&m))
        })
        .collect()
}

/// [`eval_algos`] with a warm-start chain: LP-HTA algorithms solve their
/// relaxations from the bases the same chain produced on the previous
/// call (the previous sweep point of this seed).
///
/// # Errors
///
/// Propagates generation and algorithm errors.
pub fn eval_algos_warm(
    base: &ScenarioConfig,
    seed: u64,
    algos: &[Algo],
    chain: &mut WarmChain,
    extract: impl Fn(&Metrics) -> f64,
) -> Result<Vec<f64>, AssignError> {
    let mut cfg = base.clone();
    cfg.seed = seed;
    let cached = cache::scenario_with_costs(&cfg)?;
    let warms = chain.slots(algos.len());
    algos
        .iter()
        .zip(warms.iter_mut())
        .map(|(algo, warm)| {
            algo.run_warm(&cached.scenario, &cached.costs, warm)
                .map(|m| extract(&m))
        })
        .collect()
}

/// Runs every algorithm over every seed of a configuration and averages
/// the metric extracted by `extract`.
///
/// # Errors
///
/// Returns [`AssignError::InvalidInput`] for an empty seed list (the
/// average would otherwise be `NaN`); propagates generation and algorithm
/// errors.
pub fn seed_averaged(
    base: &ScenarioConfig,
    seeds: &[u64],
    algos: &[Algo],
    extract: impl Fn(&Metrics) -> f64,
) -> Result<Vec<f64>, AssignError> {
    if seeds.is_empty() {
        return Err(AssignError::InvalidInput(
            "seed_averaged requires at least one seed".into(),
        ));
    }
    let mut sums = vec![0.0; algos.len()];
    for &seed in seeds {
        let row = eval_algos(base, seed, algos, &extract)?;
        for (s, v) in sums.iter_mut().zip(row) {
            *s += v;
        }
    }
    Ok(sums.into_iter().map(|s| s / seeds.len() as f64).collect())
}

/// The sweep engine behind every figure: evaluates `eval(point, seed)` for
/// the full (point × seed) cross product as one flat parallel fan-out,
/// then averages each point over its seeds.
///
/// Determinism contract: `eval` is called with exactly the arguments a
/// serial double loop would use, each `(point, seed)` evaluation is
/// independent, and the reduction sums a point's rows in seed order before
/// dividing once — so the output is bit-identical to the serial nesting,
/// for any thread count.
///
/// # Errors
///
/// Returns [`AssignError::InvalidInput`] for an empty seed list or for
/// rows of inconsistent width; propagates (or converts, for panics) worker
/// failures via [`par_map_result`].
pub fn sweep_seed_averaged<P: Sync>(
    points: &[P],
    seeds: &[u64],
    eval: impl Fn(&P, u64) -> Result<Vec<f64>, AssignError> + Sync,
) -> Result<Vec<Vec<f64>>, AssignError> {
    if seeds.is_empty() {
        return Err(AssignError::InvalidInput(
            "sweep_seed_averaged requires at least one seed".into(),
        ));
    }
    if points.is_empty() {
        return Ok(Vec::new());
    }
    let pairs: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|pi| seeds.iter().map(move |&s| (pi, s)))
        .collect();
    // Flight-recorder linkage: a worker thread has no span context of its
    // own, so each point span links explicitly to whatever span is open
    // here on the coordinating thread (e.g. `experiment/fig2a`), giving
    // traces the full sweep → experiment → point → algorithm chain.
    let sweep_parent = mec_obs::current_span_id();
    let rows = par_map_result(&pairs, |&(pi, seed)| {
        // Per-(point, seed) wall time; workers stage locally and flush
        // into the global registry at the par_map_result join point.
        let _timer = mec_obs::span_with_parent("sweep/point", sweep_parent);
        eval(&points[pi], seed)
    })?;

    let per_point = seeds.len();
    let mut out = Vec::with_capacity(points.len());
    for chunk in rows.chunks_exact(per_point) {
        let width = chunk[0].len();
        if chunk.iter().any(|r| r.len() != width) {
            return Err(AssignError::InvalidInput(
                "sweep_seed_averaged rows have inconsistent widths".into(),
            ));
        }
        let mut acc = vec![0.0; width];
        for row in chunk {
            for (a, v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        for a in &mut acc {
            *a /= per_point as f64;
        }
        out.push(acc);
    }
    Ok(out)
}

/// The warm-start sweep engine: like [`sweep_seed_averaged`], but fans
/// out over *seeds* and walks each seed's points serially, threading a
/// per-seed chain state `C` (e.g. [`WarmChain`]) through `eval` so
/// adjacent points can reuse work — LP bases, most prominently.
///
/// Determinism contract: each seed's chain runs on exactly one worker in
/// point order, chains never cross seeds, and the reduction sums a
/// point's values in seed order before dividing once — so the output is
/// bit-identical to a serial nesting, for any thread count. (Warm starts
/// may land on a different optimal vertex than a cold solve would; that
/// difference is a property of the chain itself, not of the thread
/// count, and the objective is the cold one either way.)
///
/// Parallel width is `min(threads, seeds)` instead of
/// `min(threads, points × seeds)` — the price of chaining. Figures with
/// no cross-point state to carry should keep the flat engine.
///
/// # Errors
///
/// Returns [`AssignError::InvalidInput`] for an empty seed list or rows
/// of inconsistent widths; propagates (or converts, for panics) worker
/// failures via [`par_map_result`].
pub fn sweep_seed_averaged_chained<P: Sync, C: Default>(
    points: &[P],
    seeds: &[u64],
    eval: impl Fn(&P, u64, &mut C) -> Result<Vec<f64>, AssignError> + Sync,
) -> Result<Vec<Vec<f64>>, AssignError> {
    if seeds.is_empty() {
        return Err(AssignError::InvalidInput(
            "sweep_seed_averaged_chained requires at least one seed".into(),
        ));
    }
    if points.is_empty() {
        return Ok(Vec::new());
    }
    let sweep_parent = mec_obs::current_span_id();
    // rows[seed][point][metric]
    let rows = par_map_result(seeds, |&seed| {
        let mut chain = C::default();
        let mut per_point = Vec::with_capacity(points.len());
        for point in points {
            let _timer = mec_obs::span_with_parent("sweep/point", sweep_parent);
            per_point.push(eval(point, seed, &mut chain)?);
        }
        Ok::<_, AssignError>(per_point)
    })?;

    let mut out = Vec::with_capacity(points.len());
    for pi in 0..points.len() {
        let width = rows[0][pi].len();
        if rows.iter().any(|r| r[pi].len() != width) {
            return Err(AssignError::InvalidInput(
                "sweep_seed_averaged_chained rows have inconsistent widths".into(),
            ));
        }
        let mut acc = vec![0.0; width];
        for seed_rows in &rows {
            for (a, v) in acc.iter_mut().zip(&seed_rows[pi]) {
                *a += v;
            }
        }
        for a in &mut acc {
            *a /= seeds.len() as f64;
        }
        out.push(acc);
    }
    Ok(out)
}

/// Mean of a slice; zero for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_names() {
        assert_eq!(Algo::LpHta(LpHta::paper()).name(), "LP-HTA");
        assert_eq!(Algo::AllToC.name(), "AllToC");
        assert_eq!(paper_comparators().len(), 4);
    }

    #[test]
    fn seed_averaging_runs_all_algorithms() {
        let mut cfg = ScenarioConfig::paper_defaults(0);
        cfg.tasks_total = 20;
        let algos = paper_comparators();
        let means = seed_averaged(&cfg, &[1, 2], &algos, |m| m.total_energy.value()).unwrap();
        assert_eq!(means.len(), algos.len());
        assert!(means.iter().all(|&v| v > 0.0));
        // The paper's trend: LP-HTA and HGOS track each other closely
        // (pointwise either may edge out the other — and on an instance
        // this small the rounding loss is relatively large) and both sit
        // far below the offloading baselines.
        let [lp, hgos, all_to_c, all_offload] = means[..] else {
            panic!("expected four comparators");
        };
        let ratio = lp / hgos;
        assert!((0.8..=1.2).contains(&ratio), "LP vs HGOS ratio {ratio}");
        assert!(lp < all_to_c * 0.8);
        assert!(lp < all_offload * 0.8);
    }

    #[test]
    fn seed_averaged_rejects_empty_seeds() {
        let cfg = ScenarioConfig::paper_defaults(0);
        let algos = paper_comparators();
        let err = seed_averaged(&cfg, &[], &algos, |m| m.total_energy.value()).unwrap_err();
        assert!(matches!(err, AssignError::InvalidInput(_)), "{err}");
        let err = sweep_seed_averaged(&[1usize], &[], |_, _| Ok(vec![0.0])).unwrap_err();
        assert!(matches!(err, AssignError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn sweep_matches_serial_double_loop() {
        let points = [3usize, 5, 8];
        let seeds = [11u64, 12, 13];
        let eval = |&p: &usize, s: u64| -> Result<Vec<f64>, AssignError> {
            Ok(vec![
                (p as f64) * 0.1 + s as f64,
                (p * 2) as f64 / (s as f64),
            ])
        };
        let swept = sweep_seed_averaged(&points, &seeds, eval).unwrap();
        // Serial reference: same nesting, same reduction order.
        let mut reference = Vec::new();
        for p in &points {
            let mut acc = vec![0.0; 2];
            for &s in &seeds {
                let row = eval(p, s).unwrap();
                for (a, v) in acc.iter_mut().zip(row) {
                    *a += v;
                }
            }
            for a in &mut acc {
                *a /= seeds.len() as f64;
            }
            reference.push(acc);
        }
        assert_eq!(swept, reference);
    }

    #[test]
    fn chained_sweep_matches_serial_double_loop() {
        let points = [3usize, 5, 8];
        let seeds = [11u64, 12, 13];
        // The chain counts how many points this seed has visited; folding
        // it into the output proves state threads through in point order.
        let eval = |&p: &usize, s: u64, chain: &mut u64| -> Result<Vec<f64>, AssignError> {
            *chain += 1;
            Ok(vec![(p as f64) * 0.1 + s as f64, *chain as f64])
        };
        let swept = sweep_seed_averaged_chained(&points, &seeds, eval).unwrap();
        let mut reference = Vec::new();
        for (pi, p) in points.iter().enumerate() {
            let mut acc = vec![0.0; 2];
            for &s in &seeds {
                let mut chain = pi as u64; // pi points already visited
                let row = eval(p, s, &mut chain).unwrap();
                for (a, v) in acc.iter_mut().zip(row) {
                    *a += v;
                }
            }
            for a in &mut acc {
                *a /= seeds.len() as f64;
            }
            reference.push(acc);
        }
        assert_eq!(swept, reference);
    }

    #[test]
    fn chained_sweep_rejects_empty_seeds_and_ragged_rows() {
        let err = sweep_seed_averaged_chained(&[1usize], &[], |_, _, _: &mut ()| Ok(vec![0.0]))
            .unwrap_err();
        assert!(matches!(err, AssignError::InvalidInput(_)), "{err}");
        // Width depends on the seed: ragged output must be rejected, not
        // silently zipped short.
        let err = sweep_seed_averaged_chained(&[1usize], &[7, 8], |_, s, _: &mut ()| {
            Ok(vec![0.0; s as usize - 6])
        })
        .unwrap_err();
        assert!(matches!(err, AssignError::InvalidInput(_)), "{err}");
        let empty: Vec<Vec<f64>> =
            sweep_seed_averaged_chained(&[] as &[usize], &[7], |_, _, _: &mut ()| Ok(vec![0.0]))
                .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn warm_chain_eval_matches_flat_eval() {
        let mut cfg = ScenarioConfig::paper_defaults(0);
        cfg.tasks_total = 20;
        // Disable the exact greedy fast path so the LP relaxation (and
        // hence the warm-start machinery) actually runs on this small
        // instance.
        let mut algos = paper_comparators();
        algos[0] = Algo::LpHta(LpHta::paper().without_fast_path());
        let flat = eval_algos(&cfg, 5, &algos, |m| m.total_energy.value()).unwrap();
        let mut chain = WarmChain::default();
        let first =
            eval_algos_warm(&cfg, 5, &algos, &mut chain, |m| m.total_energy.value()).unwrap();
        // First point of a chain is a cold solve: identical to the flat path.
        assert_eq!(flat, first);
        // Re-running the same scenario with the now-populated chain keeps
        // the same objective (warm starts may pick a different optimal
        // vertex, but energy of the certified assignment must agree).
        let again =
            eval_algos_warm(&cfg, 5, &algos, &mut chain, |m| m.total_energy.value()).unwrap();
        for (a, b) in flat.iter().zip(&again) {
            assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
        }
        let (attempts, hits) = chain.stats();
        assert!(attempts >= 1, "second pass should attempt warm starts");
        assert!(hits <= attempts);
    }

    #[test]
    fn mean_of_slice() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
