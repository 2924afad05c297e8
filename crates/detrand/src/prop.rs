//! A seeded property-test harness.
//!
//! Replaces the `proptest` dependency for this workspace's needs: run a
//! closure over many independently seeded [`ChaCha8Rng`]s, draw inputs
//! inside the closure with `gen_range`/`gen_bool`/[`SliceRandom`], and
//! report the first failure with the exact seed that reproduces it.
//!
//! ```
//! use detrand::prop::{self, CaseResult};
//!
//! prop::run_cases("addition_commutes", 32, |rng| {
//!     let a = rng.gen_range(0..1000u64);
//!     let b = rng.gen_range(0..1000u64);
//!     detrand::prop_assert_eq!(a + b, b + a);
//!     Ok(())
//! });
//! ```
//!
//! Two harness flavors are provided:
//!
//! * [`run_cases`] — no shrinking: cases are cheap and seeds are
//!   printed, so a failing case re-runs under a debugger with
//!   `DSMEC_PROP_SEED=<seed>` (which also lets CI re-explore a
//!   different region of the input space without touching code).
//! * [`run_cases_scaled`] — **with shrinking**: the generator receives a
//!   [`Scale`] it applies to its ranges and collection sizes. On failure
//!   the harness re-runs the same seed at halved scales (halved ranges,
//!   truncated collections) down to [`Scale::MIN`], reports the smallest
//!   case that still fails, and prints the `(seed, scale)` pair that
//!   replays it via [`replay_scaled`].
//!
//! [`SliceRandom`]: crate::SliceRandom

use crate::{fnv1a, ChaCha8Rng};
use std::fmt;

/// A property either holds (`Ok`) or reports why it does not.
pub type CaseResult = Result<(), String>;

/// The base seed for a property: `DSMEC_PROP_SEED` when set (same
/// override for every property), otherwise an FNV-1a fold of the
/// property name, so different properties explore different input
/// regions by default.
#[must_use]
pub fn base_seed(name: &str) -> u64 {
    match std::env::var("DSMEC_PROP_SEED") {
        Ok(v) => v
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("DSMEC_PROP_SEED must be a u64, got {v:?}")),
        Err(_) => fnv1a(name.as_bytes()),
    }
}

/// Runs `cases` independently seeded executions of `property`, panicking
/// on the first failure with the property name, case index, and the
/// per-case seed that reproduces it via [`run_seed`].
///
/// # Panics
///
/// Panics when any case returns `Err`, with a reproduction message.
pub fn run_cases(name: &str, cases: u64, mut property: impl FnMut(&mut ChaCha8Rng) -> CaseResult) {
    let base = base_seed(name);
    for case in 0..cases {
        let seed = base.wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if let Err(message) = property(&mut ChaCha8Rng::seed_from_u64(seed)) {
            panic!(
                "property `{name}` failed at case {case}/{cases} (seed {seed}): {message}\n\
                 reproduce with detrand::prop::run_seed(\"{name}\", {seed}, ...)"
            );
        }
    }
}

/// Re-runs a single case of a property with an explicit seed (the one a
/// [`run_cases`] failure printed).
///
/// # Panics
///
/// Panics when the case fails.
pub fn run_seed(name: &str, seed: u64, mut property: impl FnMut(&mut ChaCha8Rng) -> CaseResult) {
    if let Err(message) = property(&mut ChaCha8Rng::seed_from_u64(seed)) {
        panic!("property `{name}` failed for seed {seed}: {message}");
    }
}

/// A size multiplier in `(0, 1]` the case generator applies to its
/// ranges and collection lengths, so the harness can shrink a failing
/// case by re-running the same seed at smaller scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(f64);

impl Scale {
    /// Full-size generation (the first run of every case).
    pub const FULL: Scale = Scale(1.0);

    /// The smallest scale the shrinker tries (ten halvings).
    pub const MIN: Scale = Scale(1.0 / 1024.0);

    /// Wraps a raw factor, clamped into `(0, 1]`.
    #[must_use]
    pub fn new(factor: f64) -> Scale {
        Scale(factor.clamp(Self::MIN.0, 1.0))
    }

    /// The raw multiplier.
    #[must_use]
    pub fn factor(self) -> f64 {
        self.0
    }

    /// Scales an inclusive upper bound toward `lo`: at `FULL` this is
    /// `hi`, and each halving moves it halfway closer to `lo` (never
    /// below it). Use as `rng.gen_range(lo..=scale.upper(lo, hi))`.
    #[must_use]
    pub fn upper(self, lo: usize, hi: usize) -> usize {
        let span = hi.saturating_sub(lo) as f64;
        lo + (span * self.0).round() as usize
    }

    /// Truncates a collection length, keeping at least one element.
    #[must_use]
    pub fn truncate(self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        ((len as f64 * self.0).round() as usize).clamp(1, len)
    }
}

/// The minimized failing case a scaled harness found: the case value,
/// the `(seed, scale)` pair that regenerates it, the failure message it
/// produced, and how many shrink re-runs were spent.
#[derive(Debug, Clone)]
pub struct Shrunk<T> {
    /// The smallest failing case (regenerate with `gen(rng(seed), scale)`).
    pub case: T,
    /// Per-case seed that reproduces it.
    pub seed: u64,
    /// The scale the case was generated at.
    pub scale: Scale,
    /// The failure message the property returned for this case.
    pub message: String,
    /// Shrink re-runs performed after the original failure.
    pub shrink_runs: u32,
}

impl<T: fmt::Debug> fmt::Display for Shrunk<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "minimized case (seed {}, scale {:.6}, {} shrink runs): {:?}\n  failure: {}",
            self.seed,
            self.scale.factor(),
            self.shrink_runs,
            self.case,
            self.message
        )
    }
}

/// Like [`run_cases`], but with shrinking: `gen` draws a case from the
/// RNG at the given [`Scale`] and `check` tests it. On the first failing
/// case the harness re-runs the same per-case seed at halved scales
/// (halved ranges, truncated collections — whatever the generator maps
/// the scale to), keeps the smallest scale that still fails, and panics
/// with the minimized case plus its `(seed, scale)` replay pair.
///
/// # Panics
///
/// Panics when any case fails, reporting the minimized failing case.
pub fn run_cases_scaled<T: fmt::Debug>(
    name: &str,
    cases: u64,
    gen: impl FnMut(&mut ChaCha8Rng, Scale) -> T,
    check: impl FnMut(&T) -> CaseResult,
) {
    if let Some(shrunk) = find_failure_scaled(name, cases, gen, check) {
        panic!(
            "property `{name}` failed; {shrunk}\n\
             reproduce with detrand::prop::replay_scaled(\"{name}\", {}, \
             detrand::prop::Scale::new({:.6}), ...)",
            shrunk.seed,
            shrunk.scale.factor()
        );
    }
}

/// The non-panicking core of [`run_cases_scaled`]: returns the minimized
/// failing case, or `None` when every case passes. Useful for harnesses
/// that want to persist the minimized case (e.g. as a CI artifact)
/// before failing the test themselves.
pub fn find_failure_scaled<T: fmt::Debug>(
    name: &str,
    cases: u64,
    mut gen: impl FnMut(&mut ChaCha8Rng, Scale) -> T,
    mut check: impl FnMut(&T) -> CaseResult,
) -> Option<Shrunk<T>> {
    let base = base_seed(name);
    for case in 0..cases {
        let seed = base.wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let full = gen(&mut ChaCha8Rng::seed_from_u64(seed), Scale::FULL);
        let Err(message) = check(&full) else {
            continue;
        };
        // Shrink: halve the scale down to Scale::MIN, keeping the
        // smallest scale whose regenerated case still fails. Halving is
        // not assumed monotonic — every scale is tried.
        let mut best = Shrunk {
            case: full,
            seed,
            scale: Scale::FULL,
            message,
            shrink_runs: 0,
        };
        let mut factor = 0.5;
        let mut runs = 0u32;
        while factor >= Scale::MIN.0 {
            runs += 1;
            let scale = Scale::new(factor);
            let candidate = gen(&mut ChaCha8Rng::seed_from_u64(seed), scale);
            if let Err(message) = check(&candidate) {
                best = Shrunk {
                    case: candidate,
                    seed,
                    scale,
                    message,
                    shrink_runs: runs,
                };
            }
            factor /= 2.0;
        }
        best.shrink_runs = runs;
        return Some(best);
    }
    None
}

/// Replays one `(seed, scale)` pair a [`run_cases_scaled`] failure
/// printed.
///
/// # Panics
///
/// Panics when the replayed case fails.
pub fn replay_scaled<T: fmt::Debug>(
    name: &str,
    seed: u64,
    scale: Scale,
    mut gen: impl FnMut(&mut ChaCha8Rng, Scale) -> T,
    mut check: impl FnMut(&T) -> CaseResult,
) {
    let case = gen(&mut ChaCha8Rng::seed_from_u64(seed), scale);
    if let Err(message) = check(&case) {
        panic!(
            "property `{name}` failed for seed {seed} at scale {:.6}: {message}\n  case: {case:?}",
            scale.factor()
        );
    }
}

/// Fails the enclosing property case unless the condition holds.
///
/// Must be used inside a closure returning [`CaseResult`]; expands to an
/// early `return Err(..)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            ));
        }
    };
}

/// Fails the enclosing property case unless both sides are equal.
///
/// Must be used inside a closure returning [`CaseResult`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} ({}:{}): left {:?}, right {:?}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} ({}:{}): left {:?}, right {:?}: {}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                l,
                r,
                format!($($fmt)+)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0u64;
        run_cases("always_holds", 17, |rng| {
            ran += 1;
            let x = rng.gen_range(0..100u64);
            prop_assert!(x < 100);
            Ok(())
        });
        assert_eq!(ran, 17);
    }

    #[test]
    fn failing_property_names_seed_and_case() {
        let err = std::panic::catch_unwind(|| {
            run_cases("always_fails", 5, |_| {
                prop_assert!(false, "intentional");
                Ok(())
            });
        })
        .unwrap_err();
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("always_fails"), "{message}");
        assert!(message.contains("case 0/5"), "{message}");
        assert!(message.contains("seed "), "{message}");
        assert!(message.contains("intentional"), "{message}");
    }

    #[test]
    fn base_seed_differs_per_property() {
        if std::env::var("DSMEC_PROP_SEED").is_ok() {
            return; // override active: all properties share the seed
        }
        assert_ne!(base_seed("a"), base_seed("b"));
    }

    #[test]
    fn scale_helpers_shrink_monotonically() {
        assert_eq!(Scale::FULL.upper(1, 9), 9);
        assert_eq!(Scale::new(0.5).upper(1, 9), 5);
        assert_eq!(Scale::MIN.upper(1, 9), 1);
        assert_eq!(Scale::FULL.truncate(40), 40);
        assert_eq!(Scale::new(0.25).truncate(40), 10);
        assert_eq!(Scale::MIN.truncate(40), 1); // never empty
        assert_eq!(Scale::MIN.truncate(0), 0);
        // Factors outside (0, 1] clamp instead of exploding the case.
        assert_eq!(Scale::new(7.0).factor(), 1.0);
        assert!(Scale::new(0.0).factor() >= Scale::MIN.factor());
    }

    #[test]
    fn shrinker_minimizes_a_failing_range() {
        // The property fails whenever the drawn value is >= 10; drawing
        // from 0..=scale.upper(0, 10_000) means small scales draw small
        // values, so the minimized case must be far below full size.
        let shrunk = find_failure_scaled(
            "shrinks_large_draws",
            8,
            |rng, scale| rng.gen_range(0..=scale.upper(0, 10_000)) as u64,
            |&x| {
                prop_assert!(x < 10, "drew {x}");
                Ok(())
            },
        )
        .expect("full-scale draws from 0..=10000 are >= 10 with overwhelming probability");
        assert!(shrunk.scale.factor() < 1.0, "shrinker never ran: {shrunk}");
        assert!(
            shrunk.case < 100,
            "minimized case {} should be tiny (scale {})",
            shrunk.case,
            shrunk.scale.factor()
        );
        assert!(shrunk.message.contains("drew"), "{}", shrunk.message);
        assert!(shrunk.shrink_runs >= 10, "tries every halving");
        // The reported (seed, scale) pair regenerates the exact case.
        let mut rng = ChaCha8Rng::seed_from_u64(shrunk.seed);
        let replayed = rng.gen_range(0..=shrunk.scale.upper(0, 10_000)) as u64;
        assert_eq!(replayed, shrunk.case);
    }

    #[test]
    fn shrinker_reports_full_scale_when_small_cases_pass() {
        // Failure needs x >= 5000: only (near-)full scales can produce
        // it, so the minimized case stays at a large scale.
        let shrunk = find_failure_scaled(
            "only_fails_big",
            8,
            |rng, scale| rng.gen_range(0..=scale.upper(0, 10_000)) as u64,
            |&x| {
                prop_assert!(x < 5000, "drew {x}");
                Ok(())
            },
        );
        if let Some(shrunk) = shrunk {
            assert!(shrunk.case >= 5000, "{shrunk}");
            assert!(shrunk.scale.factor() >= 0.25, "{shrunk}");
        }
    }

    #[test]
    fn passing_scaled_property_returns_none_and_runs_all_cases() {
        let mut ran = 0u64;
        let failure = find_failure_scaled(
            "scaled_always_holds",
            9,
            |rng, scale| {
                ran += 1;
                rng.gen_range(0..=scale.upper(0, 100)) as u64
            },
            |&x| {
                prop_assert!(x <= 100);
                Ok(())
            },
        );
        assert!(failure.is_none());
        assert_eq!(ran, 9);
    }

    #[test]
    fn run_cases_scaled_panics_with_replay_pair() {
        let err = std::panic::catch_unwind(|| {
            run_cases_scaled(
                "scaled_always_fails",
                3,
                |rng, scale| rng.gen_range(0..=scale.upper(0, 50)) as u64,
                |_| {
                    prop_assert!(false, "intentional");
                    Ok(())
                },
            );
        })
        .unwrap_err();
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("scaled_always_fails"), "{message}");
        assert!(message.contains("replay_scaled"), "{message}");
        assert!(message.contains("minimized case"), "{message}");
        assert!(message.contains("intentional"), "{message}");
    }

    #[test]
    fn replay_scaled_reproduces_and_passes() {
        // A passing replay is silent; a failing one panics with the case.
        replay_scaled(
            "replay_ok",
            42,
            Scale::FULL,
            |rng, _| rng.gen_range(0..10u64),
            |&x| {
                prop_assert!(x < 10);
                Ok(())
            },
        );
        let err = std::panic::catch_unwind(|| {
            replay_scaled(
                "replay_fails",
                42,
                Scale::new(0.5),
                |rng, _| rng.gen_range(0..10u64),
                |_| {
                    prop_assert!(false, "boom");
                    Ok(())
                },
            );
        })
        .unwrap_err();
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("scale 0.5"), "{message}");
        assert!(message.contains("boom"), "{message}");
    }

    #[test]
    fn prop_assert_eq_reports_values() {
        let result: CaseResult = (|| {
            prop_assert_eq!(1 + 1, 3);
            Ok(())
        })();
        let message = result.unwrap_err();
        assert!(message.contains("left 2, right 3"), "{message}");
    }
}
