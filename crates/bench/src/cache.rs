//! Cross-figure memoization of the expensive, deterministic artifact the
//! experiment sweeps keep recomputing: the **scenario + cost table**.
//! Every figure point regenerates the same `(ScenarioConfig, seed)`
//! scenario and rebuilds its [`CostTable`] once per compared algorithm
//! family; the scenario cache shares one build per distinct configuration
//! across all figures of a run.
//!
//! Keys are FNV-1a hashes of the *serialized* configuration (the seed is a
//! config field, so `(config, seed)` pairs hash distinctly). Since scenario
//! generation is deterministic, a concurrent double-build of the same key
//! produces identical values — first insert wins and the duplicate is
//! dropped, so no lock is held while building.
//!
//! Everything here is read-shared behind `Arc`, bounded (the map resets
//! past [`MAX_ENTRIES`]), and resettable via [`clear`] so wall-time
//! comparisons can run cold; [`stats`] exposes hit/miss counters for
//! `BENCH_parallel.json`.

use dsmec_core::costs::CostTable;
use dsmec_core::error::AssignError;
use mec_sim::workload::{Scenario, ScenarioConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a cache map ignoring std poisoning: every critical section is a
/// plain map read/insert/clear, so a panicking holder cannot leave the map
/// half-updated; recovering the guard preserves the old
/// non-poisoning behavior.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cap on cached scenarios; on overflow the map is reset wholesale (the working
/// set of one `repro` run is far below this, so eviction sophistication
/// would buy nothing).
pub const MAX_ENTRIES: usize = 512;

/// A generated scenario together with its cost table, shared read-only.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedScenario {
    /// The generated MEC system and task set.
    pub scenario: Scenario,
    /// Per-task site costs for `scenario`.
    pub costs: CostTable,
}

type ScenarioMap = HashMap<u64, Arc<CachedScenario>>;

static SCENARIOS: OnceLock<Mutex<ScenarioMap>> = OnceLock::new();
static SCENARIO_HITS: AtomicU64 = AtomicU64::new(0);
static SCENARIO_MISSES: AtomicU64 = AtomicU64::new(0);

/// Hit/miss counters of the scenario cache, as of the moment of the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Scenario-cache hits.
    pub scenario_hits: u64,
    /// Scenario-cache misses (builds).
    pub scenario_misses: u64,
}

/// Current hit/miss counters.
pub fn stats() -> CacheStats {
    CacheStats {
        scenario_hits: SCENARIO_HITS.load(Ordering::Relaxed),
        scenario_misses: SCENARIO_MISSES.load(Ordering::Relaxed),
    }
}

/// Empties the cache and resets the counters. Call before timed passes
/// so serial and parallel runs are compared cold-for-cold.
pub fn clear() {
    if let Some(map) = SCENARIOS.get() {
        lock(map).clear();
    }
    SCENARIO_HITS.store(0, Ordering::Relaxed);
    SCENARIO_MISSES.store(0, Ordering::Relaxed);
}

/// FNV-1a over the serialized configuration. The seed is part of the
/// configuration, so this is the ISSUE's `(config-hash, seed)` key in one
/// value.
///
/// # Errors
///
/// Infallible with the in-workspace JSON encoder (non-finite floats encode
/// as `null` rather than failing); the `Result` is kept so callers are
/// insulated from future key schemes that can reject a configuration.
pub fn config_key(cfg: &ScenarioConfig) -> Result<u64, AssignError> {
    Ok(detrand::fnv1a(&djson::to_vec(cfg)))
}

/// The scenario and cost table for `cfg`, generated once per distinct
/// configuration and shared across figures and threads.
///
/// # Errors
///
/// Propagates generation and cost-model errors.
pub fn scenario_with_costs(cfg: &ScenarioConfig) -> Result<Arc<CachedScenario>, AssignError> {
    let key = config_key(cfg)?;
    let map = SCENARIOS.get_or_init(Default::default);
    if let Some(hit) = lock(map).get(&key) {
        SCENARIO_HITS.fetch_add(1, Ordering::Relaxed);
        mec_obs::counter_add("cache/scenario/hits", 1);
        return Ok(Arc::clone(hit));
    }
    SCENARIO_MISSES.fetch_add(1, Ordering::Relaxed);
    mec_obs::counter_add("cache/scenario/misses", 1);
    // Build outside the lock; concurrent builders of the same key produce
    // identical values (generation is seed-deterministic), first insert wins.
    // The chunked parallel pricer is bit-identical to `CostTable::build`.
    let scenario = cfg.generate()?;
    let costs = crate::pricing::build_cost_table(&scenario.system, &scenario.tasks)?;
    let built = Arc::new(CachedScenario { scenario, costs });
    let mut guard = lock(map);
    if guard.len() >= MAX_ENTRIES {
        guard.clear();
    }
    Ok(Arc::clone(guard.entry(key).or_insert(built)))
}

// JSON codecs (wire-compatible with the former serde derives).
djson::impl_json_struct!(CacheStats {
    scenario_hits,
    scenario_misses,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_key_distinguishes_seeds_and_fields() {
        let a = ScenarioConfig::paper_defaults(1);
        let mut b = ScenarioConfig::paper_defaults(1);
        assert_eq!(config_key(&a).unwrap(), config_key(&b).unwrap());
        b.seed = 2;
        assert_ne!(config_key(&a).unwrap(), config_key(&b).unwrap());
        let mut c = ScenarioConfig::paper_defaults(1);
        c.tasks_total += 1;
        assert_ne!(config_key(&a).unwrap(), config_key(&c).unwrap());
    }

    #[test]
    fn cached_scenario_matches_uncached_build() {
        let mut cfg = ScenarioConfig::paper_defaults(4242);
        cfg.tasks_total = 15;
        let cached = scenario_with_costs(&cfg).unwrap();
        let scenario = cfg.generate().unwrap();
        let costs = CostTable::build(&scenario.system, &scenario.tasks).unwrap();
        assert_eq!(cached.scenario, scenario);
        assert_eq!(cached.costs, costs);
        // Second lookup returns the same shared value.
        let again = scenario_with_costs(&cfg).unwrap();
        assert!(Arc::ptr_eq(&cached, &again));
    }
}
