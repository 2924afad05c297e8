//! Precomputed cost tables: `t_ijl`/`E_ijl` for every task × site, shared
//! by all assignment algorithms so the Section II formulas are evaluated
//! exactly once per scenario. Each task is priced by
//! [`mec_sim::cost::evaluate`], the workspace's one pricing function.

use crate::error::AssignError;
use mec_sim::cost::{self, SiteCost, TaskCosts};
use mec_sim::task::{ExecutionSite, HolisticTask};
use mec_sim::topology::MecSystem;
use mec_sim::units::Seconds;

/// Cost of every task at every site, indexed like the task slice it was
/// built from.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    rows: Vec<TaskCosts>,
}

impl CostTable {
    /// Prices every task in `tasks` against `system`, in task order.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors (invalid tasks, unknown devices),
    /// first task first.
    pub fn build(system: &MecSystem, tasks: &[HolisticTask]) -> Result<CostTable, AssignError> {
        let _timer = mec_obs::span("cost/build");
        let rows = tasks
            .iter()
            .map(|task| cost::evaluate(system, task))
            .collect::<Result<_, _>>()?;
        Ok(CostTable { rows })
    }

    /// Number of priced tasks.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Full per-site costs of task `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range; use [`CostTable::try_task`] for
    /// indices that are not already validated.
    pub fn task(&self, idx: usize) -> TaskCosts {
        self.try_task(idx)
            .unwrap_or_else(|e| panic!("CostTable::task: {e}"))
    }

    /// Full per-site costs of task `idx`, with a typed error out of
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::IndexOutOfRange`] when `idx` is not a row.
    pub fn try_task(&self, idx: usize) -> Result<TaskCosts, AssignError> {
        self.rows
            .get(idx)
            .copied()
            .ok_or(AssignError::IndexOutOfRange {
                what: "cost table",
                index: idx,
                len: self.len(),
            })
    }

    /// Cost of task `idx` at `site`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range; use [`CostTable::try_at`] for
    /// indices that are not already validated.
    pub fn at(&self, idx: usize, site: ExecutionSite) -> SiteCost {
        self.try_at(idx, site)
            .unwrap_or_else(|e| panic!("CostTable::at: {e}"))
    }

    /// Cost of task `idx` at `site`, with a typed error out of range.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::IndexOutOfRange`] when `idx` is not a row.
    pub fn try_at(&self, idx: usize, site: ExecutionSite) -> Result<SiteCost, AssignError> {
        self.try_task(idx).map(|c| c.at(site))
    }

    /// Whether task `idx` meets `deadline` when run at `site`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn feasible(&self, idx: usize, site: ExecutionSite, deadline: Seconds) -> bool {
        self.at(idx, site).time <= deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_sim::cost::evaluate;
    use mec_sim::workload::ScenarioConfig;

    #[test]
    fn table_matches_direct_evaluation() {
        let s = ScenarioConfig::paper_defaults(2).generate().unwrap();
        let table = CostTable::build(&s.system, &s.tasks).unwrap();
        assert_eq!(table.len(), s.tasks.len());
        assert!(!table.is_empty());
        for (i, t) in s.tasks.iter().enumerate() {
            let direct = evaluate(&s.system, t).unwrap();
            for site in ExecutionSite::ALL {
                assert_eq!(table.at(i, site), direct.at(site));
                // Bit-identity, not mere closeness.
                assert_eq!(
                    table.at(i, site).time.value().to_bits(),
                    direct.at(site).time.value().to_bits()
                );
                assert_eq!(
                    table.at(i, site).energy.value().to_bits(),
                    direct.at(site).energy.value().to_bits()
                );
            }
            assert_eq!(table.task(i), direct);
            assert!(table.feasible(i, ExecutionSite::Device, Seconds::new(f64::INFINITY)));
        }
    }

    #[test]
    fn build_rejects_invalid_tasks() {
        let s = ScenarioConfig::paper_defaults(2).generate().unwrap();
        let mut tasks = s.tasks.clone();
        tasks[0].deadline = Seconds::ZERO;
        assert!(CostTable::build(&s.system, &tasks).is_err());
    }

    #[test]
    fn first_error_in_task_order_wins() {
        let s = ScenarioConfig::paper_defaults(9).generate().unwrap();
        let mut tasks = s.tasks.clone();
        // Invalidate two tasks with different errors; the earlier one
        // must be reported.
        tasks[5].complexity = 0.0;
        tasks[2].deadline = Seconds::ZERO;
        let err = CostTable::build(&s.system, &tasks).unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn out_of_range_access_is_typed_not_a_panic() {
        let s = ScenarioConfig::paper_defaults(2).generate().unwrap();
        let table = CostTable::build(&s.system, &s.tasks).unwrap();
        let n = table.len();
        let err = table.try_task(n).unwrap_err();
        assert!(
            matches!(err, AssignError::IndexOutOfRange { index, len, .. } if index == n && len == n),
            "{err}"
        );
        let err = table.try_at(n + 7, ExecutionSite::Cloud).unwrap_err();
        assert!(matches!(err, AssignError::IndexOutOfRange { .. }), "{err}");
        assert!(table.try_task(n - 1).is_ok());
        assert!(table.try_at(0, ExecutionSite::Device).is_ok());
    }
}
