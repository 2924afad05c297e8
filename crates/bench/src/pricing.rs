//! Cost-table pricing for the bench layer.

use dsmec_core::costs::CostTable;
use dsmec_core::error::AssignError;
use mec_sim::task::HolisticTask;
use mec_sim::topology::MecSystem;

/// Prices every task in `tasks`: exactly [`CostTable::build`], kept under
/// this name because the `perfbench` replay links it.
///
/// # Errors
///
/// Exactly [`CostTable::build`]'s errors, first task first.
pub fn build_cost_table(
    system: &MecSystem,
    tasks: &[HolisticTask],
) -> Result<CostTable, AssignError> {
    CostTable::build(system, tasks)
}
