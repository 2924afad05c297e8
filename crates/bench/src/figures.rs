//! One runner per table and figure of the paper's Section V, plus the
//! ablations called out in DESIGN.md. Every runner returns a [`Figure`]
//! whose series mirror the paper's plot legends, so
//! `cargo run -p mec-bench --bin repro --release` regenerates the entire
//! evaluation as text tables and CSV files.
//!
//! Every sweep fans out through one of two engines: figures whose points
//! share no state use [`sweep_seed_averaged`], the flat (point × seed)
//! fan-out; LP-heavy figures use [`sweep_seed_averaged_chained`], which
//! fans out over seeds and walks each seed's points serially so adjacent
//! points warm-start the revised simplex from the previous point's bases.
//! Per-(point, seed) scenario construction is served by [`crate::cache`];
//! both engines keep the output bit-identical to a serial evaluation.

use crate::cache;
use crate::par::par_map_result;
use crate::runner::{
    eval_algos_warm, paper_comparators, sweep_seed_averaged, sweep_seed_averaged_chained, Algo,
    WarmChain,
};
use crate::table::Figure;
use dsmec_core::dta::{
    divide_balanced, divide_min_devices, divisible_as_holistic, dta_device_shares, exact_min_max,
    rebalance, run_dta, DtaConfig,
};
use dsmec_core::error::AssignError;
use dsmec_core::hta::{
    partial_offload_plan, ExactBnB, HtaAlgorithm, LpHta, NashOffload, OnlineHta, OnlinePolicy,
    RoundingRule, WarmBases,
};
use dsmec_core::metrics::evaluate_assignment;
use linprog::Solver;
use mec_sim::radio::NetworkProfile;
use mec_sim::sim::{simulate, Contention};
use mec_sim::topology::ResultModel;
use mec_sim::units::Bytes;
use mec_sim::workload::{DivisibleScenarioConfig, ScenarioConfig};
use std::time::Instant;

/// Shared knobs of every experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Seeds averaged per data point.
    pub seeds: Vec<u64>,
    /// Shrinks sweeps for CI/integration-test use.
    pub quick: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            seeds: vec![101, 102, 103],
            quick: false,
        }
    }
}

impl ExperimentOptions {
    /// A fast configuration for tests.
    pub fn quick() -> ExperimentOptions {
        ExperimentOptions {
            seeds: vec![101],
            quick: true,
        }
    }

    fn task_sweep(&self) -> Vec<usize> {
        if self.quick {
            vec![40, 100]
        } else {
            (100..=450).step_by(50).collect()
        }
    }

    fn size_sweep(&self) -> Vec<f64> {
        if self.quick {
            vec![1000.0, 3000.0]
        } else {
            vec![1000.0, 2000.0, 3000.0, 4000.0, 5000.0]
        }
    }
}

type FigResult = Result<Figure, AssignError>;

fn holistic_cfg(tasks: usize, max_kb: f64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_defaults(0);
    cfg.tasks_total = tasks;
    cfg.max_input_kb = max_kb;
    cfg
}

fn divisible_cfg(seed: u64, tasks: usize, max_kb: f64) -> DivisibleScenarioConfig {
    let mut cfg = DivisibleScenarioConfig::paper_defaults(seed);
    cfg.tasks_total = tasks;
    cfg.item_kb = 100.0;
    cfg.items_per_task = (4, ((max_kb / cfg.item_kb) as usize).max(5));
    cfg
}

/// Sweeps task counts for the four Fig. 2–4 algorithms and extracts one
/// metric. Chained: each seed's points run serially so LP-HTA can try to
/// warm-start from the previous point's bases (task-count sweeps change
/// the LP dimensions between points, so most attempts fall back to a cold
/// solve — the chain is still correct, just rarely a hit).
fn sweep_tasks(
    opts: &ExperimentOptions,
    max_kb: f64,
    algos: &[Algo],
    extract: impl Fn(&dsmec_core::metrics::Metrics) -> f64 + Sync,
) -> Result<Vec<Vec<f64>>, AssignError> {
    let points = opts.task_sweep();
    sweep_seed_averaged_chained(
        &points,
        &opts.seeds,
        |&tasks, seed, chain: &mut WarmChain| {
            eval_algos_warm(&holistic_cfg(tasks, max_kb), seed, algos, chain, &extract)
        },
    )
}

/// Sweeps input sizes at a fixed task count. Chained: the LP shape is
/// constant across the size sweep, so adjacent points warm-start.
fn sweep_sizes(
    opts: &ExperimentOptions,
    tasks: usize,
    algos: &[Algo],
    extract: impl Fn(&dsmec_core::metrics::Metrics) -> f64 + Sync,
) -> Result<Vec<Vec<f64>>, AssignError> {
    let points = opts.size_sweep();
    let rows = sweep_seed_averaged_chained(&points, &opts.seeds, |&kb, seed, chain| {
        eval_algos_warm(&holistic_cfg(100, kb), seed, algos, chain, &extract)
    });
    let _ = tasks;
    rows
}

fn assemble(
    id: &str,
    title: &str,
    x_label: &str,
    y_label: &str,
    ticks: Vec<String>,
    names: &[&str],
    rows: Vec<Vec<f64>>,
) -> Figure {
    let mut fig = Figure::new(id, title, x_label, y_label, ticks);
    for (k, name) in names.iter().enumerate() {
        fig.push_series(name, rows.iter().map(|r| r[k]).collect());
    }
    fig
}

/// Fig. 2(a): total energy vs number of tasks (100→450, 3000 kB max).
pub fn fig2a(opts: &ExperimentOptions) -> FigResult {
    let algos = paper_comparators();
    let rows = sweep_tasks(opts, 3000.0, &algos, |m| m.total_energy.value())?;
    Ok(assemble(
        "fig2a",
        "Energy cost vs number of tasks",
        "tasks",
        "total energy (J)",
        opts.task_sweep().iter().map(|t| t.to_string()).collect(),
        &["LP-HTA", "HGOS", "AllToC", "AllOffload"],
        rows,
    ))
}

/// Fig. 2(b): total energy vs max input size (1000→5000 kB, 100 tasks).
pub fn fig2b(opts: &ExperimentOptions) -> FigResult {
    let algos = paper_comparators();
    let rows = sweep_sizes(opts, 100, &algos, |m| m.total_energy.value())?;
    Ok(assemble(
        "fig2b",
        "Energy cost vs size of input data",
        "max input (kB)",
        "total energy (J)",
        opts.size_sweep()
            .iter()
            .map(|s| format!("{s:.0}"))
            .collect(),
        &["LP-HTA", "HGOS", "AllToC", "AllOffload"],
        rows,
    ))
}

/// Fig. 3: unsatisfied-task rate vs number of tasks (LP-HTA, HGOS,
/// AllOffload; AllToC is off the chart in the paper too).
pub fn fig3(opts: &ExperimentOptions) -> FigResult {
    let algos = vec![
        Algo::LpHta(LpHta::paper()),
        Algo::Hgos(Default::default()),
        Algo::AllOffload,
    ];
    // Tighter deadlines than the default so obliviousness is visible.
    let points = opts.task_sweep();
    let rows = sweep_seed_averaged_chained(&points, &opts.seeds, |&tasks, seed, chain| {
        let mut cfg = holistic_cfg(tasks, 3000.0);
        cfg.deadline_factor_range = (1.0, 2.0);
        eval_algos_warm(&cfg, seed, &algos, chain, |m| m.unsatisfied_rate)
    })?;
    Ok(assemble(
        "fig3",
        "Unsatisfied task rate vs number of tasks",
        "tasks",
        "unsatisfied rate",
        points.iter().map(|t| t.to_string()).collect(),
        &["LP-HTA", "HGOS", "AllOffload"],
        rows,
    ))
}

/// Fig. 4(a): average latency vs number of tasks.
pub fn fig4a(opts: &ExperimentOptions) -> FigResult {
    let algos = paper_comparators();
    let rows = sweep_tasks(opts, 3000.0, &algos, |m| m.mean_latency.value())?;
    Ok(assemble(
        "fig4a",
        "Average latency vs number of tasks",
        "tasks",
        "average latency (s)",
        opts.task_sweep().iter().map(|t| t.to_string()).collect(),
        &["LP-HTA", "HGOS", "AllToC", "AllOffload"],
        rows,
    ))
}

/// Fig. 4(b): average latency vs max input size.
pub fn fig4b(opts: &ExperimentOptions) -> FigResult {
    let algos = paper_comparators();
    let rows = sweep_sizes(opts, 100, &algos, |m| m.mean_latency.value())?;
    Ok(assemble(
        "fig4b",
        "Average latency vs size of input data",
        "max input (kB)",
        "average latency (s)",
        opts.size_sweep()
            .iter()
            .map(|s| format!("{s:.0}"))
            .collect(),
        &["LP-HTA", "HGOS", "AllToC", "AllOffload"],
        rows,
    ))
}

/// The three Fig. 5 series on one divisible scenario configuration.
fn dta_energy_point(cfg: &DivisibleScenarioConfig) -> Result<[f64; 3], AssignError> {
    let scenario = cfg.generate()?;
    // LP-HTA on the raw-data (holistic) version of the same workload.
    let holistic = divisible_as_holistic(&scenario)?;
    let costs = crate::pricing::build_cost_table(&scenario.system, &holistic)?;
    let a = LpHta::paper().assign(&scenario.system, &holistic, &costs)?;
    let lp = evaluate_assignment(&holistic, &costs, &a)?
        .total_energy
        .value();
    let w = run_dta(&scenario, DtaConfig::workload())?
        .total_energy
        .value();
    let n = run_dta(&scenario, DtaConfig::number())?
        .total_energy
        .value();
    Ok([lp, w, n])
}

/// Fig. 5(a): energy of LP-HTA vs DTA-Workload vs DTA-Number as the
/// number of (divisible) tasks grows.
pub fn fig5a(opts: &ExperimentOptions) -> FigResult {
    let points = opts.task_sweep();
    let rows = sweep_seed_averaged(&points, &opts.seeds, |&tasks, seed| {
        dta_energy_point(&divisible_cfg(seed, tasks, 3000.0)).map(|p| p.to_vec())
    })?;
    Ok(assemble(
        "fig5a",
        "Energy: holistic LP-HTA vs divisible DTA (by task count)",
        "tasks",
        "total energy (J)",
        points.iter().map(|t| t.to_string()).collect(),
        &["LP-HTA", "DTA-Workload", "DTA-Number"],
        rows,
    ))
}

/// Fig. 5(b): energy as the result size shrinks
/// (0.4X → 0.2X → 0.1X → 0.05X → constant).
pub fn fig5b(opts: &ExperimentOptions) -> FigResult {
    let models: Vec<(String, ResultModel)> = vec![
        ("0.4X".into(), ResultModel::Proportional(0.4)),
        ("0.2X".into(), ResultModel::Proportional(0.2)),
        ("0.1X".into(), ResultModel::Proportional(0.1)),
        ("0.05X".into(), ResultModel::Proportional(0.05)),
        ("const".into(), ResultModel::Constant(Bytes::from_kb(10.0))),
    ];
    let tasks = if opts.quick { 30 } else { 100 };
    let rows = sweep_seed_averaged(&models, &opts.seeds, |(_, model), seed| {
        let mut cfg = divisible_cfg(seed, tasks, 3000.0);
        cfg.base.result_model = *model;
        dta_energy_point(&cfg).map(|p| p.to_vec())
    })?;
    Ok(assemble(
        "fig5b",
        "Energy vs result size (100 divisible tasks)",
        "result size",
        "total energy (J)",
        models.iter().map(|(n, _)| n.clone()).collect(),
        &["LP-HTA", "DTA-Workload", "DTA-Number"],
        rows,
    ))
}

/// Fig. 6(a): processing time of the two divisions as input grows
/// (1200→2000 kB, 200 tasks).
pub fn fig6a(opts: &ExperimentOptions) -> FigResult {
    let points: Vec<f64> = if opts.quick {
        vec![1200.0, 2000.0]
    } else {
        vec![1200.0, 1400.0, 1600.0, 1800.0, 2000.0]
    };
    let tasks = if opts.quick { 40 } else { 200 };
    let rows = sweep_seed_averaged(&points, &opts.seeds, |&kb, seed| {
        let s = divisible_cfg(seed, tasks, kb).generate()?;
        let required = s.required_universe();
        let w = divide_balanced(&s.universe, &required)?;
        let n = divide_min_devices(&s.universe, &required)?;
        Ok(vec![
            w.processing_time(&s.system, &s.universe).value(),
            n.processing_time(&s.system, &s.universe).value(),
        ])
    })?;
    Ok(assemble(
        "fig6a",
        "Processing time: DTA-Workload vs DTA-Number",
        "max input (kB)",
        "processing time (s)",
        points.iter().map(|p| format!("{p:.0}")).collect(),
        &["DTA-Workload", "DTA-Number"],
        rows,
    ))
}

/// Fig. 6(b): involved devices as tasks grow (100→900, 2000 kB).
pub fn fig6b(opts: &ExperimentOptions) -> FigResult {
    let points: Vec<usize> = if opts.quick {
        vec![100, 300]
    } else {
        (100..=900).step_by(100).collect()
    };
    let rows = sweep_seed_averaged(&points, &opts.seeds, |&tasks, seed| {
        let s = divisible_cfg(seed, tasks, 2000.0).generate()?;
        let required = s.required_universe();
        let w = divide_balanced(&s.universe, &required)?;
        let n = divide_min_devices(&s.universe, &required)?;
        Ok(vec![
            w.involved_devices() as f64,
            n.involved_devices() as f64,
        ])
    })?;
    Ok(assemble(
        "fig6b",
        "Involved mobile devices: DTA-Workload vs DTA-Number",
        "tasks",
        "involved devices",
        points.iter().map(|p| p.to_string()).collect(),
        &["DTA-Workload", "DTA-Number"],
        rows,
    ))
}

/// Table I: the wireless-network parameters, echoed from the model so the
/// reproduction's inputs are auditable.
pub fn table1(_opts: &ExperimentOptions) -> FigResult {
    let mut fig = Figure::new(
        "table1",
        "Parameters of wireless networks (Table I)",
        "network",
        "value",
        NetworkProfile::ALL
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
    );
    let links: Vec<_> = NetworkProfile::ALL.iter().map(|p| p.link()).collect();
    fig.push_series(
        "download (Mbps)",
        links.iter().map(|l| l.download.as_mbps()).collect(),
    );
    fig.push_series(
        "upload (Mbps)",
        links.iter().map(|l| l.upload.as_mbps()).collect(),
    );
    fig.push_series(
        "P^T (W)",
        links.iter().map(|l| l.tx_power.value()).collect(),
    );
    fig.push_series(
        "P^R (W)",
        links.iter().map(|l| l.rx_power.value()).collect(),
    );
    Ok(fig)
}

/// A3: empirical LP-HTA approximation ratio against the exact optimum on
/// small instances, with the self-reported certificate alongside.
pub fn ratio_check(opts: &ExperimentOptions) -> FigResult {
    let seeds: Vec<u64> = if opts.quick {
        vec![201, 202]
    } else {
        (201..209).collect()
    };
    let rows = par_map_result(&seeds, |&seed| -> Result<Vec<f64>, AssignError> {
        let mut cfg = ScenarioConfig::paper_defaults(seed);
        cfg.num_stations = 2;
        cfg.devices_per_station = 3;
        cfg.tasks_total = 12;
        let cached = cache::scenario_with_costs(&cfg)?;
        let (s, costs) = (&cached.scenario, &cached.costs);
        let exact = ExactBnB::default().solve(&s.system, &s.tasks, costs)?;
        let (a, report) = LpHta::paper()
            .without_fast_path()
            .assign_with_report(&s.system, &s.tasks, costs)?;
        let m = evaluate_assignment(&s.tasks, costs, &a)?;
        let opt = exact.map(|(_, e)| e).unwrap_or(f64::NAN);
        let ratio = if a.cancelled().is_empty() && opt.is_finite() {
            m.total_energy.value() / opt
        } else {
            f64::NAN
        };
        Ok(vec![m.total_energy.value(), opt, ratio, report.ratio_bound])
    })?;
    Ok(assemble(
        "ratio_check",
        "Empirical approximation ratio vs certificate (small instances)",
        "seed",
        "energy (J) / ratio",
        seeds.iter().map(|s| s.to_string()).collect(),
        &[
            "LP-HTA energy",
            "optimal energy",
            "empirical ratio",
            "certificate",
        ],
        rows,
    ))
}

/// A1: LP backend ablation — energy parity and wall time of the interior
/// point vs the simplex inside LP-HTA (fast path disabled). The `time ms`
/// series are wall-clock measurements and are exempt from the
/// serial-vs-parallel bit-identical check.
pub fn ablate_lp_backend(opts: &ExperimentOptions) -> FigResult {
    let points = if opts.quick {
        vec![40usize]
    } else {
        vec![100, 200, 300]
    };
    let rows = sweep_seed_averaged(&points, &opts.seeds, |&tasks, seed| {
        let mut cfg = holistic_cfg(tasks, 3000.0);
        cfg.seed = seed;
        let cached = cache::scenario_with_costs(&cfg)?;
        let (s, costs) = (&cached.scenario, &cached.costs);
        let mut out = vec![0.0; 4];
        for (k, solver) in [Solver::InteriorPoint, Solver::Simplex].iter().enumerate() {
            let algo = LpHta {
                solver: *solver,
                ..LpHta::paper().without_fast_path()
            };
            let start = Instant::now();
            let a = algo.assign(&s.system, &s.tasks, costs)?;
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            let m = evaluate_assignment(&s.tasks, costs, &a)?;
            out[k] = m.total_energy.value();
            out[2 + k] = elapsed;
        }
        Ok(out)
    })?;
    Ok(assemble(
        "ablate_lp_backend",
        "LP backend ablation (LP-HTA, fast path off)",
        "tasks",
        "energy (J) / time (ms)",
        points.iter().map(|p| p.to_string()).collect(),
        &[
            "energy (IPM)",
            "energy (simplex)",
            "time ms (IPM)",
            "time ms (simplex)",
        ],
        rows,
    ))
}

/// A2: rounding-rule ablation — arg-max vs randomized rounding. Both
/// rules round the *same* LP relaxation (one solve per point and seed
/// instead of one per rule).
pub fn ablate_rounding(opts: &ExperimentOptions) -> FigResult {
    let points = if opts.quick {
        vec![40usize]
    } else {
        vec![100, 200, 300]
    };
    let rows = sweep_seed_averaged(&points, &opts.seeds, |&tasks, seed| {
        let mut cfg = holistic_cfg(tasks, 3000.0);
        cfg.seed = seed;
        let cached = cache::scenario_with_costs(&cfg)?;
        let (s, costs) = (&cached.scenario, &cached.costs);
        let base = LpHta::paper().without_fast_path();
        let frac = base.solve_relaxation(&s.system, &s.tasks, costs)?;
        let mut out = vec![0.0; 2];
        for (k, rounding) in [
            RoundingRule::ArgMax,
            RoundingRule::Randomized {
                seed: seed ^ 0xDEAD,
            },
        ]
        .iter()
        .enumerate()
        {
            let algo = LpHta {
                rounding: *rounding,
                ..base
            };
            let (a, _) = algo.round_with(&s.system, &s.tasks, costs, &frac)?;
            let m = evaluate_assignment(&s.tasks, costs, &a)?;
            out[k] = m.total_energy.value();
        }
        Ok(out)
    })?;
    Ok(assemble(
        "ablate_rounding",
        "Rounding-rule ablation (LP-HTA)",
        "tasks",
        "total energy (J)",
        points.iter().map(|p| p.to_string()).collect(),
        &["arg-max", "randomized"],
        rows,
    ))
}

/// A4: rebalancing extension — max share of greedy DTA-Workload, the
/// local-search refinement, and (small instances) the exact optimum.
pub fn ablate_rebalance(opts: &ExperimentOptions) -> FigResult {
    let points: Vec<usize> = if opts.quick {
        vec![8, 12]
    } else {
        vec![8, 10, 12, 14]
    };
    let rows = sweep_seed_averaged(&points, &opts.seeds, |&items, seed| {
        let mut cfg = DivisibleScenarioConfig::paper_defaults(seed);
        cfg.base.num_stations = 1;
        cfg.base.devices_per_station = 5;
        cfg.num_items = items;
        cfg.tasks_total = 6;
        cfg.items_per_task = (2, items.min(6));
        let s = cfg.generate()?;
        let required = s.required_universe();
        let greedy = divide_balanced(&s.universe, &required)?;
        let refined = rebalance(&s.universe, &greedy)?;
        let exact = exact_min_max(&s.universe, &required, 16)?;
        Ok(vec![
            greedy.max_share_len() as f64,
            refined.max_share_len() as f64,
            exact.max_share_len() as f64,
        ])
    })?;
    Ok(assemble(
        "ablate_rebalance",
        "Max share: greedy vs rebalanced vs exact (small universes)",
        "universe items",
        "max share (items)",
        points.iter().map(|p| p.to_string()).collect(),
        &["greedy", "rebalanced", "exact"],
        rows,
    ))
}

/// A5: contention ablation — analytic latency vs the discrete-event
/// executor with exclusive FIFO resources, on LP-HTA's assignment.
pub fn ablate_contention(opts: &ExperimentOptions) -> FigResult {
    let points = if opts.quick {
        vec![20usize, 40]
    } else {
        vec![50, 100, 150, 200]
    };
    let rows = sweep_seed_averaged(&points, &opts.seeds, |&tasks, seed| {
        let mut cfg = holistic_cfg(tasks, 3000.0);
        cfg.seed = seed;
        let cached = cache::scenario_with_costs(&cfg)?;
        let (s, costs) = (&cached.scenario, &cached.costs);
        let a = LpHta::paper().assign(&s.system, &s.tasks, costs)?;
        let exec = a.to_executable(&s.tasks)?;
        let free = simulate(&s.system, &exec, Contention::None)?;
        let queued = simulate(&s.system, &exec, Contention::Exclusive)?;
        Ok(vec![
            free.mean_latency().value(),
            queued.mean_latency().value(),
            queued.makespan().value(),
        ])
    })?;
    Ok(assemble(
        "ablate_contention",
        "Analytic vs queued execution of LP-HTA assignments",
        "tasks",
        "seconds",
        points.iter().map(|p| p.to_string()).collect(),
        &[
            "analytic mean latency",
            "queued mean latency",
            "queued makespan",
        ],
        rows,
    ))
}

/// E-NASH (extension): the decentralized offloading game of refs \[8\]/\[13\]
/// against LP-HTA and HGOS — energy and unsatisfied rate side by side.
/// Each algorithm now runs once per (point, seed) and contributes both
/// metrics (the previous driver ran the whole comparator set twice).
pub fn ext_nash(opts: &ExperimentOptions) -> FigResult {
    let algos = vec![
        Algo::LpHta(LpHta::paper()),
        Algo::Hgos(Default::default()),
        Algo::Nash(NashOffload::default()),
        Algo::LocalFirst,
    ];
    let points = opts.task_sweep();
    let rows = sweep_seed_averaged(&points, &opts.seeds, |&tasks, seed| {
        let mut cfg = holistic_cfg(tasks, 3000.0);
        cfg.seed = seed;
        let cached = cache::scenario_with_costs(&cfg)?;
        let mut energy = Vec::with_capacity(algos.len());
        let mut unsat = Vec::with_capacity(algos.len());
        for algo in &algos {
            let m = algo.run(&cached.scenario, &cached.costs)?;
            energy.push(m.total_energy.value());
            unsat.push(m.unsatisfied_rate);
        }
        energy.extend(unsat);
        Ok(energy)
    })?;
    Ok(assemble(
        "ext_nash",
        "Game-theoretic comparator (extension): energy and unsatisfied rate",
        "tasks",
        "energy (J) / rate",
        points.iter().map(|p| p.to_string()).collect(),
        &[
            "E LP-HTA",
            "E HGOS",
            "E Nash",
            "E LocalFirst",
            "unsat LP-HTA",
            "unsat HGOS",
            "unsat Nash",
            "unsat LocalFirst",
        ],
        rows,
    ))
}

/// X2 (extension): battery fairness — the paper motivates DTA-Number
/// with "saving energy for the majority of mobile devices"; this makes
/// that measurable with per-device attribution and a 5 kJ battery fleet.
pub fn ext_battery(opts: &ExperimentOptions) -> FigResult {
    use mec_sim::battery::{attribute_energy, BatteryFleet, DeviceShare};
    let tasks = if opts.quick { 40 } else { 150 };
    let strategies = ["LP-HTA raw", "DTA-Workload", "DTA-Number"];
    // One flat 3×3 row per seed (strategy-major), averaged by the sweep
    // engine; seeds fan out in parallel.
    let flat = sweep_seed_averaged(&[()], &opts.seeds, |_, seed| {
        let s = divisible_cfg(seed, tasks, 2000.0).generate()?;
        let capacity = mec_sim::units::Joules::new(5000.0);

        // One round's per-device shares for each strategy.
        let mut per_strategy: Vec<Vec<DeviceShare>> = Vec::new();
        // LP-HTA over the raw (holistic) workload.
        let holistic = divisible_as_holistic(&s)?;
        let costs = crate::pricing::build_cost_table(&s.system, &holistic)?;
        let a = LpHta::paper().assign(&s.system, &holistic, &costs)?;
        let mut shares: Vec<DeviceShare> = Vec::new();
        for (idx, task) in holistic.iter().enumerate() {
            if let Some(site) = a.decision(idx).site() {
                for sh in attribute_energy(&s.system, task, site)? {
                    match shares.iter_mut().find(|x| x.device == sh.device) {
                        Some(x) => x.energy += sh.energy,
                        None => shares.push(sh),
                    }
                }
            }
        }
        per_strategy.push(shares);
        for cfg in [DtaConfig::workload(), DtaConfig::number()] {
            let report = run_dta(&s, cfg)?;
            per_strategy.push(dta_device_shares(&s, &report, cfg.descriptor_bytes)?);
        }

        let mut row = Vec::with_capacity(strategies.len() * 3);
        for shares in &per_strategy {
            // Rounds until the first battery dies under repeated rounds.
            let mut fleet = BatteryFleet::uniform(&s.system, capacity)?;
            let mut rounds = 0usize;
            while fleet.depleted().is_empty() && rounds < 1_000_000 {
                fleet.drain(shares);
                rounds += 1;
            }
            row.push(rounds as f64);
            // Devices barely touched in one round (< 0.1% drain).
            let mut fresh = BatteryFleet::uniform(&s.system, capacity)?;
            fresh.drain(shares);
            row.push(fresh.devices_below_drain(0.001) as f64);
            // Largest single-device drain per round (J).
            row.push(
                shares
                    .iter()
                    .map(|sh| sh.energy.value())
                    .fold(0.0f64, f64::max),
            );
        }
        Ok(row)
    })?
    .remove(0);
    let rows: Vec<Vec<f64>> = flat.chunks(3).map(|c| c.to_vec()).collect();
    Ok(assemble(
        "ext_battery",
        "Battery fairness (extension): per-device drain by strategy",
        "strategy",
        "rounds / devices / J",
        strategies.iter().map(|s| s.to_string()).collect(),
        &[
            "rounds to first depletion",
            "devices <0.1% drained",
            "max drain per round (J)",
        ],
        rows,
    ))
}

/// X3 (extension): the quasi-static assumption's price. A one-shot
/// epoch-0 LP-HTA assignment is evaluated against drifting topologies
/// ("stale") vs re-running LP-HTA each epoch ("fresh").
pub fn ext_mobility(opts: &ExperimentOptions) -> FigResult {
    use mec_sim::mobility::MobilityConfig;
    let probs: Vec<f64> = if opts.quick {
        vec![0.0, 0.3]
    } else {
        vec![0.0, 0.1, 0.2, 0.3, 0.5]
    };
    let rows = sweep_seed_averaged(&probs, &opts.seeds, |&p, seed| {
        let mut cfg = MobilityConfig::paper_defaults(seed);
        // Capacity pressure + tight deadlines: staleness only has a
        // price when the optimal placement actually depends on the
        // topology.
        cfg.base.tasks_total = if opts.quick { 120 } else { 250 };
        cfg.base.device_resource_mb = 6.0;
        cfg.base.deadline_factor_range = (1.0, 1.6);
        cfg.move_prob = p;
        let dynamic = cfg.generate()?;
        // Epoch-0 assignment, reused stale across epochs.
        let costs0 = crate::pricing::build_cost_table(&dynamic.epochs[0], &dynamic.tasks)?;
        let stale = LpHta::paper().assign(&dynamic.epochs[0], &dynamic.tasks, &costs0)?;
        let epochs = dynamic.epochs.len() as f64;
        let mut acc = vec![0.0; 4];
        // Epochs are adjacent instances of the same shape: chain the
        // revised simplex's bases so each re-plan warm-starts from the
        // previous epoch's optimum.
        let mut warm = WarmBases::new();
        for (e, system) in dynamic.epochs.iter().enumerate() {
            let costs = crate::pricing::build_cost_table(system, &dynamic.tasks)?;
            let stale_m = evaluate_assignment(&dynamic.tasks, &costs, &stale)?;
            let (fresh, _) = LpHta::paper().assign_with_report_warm(
                system,
                &dynamic.tasks,
                &costs,
                &mut warm,
            )?;
            let fresh_m = evaluate_assignment(&dynamic.tasks, &costs, &fresh)?;
            acc[0] += fresh_m.total_energy.value() / epochs;
            acc[1] += (stale_m.total_energy.value() - fresh_m.total_energy.value()) / epochs;
            acc[2] += (stale_m.unsatisfied_rate - fresh_m.unsatisfied_rate) / epochs;
            acc[3] += dynamic.churn(0, e)? / epochs;
        }
        Ok(acc)
    })?;
    Ok(assemble(
        "ext_mobility",
        "Quasi-static assumption (extension): stale vs per-epoch LP-HTA",
        "move probability / epoch",
        "energy (J) / rate",
        probs.iter().map(|p| format!("{p:.1}")).collect(),
        &[
            "E fresh",
            "dE stale-fresh",
            "dUnsat stale-fresh",
            "mean churn vs epoch 0",
        ],
        rows,
    ))
}

/// X4 (extension): online arrivals — empirical competitive ratio of the
/// greedy and reserve online controllers against offline LP-HTA.
pub fn ext_online(opts: &ExperimentOptions) -> FigResult {
    let points = if opts.quick {
        vec![60usize]
    } else {
        vec![100, 200, 300, 400]
    };
    let rows = sweep_seed_averaged(&points, &opts.seeds, |&tasks, seed| {
        let mut cfg = holistic_cfg(tasks, 3000.0);
        cfg.seed = seed;
        cfg.device_resource_mb = 6.0; // pressure makes policies differ
        let cached = cache::scenario_with_costs(&cfg)?;
        let (s, costs) = (&cached.scenario, &cached.costs);
        let mut acc = vec![0.0; 6];
        let algos: [(&dyn HtaAlgorithm, usize); 3] = [
            (
                &OnlineHta {
                    policy: OnlinePolicy::Greedy,
                },
                0,
            ),
            (
                &OnlineHta {
                    policy: OnlinePolicy::Reserve { reserve: 0.2 },
                },
                1,
            ),
            (&LpHta::paper(), 2),
        ];
        for (algo, k) in algos {
            let a = algo.assign(&s.system, &s.tasks, costs)?;
            let m = evaluate_assignment(&s.tasks, costs, &a)?;
            // Energy per *satisfied* task: cancellation-fair.
            let satisfied = (tasks as f64) * (1.0 - m.unsatisfied_rate);
            acc[k] = m.total_energy.value() / satisfied.max(1.0);
            acc[3 + k] = m.unsatisfied_rate;
        }
        Ok(acc)
    })?;
    Ok(assemble(
        "ext_online",
        "Online arrivals (extension): greedy / reserve vs offline LP-HTA",
        "tasks",
        "energy (J) / rate",
        points.iter().map(|p| p.to_string()).collect(),
        &[
            "E/satisfied online-greedy",
            "E/satisfied online-reserve",
            "E/satisfied offline",
            "unsat online-greedy",
            "unsat online-reserve",
            "unsat offline",
        ],
        rows,
    ))
}

/// X5 (extension): what the binary restriction costs — fractional
/// partial offloading (refs \[25\]/\[26\]) vs binary LP-HTA under
/// progressively tighter deadlines.
pub fn ext_partial(opts: &ExperimentOptions) -> FigResult {
    let factors: Vec<(f64, f64)> = if opts.quick {
        vec![(1.0, 1.2), (1.0, 2.0)]
    } else {
        vec![(1.0, 1.1), (1.0, 1.3), (1.0, 1.6), (1.0, 2.0), (1.0, 3.0)]
    };
    let tasks = if opts.quick { 50 } else { 120 };
    // Chained over the deadline sweep: the LP shape is constant, so each
    // seed's successive points warm-start LP-HTA's relaxations.
    let rows = sweep_seed_averaged_chained(&factors, &opts.seeds, |&(lo, hi), seed, warm| {
        let mut cfg = holistic_cfg(tasks, 3000.0);
        cfg.seed = seed;
        cfg.deadline_factor_range = (lo, hi);
        let cached = cache::scenario_with_costs(&cfg)?;
        let (s, costs) = (&cached.scenario, &cached.costs);
        let (a, _) = LpHta::paper().assign_with_report_warm(&s.system, &s.tasks, costs, warm)?;
        let binary = evaluate_assignment(&s.tasks, costs, &a)?;
        let plan = partial_offload_plan(&s.system, &s.tasks)?;
        Ok(vec![
            binary.total_energy.value(),
            plan.total_energy().value(),
            binary.unsatisfied_rate,
            plan.unsatisfied_rate(),
        ])
    })?;
    Ok(assemble(
        "ext_partial",
        "Binary vs fractional offloading (extension) under deadline pressure",
        "deadline slack (hi)",
        "energy (J) / rate",
        factors.iter().map(|(_, hi)| format!("{hi:.1}")).collect(),
        &[
            "E binary LP-HTA",
            "E partial split",
            "unsat binary",
            "unsat partial",
        ],
        rows,
    ))
}

/// X6 (extension): open-loop arrivals — how much of the queueing pain of
/// A5 comes from the batch (all-at-t=0) release the paper's model implies.
/// Poisson arrivals at decreasing rates relieve contention toward the
/// analytic sojourns.
pub fn ext_arrivals(opts: &ExperimentOptions) -> FigResult {
    use mec_sim::sim::simulate_with_arrivals;
    use mec_sim::workload::poisson_arrivals;
    let rates: Vec<f64> = if opts.quick {
        vec![5.0, 0.5]
    } else {
        vec![20.0, 10.0, 5.0, 2.0, 1.0, 0.5]
    };
    let tasks = if opts.quick { 40 } else { 100 };
    let rows = sweep_seed_averaged(&rates, &opts.seeds, |&rate, seed| {
        let mut cfg = holistic_cfg(tasks, 3000.0);
        cfg.seed = seed;
        let cached = cache::scenario_with_costs(&cfg)?;
        let (s, costs) = (&cached.scenario, &cached.costs);
        let a = LpHta::paper().assign(&s.system, &s.tasks, costs)?;
        let exec = a.to_executable(&s.tasks)?;
        let free = simulate(&s.system, &exec, Contention::None)?;
        let batch = simulate(&s.system, &exec, Contention::Exclusive)?;
        let arrivals = poisson_arrivals(seed, exec.len(), rate)?;
        let timed: Vec<_> = exec
            .iter()
            .zip(arrivals.iter())
            .map(|((t, site), at)| (*t, *site, *at))
            .collect();
        let open = simulate_with_arrivals(&s.system, &timed, Contention::Exclusive)?;
        Ok(vec![
            free.mean_latency().value(),
            batch.mean_latency().value(),
            open.mean_latency().value(),
        ])
    })?;
    Ok(assemble(
        "ext_arrivals",
        "Open-loop arrivals (extension): batch vs Poisson release",
        "arrival rate (tasks/s)",
        "mean sojourn (s)",
        rates.iter().map(|r| format!("{r}")).collect(),
        &["analytic", "batch + contention", "poisson + contention"],
        rows,
    ))
}

/// Scale guard (ROADMAP item 5): a 10⁵-device fleet priced end-to-end
/// plus a 10⁵-device shared-data universe divided by both DTA greedy
/// rules. Every series is structural (counts, not wall times), so the CSV
/// is bit-identical run to run and across thread counts; the timing
/// signal lives in the `cost/build` and `dta/division` spans this run
/// dominates, which `dsmec trace` gates against `bench/baseline.json`.
pub fn scale(opts: &ExperimentOptions) -> FigResult {
    let seed = opts.seeds.first().copied().unwrap_or(424_242);
    // The fleet size is the point: quick mode trims the divisible task
    // count, never the 200 × 500 = 10⁵ devices.
    let div_tasks = if opts.quick { 1200 } else { 2000 };

    let mut cfg = ScenarioConfig::paper_defaults(seed);
    cfg.num_stations = 200;
    cfg.devices_per_station = 500;
    cfg.tasks_total = 100_000;
    let s = cfg.generate()?;
    let costs = crate::pricing::build_cost_table(&s.system, &s.tasks)?;
    let feasible = s
        .tasks
        .iter()
        .enumerate()
        .filter(|(i, t)| costs.task(*i).cheapest_feasible(t.deadline).is_some())
        .count();

    let mut dcfg = DivisibleScenarioConfig::paper_defaults(seed);
    dcfg.base.num_stations = 200;
    dcfg.base.devices_per_station = 500;
    dcfg.num_items = 2048;
    dcfg.tasks_total = div_tasks;
    dcfg.items_per_task = (4, 20);
    let d = dcfg.generate()?;
    let required = d.required_universe();
    let w = divide_balanced(&d.universe, &required)?;
    let n = divide_min_devices(&d.universe, &required)?;

    let devices = s.system.num_devices();
    Ok(assemble(
        "scale",
        "10^5-device scale guard: cost pricing + DTA division",
        "devices",
        "count",
        vec![devices.to_string()],
        &[
            "priced tasks",
            "deadline-feasible tasks",
            "required items",
            "DTA-Workload devices",
            "DTA-Number devices",
            "DTA-Workload max share",
        ],
        vec![vec![
            costs.len() as f64,
            feasible as f64,
            required.len() as f64,
            w.involved_devices() as f64,
            n.involved_devices() as f64,
            w.max_share_len() as f64,
        ]],
    ))
}

/// Experiment registry consumed by the `repro` binary and the tests.
pub type Runner = fn(&ExperimentOptions) -> FigResult;

/// Every reproducible experiment, in paper order.
pub fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("table1", table1 as Runner),
        ("fig2a", fig2a as Runner),
        ("fig2b", fig2b as Runner),
        ("fig3", fig3 as Runner),
        ("fig4a", fig4a as Runner),
        ("fig4b", fig4b as Runner),
        ("fig5a", fig5a as Runner),
        ("fig5b", fig5b as Runner),
        ("fig6a", fig6a as Runner),
        ("fig6b", fig6b as Runner),
        ("ratio_check", ratio_check as Runner),
        ("ablate_lp_backend", ablate_lp_backend as Runner),
        ("ablate_rounding", ablate_rounding as Runner),
        ("ablate_rebalance", ablate_rebalance as Runner),
        ("ablate_contention", ablate_contention as Runner),
        ("ext_nash", ext_nash as Runner),
        ("ext_battery", ext_battery as Runner),
        ("ext_mobility", ext_mobility as Runner),
        ("ext_online", ext_online as Runner),
        ("ext_partial", ext_partial as Runner),
        ("ext_arrivals", ext_arrivals as Runner),
        ("scale", scale as Runner),
    ]
}

/// The `experiment/<id>` span name for a registry id — static names so
/// the flight recorder stays allocation-free on the hot path. The span
/// wraps one experiment run and parents its `sweep/point` spans, giving
/// traces the sweep → experiment → point → algorithm chain.
#[must_use]
pub fn experiment_span(id: &str) -> &'static str {
    match id {
        "table1" => "experiment/table1",
        "fig2a" => "experiment/fig2a",
        "fig2b" => "experiment/fig2b",
        "fig3" => "experiment/fig3",
        "fig4a" => "experiment/fig4a",
        "fig4b" => "experiment/fig4b",
        "fig5a" => "experiment/fig5a",
        "fig5b" => "experiment/fig5b",
        "fig6a" => "experiment/fig6a",
        "fig6b" => "experiment/fig6b",
        "ratio_check" => "experiment/ratio_check",
        "ablate_lp_backend" => "experiment/ablate_lp_backend",
        "ablate_rounding" => "experiment/ablate_rounding",
        "ablate_rebalance" => "experiment/ablate_rebalance",
        "ablate_contention" => "experiment/ablate_contention",
        "ext_nash" => "experiment/ext_nash",
        "ext_battery" => "experiment/ext_battery",
        "ext_mobility" => "experiment/ext_mobility",
        "ext_online" => "experiment/ext_online",
        "ext_partial" => "experiment/ext_partial",
        "ext_arrivals" => "experiment/ext_arrivals",
        "scale" => "experiment/scale",
        _ => "experiment/other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_match_figures() {
        let opts = ExperimentOptions::quick();
        for (id, run) in registry() {
            if !matches!(id, "table1" | "fig6b" | "ablate_rebalance") {
                continue; // the cheap ones; the rest run in integration tests
            }
            let fig = run(&opts).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(fig.id, id);
            assert!(!fig.series.is_empty());
        }
    }

    #[test]
    fn every_registry_id_has_a_dedicated_span_name() {
        for (id, _) in registry() {
            let span = experiment_span(id);
            assert_eq!(span, format!("experiment/{id}"), "{id}");
        }
        assert_eq!(experiment_span("not-a-figure"), "experiment/other");
    }

    #[test]
    fn table1_echoes_paper_constants() {
        let fig = table1(&ExperimentOptions::quick()).unwrap();
        let down = fig.series_named("download (Mbps)").unwrap();
        assert!((down.values[0] - 13.76).abs() < 1e-9);
        assert!((down.values[1] - 54.97).abs() < 1e-9);
    }
}
