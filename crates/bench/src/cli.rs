//! Reusable implementation of the `dsmec` command-line tool: generate
//! scenarios, assign them with any algorithm, execute assignments on the
//! discrete-event simulator and print reports — all via JSON files, so
//! the pieces compose in shell pipelines.
//!
//! The binary in `src/bin/dsmec.rs` is a thin argument-parsing wrapper;
//! everything testable lives here.

use dsmec_core::assignment::Assignment;
use dsmec_core::costs::CostTable;
use dsmec_core::error::AssignError;
use dsmec_core::hta::{
    AllOffload, AllToC, Hgos, HtaAlgorithm, LocalFirst, LpHta, NashOffload, RandomAssign,
};
use dsmec_core::metrics::{evaluate_assignment, Metrics};
use dsmec_core::repair::{AbandonReason, RepairAction, TaskFate};
use dsmec_core::{execute_with_repair, ChaosRunReport, RepairPolicy};
use mec_sim::sim::{simulate, ChaosConfig, Contention, FaultPlan, SimReport};
use mec_sim::units::Seconds;
use mec_sim::workload::{Scenario, ScenarioConfig};
use std::fmt;

/// Algorithms selectable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmName {
    /// The paper's LP-HTA.
    LpHta,
    /// The reconstructed HGOS.
    Hgos,
    /// Everything to the cloud.
    AllToC,
    /// Everything off the device.
    AllOffload,
    /// Keep local while capacity lasts.
    LocalFirst,
    /// Best-response game to Nash equilibrium.
    Nash,
    /// Seeded random placement.
    Random,
}

impl AlgorithmName {
    /// All selectable algorithms.
    pub const ALL: [AlgorithmName; 7] = [
        AlgorithmName::LpHta,
        AlgorithmName::Hgos,
        AlgorithmName::AllToC,
        AlgorithmName::AllOffload,
        AlgorithmName::LocalFirst,
        AlgorithmName::Nash,
        AlgorithmName::Random,
    ];

    /// Parses the CLI spelling (`lp-hta`, `hgos`, …).
    pub fn parse(s: &str) -> Option<AlgorithmName> {
        Some(match s.to_ascii_lowercase().as_str() {
            "lp-hta" | "lphta" => AlgorithmName::LpHta,
            "hgos" => AlgorithmName::Hgos,
            "all-to-c" | "alltoc" | "cloud" => AlgorithmName::AllToC,
            "all-offload" | "alloffload" => AlgorithmName::AllOffload,
            "local-first" | "localfirst" => AlgorithmName::LocalFirst,
            "nash" | "game" => AlgorithmName::Nash,
            "random" => AlgorithmName::Random,
            _ => return None,
        })
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlgorithmName::LpHta => "lp-hta",
            AlgorithmName::Hgos => "hgos",
            AlgorithmName::AllToC => "all-to-c",
            AlgorithmName::AllOffload => "all-offload",
            AlgorithmName::LocalFirst => "local-first",
            AlgorithmName::Nash => "nash",
            AlgorithmName::Random => "random",
        }
    }

    /// Instantiates the algorithm (the `seed` feeds `Random`).
    pub fn instantiate(&self, seed: u64) -> Box<dyn HtaAlgorithm> {
        match self {
            AlgorithmName::LpHta => Box::new(LpHta::paper()),
            AlgorithmName::Hgos => Box::new(Hgos::default()),
            AlgorithmName::AllToC => Box::new(AllToC),
            AlgorithmName::AllOffload => Box::new(AllOffload),
            AlgorithmName::LocalFirst => Box::new(LocalFirst),
            AlgorithmName::Nash => Box::new(NashOffload::default()),
            AlgorithmName::Random => Box::new(RandomAssign { seed }),
        }
    }
}

impl fmt::Display for AlgorithmName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Parses and applies the shared `--threads N` flag: sets the worker count
/// of the sweep engine (LPs themselves always run serially), returning the
/// effective count. `0` restores the default resolution (the
/// `DSMEC_THREADS` environment variable, then the machine's available
/// parallelism).
///
/// # Errors
///
/// Returns a human-readable message when `spec` is not a number.
pub fn apply_threads(spec: &str) -> Result<usize, String> {
    let n: usize = spec
        .parse()
        .map_err(|e| format!("invalid --threads value {spec:?}: {e}"))?;
    crate::par::set_threads(n);
    Ok(crate::par::threads())
}

/// Resolves the trace output path shared by both binaries — an explicit
/// `--trace PATH` wins, otherwise the `DSMEC_TRACE` environment variable
/// — and enables `mec-obs` recording when one is configured. Returns the
/// path the caller should later pass to [`write_trace`].
///
/// Tracing to a file also switches on the flight recorder (per-span
/// events, trace schema v3), which is what `dsmec trace` analyzes.
/// `DSMEC_TRACE_EVENTS=0` keeps a run aggregates-only — smaller files,
/// e.g. for the committed `bench/baseline.json`; any other value (or
/// unset) records events.
pub fn init_trace(flag: Option<&str>) -> Option<String> {
    let path = flag
        .map(str::to_string)
        .or_else(|| std::env::var("DSMEC_TRACE").ok())
        .filter(|p| !p.is_empty());
    if path.is_some() {
        mec_obs::set_enabled(true);
        let events = std::env::var("DSMEC_TRACE_EVENTS").map_or(true, |v| v != "0");
        mec_obs::set_events(events);
    }
    path
}

/// Writes the current [`mec_obs::snapshot`] (flushing the calling thread
/// first) as pretty JSON to `path`. The schema is documented in
/// DESIGN.md §7.
///
/// # Errors
///
/// Returns a human-readable message when the file cannot be written.
pub fn write_trace(path: &str) -> Result<(), String> {
    write_json(path, &mec_obs::snapshot())
}

/// On-disk bundle tying an assignment to the scenario it was made for.
#[derive(Debug, Clone)]
pub struct AssignmentFile {
    /// Which algorithm produced it.
    pub algorithm: AlgorithmName,
    /// The scenario seed (sanity-checked on load).
    pub scenario_seed: u64,
    /// The decisions.
    pub assignment: Assignment,
    /// Metrics at assignment time.
    pub metrics: Metrics,
}

/// Pretty-prints `value` as JSON into `path`.
///
/// # Errors
///
/// Returns a human-readable message when the file cannot be written.
pub fn write_json<T: djson::ToJson>(path: &str, value: &T) -> Result<(), String> {
    let json = djson::to_string_pretty(value);
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))
}

/// Reads and decodes a JSON file, prefixing every failure — missing file,
/// truncated or malformed JSON, wrong field types, unknown fields — with
/// the path so CLI users see which input was bad.
///
/// # Errors
///
/// Returns a human-readable message for I/O and decode failures.
pub fn read_json<T: djson::FromJson>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    djson::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Generates a scenario from CLI-level knobs.
///
/// # Errors
///
/// Propagates generation errors.
pub fn generate_scenario(
    seed: u64,
    stations: usize,
    devices_per_station: usize,
    tasks: usize,
    max_input_kb: f64,
) -> Result<Scenario, AssignError> {
    let mut cfg = ScenarioConfig::paper_defaults(seed);
    cfg.num_stations = stations;
    cfg.devices_per_station = devices_per_station;
    cfg.tasks_total = tasks;
    cfg.max_input_kb = max_input_kb;
    Ok(cfg.generate()?)
}

/// Assigns a scenario with the named algorithm.
///
/// # Errors
///
/// Propagates pricing and algorithm errors.
pub fn assign_scenario(
    scenario: &Scenario,
    algorithm: AlgorithmName,
    seed: u64,
) -> Result<AssignmentFile, AssignError> {
    let costs = CostTable::build(&scenario.system, &scenario.tasks)?;
    let algo = algorithm.instantiate(seed);
    let assignment = algo.assign(&scenario.system, &scenario.tasks, &costs)?;
    let metrics = evaluate_assignment(&scenario.tasks, &costs, &assignment)?;
    Ok(AssignmentFile {
        algorithm,
        scenario_seed: seed,
        assignment,
        metrics,
    })
}

/// Executes an assignment on the discrete-event simulator.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn simulate_assignment(
    scenario: &Scenario,
    file: &AssignmentFile,
    contention: Contention,
) -> Result<SimReport, AssignError> {
    let exec = file.assignment.to_executable(&scenario.tasks)?;
    Ok(simulate(&scenario.system, &exec, contention)?)
}

/// Resolves the chaos seed shared by both binaries: an explicit
/// `--chaos SEED` wins, otherwise the `DSMEC_CHAOS` environment
/// variable; `None` (no fault injection) when neither is set.
///
/// # Errors
///
/// Returns a human-readable message when the seed is not a `u64`.
pub fn resolve_chaos(flag: Option<&str>) -> Result<Option<u64>, String> {
    let spec = flag
        .map(str::to_string)
        .or_else(|| std::env::var("DSMEC_CHAOS").ok())
        .filter(|s| !s.is_empty());
    match spec {
        None => Ok(None),
        Some(s) => s
            .parse::<u64>()
            .map(Some)
            .map_err(|e| format!("invalid chaos seed {s:?}: {e}")),
    }
}

/// On-disk bundle of one chaos run: the seed, the generated fault plan
/// (so a failing run can be replayed or shrunk without regenerating),
/// and the repair report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRunFile {
    /// The chaos seed the plan was generated from.
    pub seed: u64,
    /// The fault-injection horizon (fault-free makespan, ≥ 1 s).
    pub horizon: Seconds,
    /// The injected faults.
    pub plan: FaultPlan,
    /// Per-task fates and the ordered fault/repair event log.
    pub report: ChaosRunReport,
}

/// Runs the chaos pipeline on an assignment: simulate fault-free to find
/// the schedule's horizon, generate a seeded [`FaultPlan`] spanning it,
/// then execute under faults with the default [`RepairPolicy`].
///
/// # Errors
///
/// Propagates substrate errors; per-task failures land in the report.
pub fn chaos_assignment(
    scenario: &Scenario,
    file: &AssignmentFile,
    contention: Contention,
    seed: u64,
) -> Result<ChaosRunFile, AssignError> {
    // The horizon must overlap the actual schedule or every generated
    // window would miss it; the fault-free makespan is exactly that
    // (clamped up for degenerate zero-length schedules).
    let baseline = simulate_assignment(scenario, file, contention)?;
    let horizon = Seconds::new(baseline.makespan().value().max(1.0));
    let plan = ChaosConfig::from_seed(seed)
        .generate(&scenario.system, horizon)
        .map_err(AssignError::Mec)?;
    let report = execute_with_repair(
        &scenario.system,
        &scenario.tasks,
        &file.assignment,
        contention,
        &plan,
        &RepairPolicy::default(),
    )?;
    Ok(ChaosRunFile {
        seed,
        horizon,
        plan,
        report,
    })
}

/// Renders a one-screen summary of a chaos run: fault counts, per-fate
/// task tallies, repair-action tallies and the head of the event log.
pub fn render_chaos_report(run: &ChaosRunFile) -> String {
    use std::fmt::Write as _;
    let r = &run.report;
    let mut out = String::new();
    let _ = writeln!(out, "--- chaos (seed {}) ---", run.seed);
    let _ = writeln!(
        out,
        "faults injected:  {} over {:.4} s horizon",
        run.plan.faults().len(),
        run.horizon.value()
    );
    let recovered = r
        .results
        .iter()
        .filter(|t| {
            matches!(
                t.fate,
                TaskFate::Completed {
                    recovered: true,
                    ..
                }
            )
        })
        .count();
    let _ = writeln!(
        out,
        "tasks:            {} completed ({recovered} after repair) / {} failed / {} waves",
        r.completed(),
        r.failed(),
        r.waves
    );
    let count =
        |pred: &dyn Fn(&RepairAction) -> bool| r.events.iter().filter(|e| pred(&e.action)).count();
    let _ = writeln!(
        out,
        "repairs:          {} retries / {} re-sourced / {} reassigned / {} abandoned",
        count(&|a| matches!(a, RepairAction::Retry { .. })),
        count(&|a| matches!(a, RepairAction::Resourced { .. })),
        count(&|a| matches!(a, RepairAction::Reassigned { .. })),
        count(&|a| matches!(
            a,
            RepairAction::Abandoned(
                AbandonReason::RetriesExhausted
                    | AbandonReason::OwnerLost
                    | AbandonReason::DataLost
                    | AbandonReason::NoFeasibleSite
            )
        )),
    );
    let _ = writeln!(out, "chaos energy:     {:.2} J", r.total_energy().value());
    const HEAD: usize = 12;
    for e in r.events.iter().take(HEAD) {
        let _ = writeln!(
            out,
            "  {:>10.4}s  {}  {:?}",
            e.time.value(),
            e.task,
            e.action
        );
    }
    if r.events.len() > HEAD {
        let _ = writeln!(out, "  … {} more events", r.events.len() - HEAD);
    }
    out
}

/// Renders a one-screen report of assignment metrics (and optionally a
/// simulation outcome).
pub fn render_report(file: &AssignmentFile, sim: Option<&SimReport>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let m = &file.metrics;
    let [d, s, c] = m.site_counts;
    let _ = writeln!(out, "algorithm:        {}", file.algorithm);
    let _ = writeln!(out, "total energy:     {:.2} J", m.total_energy.value());
    let _ = writeln!(out, "mean latency:     {:.4} s", m.mean_latency.value());
    let _ = writeln!(out, "unsatisfied rate: {:.2}%", m.unsatisfied_rate * 100.0);
    let _ = writeln!(out, "cancelled tasks:  {}", m.cancelled);
    let _ = writeln!(
        out,
        "placements:       device {d} / station {s} / cloud {c}"
    );
    if let Some(r) = sim {
        let _ = writeln!(out, "--- discrete-event execution ---");
        let _ = writeln!(out, "makespan:         {:.4} s", r.makespan().value());
        let _ = writeln!(out, "sim mean latency: {:.4} s", r.mean_latency().value());
        let _ = writeln!(out, "sim energy:       {:.2} J", r.total_energy().value());
        let _ = writeln!(
            out,
            "deadline misses:  {:.2}%",
            r.deadline_miss_rate() * 100.0
        );
    }
    out
}

// JSON codecs (wire-compatible with the former serde derives).
djson::impl_json_enum!(AlgorithmName {
    LpHta,
    Hgos,
    AllToC,
    AllOffload,
    LocalFirst,
    Nash,
    Random,
});
djson::impl_json_struct!(AssignmentFile {
    algorithm,
    scenario_seed,
    assignment,
    metrics,
});
djson::impl_json_struct!(ChaosRunFile {
    seed,
    horizon,
    plan,
    report,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_threads_parses_and_applies() {
        let _guard = crate::par::THREADS_TEST_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        assert_eq!(apply_threads("3"), Ok(3));
        assert!(apply_threads("zero").is_err());
        // Restore the default so other tests see the ambient setting.
        assert!(apply_threads("0").unwrap() >= 1);
    }

    #[test]
    fn algorithm_names_round_trip() {
        for name in AlgorithmName::ALL {
            assert_eq!(AlgorithmName::parse(name.as_str()), Some(name));
        }
        assert_eq!(AlgorithmName::parse("LP-HTA"), Some(AlgorithmName::LpHta));
        assert_eq!(AlgorithmName::parse("cloud"), Some(AlgorithmName::AllToC));
        assert_eq!(AlgorithmName::parse("bogus"), None);
    }

    #[test]
    fn generate_assign_simulate_pipeline() {
        let scenario = generate_scenario(5, 2, 4, 24, 2000.0).unwrap();
        assert_eq!(scenario.tasks.len(), 24);
        let file = assign_scenario(&scenario, AlgorithmName::LpHta, 5).unwrap();
        assert_eq!(file.assignment.len(), 24);
        let sim = simulate_assignment(&scenario, &file, Contention::None).unwrap();
        // Analytic and simulated energies agree.
        let d = (sim.total_energy().value() - file.metrics.total_energy.value()).abs();
        assert!(d < 1e-6 * (1.0 + sim.total_energy().value()));
        let report = render_report(&file, Some(&sim));
        assert!(report.contains("lp-hta"));
        assert!(report.contains("makespan"));
    }

    #[test]
    fn scenario_and_assignment_serialize() {
        let scenario = generate_scenario(6, 1, 3, 9, 1000.0).unwrap();
        let json = djson::to_string(&scenario);
        let back: Scenario = djson::from_str(&json).unwrap();
        assert_eq!(back, scenario);

        let file = assign_scenario(&scenario, AlgorithmName::Hgos, 6).unwrap();
        let json = djson::to_string(&file);
        let back: AssignmentFile = djson::from_str(&json).unwrap();
        assert_eq!(back.assignment, file.assignment);
    }

    #[test]
    fn write_and_read_json_round_trip_through_disk() {
        let scenario = generate_scenario(8, 1, 2, 6, 800.0).unwrap();
        let dir = std::env::temp_dir().join("dsmec-cli-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        let path = path.to_str().unwrap();
        write_json(path, &scenario).unwrap();
        let back: Scenario = read_json(path).unwrap();
        assert_eq!(back, scenario);
        // Failures carry the path.
        let missing = dir.join("nope.json");
        let err = read_json::<Scenario>(missing.to_str().unwrap()).unwrap_err();
        assert!(err.contains("nope.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_chaos_prefers_the_flag_and_validates() {
        // The env fallback is covered by tests/chaos.rs (process-level),
        // keeping this test free of env-var races.
        assert_eq!(resolve_chaos(Some("7")), Ok(Some(7)));
        assert!(resolve_chaos(Some("not-a-seed")).is_err());
    }

    #[test]
    fn chaos_pipeline_is_deterministic_and_round_trips() {
        let scenario = generate_scenario(9, 1, 4, 12, 1500.0).unwrap();
        let file = assign_scenario(&scenario, AlgorithmName::LpHta, 9).unwrap();
        let a = chaos_assignment(&scenario, &file, Contention::Exclusive, 0xC0FFEE).unwrap();
        let b = chaos_assignment(&scenario, &file, Contention::Exclusive, 0xC0FFEE).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.report.results.len(), scenario.tasks.len());
        let json = djson::to_string(&a);
        let back: ChaosRunFile = djson::from_str(&json).unwrap();
        assert_eq!(back, a);
        let text = render_chaos_report(&a);
        assert!(text.contains("chaos (seed 12648430)"), "{text}");
        assert!(text.contains("tasks:"), "{text}");
    }

    #[test]
    fn every_algorithm_runs_through_the_cli_path() {
        let scenario = generate_scenario(7, 2, 3, 18, 1500.0).unwrap();
        for name in AlgorithmName::ALL {
            let file = assign_scenario(&scenario, name, 7).unwrap();
            assert_eq!(file.assignment.len(), 18, "{name}");
        }
    }
}
