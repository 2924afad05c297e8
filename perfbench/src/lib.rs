//! Shared half of the dsmec benchmark: the workloads, their input
//! generators, the measured end-to-end calls and the correctness checks.
//!
//! Only the product entry points are used here (`serve_with_hook`, the
//! `dta` divisions and pipeline, the generators and the pricing call), so
//! the end-to-end binary keeps building while layer internals change. The
//! per-layer replay in `bin/trace.rs` reaches further in.
//!
//! See `perfbench/README.md` for every workload and metric definition.

use dsmec_core::dta::{rebalance, run_dta, Coverage};
use dsmec_core::dta::{DtaConfig, DtaReport};
use dsmec_core::error::AssignError;
use dsmec_core::Decision;
use mec_bench::serve::{serve_with_hook, EpochStats, ServeConfig, ServeReport};
use mec_sim::data::{DataUniverse, ItemSet};
use mec_sim::sim::{ChaosConfig, FaultPlan};
use mec_sim::stream::{StreamConfig, TaskStream};
use mec_sim::units::Seconds;
use mec_sim::workload::{DivisibleScenario, DivisibleScenarioConfig, ScenarioConfig};
use std::time::Instant;

/// Serve fleet: stations × devices per station, one task per device per
/// epoch, so every cluster LP keeps its shape and warm bases keep fitting.
pub const SERVE_STATIONS: usize = 100;
/// Devices per serve station.
pub const SERVE_DEVICES: usize = 50;
/// Epochs per serve session: 101 epochs give 100 hook intervals, so the
/// p90 has ten samples beyond it within a single session.
pub const SERVE_EPOCHS: usize = 101;
/// Repetitions every run makes, however short `--seconds` is, so that
/// `setup_s` is always a median of several generator calls.
pub const MIN_REPS: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Churn-free serve session: warm one-pivot LP solves.
    ServeSteady,
    /// Serve session with device dropouts: rejected warm bases, cold LP
    /// solves.
    ServeChurn,
    /// The full §IV pipeline on 10⁴ devices plus `rebalance`.
    DtaPipeline,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_steady" => Some(Workload::ServeSteady),
            "serve_churn" => Some(Workload::ServeChurn),
            "dta_pipeline" => Some(Workload::DtaPipeline),
            _ => None,
        }
    }
}

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Where the traced run writes its spans (`--spans PATH`, optional).
    pub spans: Option<String>,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S [--spans PATH]`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed argument.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut spans) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds {s} must be positive"));
                    }
                    seconds = Some(s);
                }
                "--spans" => spans = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            spans,
        })
    }
}

/// Worker threads every workload runs on. Two threads on a 2-vCPU host
/// made `serve_churn` 1.8× slower than one and, under hypervisor steal,
/// spread its run times by a third between runs; see README.md.
pub const THREADS: usize = 1;

/// Pins the worker-thread count, so `DSMEC_THREADS` and the core count
/// cannot change a run, and reads it back.
#[must_use]
pub fn pin_threads() -> usize {
    mec_bench::set_threads(THREADS);
    mec_bench::threads()
}

/// Correctness checks counted as failures against attempts.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Times `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Splits a repetition into consecutive timed pieces: each [`Laps::lap`]
/// records the seconds since the previous one (or since [`Laps::start`]).
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    /// Seconds of each piece, in order.
    pub pieces_s: Vec<f64>,
}

impl Laps {
    /// Starts timing the first piece.
    #[must_use]
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            pieces_s: Vec::new(),
        }
    }

    /// Ends the current piece and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.pieces_s.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// Runs `rep` until `seconds` have elapsed, at least [`MIN_REPS`] times.
/// Callers regenerate the inputs in every repetition, so the set-up
/// samples spread over the whole run like the measured ones.
///
/// # Errors
///
/// The first error `rep` returns.
pub fn repeat_for<E>(seconds: f64, mut rep: impl FnMut(usize) -> Result<(), E>) -> Result<(), E> {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        rep(reps)?;
        reps += 1;
    }
    Ok(())
}

// ---------------------------------------------------------------- serve

/// The serve session of a serve workload.
#[must_use]
pub fn serve_config(workload: Workload, seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        epochs: SERVE_EPOCHS,
        batch: SERVE_STATIONS * SERVE_DEVICES,
        num_stations: SERVE_STATIONS,
        devices_per_station: SERVE_DEVICES,
        chaos: (workload == Workload::ServeChurn).then_some(seed),
        cloud_limit: None,
        ..ServeConfig::default()
    }
}

/// The inputs `serve_with_hook` builds for itself, built here through the
/// same public generators: the task stream and the churn plan.
#[derive(Debug)]
pub struct ServeInputs {
    /// Topology plus epoch batches.
    pub stream: TaskStream,
    /// Churn plan (empty without chaos).
    pub plan: FaultPlan,
}

/// Generates a serve session's inputs. Mirrors the stream derivation of
/// `ServeConfig` (private to the serve module); the replay's faithfulness
/// check catches any drift.
///
/// # Errors
///
/// Generator errors.
pub fn generate_serve(cfg: &ServeConfig) -> Result<ServeInputs, AssignError> {
    let mut scenario = ScenarioConfig::paper_defaults(cfg.seed);
    scenario.num_stations = cfg.num_stations;
    scenario.devices_per_station = cfg.devices_per_station;
    scenario.max_input_kb = cfg.max_input_kb;
    let stream = StreamConfig {
        scenario,
        epochs: cfg.epochs,
        batch: cfg.effective_batch(),
        rate_per_second: cfg.rate_per_second,
    }
    .generate()?;
    let plan = match cfg.chaos {
        Some(seed) => {
            let horizon = Seconds::new(stream.horizon().value().max(1.0));
            ChaosConfig::from_seed(seed)
                .generate(&stream.system, horizon)
                .map_err(AssignError::Mec)?
        }
        None => FaultPlan::none(),
    };
    Ok(ServeInputs { stream, plan })
}

/// One timed `serve_with_hook` session.
#[derive(Debug)]
pub struct ServeRun {
    /// The session report.
    pub report: ServeReport,
    /// Wall time of the whole call, seconds.
    pub wall_s: f64,
    /// Milliseconds between consecutive `on_epoch` calls.
    pub intervals_ms: Vec<f64>,
}

/// Runs one serve session, timing the gaps between epoch hooks.
///
/// # Errors
///
/// Serve errors.
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeRun, AssignError> {
    let mut intervals_ms = Vec::with_capacity(cfg.epochs);
    let mut last: Option<Instant> = None;
    let start = Instant::now();
    let report = serve_with_hook(cfg, &mut |_| {
        let now = Instant::now();
        if let Some(prev) = last {
            intervals_ms.push((now - prev).as_secs_f64() * 1e3);
        }
        last = Some(now);
    })?;
    Ok(ServeRun {
        report,
        wall_s: start.elapsed().as_secs_f64(),
        intervals_ms,
    })
}

/// Per-epoch checks on a serve report: every arrived task is assigned or
/// cancelled, and the LP optimum lower-bounds the final energy.
pub fn check_serve_report(report: &ServeReport, cfg: &ServeConfig, checks: &mut Checks) {
    checks.check(report.epochs.len() == cfg.epochs, || {
        format!(
            "{} epochs served, {} configured",
            report.epochs.len(),
            cfg.epochs
        )
    });
    for e in &report.epochs {
        checks.check(
            e.arrived == cfg.effective_batch()
                && e.assigned + e.cancelled + e.churn_cancelled == e.arrived,
            || {
                format!(
                    "epoch {}: {} assigned + {} cancelled + {} churn-cancelled != {} arrived",
                    e.epoch, e.assigned, e.cancelled, e.churn_cancelled, e.arrived
                )
            },
        );
        checks.check(lower_bounds(e.lp_objective, e.final_energy), || {
            format!(
                "epoch {}: LP objective {} exceeds final energy {}",
                e.epoch, e.lp_objective, e.final_energy
            )
        });
    }
}

/// `lp ≤ energy` up to floating-point rounding of the two sums.
#[must_use]
pub fn lower_bounds(lp: f64, energy: f64) -> bool {
    lp.is_finite() && energy.is_finite() && lp <= energy * (1.0 + 1e-9)
}

/// Σ deadline misses ÷ Σ live (not churn-cancelled) tasks.
#[must_use]
pub fn unsatisfied_rate(epochs: &[EpochStats]) -> f64 {
    let misses: usize = epochs.iter().map(|e| e.deadline_misses).sum();
    let live: usize = epochs.iter().map(|e| e.arrived - e.churn_cancelled).sum();
    misses as f64 / live as f64
}

/// Σ final energy ÷ Σ LP objective: the realized approximation ratio.
#[must_use]
pub fn energy_ratio(epochs: &[EpochStats]) -> f64 {
    let energy: f64 = epochs.iter().map(|e| e.final_energy).sum();
    let lp: f64 = epochs.iter().map(|e| e.lp_objective).sum();
    energy / lp
}

// ------------------------------------------------------------------ dta

/// Generates the `dta_pipeline` scenario: 20 × 500 devices, 2048 items,
/// 200 divisible tasks.
///
/// # Errors
///
/// Generator errors.
pub fn generate_pipeline(seed: u64) -> Result<DivisibleScenario, AssignError> {
    let mut cfg = DivisibleScenarioConfig::paper_defaults(seed);
    cfg.base.num_stations = 20;
    cfg.base.devices_per_station = 500;
    cfg.num_items = 2048;
    cfg.tasks_total = 200;
    Ok(cfg.generate()?)
}

/// What one `dta_pipeline` repetition produced.
#[derive(Debug, PartialEq)]
pub struct PipelineOutput {
    /// `run_dta` with DTA-Workload.
    pub workload: DtaReport,
    /// `run_dta` with DTA-Number.
    pub number: DtaReport,
    /// The DTA-Workload cover after `rebalance`.
    pub rebalanced: Coverage,
}

/// One `dta_pipeline` repetition: `run_dta` for both strategies and a
/// `rebalance` of the DTA-Workload cover, every cover validated. `laps`
/// gets four pieces: the two `run_dta` calls, `rebalance`, checks.
///
/// # Errors
///
/// Pipeline errors.
pub fn run_pipeline(
    scenario: &DivisibleScenario,
    checks: &mut Checks,
    laps: &mut Laps,
) -> Result<PipelineOutput, AssignError> {
    let workload = run_dta(scenario, DtaConfig::workload())?;
    laps.lap();
    let number = run_dta(scenario, DtaConfig::number())?;
    laps.lap();
    let rebalanced = rebalance(&scenario.universe, &workload.coverage)?;
    laps.lap();
    let required = scenario.required_universe();
    let u = &scenario.universe;
    check_cover("DTA-Workload", &workload.coverage, u, &required, checks);
    check_cover("DTA-Number", &number.coverage, u, &required, checks);
    check_cover("rebalanced", &rebalanced, u, &required, checks);
    for report in [&workload, &number] {
        check_dta_schedule(report, checks);
    }
    laps.lap();
    Ok(PipelineOutput {
        workload,
        number,
        rebalanced,
    })
}

/// Validates a cover against the universe and the required items.
pub fn check_cover(
    name: &str,
    cover: &Coverage,
    universe: &DataUniverse,
    required: &ItemSet,
    checks: &mut Checks,
) {
    let verdict = cover.validate(universe, required);
    checks.check(verdict.is_ok(), || {
        format!("{name} cover invalid: {verdict:?}")
    });
}

/// Every rearranged piece of a `run_dta` report got a decision.
pub fn check_dta_schedule(report: &DtaReport, checks: &mut Checks) {
    let decided = report.assignment.decisions().len();
    checks.check(decided == report.pieces.len(), || {
        format!("{decided} decisions for {} pieces", report.pieces.len())
    });
}

/// Assigned pieces of a `run_dta` report.
#[must_use]
pub fn assigned_pieces(report: &DtaReport) -> usize {
    report
        .assignment
        .decisions()
        .iter()
        .filter(|d| matches!(d, Decision::Assigned(_)))
        .count()
}

/// Items whose owner differs between two covers of the same items.
#[must_use]
pub fn items_moved(before: &Coverage, after: &Coverage) -> usize {
    before
        .shares()
        .iter()
        .zip(after.shares())
        .map(|(b, a)| a.difference(b).len())
        .sum()
}

/// Item placements of a cover: one decision per covered item.
#[must_use]
pub fn placements(cover: &Coverage) -> usize {
    cover.shares().iter().map(ItemSet::len).sum()
}

// --------------------------------------------------------------- output

/// Prints the result line both binaries end with: checks plus metric
/// values by name (units and directions live in `BENCHMARK.json`).
pub fn print_result(checks: &Checks, metrics: &[(&str, f64)]) {
    for note in &checks.notes {
        println!("check failed: {note}");
    }
    let mut out = format!(
        "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted, checks.failed
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; `null` marks a value that could
        // not be measured and fails the runner's completeness check.
        if value.is_finite() {
            out.push_str(&format!("{sep}\"{name}\": {value:?}"));
        } else {
            out.push_str(&format!("{sep}\"{name}\": null"));
        }
    }
    out.push_str("}}");
    println!("{out}");
}
