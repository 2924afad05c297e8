//! Chaos-engineering oracle suite: deterministic fault injection in the
//! discrete-event executor, replanning, invariant oracles over a seed
//! matrix, cross-thread event-sequence determinism, and failing-seed
//! shrinking.
//!
//! The invariants checked here are the determinism contract of
//! DESIGN.md §8:
//!
//! 1. an empty [`FaultPlan`] is **bit-identical** to the plain executor;
//! 2. no task is ever silently dropped — every input task reports
//!    exactly one fate, completed or explicitly failed;
//! 3. energy and latency accounting stays finite and non-negative under
//!    any fault schedule;
//! 4. the fault/repair event sequence is a pure function of the seed,
//!    independent of the worker-thread count;
//! 5. a deliberately broken invariant shrinks to a small repro
//!    (≤ 2 stations, ≤ 4 devices) via `detrand::prop`.
//!
//! Seed-matrix knobs (mirrored in the CI chaos job):
//! `DSMEC_CHAOS_SEEDS=1,2,3` replaces the default matrix;
//! `DSMEC_CHAOS_EXTENDED=1` widens it for the nightly-ish sweep.

use dsmec_core::repair::{AbandonReason, RepairPolicy, TaskFate};
use dsmec_core::{execute_with_repair, CostTable};
use mec_bench::cli::{
    assign_scenario, chaos_assignment, generate_scenario, resolve_chaos, AlgorithmName,
};
use mec_bench::par;
use mec_sim::sim::{simulate, simulate_chaos, ChaosConfig, Contention, Fault, FaultPlan};
use mec_sim::task::ExecutionSite;
use mec_sim::topology::DeviceId;
use mec_sim::units::Seconds;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that mutate process-global state (the worker-thread
/// count, environment variables).
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The chaos seed matrix: `DSMEC_CHAOS_SEEDS` (comma-separated) wins;
/// otherwise a fixed default, widened when `DSMEC_CHAOS_EXTENDED=1`.
fn seed_matrix() -> Vec<u64> {
    if let Ok(spec) = std::env::var("DSMEC_CHAOS_SEEDS") {
        let seeds: Vec<u64> = spec
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("DSMEC_CHAOS_SEEDS entry {s:?}: {e}"))
            })
            .collect();
        if !seeds.is_empty() {
            return seeds;
        }
    }
    let mut seeds = vec![1, 7, 42, 0xC0FFEE, 0xDEAD_BEEF];
    if std::env::var("DSMEC_CHAOS_EXTENDED").as_deref() == Ok("1") {
        seeds.extend(100..132);
    }
    seeds
}

/// Invariant 1: the `FaultPlan::none()` chaos path produces bit-for-bit
/// the completion times, sojourns and energies of the plain executor,
/// under both contention models. This is the regression fence that keeps
/// the fault plane zero-cost when unused.
#[test]
fn empty_fault_plan_is_bit_identical_to_the_plain_executor() {
    let scenario = generate_scenario(42, 3, 8, 60, 3000.0).unwrap();
    let file = assign_scenario(&scenario, AlgorithmName::LpHta, 42).unwrap();
    let exec = file.assignment.to_executable(&scenario.tasks).unwrap();
    for contention in [Contention::None, Contention::Exclusive] {
        let plain = simulate(&scenario.system, &exec, contention).unwrap();
        let chaos =
            simulate_chaos(&scenario.system, &exec, contention, &FaultPlan::none()).unwrap();
        assert_eq!(plain.results.len(), chaos.results.len());
        assert!(chaos.events.is_empty());
        for (p, c) in plain.results.iter().zip(&chaos.results) {
            assert_eq!(p.id, c.id);
            assert_eq!(
                p.energy.value().to_bits(),
                c.energy.value().to_bits(),
                "{}: energy differs under {contention:?}",
                p.id
            );
            match c.outcome {
                mec_sim::sim::ChaosOutcome::Completed {
                    completion,
                    sojourn,
                    met_deadline,
                } => {
                    assert_eq!(p.completion.value().to_bits(), completion.value().to_bits());
                    assert_eq!(p.sojourn.value().to_bits(), sojourn.value().to_bits());
                    assert_eq!(p.met_deadline, met_deadline);
                }
                mec_sim::sim::ChaosOutcome::Failed(hit) => {
                    panic!("{}: failed under an empty plan: {hit:?}", p.id)
                }
            }
        }
    }
}

/// Invariants 2 and 3 over the whole seed matrix: every task reports
/// exactly one fate, failures carry explicit reasons, and all accounting
/// stays finite and non-negative.
#[test]
fn invariant_oracles_hold_across_the_seed_matrix() {
    let scenario = generate_scenario(42, 3, 8, 60, 3000.0).unwrap();
    let file = assign_scenario(&scenario, AlgorithmName::LpHta, 42).unwrap();
    for seed in seed_matrix() {
        let run = chaos_assignment(&scenario, &file, Contention::Exclusive, seed).unwrap();
        let r = &run.report;
        // Exactly one fate per input task, in input order.
        assert_eq!(r.results.len(), scenario.tasks.len(), "seed {seed}");
        for (t, task) in r.results.iter().zip(&scenario.tasks) {
            assert_eq!(t.id, task.id, "seed {seed}: fate order");
            let e = t.energy.value();
            assert!(
                e.is_finite() && e >= 0.0,
                "seed {seed} {}: energy {e}",
                t.id
            );
            match t.fate {
                TaskFate::Completed {
                    completion,
                    sojourn,
                    met_deadline,
                    ..
                } => {
                    let (c, s) = (completion.value(), sojourn.value());
                    assert!(c.is_finite() && c >= 0.0, "seed {seed} {}: {c}", t.id);
                    assert!(s.is_finite() && s >= 0.0, "seed {seed} {}: {s}", t.id);
                    assert_eq!(
                        met_deadline,
                        sojourn <= task.deadline,
                        "seed {seed} {}: deadline bookkeeping",
                        t.id
                    );
                }
                TaskFate::Failed { reason, last_hit } => {
                    // Deadlines are "met or explicitly failed": a failed
                    // task names its reason, and fault-caused failures
                    // carry the hit that killed them.
                    match reason {
                        AbandonReason::CancelledAtAssignment => {
                            assert!(last_hit.is_none(), "seed {seed} {}", t.id)
                        }
                        AbandonReason::OwnerLost | AbandonReason::DataLost => {
                            assert!(last_hit.is_some(), "seed {seed} {}", t.id)
                        }
                        AbandonReason::RetriesExhausted | AbandonReason::NoFeasibleSite => {}
                    }
                }
            }
        }
        assert_eq!(r.completed() + r.failed(), scenario.tasks.len());
        let total = r.total_energy().value();
        assert!(total.is_finite() && total >= 0.0, "seed {seed}: {total}");
        assert!(r.waves >= 1, "seed {seed}");
        // The run is replayable: same seed, same fingerprint.
        let again = chaos_assignment(&scenario, &file, Contention::Exclusive, seed).unwrap();
        assert_eq!(run, again, "seed {seed}: replay diverged");
    }
}

/// Invariant 4: the fault/repair event sequence is identical across
/// worker-thread counts. Seed 0xC0FFEE (12648430) is the documented
/// reference seed (EXPERIMENTS.md); the whole check lives in ONE test fn
/// because the thread count is process-global.
#[test]
fn fault_and_repair_event_sequence_is_identical_across_thread_counts() {
    let _guard = global_lock();
    let scenario = generate_scenario(42, 3, 8, 60, 3000.0).unwrap();
    let file = assign_scenario(&scenario, AlgorithmName::LpHta, 42).unwrap();
    let seeds: Vec<u64> = vec![0xC0FFEE, 1, 42];
    let fingerprints = |seeds: &[u64]| -> Vec<String> {
        par::par_map_result(seeds, |&seed| {
            chaos_assignment(&scenario, &file, Contention::Exclusive, seed)
                .map(|run| run.report.fingerprint())
        })
        .unwrap()
    };
    par::set_threads(1);
    let serial = fingerprints(&seeds);
    par::set_threads(4);
    let parallel = fingerprints(&seeds);
    par::set_threads(0); // restore ambient resolution
    assert!(!serial.iter().all(String::is_empty), "no events at all?");
    for ((seed, a), b) in seeds.iter().zip(&serial).zip(&parallel) {
        assert_eq!(a, b, "seed {seed}: event sequence depends on threads");
    }
}

/// The shrinkable chaos case: a scenario sized by the generator's
/// [`detrand::prop::Scale`], plus the seed of the fault plan thrown at
/// it.
#[derive(Debug, Clone, Copy)]
struct ChaosCase {
    stations: usize,
    devices_per_station: usize,
    tasks: usize,
    chaos_seed: u64,
}

/// Invariant 5: shrinking. "No task ever fails under chaos" is a
/// deliberately broken invariant (an all-device dropout at t=0 strands
/// every offloaded task); the scaled harness must reduce the failing
/// case from paper-sized systems to ≤ 2 stations and ≤ 4 devices, and
/// the minimized plan is archived for the CI artifact upload.
#[test]
fn shrinker_reduces_a_failing_chaos_invariant_to_a_tiny_system() {
    use detrand::prop::{find_failure_scaled, Scale};

    let run_case = |case: &ChaosCase| -> Result<(), String> {
        let scenario = generate_scenario(
            case.chaos_seed,
            case.stations,
            case.devices_per_station,
            case.tasks,
            1500.0,
        )
        .map_err(|e| e.to_string())?;
        // Offload everything so every task depends on its owner's radio.
        let n = scenario.tasks.len();
        let assignment = dsmec_core::Assignment::uniform(n, ExecutionSite::Station);
        let faults = FaultPlan::new(
            &scenario.system,
            scenario
                .system
                .devices()
                .iter()
                .map(|d| Fault::Dropout {
                    device: d.id,
                    at: Seconds::ZERO,
                })
                .collect(),
        )
        .map_err(|e| e.to_string())?;
        let report = execute_with_repair(
            &scenario.system,
            &scenario.tasks,
            &assignment,
            Contention::Exclusive,
            &faults,
            &RepairPolicy::default(),
        )
        .map_err(|e| e.to_string())?;
        // The broken oracle: pretend failures should never happen.
        detrand::prop_assert!(
            report.failed() == 0,
            "{} of {} tasks failed",
            report.failed(),
            report.results.len()
        );
        Ok(())
    };

    let shrunk = find_failure_scaled(
        "chaos_no_task_ever_fails",
        4,
        |rng, scale| ChaosCase {
            stations: rng.gen_range(1..=scale.upper(1, 5)),
            devices_per_station: rng.gen_range(1..=scale.upper(1, 8)),
            tasks: rng.gen_range(1..=scale.upper(2, 40)),
            chaos_seed: rng.gen_range(0..1000u64),
        },
        run_case,
    )
    .expect("an all-device dropout must fail the broken oracle at any size");

    // The harness found a failure at full size AND kept shrinking it.
    assert!(
        shrunk.scale.factor() <= Scale::new(0.5).factor(),
        "shrinker never reduced the case: {shrunk}"
    );
    let c = shrunk.case;
    assert!(
        c.stations <= 2 && c.stations * c.devices_per_station <= 4,
        "minimized case is not minimal: {shrunk}"
    );
    // Archive the minimized case + its fault plan for CI upload.
    let scenario = generate_scenario(
        c.chaos_seed,
        c.stations,
        c.devices_per_station,
        c.tasks,
        1500.0,
    )
    .unwrap();
    let plan = FaultPlan::new(
        &scenario.system,
        scenario
            .system
            .devices()
            .iter()
            .map(|d| Fault::Dropout {
                device: d.id,
                at: Seconds::ZERO,
            })
            .collect(),
    )
    .unwrap();
    // Anchor on the workspace target dir — integration tests run with
    // the package root (crates/bench) as cwd, not the workspace root.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("minimized_plan.json"),
        djson::to_string_pretty(&plan),
    )
    .unwrap();
    std::fs::write(
        dir.join("minimized_case.txt"),
        format!(
            "{shrunk}\nreplay: DSMEC_PROP_SEED={} (scale {:.6})\n",
            shrunk.seed,
            shrunk.scale.factor()
        ),
    )
    .unwrap();
}

/// `--chaos SEED` beats `DSMEC_CHAOS`, which beats "off" — the same
/// resolution order as `--trace`/`DSMEC_TRACE`.
#[test]
fn dsmec_chaos_env_var_is_honored() {
    let _guard = global_lock();
    std::env::set_var("DSMEC_CHAOS", "12648430");
    assert_eq!(resolve_chaos(None), Ok(Some(12648430)));
    assert_eq!(resolve_chaos(Some("7")), Ok(Some(7)));
    std::env::set_var("DSMEC_CHAOS", "not-a-seed");
    assert!(resolve_chaos(None).is_err());
    std::env::remove_var("DSMEC_CHAOS");
    assert_eq!(resolve_chaos(None), Ok(None));
}

/// A generated chaos schedule actually exercises the repair machinery on
/// the reference seed — guarding against the plan generator silently
/// producing windows that never overlap the schedule.
#[test]
fn reference_seed_produces_faults_and_repairs() {
    let scenario = generate_scenario(42, 3, 8, 60, 3000.0).unwrap();
    let file = assign_scenario(&scenario, AlgorithmName::LpHta, 42).unwrap();
    let run = chaos_assignment(&scenario, &file, Contention::Exclusive, 0xC0FFEE).unwrap();
    assert!(
        !run.plan.is_empty(),
        "reference seed generated no faults at all"
    );
    assert!(
        !run.report.events.is_empty(),
        "no fault ever struck the schedule; horizon {:?} vs plan {:?}",
        run.horizon,
        run.plan
    );
    // And the plan itself is a pure function of the seed.
    let horizon = run.horizon;
    let a = ChaosConfig::from_seed(0xC0FFEE)
        .generate(&scenario.system, horizon)
        .unwrap();
    assert_eq!(a, run.plan);
}

/// Malformed chaos inputs fail loudly with typed errors, not panics.
#[test]
fn malformed_chaos_inputs_are_rejected() {
    let scenario = generate_scenario(9, 1, 3, 6, 1000.0).unwrap();
    // Unknown device.
    let err = FaultPlan::new(
        &scenario.system,
        vec![Fault::Dropout {
            device: DeviceId(999),
            at: Seconds::ZERO,
        }],
    )
    .unwrap_err();
    assert!(err.to_string().contains("999"), "{err}");
    // Length-mismatched assignment.
    let file = assign_scenario(&scenario, AlgorithmName::LpHta, 9).unwrap();
    let short = dsmec_core::Assignment::uniform(2, ExecutionSite::Device);
    let err = execute_with_repair(
        &scenario.system,
        &scenario.tasks,
        &short,
        Contention::None,
        &FaultPlan::none(),
        &RepairPolicy::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, dsmec_core::AssignError::LengthMismatch { .. }),
        "{err}"
    );
    // The well-formed baseline still works (no cross-contamination).
    let costs = CostTable::build(&scenario.system, &scenario.tasks).unwrap();
    assert_eq!(costs.len(), scenario.tasks.len());
    drop(file);
}
