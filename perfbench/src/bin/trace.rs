//! Per-layer half of the dsmec benchmark. Each repetition runs the
//! workload once untraced through the product entry point, then replays
//! the same work through the layers' public functions, recording a span
//! around every call into a layer: name, start, end, parent span and the
//! epoch (serve epoch or DTA repetition) it belongs to. Spans stay in
//! memory, are written out as CSV at the end (`--spans PATH`) and are
//! reduced to self time per layer.
//!
//! The serve replay mirrors `serve_with_hook` step by step; its churn
//! ingest rule is private to the serve module, so it is copied here, and
//! every epoch of the replay is compared with the untraced report. On any
//! mismatch `trace.faithful` reads 0 and the layer numbers must not be
//! trusted.
//!
//! `perfbench-trace --workload NAME --seed N --seconds S [--spans PATH]`

use dsmec_core::dta::{
    divide_balanced, divide_min_devices, rebalance, run_dta_with_coverage, DtaConfig,
};
use dsmec_core::error::AssignError;
use dsmec_core::hta::relaxation::build_cluster_relaxation;
use dsmec_core::hta::{
    cluster_task_indices, ClusterFractions, FractionalSolution, LpHta, WarmBases,
};
use dsmec_core::Decision;
use dsmec_perfbench::{
    check_cover, check_dta_schedule, check_serve_report, energy_ratio, generate_pipeline,
    generate_serve, items_moved, lower_bounds, median, percentile, pin_threads, print_result,
    repeat_for, run_pipeline, run_serve, serve_config, timed, unsatisfied_rate, Args, Checks, Laps,
    PipelineOutput, ServeInputs, Workload,
};
use linprog::LpStatus;
use mec_bench::serve::{EpochStats, ServeConfig};
use mec_sim::sim::Fault;
use mec_sim::task::{ExecutionSite, HolisticTask};
use mec_sim::topology::DeviceId;
use mec_sim::units::Bytes;
use mec_sim::workload::DivisibleScenario;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench-trace: {e}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------- spans

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    epoch: usize,
}

/// Benchmark-side span recorder: a flat arena plus the open-span stack.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Spans whose self time is program work, as opposed to the replay's own
/// bookkeeping (`replay`, `serve.epoch`, `dta.rep`, `bench.*`).
const LAYERS: [&str; 12] = [
    "pricing",
    "hta.shard",
    "hta.relax",
    "linprog.warm",
    "linprog.cold",
    "hta.round",
    "dta.required",
    "dta.balanced",
    "dta.min_devices",
    "dta.validate",
    "dta.rearrange",
    "dta.rebalance",
];

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: &'static str, epoch: usize) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            epoch,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans must close in order");
        self.spans[id].end = end;
    }

    /// Wraps one call into a layer in a leaf span.
    fn span<R>(&mut self, name: &'static str, epoch: usize, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, epoch);
        let out = f();
        self.end(id);
        out
    }

    fn dur(&self, id: usize) -> u64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self, from: usize) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len() - from];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child[p - from] += s.end - s.start;
            }
        }
        self.spans[from..]
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    fn write_csv(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,epoch")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{id},{},{},{},{parent},{}",
                s.name, s.start, s.end, s.epoch
            )?;
        }
        out.flush()
    }
}

/// Per-layer sums over the spans of one replay (from span `root` on).
struct LayerTimes {
    self_ns: BTreeMap<&'static str, u64>,
    durations_us: BTreeMap<&'static str, Vec<f64>>,
    /// Σ layer self time ÷ (replay wall − benchmark checks).
    coverage: f64,
    /// Replay wall minus benchmark checks, seconds.
    replay_s: f64,
}

impl LayerTimes {
    fn of(tr: &Tracer, root: usize) -> LayerTimes {
        let selfs = tr.self_times(root);
        let mut self_ns = BTreeMap::new();
        let mut durations_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut checks_ns = 0u64;
        for (s, own) in tr.spans[root..].iter().zip(selfs) {
            *self_ns.entry(s.name).or_insert(0) += own;
            durations_us
                .entry(s.name)
                .or_default()
                .push((s.end - s.start) as f64 / 1e3);
            if s.name == "bench.check" {
                checks_ns += s.end - s.start;
            }
        }
        let covered: u64 = LAYERS.iter().filter_map(|l| self_ns.get(l)).sum();
        let wall = tr.dur(root) - checks_ns;
        LayerTimes {
            self_ns,
            durations_us,
            coverage: covered as f64 / wall as f64,
            replay_s: wall as f64 / 1e9,
        }
    }

    fn busy_ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    fn calls(&self, layer: &str) -> f64 {
        self.durations_us.get(layer).map_or(0.0, |d| d.len() as f64)
    }

    /// Percentile of a layer's call durations in µs; 0 without calls.
    fn pct_us(&self, layer: &str, p: f64) -> f64 {
        self.durations_us
            .get(layer)
            .map_or(0.0, |d| percentile(d, p))
    }
}

// -------------------------------------------------------------- metrics

/// The per-layer metrics, in `BENCHMARK.json` order. Layers a workload
/// does not run read 0.
const METRICS: [&str; 51] = [
    "gen.busy_ms",
    "pricing.calls",
    "pricing.tasks",
    "pricing.busy_ms",
    "pricing.ns_per_task",
    "hta.shard.busy_ms",
    "hta.relax.calls",
    "hta.relax.busy_ms",
    "hta.relax.p50_us",
    "hta.round.calls",
    "hta.round.busy_ms",
    "hta.round.cancelled",
    "hta.round.repair_moves",
    "hta.round.repair_ratio",
    "linprog.warm.offered",
    "linprog.warm.hits",
    "linprog.warm.rejections",
    "linprog.warm.hit_ratio",
    "linprog.warm.busy_ms",
    "linprog.warm.p50_us",
    "linprog.warm.p99_us",
    "linprog.warm.iterations",
    "linprog.cold.calls",
    "linprog.cold.busy_ms",
    "linprog.cold.p50_us",
    "linprog.cold.p90_us",
    "linprog.cold.iterations",
    "linprog.non_optimal",
    "par.threads",
    "dta.balanced.busy_ms",
    "dta.min_devices.busy_ms",
    "dta.validate.busy_ms",
    "dta.required_items",
    "dta.rebalance.busy_ms",
    "dta.rebalance.items_moved",
    "dta.rearrange.busy_ms",
    "dta.rearrange.pieces",
    "serve.resourced",
    "serve.churn_cancelled",
    "serve.warm_rejections",
    "unsatisfied_rate",
    "energy_ratio",
    "dta_max_share",
    "dta_devices",
    "rebalanced_max_share",
    "epoch_p90_ms",
    "trace.coverage",
    "trace.overhead",
    "trace.faithful",
    "trace.replays",
    "trace.run_s",
];

/// Metric values of one repetition, by name.
type Values = BTreeMap<&'static str, f64>;

/// Counts the replay takes at the layer boundaries.
#[derive(Default)]
struct Counts {
    priced_tasks: usize,
    round_cancelled: usize,
    rounded_tasks: usize,
    repair_moves: usize,
    warm_offered: usize,
    warm_hits: usize,
    warm_rejections: usize,
    warm_iterations: usize,
    cold_iterations: usize,
    non_optimal: usize,
}

fn layer_values(lt: &LayerTimes, c: &Counts, run_s: f64) -> Values {
    let mut v = Values::new();
    v.insert("pricing.calls", lt.calls("pricing"));
    v.insert("pricing.tasks", c.priced_tasks as f64);
    v.insert("pricing.busy_ms", lt.busy_ms("pricing"));
    let pricing_ns = lt.self_ns.get("pricing").copied().unwrap_or(0);
    v.insert(
        "pricing.ns_per_task",
        ratio(pricing_ns as usize, c.priced_tasks),
    );
    v.insert("hta.shard.busy_ms", lt.busy_ms("hta.shard"));
    v.insert("hta.relax.calls", lt.calls("hta.relax"));
    v.insert("hta.relax.busy_ms", lt.busy_ms("hta.relax"));
    v.insert("hta.relax.p50_us", lt.pct_us("hta.relax", 50.0));
    v.insert("hta.round.calls", lt.calls("hta.round"));
    v.insert("hta.round.busy_ms", lt.busy_ms("hta.round"));
    v.insert("hta.round.cancelled", c.round_cancelled as f64);
    v.insert("hta.round.repair_moves", c.repair_moves as f64);
    v.insert(
        "hta.round.repair_ratio",
        ratio(c.repair_moves, c.rounded_tasks),
    );
    v.insert("linprog.warm.offered", c.warm_offered as f64);
    v.insert("linprog.warm.hits", c.warm_hits as f64);
    v.insert("linprog.warm.rejections", c.warm_rejections as f64);
    v.insert("linprog.warm.hit_ratio", ratio(c.warm_hits, c.warm_offered));
    v.insert("linprog.warm.busy_ms", lt.busy_ms("linprog.warm"));
    v.insert("linprog.warm.p50_us", lt.pct_us("linprog.warm", 50.0));
    v.insert("linprog.warm.p99_us", lt.pct_us("linprog.warm", 99.0));
    v.insert("linprog.warm.iterations", c.warm_iterations as f64);
    v.insert("linprog.cold.calls", lt.calls("linprog.cold"));
    v.insert("linprog.cold.busy_ms", lt.busy_ms("linprog.cold"));
    v.insert("linprog.cold.p50_us", lt.pct_us("linprog.cold", 50.0));
    v.insert("linprog.cold.p90_us", lt.pct_us("linprog.cold", 90.0));
    v.insert("linprog.cold.iterations", c.cold_iterations as f64);
    v.insert("linprog.non_optimal", c.non_optimal as f64);
    v.insert("dta.balanced.busy_ms", lt.busy_ms("dta.balanced"));
    v.insert("dta.min_devices.busy_ms", lt.busy_ms("dta.min_devices"));
    v.insert("dta.validate.busy_ms", lt.busy_ms("dta.validate"));
    v.insert("dta.rebalance.busy_ms", lt.busy_ms("dta.rebalance"));
    v.insert("dta.rearrange.busy_ms", lt.busy_ms("dta.rearrange"));
    v.insert("trace.coverage", lt.coverage);
    v.insert("trace.overhead", lt.replay_s / run_s);
    v.insert("trace.run_s", run_s);
    v
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ------------------------------------------------------------------ run

fn run(args: &Args) -> Result<(), AssignError> {
    let threads = pin_threads();
    let mut tr = Tracer::new();
    let mut checks = Checks::default();
    let mut faithful = true;
    let mut reps: Vec<Values> = Vec::new();

    let serve_cfg = serve_config(args.workload, args.seed);
    repeat_for(args.seconds, |rep| {
        let values = match args.workload {
            Workload::ServeSteady | Workload::ServeChurn => {
                let inputs = tr.span("gen", rep, || generate_serve(&serve_cfg))?;
                serve_rep(
                    &serve_cfg,
                    &inputs,
                    rep,
                    &mut tr,
                    &mut checks,
                    &mut faithful,
                )?
            }
            Workload::DtaPipeline => {
                let scenario = tr.span("gen", rep, || generate_pipeline(args.seed))?;
                pipeline_rep(&scenario, rep, &mut tr, &mut checks, &mut faithful)?
            }
        };
        reps.push(values);
        Ok::<_, AssignError>(())
    })?;
    let gen_ms: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "gen")
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();

    if let Some(path) = &args.spans {
        tr.write_csv(path)
            .map_err(|e| AssignError::InvalidInput(format!("writing {path}: {e}")))?;
    }
    if !faithful {
        println!("per-layer numbers INVALID: the replay diverged from the untraced run");
    }

    let mut out: Vec<(&str, f64)> = Vec::with_capacity(METRICS.len());
    for name in METRICS {
        let value = match name {
            "gen.busy_ms" => median(&gen_ms),
            "par.threads" => threads as f64,
            "trace.faithful" => f64::from(u8::from(faithful)),
            "trace.replays" => reps.len() as f64,
            // A DTA repetition is one epoch sample, as in the untraced run.
            "epoch_p90_ms"
                if !matches!(args.workload, Workload::ServeSteady | Workload::ServeChurn) =>
            {
                let reps_ms: Vec<f64> = reps.iter().map(|v| v["trace.run_s"] * 1e3).collect();
                percentile(&reps_ms, 90.0)
            }
            _ => {
                let samples: Vec<f64> = reps.iter().filter_map(|v| v.get(name).copied()).collect();
                if samples.is_empty() {
                    0.0
                } else {
                    median(&samples)
                }
            }
        };
        out.push((name, value));
    }
    print_result(&checks, &out);
    Ok(())
}

// ---------------------------------------------------------------- serve

/// What the replay decided in one epoch: the fields compared with the
/// untraced `EpochStats`.
#[derive(Debug, PartialEq)]
struct EpochOutcome {
    assigned: usize,
    cancelled: usize,
    churn_cancelled: usize,
    resourced: usize,
    deadline_misses: usize,
    warm_hits: usize,
    warm_rejections: usize,
    lp_objective_bits: u64,
    final_energy_bits: u64,
}

impl EpochOutcome {
    fn of(e: &EpochStats) -> EpochOutcome {
        EpochOutcome {
            assigned: e.assigned,
            cancelled: e.cancelled,
            churn_cancelled: e.churn_cancelled,
            resourced: e.resourced,
            deadline_misses: e.deadline_misses,
            warm_hits: e.warm_hits,
            warm_rejections: e.warm_rejections,
            lp_objective_bits: e.lp_objective.to_bits(),
            final_energy_bits: e.final_energy.to_bits(),
        }
    }
}

fn serve_rep(
    cfg: &ServeConfig,
    inputs: &ServeInputs,
    rep: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
    faithful: &mut bool,
) -> Result<Values, AssignError> {
    let untraced = run_serve(cfg)?;
    check_serve_report(&untraced.report, cfg, checks);

    let root = tr.begin("replay", rep);
    let mut counts = Counts::default();
    let outcomes = replay_serve(inputs, tr, &mut counts, checks)?;
    tr.end(root);

    let expected: Vec<EpochOutcome> = untraced
        .report
        .epochs
        .iter()
        .map(EpochOutcome::of)
        .collect();
    if let Some(e) =
        (0..expected.len().max(outcomes.len())).find(|&e| expected.get(e) != outcomes.get(e))
    {
        *faithful = false;
        println!(
            "replay diverged at epoch {e}: untraced {:?}, replay {:?}",
            expected.get(e),
            outcomes.get(e)
        );
    }

    let report = &untraced.report;
    let mut v = layer_values(&LayerTimes::of(tr, root), &counts, untraced.wall_s);
    let total = |f: fn(&EpochStats) -> usize| report.epochs.iter().map(f).sum::<usize>() as f64;
    v.insert("serve.resourced", total(|e| e.resourced));
    v.insert("serve.churn_cancelled", total(|e| e.churn_cancelled));
    v.insert("serve.warm_rejections", total(|e| e.warm_rejections));
    v.insert("epoch_p90_ms", percentile(&untraced.intervals_ms, 90.0));
    v.insert("unsatisfied_rate", unsatisfied_rate(&report.epochs));
    v.insert("energy_ratio", energy_ratio(&report.epochs));
    Ok(v)
}

/// `serve_with_hook`'s epoch loop through public functions, one span per
/// layer call. Churn ingest and the (here disabled) cloud reconciliation
/// are private to the serve module: ingest is mirrored below, and the
/// serve workloads leave the cloud uncapped.
fn replay_serve(
    inputs: &ServeInputs,
    tr: &mut Tracer,
    c: &mut Counts,
    checks: &mut Checks,
) -> Result<Vec<EpochOutcome>, AssignError> {
    let system = &inputs.stream.system;
    let dropouts: Vec<_> = inputs
        .plan
        .faults()
        .iter()
        .filter_map(|f| match *f {
            Fault::Dropout { device, at } => Some((device, at)),
            _ => None,
        })
        .collect();
    let algo = LpHta::paper().without_fast_path();
    let mut warm = WarmBases::new();
    let mut outcomes = Vec::with_capacity(inputs.stream.batches.len());

    for batch in &inputs.stream.batches {
        let e = batch.epoch;
        let epoch_span = tr.begin("serve.epoch", e);

        let ingest = tr.begin("bench.ingest", e);
        let now = batch.close_time();
        let mut is_dead = vec![false; system.num_devices()];
        for &(d, at) in &dropouts {
            if at <= now && d.0 < is_dead.len() {
                is_dead[d.0] = true;
            }
        }
        let mut live: Vec<HolisticTask> = Vec::with_capacity(batch.tasks.len());
        let (mut churn_cancelled, mut resourced) = (0, 0);
        for task in &batch.tasks {
            if task.owner.0 < is_dead.len() && is_dead[task.owner.0] {
                churn_cancelled += 1;
                continue;
            }
            let mut task = *task;
            if resource_dead_external(&mut task, &is_dead) {
                resourced += 1;
            }
            live.push(task);
        }
        tr.end(ingest);

        let costs = tr.span("pricing", e, || {
            mec_bench::pricing::build_cost_table(system, &live)
        })?;
        c.priced_tasks += live.len();
        let shards = tr.span("hta.shard", e, || cluster_task_indices(system, &live))?;

        let mut fractional = FractionalSolution {
            clusters: Vec::with_capacity(shards.len()),
            lp_objective: 0.0,
            lp_iterations: 0,
        };
        let (mut warm_hits, mut warm_rejections) = (0, 0);
        for (station, idxs) in shards {
            if idxs.is_empty() {
                continue;
            }
            if idxs.len() > algo.lp_cluster_limit {
                return Err(AssignError::InvalidInput(format!(
                    "cluster of {} tasks takes LP-HTA's greedy seed, which the replay omits",
                    idxs.len()
                )));
            }
            let rel = tr.span("hta.relax", e, || {
                build_cluster_relaxation(system, &live, &costs, station, &idxs)
            })?;
            let Some(rel) = rel else { continue };
            let prev = warm.basis(station);
            let solve = tr.begin("linprog.cold", e);
            let outcome = linprog::solve_from(&rel.lp, prev);
            tr.end(solve);
            let outcome = outcome?;
            let sol = &outcome.solution;
            if prev.is_some() {
                c.warm_offered += 1;
            }
            if outcome.warm_rejection.is_some() {
                c.warm_rejections += 1;
                warm_rejections += 1;
            }
            if outcome.warm_used {
                tr.spans[solve].name = "linprog.warm";
                c.warm_hits += 1;
                c.warm_iterations += sol.iterations;
                warm_hits += 1;
            } else {
                c.cold_iterations += sol.iterations;
            }
            let (x, objective) = if sol.status == LpStatus::Optimal {
                (rel.fractional_matrix(&sol.x), sol.objective)
            } else {
                c.non_optimal += 1;
                let cloud: f64 = idxs
                    .iter()
                    .map(|&i| costs.at(i, ExecutionSite::Cloud).energy.value())
                    .sum();
                (vec![[0.0, 0.0, 1.0]; idxs.len()], cloud)
            };
            fractional.lp_objective += objective;
            fractional.lp_iterations += sol.iterations;
            match outcome.basis {
                Some(basis) => warm.store(station, basis),
                None => warm.clear(station),
            }
            fractional.clusters.push(ClusterFractions {
                station,
                task_indices: idxs,
                x,
            });
        }

        let (assignment, report) = tr.span("hta.round", e, || {
            algo.round_with(system, &live, &costs, &fractional)
        })?;
        c.round_cancelled += report.cancelled.len();

        let check = tr.begin("bench.check", e);
        let decisions = assignment.decisions();
        let mut deadline_misses = 0;
        for (i, d) in decisions.iter().enumerate() {
            let missed = match *d {
                Decision::Assigned(site) => !costs.feasible(i, site, live[i].deadline),
                Decision::Cancelled => true,
            };
            deadline_misses += usize::from(missed);
        }
        for cluster in &fractional.clusters {
            for (row, &i) in cluster.x.iter().zip(&cluster.task_indices) {
                c.rounded_tasks += 1;
                if decisions[i] != Decision::Assigned(argmax_site(row)) {
                    c.repair_moves += 1;
                }
            }
        }
        check_capacities(e, system, &live, decisions, checks)?;
        checks.check(
            lower_bounds(
                report.final_energy,
                report.ratio_bound * report.lp_objective,
            ),
            || {
                format!(
                    "epoch {e}: final energy {} above Theorem-2 bound {} × LP {}",
                    report.final_energy, report.ratio_bound, report.lp_objective
                )
            },
        );
        let assigned = decisions
            .iter()
            .filter(|d| matches!(d, Decision::Assigned(_)))
            .count();
        tr.end(check);

        outcomes.push(EpochOutcome {
            assigned,
            cancelled: batch.tasks.len() - assigned - churn_cancelled,
            churn_cancelled,
            resourced,
            deadline_misses,
            warm_hits,
            warm_rejections,
            lp_objective_bits: report.lp_objective.to_bits(),
            final_energy_bits: report.final_energy.to_bits(),
        });
        tr.end(epoch_span);
    }
    Ok(outcomes)
}

/// Serve's re-sourcing rule (private to the serve module): a task whose
/// external source died takes the lowest-id live device other than its
/// owner, or drops the dependency when none is left.
fn resource_dead_external(task: &mut HolisticTask, is_dead: &[bool]) -> bool {
    let Some(src) = task.external_source else {
        return false;
    };
    if src.0 >= is_dead.len() || !is_dead[src.0] {
        return false;
    }
    match (0..is_dead.len())
        .map(DeviceId)
        .find(|d| !is_dead[d.0] && *d != task.owner)
    {
        Some(d) => task.external_source = Some(d),
        None => {
            task.external_source = None;
            task.external_size = Bytes::ZERO;
        }
    }
    true
}

/// LP-HTA's Step-3 rule: the largest fraction, ties toward the device.
fn argmax_site(row: &[f64; 3]) -> ExecutionSite {
    let mut best = ExecutionSite::Device;
    for site in [ExecutionSite::Station, ExecutionSite::Cloud] {
        if row[site.index()] > row[best.index()] {
            best = site;
        }
    }
    best
}

/// Device (C2) and station (C3) loads of the epoch's decisions stay within
/// capacity.
fn check_capacities(
    epoch: usize,
    system: &mec_sim::topology::MecSystem,
    tasks: &[HolisticTask],
    decisions: &[Decision],
    checks: &mut Checks,
) -> Result<(), AssignError> {
    let mut device_load = vec![0.0f64; system.num_devices()];
    let mut station_load = vec![0.0f64; system.num_stations()];
    for (task, d) in tasks.iter().zip(decisions) {
        match d {
            Decision::Assigned(ExecutionSite::Device) => {
                device_load[task.owner.0] += task.resource.value();
            }
            Decision::Assigned(ExecutionSite::Station) => {
                station_load[system.station_of(task.owner)?.0] += task.resource.value();
            }
            _ => {}
        }
    }
    let within = |load: f64, cap: f64| load <= cap * (1.0 + 1e-9);
    let over_devices = system
        .devices()
        .iter()
        .zip(&device_load)
        .filter(|(d, &load)| !within(load, d.max_resource.value()))
        .count();
    let over_stations = system
        .stations()
        .iter()
        .zip(&station_load)
        .filter(|(s, &load)| !within(load, s.max_resource.value()))
        .count();
    checks.check(over_devices == 0, || {
        format!("epoch {epoch}: {over_devices} devices over capacity (C2)")
    });
    checks.check(over_stations == 0, || {
        format!("epoch {epoch}: {over_stations} stations over capacity (C3)")
    });
    Ok(())
}

// ------------------------------------------------------------------ dta

fn pipeline_rep(
    scenario: &DivisibleScenario,
    rep: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
    faithful: &mut bool,
) -> Result<Values, AssignError> {
    let (untraced, run_s) = timed(|| run_pipeline(scenario, checks, &mut Laps::start()));
    let untraced = untraced?;

    let root = tr.begin("replay", rep);
    let dta_rep = tr.begin("dta.rep", rep);
    let u = &scenario.universe;
    // `run_dta` = required items + division + `run_dta_with_coverage`.
    let required = tr.span("dta.required", rep, || scenario.required_universe());
    let cover = tr.span("dta.balanced", rep, || divide_balanced(u, &required))?;
    let workload = tr.span("dta.rearrange", rep, || {
        run_dta_with_coverage(scenario, DtaConfig::workload(), cover)
    })?;
    let required = tr.span("dta.required", rep, || scenario.required_universe());
    let cover = tr.span("dta.min_devices", rep, || divide_min_devices(u, &required))?;
    let number = tr.span("dta.rearrange", rep, || {
        run_dta_with_coverage(scenario, DtaConfig::number(), cover)
    })?;
    let rebalanced = tr.span("dta.rebalance", rep, || rebalance(u, &workload.coverage))?;
    tr.span("dta.validate", rep, || {
        check_cover("DTA-Workload", &workload.coverage, u, &required, checks);
        check_cover("DTA-Number", &number.coverage, u, &required, checks);
        check_cover("rebalanced", &rebalanced, u, &required, checks);
    });
    tr.end(dta_rep);
    tr.end(root);
    check_dta_schedule(&workload, checks);
    check_dta_schedule(&number, checks);

    let pieces = workload.pieces.len() + number.pieces.len();
    let moved = items_moved(&workload.coverage, &rebalanced);
    let replayed = PipelineOutput {
        workload,
        number,
        rebalanced,
    };
    if replayed != untraced {
        *faithful = false;
        println!("replay {rep} produced other DTA reports than the untraced run");
    }
    let mut v = layer_values(&LayerTimes::of(tr, root), &Counts::default(), run_s);
    v.insert("dta.required_items", required.len() as f64);
    v.insert("dta.rebalance.items_moved", moved as f64);
    v.insert("dta.rearrange.pieces", pieces as f64);
    v.insert(
        "dta_max_share",
        replayed.workload.coverage.max_share_len() as f64,
    );
    v.insert("dta_devices", replayed.number.involved_devices as f64);
    v.insert(
        "rebalanced_max_share",
        replayed.rebalanced.max_share_len() as f64,
    );
    Ok(v)
}
