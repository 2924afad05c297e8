//! End-to-end half of the dsmec benchmark: runs one workload through the
//! product entry points with `mec-obs` off, checks every output, and
//! prints the end-to-end metrics as the last line.
//!
//! `perfbench-e2e --workload NAME --seed N --seconds S`

use dsmec_core::error::AssignError;
use dsmec_perfbench::{
    assigned_pieces, check_serve_report, energy_ratio, generate_pipeline, generate_serve, median,
    percentile, pin_threads, placements, print_result, repeat_for, run_pipeline, run_serve,
    serve_config, timed, unsatisfied_rate, Args, Checks, Laps, Workload,
};
use mec_bench::serve::ServeReport;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-e2e: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("perfbench-e2e: {e}");
        std::process::exit(1);
    }
}

/// What every workload reports. A repetition is cut into consecutive
/// pieces whose durations sum to its wall time; every repetition of a run
/// does the same work piece by piece, because the same seed gives the same
/// inputs and the same outputs.
struct Measured {
    setup_s: Vec<f64>,
    /// Per repetition, the seconds of each piece, in order.
    pieces_s: Vec<Vec<f64>>,
    /// Index of the first piece that is an epoch. Serve pieces are the
    /// call's start up to the first hook, then one interval per epoch
    /// (`Some(1)`). A DTA repetition has one piece per measured call and
    /// is itself the one epoch (`None`).
    first_epoch: Option<usize>,
    assignments_per_rep: usize,
    /// Workload-specific quality figures, printed for reading only; the
    /// traced run reports them.
    quality: Vec<(&'static str, f64)>,
}

impl Measured {
    /// Fastest time of each piece over the run's repetitions. Noise from a
    /// shared host only ever adds time, so the fastest of several runs of
    /// the same work is the steadiest estimate of its cost.
    fn best_pieces(&self) -> Vec<f64> {
        let n = self.pieces_s.iter().map(Vec::len).min().unwrap_or(0);
        (0..n)
            .map(|i| {
                self.pieces_s
                    .iter()
                    .map(|rep| rep[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Epoch times in milliseconds out of one repetition's pieces.
    fn epochs_ms(&self, pieces: &[f64]) -> Vec<f64> {
        match self.first_epoch {
            Some(first) => pieces[first..].iter().map(|s| s * 1e3).collect(),
            None => vec![pieces.iter().sum::<f64>() * 1e3],
        }
    }

    /// Percentile `p` of the epoch times, the typical figure printed for
    /// reading. Serve takes it per session, then the median over sessions;
    /// DTA takes it over the repetitions.
    fn typical_epoch_ms(&self, p: f64) -> f64 {
        let per_rep = self.pieces_s.iter().map(|rep| self.epochs_ms(rep));
        match self.first_epoch {
            Some(_) => median(&per_rep.map(|ms| percentile(&ms, p)).collect::<Vec<_>>()),
            None => percentile(&per_rep.flatten().collect::<Vec<_>>(), p),
        }
    }
}

fn run(args: Args) -> Result<(), AssignError> {
    let threads = pin_threads();
    assert!(!mec_obs::enabled(), "end-to-end runs need mec-obs off");
    let mut checks = Checks::default();
    let m = match args.workload {
        Workload::ServeSteady | Workload::ServeChurn => serve(&args, &mut checks)?,
        Workload::DtaPipeline => pipeline(&args, &mut checks)?,
    };
    assert!(!mec_obs::enabled(), "end-to-end runs need mec-obs off");

    let best = m.best_pieces();
    let run_best_s: f64 = best.iter().sum();
    let epoch_best_ms = m.epochs_ms(&best);
    let rep_s: Vec<f64> = m.pieces_s.iter().map(|rep| rep.iter().sum()).collect();
    println!(
        "threads {threads}, {} repetitions of {} pieces and {} epochs",
        m.pieces_s.len(),
        best.len(),
        epoch_best_ms.len()
    );
    for (name, value) in &m.quality {
        println!("quality {name} = {value}");
    }
    println!("typical run_s = {}", median(&rep_s));
    println!("typical epoch_p50_ms = {}", m.typical_epoch_ms(50.0));
    println!("typical epoch_p90_ms = {}", m.typical_epoch_ms(90.0));
    print_result(
        &checks,
        &[
            ("setup_s", median(&m.setup_s)),
            ("run_best_s", run_best_s),
            (
                "assignments_per_s",
                m.assignments_per_rep as f64 / run_best_s,
            ),
            ("epoch_best_p50_ms", median(&epoch_best_ms)),
        ],
    );
    Ok(())
}

fn serve(args: &Args, checks: &mut Checks) -> Result<Measured, AssignError> {
    let cfg = serve_config(args.workload, args.seed);
    let (mut setup_s, mut pieces_s) = (Vec::new(), Vec::new());
    let mut first: Option<ServeReport> = None;
    repeat_for(args.seconds, |_| {
        // `serve_with_hook` builds its own inputs; these are generated only
        // to time the generators.
        let (inputs, secs) = timed(|| generate_serve(&cfg));
        drop(inputs?);
        setup_s.push(secs);
        let run = run_serve(&cfg)?;
        check_serve_report(&run.report, &cfg, checks);
        if let Some(first) = &first {
            let (a, b) = (&first.session_fingerprint, &run.report.session_fingerprint);
            checks.check(a == b, || {
                format!("session fingerprint {b} differs from {a}")
            });
        }
        // The first piece runs from the call's start to the first hook and
        // also holds the return after the last one.
        let epochs_s: Vec<f64> = run.intervals_ms.iter().map(|ms| ms / 1e3).collect();
        let mut pieces = vec![run.wall_s - epochs_s.iter().sum::<f64>()];
        pieces.extend(epochs_s);
        pieces_s.push(pieces);
        first.get_or_insert(run.report);
        Ok::<_, AssignError>(())
    })?;
    let report = first.expect("at least one repetition");
    Ok(Measured {
        setup_s,
        pieces_s,
        first_epoch: Some(1),
        assignments_per_rep: report.assigned_total,
        quality: vec![
            ("unsatisfied_rate", unsatisfied_rate(&report.epochs)),
            ("energy_ratio", energy_ratio(&report.epochs)),
        ],
    })
}

/// Set-up samples, the pieces of every repetition, and the first
/// repetition's output.
type DtaReps<T> = (Vec<f64>, Vec<Vec<f64>>, T);

/// Repetitions of a DTA workload: generate the inputs (`setup_s`), run the
/// measured calls on them, one piece per call. Every repetition's output
/// must equal the first's, which is returned.
fn dta_reps<I, T: PartialEq>(
    seconds: f64,
    checks: &mut Checks,
    mut generate: impl FnMut() -> Result<I, AssignError>,
    mut rep: impl FnMut(&I, &mut Checks, &mut Laps) -> Result<T, AssignError>,
) -> Result<DtaReps<T>, AssignError> {
    let (mut setup_s, mut pieces_s) = (Vec::new(), Vec::new());
    let mut first: Option<T> = None;
    repeat_for(seconds, |_| {
        let (inputs, secs) = timed(&mut generate);
        let inputs = inputs?;
        setup_s.push(secs);
        let mut laps = Laps::start();
        let out = rep(&inputs, checks, &mut laps)?;
        pieces_s.push(laps.pieces_s);
        match &first {
            Some(f) => checks.check(*f == out, || "repetition output differs".to_string()),
            None => first = Some(out),
        }
        Ok::<_, AssignError>(())
    })?;
    Ok((setup_s, pieces_s, first.expect("at least one repetition")))
}

fn pipeline(args: &Args, checks: &mut Checks) -> Result<Measured, AssignError> {
    let (setup_s, pieces_s, out) = dta_reps(
        args.seconds,
        checks,
        || generate_pipeline(args.seed),
        run_pipeline,
    )?;
    Ok(Measured {
        setup_s,
        pieces_s,
        first_epoch: None,
        assignments_per_rep: placements(&out.workload.coverage)
            + placements(&out.number.coverage)
            + placements(&out.rebalanced)
            + assigned_pieces(&out.workload)
            + assigned_pieces(&out.number),
        quality: vec![
            (
                "dta_max_share",
                out.workload.coverage.max_share_len() as f64,
            ),
            ("dta_devices", out.number.involved_devices as f64),
            (
                "rebalanced_max_share",
                out.rebalanced.max_share_len() as f64,
            ),
        ],
    })
}
