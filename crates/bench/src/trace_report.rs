//! Offline analysis behind `dsmec trace`: reconstructs the span forest
//! from a flight-recorder trace (schema v2/v3, DESIGN.md §7) and renders
//!
//! * a per-name **self-time / total-time table** — where the wall clock
//!   actually goes, with double-counted child time subtracted out;
//! * the **critical path** — the longest root-to-leaf chain of spans,
//!   with serial (self) vs parallel (overlapping children) attribution;
//! * a **folded-stack export** — `a;b;c <ns>` lines, the input format of
//!   the standard flamegraph tooling;
//! * a **diff / regression gate** over two traces' span aggregates —
//!   `dsmec trace --baseline old.json new.json --gate 1.15` fails when
//!   any span's total time regresses past the ratio.
//!
//! Aggregate-only traces (schema v1, or later recorded with
//! `DSMEC_TRACE_EVENTS=0`) still get the table and the diff/gate; the
//! forest-based views need events and say so instead of guessing. When
//! the trace carries histograms, both table paths append their v3
//! nearest-rank p50/p95/p99 columns.

use crate::cli::read_json;
use mec_obs::TraceSnapshot;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Options for [`trace_command`], mapped 1:1 from the CLI flags.
#[derive(Debug, Clone)]
pub struct TraceArgs {
    /// Trace to analyze (the *new* trace in diff mode).
    pub file: String,
    /// Write folded flamegraph stacks here.
    pub folded: Option<String>,
    /// Older trace to diff against.
    pub baseline: Option<String>,
    /// Regression ratio that fails the run (requires `baseline`).
    pub gate: Option<f64>,
    /// Spans whose baseline total is below this are exempt from the gate
    /// (and flagged informationally in the diff): tiny spans are noise.
    pub min_total_ms: f64,
    /// Per-prefix overrides of `min_total_ms`: `(prefix, ms)` pairs from
    /// `--floor prefix=ms[,prefix=ms]`; the longest matching prefix wins.
    /// Lets the gate watch hot-but-cheap subsystems (`linprog/` after the
    /// sparse-substrate ratchet) at a tighter floor than the global one.
    pub floors: Vec<(String, f64)>,
    /// Rows shown in the self-time table.
    pub top: usize,
}

impl Default for TraceArgs {
    fn default() -> Self {
        TraceArgs {
            file: String::new(),
            folded: None,
            baseline: None,
            gate: None,
            min_total_ms: 1.0,
            floors: Vec::new(),
            top: 30,
        }
    }
}

/// Entry point used by the `dsmec trace` subcommand. Prints to stdout;
/// an `Err` (bad input, or a tripped gate) becomes the process's nonzero
/// exit status.
///
/// # Errors
///
/// Returns a human-readable message for unreadable/unparsable inputs and
/// when the regression gate trips.
pub fn trace_command(args: &TraceArgs) -> Result<(), String> {
    let snap: TraceSnapshot = read_json(&args.file)?;
    if let Some(baseline_path) = &args.baseline {
        let baseline: TraceSnapshot = read_json(baseline_path)?;
        let rows = diff_spans(&baseline, &snap);
        print!("{}", render_diff(&rows, args.min_total_ms, &args.floors));
        if let Some(gate) = args.gate {
            check_gate(&rows, gate, args.min_total_ms, &args.floors)?;
        }
        return Ok(());
    }

    let forest = SpanForest::build(&snap);
    print!("{}", render_dropped_warning(&snap));
    print!("{}", render_table(&snap, &forest, args.top));
    print!("{}", render_critical_path(&snap, &forest));
    if let Some(out) = &args.folded {
        let folded = folded_stacks(&snap, &forest);
        std::fs::write(out, &folded).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "wrote folded stacks to {out} ({} lines)",
            folded.lines().count()
        );
    }
    Ok(())
}

/// A warning for traces whose event ring overflowed, empty otherwise.
/// The ring drops its oldest events, so a surviving parent whose children
/// were dropped counts their time as its own self time.
fn render_dropped_warning(snapshot: &TraceSnapshot) -> String {
    match snapshot.counter("obs/events/dropped") {
        Some(dropped) if dropped > 0 => format!(
            "warning: the trace dropped {dropped} of its oldest events \
             (obs/events/dropped);\n\
             spans whose children were dropped show overstated self time\n\n"
        ),
        _ => String::new(),
    }
}

/// The span forest reconstructed from a trace's events: children grouped
/// under parents, with per-node self time (duration minus the summed
/// duration of direct children — clamped at zero, since children running
/// in parallel on other threads can overlap their parent arbitrarily).
#[derive(Debug)]
pub struct SpanForest {
    /// Indices into `snapshot.events`, one entry per event.
    children: Vec<Vec<usize>>,
    /// Event indices with no parent in the trace (parent id 0, or the
    /// parent event was dropped by the ring).
    roots: Vec<usize>,
    /// Self time per event, nanoseconds.
    self_ns: Vec<u64>,
}

impl SpanForest {
    /// Reconstructs parent→children edges from the events' parent ids.
    #[must_use]
    pub fn build(snapshot: &TraceSnapshot) -> SpanForest {
        let events = &snapshot.events;
        let index_of: HashMap<u64, usize> =
            events.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); events.len()];
        let mut roots = Vec::new();
        for (i, e) in events.iter().enumerate() {
            match index_of.get(&e.parent) {
                Some(&p) if e.parent != 0 && e.parent != e.id => children[p].push(i),
                _ => roots.push(i),
            }
        }
        let mut self_ns = vec![0u64; events.len()];
        for (i, e) in events.iter().enumerate() {
            let child_total: u64 = children[i].iter().map(|&c| events[c].duration_ns()).sum();
            self_ns[i] = e.duration_ns().saturating_sub(child_total);
        }
        SpanForest {
            children,
            roots,
            self_ns,
        }
    }

    /// True when the trace carried no events (aggregates only).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.self_ns.is_empty()
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Renders the per-name self-time/total-time table. With events present
/// the table is forest-based (total, self, share of self time); without
/// them it falls back to the v1 aggregates (count, total, min, max).
#[must_use]
pub fn render_table(snapshot: &TraceSnapshot, forest: &SpanForest, top: usize) -> String {
    let mut out = String::new();
    if forest.is_empty() {
        let _ = writeln!(
            out,
            "no events in trace (schema v1 file, or recorded with DSMEC_TRACE_EVENTS=0);"
        );
        let _ = writeln!(out, "showing aggregate span statistics instead\n");
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>12} {:>12} {:>12}",
            "span", "count", "total ms", "min ms", "max ms"
        );
        let _ = writeln!(out, "{}", "-".repeat(82));
        let mut spans = snapshot.spans.clone();
        spans.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
        for s in spans.iter().take(top) {
            let _ = writeln!(
                out,
                "{:<34} {:>8} {:>12} {:>12} {:>12}",
                s.name,
                s.count,
                fmt_ms(s.total_ns),
                fmt_ms(s.min_ns),
                fmt_ms(s.max_ns)
            );
        }
        out.push_str(&render_histograms(snapshot));
        return out;
    }

    // Per-name rollup over the forest.
    struct Row {
        count: u64,
        total_ns: u64,
        self_ns: u64,
    }
    let mut rows: HashMap<&str, Row> = HashMap::new();
    for (i, e) in snapshot.events.iter().enumerate() {
        let row = rows.entry(e.name.as_str()).or_insert(Row {
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += e.duration_ns();
        row.self_ns += forest.self_ns[i];
    }
    let total_self: u64 = rows.values().map(|r| r.self_ns).sum();
    let mut sorted: Vec<(&str, Row)> = rows.into_iter().collect();
    sorted.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));

    let _ = writeln!(
        out,
        "span time by name ({} events, top {} by self time)\n",
        snapshot.events.len(),
        top.min(sorted.len())
    );
    let _ = writeln!(
        out,
        "{:<34} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "self%"
    );
    let _ = writeln!(out, "{}", "-".repeat(77));
    for (name, row) in sorted.iter().take(top) {
        #[allow(clippy::cast_precision_loss)]
        let share = if total_self == 0 {
            0.0
        } else {
            100.0 * row.self_ns as f64 / total_self as f64
        };
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>12} {:>12} {:>6.1}%",
            name,
            row.count,
            fmt_ms(row.total_ns),
            fmt_ms(row.self_ns),
            share
        );
    }
    out.push_str(&render_histograms(snapshot));
    out
}

/// Renders the histogram aggregates with their v3 nearest-rank
/// percentiles (p50/p95/p99 are bucket upper bounds clamped into
/// `[min, max]`; pre-v3 traces decode them as 0). Empty when the trace
/// recorded no histograms.
fn render_histograms(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    if snapshot.histograms.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "\nhistograms (nearest-rank percentiles over log2 buckets)\n"
    );
    let _ = writeln!(
        out,
        "{:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "histogram", "count", "mean", "p50", "p95", "p99"
    );
    let _ = writeln!(out, "{}", "-".repeat(87));
    for h in &snapshot.histograms {
        #[allow(clippy::cast_precision_loss)]
        let mean = if h.count == 0 {
            0.0
        } else {
            h.sum / h.count as f64
        };
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            h.name, h.count, mean, h.p50, h.p95, h.p99
        );
    }
    out
}

/// Renders the critical path: starting from the longest root span,
/// repeatedly descend into the longest child. Each step attributes the
/// span's time to self (serial) vs children, and marks fan-out steps
/// where children overlap in parallel (summed child time exceeding the
/// parent's wall time).
#[must_use]
pub fn render_critical_path(snapshot: &TraceSnapshot, forest: &SpanForest) -> String {
    let mut out = String::new();
    let Some(&root) = forest
        .roots
        .iter()
        .max_by_key(|&&i| snapshot.events[i].duration_ns())
    else {
        let _ = writeln!(out, "\ncritical path: unavailable without events");
        return out;
    };

    let _ = writeln!(out, "\ncritical path (longest child at every step):\n");
    let mut node = root;
    let mut depth = 0usize;
    let mut serial_ns = 0u64;
    loop {
        let e = &snapshot.events[node];
        let dur = e.duration_ns();
        let child_sum: u64 = forest.children[node]
            .iter()
            .map(|&c| snapshot.events[c].duration_ns())
            .sum();
        serial_ns += forest.self_ns[node];
        #[allow(clippy::cast_precision_loss)]
        let parallelism = if dur == 0 {
            1.0
        } else {
            child_sum as f64 / dur as f64
        };
        let marker = if parallelism > 1.05 {
            format!(
                "  [children {} ms, ~{parallelism:.1}x parallel]",
                fmt_ms(child_sum)
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{:indent$}{} — {} ms total, {} ms self{marker}",
            "",
            e.name,
            fmt_ms(dur),
            fmt_ms(forest.self_ns[node]),
            indent = depth * 2
        );
        let Some(&next) = forest.children[node]
            .iter()
            .max_by_key(|&&c| snapshot.events[c].duration_ns())
        else {
            break;
        };
        node = next;
        depth += 1;
    }
    let root_dur = snapshot.events[root].duration_ns();
    #[allow(clippy::cast_precision_loss)]
    let serial_share = if root_dur == 0 {
        0.0
    } else {
        100.0 * serial_ns as f64 / root_dur as f64
    };
    let _ = writeln!(
        out,
        "\npath self (serial) time: {} ms of {} ms root span ({serial_share:.1}% serial)",
        fmt_ms(serial_ns),
        fmt_ms(root_dur)
    );
    out
}

/// Folded flamegraph stacks: one `root;child;leaf <self_ns>` line per
/// distinct stack, self time summed over occurrences, zero-self stacks
/// skipped (their time lives in deeper frames). Lines sort
/// lexicographically so output is deterministic.
#[must_use]
pub fn folded_stacks(snapshot: &TraceSnapshot, forest: &SpanForest) -> String {
    let index_of: HashMap<u64, usize> = snapshot
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| (e.id, i))
        .collect();
    let mut lines: HashMap<String, u64> = HashMap::new();
    for (i, e) in snapshot.events.iter().enumerate() {
        if forest.self_ns[i] == 0 {
            continue;
        }
        // Walk parent links up to a root; the chain is short (nesting
        // depth), and a dropped parent simply truncates the stack.
        let mut stack = vec![e.name.as_str()];
        let mut cur = e;
        while cur.parent != 0 && cur.parent != cur.id {
            match index_of.get(&cur.parent) {
                Some(&p) => {
                    cur = &snapshot.events[p];
                    stack.push(cur.name.as_str());
                }
                None => break,
            }
        }
        stack.reverse();
        *lines.entry(stack.join(";")).or_insert(0) += forest.self_ns[i];
    }
    let mut sorted: Vec<(String, u64)> = lines.into_iter().collect();
    sorted.sort();
    let mut out = String::new();
    for (stack, ns) in sorted {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

/// One span's entry in a baseline-vs-new comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Span name.
    pub name: String,
    /// Total ns in the baseline trace (0 when the span is new).
    pub base_ns: u64,
    /// Total ns in the new trace (0 when the span disappeared).
    pub new_ns: u64,
}

impl DiffRow {
    /// `new / base` ratio; infinity for spans with no baseline time.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.base_ns == 0 {
            if self.new_ns == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.new_ns as f64 / self.base_ns as f64
        }
    }
}

/// Compares two traces' span aggregates by name (works on v1 and v2
/// files alike — the gate never needs events). Rows sort by descending
/// ratio, worst regressions first.
#[must_use]
pub fn diff_spans(baseline: &TraceSnapshot, new: &TraceSnapshot) -> Vec<DiffRow> {
    let mut names: Vec<&str> = baseline
        .spans
        .iter()
        .chain(&new.spans)
        .map(|s| s.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut rows: Vec<DiffRow> = names
        .into_iter()
        .map(|name| DiffRow {
            name: name.to_string(),
            base_ns: baseline.span(name).map_or(0, |s| s.total_ns),
            new_ns: new.span(name).map_or(0, |s| s.total_ns),
        })
        .collect();
    rows.sort_by(|a, b| b.ratio().total_cmp(&a.ratio()).then(a.name.cmp(&b.name)));
    rows
}

const MS_PER_NS: f64 = 1e-6;

/// The gate floor that applies to `name`: the longest matching prefix
/// override from `floors`, or the global `min_total_ms`.
fn effective_floor(name: &str, min_total_ms: f64, floors: &[(String, f64)]) -> f64 {
    floors
        .iter()
        .filter(|(prefix, _)| name.starts_with(prefix.as_str()))
        .max_by_key(|(prefix, _)| prefix.len())
        .map_or(min_total_ms, |(_, ms)| *ms)
}

/// Renders the diff table; spans under their gate floor (`min_total_ms`,
/// or a matching `--floor` prefix override) are marked as below the
/// gate's noise threshold.
#[must_use]
pub fn render_diff(rows: &[DiffRow], min_total_ms: f64, floors: &[(String, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>12} {:>12} {:>8}",
        "span", "base ms", "new ms", "ratio"
    );
    let _ = writeln!(out, "{}", "-".repeat(70));
    for row in rows {
        #[allow(clippy::cast_precision_loss)]
        let below_floor =
            (row.base_ns as f64) * MS_PER_NS < effective_floor(&row.name, min_total_ms, floors);
        let note = if below_floor {
            "  (below gate floor)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:<34} {:>12} {:>12} {:>8.3}{note}",
            row.name,
            fmt_ms(row.base_ns),
            fmt_ms(row.new_ns),
            row.ratio()
        );
    }
    out
}

/// Fails when any span regressed past `gate`, ignoring spans whose
/// baseline total is under their noise floor (`min_total_ms`, or a
/// matching `--floor` prefix override).
///
/// # Errors
///
/// Returns a message listing every offending span.
pub fn check_gate(
    rows: &[DiffRow],
    gate: f64,
    min_total_ms: f64,
    floors: &[(String, f64)],
) -> Result<(), String> {
    #[allow(clippy::cast_precision_loss)]
    let offenders: Vec<String> = rows
        .iter()
        .filter(|r| {
            (r.base_ns as f64) * MS_PER_NS >= effective_floor(&r.name, min_total_ms, floors)
                && r.ratio() > gate
        })
        .map(|r| {
            format!(
                "{}: {} ms -> {} ms ({:.3}x > {gate}x)",
                r.name,
                fmt_ms(r.base_ns),
                fmt_ms(r.new_ns),
                r.ratio()
            )
        })
        .collect();
    if offenders.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "regression gate failed ({} span{}):\n  {}",
            offenders.len(),
            if offenders.len() == 1 { "" } else { "s" },
            offenders.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_obs::{CounterStat, HistogramStat, SpanEvent, SpanStat, SCHEMA_VERSION};

    /// A hand-written v2 fixture: one sweep (50 ms) containing one
    /// experiment (48 ms) with two parallel points (30 + 28 ms, on
    /// different threads) each wrapping an LP solve.
    fn fixture() -> TraceSnapshot {
        let ev = |name: &str, id, parent, thread, start_ms: u64, end_ms: u64| SpanEvent {
            name: name.into(),
            id,
            parent,
            thread,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
        };
        let events = vec![
            ev("sweep", 1, 0, 1, 0, 50),
            ev("experiment/fig2a", 2, 1, 1, 1, 49),
            ev("sweep/point", 3, 2, 2, 2, 32),
            ev("sweep/point", 4, 2, 3, 2, 30),
            ev("lp_hta/relaxation", 5, 3, 2, 3, 25),
            ev("lp_hta/relaxation", 6, 4, 3, 3, 24),
        ];
        // Matching aggregates (what the recorder would have kept).
        let agg = |name: &str, count, total_ms: u64| SpanStat {
            name: name.into(),
            count,
            total_ns: total_ms * 1_000_000,
            min_ns: 1,
            max_ns: total_ms * 1_000_000,
        };
        TraceSnapshot {
            version: SCHEMA_VERSION,
            spans: vec![
                agg("experiment/fig2a", 1, 48),
                agg("lp_hta/relaxation", 2, 43),
                agg("sweep", 1, 50),
                agg("sweep/point", 2, 58),
            ],
            counters: vec![CounterStat {
                name: "obs/flush".into(),
                value: 3,
            }],
            gauges: vec![],
            histograms: vec![HistogramStat {
                name: "serve/decision_latency_ms".into(),
                count: 4,
                sum: 20.0,
                min: 2.0,
                max: 8.0,
                p50: 4.0,
                p95: 8.0,
                p99: 8.0,
            }],
            events,
        }
    }

    #[test]
    fn dropped_events_are_warned_about() {
        let mut snap = fixture();
        assert_eq!(render_dropped_warning(&snap), "");
        snap.counters.push(CounterStat {
            name: "obs/events/dropped".into(),
            value: 1234,
        });
        let warning = render_dropped_warning(&snap);
        assert!(warning.contains("dropped 1234"), "{warning}");
        assert!(warning.contains("overstated self time"), "{warning}");
    }

    #[test]
    fn forest_links_children_and_computes_self_time() {
        let snap = fixture();
        let forest = SpanForest::build(&snap);
        assert_eq!(forest.roots, vec![0]);
        assert_eq!(forest.children[0], vec![1]); // sweep -> experiment
        assert_eq!(forest.children[1], vec![2, 3]); // experiment -> points
                                                    // Experiment: 48 ms total, 30 + 28 ms of children => 0 self
                                                    // would be negative without the clamp? 48 - 58 saturates to 0.
        assert_eq!(forest.self_ns[1], 0);
        // Point at idx 2: 30 ms total, child 22 ms => 8 ms self.
        assert_eq!(forest.self_ns[2], 8_000_000);
        // Leaves keep their whole duration.
        assert_eq!(forest.self_ns[4], 22_000_000);
    }

    #[test]
    fn table_reports_self_and_total_time() {
        let snap = fixture();
        let table = render_table(&snap, &SpanForest::build(&snap), 30);
        assert!(table.contains("lp_hta/relaxation"), "{table}");
        assert!(table.contains("self ms"), "{table}");
        // lp_hta leaves: 22 + 21 = 43 ms self, the top row.
        let first_data_row = table.lines().nth(4).unwrap();
        assert!(first_data_row.starts_with("lp_hta/relaxation"), "{table}");
        assert!(first_data_row.contains("43.000"), "{table}");
        // The fixture's histogram renders with its percentile columns in
        // the appended histogram table (mean 20/4 = 5).
        assert!(table.contains("histograms"), "{table}");
        let hist_row = table
            .lines()
            .find(|l| l.starts_with("serve/decision_latency_ms"))
            .unwrap();
        for col in ["4", "5.000", "4.000", "8.000"] {
            assert!(hist_row.contains(col), "{hist_row}");
        }
    }

    #[test]
    fn aggregate_only_tables_also_render_histogram_percentiles() {
        let mut snap = fixture();
        snap.events.clear();
        let table = render_table(&snap, &SpanForest::build(&snap), 30);
        assert!(table.contains("aggregate span statistics"), "{table}");
        assert!(table.contains("serve/decision_latency_ms"), "{table}");
        assert!(table.contains("p99"), "{table}");
    }

    #[test]
    fn critical_path_descends_longest_children_and_flags_parallelism() {
        let snap = fixture();
        let path = render_critical_path(&snap, &SpanForest::build(&snap));
        // sweep -> experiment -> the 30 ms point -> its 22 ms solve.
        let names: Vec<&str> = path
            .lines()
            .filter(|l| l.contains("— "))
            .map(|l| l.trim().split(" —").next().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "sweep",
                "experiment/fig2a",
                "sweep/point",
                "lp_hta/relaxation"
            ]
        );
        // The experiment step fans out: 58 ms of children in 48 ms.
        assert!(path.contains("parallel"), "{path}");
        assert!(path.contains("% serial"), "{path}");
    }

    #[test]
    fn folded_stacks_sum_self_time_per_stack() {
        let snap = fixture();
        let folded = folded_stacks(&snap, &SpanForest::build(&snap));
        let lines: Vec<&str> = folded.lines().collect();
        // Zero-self experiment frame still appears inside deeper stacks.
        assert!(
            lines.contains(&"sweep;experiment/fig2a;sweep/point;lp_hta/relaxation 43000000"),
            "{folded}"
        );
        // Points have 8 + 7 = 15 ms of self time.
        assert!(
            lines.contains(&"sweep;experiment/fig2a;sweep/point 15000000"),
            "{folded}"
        );
        // Deterministic: sorted lexicographically.
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn aggregate_only_traces_fall_back_to_v1_table() {
        let mut snap = fixture();
        snap.events.clear();
        let forest = SpanForest::build(&snap);
        assert!(forest.is_empty());
        let table = render_table(&snap, &forest, 30);
        assert!(table.contains("no events in trace"), "{table}");
        assert!(table.contains("sweep/point"), "{table}");
        let path = render_critical_path(&snap, &forest);
        assert!(path.contains("unavailable"), "{path}");
    }

    #[test]
    fn diff_is_identity_on_equal_traces_and_catches_regressions() {
        let snap = fixture();
        let rows = diff_spans(&snap, &snap);
        assert!(rows.iter().all(|r| (r.ratio() - 1.0).abs() < 1e-12));
        assert!(check_gate(&rows, 1.01, 1.0, &[]).is_ok());

        // Inject a 2x regression on the LP span.
        let mut slow = snap.clone();
        slow.spans[1].total_ns *= 2;
        let rows = diff_spans(&snap, &slow);
        assert_eq!(rows[0].name, "lp_hta/relaxation");
        assert!((rows[0].ratio() - 2.0).abs() < 1e-12);
        let err = check_gate(&rows, 1.5, 1.0, &[]).unwrap_err();
        assert!(err.contains("lp_hta/relaxation"), "{err}");
        assert!(err.contains("2.000x"), "{err}");
        // A generous gate lets it through.
        assert!(check_gate(&rows, 2.5, 1.0, &[]).is_ok());
    }

    #[test]
    fn gate_ignores_spans_below_the_noise_floor() {
        let base = fixture();
        let mut new = base.clone();
        // A tiny span (1 µs) regresses 100x — still under a 1 ms floor.
        new.spans.push(SpanStat {
            name: "tiny/span".into(),
            count: 1,
            total_ns: 100_000,
            min_ns: 100_000,
            max_ns: 100_000,
        });
        let mut base2 = base.clone();
        base2.spans.push(SpanStat {
            name: "tiny/span".into(),
            count: 1,
            total_ns: 1_000,
            min_ns: 1_000,
            max_ns: 1_000,
        });
        let rows = diff_spans(&base2, &new);
        assert!(check_gate(&rows, 1.5, 1.0, &[]).is_ok());
        // Lowering the floor exposes it.
        assert!(check_gate(&rows, 1.5, 0.0, &[]).is_err());
        let rendered = render_diff(&rows, 1.0, &[]);
        assert!(rendered.contains("below gate floor"), "{rendered}");
    }

    #[test]
    fn prefix_floors_override_the_global_noise_floor() {
        let base = fixture();
        let mut new = base.clone();
        // A linprog span of 100 µs baseline regresses 10x: exempt under
        // the 1 ms global floor, caught once `linprog/` gets its own
        // 0.05 ms floor.
        let mut base2 = base.clone();
        base2.spans.push(SpanStat {
            name: "linprog/revised/solve".into(),
            count: 1,
            total_ns: 100_000,
            min_ns: 100_000,
            max_ns: 100_000,
        });
        new.spans.push(SpanStat {
            name: "linprog/revised/solve".into(),
            count: 1,
            total_ns: 1_000_000,
            min_ns: 1_000_000,
            max_ns: 1_000_000,
        });
        let rows = diff_spans(&base2, &new);
        assert!(check_gate(&rows, 1.5, 1.0, &[]).is_ok());
        let floors = vec![("linprog/".to_string(), 0.05)];
        let err = check_gate(&rows, 1.5, 1.0, &floors).unwrap_err();
        assert!(err.contains("linprog/revised/solve"), "{err}");
        // The longest matching prefix wins: a more specific exemption
        // can lift the subsystem floor back up.
        let floors = vec![
            ("linprog/".to_string(), 0.05),
            ("linprog/revised/".to_string(), 5.0),
        ];
        assert!(check_gate(&rows, 1.5, 1.0, &floors).is_ok());
        let rendered = render_diff(&rows, 1.0, &floors);
        assert!(rendered.contains("below gate floor"), "{rendered}");
    }

    #[test]
    fn spans_new_in_the_trace_have_infinite_ratio_but_no_base_time() {
        let base = fixture();
        let mut new = base.clone();
        new.spans.push(SpanStat {
            name: "brand/new".into(),
            count: 1,
            total_ns: 5_000_000,
            min_ns: 5_000_000,
            max_ns: 5_000_000,
        });
        let rows = diff_spans(&base, &new);
        let row = rows.iter().find(|r| r.name == "brand/new").unwrap();
        assert!(row.ratio().is_infinite());
        // New spans never trip the gate: there is nothing to regress from.
        assert!(check_gate(&rows, 1.5, 1.0, &[]).is_ok());
    }
}
