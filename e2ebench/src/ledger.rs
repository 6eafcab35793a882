//! The traced run's per-layer ledger.
//!
//! Layers are measured from outside the program: call spans from the
//! timing decorator, the stack's public counters (`stats()` deltas,
//! `cluster_metrics()`, the telemetry registry), and peels — the same
//! trace replayed with one layer removed, whose signature must match.
//! Totals sum over the traced run's replications; distributions pool
//! their samples.

use crate::probe::{Call, Span};
use crate::replay::Replay;
use crate::stack::Workload;
use crate::{metric, ms, quantile, Metric};
use std::io::Write;
use std::path::Path;
use std::time::Duration;
use telemetry::SampleValue;

/// One replication of the traced run, replayed four ways, or two on a
/// workload with nothing to peel.
pub struct Cycle {
    /// The full stack, traced.
    pub traced: Replay,
    /// The full stack, untraced: the base of both peels.
    pub full: Replay,
    pub no_durability: Option<Replay>,
    pub no_telemetry: Option<Replay>,
}

impl Cycle {
    pub fn into_replays(self) -> Vec<Replay> {
        [
            Some(self.traced),
            Some(self.full),
            self.no_durability,
            self.no_telemetry,
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Sum over `replays` of counter `name`, over every series whose labels
/// include `label`.
fn counter_sum(replays: &[&Replay], name: &str, label: Option<(&str, &str)>) -> f64 {
    let mut total = 0u64;
    for r in replays {
        for s in r.registry.metrics.iter().filter(|s| s.name == name) {
            let matches =
                label.is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v));
            if let (true, SampleValue::Counter(c)) = (matches, &s.value) {
                total += c;
            }
        }
    }
    total as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn span_us(spans: &[&Span]) -> Vec<f64> {
    spans.iter().map(|s| s.wall().as_secs_f64() * 1e6).collect()
}

fn total_ms(spans: &[&Span]) -> f64 {
    spans.iter().fold(0.0, |t, s| t + ms(s.wall()))
}

/// Write the traced replays' spans. Each replication's root span is its
/// replay (id `rep:0`); every stack call is a child of it.
fn write_spans(path: &Path, traced: &[&Replay]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "rep,id,parent,name,job,crash,start_ns,end_ns,rounds,nodes,optimal,warm,solve_ns"
    )?;
    let opt = |x: Option<u32>| x.map(|v| v.to_string()).unwrap_or_default();
    for (rep, r) in traced.iter().enumerate() {
        writeln!(f, "{rep},0,,replay,,,0,{},,,,,", r.wall.as_nanos())?;
        let spans = r.trace.as_ref().map_or(&[][..], |t| &t.spans[..]);
        for (i, s) in spans.iter().enumerate() {
            let round = s.round.map_or_else(
                || ",,,,".to_string(),
                |d| {
                    format!(
                        "{},{},{},{},{}",
                        d.rounds,
                        d.nodes,
                        d.optimal,
                        d.warm,
                        d.solve.as_nanos()
                    )
                },
            );
            writeln!(
                f,
                "{rep},{},0,{},{},{},{},{},{round}",
                i + 1,
                s.call.name(),
                opt(s.job),
                opt(s.crash),
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
    }
    f.flush()
}

/// Derive every per-layer metric from the traced run's cycles, writing
/// the traced replays' spans to `spans_path`.
pub fn per_layer(workload: Workload, cycles: &[Cycle], spans_path: &Path) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).sum::<f64>();
    let stack_ms = |r: &Replay| ms(r.in_stack);
    let full_ms = sum(&|c| stack_ms(&c.full));
    // A layer the stack lacks costs nothing.
    let peel = |c: &Cycle, without: &Option<Replay>| {
        without
            .as_ref()
            .map_or(0.0, |r| stack_ms(&c.full) - stack_ms(r))
    };
    let durability_ms = sum(&|c| peel(c, &c.no_durability));
    let telemetry_ms = sum(&|c| peel(c, &c.no_telemetry));
    // 1 - (jobs/s traced) / (jobs/s untraced) over the same jobs.
    let trace_overhead = 1.0 - ratio(full_ms, sum(&|c| stack_ms(&c.traced)));

    let traced: Vec<&Replay> = cycles.iter().map(|c| &c.traced).collect();
    if let Err(e) = write_spans(spans_path, &traced) {
        eprintln!("e2ebench: cannot write {}: {e}", spans_path.display());
    }
    let spans: Vec<&Span> = traced
        .iter()
        .filter_map(|r| r.trace.as_ref())
        .flat_map(|t| t.spans.iter())
        .collect();
    let of = |pred: &dyn Fn(Call) -> bool| -> Vec<&Span> {
        spans.iter().copied().filter(|s| pred(s.call)).collect()
    };
    let submits = of(&|c| c == Call::Submit);
    let rounds = of(&|c| c == Call::Reschedule);
    let events = of(&|c| c.is_task_event());
    let recoveries = of(&|c| c == Call::Recover);
    let traced_stack_ms = total_ms(&spans);
    let driver_ms = traced.iter().map(|r| ms(r.wall)).sum::<f64>() - traced_stack_ms;
    let reschedule_ms = total_ms(&rounds);
    let events_ms = total_ms(&events);
    let recovery_ms = total_ms(&recoveries);
    let (round_count, optimal, warm, solve) = rounds
        .iter()
        .filter_map(|s| s.round)
        .fold((0, 0, 0, Duration::ZERO), |(n, o, w, t), d| {
            (n + d.rounds, o + d.optimal, w + d.warm, t + d.solve)
        });
    let nodes: u64 = traced.iter().map(|r| r.stats.total_nodes).sum();
    let solve_ms: f64 = traced.iter().map(|r| ms(r.stats.total_solve)).sum();
    let completed: usize = traced.iter().map(|r| r.metrics.completed).sum();
    let replayed: u64 = traced
        .iter()
        .filter_map(|r| r.trace.as_ref())
        .map(|t| t.replayed)
        .sum();
    let recovery_samples: Vec<f64> = traced.iter().flat_map(|r| r.recovery_ms.clone()).collect();
    let scrape_us: Vec<f64> = traced.iter().map(|r| r.scrape_us).collect();
    let per_run = |class: &str| {
        ratio(
            counter_sum(
                &traced,
                "cpsolve_prop_prunings_total",
                Some(("class", class)),
            ),
            counter_sum(&traced, "cpsolve_prop_runs_total", Some(("class", class))),
        )
    };

    eprintln!(
        "e2ebench ledger, {}: traced stack time {traced_stack_ms:.1} ms \
         (untraced {full_ms:.1} ms)",
        workload.name()
    );
    for (name, v) in [
        ("sim_driver (replay minus stack calls)", driver_ms),
        ("stack: reschedule", reschedule_ms),
        ("stack: task events", events_ms),
        ("stack: submit", total_ms(&submits)),
        ("stack: crash_and_recover", recovery_ms),
        ("peel: durability", durability_ms),
        ("peel: telemetry", telemetry_ms),
    ] {
        eprintln!(
            "  {name:<40} {v:>12.1} ms {:>7.1}% of stack",
            100.0 * ratio(v, traced_stack_ms)
        );
    }

    vec![
        metric("sim_driver.self_ms", driver_ms, "ms"),
        metric(
            "cluster.submit_us_p50",
            quantile(&span_us(&submits), 0.5),
            "us",
        ),
        metric(
            "cluster.spills",
            traced.iter().map(|r| r.spills as f64).sum(),
            "count",
        ),
        metric(
            "cluster.migrations",
            traced.iter().map(|r| r.migrations as f64).sum(),
            "count",
        ),
        metric(
            "cluster.round_parallelism",
            ratio(ms(solve), reschedule_ms),
            "ratio",
        ),
        metric("mrcp.reschedule_calls", rounds.len() as f64, "count"),
        metric("mrcp.reschedule_ms_total", reschedule_ms, "ms"),
        metric(
            "mrcp.reschedule_us_p50",
            quantile(&span_us(&rounds), 0.5),
            "us",
        ),
        metric(
            "mrcp.reschedule_us_p99",
            quantile(&span_us(&rounds), 0.99),
            "us",
        ),
        metric(
            "mrcp.task_event_us_p50",
            quantile(&span_us(&events), 0.5),
            "us",
        ),
        metric("mrcp.task_event_ms_total", events_ms, "ms"),
        metric("mrcp.o_ms_per_job", ratio(solve_ms, completed as f64), "ms"),
        metric(
            "mrcp.optimal_round_frac",
            ratio(optimal as f64, round_count as f64),
            "fraction",
        ),
        metric(
            "mrcp.warm_round_frac",
            ratio(warm as f64, round_count as f64),
            "fraction",
        ),
        metric(
            "mrcp.max_tasks_in_model",
            traced
                .iter()
                .map(|r| r.stats.max_tasks_in_model as f64)
                .fold(0.0, f64::max),
            "count",
        ),
        metric("cpsolve.nodes", nodes as f64, "count"),
        metric(
            "cpsolve.nodes_per_ms",
            ratio(nodes as f64, solve_ms),
            "1/ms",
        ),
        metric(
            "cpsolve.edge_finding_prunings_per_run",
            per_run("edge_finding"),
            "ratio",
        ),
        metric(
            "cpsolve.timetable_prunings_per_run",
            per_run("timetable"),
            "ratio",
        ),
        metric(
            "cpsolve.lns_improves_per_iter",
            ratio(
                counter_sum(&traced, "cpsolve_lns_improves_total", None),
                counter_sum(&traced, "cpsolve_lns_iters_total", None),
            ),
            "ratio",
        ),
        metric("durability.self_ms", durability_ms, "ms"),
        metric(
            "durability.wal_appends",
            counter_sum(&traced, "durability_wal_appends_total", None),
            "count",
        ),
        metric(
            "durability.snapshots",
            counter_sum(&traced, "durability_snapshots_total", None),
            "count",
        ),
        metric("durability.replayed_cmds", replayed as f64, "count"),
        metric(
            "durability.replay_us_per_cmd",
            ratio(recovery_ms * 1e3, replayed as f64),
            "us",
        ),
        metric(
            "durability.recovery_ms_p50",
            quantile(&recovery_samples, 0.5),
            "ms",
        ),
        metric(
            "durability.recovery_ms_p90",
            quantile(&recovery_samples, 0.9),
            "ms",
        ),
        metric("telemetry.self_ms", telemetry_ms, "ms"),
        metric("telemetry.scrape_us", quantile(&scrape_us, 0.5), "us"),
        metric("trace.overhead_frac", trace_overhead, "fraction"),
        metric("ledger.stack_ms", full_ms, "ms"),
        metric(
            "ledger.durability_share",
            ratio(durability_ms, full_ms),
            "fraction",
        ),
        metric(
            "ledger.reschedule_share",
            ratio(reschedule_ms, traced_stack_ms),
            "fraction",
        ),
        metric(
            "ledger.task_event_share",
            ratio(events_ms, traced_stack_ms),
            "fraction",
        ),
        metric(
            "ledger.recovery_share",
            ratio(recovery_ms, traced_stack_ms),
            "fraction",
        ),
    ]
}
