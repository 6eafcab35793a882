//! End-to-end wall-clock benchmark of the MRCP-RM manager stack.
//!
//! Replays seeded job traces through the real stack, in a closed loop
//! with one caller (the simulation driver), and prints every metric by
//! name with its unit; the last line of standard output is one JSON
//! object. See `README.md` in this directory for the workloads, the
//! metrics and the per-layer ledger.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper-steady --seed 1 --seconds 50 --trace 0
//! ```

mod ledger;
mod probe;
mod replay;
mod stack;

use replay::{replay, Replay};
use stack::{Stack, Variant, Workload, REP_JOBS};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups timed before each replication; `setup_s` is the median of all
/// of a run's set-ups. Spreading them over the run, rather than timing
/// them back to back, keeps a brief slow spell of the host from setting
/// the figure.
const SETUPS_PER_REP: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Linear-interpolated quantile of `xs` (sorted internally); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `SETUPS_PER_REP` timed set-ups of replication `rep`, s: generation of
/// its trace plus construction of the stack, with its store directory and
/// initial snapshot.
fn setups(w: Workload, seed: u64, rep: usize, store: &Path) -> Vec<f64> {
    (0..SETUPS_PER_REP)
        .map(|_| {
            let _ = std::fs::remove_dir_all(store);
            let tel = w.telemetry(false);
            let t0 = Instant::now();
            let (resources, jobs) = w.trace(seed, rep);
            let stack = Stack::build(w, Variant::Full, &resources, &tel, store);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box((jobs, stack));
            let _ = std::fs::remove_dir_all(store);
            dt
        })
        .collect()
}

/// Replays of one trace must agree on the deterministic signature.
fn signature_violations(rep: usize, replays: &[&Replay]) -> Vec<String> {
    let first = replays[0].metrics.deterministic_signature();
    replays[1..]
        .iter()
        .filter(|r| r.metrics.deterministic_signature() != first)
        .map(|r| {
            format!(
                "replication {rep}: signature {:?} differs from {first:?}",
                r.metrics.deterministic_signature()
            )
        })
        .collect()
}

/// The paper's `P` and `T` over every job of `replays`.
fn pooled_p_t(replays: &[Replay]) -> (f64, f64) {
    let measured: usize = replays.iter().map(|r| r.metrics.measured).sum();
    let late: usize = replays.iter().map(|r| r.metrics.late).sum();
    let t: f64 = replays
        .iter()
        .map(|r| r.metrics.mean_turnaround_s * r.metrics.measured as f64)
        .sum();
    let n = measured.max(1) as f64;
    (late as f64 / n, t / n)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let store = out_dir.join(format!("store-{}", std::process::id()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    // The traced run replays each of its replications up to four ways.
    let reps = w.replications(args.seconds);
    let reps = if args.trace { reps.div_ceil(4) } else { reps };
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} nproc={nproc} replications={reps} \
         trace_jobs={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        reps * REP_JOBS
    );
    println!("# stack: {}", w.describe(reps));

    let run = |rep: usize, variant, trace, crashes| {
        let (resources, jobs) = w.trace(args.seed, rep);
        replay(w, variant, trace, crashes, &resources, &jobs, &store)
    };

    let mut violations = Vec::new();
    let mut replays = Vec::new();
    let metrics = if args.trace {
        // Each replication: traced, untraced, and the peels. The
        // durability peel doubles as a crash-free replay of the trace.
        let peel = |rep, variant| w.peeled().then(|| run(rep, variant, false, true));
        let cycles: Vec<ledger::Cycle> = (0..reps)
            .map(|rep| ledger::Cycle {
                traced: run(rep, Variant::Full, true, true),
                full: run(rep, Variant::Full, false, true),
                no_durability: peel(rep, Variant::NoDurability),
                no_telemetry: peel(rep, Variant::NoTelemetry),
            })
            .collect();
        let spans_path = out_dir.join(format!("spans-{}-seed{}.csv", w.name(), args.seed));
        let metrics = ledger::per_layer(w, &cycles, &spans_path);
        for (rep, c) in cycles.into_iter().enumerate() {
            let cycle = c.into_replays();
            violations.extend(signature_violations(rep, &cycle.iter().collect::<Vec<_>>()));
            replays.extend(cycle);
        }
        metrics
    } else {
        let mut setup = Vec::new();
        for rep in 0..reps {
            setup.extend(setups(w, args.seed, rep, &store));
            replays.push(run(rep, Variant::Full, false, true));
        }
        if w == Workload::CrashReplay {
            // One crash-free replay per run: recovery must be exact.
            let crash_free = run(0, Variant::Full, false, false);
            violations.extend(signature_violations(0, &[&replays[0], &crash_free]));
            violations.extend(crash_free.violations);
        }
        let (p_late, turnaround) = pooled_p_t(&replays);
        let plan: Vec<f64> = replays.iter().flat_map(|r| r.plan_ms.clone()).collect();
        let jobs_per_s: Vec<f64> = replays.iter().map(Replay::jobs_per_s).collect();
        let recoveries: usize = replays.iter().map(|r| r.recovery_ms.len()).sum();
        for (rep, r) in replays.iter().enumerate() {
            println!(
                "# replication {rep}: {:.3} jobs/s, stack {:.1} ms, P={} T={}s",
                r.jobs_per_s(),
                ms(r.in_stack),
                r.metrics.p_late,
                r.metrics.mean_turnaround_s
            );
        }
        println!(
            "# plan_samples={} recoveries={recoveries} rounds={}",
            plan.len(),
            replays.iter().map(|r| r.metrics.invocations).sum::<u64>()
        );
        vec![
            metric("jobs_per_s", median(&jobs_per_s), "jobs/s"),
            metric("plan_ms_p50", quantile(&plan, 0.5), "ms"),
            metric("plan_ms_p95", quantile(&plan, 0.95), "ms"),
            metric("p_late", p_late, "fraction"),
            metric("turnaround_s", turnaround, "s"),
            metric("setup_s", median(&setup), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    let _ = std::fs::remove_dir_all(&store);

    // Deterministic fields of every replication, for comparing runs.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for r in &replays {
        format!("{:?}", r.metrics.deterministic_signature()).hash(&mut h);
    }
    println!("# signature {:016x}", h.finish());

    let attempted = replays.len() * REP_JOBS;
    let mut failed: usize = replays
        .iter()
        .map(|r| REP_JOBS.saturating_sub(r.metrics.completed))
        .sum();
    for r in &replays {
        violations.extend(r.violations.iter().cloned());
    }
    let correct = violations.is_empty();
    if !correct {
        failed = attempted;
        for v in violations.iter().take(20) {
            eprintln!("e2ebench: check failed: {v}");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}
