//! Benchmark trajectory runner: solves the shared bench fixtures and writes
//! a machine-readable `BENCH_solver.json` so successive commits can be
//! compared (the "trajectory" of solver performance over the repo's life).
//!
//! Sections:
//!
//! * `sizes` — per instance size: p50/p95 single-threaded **time-to-target**
//!   and nodes-to-target over `reps` seeds (target = one fewer late job than
//!   greedy EDF, i.e. the first strict improvement over the warm start),
//!   plus the per-class propagation ledger (runs / prunings / conflicts /
//!   time / prunings-per-µs),
//! * `lns` — the self-tuning ablation at the largest size: time-to-target
//!   with the LNS phase on (the default) and off,
//! * `portfolio` — median portfolio latency and speedup for K ∈ {1,2,4,8}
//!   workers on the largest size,
//! * `rounds` — median manager round latency warm (cross-round reuse on,
//!   second round replays cached placements) vs cold (reuse off).
//!
//! Time-to-target (rather than time-to-proof under a wall cap) is the
//! comparable number for an anytime solver: a faster propagation stack
//! should *reduce* it, whereas under a fixed cap it would just explore more
//! nodes and report the same latency. Runs that never reach the target are
//! charged whatever the budget allowed and counted in `reached_target`.
//!
//! Usage: `cargo run --release -p bench --bin bench_json -- [--smoke] [--out PATH]`
//!
//! `--smoke` trims the portfolio/rounds reps for CI; timing numbers are then
//! meaningless but the JSON shape is identical (checked by CI) and the
//! `sizes` section keeps the full size and rep set so its nodes_p50 stays
//! comparable with the committed full run (CI's regression guard — node
//! counts, unlike latencies, travel across machines).

use std::time::Instant;

use bench::batch_scenario;
use cpsolve::portfolio::{solve_portfolio, PortfolioParams};
use cpsolve::search::{solve, SolveParams};
use cpsolve::LnsParams;
use desim::stats::sample_quantile;
use desim::SimTime;
use mrcp::modelmap::{build_model, JobInput, TaskInput};
use mrcp::{MrcpConfig, MrcpRm};
use serde_json::Value;

fn job_inputs(jobs: &[workload::Job]) -> Vec<JobInput<'_>> {
    jobs.iter()
        .map(|job| JobInput {
            job,
            release: job.earliest_start,
            priority: job.deadline.as_millis(),
            tasks: job
                .tasks()
                .map(|t| TaskInput {
                    id: t.id,
                    kind: t.kind,
                    exec_time: t.exec_time,
                    req: t.req,
                    pinned: None,
                })
                .collect(),
        })
        .collect()
}

/// Sorted-sample quantile (nearest-rank); `q` in [0, 1].
/// Nearest-rank quantile via the workspace-shared helper; panics on an
/// empty sample set (a bench that produced no samples is a bug).
fn quantile(samples: &[u64], q: f64) -> u64 {
    sample_quantile(samples, q).expect("bench produced samples")
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    quantile(samples, 0.5)
}

fn solver_params() -> SolveParams {
    SolveParams {
        node_limit: 50_000,
        fail_limit: 50_000,
        time_limit: Some(std::time::Duration::from_millis(500)),
        ..Default::default()
    }
}

/// One race-to-target solve of a bench fixture: target is one fewer late
/// job than greedy EDF achieves (seeds where greedy is already perfect race
/// to prove zero). Returns (elapsed µs, outcome, reached).
fn race(n: usize, seed: u64, params: &SolveParams) -> (u64, cpsolve::Outcome, bool) {
    let (cluster, jobs) = batch_scenario(n, seed);
    let ji = job_inputs(&jobs);
    let mm = build_model(&cluster, &ji).expect("bench fixture builds");
    let g = cpsolve::greedy::greedy_edf(&mm.model).expect("greedy schedules the fixture");
    let target = g.objective.saturating_sub(1);
    let p = SolveParams {
        target: Some(target),
        ..params.clone()
    };
    let t0 = Instant::now();
    let o = solve(&mm.model, &p);
    let us = t0.elapsed().as_micros() as u64;
    let reached = o.best.as_ref().is_some_and(|b| b.objective <= target);
    (us, o, reached)
}

/// Per-size single-threaded time-to-target / nodes-to-target distribution,
/// plus the per-propagator-class counters summed over reps (runs / prunings
/// / conflicts / time / prunings-per-µs) — the observability surface of the
/// tiered engine. One discarded warmup rep per size keeps first-touch effects
/// (lazy page faults, cold caches) out of the quantiles.
fn bench_sizes(sizes: &[usize], reps: u64) -> Value {
    let params = solver_params();
    let mut out = Vec::new();
    for &n in sizes {
        let mut lat_us: Vec<u64> = Vec::new();
        let mut nodes: Vec<u64> = Vec::new();
        let mut reached_target = 0u64;
        let mut lns_iters = 0u64;
        let mut lns_improves = 0u64;
        let mut by_class = [cpsolve::PropClassStats::default(); cpsolve::N_PROP_CLASSES];
        // Warmup: same fixture as rep 0, solved and discarded.
        let _ = race(n, 1, &params);
        for rep in 0..reps {
            let (us, o, reached) = race(n, 7 * rep + 1, &params);
            lat_us.push(us);
            nodes.push(o.stats.nodes);
            if reached {
                reached_target += 1;
            }
            lns_iters += o.stats.lns_iters;
            lns_improves += o.stats.lns_improves;
            for (acc, c) in by_class.iter_mut().zip(o.stats.by_class.iter()) {
                acc.merge(c);
            }
        }
        lat_us.sort_unstable();
        nodes.sort_unstable();
        let classes = Value::Map(
            cpsolve::PROP_CLASSES
                .iter()
                .map(|&c| {
                    let s = by_class[c.idx()];
                    (
                        c.name().into(),
                        Value::Map(vec![
                            ("runs".into(), Value::UInt(s.runs)),
                            ("prunings".into(), Value::UInt(s.prunings)),
                            ("conflicts".into(), Value::UInt(s.conflicts)),
                            ("time_us".into(), Value::UInt(s.time_us)),
                            ("prunings_per_us".into(), Value::Float(s.prunings_per_us())),
                        ]),
                    )
                })
                .collect(),
        );
        out.push(Value::Map(vec![
            ("n_jobs".into(), Value::UInt(n as u64)),
            ("reps".into(), Value::UInt(reps)),
            ("p50_us".into(), Value::UInt(quantile(&lat_us, 0.5))),
            ("p95_us".into(), Value::UInt(quantile(&lat_us, 0.95))),
            ("nodes_p50".into(), Value::UInt(quantile(&nodes, 0.5))),
            ("nodes_p95".into(), Value::UInt(quantile(&nodes, 0.95))),
            ("reached_target".into(), Value::UInt(reached_target)),
            ("lns_iters".into(), Value::UInt(lns_iters)),
            ("lns_improves".into(), Value::UInt(lns_improves)),
            ("by_class".into(), classes),
        ]));
    }
    Value::Seq(out)
}

/// The self-tuning ablation at the largest size: time-to-target with the
/// LNS phase on (`lns`, the default) and off (`static`) over the same
/// seeds. The default should dominate the static solver.
fn bench_lns(n: usize, reps: u64) -> Value {
    let mut rows = Vec::new();
    for (name, lns_on) in [("lns", true), ("static", false)] {
        let params = SolveParams {
            lns: LnsParams {
                enabled: lns_on,
                ..LnsParams::default()
            },
            ..solver_params()
        };
        let mut lat_us: Vec<u64> = Vec::new();
        let mut reached = 0u64;
        let _ = race(n, 1, &params); // warmup, discarded
        for rep in 0..reps {
            let (us, _, hit) = race(n, 7 * rep + 1, &params);
            lat_us.push(us);
            if hit {
                reached += 1;
            }
        }
        rows.push(Value::Map(vec![
            ("variant".into(), Value::Str(name.into())),
            ("reps".into(), Value::UInt(reps)),
            ("p50_us".into(), Value::UInt(median(&mut lat_us))),
            ("reached_target".into(), Value::UInt(reached)),
        ]));
    }
    Value::Seq(rows)
}

/// Portfolio speedup as time-to-target-quality: every K races to the first
/// schedule strictly better than the greedy warm start
/// (`SolveParams::target` stops the search at the first incumbent ≤
/// target; the shared cancel flag then stops the other workers). These
/// fixtures are far too hard to prove optimal, so time-to-proof would just
/// measure the time limit; time-to-equal-quality is the comparable number.
/// Runs that never reach the target are charged the full cap. At K ≥ 2 the
/// odd workers run pure-LNS repair over diversified neighborhood seeds and
/// window sizes, sharing the incumbent through the portfolio's atomic cut.
fn bench_portfolio(n: usize, reps: u64) -> Value {
    let cap = std::time::Duration::from_secs(2);
    // Target per rep: one fewer late job than greedy EDF achieves (reps
    // where greedy is already perfect race to prove zero, i.e. target 0).
    let mut targets: Vec<u32> = Vec::new();
    for rep in 0..reps {
        let (cluster, jobs) = batch_scenario(n, 11 * rep + 3);
        let mm = build_model(&cluster, &job_inputs(&jobs)).expect("bench fixture builds");
        let g = cpsolve::greedy::greedy_edf(&mm.model).expect("greedy schedules the fixture");
        targets.push(g.objective.saturating_sub(1));
    }
    let mut rows: Vec<(usize, u64, u64)> = Vec::new(); // (K, median us, reached)
    for &k in &[1usize, 2, 4, 8] {
        let mut lat_us: Vec<u64> = Vec::new();
        let mut reached = 0u64;
        for rep in 0..reps {
            let (cluster, jobs) = batch_scenario(n, 11 * rep + 3);
            let mm = build_model(&cluster, &job_inputs(&jobs)).expect("bench fixture builds");
            let pp = PortfolioParams {
                base: SolveParams {
                    target: Some(targets[rep as usize]),
                    time_limit: Some(cap),
                    node_limit: u64::MAX,
                    fail_limit: u64::MAX,
                    ..Default::default()
                },
                workers: k,
                seed: 0,
            };
            let t0 = Instant::now();
            let o = solve_portfolio(&mm.model, &pp);
            lat_us.push(t0.elapsed().as_micros() as u64);
            let best = o.best.expect("bench fixtures are feasible");
            if best.objective <= targets[rep as usize] {
                reached += 1;
            }
        }
        rows.push((k, median(&mut lat_us), reached));
    }
    let base = rows[0].1.max(1) as f64;
    Value::Seq(
        rows.into_iter()
            .map(|(k, us, reached)| {
                Value::Map(vec![
                    ("workers".into(), Value::UInt(k as u64)),
                    ("p50_us".into(), Value::UInt(us)),
                    ("reached_target".into(), Value::UInt(reached)),
                    ("reps".into(), Value::UInt(reps)),
                    ("speedup".into(), Value::Float(base / us.max(1) as f64)),
                ])
            })
            .collect(),
    )
}

/// Warm-vs-cold manager rounds: both managers solve two identical rounds;
/// the second round is timed. With `reuse_rounds` on it replays the cached
/// placements as warm start; off, it solves from scratch.
fn bench_rounds(n: usize, reps: u64) -> Value {
    let run = |reuse: bool| -> Vec<u64> {
        let mut lat_us = Vec::new();
        for rep in 0..reps {
            let (cluster, jobs) = batch_scenario(n, 13 * rep + 5);
            let mut rm = MrcpRm::new(
                MrcpConfig {
                    reuse_rounds: reuse,
                    verify_schedules: false,
                    ..Default::default()
                },
                cluster,
            );
            for mut j in jobs {
                // The generator staggers arrivals slightly; pull everything
                // to t = 0 so both rounds plan the full batch.
                j.arrival = SimTime::ZERO;
                j.earliest_start = SimTime::ZERO;
                rm.submit(j, SimTime::ZERO).expect("bench jobs admit");
            }
            rm.reschedule(SimTime::ZERO);
            let t0 = Instant::now();
            rm.reschedule(SimTime::ZERO);
            lat_us.push(t0.elapsed().as_micros() as u64);
            if reuse {
                assert_eq!(rm.stats().warm_rounds, 1, "second round must be warm");
            }
        }
        lat_us
    };
    let warm = median(&mut run(true));
    let cold = median(&mut run(false));
    Value::Map(vec![
        ("n_jobs".into(), Value::UInt(n as u64)),
        ("reps".into(), Value::UInt(reps)),
        ("warm_us".into(), Value::UInt(warm)),
        ("cold_us".into(), Value::UInt(cold)),
        (
            "warm_over_cold".into(),
            Value::Float(warm.max(1) as f64 / cold.max(1) as f64),
        ),
    ])
}

fn main() {
    let args = bench::common::parse_args("bench_json", "BENCH_solver.json", false);
    let (smoke, out_path) = (args.smoke, args.out_path);

    // Smoke trims the portfolio/rounds/lns reps, but keeps the full size
    // and rep set for `sizes`: CI compares its nodes_p50 and p50_us against
    // the committed full run, and quantiles are only comparable when the
    // seed set matches.
    let sizes: &[usize] = &[5, 15, 30];
    let size_reps: u64 = 15;
    let reps: u64 = if smoke { 3 } else { 15 };
    let top = *sizes.last().unwrap();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;

    eprintln!(
        "bench_json: sizes {sizes:?}, {reps} reps{}",
        if smoke { " (smoke)" } else { "" }
    );
    let doc = Value::Map(vec![
        ("schema".into(), Value::Str("bench_solver/v3".into())),
        ("smoke".into(), Value::Bool(smoke)),
        ("nproc".into(), Value::UInt(nproc)),
        ("sizes".into(), bench_sizes(sizes, size_reps)),
        ("lns".into(), bench_lns(top, reps)),
        ("portfolio".into(), bench_portfolio(top, reps)),
        ("rounds".into(), bench_rounds(top, reps)),
    ]);

    bench::common::write_json("bench_json", &out_path, &doc);
}
