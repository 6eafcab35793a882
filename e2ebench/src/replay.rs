//! One replay of a trace through a freshly built stack, with the output
//! checks every replay must pass.

use crate::probe::{Timed, Trace};
use crate::stack::{manager_config, Stack, Variant, Workload};
use cluster::{check_conservation, check_federation};
use mrcp::manager::ManagerStats;
use mrcp::{simulate_with, ManagerCrashConfig, ResourceManager, RunMetrics, SimConfig};
use std::path::Path;
use std::time::{Duration, Instant};
use telemetry::{prometheus_text, Snapshot};
use workload::{Job, Resource};

/// What one replay measured.
#[derive(Debug)]
pub struct Replay {
    pub metrics: RunMetrics,
    /// Wall time of the whole replay: simulation driver plus stack.
    pub wall: Duration,
    /// Wall time inside calls into the stack.
    pub in_stack: Duration,
    pub plan_ms: Vec<f64>,
    pub recovery_ms: Vec<f64>,
    pub stats: ManagerStats,
    pub spills: u64,
    pub migrations: u64,
    /// Failed output checks; empty on a correct replay.
    pub violations: Vec<String>,
    pub trace: Option<Trace>,
    /// The telemetry registry at drain (empty when telemetry is off).
    pub registry: Snapshot,
    /// Time to encode that registry as Prometheus text, µs.
    pub scrape_us: f64,
}

impl Replay {
    pub fn jobs_per_s(&self) -> f64 {
        self.metrics.arrived as f64 / self.in_stack.as_secs_f64()
    }
}

/// Replay `jobs` through the stack with `variant`'s layer removed, under
/// `workload`'s crash points when `crashes` is set. `store` is the
/// directory for the durable store.
pub fn replay(
    workload: Workload,
    variant: Variant,
    trace: bool,
    crashes: bool,
    resources: &[Resource],
    jobs: &[Job],
    store: &Path,
) -> Replay {
    let _ = std::fs::remove_dir_all(store);
    let tel = workload.telemetry(trace);
    let stack = Stack::build(workload, variant, resources, &tel, store);
    let wal_records = (trace && matches!(stack, Stack::Durable(_)))
        .then(|| tel.registry.gauge("durability_wal_records", &[]));
    let cfg = SimConfig {
        manager: manager_config(),
        manager_crashes: ManagerCrashConfig {
            at_commands: if crashes {
                workload.crash_points(jobs)
            } else {
                Vec::new()
            },
            ..ManagerCrashConfig::default()
        },
        ..SimConfig::default()
    };
    let input = jobs.to_vec();
    let timed = Timed::new(stack, trace, wal_records);
    let origin = timed.origin();
    let (metrics, _, timed) = simulate_with(&cfg, resources, input, |_| timed);
    let wall = origin.elapsed();

    let fed = timed.inner().federation();
    let violations = check(jobs.len(), &metrics, fed);
    let stats = timed.stats();
    let (spills, migrations) = fed.map_or((0, 0), |f| {
        let cm = f.cluster_metrics();
        (cm.spills, cm.migrations)
    });
    let t0 = Instant::now();
    let registry = tel.registry.snapshot();
    let text = prometheus_text(&registry);
    let scrape_us = t0.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(text);
    let Timed {
        in_stack,
        plan_ms,
        recovery_ms,
        trace,
        ..
    } = timed;
    let _ = std::fs::remove_dir_all(store);
    Replay {
        metrics,
        wall,
        in_stack,
        plan_ms,
        recovery_ms,
        stats,
        spills,
        migrations,
        violations,
        trace,
        registry,
        scrape_us,
    }
}

/// The output checks: every arrived job completes, no round fails, and a
/// federation holds its invariants and conserves jobs at drain.
fn check(jobs: usize, m: &RunMetrics, fed: Option<&cluster::Federation>) -> Vec<String> {
    let mut v = Vec::new();
    if m.arrived != jobs || m.completed != m.arrived {
        v.push(format!(
            "{} of {jobs} jobs arrived, {} completed",
            m.arrived, m.completed
        ));
    }
    if m.failed_rounds > 0 {
        v.push(format!("{} scheduling rounds failed", m.failed_rounds));
    }
    let refused = m.jobs_rejected + m.jobs_shed + m.jobs_abandoned as u64;
    if refused > 0 {
        v.push(format!("{refused} jobs rejected, shed or abandoned"));
    }
    if let Some(fed) = fed {
        v.extend(check_federation(fed));
        v.extend(check_conservation(m, fed));
        if let Some(e) = fed.last_error() {
            v.push(format!("federation error: {e}"));
        }
    }
    v
}
