//! The workloads and the manager stack they drive.
//!
//! Every replay runs `MrcpConfig::default()` with the wall-clock solve cap
//! lifted, so each round stops at the shipped node/fail limits and `P`,
//! `T` and node counts repeat exactly on any host. The variants remove one
//! layer at a time for the traced run's peels; each must leave the run's
//! deterministic signature unchanged.

use cluster::{ClusterConfig, DurableFederation, Federation, RebalanceConfig};
use desim::{RngStreams, SimTime};
use durability::{DurabilityConfig, StoreConfig};
use mrcp::manager::{
    AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerStats, ScheduleEntry,
};
use mrcp::{MrcpConfig, MrcpRm, ResourceManager};
use std::path::Path;
use telemetry::Telemetry;
use workload::{CellCount, Job, Resource, ResourceId, SyntheticConfig, SyntheticGenerator, TaskId};

/// Cells of the federation.
pub const CELLS: usize = 2;

/// `crash-replay` crashes the manager before every this-many-th command:
/// just short of the 256-command snapshot cadence, so every recovery
/// replays a nearly full write-ahead log.
pub const CRASH_EVERY: u64 = 250;

/// Jobs per replication: the experiments' `--default` trace length.
pub const REP_JOBS: usize = 150;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper defaults on the durable, instrumented federation.
    PaperSteady,
    /// The tightest corner of the paper's sweeps on the paper's single
    /// manager: solver-bound, with no write-ahead log. Not gated in
    /// `BENCHMARK.json`: its capacity hinges on a few node-limited rounds
    /// per trace, so it spreads too widely across seeds (see `README.md`).
    PaperTight,
    /// The `paper-steady` jobs and stack, with the manager crashed before
    /// every [`CRASH_EVERY`]-th command.
    CrashReplay,
}

/// Which layer a replay leaves out (the traced run's peels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The stack as shipped.
    Full,
    /// Durability removed: a plain `Federation` under the same telemetry.
    /// It cannot crash, so on `crash-replay` it is also the crash-free
    /// replay of the trace.
    NoDurability,
    /// Telemetry detached (`Telemetry::disabled()`).
    NoTelemetry,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSteady,
        Workload::PaperTight,
        Workload::CrashReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSteady => "paper-steady",
            Workload::PaperTight => "paper-tight",
            Workload::CrashReplay => "crash-replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Replications a run of `seconds` replays, each an independent
    /// [`REP_JOBS`]-job trace on a fresh stack. On a 2-core host an
    /// untraced `paper-steady` run takes about `seconds`; `crash-replay`
    /// gets nearly as many jobs, for a steady `P`, and takes about a tenth
    /// longer. A `paper-tight` run takes from about half to all of
    /// `seconds`, depending on how many node-limited rounds its traces
    /// hold.
    pub fn replications(self, seconds: u64) -> usize {
        let per_s = match self {
            Workload::PaperSteady | Workload::PaperTight => 0.4,
            Workload::CrashReplay => 0.36,
        };
        ((seconds as f64 * per_s).round() as usize).max(1)
    }

    /// Whether the traced run peels durability and telemetry off, one
    /// replay each. The paper's single manager has no durability and runs
    /// with telemetry disabled as shipped, so `paper-tight` has nothing to
    /// peel.
    pub fn peeled(self) -> bool {
        self != Workload::PaperTight
    }

    /// The telemetry an untraced replay attaches: a live registry on the
    /// federated stacks, none on the paper's single manager. A traced
    /// replay always attaches one, for the solver's per-class counters.
    pub fn telemetry(self, trace: bool) -> Telemetry {
        if trace || self != Workload::PaperTight {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        }
    }

    /// The manager crash points for a trace: before command
    /// `k * CRASH_EVERY` for every `k >= 1` the trace can reach.
    pub fn crash_points(self, jobs: &[Job]) -> Vec<u64> {
        if self != Workload::CrashReplay {
            return Vec::new();
        }
        // Each task costs at most a start, a completion and a replan; each
        // job a submission and an activation.
        let bound: u64 = jobs.iter().map(|j| 3 * j.task_count() as u64 + 2).sum();
        (1..=bound / CRASH_EVERY).map(|k| k * CRASH_EVERY).collect()
    }

    /// One line naming the exact stack and configuration.
    pub fn describe(self, reps: usize) -> String {
        let c = self.synthetic();
        let durable = format!(
            "DurableFederation K={CELLS}, DurabilityConfig::power_loss(StoreConfig::default()) \
             (fsync per record, snapshot every 256 commands), Telemetry::new()"
        );
        let stack = match self {
            Workload::PaperSteady => durable,
            Workload::PaperTight => {
                "MrcpRm, Telemetry::disabled() (a registry is attached when traced)".to_string()
            }
            Workload::CrashReplay => {
                format!("{durable}; crash before every {CRASH_EVERY}th command")
            }
        };
        format!(
            "{stack}; \
             MrcpConfig::default() with budget.time_limit_ms=None (20000 nodes/fails per \
             round, workers=1); OverheadModel::Instantaneous, no faults; {reps} replications \
             x {REP_JOBS} jobs: lambda={}/s, d_M={}, p={}, s_max={}, e_max={}, \
             maps/reduces<={}, {} resources x {}+{} slots",
            c.lambda,
            c.deadline_multiplier,
            c.p_future_start,
            c.s_max,
            c.e_max,
            c.maps_per_job.1,
            c.resources,
            c.map_capacity,
            c.reduce_capacity
        )
    }

    /// The job generator: the paper's defaults (Table 3) at the
    /// experiments' `--default` cap — at most 40 maps and 40 reduces per
    /// job, the cluster shrunk by the same ratio to 20 resources.
    /// `paper-tight` takes the tightest corners of the paper's Fig. 8 and
    /// Fig. 7 sweeps: λ = 0.02/s and d_M = 2.
    fn synthetic(self) -> SyntheticConfig {
        let cfg = SyntheticConfig {
            maps_per_job: (1, 40),
            reduces_per_job: (1, 40),
            resources: 20,
            cells: CellCount(1),
            ..SyntheticConfig::default()
        };
        match self {
            Workload::PaperTight => SyntheticConfig {
                lambda: 0.02,
                deadline_multiplier: 2.0,
                ..cfg
            },
            _ => cfg,
        }
    }

    /// The trace of replication `rep` under `seed`, drawn the way the
    /// experiments draw one replication.
    pub fn trace(self, seed: u64, rep: usize) -> (Vec<Resource>, Vec<Job>) {
        let cfg = self.synthetic();
        cfg.validate();
        let rng = RngStreams::for_replication(seed, rep as u64).stream("workload");
        let jobs = SyntheticGenerator::new(cfg.clone(), rng).take_jobs(REP_JOBS);
        (cfg.cluster(), jobs)
    }
}

/// The manager configuration every replay runs.
pub fn manager_config() -> MrcpConfig {
    let mut cfg = MrcpConfig::default();
    cfg.budget.time_limit_ms = None;
    cfg
}

/// The stack under test.
#[derive(Debug)]
pub enum Stack {
    Single(Box<MrcpRm>),
    Federated(Box<Federation>),
    Durable(Box<DurableFederation>),
}

impl Stack {
    /// Build `workload`'s stack with `variant`'s layer removed, carrying
    /// `tel`; a durable stack writes under the fresh directory `store`.
    pub fn build(
        workload: Workload,
        variant: Variant,
        resources: &[Resource],
        tel: &Telemetry,
        store: &Path,
    ) -> Stack {
        if workload == Workload::PaperTight {
            let mut rm = MrcpRm::new(manager_config(), resources.to_vec());
            rm.set_telemetry(tel);
            return Stack::Single(Box::new(rm));
        }
        let cluster = ClusterConfig {
            cells: CELLS,
            rebalance: RebalanceConfig::default(),
        };
        let tel = match variant {
            Variant::NoTelemetry => Telemetry::disabled(),
            _ => tel.clone(),
        };
        if variant == Variant::NoDurability {
            let mut fed = Federation::new(&cluster, manager_config(), resources.to_vec());
            fed.set_telemetry(&tel);
            return Stack::Federated(Box::new(fed));
        }
        let mut d = DurableFederation::new(
            &cluster,
            manager_config(),
            resources.to_vec(),
            store,
            DurabilityConfig::power_loss(StoreConfig::default()),
        );
        d.set_telemetry(&tel);
        Stack::Durable(Box::new(d))
    }

    /// The federation, on the federated stacks.
    pub fn federation(&self) -> Option<&Federation> {
        match self {
            Stack::Single(_) => None,
            Stack::Federated(f) => Some(f),
            Stack::Durable(d) => Some(d.federation()),
        }
    }
}

macro_rules! each {
    ($stack:expr, $m:ident => $call:expr) => {
        match $stack {
            Stack::Single($m) => $call,
            Stack::Federated($m) => $call,
            Stack::Durable($m) => $call,
        }
    };
}

// `submit_batch` keeps the trait's sequential default: the simulation
// driver runs without ingest coalescing here, so it never submits a batch.
impl ResourceManager for Stack {
    fn submit_with_admission(
        &mut self,
        job: Job,
        now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError> {
        each!(self, m => m.submit_with_admission(job, now))
    }
    fn activate_due(&mut self, now: SimTime) -> usize {
        each!(self, m => m.activate_due(now))
    }
    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
        each!(self, m => m.reschedule(now))
    }
    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
        each!(self, m => m.task_started(task, now))
    }
    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        each!(self, m => m.task_completed(task, now))
    }
    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        each!(self, m => m.task_duration_revised(task, new_exec))
    }
    fn task_failed(&mut self, task: TaskId, now: SimTime) -> Result<FailureAction, ManagerError> {
        each!(self, m => m.task_failed(task, now))
    }
    fn resource_down(
        &mut self,
        rid: ResourceId,
        now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        each!(self, m => m.resource_down(rid, now))
    }
    fn resource_up(&mut self, rid: ResourceId, now: SimTime) -> Result<(), ManagerError> {
        each!(self, m => m.resource_up(rid, now))
    }
    fn jobs_in_system(&self) -> usize {
        each!(self, m => m.jobs_in_system())
    }
    fn stats(&self) -> ManagerStats {
        each!(self, m => m.stats())
    }
    fn crash_and_recover(&mut self, now: SimTime) -> bool {
        each!(self, m => m.crash_and_recover(now))
    }
}
