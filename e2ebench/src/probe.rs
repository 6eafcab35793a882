//! The decorator that measures the stack from outside: it implements
//! `ResourceManager` around the stack and times every call into it.
//!
//! Untraced, it keeps only what the end-to-end metrics need: wall time
//! inside stack calls, per-job plan latency and recovery latency. Traced,
//! it also records one span per call (spans of one job carry its id,
//! recoveries their crash index), `stats()` deltas around each
//! `reschedule`, and the write-ahead log's replay bound before each crash.

use desim::SimTime;
use mrcp::manager::{
    AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerStats, ScheduleEntry,
};
use mrcp::ResourceManager;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use workload::{Job, ResourceId, TaskId};

/// The stack call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Submit,
    Activate,
    Reschedule,
    TaskStarted,
    TaskCompleted,
    TaskRevised,
    TaskFailed,
    ResourceDown,
    ResourceUp,
    Recover,
}

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::Submit => "submit",
            Call::Activate => "activate_due",
            Call::Reschedule => "reschedule",
            Call::TaskStarted => "task_started",
            Call::TaskCompleted => "task_completed",
            Call::TaskRevised => "task_duration_revised",
            Call::TaskFailed => "task_failed",
            Call::ResourceDown => "resource_down",
            Call::ResourceUp => "resource_up",
            Call::Recover => "crash_and_recover",
        }
    }

    pub fn is_task_event(self) -> bool {
        matches!(self, Call::TaskStarted | Call::TaskCompleted)
    }
}

/// `stats()` movement across one `reschedule` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundDelta {
    pub rounds: u64,
    pub nodes: u64,
    pub optimal: u64,
    pub warm: u64,
    pub solve: Duration,
}

/// One timed call into the stack. Times are relative to the replay's
/// start; every call span's parent is the replay's root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub call: Call,
    pub job: Option<u32>,
    pub crash: Option<u32>,
    pub start: Duration,
    pub end: Duration,
    pub round: Option<RoundDelta>,
}

impl Span {
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }
}

/// What a traced replay records beyond the untraced measurements.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    task_job: HashMap<TaskId, u32>,
    /// The `durability_wal_records` gauge: surface commands the snapshot
    /// does not yet cover, i.e. what a crash right now replays.
    wal_records: Option<telemetry::Gauge>,
    /// Commands replayed across every recovery, read off that gauge.
    pub replayed: u64,
    crashes: u32,
}

/// The timing decorator.
#[derive(Debug)]
pub struct Timed<M> {
    inner: M,
    origin: Instant,
    /// Wall time spent inside calls into the stack.
    pub in_stack: Duration,
    /// Submission start of every job no `reschedule` has returned after.
    pending: Vec<Instant>,
    /// Per job: submission start to the end of the first `reschedule`
    /// that returns after the submission, ms.
    pub plan_ms: Vec<f64>,
    /// Wall time of each `crash_and_recover` that recovered, ms.
    pub recovery_ms: Vec<f64>,
    pub trace: Option<Trace>,
}

impl<M: ResourceManager> Timed<M> {
    /// Wrap `inner`. With `trace`, spans and round deltas are kept too;
    /// `wal_records` is the durable stack's replay-bound gauge, if any.
    pub fn new(inner: M, trace: bool, wal_records: Option<telemetry::Gauge>) -> Self {
        Timed {
            inner,
            origin: Instant::now(),
            in_stack: Duration::ZERO,
            pending: Vec::new(),
            plan_ms: Vec::new(),
            recovery_ms: Vec::new(),
            trace: trace.then(|| Trace {
                wal_records,
                ..Trace::default()
            }),
        }
    }

    pub fn inner(&self) -> &M {
        &self.inner
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn job_of(&self, task: TaskId) -> Option<u32> {
        self.trace
            .as_ref()
            .and_then(|t| t.task_job.get(&task).copied())
    }

    /// Run one call into the stack, timing it; returns the result and the
    /// call's start and end.
    fn call<R>(
        &mut self,
        call: Call,
        job: Option<u32>,
        f: impl FnOnce(&mut M) -> R,
    ) -> (R, Instant, Instant) {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let t1 = Instant::now();
        self.in_stack += t1 - t0;
        if let Some(tr) = self.trace.as_mut() {
            tr.spans.push(Span {
                call,
                job,
                crash: None,
                start: t0 - self.origin,
                end: t1 - self.origin,
                round: None,
            });
        }
        (out, t0, t1)
    }
}

fn delta(before: &ManagerStats, after: &ManagerStats) -> RoundDelta {
    RoundDelta {
        rounds: after.invocations - before.invocations,
        nodes: after.total_nodes - before.total_nodes,
        optimal: after.optimal_rounds - before.optimal_rounds,
        warm: after.warm_rounds - before.warm_rounds,
        solve: after.total_solve.saturating_sub(before.total_solve),
    }
}

// `submit_batch` keeps the trait's sequential default: the simulation
// driver runs without ingest coalescing here, so it never submits a batch.
impl<M: ResourceManager> ResourceManager for Timed<M> {
    fn submit_with_admission(
        &mut self,
        job: Job,
        now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError> {
        let id = job.id.0;
        if let Some(tr) = self.trace.as_mut() {
            tr.task_job.extend(job.tasks().map(|t| (t.id, id)));
        }
        let (out, t0, _) = self.call(Call::Submit, Some(id), |m| {
            m.submit_with_admission(job, now)
        });
        self.pending.push(t0);
        out
    }
    fn activate_due(&mut self, now: SimTime) -> usize {
        self.call(Call::Activate, None, |m| m.activate_due(now)).0
    }
    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
        let before = self.trace.is_some().then(|| self.inner.stats());
        let (plan, _, t1) = self.call(Call::Reschedule, None, |m| m.reschedule(now));
        for t0 in self.pending.drain(..) {
            self.plan_ms.push((t1 - t0).as_secs_f64() * 1e3);
        }
        if let Some(before) = before {
            let d = delta(&before, &self.inner.stats());
            if let Some(span) = self.trace.as_mut().and_then(|t| t.spans.last_mut()) {
                span.round = Some(d);
            }
        }
        plan
    }
    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
        let job = self.job_of(task);
        self.call(Call::TaskStarted, job, |m| m.task_started(task, now))
            .0
    }
    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        let job = self.job_of(task);
        self.call(Call::TaskCompleted, job, |m| m.task_completed(task, now))
            .0
    }
    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        let job = self.job_of(task);
        self.call(Call::TaskRevised, job, |m| {
            m.task_duration_revised(task, new_exec)
        })
        .0
    }
    fn task_failed(&mut self, task: TaskId, now: SimTime) -> Result<FailureAction, ManagerError> {
        let job = self.job_of(task);
        self.call(Call::TaskFailed, job, |m| m.task_failed(task, now))
            .0
    }
    fn resource_down(
        &mut self,
        rid: ResourceId,
        now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        self.call(Call::ResourceDown, None, |m| m.resource_down(rid, now))
            .0
    }
    fn resource_up(&mut self, rid: ResourceId, now: SimTime) -> Result<(), ManagerError> {
        self.call(Call::ResourceUp, None, |m| m.resource_up(rid, now))
            .0
    }
    fn jobs_in_system(&self) -> usize {
        self.inner.jobs_in_system()
    }
    fn stats(&self) -> ManagerStats {
        self.inner.stats()
    }
    fn crash_and_recover(&mut self, now: SimTime) -> bool {
        let crash = self.trace.as_mut().map(|tr| {
            tr.replayed += tr.wal_records.as_ref().map_or(0, |g| g.get().max(0) as u64);
            tr.crashes += 1;
            tr.crashes - 1
        });
        let (recovered, t0, t1) = self.call(Call::Recover, None, |m| m.crash_and_recover(now));
        if recovered {
            self.recovery_ms.push((t1 - t0).as_secs_f64() * 1e3);
        }
        if let Some(span) = self.trace.as_mut().and_then(|t| t.spans.last_mut()) {
            span.crash = crash;
        }
        recovered
    }
}
