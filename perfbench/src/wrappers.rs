//! Pass-through wrappers that time the program's planning and solving calls
//! from outside.  Both forward every trait method to the wrapped value, so a
//! wrapped run takes exactly the same decisions as an unwrapped one (the
//! benchmark checks this on every run).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use malleable_core::prelude::*;
use online::{Commitment, MachineState, OnlinePolicy, PendingTask, Trigger};
use telemetry::{SharedRecorder, SpanTimer};

/// An [`OnlinePolicy`] that records the wall time of every `plan` call.
pub struct TimedPolicy<P> {
    pub inner: P,
    /// Nanoseconds of each `plan` call, in call order.
    pub plan_ns: Vec<u64>,
}

impl<P> TimedPolicy<P> {
    pub fn new(inner: P) -> Self {
        TimedPolicy {
            inner,
            plan_ns: Vec::new(),
        }
    }
}

impl<P: OnlinePolicy> OnlinePolicy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn epoch(&self) -> Option<f64> {
        self.inner.epoch()
    }

    fn backfill(&self) -> bool {
        self.inner.backfill()
    }

    fn preempt_queued(&self) -> bool {
        self.inner.preempt_queued()
    }

    fn preempt_running(&self) -> bool {
        self.inner.preempt_running()
    }

    fn delta_planning(&self) -> bool {
        self.inner.delta_planning()
    }

    fn should_plan(&self, trigger: Trigger, machine: &MachineState) -> bool {
        self.inner.should_plan(trigger, machine)
    }

    fn plan(
        &mut self,
        instance: &Instance,
        pending: &[PendingTask],
        machine: &mut MachineState,
    ) -> Result<Vec<Commitment>> {
        let start = SpanTimer::start();
        let commitments = self.inner.plan(instance, pending, machine);
        self.plan_ns.push(start.elapsed_ns());
        commitments
    }

    fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.inner.set_recorder(recorder);
    }

    fn solver_name(&self) -> String {
        self.inner.solver_name()
    }

    fn warm_start(&self) -> bool {
        self.inner.warm_start()
    }

    fn probes_issued(&self) -> usize {
        self.inner.probes_issued()
    }
}

/// A [`Solver`] that totals the wall time and instance sizes of its solves.
/// The counters are plain statistics that publish no other data, hence
/// `Relaxed`.
pub struct TimedSolver {
    inner: SolverHandle,
    ns: AtomicU64,
    solves: AtomicUsize,
    tasks: AtomicUsize,
}

impl TimedSolver {
    pub fn new(inner: SolverHandle) -> Arc<Self> {
        Arc::new(TimedSolver {
            inner,
            ns: AtomicU64::new(0),
            solves: AtomicUsize::new(0),
            tasks: AtomicUsize::new(0),
        })
    }

    /// Total seconds spent solving so far.
    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Solves served so far.
    pub fn solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Tasks over all solved instances so far.
    pub fn tasks(&self) -> usize {
        self.tasks.load(Ordering::Relaxed)
    }

    fn record(&self, timer: SpanTimer, request: &SolveRequest<'_>) {
        self.ns.fetch_add(timer.elapsed_ns(), Ordering::Relaxed);
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.tasks
            .fetch_add(request.instance.task_count(), Ordering::Relaxed);
    }
}

impl Solver for TimedSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> SolverCapabilities {
        self.inner.capabilities()
    }

    fn solve(&self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        let start = SpanTimer::start();
        let outcome = self.inner.solve(request);
        self.record(start, request);
        outcome
    }

    fn solve_with_workspace(
        &self,
        request: &SolveRequest<'_>,
        workspace: &mut ProbeWorkspace,
    ) -> Result<SolveOutcome> {
        let start = SpanTimer::start();
        let outcome = self.inner.solve_with_workspace(request, workspace);
        self.record(start, request);
        outcome
    }
}
