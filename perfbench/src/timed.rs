//! Timing wrappers around the public trait objects the fleet drivers accept.
//!
//! [`TimedRouter`] wraps a [`Router`] and [`TimedAttention`] wraps a
//! [`ServingAttention`]. Each delegates every call unchanged and records how
//! long the call took into a log shared with the benchmark, so per-layer
//! busy time is measured from outside the program. Neither wrapper may change
//! what is simulated; the self-tests check that wrapped and unwrapped runs
//! produce identical payload digests.

use attn_kernel::{DecodeBatch, KernelPlan};
use cluster::{ReplicaView, Router};
use pat_core::{PlanReuse, TileError};
use serving::ServingAttention;
use sim_gpu::GpuSpec;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::Request;

/// A log shared between a wrapper and the benchmark that reads it.
pub type Shared<T> = Arc<Mutex<T>>;

/// Locks a shared log. A poisoned lock means a simulation thread panicked,
/// which aborts the benchmark anyway.
pub fn lock<T>(shared: &Shared<T>) -> std::sync::MutexGuard<'_, T> {
    shared.lock().expect("a simulation thread panicked")
}

/// Every routing decision of one run.
#[derive(Debug, Default)]
pub struct RouteLog {
    /// Host nanoseconds of each `route` call.
    pub busy_ns: Vec<u64>,
    /// `(request id, chosen replica)` per call, in call order.
    pub choices: Vec<(u64, Option<usize>)>,
    /// Calls whose chosen replica already held part of the prompt.
    pub prefix_routes: usize,
}

/// A [`Router`] that times each decision of the router it wraps.
#[derive(Debug)]
pub struct TimedRouter {
    inner: Box<dyn Router>,
    log: Shared<RouteLog>,
}

impl TimedRouter {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn Router>, log: Shared<RouteLog>) -> Self {
        TimedRouter { inner, log }
    }
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaView<'_>]) -> Option<usize> {
        let t0 = Instant::now();
        let choice = self.inner.route(request, replicas);
        let busy = t0.elapsed();
        // The prefix probe is read-only and runs outside the timed span.
        let holds_prefix = choice.is_some_and(|target| {
            replicas[target].prefix_overlap_tokens(&request.prompt.to_tokens()) > 0
        });
        let mut log = lock(&self.log);
        log.busy_ns.push(nanos(busy));
        log.choices.push((request.id, choice));
        log.prefix_routes += usize::from(holds_prefix);
        choice
    }
}

/// Every planning call of one run.
#[derive(Debug, Default)]
pub struct PlanLog {
    /// Host nanoseconds of each `plan_step` call.
    pub busy_ns: Vec<u64>,
    /// Running sum of `busy_ns`, so a caller can attribute planning time to
    /// the replica step that contained it.
    pub total_ns: u64,
    /// Plans that replayed frozen packs.
    pub frozen: u64,
    /// Plans patched incrementally from the previous step.
    pub delta: u64,
    /// Plans rebuilt from scratch (or by a backend that reports no reuse).
    pub cold: u64,
}

/// A [`ServingAttention`] that times each planning call of the backend it
/// wraps and records how the plan was produced.
pub struct TimedAttention {
    inner: Box<dyn ServingAttention>,
    log: Shared<PlanLog>,
}

impl TimedAttention {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn ServingAttention>, log: Shared<PlanLog>) -> Self {
        TimedAttention { inner, log }
    }
}

impl ServingAttention for TimedAttention {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn supports(&self, batch: &DecodeBatch) -> bool {
        self.inner.supports(batch)
    }

    fn plan_step(&mut self, batch: &DecodeBatch, spec: &GpuSpec) -> Result<KernelPlan, TileError> {
        let t0 = Instant::now();
        let plan = self.inner.plan_step(batch, spec);
        let busy = nanos(t0.elapsed());
        let reuse = self.inner.last_plan_reuse();
        let mut log = lock(&self.log);
        log.busy_ns.push(busy);
        log.total_ns += busy;
        match reuse {
            Some(PlanReuse::Frozen) => log.frozen += 1,
            Some(PlanReuse::DeltaPatched) => log.delta += 1,
            Some(PlanReuse::Cold) | None => log.cold += 1,
        }
        plan
    }

    fn scheduling_cost_ns(&self, batch: &DecodeBatch) -> Option<f64> {
        self.inner.scheduling_cost_ns(batch)
    }

    fn last_plan_reuse(&self) -> Option<PlanReuse> {
        self.inner.last_plan_reuse()
    }
}

/// A duration in whole nanoseconds (saturating; no run lasts 584 years).
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
