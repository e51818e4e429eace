//! The [`ReplicaModel`] trait: the replica surface fleet drivers consume.

use crate::{AnalyticalReplica, ExactReplica, Fidelity};
use kv_cache::{IngestReport, PrefixProbe, Token};
use serving::{
    CostModel, RequestMetrics, ServingAttention, ServingConfig, SimulationResult, StepOutcome,
    StepSimStats,
};
use sim_core::SimTime;
use workloads::Request;

/// One simulated replica, at some fidelity, as a fleet driver sees it.
///
/// This is exactly the surface the `controller` fleet loop consumes from a
/// replica: work submission and stepping, load/clock introspection for
/// routers, prefix-warmth probes and KV import for the transfer plane,
/// drain/speed control for the control plane, and final metrics. A model
/// owns its attention backend (unlike [`serving::ServingEngine::step`],
/// [`ReplicaModel::step`] takes no backend argument), so fleets can hold a
/// heterogeneous `Vec<Box<dyn ReplicaModel>>`.
///
/// Implementations must stay on the integer-nanosecond spine and be
/// deterministic per seed: a model's step sequence is a pure function of
/// its own state, never of wall clock, thread count, or other replicas.
/// `Send` is required so fleet drivers can advance independent replicas on
/// `sim_core::par` worker threads between event barriers.
pub trait ReplicaModel: Send + std::fmt::Debug {
    /// The fidelity this model simulates at.
    fn fidelity(&self) -> Fidelity;

    /// Submits a request (must be in non-decreasing arrival order).
    fn submit(&mut self, request: Request);

    /// Runs one scheduling iteration; see [`serving::ServingEngine::step`].
    fn step(&mut self) -> StepOutcome;

    /// The replica's virtual clock.
    fn clock(&self) -> SimTime;

    /// Requests currently in the decode batch.
    fn num_active(&self) -> usize;

    /// Submitted requests not yet completed or dropped.
    fn outstanding(&self) -> usize;

    /// KV block size used for admission and transfer-size accounting.
    fn block_size(&self) -> usize;

    /// Leading tokens of the probed prompt this replica would serve
    /// without recomputation. Read-only: never perturbs cache recency, and
    /// only looks up the probe's chain hashes, so one probe serves a sweep
    /// over the whole fleet. The probe's block size must be
    /// [`ReplicaModel::block_size`].
    fn prefix_overlap(&self, probe: &mut PrefixProbe<'_>) -> usize;

    /// Token-level prefix-cache `(hit, miss)` counters so far.
    fn cache_hit_miss_tokens(&self) -> (u64, u64);

    /// Hashes of resident full KV blocks, for cross-replica duplication
    /// accounting. Empty for fidelities without block-level residency.
    fn resident_block_hashes(&self) -> Vec<u64>;

    /// Imports migrated KV for the full-block prefix of `tokens`, as if
    /// streamed from a donor replica; see
    /// [`serving::ServingEngine::ingest_prefix`].
    fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport;

    /// The roofline cost model pricing this replica's steps.
    fn cost_model(&self) -> &CostModel;

    /// Per-request records of requests completed so far.
    fn completed_requests(&self) -> &[RequestMetrics];

    /// Sets the replica speed factor (1.0 nominal; see
    /// [`serving::ServingEngine::set_speed_factor`]).
    fn set_speed_factor(&mut self, factor: f64);

    /// The current speed factor.
    fn speed_factor(&self) -> f64;

    /// Enters drain mode: serve what is queued, reject new submissions.
    fn begin_drain(&mut self);

    /// Removes and returns every incomplete request, in arrival order, for
    /// resubmission elsewhere (failover and fidelity switches).
    fn take_incomplete(&mut self) -> Vec<Request>;

    /// Step-simulation cache counters (zero for analytical replicas, which
    /// run no step simulation at all).
    fn step_sim_stats(&self) -> StepSimStats;

    /// Finalizes the replica, consuming it.
    fn into_result(self: Box<Self>) -> SimulationResult;
}

/// Builds a replica model of the given fidelity.
///
/// `backend` plans attention for the exact fidelity; an analytical replica runs no planner and drops it (its calibration table
/// was fitted against the PAT backend — see [`crate::calibration`]).
pub fn new_replica(
    fidelity: Fidelity,
    config: &ServingConfig,
    backend: Box<dyn ServingAttention>,
) -> Box<dyn ReplicaModel> {
    match fidelity {
        Fidelity::Exact => Box::new(ExactReplica::new(config.clone(), backend)),
        Fidelity::Analytical => Box::new(AnalyticalReplica::new(config.clone())),
    }
}
