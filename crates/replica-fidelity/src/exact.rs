//! The Exact fidelity: the full serving engine over the kernel simulator.

use crate::{Fidelity, ReplicaModel};
use kv_cache::{IngestReport, PrefixProbe, Token};
use serving::{
    CostModel, RequestMetrics, ServingAttention, ServingConfig, ServingEngine, SimulationResult,
    StepOutcome, StepSimStats,
};
use sim_core::SimTime;
use workloads::Request;

/// The reference fidelity: a full [`ServingEngine`] over the kernel
/// simulator, with the engine's bounded step-simulation cache.
pub struct ExactReplica {
    engine: ServingEngine,
    backend: Box<dyn ServingAttention>,
}

impl std::fmt::Debug for ExactReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactReplica")
            .field("clock", &self.engine.core().clock())
            .field("outstanding", &self.engine.core().outstanding())
            .finish_non_exhaustive()
    }
}

impl ExactReplica {
    /// A fresh exact replica with an empty KV cache.
    pub fn new(config: ServingConfig, backend: Box<dyn ServingAttention>) -> Self {
        ExactReplica {
            engine: ServingEngine::new(config),
            backend,
        }
    }

    /// The wrapped engine (read-only, for drivers that need the full
    /// engine surface beyond [`ReplicaModel`]).
    pub fn engine(&self) -> &ServingEngine {
        &self.engine
    }
}

impl ReplicaModel for ExactReplica {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Exact
    }

    fn submit(&mut self, request: Request) {
        self.engine.submit(request);
    }

    fn step(&mut self) -> StepOutcome {
        self.engine.step(self.backend.as_mut())
    }

    fn clock(&self) -> SimTime {
        self.engine.core().clock()
    }

    fn num_active(&self) -> usize {
        self.engine.core().num_active()
    }

    fn outstanding(&self) -> usize {
        self.engine.core().outstanding()
    }

    fn block_size(&self) -> usize {
        self.engine.cache().block_size()
    }

    fn prefix_overlap(&self, probe: &mut PrefixProbe<'_>) -> usize {
        self.engine.cache().prefix_overlap(probe)
    }

    fn cache_hit_miss_tokens(&self) -> (u64, u64) {
        let stats = self.engine.cache().stats();
        (stats.hit_tokens, stats.miss_tokens)
    }

    fn resident_block_hashes(&self) -> Vec<u64> {
        self.engine.cache().resident_hashes().collect()
    }

    fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport {
        self.engine.ingest_prefix(tokens)
    }

    fn cost_model(&self) -> &CostModel {
        self.engine.core().cost_model()
    }

    fn completed_requests(&self) -> &[RequestMetrics] {
        self.engine.core().completed_requests()
    }

    fn set_speed_factor(&mut self, factor: f64) {
        self.engine.set_speed_factor(factor);
    }

    fn speed_factor(&self) -> f64 {
        self.engine.core().speed_factor()
    }

    fn begin_drain(&mut self) {
        self.engine.begin_drain();
    }

    fn take_incomplete(&mut self) -> Vec<Request> {
        self.engine.take_incomplete()
    }

    fn step_sim_stats(&self) -> StepSimStats {
        self.engine.step_sim_stats()
    }

    fn into_result(self: Box<Self>) -> SimulationResult {
        self.engine.into_result()
    }
}
