//! # serving — a continuous-batching LLM serving simulator
//!
//! The end-to-end substrate of the PAT reproduction (the role vLLM v0.9.0
//! plays in the paper): request arrival → prefill admission with a
//! prefix-reusing paged KV cache → decode steps whose attention is planned by
//! a pluggable backend ([`ServingAttention`]) and priced on the GPU
//! simulator, with all non-attention work covered by a roofline
//! [`CostModel`]. Produces the paper's serving metrics (TTFT, mean/P99 TPOT —
//! Fig. 12/13), the latency breakdown of Fig. 1, and the scheduler-overhead
//! samples of Fig. 16. Supports TP/PP sharding and MoE cost modelling (§8.5).
//!
//! ## Example
//!
//! ```no_run
//! use pat_core::LazyPat;
//! use serving::{simulate_serving, ModelSpec, ServingConfig};
//! use workloads::{generate_trace, TraceConfig, TraceKind};
//!
//! let requests = generate_trace(TraceConfig {
//!     kind: TraceKind::Conversation,
//!     rate_per_s: 5.0,
//!     duration_s: 30.0,
//!     seed: 1,
//! });
//! let config = ServingConfig::single_gpu(ModelSpec::llama3_8b());
//! let mut pat = LazyPat::new();
//! let result = simulate_serving(&config, &mut pat, &requests);
//! println!("mean TPOT: {:.2} ms", result.metrics.mean_tpot_ms);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod attention;
mod breakdown;
mod costs;
mod engine;
mod metrics;
mod model;
mod queue;
mod replica;

pub use attention::{ServingAttention, Stateless};
pub use attn_kernel::{StepSimCache, StepSimReport, StepSimStats, DEFAULT_STEP_CACHE_CAPACITY};
pub use breakdown::{latency_breakdown, BreakdownRow};
pub use costs::CostModel;
pub use engine::{
    simulate_serving, EngineError, Parallelism, ServingConfig, ServingEngine, SimulationResult,
    StepOutcome,
};
pub use metrics::{percentile, AggregateMetrics, RequestMetrics};
pub use model::{ModelSpec, MoeSpec};
pub use replica::{KvPlacement, ReplicaCore};
