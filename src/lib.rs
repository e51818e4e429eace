//! # PAT — Prefix-Aware aTtention for LLM decoding (ASPLOS '26 reproduction)
//!
//! A full-system Rust reproduction of *"PAT: Accelerating LLM Decoding via
//! Prefix-Aware Attention with Resource Efficient Multi-Tile Kernel"*. The
//! GPU testbed is substituted by a discrete-event simulator (see `DESIGN.md`);
//! every algorithmic component of the paper — the pack scheduler, the
//! multi-tile kernel suite, multi-stream forwarding, long-KV splitting, and
//! the online-softmax merge — is implemented exactly and validated
//! numerically against unpacked attention.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`pat_core`] — the paper's contribution (packing, tiles, streams);
//! * [`baselines`] — FlashAttention, FlashInfer, FastTree, RelayAttention(++),
//!   DeFT, Cascade;
//! * [`attn_kernel`] — execution plans and the numeric/timing executors;
//! * [`attn_math`] — exact attention numerics (online softmax, merge);
//! * [`kv_cache`] — paged KV cache with prefix reuse and prefix trees;
//! * [`sim_gpu`] — the A100/H100 simulator;
//! * [`workloads`] — synthetic `(B, L)` batches and trace models;
//! * [`serving`] — the continuous-batching serving simulator;
//! * [`controller`] — multi-replica fleets: prefix-aware request routing,
//!   and the control plane (fault injection, health-checked failover,
//!   SLO-aware autoscaling, admission control).
//!
//! ## Quickstart
//!
//! ```
//! use pat::prelude::*;
//!
//! // Four requests sharing a 512-token system prompt.
//! let head = HeadConfig::new(32, 8, 128);
//! let tables: Vec<BlockTable> = (0..4u32)
//!     .map(|q| {
//!         let mut ids: Vec<BlockId> = (0..32).map(BlockId).collect();
//!         ids.push(BlockId(100 + q));
//!         BlockTable::new(ids, 33 * 16, 16)
//!     })
//!     .collect();
//! let batch = DecodeBatch::new(head, tables, 2);
//! let spec = GpuSpec::a100_sxm4_80gb();
//!
//! // PAT packs the shared prefix once; FlashAttention re-loads it per query.
//! let pat_plan = PatBackend::new().plan(&batch, &spec);
//! let fa_plan = FlashAttention::new().plan(&batch, &spec);
//! let pat_time = simulate_plan(&batch, &pat_plan, &spec).unwrap();
//! let fa_time = simulate_plan(&batch, &fa_plan, &spec).unwrap();
//! assert!(pat_time.traffic.kv_loaded_bytes() < fa_time.traffic.kv_loaded_bytes());
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub use attn_kernel;
pub use attn_math;
pub use baselines;
pub use controller;
pub use kv_cache;
pub use pat_core;
pub use replica_fidelity;
pub use serving;
pub use sim_gpu;
pub use workloads;

/// Commonly used items in one import.
pub mod prelude {
    pub use attn_kernel::{
        execute_numeric, reference_output, simulate_plan, AttentionBackend, DecodeBatch,
        KernelPlan, KvStore, QueryActivations, TileConfig,
    };
    pub use attn_math::{reference_attention, HeadConfig, Matrix, PartialAttn};
    pub use baselines::{
        Cascade, Deft, FastTree, FlashAttention, FlashInfer, RelayAttention, RelayAttentionPP,
    };
    pub use controller::{
        AdmissionConfig, AutoscalerConfig, Cluster, ClusterConfig, ConsistentHashPrefix,
        ControllerConfig, DisaggConfig, FaultPlan, FleetController, LeastOutstanding,
        PrefixAffinity, ReplicaState, RoundRobin, Router, TransferConfig,
    };
    pub use kv_cache::{BlockId, BlockTable, CacheManager, PrefixForest};
    pub use kv_transfer::{FleetTopology, LinkSpec, TransferPlane};
    pub use pat_core::{
        tile_policy_from_env, AutotunedPolicy, HeuristicPolicy, LazyPat, PatBackend, PatConfig,
        TileCache, TileContext, TileError, TilePolicy, TilePolicyKind, TileSelector, TileSolver,
    };
    pub use replica_fidelity::{fidelity_from_env, Fidelity, ReplicaModel};
    pub use serving::{simulate_serving, ModelSpec, ServingConfig, ServingEngine};
    pub use sim_gpu::{gpu_model_from_env, Engine, GpuModel, GpuSpec};
    pub use workloads::{figure11_specs, generate_trace, BatchSpec, TraceConfig, TraceKind};
}
