//! # pat-core — Prefix-Aware aTtention for LLM decoding
//!
//! The paper's primary contribution, reproduced in full:
//!
//! * the **pack scheduler** ([`pack_batch`], Algorithm 1) with its
//!   memory-centric [`profit`] model and [`LazyPat`] lazy-update caching
//!   (§5.1);
//! * the **multi-tile kernel suite**: the offline constraint solver
//!   [`TileSolver`] (Fig. 8b) and the runtime [`TileSelector`] (§5.2);
//! * the **forward-stage strategies**: multi-stream execution and
//!   [`split_long_kv`] (§6);
//! * the merge stage is planned here and computed exactly in `attn-math`
//!   (§7).
//!
//! [`PatBackend`] ties everything into an
//! [`AttentionBackend`](attn_kernel::AttentionBackend); [`ablation`] exposes
//! the §8.6 variants.
//!
//! ## Example
//!
//! ```
//! use attn_kernel::{simulate_plan, AttentionBackend, DecodeBatch};
//! use attn_math::HeadConfig;
//! use kv_cache::{BlockId, BlockTable};
//! use pat_core::PatBackend;
//! use sim_gpu::GpuSpec;
//!
//! // A decode batch of four queries sharing a 512-token system prompt.
//! let head = HeadConfig::new(32, 8, 128);
//! let tables: Vec<BlockTable> = (0..4u32)
//!     .map(|q| {
//!         let mut ids: Vec<BlockId> = (0..32).map(BlockId).collect();
//!         ids.push(BlockId(100 + q));
//!         BlockTable::new(ids, 33 * 16, 16)
//!     })
//!     .collect();
//! let batch = DecodeBatch::new(head, tables, 2);
//!
//! let spec = GpuSpec::a100_sxm4_80gb();
//! let plan = PatBackend::new().plan(&batch, &spec);
//! let report = simulate_plan(&batch, &plan, &spec).unwrap();
//! println!("attention latency: {:.1} us", report.total_ns / 1000.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

pub mod ablation;
mod backend;
pub mod exact;
mod explain;
mod lazy;
mod packer;
mod policy;
mod profiler;
pub mod profit;
mod selector;
mod split;
mod tiles;

pub use backend::{PackingPolicy, PatBackend, PatConfig};
pub use explain::{explain_pack, render_decisions, PackDecision};
pub use lazy::{structure_fingerprint, LazyPat, LazyStats, PlanReuse};
pub use packer::{enforce_row_limit, pack_batch, pack_forest, Pack};
pub use policy::{
    generate_tile_cache, tile_policy_from_env, AutotunedPolicy, HeuristicPolicy, TileCache,
    TileCacheEntry, TileContext, TilePolicy, TilePolicyKind, COMMITTED_TILE_CACHE_JSON, KV_BUCKETS,
    TILE_POLICY_ENV,
};
pub use profiler::{derive_n_rule, NRule};
pub use selector::{TileError, TileSelector};
pub use split::split_long_kv;
pub use tiles::{TileConstraint, TileSolver, TileVerdict, TILE_GRID};
