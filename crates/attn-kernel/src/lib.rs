//! # attn-kernel — execution plans for decode attention
//!
//! The plan layer of the PAT reproduction. An [`AttentionBackend`] (PAT or a
//! baseline) packs a [`DecodeBatch`] into a [`KernelPlan`] — CTAs with packed
//! queries, KV slices, tile configurations, and stream assignments. Two
//! executors consume plans:
//!
//! * [`execute_numeric`] runs the plan through exact attention math
//!   (`attn-math`) and compares against [`reference_output`] — proving that
//!   packing, splitting, and merging never change results;
//! * [`simulate_plan`] runs the plan on the `sim-gpu` engine, producing
//!   latency, bandwidth utilization, memory traffic, and execution traces.
//!
//! ## Example
//!
//! ```
//! use attn_kernel::{
//!     execute_numeric, reference_output, simulate_plan, CtaPlan, DecodeBatch,
//!     KernelPlan, KvSlice, KvStore, QueryActivations, TileConfig,
//! };
//! use attn_math::HeadConfig;
//! use kv_cache::{BlockId, BlockTable};
//! use sim_gpu::GpuSpec;
//!
//! // Two queries sharing KV block 0.
//! let head = HeadConfig::new(8, 4, 32);
//! let batch = DecodeBatch::new(
//!     head,
//!     vec![
//!         BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
//!         BlockTable::new(vec![BlockId(0), BlockId(2)], 32, 16),
//!     ],
//!     2,
//! );
//! // Prefix-aware plan: shared block packed once, private tails separate.
//! let plan = KernelPlan::new(vec![
//!     CtaPlan { queries: vec![0, 1], kv: KvSlice::new(vec![BlockId(0)], 16, 16),
//!               tile: TileConfig::new(16, 16), stream: 0, phase: 0 },
//!     CtaPlan { queries: vec![0], kv: KvSlice::new(vec![BlockId(1)], 16, 16),
//!               tile: TileConfig::new(16, 16), stream: 0, phase: 0 },
//!     CtaPlan { queries: vec![1], kv: KvSlice::new(vec![BlockId(2)], 16, 16),
//!               tile: TileConfig::new(16, 16), stream: 0, phase: 0 },
//! ]);
//!
//! // Numerically identical to unpacked attention...
//! let acts = QueryActivations::synthetic(head, 2, 1);
//! let store = KvStore::synthetic_for(&batch, 2);
//! let out = execute_numeric(&batch, &acts, &store, &plan)?;
//! assert!(out.max_abs_diff(&reference_output(&batch, &acts, &store)) < 1e-5);
//!
//! // ...and measurable on the simulated A100.
//! let report = simulate_plan(&batch, &plan, &GpuSpec::a100_sxm4_80gb()).unwrap();
//! assert!(report.total_ns > 0.0);
//! # Ok::<(), attn_kernel::PlanError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod backend;
mod batch;
pub mod fingerprint;
pub mod fxhash;
mod numeric;
mod plan;
mod scratch;
mod step_cache;
mod tile;
mod timing;
pub mod traffic;

pub use backend::AttentionBackend;
pub use batch::{DecodeBatch, KvStore, QueryActivations, FP16_BYTES};
pub use fingerprint::{batch_structure_fingerprint, batch_timing_fingerprint};
pub use numeric::{execute_numeric, execute_numeric_parallel, reference_output, AttnOutput};
pub use plan::{CtaPlan, KernelPlan, KvSlice, L2Affinity, PlanError};
pub use step_cache::{StepSimCache, StepSimReport, StepSimStats, DEFAULT_STEP_CACHE_CAPACITY};
pub use tile::{TileConfig, INTERMEDIATE_BYTES};
pub use timing::{simulate_plan, simulate_plan_trusted, TimingError, TimingReport};
pub use traffic::{analyze_traffic, theoretical_min_kv_bytes, CtaTraffic, TrafficReport};
