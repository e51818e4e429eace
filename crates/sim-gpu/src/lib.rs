//! # sim-gpu — a discrete-event GPU simulator for memory-bound kernels
//!
//! This crate is the hardware substrate of the PAT reproduction. It models the
//! parts of an NVIDIA data-center GPU that determine decode-attention latency
//! (§2.3 of the paper): the global-memory latency/bandwidth curve, SM
//! occupancy limits from shared memory and registers, the GigaThread CTA
//! dispatcher, CUDA streams, the L2 cache, and tensor-core compute floors.
//!
//! The simulator does **not** execute instructions; callers describe each CTA
//! by its memory traffic, sustainable load rate, and compute floor, and the
//! engine resolves contention over time. Exact attention numerics live in the
//! `attn-math` crate.
//!
//! ## Example
//!
//! ```
//! use sim_gpu::{CtaResources, CtaWork, Engine, GpuSpec, KernelSpec, StreamSpec};
//!
//! let spec = GpuSpec::a100_sxm4_80gb();
//! let engine = Engine::new(spec);
//! let ctas = (0..216)
//!     .map(|tag| CtaWork {
//!         tag,
//!         dram_bytes: 1.0e6,
//!         l2_bytes: 0.0,
//!         min_exec_ns: 2_000.0,
//!         rate_cap: 65.0,
//!         tail_ns: 300.0,
//!     })
//!     .collect();
//! let kernel = KernelSpec {
//!     label: "decode-attn(m=32,n=64)".into(),
//!     resources: CtaResources { smem_bytes: 64 * 1024, regs_per_thread: 96, threads: 128 },
//!     ctas,
//! };
//! let result = engine.run(vec![StreamSpec { kernels: vec![kernel] }])?;
//! println!("latency: {:.1} us, bw util {:.0}%",
//!          result.total_ns / 1000.0, result.bandwidth_utilization * 100.0);
//! # Ok::<(), sim_gpu::EngineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod chrome;
mod engine;
pub mod l2;
mod memory;
mod model;
mod occupancy;
mod spec;
mod trace;

pub use chrome::chrome_trace_json;
pub use engine::{CtaWork, Engine, EngineError, KernelSpec, RunResult, StreamSpec};
pub use l2::{L2Simulator, TrafficSplit};
pub use memory::TransferModel;
pub use model::{gpu_model_from_env, GpuModel, GPU_MODEL_ENV};
pub use occupancy::{CtaResources, Occupancy, OccupancyViolation};
pub use spec::{GpuSpec, MemoryLevel};
pub use trace::{CtaSpan, ExecutionTrace, KernelSpan};
