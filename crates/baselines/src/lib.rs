//! # baselines — the seven comparator attention implementations of §8.2
//!
//! Each baseline is an [`AttentionBackend`]
//! re-implemented as its packing + tiling + launch policy over the shared
//! simulator, with the paper's reported tile configurations and feature
//! restrictions (missing bars in Fig. 11 reproduce via `supports`):
//!
//! | Backend | Paradigm | Tiles | Notes |
//! |---|---|---|---|
//! | [`FlashAttention`] | query-centric | (64,128) | one query per CTA |
//! | [`FlashInfer`] | query-centric | (16,128) | dynamic CTA partitioning |
//! | [`FastTree`] | KV-centric | (64,32)+(16,32) | compute-oriented packing, serial |
//! | [`RelayAttention`] | KV-centric | (64,128) | single first-level prefix only |
//! | [`RelayAttentionPP`] | KV-centric | (64,128) | + L2 reuse for deep prefixes |
//! | [`Deft`] | KV-centric | (32,16) | naive tree packing + load balance |
//! | [`Cascade`] | KV-centric | (64,128)+(16,128) | fixed-level packing |
//!
//! ## Example
//!
//! ```
//! use attn_kernel::{AttentionBackend, DecodeBatch};
//! use attn_math::HeadConfig;
//! use baselines::{all_baselines, FlashAttention};
//! use kv_cache::{BlockId, BlockTable};
//! use sim_gpu::GpuSpec;
//!
//! let head = HeadConfig::new(32, 8, 128);
//! let tables = (0..4u32)
//!     .map(|q| BlockTable::new(vec![BlockId(0), BlockId(10 + q)], 32, 16))
//!     .collect();
//! let batch = DecodeBatch::new(head, tables, 2);
//! let spec = GpuSpec::a100_sxm4_80gb();
//! for backend in all_baselines() {
//!     if backend.supports(&batch) {
//!         backend.plan(&batch, &spec).validate(&batch).unwrap();
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod cascade;
mod common;
mod deft;
mod fasttree;
mod flash;
mod relay;

pub use cascade::Cascade;
pub use deft::Deft;
pub use fasttree::FastTree;
pub use flash::{FlashAttention, FlashInfer};
pub use relay::{RelayAttention, RelayAttentionPP};

use attn_kernel::AttentionBackend;

/// All seven baselines in the paper's Fig. 11 order.
pub fn all_baselines() -> Vec<Box<dyn AttentionBackend>> {
    vec![
        Box::new(FlashAttention::new()),
        Box::new(FlashInfer::new()),
        Box::new(FastTree::new()),
        Box::new(RelayAttention::new()),
        Box::new(RelayAttentionPP::new()),
        Box::new(Deft::new()),
        Box::new(Cascade::new()),
    ]
}
