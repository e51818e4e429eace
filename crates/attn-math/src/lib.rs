//! # attn-math — exact decode-attention numerics
//!
//! The numerical substrate of the PAT reproduction. Everything the GPU kernels
//! compute — tiled attention with online softmax, per-CTA partial states, and
//! the merge stage (§7) — is implemented here exactly (f32), so that every
//! packing/splitting/merging plan can be validated against the naive
//! reference: *no execution strategy may change the attention output*.
//!
//! ## Example
//!
//! ```
//! use attn_math::{attend_segment, merge_partials, reference_attention, Matrix};
//!
//! let d = 4;
//! let keys = Matrix::from_rows(6, d, (0..24).map(|i| (i as f32).sin()).collect());
//! let values = Matrix::from_rows(6, d, (0..24).map(|i| (i as f32).cos()).collect());
//! let q = vec![0.3, -0.1, 0.8, 0.5];
//!
//! // Split the KV set into two segments (two CTAs), then merge.
//! let a = attend_segment(&q, &keys.slice_rows(0, 2), &values.slice_rows(0, 2), 0.5, 16);
//! let b = attend_segment(&q, &keys.slice_rows(2, 6), &values.slice_rows(2, 6), 0.5, 16);
//! let merged = merge_partials(d, [&a, &b]).finalize()?;
//!
//! let reference = reference_attention(&q, &keys, &values, 0.5);
//! for (m, r) in merged.iter().zip(&reference) {
//!     assert!((m - r).abs() < 1e-5);
//! }
//! # Ok::<(), attn_math::EmptyAttentionError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod gqa;
pub mod half;
mod partial;
mod reference;
mod tensor;

pub use gqa::HeadConfig;
pub use partial::{merge_partials, EmptyAttentionError, PartialAttn};
pub use reference::{attend_segment, reference_attention};
pub use tensor::{dot, Matrix};
