//! Latency breakdown across context length (Fig. 1).
//!
//! For a fixed decode batch, measures how the share of decode-step time spent
//! in attention grows with context length — the paper's motivation that
//! decode attention reaches ~53% of latency for 8B models on A100.

use crate::costs::CostModel;
use crate::model::ModelSpec;
use attn_kernel::{simulate_plan, AttentionBackend, DecodeBatch};
use baselines::FlashAttention;
use kv_cache::{BlockId, BlockTable, DEFAULT_BLOCK_SIZE};
use sim_core::cast::usize_to_u32;
use sim_gpu::GpuSpec;

/// One row of the Fig. 1 breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownRow {
    /// Context length (KV tokens per request).
    pub context_len: usize,
    /// Decode attention time per step, ms.
    pub attention_ms: f64,
    /// Linear (QKVO + FFN + head) time per step, ms.
    pub linear_ms: f64,
    /// Attention share of the decode step, `[0, 1]`.
    pub attention_fraction: f64,
}

/// Computes the decode-phase latency breakdown for `model` at `batch` and
/// the given context lengths, using the stock FlashAttention backend (the
/// breakdown motivates PAT, so it measures the status quo).
pub fn latency_breakdown(
    model: &ModelSpec,
    gpu: &GpuSpec,
    batch: usize,
    context_lens: &[usize],
) -> Vec<BreakdownRow> {
    let cost = CostModel::new(*model, gpu.clone());
    let backend = FlashAttention::new();
    context_lens
        .iter()
        .map(|&ctx| {
            let bs = DEFAULT_BLOCK_SIZE;
            let blocks = ctx.div_ceil(bs);
            let tables: Vec<BlockTable> = (0..batch)
                .map(|q| {
                    let ids: Vec<BlockId> = (0..usize_to_u32(blocks))
                        .map(|i| BlockId(usize_to_u32(q) * 100_000 + i))
                        .collect();
                    BlockTable::new(ids, ctx, bs)
                })
                .collect();
            let decode = DecodeBatch::new(model.head, tables, 2);
            let plan = backend.plan(&decode, gpu);
            #[expect(
                clippy::expect_used,
                reason = "a backend's own plan for the batch is valid"
            )]
            let report = simulate_plan(&decode, &plan, gpu).expect("valid plan");
            let attention_ns = report.total_ns * model.num_layers as f64;
            let linear_ns = cost.decode_linear_ns(batch, model.num_layers);
            BreakdownRow {
                context_len: ctx,
                attention_ms: attention_ns / 1e6,
                linear_ms: linear_ns / 1e6,
                attention_fraction: attention_ns / (attention_ns + linear_ns),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_share_grows_with_context() {
        let rows = latency_breakdown(
            &ModelSpec::llama3_8b(),
            &GpuSpec::a100_sxm4_80gb(),
            64,
            &[1024, 4096, 8192],
        );
        assert_eq!(rows.len(), 3);
        for w in rows.windows(2) {
            assert!(w[1].attention_fraction > w[0].attention_fraction);
        }
    }

    #[test]
    fn attention_dominates_at_long_context_like_fig1() {
        let rows = latency_breakdown(
            &ModelSpec::qwen3_8b(),
            &GpuSpec::a100_sxm4_80gb(),
            64,
            &[8192],
        );
        // Fig. 1: decode attention comes to dominate decode-step latency (the
        // paper's 53% figure is the share of *end-to-end* latency including
        // prefill; within a decode step the share is higher still).
        assert!(
            rows[0].attention_fraction > 0.5,
            "fraction {}",
            rows[0].attention_fraction
        );
    }
}
