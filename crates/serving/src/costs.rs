//! Roofline cost model for the non-attention parts of a decode step.
//!
//! GEMMs (QKVO projections, FFN, LM head) are modelled as
//! `max(weight-load time, compute time)` — memory-bound at decode batch
//! sizes, compute-bound for prefill — plus fixed per-step overheads
//! (sampling, kernel launches, python/scheduler time). Attention itself is
//! *not* estimated here; it comes from the plan simulator.

use crate::model::ModelSpec;
use sim_gpu::GpuSpec;

/// Achievable fraction of peak tensor throughput for dense GEMMs.
const GEMM_EFFICIENCY: f64 = 0.6;
/// Fixed per-decode-step overhead (sampling, launches, bookkeeping), ns.
const STEP_OVERHEAD_NS: f64 = 200_000.0;
/// Fixed per-prefill overhead, ns.
const PREFILL_OVERHEAD_NS: f64 = 300_000.0;
/// Metadata preparation before attention per step, ns (base + per request).
const METADATA_BASE_NS: f64 = 20_000.0;
const METADATA_PER_REQ_NS: f64 = 300.0;

/// Cost model for one (model, GPU) pair.
#[derive(Debug, Clone)]
pub struct CostModel {
    model: ModelSpec,
    gpu: GpuSpec,
    /// Tensor-parallel ways sharding the weights (1 = none).
    tp: usize,
}

impl CostModel {
    /// Creates a cost model (no parallelism).
    pub fn new(model: ModelSpec, gpu: GpuSpec) -> Self {
        CostModel { model, gpu, tp: 1 }
    }

    /// Creates a cost model with `tp`-way tensor parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero.
    pub fn with_tp(model: ModelSpec, gpu: GpuSpec, tp: usize) -> Self {
        assert!(tp > 0, "tp must be positive");
        CostModel { model, gpu, tp }
    }

    /// The model.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// GEMM time: load `params` fp16 weights once and do `2·tokens·params`
    /// FLOPs, overlapped.
    fn gemm_ns(&self, params: f64, tokens: f64) -> f64 {
        let bytes = params * 2.0 / self.tp as f64;
        let load = bytes / self.gpu.global_bandwidth;
        let flops = 2.0 * tokens * params / self.tp as f64;
        let compute = flops / (self.gpu.tensor_flops() * GEMM_EFFICIENCY);
        load.max(compute)
    }

    /// Per-layer allreduce cost under tensor parallelism (2 per layer:
    /// after attention and after FFN), ns.
    fn allreduce_ns(&self, tokens: f64) -> f64 {
        if self.tp == 1 {
            return 0.0;
        }
        // NVLink ~300 GB/s effective per direction, 8 us latency per op.
        let bytes = tokens * self.model.hidden as f64 * 2.0;
        2.0 * (8_000.0 + bytes / 300.0)
    }

    /// Non-attention time of one decode step with `batch` requests, for the
    /// `layers` layers hosted on this pipeline stage.
    pub fn decode_linear_ns(&self, batch: usize, layers: usize) -> f64 {
        let tokens = batch as f64;
        let attn_proj = self.gemm_ns(self.model.attn_params_per_layer() as f64, tokens);
        let ffn = self.gemm_ns(self.model.ffn_params_loaded(batch) as f64, tokens);
        let per_layer = attn_proj + ffn + self.allreduce_ns(tokens);
        let lm_head = self.gemm_ns((self.model.vocab * self.model.hidden) as f64, tokens);
        per_layer * layers as f64 + lm_head + STEP_OVERHEAD_NS
    }

    /// Prefill time for `tokens` prompt tokens (full forward pass,
    /// compute-bound plus quadratic attention).
    pub fn prefill_ns(&self, tokens: usize) -> f64 {
        let t = tokens as f64;
        let params = self.model.total_params();
        let gemm_flops = 2.0 * t * params / self.tp as f64;
        let attn_flops = 4.0
            * t
            * t
            * (self.model.head.num_heads() * self.model.head.head_dim()) as f64
            * self.model.num_layers as f64
            / self.tp as f64;
        let compute = (gemm_flops + attn_flops) / (self.gpu.tensor_flops() * GEMM_EFFICIENCY);
        let weights = params * 2.0 / self.tp as f64 / self.gpu.global_bandwidth;
        compute.max(weights)
            + PREFILL_OVERHEAD_NS
            + self.allreduce_ns(t) * self.model.num_layers as f64
    }

    /// Non-attention time of one decode step with `batch` requests over `pp`
    /// pipeline stages: every stage's linear layers, plus the activation
    /// hand-offs across the `pp − 1` stage boundaries.
    pub fn decode_non_attention_ns(&self, batch: usize, pp: usize) -> f64 {
        let layers_per_stage = self.model.num_layers.div_ceil(pp);
        let linear_ns = self.decode_linear_ns(batch, layers_per_stage) * pp as f64;
        let handoff_ns =
            (pp - 1) as f64 * (8_000.0 + batch as f64 * self.model.hidden as f64 * 2.0 / 300.0);
        linear_ns + handoff_ns
    }

    /// Pre-attention task time per decode step (metadata preparation plus
    /// the first layer's QKV projection) — the window the pack scheduler
    /// must hide inside (§8.7, Fig. 16).
    pub fn pre_attention_ns(&self, batch: usize) -> f64 {
        let qkv_params = self.model.hidden
            * (self.model.head.num_heads() + 2 * self.model.head.num_kv_heads())
            * self.model.head.head_dim();
        METADATA_BASE_NS
            + METADATA_PER_REQ_NS * batch as f64
            + self.gemm_ns(qkv_params as f64, batch as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama_a100() -> CostModel {
        CostModel::new(ModelSpec::llama3_8b(), GpuSpec::a100_sxm4_80gb())
    }

    #[test]
    fn decode_step_is_weight_bound_at_small_batch() {
        let m = llama_a100();
        // Weight-bound: batch 1 and batch 8 cost almost the same.
        let t1 = m.decode_linear_ns(1, 32);
        let t8 = m.decode_linear_ns(8, 32);
        assert!((t8 - t1) / t1 < 0.05);
        // ~16 GB of weights at 2 TB/s is ~8 ms.
        assert!(t1 > 5e6 && t1 < 15e6, "{t1}");
    }

    #[test]
    fn prefill_scales_with_tokens() {
        let m = llama_a100();
        let short = m.prefill_ns(256);
        let long = m.prefill_ns(8192);
        assert!(long > 10.0 * short);
    }

    #[test]
    fn tp_cuts_linear_time_but_adds_allreduce() {
        let m1 = CostModel::new(ModelSpec::qwen25_72b(), GpuSpec::a100_sxm4_80gb());
        let m2 = CostModel::with_tp(ModelSpec::qwen25_72b(), GpuSpec::a100_sxm4_80gb(), 2);
        let t1 = m1.decode_linear_ns(32, 40);
        let t2 = m2.decode_linear_ns(32, 40);
        assert!(t2 < t1);
        assert!(t2 > t1 / 2.0, "allreduce keeps TP2 above half");
    }

    #[test]
    fn moe_decode_is_cheaper_than_dense_equivalent_at_small_batch() {
        let moe = CostModel::new(ModelSpec::qwen3_30b_a3b(), GpuSpec::a100_sxm4_80gb());
        // At batch 4, only ~32 of 128 experts load.
        let small = moe.decode_linear_ns(4, 48);
        let large = moe.decode_linear_ns(512, 48);
        assert!(small < large);
    }

    #[test]
    fn pre_attention_window_is_tens_of_microseconds() {
        let m = llama_a100();
        let w = m.pre_attention_ns(64);
        assert!(w > 30_000.0 && w < 150_000.0, "{w}");
    }
}
