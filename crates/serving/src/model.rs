//! Model specifications of the evaluated LLMs (§8.2, §8.5).

use attn_math::HeadConfig;

/// Mixture-of-Experts configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoeSpec {
    /// Total routed experts per layer.
    pub num_experts: usize,
    /// Experts activated per token.
    pub active_experts: usize,
    /// Intermediate (FFN) dimension of one expert.
    pub expert_intermediate: usize,
}

/// A dense or MoE transformer decoder specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    /// Model name.
    pub name: &'static str,
    /// Decoder layers.
    pub num_layers: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Attention head configuration.
    pub head: HeadConfig,
    /// Dense FFN intermediate size (ignored for MoE layers).
    pub intermediate: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum context length in tokens.
    pub max_context: usize,
    /// MoE configuration, if any.
    pub moe: Option<MoeSpec>,
}

impl ModelSpec {
    /// Llama-3-8B (§8.2): 32 layers, GQA 32/8, 8K context.
    pub fn llama3_8b() -> Self {
        ModelSpec {
            name: "Llama-3-8B",
            num_layers: 32,
            hidden: 4096,
            head: HeadConfig::new(32, 8, 128),
            intermediate: 14336,
            vocab: 128_256,
            max_context: 8_192,
            moe: None,
        }
    }

    /// Qwen3-8B (§8.2): 36 layers, GQA 32/8, 32K context.
    pub fn qwen3_8b() -> Self {
        ModelSpec {
            name: "Qwen3-8B",
            num_layers: 36,
            hidden: 4096,
            head: HeadConfig::new(32, 8, 128),
            intermediate: 12_288,
            vocab: 151_936,
            max_context: 32_768,
            moe: None,
        }
    }

    /// Qwen2.5-72B-Instruct (§8.5, TP2×PP2 on four A100s).
    pub fn qwen25_72b() -> Self {
        ModelSpec {
            name: "Qwen2.5-72B-Instruct",
            num_layers: 80,
            hidden: 8192,
            head: HeadConfig::new(64, 8, 128),
            intermediate: 29_568,
            vocab: 152_064,
            max_context: 32_768,
            moe: None,
        }
    }

    /// Qwen3-30B-A3B (§8.5, MoE: 128 experts, 8 active).
    pub fn qwen3_30b_a3b() -> Self {
        ModelSpec {
            name: "Qwen3-30B-A3B",
            num_layers: 48,
            hidden: 2048,
            head: HeadConfig::new(32, 4, 128),
            intermediate: 6144,
            vocab: 151_936,
            max_context: 32_768,
            moe: Some(MoeSpec {
                num_experts: 128,
                active_experts: 8,
                expert_intermediate: 768,
            }),
        }
    }

    /// Attention projection parameters per layer (Q, K, V, O).
    pub fn attn_params_per_layer(&self) -> usize {
        let d = self.head.head_dim();
        let q = self.hidden * self.head.num_heads() * d;
        let kv = 2 * self.hidden * self.head.num_kv_heads() * d;
        let o = self.head.num_heads() * d * self.hidden;
        q + kv + o
    }

    /// FFN parameters *loaded from memory* per decode step per layer: for
    /// dense models the full gate/up/down matrices, for MoE only the experts
    /// a batch of `batch_tokens` tokens can activate.
    pub fn ffn_params_loaded(&self, batch_tokens: usize) -> usize {
        match self.moe {
            None => 3 * self.hidden * self.intermediate,
            Some(moe) => {
                let activated = (batch_tokens * moe.active_experts).min(moe.num_experts);
                3 * self.hidden * moe.expert_intermediate * activated
            }
        }
    }

    /// FFN FLOPs per token per layer (compute touches only active experts).
    pub fn ffn_flops_per_token(&self) -> f64 {
        match self.moe {
            None => 2.0 * (3 * self.hidden * self.intermediate) as f64,
            Some(moe) => {
                2.0 * (3 * self.hidden * moe.expert_intermediate * moe.active_experts) as f64
            }
        }
    }

    /// Total parameter count (approximate; embeddings counted once).
    pub fn total_params(&self) -> f64 {
        let per_layer = self.attn_params_per_layer() as f64
            + match self.moe {
                None => (3 * self.hidden * self.intermediate) as f64,
                Some(m) => (3 * self.hidden * m.expert_intermediate * m.num_experts) as f64,
            };
        per_layer * self.num_layers as f64 + (self.vocab * self.hidden) as f64
    }

    /// The attention heads one of `tp` tensor-parallel ranks runs: heads
    /// shard evenly across the ranks, and each rank keeps at least one.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero.
    pub fn shard_head(&self, tp: usize) -> HeadConfig {
        assert!(tp > 0, "tp must be positive");
        HeadConfig::new(
            (self.head.num_heads() / tp).max(1),
            (self.head.num_kv_heads() / tp).max(1),
            self.head.head_dim(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama3_is_roughly_8b_params() {
        let p = ModelSpec::llama3_8b().total_params();
        assert!(p > 6.5e9 && p < 9.0e9, "params {p:.2e}");
    }

    #[test]
    fn qwen30b_moe_is_roughly_30b_params() {
        let p = ModelSpec::qwen3_30b_a3b().total_params();
        assert!(p > 20e9 && p < 40e9, "params {p:.2e}");
    }

    #[test]
    fn moe_loads_fewer_ffn_bytes_at_small_batch() {
        let moe = ModelSpec::qwen3_30b_a3b();
        let small = moe.ffn_params_loaded(1);
        let large = moe.ffn_params_loaded(1024);
        assert!(small < large);
        // At huge batch, all experts load.
        assert_eq!(large, 3 * moe.hidden * 768 * 128);
    }

    #[test]
    fn dense_ffn_load_is_batch_independent() {
        let dense = ModelSpec::llama3_8b();
        assert_eq!(dense.ffn_params_loaded(1), dense.ffn_params_loaded(512));
    }

    #[test]
    fn context_limits_match_paper() {
        assert_eq!(ModelSpec::llama3_8b().max_context, 8192);
        assert_eq!(ModelSpec::qwen3_8b().max_context, 32768);
    }
}
