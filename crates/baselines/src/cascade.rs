//! Cascade Inference (§8.2 baseline 7): FlashInfer's shared-prefix batch
//! decoding. Prefix levels are packed into multi-query CTAs and unique
//! suffixes into per-query CTAs, with fixed settings — a fixed pair of tiles,
//! no load balancing, and serial kernel launches. Packing is level-naive
//! (every tree node becomes CTAs regardless of the overhead/saving
//! trade-off).

use crate::common::supported_tile;
use attn_kernel::{AttentionBackend, CtaPlan, DecodeBatch, KernelPlan, KvSlice, TileConfig};
use pat_core::{enforce_row_limit, PackingPolicy, PatBackend, PatConfig};
use sim_gpu::GpuSpec;

/// The Cascade Inference baseline.
#[derive(Debug, Clone, Default)]
pub struct Cascade;

impl Cascade {
    /// Multi-query kernel tile for shared-prefix CTAs.
    pub const SHARED_TILE: TileConfig = TileConfig { m: 64, n: 128 };
    /// Decode-kernel tile for unique-suffix CTAs.
    pub const UNIQUE_TILE: TileConfig = TileConfig { m: 16, n: 128 };

    /// Creates the backend.
    pub fn new() -> Self {
        Cascade
    }
}

impl AttentionBackend for Cascade {
    fn name(&self) -> &str {
        "Cascade"
    }

    fn plan(&self, batch: &DecodeBatch, spec: &GpuSpec) -> KernelPlan {
        let g = batch.head().group_size();
        let (hd, db) = (batch.head().head_dim(), batch.dtype_bytes());
        let shared = supported_tile(spec, hd, db, Self::SHARED_TILE);
        let unique = supported_tile(spec, hd, db, Self::UNIQUE_TILE);
        let naive = PatBackend::with_config(PatConfig {
            packing: PackingPolicy::Naive,
            ..PatConfig::default()
        });
        let packs = naive.pack(batch);
        let packs = enforce_row_limit(packs, g, shared.m.max(g));
        // Cascade launches one kernel per prefix level, serially: the phase
        // is the level (depth bucket) of the pack.
        let mut starts: Vec<usize> = packs.iter().map(|p| p.start).collect();
        starts.sort_unstable();
        starts.dedup();
        let mut ctas: Vec<CtaPlan> = packs
            .into_iter()
            .map(|p| {
                let tile = if p.queries.len() > 1 { shared } else { unique };
                #[expect(clippy::expect_used, reason = "every pack start was collected above")]
                let phase = starts.binary_search(&p.start).expect("start collected");
                CtaPlan {
                    queries: p.queries,
                    kv: KvSlice::new(p.blocks, p.tokens, batch.block_size()),
                    tile,
                    stream: 0,
                    phase,
                }
            })
            .collect();
        // Serial cascade: level kernels launch in order on one stream.
        ctas.sort_by_key(|c| c.phase);
        KernelPlan::new(ctas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_kernel::{execute_numeric, reference_output, KvStore, QueryActivations};
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};

    fn batch(head: HeadConfig) -> DecodeBatch {
        let tables = (0..8u32)
            .map(|q| {
                let mut ids: Vec<BlockId> = (0..32).map(BlockId).collect();
                ids.extend((200 + (q / 4) * 50..200 + (q / 4) * 50 + 8).map(BlockId));
                ids.push(BlockId(1000 + q));
                let blocks = ids.len();
                BlockTable::new(ids, blocks * 16, 16)
            })
            .collect();
        DecodeBatch::new(head, tables, 2)
    }

    #[test]
    fn plan_is_numerically_exact() {
        let head = HeadConfig::new(8, 4, 16);
        let b = batch(head);
        let plan = Cascade::new().plan(&b, &GpuSpec::a100_sxm4_80gb());
        plan.validate(&b).unwrap();
        let acts = QueryActivations::synthetic(head, b.num_queries(), 11);
        let store = KvStore::synthetic_for(&b, 12);
        let got = execute_numeric(&b, &acts, &store, &plan).unwrap();
        assert!(got.max_abs_diff(&reference_output(&b, &acts, &store)) < 1e-4);
    }

    #[test]
    fn shared_ctas_precede_unique_ctas() {
        let b = batch(HeadConfig::new(32, 8, 128));
        let plan = Cascade::new().plan(&b, &GpuSpec::a100_sxm4_80gb());
        let first_unique = plan.ctas.iter().position(|c| c.queries.len() == 1).unwrap();
        assert!(plan.ctas[first_unique..]
            .iter()
            .all(|c| c.queries.len() == 1));
        assert_eq!(plan.num_streams(), 1);
    }

    #[test]
    fn supports_multi_level_prefixes() {
        let b = batch(HeadConfig::new(32, 8, 128));
        assert!(Cascade::new().supports(&b));
    }
}
