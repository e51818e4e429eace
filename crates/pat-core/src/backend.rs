//! The PAT attention backend (§4): pack → forward → merge planning.

use crate::packer::{enforce_row_limit, pack_forest, Pack};
use crate::policy::{tile_policy_from_env, TileContext, TilePolicyKind};
use crate::selector::{TileError, TileSelector};
use crate::split::split_long_kv;
use crate::tiles::TileSolver;
use attn_kernel::{
    AttentionBackend, CtaPlan, DecodeBatch, KernelPlan, KvSlice, L2Affinity, TileConfig,
};
use kv_cache::{PrefixForest, PrefixNode};
use sim_gpu::GpuSpec;

/// Packing policy of the pack stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackingPolicy {
    /// PAT's memory-centric profit model (§5.1).
    #[default]
    MemoryProfit,
    /// FastTree-style compute-oriented cost model (PAT-compute, §8.6):
    /// scheme decisions minimize padded tensor-core work, ignoring
    /// intermediate memory traffic.
    ComputeCost,
    /// Every tree node becomes a CTA regardless of profit (PAT-naive, §8.6).
    Naive,
}

/// Configuration of the PAT backend; the defaults are full PAT, and the
/// ablations of §8.6 disable one feature each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatConfig {
    /// Packing policy (PAT-compute/PAT-naive change this).
    pub packing: PackingPolicy,
    /// Select per-CTA tiles from the multi-tile suite; when false, every CTA
    /// uses [`PatConfig::fixed_tile`] (PAT-fixed).
    pub multi_tile: bool,
    /// Fixed tile used when `multi_tile` is off (FlashAttention's (64, 128)).
    pub fixed_tile: TileConfig,
    /// One CUDA stream per active tile configuration; when false, all
    /// kernels serialize on stream 0 (PAT-serial).
    pub multi_stream: bool,
    /// Split CTAs whose KV exceeds the batch mean (§6).
    pub long_kv_split: bool,
    /// How per-CTA tiles are chosen when `multi_tile` is on: the §5.2
    /// heuristic decision tree, or the committed offline-autotuned cache
    /// (PAT-autotuned).
    pub tile_policy: TilePolicyKind,
}

impl Default for PatConfig {
    fn default() -> Self {
        PatConfig {
            packing: PackingPolicy::MemoryProfit,
            multi_tile: true,
            fixed_tile: TileConfig::new(64, 128),
            multi_stream: true,
            long_kv_split: true,
            tile_policy: TilePolicyKind::Heuristic,
        }
    }
}

/// The PAT backend.
///
/// # Examples
///
/// ```
/// use attn_kernel::{simulate_plan, AttentionBackend, DecodeBatch};
/// use attn_math::HeadConfig;
/// use kv_cache::{BlockId, BlockTable};
/// use pat_core::PatBackend;
/// use sim_gpu::GpuSpec;
///
/// let head = HeadConfig::new(32, 8, 128);
/// let tables = vec![
///     BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
///     BlockTable::new(vec![BlockId(0), BlockId(2)], 32, 16),
/// ];
/// let batch = DecodeBatch::new(head, tables, 2);
/// let spec = GpuSpec::a100_sxm4_80gb();
/// let pat = PatBackend::new();
/// let plan = pat.plan(&batch, &spec);
/// let report = simulate_plan(&batch, &plan, &spec).unwrap();
/// assert!(report.total_ns > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PatBackend {
    config: PatConfig,
}

impl PatBackend {
    /// Full PAT with default configuration.
    pub fn new() -> Self {
        PatBackend::default()
    }

    /// PAT with an explicit configuration (used by the ablations).
    pub fn with_config(config: PatConfig) -> Self {
        PatBackend { config }
    }

    /// Full PAT with the tile policy taken from `PAT_TILE_POLICY`
    /// (defaulting to the heuristic when unset).
    pub fn from_env() -> Self {
        PatBackend::with_config(PatConfig {
            tile_policy: tile_policy_from_env(),
            ..PatConfig::default()
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &PatConfig {
        &self.config
    }

    /// The pack stage only: batch → packs under the configured policy
    /// (before row-limit enforcement, splitting, and tile selection).
    pub fn pack(&self, batch: &DecodeBatch) -> Vec<Pack> {
        self.pack_from_forest(&batch.forest(), batch.head().group_size())
    }

    /// The pack stage over an already-built forest. [`crate::LazyPat`]
    /// builds the forest once per cold plan and shares it between packing
    /// and its scheduling-cost estimate.
    pub fn pack_from_forest(&self, forest: &PrefixForest, group_size: usize) -> Vec<Pack> {
        match self.config.packing {
            PackingPolicy::MemoryProfit => pack_forest(forest),
            PackingPolicy::Naive => naive_pack(forest),
            PackingPolicy::ComputeCost => compute_pack(forest, group_size),
        }
    }

    /// The forward-stage planning: packs → CTAs with tiles and streams.
    /// Used directly by the lazy-update scheduler with cached packs.
    ///
    /// # Panics
    ///
    /// Panics when tile selection fails (no feasible tile for the
    /// device/geometry); [`PatBackend::try_finish_plan`] surfaces the same
    /// condition as a typed [`TileError`] instead.
    pub fn finish_plan(&self, batch: &DecodeBatch, packs: Vec<Pack>, spec: &GpuSpec) -> KernelPlan {
        match self.try_finish_plan(batch, packs, spec) {
            Ok(plan) => plan,
            Err(e) => panic!("PAT planning failed on {}: {e}", spec.name),
        }
    }

    /// Fallible forward-stage planning: packs → CTAs with tiles and
    /// streams, surfacing no-feasible-tile conditions as [`TileError`].
    pub fn try_finish_plan(
        &self,
        batch: &DecodeBatch,
        packs: Vec<Pack>,
        spec: &GpuSpec,
    ) -> Result<KernelPlan, TileError> {
        let head = batch.head();
        let g = head.group_size();
        let selector = TileSelector::new(
            TileSolver::new(spec.clone(), head.head_dim(), batch.dtype_bytes()).feasible_tiles(),
        )?;
        let policy = self.config.tile_policy.policy();
        let ctx = TileContext {
            selector: &selector,
            spec,
            head_dim: head.head_dim(),
            dtype_bytes: batch.dtype_bytes(),
        };
        let max_m = if self.config.multi_tile {
            selector.max_m()
        } else {
            self.config.fixed_tile.m
        };
        let mut packs = enforce_row_limit(packs, g, max_m);
        if self.config.long_kv_split {
            // Splitting exists to fill idle SMs (§6); once the device is
            // oversubscribed it only adds intermediate traffic, so it is
            // applied when the batch cannot form ~2 full waves of CTAs.
            let target_packs = (4 * spec.num_sms) / head.num_kv_heads().max(1);
            if packs.len() < target_packs.max(1) {
                packs = split_long_kv(packs, batch.block_size());
            }
        }

        let mut ctas: Vec<CtaPlan> = Vec::with_capacity(packs.len());
        for pack in packs {
            let rows = pack.queries.len() * g;
            let tile = if self.config.multi_tile {
                policy.choose(&ctx, rows, pack.tokens)?
            } else {
                self.config.fixed_tile
            };
            ctas.push(CtaPlan {
                queries: pack.queries,
                kv: KvSlice::new(pack.blocks, pack.tokens, batch.block_size()),
                tile,
                stream: 0,
                phase: 0,
            });
        }

        if self.config.multi_stream {
            // Longest-KV-first dispatch across the whole batch: the GigaThread
            // engine then places the heaviest CTAs before short ones fill the
            // SMs (LPT scheduling), shrinking the tail bubble. Streams keep
            // one kernel per tile, so intra-stream order is free to choose.
            ctas.sort_by(|a, b| {
                (std::cmp::Reverse(a.kv.tokens), a.tile)
                    .cmp(&(std::cmp::Reverse(b.kv.tokens), b.tile))
            });
        } else {
            // Serial execution groups CTAs by tile so each configuration is
            // one kernel launch, longest KV first within a launch.
            ctas.sort_by(|a, b| {
                (a.tile, std::cmp::Reverse(a.kv.tokens))
                    .cmp(&(b.tile, std::cmp::Reverse(b.kv.tokens)))
            });
        }
        if self.config.multi_stream {
            // One stream per distinct active tile configuration (§6).
            let mut seen: Vec<TileConfig> = Vec::new();
            for cta in &mut ctas {
                let stream = match seen.iter().position(|&t| t == cta.tile) {
                    Some(i) => i,
                    None => {
                        seen.push(cta.tile);
                        seen.len() - 1
                    }
                };
                cta.stream = stream;
            }
        }
        // Exposed scheduling cost is zero: the lazy-update mechanism overlaps
        // packing with pre-attention work (§5.1, validated in Fig. 16).
        let mut plan = KernelPlan::new(ctas);
        // PAT dispatches row-chunks of the same KV run back to back, so any
        // residual re-accesses (row-limit chunking, merged parent blocks)
        // enjoy L2 temporal locality.
        plan.l2_affinity = L2Affinity::Grouped;
        Ok(plan)
    }

    /// CPU-side cost of one pack-scheduler invocation in ns — the Fig. 16
    /// quantity. Linear in tree nodes and block-table size (Algorithm 1's
    /// `O(|V|+|E|)` plus block-table conversion).
    pub fn scheduling_cost_ns(&self, batch: &DecodeBatch) -> f64 {
        let forest = batch.forest();
        let blocks: usize = batch.tables().iter().map(|t| t.blocks().len()).sum();
        scheduling_cost_from_counts(forest.num_nodes(), blocks)
    }
}

/// [`PatBackend::scheduling_cost_ns`] from precomputed forest statistics.
/// The lazy scheduler evaluates this against the forest it just planned
/// from, so cost accounting needs no second per-step forest build; the
/// formula (and hence the reported f64) is bit-identical to the
/// batch-walking form.
pub(crate) fn scheduling_cost_from_counts(nodes: usize, blocks: usize) -> f64 {
    1_000.0 + 80.0 * nodes as f64 + 2.0 * blocks as f64
}

impl AttentionBackend for PatBackend {
    fn name(&self) -> &str {
        match (
            self.config.packing,
            self.config.multi_tile,
            self.config.multi_stream,
            self.config.tile_policy,
        ) {
            (PackingPolicy::MemoryProfit, true, true, TilePolicyKind::Heuristic) => "PAT",
            (PackingPolicy::MemoryProfit, true, true, TilePolicyKind::Autotuned) => "PAT-autotuned",
            (PackingPolicy::ComputeCost, _, _, _) => "PAT-compute",
            (PackingPolicy::Naive, _, _, _) => "PAT-naive",
            (_, false, _, _) => "PAT-fixed",
            (_, _, false, _) => "PAT-serial",
        }
    }

    fn plan(&self, batch: &DecodeBatch, spec: &GpuSpec) -> KernelPlan {
        self.finish_plan(batch, self.pack(batch), spec)
    }
}

/// PAT-naive packing: one CTA per non-empty tree node.
fn naive_pack(forest: &PrefixForest) -> Vec<Pack> {
    fn walk(node: &PrefixNode, depth: usize, packs: &mut Vec<Pack>) {
        if node.token_len > 0 {
            packs.push(Pack {
                queries: node.queries.clone(),
                blocks: node.blocks.clone(),
                tokens: node.token_len,
                start: depth,
            });
        }
        for child in &node.children {
            walk(child, depth + node.blocks.len(), packs);
        }
    }
    let mut packs = Vec::new();
    for root in forest.roots() {
        walk(root, 0, &mut packs);
    }
    packs
}

/// PAT-compute packing: FastTree-style scheme decisions that minimize padded
/// tensor-core work. Merging a child into its parent's blocks shrinks the
/// parent CTA's padding but duplicates the parent's KV compute; the policy
/// merges whenever padded compute decreases, ignoring intermediate traffic.
fn compute_pack(forest: &PrefixForest, group_size: usize) -> Vec<Pack> {
    fn padded_rows(queries: usize, g: usize) -> usize {
        (queries * g).next_power_of_two().max(16)
    }
    fn walk(
        node: &PrefixNode,
        inherited: &[kv_cache::BlockId],
        inherited_tokens: usize,
        node_depth: usize,
        g: usize,
        packs: &mut Vec<Pack>,
    ) {
        let mut blocks: Vec<kv_cache::BlockId> = inherited.to_vec();
        blocks.extend_from_slice(&node.blocks);
        let tokens = inherited_tokens + node.token_len;
        let start = node_depth - inherited.len();
        let child_depth = node_depth + node.blocks.len();
        if node.is_leaf() {
            if tokens > 0 {
                packs.push(Pack {
                    queries: node.queries.clone(),
                    blocks,
                    tokens,
                    start,
                });
            }
            return;
        }
        let mut remaining: Vec<usize> = node.queries.clone();
        for child in &node.children {
            let s_u = remaining.len();
            let s_i = child.num_queries();
            // Compute-oriented comparison: padded work of keeping the child's
            // queries in the parent CTA vs duplicating the parent KV in a
            // merged child CTA.
            let keep = padded_rows(s_u, g) * tokens;
            let merge = padded_rows(s_u - s_i, g) * tokens + padded_rows(s_i, g) * tokens;
            if merge < keep && s_u > s_i {
                walk(child, &blocks, tokens, child_depth, g, packs);
                remaining.retain(|q| !child.queries.contains(q));
            } else {
                walk(child, &[], 0, child_depth, g, packs);
            }
        }
        if !remaining.is_empty() && tokens > 0 {
            packs.push(Pack {
                queries: remaining,
                blocks,
                tokens,
                start,
            });
        }
    }
    let mut packs = Vec::new();
    for root in forest.roots() {
        walk(root, &[], 0, 0, group_size, &mut packs);
    }
    packs
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_kernel::{execute_numeric, reference_output, KvStore, QueryActivations};
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};

    fn table(ids: &[u32], tokens: usize) -> BlockTable {
        BlockTable::new(ids.iter().map(|&i| BlockId(i)).collect(), tokens, 16)
    }

    /// A three-level batch: 8 queries share 32 blocks; halves share 8 more;
    /// private tails of varying length.
    fn multi_level_batch(head: HeadConfig) -> DecodeBatch {
        let tables: Vec<BlockTable> = (0..8u32)
            .map(|q| {
                let mut ids: Vec<u32> = (0..32).collect();
                let half = q / 4;
                ids.extend(100 + half * 50..100 + half * 50 + 8);
                ids.extend(1000 + q * 32..1000 + q * 32 + 2 + q);
                let blocks = ids.len();
                table(&ids, blocks * 16 - 7)
            })
            .collect();
        DecodeBatch::new(head, tables, 2)
    }

    #[test]
    fn pat_plan_validates_and_matches_reference_numerically() {
        let head = HeadConfig::new(8, 4, 16);
        let batch = multi_level_batch(head);
        let spec = GpuSpec::a100_sxm4_80gb();
        let plan = PatBackend::new().plan(&batch, &spec);
        plan.validate(&batch).unwrap();
        let acts = QueryActivations::synthetic(head, batch.num_queries(), 3);
        let store = KvStore::synthetic_for(&batch, 4);
        let got = execute_numeric(&batch, &acts, &store, &plan).unwrap();
        let want = reference_output(&batch, &acts, &store);
        assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn all_ablation_variants_produce_valid_plans() {
        let head = HeadConfig::new(8, 4, 16);
        let batch = multi_level_batch(head);
        let spec = GpuSpec::a100_sxm4_80gb();
        let acts = QueryActivations::synthetic(head, batch.num_queries(), 3);
        let store = KvStore::synthetic_for(&batch, 4);
        let want = reference_output(&batch, &acts, &store);
        for config in [
            PatConfig {
                packing: PackingPolicy::ComputeCost,
                ..PatConfig::default()
            },
            PatConfig {
                packing: PackingPolicy::Naive,
                ..PatConfig::default()
            },
            PatConfig {
                multi_tile: false,
                ..PatConfig::default()
            },
            PatConfig {
                multi_stream: false,
                ..PatConfig::default()
            },
            PatConfig {
                long_kv_split: false,
                ..PatConfig::default()
            },
        ] {
            let backend = PatBackend::with_config(config);
            let plan = backend.plan(&batch, &spec);
            plan.validate(&batch)
                .unwrap_or_else(|e| panic!("{config:?}: {e}"));
            let got = execute_numeric(&batch, &acts, &store, &plan).unwrap();
            assert!(got.max_abs_diff(&want) < 1e-4, "{config:?}");
        }
    }

    #[test]
    fn multi_stream_assigns_one_stream_per_tile() {
        let head = HeadConfig::new(32, 8, 128);
        let batch = multi_level_batch(head);
        let spec = GpuSpec::a100_sxm4_80gb();
        let plan = PatBackend::new().plan(&batch, &spec);
        // Streams and distinct tiles must correspond 1:1.
        let mut tiles: Vec<TileConfig> = plan.ctas.iter().map(|c| c.tile).collect();
        tiles.sort();
        tiles.dedup();
        assert_eq!(plan.num_streams(), tiles.len());
        for cta in &plan.ctas {
            for other in &plan.ctas {
                if cta.stream == other.stream {
                    assert_eq!(cta.tile, other.tile);
                }
            }
        }
    }

    #[test]
    fn serial_variant_uses_one_stream() {
        let head = HeadConfig::new(32, 8, 128);
        let batch = multi_level_batch(head);
        let spec = GpuSpec::a100_sxm4_80gb();
        let plan = PatBackend::with_config(PatConfig {
            multi_stream: false,
            ..PatConfig::default()
        })
        .plan(&batch, &spec);
        assert_eq!(plan.num_streams(), 1);
    }

    #[test]
    fn naive_packs_every_shared_node() {
        let head = HeadConfig::new(8, 4, 16);
        let batch = multi_level_batch(head);
        let naive = PatBackend::with_config(PatConfig {
            packing: PackingPolicy::Naive,
            ..PatConfig::default()
        });
        let packs = naive.pack(&batch);
        // 1 root + 2 half-nodes + 8 leaves.
        assert_eq!(packs.len(), 11);
    }

    #[test]
    fn scheduling_cost_grows_with_batch() {
        let head = HeadConfig::new(8, 4, 16);
        let small = DecodeBatch::new(head, vec![table(&[0], 16), table(&[1], 16)], 2);
        let large = multi_level_batch(head);
        let pat = PatBackend::new();
        assert!(pat.scheduling_cost_ns(&large) > pat.scheduling_cost_ns(&small));
    }

    #[test]
    fn backend_names_reflect_configuration() {
        assert_eq!(PatBackend::new().name(), "PAT");
        let fixed = PatBackend::with_config(PatConfig {
            multi_tile: false,
            ..Default::default()
        });
        assert_eq!(fixed.name(), "PAT-fixed");
        let serial = PatBackend::with_config(PatConfig {
            multi_stream: false,
            ..Default::default()
        });
        assert_eq!(serial.name(), "PAT-serial");
    }
}
