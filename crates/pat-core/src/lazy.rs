//! The lazy-update mechanism (§5.1).
//!
//! The pack scheduler is linear, but invoking it per transformer layer per
//! decode step would still cost. PAT instead (1) reuses a packing across
//! continuous-batching iterations until the block-table *structure* changes
//! (arrivals, departures, or new block assignments — growing the final
//! partial block does not count), and (2) runs the scheduler asynchronously,
//! overlapped with pre-attention work, so its latency is not exposed
//! (validated in Fig. 16 / §8.7).

use crate::backend::{scheduling_cost_from_counts, PatBackend};
use crate::packer::Pack;
use crate::selector::TileError;
use attn_kernel::{DecodeBatch, KernelPlan};
use kv_cache::PrefixForest;
use sim_gpu::GpuSpec;

/// How the most recent [`LazyPat`] plan was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReuse {
    /// Cached packs replayed verbatim (structure-fingerprint hit).
    Frozen,
    /// Never produced. It named an incremental forest-patching tier that
    /// measured no end-to-end gain and was removed; every structure miss
    /// now plans [`PlanReuse::Cold`]. The variant stays so that exhaustive
    /// matches over the enum keep compiling.
    DeltaPatched,
    /// Full forest rebuild and re-pack.
    Cold,
}

/// Cache statistics of the lazy scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// Plans served from cache with frozen pack decisions (structure
    /// fingerprint hit).
    pub hits: u64,
    /// Full scheduler invocations (forest rebuild + re-pack).
    pub misses: u64,
}

impl LazyStats {
    /// Fraction of decode steps that reused a cached packing verbatim.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A PAT scheduler with plan caching across decode steps.
///
/// # Examples
///
/// ```
/// use attn_kernel::DecodeBatch;
/// use attn_math::HeadConfig;
/// use kv_cache::{BlockId, BlockTable};
/// use pat_core::LazyPat;
/// use sim_gpu::GpuSpec;
///
/// let head = HeadConfig::new(32, 8, 128);
/// let spec = GpuSpec::a100_sxm4_80gb();
/// let mut lazy = LazyPat::new();
/// let step = |tokens| DecodeBatch::new(head, vec![
///     BlockTable::new(vec![BlockId(0), BlockId(1)], tokens, 16),
///     BlockTable::new(vec![BlockId(0), BlockId(2)], tokens, 16),
/// ], 2);
/// lazy.plan(&step(20), &spec); // miss: full packing
/// lazy.plan(&step(21), &spec); // hit: same block structure, +1 token
/// assert_eq!(lazy.stats().misses, 1);
/// assert_eq!(lazy.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct LazyPat {
    backend: PatBackend,
    cached: Option<(u64, Vec<Pack>)>,
    last_reuse: Option<PlanReuse>,
    last_cost_ns: Option<f64>,
    stats: LazyStats,
}

impl Default for LazyPat {
    fn default() -> Self {
        LazyPat::new()
    }
}

impl LazyPat {
    /// Creates a lazy scheduler around full PAT.
    pub fn new() -> Self {
        LazyPat::with_backend(PatBackend::default())
    }

    /// Creates a lazy scheduler around a configured backend.
    pub fn with_backend(backend: PatBackend) -> Self {
        LazyPat {
            backend,
            cached: None,
            last_reuse: None,
            last_cost_ns: None,
            stats: LazyStats::default(),
        }
    }

    /// Creates a lazy scheduler around [`PatBackend::from_env`] (tile
    /// policy from `PAT_TILE_POLICY`).
    pub fn from_env() -> Self {
        LazyPat::with_backend(PatBackend::from_env())
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &PatBackend {
        &self.backend
    }

    /// Cache statistics.
    pub fn stats(&self) -> LazyStats {
        self.stats
    }

    /// How the most recent [`LazyPat::try_plan`] produced its packing, or
    /// `None` before the first plan.
    pub fn last_plan_reuse(&self) -> Option<PlanReuse> {
        self.last_reuse
    }

    /// CPU-side pack-scheduler cost for `batch`, reusing the forest node
    /// count recorded by the most recent plan when the batch structure is
    /// unchanged (the serving engine samples this immediately after
    /// planning the same step). Bit-identical to
    /// [`PatBackend::scheduling_cost_ns`], which rebuilds the forest to
    /// count its nodes.
    pub fn scheduling_cost_ns(&self, batch: &DecodeBatch) -> f64 {
        match (self.last_cost_ns, &self.cached) {
            (Some(cost), Some((key, _))) if *key == structure_fingerprint(batch) => cost,
            _ => self.backend.scheduling_cost_ns(batch),
        }
    }

    /// Plans a decode step, reusing the cached packing when the block-table
    /// structure is unchanged. Token counts are refreshed either way, so the
    /// plan is always exact for the current step.
    ///
    /// # Panics
    ///
    /// Panics when tile selection fails; [`LazyPat::try_plan`] surfaces the
    /// same condition as a typed [`TileError`] instead.
    pub fn plan(&mut self, batch: &DecodeBatch, spec: &GpuSpec) -> KernelPlan {
        match self.try_plan(batch, spec) {
            Ok(plan) => plan,
            Err(e) => panic!("PAT planning failed on {}: {e}", spec.name),
        }
    }

    /// Fallible [`LazyPat::plan`]: surfaces no-feasible-tile conditions as
    /// [`TileError`] so serving replicas can record them instead of
    /// crashing. Cache statistics are updated either way (the pack stage
    /// itself cannot fail — only tile selection can).
    pub fn try_plan(
        &mut self,
        batch: &DecodeBatch,
        spec: &GpuSpec,
    ) -> Result<KernelPlan, TileError> {
        let key = structure_fingerprint(batch);
        let packs = match &self.cached {
            Some((cached_key, packs)) if *cached_key == key => {
                self.stats.hits += 1;
                self.last_reuse = Some(PlanReuse::Frozen);
                let mut packs = packs.clone();
                for p in &mut packs {
                    p.refresh_tokens(batch.tables());
                }
                packs
            }
            _ => {
                self.stats.misses += 1;
                self.last_reuse = Some(PlanReuse::Cold);
                let forest = PrefixForest::from_block_tables(batch.tables());
                let blocks: usize = batch.tables().iter().map(|t| t.blocks().len()).sum();
                self.last_cost_ns = Some(scheduling_cost_from_counts(forest.num_nodes(), blocks));
                let packs = self
                    .backend
                    .pack_from_forest(&forest, batch.head().group_size());
                self.cached = Some((key, packs.clone()));
                packs
            }
        };
        self.backend.try_finish_plan(batch, packs, spec)
    }

    /// Drops the cached packing (e.g. on engine reconfiguration).
    pub fn invalidate(&mut self) {
        self.cached = None;
        self.last_cost_ns = None;
    }
}

/// Fingerprint of the batch's block-table *structure*: block ids and query
/// order, but not token counts (the final partial block grows every step
/// without changing the packing). Delegates to the shared
/// [`attn_kernel::batch_structure_fingerprint`] so the lazy-update cache
/// and the serving layer's step-simulation cache agree on what "identical
/// structure" means.
pub fn structure_fingerprint(batch: &DecodeBatch) -> u64 {
    attn_kernel::batch_structure_fingerprint(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};

    fn batch(rows: &[(&[u32], usize)]) -> DecodeBatch {
        let tables = rows
            .iter()
            .map(|(ids, tokens)| {
                BlockTable::new(ids.iter().map(|&i| BlockId(i)).collect(), *tokens, 16)
            })
            .collect();
        DecodeBatch::new(HeadConfig::new(32, 8, 128), tables, 2)
    }

    #[test]
    fn token_growth_hits_the_cache_and_stays_exact() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        let p1 = lazy.plan(&batch(&[(&[0, 1], 20), (&[0, 2], 24)]), &spec);
        let b2 = batch(&[(&[0, 1], 21), (&[0, 2], 25)]);
        let p2 = lazy.plan(&b2, &spec);
        assert_eq!(lazy.stats(), LazyStats { hits: 1, misses: 1 });
        // Refreshed plan covers the new token counts exactly.
        p2.validate(&b2).unwrap();
        let t1: usize = p1.ctas.iter().map(|c| c.kv.tokens * c.queries.len()).sum();
        let t2: usize = p2.ctas.iter().map(|c| c.kv.tokens * c.queries.len()).sum();
        assert_eq!(t2, t1 + 2);
    }

    #[test]
    fn new_block_invalidates() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        lazy.plan(&batch(&[(&[0, 1], 32), (&[0, 2], 32)]), &spec);
        // Query 0 rolled into a fresh block: structure changed.
        let b = batch(&[(&[0, 1, 7], 33), (&[0, 2], 32)]);
        let p = lazy.plan(&b, &spec);
        assert_eq!(lazy.stats(), LazyStats { hits: 0, misses: 2 });
        p.validate(&b).unwrap();
    }

    #[test]
    fn arrival_and_departure_invalidate() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        lazy.plan(&batch(&[(&[0, 1], 32), (&[0, 2], 32)]), &spec);
        lazy.plan(
            &batch(&[(&[0, 1], 32), (&[0, 2], 32), (&[0, 3], 32)]),
            &spec,
        );
        lazy.plan(&batch(&[(&[0, 1], 32)]), &spec);
        assert_eq!(lazy.stats().misses, 3);
    }

    #[test]
    fn explicit_invalidation_forces_repack() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        let b = batch(&[(&[0, 1], 32), (&[0, 2], 32)]);
        lazy.plan(&b, &spec);
        lazy.invalidate();
        lazy.plan(&b, &spec);
        assert_eq!(lazy.stats(), LazyStats { hits: 0, misses: 2 });
    }

    #[test]
    fn scheduling_cost_matches_backend_formula() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        let b0 = batch(&[(&[0, 1], 30), (&[0, 2], 30)]);
        // Before any plan: falls back to the batch-walking form.
        assert_eq!(
            lazy.scheduling_cost_ns(&b0),
            lazy.backend().scheduling_cost_ns(&b0)
        );
        lazy.plan(&b0, &spec);
        assert_eq!(
            lazy.scheduling_cost_ns(&b0),
            lazy.backend().scheduling_cost_ns(&b0)
        );
        // A frozen hit serves the cost recorded by the cold plan; after the
        // next cold plan it matches the scratch formula bit for bit again.
        let grown = batch(&[(&[0, 1], 31), (&[0, 2], 31)]);
        lazy.plan(&grown, &spec);
        assert_eq!(lazy.last_plan_reuse(), Some(PlanReuse::Frozen));
        assert_eq!(
            lazy.scheduling_cost_ns(&grown),
            lazy.backend().scheduling_cost_ns(&grown)
        );
        let b1 = batch(&[(&[0, 1, 4], 33), (&[0, 2], 32)]);
        lazy.plan(&b1, &spec);
        assert_eq!(lazy.last_plan_reuse(), Some(PlanReuse::Cold));
        assert_eq!(
            lazy.scheduling_cost_ns(&b1),
            lazy.backend().scheduling_cost_ns(&b1)
        );
    }

    #[test]
    fn hit_rate_reflects_reuse() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        for tokens in 20..30 {
            lazy.plan(&batch(&[(&[0, 1], tokens), (&[0, 2], tokens)]), &spec);
        }
        assert!((lazy.stats().hit_rate() - 0.9).abs() < 1e-12);
    }
}
