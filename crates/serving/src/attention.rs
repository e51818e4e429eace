//! The serving-side attention abstraction.
//!
//! Serving needs per-step planning with state (PAT's lazy-update cache);
//! stateless kernel backends are adapted via [`Stateless`]. Planning is
//! fallible: a device/geometry with no feasible tile surfaces as a typed
//! [`TileError`] that the engine records in
//! `SimulationResult::plan_error` instead of crashing the replica.

use attn_kernel::{AttentionBackend, DecodeBatch, KernelPlan};
use pat_core::{LazyPat, PlanReuse, TileError};
use sim_gpu::GpuSpec;

/// A decode-attention implementation as used by the serving engine.
///
/// `Send` is required so the fleet loop (`controller`) can advance
/// independent replicas on `sim_core::par` worker threads between event
/// barriers.
pub trait ServingAttention: Send {
    /// Display name.
    fn name(&self) -> String;

    /// Whether this backend supports the batch's shape.
    fn supports(&self, batch: &DecodeBatch) -> bool {
        let _ = batch;
        true
    }

    /// Plans one decode step (may use internal caching). Tile-selection
    /// failure (no feasible tile for the device/geometry) is a typed error.
    fn plan_step(&mut self, batch: &DecodeBatch, spec: &GpuSpec) -> Result<KernelPlan, TileError>;

    /// CPU cost of this step's scheduling work, if the backend reports it
    /// (used for the Fig. 16 overhead analysis).
    fn scheduling_cost_ns(&self, batch: &DecodeBatch) -> Option<f64> {
        let _ = batch;
        None
    }

    /// How the most recent [`ServingAttention::plan_step`] produced its
    /// packing, for backends that reuse plan state across steps. `None` for
    /// stateless backends (every plan is implicitly cold).
    fn last_plan_reuse(&self) -> Option<PlanReuse> {
        None
    }
}

/// Adapter: any stateless [`AttentionBackend`] serves as-is.
///
/// `AttentionBackend::plan` is infallible by contract (baseline planners
/// pick fixed tiles), so the adapter never returns an error itself.
#[derive(Debug, Clone)]
pub struct Stateless<B>(pub B);

impl<B: AttentionBackend + Send> ServingAttention for Stateless<B> {
    fn name(&self) -> String {
        self.0.name().to_string()
    }

    fn supports(&self, batch: &DecodeBatch) -> bool {
        self.0.supports(batch)
    }

    fn plan_step(&mut self, batch: &DecodeBatch, spec: &GpuSpec) -> Result<KernelPlan, TileError> {
        Ok(self.0.plan(batch, spec))
    }
}

impl ServingAttention for LazyPat {
    /// The configured backend's name (`"PAT"`, `"PAT-autotuned"`, ...), so
    /// step-cache fingerprints distinguish tile policies.
    fn name(&self) -> String {
        self.backend().name().to_string()
    }

    fn plan_step(&mut self, batch: &DecodeBatch, spec: &GpuSpec) -> Result<KernelPlan, TileError> {
        self.try_plan(batch, spec)
    }

    fn scheduling_cost_ns(&self, batch: &DecodeBatch) -> Option<f64> {
        // Reuses the forest statistics recorded at planning time;
        // bit-identical to the backend's batch-walking form.
        Some(LazyPat::scheduling_cost_ns(self, batch))
    }

    fn last_plan_reuse(&self) -> Option<PlanReuse> {
        LazyPat::last_plan_reuse(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_math::HeadConfig;
    use baselines::FlashAttention;
    use kv_cache::{BlockId, BlockTable};
    use pat_core::{PatBackend, PatConfig, TilePolicyKind};

    fn batch() -> DecodeBatch {
        DecodeBatch::new(
            HeadConfig::new(32, 8, 128),
            vec![BlockTable::new(vec![BlockId(0)], 16, 16)],
            2,
        )
    }

    #[test]
    fn stateless_adapter_delegates() {
        let mut s = Stateless(FlashAttention::new());
        assert_eq!(s.name(), "FlashAttention");
        let b = batch();
        assert!(s.supports(&b));
        let plan = s.plan_step(&b, &GpuSpec::a100_sxm4_80gb()).unwrap();
        plan.validate(&b).unwrap();
        assert!(s.scheduling_cost_ns(&b).is_none());
    }

    #[test]
    fn lazy_pat_reports_scheduling_cost() {
        let mut pat = LazyPat::new();
        let b = batch();
        let plan = pat.plan_step(&b, &GpuSpec::a100_sxm4_80gb()).unwrap();
        plan.validate(&b).unwrap();
        assert!(ServingAttention::scheduling_cost_ns(&pat, &b).unwrap() > 0.0);
    }

    #[test]
    fn serving_name_tracks_tile_policy() {
        assert_eq!(LazyPat::new().name(), "PAT");
        let autotuned = LazyPat::with_backend(PatBackend::with_config(PatConfig {
            tile_policy: TilePolicyKind::Autotuned,
            ..PatConfig::default()
        }));
        assert_eq!(autotuned.name(), "PAT-autotuned");
    }

    #[test]
    fn infeasible_device_is_a_typed_plan_error() {
        // A degenerate device whose shared memory cannot hold even the
        // smallest tile: planning must fail with EmptySuite, not panic.
        let mut tiny = GpuSpec::a100_sxm4_80gb();
        tiny.smem_per_cta_max = 1024;
        tiny.smem_per_sm = 1024;
        let mut pat = LazyPat::new();
        let err = pat.plan_step(&batch(), &tiny).unwrap_err();
        assert_eq!(err, TileError::EmptySuite);
    }
}
