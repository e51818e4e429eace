//! Timed plan executor: runs a [`KernelPlan`] on the `sim-gpu` engine.
//!
//! Each CTA of the plan is expanded once per kv-head (the kernel grid's head
//! dimension), given its traffic from [`analyze_traffic`], its sustainable
//! load rate and resource footprint from its tile, and a compute floor from
//! the tensor-core pipeline model. CTAs are grouped into kernels per stream
//! (consecutive same-tile CTAs form one launch), then simulated.

use crate::traffic::{analyze_traffic, TrafficReport};
use crate::{DecodeBatch, KernelPlan, PlanError, TileConfig};
use sim_gpu::{
    CtaWork, Engine, EngineError, ExecutionTrace, GpuSpec, KernelSpec, Occupancy, StreamSpec,
};
use std::fmt;

/// Timing breakdown of one decode-attention step.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// End-to-end attention latency: exposed scheduling + forward + merge.
    pub total_ns: f64,
    /// Forward-stage (kernel execution) latency.
    pub forward_ns: f64,
    /// Merge-kernel latency (0 when no query was split).
    pub merge_ns: f64,
    /// Exposed CPU-side scheduling latency.
    pub scheduling_ns: f64,
    /// Average HBM bandwidth utilization during the forward stage.
    pub bandwidth_utilization: f64,
    /// Memory traffic accounting.
    pub traffic: TrafficReport,
    /// Forward-stage execution trace (Fig. 15).
    pub trace: ExecutionTrace,
}

/// Errors from [`simulate_plan`].
#[derive(Debug, Clone, PartialEq)]
pub enum TimingError {
    /// The plan failed validation.
    Plan(PlanError),
    /// The simulator rejected the plan's kernels.
    Engine(EngineError),
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::Plan(e) => write!(f, "invalid plan: {e}"),
            TimingError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for TimingError {}

impl From<PlanError> for TimingError {
    fn from(e: PlanError) -> Self {
        TimingError::Plan(e)
    }
}

impl From<EngineError> for TimingError {
    fn from(e: EngineError) -> Self {
        TimingError::Engine(e)
    }
}

/// Fixed per-tile-iteration cost: shared-memory barrier, online-softmax
/// rescale, and pipeline bookkeeping. This is what makes very small KV tiles
/// (e.g. DeFT's fixed n=16) pay for their extra iterations (§3.3).
const TILE_ITERATION_OVERHEAD_NS: f64 = 120.0;

/// Compute floor and exposed tail of one CTA: the floor is pipeline-fill
/// latency plus tensor-core time for all (padded) KV tiles at the
/// occupancy-shared SM rate; the tail is the final tile's compute, which can
/// never overlap a load (§5.2's compute bubble — padded to the full tile, so
/// a KV of 192 under n=128 wastes half the last tile).
fn compute_floor_ns(
    spec: &GpuSpec,
    occupancy: &Occupancy,
    tile: TileConfig,
    kv_tokens: usize,
    head_dim: usize,
    dtype_bytes: usize,
) -> (f64, f64) {
    let c = occupancy
        .ctas_per_sm(tile.resources(head_dim, dtype_bytes))
        .unwrap_or(1)
        .max(1) as f64;
    let tiles = tile.tiles_for(kv_tokens) as f64;
    let flops_rate = spec.tensor_flops_per_sm / c;
    let per_tile = tile.flops_per_tile(head_dim) / flops_rate + TILE_ITERATION_OVERHEAD_NS;
    (spec.mem_latency_ns + tiles * per_tile, per_tile)
}

/// Simulates `plan` for `batch` on `spec`.
///
/// # Errors
///
/// Returns [`TimingError::Plan`] for invalid plans and
/// [`TimingError::Engine`] if a tile's footprint cannot fit on an SM.
pub fn simulate_plan(
    batch: &DecodeBatch,
    plan: &KernelPlan,
    spec: &GpuSpec,
) -> Result<TimingReport, TimingError> {
    plan.validate(batch)?;
    simulate_plan_trusted(batch, plan, spec)
}

/// [`simulate_plan`] minus the O(batch·blocks) coverage validation — for
/// callers that already know the plan is well-formed because it came
/// straight out of a backend's `plan()` (every backend is
/// validation-tested). The serving engine's step loop uses this: on a
/// step-cache miss, validation was the single largest component of the
/// simulated step (≈350 µs of a ≈700 µs `simulate_plan` call).
///
/// Debug builds still validate (as a `debug_assert`), so tests catch any
/// backend that starts emitting malformed plans.
///
/// # Errors
///
/// Returns [`TimingError::Engine`] if a tile's footprint cannot fit on an
/// SM. Malformed plans produce unspecified (but deterministic) timing
/// rather than `TimingError::Plan`.
pub fn simulate_plan_trusted(
    batch: &DecodeBatch,
    plan: &KernelPlan,
    spec: &GpuSpec,
) -> Result<TimingReport, TimingError> {
    debug_assert!(
        plan.validate(batch).is_ok(),
        "simulate_plan_trusted called with an invalid plan"
    );
    let head = batch.head();
    let d = head.head_dim();
    let dtype = batch.dtype_bytes();
    let occupancy = Occupancy::new(spec.clone());
    let (traffic, per_cta) = analyze_traffic(batch, plan, spec);

    // Group CTAs into kernels: per stream, consecutive same-tile CTAs share a
    // launch; each logical CTA expands into one hardware CTA per kv-head.
    // Tracking the last (tile, phase) per stream avoids formatting a label
    // string per CTA just to compare it.
    let num_streams = plan.num_streams().max(1);
    let mut streams: Vec<StreamSpec> = (0..num_streams).map(|_| StreamSpec::default()).collect();
    let mut last_kernel: Vec<Option<(TileConfig, usize)>> = vec![None; num_streams];
    for (i, cta) in plan.ctas.iter().enumerate() {
        let stream = &mut streams[cta.stream];
        if last_kernel[cta.stream] != Some((cta.tile, cta.phase)) {
            last_kernel[cta.stream] = Some((cta.tile, cta.phase));
            stream.kernels.push(KernelSpec {
                label: kernel_label(cta.tile, cta.phase),
                resources: cta.tile.resources(d, dtype),
                ctas: Vec::new(),
            });
        }
        let (floor, tail) = compute_floor_ns(spec, &occupancy, cta.tile, cta.kv.tokens, d, dtype);
        let rate_cap = cta.tile.rate_cap(spec, d, dtype);
        // A stream's first CTA never matches the `None` in `last_kernel`, so
        // the push above guarantees the stream has a current kernel.
        let current = stream.kernels.len() - 1;
        let kernel = &mut stream.kernels[current];
        let hw_ctas = if plan.per_query_head_kv {
            head.num_heads()
        } else {
            head.num_kv_heads()
        };
        for _ in 0..hw_ctas {
            kernel.ctas.push(CtaWork {
                tag: i as u64,
                dram_bytes: per_cta[i].dram_bytes,
                l2_bytes: per_cta[i].l2_bytes,
                min_exec_ns: floor,
                rate_cap,
                tail_ns: tail,
            });
        }
    }

    let engine = Engine::new(spec.clone());
    let run = engine.run(streams)?;

    // Merge kernel: one lightweight launch reading all intermediates and
    // writing final outputs at full bandwidth (§7).
    // The merge launch is enqueued while forward kernels run, so only its
    // execution (pipeline fill + intermediate reads + output writes) is
    // exposed.
    let merge_ns = if plan.needs_merge(batch.num_queries()) {
        let bytes = traffic.intermediate_read_bytes + traffic.output_bytes;
        spec.mem_latency_ns + bytes / spec.global_bandwidth
    } else {
        0.0
    };

    Ok(TimingReport {
        total_ns: plan.exposed_scheduling_ns + run.total_ns + merge_ns,
        forward_ns: run.total_ns,
        merge_ns,
        scheduling_ns: plan.exposed_scheduling_ns,
        bandwidth_utilization: run.bandwidth_utilization,
        traffic,
        trace: run.trace,
    })
}

fn kernel_label(tile: TileConfig, phase: usize) -> String {
    if phase == 0 {
        format!("attn(m={},n={})", tile.m, tile.n)
    } else {
        format!("attn(m={},n={})#{phase}", tile.m, tile.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CtaPlan, KvSlice};
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};
    use sim_core::cast::{u64_to_usize, usize_to_u32};

    fn batch(n_queries: usize, shared_blocks: usize, private_blocks: usize) -> DecodeBatch {
        let head = HeadConfig::new(32, 8, 128);
        let bs = 16;
        let tables = (0..n_queries)
            .map(|q| {
                let mut ids: Vec<BlockId> = (0..usize_to_u32(shared_blocks)).map(BlockId).collect();
                ids.extend(
                    (0..usize_to_u32(private_blocks))
                        .map(|i| BlockId(10_000 + usize_to_u32(q) * 512 + i)),
                );
                BlockTable::new(ids, (shared_blocks + private_blocks) * bs, bs)
            })
            .collect();
        DecodeBatch::new(head, tables, 2)
    }

    fn one_query_per_cta(batch: &DecodeBatch, tile: TileConfig) -> KernelPlan {
        KernelPlan::new(
            (0..batch.num_queries())
                .map(|q| CtaPlan {
                    queries: vec![q],
                    kv: KvSlice::new(
                        batch.tables()[q].blocks().to_vec(),
                        batch.kv_len(q),
                        batch.block_size(),
                    ),
                    tile,
                    stream: 0,
                    phase: 0,
                })
                .collect(),
        )
    }

    #[test]
    fn prefix_packing_is_faster_than_query_centric() {
        // 16k shared tokens (working set > L2) + 128 private tokens each.
        let b = batch(32, 1024, 8);
        let spec = GpuSpec::a100_sxm4_80gb();
        let qc =
            simulate_plan(&b, &one_query_per_cta(&b, TileConfig::new(64, 128)), &spec).unwrap();

        // 32 queries x group size 4 = 128 rows: split into two m=64 CTAs
        // (m=128 exceeds the per-thread register budget on A100).
        let bs = b.block_size();
        let mut ctas: Vec<CtaPlan> = (0..2)
            .map(|half| CtaPlan {
                queries: (16 * half..16 * (half + 1)).collect(),
                kv: KvSlice::new(b.tables()[0].blocks()[..1024].to_vec(), 1024 * bs, bs),
                tile: TileConfig::new(64, 64),
                stream: 0,
                phase: 0,
            })
            .collect();
        for q in 0..32 {
            ctas.push(CtaPlan {
                queries: vec![q],
                kv: KvSlice::new(b.tables()[q].blocks()[1024..].to_vec(), 8 * bs, bs),
                tile: TileConfig::new(16, 32),
                stream: 1,
                phase: 0,
            });
        }
        let packed = simulate_plan(&b, &KernelPlan::new(ctas), &spec).unwrap();
        assert!(
            packed.total_ns < qc.total_ns,
            "packed {} !< query-centric {}",
            packed.total_ns,
            qc.total_ns
        );
        assert!(packed.traffic.kv_dram_bytes < qc.traffic.kv_dram_bytes);
        assert!(packed.merge_ns > 0.0);
        assert_eq!(qc.merge_ns, 0.0);
    }

    #[test]
    fn scheduling_overhead_is_added() {
        let b = batch(4, 8, 2);
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut plan = one_query_per_cta(&b, TileConfig::new(16, 64));
        let base = simulate_plan(&b, &plan, &spec).unwrap();
        plan.exposed_scheduling_ns = 50_000.0;
        let with = simulate_plan(&b, &plan, &spec).unwrap();
        assert!((with.total_ns - base.total_ns - 50_000.0).abs() < 1.0);
    }

    #[test]
    fn large_batches_achieve_high_bandwidth_utilization() {
        let b = batch(512, 0, 64); // 1024 private tokens each, no sharing
        let spec = GpuSpec::a100_sxm4_80gb();
        let r = simulate_plan(&b, &one_query_per_cta(&b, TileConfig::new(16, 64)), &spec).unwrap();
        assert!(
            r.bandwidth_utilization > 0.7,
            "util {}",
            r.bandwidth_utilization
        );
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let b = batch(2, 4, 1);
        let spec = GpuSpec::a100_sxm4_80gb();
        let plan = KernelPlan::new(vec![]);
        assert!(matches!(
            simulate_plan(&b, &plan, &spec),
            Err(TimingError::Plan(_))
        ));
    }

    #[test]
    fn trace_tags_map_back_to_plan_ctas() {
        let b = batch(3, 4, 1);
        let spec = GpuSpec::a100_sxm4_80gb();
        let plan = one_query_per_cta(&b, TileConfig::new(16, 64));
        let r = simulate_plan(&b, &plan, &spec).unwrap();
        // 3 logical CTAs x 8 kv-heads.
        assert_eq!(r.trace.ctas.len(), 24);
        assert!(r
            .trace
            .ctas
            .iter()
            .all(|c| u64_to_usize(c.tag) < plan.ctas.len()));
    }
}
