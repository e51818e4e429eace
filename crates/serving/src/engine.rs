//! The continuous-batching serving engine (vLLM-style, §8.4).
//!
//! Simulates online serving in virtual time: requests arrive (Poisson),
//! prefills admit them into the running batch (prefix-reusing KV cache),
//! and every decode step plans attention through the configured backend,
//! prices it on the GPU simulator, and advances the clock. Produces the
//! TTFT/TPOT metrics of Fig. 12/13 and the scheduler-overhead samples of
//! Fig. 16.
//!
//! The engine is exposed in two forms: the one-shot [`simulate_serving`]
//! (submit a whole sorted trace, run to completion) and the steppable
//! [`ServingEngine`], which external drivers — notably the `controller`
//! fleet loop — advance one scheduling iteration at a time via
//! [`ServingEngine::step`], interleaving [`ServingEngine::submit`] calls as
//! routed requests arrive. `simulate_serving` is a thin wrapper over the
//! steppable engine, so both paths execute identical scheduling decisions.
//! The scheduling itself is [`ReplicaCore`]'s, shared with the analytical
//! replica; this module adds block-table KV placement and kernel-simulated
//! decode pricing.

use crate::attention::ServingAttention;
use crate::metrics::{AggregateMetrics, RequestMetrics};
use crate::model::ModelSpec;
use crate::replica::{KvPlacement, ReplicaCore};
use attn_kernel::{batch_timing_fingerprint, simulate_plan_trusted, DecodeBatch};
use attn_kernel::{StepSimCache, StepSimReport, StepSimStats};
use attn_math::HeadConfig;
use kv_cache::{AllocError, BlockTable, CacheManager, Token, DEFAULT_BLOCK_SIZE};
use serde::Serialize;
use sim_core::cast::u64_to_usize;
use sim_gpu::{gpu_model_from_env, GpuSpec};
use workloads::Request;

/// Tensor/pipeline parallel layout (§8.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Tensor-parallel ways (divides attention heads and weight shards).
    pub tp: usize,
    /// Pipeline-parallel stages (divides layers).
    pub pp: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism { tp: 1, pp: 1 }
    }
}

impl Parallelism {
    /// Single-GPU layout.
    pub fn single() -> Self {
        Parallelism::default()
    }

    /// Total GPUs used.
    pub fn num_gpus(&self) -> usize {
        self.tp * self.pp
    }
}

/// Serving-engine configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// The served model.
    pub model: ModelSpec,
    /// The GPU (per device).
    pub gpu: GpuSpec,
    /// Parallel layout.
    pub parallel: Parallelism,
    /// Maximum concurrent decode requests.
    pub max_batch: usize,
    /// Maximum prompt tokens per prefill step.
    pub max_prefill_tokens: usize,
    /// KV pool size in blocks.
    pub kv_capacity_blocks: usize,
    /// Stop simulating this long after the last arrival (drain limit), s.
    pub drain_limit_s: f64,
}

impl ServingConfig {
    /// A sensible single-GPU configuration for `model`. The device comes
    /// from the `PAT_GPU_MODEL` environment knob, defaulting to the
    /// paper's A100 testbed when unset.
    pub fn single_gpu(model: ModelSpec) -> Self {
        ServingConfig {
            model,
            gpu: gpu_model_from_env().spec(),
            parallel: Parallelism::single(),
            max_batch: 128,
            max_prefill_tokens: 8192,
            kv_capacity_blocks: 400_000,
            drain_limit_s: 600.0,
        }
    }
}

/// Result of one serving simulation.
#[derive(Debug, Clone, Serialize)]
pub struct SimulationResult {
    /// Aggregate metrics over completed requests.
    pub metrics: AggregateMetrics,
    /// Per-request records (completed only).
    pub per_request: Vec<RequestMetrics>,
    /// Decode steps executed.
    pub decode_steps: usize,
    /// Mean decode batch size.
    pub mean_batch: f64,
    /// Attention share of total decode-step time, in `[0, 1]`.
    pub attention_fraction: f64,
    /// Per-step `(scheduler, pre-attention)` cost samples in ns, when the
    /// backend reports scheduling costs (Fig. 16). With step-simulation
    /// memoization these are sampled once per scheduler *invocation* — that
    /// is, on cache misses; cached steps run no scheduler at all.
    pub overhead_samples: Vec<(f64, f64)>,
    /// Step-simulation cache counters (hits skip the sim-gpu event loop).
    pub step_sim: StepSimStats,
    /// Requests dropped at the drain limit (overload indicator).
    pub unfinished: usize,
    /// Recompute preemptions forced by KV-pool pressure.
    pub preemptions: u64,
    /// Requests dropped because they can never fit the KV pool.
    pub dropped: u64,
    /// Tile-selection failure that halted the replica, if any (e.g. a
    /// device/geometry with no feasible tile). `None` on a clean run; when
    /// set, the engine stopped planning and the remaining requests count
    /// as unfinished.
    pub plan_error: Option<String>,
    /// Any [`EngineError`] that halted the replica, rendered as text —
    /// plan failures (also in [`plan_error`](SimulationResult::plan_error))
    /// plus kernel-simulation and KV-cache bookkeeping faults. `None` on a
    /// clean run.
    pub fault: Option<String>,
}

/// A broken engine invariant that halted the replica. Recorded rather than
/// panicked: a fleet driver sees one stopped replica (its in-flight work
/// counted as unfinished), not a crashed simulation process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Tile selection failed: the device/geometry admits no feasible tile.
    Plan(String),
    /// A backend-produced plan failed kernel simulation.
    Simulate(String),
    /// KV-cache bookkeeping diverged from the scheduler's view of it.
    Cache {
        /// The cache operation that failed.
        op: &'static str,
        /// The underlying allocator/cache error.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Plan(e) => write!(f, "tile planning failed: {e}"),
            EngineError::Simulate(e) => write!(f, "kernel simulation rejected a backend plan: {e}"),
            EngineError::Cache { op, detail } => {
                write!(f, "KV-cache bookkeeping fault in `{op}`: {detail}")
            }
        }
    }
}

/// What one [`ServingEngine::step`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The engine advanced: admitted requests, ran a prefill or decode step,
    /// or jumped its idle clock to the next pending arrival.
    Progress,
    /// Nothing to do: every submitted request has been processed (or the
    /// drain deadline has passed). Submitting more work revives the engine.
    Idle,
}

/// A steppable continuous-batching serving engine over one replica.
///
/// The Exact fidelity of [`ReplicaCore`]: running requests hold block
/// tables in a prefix-reusing [`CacheManager`], and each decode step's
/// attention is planned by the backend and priced by kernel simulation
/// behind the step cache. Queueing, admission, preemption and every
/// accumulator are the core's, read through [`ServingEngine::core`]. The
/// attention backend is passed into `step` rather than owned, so a fleet
/// driver can keep engines and backends in separate collections.
#[derive(Debug)]
pub struct ServingEngine {
    core: ReplicaCore<BlockTable>,
    cache: CacheManager,
    pricing: KernelPricing,
}

impl ServingEngine {
    /// Creates an idle engine with an empty KV cache.
    pub fn new(config: ServingConfig) -> Self {
        // Each TP rank's kernel handles an equal slice of the heads, so one
        // rank's latency is the attention latency.
        let shard_head = config.model.shard_head(config.parallel.tp);
        let cache = CacheManager::new(config.kv_capacity_blocks, DEFAULT_BLOCK_SIZE);
        ServingEngine {
            core: ReplicaCore::new(config),
            cache,
            pricing: KernelPricing {
                shard_head,
                step_cache: StepSimCache::default(),
                scratch_tables: Vec::new(),
                overhead_samples: Vec::new(),
            },
        }
    }

    /// The replica's scheduler state: clock, configuration, cost model,
    /// queue and batch sizes, completion records, speed factor and drain
    /// flag.
    pub fn core(&self) -> &ReplicaCore<BlockTable> {
        &self.core
    }

    /// The replica's KV cache, for read-only introspection (prefix-overlap
    /// probes, hit-rate stats, residency queries) by routers and metrics.
    pub fn cache(&self) -> &CacheManager {
        &self.cache
    }

    /// Submits a request; see [`ReplicaCore::submit`].
    pub fn submit(&mut self, request: Request) {
        self.core.submit(request);
    }

    /// Ingests migrated KV for the full-block prefix of `tokens` into this
    /// replica's cache without computing it, as if streamed from a donor
    /// replica over the KV movement plane. Subsequent prompts sharing the
    /// prefix get the ordinary prefill discount, so only the uncovered
    /// suffix pays compute. Returns the ingest report (how many tokens are
    /// now resident, and how many this call actually imported); under memory
    /// pressure the import stops at the longest prefix that fits.
    pub fn ingest_prefix(&mut self, tokens: &[kv_cache::Token]) -> kv_cache::IngestReport {
        self.cache.ingest_prefix(tokens)
    }

    /// Sets the replica's speed factor; see [`ReplicaCore::set_speed_factor`].
    pub fn set_speed_factor(&mut self, factor: f64) {
        self.core.set_speed_factor(factor);
    }

    /// Puts the engine into drain mode; see [`ReplicaCore::begin_drain`].
    pub fn begin_drain(&mut self) {
        self.core.begin_drain();
    }

    /// Removes and returns every incomplete request, freeing the blocks of
    /// the decoding ones; see [`ReplicaCore::take_incomplete`].
    pub fn take_incomplete(&mut self) -> Vec<Request> {
        self.core.take_incomplete(&mut self.cache)
    }

    /// Runs one scheduling iteration: admit arrivals, then either prefill,
    /// decode, or jump the idle clock forward to the next pending arrival.
    /// A planning, kernel-simulation or KV-cache fault halts the replica
    /// instead of panicking; see [`ReplicaCore::step`].
    pub fn step(&mut self, attention: &mut dyn ServingAttention) -> StepOutcome {
        self.core.step(&mut self.cache, |core| {
            self.pricing.attention_ns(core, attention)
        })
    }

    /// Step-simulation cache counters so far (hits skip the sim-gpu event
    /// loop; see [`StepSimCache`]).
    pub fn step_sim_stats(&self) -> StepSimStats {
        self.pricing.step_cache.stats()
    }

    /// Finalizes the simulation, consuming the engine. Requests still in
    /// flight (or never admitted) count as unfinished.
    pub fn into_result(self) -> SimulationResult {
        let step_sim = self.pricing.step_cache.stats();
        self.core
            .into_result(self.pricing.overhead_samples, step_sim)
    }
}

/// Exact KV placement: block tables in the prefix-reusing cache.
impl KvPlacement for CacheManager {
    type Seq = BlockTable;

    fn free_blocks(&self) -> usize {
        self.available_blocks()
    }

    fn place(&mut self, prompt: &[Token]) -> Option<(BlockTable, usize)> {
        let hits_before = self.stats().hit_tokens;
        let table = self.insert_sequence(prompt).ok()?;
        let hit = self.stats().hit_tokens - hits_before;
        Some((table, u64_to_usize(hit)))
    }

    fn append(&mut self, table: &mut BlockTable) -> bool {
        self.append_token(table).is_ok()
    }

    fn release(&mut self, table: &BlockTable) -> Result<(), AllocError> {
        self.free_sequence(table)
    }
}

/// Exact decode pricing: the backend plans the step and the kernel
/// simulator prices it, memoized by the step cache.
#[derive(Debug)]
struct KernelPricing {
    shard_head: HeadConfig,
    step_cache: StepSimCache,
    /// Scratch arena: block-table vector recycled across decode steps so
    /// the per-step `DecodeBatch` rebuild allocates nothing in steady state.
    scratch_tables: Vec<BlockTable>,
    /// Fig. 16 `(scheduler, pre-attention)` samples, one per scheduler
    /// invocation.
    overhead_samples: Vec<(f64, f64)>,
}

impl KernelPricing {
    /// One decode step's attention time at nominal speed, in ns.
    fn attention_ns(
        &mut self,
        core: &ReplicaCore<BlockTable>,
        attention: &mut dyn ServingAttention,
    ) -> Result<f64, EngineError> {
        let config = core.config();
        // The block-table vector comes from the scratch arena (recovered
        // from the batch below), so steady-state decode allocates no fresh
        // tables.
        let mut tables = std::mem::take(&mut self.scratch_tables);
        tables.truncate(core.num_active());
        for (i, table) in core.running_kv().enumerate() {
            if i < tables.len() {
                tables[i].clone_from(table);
            } else {
                tables.push(table.clone());
            }
        }
        let batch = DecodeBatch::new(self.shard_head, tables, 2);
        // Step-simulation memoization (serving-level §5.1): consecutive
        // steps with identical block-granularity structure replay the
        // cached timing report and skip both the pack scheduler and the
        // sim-gpu event loop. Any structural change — arrival, departure,
        // preemption, a table growing a block — changes the fingerprint.
        let key = (
            batch_timing_fingerprint(&batch, &config.gpu),
            backend_fingerprint(attention),
        );
        let report = match self.step_cache.get(key) {
            Some(report) => Ok(report),
            // No feasible tile for this device/geometry, or a plan the
            // kernel simulator rejects: a typed failure that halts the
            // replica cleanly.
            None => attention
                .plan_step(&batch, &config.gpu)
                .map_err(|e| EngineError::Plan(e.to_string()))
                .and_then(|plan| {
                    simulate_plan_trusted(&batch, &plan, &config.gpu)
                        .map_err(|e| EngineError::Simulate(e.to_string()))
                })
                .map(|full| {
                    let report = StepSimReport {
                        total_ns: full.total_ns,
                        scheduling_ns: full.scheduling_ns,
                    };
                    self.step_cache.insert(key, report);
                    // Fig. 16 samples per scheduler *invocation*: a cached
                    // step ran no scheduler, so there is nothing to overlap
                    // with pre-attention work.
                    if let Some(sched) = attention.scheduling_cost_ns(&batch) {
                        let pre = core.cost_model().pre_attention_ns(batch.num_queries());
                        self.overhead_samples.push((sched, pre));
                    }
                    report
                }),
        };
        // Return the table vector to the scratch arena; it keeps its
        // capacity for the next step.
        self.scratch_tables = batch.into_tables();
        let report = report?;
        // Kernel time repeats per layer; exposed CPU scheduling is paid once
        // per step (the plan's metadata is shared across layers).
        Ok(
            (report.total_ns - report.scheduling_ns) * config.model.num_layers as f64
                + report.scheduling_ns,
        )
    }
}

/// Identity of a backend for step-cache keying: a hash of its display name.
/// Different backends (or differently configured PAT ablations, which embed
/// their configuration in the name) never share cache entries.
fn backend_fingerprint(attention: &dyn ServingAttention) -> u64 {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut h = DefaultHasher::new();
    attention.name().hash(&mut h);
    h.finish()
}

/// Runs the serving simulation for `requests` (must be sorted by arrival).
///
/// Thin wrapper over [`ServingEngine`]: submits every request up front and
/// steps the engine until it goes idle.
///
/// # Panics
///
/// Panics if requests are unsorted. A prompt that cannot fit the KV pool
/// even with every other request preempted halts the replica with an
/// [`EngineError::Cache`] fault, reported in [`SimulationResult::fault`].
pub fn simulate_serving(
    config: &ServingConfig,
    attention: &mut dyn ServingAttention,
    requests: &[Request],
) -> SimulationResult {
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s),
        "requests must be sorted by arrival"
    );
    let mut engine = ServingEngine::new(config.clone());
    for request in requests {
        engine.submit(request.clone());
    }
    while engine.step(attention) == StepOutcome::Progress {}
    engine.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::Stateless;
    use baselines::FlashAttention;
    use pat_core::LazyPat;
    use workloads::{generate_trace, TraceConfig, TraceKind};

    fn short_trace(rate: f64) -> Vec<Request> {
        generate_trace(TraceConfig {
            kind: TraceKind::Conversation,
            rate_per_s: rate,
            duration_s: 6.0,
            seed: 7,
        })
    }

    fn config() -> ServingConfig {
        ServingConfig::single_gpu(ModelSpec::llama3_8b())
    }

    #[test]
    fn all_requests_complete_at_low_rate() {
        let requests = short_trace(2.0);
        let mut pat = LazyPat::new();
        let result = simulate_serving(&config(), &mut pat, &requests);
        assert_eq!(result.unfinished, 0);
        assert_eq!(result.metrics.completed, requests.len());
        assert!(result.metrics.mean_ttft_ms > 0.0);
        assert!(result.metrics.mean_tpot_ms > 0.0);
        assert!(result.decode_steps > 0);
        assert_eq!(result.plan_error, None, "clean runs report no plan error");
    }

    #[test]
    fn infeasible_device_surfaces_plan_error_instead_of_panicking() {
        let requests = short_trace(2.0);
        let mut cfg = config();
        // A device whose shared memory cannot host any (m, n) tile: tile
        // selection fails with a typed error, the replica halts cleanly,
        // and its in-flight requests surface as unfinished.
        cfg.gpu.smem_per_cta_max = 1024;
        cfg.gpu.smem_per_sm = 1024;
        let mut pat = LazyPat::new();
        let result = simulate_serving(&cfg, &mut pat, &requests);
        let err = result.plan_error.expect("plan failure must be recorded");
        assert!(
            err.contains("feasible"),
            "error should name the feasibility failure: {err}"
        );
        assert!(result.unfinished > 0, "halted replica strands its requests");
    }

    #[test]
    fn pat_beats_flash_attention_on_shared_prefix_trace() {
        let requests = short_trace(4.0);
        let mut pat = LazyPat::new();
        let pat_result = simulate_serving(&config(), &mut pat, &requests);
        let mut fa = Stateless(FlashAttention::new());
        let fa_result = simulate_serving(&config(), &mut fa, &requests);
        assert!(
            pat_result.metrics.mean_tpot_ms < fa_result.metrics.mean_tpot_ms,
            "PAT {:.3} ms !< FA {:.3} ms",
            pat_result.metrics.mean_tpot_ms,
            fa_result.metrics.mean_tpot_ms
        );
    }

    #[test]
    fn pat_reports_overhead_samples_and_they_hide_in_pre_attention() {
        let requests = short_trace(4.0);
        let mut pat = LazyPat::new();
        let result = simulate_serving(&config(), &mut pat, &requests);
        assert!(!result.overhead_samples.is_empty());
        // Structural: LazyPat plans only on step-cache misses, and a step
        // with its frozen structure would hit the timing key that miss left.
        assert_eq!(pat.stats().hits, 0);
        let (sched, pre): (Vec<f64>, Vec<f64>) = result.overhead_samples.iter().copied().unzip();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&sched) < mean(&pre),
            "scheduler ({:.0} ns) must hide inside pre-attention ({:.0} ns)",
            mean(&sched),
            mean(&pre)
        );
    }

    #[test]
    fn higher_rate_increases_tpot() {
        let mut pat_low = LazyPat::new();
        let low = simulate_serving(&config(), &mut pat_low, &short_trace(1.0));
        let mut pat_high = LazyPat::new();
        let high = simulate_serving(&config(), &mut pat_high, &short_trace(8.0));
        assert!(high.mean_batch > low.mean_batch);
        assert!(high.metrics.mean_tpot_ms >= low.metrics.mean_tpot_ms * 0.9);
    }

    #[test]
    fn tp_reduces_tpot_for_a_large_model() {
        let requests = short_trace(1.0);
        let mut cfg = ServingConfig::single_gpu(ModelSpec::qwen25_72b());
        cfg.max_prefill_tokens = 4096;
        let mut pat1 = LazyPat::new();
        let single = simulate_serving(&cfg, &mut pat1, &requests);
        cfg.parallel = Parallelism { tp: 2, pp: 2 };
        let mut pat4 = LazyPat::new();
        let multi = simulate_serving(&cfg, &mut pat4, &requests);
        assert!(
            multi.metrics.mean_tpot_ms < single.metrics.mean_tpot_ms,
            "TP2xPP2 {:.2} !< single {:.2}",
            multi.metrics.mean_tpot_ms,
            single.metrics.mean_tpot_ms
        );
    }

    #[test]
    fn tiny_kv_pool_serves_via_admission_control() {
        let requests = short_trace(6.0);
        let mut cfg = config();
        // A pool that can hold only a handful of ~2.5k-token contexts: the
        // watermark admits few requests at a time, but everyone finishes.
        cfg.kv_capacity_blocks = 1200;
        cfg.max_batch = 32;
        let mut pat = LazyPat::new();
        let result = simulate_serving(&cfg, &mut pat, &requests);
        assert_eq!(result.unfinished, 0, "requests must finish under pressure");
        assert_eq!(result.dropped, 0);
        assert_eq!(result.metrics.completed, requests.len());
        assert!(result.mean_batch < 16.0, "pool bounds concurrency");
    }

    #[test]
    fn impossible_requests_are_dropped_not_livelocked() {
        let mut requests = short_trace(2.0);
        for r in &mut requests {
            r.decode_tokens = 2000; // prompt + decode exceed the pool below
        }
        let mut cfg = config();
        cfg.kv_capacity_blocks = 150;
        let mut pat = LazyPat::new();
        let result = simulate_serving(&cfg, &mut pat, &requests);
        assert_eq!(u64_to_usize(result.dropped), requests.len());
        assert_eq!(result.unfinished, 0);
        assert_eq!(result.metrics.completed, 0);
    }

    #[test]
    fn empty_request_list_is_fine() {
        let mut pat = LazyPat::new();
        let result = simulate_serving(&config(), &mut pat, &[]);
        assert_eq!(result.metrics.completed, 0);
        assert_eq!(result.decode_steps, 0);
    }

    #[test]
    fn incremental_submission_matches_upfront_submission() {
        // The steppable engine must behave identically whether the whole
        // trace is submitted up front or each request is submitted only once
        // the clock (or the outside world) reaches its arrival time — the
        // contract the cluster driver relies on.
        let requests = short_trace(5.0);
        let mut pat_a = LazyPat::new();
        let upfront = simulate_serving(&config(), &mut pat_a, &requests);

        let mut pat_b = LazyPat::new();
        let mut engine = ServingEngine::new(config());
        for request in &requests {
            let arrival = sim_core::SimTime::from_secs_f64(request.arrival_s);
            while engine.core().clock() < arrival {
                if engine.step(&mut pat_b) == StepOutcome::Idle {
                    break;
                }
            }
            engine.submit(request.clone());
        }
        while engine.step(&mut pat_b) == StepOutcome::Progress {}
        let incremental = engine.into_result();

        assert_eq!(upfront.per_request, incremental.per_request);
        assert_eq!(upfront.decode_steps, incremental.decode_steps);
        assert_eq!(upfront.preemptions, incremental.preemptions);
        assert!(upfront.metrics.mean_tpot_ms == incremental.metrics.mean_tpot_ms);
    }

    #[test]
    fn slower_speed_factor_stretches_latency_proportionally() {
        let requests = short_trace(2.0);
        let mut pat_a = LazyPat::new();
        let nominal = simulate_serving(&config(), &mut pat_a, &requests);

        let mut pat_b = LazyPat::new();
        let mut engine = ServingEngine::new(config());
        engine.set_speed_factor(0.5);
        for request in &requests {
            engine.submit(request.clone());
        }
        while engine.step(&mut pat_b) == StepOutcome::Progress {}
        let slow = engine.into_result();

        assert_eq!(slow.metrics.completed, nominal.metrics.completed);
        // Half speed doubles every step; scheduling dynamics shift batch
        // composition, so TPOT lands near 2x rather than exactly on it.
        let ratio = slow.metrics.mean_tpot_ms / nominal.metrics.mean_tpot_ms;
        assert!(
            (1.5..=3.0).contains(&ratio),
            "slow/nominal TPOT ratio {ratio:.3} not near 2x"
        );
        assert!(slow.metrics.mean_ttft_ms > nominal.metrics.mean_ttft_ms);
    }

    #[test]
    fn unit_speed_factor_is_bit_identical_to_default() {
        let requests = short_trace(4.0);
        let mut pat_a = LazyPat::new();
        let reference = simulate_serving(&config(), &mut pat_a, &requests);
        let mut pat_b = LazyPat::new();
        let mut engine = ServingEngine::new(config());
        engine.set_speed_factor(1.0);
        for request in &requests {
            engine.submit(request.clone());
        }
        while engine.step(&mut pat_b) == StepOutcome::Progress {}
        assert_eq!(engine.into_result().per_request, reference.per_request);
    }

    #[test]
    fn take_incomplete_returns_unfinished_and_frees_their_blocks() {
        let requests = short_trace(6.0);
        let mut engine = ServingEngine::new(config());
        for request in &requests {
            engine.submit(request.clone());
        }
        let mut pat = LazyPat::new();
        // Run just long enough that some requests finished, some are mid
        // flight, and some have not arrived yet.
        for _ in 0..200 {
            if engine.step(&mut pat) == StepOutcome::Idle {
                break;
            }
        }
        let done_before = engine.core().completed_requests().len();
        assert!(done_before > 0 && done_before < requests.len(), "mid-run");
        let free_before = engine.cache().available_blocks();
        let requeued = engine.take_incomplete();
        assert_eq!(done_before + requeued.len(), requests.len());
        assert!(engine.cache().available_blocks() >= free_before);
        // No leaked blocks: whatever is still allocated is held only by
        // the prefix cache.
        assert_eq!(
            engine.cache().allocator().used_blocks(),
            engine.cache().evictable_blocks()
        );
        assert_eq!(engine.core().outstanding(), 0);
        // Requeued requests come back in arrival order, ready to resubmit.
        assert!(requeued
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s));
        // The engine itself is still serviceable and idle.
        while engine.step(&mut pat) == StepOutcome::Progress {}
        assert_eq!(engine.core().completed_requests().len(), done_before);
    }

    #[test]
    fn drain_mode_finishes_existing_work_and_rejects_new() {
        let requests = short_trace(3.0);
        let mut engine = ServingEngine::new(config());
        for request in &requests {
            engine.submit(request.clone());
        }
        engine.begin_drain();
        assert!(engine.core().is_draining());
        let mut pat = LazyPat::new();
        while engine.step(&mut pat) == StepOutcome::Progress {}
        assert_eq!(engine.core().outstanding(), 0);
        assert_eq!(engine.core().completed_requests().len(), requests.len());
    }

    #[test]
    #[should_panic(expected = "draining")]
    fn submitting_to_a_draining_engine_panics() {
        let requests = short_trace(3.0);
        let mut engine = ServingEngine::new(config());
        engine.begin_drain();
        engine.submit(requests[0].clone());
    }

    #[test]
    fn lockstep_decode_heavy_batch_exceeds_80_percent_step_cache_hit_rate() {
        // The acceptance scenario for the step cache: uniform requests
        // arriving together decode in lockstep, so every table crosses a
        // block boundary on the same step and the batch structure changes
        // only once per `block_size` decode steps.
        let requests: Vec<Request> = (0..8u64)
            .map(|i| Request {
                id: i,
                arrival_s: 0.0,
                prompt: workloads::PromptSpec::from_parts([(1, 256), (100 + i, 256)]),
                decode_tokens: 256,
            })
            .collect();
        let mut pat = LazyPat::new();
        let result = simulate_serving(&config(), &mut pat, &requests);
        assert_eq!(result.unfinished, 0);
        let stats = result.step_sim;
        assert!(
            stats.hits + stats.misses > 0,
            "decode steps must be counted"
        );
        assert!(
            stats.hit_rate() > 0.8,
            "step-cache hit rate {:.3} (hits {}, misses {}) below the 80% bar",
            stats.hit_rate(),
            stats.hits,
            stats.misses
        );
    }

    #[test]
    fn scratch_arena_reuse_keeps_repeat_runs_bit_identical() {
        // Step-in-a-loop check for the per-engine scratch arena: reused
        // BlockTable capacity must never leak state between steps or
        // between runs.
        let requests = short_trace(5.0);
        let run = || {
            let mut pat = LazyPat::new();
            let mut engine = ServingEngine::new(config());
            for request in &requests {
                engine.submit(request.clone());
            }
            let mut steps = 0usize;
            while engine.step(&mut pat) == StepOutcome::Progress {
                steps += 1;
            }
            (engine.into_result(), steps)
        };
        let (a, steps_a) = run();
        let (b, steps_b) = run();
        assert_eq!(steps_a, steps_b);
        assert_eq!(a.per_request, b.per_request);
        assert_eq!(a.overhead_samples, b.overhead_samples);
        assert_eq!(a.step_sim, b.step_sim);
        assert_eq!(
            a.metrics.mean_tpot_ms.to_bits(),
            b.metrics.mean_tpot_ms.to_bits()
        );
        assert_eq!(
            a.metrics.p99_tpot_ms.to_bits(),
            b.metrics.p99_tpot_ms.to_bits()
        );
    }

    #[test]
    fn engine_exposes_cache_and_queue_introspection() {
        let requests = short_trace(4.0);
        let mut engine = ServingEngine::new(config());
        for request in &requests {
            engine.submit(request.clone());
        }
        assert_eq!(engine.core().outstanding(), requests.len());
        assert_eq!(engine.core().queue_depth(), 0);
        let mut pat = LazyPat::new();
        let mut saw_active = false;
        while engine.step(&mut pat) == StepOutcome::Progress {
            saw_active |= engine.core().num_active() > 0;
        }
        assert!(saw_active);
        assert!(
            engine.cache().stats().hit_tokens > 0,
            "trace shares prefixes"
        );
        assert_eq!(engine.core().completed_requests().len(), requests.len());
        assert_eq!(engine.core().outstanding(), 0);
    }
}
