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
//! [`ServingEngine`], which external drivers — notably the multi-replica
//! cluster simulator — advance one scheduling iteration at a time via
//! [`ServingEngine::step`], interleaving [`ServingEngine::submit`] calls as
//! routed requests arrive. `simulate_serving` is a thin wrapper over the
//! steppable engine, so both paths execute identical scheduling decisions.

use crate::attention::ServingAttention;
use crate::costs::CostModel;
use crate::metrics::{AggregateMetrics, RequestMetrics};
use crate::model::ModelSpec;
use crate::queue::RequestQueue;
use attn_kernel::{batch_timing_fingerprint, simulate_plan_trusted, DecodeBatch};
use attn_kernel::{StepSimCache, StepSimReport, StepSimStats};
use attn_math::HeadConfig;
use kv_cache::{AllocError, BlockTable, CacheManager, DEFAULT_BLOCK_SIZE};
use serde::Serialize;
use sim_core::{SimDuration, SimTime};
use sim_gpu::{gpu_model_from_env, GpuSpec};
use std::ops::ControlFlow;
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

#[derive(Debug)]
struct Active {
    req_idx: usize,
    table: BlockTable,
    produced: usize,
    target: usize,
    first_token: SimTime,
    arrival: SimTime,
}

/// A steppable continuous-batching serving engine over one replica.
///
/// Holds the complete scheduler state — KV cache, request queue, decode
/// batch, virtual clock, and metric accumulators — and advances one
/// scheduling iteration per [`step`](ServingEngine::step) call. Arrival
/// intake and admission are [`RequestQueue`]'s, shared with every replica
/// fidelity. The attention backend is passed into `step` rather than owned,
/// so a fleet driver can keep engines and backends in separate collections.
///
/// When the KV pool runs out, the engine preempts the most recently arrived
/// running request (vLLM's recompute policy): its blocks are freed and it
/// restarts from prefill once space frees up.
#[derive(Debug)]
pub struct ServingEngine {
    config: ServingConfig,
    cost: CostModel,
    shard_head: HeadConfig,
    cache: CacheManager,
    queue: RequestQueue,
    active: Vec<Active>,
    completed: Vec<RequestMetrics>,
    clock: SimTime,
    decode_steps: usize,
    batch_acc: usize,
    attn_time: SimDuration,
    total_time: SimDuration,
    overhead_samples: Vec<(f64, f64)>,
    preemptions: u64,
    speed_factor: f64,
    draining: bool,
    step_cache: StepSimCache,
    /// Scratch arena: block-table vector recycled across decode steps so
    /// the per-step `DecodeBatch` rebuild allocates nothing in steady state.
    scratch_tables: Vec<BlockTable>,
    /// First invariant fault that halted this replica, if any.
    fault: Option<EngineError>,
}

impl ServingEngine {
    /// Creates an idle engine with an empty KV cache.
    pub fn new(config: ServingConfig) -> Self {
        let tp = config.parallel.tp;
        // Attention heads shard across TP ranks; each rank's kernel handles an
        // equal slice, so one rank's latency is the attention latency.
        let full_head = config.model.head;
        let shard_head = HeadConfig::new(
            (full_head.num_heads() / tp).max(1),
            (full_head.num_kv_heads() / tp).max(1),
            full_head.head_dim(),
        );
        let cost = CostModel::with_tp(config.model, config.gpu.clone(), tp);
        let cache = CacheManager::new(config.kv_capacity_blocks, DEFAULT_BLOCK_SIZE);
        ServingEngine {
            config,
            cost,
            shard_head,
            cache,
            queue: RequestQueue::default(),
            active: Vec::new(),
            completed: Vec::new(),
            clock: SimTime::ZERO,
            decode_steps: 0,
            batch_acc: 0,
            attn_time: SimDuration::ZERO,
            total_time: SimDuration::ZERO,
            overhead_samples: Vec::new(),
            preemptions: 0,
            speed_factor: 1.0,
            draining: false,
            step_cache: StepSimCache::default(),
            scratch_tables: Vec::new(),
            fault: None,
        }
    }

    /// Records the first fault and discards later ones: the first broken
    /// invariant is the cause, anything after it is a symptom of the
    /// already-corrupt state.
    fn record_fault(&mut self, fault: EngineError) {
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }

    fn record_cache_fault(&mut self, op: &'static str, detail: impl std::fmt::Display) {
        self.record_fault(EngineError::Cache {
            op,
            detail: detail.to_string(),
        });
    }

    /// Submits a request. Requests must be submitted in arrival order; the
    /// engine admits each once its virtual clock reaches the arrival time.
    ///
    /// # Panics
    ///
    /// Panics if `request` arrives before a previously submitted request,
    /// or if the engine is draining (a draining replica must not receive
    /// new work; route it elsewhere).
    pub fn submit(&mut self, request: Request) {
        assert!(!self.draining, "cannot submit to a draining engine");
        self.queue.push(request);
    }

    /// The engine's virtual clock.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Requests arrived but not yet admitted to the decode batch.
    pub fn queue_depth(&self) -> usize {
        self.queue.waiting_len()
    }

    /// Requests currently in the decode batch.
    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    /// Submitted requests not yet completed or dropped (includes requests
    /// whose arrival time is still in the engine's future).
    pub fn outstanding(&self) -> usize {
        self.active.len() + self.queue.pending()
    }

    /// The replica's KV cache, for read-only introspection (prefix-overlap
    /// probes, hit-rate stats, residency queries) by routers and metrics.
    pub fn cache(&self) -> &CacheManager {
        &self.cache
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

    /// The cost model pricing this replica's prefill and decode steps (used
    /// by the controller's migrate-vs-recompute decision).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Per-request records of requests completed so far.
    pub fn completed_requests(&self) -> &[RequestMetrics] {
        &self.completed
    }

    /// Ids of the requests currently in the decode batch, in batch order.
    pub fn active_request_ids(&self) -> Vec<u64> {
        self.active
            .iter()
            .map(|a| self.queue.request(a.req_idx).id)
            .collect()
    }

    /// Sets the replica's speed factor: 1.0 is nominal, 0.5 makes every
    /// prefill and decode step take twice as long (a straggler), values
    /// above 1.0 model a faster part. Virtual time already spent is not
    /// rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn set_speed_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "speed factor must be positive and finite"
        );
        self.speed_factor = factor;
    }

    /// The replica's current speed factor (1.0 = nominal).
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// Puts the engine into drain mode: it keeps serving everything already
    /// submitted but rejects new submissions. Used for graceful scale-down —
    /// the fleet controller stops routing here, waits for
    /// [`outstanding`](ServingEngine::outstanding) to reach zero, then
    /// retires the replica.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Whether the engine is in drain mode.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Removes and returns every submitted-but-incomplete request — queued,
    /// decoding, or not yet arrived — in arrival order, for
    /// resubmission on another replica. Decoding requests are evicted
    /// through the same path as KV-pressure preemption (blocks freed,
    /// partial output discarded), so a requeued request restarts from
    /// prefill wherever it lands next; these evictions are failover
    /// requeues, not pressure preemptions, and do not count in
    /// [`SimulationResult::preemptions`].
    pub fn take_incomplete(&mut self) -> Vec<Request> {
        let mut indices: Vec<usize> = Vec::new();
        let mut free_fault: Option<AllocError> = None;
        for a in self.active.drain(..) {
            // The request is still handed back for resubmission elsewhere;
            // the freeing fault halts only this (now-retiring) replica.
            if let Err(e) = self.cache.free_sequence(&a.table) {
                free_fault = Some(e);
            }
            indices.push(a.req_idx);
        }
        if let Some(e) = free_fault {
            self.record_cache_fault("free_sequence (failover eviction)", e);
        }
        self.queue.take_incomplete(indices)
    }

    /// Frees the most recently arrived active request and requeues it for
    /// recompute. Returns the preempted request index, or `None`.
    fn preempt_latest(&mut self) -> Option<usize> {
        let victim = self
            .active
            .iter()
            .enumerate()
            .max_by_key(|(_, a)| a.arrival)?
            .0;
        let a = self.active.swap_remove(victim);
        // A failed free corrupts the pool accounting: record the fault (the
        // step loop halts on it) but still requeue the victim, so it is
        // counted as unfinished rather than silently lost.
        if let Err(e) = self.cache.free_sequence(&a.table) {
            self.record_cache_fault("free_sequence (preemption)", e);
        }
        self.queue.requeue_front(a.req_idx);
        Some(a.req_idx)
    }

    /// Runs one scheduling iteration: admit arrivals, then either prefill,
    /// decode, or jump the idle clock forward to the next pending arrival.
    ///
    /// # Panics
    ///
    /// Panics if a single request exceeds the KV pool even with every other
    /// request preempted.
    pub fn step(&mut self, attention: &mut dyn ServingAttention) -> StepOutcome {
        // A faulted replica is halted: no further scheduling, in-flight
        // requests surface as unfinished in `into_result`.
        if self.fault.is_some() {
            return StepOutcome::Idle;
        }
        if let ControlFlow::Break(outcome) =
            self.queue
                .open_step(&mut self.clock, !self.active.is_empty(), &self.config)
        {
            return outcome;
        }

        let admitted = self
            .queue
            .select_prefills(&self.config, self.active.len(), || {
                self.cache.available_blocks()
            });
        if !admitted.is_empty() {
            // Prefix caching discounts prefill compute (vLLM APC /
            // SGLang): prompt blocks already resident in the KV cache are
            // reused, so only each request's uncached suffix is computed.
            // At least one token is always computed — the final partial
            // block is never cached and the request needs fresh logits.
            let mut computed_tokens = 0usize;
            let mut placed = Vec::with_capacity(admitted.len());
            let mut admitting = admitted.into_iter();
            'admit: while let Some((idx, prompt_tokens)) = admitting.next() {
                let tokens = self.queue.request(idx).prompt.to_tokens()[..prompt_tokens].to_vec();
                let (table, hit_tokens) = loop {
                    let hits_before = self.cache.stats().hit_tokens;
                    match self.cache.insert_sequence(&tokens) {
                        Ok(t) => {
                            let hit = self.cache.stats().hit_tokens - hits_before;
                            break (t, hit as usize);
                        }
                        Err(_) => {
                            self.preemptions += 1;
                            if self.preempt_latest().is_none() {
                                panic!("a single request exceeds the KV pool");
                            }
                            if self.fault.is_some() {
                                // Preemption hit a cache fault: freeing made
                                // no room, so retrying can spin forever.
                                // Restore the un-admitted requests to the
                                // waiting queue (they count as unfinished)
                                // and halt.
                                let rest: Vec<usize> = std::iter::once(idx)
                                    .chain(admitting.by_ref().map(|(i, _)| i))
                                    .collect();
                                for &r in rest.iter().rev() {
                                    self.queue.requeue_front(r);
                                }
                                break 'admit;
                            }
                        }
                    }
                };
                computed_tokens += prompt_tokens.saturating_sub(hit_tokens).max(1);
                placed.push((idx, table));
            }
            self.clock +=
                SimDuration::from_ns_f64(self.cost.prefill_ns(computed_tokens) / self.speed_factor);
            for (idx, table) in placed {
                let req = self.queue.request(idx);
                let arrival = SimTime::from_secs_f64(req.arrival_s);
                if req.decode_tokens <= 1 {
                    let record = RequestMetrics::prefill_only(req.id, arrival, self.clock);
                    if let Err(e) = self.cache.free_sequence(&table) {
                        // Completion metrics still count; the fault halts
                        // the replica on the next step.
                        self.record_cache_fault("free_sequence (prefill-only)", e);
                    }
                    self.completed.push(record);
                } else {
                    let target = req.decode_tokens;
                    self.active.push(Active {
                        req_idx: idx,
                        table,
                        produced: 1,
                        target,
                        first_token: self.clock,
                        arrival,
                    });
                }
            }
            return StepOutcome::Progress;
        }
        if self.active.is_empty() {
            // Everything waiting was dropped or nothing is admissible yet.
            return StepOutcome::Progress;
        }
        // Nothing admissible right now: decode so departures can free KV
        // blocks for the waiting requests. The block-table vector comes from
        // the scratch arena (recovered from the batch below), so steady-state
        // decode allocates no fresh tables.
        let mut tables = std::mem::take(&mut self.scratch_tables);
        tables.truncate(self.active.len());
        for (i, a) in self.active.iter().enumerate() {
            if i < tables.len() {
                tables[i].clone_from(&a.table);
            } else {
                tables.push(a.table.clone());
            }
        }
        let batch = DecodeBatch::new(self.shard_head, tables, 2);
        // Step-simulation memoization (serving-level §5.1): consecutive
        // steps with identical block-granularity structure replay the
        // cached timing report and skip both the pack scheduler and the
        // sim-gpu event loop. Any structural change — arrival, departure,
        // preemption, a table growing a block — changes the fingerprint.
        let key = (
            batch_timing_fingerprint(&batch, &self.config.gpu),
            backend_fingerprint(attention),
        );
        let (report, cache_hit) = match self.step_cache.get(key) {
            Some(report) => (report, true),
            None => {
                let plan = match attention.plan_step(&batch, &self.config.gpu) {
                    Ok(plan) => plan,
                    Err(e) => {
                        // No feasible tile for this device/geometry: record
                        // the typed failure and halt the replica cleanly.
                        // In-flight requests surface as `unfinished`.
                        self.record_fault(EngineError::Plan(e.to_string()));
                        self.scratch_tables = batch.into_tables();
                        return StepOutcome::Idle;
                    }
                };
                let full = match simulate_plan_trusted(&batch, &plan, &self.config.gpu) {
                    Ok(full) => full,
                    Err(e) => {
                        // The backend produced a plan the kernel simulator
                        // rejects — same clean halt as a planning failure.
                        self.record_fault(EngineError::Simulate(e.to_string()));
                        self.scratch_tables = batch.into_tables();
                        return StepOutcome::Idle;
                    }
                };
                let report = StepSimReport {
                    total_ns: full.total_ns,
                    scheduling_ns: full.scheduling_ns,
                };
                self.step_cache.insert(key, report);
                (report, false)
            }
        };
        // Kernel time repeats per layer; exposed CPU scheduling is paid once
        // per step (the plan's metadata is shared across layers).
        let attention_ns = (report.total_ns - report.scheduling_ns)
            * self.config.model.num_layers as f64
            + report.scheduling_ns;
        // A straggler (speed factor < 1) stretches every step it executes.
        let attention_ns = attention_ns / self.speed_factor;
        let step_ns = attention_ns
            + self
                .cost
                .decode_non_attention_ns(batch.num_queries(), self.config.parallel.pp)
                / self.speed_factor;
        // Fig. 16 samples per scheduler *invocation*: a cached step ran no
        // scheduler, so there is nothing to overlap with pre-attention work.
        if !cache_hit {
            if let Some(sched) = attention.scheduling_cost_ns(&batch) {
                self.overhead_samples
                    .push((sched, self.cost.pre_attention_ns(batch.num_queries())));
            }
        }
        // Quantize the step once onto the integer spine; the attention share
        // is quantized with the same rounding so the fraction stays honest.
        let step = SimDuration::from_ns_f64(step_ns);
        self.clock += step;
        self.decode_steps += 1;
        self.batch_acc += batch.num_queries();
        self.attn_time += SimDuration::from_ns_f64(attention_ns);
        self.total_time += step;
        // Return the table vector to the scratch arena; it keeps its
        // capacity for the next step.
        self.scratch_tables = batch.into_tables();

        let mut i = 0;
        while i < self.active.len() {
            if self.fault.is_some() {
                // A cache fault mid-append: stop mutating the pool; the
                // replica halts on the next step call.
                break;
            }
            // Append this request's new token, preempting the youngest
            // request under KV pressure (possibly this one).
            let my_req = self.active[i].req_idx;
            let mut appended = false;
            // The loop exits without appending when this request was itself
            // preempted (its index no longer appears in the active set).
            while let Some(pos) = self.active.iter().position(|a| a.req_idx == my_req) {
                i = pos;
                if self.cache.append_token(&mut self.active[i].table).is_ok() {
                    appended = true;
                    break;
                }
                self.preemptions += 1;
                if self.preempt_latest().is_none() {
                    panic!("a single request exceeds the KV pool");
                }
                if self.fault.is_some() {
                    break;
                }
            }
            if !appended {
                // Restart scanning: indices shifted and this slot now holds a
                // different (already-processed or pending) request. The next
                // decode step will cover any request we skip here.
                continue;
            }
            self.active[i].produced += 1;
            if self.active[i].produced >= self.active[i].target {
                let a = self.active.swap_remove(i);
                if let Err(e) = self.cache.free_sequence(&a.table) {
                    self.record_cache_fault("free_sequence (completion)", e);
                }
                self.completed.push(RequestMetrics::decoded(
                    self.queue.request(a.req_idx).id,
                    a.arrival,
                    a.first_token,
                    self.clock,
                    a.produced,
                ));
            } else {
                i += 1;
            }
        }
        StepOutcome::Progress
    }

    /// Step-simulation cache counters so far (hits skip the sim-gpu event
    /// loop; see [`StepSimCache`]).
    pub fn step_sim_stats(&self) -> StepSimStats {
        self.step_cache.stats()
    }

    /// Finalizes the simulation, consuming the engine. Requests still in
    /// flight (or never admitted) count as unfinished.
    pub fn into_result(self) -> SimulationResult {
        SimulationResult {
            metrics: AggregateMetrics::from_requests(&self.completed),
            per_request: self.completed,
            decode_steps: self.decode_steps,
            mean_batch: if self.decode_steps == 0 {
                0.0
            } else {
                self.batch_acc as f64 / self.decode_steps as f64
            },
            attention_fraction: if self.total_time == SimDuration::ZERO {
                0.0
            } else {
                self.attn_time.as_ns_f64() / self.total_time.as_ns_f64()
            },
            overhead_samples: self.overhead_samples,
            step_sim: self.step_cache.stats(),
            unfinished: self.active.len() + self.queue.pending(),
            preemptions: self.preemptions,
            dropped: self.queue.dropped(),
            plan_error: match &self.fault {
                Some(EngineError::Plan(e)) => Some(e.clone()),
                _ => None,
            },
            fault: self.fault.as_ref().map(|f| f.to_string()),
        }
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
/// Panics if requests are unsorted, or if a single request cannot fit in
/// the KV pool even with every other request preempted.
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
        assert_eq!(result.dropped as usize, requests.len());
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
            while engine.clock() < arrival {
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
        let done_before = engine.completed_requests().len();
        assert!(done_before > 0 && done_before < requests.len(), "mid-run");
        let free_before = engine.cache().available_blocks();
        let requeued = engine.take_incomplete();
        assert_eq!(done_before + requeued.len(), requests.len());
        assert!(engine.cache().available_blocks() >= free_before);
        assert_eq!(engine.outstanding(), 0);
        // Requeued requests come back in arrival order, ready to resubmit.
        assert!(requeued
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s));
        // The engine itself is still serviceable and idle.
        while engine.step(&mut pat) == StepOutcome::Progress {}
        assert_eq!(engine.completed_requests().len(), done_before);
    }

    #[test]
    fn drain_mode_finishes_existing_work_and_rejects_new() {
        let requests = short_trace(3.0);
        let mut engine = ServingEngine::new(config());
        for request in &requests {
            engine.submit(request.clone());
        }
        engine.begin_drain();
        assert!(engine.is_draining());
        let mut pat = LazyPat::new();
        while engine.step(&mut pat) == StepOutcome::Progress {}
        assert_eq!(engine.outstanding(), 0);
        assert_eq!(engine.completed_requests().len(), requests.len());
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
        assert_eq!(engine.outstanding(), requests.len());
        assert_eq!(engine.queue_depth(), 0);
        let mut pat = LazyPat::new();
        let mut saw_active = false;
        while engine.step(&mut pat) == StepOutcome::Progress {
            saw_active |= engine.num_active() > 0;
        }
        assert!(saw_active);
        assert!(
            engine.cache().stats().hit_tokens > 0,
            "trace shares prefixes"
        );
        assert_eq!(engine.completed_requests().len(), requests.len());
        assert_eq!(engine.outstanding(), 0);
    }
}
