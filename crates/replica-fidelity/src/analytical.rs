//! The analytical fidelity: closed-form replica timing, no kernel sim.
//!
//! [`AnalyticalReplica`] runs the serving engine's scheduling policy —
//! arrival intake, prefill-priority admission with the vLLM KV watermark,
//! and the drain deadline, all from [`serving::RequestQueue`] — with
//! continuous batching and recompute preemption under KV pressure, but
//! prices every step with closed forms instead of simulating kernels:
//! prefill from the engine's own FLOPs/bandwidth roofline
//! ([`serving::CostModel::prefill_ns`]), decode attention from the fitted
//! [`crate::calibration`] coefficients, and the non-attention parts from
//! [`serving::CostModel::decode_non_attention_ns`] — the same step formula
//! the exact engine uses, with the kernel-simulated report replaced by the
//! calibrated closed form. A decode step costs O(batch) arithmetic.
//!
//! KV bookkeeping is block-count arithmetic (no block tables): each active
//! request pins `ceil(context / block_size)` blocks, and prefix warmth
//! lives in a bounded [`PrefixStore`] of block-chain hashes. Divergences
//! from exact fidelity are therefore: (a) timing is linear in batch and
//! KV-bytes rather than kernel-simulated, and (b) block sharing between
//! concurrent same-prefix requests is not modeled (admission is slightly
//! conservative). Fleet-level mean TTFT/TPOT stay within
//! [`crate::ANALYTICAL_REL_ERROR_BOUND`] of exact on the validation
//! scenarios; see DESIGN.md §2e for when this fidelity is sound.

use crate::calibration::{key_for, shard_head, AttnCalibration, CalibrationTable};
use crate::{Fidelity, PrefixStore, ReplicaModel};
use kv_cache::{CacheManager, IngestReport, PrefixProbe, Token, DEFAULT_BLOCK_SIZE};
use serving::{
    AggregateMetrics, CostModel, RequestMetrics, RequestQueue, ServingConfig, SimulationResult,
    StepOutcome, StepSimStats,
};
use sim_core::{SimDuration, SimTime};
use std::ops::ControlFlow;
use workloads::Request;

/// Blocks of prefix warmth an analytical replica tracks (bounded so a
/// 1k-replica fleet stays within a few hundred MB; the real KV pool is
/// usually larger, making warmth slightly pessimistic at huge working
/// sets).
pub const ANALYTICAL_PREFIX_STORE_BLOCKS: usize = 65_536;

#[derive(Debug, Clone)]
struct ActiveLite {
    req_idx: usize,
    produced: usize,
    target: usize,
    context_tokens: usize,
    blocks: usize,
    first_token: SimTime,
    arrival: SimTime,
}

/// A replica priced entirely by closed-form cost models.
#[derive(Debug)]
pub struct AnalyticalReplica {
    config: ServingConfig,
    cost: CostModel,
    attn: AttnCalibration,
    prefix: PrefixStore,
    queue: RequestQueue,
    active: Vec<ActiveLite>,
    completed: Vec<RequestMetrics>,
    clock: SimTime,
    decode_steps: usize,
    batch_acc: usize,
    attn_time: SimDuration,
    total_time: SimDuration,
    preemptions: u64,
    speed_factor: f64,
    draining: bool,
    used_blocks: usize,
}

impl AnalyticalReplica {
    /// A fresh analytical replica. Attention coefficients come from the
    /// committed calibration table when the (model, GPU) pair is fitted,
    /// otherwise from the first-principles roofline fallback.
    pub fn new(config: ServingConfig) -> Self {
        let tp = config.parallel.tp;
        let head = shard_head(&config.model, tp);
        let key = key_for(head, &config.gpu);
        let attn = CalibrationTable::committed()
            .lookup(&key)
            .cloned()
            .unwrap_or_else(|| AttnCalibration::roofline(head, &config.gpu, 2));
        let cost = CostModel::with_tp(config.model, config.gpu.clone(), tp);
        let prefix_blocks = config
            .kv_capacity_blocks
            .min(ANALYTICAL_PREFIX_STORE_BLOCKS);
        AnalyticalReplica {
            prefix: PrefixStore::new(prefix_blocks, DEFAULT_BLOCK_SIZE),
            cost,
            attn,
            config,
            queue: RequestQueue::default(),
            active: Vec::new(),
            completed: Vec::new(),
            clock: SimTime::ZERO,
            decode_steps: 0,
            batch_acc: 0,
            attn_time: SimDuration::ZERO,
            total_time: SimDuration::ZERO,
            preemptions: 0,
            speed_factor: 1.0,
            draining: false,
            used_blocks: 0,
        }
    }

    /// The attention calibration pricing this replica's decode steps.
    pub fn calibration(&self) -> &AttnCalibration {
        &self.attn
    }

    /// Frees the most recently arrived active request and requeues it for
    /// recompute (the engine's preemption policy). Returns its index.
    fn preempt_latest(&mut self) -> Option<usize> {
        let victim = self
            .active
            .iter()
            .enumerate()
            .max_by_key(|(_, a)| a.arrival)?
            .0;
        let a = self.active.swap_remove(victim);
        self.used_blocks = self.used_blocks.saturating_sub(a.blocks);
        self.queue.requeue_front(a.req_idx);
        Some(a.req_idx)
    }
}

impl ReplicaModel for AnalyticalReplica {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Analytical
    }

    fn submit(&mut self, request: Request) {
        assert!(!self.draining, "cannot submit to a draining replica");
        self.queue.push(request);
    }

    fn step(&mut self) -> StepOutcome {
        if let ControlFlow::Break(outcome) =
            self.queue
                .open_step(&mut self.clock, !self.active.is_empty(), &self.config)
        {
            return outcome;
        }

        let bs = self.prefix.block_size();
        let capacity = self.config.kv_capacity_blocks;
        let admitted = self
            .queue
            .select_prefills(&self.config, self.active.len(), || {
                capacity.saturating_sub(self.used_blocks)
            });
        if !admitted.is_empty() {
            let mut computed_tokens = 0usize;
            for &(idx, prompt_tokens) in &admitted {
                let tokens = self.queue.request(idx).prompt.to_tokens();
                let hit = self.prefix.insert_sequence(&tokens[..prompt_tokens]);
                computed_tokens += prompt_tokens.saturating_sub(hit).max(1);
            }
            self.clock +=
                SimDuration::from_ns_f64(self.cost.prefill_ns(computed_tokens) / self.speed_factor);
            for (idx, prompt_tokens) in admitted {
                let req = self.queue.request(idx);
                let arrival = SimTime::from_secs_f64(req.arrival_s);
                if req.decode_tokens <= 1 {
                    self.completed
                        .push(RequestMetrics::prefill_only(req.id, arrival, self.clock));
                } else {
                    let blocks = prompt_tokens.div_ceil(bs);
                    self.used_blocks += blocks;
                    let target = req.decode_tokens;
                    self.active.push(ActiveLite {
                        req_idx: idx,
                        produced: 1,
                        target,
                        context_tokens: prompt_tokens,
                        blocks,
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

        // Decode step: closed-form pricing with the exact engine's step
        // formula, the kernel-simulated report replaced by the calibration.
        let batch = self.active.len();
        let kv_total: u64 = self.active.iter().map(|a| a.context_tokens as u64).sum();
        let kv_max: u64 = self
            .active
            .iter()
            .map(|a| a.context_tokens as u64)
            .max()
            .unwrap_or(0);
        let kernel_ns = self.attn.kernel_ns(batch, kv_total, kv_max);
        let sched_ns = self.attn.sched_ns(batch);
        let attention_ns =
            (kernel_ns * self.config.model.num_layers as f64 + sched_ns) / self.speed_factor;
        let step_ns = attention_ns
            + self
                .cost
                .decode_non_attention_ns(batch, self.config.parallel.pp)
                / self.speed_factor;
        let step = SimDuration::from_ns_f64(step_ns);
        self.clock += step;
        self.decode_steps += 1;
        self.batch_acc += batch;
        self.attn_time += SimDuration::from_ns_f64(attention_ns);
        self.total_time += step;
        self.prefix.note_decode_tokens(batch as u64);

        // Grow each request by one token, preempting the youngest under KV
        // pressure (the engine's recompute policy, on block arithmetic).
        let mut i = 0;
        while i < self.active.len() {
            let my_req = self.active[i].req_idx;
            let mut appended = false;
            while let Some(pos) = self.active.iter().position(|a| a.req_idx == my_req) {
                i = pos;
                let needs_block = self.active[i]
                    .context_tokens
                    .is_multiple_of(self.prefix.block_size());
                if !needs_block || self.used_blocks < capacity {
                    self.active[i].context_tokens += 1;
                    if needs_block {
                        self.active[i].blocks += 1;
                        self.used_blocks += 1;
                    }
                    appended = true;
                    break;
                }
                self.preemptions += 1;
                if self.preempt_latest().is_none() {
                    break;
                }
            }
            if !appended {
                continue;
            }
            self.active[i].produced += 1;
            if self.active[i].produced >= self.active[i].target {
                let a = self.active.swap_remove(i);
                self.used_blocks = self.used_blocks.saturating_sub(a.blocks);
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

    fn clock(&self) -> SimTime {
        self.clock
    }

    fn config(&self) -> &ServingConfig {
        &self.config
    }

    fn queue_depth(&self) -> usize {
        self.queue.waiting_len()
    }

    fn num_active(&self) -> usize {
        self.active.len()
    }

    fn outstanding(&self) -> usize {
        self.active.len() + self.queue.pending()
    }

    fn cache(&self) -> Option<&CacheManager> {
        None
    }

    fn block_size(&self) -> usize {
        self.prefix.block_size()
    }

    fn prefix_overlap(&self, probe: &mut PrefixProbe<'_>) -> usize {
        self.prefix.overlap(probe)
    }

    fn cache_hit_rate(&self) -> f64 {
        self.prefix.hit_rate()
    }

    fn cache_hit_miss_tokens(&self) -> (u64, u64) {
        self.prefix.hit_miss_tokens()
    }

    fn resident_block_hashes(&self) -> Vec<u64> {
        // PrefixStore and CacheManager name blocks by the same chain hash,
        // but reporting these would change `duplicated_kv_blocks` for every
        // analytical and mixed-fidelity cluster. Analytical replicas keep
        // opting out of cross-replica duplication accounting.
        Vec::new()
    }

    fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport {
        self.prefix.ingest_prefix(tokens)
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn completed_requests(&self) -> &[RequestMetrics] {
        &self.completed
    }

    fn set_speed_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "speed factor must be positive and finite"
        );
        self.speed_factor = factor;
    }

    fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    fn begin_drain(&mut self) {
        self.draining = true;
    }

    fn is_draining(&self) -> bool {
        self.draining
    }

    fn take_incomplete(&mut self) -> Vec<Request> {
        self.used_blocks = 0;
        self.queue
            .take_incomplete(self.active.drain(..).map(|a| a.req_idx))
    }

    fn step_sim_stats(&self) -> StepSimStats {
        StepSimStats::default()
    }

    fn into_result(self: Box<Self>) -> SimulationResult {
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
            overhead_samples: Vec::new(),
            step_sim: StepSimStats::default(),
            unfinished: self.active.len() + self.queue.pending(),
            preemptions: self.preemptions,
            dropped: self.queue.dropped(),
            plan_error: None,
            fault: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::ModelSpec;
    use workloads::PromptSpec;

    fn config() -> ServingConfig {
        ServingConfig::single_gpu(ModelSpec::llama3_8b())
    }

    fn request(id: u64, arrival_s: f64, prompt: usize, decode: usize) -> Request {
        Request {
            id,
            arrival_s,
            prompt: PromptSpec::from_parts([(id + 1, prompt)]),
            decode_tokens: decode,
        }
    }

    fn run_to_idle(r: &mut AnalyticalReplica) {
        while r.step() == StepOutcome::Progress {}
    }

    #[test]
    fn completes_requests_with_plausible_latencies() {
        let mut r = AnalyticalReplica::new(config());
        for i in 0..8 {
            r.submit(request(i, i as f64 * 0.05, 512, 32));
        }
        run_to_idle(&mut r);
        let result = Box::new(r).into_result();
        assert_eq!(result.per_request.len(), 8);
        assert_eq!(result.unfinished, 0);
        for m in &result.per_request {
            // TTFT at least one prefill (~10ms at 512 tokens on A100),
            // TPOT within an order of magnitude of the exact engine's
            // ~10-40ms decode steps.
            assert!(m.ttft_ns > 1e6, "ttft {}", m.ttft_ns);
            assert!(m.tpot_ns > 1e6 && m.tpot_ns < 1e9, "tpot {}", m.tpot_ns);
        }
    }

    #[test]
    fn repeat_runs_are_bit_identical() {
        let run = || {
            let mut r = AnalyticalReplica::new(config());
            for i in 0..32 {
                r.submit(request(
                    i,
                    i as f64 * 0.02,
                    256 + (i as usize % 5) * 100,
                    16,
                ));
            }
            run_to_idle(&mut r);
            let result = Box::new(r).into_result();
            serde_json::to_string(&result.per_request).unwrap_or_default()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_prefixes_cut_ttft_via_the_prefix_store() {
        let shared = |id: u64, arrival: f64| Request {
            id,
            arrival_s: arrival,
            prompt: PromptSpec::from_parts([(7, 2048), (100 + id, 32)]),
            decode_tokens: 8,
        };
        let mut r = AnalyticalReplica::new(config());
        r.submit(shared(0, 0.0));
        r.submit(shared(1, 5.0)); // Arrives after the first finishes.
        run_to_idle(&mut r);
        let result = Box::new(r).into_result();
        assert_eq!(result.per_request.len(), 2);
        let first = &result.per_request[0];
        let second = &result.per_request[1];
        assert!(
            second.ttft_ns < first.ttft_ns * 0.5,
            "warm prefix must discount prefill: {} vs {}",
            second.ttft_ns,
            first.ttft_ns
        );
    }

    #[test]
    fn kv_pressure_preempts_and_still_completes() {
        let mut cfg = config();
        cfg.kv_capacity_blocks = 200; // Tiny pool forces preemption.
        let mut r = AnalyticalReplica::new(cfg);
        for i in 0..6 {
            r.submit(request(i, 0.0, 512, 256));
        }
        run_to_idle(&mut r);
        let result = Box::new(r).into_result();
        assert_eq!(result.per_request.len() + result.unfinished, 6);
        assert!(result.preemptions > 0, "tiny pool must preempt");
    }

    #[test]
    fn drain_and_take_incomplete_conserve_requests() {
        let mut r = AnalyticalReplica::new(config());
        for i in 0..10 {
            r.submit(request(i, i as f64, 256, 64));
        }
        // Step a little, then pull everything incomplete.
        for _ in 0..20 {
            r.step();
        }
        let completed = r.completed_requests().len();
        let incomplete = r.take_incomplete();
        assert_eq!(completed + incomplete.len(), 10);
        assert_eq!(r.outstanding(), 0);
        // Arrival order is preserved.
        assert!(incomplete
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s));
    }
}
