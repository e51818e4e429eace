//! The analytical fidelity: closed-form replica timing, no kernel sim.
//!
//! [`AnalyticalReplica`] is the serving engine's scheduler,
//! [`serving::ReplicaCore`] — arrival intake, prefill-priority admission
//! with the vLLM KV watermark, the drain deadline, continuous batching and
//! recompute preemption under KV pressure — over a cheaper KV placement and
//! a closed-form decode price. Prefill comes from the engine's own
//! FLOPs/bandwidth roofline ([`serving::CostModel::prefill_ns`]), decode
//! attention from the fitted [`crate::calibration`] coefficients, and the
//! non-attention parts from [`serving::CostModel::decode_non_attention_ns`]
//! — the same step formula the exact engine uses, with the
//! kernel-simulated report replaced by the calibrated closed form.
//!
//! KV bookkeeping is block-count arithmetic (no block tables): each running
//! request pins `ceil(context / block_size)` blocks, and prefix warmth
//! lives in a bounded [`PrefixStore`] of block-chain hashes. Divergences
//! from exact fidelity are therefore: (a) timing is linear in batch and
//! KV-bytes rather than kernel-simulated, and (b) block sharing between
//! concurrent same-prefix requests is not modeled (admission is slightly
//! conservative). Fleet-level mean TTFT/TPOT stay within
//! [`crate::ANALYTICAL_REL_ERROR_BOUND`] of exact on the validation
//! scenarios; see DESIGN.md §2e for when this fidelity is sound.

use crate::calibration::{key_for, AttnCalibration, CalibrationTable};
use crate::{Fidelity, PrefixStore, ReplicaModel};
use kv_cache::{AllocError, IngestReport, PrefixProbe, Token, DEFAULT_BLOCK_SIZE};
use serving::{
    CostModel, KvPlacement, ReplicaCore, RequestMetrics, ServingConfig, SimulationResult,
    StepOutcome, StepSimStats,
};
use sim_core::SimTime;
use workloads::Request;

/// Blocks of prefix warmth an analytical replica tracks (bounded so a
/// 1k-replica fleet stays within a few hundred MB; the real KV pool is
/// usually larger, making warmth slightly pessimistic at huge working
/// sets).
pub const ANALYTICAL_PREFIX_STORE_BLOCKS: usize = 65_536;

/// A running request's KV, as block arithmetic: its context length and the
/// blocks it pins.
#[derive(Debug)]
struct Context {
    tokens: usize,
    blocks: usize,
}

/// Analytical KV placement: a block count against the pool capacity, plus
/// the prefix store that prices prefill hits.
#[derive(Debug)]
struct BlockCounts {
    prefix: PrefixStore,
    capacity: usize,
    used: usize,
}

impl KvPlacement for BlockCounts {
    type Seq = Context;

    fn free_blocks(&self) -> usize {
        self.capacity.saturating_sub(self.used)
    }

    fn place(&mut self, prompt: &[Token]) -> Option<(Context, usize)> {
        let blocks = prompt.len().div_ceil(self.prefix.block_size());
        if self.used + blocks > self.capacity {
            return None;
        }
        let hit = self.prefix.insert_sequence(prompt);
        self.used += blocks;
        let context = Context {
            tokens: prompt.len(),
            blocks,
        };
        Some((context, hit))
    }

    fn append(&mut self, seq: &mut Context) -> bool {
        let needs_block = seq.tokens.is_multiple_of(self.prefix.block_size());
        if needs_block && self.used >= self.capacity {
            return false;
        }
        seq.tokens += 1;
        if needs_block {
            seq.blocks += 1;
            self.used += 1;
        }
        true
    }

    fn release(&mut self, seq: &Context) -> Result<(), AllocError> {
        self.used = self.used.saturating_sub(seq.blocks);
        Ok(())
    }
}

/// A replica priced entirely by closed-form cost models.
#[derive(Debug)]
pub struct AnalyticalReplica {
    core: ReplicaCore<Context>,
    kv: BlockCounts,
    attn: AttnCalibration,
}

impl AnalyticalReplica {
    /// A fresh analytical replica. Attention coefficients come from the
    /// committed calibration table when the (model, GPU) pair is fitted,
    /// otherwise from the first-principles roofline fallback.
    pub fn new(config: ServingConfig) -> Self {
        let head = config.model.shard_head(config.parallel.tp);
        let key = key_for(head, &config.gpu);
        let attn = CalibrationTable::committed()
            .lookup(&key)
            .cloned()
            .unwrap_or_else(|| AttnCalibration::roofline(head, &config.gpu, 2));
        let prefix_blocks = config
            .kv_capacity_blocks
            .min(ANALYTICAL_PREFIX_STORE_BLOCKS);
        AnalyticalReplica {
            kv: BlockCounts {
                prefix: PrefixStore::new(prefix_blocks, DEFAULT_BLOCK_SIZE),
                capacity: config.kv_capacity_blocks,
                used: 0,
            },
            core: ReplicaCore::new(config),
            attn,
        }
    }
}

impl ReplicaModel for AnalyticalReplica {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Analytical
    }

    fn submit(&mut self, request: Request) {
        self.core.submit(request);
    }

    fn step(&mut self) -> StepOutcome {
        let attn = &self.attn;
        let mut batch = 0;
        let outcome = self.core.step(&mut self.kv, |core| {
            // The exact engine's step formula, with the kernel-simulated
            // report replaced by the calibration.
            batch = core.num_active();
            let (kv_total, kv_max) = core.running_kv().fold((0u64, 0u64), |(total, max), c| {
                (total + c.tokens as u64, max.max(c.tokens as u64))
            });
            let kernel_ns = attn.kernel_ns(batch, kv_total, kv_max);
            Ok(kernel_ns * core.config().model.num_layers as f64 + attn.sched_ns(batch))
        });
        // Decode appends count as prefix-store misses, one per running
        // request per decode step (`batch` stays 0 on other steps).
        self.kv.prefix.note_decode_tokens(batch as u64);
        outcome
    }

    fn clock(&self) -> SimTime {
        self.core.clock()
    }

    fn num_active(&self) -> usize {
        self.core.num_active()
    }

    fn outstanding(&self) -> usize {
        self.core.outstanding()
    }

    fn block_size(&self) -> usize {
        self.kv.prefix.block_size()
    }

    fn prefix_overlap(&self, probe: &mut PrefixProbe<'_>) -> usize {
        self.kv.prefix.overlap(probe)
    }

    fn cache_hit_miss_tokens(&self) -> (u64, u64) {
        self.kv.prefix.hit_miss_tokens()
    }

    fn resident_block_hashes(&self) -> Vec<u64> {
        // PrefixStore and CacheManager name blocks by the same chain hash,
        // but reporting these would change `duplicated_kv_blocks` for every
        // analytical and mixed-fidelity cluster. Analytical replicas keep
        // opting out of cross-replica duplication accounting.
        Vec::new()
    }

    fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport {
        self.kv.prefix.ingest_prefix(tokens)
    }

    fn cost_model(&self) -> &CostModel {
        self.core.cost_model()
    }

    fn completed_requests(&self) -> &[RequestMetrics] {
        self.core.completed_requests()
    }

    fn set_speed_factor(&mut self, factor: f64) {
        self.core.set_speed_factor(factor);
    }

    fn speed_factor(&self) -> f64 {
        self.core.speed_factor()
    }

    fn begin_drain(&mut self) {
        self.core.begin_drain();
    }

    fn take_incomplete(&mut self) -> Vec<Request> {
        self.core.take_incomplete(&mut self.kv)
    }

    fn step_sim_stats(&self) -> StepSimStats {
        StepSimStats::default()
    }

    fn into_result(self: Box<Self>) -> SimulationResult {
        self.core.into_result(Vec::new(), StepSimStats::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::ModelSpec;
    use sim_core::cast::u64_to_usize;
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
                    256 + u64_to_usize(i % 5) * 100,
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
