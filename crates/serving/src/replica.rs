//! The replica step every fidelity runs.
//!
//! [`ReplicaCore`] is one replica's continuous-batching scheduler: request
//! queue, running batch, clock, step accounting, recompute preemption,
//! completion records and the final [`SimulationResult`]. A fidelity
//! supplies only where KV lives (a [`KvPlacement`]) and what one decode
//! step's attention costs (a closure passed to [`ReplicaCore::step`]), so
//! [`crate::ServingEngine`] and the analytical replica cannot drift apart.

use crate::costs::CostModel;
use crate::engine::{EngineError, ServingConfig, SimulationResult, StepOutcome};
use crate::metrics::{AggregateMetrics, RequestMetrics};
use crate::queue::RequestQueue;
use attn_kernel::StepSimStats;
use kv_cache::{AllocError, Token};
use sim_core::{SimDuration, SimTime};
use std::ops::ControlFlow;
use workloads::Request;

/// Where a replica keeps its running requests' KV: block tables in a
/// [`kv_cache::CacheManager`] (Exact) or block counts (Analytical).
pub trait KvPlacement {
    /// One running request's KV handle.
    type Seq;

    /// Blocks obtainable right now, for the admission watermark.
    fn free_blocks(&self) -> usize;

    /// Places the KV of `prompt`. Returns the handle and how many leading
    /// tokens were already resident (the prefill discount), or `None`,
    /// with nothing placed, when the pool cannot hold the prompt.
    fn place(&mut self, prompt: &[Token]) -> Option<(Self::Seq, usize)>;

    /// Grows `seq` by one decoded token. Returns `false`, leaving `seq` as
    /// it was, when the pool has no room for the token.
    fn append(&mut self, seq: &mut Self::Seq) -> bool;

    /// Releases the KV of a request leaving the running batch.
    ///
    /// # Errors
    ///
    /// The placement's bookkeeping diverged from the core's; the core
    /// records an [`EngineError::Cache`] fault and halts the replica.
    fn release(&mut self, seq: &Self::Seq) -> Result<(), AllocError>;
}

/// A request in the running batch.
#[derive(Debug)]
struct Running<S> {
    /// Submission index in the request queue.
    req_idx: usize,
    kv: S,
    produced: usize,
    target: usize,
    first_token: SimTime,
    arrival: SimTime,
}

/// One replica's scheduler over KV handles of type `S`. When the KV pool
/// runs out, it preempts the most recently arrived running request (vLLM's
/// recompute policy): its KV is released and it restarts from prefill once
/// space frees up.
#[derive(Debug)]
pub struct ReplicaCore<S> {
    config: ServingConfig,
    cost: CostModel,
    queue: RequestQueue,
    running: Vec<Running<S>>,
    completed: Vec<RequestMetrics>,
    clock: SimTime,
    decode_steps: usize,
    batch_acc: usize,
    attn_time: SimDuration,
    total_time: SimDuration,
    preemptions: u64,
    speed_factor: f64,
    draining: bool,
    /// First invariant fault that halted this replica, if any.
    fault: Option<EngineError>,
}

impl<S> ReplicaCore<S> {
    /// An idle replica at time zero, nominal speed, with nothing submitted.
    pub fn new(config: ServingConfig) -> Self {
        let cost = CostModel::with_tp(config.model, config.gpu.clone(), config.parallel.tp);
        ReplicaCore {
            config,
            cost,
            queue: RequestQueue::default(),
            running: Vec::new(),
            completed: Vec::new(),
            clock: SimTime::ZERO,
            decode_steps: 0,
            batch_acc: 0,
            attn_time: SimDuration::ZERO,
            total_time: SimDuration::ZERO,
            preemptions: 0,
            speed_factor: 1.0,
            draining: false,
            fault: None,
        }
    }

    /// Submits a request. Requests must be submitted in arrival order; the
    /// replica admits each once its virtual clock reaches the arrival time.
    ///
    /// # Panics
    ///
    /// Panics if `request` arrives before a previously submitted request,
    /// or if the replica is draining (a draining replica must not receive
    /// new work; route it elsewhere).
    pub fn submit(&mut self, request: Request) {
        assert!(!self.draining, "cannot submit to a draining replica");
        self.queue.push(request);
    }

    /// The replica's virtual clock.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The replica's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// The cost model pricing this replica's prefills and the
    /// non-attention part of its decode steps (also used by the
    /// controller's migrate-vs-recompute decision).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Requests arrived but not yet admitted to the decode batch.
    pub fn queue_depth(&self) -> usize {
        self.queue.waiting_len()
    }

    /// Requests currently in the decode batch.
    pub fn num_active(&self) -> usize {
        self.running.len()
    }

    /// Submitted requests not yet completed or dropped (includes requests
    /// whose arrival time is still in the replica's future).
    pub fn outstanding(&self) -> usize {
        self.running.len() + self.queue.pending()
    }

    /// Per-request records of requests completed so far.
    pub fn completed_requests(&self) -> &[RequestMetrics] {
        &self.completed
    }

    /// Ids of the requests currently in the decode batch, in batch order.
    pub fn active_request_ids(&self) -> Vec<u64> {
        self.running
            .iter()
            .map(|a| self.queue.request(a.req_idx).id)
            .collect()
    }

    /// KV handles of the decode batch, in batch order, for pricing a step.
    pub fn running_kv(&self) -> impl ExactSizeIterator<Item = &S> {
        self.running.iter().map(|a| &a.kv)
    }

    /// The replica's current speed factor (1.0 = nominal).
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
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

    /// Whether the replica is in drain mode.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Puts the replica into drain mode: it keeps serving everything
    /// already submitted but rejects new submissions. Used for graceful
    /// scale-down — the fleet controller stops routing here, waits for
    /// [`outstanding`](ReplicaCore::outstanding) to reach zero, then
    /// retires the replica.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Removes and returns every submitted-but-incomplete request — queued,
    /// decoding, or not yet arrived — in arrival order, for resubmission on
    /// another replica. Decoding requests release their KV and discard
    /// their partial output, so a requeued request restarts from prefill
    /// wherever it lands next; these evictions are failover requeues, not
    /// pressure preemptions, and do not count in
    /// [`SimulationResult::preemptions`].
    pub fn take_incomplete<P: KvPlacement<Seq = S>>(&mut self, kv: &mut P) -> Vec<Request> {
        let mut indices = Vec::with_capacity(self.running.len());
        for a in std::mem::take(&mut self.running) {
            // The request is still handed back for resubmission elsewhere;
            // a freeing fault halts only this (now retiring) replica.
            self.release(kv, &a.kv, "free_sequence (failover eviction)");
            indices.push(a.req_idx);
        }
        self.queue.take_incomplete(indices)
    }

    /// Runs one scheduling iteration: admit arrivals, then either prefill,
    /// decode, or jump the idle clock forward to the next pending arrival.
    ///
    /// `price_attention` returns one decode step's attention time in ns at
    /// nominal speed, for the batch [`running_kv`](ReplicaCore::running_kv)
    /// lists; it is called once per decode step. An error from it, or a KV
    /// bookkeeping fault, is recorded and halts the replica: every later
    /// call returns [`StepOutcome::Idle`] and in-flight requests surface
    /// as unfinished in [`into_result`](ReplicaCore::into_result).
    pub fn step<P: KvPlacement<Seq = S>>(
        &mut self,
        kv: &mut P,
        price_attention: impl FnOnce(&Self) -> Result<f64, EngineError>,
    ) -> StepOutcome {
        if self.fault.is_some() {
            return StepOutcome::Idle;
        }
        if let ControlFlow::Break(outcome) =
            self.queue
                .open_step(&mut self.clock, !self.running.is_empty(), &self.config)
        {
            return outcome;
        }
        let admitted = self
            .queue
            .select_prefills(&self.config, self.running.len(), || kv.free_blocks());
        if !admitted.is_empty() {
            self.prefill(kv, admitted);
            return StepOutcome::Progress;
        }
        if self.running.is_empty() {
            // Everything waiting was dropped or nothing is admissible yet.
            return StepOutcome::Progress;
        }
        // Nothing admissible right now: decode so departures can free KV
        // for the waiting requests.
        let attention_ns = match price_attention(self) {
            Ok(ns) => ns,
            Err(e) => {
                self.record_fault(e);
                return StepOutcome::Idle;
            }
        };
        let batch = self.running.len();
        // A straggler (speed factor < 1) stretches every step it executes.
        let attention_ns = attention_ns / self.speed_factor;
        let step_ns = attention_ns
            + self
                .cost
                .decode_non_attention_ns(batch, self.config.parallel.pp)
                / self.speed_factor;
        // Quantize the step once onto the integer spine; the attention share
        // is quantized with the same rounding so the fraction stays honest.
        let step = SimDuration::from_ns_f64(step_ns);
        self.clock += step;
        self.decode_steps += 1;
        self.batch_acc += batch;
        self.attn_time += SimDuration::from_ns_f64(attention_ns);
        self.total_time += step;
        self.grow(kv);
        StepOutcome::Progress
    }

    /// Places and prefills the admitted `(index, prompt tokens)` requests
    /// in one step, then moves each into the decode batch (or completes it,
    /// if it asked for a single token).
    fn prefill<P: KvPlacement<Seq = S>>(&mut self, kv: &mut P, admitted: Vec<(usize, usize)>) {
        // Prefix caching discounts prefill compute (vLLM APC / SGLang):
        // prompt blocks already resident are reused, so only each request's
        // uncached suffix is computed. At least one token is always
        // computed — the final partial block is never cached and the
        // request needs fresh logits.
        let mut computed_tokens = 0usize;
        let mut placed = Vec::with_capacity(admitted.len());
        let mut admitting = admitted.into_iter();
        while let Some((idx, prompt_tokens)) = admitting.next() {
            let tokens = self.queue.request(idx).prompt.to_tokens();
            let Some((seq, hit_tokens)) = self.place(kv, &tokens[..prompt_tokens]) else {
                // A fault halted the replica. Restore the un-placed requests
                // to the head of the waiting queue, in order (they count as
                // unfinished); the placed ones still prefill below.
                let rest: Vec<usize> = admitting.map(|(i, _)| i).collect();
                for r in rest.into_iter().rev().chain([idx]) {
                    self.queue.requeue_front(r);
                }
                break;
            };
            computed_tokens += prompt_tokens.saturating_sub(hit_tokens).max(1);
            placed.push((idx, seq));
        }
        self.clock +=
            SimDuration::from_ns_f64(self.cost.prefill_ns(computed_tokens) / self.speed_factor);
        for (req_idx, seq) in placed {
            let req = self.queue.request(req_idx);
            let arrival = SimTime::from_secs_f64(req.arrival_s);
            if req.decode_tokens <= 1 {
                // Completion metrics still count; a freeing fault halts the
                // replica on the next step.
                let record = RequestMetrics::prefill_only(req.id, arrival, self.clock);
                self.release(kv, &seq, "free_sequence (prefill-only)");
                self.completed.push(record);
            } else {
                let target = req.decode_tokens;
                self.running.push(Running {
                    req_idx,
                    kv: seq,
                    produced: 1,
                    target,
                    first_token: self.clock,
                    arrival,
                });
            }
        }
    }

    /// Places one admitted prompt, preempting running requests while the
    /// pool cannot hold it. Returns `None` after recording a fault: when
    /// nothing is left to preempt, or when a preemption's release failed
    /// (freeing made no room, so retrying could spin forever).
    fn place<P: KvPlacement<Seq = S>>(
        &mut self,
        kv: &mut P,
        prompt: &[Token],
    ) -> Option<(S, usize)> {
        loop {
            if let Some(placed) = kv.place(prompt) {
                return Some(placed);
            }
            if !self.preempt_latest(kv) {
                self.record_fault(EngineError::Cache {
                    op: "insert_sequence (admission)",
                    detail: "the prompt does not fit with nothing left to preempt".into(),
                });
                return None;
            }
            if self.fault.is_some() {
                return None;
            }
        }
    }

    /// Grows every running request by its decoded token, preempting the
    /// youngest request under KV pressure (possibly the one growing), and
    /// completes the requests that reached their target.
    fn grow<P: KvPlacement<Seq = S>>(&mut self, kv: &mut P) {
        let mut i = 0;
        while i < self.running.len() {
            if self.fault.is_some() {
                // A cache fault mid-step: stop mutating the pool; the
                // replica halts on the next step call.
                break;
            }
            let my_req = self.running[i].req_idx;
            let mut appended = false;
            // The loop exits without appending when this request was itself
            // preempted (its index no longer appears in the running set).
            // Each retry has a victim: the request growing is running.
            while let Some(pos) = self.running.iter().position(|a| a.req_idx == my_req) {
                i = pos;
                if kv.append(&mut self.running[i].kv) {
                    appended = true;
                    break;
                }
                self.preempt_latest(kv);
                if self.fault.is_some() {
                    break;
                }
            }
            if !appended {
                // Restart scanning: indices shifted and this slot now holds a
                // different (already-processed or pending) request. The next
                // decode step will cover any request skipped here.
                continue;
            }
            let a = &mut self.running[i];
            a.produced += 1;
            if a.produced >= a.target {
                let a = self.running.swap_remove(i);
                self.release(kv, &a.kv, "free_sequence (completion)");
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
    }

    /// Releases the most recently arrived running request's KV, requeues
    /// it for recompute and counts the preemption. Returns `false` when
    /// nothing is running.
    fn preempt_latest<P: KvPlacement<Seq = S>>(&mut self, kv: &mut P) -> bool {
        let Some(victim) = (0..self.running.len()).max_by_key(|&i| self.running[i].arrival) else {
            return false;
        };
        let a = self.running.swap_remove(victim);
        // A failed release corrupts the pool accounting: record the fault
        // (the step halts on it) but still requeue the victim, so it is
        // counted as unfinished rather than silently lost.
        self.release(kv, &a.kv, "free_sequence (preemption)");
        self.queue.requeue_front(a.req_idx);
        self.preemptions += 1;
        true
    }

    fn release<P: KvPlacement<Seq = S>>(&mut self, kv: &mut P, seq: &S, op: &'static str) {
        if let Err(e) = kv.release(seq) {
            self.record_fault(EngineError::Cache {
                op,
                detail: e.to_string(),
            });
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

    /// Finalizes the replica, consuming it. Requests still in flight (or
    /// never admitted) count as unfinished. `overhead_samples` and
    /// `step_sim` are the Exact fidelity's scheduler samples and step-cache
    /// counters (empty for fidelities that simulate no kernels).
    pub fn into_result(
        self,
        overhead_samples: Vec<(f64, f64)>,
        step_sim: StepSimStats,
    ) -> SimulationResult {
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
            overhead_samples,
            step_sim,
            unfinished: self.running.len() + self.queue.pending(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;
    use workloads::PromptSpec;

    /// A pool that never has room. The concrete placements always fit a
    /// prompt once nothing runs, so only a fake reaches this path.
    struct NoRoom;

    impl KvPlacement for NoRoom {
        type Seq = ();

        fn free_blocks(&self) -> usize {
            0
        }

        fn place(&mut self, _prompt: &[Token]) -> Option<((), usize)> {
            None
        }

        fn append(&mut self, _seq: &mut ()) -> bool {
            true
        }

        fn release(&mut self, _seq: &()) -> Result<(), AllocError> {
            Ok(())
        }
    }

    #[test]
    fn a_prompt_that_never_fits_halts_the_replica_with_a_cache_fault() {
        let mut core = ReplicaCore::new(ServingConfig::single_gpu(ModelSpec::llama3_8b()));
        for id in 0..2 {
            core.submit(Request {
                id,
                arrival_s: 0.0,
                prompt: PromptSpec::from_parts([(1, 64)]),
                decode_tokens: 8,
            });
        }
        let price = |_: &ReplicaCore<()>| -> Result<f64, EngineError> {
            unreachable!("nothing is admitted, so nothing decodes")
        };
        assert_eq!(core.step(&mut NoRoom, price), StepOutcome::Progress);
        assert_eq!(
            core.step(&mut NoRoom, price),
            StepOutcome::Idle,
            "a faulted replica is halted"
        );
        // The request that could not be placed is back in the waiting
        // queue with the one behind it, and both count as unfinished.
        assert_eq!(core.queue_depth(), 2);
        let result = core.into_result(Vec::new(), StepSimStats::default());
        let fault = result.fault.expect("the admission fault is recorded");
        assert!(fault.contains("insert_sequence (admission)"), "{fault}");
        assert_eq!(result.plan_error, None);
        assert_eq!(result.unfinished, 2);
        assert_eq!(result.preemptions, 0);
        assert!(result.per_request.is_empty());
    }
}
