//! The replica scheduling policy every fidelity shares.
//!
//! [`RequestQueue`] owns one replica's submitted requests and makes the
//! scheduling decisions that do not depend on how the replica stores KV or
//! prices attention: arrival intake onto the integer spine, the idle-clock
//! jump, the drain deadline, and prefill-priority admission with the vLLM KV
//! watermark. [`crate::ReplicaCore`] is its only user, so every fidelity
//! admits through it.

use crate::engine::{ServingConfig, StepOutcome};
use kv_cache::DEFAULT_BLOCK_SIZE;
use sim_core::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use workloads::Request;

/// One replica's requests: every submission in arrival order, the FIFO of
/// arrived requests awaiting admission, and the count of requests dropped
/// because they can never fit the KV pool.
///
/// Requests are named by their submission index; a replica's running set
/// holds these indices.
#[derive(Debug, Default)]
pub(crate) struct RequestQueue {
    requests: Vec<Request>,
    waiting: VecDeque<usize>,
    next_arrival: usize,
    dropped: u64,
}

impl RequestQueue {
    /// Appends a submitted request.
    ///
    /// # Panics
    ///
    /// Panics if `request` arrives before a previously submitted request.
    pub fn push(&mut self, request: Request) {
        if let Some(last) = self.requests.last() {
            assert!(
                last.arrival_s <= request.arrival_s,
                "requests must be submitted in arrival order"
            );
        }
        self.requests.push(request);
    }

    /// The request submitted at index `idx`.
    pub fn request(&self, idx: usize) -> &Request {
        &self.requests[idx]
    }

    /// Arrived requests awaiting admission.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Requests neither admitted nor dropped: waiting, or submitted with an
    /// arrival still in the replica's future.
    pub fn pending(&self) -> usize {
        self.waiting.len() + (self.requests.len() - self.next_arrival)
    }

    /// Requests dropped because they can never fit the KV pool.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Puts a preempted or un-admitted request back at the head of the
    /// waiting queue, so it is the next one admitted.
    pub fn requeue_front(&mut self, idx: usize) {
        self.waiting.push_front(idx);
    }

    /// Opens a scheduling iteration at `*clock`. Arrivals due by then join
    /// the waiting queue; arrival seconds quantize onto the integer spine
    /// once, here, and the round trip through `as_secs_f64` is exact at
    /// simulation scale, so rewritten arrival times re-admit identically.
    ///
    /// Breaks with the iteration's outcome when there is nothing to
    /// schedule: [`StepOutcome::Progress`] after jumping an idle replica's
    /// clock to the next arrival, [`StepOutcome::Idle`] when no work is
    /// left or the clock is past the drain deadline (`drain_limit_s` after
    /// the last submitted arrival). `running` says whether the replica has
    /// requests decoding.
    pub fn open_step(
        &mut self,
        clock: &mut SimTime,
        running: bool,
        config: &ServingConfig,
    ) -> ControlFlow<StepOutcome> {
        while self.next_arrival < self.requests.len()
            && SimTime::from_secs_f64(self.requests[self.next_arrival].arrival_s) <= *clock
        {
            self.waiting.push_back(self.next_arrival);
            self.next_arrival += 1;
        }
        if !running && self.waiting.is_empty() {
            return ControlFlow::Break(match self.requests.get(self.next_arrival) {
                Some(next) => {
                    *clock = SimTime::from_secs_f64(next.arrival_s);
                    StepOutcome::Progress
                }
                None => StepOutcome::Idle,
            });
        }
        let deadline = self
            .requests
            .last()
            .map_or(SimTime::ZERO, |r| SimTime::from_secs_f64(r.arrival_s))
            + SimDuration::from_secs_f64(config.drain_limit_s);
        if *clock > deadline {
            return ControlFlow::Break(StepOutcome::Idle);
        }
        ControlFlow::Continue(())
    }

    /// Prefill-priority admission (vLLM's default): takes waiting requests
    /// in FIFO order into one prefill and returns each as `(index, prompt
    /// tokens)`, the prompt clamped to the model's context window less the
    /// decode budget (at least 16 tokens). Admission stops at `max_batch`
    /// running requests or the `max_prefill_tokens` budget, which the first
    /// admitted request may exceed alone.
    ///
    /// The KV watermark: a request's whole lifetime, `⌈prompt/bs⌉ +
    /// ⌈decode/bs⌉ + 2` blocks, must fit in the blocks still obtainable,
    /// or it waits for departures; prefix hits only make this conservative.
    /// A request that needs more than the whole pool can never fit, so it
    /// is dropped rather than left to livelock. `running` is the number of
    /// requests decoding. `free_blocks` counts the obtainable blocks; it is
    /// called only when there is a request to admit and batch room for it,
    /// because the exact engine's count walks its whole prefix cache.
    pub fn select_prefills(
        &mut self,
        config: &ServingConfig,
        running: usize,
        free_blocks: impl FnOnce() -> usize,
    ) -> Vec<(usize, usize)> {
        let mut admitted = Vec::new();
        if self.waiting.is_empty() || running >= config.max_batch {
            return admitted;
        }
        let bs = DEFAULT_BLOCK_SIZE;
        let mut chunk_tokens = 0usize;
        let mut budget_blocks = free_blocks();
        while let Some(&idx) = self.waiting.front() {
            let req = &self.requests[idx];
            let budget = config
                .model
                .max_context
                .saturating_sub(req.decode_tokens)
                .max(16);
            let prompt_tokens = req.prompt.total_tokens().min(budget);
            if running + admitted.len() >= config.max_batch
                || (chunk_tokens + prompt_tokens > config.max_prefill_tokens
                    && !admitted.is_empty())
            {
                break;
            }
            let needed = prompt_tokens.div_ceil(bs) + req.decode_tokens.div_ceil(bs) + 2;
            if needed > config.kv_capacity_blocks {
                self.waiting.pop_front();
                self.dropped += 1;
                continue;
            }
            let busy = running > 0 || !admitted.is_empty();
            if needed > budget_blocks && busy {
                break;
            }
            budget_blocks = budget_blocks.saturating_sub(needed);
            self.waiting.pop_front();
            chunk_tokens += prompt_tokens;
            admitted.push((idx, prompt_tokens));
            if chunk_tokens >= config.max_prefill_tokens {
                break;
            }
        }
        admitted
    }

    /// Removes every request not yet finished, for resubmission elsewhere:
    /// the `running` indices the replica hands back, the waiting queue, and
    /// every submission that has not arrived yet. Returns them in arrival
    /// order (submission order is arrival order).
    pub fn take_incomplete(&mut self, running: impl IntoIterator<Item = usize>) -> Vec<Request> {
        let mut indices: Vec<usize> = running.into_iter().collect();
        indices.extend(self.waiting.drain(..));
        indices.extend(self.next_arrival..self.requests.len());
        self.next_arrival = self.requests.len();
        indices.sort_unstable();
        indices.dedup();
        indices
            .into_iter()
            .map(|i| self.requests[i].clone())
            .collect()
    }
}
