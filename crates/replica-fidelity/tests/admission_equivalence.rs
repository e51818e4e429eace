//! Property: Exact and Analytical replicas make the same admission
//! decisions.
//!
//! Both fidelities admit through the step of `serving::ReplicaCore`: the
//! context clamp, the `max_batch` and `max_prefill_tokens` limits, the KV
//! watermark and the drop rule for requests that can never fit the pool.
//! Their KV placement and step pricing differ, so their timings differ, but
//! over a whole trace they must drop the same requests, complete every
//! other one with its full token count, and never run more than
//! `max_batch` requests at once.

use pat_core::LazyPat;
use proptest::prelude::*;
use replica_fidelity::{new_replica, Fidelity};
use serving::{ModelSpec, ServingConfig, StepOutcome};
use std::collections::BTreeMap;
use workloads::{PromptSpec, Request};

/// Tokens per KV block (`kv_cache::DEFAULT_BLOCK_SIZE`).
const BS: usize = 16;

/// `(max_batch, max_prefill_tokens, max_context, kv_capacity_blocks)`.
type Limits = (usize, usize, usize, usize);

/// `(arrival slot, prefix family, prompt tokens, decode kind, decode
/// tokens)`. Decode kind 0 is a prefill-only request, kind 1 one that can
/// never fit the pool, and the others decode `decode tokens`.
type Spec = (u32, u64, usize, usize, usize);

fn config((max_batch, max_prefill_tokens, max_context, blocks): Limits) -> ServingConfig {
    let mut config = ServingConfig::single_gpu(ModelSpec::llama3_8b());
    config.max_batch = max_batch;
    config.max_prefill_tokens = max_prefill_tokens;
    config.model.max_context = max_context;
    config.kv_capacity_blocks = blocks;
    config
}

/// Requests in arrival order. Slots are 50 ms apart, so requests sharing a
/// slot arrive together; half of each prompt is a prefix its family shares.
fn trace(specs: &[Spec], config: &ServingConfig) -> Vec<Request> {
    let mut trace: Vec<Request> = specs
        .iter()
        .zip(0u64..)
        .map(|(&(slot, family, prompt, kind, decode), id)| Request {
            id,
            arrival_s: f64::from(slot) * 0.05,
            prompt: PromptSpec::from_parts([(family, prompt / 2), (100 + id, prompt - prompt / 2)]),
            decode_tokens: match kind {
                0 => 1,
                1 => config.kv_capacity_blocks * BS,
                _ => decode,
            },
        })
        .collect();
    // Stable, so ids stay in order within a slot.
    trace.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exact_and_analytical_drop_and_complete_the_same_requests(
        limits in (1usize..6, 128usize..2048, 256usize..3072, 48usize..400),
        specs in prop::collection::vec(
            (0u32..3, 0u64..3, 1usize..4096, 0usize..4, 2usize..40),
            1..14,
        ),
    ) {
        let config = config(limits);
        let trace = trace(&specs, &config);
        let budget: BTreeMap<u64, usize> =
            trace.iter().map(|r| (r.id, r.decode_tokens)).collect();
        let impossible = specs.iter().filter(|s| s.3 == 1).count();
        let mut outcomes = Vec::new();
        for fidelity in [Fidelity::Exact, Fidelity::Analytical] {
            let mut replica = new_replica(fidelity, &config, Box::new(LazyPat::new()));
            for request in &trace {
                replica.submit(request.clone());
            }
            while replica.step() == StepOutcome::Progress {
                prop_assert!(
                    replica.num_active() <= config.max_batch,
                    "{:?} runs {} requests, max_batch {}",
                    fidelity,
                    replica.num_active(),
                    config.max_batch
                );
            }
            let result = replica.into_result();
            prop_assert_eq!(result.unfinished, 0, "{:?} left requests unfinished", fidelity);
            let completed: BTreeMap<u64, usize> = result
                .per_request
                .iter()
                .map(|m| (m.request_id, m.decode_tokens))
                .collect();
            prop_assert_eq!(completed.len(), result.per_request.len(), "no request completes twice");
            for (id, tokens) in &completed {
                prop_assert_eq!(budget[id], *tokens, "{:?} request {} token count", fidelity, id);
            }
            let dropped = usize::try_from(result.dropped).unwrap_or(usize::MAX);
            prop_assert!(dropped >= impossible, "{:?} kept a request that cannot fit", fidelity);
            prop_assert_eq!(dropped + completed.len(), trace.len());
            outcomes.push((result.dropped, completed));
        }
        prop_assert_eq!(&outcomes[0], &outcomes[1], "Exact vs Analytical (dropped, completed)");
    }
}
