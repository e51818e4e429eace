//! Integration tests for the fixed fleet (`Cluster`): single-replica
//! equivalence with the plain serving engine, routing-output invariance and
//! routing bookkeeping, and the qualitative behavior of each routing policy.

use controller::{
    Cluster, ClusterConfig, ConsistentHashPrefix, FleetRow, LeastOutstanding, PrefixAffinity,
    RoundRobin, Router,
};
use pat_core::LazyPat;
use proptest::prelude::*;
use serving::{simulate_serving, ModelSpec, ServingConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use workloads::{generate_trace, Request, TraceConfig, TraceKind};

fn policies() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(LeastOutstanding::new()),
        Box::new(ConsistentHashPrefix::default()),
        Box::new(PrefixAffinity::new()),
    ]
}

fn engine_config() -> ServingConfig {
    ServingConfig::single_gpu(ModelSpec::llama3_8b())
}

/// The simulator's decode output is a pure function of the request: the
/// engine emits exactly `produced` tokens whose identity is determined by
/// the prompt. This digest stands in for the decoded text.
fn output_digest(request: &Request, produced: usize) -> u64 {
    let mut h = DefaultHasher::new();
    request.prompt.to_tokens().hash(&mut h);
    produced.hash(&mut h);
    h.finish()
}

#[test]
fn one_replica_cluster_matches_single_engine_bit_for_bit() {
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::Conversation,
        rate_per_s: 4.0,
        duration_s: 6.0,
        seed: 3,
    });
    let mut pat = LazyPat::new();
    let reference = simulate_serving(&engine_config(), &mut pat, &requests);
    assert!(reference.metrics.completed > 0);
    for router in policies() {
        let name = router.name();
        let config = ClusterConfig::new(1, engine_config());
        let result = Cluster::with_lazy_pat(&config, router).run(&requests);
        let replica = &result.per_replica[0].result;
        // Exact f64 equality throughout: the cluster driver must execute the
        // identical step sequence, not an approximation of it.
        assert_eq!(
            replica.per_request, reference.per_request,
            "{name}: per-request metrics"
        );
        assert_eq!(
            replica.decode_steps, reference.decode_steps,
            "{name}: decode steps"
        );
        assert_eq!(
            replica.preemptions, reference.preemptions,
            "{name}: preemptions"
        );
        assert_eq!(
            replica.unfinished, reference.unfinished,
            "{name}: unfinished"
        );
        assert!(
            replica.metrics.mean_tpot_ms == reference.metrics.mean_tpot_ms
                && replica.metrics.p99_tpot_ms == reference.metrics.p99_tpot_ms
                && replica.metrics.mean_ttft_ms == reference.metrics.mean_ttft_ms,
            "{name}: aggregate metrics drifted"
        );
        assert_eq!(
            result.fleet.completed, reference.metrics.completed,
            "{name}"
        );
        assert_eq!(
            result.load_imbalance, 0.0,
            "{name}: one replica is trivially balanced"
        );
        assert_eq!(
            result.duplicated_kv_blocks, 0,
            "{name}: no peers to duplicate against"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn routing_policy_never_changes_any_decoded_output(
        seed in 0u64..1_000,
        replicas in 1usize..4,
        kind_ix in 0usize..4,
    ) {
        let kind = TraceKind::all()[kind_ix];
        let requests = generate_trace(TraceConfig {
            kind,
            rate_per_s: 3.0,
            duration_s: 3.0,
            seed,
        });
        let mut reference: Option<BTreeMap<u64, (usize, u64)>> = None;
        for router in policies() {
            let name = router.name();
            let config = ClusterConfig::new(replicas, engine_config());
            let result = Cluster::with_lazy_pat(&config, router).run(&requests);
            // The routing log holds one entry per request, in trace order...
            let logged: Vec<u64> = result.assignments.iter().map(|&(id, _)| id).collect();
            let trace_ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
            prop_assert_eq!(logged, trace_ids, "{} assignment log", name);
            let assigned: BTreeMap<u64, usize> = result.assignments.iter().copied().collect();
            for (i, summary) in result.per_replica.iter().enumerate() {
                // ...each replica's routed count is its share of the log...
                let share = result.assignments.iter().filter(|&&(_, r)| r == i).count();
                prop_assert_eq!(summary.routed, share, "{} replica {} routed", name, i);
                // ...and a replica completes only requests routed to it.
                for m in &summary.result.per_request {
                    prop_assert_eq!(assigned[&m.request_id], i, "{} request {}", name, m.request_id);
                }
            }
            let outputs: BTreeMap<u64, (usize, u64)> = result
                .per_replica
                .iter()
                .flat_map(|r| r.result.per_request.iter())
                .map(|m| {
                    let request = &requests[m.request_id as usize];
                    (m.request_id, (m.decode_tokens, output_digest(request, m.decode_tokens)))
                })
                .collect();
            // Every request completes exactly once somewhere in the fleet...
            prop_assert_eq!(outputs.len(), requests.len(), "{} lost requests", name);
            // ...and emits the same decoded output no matter the placement.
            match &reference {
                None => reference = Some(outputs),
                Some(expected) => prop_assert_eq!(&outputs, expected, "{} changed outputs", name),
            }
        }
    }
}

/// Zero-completion and single-replica runs must produce finite metrics all
/// the way through `FleetRow` — no NaN from empty means or percentiles.
#[test]
fn empty_and_single_replica_fleet_metrics_are_finite() {
    for (replicas, requests) in [
        (1usize, Vec::new()),
        (4, Vec::new()),
        (
            1,
            generate_trace(TraceConfig {
                kind: TraceKind::Conversation,
                rate_per_s: 1.0,
                duration_s: 2.0,
                seed: 11,
            }),
        ),
    ] {
        let config = ClusterConfig::new(replicas, engine_config());
        let result = Cluster::with_lazy_pat(&config, Box::new(RoundRobin::new())).run(&requests);
        let row = FleetRow::new("round-robin", "probe", 0.0, &result);
        for v in [
            row.mean_ttft_ms,
            row.mean_tpot_ms,
            row.p99_tpot_ms,
            row.fleet_hit_rate,
            row.load_imbalance,
            row.duplicated_kv_mib,
        ] {
            assert!(
                v.is_finite(),
                "non-finite metric in {replicas}-replica run of {} requests: {row:?}",
                requests.len()
            );
        }
        assert_eq!(row.completed, requests.len());
    }
}

#[test]
fn round_robin_balances_and_consistent_hash_pins_prefix_families() {
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::ToolAgent,
        rate_per_s: 6.0,
        duration_s: 8.0,
        seed: 17,
    });
    let config = ClusterConfig::new(3, engine_config());
    let rr = Cluster::with_lazy_pat(&config, Box::new(RoundRobin::new())).run(&requests);
    // Round-robin is balanced by construction (counts differ by at most 1).
    let counts: Vec<usize> = rr.per_replica.iter().map(|r| r.routed).collect();
    assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    assert!(rr.load_imbalance < 0.05);

    let ch =
        Cluster::with_lazy_pat(&config, Box::new(ConsistentHashPrefix::default())).run(&requests);
    // Every request of a prefix family (same tool prompt) lands on the same
    // replica.
    let mut family_to_replica: BTreeMap<u64, usize> = BTreeMap::new();
    for (id, replica) in &ch.assignments {
        let family = requests[*id as usize].prompt.segments[0].id;
        let seen = family_to_replica.entry(family).or_insert(*replica);
        assert_eq!(seen, replica, "family {family:#x} split across replicas");
    }
    assert!(
        family_to_replica
            .values()
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1
    );
}

#[test]
fn prefix_affinity_beats_round_robin_on_a_toolagent_fleet() {
    // The Fig. 18 headline in miniature: at 4 replicas on the toolagent
    // trace, prefix-affinity routing must improve fleet hit rate and mean
    // TPOT over round-robin, and hold less duplicated KV memory.
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::ToolAgent,
        rate_per_s: 16.0,
        duration_s: 10.0,
        seed: 9,
    });
    let config = ClusterConfig::new(4, engine_config());
    let rr = Cluster::with_lazy_pat(&config, Box::new(RoundRobin::new())).run(&requests);
    let aff = Cluster::with_lazy_pat(&config, Box::new(PrefixAffinity::new())).run(&requests);
    assert_eq!(rr.unfinished, 0);
    assert_eq!(aff.unfinished, 0);
    assert!(
        aff.fleet_hit_rate > rr.fleet_hit_rate,
        "affinity hit rate {:.3} !> round-robin {:.3}",
        aff.fleet_hit_rate,
        rr.fleet_hit_rate
    );
    assert!(
        aff.fleet.mean_tpot_ms < rr.fleet.mean_tpot_ms,
        "affinity TPOT {:.3} ms !< round-robin {:.3} ms",
        aff.fleet.mean_tpot_ms,
        rr.fleet.mean_tpot_ms
    );
    assert!(
        aff.duplicated_kv_blocks < rr.duplicated_kv_blocks,
        "affinity duplication {} !< round-robin {}",
        aff.duplicated_kv_blocks,
        rr.duplicated_kv_blocks
    );
}

/// Two replicas doing identical work hold *identical* integer clocks — not
/// clocks an ulp apart — and the cluster's advance loop visits equal-clock
/// replicas in replica-index order. Under f64 clocks neither half of this
/// was a guarantee; under the `SimTime` spine both are exact.
#[test]
fn identical_clocks_advance_in_replica_index_order() {
    use serving::{ServingAttention, ServingEngine, StepOutcome};
    use sim_core::{EventQueue, SimTime};

    let requests = generate_trace(TraceConfig {
        kind: TraceKind::Conversation,
        rate_per_s: 3.0,
        duration_s: 4.0,
        seed: 21,
    });
    let mut engines: Vec<ServingEngine> = (0..2)
        .map(|_| ServingEngine::new(engine_config()))
        .collect();
    let mut backends: Vec<LazyPat> = (0..2).map(|_| LazyPat::new()).collect();
    for request in &requests {
        for engine in &mut engines {
            engine.submit(request.clone());
        }
    }
    // Lockstep: after every step, the two replicas' integer clocks are
    // exactly equal — bit-for-bit, no tolerance.
    loop {
        let outcomes: Vec<StepOutcome> = engines
            .iter_mut()
            .zip(backends.iter_mut())
            .map(|(e, b)| e.step(b as &mut dyn ServingAttention))
            .collect();
        assert_eq!(
            engines[0].core().clock(),
            engines[1].core().clock(),
            "identical work must produce identical integer clocks"
        );
        if outcomes.iter().all(|&o| o == StepOutcome::Idle) {
            break;
        }
    }
    assert!(engines[0].core().clock() > SimTime::ZERO);
    assert_eq!(
        engines[0].core().completed_requests(),
        engines[1].core().completed_requests()
    );

    // And when the fleet schedules advances for that shared instant, the
    // queue hands them back in replica-index order, every time.
    let tied = engines[0].core().clock();
    let mut queue: EventQueue<usize> = EventQueue::new();
    for replica in 0..4 {
        queue.push(tied, replica);
    }
    let order: Vec<usize> = std::iter::from_fn(|| queue.pop().map(|(_, r)| r)).collect();
    assert_eq!(order, [0, 1, 2, 3], "equal instants must pop in push order");
}

#[test]
fn least_outstanding_tracks_load_under_skewed_service_times() {
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::QwenB,
        rate_per_s: 8.0,
        duration_s: 8.0,
        seed: 5,
    });
    let config = ClusterConfig::new(3, engine_config());
    let result = Cluster::with_lazy_pat(&config, Box::new(LeastOutstanding::new())).run(&requests);
    assert_eq!(result.unfinished, 0);
    assert_eq!(result.fleet.completed, requests.len());
    assert!(
        result.load_imbalance < 0.25,
        "imbalance {:.3}",
        result.load_imbalance
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// `sim_core::par`'s thread count is a pure performance knob at the
    /// cluster layer too: a random routed fleet run on 1 and on 4 worker
    /// threads must produce byte-identical serialized results.
    #[test]
    fn cluster_results_are_thread_count_invariant(
        seed in 0u64..1_000,
        kind_ix in 0usize..4,
        rate in 4.0f64..10.0,
        policy_ix in 0usize..4,
    ) {
        let requests = generate_trace(TraceConfig {
            kind: TraceKind::all()[kind_ix],
            rate_per_s: rate,
            duration_s: 5.0,
            seed,
        });
        let run = |threads: usize| {
            sim_core::par::set_thread_override(Some(threads));
            let config = ClusterConfig::new(3, engine_config());
            let router = policies().swap_remove(policy_ix);
            let result = Cluster::with_lazy_pat(&config, router).run(&requests);
            sim_core::par::set_thread_override(None);
            serde_json::to_string(&result).expect("ClusterResult serializes")
        };
        prop_assert_eq!(run(1), run(4), "cluster metrics diverge across thread counts");
    }
}
