//! Integration tests for the fleet control plane: conservation of
//! requests through crashes, failover correctness, autoscaling, admission
//! control, and bit-level determinism.

use controller::{
    window_stats, AdmissionConfig, AutoscalerConfig, ControlResult, ControllerConfig, FaultEvent,
    FaultKind, FaultPlan, FidelityPolicy, FleetController, LeastOutstanding, PrefixAffinity,
    RandomFaultConfig, RoundRobin,
};
use replica_fidelity::Fidelity;
use serving::{ModelSpec, ServingConfig};
use workloads::{generate_trace, TraceConfig, TraceKind};

fn engine_config() -> ServingConfig {
    ServingConfig::single_gpu(ModelSpec::llama3_8b())
}

fn trace(rate: f64, duration: f64, seed: u64) -> Vec<workloads::Request> {
    generate_trace(TraceConfig {
        kind: TraceKind::ToolAgent,
        rate_per_s: rate,
        duration_s: duration,
        seed,
    })
}

fn crash(at_s: f64, replica: usize, restart_after_s: Option<f64>) -> FaultEvent {
    FaultEvent {
        at_s,
        kind: FaultKind::Crash {
            replica,
            restart_after_s,
        },
    }
}

/// Every offered request must land in exactly one outcome bucket.
fn assert_conservation(requests: &[workloads::Request], r: &ControlResult) {
    assert_eq!(
        r.offered,
        r.completed + r.shed + r.lost + r.unfinished,
        "request accounting does not balance: {r:?}"
    );
    assert_eq!(r.offered, requests.len());
    // Completed / shed / lost id sets must be disjoint.
    let mut seen = std::collections::BTreeSet::new();
    for id in r
        .per_request
        .iter()
        .map(|m| m.request_id)
        .chain(r.shed_ids.iter().copied())
        .chain(r.lost_ids.iter().copied())
    {
        assert!(seen.insert(id), "request {id} counted in two buckets");
    }
}

#[test]
fn no_fault_controller_matches_cluster_run() {
    let requests = trace(6.0, 6.0, 3);
    let config = ControllerConfig::managed(3, engine_config());
    let managed =
        FleetController::with_lazy_pat(config, Box::new(RoundRobin::new()), FaultPlan::none())
            .run(&requests);
    let cluster_cfg = controller::ClusterConfig::new(3, engine_config());
    let reference = controller::Cluster::with_lazy_pat(&cluster_cfg, Box::new(RoundRobin::new()))
        .run(&requests);
    // With no faults the control plane must be a no-op: identical
    // completions with identical (bit-for-bit) latencies.
    assert_eq!(managed.completed, reference.fleet.completed);
    let mut reference_records: Vec<_> = reference
        .per_replica
        .iter()
        .flat_map(|r| r.result.per_request.iter().copied())
        .collect();
    reference_records.sort_by_key(|m| m.request_id);
    assert_eq!(managed.per_request, reference_records);
    assert_eq!(managed.failovers, 0);
    assert_eq!(managed.crashes, 0);
    assert_eq!(managed.lost, 0);
    assert_eq!(managed.shed, 0);
    assert_conservation(&requests, &managed);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]
    /// The controller analogue of the cluster's single-replica equivalence
    /// guarantee: a 1-replica managed fleet with no faults, no autoscaler,
    /// and no admission control is the bare serving engine, bit for bit.
    /// Health ticks, the event queue, and the submit/origin bookkeeping
    /// must all be invisible — the integer-time spine makes "invisible"
    /// mean exact equality, not a tolerance.
    #[test]
    fn one_replica_managed_fleet_matches_bare_engine_bit_for_bit(
        seed in 0u64..1_000,
        kind_ix in 0usize..4,
        rate in 2.0f64..8.0,
    ) {
        use proptest::prelude::prop_assert_eq;
        let requests = generate_trace(TraceConfig {
            kind: TraceKind::all()[kind_ix],
            rate_per_s: rate,
            duration_s: 4.0,
            seed,
        });
        let mut pat = pat_core::LazyPat::new();
        let reference = serving::simulate_serving(&engine_config(), &mut pat, &requests);
        let config = ControllerConfig::managed(1, engine_config());
        let managed = FleetController::with_lazy_pat(
            config,
            Box::new(RoundRobin::new()),
            FaultPlan::none(),
        )
        .run(&requests);
        assert_conservation(&requests, &managed);
        let mut reference_records = reference.per_request.clone();
        reference_records.sort_by_key(|m| m.request_id);
        prop_assert_eq!(&managed.per_request, &reference_records);
        prop_assert_eq!(managed.completed, reference.metrics.completed);
        prop_assert_eq!(managed.fleet.mean_ttft_ms, reference.metrics.mean_ttft_ms);
        prop_assert_eq!(managed.fleet.p99_tpot_ms, reference.metrics.p99_tpot_ms);
        prop_assert_eq!(managed.unfinished, reference.unfinished);
        prop_assert_eq!(managed.failovers, 0);
        prop_assert_eq!(managed.lost, 0);
        prop_assert_eq!(managed.shed, 0);
    }
}

#[test]
fn failover_loses_nothing_and_pays_in_recomputed_prefill() {
    let requests = trace(8.0, 12.0, 11);
    let faults = FaultPlan::scripted(vec![crash(4.0, 0, Some(6.0))]);
    let config = ControllerConfig::managed(3, engine_config());
    let result = FleetController::with_lazy_pat(config, Box::new(PrefixAffinity::new()), faults)
        .run(&requests);
    assert_conservation(&requests, &result);
    assert_eq!(result.crashes, 1);
    // With two survivors and a restart, every request routed to the
    // crashed replica must be completed — explicitly none lost or left.
    assert_eq!(result.lost, 0, "lost: {:?}", result.lost_ids);
    assert_eq!(result.unfinished, 0);
    assert_eq!(result.completed, requests.len());
    assert!(result.failovers > 0, "the crash stranded no requests?");
    // The replays re-prefill prefixes that were warm on the dead replica.
    assert!(
        result.refilled_prefill_tokens > 0,
        "failover cost not accounted"
    );
    // The timeline records the crash, its detection, and the restart.
    let whats: Vec<&str> = result.events.iter().map(|e| e.what.as_str()).collect();
    assert!(whats.iter().any(|w| w.starts_with("crash replica 0")));
    assert!(whats
        .iter()
        .any(|w| w.starts_with("detected crash of replica 0")));
    assert!(whats.iter().any(|w| w.starts_with("replica 0 up")));
}

#[test]
fn permanent_crash_without_failover_loses_the_in_flight_work() {
    let requests = trace(8.0, 10.0, 5);
    let faults = FaultPlan::scripted(vec![crash(3.0, 1, None)]);
    let config = ControllerConfig::static_fleet(3, engine_config());
    let result =
        FleetController::with_lazy_pat(config, Box::new(RoundRobin::new()), faults).run(&requests);
    assert_conservation(&requests, &result);
    // No failover and no restart: whatever was on (or later routed to)
    // replica 1 is explicitly lost, never silently dropped.
    assert!(result.lost > 0);
    assert_eq!(result.completed + result.lost, requests.len());
    // Round-robin keeps addressing the dead replica, so roughly a third
    // of the offered load dies with it.
    let lost_share = result.lost as f64 / result.offered as f64;
    assert!(
        (0.15..=0.5).contains(&lost_share),
        "lost share {lost_share:.2}"
    );
}

#[test]
fn static_fleet_serves_limbo_after_restart_with_cold_penalty() {
    let requests = trace(6.0, 8.0, 7);
    let faults = FaultPlan::scripted(vec![crash(2.0, 0, Some(4.0))]);
    let config = ControllerConfig::static_fleet(2, engine_config());
    let result =
        FleetController::with_lazy_pat(config, Box::new(RoundRobin::new()), faults.clone())
            .run(&requests);
    assert_conservation(&requests, &result);
    // Requests routed into the void wait out the dead time, then get
    // served cold after the restart — completed, but slow.
    assert_eq!(
        result.lost + result.completed,
        requests.len() - result.unfinished - result.shed
    );
    assert!(result.completed > 0);
    let baseline = FleetController::with_lazy_pat(
        ControllerConfig::static_fleet(2, engine_config()),
        Box::new(RoundRobin::new()),
        FaultPlan::none(),
    )
    .run(&requests);
    assert!(
        result.fleet.p99_ttft_ms > baseline.fleet.p99_ttft_ms,
        "a crash must show up in the tail: {:.1} !> {:.1}",
        result.fleet.p99_ttft_ms,
        baseline.fleet.p99_ttft_ms
    );
}

#[test]
fn managed_fleet_beats_static_through_a_crash() {
    let requests = trace(8.0, 12.0, 13);
    let faults = FaultPlan::scripted(vec![crash(4.0, 0, Some(5.0))]);
    let managed = FleetController::with_lazy_pat(
        ControllerConfig::managed(3, engine_config()),
        Box::new(LeastOutstanding::new()),
        faults.clone(),
    )
    .run(&requests);
    let static_fleet = FleetController::with_lazy_pat(
        ControllerConfig::static_fleet(3, engine_config()),
        Box::new(RoundRobin::new()),
        faults,
    )
    .run(&requests);
    assert_conservation(&requests, &managed);
    assert_conservation(&requests, &static_fleet);
    assert!(
        managed.goodput > static_fleet.goodput,
        "managed goodput {:.3} !> static {:.3}",
        managed.goodput,
        static_fleet.goodput
    );
    let crash_window_managed = window_stats(&requests, &managed, 3.0, 9.0);
    let crash_window_static = window_stats(&requests, &static_fleet, 3.0, 9.0);
    assert!(
        crash_window_managed.goodput > crash_window_static.goodput,
        "through the crash: managed {:.3} !> static {:.3}",
        crash_window_managed.goodput,
        crash_window_static.goodput
    );
}

#[test]
fn straggler_completes_everything_but_slower() {
    let requests = trace(5.0, 8.0, 17);
    let faults = FaultPlan::scripted(vec![FaultEvent {
        at_s: 1.0,
        kind: FaultKind::Slowdown {
            replica: 0,
            factor: 0.4,
            duration_s: 5.0,
        },
    }]);
    let config = ControllerConfig::managed(2, engine_config());
    let slowed =
        FleetController::with_lazy_pat(config, Box::new(RoundRobin::new()), faults).run(&requests);
    let healthy = FleetController::with_lazy_pat(
        ControllerConfig::managed(2, engine_config()),
        Box::new(RoundRobin::new()),
        FaultPlan::none(),
    )
    .run(&requests);
    assert_conservation(&requests, &slowed);
    // A straggler degrades latency but loses nothing.
    assert_eq!(slowed.completed, requests.len());
    assert_eq!(slowed.lost, 0);
    assert!(
        slowed.fleet.mean_tpot_ms > healthy.fleet.mean_tpot_ms,
        "slowdown invisible in TPOT: {:.3} !> {:.3}",
        slowed.fleet.mean_tpot_ms,
        healthy.fleet.mean_tpot_ms
    );
}

#[test]
fn autoscaler_grows_under_load_and_drains_when_it_recedes() {
    // A short hot phase against a deliberately tiny scale-up threshold.
    let requests = trace(12.0, 10.0, 23);
    let mut autoscaler = AutoscalerConfig::new(1, 4);
    autoscaler.scale_up_outstanding = 4.0;
    autoscaler.scale_down_outstanding = 1.0;
    autoscaler.provision_delay_s = 1.0;
    autoscaler.cooldown_s = 1.0;
    let mut config = ControllerConfig::managed(1, engine_config());
    config.autoscaler = Some(autoscaler);
    let result = FleetController::with_lazy_pat(
        config,
        Box::new(LeastOutstanding::new()),
        FaultPlan::none(),
    )
    .run(&requests);
    assert_conservation(&requests, &result);
    assert!(result.scale_ups > 0, "never scaled up: {:?}", result.events);
    assert!(
        result.peak_replicas > 1,
        "peak {} replicas",
        result.peak_replicas
    );
    assert!(
        result.scale_downs > 0,
        "never drained back down: {:?}",
        result.events
    );
    // Graceful drain: scale-down must not lose or strand anything.
    assert_eq!(result.lost, 0);
    assert_eq!(
        result.completed,
        requests.len() - result.shed - result.unfinished
    );
}

#[test]
fn admission_control_sheds_explicitly_at_saturation() {
    // One replica, a firehose, and a tiny queue: most load must be shed,
    // and every shed request accounted by id.
    let requests = trace(40.0, 6.0, 29);
    let mut config = ControllerConfig::managed(1, engine_config());
    config.admission = Some(AdmissionConfig {
        max_outstanding_per_replica: 8,
        max_queued: 16,
    });
    let result =
        FleetController::with_lazy_pat(config, Box::new(RoundRobin::new()), FaultPlan::none())
            .run(&requests);
    assert_conservation(&requests, &result);
    assert!(result.shed > 0, "nothing shed at 40 req/s on one replica");
    assert_eq!(result.shed, result.shed_ids.len());
    // Backpressure keeps the *admitted* requests inside a sane envelope:
    // nothing is lost, and goodput reflects the shed load honestly.
    assert_eq!(result.lost, 0);
    assert!(result.goodput < 1.0);
}

#[test]
fn random_fault_runs_are_deterministic_and_conserve_requests() {
    let requests = trace(6.0, 10.0, 31);
    let fault_cfg = RandomFaultConfig {
        seed: 99,
        duration_s: 10.0,
        replicas: 3,
        crash_rate_per_min: 6.0,
        mean_restart_s: 3.0,
        slowdown_rate_per_min: 6.0,
        mean_slowdown_s: 4.0,
        slow_factor_range: (0.3, 0.8),
    };
    let run = || {
        let mut config = ControllerConfig::managed(3, engine_config());
        config.autoscaler = Some(AutoscalerConfig::new(2, 5));
        config.admission = Some(AdmissionConfig::default());
        FleetController::with_lazy_pat(
            config,
            Box::new(PrefixAffinity::new()),
            FaultPlan::random(&fault_cfg),
        )
        .run(&requests)
    };
    let a = run();
    let b = run();
    assert_conservation(&requests, &a);
    // Bit-identical reruns, via the serialized form (covers every field).
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    assert_eq!(a.per_request, b.per_request);
    assert_eq!(a.events, b.events);
    assert_eq!(a.shed_ids, b.shed_ids);
    assert_eq!(a.lost_ids, b.lost_ids);
    assert_eq!(a.refilled_prefill_tokens, b.refilled_prefill_tokens);
}

/// sim-lint's reason to exist, exercised end to end: one seeded scenario
/// (crash + restart + autoscaling + admission under a prefix-affinity
/// router) run twice in the same process must serialize — metrics JSON and
/// Chrome-trace timeline alike — to byte-identical strings with equal
/// digests. Any HashMap iteration, wall-clock read, or float-compare
/// nondeterminism anywhere in the stack shows up here.
#[test]
fn double_run_serialized_metrics_and_timeline_are_byte_identical() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    let digest = |bytes: &str| {
        let mut h = DefaultHasher::new();
        bytes.hash(&mut h);
        h.finish()
    };
    let requests = trace(8.0, 8.0, 17);
    let run = || {
        let mut config = ControllerConfig::managed(3, engine_config());
        config.autoscaler = Some(AutoscalerConfig::new(2, 5));
        config.admission = Some(AdmissionConfig::default());
        let faults = FaultPlan::scripted(vec![crash(2.0, 1, Some(2.5)), crash(5.0, 0, None)]);
        let result =
            FleetController::with_lazy_pat(config, Box::new(PrefixAffinity::new()), faults)
                .run(&requests);
        let metrics_json = serde_json::to_string(&result).unwrap();
        let timeline_json = controller::result_chrome_json(&result);
        (metrics_json, timeline_json)
    };
    let (metrics_a, timeline_a) = run();
    let (metrics_b, timeline_b) = run();
    assert_eq!(
        metrics_a, metrics_b,
        "serialized metrics must be byte-identical"
    );
    assert_eq!(
        timeline_a, timeline_b,
        "timeline export must be byte-identical"
    );
    assert_eq!(digest(&metrics_a), digest(&metrics_b));
    assert_eq!(digest(&timeline_a), digest(&timeline_b));
    // The scenario is non-trivial: events actually happened.
    assert!(!timeline_a.is_empty() && timeline_a != "[]");
}

#[test]
fn goodput_is_zero_not_nan_on_an_empty_offer() {
    let config = ControllerConfig::managed(2, engine_config());
    let result =
        FleetController::with_lazy_pat(config, Box::new(RoundRobin::new()), FaultPlan::none())
            .run(&[]);
    assert_eq!(result.offered, 0);
    assert_eq!(result.goodput, 0.0);
    assert!(result.fleet.mean_ttft_ms.is_finite());
    assert!(result.fleet.p99_ttft_ms.is_finite());
}

#[test]
fn router_skips_detected_dead_replicas() {
    // After detection, no new arrival may be routed into the dead
    // replica's limbo: managed mode with a long outage must still
    // complete everything on the survivors.
    let requests = trace(5.0, 10.0, 37);
    let faults = FaultPlan::scripted(vec![crash(1.0, 0, None)]);
    let config = ControllerConfig::managed(2, engine_config());
    let result =
        FleetController::with_lazy_pat(config, Box::new(RoundRobin::new()), faults).run(&requests);
    assert_conservation(&requests, &result);
    assert_eq!(result.lost, 0, "lost {:?}", result.lost_ids);
    assert_eq!(result.completed, requests.len());
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]
    /// The contract `sim_core::par` sells: worker count is a pure
    /// performance knob. A random faulted fleet scenario run on 1 thread
    /// and on 4 threads must serialize — full metrics JSON and the Chrome
    /// trace timeline alike — to byte-identical strings.
    #[test]
    fn thread_count_never_changes_metrics_or_timeline(
        seed in 0u64..1_000,
        rate in 4.0f64..9.0,
        crash_at in 1.0f64..4.0,
        restart_after in 1.0f64..3.0,
    ) {
        use proptest::prelude::prop_assert_eq;
        let requests = trace(rate, 8.0, seed);
        let run = |threads: usize| {
            sim_core::par::set_thread_override(Some(threads));
            let mut config = ControllerConfig::managed(3, engine_config());
            config.autoscaler = Some(AutoscalerConfig::new(2, 5));
            config.admission = Some(AdmissionConfig::default());
            let faults = FaultPlan::scripted(vec![
                crash(crash_at, 1, Some(crash_at + restart_after)),
                crash(crash_at + 1.5, 0, None),
            ]);
            let result =
                FleetController::with_lazy_pat(config, Box::new(PrefixAffinity::new()), faults)
                    .run(&requests);
            sim_core::par::set_thread_override(None);
            (
                serde_json::to_string(&result).expect("ControlResult serializes"),
                controller::result_chrome_json(&result),
            )
        };
        let (metrics_1t, timeline_1t) = run(1);
        let (metrics_4t, timeline_4t) = run(4);
        prop_assert_eq!(metrics_1t, metrics_4t, "metrics diverge across thread counts");
        prop_assert_eq!(timeline_1t, timeline_4t, "timelines diverge across thread counts");
    }
}

// ------------------------------------------------------------ kv movement

use controller::TransferConfig;
use kv_transfer::{FleetTopology, LinkSpec};

fn migration_config(replicas: usize, link: LinkSpec) -> ControllerConfig {
    let mut config = ControllerConfig::managed(replicas, engine_config());
    config.transfer = Some(TransferConfig::migration(FleetTopology::uniform(
        replicas, link,
    )));
    config
}

/// The tentpole claim at test scale: under crashes, warm-prefix migration
/// strictly reduces the prefill tokens recomputed on failover, and the
/// refill split plus the conservation invariant hold.
///
/// The scenario makes migration matter: replica 0 crashes and revives
/// *cold*, then replica 1 crashes — its orphans land on the cold replica 0
/// (least outstanding), which lacks the warm tool prefixes that the
/// untouched replica 2 still holds and can donate.
#[test]
fn migration_reduces_refilled_prefill_under_a_crash() {
    let requests = trace(8.0, 12.0, 11);
    let faults = || FaultPlan::scripted(vec![crash(2.0, 0, Some(2.0)), crash(4.26, 1, Some(6.0))]);
    let cold = FleetController::with_lazy_pat(
        ControllerConfig::managed(3, engine_config()),
        Box::new(LeastOutstanding::new()),
        faults(),
    )
    .run(&requests);
    let migrated = FleetController::with_lazy_pat(
        migration_config(3, LinkSpec::rdma_200g()),
        Box::new(LeastOutstanding::new()),
        faults(),
    )
    .run(&requests);
    assert_conservation(&requests, &migrated);
    assert!(migrated.failovers > 0, "the crash stranded nothing");
    assert!(
        migrated.migrations > 0,
        "no migration triggered: {:?}",
        migrated.events
    );
    assert!(migrated.migrated_prefix_tokens > 0);
    assert!(
        migrated.refilled_prefill_tokens < cold.refilled_prefill_tokens,
        "migration did not reduce refill: {} !< {}",
        migrated.refilled_prefill_tokens,
        cold.refilled_prefill_tokens
    );
    // The refill split always reconstitutes the total, and a plain managed
    // fleet never records a partial-migration refill.
    assert_eq!(
        migrated.refilled_prefill_tokens,
        migrated.refilled_cold + migrated.refilled_after_partial_migration
    );
    assert_eq!(cold.refilled_after_partial_migration, 0);
    assert_eq!(cold.migrated_prefix_tokens, 0);
    assert_eq!(cold.kv_transfers, 0);
    assert!(migrated.kv_transfers >= migrated.migrations as u64);
    assert!(migrated.kv_transfer_bytes > 0);
    assert_eq!(migrated.lost, 0);
    // Transfers occupy wire time: they appear as spans on the timeline and
    // as complete events in the Chrome export.
    assert!(migrated
        .timeline
        .iter()
        .any(|e| e.kind == "transfer" && e.dur_ns > 0));
    assert!(migrated.timeline.iter().any(|e| e.kind == "migrate-ingest"));
    assert!(controller::result_chrome_json(&migrated).contains("\"ph\":\"X\""));
}

/// A zero-latency, infinite-bandwidth link makes migration a free warm
/// cache: transfers finish at their request instant, never queue on a NIC,
/// and render as zero-length spans.
#[test]
fn instant_links_make_migration_free_and_waitless() {
    let requests = trace(8.0, 12.0, 11);
    let faults = FaultPlan::scripted(vec![crash(2.0, 0, Some(2.0)), crash(4.26, 1, Some(6.0))]);
    let result = FleetController::with_lazy_pat(
        migration_config(3, LinkSpec::instant()),
        Box::new(LeastOutstanding::new()),
        faults,
    )
    .run(&requests);
    assert_conservation(&requests, &result);
    assert!(result.migrations > 0, "no migration: {:?}", result.events);
    assert_eq!(result.kv_transfer_nic_wait_ns, 0);
    assert!(result
        .timeline
        .iter()
        .filter(|e| e.kind == "transfer")
        .all(|e| e.dur_ns == 0));
}

/// Disaggregated mode: every request prefills on the prefill tier, its KV
/// streams to a decode replica, and no shadow bookkeeping leaks into the
/// public accounting.
#[test]
fn disaggregated_fleet_hands_off_kv_and_completes() {
    let requests = trace(6.0, 8.0, 19);
    let mut config = ControllerConfig::managed(4, engine_config());
    config.transfer = Some(TransferConfig::disaggregated(
        FleetTopology::uniform(4, LinkSpec::rdma_200g()),
        2,
    ));
    let result = FleetController::with_lazy_pat(
        config,
        Box::new(LeastOutstanding::new()),
        FaultPlan::none(),
    )
    .run(&requests);
    assert_conservation(&requests, &result);
    assert!(
        result.disagg_handoffs > 0,
        "no handoffs: {:?}",
        result.events
    );
    assert_eq!(result.lost, 0);
    assert_eq!(result.shed, 0);
    assert!(
        result.completed == requests.len(),
        "completed {}/{} (unfinished {})",
        result.completed,
        requests.len(),
        result.unfinished
    );
    let shadow_bit = 1u64 << 63;
    assert!(result
        .per_request
        .iter()
        .all(|m| m.request_id & shadow_bit == 0));
    assert!(result
        .lost_ids
        .iter()
        .chain(result.shed_ids.iter())
        .all(|id| id & shadow_bit == 0));
    assert!(result.timeline.iter().any(|e| e.kind == "handoff-ingest"));
    assert!(result.kv_transfers >= result.disagg_handoffs as u64);
}

/// Transfer-plane runs stay bit-deterministic: same scenario serialized
/// after runs on 1 and 4 worker threads and an in-process rerun must be
/// byte-identical, with and without disaggregation.
#[test]
fn transfer_runs_are_deterministic_across_threads_and_reruns() {
    let requests = trace(7.0, 8.0, 41);
    let run = |threads: usize, disagg: bool| {
        sim_core::par::set_thread_override(Some(threads));
        let mut config = ControllerConfig::managed(4, engine_config());
        config.transfer = Some(if disagg {
            TransferConfig::disaggregated(FleetTopology::uniform(4, LinkSpec::ethernet_25g()), 2)
        } else {
            TransferConfig::migration(FleetTopology::uniform(4, LinkSpec::ethernet_25g()))
        });
        let faults = FaultPlan::scripted(vec![crash(2.0, if disagg { 3 } else { 0 }, Some(3.0))]);
        let result =
            FleetController::with_lazy_pat(config, Box::new(LeastOutstanding::new()), faults)
                .run(&requests);
        sim_core::par::set_thread_override(None);
        (
            serde_json::to_string(&result).expect("ControlResult serializes"),
            controller::result_chrome_json(&result),
        )
    };
    for disagg in [false, true] {
        let one = run(1, disagg);
        let four = run(4, disagg);
        let again = run(1, disagg);
        assert_eq!(
            one, four,
            "thread count changed a transfer run (disagg: {disagg})"
        );
        assert_eq!(one, again, "rerun diverged (disagg: {disagg})");
    }
}

/// A fleet under the hot-exact / cold-analytical fidelity policy keeps the
/// request accounting exact through crashes and mid-run fidelity switches,
/// and the switches actually happen.
#[test]
fn fidelity_policy_switches_mid_run_and_conserves_requests() {
    let requests = trace(10.0, 8.0, 23);
    let mut config = ControllerConfig::managed(3, engine_config());
    config.fidelity_policy = Some(FidelityPolicy::hot_exact_cold_analytical());
    let faults = FaultPlan::scripted(vec![crash(3.0, 1, Some(2.0))]);
    let result =
        FleetController::with_lazy_pat(config, Box::new(RoundRobin::new()), faults).run(&requests);
    assert_conservation(&requests, &result);
    assert!(
        result.fidelity_switches > 0,
        "the load-adaptive policy never switched a replica"
    );
    assert!(result.timeline.iter().any(|e| e.kind == "fidelity-switch"));
    assert!(result.completed > 0);
}

/// Mid-run fidelity switching stays bit-deterministic across worker-thread
/// counts and in-process reruns.
#[test]
fn fidelity_policy_runs_are_deterministic_across_threads_and_reruns() {
    let requests = trace(8.0, 6.0, 29);
    let run = |threads: usize| {
        sim_core::par::set_thread_override(Some(threads));
        let mut config = ControllerConfig::managed(3, engine_config());
        config.fidelity_policy = Some(FidelityPolicy::hot_exact_cold_analytical());
        let faults = FaultPlan::scripted(vec![crash(2.0, 0, Some(1.5))]);
        let result =
            FleetController::with_lazy_pat(config, Box::new(LeastOutstanding::new()), faults)
                .run(&requests);
        sim_core::par::set_thread_override(None);
        serde_json::to_string(&result).expect("ControlResult serializes")
    };
    let one = run(1);
    assert_eq!(one, run(4), "thread count changed a fidelity-policy run");
    assert_eq!(one, run(1), "fidelity-policy rerun diverged");
}

/// The fleet-scale bench's smoke scenario in miniature — a managed
/// analytical fleet serving a multi-tenant diurnal+burst stream through a
/// crash with the migration plane on — serializes to identical bytes at 1
/// and 4 worker threads and across in-process reruns.
#[test]
fn fleet_scale_smoke_is_thread_and_rerun_invariant() {
    use kv_transfer::{FleetTopology, LinkSpec};
    use rand::SeedableRng;
    use workloads::{generate_multi_tenant_at, Burst, BurstyArrivals, DiurnalArrivals};

    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let diurnal = DiurnalArrivals::new(6.0, 10.0, 0.5).take_until(10.0, &mut rng);
    let bursty = BurstyArrivals::new(
        4.0,
        vec![Burst {
            start_s: 4.0,
            end_s: 6.0,
            multiplier: 2.5,
        }],
    )
    .take_until(10.0, &mut rng);
    let day = generate_multi_tenant_at(
        &[
            (TraceKind::ToolAgent, diurnal),
            (TraceKind::Conversation, bursty),
        ],
        19,
    );
    let run = |threads: usize| {
        sim_core::par::set_thread_override(Some(threads));
        let mut config = ControllerConfig::managed(4, engine_config());
        config.fidelity = Fidelity::Analytical;
        config.transfer = Some(controller::TransferConfig::migration(
            FleetTopology::uniform(4, LinkSpec::rdma_200g()),
        ));
        let faults = FaultPlan::scripted(vec![crash(3.0, 1, Some(2.0))]);
        let result =
            FleetController::with_lazy_pat(config, Box::new(LeastOutstanding::new()), faults)
                .run(&day.requests);
        sim_core::par::set_thread_override(None);
        serde_json::to_string(&result).expect("ControlResult serializes")
    };
    let one = run(1);
    assert_eq!(
        one,
        run(4),
        "thread count changed the fleet-scale smoke run"
    );
    assert_eq!(one, run(1), "fleet-scale smoke rerun diverged");
}

/// An all-analytical fleet pays the same conservation guarantees as the
/// exact one while running the whole control plane (faults, failover,
/// autoscaling) — the configuration the fleet-scale bench leans on.
#[test]
fn analytical_fleet_survives_the_full_control_plane() {
    let requests = trace(12.0, 8.0, 31);
    let mut config = ControllerConfig::managed(2, engine_config());
    config.fidelity = Fidelity::Analytical;
    config.autoscaler = Some(AutoscalerConfig::new(2, 4));
    config.admission = Some(AdmissionConfig::default());
    let faults = FaultPlan::scripted(vec![crash(2.5, 0, Some(2.0))]);
    let result = FleetController::with_lazy_pat(config, Box::new(LeastOutstanding::new()), faults)
        .run(&requests);
    assert_conservation(&requests, &result);
    assert_eq!(result.crashes, 1);
    assert!(result.completed > 0);
    assert!(result.fleet.mean_ttft_ms.is_finite() && result.fleet.mean_tpot_ms.is_finite());
}
