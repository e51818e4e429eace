//! Fleet outcome accounting. A fixed fleet reports a [`ClusterResult`]:
//! aggregate latency, load balance, and the KV memory cost of prefix
//! duplication across replicas. A managed fleet reports a
//! [`ControlResult`]: goodput, loss classes, and per-phase slices of a run.

use replica_fidelity::Fidelity;
use serde::Serialize;
use serving::{AggregateMetrics, ModelSpec, RequestMetrics, SimulationResult};
use sim_core::stats::{guarded_mean, percentile_sorted};
use workloads::Request;

/// One replica's share of a cluster run.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaSummary {
    /// Requests routed to this replica.
    pub routed: usize,
    /// Token-level prefix-cache hit rate of the replica's KV cache.
    pub prefix_hit_rate: f64,
    /// The fidelity this replica was simulated at.
    pub fidelity: Fidelity,
    /// The replica's full single-engine simulation result.
    pub result: SimulationResult,
}

/// Result of one cluster simulation.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterResult {
    /// Per-replica summaries, indexed by replica.
    pub per_replica: Vec<ReplicaSummary>,
    /// Aggregate latency metrics over every completed request in the fleet.
    pub fleet: AggregateMetrics,
    /// Token-level prefix-cache hit rate summed over all replicas.
    pub fleet_hit_rate: f64,
    /// Coefficient of variation of per-replica routed-request counts
    /// (0 = perfectly balanced).
    pub load_imbalance: f64,
    /// Shareable KV blocks resident on more than one replica, counted once
    /// per extra copy.
    pub duplicated_kv_blocks: usize,
    /// The same duplication in bytes of KV-cache memory.
    pub duplicated_kv_bytes: u64,
    /// `(request id, replica)` for every routed request, in arrival order.
    pub assignments: Vec<(u64, usize)>,
    /// Fleet-wide unfinished requests (drain-limit drops).
    pub unfinished: usize,
    /// Fleet-wide recompute preemptions.
    pub preemptions: u64,
    /// Fleet-wide admission rejections.
    pub dropped: u64,
}

impl ClusterResult {
    /// Completed requests across the fleet.
    pub fn completed(&self) -> usize {
        self.fleet.completed
    }
}

/// A flat, serializable row of the headline fleet metrics (what the Fig. 18
/// bench persists per `(policy, trace, replicas)` cell).
#[derive(Debug, Clone, Serialize)]
pub struct FleetRow {
    /// Routing policy name.
    pub policy: String,
    /// Trace name.
    pub trace: String,
    /// Number of replicas.
    pub replicas: usize,
    /// Offered load, req/s (fleet-wide).
    pub rate_per_s: f64,
    /// Mean time to first token, ms.
    pub mean_ttft_ms: f64,
    /// Mean time per output token, ms.
    pub mean_tpot_ms: f64,
    /// 99th-percentile TPOT, ms.
    pub p99_tpot_ms: f64,
    /// Fleet prefix-cache hit rate in `[0, 1]`.
    pub fleet_hit_rate: f64,
    /// Load-imbalance coefficient (CV of routed counts).
    pub load_imbalance: f64,
    /// Cross-replica duplicated KV bytes, MiB.
    pub duplicated_kv_mib: f64,
    /// Completed requests.
    pub completed: usize,
    /// Unfinished requests.
    pub unfinished: usize,
}

impl FleetRow {
    /// Flattens a cluster result into one bench row.
    pub fn new(policy: &str, trace: &str, rate_per_s: f64, result: &ClusterResult) -> Self {
        FleetRow {
            policy: policy.to_string(),
            trace: trace.to_string(),
            replicas: result.per_replica.len(),
            rate_per_s,
            mean_ttft_ms: result.fleet.mean_ttft_ms,
            mean_tpot_ms: result.fleet.mean_tpot_ms,
            p99_tpot_ms: result.fleet.p99_tpot_ms,
            fleet_hit_rate: result.fleet_hit_rate,
            load_imbalance: result.load_imbalance,
            duplicated_kv_mib: result.duplicated_kv_bytes as f64 / (1024.0 * 1024.0),
            completed: result.fleet.completed,
            unfinished: result.unfinished,
        }
    }
}

/// Coefficient of variation (stddev / mean) of per-replica routed counts.
/// Zero when perfectly balanced or when nothing was routed.
pub fn load_imbalance(routed: &[usize]) -> f64 {
    if routed.is_empty() {
        return 0.0;
    }
    let n = routed.len() as f64;
    let mean = routed.iter().sum::<usize>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = routed
        .iter()
        .map(|&r| (r as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Counts extra copies across replicas: a block resident on `k` replicas
/// contributes `k - 1`.
pub(crate) fn duplicated_blocks(resident_hashes: &[Vec<u64>]) -> usize {
    let mut counts = std::collections::BTreeMap::new();
    for replica in resident_hashes {
        for &h in replica {
            *counts.entry(h).or_insert(0usize) += 1;
        }
    }
    counts.values().map(|&c| c.saturating_sub(1)).sum()
}

/// Bytes of KV cache one block of `block_size` tokens occupies for `model`
/// (K and V, fp16, all layers).
pub(crate) fn kv_block_bytes(model: &ModelSpec, block_size: usize) -> u64 {
    let per_token = 2 * model.head.num_kv_heads() * model.head.head_dim() * 2 * model.num_layers;
    (per_token * block_size) as u64
}

/// One entry in the controller's event timeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ControlEvent {
    /// Virtual time of the event, seconds.
    pub t_s: f64,
    /// Human-readable description (`"crash replica 0"`, `"scale-up"`, ...).
    pub what: String,
}

/// One structured entry on the event-queue timeline: what the control
/// plane's event loop did and when, in integer nanoseconds. Unlike
/// [`ControlEvent`] (free-text, for humans), these are machine-readable and
/// include the periodic health ticks — the raw material for the Chrome
/// trace export ([`crate::timeline_chrome_json`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimelineEvent {
    /// Virtual time of the event, integer nanoseconds.
    pub t_ns: u64,
    /// Event kind: `"crash"`, `"detect"`, `"revive"`, `"slowdown"`,
    /// `"restore-speed"`, `"tick"`, `"scale-up"`, `"scale-down"`,
    /// `"retire"`, `"transfer"`, `"migrate-ingest"`, `"prewarm-ingest"`,
    /// `"handoff-ingest"`, `"transfer-lost"`.
    pub kind: String,
    /// The replica the event concerns, if any (`None` for fleet-wide
    /// events such as ticks).
    pub replica: Option<usize>,
    /// Span length in nanoseconds: `0` for instant control actions,
    /// positive for extended ones (KV transfers occupy their wire time).
    /// Spans render as complete events in the Chrome trace export.
    pub dur_ns: u64,
}

/// Result of one controlled fleet run.
///
/// Every offered request lands in exactly one of four buckets —
/// `completed`, `shed`, `lost`, `unfinished` — so nothing is ever silently
/// dropped: `offered == completed + shed + lost + unfinished` always holds.
#[derive(Debug, Clone, Serialize)]
pub struct ControlResult {
    /// Fleet-wide aggregates over completed requests, with latencies
    /// measured from each request's *original* arrival (failover
    /// resubmission delay is charged to the request, not hidden).
    pub fleet: AggregateMetrics,
    /// Per-request records (completed only), corrected to original
    /// arrivals and sorted by request id.
    pub per_request: Vec<RequestMetrics>,
    /// Requests offered to the controller.
    pub offered: usize,
    /// Requests that completed decoding somewhere in the fleet.
    pub completed: usize,
    /// Requests explicitly rejected by admission control.
    pub shed: usize,
    /// Requests lost to crashes (no failover, or the fleet never
    /// recovered enough capacity to replay them).
    pub lost: usize,
    /// Requests still queued or in flight when the run's horizon expired.
    pub unfinished: usize,
    /// Fraction of offered requests that completed within the TTFT SLO
    /// (0.0 when nothing was offered).
    pub goodput: f64,
    /// The TTFT SLO the goodput is measured against, ms.
    pub slo_ttft_ms: f64,
    /// Requests rerouted off a crashed replica.
    pub failovers: usize,
    /// Prefill tokens recomputed because failover landed a request on a
    /// replica without its warm prefix — the PAT-specific cost of losing
    /// a warm cache. Always `refilled_cold + refilled_after_partial_migration`.
    pub refilled_prefill_tokens: u64,
    /// Refilled tokens for failovers that got no migrated KV at all (the
    /// whole uncovered prompt recomputed cold).
    pub refilled_cold: u64,
    /// Refilled tokens for failovers whose prefix was partially covered by
    /// a KV migration — only the uncovered suffix recomputed.
    pub refilled_after_partial_migration: u64,
    /// Prompt tokens whose KV arrived over the transfer plane (migration,
    /// prewarm, and disaggregation-handoff imports) instead of being
    /// recomputed. Disjoint from the refilled counts: a block is never
    /// both migrated and recomputed.
    pub migrated_prefix_tokens: u64,
    /// Failover requests whose prefix was (partially) served by migration.
    pub migrations: usize,
    /// Speculative prefix pushes to replicas that (re)joined the fleet.
    pub prewarm_transfers: usize,
    /// Prefill→decode KV handoffs completed in disaggregated mode.
    pub disagg_handoffs: usize,
    /// KV transfers completed on the movement plane (all kinds).
    pub kv_transfers: u64,
    /// Bytes moved by completed KV transfers.
    pub kv_transfer_bytes: u64,
    /// Time completed transfers spent queued behind busy NICs, ns.
    pub kv_transfer_nic_wait_ns: u64,
    /// Crashes injected (and actually applied).
    pub crashes: usize,
    /// Autoscaler scale-up decisions.
    pub scale_ups: usize,
    /// Autoscaler scale-down (drain) decisions.
    pub scale_downs: usize,
    /// Mid-run replica fidelity switches performed by the fidelity policy
    /// (0 when no [`crate::FidelityPolicy`] is configured).
    pub fidelity_switches: usize,
    /// Maximum number of live (non-dead) replicas at any instant.
    pub peak_replicas: usize,
    /// KV-pressure preemptions summed across all replica incarnations.
    pub preemptions: u64,
    /// Timeline of controller actions, in virtual-time order.
    pub events: Vec<ControlEvent>,
    /// Structured event-queue timeline (includes health ticks), in
    /// virtual-time order. Feed to [`crate::timeline_chrome_json`] for a
    /// `chrome://tracing` view of the run.
    pub timeline: Vec<TimelineEvent>,
    /// Ids of shed requests, sorted.
    pub shed_ids: Vec<u64>,
    /// Ids of lost requests, sorted.
    pub lost_ids: Vec<u64>,
}

/// Goodput and tail latency over one arrival window of a run — used to
/// compare fleets phase by phase (steady state, through a crash, through a
/// burst).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowStats {
    /// Window start (arrival time, inclusive), seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub to_s: f64,
    /// Requests whose original arrival falls in the window.
    pub offered: usize,
    /// Of those, how many completed.
    pub completed: usize,
    /// Of those, how many completed within the TTFT SLO.
    pub within_slo: usize,
    /// `within_slo / offered` (0.0 for an empty window).
    pub goodput: f64,
    /// 99th-percentile TTFT over the window's completions, ms.
    pub p99_ttft_ms: f64,
    /// Mean TTFT over the window's completions, ms.
    pub mean_ttft_ms: f64,
}

/// Reusable buffers for [`window_stats_with`]. Slicing a long run into many
/// windows (phase tables, rolling dashboards, the fleet-scale bench) stops
/// allocating after the first window.
#[derive(Debug, Default)]
pub struct WindowScratch {
    ids: Vec<u64>,
    ttfts_ms: Vec<f64>,
}

/// Slices `result` to the requests of `trace` arriving in `[from_s, to_s)`.
///
/// TTFTs in `result.per_request` are already corrected to original
/// arrivals, so a request delayed by failover shows its true
/// user-perceived first-token latency here.
pub fn window_stats(
    trace: &[Request],
    result: &ControlResult,
    from_s: f64,
    to_s: f64,
) -> WindowStats {
    window_stats_with(&mut WindowScratch::default(), trace, result, from_s, to_s)
}

/// [`window_stats`] with caller-owned scratch buffers: sorts the window's
/// TTFTs once (instead of once per quantile) and reuses `scratch`'s
/// allocations across calls.
pub fn window_stats_with(
    scratch: &mut WindowScratch,
    trace: &[Request],
    result: &ControlResult,
    from_s: f64,
    to_s: f64,
) -> WindowStats {
    scratch.ids.clear();
    scratch.ids.extend(
        trace
            .iter()
            .filter(|r| (from_s..to_s).contains(&r.arrival_s))
            .map(|r| r.id),
    );
    scratch.ids.sort_unstable();
    scratch.ids.dedup();
    scratch.ttfts_ms.clear();
    scratch.ttfts_ms.extend(
        result
            .per_request
            .iter()
            .filter(|m| scratch.ids.binary_search(&m.request_id).is_ok())
            .map(|m| m.ttft_ns / 1e6),
    );
    let within_slo = scratch
        .ttfts_ms
        .iter()
        .filter(|&&t| t <= result.slo_ttft_ms)
        .count();
    let offered = scratch.ids.len();
    let completed = scratch.ttfts_ms.len();
    let mean_ttft_ms = guarded_mean(&scratch.ttfts_ms);
    scratch.ttfts_ms.sort_unstable_by(f64::total_cmp);
    WindowStats {
        from_s,
        to_s,
        offered,
        completed,
        within_slo,
        goodput: if offered == 0 {
            0.0
        } else {
            within_slo as f64 / offered as f64
        },
        p99_ttft_ms: percentile_sorted(&scratch.ttfts_ms, 0.99),
        mean_ttft_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::PromptSpec;

    fn result_with(per_request: Vec<RequestMetrics>, slo_ttft_ms: f64) -> ControlResult {
        ControlResult {
            fleet: AggregateMetrics::from_requests(&per_request),
            offered: per_request.len(),
            completed: per_request.len(),
            per_request,
            shed: 0,
            lost: 0,
            unfinished: 0,
            goodput: 1.0,
            slo_ttft_ms,
            failovers: 0,
            refilled_prefill_tokens: 0,
            refilled_cold: 0,
            refilled_after_partial_migration: 0,
            migrated_prefix_tokens: 0,
            migrations: 0,
            prewarm_transfers: 0,
            disagg_handoffs: 0,
            kv_transfers: 0,
            kv_transfer_bytes: 0,
            kv_transfer_nic_wait_ns: 0,
            crashes: 0,
            scale_ups: 0,
            scale_downs: 0,
            fidelity_switches: 0,
            peak_replicas: 1,
            preemptions: 0,
            events: Vec::new(),
            timeline: Vec::new(),
            shed_ids: Vec::new(),
            lost_ids: Vec::new(),
        }
    }

    #[test]
    fn window_stats_slice_by_original_arrival() {
        let trace: Vec<Request> = (0..4)
            .map(|i| Request {
                id: i,
                arrival_s: i as f64,
                prompt: PromptSpec::from_parts([(1, 16)]),
                decode_tokens: 4,
            })
            .collect();
        let per_request: Vec<RequestMetrics> = (0..4)
            .map(|i| RequestMetrics {
                request_id: i,
                ttft_ns: if i < 2 { 5e6 } else { 500e6 },
                tpot_ns: 1e6,
                completion_ns: 600e6,
                decode_tokens: 4,
            })
            .collect();
        let result = result_with(per_request, 100.0);
        let early = window_stats(&trace, &result, 0.0, 2.0);
        assert_eq!(early.offered, 2);
        assert_eq!(early.within_slo, 2);
        assert_eq!(early.goodput, 1.0);
        let late = window_stats(&trace, &result, 2.0, 4.0);
        assert_eq!(late.offered, 2);
        assert_eq!(late.within_slo, 0);
        assert_eq!(late.goodput, 0.0);
        assert!(late.p99_ttft_ms > early.p99_ttft_ms);
        let empty = window_stats(&trace, &result, 10.0, 20.0);
        assert_eq!(empty.offered, 0);
        assert_eq!(empty.goodput, 0.0);
        assert!(empty.p99_ttft_ms.is_finite());
    }

    #[test]
    fn window_stats_with_reused_scratch_matches_fresh() {
        let trace: Vec<Request> = (0..8)
            .map(|i| Request {
                id: i,
                arrival_s: i as f64,
                prompt: PromptSpec::from_parts([(1, 16)]),
                decode_tokens: 4,
            })
            .collect();
        let per_request: Vec<RequestMetrics> = (0..8)
            .map(|i| RequestMetrics {
                request_id: i,
                ttft_ns: (i + 1) as f64 * 7e6,
                tpot_ns: 1e6,
                completion_ns: 600e6,
                decode_tokens: 4,
            })
            .collect();
        let result = result_with(per_request, 100.0);
        let mut scratch = WindowScratch::default();
        for (from_s, to_s) in [(0.0, 4.0), (4.0, 8.0), (2.0, 6.0), (9.0, 12.0)] {
            let reused = window_stats_with(&mut scratch, &trace, &result, from_s, to_s);
            assert_eq!(reused, window_stats(&trace, &result, from_s, to_s));
        }
    }

    #[test]
    fn imbalance_is_zero_when_balanced() {
        assert_eq!(load_imbalance(&[5, 5, 5, 5]), 0.0);
        assert_eq!(load_imbalance(&[]), 0.0);
        assert_eq!(load_imbalance(&[0, 0]), 0.0);
    }

    #[test]
    fn imbalance_grows_with_skew() {
        let even = load_imbalance(&[10, 10, 10, 10]);
        let mild = load_imbalance(&[13, 9, 10, 8]);
        let severe = load_imbalance(&[37, 1, 1, 1]);
        assert!(even < mild && mild < severe);
        // All 40 requests on one of four replicas: CV = sqrt(3).
        assert!((load_imbalance(&[40, 0, 0, 0]) - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn duplication_counts_extra_copies_only() {
        assert_eq!(duplicated_blocks(&[vec![1, 2], vec![3, 4]]), 0);
        assert_eq!(duplicated_blocks(&[vec![1, 2], vec![2, 3]]), 1);
        assert_eq!(duplicated_blocks(&[vec![7], vec![7], vec![7]]), 2);
    }

    #[test]
    fn kv_block_bytes_matches_hand_computation() {
        let model = ModelSpec::llama3_8b();
        // 8 KV heads x 128 dim x 2 (K,V) x 2 bytes x 32 layers x 16 tokens.
        assert_eq!(kv_block_bytes(&model, 16), 8 * 128 * 2 * 2 * 32 * 16);
    }
}
