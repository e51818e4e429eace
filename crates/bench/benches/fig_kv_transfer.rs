//! KV movement plane (extension): what moving KV blocks between replicas
//! buys a fleet that keeps losing them.
//!
//! Four fleets of four replicas serve the identical toolagent stream and
//! suffer the identical double fault: replica 0 crashes and revives *cold*,
//! then replica 2 crashes — its orphans fail over onto the freshly revived,
//! empty replica 0 while the untouched replicas still hold every warm tool
//! prefix. A 3x burst follows. (For the disaggregated fleet that is one
//! replica from each tier, staggered — never a whole tier at once.) The
//! fleets differ only in how they treat the KV that the crashes strand:
//!
//! * **no-migration** — least-outstanding routing, no transfer plane: every
//!   failover re-prefills from token zero. The baseline everything else is
//!   measured against.
//! * **prefix-affinity** — the routing-only answer: steer requests toward
//!   replicas that already hold their prefix. No KV ever moves.
//! * **migration** — same router as the baseline, plus the kv-transfer
//!   plane: failover targets pull the overlapping prefix blocks from the
//!   best donor over a 200 Gb RDMA link and only re-prefill the uncovered
//!   suffix; revived replicas are speculatively prewarmed.
//! * **disaggregation** — two prefill-only and two decode-only replicas:
//!   every prefill streams its finished KV to the decode tier before decode
//!   admission, so the transfer plane is on the critical path of *every*
//!   request, not just failovers.
//!
//! Reported per phase (steady / crash / burst / overall): goodput and P99
//! TTFT; per fleet: TPOT, the refilled-prefill split (cold vs
//! after-partial-migration), and the transfer plane's own accounting
//! (transfers, bytes, NIC wait). In the full scenario the migration fleet
//! must strictly beat no-migration on both refilled prefill tokens and
//! crash-phase P99 TTFT. Every fleet is simulated twice and the two reports
//! must serialize byte-identically — the whole run sits on the integer-ns
//! spine, so the committed `BENCH_kv_transfer.json` is bit-stable across
//! reruns and thread counts.
//!
//! Set `PAT_BENCH_SMOKE=1` for a scaled-down pipeline smoke run that skips
//! the win assertions and never touches the committed artifact.

use controller::{
    window_stats, ControlResult, ControllerConfig, FaultEvent, FaultKind, FaultPlan,
    FleetController, LeastOutstanding, PrefixAffinity, Router, TransferConfig,
};
use kv_transfer::{FleetTopology, LinkSpec};
use pat_bench::{banner, save_json};
use rand::SeedableRng;
use serde::Serialize;
use serving::{ModelSpec, ServingConfig};
use workloads::{generate_trace_at, Burst, BurstyArrivals, TraceKind};

const SEED: u64 = 6161;
const REPLICAS: usize = 4;
const PREFILL_REPLICAS: usize = 2;
const BURST_X: f64 = 3.0;
const SLO_TTFT_MS: f64 = 500.0;

/// One crash-and-burst scenario: load, burst window, the two crash times.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    base_rate: f64,
    duration_s: f64,
    burst_from_s: f64,
    burst_to_s: f64,
    crash0_at_s: f64,
    restart0_after_s: f64,
    crash1_at_s: f64,
    restart1_after_s: f64,
}

/// The committed Fig.-class scenario behind `BENCH_kv_transfer.json`.
const FULL: Scenario = Scenario {
    base_rate: 12.0,
    duration_s: 30.0,
    burst_from_s: 16.0,
    burst_to_s: 24.0,
    crash0_at_s: 5.0,
    restart0_after_s: 3.0,
    crash1_at_s: 8.4,
    restart1_after_s: 8.0,
};

/// A few seconds through the same pipeline for the CI smoke run.
const SMOKE: Scenario = Scenario {
    base_rate: 6.0,
    duration_s: 8.0,
    burst_from_s: 4.0,
    burst_to_s: 6.0,
    crash0_at_s: 2.0,
    restart0_after_s: 1.5,
    crash1_at_s: 3.8,
    restart1_after_s: 3.0,
};

#[derive(Debug, Clone, Serialize)]
struct PhaseRow {
    fleet: String,
    phase: String,
    from_s: f64,
    to_s: f64,
    offered: usize,
    completed: usize,
    within_slo: usize,
    goodput: f64,
    p99_ttft_ms: f64,
    mean_ttft_ms: f64,
}

#[derive(Debug, Clone, Serialize)]
struct FleetSummary {
    fleet: String,
    goodput: f64,
    offered: usize,
    completed: usize,
    shed: usize,
    lost: usize,
    unfinished: usize,
    failovers: usize,
    refilled_prefill_tokens: u64,
    refilled_cold: u64,
    refilled_after_partial_migration: u64,
    migrated_prefix_tokens: u64,
    migrations: usize,
    prewarm_transfers: usize,
    disagg_handoffs: usize,
    kv_transfers: u64,
    kv_transfer_bytes: u64,
    kv_transfer_nic_wait_ns: u64,
    p99_ttft_ms: f64,
    mean_tpot_ms: f64,
    p99_tpot_ms: f64,
}

#[derive(Debug, Clone, Serialize)]
struct KvTransferReport {
    slo_ttft_ms: f64,
    link: String,
    phases: Vec<PhaseRow>,
    fleets: Vec<FleetSummary>,
}

const FLEETS: [&str; 4] = [
    "no-migration",
    "prefix-affinity",
    "migration",
    "disaggregation",
];

fn faults(sc: &Scenario) -> FaultPlan {
    FaultPlan::scripted(vec![
        FaultEvent {
            at_s: sc.crash0_at_s,
            kind: FaultKind::Crash {
                replica: 0,
                restart_after_s: Some(sc.restart0_after_s),
            },
        },
        FaultEvent {
            at_s: sc.crash1_at_s,
            kind: FaultKind::Crash {
                replica: 2,
                restart_after_s: Some(sc.restart1_after_s),
            },
        },
    ])
}

/// All four fleets share the same base control plane (health checks,
/// failover, fixed size, one SLO); they differ only in router and
/// transfer-plane configuration, so every delta in the output is
/// attributable to how KV moves.
fn fleet_config(fleet: &str) -> ControllerConfig {
    let engine = ServingConfig::single_gpu(ModelSpec::llama3_8b());
    let mut config = ControllerConfig::managed(REPLICAS, engine);
    config.slo_ttft_ms = SLO_TTFT_MS;
    match fleet {
        "migration" => {
            config.transfer = Some(TransferConfig::migration(FleetTopology::uniform(
                REPLICAS,
                LinkSpec::rdma_200g(),
            )));
        }
        "disaggregation" => {
            config.transfer = Some(TransferConfig::disaggregated(
                FleetTopology::uniform(REPLICAS, LinkSpec::rdma_200g()),
                PREFILL_REPLICAS,
            ));
        }
        _ => {}
    }
    config
}

fn fleet_router(fleet: &str) -> Box<dyn Router> {
    match fleet {
        "prefix-affinity" => Box::new(PrefixAffinity::new()),
        _ => Box::new(LeastOutstanding::new()),
    }
}

fn run_fleets(sc: &Scenario, trace: &[workloads::Request]) -> Vec<ControlResult> {
    sim_core::par::ordered_map(&FLEETS, |_, fleet| {
        FleetController::with_lazy_pat(fleet_config(fleet), fleet_router(fleet), faults(sc))
            .run(trace)
    })
}

fn phase_rows(
    fleet: &str,
    sc: &Scenario,
    trace: &[workloads::Request],
    result: &ControlResult,
    rows: &mut Vec<PhaseRow>,
) {
    let crash_to_s = sc.crash1_at_s + sc.restart1_after_s;
    let phases = [
        ("steady", 0.0, sc.crash0_at_s),
        ("crash", sc.crash0_at_s, crash_to_s),
        ("burst", sc.burst_from_s, sc.burst_to_s),
        ("overall", 0.0, sc.duration_s),
    ];
    for (phase, from_s, to_s) in phases {
        let w = window_stats(trace, result, from_s, to_s);
        rows.push(PhaseRow {
            fleet: fleet.to_string(),
            phase: phase.to_string(),
            from_s,
            to_s,
            offered: w.offered,
            completed: w.completed,
            within_slo: w.within_slo,
            goodput: w.goodput,
            p99_ttft_ms: w.p99_ttft_ms,
            mean_ttft_ms: w.mean_ttft_ms,
        });
    }
}

fn summarize(fleet: &str, r: &ControlResult) -> FleetSummary {
    // Conservation: every offered request lands in exactly one bucket, and
    // the refill split sums to the headline counter.
    assert_eq!(
        r.offered,
        r.completed + r.shed + r.lost + r.unfinished,
        "{fleet}: request accounting does not balance"
    );
    assert_eq!(
        r.refilled_prefill_tokens,
        r.refilled_cold + r.refilled_after_partial_migration,
        "{fleet}: refill split does not sum"
    );
    FleetSummary {
        fleet: fleet.to_string(),
        goodput: r.goodput,
        offered: r.offered,
        completed: r.completed,
        shed: r.shed,
        lost: r.lost,
        unfinished: r.unfinished,
        failovers: r.failovers,
        refilled_prefill_tokens: r.refilled_prefill_tokens,
        refilled_cold: r.refilled_cold,
        refilled_after_partial_migration: r.refilled_after_partial_migration,
        migrated_prefix_tokens: r.migrated_prefix_tokens,
        migrations: r.migrations,
        prewarm_transfers: r.prewarm_transfers,
        disagg_handoffs: r.disagg_handoffs,
        kv_transfers: r.kv_transfers,
        kv_transfer_bytes: r.kv_transfer_bytes,
        kv_transfer_nic_wait_ns: r.kv_transfer_nic_wait_ns,
        p99_ttft_ms: r.fleet.p99_ttft_ms,
        mean_tpot_ms: r.fleet.mean_tpot_ms,
        p99_tpot_ms: r.fleet.p99_tpot_ms,
    }
}

fn build_report(sc: &Scenario, trace: &[workloads::Request]) -> KvTransferReport {
    let results = run_fleets(sc, trace);
    let mut phases: Vec<PhaseRow> = Vec::new();
    let mut fleets: Vec<FleetSummary> = Vec::new();
    for (name, result) in FLEETS.iter().zip(&results) {
        phase_rows(name, sc, trace, result, &mut phases);
        fleets.push(summarize(name, result));
    }
    KvTransferReport {
        slo_ttft_ms: SLO_TTFT_MS,
        link: "rdma_200g".to_string(),
        phases,
        fleets,
    }
}

fn main() {
    let smoke = sim_core::knobs::flag("PAT_BENCH_SMOKE");
    let sc = if smoke { SMOKE } else { FULL };
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let arrivals = BurstyArrivals::new(
        sc.base_rate,
        vec![Burst {
            start_s: sc.burst_from_s,
            end_s: sc.burst_to_s,
            multiplier: BURST_X,
        }],
    )
    .take_until(sc.duration_s, &mut rng);
    let trace = generate_trace_at(TraceKind::ToolAgent, &arrivals, SEED);
    banner(&format!(
        "KV movement plane{} — {} requests over {:.0} s \
         ({:.0} req/s base, {BURST_X:.0}x burst at {:.0}-{:.0} s), \
         crash r0 at {:.0} s (+{:.0} s), crash r2 at {:.1} s (+{:.0} s)",
        if smoke { " (smoke)" } else { "" },
        trace.len(),
        sc.duration_s,
        sc.base_rate,
        sc.burst_from_s,
        sc.burst_to_s,
        sc.crash0_at_s,
        sc.restart0_after_s,
        sc.crash1_at_s,
        sc.restart1_after_s,
    ));

    // Two full in-process runs: the movement plane must not cost the stack
    // its bit-determinism, so the reports have to serialize identically.
    let report = build_report(&sc, &trace);
    let rerun = build_report(&sc, &trace);
    let json = pat_bench::artifact_json(&report).expect("serializable");
    let rerun_json = pat_bench::artifact_json(&rerun).expect("serializable");
    assert_eq!(
        json, rerun_json,
        "rerun diverged: the run is not deterministic"
    );

    println!(
        "{:<16} {:<8} {:>8} {:>9} {:>9} {:>9} {:>12}",
        "fleet", "phase", "offered", "done", "in-SLO", "goodput", "P99 TTFT(ms)"
    );
    for row in &report.phases {
        println!(
            "{:<16} {:<8} {:>8} {:>9} {:>9} {:>8.1}% {:>12.0}",
            row.fleet,
            row.phase,
            row.offered,
            row.completed,
            row.within_slo,
            100.0 * row.goodput,
            row.p99_ttft_ms,
        );
    }

    banner("fleet summaries");
    for f in &report.fleets {
        println!(
            "{:<16} goodput {:>5.1}% | refilled {} (cold {} + after-migration {}) | \
             {} tokens over the wire in {} migrations | prewarms {} handoffs {} | \
             {} transfers, {:.1} MB, NIC wait {:.2} ms | TPOT mean {:.2} / p99 {:.2} ms",
            f.fleet,
            100.0 * f.goodput,
            f.refilled_prefill_tokens,
            f.refilled_cold,
            f.refilled_after_partial_migration,
            f.migrated_prefix_tokens,
            f.migrations,
            f.prewarm_transfers,
            f.disagg_handoffs,
            f.kv_transfers,
            f.kv_transfer_bytes as f64 / 1e6,
            f.kv_transfer_nic_wait_ns as f64 / 1e6,
            f.mean_tpot_ms,
            f.p99_tpot_ms,
        );
    }

    banner("migration vs no-migration");
    let by_fleet = |name: &str| {
        report
            .fleets
            .iter()
            .find(|f| f.fleet == name)
            .expect("filled above")
    };
    let crash_p99 = |name: &str| {
        report
            .phases
            .iter()
            .find(|r| r.fleet == name && r.phase == "crash")
            .expect("filled above")
            .p99_ttft_ms
    };
    let baseline = by_fleet("no-migration");
    let migration = by_fleet("migration");
    let disagg = by_fleet("disaggregation");
    let refill_ok = migration.refilled_prefill_tokens < baseline.refilled_prefill_tokens;
    let p99_ok = crash_p99("migration") < crash_p99("no-migration");
    println!(
        "refilled prefill tokens: {} vs {} ({}) | crash-phase P99 TTFT: {:.0} vs {:.0} ms ({})",
        migration.refilled_prefill_tokens,
        baseline.refilled_prefill_tokens,
        if refill_ok { "better" } else { "WORSE" },
        crash_p99("migration"),
        crash_p99("no-migration"),
        if p99_ok { "better" } else { "WORSE" },
    );
    if !smoke {
        assert!(
            migration.migrations > 0,
            "scenario regression: no migration ever triggered"
        );
        assert!(
            disagg.disagg_handoffs > 0,
            "scenario regression: the disaggregated fleet never handed off KV"
        );
        assert!(
            refill_ok && p99_ok,
            "regression: migration no longer pays for itself under crash + burst"
        );
    }

    save_json("fig_kv_transfer", &report).expect("persist bench results");
    if smoke {
        println!("smoke run complete; committed BENCH_kv_transfer.json left untouched");
        return;
    }
    // The committed record: fully seeded and virtual-time only, so this
    // file reproduces bit for bit at any PAT_SIM_THREADS.
    let root_copy =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kv_transfer.json");
    std::fs::write(&root_copy, &json).expect("write BENCH_kv_transfer.json");
    println!("wrote {}", root_copy.display());
}
