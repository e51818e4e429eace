//! Fleet-scale "day in the life" (extension): multi-fidelity replica models
//! at O(1k)-replica, million-request scale.
//!
//! Two cells share one generator — a three-tenant stream (toolagent and
//! conversation tenants on phase-shifted diurnal cycles, a batch tenant with
//! scripted bursts) over disjoint prefix pools:
//!
//! 1. **Validation** — a small fleet serves the identical stream under each
//!    [`Fidelity`] in turn. Analytical must land fleet TTFT/TPOT within
//!    [`ANALYTICAL_REL_ERROR_BOUND`] of Exact while running at least 10x
//!    faster in wall-clock. These are the accuracy-vs-cost columns that
//!    justify trusting the scale cell.
//! 2. **Scale** — a 256-replica managed fleet (health checks, failover,
//!    SLO-aware autoscaling, admission control, KV migration over an RDMA
//!    transfer plane) serves over a million requests through a full diurnal
//!    cycle with six replica crashes, entirely on the Analytical model.
//!
//! Results land in `target/bench-results/fig_fleet_scale.json` and, for the
//! committed record, `BENCH_fleet_scale.json` at the repository root. The
//! simulation itself is seeded integer-ns virtual time, so everything except
//! the wall-clock columns is bit-stable across reruns and thread counts; CI
//! diffs the wall-clock-free projection `fig_fleet_scale_sim.json` across
//! `PAT_SIM_THREADS` settings.
//!
//! Set `PAT_BENCH_SMOKE=1` for a scaled-down pass (a few replicas, seconds
//! of trace) that exercises both cells without the full workload; smoke mode
//! never touches the committed JSON and skips the speedup/volume assertions
//! (tiny runs are dominated by fixed costs).

use controller::{
    window_stats, AdmissionConfig, AutoscalerConfig, Cluster, ClusterConfig, ControllerConfig,
    FaultEvent, FaultKind, FaultPlan, FleetController, LeastOutstanding, RoundRobin,
    TransferConfig,
};
use kv_transfer::{FleetTopology, LinkSpec};
use pat_bench::{banner, save_json};
use pat_core::LazyPat;
use rand::SeedableRng;
use replica_fidelity::{Fidelity, ANALYTICAL_REL_ERROR_BOUND};
use serde::Serialize;
use serving::{ModelSpec, ServingAttention, ServingConfig};
#[expect(
    clippy::disallowed_types,
    reason = "the scale cell reports host wall-clock"
)]
use std::time::Instant;
use workloads::{
    generate_multi_tenant_at, Burst, BurstyArrivals, DiurnalArrivals, MultiTenantTrace, TraceKind,
};

const SEED: u64 = 77;
const SLO_TTFT_MS: f64 = 500.0;
/// Analytical must beat Exact by at least this wall-clock factor on the
/// validation fleet (the whole point of dropping fidelity).
const MIN_ANALYTICAL_SPEEDUP: f64 = 10.0;

/// The shape of one day-in-the-life run: both cells' fleet sizes and
/// per-tenant mean rates.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    validation_replicas: usize,
    validation_duration_s: f64,
    /// Mean req/s of the (toolagent, conversation, batch) tenants.
    validation_rates: [f64; 3],
    scale_replicas: usize,
    scale_duration_s: f64,
    scale_rates: [f64; 3],
    /// The scale cell must offer at least this many requests.
    min_offered: usize,
}

/// The committed Fig.-class scenario behind `BENCH_fleet_scale.json`.
const FULL: Scenario = Scenario {
    validation_replicas: 8,
    validation_duration_s: 60.0,
    validation_rates: [10.0, 8.0, 4.0],
    scale_replicas: 256,
    scale_duration_s: 1000.0,
    scale_rates: [430.0, 340.0, 250.0],
    min_offered: 1_000_000,
};

/// A few seconds of trace through both cells — enough to smoke-test the
/// pipeline in CI, far too small for stable speedup or volume assertions.
const SMOKE: Scenario = Scenario {
    validation_replicas: 3,
    validation_duration_s: 8.0,
    validation_rates: [4.0, 3.0, 2.0],
    scale_replicas: 12,
    scale_duration_s: 12.0,
    scale_rates: [18.0, 14.0, 10.0],
    min_offered: 0,
};

/// One validation-cell row: accuracy and wall-clock cost of a fidelity.
#[derive(Debug, Clone, Serialize)]
struct FidelityRow {
    fidelity: String,
    wall_ms: f64,
    speedup_vs_exact: f64,
    completed: usize,
    mean_ttft_ms: f64,
    mean_tpot_ms: f64,
    p99_ttft_ms: f64,
    ttft_rel_err_vs_exact: f64,
    tpot_rel_err_vs_exact: f64,
}

/// The wall-clock-free projection of a [`FidelityRow`] — what CI diffs
/// across thread counts.
#[derive(Debug, Clone, Serialize)]
struct FidelitySimRow {
    fidelity: String,
    completed: usize,
    mean_ttft_ms: f64,
    mean_tpot_ms: f64,
    p99_ttft_ms: f64,
}

/// Goodput and TTFT over one window of the scale cell's day.
#[derive(Debug, Clone, Serialize)]
struct DayPhase {
    phase: String,
    from_s: f64,
    to_s: f64,
    offered: usize,
    completed: usize,
    goodput: f64,
    p99_ttft_ms: f64,
}

/// The scale cell's accounting, virtual-time metrics, and wall-clock cost.
#[derive(Debug, Clone, Serialize)]
struct ScaleCell {
    replicas: usize,
    peak_replicas: usize,
    offered: usize,
    completed: usize,
    shed: usize,
    lost: usize,
    unfinished: usize,
    goodput: f64,
    crashes: usize,
    failovers: usize,
    migrations: usize,
    prewarm_transfers: usize,
    scale_ups: usize,
    scale_downs: usize,
    fidelity_switches: usize,
    mean_ttft_ms: f64,
    mean_tpot_ms: f64,
    p99_ttft_ms: f64,
    phases: Vec<DayPhase>,
    wall_s: f64,
    offered_per_wall_s: f64,
}

#[derive(Debug, Clone, Serialize)]
struct FleetScaleReport {
    slo_ttft_ms: f64,
    analytical_rel_error_bound: f64,
    validation: Vec<FidelityRow>,
    scale: ScaleCell,
}

/// Everything CI can byte-compare across `PAT_SIM_THREADS`: the report
/// minus every wall-clock-derived column.
#[derive(Debug, Clone, Serialize)]
struct SimProjection {
    validation: Vec<FidelitySimRow>,
    scale_offered: usize,
    scale_completed: usize,
    scale_shed: usize,
    scale_lost: usize,
    scale_unfinished: usize,
    scale_goodput: f64,
    scale_mean_ttft_ms: f64,
    scale_p99_ttft_ms: f64,
    scale_phases: Vec<DayPhase>,
}

fn engine() -> ServingConfig {
    ServingConfig::single_gpu(ModelSpec::llama3_8b())
}

fn lazy_pat() -> Box<dyn ServingAttention> {
    Box::new(LazyPat::new())
}

/// Three tenants over one day: two phase-shifted diurnal cycles plus a
/// bursty batch tenant, merged into one arrival-ordered stream with
/// disjoint prefix pools.
fn day_trace(rates: [f64; 3], duration_s: f64, seed: u64) -> MultiTenantTrace {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let toolagent =
        DiurnalArrivals::new(rates[0], duration_s, 0.5).take_until(duration_s, &mut rng);
    let chat =
        DiurnalArrivals::new(rates[1], duration_s / 2.0, 0.4).take_until(duration_s, &mut rng);
    let batch = BurstyArrivals::new(
        rates[2],
        vec![
            Burst {
                start_s: 0.25 * duration_s,
                end_s: 0.30 * duration_s,
                multiplier: 2.5,
            },
            Burst {
                start_s: 0.70 * duration_s,
                end_s: 0.74 * duration_s,
                multiplier: 3.0,
            },
        ],
    )
    .take_until(duration_s, &mut rng);
    generate_multi_tenant_at(
        &[
            (TraceKind::ToolAgent, toolagent),
            (TraceKind::Conversation, chat),
            (TraceKind::QwenB, batch),
        ],
        seed,
    )
}

/// Relative error of `got` against `want` (zero reference: exact match
/// only).
fn rel_err(got: f64, want: f64) -> f64 {
    if want == 0.0 {
        if got == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (got - want).abs() / want
    }
}

/// Six crashes spread across the day, hitting scattered replicas; each
/// victim restarts (cold) after a tenth of the day, capped at 30 s.
fn day_faults(sc: &Scenario) -> FaultPlan {
    let d = sc.scale_duration_s;
    let restart = (d / 10.0).min(30.0);
    FaultPlan::scripted(
        (0..6)
            .map(|i| FaultEvent {
                at_s: d * (0.08 + 0.14 * i as f64),
                kind: FaultKind::Crash {
                    replica: (i * 37 + 5) % sc.scale_replicas,
                    restart_after_s: Some(restart),
                },
            })
            .collect(),
    )
}

fn scale_config(sc: &Scenario) -> ControllerConfig {
    let mut config = ControllerConfig::managed(sc.scale_replicas, engine());
    config.fidelity = Fidelity::Analytical;
    config.slo_ttft_ms = SLO_TTFT_MS;
    let mut autoscaler =
        AutoscalerConfig::new(sc.scale_replicas, sc.scale_replicas + sc.scale_replicas / 8);
    autoscaler.scale_up_outstanding = 24.0;
    autoscaler.scale_down_outstanding = 2.0;
    autoscaler.provision_delay_s = (sc.scale_duration_s / 100.0).max(1.0);
    autoscaler.cooldown_s = (sc.scale_duration_s / 50.0).max(2.0);
    config.autoscaler = Some(autoscaler);
    config.admission = Some(AdmissionConfig {
        max_outstanding_per_replica: 64,
        max_queued: 8192,
    });
    config.transfer = Some(TransferConfig::migration(FleetTopology::uniform(
        sc.scale_replicas,
        LinkSpec::rdma_200g(),
    )));
    config
}

fn main() {
    let smoke = sim_core::knobs::flag("PAT_BENCH_SMOKE");
    let sc = if smoke { SMOKE } else { FULL };

    // ---- Cell 1: validation — the same stream under each fidelity. ------
    let trace = day_trace(sc.validation_rates, sc.validation_duration_s, SEED);
    banner(&format!(
        "Fleet scale{} — validation: {} requests over {:.0} s on {} replicas, \
         Exact vs Analytical",
        if smoke { " (smoke)" } else { "" },
        trace.requests.len(),
        sc.validation_duration_s,
        sc.validation_replicas,
    ));

    let run_at = |fidelity: Fidelity| {
        let config = ClusterConfig::new(sc.validation_replicas, engine());
        #[expect(clippy::disallowed_types, reason = "host wall-clock of each fidelity")]
        let t0 = Instant::now();
        let result =
            Cluster::with_fidelity(&config, Box::new(RoundRobin::new()), fidelity, lazy_pat)
                .run(&trace.requests);
        (result, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (exact, exact_ms) = run_at(Fidelity::Exact);
    let (analytical, analytical_ms) = run_at(Fidelity::Analytical);

    let mut validation = Vec::new();
    for (fidelity, result, wall_ms) in [
        (Fidelity::Exact, &exact, exact_ms),
        (Fidelity::Analytical, &analytical, analytical_ms),
    ] {
        validation.push(FidelityRow {
            fidelity: format!("{fidelity:?}"),
            wall_ms,
            speedup_vs_exact: exact_ms / wall_ms,
            completed: result.fleet.completed,
            mean_ttft_ms: result.fleet.mean_ttft_ms,
            mean_tpot_ms: result.fleet.mean_tpot_ms,
            p99_ttft_ms: result.fleet.p99_ttft_ms,
            ttft_rel_err_vs_exact: rel_err(result.fleet.mean_ttft_ms, exact.fleet.mean_ttft_ms),
            tpot_rel_err_vs_exact: rel_err(result.fleet.mean_tpot_ms, exact.fleet.mean_tpot_ms),
        });
    }

    println!(
        "{:<11} {:>9} {:>8} {:>9} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "fidelity",
        "wall(ms)",
        "speedup",
        "done",
        "TTFT(ms)",
        "TPOT(ms)",
        "P99(ms)",
        "errTTFT",
        "errTPOT"
    );
    for row in &validation {
        println!(
            "{:<11} {:>9.1} {:>7.1}x {:>9} {:>10.2} {:>10.3} {:>10.1} {:>8.1}% {:>8.1}%",
            row.fidelity,
            row.wall_ms,
            row.speedup_vs_exact,
            row.completed,
            row.mean_ttft_ms,
            row.mean_tpot_ms,
            row.p99_ttft_ms,
            100.0 * row.ttft_rel_err_vs_exact,
            100.0 * row.tpot_rel_err_vs_exact,
        );
    }

    let analytical_row = &validation[1];
    assert!(
        analytical_row.ttft_rel_err_vs_exact <= ANALYTICAL_REL_ERROR_BOUND
            && analytical_row.tpot_rel_err_vs_exact <= ANALYTICAL_REL_ERROR_BOUND,
        "analytical drifted past its documented bound ({:.3}/{:.3} > {ANALYTICAL_REL_ERROR_BOUND})",
        analytical_row.ttft_rel_err_vs_exact,
        analytical_row.tpot_rel_err_vs_exact,
    );
    assert!(
        smoke || analytical_row.speedup_vs_exact >= MIN_ANALYTICAL_SPEEDUP,
        "analytical no longer pays for itself: {:.1}x < {MIN_ANALYTICAL_SPEEDUP}x",
        analytical_row.speedup_vs_exact,
    );

    // ---- Cell 2: scale — a managed analytical fleet through a full day. --
    let day = day_trace(sc.scale_rates, sc.scale_duration_s, SEED ^ 0xD1E5E);
    banner(&format!(
        "scale: {} requests over {:.0} s on {} analytical replicas \
         (autoscaler, admission, migration, 6 crashes)",
        day.requests.len(),
        sc.scale_duration_s,
        sc.scale_replicas,
    ));
    assert!(
        day.requests.len() >= sc.min_offered,
        "scale cell offered {} requests, below the {} floor",
        day.requests.len(),
        sc.min_offered,
    );

    let router = Box::new(LeastOutstanding::new());
    #[expect(clippy::disallowed_types, reason = "host wall-clock of the scale day")]
    let t0 = Instant::now();
    let result = FleetController::with_lazy_pat(scale_config(&sc), router, day_faults(&sc))
        .run(&day.requests);
    let wall_s = t0.elapsed().as_secs_f64();

    // Conservation: every offered request lands in exactly one bucket.
    assert_eq!(
        result.offered,
        result.completed + result.shed + result.lost + result.unfinished,
        "request accounting does not balance at scale"
    );

    let quarters = [
        ("night", 0.00, 0.25),
        ("morning", 0.25, 0.50),
        ("peak", 0.50, 0.75),
        ("evening", 0.75, 1.00),
    ];
    let phases: Vec<DayPhase> = quarters
        .iter()
        .map(|&(phase, a, b)| {
            let (from_s, to_s) = (a * sc.scale_duration_s, b * sc.scale_duration_s);
            let w = window_stats(&day.requests, &result, from_s, to_s);
            DayPhase {
                phase: phase.to_string(),
                from_s,
                to_s,
                offered: w.offered,
                completed: w.completed,
                goodput: w.goodput,
                p99_ttft_ms: w.p99_ttft_ms,
            }
        })
        .collect();

    let scale = ScaleCell {
        replicas: sc.scale_replicas,
        peak_replicas: result.peak_replicas,
        offered: result.offered,
        completed: result.completed,
        shed: result.shed,
        lost: result.lost,
        unfinished: result.unfinished,
        goodput: result.goodput,
        crashes: result.crashes,
        failovers: result.failovers,
        migrations: result.migrations,
        prewarm_transfers: result.prewarm_transfers,
        scale_ups: result.scale_ups,
        scale_downs: result.scale_downs,
        fidelity_switches: result.fidelity_switches,
        mean_ttft_ms: result.fleet.mean_ttft_ms,
        mean_tpot_ms: result.fleet.mean_tpot_ms,
        p99_ttft_ms: result.fleet.p99_ttft_ms,
        phases,
        wall_s,
        offered_per_wall_s: result.offered as f64 / wall_s,
    };

    println!(
        "offered {} | completed {} shed {} lost {} unfinished {} | goodput {:.1}%",
        scale.offered,
        scale.completed,
        scale.shed,
        scale.lost,
        scale.unfinished,
        100.0 * scale.goodput,
    );
    println!(
        "crashes {} failovers {} migrations {} | scale-ups {} downs {} peak {} replicas",
        scale.crashes,
        scale.failovers,
        scale.migrations,
        scale.scale_ups,
        scale.scale_downs,
        scale.peak_replicas,
    );
    println!(
        "{:<9} {:>9} {:>9} {:>9} {:>12}",
        "phase", "offered", "done", "goodput", "P99 TTFT(ms)"
    );
    for p in &scale.phases {
        println!(
            "{:<9} {:>9} {:>9} {:>8.1}% {:>12.0}",
            p.phase,
            p.offered,
            p.completed,
            100.0 * p.goodput,
            p.p99_ttft_ms,
        );
    }
    println!(
        "wall {:.1} s — {:.0} offered requests per wall-second",
        scale.wall_s, scale.offered_per_wall_s,
    );

    let projection = SimProjection {
        validation: validation
            .iter()
            .map(|r| FidelitySimRow {
                fidelity: r.fidelity.clone(),
                completed: r.completed,
                mean_ttft_ms: r.mean_ttft_ms,
                mean_tpot_ms: r.mean_tpot_ms,
                p99_ttft_ms: r.p99_ttft_ms,
            })
            .collect(),
        scale_offered: scale.offered,
        scale_completed: scale.completed,
        scale_shed: scale.shed,
        scale_lost: scale.lost,
        scale_unfinished: scale.unfinished,
        scale_goodput: scale.goodput,
        scale_mean_ttft_ms: scale.mean_ttft_ms,
        scale_p99_ttft_ms: scale.p99_ttft_ms,
        scale_phases: scale.phases.clone(),
    };
    save_json("fig_fleet_scale_sim", &projection).expect("persist bench results");

    let report = FleetScaleReport {
        slo_ttft_ms: SLO_TTFT_MS,
        analytical_rel_error_bound: ANALYTICAL_REL_ERROR_BOUND,
        validation,
        scale,
    };
    save_json("fig_fleet_scale", &report).expect("persist bench results");
    if smoke {
        println!("smoke run complete; committed BENCH_fleet_scale.json left untouched");
        return;
    }
    // The committed copy keeps its wall-clock columns as a historical record
    // of one machine's run; only the `_sim` projection is byte-stable.
    let root_copy =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fleet_scale.json");
    std::fs::write(
        &root_copy,
        pat_bench::artifact_json(&report).expect("serializable"),
    )
    .expect("write BENCH_fleet_scale.json");
    println!("wrote {}", root_copy.display());
}
