//! Failover & autoscaling (extension): a managed fleet vs a static fleet
//! through a replica crash and a 4x load burst.
//!
//! Both fleets serve the identical toolagent request stream and suffer the
//! identical fault: replica 0 dies at t = 8 s (taking its warm prefix cache
//! and everything in flight with it) and comes back cold 10 s later. At
//! t = 20..28 s the arrival rate quadruples. The managed fleet runs health
//! checks, failover, an SLO-aware autoscaler, and admission control; the
//! static fleet is the classic fixed-size round-robin deployment that keeps
//! addressing the dead replica until it returns.
//!
//! Reported per phase (steady / crash / burst / overall): goodput (share of
//! offered requests finishing their first token within the TTFT SLO,
//! measured from original arrival) and P99 TTFT. The managed fleet must win
//! both in the crash and burst phases. Results are persisted to
//! `target/bench-results/fig_failover.json` and, for the committed record,
//! `BENCH_failover.json` at the repository root. The run is seeded and
//! virtual-time only, so both files are bit-stable across reruns.
//!
//! Set `PAT_BENCH_SMOKE=1` to run a scaled-down scenario (a few seconds of
//! trace) that exercises the whole pipeline without the full workload — CI
//! uses it as a build-and-run smoke test. Smoke mode never touches the
//! committed `BENCH_failover.json` and skips the managed-beats-static
//! assertion (the tiny trace is too short for stable phase comparisons).

use controller::{
    window_stats, AdmissionConfig, AutoscalerConfig, ControlResult, ControllerConfig, FaultEvent,
    FaultKind, FaultPlan, FleetController, PrefixAffinity, RoundRobin, Router,
};
use pat_bench::{banner, save_json};
use rand::SeedableRng;
use serde::Serialize;
use serving::{ModelSpec, ServingConfig};
use workloads::{generate_trace_at, Burst, BurstyArrivals, TraceKind};

const SEED: u64 = 4242;
const REPLICAS: usize = 4;
const BURST_X: f64 = 4.0;
const SLO_TTFT_MS: f64 = 500.0;

/// The shape of one failover scenario: load, burst window, crash timing.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    base_rate: f64,
    duration_s: f64,
    burst_from_s: f64,
    burst_to_s: f64,
    crash_at_s: f64,
    restart_after_s: f64,
}

/// The committed Fig.-class scenario behind `BENCH_failover.json`.
const FULL: Scenario = Scenario {
    base_rate: 12.0,
    duration_s: 36.0,
    burst_from_s: 20.0,
    burst_to_s: 28.0,
    crash_at_s: 8.0,
    restart_after_s: 10.0,
};

/// A few seconds of trace through the same pipeline — enough to smoke-test
/// the build in CI, far too short for stable phase comparisons.
const SMOKE: Scenario = Scenario {
    base_rate: 4.0,
    duration_s: 8.0,
    burst_from_s: 4.0,
    burst_to_s: 6.0,
    crash_at_s: 2.0,
    restart_after_s: 2.0,
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
    crashes: usize,
    scale_ups: usize,
    scale_downs: usize,
    peak_replicas: usize,
    p99_ttft_ms: f64,
}

#[derive(Debug, Clone, Serialize)]
struct FailoverReport {
    slo_ttft_ms: f64,
    phases: Vec<PhaseRow>,
    fleets: Vec<FleetSummary>,
}

fn faults(sc: &Scenario) -> FaultPlan {
    FaultPlan::scripted(vec![FaultEvent {
        at_s: sc.crash_at_s,
        kind: FaultKind::Crash {
            replica: 0,
            restart_after_s: Some(sc.restart_after_s),
        },
    }])
}

fn managed_config() -> ControllerConfig {
    let engine = ServingConfig::single_gpu(ModelSpec::llama3_8b());
    let mut config = ControllerConfig::managed(REPLICAS, engine);
    config.slo_ttft_ms = SLO_TTFT_MS;
    let mut autoscaler = AutoscalerConfig::new(REPLICAS, REPLICAS + 4);
    autoscaler.scale_up_outstanding = 16.0;
    autoscaler.scale_down_outstanding = 2.0;
    autoscaler.provision_delay_s = 2.0;
    autoscaler.cooldown_s = 3.0;
    config.autoscaler = Some(autoscaler);
    config.admission = Some(AdmissionConfig {
        max_outstanding_per_replica: 96,
        max_queued: 512,
    });
    config
}

fn static_config() -> ControllerConfig {
    let engine = ServingConfig::single_gpu(ModelSpec::llama3_8b());
    let mut config = ControllerConfig::static_fleet(REPLICAS, engine);
    config.slo_ttft_ms = SLO_TTFT_MS;
    config
}

fn phase_rows(
    fleet: &str,
    sc: &Scenario,
    trace: &[workloads::Request],
    result: &ControlResult,
    rows: &mut Vec<PhaseRow>,
) {
    let phases = [
        ("steady", 0.0, sc.crash_at_s),
        ("crash", sc.crash_at_s, sc.crash_at_s + sc.restart_after_s),
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
    // Conservation: every offered request lands in exactly one bucket.
    assert_eq!(
        r.offered,
        r.completed + r.shed + r.lost + r.unfinished,
        "{fleet}: request accounting does not balance"
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
        crashes: r.crashes,
        scale_ups: r.scale_ups,
        scale_downs: r.scale_downs,
        peak_replicas: r.peak_replicas,
        p99_ttft_ms: r.fleet.p99_ttft_ms,
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
        "Failover & autoscaling{} — {} requests over {:.0} s \
         ({:.0} req/s base, {BURST_X:.0}x burst at {:.0}-{:.0} s), \
         crash at {:.0} s, restart +{:.0} s",
        if smoke { " (smoke)" } else { "" },
        trace.len(),
        sc.duration_s,
        sc.base_rate,
        sc.burst_from_s,
        sc.burst_to_s,
        sc.crash_at_s,
        sc.restart_after_s,
    ));

    // The two fleets are independent simulations over the same trace: fan
    // them across the sim_core::par workers (results merge in input order,
    // so output is identical at any PAT_SIM_THREADS).
    let mut results = sim_core::par::ordered_map(&[true, false], |_, &is_managed| {
        if is_managed {
            let router: Box<dyn Router> = Box::new(PrefixAffinity::new());
            FleetController::with_lazy_pat(managed_config(), router, faults(&sc)).run(&trace)
        } else {
            let router: Box<dyn Router> = Box::new(RoundRobin::new());
            FleetController::with_lazy_pat(static_config(), router, faults(&sc)).run(&trace)
        }
    });
    let static_fleet = results.pop().expect("two fleets simulated");
    let managed = results.pop().expect("two fleets simulated");

    let mut phases: Vec<PhaseRow> = Vec::new();
    phase_rows("managed", &sc, &trace, &managed, &mut phases);
    phase_rows("static", &sc, &trace, &static_fleet, &mut phases);

    println!(
        "{:<9} {:<8} {:>8} {:>9} {:>9} {:>9} {:>12}",
        "fleet", "phase", "offered", "done", "in-SLO", "goodput", "P99 TTFT(ms)"
    );
    for row in &phases {
        println!(
            "{:<9} {:<8} {:>8} {:>9} {:>9} {:>8.1}% {:>12.0}",
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
    for (name, r) in [("managed", &managed), ("static", &static_fleet)] {
        println!(
            "{name:<9} goodput {:>5.1}% | completed {} shed {} lost {} unfinished {} | \
             failovers {} (re-prefilled {} tokens) | scale-ups {} downs {} peak {} replicas",
            100.0 * r.goodput,
            r.completed,
            r.shed,
            r.lost,
            r.unfinished,
            r.failovers,
            r.refilled_prefill_tokens,
            r.scale_ups,
            r.scale_downs,
            r.peak_replicas,
        );
    }

    banner("managed vs static, phase by phase");
    let mut all_hold = true;
    for phase in ["crash", "burst"] {
        let get = |fleet: &str| {
            phases
                .iter()
                .find(|r| r.fleet == fleet && r.phase == phase)
                .expect("filled above")
        };
        let (m, s) = (get("managed"), get("static"));
        let goodput_ok = m.goodput > s.goodput;
        let p99_ok = m.p99_ttft_ms < s.p99_ttft_ms;
        all_hold &= goodput_ok && p99_ok;
        println!(
            "{phase:<7}: goodput {:>5.1}% vs {:>5.1}% ({}) | P99 TTFT {:>7.0} vs {:>7.0} ms ({})",
            100.0 * m.goodput,
            100.0 * s.goodput,
            if goodput_ok { "better" } else { "WORSE" },
            m.p99_ttft_ms,
            s.p99_ttft_ms,
            if p99_ok { "better" } else { "WORSE" },
        );
    }
    println!(
        "managed fleet {} the static fleet on goodput and P99 TTFT through both disruptions",
        if all_hold { "beats" } else { "does NOT beat" }
    );
    assert!(
        smoke || all_hold,
        "regression: the control plane no longer pays for itself"
    );

    let report = FailoverReport {
        slo_ttft_ms: SLO_TTFT_MS,
        phases,
        fleets: vec![
            summarize("managed", &managed),
            summarize("static", &static_fleet),
        ],
    };
    save_json("fig_failover", &report).expect("persist bench results");
    if smoke {
        println!("smoke run complete; committed BENCH_failover.json left untouched");
        return;
    }
    // Also keep a committed copy at the repository root: the scenario is
    // fully seeded, so this file is reproducible bit for bit.
    let root_copy =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_failover.json");
    std::fs::write(
        &root_copy,
        pat_bench::artifact_json(&report).expect("serializable"),
    )
    .expect("write BENCH_failover.json");
    println!("wrote {}", root_copy.display());
}
