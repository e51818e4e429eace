//! Fleet scale: a 512-replica day, simulated at the fidelity you can afford.
//!
//! A managed 512-replica fleet (health checks, failover, autoscaling,
//! admission control, KV migration) serves a diurnal three-tenant stream —
//! two phase-shifted sinusoidal tenants plus a bursty batch tenant — through
//! two replica crashes. The whole day runs in seeded virtual time; the
//! `--fidelity` flag picks how each replica is modeled:
//!
//! * `analytical` (default) — the closed-form calibrated model: the only way
//!   to turn half a thousand replicas around in seconds;
//! * `exact` — full engines over the kernel simulator (accurate and slow:
//!   expect orders of magnitude more wall time);
//! * `mixed` — the fidelity policy: busy replicas (≥ 8 outstanding) run
//!   Exact, idle ones fall back to Analytical, switching cold mid-run.
//!
//! Run with `cargo run --release --example fleet_scale -- --fidelity mixed`.
//! Pass `--trace out.json` to dump the control plane's event timeline as a
//! Chrome trace (open in `chrome://tracing` or Perfetto).

use controller::{
    result_chrome_json, window_stats, AdmissionConfig, AutoscalerConfig, ControllerConfig,
    FaultEvent, FaultKind, FaultPlan, FidelityPolicy, FleetController, TransferConfig,
};
use pat::prelude::*;
use rand::SeedableRng;
use workloads::{generate_multi_tenant_at, Burst, BurstyArrivals, DiurnalArrivals};

const REPLICAS: usize = 512;
const DAY_S: f64 = 60.0;
const SEED: u64 = 2024;

/// Returns the value following `flag` on the command line, if present.
fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{flag} requires a value, e.g. {flag} analytical")),
            );
        }
    }
    None
}

/// `--fidelity exact|analytical|mixed` → (uniform fidelity, policy).
fn fidelity_choice() -> (Fidelity, Option<FidelityPolicy>) {
    match arg_value("--fidelity").as_deref() {
        None | Some("analytical") => (Fidelity::Analytical, None),
        Some("exact") => (Fidelity::Exact, None),
        // Mixed starts everyone cold; the policy promotes busy replicas.
        Some("mixed") => (
            Fidelity::Analytical,
            Some(FidelityPolicy::hot_exact_cold_analytical()),
        ),
        Some(other) => panic!("unknown fidelity {other:?}: use exact|analytical|mixed"),
    }
}

fn main() {
    let (fidelity, policy) = fidelity_choice();

    // Three tenants, ~2 req/s per replica at the mean: a toolagent tenant
    // on the full diurnal cycle, a conversation tenant half a cycle out of
    // phase, and a batch tenant that fires one big midday burst.
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let toolagent = DiurnalArrivals::new(420.0, DAY_S, 0.5).take_until(DAY_S, &mut rng);
    let chat = DiurnalArrivals::new(380.0, DAY_S / 2.0, 0.4).take_until(DAY_S, &mut rng);
    let batch = BurstyArrivals::new(
        224.0,
        vec![Burst {
            start_s: 0.45 * DAY_S,
            end_s: 0.55 * DAY_S,
            multiplier: 2.0,
        }],
    )
    .take_until(DAY_S, &mut rng);
    let day = generate_multi_tenant_at(
        &[
            (TraceKind::ToolAgent, toolagent),
            (TraceKind::Conversation, chat),
            (TraceKind::QwenB, batch),
        ],
        SEED,
    );

    // Two crashes while the fleet is busy; both replicas return cold.
    let faults = FaultPlan::scripted(vec![
        FaultEvent {
            at_s: 0.3 * DAY_S,
            kind: FaultKind::Crash {
                replica: 17,
                restart_after_s: Some(DAY_S / 10.0),
            },
        },
        FaultEvent {
            at_s: 0.6 * DAY_S,
            kind: FaultKind::Crash {
                replica: 301,
                restart_after_s: Some(DAY_S / 10.0),
            },
        },
    ]);

    let engine = ServingConfig::single_gpu(ModelSpec::llama3_8b());
    let mut config = ControllerConfig::managed(REPLICAS, engine);
    config.fidelity = fidelity;
    config.fidelity_policy = policy;
    let mut autoscaler = AutoscalerConfig::new(REPLICAS, REPLICAS + 32);
    autoscaler.scale_up_outstanding = 24.0;
    autoscaler.provision_delay_s = 2.0;
    autoscaler.cooldown_s = 5.0;
    config.autoscaler = Some(autoscaler);
    config.admission = Some(AdmissionConfig {
        max_outstanding_per_replica: 64,
        max_queued: 8192,
    });
    config.transfer = Some(TransferConfig::migration(FleetTopology::uniform(
        REPLICAS,
        LinkSpec::rdma_200g(),
    )));

    println!(
        "{} requests over {DAY_S:.0} s on {REPLICAS} replicas at fidelity {}",
        day.requests.len(),
        match &policy {
            Some(p) => format!("mixed ({:?} when busy, {:?} when idle)", p.hot, p.cold),
            None => format!("{fidelity:?}"),
        },
    );

    #[expect(
        clippy::disallowed_types,
        reason = "reports host wall-clock beside the simulated day"
    )]
    let started = std::time::Instant::now();
    let result = FleetController::with_lazy_pat(config, Box::new(LeastOutstanding::new()), faults)
        .run(&day.requests);
    let wall = started.elapsed();

    println!(
        "\ncompleted {} shed {} lost {} unfinished {} | goodput {:.1}% | \
         mean TTFT {:.1} ms, P99 {:.0} ms",
        result.completed,
        result.shed,
        result.lost,
        result.unfinished,
        100.0 * result.goodput,
        result.fleet.mean_ttft_ms,
        result.fleet.p99_ttft_ms,
    );
    println!(
        "crashes {} failovers {} migrations {} fidelity switches {} | \
         scale-ups {} peak {} replicas",
        result.crashes,
        result.failovers,
        result.migrations,
        result.fidelity_switches,
        result.scale_ups,
        result.peak_replicas,
    );

    println!(
        "\n{:<9} {:>9} {:>9} {:>9} {:>13}",
        "quarter", "offered", "done", "goodput", "P99 TTFT(ms)"
    );
    for (name, a, b) in [
        ("night", 0.0, 0.25),
        ("morning", 0.25, 0.5),
        ("midday", 0.5, 0.75),
        ("evening", 0.75, 1.0),
    ] {
        let w = window_stats(&day.requests, &result, a * DAY_S, b * DAY_S);
        println!(
            "{name:<9} {:>9} {:>9} {:>8.1}% {:>13.0}",
            w.offered,
            w.completed,
            100.0 * w.goodput,
            w.p99_ttft_ms,
        );
    }
    println!(
        "\nsimulated {:.0} virtual seconds in {:.1} wall seconds",
        DAY_S,
        wall.as_secs_f64()
    );

    if let Some(path) = arg_value("--trace") {
        std::fs::write(&path, result_chrome_json(&result)).expect("write chrome trace");
        println!(
            "wrote {} timeline events to {path} (load in chrome://tracing)",
            result.timeline.len()
        );
    }
}
