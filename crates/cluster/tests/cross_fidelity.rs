//! Cross-fidelity validation: the two replica models must agree with each
//! other to the degree the analytical one promises (§ fleet-scale
//! simulation).
//!
//! - Analytical fleet aggregates (TTFT/TPOT) stay within the documented
//!   relative-error bound of Exact on seeded small fleets.
//! - A mixed-fidelity fleet still conserves every request and stays
//!   byte-identical across `PAT_SIM_THREADS`.

use cluster::{Cluster, ClusterConfig, LeastOutstanding, RoundRobin};
use pat_core::LazyPat;
use replica_fidelity::{Fidelity, ANALYTICAL_REL_ERROR_BOUND};
use serving::{ModelSpec, ServingAttention, ServingConfig};
use workloads::{generate_trace, TraceConfig, TraceKind};

fn engine_config() -> ServingConfig {
    ServingConfig::single_gpu(ModelSpec::llama3_8b())
}

fn lazy_pat() -> Box<dyn ServingAttention> {
    Box::new(LazyPat::new())
}

/// Relative error of `got` against `want`, treating a zero reference as
/// exact-match-only.
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

#[test]
fn analytical_fleet_aggregates_stay_within_error_bound() {
    for (kind, seed) in [
        (TraceKind::Conversation, 7),
        (TraceKind::ToolAgent, 9),
        (TraceKind::QwenB, 2),
    ] {
        let requests = generate_trace(TraceConfig {
            kind,
            rate_per_s: 8.0,
            duration_s: 6.0,
            seed,
        });
        let config = ClusterConfig::new(4, engine_config());
        let exact = Cluster::with_fidelity(
            &config,
            Box::new(RoundRobin::new()),
            Fidelity::Exact,
            lazy_pat,
        )
        .run(&requests);
        let analytical = Cluster::with_fidelity(
            &config,
            Box::new(RoundRobin::new()),
            Fidelity::Analytical,
            lazy_pat,
        )
        .run(&requests);
        assert_eq!(
            exact.fleet.completed, analytical.fleet.completed,
            "{kind:?}: analytical lost or invented completions"
        );
        for (name, got, want) in [
            (
                "mean TTFT",
                analytical.fleet.mean_ttft_ms,
                exact.fleet.mean_ttft_ms,
            ),
            (
                "mean TPOT",
                analytical.fleet.mean_tpot_ms,
                exact.fleet.mean_tpot_ms,
            ),
        ] {
            let err = rel_err(got, want);
            assert!(
                err <= ANALYTICAL_REL_ERROR_BOUND,
                "{kind:?}: analytical {name} {got:.4} ms vs exact {want:.4} ms \
                 (rel err {err:.3} > bound {ANALYTICAL_REL_ERROR_BOUND})"
            );
        }
    }
}

#[test]
fn mixed_fidelity_fleet_conserves_every_request() {
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::ToolAgent,
        rate_per_s: 10.0,
        duration_s: 6.0,
        seed: 41,
    });
    let config = ClusterConfig::new(6, engine_config());
    let mix = [Fidelity::Exact, Fidelity::Analytical];
    let result =
        Cluster::with_fidelities(&config, Box::new(LeastOutstanding::new()), &mix, lazy_pat)
            .run(&requests);
    // Replica i runs at mix[i % 2], and the summary reports it.
    for (i, r) in result.per_replica.iter().enumerate() {
        assert_eq!(r.fidelity, mix[i % mix.len()], "replica {i}");
    }
    // Conservation: every offered request is completed, dropped, or
    // unfinished — nothing vanishes across the fidelity boundary.
    assert_eq!(
        result.fleet.completed + result.dropped as usize + result.unfinished,
        requests.len(),
        "request accounting broke in a mixed-fidelity fleet"
    );
    assert!(result.fleet.completed > 0);
    assert!(result.fleet.mean_ttft_ms.is_finite() && result.fleet.mean_tpot_ms.is_finite());
}

/// `sim_core::par` threads stay a pure performance knob when fidelities are
/// mixed: 1-thread and 4-thread runs serialize to identical bytes.
#[test]
fn mixed_fidelity_results_are_thread_count_invariant() {
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::Conversation,
        rate_per_s: 8.0,
        duration_s: 4.0,
        seed: 13,
    });
    let run = |threads: usize| {
        sim_core::par::set_thread_override(Some(threads));
        let config = ClusterConfig::new(5, engine_config());
        let result = Cluster::with_fidelities(
            &config,
            Box::new(RoundRobin::new()),
            &[Fidelity::Analytical, Fidelity::Exact],
            lazy_pat,
        )
        .run(&requests);
        sim_core::par::set_thread_override(None);
        serde_json::to_string(&result).expect("ClusterResult serializes")
    };
    let one = run(1);
    assert_eq!(one, run(4), "mixed fleet diverges across thread counts");
    assert_eq!(one, run(1), "mixed fleet is not rerun-stable");
}
