//! Property tests of the GPU engine itself: work conservation, resource
//! bounds, and stream semantics under randomized CTA populations — plus
//! scheduler-level invariants of the serving engine under KV pressure.

use proptest::prelude::*;
use sim_gpu::{CtaResources, CtaWork, Engine, GpuSpec, KernelSpec, StreamSpec};

fn res(smem_kb: usize, regs: usize, threads: usize) -> CtaResources {
    CtaResources {
        smem_bytes: smem_kb * 1024,
        regs_per_thread: regs,
        threads,
    }
}

prop_compose! {
    fn random_kernel()(
        n_ctas in 1usize..64,
        smem_kb in 8usize..96,
        regs in 32usize..128,
        bytes_exp in 12u32..22,
        cap in 8.0f64..300.0,
        floor in 0.0f64..50_000.0,
        tail in 0.0f64..2_000.0,
    ) -> KernelSpec {
        KernelSpec {
            label: format!("k(smem={smem_kb})"),
            resources: res(smem_kb, regs, 128),
            ctas: (0..n_ctas)
                .map(|i| CtaWork {
                    tag: i as u64,
                    dram_bytes: 2f64.powi(bytes_exp as i32),
                    l2_bytes: 0.0,
                    min_exec_ns: floor,
                    rate_cap: cap,
                    tail_ns: tail,
                })
                .collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Makespan is never below the bandwidth floor, and utilization never
    /// exceeds the achievable DRAM efficiency.
    #[test]
    fn work_is_conserved(kernels in prop::collection::vec(random_kernel(), 1..4)) {
        let spec = GpuSpec::a100_sxm4_80gb();
        let engine = Engine::new(spec.clone());
        let total_bytes: f64 = kernels
            .iter()
            .flat_map(|k| k.ctas.iter())
            .map(|c| c.dram_bytes)
            .sum();
        let streams: Vec<StreamSpec> =
            kernels.into_iter().map(|k| StreamSpec { kernels: vec![k] }).collect();
        let run = engine.run(streams).expect("feasible kernels");
        let floor = total_bytes / (spec.global_bandwidth * spec.dram_efficiency);
        prop_assert!(run.total_ns >= floor * 0.999, "{} < {}", run.total_ns, floor);
        prop_assert!(run.bandwidth_utilization <= spec.dram_efficiency + 1e-9);
        prop_assert!((run.dram_bytes - total_bytes).abs() < 1.0);
    }

    /// Every CTA executes exactly once and respects its floor and tail.
    #[test]
    fn every_cta_runs_once_with_its_floor(kernel in random_kernel()) {
        let spec = GpuSpec::a100_sxm4_80gb();
        let engine = Engine::new(spec);
        let n = kernel.ctas.len();
        let floor = kernel.ctas[0].min_exec_ns;
        let run = engine
            .run(vec![StreamSpec { kernels: vec![kernel] }])
            .expect("feasible kernel");
        prop_assert_eq!(run.trace.ctas.len(), n);
        let mut tags: Vec<u64> = run.trace.ctas.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        prop_assert_eq!(tags.len(), n, "duplicate or missing CTAs");
        for span in &run.trace.ctas {
            prop_assert!(span.end_ns - span.start_ns >= floor - 1e-6);
        }
    }

    /// Kernels within one stream never overlap; a later kernel starts after
    /// the earlier one ends (plus launch overhead).
    #[test]
    fn stream_kernels_serialize(a in random_kernel(), b in random_kernel()) {
        let spec = GpuSpec::a100_sxm4_80gb();
        let launch = spec.kernel_launch_ns;
        let engine = Engine::new(spec);
        let run = engine
            .run(vec![StreamSpec { kernels: vec![a, b] }])
            .expect("feasible kernels");
        prop_assert_eq!(run.trace.kernels.len(), 2);
        let first = &run.trace.kernels[0];
        let second = &run.trace.kernels[1];
        prop_assert!(
            second.launch_ns >= first.end_ns + launch - 1e-6,
            "second kernel launched at {} before {} + {launch}",
            second.launch_ns,
            first.end_ns
        );
    }

    /// SM residency never exceeds shared-memory capacity at any instant
    /// (checked at every CTA start event).
    #[test]
    fn smem_capacity_is_respected(kernel in random_kernel()) {
        let spec = GpuSpec::a100_sxm4_80gb();
        let smem_per_cta = kernel.resources.smem_bytes;
        let engine = Engine::new(spec.clone());
        let run = engine
            .run(vec![StreamSpec { kernels: vec![kernel] }])
            .expect("feasible kernel");
        for probe in &run.trace.ctas {
            let resident = run
                .trace
                .ctas
                .iter()
                .filter(|c| {
                    c.sm == probe.sm
                        && c.start_ns <= probe.start_ns + 1e-9
                        && c.end_ns > probe.start_ns + 1e-9
                })
                .count();
            prop_assert!(
                resident * smem_per_cta <= spec.smem_per_sm,
                "{resident} CTAs x {smem_per_cta} B on one SM"
            );
        }
    }
}

mod serving_preemption {
    use super::*;
    use pat_core::LazyPat;
    use serving::{ModelSpec, ServingConfig, ServingEngine, StepOutcome};
    use std::collections::BTreeSet;
    use workloads::{PromptSpec, Request};

    /// A stream of prefix-sharing requests tight enough to thrash a small
    /// KV pool: few distinct prefix families, prompts of a few hundred
    /// tokens, near-simultaneous arrivals.
    fn pressured_trace(
        n: usize,
        families: u64,
        shared_tokens: usize,
        unique_tokens: usize,
        decode_tokens: usize,
    ) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                id: i as u64,
                arrival_s: i as f64 * 0.02,
                prompt: PromptSpec::from_parts([
                    (1 + i as u64 % families, shared_tokens),
                    (1_000 + i as u64, unique_tokens),
                ]),
                decode_tokens,
            })
            .collect()
    }

    /// Steps the engine to quiescence, counting every request that leaves
    /// the decode batch without completing (an observed eviction).
    fn run_counting_evictions(
        config: ServingConfig,
        requests: &[Request],
    ) -> (serving::SimulationResult, u64) {
        let mut engine = ServingEngine::new(config);
        for r in requests {
            engine.submit(r.clone());
        }
        let mut backend = LazyPat::new();
        let mut evictions = 0u64;
        loop {
            let before: BTreeSet<u64> = engine.core().active_request_ids().into_iter().collect();
            let completed_before = engine.core().completed_requests().len();
            if engine.step(&mut backend) == StepOutcome::Idle {
                break;
            }
            let after: BTreeSet<u64> = engine.core().active_request_ids().into_iter().collect();
            let newly_completed: BTreeSet<u64> = engine.core().completed_requests()
                [completed_before..]
                .iter()
                .map(|m| m.request_id)
                .collect();
            evictions += before
                .iter()
                .filter(|id| !after.contains(id) && !newly_completed.contains(id))
                .count() as u64;
        }
        // Zero leaked KV at quiesce: every block still allocated is held
        // only by the prefix cache.
        let cache = engine.cache();
        assert_eq!(cache.allocator().used_blocks(), cache.evictable_blocks());
        (engine.into_result(), evictions)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Preempt-and-restart under KV pressure is loss-free: every request
        /// completes exactly once with its full output length, and the
        /// engine's `preemptions` counter equals the number of evictions
        /// actually observed from outside, step by step.
        #[test]
        fn preemption_never_loses_or_duplicates_output(
            n in 6usize..14,
            families in 1u64..4,
            shared_tokens in 128usize..384,
            unique_tokens in 32usize..128,
            decode_tokens in 16usize..48,
            capacity_blocks in 48usize..96,
        ) {
            let requests =
                pressured_trace(n, families, shared_tokens, unique_tokens, decode_tokens);
            let mut config = ServingConfig::single_gpu(ModelSpec::llama3_8b());
            // Small enough to force recompute preemptions, large enough
            // that any single request always fits.
            config.kv_capacity_blocks = capacity_blocks;
            let (result, evictions) = run_counting_evictions(config, &requests);
            prop_assert_eq!(result.dropped, 0, "a request could not fit the pool");
            prop_assert_eq!(result.unfinished, 0);
            prop_assert_eq!(
                result.preemptions, evictions,
                "engine counted {} preemptions but {} evictions were observed",
                result.preemptions, evictions
            );
            // Exactly-once completion with exactly the requested tokens.
            prop_assert_eq!(result.per_request.len(), requests.len());
            let mut seen = BTreeSet::new();
            for m in &result.per_request {
                prop_assert!(seen.insert(m.request_id), "request {} completed twice", m.request_id);
                prop_assert_eq!(
                    m.decode_tokens,
                    requests[m.request_id as usize].decode_tokens,
                    "request {} lost output tokens across preemption",
                    m.request_id
                );
            }
        }
    }

    /// A pinned configuration where preemption is guaranteed, so the
    /// property above is known to be exercised (not vacuously true).
    #[test]
    fn kv_pressure_actually_preempts() {
        let requests = pressured_trace(12, 3, 320, 16, 64);
        let mut config = ServingConfig::single_gpu(ModelSpec::llama3_8b());
        config.kv_capacity_blocks = 48;
        let (result, evictions) = run_counting_evictions(config, &requests);
        assert!(result.preemptions > 0, "pressure config no longer preempts");
        assert_eq!(result.preemptions, evictions);
        assert_eq!(result.per_request.len(), requests.len());
    }
}
