//! Fig. 16: pack-scheduler overhead vs pre-attention task latency under the
//! toolagent and conversation traces at 5 and 8 req/s (§8.7). With the lazy
//! update mechanism the scheduler runs asynchronously; as long as its latency
//! stays below the pre-attention window it adds no end-to-end latency.
//!
//! A *step-cache hit* replays the memoized step timing and runs no planner
//! at all; every other step invokes the lazy scheduler, which either reuses
//! its frozen packing (*lazy hit*, §5.1) or plans cold.

use pat_bench::{banner, save_json};
use pat_core::LazyPat;
use serde::Serialize;
use serving::{simulate_serving, ModelSpec, ServingConfig};
use workloads::{generate_trace, TraceConfig, TraceKind};

#[derive(Serialize)]
struct Row {
    trace: String,
    rate: f64,
    mean_scheduler_us: f64,
    mean_pre_attention_us: f64,
    reduction_pct: f64,
    lazy_hit_rate: f64,
    step_cache_hit_rate: f64,
}

fn main() {
    banner("Fig. 16 — pack-scheduler latency vs pre-attention task latency");
    println!(
        "{:>14} {:>6} {:>16} {:>18} {:>12} {:>10} {:>10}",
        "trace", "rate", "scheduler (us)", "pre-attn (us)", "sched lower", "step hits", "lazy hits"
    );
    let mut rows = Vec::new();
    for kind in [TraceKind::ToolAgent, TraceKind::Conversation] {
        for rate in [5.0, 8.0] {
            let requests = generate_trace(TraceConfig {
                kind,
                rate_per_s: rate,
                duration_s: 15.0,
                seed: 16,
            });
            let config = ServingConfig::single_gpu(ModelSpec::llama3_8b());
            let mut pat = LazyPat::new();
            let result = simulate_serving(&config, &mut pat, &requests);
            let (sched, pre): (Vec<f64>, Vec<f64>) =
                result.overhead_samples.iter().copied().unzip();
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            let row = Row {
                trace: kind.name().to_string(),
                rate,
                mean_scheduler_us: mean(&sched) / 1000.0,
                mean_pre_attention_us: mean(&pre) / 1000.0,
                reduction_pct: (1.0 - mean(&sched) / mean(&pre)) * 100.0,
                lazy_hit_rate: pat.stats().hit_rate(),
                step_cache_hit_rate: result.step_sim.hit_rate(),
            };
            println!(
                "{:>14} {:>6.1} {:>16.1} {:>18.1} {:>11.1}% {:>9.0}% {:>9.0}%",
                row.trace,
                row.rate,
                row.mean_scheduler_us,
                row.mean_pre_attention_us,
                row.reduction_pct,
                row.step_cache_hit_rate * 100.0,
                row.lazy_hit_rate * 100.0
            );
            rows.push(row);
        }
    }
    println!("\npaper: scheduling latency below pre-attention latency by 42.3% / 49.6%;");
    println!("       run asynchronously it adds no end-to-end latency.");
    save_json("fig16_overhead", &rows).expect("persist bench results");
}
