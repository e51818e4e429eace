//! `patsim` — command-line front end to the PAT reproduction.
//!
//! ```text
//! patsim kernel --b 1,4,16 --l 128,256,1024 [--heads 32/8] [--gpu a100]
//! patsim tiles  [--gpu a100]
//! patsim serve  --trace conversation --rate 5 --duration 20 [--model llama3-8b] [--backend pat]
//! patsim traces
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

use pat::prelude::*;
use serving::{ServingAttention, Stateless};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "kernel" => cmd_kernel(&flags),
        "tiles" => cmd_tiles(&flags),
        "serve" => cmd_serve(&flags),
        "traces" => cmd_traces(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "patsim — prefix-aware attention simulator

USAGE:
  patsim kernel --b 1,4,16 --l 128,256,1024 [--heads 32/8] [--gpu a100|h100|v100|b200|tpu-like]
               [--chrome trace.json]
      Compare PAT and all baselines on one synthetic decode batch; --chrome
      dumps PAT's execution timeline for chrome://tracing / Perfetto.
  patsim tiles [--gpu a100|h100|v100|b200|tpu-like]
      Print the multi-tile constraint solver's feasibility grid (Fig. 8b).
  patsim serve --trace toolagent|conversation|qwen-a|qwen-b --rate 5 --duration 20
               [--model llama3-8b|qwen3-8b|qwen25-72b|qwen3-30b-a3b] [--backend pat|fa|flashinfer|deft]
               [--save trace.jsonl | --load trace.jsonl]
      Run the continuous-batching serving simulator on a trace; --save/--load
      persist the request stream as JSONL for exact replay.
  patsim traces
      Report the prefix ratios of the four trace models (Fig. 4).";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{key}`"));
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn gpu_of(flags: &HashMap<String, String>) -> Result<GpuSpec, String> {
    // `--gpu` wins; otherwise the `PAT_GPU_MODEL` env knob (default a100).
    match flags.get("gpu") {
        Some(name) => sim_gpu::GpuModel::parse(name)
            .map(|m| m.spec())
            .ok_or_else(|| format!("unknown gpu `{name}`")),
        None => Ok(sim_gpu::gpu_model_from_env().spec()),
    }
}

fn usize_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|x| x.trim().parse().map_err(|_| format!("bad number `{x}`")))
        .collect()
}

fn heads_of(flags: &HashMap<String, String>) -> Result<HeadConfig, String> {
    let spec = flags.get("heads").map(String::as_str).unwrap_or("32/8");
    let (h, kv) = spec.split_once('/').ok_or("heads must look like 32/8")?;
    let h: usize = h.parse().map_err(|_| "bad head count")?;
    let kv: usize = kv.parse().map_err(|_| "bad kv head count")?;
    if h == 0 || kv == 0 || !h.is_multiple_of(kv) {
        return Err(format!("invalid head config {h}/{kv}"));
    }
    Ok(HeadConfig::new(h, kv, 128))
}

fn cmd_kernel(flags: &HashMap<String, String>) -> Result<(), String> {
    let b = usize_list(flags.get("b").ok_or("missing --b")?)?;
    let l = usize_list(flags.get("l").ok_or("missing --l")?)?;
    if b.len() != l.len() || b.is_empty() {
        return Err("--b and --l must have equal nonzero length".into());
    }
    let gpu = gpu_of(flags)?;
    let head = heads_of(flags)?;
    let spec = BatchSpec::new(b, l);
    let batch = spec.build(head);
    println!(
        "batch {} on {} ({} queries)",
        spec.label(),
        gpu.name,
        batch.num_queries()
    );
    println!(
        "{:<18} {:>12} {:>14} {:>10} {:>10}",
        "system", "latency", "KV DRAM (MB)", "bw util", "vs PAT"
    );

    let systems: Vec<Box<dyn AttentionBackend>> = vec![
        Box::new(PatBackend::new()),
        Box::new(FlashAttention::new()),
        Box::new(FlashInfer::new()),
        Box::new(FastTree::new()),
        Box::new(RelayAttention::new()),
        Box::new(RelayAttentionPP::new()),
        Box::new(Deft::new()),
        Box::new(Cascade::new()),
    ];
    let mut pat_ns = None;
    for system in systems {
        if !system.supports(&batch) {
            println!("{:<18} {:>12}", system.name(), "unsupported");
            continue;
        }
        let plan = system.plan(&batch, &gpu);
        plan.validate(&batch)
            .map_err(|e| format!("{}: {e}", system.name()))?;
        let report = simulate_plan(&batch, &plan, &gpu).map_err(|e| e.to_string())?;
        let pat = *pat_ns.get_or_insert(report.total_ns);
        println!(
            "{:<18} {:>9.1} us {:>14.1} {:>9.0}% {:>9.2}x",
            system.name(),
            report.total_ns / 1000.0,
            report.traffic.kv_dram_bytes / 1e6,
            report.bandwidth_utilization * 100.0,
            report.total_ns / pat
        );
        if system.name() == "PAT" {
            if let Some(path) = flags.get("chrome") {
                std::fs::write(path, sim_gpu::chrome_trace_json(&report.trace))
                    .map_err(|e| e.to_string())?;
                println!("  [PAT execution timeline written to {path}]");
            }
        }
    }
    Ok(())
}

fn cmd_tiles(flags: &HashMap<String, String>) -> Result<(), String> {
    let gpu = gpu_of(flags)?;
    let solver = TileSolver::new(gpu, 128, 2);
    print!("{}", solver.render_table());
    println!("{} feasible configurations", solver.feasible_tiles().len());
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = match flags
        .get("trace")
        .map(String::as_str)
        .unwrap_or("conversation")
    {
        "toolagent" => TraceKind::ToolAgent,
        "conversation" => TraceKind::Conversation,
        "qwen-a" => TraceKind::QwenA,
        "qwen-b" => TraceKind::QwenB,
        other => return Err(format!("unknown trace `{other}`")),
    };
    let rate: f64 = flags
        .get("rate")
        .map(String::as_str)
        .unwrap_or("5")
        .parse()
        .map_err(|_| "bad --rate")?;
    let duration: f64 = flags
        .get("duration")
        .map(String::as_str)
        .unwrap_or("15")
        .parse()
        .map_err(|_| "bad --duration")?;
    let model = match flags
        .get("model")
        .map(String::as_str)
        .unwrap_or("llama3-8b")
    {
        "llama3-8b" => ModelSpec::llama3_8b(),
        "qwen3-8b" => ModelSpec::qwen3_8b(),
        "qwen25-72b" => ModelSpec::qwen25_72b(),
        "qwen3-30b-a3b" => ModelSpec::qwen3_30b_a3b(),
        other => return Err(format!("unknown model `{other}`")),
    };
    let mut backend: Box<dyn ServingAttention> =
        match flags.get("backend").map(String::as_str).unwrap_or("pat") {
            "pat" => Box::new(LazyPat::new()),
            "fa" | "flashattention" => Box::new(Stateless(FlashAttention::new())),
            "flashinfer" => Box::new(Stateless(FlashInfer::new())),
            "deft" => Box::new(Stateless(Deft::new())),
            other => return Err(format!("unknown backend `{other}`")),
        };

    let requests = match flags.get("load") {
        Some(path) => workloads::load_trace(path).map_err(|e| e.to_string())?,
        None => generate_trace(TraceConfig {
            kind,
            rate_per_s: rate,
            duration_s: duration,
            seed: 7,
        }),
    };
    if let Some(path) = flags.get("save") {
        workloads::save_trace(path, &requests).map_err(|e| e.to_string())?;
        println!("[trace saved to {path}]");
    }
    let config = ServingConfig::single_gpu(model);
    let source = match flags.get("load") {
        Some(path) => format!("loaded from {path}"),
        None => format!("{} @ {rate} req/s for {duration}s", kind.name()),
    };
    println!(
        "serving {} requests ({source}) on {} with {}",
        requests.len(),
        model.name,
        backend.name()
    );
    let result = simulate_serving(&config, backend.as_mut(), &requests);
    println!("mean TTFT     : {:>10.1} ms", result.metrics.mean_ttft_ms);
    println!("mean TPOT     : {:>10.2} ms", result.metrics.mean_tpot_ms);
    println!("P99 TPOT      : {:>10.2} ms", result.metrics.p99_tpot_ms);
    println!("completed     : {:>10}", result.metrics.completed);
    println!("decode steps  : {:>10}", result.decode_steps);
    println!("mean batch    : {:>10.1}", result.mean_batch);
    println!(
        "attention time: {:>9.0}% of decode steps",
        result.attention_fraction * 100.0
    );
    if result.unfinished > 0 {
        println!(
            "WARNING: {} requests unfinished (overload)",
            result.unfinished
        );
    }
    Ok(())
}

fn cmd_traces() -> Result<(), String> {
    println!("{:>14} {:>12} {:>10}", "trace", "measured", "paper");
    for kind in TraceKind::all() {
        let requests = generate_trace(TraceConfig {
            kind,
            rate_per_s: 10.0,
            duration_s: 60.0,
            seed: 4,
        });
        let ratio = workloads::measure_prefix_ratio(&requests);
        println!(
            "{:>14} {:>11.1}% {:>9.0}%",
            kind.name(),
            ratio * 100.0,
            kind.paper_prefix_ratio() * 100.0
        );
    }
    Ok(())
}
