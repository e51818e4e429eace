//! Prefix-reuse showdown: replays a trace through the vLLM-style
//! hash-chained KV cache and shows that while reuse collapses the physical
//! footprint, it does not reduce what a prefix-oblivious attention kernel
//! must *load* (§3.1): only PAT's packing does.
//!
//! Run with `cargo run --release --example cache_showdown`.

use pat::prelude::*;

fn main() {
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::QwenB,
        rate_per_s: 10.0,
        duration_s: 30.0,
        seed: 9,
    });
    println!("qwen-b trace: {} requests\n", requests.len());

    let mut hash = CacheManager::new(2_000_000, 16);
    let mut tables = Vec::new();
    for r in &requests {
        let tokens = r.prompt.to_tokens();
        tables.push(hash.insert_sequence(&tokens).expect("pool sized"));
    }
    let logical_blocks: usize = tables.iter().map(|t| t.blocks().len()).sum();
    println!(
        "{:<28} {:>14} {:>12}",
        "cache design", "hit rate", "phys blocks"
    );
    println!(
        "{:<28} {:>13.1}% {:>12}",
        "vLLM hash chaining",
        hash.stats().hit_rate() * 100.0,
        hash.allocator().used_blocks()
    );
    println!(
        "{:<28} {:>14} {:>12}",
        "(logical, no reuse)", "--", logical_blocks
    );

    // Now the paper's point: take 48 concurrent requests as a decode batch.
    // Reuse shrank memory, but FlashAttention still loads the logical bytes;
    // PAT loads close to the distinct bytes.
    let head = HeadConfig::new(32, 8, 128);
    let batch = DecodeBatch::new(head, tables[..48.min(tables.len())].to_vec(), 2);
    let spec = GpuSpec::a100_sxm4_80gb();
    let fa = simulate_plan(&batch, &FlashAttention::new().plan(&batch, &spec), &spec).unwrap();
    let pat = simulate_plan(&batch, &PatBackend::new().plan(&batch, &spec), &spec).unwrap();
    let optimal = attn_kernel::theoretical_min_kv_bytes(&batch);
    println!(
        "\ndecode batch of {} requests (one layer):",
        batch.num_queries()
    );
    println!(
        "  distinct KV (theoretical min) : {:>8.1} MB",
        optimal / 1e6
    );
    println!(
        "  PAT loads                     : {:>8.1} MB",
        pat.traffic.kv_loaded_bytes() / 1e6
    );
    println!(
        "  FlashAttention loads          : {:>8.1} MB",
        fa.traffic.kv_loaded_bytes() / 1e6
    );
    println!(
        "\nprefix REUSE saved {:.0}% of memory; prefix-AWARE execution saved {:.0}% of loads.",
        (1.0 - hash.allocator().used_blocks() as f64 / logical_blocks as f64) * 100.0,
        (1.0 - pat.traffic.kv_loaded_bytes() / fa.traffic.kv_loaded_bytes()) * 100.0
    );
}
