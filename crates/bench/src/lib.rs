//! # pat-bench — harnesses regenerating every table and figure of the paper
//!
//! Each `cargo bench -p pat-bench --bench <name>` target is a standalone
//! harness (no criterion timing loop — the numbers *are* simulation outputs)
//! that prints the same rows/series the paper reports and persists them as
//! JSON under `target/bench-results/`. The `micro` target additionally runs
//! criterion micro-benchmarks of the host-side hot paths (pack scheduler,
//! online-softmax merge, tiled attention).
//!
//! See `DESIGN.md` for the experiment ↔ module index and `EXPERIMENTS.md`
//! for paper-vs-measured numbers.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use attn_kernel::{simulate_plan, AttentionBackend, DecodeBatch, TimingReport};
use baselines::{
    Cascade, Deft, FastTree, FlashAttention, FlashInfer, RelayAttention, RelayAttentionPP,
};
use pat_core::PatBackend;
use serde::Serialize;
use sim_gpu::GpuSpec;
use std::fs;
use std::path::PathBuf;

/// Prints a figure/table banner.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// A bench-harness failure: filesystem trouble under
/// `target/bench-results/`, result-set serialization, or a backend plan the
/// kernel simulator rejects. Harness `main`s `.expect()` these — a figure
/// regeneration that cannot persist its output should abort loudly — while
/// library code propagates them.
#[derive(Debug)]
pub enum BenchError {
    /// A filesystem operation failed.
    Io {
        /// The path being created or written.
        path: PathBuf,
        /// The underlying IO error.
        source: std::io::Error,
    },
    /// JSON serialization of a result set failed.
    Serialize(String),
    /// A backend produced a plan the kernel simulator rejected, or failed
    /// to plan a batch the harness requires it to support.
    Plan {
        /// The system whose plan failed.
        system: String,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            BenchError::Serialize(e) => write!(f, "serializing results: {e}"),
            BenchError::Plan { system, detail } => write!(f, "{system}: {detail}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Directory where bench harnesses persist their JSON series.
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the directory cannot be created.
pub fn results_dir() -> Result<PathBuf, BenchError> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-results");
    fs::create_dir_all(&dir).map_err(|source| BenchError::Io {
        path: dir.clone(),
        source,
    })?;
    Ok(dir)
}

/// Writes a JSON-serializable result set for later inspection. Every
/// persisted artifact embeds the output-scoped PAT_* knob snapshot under a
/// top-level `"knobs"` field (see `sim_core::knobs`), so a result file
/// always records the configuration that produced it.
///
/// # Errors
///
/// Returns [`BenchError::Serialize`] when the value cannot be rendered and
/// [`BenchError::Io`] when the file cannot be written.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> Result<(), BenchError> {
    let path = results_dir()?.join(format!("{name}.json"));
    let json = artifact_json(value)?;
    fs::write(&path, json).map_err(|source| BenchError::Io {
        path: path.clone(),
        source,
    })?;
    println!("[saved {}]", path.display());
    Ok(())
}

/// Renders a result set as the exact bytes [`save_json`] persists: pretty
/// JSON with the output-scoped knob snapshot embedded. Use this for
/// additional committed copies of an artifact (the `BENCH_*.json` records
/// at the repository root) so every persisted form carries its knobs.
///
/// # Errors
///
/// Returns [`BenchError::Serialize`] when the value cannot be rendered.
pub fn artifact_json<T: Serialize>(value: &T) -> Result<String, BenchError> {
    let json =
        serde_json::to_string_pretty(value).map_err(|e| BenchError::Serialize(e.to_string()))?;
    Ok(embed_knobs(&json))
}

/// Splices the knob snapshot into a pretty-printed top-level JSON object
/// (or array, which is wrapped as `{"knobs": …, "data": […]}`). Inputs
/// that are neither are returned unchanged.
fn embed_knobs(json: &str) -> String {
    let knobs = sim_core::knobs::snapshot().artifact_json();
    let trimmed = json.trim_end();
    if let Some(rest) = trimmed.strip_prefix('{') {
        // `{}` → `{"knobs": …}`; `{…}` → `{"knobs": …, …}`.
        let rest = rest.trim_start();
        if rest == "}" {
            format!("{{\n  \"knobs\": {knobs}\n}}")
        } else {
            format!("{{\n  \"knobs\": {knobs},\n  {rest}")
        }
    } else if trimmed.starts_with('[') {
        let indented = trimmed.replace('\n', "\n  ");
        format!("{{\n  \"knobs\": {knobs},\n  \"data\": {indented}\n}}")
    } else {
        json.to_string()
    }
}

/// The eight systems of the kernel benchmark (Fig. 11/17), PAT first.
pub fn kernel_systems() -> Vec<Box<dyn AttentionBackend>> {
    vec![
        Box::new(PatBackend::new()),
        Box::new(FlashAttention::new()),
        Box::new(FlashInfer::new()),
        Box::new(FastTree::new()),
        Box::new(RelayAttention::new()),
        Box::new(RelayAttentionPP::new()),
        Box::new(Deft::new()),
        Box::new(Cascade::new()),
    ]
}

/// One measured cell of a kernel benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct KernelCell {
    /// System name.
    pub system: String,
    /// Batch-spec label.
    pub config: String,
    /// Head configuration label.
    pub heads: String,
    /// Attention latency in microseconds (`None` when unsupported).
    pub latency_us: Option<f64>,
    /// Normalized performance (PAT = 1.0).
    pub normalized: Option<f64>,
}

/// Simulates one backend on one batch; `Ok(None)` if unsupported.
///
/// # Errors
///
/// Returns [`BenchError::Plan`] when the backend's plan fails validation or
/// kernel simulation.
pub fn time_backend(
    backend: &dyn AttentionBackend,
    batch: &DecodeBatch,
    spec: &GpuSpec,
) -> Result<Option<TimingReport>, BenchError> {
    if !backend.supports(batch) {
        return Ok(None);
    }
    let plan = backend.plan(batch, spec);
    plan.validate(batch).map_err(|e| BenchError::Plan {
        system: backend.name().to_string(),
        detail: format!("produced an invalid plan: {e}"),
    })?;
    let report = simulate_plan(batch, &plan, spec).map_err(|e| BenchError::Plan {
        system: backend.name().to_string(),
        detail: format!("plan failed kernel simulation: {e}"),
    })?;
    Ok(Some(report))
}

/// Formats an optional latency for table output.
pub fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:8.1}"),
        None => format!("{:>8}", "--"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};

    #[test]
    fn kernel_systems_has_eight_entries_pat_first() {
        let systems = kernel_systems();
        assert_eq!(systems.len(), 8);
        assert_eq!(systems[0].name(), "PAT");
    }

    #[test]
    fn time_backend_returns_none_for_unsupported() {
        let batch = DecodeBatch::new(
            HeadConfig::new(16, 8, 128), // group size 2: FastTree unsupported
            vec![BlockTable::new(vec![BlockId(0)], 16, 16)],
            2,
        );
        let spec = GpuSpec::a100_sxm4_80gb();
        let fasttree = time_backend(&FastTree::new(), &batch, &spec).expect("simulates");
        assert!(fasttree.is_none());
        let fa = time_backend(&FlashAttention::new(), &batch, &spec).expect("simulates");
        assert!(fa.is_some());
    }

    /// Round trip: the knob snapshot embedded by [`artifact_json`] parses
    /// back to exactly `knobs::snapshot().artifact_map()`, overrides
    /// included, and perf-only knobs never leak into the artifact.
    #[test]
    fn artifact_json_round_trips_the_knob_snapshot() {
        use serde::Value;
        use sim_core::knobs;

        fn knob_strings(json: &str) -> Vec<(String, String)> {
            let value: Value = serde_json::from_str(json).expect("valid JSON");
            let embedded = value
                .get("knobs")
                .and_then(Value::as_map)
                .expect("knobs map");
            embedded
                .iter()
                .map(|(k, v)| match v {
                    Value::Str(s) => (k.clone(), s.clone()),
                    other => panic!("knob {k} must be a string, got {other:?}"),
                })
                .collect()
        }

        knobs::set_override("PAT_GPU_MODEL", Some("h100"));
        let json = artifact_json(&vec![1u64, 2, 3]).expect("serializes");
        knobs::set_override("PAT_GPU_MODEL", None);
        let overridden = knob_strings(&json);
        assert!(
            overridden
                .iter()
                .any(|(k, v)| k == "PAT_GPU_MODEL" && v == "h100"),
            "override must be captured in the artifact: {overridden:?}"
        );
        assert!(
            overridden.iter().all(|(k, _)| k != "PAT_SIM_THREADS"),
            "perf-only knobs must not appear in artifacts: {overridden:?}"
        );
        // Non-object payloads are wrapped so the snapshot always fits.
        let value: Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(
            value.get("data").is_some(),
            "array payload wrapped under `data`"
        );

        // With the override cleared, a fresh embed matches the registry
        // snapshot key-for-key and value-for-value.
        let fresh: std::collections::BTreeMap<String, String> =
            knob_strings(&artifact_json(&vec![0u64]).expect("serializes"))
                .into_iter()
                .collect();
        let expected = knobs::snapshot().artifact_map();
        assert_eq!(fresh, expected, "embedded snapshot must round-trip exactly");
    }
}

/// Runs the full kernel benchmark grid (Fig. 11 on A100, Fig. 17 on H100):
/// 20 decode-batch configurations × 4 head configurations × 8 systems.
/// Prints normalized performance (PAT = 1.00, higher is better) and returns
/// all cells.
///
/// # Errors
///
/// Returns [`BenchError::Plan`] when any system's plan fails simulation, or
/// when PAT itself reports a grid batch unsupported (it must support all of
/// them to serve as the normalization baseline).
pub fn run_kernel_figure(spec: &GpuSpec, figure: &str) -> Result<Vec<KernelCell>, BenchError> {
    use attn_math::HeadConfig;
    use workloads::figure11_specs;

    let systems = kernel_systems();
    let mut cells = Vec::new();
    for head in HeadConfig::paper_benchmark_set() {
        banner(&format!(
            "{figure} — heads {}/{} on {}  (normalized perf, PAT = 1.00; -- = unsupported)",
            head.num_heads(),
            head.num_kv_heads(),
            spec.name
        ));
        print!("{:<28}", "config");
        for s in &systems {
            print!(" {:>10}", shorten(s.name()));
        }
        println!();
        for (i, batch_spec) in figure11_specs().iter().enumerate() {
            let batch = batch_spec.build(head);
            let mut times: Vec<Option<f64>> = Vec::with_capacity(systems.len());
            for s in &systems {
                times.push(time_backend(s.as_ref(), &batch, spec)?.map(|r| r.total_ns));
            }
            let pat_ns = times[0].ok_or_else(|| BenchError::Plan {
                system: "PAT".to_string(),
                detail: format!(
                    "reported grid batch `{}` unsupported; it is the normalization baseline",
                    batch_spec.label()
                ),
            })?;
            print!("({:>2}) {:<23}", i + 1, batch_spec.label());
            for (s, t) in systems.iter().zip(&times) {
                let normalized = t.map(|ns| pat_ns / ns);
                match normalized {
                    Some(x) => print!(" {x:>10.2}"),
                    None => print!(" {:>10}", "--"),
                }
                cells.push(KernelCell {
                    system: s.name().to_string(),
                    config: batch_spec.label(),
                    heads: format!("{}/{}", head.num_heads(), head.num_kv_heads()),
                    latency_us: t.map(|ns| ns / 1000.0),
                    normalized,
                });
            }
            println!();
        }
    }
    summarize_kernel_cells(&cells);
    Ok(cells)
}

fn shorten(name: &str) -> String {
    match name {
        "FlashAttention" => "FA".into(),
        "FlashInfer" => "FI".into(),
        "RelayAttention" => "Relay".into(),
        "RelayAttention++" => "Relay++".into(),
        other => other.into(),
    }
}

/// Prints the §8.3-style summary: average latency reduction and max speedup
/// of PAT vs each baseline over the prefixed configurations.
pub fn summarize_kernel_cells(cells: &[KernelCell]) {
    use std::collections::BTreeMap;
    let mut per_system: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for cell in cells {
        if cell.system == "PAT"
            || !cell.config.contains("B=[1,")
                && !cell.config.contains("B=[2,")
                && !cell.config.contains("B=[4,")
                && !cell.config.contains("B=[8,")
        {
            continue;
        }
        // Pair this cell with PAT's latency on the same (config, heads).
        let pat = cells
            .iter()
            .find(|c| c.system == "PAT" && c.config == cell.config && c.heads == cell.heads)
            .and_then(|c| c.latency_us);
        if let (Some(pat_us), Some(base_us)) = (pat, cell.latency_us) {
            per_system
                .entry(cell.system.as_str())
                .or_default()
                .push((pat_us, base_us));
        }
    }
    banner("Summary over shared-prefix configs (paper §8.3)");
    let mut all_reductions = Vec::new();
    for (system, pairs) in per_system {
        let mean_reduction = pairs
            .iter()
            .map(|(p, b)| (1.0 - p / b) * 100.0)
            .sum::<f64>()
            / pairs.len() as f64;
        let max_speedup = pairs.iter().map(|(p, b)| b / p).fold(0.0f64, f64::max);
        println!(
            "vs {system:<18} mean attention-latency reduction {mean_reduction:5.1}%   max speedup {max_speedup:5.1}x   (n={})",
            pairs.len()
        );
        all_reductions.extend(pairs.iter().map(|(p, b)| (1.0 - p / b) * 100.0));
    }
    if !all_reductions.is_empty() {
        let overall = all_reductions.iter().sum::<f64>() / all_reductions.len() as f64;
        println!("overall mean reduction: {overall:.1}%  (paper: 53.5%)");
    }
}

/// One row of the kernel-equivalence validation (Fig. 8c/d, Fig. 9).
#[derive(Debug, Clone, Serialize)]
pub struct EquivalenceRow {
    /// Tile configuration label.
    pub tile: String,
    /// Resident CTAs per SM.
    pub ctas_per_sm: usize,
    /// Average HBM bandwidth utilization.
    pub bandwidth_utilization: f64,
    /// Kernel latency in microseconds.
    pub latency_us: f64,
}

/// Runs the kernel-equivalence validation of §5.2: a no-prefix decode batch
/// (KV length 1024) executed under every feasible tile configuration. All
/// feasible tiles should sustain similar bandwidth utilization and latency.
///
/// # Errors
///
/// Returns [`BenchError::Plan`] when a feasible tile's plan fails kernel
/// simulation.
pub fn kernel_equivalence(
    spec: &GpuSpec,
    batch_size: usize,
) -> Result<Vec<EquivalenceRow>, BenchError> {
    use attn_kernel::{CtaPlan, KernelPlan, KvSlice};
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};
    use pat_core::TileSolver;
    use sim_gpu::Occupancy;

    let head = HeadConfig::new(32, 8, 128);
    let bs = 16;
    let blocks_per_q = 1024 / bs;
    let tables: Vec<BlockTable> = (0..batch_size)
        .map(|q| {
            let ids: Vec<BlockId> = (0..blocks_per_q as u32)
                .map(|i| BlockId(q as u32 * 1000 + i))
                .collect();
            BlockTable::new(ids, 1024, bs)
        })
        .collect();
    let batch = DecodeBatch::new(head, tables, 2);
    let solver = TileSolver::new(spec.clone(), head.head_dim(), 2);
    let occupancy = Occupancy::new(spec.clone());

    let mut rows = Vec::new();
    for tile in solver.feasible_tiles() {
        let ctas: Vec<CtaPlan> = (0..batch_size)
            .map(|q| CtaPlan {
                queries: vec![q],
                kv: KvSlice::new(batch.tables()[q].blocks().to_vec(), 1024, bs),
                tile,
                stream: 0,
                phase: 0,
            })
            .collect();
        let plan = KernelPlan::new(ctas);
        let report = simulate_plan(&batch, &plan, spec).map_err(|e| BenchError::Plan {
            system: format!("tile {tile}"),
            detail: format!("plan failed kernel simulation: {e}"),
        })?;
        rows.push(EquivalenceRow {
            tile: tile.to_string(),
            ctas_per_sm: occupancy.ctas_per_sm(tile.resources(128, 2)).unwrap_or(0),
            bandwidth_utilization: report.bandwidth_utilization,
            latency_us: report.forward_ns / 1000.0,
        });
    }
    Ok(rows)
}
