//! Offline calibration of the analytical decode-attention model.
//!
//! The analytical fidelity prices one decode step's attention with a
//! closed form fitted against the exact kernel simulator:
//!
//! ```text
//! kernel_ns(batch, kv_total, kv_max) ≈ max(
//!     attn_floor,                                              # latency floor
//!     chain_base + chain_per_kv_token·kv_max,                  # longest chain
//!     attn_base + attn_per_query·batch + attn_per_kv_token·kv_total,
//! )                                                            # bandwidth
//! sched_ns(batch) ≈ sched_base + sched_per_query·batch
//! ```
//!
//! where `kv_total` is the total KV tokens read by the step and `kv_max`
//! the longest single request's KV length. The three-plane max is the
//! roofline argument applied regime by regime: tiny steps are pinned at a
//! fixed pipeline-fill/launch latency; a batch dominated by one long
//! request is serialized on that request's tile chain (one CTA chain
//! cannot saturate HBM, so its slope is steeper than the aggregate one);
//! and large well-mixed batches are bandwidth-bound, with time set by
//! total KV bytes streamed from HBM plus per-query merge work.
//!
//! Coefficients are fitted offline by [`fit_entry`] — a deterministic,
//! seeded grid of synthetic decode batches timed on the exact simulator
//! with the PAT backend, solved by least squares in a fixed order — and
//! committed to `calibration.json` next to this crate. The committed table
//! is **ratcheted**: regenerating it must
//! reproduce the committed bytes exactly (see the `calibrate` binary's
//! `--check` mode and the drift test), so any change to the kernel
//! simulator that shifts the fit shows up as an explicit, reviewed diff.
//!
//! A model/GPU pair without a committed entry falls back to a pure
//! first-principles roofline ([`AttnCalibration::roofline`]) — sound but
//! less accurate, since it ignores L2 reuse and scheduling detail.

use attn_kernel::{simulate_plan, DecodeBatch};
use attn_math::HeadConfig;
use kv_cache::CacheManager;
use pat_core::LazyPat;
use serde::{Deserialize, Serialize};
use serving::ModelSpec;
use sim_core::cast::usize_to_u32;
use sim_gpu::{GpuModel, GpuSpec};

/// Documented relative-error bound of the analytical fidelity: on seeded
/// small fleets, analytical fleet-level mean TTFT and mean TPOT stay
/// within this fraction of the exact fidelity's values (validated by the
/// cross-fidelity tests and the `fig_fleet_scale` bench). Per-request
/// errors can exceed this; the bound is about fleet aggregates.
pub const ANALYTICAL_REL_ERROR_BOUND: f64 = 0.15;

/// Worst-case relative error the *per-step kernel* fit is allowed over its
/// own calibration grid. Looser than [`ANALYTICAL_REL_ERROR_BOUND`]: the
/// residual is concentrated in the floor→bandwidth transition of
/// microsecond-scale steps, where attention is a rounding error next to
/// the step's GEMM time, so per-step kernel misfit this size still leaves
/// fleet TTFT/TPOT aggregates well inside the tighter bound.
pub const KERNEL_FIT_REL_ERR_BOUND: f64 = 0.35;

/// Fitted closed-form attention coefficients for one (head config, GPU,
/// backend) triple. All times in nanoseconds, per layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttnCalibration {
    /// Lookup key: `"{heads}x{kv_heads}x{head_dim}@{gpu name}"`.
    pub key: String,
    /// Attention backend the fit was sampled with (`"PAT"`).
    pub backend: String,
    /// Minimum kernel time of any decode step (latency floor), ns.
    pub attn_floor_ns: f64,
    /// Intercept of the single-request chain plane, ns.
    pub chain_base_ns: f64,
    /// Serial cost per KV token along the longest request's chain, ns.
    pub chain_per_kv_token_ns: f64,
    /// Intercept of the bandwidth plane, ns.
    pub attn_base_ns: f64,
    /// Marginal kernel cost per decode query (bandwidth plane), ns.
    pub attn_per_query_ns: f64,
    /// Marginal kernel cost per total KV token read (bandwidth plane), ns.
    pub attn_per_kv_token_ns: f64,
    /// Fixed per-step exposed scheduling cost, ns.
    pub sched_base_ns: f64,
    /// Marginal scheduling cost per decode query, ns.
    pub sched_per_query_ns: f64,
    /// Grid samples the fit was solved over.
    pub samples: u64,
    /// Largest relative error of the fit across its own samples.
    pub max_fit_rel_err: f64,
}

impl AttnCalibration {
    /// Predicted kernel time (one layer) of a decode step reading
    /// `kv_total` KV tokens overall whose longest request holds `kv_max`:
    /// the max of the latency floor, the single-chain plane, and the
    /// bandwidth plane (see the module docs).
    pub fn kernel_ns(&self, queries: usize, kv_total: u64, kv_max: u64) -> f64 {
        let chain = self.chain_base_ns + self.chain_per_kv_token_ns * kv_max as f64;
        let bandwidth = self.attn_base_ns
            + self.attn_per_query_ns * queries as f64
            + self.attn_per_kv_token_ns * kv_total as f64;
        self.attn_floor_ns.max(chain).max(bandwidth)
    }

    /// Predicted exposed scheduling time of a decode step, ns.
    pub fn sched_ns(&self, queries: usize) -> f64 {
        self.sched_base_ns + self.sched_per_query_ns * queries as f64
    }

    /// First-principles fallback for an uncalibrated (model, GPU) pair:
    /// KV bytes over effective HBM bandwidth, pipeline-fill latency as the
    /// base, and fixed metadata-style scheduling costs. Ignores L2 reuse
    /// and per-query merge work — use a committed fit when accuracy
    /// matters.
    pub fn roofline(head: HeadConfig, gpu: &GpuSpec, dtype_bytes: usize) -> Self {
        let bytes_per_kv_token =
            2.0 * head.num_kv_heads() as f64 * head.head_dim() as f64 * dtype_bytes as f64;
        AttnCalibration {
            key: key_for(head, gpu),
            backend: "roofline".to_string(),
            attn_floor_ns: gpu.mem_latency_ns + gpu.kernel_launch_ns,
            chain_base_ns: 0.0,
            chain_per_kv_token_ns: 0.0,
            attn_base_ns: gpu.mem_latency_ns + gpu.kernel_launch_ns,
            attn_per_query_ns: 0.0,
            attn_per_kv_token_ns: bytes_per_kv_token / (gpu.global_bandwidth * gpu.dram_efficiency),
            sched_base_ns: 20_000.0,
            sched_per_query_ns: 300.0,
            samples: 0,
            max_fit_rel_err: f64::NAN,
        }
    }
}

/// The committed set of calibration entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationTable {
    /// Format version (bump on schema change).
    pub version: u32,
    /// Fitted entries, sorted by key then backend.
    pub entries: Vec<AttnCalibration>,
}

impl CalibrationTable {
    /// The table committed at `crates/replica-fidelity/calibration.json`.
    /// A parse failure yields an empty table (every lookup then falls back
    /// to the roofline); the drift test pins the committed bytes, so this
    /// path is unreachable in a healthy checkout.
    pub fn committed() -> CalibrationTable {
        serde_json::from_str(COMMITTED_JSON).unwrap_or(CalibrationTable {
            version: 1,
            entries: Vec::new(),
        })
    }

    /// Finds the entry for `key`, preferring the PAT backend.
    pub fn lookup(&self, key: &str) -> Option<&AttnCalibration> {
        self.entries
            .iter()
            .find(|e| e.key == key && e.backend == "PAT")
            .or_else(|| self.entries.iter().find(|e| e.key == key))
    }

    /// Canonical JSON encoding (the exact bytes committed on disk).
    pub fn to_canonical_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).unwrap_or_default();
        s.push('\n');
        s
    }
}

/// The raw committed calibration file.
pub const COMMITTED_JSON: &str = include_str!("../calibration.json");

/// Calibration lookup key for a sharded head configuration on a GPU.
pub fn key_for(head: HeadConfig, gpu: &GpuSpec) -> String {
    format!(
        "{}x{}x{}@{}",
        head.num_heads(),
        head.num_kv_heads(),
        head.head_dim(),
        gpu.name
    )
}

/// Solves the least-squares system `X·beta ≈ y` for `N` coefficients via
/// normal equations and Gaussian elimination with partial pivoting, in a
/// fixed operation order (deterministic across platforms).
fn least_squares<const N: usize>(rows: &[([f64; N], f64)]) -> [f64; N] {
    let mut ata = [[0.0f64; N]; N];
    let mut aty = [0.0f64; N];
    for (x, y) in rows {
        for i in 0..N {
            for j in 0..N {
                ata[i][j] += x[i] * x[j];
            }
            aty[i] += x[i] * y;
        }
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..N {
        let mut pivot = col;
        for row in (col + 1)..N {
            if ata[row][col].abs() > ata[pivot][col].abs() {
                pivot = row;
            }
        }
        ata.swap(col, pivot);
        aty.swap(col, pivot);
        let diag = ata[col][col];
        if diag.abs() < 1e-12 {
            continue; // Degenerate column: leave coefficient at zero.
        }
        for row in (col + 1)..N {
            let factor = ata[row][col] / diag;
            let (upper, lower) = ata.split_at_mut(row);
            for (k, cell) in lower[0].iter_mut().enumerate().skip(col) {
                *cell -= factor * upper[col][k];
            }
            aty[row] -= factor * aty[col];
        }
    }
    let mut beta = [0.0f64; N];
    for col in (0..N).rev() {
        let mut acc = aty[col];
        for k in (col + 1)..N {
            acc -= ata[col][k] * beta[k];
        }
        beta[col] = if ata[col][col].abs() < 1e-12 {
            0.0
        } else {
            acc / ata[col][col]
        };
    }
    beta
}

/// Decode batch sizes sampled by the calibration grid.
const GRID_QUERIES: [usize; 10] = [1, 2, 4, 8, 16, 24, 32, 48, 64, 128];
/// Per-request KV lengths sampled by the calibration grid.
const GRID_KV: [usize; 5] = [64, 256, 1024, 2048, 4096];
/// Single-request samples with at least this much KV fit the chain plane
/// (shorter chains sit on the latency floor and would bias the slope).
const CHAIN_FIT_MIN_KV: usize = 1024;
/// Multi-request samples reading at least this much total KV fit the
/// bandwidth plane (smaller steps are latency- or chain-bound).
const BW_FIT_MIN_KV_TOTAL: u64 = 4096;

/// Fits one calibration entry for `model` sharded `tp` ways on `gpu` with
/// the PAT backend, by timing a fixed grid of synthetic decode batches on
/// the exact kernel simulator. Deterministic: same inputs, same bytes out.
pub fn fit_entry(model: &ModelSpec, gpu: &GpuSpec, tp: usize) -> AttnCalibration {
    let head = model.shard_head(tp);
    let dtype_bytes = 2usize;
    let mut bw_rows: Vec<([f64; 3], f64)> = Vec::new();
    let mut chain_rows: Vec<([f64; 2], f64)> = Vec::new();
    let mut sched_rows: Vec<([f64; 2], f64)> = Vec::new();
    // (queries, kv_total, kv_max, total_ns) per grid sample.
    let mut raw: Vec<(usize, u64, u64, f64)> = Vec::new();
    let mut floor = f64::INFINITY;
    let mut next_token: u32 = 1;
    for &queries in GRID_QUERIES.iter() {
        for &kv_len in GRID_KV.iter() {
            // Distinct tokens per request, so no prefix sharing perturbs
            // the block tables.
            let blocks_needed = queries * kv_len.div_ceil(16) + 16;
            let mut cache = CacheManager::new(blocks_needed, 16);
            let mut tables = Vec::with_capacity(queries);
            for _ in 0..queries {
                let tokens: Vec<u32> = (next_token..next_token + usize_to_u32(kv_len)).collect();
                next_token += usize_to_u32(kv_len);
                match cache.insert_sequence(&tokens) {
                    Ok(table) => tables.push(table),
                    Err(_) => continue,
                }
            }
            if tables.is_empty() {
                continue;
            }
            let batch = DecodeBatch::new(head, tables, dtype_bytes);
            let mut pat = LazyPat::new();
            let plan = pat.plan(&batch, gpu);
            let Ok(report) = simulate_plan(&batch, &plan, gpu) else {
                continue;
            };
            let queries = batch.num_queries();
            let kv_total = (queries * kv_len) as u64;
            let kv_max = kv_len as u64;
            let kernel = (report.total_ns - report.scheduling_ns).max(1.0);
            floor = floor.min(kernel);
            // Each plane is fitted only where it binds, with rows divided
            // by the actual so least squares minimizes *relative* error
            // and cheap steps are fitted as faithfully as expensive ones.
            if queries == 1 && kv_len >= CHAIN_FIT_MIN_KV {
                chain_rows.push(([1.0 / kernel, kv_max as f64 / kernel], 1.0));
            }
            if queries >= 2 && kv_total >= BW_FIT_MIN_KV_TOTAL {
                bw_rows.push((
                    [
                        1.0 / kernel,
                        queries as f64 / kernel,
                        kv_total as f64 / kernel,
                    ],
                    1.0,
                ));
            }
            sched_rows.push(([1.0, queries as f64], report.scheduling_ns));
            raw.push((queries, kv_total, kv_max, report.total_ns));
        }
    }
    let [chain_base, chain_per_kv] = least_squares::<2>(&chain_rows);
    let [attn_base, attn_per_query, attn_per_kv] = least_squares::<3>(&bw_rows);
    let [sched_base, sched_per_query] = least_squares::<2>(&sched_rows);
    let fitted = AttnCalibration {
        key: key_for(head, gpu),
        backend: "PAT".to_string(),
        attn_floor_ns: if floor.is_finite() { floor } else { 0.0 },
        chain_base_ns: chain_base,
        chain_per_kv_token_ns: chain_per_kv,
        attn_base_ns: attn_base,
        attn_per_query_ns: attn_per_query,
        attn_per_kv_token_ns: attn_per_kv,
        sched_base_ns: sched_base,
        sched_per_query_ns: sched_per_query,
        samples: raw.len() as u64,
        max_fit_rel_err: 0.0,
    };
    let max_rel_err = raw
        .iter()
        .map(|&(q, kv_total, kv_max, actual)| {
            let pred = fitted.kernel_ns(q, kv_total, kv_max) + fitted.sched_ns(q);
            ((pred - actual) / actual).abs()
        })
        .fold(0.0f64, f64::max);
    AttnCalibration {
        max_fit_rel_err: max_rel_err,
        ..fitted
    }
}

/// Regenerates the full calibration table (the `calibrate` binary's
/// payload): one entry per curated hardware model ([`GpuModel::all`]), so
/// the analytical fidelity stays calibrated whatever `PAT_GPU_MODEL`
/// selects. Keys carry the spec name, so adding a model extends the table
/// without disturbing existing entries' fitted bytes.
pub fn generate_table() -> CalibrationTable {
    let entries = GpuModel::all()
        .iter()
        .map(|m| fit_entry(&ModelSpec::llama3_8b(), &m.spec(), 1))
        .collect();
    CalibrationTable {
        version: 1,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_squares_recovers_exact_linear_data() {
        // y = 10 + 2·a + 0.5·b, no noise.
        let rows: Vec<([f64; 3], f64)> = (0..20)
            .map(|i| {
                let a = (i % 5) as f64;
                let b = (i * 7 % 13) as f64;
                ([1.0, a, b], 10.0 + 2.0 * a + 0.5 * b)
            })
            .collect();
        let [c0, c1, c2] = least_squares::<3>(&rows);
        assert!((c0 - 10.0).abs() < 1e-6, "{c0}");
        assert!((c1 - 2.0).abs() < 1e-6, "{c1}");
        assert!((c2 - 0.5).abs() < 1e-6, "{c2}");
    }

    #[test]
    fn committed_table_parses_and_covers_the_default_config() {
        let table = CalibrationTable::committed();
        assert!(!table.entries.is_empty(), "committed table must parse");
        let key = key_for(
            ModelSpec::llama3_8b().shard_head(1),
            &GpuSpec::a100_sxm4_80gb(),
        );
        let entry = table.lookup(&key);
        assert!(entry.is_some(), "default config must be calibrated");
        if let Some(e) = entry {
            assert!(e.attn_per_kv_token_ns > 0.0);
            assert!(
                e.max_fit_rel_err < KERNEL_FIT_REL_ERR_BOUND,
                "fit error {} exceeds the documented bound",
                e.max_fit_rel_err
            );
            assert!(e.attn_per_query_ns > 0.0, "per-query cost must be physical");
            assert!(e.chain_per_kv_token_ns > e.attn_per_kv_token_ns);
        }
    }

    #[test]
    fn committed_table_matches_regeneration_ratchet() {
        // The drift ratchet: regenerating the table must reproduce the
        // committed bytes exactly. If this fails, a kernel-simulator or
        // cost change shifted the fit — rerun `cargo run -p
        // replica-fidelity --bin calibrate` and review the diff.
        let regenerated = generate_table().to_canonical_json();
        assert_eq!(
            regenerated, COMMITTED_JSON,
            "calibration.json is stale; regenerate with the calibrate binary"
        );
    }

    #[test]
    fn roofline_fallback_is_monotone_in_kv() {
        let head = ModelSpec::llama3_8b().shard_head(1);
        let gpu = GpuSpec::a100_sxm4_80gb();
        let cal = AttnCalibration::roofline(head, &gpu, 2);
        assert!(cal.kernel_ns(8, 100_000, 12_500) > cal.kernel_ns(8, 10_000, 1_250));
        assert!(cal.sched_ns(64) > cal.sched_ns(1));
    }
}
