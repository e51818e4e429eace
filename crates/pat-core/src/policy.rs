//! The tile-selection policy seam: heuristic decision tree vs committed
//! autotuned cache.
//!
//! PAT's §5.2 runtime selector hard-codes thresholds profiled on an A100.
//! Parameterizing the hardware ([`sim_gpu::GpuModel`]) makes that
//! brittleness visible: on a TPU-like systolic part the feasible suite has
//! no `n ≤ 32` tile at all, and on B200 the Q-tile roof drops to `m = 32`,
//! so a decision tree tuned for one device cannot be right for the family.
//!
//! [`TilePolicy`] abstracts the per-CTA choice:
//!
//! * [`HeuristicPolicy`] — the original round-up + piecewise-`n` tree in
//!   [`TileSelector`], unchanged (the default; byte-for-bit identical to
//!   the pre-seam behaviour).
//! * [`AutotunedPolicy`] — looks the choice up in a **committed tile
//!   cache** (`tile_cache.json` next to this crate), produced offline by
//!   [`generate_tile_cache`]: a deterministic, exhaustive search of the
//!   constraint-feasible `(m, n)` space per (hardware model, workload
//!   signature bucket) with the kernel simulator as the oracle. The cache
//!   is ratcheted like `calibration.json` —
//!   regeneration must reproduce the committed bytes (`tune --check` in
//!   CI), so a simulator change that shifts a tile choice shows up as a
//!   reviewed diff, never as silent drift. Lookup misses (uncommitted
//!   geometry or device, stale entry) fall back to the heuristic.
//!
//! The active policy is chosen per backend via
//! [`PatConfig::tile_policy`](crate::PatConfig) and defaults to the
//! heuristic; the `PAT_TILE_POLICY` environment variable selects it for
//! env-constructed backends ([`crate::PatBackend::from_env`]).

use crate::backend::{PatBackend, PatConfig};
use crate::selector::{TileError, TileSelector};
use crate::tiles::TileSolver;
use attn_kernel::{simulate_plan, DecodeBatch, TileConfig};
use attn_math::HeadConfig;
use kv_cache::{BlockId, BlockTable, DEFAULT_BLOCK_SIZE};
use serde::{Deserialize, Serialize};
use sim_core::cast::usize_to_u32;
use sim_gpu::{GpuModel, GpuSpec};
use std::fmt;
use std::sync::OnceLock;

/// Environment variable selecting the tile policy (`heuristic` or
/// `autotuned`; unset means `heuristic`).
pub const TILE_POLICY_ENV: &str = "PAT_TILE_POLICY";

/// Which tile policy a PAT backend runs (a `Copy` tag so
/// [`crate::PatConfig`] stays `Copy`; [`TilePolicyKind::policy`] resolves
/// it to the actual strategy object).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TilePolicyKind {
    /// The §5.2 round-up + piecewise-`n` decision tree (the default).
    #[default]
    Heuristic,
    /// Committed offline-autotuned per-hardware tile cache, with heuristic
    /// fallback on lookup misses.
    Autotuned,
}

impl TilePolicyKind {
    /// Parses a policy name (`"heuristic"`, `"autotuned"`,
    /// case-insensitive). Returns `None` for anything else.
    pub fn parse(name: &str) -> Option<TilePolicyKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "heuristic" => Some(TilePolicyKind::Heuristic),
            "autotuned" | "autotune" => Some(TilePolicyKind::Autotuned),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TilePolicyKind::Heuristic => "heuristic",
            TilePolicyKind::Autotuned => "autotuned",
        }
    }

    /// The strategy object for this kind.
    pub fn policy(self) -> &'static dyn TilePolicy {
        match self {
            TilePolicyKind::Heuristic => &HeuristicPolicy,
            TilePolicyKind::Autotuned => &AutotunedPolicy,
        }
    }
}

impl fmt::Display for TilePolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The policy selected by [`TILE_POLICY_ENV`], defaulting to
/// [`TilePolicyKind::Heuristic`] when unset or unrecognized.
pub fn tile_policy_from_env() -> TilePolicyKind {
    sim_core::knobs::raw(TILE_POLICY_ENV)
        .and_then(|v| TilePolicyKind::parse(&v))
        .unwrap_or(TilePolicyKind::Heuristic)
}

/// Everything a tile policy may consult when choosing a CTA's tile.
#[derive(Debug, Clone, Copy)]
pub struct TileContext<'a> {
    /// The runtime selector over the device's feasible suite.
    pub selector: &'a TileSelector,
    /// The device being planned for.
    pub spec: &'a GpuSpec,
    /// Head dimension of the batch.
    pub head_dim: usize,
    /// Bytes per KV element.
    pub dtype_bytes: usize,
}

/// Strategy choosing the `(m, n)` tile for one CTA.
pub trait TilePolicy: fmt::Debug + Send + Sync {
    /// Chooses the tile for a CTA of `rows` query rows over `kv_len` KV
    /// tokens. Must return a tile from the context's feasible suite with
    /// `m ≥ rows`.
    fn choose(
        &self,
        ctx: &TileContext<'_>,
        rows: usize,
        kv_len: usize,
    ) -> Result<TileConfig, TileError>;

    /// Canonical policy name.
    fn name(&self) -> &'static str;
}

/// The original §5.2 decision tree, delegated to [`TileSelector`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicPolicy;

impl TilePolicy for HeuristicPolicy {
    fn choose(
        &self,
        ctx: &TileContext<'_>,
        rows: usize,
        kv_len: usize,
    ) -> Result<TileConfig, TileError> {
        ctx.selector.select(rows, kv_len)
    }

    fn name(&self) -> &'static str {
        "heuristic"
    }
}

/// Committed-cache lookup with heuristic fallback.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutotunedPolicy;

impl TilePolicy for AutotunedPolicy {
    fn choose(
        &self,
        ctx: &TileContext<'_>,
        rows: usize,
        kv_len: usize,
    ) -> Result<TileConfig, TileError> {
        let selector = ctx.selector;
        let rows_class = selector.select_m(rows).ok_or(TileError::RowsExceedMaxM {
            rows,
            max_m: selector.max_m(),
        })?;
        if let Some(tile) = TileCache::committed().lookup(
            &ctx.spec.name,
            ctx.head_dim,
            ctx.dtype_bytes,
            rows_class,
            kv_len,
        ) {
            // Staleness guard: an entry tuned against an older solver may
            // name a tile the current suite rejects — fall through to the
            // heuristic instead of planning an infeasible kernel.
            if tile.m >= rows && selector.feasible().contains(&tile) {
                return Ok(tile);
            }
        }
        selector.select(rows, kv_len)
    }

    fn name(&self) -> &'static str {
        "autotuned"
    }
}

/// One committed tile choice: for CTAs of `rows_class` rows (after the
/// round-up rule) whose KV length falls in `[kv_lo, kv_hi]` on this device
/// and geometry, run `(m, n)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileCacheEntry {
    /// Device identity ([`GpuSpec::name`]).
    pub gpu: String,
    /// Head dimension the entry was tuned for.
    pub head_dim: usize,
    /// Bytes per KV element the entry was tuned for.
    pub dtype_bytes: usize,
    /// Q-row class: the smallest feasible `m` holding the CTA's rows.
    pub rows_class: usize,
    /// Inclusive lower KV-length bound of the workload bucket.
    pub kv_lo: usize,
    /// Inclusive upper KV-length bound (`usize::MAX` for the open bucket).
    pub kv_hi: usize,
    /// Chosen Q tile.
    pub m: usize,
    /// Chosen KV tile.
    pub n: usize,
}

/// The committed set of autotuned tile choices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileCache {
    /// Format version (bump on schema change).
    pub version: u32,
    /// Tuned entries in generation order (hardware model, rows class, KV
    /// bucket — all ascending).
    pub entries: Vec<TileCacheEntry>,
}

/// The raw committed tile cache file.
pub const COMMITTED_TILE_CACHE_JSON: &str = include_str!("../tile_cache.json");

impl TileCache {
    /// The cache committed at `crates/pat-core/tile_cache.json`, parsed
    /// once. A parse failure yields an empty cache (every lookup then
    /// falls back to the heuristic); the drift ratchet pins the committed
    /// bytes, so that path is unreachable in a healthy checkout.
    pub fn committed() -> &'static TileCache {
        static CACHE: OnceLock<TileCache> = OnceLock::new();
        CACHE.get_or_init(|| {
            serde_json::from_str(COMMITTED_TILE_CACHE_JSON).unwrap_or(TileCache {
                version: 1,
                entries: Vec::new(),
            })
        })
    }

    /// Finds the tuned tile for a device, geometry, Q-row class, and KV
    /// length. `None` when the cell was never tuned.
    pub fn lookup(
        &self,
        gpu: &str,
        head_dim: usize,
        dtype_bytes: usize,
        rows_class: usize,
        kv_len: usize,
    ) -> Option<TileConfig> {
        self.entries
            .iter()
            .find(|e| {
                e.gpu == gpu
                    && e.head_dim == head_dim
                    && e.dtype_bytes == dtype_bytes
                    && e.rows_class == rows_class
                    && e.kv_lo <= kv_len
                    && kv_len <= e.kv_hi
            })
            .map(|e| TileConfig::new(e.m, e.n))
    }

    /// Canonical JSON encoding (the exact bytes committed on disk).
    pub fn to_canonical_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).unwrap_or_default();
        s.push('\n');
        s
    }
}

/// KV-length buckets quantizing the workload signature. The boundaries
/// reuse the §5.2 profile points (so on A100 the tuned cache and the
/// heuristic tree partition KV space identically — the pinning tests rely
/// on it); the *choice inside each bucket* is what the tuner learns per
/// device.
pub const KV_BUCKETS: [(usize, usize); 4] = [(0, 95), (96, 191), (192, 767), (768, usize::MAX)];

/// Head geometry the cache is tuned for: the llama3-8B decode shard
/// (32 query heads / 8 KV heads / head_dim 128, fp16) every fig-suite
/// serving bench runs. Other geometries miss the cache and fall back to
/// the heuristic.
fn tuned_head() -> HeadConfig {
    HeadConfig::new(32, 8, 128)
}

/// Bytes per KV element the cache is tuned for (fp16).
const TUNED_DTYPE_BYTES: usize = 2;

/// CTAs per tuning batch. Matches the offline profiler's regime
/// ([`crate::derive_n_rule`] sweeps 192-CTA batches): the device must be
/// oversubscribed, because the concurrency pressure that separates small
/// from large KV tiles only exists past one wave. Underfilled batches
/// degenerate to "largest n always wins" (each CTA's rate cap scales with
/// `n` and nothing contends for bandwidth).
const TUNE_CTAS: usize = 192;

/// Open-ended KV bucket is sampled up to this length.
const TUNE_KV_SAMPLE_MAX: usize = 4096;

/// One (device, feasible suite, rows class, KV bucket) tuning cell.
type TuneCell = (GpuSpec, Vec<TileConfig>, usize, (usize, usize));

/// Regenerates the full tile cache (the `tune` binary's payload):
/// for every curated hardware model, every feasible Q-row class, and
/// every KV bucket, exhaustively evaluates the constraint-feasible
/// `(m, n)` candidates on a bucket-spanning synthetic decode batch and
/// keeps the argmin. Deterministic — fixed grid, fixed iteration order,
/// no entropy — and thread-count invariant: cells are distributed with
/// [`sim_core::par::ordered_map`], whose output order is the input order
/// for every worker count.
pub fn generate_tile_cache() -> TileCache {
    let head = tuned_head();
    // Cells in fixed (hardware model, rows class, KV bucket) order.
    let mut cells: Vec<TuneCell> = Vec::new();
    for model in GpuModel::all() {
        let spec = model.spec();
        let solver = TileSolver::new(spec.clone(), head.head_dim(), TUNED_DTYPE_BYTES);
        let feasible = solver.feasible_tiles();
        let mut classes: Vec<usize> = feasible.iter().map(|t| t.m).collect();
        classes.sort_unstable();
        classes.dedup();
        for rows_class in classes {
            for bucket in KV_BUCKETS {
                cells.push((spec.clone(), feasible.clone(), rows_class, bucket));
            }
        }
    }
    let entries = sim_core::par::ordered_map(&cells, |_, (spec, feasible, rows_class, bucket)| {
        tune_cell(spec, feasible, *rows_class, *bucket)
    });
    TileCache {
        version: 1,
        entries,
    }
}

/// Exhaustively evaluates one (device, rows class, KV bucket) cell.
///
/// The search is **heuristic-anchored**: the incumbent starts as the §5.2
/// decision tree's choice for the cell, and a candidate must beat the
/// incumbent by more than the 1% performance-equivalence band to displace
/// it. Tiles inside the band are exactly what the paper calls
/// performance-equivalent, so deviating on them would trade noise for
/// churn; on A100 — the device the tree was profiled on — every candidate
/// lands inside the band and the tuned cache reproduces the heuristic
/// (pinned by tests), while on hardware the tree has never seen (B200's
/// tight shared-memory budget, H100's pruned suite) genuinely better tiles
/// clear the band and the cache departs.
fn tune_cell(
    spec: &GpuSpec,
    feasible: &[TileConfig],
    rows_class: usize,
    (kv_lo, kv_hi): (usize, usize),
) -> TileCacheEntry {
    let head = tuned_head();
    let batch = bucket_batch(head, rows_class, kv_lo, kv_hi);
    // Each candidate is ranked by forcing it through the *real* planning
    // pipeline (PAT-fixed: `multi_tile: false`), so the oracle sees exactly
    // the plan shape the policy's choice will run in — packing, row-limit
    // chunking, longest-KV-first dispatch, stream assignment, L2 affinity.
    // Hand-built uniform plans mis-rank tiles whose relative cost depends
    // on dispatch order.
    let evaluate = |tile: TileConfig| -> Option<f64> {
        let backend = PatBackend::with_config(PatConfig {
            multi_tile: false,
            fixed_tile: tile,
            ..PatConfig::default()
        });
        let packs = backend.pack(&batch);
        let plan = backend.try_finish_plan(&batch, packs, spec).ok()?;
        simulate_plan(&batch, &plan, spec)
            .ok()
            .map(|r| r.forward_ns)
    };
    // The heuristic anchor. `preferred_n` is constant across a bucket
    // (KV_BUCKETS aligns with the tree's thresholds), so probing at the
    // lower bound represents the whole cell. Selection over a non-empty
    // feasible suite with rows == a feasible m cannot fail; if it somehow
    // does, fall back to a pure argmin from the first candidate.
    let anchor = TileSelector::new(feasible.to_vec())
        .ok()
        .and_then(|s| s.select(rows_class, kv_lo).ok());
    let mut best: Option<(TileConfig, f64)> = anchor.and_then(|t| evaluate(t).map(|ns| (t, ns)));
    // Candidates in (m, n) order: every feasible tile that can hold the
    // row class without splitting.
    for &tile in feasible.iter().filter(|t| t.m >= rows_class) {
        if best.is_some_and(|(b, _)| b == tile) {
            continue;
        }
        let Some(ns) = evaluate(tile) else {
            continue;
        };
        let better = match best {
            None => true,
            // Displacement requires a strict >1% win over the incumbent.
            Some((_, best_ns)) => ns < best_ns * 0.99,
        };
        if better {
            best = Some((tile, ns));
        }
    }
    // Every class has at least one candidate (its own defining tile), and
    // the uniform plans are valid by construction, so `best` is always set.
    let (tile, _) = best.unwrap_or((TileConfig::new(rows_class, rows_class), f64::INFINITY));
    TileCacheEntry {
        gpu: spec.name.clone(),
        head_dim: head.head_dim(),
        dtype_bytes: TUNED_DTYPE_BYTES,
        rows_class,
        kv_lo,
        kv_hi,
        m: tile.m,
        n: tile.n,
    }
}

/// A synthetic decode batch spanning one KV bucket: [`TUNE_CTAS`] CTA
/// groups whose KV lengths ramp linearly across `[kv_lo, kv_hi]` (the open
/// bucket is sampled up to [`TUNE_KV_SAMPLE_MAX`]), each group holding
/// `rows_class / group_size` queries over an identical block list — the
/// shared-KV shape the pack stage emits. Length variance inside the bucket
/// is what separates the candidates: stragglers punish small `n` through
/// the per-CTA rate cap, short rows punish large `n` through exposed
/// padded final-tile compute.
fn bucket_batch(head: HeadConfig, rows_class: usize, kv_lo: usize, kv_hi: usize) -> DecodeBatch {
    let bs = DEFAULT_BLOCK_SIZE;
    let queries_per_cta = (rows_class / head.group_size()).max(1);
    let lo = kv_lo.max(bs);
    let hi = kv_hi.min(TUNE_KV_SAMPLE_MAX).max(lo + 1);
    let tables: Vec<BlockTable> = (0..TUNE_CTAS)
        .flat_map(|c| {
            let len = lo + c * (hi - lo) / (TUNE_CTAS - 1);
            let blocks = len.div_ceil(bs);
            let ids: Vec<BlockId> = (0..usize_to_u32(blocks))
                .map(|i| BlockId(usize_to_u32(c) * 100_000 + i))
                .collect();
            (0..queries_per_cta).map(move |_| BlockTable::new(ids.clone(), len, bs))
        })
        .collect();
    DecodeBatch::new(head, tables, TUNED_DTYPE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::par::set_thread_override;

    #[test]
    fn policy_kind_parse_round_trips() {
        for k in [TilePolicyKind::Heuristic, TilePolicyKind::Autotuned] {
            assert_eq!(TilePolicyKind::parse(k.name()), Some(k));
            assert_eq!(TilePolicyKind::parse(&k.name().to_uppercase()), Some(k));
            assert_eq!(k.policy().name(), k.name());
        }
        assert_eq!(TilePolicyKind::parse("oracle"), None);
        assert_eq!(TilePolicyKind::default(), TilePolicyKind::Heuristic);
    }

    #[test]
    fn kv_buckets_partition_the_heuristic_thresholds() {
        // The buckets must tile KV space without gaps or overlap, and each
        // bucket must map to exactly one heuristic preferred_n.
        let mut next = 0usize;
        for (lo, hi) in KV_BUCKETS {
            assert_eq!(lo, next, "gap before bucket ({lo}, {hi})");
            assert_eq!(
                TileSelector::preferred_n(lo),
                TileSelector::preferred_n(hi.min(1 << 30)),
                "bucket ({lo}, {hi}) straddles a heuristic threshold"
            );
            next = hi.saturating_add(1);
        }
        assert_eq!(KV_BUCKETS[3].1, usize::MAX);
    }

    #[test]
    fn committed_cache_parses_and_covers_every_model_cell() {
        let cache = TileCache::committed();
        assert!(!cache.entries.is_empty(), "committed cache must parse");
        let head = tuned_head();
        for model in GpuModel::all() {
            let spec = model.spec();
            let solver = TileSolver::new(spec.clone(), head.head_dim(), TUNED_DTYPE_BYTES);
            let feasible = solver.feasible_tiles();
            let mut classes: Vec<usize> = feasible.iter().map(|t| t.m).collect();
            classes.sort_unstable();
            classes.dedup();
            for &rows_class in &classes {
                for (lo, hi) in KV_BUCKETS {
                    let probe = lo.max(1).min(hi);
                    let tile = cache
                        .lookup(
                            &spec.name,
                            head.head_dim(),
                            TUNED_DTYPE_BYTES,
                            rows_class,
                            probe,
                        )
                        .unwrap_or_else(|| {
                            panic!("{}: no entry for class {rows_class} kv {probe}", spec.name)
                        });
                    assert!(
                        feasible.contains(&tile),
                        "{}: committed tile {tile:?} infeasible",
                        spec.name
                    );
                    assert!(tile.m >= rows_class);
                }
            }
        }
    }

    #[test]
    fn committed_cache_matches_regeneration_ratchet() {
        // The drift ratchet: regenerating the cache must reproduce the
        // committed bytes exactly. If this fails, a kernel-simulator or
        // solver change shifted a tile choice — rerun `cargo run --release
        // -p pat-core --bin tune` and review the diff.
        let regenerated = generate_tile_cache().to_canonical_json();
        assert_eq!(
            regenerated, COMMITTED_TILE_CACHE_JSON,
            "tile_cache.json is stale; regenerate with the tune binary"
        );
    }

    #[test]
    fn tune_is_thread_count_invariant() {
        // Byte-identity across two in-process runs at different worker
        // counts (the PAT_SIM_THREADS=1 vs 4 guarantee).
        set_thread_override(Some(1));
        let one = generate_tile_cache().to_canonical_json();
        set_thread_override(Some(4));
        let four = generate_tile_cache().to_canonical_json();
        set_thread_override(None);
        assert_eq!(one, four, "tile cache depends on thread count");
    }

    #[test]
    fn lookup_misses_unknown_cells() {
        let cache = TileCache::committed();
        assert_eq!(cache.lookup("A100-PCIe-40GB", 128, 2, 16, 100), None);
        assert_eq!(
            cache.lookup("A100-SXM4-80GB", 64, 2, 16, 100),
            None,
            "untuned head_dim must miss"
        );
    }

    #[test]
    fn open_bucket_covers_huge_kv() {
        let cache = TileCache::committed();
        let tile = cache.lookup("A100-SXM4-80GB", 128, 2, 16, 1 << 30);
        assert!(tile.is_some(), "open bucket must cover arbitrarily long KV");
    }
}
