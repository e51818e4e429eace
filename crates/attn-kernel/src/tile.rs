//! Tile configurations and their hardware resource footprints (§5.2).
//!
//! A tile configuration `(m, n)` fixes a kernel's Q-tile (query rows) and
//! KV-tile (keys per pipeline stage). It determines:
//!
//! * shared-memory usage: `m·h·b` (Q tile) + `4·n·h·b` (double-buffered K and
//!   V tiles) + `m·h·b'` (fp32 intermediate accumulators), following the
//!   paper's constraint ①;
//! * register usage: an affine model standing in for the paper's offline
//!   compilation + static analysis (`R_thr(m, n)`);
//! * the per-CTA sustainable load rate (`2·n·h·b / L`, constraint ②);
//! * tensor-core work per tile (`4·m·n·h` FLOPs for QKᵀ and PV).

use sim_core::cast::f64_to_usize;
use sim_gpu::{CtaResources, GpuSpec};
use std::fmt;

/// Size in bytes of the fp32 intermediates (`b'` in the paper).
pub const INTERMEDIATE_BYTES: usize = 4;

/// A kernel tile configuration `(m, n)`.
///
/// # Examples
///
/// ```
/// use attn_kernel::TileConfig;
///
/// let tile = TileConfig::new(32, 64);
/// assert_eq!(tile.m, 32);
/// let res = tile.resources(128, 2);
/// assert!(res.smem_bytes > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileConfig {
    /// Q-tile: query rows processed by one CTA (padded if fewer are present).
    pub m: usize,
    /// KV-tile: keys/values loaded per pipeline stage.
    pub n: usize,
}

impl TileConfig {
    /// Creates a tile configuration.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m > 0 && n > 0, "tile dimensions must be positive");
        TileConfig { m, n }
    }

    /// Threads per CTA for this tile: one warp row per 8 query rows, with the
    /// CUTLASS-style minimum of 128 threads and maximum of 256.
    pub fn threads(&self) -> usize {
        if self.m <= 32 {
            128
        } else {
            256
        }
    }

    /// Shared-memory bytes used by one CTA (constraint ① formula): the Q
    /// tile, three KV buffers (resident K and V plus one `cp_async` prefetch
    /// buffer that alternates between them), and fp32 intermediates.
    pub fn smem_bytes(&self, head_dim: usize, dtype_bytes: usize) -> usize {
        let q_tile = self.m * head_dim * dtype_bytes;
        let kv_tiles = 3 * self.n * head_dim * dtype_bytes;
        let intermediates = self.m * head_dim * INTERMEDIATE_BYTES;
        q_tile + kv_tiles + intermediates
    }

    /// Registers per thread. The paper obtains `R_thr(m, n)` by offline
    /// compilation and static analysis (§5.2); we stand in a calibration
    /// table over the Q-tile bucket (dominated by fp32 output accumulators
    /// per thread) plus a small n-dependent addressing term. The table is
    /// tuned so the constraint solver reproduces Fig. 8b's feasible set.
    pub fn regs_per_thread(&self, head_dim: usize) -> usize {
        let bucket = self.m.next_power_of_two().max(16);
        let base = match bucket {
            16 => 72,
            32 => 100,
            64 => 168,
            128 => 258,
            _ => 300,
        };
        // The table is calibrated for head dim 128; scale the accumulator
        // part for other dims.
        let accum_scale = head_dim as f64 / 128.0;
        let overhead = 40.0;
        f64_to_usize((base as f64 - overhead) * accum_scale + overhead) + self.n / 8
    }

    /// Full resource footprint of one CTA running this tile.
    pub fn resources(&self, head_dim: usize, dtype_bytes: usize) -> CtaResources {
        CtaResources {
            smem_bytes: self.smem_bytes(head_dim, dtype_bytes),
            regs_per_thread: self.regs_per_thread(head_dim),
            threads: self.threads(),
        }
    }

    /// Tensor-core FLOPs per KV tile (QKᵀ and PV over padded `m` rows).
    pub fn flops_per_tile(&self, head_dim: usize) -> f64 {
        4.0 * self.m as f64 * self.n as f64 * head_dim as f64
    }

    /// Maximum DRAM load rate one CTA can sustain with this tile, bytes/ns:
    /// its double-buffered in-flight KV data divided by the memory latency
    /// (the quantity behind constraint ②).
    pub fn rate_cap(&self, spec: &GpuSpec, head_dim: usize, dtype_bytes: usize) -> f64 {
        let inflight = (2 * self.n * head_dim * dtype_bytes) as f64;
        (inflight / spec.mem_latency_ns).min(spec.global_bandwidth)
    }

    /// Number of KV tiles needed to cover `kv_len` keys.
    pub fn tiles_for(&self, kv_len: usize) -> usize {
        kv_len.div_ceil(self.n)
    }
}

impl fmt::Display for TileConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.m, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smem_grows_with_both_dimensions() {
        let base = TileConfig::new(16, 16).smem_bytes(128, 2);
        assert!(TileConfig::new(32, 16).smem_bytes(128, 2) > base);
        assert!(TileConfig::new(16, 32).smem_bytes(128, 2) > base);
    }

    #[test]
    fn smem_formula_matches_paper_terms() {
        let t = TileConfig::new(64, 32);
        // 64*128*2 (Q) + 3*32*128*2 (KV buffers) + 64*128*4 (fp32).
        assert_eq!(t.smem_bytes(128, 2), 16384 + 24576 + 32768);
    }

    #[test]
    fn rate_cap_scales_with_n_and_caps_at_bus() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let small = TileConfig::new(16, 16).rate_cap(&spec, 128, 2);
        let large = TileConfig::new(16, 128).rate_cap(&spec, 128, 2);
        assert!(large > small);
        let huge = TileConfig::new(16, 1 << 20).rate_cap(&spec, 128, 2);
        assert_eq!(huge, spec.global_bandwidth);
    }

    #[test]
    fn tiles_round_up() {
        let t = TileConfig::new(16, 128);
        assert_eq!(t.tiles_for(1), 1);
        assert_eq!(t.tiles_for(128), 1);
        assert_eq!(t.tiles_for(129), 2);
        assert_eq!(t.tiles_for(0), 0);
    }

    #[test]
    fn thread_count_steps_at_m_64() {
        assert_eq!(TileConfig::new(16, 64).threads(), 128);
        assert_eq!(TileConfig::new(32, 64).threads(), 128);
        assert_eq!(TileConfig::new(64, 64).threads(), 256);
        assert_eq!(TileConfig::new(128, 64).threads(), 256);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_rejected() {
        let _ = TileConfig::new(0, 16);
    }
}
