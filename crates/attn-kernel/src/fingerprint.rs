//! Batch structure fingerprints — the keys behind the two caching layers.
//!
//! Both PAT's lazy-update pack cache (§5.1, `pat_core::LazyPat`) and the
//! serving simulator's step-simulation cache (`serving::StepSimCache`) key
//! on *block-granularity structure*: the set of block tables, not the exact
//! token counts. A decode step grows every active request by one token, so
//! exact-token keys would never repeat; block structure, by contrast, is
//! stable for `block_size` consecutive steps per request. Two flavours:
//!
//! * [`batch_structure_fingerprint`] hashes **raw** block ids. This is the
//!   lazy-update key: cached packs embed real
//!   [`BlockId`](kv_cache::BlockId)s, so a hit must mean the physical
//!   blocks are unchanged.
//! * [`batch_timing_fingerprint`] hashes **canonicalized** block ids
//!   (renamed by first occurrence) plus the GPU spec identity. Simulated
//!   timing is invariant under any block-id renaming that preserves the
//!   sharing pattern — only *which* slices coincide matters, never the
//!   numeric ids — so the timing cache also hits across structurally
//!   isomorphic batches (e.g. the same requests re-admitted after a
//!   preemption with freshly allocated blocks).

use crate::batch::DecodeBatch;
use crate::fxhash::FxHasher;
use sim_gpu::GpuSpec;
use std::hash::{Hash, Hasher};

/// Separator mixed between per-request block lists so that moving a block
/// across a table boundary changes the hash.
const TABLE_SEP: u16 = 0xB10C;

fn hash_common(batch: &DecodeBatch, h: &mut FxHasher) {
    let head = batch.head();
    head.num_heads().hash(h);
    head.num_kv_heads().hash(h);
    head.head_dim().hash(h);
    batch.dtype_bytes().hash(h);
    batch.block_size().hash(h);
    batch.num_queries().hash(h);
}

/// Raw-id structure fingerprint of a decode batch: head configuration,
/// dtype width, and every per-request block-id list. Token counts within
/// the last (possibly partial) block are deliberately excluded — growing a
/// request by one token does not change its structure until a new block is
/// appended. This is the lazy-update cache key of §5.1.
///
/// ```
/// use attn_kernel::{batch_structure_fingerprint, DecodeBatch};
/// use attn_math::HeadConfig;
/// use kv_cache::{BlockId, BlockTable};
///
/// let head = HeadConfig::new(8, 4, 32);
/// let a = DecodeBatch::new(head, vec![BlockTable::new(vec![BlockId(0)], 10, 16)], 2);
/// let b = DecodeBatch::new(head, vec![BlockTable::new(vec![BlockId(0)], 11, 16)], 2);
/// let c = DecodeBatch::new(head, vec![BlockTable::new(vec![BlockId(7)], 10, 16)], 2);
/// assert_eq!(batch_structure_fingerprint(&a), batch_structure_fingerprint(&b));
/// assert_ne!(batch_structure_fingerprint(&a), batch_structure_fingerprint(&c));
/// ```
pub fn batch_structure_fingerprint(batch: &DecodeBatch) -> u64 {
    let mut h = FxHasher::default();
    hash_common(batch, &mut h);
    for t in batch.tables() {
        t.blocks().hash(&mut h);
        TABLE_SEP.hash(&mut h);
    }
    h.finish()
}

/// Canonical-id timing fingerprint: like [`batch_structure_fingerprint`]
/// but with block ids renamed to dense indices in order of first occurrence
/// across the batch, and the GPU spec's name mixed in. Two batches receive
/// the same fingerprint exactly when they are structurally isomorphic — the
/// same head/dtype shape and the same block-sharing pattern — which is the
/// precise invariance class of [`crate::simulate_plan`]'s timing output at
/// block granularity.
///
/// ```
/// use attn_kernel::{batch_timing_fingerprint, DecodeBatch};
/// use attn_math::HeadConfig;
/// use kv_cache::{BlockId, BlockTable};
/// use sim_gpu::GpuSpec;
///
/// let head = HeadConfig::new(8, 4, 32);
/// let spec = GpuSpec::a100_sxm4_80gb();
/// // Same sharing pattern under different physical ids: identical key.
/// let a = DecodeBatch::new(head, vec![
///     BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
///     BlockTable::new(vec![BlockId(0), BlockId(2)], 32, 16),
/// ], 2);
/// let b = DecodeBatch::new(head, vec![
///     BlockTable::new(vec![BlockId(90), BlockId(4)], 32, 16),
///     BlockTable::new(vec![BlockId(90), BlockId(17)], 32, 16),
/// ], 2);
/// // Different sharing pattern: different key.
/// let c = DecodeBatch::new(head, vec![
///     BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
///     BlockTable::new(vec![BlockId(3), BlockId(2)], 32, 16),
/// ], 2);
/// assert_eq!(batch_timing_fingerprint(&a, &spec), batch_timing_fingerprint(&b, &spec));
/// assert_ne!(batch_timing_fingerprint(&a, &spec), batch_timing_fingerprint(&c, &spec));
/// ```
pub fn batch_timing_fingerprint(batch: &DecodeBatch, spec: &GpuSpec) -> u64 {
    let mut h = FxHasher::default();
    hash_common(batch, &mut h);
    spec.name.hash(&mut h);
    // Dense renaming by first occurrence in the thread's block scratch: a
    // block's slot holds its canonical id + 1, so an untouched slot (0)
    // means "first occurrence".
    crate::scratch::with_block_scratch(|canon| {
        canon.clear();
        let mut next: u32 = 0;
        for t in batch.tables() {
            for &b in t.blocks() {
                let slot = canon.get_or_insert(b.0, next + 1);
                if slot > next {
                    next = slot;
                }
                (slot - 1).hash(&mut h);
            }
            TABLE_SEP.hash(&mut h);
        }
    });
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};

    fn batch(tables: Vec<BlockTable>) -> DecodeBatch {
        DecodeBatch::new(HeadConfig::new(8, 4, 32), tables, 2)
    }

    #[test]
    fn structure_key_tracks_raw_ids_timing_key_does_not() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let a = batch(vec![BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16)]);
        let b = batch(vec![BlockTable::new(vec![BlockId(5), BlockId(9)], 32, 16)]);
        assert_ne!(
            batch_structure_fingerprint(&a),
            batch_structure_fingerprint(&b)
        );
        assert_eq!(
            batch_timing_fingerprint(&a, &spec),
            batch_timing_fingerprint(&b, &spec)
        );
        // Ids past the block scratch's dense table rename the same way.
        let huge = batch(vec![BlockTable::new(
            vec![BlockId(u32::MAX), BlockId(1 << 30)],
            32,
            16,
        )]);
        assert_eq!(
            batch_timing_fingerprint(&a, &spec),
            batch_timing_fingerprint(&huge, &spec)
        );
    }

    #[test]
    fn token_growth_within_last_block_keeps_both_keys() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let a = batch(vec![BlockTable::new(vec![BlockId(0)], 3, 16)]);
        let b = batch(vec![BlockTable::new(vec![BlockId(0)], 4, 16)]);
        assert_eq!(
            batch_structure_fingerprint(&a),
            batch_structure_fingerprint(&b)
        );
        assert_eq!(
            batch_timing_fingerprint(&a, &spec),
            batch_timing_fingerprint(&b, &spec)
        );
    }

    #[test]
    fn new_block_changes_both_keys() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let a = batch(vec![BlockTable::new(vec![BlockId(0)], 16, 16)]);
        let b = batch(vec![BlockTable::new(vec![BlockId(0), BlockId(1)], 17, 16)]);
        assert_ne!(
            batch_structure_fingerprint(&a),
            batch_structure_fingerprint(&b)
        );
        assert_ne!(
            batch_timing_fingerprint(&a, &spec),
            batch_timing_fingerprint(&b, &spec)
        );
    }

    #[test]
    fn timing_key_distinguishes_gpu_specs() {
        let a = batch(vec![BlockTable::new(vec![BlockId(0)], 16, 16)]);
        assert_ne!(
            batch_timing_fingerprint(&a, &GpuSpec::a100_sxm4_80gb()),
            batch_timing_fingerprint(&a, &GpuSpec::h100_sxm5_80gb())
        );
    }

    #[test]
    fn table_boundaries_matter() {
        let spec = GpuSpec::a100_sxm4_80gb();
        // [0,1] + [2] vs [0] + [1,2]: same flat id sequence, different split.
        let a = batch(vec![
            BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
            BlockTable::new(vec![BlockId(2)], 16, 16),
        ]);
        let b = batch(vec![
            BlockTable::new(vec![BlockId(0)], 16, 16),
            BlockTable::new(vec![BlockId(1), BlockId(2)], 32, 16),
        ]);
        assert_ne!(
            batch_structure_fingerprint(&a),
            batch_structure_fingerprint(&b)
        );
        assert_ne!(
            batch_timing_fingerprint(&a, &spec),
            batch_timing_fingerprint(&b, &spec)
        );
    }
}
