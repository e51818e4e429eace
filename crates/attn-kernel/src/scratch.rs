//! Thread-local per-block scratch for the per-step block analyses.
//!
//! Three callers need a map keyed by [`BlockId`] that lives for exactly one
//! call, sized by the batch's block-table footprint (thousands of entries on
//! serving-scale batches): `analyze_traffic` and
//! `DecodeBatch::distinct_kv_bytes` on every step-cache miss, and
//! `batch_timing_fingerprint`, which renames block ids on every priced
//! decode step, hit or miss. Hashing every block id per
//! step dominated the simulated-step profile, so this scratch indexes a
//! dense slot table by the raw id with an *epoch tag*: `clear` is a counter
//! bump, lookups are a bounds check plus a compare, and the allocation is
//! reused for the lifetime of the worker thread. Ids past [`DENSE_LIMIT`]
//! (no real cache manager allocates that many blocks) spill to a hash map
//! so adversarial ids cannot balloon the slot table.
//!
//! Values are exact integers and no operation depends on iteration order,
//! so everything computed through this scratch is bit-identical to the
//! hash-map formulation it replaced.

use crate::fxhash::FxHashMap;
use std::cell::RefCell;

/// Largest id kept in the dense table (8 bytes per slot => ≤ 16 MiB).
const DENSE_LIMIT: u32 = 1 << 21;

/// An epoch-cleared `BlockId -> u32` map.
pub(crate) struct BlockScratch {
    epoch: u32,
    /// `(epoch, value)` per id; a stale epoch reads as absent.
    dense: Vec<(u32, u32)>,
    /// Overflow for ids ≥ [`DENSE_LIMIT`]; cleared per epoch.
    sparse: FxHashMap<u32, u32>,
}

impl BlockScratch {
    fn new() -> Self {
        BlockScratch {
            epoch: 0,
            dense: Vec::new(),
            sparse: FxHashMap::default(),
        }
    }

    /// Forgets every entry (O(1) except once per `u32::MAX` clears).
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale tags would read as live. Start over.
            self.dense.clear();
            self.epoch = 1;
        }
        self.sparse.clear();
    }

    fn dense_slot(&mut self, id: u32) -> &mut (u32, u32) {
        let i = id as usize;
        if i >= self.dense.len() {
            let target = (i + 1).max(self.dense.len() * 2).min(DENSE_LIMIT as usize);
            self.dense.resize(target, (0, 0));
        }
        &mut self.dense[i]
    }

    /// Adds one to the slot for `id`.
    pub fn incr(&mut self, id: u32) {
        if id < DENSE_LIMIT {
            let epoch = self.epoch;
            let slot = self.dense_slot(id);
            if slot.0 == epoch {
                slot.1 += 1;
            } else {
                *slot = (epoch, 1);
            }
        } else {
            *self.sparse.entry(id).or_insert(0) += 1;
        }
    }

    /// The slot's value this epoch (0 when never touched).
    pub fn get(&self, id: u32) -> u32 {
        if id < DENSE_LIMIT {
            match self.dense.get(id as usize) {
                Some(&(e, v)) if e == self.epoch => v,
                _ => 0,
            }
        } else {
            self.sparse.get(&id).copied().unwrap_or(0)
        }
    }

    /// The slot's value this epoch, storing `v` first when the slot is
    /// untouched.
    pub fn get_or_insert(&mut self, id: u32, v: u32) -> u32 {
        if id < DENSE_LIMIT {
            let epoch = self.epoch;
            let slot = self.dense_slot(id);
            if slot.0 != epoch {
                *slot = (epoch, v);
            }
            slot.1
        } else {
            *self.sparse.entry(id).or_insert(v)
        }
    }

    /// Raises the slot for `id` to at least `v`, returning the increase
    /// (`v` for a fresh id, `v - old` for a raise, 0 otherwise). Summing the
    /// returned increases yields the sum of per-id maxima without iterating
    /// the table.
    pub fn raise(&mut self, id: u32, v: u32) -> u32 {
        if id < DENSE_LIMIT {
            let epoch = self.epoch;
            let slot = self.dense_slot(id);
            if slot.0 != epoch {
                *slot = (epoch, v);
                v
            } else if v > slot.1 {
                let delta = v - slot.1;
                slot.1 = v;
                delta
            } else {
                0
            }
        } else {
            let slot = self.sparse.entry(id).or_insert(0);
            let delta = v.saturating_sub(*slot);
            *slot = (*slot).max(v);
            delta
        }
    }
}

/// Runs `f` with this thread's scratch. Do not call re-entrantly (the
/// scratch is a single `RefCell`); callers sequence their uses instead.
pub(crate) fn with_block_scratch<R>(f: impl FnOnce(&mut BlockScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<BlockScratch> = RefCell::new(BlockScratch::new());
    }
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_reset_across_epochs() {
        let mut s = BlockScratch::new();
        s.clear();
        s.incr(3);
        s.incr(3);
        s.incr(7);
        assert_eq!(s.get(3), 2);
        assert_eq!(s.get(7), 1);
        assert_eq!(s.get(4), 0);
        s.clear();
        assert_eq!(s.get(3), 0);
        s.incr(3);
        assert_eq!(s.get(3), 1);
    }

    #[test]
    fn raise_returns_the_increase() {
        let mut s = BlockScratch::new();
        s.clear();
        assert_eq!(s.raise(5, 16), 16);
        assert_eq!(s.raise(5, 12), 0);
        assert_eq!(s.raise(5, 20), 4);
        assert_eq!(s.get(5), 20);
    }

    #[test]
    fn get_or_insert_keeps_the_first_value() {
        let mut s = BlockScratch::new();
        s.clear();
        assert_eq!(s.get_or_insert(4, 1), 1);
        assert_eq!(s.get_or_insert(4, 2), 1);
        assert_eq!(s.get_or_insert(u32::MAX, 3), 3);
        assert_eq!(s.get_or_insert(u32::MAX, 5), 3);
        s.clear();
        assert_eq!(s.get_or_insert(4, 6), 6);
    }

    #[test]
    fn huge_ids_spill_to_the_sparse_table() {
        let mut s = BlockScratch::new();
        s.clear();
        let big = u32::MAX - 1;
        s.incr(big);
        s.incr(big);
        assert_eq!(s.get(big), 2);
        assert_eq!(s.raise(u32::MAX, 9), 9);
        assert_eq!(s.get(u32::MAX), 9);
        // The dense table never grew to cover them.
        assert!(s.dense.len() <= DENSE_LIMIT as usize);
        s.clear();
        assert_eq!(s.get(big), 0);
    }

    #[test]
    fn epoch_wrap_drops_stale_entries() {
        let mut s = BlockScratch::new();
        s.clear();
        s.incr(1);
        s.epoch = u32::MAX; // simulate 4B clears
        s.clear();
        assert_eq!(s.epoch, 1);
        assert_eq!(s.get(1), 0);
    }
}
