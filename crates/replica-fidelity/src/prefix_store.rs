//! Block-granularity prefix-warmth tracking for analytical replicas.
//!
//! An analytical replica does not maintain a real paged KV cache, but the
//! fleet still needs its prefix-warmth behavior: routers probe overlap,
//! prefills get a discount for resident prefixes, and the KV transfer plane
//! imports prefixes into it. [`PrefixStore`] mirrors the real
//! [`kv_cache::CacheManager`] at exactly the granularity that matters for
//! those questions — the *chain hash* of each leading full block of a
//! token sequence — without holding block tables or token payloads.
//!
//! Blocks are named by the same chain hash the real cache uses
//! ([`kv_cache::PrefixProbe`]), so one probe answers for both.
//!
//! Residency is bounded (`capacity` blocks) with deterministic
//! sequence-number LRU eviction, so a store never grows past a few
//! megabytes even under millions of requests. Residency lookups go through
//! a hash map that is never iterated; LRU order lives in a `BTreeSet`, so
//! behavior is a pure function of the call sequence.

use attn_kernel::fxhash::FxHashMap;
use kv_cache::{IngestReport, PrefixProbe, Token};
use std::collections::BTreeSet;

/// Bounded, deterministic store of resident KV block-chain hashes.
#[derive(Debug, Clone)]
pub struct PrefixStore {
    /// Chain hash of a resident full block → last-used sequence number.
    /// Only looked up, inserted into and removed from (rule R2).
    by_hash: FxHashMap<u64, u64>,
    /// LRU index: (last-used sequence number, chain hash).
    by_seq: BTreeSet<(u64, u64)>,
    capacity: usize,
    block_size: usize,
    seq: u64,
    hit_tokens: u64,
    miss_tokens: u64,
}

impl PrefixStore {
    /// A store tracking at most `capacity` blocks of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(capacity: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        PrefixStore {
            by_hash: FxHashMap::default(),
            by_seq: BTreeSet::new(),
            capacity: capacity.max(1),
            block_size,
            seq: 0,
            hit_tokens: 0,
            miss_tokens: 0,
        }
    }

    /// The block size in tokens.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Blocks currently tracked as resident.
    pub fn len(&self) -> usize {
        self.by_hash.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.by_hash.is_empty()
    }

    /// Token-level `(hit, miss)` counters, mirroring
    /// [`kv_cache::CacheStats`] semantics (decode appends count as misses).
    pub fn hit_miss_tokens(&self) -> (u64, u64) {
        (self.hit_tokens, self.miss_tokens)
    }

    /// Leading tokens of the probed slice that are resident, at block
    /// granularity. Read-only: does not touch recency (mirroring the
    /// read-only probe contract of [`kv_cache::CacheManager::prefix_overlap`]).
    ///
    /// # Panics
    ///
    /// Panics if the probe's block size is not this store's.
    pub fn overlap(&self, probe: &mut PrefixProbe<'_>) -> usize {
        assert_eq!(
            probe.block_size(),
            self.block_size,
            "probe block size differs from the store's"
        );
        probe.matched_tokens(|hash| self.by_hash.contains_key(&hash))
    }

    /// Marks one chain hash resident (or refreshes its recency), evicting
    /// the least recently used block when full.
    fn touch(&mut self, hash: u64) -> bool {
        self.seq += 1;
        if let Some(seq) = self.by_hash.get_mut(&hash) {
            self.by_seq.remove(&(*seq, hash));
            *seq = self.seq;
            self.by_seq.insert((self.seq, hash));
            return true;
        }
        if self.by_hash.len() >= self.capacity {
            if let Some(&(victim_seq, victim_hash)) = self.by_seq.iter().next() {
                self.by_seq.remove(&(victim_seq, victim_hash));
                self.by_hash.remove(&victim_hash);
            }
        }
        self.by_hash.insert(hash, self.seq);
        self.by_seq.insert((self.seq, hash));
        false
    }

    /// Records a prefill of `tokens`: every leading full block becomes
    /// resident, and the call returns how many leading tokens were already
    /// resident (the prefill compute discount). Counts hit/miss tokens like
    /// a real cache insert (the partial tail block is always a miss).
    pub fn insert_sequence(&mut self, tokens: &[Token]) -> usize {
        let mut covered = 0usize;
        let mut prefix_intact = true;
        for &hash in PrefixProbe::new(tokens, self.block_size).all_hashes() {
            let was_resident = self.touch(hash);
            if was_resident && prefix_intact {
                covered += self.block_size;
            } else {
                prefix_intact = false;
            }
        }
        let covered = covered.min(tokens.len());
        self.hit_tokens += covered as u64;
        self.miss_tokens += (tokens.len() - covered) as u64;
        covered
    }

    /// Counts `n` decode-appended tokens (always misses, as in
    /// [`kv_cache::CacheStats`]).
    pub fn note_decode_tokens(&mut self, n: u64) {
        self.miss_tokens += n;
    }

    /// Imports the full-block prefix of `tokens` as if streamed from a
    /// donor replica, without counting hits or misses. Returns the same
    /// accounting as [`kv_cache::CacheManager::ingest_prefix`].
    pub fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport {
        let mut covered_blocks = 0usize;
        let mut imported_blocks = 0usize;
        for &hash in PrefixProbe::new(tokens, self.block_size).all_hashes() {
            if !self.touch(hash) {
                imported_blocks += 1;
            }
            covered_blocks += 1;
        }
        IngestReport {
            covered_tokens: covered_blocks * self.block_size,
            imported_tokens: imported_blocks * self.block_size,
            imported_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(range: std::ops::Range<u32>) -> Vec<Token> {
        range.collect()
    }

    fn overlap(s: &PrefixStore, tokens: &[Token]) -> usize {
        s.overlap(&mut PrefixProbe::new(tokens, s.block_size()))
    }

    #[test]
    fn overlap_grows_with_inserts_at_block_granularity() {
        let mut s = PrefixStore::new(1024, 16);
        assert_eq!(overlap(&s, &toks(0..40)), 0);
        let covered = s.insert_sequence(&toks(0..40));
        assert_eq!(covered, 0);
        // Two full blocks resident; the 8-token tail is not.
        assert_eq!(overlap(&s, &toks(0..40)), 32);
        assert_eq!(overlap(&s, &toks(0..32)), 32);
        // A diverging second block stops the chain after one block.
        let mut diverged = toks(0..40);
        diverged[20] = 9999;
        assert_eq!(overlap(&s, &diverged), 16);
    }

    #[test]
    #[should_panic(expected = "probe block size differs")]
    fn probing_at_another_block_size_is_a_caller_bug() {
        let s = PrefixStore::new(1024, 16);
        s.overlap(&mut PrefixProbe::new(&toks(0..64), 32));
    }

    #[test]
    fn reinsert_counts_hits() {
        let mut s = PrefixStore::new(1024, 16);
        s.insert_sequence(&toks(0..64));
        let covered = s.insert_sequence(&toks(0..64));
        assert_eq!(covered, 64);
        let (hit, miss) = s.hit_miss_tokens();
        assert_eq!((hit, miss), (64, 64));
    }

    #[test]
    fn lru_eviction_is_bounded_and_ordered() {
        let mut s = PrefixStore::new(2, 16);
        s.insert_sequence(&toks(0..16));
        s.insert_sequence(&toks(100..116));
        assert_eq!(s.len(), 2);
        // Refresh the first, then insert a third: the second is evicted.
        assert_eq!(overlap(&s, &toks(0..16)), 16);
        s.insert_sequence(&toks(0..16));
        s.insert_sequence(&toks(200..216));
        assert_eq!(s.len(), 2);
        assert_eq!(overlap(&s, &toks(0..16)), 16);
        assert_eq!(overlap(&s, &toks(100..116)), 0);
        assert_eq!(overlap(&s, &toks(200..216)), 16);
    }

    #[test]
    fn ingest_reports_imported_and_covered() {
        let mut s = PrefixStore::new(1024, 16);
        let r = s.ingest_prefix(&toks(0..40));
        assert_eq!(r.covered_tokens, 32);
        assert_eq!(r.imported_tokens, 32);
        assert_eq!(r.imported_blocks, 2);
        // Second ingest of the same prefix imports nothing new.
        let r2 = s.ingest_prefix(&toks(0..40));
        assert_eq!(r2.covered_tokens, 32);
        assert_eq!(r2.imported_tokens, 0);
        // Ingested prefixes serve prefill overlap.
        assert_eq!(overlap(&s, &toks(0..40)), 32);
    }
}
