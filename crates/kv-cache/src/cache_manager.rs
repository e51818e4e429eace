//! vLLM/SGLang-style prefix-cache manager (§3.1).
//!
//! Maps content-identical logical prefixes to a single physical block via
//! chained block hashing: a block's identity is `hash(parent_hash, tokens)`
//! ([`PrefixProbe`] computes it).
//! Requests whose token prefixes match reuse physical blocks (refcounted); the
//! cache itself keeps a reference so recently used prefixes survive request
//! departure until evicted under memory pressure.
//!
//! Note the paper's point (§3.1): this reuse reduces *memory footprint*, not
//! *global memory accesses* — the attention kernel still re-loads shared
//! blocks per query unless it is prefix-aware.

use crate::{AllocError, BlockAllocator, BlockId, BlockTable, PrefixProbe};
use std::collections::{BTreeMap, BTreeSet};

/// Token id type used throughout the reproduction.
pub type Token = u32;

/// Cumulative prefix-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Full blocks served from the cache.
    pub hit_blocks: u64,
    /// Full blocks newly allocated.
    pub miss_blocks: u64,
    /// Tokens covered by cache hits.
    pub hit_tokens: u64,
    /// Tokens newly written (misses + partial tails + decode appends).
    pub miss_tokens: u64,
    /// Blocks evicted under memory pressure.
    pub evicted_blocks: u64,
    /// Tokens made resident by KV import ([`CacheManager::ingest_prefix`])
    /// rather than computed locally. Not counted as hits or misses.
    pub imported_tokens: u64,
}

/// Outcome of one [`CacheManager::ingest_prefix`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Leading tokens now cache-resident (imported + already present).
    pub covered_tokens: usize,
    /// Tokens newly imported by this call (the bytes actually on the wire).
    pub imported_tokens: usize,
    /// Blocks newly imported by this call.
    pub imported_blocks: usize,
}

impl CacheStats {
    /// Token-level cache hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hit_tokens + self.miss_tokens;
        if total == 0 {
            0.0
        } else {
            self.hit_tokens as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct CachedBlock {
    block: BlockId,
    last_use: u64,
}

/// Prefix-reusing KV cache manager.
///
/// # Examples
///
/// ```
/// use kv_cache::CacheManager;
///
/// let mut cache = CacheManager::new(1024, 16);
/// let system_prompt: Vec<u32> = (0..64).collect();
/// let t1 = cache.insert_sequence(&system_prompt)?;
/// let t2 = cache.insert_sequence(&system_prompt)?;
/// // Identical prefixes map to identical physical blocks.
/// assert_eq!(t1.blocks(), t2.blocks());
/// assert!(cache.stats().hit_rate() > 0.0);
/// # Ok::<(), kv_cache::AllocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CacheManager {
    allocator: BlockAllocator,
    block_size: usize,
    // Ordered containers, not HashMaps: `resident_hashes` enumerates
    // `by_hash`, and the eviction order must not depend on a hasher (rule
    // R2, DESIGN.md §2b).
    by_hash: BTreeMap<u64, CachedBlock>,
    /// `(last_use, hash)` of exactly the cached blocks whose refcount is 1
    /// (held by the cache alone). The first entry is the LRU victim, ties to
    /// the smaller hash; the length is the evictable count.
    evictable: BTreeSet<(u64, u64)>,
    /// The chain hash each block id was last cached under, indexed by id
    /// and grown with the ids cached. A slot goes stale when its block
    /// leaves the cache; `by_hash` confirms it before use.
    hash_of: Vec<u64>,
    stats: CacheStats,
    clock: u64,
}

impl CacheManager {
    /// Creates a manager over a pool of `capacity_blocks` blocks of
    /// `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(capacity_blocks: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        CacheManager {
            allocator: BlockAllocator::new(capacity_blocks),
            block_size,
            by_hash: BTreeMap::new(),
            evictable: BTreeSet::new(),
            hash_of: Vec::new(),
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    /// The block size in tokens.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The underlying allocator (for capacity queries).
    pub fn allocator(&self) -> &BlockAllocator {
        &self.allocator
    }

    /// Cached blocks held only by the cache itself (evictable on demand).
    pub fn evictable_blocks(&self) -> usize {
        self.evictable.len()
    }

    /// Blocks obtainable right now: free plus evictable.
    pub fn available_blocks(&self) -> usize {
        self.allocator.free_blocks() + self.evictable_blocks()
    }

    /// Read-only probe: how many leading tokens of the probed slice would
    /// be served from the cache if it were inserted right now (resident
    /// leading full blocks × block size).
    ///
    /// Only looks up the probe's chain hashes, without bumping recency or
    /// statistics, so routers can repeatedly probe live replica caches
    /// without perturbing LRU eviction order. One probe can be shared by
    /// every cache a router asks: each block is hashed once.
    ///
    /// # Panics
    ///
    /// Panics if the probe's block size is not this cache's.
    pub fn prefix_overlap(&self, probe: &mut PrefixProbe<'_>) -> usize {
        assert_eq!(
            probe.block_size(),
            self.block_size,
            "probe block size differs from the cache's"
        );
        probe.matched_tokens(|h| self.by_hash.contains_key(&h))
    }

    /// [`CacheManager::prefix_overlap`] of a fresh probe of `tokens`.
    pub fn prefix_overlap_tokens(&self, tokens: &[Token]) -> usize {
        self.prefix_overlap(&mut PrefixProbe::new(tokens, self.block_size))
    }

    /// Export-side probe: the physical blocks a donor would stream for the
    /// cache-resident prefix of `tokens`, in prefix order. Like
    /// [`CacheManager::prefix_overlap`] this is read-only — recency,
    /// refcounts and statistics are untouched.
    pub fn resident_prefix_blocks(&self, tokens: &[Token]) -> Vec<BlockId> {
        let mut blocks = Vec::new();
        PrefixProbe::new(tokens, self.block_size).matched_tokens(|h| match self.by_hash.get(&h) {
            Some(cached) => {
                blocks.push(cached.block);
                true
            }
            None => false,
        });
        blocks
    }

    /// Import side of KV migration: makes the full-block prefix of `tokens`
    /// cache-resident *without* computing it, as if the blocks' contents had
    /// arrived over the wire from a donor replica.
    ///
    /// Already-resident blocks are refreshed, not re-imported, so a block is
    /// never both migrated and recomputed. Newly imported blocks are held by
    /// the cache alone (evictable under pressure, like any warm prefix).
    /// Allocation failure stops the import at the longest prefix that fit;
    /// the report says how far it got. Hit/miss statistics are *not* touched
    /// — imported tokens are accounted separately so prefill-discount
    /// accounting stays honest.
    pub fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport {
        let mut report = IngestReport::default();
        for &h in PrefixProbe::new(tokens, self.block_size).all_hashes() {
            self.clock += 1;
            if let Some(cached) = self.by_hash.get_mut(&h) {
                if self.evictable.remove(&(cached.last_use, h)) {
                    self.evictable.insert((self.clock, h));
                }
                cached.last_use = self.clock;
            } else {
                let Ok(block) = self.allocate_with_eviction() else {
                    break;
                };
                self.cache_block(h, block);
                // Held by the cache alone.
                self.evictable.insert((self.clock, h));
                self.stats.imported_tokens += self.block_size as u64;
                report.imported_tokens += self.block_size;
                report.imported_blocks += 1;
            }
            report.covered_tokens += self.block_size;
        }
        report
    }

    /// Chain hashes of every cache-resident shareable block, in ascending
    /// hash order (deterministic). Two replicas holding the same hash store
    /// the same KV content twice — the basis of the cluster's cross-replica
    /// duplication metric.
    pub fn resident_hashes(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_hash.keys().copied()
    }

    /// Admits a full sequence (a request's prompt), reusing cached prefix
    /// blocks where token content matches.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfBlocks`] if allocation fails even after
    /// evicting every unreferenced cached block. A failed insert leaves no
    /// trace of the request: it holds no block, the cache entries it
    /// created are gone, and the hit/miss counters are as before. Blocks it
    /// evicted stay evicted (and counted); reused blocks keep their
    /// refreshed recency.
    pub fn insert_sequence(&mut self, tokens: &[Token]) -> Result<BlockTable, AllocError> {
        let stats = self.stats;
        let mut table = BlockTable::empty(self.block_size);
        let mut created = Vec::new();
        match self.place_blocks(tokens, &mut table, &mut created) {
            Ok(()) => Ok(table),
            Err(e) => {
                // Cannot fail: this call holds a reference on every block in
                // `table`, and the cache one on every block it created.
                let _ = self.free_sequence(&table);
                for hash in created {
                    if let Some(cached) = self.by_hash.remove(&hash) {
                        self.evictable.remove(&(cached.last_use, hash));
                        let _ = self.allocator.release(cached.block);
                    }
                }
                self.stats = CacheStats {
                    evicted_blocks: self.stats.evicted_blocks,
                    ..stats
                };
                Err(e)
            }
        }
    }

    /// The body of [`CacheManager::insert_sequence`]: pushes each block of
    /// `tokens` onto `table` and records in `created` the hash of every
    /// cache entry it registers, so a failure can be rolled back.
    fn place_blocks(
        &mut self,
        tokens: &[Token],
        table: &mut BlockTable,
        created: &mut Vec<u64>,
    ) -> Result<(), AllocError> {
        let mut probe = PrefixProbe::new(tokens, self.block_size);
        for (b, chunk) in tokens.chunks(self.block_size).enumerate() {
            let take = chunk.len();
            if let Some(h) = probe.block_hash(b) {
                self.clock += 1;
                if let Some(cached) = self.by_hash.get_mut(&h) {
                    // The request's reference makes the block unevictable.
                    self.evictable.remove(&(cached.last_use, h));
                    cached.last_use = self.clock;
                    let block = cached.block;
                    self.allocator.retain(block)?;
                    table.push_block(block, take);
                    self.stats.hit_blocks += 1;
                    self.stats.hit_tokens += take as u64;
                } else {
                    let block = self.allocate_with_eviction()?;
                    self.cache_block(h, block);
                    created.push(h);
                    // The cache holds one reference; the request another.
                    self.allocator.retain(block)?;
                    table.push_block(block, take);
                    self.stats.miss_blocks += 1;
                    self.stats.miss_tokens += take as u64;
                }
            } else {
                // Partial tail: never shared.
                let block = self.allocate_with_eviction()?;
                table.push_block(block, take);
                self.stats.miss_tokens += take as u64;
            }
        }
        Ok(())
    }

    /// Appends one decode token to a request's table, allocating a fresh
    /// block when the last block is full. Decode-time blocks are not shared.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfBlocks`] on pool exhaustion.
    pub fn append_token(&mut self, table: &mut BlockTable) -> Result<(), AllocError> {
        if table.num_tokens() == table.blocks().len() * self.block_size {
            let block = self.allocate_with_eviction()?;
            table.push_block(block, 1);
        } else {
            table.extend_last_block(1);
        }
        self.stats.miss_tokens += 1;
        Ok(())
    }

    /// Releases all blocks of a departing request.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] if the table references freed
    /// blocks (a caller bug).
    pub fn free_sequence(&mut self, table: &BlockTable) -> Result<(), AllocError> {
        for &block in table.blocks() {
            self.allocator.release(block)?;
            // A block only the cache still references stays resident for
            // future reuse until evicted. Partial and decode blocks are
            // never shared, so they drop to 0 and are gone.
            if self.allocator.refcount(block) == 1 {
                let Some(&h) = self.hash_of.get(block.0 as usize) else {
                    continue;
                };
                if let Some(cached) = self.by_hash.get(&h).filter(|c| c.block == block) {
                    self.evictable.insert((cached.last_use, h));
                }
            }
        }
        Ok(())
    }

    /// Registers `block` as the cache entry for chain hash `h`, stamped now.
    fn cache_block(&mut self, h: u64, block: BlockId) {
        self.by_hash.insert(
            h,
            CachedBlock {
                block,
                last_use: self.clock,
            },
        );
        let slot = block.0 as usize;
        if slot >= self.hash_of.len() {
            self.hash_of.resize(slot + 1, 0);
        }
        self.hash_of[slot] = h;
    }

    fn allocate_with_eviction(&mut self) -> Result<BlockId, AllocError> {
        loop {
            match self.allocator.allocate() {
                Ok(block) => return Ok(block),
                Err(AllocError::OutOfBlocks) => {
                    if !self.evict_one()? {
                        return Err(AllocError::OutOfBlocks);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Evicts the least-recently-used cached block that only the cache still
    /// references: the first `evictable` entry. Returns false if none is
    /// evictable. Recency ties (never produced by the `clock` today, but
    /// cheap to guarantee against) break toward the smallest chain hash,
    /// deterministically.
    fn evict_one(&mut self) -> Result<bool, AllocError> {
        let Some((_, hash)) = self.evictable.pop_first() else {
            return Ok(false);
        };
        // Every indexed hash has an entry: the two change together.
        if let Some(cached) = self.by_hash.remove(&hash) {
            self.allocator.release(cached.block)?;
            self.stats.evicted_blocks += 1;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn identical_prefixes_share_blocks() {
        let mut cache = CacheManager::new(64, 16);
        let tokens: Vec<Token> = (0..48).collect();
        let a = cache.insert_sequence(&tokens).unwrap();
        let b = cache.insert_sequence(&tokens).unwrap();
        assert_eq!(a.blocks(), b.blocks());
        assert_eq!(cache.stats().hit_blocks, 3);
        // Physical usage: 3 blocks, not 6.
        assert_eq!(cache.allocator().used_blocks(), 3);
    }

    #[test]
    fn diverging_suffixes_split() {
        let mut cache = CacheManager::new(64, 16);
        let mut a_tokens: Vec<Token> = (0..32).collect();
        let mut b_tokens = a_tokens.clone();
        a_tokens.extend(100..116);
        b_tokens.extend(200..216);
        let a = cache.insert_sequence(&a_tokens).unwrap();
        let b = cache.insert_sequence(&b_tokens).unwrap();
        assert_eq!(a.blocks()[..2], b.blocks()[..2]);
        assert_ne!(a.blocks()[2], b.blocks()[2]);
    }

    #[test]
    fn partial_tails_are_private() {
        let mut cache = CacheManager::new(64, 16);
        let tokens: Vec<Token> = (0..20).collect();
        let a = cache.insert_sequence(&tokens).unwrap();
        let b = cache.insert_sequence(&tokens).unwrap();
        assert_eq!(a.blocks()[0], b.blocks()[0]);
        assert_ne!(a.blocks()[1], b.blocks()[1]);
    }

    #[test]
    fn decode_appends_fill_then_allocate() {
        let mut cache = CacheManager::new(64, 16);
        let mut table = cache.insert_sequence(&(0..16).collect::<Vec<_>>()).unwrap();
        assert_eq!(table.blocks().len(), 1);
        for _ in 0..16 {
            cache.append_token(&mut table).unwrap();
        }
        assert_eq!(table.blocks().len(), 2);
        assert_eq!(table.num_tokens(), 32);
        cache.append_token(&mut table).unwrap();
        assert_eq!(table.blocks().len(), 3);
    }

    #[test]
    fn cached_prefix_survives_request_departure() {
        let mut cache = CacheManager::new(64, 16);
        let tokens: Vec<Token> = (0..32).collect();
        let a = cache.insert_sequence(&tokens).unwrap();
        cache.free_sequence(&a).unwrap();
        let b = cache.insert_sequence(&tokens).unwrap();
        assert_eq!(cache.stats().hit_blocks, 2, "prefix reused after departure");
        cache.free_sequence(&b).unwrap();
    }

    #[test]
    fn eviction_frees_space_under_pressure() {
        let mut cache = CacheManager::new(4, 16);
        let a = cache.insert_sequence(&(0..32).collect::<Vec<_>>()).unwrap();
        cache.free_sequence(&a).unwrap();
        // Pool: 2 cached blocks; asking for 4 new ones forces eviction.
        let b = cache
            .insert_sequence(&(100..164).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(b.blocks().len(), 4);
        assert!(cache.stats().evicted_blocks >= 2);
    }

    #[test]
    fn exhaustion_without_evictable_blocks_errors() {
        let mut cache = CacheManager::new(2, 16);
        let _held = cache.insert_sequence(&(0..32).collect::<Vec<_>>()).unwrap();
        let err = cache
            .insert_sequence(&(100..132).collect::<Vec<_>>())
            .unwrap_err();
        assert_eq!(err, AllocError::OutOfBlocks);
    }

    #[test]
    fn failed_insert_leaves_no_trace() {
        // A 4-block pool holding a 2-block sequence A: a 3-block B places
        // two blocks, then fails on the third.
        let mut cache = CacheManager::new(4, 16);
        let a = cache.insert_sequence(&(0..32).collect::<Vec<_>>()).unwrap();
        let stats = cache.stats();
        let b: Vec<Token> = (100..148).collect();
        assert_eq!(cache.insert_sequence(&b), Err(AllocError::OutOfBlocks));
        // B holds nothing, its never-computed blocks are not cached, and
        // the counters did not move.
        assert_eq!(cache.allocator().used_blocks(), 2);
        assert_eq!(cache.prefix_overlap_tokens(&b), 0);
        assert_eq!(cache.stats(), stats);
        // Once A departs, the whole idle pool is obtainable again.
        cache.free_sequence(&a).unwrap();
        assert_eq!(cache.available_blocks(), 4);
        let c = cache
            .insert_sequence(&(200..264).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(c.blocks().len(), 4);
    }

    #[test]
    fn failed_append_counts_no_token() {
        let mut cache = CacheManager::new(1, 16);
        let mut table = cache.insert_sequence(&(0..16).collect::<Vec<_>>()).unwrap();
        let stats = cache.stats();
        assert_eq!(cache.append_token(&mut table), Err(AllocError::OutOfBlocks));
        assert_eq!(cache.stats(), stats);
        assert_eq!(table.num_tokens(), 16);
    }

    #[test]
    fn available_counts_free_plus_evictable() {
        let mut cache = CacheManager::new(8, 16);
        let a = cache.insert_sequence(&(0..32).collect::<Vec<_>>()).unwrap();
        assert_eq!(cache.available_blocks(), 6); // 2 held by request + cache
        cache.free_sequence(&a).unwrap();
        // Cached blocks are evictable again.
        assert_eq!(cache.evictable_blocks(), 2);
        assert_eq!(cache.available_blocks(), 8);
    }

    #[test]
    fn overlap_probe_predicts_hits_without_touching_recency() {
        let mut cache = CacheManager::new(8, 16);
        let shared: Vec<Token> = (0..32).collect();
        let held = cache.insert_sequence(&shared).unwrap();
        // Full-block prefix match, divergence after 32 tokens.
        let mut probe_tokens = shared.clone();
        probe_tokens.extend(500..520);
        assert_eq!(cache.prefix_overlap_tokens(&probe_tokens), 32);
        // Partial tail never matches; unknown prefixes don't either.
        assert_eq!(cache.prefix_overlap_tokens(&shared[..20]), 16);
        assert_eq!(
            cache.prefix_overlap_tokens(&(900..964).collect::<Vec<_>>()),
            0
        );
        // The probe is read-only: stats and recency are untouched, so the
        // probed blocks are still the LRU eviction victims.
        let stats_before = cache.stats();
        for _ in 0..100 {
            cache.prefix_overlap_tokens(&probe_tokens);
        }
        assert_eq!(cache.stats(), stats_before);
        cache.free_sequence(&held).unwrap();
        let newer = cache
            .insert_sequence(&(100..132).collect::<Vec<_>>())
            .unwrap();
        cache.prefix_overlap_tokens(&shared); // must not refresh `shared`
                                              // 6 fresh blocks against 4 free ones: forces two LRU evictions.
        let _fill = cache
            .insert_sequence(&(200..296).collect::<Vec<_>>())
            .unwrap();
        // `shared`'s two blocks were oldest and got evicted despite probes.
        assert_eq!(cache.prefix_overlap_tokens(&shared), 0);
        assert_eq!(
            cache.prefix_overlap_tokens(&(100..132).collect::<Vec<_>>()),
            32
        );
        cache.free_sequence(&newer).unwrap();
    }

    #[test]
    #[should_panic(expected = "probe block size differs")]
    fn probing_at_another_block_size_is_a_caller_bug() {
        let cache = CacheManager::new(8, 16);
        let tokens: Vec<Token> = (0..64).collect();
        cache.prefix_overlap(&mut PrefixProbe::new(&tokens, 32));
    }

    #[test]
    fn resident_hashes_enumerate_shareable_blocks() {
        let mut cache = CacheManager::new(64, 16);
        let table = cache.insert_sequence(&(0..40).collect::<Vec<_>>()).unwrap();
        // Two full blocks are shareable; the 8-token tail is private.
        assert_eq!(cache.resident_hashes().count(), 2);
        let mut other = CacheManager::new(64, 16);
        other.insert_sequence(&(0..40).collect::<Vec<_>>()).unwrap();
        let mine: std::collections::HashSet<u64> = cache.resident_hashes().collect();
        assert!(
            other.resident_hashes().all(|h| mine.contains(&h)),
            "content-addressed"
        );
        cache.free_sequence(&table).unwrap();
    }

    /// R2 regression: two identically driven managers must evict the same
    /// blocks and end with identical resident sets and stats — eviction
    /// order may not depend on container iteration order.
    #[test]
    fn eviction_is_deterministic_across_runs() {
        let drive = || {
            let mut cache = CacheManager::new(12, 16);
            let mut tables = Vec::new();
            for i in 0..6u32 {
                let t = cache
                    .insert_sequence(&(i * 100..i * 100 + 32).collect::<Vec<_>>())
                    .unwrap();
                tables.push(t);
            }
            for t in &tables {
                cache.free_sequence(t).unwrap();
            }
            // Everything is now evictable; re-inserting forces LRU churn.
            for i in 10..16u32 {
                cache
                    .insert_sequence(&(i * 100..i * 100 + 32).collect::<Vec<_>>())
                    .unwrap();
            }
            (
                cache.stats(),
                cache.resident_hashes().collect::<Vec<u64>>(),
                cache.evictable_blocks(),
            )
        };
        let a = drive();
        let b = drive();
        assert_eq!(a, b, "identical drive must produce identical cache state");
        // resident_hashes is ascending, so any reordering is a bug.
        let mut sorted = a.1.clone();
        sorted.sort_unstable();
        assert_eq!(a.1, sorted, "resident hashes enumerate in sorted order");
    }

    #[test]
    fn ingest_makes_prefix_resident_without_hit_miss_accounting() {
        let mut cache = CacheManager::new(64, 16);
        let tokens: Vec<Token> = (0..40).collect();
        let report = cache.ingest_prefix(&tokens);
        // Only the two full blocks are importable; the 8-token tail is not.
        assert_eq!(report.covered_tokens, 32);
        assert_eq!(report.imported_tokens, 32);
        assert_eq!(report.imported_blocks, 2);
        assert_eq!(cache.stats().hit_blocks + cache.stats().miss_blocks, 0);
        assert_eq!(cache.stats().imported_tokens, 32);
        // A subsequent insert hits the imported prefix like any warm one.
        let table = cache.insert_sequence(&tokens).unwrap();
        assert_eq!(cache.stats().hit_blocks, 2);
        cache.free_sequence(&table).unwrap();
    }

    #[test]
    fn ingest_is_idempotent_and_never_double_imports() {
        let mut cache = CacheManager::new(64, 16);
        let tokens: Vec<Token> = (0..64).collect();
        let warm = cache.insert_sequence(&tokens[..32]).unwrap();
        let report = cache.ingest_prefix(&tokens);
        // The two locally computed blocks are covered, not re-imported.
        assert_eq!(report.covered_tokens, 64);
        assert_eq!(report.imported_tokens, 32);
        let again = cache.ingest_prefix(&tokens);
        assert_eq!(again.imported_tokens, 0, "re-ingest imports nothing");
        assert_eq!(again.covered_tokens, 64);
        cache.free_sequence(&warm).unwrap();
    }

    #[test]
    fn ingest_stops_at_longest_prefix_that_fits() {
        let mut cache = CacheManager::new(2, 16);
        let _held = cache
            .insert_sequence(&(1000..1032).collect::<Vec<_>>())
            .unwrap();
        let report = cache.ingest_prefix(&(0..64).collect::<Vec<_>>());
        assert_eq!(report.imported_tokens, 0, "pool full, nothing evictable");
        assert_eq!(report.covered_tokens, 0);
    }

    #[test]
    fn ingested_blocks_are_evictable() {
        let mut cache = CacheManager::new(8, 16);
        cache.ingest_prefix(&(0..64).collect::<Vec<_>>());
        assert_eq!(cache.evictable_blocks(), 4);
        // Pressure evicts imported blocks like any cached prefix.
        let t = cache
            .insert_sequence(&(500..628).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(t.blocks().len(), 8);
        assert!(cache.stats().evicted_blocks >= 4);
    }

    #[test]
    fn resident_prefix_blocks_enumerates_the_donor_payload() {
        let mut cache = CacheManager::new(64, 16);
        let tokens: Vec<Token> = (0..48).collect();
        let table = cache.insert_sequence(&tokens).unwrap();
        let exported = cache.resident_prefix_blocks(&tokens);
        assert_eq!(exported, table.blocks().to_vec());
        // Divergent probe exports only the matching prefix.
        let mut other: Vec<Token> = tokens[..16].to_vec();
        other.extend(900..932);
        assert_eq!(cache.resident_prefix_blocks(&other), table.blocks()[..1]);
        assert!(cache
            .resident_prefix_blocks(&(700..732).collect::<Vec<_>>())
            .is_empty());
        cache.free_sequence(&table).unwrap();
    }

    #[test]
    fn hit_rate_reflects_sharing() {
        let mut cache = CacheManager::new(1024, 16);
        let shared: Vec<Token> = (0..64).collect();
        for i in 0..10u32 {
            let mut t = shared.clone();
            t.extend(1000 + i * 100..1000 + i * 100 + 64);
            cache.insert_sequence(&t).unwrap();
        }
        // 9 of 10 requests hit the 64-token shared prefix: 576 of 1280 tokens.
        assert!((cache.stats().hit_rate() - 0.45).abs() < 1e-9);
    }

    /// The cache before its eviction index, as an oracle: a free list
    /// pre-filled with `0..capacity` and an LRU scan over every entry.
    struct ScanModel {
        block_size: usize,
        refcounts: Vec<u32>,
        free: VecDeque<BlockId>,
        /// Chain hash -> (block, last use).
        by_hash: BTreeMap<u64, (BlockId, u64)>,
        clock: u64,
        evicted: u64,
    }

    impl ScanModel {
        fn new(capacity: u32, block_size: usize) -> Self {
            ScanModel {
                block_size,
                refcounts: vec![0; capacity as usize],
                free: (0..capacity).map(BlockId).collect(),
                by_hash: BTreeMap::new(),
                clock: 0,
                evicted: 0,
            }
        }

        /// Oldest entry held by the cache alone, ties to the smaller hash.
        fn victim(&self) -> Option<u64> {
            self.by_hash
                .iter()
                .filter(|(_, (b, _))| self.refcounts[b.0 as usize] == 1)
                .min_by_key(|(_, &(_, last_use))| last_use)
                .map(|(&h, _)| h)
        }

        fn release(&mut self, block: BlockId) {
            self.refcounts[block.0 as usize] -= 1;
            if self.refcounts[block.0 as usize] == 0 {
                self.free.push_back(block);
            }
        }

        fn allocate(&mut self) -> Option<BlockId> {
            loop {
                if let Some(block) = self.free.pop_front() {
                    self.refcounts[block.0 as usize] = 1;
                    return Some(block);
                }
                let (block, _) = self.by_hash.remove(&self.victim()?)?;
                self.release(block);
                self.evicted += 1;
            }
        }

        fn insert(&mut self, tokens: &[Token]) -> Option<Vec<BlockId>> {
            let mut probe = PrefixProbe::new(tokens, self.block_size);
            let (mut blocks, mut created) = (Vec::new(), Vec::new());
            for b in 0..tokens.len().div_ceil(self.block_size) {
                let block = match probe.block_hash(b) {
                    Some(h) => {
                        self.clock += 1;
                        let block = match self.by_hash.get_mut(&h) {
                            Some(entry) => {
                                entry.1 = self.clock;
                                entry.0
                            }
                            None => {
                                let Some(block) = self.allocate() else { break };
                                self.by_hash.insert(h, (block, self.clock));
                                created.push(h);
                                block
                            }
                        };
                        self.refcounts[block.0 as usize] += 1;
                        block
                    }
                    None => {
                        let Some(block) = self.allocate() else { break };
                        block
                    }
                };
                blocks.push(block);
            }
            if blocks.len() == tokens.len().div_ceil(self.block_size) {
                return Some(blocks);
            }
            for block in blocks {
                self.release(block);
            }
            for h in created {
                let (block, _) = self.by_hash.remove(&h)?;
                self.release(block);
            }
            None
        }

        fn ingest(&mut self, tokens: &[Token]) -> usize {
            let mut covered = 0;
            for &h in PrefixProbe::new(tokens, self.block_size).all_hashes() {
                self.clock += 1;
                if let Some(entry) = self.by_hash.get_mut(&h) {
                    entry.1 = self.clock;
                } else {
                    let Some(block) = self.allocate() else { break };
                    self.by_hash.insert(h, (block, self.clock));
                }
                covered += self.block_size;
            }
            covered
        }
    }

    /// The index-backed cache agrees with the scan model after one op.
    fn agrees(cache: &CacheManager, model: &ScanModel) -> Result<(), TestCaseError> {
        let held_by_cache_alone = |c: &&CachedBlock| cache.allocator.refcount(c.block) == 1;
        let brute = cache.by_hash.values().filter(held_by_cache_alone).count();
        prop_assert_eq!(cache.evictable_blocks(), brute);
        let scan = cache
            .by_hash
            .iter()
            .filter(|(_, c)| held_by_cache_alone(c))
            .min_by_key(|(_, c)| c.last_use)
            .map(|(&h, _)| h);
        prop_assert_eq!(cache.evictable.first().map(|&(_, h)| h), scan);
        prop_assert_eq!(scan, model.victim());
        let entries: Vec<(u64, BlockId, u64)> = cache
            .by_hash
            .iter()
            .map(|(&h, c)| (h, c.block, c.last_use))
            .collect();
        let model_entries: Vec<(u64, BlockId, u64)> = model
            .by_hash
            .iter()
            .map(|(&h, &(b, t))| (h, b, t))
            .collect();
        prop_assert_eq!(entries, model_entries);
        for (id, &rc) in model.refcounts.iter().enumerate() {
            let block = BlockId(sim_core::cast::usize_to_u32(id));
            prop_assert_eq!(cache.allocator.refcount(block), rc, "block {}", id);
        }
        // The ids the pool would hand out next, in order.
        let mut pool = cache.allocator.clone();
        let next: Vec<BlockId> = std::iter::from_fn(|| pool.allocate().ok()).collect();
        prop_assert_eq!(next, model.free.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(cache.stats().evicted_blocks, model.evicted);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random admission, growth, departure and import on a small pool:
        /// the eviction index, the evictable count and the id order match
        /// the scan model after every op, and the pool drains leak-free.
        #[test]
        fn eviction_index_matches_the_scan_model(
            capacity in 8u32..33,
            prefix_lens in prop::collection::vec(4usize..14, 3..5),
            ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..10, 0u32..6), 1..160),
        ) {
            const BLOCK: usize = 4;
            let mut cache = CacheManager::new(capacity as usize, BLOCK);
            let mut model = ScanModel::new(capacity, BLOCK);
            // (table, the model's block list, tokens)
            let mut live: Vec<(BlockTable, Vec<BlockId>, usize)> = Vec::new();
            for (kind, pick, suffix_len, suffix) in ops {
                let prefix = pick % prefix_lens.len();
                let base = 1000 * u32::try_from(prefix).unwrap();
                let mut tokens: Vec<Token> =
                    (base..base + u32::try_from(prefix_lens[prefix]).unwrap()).collect();
                tokens.extend((0..suffix_len).map(|i| 100 + 16 * suffix + u32::try_from(i).unwrap()));
                match kind {
                    0 => {
                        let got = cache.insert_sequence(&tokens).ok();
                        let want = model.insert(&tokens);
                        prop_assert_eq!(got.as_ref().map(|t| t.blocks().to_vec()), want.clone());
                        if let (Some(table), Some(blocks)) = (got, want) {
                            live.push((table, blocks, tokens.len()));
                        }
                    }
                    1 if !live.is_empty() => {
                        let i = pick % live.len();
                        let (table, blocks, len) = &mut live[i];
                        let grows = *len == blocks.len() * BLOCK;
                        let want = if grows { model.allocate() } else { blocks.last().copied() };
                        let ok = cache.append_token(table).is_ok();
                        prop_assert_eq!(ok, want.is_some());
                        if let (true, Some(block)) = (grows, want) {
                            blocks.push(block);
                        }
                        if ok {
                            *len += 1;
                        }
                        prop_assert_eq!(table.blocks(), &blocks[..]);
                    }
                    2 if !live.is_empty() => {
                        let (table, blocks, _) = live.swap_remove(pick % live.len());
                        cache.free_sequence(&table).unwrap();
                        for block in blocks {
                            model.release(block);
                        }
                    }
                    3 => {
                        let got = cache.ingest_prefix(&tokens).covered_tokens;
                        prop_assert_eq!(got, model.ingest(&tokens));
                    }
                    _ => {}
                }
                agrees(&cache, &model)?;
            }
            for (table, blocks, _) in live {
                cache.free_sequence(&table).unwrap();
                for block in blocks {
                    model.release(block);
                }
                agrees(&cache, &model)?;
            }
            prop_assert_eq!(cache.available_blocks(), capacity as usize);
        }
    }
}
