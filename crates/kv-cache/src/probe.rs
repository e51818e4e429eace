//! One token slice's block-chain hashes, shared by every prefix probe of it.
//!
//! A prefix cache names a full KV block by its *chain hash*
//! `hash(parent_hash, block_tokens)` (the first block's parent is 0), so a
//! cache holds a prompt's leading `k` blocks exactly when it holds the
//! prompt's first `k` chain hashes. Asking N caches how much of one prompt
//! they hold therefore needs the prompt hashed once, not N times.
//! [`PrefixProbe`] hashes lazily and memoizes: a sweep over N caches hashes
//! each block at most once, and only up to one block past the deepest match
//! any cache reported.
//!
//! This module is the workspace's single definition of the chain hash:
//! [`crate::CacheManager`] and every other block-granularity warmth store
//! name blocks through it, so their hashes are comparable.

use crate::Token;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A token slice plus its memoized block-chain hashes at one block size.
///
/// # Examples
///
/// ```
/// use kv_cache::{CacheManager, PrefixProbe};
///
/// let mut warm = CacheManager::new(64, 16);
/// let cold = CacheManager::new(64, 16);
/// let system_prompt: Vec<u32> = (0..64).collect();
/// let _table = warm.insert_sequence(&system_prompt[..32])?;
///
/// let mut probe = PrefixProbe::new(&system_prompt, 16);
/// assert_eq!(warm.prefix_overlap(&mut probe), 32);
/// assert_eq!(cold.prefix_overlap(&mut probe), 0);
/// // Both answers together hashed three of the four blocks.
/// assert_eq!(probe.hashed_blocks(), 3);
/// # Ok::<(), kv_cache::AllocError>(())
/// ```
#[derive(Debug)]
pub struct PrefixProbe<'a> {
    tokens: &'a [Token],
    block_size: usize,
    hashes: Vec<u64>,
}

impl<'a> PrefixProbe<'a> {
    /// A probe of `tokens` at `block_size` tokens per block. Hashes
    /// nothing yet.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(tokens: &'a [Token], block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        PrefixProbe {
            tokens,
            block_size,
            hashes: Vec::with_capacity(tokens.len() / block_size),
        }
    }

    /// The block size in tokens.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Full blocks in the slice (a partial tail block has no chain hash).
    pub fn full_blocks(&self) -> usize {
        self.tokens.len() / self.block_size
    }

    /// Blocks hashed so far.
    pub fn hashed_blocks(&self) -> usize {
        self.hashes.len()
    }

    /// Chain hash of full block `b`, hashing any blocks before it not yet
    /// hashed; `None` when the slice has no full block `b`.
    pub(crate) fn block_hash(&mut self, b: usize) -> Option<u64> {
        if b >= self.full_blocks() {
            return None;
        }
        while self.hashes.len() <= b {
            let next = self.hashes.len();
            let parent = self.hashes.last().copied().unwrap_or(0);
            let chunk = &self.tokens[next * self.block_size..(next + 1) * self.block_size];
            self.hashes.push(chain_hash(parent, chunk));
        }
        Some(self.hashes[b])
    }

    /// Chain hashes of every full block, in prefix order.
    pub fn all_hashes(&mut self) -> &[u64] {
        if let Some(last) = self.full_blocks().checked_sub(1) {
            self.block_hash(last);
        }
        &self.hashes
    }

    /// Leading tokens covered by full blocks that `resident` accepts,
    /// stopping at the first block it rejects: (accepted blocks) × block
    /// size. Hashes at most one block past the last accepted one.
    pub fn matched_tokens(&mut self, mut resident: impl FnMut(u64) -> bool) -> usize {
        let mut blocks = 0;
        while let Some(hash) = self.block_hash(blocks) {
            if !resident(hash) {
                break;
            }
            blocks += 1;
        }
        blocks * self.block_size
    }
}

/// The chain hash of one full block: SipHash over the parent block's chain
/// hash and the block's tokens.
fn chain_hash(parent: u64, chunk: &[Token]) -> u64 {
    let mut h = DefaultHasher::new();
    parent.hash(&mut h);
    chunk.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_lazy_and_memoized() {
        let tokens: Vec<Token> = (0..100).collect();
        let mut probe = PrefixProbe::new(&tokens, 16);
        assert_eq!(probe.full_blocks(), 6);
        assert_eq!(probe.hashed_blocks(), 0);
        let third = probe.block_hash(2);
        assert_eq!(probe.hashed_blocks(), 3);
        assert_eq!(probe.block_hash(2), third);
        assert_eq!(probe.block_hash(6), None, "the 4-token tail has no hash");
        assert_eq!(probe.all_hashes().len(), 6);
    }

    #[test]
    fn chain_hash_depends_on_the_whole_prefix() {
        let a: Vec<Token> = (0..32).collect();
        let mut b = a.clone();
        b[3] = 999;
        let (mut pa, mut pb) = (PrefixProbe::new(&a, 16), PrefixProbe::new(&b, 16));
        // Block 1's tokens agree, but its parent differs.
        assert_eq!(a[16..], b[16..]);
        assert_ne!(pa.block_hash(1), pb.block_hash(1));
    }

    #[test]
    fn a_sweep_hashes_at_most_one_block_past_the_deepest_match() {
        let tokens: Vec<Token> = (0..160).collect();
        let mut reference = PrefixProbe::new(&tokens, 16);
        let resident: Vec<u64> = reference.all_hashes().to_vec();
        let mut probe = PrefixProbe::new(&tokens, 16);
        // Stores holding the first 2, 0, 4 and 1 blocks of the prompt.
        for depth in [2usize, 0, 4, 1] {
            let held = &resident[..depth];
            assert_eq!(probe.matched_tokens(|h| held.contains(&h)), depth * 16);
            assert!(probe.hashed_blocks() <= 4 + 1);
        }
        assert_eq!(probe.hashed_blocks(), 5, "deepest match 4, plus one");
        // A full-depth match hashes every block and no more.
        assert_eq!(probe.matched_tokens(|h| resident.contains(&h)), 160);
        assert_eq!(probe.hashed_blocks(), 10);
    }

    #[test]
    fn short_and_empty_slices_match_nothing() {
        let mut empty = PrefixProbe::new(&[], 16);
        assert_eq!(empty.matched_tokens(|_| true), 0);
        let short: Vec<Token> = (0..15).collect();
        let mut probe = PrefixProbe::new(&short, 16);
        assert_eq!(probe.matched_tokens(|_| true), 0);
        assert_eq!(probe.hashed_blocks(), 0);
    }
}
