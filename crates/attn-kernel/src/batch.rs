//! Decode batches, query activations, and the physical KV store.
//!
//! A [`DecodeBatch`] is the unit of work of every attention backend: one query
//! token per request plus the request's KV block table. For numeric
//! validation, [`KvStore`] holds actual K/V tensors per (block, kv-head) and
//! [`QueryActivations`] the per-request Q vectors; the timing path uses only
//! the shapes.

use attn_math::{HeadConfig, Matrix};
use kv_cache::{BlockId, BlockTable, PrefixForest};
use sim_core::cast::usize_to_u32;
use std::collections::HashMap;

/// KV-cache element size in bytes for fp16, the paper's evaluation dtype.
pub const FP16_BYTES: usize = 2;

/// A decode-step batch: one query per request plus its KV block table.
///
/// # Examples
///
/// ```
/// use attn_kernel::DecodeBatch;
/// use attn_math::HeadConfig;
/// use kv_cache::{BlockId, BlockTable};
///
/// let head = HeadConfig::new(32, 8, 128);
/// let tables = vec![
///     BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
///     BlockTable::new(vec![BlockId(0), BlockId(2)], 32, 16),
/// ];
/// let batch = DecodeBatch::new(head, tables, 2);
/// assert_eq!(batch.num_queries(), 2);
/// assert_eq!(batch.kv_len(0), 32);
/// ```
#[derive(Debug, Clone)]
pub struct DecodeBatch {
    head: HeadConfig,
    tables: Vec<BlockTable>,
    dtype_bytes: usize,
}

impl DecodeBatch {
    /// Creates a batch.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty, block sizes are inconsistent, or
    /// `dtype_bytes` is zero.
    pub fn new(head: HeadConfig, tables: Vec<BlockTable>, dtype_bytes: usize) -> Self {
        assert!(
            !tables.is_empty(),
            "a decode batch needs at least one query"
        );
        assert!(dtype_bytes > 0, "dtype size must be positive");
        let bs = tables[0].block_size();
        assert!(
            tables.iter().all(|t| t.block_size() == bs),
            "all block tables must share one block size"
        );
        DecodeBatch {
            head,
            tables,
            dtype_bytes,
        }
    }

    /// Consumes the batch, returning its block tables (allocation reuse:
    /// callers that rebuild a batch every decode step can recover the table
    /// vector instead of reallocating it).
    pub fn into_tables(self) -> Vec<BlockTable> {
        self.tables
    }

    /// The attention head configuration.
    pub fn head(&self) -> HeadConfig {
        self.head
    }

    /// KV element size in bytes.
    pub fn dtype_bytes(&self) -> usize {
        self.dtype_bytes
    }

    /// Number of queries (requests) in the batch.
    pub fn num_queries(&self) -> usize {
        self.tables.len()
    }

    /// KV block size in tokens.
    pub fn block_size(&self) -> usize {
        self.tables[0].block_size()
    }

    /// The block tables, one row per query.
    pub fn tables(&self) -> &[BlockTable] {
        &self.tables
    }

    /// KV length in tokens of query `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn kv_len(&self, q: usize) -> usize {
        self.tables[q].num_tokens()
    }

    /// Total logical KV tokens across queries (counting shared blocks once
    /// per sharing query).
    pub fn total_kv_tokens(&self) -> usize {
        self.tables.iter().map(BlockTable::num_tokens).sum()
    }

    /// KV bytes of one token across one kv-head's K and V.
    pub fn kv_bytes_per_token_per_kv_head(&self) -> usize {
        2 * self.head.head_dim() * self.dtype_bytes
    }

    /// The prefix forest (tree-structure block table, Fig. 7b).
    pub fn forest(&self) -> PrefixForest {
        PrefixForest::from_block_tables(&self.tables)
    }

    /// Distinct physical KV bytes of the batch across all kv-heads — the
    /// theoretical minimum KV traffic of Fig. 6a.
    pub fn distinct_kv_bytes(&self) -> f64 {
        // Sum of per-block maxima, accumulated as each maximum is raised
        // (integer increments, so the total is independent of visit order
        // and identical to a build-a-map-then-sum formulation).
        let mut tokens = 0usize;
        crate::scratch::with_block_scratch(|seen| {
            seen.clear();
            for table in &self.tables {
                for i in 0..table.blocks().len() {
                    let t = usize_to_u32(table.tokens_in_block(i));
                    tokens += seen.raise(table.blocks()[i].0, t) as usize;
                }
            }
        });
        (tokens * self.kv_bytes_per_token_per_kv_head() * self.head.num_kv_heads()) as f64
    }
}

/// Per-request query activations: one `(num_heads × head_dim)` matrix each.
#[derive(Debug, Clone)]
pub struct QueryActivations {
    per_query: Vec<Matrix>,
    head: HeadConfig,
}

impl QueryActivations {
    /// Wraps explicit activations.
    ///
    /// # Panics
    ///
    /// Panics if any matrix's shape disagrees with `head`.
    pub fn new(head: HeadConfig, per_query: Vec<Matrix>) -> Self {
        for (q, m) in per_query.iter().enumerate() {
            assert_eq!(m.rows(), head.num_heads(), "query {q}: wrong head count");
            assert_eq!(m.cols(), head.head_dim(), "query {q}: wrong head dim");
        }
        QueryActivations { per_query, head }
    }

    /// Deterministic synthetic activations for `num_queries` requests.
    pub fn synthetic(head: HeadConfig, num_queries: usize, seed: u64) -> Self {
        let per_query = (0..num_queries)
            .map(|q| synth_matrix(head.num_heads(), head.head_dim(), seed ^ (q as u64 + 1)))
            .collect();
        QueryActivations { per_query, head }
    }

    /// The head configuration.
    pub fn head(&self) -> HeadConfig {
        self.head
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.per_query.len()
    }

    /// Whether there are no queries.
    pub fn is_empty(&self) -> bool {
        self.per_query.is_empty()
    }

    /// The Q vector of query `q`, head `h`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn q(&self, q: usize, head: usize) -> &[f32] {
        self.per_query[q].row(head)
    }
}

/// Physical K/V tensors per (block, kv-head).
#[derive(Debug, Clone)]
pub struct KvStore {
    head: HeadConfig,
    block_size: usize,
    /// block -> per-kv-head (keys, values), each `block_size × head_dim`.
    blocks: HashMap<BlockId, Vec<(Matrix, Matrix)>>,
}

impl KvStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(head: HeadConfig, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        KvStore {
            head,
            block_size,
            blocks: HashMap::new(),
        }
    }

    /// Populates a store with deterministic synthetic data for every block
    /// referenced by `batch`.
    pub fn synthetic_for(batch: &DecodeBatch, seed: u64) -> Self {
        let mut store = KvStore::new(batch.head(), batch.block_size());
        for table in batch.tables() {
            for &block in table.blocks() {
                store.ensure_block(block, seed);
            }
        }
        store
    }

    /// Inserts synthetic data for `block` if absent.
    pub fn ensure_block(&mut self, block: BlockId, seed: u64) {
        let (head, bs) = (self.head, self.block_size);
        self.blocks.entry(block).or_insert_with(|| {
            (0..head.num_kv_heads())
                .map(|kvh| {
                    let s = seed ^ (u64::from(block.0) << 20) ^ (kvh as u64 + 13);
                    (
                        synth_matrix(bs, head.head_dim(), s.wrapping_mul(3)),
                        synth_matrix(bs, head.head_dim(), s.wrapping_mul(5).wrapping_add(7)),
                    )
                })
                .collect()
        });
    }

    /// The per-kv-head `(keys, values)` pair stored for `block`, naming the
    /// missing block when a plan references KV that was never inserted.
    fn head_pair(&self, block: BlockId, kv_head: usize) -> &(Matrix, Matrix) {
        let Some(heads) = self.blocks.get(&block) else {
            panic!("{block:?} absent from KV store");
        };
        &heads[kv_head]
    }

    /// Keys of `block` for `kv_head`, rows `0..tokens`.
    ///
    /// # Panics
    ///
    /// Panics if the block is absent or indices are invalid.
    pub fn keys(&self, block: BlockId, kv_head: usize, tokens: usize) -> Matrix {
        self.head_pair(block, kv_head).0.slice_rows(0, tokens)
    }

    /// Values of `block` for `kv_head`, rows `0..tokens`.
    ///
    /// # Panics
    ///
    /// Panics if the block is absent or indices are invalid.
    pub fn values(&self, block: BlockId, kv_head: usize, tokens: usize) -> Matrix {
        self.head_pair(block, kv_head).1.slice_rows(0, tokens)
    }

    /// Number of distinct blocks stored.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// Deterministic pseudo-random matrix in `[-1, 1)` (xorshift; keeps the crate
/// free of a `rand` dependency).
fn synth_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "test data: an f32 draw in [-1, 1) needs no f64 precision"
    )]
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
    };
    Matrix::from_rows(rows, cols, (0..rows * cols).map(|_| next()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> DecodeBatch {
        let head = HeadConfig::new(16, 8, 32);
        let tables = vec![
            BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
            BlockTable::new(vec![BlockId(0), BlockId(2)], 28, 16),
        ];
        DecodeBatch::new(head, tables, FP16_BYTES)
    }

    #[test]
    fn distinct_bytes_count_shared_blocks_once() {
        let b = batch();
        // Distinct tokens: block0 = 16, block1 = 16, block2 = 12 -> 44.
        let per_token = 2 * 32 * 2; // K+V * dim * fp16
        assert_eq!(b.distinct_kv_bytes(), (44 * per_token * 8) as f64);
    }

    #[test]
    fn total_tokens_count_shared_blocks_per_query() {
        assert_eq!(batch().total_kv_tokens(), 60);
    }

    #[test]
    fn synthetic_store_covers_all_blocks() {
        let b = batch();
        let store = KvStore::synthetic_for(&b, 42);
        assert_eq!(store.num_blocks(), 3);
        let k = store.keys(BlockId(2), 3, 12);
        assert_eq!(k.rows(), 12);
        assert_eq!(k.cols(), 32);
    }

    #[test]
    fn synthetic_store_is_deterministic() {
        let b = batch();
        let s1 = KvStore::synthetic_for(&b, 42);
        let s2 = KvStore::synthetic_for(&b, 42);
        assert_eq!(s1.keys(BlockId(0), 0, 16), s2.keys(BlockId(0), 0, 16));
        let s3 = KvStore::synthetic_for(&b, 43);
        assert_ne!(s1.keys(BlockId(0), 0, 16), s3.keys(BlockId(0), 0, 16));
    }

    #[test]
    fn activations_expose_per_head_rows() {
        let head = HeadConfig::new(16, 8, 32);
        let acts = QueryActivations::synthetic(head, 2, 7);
        assert_eq!(acts.len(), 2);
        assert_eq!(acts.q(1, 15).len(), 32);
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn empty_batch_rejected() {
        let head = HeadConfig::new(16, 8, 32);
        let _ = DecodeBatch::new(head, vec![], 2);
    }
}
