//! Synthetic decode batches with controlled prefix structure (§8.2).
//!
//! A batch is specified by `B` and `L` exactly as in the paper: `B` defines
//! the prefix-tree node counts per level (the last entry is the number of
//! leaves, i.e. the batch size) and `L` the KV tokens contributed at each
//! level. For example `B = [1, 4, 16]`, `L = [128, 256, 1024]` builds one
//! 128-token first-level prefix, four 256-token second-level prefixes, and
//! 16 requests with 1024 non-shared tokens each.

use attn_kernel::DecodeBatch;
use attn_math::HeadConfig;
use kv_cache::{BlockId, BlockTable, DEFAULT_BLOCK_SIZE};

/// A `(B, L)` batch specification.
///
/// # Examples
///
/// ```
/// use attn_math::HeadConfig;
/// use workloads::BatchSpec;
///
/// let spec = BatchSpec::new(vec![1, 4, 16], vec![128, 256, 1024]);
/// let batch = spec.build(HeadConfig::new(32, 8, 128));
/// assert_eq!(batch.num_queries(), 16);
/// assert_eq!(batch.kv_len(0), 128 + 256 + 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSpec {
    b: Vec<usize>,
    l: Vec<usize>,
}

impl BatchSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics unless `b` and `l` have equal nonzero length, node counts are
    /// nondecreasing with each level dividing the next, and every level
    /// length is positive.
    pub fn new(b: Vec<usize>, l: Vec<usize>) -> Self {
        assert_eq!(b.len(), l.len(), "B and L must have equal length");
        assert!(!b.is_empty(), "spec needs at least one level");
        assert!(
            b[0] >= 1 && l.iter().all(|&x| x > 0),
            "levels must be positive"
        );
        for w in b.windows(2) {
            assert!(
                w[1] >= w[0] && w[1] % w[0] == 0,
                "node counts must divide: {} -> {}",
                w[0],
                w[1]
            );
        }
        BatchSpec { b, l }
    }

    /// Tree-structured decoding (beam search / speculative trees — the
    /// workload DeFT targets): `beams` hypotheses share the prompt and
    /// diverge in a binary tree as decoding progresses, so each divergence
    /// level contributes `decoded_tokens / levels` shared tokens.
    ///
    /// # Panics
    ///
    /// Panics unless `beams` is a power of two ≥ 2 and lengths are positive.
    pub fn beam_search(prompt_tokens: usize, beams: usize, decoded_tokens: usize) -> Self {
        assert!(
            beams.is_power_of_two() && beams >= 2,
            "beams must be a power of two >= 2"
        );
        assert!(
            prompt_tokens > 0 && decoded_tokens > 0,
            "lengths must be positive"
        );
        let levels = beams.trailing_zeros() as usize;
        let mut b = vec![1usize];
        let mut l = vec![prompt_tokens];
        let per_level = (decoded_tokens / levels).max(1);
        for k in 1..=levels {
            b.push(1 << k);
            l.push(per_level);
        }
        BatchSpec::new(b, l)
    }

    /// The per-level node counts.
    pub fn levels(&self) -> &[usize] {
        &self.b
    }

    /// The per-level KV token lengths.
    pub fn lengths(&self) -> &[usize] {
        &self.l
    }

    /// Batch size (number of leaves).
    pub fn batch_size(&self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "the constructor rejects an empty level list"
        )]
        *self.b.last().expect("non-empty")
    }

    /// Whether the spec has any shared prefix level.
    pub fn has_prefix(&self) -> bool {
        self.b.len() > 1
    }

    /// Short display form, e.g. `B=[1,4,16] L=[128,256,1024]`.
    pub fn label(&self) -> String {
        format!("B={:?} L={:?}", self.b, self.l)
    }

    /// Builds the decode batch with fp16 KV and 16-token blocks.
    pub fn build(&self, head: HeadConfig) -> DecodeBatch {
        let bs = DEFAULT_BLOCK_SIZE;
        let mut next_block: u32 = 0;
        // Per level, assign each node a run of fresh blocks. The final block
        // of each non-leaf level is padded to a block boundary so levels
        // share at whole-block granularity (as real paged caches do).
        let mut level_blocks: Vec<Vec<Vec<BlockId>>> = Vec::new();
        for (&nodes, &len) in self.b.iter().zip(&self.l) {
            let blocks_needed = len.div_ceil(bs);
            let mut per_node = Vec::with_capacity(nodes);
            for _ in 0..nodes {
                let run: Vec<BlockId> = (next_block..next_block + blocks_needed as u32)
                    .map(BlockId)
                    .collect();
                next_block += blocks_needed as u32;
                per_node.push(run);
            }
            level_blocks.push(per_node);
        }
        let batch_size = self.batch_size();
        let tables: Vec<BlockTable> = (0..batch_size)
            .map(|q| {
                let mut blocks = Vec::new();
                let mut tokens = 0usize;
                for (level, per_node) in level_blocks.iter().enumerate() {
                    let node = q * self.b[level] / batch_size;
                    blocks.extend_from_slice(&per_node[node]);
                    // Shared levels occupy whole blocks; only the leaf level
                    // may end mid-block.
                    if level + 1 < self.b.len() {
                        tokens += self.l[level].div_ceil(bs) * bs;
                    } else {
                        tokens += self.l[level];
                    }
                }
                BlockTable::new(blocks, tokens, bs)
            })
            .collect();
        DecodeBatch::new(head, tables, 2)
    }
}

/// The 20 decode-batch configurations of the kernel benchmark (Fig. 11 /
/// Fig. 17). Configurations 1–18 have shared prefixes (① multiple levels,
/// multiple first-level roots, short/long prefixes, small/large batches);
/// 19–20 have none.
pub fn figure11_specs() -> Vec<BatchSpec> {
    vec![
        /* 1 */ BatchSpec::new(vec![1, 8], vec![128, 1024]),
        /* 2 */ BatchSpec::new(vec![1, 8], vec![1024, 1024]),
        /* 3 */ BatchSpec::new(vec![1, 8], vec![4096, 1024]),
        /* 4 */ BatchSpec::new(vec![1, 32], vec![1024, 1024]),
        /* 5 */ BatchSpec::new(vec![1, 64], vec![1024, 1024]),
        /* 6 */ BatchSpec::new(vec![1, 4, 16], vec![128, 256, 1024]),
        /* 7 */ BatchSpec::new(vec![1, 4, 16], vec![1024, 2048, 1024]),
        /* 8 */ BatchSpec::new(vec![1, 4, 64], vec![2048, 512, 256]),
        /* 9 */ BatchSpec::new(vec![2, 8], vec![1024, 512]),
        /* 10 */ BatchSpec::new(vec![4, 64], vec![2048, 256]),
        /* 11 */ BatchSpec::new(vec![1, 2, 4, 8, 16], vec![512, 512, 512, 512, 512]),
        /* 12 */ BatchSpec::new(vec![1, 16], vec![2517, 512]),
        /* 13 */ BatchSpec::new(vec![1, 8, 64], vec![48, 304, 1776]),
        /* 14 */ BatchSpec::new(vec![4, 16, 64], vec![512, 512, 512]),
        /* 15 */ BatchSpec::new(vec![1, 128], vec![2048, 256]),
        /* 16 */ BatchSpec::new(vec![2, 4, 32], vec![1024, 512, 768]),
        /* 17 */ BatchSpec::new(vec![1, 32], vec![8192, 512]),
        /* 18 */ BatchSpec::new(vec![8, 64], vec![128, 2048]),
        /* 19 */ BatchSpec::new(vec![8], vec![1024]),
        /* 20 */ BatchSpec::new(vec![64], vec![1024]),
    ]
}

/// The ablation workload of §8.6: the Fig. 11 suite extended with
/// short-first-level-prefix trees where the Scheme-1/Scheme-2 packing
/// decision (and thus the memory- vs compute-oriented cost models) actually
/// diverges — CTA query sizes span 1–64 and KV lengths 32–4096.
pub fn ablation_specs() -> Vec<BatchSpec> {
    let mut specs = figure11_specs();
    specs.extend([
        // Short roots over large child groups: 4*s_i > l_u, so PAT merges
        // the parent blocks downward while PAT-naive splits every node.
        BatchSpec::new(vec![1, 8, 64], vec![16, 512, 512]),
        BatchSpec::new(vec![1, 4, 64], vec![32, 2048, 256]),
        BatchSpec::new(vec![1, 2, 32], vec![16, 4096, 512]),
        BatchSpec::new(vec![1, 2, 16], vec![32, 1024, 64]),
        BatchSpec::new(vec![1, 4, 16], vec![48, 320, 32]),
        BatchSpec::new(vec![2, 16, 64], vec![16, 768, 384]),
    ]);
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use kv_cache::BatchPrefixStats;

    fn head() -> HeadConfig {
        HeadConfig::new(32, 8, 128)
    }

    #[test]
    fn paper_example_structure() {
        let spec = BatchSpec::new(vec![1, 4, 16], vec![128, 256, 1024]);
        let batch = spec.build(head());
        let forest = batch.forest();
        assert_eq!(forest.roots().len(), 1);
        assert_eq!(forest.roots()[0].children.len(), 4);
        // 1 root + 4 mid + 16 leaves.
        assert_eq!(forest.num_nodes(), 21);
        assert_eq!(forest.num_shared_nodes(), 5);
    }

    #[test]
    fn multiple_first_level_roots() {
        let spec = BatchSpec::new(vec![2, 8], vec![1024, 512]);
        let batch = spec.build(head());
        assert_eq!(batch.forest().roots().len(), 2);
        // Queries 0-3 share root 0, queries 4-7 share root 1.
        assert_eq!(batch.tables()[0].blocks()[0], batch.tables()[3].blocks()[0]);
        assert_ne!(batch.tables()[0].blocks()[0], batch.tables()[4].blocks()[0]);
    }

    #[test]
    fn no_prefix_specs_have_zero_coverage() {
        let spec = BatchSpec::new(vec![8], vec![1024]);
        let batch = spec.build(head());
        let stats = BatchPrefixStats::from_tables(batch.tables());
        assert_eq!(stats.shared_coverage(), 0.0);
        assert!(!spec.has_prefix());
    }

    #[test]
    fn kv_lengths_match_level_sums() {
        let spec = BatchSpec::new(vec![1, 4, 16], vec![100, 250, 1000]);
        let batch = spec.build(head());
        // Shared levels round to block boundaries: 112 + 256 + 1000.
        assert_eq!(batch.kv_len(0), 112 + 256 + 1000);
    }

    #[test]
    fn figure11_set_has_twenty_entries() {
        let specs = figure11_specs();
        assert_eq!(specs.len(), 20);
        assert!(specs[..18].iter().all(BatchSpec::has_prefix));
        assert!(specs[18..].iter().all(|s| !s.has_prefix()));
        for spec in &specs {
            let batch = spec.build(head());
            assert_eq!(batch.num_queries(), spec.batch_size());
        }
    }

    #[test]
    fn beam_search_builds_a_binary_divergence_tree() {
        let spec = BatchSpec::beam_search(1024, 8, 192);
        let batch = spec.build(head());
        assert_eq!(batch.num_queries(), 8);
        let forest = batch.forest();
        assert_eq!(forest.roots().len(), 1);
        // Root + 2 + 4 + 8 = 15 nodes; all internal nodes shared.
        assert_eq!(forest.num_nodes(), 15);
        assert_eq!(forest.num_shared_nodes(), 7);
        // Every beam's KV = prompt + 3 levels of 64 decoded tokens.
        assert_eq!(batch.kv_len(0), 1024 + 3 * 64);
    }

    #[test]
    fn ablation_specs_extend_figure11() {
        let specs = ablation_specs();
        assert_eq!(specs.len(), 26);
        // The extra configs have short first-level prefixes.
        assert!(specs[20..].iter().all(|s| s.lengths()[0] <= 48));
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn non_dividing_levels_rejected() {
        let _ = BatchSpec::new(vec![3, 8], vec![16, 16]);
    }
}
