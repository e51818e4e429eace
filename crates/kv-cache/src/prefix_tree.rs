//! Tree-structure block table (Fig. 7b).
//!
//! The pack scheduler's first step (§5.1) converts a decode batch's
//! two-dimensional block table into a path-compressed prefix forest: each
//! internal node is a run of KV blocks shared by the same set of queries, with
//! attributes `l` (KV token length of the run) and `s` (number of sharing
//! queries); each leaf is one query's non-shared suffix, and the root-to-leaf
//! path reconstructs the query's full KV sequence.

use crate::{BlockId, BlockTable};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A node of the prefix forest: a run of blocks shared by `queries`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixNode {
    /// The run of physical blocks this node represents (may be empty for a
    /// query that ends exactly at its parent's boundary).
    pub blocks: Vec<BlockId>,
    /// KV tokens covered by the run (`l` in the paper's profit model).
    pub token_len: usize,
    /// Queries (batch indices) sharing this run (`s = queries.len()`).
    pub queries: Vec<usize>,
    /// Child nodes partitioning the continuation.
    pub children: Vec<PrefixNode>,
}

impl PrefixNode {
    /// Whether this node is a leaf (exactly one query, no children).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Number of sharing queries (`s`).
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Nodes in this subtree (including self).
    pub fn num_nodes(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PrefixNode::num_nodes)
            .sum::<usize>()
    }
}

/// The prefix forest of one decode batch.
///
/// # Examples
///
/// ```
/// use kv_cache::{BlockId, BlockTable, PrefixForest};
///
/// let b = |ids: &[u32], tokens: usize| {
///     BlockTable::new(ids.iter().map(|&i| BlockId(i)).collect(), tokens, 16)
/// };
/// // Two queries share blocks [0, 1]; each has a private suffix.
/// let forest = PrefixForest::from_block_tables(&[
///     b(&[0, 1, 2], 48),
///     b(&[0, 1, 3, 4], 64),
/// ]);
/// assert_eq!(forest.roots().len(), 1);
/// let root = &forest.roots()[0];
/// assert_eq!(root.token_len, 32);
/// assert_eq!(root.num_queries(), 2);
/// assert_eq!(root.children.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixForest {
    roots: Vec<PrefixNode>,
    num_queries: usize,
}

impl PrefixForest {
    /// Builds the forest from a batch's block tables. Row `q` of `tables`
    /// belongs to query `q`.
    pub fn from_block_tables(tables: &[BlockTable]) -> Self {
        let queries: Vec<usize> = (0..tables.len()).collect();
        let roots = Self::build(tables, &queries, 0);
        PrefixForest {
            roots,
            num_queries: tables.len(),
        }
    }

    /// The first-level shared prefixes (roots).
    pub fn roots(&self) -> &[PrefixNode] {
        &self.roots
    }

    /// Number of queries in the batch.
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// Total node count (|V| of Algorithm 1's complexity bound).
    pub fn num_nodes(&self) -> usize {
        self.roots.iter().map(PrefixNode::num_nodes).sum()
    }

    /// Internal (shared, `s > 1`) node count — the "distinct shared prefixes"
    /// statistic of §3.1.
    pub fn num_shared_nodes(&self) -> usize {
        fn count(node: &PrefixNode) -> usize {
            let own = usize::from(node.num_queries() > 1 && node.token_len > 0);
            own + node.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }

    /// KV tokens covered by shared prefixes, counted once per sharing query
    /// (the "intra-batch shared prefix coverage" numerator of §3.1).
    pub fn shared_token_coverage(&self) -> usize {
        fn walk(node: &PrefixNode) -> usize {
            let own = if node.num_queries() > 1 {
                node.token_len * node.num_queries()
            } else {
                0
            };
            own + node.children.iter().map(walk).sum::<usize>()
        }
        self.roots.iter().map(walk).sum()
    }

    /// A stable fingerprint of the forest structure, used by the lazy-update
    /// mechanism (§5.1) to detect block-table changes across decode steps.
    pub fn fingerprint(&self) -> u64 {
        fn feed(node: &PrefixNode, h: &mut DefaultHasher) {
            node.blocks.hash(h);
            node.token_len.hash(h);
            node.queries.hash(h);
            0xB10C_u16.hash(h);
            for child in &node.children {
                feed(child, h);
            }
        }
        let mut h = DefaultHasher::new();
        self.num_queries.hash(&mut h);
        for root in &self.roots {
            feed(root, &mut h);
        }
        h.finish()
    }

    fn build(tables: &[BlockTable], queries: &[usize], depth: usize) -> Vec<PrefixNode> {
        // Partition queries by their block at `depth`; queries exhausted at
        // this depth become zero-length leaves at the caller's level.
        let mut by_block: BTreeMap<BlockId, Vec<usize>> = BTreeMap::new();
        let mut nodes = Vec::new();
        for &q in queries {
            match tables[q].blocks().get(depth) {
                Some(&b) => by_block.entry(b).or_default().push(q),
                None => nodes.push(PrefixNode {
                    blocks: Vec::new(),
                    token_len: 0,
                    queries: vec![q],
                    children: Vec::new(),
                }),
            }
        }
        for (_, group) in by_block {
            if group.len() == 1 {
                let q = group[0];
                let run: Vec<BlockId> = tables[q].blocks()[depth..].to_vec();
                let token_len = Self::run_tokens(tables, &[q], depth, run.len());
                nodes.push(PrefixNode {
                    blocks: run,
                    token_len,
                    queries: vec![q],
                    children: Vec::new(),
                });
                continue;
            }
            // Longest common run among the group starting at `depth`.
            let mut lcp = 1;
            'extend: loop {
                let probe = tables[group[0]].blocks().get(depth + lcp);
                let Some(&candidate) = probe else { break };
                for &q in &group[1..] {
                    if tables[q].blocks().get(depth + lcp) != Some(&candidate) {
                        break 'extend;
                    }
                }
                lcp += 1;
            }
            let run: Vec<BlockId> = tables[group[0]].blocks()[depth..depth + lcp].to_vec();
            let token_len = Self::run_tokens(tables, &group, depth, lcp);
            let children = Self::build(tables, &group, depth + lcp);
            nodes.push(PrefixNode {
                blocks: run,
                token_len,
                queries: group,
                children,
            });
        }
        nodes
    }

    /// Tokens covered by blocks `[depth, depth+len)`, taking the minimum over
    /// sharers so a partially filled final block is not over-counted.
    fn run_tokens(tables: &[BlockTable], queries: &[usize], depth: usize, len: usize) -> usize {
        (depth..depth + len)
            .map(|i| {
                queries
                    .iter()
                    .map(|&q| tables[q].tokens_in_block(i))
                    .min()
                    .unwrap_or(0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(ids: &[u32], tokens: usize) -> BlockTable {
        BlockTable::new(ids.iter().map(|&i| BlockId(i)).collect(), tokens, 16)
    }

    #[test]
    fn paper_figure7_structure() {
        // Fig. 7a: 4 queries; q0/q1/q2/q3 share blocks [0]; q0,q1 share [0,1];
        // each query has a private suffix.
        let tables = vec![
            table(&[0, 1, 2], 48),
            table(&[0, 1, 3], 48),
            table(&[0, 4, 5], 48),
            table(&[0, 4, 6, 7], 64),
        ];
        let forest = PrefixForest::from_block_tables(&tables);
        assert_eq!(forest.roots().len(), 1);
        let root = &forest.roots()[0];
        assert_eq!(root.blocks, vec![BlockId(0)]);
        assert_eq!(root.num_queries(), 4);
        assert_eq!(root.children.len(), 2);
        let left = &root.children[0];
        assert_eq!(left.blocks, vec![BlockId(1)]);
        assert_eq!(left.num_queries(), 2);
        assert_eq!(left.children.len(), 2);
        assert!(left.children.iter().all(PrefixNode::is_leaf));
        // Two shared internal nodes: [0] and [1] ... plus [4].
        assert_eq!(forest.num_shared_nodes(), 3);
    }

    #[test]
    fn disjoint_queries_form_separate_roots() {
        let tables = vec![table(&[0, 1], 32), table(&[2, 3], 32)];
        let forest = PrefixForest::from_block_tables(&tables);
        assert_eq!(forest.roots().len(), 2);
        assert!(forest.roots().iter().all(PrefixNode::is_leaf));
        assert_eq!(forest.num_shared_nodes(), 0);
        assert_eq!(forest.shared_token_coverage(), 0);
    }

    #[test]
    fn identical_tables_share_everything() {
        let tables = vec![table(&[0, 1, 2], 40), table(&[0, 1, 2], 40)];
        let forest = PrefixForest::from_block_tables(&tables);
        assert_eq!(forest.roots().len(), 1);
        let root = &forest.roots()[0];
        assert_eq!(root.blocks.len(), 3);
        // 16 + 16 + 8 tokens, shared by both queries.
        assert_eq!(root.token_len, 40);
        assert_eq!(root.children.len(), 2);
        assert!(root
            .children
            .iter()
            .all(|c| c.token_len == 0 && c.is_leaf()));
        assert_eq!(forest.shared_token_coverage(), 80);
    }

    #[test]
    fn leaf_token_length_counts_partial_block() {
        let tables = vec![table(&[0, 1], 20), table(&[0, 2], 28)];
        let forest = PrefixForest::from_block_tables(&tables);
        let root = &forest.roots()[0];
        assert_eq!(root.token_len, 16);
        let mut leaf_lens: Vec<usize> = root.children.iter().map(|c| c.token_len).collect();
        leaf_lens.sort_unstable();
        assert_eq!(leaf_lens, vec![4, 12]);
    }

    #[test]
    fn fingerprint_changes_with_structure() {
        let a = PrefixForest::from_block_tables(&[table(&[0, 1], 32), table(&[0, 2], 32)]);
        let b = PrefixForest::from_block_tables(&[table(&[0, 1], 32), table(&[0, 1], 32)]);
        let a2 = PrefixForest::from_block_tables(&[table(&[0, 1], 32), table(&[0, 2], 32)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a2.fingerprint());
    }

    #[test]
    fn node_count_is_linear_in_queries() {
        let tables: Vec<BlockTable> = (0..64).map(|q| table(&[0, 1, 100 + q], 48)).collect();
        let forest = PrefixForest::from_block_tables(&tables);
        // One shared root + 64 leaves.
        assert_eq!(forest.num_nodes(), 65);
        assert_eq!(forest.num_queries(), 64);
    }

    #[test]
    fn empty_batch_is_empty_forest() {
        let forest = PrefixForest::from_block_tables(&[]);
        assert!(forest.roots().is_empty());
        assert_eq!(forest.num_nodes(), 0);
    }
}
