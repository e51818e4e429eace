//! Integration: the hash-chained KV cache shares exactly the block-aligned
//! prefixes a hash-free model of the sharing rule predicts across the trace
//! models, and reuse does not change what the attention kernel must load —
//! the paper's §3.1 observation that prefix *reuse* is orthogonal to
//! prefix-aware *execution*.

use kv_cache::{BatchPrefixStats, CacheManager, Token};
use std::collections::btree_map::{BTreeMap, Entry};
use workloads::{generate_trace, TraceConfig, TraceKind};

/// Hash-free reference for a pool that never evicts: a full block hits
/// exactly when the block-aligned prefix ending at it was inserted before.
/// Returns the hit tokens of inserting `prompts` in order. Each prefix gets
/// an id, keyed by its parent prefix's id and its last block's tokens, so
/// one lookup compares one block, not a whole prefix.
fn model_hit_tokens(prompts: &[Vec<Token>], block_size: usize) -> u64 {
    let mut ids: BTreeMap<(usize, &[Token]), usize> = BTreeMap::new();
    let mut hits = 0;
    for tokens in prompts {
        // Id 0 is the empty prefix.
        let mut parent = 0;
        for block in tokens.chunks_exact(block_size) {
            let fresh = ids.len() + 1;
            parent = match ids.entry((parent, block)) {
                Entry::Occupied(e) => {
                    hits += block.len() as u64;
                    *e.get()
                }
                Entry::Vacant(e) => *e.insert(fresh),
            };
        }
    }
    hits
}

#[test]
fn cache_hits_match_a_hash_free_prefix_model() {
    let mut shared_kinds = 0;
    for kind in TraceKind::all() {
        let prompts: Vec<Vec<Token>> = generate_trace(TraceConfig {
            kind,
            rate_per_s: 8.0,
            duration_s: 30.0,
            seed: 11,
        })
        .iter()
        .map(|r| r.prompt.to_tokens())
        .collect();
        let mut cache = CacheManager::new(2_000_000, 16);
        for tokens in &prompts {
            let table = cache.insert_sequence(tokens).expect("pool sized");
            assert_eq!(table.num_tokens(), tokens.len());
        }
        let expected = model_hit_tokens(&prompts, 16);
        assert_eq!(cache.stats().hit_tokens, expected, "{} trace", kind.name());
        shared_kinds += usize::from(expected > 0);
    }
    assert!(shared_kinds > 0, "the traces must exercise sharing");
}

#[test]
fn reuse_reduces_footprint_but_not_logical_kv() {
    // 16 requests sharing a 1024-token prompt through the hash cache: the
    // *physical* pool shrinks ~16x for the shared part, but each request's
    // block table still lists the full logical KV — which is what a
    // non-prefix-aware kernel loads (§3.1/§3.2).
    let mut cache = CacheManager::new(10_000, 16);
    let shared: Vec<u32> = (0..1024).collect();
    let mut tables = Vec::new();
    for i in 0..16u32 {
        let mut t = shared.clone();
        t.extend(10_000 + i * 100..10_000 + i * 100 + 64);
        tables.push(cache.insert_sequence(&t).expect("pool sized"));
    }
    let physical = cache.allocator().used_blocks();
    let logical: usize = tables.iter().map(|t| t.blocks().len()).sum();
    assert!(
        physical < logical / 8,
        "physical {physical} vs logical {logical}"
    );

    // The shared structure is exactly what the pack scheduler exploits.
    let stats = BatchPrefixStats::from_tables(&tables);
    assert!(stats.shared_coverage() > 0.9);
    assert_eq!(stats.distinct_shared_prefixes, 1);
}

#[test]
fn cache_manager_shares_split_prefixes() {
    // `b` shares only the first two blocks of `a`, which was inserted as
    // one longer run; block chains are per block, so exactly those 32
    // tokens are shared.
    let mut cache = CacheManager::new(1024, 16);
    let mut a: Vec<u32> = (0..64).collect();
    let mut b: Vec<u32> = (0..32).collect();
    a.extend(500..516);
    b.extend(900..932);
    let ta = cache.insert_sequence(&a).unwrap();
    let tb = cache.insert_sequence(&b).unwrap();
    assert_eq!(
        ta.blocks()[..2],
        tb.blocks()[..2],
        "32-token overlap shared"
    );
    assert_ne!(ta.blocks()[2], tb.blocks()[2]);
    assert_eq!(cache.stats().hit_tokens, 32);
}
