//! Property: one shared `PrefixProbe` answers for every warmth store.
//!
//! Routers and the failover donor scan ask many replicas how much of one
//! prompt they hold, hashing the prompt once. Sharing the probe must not
//! change any answer: under a shared probe, each store reports what a fresh
//! probe reports and what the stores always reported — leading resident
//! full blocks × block size. That rule is checked against a hash-free
//! model keyed by the block prefixes' tokens. `PrefixStore` and
//! `CacheManager` name blocks by one hash function, so stores fed the same
//! history also agree with each other.

use kv_cache::{CacheManager, PrefixProbe, Token};
use proptest::prelude::*;
use replica_fidelity::PrefixStore;
use std::collections::BTreeMap;

const BS: usize = 16;

/// `shared` tokens of a prompt family's common prefix, then `private`
/// tokens unique to `salt`.
fn prompt(family: u32, shared: usize, private: usize, salt: u32) -> Vec<Token> {
    let shared = (0..shared as u32).map(|i| family * 10_000 + i);
    let private = (0..private as u32).map(|i| 1_000_000 + salt * 1_000 + i);
    shared.chain(private).collect()
}

/// A probe prompt of one of four shapes: empty, shorter than one block, an
/// exact block multiple, or full blocks plus a partial tail. The first
/// `cut` tokens (mod length + 1) come from the family's common prefix.
fn probe_prompt((shape, family, blocks, tail, cut, salt): Probe) -> Vec<Token> {
    let len = match shape {
        0 => 0,
        1 => tail,
        2 => blocks * BS,
        _ => blocks * BS + tail,
    };
    let shared = cut % (len + 1);
    prompt(family, shared, len - shared, salt)
}

/// A warmth store under test.
enum Store {
    Analytical(PrefixStore),
    Cache(CacheManager),
}

impl Store {
    fn insert(&mut self, tokens: &[Token]) {
        match self {
            Store::Analytical(s) => {
                s.insert_sequence(tokens);
            }
            Store::Cache(c) => {
                let table = c.insert_sequence(tokens).expect("pool never fills");
                c.free_sequence(&table).expect("table is live");
            }
        }
    }

    fn ingest(&mut self, tokens: &[Token]) {
        match self {
            Store::Analytical(s) => s.ingest_prefix(tokens),
            Store::Cache(c) => c.ingest_prefix(tokens),
        };
    }

    fn overlap(&self, probe: &mut PrefixProbe<'_>) -> usize {
        match self {
            Store::Analytical(s) => s.overlap(probe),
            Store::Cache(c) => c.prefix_overlap(probe),
        }
    }

    fn evicted_blocks(&self) -> u64 {
        match self {
            Store::Analytical(_) => 0,
            Store::Cache(c) => c.stats().evicted_blocks,
        }
    }
}

/// Hash-free model of a store's residency: each resident full block is
/// keyed by the tokens of the whole prefix it ends, with `PrefixStore`'s
/// least-recently-touched eviction at `capacity` blocks.
struct Model {
    capacity: usize,
    seq: u64,
    last_touch: BTreeMap<Vec<Token>, u64>,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model {
            capacity,
            seq: 0,
            last_touch: BTreeMap::new(),
        }
    }

    /// Inserts and ingests both touch every full block in prefix order.
    fn touch_blocks(&mut self, tokens: &[Token]) {
        for end in (BS..=tokens.len()).step_by(BS) {
            self.seq += 1;
            let key = &tokens[..end];
            if let Some(seq) = self.last_touch.get_mut(key) {
                *seq = self.seq;
                continue;
            }
            if self.last_touch.len() >= self.capacity {
                let victim = self
                    .last_touch
                    .iter()
                    .min_by_key(|(_, &seq)| seq)
                    .map(|(k, _)| k.clone())
                    .expect("a full model has blocks");
                self.last_touch.remove(&victim);
            }
            self.last_touch.insert(key.to_vec(), self.seq);
        }
    }

    /// Leading resident full blocks × block size.
    fn overlap(&self, tokens: &[Token]) -> usize {
        (BS..=tokens.len())
            .step_by(BS)
            .take_while(|&end| self.last_touch.contains_key(&tokens[..end]))
            .count()
            * BS
    }
}

/// Three `PrefixStore`s (the first holds two blocks, so it evicts) and two
/// `CacheManager`s large enough never to evict, with their models.
fn fleet() -> (Vec<Store>, Vec<Model>) {
    let stores = vec![
        Store::Analytical(PrefixStore::new(2, BS)),
        Store::Analytical(PrefixStore::new(6, BS)),
        Store::Analytical(PrefixStore::new(1024, BS)),
        Store::Cache(CacheManager::new(4096, BS)),
        Store::Cache(CacheManager::new(4096, BS)),
    ];
    let models = vec![
        Model::new(2),
        Model::new(6),
        Model::new(1024),
        Model::new(usize::MAX),
        Model::new(usize::MAX),
    ];
    (stores, models)
}

type Op = (usize, usize, u32, usize, usize, u32);
type Probe = (usize, u32, usize, usize, usize, u32);

fn history() -> impl Strategy<Value = Vec<Op>> {
    // (store, ingest?, family, shared tokens, private tokens, salt)
    prop::collection::vec(
        (
            0usize..5,
            0usize..2,
            0u32..3,
            0usize..120,
            0usize..40,
            0u32..4,
        ),
        0..40,
    )
}

fn probes() -> impl Strategy<Value = Vec<Probe>> {
    // (shape, family, blocks, tail, cut, salt); salt 4 is never inserted.
    prop::collection::vec(
        (
            0usize..4,
            0u32..3,
            1usize..9,
            1usize..BS,
            0usize..200,
            0u32..5,
        ),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn shared_probe_answers_like_a_fresh_probe_and_the_block_rule(
        ops in history(),
        probes in probes(),
        order_keys in prop::collection::vec(0u64..1_000, 5),
    ) {
        let (mut stores, mut models) = fleet();
        for (k, ingest, family, shared, private, salt) in ops {
            let tokens = prompt(family, shared, private, salt);
            if ingest == 1 {
                stores[k].ingest(&tokens);
            } else {
                stores[k].insert(&tokens);
            }
            models[k].touch_blocks(&tokens);
        }
        prop_assert!(stores.iter().all(|s| s.evicted_blocks() == 0));
        let mut order: Vec<usize> = (0..stores.len()).collect();
        order.sort_by_key(|&k| (order_keys[k], k));
        for p in probes {
            let tokens = probe_prompt(p);
            let mut shared = PrefixProbe::new(&tokens, BS);
            let mut deepest = 0;
            for &k in &order {
                let got = stores[k].overlap(&mut shared);
                let fresh = stores[k].overlap(&mut PrefixProbe::new(&tokens, BS));
                prop_assert_eq!(got, fresh, "store {} on {:?}", k, tokens);
                prop_assert_eq!(got, models[k].overlap(&tokens), "store {} on {:?}", k, tokens);
                deepest = deepest.max(got / BS);
            }
            prop_assert!(
                shared.hashed_blocks() <= (deepest + 1).min(shared.full_blocks()),
                "hashed {} blocks for a deepest match of {}",
                shared.hashed_blocks(),
                deepest
            );
        }
    }

    #[test]
    fn prefix_store_and_cache_manager_agree_on_one_history(
        ops in history(),
        probes in probes(),
    ) {
        let mut store = Store::Analytical(PrefixStore::new(1024, BS));
        let mut cache = Store::Cache(CacheManager::new(4096, BS));
        for (_, ingest, family, shared, private, salt) in ops {
            let tokens = prompt(family, shared, private, salt);
            for s in [&mut store, &mut cache] {
                if ingest == 1 {
                    s.ingest(&tokens);
                } else {
                    s.insert(&tokens);
                }
            }
        }
        for p in probes {
            let tokens = probe_prompt(p);
            let mut probe = PrefixProbe::new(&tokens, BS);
            prop_assert_eq!(store.overlap(&mut probe), cache.overlap(&mut probe));
        }
    }
}

/// The stores' block names are the probe's hashes, one for one.
#[test]
fn cache_manager_resident_hashes_are_probe_hashes() {
    let tokens = prompt(1, 100, 20, 3);
    let mut cache = CacheManager::new(64, BS);
    let table = cache.insert_sequence(&tokens).expect("pool fits");
    let mut resident: Vec<u64> = cache.resident_hashes().collect();
    let mut probed = PrefixProbe::new(&tokens, BS).all_hashes().to_vec();
    resident.sort_unstable();
    probed.sort_unstable();
    assert_eq!(resident, probed);
    cache.free_sequence(&table).expect("table is live");
}
