//! Step-simulation memoization: the serving-level analogue of §5.1.
//!
//! The serving engine used to run the full sim-gpu discrete-event engine
//! ([`crate::simulate_plan`]) on every decode step, even though consecutive
//! steps almost always have *identical structure* — every active request
//! grows by one token inside its final partial KV block, which changes
//! neither the packing (that is LazyPat's observation) nor, at block
//! granularity, the simulated timing. [`StepSimCache`] memoizes the
//! simulated timing report under the canonical batch fingerprint
//! ([`crate::batch_timing_fingerprint`]) plus the backend identity,
//! so structurally identical steps skip both the pack scheduler and the
//! event loop entirely.
//!
//! **Invalidation is structural:** any request arrival, departure,
//! preemption, or block-table growth into a fresh block changes the
//! fingerprint and misses. Within a structural span the cached report is
//! replayed verbatim; the timing quantization this introduces is at most
//! one partial KV block per request (< 1% of KV length at serving scale)
//! and is applied identically on every run — results stay bit-deterministic
//! per seed, they are simply computed at block rather than token
//! granularity.
//!
//! The cache is bounded, per-engine, and strictly deterministic: a
//! `BTreeMap` with sequence-number LRU eviction and a fixed capacity of
//! [`DEFAULT_STEP_CACHE_CAPACITY`] entries. Worker threads never share a
//! cache, so parallel fleet execution cannot affect hit patterns.
//!
//! This module lives in `attn-kernel`, next to the fingerprint it keys on;
//! `serving` re-exports the public items unchanged.

use serde::Serialize;
use std::collections::BTreeMap;

/// Capacity (entries) of every serving engine's step cache.
pub const DEFAULT_STEP_CACHE_CAPACITY: usize = 256;

/// The memoized slice of a simulated timing report — exactly the fields the
/// serving engine consumes when costing a decode step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSimReport {
    /// End-to-end simulated kernel latency in ns (one layer).
    pub total_ns: f64,
    /// Exposed scheduling cost in ns, paid once per step.
    pub scheduling_ns: f64,
}

/// Hit/miss counters of a [`StepSimCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StepSimStats {
    /// Decode steps whose timing was served from cache.
    pub hits: u64,
    /// Decode steps that ran the full plan + sim-gpu pipeline.
    pub misses: u64,
}

impl StepSimStats {
    /// Fraction of decode steps served from cache (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another engine's counters (fleet-level aggregation).
    pub fn merge(&mut self, other: StepSimStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    report: StepSimReport,
    last_used: u64,
}

/// A bounded, deterministic LRU cache mapping
/// `(batch timing fingerprint, backend fingerprint)` to the simulated step
/// report. See the module docs for keying and invalidation semantics.
#[derive(Debug)]
pub struct StepSimCache {
    map: BTreeMap<(u64, u64), Entry>,
    capacity: usize,
    seq: u64,
    stats: StepSimStats,
}

impl StepSimCache {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        StepSimCache {
            map: BTreeMap::new(),
            capacity: capacity.max(1),
            seq: 0,
            stats: StepSimStats::default(),
        }
    }

    /// Looks up a step report, counting a hit or miss and refreshing LRU
    /// recency on hit.
    pub fn get(&mut self, key: (u64, u64)) -> Option<StepSimReport> {
        self.seq += 1;
        match self.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.seq;
                self.stats.hits += 1;
                Some(entry.report)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly simulated report, evicting the least recently used
    /// entry when at capacity. Eviction scans the ordered map, so ties and
    /// ordering are platform-independent.
    pub fn insert(&mut self, key: (u64, u64), report: StepSimReport) {
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            if let Some(victim) = victim {
                self.map.remove(&victim);
            }
        }
        self.seq += 1;
        let last_used = self.seq;
        self.map.insert(key, Entry { report, last_used });
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> StepSimStats {
        self.stats
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

impl Default for StepSimCache {
    fn default() -> Self {
        StepSimCache::new(DEFAULT_STEP_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(x: f64) -> StepSimReport {
        StepSimReport {
            total_ns: x,
            scheduling_ns: x / 10.0,
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = StepSimCache::new(4);
        assert_eq!(c.get((1, 1)), None);
        c.insert((1, 1), report(100.0));
        assert_eq!(c.get((1, 1)), Some(report(100.0)));
        assert_eq!(c.stats(), StepSimStats { hits: 1, misses: 1 });
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = StepSimCache::new(2);
        c.insert((1, 0), report(1.0));
        c.insert((2, 0), report(2.0));
        assert_eq!(c.get((1, 0)), Some(report(1.0))); // refresh 1
        c.insert((3, 0), report(3.0)); // evicts 2
        assert_eq!(c.len(), 2);
        assert!(c.get((2, 0)).is_none());
        assert_eq!(c.get((1, 0)), Some(report(1.0)));
        assert_eq!(c.get((3, 0)), Some(report(3.0)));
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let mut c = StepSimCache::new(2);
        c.insert((1, 0), report(1.0));
        c.insert((2, 0), report(2.0));
        c.insert((1, 0), report(10.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get((2, 0)), Some(report(2.0)));
        assert_eq!(c.get((1, 0)), Some(report(10.0)));
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut c = StepSimCache::new(0);
        c.insert((1, 0), report(1.0));
        c.insert((2, 0), report(2.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get((2, 0)), Some(report(2.0)));
    }

    #[test]
    fn hit_rate_and_merge() {
        let mut a = StepSimStats { hits: 8, misses: 2 };
        assert!((a.hit_rate() - 0.8).abs() < 1e-12);
        a.merge(StepSimStats { hits: 2, misses: 8 });
        assert_eq!(
            a,
            StepSimStats {
                hits: 10,
                misses: 10
            }
        );
        assert_eq!(StepSimStats::default().hit_rate(), 0.0);
    }
}
