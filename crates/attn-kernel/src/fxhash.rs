//! A fast, fully deterministic 64-bit hasher for hot-path keying.
//!
//! `std`'s `DefaultHasher` (SipHash-1-3) costs ~100 µs to fingerprint a
//! realistic decode batch — paid on *every* decode step by the
//! fingerprint/validation/traffic paths. This is the classic `FxHash`
//! multiply-rotate mix (the rustc hasher): ~10× cheaper, with a fixed
//! initial state so hashes are identical across runs, platforms, and
//! processes — exactly what the determinism discipline (DESIGN.md §2b)
//! requires of anything feeding simulation decisions.
//!
//! Not DoS-resistant; all inputs here are simulator-internal (block ids,
//! head shapes), never attacker-controlled.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash mixing function state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(c);
            self.mix(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Mix the tail length so "ab" + "c" != "a" + "bc".
            self.mix(u64::from_le_bytes(buf) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// A `HashMap` keyed by [`FxHasher`]: deterministic (no `RandomState`) and
/// fast for the small integer keys the kernel layer uses. Lookups only in
/// simulation code — iteration order is still unspecified (rule R2).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&[1u32, 2, 3]), hash_of(&[1u32, 2, 3]));
        assert_ne!(hash_of(&[1u32, 2, 3]), hash_of(&[1u32, 3, 2]));
    }

    #[test]
    fn byte_stream_tail_is_length_aware() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fx_map_round_trips() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&513), Some(&1026));
        assert_eq!(m.len(), 1000);
    }
}
