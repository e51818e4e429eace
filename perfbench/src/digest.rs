//! A 64-bit FNV-1a digest of the simulated payload.
//!
//! Floats are hashed by bit pattern, so two payloads digest equal only when
//! they are byte-identical.

/// An incremental FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in a word.
    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in a count.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Mixes in a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
