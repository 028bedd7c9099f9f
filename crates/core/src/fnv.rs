//! Byte-wise 64-bit FNV-1a: the one stable hash behind scenario
//! digests (serve's results-cache keys), the proptest shim's per-test
//! seeds and the race campaign's state digests. Unlike `std`'s
//! `DefaultHasher` its values never change between builds or hosts,
//! which is what those uses pin. [`crate::Machine::coherence_digest`]
//! folds whole words instead and is a different function.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The empty hash (the FNV offset basis).
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Fold in `bytes`, one at a time.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Fold in `word`'s eight little-endian bytes.
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// Fold in the bits of every value of `vals`, in order.
    pub fn f64s(&mut self, vals: &[f64]) {
        for v in vals {
            self.word(v.to_bits());
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_word_folds_its_little_endian_bytes() {
        let mut h = Fnv1a::new();
        h.word(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
        let mut f = Fnv1a::new();
        f.f64s(&[1.5]);
        assert_eq!(f.finish(), fnv1a(&1.5f64.to_bits().to_le_bytes()));
    }
}
