//! Incremental 64-bit FNV-1a: the crate's one hash function. Trace
//! hashes, fleet hash chaining, result-cache cell keys and document
//! digests, and fault-schedule labels all fold through it.
//!
//! It stays crate-private so the engine's per-event fold inlines
//! without cross-crate optimisation.

/// An FNV-1a state. Strings are length-prefixed, so distinct field
/// sequences cannot collide by concatenation.
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Fold one whole word as a single FNV step (not byte by byte).
    #[inline]
    pub(crate) fn write_word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    #[inline]
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_word(b as u64);
        }
    }

    #[inline]
    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    pub(crate) fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.write_u64(1);
                self.write_u64(v);
            }
            None => self.write_u64(0),
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv64;

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
