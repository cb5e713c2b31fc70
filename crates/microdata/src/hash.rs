//! The workspace's stable content hash: 64-bit FNV-1a.
//!
//! Both the content-addressed publication handles of `betalike-server`
//! (`pub-…`) and the per-section checksums of the `betalike-store` binary
//! formats need a hash that is dependency-free, fast over small inputs, and
//! *stable across platforms and releases* — a durable artifact written
//! today must verify forever. FNV-1a is all three by construction.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = OFFSET_BASIS;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
    }
    hash
}

/// An incremental [`fnv1a64`]: feed bytes in any chunking, `finish` yields
/// the same digest as one shot over the concatenation. Used to checksum a
/// whole artifact file while its sections are checksummed one by one.
#[derive(Debug, Clone)]
pub struct Fnv1a64 {
    state: u64,
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64 {
            state: OFFSET_BASIS,
        }
    }
}

impl Fnv1a64 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Fnv1a64::default()
    }

    /// Absorbs more bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Absorbs `bytes` and returns their own one-shot [`fnv1a64`], in one
    /// pass. The two multiply chains are independent, so the CPU overlaps
    /// them and this costs about what one of the two hashes costs alone.
    pub fn update_and_digest(&mut self, bytes: &[u8]) -> u64 {
        let mut own = OFFSET_BASIS;
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(PRIME);
            own = (own ^ u64::from(b)).wrapping_mul(PRIME);
        }
        own
    }

    /// The digest over everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        h.update(b"");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        assert_eq!(Fnv1a64::new().finish(), fnv1a64(b""));
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        assert_eq!(h.update_and_digest(b"bar"), fnv1a64(b"bar"));
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}
