//! FNV-1a, the 64-bit digest behind every fingerprint in the workspace.

/// An incremental 64-bit FNV-1a hasher.
///
/// Trace fingerprints, sweep and exploration fingerprints, ledger chain
/// hashes and per-name seed salts all use it, so committed goldens depend
/// on it staying bit-for-bit the same.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes the little-endian bytes of `v` into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}
