//! FNV-1a 64: the workspace's one byte-string hash.
//!
//! Seed derivation ([`crate::rng::SeedTree`]), the trace log's intern
//! index and the scenario corpus's `output-checksum` all fold bytes with
//! it, and the digest goldens pin its output. A hash that continues from
//! a previous state lets a caller fold several byte strings into one
//! digest without joining them first.

/// The FNV-1a 64 offset basis: the hash of the empty string.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`, continuing from the state `h` (start from
/// [`FNV_OFFSET`]).
///
/// ```
/// use iotse_sim::hash::{fnv1a, FNV_OFFSET};
///
/// let whole = fnv1a(FNV_OFFSET, b"ab");
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"a"), b"b"), whole);
/// ```
#[inline]
#[must_use]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
