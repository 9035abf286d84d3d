//! Peer identifiers.
//!
//! IPFS peers are identified by the multihash of their public key; for the
//! DHT the identifier is hashed into a 256-bit key space with the XOR metric.
//! The paper distinguishes peers by their peer ID ("PID") and repeatedly
//! observes that one participant may own several PIDs — the core difficulty
//! behind estimating the network size. [`PeerId`] models the identifier as an
//! opaque 256-bit value; the key-space position is what matters for DHT
//! behaviour, not the cryptographic derivation.

use crate::kademlia::Distance;
use simclock::SimRng;
use std::fmt;

/// Number of bytes in a peer identifier (256-bit key space).
pub const PEER_ID_BYTES: usize = 32;

/// A 256-bit peer identifier ("PID" in the paper).
///
/// # Example
///
/// ```
/// use p2pmodel::PeerId;
/// use simclock::SimRng;
///
/// let mut rng = SimRng::seed_from(1);
/// let a = PeerId::random(&mut rng);
/// let b = PeerId::random(&mut rng);
/// assert_ne!(a, b);
/// assert_eq!(a.distance(&a).leading_zeros(), 256);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId([u8; PEER_ID_BYTES]);

impl PeerId {
    /// Creates a peer ID from raw bytes.
    pub const fn from_bytes(bytes: [u8; PEER_ID_BYTES]) -> Self {
        PeerId(bytes)
    }

    /// Generates a fresh random peer ID (the simulated equivalent of
    /// generating a new 2048-bit key, as the paper's measurement node does at
    /// every start).
    pub fn random(rng: &mut SimRng) -> Self {
        let mut bytes = [0u8; PEER_ID_BYTES];
        rng.fill_bytes(&mut bytes);
        PeerId(bytes)
    }

    /// Deterministically derives a peer ID from a 64-bit label.
    ///
    /// Used by tests and by population builders that need stable identities
    /// across runs. The label is diffused over all 32 bytes with a
    /// SplitMix64-style mixer so that consecutive labels are spread uniformly
    /// over the key space.
    pub fn derived(label: u64) -> Self {
        let mut bytes = [0u8; PEER_ID_BYTES];
        let mut state = label.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for chunk in bytes.chunks_mut(8) {
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_be_bytes());
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        PeerId(bytes)
    }

    /// Creates a peer ID whose first bits match `prefix` (most significant
    /// bits first), with the remaining bits random.
    ///
    /// Hydra heads choose their identities so that they cover distinct
    /// regions of the key space; this constructor models that placement.
    pub fn with_prefix(prefix: u16, prefix_bits: u32, rng: &mut SimRng) -> Self {
        assert!(prefix_bits <= 16, "at most 16 prefix bits are supported");
        let mut id = Self::random(rng);
        if prefix_bits == 0 {
            return id;
        }
        let prefix = (prefix as u32) << (16 - prefix_bits);
        let keep_mask: u16 = if prefix_bits >= 16 {
            0
        } else {
            (1u16 << (16 - prefix_bits)) - 1
        };
        let current = u16::from_be_bytes([id.0[0], id.0[1]]);
        let merged = (prefix as u16) | (current & keep_mask);
        let be = merged.to_be_bytes();
        id.0[0] = be[0];
        id.0[1] = be[1];
        id
    }

    /// The raw bytes of the identifier.
    pub const fn as_bytes(&self) -> &[u8; PEER_ID_BYTES] {
        &self.0
    }

    /// XOR distance to another peer ID.
    pub fn distance(&self, other: &PeerId) -> Distance {
        let mut bytes = [0u8; PEER_ID_BYTES];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.0[i] ^ other.0[i];
        }
        Distance::from_bytes(bytes)
    }

    /// The Kademlia bucket index of `other` relative to `self`: the position
    /// of the highest differing bit, in `0..256`, or `None` for the peer
    /// itself.
    ///
    /// Larger indices mean *closer* peers (more shared prefix bits map to
    /// lower distances, and we follow the go-libp2p convention of indexing
    /// buckets by common-prefix length).
    pub fn bucket_index(&self, other: &PeerId) -> Option<u32> {
        let d = self.distance(other);
        let lz = d.leading_zeros();
        if lz == 256 {
            None
        } else {
            Some(lz)
        }
    }

    /// A short hexadecimal form (first 8 hex digits) for logs and reports.
    pub(crate) fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The full hexadecimal form.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PeerId({})", self.short())
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "12D3Koo{}", self.short())
    }
}

impl From<[u8; PEER_ID_BYTES]> for PeerId {
    fn from(bytes: [u8; PEER_ID_BYTES]) -> Self {
        PeerId::from_bytes(bytes)
    }
}

impl AsRef<[u8]> for PeerId {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;


    #[test]
    fn random_ids_are_distinct() {
        let mut rng = SimRng::seed_from(1);
        let ids: Vec<PeerId> = (0..100).map(|_| PeerId::random(&mut rng)).collect();
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn derived_ids_are_stable_and_distinct() {
        assert_eq!(PeerId::derived(7), PeerId::derived(7));
        assert_ne!(PeerId::derived(7), PeerId::derived(8));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let id = PeerId::derived(3);
        assert_eq!(id.distance(&id), Distance::ZERO);
        assert_eq!(id.bucket_index(&id), None);
    }

    #[test]
    fn with_prefix_sets_leading_bits() {
        let mut rng = SimRng::seed_from(2);
        for prefix in 0..8u16 {
            let id = PeerId::with_prefix(prefix, 3, &mut rng);
            let first = id.as_bytes()[0];
            assert_eq!(first >> 5, prefix as u8, "prefix bits must match");
        }
    }

    #[test]
    fn with_prefix_zero_bits_is_plain_random() {
        let mut rng = SimRng::seed_from(3);
        // Should not panic and should not constrain anything.
        let _ = PeerId::with_prefix(0, 0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at most 16 prefix bits")]
    fn with_prefix_rejects_too_many_bits() {
        let mut rng = SimRng::seed_from(3);
        let _ = PeerId::with_prefix(0, 17, &mut rng);
    }

    #[test]
    fn short_and_hex_formats() {
        let id = PeerId::from_bytes([0xab; 32]);
        assert_eq!(id.short(), "abababab");
        assert_eq!(id.to_hex().len(), 64);
        assert!(id.to_string().starts_with("12D3Koo"));
        assert!(format!("{id:?}").contains("abababab"));
    }

    #[test]
    fn prefix_partitions_key_space() {
        // Peers with different 3-bit prefixes must differ in their first bits,
        // giving hydra heads distinct DHT regions.
        let mut rng = SimRng::seed_from(4);
        let a = PeerId::with_prefix(0, 3, &mut rng);
        let b = PeerId::with_prefix(7, 3, &mut rng);
        assert_eq!(a.bucket_index(&b), Some(0), "differ in the first bit");
    }

    #[test]
    fn distance_is_symmetric() {
        let mut rng = SimRng::seed_from(0x1d01);
        for _ in 0..256 {
            let x = PeerId::derived(rng.raw_u64());
            let y = PeerId::derived(rng.raw_u64());
            assert_eq!(x.distance(&y), y.distance(&x));
        }
    }

    #[test]
    fn distance_identity_of_indiscernibles() {
        let mut rng = SimRng::seed_from(0x1d02);
        for _ in 0..256 {
            let a = rng.raw_u64();
            // Mix in equal pairs so both sides of the equivalence are hit.
            let b = if rng.chance(0.25) { a } else { rng.raw_u64() };
            let x = PeerId::derived(a);
            let y = PeerId::derived(b);
            assert_eq!(x.distance(&y) == Distance::ZERO, x == y);
        }
    }

    #[test]
    fn xor_triangle_equality_holds() {
        // The XOR metric satisfies d(x,z) <= d(x,y) XOR-combined with
        // d(y,z); in particular d(x,z) <= d(x,y) + d(y,z) numerically.
        let mut rng = SimRng::seed_from(0x1d03);
        for _ in 0..256 {
            let x = PeerId::derived(rng.raw_u64());
            let y = PeerId::derived(rng.raw_u64());
            let z = PeerId::derived(rng.raw_u64());
            let dxz = x.distance(&z);
            let dxy = x.distance(&y);
            let dyz = y.distance(&z);
            assert!(dxz <= dxy.saturating_add(&dyz));
        }
    }

    #[test]
    fn bucket_index_in_range() {
        let mut rng = SimRng::seed_from(0x1d04);
        for _ in 0..256 {
            let x = PeerId::derived(rng.raw_u64());
            let y = PeerId::derived(rng.raw_u64());
            if let Some(idx) = x.bucket_index(&y) {
                assert!(idx < 256);
            } else {
                assert_eq!(x, y);
            }
        }
    }
}
