//! Kademlia DHT primitives: XOR distance, k-buckets and routing tables.
//!
//! IPFS content routing is a Kademlia DHT. The paper's measurement horizon
//! argument (Section III-C) rests on how a peer's position in the key space
//! determines which other peers try to keep a connection to it, and the
//! active-crawler baseline (Fig. 2) literally walks routing tables. This
//! module provides the XOR metric, the k-bucket structure and a routing table
//! with the go-libp2p default bucket size of 20.

use crate::peer_id::{PeerId, PEER_ID_BYTES};
use std::fmt;

/// Default Kademlia bucket size used by go-libp2p (`k = 20`).
pub const DEFAULT_BUCKET_SIZE: usize = 20;

/// Number of bits in the key space.
pub(crate) const KEY_BITS: u32 = (PEER_ID_BYTES as u32) * 8;

/// XOR distance between two peer IDs (a 256-bit unsigned value).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Distance([u8; PEER_ID_BYTES]);

impl Distance {
    /// The zero distance (a peer's distance to itself).
    pub const ZERO: Distance = Distance([0u8; PEER_ID_BYTES]);

    /// Creates a distance from raw big-endian bytes.
    pub const fn from_bytes(bytes: [u8; PEER_ID_BYTES]) -> Self {
        Distance(bytes)
    }

    /// Number of leading zero bits (0..=256). Equal to the common prefix
    /// length of the two peer IDs.
    pub fn leading_zeros(&self) -> u32 {
        let mut zeros = 0;
        for &b in &self.0 {
            if b == 0 {
                zeros += 8;
            } else {
                zeros += b.leading_zeros();
                break;
            }
        }
        zeros
    }

    /// Saturating big-integer addition, used only to state metric properties
    /// in tests (the triangle inequality of the XOR metric).
    #[cfg(test)]
    pub(crate) fn saturating_add(&self, other: &Distance) -> Distance {
        let mut out = [0u8; PEER_ID_BYTES];
        let mut carry = 0u16;
        for i in (0..PEER_ID_BYTES).rev() {
            let sum = self.0[i] as u16 + other.0[i] as u16 + carry;
            out[i] = (sum & 0xff) as u8;
            carry = sum >> 8;
        }
        if carry > 0 {
            Distance([0xff; PEER_ID_BYTES])
        } else {
            Distance(out)
        }
    }
}

impl fmt::Debug for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Distance(lz={})", self.leading_zeros())
    }
}

/// A single k-bucket holding up to `capacity` peers at a given common-prefix
/// length, ordered from least- to most-recently seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct KBucket {
    peers: Vec<PeerId>,
    capacity: usize,
}

impl KBucket {
    /// Creates an empty bucket with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bucket capacity must be positive");
        KBucket {
            peers: Vec::new(),
            capacity,
        }
    }

    /// Number of peers currently in the bucket.
    pub(crate) fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the bucket contains `peer`.
    pub(crate) fn contains(&self, peer: &PeerId) -> bool {
        self.peers.contains(peer)
    }

    /// Inserts or refreshes a peer.
    ///
    /// * If the peer is already present it is moved to the most-recently-seen
    ///   position and `true` is returned.
    /// * If the bucket has room the peer is appended and `true` is returned.
    /// * If the bucket is full the peer is rejected and `false` is returned
    ///   (Kademlia prefers long-lived peers, which is also why crawlers see a
    ///   stable core).
    pub(crate) fn insert(&mut self, peer: PeerId) -> bool {
        if let Some(pos) = self.peers.iter().position(|p| *p == peer) {
            self.peers.remove(pos);
            self.peers.push(peer);
            return true;
        }
        if self.peers.len() < self.capacity {
            self.peers.push(peer);
            return true;
        }
        false
    }

    /// Removes a peer, returning whether it was present.
    pub(crate) fn remove(&mut self, peer: &PeerId) -> bool {
        if let Some(pos) = self.peers.iter().position(|p| p == peer) {
            self.peers.remove(pos);
            true
        } else {
            false
        }
    }

    /// Iterates over the peers from least- to most-recently seen.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &PeerId> {
        self.peers.iter()
    }
}

/// A Kademlia routing table for a local peer.
///
/// Buckets are indexed by common-prefix length: bucket `i` contains peers
/// whose distance to the local peer has exactly `i` leading zero bits (all
/// indices `>= buckets.len() - 1` are collapsed into the last bucket, as in
/// go-libp2p's unfolding table).
///
/// # Example
///
/// ```
/// use p2pmodel::{PeerId, RoutingTable};
///
/// let local = PeerId::derived(0);
/// let mut table = RoutingTable::new(local);
/// for i in 1..50 {
///     table.insert(PeerId::derived(i));
/// }
/// let closest = table.closest(&PeerId::derived(1000), 20);
/// assert!(closest.len() <= 20);
/// assert!(!closest.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    local: PeerId,
    buckets: Vec<KBucket>,
    bucket_size: usize,
}

impl RoutingTable {
    /// Creates a routing table with the default bucket size of 20.
    pub fn new(local: PeerId) -> Self {
        Self::with_bucket_size(local, DEFAULT_BUCKET_SIZE)
    }

    /// Creates a routing table with a custom bucket size.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_size` is zero.
    pub fn with_bucket_size(local: PeerId, bucket_size: usize) -> Self {
        assert!(bucket_size > 0, "bucket size must be positive");
        RoutingTable {
            local,
            // Start with a single bucket; unfold lazily as it fills, like
            // go-libp2p. 64 buckets is ample for realistic network sizes.
            buckets: vec![KBucket::new(bucket_size)],
            bucket_size,
        }
    }

    /// Total number of peers across all buckets.
    pub(crate) fn len(&self) -> usize {
        self.buckets.iter().map(KBucket::len).sum()
    }

    /// Whether the table holds no peers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn bucket_index_for(&self, peer: &PeerId) -> Option<usize> {
        let cpl = self.local.bucket_index(peer)? as usize;
        Some(cpl.min(self.buckets.len() - 1))
    }

    /// Inserts a peer, unfolding the last bucket if necessary.
    ///
    /// Returns `true` if the peer is now present in the table. The local peer
    /// itself is never inserted.
    pub fn insert(&mut self, peer: PeerId) -> bool {
        if peer == self.local {
            return false;
        }
        loop {
            let idx = match self.bucket_index_for(&peer) {
                Some(idx) => idx,
                None => return false,
            };
            let is_last = idx == self.buckets.len() - 1;
            if self.buckets[idx].insert(peer) {
                return true;
            }
            // The target bucket is full. Only the last bucket can be unfolded;
            // for any other bucket the insert fails (standard Kademlia).
            if !is_last || self.buckets.len() >= KEY_BITS as usize {
                return false;
            }
            self.unfold_last_bucket();
        }
    }

    fn unfold_last_bucket(&mut self) {
        let last_idx = self.buckets.len() - 1;
        let old = std::mem::replace(&mut self.buckets[last_idx], KBucket::new(self.bucket_size));
        self.buckets.push(KBucket::new(self.bucket_size));
        for peer in old.iter().copied().collect::<Vec<_>>() {
            let cpl = self
                .local
                .bucket_index(&peer)
                .expect("stored peers differ from local") as usize;
            let idx = cpl.min(self.buckets.len() - 1);
            // Re-inserting into a freshly split pair of buckets cannot fail
            // unless the distribution is pathological; drop overflow silently
            // exactly like an over-full Kademlia bucket would.
            let _ = self.buckets[idx].insert(peer);
        }
    }

    /// Removes a peer from the table, returning whether it was present.
    pub fn remove(&mut self, peer: &PeerId) -> bool {
        match self.bucket_index_for(peer) {
            Some(idx) => self.buckets[idx].remove(peer),
            None => false,
        }
    }

    /// Whether the table contains `peer`.
    pub fn contains(&self, peer: &PeerId) -> bool {
        self.bucket_index_for(peer)
            .map(|idx| self.buckets[idx].contains(peer))
            .unwrap_or(false)
    }

    /// Iterates over every peer in the table.
    pub fn iter(&self) -> impl Iterator<Item = &PeerId> {
        self.buckets.iter().flat_map(KBucket::iter)
    }

    /// The `count` peers closest to `target` in XOR distance, closest first.
    ///
    /// Iterative lookups call this once per hop, so the table is *not* fully
    /// sorted: `select_nth_unstable_by_key` partitions the k closest peers in
    /// O(n) and only that prefix is sorted, for O(n + k log k) per call
    /// instead of O(n log n).
    pub fn closest(&self, target: &PeerId, count: usize) -> Vec<PeerId> {
        if count == 0 {
            return Vec::new();
        }
        let mut peers: Vec<PeerId> = self.iter().copied().collect();
        if count < peers.len() {
            peers.select_nth_unstable_by_key(count - 1, |p| p.distance(target));
            peers.truncate(count);
        }
        peers.sort_by_key(|p| p.distance(target));
        peers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use simclock::SimRng;

    fn random_ids(n: usize, seed: u64) -> Vec<PeerId> {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| PeerId::random(&mut rng)).collect()
    }

    #[test]
    fn distance_leading_zeros_extremes() {
        assert_eq!(Distance::ZERO.leading_zeros(), 256);
        let mut bytes = [0u8; PEER_ID_BYTES];
        bytes[0] = 0x80;
        assert_eq!(Distance::from_bytes(bytes).leading_zeros(), 0);
        bytes[0] = 0x01;
        assert_eq!(Distance::from_bytes(bytes).leading_zeros(), 7);
    }

    #[test]
    fn saturating_add_saturates() {
        let max = Distance::from_bytes([0xff; PEER_ID_BYTES]);
        let one = {
            let mut b = [0u8; PEER_ID_BYTES];
            b[PEER_ID_BYTES - 1] = 1;
            Distance::from_bytes(b)
        };
        assert_eq!(max.saturating_add(&one), max);
        assert_eq!(Distance::ZERO.saturating_add(&one), one);
    }

    #[test]
    fn bucket_insert_refresh_and_eviction_policy() {
        let mut bucket = KBucket::new(2);
        let a = PeerId::derived(1);
        let b = PeerId::derived(2);
        let c = PeerId::derived(3);
        assert!(bucket.insert(a));
        assert!(bucket.insert(b));
        assert_eq!(bucket.len(), 2);
        // Full bucket rejects new peers (prefers long-lived entries)...
        assert!(!bucket.insert(c));
        // ...but refreshing an existing peer succeeds and reorders.
        assert_eq!(bucket.iter().next(), Some(&a));
        assert!(bucket.insert(a));
        assert_eq!(bucket.iter().next(), Some(&b));
        assert!(bucket.remove(&b));
        assert!(!bucket.remove(&b));
        assert!(bucket.insert(c));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn bucket_rejects_zero_capacity() {
        let _ = KBucket::new(0);
    }

    #[test]
    fn routing_table_never_stores_local_peer() {
        let local = PeerId::derived(0);
        let mut table = RoutingTable::new(local);
        assert!(!table.insert(local));
        assert!(table.is_empty());
    }

    #[test]
    fn routing_table_insert_remove_roundtrip() {
        let local = PeerId::derived(0);
        let mut table = RoutingTable::new(local);
        let peer = PeerId::derived(1);
        assert!(table.insert(peer));
        assert!(table.contains(&peer));
        assert_eq!(table.len(), 1);
        assert!(table.remove(&peer));
        assert!(!table.contains(&peer));
        assert!(!table.remove(&peer));
    }

    #[test]
    fn routing_table_unfolds_and_holds_many_peers() {
        let local = PeerId::derived(0);
        let mut table = RoutingTable::new(local);
        let peers = random_ids(2000, 42);
        let inserted = peers.iter().filter(|p| table.insert(**p)).count();
        // With k=20 and ~9 meaningful buckets, the table holds a few hundred
        // peers; the exact number depends on the distribution but it must be
        // well above a single bucket and below the attempted total.
        assert!(inserted > 100, "inserted only {inserted}");
        assert!(inserted < 2000);
        assert_eq!(table.len(), inserted);
        assert!(table.buckets.len() > 1);
    }

    #[test]
    fn closest_returns_sorted_prefix() {
        let local = PeerId::derived(0);
        let mut table = RoutingTable::new(local);
        for p in random_ids(500, 7) {
            table.insert(p);
        }
        let target = PeerId::derived(99);
        let closest = table.closest(&target, 20);
        assert!(closest.len() <= 20);
        for w in closest.windows(2) {
            assert!(w[0].distance(&target) <= w[1].distance(&target));
        }
        // Every returned peer must actually be in the table.
        for p in &closest {
            assert!(table.contains(p));
        }
    }

    fn random_labels(rng: &mut simclock::SimRng, max_len: usize, high: u64) -> Vec<u64> {
        let len = rng.uniform_u64(1, max_len as u64) as usize;
        (0..len).map(|_| rng.uniform_u64(1, high)).collect()
    }

    #[test]
    fn insert_is_idempotent_for_membership() {
        let mut rng = simclock::SimRng::seed_from(0x4a01);
        for _ in 0..32 {
            let labels = random_labels(&mut rng, 100, 10_000);
            let local = PeerId::derived(0);
            let mut table = RoutingTable::new(local);
            for &l in &labels {
                table.insert(PeerId::derived(l));
            }
            let len_before = table.len();
            for &l in &labels {
                // Re-inserting peers that are present must not change the size.
                let peer = PeerId::derived(l);
                if table.contains(&peer) {
                    table.insert(peer);
                }
            }
            assert_eq!(table.len(), len_before);
        }
    }

    #[test]
    fn closest_is_monotone_in_count() {
        let mut rng = simclock::SimRng::seed_from(0x4a02);
        for _ in 0..32 {
            let count_a = rng.uniform_u64(1, 30) as usize;
            let count_b = rng.uniform_u64(1, 30) as usize;
            let local = PeerId::derived(0);
            let mut table = RoutingTable::new(local);
            for p in random_ids(200, 5) {
                table.insert(p);
            }
            let target = PeerId::derived(12345);
            let small = table.closest(&target, count_a.min(count_b));
            let large = table.closest(&target, count_a.max(count_b));
            assert_eq!(&large[..small.len()], &small[..]);
        }
    }

    #[test]
    fn no_bucket_exceeds_capacity() {
        let mut rng = simclock::SimRng::seed_from(0x4a03);
        for _ in 0..16 {
            let labels = random_labels(&mut rng, 400, 50_000);
            let local = PeerId::derived(0);
            let table_size = 8;
            let mut table = RoutingTable::with_bucket_size(local, table_size);
            for &l in &labels {
                table.insert(PeerId::derived(l));
            }
            for bucket in &table.buckets {
                assert!(bucket.len() <= table_size);
            }
        }
    }
}
