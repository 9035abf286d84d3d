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
/// length, by slot, ordered from least- to most-recently seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct KBucket {
    slots: Vec<u32>,
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
            slots: Vec::new(),
            capacity,
        }
    }

    /// Number of peers currently in the bucket.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the bucket contains the peer in `slot`.
    pub(crate) fn contains(&self, slot: u32) -> bool {
        self.slots.contains(&slot)
    }

    /// Inserts or refreshes a peer.
    ///
    /// * If the peer is already present it is moved to the most-recently-seen
    ///   position and `true` is returned.
    /// * If the bucket has room the peer is appended and `true` is returned.
    /// * If the bucket is full the peer is rejected and `false` is returned
    ///   (Kademlia prefers long-lived peers, which is also why crawlers see a
    ///   stable core).
    pub(crate) fn insert(&mut self, slot: u32) -> bool {
        if let Some(pos) = self.slots.iter().position(|&s| s == slot) {
            self.slots.remove(pos);
            self.slots.push(slot);
            return true;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
            return true;
        }
        false
    }

    /// Removes a peer, returning whether it was present.
    pub(crate) fn remove(&mut self, slot: u32) -> bool {
        if let Some(pos) = self.slots.iter().position(|&s| s == slot) {
            self.slots.remove(pos);
            true
        } else {
            false
        }
    }

    /// Iterates over the peers from least- to most-recently seen.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().copied()
    }
}

/// A Kademlia routing table for a local peer.
///
/// Entries are *slots*: indices into a `&[PeerId]` the caller owns and
/// passes to every method that needs an entry's ID (bucket placement,
/// unfolding, distance ranking). One table is 4 bytes per entry, and a
/// network of tables shares one list of IDs.
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
/// let peers: Vec<PeerId> = (0..50).map(PeerId::derived).collect();
/// let mut table = RoutingTable::new(peers[0]);
/// for slot in 1..50 {
///     table.insert(&peers, slot);
/// }
/// let mut closest = Vec::new();
/// table.closest(&peers, &PeerId::derived(1000), 20, &mut closest);
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

    /// Inserts the peer in `slot` (whose ID is `peers[slot]`), unfolding the
    /// last bucket if necessary.
    ///
    /// Returns `true` if the peer is now present in the table. The local peer
    /// itself is never inserted.
    pub fn insert(&mut self, peers: &[PeerId], slot: u32) -> bool {
        let peer = &peers[slot as usize];
        loop {
            let idx = match self.bucket_index_for(peer) {
                Some(idx) => idx,
                None => return false,
            };
            let is_last = idx == self.buckets.len() - 1;
            if self.buckets[idx].insert(slot) {
                return true;
            }
            // The target bucket is full. Only the last bucket can be unfolded;
            // for any other bucket the insert fails (standard Kademlia).
            if !is_last || self.buckets.len() >= KEY_BITS as usize {
                return false;
            }
            self.unfold_last_bucket(peers);
        }
    }

    fn unfold_last_bucket(&mut self, peers: &[PeerId]) {
        let last_idx = self.buckets.len() - 1;
        let old = std::mem::replace(&mut self.buckets[last_idx], KBucket::new(self.bucket_size));
        self.buckets.push(KBucket::new(self.bucket_size));
        for slot in old.iter() {
            let idx = self
                .bucket_index_for(&peers[slot as usize])
                .expect("stored peers differ from local");
            // Re-inserting into a freshly split pair of buckets cannot fail
            // unless the distribution is pathological; drop overflow silently
            // exactly like an over-full Kademlia bucket would.
            let _ = self.buckets[idx].insert(slot);
        }
    }

    /// Removes the peer in `slot` from the table, returning whether it was
    /// present.
    pub fn remove(&mut self, peers: &[PeerId], slot: u32) -> bool {
        match self.bucket_index_for(&peers[slot as usize]) {
            Some(idx) => self.buckets[idx].remove(slot),
            None => false,
        }
    }

    /// Whether the table contains the peer in `slot`.
    pub fn contains(&self, peers: &[PeerId], slot: u32) -> bool {
        self.bucket_index_for(&peers[slot as usize])
            .is_some_and(|idx| self.buckets[idx].contains(slot))
    }

    /// Iterates over the slot of every peer in the table.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.buckets.iter().flat_map(KBucket::iter)
    }

    /// Fills `out` with the `count` peers closest to `target` in XOR
    /// distance, closest first, each with its distance to `target`.
    ///
    /// Iterative lookups call this once per hop, so the table is *not* fully
    /// sorted: each entry's distance is computed once,
    /// `select_nth_unstable_by_key` partitions the k closest in O(n) and only
    /// that prefix is sorted, for O(n + k log k) per call instead of
    /// O(n log n). Distinct IDs have distinct distances to one target, so
    /// the order is total.
    pub fn closest(
        &self,
        peers: &[PeerId],
        target: &PeerId,
        count: usize,
        out: &mut Vec<(Distance, u32)>,
    ) {
        out.clear();
        if count == 0 {
            return;
        }
        out.extend(
            self.iter()
                .map(|slot| (peers[slot as usize].distance(target), slot)),
        );
        if count < out.len() {
            out.select_nth_unstable_by_key(count - 1, |entry| entry.0);
            out.truncate(count);
        }
        out.sort_unstable_by_key(|entry| entry.0);
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
        let (a, b, c) = (1, 2, 3);
        assert!(bucket.insert(a));
        assert!(bucket.insert(b));
        assert_eq!(bucket.len(), 2);
        // Full bucket rejects new peers (prefers long-lived entries)...
        assert!(!bucket.insert(c));
        // ...but refreshing an existing peer succeeds and reorders.
        assert_eq!(bucket.iter().next(), Some(a));
        assert!(bucket.insert(a));
        assert_eq!(bucket.iter().next(), Some(b));
        assert!(bucket.remove(b));
        assert!(!bucket.remove(b));
        assert!(bucket.insert(c));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn bucket_rejects_zero_capacity() {
        let _ = KBucket::new(0);
    }

    /// The peers of the distinct nonzero `labels`, by slot, behind the
    /// local peer in slot 0.
    fn labelled(labels: &[u64]) -> Vec<PeerId> {
        let mut labels = labels.to_vec();
        labels.sort_unstable();
        labels.dedup();
        std::iter::once(0)
            .chain(labels)
            .map(PeerId::derived)
            .collect()
    }

    #[test]
    fn routing_table_never_stores_local_peer() {
        let peers = labelled(&[]);
        let mut table = RoutingTable::new(peers[0]);
        assert!(!table.insert(&peers, 0));
        assert!(table.is_empty());
    }

    #[test]
    fn routing_table_insert_remove_roundtrip() {
        let peers = labelled(&[1]);
        let mut table = RoutingTable::new(peers[0]);
        assert!(table.insert(&peers, 1));
        assert!(table.contains(&peers, 1));
        assert_eq!(table.len(), 1);
        assert!(table.remove(&peers, 1));
        assert!(!table.contains(&peers, 1));
        assert!(!table.remove(&peers, 1));
    }

    #[test]
    fn routing_table_unfolds_and_holds_many_peers() {
        let local = PeerId::derived(0);
        let mut table = RoutingTable::new(local);
        let peers = random_ids(2000, 42);
        let inserted = (0..2000).filter(|&slot| table.insert(&peers, slot)).count();
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
        let peers = random_ids(500, 7);
        for slot in 0..500 {
            table.insert(&peers, slot);
        }
        let target = PeerId::derived(99);
        let mut closest = Vec::new();
        table.closest(&peers, &target, 20, &mut closest);
        assert_eq!(closest.len(), 20);
        for w in closest.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for &(distance, slot) in &closest {
            // Every returned peer must actually be in the table, with its
            // own distance.
            assert!(table.contains(&peers, slot));
            assert_eq!(distance, peers[slot as usize].distance(&target));
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
            let peers = labelled(&labels);
            let mut table = RoutingTable::new(peers[0]);
            for slot in 1..peers.len() as u32 {
                table.insert(&peers, slot);
            }
            let len_before = table.len();
            for slot in 1..peers.len() as u32 {
                // Re-inserting peers that are present must not change the size.
                if table.contains(&peers, slot) {
                    table.insert(&peers, slot);
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
            let peers = random_ids(200, 5);
            for slot in 0..200 {
                table.insert(&peers, slot);
            }
            let target = PeerId::derived(12345);
            let (mut small, mut large) = (Vec::new(), Vec::new());
            table.closest(&peers, &target, count_a.min(count_b), &mut small);
            table.closest(&peers, &target, count_a.max(count_b), &mut large);
            assert_eq!(&large[..small.len()], &small[..]);
        }
    }

    #[test]
    fn no_bucket_exceeds_capacity() {
        let mut rng = simclock::SimRng::seed_from(0x4a03);
        for _ in 0..16 {
            let labels = random_labels(&mut rng, 400, 50_000);
            let peers = labelled(&labels);
            let table_size = 8;
            let mut table = RoutingTable::with_bucket_size(peers[0], table_size);
            for slot in 1..peers.len() as u32 {
                table.insert(&peers, slot);
            }
            for bucket in &table.buckets {
                assert!(bucket.len() <= table_size);
            }
        }
    }
}
