//! Iterative Kademlia `FIND_NODE` lookups.
//!
//! The crawler baseline of Fig. 2 walks the DHT by issuing iterative lookups:
//! starting from a set of seed peers, it repeatedly queries the α closest
//! not-yet-queried candidates for the k peers closest to the target, merges
//! the responses into its shortlist and stops when the k closest known peers
//! have all been queried. [`IterativeLookup`] is that state machine, sans-IO:
//! the caller owns the transport (in this repo, replayed routing-table
//! snapshots) and feeds responses back through [`IterativeLookup::on_response`].
//!
//! Termination is structural, not probabilistic: every peer is queried at
//! most once, candidates are drawn from a finite population, and
//! [`IterativeLookup::next_batch`] returns an empty batch as soon as the top-k
//! shortlist holds no unqueried peer — `tests/crawler_properties.rs` fuzzes
//! this over seeded topologies.

use crate::kademlia::Distance;
use crate::peer_id::PeerId;
use std::collections::BTreeSet;

/// Default lookup concurrency (`α = 3` in the Kademlia paper and go-libp2p).
pub const DEFAULT_ALPHA: usize = 3;

/// The state of one iterative `FIND_NODE` lookup.
///
/// # Example
///
/// ```
/// use p2pmodel::{IterativeLookup, PeerId};
///
/// let target = PeerId::derived(42);
/// let seeds = (1..=5).map(PeerId::derived);
/// let mut lookup = IterativeLookup::new(target, 20, 3, seeds);
/// while let Some(batch) = lookup.next_batch() {
///     for peer in batch {
///         // "query" the peer: here everyone responds with the same peers.
///         lookup.on_response((6..=9).map(PeerId::derived));
///     }
/// }
/// assert!(!lookup.closest(20).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct IterativeLookup {
    target: PeerId,
    k: usize,
    alpha: usize,
    /// Every peer the lookup knows of, sorted by distance to the target.
    /// XOR distances of distinct peers to a fixed target are distinct, so
    /// the order — and with it the whole lookup — is deterministic.
    shortlist: Vec<(Distance, PeerId)>,
    queried: BTreeSet<PeerId>,
}

impl IterativeLookup {
    /// Starts a lookup towards `target` with the given shortlist size `k`,
    /// concurrency `alpha` and seed peers.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `alpha` is zero.
    pub fn new(
        target: PeerId,
        k: usize,
        alpha: usize,
        seeds: impl IntoIterator<Item = PeerId>,
    ) -> Self {
        assert!(k > 0, "lookup shortlist size must be positive");
        assert!(alpha > 0, "lookup concurrency must be positive");
        let mut lookup = IterativeLookup {
            target,
            k,
            alpha,
            shortlist: Vec::new(),
            queried: BTreeSet::new(),
        };
        lookup.on_response(seeds);
        lookup
    }

    /// Merges queried-peer responses (or seeds) into the shortlist.
    pub fn on_response(&mut self, peers: impl IntoIterator<Item = PeerId>) {
        for peer in peers {
            let distance = peer.distance(&self.target);
            match self.shortlist.binary_search_by(|(d, _)| d.cmp(&distance)) {
                // Same distance to the target means the same peer under the
                // XOR metric: already known.
                Ok(_) => {}
                Err(pos) => self.shortlist.insert(pos, (distance, peer)),
            }
        }
    }

    /// The next up-to-α unqueried peers among the k closest known, marked as
    /// queried. Returns `None` when the lookup has converged: every peer in
    /// the current top-k shortlist has been queried.
    pub fn next_batch(&mut self) -> Option<Vec<PeerId>> {
        let batch: Vec<PeerId> = self
            .shortlist
            .iter()
            .take(self.k)
            .map(|(_, peer)| *peer)
            .filter(|peer| !self.queried.contains(peer))
            .take(self.alpha)
            .collect();
        if batch.is_empty() {
            return None;
        }
        for peer in &batch {
            self.queried.insert(*peer);
        }
        Some(batch)
    }

    /// Number of queries issued so far.
    pub fn queries(&self) -> usize {
        self.queried.len()
    }

    /// The `count` closest known peers, closest first.
    pub fn closest(&self, count: usize) -> Vec<PeerId> {
        self.shortlist
            .iter()
            .take(count)
            .map(|(_, peer)| *peer)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kademlia::RoutingTable;
    use simclock::SimRng;

    #[test]
    fn lookup_terminates_and_finds_seeds() {
        let target = PeerId::derived(1000);
        let mut lookup = IterativeLookup::new(target, 20, 3, (1..=30).map(PeerId::derived));
        let mut queries = 0;
        while let Some(batch) = lookup.next_batch() {
            queries += batch.len();
            for _ in batch {
                lookup.on_response(std::iter::empty());
            }
        }
        // Only the top-k shortlist is queried, never the whole candidate set.
        assert_eq!(queries, 20);
        assert_eq!(lookup.queries(), 20);
        assert_eq!(lookup.closest(20).len(), 20);
    }

    #[test]
    fn batches_respect_alpha_and_never_repeat_peers() {
        let target = PeerId::derived(7);
        let mut lookup = IterativeLookup::new(target, 10, 3, (1..=50).map(PeerId::derived));
        let mut seen = BTreeSet::new();
        while let Some(batch) = lookup.next_batch() {
            assert!(batch.len() <= 3);
            for peer in batch {
                assert!(seen.insert(peer), "peer queried twice");
            }
        }
    }

    #[test]
    fn lookup_converges_towards_the_target_over_a_real_topology() {
        // Build a small network of routing tables and drive the lookup over
        // it: the final shortlist must be closer to the target than the
        // seeds were.
        let mut rng = SimRng::seed_from(0x100c);
        let peers: Vec<PeerId> = (0..300).map(|_| PeerId::random(&mut rng)).collect();
        let tables: std::collections::HashMap<PeerId, RoutingTable> = peers
            .iter()
            .map(|&p| {
                let mut table = RoutingTable::new(p);
                for &other in &peers {
                    table.insert(other);
                }
                (p, table)
            })
            .collect();
        let target = PeerId::random(&mut rng);
        let seeds = peers[..3].to_vec();
        let seed_best = seeds.iter().map(|p| p.distance(&target)).min().unwrap();
        let mut lookup = IterativeLookup::new(target, 20, 3, seeds);
        while let Some(batch) = lookup.next_batch() {
            for peer in batch {
                lookup.on_response(tables[&peer].closest(&target, 20));
            }
        }
        let best = lookup.closest(1)[0].distance(&target);
        assert!(best <= seed_best, "lookup must not move away from the target");
        let brute_best = peers.iter().map(|p| p.distance(&target)).min().unwrap();
        assert_eq!(best, brute_best, "dense tables must find the globally closest peer");
    }

    #[test]
    fn empty_seed_lookup_is_complete_immediately() {
        let mut lookup = IterativeLookup::new(PeerId::derived(1), 20, 3, std::iter::empty());
        assert!(lookup.next_batch().is_none());
        assert!(lookup.closest(5).is_empty());
    }
}
