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
//! The lookup works on *slots*, the caller's dense peer indices, each handed
//! in with its XOR distance to the target: [`crate::RoutingTable::closest`]
//! already computed those distances for the reply, so the lookup never
//! needs a peer's ID. It keeps only the k closest candidates. That is exact:
//! nothing ever leaves the shortlist, so a candidate's rank only falls, and
//! one pushed past rank k can never again be among the k closest the lookup
//! queries.
//!
//! Termination is structural, not probabilistic: every peer is queried at
//! most once, candidates are drawn from a finite population, and
//! [`IterativeLookup::next_batch`] returns `None` as soon as the top-k
//! shortlist holds no unqueried peer — `tests/crawler_properties.rs` fuzzes
//! this over seeded topologies.

use crate::kademlia::Distance;

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
/// let peers: Vec<PeerId> = (0..10).map(PeerId::derived).collect();
/// let near = |slot: u32| (peers[slot as usize].distance(&target), slot);
/// let mut lookup = IterativeLookup::new(20, 3, (1..=5).map(near));
/// while let Some(batch) = lookup.next_batch() {
///     for _slot in batch {
///         // "query" the peer: here everyone responds with the same peers.
///         lookup.on_response((6..=9).map(near));
///     }
/// }
/// assert_eq!(lookup.queries(), 9);
/// assert_eq!(lookup.closest().count(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct IterativeLookup {
    k: usize,
    alpha: usize,
    /// The k closest candidates known, sorted by distance to the target.
    /// XOR distances of distinct peers to a fixed target are distinct, so
    /// the order — and with it the whole lookup — is deterministic.
    shortlist: Vec<Candidate>,
    queries: usize,
}

/// One shortlist entry.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    distance: Distance,
    slot: u32,
    queried: bool,
}

impl IterativeLookup {
    /// Starts a lookup with the given shortlist size `k`, concurrency
    /// `alpha` and seed peers, each a slot with its distance to the target.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `alpha` is zero.
    pub fn new(k: usize, alpha: usize, seeds: impl IntoIterator<Item = (Distance, u32)>) -> Self {
        assert!(k > 0, "lookup shortlist size must be positive");
        assert!(alpha > 0, "lookup concurrency must be positive");
        let mut lookup = IterativeLookup {
            k,
            alpha,
            shortlist: Vec::with_capacity(k),
            queries: 0,
        };
        lookup.on_response(seeds);
        lookup
    }

    /// Merges a queried peer's response (or seeds) into the shortlist: each
    /// peer is a slot with its distance to the target.
    pub fn on_response(&mut self, peers: impl IntoIterator<Item = (Distance, u32)>) {
        for (distance, slot) in peers {
            let full = self.shortlist.len() == self.k;
            if full
                && self
                    .shortlist
                    .last()
                    .is_some_and(|c| c.distance <= distance)
            {
                continue;
            }
            // Same distance to the target means the same peer under the XOR
            // metric: already known.
            if let Err(pos) = self
                .shortlist
                .binary_search_by(|c| c.distance.cmp(&distance))
            {
                if full {
                    self.shortlist.pop();
                }
                self.shortlist.insert(
                    pos,
                    Candidate {
                        distance,
                        slot,
                        queried: false,
                    },
                );
            }
        }
    }

    /// The next up-to-α unqueried peers among the k closest known, marked as
    /// queried. Returns `None` when the lookup has converged: every peer in
    /// the current top-k shortlist has been queried.
    pub fn next_batch(&mut self) -> Option<Vec<u32>> {
        let batch: Vec<u32> = self
            .shortlist
            .iter_mut()
            .filter(|c| !c.queried)
            .take(self.alpha)
            .map(|c| {
                c.queried = true;
                c.slot
            })
            .collect();
        self.queries += batch.len();
        (!batch.is_empty()).then_some(batch)
    }

    /// Number of queries issued so far.
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// The k closest known peers, closest first.
    pub fn closest(&self) -> impl Iterator<Item = u32> + '_ {
        self.shortlist.iter().map(|c| c.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kademlia::RoutingTable;
    use crate::peer_id::PeerId;
    use simclock::SimRng;
    use std::collections::BTreeSet;

    /// The lookup's input for the peers of `slots`: each with its distance
    /// to `target`.
    fn near<'a>(
        peers: &'a [PeerId],
        target: PeerId,
        slots: impl IntoIterator<Item = u32> + 'a,
    ) -> impl Iterator<Item = (Distance, u32)> + 'a {
        slots
            .into_iter()
            .map(move |slot| (peers[slot as usize].distance(&target), slot))
    }

    #[test]
    fn lookup_terminates_and_finds_seeds() {
        let peers: Vec<PeerId> = (0..=30).map(PeerId::derived).collect();
        let target = PeerId::derived(1000);
        let mut lookup = IterativeLookup::new(20, 3, near(&peers, target, 1..=30));
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
        let mut by_distance: Vec<(Distance, u32)> = near(&peers, target, 1..=30).collect();
        by_distance.sort_unstable();
        let expected: Vec<u32> = by_distance[..20].iter().map(|&(_, slot)| slot).collect();
        assert_eq!(lookup.closest().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn batches_respect_alpha_and_never_repeat_peers() {
        let peers: Vec<PeerId> = (0..=50).map(PeerId::derived).collect();
        let target = PeerId::derived(7);
        let mut lookup = IterativeLookup::new(10, 3, near(&peers, target, 1..=50));
        let mut seen = BTreeSet::new();
        while let Some(batch) = lookup.next_batch() {
            assert!(batch.len() <= 3);
            for slot in batch {
                assert!(seen.insert(slot), "peer queried twice");
                // Re-announcing every peer changes nothing.
                lookup.on_response(near(&peers, target, 1..=50));
            }
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn lookup_converges_towards_the_target_over_a_real_topology() {
        // Build a small network of routing tables and drive the lookup over
        // it: the final shortlist must be closer to the target than the
        // seeds were.
        let mut rng = SimRng::seed_from(0x100c);
        let peers: Vec<PeerId> = (0..300).map(|_| PeerId::random(&mut rng)).collect();
        let tables: Vec<RoutingTable> = peers
            .iter()
            .map(|&p| {
                let mut table = RoutingTable::new(p);
                for slot in 0..peers.len() as u32 {
                    table.insert(&peers, slot);
                }
                table
            })
            .collect();
        let target = PeerId::random(&mut rng);
        let seed_best = peers[..3]
            .iter()
            .map(|p| p.distance(&target))
            .min()
            .unwrap();
        let mut lookup = IterativeLookup::new(20, 3, near(&peers, target, 0..3));
        let mut reply = Vec::new();
        while let Some(batch) = lookup.next_batch() {
            for slot in batch {
                tables[slot as usize].closest(&peers, &target, 20, &mut reply);
                lookup.on_response(reply.iter().copied());
            }
        }
        let best_slot = lookup.closest().next().unwrap();
        let best = peers[best_slot as usize].distance(&target);
        assert!(
            best <= seed_best,
            "lookup must not move away from the target"
        );
        let brute_best = peers.iter().map(|p| p.distance(&target)).min().unwrap();
        assert_eq!(
            best, brute_best,
            "dense tables must find the globally closest peer"
        );
    }

    #[test]
    fn empty_seed_lookup_is_complete_immediately() {
        let mut lookup = IterativeLookup::new(20, 3, std::iter::empty());
        assert!(lookup.next_batch().is_none());
        assert_eq!(lookup.closest().count(), 0);
    }
}
