//! Property tests of the cross-shard partitioning primitive, the
//! `ShardMap` ownership map.
//!
//! The offline build has no proptest, so each property is checked over a
//! seeded random sample of configurations; the sample is deterministic, so
//! failures reproduce exactly.

use netsim::ShardMap;
use simclock::SimRng;

#[test]
fn shard_population_sums_to_peers_and_differs_by_at_most_one() {
    let mut rng = SimRng::seed_from(0xfeed_0001);
    for _ in 0..200 {
        let peers = rng.uniform_u64(0, 2_000_000) as usize;
        let shards = rng.uniform_u64(1, 257) as usize;
        let map = ShardMap::new(peers, shards);
        let sizes: Vec<usize> = (0..shards).map(|s| map.count(s)).collect();
        assert_eq!(
            sizes.iter().sum::<usize>(),
            peers,
            "peers {peers} shards {shards}: split must cover the population"
        );
        let min = sizes.iter().copied().min().unwrap();
        let max = sizes.iter().copied().max().unwrap();
        assert!(
            max - min <= 1,
            "peers {peers} shards {shards}: sizes differ by {} (> 1)",
            max - min
        );
    }
}

#[test]
fn shard_map_round_trips_ownership_for_fuzzed_populations() {
    let mut rng = SimRng::seed_from(0xfeed_0003);
    for _ in 0..100 {
        let peers = rng.uniform_u64(0, 10_000) as usize;
        let shards = rng.uniform_u64(1, 65) as usize;
        let map = ShardMap::new(peers, shards);
        let total: usize = (0..shards).map(|s| map.count(s)).sum();
        assert_eq!(total, peers, "counts must cover the population");
        for s in 0..shards {
            assert_eq!(
                map.start(s) + map.count(s),
                if s + 1 < shards { map.start(s + 1) } else { peers },
                "ranges must be contiguous"
            );
        }
        // Sampled globals round-trip through (owner, slot).
        for _ in 0..64.min(peers) {
            let g = rng.uniform_u64(0, peers as u64) as usize;
            let owner = map.owner(g);
            assert!(owner < shards);
            let slot = map.slot(g);
            assert_eq!(map.global(owner, slot), g, "global → (owner, slot) → global");
            assert!(slot < map.count(owner));
        }
    }
}
