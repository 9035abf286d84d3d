//! IP address assignment.
//!
//! Section V-A groups PIDs by the IP address they connected from, so the
//! structure of IP sharing matters:
//!
//! * most peers sit alone on their address (the paper found 44 301 groups of
//!   size one and 40 193 PIDs with unique IPs),
//! * the 1 026 of the 1 028 hydra heads share just **11** addresses (9 × 100,
//!   1 × 98, 1 × 28 — the last two co-located with two go-ipfs nodes),
//! * one address hosted 2 156 PIDs with identical metadata (a rotating-PID
//!   operator behind one machine),
//! * NAT and small cloud providers put handfuls of unrelated peers behind a
//!   shared address.

use p2pmodel::{IpAddress, Multiaddr, Transport};
use simclock::SimRng;

/// Assigns addresses to peers, tracking the special shared-IP groups the
/// paper describes.
#[derive(Debug)]
pub struct IpAllocator {
    rng: SimRng,
    hydra_ips: Vec<IpAddress>,
    hydra_assigned: usize,
    rotator_ip: IpAddress,
    nat_pools: Vec<IpAddress>,
}

impl IpAllocator {
    /// Hydra heads per shared address (go-libp2p's hydra deployments run ~100
    /// heads per host).
    pub const HYDRA_HEADS_PER_IP: usize = 100;

    /// Creates an allocator with its own RNG stream.
    pub(crate) fn new(rng: &mut SimRng) -> Self {
        let mut rng = rng.fork(0x1b);
        let hydra_ips = (0..11).map(|_| IpAddress::random_v4(&mut rng)).collect();
        let rotator_ip = IpAddress::random_v4(&mut rng);
        let nat_pools = (0..64).map(|_| IpAddress::random_v4(&mut rng)).collect();
        IpAllocator {
            rng,
            hydra_ips,
            hydra_assigned: 0,
            rotator_ip,
            nat_pools,
        }
    }

    /// A unique public address for a peer that shares its IP with nobody.
    pub(crate) fn unique(&mut self) -> Multiaddr {
        let transport = if self.rng.chance(0.25) {
            Transport::Quic
        } else {
            Transport::Tcp
        };
        Multiaddr::new(IpAddress::random_v4(&mut self.rng), transport, 4001)
    }

    /// The address for the next hydra head: heads fill up the 11 shared
    /// addresses round-robin in blocks of [`Self::HYDRA_HEADS_PER_IP`].
    pub(crate) fn hydra(&mut self) -> Multiaddr {
        let idx = (self.hydra_assigned / Self::HYDRA_HEADS_PER_IP).min(self.hydra_ips.len() - 1);
        self.hydra_assigned += 1;
        // Each head listens on its own port on the shared host.
        let port = 3000 + (self.hydra_assigned % Self::HYDRA_HEADS_PER_IP) as u16;
        Multiaddr::new(self.hydra_ips[idx], Transport::Tcp, port)
    }

    /// The address of the rotating-PID operator (one IP, thousands of PIDs).
    pub(crate) fn rotator(&mut self) -> Multiaddr {
        let port = 4001 + self.rng.jitter(0, 2000) as u16;
        Multiaddr::new(self.rotator_ip, Transport::Tcp, port)
    }

    /// An address drawn from a small pool of NAT / shared-cloud addresses.
    pub(crate) fn nat_shared(&mut self) -> Multiaddr {
        let ip = *self.rng.choose(&self.nat_pools);
        let port = 1024 + self.rng.jitter(0, 60_000) as u16;
        Multiaddr::new(ip, Transport::Tcp, port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn allocator() -> IpAllocator {
        let mut rng = SimRng::seed_from(7);
        IpAllocator::new(&mut rng)
    }

    #[test]
    fn unique_addresses_rarely_collide() {
        let mut alloc = allocator();
        let ips: BTreeSet<IpAddress> = (0..2000).map(|_| alloc.unique().ip()).collect();
        assert!(ips.len() > 1990, "unique addresses should essentially never collide");
    }

    #[test]
    fn hydra_heads_share_eleven_addresses() {
        let mut alloc = allocator();
        let addrs: Vec<Multiaddr> = (0..1028).map(|_| alloc.hydra()).collect();
        let ips: BTreeSet<IpAddress> = addrs.iter().map(|a| a.ip()).collect();
        assert_eq!(ips.len(), 11, "1 028 heads must map onto 11 addresses");
        // The first 9 addresses carry 100 heads each; the remainder spill
        // into the last two.
        let first_ip = addrs[0].ip();
        let first_count = addrs.iter().filter(|a| a.ip() == first_ip).count();
        assert_eq!(first_count, IpAllocator::HYDRA_HEADS_PER_IP);
    }

    #[test]
    fn rotator_addresses_share_one_ip() {
        let mut alloc = allocator();
        let ips: BTreeSet<IpAddress> = (0..500).map(|_| alloc.rotator().ip()).collect();
        assert_eq!(ips.len(), 1);
        assert_eq!(*ips.iter().next().unwrap(), alloc.rotator_ip);
    }

    #[test]
    fn nat_pool_is_small_and_shared() {
        let mut alloc = allocator();
        let ips: BTreeSet<IpAddress> = (0..1000).map(|_| alloc.nat_shared().ip()).collect();
        assert!(ips.len() <= 64);
        assert!(ips.len() > 10, "the pool should actually be used");
    }

    #[test]
    fn hydra_ips_are_disjoint_from_rotator() {
        let alloc = allocator();
        assert!(!alloc.hydra_ips.contains(&alloc.rotator_ip));
        assert_eq!(alloc.hydra_ips.len(), 11);
    }

    #[test]
    fn allocation_is_deterministic_per_seed() {
        let mut a = allocator();
        let mut b = allocator();
        for _ in 0..50 {
            assert_eq!(a.unique(), b.unique());
            assert_eq!(a.hydra(), b.hydra());
            assert_eq!(a.nat_shared(), b.nat_shared());
        }
    }
}
