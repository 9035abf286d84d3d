//! Multiaddresses and IP address grouping.
//!
//! libp2p peers announce their reachable endpoints as multiaddresses such as
//! `/ip4/1.2.3.4/tcp/4001` or `/ip4/1.2.3.4/udp/4001/quic`. The paper uses
//! the *IP part* of the multiaddress a connection was established from to
//! group peer IDs into probable participants (Section V-A): PIDs connecting
//! from the same IP are likely the same operator (hydra heads, NATed users,
//! rotating PIDs), which is one of the two network-size estimators.

use simclock::SimRng;
use std::fmt;

/// A simplified IP address: the 32-bit IPv4 or 128-bit IPv6 value.
///
/// The simulation only needs equality/grouping semantics and a printable
/// form, not real routing, so the address is stored as a plain integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IpAddress {
    /// An IPv4 address.
    V4(u32),
    /// An IPv6 address (the measurement VM in the paper was v4-only, but
    /// remote peers do announce v6 addresses).
    V6(u128),
}

impl IpAddress {
    /// Generates a random public-looking IPv4 address.
    pub fn random_v4(rng: &mut SimRng) -> Self {
        // Avoid the 0.x, 10.x, 127.x and 192.168.x ranges so addresses look
        // like public internet hosts in reports.
        loop {
            let raw = rng.raw_u64() as u32;
            let first = (raw >> 24) as u8;
            if first == 0 || first == 10 || first == 127 || first == 192 || first >= 224 {
                continue;
            }
            return IpAddress::V4(raw);
        }
    }
}

impl fmt::Display for IpAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpAddress::V4(v) => {
                let b = v.to_be_bytes();
                write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
            }
            IpAddress::V6(v) => {
                let b = v.to_be_bytes();
                let segments: Vec<String> = b
                    .chunks(2)
                    .map(|c| format!("{:x}", u16::from_be_bytes([c[0], c[1]])))
                    .collect();
                write!(f, "{}", segments.join(":"))
            }
        }
    }
}

/// The transport part of a multiaddress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Transport {
    /// Plain TCP.
    Tcp,
    /// QUIC over UDP.
    Quic,
    /// WebSocket over TCP.
    Ws,
    /// A relayed (circuit) connection; the observed address is the relay's.
    Circuit,
}

impl Transport {
    /// All transport variants, for distribution sampling.
    pub const ALL: [Transport; 4] = [Transport::Tcp, Transport::Quic, Transport::Ws, Transport::Circuit];
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Transport::Tcp => "tcp",
            Transport::Quic => "quic",
            Transport::Ws => "ws",
            Transport::Circuit => "p2p-circuit",
        };
        f.write_str(s)
    }
}

/// A simplified multiaddress: IP address, transport and port.
///
/// # Example
///
/// ```
/// use p2pmodel::{IpAddress, Multiaddr, Transport};
///
/// let addr = Multiaddr::new(IpAddress::V4(0x01020304), Transport::Tcp, 4001);
/// assert_eq!(addr.to_string(), "/ip4/1.2.3.4/tcp/4001");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Multiaddr {
    ip: IpAddress,
    transport: Transport,
    port: u16,
}

impl Multiaddr {
    /// Creates a multiaddress from its parts.
    pub const fn new(ip: IpAddress, transport: Transport, port: u16) -> Self {
        Multiaddr { ip, transport, port }
    }

    /// The default go-ipfs swarm address for a host (`/ip4/<ip>/tcp/4001`).
    pub const fn default_swarm(ip: IpAddress) -> Self {
        Multiaddr::new(ip, Transport::Tcp, 4001)
    }

    /// The IP part, which Section V-A groups peers by.
    pub const fn ip(&self) -> IpAddress {
        self.ip
    }

    /// The transport part.
    pub const fn transport(&self) -> Transport {
        self.transport
    }

    /// The port part.
    pub const fn port(&self) -> u16 {
        self.port
    }
}

impl fmt::Display for Multiaddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let family = match self.ip {
            IpAddress::V4(_) => "ip4",
            IpAddress::V6(_) => "ip6",
        };
        match self.transport {
            Transport::Tcp => write!(f, "/{family}/{}/tcp/{}", self.ip, self.port),
            Transport::Quic => write!(f, "/{family}/{}/udp/{}/quic", self.ip, self.port),
            Transport::Ws => write!(f, "/{family}/{}/tcp/{}/ws", self.ip, self.port),
            Transport::Circuit => write!(f, "/{family}/{}/tcp/{}/p2p-circuit", self.ip, self.port),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;


    #[test]
    fn ipv4_display_is_dotted_quad() {
        assert_eq!(IpAddress::V4(0x7f000001).to_string(), "127.0.0.1");
        assert_eq!(IpAddress::V4(0x01020304).to_string(), "1.2.3.4");
    }

    #[test]
    fn random_v4_avoids_reserved_prefixes() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..500 {
            let ip = IpAddress::random_v4(&mut rng);
            let IpAddress::V4(v) = ip else { panic!("expected v4") };
            let first = (v >> 24) as u8;
            assert!(first != 0 && first != 10 && first != 127 && first != 192 && first < 224);
        }
    }

    #[test]
    fn multiaddr_display_per_transport() {
        let ip = IpAddress::V4(0x01020304);
        assert_eq!(Multiaddr::new(ip, Transport::Tcp, 4001).to_string(), "/ip4/1.2.3.4/tcp/4001");
        assert_eq!(
            Multiaddr::new(ip, Transport::Quic, 4001).to_string(),
            "/ip4/1.2.3.4/udp/4001/quic"
        );
        assert_eq!(
            Multiaddr::new(ip, Transport::Ws, 443).to_string(),
            "/ip4/1.2.3.4/tcp/443/ws"
        );
        assert_eq!(
            Multiaddr::new(ip, Transport::Circuit, 4001).to_string(),
            "/ip4/1.2.3.4/tcp/4001/p2p-circuit"
        );
        let ip6 = IpAddress::V6(0x2001_0db8_85a3_0000_0000_8a2e_0370_7334);
        assert_eq!(
            Multiaddr::new(ip6, Transport::Tcp, 4001).to_string(),
            "/ip6/2001:db8:85a3:0:0:8a2e:370:7334/tcp/4001"
        );
    }

    #[test]
    fn default_swarm_uses_port_4001() {
        let addr = Multiaddr::default_swarm(IpAddress::V4(0x01020304));
        assert_eq!(addr.port(), 4001);
        assert_eq!(addr.transport(), Transport::Tcp);
    }

    #[test]
    fn grouping_by_ip_ignores_port_and_transport() {
        let mut rng = SimRng::seed_from(0x3a02);
        for _ in 0..256 {
            let raw = rng.raw_u64() as u32;
            let p1 = rng.uniform_u64(1, u16::MAX as u64 + 1) as u16;
            let p2 = rng.uniform_u64(1, u16::MAX as u64 + 1) as u16;
            let a = Multiaddr::new(IpAddress::V4(raw), Transport::Tcp, p1);
            let b = Multiaddr::new(IpAddress::V4(raw), Transport::Quic, p2);
            assert_eq!(a.ip(), b.ip());
        }
    }
}
