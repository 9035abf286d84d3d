//! The simulation engine: one protocol, run on one shard or on many.
//!
//! Every run — [`crate::Network::run`], [`crate::Network::run_sharded`] and
//! [`run_full_protocol`] — executes the protocol implemented here: peer
//! sessions, dials, gossip, identify, metadata pushes, scripted joins and
//! retirements, and the observers' connection-manager maintenance. Two
//! drivers execute it:
//!
//! * the **direct driver** runs the whole population as one shard through
//!   one [`KeyedEventQueue`], with no epochs and no mailboxes.
//!   [`crate::Network::run`] uses it;
//! * the **lock-step driver** partitions the population across `S` shards
//!   and runs them over sealed simulated time-slices (*epochs*), exchanging
//!   cross-shard events through mailboxes at every barrier.
//!   [`run_full_protocol`] and [`crate::Network::run_sharded`] use it.
//!
//! Both produce the byte-identical trace for any shard count and any
//! worker-thread count. Each observer appends its observations to its own
//! [`ObservationTable`], and the assembly hands the tables out as the
//! run's [`ObserverLog`]s: the tables are the only way events leave the
//! engine.
//!
//! # Ownership
//!
//! The global peer index space is the initial population followed by every
//! scripted joiner in stream order. It is split into contiguous ranges by
//! [`ShardMap`] (`owner = map.owner(g)`). Observers are round-robined:
//! observer `o` lives on shard `o % S`. The shard owning an entity holds its
//! authoritative state and is the only shard that consumes its RNG stream.
//!
//! # Epochs and mailboxes
//!
//! Every *cross-entity* interaction (a remote peer dialing an observer, a
//! gossip discovery, an identify push, an online/offline notice) travels with
//! a uniform latency `L` equal to the epoch length. An event emitted at time
//! `t` inside epoch `k` therefore arrives at `t + L ≥ (k+1)·L` — strictly
//! after the epoch barrier. That is the classic conservative-lookahead
//! argument: shards can process one epoch completely independently, then
//! exchange sealed mailboxes, then start the next epoch.
//!
//! At the barrier every per-`(src, dst)` mailbox is sealed, and the
//! destination hands its inbound mailboxes, concatenated in source-shard
//! order, to its [`KeyedEventQueue`] via `schedule_batch`, which sorts them
//! by `(time, key)` and breaks ties by that concatenation order. `(time,
//! key)` is not globally unique — a peer's dials or gossip to two observers
//! can share both — but the tie order is the same in every partition: one
//! source shard emits all of one peer's events, in handler order.
//!
//! Scripted population events need no mailbox: they are known before the
//! run starts. A joiner's timeline simply starts at its join time, and a
//! retirement is scheduled at its exact time on the peer's owner shard and
//! on every shard that hosts an observer, so no observer records a retired
//! PID after it retires.
//!
//! # Determinism
//!
//! Three mechanisms make the trace independent of the partition:
//!
//! 1. **Total event order.** Every event carries a key
//!    `entity_id << 4 | rank` (peers: `g`; observers: `N + o`). Both drivers
//!    pop in `(time, key, insertion)` order, so handlers execute in one
//!    global order no matter how events were queued.
//! 2. **Per-entity RNG streams.** Each peer and each observer draws from its
//!    own `SimRng` seeded by `splitmix64`-folding `(seed, domain, index)`.
//!    A stream is consumed only inside its entity's handlers, which run in
//!    the total order — so the draws are identical for any partition.
//! 3. **Replicated delayed views.** Observer decisions never touch
//!    authoritative peer state; they read a `VisibleNet` replica built
//!    from broadcast notices that arrive with latency `L` in every
//!    observer-hosting shard, applied in the same total order everywhere.
//!
//! # Connections
//!
//! An observer keeps each open connection as one record in a `Vec`, found
//! through a per-peer index, and its connection manager is only the
//! trimming policy over those records. A connection's remote hold time is
//! no event of its own: the observer keeps its pending holds ordered by
//! `(expiry, ConnectionId)`, a close drops its hold, and the queue holds
//! one wake-up at the earliest hold under the key `obs_key(o, RANK_CLOSE)`.
//! A wake-up closes that hold if it is due, then re-arms, so holds due in
//! the same millisecond close in connection-id order, each at the position
//! its own queued event would take, and a hold cancelled by an earlier
//! close is no event.
//!
//! # Routing tables
//!
//! The routing-table history ([`crate::DhtLog`]) is rebuilt after the run
//! rather than maintained live: a new DHT server links to its closest online
//! servers across the whole population, a view no single shard owns. Each
//! server observer records its contacts (a dial or gossip sighting of a
//! server admits it, a close evicts it), and the assembly replays the merged
//! ground truth plus those contacts through one [`crate::DhtTracker`] in
//! canonical order, on the run's registry slots.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2pmodel::kademlia::DEFAULT_BUCKET_SIZE;
use p2pmodel::{
    CloseReason, ConnectionId, ConnectionManager, Direction, IdentifyInfo, PeerId,
    TrackedConnection,
};
use simclock::rng::{fnv1a_step, splitmix64, FNV_OFFSET};
use simclock::{KeyedEventQueue, SimDuration, SimRng, SimTime};

use crate::config::{NetworkConfig, ObserverSpec};
use crate::dht::{DhtConduct, DhtContact, DhtLog, DhtTracker, Transition};
use crate::engine::SimulationOutput;
use crate::events::{GroundTruth, GroundTruthEvent, ObserverLog};
use crate::obs::{IdentifyRegistry, ObservationTable, ShardMap};
use crate::spec::{DialBehavior, PopulationAction, PopulationEvent, RemotePeerSpec, SessionPattern};

/// Event ranks for peer-keyed events (low rank pops first on time ties): a
/// retirement pre-empts everything else the peer does at the same instant.
const RANK_RETIRE: u64 = 0;
const RANK_SESSION_START: u64 = 1;
const RANK_SESSION_END: u64 = 2;
const RANK_META_FIRE: u64 = 3;
const RANK_NOTICE_ONLINE: u64 = 4;
const RANK_NOTICE_META: u64 = 5;
const RANK_NOTICE_OFFLINE: u64 = 6;
const RANK_DIAL: u64 = 7;
const RANK_GOSSIP: u64 = 8;

/// Event ranks for observer-keyed events.
const RANK_MAINT: u64 = 0;
const RANK_CLOSE: u64 = 1;
const RANK_REDIAL: u64 = 2;

/// Domain separators for per-entity RNG stream derivation.
const PEER_RNG_DOMAIN: u64 = 0x9ed1_cafe_0000_0001;
const OBSERVER_RNG_DOMAIN: u64 = 0x9ed1_cafe_0000_0002;

/// Maintenance dial attempts per pass.
const MAINT_DIAL_BUDGET: usize = 4;

/// Derives an independent RNG seed for entity `idx` in `domain` from the
/// campaign seed, via two splitmix64 folds.
fn derive_seed(seed: u64, domain: u64, idx: u64) -> u64 {
    let mut state = seed ^ domain;
    let a = splitmix64(&mut state);
    state ^= idx.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    a ^ splitmix64(&mut state)
}

/// Total-order key for a peer-owned event.
fn peer_key(g: u32, rank: u64) -> u64 {
    ((g as u64) << 4) | rank
}

/// Total-order key for an observer-owned event; `n` is the population size.
fn obs_key(n: usize, o: u32, rank: u64) -> u64 {
    (((n as u64) + o as u64) << 4) | rank
}

/// The event vocabulary. Peer indices (`peer`) are global population
/// indices; observer indices (`obs`) are global observer indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FpEvent {
    /// A peer's session begins (owner shard).
    SessionStart { peer: u32 },
    /// A peer's session ends (owner shard).
    SessionEnd { peer: u32 },
    /// A peer's next scheduled metadata change fires (owner shard).
    MetadataFire { peer: u32 },
    /// A scripted retirement (owner shard and every observer-hosting shard).
    Retire { peer: u32 },
    /// Broadcast: peer came online (observer-hosting shards).
    NoticeOnline { peer: u32 },
    /// Broadcast: peer went offline (observer-hosting shards).
    NoticeOffline { peer: u32 },
    /// Broadcast: peer's identify payload changed (observer-hosting shards).
    NoticeMetadata { peer: u32, identify_id: u32, server: bool },
    /// A peer dials an observer (observer's owner shard).
    Dial { peer: u32, obs: u32 },
    /// An observer learns of a peer through gossip (observer's owner shard).
    Gossip { peer: u32, obs: u32 },
    /// Observer connection-manager maintenance pass (observer's owner shard).
    Maintenance { obs: u32 },
    /// The observer's earliest pending hold may be due: the remote end of
    /// that connection trims it (observer's owner shard).
    HoldWake { obs: u32 },
    /// A disconnected peer redials the observer (observer's owner shard).
    /// Handled as a [`FpEvent::Dial`]; its own rank orders it among
    /// same-time events.
    Redial { obs: u32, peer: u32 },
}

/// One sealed mailbox entry: `(arrival time, total-order key, event)`.
type MailEntry = (SimTime, u64, FpEvent);

/// Scripted retirements `(time, peer)`, in stream order.
type Retirements = Vec<(SimTime, u32)>;

/// Immutable population data shared by every shard through an [`Arc`].
///
/// Built once by [`freeze`]: the registry interns every peer, address and
/// identify payload (including each peer's full metadata-change chain) in
/// global population order, so all shards resolve the same ids.
struct FrozenPopulation {
    registry: IdentifyRegistry,
    /// Population-order peer ids.
    peer_ids: Vec<PeerId>,
    /// Registry slot per peer (duplicate `PeerId`s share a slot).
    slots: Vec<u32>,
    /// Interned multiaddress id per peer.
    addr_ids: Vec<u32>,
    /// Interned id of the peer's initial identify payload.
    base_identify: Vec<u32>,
    /// Whether the peer starts as a DHT server.
    initial_server: Vec<bool>,
    /// Dialing/holding behaviour per peer (observer shards sample hold times
    /// and redial delays from the behaviour of the peer they talk to).
    behaviors: Vec<DialBehavior>,
    /// Peers with non-honest DHT conduct, ascending by global index. They
    /// squat the DHT but refuse swarm connections, so they never enter the
    /// observers' maintenance-dial pool.
    adversaries: Vec<(u32, DhtConduct)>,
    retirements: Retirements,
    /// Whether each observer (global order) is a DHT server.
    obs_server: Vec<bool>,
}

impl FrozenPopulation {
    fn honest(&self, g: u32) -> bool {
        self.adversaries.binary_search_by_key(&g, |&(a, _)| a).is_err()
    }
}

/// Authoritative per-peer state, owned by exactly one shard.
struct PeerRuntime {
    rng: SimRng,
    session: SessionPattern,
    gossip_visibility: f64,
    /// When the peer joined: zero for the initial population, the batch
    /// time for a scripted joiner. Its session pattern is relative to it.
    joined: SimTime,
    /// Pre-resolved metadata chain: `(fire time, identify id, is_server)`.
    changes: Vec<(SimTime, u32, bool)>,
    next_change: usize,
    is_server: bool,
    online: bool,
    /// Retired peers never come back online, whatever their session
    /// pattern says.
    retired: bool,
    next_session_end: Option<SimTime>,
}

/// Delayed network view replicated on every observer-hosting shard.
///
/// Built purely from broadcast notices, which arrive with latency `L`, and
/// from scripted retirements, which are known up front; both are applied in
/// the total event order — so every replica transitions through the
/// identical state sequence regardless of the partition.
struct VisibleNet {
    online: Vec<bool>,
    server: Vec<bool>,
    identify: Vec<u32>,
    retired: Vec<bool>,
    /// Dense list of online honest DHT servers (maintenance dial candidates).
    servers_list: Vec<u32>,
    /// Position of peer `g` in `servers_list`, `u32::MAX` if absent.
    servers_pos: Vec<u32>,
}

impl VisibleNet {
    fn new(frozen: &FrozenPopulation) -> Self {
        let n = frozen.peer_ids.len();
        VisibleNet {
            online: vec![false; n],
            server: frozen.initial_server.clone(),
            identify: frozen.base_identify.clone(),
            retired: vec![false; n],
            servers_list: Vec::new(),
            servers_pos: vec![u32::MAX; n],
        }
    }

    fn insert_server(&mut self, g: u32) {
        if self.servers_pos[g as usize] != u32::MAX {
            return;
        }
        self.servers_pos[g as usize] = self.servers_list.len() as u32;
        self.servers_list.push(g);
    }

    fn remove_server(&mut self, g: u32) {
        let pos = self.servers_pos[g as usize];
        if pos == u32::MAX {
            return;
        }
        self.servers_pos[g as usize] = u32::MAX;
        let last = self.servers_list.len() - 1;
        self.servers_list.swap_remove(pos as usize);
        if (pos as usize) < last {
            let moved = self.servers_list[pos as usize];
            self.servers_pos[moved as usize] = pos;
        }
    }
}

/// One open connection of an observer.
struct OpenConn {
    id: ConnectionId,
    peer: u32,
    direction: Direction,
    opened_at: SimTime,
    /// The connection manager's value tag.
    value: i32,
    /// When the remote end trims it (its hold expires).
    expiry: SimTime,
}

impl OpenConn {
    /// The connection as the trimming policy sees it, handled by its peer.
    /// An observer protects exactly its outbound connections.
    fn tracked(&self) -> (u32, TrackedConnection) {
        let tracked = TrackedConnection {
            id: self.id,
            opened_at: self.opened_at,
            value: self.value,
            protected: self.direction == Direction::Outbound,
        };
        (self.peer, tracked)
    }
}

/// Per-observer runtime state, owned by shard `o % S`.
struct ObserverRuntime {
    spec: ObserverSpec,
    global: u32,
    rng: SimRng,
    table: ObservationTable,
    /// The trimming policy; `trimmed` is its reused output buffer.
    connmgr: ConnectionManager,
    trimmed: Vec<u32>,
    /// Open connections, unordered: a close swap-removes its record.
    conns: Vec<OpenConn>,
    /// Per population peer: 1 + the position of its connection in `conns`,
    /// or 0 when it is not connected.
    conn_of: Vec<u32>,
    /// Pending holds `(expiry, id) → peer`, one per open connection.
    holds: BTreeMap<(SimTime, ConnectionId), u32>,
    /// The time of the hold wake-up queued last. The queue holds one at the
    /// earliest hold; a wake-up at any other time was superseded.
    armed: Option<SimTime>,
    outbound_open: usize,
    next_conn_id: u64,
    /// Routing-table contacts `(time, peer, admit)` for the post-run DHT
    /// replay; `None` when tracking is off or the observer is a DHT client
    /// (a client keeps no table).
    contacts: Option<Vec<(SimTime, u32, bool)>>,
}

impl ObserverRuntime {
    fn contact(&mut self, at: SimTime, g: u32, admit: bool) {
        if let Some(contacts) = &mut self.contacts {
            contacts.push((at, g, admit));
        }
    }

    fn connected(&self, g: u32) -> bool {
        self.conn_of[g as usize] != 0
    }

    /// Records an open connection and its hold. Returns whether the hold
    /// needs a wake-up of its own: it expires before the armed one.
    fn insert(&mut self, conn: OpenConn) -> bool {
        debug_assert!(!self.connected(conn.peer), "one connection per peer");
        self.conn_of[conn.peer as usize] = self.conns.len() as u32 + 1;
        self.holds.insert((conn.expiry, conn.id), conn.peer);
        if conn.direction == Direction::Outbound {
            self.outbound_open += 1;
        }
        let wake = self.armed.is_none_or(|armed| conn.expiry < armed);
        if wake {
            self.armed = Some(conn.expiry);
        }
        self.conns.push(conn);
        wake
    }

    /// Removes peer `g`'s connection and its hold, if it has one.
    fn remove(&mut self, g: u32) -> Option<OpenConn> {
        let pos = self.conn_of[g as usize].checked_sub(1)? as usize;
        self.conn_of[g as usize] = 0;
        let conn = self.conns.swap_remove(pos);
        if let Some(moved) = self.conns.get(pos) {
            self.conn_of[moved.peer as usize] = pos as u32 + 1;
        }
        self.holds.remove(&(conn.expiry, conn.id));
        if conn.direction == Direction::Outbound {
            self.outbound_open -= 1;
        }
        Some(conn)
    }
}

/// How a shard emits cross-entity events.
enum Route {
    /// Direct driver: schedule straight into the local queue.
    Direct,
    /// Lock-step driver: buffer into per-destination mailboxes, plus one
    /// broadcast lane delivered to every observer-hosting shard.
    Mailbox {
        out: Vec<Vec<MailEntry>>,
        broadcast: Vec<MailEntry>,
    },
}

/// One engine shard: a contiguous peer range, its round-robin observers, a
/// keyed event queue and the outbound mailboxes of the current epoch.
struct Shard {
    frozen: Arc<FrozenPopulation>,
    peer_start: u32,
    peers: Vec<PeerRuntime>,
    observers: Vec<ObserverRuntime>,
    visible: Option<VisibleNet>,
    queue: KeyedEventQueue<FpEvent>,
    route: Route,
    /// Ground-truth tuples `(at, peer, rank, server)`; rank 0 = online,
    /// 1 = role change, 2 = offline. Merged and sorted canonically at
    /// assembly, so per-shard buffers are order-free.
    gt: Vec<(SimTime, u32, u8, bool)>,
    end: SimTime,
    latency: SimDuration,
    peer_count: usize,
    obs_total: u32,
    shard_count: usize,
    processed: u64,
}

impl Shard {
    fn local_peer(&self, g: u32) -> usize {
        (g - self.peer_start) as usize
    }

    /// The local slot of peer `g`, if this shard owns it.
    fn owned_peer(&self, g: u32) -> Option<usize> {
        let li = g.checked_sub(self.peer_start)? as usize;
        (li < self.peers.len()).then_some(li)
    }

    fn local_obs(&self, o: u32) -> usize {
        (o as usize) / self.shard_count
    }

    fn emit_to_observer(&mut self, o: u32, at: SimTime, key: u64, event: FpEvent) {
        match &mut self.route {
            Route::Direct => self.queue.schedule(at, key, event),
            Route::Mailbox { out, .. } => {
                out[(o as usize) % self.shard_count].push((at, key, event));
            }
        }
    }

    fn emit_broadcast(&mut self, at: SimTime, key: u64, event: FpEvent) {
        match &mut self.route {
            Route::Direct => {
                if self.visible.is_some() {
                    self.queue.schedule(at, key, event);
                }
            }
            Route::Mailbox { broadcast, .. } => broadcast.push((at, key, event)),
        }
    }

    /// Seeds the queue: every owned peer's first session, metadata chain and
    /// gossip sightings, every retirement this shard must see, and every
    /// local observer's first maintenance pass.
    fn init(&mut self) {
        let end_ms = (self.end - SimTime::ZERO).as_millis();
        let mut local: Vec<MailEntry> = Vec::with_capacity(self.peers.len() * 2);
        let mut gossip: Vec<(u32, u32, SimTime)> = Vec::new();
        for li in 0..self.peers.len() {
            let g = self.peer_start + li as u32;
            let p = &mut self.peers[li];
            let (start, end_opt) = p.session.first_session(&mut p.rng);
            let shift = p.joined - SimTime::ZERO;
            p.next_session_end = end_opt.map(|end| end + shift);
            local.push((start + shift, peer_key(g, RANK_SESSION_START), FpEvent::SessionStart { peer: g }));
            for &(at, _, _) in &p.changes {
                local.push((at, peer_key(g, RANK_META_FIRE), FpEvent::MetadataFire { peer: g }));
            }
            // Gossip sightings fall anywhere in the rest of the run; a peer
            // joining at the very end is never gossiped about.
            let joined_ms = (p.joined - SimTime::ZERO).as_millis();
            if p.gossip_visibility > 0.0 && (joined_ms == 0 || joined_ms < end_ms) {
                for o in 0..self.obs_total {
                    if p.rng.chance(p.gossip_visibility) {
                        let at = p.rng.uniform_u64(joined_ms, end_ms.max(joined_ms + 1));
                        gossip.push((g, o, SimTime::from_millis(at)));
                    }
                }
            }
        }
        for (g, o, at) in gossip {
            self.emit_to_observer(o, at, peer_key(g, RANK_GOSSIP), FpEvent::Gossip { peer: g, obs: o });
        }
        for &(at, g) in &self.frozen.retirements {
            if self.visible.is_some() || self.owned_peer(g).is_some() {
                local.push((at, peer_key(g, RANK_RETIRE), FpEvent::Retire { peer: g }));
            }
        }
        for li in 0..self.observers.len() {
            let ob = &self.observers[li];
            let at = SimTime::ZERO + ob.spec.maintenance_interval;
            let key = obs_key(self.peer_count, ob.global, RANK_MAINT);
            let ev = FpEvent::Maintenance { obs: ob.global };
            self.queue.schedule(at, key, ev);
        }
        self.queue.schedule_batch(local);
    }

    /// Drains the queue up to `limit` — strictly exclusive during lock-step
    /// epochs, inclusive (`pop_until`) for the final drain so every event at
    /// exactly the end time is queued before any of them is processed.
    fn run_epoch(&mut self, limit: SimTime, last: bool) {
        loop {
            let popped = if last {
                self.queue.pop_until(limit)
            } else {
                self.queue.pop_before(limit)
            };
            let Some((now, _key, event)) = popped else { break };
            self.processed += 1;
            self.dispatch(now, event);
        }
    }

    fn dispatch(&mut self, now: SimTime, event: FpEvent) {
        match event {
            FpEvent::SessionStart { peer } => self.handle_session_start(now, peer),
            FpEvent::SessionEnd { peer } => self.handle_session_end(now, peer),
            FpEvent::MetadataFire { peer } => self.handle_metadata_fire(now, peer),
            FpEvent::Retire { peer } => self.handle_retire(now, peer),
            FpEvent::NoticeOnline { peer } => self.handle_notice_online(peer),
            FpEvent::NoticeOffline { peer } => self.handle_notice_offline(now, peer),
            FpEvent::NoticeMetadata { peer, identify_id, server } => {
                self.handle_notice_metadata(now, peer, identify_id, server)
            }
            FpEvent::Dial { peer, obs } | FpEvent::Redial { obs, peer } => {
                self.handle_dial(now, peer, obs)
            }
            FpEvent::Gossip { peer, obs } => self.handle_gossip(now, peer, obs),
            FpEvent::Maintenance { obs } => self.handle_maintenance(now, obs),
            FpEvent::HoldWake { obs } => self.handle_hold_wake(now, obs),
        }
    }

    fn handle_session_start(&mut self, now: SimTime, g: u32) {
        let li = self.local_peer(g);
        let (session_end, is_server, dials) = {
            let p = &mut self.peers[li];
            if p.online || p.retired {
                return;
            }
            p.online = true;
            let behavior = &self.frozen.behaviors[g as usize];
            let mut dials = Vec::new();
            for o in 0..self.obs_total {
                if behavior.dials(self.frozen.obs_server[o as usize], &mut p.rng) {
                    let delay = behavior.sample_redial_delay(&mut p.rng);
                    dials.push((o, delay));
                }
            }
            (p.next_session_end, p.is_server, dials)
        };
        self.gt.push((now, g, 0, is_server));
        let latency = self.latency;
        self.emit_broadcast(
            now + latency,
            peer_key(g, RANK_NOTICE_ONLINE),
            FpEvent::NoticeOnline { peer: g },
        );
        if let Some(end_at) = session_end {
            self.queue
                .schedule(end_at, peer_key(g, RANK_SESSION_END), FpEvent::SessionEnd { peer: g });
        }
        for (o, delay) in dials {
            self.emit_to_observer(
                o,
                now + latency + delay,
                peer_key(g, RANK_DIAL),
                FpEvent::Dial { peer: g, obs: o },
            );
        }
    }

    fn handle_session_end(&mut self, now: SimTime, g: u32) {
        let li = self.local_peer(g);
        let (is_server, next) = {
            let p = &mut self.peers[li];
            if !p.online {
                return;
            }
            p.online = false;
            let next = p.session.next_session(now, &mut p.rng);
            if let Some((_, end_opt)) = next {
                p.next_session_end = end_opt;
            }
            (p.is_server, next)
        };
        self.gt.push((now, g, 2, is_server));
        let latency = self.latency;
        self.emit_broadcast(
            now + latency,
            peer_key(g, RANK_NOTICE_OFFLINE),
            FpEvent::NoticeOffline { peer: g },
        );
        if let Some((start, _)) = next {
            self.queue
                .schedule(start, peer_key(g, RANK_SESSION_START), FpEvent::SessionStart { peer: g });
        }
    }

    fn handle_metadata_fire(&mut self, now: SimTime, g: u32) {
        let li = self.local_peer(g);
        let (id, server, flipped) = {
            let p = &mut self.peers[li];
            let Some(&(_, id, server)) = p.changes.get(p.next_change) else {
                return;
            };
            p.next_change += 1;
            let flipped = server != p.is_server;
            p.is_server = server;
            (id, server, flipped)
        };
        if flipped {
            self.gt.push((now, g, 1, server));
        }
        let latency = self.latency;
        self.emit_broadcast(
            now + latency,
            peer_key(g, RANK_NOTICE_META),
            FpEvent::NoticeMetadata { peer: g, identify_id: id, server },
        );
    }

    /// A scripted retirement: the owner forces the peer offline for good;
    /// every observer shard drops its connections to the peer at the same
    /// instant and ignores it from then on.
    fn handle_retire(&mut self, now: SimTime, g: u32) {
        if let Some(li) = self.owned_peer(g) {
            let p = &mut self.peers[li];
            let was_online = p.online;
            p.retired = true;
            p.online = false;
            if was_online {
                self.gt.push((now, g, 2, p.is_server));
                let at = now + self.latency;
                self.emit_broadcast(at, peer_key(g, RANK_NOTICE_OFFLINE), FpEvent::NoticeOffline { peer: g });
            }
        }
        if let Some(v) = self.visible.as_mut() {
            v.retired[g as usize] = true;
        }
        self.handle_notice_offline(now, g);
    }

    fn handle_notice_online(&mut self, g: u32) {
        let honest = self.frozen.honest(g);
        let Some(v) = self.visible.as_mut() else { return };
        if v.retired[g as usize] {
            return;
        }
        v.online[g as usize] = true;
        if v.server[g as usize] && honest {
            v.insert_server(g);
        }
    }

    fn handle_notice_offline(&mut self, now: SimTime, g: u32) {
        {
            let Some(v) = self.visible.as_mut() else { return };
            v.online[g as usize] = false;
            v.remove_server(g);
        }
        for li in 0..self.observers.len() {
            self.close_connection(now, li, g, CloseReason::PeerLeft, false);
        }
    }

    fn handle_notice_metadata(&mut self, now: SimTime, g: u32, id: u32, server: bool) {
        let honest = self.frozen.honest(g);
        {
            let Some(v) = self.visible.as_mut() else { return };
            v.identify[g as usize] = id;
            if server != v.server[g as usize] {
                v.server[g as usize] = server;
                if v.online[g as usize] {
                    if server && honest {
                        v.insert_server(g);
                    } else {
                        v.remove_server(g);
                    }
                }
            }
        }
        // Connected observers receive the change as an identify push.
        let slot = self.frozen.slots[g as usize];
        for ob in &mut self.observers {
            if ob.connected(g) {
                ob.table.identify_received(now, slot, id);
            }
        }
    }

    fn handle_dial(&mut self, now: SimTime, g: u32, o: u32) {
        let Some(v) = self.visible.as_ref() else { return };
        if !v.online[g as usize] {
            return;
        }
        let li = self.local_obs(o);
        if self.observers[li].connected(g) {
            return;
        }
        self.open_connection(now, li, g, Direction::Inbound);
    }

    fn handle_gossip(&mut self, now: SimTime, g: u32, o: u32) {
        // Gossip about a retired peer stops circulating: a sighting drawn
        // before the retirement must not resurrect the PID.
        let Some(v) = self.visible.as_ref() else { return };
        if v.retired[g as usize] {
            return;
        }
        let server = v.server[g as usize];
        let li = self.local_obs(o);
        let slot = self.frozen.slots[g as usize];
        let addr = self.frozen.addr_ids[g as usize];
        let ob = &mut self.observers[li];
        ob.table.peer_discovered(now, slot, addr);
        // Gossip carries a server into the observer's table, possibly as a
        // stale entry — the staleness a real crawler has to dial through.
        if server {
            ob.contact(now, g, true);
        }
    }

    fn handle_maintenance(&mut self, now: SimTime, o: u32) {
        let li = self.local_obs(o);
        let mut budget = MAINT_DIAL_BUDGET;
        while budget > 0 {
            let ob = &self.observers[li];
            if ob.outbound_open >= ob.spec.outbound_target {
                break;
            }
            let Some(v) = self.visible.as_ref() else { break };
            let len = v.servers_list.len();
            if len == 0 {
                break;
            }
            budget -= 1;
            let k = self.observers[li].rng.index(len);
            let g = self.visible.as_ref().expect("observer shard has a view").servers_list[k];
            if self.observers[li].connected(g) {
                continue;
            }
            self.open_connection(now, li, g, Direction::Outbound);
        }
        let ob = &mut self.observers[li];
        let mut trimmed = std::mem::take(&mut ob.trimmed);
        ob.connmgr
            .maybe_trim(now, ob.conns.iter().map(OpenConn::tracked), &mut trimmed);
        for &g in &trimmed {
            self.close_connection(now, li, g, CloseReason::TrimmedLocal, true);
        }
        trimmed.clear();
        self.observers[li].trimmed = trimmed;
        let next = now + self.observers[li].spec.maintenance_interval;
        if next <= self.end {
            let key = obs_key(self.peer_count, o, RANK_MAINT);
            self.queue.schedule(next, key, FpEvent::Maintenance { obs: o });
        }
    }

    /// The remote end trims the observer's earliest pending hold if it is
    /// due, then the wake-up re-arms at the next one. Holds due in the same
    /// millisecond close one wake-up each, in connection-id order (the
    /// order of their opens). A wake-up a newer one superseded does
    /// nothing.
    fn handle_hold_wake(&mut self, now: SimTime, o: u32) {
        let li = self.local_obs(o);
        if self.observers[li].armed != Some(now) {
            return;
        }
        if let Some((&(expiry, _), &g)) = self.observers[li].holds.first_key_value() {
            if expiry <= now {
                debug_assert_eq!(expiry, now, "a hold was due before its wake-up");
                self.close_connection(now, li, g, CloseReason::TrimmedRemote, true);
            }
        }
        let ob = &mut self.observers[li];
        ob.armed = ob.holds.first_key_value().map(|(&(at, _), _)| at);
        if let Some(at) = ob.armed {
            let key = obs_key(self.peer_count, o, RANK_CLOSE);
            self.queue.schedule(at, key, FpEvent::HoldWake { obs: o });
        }
    }

    fn open_connection(&mut self, now: SimTime, li: usize, g: u32, direction: Direction) {
        let (visible_identify, visible_server) = {
            let v = self.visible.as_ref().expect("observer shard has a view");
            (v.identify[g as usize], v.server[g as usize])
        };
        let ob = &mut self.observers[li];
        let behavior = &self.frozen.behaviors[g as usize];
        // Interleaved per-observer id spaces: unique across the run, so
        // dataset unions keyed by connection id never merge two observers'
        // connections, and a lone observer counts 0, 1, 2, ….
        let id = ConnectionId(ob.next_conn_id * self.obs_total as u64 + ob.global as u64);
        ob.next_conn_id += 1;
        ob.table.connection_opened(
            now,
            id,
            self.frozen.slots[g as usize],
            direction,
            self.frozen.addr_ids[g as usize],
        );
        let mut value = behavior.observer_value;
        if visible_server {
            value += 10;
            // A dial is how the observer learns the peer is a live DHT
            // contact.
            ob.contact(now, g, true);
        }
        if ob.rng.chance(behavior.identify_prob) {
            ob.table
                .identify_received(now, self.frozen.slots[g as usize], visible_identify);
        }
        let valued_by_remote = ob.spec.role.is_server() && direction == Direction::Inbound;
        let expiry = now + behavior.sample_hold(valued_by_remote, &mut ob.rng);
        let conn = OpenConn { id, peer: g, direction, opened_at: now, value, expiry };
        if ob.insert(conn) {
            let key = obs_key(self.peer_count, ob.global, RANK_CLOSE);
            self.queue.schedule(expiry, key, FpEvent::HoldWake { obs: ob.global });
        }
    }

    /// Closes observer `li`'s connection to peer `g`, if it has one.
    fn close_connection(
        &mut self,
        now: SimTime,
        li: usize,
        g: u32,
        reason: CloseReason,
        maybe_reconnect: bool,
    ) {
        let redial = {
            let ob = &mut self.observers[li];
            let Some(conn) = ob.remove(g) else {
                return;
            };
            ob.table
                .connection_closed(now, conn.id, self.frozen.slots[g as usize], reason);
            // Losing the connection drops the peer from the observer's
            // table, as go-ipfs evicts disconnected contacts.
            ob.contact(now, g, false);
            if maybe_reconnect && conn.direction == Direction::Inbound {
                let online = self
                    .visible
                    .as_ref()
                    .map(|v| v.online[g as usize])
                    .unwrap_or(false);
                let behavior = &self.frozen.behaviors[g as usize];
                if online && behavior.reconnect {
                    let delay = behavior.sample_redial_delay(&mut ob.rng);
                    Some((ob.global, g, delay))
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some((og, g, delay)) = redial {
            let key = obs_key(self.peer_count, og, RANK_REDIAL);
            self.queue
                .schedule(now + delay, key, FpEvent::Redial { obs: og, peer: g });
        }
    }

    /// Closes every still-open connection at the end of the measurement, in
    /// ascending [`ConnectionId`] order: the paper counts connections still
    /// active at the end of a measurement as closed at that moment.
    fn finish(&mut self) {
        let end = self.end;
        for li in 0..self.observers.len() {
            let mut open: Vec<(ConnectionId, u32)> =
                self.observers[li].conns.iter().map(|c| (c.id, c.peer)).collect();
            open.sort_unstable();
            for (_, g) in open {
                self.close_connection(end, li, g, CloseReason::MeasurementEnd, false);
            }
        }
    }

    /// Seals and removes this epoch's outbound mailboxes.
    fn take_outbox(&mut self) -> (Vec<Vec<MailEntry>>, Vec<MailEntry>) {
        match &mut self.route {
            Route::Direct => (Vec::new(), Vec::new()),
            Route::Mailbox { out, broadcast } => (
                out.iter_mut().map(std::mem::take).collect(),
                std::mem::take(broadcast),
            ),
        }
    }
}

/// Delivers every sealed mailbox: per destination, inbound entries are
/// concatenated in source-shard order (broadcast lanes only into
/// observer-hosting shards) and handed over via `schedule_batch`, whose
/// sort breaks `(time, key)` ties in that order. It clamps nothing: no
/// entry is earlier than its destination's clock (an entry arrives at
/// least one epoch after it was sent, and the upfront exchange runs at
/// time zero). Adds the delivered and cross-shard entry counts to `stats`.
fn exchange(shards: &mut [Shard], stats: &mut MailboxStats) {
    let outs: Vec<(Vec<Vec<MailEntry>>, Vec<MailEntry>)> =
        shards.iter_mut().map(Shard::take_outbox).collect();
    for (d, shard) in shards.iter_mut().enumerate() {
        let host_observers = !shard.observers.is_empty();
        let mut batch: Vec<MailEntry> = Vec::new();
        for (s, (out, broadcast)) in outs.iter().enumerate() {
            if let Some(direct) = out.get(d) {
                if s != d {
                    stats.cross_shard_events += direct.len() as u64;
                }
                batch.extend_from_slice(direct);
            }
            if host_observers {
                if s != d {
                    stats.cross_shard_events += broadcast.len() as u64;
                }
                batch.extend_from_slice(broadcast);
            }
        }
        stats.mailbox_events += batch.len() as u64;
        shard.queue.schedule_batch(batch);
    }
}

/// Runs `f` over every shard, round-robining shards across at most
/// `threads` scoped worker threads. The assignment is static (`shard % t`),
/// so the partition of work — and therefore the trace — is identical for
/// every thread count; threads only change wall-clock time.
fn par_shards<F: Fn(&mut Shard) + Sync>(shards: &mut [Shard], threads: usize, f: F) {
    let t = threads.max(1).min(shards.len().max(1));
    if t <= 1 {
        for shard in shards.iter_mut() {
            f(shard);
        }
        return;
    }
    let mut buckets: Vec<Vec<&mut Shard>> = (0..t).map(|_| Vec::new()).collect();
    for (i, shard) in shards.iter_mut().enumerate() {
        buckets[i % t].push(shard);
    }
    let fref = &f;
    std::thread::scope(|scope| {
        for bucket in buckets {
            scope.spawn(move || {
                for shard in bucket {
                    fref(shard);
                }
            });
        }
    });
}

/// Configuration of a simulation run on the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct FullProtocolConfig {
    /// Seed for every stochastic decision in the run.
    pub seed: u64,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Epoch length = uniform cross-entity latency `L`. Must be positive;
    /// sub-millisecond values are clamped to 1 ms.
    pub epoch: SimDuration,
    /// Number of engine shards (lock-step driver only; clamped to ≥ 1).
    pub shards: usize,
    /// Worker threads for the lock-step epochs (does not affect the trace).
    pub threads: usize,
    /// The passive measurement nodes to deploy.
    pub observers: Vec<ObserverSpec>,
}

impl FullProtocolConfig {
    /// Creates a config with a 60 s epoch, one shard and one thread.
    pub fn new(seed: u64, duration: SimDuration, observers: Vec<ObserverSpec>) -> Self {
        FullProtocolConfig {
            seed,
            duration,
            epoch: SimDuration::from_secs(60),
            shards: 1,
            threads: 1,
            observers,
        }
    }

    /// Derives the engine config of a [`NetworkConfig`]: a 60 s epoch, one
    /// shard and one thread.
    pub fn from_network(cfg: &NetworkConfig) -> Self {
        FullProtocolConfig::new(cfg.seed, cfg.duration, cfg.observers.clone())
    }

    /// Returns a copy with a different epoch length.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = epoch;
        self
    }

    /// Returns a copy with a different shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with a different worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn latency(&self) -> SimDuration {
        self.epoch.max(SimDuration::from_millis(1))
    }
}

/// Aggregate counters of an engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MailboxStats {
    /// Lock-step epochs executed (0 for the direct driver).
    pub epochs: u64,
    /// Mailbox entries delivered across all exchanges (0 for the direct
    /// driver).
    pub mailbox_events: u64,
    /// Mailbox entries whose source and destination shard differ.
    pub cross_shard_events: u64,
    /// Simulator events processed across all shards: every event the
    /// queues popped. A connection's hold is no event of its own (an
    /// observer's holds share one wake-up), so a hold that an earlier close
    /// cancelled is not counted.
    pub sim_events: u64,
    /// Observation rows recorded across all observers.
    pub observations: u64,
    /// FNV-1a fold of every observer table checksum, in observer order.
    /// Byte-identical runs produce equal checksums.
    pub checksum: u64,
}

/// Wall-clock time of each phase of a lock-step run.
///
/// Timing only: it differs from run to run, so it stays out of
/// [`MailboxStats`], the checksum and every deterministic output.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimes {
    /// Laying out and interning the population and building the shards
    /// (serial).
    pub build: Duration,
    /// Seeding every shard's queue (parallel).
    pub init: Duration,
    /// The epochs, the final drain and the end-of-measurement closes
    /// (parallel).
    pub epochs: Duration,
    /// Every mailbox exchange, the upfront one included (serial).
    pub exchange: Duration,
    /// Merging the shards into the run's output: the ground truth, the
    /// routing-table post-pass, and each observer table's time-order check
    /// and wrapping in an `ObserverLog` (serial).
    pub assemble: Duration,
}

/// Runs `f`, adding its wall-clock time to `phase`.
fn timed<T>(phase: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *phase += started.elapsed();
    out
}

/// Result of a lock-step run: the standard [`SimulationOutput`] plus the
/// run's [`MailboxStats`] and [`PhaseTimes`].
#[derive(Debug)]
pub struct FullProtocolRun {
    /// Observer logs, ground truth and DHT log.
    pub output: SimulationOutput,
    /// Aggregate counters of the run.
    pub stats: MailboxStats,
    /// Wall-clock time of each phase of the run.
    pub phases: PhaseTimes,
}

impl FullProtocolRun {
    /// Completes the counters with the row count and checksum of the
    /// assembled (chronological) observer tables.
    pub(crate) fn new(
        output: SimulationOutput,
        mut stats: MailboxStats,
        phases: PhaseTimes,
    ) -> Self {
        let mut checksum = FNV_OFFSET;
        for log in &output.logs {
            stats.observations += log.table().len() as u64;
            checksum = fnv1a_step(checksum, log.table().checksum());
        }
        stats.checksum = checksum;
        FullProtocolRun { output, stats, phases }
    }
}

/// Lays out the whole population in global order: the initial peers, then
/// every scripted joiner (of events at or before `end`) in stream order.
/// Returns the specs, each peer's join time (a parallel vector) and the
/// retirements. Retirements resolve each PID to the newest entry admitted
/// so far, as the event stream reads; unknown PIDs are ignored.
fn flatten(
    mut peers: Vec<RemotePeerSpec>,
    events: Vec<PopulationEvent>,
    end: SimTime,
) -> (Vec<RemotePeerSpec>, Vec<SimTime>, Retirements) {
    let mut joined = vec![SimTime::ZERO; peers.len()];
    let mut retirements = Vec::new();
    if events.is_empty() {
        return (peers, joined, retirements);
    }
    let mut index: HashMap<PeerId, u32> = peers
        .iter()
        .enumerate()
        .map(|(g, spec)| (spec.peer_id, g as u32))
        .collect();
    for event in events.into_iter().filter(|event| event.at <= end) {
        let (retire, join) = match event.action {
            PopulationAction::Join(join) => (Vec::new(), join),
            PopulationAction::Leave(retire) => (retire, Vec::new()),
            PopulationAction::Rotate { retire, join } => (retire, join),
        };
        retirements.extend(retire.iter().filter_map(|pid| Some((event.at, *index.get(pid)?))));
        for spec in join {
            index.insert(spec.peer_id, peers.len() as u32);
            peers.push(spec);
            joined.push(event.at);
        }
    }
    (peers, joined, retirements)
}

/// Interns the whole population into one registry (global order) and builds
/// each shard's authoritative peer runtimes.
///
/// Specs share identify payloads, so each distinct allocation is interned
/// once and later specs holding it read its id by pointer. The first sight
/// of an allocation still goes through the registry, so ids come out in
/// the order content interning gives them. A peer's payload is cloned only
/// to apply its metadata-change chain.
fn freeze(
    peers: Vec<RemotePeerSpec>,
    joined: Vec<SimTime>,
    retirements: Retirements,
    cfg: &FullProtocolConfig,
    map: &ShardMap,
) -> (FrozenPopulation, Vec<Vec<PeerRuntime>>) {
    let n = peers.len();
    let mut registry = IdentifyRegistry::with_capacity(n);
    // Registry id per payload allocation. Each entry keeps its `Arc` alive,
    // so no address is freed and handed to another payload during the build.
    let mut payload_ids: HashMap<*const IdentifyInfo, (Arc<IdentifyInfo>, u32)> = HashMap::new();
    let mut peer_ids = Vec::with_capacity(n);
    let mut slots = Vec::with_capacity(n);
    let mut addr_ids = Vec::with_capacity(n);
    let mut base_identify = Vec::with_capacity(n);
    let mut initial_server = Vec::with_capacity(n);
    let mut behaviors = Vec::with_capacity(n);
    let mut adversaries = Vec::new();
    let mut runtimes: Vec<Vec<PeerRuntime>> = (0..map.shards())
        .map(|s| Vec::with_capacity(map.count(s)))
        .collect();
    for (g, (spec, joined)) in peers.into_iter().zip(joined).enumerate() {
        let slot = registry.register_peer(spec.peer_id);
        let addr_id = registry.intern_addr(spec.addr);
        let base_id = match payload_ids.entry(Arc::as_ptr(&spec.identify)) {
            Entry::Occupied(known) => known.get().1,
            Entry::Vacant(first) => {
                let id = registry.intern_identify(&spec.identify);
                first.insert((Arc::clone(&spec.identify), id)).1
            }
        };
        let is_server = spec.identify.is_dht_server();
        let shift = joined - SimTime::ZERO;
        let mut changes = Vec::with_capacity(spec.changes.len());
        if !spec.changes.is_empty() {
            let mut current = IdentifyInfo::clone(&spec.identify);
            for sc in &spec.changes {
                sc.change.apply(&mut current);
                let id = registry.intern_identify(&current);
                changes.push((sc.at + shift, id, current.is_dht_server()));
            }
        }
        if !spec.dht_conduct.is_honest() {
            adversaries.push((g as u32, spec.dht_conduct));
        }
        peer_ids.push(spec.peer_id);
        slots.push(slot);
        addr_ids.push(addr_id);
        base_identify.push(base_id);
        initial_server.push(is_server);
        behaviors.push(spec.behavior);
        runtimes[map.owner(g)].push(PeerRuntime {
            rng: SimRng::seed_from(derive_seed(cfg.seed, PEER_RNG_DOMAIN, g as u64)),
            session: spec.session,
            gossip_visibility: spec.gossip_visibility,
            joined,
            changes,
            next_change: 0,
            is_server,
            online: false,
            retired: false,
            next_session_end: None,
        });
    }
    let frozen = FrozenPopulation {
        registry,
        peer_ids,
        slots,
        addr_ids,
        base_identify,
        initial_server,
        behaviors,
        adversaries,
        retirements,
        obs_server: cfg.observers.iter().map(|o| o.role.is_server()).collect(),
    };
    (frozen, runtimes)
}

/// Builds the shards of a run: `shard_count` lock-step shards, or the one
/// shard of the direct driver. Each observer gets a table presized from its
/// spec.
fn build(
    cfg: &FullProtocolConfig,
    specs: Vec<RemotePeerSpec>,
    events: Vec<PopulationEvent>,
    track_dht: bool,
    lockstep: bool,
) -> Vec<Shard> {
    let end = SimTime::ZERO + cfg.duration;
    let (peers, joined, retirements) = flatten(specs, events, end);
    let n = peers.len();
    let shard_count = if lockstep { cfg.shards.max(1) } else { 1 };
    let map = ShardMap::new(n, shard_count);
    let (frozen, runtimes) = freeze(peers, joined, retirements, cfg, &map);
    let frozen = Arc::new(frozen);
    let mut observers: Vec<Vec<ObserverRuntime>> = (0..shard_count).map(|_| Vec::new()).collect();
    for (o, spec) in cfg.observers.iter().enumerate() {
        observers[o % shard_count].push(ObserverRuntime {
            spec: spec.clone(),
            global: o as u32,
            rng: SimRng::seed_from(derive_seed(cfg.seed, OBSERVER_RNG_DOMAIN, o as u64)),
            table: spec.presized_table(),
            connmgr: ConnectionManager::new(spec.limits),
            trimmed: Vec::new(),
            conns: Vec::with_capacity(spec.expected_connections()),
            conn_of: vec![0; n],
            holds: BTreeMap::new(),
            armed: None,
            outbound_open: 0,
            next_conn_id: 0,
            contacts: (track_dht && spec.role.is_server()).then(Vec::new),
        });
    }
    runtimes
        .into_iter()
        .zip(observers)
        .enumerate()
        .map(|(s, (peers, observers))| {
            let visible = (!observers.is_empty()).then(|| VisibleNet::new(&frozen));
            let route = if lockstep {
                Route::Mailbox {
                    out: (0..shard_count).map(|_| Vec::new()).collect(),
                    broadcast: Vec::new(),
                }
            } else {
                Route::Direct
            };
            Shard {
                frozen: Arc::clone(&frozen),
                peer_start: map.start(s) as u32,
                peers,
                observers,
                visible,
                queue: KeyedEventQueue::new(),
                route,
                gt: Vec::new(),
                end,
                latency: cfg.latency(),
                peer_count: n,
                obs_total: cfg.observers.len() as u32,
                shard_count,
                processed: 0,
            }
        })
        .collect()
}

/// The routing-table post-pass: replays the canonical ground-truth rows and
/// every server observer's contacts on the tracker's slots.
///
/// The slots are the registry's, then one per observer whose `PeerId` the
/// registry does not hold. An observer that shares a peer's `PeerId` shares
/// its slot, and with it its routing table.
fn routing_tables(
    frozen: &FrozenPopulation,
    observers: &[ObserverRuntime],
    gt_rows: &[(SimTime, u32, u8, bool)],
) -> DhtLog {
    let mut peers = frozen.registry.peers().to_vec();
    let registered = peers.len();
    let obs_slots: Vec<u32> = observers
        .iter()
        .map(|ob| {
            let pid = ob.spec.peer_id;
            let known = frozen.registry.peer_slot(&pid).or_else(|| {
                let extra = peers[registered..].iter().position(|&p| p == pid)?;
                Some((registered + extra) as u32)
            });
            known.unwrap_or_else(|| {
                peers.push(pid);
                (peers.len() - 1) as u32
            })
        })
        .collect();
    let bootstrap: Vec<u32> = observers
        .iter()
        .zip(&obs_slots)
        .filter(|(ob, _)| ob.spec.role.is_server())
        .map(|(_, &slot)| slot)
        .collect();
    let slot = |g: u32| frozen.slots[g as usize];
    let roles = frozen.slots.iter().copied().zip(frozen.initial_server.iter().copied());
    let conduct = frozen.adversaries.iter().map(|&(g, conduct)| (slot(g), conduct));
    let transitions = gt_rows.iter().map(|&(at, g, rank, server)| {
        let transition = match rank {
            0 => Transition::Online,
            1 => Transition::Role(server),
            _ => Transition::Offline,
        };
        (at, slot(g), transition)
    });
    // Each observer's contacts are in handler order, so merging the lists
    // by (time, observer) yields the canonical order without materialising
    // them again.
    let mut cursors = vec![0usize; observers.len()];
    let contacts = std::iter::from_fn(|| {
        let (o, &(at, g, admit)) = observers
            .iter()
            .enumerate()
            .filter_map(|(o, ob)| Some((o, ob.contacts.as_ref()?.get(cursors[o])?)))
            .min_by_key(|&(o, &(at, _, _))| (at, o))?;
        cursors[o] += 1;
        Some(DhtContact { at, owner: obs_slots[o], entry: slot(g), admit })
    });
    DhtTracker::with_peers(DEFAULT_BUCKET_SIZE, peers)
        .replay(roles, &bootstrap, conduct, transitions, contacts)
}

/// Assembles the run's output: each observer's table, checked to be in time
/// order and wrapped in an [`ObserverLog`] over the run's registry, in
/// observer order; the canonical ground truth; and — when tracking — the
/// routing-table post-pass.
fn assemble(
    shards: Vec<Shard>,
    track_dht: bool,
    mut stats: MailboxStats,
) -> (SimulationOutput, MailboxStats) {
    let end = shards[0].end;
    let mut observers: Vec<ObserverRuntime> = Vec::new();
    let mut gt_rows: Vec<(SimTime, u32, u8, bool)> = Vec::new();
    let mut frozen = None;
    for mut shard in shards {
        stats.sim_events += shard.processed;
        gt_rows.append(&mut shard.gt);
        observers.append(&mut shard.observers);
        frozen = Some(shard.frozen);
    }
    let frozen = Arc::try_unwrap(frozen.expect("a run has at least one shard"))
        .unwrap_or_else(|_| unreachable!("every shard has been dropped"));
    observers.sort_by_key(|ob| ob.global);

    gt_rows.sort_by_key(|&(at, g, rank, _)| (at, g, rank));
    let dht = if track_dht {
        routing_tables(&frozen, &observers, &gt_rows)
    } else {
        DhtLog {
            k: DEFAULT_BUCKET_SIZE,
            ..DhtLog::default()
        }
    };
    let events = gt_rows
        .into_iter()
        .map(|(at, g, rank, server)| {
            let peer = frozen.peer_ids[g as usize];
            match rank {
                0 => GroundTruthEvent::PeerOnline { at, peer },
                1 => GroundTruthEvent::RoleChanged { at, peer, dht_server: server },
                _ => GroundTruthEvent::PeerOffline { at, peer },
            }
        })
        .collect();
    let ground_truth = GroundTruth {
        peers: frozen
            .peer_ids
            .iter()
            .copied()
            .zip(frozen.initial_server.iter().copied())
            .collect(),
        events,
    };

    let registry = Arc::new(frozen.registry);
    let logs = observers
        .into_iter()
        .map(|ob| {
            // Every handler appends at `now` and the end closes at `end`, so
            // each table is already chronological.
            assert!(
                ob.table.is_sorted_by_time(),
                "observer {} recorded rows out of time order",
                ob.spec.name
            );
            ObserverLog::from_columns(
                ob.spec.name,
                ob.spec.peer_id,
                ob.spec.role.is_server(),
                SimTime::ZERO,
                end,
                ob.table,
                Arc::clone(&registry),
            )
        })
        .collect();
    (SimulationOutput::new(logs, ground_truth, dht), stats)
}

/// The direct driver: the whole population as one shard, one queue, no
/// epochs and no mailboxes.
pub(crate) fn run_direct(
    cfg: &FullProtocolConfig,
    specs: Vec<RemotePeerSpec>,
    events: Vec<PopulationEvent>,
    track_dht: bool,
) -> (SimulationOutput, MailboxStats) {
    let shards = drive_direct(cfg, specs, events, track_dht);
    assemble(shards, track_dht, MailboxStats::default())
}

/// Simulates a run on the direct driver's one shard, up to and including
/// the end-of-measurement closes.
fn drive_direct(
    cfg: &FullProtocolConfig,
    specs: Vec<RemotePeerSpec>,
    events: Vec<PopulationEvent>,
    track_dht: bool,
) -> Vec<Shard> {
    let mut shards = build(cfg, specs, events, track_dht, false);
    let shard = &mut shards[0];
    shard.init();
    shard.run_epoch(shard.end, true);
    shard.finish();
    shards
}

/// The lock-step driver: `cfg.shards` shards over sealed epochs, with
/// deterministic inter-shard mailboxes, on `cfg.threads` worker threads.
pub(crate) fn run_lockstep(
    cfg: &FullProtocolConfig,
    specs: Vec<RemotePeerSpec>,
    events: Vec<PopulationEvent>,
    track_dht: bool,
) -> (SimulationOutput, MailboxStats, PhaseTimes) {
    let mut phases = PhaseTimes::default();
    let (shards, stats) = drive_lockstep(cfg, specs, events, track_dht, &mut phases);
    let (output, stats) = timed(&mut phases.assemble, || assemble(shards, track_dht, stats));
    (output, stats, phases)
}

/// Simulates a run on the lock-step driver's shards, up to and including
/// the end-of-measurement closes, timing each phase into `phases`.
fn drive_lockstep(
    cfg: &FullProtocolConfig,
    specs: Vec<RemotePeerSpec>,
    events: Vec<PopulationEvent>,
    track_dht: bool,
    phases: &mut PhaseTimes,
) -> (Vec<Shard>, MailboxStats) {
    let mut shards = timed(&mut phases.build, || {
        build(cfg, specs, events, track_dht, true)
    });
    let mut stats = MailboxStats::default();
    timed(&mut phases.init, || par_shards(&mut shards, cfg.threads, Shard::init));
    // Upfront exchange: gossip sightings drawn at init are scheduled at
    // arbitrary times, so they must be delivered before epoch 0 starts.
    timed(&mut phases.exchange, || exchange(&mut shards, &mut stats));
    let end_ms = cfg.duration.as_millis();
    let epoch_ms = cfg.latency().as_millis();
    let mut k = 0u64;
    while k * epoch_ms < end_ms {
        let limit = SimTime::from_millis(((k + 1) * epoch_ms).min(end_ms));
        timed(&mut phases.epochs, || {
            par_shards(&mut shards, cfg.threads, |shard| shard.run_epoch(limit, false))
        });
        timed(&mut phases.exchange, || exchange(&mut shards, &mut stats));
        stats.epochs += 1;
        k += 1;
    }
    // Final drain: every event at exactly `end` is already queued, so both
    // drivers process the end-time tie-break in the same key order.
    let end = SimTime::ZERO + cfg.duration;
    timed(&mut phases.epochs, || {
        par_shards(&mut shards, cfg.threads, |shard| shard.run_epoch(end, true));
        par_shards(&mut shards, cfg.threads, Shard::finish);
    });
    (shards, stats)
}

/// Runs a population sharded across `cfg.shards` lock-step engine shards
/// with deterministic inter-shard mailboxes, without routing-table
/// tracking.
///
/// The trace is byte-identical for every shard count and every
/// worker-thread count, and equal to [`crate::Network::run`] on the same
/// inputs when the epoch is the default 60 s.
pub fn run_full_protocol(cfg: &FullProtocolConfig, specs: Vec<RemotePeerSpec>) -> FullProtocolRun {
    let (output, stats, phases) = run_lockstep(cfg, specs, Vec::new(), false);
    FullProtocolRun::new(output, stats, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DhtRole;
    use crate::obs::ObservationKind;
    use crate::spec::{
        DialBehavior, MetadataChange, RemotePeerSpec, ScheduledChange, SessionPattern,
    };
    use p2pmodel::{AgentVersion, ConnLimits, IdentifyInfo, IpAddress, Multiaddr, ProtocolSet};

    fn tiny_population(n: usize, seed: u64) -> Vec<RemotePeerSpec> {
        let mut rng = SimRng::seed_from(seed);
        (0..n)
            .map(|i| {
                let server = rng.chance(0.6);
                let protocols = if server {
                    ProtocolSet::go_ipfs_dht_server()
                } else {
                    ProtocolSet::go_ipfs_dht_client()
                };
                let session = match rng.index(5) {
                    0 => SessionPattern::AlwaysOn,
                    1..=3 => SessionPattern::Intermittent {
                        online_median_secs: 300.0,
                        offline_median_secs: 150.0,
                        sigma: 0.8,
                        initial_delay_secs: rng.unit() * 400.0,
                    },
                    _ => SessionPattern::OneShot {
                        arrival_secs: rng.unit() * 600.0,
                        stay_secs: 400.0,
                    },
                };
                let behavior = DialBehavior {
                    dial_server_prob: 0.9,
                    dial_client_prob: 0.2,
                    redial_median_secs: 30.0,
                    redial_sigma: 0.8,
                    reconnect: true,
                    hold_server_median_secs: 120.0,
                    hold_client_median_secs: 60.0,
                    hold_sigma: 1.0,
                    identify_prob: 0.95,
                    observer_value: 0,
                };
                let mut spec = RemotePeerSpec::new(
                    PeerId::derived(i as u64),
                    Multiaddr::default_swarm(IpAddress::random_v4(&mut rng)),
                    IdentifyInfo::new(
                        AgentVersion::parse("go-ipfs/0.11.0/"),
                        protocols,
                        Vec::new(),
                    ),
                )
                .with_session(session)
                .with_behavior(behavior)
                .with_gossip_visibility(0.1);
                if i % 4 == 0 {
                    spec = spec.with_changes(vec![
                        ScheduledChange {
                            at: SimTime::from_secs(500),
                            change: MetadataChange::SetProtocols(if server {
                                ProtocolSet::go_ipfs_dht_client()
                            } else {
                                ProtocolSet::go_ipfs_dht_server()
                            }),
                        },
                        ScheduledChange {
                            at: SimTime::from_secs(900),
                            change: MetadataChange::SetAgent(AgentVersion::parse(
                                "go-ipfs/0.12.0/",
                            )),
                        },
                    ]);
                }
                spec
            })
            .collect()
    }

    fn tiny_config(seed: u64, shards: usize, threads: usize) -> FullProtocolConfig {
        let observers = vec![
            ObserverSpec::new("go-ipfs", PeerId::derived(1_000_000), DhtRole::Server, ConnLimits::new(20, 30)),
            ObserverSpec::new("hydra-h0", PeerId::derived(1_000_001), DhtRole::Server, ConnLimits::new(15, 25)),
            ObserverSpec::new("client", PeerId::derived(1_000_002), DhtRole::Client, ConnLimits::new(10, 15)),
        ];
        FullProtocolConfig::new(seed, SimDuration::from_mins(30), observers)
            .with_epoch(SimDuration::from_secs(60))
            .with_shards(shards)
            .with_threads(threads)
    }

    /// The direct driver, completed like a lock-step run.
    fn reference(cfg: &FullProtocolConfig, specs: Vec<RemotePeerSpec>) -> FullProtocolRun {
        let (output, stats) = run_direct(cfg, specs, Vec::new(), false);
        FullProtocolRun::new(output, stats, PhaseTimes::default())
    }

    fn fingerprint(run: &FullProtocolRun) -> (u64, u64, Vec<usize>, usize) {
        (
            run.stats.checksum,
            run.stats.observations,
            run.output
                .logs
                .iter()
                .map(|log| log.table().len())
                .collect(),
            run.output.ground_truth.events.len(),
        )
    }

    #[test]
    fn one_shard_run_matches_reference_exactly() {
        let reference = reference(&tiny_config(42, 1, 1), tiny_population(40, 7));
        let sharded = run_full_protocol(&tiny_config(42, 1, 1), tiny_population(40, 7));
        assert!(reference.stats.observations > 0, "campaign produced no observations");
        assert_eq!(fingerprint(&reference), fingerprint(&sharded));
        assert_eq!(
            reference.output.ground_truth.events,
            sharded.output.ground_truth.events
        );
        for (a, b) in reference.output.logs.iter().zip(&sharded.output.logs) {
            assert_eq!(a.observer, b.observer);
            assert_eq!(a, b);
        }
    }

    /// The engine appends each observer's rows in time order, which the
    /// assertion in `assemble` relies on: checked on the tables before
    /// assembly, under scripted joins and leaves, for the direct driver and
    /// for a lock-step run on three shards.
    #[test]
    fn engine_tables_are_chronological() {
        let cfg = tiny_config(17, 3, 2);
        let events = || {
            vec![
                PopulationEvent {
                    at: SimTime::from_secs(600),
                    action: PopulationAction::Join(tiny_population(70, 9).split_off(60)),
                },
                PopulationEvent {
                    at: SimTime::from_secs(1200),
                    action: PopulationAction::Leave((0..10).map(PeerId::derived).collect()),
                },
            ]
        };
        let direct = drive_direct(&cfg, tiny_population(60, 5), events(), true);
        let mut phases = PhaseTimes::default();
        let (lockstep, _) =
            drive_lockstep(&cfg, tiny_population(60, 5), events(), true, &mut phases);
        assert_eq!(lockstep.len(), 3);
        for shards in [direct, lockstep] {
            let tables: Vec<&ObservationTable> = shards
                .iter()
                .flat_map(|shard| &shard.observers)
                .map(|ob| &ob.table)
                .collect();
            assert_eq!(tables.len(), cfg.observers.len());
            for table in tables {
                assert!(!table.is_empty());
                assert!(
                    table.is_sorted_by_time(),
                    "the engine must append rows in time order"
                );
            }
        }
    }

    #[test]
    fn trace_is_invariant_across_shard_counts() {
        let reference = reference(&tiny_config(99, 1, 1), tiny_population(50, 11));
        for shards in [2usize, 4, 8] {
            let sharded = run_full_protocol(&tiny_config(99, shards, 1), tiny_population(50, 11));
            assert_eq!(
                fingerprint(&reference),
                fingerprint(&sharded),
                "shard count {shards} diverged from the reference trace"
            );
            assert_eq!(
                reference.output.ground_truth.events,
                sharded.output.ground_truth.events
            );
        }
    }

    #[test]
    fn trace_is_invariant_across_thread_counts() {
        let one = run_full_protocol(&tiny_config(7, 4, 1), tiny_population(48, 3));
        let many = run_full_protocol(&tiny_config(7, 4, 8), tiny_population(48, 3));
        assert_eq!(fingerprint(&one), fingerprint(&many));
        assert_eq!(one.output.ground_truth.events, many.output.ground_truth.events);
    }

    #[test]
    fn shared_payloads_intern_like_owned_ones() {
        // Every spec owns its payload; every fourth one has a change chain.
        let owned = tiny_population(48, 3);
        // The same population, with equal payloads sharing one allocation.
        let mut palette: Vec<Arc<IdentifyInfo>> = Vec::new();
        let mut shared = owned.clone();
        for spec in &mut shared {
            match palette.iter().find(|p| **p == spec.identify) {
                Some(p) => spec.identify = Arc::clone(p),
                None => palette.push(Arc::clone(&spec.identify)),
            }
        }
        assert!(palette.len() < shared.len(), "no two specs share a payload");
        let owned = run_full_protocol(&tiny_config(7, 4, 1), owned);
        let shared = run_full_protocol(&tiny_config(7, 4, 1), shared);
        assert_eq!(fingerprint(&owned), fingerprint(&shared));
        assert_eq!(owned.output.ground_truth.events, shared.output.ground_truth.events);
        assert_eq!(owned.output.logs, shared.output.logs);
        let payloads = |run: &FullProtocolRun| {
            let registry = run.output.logs[0].registry();
            (0..registry.identify_count() as u32)
                .map(|id| registry.identify(id).clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(payloads(&owned), payloads(&shared));
    }

    #[test]
    fn sharded_run_actually_crosses_shards() {
        let run = run_full_protocol(&tiny_config(5, 2, 1), tiny_population(40, 13));
        assert!(run.stats.epochs > 0, "no epochs executed");
        assert!(run.stats.mailbox_events > 0, "no mailbox traffic");
        assert!(
            run.stats.cross_shard_events > 0,
            "two shards exchanged no cross-shard events"
        );
    }

    #[test]
    fn reference_driver_reports_no_mailbox_traffic() {
        let run = reference(&tiny_config(5, 4, 4), tiny_population(20, 13));
        assert_eq!(run.stats.epochs, 0);
        assert_eq!(run.stats.mailbox_events, 0);
        assert_eq!(run.stats.cross_shard_events, 0);
        assert!(run.stats.sim_events > 0);
    }

    #[test]
    fn metadata_changes_surface_in_observer_logs() {
        let run = reference(&tiny_config(21, 1, 1), tiny_population(40, 7));
        let roles = run
            .output
            .ground_truth
            .events
            .iter()
            .filter(|e| matches!(e, GroundTruthEvent::RoleChanged { .. }))
            .count();
        assert!(roles > 0, "population scripted role flips but none fired");
        let identifies: usize = run
            .output
            .logs
            .iter()
            .map(|l| {
                let kinds = l.table().kinds().iter();
                kinds
                    .filter(|&&kind| kind == ObservationKind::Identify)
                    .count()
            })
            .sum();
        assert!(identifies > 0, "no identify exchanges were observed");
    }

    #[test]
    fn derive_seed_separates_domains_and_indices() {
        let a = derive_seed(1, PEER_RNG_DOMAIN, 0);
        let b = derive_seed(1, PEER_RNG_DOMAIN, 1);
        let c = derive_seed(1, OBSERVER_RNG_DOMAIN, 0);
        let d = derive_seed(2, PEER_RNG_DOMAIN, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    /// Peers `0..8` are always on and hold for exactly 60 s (`hold_sigma`
    /// 0): each dials every observer 90 s in, and redials 30 s after each
    /// remote trim, so its holds expire every 90 s in step with the others
    /// — the last one exactly at the end of the run. The other peers come
    /// and go and hold for ten minutes, so the tiny water marks trim them
    /// and their departures close them while their holds are pending.
    fn hold_population() -> Vec<RemotePeerSpec> {
        (0..24u64)
            .map(|i| {
                let steady = i < 8;
                let hold = if steady { 60.0 } else { 600.0 };
                let behavior = DialBehavior {
                    dial_server_prob: 1.0,
                    dial_client_prob: 1.0,
                    redial_median_secs: 30.0,
                    redial_sigma: 0.0,
                    reconnect: true,
                    hold_server_median_secs: hold,
                    hold_client_median_secs: hold,
                    hold_sigma: 0.0,
                    identify_prob: 1.0,
                    observer_value: if steady { 100 } else { 0 },
                };
                let session = if steady {
                    SessionPattern::AlwaysOn
                } else {
                    SessionPattern::Intermittent {
                        online_median_secs: 240.0,
                        offline_median_secs: 120.0,
                        sigma: 0.0,
                        initial_delay_secs: (i * 37) as f64,
                    }
                };
                RemotePeerSpec::new(
                    PeerId::derived(i),
                    Multiaddr::default_swarm(IpAddress::V4(i as u32 + 1)),
                    IdentifyInfo::new(
                        AgentVersion::parse("go-ipfs/0.11.0/"),
                        ProtocolSet::go_ipfs_dht_server(),
                        Vec::new(),
                    ),
                )
                .with_session(session)
                .with_behavior(behavior)
            })
            .collect()
    }

    fn hold_config(shards: usize) -> FullProtocolConfig {
        let observers = vec![
            ObserverSpec::new("go-ipfs", PeerId::derived(1_000_000), DhtRole::Server, ConnLimits::new(10, 14))
                .with_outbound_target(0),
            ObserverSpec::new(
                "hydra-h0",
                PeerId::derived(1_000_001),
                DhtRole::Server,
                ConnLimits::new(3, 5).with_grace_period(SimDuration::ZERO),
            )
            .with_outbound_target(2),
            ObserverSpec::new("client", PeerId::derived(1_000_002), DhtRole::Client, ConnLimits::new(9, 12))
                .with_outbound_target(0),
        ];
        FullProtocolConfig::new(3, SimDuration::from_secs(1860), observers).with_shards(shards)
    }

    /// Remote holds close at their exact expiry, in connection-id order
    /// within a millisecond, and a hold cancelled by a trim or a departure
    /// closes nothing: the trace equals the one recorded when every hold was
    /// its own queued event, on the direct driver and on 1, 2 and 4
    /// lock-step shards.
    #[test]
    fn remote_holds_close_at_their_expiry() {
        const PINNED: u64 = 0xa939_0245_fe6e_996d;
        let direct = reference(&hold_config(1), hold_population());
        let end = SimTime::from_secs(1860);
        let closes = |reason: CloseReason| -> Vec<(usize, SimTime)> {
            let mut rows = Vec::new();
            for (o, log) in direct.output.logs.iter().enumerate() {
                let table = log.table();
                for i in 0..table.len() {
                    if table.kind_at(i) == ObservationKind::Closed
                        && crate::obs::close_reason_from_payload(table.payload_at(i)) == reason
                    {
                        rows.push((o, table.at(i)));
                    }
                }
            }
            rows
        };
        let remote = closes(CloseReason::TrimmedRemote);
        assert!(
            remote.windows(2).any(|w| w[0] == w[1]),
            "no observer closed two remote holds in the same millisecond"
        );
        assert!(remote.iter().any(|&(_, at)| at == end), "no hold was due exactly at the end");
        assert!(!closes(CloseReason::TrimmedLocal).is_empty(), "no trim cancelled a hold");
        assert!(!closes(CloseReason::PeerLeft).is_empty(), "no departure cancelled a hold");
        let mut checksums = vec![direct.stats.checksum];
        for shards in [1, 2, 4] {
            let run = run_full_protocol(&hold_config(shards), hold_population());
            checksums.push(run.stats.checksum);
        }
        assert_eq!(checksums, vec![PINNED; 4], "{checksums:x?}");
    }
}
