//! Per-peer DHT routing tables, synthesised after a run and replayable by
//! the crawler.
//!
//! The engine models only observer-incident edges, so remote-to-remote
//! routing tables cannot be read off simulated traffic. Instead the
//! [`DhtTracker`] synthesises them deterministically from what the run
//! recorded: a server coming online bootstraps into the tables of its
//! closest online neighbours (plus one contact per doubling of the distance
//! rank — the shape of a Kademlia bucket walk), dials and gossip admit peers
//! into *observer* tables, and departures evict a peer from every table that
//! holds it. The tracker draws no randomness: table membership is a pure
//! function of the ground-truth stream and the observers' contacts, so
//! enabling or disabling it never perturbs the passive observation logs.
//! The engine runs it as a post-pass over the finished run because a new
//! server's neighbours span the whole population, which no single engine
//! shard holds. The tracker's state lives in vectors indexed by slot, one
//! per `PeerId`: the engine hands over its registry slots, ground-truth
//! rows and observer contacts as slots, so the post-pass hashes nothing;
//! [`dht_log_from_ground_truth`] and the tracker's `PeerId` entry points
//! intern each `PeerId` into a slot and run the same code.
//!
//! The tracker's output is a [`DhtLog`]: a dictionary of the peers it
//! mentions plus an append-only stream of [`DhtEvent`]s that refer to them
//! by slot, numbered in order of first appearance (bootstrap list, conduct
//! table, events) — the order of the archive's DHT block, which therefore
//! writes the dictionary as it is. `measurement::ActiveCrawler` replays the
//! log with [`DhtLog::replay`] to reconstruct every routing table as of each
//! crawl time and then walks them with iterative `FIND_NODE` lookups — the
//! crawler sees exactly what the tables would have answered, nothing more.
//! The replay keeps one table per slot in a vector, so applying an event
//! indexes it and hashes nothing.
//!
//! Only *membership* changes are logged. `KBucket` LRU refreshes are not:
//! [`p2pmodel::RoutingTable::closest`] and bucket-full rejection depend only
//! on membership, so a membership-only replay reproduces lookup responses
//! exactly.
//!
//! [`DhtConduct`] opens the adversarial axis: Sybil tables only admit fellow
//! cluster members (and thus answer lookups with nothing but Sybils), and
//! poisoners pad replies with fabricated peer IDs that waste the crawler's
//! time budget on dial timeouts.

use crate::events::{GroundTruth, GroundTruthEvent};
use p2pmodel::kademlia::DEFAULT_BUCKET_SIZE;
use p2pmodel::{Distance, PeerId, RoutingTable};
use simclock::SimTime;
use std::collections::HashMap;

/// How a peer behaves at the DHT protocol level.
///
/// Passive behaviour (dialing, identify, gossip) is specified separately in
/// [`crate::RemotePeerSpec::behavior`]; the conduct only shapes routing-table
/// admission and lookup replies, so DHT-level adversaries can leave the
/// passive monitor view byte-identical while skewing the crawler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtConduct {
    /// Ordinary Kademlia behaviour.
    Honest,
    /// A Sybil identity: its table admits only members of the same cluster,
    /// so every lookup that reaches it is answered with nothing but Sybils.
    Sybil {
        /// Cluster tag; Sybils of one operator share it.
        cluster: u32,
    },
    /// Answers lookups honestly but pads each reply with this many
    /// fabricated peer IDs that do not exist in the network.
    Poison {
        /// Number of junk entries per reply.
        junk_per_reply: usize,
    },
}

impl DhtConduct {
    /// Whether this is plain honest behaviour.
    pub fn is_honest(&self) -> bool {
        matches!(self, DhtConduct::Honest)
    }

    /// Whether a table owned by a peer of this conduct admits an entry of
    /// the given conduct.
    pub(crate) fn admits(&self, entry: DhtConduct) -> bool {
        match self {
            DhtConduct::Honest | DhtConduct::Poison { .. } => true,
            DhtConduct::Sybil { cluster } => {
                matches!(entry, DhtConduct::Sybil { cluster: c } if c == *cluster)
            }
        }
    }
}

/// One membership change in the network's routing tables. Peers are slots
/// of the log's [`DhtLog::peers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtEvent {
    /// A DHT-Server came online with a fresh routing table.
    Up {
        /// Timestamp.
        at: SimTime,
        /// The server.
        server: u32,
    },
    /// A DHT-Server went offline; its own routing table is dropped.
    Down {
        /// Timestamp.
        at: SimTime,
        /// The server.
        server: u32,
    },
    /// `entry` was admitted into `owner`'s routing table.
    Admit {
        /// Timestamp.
        at: SimTime,
        /// The table owner.
        owner: u32,
        /// The admitted peer.
        entry: u32,
    },
    /// `entry` was evicted from `owner`'s routing table.
    Evict {
        /// Timestamp.
        at: SimTime,
        /// The table owner.
        owner: u32,
        /// The evicted peer.
        entry: u32,
    },
}

impl DhtEvent {
    /// The timestamp of the event.
    pub(crate) fn at(&self) -> SimTime {
        match self {
            DhtEvent::Up { at, .. }
            | DhtEvent::Down { at, .. }
            | DhtEvent::Admit { at, .. }
            | DhtEvent::Evict { at, .. } => *at,
        }
    }
}

/// The routing-table history of one simulation run.
///
/// Produced by the [`DhtTracker`]; replayed with [`DhtLog::replay`]. Every
/// other field refers to peers by their slot in [`Self::peers`], and a
/// tracker's log numbers its slots in order of first appearance: the
/// bootstrap list, then the conduct table, then the events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DhtLog {
    /// Bucket size the tables were maintained with.
    pub k: usize,
    /// The `PeerId` of each slot, each at most once.
    pub peers: Vec<PeerId>,
    /// The bootstrap peers (server observers): every crawl seeds here.
    pub bootstrap: Vec<u32>,
    /// Peers with non-honest conduct, sorted by `PeerId`.
    pub conduct: Vec<(u32, DhtConduct)>,
    /// Chronological membership events.
    pub events: Vec<DhtEvent>,
}

impl DhtLog {
    /// Starts a replay cursor at time zero.
    pub fn replay(&self) -> DhtReplay<'_> {
        DhtReplay {
            log: self,
            cursor: 0,
            view: DhtView {
                k: if self.k == 0 {
                    DEFAULT_BUCKET_SIZE
                } else {
                    self.k
                },
                tables: vec![None; self.peers.len()],
            },
        }
    }
}

/// The state of every routing table at one instant of the replay, by slot
/// of the log's [`DhtLog::peers`].
#[derive(Debug, Clone)]
pub struct DhtView {
    k: usize,
    /// A slot's table exists exactly while its owner is online.
    tables: Vec<Option<RoutingTable>>,
}

impl DhtView {
    /// Whether the peer in `slot` is online (its table exists). A slot past
    /// the log's peers is never online.
    pub fn online(&self, slot: u32) -> bool {
        self.table(slot).is_some()
    }

    /// The routing table of the peer in `slot`, if it is online. Its
    /// entries are slots of the same log.
    pub fn table(&self, slot: u32) -> Option<&RoutingTable> {
        self.tables.get(slot as usize)?.as_ref()
    }

    fn apply(&mut self, peers: &[PeerId], event: &DhtEvent) {
        match *event {
            DhtEvent::Up { server, .. } => {
                let table = RoutingTable::with_bucket_size(peers[server as usize], self.k);
                self.tables[server as usize] = Some(table);
            }
            DhtEvent::Down { server, .. } => {
                self.tables[server as usize] = None;
            }
            DhtEvent::Admit { owner, entry, .. } => {
                if let Some(table) = &mut self.tables[owner as usize] {
                    // The admit was logged because it succeeded live; bucket
                    // fullness depends only on membership, so it succeeds
                    // identically here.
                    table.insert(peers, entry);
                }
            }
            DhtEvent::Evict { owner, entry, .. } => {
                if let Some(table) = &mut self.tables[owner as usize] {
                    table.remove(peers, entry);
                }
            }
        }
    }
}

/// A forward-only cursor over a [`DhtLog`].
#[derive(Debug, Clone)]
pub struct DhtReplay<'a> {
    log: &'a DhtLog,
    cursor: usize,
    view: DhtView,
}

impl DhtReplay<'_> {
    /// Applies every event with `event.at() <= at`. Crawls advance the
    /// cursor monotonically; rewinding requires a fresh [`DhtLog::replay`].
    pub fn advance_to(&mut self, at: SimTime) {
        while let Some(event) = self.log.events.get(self.cursor) {
            if event.at() > at {
                break;
            }
            self.view.apply(&self.log.peers, event);
            self.cursor += 1;
        }
    }

    /// The table state as of the last [`Self::advance_to`].
    pub fn view(&self) -> &DhtView {
        &self.view
    }
}

/// Maintains routing tables over a replayed run and records their
/// membership history as a [`DhtLog`].
///
/// Its state lives in vectors indexed by *slot*, one slot per `PeerId`, and
/// its tables are [`RoutingTable`]s over the same slots. The engine's
/// post-pass hands over the run's registry slots; the `PeerId` entry points
/// ([`Self::register_bootstrap`], [`Self::set_conduct`],
/// [`Self::server_up`]) and [`dht_log_from_ground_truth`] intern each new
/// `PeerId` into the next slot and run the same code. Nothing here consumes
/// engine randomness.
#[derive(Debug)]
pub struct DhtTracker {
    k: usize,
    /// The `PeerId` of each slot.
    peers: Vec<PeerId>,
    /// Slot of each interned `PeerId`; empty when the engine handed the
    /// slots over.
    index: HashMap<PeerId, u32>,
    bootstrap: Vec<u32>,
    conduct: Vec<DhtConduct>,
    /// A slot's routing table, present exactly while it is up.
    tables: Vec<Option<RoutingTable>>,
    /// Per slot, the owners that admitted it since it last went down. An
    /// owner that evicted it or went down since may stay listed, even
    /// twice; eviction on departure skips owners whose table no longer
    /// holds it.
    holders: Vec<Vec<u32>>,
    /// Up servers, as a swap-remove list plus each slot's position in it
    /// (`u32::MAX` when down). The order never matters: neighbour
    /// selection ranks by XOR distance, a total order.
    online: Vec<u32>,
    pos: Vec<u32>,
    /// Scratch of [`Self::server_up`]'s neighbour ranking.
    ranked: Vec<(Distance, u32)>,
    /// The log so far, on tracker slots; [`Self::into_log`] renumbers it.
    events: Vec<DhtEvent>,
}

impl DhtTracker {
    /// An empty tracker with the given bucket size.
    pub fn new(k: usize) -> Self {
        DhtTracker::with_peers(k, Vec::new())
    }

    /// A tracker with one slot per given `PeerId`, in order; the `PeerId`
    /// entry points must not be used on it.
    pub(crate) fn with_peers(k: usize, peers: Vec<PeerId>) -> Self {
        assert!(k > 0, "bucket size must be positive");
        let n = peers.len();
        DhtTracker {
            k,
            peers,
            index: HashMap::new(),
            bootstrap: Vec::new(),
            conduct: vec![DhtConduct::Honest; n],
            tables: vec![None; n],
            holders: vec![Vec::new(); n],
            online: Vec::new(),
            pos: vec![u32::MAX; n],
            ranked: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The slot of a `PeerId`, interning it into a new slot on first sight.
    fn intern(&mut self, peer: PeerId) -> u32 {
        debug_assert_eq!(self.index.len(), self.peers.len(), "slots were handed over");
        if let Some(&slot) = self.index.get(&peer) {
            return slot;
        }
        let slot = self.peers.len() as u32;
        self.index.insert(peer, slot);
        self.peers.push(peer);
        self.conduct.push(DhtConduct::Honest);
        self.tables.push(None);
        self.holders.push(Vec::new());
        self.pos.push(u32::MAX);
        slot
    }

    /// Registers a bootstrap peer (a server observer): it is brought online
    /// at time zero and every later joiner links to it.
    pub fn register_bootstrap(&mut self, peer: PeerId) {
        let slot = self.intern(peer);
        self.add_bootstrap(slot);
    }

    fn add_bootstrap(&mut self, slot: u32) {
        self.bootstrap.push(slot);
        self.up(SimTime::ZERO, slot);
    }

    /// Records a peer's DHT conduct (honest peers need no record).
    pub fn set_conduct(&mut self, peer: PeerId, conduct: DhtConduct) {
        if !conduct.is_honest() {
            let slot = self.intern(peer);
            self.conduct[slot as usize] = conduct;
        }
    }

    /// A DHT-Server came online: it gets a fresh table and bootstraps —
    /// symmetric links to the bootstrap observers, its `k` closest online
    /// peers, and one peer per doubling of the distance rank beyond that
    /// (the contacts an iterative self-lookup would collect, one per
    /// k-bucket). No-op if the peer is already up.
    pub fn server_up(&mut self, at: SimTime, peer: PeerId) {
        let slot = self.intern(peer);
        self.up(at, slot);
    }

    fn up(&mut self, at: SimTime, slot: u32) {
        let s = slot as usize;
        if self.tables[s].is_some() {
            return;
        }
        let peer = self.peers[s];
        self.events.push(DhtEvent::Up { at, server: slot });
        self.tables[s] = Some(RoutingTable::with_bucket_size(peer, self.k));

        let mut contacts: Vec<u32> = self
            .bootstrap
            .iter()
            .copied()
            .filter(|&b| b != slot)
            .collect();
        let mut ranked = std::mem::take(&mut self.ranked);
        ranked.clear();
        ranked.extend(
            self.online
                .iter()
                .filter(|&&p| p != slot)
                .map(|&p| (self.peers[p as usize].distance(&peer), p)),
        );
        // XOR distances to a fixed key are distinct, so the ranks — and the
        // whole synthesised topology — are deterministic. Only ranks below
        // `k` and the log-spaced ranks `k, 2k, 4k, …` are needed: select
        // those from the largest down, each within the prefix the previous
        // selection left below it, then sort the `k` closest — O(n) in all.
        let n = ranked.len();
        let mut rank = self.k;
        if rank < n {
            while rank * 2 < n {
                rank *= 2;
            }
            let mut end = n;
            loop {
                ranked[..end].select_nth_unstable_by_key(rank, |r| r.0);
                if rank == self.k {
                    break;
                }
                end = rank;
                rank /= 2;
            }
        }
        let closest = self.k.min(n);
        ranked[..closest].sort_unstable_by_key(|r| r.0);
        contacts.extend(ranked[..closest].iter().map(|&(_, p)| p));
        let mut rank = self.k;
        while rank < n {
            contacts.push(ranked[rank].1);
            rank *= 2;
        }
        self.ranked = ranked;
        for contact in contacts {
            self.admit(at, contact, slot);
            self.admit(at, slot, contact);
        }

        self.pos[s] = self.online.len() as u32;
        self.online.push(slot);
    }

    /// A DHT-Server went offline: its own table is dropped and it is evicted
    /// from every table that holds it (owners in PID order). No-op if the
    /// peer is not up.
    fn down(&mut self, at: SimTime, slot: u32) {
        let s = slot as usize;
        if self.tables[s].take().is_none() {
            return;
        }
        self.events.push(DhtEvent::Down { at, server: slot });
        let idx = std::mem::replace(&mut self.pos[s], u32::MAX) as usize;
        self.online.swap_remove(idx);
        if let Some(&moved) = self.online.get(idx) {
            self.pos[moved as usize] = idx as u32;
        }
        let mut holders = std::mem::take(&mut self.holders[s]);
        holders.sort_unstable_by_key(|&owner| self.peers[owner as usize]);
        holders.dedup();
        for &owner in &holders {
            let held = self.tables[owner as usize]
                .as_mut()
                .is_some_and(|table| table.remove(&self.peers, slot));
            if held {
                self.events.push(DhtEvent::Evict {
                    at,
                    owner,
                    entry: slot,
                });
            }
        }
        holders.clear();
        self.holders[s] = holders;
    }

    /// Tries to admit `entry` into `owner`'s table. No-op when the owner is
    /// offline, the entry is already a member, the owner's conduct rejects
    /// the entry, or the target bucket is full (LRU keeps the long-lived
    /// incumbents, as go-ipfs does).
    fn admit(&mut self, at: SimTime, owner: u32, entry: u32) {
        let (o, e) = (owner as usize, entry as usize);
        if owner == entry || !self.conduct[o].admits(self.conduct[e]) {
            return;
        }
        let Some(table) = self.tables[o].as_mut() else {
            return;
        };
        if table.contains(&self.peers, entry) {
            // Membership-only log: an LRU refresh changes no reply.
            return;
        }
        if table.insert(&self.peers, entry) {
            // An observer re-admits the peers it reconnects to; one entry
            // per run of re-admits keeps the list short.
            if self.holders[e].last() != Some(&owner) {
                self.holders[e].push(owner);
            }
            self.events.push(DhtEvent::Admit { at, owner, entry });
        }
    }

    /// Evicts `entry` from `owner`'s table, if present.
    fn evict(&mut self, at: SimTime, owner: u32, entry: u32) {
        let Some(table) = self.tables[owner as usize].as_mut() else {
            return;
        };
        if table.remove(&self.peers, entry) {
            let holders = &mut self.holders[entry as usize];
            if holders.last() == Some(&owner) {
                holders.pop();
            }
            self.events.push(DhtEvent::Evict { at, owner, entry });
        }
    }

    /// Replays a run through the tracker: every conduct, the bootstrap
    /// servers, then the ground-truth transitions with the observers'
    /// contacts merged in, and finalises the log. The engine's post-pass
    /// and [`dht_log_from_ground_truth`] both end here.
    ///
    /// `roles` gives each peer's initial role in population order (the
    /// first entry of a slot wins). Both streams must be time-ordered; a
    /// contact at the same instant as a transition applies after it.
    pub(crate) fn replay(
        mut self,
        roles: impl IntoIterator<Item = (u32, bool)>,
        bootstrap: &[u32],
        conduct: impl IntoIterator<Item = (u32, DhtConduct)>,
        transitions: impl IntoIterator<Item = (SimTime, u32, Transition)>,
        contacts: impl IntoIterator<Item = DhtContact>,
    ) -> DhtLog {
        for (slot, peer_conduct) in conduct {
            if !peer_conduct.is_honest() {
                self.conduct[slot as usize] = peer_conduct;
            }
        }
        for &slot in bootstrap {
            self.add_bootstrap(slot);
        }
        let mut role: Vec<Option<bool>> = vec![None; self.peers.len()];
        for (slot, server) in roles {
            role[slot as usize].get_or_insert(server);
        }
        let mut online = vec![false; self.peers.len()];
        let mut contacts = contacts.into_iter().peekable();
        for (at, slot, transition) in transitions {
            while let Some(contact) = contacts.next_if(|c| c.at < at) {
                self.apply(contact);
            }
            let s = slot as usize;
            match transition {
                Transition::Online => {
                    online[s] = true;
                    if role[s] == Some(true) {
                        self.up(at, slot);
                    }
                }
                Transition::Offline => {
                    online[s] = false;
                    self.down(at, slot);
                }
                Transition::Role(server) => {
                    role[s] = Some(server);
                    if online[s] {
                        if server {
                            self.up(at, slot);
                        } else {
                            self.down(at, slot);
                        }
                    }
                }
            }
        }
        for contact in contacts {
            self.apply(contact);
        }
        self.into_log()
    }

    fn apply(&mut self, contact: DhtContact) {
        if contact.admit {
            self.admit(contact.at, contact.owner, contact.entry);
        } else {
            self.evict(contact.at, contact.owner, contact.entry);
        }
    }

    /// Finalises the tracker into its log: the slots the log mentions are
    /// renumbered in order of first appearance — bootstrap list, conduct
    /// table in `PeerId` order, then events — in one pass through a map
    /// from tracker slot to log slot, and slots it never mentions are left
    /// out of [`DhtLog::peers`].
    pub fn into_log(self) -> DhtLog {
        let DhtTracker {
            k,
            peers: slot_peers,
            bootstrap,
            conduct: slot_conduct,
            mut events,
            ..
        } = self;
        let mut map = vec![u32::MAX; slot_peers.len()];
        let mut peers = Vec::new();
        let mut renumber = |slot: u32| {
            let log_slot = &mut map[slot as usize];
            if *log_slot == u32::MAX {
                *log_slot = peers.len() as u32;
                peers.push(slot_peers[slot as usize]);
            }
            *log_slot
        };
        let bootstrap = bootstrap.into_iter().map(&mut renumber).collect();
        let mut adversaries: Vec<u32> = (0..slot_conduct.len() as u32)
            .filter(|&slot| !slot_conduct[slot as usize].is_honest())
            .collect();
        adversaries.sort_unstable_by_key(|&slot| slot_peers[slot as usize]);
        let conduct = adversaries
            .into_iter()
            .map(|slot| (renumber(slot), slot_conduct[slot as usize]))
            .collect();
        for event in &mut events {
            match event {
                DhtEvent::Up { server, .. } | DhtEvent::Down { server, .. } => {
                    *server = renumber(*server);
                }
                DhtEvent::Admit { owner, entry, .. } | DhtEvent::Evict { owner, entry, .. } => {
                    *owner = renumber(*owner);
                    *entry = renumber(*entry);
                }
            }
        }
        DhtLog {
            k,
            peers,
            bootstrap,
            conduct,
            events,
        }
    }
}

/// A ground-truth transition of one tracker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// The peer came online.
    Online,
    /// The peer went offline.
    Offline,
    /// The peer switched DHT role (`true`: now a server).
    Role(bool),
}

/// A routing-table contact an observer made during a run, on tracker
/// slots: a dial or a gossip sighting of a DHT server admits `entry` into
/// `owner`'s table, a closed connection evicts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DhtContact {
    pub(crate) at: SimTime,
    pub(crate) owner: u32,
    pub(crate) entry: u32,
    pub(crate) admit: bool,
}

/// Builds the [`DhtLog`] a run over the given ground truth would have
/// produced, with every peer honest, no observer contacts and the given
/// bootstrap servers online throughout. Tests use this to crawl synthetic
/// populations without running the engine.
///
/// `ground_truth.events` must be sorted by time (they are, for any finished
/// run).
pub fn dht_log_from_ground_truth(ground_truth: &GroundTruth, bootstrap: &[PeerId]) -> DhtLog {
    let mut tracker = DhtTracker::new(DEFAULT_BUCKET_SIZE);
    let roles: Vec<(u32, bool)> = ground_truth
        .peers
        .iter()
        .map(|&(peer, server)| (tracker.intern(peer), server))
        .collect();
    let bootstrap: Vec<u32> = bootstrap.iter().map(|&peer| tracker.intern(peer)).collect();
    let transitions: Vec<(SimTime, u32, Transition)> = ground_truth
        .events
        .iter()
        .map(|event| {
            let (peer, transition) = match *event {
                GroundTruthEvent::PeerOnline { peer, .. } => (peer, Transition::Online),
                GroundTruthEvent::PeerOffline { peer, .. } => (peer, Transition::Offline),
                GroundTruthEvent::RoleChanged {
                    peer, dht_server, ..
                } => (peer, Transition::Role(dht_server)),
            };
            (event.at(), tracker.intern(peer), transition)
        })
        .collect();
    tracker.replay(roles, &bootstrap, [], transitions, [])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn pid(i: u64) -> PeerId {
        PeerId::derived(i)
    }

    fn down(tracker: &mut DhtTracker, at: SimTime, peer: PeerId) {
        let slot = tracker.intern(peer);
        tracker.down(at, slot);
    }

    /// Every live table's members, by owner.
    fn live_tables(tracker: &DhtTracker) -> BTreeMap<PeerId, BTreeSet<PeerId>> {
        let peers = &tracker.peers;
        tracker
            .tables
            .iter()
            .zip(peers)
            .filter_map(|(table, &owner)| {
                let members = table.as_ref()?.iter().map(|slot| peers[slot as usize]);
                Some((owner, members.collect()))
            })
            .collect()
    }

    #[test]
    fn replay_reproduces_the_live_tables_membership_for_membership() {
        let mut tracker = DhtTracker::new(4);
        tracker.register_bootstrap(pid(1000));
        for i in 0..40 {
            tracker.server_up(SimTime::from_secs(i), pid(i));
        }
        for i in (0..40).step_by(3) {
            down(&mut tracker, SimTime::from_secs(100 + i), pid(i));
        }
        let live = live_tables(&tracker);
        let log = tracker.into_log();
        let mut replay = log.replay();
        replay.advance_to(SimTime::from_secs(1_000_000));
        let view = replay.view();
        let online: Vec<u32> = (0..log.peers.len() as u32)
            .filter(|&s| view.online(s))
            .collect();
        assert_eq!(online.len(), live.len());
        for slot in online {
            let owner = log.peers[slot as usize];
            let table = view.table(slot).expect("owner online in replay");
            let replayed: BTreeSet<PeerId> = table
                .iter()
                .map(|entry| log.peers[entry as usize])
                .collect();
            assert_eq!(replayed, live[&owner], "table of {owner:?} diverged");
        }
    }

    #[test]
    fn departures_evict_everywhere_and_rejoin_rebootstraps() {
        let mut tracker = DhtTracker::new(20);
        for i in 0..30 {
            tracker.server_up(SimTime::ZERO, pid(i));
        }
        let victim = pid(7);
        down(&mut tracker, SimTime::from_secs(10), victim);
        let live = live_tables(&tracker);
        assert!(!live.contains_key(&victim));
        for members in live.values() {
            assert!(
                !members.contains(&victim),
                "victim must be evicted everywhere"
            );
        }
        tracker.server_up(SimTime::from_secs(20), victim);
        let live = live_tables(&tracker);
        let holders = live
            .iter()
            .filter(|(owner, members)| **owner != victim && members.contains(&victim))
            .count();
        assert!(holders > 0, "rejoin must re-announce the peer");
        assert!(!live[&victim].is_empty());
    }

    /// A departure evicts the peer from exactly the tables that hold it
    /// then, in PID order: not from an owner that evicted it since, and
    /// once from an owner that went down and came back with it again.
    #[test]
    fn departures_evict_only_current_holders_in_pid_order() {
        let mut tracker = DhtTracker::new(20);
        let peers: Vec<PeerId> = (0..6).map(pid).collect();
        let slots: Vec<u32> = peers.iter().map(|&p| tracker.intern(p)).collect();
        for &slot in &slots {
            tracker.up(SimTime::ZERO, slot);
        }
        let (victim, evicter, rejoiner) = (slots[0], slots[1], slots[2]);
        tracker.evict(SimTime::from_secs(1), evicter, victim);
        tracker.down(SimTime::from_secs(2), rejoiner);
        // Coming back up links the rejoiner to every online server again.
        tracker.up(SimTime::from_secs(3), rejoiner);
        let before = tracker.events.len();
        tracker.down(SimTime::from_secs(5), victim);
        let evicted: Vec<PeerId> = tracker.events[before..]
            .iter()
            .filter_map(|event| match *event {
                DhtEvent::Evict { owner, entry, .. } if entry == victim => {
                    Some(peers[owner as usize])
                }
                _ => None,
            })
            .collect();
        let mut expected: Vec<PeerId> = slots[2..].iter().map(|&s| peers[s as usize]).collect();
        expected.sort_unstable();
        assert_eq!(evicted, expected);
    }

    #[test]
    fn sybil_tables_admit_only_their_cluster() {
        let mut tracker = DhtTracker::new(20);
        tracker.set_conduct(pid(1), DhtConduct::Sybil { cluster: 7 });
        tracker.set_conduct(pid(2), DhtConduct::Sybil { cluster: 7 });
        tracker.set_conduct(pid(3), DhtConduct::Sybil { cluster: 8 });
        for i in 0..10 {
            tracker.server_up(SimTime::ZERO, pid(i));
        }
        let live = live_tables(&tracker);
        assert_eq!(
            live[&pid(1)],
            BTreeSet::from([pid(2)]),
            "only the same cluster"
        );
        // Honest tables admit the sybil.
        let holders = live
            .iter()
            .filter(|(owner, members)| **owner != pid(1) && members.contains(&pid(1)))
            .count();
        assert!(holders > 0, "honest peers must admit the sybil");
    }

    /// A log numbers its slots in order of first appearance — bootstrap,
    /// conduct in PID order, events — and lists only the peers it mentions.
    #[test]
    fn log_slots_follow_first_appearance() {
        let mut tracker = DhtTracker::new(20);
        // Interned first, never mentioned: a client.
        tracker.intern(pid(99));
        tracker.set_conduct(pid(5), DhtConduct::Poison { junk_per_reply: 2 });
        tracker.set_conduct(pid(3), DhtConduct::Sybil { cluster: 1 });
        tracker.register_bootstrap(pid(1000));
        for i in [4, 3, 5] {
            tracker.server_up(SimTime::from_secs(i), pid(i));
        }
        let log = tracker.into_log();
        let mut conduct_pids = [pid(3), pid(5)];
        conduct_pids.sort_unstable();
        let mut expected = vec![pid(1000)];
        expected.extend(conduct_pids);
        expected.push(pid(4));
        assert_eq!(log.peers, expected);
        assert_eq!(log.bootstrap, vec![0]);
        let conduct: Vec<PeerId> = log
            .conduct
            .iter()
            .map(|&(s, _)| log.peers[s as usize])
            .collect();
        assert_eq!(conduct, conduct_pids);
        assert_eq!(
            log.events[0],
            DhtEvent::Up {
                at: SimTime::ZERO,
                server: 0
            }
        );
        assert!(!log.peers.contains(&pid(99)));
        assert!(std::mem::size_of::<DhtEvent>() <= 24);
    }

    #[test]
    fn ground_truth_logs_are_chronological() {
        let gt = GroundTruth {
            peers: (0..20).map(|i| (pid(i), true)).collect(),
            events: (0..20)
                .map(|i| GroundTruthEvent::PeerOnline {
                    at: SimTime::from_secs(i * 5),
                    peer: pid(i),
                })
                .collect(),
        };
        let log = dht_log_from_ground_truth(&gt, &[pid(500)]);
        assert!(!log.events.is_empty());
        let mut prev = SimTime::ZERO;
        for event in &log.events {
            assert!(event.at() >= prev);
            prev = event.at();
        }
        assert!(log.conduct.is_empty());
        assert_eq!(log.peers[log.bootstrap[0] as usize], pid(500));
        assert_eq!(log.bootstrap, vec![0]);
    }
}
