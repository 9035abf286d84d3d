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
//! shard holds.
//!
//! The tracker's output is a [`DhtLog`]: an append-only stream of
//! [`DhtEvent`]s. `measurement::ActiveCrawler` replays the log with
//! [`DhtLog::replay`] to reconstruct every routing table as of each crawl
//! time and then walks them with iterative `FIND_NODE` lookups — the crawler
//! sees exactly what the tables would have answered, nothing more.
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
use std::collections::{BTreeSet, HashMap};

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
    pub fn admits(&self, entry: DhtConduct) -> bool {
        match self {
            DhtConduct::Honest | DhtConduct::Poison { .. } => true,
            DhtConduct::Sybil { cluster } => {
                matches!(entry, DhtConduct::Sybil { cluster: c } if c == *cluster)
            }
        }
    }
}

/// One membership change in the network's routing tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtEvent {
    /// A DHT-Server came online with a fresh routing table.
    Up {
        /// Timestamp.
        at: SimTime,
        /// The server.
        server: PeerId,
    },
    /// A DHT-Server went offline; its own routing table is dropped.
    Down {
        /// Timestamp.
        at: SimTime,
        /// The server.
        server: PeerId,
    },
    /// `entry` was admitted into `owner`'s routing table.
    Admit {
        /// Timestamp.
        at: SimTime,
        /// The table owner.
        owner: PeerId,
        /// The admitted peer.
        entry: PeerId,
    },
    /// `entry` was evicted from `owner`'s routing table.
    Evict {
        /// Timestamp.
        at: SimTime,
        /// The table owner.
        owner: PeerId,
        /// The evicted peer.
        entry: PeerId,
    },
}

impl DhtEvent {
    /// The timestamp of the event.
    pub fn at(&self) -> SimTime {
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
/// Produced by the [`DhtTracker`]; replayed with [`DhtLog::replay`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DhtLog {
    /// Bucket size the tables were maintained with.
    pub k: usize,
    /// The bootstrap peers (server observers): every crawl seeds here.
    pub bootstrap: Vec<PeerId>,
    /// Peers with non-honest conduct, sorted by PID.
    pub conduct: Vec<(PeerId, DhtConduct)>,
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
                k: if self.k == 0 { DEFAULT_BUCKET_SIZE } else { self.k },
                tables: HashMap::new(),
            },
        }
    }

    /// The set of peers with non-honest conduct.
    pub fn adversaries(&self) -> BTreeSet<PeerId> {
        self.conduct.iter().map(|(peer, _)| *peer).collect()
    }

    /// The conduct of a peer (honest unless recorded otherwise).
    pub fn conduct_of(&self, peer: &PeerId) -> DhtConduct {
        match self.conduct.binary_search_by(|(p, _)| p.cmp(peer)) {
            Ok(idx) => self.conduct[idx].1,
            Err(_) => DhtConduct::Honest,
        }
    }
}

/// The state of every routing table at one instant of the replay.
#[derive(Debug, Clone)]
pub struct DhtView {
    k: usize,
    /// A table exists exactly while its owner is online.
    tables: HashMap<PeerId, RoutingTable>,
}

impl DhtView {
    /// Whether the peer is online (its table exists).
    pub fn online(&self, peer: &PeerId) -> bool {
        self.tables.contains_key(peer)
    }

    /// The peer's routing table, if it is online.
    pub fn table(&self, peer: &PeerId) -> Option<&RoutingTable> {
        self.tables.get(peer)
    }

    /// Number of online table owners.
    pub fn online_count(&self) -> usize {
        self.tables.len()
    }

    /// All online table owners in PID order. Deterministic regardless of
    /// hash-map iteration order, so callers can use it as a seed list.
    pub fn owners_sorted(&self) -> Vec<PeerId> {
        let mut owners: Vec<PeerId> = self.tables.keys().copied().collect();
        owners.sort_unstable();
        owners
    }

    fn apply(&mut self, event: &DhtEvent) {
        match event {
            DhtEvent::Up { server, .. } => {
                self.tables
                    .insert(*server, RoutingTable::with_bucket_size(*server, self.k));
            }
            DhtEvent::Down { server, .. } => {
                self.tables.remove(server);
            }
            DhtEvent::Admit { owner, entry, .. } => {
                if let Some(table) = self.tables.get_mut(owner) {
                    // The admit was logged because it succeeded live; bucket
                    // fullness depends only on membership, so it succeeds
                    // identically here.
                    table.insert(*entry);
                }
            }
            DhtEvent::Evict { owner, entry, .. } => {
                if let Some(table) = self.tables.get_mut(owner) {
                    table.remove(entry);
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
            self.view.apply(event);
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
/// All methods are no-ops on a disabled tracker (see
/// [`crate::Network::with_dht_tracking`]). Nothing here consumes engine
/// randomness.
#[derive(Debug)]
pub struct DhtTracker {
    enabled: bool,
    k: usize,
    bootstrap: Vec<PeerId>,
    conduct: HashMap<PeerId, DhtConduct>,
    /// Online table owners, as a swap-remove vec + position map (iteration
    /// order never matters: neighbour selection sorts by XOR distance,
    /// which is a total order).
    online: Vec<PeerId>,
    pos: HashMap<PeerId, usize>,
    tables: HashMap<PeerId, RoutingTable>,
    /// Reverse index: entry → owners currently holding it. `BTreeSet` so
    /// eviction on departure walks owners in PID order, deterministically.
    holders: HashMap<PeerId, BTreeSet<PeerId>>,
    events: Vec<DhtEvent>,
}

impl DhtTracker {
    /// An enabled tracker with the given bucket size.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "bucket size must be positive");
        DhtTracker {
            enabled: true,
            k,
            bootstrap: Vec::new(),
            conduct: HashMap::new(),
            online: Vec::new(),
            pos: HashMap::new(),
            tables: HashMap::new(),
            holders: HashMap::new(),
            events: Vec::new(),
        }
    }

    /// A tracker that records nothing.
    pub fn disabled() -> Self {
        let mut tracker = DhtTracker::new(DEFAULT_BUCKET_SIZE);
        tracker.enabled = false;
        tracker
    }

    /// Registers a bootstrap peer (a server observer): it is brought online
    /// at time zero and every later joiner links to it.
    pub fn register_bootstrap(&mut self, peer: PeerId) {
        if !self.enabled {
            return;
        }
        self.bootstrap.push(peer);
        self.server_up(SimTime::ZERO, peer);
    }

    /// Records a peer's DHT conduct (honest peers need no record).
    pub fn set_conduct(&mut self, peer: PeerId, conduct: DhtConduct) {
        if !self.enabled || conduct.is_honest() {
            return;
        }
        self.conduct.insert(peer, conduct);
    }

    fn conduct_of(&self, peer: &PeerId) -> DhtConduct {
        self.conduct.get(peer).copied().unwrap_or(DhtConduct::Honest)
    }

    /// A DHT-Server came online: it gets a fresh table and bootstraps —
    /// symmetric links to the bootstrap observers, its `k` closest online
    /// peers, and one peer per doubling of the distance rank beyond that
    /// (the contacts an iterative self-lookup would collect, one per
    /// k-bucket). No-op if the peer is already up.
    pub fn server_up(&mut self, at: SimTime, peer: PeerId) {
        if !self.enabled || self.tables.contains_key(&peer) {
            return;
        }
        self.events.push(DhtEvent::Up { at, server: peer });
        self.tables
            .insert(peer, RoutingTable::with_bucket_size(peer, self.k));

        let mut contacts: Vec<PeerId> = self
            .bootstrap
            .iter()
            .copied()
            .filter(|b| *b != peer)
            .collect();
        let mut ranked: Vec<(Distance, PeerId)> = self
            .online
            .iter()
            .filter(|&&p| p != peer)
            .map(|&p| (p.distance(&peer), p))
            .collect();
        // XOR distances to a fixed key are distinct, so this order — and the
        // whole synthesised topology — is deterministic.
        ranked.sort_unstable_by_key(|r| r.0);
        contacts.extend(ranked.iter().take(self.k).map(|&(_, p)| p));
        let mut rank = self.k;
        while rank < ranked.len() {
            contacts.push(ranked[rank].1);
            rank *= 2;
        }
        for contact in contacts {
            self.admit(at, contact, peer);
            self.admit(at, peer, contact);
        }

        self.pos.insert(peer, self.online.len());
        self.online.push(peer);
    }

    /// A DHT-Server went offline: its own table is dropped and it is evicted
    /// from every table that holds it (owners in PID order). No-op if the
    /// peer is not up.
    pub fn server_down(&mut self, at: SimTime, peer: PeerId) {
        if !self.enabled {
            return;
        }
        let Some(table) = self.tables.remove(&peer) else {
            return;
        };
        self.events.push(DhtEvent::Down { at, server: peer });
        for entry in table.iter() {
            if let Some(holders) = self.holders.get_mut(entry) {
                holders.remove(&peer);
            }
        }
        if let Some(idx) = self.pos.remove(&peer) {
            self.online.swap_remove(idx);
            if idx < self.online.len() {
                self.pos.insert(self.online[idx], idx);
            }
        }
        if let Some(holders) = self.holders.remove(&peer) {
            for owner in holders {
                if let Some(t) = self.tables.get_mut(&owner) {
                    if t.remove(&peer) {
                        self.events.push(DhtEvent::Evict {
                            at,
                            owner,
                            entry: peer,
                        });
                    }
                }
            }
        }
    }

    /// Tries to admit `entry` into `owner`'s table. No-op when the owner is
    /// offline, the entry is already a member, the owner's conduct rejects
    /// the entry, or the target bucket is full (LRU keeps the long-lived
    /// incumbents, as go-ipfs does).
    pub fn admit(&mut self, at: SimTime, owner: PeerId, entry: PeerId) {
        if !self.enabled || owner == entry {
            return;
        }
        if !self.conduct_of(&owner).admits(self.conduct_of(&entry)) {
            return;
        }
        let Some(table) = self.tables.get_mut(&owner) else {
            return;
        };
        if table.contains(&entry) {
            // Membership-only log: an LRU refresh changes no reply.
            return;
        }
        if table.insert(entry) {
            self.holders.entry(entry).or_default().insert(owner);
            self.events.push(DhtEvent::Admit { at, owner, entry });
        }
    }

    /// Evicts `entry` from `owner`'s table, if present.
    pub fn evict(&mut self, at: SimTime, owner: PeerId, entry: PeerId) {
        if !self.enabled {
            return;
        }
        let Some(table) = self.tables.get_mut(&owner) else {
            return;
        };
        if table.remove(&entry) {
            if let Some(holders) = self.holders.get_mut(&entry) {
                holders.remove(&owner);
            }
            self.events.push(DhtEvent::Evict { at, owner, entry });
        }
    }

    /// Finalises the tracker into its log.
    pub fn into_log(self) -> DhtLog {
        let mut conduct: Vec<(PeerId, DhtConduct)> = self.conduct.into_iter().collect();
        conduct.sort_unstable_by_key(|c| c.0);
        DhtLog {
            k: self.k,
            bootstrap: self.bootstrap,
            conduct,
            events: self.events,
        }
    }
}

/// A routing-table contact an observer made during a run: a dial or a
/// gossip sighting of a DHT server admits `entry` into `owner`'s table, a
/// closed connection evicts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DhtContact {
    pub(crate) at: SimTime,
    pub(crate) owner: PeerId,
    pub(crate) entry: PeerId,
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
    replay_dht(ground_truth, bootstrap, &[], std::iter::empty())
}

/// The engine's routing-table post-pass: replays a run's ground truth and
/// its observers' contacts through one [`DhtTracker`].
///
/// Both streams must be time-ordered; a contact at the same instant as a
/// ground-truth event applies after it. The engine hands both over in
/// canonical order, so the log does not depend on how the run was
/// partitioned.
pub(crate) fn replay_dht(
    ground_truth: &GroundTruth,
    bootstrap: &[PeerId],
    conduct: &[(PeerId, DhtConduct)],
    contacts: impl IntoIterator<Item = DhtContact>,
) -> DhtLog {
    let mut tracker = DhtTracker::new(DEFAULT_BUCKET_SIZE);
    for &(peer, peer_conduct) in conduct {
        tracker.set_conduct(peer, peer_conduct);
    }
    for &peer in bootstrap {
        tracker.register_bootstrap(peer);
    }
    let mut role: HashMap<PeerId, bool> = HashMap::new();
    for &(peer, server) in &ground_truth.peers {
        role.entry(peer).or_insert(server);
    }
    let mut online: BTreeSet<PeerId> = BTreeSet::new();
    let mut contacts = contacts.into_iter().peekable();
    let apply = |tracker: &mut DhtTracker, contact: DhtContact| {
        if contact.admit {
            tracker.admit(contact.at, contact.owner, contact.entry);
        } else {
            tracker.evict(contact.at, contact.owner, contact.entry);
        }
    };
    for event in &ground_truth.events {
        while let Some(contact) = contacts.next_if(|c| c.at < event.at()) {
            apply(&mut tracker, contact);
        }
        match event {
            GroundTruthEvent::PeerOnline { at, peer } => {
                online.insert(*peer);
                if role.get(peer).copied().unwrap_or(false) {
                    tracker.server_up(*at, *peer);
                }
            }
            GroundTruthEvent::PeerOffline { at, peer } => {
                online.remove(peer);
                tracker.server_down(*at, *peer);
            }
            GroundTruthEvent::RoleChanged {
                at,
                peer,
                dht_server,
            } => {
                role.insert(*peer, *dht_server);
                if online.contains(peer) {
                    if *dht_server {
                        tracker.server_up(*at, *peer);
                    } else {
                        tracker.server_down(*at, *peer);
                    }
                }
            }
        }
    }
    for contact in contacts {
        apply(&mut tracker, contact);
    }
    tracker.into_log()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u64) -> PeerId {
        PeerId::derived(i)
    }

    #[test]
    fn replay_reproduces_the_live_tables_membership_for_membership() {
        let mut tracker = DhtTracker::new(4);
        tracker.register_bootstrap(pid(1000));
        for i in 0..40 {
            tracker.server_up(SimTime::from_secs(i), pid(i));
        }
        for i in (0..40).step_by(3) {
            tracker.server_down(SimTime::from_secs(100 + i), pid(i));
        }
        let live: HashMap<PeerId, BTreeSet<PeerId>> = tracker
            .tables
            .iter()
            .map(|(owner, table)| (*owner, table.iter().copied().collect()))
            .collect();
        let log = tracker.into_log();
        let mut replay = log.replay();
        replay.advance_to(SimTime::from_secs(1_000_000));
        assert_eq!(replay.view().online_count(), live.len());
        for (owner, members) in &live {
            let replayed: BTreeSet<PeerId> = replay
                .view()
                .table(owner)
                .expect("owner online in replay")
                .iter()
                .copied()
                .collect();
            assert_eq!(&replayed, members, "table of {owner:?} diverged");
        }
    }

    #[test]
    fn departures_evict_everywhere_and_rejoin_rebootstraps() {
        let mut tracker = DhtTracker::new(20);
        for i in 0..30 {
            tracker.server_up(SimTime::ZERO, pid(i));
        }
        let victim = pid(7);
        tracker.server_down(SimTime::from_secs(10), victim);
        assert!(!tracker.tables.contains_key(&victim));
        for table in tracker.tables.values() {
            assert!(!table.contains(&victim), "victim must be evicted everywhere");
        }
        tracker.server_up(SimTime::from_secs(20), victim);
        let holders = tracker
            .tables
            .iter()
            .filter(|(owner, table)| **owner != victim && table.contains(&victim))
            .count();
        assert!(holders > 0, "rejoin must re-announce the peer");
        assert!(!tracker.tables[&victim].is_empty());
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
        let sybil_table: BTreeSet<PeerId> = tracker.tables[&pid(1)].iter().copied().collect();
        assert_eq!(sybil_table, BTreeSet::from([pid(2)]), "only the same cluster");
        // Honest tables admit the sybil.
        let holders = tracker
            .tables
            .iter()
            .filter(|(owner, table)| !owner.eq(&&pid(1)) && table.contains(&pid(1)))
            .count();
        assert!(holders > 0, "honest peers must admit the sybil");
    }

    #[test]
    fn tracker_events_are_chronological_and_disabled_tracker_records_nothing() {
        let mut disabled = DhtTracker::disabled();
        disabled.register_bootstrap(pid(1));
        disabled.server_up(SimTime::ZERO, pid(2));
        assert!(disabled.into_log().events.is_empty());

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
        let mut prev = SimTime::ZERO;
        for event in &log.events {
            assert!(event.at() >= prev);
            prev = event.at();
        }
        assert!(log.adversaries().is_empty());
        assert_eq!(log.bootstrap, vec![pid(500)]);
    }
}
