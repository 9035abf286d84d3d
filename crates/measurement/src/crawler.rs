//! The active-crawler baseline (the "WB Crawler" of Fig. 2).
//!
//! The paper compares its passive PID counts against a public DHT crawler
//! that walks the Kademlia routing tables every eight hours. Earlier
//! versions of this module *teleported*: they sampled online servers
//! straight out of [`GroundTruth`] with a flat coverage coin, so crawler
//! bias — the very thing the paper's methodology worries about — was a free
//! parameter. The crawler now actually crawls:
//!
//! * every crawl replays the run's [`DhtLog`] up to the crawl instant and
//!   walks the reconstructed routing tables, seeded from the bootstrap
//!   (observer) peers;
//! * discovery phase: one iterative `FIND_NODE` lookup
//!   ([`p2pmodel::IterativeLookup`], α-concurrent, k-closest) towards each
//!   of `2^prefix_bits` evenly spread key-space targets;
//! * exhaustion phase: every candidate learned is dialed once, in `PeerId`
//!   order, and its table dumped bucket by bucket (targets with one bit
//!   flipped at increasing depth, stopping after two dry depths) until the
//!   frontier is empty;
//! * a per-hop latency model charges each *first* contact — log-normal for
//!   responders, a fixed timeout for dead or fabricated candidates — and a
//!   crawl time budget cuts the crawl short when the bill exceeds it.
//!
//! `servers_found` is therefore an **outcome**, and [`CrawlSnapshot::recall`]
//! a per-crawl *measurement* of crawler bias against ground truth. The two
//! properties Fig. 2 hinges on fall out instead of being assumed: only
//! DHT-Servers are found (clients are in nobody's routing table), and every
//! crawl is a fresh snapshot — departed peers were evicted from the replayed
//! tables, while the passive monitors keep every PID they ever saw.
//!
//! A series crawls on the log's slots. The routing-table replay, the
//! [`GroundTruth`] cursor that counts the honest servers online and the
//! crawl itself each advance once per series, and a crawl keeps its state in
//! vectors indexed by slot: known, probed and answered flags, the bootstrap
//! and conduct flags and the "found in some crawl" flag behind
//! [`CrawlSummary::distinct_servers`]. Replies come from
//! [`p2pmodel::RoutingTable::closest`] as slots with their distance to the
//! target, which discovery hands to its lookup as they are. The only
//! `PeerId`-ordered set is the exhaustion frontier, the known slots not yet
//! dumped, touched once per newly learned slot; its order fixes the probe
//! order and with it every latency draw.
//!
//! Adversaries ([`netsim::DhtConduct`]) skew exactly this pipeline: Sybil
//! tables answer with nothing but Sybils, eclipsed victims are admitted
//! nowhere, and poisoners pad replies with fabricated PIDs whose dial
//! timeouts eat the crawl budget. The passive monitors see none of it. A
//! fabricated PID gets a slot after the log's for the rest of its crawl, or
//! the slot of the real peer it happens to equal; the map that resolves them
//! is built the first time a poisoner answers.

use netsim::{DhtConduct, DhtLog, DhtView, GroundTruth};
use p2pmodel::kademlia::DEFAULT_BUCKET_SIZE;
use p2pmodel::lookup::DEFAULT_ALPHA;
use p2pmodel::{Distance, IterativeLookup, PeerId};
use simclock::rng::splitmix64;
use simclock::{SimDuration, SimRng, SimTime};
use std::collections::{BTreeSet, HashMap};

/// One crawl of the DHT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrawlSnapshot {
    /// When the crawl ran.
    pub at: SimTime,
    /// Honest DHT-Server peers that answered this crawl (bootstrap
    /// observers and adversarial identities excluded).
    pub servers_found: usize,
    /// Honest online DHT-Server peers at crawl time (ground truth; the real
    /// crawler does not know this).
    pub servers_online: usize,
    /// Adversarial identities (Sybils, poisoners) that answered — the
    /// crawler cannot tell them apart, which is exactly the skew the
    /// disagreement report quantifies.
    pub adversarial_found: usize,
    /// Iterative lookups issued (one per prefix target).
    pub lookups: usize,
    /// Peers contacted for the first time (responders and timeouts).
    pub queries: usize,
    /// Modelled crawl wall-clock in milliseconds (total contact cost
    /// divided by the α concurrency).
    pub elapsed_ms: u64,
    /// Whether the crawl ran out of its time budget before exhausting the
    /// candidate frontier.
    pub truncated: bool,
}

impl CrawlSnapshot {
    /// Measured recall of this crawl: found / online honest servers
    /// (1.0 when nothing was online to find).
    pub fn recall(&self) -> f64 {
        if self.servers_online == 0 {
            1.0
        } else {
            self.servers_found as f64 / self.servers_online as f64
        }
    }
}

/// Aggregate of a crawl series (the min/max range shown as bars in Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrawlSummary {
    /// Number of crawls.
    pub crawls: usize,
    /// Minimum servers found in any crawl.
    pub min_servers: usize,
    /// Maximum servers found in any crawl.
    pub max_servers: usize,
    /// Total number of distinct honest server PIDs found across all crawls.
    pub distinct_servers: usize,
    /// Total iterative lookups across all crawls.
    pub total_lookups: usize,
    /// Total first-contact queries across all crawls.
    pub total_queries: usize,
    /// Mean per-crawl recall (0.0 for an empty series).
    pub mean_recall: f64,
}

/// A simulated DHT crawler issuing routed Kademlia lookups.
#[derive(Debug, Clone)]
pub struct ActiveCrawler {
    /// Time between crawls (8 h for the WB crawler).
    pub interval: SimDuration,
    /// Lookup concurrency (α).
    pub alpha: usize,
    /// Shortlist/reply size (k).
    pub k: usize,
    /// The discovery phase aims one lookup at each of `2^prefix_bits`
    /// evenly spread key-space targets.
    pub prefix_bits: u32,
    /// Median first-contact latency of a responsive peer, in milliseconds.
    pub latency_median_ms: f64,
    /// Log-normal shape of the contact latency.
    pub latency_sigma: f64,
    /// Dial timeout charged for each unresponsive candidate, in
    /// milliseconds.
    pub timeout_ms: u64,
    /// Crawl time budget; the crawl truncates when the modelled wall clock
    /// exceeds it.
    pub budget: SimDuration,
    /// Seed for the per-crawl latency/target randomness.
    pub seed: u64,
}

impl Default for ActiveCrawler {
    fn default() -> Self {
        ActiveCrawler {
            interval: SimDuration::from_hours(8),
            alpha: DEFAULT_ALPHA,
            k: DEFAULT_BUCKET_SIZE,
            prefix_bits: 4,
            latency_median_ms: 150.0,
            latency_sigma: 0.5,
            timeout_ms: 1_500,
            budget: SimDuration::from_secs(30 * 60),
            seed: 0xC4A3,
        }
    }
}

impl ActiveCrawler {
    /// Creates a crawler with the WB-crawler defaults (8 h interval, α=3,
    /// k=20, 16 prefix targets, 30 min budget).
    pub fn new() -> Self {
        Self::default()
    }

    /// One full crawl over the table state in `view`, in `slots`' reused
    /// buffers.
    fn crawl_once(
        &self,
        view: &DhtView,
        log: &DhtLog,
        junk_per_reply: &[usize],
        slots: &mut Slots,
        rng: &mut SimRng,
    ) -> CrawlOutcome {
        slots.reset(log.peers.len());
        for &slot in &log.bootstrap {
            slots.learn(log, slot);
        }
        if !log.bootstrap.iter().any(|&slot| view.online(slot)) {
            // No live bootstrap observer (P3 deploys only a DHT-Client
            // vantage). A real crawler still ships the network's static
            // bootstrap list — well-known servers that exist regardless of
            // which monitors we run — modelled here as the k lowest-PID
            // online servers.
            let mut online: Vec<u32> = (0..log.peers.len() as u32)
                .filter(|&slot| view.online(slot))
                .collect();
            online.sort_unstable_by_key(|&slot| log.peers[slot as usize]);
            for &slot in online.iter().take(self.k) {
                slots.learn(log, slot);
            }
        }
        let mut run = CrawlRun {
            crawler: self,
            view,
            log,
            junk_per_reply,
            slots,
            queries: 0,
            cost_ms: 0,
            last_reply_was_news: false,
        };
        // The α workers run in parallel, so the budget buys α times the
        // serial contact cost.
        let budget_cost = self.budget.as_millis().saturating_mul(self.alpha.max(1) as u64);
        let mut truncated = false;

        // Discovery phase: iterative lookups toward evenly spread targets.
        let lookups = 1usize << self.prefix_bits;
        'discovery: for prefix in 0..lookups {
            let target = PeerId::with_prefix(prefix as u16, self.prefix_bits, rng);
            let slots = &*run.slots;
            let seeds = slots
                .known
                .iter()
                .map(|&slot| (slots.peer(log, slot).distance(&target), slot));
            let mut lookup = IterativeLookup::new(self.k, self.alpha, seeds);
            while let Some(batch) = lookup.next_batch() {
                for slot in batch {
                    // The probe's target is the lookup's, so the reply's
                    // distances are the lookup's too.
                    if run.probe(slot, &target, rng) {
                        lookup.on_response(run.slots.reply.iter().copied());
                    }
                }
                if run.cost_ms > budget_cost {
                    truncated = true;
                    break 'discovery;
                }
            }
        }

        // Exhaustion phase: dial every remaining candidate once and dump its
        // table bucket by bucket until the frontier is empty.
        'exhaustion: while !truncated {
            // A chunk leaves the frontier as it is taken: each of its
            // candidates is dumped next, unless the budget ends the crawl.
            let chunk: Vec<u32> = std::iter::from_fn(|| run.slots.frontier.pop_first())
                .take(32)
                .map(|(_, slot)| slot)
                .collect();
            if chunk.is_empty() {
                break;
            }
            for candidate in chunk {
                let id = run.slots.peer(log, candidate);
                if run.probe(candidate, &id, rng) {
                    // Bucket walk: flip one bit at a time; two consecutive
                    // depths without a new candidate end the dump. Poisoned
                    // replies always contain fresh junk, so they drag the
                    // walk to its depth cap — time the crawler loses.
                    let mut dry = 0;
                    for depth in 0..64 {
                        let target = flip_bit(&id, depth);
                        if !run.probe(candidate, &target, rng) {
                            break;
                        }
                        if run.last_reply_was_news {
                            dry = 0;
                        } else {
                            dry += 1;
                            if dry >= 2 {
                                break;
                            }
                        }
                    }
                }
                if run.cost_ms > budget_cost {
                    truncated = true;
                    break 'exhaustion;
                }
            }
        }

        CrawlOutcome {
            lookups,
            queries: run.queries,
            cost_ms: run.cost_ms,
            truncated,
        }
    }

    /// Crawls the simulated network over `[start, end]`, once every
    /// [`Self::interval`] starting *at* `start`: one snapshot per crawl,
    /// plus a summary that also counts how many *distinct* honest server
    /// PIDs were seen across all crawls (a historic union like the passive
    /// view).
    pub fn crawl_summary(
        &self,
        dht: &DhtLog,
        ground_truth: &GroundTruth,
        start: SimTime,
        end: SimTime,
    ) -> (Vec<CrawlSnapshot>, CrawlSummary) {
        let n = dht.peers.len();
        let mut bootstrap = vec![false; n];
        for &slot in &dht.bootstrap {
            bootstrap[slot as usize] = true;
        }
        let mut adversary = vec![false; n];
        let mut junk_per_reply = vec![0; n];
        for &(slot, conduct) in &dht.conduct {
            adversary[slot as usize] = true;
            if let DhtConduct::Poison {
                junk_per_reply: junk,
            } = conduct
            {
                junk_per_reply[slot as usize] = junk;
            }
        }
        // The same flag by ground-truth index, for the online count.
        let mut adversaries: Vec<PeerId> = dht
            .conduct
            .iter()
            .map(|&(slot, _)| dht.peers[slot as usize])
            .collect();
        adversaries.sort_unstable();
        let honest: Vec<bool> = ground_truth
            .peers
            .iter()
            .map(|(peer, _)| adversaries.binary_search(peer).is_err())
            .collect();
        let mut found = vec![false; n];

        let mut replay = dht.replay();
        let mut truth = ground_truth.cursor();
        let mut slots = Slots::default();
        let mut snapshots = Vec::new();
        let mut at = start;
        while at <= end {
            replay.advance_to(at);
            truth.advance_to(at);
            // Independent randomness per crawl: re-running a prefix of the
            // series is reproducible crawl by crawl.
            let mut state = self
                .seed
                .wrapping_add((snapshots.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rng = SimRng::seed_from(splitmix64(&mut state));
            let outcome =
                self.crawl_once(replay.view(), dht, &junk_per_reply, &mut slots, &mut rng);

            let servers_online = truth
                .online()
                .filter(|&(idx, server)| server && honest[idx])
                .count();
            let mut servers_found = 0;
            let mut adversarial_found = 0;
            // Only the log's peers own tables, so only they answer.
            for slot in slots.responded() {
                let s = slot as usize;
                if bootstrap[s] {
                    continue;
                }
                if adversary[s] {
                    adversarial_found += 1;
                } else {
                    servers_found += 1;
                    found[s] = true;
                }
            }
            snapshots.push(CrawlSnapshot {
                at,
                servers_found,
                servers_online,
                adversarial_found,
                lookups: outcome.lookups,
                queries: outcome.queries,
                elapsed_ms: outcome.cost_ms / self.alpha.max(1) as u64,
                truncated: outcome.truncated,
            });
            at += self.interval;
        }
        let distinct = found.iter().filter(|&&found| found).count();
        let summary = summarize(&snapshots, distinct);
        (snapshots, summary)
    }
}

impl Default for CrawlSummary {
    fn default() -> Self {
        summarize(&[], 0)
    }
}

/// Builds the min/max summary of a crawl series.
pub(crate) fn summarize(snapshots: &[CrawlSnapshot], distinct_servers: usize) -> CrawlSummary {
    let mean_recall = if snapshots.is_empty() {
        0.0
    } else {
        snapshots.iter().map(CrawlSnapshot::recall).sum::<f64>() / snapshots.len() as f64
    };
    CrawlSummary {
        crawls: snapshots.len(),
        min_servers: snapshots.iter().map(|s| s.servers_found).min().unwrap_or(0),
        max_servers: snapshots.iter().map(|s| s.servers_found).max().unwrap_or(0),
        distinct_servers,
        total_lookups: snapshots.iter().map(|s| s.lookups).sum(),
        total_queries: snapshots.iter().map(|s| s.queries).sum(),
        mean_recall,
    }
}

/// What one crawl produced, beside the answers [`Slots::responded`] lists.
struct CrawlOutcome {
    lookups: usize,
    queries: usize,
    cost_ms: u64,
    truncated: bool,
}

/// The slot learned of.
const KNOWN: u8 = 1;
/// The slot was contacted.
const PROBED: u8 = 2;
/// The slot answered its first contact.
const RESPONDED: u8 = 4;

/// The per-slot state of one crawl, kept across the crawls of a series so
/// its buffers are allocated once. Slots below the log's peer count are the
/// log's; the rest are the junk PIDs poisoners made up in this crawl.
#[derive(Default)]
struct Slots {
    /// `KNOWN`, `PROBED` and `RESPONDED` flags per slot.
    state: Vec<u8>,
    /// Known slots in the order they were learned.
    known: Vec<u32>,
    /// The exhaustion frontier: known slots not yet dumped, in `PeerId`
    /// order.
    frontier: BTreeSet<(PeerId, u32)>,
    /// The `PeerId` of each junk slot.
    junk: Vec<PeerId>,
    /// Slot of every log peer and of this crawl's junk PIDs, built the first
    /// time a poisoner answers.
    index: Option<HashMap<PeerId, u32>>,
    /// The last reply, each entry with its distance to the probe's target.
    reply: Vec<(Distance, u32)>,
}

impl Slots {
    /// Forgets the last crawl: every slot unknown, no junk.
    fn reset(&mut self, peers: usize) {
        if let Some(index) = &mut self.index {
            for peer in &self.junk {
                index.remove(peer);
            }
        }
        self.junk.clear();
        self.state.clear();
        self.state.resize(peers, 0);
        self.known.clear();
        self.frontier.clear();
    }

    /// The `PeerId` of a slot.
    fn peer(&self, log: &DhtLog, slot: u32) -> PeerId {
        let s = slot as usize;
        log.peers
            .get(s)
            .copied()
            .unwrap_or_else(|| self.junk[s - log.peers.len()])
    }

    /// Marks a slot known; whether it was news.
    fn learn(&mut self, log: &DhtLog, slot: u32) -> bool {
        let state = &mut self.state[slot as usize];
        if *state & KNOWN != 0 {
            return false;
        }
        *state |= KNOWN;
        self.known.push(slot);
        self.frontier.insert((self.peer(log, slot), slot));
        true
    }

    /// The slot of a fabricated PID: the slot of the log peer it equals
    /// (`PeerId` sets merged the two), else a junk slot of its own.
    fn intern(&mut self, log: &DhtLog, peer: PeerId) -> u32 {
        let index = self.index.get_or_insert_with(|| {
            log.peers
                .iter()
                .enumerate()
                .map(|(slot, &peer)| (peer, slot as u32))
                .collect()
        });
        *index.entry(peer).or_insert_with(|| {
            self.junk.push(peer);
            self.state.push(0);
            (log.peers.len() + self.junk.len() - 1) as u32
        })
    }

    /// The slots that answered this crawl.
    fn responded(&self) -> impl Iterator<Item = u32> + '_ {
        self.known
            .iter()
            .copied()
            .filter(|&slot| self.state[slot as usize] & RESPONDED != 0)
    }
}

/// One crawl in flight.
struct CrawlRun<'a> {
    crawler: &'a ActiveCrawler,
    view: &'a DhtView,
    log: &'a DhtLog,
    /// Junk entries per reply of each log slot: zero unless it poisons.
    junk_per_reply: &'a [usize],
    slots: &'a mut Slots,
    queries: usize,
    cost_ms: u64,
    last_reply_was_news: bool,
}

impl CrawlRun<'_> {
    /// Sends one `FIND_NODE(target)` to the peer in `slot`; whether it
    /// answered, with the answer in `slots.reply`. The first contact with a
    /// peer is charged to the crawl clock — log-normal latency if it
    /// responds, the dial timeout if it does not (offline, or a fabricated
    /// PID); repeat queries ride the already-open connection for free, and a
    /// peer that timed out once is remembered as dead. Replies are merged
    /// into the known slots.
    fn probe(&mut self, slot: u32, target: &PeerId, rng: &mut SimRng) -> bool {
        let answered = self.respond(slot, target);
        let state = &mut self.slots.state[slot as usize];
        if *state & PROBED == 0 {
            *state |= PROBED;
            self.queries += 1;
            self.cost_ms += if answered {
                rng.log_normal(self.crawler.latency_median_ms, self.crawler.latency_sigma)
                    .max(1.0) as u64
            } else {
                self.crawler.timeout_ms
            };
            if answered {
                *state |= RESPONDED;
            }
        } else if answered != (*state & RESPONDED != 0) {
            // A peer never answers some queries and not others within one
            // crawl: the view is a fixed snapshot.
            unreachable!("replayed view changed mid-crawl");
        }
        self.last_reply_was_news = false;
        if answered {
            for i in 0..self.slots.reply.len() {
                let entry = self.slots.reply[i].1;
                self.last_reply_was_news |= self.slots.learn(self.log, entry);
            }
        }
        answered
    }

    /// What the peer in `slot` answers to `FIND_NODE(target)`, into
    /// `slots.reply`: the k closest entries of its replayed table — padded
    /// with fabricated PIDs if it poisons. `false` if the peer is not online
    /// (or does not exist).
    fn respond(&mut self, slot: u32, target: &PeerId) -> bool {
        let (view, log) = (self.view, self.log);
        let Some(table) = view.table(slot) else {
            return false;
        };
        table.closest(&log.peers, target, self.crawler.k, &mut self.slots.reply);
        let junk = self.junk_per_reply.get(slot as usize).copied().unwrap_or(0);
        if junk > 0 {
            let owner = log.peers[slot as usize];
            for j in 0..junk {
                let peer = junk_pid(&owner, target, j);
                let junk_slot = self.slots.intern(log, peer);
                self.slots.reply.push((peer.distance(target), junk_slot));
            }
        }
        true
    }
}

/// A fabricated reply entry: deterministic in (owner, target, index) so the
/// same crawl always sees the same junk, distinct across targets so a
/// poisoner's replies never run dry.
fn junk_pid(owner: &PeerId, target: &PeerId, j: usize) -> PeerId {
    let owner_word = u64::from_be_bytes(owner.as_bytes()[..8].try_into().expect("8 bytes"));
    let target_word = u64::from_be_bytes(target.as_bytes()[..8].try_into().expect("8 bytes"));
    let mut state = owner_word
        ^ target_word.rotate_left(17)
        ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    PeerId::derived(splitmix64(&mut state))
}

/// The candidate's own ID with the bit at `depth` flipped: a target inside
/// the candidate's bucket of that depth, as crawlers dump tables bucket by
/// bucket.
fn flip_bit(peer: &PeerId, depth: u32) -> PeerId {
    let mut bytes = *peer.as_bytes();
    bytes[(depth / 8) as usize] ^= 0x80 >> (depth % 8);
    PeerId::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{dht_log_from_ground_truth, DhtTracker, GroundTruthEvent};

    fn bootstrap_pid() -> PeerId {
        PeerId::derived(9_999_999)
    }

    fn ground_truth(servers: u64, clients: u64) -> GroundTruth {
        let mut gt = GroundTruth::default();
        for i in 0..servers {
            let peer = PeerId::derived(i);
            gt.peers.push((peer, true));
            gt.events.push(GroundTruthEvent::PeerOnline {
                at: SimTime::ZERO,
                peer,
            });
        }
        for i in 0..clients {
            let peer = PeerId::derived(1_000_000 + i);
            gt.peers.push((peer, false));
            gt.events.push(GroundTruthEvent::PeerOnline {
                at: SimTime::ZERO,
                peer,
            });
        }
        gt
    }

    fn dht(gt: &GroundTruth) -> netsim::DhtLog {
        dht_log_from_ground_truth(gt, &[bootstrap_pid()])
    }

    #[test]
    fn crawler_without_bootstrap_falls_back_to_static_seeds() {
        // P3 deploys only a DHT-Client vantage, so the log has no bootstrap
        // observer; the crawler must still get off the ground.
        let gt = ground_truth(100, 0);
        let log = dht_log_from_ground_truth(&gt, &[]);
        let crawler = ActiveCrawler::new();
        let snapshots = crawler
            .crawl_summary(&log, &gt, SimTime::ZERO, SimTime::ZERO)
            .0;
        assert_eq!(snapshots.len(), 1);
        assert!(
            snapshots[0].recall() >= 0.9,
            "fallback seeds must reach the network, got {}",
            snapshots[0].recall()
        );
    }

    #[test]
    fn crawler_only_counts_servers_and_crawls_start_at_start() {
        let gt = ground_truth(100, 500);
        let crawler = ActiveCrawler::new();
        let snapshots = crawler
            .crawl_summary(&dht(&gt), &gt, SimTime::ZERO, SimTime::from_hours(24))
            .0;
        assert_eq!(snapshots.len(), 4, "crawls at 0, 8, 16 and 24 h");
        assert_eq!(snapshots[0].at, SimTime::ZERO, "first crawl runs immediately");
        for snap in &snapshots {
            assert_eq!(snap.servers_online, 100, "clients never count as servers");
            assert!(
                snap.servers_found <= snap.servers_online,
                "found more servers than exist"
            );
            assert!(
                snap.recall() >= 0.9,
                "a static population should crawl nearly completely, got {}",
                snap.recall()
            );
            assert!(!snap.truncated);
            assert!(snap.queries > 0);
            assert_eq!(snap.lookups, 16);
        }
    }

    #[test]
    fn runs_shorter_than_the_interval_still_get_their_start_crawl() {
        // Regression: the first crawl used to be scheduled at
        // `start + interval`, so short runs produced no crawl at all.
        let gt = ground_truth(10, 0);
        let crawler = ActiveCrawler::new();
        let snapshots = crawler
            .crawl_summary(&dht(&gt), &gt, SimTime::ZERO, SimTime::from_hours(4))
            .0;
        assert_eq!(snapshots.len(), 1);
        assert_eq!(snapshots[0].at, SimTime::ZERO);
    }

    #[test]
    fn crawler_sees_fresh_snapshots_not_history() {
        // A server that goes offline after the first crawl was evicted from
        // every routing table, so later crawls cannot find it — unlike the
        // passive monitors' historic view.
        let mut gt = ground_truth(10, 0);
        gt.events.push(GroundTruthEvent::PeerOffline {
            at: SimTime::from_hours(9),
            peer: PeerId::derived(0),
        });
        let crawler = ActiveCrawler::new();
        let snapshots = crawler
            .crawl_summary(&dht(&gt), &gt, SimTime::ZERO, SimTime::from_hours(16))
            .0;
        assert_eq!(snapshots.len(), 3);
        assert_eq!(snapshots[0].servers_found, 10, "tiny networks crawl exhaustively");
        assert_eq!(snapshots[1].servers_found, 10);
        assert_eq!(snapshots[2].servers_found, 9);
        assert_eq!(snapshots[2].servers_online, 9);
    }

    #[test]
    fn summary_reports_min_max_and_distinct() {
        let mut gt = ground_truth(50, 0);
        gt.events.push(GroundTruthEvent::PeerOffline {
            at: SimTime::from_hours(9),
            peer: PeerId::derived(1),
        });
        let crawler = ActiveCrawler::new();
        let (snapshots, summary) =
            crawler.crawl_summary(&dht(&gt), &gt, SimTime::ZERO, SimTime::from_hours(24));
        assert_eq!(summary.crawls, snapshots.len());
        assert_eq!(summary.crawls, 4);
        assert_eq!(summary.max_servers, 50);
        assert_eq!(summary.min_servers, 49);
        assert_eq!(
            summary.distinct_servers, 50,
            "union across crawls keeps the departed peer"
        );
        assert_eq!(summary.total_lookups, 4 * 16);
        assert!(summary.mean_recall > 0.9 && summary.mean_recall <= 1.0);
    }

    #[test]
    fn empty_series_summarises_to_zero() {
        let summary = summarize(&[], 0);
        assert_eq!(summary.crawls, 0);
        assert_eq!(summary.min_servers, 0);
        assert_eq!(summary.max_servers, 0);
        assert_eq!(summary.total_queries, 0);
        assert_eq!(summary.mean_recall, 0.0);
    }

    #[test]
    fn poisoned_tables_waste_the_crawl_budget() {
        // One poisoner whose replies are padded with fabricated PIDs: every
        // fake costs a dial timeout, so a tight budget truncates the crawl
        // and recall drops below the benign crawl of the same network.
        let gt = ground_truth(60, 0);
        let benign_log = dht(&gt);
        let mut tracker = DhtTracker::new(20);
        tracker.set_conduct(
            PeerId::derived(7),
            netsim::DhtConduct::Poison { junk_per_reply: 40 },
        );
        tracker.register_bootstrap(bootstrap_pid());
        for i in 0..60 {
            tracker.server_up(SimTime::ZERO, PeerId::derived(i));
        }
        let poisoned_log = tracker.into_log();

        let crawler = ActiveCrawler {
            budget: SimDuration::from_secs(30),
            ..ActiveCrawler::new()
        };
        let benign = crawler.crawl_summary(&benign_log, &gt, SimTime::ZERO, SimTime::ZERO).0;
        let attacked = crawler.crawl_summary(&poisoned_log, &gt, SimTime::ZERO, SimTime::ZERO).0;
        assert!(!benign[0].truncated, "60 honest servers fit a 30 s budget");
        assert!(attacked[0].truncated, "junk timeouts must exhaust the budget");
        assert!(
            attacked[0].servers_found < benign[0].servers_found,
            "poisoning must cost the crawler real discoveries ({} vs {})",
            attacked[0].servers_found,
            benign[0].servers_found
        );
        assert!(attacked[0].queries > benign[0].queries, "junk inflates the query count");
    }
}
