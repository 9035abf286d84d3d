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
//! * exhaustion phase: every candidate learned is dialed once and its
//!   table dumped bucket by bucket (targets with one bit flipped at
//!   increasing depth, stopping after two dry depths) until the frontier
//!   is empty;
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
//! Adversaries ([`netsim::DhtConduct`]) skew exactly this pipeline: Sybil
//! tables answer with nothing but Sybils, eclipsed victims are admitted
//! nowhere, and poisoners pad replies with fabricated PIDs whose dial
//! timeouts eat the crawl budget. The passive monitors see none of it.

use netsim::{DhtConduct, DhtLog, DhtView, GroundTruth};
use p2pmodel::kademlia::DEFAULT_BUCKET_SIZE;
use p2pmodel::lookup::DEFAULT_ALPHA;
use p2pmodel::{IterativeLookup, PeerId};
use simclock::rng::splitmix64;
use simclock::{SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;

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

    /// The shared crawl loop: one snapshot per interval starting at
    /// `start`, optionally tracking the distinct-server union. Both public
    /// entry points replay the same log with the same per-crawl seeds, so a
    /// crawl series and its summary always agree snapshot for snapshot.
    fn crawl_inner(
        &self,
        dht: &DhtLog,
        ground_truth: &GroundTruth,
        start: SimTime,
        end: SimTime,
        mut distinct: Option<&mut BTreeSet<PeerId>>,
    ) -> Vec<CrawlSnapshot> {
        let bootstrap: BTreeSet<PeerId> = dht.bootstrap.iter().copied().collect();
        let adversaries = dht.adversaries();
        let mut replay = dht.replay();
        let mut snapshots = Vec::new();
        let mut at = start;
        while at <= end {
            replay.advance_to(at);
            // Independent randomness per crawl: re-running a prefix of the
            // series is reproducible crawl by crawl.
            let mut state = self
                .seed
                .wrapping_add((snapshots.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rng = SimRng::seed_from(splitmix64(&mut state));
            let outcome = self.crawl_once(replay.view(), dht, &mut rng);

            let online = ground_truth.online_at(at);
            let servers_online = online
                .iter()
                .filter(|(peer, server)| *server && !adversaries.contains(peer))
                .count();
            let mut servers_found = 0;
            let mut adversarial_found = 0;
            for peer in &outcome.responded {
                if bootstrap.contains(peer) {
                    continue;
                }
                if adversaries.contains(peer) {
                    adversarial_found += 1;
                } else {
                    servers_found += 1;
                    if let Some(distinct) = distinct.as_deref_mut() {
                        distinct.insert(*peer);
                    }
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
        snapshots
    }

    /// One full crawl over the table state in `view`.
    fn crawl_once(&self, view: &DhtView, log: &DhtLog, rng: &mut SimRng) -> CrawlOutcome {
        let mut known: BTreeSet<PeerId> = log.bootstrap.iter().copied().collect();
        if !known.iter().any(|peer| view.online(peer)) {
            // No live bootstrap observer (P3 deploys only a DHT-Client
            // vantage). A real crawler still ships the network's static
            // bootstrap list — well-known servers that exist regardless of
            // which monitors we run — modelled here as the k lowest-PID
            // online servers.
            known.extend(view.owners_sorted().into_iter().take(self.k));
        }
        let mut run = CrawlRun {
            crawler: self,
            view,
            log,
            known,
            probed: BTreeSet::new(),
            responded: BTreeSet::new(),
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
            let mut lookup =
                IterativeLookup::new(target, self.k, self.alpha, run.known.iter().copied());
            while let Some(batch) = lookup.next_batch() {
                for peer in batch {
                    match run.probe(&peer, &target, rng) {
                        Some(reply) => lookup.on_response(reply),
                        None => lookup.on_response(std::iter::empty()),
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
        let mut dumped: BTreeSet<PeerId> = BTreeSet::new();
        'exhaustion: while !truncated {
            let chunk: Vec<PeerId> = run
                .known
                .difference(&dumped)
                .take(32)
                .copied()
                .collect();
            if chunk.is_empty() {
                break;
            }
            for candidate in chunk {
                dumped.insert(candidate);
                if run.probe(&candidate, &candidate, rng).is_some() {
                    // Bucket walk: flip one bit at a time; two consecutive
                    // depths without a new candidate end the dump. Poisoned
                    // replies always contain fresh junk, so they drag the
                    // walk to its depth cap — time the crawler loses.
                    let mut dry = 0;
                    for depth in 0..64 {
                        let target = flip_bit(&candidate, depth);
                        if run.probe(&candidate, &target, rng).is_none() {
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
            responded: run.responded,
            lookups,
            queries: run.queries,
            cost_ms: run.cost_ms,
            truncated,
        }
    }

    /// Crawls the simulated network over `[start, end]`, once every
    /// [`Self::interval`] starting *at* `start`, and returns one snapshot
    /// per crawl (no union-tracking overhead — the Fig. 2 hot path).
    pub fn crawl(
        &self,
        dht: &DhtLog,
        ground_truth: &GroundTruth,
        start: SimTime,
        end: SimTime,
    ) -> Vec<CrawlSnapshot> {
        self.crawl_inner(dht, ground_truth, start, end, None)
    }

    /// Crawls the network and also tracks how many *distinct* honest server
    /// PIDs were seen across all crawls (a historic union like the passive
    /// view).
    pub fn crawl_summary(
        &self,
        dht: &DhtLog,
        ground_truth: &GroundTruth,
        start: SimTime,
        end: SimTime,
    ) -> (Vec<CrawlSnapshot>, CrawlSummary) {
        let mut distinct = BTreeSet::new();
        let snapshots = self.crawl_inner(dht, ground_truth, start, end, Some(&mut distinct));
        let summary = summarize(&snapshots, distinct.len());
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

/// What one crawl produced.
struct CrawlOutcome {
    responded: BTreeSet<PeerId>,
    lookups: usize,
    queries: usize,
    cost_ms: u64,
    truncated: bool,
}

/// Mutable state of one crawl in flight.
struct CrawlRun<'a> {
    crawler: &'a ActiveCrawler,
    view: &'a DhtView,
    log: &'a DhtLog,
    known: BTreeSet<PeerId>,
    probed: BTreeSet<PeerId>,
    responded: BTreeSet<PeerId>,
    queries: usize,
    cost_ms: u64,
    last_reply_was_news: bool,
}

impl CrawlRun<'_> {
    /// Sends one `FIND_NODE(target)` to `peer`. The first contact with a
    /// peer is charged to the crawl clock — log-normal latency if it
    /// responds, the dial timeout if it does not (offline, or a fabricated
    /// PID); repeat queries ride the already-open connection for free, and a
    /// peer that timed out once is remembered as dead. Replies are merged
    /// into the candidate set and returned.
    fn probe(&mut self, peer: &PeerId, target: &PeerId, rng: &mut SimRng) -> Option<Vec<PeerId>> {
        let reply = self.respond(peer, target);
        if self.probed.insert(*peer) {
            self.queries += 1;
            self.cost_ms += match &reply {
                Some(_) => rng
                    .log_normal(self.crawler.latency_median_ms, self.crawler.latency_sigma)
                    .max(1.0) as u64,
                None => self.crawler.timeout_ms,
            };
            if reply.is_some() {
                self.responded.insert(*peer);
            }
        } else if reply.is_some() != self.responded.contains(peer) {
            // A peer never answers some queries and not others within one
            // crawl: the view is a fixed snapshot.
            unreachable!("replayed view changed mid-crawl");
        }
        if let Some(reply) = &reply {
            let before = self.known.len();
            self.known.extend(reply.iter().copied());
            self.last_reply_was_news = self.known.len() > before;
        } else {
            self.last_reply_was_news = false;
        }
        reply
    }

    /// What `peer` answers to `FIND_NODE(target)`: the k closest entries of
    /// its replayed table — padded with fabricated PIDs if it poisons.
    /// `None` if the peer is not online (or does not exist).
    fn respond(&self, peer: &PeerId, target: &PeerId) -> Option<Vec<PeerId>> {
        let table = self.view.table(peer)?;
        let mut reply = table.closest(target, self.crawler.k);
        if let DhtConduct::Poison { junk_per_reply } = self.log.conduct_of(peer) {
            for j in 0..junk_per_reply {
                reply.push(junk_pid(peer, target, j));
            }
        }
        Some(reply)
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
        let snapshots = crawler.crawl(&log, &gt, SimTime::ZERO, SimTime::ZERO);
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
        let snapshots = crawler.crawl(&dht(&gt), &gt, SimTime::ZERO, SimTime::from_hours(24));
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
        let snapshots = crawler.crawl(&dht(&gt), &gt, SimTime::ZERO, SimTime::from_hours(4));
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
        let snapshots = crawler.crawl(&dht(&gt), &gt, SimTime::ZERO, SimTime::from_hours(16));
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
    fn crawl_and_crawl_summary_agree_snapshot_for_snapshot() {
        let mut gt = ground_truth(300, 100);
        for i in 0..100 {
            gt.events.push(GroundTruthEvent::PeerOffline {
                at: SimTime::from_hours(6 + i % 12),
                peer: PeerId::derived(i),
            });
        }
        let log = dht(&gt);
        let crawler = ActiveCrawler::new();
        let plain = crawler.crawl(&log, &gt, SimTime::ZERO, SimTime::from_hours(24));
        let (with_summary, summary) =
            crawler.crawl_summary(&log, &gt, SimTime::ZERO, SimTime::from_hours(24));
        assert_eq!(plain, with_summary);
        assert!(summary.distinct_servers >= summary.max_servers);
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
        let benign = crawler.crawl(&benign_log, &gt, SimTime::ZERO, SimTime::ZERO);
        let attacked = crawler.crawl(&poisoned_log, &gt, SimTime::ZERO, SimTime::ZERO);
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
