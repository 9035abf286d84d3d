//! `paper`: the paper's own campaign, as `repro`'s default mode runs it.
//!
//! Set-up builds the six scenarios (P0–P4 and the 14-day run). A round
//! simulates each on the classic engine, feeds the passive monitors and the
//! crawler, then computes every table and figure and renders them as text.
//! Mailbox, archive and serve are not used.

use crate::harness::{Checks, Outcome, Workload};
use crate::trace::{Trace, SEGMENT};
use analysis::{metadata, report};
use measurement::{
    ActiveCrawler, GoIpfsMonitor, HydraMonitor, MeasurementCampaign, MeasurementDataset,
};
use netsim::{ObserverLog, SimulationOutput};
use population::{MeasurementPeriod, Scenario, ScenarioRun};
use simclock::{Cdf, SimDuration, SimTime};
use std::collections::HashSet;

/// Population scales of the campaign.
pub struct Paper {
    /// Scale of P0–P4.
    pub scale: f64,
    /// Scale of the 14-day run (a quarter of `scale`, as `repro` runs it).
    pub extended_scale: f64,
}

/// The benchmarked sizes: one round takes about 2 s on the baseline box.
pub const FULL: Paper = Paper {
    scale: 0.01,
    extended_scale: 0.0025,
};

const PERIODS: [MeasurementPeriod; 6] = [
    MeasurementPeriod::P0,
    MeasurementPeriod::P1,
    MeasurementPeriod::P2,
    MeasurementPeriod::P3,
    MeasurementPeriod::P4,
    MeasurementPeriod::Extended,
];
const P3: usize = 3;
const P4: usize = 4;
const EXTENDED: usize = 5;

impl Paper {
    fn scenario(&self, period: MeasurementPeriod, seed: u64) -> Scenario {
        let scale = if period == MeasurementPeriod::Extended {
            self.extended_scale
        } else {
            self.scale
        };
        Scenario::new(period).with_scale(scale).with_seed(seed)
    }
}

impl Workload for Paper {
    type Input = Vec<ScenarioRun>;

    fn setup(&self, seed: u64, trace: &mut Trace) -> Vec<ScenarioRun> {
        PERIODS
            .iter()
            .map(|&period| trace.span("population.build", || self.scenario(period, seed).build()))
            .collect()
    }

    fn round(
        &self,
        runs: &mut Vec<ScenarioRun>,
        trace: &mut Trace,
        checks: &mut Checks,
    ) -> Outcome {
        let mut campaigns = Vec::with_capacity(runs.len());
        let mut events = 0;
        for run in runs {
            // The engine consumes its inputs; the copy is made outside the
            // timed segments.
            let (campaign, observations) = simulate(run.clone(), trace);
            campaigns.push(campaign);
            events += observations;
        }
        let results = analyse(&campaigns, self.scale, trace);
        let text = trace.segment("analysis.report", || render(&results, self.scale));
        check_campaigns(&campaigns, &results, &text, checks);
        Outcome { events, busy: None }
    }
}

/// Runs a built scenario on the classic engine and ingests the output, as
/// two segments; returns the campaign and the number of observation rows
/// the engine produced.
pub fn simulate(run: ScenarioRun, trace: &mut Trace) -> (MeasurementCampaign, u64) {
    let duration = run.config.duration;
    let segment = trace.begin(SEGMENT);
    let span = trace.begin("netsim.engine.run");
    let output = netsim::Network::new(run.config, run.population.specs)
        .with_population_events(run.events)
        .run();
    let observations: usize = output.logs.iter().map(|log| log.table().len()).sum();
    trace.count(&span, "observations", observations as f64);
    trace.end(span);
    trace.end(segment);
    let segment = trace.begin(SEGMENT);
    let campaign = ingest(
        run.scenario,
        run.ground_truth_participants,
        duration,
        output,
        trace,
    );
    trace.end(segment);
    (campaign, observations as u64)
}

/// `measurement::campaign_from_output`, one span per public piece it calls:
/// the go-ipfs monitor, the hydra monitor and the crawler.
pub fn ingest(
    scenario: Scenario,
    ground_truth_participants: usize,
    duration: SimDuration,
    output: SimulationOutput,
    trace: &mut Trace,
) -> MeasurementCampaign {
    let go_ipfs = output.log("go-ipfs").map(|log| {
        trace.span("measurement.monitor.goipfs", || {
            GoIpfsMonitor::new().ingest(log)
        })
    });
    let hydra_logs: Vec<&ObserverLog> = output
        .logs
        .iter()
        .filter(|log| log.observer.starts_with("hydra-h"))
        .collect();
    let (hydra_heads, hydra_union) = if hydra_logs.is_empty() {
        (Vec::new(), None)
    } else {
        let (heads, union) = trace.span("measurement.monitor.hydra", || {
            HydraMonitor::new().ingest(&hydra_logs)
        });
        (heads, Some(union))
    };
    let span = trace.begin("measurement.crawler");
    let (crawls, crawl_summary) = ActiveCrawler::new().crawl_summary(
        &output.dht,
        &output.ground_truth,
        SimTime::ZERO,
        SimTime::ZERO + duration,
    );
    let found: usize = crawls.iter().map(|c| c.servers_found).sum();
    let online: usize = crawls.iter().map(|c| c.servers_online).sum();
    trace.count(&span, "servers_found", found as f64);
    trace.count(&span, "servers_online", online as f64);
    trace.end(span);
    MeasurementCampaign {
        scenario,
        ground_truth_participants,
        go_ipfs,
        hydra_heads,
        hydra_union,
        crawls,
        crawl_summary,
        ground_truth: output.ground_truth,
    }
}

/// Every table and figure of the paper, computed but not yet rendered.
struct Results {
    table2: Vec<(String, analysis::ConnectionStats, analysis::DirectionStats)>,
    horizons: Vec<analysis::HorizonComparison>,
    agents: simclock::Histogram,
    breakdown: analysis::metadata::AgentBreakdown,
    protocols: simclock::Histogram,
    versions: analysis::VersionChangeTable,
    roles: analysis::RoleSwitchStats,
    anomalies: analysis::AnomalyReport,
    timelines: Vec<(String, simclock::TimeSeries)>,
    growth: analysis::PidGrowth,
    durations: analysis::DurationCdfs,
    counts: Cdf,
    grouping: analysis::IpGrouping,
    classes: analysis::PeerClassification,
    estimate: analysis::NetworkSizeEstimate,
    fingerprints: analysis::FingerprintEstimate,
    ground_truth: usize,
}

fn analyse(campaigns: &[MeasurementCampaign], scale: f64, trace: &mut Trace) -> Results {
    let p4 = campaigns[P4].primary();
    let passive = |range: std::ops::Range<usize>| -> Vec<(String, &MeasurementDataset)> {
        campaigns[range]
            .iter()
            .flat_map(|c| {
                let label = c.scenario.period.label();
                c.passive_datasets()
                    .into_iter()
                    .map(move |d| (label.to_string(), d))
            })
            .collect()
    };
    let (table2, durations, counts) = trace.segment("analysis.churn", || {
        let table2 = passive(0..P4)
            .into_iter()
            .map(|(label, d)| {
                (
                    label,
                    analysis::connection_stats(d),
                    analysis::direction_stats(d),
                )
            })
            .collect();
        (
            table2,
            analysis::max_duration_cdf(p4, 30.0),
            analysis::connection_count_cdf(p4),
        )
    });
    let horizons = trace.segment("analysis.horizon", || {
        campaigns[..=P4]
            .iter()
            .map(analysis::horizon_comparison)
            .collect()
    });
    let (agents, breakdown, protocols, versions, roles, anomalies) =
        trace.segment("analysis.metadata", || {
            (
                analysis::agent_histogram(p4, (100.0 * scale).ceil() as u64),
                metadata::agent_breakdown(p4),
                analysis::protocol_histogram(p4, (300.0 * scale).ceil() as u64),
                analysis::version_changes(p4),
                analysis::role_switches(p4),
                metadata::anomaly_report(p4),
            )
        });
    let (timelines, growth) = trace.segment("analysis.growth", || {
        let timelines = passive(0..P4)
            .into_iter()
            .map(|(label, d)| {
                let series = analysis::connection_timeline(d, SimDuration::from_hours(24));
                (format!("{label} / {}", d.client), series)
            })
            .collect();
        let growth = analysis::pid_growth(
            campaigns[EXTENDED].primary(),
            SimDuration::from_hours(6),
            SimDuration::from_days(3),
        );
        (timelines, growth)
    });
    let (grouping, classes, estimate, fingerprints) = trace.segment("analysis.netsize", || {
        (
            analysis::ip_grouping(p4),
            analysis::classify_peers(p4),
            analysis::network_size_estimate(p4),
            analysis::fingerprint_groups(p4),
        )
    });
    Results {
        table2,
        horizons,
        agents,
        breakdown,
        protocols,
        versions,
        roles,
        anomalies,
        timelines,
        growth,
        durations,
        counts,
        grouping,
        classes,
        estimate,
        fingerprints,
        ground_truth: campaigns[P4].ground_truth.population_size(),
    }
}

/// Renders the results as `repro`'s default mode prints them.
fn render(r: &Results, scale: f64) -> String {
    let mut out = String::new();
    let table1: Vec<Vec<String>> = MeasurementPeriod::ALL
        .iter()
        .map(|p| {
            vec![
                p.label().to_string(),
                p.duration().to_string(),
                p.go_ipfs().map_or("-".into(), |(role, l)| {
                    format!("{role} ({}/{})", l.low_water, l.high_water)
                }),
                p.hydra().map_or("-".into(), |(heads, l)| {
                    format!("{heads} heads ({}/{})", l.low_water, l.high_water)
                }),
                format!("{} observers", Scenario::new(*p).observers().len()),
            ]
        })
        .collect();
    out += "## Table I — measurement period overview\n\n";
    out += &report::text_table(
        &["Period", "Duration", "go-ipfs", "Hydra", "Deployed"],
        &table1,
    );

    let table2: Vec<Vec<String>> = r
        .table2
        .iter()
        .flat_map(|(label, s, d)| {
            [
                vec![
                    label.clone(),
                    s.client.clone(),
                    "All".into(),
                    report::count(s.all_sum),
                    report::secs(s.all_avg_secs),
                    report::secs(s.all_median_secs),
                    format!("{}/{}", report::count(d.inbound), report::count(d.outbound)),
                ],
                vec![
                    label.clone(),
                    s.client.clone(),
                    "Peer".into(),
                    report::count(s.peer_sum),
                    report::secs(s.peer_avg_secs),
                    report::secs(s.peer_median_secs),
                    String::new(),
                ],
            ]
        })
        .collect();
    out += "\n## Table II — connection statistics\n\n";
    out += &report::text_table(
        &[
            "Period",
            "Client",
            "Type",
            "Sum",
            "Avg [s]",
            "Median [s]",
            "in/out",
        ],
        &table2,
    );

    let mut fig2 = Vec::new();
    for h in &r.horizons {
        for e in &h.passive {
            fig2.push(vec![
                h.period.clone(),
                e.client.clone(),
                report::count(e.dht_server_pids),
                report::count(e.total_pids),
            ]);
        }
        fig2.push(vec![
            h.period.clone(),
            "crawler (min..max)".into(),
            format!("{}..{}", h.crawler.min_servers, h.crawler.max_servers),
            report::count(h.crawler.distinct_servers),
        ]);
    }
    out += "\n## Fig. 2 — passive vs. active measurement horizon\n\n";
    out += &report::text_table(
        &["Period", "Client", "DHT-Server PIDs", "Total PIDs"],
        &fig2,
    );

    let b = &r.breakdown;
    out += "\n## Fig. 3 — agent versions\n\n";
    out += &report::bar_chart(&r.agents.sorted_by_count(), 40);
    out += &format!(
        "go-ipfs {} | hydra {} | crawler {} | other {} | missing {} | distinct agents {} | kad {}\n",
        report::count(b.go_ipfs), report::count(b.hydra), report::count(b.crawler), report::count(b.other),
        report::count(b.missing), b.distinct_agents, report::count(b.kad_supporters),
    );
    out += "\n## Fig. 4 — supported protocols\n\n";
    out += &report::bar_chart(&r.protocols.sorted_by_count(), 40);
    let v = &r.versions;
    out += "\n## Table III — go-ipfs version changes\n\n";
    out += &report::text_table(
        &["Version", "#", "Type", "#"],
        &[
            vec![
                "Upgrade".into(),
                v.upgrades.to_string(),
                "main-main".into(),
                v.main_to_main.to_string(),
            ],
            vec![
                "Downgrade".into(),
                v.downgrades.to_string(),
                "dirty-main".into(),
                v.dirty_to_main.to_string(),
            ],
            vec![
                "Change".into(),
                v.changes.to_string(),
                "main-dirty".into(),
                v.main_to_dirty.to_string(),
            ],
            vec![
                "(peers)".into(),
                v.peers_with_changes.to_string(),
                "dirty-dirty".into(),
                v.dirty_to_dirty.to_string(),
            ],
        ],
    );
    let (roles, a) = (&r.roles, &r.anomalies);
    out += &format!(
        "role switches: {} peers changed protocol announcements ({} events), {} server->client\n\
         anomalies: {} go-ipfs without bitswap ({} with sbptp), {} storm-protocol peers, {} ethereum agents\n",
        roles.peers_with_protocol_changes, roles.protocol_change_events, roles.role_switchers,
        a.go_ipfs_without_bitswap, a.go_ipfs_with_storm_markers, a.storm_protocol_peers, a.ethereum_agents,
    );

    out += "\n## Fig. 5 — simultaneous connections over the first 24 h\n\n";
    for (label, series) in &r.timelines {
        out += &format!(
            "### {label}\n{}\n",
            report::timeseries_csv(&series.downsample(24), "time_s", "connections")
        );
    }
    out += &format!(
        "\n## Fig. 6 — PIDs over time (14-day run)\n\n(scale {})\n",
        scale * 0.25
    );
    out += &report::timeseries_csv(&r.growth.total_pids.downsample(28), "hours", "total_pids");
    out += &report::timeseries_csv(&r.growth.gone_pids.downsample(28), "hours", "gone_3d_pids");
    out += &format!(
        "final: {} PIDs seen, {} disconnected >3 d and never returned\n",
        r.growth.final_total(),
        r.growth.final_gone()
    );

    let d = &r.durations;
    let points = Cdf::log_points(30.0, 300_000.0, 2);
    out +=
        "\n## Fig. 7 — CDFs of connection behaviour (P4)\n\n### max connection duration per PID\n";
    for (label, cdf) in [
        ("all", &d.all),
        ("dht-server", &d.dht_server),
        ("dht-client", &d.dht_client),
    ] {
        out += &format!(
            "{label}:\n{}\n",
            report::cdf_csv(cdf, &points, "duration_s")
        );
    }
    out += &format!(
        "fraction <1h: {:.2}  fraction >24h: {:.2}\n",
        d.fraction_below(3600.0),
        1.0 - d.fraction_below(24.0 * 3600.0)
    );
    out += &format!(
        "\n### number of connections per PID\n{}\nfraction with 1 connection: {:.2}  fraction with >15: {:.2}\n",
        report::cdf_csv(&r.counts, &Cdf::log_points(1.0, 10_000.0, 2), "connections"),
        r.counts.fraction_at_or_below(1.0),
        1.0 - r.counts.fraction_at_or_below(15.0)
    );

    let (g, e) = (&r.grouping, &r.estimate);
    out += &format!(
        "\n## Section V — network size (P4)\n\n### §V-A IP grouping\n\
         PIDs {} | connected {} | IPs {} | groups {} | singleton groups {} | largest group {}\n",
        report::count(g.total_pids),
        report::count(g.connected_pids),
        report::count(g.distinct_ips),
        report::count(g.groups),
        report::count(g.singleton_groups),
        g.largest_group,
    );
    let classes: Vec<Vec<String>> = r
        .classes
        .rows
        .iter()
        .map(|(label, total, servers)| {
            vec![
                label.clone(),
                report::count(*total),
                report::count(*servers),
            ]
        })
        .collect();
    out += "\n### Table IV — classification\n";
    out += &report::text_table(&["Class", "Peers", "DHT-Server"], &classes);
    out += &format!(
        "### estimates\nby PIDs {} | by IP groups {} | by fingerprints {} | core lower bound {} | \
         max simultaneous {} | ground truth {}\n",
        report::count(e.by_pids),
        report::count(e.by_ip_groups),
        report::count(r.fingerprints.full_fingerprints),
        report::count(e.core_lower_bound),
        report::count(e.max_simultaneous_connections),
        report::count(r.ground_truth),
    );
    out
}

/// The paper's checks: the DHT-Client deployment (P3) sees fewer PIDs than
/// the DHT-Server one (P4), the hydra union holds every head, every observed
/// PID exists in the ground truth, and IP grouping never raises the estimate.
fn check_campaigns(
    campaigns: &[MeasurementCampaign],
    results: &Results,
    text: &str,
    checks: &mut Checks,
) {
    let (p3, p4) = (
        campaigns[P3].primary().pid_count(),
        campaigns[P4].primary().pid_count(),
    );
    checks.check(p3 < p4, || {
        format!("P3 saw {p3} PIDs, not fewer than P4's {p4}")
    });
    for campaign in campaigns {
        let period = campaign.scenario.period.label();
        if let Some(union) = &campaign.hydra_union {
            for head in &campaign.hydra_heads {
                checks.check(union.pid_count() >= head.pid_count(), || {
                    format!("{period}: hydra union smaller than head {}", head.client)
                });
            }
        }
        let truth: HashSet<_> = campaign
            .ground_truth
            .peers
            .iter()
            .map(|(peer, _)| *peer)
            .collect();
        for dataset in campaign
            .passive_datasets()
            .into_iter()
            .chain(&campaign.hydra_union)
        {
            checks.check(
                dataset.peers.keys().all(|peer| truth.contains(peer)),
                || {
                    format!(
                        "{period}: {} observed a PID outside the ground truth",
                        dataset.client
                    )
                },
            );
        }
    }
    let e = &results.estimate;
    checks.check(e.by_ip_groups <= e.by_pids, || {
        format!(
            "IP grouping raised the estimate: {} > {}",
            e.by_ip_groups, e.by_pids
        )
    });
    checks.check(text.contains("## Section V"), || {
        "the rendered report is incomplete".into()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    pub const TINY: Paper = Paper {
        scale: 0.004,
        extended_scale: 0.002,
    };

    #[test]
    fn decomposed_campaign_equals_run_built() {
        for period in [MeasurementPeriod::P1, MeasurementPeriod::P4] {
            let scenario = TINY.scenario(period, 7);
            let mut trace = Trace::new();
            trace.set_detail(true);
            let (ours, _) = simulate(scenario.build(), &mut trace);
            let theirs = measurement::run_built(scenario.build());
            assert_eq!(format!("{ours:?}"), format!("{theirs:?}"), "{period:?}");
        }
    }

    #[test]
    fn tiny_campaign_passes_its_checks() {
        crate::tests::assert_passes(&TINY);
    }
}
