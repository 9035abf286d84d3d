//! Metadata dynamics: version changes and protocol-announcement flapping.
//!
//! Over its three-day observation window the paper records (Table III and
//! Section IV-B):
//!
//! * 530 go-ipfs agent-version transitions (218 upgrades, 107 downgrades, 205
//!   commit-only changes) with a main/dirty transition matrix dominated by
//!   `main–main` and `dirty–dirty`,
//! * 2 481 peers toggling their `/ipfs/kad/1.0.0` announcement a combined
//!   68 396 times (DHT-Server ↔ DHT-Client role switches), and
//! * 3 603 peers toggling `/libp2p/autonat/1.0.0` a combined 86 651 times.
//!
//! This module turns those aggregates into per-peer schedules of
//! [`ScheduledChange`]s for the simulator.

use crate::agents;
use netsim::{MetadataChange, ScheduledChange, SessionPattern};
use p2pmodel::agent::{AgentVersion, VersionFlavor};
use p2pmodel::protocol::well_known;
use simclock::{SimDuration, SimRng, SimTime};

/// Tunable probabilities and rates for the metadata dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsConfig {
    /// Probability that a go-ipfs peer changes its agent version during a
    /// three-day window (scaled linearly with the run length).
    pub version_change_prob_3d: f64,
    /// Probability that a change is an upgrade / downgrade / commit-only
    /// change (must sum to 1).
    pub upgrade_fraction: f64,
    /// See [`Self::upgrade_fraction`].
    pub downgrade_fraction: f64,
    /// Probability that a peer flaps its kad announcement at all.
    pub kad_flapper_prob: f64,
    /// Probability that a peer flaps its autonat announcement at all.
    pub autonat_flapper_prob: f64,
    /// Mean interval between flaps for a flapping peer, in seconds.
    pub flap_interval_mean_secs: f64,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            // ~530 changes among ~50k go-ipfs peers over 3 days.
            version_change_prob_3d: 0.011,
            upgrade_fraction: 0.41,   // 218 / 530
            downgrade_fraction: 0.20, // 107 / 530
            // 2 481 / 65 853 and 3 603 / 65 853.
            kad_flapper_prob: 0.038,
            autonat_flapper_prob: 0.055,
            // 68 396 changes / 2 481 peers over 3 days ≈ one flap every 2.6 h.
            flap_interval_mean_secs: 2.6 * 3600.0,
        }
    }
}

/// Generates the agent-version change (if any) for a go-ipfs peer.
///
/// Returns at most one scheduled change, consistent with Table III where the
/// 530 transitions are spread over tens of thousands of peers.
pub(crate) fn version_change_events(
    current: &AgentVersion,
    run: SimDuration,
    config: &DynamicsConfig,
    rng: &mut SimRng,
) -> Vec<ScheduledChange> {
    let AgentVersion::GoIpfs { version, flavor, .. } = current else {
        return Vec::new();
    };
    let scale = run.as_secs_f64() / SimDuration::from_days(3).as_secs_f64();
    if !rng.chance(config.version_change_prob_3d * scale) {
        return Vec::new();
    }
    let releases = agents::mainstream_releases();
    let mut sorted = releases.clone();
    sorted.sort();
    let pos = sorted.iter().position(|v| v == version);

    let roll = rng.unit();
    let new_version = if roll < config.upgrade_fraction {
        // Upgrade: pick a strictly newer release if one exists.
        match pos {
            Some(p) if p + 1 < sorted.len() => sorted[rng.uniform_u64(p as u64 + 1, sorted.len() as u64) as usize].clone(),
            _ => sorted.last().expect("release table non-empty").clone(),
        }
    } else if roll < config.upgrade_fraction + config.downgrade_fraction {
        // Downgrade: pick a strictly older release if one exists.
        match pos {
            Some(p) if p > 0 => sorted[rng.index(p)].clone(),
            _ => sorted.first().expect("release table non-empty").clone(),
        }
    } else {
        // Commit-only change.
        version.clone()
    };

    // Flavor transition matrix: most transitions stay within the same flavor
    // (Table III: main–main 291, dirty–dirty 225, cross transitions rare).
    let new_flavor = if rng.chance(0.03) {
        match flavor {
            VersionFlavor::Main => VersionFlavor::Dirty,
            VersionFlavor::Dirty => VersionFlavor::Main,
        }
    } else {
        *flavor
    };

    let new_agent = AgentVersion::go_ipfs(new_version, Some(&agents::random_commit(rng)), new_flavor);
    let at = SimTime::from_millis(rng.uniform_u64(1, run.as_millis().max(2)));
    vec![ScheduledChange {
        at,
        change: MetadataChange::SetAgent(new_agent),
    }]
}

/// Generates announcement flapping for one protocol: the peer alternately
/// removes and re-adds `protocol` at exponentially distributed intervals.
///
/// `initially_announced` states whether the peer announces the protocol at
/// the start (the first flap is then a removal).
pub(crate) fn flap_events(
    protocol: &str,
    initially_announced: bool,
    run: SimDuration,
    mean_interval_secs: f64,
    rng: &mut SimRng,
) -> Vec<ScheduledChange> {
    let mut events = Vec::new();
    let mut t = SimTime::ZERO + SimDuration::from_secs_f64(rng.exp(mean_interval_secs).max(1.0));
    let mut announced = initially_announced;
    let end = SimTime::ZERO + run;
    while t < end {
        let change = if announced {
            MetadataChange::RemoveProtocol(protocol.to_string())
        } else {
            MetadataChange::AddProtocol(protocol.to_string())
        };
        events.push(ScheduledChange { at: t, change });
        announced = !announced;
        t += SimDuration::from_secs_f64(rng.exp(mean_interval_secs).max(60.0));
    }
    events
}

/// Generates the full change schedule for one peer: a possible version change
/// plus kad and autonat flapping, all merged and sorted by time.
pub fn peer_change_schedule(
    agent: &AgentVersion,
    is_dht_server: bool,
    supports_autonat: bool,
    run: SimDuration,
    config: &DynamicsConfig,
    rng: &mut SimRng,
) -> Vec<ScheduledChange> {
    let mut changes = version_change_events(agent, run, config, rng);
    if rng.chance(config.kad_flapper_prob) {
        changes.extend(flap_events(
            well_known::KAD,
            is_dht_server,
            run,
            config.flap_interval_mean_secs,
            rng,
        ));
    }
    if supports_autonat && rng.chance(config.autonat_flapper_prob) {
        changes.extend(flap_events(
            well_known::AUTONAT,
            true,
            run,
            config.flap_interval_mean_secs,
            rng,
        ));
    }
    changes.sort_by_key(|c| c.at);
    changes
}

/// A session pattern for a peer riding a diurnal wave: online roughly
/// `daylight_hours` per day, offline the rest, with a per-peer jitter of up
/// to `jitter_hours` on the first appearance so the cohort ramps in rather
/// than arriving as a single spike.
///
/// The resulting pattern is [`SessionPattern::Intermittent`] with a small
/// shape parameter, so the cohort's sessions stay synchronised to the day
/// cycle instead of diffusing into uncorrelated churn.
pub fn diurnal_session(
    daylight_hours: f64,
    jitter_hours: f64,
    rng: &mut SimRng,
) -> SessionPattern {
    let daylight = daylight_hours.clamp(1.0, 23.0);
    SessionPattern::Intermittent {
        online_median_secs: daylight * 3600.0,
        offline_median_secs: (24.0 - daylight) * 3600.0,
        sigma: 0.2,
        initial_delay_secs: rng.unit() * jitter_hours.max(0.0) * 3600.0,
    }
}

/// The instants at which a rotating-PID operator cycles its identity:
/// `count` evenly spaced times in `[start, end)`, each nudged by up to
/// ±10 % of the spacing so rotations do not align with other periodic
/// events (maintenance passes, crawl rounds).
pub fn rotation_times(
    start: SimTime,
    end: SimTime,
    count: usize,
    rng: &mut SimRng,
) -> Vec<SimTime> {
    if count == 0 || end <= start {
        return Vec::new();
    }
    let span = (end - start).as_secs_f64();
    let spacing = span / count as f64;
    (0..count)
        .map(|k| {
            let nudge = (rng.unit() - 0.5) * 0.2 * spacing;
            let offset = (k as f64 * spacing + nudge).clamp(0.0, (span - 1.0).max(0.0));
            start + SimDuration::from_secs_f64(offset)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmodel::agent::SemVer;

    fn go_ipfs(minor: u32) -> AgentVersion {
        AgentVersion::go_ipfs(SemVer::new(0, minor, 0), Some("abc1234"), VersionFlavor::Main)
    }

    #[test]
    fn version_changes_only_apply_to_go_ipfs() {
        let mut rng = SimRng::seed_from(1);
        let config = DynamicsConfig {
            version_change_prob_3d: 1.0,
            ..DynamicsConfig::default()
        };
        let other = AgentVersion::parse("storm");
        assert!(version_change_events(&other, SimDuration::from_days(3), &config, &mut rng).is_empty());
        let go = go_ipfs(10);
        let events = version_change_events(&go, SimDuration::from_days(3), &config, &mut rng);
        assert_eq!(events.len(), 1);
        match &events[0].change {
            MetadataChange::SetAgent(agent) => assert!(agent.is_go_ipfs()),
            other => panic!("expected SetAgent, got {other:?}"),
        }
    }

    #[test]
    fn version_change_mix_matches_configured_fractions() {
        let mut rng = SimRng::seed_from(2);
        let config = DynamicsConfig {
            version_change_prob_3d: 1.0,
            ..DynamicsConfig::default()
        };
        let base = go_ipfs(9);
        let mut up = 0;
        let mut down = 0;
        let mut change = 0;
        for _ in 0..2000 {
            let events = version_change_events(&base, SimDuration::from_days(3), &config, &mut rng);
            let MetadataChange::SetAgent(new_agent) = &events[0].change else {
                panic!("expected SetAgent");
            };
            match base.classify_change(new_agent).map(|c| c.kind) {
                Some(p2pmodel::agent::VersionChangeKind::Upgrade) => up += 1,
                Some(p2pmodel::agent::VersionChangeKind::Downgrade) => down += 1,
                Some(p2pmodel::agent::VersionChangeKind::Change) => change += 1,
                None => change += 1,
            }
        }
        // Upgrades should outnumber downgrades roughly 2:1 as in Table III.
        assert!(up > down, "upgrades {up} should exceed downgrades {down}");
        assert!(change > 0, "commit-only changes must occur");
        assert!(down > 0, "downgrades must occur");
    }

    #[test]
    fn version_change_probability_scales_with_run_length() {
        let config = DynamicsConfig::default();
        let mut rng = SimRng::seed_from(3);
        let base = go_ipfs(11);
        let count =
            |run: SimDuration, rng: &mut SimRng| -> usize {
                (0..20_000)
                    .filter(|_| !version_change_events(&base, run, &config, rng).is_empty())
                    .count()
            };
        let short = count(SimDuration::from_hours(24), &mut rng);
        let long = count(SimDuration::from_days(3), &mut rng);
        assert!(long > short, "longer runs see more version changes ({long} vs {short})");
    }

    #[test]
    fn flap_events_alternate_and_stay_within_run() {
        let mut rng = SimRng::seed_from(4);
        let run = SimDuration::from_days(3);
        let events = flap_events(well_known::KAD, true, run, 3600.0, &mut rng);
        assert!(!events.is_empty());
        let end = SimTime::ZERO + run;
        let mut expect_remove = true;
        let mut prev = SimTime::ZERO;
        for ev in &events {
            assert!(ev.at < end);
            assert!(ev.at >= prev);
            prev = ev.at;
            match (&ev.change, expect_remove) {
                (MetadataChange::RemoveProtocol(p), true) | (MetadataChange::AddProtocol(p), false) => {
                    assert_eq!(p, well_known::KAD);
                }
                other => panic!("flaps must alternate, got {other:?}"),
            }
            expect_remove = !expect_remove;
        }
    }

    #[test]
    fn flap_events_start_with_add_when_not_announced() {
        let mut rng = SimRng::seed_from(5);
        let events = flap_events(well_known::AUTONAT, false, SimDuration::from_days(1), 3600.0, &mut rng);
        assert!(matches!(events[0].change, MetadataChange::AddProtocol(_)));
    }

    #[test]
    fn peer_schedule_is_sorted_and_bounded() {
        let mut rng = SimRng::seed_from(6);
        let config = DynamicsConfig {
            kad_flapper_prob: 1.0,
            autonat_flapper_prob: 1.0,
            version_change_prob_3d: 1.0,
            ..DynamicsConfig::default()
        };
        let schedule = peer_change_schedule(
            &go_ipfs(10),
            true,
            true,
            SimDuration::from_days(3),
            &config,
            &mut rng,
        );
        assert!(schedule.len() > 2);
        for pair in schedule.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn diurnal_sessions_track_the_day_cycle() {
        let mut rng = SimRng::seed_from(8);
        for _ in 0..50 {
            let SessionPattern::Intermittent {
                online_median_secs,
                offline_median_secs,
                sigma,
                initial_delay_secs,
            } = diurnal_session(11.0, 3.0, &mut rng)
            else {
                panic!("diurnal sessions are intermittent");
            };
            assert_eq!(online_median_secs, 11.0 * 3600.0);
            assert_eq!(offline_median_secs, 13.0 * 3600.0);
            assert!(sigma < 0.5, "the cohort must stay synchronised");
            assert!((0.0..=3.0 * 3600.0).contains(&initial_delay_secs));
        }
        // Degenerate daylight values are clamped, not panicking.
        let _ = diurnal_session(0.0, -1.0, &mut rng);
        let _ = diurnal_session(30.0, 0.0, &mut rng);
    }

    #[test]
    fn rotation_times_are_ordered_and_bounded() {
        let mut rng = SimRng::seed_from(9);
        let start = SimTime::from_hours(5);
        let end = SimTime::from_hours(29);
        let times = rotation_times(start, end, 40, &mut rng);
        assert_eq!(times.len(), 40);
        for pair in times.windows(2) {
            assert!(pair[0] <= pair[1], "rotations must be ordered");
        }
        assert!(times.iter().all(|t| *t >= start && *t < end));
        assert!(rotation_times(start, start, 10, &mut rng).is_empty());
        assert!(rotation_times(start, end, 0, &mut rng).is_empty());
        // Sub-second spans must not panic (clamp bounds stay ordered).
        let tiny = rotation_times(start, start + SimDuration::from_millis(500), 3, &mut rng);
        assert_eq!(tiny.len(), 3);
        assert!(tiny.iter().all(|t| *t >= start));
    }

    #[test]
    fn default_config_flap_rates_are_low() {
        let config = DynamicsConfig::default();
        let mut rng = SimRng::seed_from(7);
        let mut flappers = 0;
        for _ in 0..5_000 {
            let schedule = peer_change_schedule(
                &go_ipfs(11),
                true,
                true,
                SimDuration::from_days(3),
                &config,
                &mut rng,
            );
            if schedule
                .iter()
                .any(|c| matches!(&c.change, MetadataChange::RemoveProtocol(p) | MetadataChange::AddProtocol(p) if p == well_known::KAD))
            {
                flappers += 1;
            }
        }
        let fraction = flappers as f64 / 5_000.0;
        assert!(fraction > 0.01 && fraction < 0.10, "kad flapper fraction {fraction} out of range");
    }
}
