//! Agent version strings.
//!
//! libp2p's identify protocol carries a free-form agent string such as
//! `go-ipfs/0.11.0/`, `go-ipfs/0.8.0-dev/2f7eb52-dirty`, `hydra-booster/0.7.4`
//! or `nebula-crawler/…`. The paper groups peers by agent (Fig. 3), and
//! Table III classifies observed go-ipfs agent changes into *upgrades*
//! (version number increased), *downgrades* (decreased) and *changes* (only
//! the commit part changed), separately tracking transitions between *main*
//! and *dirty* builds (a dirty build contains uncommitted changes relative to
//! the release, like the paper's own instrumented clients).

use std::cmp::Ordering;
use std::fmt;

/// The release flavor of a go-ipfs build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VersionFlavor {
    /// A clean release build.
    Main,
    /// A build with local modifications ("dirty" commit suffix).
    Dirty,
}

impl fmt::Display for VersionFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionFlavor::Main => f.write_str("main"),
            VersionFlavor::Dirty => f.write_str("dirty"),
        }
    }
}

/// A semantic version number (`major.minor.patch` plus optional pre-release
/// tag such as `-dev` or `-rc1`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SemVer {
    /// Major component.
    pub major: u32,
    /// Minor component.
    pub minor: u32,
    /// Patch component.
    pub patch: u32,
    /// Optional pre-release tag (without the leading dash).
    pub pre: Option<String>,
}

impl SemVer {
    /// Creates a release version without a pre-release tag.
    pub fn new(major: u32, minor: u32, patch: u32) -> Self {
        SemVer {
            major,
            minor,
            patch,
            pre: None,
        }
    }

    /// Creates a version with a pre-release tag (e.g. `dev`).
    pub fn with_pre(major: u32, minor: u32, patch: u32, pre: impl Into<String>) -> Self {
        SemVer {
            major,
            minor,
            patch,
            pre: Some(pre.into()),
        }
    }

    /// Parses `"0.11.0"` or `"0.11.0-dev"` style strings.
    pub fn parse(s: &str) -> Option<SemVer> {
        let (numbers, pre) = match s.split_once('-') {
            Some((n, p)) if !p.is_empty() => (n, Some(p.to_string())),
            Some((n, _)) => (n, None),
            None => (s, None),
        };
        let mut parts = numbers.split('.');
        let major = parts.next()?.parse().ok()?;
        let minor = parts.next()?.parse().ok()?;
        let patch = parts.next().unwrap_or("0").parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(SemVer {
            major,
            minor,
            patch,
            pre,
        })
    }
}

impl PartialOrd for SemVer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SemVer {
    fn cmp(&self, other: &Self) -> Ordering {
        // Pre-release versions sort *before* the corresponding release
        // (0.11.0-dev < 0.11.0), mirroring semver semantics; the paper counts
        // any increase of the version number as an upgrade.
        self.major
            .cmp(&other.major)
            .then_with(|| self.minor.cmp(&other.minor))
            .then_with(|| self.patch.cmp(&other.patch))
            .then_with(|| match (&self.pre, &other.pre) {
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Greater,
                (Some(_), None) => Ordering::Less,
                (Some(a), Some(b)) => a.cmp(b),
            })
    }
}

impl fmt::Display for SemVer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)?;
        if let Some(pre) = &self.pre {
            write!(f, "-{pre}")?;
        }
        Ok(())
    }
}

/// A parsed agent version string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AgentVersion {
    /// A go-ipfs (kubo) client: version, optional commit hash and flavor.
    GoIpfs {
        /// The semantic version (e.g. `0.11.0-dev`).
        version: SemVer,
        /// The commit part of the agent string, if present.
        commit: Option<String>,
        /// Whether the build is a clean release or a dirty build.
        flavor: VersionFlavor,
    },
    /// Any other agent (hydra-booster, crawlers, storm, go-ethereum, …); the
    /// raw string is kept verbatim.
    Other(String),
    /// The peer never completed an identify exchange, so no agent string was
    /// obtained (3 059 PIDs in the paper's data set).
    Missing,
}

impl AgentVersion {
    /// Builds a go-ipfs agent version.
    pub fn go_ipfs(version: SemVer, commit: Option<&str>, flavor: VersionFlavor) -> Self {
        AgentVersion::GoIpfs {
            version,
            commit: commit.map(str::to_string),
            flavor,
        }
    }

    /// Parses an agent string as announced over identify.
    ///
    /// go-ipfs strings have the form `go-ipfs/<version>/<commit>` where the
    /// commit may carry a `-dirty` suffix and may be empty; anything that
    /// does not match is kept verbatim as [`AgentVersion::Other`], and an
    /// empty string maps to [`AgentVersion::Missing`].
    pub fn parse(s: &str) -> AgentVersion {
        if s.is_empty() {
            return AgentVersion::Missing;
        }
        let mut parts = s.splitn(3, '/');
        let family = parts.next().unwrap_or_default();
        if family == "go-ipfs" || family == "kubo" {
            if let Some(version) = parts.next().and_then(SemVer::parse) {
                let commit_raw = parts.next().unwrap_or("");
                let (commit, flavor) = match commit_raw.strip_suffix("-dirty") {
                    Some(base) if !base.is_empty() => (Some(base.to_string()), VersionFlavor::Dirty),
                    Some(_) => (None, VersionFlavor::Dirty),
                    None if commit_raw.is_empty() => (None, VersionFlavor::Main),
                    None => (Some(commit_raw.to_string()), VersionFlavor::Main),
                };
                return AgentVersion::GoIpfs {
                    version,
                    commit,
                    flavor,
                };
            }
        }
        AgentVersion::Other(s.to_string())
    }

    /// Whether this is some go-ipfs version.
    pub fn is_go_ipfs(&self) -> bool {
        matches!(self, AgentVersion::GoIpfs { .. })
    }

    /// Whether no agent string was obtained.
    pub fn is_missing(&self) -> bool {
        matches!(self, AgentVersion::Missing)
    }

    /// The go-ipfs release group used for Fig. 3 ("go-ipfs versions are
    /// grouped by their version number"): `0.11.0-dev`, `0.8.0`, …
    /// Non-go-ipfs agents return their full string; missing agents return
    /// `"missing"`.
    pub fn display_group(&self) -> String {
        match self {
            AgentVersion::GoIpfs { version, .. } => version.to_string(),
            AgentVersion::Other(s) => s.clone(),
            AgentVersion::Missing => "missing".to_string(),
        }
    }

    /// Classifies the transition from `self` to `new` following Table III.
    ///
    /// Returns `None` unless **both** agents are go-ipfs (the paper only
    /// classifies go-ipfs version changes) or the strings are identical.
    pub fn classify_change(&self, new: &AgentVersion) -> Option<VersionChange> {
        let (old_v, old_c, old_f) = match self {
            AgentVersion::GoIpfs {
                version,
                commit,
                flavor,
            } => (version, commit, *flavor),
            _ => return None,
        };
        let (new_v, new_c, new_f) = match new {
            AgentVersion::GoIpfs {
                version,
                commit,
                flavor,
            } => (version, commit, *flavor),
            _ => return None,
        };
        let kind = match new_v.cmp(old_v) {
            Ordering::Greater => VersionChangeKind::Upgrade,
            Ordering::Less => VersionChangeKind::Downgrade,
            Ordering::Equal => {
                if old_c == new_c && old_f == new_f {
                    return None;
                }
                VersionChangeKind::Change
            }
        };
        Some(VersionChange {
            kind,
            from_flavor: old_f,
            to_flavor: new_f,
        })
    }
}

impl fmt::Display for AgentVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentVersion::GoIpfs {
                version,
                commit,
                flavor,
            } => {
                write!(f, "go-ipfs/{version}/")?;
                if let Some(commit) = commit {
                    write!(f, "{commit}")?;
                }
                if *flavor == VersionFlavor::Dirty {
                    write!(f, "-dirty")?;
                }
                Ok(())
            }
            AgentVersion::Other(s) => f.write_str(s),
            AgentVersion::Missing => Ok(()),
        }
    }
}

/// The direction of a go-ipfs version transition (Table III, left column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VersionChangeKind {
    /// The version number increased.
    Upgrade,
    /// The version number decreased.
    Downgrade,
    /// Only the commit part (or flavor) changed.
    Change,
}

impl fmt::Display for VersionChangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionChangeKind::Upgrade => f.write_str("Upgrade"),
            VersionChangeKind::Downgrade => f.write_str("Downgrade"),
            VersionChangeKind::Change => f.write_str("Change"),
        }
    }
}

/// A classified go-ipfs agent-version transition (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VersionChange {
    /// Upgrade, downgrade or commit-only change.
    pub kind: VersionChangeKind,
    /// Flavor of the old build.
    pub from_flavor: VersionFlavor,
    /// Flavor of the new build.
    pub to_flavor: VersionFlavor,
}

impl VersionChange {
    /// The flavor-transition label used by the right column of Table III
    /// (`main–main`, `dirty–main`, `main–dirty`, `dirty–dirty`).
    pub fn flavor_transition(&self) -> &'static str {
        match (self.from_flavor, self.to_flavor) {
            (VersionFlavor::Main, VersionFlavor::Main) => "main-main",
            (VersionFlavor::Dirty, VersionFlavor::Main) => "dirty-main",
            (VersionFlavor::Main, VersionFlavor::Dirty) => "main-dirty",
            (VersionFlavor::Dirty, VersionFlavor::Dirty) => "dirty-dirty",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;


    #[test]
    fn parses_release_and_dev_versions() {
        let v = SemVer::parse("0.11.0").unwrap();
        assert_eq!(v, SemVer::new(0, 11, 0));
        let dev = SemVer::parse("0.11.0-dev").unwrap();
        assert_eq!(dev, SemVer::with_pre(0, 11, 0, "dev"));
        assert!(dev < v, "pre-release sorts before release");
        assert_eq!(SemVer::parse("0.9").unwrap(), SemVer::new(0, 9, 0));
        assert!(SemVer::parse("").is_none());
        assert!(SemVer::parse("0.a.1").is_none());
        assert!(SemVer::parse("1.2.3.4").is_none());
    }

    #[test]
    fn semver_ordering_matches_paper_notion_of_upgrade() {
        let order = ["0.4.22", "0.4.23", "0.5.0-dev", "0.7.0", "0.9.1", "0.10.0", "0.11.0-dev", "0.11.0"];
        let parsed: Vec<SemVer> = order.iter().map(|s| SemVer::parse(s).unwrap()).collect();
        for w in parsed.windows(2) {
            assert!(w[0] < w[1], "{} should sort before {}", w[0], w[1]);
        }
    }

    #[test]
    fn parses_go_ipfs_agent_strings() {
        let a = AgentVersion::parse("go-ipfs/0.11.0-dev/0c2f9d5-dirty");
        match &a {
            AgentVersion::GoIpfs {
                version,
                commit,
                flavor,
            } => {
                assert_eq!(version, &SemVer::with_pre(0, 11, 0, "dev"));
                assert_eq!(commit.as_deref(), Some("0c2f9d5"));
                assert_eq!(*flavor, VersionFlavor::Dirty);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert_eq!(a.display_group(), "0.11.0-dev");
        assert_eq!(a.to_string(), "go-ipfs/0.11.0-dev/0c2f9d5-dirty");

        let clean = AgentVersion::parse("go-ipfs/0.8.0/");
        assert!(matches!(
            clean,
            AgentVersion::GoIpfs {
                flavor: VersionFlavor::Main,
                ..
            }
        ));
        assert_eq!(clean.display_group(), "0.8.0");
    }

    #[test]
    fn parses_kubo_rename_as_go_ipfs() {
        assert!(AgentVersion::parse("kubo/0.14.0/abc").is_go_ipfs());
    }

    #[test]
    fn parses_other_and_missing_agents() {
        assert_eq!(
            AgentVersion::parse("hydra-booster/0.7.4"),
            AgentVersion::Other("hydra-booster/0.7.4".to_string())
        );
        assert_eq!(
            AgentVersion::parse("go-ipfs/garbage/x"),
            AgentVersion::Other("go-ipfs/garbage/x".to_string())
        );
        assert_eq!(AgentVersion::parse(""), AgentVersion::Missing);
        assert!(AgentVersion::parse("").is_missing());
        assert_eq!(AgentVersion::parse("").display_group(), "missing");
        assert_eq!(AgentVersion::parse("storm").display_group(), "storm");
    }

    #[test]
    fn classify_upgrade_downgrade_change() {
        let old = AgentVersion::parse("go-ipfs/0.10.0/abc");
        let upgraded = AgentVersion::parse("go-ipfs/0.11.0/def");
        let change = old.classify_change(&upgraded).unwrap();
        assert_eq!(change.kind, VersionChangeKind::Upgrade);
        assert_eq!(change.flavor_transition(), "main-main");

        let back = upgraded.classify_change(&old).unwrap();
        assert_eq!(back.kind, VersionChangeKind::Downgrade);

        let commit_only = AgentVersion::parse("go-ipfs/0.10.0/zzz");
        let c = old.classify_change(&commit_only).unwrap();
        assert_eq!(c.kind, VersionChangeKind::Change);
    }

    #[test]
    fn classify_tracks_flavor_transitions() {
        let dirty = AgentVersion::parse("go-ipfs/0.10.0/abc-dirty");
        let main = AgentVersion::parse("go-ipfs/0.10.0/abc");
        let c = dirty.classify_change(&main).unwrap();
        assert_eq!(c.kind, VersionChangeKind::Change);
        assert_eq!(c.flavor_transition(), "dirty-main");
        let c2 = main.classify_change(&dirty).unwrap();
        assert_eq!(c2.flavor_transition(), "main-dirty");
    }

    #[test]
    fn classify_ignores_non_go_ipfs_and_identity() {
        let go = AgentVersion::parse("go-ipfs/0.10.0/abc");
        let other = AgentVersion::parse("nebula-crawler/1.0");
        assert!(go.classify_change(&other).is_none());
        assert!(other.classify_change(&go).is_none());
        assert!(go.classify_change(&go.clone()).is_none());
    }

    // Seeded randomised tests (stand-ins for the original proptest
    // strategies; the offline build has no proptest).

    #[test]
    fn semver_display_parse_roundtrip() {
        let mut rng = simclock::SimRng::seed_from(0xa6e1);
        for _ in 0..256 {
            let (major, minor, patch) = (
                rng.uniform_u64(0, 30) as u32,
                rng.uniform_u64(0, 30) as u32,
                rng.uniform_u64(0, 30) as u32,
            );
            let v = if rng.chance(0.5) {
                SemVer::with_pre(major, minor, patch, "dev")
            } else {
                SemVer::new(major, minor, patch)
            };
            assert_eq!(SemVer::parse(&v.to_string()), Some(v));
        }
    }

    #[test]
    fn go_ipfs_display_parse_roundtrip() {
        let mut rng = simclock::SimRng::seed_from(0xa6e2);
        for _ in 0..256 {
            let minor = rng.uniform_u64(0, 30) as u32;
            let patch = rng.uniform_u64(0, 5) as u32;
            let dirty = rng.chance(0.5);
            let has_commit = rng.chance(0.5);
            // A dirty flavor without a commit cannot be distinguished after
            // formatting ("-dirty" needs the commit slot), so skip that corner.
            if dirty && !has_commit {
                continue;
            }
            let flavor = if dirty { VersionFlavor::Dirty } else { VersionFlavor::Main };
            let commit = if has_commit { Some("0c2f9d5") } else { None };
            let agent = AgentVersion::go_ipfs(SemVer::new(0, minor, patch), commit, flavor);
            assert_eq!(AgentVersion::parse(&agent.to_string()), agent);
        }
    }

    #[test]
    fn classification_is_antisymmetric() {
        let mut rng = simclock::SimRng::seed_from(0xa6e3);
        for _ in 0..256 {
            let a_minor = rng.uniform_u64(0, 20) as u32;
            let b_minor = rng.uniform_u64(0, 20) as u32;
            let a = AgentVersion::go_ipfs(SemVer::new(0, a_minor, 0), Some("aaa"), VersionFlavor::Main);
            let b = AgentVersion::go_ipfs(SemVer::new(0, b_minor, 0), Some("bbb"), VersionFlavor::Main);
            let ab = a.classify_change(&b).map(|c| c.kind);
            let ba = b.classify_change(&a).map(|c| c.kind);
            match (ab, ba) {
                (Some(VersionChangeKind::Upgrade), Some(VersionChangeKind::Downgrade)) => {}
                (Some(VersionChangeKind::Downgrade), Some(VersionChangeKind::Upgrade)) => {}
                (Some(VersionChangeKind::Change), Some(VersionChangeKind::Change)) => {
                    assert_eq!(a_minor, b_minor);
                }
                other => panic!("unexpected pair {other:?}"),
            }
        }
    }
}
