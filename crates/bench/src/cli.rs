//! The `repro` command line as a library.
//!
//! Every command and mode lists its flags once in the `MODES` table,
//! written the way the usage text shows them. One parser reads every
//! command line against that table, the usage text is generated from it,
//! and each command body writes its stdout to the sink [`run`] is given,
//! so the command line can be driven in-process.
//! README.md documents the commands and the conventions: a malformed
//! command line is a [`CliError::Usage`] (exit 2), a runtime failure a
//! [`CliError::Runtime`] (exit 1), stdout holds only deterministic output,
//! and timing goes to stderr and the BENCH files.

use crate::estimators::{run_estimators_bench_with_progress, EstimatorsBenchConfig};
use crate::scale::{run_true_protocol, TrueProtocolConfig};
use crate::serve::{campaign_feeds, reference_answers, run_serve_bench, DriveOptions};
use crate::serve::{ServeBenchConfig, ServeFeed};
use crate::stream::{run_stream_bench_with_progress, StreamBenchConfig};
use analysis::{
    classify_peers, connection_count_cdf, connection_stats, connection_timeline, direction_stats,
    fingerprint_groups, horizon_comparison, ip_grouping, max_duration_cdf, network_size_estimate,
    pid_growth, role_switches, version_changes,
};
use analysis::{metadata, report};
use jsonio::Json;
use measurement::serve::{ServeOptions, ServeState};
use measurement::sweep::{ObserverTweak, SweepGrid, SweepRunner};
use measurement::{run_period, run_scenario_suite, run_vantage_suite, MeasurementCampaign};
use p2pmodel::ConnLimits;
use population::{ChurnScenario, MeasurementPeriod, Scenario};
use simclock::{Cdf, SimDuration};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Why a command line did not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line is malformed: an unknown flag, a missing or bad
    /// value. The text ends with the command's usage. Exit status 2.
    Usage(String),
    /// The command failed while running: I/O, decoding, a bad manifest.
    /// Exit status 1.
    Runtime(String),
}

impl CliError {
    /// The process exit status this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(text) | CliError::Runtime(text) => f.write_str(text),
        }
    }
}

impl std::error::Error for CliError {}

fn usage_error(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

/// Turns an error into a runtime failure that says what was being done.
fn failed<E: fmt::Display>(what: String) -> impl FnOnce(E) -> CliError {
    move |error| CliError::Runtime(format!("failed to {what}: {error}"))
}

/// Rejects values that parse but are out of range.
fn ensure(ok: bool, problem: &str) -> Result<(), CliError> {
    if ok {
        Ok(())
    } else {
        Err(usage_error(problem))
    }
}

/// `println!` into a command's stdout sink; a failed write is a runtime
/// failure.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(failed("write stdout".to_string()))?
    };
}

// ---- the flag table ---------------------------------------------------------

/// One row of a flag table, written as the usage text shows it: `--name`
/// for a switch, `--name KIND` for a value with no default, or
/// `--name KIND=DEFAULT`; then two spaces and the help text.
type Spec = &'static str;

/// The `--scenarios` row, with its default.
macro_rules! scenarios {
    ($default:literal) => {
        concat!(
            "--scenarios LIST=",
            $default,
            "  churn regimes: baseline, diurnal, flashcrowd, massexit, pidflood, natchurn, ",
            "sybil, eclipse, poison"
        )
    };
}

const THREADS: Spec = "--threads N  worker threads (default: one per core)";
const PRETTY: Spec = "--pretty  pretty-print the JSON on stdout";
const NO_TABLE: Spec = "--no-table  skip the summary table on stderr";
const NO_FILE: Spec = "--no-file  write no BENCH file";
const SEED: Spec = "--seed N=1975  seed";
const WINDOW: Spec = "--window-hours N=6  tumbling-window width in hours";
const VANTAGES: Spec = "--vantages N=3  vantage points per campaign";
const REGIMES: Spec = scenarios!("baseline,diurnal,flashcrowd,massexit,pidflood,natchurn");

/// The campaign and output flags every report command shares.
const SUITE: &[Spec] = &[
    "--period P=P4  measurement period: P0..P4 or P14d",
    "--scale X=0.005  population scale, relative to the paper's network",
    SEED,
    THREADS,
    PRETTY,
    NO_TABLE,
];

/// The campaigns the serve `--drive` and `--reference` modes stream.
const SERVE_FEEDS: &[Spec] = &[
    "--period P=P2  measurement period: P0..P4 or P14d",
    "--scale X=0.005  population scale, relative to the paper's network",
    SEED,
    WINDOW,
    scenarios!("baseline"),
];

/// One command, or one mode of a command, with the flags it accepts.
struct Mode {
    /// The command (`""` is the paper harness), then the flag that selects
    /// this mode if the command has several: `"serve --bench"`.
    name: &'static str,
    about: &'static str,
    flags: &'static [&'static [Spec]],
    run: fn(&Args, &mut dyn Write) -> Result<(), CliError>,
}

/// Every command and mode of `repro`, in usage order.
const MODES: &[Mode] = &[
    Mode {
        name: "",
        about: "print the paper's tables and figures and the §V network-size estimate",
        flags: &[&[
            "--scale X=0.02  population scale, relative to the paper's network",
            SEED,
            "--only LIST  sections: table1..table4, fig2..fig7, ipgroups (default: all)",
        ]],
        run: harness,
    },
    Mode {
        name: "sweep",
        about: "run a grid of campaigns in parallel; cross-seed statistics as JSON",
        flags: &[&[
            "--periods LIST=P1,P2  measurement periods",
            "--scales LIST=0.01  population scales",
            "--seeds N=8  run seeds 1..=N",
            "--seed-list LIST  run these seeds instead",
            "--tweaks LIST=baseline=1.0  observer watermark factors as label=factor",
            scenarios!("baseline"),
            "--vantages LIST=1  vantage-point counts",
            "--base-seed N=1592590336  seed the cell seeds derive from",
            THREADS,
            PRETTY,
            NO_TABLE,
        ]],
        run: sweep,
    },
    Mode {
        name: "scenarios",
        about: "run one period under each churn regime; estimator robustness as JSON",
        flags: &[SUITE, &[REGIMES]],
        run: scenarios,
    },
    Mode {
        name: "vantage",
        about: "deploy several vantage points; capture-recapture estimates as JSON",
        flags: &[SUITE, &[VANTAGES, scenarios!("baseline")]],
        run: vantage,
    },
    Mode {
        name: "scale",
        about: "run one population through the sharded engine; its deterministic fields as JSON",
        flags: &[&[
            "--peers N=1000000  population",
            "--shards N=64  lock-step engine shards",
            THREADS,
            "--duration-mins N=10  simulated minutes",
            "--seed N=1554112512  seed",
            "--out PATH=BENCH_scale.json  BENCH file the report is merged into",
            NO_FILE,
            "--epoch-secs N=60  epoch length, the cross-shard latency",
            "--tp-observers N=4  passive observers",
        ]],
        run: scale,
    },
    Mode {
        name: "stream",
        about: "run campaigns through the streaming estimators; per-window report as JSON",
        flags: &[
            SUITE,
            &[WINDOW, "--vantages N=1  vantage points per campaign", scenarios!("baseline")],
        ],
        run: stream,
    },
    Mode {
        name: "stream --long-horizon",
        about: "measure streaming against batch memory over week-long horizons",
        flags: &[&[
            "--long-horizon  run the memory bench",
            "--horizons LIST=1,3,7  horizons in days",
            "--bench-scale X=0.0025  population scale",
            WINDOW,
            "--seed N=5761553  seed",
            "--out PATH=BENCH_stream.json  BENCH file for the full report",
            NO_FILE,
        ]],
        run: stream_long_horizon,
    },
    Mode {
        name: "estimators",
        about: "calibrate every capture-recapture estimator over seeded replicates",
        flags: &[
            SUITE,
            &[
                VANTAGES,
                "--replicates N=5  seeded replicates per cell",
                "--bootstrap N=200  bootstrap resamples per replicate",
                WINDOW,
                REGIMES,
                "--out PATH=BENCH_estimators.json  BENCH file for the full report",
                NO_FILE,
            ],
        ],
        run: estimators,
    },
    Mode {
        name: "crawl",
        about: "compare the crawler with the passive monitor under DHT adversaries",
        flags: &[
            SUITE,
            &[
                scenarios!("baseline,sybil,eclipse,poison"),
                "--out PATH=BENCH_crawl.json  BENCH file for the full report",
                NO_FILE,
            ],
        ],
        run: crawl,
    },
    Mode {
        name: "export",
        about: "run a scenario suite once and archive every cell; the report as JSON",
        flags: &[&["--dir DIR  archive directory (required)"], SUITE, &[REGIMES]],
        run: export,
    },
    Mode {
        name: "analyze",
        about: "rebuild the report of an exported suite from its archives alone",
        flags: &[&[
            "--dir DIR  archive directory (required)",
            THREADS,
            PRETTY,
            NO_TABLE,
            "--bench-out PATH=BENCH_archive.json  BENCH file for sizes and timing",
            NO_FILE,
        ]],
        run: analyze,
    },
    Mode {
        name: "serve --listen",
        about: "host the multi-tenant monitor daemon on a Unix socket",
        flags: &[&[
            "--listen SOCK  socket path",
            "--checkpoint FILE  checkpoint file",
            "--checkpoint-every N  event frames between checkpoints",
            "--restore FILE  checkpoint to restore before listening",
        ]],
        run: serve_listen,
    },
    Mode {
        name: "serve --drive",
        about: "stream simulated campaigns into a daemon; its answers as JSON",
        flags: &[
            &["--drive SOCK  socket path"],
            SERVE_FEEDS,
            &[
                "--batch-rows N=512  rows per event batch",
                "--resume  skip what the daemon already ingested",
                "--max-batches N  stop after N batches per tenant, without answers",
                "--shutdown  stop the daemon afterwards",
            ],
        ],
        run: serve_drive,
    },
    Mode {
        name: "serve --reference",
        about: "compute the daemon's answers in-process",
        flags: &[&["--reference  compute the answers in-process"], SERVE_FEEDS],
        run: serve_reference,
    },
    Mode {
        name: "serve --bench",
        about: "load-test the daemon state with concurrent synthetic feeds",
        flags: &[&[
            "--bench  run the load bench",
            "--tenants N=1000  concurrent tenant feeds",
            "--events N=240  events per tenant",
            "--batch-rows N=48  rows per event batch",
            "--queries N=1000  timed live queries",
            "--seed N=2022  seed",
            "--out PATH=BENCH_serve.json  BENCH file for the full report",
            NO_FILE,
        ]],
        run: serve_bench,
    },
];

/// A [`Spec`] taken apart.
struct Flag {
    name: &'static str,
    /// The value's kind (`N`, `X`, `LIST`, …); `None` for a switch.
    kind: Option<&'static str>,
    /// The value used when the flag is absent, as it would be typed.
    default: Option<&'static str>,
    help: &'static str,
}

impl Flag {
    fn parse(spec: Spec) -> Flag {
        let (head, help) = spec.split_once("  ").unwrap_or((spec, ""));
        let (name, value) = head.split_once(' ').map_or((head, None), |(n, v)| (n, Some(v)));
        let (kind, default) = match value.map(|v| v.split_once('=')) {
            Some(Some((kind, default))) => (Some(kind), Some(default)),
            _ => (value, None),
        };
        Flag { name, kind, default, help: help.trim() }
    }
}

impl Mode {
    fn command(&self) -> &'static str {
        self.name.split(' ').next().unwrap_or("")
    }

    fn selector(&self) -> Option<&'static str> {
        self.name.split_once(' ').map(|(_, selector)| selector)
    }

    fn flags(&self) -> impl Iterator<Item = Flag> {
        self.flags.iter().flat_map(|group| group.iter()).map(|spec| Flag::parse(spec))
    }
}

/// Runs one `repro` command line (without the program name), writing its
/// stdout to `stdout` as each part of it is ready.
pub fn run(args: &[String], stdout: &mut dyn Write) -> Result<(), CliError> {
    let (command, rest) = match args.first() {
        Some(first) if !first.is_empty() && MODES.iter().any(|m| m.command() == first) => {
            (first.as_str(), &args[1..])
        }
        _ => ("", args),
    };
    let modes = || MODES.iter().filter(|m| m.command() == command);
    let selected = |m: &&Mode| m.selector().is_some_and(|s| rest.iter().any(|arg| arg == s));
    let result = match modes().find(selected).or_else(|| modes().find(|m| m.selector().is_none())) {
        Some(mode) => Args::parse(mode, rest).and_then(|args| (mode.run)(&args, stdout)),
        None => {
            let selectors: Vec<&str> = modes().filter_map(Mode::selector).collect();
            Err(usage_error(format!("{command} needs one of {}", selectors.join(", "))))
        }
    };
    result.map_err(|error| match error {
        CliError::Usage(message) => {
            CliError::Usage(format!("error: {message}\n\n{}", usage(command)))
        }
        runtime => runtime,
    })
}

/// The usage text of a command (`""` for the paper harness), generated
/// from the flag table.
pub fn usage(command: &str) -> String {
    let mut text = String::new();
    for mode in MODES.iter().filter(|m| m.command() == command) {
        let name = format!("repro {}", mode.name);
        text += &format!("usage: {} [flags]\n  {}\n", name.trim(), mode.about);
        for flag in mode.flags() {
            let name =
                flag.kind.map_or(flag.name.to_string(), |kind| format!("{} {kind}", flag.name));
            let default = flag.default.map(|d| format!(" (default: {d})")).unwrap_or_default();
            text += &format!("    {name:<22} {}{default}\n", flag.help);
        }
    }
    if command.is_empty() {
        let mut commands: Vec<&str> =
            MODES.iter().map(Mode::command).filter(|c| !c.is_empty()).collect();
        commands.dedup();
        text += &format!("commands: {} (see `repro <command> --help`)\n", commands.join(", "));
    }
    text
}

// ---- the parser ---------------------------------------------------------------

/// A value type a flag can hold.
trait Arg: Sized {
    fn parse_arg(text: &str) -> Option<Self>;
}

macro_rules! from_str_args {
    ($($t:ty),*) => {$(
        impl Arg for $t {
            fn parse_arg(text: &str) -> Option<Self> {
                text.parse().ok()
            }
        }
    )*};
}

from_str_args!(u64, usize, f64, String);

impl Arg for MeasurementPeriod {
    fn parse_arg(text: &str) -> Option<Self> {
        MeasurementPeriod::from_label(text)
    }
}

impl Arg for ChurnScenario {
    fn parse_arg(text: &str) -> Option<Self> {
        ChurnScenario::from_label(text)
    }
}

impl Arg for ObserverTweak {
    fn parse_arg(text: &str) -> Option<Self> {
        let (label, factor) = text.split_once('=').unwrap_or((text, "1.0"));
        Some(ObserverTweak::limits(label.trim(), factor.trim().parse().ok()?))
    }
}

/// A command line parsed against one mode's flags.
struct Args {
    mode: &'static Mode,
    /// The flags given, in order, with their values (`None` for switches).
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    fn parse(mode: &'static Mode, args: &[String]) -> Result<Args, CliError> {
        let mut given = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let flag = mode
                .flags()
                .find(|f| f.name == arg)
                .ok_or_else(|| usage_error(format!("unknown argument {arg:?}")))?;
            let value = match flag.kind {
                Some(_) => Some(
                    rest.next()
                        .cloned()
                        .ok_or_else(|| usage_error(format!("{arg} needs a value")))?,
                ),
                None => None,
            };
            given.push((flag.name, value));
        }
        Ok(Args { mode, given })
    }

    /// Where the flag last appears on the command line.
    fn last(&self, name: &str) -> Option<usize> {
        self.given.iter().rposition(|(given, _)| *given == name)
    }

    fn on(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// The flag's value as typed: the last one given, else the default.
    fn text(&self, name: &str) -> Option<&str> {
        match self.last(name) {
            Some(i) => self.given[i].1.as_deref(),
            None => {
                let flag = self.mode.flags().find(|f| f.name == name);
                flag.unwrap_or_else(|| panic!("{name} is not in the flag table")).default
            }
        }
    }

    fn opt<T: Arg>(&self, name: &str) -> Result<Option<T>, CliError> {
        let parse = |text| {
            T::parse_arg(text).ok_or_else(|| usage_error(format!("invalid {name} value {text:?}")))
        };
        self.text(name).map(parse).transpose()
    }

    fn get<T: Arg>(&self, name: &str) -> Result<T, CliError> {
        self.opt(name)?.ok_or_else(|| usage_error(format!("{name} is required")))
    }

    /// A comma-separated list; items are trimmed.
    fn list<T: Arg>(&self, name: &str) -> Result<Vec<T>, CliError> {
        let text: String = self.get(name)?;
        let parse = |item: &str| {
            T::parse_arg(item.trim())
                .ok_or_else(|| usage_error(format!("invalid {name} item {item:?}")))
        };
        text.split(',').map(parse).collect()
    }

    /// A finite, strictly positive number.
    fn positive(&self, name: &str) -> Result<f64, CliError> {
        let value: f64 = self.get(name)?;
        ensure(value.is_finite() && value > 0.0, &format!("{name} must be a positive number"))?;
        Ok(value)
    }

    /// The BENCH file path (`None` under `--no-file`).
    fn bench_file(&self, name: &str) -> Option<String> {
        if self.on("--no-file") {
            None
        } else {
            self.text(name).map(str::to_string)
        }
    }

    fn threads(&self) -> Result<usize, CliError> {
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(self.opt("--threads")?.unwrap_or_else(cores))
    }
}

// ---- shared pieces of the commands --------------------------------------------

/// `--period --scale --seed --scenarios`: the campaigns a command runs.
struct Campaigns {
    period: MeasurementPeriod,
    scale: f64,
    seed: u64,
    scenarios: Vec<ChurnScenario>,
}

impl Campaigns {
    fn parse(a: &Args) -> Result<Campaigns, CliError> {
        Ok(Campaigns {
            period: a.get("--period")?,
            scale: a.positive("--scale")?,
            seed: a.get("--seed")?,
            scenarios: a.list("--scenarios")?,
        })
    }
}

impl fmt::Display for Campaigns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<&str> = self.scenarios.iter().map(ChurnScenario::label).collect();
        let (period, scale, seed) = (self.period, self.scale, self.seed);
        write!(f, "{} on {period} at scale {scale}, seed {seed}", labels.join(","))
    }
}

/// `--threads --pretty --no-table`: how a report command runs and prints.
struct Output {
    threads: usize,
    pretty: bool,
    table: bool,
}

impl Output {
    fn parse(a: &Args) -> Result<Output, CliError> {
        Ok(Output { threads: a.threads()?, pretty: a.on("--pretty"), table: !a.on("--no-table") })
    }
}

/// The path every report command shares: a header on stderr, the run, its
/// wall time and (unless `--no-table`) its summary table on stderr, then
/// the report as compact or `--pretty` JSON on stdout. `run` returns the
/// summary table and the report.
fn suite(
    name: &str,
    header: String,
    out: &Output,
    stdout: &mut dyn Write,
    run: impl FnOnce() -> Result<(String, Json), CliError>,
) -> Result<(), CliError> {
    eprintln!("# {name}: {header}");
    let started = Instant::now();
    let (table, report) = run()?;
    eprintln!("# {name} finished in {:.1?}", started.elapsed());
    if out.table {
        eprintln!("\n{table}");
    }
    let json = if out.pretty { report.to_string_pretty() } else { report.to_string_compact() };
    outln!(stdout, "{json}");
    Ok(())
}

fn print_pretty(stdout: &mut dyn Write, doc: &Json) -> Result<(), CliError> {
    outln!(stdout, "{}", doc.to_string_pretty());
    Ok(())
}

fn write_json(path: &str, doc: &Json) -> Result<(), CliError> {
    fs::write(path, doc.to_string_pretty() + "\n").map_err(failed(format!("write {path}")))
}

/// Writes a BENCH file unless `path` is `None` (`--no-file`).
fn write_bench(path: Option<String>, doc: Json) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    write_json(&path, &doc)?;
    eprintln!("# full report (with timing) written to {path}");
    Ok(())
}

/// The JSON object in the BENCH file at `path`, empty if there is no
/// file: what `scale` sets its rows in, so rows written by other runs
/// survive.
///
/// # Errors
///
/// A [`CliError::Runtime`] if the file exists but cannot be read or does
/// not hold a JSON object.
pub fn read_bench(path: &str) -> Result<Json, CliError> {
    let root = match fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(failed(format!("merge into {path}")))?,
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => Json::object(),
        Err(error) => return Err(failed(format!("read {path}"))(error)),
    };
    if root.as_object().is_none() {
        return Err(CliError::Runtime(format!("failed to merge into {path}: not a JSON object")));
    }
    Ok(root)
}

// ---- the paper harness ----------------------------------------------------------

/// A section of the paper harness and the `--only` keys that select it.
type Section = (&'static [&'static str], fn(&mut Harness<'_>) -> Result<(), CliError>);

/// The sections, in print order.
const SECTIONS: [Section; 8] = [
    (&["table1"], |h| h.table1()),
    (&["table2"], |h| h.table2()),
    (&["fig2"], |h| h.fig2()),
    (&["fig3", "fig4", "table3"], |h| h.metadata_section()),
    (&["fig5"], |h| h.fig5()),
    (&["fig6"], |h| h.fig6()),
    (&["fig7"], |h| h.fig7()),
    (&["table4", "ipgroups"], |h| h.network_size()),
];

/// P0..P3, the periods with go-ipfs and hydra observers side by side.
const PASSIVE_PERIODS: &[MeasurementPeriod] = MeasurementPeriod::ALL.split_at(4).0;

fn harness(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let only: Option<Vec<String>> = if a.on("--only") { Some(a.list("--only")?) } else { None };
    let known = |key: &str| SECTIONS.iter().any(|(keys, _)| keys.contains(&key));
    if let Some(unknown) = only.iter().flatten().find(|key| !known(key)) {
        return Err(usage_error(format!("unknown --only section {unknown:?}")));
    }
    let mut h = Harness {
        scale: a.positive("--scale")?,
        seed: a.get("--seed")?,
        campaigns: HashMap::new(),
        out: stdout,
    };
    outln!(h.out, "# Reproduction harness — scale {}, seed {}\n", h.scale, h.seed);
    for (keys, section) in SECTIONS {
        if only.as_ref().is_none_or(|only| only.iter().any(|k| keys.contains(&k.as_str()))) {
            section(&mut h)?;
        }
    }
    Ok(())
}

/// The paper harness: one campaign per period, run on first use; each
/// section goes to stdout as soon as it is done.
struct Harness<'a> {
    scale: f64,
    seed: u64,
    campaigns: HashMap<&'static str, MeasurementCampaign>,
    out: &'a mut dyn Write,
}

impl Harness<'_> {
    fn campaign(&mut self, period: MeasurementPeriod) -> MeasurementCampaign {
        self.campaigns
            .entry(period.label())
            .or_insert_with(|| run_period(period, self.scale, self.seed))
            .clone()
    }

    fn table(&mut self, header: &[&str], rows: &[Vec<String>]) -> Result<(), CliError> {
        outln!(self.out, "{}", report::text_table(header, rows));
        Ok(())
    }

    fn table1(&mut self) -> Result<(), CliError> {
        outln!(self.out, "## Table I — measurement period overview\n");
        let limits = |limits: ConnLimits| format!("({}/{})", limits.low_water, limits.high_water);
        let rows: Vec<Vec<String>> = MeasurementPeriod::ALL
            .iter()
            .map(|period| {
                let go = period.go_ipfs().map(|(role, l)| format!("{role} {}", limits(l)));
                let hydra = period.hydra().map(|(heads, l)| format!("{heads} heads {}", limits(l)));
                vec![
                    period.label().to_string(),
                    format!("{}", period.duration()),
                    go.unwrap_or_else(|| "-".into()),
                    hydra.unwrap_or_else(|| "-".into()),
                    format!("{} observers", Scenario::new(*period).observers().len()),
                ]
            })
            .collect();
        self.table(&["Period", "Duration", "go-ipfs", "Hydra", "Deployed"], &rows)
    }

    fn table2(&mut self) -> Result<(), CliError> {
        outln!(self.out, "## Table II — connection statistics\n");
        let mut rows = Vec::new();
        for &period in PASSIVE_PERIODS {
            let campaign = self.campaign(period);
            for dataset in campaign.passive_datasets() {
                let s = connection_stats(dataset);
                let dirs = direction_stats(dataset);
                let in_out =
                    format!("{}/{}", report::count(dirs.inbound), report::count(dirs.outbound));
                for (kind, sum, avg, median, in_out) in [
                    ("All", s.all_sum, s.all_avg_secs, s.all_median_secs, in_out),
                    ("Peer", s.peer_sum, s.peer_avg_secs, s.peer_median_secs, String::new()),
                ] {
                    rows.push(vec![
                        period.label().into(),
                        dataset.client.clone(),
                        kind.into(),
                        report::count(sum),
                        report::secs(avg),
                        report::secs(median),
                        in_out,
                    ]);
                }
            }
        }
        let header = ["Period", "Client", "Type", "Sum", "Avg [s]", "Median [s]", "in/out"];
        self.table(&header, &rows)
    }

    fn fig2(&mut self) -> Result<(), CliError> {
        outln!(self.out, "## Fig. 2 — passive vs. active measurement horizon\n");
        let mut rows = Vec::new();
        for &period in &MeasurementPeriod::ALL[..5] {
            let comparison = horizon_comparison(&self.campaign(period));
            for entry in &comparison.passive {
                rows.push(vec![
                    comparison.period.clone(),
                    entry.client.clone(),
                    report::count(entry.dht_server_pids),
                    report::count(entry.total_pids),
                ]);
            }
            let crawler = &comparison.crawler;
            rows.push(vec![
                comparison.period.clone(),
                "crawler (min..max)".into(),
                format!("{}..{}", crawler.min_servers, crawler.max_servers),
                report::count(crawler.distinct_servers),
            ]);
        }
        self.table(&["Period", "Client", "DHT-Server PIDs", "Total PIDs"], &rows)
    }

    fn metadata_section(&mut self) -> Result<(), CliError> {
        let campaign = self.campaign(MeasurementPeriod::P4);
        let dataset = campaign.primary();

        outln!(self.out, "## Fig. 3 — agent versions\n");
        let agents = analysis::agent_histogram(dataset, (100.0 * self.scale).ceil() as u64);
        outln!(self.out, "{}", report::bar_chart(&agents.sorted_by_count(), 40));
        let b = metadata::agent_breakdown(dataset);
        outln!(
            self.out,
            "go-ipfs {} | hydra {} | crawler {} | other {} | missing {} | distinct agents {} | kad {}\n",
            report::count(b.go_ipfs),
            report::count(b.hydra),
            report::count(b.crawler),
            report::count(b.other),
            report::count(b.missing),
            b.distinct_agents,
            report::count(b.kad_supporters),
        );

        outln!(self.out, "## Fig. 4 — supported protocols\n");
        let protocols = analysis::protocol_histogram(dataset, (300.0 * self.scale).ceil() as u64);
        outln!(self.out, "{}", report::bar_chart(&protocols.sorted_by_count(), 40));

        outln!(self.out, "## Table III — go-ipfs version changes\n");
        let v = version_changes(dataset);
        let rows: Vec<Vec<String>> = [
            ("Upgrade", v.upgrades, "main-main", v.main_to_main),
            ("Downgrade", v.downgrades, "dirty-main", v.dirty_to_main),
            ("Change", v.changes, "main-dirty", v.main_to_dirty),
            ("(peers)", v.peers_with_changes, "dirty-dirty", v.dirty_to_dirty),
        ]
        .into_iter()
        .map(|(change, n, kind, m)| vec![change.into(), n.to_string(), kind.into(), m.to_string()])
        .collect();
        self.table(&["Version", "#", "Type", "#"], &rows)?;

        let roles = role_switches(dataset);
        let anomalies = metadata::anomaly_report(dataset);
        outln!(
            self.out,
            "role switches: {} peers changed protocol announcements ({} events), {} server->client",
            roles.peers_with_protocol_changes,
            roles.protocol_change_events,
            roles.role_switchers
        );
        outln!(
            self.out,
            "anomalies: {} go-ipfs without bitswap ({} with sbptp), {} storm-protocol peers, {} ethereum agents\n",
            anomalies.go_ipfs_without_bitswap,
            anomalies.go_ipfs_with_storm_markers,
            anomalies.storm_protocol_peers,
            anomalies.ethereum_agents
        );
        Ok(())
    }

    fn fig5(&mut self) -> Result<(), CliError> {
        outln!(self.out, "## Fig. 5 — simultaneous connections over the first 24 h\n");
        for &period in PASSIVE_PERIODS {
            let campaign = self.campaign(period);
            for dataset in campaign.passive_datasets() {
                let timeline = connection_timeline(dataset, SimDuration::from_hours(24));
                let csv = report::timeseries_csv(&timeline.downsample(24), "time_s", "connections");
                outln!(self.out, "### {} / {}\n{csv}", period.label(), dataset.client);
            }
        }
        Ok(())
    }

    fn fig6(&mut self) -> Result<(), CliError> {
        outln!(self.out, "## Fig. 6 — PIDs over time (14-day run)\n");
        // The 14-day run is the most expensive experiment; run it at a quarter of
        // the requested scale to keep the harness fast.
        let scale = (self.scale * 0.25).max(0.002);
        let campaign = run_period(MeasurementPeriod::Extended, scale, self.seed);
        let growth =
            pid_growth(campaign.primary(), SimDuration::from_hours(6), SimDuration::from_days(3));
        outln!(self.out, "(scale {scale})");
        for (series, label) in
            [(&growth.total_pids, "total_pids"), (&growth.gone_pids, "gone_3d_pids")]
        {
            outln!(self.out, "{}", report::timeseries_csv(&series.downsample(28), "hours", label));
        }
        outln!(
            self.out,
            "final: {} PIDs seen, {} disconnected >3 d and never returned\n",
            growth.final_total(),
            growth.final_gone()
        );
        Ok(())
    }

    fn fig7(&mut self) -> Result<(), CliError> {
        outln!(self.out, "## Fig. 7 — CDFs of connection behaviour (P4)\n");
        let campaign = self.campaign(MeasurementPeriod::P4);
        let dataset = campaign.primary();
        let cdfs = max_duration_cdf(dataset, 30.0);
        let points = Cdf::log_points(30.0, 300_000.0, 2);
        outln!(self.out, "### max connection duration per PID");
        for (label, cdf) in
            [("all", &cdfs.all), ("dht-server", &cdfs.dht_server), ("dht-client", &cdfs.dht_client)]
        {
            outln!(self.out, "{label}:\n{}", report::cdf_csv(cdf, &points, "duration_s"));
        }
        outln!(
            self.out,
            "fraction <1h: {:.2}  fraction >24h: {:.2}",
            cdfs.fraction_below(3600.0),
            1.0 - cdfs.fraction_below(24.0 * 3600.0)
        );

        let counts = connection_count_cdf(dataset);
        let count_points = Cdf::log_points(1.0, 10_000.0, 2);
        outln!(self.out, "\n### number of connections per PID");
        outln!(self.out, "{}", report::cdf_csv(&counts, &count_points, "connections"));
        outln!(
            self.out,
            "fraction with 1 connection: {:.2}  fraction with >15: {:.2}\n",
            counts.fraction_at_or_below(1.0),
            1.0 - counts.fraction_at_or_below(15.0)
        );
        Ok(())
    }

    fn network_size(&mut self) -> Result<(), CliError> {
        outln!(self.out, "## Section V — network size (P4)\n");
        let campaign = self.campaign(MeasurementPeriod::P4);
        let dataset = campaign.primary();

        let g = ip_grouping(dataset);
        outln!(self.out, "### §V-A IP grouping");
        outln!(
            self.out,
            "PIDs {} | connected {} | IPs {} | groups {} | singleton groups {} | largest group {}",
            report::count(g.total_pids),
            report::count(g.connected_pids),
            report::count(g.distinct_ips),
            report::count(g.groups),
            report::count(g.singleton_groups),
            g.largest_group
        );

        outln!(self.out, "\n### Table IV — classification");
        let rows: Vec<Vec<String>> = classify_peers(dataset)
            .rows
            .iter()
            .map(|(label, total, servers)| {
                vec![label.clone(), report::count(*total), report::count(*servers)]
            })
            .collect();
        self.table(&["Class", "Peers", "DHT-Server"], &rows)?;

        let estimate = network_size_estimate(dataset);
        let fingerprints = fingerprint_groups(dataset);
        outln!(self.out, "### estimates");
        outln!(
            self.out,
            "by PIDs {} | by IP groups {} | by fingerprints {} | core lower bound {} | max simultaneous {} | ground truth {}\n",
            report::count(estimate.by_pids),
            report::count(estimate.by_ip_groups),
            report::count(fingerprints.full_fingerprints),
            report::count(estimate.core_lower_bound),
            report::count(estimate.max_simultaneous_connections),
            report::count(campaign.ground_truth.population_size())
        );
        Ok(())
    }
}

// ---- sweep, scale and the report commands --------------------------------------

fn sweep(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let seeds: Vec<u64> = if a.last("--seed-list") > a.last("--seeds") {
        a.list("--seed-list")?
    } else {
        (1..=a.get("--seeds")?).collect()
    };
    ensure(!seeds.is_empty(), "--seeds must be at least 1")?;
    let grid = SweepGrid::new(a.list("--periods")?)
        .with_scales(a.list("--scales")?)
        .with_seeds(seeds)
        .with_tweaks(a.list("--tweaks")?)
        .with_scenarios(a.list("--scenarios")?)
        .with_vantages(a.list("--vantages")?)
        .with_base_seed(a.get("--base-seed")?);
    grid.validate().map_err(|problem| usage_error(format!("invalid sweep grid: {problem}")))?;
    let out = Output::parse(a)?;
    let total = grid.cell_count();
    suite("sweep", format!("{total} campaigns"), &out, stdout, || {
        let done = AtomicUsize::new(0);
        let report =
            SweepRunner::new().with_threads(out.threads).run_with_progress(&grid, |cell| {
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "[{finished}/{total}] {} {} scale {} seed {} ({}): {} conns, {} pids",
                    cell.period,
                    cell.scenario,
                    cell.scale,
                    cell.seed,
                    cell.tweak,
                    cell.connections,
                    cell.pids
                );
            });
        Ok((report.summary_table(), report.to_json()))
    })
}

fn scale(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let cfg = TrueProtocolConfig {
        peers: a.get("--peers")?,
        shards: a.get("--shards")?,
        threads: a.threads()?,
        duration: SimDuration::from_mins(a.get("--duration-mins")?),
        epoch: SimDuration::from_secs(a.get("--epoch-secs")?),
        seed: a.get("--seed")?,
        observers: a.get("--tp-observers")?,
    };
    let positive = cfg.peers > 0 && cfg.shards > 0 && cfg.threads > 0;
    ensure(
        positive && !cfg.epoch.is_zero() && cfg.observers > 0,
        "--peers, --shards, --threads, --epoch-secs and --tp-observers must be at least 1",
    )?;
    // The row is set in the BENCH file, read before the run so that a file
    // that cannot be merged into fails before it, not after.
    let file = a.bench_file("--out");
    let mut bench = file.as_deref().map(read_bench).transpose()?.unwrap_or_else(Json::object);
    eprintln!(
        "# scale: {} peers in {} lock-step shards on {} threads, {} simulated, {} epochs",
        cfg.peers,
        cfg.shards,
        cfg.threads,
        cfg.duration,
        cfg.duration.as_millis() / cfg.epoch.as_millis()
    );
    let report = run_true_protocol(&cfg);
    eprintln!("# {}", report.summary());
    bench.insert(format!("true_protocol_{}", cfg.peers), report.full_json());
    write_bench(file, bench)?;
    print_pretty(stdout, &report.deterministic_json())
}

fn scenarios(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let (c, out) = (Campaigns::parse(a)?, Output::parse(a)?);
    suite("scenarios", c.to_string(), &out, stdout, || {
        let report = analysis::robustness_report(&run_scenario_suite(
            c.period,
            c.scale,
            c.seed,
            &c.scenarios,
            out.threads,
        ));
        Ok((report.summary_table(), report.to_json()))
    })
}

fn vantage(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let (c, out) = (Campaigns::parse(a)?, Output::parse(a)?);
    let vantages: usize = a.get("--vantages")?;
    ensure(vantages > 0, "--vantages must be at least 1")?;
    suite("vantage", format!("{vantages} vantage points, {c}"), &out, stdout, || {
        let campaigns =
            run_vantage_suite(c.period, c.scale, c.seed, vantages, &c.scenarios, out.threads);
        let report = analysis::vantage_report(&campaigns);
        Ok((report.summary_table(), report.to_json()))
    })
}

fn stream(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let (c, out) = (Campaigns::parse(a)?, Output::parse(a)?);
    let (vantages, hours): (usize, u64) = (a.get("--vantages")?, a.get("--window-hours")?);
    ensure(vantages > 0 && hours > 0, "--vantages and --window-hours must be at least 1")?;
    suite("stream", format!("{hours} h windows, {vantages} vantage(s), {c}"), &out, stdout, || {
        let window = SimDuration::from_hours(hours);
        let campaigns = measurement::run_stream_suite(
            c.period,
            c.scale,
            c.seed,
            vantages,
            window,
            &c.scenarios,
            out.threads,
        );
        let report = analysis::stream_report(&campaigns);
        Ok((report.summary_table(), report.to_json()))
    })
}

fn stream_long_horizon(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let cfg = StreamBenchConfig {
        scale: a.positive("--bench-scale")?,
        seed: a.get("--seed")?,
        horizons_days: a.list("--horizons")?,
        window: SimDuration::from_hours(a.get("--window-hours")?),
    };
    ensure(!cfg.window.is_zero(), "--window-hours must be at least 1")?;
    eprintln!(
        "# stream --long-horizon: Extended at scale {}, horizons {:?} days, {} windows",
        cfg.scale, cfg.horizons_days, cfg.window
    );
    let report = run_stream_bench_with_progress(&cfg, |horizon| {
        eprintln!(
            "[{} days] {} conns, {} pids: batch {} B vs stream exact {} B ({:.1}x) / bucketed {} B",
            horizon.days,
            horizon.connections,
            horizon.pids,
            horizon.batch_bytes,
            horizon.exact_peak_bytes,
            horizon.exact_ratio(),
            horizon.bucketed_peak_bytes
        );
    });
    eprintln!("# {}", report.summary());
    write_bench(a.bench_file("--out"), report.full_json())?;
    print_pretty(stdout, &report.deterministic_json())
}

fn estimators(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let (c, out) = (Campaigns::parse(a)?, Output::parse(a)?);
    let cfg = EstimatorsBenchConfig {
        period: c.period,
        scale: c.scale,
        seed: c.seed,
        vantages: a.get("--vantages")?,
        replicates: a.get("--replicates")?,
        bootstrap: a.get("--bootstrap")?,
        window: SimDuration::from_hours(a.get("--window-hours")?),
        scenarios: c.scenarios.clone(),
    };
    let positive = cfg.vantages > 0 && cfg.replicates > 0 && !cfg.window.is_zero();
    ensure(positive, "--vantages, --replicates and --window-hours must be at least 1")?;
    let header = format!(
        "{} replicates x {} vantage(s), {} bootstrap resamples, {c}",
        cfg.replicates, cfg.vantages, cfg.bootstrap
    );
    suite("estimators", header, &out, stdout, || {
        let report =
            run_estimators_bench_with_progress(&cfg, out.threads, |stage| eprintln!("# {stage}"));
        eprintln!("# {}", report.summary());
        write_bench(a.bench_file("--out"), report.full_json())?;
        Ok((report.report.summary_table(), report.deterministic_json()))
    })
}

fn crawl(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let (c, out) = (Campaigns::parse(a)?, Output::parse(a)?);
    suite("crawl", c.to_string(), &out, stdout, || {
        let started = Instant::now();
        let campaigns = run_scenario_suite(c.period, c.scale, c.seed, &c.scenarios, out.threads);
        let report = analysis::crawl_disagreement_report(&campaigns);
        let mut full = Json::object();
        full.insert("elapsed_secs", started.elapsed().as_secs_f64());
        full.insert("report", report.to_json());
        write_bench(a.bench_file("--out"), full)?;
        Ok((report.summary_table(), report.to_json()))
    })
}

// ---- export and analyze -----------------------------------------------------------

fn export(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let dir: String = a.get("--dir")?;
    let (c, out) = (Campaigns::parse(a)?, Output::parse(a)?);
    suite("export", format!("{c} -> {dir}/"), &out, stdout, || {
        let started = Instant::now();
        let cells = measurement::export_suite(c.period, c.scale, c.seed, &c.scenarios, out.threads);
        let (mut sim_secs, mut encode_secs) = (0.0, 0.0);
        let mut campaigns = Vec::with_capacity(cells.len());
        let mut archives = Vec::with_capacity(cells.len());
        for cell in cells {
            sim_secs += cell.sim_secs;
            encode_secs += cell.encode_secs;
            campaigns.push(cell.campaign);
            archives.push((cell.churn.label(), cell.archive, cell.events));
        }
        let report = analysis::robustness_report(&campaigns);
        // The full simulate + serialise + ingest + report wall time: the
        // baseline `repro analyze` measures its re-analysis speedup against.
        let direct_secs = started.elapsed().as_secs_f64();

        fs::create_dir_all(&dir).map_err(failed(format!("create {dir}")))?;
        let mut manifest_cells = Json::array();
        let mut total_bytes = 0usize;
        let mut rows = Vec::new();
        for (index, (label, archive, events)) in archives.iter().enumerate() {
            let file = format!("cell-{index:02}-{label}.obsar");
            let path = format!("{dir}/{file}");
            fs::write(&path, archive).map_err(failed(format!("write {path}")))?;
            total_bytes += archive.len();
            let mut entry = Json::object();
            entry.insert("file", file.as_str());
            entry.insert("scenario", *label);
            entry.insert("events", *events as u64);
            entry.insert("bytes", archive.len() as u64);
            entry.insert("checksum", netsim::archive::fnv1a(archive));
            manifest_cells.push(entry);
            let per_event = format!("{:.1}", archive.len() as f64 / (*events).max(1) as f64);
            rows.push(vec![
                label.to_string(),
                file,
                report::count(*events),
                archive.len().to_string(),
                per_event,
            ]);
        }
        let mut manifest = Json::object();
        manifest.insert("format_version", netsim::archive::FORMAT_VERSION as u64);
        manifest.insert("period", c.period.label());
        manifest.insert("scale", c.scale);
        manifest.insert("seed", c.seed);
        manifest.insert("cells", manifest_cells);
        manifest.insert("direct_secs", direct_secs);
        manifest.insert("sim_secs", sim_secs);
        manifest.insert("encode_secs", encode_secs);
        write_json(&format!("{dir}/manifest.json"), &manifest)?;
        eprintln!("# export: {} cells, {total_bytes} bytes archived", archives.len());
        if out.table {
            eprintln!(
                "\n{}",
                report::text_table(&["Scenario", "File", "Events", "Bytes", "B/event"], &rows)
            );
        }
        // stdout is the robustness report of the direct path: byte-identical
        // to `repro scenarios` with the same flags, and what `repro analyze`
        // must reproduce from the archives alone.
        Ok((report.summary_table(), report.to_json()))
    })
}

fn analyze(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let dir: String = a.get("--dir")?;
    let out = Output::parse(a)?;
    let manifest_path = format!("{dir}/manifest.json");
    let text =
        fs::read_to_string(&manifest_path).map_err(failed(format!("read {manifest_path}")))?;
    let manifest = Json::parse(&text).map_err(failed(format!("parse {manifest_path}")))?;
    // A malformed manifest must never degrade into a partial re-analysis.
    let field = |key: &str| {
        manifest
            .get(key)
            .ok_or_else(|| CliError::Runtime(format!("manifest.json is missing the {key:?} field")))
    };
    let format_version = field("format_version")?.as_u64().unwrap_or(0);
    if format_version != netsim::archive::FORMAT_VERSION as u64 {
        return Err(CliError::Runtime(format!(
            "manifest format version {format_version} is not the supported version {}",
            netsim::archive::FORMAT_VERSION
        )));
    }
    let manifest_cells = field("cells")?
        .as_array()
        .ok_or_else(|| CliError::Runtime("manifest.json \"cells\" is not an array".into()))?;
    let direct_secs = field("direct_secs")?.as_f64().unwrap_or(0.0);
    let sim_secs = field("sim_secs")?.as_f64().unwrap_or(0.0);
    let encode_secs = field("encode_secs")?.as_f64().unwrap_or(0.0);
    let header = format!(
        "{} cells from {dir}/ ({} archived at scale {}, seed {})",
        manifest_cells.len(),
        field("period")?.as_str().unwrap_or("?"),
        field("scale")?.as_f64().unwrap_or(f64::NAN),
        field("seed")?.as_u64().unwrap_or(0),
    );

    suite("analyze", header, &out, stdout, || {
        let started = Instant::now();
        let mut archives = Vec::with_capacity(manifest_cells.len());
        for cell in manifest_cells {
            let file = cell.get("file").and_then(Json::as_str).ok_or_else(|| {
                CliError::Runtime("manifest cell is missing the \"file\" field".into())
            })?;
            let path = format!("{dir}/{file}");
            let bytes = fs::read(&path).map_err(failed(format!("read {path}")))?;
            if let Some(expected) = cell.get("checksum").and_then(Json::as_u64) {
                let actual = netsim::archive::fnv1a(&bytes);
                if actual != expected {
                    return Err(CliError::Runtime(format!(
                        "{path} does not match its manifest checksum (expected {expected:016x}, got {actual:016x})"
                    )));
                }
            }
            archives.push(bytes);
        }
        let read_secs = started.elapsed().as_secs_f64();

        let cells = measurement::analyze_suite(&archives, out.threads)
            .map_err(failed("decode archives".into()))?;
        let events: usize = cells.iter().map(|cell| cell.events).sum();
        let archive_bytes: usize = cells.iter().map(|cell| cell.archive_bytes).sum();
        let resident_bytes: usize = cells.iter().map(|cell| cell.resident_bytes).sum();
        let decode_secs: f64 = cells.iter().map(|cell| cell.decode_secs).sum();
        let campaigns: Vec<MeasurementCampaign> =
            cells.into_iter().map(|cell| cell.campaign).collect();
        let report = analysis::robustness_report(&campaigns);
        // Everything between reading the first archive byte and having the
        // report in hand: the quantity the speedup claim is about.
        let reanalyze_secs = started.elapsed().as_secs_f64();

        let per_event = |bytes: usize| bytes as f64 / events.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let throughput = |secs: f64| ratio(archive_bytes as f64, secs) / 1e6;
        let (write_mb, read_mb) = (throughput(encode_secs), throughput(decode_secs));
        let speedup = ratio(direct_secs, reanalyze_secs);
        // Simulation vs archive decode: the cost of re-obtaining the
        // SimulationOutput either way. The ingestion both paths share is
        // excluded, so this is the number that keeps growing with campaign size.
        let output_secs = read_secs + decode_secs;
        let decode_speedup = ratio(sim_secs, output_secs);
        eprintln!(
            "# {events} events from {archive_bytes} archive bytes ({:.1} B/event archived vs {:.1} B/event resident)",
            per_event(archive_bytes),
            per_event(resident_bytes)
        );
        eprintln!(
            "# re-analysis {reanalyze_secs:.3} s vs direct {direct_secs:.3} s -> {speedup:.1}x; \
             decode {output_secs:.3} s vs simulate {sim_secs:.3} s -> {decode_speedup:.1}x \
             (write {write_mb:.1} MB/s, read {read_mb:.1} MB/s)"
        );
        let mut bench = Json::object();
        bench.insert("cells", campaigns.len() as u64);
        bench.insert("events", events as u64);
        bench.insert("archive_bytes", archive_bytes as u64);
        bench.insert("archive_bytes_per_event", per_event(archive_bytes));
        bench.insert("in_memory_bytes", resident_bytes as u64);
        bench.insert("in_memory_bytes_per_event", per_event(resident_bytes));
        bench.insert("write_mb_per_sec", write_mb);
        bench.insert("read_mb_per_sec", read_mb);
        bench.insert("read_secs", read_secs);
        bench.insert("decode_secs", decode_secs);
        bench.insert("reanalyze_secs", reanalyze_secs);
        bench.insert("direct_secs", direct_secs);
        bench.insert("sim_secs", sim_secs);
        bench.insert("reanalyze_speedup", speedup);
        bench.insert("decode_speedup", decode_speedup);
        write_bench(a.bench_file("--bench-out"), bench)?;
        Ok((report.summary_table(), report.to_json()))
    })
}

// ---- serve ------------------------------------------------------------------------

fn serve_listen(a: &Args, _stdout: &mut dyn Write) -> Result<(), CliError> {
    let listen: String = a.get("--listen")?;
    let options = ServeOptions {
        checkpoint_path: a.opt::<String>("--checkpoint")?.map(std::path::PathBuf::from),
        checkpoint_every: a.opt("--checkpoint-every")?,
    };
    let state = match a.opt::<String>("--restore")? {
        Some(path) => {
            let bytes = fs::read(&path).map_err(failed(format!("read checkpoint {path}")))?;
            let state = ServeState::restore(&bytes, analysis::serve_answerer(), options)
                .map_err(failed(format!("restore checkpoint {path}")))?;
            eprintln!(
                "# serve: restored {} tenant(s), {} event(s) from {path}",
                state.tenant_count(),
                state.events_ingested()
            );
            state
        }
        None => ServeState::new(analysis::serve_answerer(), options),
    };
    eprintln!("# serve: listening on {listen}");
    let shared = std::sync::Arc::new(std::sync::Mutex::new(state));
    measurement::serve_unix(std::path::Path::new(&listen), shared)
        .map_err(failed(format!("serve on {listen}")))?;
    eprintln!("# serve: shutdown complete");
    Ok(())
}

/// The campaign feeds `--drive` and `--reference` stream.
fn serve_feeds(a: &Args) -> Result<Vec<ServeFeed>, CliError> {
    let c = Campaigns::parse(a)?;
    let hours: u64 = a.get("--window-hours")?;
    ensure(hours > 0, "--window-hours must be at least 1")?;
    eprintln!("# serve: {c}, {hours} h windows");
    let feeds =
        campaign_feeds(c.period, c.scale, c.seed, SimDuration::from_hours(hours), &c.scenarios);
    eprintln!("# serve: {} feed(s) built", feeds.len());
    Ok(feeds)
}

fn serve_reference(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    print_pretty(stdout, &reference_answers(&serve_feeds(a)?))
}

fn serve_drive(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let sock: String = a.get("--drive")?;
    let options = DriveOptions {
        batch_rows: a.get("--batch-rows")?,
        resume: a.on("--resume"),
        max_batches: a.opt("--max-batches")?,
        shutdown: a.on("--shutdown"),
    };
    ensure(options.batch_rows > 0, "--batch-rows must be at least 1")?;
    let feeds = serve_feeds(a)?;
    let answers = drive(&sock, &feeds, &options)?;
    if options.max_batches.is_some() {
        eprintln!("# serve --drive: partial ingest done (no finish sent)");
        return Ok(());
    }
    print_pretty(stdout, &answers)
}

#[cfg(unix)]
fn drive(sock: &str, feeds: &[ServeFeed], options: &DriveOptions) -> Result<Json, CliError> {
    let mut stream = std::os::unix::net::UnixStream::connect(sock)
        .map_err(failed(format!("connect to {sock}")))?;
    crate::serve::drive_feeds(&mut stream, feeds, options).map_err(failed(format!("drive {sock}")))
}

#[cfg(not(unix))]
fn drive(_sock: &str, _feeds: &[ServeFeed], _options: &DriveOptions) -> Result<Json, CliError> {
    Err(CliError::Runtime("serve --drive requires unix-domain sockets".into()))
}

fn serve_bench(a: &Args, stdout: &mut dyn Write) -> Result<(), CliError> {
    let cfg = ServeBenchConfig {
        tenants: a.get("--tenants")?,
        events_per_tenant: a.get("--events")?,
        batch_rows: a.get("--batch-rows")?,
        queries: a.get("--queries")?,
        seed: a.get("--seed")?,
    };
    let positive = cfg.tenants > 0 && cfg.events_per_tenant > 0 && cfg.batch_rows > 0;
    ensure(positive, "--tenants, --events and --batch-rows must be at least 1")?;
    eprintln!(
        "# serve --bench: {} tenants x {} events, {}-row batches, {} queries",
        cfg.tenants, cfg.events_per_tenant, cfg.batch_rows, cfg.queries
    );
    let report = run_serve_bench(&cfg, |round, rounds| {
        eprintln!("# serve --bench: ingest round {round}/{rounds}")
    });
    eprintln!("# {}", report.summary());
    write_bench(a.bench_file("--out"), report.full_json())?;
    print_pretty(stdout, &report.deterministic_json())
}
