//! Pins the stdout of every documented `repro` command and mode.
//!
//! Each case runs `bench::cli::run` in-process at a reduced size, with a
//! byte buffer as its stdout, and must reproduce its fixture in
//! `tests/golden/cli/` byte for byte. Commands that take `--threads` run
//! at 1 and at 2 threads against the same fixture. At least one case per
//! command leaves the cheap defaults (period, seed, window, vantages)
//! unset, so the defaults are pinned too.
//!
//! The fixtures were recorded with the release `repro` binary, first
//! before the flag table replaced the per-command argument parsers (so
//! they pin that the refactor kept every output), then once more when
//! `Network::run` moved onto the sharded engine (the simulation-backed
//! ones changed then; see `tests/engine_equivalence.rs` for the guard on
//! that switch). To check one against a `repro` binary, run the case's
//! command line (plus `--threads 1` for a threaded case; export's `--dir`
//! is any empty directory):
//!
//! ```bash
//! repro sweep --seeds 2 --scales 0.002 --no-table --threads 1 \
//!     | cmp - tests/golden/cli/sweep.json
//! ```
//!
//! The fixtures are the reference, not the code under test: a change that
//! alters one of them changes `repro`'s output and needs a reason.
//!
//! The file also holds the command-line error probes (exit status 2 with
//! the usage, or 1 for runtime failures), the flag-table checks, the
//! `BENCH_scale.json` merge test and, ignored by default, the check that
//! `repro scale` at 1M peers prints the committed `true_protocol_1000000`
//! row (`cargo test --release --test cli_golden -- --ignored`).

use bench::cli::{self, CliError};
use jsonio::Json;
use std::path::{Path, PathBuf};

/// A case: its fixture, its command line, and whether it takes `--threads`.
type Case = (&'static str, &'static str, bool);

const SCALE: Case = ("scale_full_protocol.json", "scale --peers 5000 --shards 2 --no-file", true);
const SERVE_REFERENCE: Case = (
    "serve_reference.json",
    "serve --reference --scale 0.003 --scenarios baseline,flashcrowd",
    false,
);
/// `export --dir DIR` with these flags; `analyze` and `scenarios` with
/// the same flags must print the same report.
const EXPORT_FLAGS: &str = "--scale 0.003 --scenarios baseline,flashcrowd --no-table";

/// One `#[test]` per case.
macro_rules! golden {
    ($($test:ident => $case:expr;)*) => {$(
        #[test]
        fn $test() {
            let (fixture_name, command_line, threaded): Case = $case;
            check(fixture_name, &words(command_line), threaded);
        }
    )*};
}

golden! {
    harness_prints_every_section => ("harness_scale_0.003.txt", "--scale 0.003", false);
    harness_only_table1 => ("harness_table1.txt", "--only table1", false);
    sweep_report => ("sweep.json", "sweep --seeds 2 --scales 0.002 --no-table", true);
    scenarios_pretty_report => ("scenarios_pretty.json",
        "scenarios --scale 0.003 --scenarios baseline,flashcrowd --no-table --pretty", true);
    vantage_report => ("vantage.json", "vantage --scale 0.003 --no-table", true);
    crawl_report => ("crawl.json",
        "crawl --scale 0.002 --scenarios baseline,poison --no-table --no-file", true);
    stream_report => ("stream.json", "stream --scale 0.003 --no-table", true);
    stream_long_horizon_bench => ("stream_long_horizon.json",
        "stream --long-horizon --horizons 1,2 --bench-scale 0.001 --no-file", false);
    estimators_report => ("estimators.json", "estimators --scale 0.002 --replicates 2 \
        --bootstrap 10 --scenarios baseline --no-table --no-file", true);
    scale_full_protocol => SCALE;
    serve_reference_answers => SERVE_REFERENCE;
    serve_bench => ("serve_bench.json", "serve --bench --tenants 20 --no-file", false);
}

fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|part| part.to_string()).collect()
}

/// Runs a command line in-process; what it wrote to stdout on success.
fn repro(args: &[String]) -> Result<String, CliError> {
    let mut stdout = Vec::new();
    cli::run(args, &mut stdout)?;
    Ok(String::from_utf8(stdout).expect("stdout is UTF-8"))
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A fresh, empty directory under the system temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a temp dir");
    dir
}

/// Runs a command line (at 1 and 2 threads if it takes `--threads`) and
/// compares every stdout with the fixture.
fn check(fixture_name: &str, parts: &[&str], threaded: bool) {
    let expected = fixture(fixture_name);
    let runs: Vec<Vec<&str>> = if threaded {
        ["1", "2"].iter().map(|t| [parts, &["--threads", t][..]].concat()).collect()
    } else {
        vec![parts.to_vec()]
    };
    for run in runs {
        let stdout = repro(&args(&run)).unwrap_or_else(|e| panic!("repro {run:?} failed:\n{e}"));
        assert!(stdout == expected, "repro {run:?} differs from {fixture_name}");
    }
}

#[test]
fn export_then_analyze_and_scenarios_print_the_export_report() {
    for threads in ["1", "2"] {
        let dir = temp_dir(&format!("export-{threads}"));
        let dir = dir.to_str().expect("temp dir is UTF-8");
        let export = [&["export", "--dir", dir][..], &words(EXPORT_FLAGS), &["--threads", threads]];
        check("export.json", &export.concat(), false);
        for analyze_threads in ["1", "2"] {
            let analyze = ["analyze", "--dir", dir, "--no-table", "--no-file", "--threads"];
            check("export.json", &[&analyze[..], &[analyze_threads]].concat(), false);
        }
        std::fs::remove_dir_all(dir).expect("remove the temp dir");
    }
    check("export.json", &[&["scenarios"][..], &words(EXPORT_FLAGS)].concat(), true);
}

#[cfg(unix)]
#[test]
fn serve_drive_against_a_listening_daemon_equals_the_reference() {
    let dir = temp_dir("serve");
    let (sock, checkpoint) = (dir.join("serve.sock"), dir.join("serve.ck"));
    let (sock, checkpoint) = (sock.to_str().unwrap(), checkpoint.to_str().unwrap());
    let listen = ["serve", "--listen", sock, "--checkpoint", checkpoint, "--checkpoint-every", "8"];
    let listen = args(&listen);
    let daemon = std::thread::spawn(move || repro(&listen));
    let started = std::time::Instant::now();
    while !Path::new(sock).exists() {
        assert!(started.elapsed().as_secs() < 30, "the daemon never bound {sock}");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let (fixture_name, reference, _) = SERVE_REFERENCE;
    let drive = [&["serve", "--drive", sock][..], &words(reference)[2..], &["--shutdown"]];
    check(fixture_name, &drive.concat(), false);
    assert_eq!(daemon.join().expect("the daemon thread"), Ok(String::new()));
    assert!(Path::new(checkpoint).exists(), "the daemon wrote checkpoints");
    std::fs::remove_dir_all(&dir).expect("remove the temp dir");
}

// ---- malformed command lines -------------------------------------------------

#[test]
fn malformed_command_lines_exit_2_with_the_usage() {
    let probes = [
        // The paper harness used to ignore these and run at scale 0.02.
        "frobnicate",
        "--scal 0.05",
        "--help",
        "--scale abc",
        "--scale -1",
        "--only tabel2",
        "--seed",
        // The probes the verify notes list for sweep.
        "sweep --periods P9",
        "sweep --tweaks x=abc",
        "sweep --seeds 0",
        "sweep --frobnicate",
        // A missing value, a missing required flag, a missing mode.
        "vantage --period",
        "export",
        "analyze",
        "serve",
        // An unknown flag or a bad value in every other command and mode.
        "scenarios --vantages 3",
        "scale --peers 0",
        "scale --full-protocol",
        "scale --compat-peers 5",
        "stream --window-hours 0",
        "stream --long-horizon --period P4",
        "estimators --replicates 0",
        "crawl --scenarios sybil,frob",
        "export --dir unused --bench-out x",
        "serve --listen unused --period P4",
        "serve --drive unused --batch-rows 0",
        "serve --reference --tenants 5",
        "serve --bench --tenants x",
    ];
    for probe in probes {
        match repro(&args(&words(probe))) {
            Err(error @ CliError::Usage(_)) => {
                assert_eq!(error.exit_code(), 2);
                assert!(
                    error.to_string().contains("\nusage: repro"),
                    "{probe}: no usage:\n{error}"
                );
            }
            other => panic!("repro {probe} must be a usage error, got {other:?}"),
        }
    }
}

#[test]
fn runtime_failures_exit_1() {
    let error = repro(&args(&["analyze", "--dir", "/nonexistent"])).unwrap_err();
    assert!(matches!(error, CliError::Runtime(_)), "{error:?}");
    assert_eq!(error.exit_code(), 1);
    // A feed this long needs more 15-minute panes than the daemon admits:
    // it refuses the hello, and the bench reports why.
    let bench = "serve --bench --tenants 1 --events 1000000 --queries 1 --no-file";
    let error = repro(&args(&words(bench))).unwrap_err();
    assert!(matches!(error, CliError::Runtime(_)), "{error:?}");
    assert_eq!(error.exit_code(), 1);
    assert!(error.to_string().contains("refused the hello"), "{error}");
}

// ---- the flag table ------------------------------------------------------------

/// The flags of one mode (`"repro serve --bench"`) with their defaults, as
/// its usage text lists them.
fn usage_flags(heading: &str) -> Vec<(String, Option<String>)> {
    let command = heading.split(' ').nth(1).unwrap_or("");
    let usage = cli::usage(command);
    let mut lines = usage.lines().skip_while(|line| *line != format!("usage: {heading} [flags]"));
    assert!(lines.next().is_some(), "usage of {command:?} has no {heading:?} mode");
    let parse = |flag: &str| {
        let default = flag.rsplit_once("(default: ").map(|(_, d)| d.trim_end_matches(')'));
        (words(flag)[0].to_string(), default.map(str::to_string))
    };
    lines.skip(1).map_while(|line| line.strip_prefix("    ")).map(parse).collect()
}

#[test]
fn every_mode_accepts_exactly_the_flags_it_always_did() {
    let suite = "--period --scale --seed --threads --pretty --no-table";
    let feeds = "--period --scale --seed --window-hours --scenarios";
    let expected = [
        ("repro", "--scale --seed --only".to_string()),
        (
            "repro sweep",
            "--periods --scales --seeds --seed-list --tweaks --scenarios --vantages --base-seed \
             --threads --pretty --no-table"
                .into(),
        ),
        ("repro scenarios", format!("{suite} --scenarios")),
        ("repro vantage", format!("{suite} --vantages --scenarios")),
        (
            "repro scale",
            "--peers --shards --threads --duration-mins --seed --out --no-file --epoch-secs \
             --tp-observers"
                .into(),
        ),
        ("repro stream", format!("{suite} --window-hours --vantages --scenarios")),
        (
            "repro stream --long-horizon",
            "--long-horizon --horizons --bench-scale --window-hours --seed --out --no-file".into(),
        ),
        (
            "repro estimators",
            format!("{suite} --vantages --replicates --bootstrap --window-hours --scenarios --out --no-file"),
        ),
        ("repro crawl", format!("{suite} --scenarios --out --no-file")),
        ("repro export", format!("--dir {suite} --scenarios")),
        ("repro analyze", "--dir --threads --pretty --no-table --bench-out --no-file".into()),
        ("repro serve --listen", "--listen --checkpoint --checkpoint-every --restore".into()),
        ("repro serve --drive", format!("--drive {feeds} --batch-rows --resume --max-batches --shutdown")),
        ("repro serve --reference", format!("--reference {feeds}")),
        (
            "repro serve --bench",
            "--bench --tenants --events --batch-rows --queries --seed --out --no-file".into(),
        ),
    ];
    for (heading, flags) in &expected {
        let listed: Vec<String> = usage_flags(heading).into_iter().map(|(name, _)| name).collect();
        assert_eq!(listed, words(flags), "{heading}");
    }
    let commands = ["", "sweep", "scenarios", "vantage", "scale", "stream", "estimators"];
    let modes = [&commands[..], &["crawl", "export", "analyze", "serve"]].concat();
    let modes: usize = modes.iter().map(|c| cli::usage(c).matches("usage:").count()).sum();
    assert_eq!(modes, expected.len(), "no mode beyond the ones above");
}

#[test]
fn table_defaults_are_the_ones_the_commands_always_used() {
    use bench::{estimators, scale, serve, stream};
    use population::ChurnScenario;

    let scale = scale::TrueProtocolConfig::default();
    let stream = stream::StreamBenchConfig::default();
    let estimators = estimators::EstimatorsBenchConfig::default();
    let serve = serve::ServeBenchConfig::default();
    let labels =
        |list: &[ChurnScenario]| list.iter().map(|s| s.label()).collect::<Vec<_>>().join(",");
    let crawl = [vec![ChurnScenario::Baseline], ChurnScenario::adversaries()].concat();
    let horizons = stream.horizons_days.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    let hours = |d: simclock::SimDuration| (d.as_secs() / 3600).to_string();
    let base_seed = measurement::sweep::SweepGrid::new(vec![]).base_seed;
    let expected: Vec<(&str, &str, String)> = vec![
        ("repro", "--scale", "0.02".into()),
        ("repro", "--seed", "1975".into()),
        ("repro sweep", "--periods", "P1,P2".into()),
        ("repro sweep", "--scales", "0.01".into()),
        ("repro sweep", "--seeds", "8".into()),
        ("repro sweep", "--base-seed", base_seed.to_string()),
        ("repro scenarios", "--scenarios", labels(&ChurnScenario::all())),
        ("repro export", "--scenarios", labels(&ChurnScenario::all())),
        ("repro crawl", "--scenarios", labels(&crawl)),
        ("repro crawl", "--out", "BENCH_crawl.json".into()),
        ("repro scale", "--peers", scale.peers.to_string()),
        ("repro scale", "--shards", scale.shards.to_string()),
        ("repro scale", "--duration-mins", (scale.duration.as_secs() / 60).to_string()),
        ("repro scale", "--seed", scale.seed.to_string()),
        ("repro scale", "--epoch-secs", scale.epoch.as_secs().to_string()),
        ("repro scale", "--tp-observers", scale.observers.to_string()),
        ("repro scale", "--out", "BENCH_scale.json".into()),
        ("repro stream --long-horizon", "--horizons", horizons),
        ("repro stream --long-horizon", "--bench-scale", stream.scale.to_string()),
        ("repro stream --long-horizon", "--seed", stream.seed.to_string()),
        ("repro stream --long-horizon", "--window-hours", hours(stream.window)),
        ("repro stream --long-horizon", "--out", "BENCH_stream.json".into()),
        ("repro estimators", "--period", estimators.period.label().into()),
        ("repro estimators", "--scale", estimators.scale.to_string()),
        ("repro estimators", "--seed", estimators.seed.to_string()),
        ("repro estimators", "--vantages", estimators.vantages.to_string()),
        ("repro estimators", "--replicates", estimators.replicates.to_string()),
        ("repro estimators", "--bootstrap", estimators.bootstrap.to_string()),
        ("repro estimators", "--window-hours", hours(estimators.window)),
        ("repro estimators", "--scenarios", labels(&estimators.scenarios)),
        ("repro estimators", "--out", "BENCH_estimators.json".into()),
        ("repro analyze", "--bench-out", "BENCH_archive.json".into()),
        ("repro serve --bench", "--tenants", serve.tenants.to_string()),
        ("repro serve --bench", "--events", serve.events_per_tenant.to_string()),
        ("repro serve --bench", "--batch-rows", serve.batch_rows.to_string()),
        ("repro serve --bench", "--queries", serve.queries.to_string()),
        ("repro serve --bench", "--seed", serve.seed.to_string()),
        ("repro serve --bench", "--out", "BENCH_serve.json".into()),
        ("repro serve --drive", "--batch-rows", "512".into()),
    ];
    for (heading, flag, value) in expected {
        let flags = usage_flags(heading);
        let default = flags.iter().find(|(name, _)| name == flag).and_then(|(_, d)| d.as_deref());
        assert_eq!(default, Some(value.as_str()), "{heading} {flag}");
    }
}

// ---- BENCH_scale.json merging ----------------------------------------------------

/// The committed `BENCH_scale.json`.
fn committed_scale_report() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_scale.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCH_scale.json")).expect("it parses")
}

fn without(doc: &Json, key: &str) -> Json {
    let Json::Object(entries) = doc else { panic!("an object") };
    Json::Object(entries.iter().filter(|(k, _)| k != key).cloned().collect())
}

fn sorted_keys(doc: &Json) -> Vec<&str> {
    let mut keys: Vec<&str> =
        doc.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    keys.sort();
    keys
}

/// Setting the 1M row keeps every other key of the file as it was. The
/// name dates from when the file's top level also held the report of a
/// second scale mode; the check covers whatever else the file holds.
#[test]
fn merging_a_1m_row_keeps_the_classic_report_and_the_10m_row() {
    let committed = committed_scale_report();
    let row = committed.get("true_protocol_1000000").expect("the committed 1M row").clone();
    assert!(committed.get("true_protocol_10000000").is_some(), "the committed 10M row");
    let dir = temp_dir("merge-1m");
    let path = dir.join("BENCH_scale.json");
    std::fs::write(&path, without(&committed, "true_protocol_1000000").to_string_pretty()).unwrap();
    let mut merged = cli::read_bench(path.to_str().unwrap()).expect("read the file");
    merged.insert("true_protocol_1000000", row);
    assert_eq!(sorted_keys(&merged), sorted_keys(&committed));
    for key in sorted_keys(&committed) {
        assert_eq!(merged.get(key), committed.get(key), "{key}");
    }

    std::fs::write(&path, "{\"peers\": 1, \"peers\": 2}").unwrap();
    let error = cli::read_bench(path.to_str().unwrap()).unwrap_err();
    assert_eq!(error.exit_code(), 1, "{error}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `repro scale` at the default 1M peers, on 2 threads, prints the
/// committed `true_protocol_1000000` row minus its timing fields. Ignored by
/// default: it needs about 1 GB and, in a release build, about 10 s.
#[test]
#[ignore = "1M peers; run with `cargo test --release --test cli_golden -- --ignored`"]
fn scale_at_1m_peers_prints_the_committed_row() {
    let committed = committed_scale_report();
    let row = committed.get("true_protocol_1000000").expect("the committed 1M row");
    let expected = ["wall_secs", "events_per_sec", "threads"]
        .iter()
        .fold(row.clone(), |row, timing| without(&row, timing));
    let line = "scale --threads 2 --no-file";
    let stdout = repro(&args(&words(line))).unwrap_or_else(|e| panic!("repro {line} failed:\n{e}"));
    assert_eq!(Json::parse(&stdout).expect("stdout is JSON"), expected);
}

/// Two `repro scale` runs into one file: each sets its own row and leaves
/// every other row as it was. The name dates from when the two runs were
/// the two scale modes; both now go through the one sharded engine, at
/// two population sizes.
#[test]
fn both_scale_modes_merge_their_rows_into_the_bench_file() {
    let committed = committed_scale_report();
    let dir = temp_dir("merge-modes");
    let path = dir.join("BENCH_scale.json");
    let out = path.to_str().unwrap();
    std::fs::write(&path, committed.to_string_pretty()).unwrap();
    let with_out =
        |command_line: &str| command_line.replace("--no-file", &format!("--out {out} --threads 1"));
    let merged =
        || Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("the merged file parses");

    let (fixture_name, command_line, _) = SCALE;
    let line = with_out(command_line);
    check(fixture_name, &words(&line), false);
    let after_first = merged();
    assert_eq!(without(&after_first, "true_protocol_5000"), committed, "other rows are untouched");
    let row = after_first.get("true_protocol_5000").expect("the new row");
    assert_eq!(row.get("peers"), Some(&Json::UInt(5000)));

    let second = with_out("scale --peers 2000 --shards 2 --no-file");
    repro(&args(&words(&second))).unwrap_or_else(|e| panic!("repro {second} failed:\n{e}"));
    let after_second = merged();
    let others = without(&after_second, "true_protocol_2000");
    assert_eq!(others, after_first, "the first run's row survives the second");
    let row = after_second.get("true_protocol_2000").expect("the second row");
    assert_eq!(row.get("peers"), Some(&Json::UInt(2000)));

    // A file that cannot be merged into fails before the run.
    std::fs::write(&path, "{\"peers\": 1, \"peers\": 2}").unwrap();
    let error = repro(&args(&words(&line))).unwrap_err();
    assert_eq!(error.exit_code(), 1, "{error}");
    std::fs::remove_dir_all(&dir).unwrap();
}
