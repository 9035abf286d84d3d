//! Multi-seed campaign sweeps: reproduce Table II's P1-vs-P2 contrast with
//! error bars instead of a single-seed point estimate.
//!
//! ```bash
//! cargo run --release --example sweep
//! ```
//!
//! The paper runs each measurement period once; the sweep subsystem runs a
//! grid of `{period, scale, seed, observer config}` campaigns in parallel and
//! reports cross-seed mean / stddev / 95 % CI for the headline metrics. The
//! same grid always produces byte-identical JSON, whatever the thread count.

use measurement::sweep::{ObserverTweak, SweepGrid, SweepRunner};
use population::MeasurementPeriod;

fn main() {
    // P1 (2k/4k watermarks) against P2 (18k/20k): the paper's core finding is
    // that aggressive trimming manufactures connection churn. Adding a
    // "tight" observer tweak (half the watermarks) extends the experiment
    // beyond the paper's own grid.
    let grid = SweepGrid::new(vec![MeasurementPeriod::P1, MeasurementPeriod::P2])
        .with_scales(vec![0.005])
        .with_seeds((1..=5).collect())
        .with_tweaks(vec![
            ObserverTweak::default(),
            ObserverTweak::limits("tight", 0.5),
        ]);

    println!("running {} campaigns…", grid.cell_count());
    let report = SweepRunner::new().run(&grid);

    println!("\n{}", report.summary_table());

    // The shape the sweep must reproduce: relaxed watermarks (P2) yield far
    // fewer but much longer connections than aggressive ones (P1), and the
    // cross-seed confidence intervals do not overlap.
    let p1 = report
        .aggregates
        .iter()
        .find(|a| a.period == "P1" && a.tweak == "baseline")
        .expect("P1 baseline aggregate");
    let p2 = report
        .aggregates
        .iter()
        .find(|a| a.period == "P2" && a.tweak == "baseline")
        .expect("P2 baseline aggregate");
    println!(
        "P1 vs P2 connections: {:.0}±{:.0} vs {:.0}±{:.0} (ratio {:.1}x)",
        p1.connections.mean,
        p1.connections.ci95,
        p2.connections.mean,
        p2.connections.ci95,
        p1.connections.mean / p2.connections.mean
    );
    println!(
        "P1 vs P2 avg duration: {:.0}±{:.0}s vs {:.0}±{:.0}s",
        p1.conn_avg_secs.mean, p1.conn_avg_secs.ci95, p2.conn_avg_secs.mean, p2.conn_avg_secs.ci95
    );
    assert!(p1.connections.mean > p2.connections.mean);
    assert!(p2.conn_avg_secs.mean > p1.conn_avg_secs.mean);

    // Full JSON export (the `repro sweep` subcommand emits the same schema).
    let json = report.to_json_string_pretty();
    println!("\nJSON report: {} bytes (see `repro sweep --help`)", json.len());
}
