//! `reanalyze`: re-analysis of archived campaigns, with no simulation in
//! the timed phase.
//!
//! Set-up runs `measurement::export_suite` (P4 under all six churn regimes)
//! and keeps the archives, their decoded outputs and the report of the
//! direct path. A round re-encodes every cell (the write side), then decodes
//! every archive, ingests it and rebuilds the robustness report (the read
//! side). Encode next to decode shows a change that moves cost from one side
//! to the other.

use crate::harness::{Checks, Outcome, Workload};
use crate::paper::ingest;
use crate::trace::{Trace, SEGMENT};
use measurement::{export_suite, read_campaign_archive, write_campaign_archive, CampaignMeta};
use netsim::SimulationOutput;
use population::{ChurnScenario, MeasurementPeriod};
use std::time::Instant;

/// Size of the archived suite.
pub struct Reanalyze {
    /// Population scale of the P4 cells.
    pub scale: f64,
}

/// The benchmarked size: about 0.6M archived events over six cells.
pub const FULL: Reanalyze = Reanalyze { scale: 0.01 };

/// One archived cell.
struct Cell {
    meta: CampaignMeta,
    output: SimulationOutput,
    archive: Vec<u8>,
}

/// The exported suite and the direct-path report.
pub struct Input {
    cells: Vec<Cell>,
    direct_report: String,
}

impl Workload for Reanalyze {
    type Input = Input;

    fn setup(&self, seed: u64, trace: &mut Trace) -> Input {
        let exported = trace.span("setup.export_suite", || {
            export_suite(
                MeasurementPeriod::P4,
                self.scale,
                seed,
                &ChurnScenario::all(),
                1,
            )
        });
        let (campaigns, archives): (Vec<_>, Vec<_>) = exported
            .into_iter()
            .map(|cell| (cell.campaign, cell.archive))
            .unzip();
        let direct_report = trace.span("setup.direct_report", || {
            analysis::robustness_report(&campaigns).to_json_string()
        });
        drop(campaigns);
        let cells = trace.span("setup.decode", || {
            archives
                .into_iter()
                .map(|archive| {
                    let decoded = read_campaign_archive(&archive)
                        .expect("an archive export_suite just wrote decodes");
                    Cell {
                        meta: decoded.meta,
                        output: decoded.output,
                        archive,
                    }
                })
                .collect()
        });
        Input {
            cells,
            direct_report,
        }
    }

    fn round(&self, input: &mut Input, trace: &mut Trace, checks: &mut Checks) -> Outcome {
        let mut written = Vec::with_capacity(input.cells.len());
        for cell in &input.cells {
            let segment = trace.begin(SEGMENT);
            let span = trace.begin("netsim.archive.encode");
            let bytes = write_campaign_archive(&cell.meta, &cell.output);
            trace.count(&span, "bytes", bytes.as_ref().map_or(0, Vec::len) as f64);
            trace.end(span);
            trace.end(segment);
            written.push(bytes);
        }
        for (cell, bytes) in input.cells.iter().zip(&written) {
            let label = cell.meta.scenario.churn.label();
            checks.check(bytes.as_ref().is_ok_and(|b| *b == cell.archive), || {
                format!("{label}: the re-encoded archive differs from the exported one")
            });
        }
        drop(written);

        // The read side's pieces, timed once more for `events_per_s`.
        let mut busy = Vec::with_capacity(input.cells.len() + 1);
        let mut campaigns = Vec::with_capacity(input.cells.len());
        let mut events = 0;
        for cell in &input.cells {
            let started = Instant::now();
            let segment = trace.begin(SEGMENT);
            let span = trace.begin("netsim.archive.decode");
            let decoded = read_campaign_archive(&cell.archive);
            let rows = decoded.as_ref().map_or(0, |d| {
                d.output
                    .logs
                    .iter()
                    .map(|log| log.table().len())
                    .sum::<usize>()
            });
            trace.count(&span, "bytes", cell.archive.len() as f64);
            trace.count(&span, "events", rows as f64);
            trace.end(span);
            events += rows as u64;
            if let Ok(decoded) = decoded {
                let meta = decoded.meta;
                campaigns.push(ingest(
                    meta.scenario,
                    meta.ground_truth_participants,
                    meta.duration,
                    decoded.output,
                    trace,
                ));
            }
            trace.end(segment);
            busy.push(started.elapsed().as_secs_f64());
        }
        let started = Instant::now();
        let report = trace.segment("analysis.robustness", || {
            analysis::robustness_report(&campaigns).to_json_string()
        });
        busy.push(started.elapsed().as_secs_f64());
        checks.check(campaigns.len() == input.cells.len(), || {
            "an archive failed to decode".into()
        });
        checks.check(report == input.direct_report, || {
            "the report from the archives differs from the direct path's".into()
        });
        Outcome {
            events,
            busy: Some(busy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_passes_its_checks() {
        crate::tests::assert_passes(&Reanalyze { scale: 0.003 });
    }
}
