//! The `repro` command line and the harnesses behind its subcommands.
//!
//! [`cli`] holds the flag table and every command body; [`scale`],
//! [`stream`], [`estimators`] and [`serve`] are the harnesses those
//! commands run and the BENCH files they write. Timing lives in the
//! separate `benchmark/` crate, which reuses the `scale` and `serve`
//! fixtures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod estimators;
pub mod scale;
pub mod serve;
pub mod stream;

/// Rounds to two decimals, the precision of the BENCH report numbers.
fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}
