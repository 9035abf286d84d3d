//! Discrete-event simulation substrate.
//!
//! The paper's measurement study observes a live peer-to-peer network over
//! wall-clock time. This reproduction replaces the live network with a
//! discrete-event simulation; `simclock` provides the three primitives every
//! other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — a millisecond-resolution simulated clock.
//! * [`KeyedEventQueue`] — a deterministic future-event list ordered by
//!   time, then a caller-assigned key (the core of the discrete-event
//!   engine).
//! * [`SimRng`] — a seeded, reproducible random number generator together with
//!   the heavy-tailed distributions used by the churn models.
//! * [`stats`] — summary statistics (mean / median / percentiles), histograms,
//!   CDFs and time series used by the analysis crate.
//!
//! # Example
//!
//! ```
//! use simclock::{KeyedEventQueue, SimDuration, SimTime};
//!
//! let mut queue: KeyedEventQueue<&'static str> = KeyedEventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(30), 0, "snapshot");
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(10), 7, "dial");
//!
//! let (t, _key, ev) = queue.pop().unwrap();
//! assert_eq!(ev, "dial");
//! assert_eq!(t, SimTime::from_secs(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::KeyedEventQueue;
pub use rng::SimRng;
pub use stats::{Cdf, Histogram, Summary, TimeSeries};
pub use time::{SimDuration, SimTime};
