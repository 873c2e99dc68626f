//! Deterministic discrete-event simulation kernel.
//!
//! The paper's evaluation ran on a 34-machine cluster; this crate provides
//! the machinery to reproduce those experiments' *shapes* on one laptop
//! core, deterministically:
//!
//! * [`SimTime`] — a virtual microsecond clock;
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking (the heart of the simulator: the
//!   cluster crate drains it in a loop);
//! * [`Station`] — a `c`-server FIFO service station, used to model CPUs
//!   (the status oracle's critical section), disks (HDFS block reads), and
//!   NICs; queueing delay and saturation knees emerge from it naturally;
//! * [`SimRng`] — a seeded RNG with the distributions the workloads need,
//!   including YCSB's **zipfian** and **latest** generators (Cooper et al.,
//!   SoCC'10), which the paper's §6.5 concurrency experiments are built on;
//! * [`metrics`] — latency histograms with percentiles, and (x, y) series
//!   for the figure harness.
//!
//! Everything is deterministic given a seed: no wall-clock reads, no OS
//! threads, no hash-map iteration order leaks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod event;
pub mod metrics;
mod rng;
mod station;
mod time;
mod zipf;

pub use event::EventQueue;
pub use rng::SimRng;
pub use station::Station;
pub use time::SimTime;
pub use zipf::{LatestGenerator, Zipfian};
