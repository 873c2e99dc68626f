//! FIFO service stations: the queueing building block.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A `c`-server FIFO queueing station.
///
/// Jobs are submitted with their service demand; the station returns the
/// completion time, accounting for waiting until one of the `c` servers is
/// free. This models every congestible resource in the cluster simulation —
/// the status oracle's single-threaded critical section (`c = 1`, §6.3),
/// a region server's disks and request handlers, the WAL ensemble — and
/// produces the latency-vs-throughput hockey sticks of Figures 5–9 from
/// first principles.
///
/// # Example
///
/// ```
/// use wsi_sim::{SimTime, Station};
///
/// let mut disk = Station::new(1);
/// // Two 10 ms reads arriving together: the second queues behind the first.
/// let d1 = disk.submit(SimTime::ZERO, SimTime::from_ms(10));
/// let d2 = disk.submit(SimTime::ZERO, SimTime::from_ms(10));
/// assert_eq!(d1, SimTime::from_ms(10));
/// assert_eq!(d2, SimTime::from_ms(20));
/// ```
#[derive(Debug, Clone)]
pub struct Station {
    /// `free_at` times of the `c` servers (min-heap: earliest-free first).
    servers: BinaryHeap<Reverse<SimTime>>,
    busy_time: SimTime,
}

impl Station {
    /// Creates a station with `servers` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a station needs at least one server");
        Station {
            servers: (0..servers).map(|_| Reverse(SimTime::ZERO)).collect(),
            busy_time: SimTime::ZERO,
        }
    }

    /// Submits a job arriving at `now` demanding `service` time; returns its
    /// completion time.
    pub fn submit(&mut self, now: SimTime, service: SimTime) -> SimTime {
        let Reverse(free_at) = self.servers.pop().expect("at least one server");
        let start = now.max(free_at);
        let done = start + service;
        self.servers.push(Reverse(done));
        self.busy_time += service;
        done
    }

    /// Mean utilization over `elapsed` of the station's aggregate capacity.
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        let capacity = elapsed.as_us() as f64 * self.servers.len() as f64;
        (self.busy_time.as_us() as f64 / capacity).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serializes_jobs() {
        let mut s = Station::new(1);
        assert_eq!(s.submit(SimTime(0), SimTime(5)), SimTime(5));
        assert_eq!(s.submit(SimTime(0), SimTime(5)), SimTime(10));
        assert_eq!(s.submit(SimTime(20), SimTime(5)), SimTime(25)); // idle gap
        assert_eq!(s.busy_time, SimTime(15)); // the idle gap is not service
    }

    #[test]
    fn parallel_servers_run_concurrently() {
        let mut s = Station::new(2);
        assert_eq!(s.submit(SimTime(0), SimTime(10)), SimTime(10));
        assert_eq!(s.submit(SimTime(0), SimTime(10)), SimTime(10));
        assert_eq!(s.submit(SimTime(0), SimTime(10)), SimTime(20)); // third queues
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut s = Station::new(1);
        for _ in 0..10 {
            s.submit(SimTime(0), SimTime(100));
        }
        assert!((s.utilization(SimTime(500)) - 1.0).abs() < 1e-12);
        assert!((s.utilization(SimTime(2000)) - 0.5).abs() < 1e-12);
        assert_eq!(Station::new(1).utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = Station::new(0);
    }
}
