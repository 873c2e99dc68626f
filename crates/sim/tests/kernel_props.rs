//! Property tests of the simulation kernel's invariants.

use proptest::prelude::*;
use wsi_sim::{EventQueue, SimRng, SimTime, Station, Zipfian};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events pop in nondecreasing time order regardless of insertion order,
    /// and same-time events pop in insertion order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        delays in prop::collection::vec(0u64..1000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &d) in delays.iter().enumerate() {
            q.schedule(SimTime(d), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut last_seq_at_time: Option<usize> = None;
        while let Some((t, i)) = q.pop() {
            prop_assert!(t >= last_time);
            if t == last_time {
                if let Some(prev) = last_seq_at_time {
                    prop_assert!(
                        delays[prev] != delays[i] || prev < i,
                        "same-time events must pop in schedule order"
                    );
                }
            } else {
                last_time = t;
            }
            last_seq_at_time = Some(i);
        }
    }

    /// A station never completes a job before `arrival + service`, and a
    /// single-server station's completions are totally ordered.
    #[test]
    fn station_respects_service_demands(
        jobs in prop::collection::vec((0u64..10_000, 1u64..500), 1..100),
        servers in 1usize..4,
    ) {
        let mut sorted = jobs.clone();
        sorted.sort_unstable();
        let mut station = Station::new(servers);
        let mut prev_done = SimTime::ZERO;
        for &(arrive, service) in &sorted {
            let done = station.submit(SimTime(arrive), SimTime(service));
            prop_assert!(done >= SimTime(arrive + service));
            if servers == 1 {
                prop_assert!(done >= prev_done, "single server is FIFO");
                prev_done = done;
            }
        }
        // Conservation: total busy time equals the sum of service demands,
        // so over exactly that span each of the servers is 1/servers busy.
        let total: u64 = sorted.iter().map(|&(_, s)| s).sum();
        let utilization = station.utilization(SimTime(total));
        prop_assert!((utilization * servers as f64 - 1.0).abs() < 1e-9);
    }

    /// Zipfian draws stay in bounds and rank popularity is monotone for the
    /// head of the distribution.
    #[test]
    fn zipfian_bounds_and_head_monotonicity(
        items in 10u64..10_000,
        seed in any::<u64>(),
    ) {
        let mut z = Zipfian::new(items);
        let mut rng = SimRng::new(seed);
        let mut counts = [0u32; 3];
        for _ in 0..3_000 {
            let v = z.next(&mut rng);
            prop_assert!(v < items);
            if (v as usize) < counts.len() {
                counts[v as usize] += 1;
            }
        }
        // Rank 0 should beat rank 2 by a comfortable margin in 3000 draws.
        prop_assert!(
            counts[0] + 20 >= counts[2],
            "rank0 {} rank2 {}",
            counts[0],
            counts[2]
        );
    }

    /// Forked RNG streams are reproducible and independent of sibling order.
    #[test]
    fn rng_forks_are_order_independent(seed in any::<u64>(), a in 0u64..512, b in 0u64..512) {
        prop_assume!(a != b);
        let root = SimRng::new(seed);
        let mut fork_a_first = root.fork(a);
        let _ = root.fork(b);
        let mut fork_a_second = SimRng::new(seed).fork(a);
        for _ in 0..16 {
            prop_assert_eq!(fork_a_first.below(1 << 30), fork_a_second.below(1 << 30));
        }
    }

    /// Exponential samples are nonnegative and the mean is in the right
    /// ballpark for a large sample.
    #[test]
    fn exponential_sanity(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let mean = SimTime::from_ms(4);
        let n = 4_000u64;
        let total: u64 = (0..n).map(|_| rng.exponential(mean).as_us()).sum();
        let observed = total as f64 / n as f64;
        prop_assert!((2_500.0..6_000.0).contains(&observed), "mean {observed}");
    }
}
