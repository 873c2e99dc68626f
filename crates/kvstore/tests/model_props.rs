//! Property tests of the data-tier model: routing coverage, cache behavior
//! against a reference LRU, and timing causality.

use proptest::prelude::*;
use wsi_kvstore::{DataCluster, Routing, RowCache, ServerConfig};
use wsi_sim::SimRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every row routes to exactly one in-range server, under both policies.
    #[test]
    fn routing_is_total_and_in_range(
        servers in 1usize..40,
        rows in 1u64..100_000,
        samples in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        for routing in [Routing::Range, Routing::Hash] {
            let c = DataCluster::with_routing(
                servers,
                rows,
                ServerConfig::paper_default(),
                &SimRng::new(1),
                routing,
            );
            for &s in &samples {
                let region = c.region_for(s % (rows * 2)); // incl. out-of-range
                prop_assert!(region.0 < servers);
            }
        }
    }

    /// The row cache agrees with a straightforward reference LRU.
    #[test]
    fn cache_matches_reference_lru(
        capacity in 1usize..16,
        accesses in prop::collection::vec(0u64..32, 1..200),
    ) {
        let mut cache = RowCache::new(capacity);
        let mut reference: Vec<u64> = Vec::new(); // most recent at the back
        for &row in &accesses {
            let expect_hit = reference.contains(&row);
            let hit = cache.access(row);
            prop_assert_eq!(hit, expect_hit, "row {}", row);
            reference.retain(|&b| b != row);
            reference.push(row);
            if reference.len() > capacity {
                reference.remove(0);
            }
        }
        prop_assert_eq!(cache.len(), reference.len());
    }

    /// Reads and writes never complete before their arrival, and timing is
    /// deterministic for equal seeds.
    #[test]
    fn server_timing_is_causal_and_deterministic(
        ops in prop::collection::vec((any::<bool>(), 0u64..1000, 0u64..50_000), 1..60,),
    ) {
        let run = || {
            let mut c = DataCluster::new(
                4,
                1000,
                ServerConfig::paper_default(),
                &SimRng::new(9),
            );
            let mut sorted = ops.clone();
            sorted.sort_by_key(|&(_, _, t)| t);
            let mut outs = Vec::new();
            for &(is_read, row, at) in &sorted {
                let now = wsi_sim::SimTime(at);
                let done = if is_read {
                    c.read(row, now).done
                } else {
                    c.write(row, now, false)
                };
                assert!(done >= now);
                outs.push(done);
            }
            outs
        };
        prop_assert_eq!(run(), run());
    }
}
