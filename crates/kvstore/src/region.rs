//! Region routing: consecutive row ranges mapped to data servers.

use wsi_sim::{SimRng, SimTime};

use crate::server::{ReadOutcome, RegionServer, ServerConfig};

/// Identifier of a region (and, with one region per server, of its server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// How row identifiers map to regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// HBase-native: consecutive row ranges per region. Under the *latest*
    /// distribution this concentrates all fresh traffic on the tail region —
    /// the classic HBase sequential-key hotspot.
    Range,
    /// YCSB-style hashed keys: rows scatter uniformly over regions. This is
    /// what the paper's YCSB workload produces (YCSB key order is hashed),
    /// and the default for the figure experiments.
    Hash,
}

/// The data tier: a table range-partitioned over region servers.
///
/// "It splits groups of consecutive rows of a table into multiple regions,
/// and each region is maintained by a single data server" (§6). Rows
/// `[0, total_rows)` are split evenly; clients route by row id, exactly like
/// an HBase client routes by key through region metadata.
#[derive(Debug)]
pub struct DataCluster {
    servers: Vec<RegionServer>,
    total_rows: u64,
    routing: Routing,
}

impl DataCluster {
    /// Creates `servers` region servers covering `total_rows` rows with
    /// hashed routing (the YCSB default).
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `total_rows == 0`.
    pub fn new(servers: usize, total_rows: u64, config: ServerConfig, rng: &SimRng) -> Self {
        Self::with_routing(servers, total_rows, config, rng, Routing::Hash)
    }

    /// Creates a cluster with an explicit routing policy.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `total_rows == 0`.
    pub fn with_routing(
        servers: usize,
        total_rows: u64,
        config: ServerConfig,
        rng: &SimRng,
        routing: Routing,
    ) -> Self {
        assert!(servers > 0 && total_rows > 0);
        DataCluster {
            servers: (0..servers)
                .map(|id| RegionServer::new(id, config, rng.fork(1000 + id as u64)))
                .collect(),
            total_rows,
            routing,
        }
    }

    /// The region (= server) responsible for `row`.
    pub fn region_for(&self, row: u64) -> RegionId {
        match self.routing {
            Routing::Range => {
                let row = row.min(self.total_rows - 1);
                RegionId(
                    ((row as u128 * self.servers.len() as u128) / self.total_rows.max(1) as u128)
                        as usize,
                )
            }
            Routing::Hash => {
                // SplitMix64 scatter: uniform server assignment per row.
                let mut z = row.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                RegionId(((z ^ (z >> 31)) % self.servers.len() as u64) as usize)
            }
        }
    }

    /// Times a read of `row` arriving at `now`.
    pub fn read(&mut self, row: u64, now: SimTime) -> ReadOutcome {
        let RegionId(idx) = self.region_for(row);
        self.servers[idx].read(row, now)
    }

    /// Times a write of `row` arriving at `now`; `insert` marks a
    /// new-row write (pays the amortized compaction cost).
    pub fn write(&mut self, row: u64, now: SimTime, insert: bool) -> SimTime {
        let RegionId(idx) = self.region_for(row);
        self.servers[idx].write(row, now, insert)
    }

    /// Pre-warms every server's cache with the given rows, in priority
    /// order (most valuable first): models the steady-state cache contents
    /// of a long-running deployment without simulating hours of warm-up.
    pub fn prewarm<I: IntoIterator<Item = u64>>(&mut self, rows: I) {
        for row in rows {
            let RegionId(idx) = self.region_for(row);
            self.servers[idx].prewarm(row);
        }
    }

    /// Mean cache hit rate across servers.
    pub fn mean_cache_hit_rate(&self) -> f64 {
        let sum: f64 = self.servers.iter().map(RegionServer::cache_hit_rate).sum();
        sum / self.servers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(servers: usize, rows: u64) -> DataCluster {
        DataCluster::new(
            servers,
            rows,
            ServerConfig::paper_default(),
            &SimRng::new(3),
        )
    }

    fn range_cluster(servers: usize, rows: u64) -> DataCluster {
        DataCluster::with_routing(
            servers,
            rows,
            ServerConfig::paper_default(),
            &SimRng::new(3),
            Routing::Range,
        )
    }

    #[test]
    fn range_routing_is_balanced_and_contiguous() {
        let c = range_cluster(25, 1000);
        let mut counts = [0u64; 25];
        let mut last = 0usize;
        for row in 0..1000 {
            let RegionId(idx) = c.region_for(row);
            assert!(idx >= last, "regions cover consecutive rows");
            last = idx;
            counts[idx] += 1;
        }
        assert!(counts.iter().all(|&c| c == 40));
    }

    #[test]
    fn range_routing_clamps_out_of_range_rows() {
        let c = range_cluster(4, 100);
        assert_eq!(c.region_for(99), RegionId(3));
        assert_eq!(c.region_for(10_000), RegionId(3));
    }

    #[test]
    fn hash_routing_scatters_consecutive_rows() {
        let c = cluster(25, 100_000);
        let mut counts = vec![0u64; 25];
        for row in 0..10_000 {
            counts[c.region_for(row).0] += 1;
        }
        // Roughly balanced (10 000 rows over 25 servers ⇒ 400 ± noise)...
        assert!(
            counts.iter().all(|&n| (250..600).contains(&n)),
            "{counts:?}"
        );
        // ...and consecutive rows land on different servers: the tail of a
        // growing key space does not hotspot one region.
        let tail: std::collections::HashSet<usize> =
            (99_900..100_000).map(|r| c.region_for(r).0).collect();
        assert!(
            tail.len() > 10,
            "tail rows spread over {} servers",
            tail.len()
        );
    }

    #[test]
    fn uniform_load_spreads_over_servers() {
        let c = cluster(5, 1000);
        let mut rng = SimRng::new(1);
        let mut reads = [0u32; 5];
        for _ in 0..500 {
            let RegionId(idx) = c.region_for(rng.below(1000));
            reads[idx] += 1;
        }
        assert!(reads.iter().all(|&n| n > 50), "a server starved: {reads:?}");
    }
}
