//! The region server: request handling, cache, and disk timing model.

use wsi_sim::{SimRng, SimTime, Station};

use crate::cache::RowCache;

/// Region-server timing and sizing parameters.
///
/// Defaults reproduce the paper's §6.2 microbenchmark: a random (cache-miss)
/// read costs 38.8 ms end to end — "the cost of loading an entire block from
/// HDFS" — and a write costs 1.13 ms — "writing into memory and appending
/// into a write-ahead log".
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// RPC handler threads per server.
    pub handlers: usize,
    /// CPU time a handler spends per request.
    pub handler_time: SimTime,
    /// Parallel IO channels to HDFS.
    pub disks: usize,
    /// Service time of one HDFS block load.
    pub disk_read_time: SimTime,
    /// Extra time for a cache-hit read beyond the handler.
    pub cache_hit_time: SimTime,
    /// Memstore append + WAL time for a write, beyond the handler.
    pub write_time: SimTime,
    /// Cache capacity in rows.
    pub cache_rows: usize,
    /// Relative jitter applied to service times.
    pub jitter: f64,
    /// Deferred per-read CPU charged to the handler pool *after* the
    /// response leaves (block decode, checksums, GC pressure — work that
    /// bounds server capacity without appearing in a lone request's
    /// latency). This is how a server whose single-op read latency is
    /// ≈ 1 ms (cache hit) still tops out at a few hundred ops/s, as the
    /// paper's 2006-era dual-core servers do (§6.5: "the cost of processing
    /// messages saturates the data servers").
    pub background_read_cpu: SimTime,
    /// Deferred per-write CPU (WAL sync amortization, memstore flushes,
    /// compaction debt).
    pub background_write_cpu: SimTime,
    /// Deferred per-*insert* CPU: a fresh row grows the memstore and, at
    /// HBase's flush/compaction cadence, is rewritten several times —
    /// write amplification charged here. This is what drags the
    /// zipfianLatest workload below even the uniform one in the paper
    /// (Fig. 9: 361 TPS vs Fig. 6: 391 TPS) despite its cache-friendly
    /// reads.
    pub background_insert_cpu: SimTime,
}

impl ServerConfig {
    /// The paper's measured latencies — 38.8 ms miss reads, 1.13 ms
    /// writes — with capacity calibrated to the 25-server deployment:
    /// dual-core servers (2 handlers), 2 IO channels per server.
    pub fn paper_default() -> Self {
        ServerConfig {
            handlers: 2,
            handler_time: SimTime::from_us(300),
            disks: 3,
            disk_read_time: SimTime::from_ms_f64(38.5),
            cache_hit_time: SimTime::from_us(700),
            write_time: SimTime::from_us(830),
            // Row-granularity caching: with hashed routing a 64-row HFile
            // block's rows scatter over all servers, so block-level entries
            // would dilute 25×. One entry per row with the equivalent byte
            // budget (≈280 K rows ≈ 4 400 64-row blocks) reproduces the
            // steady-state hit rates of HBase's block cache.
            cache_rows: 80_000,
            jitter: 0.10,
            background_read_cpu: SimTime::from_us(4_500),
            background_write_cpu: SimTime::from_ms(3),
            background_insert_cpu: SimTime::from_ms(50),
        }
    }
}

/// Outcome of a timed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// When the response leaves the server.
    pub done: SimTime,
    /// Whether the cache served it.
    pub cache_hit: bool,
}

/// One data server: a range of rows, a row cache, and handler and disk
/// queues.
#[derive(Debug)]
pub struct RegionServer {
    /// Server index within the cluster.
    pub id: usize,
    config: ServerConfig,
    handler: Station,
    disk: Station,
    cache: RowCache,
    rng: SimRng,
}

impl RegionServer {
    /// Creates a server with the given timing model and RNG stream.
    pub fn new(id: usize, config: ServerConfig, rng: SimRng) -> Self {
        RegionServer {
            id,
            handler: Station::new(config.handlers),
            disk: Station::new(config.disks),
            cache: RowCache::new(config.cache_rows),
            rng,
            config,
        }
    }

    /// Times a read of `row` arriving at `now`.
    pub fn read(&mut self, row: u64, now: SimTime) -> ReadOutcome {
        let handler_time = self
            .rng
            .jittered(self.config.handler_time, self.config.jitter);
        let after_handler = self.handler.submit(now, handler_time);
        let hit = self.cache.access(row);
        let outcome = if hit {
            let extra = self
                .rng
                .jittered(self.config.cache_hit_time, self.config.jitter);
            ReadOutcome {
                done: after_handler + extra,
                cache_hit: true,
            }
        } else {
            let io = self
                .rng
                .jittered(self.config.disk_read_time, self.config.jitter);
            ReadOutcome {
                done: self.disk.submit(after_handler, io),
                cache_hit: false,
            }
        };
        // Deferred CPU: capacity accounting. Submitted at arrival time (the
        // station is FIFO in submission order) *after* the response path was
        // timed, so it consumes pool capacity without delaying this response.
        if self.config.background_read_cpu > SimTime::ZERO {
            let bg = self
                .rng
                .jittered(self.config.background_read_cpu, self.config.jitter);
            self.handler.submit(now, bg);
        }
        outcome
    }

    /// Times a write arriving at `now` (memstore append; the cache is
    /// write-through for the row, as a memstore read is a hit).
    /// `insert` marks a write that creates a new row, which additionally
    /// pays the amortized flush/compaction cost.
    pub fn write(&mut self, row: u64, now: SimTime, insert: bool) -> SimTime {
        let handler_time = self
            .rng
            .jittered(self.config.handler_time, self.config.jitter);
        let after_handler = self.handler.submit(now, handler_time);
        self.cache.access(row);
        let extra = self
            .rng
            .jittered(self.config.write_time, self.config.jitter);
        let done = after_handler + extra;
        let bg_base = if insert {
            self.config.background_insert_cpu
        } else {
            self.config.background_write_cpu
        };
        if bg_base > SimTime::ZERO {
            let bg = self.rng.jittered(bg_base, self.config.jitter);
            self.handler.submit(now, bg);
        }
        done
    }

    /// Pre-warms the cache with `row` (steady-state initialization).
    pub fn prewarm(&mut self, row: u64) {
        self.cache.warm(row);
    }

    /// Lifetime cache hit rate.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> RegionServer {
        RegionServer::new(0, ServerConfig::paper_default(), SimRng::new(7))
    }

    #[test]
    fn cold_read_costs_about_38_8_ms() {
        let mut s = server();
        let out = s.read(1, SimTime::ZERO);
        assert!(!out.cache_hit);
        let ms = out.done.as_ms_f64();
        assert!((33.0..45.0).contains(&ms), "cold read took {ms} ms");
    }

    #[test]
    fn warm_read_is_fast() {
        let mut s = server();
        let first = s.read(1, SimTime::ZERO);
        let warm = s.read(1, first.done);
        assert!(warm.cache_hit);
        let ms = (warm.done - first.done).as_ms_f64();
        assert!(ms < 2.0, "warm read took {ms} ms");
    }

    #[test]
    fn write_costs_about_1_13_ms() {
        let mut s = server();
        let done = s.write(1, SimTime::ZERO, false);
        let ms = done.as_ms_f64();
        assert!((0.9..1.4).contains(&ms), "write took {ms} ms");
    }

    #[test]
    fn disk_queueing_kicks_in_under_load() {
        let mut s = server();
        // 30 concurrent cold reads over 3 disk channels: the tail waits
        // ~10 service times.
        let mut last = SimTime::ZERO;
        for row in (0..30u64).map(|i| i * 1000) {
            last = last.max(s.read(row, SimTime::ZERO).done);
        }
        assert!(
            last.as_ms_f64() > 300.0,
            "queueing should stretch the tail: {last}"
        );
    }

    #[test]
    fn a_repeated_read_hits_the_cache() {
        let mut s = server();
        assert!(!s.read(1, SimTime::ZERO).cache_hit);
        assert!(s.read(1, SimTime::from_ms(50)).cache_hit);
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
    }
}
