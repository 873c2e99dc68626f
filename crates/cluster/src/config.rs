//! Cluster-experiment configuration.

use wsi_core::IsolationLevel;

use wsi_kvstore::{Routing, ServerConfig};
use wsi_oracle::OracleConfig;
use wsi_sim::SimTime;
use wsi_workload::{KeyDistribution, Mix, WorkloadSpec};

/// Where readers obtain the commit timestamps that resolve version
/// visibility (§2.2, Appendix A: "a read-only copy of the commit timestamps
/// could be maintained in (i) data servers, beside the actual data, or
/// (ii) the clients").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitInfo {
    /// Replicated on the clients — the configuration the paper evaluates.
    /// Reads resolve locally; the oracle ships its commit stream to clients
    /// out of band (not a per-read cost).
    ClientReplica,
    /// No replica anywhere: every read of a versioned row asks the status
    /// oracle for the writer's status — an extra round trip per read and
    /// extra load on the oracle ("to reduce the load of performing this
    /// check on the status oracle", Appendix A, is why the paper avoids it).
    QueryOracle,
    /// Written back into the data servers beside the data: reads resolve at
    /// the server, but every commit triggers one extra server write per
    /// modified row to stamp the commit timestamp.
    WriteBack,
}

/// Everything one simulated experiment run needs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// RNG seed; runs with equal seeds are bit-identical.
    pub seed: u64,
    /// Number of client machines.
    pub clients: usize,
    /// Outstanding transactions per client: 1 for the closed-loop HBase
    /// experiments (§6.4: "the client runs one transaction at a time"),
    /// 100 for the oracle stress test (§6.3).
    pub outstanding_per_client: usize,
    /// Whether transactions execute a data phase against the region servers
    /// (`false` reproduces §6.3's "execution time of zero").
    pub data_phase: bool,
    /// Region-server count (the paper deploys 25).
    pub servers: usize,
    /// Workload shape.
    pub workload: WorkloadSpec,
    /// One-way client↔server network latency.
    pub one_way_net: SimTime,
    /// Region routing policy.
    pub routing: Routing,
    /// Pre-warm block caches to their steady state before the run (§6.5
    /// experiments); disable to measure a cold cluster (§6.2 microbench).
    pub prewarm: bool,
    /// Commit-timestamp deployment (§2.2): where readers resolve visibility.
    pub commit_info: CommitInfo,
    /// Warm-up time excluded from measurement.
    pub warmup: SimTime,
    /// Measurement window.
    pub measure: SimTime,
    /// Region-server timing model.
    pub server: ServerConfig,
    /// Status-oracle model.
    pub oracle: OracleConfig,
}

impl ClusterConfig {
    /// The §6.3 status-oracle stress configuration: `clients` clients with
    /// 100 outstanding zero-execution-time complex transactions over 20 M
    /// rows.
    pub fn fig5(level: IsolationLevel, clients: usize, seed: u64) -> Self {
        ClusterConfig {
            seed,
            clients,
            outstanding_per_client: 100,
            data_phase: false,
            servers: 25,
            workload: WorkloadSpec {
                distribution: KeyDistribution::Uniform,
                mix: Mix::Complex,
                ..WorkloadSpec::paper_default()
            },
            one_way_net: SimTime::from_us(80),
            routing: Routing::Hash,
            prewarm: false, // no data phase: nothing to warm
            commit_info: CommitInfo::ClientReplica,
            warmup: SimTime::from_secs(1),
            measure: SimTime::from_secs(2),
            server: ServerConfig::paper_default(),
            oracle: OracleConfig::paper_default(level),
        }
    }

    /// The §6.4–6.5 HBase configurations: closed-loop clients, full data
    /// phase, 25 servers, the requested distribution and mix.
    pub fn hbase(
        level: IsolationLevel,
        clients: usize,
        distribution: KeyDistribution,
        mix: Mix,
        seed: u64,
    ) -> Self {
        ClusterConfig {
            seed,
            clients,
            outstanding_per_client: 1,
            data_phase: true,
            servers: 25,
            workload: WorkloadSpec {
                distribution,
                mix,
                ..WorkloadSpec::paper_default()
            },
            one_way_net: SimTime::from_us(80),
            routing: Routing::Hash,
            prewarm: true,
            commit_info: CommitInfo::ClientReplica,
            warmup: SimTime::from_secs(40),
            measure: SimTime::from_secs(40),
            server: ServerConfig::paper_default(),
            oracle: OracleConfig::paper_default(level),
        }
    }
}
