//! Multi-server extension of the cost model.
//!
//! The paper evaluates a single server ("the open-sourced DLRM and TBSM
//! models do not support multi-server implementations. However, even in a
//! multi-server scenario, we expect our insights to hold true", §IV-A3).
//! This module tests that expectation in the model: N nodes of the paper
//! server, joined by a datacenter network, running hierarchical
//! all-reduce (intra-node ring over NVLink, inter-node ring over the
//! network). Cross-node links are 10–100× slower than NVLink, so the
//! baseline — which must also move embedding activations/gradients
//! between every node's CPU and its GPUs — falls further behind, while
//! FAE's hot path only adds the (slower) gradient all-reduce.

use serde::{Deserialize, Serialize};

use crate::collective::ring_allreduce_time;
use crate::link::LinkSpec;
use crate::profile::ModelProfile;
use crate::step::{step_cost, ExecMode, SystemConfig};
use crate::timeline::{Phase, Timeline};

/// A cluster of identical paper servers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of servers.
    pub nodes: usize,
    /// One server's configuration (GPUs, links).
    pub node: SystemConfig,
    /// Inter-node network (per-node effective bandwidth).
    pub network: LinkSpec,
}

impl ClusterConfig {
    /// `nodes` × the paper server with `gpus_per_node` V100s, joined by
    /// the given network.
    pub fn paper_cluster(nodes: usize, gpus_per_node: usize, network: LinkSpec) -> Self {
        assert!(nodes >= 1, "need at least one node");
        Self { nodes, node: SystemConfig::paper_server(gpus_per_node), network }
    }

    /// 100 Gb/s RoCE/InfiniBand-class fabric (~11 GB/s effective).
    pub fn network_100g() -> LinkSpec {
        LinkSpec { name: "100GbE".into(), bandwidth: 11e9, latency: 30e-6 }
    }

    /// 25 Gb/s Ethernet (~2.8 GB/s effective).
    pub fn network_25g() -> LinkSpec {
        LinkSpec { name: "25GbE".into(), bandwidth: 2.8e9, latency: 50e-6 }
    }

    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.node.num_gpus
    }
}

/// Cost of one training step over a cluster-global mini-batch of `batch`
/// samples. Per-node work uses the single-node model on the node's shard;
/// collective terms are replaced by the hierarchical version.
pub fn cluster_step_cost(
    profile: &ModelProfile,
    cluster: &ClusterConfig,
    mode: ExecMode,
    batch: usize,
) -> Timeline {
    let per_node = batch.div_ceil(cluster.nodes);
    let mut t = step_cost(profile, &cluster.node, mode, per_node);
    if cluster.nodes <= 1 {
        return t;
    }
    // Extend the gradient synchronisation across nodes: the payload that
    // crossed NVLink inside the node must also cross the network.
    let payload = match mode {
        ExecMode::FaeHotGpu => profile.dense_params() * 4.0 + profile.hot_emb_bytes,
        _ => profile.dense_params() * 4.0,
    };
    t.add(Phase::AllReduce, ring_allreduce_time(&cluster.network, cluster.nodes, payload));
    t
}

/// FAE hot step with a *sparse* inter-node synchronisation: only the
/// embedding rows the mini-batch actually touched cross the network
/// (row ids + values), instead of the whole hot bag. Inside a node the
/// dense full-bag all-reduce stays (NVLink makes it cheap); across nodes
/// this is the optimisation a real multi-server FAE would need on slow
/// fabrics — the naive full-bag payload drowns on sub-100G networks.
pub fn cluster_step_cost_fae_sparse(
    profile: &ModelProfile,
    cluster: &ClusterConfig,
    batch: usize,
) -> Timeline {
    let per_node = batch.div_ceil(cluster.nodes);
    let mut t = step_cost(profile, &cluster.node, ExecMode::FaeHotGpu, per_node);
    if cluster.nodes <= 1 {
        return t;
    }
    let touched_bytes =
        (profile.lookups_per_sample * batch) as f64 * (profile.emb_dim as f64 * 4.0 + 4.0);
    let payload = profile.dense_params() * 4.0 + touched_bytes.min(profile.hot_emb_bytes);
    t.add(Phase::AllReduce, ring_allreduce_time(&cluster.network, cluster.nodes, payload));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ModelProfile {
        ModelProfile {
            dense_features: 13,
            bottom_mlp: vec![13, 512, 256, 64, 16],
            top_mlp: vec![512, 256, 1],
            emb_dim: 16,
            num_tables: 26,
            lookups_per_sample: 26,
            extra_flops_per_sample: 0.0,
            hot_emb_bytes: 256e6,
            full_emb_bytes: 2e9,
            host_prep_per_sample: 0.0,
            cpu_embed_per_sample: 0.0,
        }
    }

    #[test]
    fn single_node_cluster_matches_single_node_model() {
        let p = profile();
        let c = ClusterConfig::paper_cluster(1, 4, ClusterConfig::network_100g());
        let a = cluster_step_cost(&p, &c, ExecMode::BaselineHybrid, 4096).total();
        let b = step_cost(&p, &c.node, ExecMode::BaselineHybrid, 4096).total();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn fae_still_beats_baseline_across_nodes() {
        // The paper's expectation: the insight holds multi-server.
        let p = profile();
        for nodes in [2usize, 4, 8] {
            let c = ClusterConfig::paper_cluster(nodes, 4, ClusterConfig::network_100g());
            let batch = 1024 * c.total_gpus(); // weak scaling
            let base = cluster_step_cost(&p, &c, ExecMode::BaselineHybrid, batch).total();
            let fae = cluster_step_cost(&p, &c, ExecMode::FaeHotGpu, batch).total();
            assert!(fae < base, "{nodes} nodes: FAE {fae} !< baseline {base}");
        }
    }

    #[test]
    fn sparse_cross_node_sync_rescues_fae_on_slow_networks() {
        let p = profile();
        let slow = ClusterConfig::paper_cluster(4, 4, ClusterConfig::network_25g());
        let batch = 1024 * slow.total_gpus();
        let naive = cluster_step_cost(&p, &slow, ExecMode::FaeHotGpu, batch).total();
        let sparse = cluster_step_cost_fae_sparse(&p, &slow, batch).total();
        let base = cluster_step_cost(&p, &slow, ExecMode::BaselineHybrid, batch).total();
        assert!(sparse < naive, "sparse sync {sparse} !< naive {naive}");
        assert!(sparse < base, "sparse-sync FAE {sparse} should beat baseline {base}");
    }

    #[test]
    fn slower_network_hurts_fae_more_than_baseline() {
        // FAE ships the hot bag's gradients cross-node; the baseline only
        // ships dense gradients (its embedding traffic stays node-local).
        let p = profile();
        let fast = ClusterConfig::paper_cluster(4, 4, ClusterConfig::network_100g());
        let slow = ClusterConfig::paper_cluster(4, 4, ClusterConfig::network_25g());
        let batch = 1024 * 16;
        let fae_delta = cluster_step_cost(&p, &slow, ExecMode::FaeHotGpu, batch).total()
            - cluster_step_cost(&p, &fast, ExecMode::FaeHotGpu, batch).total();
        let base_delta = cluster_step_cost(&p, &slow, ExecMode::BaselineHybrid, batch).total()
            - cluster_step_cost(&p, &fast, ExecMode::BaselineHybrid, batch).total();
        assert!(fae_delta > base_delta, "fae Δ{fae_delta} vs base Δ{base_delta}");
    }
}
