//! Extension experiment: multi-server scaling (§IV-A3's stated
//! expectation — "even in a multi-server scenario, we expect our insights
//! to hold true").
//!
//! Clusters of 1–8 paper servers (4 × V100 each) over 100 GbE and 25 GbE,
//! weak scaling (batch 1024 per GPU), on the Kaggle paper-scale shape.
//! The record also carries what the cost model charges one such server
//! for the two recovery events `fae-net` replays at laptop scale: a
//! hot-bag sync, and a reshard onto the surviving GPUs (communicator
//! reinit + dense re-broadcast + hot re-replication).

#![expect(
    clippy::expect_used,
    reason = "a binary dies loudly on a broken setup; only library code owes typed errors"
)]

use fae_bench::{measure_hotness, print_table, save_json, workloads};
use fae_core::AnyModel;
use fae_models::bridge::profile_for;
use fae_models::RecModel;
use fae_sysmodel::multinode::cluster_step_cost_fae_sparse;
use fae_sysmodel::{
    cluster_step_cost, reshard_cost, sync_cost, ClusterConfig, ExecMode, SystemConfig,
};
use rand::SeedableRng;

fn main() {
    let w = workloads().into_iter().next().expect("kaggle");
    let shrink = w.paper.embedding_bytes() as f64 / w.scaled.embedding_bytes() as f64;
    let scaled_budget = ((w.budget_bytes as f64 / shrink) as usize).max(64 << 10);
    let stats = measure_hotness(&w.scaled, w.measure_inputs, scaled_budget);
    let profile = profile_for(&w.paper, w.budget_bytes as f64);
    let hot = stats.hot_input_fraction;

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (net_label, net) in
        [("100GbE", ClusterConfig::network_100g()), ("25GbE", ClusterConfig::network_25g())]
    {
        for nodes in [1usize, 2, 4, 8] {
            let cluster = ClusterConfig::paper_cluster(nodes, 4, net.clone());
            let batch = 1024 * cluster.total_gpus();
            let base = cluster_step_cost(&profile, &cluster, ExecMode::BaselineHybrid, batch);
            let fae_naive_hot = cluster_step_cost(&profile, &cluster, ExecMode::FaeHotGpu, batch);
            let fae_sparse_hot = cluster_step_cost_fae_sparse(&profile, &cluster, batch);
            // Mixed schedule at the measured hot fraction.
            let mix = |hot_step: f64| hot * hot_step + (1.0 - hot) * base.total();
            let fae_naive = mix(fae_naive_hot.total());
            let fae_sparse = mix(fae_sparse_hot.total());
            rows.push(vec![
                net_label.to_string(),
                nodes.to_string(),
                (nodes * 4).to_string(),
                format!("{:.1}", base.total() * 1e3),
                format!("{:.1}", fae_naive * 1e3),
                format!("{:.1}", fae_sparse * 1e3),
                format!("{:.2}x", base.total() / fae_sparse),
            ]);
            json.push(serde_json::json!({
                "network": net_label, "nodes": nodes, "gpus": nodes * 4,
                "baseline_step_ms": base.total() * 1e3,
                "fae_naive_step_ms": fae_naive * 1e3,
                "fae_sparse_step_ms": fae_sparse * 1e3,
                "speedup_sparse": base.total() / fae_sparse,
            }));
        }
    }
    print_table(
        "Extension: multi-server scaling (Kaggle paper-scale, weak scaling, per-step ms)",
        &["network", "nodes", "GPUs", "baseline", "FAE naive", "FAE sparse", "speedup"],
        &rows,
    );
    println!(
        "\nfinding: on fast fabrics the paper's expectation (§IV-A3) holds directly; on slow \
         Ethernet the naive full-hot-bag all-reduce drowns, and FAE needs a sparse \
         touched-rows-only cross-node sync — with it, FAE wins at every cluster size"
    );

    let sys = SystemConfig::paper_server(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let dense_bytes = AnyModel::from_spec(&w.paper, &mut rng).dense_param_count() as f64 * 4.0;
    let hot_bytes = w.budget_bytes as f64;
    let sync_s = sync_cost(&sys, hot_bytes).total();
    let reshard_s = reshard_cost(&sys, dense_bytes, hot_bytes).total();
    println!(
        "modelled recovery on one server (4 GPUs, 256 MB hot bag): hot-bag sync {:.1} ms, \
         reshard {:.1} ms",
        sync_s * 1e3,
        reshard_s * 1e3
    );
    save_json(
        "ext_multinode",
        &serde_json::json!({
            "scaling": json, "hot_bag_sync_s": sync_s, "reshard_s": reshard_s,
        }),
    );
}
