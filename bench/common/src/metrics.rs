//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark emits, with its unit, direction, layer, and the end-to-end
//! metric and workload it is expected to move. `BENCHMARK.json` lists
//! the same names (a test keeps the two in step); the `moves` notes and
//! definitions are what its schema has no room for.

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, accuracy).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric (measured with tracing off).
#[derive(Clone, Copy, Debug)]
pub struct E2eMetric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Change, in the metric's unit, below which `bench/run.sh --repeat`
    /// never counts a worsening (0 = none). The driver's contract has
    /// only the relative `bound`; this floor is the suite's own.
    pub abs_floor: f64,
    /// How it is measured.
    pub definition: &'static str,
}

/// One per-layer metric (measured by the traced replay).
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// Name, `<layer>.<what>`; the layer is the crate the call goes into.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics. Every workload reports all three.
///
/// Bounds are what this host can resolve, not what one would wish for.
/// Interference on the shared 2-vCPU sandbox comes in stretches of ten
/// to twenty seconds during which throughput-bound code (a vectorised
/// loop over 256 KiB) runs up to 1.8x slower while a dependent ALU
/// chain beside it does not move; identical `fae train` rounds then
/// take 1.55 s or 2.2 s, and a 0.1 s set-up child 0.10 s or 0.16 s. It
/// only ever adds time, so both timings are taken from the fastest
/// sample of the window, which moves least; a stretch that outlasts a
/// whole run still moves them by 10-20 %. See "Why the fastest sample,
/// and why the bound is 25 %" in the README.
pub const E2E: [E2eMetric; 3] = [
    E2eMetric {
        name: "items_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        abs_floor: 0.0,
        definition: "items of one round (training samples, inputs preprocessed, requests served) / wall of the fastest round in the window, spawn to exit of the cold child",
    },
    E2eMetric {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.20,
        abs_floor: 0.0,
        definition: "largest peak resident set (wait4 ru_maxrss) of any process in a round's tree (net_loopback: the coordinator, 3x its node), max over rounds",
    },
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        abs_floor: 0.1,
        definition: "wall of the fastest of seven cold set-up runs spread evenly over the window: fae preprocess writing the stream, a fae serve that serves 64 requests; for prep_static generate + one warm-up round",
    },
];

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, better, moves }
}

const NN: &str = "items_per_s on train_hot_mlp(_w2) and serve_batch; no change on train_seq_*, net_loopback, prep_static";
const EMBED: &str = "items_per_s on train_seq_embed and net_loopback; little on train_hot_mlp";
const EMBED_MODES: &str = "items_per_s and peak_rss_mib on train_seq_modes only";
const MODELS: &str = "items_per_s on every train_* workload";
const PREDICT: &str = "items_per_s on serve_batch";
const RUNTIME: &str = "items_per_s on train_seq_embed/_modes (ms-scale steps); engine cost on train_hot_mlp_w2; small on train_hot_mlp";
const STATIC: &str = "items_per_s on prep_static; setup_s everywhere";
const SERVE: &str = "items_per_s on serve_batch only";
const NET: &str = "items_per_s on net_loopback only";
const COUNT: &str = "a count: explains a timing, moves nothing by itself";

/// The per-layer metrics, grouped by layer (crate).
pub const PER_LAYER: [LayerMetric; 76] = [
    // fae-nn: harness-owned Mlps of the workload's shapes.
    lm("fae-nn.bottom_fwd_ms_p50", "ms", Lower, NN),
    lm("fae-nn.bottom_bwd_ms_p50", "ms", Lower, NN),
    lm("fae-nn.top_fwd_ms_p50", "ms", Lower, NN),
    lm("fae-nn.top_bwd_ms_p50", "ms", Lower, NN),
    lm("fae-nn.dense_sgd_ms_p50", "ms", Lower, NN),
    lm("fae-nn.loss_us_p50", "us", Lower, NN),
    lm("fae-nn.mlp_macs_per_step", "count", Lower, COUNT),
    lm("fae-nn.mlp_gflops", "GFLOP/s", Higher, NN),
    // fae-embed: lookups over all tables / sparse applies.
    lm("fae-embed.master_lookup_ms_p50", "ms", Lower, EMBED),
    lm("fae-embed.master_apply_ms_p50", "ms", Lower, EMBED),
    lm("fae-embed.hot_lookup_ms_p50", "ms", Lower, EMBED),
    lm("fae-embed.hot_apply_ms_p50", "ms", Lower, EMBED),
    lm("fae-embed.tiered_lookup_ms_p50", "ms", Lower, EMBED_MODES),
    lm("fae-embed.tiered_apply_ms_p50", "ms", Lower, EMBED_MODES),
    lm("fae-embed.deferred_absorb_us_p50", "us", Lower, EMBED_MODES),
    lm("fae-embed.lookups_per_step", "count", Lower, COUNT),
    lm("fae-embed.rows_touched_per_step", "count", Lower, COUNT),
    lm("fae-embed.lookup_mib_per_s", "MiB/s", Higher, EMBED),
    // fae-models: whole forward/backward, and what is left after the
    // lookup and MLP probes (interaction / attention + glue).
    lm("fae-models.forward_ms_p50", "ms", Lower, MODELS),
    lm("fae-models.backward_ms_p50", "ms", Lower, MODELS),
    lm("fae-models.forward_self_ms_p50", "ms", Lower, MODELS),
    lm("fae-models.backward_self_ms_p50", "ms", Lower, MODELS),
    lm("fae-models.predict_ms_p50", "ms", Lower, PREDICT),
    lm("fae-models.predict_ms_p99", "ms", Lower, PREDICT),
    lm(
        "fae-models.test_accuracy",
        "fraction",
        Higher,
        "must not fall: the same number every train round is checked against",
    ),
    // fae-core, runtime half.
    lm("fae-core.hot_step_ms_p50", "ms", Lower, RUNTIME),
    lm("fae-core.cold_step_ms_p50", "ms", Lower, RUNTIME),
    lm("fae-core.hot_step_ms_p99", "ms", Lower, RUNTIME),
    lm("fae-core.cold_step_ms_p99", "ms", Lower, RUNTIME),
    lm("fae-core.hot_refresh_ms_p50", "ms", Lower, RUNTIME),
    lm("fae-core.hot_writeback_ms_p50", "ms", Lower, RUNTIME),
    lm("fae-core.eval_ms_p50", "ms", Lower, RUNTIME),
    lm("fae-core.digest_ms", "ms", Lower, RUNTIME),
    lm("fae-core.artifact_load_s", "s", Lower, RUNTIME),
    lm("fae-core.oracle_plan_us_p50", "us", Lower, EMBED_MODES),
    lm("fae-core.hot_steps", "count", Higher, COUNT),
    lm("fae-core.cold_steps", "count", Lower, COUNT),
    lm("fae-core.transitions", "count", Lower, "sync cost scales with it"),
    lm("fae-core.steps_to_target", "count", Lower, "time to the accuracy floor, in steps"),
    lm(
        "fae-core.loop_residual_share",
        "fraction",
        Lower,
        "the part of train_fae the layer calls do not explain; large on train_seq_*",
    ),
    lm(
        "fae-core.fae_over_baseline_wall_x",
        "x",
        Higher,
        "train_baseline wall / train_fae wall: the paper's claim on the real clock",
    ),
    // fae-core, static half.
    lm("fae-core.sample_s", "s", Lower, STATIC),
    lm("fae-core.log_accesses_s", "s", Lower, STATIC),
    lm("fae-core.converge_s", "s", Lower, STATIC),
    lm("fae-core.classify_s", "s", Lower, STATIC),
    lm("fae-core.preprocess_s", "s", Lower, STATIC),
    lm("fae-core.hot_input_fraction", "fraction", Higher, COUNT),
    lm("fae-core.hot_batches", "count", Higher, COUNT),
    lm("fae-core.cold_batches", "count", Lower, COUNT),
    // fae-data.
    lm("fae-data.generate_s", "s", Lower, "setup_s everywhere"),
    lm("fae-data.encode_mib_per_s", "MiB/s", Higher, STATIC),
    lm("fae-data.decode_mib_per_s", "MiB/s", Higher, STATIC),
    lm("fae-data.stream_bytes", "B", Lower, COUNT),
    lm("fae-data.gather_us_p50", "us", Lower, SERVE),
    // fae-sysmodel.
    lm("fae-sysmodel.step_cost_us_p50", "us", Lower, "wall of train_seq_* only"),
    lm("fae-sysmodel.sim_speedup_x", "x", Higher, "simulated clock: must not move unless claimed"),
    lm(
        "fae-sysmodel.sim_ms_per_step",
        "sim_ms",
        Lower,
        "simulated clock: must not move unless claimed",
    ),
    // fae-telemetry.
    lm(
        "fae-telemetry.journal_emit_us_p50",
        "us",
        Lower,
        "items_per_s on train_seq_embed when journalling",
    ),
    lm(
        "fae-telemetry.journal_overhead_share",
        "fraction",
        Lower,
        "indicative only: median of one to three interleaved journalled/plain pairs, on a host whose rounds drift more than the 2 % ROADMAP item 5 wants to gate",
    ),
    // fae-serve.
    lm("fae-serve.batcher_push_ns_p50", "ns", Lower, SERVE),
    lm("fae-serve.cache_access_us_p50", "us", Lower, SERVE),
    lm("fae-serve.engine_build_s", "s", Lower, "setup_s on serve_batch"),
    lm("fae-serve.hit_rate", "fraction", Higher, COUNT),
    lm("fae-serve.mean_batch_size", "count", Higher, COUNT),
    lm("fae-serve.rejected", "count", Lower, "a rejected request is a failed operation"),
    lm("fae-serve.forward_share", "fraction", Lower, SERVE),
    // fae-net.
    lm("fae-net.frame_encode_mib_per_s", "MiB/s", Higher, NET),
    lm("fae-net.frame_decode_mib_per_s", "MiB/s", Higher, NET),
    lm("fae-net.loopback_rtt_us_p50", "us", Lower, NET),
    lm("fae-net.loopback_rtt_us_p99", "us", Lower, NET),
    lm("fae-net.remote_step_ms_p50", "ms", Lower, NET),
    lm("fae-net.bytes_per_step", "B", Lower, NET),
    lm("fae-net.wire_overhead_x", "x", Lower, NET),
    // The harness itself.
    lm("trace.overhead_share", "fraction", Lower, "nothing: the cost of recording spans"),
    lm("trace.spans", "count", Lower, COUNT),
    lm(
        "trace.step_explained_share",
        "fraction",
        Higher,
        "share of a hot step the fae-nn, fae-embed and fae-models self times add up to",
    ),
];

/// The unit of a metric of either kind, by name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    E2E.iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde_json::Value;
    use std::collections::BTreeSet;

    /// True when `s` is a legal metric or workload name.
    fn is_legal_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// True when `s` is a legal unit.
    fn is_legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in E2E
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(is_legal_name(name), "illegal name {name}");
            assert!(is_legal_unit(unit), "illegal unit {unit} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!is_legal_name(".x") && !is_legal_name("a b") && !is_legal_name(""));
        assert!(!is_legal_unit("req per s"));
    }

    #[test]
    fn bounds_and_whys_fit_the_contract() {
        assert!(E2E.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = E2E.iter().find(|m| m.name == "setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(E2E.iter().all(|m| m.bound <= setup.bound), "setup_s takes the largest bound");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics of this catalogue, with the same units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).clone();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name").to_string(), field(w, "why").to_string()))
            .collect();
        let expected: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, expected);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), E2E.len());
        for (got, want) in e2e.iter().zip(E2E) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound));
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
        }
        assert!(text.len() <= 64 << 10);
    }
}
