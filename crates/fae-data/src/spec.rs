//! Workload specifications mirroring Table I of the paper.
//!
//! Each spec fixes the *shape* of a workload: embedding tables (count, row
//! counts, dimension), sparse lookups per input, dense feature width, the
//! MLP layer widths of the matching model, the paper's per-GPU mini-batch
//! size, and the Zipf exponent steering access skew. Scaled constructors
//! shrink row/input counts ~64× so real training runs on a laptop CPU;
//! `*_paper()` constructors carry the full published sizes for the cost
//! model (they are never materialised as weights).

use serde::{Deserialize, Serialize};

/// Which model family trains on this workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// DLRM: bottom MLP + pairwise feature interaction + top MLP.
    Dlrm,
    /// TBSM: DLRM-style embeddings + attention over a behaviour sequence.
    Tbsm,
}

/// One embedding table's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSpec {
    /// Number of rows (distinct categorical values).
    pub rows: usize,
    /// Lookups into this table per input (1 for DLRM fields; the sequence
    /// length for TBSM behaviour tables).
    pub lookups_per_input: usize,
}

/// The shape of one benchmark workload (paper Table I).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable name, e.g. `"rmc2-kaggle"`.
    pub name: String,
    /// Model family.
    pub kind: WorkloadKind,
    /// Embedding tables.
    pub tables: Vec<TableSpec>,
    /// Embedding dimension (shared across tables, as in DLRM/TBSM).
    pub embedding_dim: usize,
    /// Number of dense (continuous) features.
    pub dense_features: usize,
    /// Default number of training inputs to synthesise.
    pub num_inputs: usize,
    /// Zipf exponent for row popularity (≈1.05–1.25 matches the paper's
    /// observed skew where a few percent of rows draw ≥75% of accesses).
    pub zipf_exponent: f64,
    /// Probability that an input is a *popular* input, drawing all its
    /// lookups from each table's head region. Real click logs exhibit
    /// strong cross-field popularity correlation (a popular ad carries
    /// popular values in every field); without it, 26 independent lookups
    /// would almost never be jointly hot (Fig 4's argument) and the
    /// paper's hot-input volumes could not exist.
    pub popularity_correlation: f64,
    /// Fraction of each table's popularity ranks forming the head region
    /// popular inputs draw from.
    pub head_fraction: f64,
    /// Bottom MLP widths, dense_features first.
    pub bottom_mlp: Vec<usize>,
    /// Top MLP widths, ending in 1 (CTR output).
    pub top_mlp: Vec<usize>,
    /// Per-GPU mini-batch size used in the paper's main experiments.
    pub minibatch_size: usize,
}

impl WorkloadSpec {
    /// Total embedding parameters across tables.
    pub fn embedding_params(&self) -> usize {
        self.tables.iter().map(|t| t.rows * self.embedding_dim).sum()
    }

    /// Total embedding bytes (f32) — Fig 2's "full table" bars.
    pub fn embedding_bytes(&self) -> usize {
        self.embedding_params() * std::mem::size_of::<f32>()
    }

    /// Bytes of one table.
    pub fn table_bytes(&self, t: usize) -> usize {
        self.tables[t].rows * self.embedding_dim * std::mem::size_of::<f32>()
    }

    /// Tables at or above the paper's 1 MB "large table" threshold; smaller
    /// tables are de-facto hot (§III-A.1).
    pub fn large_tables(&self) -> Vec<usize> {
        (0..self.tables.len()).filter(|&t| self.table_bytes(t) >= 1 << 20).collect()
    }

    /// Total sparse lookups per input, across tables.
    pub fn lookups_per_input(&self) -> usize {
        self.tables.iter().map(|t| t.lookups_per_input).sum()
    }

    /// Scaled RMC1: TBSM on a Taobao-shaped workload — 3 tables (items,
    /// categories, users), dim 16, behaviour sequences up to 21 steps.
    pub fn rmc1_taobao() -> Self {
        Self {
            name: "rmc1-taobao".into(),
            kind: WorkloadKind::Tbsm,
            tables: vec![
                TableSpec { rows: 64_000, lookups_per_input: 21 }, // items
                TableSpec { rows: 5_000, lookups_per_input: 21 },  // categories
                TableSpec { rows: 16_000, lookups_per_input: 1 },  // users
            ],
            embedding_dim: 16,
            dense_features: 3,
            num_inputs: 160_000,
            zipf_exponent: 1.15,
            popularity_correlation: 0.72,
            head_fraction: 0.02,
            bottom_mlp: vec![3, 16],
            top_mlp: vec![30, 60, 1],
            minibatch_size: 256,
        }
    }

    /// Scaled RMC2: DLRM on a Criteo-Kaggle-shaped workload — 26 tables
    /// with a heavy-tailed size distribution (max 158k rows), dim 16.
    pub fn rmc2_kaggle() -> Self {
        Self {
            name: "rmc2-kaggle".into(),
            kind: WorkloadKind::Dlrm,
            tables: criteo_like_tables(158_000, 26),
            embedding_dim: 16,
            dense_features: 13,
            num_inputs: 700_000,
            zipf_exponent: 1.1,
            popularity_correlation: 0.85,
            head_fraction: 0.005,
            bottom_mlp: vec![13, 512, 256, 64, 16],
            top_mlp: vec![512, 256, 1],
            minibatch_size: 1024,
        }
    }

    /// Scaled RMC3: DLRM on a Criteo-Terabyte-shaped workload — 26 tables
    /// (max 1.14M rows), dim 64.
    pub fn rmc3_terabyte() -> Self {
        Self {
            name: "rmc3-terabyte".into(),
            kind: WorkloadKind::Dlrm,
            tables: criteo_like_tables(1_140_000, 26),
            embedding_dim: 64,
            dense_features: 13,
            num_inputs: 1_250_000,
            zipf_exponent: 1.05,
            popularity_correlation: 0.88,
            head_fraction: 0.002,
            bottom_mlp: vec![13, 512, 256, 64],
            top_mlp: vec![512, 512, 256, 1],
            minibatch_size: 1024,
        }
    }

    /// Full-size RMC1 shape (0.3 GB of embeddings; cost model only).
    pub fn rmc1_taobao_paper() -> Self {
        let mut s = Self::rmc1_taobao();
        s.name = "rmc1-taobao-paper".into();
        s.tables = vec![
            TableSpec { rows: 4_100_000, lookups_per_input: 21 },
            TableSpec { rows: 320_000, lookups_per_input: 21 },
            TableSpec { rows: 990_000, lookups_per_input: 1 },
        ];
        s.num_inputs = 10_000_000;
        s
    }

    /// Full-size RMC2 shape (2 GB of embeddings; cost model only).
    pub fn rmc2_kaggle_paper() -> Self {
        let mut s = Self::rmc2_kaggle();
        s.name = "rmc2-kaggle-paper".into();
        s.tables = criteo_like_tables(10_100_000, 26);
        s.num_inputs = 45_000_000;
        s
    }

    /// Full-size RMC3 shape (61 GB of embeddings; cost model only).
    pub fn rmc3_terabyte_paper() -> Self {
        let mut s = Self::rmc3_terabyte();
        s.name = "rmc3-terabyte-paper".into();
        s.tables = criteo_like_tables(73_100_000, 26);
        s.num_inputs = 80_000_000;
        s
    }

    /// Negative control: a near-uniform workload with no cross-field
    /// popularity correlation. FAE's premise (a small hot set serving
    /// most accesses) does not hold here, so the framework should find
    /// few hot inputs and deliver little speedup — a falsifiability
    /// check on the whole pipeline.
    pub fn uniform_control() -> Self {
        Self {
            name: "uniform-control".into(),
            kind: WorkloadKind::Dlrm,
            tables: (0..8).map(|_| TableSpec { rows: 50_000, lookups_per_input: 1 }).collect(),
            embedding_dim: 16,
            dense_features: 8,
            num_inputs: 100_000,
            zipf_exponent: 0.2, // nearly flat
            popularity_correlation: 0.0,
            head_fraction: 0.01,
            bottom_mlp: vec![8, 64, 16],
            top_mlp: vec![64, 32, 1],
            minibatch_size: 512,
        }
    }

    /// A tiny workload for unit/integration tests: 4 tables, dim 8.
    pub fn tiny_test() -> Self {
        Self {
            name: "tiny-test".into(),
            kind: WorkloadKind::Dlrm,
            tables: vec![
                TableSpec { rows: 2_000, lookups_per_input: 1 },
                TableSpec { rows: 1_000, lookups_per_input: 1 },
                TableSpec { rows: 500, lookups_per_input: 1 },
                TableSpec { rows: 50, lookups_per_input: 1 },
            ],
            embedding_dim: 8,
            dense_features: 4,
            num_inputs: 8_000,
            zipf_exponent: 1.2,
            popularity_correlation: 0.8,
            head_fraction: 0.05,
            bottom_mlp: vec![4, 16, 8],
            top_mlp: vec![32, 16, 1],
            minibatch_size: 64,
        }
    }

    /// Serialises the spec to pretty JSON (for `--spec-file` workflows).
    /// Errs only if the in-memory spec fails to serialize.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a spec from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Builds a Criteo-like heavy-tailed table size distribution: a few huge
/// tables, a middle band, and a tail of tiny (de-facto hot) tables — the
/// qualitative shape of the open Criteo datasets.
/// The 26 categorical-field cardinalities of the public Criteo Kaggle
/// dataset, sorted descending. The shape is strongly bimodal: five huge
/// id-spaces (users/items/ads), a handful of mid-sized fields, and a long
/// tail of tiny enumerations — which is why most tables fall under the
/// paper's 1 MB de-facto-hot rule and only a few need calibration.
const CRITEO_CARDINALITIES: [usize; 26] = [
    10_131_227, 8_351_593, 7_046_547, 5_461_306, 2_202_608, 286_181, 142_572, 93_146, 14_993,
    12_518, 5_684, 5_653, 3_195, 2_173, 1_461, 634, 584, 306, 105, 28, 24, 18, 15, 10, 4, 4,
];

fn criteo_like_tables(max_rows: usize, count: usize) -> Vec<TableSpec> {
    assert_eq!(count, 26, "the Criteo profile defines exactly 26 fields");
    let scale = max_rows as f64 / CRITEO_CARDINALITIES[0] as f64;
    CRITEO_CARDINALITIES
        .iter()
        .map(|&c| TableSpec { rows: ((c as f64 * scale) as usize).max(4), lookups_per_input: 1 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaggle_shape_matches_table_i() {
        let s = WorkloadSpec::rmc2_kaggle();
        assert_eq!(s.tables.len(), 26);
        assert_eq!(s.embedding_dim, 16);
        assert_eq!(s.dense_features, 13);
        assert_eq!(s.bottom_mlp, vec![13, 512, 256, 64, 16]);
        assert_eq!(s.top_mlp, vec![512, 256, 1]);
        assert_eq!(s.kind, WorkloadKind::Dlrm);
        assert_eq!(s.tables[0].rows, 158_000);
    }

    #[test]
    fn taobao_is_a_sequence_workload() {
        let s = WorkloadSpec::rmc1_taobao();
        assert_eq!(s.kind, WorkloadKind::Tbsm);
        assert_eq!(s.tables.len(), 3);
        assert_eq!(s.tables[0].lookups_per_input, 21);
        assert_eq!(s.lookups_per_input(), 43);
    }

    #[test]
    fn paper_sizes_match_published_footprints() {
        // Fig 2: Kaggle ≈ 2 GB, Terabyte ≈ 61 GB, Taobao ≈ 0.3 GB.
        let gb = |b: usize| b as f64 / (1u64 << 30) as f64;
        let kaggle = gb(WorkloadSpec::rmc2_kaggle_paper().embedding_bytes());
        assert!((1.0..3.0).contains(&kaggle), "kaggle {kaggle} GB");
        let tb = gb(WorkloadSpec::rmc3_terabyte_paper().embedding_bytes());
        assert!((45.0..70.0).contains(&tb), "terabyte {tb} GB");
        let taobao = gb(WorkloadSpec::rmc1_taobao_paper().embedding_bytes());
        assert!((0.2..0.5).contains(&taobao), "taobao {taobao} GB");
    }

    #[test]
    fn criteo_like_tables_are_heavy_tailed() {
        let t = criteo_like_tables(100_000, 26);
        assert_eq!(t.len(), 26);
        assert_eq!(t[0].rows, 100_000);
        assert!(t.windows(2).all(|w| w[0].rows >= w[1].rows));
        assert!(t.last().unwrap().rows >= 4);
    }

    #[test]
    fn large_table_threshold_is_1mb() {
        let s = WorkloadSpec::tiny_test();
        // dim 8 f32 => 32 bytes/row; 1 MB = 32768 rows. All tiny tables are small.
        assert!(s.large_tables().is_empty());
        let k = WorkloadSpec::rmc2_kaggle();
        // 16 f32 = 64 B/row => tables with ≥ 16384 rows are large.
        for &t in &k.large_tables() {
            assert!(k.tables[t].rows >= 16_384);
        }
        assert!(!k.large_tables().is_empty());
        assert!(k.large_tables().len() < k.tables.len());
    }

    #[test]
    fn embedding_bytes_sums_tables() {
        let s = WorkloadSpec::tiny_test();
        let expect: usize = s.tables.iter().map(|t| t.rows * 8 * 4).sum();
        assert_eq!(s.embedding_bytes(), expect);
        assert_eq!(s.table_bytes(0), 2_000 * 8 * 4);
    }
}
