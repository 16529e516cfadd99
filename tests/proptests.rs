//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;

use fae::core::input_processor::{classify_inputs, preprocess_inputs, PreprocessConfig};
use fae::core::scheduler::{Rate, ShuffleScheduler};
use fae::core::RandEmBox;
use fae::data::dataset::TableIndices;
use fae::data::format::FaeFile;
use fae::data::{BatchKind, MiniBatch, WorkloadSpec};
use fae::embed::{AccessCounter, HotColdPartition, SparseGrad};
use fae::nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------- fae-nn ----------

proptest! {
    #[test]
    fn matmul_distributes_over_addition(
        a in prop::collection::vec(-10.0f32..10.0, 6),
        b in prop::collection::vec(-10.0f32..10.0, 6),
        c in prop::collection::vec(-10.0f32..10.0, 6),
    ) {
        // (A + B)·C == A·C + B·C within fp tolerance.
        let a = Tensor::from_vec(2, 3, a);
        let b = Tensor::from_vec(2, 3, b);
        let c = Tensor::from_vec(3, 2, c);
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_is_involutive(v in prop::collection::vec(-100.0f32..100.0, 12)) {
        let t = Tensor::from_vec(3, 4, v);
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn hcat_hsplit_roundtrip(
        a in prop::collection::vec(-5.0f32..5.0, 8),
        b in prop::collection::vec(-5.0f32..5.0, 4),
    ) {
        let a = Tensor::from_vec(2, 4, a);
        let b = Tensor::from_vec(2, 2, b);
        let cat = Tensor::hcat(&[&a, &b]);
        let parts = cat.hsplit(&[4, 2]);
        prop_assert_eq!(&parts[0], &a);
        prop_assert_eq!(&parts[1], &b);
    }
}

// ---------- fae-embed ----------

proptest! {
    #[test]
    fn partition_is_exhaustive_and_exclusive(
        counts in prop::collection::vec(0u64..50, 1..200),
        cutoff in 1u64..50,
    ) {
        let mut counter = AccessCounter::new(counts.len());
        for (row, &k) in counts.iter().enumerate() {
            for _ in 0..k { counter.record(row as u32); }
        }
        let p = HotColdPartition::from_counts(&counter, cutoff);
        // hot ∪ cold == all rows, hot ∩ cold == ∅, and classification
        // agrees with the raw counts.
        let mut hot_seen = 0;
        for row in 0..counts.len() as u32 {
            let is_hot = p.is_hot(row);
            prop_assert_eq!(is_hot, counts[row as usize] >= cutoff);
            if is_hot { hot_seen += 1; }
        }
        prop_assert_eq!(hot_seen, p.hot_count());
        // Remap is a bijection hot-local <-> global.
        for local in 0..p.hot_count() as u32 {
            prop_assert_eq!(p.hot_local(p.global_of(local)), Some(local));
        }
    }

    #[test]
    fn sparse_grad_accumulation_is_order_independent(
        updates in prop::collection::vec((0u32..20, -5.0f32..5.0), 1..60),
    ) {
        let mut fwd = SparseGrad::new(1);
        for &(i, v) in &updates { fwd.accumulate(i, &[v]); }
        let mut rev = SparseGrad::new(1);
        for &(i, v) in updates.iter().rev() { rev.accumulate(i, &[v]); }
        prop_assert_eq!(fwd.nnz_rows(), rev.nnz_rows());
        for (a, b) in fwd.iter().zip(rev.iter()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert!((a.1[0] - b.1[0]).abs() < 1e-3);
        }
    }

    #[test]
    fn randem_exact_on_small_tables_any_pattern(
        counts in prop::collection::vec(0u64..10, 10..500),
        cutoff in 1u64..10,
    ) {
        let mut counter = AccessCounter::new(counts.len());
        for (row, &k) in counts.iter().enumerate() {
            for _ in 0..k { counter.record(row as u32); }
        }
        let mut rng = StdRng::seed_from_u64(1);
        let est = RandEmBox::default().estimate(&counter, cutoff, &mut rng);
        // Tables smaller than one sampling pass are scanned exactly.
        prop_assert_eq!(est.hot_rows as usize, counter.rows_at_or_above(cutoff));
    }
}

// ---------- fae-data ----------

fn arb_minibatch(tables: usize, dense_w: usize) -> impl Strategy<Value = MiniBatch> {
    (1usize..6).prop_flat_map(move |batch| {
        let dense = prop::collection::vec(-10.0f32..10.0, batch * dense_w);
        let labels = prop::collection::vec(0u8..2, batch)
            .prop_map(|v| v.into_iter().map(f32::from).collect::<Vec<f32>>());
        let sparse = prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..1000, 0..4), batch),
            tables..=tables,
        );
        (dense, labels, sparse).prop_map(move |(dense, labels, sparse)| {
            let sparse = sparse
                .into_iter()
                .map(|bags| {
                    let mut csr = TableIndices::new();
                    for bag in bags {
                        csr.push_bag(&bag);
                    }
                    csr
                })
                .collect();
            MiniBatch { kind: BatchKind::Hot, dense, dense_width: dense_w, sparse, labels }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn fae_format_roundtrips_arbitrary_batches(
        batches in prop::collection::vec(arb_minibatch(3, 4), 0..5),
    ) {
        let f = FaeFile::new("prop", batches);
        let decoded = FaeFile::decode(&f.encode()).expect("roundtrip");
        prop_assert_eq!(decoded.batches.len(), f.batches.len());
        for (a, b) in f.batches.iter().zip(&decoded.batches) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(&a.dense, &b.dense);
            prop_assert_eq!(&a.labels, &b.labels);
            prop_assert_eq!(&a.sparse, &b.sparse);
        }
    }

    #[test]
    fn corrupted_fae_bytes_never_panic(
        flips in prop::collection::vec((0usize..2000, 0u8..=255), 1..8),
        cut in 0usize..2000,
        truncate in 0u8..2,
    ) {
        let spec = WorkloadSpec::tiny_test();
        let ds = fae::data::generate(&spec, &fae::data::GenOptions::sized(5, 32));
        let mb = MiniBatch::gather(&ds, &(0..8).collect::<Vec<_>>(), BatchKind::Cold);
        let mut bytes = FaeFile::new("x", vec![mb]).encode().to_vec();
        for &(flip, value) in &flips {
            let at = flip % bytes.len();
            bytes[at] = value;
        }
        if truncate == 1 {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        // Must return Ok or Err — never panic (the container carries no
        // payload checksum, so a body flip may still decode Ok).
        let _ = FaeFile::decode(&bytes);
    }

    #[test]
    fn truncated_fae_bytes_always_error(cut_back in 1usize..100) {
        let spec = WorkloadSpec::tiny_test();
        let ds = fae::data::generate(&spec, &fae::data::GenOptions::sized(5, 32));
        let mb = MiniBatch::gather(&ds, &(0..8).collect::<Vec<_>>(), BatchKind::Cold);
        let bytes = FaeFile::new("x", vec![mb]).encode().to_vec();
        let cut = bytes.len().saturating_sub(cut_back);
        prop_assert!(FaeFile::decode(&bytes[..cut]).is_err());
    }
}

// ---------- fae-core checkpoint container ----------

fn sample_checkpoint() -> fae::core::TrainCheckpoint {
    use fae::core::{SchedulerState, TableSnapshot, TrainCheckpoint};
    TrainCheckpoint {
        config_seed: 7,
        epoch: 0,
        hot_cursor: 3,
        cold_cursor: 9,
        steps: 12,
        hot_steps: 3,
        cold_steps: 9,
        transitions: 2,
        gpus_active: 2,
        cold_only: false,
        scheduler: SchedulerState {
            rate: 50,
            prev_loss: Some(0.6),
            improving_streak: 1,
            u: 4,
            history: vec![(0.6, 50)],
        },
        timeline: fae::sysmodel::Timeline::new(),
        history: vec![],
        faults: vec![],
        recoveries: vec![],
        dense_params: vec![0.5, -0.25, 1.5],
        tables: vec![TableSnapshot { rows: 2, dim: 2, weights: vec![1.0, 2.0, 3.0, 4.0] }],
    }
}

proptest! {
    #[test]
    fn corrupted_checkpoint_always_errors_never_panics(
        flips in prop::collection::vec((0usize..4096, 1u8..=255), 1..6),
        cut in 0usize..4096,
        truncate in 0u8..2,
    ) {
        use fae::core::TrainCheckpoint;
        let good = sample_checkpoint().encode();
        let mut bytes = good.clone();
        for &(flip, xor) in &flips {
            let at = flip % bytes.len();
            bytes[at] ^= xor; // xor with 1..=255 guarantees a real change
        }
        if truncate == 1 {
            bytes.truncate(cut % bytes.len()); // strictly shorter
        }
        // The CRC trailer guards every byte: any modification must be
        // *detected* (Err), and detection must never panic. (Two xor
        // flips at the same offset can cancel out — skip that case.)
        if bytes != good {
            prop_assert!(TrainCheckpoint::decode(&bytes).is_err());
        }
        // The pristine bytes still decode.
        prop_assert!(TrainCheckpoint::decode(&good).is_ok());
    }
}

// ---------- fae-core ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn scheduler_rate_always_within_bounds(losses in prop::collection::vec(0.01f64..10.0, 1..80)) {
        let mut s = ShuffleScheduler::paper_default();
        for &l in &losses {
            let r = s.observe_test_loss(l);
            prop_assert!((1..=100).contains(&r.pct()));
        }
    }

    #[test]
    fn block_len_always_progresses(total in 0usize..10_000, pct in 0u32..200) {
        let r = Rate::new(pct);
        let b = r.block_len(total);
        prop_assert!(b >= 1);
        prop_assert!(b <= total.max(1));
    }
}

#[test]
fn preprocess_partitions_inputs_exactly_once_under_any_batch_size() {
    let spec = WorkloadSpec::tiny_test();
    let ds = fae::data::generate(&spec, &fae::data::GenOptions::sized(11, 3_000));
    let all: Vec<usize> = (0..ds.len()).collect();
    let counters = fae::core::calibrator::log_accesses(&ds, &all);
    let parts: Vec<HotColdPartition> =
        counters.iter().map(|c| HotColdPartition::from_counts(c, 4)).collect();
    let reference = classify_inputs(&ds, &parts);
    for mb_size in [1usize, 7, 64, 5_000] {
        let pre = preprocess_inputs(
            &ds,
            parts.clone(),
            &PreprocessConfig { minibatch_size: mb_size, seed: 9 },
        );
        assert_eq!(pre.total_samples(), ds.len(), "batch size {mb_size}");
        let hot_samples: usize = pre.hot_batches.iter().map(|b| b.len()).sum();
        assert_eq!(hot_samples, reference.iter().filter(|&&h| h).count());
    }
}

#[test]
fn timeline_never_goes_negative() {
    // Deterministic sanity on the cost model over a parameter sweep.
    use fae::core::scheduler::Rate as R;
    use fae::core::simsched::{simulate_baseline, simulate_fae, SimConfig};
    let profile = fae::models::bridge::profile_for(&WorkloadSpec::rmc2_kaggle_paper(), 256e6);
    for gpus in [1usize, 2, 4, 8] {
        for batch in [64usize, 1024, 32768] {
            for hot in [0.0f64, 0.5, 1.0] {
                let cfg = SimConfig {
                    total_inputs: 100_000,
                    batch,
                    hot_fraction: hot,
                    rate: R::new(50),
                    epochs: 1,
                    num_gpus: gpus,
                };
                let f = simulate_fae(&profile, &cfg);
                let b = simulate_baseline(&profile, &cfg);
                assert!(f.total() > 0.0 && f.total().is_finite());
                assert!(b.total() > 0.0 && b.total().is_finite());
                for p in fae::sysmodel::Phase::ALL {
                    assert!(f.get(p) >= 0.0 && b.get(p) >= 0.0);
                }
            }
        }
    }
}

// ---------- fae-core oracle lookahead ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn oracle_lookahead_decisions_are_prefix_stable(
        stream in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..64, 0..6), 3..=3),
            1..24,
        ),
        window in 1usize..6,
        cut in 0usize..64,
    ) {
        use fae::core::{plan_decisions, AccessSet};
        let sets: Vec<AccessSet> = stream
            .into_iter()
            .map(|tables| AccessSet {
                per_table: tables
                    .into_iter()
                    .map(|mut rows| {
                        rows.sort_unstable();
                        rows.dedup();
                        rows
                    })
                    .collect(),
            })
            .collect();
        let full = plan_decisions(&sets, window);
        prop_assert_eq!(full.len(), sets.len());
        let m = 1 + cut % sets.len(); // arbitrary prefix length 1..=n
        let prefix = plan_decisions(&sets[..m], window);
        // Decision i is a function of sets[0..i+window] alone, so every
        // decision whose window fits inside the prefix must be identical
        // to the full-stream decision: extending the known batch stream
        // never rewrites prefetch choices already emitted.
        let stable = (m + 1).saturating_sub(window);
        for i in 0..stable {
            prop_assert_eq!(&prefix[i], &full[i], "decision {} window {} prefix {}", i, window, m);
        }
    }
}

// ---------- fae-sysmodel ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn step_cost_is_monotone_in_batch_size(
        batch_small in 64usize..4096,
        growth in 2usize..8,
        gpus in 1usize..5,
    ) {
        use fae::sysmodel::{step_cost, ExecMode, SystemConfig};
        let profile = fae::models::bridge::profile_for(&WorkloadSpec::rmc2_kaggle_paper(), 256e6);
        let sys = SystemConfig::paper_server(gpus);
        for mode in [ExecMode::BaselineHybrid, ExecMode::FaeHotGpu] {
            let small = step_cost(&profile, &sys, mode, batch_small).total();
            let large = step_cost(&profile, &sys, mode, batch_small * growth).total();
            prop_assert!(large >= small, "{mode:?}: {large} < {small}");
        }
    }

    #[test]
    fn sync_cost_is_monotone_in_hot_bytes(
        a in 1e6f64..1e8,
        factor in 1.0f64..50.0,
        gpus in 1usize..5,
    ) {
        use fae::sysmodel::{sync_cost, SystemConfig};
        let sys = SystemConfig::paper_server(gpus);
        prop_assert!(sync_cost(&sys, a * factor).total() >= sync_cost(&sys, a).total());
    }

    #[test]
    fn allreduce_time_nonnegative_and_monotone_in_bytes(
        bytes in 0.0f64..1e9,
        n in 1usize..16,
    ) {
        use fae::sysmodel::{ring_allreduce_time, LinkSpec};
        let link = LinkSpec::nvlink2();
        let t = ring_allreduce_time(&link, n, bytes);
        prop_assert!(t >= 0.0);
        prop_assert!(ring_allreduce_time(&link, n, bytes * 2.0) >= t);
    }

    #[test]
    fn gini_is_within_unit_interval(counts in prop::collection::vec(0u64..1000, 1..300)) {
        let s = fae::data::stats::table_skew(&counts);
        prop_assert!((0.0..=1.0).contains(&s.gini), "gini {}", s.gini);
        prop_assert!(s.top1pct_share <= s.top10pct_share + 1e-12);
        prop_assert!(s.top10pct_share <= 1.0 + 1e-12);
    }
}
