//! Criterion microbenchmarks for the hot paths of every substrate:
//! embedding lookups/updates, input classification, Rand-Em estimation,
//! model forward/backward, the FAE container codec and the cost model.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fae_core::calibrator::log_accesses;
use fae_core::input_processor::classify_inputs;
use fae_core::RandEmBox;
use fae_data::format::FaeFile;
use fae_data::{generate, BatchKind, GenOptions, MiniBatch, WorkloadSpec};
use fae_embed::{AccessCounter, EmbeddingTable, HotColdPartition, SparseGrad};
use fae_models::interaction::Interaction;
use fae_models::MasterEmbeddings;
use fae_nn::{Activation, Layer, Mlp, Tensor};
use fae_sysmodel::{step_cost, ExecMode, SystemConfig};

fn bench_embedding(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let table = EmbeddingTable::new(100_000, 16, &mut rng);
    let zipf = fae_data::ZipfSampler::new(100_000, 1.1, &mut rng);
    let batch = 1024usize;
    let zipf_idx: Vec<u32> = (0..batch).map(|_| zipf.sample(&mut rng)).collect();
    let uni_idx: Vec<u32> = (0..batch).map(|_| rng.gen_range(0..100_000u32)).collect();
    let offsets: Vec<usize> = (0..=batch).collect();

    let mut g = c.benchmark_group("embedding_lookup_1024x16");
    g.bench_function("zipf_indices", |b| {
        b.iter(|| black_box(table.lookup_bag(black_box(&zipf_idx), &offsets)))
    });
    g.bench_function("uniform_indices", |b| {
        b.iter(|| black_box(table.lookup_bag(black_box(&uni_idx), &offsets)))
    });
    // Hot-bag lookup: the same access pattern over a compact table.
    let bag = EmbeddingTable::new(4_000, 16, &mut rng);
    let hot_idx: Vec<u32> = (0..batch).map(|_| rng.gen_range(0..4_000u32)).collect();
    g.bench_function("hot_bag", |b| {
        b.iter(|| black_box(bag.lookup_bag(black_box(&hot_idx), &offsets)))
    });
    g.finish();

    c.bench_function("sparse_sgd_1024_rows", |b| {
        let mut t = EmbeddingTable::new(100_000, 16, &mut rng);
        let mut sg = SparseGrad::new(16);
        for &i in &zipf_idx {
            sg.accumulate(i, &[0.01; 16]);
        }
        b.iter(|| t.sgd_step_sparse(black_box(&sg), 0.05));
    });
}

fn bench_attention(c: &mut Criterion) {
    use fae_models::attention::{AttentionPool, SeqBatch};
    let mut rng = StdRng::seed_from_u64(10);
    let batch = 256usize;
    let dim = 16usize;
    // Ragged sequences of 1..=21 steps, like Taobao.
    let mut offsets = vec![0usize];
    for _ in 0..batch {
        offsets.push(offsets.last().unwrap() + rng.gen_range(1..=21));
    }
    let total = *offsets.last().unwrap();
    let seq = SeqBatch {
        data: (0..total * dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect(),
        offsets,
        dim,
    };
    let query = Tensor::from_fn(batch, dim, |_, _| rng.gen_range(-1.0..1.0f32));
    c.bench_function("attention_fwd_bwd_b256", |b| {
        b.iter(|| {
            let mut att = AttentionPool::new();
            let ctx = att.forward(black_box(&seq), black_box(&query));
            let g = Tensor::full(ctx.rows(), ctx.cols(), 1.0);
            black_box(att.backward(&g));
        })
    });
}

fn bench_classify(c: &mut Criterion) {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(2, 20_000));
    let all: Vec<usize> = (0..ds.len()).collect();
    let counters = log_accesses(&ds, &all);
    let parts: Vec<HotColdPartition> =
        counters.iter().map(|cnt| HotColdPartition::from_counts(cnt, 5)).collect();
    c.bench_function("classify_inputs_20k", |b| {
        b.iter(|| black_box(classify_inputs(black_box(&ds), &parts)))
    });
}

fn bench_randem(c: &mut Criterion) {
    let mut counter = AccessCounter::new(1_000_000);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..500_000 {
        counter.record(rng.gen_range(0..1_000_000));
    }
    let box_ = RandEmBox::default();
    let mut g = c.benchmark_group("hot_size_estimation_1M_rows");
    g.bench_function("randem_box", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(box_.estimate(black_box(&counter), 2, &mut rng)))
    });
    g.bench_function("full_scan", |b| b.iter(|| black_box(counter.rows_at_or_above(black_box(2)))));
    g.finish();
}

fn bench_models(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    // Kaggle bottom MLP forward/backward at batch 256.
    let mut mlp = Mlp::new(&[13, 512, 256, 64, 16], Activation::Relu, &mut rng);
    let x = Tensor::from_fn(256, 13, |_, _| rng.gen_range(-1.0..1.0f32));
    c.bench_function("bottom_mlp_fwd_bwd_b256", |b| {
        b.iter(|| {
            mlp.zero_grad();
            let y = mlp.forward(black_box(&x));
            let g = Tensor::full(y.rows(), y.cols(), 1.0);
            black_box(mlp.backward(&g));
        })
    });

    // Pairwise interaction over 27 features of width 16.
    let feats: Vec<Tensor> =
        (0..27).map(|_| Tensor::from_fn(64, 16, |_, _| rng.gen_range(-1.0..1.0f32))).collect();
    c.bench_function("interaction_27x16_b64", |b| {
        b.iter(|| {
            let mut op = Interaction::new();
            let out = op.forward(black_box(feats.clone()));
            let g = Tensor::full(out.rows(), out.cols(), 1.0);
            black_box(op.backward(&g));
        })
    });

    // Full DLRM train step on the tiny workload.
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(6, 1_000));
    let mb = MiniBatch::gather(&ds, &(0..64).collect::<Vec<_>>(), BatchKind::Unclassified);
    let mut model = fae_models::Dlrm::from_spec(&spec, &mut rng);
    let mut emb = MasterEmbeddings::from_spec(&spec, &mut rng);
    c.bench_function("dlrm_train_step_b64", |b| {
        b.iter(|| black_box(fae_models::train_step(&mut model, &mut emb, black_box(&mb), 0.01)))
    });
}

fn bench_format(c: &mut Criterion) {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(7, 4_096));
    let batches: Vec<MiniBatch> = (0..64)
        .map(|i| {
            MiniBatch::gather(&ds, &(i * 64..(i + 1) * 64).collect::<Vec<_>>(), BatchKind::Hot)
        })
        .collect();
    let file = FaeFile::new("bench", batches);
    let bytes = file.encode();
    let mut g = c.benchmark_group("fae_format_64x64");
    g.bench_function("encode", |b| b.iter(|| black_box(file.encode())));
    g.bench_function("decode", |b| {
        b.iter(|| black_box(FaeFile::decode(black_box(&bytes)).unwrap()))
    });
    g.finish();
}

fn bench_costmodel(c: &mut Criterion) {
    let spec = WorkloadSpec::rmc3_terabyte_paper();
    let profile = fae_models::bridge::profile_for(&spec, 256e6);
    let sys = SystemConfig::paper_server(4);
    c.bench_function("step_cost_eval", |b| {
        b.iter(|| black_box(step_cost(&profile, &sys, ExecMode::FaeHotGpu, black_box(4096))))
    });
}

criterion_group!(
    benches,
    bench_embedding,
    bench_attention,
    bench_classify,
    bench_randem,
    bench_models,
    bench_format,
    bench_costmodel
);
criterion_main!(benches);
