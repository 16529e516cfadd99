//! Golden pins for the trainer: every run below is held to constants
//! printed by the commit *before* the trainer was rebuilt around one
//! step / one sync. Every other bit-identity test in the suite compares
//! two runs of the same build, so a refactor that moved both sides
//! together would pass them all; these constants would not move with it.
//!
//! A fingerprint is `digest sim-bits h<hot> c<cold> t<transitions>
//! r<recoveries> f<faults> o[oracle] s[skip]`. When a change is *meant*
//! to move one (a new cost term, a new schedule), the failure message
//! prints the full actual table to paste back in.

use std::fs;
use std::path::PathBuf;

use fae::core::input_processor::{PreprocessConfig, Preprocessed};
use fae::core::trainer::TrainReport;
use fae::core::{
    pipeline, train_baseline, train_fae, train_fae_resilient, CalibratorConfig, FaultPlan,
    ResilienceOptions, Telemetry, TrainConfig,
};
use fae::data::{generate, Dataset, GenOptions, WorkloadSpec};

const GOLDEN: &[(&str, &str)] = &[
    ("baseline", "a372ed8b 3ff8ea0523af5802 h0 c125 t0 r0 f0 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("baseline+stale_skip", "a372ed8b 3ff8ea0523af5802 h0 c125 t0 r0 f0 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("fae", "76cd1bec 40074229255aa471 h220 c32 t14 r0 f0 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("w2", "d9aa37d8 40074229255aa471 h220 c32 t14 r0 f0 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("quantize_cold", "391815bc 40074229255aa471 h220 c32 t14 r0 f0 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("lookahead4", "76cd1bec 400742263002178c h220 c32 t14 r0 f0 o[1619 436 24584 0 103616 125888] s[0 0 0 0 0]"),
    ("stale_skip", "f9993eb3 40073fd9a1d1f375 h220 c32 t14 r0 f0 o[0 0 0 0 0 0] s[1065 901 750 0 315]"),
    ("all_modes", "fa096fca 40073fd6ac796691 h220 c32 t14 r0 f0 o[1619 436 24584 0 103616 125888] s[1065 901 750 0 315]"),
    ("halted", "68c6453a 3fef0f5fcbb70e46 h72 c12 t5 r0 f0 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("resumed", "76cd1bec 40074229255aa471 h220 c32 t14 r1 f0 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("device-loss", "76cd1bec 4015771ce5dade88 h220 c32 t14 r1 f1 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("last-device-loss", "76cd1bec 4008e0197ab83d29 h28 c224 t2 r1 f1 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("replication-oom", "76cd1bec 4008a3cc559de68b h56 c196 t4 r1 f1 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("sync-failure", "76cd1bec 4008757d5fe9bbce h220 c32 t14 r1 f1 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("transient-io", "76cd1bec 4007a88f8bc10ad9 h220 c32 t14 r1 f1 o[0 0 0 0 0 0] s[0 0 0 0 0]"),
    ("all_faults_all_modes", "391815bc 401004c29d8ae648 h138 c114 t10 r4 f4 o[1140 312 15431 0 72960 89920] s[1065 901 150 915 0]"),
    ("all_faults_all_modes/journal", "284 events 7f2b9df87c7be05c"),
];

struct Fixture {
    spec: WorkloadSpec,
    train: Dataset,
    test: Dataset,
    pre: Preprocessed,
    cfg: TrainConfig,
}

/// The fault-tolerance suite's workload: tiny tables under a shrunken
/// budget (so a hot/cold split exists) and two epochs at rate 25 (so
/// faults and checkpoints land mid-stream).
fn fixture() -> Fixture {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(211, 10_000));
    let (train, test) = ds.split(0.2);
    let artifacts = pipeline::prepare(
        &train,
        CalibratorConfig {
            gpu_budget_bytes: 40 << 10,
            small_table_bytes: 2 << 10,
            ..Default::default()
        },
        &PreprocessConfig { minibatch_size: 64, seed: 3 },
    );
    let cfg = TrainConfig { epochs: 2, minibatch_size: 64, initial_rate: 25, ..Default::default() };
    Fixture { spec, train, test, pre: artifacts.preprocessed, cfg }
}

fn fingerprint(r: &TrainReport) -> String {
    let (o, s) = (&r.oracle, &r.skip);
    format!(
        "{:08x} {:016x} h{} c{} t{} r{} f{} o[{} {} {} {} {} {}] s[{} {} {} {} {}]",
        r.model_digest,
        r.simulated_seconds.to_bits(),
        r.hot_steps,
        r.cold_steps,
        r.transitions,
        r.recoveries.len(),
        r.faults.len(),
        o.prefetched_rows,
        o.evicted_rows,
        o.hits,
        o.misses,
        o.moved_bytes,
        o.full_bytes,
        s.deferred,
        s.flushed_threshold,
        s.flushed_access,
        s.flushed_checkpoint,
        s.dropped,
    )
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fae-golden-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn checkpointing(dir: PathBuf) -> ResilienceOptions {
    ResilienceOptions {
        checkpoint_dir: Some(dir),
        checkpoint_every_rounds: 1,
        ..Default::default()
    }
}

fn faulted(fx: &Fixture, cfg: &TrainConfig, plan: &str, opts: ResilienceOptions) -> TrainReport {
    let plan = FaultPlan::parse_seeded(plan, 7).expect("fault plan parses");
    train_fae_resilient(&fx.spec, &fx.pre, &fx.test, cfg, &ResilienceOptions { plan, ..opts })
}

#[test]
fn trainer_runs_match_the_pinned_constants() {
    let fx = fixture();
    let fae = |cfg: &TrainConfig| train_fae(&fx.spec, &fx.pre, &fx.test, cfg);
    let with = |f: fn(&mut TrainConfig)| {
        let mut cfg = fx.cfg.clone();
        f(&mut cfg);
        cfg
    };
    let all_modes = with(|c| {
        c.quantize_cold = true;
        c.lookahead = 4;
        c.stale_skip = 1e-4;
    });
    let four_gpus = with(|c| c.num_gpus = 4);
    let mut actual: Vec<(&str, String)> = Vec::new();

    let baseline_cfg = with(|c| c.epochs = 1);
    actual.push((
        "baseline",
        fingerprint(&train_baseline(&fx.spec, &fx.train, &fx.test, &baseline_cfg)),
    ));
    // The baseline has no skip pool: `fae compare --stale-skip T` hands one
    // config to both runs and the reference must not move with it.
    let baseline_skip_cfg = with(|c| {
        c.epochs = 1;
        c.stale_skip = 1e-4;
    });
    actual.push((
        "baseline+stale_skip",
        fingerprint(&train_baseline(&fx.spec, &fx.train, &fx.test, &baseline_skip_cfg)),
    ));
    let plain = fae(&fx.cfg);
    actual.push(("fae", fingerprint(&plain)));
    actual.push(("w2", fingerprint(&fae(&with(|c| c.workers = 2)))));
    actual.push(("quantize_cold", fingerprint(&fae(&with(|c| c.quantize_cold = true)))));
    actual.push(("lookahead4", fingerprint(&fae(&with(|c| c.lookahead = 4)))));
    actual.push(("stale_skip", fingerprint(&fae(&with(|c| c.stale_skip = 1e-4)))));
    actual.push(("all_modes", fingerprint(&fae(&all_modes))));

    // Halt a third of the way in, then resume from the checkpoint dir.
    let dir = tmpdir("resume");
    let halt_at = (plain.hot_steps + plain.cold_steps) / 3;
    let halted = train_fae_resilient(
        &fx.spec,
        &fx.pre,
        &fx.test,
        &fx.cfg,
        &ResilienceOptions { halt_after_steps: Some(halt_at), ..checkpointing(dir.clone()) },
    );
    actual.push(("halted", fingerprint(&halted)));
    let resumed = train_fae_resilient(
        &fx.spec,
        &fx.pre,
        &fx.test,
        &fx.cfg,
        &ResilienceOptions { resume: true, ..checkpointing(dir) },
    );
    actual.push(("resumed", fingerprint(&resumed)));

    // One run per fault kind the trainer itself handles (the network
    // kinds fire inside `fae-net`'s engine, artifact corruption inside
    // the artifact loader).
    let none = ResilienceOptions::default;
    actual.push(("device-loss", fingerprint(&faulted(&fx, &four_gpus, "device-loss@5", none()))));
    actual.push(("last-device-loss", fingerprint(&faulted(&fx, &fx.cfg, "device-loss@5", none()))));
    actual.push((
        "replication-oom",
        fingerprint(&faulted(&fx, &fx.cfg, "replication-oom@40", none())),
    ));
    actual.push(("sync-failure", fingerprint(&faulted(&fx, &fx.cfg, "sync-failure@10", none()))));
    actual.push((
        "transient-io",
        fingerprint(&faulted(&fx, &fx.cfg, "transient-io@0", checkpointing(tmpdir("io")))),
    ));

    // Every fault against every mode at once, with the journal retained:
    // its event stream (order included) is part of the pin.
    let telemetry =
        Telemetry::builder().retain_events(true).try_build().expect("in-memory telemetry");
    let mut combo_cfg = all_modes.clone();
    combo_cfg.num_gpus = 2;
    let combo = faulted(
        &fx,
        &combo_cfg,
        "device-loss@5,sync-failure@10,transient-io@0,replication-oom@150",
        ResilienceOptions { telemetry: telemetry.clone(), ..checkpointing(tmpdir("combo")) },
    );
    actual.push(("all_faults_all_modes", fingerprint(&combo)));
    let events = telemetry.events();
    // FNV-1a over the events' Debug rendering (without their origin tags).
    let hash = events
        .iter()
        .flat_map(|t| format!("{:?}\n", t.event).into_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3));
    actual.push(("all_faults_all_modes/journal", format!("{} events {hash:016x}", events.len())));

    let table: String =
        actual.iter().map(|(name, fp)| format!("    (\"{name}\", \"{fp}\"),\n")).collect();
    let expected: Vec<(&str, String)> =
        GOLDEN.iter().map(|&(name, fp)| (name, fp.to_string())).collect();
    assert!(actual == expected, "trainer fingerprints moved; actual table:\n{table}");
}
