//! `fae` — command-line driver for the FAE pipeline.
//!
//! ```text
//! fae gen        --workload <name> [--inputs N] [--seed S]        # describe a workload
//! fae calibrate  --workload <name> [--inputs N] [--budget-mb M]   # run the calibrator
//! fae preprocess --workload <name> --out <file.fae> [...]         # static phase to disk
//! fae train      --stream <file.fae> --workload <name> [...]      # FAE training from disk
//! fae compare    --workload <name> [--inputs N] [--gpus G] [...]  # baseline vs FAE
//! fae serve      --workload <name> [--checkpoint-dir D] [...]      # inference serving
//! fae bench-serve [--workload <name>] [--requests N]               # saturation sweep
//! fae node       --connect ADDR --node-id K --workers N [...]     # join a distributed run
//! fae report     <journal.jsonl>                                  # phase-breakdown table
//! ```
//!
//! `fae train --distributed N` promotes a training run to multi-process:
//! it binds a localhost coordinator port, spawns `N` `fae node` children
//! against it, and trains through the fault-tolerant wire protocol in
//! `fae-net` — bit-identical to the in-process engine with the same
//! worker count.
//!
//! Argument parsing is deliberately dependency-free (flag pairs only); a
//! flag the subcommand does not read is an error, not a no-op.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fae::core::input_processor::Preprocessed;
use fae::core::{
    artifacts, latest_in, pipeline, train_fae_with_engine, CalibratorConfig, FaultInjector,
    FaultPlan, PreprocessConfig, ResilienceOptions, RetryPolicy, TrainCheckpoint, TrainConfig,
    TrainReport,
};
use fae::data::{generate, Dataset, GenOptions, WorkloadSpec};
use fae::net::{run_node, NetConfig, NodeConfig, RemoteEngine};
use fae::serve::{
    calibrate_partitions, open_loop_requests, saturation_sweep, sweep_json, RequestTrace,
    ServeConfig, ServeEngine, ServeLoad,
};
use fae::telemetry::{self, AlertEngine, TaggedEvent, Telemetry};

// The flags each helper below reads, so a subcommand's set is the sum of
// the helpers it calls plus its own.
const WORKLOAD: &[&str] = &["workload", "spec-file", "inputs", "seed"];
const CALIBRATOR: &[&str] = &["budget-mb", "small-table-kb", "sample-rate"];
const TRAIN_CONFIG: &[&str] =
    &["epochs", "batch", "gpus", "workers", "lr", "quantize-cold", "lookahead", "stale-skip"];
const TELEMETRY: &[&str] =
    &["metrics-out", "journal", "trace-out", "progress", "progress-every", "alerts"];
const RESILIENCE: &[&str] =
    &["fault-plan", "fault-seed", "checkpoint-dir", "checkpoint-every", "resume", "halt-after"];
const SERVE_ENGINE: &[&str] = &[
    "stream",
    "checkpoint",
    "checkpoint-dir",
    "max-batch",
    "max-delay-us",
    "queue-cap",
    "serve-workers",
    "cache-rows",
    "cache-window",
];

type Handler = fn(&Args) -> Result<(), String>;

/// The flag-pair subcommands (`report` and `top` parse positional
/// arguments themselves): the handler and every flag it reads.
fn subcommand(cmd: &str) -> Option<(Handler, Vec<&'static str>)> {
    let (run, flags): (Handler, &[&[&str]]) = match cmd {
        "gen" => (cmd_gen, &[WORKLOAD]),
        "calibrate" => (cmd_calibrate, &[WORKLOAD, CALIBRATOR]),
        "preprocess" => (cmd_preprocess, &[WORKLOAD, CALIBRATOR, &["out", "batch"]]),
        "train" => (
            cmd_train,
            &[
                WORKLOAD,
                CALIBRATOR,
                TRAIN_CONFIG,
                TELEMETRY,
                RESILIENCE,
                &["stream", "test-inputs", "distributed", "telemetry-every"],
            ],
        ),
        "compare" => (cmd_compare, &[WORKLOAD, CALIBRATOR, TRAIN_CONFIG]),
        "serve" => (
            cmd_serve,
            &[
                WORKLOAD,
                CALIBRATOR,
                SERVE_ENGINE,
                TELEMETRY,
                &[
                    "requests",
                    "arrival-rate",
                    "closed-clients",
                    "record",
                    "replay",
                    "min-completed",
                    "min-hit-rate",
                ],
            ],
        ),
        "bench-serve" => {
            (cmd_bench_serve, &[WORKLOAD, CALIBRATOR, SERVE_ENGINE, &["requests", "out"]])
        }
        "node" => (cmd_node, &[&["connect", "node-id", "workers", "fault-plan", "fault-seed"]]),
        _ => return None,
    };
    Some((run, flags.concat()))
}

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(cmd: &str, known: &[&str], argv: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(k) = it.next() {
            let key = k.strip_prefix("--").ok_or_else(|| format!("expected --flag, got '{k}'"))?;
            if !known.contains(&key) {
                return Err(format!("unknown flag --{key} for '{cmd}'"));
            }
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.push((key.to_string(), v.clone()));
        }
        Ok(Self { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }
}

fn workload_from(args: &Args) -> Result<WorkloadSpec, String> {
    if let Some(path) = args.get("spec-file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--spec-file: {e}"))?;
        return WorkloadSpec::from_json(&text).map_err(|e| format!("--spec-file: {e}"));
    }
    workload(args.get("workload").ok_or("--workload or --spec-file required")?)
}

fn workload(name: &str) -> Result<WorkloadSpec, String> {
    match name {
        "tiny" | "tiny-test" => Ok(WorkloadSpec::tiny_test()),
        "kaggle" | "rmc2" => Ok(WorkloadSpec::rmc2_kaggle()),
        "taobao" | "rmc1" => Ok(WorkloadSpec::rmc1_taobao()),
        "terabyte" | "rmc3" => Ok(WorkloadSpec::rmc3_terabyte()),
        other => {
            Err(format!("unknown workload '{other}' (expected tiny | kaggle | taobao | terabyte)"))
        }
    }
}

fn calibrator_config(args: &Args, spec: &WorkloadSpec) -> Result<CalibratorConfig, String> {
    let budget_mb: usize = args.num("budget-mb", 0)?;
    let budget = if budget_mb > 0 { budget_mb << 20 } else { spec.embedding_bytes() / 8 };
    Ok(CalibratorConfig {
        gpu_budget_bytes: budget,
        small_table_bytes: args.num("small-table-kb", 8usize)? << 10,
        sample_rate: args.num("sample-rate", 0.05f64)?,
        ..Default::default()
    })
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let spec = workload_from(args)?;
    let inputs: usize = args.num("inputs", spec.num_inputs.min(50_000))?;
    let ds = generate(&spec, &GenOptions::sized(args.num("seed", 1u64)?, inputs));
    println!(
        "workload {}: {} tables, dim {}, {} dense features",
        spec.name,
        spec.tables.len(),
        spec.embedding_dim,
        spec.dense_features
    );
    println!("embedding footprint: {:.1} MiB", spec.embedding_bytes() as f64 / (1 << 20) as f64);
    println!("generated {} inputs, positive rate {:.1}%", ds.len(), ds.positive_rate() * 100.0);
    Ok(())
}

fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let spec = workload_from(args)?;
    let inputs: usize = args.num("inputs", spec.num_inputs.min(50_000))?;
    let ds = generate(&spec, &GenOptions::sized(args.num("seed", 1u64)?, inputs));
    let cal = fae::core::Calibrator::new(calibrator_config(args, &spec)?).calibrate(&ds);
    println!("threshold t = {:.0e} ({} inputs sampled)", cal.threshold, cal.sampled_inputs);
    println!(
        "estimated hot bag: {:.2} MiB (budget fit: {})",
        cal.est_hot_bytes / (1 << 20) as f64,
        cal.fits_budget
    );
    for (i, t) in cal.tables.iter().enumerate() {
        println!(
            "  table {i:>2}: cutoff {:>4}  est hot rows {:>10.0}{}",
            t.cutoff,
            t.est_hot_rows,
            if t.de_facto_hot { "  (de-facto hot: < 1 MB)" } else { "" }
        );
    }
    Ok(())
}

fn cmd_preprocess(args: &Args) -> Result<(), String> {
    let spec = workload_from(args)?;
    let out = PathBuf::from(args.get("out").ok_or("--out required")?);
    let inputs: usize = args.num("inputs", spec.num_inputs.min(50_000))?;
    let ds = generate(&spec, &GenOptions::sized(args.num("seed", 1u64)?, inputs));
    let art = pipeline::prepare(
        &ds,
        calibrator_config(args, &spec)?,
        &PreprocessConfig {
            minibatch_size: args.num("batch", spec.minibatch_size.min(256))?,
            seed: args.num("seed", 1u64)?,
        },
    );
    artifacts::save(&art, &spec.name, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} hot / {} cold batches ({:.1}% hot inputs) to {}",
        art.preprocessed.hot_batches.len(),
        art.preprocessed.cold_batches.len(),
        art.preprocessed.hot_input_fraction * 100.0,
        out.display()
    );
    Ok(())
}

fn train_config(args: &Args, spec: &WorkloadSpec) -> Result<TrainConfig, String> {
    Ok(TrainConfig {
        epochs: args.num("epochs", 1usize)?,
        minibatch_size: args.num("batch", spec.minibatch_size.min(256))?,
        num_gpus: args.num("gpus", 1usize)?,
        workers: args.num("workers", 1usize)?,
        lr: args.num("lr", 0.05f32)?,
        quantize_cold: args.num("quantize-cold", false)?,
        lookahead: args.num("lookahead", 0usize)?,
        stale_skip: args.num("stale-skip", 0.0f32)?,
        ..Default::default()
    })
}

/// Builds the telemetry handle from `--metrics-out` / `--journal` /
/// `--trace-out` / `--progress` / `--alerts`. Disabled when none of
/// them is given, so the hot loops keep their zero-overhead path.
fn telemetry_from(args: &Args) -> Result<Telemetry, String> {
    let metrics_out = args.get("metrics-out");
    let journal = args.get("journal");
    let trace_out = args.get("trace-out");
    let progress: bool = args.num("progress", false)?;
    let alerts = match args.get("alerts") {
        Some(spec) => AlertEngine::parse(spec).map_err(|e| format!("--alerts: {e}"))?,
        None => AlertEngine::empty(),
    };
    let have_alerts = !alerts.is_empty();
    if metrics_out.is_none()
        && journal.is_none()
        && trace_out.is_none()
        && !progress
        && !have_alerts
    {
        return Ok(Telemetry::disabled());
    }
    let mut b = Telemetry::builder()
        .progress(progress)
        .progress_every(args.num("progress-every", 100u64)?)
        .alerts(alerts)
        // The Chrome-trace exporter replays the in-memory event stream;
        // alert firings are surfaced from it after the run.
        .retain_events(trace_out.is_some() || have_alerts);
    if let Some(p) = journal {
        b = b.journal_path(p);
    }
    b.try_build().map_err(|e| format!("--journal: {e}"))
}

fn resilience_options(args: &Args, telemetry: Telemetry) -> Result<ResilienceOptions, String> {
    let plan = match args.get("fault-plan") {
        Some(spec) => FaultPlan::parse_seeded(spec, args.num("fault-seed", 0u64)?)
            .map_err(|e| format!("--fault-plan: {e}"))?,
        None => FaultPlan::none(),
    };
    let halt: usize = args.num("halt-after", 0usize)?;
    Ok(ResilienceOptions {
        plan,
        checkpoint_dir: args.get("checkpoint-dir").map(PathBuf::from),
        checkpoint_every_rounds: args.num("checkpoint-every", 1usize)?,
        resume: args.num("resume", false)?,
        halt_after_steps: if halt > 0 { Some(halt) } else { None },
        telemetry,
    })
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let spec = workload_from(args)?;
    let stream = PathBuf::from(args.get("stream").ok_or("--stream required")?);
    let telem = telemetry_from(args)?;
    let opts = resilience_options(args, telem.clone())?;
    // The artifact-level faults (corruption, transient I/O at load time)
    // are driven by their own injector; training consumes the plan's
    // remaining events through `train_fae_resilient`.
    let mut loader_injector = FaultInjector::new(opts.plan.clone());
    let seed: u64 = args.num("seed", 1u64)?;
    let cal_cfg = calibrator_config(args, &spec)?;
    let batch: usize = args.num("batch", spec.minibatch_size.min(256))?;
    let rebuild_inputs: usize = args.num("inputs", spec.num_inputs.min(50_000))?;
    let (art, name, load_recoveries) = artifacts::load_or_rebuild_with(
        &stream,
        &spec.name,
        &mut loader_injector,
        &RetryPolicy::default(),
        || {
            let ds = generate(&spec, &GenOptions::sized(seed, rebuild_inputs));
            pipeline::prepare_with(
                &ds,
                cal_cfg,
                &PreprocessConfig { minibatch_size: batch, seed },
                &telem,
            )
        },
        &telem,
    )
    .map_err(|e| e.to_string())?;
    println!("loaded preprocessed stream for '{name}'");
    for r in &load_recoveries {
        println!("recovery: {r}");
    }
    let inputs: usize = args.num("test-inputs", 5_000)?;
    let test = generate(&spec, &GenOptions::sized(args.num("seed", 2u64)?, inputs));
    let distributed: usize = args.num("distributed", 0usize)?;
    let mut cfg = train_config(args, &spec)?;
    let report = if distributed > 0 {
        if cfg.quantize_cold {
            return Err(
                "--quantize-cold is unsupported with --distributed: nodes ship whole-table f32 views"
                    .into(),
            );
        }
        if cfg.lookahead > 0 || cfg.stale_skip > 0.0 {
            return Err(
                "--lookahead/--stale-skip are unsupported with --distributed: nodes sync full hot bags and apply every sparse update eagerly"
                    .into(),
            );
        }
        // One worker process per shard: the engine worker count and the
        // node count are the same knob in a distributed run.
        cfg.workers = distributed;
        train_distributed(args, &spec, &art.preprocessed, &test, &cfg, distributed, &opts)?
    } else {
        fae::core::train_fae_resilient(&spec, &art.preprocessed, &test, &cfg, &opts)
    };
    println!(
        "test accuracy {:.2}% | loss {:.4} | simulated {:.1}s | {} syncs | final rate R({})",
        report.final_test.accuracy * 100.0,
        report.final_test.loss,
        report.simulated_seconds,
        report.transitions,
        report.final_rate.unwrap_or(0)
    );
    println!("model digest {:08x}", report.model_digest);
    if report.interrupted {
        println!("run interrupted by --halt-after (resume with --resume true)");
    }
    for f in &report.faults {
        println!("fault: {f}");
    }
    for r in &report.recoveries {
        println!("recovery: {r}");
    }
    for t in telem.events() {
        if let telemetry::JournalEvent::Alert { step, rule, message, .. } = t.event {
            println!("alert fired @{step} [{rule}]: {message}");
        }
    }
    if let Some(p) = args.get("metrics-out") {
        telem.write_metrics(std::path::Path::new(p)).map_err(|e| format!("--metrics-out: {e}"))?;
        println!("metrics written to {p}");
    }
    if let Some(p) = args.get("trace-out") {
        // Distributed runs with a journal get the cross-node merged
        // trace (one track group per node); everything else renders the
        // single-timeline export from the retained event stream.
        let sidecars = telem.sidecar_paths();
        let trace = if distributed > 0 && args.get("journal").is_some() && !sidecars.is_empty() {
            let mut paths = vec![PathBuf::from(args.get("journal").expect("checked"))];
            paths.extend(sidecars);
            let merged = merge_journals(&paths)?;
            telemetry::merged_chrome_trace(&merged).map_err(|e| format!("--trace-out: {e}"))?
        } else {
            telemetry::chrome_trace(&telem.events()).map_err(|e| format!("--trace-out: {e}"))?
        };
        std::fs::write(p, trace).map_err(|e| format!("--trace-out: {e}"))?;
        println!("chrome trace written to {p} (open in Perfetto / chrome://tracing)");
    }
    if let Some(p) = args.get("journal") {
        for s in telem.sidecar_paths() {
            println!("node journal written to {}", s.display());
        }
        println!("journal written to {p} (summarize with `fae report {p}`)");
    }
    Ok(())
}

/// Reads each journal as a tagged stream and merges them on the
/// simulated clock.
fn merge_journals(paths: &[PathBuf]) -> Result<Vec<TaggedEvent>, String> {
    let mut streams = Vec::new();
    for p in paths {
        streams.push(telemetry::read_tagged_journal(p)?);
    }
    Ok(telemetry::merge_tagged(&streams).0)
}

/// Multi-process training: binds a coordinator port on loopback, spawns
/// `workers` copies of this binary running `fae node` against it, and
/// trains through [`RemoteEngine`]. The fault plan (if any) is forwarded
/// to every node so both sides derive the same crash victims.
fn train_distributed(
    args: &Args,
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
    workers: usize,
    opts: &ResilienceOptions,
) -> Result<TrainReport, String> {
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("--distributed: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let exe = std::env::current_exe().map_err(|e| format!("--distributed: {e}"))?;
    let mut children = Vec::new();
    for k in 0..workers {
        let mut c = std::process::Command::new(&exe);
        c.arg("node")
            .arg("--connect")
            .arg(&addr)
            .arg("--node-id")
            .arg(k.to_string())
            .arg("--workers")
            .arg(workers.to_string());
        if let Some(p) = args.get("fault-plan") {
            c.arg("--fault-plan").arg(p);
            c.arg("--fault-seed").arg(args.get("fault-seed").unwrap_or("0"));
        }
        children.push(c.spawn().map_err(|e| format!("spawn node {k}: {e}"))?);
    }
    println!("coordinator on {addr}, {workers} node processes spawned");
    let seed = cfg.seed;
    let num_gpus = cfg.num_gpus;
    let plan = opts.plan.clone();
    let net = NetConfig {
        telemetry_every_steps: args.num("telemetry-every", 4u64)?,
        ..NetConfig::default()
    };
    let report = train_fae_with_engine(spec, pre, test, cfg, opts, move |model| {
        RemoteEngine::new(model, spec, seed, workers, num_gpus, listener, net, plan)
            .expect("coordinator start: all nodes must join within the initial wait")
    });
    for (k, mut child) in children.into_iter().enumerate() {
        let status = child.wait().map_err(|e| format!("node {k}: {e}"))?;
        if !status.success() {
            return Err(format!("node {k} exited with {status}"));
        }
    }
    Ok(report)
}

fn cmd_node(args: &Args) -> Result<(), String> {
    let addr = args.get("connect").ok_or("--connect required")?.to_string();
    let node_id: u32 = args.num("node-id", 0u32)?;
    let workers: u32 = args.num("workers", 1u32)?;
    if node_id >= workers {
        return Err(format!("--node-id {node_id} out of range for --workers {workers}"));
    }
    let plan = match args.get("fault-plan") {
        Some(spec) => FaultPlan::parse_seeded(spec, args.num("fault-seed", 0u64)?)
            .map_err(|e| format!("--fault-plan: {e}"))?,
        None => FaultPlan::none(),
    };
    run_node(NodeConfig { addr, node_id, workers, net: NetConfig::default(), plan })
        .map_err(|e| format!("node {node_id}: {e}"))
}

/// `fae report J1 [J2 ...] [--merged]`: one journal renders directly;
/// several (or `--merged`) are merged on the simulated clock first,
/// with the cross-node per-phase invariant checked and reported.
fn cmd_report(rest: &[String]) -> Result<(), String> {
    let merged_flag = rest.iter().any(|a| a == "--merged");
    let paths: Vec<PathBuf> = rest.iter().filter(|a| *a != "--merged").map(PathBuf::from).collect();
    if paths.is_empty() {
        return Err("usage: fae report JOURNAL.jsonl [MORE.jsonl ...] [--merged]".into());
    }
    let tagged = if paths.len() > 1 || merged_flag {
        let merged = merge_journals(&paths)?;
        match telemetry::check_invariant(&merged) {
            Ok(inv) => println!(
                "merged invariant: {:.6}s across {} nodes == reported {:.6}s",
                inv.global,
                inv.per_node.len(),
                inv.reported.unwrap_or(inv.global)
            ),
            Err(e) => println!("merged invariant VIOLATED: {e}"),
        }
        merged
    } else {
        telemetry::read_tagged_journal(&paths[0])?
    };
    if tagged.is_empty() {
        return Err(format!("{}: journal contains no events", paths[0].display()));
    }
    let summary = telemetry::summarize(&tagged);
    print!("{}", telemetry::render(&summary));
    Ok(())
}

/// `fae top JOURNAL [MORE ...] [--refresh-ms N] [--iterations N]`:
/// re-reads the journals (the coordinator's live stream *is* its
/// journal file — every event is flushed as it happens) and repaints a
/// plain-text dashboard. Sidecar journals next to the first path
/// (`stem.nodeK.jsonl`) are picked up automatically as they appear.
/// `--iterations 0` refreshes until interrupted.
fn cmd_top(rest: &[String]) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut refresh_ms: u64 = 1000;
    let mut iterations: u64 = 0;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--refresh-ms" | "--iterations" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                let n: u64 = v.parse().map_err(|_| format!("{a}: cannot parse '{v}'"))?;
                if a == "--refresh-ms" {
                    refresh_ms = n.max(50);
                } else {
                    iterations = n;
                }
            }
            _ => paths.push(PathBuf::from(a)),
        }
    }
    if paths.is_empty() {
        return Err("usage: fae top JOURNAL.jsonl [--refresh-ms N] [--iterations N]".into());
    }
    let mut done: u64 = 0;
    loop {
        let mut all = paths.clone();
        for s in telemetry::discover_sidecars(&paths[0]) {
            if !all.contains(&s) {
                all.push(s);
            }
        }
        let mut streams = Vec::new();
        for p in &all {
            // A journal that does not exist yet (worker not polled) is
            // an empty stream, not an error — the run may still produce it.
            streams.push(telemetry::read_tagged_journal(p).unwrap_or_default());
        }
        let (merged, _) = telemetry::merge_tagged(&streams);
        // Repaint: clear screen, home the cursor, render one frame.
        print!("\x1b[2J\x1b[H{}", telemetry::render_top(&merged));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        done += 1;
        if iterations > 0 && done >= iterations {
            return Ok(());
        }
        if merged.iter().any(|t| matches!(t.event, telemetry::JournalEvent::RunEnd { .. }))
            && iterations == 0
        {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
    }
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let spec = workload_from(args)?;
    let inputs: usize = args.num("inputs", spec.num_inputs.min(30_000))?;
    let ds = generate(&spec, &GenOptions::sized(args.num("seed", 1u64)?, inputs));
    let (train, test) = ds.split(0.2);
    let cfg = train_config(args, &spec)?;
    let art = pipeline::prepare(
        &train,
        calibrator_config(args, &spec)?,
        &PreprocessConfig { minibatch_size: cfg.minibatch_size, seed: args.num("seed", 1u64)? },
    );
    let (base, fae_r) = pipeline::compare(&spec, &train, &test, &art, &cfg);
    println!(
        "baseline: acc {:.2}%  {:.1}s  {:.1}W",
        base.final_test.accuracy * 100.0,
        base.simulated_seconds,
        base.avg_gpu_power_w
    );
    println!(
        "FAE:      acc {:.2}%  {:.1}s  {:.1}W  ({:.2}x speedup, {:.1}% hot inputs)",
        fae_r.final_test.accuracy * 100.0,
        fae_r.simulated_seconds,
        fae_r.avg_gpu_power_w,
        base.simulated_seconds / fae_r.simulated_seconds,
        art.preprocessed.hot_input_fraction * 100.0
    );
    Ok(())
}

fn serve_config(args: &Args) -> Result<ServeConfig, String> {
    Ok(ServeConfig {
        max_batch: args.num("max-batch", 32usize)?,
        max_delay_s: args.num("max-delay-us", 2000u64)? as f64 * 1e-6,
        queue_cap: args.num("queue-cap", 1024usize)?,
        workers: args.num("serve-workers", 2usize)?,
        cold_cache_rows: args.num("cache-rows", 4096usize)?,
        freq_window: args.num("cache-window", 4096usize)?,
        seed: args.num("seed", 1u64)?,
    })
}

/// Builds a serving engine: partitions from the preprocessed sidecar
/// (`--stream`) or an in-process calibration, model from the newest
/// checkpoint in `--checkpoint-dir` (or an explicit `--checkpoint`
/// file), falling back to a freshly initialised model.
fn serve_engine(args: &Args, spec: &WorkloadSpec, ds: &Dataset) -> Result<ServeEngine, String> {
    let partitions = match args.get("stream") {
        Some(p) => {
            let (art, name) = artifacts::load(Path::new(p)).map_err(|e| e.to_string())?;
            if name != spec.name {
                return Err(format!(
                    "--stream: preprocessed for workload '{name}', serving '{}'",
                    spec.name
                ));
            }
            art.preprocessed.partitions
        }
        None => calibrate_partitions(ds, calibrator_config(args, spec)?),
    };
    let cfg = serve_config(args)?;
    let ck_path = match args.get("checkpoint") {
        Some(p) => Some(PathBuf::from(p)),
        None => match args.get("checkpoint-dir") {
            Some(dir) => latest_in(Path::new(dir)).map_err(|e| format!("--checkpoint-dir: {e}"))?,
            None => None,
        },
    };
    match ck_path {
        Some(p) => {
            let ck = TrainCheckpoint::load(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            if ck.tables.len() != spec.tables.len() {
                return Err(format!(
                    "checkpoint has {} embedding tables, workload '{}' has {}",
                    ck.tables.len(),
                    spec.name,
                    spec.tables.len()
                ));
            }
            println!("serving checkpoint {} (step {})", p.display(), ck.steps);
            Ok(ServeEngine::from_checkpoint(spec.clone(), &ck, partitions, cfg))
        }
        None => {
            println!(
                "no checkpoint found; serving an untrained model \
                 (latency and cache behaviour are representative, scores are not)"
            );
            Ok(ServeEngine::untrained(spec.clone(), partitions, cfg))
        }
    }
}

fn serve_load(
    args: &Args,
    engine: &ServeEngine,
    spec: &WorkloadSpec,
    ds: &Dataset,
    seed: u64,
) -> Result<ServeLoad, String> {
    if let Some(p) = args.get("replay") {
        let trace = RequestTrace::load(Path::new(p)).map_err(|e| format!("--replay: {e}"))?;
        trace.validate(&spec.name, seed, ds.len()).map_err(|e| format!("--replay: {e}"))?;
        println!("replaying {} recorded requests from {p}", trace.requests.len());
        return Ok(ServeLoad::Open(trace.requests));
    }
    let total: usize = args.num("requests", 1024usize)?;
    let clients: usize = args.num("closed-clients", 0usize)?;
    if clients > 0 {
        return Ok(ServeLoad::Closed { clients, per_client: (total / clients).max(1) });
    }
    let rate: f64 = match args.get("arrival-rate") {
        Some(v) => v.parse().map_err(|_| format!("--arrival-rate: cannot parse '{v}'"))?,
        None => {
            // Default to 70% of nominal capacity: loaded but unsaturated.
            let cfg = engine.config();
            0.7 * cfg.workers as f64 * cfg.max_batch as f64
                / engine.estimated_batch_seconds().max(1e-9)
        }
    };
    Ok(ServeLoad::Open(open_loop_requests(total, rate, ds.len(), seed)))
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let spec = workload_from(args)?;
    let seed: u64 = args.num("seed", 1u64)?;
    let inputs: usize = args.num("inputs", spec.num_inputs.min(50_000))?;
    let ds = generate(&spec, &GenOptions::sized(seed, inputs));
    let mut engine = serve_engine(args, &spec, &ds)?;
    let telem = telemetry_from(args)?;
    engine.set_telemetry(telem.clone());
    let load = serve_load(args, &engine, &spec, &ds, seed)?;

    let report = engine.serve(&ds, &load);
    println!(
        "completed {} / rejected {} in {} batches (mean size {:.1}) over {:.4} simulated s",
        report.completed,
        report.rejected,
        report.batches,
        report.mean_batch_size,
        report.simulated_seconds
    );
    println!(
        "latency: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms | throughput {:.1} req/s",
        report.p50_ms, report.p95_ms, report.p99_ms, report.max_ms, report.throughput_rps
    );
    println!(
        "cache: hit rate {:.4} ({} pinned + {} dynamic hits, {} misses) | mean score {:.4}",
        report.hit_rate,
        report.cache.pinned_hits,
        report.cache.hits,
        report.cache.misses,
        report.mean_score
    );

    if let Some(p) = args.get("record") {
        let trace = RequestTrace {
            workload: spec.name.clone(),
            data_seed: seed,
            requests: report.requests.clone(),
        };
        trace.save(Path::new(p)).map_err(|e| format!("--record: {e}"))?;
        println!("recorded {} requests to {p} (replay with --replay {p})", trace.requests.len());
    }
    if let Some(p) = args.get("metrics-out") {
        telem.write_metrics(Path::new(p)).map_err(|e| format!("--metrics-out: {e}"))?;
        println!("metrics written to {p}");
    }
    if let Some(p) = args.get("trace-out") {
        let trace =
            telemetry::chrome_trace(&telem.events()).map_err(|e| format!("--trace-out: {e}"))?;
        std::fs::write(p, trace).map_err(|e| format!("--trace-out: {e}"))?;
        println!("chrome trace written to {p}");
    }
    if let Some(p) = args.get("journal") {
        println!("journal written to {p} (summarize with `fae report {p}`)");
    }

    // CI gates: fail loudly (nonzero exit) when the serve run degrades.
    let min_completed: u64 = args.num("min-completed", 0u64)?;
    if report.completed < min_completed {
        return Err(format!(
            "gate: completed {} < --min-completed {min_completed}",
            report.completed
        ));
    }
    let min_hit_rate: f64 = args.num("min-hit-rate", 0.0f64)?;
    if report.hit_rate < min_hit_rate {
        return Err(format!(
            "gate: cache hit rate {:.4} < --min-hit-rate {min_hit_rate}",
            report.hit_rate
        ));
    }
    Ok(())
}

fn cmd_bench_serve(args: &Args) -> Result<(), String> {
    let spec = if args.get("workload").is_some() || args.get("spec-file").is_some() {
        workload_from(args)?
    } else {
        WorkloadSpec::tiny_test()
    };
    let seed: u64 = args.num("seed", 1u64)?;
    let inputs: usize = args.num("inputs", spec.num_inputs.min(20_000))?;
    let ds = generate(&spec, &GenOptions::sized(seed, inputs));
    let engine = serve_engine(args, &spec, &ds)?;
    let sweep = saturation_sweep(&engine, &ds, args.num("requests", 400usize)?);

    println!(
        "\n== bench-serve: saturation sweep ({}, capacity {:.0} req/s) ==",
        sweep.workload, sweep.capacity_rps
    );
    println!(
        "{:>8} {:>12} {:>10} {:>9} {:>10} {:>10} {:>10} {:>12} {:>9}",
        "mode",
        "offered",
        "completed",
        "rejected",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "tput req/s",
        "hit rate"
    );
    for p in &sweep.points {
        println!(
            "{:>8} {:>12.1} {:>10} {:>9} {:>10.3} {:>10.3} {:>10.3} {:>12.1} {:>9.4}",
            p.mode,
            p.offered_rps,
            p.completed,
            p.rejected,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms,
            p.throughput_rps,
            p.hit_rate
        );
    }

    if let Some(out) = args.get("out") {
        let json = serde_json::to_string_pretty(&sweep_json(&sweep))
            .expect("Value serialization cannot fail");
        std::fs::write(out, json).map_err(|e| format!("--out: {e}"))?;
        println!("\n[saved {out}]");
    }
    Ok(())
}

const USAGE: &str =
    "usage: fae <gen|calibrate|preprocess|train|compare|serve|bench-serve|node|report|top> [--flag value]...
  common flags: --workload tiny|kaggle|taobao|terabyte | --spec-file FILE.json
                --inputs N  --seed S
  calibrate:    --budget-mb M  --small-table-kb K  --sample-rate R
  preprocess:   --out FILE  --batch B
  train:        --stream FILE  --epochs E  --gpus G  --lr LR
                --workers W   (execution-engine worker threads; 1 = serial)
                --quantize-cold true   (int8 cold tier for the master
                                        tables; hot rows stay exact f32.
                                        Not valid with --distributed)
                --lookahead N    (oracle lookahead over the next N known
                                  mini-batches: prefetch exactly the rows
                                  they touch instead of resyncing the whole
                                  hot bag. 0 = full-bag sync. Not valid
                                  with --distributed)
                --stale-skip T   (defer cold-row sparse updates until the
                                  accumulated step lr*|grad| reaches T, the
                                  row is about to be read, or a checkpoint
                                  flushes. 0 = apply eagerly. Not valid
                                  with --distributed)
                --fault-plan 'kind@step,...'  --fault-seed S
                  (kinds: device-loss replication-oom sync-failure
                          artifact-corruption transient-io)
                --checkpoint-dir DIR  --checkpoint-every ROUNDS
                --resume true|false   --halt-after STEPS
                --metrics-out FILE.json  --journal FILE.jsonl
                --trace-out FILE.json    --progress true  --progress-every N
                --distributed N   (spawn N `fae node` processes and train
                                   over the fae-net wire protocol; also
                                   accepts worker-crash/net-* fault kinds)
                --telemetry-every N  (poll workers for journal events
                                      every N steps; 0 disables shipping)
                --alerts 'heartbeat-gap>G,reshard-storm>K,hit-rate<X,steps-per-sec<S'
                (--metrics-out FILE.prom writes Prometheus text exposition)
  node:         --connect HOST:PORT  --node-id K  --workers N
                --fault-plan 'kind@step,...'  --fault-seed S
  serve:        --stream FILE | (in-process calibration)
                --checkpoint-dir DIR | --checkpoint FILE  (else untrained)
                --max-batch B  --max-delay-us U  --queue-cap Q
                --serve-workers W  --cache-rows R  --cache-window N
                --requests N  --arrival-rate RPS | --closed-clients C
                --record FILE | --replay FILE
                --min-completed N  --min-hit-rate F   (CI gates)
                --metrics-out FILE.json  --journal FILE.jsonl  --trace-out FILE.json
  bench-serve:  [--workload W] --requests N  [--out FILE.json]
                  (saturation sweep on simulated latencies: prints the
                   table; --out also writes it as JSON; takes serve's
                   engine flags)
  report:       fae report JOURNAL.jsonl [MORE.jsonl ...] [--merged]
                  (phase-breakdown table; several journals — or --merged —
                   merge on the simulated clock and check the cross-node
                   per-phase invariant)
  top:          fae top JOURNAL.jsonl [--refresh-ms N] [--iterations N]
                  (refreshing dashboard tailing a live journal; sidecar
                   node journals next to it are picked up automatically)
  compare:      --batch B  --epochs E  --gpus G  --workers W";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let run = || -> Result<(), String> {
        // `report` and `top` take positional journal paths, unlike the
        // --flag pairs every other subcommand parses.
        if cmd == "report" {
            return cmd_report(rest);
        }
        if cmd == "top" {
            return cmd_top(rest);
        }
        let (handler, known) =
            subcommand(cmd).ok_or_else(|| format!("unknown command '{cmd}'\n{USAGE}"))?;
        handler(&Args::parse(cmd, &known, rest)?)
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, flags: &[&str]) -> Result<Args, String> {
        let (_, known) = subcommand(cmd).expect("a flag-pair subcommand");
        let argv: Vec<String> = flags.iter().flat_map(|f| [format!("--{f}"), "1".into()]).collect();
        Args::parse(cmd, &known, &argv)
    }

    /// Every `--flag` token in `text` must be one `cmd` reads (`report`
    /// and `top` parse their own arguments).
    fn assert_accepts(cmd: &str, text: &str) {
        let Some((_, known)) = subcommand(cmd) else {
            assert!(["report", "top"].contains(&cmd), "unknown subcommand '{cmd}'");
            return;
        };
        for word in text.split_whitespace() {
            let Some(flag) = word.trim_start_matches(['(', '\'']).strip_prefix("--") else {
                continue;
            };
            let flag = flag.trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
            assert!(flag.is_empty() || known.contains(&flag), "'{cmd}' rejects --{flag}");
        }
    }

    #[test]
    fn a_misspelt_flag_is_rejected_by_every_subcommand() {
        for cmd in
            ["gen", "calibrate", "preprocess", "train", "compare", "serve", "bench-serve", "node"]
        {
            let err = parse(cmd, &["lookahed"]).err().expect("typo accepted");
            assert_eq!(err, format!("unknown flag --lookahed for '{cmd}'"));
        }
        // A flag another subcommand reads is still unknown to this one.
        assert!(parse("train", &["lookahead"]).is_ok());
        assert!(parse("node", &["lookahead"]).is_err());
    }

    #[test]
    fn every_flag_usage_names_for_a_subcommand_is_accepted_by_it() {
        // USAGE is "  name:  flags..." blocks with indented continuations;
        // the "common flags" block applies to everything but `node`.
        let mut blocks: Vec<(&str, String)> = Vec::new();
        for line in USAGE.lines().skip(1) {
            match line.trim_start().split_once(':') {
                Some((name, rest)) if line.starts_with("  ") && !line.starts_with("   ") => {
                    blocks.push((name, rest.to_string()));
                }
                _ => blocks.last_mut().expect("USAGE opens with a block").1.push_str(line),
            }
        }
        let (first, common) = blocks.remove(0);
        assert_eq!(first, "common flags");
        for (name, text) in &blocks {
            assert_accepts(name, text);
            if *name != "node" {
                assert_accepts(name, &common);
            }
        }
    }

    #[test]
    fn every_fae_command_line_in_the_ci_workflow_parses() {
        let ci = include_str!("../../.github/workflows/ci.yml");
        // One step's command runs up to the next step.
        let steps: Vec<&str> = ci
            .split("--bin fae -- ")
            .skip(1)
            .map(|chunk| chunk.split("\n      - ").next().unwrap_or(chunk))
            .collect();
        assert!(steps.len() >= 10, "found only {} `fae` command lines in ci.yml", steps.len());
        for step in steps {
            assert_accepts(step.split_whitespace().next().expect("a subcommand"), step);
        }
    }
}
