//! One workload's end-to-end measurement: cold child rounds for the
//! measurement window with the set-up runs spread between them, every
//! round's output checked. The program under test is seen only through
//! its command line, its standard output and the kernel's accounting of
//! the child.

use std::path::{Path, PathBuf};
use std::time::Instant;

use perf_common::child::{run_child, ChildRun};
use perf_common::parse::{parse_preprocess, parse_serve, parse_train, PreprocessOutput};
use perf_common::report::Outcome;
use perf_common::stats::{fastest_gap_share, iqr_share, Summary};
use perf_common::workloads::{Kind, Workload};
use perf_common::{flag_args, setup_due, SETUP_REPS};
use serde_json::{json, Value};

/// Where the binaries are and how long to measure.
pub struct Plan {
    /// Workload seed, forwarded to the CLI as `--seed`.
    pub seed: u64,
    /// Measurement window: rounds and set-up runs start until this
    /// many seconds passed.
    pub seconds: f64,
    /// Smoke run: one round, one set-up.
    pub smoke: bool,
    /// The release `fae` binary.
    pub fae: PathBuf,
    /// The `perf-layers` binary (runs `prep_static` in-process).
    pub layers: PathBuf,
    /// Scratch directory for streams and child output.
    pub work_dir: PathBuf,
}

impl Plan {
    fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    fn min_rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// Raw samples of one workload's end-to-end run.
pub struct Measured {
    /// Operations, failures and the end-to-end metrics.
    pub outcome: Outcome,
    /// Wall seconds of each set-up run.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each timed round.
    pub round_wall_s: Vec<f64>,
    /// Peak RSS (MiB) of each timed round.
    pub round_rss_mib: Vec<f64>,
    /// Exit status of every child, in spawn order.
    pub child_status: Vec<String>,
    /// What the rounds agreed on (digest, accuracy, scores, ...).
    pub facts: Value,
}

impl Measured {
    fn new() -> Self {
        Self {
            outcome: Outcome::default(),
            setup_s: Vec::new(),
            round_wall_s: Vec::new(),
            round_rss_mib: Vec::new(),
            child_status: Vec::new(),
            facts: Value::Null,
        }
    }

    /// Per-round samples of each end-to-end metric, for the noise guard
    /// and the raw record.
    pub fn samples(&self, w: &Workload, metric: &str) -> Vec<f64> {
        match metric {
            "items_per_s" => {
                self.round_wall_s.iter().map(|s| w.items_per_round() as f64 / s).collect()
            }
            "peak_rss_mib" => self.round_rss_mib.clone(),
            "setup_s" => self.setup_s.clone(),
            _ => Vec::new(),
        }
    }

    /// How far a pass's own samples put its value in doubt, as a share
    /// of it. The two timings are fastest samples: the gap up to the
    /// third fastest says whether two more samples bear the fastest one
    /// out. Peak RSS: IQR / median of the rounds.
    pub fn own_spread(&self, metric: &str) -> f64 {
        match metric {
            "items_per_s" => fastest_gap_share(&self.round_wall_s),
            "setup_s" => fastest_gap_share(&self.setup_s),
            _ => iqr_share(&self.round_rss_mib),
        }
    }

    fn finish(mut self, w: &Workload) -> Self {
        let peak = self.round_rss_mib.iter().copied().fold(f64::NAN, f64::max);
        // Interference only ever adds time: the fastest sample is the
        // one least touched by it (see metrics::E2E).
        let fastest_round = Summary::of(&self.round_wall_s).min;
        self.outcome.metric("items_per_s", w.items_per_round() as f64 / fastest_round);
        self.outcome.metric("peak_rss_mib", peak);
        self.outcome.metric("setup_s", Summary::of(&self.setup_s).min);
        self
    }

    /// The raw record for `result.json`.
    pub fn to_json(&self) -> Value {
        json!({
            "metrics": self.outcome.metrics_json(),
            "attempted": self.outcome.attempted,
            "failed": self.outcome.failed,
            "failures": self.outcome.failures,
            "setup_s": self.setup_s,
            "round_wall_s": self.round_wall_s,
            "round_rss_mib": self.round_rss_mib,
            "child_status": self.child_status,
            "facts": self.facts,
        })
    }

    /// Prints every metric by name with its unit, and the spread of the
    /// rounds behind it.
    pub fn print(&self, w: &Workload) {
        println!(
            "== end-to-end: {} ({} {} per round) ==",
            w.name,
            w.items_per_round(),
            w.item_name()
        );
        for (name, value) in &self.outcome.metrics {
            let s = Summary::of(&self.samples(w, name));
            println!(
                "{:<18} {:>14.4} {:<5} n={} min {:.4} max {:.4} iqr {:.1}%",
                name,
                value,
                perf_common::metrics::unit_of(name).unwrap_or("?"),
                s.n,
                s.min,
                s.max,
                s.iqr_share * 100.0
            );
        }
        let walls: Vec<String> = self.round_wall_s.iter().map(|s| format!("{s:.3}")).collect();
        println!("round walls (s): {}", walls.join(" "));
        println!(
            "facts: {}",
            serde_json::to_string(&self.facts).expect("Value serialization cannot fail")
        );
        for f in &self.outcome.failures {
            println!("FAILED: {f}");
        }
    }
}

struct Runner<'a> {
    plan: &'a Plan,
    m: Measured,
}

impl Runner<'_> {
    /// Spawns one child, records its status, counts it as an operation.
    fn child(&mut self, program: &Path, args: &[String], what: &str) -> Result<ChildRun, String> {
        let run = run_child(program, args, &self.plan.work_dir)
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        self.m.child_status.push(format!("{what}: {}", run.status_text()));
        self.m.outcome.check(run.ok(), || {
            format!("{what} ended with {}: {}", run.status_text(), run.stderr.trim())
        });
        Ok(run)
    }

    fn record_round(&mut self, run: &ChildRun) {
        self.m.round_wall_s.push(run.wall_s);
        self.m.round_rss_mib.push(run.reaped.peak_rss_mib);
    }

    /// True while another timed round should start.
    fn more_rounds(&self, started: Instant) -> bool {
        let n = self.m.round_wall_s.len();
        n < self.plan.min_rounds()
            || (!self.plan.smoke && started.elapsed().as_secs_f64() < self.plan.seconds)
    }

    /// True when the next set-up run should go before the next round.
    fn setup_due(&self, started: Instant) -> bool {
        let (done, reps) = (self.m.setup_s.len(), self.plan.setup_reps());
        setup_due(done, reps, started.elapsed().as_secs_f64(), self.plan.seconds)
    }

    /// One cold set-up child, timed.
    fn setup(&mut self, args: &[String]) -> Result<ChildRun, String> {
        let plan = self.plan;
        let run = self.child(&plan.fae, args, &format!("set-up {}", self.m.setup_s.len()))?;
        self.m.setup_s.push(run.wall_s);
        Ok(run)
    }

    /// `fae preprocess` writing the stream (again: the same bytes).
    fn write_stream(
        &mut self,
        args: &[String],
        written: &mut Vec<PreprocessOutput>,
    ) -> Result<(), String> {
        let run = self.setup(args)?;
        match parse_preprocess(&run.stdout) {
            Ok(p) => written.push(p),
            Err(e) => self.m.outcome.check(false, || e),
        }
        Ok(())
    }

    fn train(&mut self, w: &Workload) -> Result<(), String> {
        let plan = self.plan;
        let stream = plan.work_dir.join("stream.fae");
        let setup_args = w.setup_args(plan.seed, &stream);
        let mut written = Vec::new();
        self.write_stream(&setup_args, &mut written)?;

        // A distributed round must train the very model the in-process
        // engine trains: one untimed reference run pins the digest.
        let mut want_digest = None;
        if w.distributed > 0 {
            let run = self.child(
                &plan.fae,
                &w.reference_args(plan.seed, &stream),
                "in-process reference",
            )?;
            match parse_train(&run.stdout) {
                Ok(t) => want_digest = Some(t.digest),
                Err(e) => self.m.outcome.check(false, || format!("reference: {e}")),
            }
        }

        let mut outputs = Vec::new();
        let started = Instant::now();
        while self.more_rounds(started) {
            if self.setup_due(started) {
                self.write_stream(&setup_args, &mut written)?;
            }
            let i = self.m.round_wall_s.len();
            let run =
                self.child(&plan.fae, &w.round_args(plan.seed, &stream), &format!("round {i}"))?;
            self.record_round(&run);
            match parse_train(&run.stdout) {
                Ok(t) => {
                    let want = want_digest.get_or_insert_with(|| t.digest.clone()).clone();
                    self.m.outcome.check(t.digest == want, || {
                        format!("round {i}: model digest {} != {want}", t.digest)
                    });
                    self.m.outcome.check(t.accuracy >= w.accuracy_floor, || {
                        format!(
                            "round {i}: test accuracy {} below floor {}",
                            t.accuracy, w.accuracy_floor
                        )
                    });
                    outputs.push(t);
                }
                Err(e) => self.m.outcome.check(false, || format!("round {i}: {e}")),
            }
        }
        self.m
            .outcome
            .check(written.windows(2).all(|p| p[0] == p[1]) && !written.is_empty(), || {
                "fae preprocess wrote different streams for the same seed".to_string()
            });
        if let (Some(t), Some(p)) = (outputs.first(), written.first()) {
            self.m.facts = json!({
                "model_digest": t.digest,
                "test_accuracy": t.accuracy,
                "test_loss": t.loss,
                "simulated_s": t.simulated_s,
                "syncs": t.syncs,
                "hot_batches": p.hot_batches,
                "cold_batches": p.cold_batches,
                "hot_input_fraction": p.hot_input_fraction,
            });
        }
        Ok(())
    }

    fn serve(&mut self, w: &Workload) -> Result<(), String> {
        let plan = self.plan;
        let unused = plan.work_dir.join("unused");
        let setup_args = w.setup_args(plan.seed, &unused);
        let mut first = None;
        let started = Instant::now();
        while self.more_rounds(started) {
            if self.setup_due(started) {
                self.setup(&setup_args)?;
            }
            let i = self.m.round_wall_s.len();
            let run =
                self.child(&plan.fae, &w.round_args(plan.seed, &unused), &format!("round {i}"))?;
            self.record_round(&run);
            match parse_serve(&run.stdout) {
                Ok(s) => {
                    // A refused request is a failed operation in its own right.
                    self.m.outcome.check(s.rejected == 0, || {
                        format!("round {i}: {} requests rejected", s.rejected)
                    });
                    self.m.outcome.check(s.completed as usize == w.requests, || {
                        format!("round {i}: completed {} of {} requests", s.completed, w.requests)
                    });
                    let want = first.get_or_insert_with(|| s.clone());
                    self.m.outcome.check(
                        s.mean_score == want.mean_score && s.hit_rate == want.hit_rate,
                        || format!("round {i}: mean score / hit rate differ from round 0"),
                    );
                }
                Err(e) => self.m.outcome.check(false, || format!("round {i}: {e}")),
            }
        }
        if let Some(s) = first {
            self.m.facts = json!({
                "completed": s.completed,
                "batches": s.batches,
                "mean_batch_size": s.mean_batch_size,
                "hit_rate": s.hit_rate,
                "mean_score": s.mean_score,
            });
        }
        Ok(())
    }

    /// `prep_static`: one `perf-layers --e2e-prep` child sets up and
    /// runs the warm rounds in-process and reports them as JSON; the
    /// kernel's accounting of that child gives the peak RSS.
    fn prep(&mut self, w: &Workload) -> Result<(), String> {
        let plan = self.plan;
        let args = flag_args(&[
            ("--e2e-prep", "1".to_string()),
            ("--workload", w.name.to_string()),
            ("--seed", plan.seed.to_string()),
            ("--seconds", plan.seconds.to_string()),
            ("--smoke", u8::from(plan.smoke).to_string()),
        ]);
        let run = self.child(&plan.layers, &args, "in-process rounds")?;
        let line = run.stdout.lines().last().unwrap_or_default();
        let doc: Value = serde_json::from_str(line)
            .map_err(|e| format!("perf-layers --e2e-prep output: {e}"))?;
        self.m.setup_s = doc
            .get("setup_s")
            .and_then(Value::as_array)
            .map_or_else(Vec::new, |a| a.iter().filter_map(Value::as_f64).collect());
        let rounds = doc.get("rounds").and_then(Value::as_array).cloned().unwrap_or_default();
        let field = |r: &Value, k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let first_fraction = rounds.first().map_or(f64::NAN, |r| field(r, "hot_input_fraction"));
        for (i, r) in rounds.iter().enumerate() {
            self.m.round_wall_s.push(field(r, "wall_s"));
            // One process ran every round: its peak is each round's peak.
            self.m.round_rss_mib.push(run.reaped.peak_rss_mib);
            self.m.outcome.check(
                field(r, "decoded_batches") == field(r, "encoded_batches")
                    && field(r, "samples") == w.inputs as f64
                    && field(r, "hot_input_fraction") == first_fraction,
                || format!("round {i}: decoded stream or hot share differs: {r:?}"),
            );
        }
        self.m.outcome.check(!rounds.is_empty(), || "no in-process round was reported".to_string());
        self.m.facts = json!({
            "hot_input_fraction": first_fraction,
            "batches": rounds.first().map_or(f64::NAN, |r| field(r, "encoded_batches")),
        });
        Ok(())
    }
}

/// Measures one workload end to end.
pub fn measure(w: &Workload, plan: &Plan) -> Result<Measured, String> {
    std::fs::create_dir_all(&plan.work_dir)
        .map_err(|e| format!("{}: {e}", plan.work_dir.display()))?;
    let mut r = Runner { plan, m: Measured::new() };
    match w.kind {
        Kind::Train => r.train(w)?,
        Kind::Serve => r.serve(w)?,
        Kind::Prep => r.prep(w)?,
    }
    // Streams are tens of MiB; nothing later reads them.
    let _ = std::fs::remove_dir_all(&plan.work_dir);
    Ok(r.m.finish(w))
}
