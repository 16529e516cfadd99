//! The benchmark's workload table: what each workload runs, at what
//! size, and why it exists. `BENCHMARK.json` carries only `name` and
//! `why` (its schema allows nothing else); the exact CLI lines, sizes,
//! modes and accuracy floors live here and are printed by
//! `bench/run.sh --list`.
//!
//! Sizing note: the reference host has 2 cores, so no workload keeps
//! more than 2 threads runnable, workloads run one at a time, and every
//! cold round is sized to ~1.5 s so that the 15 s measurement window
//! holds seven to eleven of them and a run stays inside the driver's
//! ~20 s per-run budget.

use std::path::Path;

/// What kind of job a workload's end-to-end round is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A cold `fae train` child over a stream `fae preprocess` wrote.
    Train,
    /// The static pipeline, warm and in-process (see the README for why
    /// this one workload is not a cold CLI child).
    Prep,
    /// A cold `fae serve` child (closed-loop clients).
    Serve,
}

/// One workload. Every size is an input count, never a duration, so the
/// same seed always produces the same work.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Kind of end-to-end round.
    pub kind: Kind,
    /// `--workload` value for the CLI (`kaggle` | `taobao`; `tiny` in
    /// smoke runs).
    pub spec: &'static str,
    /// Inputs generated for the end-to-end job: the training stream
    /// (`Train`), the preprocessed dataset (`Prep`) or the dataset the
    /// requests draw from (`Serve`).
    pub inputs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Calibrator sample rate (raised for small streams so the sampler
    /// still sees ~2 000 inputs and the hot share stays near 70 %).
    pub sample_rate: f64,
    /// SGD learning rate.
    pub lr: f32,
    /// `--workers` (execution-engine threads).
    pub workers: usize,
    /// `--distributed` node processes (0 = in-process).
    pub distributed: usize,
    /// `--quantize-cold`.
    pub quantize_cold: bool,
    /// `--lookahead`.
    pub lookahead: usize,
    /// `--stale-skip`.
    pub stale_skip: f32,
    /// Serve: total requests of a round.
    pub requests: usize,
    /// Serve: closed-loop clients.
    pub clients: usize,
    /// Output check: `test accuracy` of a train round must reach this.
    pub accuracy_floor: f64,
    /// Traced run: mini-batches of the stream the in-process training
    /// replay covers (0 = the whole stream). Non-zero only where the
    /// end-to-end job is not training, so the replay stays short.
    pub replay_batches: usize,
    /// Traced run: requests of the in-process `serve()` probe.
    pub serve_probe_requests: usize,
    /// Traced run: steps driven through `RemoteEngine` + one node thread.
    pub net_probe_steps: usize,
}

const BASE: Workload = Workload {
    name: "",
    why: "",
    kind: Kind::Train,
    spec: "kaggle",
    inputs: 0,
    batch: 256,
    sample_rate: 0.05,
    lr: 0.05,
    workers: 1,
    distributed: 0,
    quantize_cold: false,
    lookahead: 0,
    stale_skip: 0.0,
    requests: 0,
    clients: 64,
    accuracy_floor: 0.0,
    replay_batches: 0,
    serve_probe_requests: 6_400,
    net_probe_steps: 24,
};

/// The seven workloads, in the order they run.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "train_hot_mlp",
        why: "Kaggle DLRM, ~0.4 GFLOP of MLP per step against 26 lookups per sample: fae-nn does most of the work, fae-embed and the trainer loop little.",
        inputs: 10_000,
        sample_rate: 0.2,
        lr: 0.15,
        accuracy_floor: 0.40,
        net_probe_steps: 12,
        ..BASE
    },
    Workload {
        name: "train_hot_mlp_w2",
        why: "The same stream through ParallelEngine at W = nproc = 2: isolates engine fan-out and reduce cost, and predicts no change on train_hot_mlp.",
        inputs: 10_000,
        sample_rate: 0.2,
        lr: 0.15,
        workers: 2,
        accuracy_floor: 0.40,
        net_probe_steps: 12,
        ..BASE
    },
    Workload {
        name: "train_seq_embed",
        why: "Taobao TBSM, 43 lookups per sample and tiny MLPs: ms-scale steps, so fae-embed gather/scatter and fae-core's per-step loop dominate and fae-nn is idle.",
        spec: "taobao",
        inputs: 150_000,
        accuracy_floor: 0.40,
        ..BASE
    },
    Workload {
        name: "train_seq_modes",
        why: "The same Taobao stream with int8 cold tier, lookahead 32 and stale-skip: the same layers used differently, so a mode-overhead change shows here and not on train_seq_embed.",
        spec: "taobao",
        inputs: 150_000,
        quantize_cold: true,
        lookahead: 32,
        stale_skip: 1e-4,
        accuracy_floor: 0.40,
        ..BASE
    },
    Workload {
        name: "prep_static",
        why: "Calibrator, classifier, input processor and FAE format on 100k Kaggle inputs, no model: fae-core static stages and fae-data do all the work (warm, in-process).",
        kind: Kind::Prep,
        inputs: 100_000,
        replay_batches: 16,
        net_probe_steps: 8,
        ..BASE
    },
    Workload {
        name: "serve_batch",
        why: "64 closed-loop clients against fae-serve's batcher and cache: read-only use of fae-models and fae-embed, beside the read+write training use.",
        kind: Kind::Serve,
        inputs: 60_000,
        requests: 64_000,
        replay_batches: 16,
        serve_probe_requests: 64_000,
        net_probe_steps: 8,
        ..BASE
    },
    Workload {
        name: "net_loopback",
        why: "Taobao over one fae node process on loopback: framing, CRC, RPC and apply-broadcast are over half the wall; predicts no change from fae-nn work.",
        spec: "taobao",
        inputs: 60_000,
        distributed: 1,
        accuracy_floor: 0.40,
        net_probe_steps: 0,
        ..BASE
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The `--smoke` variant: the same CLI line and checks on tiny
    /// inputs — the 4-table `tiny` DLRM stands in for kaggle, whose
    /// tables alone take longer to initialise than a smoke run may —
    /// with the accuracy floor lowered to below chance (a 12-step model
    /// has learnt nothing yet).
    pub fn smoke(self) -> Self {
        let tiny = match self.kind {
            Kind::Prep => 10_000,
            Kind::Serve => 6_000,
            Kind::Train if self.spec == "kaggle" => 3_000,
            Kind::Train => 12_000,
        };
        Self {
            spec: if self.spec == "kaggle" { "tiny" } else { self.spec },
            inputs: tiny,
            sample_rate: self.sample_rate.max(0.25),
            requests: self.requests.min(2_048),
            accuracy_floor: if self.accuracy_floor > 0.0 { 0.30 } else { 0.0 },
            replay_batches: if self.replay_batches > 0 { 4 } else { 0 },
            serve_probe_requests: 1_024,
            net_probe_steps: if self.net_probe_steps > 0 { 4 } else { 0 },
            ..self
        }
    }

    /// Items one end-to-end round processes: training samples, inputs
    /// preprocessed, or requests served.
    pub fn items_per_round(&self) -> usize {
        match self.kind {
            Kind::Train | Kind::Prep => self.inputs,
            Kind::Serve => self.requests,
        }
    }

    /// What the item of `items_per_s` is on this workload.
    pub fn item_name(&self) -> &'static str {
        match self.kind {
            Kind::Train => "samples",
            Kind::Prep => "inputs",
            Kind::Serve => "requests",
        }
    }

    /// Arguments of the cold set-up child: `fae preprocess` writing the
    /// stream (`Train`), or a `fae serve` that generates, calibrates and
    /// builds the engine but serves next to nothing (`Serve`). `Prep`
    /// sets up in-process and has no CLI line.
    pub fn setup_args(&self, seed: u64, stream: &Path) -> Vec<String> {
        let mut a = vec![];
        match self.kind {
            Kind::Train => {
                push(&mut a, &["preprocess", "--workload", self.spec]);
                push_kv(&mut a, "--inputs", self.inputs);
                push_kv(&mut a, "--batch", self.batch);
                push_kv(&mut a, "--sample-rate", self.sample_rate);
                push_kv(&mut a, "--seed", seed);
                push_kv(&mut a, "--out", stream.display());
            }
            Kind::Serve => {
                a = self.round_args(seed, stream);
                let at =
                    a.iter().position(|s| s == "--requests").expect("serve line has --requests");
                a[at + 1] = self.clients.to_string();
            }
            Kind::Prep => {}
        }
        a
    }

    /// Arguments of one timed round's cold child (`Train`, `Serve`).
    pub fn round_args(&self, seed: u64, stream: &Path) -> Vec<String> {
        let mut a = vec![];
        match self.kind {
            Kind::Train => {
                push(&mut a, &["train", "--workload", self.spec]);
                push_kv(&mut a, "--stream", stream.display());
                push_kv(&mut a, "--batch", self.batch);
                push_kv(&mut a, "--gpus", 2);
                push_kv(&mut a, "--lr", self.lr);
                push_kv(&mut a, "--seed", seed);
                if self.workers > 1 {
                    push_kv(&mut a, "--workers", self.workers);
                }
                if self.quantize_cold {
                    push_kv(&mut a, "--quantize-cold", true);
                }
                if self.lookahead > 0 {
                    push_kv(&mut a, "--lookahead", self.lookahead);
                }
                if self.stale_skip > 0.0 {
                    push_kv(&mut a, "--stale-skip", self.stale_skip);
                }
                if self.distributed > 0 {
                    push_kv(&mut a, "--distributed", self.distributed);
                }
            }
            Kind::Serve => {
                push(&mut a, &["serve", "--workload", self.spec]);
                push_kv(&mut a, "--inputs", self.inputs);
                push_kv(&mut a, "--sample-rate", self.sample_rate);
                push_kv(&mut a, "--requests", self.requests);
                push_kv(&mut a, "--closed-clients", self.clients);
                push_kv(&mut a, "--seed", seed);
            }
            Kind::Prep => {}
        }
        a
    }

    /// The round's CLI line without `--distributed`: the in-process
    /// reference a distributed round's digest must equal.
    pub fn reference_args(&self, seed: u64, stream: &Path) -> Vec<String> {
        Self { distributed: 0, ..*self }.round_args(seed, stream)
    }
}

fn push(a: &mut Vec<String>, items: &[&str]) {
    a.extend(items.iter().map(|s| s.to_string()));
}

fn push_kv(a: &mut Vec<String>, key: &str, value: impl std::fmt::Display) {
    a.push(key.to_string());
    a.push(value.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_lines_are_flag_value_pairs() {
        let stream = Path::new("s.fae");
        for w in WORKLOADS {
            for args in [w.setup_args(11, stream), w.round_args(11, stream)] {
                if w.kind == Kind::Prep {
                    assert!(args.is_empty());
                    continue;
                }
                // `fae` parses a subcommand followed by `--flag value` pairs.
                assert_eq!(args.len() % 2, 1, "{}: {args:?}", w.name);
                assert!(args[1..].chunks(2).all(|p| p[0].starts_with("--")), "{args:?}");
                assert!(args.contains(&"--seed".to_string()));
            }
        }
    }

    #[test]
    fn serve_setup_serves_next_to_nothing() {
        let w = find("serve_batch").unwrap();
        let a = w.setup_args(3, Path::new("unused"));
        let at = a.iter().position(|s| s == "--requests").unwrap();
        assert_eq!(a[at + 1], "64");
    }

    #[test]
    fn distributed_reference_drops_only_the_flag() {
        let w = find("net_loopback").unwrap();
        let round = w.round_args(5, Path::new("s.fae"));
        let reference = w.reference_args(5, Path::new("s.fae"));
        assert!(round.contains(&"--distributed".to_string()));
        assert_eq!(&round[..round.len() - 2], &reference[..]);
    }

    #[test]
    fn smoke_keeps_the_cli_shape() {
        for w in WORKLOADS {
            let s = w.smoke();
            assert!(s.inputs < w.inputs);
            assert_eq!(
                s.round_args(1, Path::new("s")).len(),
                w.round_args(1, Path::new("s")).len()
            );
        }
    }
}
