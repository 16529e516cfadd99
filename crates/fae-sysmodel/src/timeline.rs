//! Phase-tagged time accounting — the data behind Fig 14's stacked bars
//! and the absolute totals of Tables IV/V.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Declares [`Phase`] from one list, in display order: the enum, `ALL`,
/// `COUNT` and `name()` all come from it, so a phase cannot be missing
/// from `ALL`, listed twice or sit at another slot than its
/// discriminant.
macro_rules! phases {
    ($($(#[doc = $doc:literal])+ $variant:ident => $name:literal,)+) => {
        /// Execution phases of one training step, following Fig 14's legend.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub enum Phase {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Phase {
            /// All phases, in display order.
            pub const ALL: [Phase; [$(Phase::$variant),+].len()] = [$(Phase::$variant),+];

            /// The journal and display name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Phase::$variant => $name,)+
                }
            }
        }
    };
}

phases! {
    /// Embedding-table lookups (CPU in baseline/cold, GPU in FAE-hot).
    EmbedForward => "embed-forward",
    /// Dense forward: bottom MLP, interaction, top MLP (+ attention).
    DenseForward => "dense-forward",
    /// Backward pass through the dense layers and embedding scatter.
    Backward => "backward",
    /// Optimizer: sparse embedding SGD + dense SGD.
    Optimizer => "optimizer",
    /// CPU↔GPU activation/gradient transfers over PCIe.
    Transfer => "cpu-gpu-transfer",
    /// Gradient all-reduce across GPUs over NVLink.
    AllReduce => "all-reduce",
    /// Hot-embedding CPU↔GPU synchronisation at schedule transitions
    /// (FAE-only overhead).
    EmbedSync => "embed-sync",
    /// Fixed per-step framework overhead.
    Framework => "framework",
}

impl Phase {
    /// The number of phases: the length of every phase-indexed array.
    pub const COUNT: usize = Phase::ALL.len();

    /// Position of this phase in [`Phase::ALL`] (display order) — the
    /// array slot it occupies in a [`Timeline`] and in journal
    /// `PhaseSeconds` records.
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated seconds per phase.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    seconds: [f64; Phase::COUNT],
    /// Seconds during which the GPUs sit idle (or spin-wait) because the
    /// work is CPU-resident — baseline embedding phases. A subset of the
    /// phase totals, tracked separately for the power model.
    cpu_resident: f64,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `secs` to `phase`.
    pub fn add(&mut self, phase: Phase, secs: f64) {
        debug_assert!(secs >= 0.0 && secs.is_finite(), "negative/NaN time");
        self.seconds[phase.index()] += secs;
    }

    /// Marks `secs` of already-recorded time as CPU-resident (GPU idle).
    pub fn add_cpu_resident(&mut self, secs: f64) {
        debug_assert!(secs >= 0.0 && secs.is_finite(), "negative/NaN time");
        self.cpu_resident += secs;
    }

    /// Seconds of CPU-resident (GPU-idle) time.
    pub fn cpu_resident(&self) -> f64 {
        self.cpu_resident
    }

    /// Seconds accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.seconds[phase.index()]
    }

    /// Total seconds across phases.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Merges another timeline into this one.
    pub fn merge(&mut self, other: &Timeline) {
        for (a, b) in self.seconds.iter_mut().zip(&other.seconds) {
            *a += b;
        }
        self.cpu_resident += other.cpu_resident;
    }

    /// Adds every phase of `other`, scaled by `k` (e.g. a per-step cost
    /// repeated `k` times).
    pub fn merge_scaled(&mut self, other: &Timeline, k: f64) {
        for (a, b) in self.seconds.iter_mut().zip(&other.seconds) {
            *a += b * k;
        }
        self.cpu_resident += other.cpu_resident * k;
    }

    /// `(phase, seconds, fraction)` rows, display order.
    pub fn breakdown(&self) -> Vec<(Phase, f64, f64)> {
        let total = self.total().max(f64::MIN_POSITIVE);
        Phase::ALL
            .iter()
            .map(|&p| {
                let s = self.get(p);
                (p, s, s / total)
            })
            .collect()
    }

    /// Sum of the CPU↔GPU communication phases (Table V's metric).
    pub fn cpu_gpu_comm(&self) -> f64 {
        self.get(Phase::Transfer) + self.get(Phase::EmbedSync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_phase_sits_at_its_index_under_its_journal_name() {
        let names: Vec<String> = Phase::ALL.iter().map(|p| p.to_string()).collect();
        let want = [
            "embed-forward",
            "dense-forward",
            "backward",
            "optimizer",
            "cpu-gpu-transfer",
            "all-reduce",
            "embed-sync",
            "framework",
        ];
        assert_eq!(names, want);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p}");
        }
    }

    #[test]
    fn add_get_total() {
        let mut t = Timeline::new();
        t.add(Phase::Optimizer, 2.0);
        t.add(Phase::Optimizer, 1.0);
        t.add(Phase::Transfer, 0.5);
        assert_eq!(t.get(Phase::Optimizer), 3.0);
        assert_eq!(t.get(Phase::Backward), 0.0);
        assert!((t.total() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = Timeline::new();
        a.add(Phase::DenseForward, 1.0);
        let mut b = Timeline::new();
        b.add(Phase::DenseForward, 2.0);
        b.add(Phase::AllReduce, 4.0);
        a.merge(&b);
        assert_eq!(a.get(Phase::DenseForward), 3.0);
        let mut c = Timeline::new();
        c.merge_scaled(&b, 10.0);
        assert_eq!(c.get(Phase::AllReduce), 40.0);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut t = Timeline::new();
        t.add(Phase::EmbedForward, 1.0);
        t.add(Phase::EmbedSync, 3.0);
        let fracs: f64 = t.breakdown().iter().map(|(_, _, f)| f).sum();
        assert!((fracs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn comm_metric_covers_transfer_and_sync() {
        let mut t = Timeline::new();
        t.add(Phase::Transfer, 1.5);
        t.add(Phase::EmbedSync, 0.5);
        t.add(Phase::AllReduce, 9.0); // NVLink traffic is not CPU-GPU comm
        assert_eq!(t.cpu_gpu_comm(), 2.0);
    }
}
