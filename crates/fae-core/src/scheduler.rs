//! The Shuffle Scheduler (§III-C): adaptive interleaving of hot and cold
//! mini-batch blocks.
//!
//! The rate `r ∈ [R(1), R(100)]` sets the block granularity: per schedule
//! round the trainer issues `r%` of the epoch's cold batches, then `r%` of
//! its hot batches. `R(100)` = all cold then all hot (cheapest, riskiest
//! for accuracy); `R(1)` = alternate after every mini-batch (most random,
//! most embedding-sync traffic). After each round the test loss drives
//! Eq. 7: an increase halves the rate (floored at 1); `u = 4` consecutive
//! improvements double it (capped at 100); otherwise it holds. Training
//! always leads with cold batches.
//!
//! (Eq. 7 as printed swaps min/max — taken literally the rate could never
//! leave its bounds; we implement the evident intent: clamp to
//! `[R(1), R(100)]`.)

use fae_telemetry::{metric, Telemetry};
use serde::{Deserialize, Serialize};

/// An interleaving rate in percent of each class issued per round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rate(u32);

impl Rate {
    /// Minimum rate: alternate after every mini-batch.
    pub const MIN: Rate = Rate(1);
    /// Maximum rate: all cold, then all hot.
    pub const MAX: Rate = Rate(100);

    /// Creates a rate, clamping into `[1, 100]`.
    pub fn new(pct: u32) -> Self {
        Rate(pct.clamp(1, 100))
    }

    /// The percentage value.
    pub fn pct(self) -> u32 {
        self.0
    }

    /// Number of batches in one block out of `total` for this rate
    /// (at least 1 so progress is guaranteed).
    pub fn block_len(self, total: usize) -> usize {
        ((total * self.0 as usize).div_ceil(100)).max(1)
    }

    fn halved(self) -> Rate {
        Rate::new(self.0 / 2)
    }

    fn doubled(self) -> Rate {
        Rate::new(self.0.saturating_mul(2))
    }
}

/// A serialisable snapshot of the scheduler's adaptive state, used by
/// the checkpoint container so a resumed run adapts identically to an
/// uninterrupted one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedulerState {
    /// Current rate in percent.
    pub rate: u32,
    /// Last observed test loss, if any.
    pub prev_loss: Option<f64>,
    /// Consecutive improvements seen so far.
    pub improving_streak: u32,
    /// Improvements required before doubling.
    pub u: u32,
    /// `(test_loss, rate_pct)` per round.
    pub history: Vec<(f64, u32)>,
}

/// The adaptive scheduler state.
///
/// ```
/// use fae_core::{Rate, ShuffleScheduler};
/// let mut s = ShuffleScheduler::paper_default(); // starts at R(50)
/// s.observe_test_loss(0.70);
/// assert_eq!(s.observe_test_loss(0.75), Rate::new(25)); // loss rose → halve
/// ```
#[derive(Clone, Debug)]
pub struct ShuffleScheduler {
    rate: Rate,
    prev_loss: Option<f64>,
    improving_streak: u32,
    /// Consecutive improvements required before doubling (paper: u = 4).
    u: u32,
    history: Vec<(f64, Rate)>,
    telemetry: Telemetry,
}

impl ShuffleScheduler {
    /// Creates a scheduler starting at `initial` (paper: R(50)).
    pub fn new(initial: Rate) -> Self {
        Self {
            rate: initial,
            prev_loss: None,
            improving_streak: 0,
            u: 4,
            history: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: adaptation decisions are counted
    /// (`scheduler.rate_halved` / `rate_doubled` / `rate_held`) and the
    /// live rate is exported as the `scheduler.rate` gauge.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        telemetry.gauge_set(metric!("scheduler.rate"), self.rate.pct() as f64);
        self.telemetry = telemetry;
    }

    /// Paper-default scheduler: R(50), u = 4.
    pub fn paper_default() -> Self {
        Self::new(Rate::new(50))
    }

    /// Current rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// `(test_loss, rate-after-observation)` per round.
    pub fn history(&self) -> &[(f64, Rate)] {
        &self.history
    }

    /// Snapshots the full adaptive state for checkpointing.
    pub fn state(&self) -> SchedulerState {
        SchedulerState {
            rate: self.rate.pct(),
            prev_loss: self.prev_loss,
            improving_streak: self.improving_streak,
            u: self.u,
            history: self.history.iter().map(|&(l, r)| (l, r.pct())).collect(),
        }
    }

    /// Rebuilds a scheduler from a [`SchedulerState`] snapshot; the
    /// restored scheduler continues exactly where the snapshot left off.
    pub fn from_state(state: &SchedulerState) -> Self {
        Self {
            rate: Rate::new(state.rate),
            prev_loss: state.prev_loss,
            improving_streak: state.improving_streak,
            u: state.u,
            history: state.history.iter().map(|&(l, r)| (l, Rate::new(r))).collect(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Feeds the test loss measured after a schedule round; returns the
    /// rate to use for the next round (Eq. 7).
    pub fn observe_test_loss(&mut self, loss: f64) -> Rate {
        assert!(loss.is_finite(), "non-finite test loss");
        match self.prev_loss {
            Some(prev) if loss > prev => {
                self.rate = self.rate.halved();
                self.improving_streak = 0;
                self.telemetry.counter_add(metric!("scheduler.rate_halved"), 1);
            }
            Some(prev) if loss < prev => {
                self.improving_streak += 1;
                if self.improving_streak >= self.u {
                    self.rate = self.rate.doubled();
                    self.improving_streak = 0;
                    self.telemetry.counter_add(metric!("scheduler.rate_doubled"), 1);
                } else {
                    self.telemetry.counter_add(metric!("scheduler.rate_held"), 1);
                }
            }
            _ => {
                // First observation or exactly flat: hold the rate.
                self.telemetry.counter_add(metric!("scheduler.rate_held"), 1);
            }
        }
        self.prev_loss = Some(loss);
        self.history.push((loss, self.rate));
        self.telemetry.gauge_set(metric!("scheduler.rate"), self.rate.pct() as f64);
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_clamps_and_blocks() {
        assert_eq!(Rate::new(0), Rate::MIN);
        assert_eq!(Rate::new(250), Rate::MAX);
        assert_eq!(Rate::new(50).block_len(10), 5);
        assert_eq!(Rate::new(100).block_len(7), 7);
        assert_eq!(Rate::new(1).block_len(50), 1);
        assert_eq!(Rate::new(1).block_len(1000), 10);
        // Progress guarantee on tiny epochs.
        assert_eq!(Rate::new(1).block_len(3), 1);
        assert_eq!(Rate::new(50).block_len(0), 1);
    }

    #[test]
    fn first_observation_holds_rate() {
        let mut s = ShuffleScheduler::paper_default();
        assert_eq!(s.observe_test_loss(1.0), Rate::new(50));
    }

    #[test]
    fn loss_increase_halves_rate_immediately() {
        let mut s = ShuffleScheduler::paper_default();
        s.observe_test_loss(1.0);
        assert_eq!(s.observe_test_loss(1.5), Rate::new(25));
        assert_eq!(s.observe_test_loss(2.0), Rate::new(12));
    }

    #[test]
    fn rate_floors_at_one() {
        let mut s = ShuffleScheduler::new(Rate::new(2));
        s.observe_test_loss(1.0);
        s.observe_test_loss(2.0); // 2 -> 1
        assert_eq!(s.rate(), Rate::MIN);
        s.observe_test_loss(3.0); // stays 1
        assert_eq!(s.rate(), Rate::MIN);
    }

    #[test]
    fn four_consecutive_improvements_double_rate() {
        let mut s = ShuffleScheduler::new(Rate::new(10));
        s.observe_test_loss(5.0);
        for (i, loss) in [4.0, 3.0, 2.0].iter().enumerate() {
            assert_eq!(s.observe_test_loss(*loss), Rate::new(10), "step {i}");
        }
        // 4th consecutive improvement triggers the doubling.
        assert_eq!(s.observe_test_loss(1.0), Rate::new(20));
        // Streak resets afterwards.
        assert_eq!(s.observe_test_loss(0.9), Rate::new(20));
    }

    #[test]
    fn increase_resets_improvement_streak() {
        let mut s = ShuffleScheduler::new(Rate::new(10));
        s.observe_test_loss(5.0);
        s.observe_test_loss(4.0);
        s.observe_test_loss(3.0);
        s.observe_test_loss(3.5); // halves, resets streak
        assert_eq!(s.rate(), Rate::new(5));
        s.observe_test_loss(3.0);
        s.observe_test_loss(2.5);
        s.observe_test_loss(2.0);
        assert_eq!(s.rate(), Rate::new(5), "streak must restart after the increase");
        s.observe_test_loss(1.5);
        assert_eq!(s.rate(), Rate::new(10));
    }

    #[test]
    fn rate_caps_at_hundred() {
        let mut s = ShuffleScheduler::new(Rate::new(80));
        let mut loss = 100.0;
        s.observe_test_loss(loss);
        for _ in 0..20 {
            loss -= 1.0;
            s.observe_test_loss(loss);
        }
        assert_eq!(s.rate(), Rate::MAX);
    }

    #[test]
    fn flat_loss_holds_rate() {
        let mut s = ShuffleScheduler::new(Rate::new(40));
        s.observe_test_loss(1.0);
        assert_eq!(s.observe_test_loss(1.0), Rate::new(40));
        assert_eq!(s.observe_test_loss(1.0), Rate::new(40));
    }

    #[test]
    fn state_round_trip_preserves_adaptive_behaviour() {
        let mut a = ShuffleScheduler::new(Rate::new(10));
        a.observe_test_loss(5.0);
        a.observe_test_loss(4.0);
        a.observe_test_loss(3.0); // streak = 2
        let mut b = ShuffleScheduler::from_state(&a.state());
        assert_eq!(b.rate(), a.rate());
        assert_eq!(b.history(), a.history());
        // Both see two more improvements: the 4th doubles the rate.
        a.observe_test_loss(2.0);
        b.observe_test_loss(2.0);
        assert_eq!(a.observe_test_loss(1.0), Rate::new(20));
        assert_eq!(b.observe_test_loss(1.0), Rate::new(20));
    }

    #[test]
    fn telemetry_counts_adaptations_and_tracks_rate() {
        let t = Telemetry::builder().try_build().expect("telemetry");
        let mut s = ShuffleScheduler::paper_default();
        s.set_telemetry(t.clone());
        s.observe_test_loss(1.0); // held (first observation)
        s.observe_test_loss(1.5); // halved
        s.observe_test_loss(1.2); // improving, streak 1 -> held
        let m = t.metrics();
        assert_eq!(m.counter("scheduler.rate_held"), 2);
        assert_eq!(m.counter("scheduler.rate_halved"), 1);
        assert_eq!(m.counter("scheduler.rate_doubled"), 0);
        assert_eq!(m.gauge("scheduler.rate"), Some(25.0));
    }

    #[test]
    fn history_records_every_round() {
        let mut s = ShuffleScheduler::paper_default();
        s.observe_test_loss(2.0);
        s.observe_test_loss(3.0);
        assert_eq!(s.history().len(), 2);
        assert_eq!(s.history()[1], (3.0, Rate::new(25)));
    }
}
