//! Declarative SLO alerting over the journal stream.
//!
//! An [`AlertEngine`] is a small set of latched rules evaluated against
//! every journal event as it is emitted. A rule that crosses its
//! threshold fires exactly once, and the firing is itself a
//! [`JournalEvent::Alert`] — so alerts land in the journal, the merged
//! trace, `fae report` and `fae top` with no side channel.
//!
//! Rule grammar (comma-separated spec string, see DESIGN.md §13):
//!
//! ```text
//! heartbeat-gap>G     fire when a node_lost event's missed-deadline
//!                     count (suspicion) reaches G (0 = any loss,
//!                     including hard disconnects)
//! reshard-storm>K     fire when the run's cumulative reshard count
//!                     reaches K
//! hit-rate<X          fire when the serve hit rate drops below X
//!                     (cumulative over batches, and again at serve_end)
//! steps-per-sec<S     fire when training throughput (steps per
//!                     simulated second, measured at eval/run_end)
//!                     drops below S
//! ```
//!
//! Thresholds are inclusive on the crossing side: `>` fires at or above,
//! `<` fires strictly below.

use crate::journal::JournalEvent;

/// Minimum cumulative lookups before the running serve hit rate is
/// judged — avoids firing on the noise of the first couple of batches.
const HIT_RATE_MIN_LOOKUPS: u64 = 256;

/// One alert rule kind with its threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AlertRule {
    /// `heartbeat-gap>G`: a node was lost after >= G missed deadlines.
    HeartbeatGap {
        /// Missed-deadline count at which a loss is alert-worthy.
        min_suspicion: f64,
    },
    /// `reshard-storm>K`: cumulative reshards reached K.
    ReshardStorm {
        /// Reshard count that constitutes a storm.
        max_reshards: f64,
    },
    /// `hit-rate<X`: serve hit rate dropped below X.
    HitRateFloor {
        /// The floor (fraction in [0, 1]).
        floor: f64,
    },
    /// `steps-per-sec<S`: training throughput dropped below S.
    StepsPerSecFloor {
        /// The floor, steps per simulated second.
        floor: f64,
    },
}

impl AlertRule {
    fn id(&self) -> &'static str {
        match self {
            AlertRule::HeartbeatGap { .. } => "heartbeat-gap",
            AlertRule::ReshardStorm { .. } => "reshard-storm",
            AlertRule::HitRateFloor { .. } => "hit-rate",
            AlertRule::StepsPerSecFloor { .. } => "steps-per-sec",
        }
    }

    fn threshold(&self) -> f64 {
        match *self {
            AlertRule::HeartbeatGap { min_suspicion } => min_suspicion,
            AlertRule::ReshardStorm { max_reshards } => max_reshards,
            AlertRule::HitRateFloor { floor } => floor,
            AlertRule::StepsPerSecFloor { floor } => floor,
        }
    }
}

struct RuleState {
    rule: AlertRule,
    fired: bool,
}

/// Evaluates a fixed rule set against the event stream, latching each
/// rule after its first firing.
pub struct AlertEngine {
    rules: Vec<RuleState>,
    reshards: u64,
    serve_hits: u64,
    serve_misses: u64,
}

impl std::fmt::Debug for AlertEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlertEngine({} rules)", self.rules.len())
    }
}

impl AlertEngine {
    /// An engine with no rules (observes everything, fires nothing).
    pub fn empty() -> Self {
        AlertEngine { rules: Vec::new(), reshards: 0, serve_hits: 0, serve_misses: 0 }
    }

    /// Parses a comma-separated rule spec (see the module docs for the
    /// grammar). An empty spec yields an empty engine.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut engine = AlertEngine::empty();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            engine.push(parse_rule(part)?);
        }
        Ok(engine)
    }

    /// Adds one rule.
    pub fn push(&mut self, rule: AlertRule) {
        self.rules.push(RuleState { rule, fired: false });
    }

    /// Whether any rule is configured.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Feeds one event through the rules; returns the alerts that fire.
    /// Alert events themselves are never evaluated (no self-triggering).
    pub fn observe(&mut self, event: &JournalEvent) -> Vec<JournalEvent> {
        if matches!(event, JournalEvent::Alert { .. }) {
            return Vec::new();
        }
        // Update cumulative state first so rules see it.
        match event {
            JournalEvent::Reshard { .. } => self.reshards += 1,
            JournalEvent::ServeBatch { hits, misses, .. } => {
                self.serve_hits += hits;
                self.serve_misses += misses;
            }
            _ => {}
        }
        let mut fired = Vec::new();
        for state in &mut self.rules {
            if state.fired {
                continue;
            }
            if let Some(alert) =
                evaluate(&state.rule, event, self.reshards, self.serve_hits, self.serve_misses)
            {
                state.fired = true;
                fired.push(alert);
            }
        }
        fired
    }
}

fn alert(step: u64, rule: &AlertRule, message: String, value: f64) -> JournalEvent {
    JournalEvent::Alert {
        step,
        rule: rule.id().into(),
        message,
        value,
        threshold: rule.threshold(),
    }
}

fn evaluate(
    rule: &AlertRule,
    event: &JournalEvent,
    reshards: u64,
    hits: u64,
    misses: u64,
) -> Option<JournalEvent> {
    match (rule, event) {
        (
            AlertRule::HeartbeatGap { min_suspicion },
            JournalEvent::NodeLost { step, node, suspicion },
        ) => {
            let gap = *suspicion as f64;
            (gap >= *min_suspicion).then(|| {
                alert(
                    *step,
                    rule,
                    format!("node {node} lost after {suspicion} missed deadlines"),
                    gap,
                )
            })
        }
        (AlertRule::ReshardStorm { max_reshards }, JournalEvent::Reshard { step, .. }) => {
            let count = reshards as f64;
            (count >= *max_reshards)
                .then(|| alert(*step, rule, format!("{reshards} reshards this run"), count))
        }
        (AlertRule::HitRateFloor { floor }, JournalEvent::ServeBatch { batch, .. }) => {
            let total = hits + misses;
            if total < HIT_RATE_MIN_LOOKUPS {
                return None;
            }
            let rate = hits as f64 / total as f64;
            (rate < *floor).then(|| {
                alert(*batch, rule, format!("running hit rate {rate:.4} below floor"), rate)
            })
        }
        (AlertRule::HitRateFloor { floor }, JournalEvent::ServeEnd { hit_rate, .. }) => {
            (*hit_rate < *floor).then(|| {
                alert(0, rule, format!("final hit rate {hit_rate:.4} below floor"), *hit_rate)
            })
        }
        (AlertRule::StepsPerSecFloor { floor }, JournalEvent::Eval { step, sim_seconds, .. }) => {
            if *sim_seconds <= 0.0 {
                return None;
            }
            let sps = *step as f64 / sim_seconds;
            (sps < *floor).then(|| {
                alert(*step, rule, format!("throughput {sps:.2} steps/s below floor"), sps)
            })
        }
        (
            AlertRule::StepsPerSecFloor { floor },
            JournalEvent::RunEnd { steps, simulated_seconds, .. },
        ) => {
            if *simulated_seconds <= 0.0 {
                return None;
            }
            let sps = *steps as f64 / simulated_seconds;
            (sps < *floor).then(|| {
                alert(*steps, rule, format!("final throughput {sps:.2} steps/s below floor"), sps)
            })
        }
        _ => None,
    }
}

fn parse_rule(part: &str) -> Result<AlertRule, String> {
    let (name, cmp, value) = if let Some((n, v)) = part.split_once('>') {
        (n.trim(), '>', v.trim())
    } else if let Some((n, v)) = part.split_once('<') {
        (n.trim(), '<', v.trim())
    } else {
        return Err(format!("alert rule '{part}': expected NAME>VALUE or NAME<VALUE"));
    };
    let value: f64 =
        value.parse().map_err(|_| format!("alert rule '{part}': bad threshold '{value}'"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("alert rule '{part}': threshold must be finite and >= 0"));
    }
    match (name, cmp) {
        ("heartbeat-gap", '>') => Ok(AlertRule::HeartbeatGap { min_suspicion: value }),
        ("reshard-storm", '>') => Ok(AlertRule::ReshardStorm { max_reshards: value }),
        ("hit-rate", '<') => Ok(AlertRule::HitRateFloor { floor: value }),
        ("steps-per-sec", '<') => Ok(AlertRule::StepsPerSecFloor { floor: value }),
        ("heartbeat-gap" | "reshard-storm", '<') => {
            Err(format!("alert rule '{part}': {name} takes '>' (ceiling)"))
        }
        ("hit-rate" | "steps-per-sec", '>') => {
            Err(format!("alert rule '{part}': {name} takes '<' (floor)"))
        }
        _ => Err(format!("alert rule '{part}': unknown rule '{name}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lost(step: u64, suspicion: u64) -> JournalEvent {
        JournalEvent::NodeLost { step, node: 1, suspicion }
    }

    #[test]
    fn spec_parses_all_four_rules() {
        let e =
            AlertEngine::parse("heartbeat-gap>2, reshard-storm>3,hit-rate<0.5,steps-per-sec<10")
                .expect("spec");
        assert_eq!(e.rules.len(), 4);
        assert_eq!(e.rules[0].rule, AlertRule::HeartbeatGap { min_suspicion: 2.0 });
        assert_eq!(e.rules[3].rule, AlertRule::StepsPerSecFloor { floor: 10.0 });
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(AlertEngine::parse("heartbeat-gap<2").is_err());
        assert!(AlertEngine::parse("hit-rate>0.5").is_err());
        assert!(AlertEngine::parse("mystery>1").is_err());
        assert!(AlertEngine::parse("heartbeat-gap>x").is_err());
        assert!(AlertEngine::parse("heartbeat-gap").is_err());
        assert!(AlertEngine::parse("").expect("empty ok").is_empty());
    }

    #[test]
    fn heartbeat_gap_fires_once_and_latches() {
        let mut e = AlertEngine::parse("heartbeat-gap>2").unwrap();
        assert!(e.observe(&lost(5, 1)).is_empty(), "below threshold");
        let fired = e.observe(&lost(6, 3));
        assert_eq!(fired.len(), 1);
        match &fired[0] {
            JournalEvent::Alert { rule, value, threshold, step, .. } => {
                assert_eq!(rule, "heartbeat-gap");
                assert_eq!(*value, 3.0);
                assert_eq!(*threshold, 2.0);
                assert_eq!(*step, 6);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.observe(&lost(7, 5)).is_empty(), "latched after first firing");
    }

    #[test]
    fn hard_disconnect_fires_a_zero_threshold_gap_rule() {
        let mut e = AlertEngine::parse("heartbeat-gap>0").unwrap();
        assert_eq!(e.observe(&lost(3, 0)).len(), 1);
    }

    #[test]
    fn reshard_storm_counts_cumulatively() {
        let mut e = AlertEngine::parse("reshard-storm>2").unwrap();
        let reshard =
            |step| JournalEvent::Reshard { step, node: 0, live: 1, phases: Default::default() };
        assert!(e.observe(&reshard(1)).is_empty());
        assert_eq!(e.observe(&reshard(2)).len(), 1);
    }

    #[test]
    fn steps_per_sec_floor_fires_on_run_end() {
        let mut e = AlertEngine::parse("steps-per-sec<100").unwrap();
        let end = JournalEvent::RunEnd {
            steps: 50,
            hot_steps: 25,
            cold_steps: 25,
            transitions: 1,
            simulated_seconds: 1.0,
            final_accuracy: 0.5,
            final_rate: None,
            interrupted: false,
        };
        let fired = e.observe(&end);
        assert_eq!(fired.len(), 1);
        match &fired[0] {
            JournalEvent::Alert { value, .. } => assert_eq!(*value, 50.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hit_rate_floor_waits_for_enough_lookups() {
        let mut e = AlertEngine::parse("hit-rate<0.9").unwrap();
        let batch = |b, hits, misses| JournalEvent::ServeBatch {
            batch: b,
            worker: 0,
            size: 8,
            start_s: 0.0,
            hits,
            misses,
            phases: Default::default(),
        };
        assert!(e.observe(&batch(1, 10, 90)).is_empty(), "too few lookups to judge");
        assert_eq!(e.observe(&batch(2, 30, 170)).len(), 1, "300 lookups at 13% fires");
    }

    #[test]
    fn alerts_do_not_trigger_rules() {
        let mut e = AlertEngine::parse("heartbeat-gap>0").unwrap();
        let a = e.observe(&lost(1, 1)).remove(0);
        assert!(e.observe(&a).is_empty());
    }
}
