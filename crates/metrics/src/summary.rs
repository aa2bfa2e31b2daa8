//! Run-level metric collection and condensation.

use lockss_sim::{Duration, SimTime};

use crate::damage_clock::DamageClock;
use crate::poll_stats::PollStats;

/// Everything a run records as it executes.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Time-weighted damaged-replica accounting (access failure).
    pub damage: DamageClock,
    /// Poll outcome counts and success-gap tracking.
    pub polls: PollStats,
    /// Total CPU-seconds spent by loyal peers.
    pub loyal_effort_secs: f64,
    /// Total CPU-seconds spent by the adversary.
    pub adversary_effort_secs: f64,
    /// Named phase boundaries recorded by [`RunMetrics::mark_phase`].
    phases: Vec<PhaseMark>,
}

/// A checkpoint of the cumulative counters at a phase boundary.
#[derive(Clone, Debug)]
struct PhaseMark {
    label: String,
    at: SimTime,
    damage_integral: f64,
    successful_polls: u64,
    failed_polls: u64,
    alarms: u64,
    loyal_effort_secs: f64,
    adversary_effort_secs: f64,
}

/// The §6.1 observations restricted to one named attack phase.
///
/// Produced by [`RunMetrics::phase_summaries`] from the checkpoints that
/// phased composite adversaries record when each sub-attack starts, so a
/// campaign like "pipe stoppage, then admission flood during recovery"
/// reports how each leg moved the metrics rather than only the blend.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSummary {
    /// Phase label (the sub-attack's strategy name).
    pub label: String,
    /// When the phase began.
    pub start: SimTime,
    /// When the phase ended (the next mark, or the end of the run).
    pub end: SimTime,
    /// Access failure probability *within this phase only*.
    pub access_failure_probability: f64,
    /// Successful polls concluded during the phase.
    pub successful_polls: u64,
    /// Failed polls concluded during the phase.
    pub failed_polls: u64,
    /// Inconclusive-poll alarms raised during the phase.
    pub alarms: u64,
    /// Loyal CPU-seconds spent during the phase.
    pub loyal_effort_secs: f64,
    /// Adversary CPU-seconds spent during the phase.
    pub adversary_effort_secs: f64,
}

impl RunMetrics {
    /// Initializes collection for `total_replicas` replicas starting at
    /// `start`.
    pub fn new(total_replicas: u64, start: SimTime) -> RunMetrics {
        RunMetrics {
            damage: DamageClock::new(total_replicas, start),
            polls: PollStats::new(),
            loyal_effort_secs: 0.0,
            adversary_effort_secs: 0.0,
            phases: Vec::new(),
        }
    }

    /// Records the start of a named phase at `now` by checkpointing every
    /// cumulative counter. [`RunMetrics::phase_summaries`] later reports
    /// the deltas between consecutive marks. Marks landing at the same
    /// instant merge into one `a+b` phase (concurrent sub-attacks).
    pub fn mark_phase(&mut self, label: &str, now: SimTime) {
        if let Some(last) = self.phases.last_mut() {
            if last.at == now {
                last.label = format!("{}+{label}", last.label);
                return;
            }
        }
        self.phases.push(PhaseMark {
            label: label.to_string(),
            at: now,
            damage_integral: self.damage.integral_at(now),
            successful_polls: self.polls.successful_polls,
            failed_polls: self.polls.failed_polls,
            alarms: self.polls.alarms,
            loyal_effort_secs: self.loyal_effort_secs,
            adversary_effort_secs: self.adversary_effort_secs,
        });
    }

    /// Per-phase metric deltas, one entry per recorded mark, each spanning
    /// from its mark to the next (the last runs to `end`). Empty if no
    /// phase was ever marked. A gap between the run start and the first
    /// mark is reported as a synthetic `(pre)` phase.
    pub fn phase_summaries(&self, end: SimTime) -> Vec<PhaseSummary> {
        if self.phases.is_empty() {
            return Vec::new();
        }
        let total = self.damage.total_replicas();
        let final_mark = PhaseMark {
            label: String::new(),
            at: end,
            damage_integral: self.damage.integral_at(end),
            successful_polls: self.polls.successful_polls,
            failed_polls: self.polls.failed_polls,
            alarms: self.polls.alarms,
            loyal_effort_secs: self.loyal_effort_secs,
            adversary_effort_secs: self.adversary_effort_secs,
        };
        let mut marks: Vec<&PhaseMark> = Vec::new();
        let pre;
        if self.phases[0].at > SimTime::ZERO {
            pre = PhaseMark {
                label: "(pre)".to_string(),
                at: SimTime::ZERO,
                damage_integral: 0.0,
                successful_polls: 0,
                failed_polls: 0,
                alarms: 0,
                loyal_effort_secs: 0.0,
                adversary_effort_secs: 0.0,
            };
            marks.push(&pre);
        }
        marks.extend(self.phases.iter());
        let mut out = Vec::with_capacity(marks.len());
        for (i, mark) in marks.iter().enumerate() {
            let next = marks.get(i + 1).copied().unwrap_or(&final_mark);
            let span_ms = next.at.since(mark.at).as_millis() as f64;
            let afp = if span_ms > 0.0 && total > 0 {
                (next.damage_integral - mark.damage_integral) / (span_ms * total as f64)
            } else {
                0.0
            };
            out.push(PhaseSummary {
                label: mark.label.clone(),
                start: mark.at,
                end: next.at,
                access_failure_probability: afp,
                successful_polls: next.successful_polls - mark.successful_polls,
                failed_polls: next.failed_polls - mark.failed_polls,
                alarms: next.alarms - mark.alarms,
                loyal_effort_secs: next.loyal_effort_secs - mark.loyal_effort_secs,
                adversary_effort_secs: next.adversary_effort_secs - mark.adversary_effort_secs,
            });
        }
        out
    }

    /// Condenses the raw observations at the end of a run.
    pub fn summarize(&self, end: SimTime) -> Summary {
        Summary {
            access_failure_probability: self.damage.access_failure_probability(end),
            mean_time_between_successes: self.polls.mean_gap_censored(end),
            gap_p50: self.polls.gap_quantile(0.5),
            gap_p90: self.polls.gap_quantile(0.9),
            successful_polls: self.polls.successful_polls,
            failed_polls: self.polls.failed_polls,
            alarms: self.polls.alarms,
            loyal_effort_secs: self.loyal_effort_secs,
            adversary_effort_secs: self.adversary_effort_secs,
        }
    }
}

/// Condensed results of one run (or the mean of several seeds).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Fraction of replica-time spent damaged (§6.1).
    pub access_failure_probability: f64,
    /// Mean gap between successful polls per (peer, AU), right-censored
    /// (§6.1 delay-ratio numerator/denominator); `None` for an empty run.
    pub mean_time_between_successes: Option<Duration>,
    /// Median completed success gap, from the streaming reservoir sample;
    /// `None` before the first completed gap.
    pub gap_p50: Option<Duration>,
    /// 90th-percentile completed success gap (attacks show up in the tail
    /// long before they move the mean); `None` before the first gap.
    pub gap_p90: Option<Duration>,
    /// Polls that concluded in a landslide win.
    pub successful_polls: u64,
    /// Polls that concluded inquorate or without a landslide win.
    pub failed_polls: u64,
    /// Inconclusive-poll alarms (§4.3).
    pub alarms: u64,
    /// Total CPU-seconds spent by loyal peers.
    pub loyal_effort_secs: f64,
    /// Total CPU-seconds spent by the adversary.
    pub adversary_effort_secs: f64,
}

impl Summary {
    /// Loyal effort per successful poll (CPU-seconds); `None` if no poll
    /// succeeded.
    pub fn effort_per_successful_poll(&self) -> Option<f64> {
        if self.successful_polls == 0 {
            return None;
        }
        Some(self.loyal_effort_secs / self.successful_polls as f64)
    }

    /// Delay ratio against a no-attack baseline (§6.1). `None` if either
    /// run lacks successful-poll gaps.
    pub fn delay_ratio(&self, baseline: &Summary) -> Option<f64> {
        let attacked = self.mean_time_between_successes?;
        let base = baseline.mean_time_between_successes?;
        if base.is_zero() {
            return None;
        }
        Some(attacked / base)
    }

    /// Coefficient of friction against a no-attack baseline (§6.1).
    pub fn coefficient_of_friction(&self, baseline: &Summary) -> Option<f64> {
        let attacked = self.effort_per_successful_poll()?;
        let base = baseline.effort_per_successful_poll()?;
        if base == 0.0 {
            return None;
        }
        Some(attacked / base)
    }

    /// Cost ratio: attacker effort over defender effort (§6.1). `None` if
    /// defenders spent nothing.
    pub fn cost_ratio(&self) -> Option<f64> {
        if self.loyal_effort_secs == 0.0 {
            return None;
        }
        Some(self.adversary_effort_secs / self.loyal_effort_secs)
    }

    /// The mean of several per-seed summaries.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn mean_of(runs: &[Summary]) -> Summary {
        assert!(!runs.is_empty(), "mean of zero runs");
        let n = runs.len() as f64;
        let gap_runs: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.mean_time_between_successes)
            .map(|d| d.as_millis() as f64)
            .collect();
        let mean_gap = if gap_runs.is_empty() {
            None
        } else {
            Some(Duration::from_millis(
                (gap_runs.iter().sum::<f64>() / gap_runs.len() as f64).round() as u64,
            ))
        };
        // Mean-of-quantiles across seeds: not a quantile of the pooled
        // distribution, but the standard per-seed condensation used for
        // every other field here.
        let mean_quantile = |get: fn(&Summary) -> Option<Duration>| {
            let qs: Vec<f64> = runs
                .iter()
                .filter_map(get)
                .map(|d| d.as_millis() as f64)
                .collect();
            if qs.is_empty() {
                None
            } else {
                Some(Duration::from_millis(
                    (qs.iter().sum::<f64>() / qs.len() as f64).round() as u64,
                ))
            }
        };
        Summary {
            access_failure_probability: runs
                .iter()
                .map(|r| r.access_failure_probability)
                .sum::<f64>()
                / n,
            mean_time_between_successes: mean_gap,
            gap_p50: mean_quantile(|r| r.gap_p50),
            gap_p90: mean_quantile(|r| r.gap_p90),
            successful_polls: (runs.iter().map(|r| r.successful_polls).sum::<u64>() as f64 / n)
                .round() as u64,
            failed_polls: (runs.iter().map(|r| r.failed_polls).sum::<u64>() as f64 / n).round()
                as u64,
            alarms: (runs.iter().map(|r| r.alarms).sum::<u64>() as f64 / n).round() as u64,
            loyal_effort_secs: runs.iter().map(|r| r.loyal_effort_secs).sum::<f64>() / n,
            adversary_effort_secs: runs.iter().map(|r| r.adversary_effort_secs).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(gap_days: u64, polls: u64, loyal: f64, adversary: f64) -> Summary {
        Summary {
            access_failure_probability: 0.001,
            mean_time_between_successes: Some(Duration::from_days(gap_days)),
            gap_p50: Some(Duration::from_days(gap_days)),
            gap_p90: Some(Duration::from_days(gap_days * 2)),
            successful_polls: polls,
            failed_polls: 0,
            alarms: 0,
            loyal_effort_secs: loyal,
            adversary_effort_secs: adversary,
        }
    }

    #[test]
    fn ratio_metrics() {
        let base = summary(90, 100, 1000.0, 0.0);
        let attacked = summary(180, 50, 1500.0, 3000.0);
        assert!((attacked.delay_ratio(&base).unwrap() - 2.0).abs() < 1e-9);
        // friction: (1500/50) / (1000/100) = 30 / 10 = 3.
        assert!((attacked.coefficient_of_friction(&base).unwrap() - 3.0).abs() < 1e-9);
        assert!((attacked.cost_ratio().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_cases_are_none() {
        let empty = Summary::default();
        let base = summary(90, 100, 1000.0, 0.0);
        assert_eq!(empty.delay_ratio(&base), None);
        assert_eq!(empty.coefficient_of_friction(&base), None);
        assert_eq!(empty.cost_ratio(), None);
        assert_eq!(empty.effort_per_successful_poll(), None);
    }

    #[test]
    fn mean_of_averages_fields() {
        let a = summary(80, 100, 1000.0, 100.0);
        let b = summary(100, 200, 2000.0, 300.0);
        let m = Summary::mean_of(&[a, b]);
        assert_eq!(m.mean_time_between_successes, Some(Duration::from_days(90)));
        assert_eq!(m.successful_polls, 150);
        assert!((m.loyal_effort_secs - 1500.0).abs() < 1e-9);
        assert!((m.adversary_effort_secs - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mean of zero runs")]
    fn mean_of_empty_panics() {
        let _ = Summary::mean_of(&[]);
    }

    #[test]
    fn phase_summaries_split_the_run() {
        use lockss_sim::SimTime;
        let t = |days: u64| SimTime::ZERO + Duration::from_days(days);
        let mut rm = RunMetrics::new(10, SimTime::ZERO);
        assert!(rm.phase_summaries(t(100)).is_empty(), "no marks, no phases");

        // Phase A starts at t=0; one replica damaged the whole run.
        rm.damage.on_damaged(t(0));
        rm.mark_phase("a", t(0));
        rm.polls.on_success(0, 0, t(10));
        rm.loyal_effort_secs = 5.0;
        // Phase B from day 50.
        rm.mark_phase("b", t(50));
        rm.polls.on_success(0, 0, t(60));
        rm.polls.on_failure();
        rm.loyal_effort_secs = 8.0;
        rm.adversary_effort_secs = 2.0;

        let phases = rm.phase_summaries(t(100));
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].label, "a");
        assert_eq!(phases[0].start, t(0));
        assert_eq!(phases[0].end, t(50));
        assert_eq!(phases[0].successful_polls, 1);
        assert_eq!(phases[0].failed_polls, 0);
        assert!((phases[0].loyal_effort_secs - 5.0).abs() < 1e-12);
        // One of ten replicas damaged throughout: afp = 0.1 in both phases.
        assert!((phases[0].access_failure_probability - 0.1).abs() < 1e-9);
        assert_eq!(phases[1].label, "b");
        assert_eq!(phases[1].end, t(100));
        assert_eq!(phases[1].successful_polls, 1);
        assert_eq!(phases[1].failed_polls, 1);
        assert!((phases[1].loyal_effort_secs - 3.0).abs() < 1e-12);
        assert!((phases[1].adversary_effort_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn late_first_mark_gets_a_pre_phase() {
        use lockss_sim::SimTime;
        let t = |days: u64| SimTime::ZERO + Duration::from_days(days);
        let mut rm = RunMetrics::new(4, SimTime::ZERO);
        rm.polls.on_success(0, 0, t(5));
        rm.mark_phase("attack", t(30));
        let phases = rm.phase_summaries(t(60));
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].label, "(pre)");
        assert_eq!(phases[0].start, SimTime::ZERO);
        assert_eq!(phases[0].end, t(30));
        assert_eq!(phases[0].successful_polls, 1);
        assert_eq!(phases[1].label, "attack");
        assert_eq!(phases[1].successful_polls, 0);
    }

    #[test]
    fn run_metrics_summarize() {
        use lockss_sim::SimTime;
        let mut rm = RunMetrics::new(10, SimTime::ZERO);
        rm.damage.on_damaged(SimTime::ZERO);
        rm.polls.on_success(0, 0, SimTime::ZERO + Duration::DAY);
        rm.loyal_effort_secs = 5.0;
        let s = rm.summarize(SimTime::ZERO + Duration::from_days(10));
        assert!((s.access_failure_probability - 0.1).abs() < 1e-9);
        assert_eq!(s.successful_polls, 1);
        assert_eq!(s.loyal_effort_secs, 5.0);
    }
}
