//! Poll outcome statistics.
//!
//! Tracks, per (peer, AU), the times between consecutive *successful* polls;
//! their mean is the numerator/denominator of the delay ratio (§6.1). Also
//! counts failed (inquorate) polls and inconclusive-poll alarms.

use lockss_sim::FxHashMap;

use lockss_sim::{Duration, SimTime};

use crate::streaming::Reservoir;

/// Success gaps retained for quantile readout; a fixed-size uniform sample
/// no matter how many polls a production-scale run concludes.
const GAP_RESERVOIR_CAP: usize = 512;

/// Aggregated poll outcomes for one run.
#[derive(Clone, Debug)]
pub struct PollStats {
    last_success: FxHashMap<(u32, u32), SimTime>,
    gap_sum_ms: f64,
    gap_count: u64,
    /// Streaming uniform sample of completed success gaps (milliseconds),
    /// for the p50/p90 readout — the mean alone hides attack-induced tail
    /// stretching.
    gaps: Reservoir,
    /// Polls that concluded in a landslide win.
    pub successful_polls: u64,
    /// Polls that concluded inquorate or without a landslide win.
    pub failed_polls: u64,
    /// Inconclusive-poll alarms (§4.3: operator attention required).
    pub alarms: u64,
}

impl Default for PollStats {
    fn default() -> Self {
        PollStats {
            last_success: FxHashMap::default(),
            gap_sum_ms: 0.0,
            gap_count: 0,
            gaps: Reservoir::new(GAP_RESERVOIR_CAP),
            successful_polls: 0,
            failed_polls: 0,
            alarms: 0,
        }
    }
}

impl PollStats {
    /// Fresh, empty statistics.
    pub fn new() -> PollStats {
        PollStats::default()
    }

    /// Registers a (peer, AU) pair when its first poll opens at `t`, so a
    /// pair that *never* succeeds still contributes a censored gap — an
    /// attack that starves polls entirely must not vanish from the delay
    /// ratio.
    pub fn register(&mut self, peer: u32, au: u32, t: SimTime) {
        self.last_success.entry((peer, au)).or_insert(t);
    }

    /// Records a successful poll by `peer` on `au` concluding at `now`.
    pub fn on_success(&mut self, peer: u32, au: u32, now: SimTime) {
        self.successful_polls += 1;
        if let Some(prev) = self.last_success.insert((peer, au), now) {
            let gap_ms = now.since(prev).as_millis() as f64;
            self.gap_sum_ms += gap_ms;
            self.gap_count += 1;
            self.gaps.add(gap_ms);
        }
    }

    /// Records a failed (inquorate or abandoned) poll.
    pub fn on_failure(&mut self) {
        self.failed_polls += 1;
    }

    /// Records an inconclusive-poll alarm (§4.3: requires operator
    /// attention).
    pub fn on_alarm(&mut self) {
        self.alarms += 1;
    }

    /// Mean time between successful polls on the same (peer, AU), counting
    /// only completed gaps. `None` if no gap was observed.
    pub fn mean_time_between_successes(&self) -> Option<Duration> {
        if self.gap_count == 0 {
            return None;
        }
        Some(Duration::from_millis(
            (self.gap_sum_ms / self.gap_count as f64).round() as u64,
        ))
    }

    /// Mean time between successes *including* one right-censored gap per
    /// registered pair (from its last success — or registration — to the
    /// end of the run). This is the delay-ratio numerator/denominator:
    /// starving a pair completely must lengthen the metric, not remove the
    /// pair from it.
    pub fn mean_gap_censored(&self, end: SimTime) -> Option<Duration> {
        let pairs = self.last_success.len() as u64;
        if self.gap_count + pairs == 0 {
            return None;
        }
        let tail: f64 = self
            .last_success
            .values()
            .map(|&t| end.since(t).as_millis() as f64)
            .sum();
        Some(Duration::from_millis(
            ((self.gap_sum_ms + tail) / (self.gap_count + pairs) as f64).round() as u64,
        ))
    }

    /// The `q`-quantile of completed success gaps, from the streaming
    /// reservoir sample. `None` before the first completed gap.
    pub fn gap_quantile(&self, q: f64) -> Option<Duration> {
        self.gaps
            .quantile(q)
            .map(|ms| Duration::from_millis(ms.round() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(days: u64) -> SimTime {
        SimTime::ZERO + Duration::from_days(days)
    }

    #[test]
    fn gaps_are_per_peer_au() {
        let mut s = PollStats::new();
        s.on_success(0, 0, t(0));
        s.on_success(1, 0, t(10)); // different peer: no gap yet
        s.on_success(0, 0, t(90));
        s.on_success(1, 0, t(100));
        assert_eq!(s.successful_polls, 4);
        // Gaps: 90 days and 90 days.
        assert_eq!(
            s.mean_time_between_successes(),
            Some(Duration::from_days(90))
        );
    }

    #[test]
    fn no_gap_without_two_successes() {
        let mut s = PollStats::new();
        assert_eq!(s.mean_time_between_successes(), None);
        s.on_success(0, 0, t(5));
        assert_eq!(s.mean_time_between_successes(), None);
    }

    #[test]
    fn alarms_count() {
        let mut s = PollStats::new();
        s.on_alarm();
        s.on_alarm();
        assert_eq!(s.alarms, 2);
    }

    #[test]
    fn distinct_aus_tracked_separately() {
        let mut s = PollStats::new();
        s.on_success(0, 0, t(0));
        s.on_success(0, 1, t(50));
        s.on_success(0, 0, t(100));
        // Only one gap (au 0): 100 days.
        assert_eq!(
            s.mean_time_between_successes(),
            Some(Duration::from_days(100))
        );
    }
}

#[cfg(test)]
mod censored_tests {
    use super::*;

    fn t(days: u64) -> SimTime {
        SimTime::ZERO + Duration::from_days(days)
    }

    #[test]
    fn starved_pair_contributes_full_run_gap() {
        let mut s = PollStats::new();
        s.register(0, 0, t(0));
        // Never succeeds: the censored mean must be the whole run.
        assert_eq!(s.mean_gap_censored(t(720)), Some(Duration::from_days(720)));
        // Uncensored variant would report nothing at all.
        assert_eq!(s.mean_time_between_successes(), None);
    }

    #[test]
    fn censored_mixes_completed_and_tail_gaps() {
        let mut s = PollStats::new();
        s.register(0, 0, t(0));
        s.on_success(0, 0, t(90)); // completed gap: 90
        s.on_success(0, 0, t(180)); // completed gap: 90
                                    // Tail: 360-180 = 180. Mean = (90+90+180)/3 = 120.
        assert_eq!(s.mean_gap_censored(t(360)), Some(Duration::from_days(120)));
    }

    #[test]
    fn register_is_idempotent_and_does_not_override_success() {
        let mut s = PollStats::new();
        s.register(0, 0, t(0));
        s.register(0, 0, t(50)); // later registration ignored
        s.on_success(0, 0, t(90));
        s.register(0, 0, t(100)); // ignored after success too
        assert_eq!(s.mean_gap_censored(t(180)), Some(Duration::from_days(90)));
    }

    #[test]
    fn empty_stats_have_no_censored_gap() {
        let s = PollStats::new();
        assert_eq!(s.mean_gap_censored(t(100)), None);
    }
}
