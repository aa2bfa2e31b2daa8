//! Trace-derived timelines: the per-poll and per-window views the live
//! metric counters cannot reconstruct after the fact.
//!
//! [`RunMetrics`](crate::RunMetrics) condenses a run as it executes —
//! counts, integrals, phase deltas — and deliberately forgets individual
//! polls. The event-trace layer (`lockss-trace`) keeps the full causal
//! stream, and its stats pass rebuilds *timelines* from it: one
//! [`PollTimeline`] per poll (when it opened, how long it ran, how many
//! votes it gathered, how it concluded) and [`TimeBuckets`] histograms of
//! event activity over simulated time. This module owns those types so any
//! consumer of the metrics crate can aggregate them without depending on
//! the trace format itself.

use lockss_sim::{Duration, SimTime};

/// The reconstructed lifecycle of one poll.
#[derive(Clone, Debug, PartialEq)]
pub struct PollTimeline {
    /// The globally unique poll id.
    pub poll: u64,
    /// The poller's peer index.
    pub peer: u32,
    /// The audited AU index.
    pub au: u32,
    /// When the poll opened.
    pub started: SimTime,
    /// When it concluded (`None` if the run ended first).
    pub concluded: Option<SimTime>,
    /// Outcome label (`"win"`, `"loss"`, `"inconclusive"`, `"inquorate"`);
    /// `None` while unconcluded.
    pub outcome: Option<&'static str>,
    /// Valid votes recorded at conclusion.
    pub votes: u32,
    /// Poll invitations the poller shipped (including retries).
    pub invites_sent: u32,
    /// Repair blocks applied during the poll.
    pub repairs: u32,
}

impl PollTimeline {
    /// A poll that has just opened.
    pub fn open(poll: u64, peer: u32, au: u32, started: SimTime) -> PollTimeline {
        PollTimeline {
            poll,
            peer,
            au,
            started,
            concluded: None,
            outcome: None,
            votes: 0,
            invites_sent: 0,
            repairs: 0,
        }
    }

    /// How long the poll ran (up to `end` if it never concluded).
    pub fn duration(&self, end: SimTime) -> Duration {
        self.concluded.unwrap_or(end).since(self.started)
    }
}

/// Aggregate view over a run's poll timelines.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineSummary {
    /// Polls that opened.
    pub polls_started: u64,
    /// Polls that concluded before the run ended.
    pub polls_concluded: u64,
    /// Concluded with a landslide win.
    pub wins: u64,
    /// Concluded with a landslide loss.
    pub losses: u64,
    /// Concluded quorate but without a landslide.
    pub inconclusive: u64,
    /// Concluded inquorate.
    pub inquorate: u64,
    /// Mean open-to-conclusion time of concluded polls.
    pub mean_poll_duration: Option<Duration>,
    /// Mean valid votes per concluded poll.
    pub mean_votes: f64,
    /// Mean invitations shipped per poll (retries included).
    pub mean_invites: f64,
    /// Total repair blocks applied.
    pub repairs: u64,
}

impl TimelineSummary {
    /// Condenses a set of poll timelines.
    pub fn from_polls(polls: &[PollTimeline]) -> TimelineSummary {
        let mut s = TimelineSummary {
            polls_started: polls.len() as u64,
            ..TimelineSummary::default()
        };
        let mut dur_ms = 0u64;
        let mut votes = 0u64;
        let mut invites = 0u64;
        for p in polls {
            invites += p.invites_sent as u64;
            s.repairs += p.repairs as u64;
            let Some(concluded) = p.concluded else {
                continue;
            };
            s.polls_concluded += 1;
            dur_ms += concluded.since(p.started).as_millis();
            votes += p.votes as u64;
            match p.outcome {
                Some("win") => s.wins += 1,
                Some("loss") => s.losses += 1,
                Some("inconclusive") => s.inconclusive += 1,
                Some("inquorate") => s.inquorate += 1,
                _ => {}
            }
        }
        if let Some(mean_ms) = dur_ms.checked_div(s.polls_concluded) {
            s.mean_poll_duration = Some(Duration::from_millis(mean_ms));
            s.mean_votes = votes as f64 / s.polls_concluded as f64;
        }
        if s.polls_started > 0 {
            s.mean_invites = invites as f64 / s.polls_started as f64;
        }
        s
    }
}

/// A fixed-width histogram of event counts over simulated time.
///
/// Trace diffing uses two of these to show *where* two runs' behaviors
/// fork: aligned buckets subtract cleanly even when the runs drift apart
/// event-by-event.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeBuckets {
    width: Duration,
    counts: Vec<u64>,
}

impl TimeBuckets {
    /// An empty histogram with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: Duration) -> TimeBuckets {
        assert!(!width.is_zero(), "bucket width must be positive");
        TimeBuckets {
            width,
            counts: Vec::new(),
        }
    }

    /// The bucket width.
    pub fn width(&self) -> Duration {
        self.width
    }

    /// Counts one event at `at`.
    pub fn add(&mut self, at: SimTime) {
        let idx = (at.as_millis() / self.width.as_millis()) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Number of buckets (through the latest seen event).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if no event was counted.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// The count in bucket `idx` (0 past the end).
    pub fn count(&self, idx: usize) -> u64 {
        self.counts.get(idx).copied().unwrap_or(0)
    }

    /// Total events counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-bucket signed difference `self - other` (buckets must have the
    /// same width).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn delta(&self, other: &TimeBuckets) -> Vec<i64> {
        assert_eq!(self.width, other.width, "bucket widths must match");
        let n = self.counts.len().max(other.counts.len());
        (0..n)
            .map(|i| self.count(i) as i64 - other.count(i) as i64)
            .collect()
    }

    /// The bucket with the largest absolute difference against `other`,
    /// as `(bucket index, signed delta)`; ties go to the earliest bucket;
    /// `None` if identical.
    pub fn widest_gap(&self, other: &TimeBuckets) -> Option<(usize, i64)> {
        let mut best: Option<(usize, i64)> = None;
        for (i, d) in self.delta(other).into_iter().enumerate() {
            if d != 0 && best.is_none_or(|(_, b)| d.unsigned_abs() > b.unsigned_abs()) {
                best = Some((i, d));
            }
        }
        best
    }

    /// The simulated span bucket `idx` covers, as `(start, end)`.
    pub fn span(&self, idx: usize) -> (SimTime, SimTime) {
        let start = SimTime(self.width.as_millis() * idx as u64);
        (start, start + self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(days: u64) -> SimTime {
        SimTime::ZERO + Duration::from_days(days)
    }

    #[test]
    fn timeline_summary_aggregates() {
        let mut a = PollTimeline::open(0, 1, 0, t(0));
        a.concluded = Some(t(10));
        a.outcome = Some("win");
        a.votes = 8;
        a.invites_sent = 12;
        a.repairs = 1;
        let mut b = PollTimeline::open(1, 2, 0, t(5));
        b.concluded = Some(t(25));
        b.outcome = Some("inquorate");
        b.invites_sent = 10;
        let c = PollTimeline::open(2, 1, 1, t(30)); // never concluded
        let s = TimelineSummary::from_polls(&[a, b, c.clone()]);
        assert_eq!(s.polls_started, 3);
        assert_eq!(s.polls_concluded, 2);
        assert_eq!(s.wins, 1);
        assert_eq!(s.inquorate, 1);
        assert_eq!(s.mean_poll_duration, Some(Duration::from_days(15)));
        assert!((s.mean_votes - 4.0).abs() < 1e-12);
        assert_eq!(s.repairs, 1);
        assert_eq!(c.duration(t(40)), Duration::from_days(10));
    }

    #[test]
    fn buckets_count_and_diff() {
        let w = Duration::from_days(30);
        let mut a = TimeBuckets::new(w);
        let mut b = TimeBuckets::new(w);
        for d in [1, 2, 40, 40, 100] {
            a.add(t(d));
        }
        for d in [1, 40, 95] {
            b.add(t(d));
        }
        assert_eq!(a.total(), 5);
        assert_eq!(a.len(), 4);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.delta(&b), vec![1, 1, 0, 0]);
        assert_eq!(a.widest_gap(&b), Some((0, 1)));
        assert!(a.widest_gap(&a).is_none());
        let (start, end) = a.span(1);
        assert_eq!(start, t(30));
        assert_eq!(end, t(60));
        assert!(!a.is_empty());
        assert!(TimeBuckets::new(w).is_empty());
    }

    #[test]
    #[should_panic(expected = "bucket widths must match")]
    fn mismatched_widths_panic() {
        let a = TimeBuckets::new(Duration::from_days(1));
        let b = TimeBuckets::new(Duration::from_days(2));
        let _ = a.delta(&b);
    }
}
