//! The per-peer task schedule (§5.1, rate limitation).
//!
//! "To prevent over-commitment, peers maintain a task schedule of their
//! promises to perform effort, both to generate votes for others and to
//! call their own polls. If the effort of computing the vote solicited by
//! an incoming Poll message cannot be accommodated in the schedule, the
//! invitation is refused."
//!
//! The schedule models a single CPU as a sorted list of committed busy
//! intervals; reservations find the earliest gap that fits within a
//! deadline window. Utilization in the paper's configurations is low
//! (over-provisioning is the point), so a linear scan with lazy pruning of
//! past intervals is both simple and fast.

use lockss_sim::{Duration, SimTime};

/// Handle to a reservation, usable to cancel it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reservation {
    pub start: SimTime,
    pub end: SimTime,
    id: u64,
}

#[derive(Clone, Copy, Debug)]
struct Busy {
    start: SimTime,
    end: SimTime,
    id: u64,
}

/// A single-CPU commitment calendar.
#[derive(Clone, Debug, Default)]
pub struct TaskSchedule {
    /// Sorted by start, non-overlapping.
    busy: Vec<Busy>,
    next_id: u64,
    /// Cumulative committed busy time (for utilization reporting).
    committed_total: Duration,
}

impl TaskSchedule {
    /// An empty schedule.
    pub fn new() -> TaskSchedule {
        TaskSchedule::default()
    }

    /// Discards intervals that ended before `now` (call opportunistically).
    pub fn prune(&mut self, now: SimTime) {
        self.busy.retain(|b| b.end > now);
    }

    /// Attempts to reserve `duration` of CPU inside `[earliest, deadline]`.
    ///
    /// Returns the reservation (earliest feasible start) or `None` if no
    /// gap fits, in which case the §5.1 response is to refuse the
    /// invitation.
    pub fn try_reserve(
        &mut self,
        now: SimTime,
        earliest: SimTime,
        deadline: SimTime,
        duration: Duration,
    ) -> Option<Reservation> {
        self.prune(now);
        let earliest = earliest.max(now);
        if earliest + duration > deadline {
            return None;
        }
        let mut candidate = earliest;
        let mut insert_at = self.busy.len();
        for (i, b) in self.busy.iter().enumerate() {
            if b.end <= candidate {
                continue;
            }
            if candidate + duration <= b.start {
                insert_at = i;
                break;
            }
            candidate = b.end;
            if candidate + duration > deadline {
                return None;
            }
            insert_at = i + 1;
        }
        if candidate + duration > deadline {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.busy.insert(
            insert_at,
            Busy {
                start: candidate,
                end: candidate + duration,
                id,
            },
        );
        self.committed_total += duration;
        Some(Reservation {
            start: candidate,
            end: candidate + duration,
            id,
        })
    }

    /// Reserves `duration` at the earliest opportunity with no deadline
    /// (the poller's own work is never refused, only delayed).
    pub fn reserve(&mut self, now: SimTime, duration: Duration) -> Reservation {
        self.try_reserve(now, now, SimTime(u64::MAX), duration)
            .expect("unbounded reservation always succeeds")
    }

    /// Cancels a reservation (a deserting poller never sent its PollProof).
    /// Returns true if it was still held.
    pub fn cancel(&mut self, r: Reservation) -> bool {
        if let Some(i) = self.busy.iter().position(|b| b.id == r.id) {
            let b = self.busy.remove(i);
            self.committed_total -= b.end.since(b.start);
            true
        } else {
            false
        }
    }

    /// Number of live committed intervals.
    pub fn live(&self) -> usize {
        self.busy.len()
    }

    /// Total CPU time ever committed (including later-cancelled time being
    /// subtracted), for utilization diagnostics.
    pub fn committed_total(&self) -> Duration {
        self.committed_total
    }

    /// Approximate heap bytes of the committed intervals (capacity ×
    /// interval size).
    pub fn heap_bytes(&self) -> usize {
        self.busy.capacity() * std::mem::size_of::<Busy>()
    }

    /// The end of the last committed interval, if any.
    pub fn horizon(&self) -> Option<SimTime> {
        self.busy.last().map(|b| b.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }
    fn d(secs: u64) -> Duration {
        Duration::from_secs(secs)
    }

    #[test]
    fn empty_schedule_reserves_immediately() {
        let mut s = TaskSchedule::new();
        let r = s.try_reserve(t(10), t(10), t(100), d(5)).expect("fits");
        assert_eq!(r.start, t(10));
        assert_eq!(r.end, t(15));
    }

    #[test]
    fn back_to_back_reservations_queue() {
        let mut s = TaskSchedule::new();
        let a = s.try_reserve(t(0), t(0), t(100), d(10)).unwrap();
        let b = s.try_reserve(t(0), t(0), t(100), d(10)).unwrap();
        assert_eq!(a.end, b.start);
        assert_eq!(b.end, t(20));
        assert_eq!(s.live(), 2);
    }

    #[test]
    fn gap_between_reservations_is_used() {
        let mut s = TaskSchedule::new();
        let _a = s.try_reserve(t(0), t(0), t(100), d(10)).unwrap(); // [0,10)
        let _c = s.try_reserve(t(0), t(50), t(100), d(10)).unwrap(); // [50,60)
        let b = s.try_reserve(t(0), t(0), t(100), d(20)).unwrap();
        assert_eq!(b.start, t(10), "fits in the gap [10,50)");
        assert_eq!(b.end, t(30));
    }

    #[test]
    fn deadline_refusal() {
        let mut s = TaskSchedule::new();
        let _ = s.try_reserve(t(0), t(0), t(100), d(50)).unwrap(); // [0,50)
                                                                   // Window [0, 60] has only [50,60) free: a 20s task cannot fit.
        assert!(s.try_reserve(t(0), t(0), t(60), d(20)).is_none());
        // But a 10s task exactly fits.
        let r = s.try_reserve(t(0), t(0), t(60), d(10)).unwrap();
        assert_eq!(r.start, t(50));
    }

    #[test]
    fn earliest_bound_respected() {
        let mut s = TaskSchedule::new();
        let r = s.try_reserve(t(0), t(30), t(100), d(5)).unwrap();
        assert_eq!(r.start, t(30));
    }

    #[test]
    fn cancel_frees_the_slot() {
        let mut s = TaskSchedule::new();
        let a = s.try_reserve(t(0), t(0), t(100), d(50)).unwrap();
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double cancel is a no-op");
        let b = s.try_reserve(t(0), t(0), t(60), d(20)).unwrap();
        assert_eq!(b.start, t(0), "cancelled slot is reusable");
    }

    #[test]
    fn prune_drops_past_intervals() {
        let mut s = TaskSchedule::new();
        let _ = s.try_reserve(t(0), t(0), t(100), d(10)).unwrap();
        let _ = s.try_reserve(t(0), t(0), t(100), d(10)).unwrap();
        s.prune(t(15));
        assert_eq!(s.live(), 1);
        s.prune(t(25));
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn unbounded_reserve_never_fails() {
        let mut s = TaskSchedule::new();
        for _ in 0..100 {
            s.reserve(t(0), d(1000));
        }
        assert_eq!(s.live(), 100);
        assert_eq!(s.horizon(), Some(t(100_000)));
    }

    #[test]
    fn zero_duration_reservation() {
        let mut s = TaskSchedule::new();
        let r = s.try_reserve(t(5), t(5), t(5), Duration::ZERO).unwrap();
        assert_eq!(r.start, r.end);
    }

    #[test]
    fn reservations_never_overlap_property() {
        // Deterministic pseudo-random stress: schedule and cancel many
        // tasks, assert the invariant after each operation.
        let mut s = TaskSchedule::new();
        let mut held = Vec::new();
        let mut x: u64 = 12345;
        for step in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let now = t(step);
            if x.is_multiple_of(3) && !held.is_empty() {
                let r: Reservation = held.swap_remove((x / 3) as usize % held.len());
                s.cancel(r);
            } else {
                let dur = d(1 + x % 30);
                let window = 40 + (x >> 8) % 200;
                if let Some(r) = s.try_reserve(now, now, now + d(window), dur) {
                    held.push(r);
                }
            }
            // Invariant: sorted, non-overlapping.
            let mut prev_end = SimTime::ZERO;
            for b in &s.busy {
                assert!(b.start >= prev_end, "overlap at step {step}");
                assert!(b.end >= b.start);
                prev_end = b.end;
            }
        }
    }
}

// Seeded randomized property sweeps (no proptest under the offline
// dependency policy; cases are a pure function of the fixed seed).
#[cfg(test)]
mod proptests {
    use super::*;
    use lockss_sim::SimRng;

    /// No sequence of reservations and cancellations can make busy
    /// intervals overlap, and every granted reservation fits its
    /// window.
    #[test]
    fn intervals_never_overlap() {
        let mut rng = SimRng::seed_from_u64(0x7363_6801);
        for _ in 0..64 {
            let n_ops = 1 + rng.below(119);
            let mut s = TaskSchedule::new();
            let mut held: Vec<Reservation> = Vec::new();
            let mut now = SimTime::ZERO;
            for _ in 0..n_ops {
                let advance = rng.below(1_000) as u64;
                let dur = 1 + rng.below(119) as u64;
                let window = 10 + rng.below(390) as u64;
                let cancel_one = rng.chance(0.5);
                now += Duration::from_secs(advance);
                if cancel_one && !held.is_empty() {
                    let r = held.remove(0);
                    s.cancel(r);
                    continue;
                }
                let deadline = now + Duration::from_secs(window);
                if let Some(r) = s.try_reserve(now, now, deadline, Duration::from_secs(dur)) {
                    assert!(r.start >= now);
                    assert!(r.end <= deadline);
                    assert_eq!(r.end.since(r.start), Duration::from_secs(dur));
                    held.push(r);
                }
                // Check pairwise disjointness of everything still held.
                let mut spans: Vec<(SimTime, SimTime)> =
                    held.iter().map(|r| (r.start, r.end)).collect();
                spans.sort();
                for w in spans.windows(2) {
                    assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
                }
            }
        }
    }

    /// Reservations are granted earliest-first: a second identical
    /// request never starts before an earlier one.
    #[test]
    fn reservations_are_fifo_for_identical_requests() {
        let mut rng = SimRng::seed_from_u64(0x7363_6802);
        for _ in 0..128 {
            let dur = 1 + rng.below(59) as u64;
            let n = 2 + rng.below(8);
            let mut s = TaskSchedule::new();
            let mut last_start = SimTime::ZERO;
            for _ in 0..n {
                let r = s
                    .try_reserve(
                        SimTime::ZERO,
                        SimTime::ZERO,
                        SimTime(u64::MAX),
                        Duration::from_secs(dur),
                    )
                    .expect("unbounded window");
                assert!(r.start >= last_start);
                last_start = r.start;
            }
        }
    }
}
