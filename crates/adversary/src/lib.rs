//! Attrition attack strategies (§6.2, §7).
//!
//! All adversaries share the paper's conservative capabilities (§3.1):
//! total information awareness (free, instantaneous coordination), insider
//! information (they know victims' parameters and admission state),
//! unconstrained identities, and — for the effortful attacker — unlimited
//! compute, charged to the adversary ledger but never rate-limiting him.
//! Minions sit outside the loyal population: loyal peers never solicit
//! votes from them (§6.2).
//!
//! - [`Blackout::pipe_stoppage`]: the effortless network-level DoS (§7.2)
//!   — suppresses all communication for a coverage-sized random subset for
//!   a duration, repeating after a 30-day recuperation with a fresh subset.
//! - [`AdmissionFlood`]: the admission-control attack (§7.3) — cheap
//!   garbage invitations from unknown identities keep victims' refractory
//!   periods permanently triggered.
//! - [`BruteForce`]: the effortful attack on the effort-verification
//!   filters (§7.4) — valid introductory efforts from in-debt identities,
//!   then defection at INTRO, REMAINING, or not at all (NONE).
//! - [`VoteFlood`]: the unsolicited bogus-vote flood (§5.1) — defeated for
//!   free because votes can only be supplied in response to an invitation.
//!
//! Beyond the paper's evaluation, three dynamic-environment attacks:
//!
//! - [`Blackout::churn_storm`]: mass departure/re-arrival synchronized with
//!   the poll cadence (the §9 "more dynamic environment", sharpened into an
//!   attack);
//! - [`SybilRamp`]: an admission flood that escalates its victim set over
//!   time, minting a fresh sybil identity per invitation;
//! - [`MobileTakeover`]: a migrating Byzantine compromise with a fixed
//!   concurrency budget — compromised peers vote from pre-corruption
//!   shadows and poison the repairs they serve; cure restores loyalty but
//!   not data, so the §4.3 repair machinery must heal the damage.
//!
//! And composition: [`Compose`] runs any number of the above against one
//! world, concurrently or phased by per-child start offsets, so campaigns
//! like "pipe stoppage, then admission flood during recovery" are a
//! handful of lines.
//!
//! Each mechanism is written once: the flood, the sybil ramp and the brute
//! force share one refractory-timed admission burst (the private `flood`
//! module); the pipe stoppage and the churn storm are one [`Blackout`].

pub mod admission_flood;
pub mod blackout;
pub mod brute_force;
pub mod compose;
mod flood;
pub mod mobile_takeover;
pub mod sybil_ramp;
pub mod vote_flood;

pub use admission_flood::AdmissionFlood;
pub use blackout::Blackout;
pub use brute_force::{BruteForce, Defection};
pub use compose::Compose;
pub use mobile_takeover::MobileTakeover;
pub use sybil_ramp::SybilRamp;
pub use vote_flood::VoteFlood;

// Each Blackout constructor's clamps and per-cycle counts, tested under the
// name of the attack it builds.
#[cfg(test)]
mod pipe_stoppage {
    #[cfg(test)]
    mod tests {
        use crate::Blackout;

        #[test]
        fn victim_count_rounds() {
            let a = Blackout::pipe_stoppage(0.4, 10);
            assert_eq!(a.per_cycle(100), 40);
            let b = Blackout::pipe_stoppage(1.0, 10);
            assert_eq!(b.per_cycle(100), 100);
            let c = Blackout::pipe_stoppage(0.0, 10);
            assert_eq!(c.per_cycle(100), 0);
        }

        #[test]
        fn coverage_is_clamped() {
            let a = Blackout::pipe_stoppage(7.0, 10);
            assert!((a.coverage - 1.0).abs() < 1e-12);
        }
    }
}

#[cfg(test)]
mod churn_storm {
    #[cfg(test)]
    mod tests {
        use crate::blackout::Clock;
        use crate::Blackout;

        #[test]
        fn parameters_are_clamped() {
            let s = Blackout::churn_storm(3.0, -1.0);
            assert!((s.coverage - 1.0).abs() < 1e-12);
            assert_eq!(s.clock, Clock::Storm { duty: 0.0 });
        }

        #[test]
        fn departure_count_rounds() {
            let s = Blackout::churn_storm(0.5, 0.7);
            assert_eq!(s.per_cycle(100), 50);
            assert_eq!(s.per_cycle(0), 0);
        }
    }
}
