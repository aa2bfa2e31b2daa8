//! Protocol and world configuration.
//!
//! A [`WorldConfig`] holds only what a run varies: the population, the
//! collection, the AU size, the damage rate, the §9 admission knobs, the
//! defense ablations, the seed and the link mix. The calibration no run
//! varies is [`ProtocolConfig`]'s associated constants (§4, §6.3) and
//! `lockss_effort::CostModel::default()` (§5.1, §6.3).

use lockss_sim::Duration;
use lockss_storage::AuSpec;

/// The audit/repair protocol's settable parameters, and its fixed
/// calibration as associated constants.
///
/// Defaults are the paper's §6.3 values where given, and documented
/// heuristics otherwise.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolConfig {
    /// Mean inter-poll interval per AU (§4; paper: 3 months).
    pub poll_interval: Duration,
    /// Refractory period: after admitting one unknown/in-debt invitation,
    /// auto-reject further unknown/in-debt invitations for this long
    /// (§6.3; paper: 1 day). Also the per-known-peer admission rate limit.
    pub refractory: Duration,
    /// Probability of dropping an invitation from an unknown identity
    /// (§6.3; paper: 0.90).
    pub drop_unknown: f64,
    /// Probability of dropping an invitation from an in-debt identity
    /// (§6.3; paper: 0.80).
    pub drop_debt: f64,
    /// Reputation grades decay one step toward debt per this period (§5.1
    /// describes decay without a constant; heuristic: two inter-poll
    /// intervals).
    pub grade_decay: Duration,
    /// Maximum outstanding introductions remembered per AU (§5.1: capped).
    pub max_introductions: usize,
    /// Ablation switches: disable individual defenses to measure their
    /// contribution (`lockss-sim figure ablations`). All default to
    /// fully-enabled.
    pub ablation: Ablation,
}

/// Defense ablation switches (all `false` = the full protocol).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ablation {
    /// Solicit all votes at once at poll start instead of individually at
    /// randomized times (§5.2 desynchronization off).
    pub synchronous_solicitation: bool,
    /// Never enter refractory periods (§5.1 admission rate limit off).
    pub no_refractory: bool,
    /// Ignore introductions (§5.1 discovery bypass off).
    pub no_introductions: bool,
    /// Treat every known identity as `even` (first-hand reputation off;
    /// random drops then apply only to unknowns).
    pub no_reputation: bool,
    /// Skip effort proofs entirely: requests cost the sender nothing
    /// (§5.1 effort balancing off; the paper's pre-hardening protocol).
    pub no_effort_balancing: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            poll_interval: Duration::MONTH * 3,
            refractory: Duration::DAY,
            drop_unknown: 0.90,
            drop_debt: 0.80,
            grade_decay: Duration::MONTH * 6,
            max_introductions: 8,
            ablation: Ablation::default(),
        }
    }
}

impl ProtocolConfig {
    /// Minimum inner-circle votes for a poll to count (§4.1; paper: 10).
    pub const QUORUM: usize = 10;
    /// Inner-circle invitees sampled per poll (paper: twice the quorum).
    pub const INNER_CIRCLE: usize = 20;
    /// Landslide margin: at most this many disagreeing votes still count
    /// as landslide agreement (§6.3; paper: 3).
    pub const MAX_DISAGREE: usize = 3;
    /// Multiplicative jitter on the interval (±fraction).
    pub const INTERVAL_JITTER: f64 = 0.1;
    /// Fraction of the interval used as the vote-solicitation window.
    pub const SOLICIT_FRAC: f64 = 0.7;
    /// Reference-list size at world start (steady-state proxy).
    pub const REFLIST_INITIAL: usize = 40;
    /// Reference-list size cap.
    pub const REFLIST_CAP: usize = 60;
    /// Static friends per peer (operator-maintained, §4.1).
    pub const FRIENDS: usize = 10;
    /// Friends inserted into the reference list at each poll conclusion.
    pub const FRIEND_BIAS: usize = 2;
    /// Reference-list entries a voter nominates in each Vote (§4.2).
    pub const NOMINATIONS: usize = 8;
    /// Probability that a nominated identity is treated as an introduction
    /// rather than an outer-circle candidate (§5.1: random partition).
    pub const INTRODUCTION_FRAC: f64 = 0.5;
    /// Outer-circle voters solicited per poll (§4.2).
    pub const OUTER_CIRCLE: usize = 10;
    /// Probability of requesting one frivolous repair per poll (§4.3).
    pub const FRIVOLOUS_REPAIR_PROB: f64 = 0.1;
    /// Repairs a committed voter must serve per poll before penalizing
    /// (§4.3: "a small number").
    pub const MAX_REPAIRS_SERVED: u32 = 4;
    /// How long a poller waits for a PollAck before treating the invitee
    /// as unresponsive and retrying later.
    pub const INVITE_TIMEOUT: Duration = Duration::HOUR;
    /// Maximum solicitation attempts per invitee per poll.
    pub const MAX_INVITE_ATTEMPTS: u32 = 3;
    /// How long a voter holds a reservation waiting for the PollProof.
    pub const PROOF_TIMEOUT: Duration = Duration::from_hours(2);
    /// Slack after poll conclusion before a missing receipt penalizes the
    /// poller.
    pub const RECEIPT_SLACK: Duration = Duration::DAY;

    /// The solicitation window length.
    pub fn solicit_window(&self) -> Duration {
        self.poll_interval.mul_f64(Self::SOLICIT_FRAC)
    }

    /// Basic consistency checks on the settable values; call after
    /// hand-editing a config. The constants are checked at compile time.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.drop_unknown) || !(0.0..=1.0).contains(&self.drop_debt) {
            return Err("drop probabilities must be in [0,1]".into());
        }
        if self.drop_unknown < self.drop_debt {
            return Err(
                "unknown-peer drops must be at least as aggressive as in-debt drops \
                 (whitewashing defense, §5.1)"
                    .into(),
            );
        }
        if self.poll_interval.is_zero() || self.refractory.is_zero() {
            return Err("intervals must be positive".into());
        }
        Ok(())
    }
}

const _: () = assert!(ProtocolConfig::QUORUM > 0, "quorum must be positive");
const _: () = assert!(
    ProtocolConfig::INNER_CIRCLE >= ProtocolConfig::QUORUM,
    "inner circle must be at least the quorum"
);
const _: () = assert!(
    ProtocolConfig::MAX_DISAGREE < ProtocolConfig::QUORUM,
    "landslide margin must be below the quorum"
);
const _: () = assert!(
    ProtocolConfig::SOLICIT_FRAC > 0.0 && ProtocolConfig::SOLICIT_FRAC < 1.0,
    "solicitation fraction must be in (0,1)"
);

/// Full description of a simulated world.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldConfig {
    /// Loyal peer population (paper: 100).
    pub n_peers: usize,
    /// AUs preserved by every peer (paper: 50 per layer, up to 600).
    pub n_aus: usize,
    /// Archival unit geometry: its size, the one input of the derived
    /// effort costs.
    pub au_spec: AuSpec,
    /// Mean time between storage damage events per disk, in years
    /// (paper: 1–5).
    pub mtbf_years: f64,
    /// Protocol parameters.
    pub protocol: ProtocolConfig,
    /// RNG seed for the whole run.
    pub seed: u64,
    /// Optional weighted bandwidth-class mix over
    /// `lockss_net::BANDWIDTH_CLASSES_BPS` (low → high). `None` keeps the
    /// paper's uniform three-way split; the production-scale worlds use a
    /// skewed mix drawn through an O(1) alias table.
    pub link_mix: Option<[f64; 3]>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            n_peers: 100,
            n_aus: 50,
            au_spec: AuSpec::default(),
            mtbf_years: 5.0,
            protocol: ProtocolConfig::default(),
            seed: 1,
            link_mix: None,
        }
    }
}

impl WorldConfig {
    /// The most loyal peers a world may hold: flood burst tags
    /// (`lockss-adversary`'s `burst_tag`) name a victim in 24 bits, so a
    /// larger population would alias victims.
    pub const MAX_PEERS: usize = 1 << 24;

    /// The most (peer, AU) cells a world may hold. At the ~9 KB of peak
    /// RSS a cell costs, 2^24 cells need ~150 GB before the first event:
    /// a larger world is a mistake, refused before it is allocated.
    pub const MAX_CELLS: usize = 1 << 24;

    /// Total replicas in the system.
    pub fn total_replicas(&self) -> u64 {
        (self.n_peers * self.n_aus) as u64
    }

    /// Consistency checks across the whole configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.protocol.validate()?;
        if self.n_peers < ProtocolConfig::INNER_CIRCLE + 1 {
            return Err("population must exceed the inner circle".into());
        }
        if self.n_aus == 0 {
            return Err("need at least one AU".into());
        }
        if self.n_peers > Self::MAX_PEERS {
            return Err(format!("population above {} peers", Self::MAX_PEERS));
        }
        if self.n_peers.saturating_mul(self.n_aus) > Self::MAX_CELLS {
            return Err(format!("more than {} (peer, AU) cells", Self::MAX_CELLS));
        }
        if self.au_spec.size_bytes == 0 {
            return Err("AU size must be positive".into());
        }
        if self.mtbf_years <= 0.0 {
            return Err("mtbf must be positive".into());
        }
        if let Some(mix) = self.link_mix {
            if mix.iter().any(|w| !w.is_finite() || *w < 0.0) || mix.iter().sum::<f64>() <= 0.0 {
                return Err("link mix weights must be non-negative with a positive sum".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ProtocolConfig::default().validate().expect("protocol");
        WorldConfig::default().validate().expect("world");
    }

    #[test]
    fn paper_parameters_are_the_defaults() {
        type P = ProtocolConfig;
        let p = ProtocolConfig::default();
        assert_eq!(P::QUORUM, 10);
        assert_eq!(P::INNER_CIRCLE, 2 * P::QUORUM);
        assert_eq!(P::MAX_DISAGREE, 3);
        assert_eq!(p.poll_interval, Duration::MONTH * 3);
        assert_eq!(p.refractory, Duration::DAY);
        assert!((p.drop_unknown - 0.9).abs() < 1e-12);
        assert!((p.drop_debt - 0.8).abs() < 1e-12);

        // The calibration no run varies, value by value.
        assert_eq!(P::INNER_CIRCLE, 20);
        assert_eq!(P::INTERVAL_JITTER, 0.1);
        assert_eq!(P::SOLICIT_FRAC, 0.7);
        assert_eq!(P::REFLIST_INITIAL, 40);
        assert_eq!(P::REFLIST_CAP, 60);
        assert_eq!(P::FRIENDS, 10);
        assert_eq!(P::FRIEND_BIAS, 2);
        assert_eq!(P::NOMINATIONS, 8);
        assert_eq!(P::INTRODUCTION_FRAC, 0.5);
        assert_eq!(P::OUTER_CIRCLE, 10);
        assert_eq!(P::FRIVOLOUS_REPAIR_PROB, 0.1);
        assert_eq!(P::MAX_REPAIRS_SERVED, 4);
        assert_eq!(P::INVITE_TIMEOUT, Duration::HOUR);
        assert_eq!(P::MAX_INVITE_ATTEMPTS, 3);
        assert_eq!(P::PROOF_TIMEOUT, Duration::HOUR * 2);
        assert_eq!(P::RECEIPT_SLACK, Duration::DAY);

        let w = WorldConfig::default();
        assert_eq!(w.au_spec.size_bytes, 500_000_000);
        assert_eq!(AuSpec::BLOCK_BYTES, 1_000_000);
        let c = lockss_effort::CostModel::default();
        assert_eq!(c.hash_bytes_per_sec, 30.0e6);
        assert_eq!(c.verify_ratio, 0.5);
        assert_eq!(c.effort_margin, 0.05);
        assert_eq!(c.intro_fraction, 0.2);
        assert_eq!(c.session_setup, Duration::from_millis(50));
        assert_eq!(c.message_parse, Duration::from_millis(1));
    }

    #[test]
    fn invalid_configs_rejected() {
        let p = ProtocolConfig {
            drop_unknown: 0.5, // below drop_debt: invites whitewashing
            ..ProtocolConfig::default()
        };
        assert!(p.validate().is_err());

        let w = WorldConfig {
            n_peers: 5,
            ..WorldConfig::default()
        };
        assert!(w.validate().is_err());

        let w = WorldConfig {
            au_spec: AuSpec { size_bytes: 0 },
            ..WorldConfig::default()
        };
        assert_eq!(w.validate(), Err("AU size must be positive".into()));

        for (n_peers, n_aus) in [(WorldConfig::MAX_PEERS + 1, 1), (1 << 12, (1 << 12) + 1)] {
            let w = WorldConfig {
                n_peers,
                n_aus,
                ..WorldConfig::default()
            };
            assert!(w.validate().is_err(), "{n_peers} peers × {n_aus} AUs");
        }
        let w = WorldConfig {
            n_peers: WorldConfig::MAX_PEERS,
            n_aus: 1,
            ..WorldConfig::default()
        };
        assert_eq!(w.validate(), Ok(()), "the bounds are inclusive");
    }

    #[test]
    fn solicit_window_is_fraction_of_interval() {
        let p = ProtocolConfig::default();
        let w = p.solicit_window();
        assert!(w < p.poll_interval);
        assert!(w > p.poll_interval.mul_f64(0.5));
    }

    #[test]
    fn total_replicas() {
        let w = WorldConfig::default();
        assert_eq!(w.total_replicas(), 5000);
    }
}
