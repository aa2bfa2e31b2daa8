//! Protocol and world configuration.

use lockss_effort::CostModel;
use lockss_sim::Duration;
use lockss_storage::AuSpec;

/// Tunable parameters of the audit/repair protocol and its defenses.
///
/// Defaults are the paper's §6.3 values where given, and documented
/// heuristics otherwise.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolConfig {
    /// Minimum inner-circle votes for a poll to count (§4.1; paper: 10).
    pub quorum: usize,
    /// Inner-circle invitees sampled per poll (paper: twice the quorum).
    pub inner_circle: usize,
    /// Landslide margin: at most this many disagreeing votes still count
    /// as landslide agreement (§6.3; paper: 3).
    pub max_disagree: usize,
    /// Mean inter-poll interval per AU (§4; paper: 3 months).
    pub poll_interval: Duration,
    /// Multiplicative jitter on the interval (±fraction).
    pub interval_jitter: f64,
    /// Fraction of the interval used as the vote-solicitation window.
    pub solicit_frac: f64,
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
    /// Reference-list size at world start (steady-state proxy).
    pub reflist_initial: usize,
    /// Reference-list size cap.
    pub reflist_cap: usize,
    /// Static friends per peer (operator-maintained, §4.1).
    pub friends: usize,
    /// Friends inserted into the reference list at each poll conclusion.
    pub friend_bias: usize,
    /// Reference-list entries a voter nominates in each Vote (§4.2).
    pub nominations: usize,
    /// Probability that a nominated identity is treated as an introduction
    /// rather than an outer-circle candidate (§5.1: random partition).
    pub introduction_frac: f64,
    /// Maximum outstanding introductions remembered per AU (§5.1: capped).
    pub max_introductions: usize,
    /// Outer-circle voters solicited per poll (§4.2).
    pub outer_circle: usize,
    /// Probability of requesting one frivolous repair per poll (§4.3).
    pub frivolous_repair_prob: f64,
    /// Repairs a committed voter must serve per poll before penalizing
    /// (§4.3: "a small number").
    pub max_repairs_served: u32,
    /// How long a poller waits for a PollAck before treating the invitee
    /// as unresponsive and retrying later.
    pub invite_timeout: Duration,
    /// Maximum solicitation attempts per invitee per poll.
    pub max_invite_attempts: u32,
    /// How long a voter holds a reservation waiting for the PollProof.
    pub proof_timeout: Duration,
    /// Slack after poll conclusion before a missing receipt penalizes the
    /// poller.
    pub receipt_slack: Duration,
    /// Ablation switches: disable individual defenses to measure their
    /// contribution (`lockss-sim figure ablations`). All default to
    /// fully-enabled.
    pub ablation: Ablation,
    /// §9 adaptive behaviour: "loyal peers could modulate the probability
    /// of acceptance of a poll request according to their recent busyness.
    /// The effect would be to raise the marginal effort required to
    /// increase the loyal peer's busyness as the attack effort increases."
    /// Off by default (the paper leaves it as future work).
    pub adaptive_acceptance: bool,
    /// Busyness horizon for adaptive acceptance: refuse with probability
    /// equal to the committed CPU fraction over this window ahead.
    pub adaptive_window: Duration,
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
            quorum: 10,
            inner_circle: 20,
            max_disagree: 3,
            poll_interval: Duration::MONTH * 3,
            interval_jitter: 0.1,
            solicit_frac: 0.7,
            refractory: Duration::DAY,
            drop_unknown: 0.90,
            drop_debt: 0.80,
            grade_decay: Duration::MONTH * 6,
            reflist_initial: 40,
            reflist_cap: 60,
            friends: 10,
            friend_bias: 2,
            nominations: 8,
            introduction_frac: 0.5,
            max_introductions: 8,
            outer_circle: 10,
            frivolous_repair_prob: 0.1,
            max_repairs_served: 4,
            invite_timeout: Duration::HOUR,
            max_invite_attempts: 3,
            proof_timeout: Duration::HOUR * 2,
            receipt_slack: Duration::DAY,
            ablation: Ablation::default(),
            adaptive_acceptance: false,
            adaptive_window: Duration::DAY,
        }
    }
}

impl ProtocolConfig {
    /// The solicitation window length.
    pub fn solicit_window(&self) -> Duration {
        self.poll_interval.mul_f64(self.solicit_frac)
    }

    /// Basic consistency checks; call after hand-editing a config.
    pub fn validate(&self) -> Result<(), String> {
        if self.quorum == 0 {
            return Err("quorum must be positive".into());
        }
        if self.inner_circle < self.quorum {
            return Err("inner circle must be at least the quorum".into());
        }
        if self.max_disagree >= self.quorum {
            return Err("landslide margin must be below the quorum".into());
        }
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
        if !(0.0..1.0).contains(&self.solicit_frac) || self.solicit_frac == 0.0 {
            return Err("solicitation fraction must be in (0,1)".into());
        }
        if self.poll_interval.is_zero() || self.refractory.is_zero() {
            return Err("intervals must be positive".into());
        }
        Ok(())
    }
}

/// Full description of a simulated world.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldConfig {
    /// Loyal peer population (paper: 100).
    pub n_peers: usize,
    /// AUs preserved by every peer (paper: 50 per layer, up to 600).
    pub n_aus: usize,
    /// Archival unit geometry.
    pub au_spec: AuSpec,
    /// Mean time between storage damage events per disk, in years
    /// (paper: 1–5).
    pub mtbf_years: f64,
    /// Protocol parameters.
    pub protocol: ProtocolConfig,
    /// Effort cost model.
    pub cost: CostModel,
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
        let au_spec = AuSpec::default();
        WorldConfig {
            n_peers: 100,
            n_aus: 50,
            au_spec,
            mtbf_years: 5.0,
            protocol: ProtocolConfig::default(),
            cost: CostModel::default().with_au_bytes(au_spec.size_bytes),
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
        if self.n_peers < self.protocol.inner_circle + 1 {
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
        if self.mtbf_years <= 0.0 {
            return Err("mtbf must be positive".into());
        }
        if self.cost.au_bytes != self.au_spec.size_bytes {
            return Err("cost model AU size must match the AU spec".into());
        }
        if self.cost.block_bytes != self.au_spec.block_bytes {
            return Err("cost model block size must match the AU spec".into());
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
        let p = ProtocolConfig::default();
        assert_eq!(p.quorum, 10);
        assert_eq!(p.inner_circle, 2 * p.quorum);
        assert_eq!(p.max_disagree, 3);
        assert_eq!(p.poll_interval, Duration::MONTH * 3);
        assert_eq!(p.refractory, Duration::DAY);
        assert!((p.drop_unknown - 0.9).abs() < 1e-12);
        assert!((p.drop_debt - 0.8).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_rejected() {
        let p = ProtocolConfig {
            inner_circle: 5,
            ..ProtocolConfig::default()
        };
        assert!(p.validate().is_err());

        let p = ProtocolConfig {
            max_disagree: 10,
            ..ProtocolConfig::default()
        };
        assert!(p.validate().is_err());

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

        let mut w = WorldConfig::default();
        w.cost = w.cost.with_au_bytes(123);
        assert!(w.validate().is_err());

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
