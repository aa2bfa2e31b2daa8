//! Scenario description: a world configuration plus an attack.

use lockss_adversary::{
    AdmissionFlood, Blackout, BruteForce, Compose, Defection, MobileTakeover, SybilRamp, VoteFlood,
};
use lockss_core::reputation::KnownPeers;
use lockss_core::{Adversary, WorldConfig};
use lockss_sim::Duration;

use crate::scale::Scale;

/// Which attack to install: a declarative, composable attack description.
///
/// Primitive variants map one-to-one onto `lockss-adversary` strategies;
/// [`AttackSpec::Compose`] combines any of them — concurrently (all
/// offsets zero) or phased (staggered offsets) — into one campaign.
#[derive(Clone, PartialEq, Debug)]
pub enum AttackSpec {
    /// No attack (baseline).
    None,
    /// §7.2 pipe stoppage.
    PipeStoppage {
        /// Fraction of the population suppressed per cycle.
        coverage: f64,
        /// Stoppage length per cycle, in days.
        days: u64,
    },
    /// §7.3 admission flood.
    AdmissionFlood {
        /// Fraction of the population flooded per cycle.
        coverage: f64,
        /// Flood length per cycle, in days.
        days: u64,
    },
    /// §7.4 brute force with a defection point.
    BruteForce {
        /// Where the adversary defects (Table 1).
        defection: Defection,
    },
    /// §5.1 unsolicited bogus-vote flood.
    VoteFlood {
        /// Bogus votes per victim per wave.
        votes_per_wave: u32,
        /// Hours between waves.
        wave_hours: u64,
    },
    /// Mass departure/re-arrival synchronized with the poll cadence.
    ChurnStorm {
        /// Fraction of the population departing per cycle.
        coverage: f64,
        /// Fraction of each poll interval spent departed.
        duty: f64,
    },
    /// Escalating garbage-invitation campaign from fresh sybil identities.
    SybilRamp {
        /// Victim-set growth per step (fraction of the population).
        step: f64,
        /// Days between escalation steps.
        step_days: u64,
    },
    /// Migrating Byzantine compromise with a fixed concurrency budget;
    /// cure restores loyalty but not data.
    MobileTakeover {
        /// Maximum concurrent compromises.
        budget: u32,
        /// Migration period in days; `None` syncs to the poll cadence.
        period_days: Option<u64>,
    },
    /// A composite campaign: members run against the same world, each
    /// starting at its own offset.
    Compose(Vec<PhasedAttack>),
}

/// One member of a composite campaign: an attack and when it starts.
#[derive(Clone, PartialEq, Debug)]
pub struct PhasedAttack {
    /// Days after the run start at which this member begins.
    pub start_days: u64,
    /// The member attack (composites flatten; see [`AttackSpec::build`]).
    pub attack: AttackSpec,
}

/// Shorthand for a composite member.
pub fn phased(start_days: u64, attack: AttackSpec) -> PhasedAttack {
    PhasedAttack { start_days, attack }
}

impl AttackSpec {
    /// True for the no-attack baseline.
    pub fn is_none(&self) -> bool {
        matches!(self, AttackSpec::None)
    }

    /// True for composite (or phased) campaigns.
    pub fn is_composite(&self) -> bool {
        matches!(self, AttackSpec::Compose(_))
    }

    /// Flattens the spec into primitive `(start offset, adversary)` pairs.
    /// Nested composites contribute their members at cumulative offsets;
    /// `None` members contribute nothing.
    fn flatten(&self, start: Duration, out: &mut Vec<(Duration, Box<dyn Adversary>)>) {
        match self {
            AttackSpec::None => {}
            AttackSpec::Compose(members) => {
                for m in members {
                    m.attack
                        .flatten(start + Duration::from_days(m.start_days), out);
                }
            }
            primitive => {
                let adversary: Box<dyn Adversary> = match primitive {
                    AttackSpec::PipeStoppage { coverage, days } => {
                        Box::new(Blackout::pipe_stoppage(*coverage, *days))
                    }
                    AttackSpec::AdmissionFlood { coverage, days } => {
                        Box::new(AdmissionFlood::new(*coverage, *days))
                    }
                    AttackSpec::BruteForce { defection } => Box::new(BruteForce::new(*defection)),
                    AttackSpec::VoteFlood {
                        votes_per_wave,
                        wave_hours,
                    } => Box::new(VoteFlood::new(
                        *votes_per_wave,
                        Duration::from_hours(*wave_hours),
                    )),
                    AttackSpec::ChurnStorm { coverage, duty } => {
                        Box::new(Blackout::churn_storm(*coverage, *duty))
                    }
                    AttackSpec::SybilRamp { step, step_days } => {
                        Box::new(SybilRamp::new(*step, *step_days))
                    }
                    AttackSpec::MobileTakeover {
                        budget,
                        period_days,
                    } => {
                        let mut adv = MobileTakeover::new(*budget);
                        if let Some(days) = period_days {
                            adv = adv.with_period(Duration::from_days(*days));
                        }
                        Box::new(adv)
                    }
                    AttackSpec::None | AttackSpec::Compose(_) => unreachable!("handled above"),
                };
                out.push((start, adversary));
            }
        }
    }

    /// Instantiates the adversary, if any.
    ///
    /// Primitive specs build their strategy directly. Composites flatten
    /// into a [`Compose`] adversary — one child per primitive member, each
    /// at its cumulative start offset — which also records a metrics phase
    /// mark as each member starts.
    pub fn build(&self) -> Option<Box<dyn Adversary>> {
        match self {
            AttackSpec::None => None,
            AttackSpec::Compose(_) => {
                let mut members = Vec::new();
                self.flatten(Duration::ZERO, &mut members);
                if members.is_empty() {
                    return None;
                }
                let mut composite = Compose::default();
                for (start, adversary) in members {
                    composite = composite.with(start, adversary);
                }
                Some(Box::new(composite))
            }
            primitive => {
                let mut members = Vec::new();
                primitive.flatten(Duration::ZERO, &mut members);
                members.pop().map(|(_, adversary)| adversary)
            }
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            AttackSpec::None => "baseline".into(),
            AttackSpec::PipeStoppage { coverage, days } => {
                format!("stoppage {}% x {}d", (coverage * 100.0).round(), days)
            }
            AttackSpec::AdmissionFlood { coverage, days } => {
                format!("flood {}% x {}d", (coverage * 100.0).round(), days)
            }
            AttackSpec::BruteForce { defection } => format!("brute-force {}", defection.label()),
            AttackSpec::VoteFlood {
                votes_per_wave,
                wave_hours,
            } => format!("vote-flood {votes_per_wave}/{wave_hours}h"),
            AttackSpec::ChurnStorm { coverage, duty } => format!(
                "churn-storm {}% duty {}%",
                (coverage * 100.0).round(),
                (duty * 100.0).round()
            ),
            AttackSpec::SybilRamp { step, step_days } => {
                format!("sybil-ramp +{}%/{}d", (step * 100.0).round(), step_days)
            }
            AttackSpec::MobileTakeover {
                budget,
                period_days,
            } => match period_days {
                Some(days) => format!("mobile-takeover B={budget} every {days}d"),
                None => format!("mobile-takeover B={budget} synced"),
            },
            AttackSpec::Compose(members) => {
                let parts: Vec<String> = members
                    .iter()
                    .map(|m| {
                        if m.start_days == 0 {
                            m.attack.label()
                        } else {
                            format!("@{}d {}", m.start_days, m.attack.label())
                        }
                    })
                    .collect();
                format!("[{}]", parts.join(" ; "))
            }
        }
    }
}

/// The longest run a scenario may ask for, in days. Every known-peers
/// entry stamps its last update in 62 bits, so a run must end by
/// [`KnownPeers::LAST_STAMP`] (about 5.3e10 days).
pub const MAX_RUN_DAYS: u64 = KnownPeers::LAST_STAMP.as_millis() / Duration::DAY.as_millis();

/// One experiment point: configuration + attack + run length.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The world to build (seed overwritten per run).
    pub cfg: WorldConfig,
    /// The attack to install.
    pub attack: AttackSpec,
    /// Simulated run length.
    pub run_length: Duration,
}

impl Scenario {
    /// The §6.3 world at a given scale and collection size, no attack.
    pub fn baseline(scale: Scale, n_aus: usize) -> Scenario {
        let cfg = WorldConfig {
            n_peers: scale.n_peers(),
            n_aus,
            seed: 0, // overwritten per run
            ..WorldConfig::default()
        };
        Scenario {
            cfg,
            attack: AttackSpec::None,
            run_length: scale.run_length(),
        }
    }

    /// The same world with an attack installed.
    pub fn attacked(scale: Scale, n_aus: usize, attack: AttackSpec) -> Scenario {
        Scenario {
            attack,
            ..Scenario::baseline(scale, n_aus)
        }
    }

    /// Overrides the inter-poll interval (Fig. 2 sweep).
    pub fn with_poll_interval(mut self, interval: Duration) -> Scenario {
        self.cfg.protocol.poll_interval = interval;
        self
    }

    /// Overrides the storage MTBF (Fig. 2 sweep).
    pub fn with_mtbf_years(mut self, years: f64) -> Scenario {
        self.cfg.mtbf_years = years;
        self
    }

    /// Replaces the attack (deriving sweep points from a registered
    /// baseline scenario).
    pub fn with_attack(mut self, attack: AttackSpec) -> Scenario {
        self.attack = attack;
        self
    }

    /// Overrides the collection size.
    pub fn with_aus(mut self, n_aus: usize) -> Scenario {
        self.cfg.n_aus = n_aus;
        self
    }

    /// Overrides the run length.
    pub fn with_run_length(mut self, run_length: Duration) -> Scenario {
        self.run_length = run_length;
        self
    }

    /// The matched no-attack baseline of this scenario (same world, same
    /// run length).
    pub fn matched_baseline(&self) -> Scenario {
        Scenario {
            cfg: self.cfg.clone(),
            attack: AttackSpec::None,
            run_length: self.run_length,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        for scale in [Scale::Quick, Scale::Default, Scale::Paper] {
            let s = Scenario::baseline(scale, scale.small_collection());
            s.cfg.validate().expect("baseline config");
        }
    }

    #[test]
    fn attack_builders() {
        assert!(AttackSpec::None.build().is_none());
        let p = AttackSpec::PipeStoppage {
            coverage: 0.4,
            days: 30,
        }
        .build()
        .expect("pipe");
        assert_eq!(p.name().label(), "pipe-stoppage");
        let f = AttackSpec::AdmissionFlood {
            coverage: 1.0,
            days: 720,
        }
        .build()
        .expect("flood");
        assert_eq!(f.name().label(), "admission-flood");
        let b = AttackSpec::BruteForce {
            defection: Defection::None_,
        }
        .build()
        .expect("bf");
        assert_eq!(b.name().label(), "brute-force/NONE");
    }

    #[test]
    fn labels_are_informative() {
        let l = AttackSpec::PipeStoppage {
            coverage: 0.7,
            days: 90,
        }
        .label();
        assert!(l.contains("70"));
        assert!(l.contains("90"));
    }

    #[test]
    fn new_attack_builders() {
        let c = AttackSpec::ChurnStorm {
            coverage: 0.5,
            duty: 0.7,
        }
        .build()
        .expect("churn");
        assert_eq!(c.name().label(), "churn-storm");
        let s = AttackSpec::SybilRamp {
            step: 0.25,
            step_days: 30,
        }
        .build()
        .expect("ramp");
        assert_eq!(s.name().label(), "sybil-ramp");
        let v = AttackSpec::VoteFlood {
            votes_per_wave: 4,
            wave_hours: 6,
        }
        .build()
        .expect("votes");
        assert_eq!(v.name().label(), "vote-flood");
        let m = AttackSpec::MobileTakeover {
            budget: 3,
            period_days: Some(45),
        }
        .build()
        .expect("mobile");
        assert_eq!(m.name().label(), "mobile-takeover");
    }

    #[test]
    fn mobile_takeover_labels_show_cadence() {
        let synced = AttackSpec::MobileTakeover {
            budget: 5,
            period_days: None,
        }
        .label();
        assert!(synced.contains("B=5"), "{synced}");
        assert!(synced.contains("synced"), "{synced}");
        let fixed = AttackSpec::MobileTakeover {
            budget: 2,
            period_days: Some(45),
        }
        .label();
        assert!(fixed.contains("45d"), "{fixed}");
    }

    #[test]
    fn composite_builds_and_flattens() {
        let spec = AttackSpec::Compose(vec![
            phased(
                0,
                AttackSpec::PipeStoppage {
                    coverage: 1.0,
                    days: 60,
                },
            ),
            phased(
                90,
                AttackSpec::Compose(vec![phased(
                    30,
                    AttackSpec::AdmissionFlood {
                        coverage: 1.0,
                        days: 360,
                    },
                )]),
            ),
            phased(10, AttackSpec::None),
        ]);
        assert!(spec.is_composite());
        assert!(!spec.is_none());
        let adv = spec.build().expect("composite");
        assert_eq!(adv.name().label(), "composite");
        let label = spec.label();
        assert!(label.contains("stoppage"), "{label}");
        assert!(label.contains("flood"), "{label}");
    }

    #[test]
    fn empty_or_all_none_composites_build_nothing() {
        assert!(AttackSpec::Compose(Vec::new()).build().is_none());
        let spec = AttackSpec::Compose(vec![phased(5, AttackSpec::None)]);
        assert!(spec.build().is_none());
    }

    #[test]
    fn matched_baseline_strips_the_attack() {
        let s = Scenario::attacked(
            Scale::Quick,
            2,
            AttackSpec::ChurnStorm {
                coverage: 0.5,
                duty: 0.5,
            },
        );
        let b = s.matched_baseline();
        assert!(b.attack.is_none());
        assert_eq!(b.run_length, s.run_length);
        assert_eq!(b.cfg.n_peers, s.cfg.n_peers);
    }
}
