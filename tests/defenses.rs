//! Integration tests for the individual attrition defenses (§5) and their
//! ablations, across the core, adversary, and metrics crates.

use lockss::adversary::{AdmissionFlood, BruteForce, Defection};
use lockss::core::config::Ablation;
use lockss::core::{World, WorldConfig};
use lockss::metrics::Summary;
use lockss::sim::{Duration, Engine, SimTime};
use lockss::storage::AuSpec;

fn config(seed: u64, ablation: Ablation) -> WorldConfig {
    let mut cfg = WorldConfig {
        n_peers: 40,
        n_aus: 3,
        au_spec: AuSpec {
            size_bytes: 50_000_000,
        },
        mtbf_years: 5.0,
        seed,
        ..WorldConfig::default()
    };
    cfg.protocol.poll_interval = Duration::from_days(30);
    cfg.protocol.grade_decay = Duration::from_days(60);
    cfg.protocol.ablation = ablation;
    cfg
}

fn run(
    cfg: WorldConfig,
    adversary: Option<Box<dyn lockss::core::Adversary>>,
    days: u64,
) -> Summary {
    let mut world = World::new(cfg);
    if let Some(a) = adversary {
        world.install_adversary(a);
    }
    let mut eng = Engine::new();
    world.start(&mut eng);
    let end = SimTime::ZERO + Duration::from_days(days);
    eng.run_until(&mut world, end);
    world.metrics.summarize(end)
}

#[test]
fn refractory_period_bounds_flood_consideration_cost() {
    let full = run(
        config(3, Ablation::default()),
        Some(Box::new(AdmissionFlood::new(1.0, 400))),
        240,
    );
    let ablated = run(
        config(
            3,
            Ablation {
                no_refractory: true,
                ..Ablation::default()
            },
        ),
        Some(Box::new(AdmissionFlood::new(1.0, 400))),
        240,
    );
    // Without the refractory period, every surviving garbage invitation
    // is considered: loyal effort balloons.
    assert!(
        ablated.loyal_effort_secs > full.loyal_effort_secs * 1.5,
        "refractory must bound consideration cost: {} vs {}",
        ablated.loyal_effort_secs,
        full.loyal_effort_secs
    );
}

#[test]
fn effort_balancing_makes_attacks_expensive() {
    let full = run(
        config(5, Ablation::default()),
        Some(Box::new(BruteForce::new(Defection::Remaining))),
        240,
    );
    let ablated = run(
        config(
            5,
            Ablation {
                no_effort_balancing: true,
                ..Ablation::default()
            },
        ),
        Some(Box::new(BruteForce::new(Defection::Remaining))),
        240,
    );
    // With effort balancing, the attacker pays real effort; without it,
    // the same attack is free.
    assert!(full.adversary_effort_secs > 0.0);
    assert_eq!(ablated.adversary_effort_secs, 0.0);
}

#[test]
fn reputation_taxes_in_debt_attackers() {
    let full = run(
        config(7, Ablation::default()),
        Some(Box::new(BruteForce::new(Defection::Intro))),
        240,
    );
    let ablated = run(
        config(
            7,
            Ablation {
                no_reputation: true,
                ..Ablation::default()
            },
        ),
        Some(Box::new(BruteForce::new(Defection::Intro))),
        240,
    );
    // With grades, in-debt identities face 0.8 drops (mean ~5 tries per
    // admission); without them the seeded identities pass as even and are
    // admitted without the drop tax: the attacker spends much less per
    // admission.
    assert!(
        ablated.adversary_effort_secs < full.adversary_effort_secs * 0.6,
        "reputation must tax admission: ablated {} vs full {}",
        ablated.adversary_effort_secs,
        full.adversary_effort_secs
    );
}

#[test]
fn desynchronization_ablation_still_functions_at_low_load() {
    // At low load, synchronous solicitation still works (the §5.2 failure
    // mode needs contention); this pins the ablation switch itself.
    let s = run(
        config(
            9,
            Ablation {
                synchronous_solicitation: true,
                ..Ablation::default()
            },
        ),
        None,
        240,
    );
    assert!(s.successful_polls > 100);
    let rate = s.successful_polls as f64 / (s.successful_polls + s.failed_polls) as f64;
    assert!(rate > 0.8, "success rate {rate}");
}

#[test]
fn ablations_default_to_off() {
    let a = Ablation::default();
    assert!(!a.synchronous_solicitation);
    assert!(!a.no_refractory);
    assert!(!a.no_introductions);
    assert!(!a.no_reputation);
    assert!(!a.no_effort_balancing);
}

#[test]
fn introductions_support_discovery_under_flood() {
    let with_intros = run(
        config(11, Ablation::default()),
        Some(Box::new(AdmissionFlood::new(1.0, 400))),
        360,
    );
    let without = run(
        config(
            11,
            Ablation {
                no_introductions: true,
                ..Ablation::default()
            },
        ),
        Some(Box::new(AdmissionFlood::new(1.0, 400))),
        360,
    );
    // Both keep content safe; the introduction-less variant fails at least
    // as many polls (discovery is slower when refractory periods block
    // unknown peers).
    assert!(with_intros.access_failure_probability < 0.02);
    assert!(without.access_failure_probability < 0.02);
    assert!(
        without.failed_polls >= with_intros.failed_polls,
        "introductions should not hurt: {} vs {}",
        without.failed_polls,
        with_intros.failed_polls
    );
}
