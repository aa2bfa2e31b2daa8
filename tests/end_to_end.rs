//! Cross-crate integration tests: full worlds, attacks, and the §6.1
//! metrics, at sizes small enough for the test suite.

use lockss::adversary::{AdmissionFlood, Blackout, BruteForce, Defection, VoteFlood};
use lockss::core::{World, WorldConfig};
use lockss::metrics::Summary;
use lockss::sim::{Duration, Engine, SimTime};
use lockss::storage::AuSpec;

fn test_config(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig {
        n_peers: 40,
        n_aus: 3,
        au_spec: AuSpec {
            size_bytes: 50_000_000,
        },
        mtbf_years: 1.0,
        seed,
        ..WorldConfig::default()
    };
    cfg.protocol.poll_interval = Duration::from_days(30);
    cfg.protocol.grade_decay = Duration::from_days(60);
    cfg
}

fn run_with(
    cfg: WorldConfig,
    adversary: Option<Box<dyn lockss::core::Adversary>>,
    days: u64,
) -> (Summary, World) {
    let mut world = World::new(cfg);
    if let Some(a) = adversary {
        world.install_adversary(a);
    }
    let mut eng = Engine::new();
    world.start(&mut eng);
    let end = SimTime::ZERO + Duration::from_days(days);
    eng.run_until(&mut world, end);
    (world.metrics.summarize(end), world)
}

#[test]
fn baseline_preserves_content() {
    let (summary, world) = run_with(test_config(1), None, 360);
    assert!(summary.successful_polls > 200, "{summary:?}");
    assert!(
        summary.access_failure_probability < 0.02,
        "afp {}",
        summary.access_failure_probability
    );
    assert_eq!(summary.alarms, 0);
    // Most damage is repaired by run end.
    let damaged: usize = world.peers.total_damaged();
    assert!(damaged <= 3, "{damaged} replicas still damaged");
}

#[test]
fn pipe_stoppage_increases_failure_monotonically_in_coverage() {
    let mut afps = Vec::new();
    for coverage in [0.0f64, 0.5, 1.0] {
        // Average over seeds to tame the small-world noise.
        let mut total = 0.0;
        for seed in 1..=3 {
            let adversary: Option<Box<dyn lockss::core::Adversary>> = if coverage > 0.0 {
                Some(Box::new(Blackout::pipe_stoppage(coverage, 60)))
            } else {
                None
            };
            let (s, _) = run_with(test_config(seed), adversary, 360);
            total += s.access_failure_probability;
        }
        afps.push(total / 3.0);
    }
    assert!(
        afps[2] > afps[0],
        "full-coverage stoppage must hurt: {afps:?}"
    );
}

#[test]
fn full_stoppage_blocks_all_polls_while_active() {
    let cfg = test_config(5);
    let adv = Blackout::pipe_stoppage(1.0, 400); // longer than the run
    let (summary, _) = run_with(cfg, Some(Box::new(adv)), 200);
    assert_eq!(
        summary.successful_polls, 0,
        "nothing can succeed under total stoppage"
    );
    assert!(summary.failed_polls > 0);
}

#[test]
fn admission_flood_costs_friction_not_content() {
    let (base, _) = run_with(test_config(7), None, 360);
    let (attacked, _) = run_with(
        test_config(7),
        Some(Box::new(AdmissionFlood::new(1.0, 400))),
        360,
    );
    let friction = attacked
        .coefficient_of_friction(&base)
        .expect("friction defined");
    // At this toy size the flood's marginal cost is small; the defense
    // claim is that it stays *bounded* (the figure-scale runs show the
    // 1.3–1.7x friction of Fig. 8). Allow noise below 1.
    assert!(friction > 0.9, "friction suspiciously low: {friction}");
    assert!(friction < 3.0, "friction must stay bounded: {friction}");
    let delay = attacked.delay_ratio(&base).expect("delay defined");
    assert!(delay < 1.6, "polls keep succeeding: {delay}");
    // Content is unaffected.
    assert!(attacked.access_failure_probability < 0.02);
}

#[test]
fn brute_force_pays_at_least_defender_scale() {
    let (attacked, _) = run_with(
        test_config(9),
        Some(Box::new(BruteForce::new(Defection::Remaining))),
        240,
    );
    assert!(attacked.adversary_effort_secs > 0.0);
    let ratio = attacked.cost_ratio().expect("cost ratio defined");
    // Effort balancing: the attacker cannot get a free ride.
    assert!(ratio > 0.5, "cost ratio {ratio}");
}

#[test]
fn brute_force_defection_orderings() {
    let (base, _) = run_with(test_config(11), None, 240);
    let mut results = Vec::new();
    for d in [Defection::Intro, Defection::Remaining, Defection::None_] {
        let (s, _) = run_with(test_config(11), Some(Box::new(BruteForce::new(d))), 240);
        results.push((d, s));
    }
    let friction = |i: usize| {
        results[i]
            .1
            .coefficient_of_friction(&base)
            .expect("friction")
    };
    // INTRO desertion wastes the least victim effort.
    assert!(friction(0) < friction(1), "INTRO < REMAINING");
    assert!(friction(0) < friction(2), "INTRO < NONE");
    // All strategies leave content essentially intact.
    for (_, s) in &results {
        assert!(s.access_failure_probability < 0.05);
    }
}

#[test]
fn vote_flood_is_free_to_ignore() {
    let (base, _) = run_with(test_config(13), None, 240);
    let (attacked, _) = run_with(
        test_config(13),
        Some(Box::new(VoteFlood::new(20, Duration::HOUR))),
        240,
    );
    let friction = attacked
        .coefficient_of_friction(&base)
        .expect("friction defined");
    // Unsolicited votes are ignored before any hashing: no friction.
    assert!(
        (friction - 1.0).abs() < 0.05,
        "vote flood must be free to ignore, friction {friction}"
    );
    let delay = attacked.delay_ratio(&base).expect("delay");
    assert!((delay - 1.0).abs() < 0.1, "delay {delay}");
}

#[test]
fn damage_without_repair_accumulates() {
    // Sanity check on the damage model: stop all communication so repairs
    // are impossible, and watch the damaged fraction grow.
    let cfg = test_config(15);
    let adv = Blackout::pipe_stoppage(1.0, 10_000);
    let (summary, world) = run_with(cfg, Some(Box::new(adv)), 720);
    let damaged: usize = world.peers.total_damaged();
    assert!(damaged > 0, "damage must accumulate unrepaired");
    assert!(summary.access_failure_probability > 1e-3);
}

#[test]
fn seeds_reproduce_exactly() {
    let (a, _) = run_with(test_config(21), None, 240);
    let (b, _) = run_with(test_config(21), None, 240);
    assert_eq!(a.successful_polls, b.successful_polls);
    assert_eq!(a.failed_polls, b.failed_polls);
    assert_eq!(a.access_failure_probability, b.access_failure_probability);
    assert_eq!(a.loyal_effort_secs, b.loyal_effort_secs);
}
