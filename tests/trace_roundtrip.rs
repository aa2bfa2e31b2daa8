//! Record→replay round-trips for the whole scenario registry.
//!
//! The acceptance bar for the trace subsystem: recording a run and
//! replaying it must report **zero divergence** for every registered
//! scenario, and a deliberately perturbed replay (different seed) must
//! report the first divergence with its time and event kind. Worlds are
//! shrunk the same way `tests/determinism.rs` shrinks them so the whole
//! registry round-trips in CI time.

use lockss::experiments::runner::{replay_once, run, run_once, RunOptions};
use lockss::experiments::scenario::Scenario;
use lockss::experiments::{Scale, ScenarioRegistry};
use lockss::metrics::Summary;
use lockss::sim::Duration;
use lockss::trace::{trace_stats, Trace, TraceMeta};

fn shrunken_registry_jobs() -> Vec<(String, Scenario)> {
    ScenarioRegistry::standard()
        .entries()
        .iter()
        .map(|e| {
            let mut s = e.build(Scale::Quick);
            s.cfg.n_peers = 30;
            s.cfg.n_aus = 2;
            s.run_length = Duration::from_days(150);
            (e.name().to_string(), s)
        })
        .collect()
}

fn meta_for(name: &str, seed: u64, s: &Scenario) -> TraceMeta {
    TraceMeta {
        scenario: name.to_string(),
        scale: "quick".to_string(),
        seed,
        run_length_ms: s.run_length.as_millis(),
    }
}

/// Records seed 7 of `s` under `name`; the summary and the sealed trace.
fn record(name: &str, s: &Scenario) -> (Summary, Trace) {
    let out = run(s, 7, &RunOptions::record(&meta_for(name, 7, s)));
    (
        out.summary,
        out.trace.expect("a recorded run seals a trace"),
    )
}

#[test]
fn every_registered_scenario_replays_with_zero_divergence() {
    for (name, s) in shrunken_registry_jobs() {
        let (summary, trace) = record(&name, &s);
        let report = replay_once(&s, 7, &trace)
            .unwrap_or_else(|e| panic!("scenario '{name}' replay failed to decode: {e}"));
        assert!(
            report.is_equivalent(),
            "scenario '{name}' diverged on faithful replay:\n{report}"
        );
        assert!(
            report.events_matched > 0,
            "scenario '{name}' recorded an empty stream"
        );
        // Recording must not have perturbed the run.
        assert_eq!(
            summary,
            run_once(&s, 7),
            "scenario '{name}': traced run differs from untraced run"
        );
    }
}

#[test]
fn perturbed_replay_reports_time_and_kind_of_the_fork() {
    let (name, s) = shrunken_registry_jobs().remove(0);
    let (_, trace) = record(&name, &s);
    let report = replay_once(&s, 8, &trace).expect("decodes");
    assert!(!report.is_equivalent(), "a different seed must diverge");
    let divergence = report.divergence.as_ref().expect("has a divergence");
    let rendered = format!("{report}");
    // The context must name a record index, a simulated time, and an
    // event kind.
    assert!(
        rendered.contains(&format!("record #{}", divergence.index)),
        "{rendered}"
    );
    assert!(rendered.contains("day "), "{rendered}");
    let kind_named = divergence
        .expected
        .iter()
        .chain(divergence.actual.iter())
        .any(|r| rendered.contains(r.event.kind().label()));
    assert!(
        kind_named,
        "divergence must name the event kind: {rendered}"
    );
}

#[test]
fn attacked_traces_carry_adversary_provenance() {
    // One effortless attack (timer-driven, suppressions), one effortful
    // (bogus polls), one churn attack (provenance on depart/rejoin).
    for (name, expected_label) in [
        ("pipe-stoppage", "pipe-stoppage/stop"),
        ("brute-force-intro", "brute-force/poll"),
        ("churn-storm", "churn-storm/depart"),
        ("mobile-takeover-light", "mobile-takeover/compromise"),
        ("mobile-takeover-light", "mobile-takeover/cure"),
    ] {
        let (_, s) = shrunken_registry_jobs()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("registered");
        let (_, trace) = record(name, &s);
        let stats = trace_stats(&trace).expect("stats decode");
        assert!(
            stats.count(lockss::core::TraceEventKind::AdversaryAction) > 0,
            "scenario '{name}' recorded no adversary actions"
        );
        let has_label = trace.decode_all().expect("decodes").iter().any(|r| {
            matches!(
                &r.event,
                lockss::core::TraceEvent::AdversaryAction { label, .. } if label == expected_label
            )
        });
        assert!(
            has_label,
            "scenario '{name}' missing '{expected_label}' provenance"
        );
    }
}

/// The compromise lifecycle lands in the trace as first-class events:
/// takeovers, cures, and (under a heavy enough campaign) poisoned
/// repairs, all of which survive the wire round-trip.
#[test]
fn mobile_takeover_traces_carry_the_compromise_lifecycle() {
    use lockss::core::TraceEventKind;
    let (_, s) = shrunken_registry_jobs()
        .into_iter()
        .find(|(n, _)| *n == "mobile-takeover-heavy")
        .expect("registered");
    let (_, trace) = record("mobile-takeover-heavy", &s);
    let stats = trace_stats(&trace).expect("stats decode");
    assert!(
        stats.count(TraceEventKind::Compromise) > 0,
        "heavy takeover recorded no compromises"
    );
    assert!(
        stats.count(TraceEventKind::Cure) > 0,
        "migrations must cure the previous victim set"
    );
    assert!(
        stats.count(TraceEventKind::Cure) <= stats.count(TraceEventKind::Compromise),
        "cures can only undo compromises"
    );
    assert!(
        stats.count(TraceEventKind::PoisonedRepair) > 0,
        "a budget-8 takeover must poison at least one repair in 150 days"
    );
}

#[test]
fn suppression_verdicts_land_in_the_trace() {
    let (_, s) = shrunken_registry_jobs()
        .into_iter()
        .find(|(n, _)| *n == "pipe-stoppage")
        .expect("registered");
    let (_, trace) = record("pipe-stoppage", &s);
    let stats = trace_stats(&trace).expect("stats");
    assert!(
        stats.suppressed_sends > 0,
        "a total blackout must suppress sends at the source"
    );
}
