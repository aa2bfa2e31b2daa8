//! Composite attack campaigns: registered, phased, replayable.
//!
//! The paper evaluates each attrition attack in isolation; the registry's
//! composite scenarios chain them. This example runs the registered
//! `stoppage-then-flood` campaign — a 60-day total blackout, then an
//! admission flood timed to land while the victims catch up on missed
//! audits — and prints the per-phase metric breakdown next to the §6.1
//! run-level metrics.
//!
//! A new campaign is one registration: compose any [`AttackSpec`]s with
//! per-member start offsets and give the result a name. The run is a pure
//! function of `(scenario, seed)`, so a campaign name plus a seed is a
//! replayable execution — cite it in a bug report and anyone can step
//! through the identical run.
//!
//! ```sh
//! cargo run --release --example composite_campaign
//! ```

use lockss::experiments::runner::{run, run_once, RunOptions};
use lockss::experiments::{Scale, ScenarioRegistry};

fn main() {
    let registry = ScenarioRegistry::standard();
    let spec = registry
        .get("stoppage-then-flood")
        .expect("'stoppage-then-flood' is registered");
    let scenario = spec.build(Scale::Quick);

    println!("Composite campaign: {}", spec.name);
    println!("  {}", spec.description);
    println!(
        "  paper: {}   attack: {}\n",
        spec.paper_ref,
        scenario.attack.label()
    );

    let out = run(&scenario, 1, &RunOptions::default());
    let (summary, phases) = (out.summary, out.phases);
    let base = run_once(&scenario.matched_baseline(), 1);

    println!("whole run ({}):", scenario.run_length);
    println!(
        "  access failure probability  {:.2e}",
        summary.access_failure_probability
    );
    println!(
        "  poll outcomes               {} ok / {} failed / {} alarms",
        summary.successful_polls, summary.failed_polls, summary.alarms
    );
    if let Some(d) = summary.delay_ratio(&base) {
        println!("  delay ratio vs baseline     {d:.2}");
    }
    if let Some(f) = summary.coefficient_of_friction(&base) {
        println!("  coefficient of friction     {f:.2}");
    }

    println!("\nper phase:");
    for p in &phases {
        println!(
            "  {:<18} [{:>4.0}d..{:>4.0}d]  {} ok / {} failed, {:.0} loyal CPU-s",
            p.label,
            p.start.as_days_f64(),
            p.end.as_days_f64(),
            p.successful_polls,
            p.failed_polls,
            p.loyal_effort_secs,
        );
    }

    println!(
        "\nThe blackout stalls polls outright; the flood that follows lets them\n\
         run but taxes every admission — the per-phase rows separate the two\n\
         mechanisms that the run-level ratios blend together."
    );
}
