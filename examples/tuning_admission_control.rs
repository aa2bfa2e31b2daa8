//! Exploring the admission-control parameter space (paper §9: "we are
//! currently exploring ... the length of the refractory period, the drop
//! probabilities for unknown and in-debt peers").
//!
//! Runs the §7.3 garbage-invitation flood against several refractory-period
//! lengths and drop probabilities and reports how friction and access
//! failure respond — the ablation the paper sketches as future work.
//!
//! ```sh
//! cargo run --release --example tuning_admission_control
//! ```

use lockss::experiments::runner::run_once;
use lockss::experiments::{AttackSpec, Scale, Scenario, ScenarioRegistry};
use lockss::sim::Duration;

/// The registered `admission-flood` world, shrunk to demo size, under a
/// full-coverage flood for one simulated year.
fn scenario() -> Scenario {
    let mut s = ScenarioRegistry::standard()
        .build("admission-flood", Scale::Default)
        .expect("'admission-flood' is registered");
    s.cfg.n_peers = 50;
    s.cfg.n_aus = 6;
    s.run_length = Duration::YEAR;
    s.with_attack(AttackSpec::AdmissionFlood {
        coverage: 1.0,
        days: 360,
    })
}

fn main() {
    println!("Admission-control tuning under a full-coverage garbage flood");
    println!("50 peers x 6 AUs, one simulated year, attack sustained throughout.\n");

    println!(
        "{:<26} {:>14} {:>14} {:>16}",
        "parameters", "friction", "delay ratio", "access failure"
    );

    for (label, refractory_hours, drop_unknown) in [
        ("refractory 6h,  drop .90", 6u64, 0.90),
        ("refractory 1d,  drop .90", 24, 0.90),
        ("refractory 4d,  drop .90", 96, 0.90),
        ("refractory 1d,  drop .95", 24, 0.95),
        ("refractory 1d,  drop .99", 24, 0.99),
    ] {
        let mut s = scenario();
        s.cfg.protocol.refractory = Duration::from_hours(refractory_hours);
        s.cfg.protocol.drop_unknown = drop_unknown;
        let baseline = run_once(&s.matched_baseline(), 11);
        let attacked = run_once(&s, 11);
        println!(
            "{:<26} {:>14} {:>14} {:>16}",
            label,
            fmt(attacked.coefficient_of_friction(&baseline)),
            fmt(attacked.delay_ratio(&baseline)),
            format!("{:.2e}", attacked.access_failure_probability),
        );
    }

    println!(
        "\nLonger refractory periods blunt the flood (fewer admissions per day);\n\
         harsher unknown-drops starve discovery even without an attack — the\n\
         §6.3 calibration balances the two."
    );
}

fn fmt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into())
}
