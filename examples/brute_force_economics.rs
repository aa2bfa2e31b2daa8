//! The economics of effortful attrition (§7.4, Table 1).
//!
//! A brute-force adversary with unlimited resources pushes valid
//! introductory efforts through admission control from in-debt identities,
//! then defects at different protocol stages. Effort balancing makes every
//! strategy cost him at least as much as it costs his victims, and rate
//! limits keep the damage bounded no matter how much he spends.
//!
//! ```sh
//! cargo run --release --example brute_force_economics
//! ```

use lockss::adversary::Defection;
use lockss::effort::CostModel;
use lockss::experiments::runner::run_once;
use lockss::experiments::{Scale, ScenarioRegistry};
use lockss::metrics::Summary;
use lockss::sim::Duration;

/// Runs one of the registered `brute-force-*` scenarios (or `baseline`),
/// shrunk to demo size, for one simulated year.
fn run(name: &str, seed: u64) -> Summary {
    let mut s = ScenarioRegistry::standard()
        .build(name, Scale::Default)
        .unwrap_or_else(|| panic!("'{name}' is registered"));
    s.cfg.n_peers = 50;
    s.cfg.n_aus = 6;
    s.run_length = Duration::YEAR;
    run_once(&s, seed)
}

fn main() {
    println!("Brute-force attrition economics (paper §7.4 / Table 1)");
    println!("50 peers x 6 AUs, one simulated year, continuous attack.\n");

    let cost = CostModel::default();
    let au = 100_000_000;
    println!("effort-balance calibration (per voter, CPU-seconds):");
    println!(
        "  poller provable effort: intro {:.1}s + remaining {:.1}s",
        cost.intro_gen(au).as_secs_f64(),
        cost.remaining_gen(au).as_secs_f64()
    );
    println!(
        "  voter service cost:     {:.1}s (verify proofs + hash AU + vote proof)",
        cost.vote_service_cost(au).as_secs_f64()
    );
    println!(
        "  => requester always has more invested than supplier: {}\n",
        cost.balance_holds(au)
    );

    let baseline = run("baseline", 3);

    println!(
        "{:<11} {:>15} {:>12} {:>12} {:>16}",
        "defection", "coeff.friction", "cost ratio", "delay ratio", "access failure"
    );
    for (d, scenario) in [
        (Defection::Intro, "brute-force-intro"),
        (Defection::Remaining, "brute-force-remaining"),
        (Defection::None_, "brute-force-none"),
    ] {
        let s = run(scenario, 3);
        println!(
            "{:<11} {:>15} {:>12} {:>12} {:>16}",
            d.label(),
            fmt(s.coefficient_of_friction(&baseline)),
            fmt(s.cost_ratio()),
            fmt(s.delay_ratio(&baseline)),
            format!("{:.2e}", s.access_failure_probability),
        );
    }
    println!(
        "{:<11} {:>15} {:>12} {:>12} {:>16}",
        "(baseline)",
        "1.00",
        "-",
        "1.00",
        format!("{:.2e}", baseline.access_failure_probability),
    );

    println!(
        "\nThe paper's point: even an adversary with unlimited resources can only\n\
         raise loyal peers' per-poll cost by a small constant factor, while rate\n\
         limits stop him from converting resources into lost content."
    );
}

fn fmt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into())
}
