//! Quickstart: build a preservation network, let it audit and repair
//! itself for four simulated quarters, and read out the §6.1 metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lockss::effort::CostModel;
use lockss::experiments::runner::{Run, RunOptions};
use lockss::experiments::{Scale, ScenarioRegistry};
use lockss::sim::{Duration, SimTime};
use lockss::storage::AuSpec;

fn main() {
    // The registered `baseline` scenario, shrunk to a 40-peer network
    // preserving 5 archival units of 100 MB each, polling every month,
    // with storage damaged at one block per 2 disk-years — deliberately
    // harsher than the paper's defaults so a short run shows the repair
    // machinery working.
    let au_spec = AuSpec {
        size_bytes: 100_000_000,
        block_bytes: 1_000_000,
    };
    let mut cfg = ScenarioRegistry::standard()
        .build("baseline", Scale::Default)
        .expect("'baseline' is registered")
        .cfg;
    cfg.n_peers = 40;
    cfg.n_aus = 5;
    cfg.au_spec = au_spec;
    cfg.mtbf_years = 2.0;
    cfg.seed = 2026;
    cfg.cost = CostModel::default().with_au_bytes(au_spec.size_bytes);
    cfg.protocol.poll_interval = Duration::MONTH;

    println!("LOCKSS attrition-defense reproduction — quickstart");
    println!(
        "{} peers x {} AUs ({} MB each), poll interval {}, damage 1 block / {} disk-years",
        cfg.n_peers,
        cfg.n_aus,
        au_spec.size_bytes / 1_000_000,
        cfg.protocol.poll_interval,
        cfg.mtbf_years,
    );

    let mut run = Run::start(cfg, None, &RunOptions::default());

    // Step through four quarters of three 30-day months, reporting progress.
    let quarters = 4u64;
    for quarter in 1..=quarters {
        run.advance_to(SimTime::ZERO + Duration::MONTH * (3 * quarter));
        let world = run.world();
        println!(
            "after {:>2} months: {:>5} polls succeeded, {:>3} failed, {} replicas damaged right now",
            3 * quarter,
            world.metrics.polls.successful_polls,
            world.metrics.polls.failed_polls,
            world.peers.total_damaged(),
        );
    }

    // The run stopped at day 360; `finish` summarises it there.
    let ran = Duration::MONTH * (3 * quarters);
    let out = run.finish();
    let (summary, world) = (out.summary, out.world);
    println!();
    println!("=== {quarters} simulated quarters ({ran}) ===");
    println!(
        "access failure probability: {:.2e}   (fraction of replica-time spent damaged)",
        summary.access_failure_probability
    );
    if let Some(gap) = summary.mean_time_between_successes {
        println!("mean time between successful polls: {gap}");
    }
    println!(
        "poll success rate: {:.1}%  ({} ok / {} failed, {} alarms)",
        100.0 * summary.successful_polls as f64
            / (summary.successful_polls + summary.failed_polls).max(1) as f64,
        summary.successful_polls,
        summary.failed_polls,
        summary.alarms,
    );
    println!(
        "loyal CPU effort: {:.0} CPU-seconds (~{:.2}% utilization per peer)",
        summary.loyal_effort_secs,
        100.0 * summary.loyal_effort_secs / (world.n_loyal() as f64 * ran.as_secs_f64()),
    );
    let traffic = world.net.total_traffic();
    println!(
        "network: {} messages, {:.1} GB transferred",
        traffic.messages_sent,
        traffic.bytes_sent as f64 / 1e9,
    );
}
