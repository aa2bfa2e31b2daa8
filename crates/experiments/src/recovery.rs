//! Post-compromise recovery threshold study (`lockss-sim sweep recovery`).
//!
//! The self-healing question the mobile-takeover family poses: for which
//! concurrency budgets does the §4.3 audit-and-repair machinery outrun a
//! migrating Byzantine compromise? Each study point runs a small world
//! under a [`MobileTakeover`] campaign with a fixed horizon (the adversary
//! cures every remaining victim and stops), then keeps simulating and
//! watches `total_damaged` — the population-wide damaged-block count —
//! until it reaches zero or a heal window expires.
//!
//! Per budget the study reports time-to-heal quantiles over the seeds
//! (p50/p90 via a seeded streaming [`Reservoir`]) and a verdict: `heals`
//! iff every seed recovered fully within the window, `data-loss`
//! otherwise. The boundary between the two verdicts is the recovery
//! threshold — VALIDATION.md pins one budget on each side.
//!
//! Determinism: each `(budget, seed)` run is a pure function of its
//! inputs (watching the world at day granularity just continues the same
//! discrete-event run), the worker pool returns outcomes in
//! `(budget, seed)` item order whatever the thread count, and the
//! reduction walks them in that order — so the rendered report is
//! byte-identical for any thread count.

use lockss_adversary::MobileTakeover;
use lockss_core::{World, WorldConfig};
use lockss_effort::CostModel;
use lockss_metrics::streaming::Reservoir;
use lockss_sim::{Duration, Engine, SimTime};
use lockss_storage::AuSpec;

use crate::runner::par_map;

/// Study shape: which budgets, how many seeds, the campaign and the
/// patience after it.
#[derive(Clone, Debug)]
pub struct RecoveryStudy {
    /// Concurrency budgets to probe, one report row each.
    pub budgets: Vec<u32>,
    /// Seeds per budget.
    pub seeds: Vec<u64>,
    /// Campaign length in days (the adversary's cure-all horizon).
    pub attack_days: u64,
    /// Migration period in days.
    pub period_days: u64,
    /// How long after the campaign the world may keep repairing before
    /// an unhealed seed counts as data loss.
    pub heal_window_days: u64,
    /// Loyal population (small worlds keep the study CI-fast).
    pub n_peers: usize,
    /// Collection size.
    pub n_aus: usize,
    /// Blocks per AU. Small collections are where durable loss lives:
    /// a block is gone for good only when *every* replica of it is
    /// damaged (repair candidates are voters whose vote shows the block
    /// intact), and with few blocks a saturation campaign can reach that.
    pub au_blocks: u64,
}

impl Default for RecoveryStudy {
    fn default() -> RecoveryStudy {
        RecoveryStudy {
            budgets: vec![1, 2, 4, 8, 16, 24, 28, 30],
            seeds: (1..=4).collect(),
            attack_days: 240,
            period_days: 10,
            heal_window_days: 120,
            n_peers: 30,
            n_aus: 2,
            au_blocks: 4,
        }
    }
}

/// One `(budget, seed)` run's outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PointOutcome {
    /// Days from campaign end to `total_damaged == 0`, if reached within
    /// the window.
    healed_after: Option<u64>,
    /// Damaged blocks left at the end of the watch.
    residual: u64,
}

/// One budget row of the report.
#[derive(Clone, Debug)]
pub struct BudgetRow {
    /// The probed concurrency budget.
    pub budget: u32,
    /// Seeds that reached `total_damaged == 0` within the window.
    pub healed: usize,
    /// Seeds probed.
    pub seeds: usize,
    /// Median days-to-heal over the healed seeds.
    pub p50_days: Option<u64>,
    /// 90th-percentile days-to-heal over the healed seeds.
    pub p90_days: Option<u64>,
    /// Largest residual damaged-block count over the seeds.
    pub max_residual: u64,
}

impl BudgetRow {
    /// `heals` iff every seed recovered fully within the window.
    pub fn heals(&self) -> bool {
        self.healed == self.seeds
    }
}

/// The study's result: one row per budget, in budget order.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The study that produced the rows.
    pub study: RecoveryStudy,
    /// One row per probed budget.
    pub rows: Vec<BudgetRow>,
}

fn run_point(study: &RecoveryStudy, budget: u32, seed: u64) -> PointOutcome {
    let au_spec = AuSpec {
        size_bytes: study.au_blocks * 1_000_000,
        block_bytes: 1_000_000,
    };
    let mut cfg = WorldConfig {
        n_peers: study.n_peers,
        n_aus: study.n_aus,
        au_spec,
        seed,
        ..WorldConfig::default()
    };
    cfg.cost = CostModel::default().with_au_bytes(au_spec.size_bytes);
    // Monthly polls: the repair machinery gets a dozen audit rounds per
    // simulated year, so heal times resolve inside a CI-sized window.
    cfg.protocol.poll_interval = Duration::MONTH;
    let mut world = World::new(cfg);
    world.install_adversary(Box::new(
        MobileTakeover::new(budget)
            .with_period(Duration::from_days(study.period_days))
            .with_horizon(Duration::from_days(study.attack_days)),
    ));
    let mut eng: Engine<World> = Engine::new();
    world.start(&mut eng);
    let attack_end = SimTime::ZERO + Duration::from_days(study.attack_days);
    eng.run_until(&mut world, attack_end);
    let mut healed_after = None;
    for day in 0..=study.heal_window_days {
        eng.run_until(&mut world, attack_end + Duration::from_days(day));
        if world.peers.total_damaged() == 0 {
            healed_after = Some(day);
            break;
        }
    }
    PointOutcome {
        healed_after,
        residual: world.peers.total_damaged() as u64,
    }
}

/// Runs the study on `threads` workers. Byte-deterministic: the report
/// depends only on the study shape, never on the thread count.
pub fn run_recovery_study(study: &RecoveryStudy, threads: usize) -> RecoveryReport {
    let work: Vec<(u32, u64)> = study
        .budgets
        .iter()
        .flat_map(|&b| study.seeds.iter().map(move |&s| (b, s)))
        .collect();
    let outcomes = par_map(
        &work,
        threads,
        || (),
        |_, &(budget, seed)| run_point(study, budget, seed),
    );

    let n_seeds = study.seeds.len();
    let rows = study
        .budgets
        .iter()
        .enumerate()
        .map(|(b, &budget)| {
            let outcomes = &outcomes[b * n_seeds..(b + 1) * n_seeds];
            // Seed-order reduction into a seeded reservoir: quantiles are
            // a pure function of the outcomes.
            let mut heal_days = Reservoir::with_seed(study.seeds.len().max(1), 0x5eed);
            let mut healed = 0;
            let mut max_residual = 0;
            for outcome in outcomes {
                if let Some(days) = outcome.healed_after {
                    heal_days.add(days as f64);
                    healed += 1;
                }
                max_residual = max_residual.max(outcome.residual);
            }
            BudgetRow {
                budget,
                healed,
                seeds: study.seeds.len(),
                p50_days: heal_days.quantile(0.5).map(|d| d as u64),
                p90_days: heal_days.quantile(0.9).map(|d| d as u64),
                max_residual,
            }
        })
        .collect();
    RecoveryReport {
        study: study.clone(),
        rows,
    }
}

impl RecoveryReport {
    /// Deterministic text rendering (integers only: byte-stable across
    /// platforms and thread counts).
    pub fn render(&self) -> String {
        let s = &self.study;
        let mut out = format!(
            "recovery threshold study: {} peers, {} AUs x {} blocks, monthly polls, \
             attack {}d (migrate every {}d), heal window {}d, {} seeds\n\
             budget  healed  p50(d)  p90(d)  max-residual  verdict\n",
            s.n_peers,
            s.n_aus,
            s.au_blocks,
            s.attack_days,
            s.period_days,
            s.heal_window_days,
            s.seeds.len()
        );
        let opt = |d: Option<u64>| d.map_or("-".to_string(), |d| d.to_string());
        for r in &self.rows {
            out.push_str(&format!(
                "{:<7} {:<7} {:<7} {:<7} {:<13} {}\n",
                r.budget,
                format!("{}/{}", r.healed, r.seeds),
                opt(r.p50_days),
                opt(r.p90_days),
                r.max_residual,
                if r.heals() { "heals" } else { "data-loss" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RecoveryStudy {
        RecoveryStudy {
            budgets: vec![1, 8],
            seeds: vec![1, 2],
            attack_days: 90,
            period_days: 30,
            heal_window_days: 120,
            ..RecoveryStudy::default()
        }
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let study = tiny();
        let one = run_recovery_study(&study, 1).render();
        let four = run_recovery_study(&study, 4).render();
        assert_eq!(one, four, "report must not depend on the thread count");
    }

    #[test]
    fn rows_follow_budget_order_and_render_stably() {
        let study = tiny();
        let report = run_recovery_study(&study, 2);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].budget, 1);
        assert_eq!(report.rows[1].budget, 8);
        let rendered = report.render();
        assert!(rendered.contains("budget"), "{rendered}");
        assert!(
            rendered.contains("heals") || rendered.contains("data-loss"),
            "{rendered}"
        );
        assert_eq!(rendered, run_recovery_study(&study, 2).render());
    }

    #[test]
    fn unhealed_points_surface_residual_damage() {
        // A budget the size of the whole population with a migration
        // every 10 days and no patience afterwards: residual damage must
        // be visible in the row.
        let study = RecoveryStudy {
            budgets: vec![30],
            seeds: vec![1],
            attack_days: 90,
            period_days: 10,
            heal_window_days: 0,
            ..RecoveryStudy::default()
        };
        let report = run_recovery_study(&study, 1);
        let row = &report.rows[0];
        assert!(!row.heals(), "no heal window leaves the damage in place");
        assert!(row.max_residual > 0);
    }
}
