//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§7) and runs the scenario registry beyond it.
//!
//! Every runnable world is a named entry in the [`ScenarioRegistry`] —
//! baselines, each figure point's representative scenario, the
//! dynamic-environment attacks, and composite campaigns built from the
//! composable [`AttackSpec`]. The `lockss-sim` binary lists, describes,
//! and runs them (`list` / `describe <name>` / `run <name> --json`),
//! writing per-scenario JSON summaries under `results/`.
//!
//! `lockss-sim figure <id>...` regenerates the paper's figures and tables
//! from the declarative table in [`figures`]: each derives its sweep grid
//! from the registered baseline, installs the relevant adversary, runs
//! several seeds in parallel, and prints the same rows/series the paper
//! reports, plus a CSV copy under `results/`.
//!
//! Everything that turns a [`Scenario`] into a driven world — one run, a
//! batch, a sweep, a replay, a fuzz campaign, a figure point — goes
//! through the single [`runner::run`].
//!
//! Scale is controlled by `LOCKSS_SCALE` (or a `--scale` argument):
//! `quick` for CI smoke runs, `default` for laptop-scale shape
//! reproduction, `paper` for the full §6.3 parameters. The reproduction
//! criterion is *shape* (orderings, approximate factors, crossovers), not
//! the absolute numbers of the authors' 2004 testbed — see EXPERIMENTS.md.

pub mod figures;
pub mod fuzz;
pub mod layering;
pub mod obs;
pub mod recovery;
pub mod registry;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod spec;
pub mod sweep;

pub use obs::{heartbeat_path, ObsSession, SweepObs, Telemetry};
pub use recovery::{run_recovery_study, RecoveryReport, RecoveryStudy};
pub use registry::{ScenarioEntry, ScenarioRegistry};
pub use runner::{Instruments, RunOptions, RunOutput};
pub use scale::Scale;
pub use scenario::{phased, AttackSpec, PhasedAttack, Scenario};
pub use spec::{ScenarioSpec, SpecError, WorldSpec};
pub use sweep::{
    dispatch, jobfile, merge_files, run_sweep, run_sweep_plan, DispatchPlan, ShardTag,
    SweepOptions, SweepReport,
};

use std::io;
use std::path::Path;

/// Writes a rendered table and its CSV twin under `results/`. An error
/// names the path that could not be written.
pub fn save_results(name: &str, rendered: &str, csv: &str) -> io::Result<()> {
    let dir = Path::new("results");
    let at =
        |path: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    std::fs::create_dir_all(dir).map_err(|e| at(dir, e))?;
    for (ext, content) in [("txt", rendered), ("csv", csv)] {
        let path = dir.join(format!("{name}.{ext}"));
        std::fs::write(&path, content).map_err(|e| at(&path, e))?;
    }
    Ok(())
}
