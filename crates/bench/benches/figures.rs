//! Figure-regeneration benchmarks: one benchmark per paper table/figure,
//! each running a single smoke-scale instance of the corresponding
//! experiment point (the full sweeps are `lockss-sim figure <id>`; these
//! benches keep the per-point cost visible and the regeneration paths
//! exercised by `cargo bench`).

use std::hint::black_box;

use lockss_adversary::Defection;
use lockss_bench::Harness;
use lockss_experiments::runner::run_once;
use lockss_experiments::scenario::{AttackSpec, Scenario};
use lockss_experiments::Scale;
use lockss_sim::Duration;

fn smoke(attack: AttackSpec) -> Scenario {
    let mut s = Scenario::attacked(Scale::Quick, 2, attack);
    s.run_length = Duration::from_days(180);
    s
}

fn main() {
    let mut h = Harness::new("figures");

    let s = smoke(AttackSpec::None);
    h.bench("fig2/baseline point", move || black_box(run_once(&s, 1)));

    let s = smoke(AttackSpec::PipeStoppage {
        coverage: 1.0,
        days: 30,
    });
    h.bench("fig3-5/pipe-stoppage point", move || {
        black_box(run_once(&s, 1))
    });

    let s = smoke(AttackSpec::AdmissionFlood {
        coverage: 1.0,
        days: 180,
    });
    h.bench("fig6-8/admission-flood point", move || {
        black_box(run_once(&s, 1))
    });

    let s = smoke(AttackSpec::BruteForce {
        defection: Defection::None_,
    });
    h.bench("table1/brute-force NONE point", move || {
        black_box(run_once(&s, 1))
    });

    let s = smoke(AttackSpec::BruteForce {
        defection: Defection::Intro,
    });
    h.bench("table1/brute-force INTRO point", move || {
        black_box(run_once(&s, 1))
    });

    h.finish();
}
