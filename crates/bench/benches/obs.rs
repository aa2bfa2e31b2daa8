//! Observability-layer benchmarks: the cost of running with metric
//! handles wired in, against the identical run with the handles absent.
//!
//! The registry contract mirrors `TraceSink`: instrumented sites hold
//! pre-registered handles behind an `Option`, so a run without
//! observability pays one null check per site. The acceptance bar for
//! the layer is that the *disabled* path costs <2% against the
//! pre-instrumentation trajectory — CI holds `world/simulate*` to that
//! with `bench diff --gate-pct 2` — while this group measures the other
//! side: what turning the instruments on actually costs, plus the raw
//! per-operation prices (counter bump, histogram observe, span
//! enter/exit).

use std::hint::black_box;

use lockss_bench::Harness;
use lockss_experiments::obs::ObsSession;
use lockss_experiments::runner::{run, run_once, RunOptions};
use lockss_experiments::scenario::{AttackSpec, Scenario};
use lockss_experiments::Scale;
use lockss_obs::{Profiler, RegistryBuilder, Span};
use lockss_sim::Duration;

fn smoke() -> Scenario {
    let mut s = Scenario::attacked(Scale::Quick, 2, AttackSpec::None);
    s.cfg.n_peers = 30;
    s.run_length = Duration::from_days(120);
    s
}

fn main() {
    let mut h = Harness::new("obs");

    // The overhead pair: identical (scenario, seed), instruments absent
    // vs every registry handle wired — interleaved so clock drift
    // cancels out of the overhead ratio.
    let s = smoke();
    let session = ObsSession::new();
    {
        let sa = s.clone();
        let sb = s.clone();
        let observed = RunOptions {
            sink: None,
            instruments: session.instruments(None),
        };
        h.bench_pair(
            "run/instruments-off",
            move || black_box(run_once(&sa, 1)),
            "run/instruments-on",
            move || black_box(run(&sb, 1, &observed).summary),
        );
    }

    // Raw handle prices. The counter is the common case (every poll
    // lifecycle edge bumps one); the histogram pays a short linear
    // bucket scan; the span pays two clock reads and a tree update.
    let mut b = RegistryBuilder::new();
    let counter = b.counter("bench_counter_total", "bench");
    let histogram = b.histogram("bench_histogram", "bench", &[1, 8, 64, 512, 4096]);
    let registry = b.build();
    h.bench("handle/counter-inc", || counter.inc());
    let mut v = 0u64;
    h.bench("handle/histogram-observe", move || {
        v = v.wrapping_add(97) & 0xFFF;
        histogram.observe(v)
    });
    h.bench("handle/registry-snapshot", || black_box(registry.to_json()));

    {
        let prof = Some(Profiler::shared());
        h.bench("profile/span-enter-exit", move || {
            black_box(Span::enter(&prof, "bench-span"))
        });
    }

    let results = h.finish();
    let mean = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.mean_ns)
            .unwrap_or(f64::NAN)
    };
    let off = mean("run/instruments-off");
    let on = mean("run/instruments-on");
    println!(
        "\nobs/enabled overhead: {:+.2}% on this {:.0}ms world \
         (instruments off -> on; the disabled-path bar is held by \
         `bench diff --gate-pct 2` on world/simulate*)",
        (on - off) / off * 100.0,
        off / 1e6
    );
}
