//! Observability-layer benchmarks: the cost of running with metric
//! handles wired in, against the identical run with the handles absent.
//!
//! The registry contract mirrors `TraceSink`: instrumented sites hold
//! pre-registered handles behind an `Option`, so a run without
//! observability pays one null check per site. The disabled path is what
//! every other group measures, so `bench diff --gate` holds it to each
//! gated line's noise band; this group measures the other side: what
//! turning the instruments on actually costs, plus the raw per-operation
//! prices (counter bump, histogram observe, span enter/exit).

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
    // vs every registry handle wired.
    let s = smoke();
    let observed = RunOptions {
        sink: None,
        instruments: ObsSession::new().instruments(None),
    };
    let off = s.clone();
    h.bench("run/instruments-off", move || black_box(run_once(&off, 1)));
    h.bench("run/instruments-on", move || {
        black_box(run(&s, 1, &observed).summary)
    });

    // Raw handle prices. The counter is the common case (every poll
    // lifecycle edge bumps one); the histogram pays a short linear
    // bucket scan; the span pays two clock reads and a tree update.
    let mut b = RegistryBuilder::new();
    let counter = b.counter("bench_counter_total", "bench");
    let histogram = b.histogram("bench_histogram", "bench", &[1, 8, 64, 512, 4096]);
    let registry = b.build();
    h.bench("handle/counter-inc", move || counter.inc());
    let mut v = 0u64;
    h.bench("handle/histogram-observe", move || {
        v = v.wrapping_add(97) & 0xFFF;
        histogram.observe(v)
    });
    h.bench("handle/registry-snapshot", move || {
        black_box(registry.to_json())
    });

    {
        let prof = Some(Profiler::shared());
        h.bench("profile/span-enter-exit", move || {
            black_box(Span::enter(&prof, "bench-span"))
        });
    }

    let results = h.finish();
    let [off, on] = ["run/instruments-off", "run/instruments-on"]
        .map(|name| results.iter().find(|r| r.name == name).unwrap().median_ns);
    println!(
        "\nobs/enabled overhead: {:+.2}% on this {:.0}ms world (instruments off -> on, \
         medians of interleaved samples)",
        (on - off) / off * 100.0,
        off / 1e6
    );
}
