//! `--trace 0`: the end-to-end run of one workload. Closed loop, one
//! client: a rep starts when the previous one ends, until the run has
//! measured for `--seconds`. No spans, no observers, no slices.
//!
//! Every timing is divided by the host-speed factor sampled right before
//! and after it (see [`host::SpeedProbe`]); the raw seconds are printed
//! beside it.

use std::time::Instant;

use crate::host;
use crate::run::{self, Ops};
use crate::spans::Spans;
use crate::stats::{median, Dist};
use crate::workloads;
use crate::Args;

/// Runs the workload and returns every end-to-end metric by name.
pub fn run(args: &Args, ops: &mut Ops) -> Vec<(&'static str, f64)> {
    let w = args.workload;
    let mut spans = Spans::off();
    let probe = host::SpeedProbe::new(args.smoke);
    // The host-speed factor of the interval since the previous call: the
    // mean of the samples at its two ends.
    let mut prev = probe.sample();
    let mut factor_since = || {
        let now = probe.sample();
        let factor = (prev + now) / 2.0;
        prev = now;
        factor
    };

    // Set-up shared by every rep of the recording workload: the seed+1
    // trace its diff compares against. Charged to each rep's set-up.
    let t = Instant::now();
    let cmp = run::comparison_trace(args, &mut spans);
    let cmp_s = if w.records {
        let raw = t.elapsed().as_secs_f64();
        let factor = factor_since();
        println!("comparison trace: {raw:.6} s raw, host speed {factor:.4}");
        raw / factor
    } else {
        0.0
    };

    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    let mut first: Option<run::Rep> = None;
    let started = Instant::now();
    loop {
        let rep = run::rep(args, cmp.as_ref(), &mut spans, None, ops);
        let factor = factor_since();
        println!(
            "rep {}: setup_s {:.6} wall_s {:.6} (raw {:.6}, host speed {factor:.4}) polls {} \
             summary-digest {}",
            wall.len() + 1,
            rep.setup_s / factor + cmp_s,
            rep.body_s / factor,
            rep.body_s,
            rep.polls,
            rep.digest
        );
        setup.push(rep.setup_s / factor + cmp_s);
        wall.push(rep.body_s / factor);
        match &first {
            Some(f) => ops.step("rep digest equals rep 1's", rep.digest == f.digest),
            None => first = Some(rep),
        }
        if args.smoke || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Sampled before the probe below so it is the measured reps' peak.
    let peak_rss_mib = host::peak_rss_mib();
    let first = first.expect("at least one rep ran");

    // Exact: sealed bytes over trace events. The recording workload reads
    // it off its body; the others record a short probe of their first
    // part, outside the timed reps, since their bodies record nothing.
    let (bytes, events) = match &first.side {
        Some(side) => (side.bytes, side.events),
        None => {
            let part = w.probe_part();
            let scn = workloads::build(&part, args.smoke);
            let (_, trace, events) = run::record(args, &part, &scn, args.seed, &mut spans);
            ops.step("probe recording holds events", events > 0);
            println!("trace-hash {}", trace.content_hash());
            (trace.as_bytes().len() as u64, events)
        }
    };
    if let Some(hash) = &first.trace_hash {
        println!("trace-hash {hash}");
    }
    println!("summary-digest {}", first.digest);
    println!("dist setup_s {}", Dist::of(&setup));
    println!("dist wall_s {}", Dist::of(&wall));

    let wall_s = median(&wall);
    vec![
        ("setup_s", median(&setup)),
        ("wall_s", wall_s),
        ("polls_per_s", first.polls as f64 / wall_s),
        ("peak_rss_mib", peak_rss_mib),
        ("trace_bytes_per_event", bytes as f64 / events.max(1) as f64),
    ]
}
