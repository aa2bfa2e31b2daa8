//! The metric catalogue: every name the benchmark prints, with its unit,
//! which way is better, and — for a layer metric — the end-to-end metric
//! it should move. `BENCHMARK.json` at the repo root lists the same names;
//! a test keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: the share of the parent's median by which the metric
    /// may worsen. Layer metrics have no bound.
    pub bound: Option<f64>,
    /// True for a simulated statistic or byte count that repeats exactly
    /// for a given seed: `--compare` checks these for equality.
    pub exact: bool,
    /// Layer metrics: the end-to-end metric (and workload) this one should
    /// move. End-to-end metrics: what a user sees.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator pays for. Printed with `--trace 0`.
///
/// The timing bounds are as wide as the contract allows because the
/// run-to-run spread of a 20 s run on the 2-core shared box this was sized
/// on measured 6-13% of the median (minute-scale drift that more reps in a
/// run do not average out); a bound inside the noise rejects no-op changes.
/// Peak RSS repeats to 1-2% except on `trace-roundtrip`, whose threaded
/// read side makes the high-water mark wander by 5%; one bound serves all
/// workloads, so it is three times that. Bytes per event are exact.
#[rustfmt::skip] // one metric per line
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25, false, "host time before the first event runs"),
    e2e("wall_s", "s", Lower, 0.25, false, "host time of the workload's measured body"),
    e2e("polls_per_s", "polls/s", Higher, 0.25, false, "audits completed per host second"),
    e2e("peak_rss_mib", "MiB", Lower, 0.15, false, "host memory per world"),
    e2e("trace_bytes_per_event", "B", Lower, 0.01, true, "disk cost of recording a run"),
];

const ATTACK: &str = "wall_s on attack-mix (split by scenario)";
const TRACE_WALL: &str = "wall_s on trace-roundtrip only";

/// One number per layer boundary. Printed with `--trace 1`.
#[rustfmt::skip] // one metric per line
pub const PER_LAYER: [MetricDef; 65] = [
    layer("experiments.registry_load_s", "s", Lower, false, "setup_s"),
    layer("experiments.world_build_s", "s", Lower, false, "setup_s, peak_rss_mib on scale-10k"),
    layer("experiments.world_start_s", "s", Lower, false, "setup_s on scale-10k"),
    layer("experiments.simulate_s", "s", Lower, false, "wall_s everywhere"),
    layer("metrics.summarize_s", "s", Lower, false, "wall_s (work moved out of simulate)"),
    layer("experiments.sweep_wall_s", "s", Lower, false, "informational (multi-thread, not gated)"),
    layer("experiments.sweep_efficiency", "ratio", Higher, false, "informational (multi-thread)"),
    layer("sim.events_executed", "count", Lower, true, "wall_s; event-eliminating PRs claim here"),
    layer("sim.events_queued_at_horizon", "count", Lower, true, "peak_rss_mib on scale-10k"),
    layer("sim.arena_high_water", "count", Lower, true, "peak_rss_mib on scale-10k"),
    layer("sim.ns_per_event", "ns", Lower, false, "wall_s everywhere"),
    layer("sim.events_per_s", "1/s", Higher, false, "wall_s everywhere"),
    layer("sim.slices", "count", Lower, true, "none (sample count of the slice metrics)"),
    layer("sim.slice_ns_per_event_p50", "ns", Lower, false, "wall_s (steady state)"),
    layer("sim.slice_ns_per_event_max", "ns", Lower, false, "wall_s (ramp, attack-on phases)"),
    layer("sim.allocs_per_event", "1/event", Lower, true, "wall_s on scale-10k (boxed deliveries)"),
    layer("sim.alloc_bytes_per_event", "B", Lower, true, "wall_s on scale-10k"),
    layer("sim.queue_hold_ns", "ns", Lower, false, "wall_s on scale-10k (deep heap)"),
    layer("sim.queue_share_est", "ratio", Lower, false, "ceiling for a queue/arena PR"),
    layer("net.send_ns", "ns", Lower, false, "wall_s on attack-mix (vote-flood)"),
    layer("net.delivery_share_est", "ratio", Lower, false, "wall_s on attack-mix"),
    layer("core.polls_started", "count", Higher, true, "numerator of polls_per_s"),
    layer("core.polls_concluded", "count", Higher, true, "numerator of polls_per_s"),
    layer("core.msgs_sent", "count", Lower, true, "wall_s (message-heavy workloads)"),
    layer("core.msgs_suppressed", "count", Lower, true, "none (pipe-stoppage path taken)"),
    layer("core.admission_verdicts", "count", Lower, true, "wall_s on attack-mix"),
    layer("core.repairs_applied", "count", Lower, true, "none (simulated statistic)"),
    layer("core.damage_events", "count", Lower, true, "none (simulated statistic)"),
    layer("core.events_per_poll", "1/poll", Lower, true, "polls_per_s"),
    layer("core.admission_admit_ratio", "ratio", Higher, true, "which path a PR exercises"),
    layer("core.admission_filter_ns", "ns", Lower, false, "wall_s on attack-mix"),
    layer("core.admission_share_est", "ratio", Lower, false, "wall_s on attack-mix"),
    layer("core.reputation_update_ns", "ns", Lower, false, "wall_s on paper-baseline"),
    layer("core.schedule_reserve_ns", "ns", Lower, false, "wall_s on paper-baseline"),
    layer("core.poll_evaluate_s", "s", Lower, false, "wall_s on paper-baseline"),
    layer("core.poll_finalize_s", "s", Lower, false, "wall_s on paper-baseline"),
    layer("core.simulate_dark_share", "ratio", Lower, false, "attribution must drive it below 0.1"),
    layer("adversary.timers", "count", Lower, true, "wall_s on attack-mix"),
    layer("adversary.actions", "count", Lower, true, "wall_s on attack-mix"),
    layer("adversary.admission-flood.run_s", "s", Lower, false, ATTACK),
    layer("adversary.admission-flood.ns_per_event", "ns", Lower, false, ATTACK),
    layer("adversary.vote-flood.run_s", "s", Lower, false, ATTACK),
    layer("adversary.vote-flood.ns_per_event", "ns", Lower, false, ATTACK),
    layer("adversary.pipe-stoppage.run_s", "s", Lower, false, ATTACK),
    layer("adversary.pipe-stoppage.ns_per_event", "ns", Lower, false, ATTACK),
    layer("adversary.brute-force-remaining.run_s", "s", Lower, false, ATTACK),
    layer("adversary.brute-force-remaining.ns_per_event", "ns", Lower, false, ATTACK),
    layer("trace.events_recorded", "count", Lower, true, "trace_bytes_per_event"),
    layer("trace.file_mib", "MiB", Lower, true, "trace_bytes_per_event"),
    layer("trace.record_run_s", "s", Lower, false, TRACE_WALL),
    layer("trace.write_s", "s", Lower, false, TRACE_WALL),
    layer("trace.read_verify_s", "s", Lower, false, TRACE_WALL),
    layer("trace.decode_s", "s", Lower, false, TRACE_WALL),
    layer("trace.decode_events_per_s", "1/s", Higher, false, TRACE_WALL),
    layer("trace.stats_s", "s", Lower, false, TRACE_WALL),
    layer("trace.diff_s", "s", Lower, false, TRACE_WALL),
    layer("trace.export_s", "s", Lower, false, TRACE_WALL),
    layer("trace.record_overhead_ratio", "ratio", Lower, false, "the <5% recording target"),
    layer("trace.replay_verify_s", "s", Lower, false, "none (traced run only)"),
    layer("crypto.sha256_mib_per_s", "MiB/s", Higher, false, "trace.write_s, trace.read_verify_s"),
    layer("obs.traced_overhead_ratio", "ratio", Lower, false, "none (cost of the traced run)"),
    layer("host.speed_factor", "ratio", Lower, false, "none (raw = reported x factor)"),
    layer("host.nproc", "count", Higher, false, "none (tells noise from regression)"),
    layer("host.cpu_s", "s", Lower, false, "none (tells noise from regression)"),
    layer("host.involuntary_ctx_switches", "count", Lower, false, "none (noise)"),
];

/// The rule `BENCHMARK.json` sets for metric and workload names.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The rule `BENCHMARK.json` sets for units.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use lockss_sim::json::{self, Value};

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "name used twice: {}", w.name);
        }
        assert!(!valid_name("-x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("polls per s"));
    }

    #[test]
    fn bounds_are_within_the_contract() {
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
    }

    fn str_of<'v>(obj: &'v [(String, Value)], key: &str) -> &'v str {
        json::get(obj, key).unwrap().as_str(key).unwrap()
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what
    /// the binary prints. They must name the same things the same way.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let root = doc.as_object("root").unwrap();
        let keys: Vec<&str> = root.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let check = |key: &str, defs: &[MetricDef]| {
            let listed = json::get(root, key).unwrap().as_array(key).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (v, d) in listed.iter().zip(defs) {
                let o = v.as_object(key).unwrap();
                assert_eq!(str_of(o, "name"), d.name);
                assert_eq!(str_of(o, "unit"), d.unit, "{}", d.name);
                assert_eq!(str_of(o, "better"), d.better.label(), "{}", d.name);
                match d.bound {
                    Some(b) => {
                        assert_eq!(json::get(o, "bound").unwrap().as_f64("bound").unwrap(), b)
                    }
                    None => assert!(json::get_opt(o, "bound").is_none(), "{}", d.name),
                }
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);

        let listed = json::get(root, "workloads")
            .unwrap()
            .as_array("workloads")
            .unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (v, w) in listed.iter().zip(&WORKLOADS) {
            let o = v.as_object("workload").unwrap();
            assert_eq!(str_of(o, "name"), w.name);
            assert_eq!(str_of(o, "why"), w.why);
        }
    }
}
