//! The four workloads: which registered scenarios each one runs, at what
//! size, and why it is in the benchmark.

use lockss_experiments::{Scale, Scenario, ScenarioRegistry};
use lockss_sim::Duration;

/// One scenario run of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Part {
    /// Registered scenario name.
    pub scenario: &'static str,
    pub scale: Scale,
    /// Simulated run length in days; `None` keeps the registered one.
    pub days: Option<u64>,
}

/// One workload: a fixed list of scenario runs, optionally recorded and
/// round-tripped through the trace layer.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub parts: &'static [Part],
    /// True for the one workload whose body installs a trace sink.
    pub records: bool,
    /// Horizon, in simulated days, of the side probes on the first part:
    /// the traced run's sweep probe, and — on workloads whose body records
    /// nothing — its trace probe and the `trace_bytes_per_event` recording.
    pub probe_days: u64,
}

impl Part {
    /// The scale this part is built at: `--smoke` forces the quick one.
    pub fn scale_at(&self, smoke: bool) -> Scale {
        if smoke {
            Scale::Quick
        } else {
            self.scale
        }
    }
}

impl Workload {
    /// The first part at the probe horizon.
    pub fn probe_part(&self) -> Part {
        Part {
            days: Some(self.probe_days),
            ..self.parts[0]
        }
    }
}

const fn part(scenario: &'static str, scale: Scale, days: Option<u64>) -> Part {
    Part {
        scenario,
        scale,
        days,
    }
}

/// Run lengths are cut from the registered two years where a rep would
/// otherwise exceed ~5 s: a run measures for 20 s and needs several reps
/// for a median. World sizes (peers × AUs) are the registered ones; all
/// four attacks are sustained from day 0 (pipe-stoppage cycles every
/// 120 d), so a shorter horizon runs the same code paths in the same mix.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-baseline",
        why: "The paper's 6.3 world every figure point is a multiple of (100 peers x 20 AUs, 2 \
              years, no attack): the loyal poll path on a cache-resident world with a shallow \
              event queue.",
        parts: &[part("baseline", Scale::Default, None)],
        records: false,
        probe_days: 180,
    },
    Workload {
        name: "scale-10k",
        why: "Same protocol path, opposite memory regime: 10,000 peers x 1 AU, deep event heap, \
              130 MiB peer table, boxed message closures. The only workload where setup_s and \
              peak_rss_mib are large.",
        parts: &[part("scale-10k-baseline", Scale::Quick, None)],
        records: false,
        probe_days: 40,
    },
    Workload {
        name: "attack-mix",
        why:
            "The attrition paths, not the loyal path: admission-flood, vote-flood, pipe-stoppage, \
              brute-force-remaining in sequence (rejects, drops, suppression, effort debt). \
              Untraced twin of trace-roundtrip.",
        parts: &[
            part("admission-flood", Scale::Default, Some(240)),
            part("vote-flood", Scale::Default, Some(240)),
            part("pipe-stoppage", Scale::Default, Some(240)),
            part("brute-force-remaining", Scale::Default, Some(120)),
        ],
        records: false,
        probe_days: 180,
    },
    Workload {
        name: "trace-roundtrip",
        why: "The only workload with a trace sink installed: record admission-flood, write, \
              read-verify, decode, stats, diff against seed+1, export. The trace layer is about \
              half the wall.",
        parts: &[part("admission-flood", Scale::Default, Some(360))],
        records: true,
        probe_days: 90,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--smoke`: every scenario at quick scale, at most this many days.
pub const SMOKE_DAYS: u64 = 100;

/// Builds one part from the registry spec. With `smoke` the world is the
/// quick-scale one and the run is capped at [`SMOKE_DAYS`].
///
/// # Panics
///
/// Panics if the scenario is not registered: the names above are part of
/// the repo's checked-in corpus.
pub fn build(part: &Part, smoke: bool) -> Scenario {
    let registry = ScenarioRegistry::standard();
    let scenario = registry
        .build(part.scenario, part.scale_at(smoke))
        .unwrap_or_else(|| panic!("scenario '{}' is not registered", part.scenario));
    let mut days = part.days;
    if smoke {
        let registered = scenario.run_length.as_millis() / Duration::from_days(1).as_millis();
        days = Some(days.unwrap_or(registered).min(SMOKE_DAYS));
    }
    match days {
        Some(d) => scenario.with_run_length(Duration::from_days(d)),
        None => scenario,
    }
}
