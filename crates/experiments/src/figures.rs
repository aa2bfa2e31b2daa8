//! Every figure and table of the paper's evaluation (§7), as data: one
//! declarative table of figures over a handful of sweep *families*, one
//! generic grid runner, and the two reports that keep their own loop.
//!
//! A figure point is always "the registered `baseline` world plus one
//! parameter": each family builds its grid of tweaked scenarios, the grid
//! runner measures it with [`run_batch`] (the scale's seeds per point) and
//! pairs each point with its matched no-attack baseline for the §6.1 ratio
//! metrics. Figures 3–5 are three columns of the pipe-stoppage family,
//! Figures 6–8 of the admission-flood family; a [`Sweeps`] computes each
//! family at most once, in memory, however many figures read it — so
//! `lockss-sim figure fig3 fig4 fig5` runs one sweep, and nothing is ever
//! replayed from disk.

use std::cell::OnceCell;

use lockss_adversary::{AdmissionFlood, Defection};
use lockss_core::config::Ablation;
use lockss_effort::ledger::ALL_PURPOSES;
use lockss_effort::EffortLedger;
use lockss_metrics::table::{ratio, sci};
use lockss_metrics::{Summary, Table};
use lockss_sim::{Duration, SimTime};
use lockss_storage::AuId;

use crate::registry::ScenarioRegistry;
use crate::runner::{default_threads, run, run_batch, Run, RunOptions};
use crate::scale::Scale;
use crate::scenario::{AttackSpec, Scenario};

/// One measured grid point: its key cells, the mean summary over the
/// scale's seeds, and the matched baseline for the §6.1 ratio metrics (an
/// unattacked point is its own baseline).
#[derive(Clone, Debug, PartialEq)]
struct Point {
    /// The leading cells that identify the point in every figure of its
    /// family (e.g. duration, coverage, collection).
    key: Vec<String>,
    /// Mean summary of the point's scenario.
    attacked: Summary,
    /// Mean summary of the same world without the attack.
    baseline: Summary,
}

/// A sweep shared by one or more figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    /// No attack: poll interval × storage MTBF × collection (Fig. 2).
    Fig2,
    /// Pipe stoppage: duration × coverage × collection (Figs. 3–5).
    Pipe,
    /// Admission flood: duration × coverage × collection (Figs. 6–8).
    Flood,
    /// Brute force: defection point × collection (Table 1).
    Table1,
    /// Each defense off under the attack it exists to stop.
    Ablations,
}

impl Family {
    const COUNT: usize = 5;

    /// Headers of the key cells every point of the family carries.
    fn key_headers(self) -> &'static [&'static str] {
        match self {
            Family::Fig2 => &[
                "poll interval (months)",
                "storage MTBF (disk-years)",
                "collection",
            ],
            Family::Pipe | Family::Flood => &["attack duration (days)", "coverage", "collection"],
            Family::Table1 => &["defection", "collection"],
            Family::Ablations => &["case"],
        }
    }
}

/// The sweep families measured so far at one scale. Each is computed on
/// first use and kept for the rest of the invocation.
pub struct Sweeps {
    scale: Scale,
    /// The registered `baseline` world every sweep point derives from —
    /// the same registry entry the CLI runs.
    base: Scenario,
    baselines: OnceCell<[Summary; 2]>,
    families: [OnceCell<Vec<Point>>; Family::COUNT],
}

impl Sweeps {
    /// Nothing measured yet.
    pub fn new(scale: Scale) -> Sweeps {
        Sweeps {
            scale,
            base: ScenarioRegistry::standard()
                .build("baseline", scale)
                .expect("'baseline' is registered"),
            baselines: OnceCell::new(),
            families: Default::default(),
        }
    }

    fn family(&self, family: Family) -> &[Point] {
        self.families[family as usize].get_or_init(|| match family {
            Family::Fig2 => self.fig2(),
            Family::Pipe => self
                .attack_sweep(&self.scale.stoppage_durations(), |coverage, days| {
                    AttackSpec::PipeStoppage { coverage, days }
                }),
            Family::Flood => self.attack_sweep(&self.scale.flood_durations(), |coverage, days| {
                AttackSpec::AdmissionFlood { coverage, days }
            }),
            Family::Table1 => self.table1(),
            Family::Ablations => self.ablations(),
        })
    }

    /// The baseline world at the small or large collection size.
    fn sized(&self, large: bool) -> Scenario {
        self.base.clone().with_aus(if large {
            self.scale.large_collection()
        } else {
            self.scale.small_collection()
        })
    }

    /// The matched no-attack baselines, `[small, large]`.
    fn baselines(&self) -> &[Summary; 2] {
        self.baselines.get_or_init(|| {
            let registry = ScenarioRegistry::standard();
            let jobs = ["baseline", "baseline-large"]
                .map(|name| registry.build(name, self.scale).expect("registered"));
            self.measure(&jobs).try_into().expect("one summary per job")
        })
    }

    fn measure(&self, jobs: &[Scenario]) -> Vec<Summary> {
        run_batch(jobs, self.scale.seeds(), default_threads(), None)
    }

    /// The one grid runner. Each grid entry is the point's leading key
    /// cells, its collection (`large`), and its scenario; the result pairs
    /// every point — key completed by the collection cell — with its mean
    /// summary and, when `matched`, the no-attack baseline of the same
    /// collection.
    fn run_grid(&self, grid: Vec<(Vec<String>, bool, Scenario)>, matched: bool) -> Vec<Point> {
        let jobs: Vec<Scenario> = grid.iter().map(|(_, _, job)| job.clone()).collect();
        grid.into_iter()
            .zip(self.measure(&jobs))
            .map(|((mut key, large, _), attacked)| {
                key.push(if large { "large" } else { "small" }.to_string());
                let baseline = if matched {
                    self.baselines()[usize::from(large)].clone()
                } else {
                    attacked.clone()
                };
                Point {
                    key,
                    attacked,
                    baseline,
                }
            })
            .collect()
    }

    /// All coverages × durations on the small collection, plus the
    /// 100%-coverage series on the large collection (the paper's
    /// "100% 600 AUs" line).
    fn attack_sweep(&self, durations: &[u64], make: fn(f64, u64) -> AttackSpec) -> Vec<Point> {
        let small = self
            .scale
            .coverages()
            .into_iter()
            .flat_map(|cov| durations.iter().map(move |&d| (cov, d, false)));
        let large = durations.iter().map(|&d| (1.0, d, true));
        let grid = small
            .chain(large)
            .map(|(cov, d, large)| {
                (
                    vec![d.to_string(), format!("{:.0}%", cov * 100.0)],
                    large,
                    self.sized(large).with_attack(make(cov, d)),
                )
            })
            .collect();
        self.run_grid(grid, true)
    }

    /// Every interval × MTBF on the small collection; the large one at
    /// the two extreme MTBFs (the paper shows the 600-AU collection at 1
    /// and 5 disk-years).
    fn fig2(&self) -> Vec<Point> {
        let intervals = self.scale.poll_intervals_months();
        let mtbfs = self.scale.mtbf_years();
        let mut extremes = vec![
            *mtbfs.first().expect("nonempty"),
            *mtbfs.last().expect("nonempty"),
        ];
        extremes.dedup();
        let small = intervals
            .iter()
            .flat_map(|&m| mtbfs.iter().map(move |&y| (m, y, false)));
        let large = intervals
            .iter()
            .flat_map(|&m| extremes.iter().map(move |&y| (m, y, true)));
        let grid = small
            .chain(large)
            .map(|(months, years, large)| {
                (
                    vec![months.to_string(), format!("{years:.0}")],
                    large,
                    self.sized(large)
                        .with_poll_interval(Duration::MONTH * months)
                        .with_mtbf_years(years),
                )
            })
            .collect();
        self.run_grid(grid, false)
    }

    fn table1(&self) -> Vec<Point> {
        let grid = [Defection::Intro, Defection::Remaining, Defection::None_]
            .into_iter()
            .flat_map(|d| [(d, false), (d, true)])
            .map(|(defection, large)| {
                (
                    vec![defection.label().to_string()],
                    large,
                    self.sized(large)
                        .with_attack(AttackSpec::BruteForce { defection }),
                )
            })
            .collect();
        self.run_grid(grid, true)
    }

    /// What each defense buys (the paper's §9 parameter exploration and
    /// the §1/§5 motivations). For each defense, the attack that defense
    /// exists to stop, with the defense on and off:
    ///
    /// - **refractory periods** vs the admission flood (§7.3): without the
    ///   refractory rate limit, every garbage invitation that survives the
    ///   random drop costs a consideration — unbounded consideration work;
    /// - **first-hand reputation** vs brute force (§7.4): without grades,
    ///   the attacker's seeded identities pass as `even` and bypass drops
    ///   and the one-per-period unknown slot entirely;
    /// - **introductions** vs the admission flood: without them, discovery
    ///   stalls while refractory periods are held open;
    /// - **effort balancing** vs brute force: without provable effort the
    ///   attack becomes free for the attacker (cost ratio collapses);
    /// - **desynchronization** under heavy load: synchronous solicitation
    ///   concentrates vote work and fails polls that individual
    ///   solicitation would have completed.
    fn ablations(&self) -> Vec<Point> {
        let flood = AttackSpec::AdmissionFlood {
            coverage: 1.0,
            days: 360,
        };
        let brute = AttackSpec::BruteForce {
            defection: Defection::Remaining,
        };
        let none = AttackSpec::None;
        let without = |switch: fn(&mut Ablation)| {
            let mut ablation = Ablation::default();
            switch(&mut ablation);
            ablation
        };
        let cases = [
            (
                "full defenses / admission flood",
                &flood,
                Ablation::default(),
            ),
            (
                "no refractory / admission flood",
                &flood,
                without(|a| a.no_refractory = true),
            ),
            (
                "no introductions / admission flood",
                &flood,
                without(|a| a.no_introductions = true),
            ),
            ("full defenses / brute force", &brute, Ablation::default()),
            (
                "no reputation / brute force",
                &brute,
                without(|a| a.no_reputation = true),
            ),
            (
                "no effort balancing / brute force",
                &brute,
                without(|a| a.no_effort_balancing = true),
            ),
            (
                "synchronous solicitation / no attack",
                &none,
                without(|a| a.synchronous_solicitation = true),
            ),
        ];
        // Baselines: the unattacked world with the same ablation, so each
        // row's ratios isolate the attack's effect under that protocol
        // variant.
        let jobs: Vec<Scenario> = cases
            .iter()
            .flat_map(|&(_, attack, ablation)| {
                let mut baseline = self.sized(false);
                baseline.cfg.protocol.ablation = ablation;
                [baseline.clone().with_attack(attack.clone()), baseline]
            })
            .collect();
        cases
            .iter()
            .zip(self.measure(&jobs).chunks(2))
            .map(|(&(name, _, _), pair)| Point {
                key: vec![name.to_string()],
                attacked: pair[0].clone(),
                baseline: pair[1].clone(),
            })
            .collect()
    }
}

/// Where a figure's rows come from.
enum Source {
    /// One row per point of a sweep family: the family's key cells, then
    /// one cell per `(header, formatter)` metric column.
    Grid(Family, &'static [Column]),
    /// A report that builds its whole table itself (it is not a grid of
    /// summaries).
    Report(fn(Scale) -> Table),
}

/// One figure, table or report of the evaluation.
pub struct Figure {
    /// The id `lockss-sim figure` selects it by; also the stem of its
    /// `results/<id>.{txt,csv}` files.
    pub id: &'static str,
    /// The banner line, up to the scale it is printed with.
    banner: &'static str,
    source: Source,
    footer: Footer,
}

/// The closing line under a figure's table.
enum Footer {
    None,
    Text(&'static str),
    /// Fig. 2's anchor point, for comparison with the value the paper
    /// quotes for it.
    Fig2Anchor,
}

/// A rendered figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Rendered {
    /// The column-aligned table (`results/<id>.txt`).
    pub table: String,
    /// The same rows as CSV (`results/<id>.csv`).
    pub csv: String,
    /// The closing line printed under the table, if the figure has one.
    pub footer: Option<String>,
}

/// A metric column: its header and the cell it renders for a point.
type Column = (&'static str, fn(&Point) -> String);

const fn access_failure(header: &'static str) -> Column {
    (header, |p| sci(p.attacked.access_failure_probability))
}
const fn friction(header: &'static str) -> Column {
    (header, |p| {
        ratio(p.attacked.coefficient_of_friction(&p.baseline))
    })
}
const DELAY_RATIO: Column = ("delay ratio", |p| {
    ratio(p.attacked.delay_ratio(&p.baseline))
});
/// Meaningful only for effortful attacks.
const COST_RATIO: Column = ("cost ratio", |p| ratio(p.attacked.cost_ratio()));
const ACCESS_FAILURE: Column = access_failure("access failure probability");
const FRICTION: Column = friction("coefficient of friction");
/// The four §6.1 metrics side by side, under the short headers Table 1
/// and the ablation study share.
const SHORT_FRICTION: Column = friction("coeff. friction");
const SHORT_ACCESS_FAILURE: Column = access_failure("access failure");

/// The evaluation, in the paper's order. The comment on each entry is the
/// shape the paper reports — the reproduction criterion.
pub static FIGURES: [Figure; 11] = [
    // Baseline access failure vs inter-poll interval, for storage MTBFs of
    // 1–5 disk-years and both collection sizes, absent any attack. Failure
    // probability grows with the poll interval and with the damage rate;
    // the large collection tracks the small one closely. Anchor: ~4.8e-4
    // at (3 months, 5 years, small collection).
    Figure {
        id: "fig2",
        banner: "Figure 2 (baseline) at",
        source: Source::Grid(Family::Fig2, &[ACCESS_FAILURE]),
        footer: Footer::Fig2Anchor,
    },
    // Repeated pipe-stoppage attacks of varying duration (1–180 days) and
    // coverage (10–100%). Failure grows with coverage and duration, but
    // even 100% coverage for 180 days only reaches a few 1e-3 — the system
    // must be attacked intensely, widely, and for a long time to degrade.
    Figure {
        id: "fig3",
        banner: "Figure 3 (pipe stoppage: access failure) at",
        source: Source::Grid(Family::Pipe, &[ACCESS_FAILURE]),
        footer: Footer::None,
    },
    // Attacks must last at least ~60 days to raise the delay ratio by an
    // order of magnitude; short attacks barely move it.
    Figure {
        id: "fig4",
        banner: "Figure 4 (pipe stoppage: delay ratio) at",
        source: Source::Grid(Family::Pipe, &[DELAY_RATIO]),
        footer: Footer::None,
    },
    // Negligible (≈1) for attacks of a few days; up to ~10 for long, wide
    // attacks.
    Figure {
        id: "fig5",
        banner: "Figure 5 (pipe stoppage: coefficient of friction) at",
        source: Source::Grid(Family::Pipe, &[FRICTION]),
        footer: Footer::None,
    },
    // The admission-control (garbage invitation) attack, durations 1–720
    // days, coverage 10–100%. It barely moves access failure — from
    // ~5.2e-4 to ~5.9e-4 even when sustained for the whole two years at
    // full coverage.
    Figure {
        id: "fig6",
        banner: "Figure 6 (admission flood: access failure) at",
        source: Source::Grid(Family::Flood, &[ACCESS_FAILURE]),
        footer: Footer::None,
    },
    // Essentially flat (≈1) at all durations and coverages — refractory
    // periods protect the victims' schedules, and known peers bypass the
    // blocked unknown/in-debt path.
    Figure {
        id: "fig7",
        banner: "Figure 7 (admission flood: delay ratio) at",
        source: Source::Grid(Family::Flood, &[DELAY_RATIO]),
        footer: Footer::None,
    },
    // Long full-coverage attacks raise the cost of each successful poll by
    // ~33% (loyal peers waste introductory efforts on victims stuck in
    // refractory periods); short or narrow attacks are negligible.
    Figure {
        id: "fig8",
        banner: "Figure 8 (admission flood: coefficient of friction) at",
        source: Source::Grid(Family::Flood, &[FRICTION]),
        footer: Footer::None,
    },
    // The brute-force effortful adversary defecting at INTRO, REMAINING,
    // or NONE, for both collection sizes. Full participation (NONE) is the
    // attacker's most cost-effective strategy (lowest cost ratio); friction
    // tops out around 2.5–2.6; the delay ratio stays ≈1.1; access failure
    // rises only ~20–30% over baseline. Rate limits prevent an
    // unconstrained adversary from bringing his resources to bear.
    Figure {
        id: "table1",
        banner: "Table 1 (brute-force defection points) at",
        source: Source::Grid(
            Family::Table1,
            &[
                SHORT_FRICTION,
                COST_RATIO,
                DELAY_RATIO,
                SHORT_ACCESS_FAILURE,
            ],
        ),
        footer: Footer::Text(
            "paper (50-AU rows): INTRO 1.40/1.93/1.11/4.99e-4, \
             REMAINING 2.61/1.55/1.11/5.90e-4, NONE 2.60/1.02/1.11/5.58e-4",
        ),
    },
    // See `Sweeps::ablations` for the cases.
    Figure {
        id: "ablations",
        banner: "Ablation study at",
        source: Source::Grid(
            Family::Ablations,
            &[
                SHORT_FRICTION,
                COST_RATIO,
                DELAY_RATIO,
                SHORT_ACCESS_FAILURE,
                ("poll success %", |p| {
                    let (ok, failed) = (p.attacked.successful_polls, p.attacked.failed_polls);
                    format!("{:.1}", 100.0 * ok as f64 / (ok + failed).max(1) as f64)
                }),
            ],
        ),
        footer: Footer::None,
    },
    Figure {
        id: "churn",
        banner: "Peer churn: integration of a cold-start joiner,",
        source: Source::Report(churn_report),
        footer: Footer::Text(
            "A joiner integrates through mutual friends, outer-circle votes, and\n\
             introductions; the flood slows discovery but cannot stop it (§5.1).",
        ),
    },
    Figure {
        id: "effort_report",
        banner: "Per-purpose loyal effort breakdown at",
        source: Source::Report(effort_report),
        footer: Footer::None,
    },
];

impl Figure {
    /// What the figure shows: the banner without its scale clause.
    pub fn title(&self) -> &'static str {
        self.banner.trim_end_matches(" at").trim_end_matches(',')
    }

    /// The line printed above the table.
    pub fn banner(&self, scale: Scale) -> String {
        format!("{} scale '{}'", self.banner, scale.label())
    }

    /// Renders the figure, measuring its sweep family unless `sweeps`
    /// already holds it.
    pub fn render(&self, sweeps: &Sweeps) -> Rendered {
        let (table, points) = match &self.source {
            Source::Report(build) => (build(sweeps.scale), &[][..]),
            Source::Grid(family, metrics) => {
                let points = sweeps.family(*family);
                let headers = family.key_headers().iter();
                let mut table = Table::new(
                    headers
                        .chain(metrics.iter().map(|(header, _)| header))
                        .copied()
                        .collect(),
                );
                for p in points {
                    let cells = metrics.iter().map(|(_, cell)| cell(p));
                    table.row(p.key.iter().cloned().chain(cells).collect());
                }
                (table, points)
            }
        };
        Rendered {
            table: table.render(),
            csv: table.to_csv(),
            footer: match self.footer {
                Footer::None => None,
                Footer::Text(text) => Some(text.to_string()),
                Footer::Fig2Anchor => {
                    points
                        .iter()
                        .find(|p| p.key == ["3", "5", "small"])
                        .map(|anchor| {
                            format!(
                                "anchor (3 months, 5 disk-years, small): {}   [paper: 4.8e-4]",
                                sci(anchor.attacked.access_failure_probability)
                            )
                        })
                }
            },
        }
    }
}

/// The figure ids and what each shows, one per line — the tail of
/// `lockss-sim figure --help` and of every figure-selection error.
pub fn catalog() -> String {
    FIGURES
        .iter()
        .fold("figure ids (or 'all'):".to_string(), |text, f| {
            format!("{text}\n  {:<14} {}", f.id, f.title())
        })
}

/// Resolves `lockss-sim figure` operands to figures, in the order given;
/// `all` stands for the whole table. No operand, or one that is not an
/// id, is an error listing the ids and what each shows.
pub fn select(ids: &[String]) -> Result<Vec<&'static Figure>, String> {
    if ids.is_empty() {
        return Err(format!("figure wants at least one id\n{}", catalog()));
    }
    let mut selected = Vec::new();
    for id in ids {
        match FIGURES.iter().find(|f| f.id == id) {
            Some(figure) => selected.push(figure),
            None if id == "all" => selected.extend(&FIGURES),
            None => return Err(format!("unknown figure '{id}'\n{}", catalog())),
        }
    }
    Ok(selected)
}

/// Dynamic membership (the paper's §9 future-work item): how quickly do
/// newly joining peers integrate, with and without an ongoing
/// admission-control flood?
///
/// New peers join a steady-state network at intervals; we track each
/// joiner's reference-list penetration (the fraction of the population
/// whose per-AU reference list contains it) over time. Under a sustained
/// flood, refractory periods block unknown peers, so integration leans
/// entirely on mutual friends and introductions — measurably slower.
fn churn_report(scale: Scale) -> Table {
    let penetration = |flood: bool| -> Vec<f64> {
        // The registered baseline world, shrunk and sped up (monthly polls)
        // so the one-year integration ramp has enough poll rounds to show.
        let mut cfg = ScenarioRegistry::standard()
            .build("baseline", scale)
            .expect("'baseline' is registered")
            .with_aus(scale.small_collection().min(8))
            .cfg;
        cfg.seed = 1;
        cfg.protocol.poll_interval = Duration::MONTH;
        let flood = flood.then(|| Box::new(AdmissionFlood::new(1.0, 10_000)) as _);
        let mut run = Run::start(cfg, flood, &RunOptions::default());

        // Reach steady state, then join one newcomer.
        run.advance_to(SimTime::ZERO + Duration::MONTH * 3);
        let joiner = run.join_loyal_peer();

        // Sample penetration monthly for a year.
        (1..=12u64)
            .map(|month| {
                run.advance_to(SimTime::ZERO + Duration::MONTH * (3 + month));
                let world = run.world();
                let pen: f64 = (0..world.cfg.n_aus)
                    .map(|au| world.reflist_penetration(joiner, AuId(au as u32)))
                    .sum();
                pen / world.cfg.n_aus as f64
            })
            .collect()
    };
    let mut table = Table::new(vec![
        "months since join",
        "reflist penetration (quiet)",
        "reflist penetration (under flood)",
    ]);
    for (month, (quiet, flooded)) in penetration(false).iter().zip(penetration(true)).enumerate() {
        table.row(vec![
            (month + 1).to_string(),
            format!("{:.1}%", quiet * 100.0),
            format!("{:.1}%", flooded * 100.0),
        ]);
    }
    table
}

/// Where the CPU goes: per-purpose effort breakdown of a baseline run and
/// the registry's representative scenario for each attack mechanism, side
/// by side.
///
/// The §6.1 friction metric aggregates all loyal effort; this report
/// splits it by purpose (the `lockss-effort` ledger categories) so the
/// *mechanism* of each attack is visible — e.g. the admission flood shows
/// up almost entirely in `Consider`/`VerifyIntro`, brute force in
/// `ComputeVote`.
fn effort_report(scale: Scale) -> Table {
    let registry = ScenarioRegistry::standard();
    let cases = [
        "baseline",
        "admission-flood",
        "brute-force-none",
        "pipe-stoppage",
    ];
    let ledgers = cases.map(|name| {
        let scenario = registry
            .build(name, scale)
            .unwrap_or_else(|| panic!("'{name}' is registered"))
            .with_aus(scale.small_collection().min(8)); // this report needs no statistics
        let world = run(&scenario, 1, &RunOptions::default()).world;
        let mut total = EffortLedger::new();
        for ledger in world.peers.ledgers() {
            total.merge(ledger);
        }
        total
    });

    let mut table = Table::new([&["purpose"][..], &cases[..]].concat());
    for purpose in ALL_PURPOSES {
        let secs = ledgers
            .iter()
            .map(|l| format!("{:.0}", l.secs_for(purpose)));
        table.row([format!("{purpose:?}")].into_iter().chain(secs).collect());
    }
    let totals = ledgers.iter().map(|l| format!("{:.0}", l.total_secs()));
    table.row(
        ["TOTAL (CPU-s)".to_string()]
            .into_iter()
            .chain(totals)
            .collect(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figures 3–5 are three columns of one sweep: rendering them from a
    /// shared `Sweeps` must equal rendering each from scratch.
    #[test]
    fn shared_sweeps_render_the_same_bytes_as_fresh_ones() {
        let ids = ["fig3", "fig4", "fig5"].map(String::from);
        let shared = Sweeps::new(Scale::Quick);
        for figure in select(&ids).unwrap() {
            let alone = figure.render(&Sweeps::new(Scale::Quick));
            assert_eq!(figure.render(&shared), alone, "{}", figure.id);
        }
    }

    #[test]
    fn every_figure_renders_at_quick_scale() {
        let sweeps = Sweeps::new(Scale::Quick);
        for figure in select(&["all".to_string()]).unwrap() {
            let r = figure.render(&sweeps);
            assert!(r.table.lines().count() > 2, "{}: {}", figure.id, r.table);
            assert_eq!(
                r.csv.lines().count() + 1,
                r.table.lines().count(),
                "{}: the text form adds only the header rule",
                figure.id
            );
            assert!(figure.banner(Scale::Quick).ends_with(" scale 'quick'"));
        }
        // The one data-dependent footer finds its point at every scale.
        let fig2 = FIGURES[0].render(&sweeps);
        assert!(fig2.footer.unwrap().starts_with("anchor (3 months"));
    }
}
