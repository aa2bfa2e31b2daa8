//! Declarative scenario files: the serialization layer behind the
//! registry.
//!
//! A [`ScenarioSpec`] is the data form of one registry entry: world
//! knobs, an [`AttackSpec`] tree (including phased composites), and the
//! catalog metadata, all round-tripping through the workspace's JSON
//! grammar ([`lockss_sim::json`]). Three guarantees make the files
//! first-class citizens:
//!
//! - **exact float round-trip** — floats are written in shortest-repr
//!   form and parsed back to the same bits, so
//!   `to_json(from_json(to_json(s))) == to_json(s)` byte-for-byte;
//! - **one check, with context** — syntax errors carry `line:column`
//!   (via [`json::line_col`]), field errors carry the dotted field path
//!   (`attack.members[1].attack.coverage`), unknown fields are rejected,
//!   and each value is range-checked where it is read, so a spec that
//!   decodes builds a valid world at every scale;
//! - **builder equivalence** — [`ScenarioSpec::build`] layers the world
//!   knobs over [`Scenario::attacked`] exactly as the pre-refactor
//!   builder closures did, so a spec-loaded scenario is structurally
//!   identical to its hand-coded ancestor (`tests/golden_scenarios.rs`
//!   pins every registry entry's built world by digest).
//!
//! The checked-in corpus lives in `scenarios/*.json`; the CLI loads
//! further files at runtime (`lockss-sim run --file`, `validate`), and
//! the campaign fuzzer ([`crate::fuzz`]) generates random specs from
//! this grammar.

use lockss_adversary::Defection;
use lockss_core::WorldConfig;
use lockss_sim::json::{
    self,
    Layout::{Inline, Lines},
    Value, Writer,
};
use lockss_sim::Duration;

use crate::scale::Scale;
use crate::scenario::{phased, AttackSpec, Scenario, MAX_RUN_DAYS};

use std::fmt;

/// The format tag every scenario file must carry.
pub const FORMAT: &str = "lockss-scenario-v1";

/// A schema error: what went wrong, where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path of the offending field (empty for document-level
    /// errors), e.g. `attack.members[1].coverage`.
    pub path: String,
    /// What went wrong.
    pub message: String,
    /// `1`-based `(line, column)` for syntax errors.
    pub location: Option<(usize, usize)>,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.location, self.path.is_empty()) {
            (Some((line, col)), _) => write!(f, "line {line}:{col}: {}", self.message),
            (None, false) => write!(f, "field '{}': {}", self.path, self.message),
            (None, true) => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for SpecError {}

fn field_err(path: &str, message: impl Into<String>) -> SpecError {
    SpecError {
        path: path.to_string(),
        message: message.into(),
        location: None,
    }
}

/// Loyal-population size: follow the experiment scale, or pin a count
/// (the production-scale worlds pin 10,000+).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeersSpec {
    /// `Scale::n_peers()` (40 quick / 100 default and paper).
    Scale,
    /// A fixed population.
    Fixed(usize),
}

/// Collection size: the scale's small or large collection, or a fixed
/// AU count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AusSpec {
    /// `Scale::small_collection()`.
    Small,
    /// `Scale::large_collection()`.
    Large,
    /// A fixed AU count.
    Fixed(usize),
}

/// Run length: the scale's default horizon, one fixed length, or one
/// length per scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunSpec {
    /// `Scale::run_length()`.
    Scale,
    /// A fixed number of simulated days at every scale.
    Days(u64),
    /// A per-scale horizon (the scale-layer worlds run shorter smoke
    /// horizons at `quick`).
    PerScale {
        /// Days at `Scale::Quick`.
        quick: u64,
        /// Days at `Scale::Default`.
        default: u64,
        /// Days at `Scale::Paper`.
        paper: u64,
    },
}

/// The world half of a scenario file: every knob the registry's builder
/// closures used to set in code.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldSpec {
    /// Loyal population.
    pub peers: PeersSpec,
    /// Collection size.
    pub aus: AusSpec,
    /// Storage MTBF in years.
    pub mtbf_years: f64,
    /// Optional skewed access-link mix (low → high bandwidth weights).
    pub link_mix: Option<[f64; 3]>,
    /// Optional inter-poll interval override, in months.
    pub poll_months: Option<u64>,
    /// Run length.
    pub run: RunSpec,
}

impl Default for WorldSpec {
    fn default() -> WorldSpec {
        WorldSpec {
            peers: PeersSpec::Scale,
            aus: AusSpec::Small,
            mtbf_years: 5.0,
            link_mix: None,
            poll_months: None,
            run: RunSpec::Scale,
        }
    }
}

/// One declarative scenario: catalog metadata, world, attack.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Unique, CLI-addressable name (kebab-case).
    pub name: String,
    /// One-line description of the world and what it demonstrates.
    pub description: String,
    /// The paper figure/table/section the scenario reproduces or extends.
    pub paper_ref: String,
    /// World knobs.
    pub world: WorldSpec,
    /// The attack campaign.
    pub attack: AttackSpec,
}

// ---------------------------------------------------------------------
// Encoding: canonical, pretty-printed, shortest-repr floats.
// ---------------------------------------------------------------------

/// Writes one attack: an inline object, except that a `compose` lays its
/// members out one per line.
fn push_attack(w: &mut Writer, attack: &AttackSpec) {
    fn kind<'w>(w: &'w mut Writer, kind: &str) -> &'w mut Writer {
        w.object(Inline).field("kind", kind)
    }
    match attack {
        AttackSpec::None => kind(w, "none"),
        AttackSpec::PipeStoppage { coverage, days } => kind(w, "pipe-stoppage")
            .field("coverage", coverage)
            .field("days", days),
        AttackSpec::AdmissionFlood { coverage, days } => kind(w, "admission-flood")
            .field("coverage", coverage)
            .field("days", days),
        AttackSpec::BruteForce { defection } => {
            kind(w, "brute-force").field("defection", defection.label())
        }
        AttackSpec::VoteFlood {
            votes_per_wave,
            wave_hours,
        } => kind(w, "vote-flood")
            .field("votes_per_wave", votes_per_wave)
            .field("wave_hours", wave_hours),
        AttackSpec::ChurnStorm { coverage, duty } => kind(w, "churn-storm")
            .field("coverage", coverage)
            .field("duty", duty),
        AttackSpec::SybilRamp { step, step_days } => kind(w, "sybil-ramp")
            .field("step", step)
            .field("step_days", step_days),
        AttackSpec::MobileTakeover {
            budget,
            period_days: None,
        } => kind(w, "mobile-takeover")
            .field("budget", budget)
            .field("cadence", "synced"),
        AttackSpec::MobileTakeover {
            budget,
            period_days: Some(days),
        } => kind(w, "mobile-takeover")
            .field("budget", budget)
            .field("cadence", "fixed")
            .field("period_days", days),
        AttackSpec::Compose(members) => {
            w.object(Lines)
                .field("kind", "compose")
                .key("members")
                .array(Lines);
            for m in members {
                w.object(Inline)
                    .field("start_days", m.start_days)
                    .key("attack");
                push_attack(w, &m.attack);
                w.end();
            }
            w.end()
        }
    }
    .end();
}

impl ScenarioSpec {
    /// The canonical file encoding: stable field order, two-space
    /// indent, shortest-repr floats, trailing newline. Every checked-in
    /// `scenarios/*.json` file is exactly this function's output.
    pub fn to_json(&self) -> String {
        let (mut w, world) = (Writer::new(), &self.world);
        w.object(Lines)
            .field("format", FORMAT)
            .field("name", &self.name)
            .field("description", &self.description)
            .field("paper_ref", &self.paper_ref)
            .key("world")
            .object(Lines);
        match world.peers {
            PeersSpec::Scale => w.field("peers", "scale"),
            PeersSpec::Fixed(n) => w.field("peers", n),
        };
        match world.aus {
            AusSpec::Small => w.field("aus", "small"),
            AusSpec::Large => w.field("aus", "large"),
            AusSpec::Fixed(n) => w.field("aus", n),
        };
        w.field("mtbf_years", world.mtbf_years)
            .field_opt("link_mix", world.link_mix, |mix, w| {
                w.list(mix);
            })
            .field("poll_months", world.poll_months);
        match world.run {
            RunSpec::Scale => w.field("run_days", "scale"),
            RunSpec::Days(d) => w.field("run_days", d),
            RunSpec::PerScale {
                quick,
                default,
                paper,
            } => w
                .key("run_days")
                .object(Inline)
                .field("quick", quick)
                .field("default", default)
                .field("paper", paper)
                .end(),
        };
        w.end().key("attack");
        push_attack(&mut w, &self.attack);
        w.end().finish() + "\n"
    }

    /// Parses and checks one scenario file, so a spec it returns builds a
    /// valid world at every scale. Unknown fields, wrong types, missing
    /// fields, unknown attack kinds and out-of-range values are all
    /// rejected with the offending field path; syntax errors carry their
    /// `line:column`.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, SpecError> {
        let doc = json::parse(text).map_err(|e| SpecError {
            path: String::new(),
            message: e.message,
            location: Some(json::line_col(text, e.at)),
        })?;
        let root = expect_object(&doc, "")?;
        reject_unknown(
            root,
            &[
                "format",
                "name",
                "description",
                "paper_ref",
                "world",
                "attack",
            ],
            "",
        )?;
        let format = str_field(root, "format", "format")?;
        if format != FORMAT {
            return Err(field_err(
                "format",
                format!("unsupported format '{format}' (this build reads '{FORMAT}')"),
            ));
        }
        let name = str_field(root, "name", "name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            return Err(field_err("name", format!("'{name}' is not kebab-case")));
        }
        let spec = ScenarioSpec {
            name: name.to_string(),
            description: str_field(root, "description", "description")?.to_string(),
            paper_ref: str_field(root, "paper_ref", "paper_ref")?.to_string(),
            world: decode_world(require(root, "world", "world")?)?,
            attack: decode_attack(require(root, "attack", "attack")?, "attack", 0)?,
        };
        for scale in [Scale::Quick, Scale::Default, Scale::Paper] {
            let s = spec.build(scale);
            let at = scale.label();
            let (peers, aus) = (s.cfg.n_peers, s.cfg.n_aus);
            if peers > WorldConfig::MAX_PEERS {
                return Err(field_err(
                    "world.peers",
                    format!(
                        "{peers} is above {}, the most a world holds",
                        WorldConfig::MAX_PEERS
                    ),
                ));
            }
            if peers.saturating_mul(aus) > WorldConfig::MAX_CELLS {
                return Err(field_err(
                    "world.aus",
                    format!(
                        "{peers} peers × {aus} AUs at {at} scale is above the budget of {} cells",
                        WorldConfig::MAX_CELLS
                    ),
                ));
            }
            s.cfg
                .validate()
                .map_err(|e| field_err("world", format!("invalid at {at} scale: {e}")))?;
            if s.run_length.is_zero() {
                return Err(field_err(
                    "world.run_days",
                    format!("run length is zero at {at} scale"),
                ));
            }
        }
        Ok(spec)
    }

    /// Builds the runnable scenario at `scale`, layering the world knobs
    /// over [`Scenario::attacked`] exactly as the pre-refactor builder
    /// closures did.
    pub fn build(&self, scale: Scale) -> Scenario {
        let n_aus = match self.world.aus {
            AusSpec::Small => scale.small_collection(),
            AusSpec::Large => scale.large_collection(),
            AusSpec::Fixed(n) => n,
        };
        let mut s = Scenario::attacked(scale, n_aus, self.attack.clone());
        if let PeersSpec::Fixed(n) = self.world.peers {
            s.cfg.n_peers = n;
        }
        s.cfg.mtbf_years = self.world.mtbf_years;
        s.cfg.link_mix = self.world.link_mix;
        if let Some(months) = self.world.poll_months {
            s.cfg.protocol.poll_interval = Duration::MONTH * months;
        }
        match self.world.run {
            RunSpec::Scale => {}
            RunSpec::Days(d) => s.run_length = Duration::from_days(d),
            RunSpec::PerScale {
                quick,
                default,
                paper,
            } => {
                s.run_length = Duration::from_days(match scale {
                    Scale::Quick => quick,
                    Scale::Default => default,
                    Scale::Paper => paper,
                });
            }
        }
        s
    }
}

// ---------------------------------------------------------------------
// Decoding helpers: dotted field paths, unknown-field rejection.
// ---------------------------------------------------------------------

fn expect_object<'v>(v: &'v Value, path: &str) -> Result<&'v [(String, Value)], SpecError> {
    match v {
        Value::Obj(fields) => Ok(fields),
        other => Err(field_err(
            path,
            format!("expected object, got {}", other.type_name()),
        )),
    }
}

fn reject_unknown(
    fields: &[(String, Value)],
    allowed: &[&str],
    path: &str,
) -> Result<(), SpecError> {
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            let at = if path.is_empty() {
                key.clone()
            } else {
                format!("{path}.{key}")
            };
            return Err(field_err(
                &at,
                format!("unknown field (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn require<'v>(
    fields: &'v [(String, Value)],
    key: &str,
    path: &str,
) -> Result<&'v Value, SpecError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| field_err(path, format!("missing field '{key}'")))
}

fn str_field<'v>(
    fields: &'v [(String, Value)],
    key: &str,
    path: &str,
) -> Result<&'v str, SpecError> {
    require(fields, key, path)?
        .as_str(key)
        .map_err(|m| field_err(path, m))
}

fn f64_field(fields: &[(String, Value)], key: &str, path: &str) -> Result<f64, SpecError> {
    let x = require(fields, key, path)?
        .as_f64(key)
        .map_err(|m| field_err(path, m))?;
    if !x.is_finite() {
        return Err(field_err(path, "must be finite"));
    }
    Ok(x)
}

/// A `f64_field` that is a fraction, in [0,1].
fn unit_field(fields: &[(String, Value)], key: &str, path: &str) -> Result<f64, SpecError> {
    let x = f64_field(fields, key, path)?;
    if !(0.0..=1.0).contains(&x) {
        return Err(field_err(path, "must be in [0,1]"));
    }
    Ok(x)
}

fn u64_field(fields: &[(String, Value)], key: &str, path: &str) -> Result<u64, SpecError> {
    require(fields, key, path)?
        .as_u64(key)
        .map_err(|m| field_err(path, m))
}

/// A `u64_field` refused at zero.
fn positive_field(fields: &[(String, Value)], key: &str, path: &str) -> Result<u64, SpecError> {
    match u64_field(fields, key, path)? {
        0 => Err(field_err(path, "must be positive")),
        n => Ok(n),
    }
}

/// A positive count that fits in `u32`.
fn count_field(fields: &[(String, Value)], key: &str, path: &str) -> Result<u32, SpecError> {
    u32::try_from(positive_field(fields, key, path)?)
        .map_err(|_| field_err(path, "does not fit in u32"))
}

/// `n` as a count of `unit`s, refused when its milliseconds do not fit in
/// simulated time ([`Duration::max_count`]).
fn span(n: u64, unit: Duration, path: &str) -> Result<u64, SpecError> {
    let max = Duration::max_count(unit);
    if n > max {
        return Err(field_err(
            path,
            format!("{n} × {unit} overflows simulated time (at most {max})"),
        ));
    }
    Ok(n)
}

/// `n` as a run length in days, refused past [`MAX_RUN_DAYS`].
fn run_days(n: u64, path: &str) -> Result<u64, SpecError> {
    if n > MAX_RUN_DAYS {
        return Err(field_err(
            path,
            format!(
                "{n} days runs past the last instant a known-peers entry can stamp \
                 (at most {MAX_RUN_DAYS} days)"
            ),
        ));
    }
    Ok(n)
}

/// A `positive_field` counted in `unit`s, bounded by [`span`].
fn span_field(
    fields: &[(String, Value)],
    key: &str,
    path: &str,
    unit: Duration,
) -> Result<u64, SpecError> {
    span(positive_field(fields, key, path)?, unit, path)
}

fn decode_world(v: &Value) -> Result<WorldSpec, SpecError> {
    let fields = expect_object(v, "world")?;
    reject_unknown(
        fields,
        &[
            "peers",
            "aus",
            "mtbf_years",
            "link_mix",
            "poll_months",
            "run_days",
        ],
        "world",
    )?;
    let peers = match require(fields, "peers", "world")? {
        Value::Str(s) if s == "scale" => PeersSpec::Scale,
        Value::Str(s) => {
            return Err(field_err(
                "world.peers",
                format!("expected \"scale\" or a count, got \"{s}\""),
            ))
        }
        n => PeersSpec::Fixed(n.as_u64("peers").map_err(|m| field_err("world.peers", m))? as usize),
    };
    let aus = match require(fields, "aus", "world")? {
        Value::Str(s) if s == "small" => AusSpec::Small,
        Value::Str(s) if s == "large" => AusSpec::Large,
        Value::Str(s) => {
            return Err(field_err(
                "world.aus",
                format!("expected \"small\", \"large\", or a count, got \"{s}\""),
            ))
        }
        n => AusSpec::Fixed(n.as_u64("aus").map_err(|m| field_err("world.aus", m))? as usize),
    };
    let mtbf_years = f64_field(fields, "mtbf_years", "world.mtbf_years")?;
    if mtbf_years <= 0.0 {
        return Err(field_err("world.mtbf_years", "must be positive"));
    }
    let link_mix = match json::get_opt(fields, "link_mix") {
        None => {
            require(fields, "link_mix", "world")?; // absent vs explicit null
            None
        }
        Some(v) => {
            let items = v
                .as_array("link_mix")
                .map_err(|m| field_err("world.link_mix", m))?;
            if items.len() != 3 {
                return Err(field_err(
                    "world.link_mix",
                    format!("expected exactly 3 weights, got {}", items.len()),
                ));
            }
            let mut mix = [0.0; 3];
            for (i, item) in items.iter().enumerate() {
                mix[i] = item
                    .as_f64("weight")
                    .map_err(|m| field_err(&format!("world.link_mix[{i}]"), m))?;
            }
            Some(mix)
        }
    };
    let poll_months = match json::get_opt(fields, "poll_months") {
        None => {
            require(fields, "poll_months", "world")?;
            None
        }
        Some(_) => Some(span_field(
            fields,
            "poll_months",
            "world.poll_months",
            Duration::MONTH,
        )?),
    };
    let run = match require(fields, "run_days", "world")? {
        Value::Str(s) if s == "scale" => RunSpec::Scale,
        Value::Str(s) => {
            return Err(field_err(
                "world.run_days",
                format!("expected \"scale\", a day count, or a per-scale object, got \"{s}\""),
            ))
        }
        Value::Obj(per) => {
            reject_unknown(per, &["quick", "default", "paper"], "world.run_days")?;
            let days = |scale: &str| {
                let path = format!("world.run_days.{scale}");
                run_days(u64_field(per, scale, &path)?, &path)
            };
            RunSpec::PerScale {
                quick: days("quick")?,
                default: days("default")?,
                paper: days("paper")?,
            }
        }
        n => RunSpec::Days(run_days(
            n.as_u64("run_days")
                .map_err(|m| field_err("world.run_days", m))?,
            "world.run_days",
        )?),
    };
    Ok(WorldSpec {
        peers,
        aus,
        mtbf_years,
        link_mix,
        poll_months,
        run,
    })
}

/// Decodes the attack at `path`, which a composite ancestor starts
/// `start_days` into the run.
fn decode_attack(v: &Value, path: &str, start_days: u64) -> Result<AttackSpec, SpecError> {
    let fields = expect_object(v, path)?;
    let kind = str_field(fields, "kind", path)?;
    let only = |allowed: &[&str]| reject_unknown(fields, allowed, path);
    let sub = |key: &str| format!("{path}.{key}");
    match kind {
        "none" => {
            only(&["kind"])?;
            Ok(AttackSpec::None)
        }
        "pipe-stoppage" => {
            only(&["kind", "coverage", "days"])?;
            Ok(AttackSpec::PipeStoppage {
                coverage: unit_field(fields, "coverage", &sub("coverage"))?,
                days: span_field(fields, "days", &sub("days"), Duration::DAY)?,
            })
        }
        "admission-flood" => {
            only(&["kind", "coverage", "days"])?;
            Ok(AttackSpec::AdmissionFlood {
                coverage: unit_field(fields, "coverage", &sub("coverage"))?,
                days: span_field(fields, "days", &sub("days"), Duration::DAY)?,
            })
        }
        "brute-force" => {
            only(&["kind", "defection"])?;
            let defection = match str_field(fields, "defection", &sub("defection"))? {
                "INTRO" => Defection::Intro,
                "REMAINING" => Defection::Remaining,
                "NONE" => Defection::None_,
                other => {
                    return Err(field_err(
                        &sub("defection"),
                        format!("unknown defection point '{other}' (INTRO, REMAINING, NONE)"),
                    ))
                }
            };
            Ok(AttackSpec::BruteForce { defection })
        }
        "vote-flood" => {
            only(&["kind", "votes_per_wave", "wave_hours"])?;
            Ok(AttackSpec::VoteFlood {
                votes_per_wave: count_field(fields, "votes_per_wave", &sub("votes_per_wave"))?,
                wave_hours: span_field(fields, "wave_hours", &sub("wave_hours"), Duration::HOUR)?,
            })
        }
        "churn-storm" => {
            only(&["kind", "coverage", "duty"])?;
            Ok(AttackSpec::ChurnStorm {
                coverage: unit_field(fields, "coverage", &sub("coverage"))?,
                duty: unit_field(fields, "duty", &sub("duty"))?,
            })
        }
        "sybil-ramp" => {
            only(&["kind", "step", "step_days"])?;
            Ok(AttackSpec::SybilRamp {
                step: unit_field(fields, "step", &sub("step"))?,
                step_days: span_field(fields, "step_days", &sub("step_days"), Duration::DAY)?,
            })
        }
        "mobile-takeover" => {
            only(&["kind", "budget", "cadence", "period_days"])?;
            let budget = count_field(fields, "budget", &sub("budget"))?;
            let cadence = str_field(fields, "cadence", &sub("cadence"))?;
            let period_days = match cadence {
                "synced" => {
                    if fields.iter().any(|(k, _)| k == "period_days") {
                        return Err(field_err(
                            &sub("period_days"),
                            "dangling migration cadence: \"synced\" takes no period_days",
                        ));
                    }
                    None
                }
                "fixed" => Some(span_field(
                    fields,
                    "period_days",
                    &sub("period_days"),
                    Duration::DAY,
                )?),
                other => {
                    return Err(field_err(
                        &sub("cadence"),
                        format!("unknown migration cadence '{other}' (synced, fixed)"),
                    ))
                }
            };
            Ok(AttackSpec::MobileTakeover {
                budget,
                period_days,
            })
        }
        "compose" => {
            only(&["kind", "members"])?;
            let members_path = sub("members");
            let items = require(fields, "members", path)?
                .as_array("members")
                .map_err(|m| field_err(&members_path, m))?;
            let mut members = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let member_path = format!("{members_path}[{i}]");
                let member = expect_object(item, &member_path)?;
                reject_unknown(member, &["start_days", "attack"], &member_path)?;
                let start = u64_field(member, "start_days", &member_path)?;
                // Offsets add up along the compose path; their sum must fit.
                let at = format!("{member_path}.start_days");
                span(start_days.saturating_add(start), Duration::DAY, &at)?;
                let attack = decode_attack(
                    require(member, "attack", &member_path)?,
                    &format!("{member_path}.attack"),
                    start_days + start,
                )?;
                members.push(phased(start, attack));
            }
            Ok(AttackSpec::Compose(members))
        }
        other => Err(field_err(
            &sub("kind"),
            format!(
                "unknown attack kind '{other}' (none, pipe-stoppage, admission-flood, \
                 brute-force, vote-flood, churn-storm, sybil-ramp, mobile-takeover, compose)"
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            name: "stoppage-then-flood".into(),
            description: "composite demo".into(),
            paper_ref: "§7.2 + §7.3".into(),
            world: WorldSpec::default(),
            attack: AttackSpec::Compose(vec![
                phased(
                    0,
                    AttackSpec::PipeStoppage {
                        coverage: 1.0,
                        days: 60,
                    },
                ),
                phased(
                    90,
                    AttackSpec::AdmissionFlood {
                        coverage: 0.30000000000000004,
                        days: 360,
                    },
                ),
            ]),
        }
    }

    #[test]
    fn encode_decode_encode_is_identity() {
        let spec = sample();
        let once = spec.to_json();
        let decoded = ScenarioSpec::from_json(&once).expect("decode");
        assert_eq!(decoded, spec);
        assert_eq!(decoded.to_json(), once, "byte identity");
    }

    #[test]
    fn every_attack_kind_round_trips() {
        let attacks = [
            AttackSpec::None,
            AttackSpec::PipeStoppage {
                coverage: 0.4,
                days: 30,
            },
            AttackSpec::AdmissionFlood {
                coverage: 1.0,
                days: 720,
            },
            AttackSpec::BruteForce {
                defection: Defection::Intro,
            },
            AttackSpec::BruteForce {
                defection: Defection::Remaining,
            },
            AttackSpec::BruteForce {
                defection: Defection::None_,
            },
            AttackSpec::VoteFlood {
                votes_per_wave: 4,
                wave_hours: 6,
            },
            AttackSpec::ChurnStorm {
                coverage: 0.5,
                duty: 0.7,
            },
            AttackSpec::SybilRamp {
                step: 0.25,
                step_days: 45,
            },
            AttackSpec::MobileTakeover {
                budget: 5,
                period_days: None,
            },
            AttackSpec::MobileTakeover {
                budget: 2,
                period_days: Some(45),
            },
            AttackSpec::Compose(vec![phased(
                10,
                AttackSpec::Compose(vec![phased(
                    5,
                    AttackSpec::VoteFlood {
                        votes_per_wave: 1,
                        wave_hours: 12,
                    },
                )]),
            )]),
        ];
        for attack in attacks {
            let spec = ScenarioSpec {
                attack: attack.clone(),
                ..sample()
            };
            let round = ScenarioSpec::from_json(&spec.to_json()).expect("decode");
            assert_eq!(round.attack, attack);
        }
    }

    #[test]
    fn world_variants_round_trip() {
        let worlds = [
            WorldSpec::default(),
            WorldSpec {
                peers: PeersSpec::Fixed(10_000),
                aus: AusSpec::Fixed(1),
                link_mix: Some([0.6, 0.3, 0.1]),
                run: RunSpec::PerScale {
                    quick: 200,
                    default: 540,
                    paper: 540,
                },
                ..WorldSpec::default()
            },
            WorldSpec {
                aus: AusSpec::Large,
                mtbf_years: 1.25,
                poll_months: Some(6),
                run: RunSpec::Days(180),
                ..WorldSpec::default()
            },
        ];
        for world in worlds {
            let spec = ScenarioSpec {
                world: world.clone(),
                ..sample()
            };
            let round = ScenarioSpec::from_json(&spec.to_json()).expect("decode");
            assert_eq!(round.world, world);
        }
    }

    #[test]
    fn build_matches_hand_built_baseline() {
        let spec = ScenarioSpec {
            name: "baseline".into(),
            description: "d".into(),
            paper_ref: "p".into(),
            world: WorldSpec::default(),
            attack: AttackSpec::None,
        };
        for scale in [Scale::Quick, Scale::Default, Scale::Paper] {
            let built = spec.build(scale);
            let legacy = Scenario::baseline(scale, scale.small_collection());
            assert_eq!(built, legacy, "at {scale:?}");
        }
    }

    #[test]
    fn syntax_errors_carry_line_and_column() {
        let err = ScenarioSpec::from_json("{\n  \"format\": !\n}").unwrap_err();
        let (line, _col) = err.location.expect("location");
        assert_eq!(line, 2);
        assert!(err.to_string().starts_with("line 2:"), "{err}");
    }

    #[test]
    fn unknown_fields_are_rejected_with_paths() {
        let mut spec = sample();
        spec.attack = AttackSpec::None;
        let doc = spec.to_json().replace(
            "\"mtbf_years\": 5,",
            "\"mtbf_years\": 5,\n    \"mtbf_yaers\": 5,",
        );
        let err = ScenarioSpec::from_json(&doc).unwrap_err();
        assert_eq!(err.path, "world.mtbf_yaers");
        assert!(err.to_string().contains("unknown field"), "{err}");
    }

    #[test]
    fn wrong_types_and_missing_fields_name_the_field() {
        let base = ScenarioSpec {
            attack: AttackSpec::None,
            ..sample()
        };
        let doc = base
            .to_json()
            .replace("\"mtbf_years\": 5", "\"mtbf_years\": \"five\"");
        let err = ScenarioSpec::from_json(&doc).unwrap_err();
        assert_eq!(err.path, "world.mtbf_years");
        assert!(err.message.contains("expected number"), "{err}");

        let doc = base.to_json().replace("    \"peers\": \"scale\",\n", "");
        let err = ScenarioSpec::from_json(&doc).unwrap_err();
        assert!(err.message.contains("missing field 'peers'"), "{err}");

        // A count whose milliseconds overflow simulated time used to wrap
        // into a horizon of a fraction of a day; one past the bound is
        // refused at its path.
        let doc = base.to_json().replace(
            "\"poll_months\": null",
            &format!(
                "\"poll_months\": {}",
                Duration::max_count(Duration::MONTH) + 1
            ),
        );
        let err = ScenarioSpec::from_json(&doc).unwrap_err();
        assert_eq!(err.path, "world.poll_months", "{err}");
        assert!(err.message.contains("overflows simulated time"), "{err}");
    }

    /// A run may last until the last instant a known-peers entry can
    /// stamp, and not a day longer: past it, a packed stamp would spill
    /// into nothing and corrupt every standing. The refusal names the
    /// limit at the field's path, per scale too.
    #[test]
    fn run_days_past_the_last_stamp_are_refused() {
        let base = ScenarioSpec {
            attack: AttackSpec::None,
            ..sample()
        };
        let run_days = |n: String| base.to_json().replace("\"run_days\": \"scale\"", &n);
        let limit = format!("at most {MAX_RUN_DAYS} days");
        for (doc, path) in [
            (
                run_days(format!("\"run_days\": {}", MAX_RUN_DAYS + 1)),
                "world.run_days",
            ),
            (
                run_days(format!(
                    "\"run_days\": {}",
                    Duration::max_count(Duration::DAY)
                )),
                "world.run_days",
            ),
            (
                run_days(format!(
                    "\"run_days\": {{\"quick\": 1, \"default\": 1, \"paper\": {}}}",
                    MAX_RUN_DAYS + 1
                )),
                "world.run_days.paper",
            ),
        ] {
            let err = ScenarioSpec::from_json(&doc).unwrap_err();
            assert_eq!(err.path, path, "{err}");
            assert!(err.message.contains(&limit), "{err}");
        }
        let at_bound = run_days(format!("\"run_days\": {MAX_RUN_DAYS}"));
        let spec = ScenarioSpec::from_json(&at_bound).expect("the last stamp itself fits");
        assert_eq!(spec.world.run, RunSpec::Days(MAX_RUN_DAYS));
        let per_scale = run_days(format!(
            "\"run_days\": {{\"quick\": 1, \"default\": 1, \"paper\": {MAX_RUN_DAYS}}}"
        ));
        ScenarioSpec::from_json(&per_scale).expect("per scale too");
    }

    /// Every day, hour and start offset of an attack is bounded the same
    /// way, start offsets by their sum along the compose path.
    #[test]
    fn attack_spans_that_overflow_simulated_time_name_the_field() {
        let day = Duration::max_count(Duration::DAY);
        let hour = Duration::max_count(Duration::HOUR);
        let flood = "{\"kind\": \"admission-flood\", \"coverage\": 0.5, \"days\": 30}";
        for (attack, path) in [
            (
                format!("{{\"kind\": \"pipe-stoppage\", \"coverage\": 1, \"days\": {}}}", day + 1),
                "attack.days",
            ),
            (
                format!("{{\"kind\": \"vote-flood\", \"votes_per_wave\": 3, \"wave_hours\": {}}}", hour + 1),
                "attack.wave_hours",
            ),
            (
                format!("{{\"kind\": \"sybil-ramp\", \"step\": 0.1, \"step_days\": {}}}", day + 1),
                "attack.step_days",
            ),
            (
                format!(
                    "{{\"kind\": \"mobile-takeover\", \"budget\": 3, \"cadence\": \"fixed\", \
                     \"period_days\": {}}}",
                    day + 1
                ),
                "attack.period_days",
            ),
            (
                format!(
                    "{{\"kind\": \"compose\", \"members\": [{{\"start_days\": {}, \"attack\": {flood}}}]}}",
                    day + 1
                ),
                "attack.members[0].start_days",
            ),
            // Each offset fits; their sum does not.
            (
                format!(
                    "{{\"kind\": \"compose\", \"members\": [{{\"start_days\": {day}, \"attack\": \
                     {{\"kind\": \"compose\", \"members\": [{{\"start_days\": 1, \"attack\": {flood}}}]}}}}]}}"
                ),
                "attack.members[0].attack.members[0].start_days",
            ),
        ] {
            let err = mobile(&attack).unwrap_err();
            assert_eq!(err.path, path, "{err}");
            assert!(err.message.contains("overflows simulated time"), "{err}");
        }
    }

    #[test]
    fn dangling_compose_member_is_rejected() {
        let doc = sample().to_json().replace(
            "{\"start_days\": 90, \"attack\": {\"kind\": \"admission-flood\", \
             \"coverage\": 0.30000000000000004, \"days\": 360}}",
            "{\"start_days\": 90}",
        );
        let err = ScenarioSpec::from_json(&doc).unwrap_err();
        assert_eq!(err.path, "attack.members[1]");
        assert!(err.message.contains("missing field 'attack'"), "{err}");
    }

    #[test]
    fn unknown_attack_kind_lists_the_grammar() {
        let doc = sample().to_json().replace(
            "\"kind\": \"admission-flood\"",
            "\"kind\": \"admission-floood\"",
        );
        let err = ScenarioSpec::from_json(&doc).unwrap_err();
        assert_eq!(err.path, "attack.members[1].attack.kind");
        assert!(err.message.contains("unknown attack kind"), "{err}");
    }

    /// A default-world file whose attack is `attack_json`.
    fn mobile_doc(attack_json: &str) -> String {
        let spec = ScenarioSpec {
            name: "mobile-x".into(),
            description: "d".into(),
            paper_ref: "p".into(),
            world: WorldSpec::default(),
            attack: AttackSpec::None,
        };
        spec.to_json().replace("{\"kind\": \"none\"}", attack_json)
    }

    fn mobile(attack_json: &str) -> Result<ScenarioSpec, SpecError> {
        ScenarioSpec::from_json(&mobile_doc(attack_json))
    }

    #[test]
    fn mobile_takeover_rejects_unknown_budget_field() {
        let err = mobile(
            "{\"kind\": \"mobile-takeover\", \"budget\": 3, \"cadence\": \"synced\", \
             \"budgett\": 4}",
        )
        .unwrap_err();
        assert_eq!(err.path, "attack.budgett");
        assert!(err.message.contains("unknown field"), "{err}");
    }

    #[test]
    fn mobile_takeover_rejects_dangling_cadence() {
        // "synced" with a period: the period dangles.
        let err = mobile(
            "{\"kind\": \"mobile-takeover\", \"budget\": 3, \"cadence\": \"synced\", \
             \"period_days\": 45}",
        )
        .unwrap_err();
        assert_eq!(err.path, "attack.period_days");
        assert!(err.message.contains("dangling"), "{err}");
        // "fixed" without a period: the cadence dangles.
        let err = mobile("{\"kind\": \"mobile-takeover\", \"budget\": 3, \"cadence\": \"fixed\"}")
            .unwrap_err();
        assert!(err.message.contains("missing field 'period_days'"), "{err}");
        // Neither cadence word parses.
        let err = mobile("{\"kind\": \"mobile-takeover\", \"budget\": 3, \"cadence\": \"weekly\"}")
            .unwrap_err();
        assert_eq!(err.path, "attack.cadence");
        assert!(err.message.contains("unknown migration cadence"), "{err}");
    }

    /// Counts and spans are refused at zero, each at its own path; a
    /// compose member may still start on day 0.
    #[test]
    fn zero_counts_and_spans_name_the_field() {
        for (attack, path) in [
            (
                "{\"kind\": \"mobile-takeover\", \"budget\": 0, \"cadence\": \"synced\"}",
                "attack.budget",
            ),
            (
                "{\"kind\": \"mobile-takeover\", \"budget\": 3, \"cadence\": \"fixed\", \
                 \"period_days\": 0}",
                "attack.period_days",
            ),
            (
                "{\"kind\": \"vote-flood\", \"votes_per_wave\": 0, \"wave_hours\": 6}",
                "attack.votes_per_wave",
            ),
            (
                "{\"kind\": \"vote-flood\", \"votes_per_wave\": 3, \"wave_hours\": 0}",
                "attack.wave_hours",
            ),
            (
                "{\"kind\": \"sybil-ramp\", \"step\": 0.1, \"step_days\": 0}",
                "attack.step_days",
            ),
            (
                "{\"kind\": \"compose\", \"members\": [{\"start_days\": 0, \"attack\": \
                 {\"kind\": \"pipe-stoppage\", \"coverage\": 1, \"days\": 0}}]}",
                "attack.members[0].attack.days",
            ),
        ] {
            let err = mobile(attack).unwrap_err();
            assert_eq!(err.path, path, "{err}");
            assert_eq!(err.message, "must be positive", "{err}");
        }
        mobile(
            "{\"kind\": \"compose\", \"members\": [{\"start_days\": 0, \"attack\": \
             {\"kind\": \"admission-flood\", \"coverage\": 0, \"days\": 1}}]}",
        )
        .expect("day 0 and zero coverage are in range");
        let doc = mobile_doc("{\"kind\": \"none\"}")
            .replace("\"poll_months\": null", "\"poll_months\": 0");
        let err = ScenarioSpec::from_json(&doc).unwrap_err();
        assert_eq!(err.path, "world.poll_months", "{err}");
        assert_eq!(err.message, "must be positive", "{err}");
    }

    #[test]
    fn format_tag_is_enforced() {
        let doc = sample().to_json().replace(FORMAT, "lockss-scenario-v0");
        let err = ScenarioSpec::from_json(&doc).unwrap_err();
        assert_eq!(err.path, "format");
    }

    /// Decoding is the one check: a value out of its range, a name that is
    /// no CLI address and a world that cannot run are each refused at
    /// their path, with the reason.
    #[test]
    fn out_of_range_values_name_the_field() {
        let doc = sample().to_json();
        ScenarioSpec::from_json(&doc).expect("sample is sound");
        for (doc, path, reason) in [
            (
                doc.replace("\"mtbf_years\": 5", "\"mtbf_years\": -1"),
                "world.mtbf_years",
                "must be positive",
            ),
            (
                doc.replace("\"stoppage-then-flood\"", "\"Not Kebab\""),
                "name",
                "is not kebab-case",
            ),
            (
                doc.replace("\"coverage\": 0.30000000000000004", "\"coverage\": 1.5"),
                "attack.members[1].attack.coverage",
                "must be in [0,1]",
            ),
            (
                doc.replace("\"peers\": \"scale\"", "\"peers\": 3"),
                "world",
                "population must exceed the inner circle",
            ),
            (
                doc.replace("\"run_days\": \"scale\"", "\"run_days\": 0"),
                "world.run_days",
                "run length is zero",
            ),
        ] {
            let err = ScenarioSpec::from_json(&doc).unwrap_err();
            assert_eq!(err.path, path, "{err}");
            assert!(err.message.contains(reason), "{err}");
        }
        for (attack, path) in [
            (
                "{\"kind\": \"churn-storm\", \"coverage\": 0.5, \"duty\": 1.01}",
                "attack.duty",
            ),
            (
                "{\"kind\": \"sybil-ramp\", \"step\": -0.1, \"step_days\": 30}",
                "attack.step",
            ),
        ] {
            let err = mobile(attack).unwrap_err();
            assert_eq!(err.path, path, "{err}");
            assert_eq!(err.message, "must be in [0,1]", "{err}");
        }
    }
}
