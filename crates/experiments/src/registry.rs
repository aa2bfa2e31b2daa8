//! The scenario registry: every runnable world as a named, self-describing
//! entry.
//!
//! The paper's evaluation is a handful of fixed sweeps; the registry turns
//! each evaluated point — and every scenario beyond them — into a named
//! entry with a description, a paper-section reference, and a declarative
//! [`ScenarioSpec`], so new worlds (including composite campaigns) are one
//! checked-in `scenarios/*.json` file, discoverable from the `lockss-sim`
//! CLI (`list` / `describe` / `run`). Determinism makes the names
//! meaningful: a registered scenario plus a seed identifies a
//! byte-reproducible execution, the record-and-replay property that makes
//! attack debugging tractable.
//!
//! The standard corpus is embedded with `include_str!` so
//! [`ScenarioRegistry::standard`] stays infallible and independent of the
//! working directory; `tests/golden_scenarios.rs` pins every entry's built
//! world to a digest carried over from the pre-refactor hand-coded
//! builders, and the tests below pin the files to their canonical encoding.

use crate::scale::Scale;
use crate::scenario::Scenario;
use crate::spec::ScenarioSpec;

/// One registered scenario: a declarative spec (world, attack, catalog
/// metadata).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioEntry {
    /// The spec this entry is backed by.
    pub spec: ScenarioSpec,
}

impl ScenarioEntry {
    /// Wraps a spec as a registry entry.
    pub fn new(spec: ScenarioSpec) -> ScenarioEntry {
        ScenarioEntry { spec }
    }

    /// Unique, CLI-addressable name (kebab-case).
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// One-line description of the world and what it demonstrates.
    pub fn description(&self) -> &str {
        &self.spec.description
    }

    /// The paper figure/table/section the scenario reproduces or extends.
    pub fn paper_ref(&self) -> &str {
        &self.spec.paper_ref
    }

    /// Builds the scenario at `scale`.
    pub fn build(&self, scale: Scale) -> Scenario {
        self.spec.build(scale)
    }
}

/// `(name, contents of scenarios/<name>.json)` for each name, so a name is
/// written once.
macro_rules! corpus {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("../../../scenarios/", $name, ".json")))),*]
    };
}

/// The standard corpus, in catalog order. Each file is the canonical
/// encoding of its spec (`ScenarioSpec::to_json`); the registry tests
/// reject a file that drifts from it.
pub const STANDARD_SCENARIOS: [(&str, &str); 21] = corpus![
    "baseline",
    "baseline-large",
    "pipe-stoppage",
    "pipe-stoppage-partial",
    "admission-flood",
    "admission-flood-partial",
    "brute-force-intro",
    "brute-force-remaining",
    "brute-force-none",
    "vote-flood",
    "churn-storm",
    "sybil-ramp",
    "mobile-takeover-light",
    "mobile-takeover-heavy",
    "stoppage-then-flood",
    "storm-over-ramp",
    "stoppage-escalation",
    "mobile-recovery-race",
    "scale-10k-baseline",
    "scale-10k-churn-storm",
    "scale-50k-attrition",
];

/// The registry: an ordered collection of named scenarios.
pub struct ScenarioRegistry {
    entries: Vec<ScenarioEntry>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> ScenarioRegistry {
        ScenarioRegistry {
            entries: Vec::new(),
        }
    }

    /// Registers an entry.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken — names are CLI addresses and
    /// must be unique.
    pub fn register(&mut self, entry: ScenarioEntry) {
        assert!(
            self.get(entry.name()).is_none(),
            "duplicate scenario name '{}'",
            entry.name()
        );
        self.entries.push(entry);
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[ScenarioEntry] {
        &self.entries
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioEntry> {
        self.entries.iter().find(|e| e.name() == name)
    }

    /// Builds the named scenario at `scale`, if registered.
    pub fn build(&self, name: &str, scale: Scale) -> Option<Scenario> {
        self.get(name).map(|e| e.build(scale))
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name()).collect()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scenario catalog as a markdown table (the README section; kept
    /// in sync by `tests/scenario_catalog.rs`).
    pub fn catalog_markdown(&self) -> String {
        let mut out = String::from("| scenario | paper | description |\n|---|---|---|\n");
        for e in &self.entries {
            out.push_str(&format!(
                "| `{}` | {} | {} |\n",
                e.name(),
                e.paper_ref(),
                e.description()
            ));
        }
        out
    }

    /// The standard registry: the paper's evaluated worlds plus the
    /// dynamic-environment and composite campaigns, loaded from the
    /// embedded `scenarios/` corpus.
    ///
    /// # Panics
    ///
    /// Panics if a checked-in scenario file fails to parse — a build-time
    /// defect, caught by every test that touches the registry.
    pub fn standard() -> ScenarioRegistry {
        let mut r = ScenarioRegistry::new();
        for (name, text) in STANDARD_SCENARIOS {
            let spec = ScenarioSpec::from_json(text)
                .unwrap_or_else(|e| panic!("checked-in scenario '{name}' is invalid: {e}"));
            assert_eq!(
                spec.name, name,
                "scenario file name and embedded name disagree"
            );
            r.register(ScenarioEntry::new(spec));
        }
        r
    }
}

impl Default for ScenarioRegistry {
    fn default() -> ScenarioRegistry {
        ScenarioRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_is_rich_enough() {
        let r = ScenarioRegistry::standard();
        assert!(r.len() >= 10, "want >= 10 scenarios, have {}", r.len());
        let composites = r
            .entries()
            .iter()
            .filter(|e| e.build(Scale::Quick).attack.is_composite())
            .count();
        assert!(composites >= 2, "want >= 2 composite scenarios");
        assert!(!r.is_empty());
    }

    #[test]
    fn names_are_unique_and_kebab_case() {
        let r = ScenarioRegistry::standard();
        let names = r.names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names");
        for n in names {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "name '{n}' is not kebab-case"
            );
        }
    }

    #[test]
    fn every_scenario_validates_at_every_scale() {
        let r = ScenarioRegistry::standard();
        for e in r.entries() {
            e.spec
                .validate()
                .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
        }
        for scale in [Scale::Quick, Scale::Default, Scale::Paper] {
            for e in r.entries() {
                let s = e.build(scale);
                s.cfg
                    .validate()
                    .unwrap_or_else(|err| panic!("{} at {:?}: {err}", e.name(), scale));
                assert!(!s.run_length.is_zero());
            }
        }
    }

    #[test]
    fn corpus_files_are_canonical() {
        for (name, text) in STANDARD_SCENARIOS {
            let spec = ScenarioSpec::from_json(text).expect(name);
            assert_eq!(
                spec.to_json(),
                text,
                "scenarios/{name}.json is not in canonical encoding \
                 (re-emit it with ScenarioSpec::to_json)"
            );
        }
    }

    #[test]
    fn lookup_and_build() {
        let r = ScenarioRegistry::standard();
        assert!(r.get("baseline").is_some());
        assert!(r.get("no-such-scenario").is_none());
        let s = r.build("pipe-stoppage", Scale::Quick).expect("registered");
        assert!(!s.attack.is_none());
        assert!(r.build("no-such-scenario", Scale::Quick).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn duplicate_registration_panics() {
        let mut r = ScenarioRegistry::standard();
        let dup = r.get("baseline").expect("registered").clone();
        r.register(dup);
    }

    #[test]
    fn catalog_lists_every_entry() {
        let r = ScenarioRegistry::standard();
        let md = r.catalog_markdown();
        for e in r.entries() {
            assert!(md.contains(e.name()), "catalog missing {}", e.name());
        }
        assert_eq!(md.lines().count(), r.len() + 2, "header + one row each");
    }
}
