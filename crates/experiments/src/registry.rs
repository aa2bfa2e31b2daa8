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

/// The registry: an ordered collection of named scenario specs.
pub struct ScenarioRegistry {
    specs: Vec<ScenarioSpec>,
}

impl ScenarioRegistry {
    /// All specs, in catalog order.
    pub fn entries(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// Looks a spec up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Builds the named scenario at `scale`, if registered.
    pub fn build(&self, name: &str, scale: Scale) -> Option<Scenario> {
        self.get(name).map(|s| s.build(scale))
    }

    /// All registered names, in catalog order.
    pub fn names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name.as_str()).collect()
    }

    /// The standard registry: the paper's evaluated worlds plus the
    /// dynamic-environment and composite campaigns, loaded from the
    /// embedded `scenarios/` corpus.
    ///
    /// # Panics
    ///
    /// Panics if a checked-in scenario file fails to decode, range checks
    /// included — a build-time defect, caught by every test that touches
    /// the registry.
    pub fn standard() -> ScenarioRegistry {
        ScenarioRegistry::load(&STANDARD_SCENARIOS)
    }

    /// Parses `(file name, contents)` pairs in order.
    ///
    /// # Panics
    ///
    /// Panics if a file fails to decode, names a scenario other than its
    /// file name, or repeats a name — names are CLI addresses and must be
    /// unique.
    fn load(corpus: &[(&str, &str)]) -> ScenarioRegistry {
        let mut specs: Vec<ScenarioSpec> = Vec::with_capacity(corpus.len());
        for &(name, text) in corpus {
            let spec = ScenarioSpec::from_json(text)
                .unwrap_or_else(|e| panic!("checked-in scenario '{name}' is invalid: {e}"));
            assert_eq!(
                spec.name, name,
                "scenario file name and embedded name disagree"
            );
            assert!(
                specs.iter().all(|s| s.name != name),
                "duplicate scenario name '{name}'"
            );
            specs.push(spec);
        }
        ScenarioRegistry { specs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_is_rich_enough() {
        let r = ScenarioRegistry::standard();
        let n = r.entries().len();
        assert!(n >= 10, "want >= 10 scenarios, have {n}");
        let composites = r
            .entries()
            .iter()
            .filter(|e| e.build(Scale::Quick).attack.is_composite())
            .count();
        assert!(composites >= 2, "want >= 2 composite scenarios");
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

    /// Decoding checks each world at every scale.
    #[test]
    fn every_scenario_validates_at_every_scale() {
        for (name, text) in STANDARD_SCENARIOS {
            ScenarioSpec::from_json(text).unwrap_or_else(|err| panic!("{name}: {err}"));
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

    /// A checked-in file out of range stops the load, naming the file and
    /// the field.
    #[test]
    #[should_panic(expected = "checked-in scenario 'stoppage-then-flood' is invalid: \
                               field 'attack.members[0].attack.coverage': must be in [0,1]")]
    fn an_out_of_range_file_panics_naming_the_file_and_the_field() {
        let (name, text) = STANDARD_SCENARIOS
            .into_iter()
            .find(|(name, _)| *name == "stoppage-then-flood")
            .unwrap();
        let bad = text.replacen("\"coverage\": 1,", "\"coverage\": 1.5,", 1);
        assert_ne!(bad, text, "{name} sets a coverage");
        ScenarioRegistry::load(&[(name, &bad)]);
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn duplicate_registration_panics() {
        let baseline = STANDARD_SCENARIOS[0];
        ScenarioRegistry::load(&[baseline, baseline]);
    }
}
