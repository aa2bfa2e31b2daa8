//! Keeps the README's catalogs in sync with the code: the table between
//! the `scenario-catalog` markers must be exactly what [`catalog_markdown`]
//! generates from the registry today, and the
//! command list between the `figure-catalog` markers must name exactly
//! the figures of `figures::FIGURES`, each with its title.

use lockss::experiments::figures::FIGURES;
use lockss::experiments::ScenarioRegistry;

/// The scenario catalog as a markdown table: one row per registered
/// scenario, in catalog order. This test generates the README section.
fn catalog_markdown(registry: &ScenarioRegistry) -> String {
    let mut out = String::from("| scenario | paper | description |\n|---|---|---|\n");
    for s in registry.entries() {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            s.name, s.paper_ref, s.description
        ));
    }
    out
}

/// The README text between `<!-- {name}:begin -->` and `<!-- {name}:end -->`.
fn readme_block(name: &str) -> String {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    let (begin, end) = (
        format!("<!-- {name}:begin -->"),
        format!("<!-- {name}:end -->"),
    );
    let start = readme
        .find(&begin)
        .unwrap_or_else(|| panic!("README carries the {name} begin marker"))
        + begin.len();
    let stop = readme
        .find(&end)
        .unwrap_or_else(|| panic!("README carries the {name} end marker"));
    readme[start..stop].trim().to_string()
}

#[test]
fn readme_catalog_matches_registry() {
    let generated = catalog_markdown(&ScenarioRegistry::standard());
    assert_eq!(
        readme_block("scenario-catalog"),
        generated.trim(),
        "README scenario catalog is stale — replace the table between the \
         markers with tests/scenario_catalog.rs's catalog_markdown()"
    );
}

/// The README once listed `fig6` as friction and `fig8` as access failure
/// — the reverse of the code and the paper. The list is now checked
/// against the table the CLI renders from.
#[test]
fn readme_figure_list_matches_the_figure_table() {
    let commands: Vec<String> = FIGURES
        .iter()
        .map(|f| {
            format!(
                "cargo run --release --bin lockss-sim -- figure {:<14}# {}",
                f.id,
                f.title()
            )
        })
        .collect();
    assert_eq!(
        readme_block("figure-catalog"),
        format!("```sh\n{}\n```", commands.join("\n")),
        "README figure list is stale — one line per entry of figures::FIGURES"
    );
}

#[test]
fn catalog_lists_every_entry() {
    let r = ScenarioRegistry::standard();
    let md = catalog_markdown(&r);
    for s in r.entries() {
        assert!(md.contains(&s.name), "catalog missing {}", s.name);
    }
    assert_eq!(
        md.lines().count(),
        r.entries().len() + 2,
        "header + one row each"
    );
}

#[test]
fn catalog_names_resolve_in_the_registry() {
    let registry = ScenarioRegistry::standard();
    for name in registry.names() {
        assert!(registry.get(name).is_some());
    }
}

/// The mobile-takeover scenario family is registered, carries its
/// mobile-adversary paper references, and shows up in the catalog table.
#[test]
fn mobile_family_is_cataloged_with_paper_refs() {
    let registry = ScenarioRegistry::standard();
    let md = catalog_markdown(&registry);
    for name in [
        "mobile-takeover-light",
        "mobile-takeover-heavy",
        "mobile-recovery-race",
    ] {
        let entry = registry
            .get(name)
            .unwrap_or_else(|| panic!("'{name}' missing from the registry"));
        assert!(
            entry.paper_ref.contains("§4.3"),
            "'{name}' paper_ref must cite the repair machinery (§4.3), got '{}'",
            entry.paper_ref
        );
        let row = format!("| `{name}` | {} |", entry.paper_ref);
        assert!(md.contains(&row), "catalog row for '{name}' is stale");
    }
}
