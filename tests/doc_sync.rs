//! Doc-sync checks: the user-facing documentation must track the code.
//!
//! `README.md` carries a variant table and names the CLI groups;
//! `REPRODUCING.md` maps every experiment id to its command. Both rot
//! silently when a variant or experiment is added — these tests turn
//! that rot into a CI failure (they run under plain `cargo test`, which
//! is also the CI hook).

use bench_harness::{Experiment, Variant};

fn read_doc(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn readme_lists_every_variant_key() {
    let readme = read_doc("README.md");
    for v in Variant::ALL {
        assert!(
            readme.contains(&format!("`{}`", v.name())),
            "README.md is missing variant `{}` — regenerate the variant table from \
             `Variant::ALL` (every `Variant::name()` must appear in backticks)",
            v.name()
        );
    }
}

#[test]
fn readme_documents_every_parse_group_name() {
    let readme = read_doc("README.md");
    for group in [
        "all", "paper", "sparc", "figures", "reclaim", "sharded", "hotpath", "elastic", "unroll",
    ] {
        assert!(
            Variant::parse_group(group).is_some(),
            "group {group} disappeared from Variant::parse_group — update this test"
        );
        assert!(
            readme.contains(&format!("`{group}`")),
            "README.md does not document the `{group}` variant group"
        );
    }
    assert!(
        readme.contains("--list-variants"),
        "README.md must document `repro --list-variants`"
    );
}

#[test]
fn readme_links_the_deep_docs() {
    let readme = read_doc("README.md");
    for doc in ["ARCHITECTURE.md", "REPRODUCING.md"] {
        assert!(readme.contains(doc), "README.md must link {doc}");
        read_doc(doc); // and the target must exist
    }
}

#[test]
fn reproducing_covers_every_experiment_id() {
    let repro = read_doc("REPRODUCING.md");
    for id in Experiment::IDS {
        assert!(
            repro.contains(&format!("repro {id}")),
            "REPRODUCING.md is missing the `repro {id}` command for experiment {id}"
        );
    }
}

#[test]
fn architecture_counts_every_variant() {
    let arch = read_doc("ARCHITECTURE.md");
    let marker = "`bench_harness::Variant` names the ";
    let at = arch
        .find(marker)
        .expect("ARCHITECTURE.md must say how many instantiations `Variant` names");
    let count: String = arch[at + marker.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    assert_eq!(
        count.parse::<usize>().ok(),
        Some(Variant::ALL.len()),
        "ARCHITECTURE.md's variant count must equal `Variant::ALL.len()`"
    );
}

#[test]
fn architecture_names_every_crate() {
    let arch = read_doc("ARCHITECTURE.md");
    for krate in [
        "pragmatic-list",
        "seq-list",
        "glibc-rand",
        "linearize",
        "lockfree-hashmap",
        "lockfree-skiplist",
        "bench-harness",
        "bench",
        "interleave",
        "shims",
    ] {
        assert!(arch.contains(krate), "ARCHITECTURE.md is missing {krate}");
    }
}

#[test]
fn audit_docs_are_cross_linked() {
    // The audit gates and the checker docs reference each other; a
    // rename breaks the chain silently without this.
    let repro = read_doc("REPRODUCING.md");
    for needle in [
        "--cfg interleave",
        "interleave_protocols",
        "interleave_mutate",
    ] {
        assert!(
            repro.contains(needle),
            "REPRODUCING.md no longer documents {needle}"
        );
    }
    let orderings = read_doc("ORDERINGS.md");
    assert!(
        orderings.contains("ordering_audit"),
        "ORDERINGS.md must name its enforcing test"
    );
    let arch = read_doc("ARCHITECTURE.md");
    for needle in ["ORDERINGS.md", "safety_audit", "sync.rs"] {
        assert!(arch.contains(needle), "ARCHITECTURE.md is missing {needle}");
    }
}
