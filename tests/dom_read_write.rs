//! End-to-end differential test of the full read/write cycle: a mixed update
//! workload applied through a [`DomStore`] (recompressed every 25 calls, the
//! paper's fixed-interval policy) must stay byte-for-byte equivalent to the
//! same workload applied to an uncompressed reference copy — including
//! everything the *read path* reports (labels, element counts, path-query
//! results) after every batch of updates.

use slt_xml::grammar_repair::navigate::element_count;
use slt_xml::grammar_repair::query::PathQuery;
use slt_xml::grammar_repair::store::SchedulerConfig;
use slt_xml::sltgrammar::fingerprint::fingerprint;
use slt_xml::sltgrammar::SymbolTable;
use slt_xml::xmltree::binary::{from_binary, to_binary, tree_fingerprint};
use slt_xml::xmltree::parse::parse_xml;
use slt_xml::xmltree::{updates as reference, UpdateOp, XmlTree};
use slt_xml::{DocId, DomStore};

/// Deterministic pseudo-random stream (splitmix64) so the workload is
/// reproducible without pulling in `rand`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn seed_document() -> XmlTree {
    let mut doc = String::from("<journal>");
    for i in 0..40 {
        doc.push_str("<issue>");
        for _ in 0..(1 + i % 3) {
            doc.push_str("<paper><title/><authors><a/><a/></authors><abstract/></paper>");
        }
        doc.push_str("</issue>");
    }
    doc.push_str("</journal>");
    parse_xml(&doc).unwrap()
}

/// `xml` in a store that leaves recompression to the test.
fn unswept(xml: &XmlTree) -> (DomStore, DocId) {
    let store = DomStore::new().with_scheduler(SchedulerConfig {
        debt_threshold: usize::MAX,
        ..SchedulerConfig::default()
    });
    let doc = store.load_xml(xml).unwrap();
    (store, doc)
}

#[test]
fn mixed_workload_with_recompression_matches_the_reference() {
    let xml = seed_document();
    let mut symbols = SymbolTable::new();
    let mut reference_bin = to_binary(&xml, &mut symbols).unwrap();

    let (store, doc) = unswept(&xml);
    let grammar = || store.grammar(doc).unwrap();
    assert_eq!(fingerprint(&grammar()), tree_fingerprint(&reference_bin, &symbols));

    let fragment = parse_xml("<erratum><note/></erratum>").unwrap();
    let labels = ["paper", "retracted", "editorial", "report"];
    let queries = ["//paper/title", "//erratum", "//issue", "//authors/a", "//retracted"];

    let mut rng = Rng(0x5EED);
    let mut applied = 0usize;
    for step in 0usize..120 {
        // Every 25 calls, counted before the call so skipped steps count.
        if step > 0 && step.is_multiple_of(25) {
            store.recompress(doc).unwrap();
        }
        let size = store.derived_size(doc).unwrap();
        let target = 1 + rng.below((size - 2) as u64) as usize;
        let op = match rng.below(10) {
            0 => UpdateOp::Delete { target },
            1..=3 => UpdateOp::InsertBefore {
                target,
                fragment: fragment.clone(),
            },
            _ => UpdateOp::Rename {
                target,
                label: labels[step % labels.len()].to_string(),
            },
        };

        // Apply to the compressed document first; if the position happens to be
        // invalid for the operation (e.g. renaming a null node), both sides
        // skip it so they stay in lockstep.
        match store.apply(doc, &op) {
            Ok(_) => {
                reference::apply_update(&mut reference_bin, &mut symbols, &op)
                    .expect("reference must accept whatever the grammar accepted");
                applied += 1;
            }
            Err(_) => continue,
        }

        if step % 10 == 0 {
            // Structural equivalence.
            assert_eq!(
                fingerprint(&grammar()),
                tree_fingerprint(&reference_bin, &symbols),
                "divergence after {applied} applied updates"
            );
            // Read path equivalence.
            let reference_xml = from_binary(&reference_bin, &symbols).unwrap();
            assert_eq!(element_count(&grammar()), reference_xml.node_count() as u128);
            for text in queries {
                let q = PathQuery::parse(text).unwrap();
                assert_eq!(
                    q.count(&grammar()),
                    q.evaluate_uncompressed(&reference_xml).len() as u128,
                    "query {text} diverged after {applied} applied updates"
                );
            }
        }
    }
    assert!(applied >= 60, "expected most of the workload to apply, got {applied}");
    assert_eq!(store.recompressions(doc).unwrap(), 4);

    // Final full materialization equals the reference document.
    let final_xml = store.to_xml(doc).unwrap();
    let reference_xml = from_binary(&reference_bin, &symbols).unwrap();
    assert_eq!(final_xml.to_xml(), reference_xml.to_xml());
}

#[test]
fn recompression_never_changes_query_results() {
    // Apply a rename-heavy workload *without* recompression, then
    // recompress manually and check the read path is bit-identical before and
    // after — recompression must be invisible to readers.
    let xml = seed_document();
    let (store, doc) = unswept(&xml);
    let mut rng = Rng(0xFEED);
    for i in 0..60 {
        let size = store.derived_size(doc).unwrap();
        let target = 1 + rng.below((size - 2) as u64) as usize;
        let _ = store.apply(
            doc,
            &UpdateOp::Rename {
                target,
                label: format!("tag{}", i % 7),
            },
        );
    }
    let queries = ["//paper", "//tag0", "//tag3//a", "//issue/paper/title"];
    let counts = || -> Vec<u128> {
        let grammar = store.grammar(doc).unwrap();
        queries
            .iter()
            .map(|q| PathQuery::parse(q).unwrap().count(&grammar))
            .collect()
    };
    let before = counts();
    let edges_before = store.edge_count(doc).unwrap();
    store.recompress(doc).unwrap();
    assert_eq!(before, counts());
    // Allow a handful of edges of slack: recompression of small grammars can
    // occasionally trade a couple of edges for an extra pattern rule.
    let edges_after = store.edge_count(doc).unwrap();
    assert!(
        edges_after <= edges_before + edges_before / 10 + 6,
        "recompression grew the grammar substantially ({edges_before} -> {edges_after})"
    );
}
