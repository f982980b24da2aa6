//! Differential oracle for the serializing read path.
//!
//! [`write_xml`] (text) and [`xml_tree`] (`XmlTree`) walk the navigation
//! tables instead of materializing the document. Both must return what the
//! materializing path returns — `from_binary(&val(g)?, &g.symbols)` and its
//! `to_xml()` — byte for byte, or the very same error:
//!
//! * the six corpus families, each compressed by TreeRePair and by
//!   GrammarRePair, at load, after paper-mix and clustered update batches,
//!   and after a recompression;
//! * the paper's example grammar;
//! * a 20 000-sibling right spine and a 2 000-deep nesting, compressed and
//!   uncompressed (the walk is iterative, so neither may overflow a stack);
//! * a forest left by an insert before the document root (the walk stops
//!   where `from_binary` does, when the root closes);
//! * a null root and terminals of rank ≠ 2 (`from_binary`'s typed errors);
//! * a doubling chain over the derivation limit, which must fail before
//!   any output is written.

use std::sync::Arc;

use slt_xml::datasets::catalog::Dataset;
use slt_xml::datasets::workload::{random_update_sequence, WorkloadMix};
use slt_xml::grammar_repair::navigate::{element_count, write_xml, xml_tree, NavTables};
use slt_xml::grammar_repair::repair::GrammarRePair;
use slt_xml::grammar_repair::update::apply_batch;
use slt_xml::grammar_repair::RepairError;
use slt_xml::sltgrammar::derive::val;
use slt_xml::sltgrammar::fingerprint::derived_size;
use slt_xml::sltgrammar::text::parse_grammar;
use slt_xml::sltgrammar::{Grammar, SymbolTable};
use slt_xml::treerepair::TreeRePair;
use slt_xml::xmltree::binary::{binary_to_grammar, from_binary, to_binary};
use slt_xml::xmltree::parse::parse_xml;
use slt_xml::xmltree::updates::UpdateOp;
use slt_xml::xmltree::XmlTree;

/// The materializing path both sinks replace.
fn oracle(g: &Grammar) -> Result<XmlTree, RepairError> {
    let bin = val(g)?;
    Ok(from_binary(&bin, &g.symbols)?)
}

/// Asserts both sinks against the oracle on `g`; returns the oracle's text
/// when `g` derives a document.
fn assert_sinks_match(g: &Grammar, context: &str) -> Option<String> {
    let tables = Arc::new(NavTables::build(g));
    assert_eq!(
        tables.derived_size(),
        derived_size(g),
        "{context}: derived size"
    );
    let mut text = String::new();
    let written = write_xml(g, &tables, usize::MAX, &mut text);
    let tree = xml_tree(g, &tables);
    match oracle(g) {
        Ok(want) => {
            let want_text = want.to_xml();
            assert_eq!(
                tree.unwrap_or_else(|e| panic!("{context}: tree sink failed: {e}"))
                    .to_xml(),
                want_text,
                "{context}: tree sink"
            );
            let elements = written.unwrap_or_else(|e| panic!("{context}: text sink failed: {e}"));
            assert!(text == want_text, "{context}: text sink bytes differ");
            assert_eq!(
                elements,
                want.node_count() as u64,
                "{context}: element count"
            );
            Some(want_text)
        }
        Err(want) => {
            assert_eq!(tree.err(), Some(want.clone()), "{context}: tree sink error");
            assert_eq!(written.err(), Some(want), "{context}: text sink error");
            None
        }
    }
}

fn compressors(xml: &XmlTree) -> [(&'static str, Grammar); 2] {
    [
        ("treerepair", TreeRePair::default().compress_xml(xml).0),
        (
            "grammarrepair",
            GrammarRePair::default().compress_xml(xml).0,
        ),
    ]
}

#[test]
fn corpus_families_match_at_load_after_updates_and_after_recompression() {
    for dataset in Dataset::all() {
        let xml = dataset.generate(0.02);
        // Two 64-op batches per mix, each sequence valid in order from `xml`.
        let mixes = [
            (
                "paper_mix",
                random_update_sequence(&xml, 128, 5, WorkloadMix::paper_mix(0.5)),
            ),
            (
                "clustered",
                random_update_sequence(&xml, 128, 9, WorkloadMix::clustered(0.9)),
            ),
        ];
        for (compressor, loaded) in compressors(&xml) {
            let name = format!("{}/{compressor}", dataset.name());
            let text = assert_sinks_match(&loaded, &format!("{name}/load"));
            assert_eq!(
                text.as_deref(),
                Some(xml.to_xml().as_str()),
                "{name}: load roundtrip"
            );
            for (mix, ops) in &mixes {
                let mut g = loaded.clone();
                for (b, batch) in ops.chunks(64).enumerate() {
                    apply_batch(&mut g, batch).unwrap_or_else(|e| panic!("{name}/{mix}{b}: {e}"));
                    assert_sinks_match(&g, &format!("{name}/{mix}{b}"));
                }
                GrammarRePair::default().recompress(&mut g);
                assert_sinks_match(&g, &format!("{name}/{mix}/recompressed"));
            }
        }
    }
}

#[test]
fn paper_example_grammar_matches() {
    let g = parse_grammar("S -> f(A(B,B),#)\nB -> A(#,#)\nA -> a(#, a(y1, y2))").unwrap();
    let text = assert_sinks_match(&g, "paper example").unwrap();
    assert_eq!(text, "<f><a/><a><a/><a/></a><a/><a/></f>");
}

/// `xml` compressed by both compressors and as the one-rule grammar of its
/// plain binary encoding.
fn all_encodings(xml: &XmlTree) -> Vec<(&'static str, Grammar)> {
    let mut symbols = SymbolTable::new();
    let bin = to_binary(xml, &mut symbols).unwrap();
    let mut out = vec![("uncompressed", binary_to_grammar(symbols, bin))];
    out.extend(compressors(xml));
    out
}

#[test]
fn wide_and_deep_documents_are_walked_without_recursion() {
    let mut wide = XmlTree::new("root");
    let root = wide.root();
    for _ in 0..20_000 {
        wide.add_child(root, "item");
    }
    let mut deep = XmlTree::new("a");
    let mut at = deep.root();
    for _ in 0..2_000 {
        at = deep.add_child(at, "a");
    }
    for (shape, xml) in [("20 000-sibling spine", wide), ("2 000-deep nesting", deep)] {
        for (encoding, g) in all_encodings(&xml) {
            let text = assert_sinks_match(&g, &format!("{shape}/{encoding}"));
            assert_eq!(text.unwrap(), xml.to_xml(), "{shape}/{encoding}");
        }
    }
}

#[test]
fn a_forest_prints_only_the_document_tree() {
    let xml = parse_xml("<log><e/><e><f/></e></log>").unwrap();
    for (encoding, mut g) in all_encodings(&xml) {
        let fragment = parse_xml("<stray><x/></stray>").unwrap();
        apply_batch(
            &mut g,
            &[UpdateOp::InsertBefore {
                target: 0,
                fragment,
            }],
        )
        .unwrap();
        // The derived binary tree now holds two trees: the fragment, whose
        // next sibling is the old document.
        assert_eq!(element_count(&g), 6, "{encoding}");
        let text = assert_sinks_match(&g, &format!("forest/{encoding}")).unwrap();
        assert_eq!(text, "<stray><x/></stray>", "{encoding}");
    }
}

#[test]
fn malformed_grammars_give_from_binary_errors() {
    for (name, text) in [
        ("null root", "S -> #"),
        ("root of rank 1", "S -> f(#)"),
        ("leaf element", "S -> f(a, #)"),
        (
            "rank 3 element in a callee",
            "S -> f(A(#), #)\nA -> g(y1, #, #)",
        ),
    ] {
        let g = parse_grammar(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            assert_sinks_match(&g, name).is_none(),
            "{name} must be rejected"
        );
    }
}

#[test]
fn a_derivation_over_the_limit_fails_before_output_grows() {
    // 2^30 nodes from 31 rules.
    let mut text = String::from("S -> f(A1,#)\n");
    for i in 1..30 {
        text.push_str(&format!("A{i} -> g(A{},A{})\n", i + 1, i + 1));
    }
    text.push_str("A30 -> a");
    let g = parse_grammar(&text).unwrap();
    assert!(assert_sinks_match(&g, "doubling chain").is_none());

    let tables = Arc::new(NavTables::build(&g));
    let mut out = String::from("kept");
    assert!(write_xml(&g, &tables, usize::MAX, &mut out).is_err());
    assert_eq!(out, "kept", "nothing may be written before the limit check");
}

#[test]
fn the_byte_budget_stops_the_text_sink() {
    let xml = Dataset::XMark.generate(0.02);
    let (g, _) = GrammarRePair::default().compress_xml(&xml);
    let tables = Arc::new(NavTables::build(&g));
    let full = xml.to_xml();
    let longest_tag = xml.labels().iter().map(|l| l.len() + 3).max().unwrap();

    let mut out = String::new();
    write_xml(&g, &tables, full.len(), &mut out).unwrap();
    assert_eq!(out, full, "a budget of exactly the text's size suffices");

    for budget in [0, 1, full.len() / 2, full.len() - 1] {
        let mut out = String::from("prefix");
        let err = write_xml(&g, &tables, budget, &mut out).unwrap_err();
        assert_eq!(err, RepairError::OutputTooLarge { limit: budget });
        let written = out.len() - "prefix".len();
        assert!(written > budget, "the sink stops only once over budget");
        assert!(
            written <= budget + longest_tag,
            "the sink stops at the first tag over budget ({written} > {budget} + {longest_tag})"
        );
        assert!(full.starts_with(&out["prefix".len()..]));
    }
}
