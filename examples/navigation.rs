//! Navigation and point queries on a compressed document without
//! decompression: label lookups by preorder index through a cursor, plus
//! aggregate statistics computed in one pass over the grammar.
//!
//! Run with: `cargo run --release --example navigation`

use std::collections::BTreeMap;

use slt_xml::datasets::catalog::Dataset;
use slt_xml::grammar_repair::navigate::Cursor;
use slt_xml::sltgrammar::fingerprint::derived_size;
use slt_xml::sltgrammar::NodeKind;
use slt_xml::treerepair::TreeRePair;

fn main() {
    let xml = Dataset::Medline.generate(0.1);
    let (grammar, stats) = TreeRePair::default().compress_xml(&xml);
    println!(
        "Medline-like document with {} edges compressed to {} grammar edges ({:.2}%)",
        stats.input_edges,
        stats.output_edges,
        100.0 * stats.ratio()
    );

    // Aggregate query answered on the grammar alone: how often does each label
    // occur in the document? One pass over the rules, weighted by usage.
    let usage = grammar.usage();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for nt in grammar.nonterminals() {
        let rule = grammar.rule(nt);
        let weight = usage.get(&nt).copied().unwrap_or(0);
        for node in rule.rhs.preorder() {
            if let NodeKind::Term(t) = rule.rhs.kind(node) {
                if !grammar.symbols.is_null(t) {
                    *counts.entry(grammar.symbols.name(t).to_string()).or_insert(0) += weight;
                }
            }
        }
    }
    println!("\nlabel histogram computed from the grammar (top 8):");
    let mut sorted: Vec<_> = counts.into_iter().collect();
    sorted.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    for (label, count) in sorted.iter().take(8) {
        println!("  {label:<24} {count}");
    }

    // Point queries: read labels at arbitrary preorder positions through the
    // compression. The lookup steers a cursor down the grammar using the
    // precomputed subtree counts — purely read-only, the grammar never grows.
    let total = derived_size(&grammar);
    println!("\nthe binary tree has {total} nodes; sampling labels along it:");
    let edges_before = grammar.edge_count();
    let mut cursor = Cursor::new(&grammar);
    for idx in [0u128, 1, 2, total / 4, total / 2, total - 2] {
        assert!(cursor.node_at_preorder(idx), "index in range");
        println!("  preorder {idx:>8} -> {}", cursor.label());
    }
    assert_eq!(grammar.edge_count(), edges_before);
    println!("\nthe 6 point reads left the grammar untouched ({edges_before} edges)");
}
