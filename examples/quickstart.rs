//! Quickstart: compress an XML document, inspect the grammar, update it
//! without decompressing, and recompress.
//!
//! Run with: `cargo run --release --example quickstart`

use slt_xml::grammar_repair::repair::GrammarRePair;
use slt_xml::grammar_repair::update;
use slt_xml::sltgrammar::fingerprint::derived_size;
use slt_xml::sltgrammar::text::print_grammar;
use slt_xml::sltgrammar::{NodeKind, SymbolTable};
use slt_xml::treerepair::TreeRePair;
use slt_xml::xmltree::binary::to_binary;
use slt_xml::xmltree::parse::parse_xml;
use slt_xml::xmltree::updates::UpdateOp;

fn main() {
    // A small, repetitive document (think of a stripped-down access log).
    let mut doc = String::from("<log>");
    for _ in 0..64 {
        doc.push_str("<entry><host/><date/><request><method/><uri/></request></entry>");
    }
    doc.push_str("</log>");
    let xml = parse_xml(&doc).expect("well-formed XML");
    println!("document: {} element edges, depth {}", xml.edge_count(), xml.depth());

    // 1. Compress with TreeRePair (the classic tree compressor).
    let (mut grammar, stats) = TreeRePair::default().compress_xml(&xml);
    println!(
        "TreeRePair: {} -> {} grammar edges ({:.2}% of the binary tree)",
        stats.input_edges,
        stats.output_edges,
        100.0 * stats.ratio()
    );
    println!("\nThe grammar (start rule first):\n{}", print_grammar(&grammar));

    // 2. Update the compressed document directly: rename the first entry and
    //    delete the second one. Preorder indices address the binary tree; we
    //    look the positions up once in an uncompressed reference copy.
    let mut symbols = SymbolTable::new();
    let reference = to_binary(&xml, &mut symbols).expect("valid document");
    let entry_positions: Vec<usize> = reference
        .preorder()
        .iter()
        .enumerate()
        .filter(|(_, &n)| matches!(reference.kind(n), NodeKind::Term(t) if symbols.name(t) == "entry"))
        .map(|(i, _)| i)
        .collect();
    //    A rename shifts no position, so both targets hold for the batch.
    let ops = [
        UpdateOp::Rename {
            target: entry_positions[0],
            label: "first_entry".to_string(),
        },
        UpdateOp::Delete {
            target: entry_positions[1],
        },
    ];
    let updated = update::apply_batch(&mut grammar, &ops).expect("valid updates");
    println!(
        "after 2 updates the grammar has {} edges (was {})",
        updated.edges_after, stats.output_edges
    );

    // 3. Recompress with GrammarRePair — no decompression of the document.
    let repair_stats = GrammarRePair::default().recompress(&mut grammar);
    println!(
        "GrammarRePair: {} -> {} edges in {} rounds ({} replacements, {} inlinings)",
        repair_stats.input_edges,
        repair_stats.output_edges,
        repair_stats.rounds,
        repair_stats.replacements,
        repair_stats.inlinings
    );
    println!(
        "document still has {} binary-tree nodes; grammar validates: {}",
        derived_size(&grammar),
        grammar.validate().is_ok()
    );
}
