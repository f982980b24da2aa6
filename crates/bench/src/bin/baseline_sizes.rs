//! Extension experiment: size comparison of all in-memory representations.
//!
//! Not a table of the paper, but quantifies its framing: the introduction
//! cites minimal DAGs (~10 % of the edges) and the related-work section cites
//! succinct DOM trees as the static alternatives to SLCF grammar compression.
//! The binary prints, per corpus document, the structural size (edges) of the
//! binary tree, the minimal DAG, the TreeRePair grammar and the GrammarRePair
//! grammar, plus the byte footprints of the pointer DOM, the succinct DOM and
//! the serialized grammars.
//!
//! With `.xml` paths as arguments it prints the same row for each file
//! instead of the generated corpus.

use bench_harness::{sizes_row, Options};
use datasets::catalog::Dataset;
use xmltree::parse::parse_xml;
use xmltree::XmlTree;

fn main() {
    let opts = Options::from_args();
    let paths: Vec<String> = std::env::args().skip(1).filter(|a| a.ends_with(".xml")).collect();
    if paths.is_empty() {
        println!("Baseline comparison — structural and byte sizes (scale {:.2})\n", opts.scale);
    } else {
        println!("Baseline comparison — structural and byte sizes\n");
    }
    println!(
        "{:<14} {:>9} | {:>9} {:>9} {:>9} {:>9} | {:>11} {:>11} {:>11}",
        "dataset",
        "#elems",
        "bin edges",
        "DAG",
        "TreeRP",
        "GramRP",
        "ptr DOM B",
        "succinct B",
        "grammar B"
    );
    if paths.is_empty() {
        for dataset in Dataset::all() {
            print_row(dataset.name(), &dataset.generate(opts.scale));
        }
    } else {
        for path in &paths {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let xml = parse_xml(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            print_row(path, &xml);
        }
    }
    println!("\nEvery column derives the same document; smaller is better.");
}

fn print_row(name: &str, xml: &XmlTree) {
    let row = sizes_row(xml);
    println!(
        "{:<14} {:>9} | {:>9} {:>9} {:>9} {:>9} | {:>11} {:>11} {:>11}",
        name,
        row.elements,
        row.binary_edges,
        row.dag_edges,
        row.treerepair_edges,
        row.grammarrepair_edges,
        row.pointer_bytes,
        row.succinct_bytes,
        row.grammar_bytes
    );
}
