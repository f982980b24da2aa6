//! A DOM-style editing session on a compressed document: the motivating
//! scenario of the paper (memory-hungry DOM trees in browsers).
//!
//! The example loads a synthetic XMark-like document, keeps it compressed in a
//! [`DomStore`], applies a random stream of inserts/deletes, and reports how
//! the grammar size evolves with recompression every 100 updates (the
//! paper's fixed-interval policy) versus never recompressing.
//!
//! Run with: `cargo run --release --example dom_editing`

use slt_xml::datasets::catalog::Dataset;
use slt_xml::datasets::workload::{random_insert_delete_sequence, WorkloadMix};
use slt_xml::grammar_repair::update::apply_update;
use slt_xml::treerepair::TreeRePair;
use slt_xml::DomStore;

const EVERY: usize = 100;

fn main() {
    let xml = Dataset::XMark.generate(0.25);
    println!(
        "XMark-like document: {} edges, depth {}",
        xml.edge_count(),
        xml.depth()
    );

    let ops = random_insert_delete_sequence(&xml, 600, 42, WorkloadMix::default());
    let (initial, _) = TreeRePair::default().compress_xml(&xml);
    println!("initial compressed grammar: {} edges\n", initial.edge_count());

    // Variant A: naive — apply updates, never recompress.
    let mut naive = initial.clone();
    // Variant B: a store recompressing every 100 updates. Its own debt
    // trigger is switched off, so the interval alone decides.
    let store = DomStore::new().with_debt_threshold(usize::MAX);
    let doc = store.load_grammar(initial).expect("a fresh store takes any alphabet");

    println!(
        "{:>9} {:>16} {:>22}",
        "#updates", "naive edges", "maintained edges (GR)"
    );
    for (i, op) in ops.iter().enumerate() {
        apply_update(&mut naive, op).expect("workload is valid");
        store.apply_batch(doc, std::slice::from_ref(op)).expect("workload is valid");
        if (i + 1).is_multiple_of(EVERY) {
            store.recompress(doc).expect("live doc");
            println!(
                "{:>9} {:>16} {:>22}",
                i + 1,
                naive.edge_count(),
                store.edge_count(doc).expect("live doc")
            );
        }
    }

    let recompressions = store.recompressions(doc).expect("live doc");
    assert_eq!(recompressions, ops.len() / EVERY);
    let maintained = store.edge_count(doc).expect("live doc");
    println!(
        "\nafter {} updates: naive grammar {} edges, maintained grammar {maintained} edges \
         ({recompressions} recompressions)",
        ops.len(),
        naive.edge_count(),
    );
    assert!(maintained < naive.edge_count(), "recompression must pay off");
    println!(
        "the document now has {} binary-tree nodes",
        store.derived_size(doc).expect("live doc")
    );
}
