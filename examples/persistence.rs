//! Persisting compressed documents: serialize a grammar, reload it, keep
//! editing it, and verify that nothing was lost.
//!
//! The workflow mirrors how an application would use the library as a storage
//! and editing backend: compress once, store the `.sltg` bytes, reload later,
//! apply updates through a [`DomStore`], recompress, and store again.
//!
//! Run with: `cargo run --release --example persistence`

use slt_xml::datasets::Dataset;
use slt_xml::grammar_repair::query::PathQuery;
use slt_xml::sltgrammar::fingerprint::fingerprint;
use slt_xml::sltgrammar::serialize;
use slt_xml::xmltree::UpdateOp;
use slt_xml::DomStore;

fn main() {
    // 1. Compress a Medline-like bibliography and serialize it.
    let xml = Dataset::Medline.generate(0.1);
    println!(
        "document: {} elements ({} binary edges)",
        xml.node_count(),
        2 * xml.node_count()
    );
    let store = DomStore::new();
    let doc = store.load_xml(&xml).expect("dataset labels intern");
    let bytes = serialize::encode(&store.grammar(doc).expect("live doc"));
    println!(
        "compressed: {} grammar edges, {} bytes on disk ({:.2} bytes per element)",
        store.edge_count(doc).expect("live doc"),
        bytes.len(),
        bytes.len() as f64 / xml.node_count() as f64
    );
    let original_fingerprint = fingerprint(&store.grammar(doc).expect("live doc"));

    // 2. Reload from the serialized form — the grammar round-trips exactly.
    let reloaded = serialize::decode(&bytes).expect("well-formed .sltg bytes");
    assert_eq!(fingerprint(&reloaded), original_fingerprint);
    println!("reloaded grammar matches the original (fingerprints agree)");

    // 3. Keep editing the reloaded document in a fresh store; its debt
    //    scheduler recompresses whenever the grammar has grown enough.
    let store = DomStore::new();
    let doc = store.load_grammar(reloaded).expect("a fresh store takes any alphabet");
    let citations = PathQuery::parse("//citation").unwrap();
    let citations_before = store.query_count(doc, &citations).expect("live doc");
    let fragment = slt_xml::xmltree::parse::parse_xml(
        "<citation><pmid/><article><title/><abstract/></article></citation>",
    )
    .unwrap();
    for k in 0..120 {
        // Insert before the element at a (valid) position that moves through the
        // document; positions address the binary tree in preorder.
        let size = store.derived_size(doc).expect("live doc") as usize;
        let target = 1 + (k * 37) % (size - 2);
        let op = UpdateOp::InsertBefore {
            target,
            fragment: fragment.clone(),
        };
        store.apply(doc, &op).expect("valid insert");
    }
    println!(
        "after 120 inserts: {} edges, {} scheduled recompressions",
        store.edge_count(doc).expect("live doc"),
        store.recompressions(doc).expect("live doc")
    );
    let citations_after = store.query_count(doc, &citations).expect("live doc");
    println!("citations: {citations_before} -> {citations_after}");
    assert_eq!(citations_after, citations_before + 120);

    // 4. Store the edited document again.
    let edited = store.grammar(doc).expect("live doc");
    let edited_bytes = serialize::encode(&edited);
    println!(
        "edited document stored in {} bytes (was {} bytes)",
        edited_bytes.len(),
        bytes.len()
    );
    let back = serialize::decode(&edited_bytes).expect("well-formed .sltg bytes");
    assert_eq!(fingerprint(&back), fingerprint(&edited));
    println!("round-trip of the edited grammar verified");
}
