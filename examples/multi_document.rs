//! A multi-document session: many compressed documents behind one
//! [`DomStore`] with a shared symbol table and debt-based recompression.
//!
//! The example loads a small fleet of similar weblog-like documents, shows
//! that they share one resident label alphabet (vs one table per document),
//! then serves an interleaved read/update workload. Each update batch
//! recompresses its own document once that document's grammar has grown by
//! the debt threshold, so the hot document is recompressed and the cold ones
//! are left alone.
//!
//! Run with: `cargo run --release --example multi_document`

use slt_xml::datasets::catalog::Dataset;
use slt_xml::datasets::workload::{random_update_sequence, WorkloadMix};
use slt_xml::DomStore;

fn main() {
    // 1. Load six similar documents into one store.
    let store = DomStore::new().with_debt_threshold(400);
    let mut docs = Vec::new();
    for i in 0..6 {
        let xml = Dataset::ExiWeblog.generate(0.03 + 0.005 * i as f64);
        let id = store.load_xml(&xml).expect("dataset labels intern");
        docs.push((id, xml));
    }
    let stats = store.symbol_stats();
    println!("loaded {} documents", store.len());
    println!(
        "label tables: {} B resident (shared) vs {} B with per-document tables ({:.2}x)",
        stats.resident_bytes(),
        stats.unshared_bytes,
        stats.unshared_bytes as f64 / stats.resident_bytes().max(1) as f64
    );

    // 2. Interleaved workload: one hot document takes FLUX-style update
    //    batches, every document serves queries in between.
    let (hot, hot_xml) = (docs[0].0, docs[0].1.clone());
    let ops = random_update_sequence(&hot_xml, 120, 7, WorkloadMix::clustered(0.85));
    println!("\n{:>6} {:>12} {:>10} {:>14}", "batch", "hot edges", "hot debt", "recompressions");
    for (round, batch) in ops.chunks(20).enumerate() {
        let (_, report) = store.apply_batch(hot, batch).expect("workload is valid");
        for &(id, _) in &docs {
            let matches = store.query_str(id, "//message").expect("live doc");
            let _ = matches.len();
        }
        println!(
            "{:>6} {:>12} {:>10} {:>14}{}",
            round + 1,
            store.edge_count(hot).unwrap(),
            store.debt(hot).unwrap(),
            store.recompressions(hot).unwrap(),
            if report.is_empty() { "" } else { "  <- this batch recompressed it" },
        );
    }

    // 3. No batch recompresses another document: the cold ones never were.
    let cold_recompressions: usize = docs[1..]
        .iter()
        .map(|&(id, _)| store.recompressions(id).unwrap())
        .sum();
    println!(
        "\nhot document recompressed {} times; the {} cold documents {} times",
        store.recompressions(hot).unwrap(),
        docs.len() - 1,
        cold_recompressions
    );
    assert_eq!(cold_recompressions, 0);

    // 4. Every document still serializes exactly; the cold ones byte-identically.
    for (i, &(id, ref xml)) in docs.iter().enumerate() {
        let back = store.to_xml(id).expect("live doc");
        if i > 0 {
            assert_eq!(back.to_xml(), xml.to_xml(), "cold doc {i} must be untouched");
        }
    }
    println!("all documents verified against their originals");
}
