//! Concurrent reads, parallel writes, recompression under readers — one
//! [`DomStore`] shared across threads.
//!
//! The walkthrough loads a fleet of documents (in parallel), then serves a
//! mixed workload: reader threads stream and query snapshots, never waiting
//! on a writer's work, while a writer thread pushes update batches. A batch
//! that leaves its document due for recompression recompresses it on the
//! writer's own thread, aside, and atomically swaps the new snapshot in. A
//! snapshot taken before the churn is kept alive throughout and verified
//! byte-stable at the end — the MVCC guarantee in one line of output.
//!
//! Run with: `cargo run --release --example concurrent_store`

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use slt_xml::datasets::catalog::Dataset;
use slt_xml::datasets::workload::{random_update_sequence, WorkloadMix};
use slt_xml::{DomStore, PathQuery};

fn main() {
    // 1. Load six similar documents in parallel through `load_many` — ids
    //    and grammars are identical to sequential loads, the compression
    //    work fans out over a small worker pool.
    let fleet: Vec<_> = (0..6)
        .map(|i| Dataset::ExiWeblog.generate(0.02 + 0.004 * i as f64))
        .collect();
    let store = DomStore::new().with_debt_threshold(300);
    let ids = store.load_many(&fleet).expect("dataset labels intern");
    println!(
        "loaded {} documents in parallel across {} shared symbols",
        store.len(),
        store.symbol_stats().master_symbols
    );

    // 2. Pin a snapshot of the hot document *before* any churn: it must be
    //    byte-stable however much the document changes behind it.
    let hot = ids[0];
    let pinned = store.snapshot(hot).expect("live doc");
    let pinned_bytes = pinned.to_xml().expect("small doc").to_xml();

    let ops = random_update_sequence(&fleet[0], 160, 42, WorkloadMix::clustered(0.85));
    let reads = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let store_ref = &store;
    let ids_ref = &ids;
    let reads_ref = &reads;
    let done_ref = &done;
    std::thread::scope(|scope| {
        // Writer: push the whole schedule in batches against the hot doc.
        scope.spawn(move || {
            for batch in ops.chunks(8) {
                store_ref
                    .apply_batch(hot, batch)
                    .expect("workload stays valid");
                std::thread::sleep(Duration::from_micros(300));
            }
            done_ref.store(true, Ordering::Relaxed);
        });
        // Readers: snapshot reads over the whole fleet, running at full
        // speed while the writer updates and recompresses the hot document.
        for t in 0..3usize {
            scope.spawn(move || {
                let query = PathQuery::parse("//message").expect("valid query");
                let mut round = t;
                while !done_ref.load(Ordering::Relaxed) {
                    let id = ids_ref[round % ids_ref.len()];
                    round += 1;
                    let snap = store_ref.snapshot(id).expect("live doc");
                    let hits = snap.query(&query).len() as u128;
                    assert_eq!(hits, snap.query_count(&query));
                    reads_ref.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    // 3. The numbers: reads served during the churn, the writer's own
    //    recompressions, and the pinned snapshot still byte-identical to the
    //    pre-churn state.
    println!(
        "served {} snapshot reads while updating; the writer's batches recompressed the hot doc {} times",
        reads.load(Ordering::Relaxed),
        store.recompressions(hot).expect("live doc"),
    );
    assert_eq!(
        pinned.to_xml().expect("still readable").to_xml(),
        pinned_bytes,
        "a held snapshot never changes"
    );
    println!("pinned pre-churn snapshot verified byte-stable across all swaps");
    let cold_drains: usize = ids[1..]
        .iter()
        .map(|&id| store.recompressions(id).expect("live doc"))
        .sum();
    println!(
        "cold documents recompressed {cold_drains} times (only a document's own debt triggers it)"
    );
}
