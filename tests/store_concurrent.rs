//! Concurrency differential suite for the sharded [`DomStore`].
//!
//! The store promises snapshot semantics: readers take no locks, never see a
//! torn document, and a snapshot held across concurrent updates and
//! recompressions stays byte-stable; writers to distinct documents proceed
//! in parallel and the final state is byte-identical to a single-threaded
//! replay of the same per-document schedules: the same document as the
//! uncompressed oracle, and the same grammar bytes as a one-thread store,
//! since each job recompresses its own document on its own thread. These
//! tests drive N reader threads and per-document writer threads against
//! each other and pin all of that. The schedules are deterministic; the
//! *interleavings* are not — CI runs this suite several times in release
//! mode to shake out races.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use slt_xml::datasets::workload::{random_update_sequence, WorkloadMix};
use slt_xml::sltgrammar::{serialize, RhsTree, SymbolTable};
use slt_xml::xmltree::binary::{from_binary, to_binary};
use slt_xml::xmltree::parse::parse_xml;
use slt_xml::xmltree::updates::{self as reference, UpdateOp};
use slt_xml::xmltree::XmlTree;
use slt_xml::{DocId, DomStore};

/// Structurally different documents over overlapping alphabets.
fn corpus() -> Vec<XmlTree> {
    let mut feed = String::from("<feed>");
    for _ in 0..10 {
        feed.push_str("<item><title/><body><p/><p/></body></item>");
    }
    feed.push_str("</feed>");
    let mut blog = String::from("<blog>");
    for _ in 0..8 {
        blog.push_str("<post><title/><body><p/></body><comments><c/><c/></comments></post>");
    }
    blog.push_str("</blog>");
    let mut log = String::from("<log>");
    for _ in 0..12 {
        log.push_str("<entry><ts/><message/><level/></entry>");
    }
    log.push_str("</log>");
    vec![
        parse_xml(&feed).unwrap(),
        parse_xml(&blog).unwrap(),
        parse_xml(&log).unwrap(),
    ]
}

fn workload(xml: &XmlTree, count: usize, seed: u64) -> Vec<UpdateOp> {
    random_update_sequence(
        xml,
        count,
        seed,
        WorkloadMix {
            insert_probability: 0.7,
            rename_probability: 0.5,
            locality: 0.7,
            cluster_every: 9,
            ..WorkloadMix::default()
        },
    )
}

/// Replays one op schedule on the uncompressed binary oracle.
fn oracle_serialization(xml: &XmlTree, ops: &[UpdateOp]) -> String {
    let mut symbols = SymbolTable::new();
    let mut bin: RhsTree = to_binary(xml, &mut symbols).expect("valid document");
    for op in ops {
        reference::apply_update(&mut bin, &mut symbols, op).expect("workload stays valid");
    }
    from_binary(&bin, &symbols)
        .expect("oracle stays a well-formed document")
        .to_xml()
}

/// The tentpole guarantee, compile-checked: the store and its snapshots
/// cross threads, and reads are `&self`.
#[test]
fn store_is_send_sync_and_shared_references_read_from_any_thread() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DomStore>();
    assert_send_sync::<slt_xml::Snapshot>();

    let store = DomStore::new();
    let ids: Vec<DocId> = corpus().iter().map(|x| store.load_xml(x).unwrap()).collect();
    let store = &store; // plain shared reference — no Arc needed
    let ids = &ids;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                scope.spawn(move || {
                    let mut reads = 0usize;
                    for round in 0..25 {
                        let id = ids[(t + round) % ids.len()];
                        let snap = store.snapshot(id).unwrap();
                        // Internal consistency of one snapshot.
                        assert_eq!(snap.preorder_labels().count() as u128, snap.derived_size());
                        let hits = store.query_str(id, "//title").unwrap();
                        assert_eq!(
                            hits.len() as u128,
                            store
                                .query_count(id, &slt_xml::PathQuery::parse("//title").unwrap())
                                .unwrap()
                        );
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 25);
        }
    });
}

/// N readers traverse and query while one writer per document batches
/// updates, its own jobs recompressing the document once it is due. Readers
/// must only ever observe internally consistent snapshots. The final state
/// must serialize like the single-threaded oracle replay of each document's
/// schedule, and encode to the same grammar bytes as a one-thread twin
/// store that applies the same batches.
#[test]
fn concurrent_readers_writers_and_recompression_converge_to_the_oracle() {
    let docs = corpus();
    let schedules: Vec<Vec<UpdateOp>> = docs
        .iter()
        .enumerate()
        .map(|(i, xml)| workload(xml, 36, 0xC0DE + i as u64))
        .collect();

    let store = DomStore::new().with_debt_threshold(40);
    let ids: Vec<DocId> = docs.iter().map(|x| store.load_xml(x).unwrap()).collect();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // One writer per document: apply its schedule in small batches, with
        // short pauses so readers and the other writers interleave.
        for (d, &id) in ids.iter().enumerate() {
            let schedule = &schedules[d];
            let store = &store;
            scope.spawn(move || {
                for batch in schedule.chunks(4) {
                    store.apply_batch(id, batch).expect("workload stays valid");
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }
        // Readers: hammer snapshots of all documents until the writers stop.
        for t in 0..3usize {
            let store = &store;
            let ids = &ids;
            let done = &done;
            scope.spawn(move || {
                let mut round = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let id = ids[(t + round) % ids.len()];
                    round += 1;
                    let snap = store.snapshot(id).unwrap();
                    // A snapshot is one consistent version: streaming its
                    // preorder must agree with its own size tables, whatever
                    // the writers are doing meanwhile.
                    assert_eq!(snap.preorder_labels().count() as u128, snap.derived_size());
                    let q = slt_xml::PathQuery::parse("//title").unwrap();
                    assert_eq!(snap.query(&q).len() as u128, snap.query_count(&q));
                    let mut cursor = snap.cursor();
                    assert_eq!(cursor.subtree_size(), snap.derived_size());
                    while cursor.doc_first_child() {}
                }
            });
        }
        // Watchdog: once every document has absorbed its full schedule,
        // release the readers (the scope then joins everyone).
        let store = &store;
        let ids = &ids;
        let done = &done;
        scope.spawn(move || loop {
            let total: usize = ids
                .iter()
                .map(|&id| store.total_updates(id).unwrap())
                .sum();
            if total == 36 * ids.len() {
                done.store(true, Ordering::Relaxed);
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        });
    });

    // The one-thread twin: same loads, each schedule in the same batches.
    let twin = DomStore::new().with_debt_threshold(40);
    let twin_ids: Vec<DocId> = docs.iter().map(|x| twin.load_xml(x).unwrap()).collect();
    for (&id, schedule) in twin_ids.iter().zip(&schedules) {
        for batch in schedule.chunks(4) {
            twin.apply_batch(id, batch).expect("workload stays valid");
        }
    }

    // Byte-identical to the single-threaded oracle replay, per document,
    // and to the twin's grammar bytes.
    for (d, (&id, xml)) in ids.iter().zip(&docs).enumerate() {
        assert_eq!(
            store.to_xml(id).unwrap().to_xml(),
            oracle_serialization(xml, &schedules[d]),
            "doc {d} diverged from its oracle replay"
        );
        assert_eq!(
            serialize::encode(&store.grammar(id).unwrap()),
            serialize::encode(&twin.grammar(twin_ids[d]).unwrap()),
            "doc {d}: grammar bytes differ from the one-thread twin's"
        );
        store.grammar(id).unwrap().validate().unwrap();
        assert_eq!(store.total_updates(id).unwrap(), 36);
    }
    // The run must actually have exercised recompression under the readers.
    let recompressions: usize = ids
        .iter()
        .map(|&id| store.recompressions(id).unwrap())
        .sum();
    assert!(
        recompressions >= 1,
        "the schedule must trigger recompression"
    );
}

/// A held snapshot is immutable across updates and recompression swaps: same
/// serialization, same `NavTables` `Arc`, while fresh reads see a different
/// grammar `Arc` with the new state.
#[test]
fn old_snapshots_survive_atomic_swaps_untouched() {
    let docs = corpus();
    let store = DomStore::new();
    let id = store.load_xml(&docs[0]).unwrap();

    let old = store.snapshot(id).unwrap();
    let old_serialization = old.to_xml().unwrap().to_xml();
    let old_grammar = old.grammar_arc();
    let old_tables = old.nav_tables();

    let ops = workload(&docs[0], 24, 0xBEEF);
    for batch in ops.chunks(6) {
        store.apply_batch(id, batch).expect("workload stays valid");
    }
    store.recompress(id).unwrap();

    // The old snapshot still reads the pre-update state, bit for bit…
    assert_eq!(old.to_xml().unwrap().to_xml(), old_serialization);
    assert!(Arc::ptr_eq(&old.grammar_arc(), &old_grammar));
    assert!(Arc::ptr_eq(&old.nav_tables(), &old_tables));
    assert_eq!(old.preorder_labels().count() as u128, old.derived_size());

    // …while the store serves the new version through a new snapshot.
    let new = store.snapshot(id).unwrap();
    assert!(!Arc::ptr_eq(&new.grammar_arc(), &old_grammar));
    assert_eq!(
        new.to_xml().unwrap().to_xml(),
        oracle_serialization(&docs[0], &ops)
    );
    // Dropping the old snapshot releases the old version without touching
    // the published one.
    drop(old);
    assert_eq!(store.to_xml(id).unwrap().to_xml(), new.to_xml().unwrap().to_xml());
}

/// Generation-tagged ids under concurrent churn: stale ids always error (no
/// slot aliasing), live documents are never disturbed, and maintenance
/// sweeps skip dead slots.
#[test]
fn stale_doc_ids_error_under_concurrent_churn() {
    let docs = corpus();
    let store = DomStore::new();
    let keeper = store.load_xml(&docs[0]).unwrap();
    let keeper_bytes = store.to_xml(keeper).unwrap().to_xml();

    let store = &store;
    std::thread::scope(|scope| {
        // Churners: load and remove in a loop, holding ids beyond removal.
        for t in 0..3usize {
            let xml = &docs[1 + t % 2];
            scope.spawn(move || {
                for _ in 0..20 {
                    let id = store.load_xml(xml).unwrap();
                    assert!(store.contains(id));
                    store.remove(id).unwrap();
                    // The id is dead from every surface, immediately.
                    assert!(!store.contains(id));
                    assert!(store.snapshot(id).is_err());
                    assert!(store.query_str(id, "//title").is_err());
                    assert!(store.apply_batch(id, &[UpdateOp::Delete { target: 1 }]).is_err());
                    assert!(store.remove(id).is_err());
                }
            });
        }
        // Maintenance sweeps run concurrently and only ever see live docs.
        scope.spawn(move || {
            for _ in 0..40 {
                let report = store.maintain();
                for (id, _) in &report.drained {
                    assert!(store.contains(*id) || store.snapshot(*id).is_err());
                }
                std::thread::yield_now();
            }
        });
    });

    assert_eq!(store.to_xml(keeper).unwrap().to_xml(), keeper_bytes);
    // Slots were recycled, generations were not: every live id is unique and
    // the slab stayed bounded by the peak live count.
    let live = store.doc_ids();
    assert_eq!(live.len(), 1);
    assert_eq!(live[0], keeper);
}

/// The parallel multi-document paths are semantically invisible:
/// `load_many` and `apply_batch_many` produce stores byte-identical (same
/// ids, same symbols, same grammars) to their sequential counterparts.
#[test]
fn parallel_multi_doc_operations_match_sequential_execution() {
    let docs = corpus();
    let schedules: Vec<Vec<UpdateOp>> = docs
        .iter()
        .enumerate()
        .map(|(i, xml)| workload(xml, 18, 0xFADE + i as u64))
        .collect();

    // Sequential reference run.
    let sequential = DomStore::new();
    let seq_ids: Vec<DocId> = docs.iter().map(|x| sequential.load_xml(x).unwrap()).collect();
    for (&id, ops) in seq_ids.iter().zip(&schedules) {
        sequential.apply_batch(id, ops).expect("workload stays valid");
    }

    // Parallel run: fan out both the loads and the cross-document batches.
    let parallel = DomStore::new();
    let par_ids = parallel.load_many(&docs).unwrap();
    assert_eq!(par_ids, seq_ids, "load_many must assign sequential ids");
    let jobs: Vec<(DocId, Vec<UpdateOp>)> = par_ids
        .iter()
        .zip(&schedules)
        .map(|(&id, ops)| (id, ops.clone()))
        .collect();
    let (results, _) = parallel.apply_batch_many(&jobs);
    for result in results {
        result.expect("workload stays valid");
    }

    assert_eq!(parallel.symbols().len(), sequential.symbols().len());
    for (d, (&p, &s)) in par_ids.iter().zip(&seq_ids).enumerate() {
        assert_eq!(
            parallel.to_xml(p).unwrap().to_xml(),
            sequential.to_xml(s).unwrap().to_xml(),
            "doc {d}: parallel and sequential runs must agree byte for byte"
        );
        assert_eq!(
            parallel.total_updates(p).unwrap(),
            sequential.total_updates(s).unwrap()
        );
        // Same shared-alphabet assignment, spot-checked per document.
        let pg = parallel.grammar(p).unwrap();
        let sg = sequential.grammar(s).unwrap();
        for name in ["title", "body", "#"] {
            assert_eq!(pg.symbols.get(name), sg.symbols.get(name), "doc {d}: id of {name}");
        }
        pg.validate().unwrap();
    }
}
