//! Store-level differential suite: a [`DomStore`] serving several documents
//! under interleaved update schedules must keep **every** document
//! byte-identical to its own uncompressed `xmltree::updates` oracle — and
//! updating one document must never perturb another (cross-document
//! isolation), even while each document's own jobs recompress it between
//! batches, and a document's bytes depend only on its own jobs. Also pins the shared-symbol-table round-trip (shared ids
//! agree across documents, serialization survives rebasing) and the
//! positional read surface (`node_at_preorder` / `nth_element` /
//! `subtree_size`) against cursor stepping across update/recompress cycles.

use slt_xml::datasets::workload::{random_update_sequence, WorkloadMix};
use slt_xml::datasets::Dataset;
use slt_xml::sltgrammar::{serialize, RhsTree, SymbolTable};
use slt_xml::xmltree::binary::{from_binary, to_binary};
use slt_xml::xmltree::parse::parse_xml;
use slt_xml::xmltree::updates::{self as reference, UpdateOp};
use slt_xml::xmltree::XmlTree;
use slt_xml::{DocId, DomStore};

/// The uncompressed ground-truth document, updated via `xmltree::updates`.
struct Oracle {
    bin: RhsTree,
    symbols: SymbolTable,
}

impl Oracle {
    fn new(xml: &XmlTree) -> Self {
        let mut symbols = SymbolTable::new();
        let bin = to_binary(xml, &mut symbols).expect("valid document");
        Oracle { bin, symbols }
    }

    fn apply(&mut self, op: &UpdateOp) {
        reference::apply_update(&mut self.bin, &mut self.symbols, op)
            .expect("oracle rejects a workload operation");
    }

    fn serialization(&self) -> String {
        from_binary(&self.bin, &self.symbols)
            .expect("oracle stays a well-formed document")
            .to_xml()
    }
}

fn store_serialization(store: &DomStore, doc: DocId) -> String {
    store
        .to_xml(doc)
        .expect("document stays materializable")
        .to_xml()
}

/// Three structurally different documents over overlapping alphabets.
fn corpus() -> Vec<XmlTree> {
    let mut feed = String::from("<feed>");
    for i in 0..12 {
        feed.push_str("<item><title/><body><p/><p/></body>");
        if i % 3 == 0 {
            feed.push_str("<tags><t/><t/></tags>");
        }
        feed.push_str("</item>");
    }
    feed.push_str("</feed>");
    let mut blog = String::from("<blog>");
    for _ in 0..9 {
        blog.push_str("<post><title/><body><p/></body><comments><c/><c/></comments></post>");
    }
    blog.push_str("</blog>");
    let mut log = String::from("<log>");
    for _ in 0..15 {
        log.push_str("<entry><ts/><message/><level/></entry>");
    }
    log.push_str("</log>");
    vec![
        parse_xml(&feed).unwrap(),
        parse_xml(&blog).unwrap(),
        parse_xml(&log).unwrap(),
    ]
}

/// Per-document workload mixes with different shapes, so the documents heat
/// up at different rates.
fn workloads(docs: &[XmlTree], count: usize) -> Vec<Vec<UpdateOp>> {
    let mixes = [
        WorkloadMix {
            insert_probability: 0.85,
            rename_probability: 0.3,
            locality: 0.8,
            cluster_every: 10,
            ..WorkloadMix::default()
        },
        WorkloadMix {
            rename_probability: 1.0,
            locality: 0.6,
            cluster_every: 14,
            ..WorkloadMix::default()
        },
        WorkloadMix::clustered(0.9),
    ];
    docs.iter()
        .enumerate()
        .map(|(i, xml)| {
            random_update_sequence(xml, count, 0x57E0 + i as u64, mixes[i % mixes.len()])
        })
        .collect()
}

#[test]
fn interleaved_updates_across_documents_stay_byte_identical_to_their_oracles() {
    let docs = corpus();
    let ops = workloads(&docs, 48);
    // Small threshold: the scheduler recompresses mid-schedule.
    let store = DomStore::new().with_debt_threshold(60);
    let ids: Vec<DocId> = docs.iter().map(|x| store.load_xml(x).unwrap()).collect();
    let mut oracles: Vec<Oracle> = docs.iter().map(Oracle::new).collect();

    // Interleave: round-robin over the documents, alternating batched and
    // single-operation ingestion per round.
    let chunk = 6;
    let rounds = ops[0].len() / chunk;
    for round in 0..rounds {
        for (d, &id) in ids.iter().enumerate() {
            let batch = &ops[d][round * chunk..(round + 1) * chunk];
            if (round + d) % 2 == 0 {
                for op in batch {
                    oracles[d].apply(op);
                    store.apply_batch(id, std::slice::from_ref(op)).expect("workload is valid");
                }
            } else {
                for op in batch {
                    oracles[d].apply(op);
                }
                store.apply_batch(id, batch).expect("workload is valid");
            }
            // The updated document matches its oracle…
            assert_eq!(
                store_serialization(&store, id),
                oracles[d].serialization(),
                "doc {d} diverged in round {round}"
            );
            // …and no *other* document moved (cross-document isolation).
            for (other, &oid) in ids.iter().enumerate() {
                if other != d {
                    assert_eq!(
                        store_serialization(&store, oid),
                        oracles[other].serialization(),
                        "updating doc {d} perturbed doc {other} in round {round}"
                    );
                }
            }
        }
    }
    let total_recompressions: usize = ids.iter().map(|&id| store.recompressions(id).unwrap()).sum();
    assert!(
        total_recompressions >= 2,
        "the schedule must actually exercise the scheduler, got {total_recompressions}"
    );
    for &id in &ids {
        store.grammar(id).unwrap().validate().unwrap();
    }
}

#[test]
fn updating_one_document_never_invalidates_anothers_tables() {
    let docs = corpus();
    let store = DomStore::new();
    let a = store.load_xml(&docs[0]).unwrap();
    let b = store.load_xml(&docs[1]).unwrap();
    let b_before = store_serialization(&store, b);
    let b_tables = store.nav_tables(b).unwrap();
    let ops = workloads(&docs[..1], 30).remove(0);
    for batch in ops.chunks(10) {
        store.apply_batch(a, batch).expect("workload is valid");
    }
    store.recompress(a).unwrap();
    // B's serialization, cached tables and debt are untouched.
    assert_eq!(store_serialization(&store, b), b_before);
    let b_tables_after = store.nav_tables(b).unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&b_tables, &b_tables_after),
        "doc B's cached tables must survive doc A's updates"
    );
    assert_eq!(store.debt(b).unwrap(), 0);
    assert_eq!(store.recompressions(b).unwrap(), 0);
}

#[test]
fn shared_table_round_trips_and_beats_private_tables() {
    let docs = corpus();
    let store = DomStore::new();
    let ids: Vec<DocId> = docs.iter().map(|x| store.load_xml(x).unwrap()).collect();
    // Byte-identical round trip for every document through the shared table.
    for (xml, &id) in docs.iter().zip(&ids) {
        assert_eq!(store_serialization(&store, id), xml.to_xml());
    }
    // Shared ids agree across all documents and the master.
    for name in ["title", "body", "p", "#"] {
        let master_id = store.symbols().get(name).expect("common label interned");
        for &id in &ids {
            let table = &store.grammar(id).unwrap().symbols;
            assert_eq!(table.get(name), Some(master_id), "id of `{name}` must agree");
            assert_eq!(table.name(master_id), name);
        }
    }
    // The resident footprint beats per-document tables on this corpus.
    let stats = store.symbol_stats();
    assert!(
        stats.resident_bytes() < stats.unshared_bytes,
        "sharing must reduce resident label-table bytes: {stats:?}"
    );
    // Serialize/decode round trip per document (private table view).
    for &id in &ids {
        let g = store.grammar(id).unwrap();
        let bytes = slt_xml::sltgrammar::serialize::encode(&g);
        let back = slt_xml::sltgrammar::serialize::decode(&bytes).unwrap();
        assert_eq!(
            from_binary(
                &slt_xml::sltgrammar::derive::val(&back).unwrap(),
                &back.symbols
            )
            .unwrap()
            .to_xml(),
            store_serialization(&store, id)
        );
    }
}

#[test]
fn update_interned_labels_stay_private_to_their_document() {
    let docs = corpus();
    let store = DomStore::new();
    let a = store.load_xml(&docs[0]).unwrap();
    let b = store.load_xml(&docs[1]).unwrap();
    // Rename an element of A to a label no document has seen.
    store
        .apply_batch(
            a,
            &[UpdateOp::Rename {
                target: 1,
                label: "only_in_a".to_string(),
            }],
        )
        .unwrap();
    let ga = store.grammar(a).unwrap();
    let gb = store.grammar(b).unwrap();
    assert!(ga.symbols.get("only_in_a").is_some());
    assert!(gb.symbols.get("only_in_a").is_none(), "B must not see A's label");
    assert!(
        store.symbols().get("only_in_a").is_none(),
        "the master only holds load-time alphabets"
    );
    // The private label lives in A's local tail, above the shared prefix.
    let id = ga.symbols.get("only_in_a").unwrap();
    assert!(id.index() >= ga.symbols.shared_len());
    assert!(ga.symbols.local_heap_bytes() > 0);
    assert_eq!(gb.symbols.local_heap_bytes(), 0);
}

#[test]
fn positional_reads_agree_with_cursor_stepping_across_update_cycles() {
    let docs = corpus();
    let ops = workloads(&docs, 24);
    let mut store = DomStore::new().with_debt_threshold(80);
    let ids: Vec<DocId> = docs.iter().map(|x| store.load_xml(x).unwrap()).collect();

    let check_doc = |store: &mut DomStore, id: DocId, context: &str| {
        let total = store.derived_size(id).unwrap();
        // Step a cursor through the whole document; at every position the
        // positional jump and the stepper must agree on label, subtree size
        // and element numbering.
        let tables = store.nav_tables(id).unwrap();
        let grammar = store.grammar(id).unwrap();
        let mut stepper = slt_xml::Cursor::with_tables(&grammar, tables.clone());
        let mut elements: u128 = 0;
        let mut sizes: Vec<u128> = Vec::new();
        for idx in 0..total {
            let mut jumper = slt_xml::Cursor::with_tables(&grammar, tables.clone());
            assert!(jumper.node_at_preorder(idx), "{context}: index {idx} in range");
            assert_eq!(jumper.label(), stepper.label(), "{context}: label at {idx}");
            assert_eq!(
                jumper.subtree_size(),
                stepper.subtree_size(),
                "{context}: subtree size at {idx}"
            );
            sizes.push(stepper.subtree_size());
            if !stepper.is_null() {
                let mut nth = slt_xml::Cursor::with_tables(&grammar, tables.clone());
                assert!(nth.nth_element(elements), "{context}: element {elements}");
                assert_eq!(nth.label(), stepper.label());
                elements += 1;
            }
            if stepper.rank() > 0 {
                stepper.down(0);
            } else {
                loop {
                    match stepper.up() {
                        None => break,
                        Some(i) if i + 1 < stepper.rank() => {
                            stepper.down(i + 1);
                            break;
                        }
                        Some(_) => continue,
                    }
                }
            }
        }
        assert!(!slt_xml::Cursor::with_tables(&grammar, tables).node_at_preorder(total));
        // Subtree sizes are consistent: each node's size is 1 + children.
        // (Cheap sanity on top of the cross-check above: the root covers all.)
        assert_eq!(sizes[0], total, "{context}: root subtree covers the document");
    };

    for (d, &id) in ids.iter().enumerate() {
        check_doc(&mut store, id, &format!("doc {d} fresh"));
    }
    for (round, chunk) in [0usize, 1, 2].into_iter().zip(ops[0].chunks(8)) {
        for (d, &id) in ids.iter().enumerate() {
            if d == 0 {
                store.apply_batch(id, chunk).expect("workload is valid");
            }
            check_doc(&mut store, id, &format!("doc {d} after round {round}"));
        }
    }
    // And once more after a forced recompression.
    store.recompress(ids[0]).unwrap();
    check_doc(&mut store, ids[0], "doc 0 after forced recompression");
}

/// A document's bytes depend only on its own jobs, not on how they were
/// grouped into calls or on what other documents owe. The live store drains
/// two documents' 4-op batches together, `[A, A, B]` per
/// `apply_batch_many`; the twin applies each document's batches alone, one
/// `apply_batch` at a time, document by document. Every document must end
/// with the same bytes and the same number of recompressions.
#[test]
fn a_documents_bytes_depend_only_on_its_own_jobs() {
    const THRESHOLD: usize = 48;
    let docs = [Dataset::ExiWeblog.generate(0.02), Dataset::XMark.generate(0.02)];
    let loaded = |store: &DomStore| -> Vec<DocId> {
        docs.iter().map(|x| store.load_xml(x).unwrap()).collect()
    };
    for seed in 1..=6u64 {
        let batches: Vec<Vec<Vec<UpdateOp>>> = docs
            .iter()
            .map(|xml| {
                random_update_sequence(xml, 64, seed, WorkloadMix::clustered(0.8))
                    .chunks(4)
                    .map(<[UpdateOp]>::to_vec)
                    .collect()
            })
            .collect();

        let live = DomStore::new().with_debt_threshold(THRESHOLD);
        let ids = loaded(&live);
        let (mut a, mut b) = (batches[0].iter(), batches[1].iter());
        loop {
            let jobs: Vec<(DocId, Vec<UpdateOp>)> = a
                .by_ref()
                .take(2)
                .map(|ops| (ids[0], ops.clone()))
                .chain(b.next().map(|ops| (ids[1], ops.clone())))
                .collect();
            if jobs.is_empty() {
                break;
            }
            let (results, _) = live.apply_batch_many(&jobs);
            assert!(results.iter().all(Result::is_ok), "seed {seed}: workload is valid");
        }

        let twin = DomStore::new().with_debt_threshold(THRESHOLD);
        let twin_ids = loaded(&twin);
        for (&id, doc_batches) in twin_ids.iter().zip(&batches) {
            for ops in doc_batches {
                twin.apply_batch(id, ops).expect("workload is valid");
            }
        }

        for (d, (&id, &twin_id)) in ids.iter().zip(&twin_ids).enumerate() {
            let context = format!("seed {seed}, document {d}");
            let (got, want) = (
                serialize::encode(&live.grammar(id).unwrap()),
                serialize::encode(&twin.grammar(twin_id).unwrap()),
            );
            assert!(got == want, "{context}: grammar bytes differ ({} vs {} B)", got.len(), want.len());
            assert_eq!(
                live.recompressions(id).unwrap(),
                twin.recompressions(twin_id).unwrap(),
                "{context}: recompressions"
            );
        }
    }
}
