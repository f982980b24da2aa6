//! A single op is a batch of one, at every layer.
//!
//! One table over {rename, insert, delete} × {ok, out-of-range target, null
//! target, null label}: `update::apply_update`, `DomStore::apply` and
//! `DurableStore::apply` must agree with their own `apply_batch(&[op])` on
//! everything a caller can observe — grammar bytes, statistics, error value,
//! debt, recompression count, the bytes appended to the WAL — and a request
//! that is rejected before it mutates the grammar must cost nothing on
//! either entry point: the next read gets the *same* `Arc<NavTables>` and no
//! maintenance sweep runs.

use std::sync::Arc;

use slt_xml::grammar_repair::store::SchedulerConfig;
use slt_xml::grammar_repair::update::{apply_batch, apply_update, BatchStats, UpdateStats};
use slt_xml::grammar_repair::wal::testing::FailpointFs;
use slt_xml::grammar_repair::{GrammarRePair, RepairError};
use slt_xml::sltgrammar::serialize;
use slt_xml::xmltree::parse::parse_xml;
use slt_xml::xmltree::updates::UpdateOp;
use slt_xml::xmltree::XmlTree;
use slt_xml::{DocId, DomStore, DurableStore};

/// Ten identical items: every node below the root sits inside compressed
/// rules, so reaching it takes an isolation that grows the grammar.
fn doc() -> XmlTree {
    let mut s = String::from("<feed>");
    for _ in 0..10 {
        s.push_str("<item><title/><body><p/><p/></body></item>");
    }
    s.push_str("</feed>");
    parse_xml(&s).unwrap()
}

/// Binary-tree nodes per `<item>`, and landmarks inside the fifth one.
const ITEM: usize = 10;
const FIFTH_ITEM: usize = 1 + 4 * ITEM;
/// The empty child list of the fifth `<title/>` — a null inside a rule.
const COMPRESSED_NULL: usize = FIFTH_ITEM + 2;
/// The root's empty sibling slot — a null already explicit in the start rule.
const EXPLICIT_NULL: usize = 2 + 10 * ITEM;
const OUT_OF_RANGE: usize = 1_000_000;

/// What a row expects of both entry points.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Outcome {
    /// Applied.
    Ok,
    /// Failed without touching the grammar: free.
    Rejected,
    /// Failed at splice time, after isolation grew the grammar: charged.
    FailedAfterIsolation,
}

fn table() -> Vec<(&'static str, UpdateOp, Outcome)> {
    let rename = |target: usize, label: &str| UpdateOp::Rename {
        target,
        label: label.to_string(),
    };
    let insert = |target: usize| UpdateOp::InsertBefore {
        target,
        fragment: parse_xml("<ad><img/></ad>").unwrap(),
    };
    let delete = |target: usize| UpdateOp::Delete { target };
    vec![
        ("rename ok", rename(FIFTH_ITEM, "entry"), Outcome::Ok),
        ("rename out of range", rename(OUT_OF_RANGE, "entry"), Outcome::Rejected),
        ("rename explicit null", rename(EXPLICIT_NULL, "entry"), Outcome::Rejected),
        (
            "rename compressed null",
            rename(COMPRESSED_NULL, "entry"),
            Outcome::FailedAfterIsolation,
        ),
        ("rename to the null label", rename(FIFTH_ITEM, "#"), Outcome::Rejected),
        ("insert ok", insert(FIFTH_ITEM), Outcome::Ok),
        ("insert out of range", insert(OUT_OF_RANGE), Outcome::Rejected),
        ("insert at a null position", insert(COMPRESSED_NULL), Outcome::Ok),
        ("delete ok", delete(FIFTH_ITEM), Outcome::Ok),
        ("delete out of range", delete(OUT_OF_RANGE), Outcome::Rejected),
        ("delete explicit null", delete(EXPLICIT_NULL), Outcome::Rejected),
        (
            "delete compressed null",
            delete(COMPRESSED_NULL),
            Outcome::FailedAfterIsolation,
        ),
    ]
}

/// What the single-op entry points report of a one-op batch.
fn narrowed(stats: BatchStats) -> UpdateStats {
    assert_eq!((stats.ops, stats.chunks), (1, 1));
    stats.into()
}

fn check_outcome(row: &str, result: &Result<UpdateStats, RepairError>, expect: Outcome) {
    assert_eq!(result.is_ok(), expect == Outcome::Ok, "{row}: {result:?}");
}

#[test]
fn the_landmarks_are_where_the_table_says() {
    let store = DomStore::new();
    let id = store.load_xml(&doc()).unwrap();
    let snap = store.snapshot(id).unwrap();
    assert_eq!(snap.label_at(FIFTH_ITEM as u128).unwrap(), "item");
    assert_eq!(snap.label_at(COMPRESSED_NULL as u128).unwrap(), "#");
    assert_eq!(snap.label_at(EXPLICIT_NULL as u128).unwrap(), "#");
    assert_eq!(snap.derived_size(), EXPLICIT_NULL as u128 + 1);
}

#[test]
fn update_apply_update_is_apply_batch_of_one() {
    let (base, _) = GrammarRePair::default().compress_xml(&doc());
    let pristine = serialize::encode(&base);
    for (row, op, expect) in table() {
        let (mut single, mut batch) = (base.clone(), base.clone());
        let a = apply_update(&mut single, &op);
        let b = apply_batch(&mut batch, std::slice::from_ref(&op)).map(narrowed);
        check_outcome(row, &a, expect);
        assert_eq!(a, b, "{row}: result");
        let bytes = serialize::encode(&single);
        assert_eq!(bytes, serialize::encode(&batch), "{row}: grammar bytes");
        assert_eq!(bytes == pristine, expect == Outcome::Rejected, "{row}: mutation");
        single.validate().unwrap();
    }
}

/// A store holding the test document plus a bystander that owes the
/// scheduler a recompression: any maintenance sweep drains it, so its
/// recompression count tells whether a request triggered one.
fn store_with_bystander() -> (DomStore, DocId, DocId) {
    let store = DomStore::new().with_scheduler(SchedulerConfig {
        debt_threshold: usize::MAX,
        ..SchedulerConfig::default()
    });
    let doc_id = store.load_xml(&doc()).unwrap();
    let bystander = store.load_xml(&doc()).unwrap();
    store
        .apply(
            bystander,
            &UpdateOp::Rename {
                target: FIFTH_ITEM,
                label: "debtor".to_string(),
            },
        )
        .unwrap();
    assert!(store.debt(bystander).unwrap() >= 1);
    store.set_scheduler(SchedulerConfig {
        debt_threshold: 1,
        ..store.scheduler()
    });
    (store, doc_id, bystander)
}

/// Everything observable about one document of a store after a request.
fn observe(store: &DomStore, doc: DocId, bystander: DocId) -> (Vec<u8>, [usize; 5]) {
    (
        serialize::encode(&store.grammar(doc).unwrap()),
        [
            store.edge_count(doc).unwrap(),
            store.debt(doc).unwrap(),
            store.total_updates(doc).unwrap(),
            store.recompressions(doc).unwrap(),
            store.recompressions(bystander).unwrap(),
        ],
    )
}

#[test]
fn dom_store_apply_is_apply_batch_of_one() {
    for (row, op, expect) in table() {
        let (single, single_doc, single_by) = store_with_bystander();
        let (batch, batch_doc, batch_by) = store_with_bystander();
        let tables = || {
            [
                single.nav_tables(single_doc).unwrap(),
                batch.nav_tables(batch_doc).unwrap(),
            ]
        };
        let before = tables();

        let a = single.apply(single_doc, &op).map(|(stats, _)| stats);
        let b = batch
            .apply_batch(batch_doc, std::slice::from_ref(&op))
            .map(|(stats, _)| narrowed(stats));
        check_outcome(row, &a, expect);
        assert_eq!(a, b, "{row}: result");

        for (before, after) in before.iter().zip(&tables()) {
            assert_eq!(
                Arc::ptr_eq(before, after),
                expect == Outcome::Rejected,
                "{row}: a request republishes the snapshot iff it mutated the grammar"
            );
        }
        let seen = observe(&single, single_doc, single_by);
        assert_eq!(seen, observe(&batch, batch_doc, batch_by), "{row}: store state");
        assert_eq!(seen.1[2], usize::from(expect == Outcome::Ok), "{row}: only applied ops count");
        let swept = seen.1[4];
        assert_eq!(
            swept,
            usize::from(expect != Outcome::Rejected),
            "{row}: a sweep runs iff the request mutated the grammar"
        );
    }
}

#[test]
fn durable_store_apply_is_apply_batch_of_one() {
    let open = || {
        let fs = Arc::new(FailpointFs::new());
        let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
        let id = store.load_xml(&doc()).unwrap();
        let logged = fs.file("db/wal.log").unwrap().len();
        (fs, store, id, logged)
    };
    for (row, op, expect) in table() {
        let (single_fs, single, single_doc, single_logged) = open();
        let (batch_fs, batch, batch_doc, batch_logged) = open();
        assert_eq!((single_doc, single_logged), (batch_doc, batch_logged));
        let tables = single.dom().nav_tables(single_doc).unwrap();

        let a = single.apply(single_doc, &op).map(|(stats, _)| stats);
        let b = batch
            .apply_batch(batch_doc, std::slice::from_ref(&op))
            .map(|(stats, _)| narrowed(stats));
        check_outcome(row, &a, expect);
        assert_eq!(a, b, "{row}: result");

        let appended = single_fs.file("db/wal.log").unwrap()[single_logged..].to_vec();
        assert!(!appended.is_empty(), "{row}: logged before it is applied");
        assert_eq!(
            appended,
            batch_fs.file("db/wal.log").unwrap()[batch_logged..],
            "{row}: appended WAL bytes"
        );
        assert_eq!(
            serialize::encode(&single.dom().grammar(single_doc).unwrap()),
            serialize::encode(&batch.dom().grammar(batch_doc).unwrap()),
            "{row}: grammar bytes"
        );
        assert_eq!(
            single.dom().debt(single_doc).unwrap(),
            batch.dom().debt(batch_doc).unwrap(),
            "{row}: debt"
        );
        assert_eq!(
            Arc::ptr_eq(&tables, &single.dom().nav_tables(single_doc).unwrap()),
            expect == Outcome::Rejected,
            "{row}: snapshot"
        );

        // And the record replays to the same document either way.
        let want = single.to_xml(single_doc).unwrap().to_xml();
        drop((single, batch));
        for fs in [single_fs, batch_fs] {
            let (recovered, _) = DurableStore::open_with(fs, "db").unwrap();
            assert_eq!(recovered.to_xml(single_doc).unwrap().to_xml(), want, "{row}: replay");
        }
    }
}
