//! A single op is a batch of one, at every layer.
//!
//! One table over {rename, insert, delete} × {ok, out-of-range target, null
//! target, null label}. `update::apply_update` must agree with
//! `update::apply_batch(&[op])`, and `DomStore::apply_batch(&[op])` and
//! `DurableStore::apply_batch(&[op])` must agree with `update::apply_batch`
//! on a twin grammar, on everything a caller can observe: grammar bytes,
//! statistics, error value, edges, debt, update and recompression counts,
//! the bytes appended to the WAL, the replayed document. A request that is
//! rejected before it mutates the grammar must cost nothing: the next read
//! gets the *same* `Arc<NavTables>` and nothing is recompressed. No request
//! recompresses another document.

use std::sync::Arc;

use slt_xml::grammar_repair::update::{apply_batch, apply_update, BatchStats};
use slt_xml::grammar_repair::wal::testing::FailpointFs;
use slt_xml::grammar_repair::wal::{encode_frame, WalRecord};
use slt_xml::grammar_repair::{GrammarRePair, RepairError};
use slt_xml::sltgrammar::{serialize, Grammar};
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

fn check_outcome(row: &str, result: &Result<BatchStats, RepairError>, expect: Outcome) {
    assert_eq!(result.is_ok(), expect == Outcome::Ok, "{row}: {result:?}");
    if let Ok(stats) = result {
        assert_eq!((stats.ops, stats.chunks), (1, 1), "{row}: a batch of one");
    }
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
        let b = apply_batch(&mut batch, std::slice::from_ref(&op));
        check_outcome(row, &a, expect);
        assert_eq!(a, b, "{row}: result");
        let bytes = serialize::encode(&single);
        assert_eq!(bytes, serialize::encode(&batch), "{row}: grammar bytes");
        assert_eq!(bytes == pristine, expect == Outcome::Rejected, "{row}: mutation");
        single.validate().unwrap();
    }
}

/// A store holding the test document plus a bystander that owes a
/// recompression: a sweep over the whole store would drain it, so its
/// recompression count staying 0 shows that a request recompresses no other
/// document.
fn store_with_bystander() -> (DomStore, DocId, DocId) {
    let store = DomStore::new().with_debt_threshold(usize::MAX);
    let doc_id = store.load_xml(&doc()).unwrap();
    let bystander = store.load_xml(&doc()).unwrap();
    store
        .apply_batch(
            bystander,
            &[UpdateOp::Rename {
                target: FIFTH_ITEM,
                label: "debtor".to_string(),
            }],
        )
        .unwrap();
    assert!(store.debt(bystander).unwrap() >= 1);
    store.set_debt_threshold(1);
    (store, doc_id, bystander)
}

/// Everything observable about one document of a store after a request:
/// its grammar bytes, then [edges, debt, updates, its recompressions, the
/// bystander's recompressions].
type Observed = (Vec<u8>, [usize; 5]);

fn observe(store: &DomStore, doc: DocId, bystander: DocId) -> Observed {
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

/// What [`observe`] must see after `op` on a store whose document was
/// `base`: the twin grammar after `update::apply_batch(&[op])`, then the
/// recompression at debt threshold 1 that runs iff the request mutated the
/// grammar. The bystander is never recompressed.
fn twin(base: &Grammar, op: &UpdateOp) -> (Result<BatchStats, RepairError>, Observed) {
    let mut twin = base.clone();
    let result = apply_batch(&mut twin, std::slice::from_ref(op));
    let mutated = serialize::encode(&twin) != serialize::encode(base);
    let debt = twin.edge_count().saturating_sub(base.edge_count());
    let drained = mutated && debt >= 1;
    if drained {
        GrammarRePair::default().recompress(&mut twin);
    }
    let counters = [
        twin.edge_count(),
        if drained { 0 } else { debt },
        usize::from(result.is_ok()),
        usize::from(drained),
        0,
    ];
    (result, (serialize::encode(&twin), counters))
}

#[test]
fn dom_store_batch_of_one_matches_its_twin_grammar() {
    for (row, op, expect) in table() {
        let (store, doc, bystander) = store_with_bystander();
        let (want, want_seen) = twin(&store.grammar(doc).unwrap(), &op);
        let before = store.nav_tables(doc).unwrap();

        let got = store
            .apply_batch(doc, std::slice::from_ref(&op))
            .map(|(stats, _)| stats);
        check_outcome(row, &got, expect);
        assert_eq!(got, want, "{row}: result");

        assert_eq!(
            Arc::ptr_eq(&before, &store.nav_tables(doc).unwrap()),
            expect == Outcome::Rejected,
            "{row}: a request republishes the snapshot iff it mutated the grammar"
        );
        let seen = observe(&store, doc, bystander);
        assert_eq!(seen, want_seen, "{row}: store state");
        assert_eq!(seen.1[2], usize::from(expect == Outcome::Ok), "{row}: only applied ops count");
        assert_eq!(seen.1[4], 0, "{row}: a request never recompresses another document");
    }
}

#[test]
fn durable_store_batch_of_one_matches_its_twin_grammar() {
    for (row, op, expect) in table() {
        let fs = Arc::new(FailpointFs::new());
        let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
        let doc = store.load_xml(&doc()).unwrap();
        let logged = fs.file("db/wal.log").unwrap().len();
        let base = store.dom().grammar(doc).unwrap();
        let mut twin = (*base).clone();
        let want = apply_batch(&mut twin, std::slice::from_ref(&op));
        let tables = store.dom().nav_tables(doc).unwrap();

        let got = store
            .apply_batch(doc, std::slice::from_ref(&op))
            .map(|(stats, _)| stats);
        check_outcome(row, &got, expect);
        assert_eq!(got, want, "{row}: result");

        // Logged before it is applied, as the load's successor.
        let record = WalRecord::ApplyBatch { doc, ops: std::slice::from_ref(&op) };
        assert_eq!(
            fs.file("db/wal.log").unwrap()[logged..],
            encode_frame(2, &record),
            "{row}: appended WAL bytes"
        );
        assert_eq!(
            serialize::encode(&store.dom().grammar(doc).unwrap()),
            serialize::encode(&twin),
            "{row}: grammar bytes"
        );
        assert_eq!(
            store.dom().debt(doc).unwrap(),
            twin.edge_count().saturating_sub(base.edge_count()),
            "{row}: debt"
        );
        assert_eq!(
            Arc::ptr_eq(&tables, &store.dom().nav_tables(doc).unwrap()),
            expect == Outcome::Rejected,
            "{row}: snapshot"
        );

        // And the record replays to the same document.
        let want_xml = store.to_xml(doc).unwrap().to_xml();
        drop(store);
        let (recovered, _) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(recovered.to_xml(doc).unwrap().to_xml(), want_xml, "{row}: replay");
    }
}
