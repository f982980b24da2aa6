//! Differential read-path oracle harness.
//!
//! The fast read paths — the table-backed [`Cursor`], the array-stepping
//! [`PreorderLabels`] machine and the memoized, output-sensitive
//! [`PathQuery::evaluate`] — must be byte-/position-identical to their naive
//! oracles:
//!
//! * the pointer-tree document order and the materialized binary tree,
//! * the cursor-free uncompressed query evaluation
//!   (`PathQuery::evaluate_uncompressed`), and
//! * the previous streaming evaluator (`PathQuery::evaluate_streaming`),
//!
//! on the heterogeneous corpus **and across update/recompress cycles driven
//! through a [`DomStore`]** — the latter catches stale [`NavTables`]
//! snapshots: every batch and every recompression bumps rule versions, and
//! the store must publish fresh tables before the next read.

use proptest::prelude::*;
use slt_xml::datasets::catalog::Dataset;
use slt_xml::datasets::regular::heterogeneous_records_like;
use slt_xml::datasets::workload::{random_update_sequence, WorkloadMix};
use slt_xml::grammar_repair::navigate::{term_counts, Cursor, NavTables, PreorderLabels};
use slt_xml::grammar_repair::query::{Axis, PathQuery, QueryMatches};
use slt_xml::grammar_repair::repair::GrammarRePair;
use slt_xml::grammar_repair::store::SchedulerConfig;
use slt_xml::sltgrammar::{NodeKind, RhsTree, SymbolTable};
use slt_xml::treerepair::TreeRePair;
use slt_xml::xmltree::binary::to_binary;
use slt_xml::xmltree::parse::parse_xml;
use slt_xml::xmltree::updates::{self as reference, UpdateOp};
use slt_xml::xmltree::XmlTree;
use slt_xml::DomStore;
use std::sync::Arc;

/// Document-order element labels through the cursor's document view.
fn doc_labels_via_cursor(cursor: &mut Cursor<'_>) -> Vec<String> {
    let mut labels = Vec::new();
    'outer: loop {
        labels.push(cursor.label().to_string());
        if cursor.doc_first_child() {
            continue;
        }
        loop {
            if cursor.doc_next_sibling() {
                break;
            }
            if !cursor.doc_parent() {
                break 'outer;
            }
        }
    }
    labels
}

fn doc_labels(xml: &XmlTree) -> Vec<String> {
    xml.preorder()
        .iter()
        .map(|&n| xml.label(n).to_string())
        .collect()
}

/// Binary-tree preorder labels (the `PreorderLabels` oracle).
fn binary_labels(bin: &RhsTree, symbols: &SymbolTable) -> Vec<String> {
    bin.preorder()
        .iter()
        .map(|&n| match bin.kind(n) {
            NodeKind::Term(t) => symbols.name(t).to_string(),
            _ => unreachable!("binary trees contain only terminals"),
        })
        .collect()
}

/// Document-order element labels straight off the binary encoding: binary
/// preorder restricted to non-null terminals. Unlike a pointer-tree
/// materialization this is *forest-proof* — an `InsertBefore` targeting the
/// document root legitimately populates the root's next-sibling slot, which
/// `xmltree::binary::from_binary` silently drops but navigation must (and
/// does) surface.
fn binary_doc_labels(bin: &RhsTree, symbols: &SymbolTable) -> Vec<String> {
    binary_labels(bin, symbols)
        .into_iter()
        .filter(|l| l != slt_xml::sltgrammar::NULL_SYMBOL_NAME)
        .collect()
}

/// Independent reimplementation of the path-query semantics over the
/// uncompressed binary tree — the oracle shares no code with the compiled
/// transition, the streaming cursor walk or the memoized materializer.
fn query_oracle_on_binary(q: &PathQuery, bin: &RhsTree, symbols: &SymbolTable) -> QueryMatches {
    let steps = q.steps();
    let transition = |ctx: u32, label: &str| -> (u32, bool) {
        let mut next = 0u32;
        let mut matched = false;
        for (i, step) in steps.iter().enumerate() {
            if ctx & (1 << i) == 0 {
                continue;
            }
            if step.axis == Axis::Descendant {
                next |= 1 << i;
            }
            let hit = step.label.as_deref().is_none_or(|want| want == label);
            if hit {
                if i + 1 == steps.len() {
                    matched = true;
                } else {
                    next |= 1 << (i + 1);
                }
            }
        }
        (next, matched)
    };
    let mut out = QueryMatches::default();
    let mut position = 0u64;
    // Document order: first (descendant) child before second (sibling) child;
    // the sibling shares the element's incoming context.
    let mut stack = vec![(bin.root(), 1u32)];
    while let Some((node, ctx)) = stack.pop() {
        match bin.kind(node) {
            NodeKind::Term(t) if symbols.is_null(t) => {}
            NodeKind::Term(t) => {
                let label = symbols.name(t);
                let (child_ctx, matched) = transition(ctx, label);
                if matched {
                    out.positions.push(position);
                    out.labels.push(label.to_string());
                }
                position += 1;
                let children = bin.children(node);
                stack.push((children[1], ctx));
                stack.push((children[0], child_ctx));
            }
            _ => unreachable!("binary trees contain only terminals"),
        }
    }
    out
}

const CORPUS_QUERIES: &[&str] = &[
    "//item",
    "//item/name",
    "/site/regions//keyword",
    "//person",
    "//entry",
    "/log/entry/request/uri",
    "//rec0/f0",
    "//*",
    "/absent//nothing",
];

/// Asserts every fast read path against its oracle for one document/grammar
/// pair through one shared table snapshot.
fn assert_reads_match(
    xml: &XmlTree,
    g: &slt_xml::sltgrammar::Grammar,
    tables: &Arc<NavTables>,
    context: &str,
) {
    // Cursor document view vs pointer-tree document order.
    let mut cursor = Cursor::with_tables(g, tables.clone());
    assert_eq!(
        doc_labels_via_cursor(&mut cursor),
        doc_labels(xml),
        "{context}: cursor document order"
    );

    // Streaming preorder vs the materialized binary tree.
    let mut symbols = SymbolTable::new();
    let bin = to_binary(xml, &mut symbols).expect("valid document");
    let fast: Vec<String> = PreorderLabels::with_tables(g, tables.clone())
        .map(|t| g.symbols.name(t).to_string())
        .collect();
    assert_eq!(fast, binary_labels(&bin, &symbols), "{context}: preorder labels");

    // Label statistics vs a naive count.
    let counts = term_counts(g);
    let mut expected: std::collections::HashMap<String, u128> = std::collections::HashMap::new();
    for n in xml.preorder() {
        *expected.entry(xml.label(n).to_string()).or_insert(0) += 1;
    }
    for (label, count) in expected {
        let got: u128 = counts
            .iter()
            .filter(|&(&t, _)| g.symbols.name(t) == label)
            .map(|(_, &c)| c)
            .sum();
        assert_eq!(got, count, "{context}: count of label {label}");
    }

    // Query evaluation: memoized vs streaming vs uncompressed, plus count.
    for text in CORPUS_QUERIES {
        let q = PathQuery::parse(text).unwrap();
        let oracle = q.evaluate_uncompressed(xml);
        let streamed = q.evaluate_streaming(g);
        let memoized = q.evaluate_with_tables(g, tables);
        assert_eq!(streamed, oracle, "{context}: streaming oracle for {text}");
        assert_eq!(memoized, oracle, "{context}: memoized evaluate for {text}");
        assert_eq!(q.count(g), oracle.len() as u128, "{context}: count for {text}");
    }
}

/// Binary-level twin of [`assert_reads_match`] for post-update states, where
/// the ground truth is the oracle-updated binary tree itself (forest-proof,
/// see [`binary_doc_labels`]).
fn assert_reads_match_binary(
    bin: &RhsTree,
    symbols: &SymbolTable,
    g: &slt_xml::sltgrammar::Grammar,
    tables: &Arc<NavTables>,
    context: &str,
) {
    let mut cursor = Cursor::with_tables(g, tables.clone());
    assert_eq!(
        doc_labels_via_cursor(&mut cursor),
        binary_doc_labels(bin, symbols),
        "{context}: cursor document order"
    );
    let fast: Vec<String> = PreorderLabels::with_tables(g, tables.clone())
        .map(|t| g.symbols.name(t).to_string())
        .collect();
    assert_eq!(fast, binary_labels(bin, symbols), "{context}: preorder labels");
    for text in CORPUS_QUERIES {
        let q = PathQuery::parse(text).unwrap();
        let oracle = query_oracle_on_binary(&q, bin, symbols);
        assert_eq!(
            q.evaluate_streaming(g),
            oracle,
            "{context}: streaming oracle for {text}"
        );
        assert_eq!(
            q.evaluate_with_tables(g, tables),
            oracle,
            "{context}: memoized evaluate for {text}"
        );
        assert_eq!(q.count(g), oracle.len() as u128, "{context}: count for {text}");
    }
}

/// `doc_prev_sibling` vs the pointer-tree oracle: at every element of every
/// corpus document (both compressors), the cursor's previous-sibling move
/// must agree with the parent's child list — including the round trip back
/// via `doc_next_sibling` and the stay-put guarantee at first children.
#[test]
fn doc_prev_sibling_matches_the_pointer_tree_oracle() {
    let mut documents: Vec<(String, XmlTree)> = vec![(
        "heterogeneous".to_string(),
        heterogeneous_records_like(4, 24),
    )];
    documents.push((
        Dataset::ExiWeblog.name().to_string(),
        Dataset::ExiWeblog.generate(0.01),
    ));
    for (name, xml) in &documents {
        // Oracle: per document-preorder element, its previous sibling's
        // label (None for first children and the root).
        let order = xml.preorder();
        let prev_label: Vec<Option<String>> = order
            .iter()
            .map(|&n| {
                let parent = xml.parent(n)?;
                let siblings = xml.children(parent);
                let at = siblings.iter().position(|&s| s == n).expect("child listed");
                (at > 0).then(|| xml.label(siblings[at - 1]).to_string())
            })
            .collect();

        for (compressor, g) in [
            ("grammarrepair", GrammarRePair::default().compress_xml(xml).0),
            ("treerepair", TreeRePair::default().compress_xml(xml).0),
        ] {
            let tables = Arc::new(NavTables::build(&g));
            for (i, expected) in prev_label.iter().enumerate() {
                let context = format!("{name}/{compressor}: element {i}");
                let mut cursor = Cursor::with_tables(&g, tables.clone());
                assert!(cursor.nth_element(i as u128), "{context} addressable");
                let here = xml.label(order[i]);
                assert_eq!(cursor.label(), here, "{context} positioned");
                match expected {
                    Some(prev) => {
                        assert!(cursor.doc_prev_sibling(), "{context} has a prev sibling");
                        assert_eq!(cursor.label(), prev, "{context} prev label");
                        // The move is invertible: next-sibling returns here.
                        assert!(cursor.doc_next_sibling(), "{context} round trip");
                        assert_eq!(cursor.label(), here, "{context} round-trip label");
                    }
                    None => {
                        assert!(!cursor.doc_prev_sibling(), "{context} is a first child");
                        assert_eq!(cursor.label(), here, "{context} failed move stays put");
                    }
                }
            }
        }
    }
}

#[test]
fn fast_read_paths_match_oracles_on_the_heterogeneous_corpus() {
    let mut documents: Vec<(String, XmlTree)> = vec![(
        "heterogeneous".to_string(),
        heterogeneous_records_like(6, 40),
    )];
    for dataset in [Dataset::ExiWeblog, Dataset::XMark, Dataset::ExiTelecomp] {
        documents.push((dataset.name().to_string(), dataset.generate(0.02)));
    }
    for (name, xml) in &documents {
        let (g, _) = GrammarRePair::default().compress_xml(xml);
        let tables = Arc::new(NavTables::build(&g));
        assert_reads_match(xml, &g, &tables, name);

        // TreeRePair grammars exercise different rule shapes than
        // GrammarRePair ones; cover both compressors.
        let (g2, _) = TreeRePair::default().compress_xml(xml);
        let tables2 = Arc::new(NavTables::build(&g2));
        assert_reads_match(xml, &g2, &tables2, &format!("{name}/treerepair"));
    }
}

/// The stale-tables catcher: reads through the store's cached tables must
/// stay oracle-identical after every update batch and every recompression —
/// forced ones on odd batches, and whatever the store's low-threshold debt
/// sweep runs inline.
#[test]
fn session_reads_survive_update_recompress_cycles() {
    let base = Dataset::ExiWeblog.generate(0.02);
    for (mix, seed, label) in [
        (WorkloadMix::default(), 7u64, "uniform-insert-delete"),
        (WorkloadMix::clustered(0.9), 11, "clustered-renames"),
    ] {
        let ops = random_update_sequence(&base, 60, seed, mix);
        let store = DomStore::new().with_scheduler(SchedulerConfig {
            debt_threshold: 64,
            ..SchedulerConfig::default()
        });
        let doc = store.load_xml(&base).unwrap();
        let mut symbols = SymbolTable::new();
        let mut oracle = to_binary(&base, &mut symbols).expect("valid document");

        let mut last_tables: Option<Arc<NavTables>> = None;
        for (b, batch) in ops.chunks(10).enumerate() {
            for op in batch {
                reference::apply_update(&mut oracle, &mut symbols, op)
                    .expect("workload operations stay valid");
            }
            store
                .apply_batch(doc, batch)
                .unwrap_or_else(|e| panic!("{label}: batch {b} rejected: {e:?}"));

            // The cached snapshot must have been invalidated by the batch.
            let tables = store.nav_tables(doc).unwrap();
            if let Some(prev) = &last_tables {
                assert!(
                    !Arc::ptr_eq(prev, &tables),
                    "{label}: batch {b} must invalidate the cached NavTables"
                );
            }
            let grammar = store.grammar(doc).unwrap();
            assert!(tables.is_current(&grammar));
            last_tables = Some(tables.clone());

            let context = format!("{label}/batch{b}");
            assert_reads_match_binary(&oracle, &symbols, &grammar, &tables, &context);

            // Store convenience reads resolve through the same cache.
            let q = PathQuery::parse("//entry").unwrap();
            assert_eq!(
                store.query(doc, &q).unwrap(),
                query_oracle_on_binary(&q, &oracle, &symbols),
                "{context}: store.query"
            );

            if b % 2 == 1 {
                store.recompress(doc).unwrap();
                let tables = store.nav_tables(doc).unwrap();
                assert!(
                    !Arc::ptr_eq(last_tables.as_ref().unwrap(), &tables),
                    "{label}: recompression must invalidate the cached NavTables"
                );
                last_tables = Some(tables.clone());
                let context = format!("{label}/batch{b}/recompressed");
                let grammar = store.grammar(doc).unwrap();
                assert_reads_match_binary(&oracle, &symbols, &grammar, &tables, &context);
            }
        }
        let forced = ops.chunks(10).count() / 2;
        assert!(
            store.recompressions(doc).unwrap() > forced,
            "{label}: the debt sweep must fire beside the {forced} forced recompressions"
        );
    }
}

/// Repeated reads without interleaved writes must keep sharing one snapshot —
/// the caching is only worth its O(rules) validation if it actually hits.
#[test]
fn session_reads_share_one_snapshot_between_writes() {
    let xml = parse_xml(
        "<db><r><k/><v/></r><r><k/><v/></r><r><k/><v/></r><r><k/><v/></r></db>",
    )
    .unwrap();
    let store = DomStore::new();
    let doc = store.load_xml(&xml).unwrap();
    let t1 = store.nav_tables(doc).unwrap();
    let _ = store.query_str(doc, "//r/k").unwrap();
    let _ = store.snapshot(doc).unwrap().cursor();
    let t2 = store.nav_tables(doc).unwrap();
    assert!(Arc::ptr_eq(&t1, &t2));
    store
        .apply(doc, &UpdateOp::Rename { target: 1, label: "row".to_string() })
        .unwrap();
    let t3 = store.nav_tables(doc).unwrap();
    assert!(!Arc::ptr_eq(&t1, &t3));
    assert_eq!(store.query_str(doc, "//row").unwrap().len(), 1);
}

/// Random document strategy shared by the property tests below.
fn arbitrary_xml(max_nodes: usize) -> impl Strategy<Value = XmlTree> {
    let labels = prop::sample::select(vec!["a", "b", "c", "item", "rec"]);
    proptest::collection::vec((labels, 0usize..8), 1..max_nodes).prop_map(|spec| {
        let mut t = XmlTree::new("root");
        let mut nodes = vec![t.root()];
        for (label, parent_choice) in spec {
            let parent = nodes[parent_choice % nodes.len()];
            let n = t.add_child(parent, label);
            nodes.push(n);
        }
        t
    })
}

/// Random path queries over the small label alphabet used by `arbitrary_xml`.
fn arbitrary_query() -> impl Strategy<Value = String> {
    let step = (
        prop::bool::ANY,
        prop::sample::select(vec!["a", "b", "c", "item", "rec", "root", "*"]),
    );
    proptest::collection::vec(step, 1..4).prop_map(|steps| {
        let mut q = String::new();
        for (descendant, label) in steps {
            q.push_str(if descendant { "//" } else { "/" });
            q.push_str(label);
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The memoized materializer agrees with both oracles on arbitrary
    /// documents and arbitrary small queries, through both compressors.
    #[test]
    fn prop_memoized_evaluate_matches_oracles(xml in arbitrary_xml(50), query in arbitrary_query()) {
        let q = PathQuery::parse(&query).unwrap();
        let oracle = q.evaluate_uncompressed(&xml);
        for (name, g) in [
            ("treerepair", TreeRePair::default().compress_xml(&xml).0),
            ("grammarrepair", GrammarRePair::default().compress_xml(&xml).0),
        ] {
            let tables = NavTables::build(&g);
            prop_assert_eq!(&q.evaluate_with_tables(&g, &tables), &oracle, "{} memoized {}", name, query);
            prop_assert_eq!(&q.evaluate_streaming(&g), &oracle, "{} streaming {}", name, query);
            prop_assert_eq!(q.count(&g), oracle.len() as u128, "{} count {}", name, query);
        }
    }

    /// Table-backed document navigation visits exactly the oracle-updated
    /// binary document after a random update prefix (fresh tables per
    /// mutation; forest-proof via the binary-level oracle).
    #[test]
    fn prop_cursor_matches_document_after_updates(xml in arbitrary_xml(40), seed in 0u64..1000) {
        let ops = random_update_sequence(&xml, 6, seed, WorkloadMix::default());
        let store = DomStore::new();
        let doc = store.load_xml(&xml).unwrap();
        let mut symbols = SymbolTable::new();
        let mut oracle = to_binary(&xml, &mut symbols).expect("valid document");
        for (i, op) in ops.iter().enumerate() {
            reference::apply_update(&mut oracle, &mut symbols, op).expect("valid op");
            store.apply(doc, op).expect("valid op");
            if i % 2 == 1 {
                store.recompress(doc).unwrap();
            }
        }
        let snapshot = store.snapshot(doc).unwrap();
        let mut cursor = snapshot.cursor();
        prop_assert_eq!(
            doc_labels_via_cursor(&mut cursor),
            binary_doc_labels(&oracle, &symbols)
        );
        let q = PathQuery::parse("//rec//item").unwrap();
        prop_assert_eq!(
            store.query(doc, &q).unwrap(),
            query_oracle_on_binary(&q, &oracle, &symbols)
        );
    }
}
