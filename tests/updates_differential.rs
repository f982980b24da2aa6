//! Differential update-oracle harness.
//!
//! Seeded random update sequences (insert/delete/rename at several locality
//! settings) are applied simultaneously to
//!
//! * a [`DomStore`] document through the **single-operation** path
//!   (`DomStore::apply`),
//! * a [`DomStore`] document through the **batched** path (`apply_batch`,
//!   several batch sizes), and
//! * a plain uncompressed binary tree through `xmltree::updates` — the
//!   oracle,
//!
//! under three recompression modes ([`Recompress`]): none, a forced
//! recompression every few calls (the paper's fixed-interval policy), and
//! the store's own inline debt sweep. Every step asserts **byte-identical
//! XML serialization** (every operation on the single-op path, every batch
//! on the batched path). The harness also pins the isolation growth bound
//! and the labels isolation resolves when one session isolates many targets.

use proptest::prelude::*;
use slt_xml::datasets::workload::{random_update_sequence, WorkloadMix};
use slt_xml::grammar_repair::isolate::IsolationBatch;
use slt_xml::grammar_repair::store::SchedulerConfig;
use slt_xml::grammar_repair::RepairError;
use slt_xml::sltgrammar::derive::val;
use slt_xml::sltgrammar::fingerprint::{derived_size, fingerprint};
use slt_xml::sltgrammar::{Grammar, NodeId, NodeKind, RhsTree, SymbolTable};
use slt_xml::treerepair::TreeRePair;
use slt_xml::xmltree::binary::{from_binary, to_binary, tree_fingerprint};
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

/// How a [`Subject`] restores compression between calls.
#[derive(Clone, Copy, Debug)]
enum Recompress {
    /// Never: the scheduler's threshold is `usize::MAX`.
    Never,
    /// A forced `DomStore::recompress` after every `n`-th call — the paper's
    /// fixed-interval policy, counted by the caller.
    Every(usize),
    /// The store's inline debt sweep at this threshold, run after every call
    /// that changed the grammar.
    Debt(usize),
}

/// One document in a store of its own, plus the call counter the
/// fixed-interval mode needs.
struct Subject {
    store: DomStore,
    doc: DocId,
    mode: Recompress,
    calls: usize,
}

impl Subject {
    fn new(xml: &XmlTree, mode: Recompress) -> Self {
        let debt_threshold = match mode {
            Recompress::Debt(threshold) => threshold,
            Recompress::Never | Recompress::Every(_) => usize::MAX,
        };
        let store = DomStore::new().with_scheduler(SchedulerConfig {
            debt_threshold,
            ..SchedulerConfig::default()
        });
        let doc = store.load_xml(xml).expect("valid document");
        Subject {
            store,
            doc,
            mode,
            calls: 0,
        }
    }

    /// One call through the single-op entry point.
    fn apply(&mut self, op: &UpdateOp) -> Result<(), RepairError> {
        let result = self.store.apply(self.doc, op).map(drop);
        self.count_call();
        result
    }

    /// One call through the batched entry point.
    fn apply_batch(&mut self, ops: &[UpdateOp]) -> Result<(), RepairError> {
        let result = self.store.apply_batch(self.doc, ops).map(drop);
        self.count_call();
        result
    }

    fn count_call(&mut self) {
        self.calls += 1;
        if let Recompress::Every(n) = self.mode {
            if self.calls.is_multiple_of(n) {
                self.store.recompress(self.doc).expect("live document");
            }
        }
    }

    fn grammar(&self) -> std::sync::Arc<slt_xml::sltgrammar::Grammar> {
        self.store.grammar(self.doc).expect("live document")
    }

    fn recompressions(&self) -> usize {
        self.store.recompressions(self.doc).expect("live document")
    }

    fn serialization(&self) -> String {
        self.store
            .to_xml(self.doc)
            .expect("document stays materializable")
            .to_xml()
    }
}

/// Runs one differential scenario: the same `ops` through the oracle, the
/// single-op path (checked after every operation) and the batched path with
/// the given batch size (checked after every batch). Returns how many
/// recompressions the two paths ran together.
fn run_differential(
    xml: &XmlTree,
    ops: &[UpdateOp],
    mode: Recompress,
    batch_size: usize,
    context: &str,
) -> usize {
    let mut single = Subject::new(xml, mode);
    let mut batched = Subject::new(xml, mode);
    let mut oracle = Oracle::new(xml);

    for (b, batch) in ops.chunks(batch_size).enumerate() {
        for (i, op) in batch.iter().enumerate() {
            oracle.apply(op);
            single.apply(op).unwrap_or_else(|e| {
                panic!("{context}: single-op path rejected op {i} of batch {b}: {e:?}")
            });
            assert_eq!(
                single.serialization(),
                oracle.serialization(),
                "{context}: single-op path diverged at op {i} of batch {b}"
            );
        }
        batched
            .apply_batch(batch)
            .unwrap_or_else(|e| panic!("{context}: batched path rejected batch {b}: {e:?}"));
        assert_eq!(
            batched.serialization(),
            oracle.serialization(),
            "{context}: batched path diverged after batch {b}"
        );
    }
    single.grammar().validate().unwrap();
    batched.grammar().validate().unwrap();
    single.recompressions() + batched.recompressions()
}

/// A small, repetitive document the compressor bites into.
fn feed_doc(items: usize) -> XmlTree {
    let mut s = String::from("<feed>");
    for i in 0..items {
        s.push_str("<item><title/><body><p/><p/></body>");
        if i % 3 == 0 {
            s.push_str("<tags><t/><t/></tags>");
        }
        s.push_str("</item>");
    }
    s.push_str("</feed>");
    parse_xml(&s).unwrap()
}

#[test]
fn differential_insert_delete_rename_across_locality_settings() {
    let xml = feed_doc(14);
    for &locality in &[0.0, 0.5, 0.95] {
        let mix = WorkloadMix {
            insert_probability: 0.85,
            rename_probability: 0.3,
            locality,
            cluster_every: 12,
            ..WorkloadMix::default()
        };
        let ops = random_update_sequence(&xml, 60, 0xD1FF ^ (locality * 100.0) as u64, mix);
        for &batch_size in &[1usize, 9, 60] {
            // Every(4) and Debt(16) both recompress repeatedly inside the
            // sequence on the single-op path.
            for mode in [Recompress::Never, Recompress::Every(4), Recompress::Debt(16)] {
                let context = format!("locality {locality}, batch {batch_size}, {mode:?}");
                let recompressions = run_differential(&xml, &ops, mode, batch_size, &context);
                assert_eq!(
                    recompressions > 0,
                    !matches!(mode, Recompress::Never),
                    "{context}: {recompressions} recompressions"
                );
            }
        }
    }
}

#[test]
fn differential_paper_insert_delete_mix_with_clustering() {
    // The paper's 90/10 insert/delete mix, clustered: deletes stay inside
    // their isolation chunk (the delete-tolerant planner), so this exercises
    // removed-region remapping under recompression.
    let xml = feed_doc(10);
    let ops = random_update_sequence(&xml, 80, 0xBADD, WorkloadMix::clustered(0.9));
    run_differential(&xml, &ops, Recompress::Every(6), 16, "paper mix, clustered");
}

#[test]
fn differential_delete_heavy_mix_across_locality_and_batch_sizes() {
    // Inverts the paper's ratio: deletes dominate, so nearly every chunk
    // carries several removed regions, including nested and overlapping-run
    // shapes the 90/10 mix rarely produces.
    let xml = feed_doc(16);
    for &locality in &[0.0, 0.9] {
        let mix = WorkloadMix {
            insert_probability: 0.35,
            rename_probability: 0.15,
            locality,
            cluster_every: 10,
            ..WorkloadMix::default()
        };
        let ops = random_update_sequence(&xml, 70, 0xDE1E ^ (locality * 10.0) as u64, mix);
        for &batch_size in &[4usize, 70] {
            for mode in [Recompress::Every(5), Recompress::Debt(16)] {
                run_differential(
                    &xml,
                    &ops,
                    mode,
                    batch_size,
                    &format!("delete-heavy, locality {locality}, batch {batch_size}, {mode:?}"),
                );
            }
        }
    }
}

#[test]
fn differential_rename_only_figure6_workload() {
    let xml = feed_doc(12);
    let mix = WorkloadMix {
        rename_probability: 1.0,
        locality: 0.9,
        cluster_every: 20,
        ..WorkloadMix::default()
    };
    let ops = random_update_sequence(&xml, 100, 6, mix);
    run_differential(&xml, &ops, Recompress::Every(10), 25, "figure-6 renames");
}

#[test]
fn differential_handcrafted_edits_inside_fresh_fragments() {
    // Ops 2 and 3 target nodes that only exist because op 1 inserted them:
    // their chunk-start coordinates do not exist, forcing chunk flushes whose
    // correctness only the oracle can certify.
    let xml = parse_xml("<r><a/><b/><c/></r>").unwrap();
    let mut probe = Oracle::new(&xml);
    // Preorder (binary): r0 a1 #2 b3 #4 c5 #6 #7 — insert before b (index 3).
    let ops = vec![
        UpdateOp::InsertBefore {
            target: 3,
            fragment: parse_xml("<x><y/></x>").unwrap(),
        },
        // After op 1: x at 3, y at 4. Rename the fresh y.
        UpdateOp::Rename {
            target: 4,
            label: "z".to_string(),
        },
        // Insert into the fresh element's empty child list (a fresh null).
        UpdateOp::InsertBefore {
            target: 5,
            fragment: parse_xml("<w/>").unwrap(),
        },
        // Delete the whole fresh subtree again, then rename its old sibling.
        UpdateOp::Delete { target: 3 },
        UpdateOp::Rename {
            target: 3,
            label: "bee".to_string(),
        },
    ];
    for op in &ops {
        probe.apply(op); // validates the handcrafted coordinates
    }
    assert_eq!(probe.serialization(), "<r><a/><bee/><c/></r>");
    run_differential(&xml, &ops, Recompress::Never, ops.len(), "handcrafted fresh-fragment edits");
}

#[test]
fn differential_deletes_adjacent_to_and_inside_fresh_fragments() {
    // Preorder (binary): r0 a1 #2 b3 #4 c5 #6 #7. Op 1 inserts <x><y/></x>
    // before b, so b slides past the 4 fresh positions. Op 2 deletes b right
    // *after* the fragment (same chunk — the boundary anchor must not be
    // swallowed by fragment bookkeeping); op 3 deletes y *inside* the
    // fragment (chunk break); ops 4–5 clean up at post-splice coordinates.
    let xml = parse_xml("<r><a/><b/><c/></r>").unwrap();
    let mut probe = Oracle::new(&xml);
    let ops = vec![
        UpdateOp::InsertBefore {
            target: 3,
            fragment: parse_xml("<x><y/></x>").unwrap(),
        },
        UpdateOp::Delete { target: 7 }, // b, immediately after the fresh fragment
        UpdateOp::Delete { target: 4 }, // y, inside the fresh fragment
        UpdateOp::Delete { target: 3 }, // x, now emptied
        UpdateOp::Rename {
            target: 3,
            label: "sea".to_string(),
        },
    ];
    for op in &ops {
        probe.apply(op); // validates the handcrafted coordinates
    }
    assert_eq!(probe.serialization(), "<r><a/><sea/></r>");
    for &batch_size in &[2usize, ops.len()] {
        let context = "deletes around fresh fragments";
        run_differential(&xml, &ops, Recompress::Never, batch_size, context);
    }
}

#[test]
fn differential_consecutive_delete_runs() {
    // Repeated deletes at the *same* evolving position peel off a sibling
    // run: every op lands on the coordinate the previous delete freed, so
    // the region map accumulates same-start removed markers whose shifts
    // must stack. A second run walks backwards through distinct positions.
    let xml = feed_doc(8);
    let mut probe = Oracle::new(&xml);
    let same_spot: Vec<UpdateOp> = (0..5).map(|_| UpdateOp::Delete { target: 1 }).collect();
    for op in &same_spot {
        probe.apply(op);
    }
    for &batch_size in &[1usize, 2, same_spot.len()] {
        run_differential(&xml, &same_spot, Recompress::Never, batch_size, "same-spot delete run");
    }

    // Backwards run: delete the 3rd, 2nd, then 1st item — later targets lie
    // *before* earlier removed regions, so their resolution must not shift.
    let item_positions: Vec<usize> = {
        let oracle = Oracle::new(&xml);
        let pre = oracle.bin.preorder();
        pre.iter()
            .enumerate()
            .filter(
                |(_, &n)| matches!(oracle.bin.kind(n), NodeKind::Term(t) if oracle.symbols.name(t) == "item"),
            )
            .map(|(i, _)| i)
            .collect()
    };
    let backwards: Vec<UpdateOp> = item_positions[..3]
        .iter()
        .rev()
        .map(|&i| UpdateOp::Delete { target: i })
        .collect();
    let mut probe = Oracle::new(&xml);
    for op in &backwards {
        probe.apply(op);
    }
    for &batch_size in &[2usize, backwards.len()] {
        let context = "backwards delete run";
        run_differential(&xml, &backwards, Recompress::Every(3), batch_size, context);
    }
}

#[test]
fn differential_delete_at_document_root() {
    // Deleting the root leaves a bare null document — not serializable as
    // XML, so this scenario compares structural fingerprints instead of
    // going through run_differential.
    let xml = feed_doc(3);
    let ops = vec![
        UpdateOp::Rename {
            target: 0,
            label: "feed2".to_string(),
        },
        UpdateOp::Delete { target: 1 }, // first item under the root
        UpdateOp::Delete { target: 0 }, // the document root itself
    ];
    let mut oracle = Oracle::new(&xml);
    for op in &ops {
        oracle.apply(op);
    }
    // Batched path, all in one batch.
    let mut dom = Subject::new(&xml, Recompress::Never);
    dom.apply_batch(&ops).unwrap();
    dom.grammar().validate().unwrap();
    assert_eq!(
        fingerprint(&dom.grammar()),
        tree_fingerprint(&oracle.bin, &oracle.symbols),
        "root deletion: batched path diverged from the oracle"
    );
    // Single-op path agrees too.
    let mut single = Subject::new(&xml, Recompress::Never);
    for op in &ops {
        single.apply(op).unwrap();
    }
    assert_eq!(
        fingerprint(&single.grammar()),
        tree_fingerprint(&oracle.bin, &oracle.symbols),
        "root deletion: single-op path diverged from the oracle"
    );
}

#[test]
fn batched_path_survives_repeated_update_recompress_cycles() {
    // Long-running session: many batches with recompression interleaved; the
    // final document must still match an oracle that saw every operation.
    let xml = feed_doc(12);
    let mix = WorkloadMix {
        insert_probability: 0.8,
        rename_probability: 0.4,
        locality: 0.7,
        cluster_every: 10,
        ..WorkloadMix::default()
    };
    let ops = random_update_sequence(&xml, 120, 0xC0FFEE, mix);
    let mut dom = Subject::new(&xml, Recompress::Every(3));
    let mut oracle = Oracle::new(&xml);
    for batch in ops.chunks(8) {
        for op in batch {
            oracle.apply(op);
        }
        dom.apply_batch(batch).unwrap();
    }
    assert!(dom.recompressions() >= 4);
    assert_eq!(dom.serialization(), oracle.serialization());
}

// ---------------------------------------------------------------------------
// Batched-isolation properties
// ---------------------------------------------------------------------------

/// A compressed grammar plus derived size for isolation properties.
fn compressed_feed(records: usize) -> slt_xml::sltgrammar::Grammar {
    let (g, _) = TreeRePair::default().compress_xml(&feed_doc(records));
    g
}

/// Deterministically spreads `k` pseudo-random targets over `0..total`.
fn spread_targets(total: u128, k: usize, seed: u64) -> Vec<u128> {
    let mut state = seed | 1;
    let mut targets: Vec<u128> = (0..k)
        .map(|_| {
            // SplitMix64 step — the shims' proptest RNG is not seedable per case.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u128 % total
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// Isolates `targets` one after another through one session, as a batch of
/// updates does.
fn isolate_in_turn(g: &mut Grammar, targets: &[u128]) -> Vec<NodeId> {
    let mut batch = IsolationBatch::new(g);
    targets
        .iter()
        .map(|&t| batch.isolate_one(g, t).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 1 through one session: grammar edge growth stays within a
    /// factor two per *distinct* root-to-target path — isolating p paths in
    /// turn never adds more than p times the grammar size.
    #[test]
    fn prop_batched_isolation_growth_within_2x_per_distinct_path(
        (records, seed, k) in (2usize..14, any::<u64>(), 1usize..9)
    ) {
        let mut g = compressed_feed(records);
        let total = derived_size(&g);
        let targets = spread_targets(total, k, seed);
        let p = targets.len();
        let before_edges = g.edge_count();
        let before_fp = fingerprint(&g);
        let nodes = isolate_in_turn(&mut g, &targets);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(fingerprint(&g), before_fp, "isolation must preserve the document");
        prop_assert_eq!(nodes.len(), p);
        for &node in &nodes {
            prop_assert!(g.rule(g.start()).rhs.kind(node).is_term());
        }
        let after = g.edge_count();
        prop_assert!(
            after <= (1 + p) * before_edges + 2 * p,
            "batched isolation grew {before_edges} -> {after} edges for {p} distinct paths"
        );
    }

    /// Isolation through one session agrees with `val`: every resolved node
    /// carries the label of the derived tree at its preorder index.
    #[test]
    fn prop_batched_isolation_resolves_correct_labels(
        (records, seed, k) in (2usize..8, any::<u64>(), 1usize..6)
    ) {
        let mut g = compressed_feed(records);
        let tree = val(&g).unwrap();
        let pre = tree.preorder();
        let total = derived_size(&g);
        let targets = spread_targets(total, k, seed);
        let nodes = isolate_in_turn(&mut g, &targets);
        for (&t, &node) in targets.iter().zip(&nodes) {
            let want = tree.kind(pre[t as usize]);
            let got = g.rule(g.start()).rhs.kind(node);
            prop_assert_eq!(got, want, "label mismatch at preorder index {}", t);
        }
    }
}
