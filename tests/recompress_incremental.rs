//! Oracle tests for the incremental grammar-side occurrence index.
//!
//! `GrammarRePair` with the default `FrequencyQueue` selector builds its
//! occurrence table **once** per `recompress` invocation and maintains it with
//! node-granular deltas across replacement rounds; the `NaiveScan` selector
//! re-retrieves all occurrence generators per round (`retrieve_occs`, the
//! full-grammar rebuild). The optimization is only sound if the two paths are
//! observationally indistinguishable: these tests assert **byte-identical
//! output grammars**, identical round counts, and a preserved derived tree on
//! the heterogeneous corpus and — the paper's actual workload — on documents
//! that received a batch of grammar-side updates before recompression. On the
//! smaller inputs the index itself is compared with a fresh rebuild after
//! **every round** (weights, replacement sites down to the node, order, edge
//! and reference counts). A scaling test pins the work counters: chain
//! resolutions stay within one constant of input size plus nodes created,
//! from 2 k to 32 k edges.

use proptest::prelude::*;
use slt_xml::datasets::random::{treebank_like, xmark_like};
use slt_xml::datasets::regular::heterogeneous_records_like;
use slt_xml::datasets::workload::{
    random_insert_delete_sequence, random_rename_sequence, random_update_sequence, WorkloadMix,
};
use slt_xml::datasets::Dataset;
use slt_xml::grammar_repair::repair::{GrammarRePair, GrammarRePairConfig, RepairStats};
use slt_xml::grammar_repair::update::{apply_batch, apply_update};
use slt_xml::sltgrammar::fingerprint::fingerprint;
use slt_xml::sltgrammar::text::{parse_grammar, print_grammar};
use slt_xml::sltgrammar::{Grammar, SymbolTable};
use slt_xml::treerepair::DigramSelector;
use slt_xml::xmltree::binary::{to_binary, tree_fingerprint};
use slt_xml::xmltree::updates as reference;
use slt_xml::xmltree::updates::UpdateOp;
use slt_xml::xmltree::XmlTree;

fn rebuild_config() -> GrammarRePairConfig {
    GrammarRePairConfig {
        selector: DigramSelector::NaiveScan,
        ..GrammarRePairConfig::default()
    }
}

/// Recompresses clones of `g` with both paths and asserts byte-identical
/// results; returns the incremental result for further checks.
fn assert_paths_agree(g: &Grammar, context: &str) -> Grammar {
    assert_paths_agree_with(g, context, false).0
}

/// [`assert_paths_agree`] that also holds the index against a fresh rebuild
/// after the initial build and after every round (O(grammar) per round, so
/// only for small inputs).
fn assert_paths_agree_checked(g: &Grammar, context: &str) -> (Grammar, RepairStats) {
    assert_paths_agree_with(g, context, true)
}

fn assert_paths_agree_with(
    g: &Grammar,
    context: &str,
    every_round: bool,
) -> (Grammar, RepairStats) {
    let mut g_inc = g.clone();
    let mut g_reb = g.clone();
    let s_inc = GrammarRePair::default().recompress_observed(&mut g_inc, &mut |index, g, frozen| {
        if every_round {
            index.assert_matches_rebuild(g, frozen);
        }
    });
    let s_reb = GrammarRePair::new(rebuild_config()).recompress(&mut g_reb);
    assert_eq!(
        print_grammar(&g_inc),
        print_grammar(&g_reb),
        "incremental and rebuild paths disagree on {context}"
    );
    assert_eq!(s_inc.rounds, s_reb.rounds, "round counts differ on {context}");
    assert_eq!(s_inc.replacements, s_reb.replacements);
    assert_eq!(s_inc.inlinings, s_reb.inlinings);
    assert_eq!(s_inc.exported_rules, s_reb.exported_rules);
    assert_eq!(s_inc.output_edges, s_reb.output_edges);
    assert_eq!(s_inc.max_intermediate_edges, s_reb.max_intermediate_edges);
    g_inc.validate().unwrap();
    (g_inc, s_inc)
}

#[test]
fn paths_agree_on_the_heterogeneous_corpus() {
    // The selection-bound corpus from the selector A/B baseline: repetitive
    // *and* label-diverse, so many rounds with many live digrams.
    for (schemas, records) in [(20usize, 300usize), (50, 550)] {
        let xml = heterogeneous_records_like(schemas, records);
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let g = Grammar::new(symbols, bin);
        let before = fingerprint(&g);
        let out = assert_paths_agree(&g, &format!("heterogeneous({schemas},{records})"));
        assert_eq!(fingerprint(&out), before, "derived tree must be preserved");
    }
}

/// Applies the workload to a compressed grammar and to the uncompressed
/// reference tree, then checks both recompression paths agree and still
/// derive the reference.
fn run_update_workload(xml: &XmlTree, ops: &[UpdateOp], context: &str) {
    let (mut g, _) = GrammarRePair::default().compress_xml(xml);
    let mut symbols = SymbolTable::new();
    let mut bin = to_binary(xml, &mut symbols).unwrap();
    for op in ops {
        apply_update(&mut g, op).expect("workload op applies to the grammar");
        reference::apply_update(&mut bin, &mut symbols, op)
            .expect("workload op applies to the reference");
    }
    let expected = tree_fingerprint(&bin, &symbols);
    assert_eq!(fingerprint(&g), expected, "updates must agree before recompression");
    let (out, _) = assert_paths_agree_checked(&g, context);
    assert_eq!(fingerprint(&out), expected, "recompression must preserve the document");
}

#[test]
fn paths_agree_after_insert_delete_workloads() {
    let xml = heterogeneous_records_like(8, 120);
    for seed in [3u64, 17] {
        let ops = random_insert_delete_sequence(&xml, 40, seed, WorkloadMix::default());
        run_update_workload(&xml, &ops, &format!("insert/delete workload seed {seed}"));
    }
}

#[test]
fn paths_agree_after_rename_workloads() {
    // Renames to fresh labels (the Figure 6 workload): isolation blows the
    // grammar up without changing its shape class.
    let xml = slt_xml::datasets::regular::exi_weblog_like(40);
    let ops = random_rename_sequence(&xml, 30, 11);
    run_update_workload(&xml, &ops, "rename workload");
}

#[test]
fn paths_agree_on_repeated_update_recompress_cycles() {
    // The steady-state loop of a compressed DOM under write traffic:
    // update batch → recompress → update batch → recompress. Each cycle
    // starts from the *incremental* result, so any divergence compounds and
    // would be caught by the per-cycle comparison with the rebuild path.
    let xml = heterogeneous_records_like(5, 80);
    let (mut g, _) = GrammarRePair::default().compress_xml(&xml);
    let mut symbols = SymbolTable::new();
    let mut bin = to_binary(&xml, &mut symbols).unwrap();
    for cycle in 0..3u64 {
        // Generate ops against the *current* document state.
        let current = slt_xml::xmltree::binary::from_binary(&bin, &symbols).unwrap();
        let ops = random_insert_delete_sequence(&current, 15, cycle, WorkloadMix::default());
        for op in &ops {
            apply_update(&mut g, op).unwrap();
            reference::apply_update(&mut bin, &mut symbols, op).unwrap();
        }
        g = assert_paths_agree(&g, &format!("cycle {cycle}"));
        assert_eq!(fingerprint(&g), tree_fingerprint(&bin, &symbols));
    }
}

// ----- shapes that stress node-granular deltas ------------------------------

fn leaf(label: &str) -> XmlTree {
    XmlTree::new(label)
}

/// `<root>` with `count` children, the `k`-th labelled `labels[k % len]` and
/// holding one `<x/>` child when `with_child` is set.
fn siblings(count: usize, labels: &[&str], with_child: bool) -> XmlTree {
    let mut t = XmlTree::new("root");
    let root = t.root();
    for k in 0..count {
        let c = t.add_child(root, labels[k % labels.len()]);
        if with_child {
            t.add_child(c, "x");
        }
    }
    t
}

#[test]
fn paths_agree_on_identical_siblings_edited_in_the_middle() {
    // 500 childless <item/> siblings: in the binary encoding one 500-long
    // (item, 2, item) chain, root = 0 and the k-th item (1-based) at preorder
    // index 2k − 1. Inserts and deletes in the middle cut the chain, extend
    // it with equal-label fragments and splice foreign labels into it, so
    // equal-label chains cross freshly isolated fragments.
    let xml = siblings(500, &["item"], false);
    let at = |k: usize| 2 * k - 1;
    let mut run = leaf("item");
    let r = run.root();
    run.add_child(r, "item");
    run.add_child(r, "item");
    let ops = vec![
        UpdateOp::InsertBefore { target: at(250), fragment: leaf("item") },
        UpdateOp::InsertBefore { target: at(251), fragment: leaf("other") },
        UpdateOp::Delete { target: at(200) },
        UpdateOp::Delete { target: at(200) },
        UpdateOp::InsertBefore { target: at(300), fragment: run },
        UpdateOp::Delete { target: at(249) },
        UpdateOp::InsertBefore { target: at(249), fragment: leaf("item") },
        UpdateOp::InsertBefore { target: at(1), fragment: leaf("item") },
        UpdateOp::Delete { target: at(499) },
    ];
    run_update_workload(&xml, &ops, "500 identical siblings");
}

#[test]
fn paths_agree_on_deep_spines() {
    // A long sibling list is a right spine of the binary tree; three cycling
    // labels make it a chain of distinct digrams rather than one equal-label
    // chain. Updates land in the middle of the spine.
    let xml = siblings(600, &["a", "b", "c"], true);
    let ops = random_insert_delete_sequence(&xml, 24, 9, WorkloadMix::default());
    run_update_workload(&xml, &ops, "right spine");

    // Deep nesting is the mirrored shape: a left spine of first-child edges.
    let mut nested = XmlTree::new("d");
    let mut cur = nested.root();
    for k in 0..300 {
        nested.add_child(cur, if k % 2 == 0 { "p" } else { "q" });
        cur = nested.add_child(cur, "d");
    }
    let ops = random_insert_delete_sequence(&nested, 24, 4, WorkloadMix::default());
    run_update_workload(&nested, &ops, "left spine");
}

#[test]
fn paths_agree_when_call_sites_share_a_callee_internal_tree_parent() {
    // Both arguments of the two A references in S resolve to the same tree
    // parent — the a-root inside A — so the equal-label digram (a,1,a) counts
    // only the first of them, yet localization must inline *both* call sites
    // (replacement never applies the overlap test).
    let g = parse_grammar(
        "S -> r(A(a(#,#)), r(A(a(#,#)), r(a(a(#,#),#), a(a(#,#),#))))\n\
         A -> a(y1,#)",
    )
    .unwrap();
    let before = fingerprint(&g);
    let (out, stats) = assert_paths_agree_checked(&g, "shared callee-internal tree parent");
    assert_eq!(fingerprint(&out), before);
    assert!(stats.inlinings >= 2, "both call sites are localized");

    // The same with the sharing call sites in different rules, and a chain
    // hanging below one of the arguments.
    let g = parse_grammar(
        "S -> r(A(a(a(#,#),#)), r(B, r(B, a(a(#,#),#))))\n\
         B -> r(A(a(#,#)), #)\n\
         A -> a(y1,#)",
    )
    .unwrap();
    let before = fingerprint(&g);
    let (out, _) = assert_paths_agree_checked(&g, "tree parent shared across rules");
    assert_eq!(fingerprint(&out), before);
}

#[test]
fn paths_agree_when_a_callee_is_exported_between_localize_passes() {
    // The (a,1,b) occurrences in S reach their b through P and then Q: the
    // first localization pass inlines P, which uncovers the Q reference; the
    // second pass inlines Q, but Q is referenced four more times, so its
    // c(d,d) fragment is exported first — in the middle of localizing S.
    let g = parse_grammar(
        "S -> f(a(P,#), f(a(P,#), g(g(Q,Q), g(Q,Q))))\n\
         P -> Q\n\
         Q -> b(c(d(#,#),d(#,#)),#)",
    )
    .unwrap();
    let before = fingerprint(&g);
    let (out, stats) = assert_paths_agree_checked(&g, "export between localize passes");
    assert_eq!(fingerprint(&out), before);
    assert!(stats.exported_rules >= 1);
}

/// The store's steady state on one document family: 32-op batches of the
/// paper's 90/10 insert/delete mix through `apply_batch`, a recompression
/// after each — ten times over, each cycle starting from the incremental
/// result so a divergence would compound.
fn ten_paper_mix_cycles(dataset: Dataset) {
    // Small documents: the rebuild oracle is quadratic, and ten batches of
    // inserts grow every family past a thousand edges anyway.
    let scale = match dataset {
        Dataset::Ncbi => 0.0005,
        Dataset::Medline | Dataset::Treebank => 0.002,
        _ => 0.04,
    };
    let xml = dataset.generate(scale);
    let (mut g, _) = GrammarRePair::default().compress_xml(&xml);
    let mut symbols = SymbolTable::new();
    let mut bin = to_binary(&xml, &mut symbols).unwrap();
    for cycle in 0..10u64 {
        let current = slt_xml::xmltree::binary::from_binary(&bin, &symbols).unwrap();
        let ops = random_update_sequence(&current, 32, 100 + cycle, WorkloadMix::paper_mix(0.5));
        apply_batch(&mut g, &ops).unwrap();
        for op in &ops {
            reference::apply_update(&mut bin, &mut symbols, op).unwrap();
        }
        g = assert_paths_agree(&g, &format!("{} cycle {cycle}", dataset.name()));
        assert_eq!(fingerprint(&g), tree_fingerprint(&bin, &symbols));
    }
}

// One test per family so they run in parallel.
#[test]
fn paths_agree_over_ten_paper_mix_cycles_exi_weblog() {
    ten_paper_mix_cycles(Dataset::ExiWeblog);
}

#[test]
fn paths_agree_over_ten_paper_mix_cycles_xmark() {
    ten_paper_mix_cycles(Dataset::XMark);
}

#[test]
fn paths_agree_over_ten_paper_mix_cycles_exi_telecomp() {
    ten_paper_mix_cycles(Dataset::ExiTelecomp);
}

#[test]
fn paths_agree_over_ten_paper_mix_cycles_treebank() {
    ten_paper_mix_cycles(Dataset::Treebank);
}

#[test]
fn paths_agree_over_ten_paper_mix_cycles_medline() {
    ten_paper_mix_cycles(Dataset::Medline);
}

#[test]
fn paths_agree_over_ten_paper_mix_cycles_ncbi() {
    ten_paper_mix_cycles(Dataset::Ncbi);
}

// ----- work counters ----------------------------------------------------------

#[test]
fn chain_resolutions_scale_with_input_plus_created_nodes() {
    // One constant for all sizes: a return to per-round rescans of the start
    // rule would push the ratio up with the number of rounds (hundreds), not
    // by a fraction. The residual growth below comes from popular rules whose
    // root is replaced: every reference site's digram really changes then.
    const C: f64 = 4.0;
    let check = |stats: &RepairStats, context: &str| {
        let yardstick = stats.input_edges + stats.created_nodes;
        let ratio = stats.resolved_candidates as f64 / yardstick as f64;
        println!(
            "{context}: input {} created {} resolved {} ({ratio:.2}x) rank_pass_nodes {} rounds {}",
            stats.input_edges, stats.created_nodes, stats.resolved_candidates,
            stats.rank_pass_nodes, stats.rounds,
        );
        assert!(stats.resolved_candidates > 0 && stats.created_nodes > 0);
        assert!(ratio <= C, "{context}: {ratio:.2} resolutions per input edge + created node");
    };
    type Generator = fn(usize, u64) -> XmlTree;
    let families: [(&str, Generator, [usize; 3]); 2] =
        [("XMark", xmark_like, [6, 25, 100]), ("Treebank", treebank_like, [10, 40, 160])];
    for (name, generate, sizes) in families {
        for size in sizes {
            let xml = generate(size, 1);
            let edges = 2 * xml.node_count();
            let (mut g, stats) = GrammarRePair::default().compress_xml(&xml);
            check(&stats, &format!("{name} {edges} edges from tree"));
            let ops = random_update_sequence(&xml, 32, 5, WorkloadMix::paper_mix(0.5));
            apply_batch(&mut g, &ops).unwrap();
            let mut index_bytes = 0;
            let stats = GrammarRePair::default().recompress_observed(&mut g, &mut |index, _, _| {
                index_bytes = index_bytes.max(index.heap_bytes());
            });
            check(&stats, &format!("{name} {edges} edges after a 32-op batch"));
            println!("  index peak {} B per input edge", index_bytes / stats.input_edges);
        }
    }
}

// ----- random grammars and updates --------------------------------------------

/// Random unranked XML trees over a small alphabet (repetition keeps them
/// compressible and rich in equal-label digrams).
fn arbitrary_xml(max_nodes: usize) -> impl Strategy<Value = XmlTree> {
    let labels = prop::sample::select(vec!["a", "a", "b", "c", "item"]);
    proptest::collection::vec((labels, 0usize..6), 1..max_nodes).prop_map(|spec| {
        let mut t = XmlTree::new("root");
        let mut nodes = vec![t.root()];
        for (label, parent_choice) in spec {
            let parent = nodes[nodes.len() - 1 - parent_choice % nodes.len().min(6)];
            let n = t.add_child(parent, label);
            nodes.push(n);
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// On random documents and random update batches the index equals a
    /// fresh rebuild after every round — from the tree, and after updates on
    /// the compressed grammar — and both paths end byte-identical.
    #[test]
    fn prop_index_matches_rebuild_after_every_round(
        xml in arbitrary_xml(70),
        seed in any::<u64>(),
        with_renames in any::<bool>(),
    ) {
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let (mut g, _) = assert_paths_agree_checked(&Grammar::new(symbols, bin), "random tree");
        let mix =
            if with_renames { WorkloadMix::clustered(0.7) } else { WorkloadMix::paper_mix(0.5) };
        let ops = random_update_sequence(&xml, 10, seed, mix);
        for op in &ops {
            apply_update(&mut g, op).unwrap();
        }
        let before = fingerprint(&g);
        let (out, _) = assert_paths_agree_checked(&g, "random grammar after random updates");
        prop_assert_eq!(fingerprint(&out), before);
    }
}
