//! Cross-crate integration tests for persistence and the related-work
//! baselines: binary grammar serialization, minimal-DAG sharing, and
//! GrammarRePair run on DAG-derived grammars.

use proptest::prelude::*;
use slt_xml::dag_xml::{dag_to_grammar, Dag};
use slt_xml::datasets::catalog::Dataset;
use slt_xml::grammar_repair::repair::GrammarRePair;
use slt_xml::sltgrammar::fingerprint::fingerprint;
use slt_xml::sltgrammar::{serialize, SymbolTable};
use slt_xml::treerepair::TreeRePair;
use slt_xml::xmltree::binary::{to_binary, tree_fingerprint};
use slt_xml::xmltree::XmlTree;

#[test]
fn serialization_roundtrips_compressed_corpus_documents() {
    for dataset in [Dataset::ExiWeblog, Dataset::XMark, Dataset::Ncbi] {
        let xml = dataset.generate(0.03);
        let (mut g, _) = GrammarRePair::default().compress_xml(&xml);
        g.compact();
        let bytes = serialize::encode(&g);
        let back = serialize::decode(&bytes).unwrap();
        back.validate().unwrap();
        assert_eq!(fingerprint(&g), fingerprint(&back), "roundtrip on {}", dataset.name());
        assert_eq!(g.edge_count(), back.edge_count());
        // The byte encoding is small: a handful of bytes per grammar edge.
        assert!(
            bytes.len() <= 16 * g.edge_count() + 1024,
            "{}: {} bytes for {} edges",
            dataset.name(),
            bytes.len(),
            g.edge_count()
        );
    }
}

#[test]
fn dag_sharing_sits_between_tree_and_grammar_compression() {
    // The paper's introduction: DAGs shrink typical XML to ~10 % of the edges,
    // SLT grammars to ~3 %. On the synthetic corpus the ordering
    // grammar <= DAG <= tree must hold for the well-compressing documents.
    for dataset in [Dataset::ExiWeblog, Dataset::Medline, Dataset::ExiTelecomp] {
        let xml = dataset.generate(0.03);
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let dag = Dag::build(&bin, &symbols);
        let (g, _) = TreeRePair::default().compress_binary(symbols.clone(), bin.clone());
        assert!(
            dag.edge_count() <= bin.edge_count(),
            "{}: DAG must not exceed the tree",
            dataset.name()
        );
        assert!(
            g.edge_count() <= dag.edge_count(),
            "{}: grammar ({}) must not exceed the DAG ({})",
            dataset.name(),
            g.edge_count(),
            dag.edge_count()
        );
        assert_eq!(dag.derived_node_count(), bin.node_count() as u128);
    }
}

#[test]
fn grammarrepair_compresses_dag_grammars_without_losing_data() {
    // Static compression started from a grammar (not a tree): feed the
    // DAG-derived grammar to GrammarRePair — the scenario the paper calls
    // "GrammarRePair applied to grammars".
    for dataset in [Dataset::ExiWeblog, Dataset::XMark] {
        let xml = dataset.generate(0.03);
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let reference = tree_fingerprint(&bin, &symbols);
        let dag = Dag::build(&bin, &symbols);
        let mut g = dag_to_grammar(&dag, &symbols);
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), reference);

        let dag_edges = g.edge_count();
        let stats = GrammarRePair::default().recompress(&mut g);
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), reference, "lost data on {}", dataset.name());
        assert!(
            stats.output_edges <= dag_edges,
            "{}: recompression must not grow the DAG grammar ({} -> {})",
            dataset.name(),
            dag_edges,
            stats.output_edges
        );

        // And it should be in the same ballpark as compressing the tree directly.
        let (direct, _) = TreeRePair::default().compress_binary(symbols.clone(), bin.clone());
        assert!(
            stats.output_edges <= 2 * direct.edge_count() + 64,
            "{}: grammar from DAG ({}) far larger than direct compression ({})",
            dataset.name(),
            stats.output_edges,
            direct.edge_count()
        );
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Binary serialization is the identity on arbitrary compressed documents.
    #[test]
    fn prop_serialization_roundtrips(xml in arbitrary_xml(60)) {
        let (g, _) = TreeRePair::default().compress_xml(&xml);
        let back = serialize::decode(&serialize::encode(&g)).unwrap();
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(fingerprint(&g), fingerprint(&back));
        prop_assert_eq!(g.edge_count(), back.edge_count());
        prop_assert_eq!(g.rule_count(), back.rule_count());
    }

    /// The minimal DAG is lossless and never larger than the tree; converting
    /// it to a grammar keeps the document.
    #[test]
    fn prop_dag_is_lossless(xml in arbitrary_xml(60)) {
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let reference = tree_fingerprint(&bin, &symbols);
        let dag = Dag::build(&bin, &symbols);
        prop_assert!(dag.edge_count() <= bin.edge_count());
        prop_assert_eq!(dag.derived_node_count(), bin.node_count() as u128);
        prop_assert_eq!(tree_fingerprint(&dag.unfold(), &symbols), reference);
        let g = dag_to_grammar(&dag, &symbols);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(fingerprint(&g), reference);
    }

    /// Serialization composes with updates: decode(encode(G)) supports the same
    /// updates as G and yields the same document afterwards.
    #[test]
    fn prop_serialized_grammars_stay_updatable(xml in arbitrary_xml(40), label in "[a-z]{1,6}") {
        use slt_xml::grammar_repair::update::rename;
        let (g, _) = TreeRePair::default().compress_xml(&xml);
        let mut direct = g.clone();
        let mut reloaded = serialize::decode(&serialize::encode(&g)).unwrap();
        // Rename the document root (binary preorder index 0) in both copies.
        rename(&mut direct, 0, &label).unwrap();
        rename(&mut reloaded, 0, &label).unwrap();
        prop_assert_eq!(fingerprint(&direct), fingerprint(&reloaded));
    }

    /// Adversarial input: `decode` on arbitrary byte strings never panics and
    /// never allocates from a corrupt length field — it returns an error or a
    /// grammar that passes validation.
    #[test]
    fn prop_decode_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        if let Ok(g) = serialize::decode(&bytes) {
            prop_assert!(g.validate().is_ok());
        }
        // Arbitrary bytes prefixed with the real magic + version exercise the
        // parser past the header checks.
        let mut framed = b"SLTG\x02".to_vec();
        framed.extend_from_slice(&bytes);
        if let Ok(g) = serialize::decode(&framed) {
            prop_assert!(g.validate().is_ok());
        }
        // No version-1 format exists: whatever follows the byte is refused.
        let mut legacy = b"SLTG\x01".to_vec();
        legacy.extend_from_slice(&bytes);
        prop_assert!(serialize::decode(&legacy).is_err());
    }

    /// Adversarial input: truncating or bit-flipping a real encoding never
    /// panics; truncation always errors, a flip errors or decodes valid.
    #[test]
    fn prop_decode_survives_truncation_and_bit_flips(xml in arbitrary_xml(40), seed in any::<u64>()) {
        let (g, _) = TreeRePair::default().compress_xml(&xml);
        let bytes = serialize::encode(&g);
        for len in 0..bytes.len() {
            prop_assert!(serialize::decode(&bytes[..len]).is_err(),
                "truncation to {} of {} bytes must fail", len, bytes.len());
        }
        let mut flipped = bytes.clone();
        let bit = (seed as usize) % (bytes.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(g) = serialize::decode(&flipped) {
            prop_assert!(g.validate().is_ok());
        }
    }
}
