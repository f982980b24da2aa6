//! The TreeRePair compression loop (paper Section IV, tree case; Lohrey,
//! Maneth, Mennicke 2013).
//!
//! Starting from a trivial grammar whose start rule is the input tree, the
//! compressor repeatedly selects a most frequent *appropriate* digram, replaces
//! every recorded occurrence by a fresh pattern nonterminal, incrementally
//! updates the neighbouring digram occurrences, and finally prunes unproductive
//! rules.

use sltgrammar::pruning::{prune, PruneStats};
use sltgrammar::{Grammar, NodeId, NodeKind, NtId, RhsTree, SymbolTable};
use xmltree::binary::to_binary;
use xmltree::XmlTree;

use crate::digram::{pattern_rhs, Digram};
use crate::occurrences::OccTable;

/// How the compression loop selects the next digram to replace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DigramSelector {
    /// Pop the incrementally maintained frequency-bucket queue (O(1)
    /// amortized per round). The default.
    #[default]
    FrequencyQueue,
    /// Rescan the whole occurrence table every round (the historical
    /// quadratic behavior). Kept as an oracle: both selectors produce
    /// byte-identical grammars, which the equivalence tests assert.
    NaiveScan,
}

/// Configuration of the RePair compression loop.
#[derive(Debug, Clone, Copy)]
pub struct TreeRePairConfig {
    /// The paper's `k_in`: maximal rank of a digram pattern rule.
    pub max_rank: usize,
    /// Minimal number of occurrences for a digram to be replaced (the paper
    /// requires "more than one").
    pub min_occurrences: usize,
    /// Whether to run the final pruning phase.
    pub prune: bool,
    /// Digram selection strategy; see [`DigramSelector`].
    pub selector: DigramSelector,
}

impl Default for TreeRePairConfig {
    fn default() -> Self {
        TreeRePairConfig {
            max_rank: 4,
            min_occurrences: 2,
            prune: true,
            selector: DigramSelector::FrequencyQueue,
        }
    }
}

/// Statistics collected over one compression run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressionStats {
    /// Number of digram replacement rounds (= pattern rules introduced before pruning).
    pub rounds: usize,
    /// Edge count of the input (the start rule before compression).
    pub input_edges: usize,
    /// Edge count of the final grammar.
    pub output_edges: usize,
    /// Largest grammar edge count observed after any replacement round.
    pub max_intermediate_edges: usize,
    /// Result of the pruning phase.
    pub pruned: PruneStats,
}

impl CompressionStats {
    /// Compression ratio: final grammar edges / input edges.
    pub fn ratio(&self) -> f64 {
        if self.input_edges == 0 {
            return 1.0;
        }
        self.output_edges as f64 / self.input_edges as f64
    }

    /// Blow-up: max intermediate grammar size / final grammar size (Figure 2's measure).
    pub fn blowup(&self) -> f64 {
        if self.output_edges == 0 {
            return 1.0;
        }
        self.max_intermediate_edges as f64 / self.output_edges as f64
    }
}

/// The TreeRePair compressor.
#[derive(Debug, Clone, Default)]
pub struct TreeRePair {
    /// Loop configuration.
    pub config: TreeRePairConfig,
}

impl TreeRePair {
    /// Creates a compressor with the given configuration.
    pub fn new(config: TreeRePairConfig) -> Self {
        TreeRePair { config }
    }

    /// Compresses a binary tree (terminals only) into an SLCF grammar.
    pub fn compress_binary(
        &self,
        symbols: SymbolTable,
        bin: RhsTree,
    ) -> (Grammar, CompressionStats) {
        let mut grammar = Grammar::new(symbols, bin);
        let stats = self.compress_start_rule(&mut grammar);
        (grammar, stats)
    }

    /// Parses, binarizes and compresses an XML document tree.
    pub fn compress_xml(&self, xml: &XmlTree) -> (Grammar, CompressionStats) {
        let mut symbols = SymbolTable::new();
        let bin = to_binary(xml, &mut symbols).expect("document labels are valid symbols");
        self.compress_binary(symbols, bin)
    }

    /// Runs the RePair loop on the start rule of an existing grammar whose start
    /// rule is a plain tree (terminals only). Used internally and by the
    /// update-decompress-compress baseline.
    pub fn compress_start_rule(&self, grammar: &mut Grammar) -> CompressionStats {
        let start = grammar.start();
        let input_edges = grammar.edge_count();
        let mut stats = CompressionStats {
            input_edges,
            max_intermediate_edges: input_edges,
            ..CompressionStats::default()
        };

        let mut occ = OccTable::scan(&grammar.rule(start).rhs);
        // Replacement targets of the round, reused across rounds (filled from
        // the ordered occurrence set — no per-round allocation or sort).
        let mut targets: Vec<NodeId> = Vec::new();
        // Live grammar edge count, maintained arithmetically: recomputing it
        // via `Grammar::edge_count` walks every rule and would put an O(n)
        // traversal back into each round.
        let mut live_edges = input_edges;
        loop {
            let selected = match self.config.selector {
                DigramSelector::FrequencyQueue => occ.select_best(
                    self.config.min_occurrences,
                    // Pattern ranks are immutable per digram, so the queue
                    // caches this verdict: the rank of any digram is computed
                    // at most once over the whole run.
                    |d| d.pattern_rank(grammar) <= self.config.max_rank,
                ),
                DigramSelector::NaiveScan => self.select_naive(&occ, grammar),
            };
            let Some(digram) = selected else {
                break;
            };
            let pattern = pattern_rhs(grammar, &digram);
            let rank = digram.pattern_rank(grammar);
            let x = grammar.add_rule_fresh("X", rank, pattern);
            occ.collect_children_into(&digram, &mut targets);
            let mut replaced = 0usize;
            {
                let rhs = &mut grammar.rule_mut(start).rhs;
                for &w in &targets {
                    if replace_occurrence(rhs, &mut occ, &digram, x, w) {
                        replaced += 1;
                    }
                }
            }
            occ.remove_digram(&digram);
            stats.rounds += 1;
            // The pattern rule t_X has rank+1 edges; each splice fuses two
            // nodes into one, removing exactly one edge from the start rule.
            live_edges += rank + 1;
            live_edges -= replaced;
            debug_assert_eq!(live_edges, grammar.edge_count());
            stats.max_intermediate_edges = stats.max_intermediate_edges.max(live_edges);
        }

        if self.config.prune {
            stats.pruned = prune(grammar);
        }
        grammar.gc();
        grammar.compact();
        stats.output_edges = grammar.edge_count();
        stats.max_intermediate_edges = stats.max_intermediate_edges.max(stats.output_edges);
        stats
    }

    /// Selects a most frequent appropriate digram by scanning the whole
    /// occurrence table (deterministic tie-breaking). Reference implementation
    /// for [`DigramSelector::NaiveScan`]; the queue-based selector must agree
    /// with it on every round.
    fn select_naive(&self, occ: &OccTable, grammar: &Grammar) -> Option<Digram> {
        let mut best: Option<(usize, Digram)> = None;
        for (digram, occurrences) in occ.iter() {
            let count = occurrences.count();
            if count < self.config.min_occurrences {
                continue;
            }
            if digram.pattern_rank(grammar) > self.config.max_rank {
                continue;
            }
            match &best {
                None => best = Some((count, *digram)),
                Some((best_count, best_digram)) => {
                    if count > *best_count
                        || (count == *best_count && digram.sort_key() < best_digram.sort_key())
                    {
                        best = Some((count, *digram));
                    }
                }
            }
        }
        best.map(|(_, d)| d)
    }
}

/// Replaces one occurrence of `digram` (identified by its child node `w`) with a
/// reference to the pattern rule `x`, updating neighbouring occurrences.
/// Returns whether the occurrence was still intact and actually replaced.
fn replace_occurrence(
    rhs: &mut RhsTree,
    occ: &mut OccTable,
    digram: &Digram,
    x: NtId,
    w: NodeId,
) -> bool {
    let Some(v) = rhs.parent(w) else { return false };
    // Defensive re-validation: the occurrence must still be intact.
    if rhs.kind(v) != digram.parent
        || rhs.kind(w) != digram.child
        || rhs.child_index(w) != Some(digram.child_index)
    {
        return false;
    }
    let i = digram.child_index;

    // Remove neighbouring occurrences that mention v or w.
    if let Some(p) = rhs.parent(v) {
        let j = rhs.child_index(v).expect("v has a parent");
        occ.remove(
            &Digram {
                parent: rhs.kind(p),
                child_index: j,
                child: rhs.kind(v),
            },
            p,
            v,
        );
    }
    let v_children = rhs.children(v).to_vec();
    for (k, &c) in v_children.iter().enumerate() {
        if k == i {
            continue;
        }
        occ.remove(
            &Digram {
                parent: rhs.kind(v),
                child_index: k,
                child: rhs.kind(c),
            },
            v,
            c,
        );
    }
    let w_children = rhs.children(w).to_vec();
    for (k, &c) in w_children.iter().enumerate() {
        occ.remove(
            &Digram {
                parent: rhs.kind(w),
                child_index: k,
                child: rhs.kind(c),
            },
            w,
            c,
        );
    }

    // Structural replacement: X(v.1, …, v.(i−1), w.1, …, w.n, v.(i+1), …, v.m).
    let x_node = rhs.replace_digram(v, i, NodeKind::Nt(x));

    // Add the new occurrences around the fresh node.
    if let Some(p) = rhs.parent(x_node) {
        let j = rhs.child_index(x_node).expect("x_node has a parent");
        occ.add(
            Digram {
                parent: rhs.kind(p),
                child_index: j,
                child: NodeKind::Nt(x),
            },
            p,
            x_node,
        );
    }
    let x_children = rhs.children(x_node).to_vec();
    for (k, &c) in x_children.iter().enumerate() {
        occ.add(
            Digram {
                parent: NodeKind::Nt(x),
                child_index: k,
                child: rhs.kind(c),
            },
            x_node,
            c,
        );
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::fingerprint::fingerprint;
    use sltgrammar::text::parse_grammar;
    use xmltree::binary::{binary_to_grammar, tree_fingerprint};
    use xmltree::parse::parse_xml;

    fn compress_doc(doc: &str) -> (Grammar, CompressionStats, sltgrammar::fingerprint::Fingerprint) {
        let xml = parse_xml(doc).unwrap();
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let fp = tree_fingerprint(&bin, &symbols);
        let (g, stats) = TreeRePair::default().compress_binary(symbols, bin);
        (g, stats, fp)
    }

    #[test]
    fn compression_preserves_the_derived_tree() {
        let (g, _, fp) = compress_doc(
            "<r><rec><a/><b/><c/></rec><rec><a/><b/><c/></rec><rec><a/><b/><c/></rec>\
             <rec><a/><b/><c/></rec><rec><a/><b/><c/></rec></r>",
        );
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), fp);
    }

    #[test]
    fn repetitive_documents_compress_well() {
        // 64 identical records: the grammar must be much smaller than the tree.
        let mut doc = String::from("<log>");
        for _ in 0..64 {
            doc.push_str("<entry><ts/><host/><msg/></entry>");
        }
        doc.push_str("</log>");
        let (g, stats, fp) = compress_doc(&doc);
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), fp);
        assert!(stats.output_edges * 4 < stats.input_edges,
            "expected at least 4x compression, got {} -> {}", stats.input_edges, stats.output_edges);
        assert!(stats.rounds > 0);
    }

    #[test]
    fn incompressible_documents_stay_roughly_the_same_size() {
        // A path of distinct labels has no repeated digram at all.
        let mut doc = String::new();
        for i in 0..40 {
            doc.push_str(&format!("<n{i}>"));
        }
        for i in (0..40).rev() {
            doc.push_str(&format!("</n{i}>"));
        }
        let (g, stats, fp) = compress_doc(&doc);
        assert_eq!(fingerprint(&g), fp);
        // Only null-child digrams can be shared; the grammar stays within a
        // small factor of the input.
        assert!(stats.output_edges as f64 > 0.5 * stats.input_edges as f64);
    }

    #[test]
    fn string_example_from_the_introduction() {
        // w = ababababa as a monadic tree: RePair yields a grammar of size <= 7
        // (the paper's example grammar has size 7; ours counts edges of the
        // equivalent monadic-tree encoding, so we only check it shrinks).
        let g0 = parse_grammar(
            "S -> a(b(a(b(a(b(a(b(a(#)))))))))",
        )
        .unwrap();
        let before = fingerprint(&g0);
        let start_rhs = g0.rule(g0.start()).rhs.clone();
        let (g, stats) = TreeRePair::default().compress_binary(g0.symbols.clone(), start_rhs);
        assert_eq!(fingerprint(&g), before);
        assert!(stats.output_edges < stats.input_edges);
        assert!(g.rule_count() >= 2);
    }

    #[test]
    fn max_rank_limits_pattern_arity() {
        let xml = parse_xml("<r><a><b/><b/></a><a><b/><b/></a></r>").unwrap();
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let config = TreeRePairConfig {
            max_rank: 2,
            ..TreeRePairConfig::default()
        };
        let (g, _) = TreeRePair::new(config).compress_binary(symbols, bin);
        for nt in g.nonterminals() {
            assert!(g.rule(nt).rank <= 2, "rule {} exceeds max rank", g.rule(nt).name);
        }
    }

    #[test]
    fn stats_report_consistent_sizes() {
        let (g, stats, _) = compress_doc("<r><x><y/></x><x><y/></x><x><y/></x></r>");
        assert_eq!(stats.output_edges, g.edge_count());
        assert!(stats.max_intermediate_edges >= stats.output_edges);
        assert!(stats.ratio() <= 1.0 + f64::EPSILON);
        assert!(stats.blowup() >= 1.0);
    }

    #[test]
    fn pruning_can_be_disabled() {
        let xml = parse_xml("<r><x><y/></x><x><y/></x></r>").unwrap();
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let fp = tree_fingerprint(&bin, &symbols);
        let config = TreeRePairConfig {
            prune: false,
            ..TreeRePairConfig::default()
        };
        let (g, _) = TreeRePair::new(config).compress_binary(symbols, bin);
        assert_eq!(fingerprint(&g), fp);
    }

    #[test]
    fn trivial_grammar_roundtrip_matches_input() {
        // Compress then decompress: val(G) equals the original binary tree.
        let xml = parse_xml("<r><p><q/><q/></p><p><q/><q/></p></r>").unwrap();
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let reference = binary_to_grammar(symbols.clone(), bin.clone());
        let (g, _) = TreeRePair::default().compress_binary(symbols, bin);
        let val = sltgrammar::derive::val(&g).unwrap();
        let val_ref = sltgrammar::derive::val(&reference).unwrap();
        assert_eq!(val.node_count(), val_ref.node_count());
    }
}
