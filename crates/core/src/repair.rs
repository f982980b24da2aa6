//! The GrammarRePair compression loop (paper Algorithm 1).
//!
//! GrammarRePair takes an arbitrary SLCF tree grammar `G` and produces a
//! (smaller) grammar `G'` with `val(G') = val(G)` by running RePair digram
//! replacement *directly on the grammar*: occurrences are counted over the
//! derived tree via usage-weighted occurrence generators, replacements
//! partially decompress the grammar only where needed, and a final pruning
//! phase removes unproductive rules.

use sltgrammar::pruning::{prune, PruneStats};
use sltgrammar::{FxHashSet, Grammar, SymbolTable};
use treerepair::digram::pattern_rhs;
use treerepair::{Digram, DigramSelector};
use xmltree::binary::to_binary;
use xmltree::XmlTree;

use crate::occ_index::OccIndex;
use crate::occurrences::{retrieve_occs, FrozenSet};
use crate::replace::{replace_all_occurrences, RefCounts};

/// Configuration of the GrammarRePair loop.
#[derive(Debug, Clone, Copy)]
pub struct GrammarRePairConfig {
    /// The paper's `k_in`: maximal rank of a digram pattern rule.
    pub max_rank: usize,
    /// Minimal usage-weighted occurrence count for a digram to be replaced.
    pub min_occurrences: u64,
    /// Enable the fragment-export optimization of Section IV-E ("lemma
    /// generation"). Disabling it reproduces the non-optimized curve of Fig. 3.
    pub optimize: bool,
    /// Run the final pruning phase.
    pub prune: bool,
    /// Digram selection strategy, shared with the tree compressor: the
    /// frequency-bucket queue by default, a full table scan as the testable
    /// fallback. Both produce identical selections.
    pub selector: DigramSelector,
}

impl Default for GrammarRePairConfig {
    fn default() -> Self {
        GrammarRePairConfig {
            max_rank: 4,
            min_occurrences: 2,
            optimize: true,
            prune: true,
            selector: DigramSelector::FrequencyQueue,
        }
    }
}

/// Statistics of one GrammarRePair run.
#[derive(Debug, Clone, Default)]
pub struct RepairStats {
    /// Number of digram replacement rounds.
    pub rounds: usize,
    /// Grammar edge count before recompression.
    pub input_edges: usize,
    /// Grammar edge count after recompression.
    pub output_edges: usize,
    /// Largest intermediate grammar edge count observed after any round — the
    /// numerator of the paper's blow-up measure (Figure 2).
    pub max_intermediate_edges: usize,
    /// Total number of inlining steps performed during partial decompression.
    pub inlinings: usize,
    /// Total number of digram occurrences replaced.
    pub replacements: usize,
    /// Number of fragment rules exported by the optimization.
    pub exported_rules: usize,
    /// Chain resolutions (`TREEPARENT` + `TREECHILD` of one generator node)
    /// performed by index refreshes and localization — a deterministic work
    /// counter that stays proportional to the input plus the nodes the run
    /// creates. Only counted on the incremental path.
    pub resolved_candidates: usize,
    /// Rules, call edges and arena nodes visited by the index's flat global
    /// passes (change detection and order/usage per round, preorder ranks for
    /// ordered equal-label replay).
    pub rank_pass_nodes: usize,
    /// Arena nodes the run created (inlined copies, pattern references,
    /// exported and pattern rule bodies) — with `input_edges`, the yardstick
    /// `resolved_candidates` is held against.
    pub created_nodes: usize,
    /// Result of the pruning phase.
    pub pruned: PruneStats,
}

impl RepairStats {
    /// Compression ratio relative to the input grammar.
    pub fn ratio(&self) -> f64 {
        if self.input_edges == 0 {
            return 1.0;
        }
        self.output_edges as f64 / self.input_edges as f64
    }

    /// Blow-up: max intermediate grammar size / final grammar size.
    pub fn blowup(&self) -> f64 {
        if self.output_edges == 0 {
            return 1.0;
        }
        self.max_intermediate_edges as f64 / self.output_edges as f64
    }
}

/// The GrammarRePair recompressor.
#[derive(Debug, Clone, Default)]
pub struct GrammarRePair {
    /// Loop configuration.
    pub config: GrammarRePairConfig,
}

impl GrammarRePair {
    /// Creates a recompressor with the given configuration.
    pub fn new(config: GrammarRePairConfig) -> Self {
        GrammarRePair { config }
    }

    /// Recompresses `g` in place. The derived tree `val(G)` is unchanged.
    pub fn recompress(&self, g: &mut Grammar) -> RepairStats {
        self.recompress_with(g, |g, stats| match self.config.selector {
            DigramSelector::FrequencyQueue => self.run_incremental(g, stats, &mut |_, _, _| {}),
            DigramSelector::NaiveScan => self.run_rebuild(g, stats),
        })
    }

    /// The frame around a replacement loop: size accounting before, garbage
    /// collection, pruning and compaction after.
    fn recompress_with(
        &self,
        g: &mut Grammar,
        run: impl FnOnce(&mut Grammar, &mut RepairStats),
    ) -> RepairStats {
        let input_edges = g.edge_count();
        let mut stats = RepairStats {
            input_edges,
            max_intermediate_edges: input_edges,
            ..RepairStats::default()
        };

        run(g, &mut stats);

        g.gc();
        if self.config.prune {
            stats.pruned = prune(g);
        }
        g.compact();
        stats.output_edges = g.edge_count();
        stats.max_intermediate_edges = stats.max_intermediate_edges.max(stats.output_edges);
        stats
    }

    /// [`GrammarRePair::recompress`] on the incremental path with a hook that
    /// sees the index, the grammar and the frozen set after the initial build
    /// and after every round's refresh — how the differential suites run
    /// [`OccIndex::assert_matches_rebuild`] round by round.
    pub fn recompress_observed(
        &self,
        g: &mut Grammar,
        observe: &mut dyn FnMut(&OccIndex, &Grammar, &FrozenSet),
    ) -> RepairStats {
        self.recompress_with(g, |g, stats| self.run_incremental(g, stats, observe))
    }

    /// The default replacement loop: the occurrence table, the shared
    /// frequency-bucket queue and the reference counts are built **once** and
    /// patched after each round — [`retrieve_occs`] is never called here, so a
    /// round costs time proportional to what it changes, not to the grammar.
    fn run_incremental(
        &self,
        g: &mut Grammar,
        stats: &mut RepairStats,
        observe: &mut dyn FnMut(&OccIndex, &Grammar, &FrozenSet),
    ) {
        let mut frozen: FrozenSet = FrozenSet::default();
        let mut index = OccIndex::build(g, &frozen);
        let mut refs = RefCounts::from_counts(index.ref_counts());
        observe(&index, g, &frozen);
        while let Some(digram) =
            index.select_best(g, self.config.min_occurrences, self.config.max_rank)
        {
            let sites = index.sites(&digram);
            let rank = digram.pattern_rank(g);
            let pattern = pattern_rhs(g, &digram);
            let x = g.add_rule_fresh("X", rank, pattern);
            frozen.insert(x);
            refs.add_rule_body(g, x);
            let round = replace_all_occurrences(
                g,
                &digram,
                x,
                &sites,
                &frozen,
                self.config.optimize,
                &mut refs,
            );
            stats.inlinings += round.inlinings;
            stats.replacements += round.replacements;
            stats.exported_rules += round.exported_rules;
            stats.resolved_candidates += round.resolved_candidates;
            let success = round.replacements > 0;
            if !success {
                // Nothing was replaced (every counted occurrence overlapped a
                // previously replaced one): drop the useless pattern rule and
                // ban the digram to guarantee termination. Localization may
                // still have inlined rules, so the refresh below is not
                // skippable.
                refs.remove_rule_body(g, x);
                g.remove_rule(x);
                frozen.remove(&x);
                index.exclude(&digram);
            }
            debug_assert!(refs.matches(g), "maintained reference counts must match a fresh walk");
            index.refresh(g, &frozen);
            observe(&index, g, &frozen);
            if success {
                stats.rounds += 1;
                stats.max_intermediate_edges =
                    stats.max_intermediate_edges.max(index.edge_count());
            }
        }
        stats.resolved_candidates += index.resolved_candidates();
        stats.rank_pass_nodes += index.rank_pass_nodes();
        stats.created_nodes += index.created_nodes();
    }

    /// The rebuild oracle: re-retrieves all occurrence generators per round by
    /// a full grammar walk and selects by a linear table scan. Kept as the
    /// testable reference — byte-identical outputs to the incremental path are
    /// asserted by the selector-equivalence suites.
    fn run_rebuild(&self, g: &mut Grammar, stats: &mut RepairStats) {
        let mut frozen: FrozenSet = FrozenSet::default();
        // Digrams that were selected but produced no replacement; they are
        // banned to guarantee termination.
        let mut banned: FxHashSet<Digram> = FxHashSet::default();

        loop {
            let table = retrieve_occs(g, &frozen);
            let mut best: Option<(u64, Digram)> = None;
            for (digram, occs) in &table {
                if banned.contains(digram) {
                    continue;
                }
                if occs.weight < self.config.min_occurrences {
                    continue;
                }
                if digram.pattern_rank(g) > self.config.max_rank {
                    continue;
                }
                match &best {
                    None => best = Some((occs.weight, *digram)),
                    Some((w, d)) => {
                        if occs.weight > *w
                            || (occs.weight == *w && digram.sort_key() < d.sort_key())
                        {
                            best = Some((occs.weight, *digram));
                        }
                    }
                }
            }
            let Some(digram) = best.map(|(_, d)| d) else { break };

            let rank = digram.pattern_rank(g);
            let pattern = pattern_rhs(g, &digram);
            let x = g.add_rule_fresh("X", rank, pattern);
            frozen.insert(x);
            let sites = table[&digram].sites();
            let mut refs = RefCounts::from_grammar(g);
            let round = replace_all_occurrences(
                g,
                &digram,
                x,
                &sites,
                &frozen,
                self.config.optimize,
                &mut refs,
            );
            stats.inlinings += round.inlinings;
            stats.replacements += round.replacements;
            stats.exported_rules += round.exported_rules;
            if round.replacements == 0 {
                g.remove_rule(x);
                frozen.remove(&x);
                banned.insert(digram);
                continue;
            }
            stats.rounds += 1;
            stats.max_intermediate_edges = stats.max_intermediate_edges.max(g.edge_count());
        }
    }

    /// Compresses an XML document from scratch by running GrammarRePair on the
    /// trivial grammar whose start rule is the document's binary tree — this is
    /// "GrammarRePair applied to a tree" in the paper's experiments.
    pub fn compress_xml(&self, xml: &XmlTree) -> (Grammar, RepairStats) {
        let mut symbols = SymbolTable::new();
        let bin = to_binary(xml, &mut symbols).expect("document labels are valid symbols");
        let mut g = Grammar::new(symbols, bin);
        let stats = self.recompress(&mut g);
        (g, stats)
    }

    /// Like [`GrammarRePair::compress_xml`], but interns the document's labels
    /// into `shared` and hands the grammar a *clone* of it: the caller's table
    /// is sealed ([`SymbolTable::seal`]) after interning, so the grammar's
    /// whole load-time alphabet references the caller's resident strings
    /// instead of copying them. This is the multi-document seam
    /// [`crate::store::DomStore`] loads through.
    ///
    /// Fails if a document label was already interned with a different rank.
    /// On failure `shared` keeps the labels interned before the conflict
    /// (unsealed, in its local tail) — callers that need all-or-nothing
    /// semantics should intern into a scratch clone and commit on success,
    /// as [`crate::store::DomStore::load_xml`] does.
    pub fn compress_xml_shared(
        &self,
        xml: &XmlTree,
        shared: &mut SymbolTable,
    ) -> crate::error::Result<(Grammar, RepairStats)> {
        let bin = to_binary(xml, shared)?;
        shared.seal();
        let mut g = Grammar::new(shared.clone(), bin);
        let stats = self.recompress(&mut g);
        Ok((g, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::fingerprint::fingerprint;
    use sltgrammar::text::parse_grammar;
    use treerepair::TreeRePair;
    use xmltree::parse::parse_xml;

    #[test]
    fn recompression_preserves_the_derived_tree() {
        let mut g = parse_grammar(
            "S -> f(A(B,B),#)\n\
             B -> A(#,#)\n\
             A -> a(#, a(y1, y2))",
        )
        .unwrap();
        let before = fingerprint(&g);
        let stats = GrammarRePair::default().recompress(&mut g);
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), before);
        assert!(stats.output_edges <= stats.input_edges + 2);
    }

    #[test]
    fn section_iii_example_b_ab8_a() {
        // The updated grammar of Section III-B: {A -> bBBa, B -> CC, C -> DD, D -> ab}
        // represented as a monadic tree grammar. GrammarRePair should recompress
        // it without losing the represented string b(ab)^8a.
        let mut g = parse_grammar(
            "S -> b(B(B(a(#))))\n\
             B -> C(C(y1))\n\
             C -> D(D(y1))\n\
             D -> a(b(y1))",
        )
        .unwrap();
        let before = fingerprint(&g);
        let input_edges = g.edge_count();
        let stats = GrammarRePair::default().recompress(&mut g);
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), before);
        // The grammar must stay compressed (the represented string has 18 letters
        // plus the null leaf; the recompressed grammar must be smaller than that).
        assert!(stats.output_edges <= input_edges + 2);
        assert!((stats.output_edges as u128) < fingerprint(&g).size);
    }

    #[test]
    fn compressing_a_tree_matches_treerepair_quality() {
        let mut doc = String::from("<log>");
        for i in 0..32 {
            doc.push_str(&format!(
                "<entry><ts/><host/><msg><code{}/></msg></entry>",
                i % 2
            ));
        }
        doc.push_str("</log>");
        let xml = parse_xml(&doc).unwrap();
        let (g_tree, tr_stats) = TreeRePair::default().compress_xml(&xml);
        let (g_gram, gr_stats) = GrammarRePair::default().compress_xml(&xml);
        g_gram.validate().unwrap();
        // Both compress the same document to a similar size (within 25%).
        assert_eq!(
            fingerprint(&g_tree),
            fingerprint(&g_gram),
            "both grammars must derive the same tree"
        );
        let a = tr_stats.output_edges as f64;
        let b = gr_stats.output_edges as f64;
        assert!(
            (a - b).abs() <= 0.25 * a.max(b) + 4.0,
            "sizes too different: TreeRePair {a}, GrammarRePair {b}"
        );
        // Strong compression on this repetitive document.
        assert!(gr_stats.output_edges * 3 < gr_stats.input_edges);
    }

    #[test]
    fn optimization_can_be_disabled() {
        let mut g = parse_grammar(
            "S -> f(A(b(#,#)), A(b(#,#)))\n\
             A -> a(y1, c(d(#,#), c(d(#,#), e(#,#))))",
        )
        .unwrap();
        let before = fingerprint(&g);
        let config = GrammarRePairConfig {
            optimize: false,
            ..GrammarRePairConfig::default()
        };
        let stats = GrammarRePair::new(config).recompress(&mut g);
        assert_eq!(fingerprint(&g), before);
        assert_eq!(stats.exported_rules, 0);
    }

    #[test]
    fn idempotent_on_already_compressed_grammars() {
        // Compress a document, then recompress the result: the size must not grow.
        let mut doc = String::from("<r>");
        for _ in 0..20 {
            doc.push_str("<item><k/><v/></item>");
        }
        doc.push_str("</r>");
        let xml = parse_xml(&doc).unwrap();
        let (mut g, first) = GrammarRePair::default().compress_xml(&xml);
        let fp = fingerprint(&g);
        let second = GrammarRePair::default().recompress(&mut g);
        assert_eq!(fingerprint(&g), fp);
        assert!(second.output_edges <= first.output_edges);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let xml = parse_xml("<r><a><b/></a><a><b/></a><a><b/></a></r>").unwrap();
        let (g, stats) = GrammarRePair::default().compress_xml(&xml);
        assert_eq!(stats.output_edges, g.edge_count());
        assert!(stats.max_intermediate_edges >= stats.output_edges);
        assert!(stats.blowup() >= 1.0);
        assert!(stats.ratio() <= 1.0 + f64::EPSILON);
        assert!(stats.rounds > 0);
        assert!(stats.replacements >= stats.rounds);
    }
}
