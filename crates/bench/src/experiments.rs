//! The experiment implementations behind every table and figure of Section V.

use std::time::{Duration, Instant};

use dag_xml::Dag;
use datasets::catalog::Dataset;
use datasets::gn::g_n;
use datasets::workload::{
    random_insert_delete_sequence, random_rename_sequence, WorkloadMix,
};
use grammar_repair::repair::{GrammarRePair, GrammarRePairConfig};
use grammar_repair::udc::{recompress_from_scratch, update_decompress_compress};
use grammar_repair::update::apply_update;
use sltgrammar::{serialize, Grammar, SymbolTable};
use succinct_xml::SuccinctDom;
use treerepair::{TreeRePair, TreeRePairConfig};
use xmltree::binary::to_binary;
use xmltree::XmlTree;

/// Measures the wall-clock time of a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// One row of Table III: document statistics and GrammarRePair compression.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset identity.
    pub dataset: Dataset,
    /// Edges of the (synthetic) document tree.
    pub edges: usize,
    /// Depth of the document tree.
    pub depth: usize,
    /// Edges of the grammar produced by GrammarRePair.
    pub c_edges: usize,
    /// Compression ratio in percent.
    pub ratio_percent: f64,
    /// Compression time.
    pub time: Duration,
}

/// Runs the Table III experiment for one dataset.
pub fn table3_row(dataset: Dataset, scale: f64) -> Table3Row {
    let xml = dataset.generate(scale);
    let edges = xml.edge_count();
    let depth = xml.depth();
    let ((_, stats), time) = timed(|| GrammarRePair::default().compress_xml(&xml));
    Table3Row {
        dataset,
        edges,
        depth,
        c_edges: stats.output_edges,
        ratio_percent: 100.0 * stats.output_edges as f64 / edges.max(1) as f64,
        time,
    }
}

/// One row of the static compression comparison (Section V-B text):
/// TreeRePair vs GrammarRePair applied to the tree vs GrammarRePair applied to
/// the TreeRePair grammar.
#[derive(Debug, Clone)]
pub struct StaticComparisonRow {
    /// Dataset identity.
    pub dataset: Dataset,
    /// Edges of the document tree.
    pub edges: usize,
    /// Grammar edges produced by TreeRePair.
    pub treerepair_edges: usize,
    /// TreeRePair compression time.
    pub treerepair_time: Duration,
    /// Grammar edges produced by GrammarRePair run on the tree.
    pub grammarrepair_tree_edges: usize,
    /// GrammarRePair-on-tree time.
    pub grammarrepair_tree_time: Duration,
    /// Grammar edges produced by GrammarRePair run on the TreeRePair grammar.
    pub grammarrepair_grammar_edges: usize,
    /// GrammarRePair-on-grammar time.
    pub grammarrepair_grammar_time: Duration,
}

/// Runs the static comparison for one dataset.
pub fn static_comparison_row(dataset: Dataset, scale: f64) -> StaticComparisonRow {
    let xml = dataset.generate(scale);
    let edges = xml.edge_count();
    let ((tr_grammar, tr_stats), tr_time) = timed(|| TreeRePair::default().compress_xml(&xml));
    let ((_, gr_tree_stats), gr_tree_time) =
        timed(|| GrammarRePair::default().compress_xml(&xml));
    let mut regram = tr_grammar.clone();
    let (gr_gram_stats, gr_gram_time) =
        timed(|| GrammarRePair::default().recompress(&mut regram));
    StaticComparisonRow {
        dataset,
        edges,
        treerepair_edges: tr_stats.output_edges,
        treerepair_time: tr_time,
        grammarrepair_tree_edges: gr_tree_stats.output_edges,
        grammarrepair_tree_time: gr_tree_time,
        grammarrepair_grammar_edges: gr_gram_stats.output_edges,
        grammarrepair_grammar_time: gr_gram_time,
    }
}

/// One bar of Figure 2: blow-up during recompression of a grammar.
#[derive(Debug, Clone)]
pub struct BlowupRow {
    /// Dataset identity.
    pub dataset: Dataset,
    /// Edges of the final grammar.
    pub final_edges: usize,
    /// Largest intermediate grammar observed.
    pub max_intermediate_edges: usize,
    /// Blow-up = max intermediate / final.
    pub blowup: f64,
    /// Final compression ratio (percent of the tree edges).
    pub final_ratio_percent: f64,
    /// Compression ratio of the largest intermediate grammar (percent).
    pub intermediate_ratio_percent: f64,
}

/// Runs the Figure 2 experiment for one dataset: compress the document with
/// TreeRePair, then recompress that grammar with GrammarRePair and record the
/// intermediate blow-up.
pub fn blowup_row(dataset: Dataset, scale: f64) -> BlowupRow {
    let xml = dataset.generate(scale);
    let edges = xml.edge_count();
    let (grammar, _) = TreeRePair::default().compress_xml(&xml);
    let mut g = grammar;
    let stats = GrammarRePair::default().recompress(&mut g);
    BlowupRow {
        dataset,
        final_edges: stats.output_edges,
        max_intermediate_edges: stats.max_intermediate_edges,
        blowup: stats.blowup(),
        final_ratio_percent: 100.0 * stats.output_edges as f64 / edges.max(1) as f64,
        intermediate_ratio_percent: 100.0 * stats.max_intermediate_edges as f64
            / edges.max(1) as f64,
    }
}

/// One point of Figure 3: the effect of the fragment-export optimization on the
/// `G_n` family.
#[derive(Debug, Clone)]
pub struct OptimizationPoint {
    /// Chain length parameter `n` of `G_n`.
    pub n: usize,
    /// Edges of the final grammar.
    pub final_edges: usize,
    /// Blow-up with the optimization enabled.
    pub optimized_blowup: f64,
    /// Runtime with the optimization enabled.
    pub optimized_time: Duration,
    /// Blow-up with the optimization disabled.
    pub unoptimized_blowup: f64,
    /// Runtime with the optimization disabled.
    pub unoptimized_time: Duration,
}

/// Runs the Figure 3 experiment for one `n`.
pub fn optimization_point(n: usize) -> OptimizationPoint {
    let run = |optimize: bool| {
        let mut g = g_n(n);
        let config = GrammarRePairConfig {
            optimize,
            ..GrammarRePairConfig::default()
        };
        let (stats, time) = timed(|| GrammarRePair::new(config).recompress(&mut g));
        (stats, time)
    };
    let (opt_stats, opt_time) = run(true);
    let (unopt_stats, unopt_time) = run(false);
    OptimizationPoint {
        n,
        final_edges: opt_stats.output_edges,
        optimized_blowup: opt_stats.blowup(),
        optimized_time: opt_time,
        unoptimized_blowup: unopt_stats.blowup(),
        unoptimized_time: unopt_time,
    }
}

/// One checkpoint of Figures 4 and 5: overheads relative to compression from
/// scratch, measured every `every` updates.
#[derive(Debug, Clone)]
pub struct UpdateCheckpoint {
    /// Number of updates applied so far.
    pub updates: usize,
    /// Grammar edges without any recompression (naive updates).
    pub naive_edges: usize,
    /// Grammar edges after recompressing with GrammarRePair at this checkpoint.
    pub grammarrepair_edges: usize,
    /// Grammar edges after update–decompress–compress from scratch.
    pub scratch_edges: usize,
}

impl UpdateCheckpoint {
    /// Overhead of naive updates: naive / from-scratch.
    pub fn naive_overhead(&self) -> f64 {
        self.naive_edges as f64 / self.scratch_edges.max(1) as f64
    }

    /// Overhead of GrammarRePair: recompressed / from-scratch.
    pub fn grammarrepair_overhead(&self) -> f64 {
        self.grammarrepair_edges as f64 / self.scratch_edges.max(1) as f64
    }
}

/// Result of the Figure 4/5 experiment for one dataset.
#[derive(Debug, Clone)]
pub struct UpdateExperiment {
    /// Dataset identity.
    pub dataset: Dataset,
    /// Edge count of the initial compressed grammar.
    pub initial_edges: usize,
    /// One entry per `every` updates.
    pub checkpoints: Vec<UpdateCheckpoint>,
}

/// Runs the Figure 4/5 experiment for one dataset: apply a random 90 % insert /
/// 10 % delete workload; every `every` updates compare (a) the naively updated
/// grammar, (b) the grammar recompressed by GrammarRePair and (c) compression
/// from scratch (udc).
pub fn update_experiment(
    dataset: Dataset,
    scale: f64,
    updates: usize,
    every: usize,
    seed: u64,
) -> UpdateExperiment {
    let xml = dataset.generate(scale);
    let ops = random_insert_delete_sequence(&xml, updates, seed, WorkloadMix::default());
    let (initial, _) = TreeRePair::default().compress_xml(&xml);

    // Three parallel states: the naive grammar (never recompressed), the
    // GrammarRePair-maintained grammar, and the op index.
    let mut naive = initial.clone();
    let mut maintained = initial.clone();
    let repair = GrammarRePair::default();
    let mut checkpoints = Vec::new();

    for (i, op) in ops.iter().enumerate() {
        apply_update(&mut naive, op).expect("workload operations are valid");
        apply_update(&mut maintained, op).expect("workload operations are valid");
        let done = i + 1;
        if done % every == 0 || done == ops.len() {
            repair.recompress(&mut maintained);
            // Compression from scratch of the *same* document state: decompress
            // the naive grammar and compress it with TreeRePair.
            let (scratch, _) = recompress_from_scratch(&naive, TreeRePairConfig::default())
                .expect("decompression stays within the configured limit");
            checkpoints.push(UpdateCheckpoint {
                updates: done,
                naive_edges: naive.edge_count(),
                grammarrepair_edges: maintained.edge_count(),
                scratch_edges: scratch.edge_count(),
            });
        }
    }

    UpdateExperiment {
        dataset,
        initial_edges: initial.edge_count(),
        checkpoints,
    }
}

/// One bar group of Figure 6: runtime of GrammarRePair recompression vs
/// update–decompress–compress after 300 random renames.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Dataset identity.
    pub dataset: Dataset,
    /// Edges of the (synthetic) document.
    pub edges: usize,
    /// Time for GrammarRePair recompression of the updated grammar.
    pub grammarrepair_time: Duration,
    /// Time for decompression + TreeRePair compression (udc with TreeRePair).
    pub udc_treerepair_time: Duration,
    /// Time for decompression + GrammarRePair-on-tree compression.
    pub udc_grammarrepair_time: Duration,
    /// Peak space proxy for GrammarRePair: largest intermediate grammar (edges).
    pub grammarrepair_peak_edges: usize,
    /// Peak space proxy for udc: decompressed tree size (edges).
    pub udc_peak_edges: usize,
    /// Resulting grammar edges (GrammarRePair).
    pub grammarrepair_edges: usize,
    /// Resulting grammar edges (udc).
    pub udc_edges: usize,
}

/// Runs the Figure 6 experiment for one dataset with `renames` random renames.
pub fn runtime_row(dataset: Dataset, scale: f64, renames: usize, seed: u64) -> RuntimeRow {
    let xml = dataset.generate(scale);
    let edges = xml.edge_count();
    let ops = random_rename_sequence(&xml, renames, seed);
    let (compressed, _) = TreeRePair::default().compress_xml(&xml);

    // Apply the updates once on the grammar (shared by both approaches).
    let mut updated = compressed.clone();
    for op in &ops {
        apply_update(&mut updated, op).expect("rename workload is valid");
    }

    // (a) GrammarRePair recompression of the updated grammar.
    let mut maintained = updated.clone();
    let (gr_stats, gr_time) = timed(|| GrammarRePair::default().recompress(&mut maintained));

    // (b) update-decompress-compress with TreeRePair (updates already applied,
    // so we measure decompress+compress on the updated grammar).
    let ((_, udc_stats), _total) = timed(|| {
        update_decompress_compress(&updated, &[], TreeRePairConfig::default())
            .expect("decompression stays within the configured limit")
    });
    let udc_tr_time = udc_stats.decompress_time + udc_stats.compress_time;

    // (c) decompress + GrammarRePair applied to the tree.
    let tree = sltgrammar::derive::val_limited(&updated, grammar_repair::udc::UDC_DECOMPRESSION_LIMIT)
        .expect("decompression stays within the configured limit");
    let symbols = updated.symbols.clone();
    let (gr_tree_stats, gr_tree_compress_time) = timed(|| {
        let mut g = Grammar::new(symbols, tree);
        GrammarRePair::default().recompress(&mut g)
    });
    let udc_gr_time = udc_stats.decompress_time + gr_tree_compress_time;
    let _ = gr_tree_stats;

    RuntimeRow {
        dataset,
        edges,
        grammarrepair_time: gr_time,
        udc_treerepair_time: udc_tr_time,
        udc_grammarrepair_time: udc_gr_time,
        grammarrepair_peak_edges: gr_stats.max_intermediate_edges,
        udc_peak_edges: udc_stats.decompressed_edges,
        grammarrepair_edges: gr_stats.output_edges,
        udc_edges: udc_stats.output_edges,
    }
}

/// One row of the representation-size comparison (`baseline_sizes`): the
/// structural size of every in-memory representation of one document, and
/// the byte footprint of the pointer DOM, the succinct DOM and the grammar.
#[derive(Debug, Clone)]
pub struct SizesRow {
    /// Elements of the document.
    pub elements: usize,
    /// Edges of the binary tree.
    pub binary_edges: usize,
    /// Edges of the minimal DAG.
    pub dag_edges: usize,
    /// Edges of the TreeRePair grammar.
    pub treerepair_edges: usize,
    /// Edges of the GrammarRePair grammar.
    pub grammarrepair_edges: usize,
    /// Pointer DOM estimate: label pointer, parent and child vector per node.
    pub pointer_bytes: usize,
    /// Succinct DOM (balanced parentheses + labels).
    pub succinct_bytes: usize,
    /// Serialized GrammarRePair grammar (`.sltg`).
    pub grammar_bytes: usize,
}

/// Measures every representation of `xml`. Each one derives the same
/// document.
pub fn sizes_row(xml: &XmlTree) -> SizesRow {
    let mut symbols = SymbolTable::new();
    let bin = to_binary(xml, &mut symbols).expect("valid document");
    let dag = Dag::build(&bin, &symbols);
    let (tree_grammar, _) = TreeRePair::default().compress_binary(symbols.clone(), bin.clone());
    let (grammar, _) = GrammarRePair::default().compress_xml(xml);
    SizesRow {
        elements: xml.node_count(),
        binary_edges: bin.edge_count(),
        dag_edges: dag.edge_count(),
        treerepair_edges: tree_grammar.edge_count(),
        grammarrepair_edges: grammar.edge_count(),
        pointer_bytes: xml
            .preorder()
            .iter()
            .map(|&v| 8 + 24 + xml.children(v).len() * 4 + xml.label(v).len())
            .sum(),
        succinct_bytes: SuccinctDom::build(xml).size_bytes(),
        grammar_bytes: serialize::encoded_size(&grammar),
    }
}

/// Generates the document for a dataset at a given scale (helper shared by the
/// Criterion benches).
pub fn document(dataset: Dataset, scale: f64) -> XmlTree {
    dataset.generate(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_row_reports_consistent_numbers() {
        let row = table3_row(Dataset::ExiWeblog, 0.05);
        assert!(row.edges > 200);
        assert!(row.c_edges * 2 < row.edges);
        assert!(row.ratio_percent < 50.0);
        assert!((row.ratio_percent - 100.0 * row.c_edges as f64 / row.edges as f64).abs() < 1e-9);
    }

    #[test]
    fn blowup_is_at_least_one() {
        let row = blowup_row(Dataset::ExiWeblog, 0.05);
        assert!(row.blowup >= 1.0);
        assert!(row.final_edges <= row.max_intermediate_edges);
    }

    #[test]
    fn optimization_point_runs_both_modes() {
        let p = optimization_point(4);
        assert!(p.final_edges > 0);
        assert!(p.optimized_blowup >= 1.0);
        assert!(p.unoptimized_blowup >= 1.0);
    }

    #[test]
    fn update_experiment_produces_checkpoints_with_sane_overheads() {
        let exp = update_experiment(Dataset::ExiWeblog, 0.05, 60, 20, 7);
        assert_eq!(exp.checkpoints.len(), 3);
        for cp in &exp.checkpoints {
            assert!(cp.naive_overhead() >= 0.9);
            assert!(cp.grammarrepair_overhead() >= 0.2);
            // GrammarRePair never does worse than naive updates.
            assert!(cp.grammarrepair_edges <= cp.naive_edges);
        }
    }

    #[test]
    fn sizes_lists_all_representations() {
        let xml = xmltree::parse::parse_xml(
            "<log><e><t/><m/></e><e><t/><m/></e><e><t/><m/></e><e><t/><m/></e></log>",
        )
        .unwrap();
        let row = sizes_row(&xml);
        assert_eq!(row.elements, 13);
        assert_eq!(row.binary_edges, 2 * row.elements);
        for edges in [row.dag_edges, row.treerepair_edges, row.grammarrepair_edges] {
            assert!(0 < edges && edges < row.binary_edges, "{row:?}");
        }
        for bytes in [row.pointer_bytes, row.succinct_bytes, row.grammar_bytes] {
            assert!(bytes > 0, "{row:?}");
        }
    }

    #[test]
    fn runtime_row_reports_all_three_methods() {
        let row = runtime_row(Dataset::ExiWeblog, 0.05, 10, 3);
        assert!(row.grammarrepair_time > Duration::ZERO);
        assert!(row.udc_treerepair_time > Duration::ZERO);
        assert!(row.udc_grammarrepair_time > Duration::ZERO);
        assert!(row.udc_peak_edges >= row.udc_edges);
    }
}
