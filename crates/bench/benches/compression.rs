//! Criterion benches for static compression (Table III / Section V-B):
//! TreeRePair vs GrammarRePair on the synthetic corpus at small scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::catalog::Dataset;
use datasets::random::treebank_like;
use datasets::regular::heterogeneous_records_like;
use datasets::workload::{random_insert_delete_sequence, random_update_sequence, WorkloadMix};
use grammar_repair::repair::{GrammarRePair, GrammarRePairConfig};
use grammar_repair::update::{apply_batch, apply_update};
use treerepair::{DigramSelector, TreeRePair, TreeRePairConfig};

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("static_compression");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for dataset in [Dataset::ExiWeblog, Dataset::XMark] {
        let xml = dataset.generate(0.05);
        group.bench_with_input(
            BenchmarkId::new("treerepair", dataset.name()),
            &xml,
            |b, xml| b.iter(|| TreeRePair::default().compress_xml(xml)),
        );
        group.bench_with_input(
            BenchmarkId::new("grammarrepair_on_tree", dataset.name()),
            &xml,
            |b, xml| b.iter(|| GrammarRePair::default().compress_xml(xml)),
        );
        let (grammar, _) = TreeRePair::default().compress_xml(&xml);
        group.bench_with_input(
            BenchmarkId::new("grammarrepair_on_grammar", dataset.name()),
            &grammar,
            |b, grammar| {
                b.iter(|| {
                    let mut g = grammar.clone();
                    GrammarRePair::default().recompress(&mut g)
                })
            },
        );
    }
    group.finish();
}

/// Frequency-bucket queue vs naive table-rescan selection, on the
/// selection-bound heterogeneous event-stream corpus (repetitive *and*
/// label-diverse) and on a near-pathological low-diversity corpus where both
/// selectors are equivalent. Outputs are byte-identical (see the
/// `selector_equivalence` test suite); only wall-time differs.
fn bench_selectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("digram_selector");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let corpora = [
        ("heterogeneous", heterogeneous_records_like(500, 10_000)),
        ("exi_weblog", Dataset::ExiWeblog.generate(0.05)),
    ];
    for (name, xml) in &corpora {
        group.bench_with_input(BenchmarkId::new("queue", name), xml, |b, xml| {
            b.iter(|| TreeRePair::default().compress_xml(xml))
        });
        let naive = TreeRePair::new(TreeRePairConfig {
            selector: DigramSelector::NaiveScan,
            ..TreeRePairConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("naive", name), xml, |b, xml| {
            b.iter(|| naive.compress_xml(xml))
        });
    }
    group.finish();
}

/// The paper's actual workload: a compressed document receives a batch of
/// random updates (90 % inserts / 10 % deletes executed directly on the
/// grammar) and is then recompressed. `incremental` keeps the occurrence
/// table and frequency queue alive across rounds (the default);
/// `rebuild` re-retrieves all occurrence generators per round (the
/// `NaiveScan` oracle, the pre-optimization behavior). Outputs are
/// byte-identical (see `tests/recompress_incremental.rs`); only wall-time
/// differs.
fn bench_recompress_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("recompress_incremental");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for dataset in [Dataset::ExiWeblog, Dataset::XMark] {
        let xml = dataset.generate(0.05);
        let ops = random_insert_delete_sequence(&xml, 60, 42, WorkloadMix::default());
        let (mut updated, _) = GrammarRePair::default().compress_xml(&xml);
        for op in &ops {
            apply_update(&mut updated, op).expect("workload ops are valid");
        }
        group.bench_with_input(
            BenchmarkId::new("incremental", dataset.name()),
            &updated,
            |b, g0| {
                b.iter(|| {
                    let mut g = g0.clone();
                    GrammarRePair::default().recompress(&mut g)
                })
            },
        );
        let rebuild = GrammarRePair::new(GrammarRePairConfig {
            selector: DigramSelector::NaiveScan,
            ..GrammarRePairConfig::default()
        });
        group.bench_with_input(
            BenchmarkId::new("rebuild", dataset.name()),
            &updated,
            |b, g0| {
                b.iter(|| {
                    let mut g = g0.clone();
                    rebuild.recompress(&mut g)
                })
            },
        );
    }
    group.finish();
}

/// Update-then-recompress on one family (Treebank: it compresses least, so
/// its grammars are the largest per input edge) at 1×/4×/16× the edges. The
/// gate compares each size with its own baseline, so a return to
/// super-linear recompression — a per-round pass over the start rule — shows
/// as a regression of the large sizes while the small one stays put.
fn bench_recompress_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("recompress_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (factor, sentences) in [(1, 10), (4, 40), (16, 160)] {
        let xml = treebank_like(sentences, 1);
        let (mut updated, _) = GrammarRePair::default().compress_xml(&xml);
        let ops = random_update_sequence(&xml, 32, 5, WorkloadMix::paper_mix(0.5));
        apply_batch(&mut updated, &ops).expect("workload ops are valid");
        group.bench_with_input(
            BenchmarkId::new("treebank", format!("{factor}x")),
            &updated,
            |b, g0| {
                b.iter(|| {
                    let mut g = g0.clone();
                    GrammarRePair::default().recompress(&mut g)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compression,
    bench_selectors,
    bench_recompress_incremental,
    bench_recompress_scaling
);
criterion_main!(benches);
