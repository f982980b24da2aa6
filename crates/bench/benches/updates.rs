//! Criterion benches for the dynamic part of the evaluation (Figures 4–6):
//! applying updates on the grammar, GrammarRePair recompression of an updated
//! grammar, and the update–decompress–compress baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::catalog::Dataset;
use datasets::workload::{random_rename_sequence, random_update_sequence, WorkloadMix};
use grammar_repair::repair::GrammarRePair;
use grammar_repair::udc::update_decompress_compress;
use grammar_repair::update::{apply_batch, apply_update};
use treerepair::{TreeRePair, TreeRePairConfig};

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("updates");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for dataset in [Dataset::ExiWeblog, Dataset::XMark] {
        let xml = dataset.generate(0.05);
        let ops = random_rename_sequence(&xml, 30, 1);
        let (compressed, _) = TreeRePair::default().compress_xml(&xml);

        group.bench_with_input(
            BenchmarkId::new("apply_30_renames", dataset.name()),
            &(&compressed, &ops),
            |b, (g, ops)| {
                b.iter(|| {
                    let mut g = (*g).clone();
                    for op in ops.iter() {
                        apply_update(&mut g, op).unwrap();
                    }
                    g
                })
            },
        );

        let mut updated = compressed.clone();
        for op in &ops {
            apply_update(&mut updated, op).unwrap();
        }
        group.bench_with_input(
            BenchmarkId::new("grammarrepair_recompress", dataset.name()),
            &updated,
            |b, updated| {
                b.iter(|| {
                    let mut g = updated.clone();
                    GrammarRePair::default().recompress(&mut g)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("udc_decompress_compress", dataset.name()),
            &updated,
            |b, updated| {
                b.iter(|| {
                    update_decompress_compress(updated, &[], TreeRePairConfig::default()).unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Batched vs one-at-a-time path isolation on a high-locality 100-update
/// workload (mostly renames and inserts clustered under shared ancestors —
/// the FLUX-style shape batching is built for). Both paths produce
/// byte-identical documents (see `tests/updates_differential.rs`); only
/// wall-time differs: the one-at-a-time path recomputes the grammar-wide
/// size tables per operation, the batched path once per call.
fn bench_updates_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("updates_batched");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for dataset in [Dataset::ExiWeblog, Dataset::XMark] {
        let xml = dataset.generate(0.05);
        let ops = random_update_sequence(&xml, 100, 11, WorkloadMix::clustered(0.9));
        let (compressed, _) = TreeRePair::default().compress_xml(&xml);

        group.bench_with_input(
            BenchmarkId::new("one_at_a_time_100", dataset.name()),
            &(&compressed, &ops),
            |b, (g, ops)| {
                b.iter(|| {
                    let mut g = (*g).clone();
                    for op in ops.iter() {
                        apply_update(&mut g, op).unwrap();
                    }
                    g
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batched_100", dataset.name()),
            &(&compressed, &ops),
            |b, (g, ops)| {
                b.iter(|| {
                    let mut g = (*g).clone();
                    apply_batch(&mut g, ops).unwrap();
                    g
                })
            },
        );
    }
    group.finish();
}

/// Batched vs one-at-a-time on the paper's Section V-C **90/10 insert/delete
/// mix** (uniform targets, no renames). Deletes cost the batched path
/// nothing extra — its session is patched through every splice — so it is
/// expected to hold a multiple-x advantage here too (gated ≥3× by the
/// committed baseline discipline).
fn bench_updates_mixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("updates_mixed");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for dataset in [Dataset::ExiWeblog, Dataset::XMark] {
        let xml = dataset.generate(0.05);
        let ops = random_update_sequence(&xml, 100, 23, WorkloadMix::paper_mix(0.0));
        let (compressed, _) = TreeRePair::default().compress_xml(&xml);

        group.bench_with_input(
            BenchmarkId::new("one_at_a_time_100", dataset.name()),
            &(&compressed, &ops),
            |b, (g, ops)| {
                b.iter(|| {
                    let mut g = (*g).clone();
                    for op in ops.iter() {
                        apply_update(&mut g, op).unwrap();
                    }
                    g
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batched_100", dataset.name()),
            &(&compressed, &ops),
            |b, (g, ops)| {
                b.iter(|| {
                    let mut g = (*g).clone();
                    apply_batch(&mut g, ops).unwrap();
                    g
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_updates, bench_updates_batched, bench_updates_mixed);
criterion_main!(benches);
