//! Criterion benches for the multi-document session (`DomStore`): loading a
//! fleet of similar documents against the shared symbol table, and serving a
//! mixed read/update workload interleaved across the fleet — store with its
//! per-batch debt trigger vs six bare grammars under the paper's fixed-interval
//! policy (`GrammarRePair::recompress` every few batches).
//!
//! `store_point_writes` is the point-write fast path: one-op batches
//! round-robin over 64 small documents through the store's live isolation
//! sessions, beside the same ops through the sessionless
//! `update::apply_batch` (one size-table build per call).
//!
//! Both groups are part of the committed `BENCH_compression.json` baseline
//! and gated in CI (`bench_gate`). On top of the timed entries the bench
//! prints the shared-alphabet resident sizes (one shared table vs
//! per-document tables) once per run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::catalog::Dataset;
use datasets::random::xmark_like;
use datasets::workload::{random_update_sequence, WorkloadMix};
use grammar_repair::isolate::IsolationBatch;
use grammar_repair::query::PathQuery;
use grammar_repair::repair::GrammarRePair;
use grammar_repair::store::DomStore;
use grammar_repair::update;
use sltgrammar::Grammar;
use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

const FLEET: usize = 6;
const OPS_PER_DOC: usize = 30;
const CHUNK: usize = 10;

/// Six similar documents: the same generator at slightly different scales,
/// so the alphabets coincide while the structures differ.
fn fleet() -> Vec<XmlTree> {
    (0..FLEET)
        .map(|i| Dataset::ExiWeblog.generate(0.03 + 0.004 * i as f64))
        .collect()
}

/// One clustered mixed workload per document (FLUX-style shapes).
fn fleet_workloads(docs: &[XmlTree]) -> Vec<Vec<UpdateOp>> {
    docs.iter()
        .enumerate()
        .map(|(i, xml)| {
            random_update_sequence(xml, OPS_PER_DOC, 0xD0C5 + i as u64, WorkloadMix::clustered(0.85))
        })
        .collect()
}

fn loaded_store(docs: &[XmlTree]) -> DomStore {
    let store = DomStore::new().with_debt_threshold(300);
    for xml in docs {
        store.load_xml(xml).expect("dataset labels intern");
    }
    store
}

fn bench_store_multidoc(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_multidoc");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let docs = fleet();
    let workloads = fleet_workloads(&docs);

    // Report the shared-alphabet savings once per run (not a timed entry —
    // resident bytes are machine-independent and asserted by the store
    // differential suite; the committed numbers live in ROADMAP.md).
    let store = loaded_store(&docs);
    let stats = store.symbol_stats();
    println!(
        "store_multidoc: label tables {} B resident shared vs {} B per-document ({:.2}x, {} docs)",
        stats.resident_bytes(),
        stats.unshared_bytes,
        stats.unshared_bytes as f64 / stats.resident_bytes().max(1) as f64,
        FLEET
    );

    // Loading the fleet from scratch: compression dominates; the entry
    // guards the shared-table interning seam against regressions.
    group.bench_with_input(BenchmarkId::new("load_fleet", "exi_weblog_6"), &docs, |b, docs| {
        b.iter(|| loaded_store(docs))
    });

    // Interleaved mixed read/update workload through one store: per round,
    // each document takes one batch chunk and then serves a query.
    group.bench_with_input(
        BenchmarkId::new("mixed_workload_store", "exi_weblog_6"),
        &(&store, &workloads),
        |b, (store, workloads)| {
            b.iter(|| {
                let store = (*store).clone();
                let ids = store.doc_ids();
                let mut matched = 0usize;
                for round in 0..OPS_PER_DOC / CHUNK {
                    for (d, &id) in ids.iter().enumerate() {
                        let chunk = &workloads[d][round * CHUNK..(round + 1) * CHUNK];
                        store.apply_batch(id, chunk).expect("workload is valid");
                        matched += store.query_str(id, "//message").expect("live doc").len();
                    }
                }
                matched
            })
        },
    );

    // The same workload on six bare grammars under the paper's fixed-interval
    // policy, as the Figure 4/5 experiments run it: one batch counter per
    // document, a `recompress` every 3 batches (about as often as the
    // store's debt trigger fires).
    let repair = GrammarRePair::default();
    let grammars: Vec<Grammar> = docs.iter().map(|xml| repair.compress_xml(xml).0).collect();
    let query = PathQuery::parse("//message").expect("valid query");
    group.bench_with_input(
        BenchmarkId::new("mixed_workload_independent", "exi_weblog_6"),
        &(&grammars, &workloads),
        |b, (grammars, workloads)| {
            b.iter(|| {
                let mut grammars: Vec<Grammar> = (*grammars).clone();
                let mut matched = 0usize;
                for round in 0..OPS_PER_DOC / CHUNK {
                    for (d, g) in grammars.iter_mut().enumerate() {
                        let chunk = &workloads[d][round * CHUNK..(round + 1) * CHUNK];
                        update::apply_batch(g, chunk).expect("workload is valid");
                        if (round + 1).is_multiple_of(3) {
                            repair.recompress(g);
                        }
                        matched += query.evaluate(g).len();
                    }
                }
                matched
            })
        },
    );

    group.finish();
}

const POINT_DOCS: usize = 64;
const POINT_OPS_PER_DOC: usize = 50;

/// The end-to-end benchmark's `point_writes` shape: 64 small XMark documents
/// (grammars of ~550 edges), 70 % renames to fresh labels and 30 % inserts,
/// one op per call, round-robin — debt stays under the store's threshold,
/// so a call is isolation + splice and nothing else. Per-op cost is the
/// entry's time over `64 × 50` ops.
fn bench_store_point_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_point_writes");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let docs: Vec<XmlTree> = (0..POINT_DOCS).map(|d| xmark_like(4, 0xB00 + d as u64)).collect();
    let mix = WorkloadMix {
        rename_probability: 0.7,
        insert_probability: 1.0,
        ..WorkloadMix::default()
    };
    let scripts: Vec<Vec<UpdateOp>> = docs
        .iter()
        .enumerate()
        .map(|(d, xml)| random_update_sequence(xml, POINT_OPS_PER_DOC, 0x90 + d as u64, mix))
        .collect();
    let store = DomStore::new();
    let ids = store.load_many(&docs).expect("dataset labels intern");
    // The twins start from the store's own grammars, as loaded.
    let twins: Vec<Grammar> = ids
        .iter()
        .map(|&id| (*store.grammar(id).expect("live doc")).clone())
        .collect();

    // Through the store: each document's session is built at its first
    // write (the clone starts without any) and kept for the other 49.
    group.bench_with_input(
        BenchmarkId::new("one_op_batches_live", "xmark_64"),
        &(&store, &scripts),
        |b, (store, scripts)| {
            b.iter(|| {
                let store = (*store).clone();
                for round in 0..POINT_OPS_PER_DOC {
                    for (d, &id) in ids.iter().enumerate() {
                        store
                            .apply_batch(id, std::slice::from_ref(&scripts[d][round]))
                            .expect("workload is valid");
                    }
                }
                store
            })
        },
    );
    // The same calls on bare grammars: a fresh session per call.
    group.bench_with_input(
        BenchmarkId::new("one_op_batches_sessionless", "xmark_64"),
        &(&twins, &scripts),
        |b, (twins, scripts)| {
            b.iter(|| {
                let mut twins: Vec<Grammar> = (*twins).clone();
                for round in 0..POINT_OPS_PER_DOC {
                    for (d, g) in twins.iter_mut().enumerate() {
                        update::apply_batch(g, std::slice::from_ref(&scripts[d][round]))
                            .expect("workload is valid");
                    }
                }
                twins
            })
        },
    );
    // What first touch after load, restart or recompression pays: the cold
    // build alone, once per document.
    group.bench_with_input(
        BenchmarkId::new("cold_session_builds", "xmark_64"),
        &twins,
        |b, twins| b.iter(|| twins.iter().map(IsolationBatch::new).collect::<Vec<_>>()),
    );
    group.finish();
}

criterion_group!(benches, bench_store_multidoc, bench_store_point_writes);
criterion_main!(benches);
