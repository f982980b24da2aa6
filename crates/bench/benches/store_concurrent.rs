//! Criterion benches for the concurrent `DomStore`: snapshot-read throughput
//! across thread counts, cross-document write throughput (serial batches vs
//! the parallel `apply_batch_many` fan-out), and reader latency while a
//! writer's own jobs recompress the document under write churn.
//!
//! The `store_concurrent` group is part of the committed
//! `BENCH_compression.json` baseline and gated in CI (`bench_gate`). Thread
//! scaling is hardware-dependent: on a single-core runner the threaded read
//! entries measure parity (scheduling overhead only) and the ≥3×-at-4-threads
//! target of the concurrent-store issue is only observable on multi-core
//! hardware — the bench prints the detected parallelism so committed numbers
//! are interpretable.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::catalog::Dataset;
use datasets::workload::{random_update_sequence, WorkloadMix};
use grammar_repair::query::PathQuery;
use grammar_repair::store::{DocId, DomStore};
use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

const FLEET: usize = 6;
/// Total snapshot reads per timed iteration, split across the reader
/// threads — large enough that the measured work dominates thread spawn.
const READS_PER_ITER: usize = 384;

fn fleet() -> Vec<XmlTree> {
    (0..FLEET)
        .map(|i| Dataset::ExiWeblog.generate(0.03 + 0.004 * i as f64))
        .collect()
}

fn fleet_workloads(docs: &[XmlTree], ops: usize) -> Vec<Vec<UpdateOp>> {
    docs.iter()
        .enumerate()
        .map(|(i, xml)| {
            random_update_sequence(xml, ops, 0xC0_C0 + i as u64, WorkloadMix::clustered(0.85))
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

/// Runs `READS_PER_ITER` snapshot queries round-robin over the fleet, split
/// across `threads` scoped workers sharing `&store`. Returns total matches
/// (kept live so the reads cannot be optimized away).
fn parallel_reads(store: &DomStore, ids: &[DocId], threads: usize) -> usize {
    let query = PathQuery::parse("//message").expect("valid query");
    let next = AtomicUsize::new(0);
    let matched = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = 0usize;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= READS_PER_ITER {
                        break;
                    }
                    let snap = store.snapshot(ids[i % ids.len()]).expect("live doc");
                    local += snap.query(&query).len();
                }
                matched.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    matched.load(Ordering::Relaxed)
}

fn bench_store_concurrent(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_concurrent");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "store_concurrent: {cores} hardware threads available \
         (read_throughput scaling beyond 1 thread requires a multi-core host)"
    );

    let docs = fleet();
    let store = loaded_store(&docs);
    let ids = store.doc_ids();

    // Snapshot-read throughput at 1/2/4/8 reader threads: a fixed number of
    // snapshot queries split across the thread pool. On an
    // N-core host the wall clock drops toward 1/N of the single-thread
    // entry; on one core the entries pin that readers, which share the
    // cells' read locks, at least never get *slower* with thread count.
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("read_throughput", format!("threads_{threads}")),
            &threads,
            |b, &threads| b.iter(|| parallel_reads(&store, &ids, threads)),
        );
    }

    // Cross-document write throughput: the same per-document batches applied
    // serially vs fanned out over the worker pool (`apply_batch_many`). The
    // store is cloned per iteration (copy-on-write: the clone is cheap and
    // the first write per document pays the deep copy in both variants).
    let write_workloads = fleet_workloads(&docs, 12);
    let jobs: Vec<(DocId, Vec<UpdateOp>)> = ids
        .iter()
        .zip(&write_workloads)
        .map(|(&id, ops)| (id, ops.clone()))
        .collect();
    group.bench_with_input(
        BenchmarkId::new("write_throughput", "serial_6docs"),
        &(&store, &jobs),
        |b, (store, jobs)| {
            b.iter(|| {
                let store = (*store).clone();
                for (id, ops) in jobs.iter() {
                    store.apply_batch(*id, ops).expect("workload is valid");
                }
                store.doc_ids().len()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("write_throughput", "sharded_6docs"),
        &(&store, &jobs),
        |b, (store, jobs)| {
            b.iter(|| {
                let store = (*store).clone();
                let (results, _) = store.apply_batch_many(jobs);
                for result in results {
                    result.expect("workload is valid");
                }
                store.doc_ids().len()
            })
        },
    );

    // Reader latency: one snapshot query against the hot document, first on
    // a quiescent store, then while a churn thread batches updates whose own
    // jobs recompress the document inline, aside, once it is due. A read
    // sees every completed batch: when the last batch is still unpublished
    // it waits for the job in flight, inline recompression included.
    let hot = ids[0];
    let query = PathQuery::parse("//message").expect("valid query");
    group.bench_with_input(
        BenchmarkId::new("reader_latency", "quiescent"),
        &(&store, hot),
        |b, (store, hot)| {
            b.iter(|| store.snapshot(*hot).expect("live doc").query(&query).len())
        },
    );

    let churn_store = loaded_store(&docs);
    let churn_ops = random_update_sequence(&docs[0], 4000, 0xFEED, WorkloadMix::clustered(0.85));
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let store_ref = &churn_store;
        let stop_ref = &stop;
        let ops_ref = &churn_ops;
        scope.spawn(move || {
            // Endless write churn: cycle the schedule in small batches with
            // short pauses; every batch that leaves the document due
            // recompresses it before the next one.
            // Only the first pass targets the document the schedule was
            // generated against; a replayed batch may address nodes that
            // have moved since, and is then allowed to fail.
            let first_pass = ops_ref.chunks(6).count();
            for (k, batch) in ops_ref.chunks(6).cycle().enumerate() {
                if stop_ref.load(Ordering::Relaxed) {
                    return;
                }
                let applied = store_ref.apply_batch(hot, batch);
                if k < first_pass {
                    applied.expect("workload is valid");
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        group.bench_with_input(
            BenchmarkId::new("reader_latency", "under_recompression"),
            &(&churn_store, hot),
            |b, (store, hot)| {
                b.iter(|| store.snapshot(*hot).expect("live doc").query(&query).len())
            },
        );
        stop.store(true, Ordering::Relaxed);
    });

    group.finish();
}

criterion_group!(benches, bench_store_concurrent);
criterion_main!(benches);
