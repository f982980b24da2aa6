//! Criterion benches for the durable `DomStore`: recovery time as a
//! function of log length, and the cost of folding the store into a
//! checkpoint. (The WAL's tax on write throughput is measured end to end
//! through the real server process by `BENCHMARK.json` — `benchmark/`.)
//!
//! The `store_durable` group is part of the committed
//! `BENCH_compression.json` baseline and gated in CI (`bench_gate`), so
//! every entry runs against the in-memory fault-injection filesystem: the
//! entries measure replay and serialization work, not disk hardware, whose
//! fsync latency is far too noisy to gate at 20 %.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::catalog::Dataset;
use datasets::workload::{random_update_sequence, WorkloadMix};
use grammar_repair::durable::DurableStore;
use grammar_repair::store::DocId;
use grammar_repair::wal::testing::FailpointFs;
use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

const FLEET: usize = 6;

fn fleet() -> Vec<XmlTree> {
    (0..FLEET)
        .map(|i| Dataset::ExiWeblog.generate(0.03 + 0.004 * i as f64))
        .collect()
}

/// A steady-state batch per document: rename-only workloads keep the
/// document structure (and thus target validity) stable, so the same jobs
/// can be re-applied every iteration. 48 ops per commit — the regime the
/// log is designed for: one commit amortized over a real batch, not one
/// commit per keystroke.
fn rename_jobs(docs: &[XmlTree], ids: &[DocId]) -> Vec<(DocId, Vec<UpdateOp>)> {
    ids.iter()
        .zip(docs)
        .enumerate()
        .map(|(d, (&id, xml))| {
            let ops = random_update_sequence(
                xml,
                48,
                0xD0_0D + d as u64,
                WorkloadMix {
                    rename_probability: 1.0,
                    ..WorkloadMix::default()
                },
            );
            (id, ops)
        })
        .collect()
}

/// An in-memory store with `records` committed log records behind it.
fn logged_fs(docs: &[XmlTree], records: usize) -> Arc<FailpointFs> {
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").expect("fresh dir");
    let ids: Vec<DocId> = docs
        .iter()
        .map(|xml| store.load_xml(xml).expect("dataset labels intern"))
        .collect();
    let jobs = rename_jobs(docs, &ids);
    let mut committed = ids.len();
    'outer: loop {
        for (id, ops) in &jobs {
            if committed >= records {
                break 'outer;
            }
            store.apply_batch(*id, ops).expect("renames stay valid");
            committed += 1;
        }
    }
    fs
}

fn bench_store_durable(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_durable");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    let docs = fleet();

    // --- Recovery time vs log length --------------------------------------
    // Replay-dominated: open a store whose log holds N committed records.
    for records in [64usize, 256, 1024] {
        let fs = logged_fs(&docs, records);
        group.bench_with_input(
            BenchmarkId::new("recovery", format!("replay_{records}_records")),
            &fs,
            |b, fs| {
                b.iter(|| {
                    let (store, report) =
                        DurableStore::open_with(fs.clone(), "db").expect("log is intact");
                    assert_eq!(report.last_lsn, records as u64);
                    store.len()
                })
            },
        );
    }

    // --- Checkpoint cost ---------------------------------------------------
    // Serializing the whole fleet into an atomic snapshot, repeatedly (the
    // log is already truncated after the first call, so this isolates the
    // snapshot-write cost).
    let fs = logged_fs(&docs, 128);
    let (ck_store, _) = DurableStore::open_with(fs, "db").expect("log is intact");
    group.bench_with_input(
        BenchmarkId::new("checkpoint", "fleet_6docs"),
        &ck_store,
        |b, store| b.iter(|| store.checkpoint().expect("in-memory fs cannot fail").bytes),
    );

    group.finish();
}

criterion_group!(benches, bench_store_durable);
criterion_main!(benches);
