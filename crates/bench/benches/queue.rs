//! Criterion bench for cold starts: the `cold_start` group measures opening
//! a store from a paged v3 checkpoint (documents decoded lazily on first
//! touch) against the committed `recovery/replay_*` baselines, which replay
//! the same history record by record.
//!
//! It runs on the in-memory fault-injection filesystem for the same reason
//! as `store_durable`: it gates the *software* cost (checkpoint decoding),
//! not fsync hardware noise. Write-path throughput through the queue —
//! coalescing, group commit, acks — is measured end to end through the
//! real server process by `BENCHMARK.json` (`benchmark/`), and the
//! coalescing contract (one record, one fsync per drain) is pinned by
//! `tests/server_protocol.rs` and the queue's unit suite.

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

/// An in-memory image holding a **paged v3 checkpoint** that folds
/// `records` committed log records (the log itself is truncated): the
/// cold-start counterpart of `store_durable`'s `logged_fs`, whose
/// recovery benches replay the same history record by record.
fn checkpointed_fs(docs: &[XmlTree], records: usize) -> Arc<FailpointFs> {
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").expect("fresh dir");
    let ids: Vec<DocId> = docs
        .iter()
        .map(|xml| store.load_xml(xml).expect("dataset labels intern"))
        .collect();
    let jobs: Vec<(DocId, Vec<UpdateOp>)> = ids
        .iter()
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
        .collect();
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
    let report = store.checkpoint().expect("in-memory fs cannot fail");
    assert!(report.log_truncated, "quiescent checkpoint truncates the log");
    fs
}

fn bench_cold_start(c: &mut Criterion) {
    let docs = fleet();

    // --- Cold start from a paged checkpoint vs log replay -----------------
    let mut group = c.benchmark_group("cold_start");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    for records in [64usize, 256, 1024] {
        let fs = checkpointed_fs(&docs, records);
        group.bench_with_input(
            BenchmarkId::new("open", format!("{records}_records")),
            &fs,
            |b, fs| {
                b.iter(|| {
                    let (store, report) =
                        DurableStore::open_with(fs.clone(), "db").expect("image is intact");
                    assert_eq!(report.replayed, 0, "checkpoint covers the history");
                    assert_eq!(report.lazy_docs, FLEET, "open decodes no documents");
                    store.len()
                })
            },
        );
        let fs = checkpointed_fs(&docs, records);
        group.bench_with_input(
            BenchmarkId::new("open_first_touch", format!("{records}_records")),
            &fs,
            |b, fs| {
                b.iter(|| {
                    let (store, _) =
                        DurableStore::open_with(fs.clone(), "db").expect("image is intact");
                    let id = store.doc_ids()[0];
                    store.to_xml(id).expect("payload is intact").to_xml().len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cold_start);
criterion_main!(benches);
