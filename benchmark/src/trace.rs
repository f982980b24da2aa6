//! The outside-in per-layer trace (`--trace 1`).
//!
//! Spans are recorded from this file only, around calls into each layer's
//! public functions; nothing inside the program is instrumented. Because a
//! layer's callees cannot be seen from outside, the same generated write
//! script is replayed in-process once per **rung** of the stack, each rung
//! on fresh state and one layer shallower than the one before:
//!
//! | rung | entry point replayed | contains |
//! |---|---|---|
//! | `server` | the real `sltxml serve` round (`e2e`, client-side spans) | everything |
//! | `queue` | `IngestQueue::submit` / `flush` / `wait` | durable + below |
//! | `durable` | `DurableStore::apply_batch` | WAL + store + below |
//! | `store` | `DomStore::apply_batch` | update + inline recompression |
//! | `update` / `repair` | `update::apply_batch`, `GrammarRePair::recompress` | — |
//!
//! The time-budget table lists each rung's wall time over the write script
//! as measured and, beside it, the rung's *self time*: its wall time minus
//! the wall time of the rung below on the same inputs — the span rule
//! "duration minus what the children cover", with the child measured on its
//! own. The `durable`, `store` and `update`/`repair` rungs are serial, so
//! their differences are costs. The `queue` rung coalesces a window of
//! batches into one group commit and fans documents out over the cores, and
//! the `server` rung pipelines on top of that, so their self times can be
//! negative: the layer saves more than it costs, and the wall times are the
//! numbers to read.
//!
//! Recompression counts, rounds, replacements and edge counts are the
//! store's own, taken from the `MaintenanceReport`s `DomStore::apply_batch`
//! returns. The `update`/`repair` rung starts from the store's freshly
//! loaded grammars and recompresses exactly where the store did, timing
//! only the standalone `recompress` call; a standalone recompression that
//! sees another grammar than the store reported counts as a mismatch.
//!
//! Further spans time the corpus path (wire codec, the two initial
//! compressors, grammar serialisation), the WAL primitives, checkpoint /
//! reopen / first touch, and the read path (table build, preorder scan,
//! query evaluation) on the state the write script left behind.
//!
//! Spans live in memory and are written to
//! `benchmark/out/trace-<workload>.json` when the run ends. The store rung
//! is replayed once more with tracing off; the difference is
//! `trace.overhead_share`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use grammar_repair::durable::DurableStore;
use grammar_repair::query::PathQuery;
use grammar_repair::queue::IngestQueue;
use grammar_repair::repair::{GrammarRePair, RepairStats};
use grammar_repair::server::{
    decode_request, encode_request, encode_response, Request, Response, WireBatchStats,
    FRAME_HEADER_LEN,
};
use grammar_repair::store::{DocId, DomStore};
use grammar_repair::udc::recompress_from_scratch;
use grammar_repair::wal::{encode_frame, read_log, DiskFs, Wal, WalRecord};
use grammar_repair::{update, NavTables};
use sltgrammar::{serialize, Grammar};
use treerepair::{TreeRePair, TreeRePairConfig};
use xmltree::wire::{write_tree, WireReader};

use crate::e2e::Observed;
use crate::plan::{Plan, ReadReq, WriteLoop, WriteReq};
use crate::stats::{median, quantile};
use crate::Metrics;

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    /// Index of the request in its script (0 for spans that serve none).
    pub request: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span buffer shared by the client threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn push(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span buffer lock");
        spans.push(Span {
            name,
            request,
            parent,
            start_us: us(start),
            end_us: us(end),
        });
        spans.len() - 1
    }

    /// Records a finished root span (the client side of one request).
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        self.push(name, request, None, start, end);
    }

    /// Opens a phase span that later spans name as their parent.
    fn open(&self, name: &'static str) -> usize {
        let now = Instant::now();
        self.push(name, 0, None, now, now)
    }

    fn close(&self, span: usize) {
        let end = (Instant::now() - self.epoch).as_secs_f64() * 1e6;
        self.spans.lock().expect("span buffer lock")[span].end_us = end;
    }

    /// Per span name: count, total duration and self time (duration minus
    /// what direct children cover), in microseconds.
    fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut covered = vec![0.0; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_us - span.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let duration = span.end_us - span.start_us;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += duration;
            entry.2 += duration - covered[i];
        }
        out
    }
}

/// A phase of the in-process replay: spans recorded through it hang under
/// one parent span. With no tracer it runs the work untimed.
struct Phase<'a> {
    tracer: Option<&'a Tracer>,
    span: Option<usize>,
    started: Instant,
}

impl<'a> Phase<'a> {
    fn open(tracer: Option<&'a Tracer>, name: &'static str) -> Self {
        Phase {
            tracer,
            span: tracer.map(|t| t.open(name)),
            started: Instant::now(),
        }
    }

    /// Runs `f` under a span; returns its result and duration in µs (0
    /// when tracing is off).
    fn time<T>(&self, name: &'static str, request: usize, f: impl FnOnce() -> T) -> (T, f64) {
        match self.tracer {
            None => (f(), 0.0),
            Some(tracer) => {
                let start = Instant::now();
                let out = f();
                let end = Instant::now();
                tracer.push(name, request as u64, self.span, start, end);
                (out, (end - start).as_secs_f64() * 1e6)
            }
        }
    }

    /// Closes the phase span; returns the phase's wall time in seconds.
    fn close(self) -> f64 {
        let wall = self.started.elapsed().as_secs_f64();
        if let (Some(tracer), Some(span)) = (self.tracer, self.span) {
            tracer.close(span);
        }
        wall
    }
}

/// The write script in the order one in-process caller replays it: the
/// connections' scripts interleaved (each document's batches keep their
/// order, a document belongs to one connection).
fn merged_writes(plan: &Plan) -> Vec<&WriteReq> {
    let longest = plan.writes.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| plan.writes.iter().filter_map(move |script| script.get(i)))
        .collect()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// One recompression the store ran: after which request of the merged
/// write script, on which document, and what the store reported.
struct Fired {
    request: usize,
    doc: usize,
    stats: RepairStats,
}

/// What the `update`/`repair` rung measured.
#[derive(Default)]
struct UpdateRung {
    update_s: f64,
    repair_s: f64,
    batches: usize,
    /// Standalone recompressions that saw another grammar than the store.
    mismatches: u64,
}

/// Corpus path: wire codec, both initial compressors, grammar
/// serialisation.
fn corpus_rung(plan: &Plan, tracer: &Tracer, m: &mut Metrics) {
    let phase = Phase::open(Some(tracer), "trace.corpus");
    let (mut encode_us, mut decode_us, mut wire_bytes) = (0.0, 0.0, 0usize);
    let (mut tree_ms, mut grammar_ms, mut doc_edges, mut grammar_edges) =
        (0.0, 0.0, 0usize, 0usize);
    let (mut ser_us, mut de_us, mut ser_bytes) = (0.0, 0.0, 0usize);
    for (d, doc) in plan.docs.iter().enumerate() {
        let (bytes, us) = phase.time("xmltree.wire_encode", d, || {
            let mut out = Vec::new();
            write_tree(&mut out, &doc.tree);
            out
        });
        encode_us += us;
        wire_bytes += bytes.len();
        let (decoded, us) = phase.time("xmltree.wire_decode", d, || WireReader::new(&bytes).tree());
        decode_us += us;
        assert!(decoded.is_ok(), "wire image of a corpus document decodes");

        let (_, us) = phase.time("treerepair.compress_xml", d, || {
            TreeRePair::default().compress_xml(&doc.tree)
        });
        tree_ms += us / 1e3;
        let ((grammar, _), us) = phase.time("repair.compress_xml", d, || {
            GrammarRePair::default().compress_xml(&doc.tree)
        });
        grammar_ms += us / 1e3;
        doc_edges += doc.tree.edge_count();
        grammar_edges += grammar.edge_count();

        let (encoded, us) = phase.time("sltgrammar.encode", d, || serialize::encode(&grammar));
        ser_us += us;
        ser_bytes += encoded.len();
        let (decoded, us) = phase.time("sltgrammar.decode", d, || serialize::decode(&encoded));
        de_us += us;
        assert!(decoded.is_ok(), "encoded grammar decodes");
    }
    phase.close();
    let kb = wire_bytes as f64 / 1024.0;
    let doc_kedges = doc_edges as f64 / 1e3;
    let grammar_kedges = grammar_edges as f64 / 1e3;
    m.insert(
        "xmltree.wire_encode_us_per_kb",
        (ratio(encode_us, kb), "us/KB"),
    );
    m.insert(
        "xmltree.wire_decode_us_per_kb",
        (ratio(decode_us, kb), "us/KB"),
    );
    m.insert(
        "treerepair.compress_ms_per_kedge",
        (ratio(tree_ms, doc_kedges), "ms/kedge"),
    );
    m.insert(
        "repair.compress_xml_ms_per_kedge",
        (ratio(grammar_ms, doc_kedges), "ms/kedge"),
    );
    m.insert(
        "repair.compress_ratio",
        (ratio(grammar_edges as f64, doc_edges as f64), "ratio"),
    );
    m.insert(
        "sltgrammar.encode_us_per_kedge",
        (ratio(ser_us, grammar_kedges), "us/kedge"),
    );
    m.insert(
        "sltgrammar.decode_us_per_kedge",
        (ratio(de_us, grammar_kedges), "us/kedge"),
    );
    m.insert(
        "sltgrammar.encoded_bytes_per_edge",
        (ratio(ser_bytes as f64, grammar_edges as f64), "B"),
    );
}

/// `update::apply_batch` on bare grammars — the store's own, as loaded —
/// with a standalone `GrammarRePair::recompress` wherever the store rung
/// recompressed (`fired`): what the store does, with each step in sight.
fn update_rung(
    plan: &Plan,
    mut grammars: Vec<Grammar>,
    fired: &[Fired],
    tracer: &Tracer,
    m: &mut Metrics,
) -> UpdateRung {
    /// One op at a time is 10–40× a batched op; a prefix is enough.
    const SINGLE_OPS_PER_DOC: usize = 100;
    // One op at a time, on copies, for the first ops of each document.
    let phase = Phase::open(Some(tracer), "trace.rung.update_single");
    let (mut single_us, mut singles) = (0.0, 0usize);
    for (d, grammar) in grammars.iter().enumerate() {
        let mut copy = grammar.clone();
        let ops = plan
            .writes
            .iter()
            .flatten()
            .filter(|w| w.doc == d)
            .flat_map(|w| &w.ops)
            .take(SINGLE_OPS_PER_DOC);
        for op in ops {
            let (result, us) = phase.time("update.apply_update", singles, || {
                update::apply_update(&mut copy, op)
            });
            assert!(result.is_ok(), "scripted ops apply");
            single_us += us;
            singles += 1;
        }
    }
    phase.close();

    let repair = GrammarRePair::default();
    let mut r = UpdateRung::default();
    let (mut ops, mut chunks, mut inlinings, mut edges_added) = (0usize, 0usize, 0usize, 0i64);
    let (mut udc_s, mut scratch_edges) = (0.0, 0usize);
    let mut recompress_ms = Vec::with_capacity(fired.len());
    let mut due = fired.iter().peekable();
    let phase = Phase::open(Some(tracer), "trace.rung.update");
    for (index, req) in merged_writes(plan).into_iter().enumerate() {
        let (stats, us) = phase.time("update.apply_batch", index, || {
            update::apply_batch(&mut grammars[req.doc], &req.ops)
        });
        let stats = stats.expect("scripted ops apply");
        r.update_s += us / 1e6;
        r.batches += 1;
        ops += stats.ops;
        chunks += stats.chunks;
        inlinings += stats.isolation.inlinings;
        edges_added += stats.edges_after as i64 - stats.edges_before as i64;
        while let Some(f) = due.next_if(|f| f.request == index) {
            let grammar = &mut grammars[f.doc];
            let (scratch, us) = phase.time("udc.recompress_from_scratch", index, || {
                recompress_from_scratch(grammar, TreeRePairConfig::default())
            });
            udc_s += us / 1e6;
            scratch_edges += scratch.map(|(g, _)| g.edge_count()).unwrap_or(0);
            let (stats, us) = phase.time("repair.recompress", index, || repair.recompress(grammar));
            r.repair_s += us / 1e6;
            recompress_ms.push(us / 1e3);
            r.mismatches += u64::from(
                (stats.input_edges, stats.output_edges)
                    != (f.stats.input_edges, f.stats.output_edges),
            );
        }
    }
    phase.close();

    // Counts are the store's own; only the times are the standalone calls'.
    let count = fired.len() as f64;
    let sum = |f: &dyn Fn(&RepairStats) -> usize| {
        fired.iter().map(|fired| f(&fired.stats)).sum::<usize>() as f64
    };
    m.insert(
        "update.apply_batch_us_per_op",
        (ratio(r.update_s * 1e6, ops as f64), "us"),
    );
    m.insert(
        "update.apply_single_us_per_op",
        (ratio(single_us, singles as f64), "us"),
    );
    m.insert(
        "update.chunks_per_batch",
        (ratio(chunks as f64, r.batches as f64), "count"),
    );
    m.insert(
        "isolate.inlinings_per_op",
        (ratio(inlinings as f64, ops as f64), "count"),
    );
    m.insert(
        "isolate.edges_added_per_op",
        (ratio(edges_added as f64, ops as f64), "count"),
    );
    m.insert("repair.recompress_count", (count, "count"));
    m.insert(
        "repair.recompress_ms_p50",
        (median_or_zero(&recompress_ms), "ms"),
    );
    m.insert(
        "repair.recompress_us_per_input_edge",
        (ratio(r.repair_s * 1e6, sum(&|s| s.input_edges)), "us"),
    );
    m.insert("repair.rounds", (ratio(sum(&|s| s.rounds), count), "count"));
    m.insert(
        "repair.replacements",
        (ratio(sum(&|s| s.replacements), count), "count"),
    );
    m.insert(
        "repair.blowup_max",
        (
            fired.iter().map(|f| f.stats.blowup()).fold(0.0, f64::max),
            "ratio",
        ),
    );
    m.insert(
        "repair.edges_vs_scratch",
        (
            ratio(sum(&|s| s.output_edges), scratch_edges as f64),
            "ratio",
        ),
    );
    m.insert("repair.time_vs_udc", (ratio(r.repair_s, udc_s), "ratio"));
    r
}

/// Loads the corpus into a fresh in-memory store.
fn load_store(plan: &Plan, tracer: Option<&Tracer>) -> (DomStore, Vec<DocId>) {
    let store = DomStore::new();
    let load = Phase::open(tracer, "trace.rung.store_load");
    let ids = plan
        .docs
        .iter()
        .enumerate()
        .map(|(d, doc)| {
            load.time("store.load_xml", d, || store.load_xml(&doc.tree))
                .0
                .expect("corpus loads")
        })
        .collect();
    load.close();
    (store, ids)
}

/// `DomStore::apply_batch` (inline maintenance) over the write script.
/// Returns the script's wall time and every recompression the store's
/// maintenance reports name.
fn store_rung(
    plan: &Plan,
    store: &DomStore,
    ids: &[DocId],
    tracer: Option<&Tracer>,
) -> (f64, Vec<Fired>) {
    let mut fired = Vec::new();
    let phase = Phase::open(tracer, "trace.rung.store");
    for (request, req) in merged_writes(plan).into_iter().enumerate() {
        let (result, _) = phase.time("store.apply_batch", request, || {
            store.apply_batch(ids[req.doc], &req.ops)
        });
        let (_, report) = result.expect("scripted ops apply");
        fired.extend(report.drained.into_iter().map(|(id, stats)| {
            Fired {
                request,
                doc: ids
                    .iter()
                    .position(|&i| i == id)
                    .expect("a loaded document"),
                stats,
            }
        }));
    }
    (phase.close(), fired)
}

/// Store-level probes on the state the write script left: what the first
/// reader after a write pays, an idle maintenance sweep, the read path.
fn read_rung(
    plan: &Plan,
    store: &DomStore,
    ids: &[DocId],
    tracer: &Tracer,
    m: &mut Metrics,
) -> f64 {
    let phase = Phase::open(Some(tracer), "trace.rung.read");
    let mut after_write = Vec::new();
    let mut build = Vec::new();
    let (mut labels, mut scan_us) = (0usize, 0.0);
    for (d, &id) in ids.iter().enumerate() {
        let (_, us) = phase.time("store.snapshot_after_write", d, || {
            store.snapshot(id).map(|s| s.nav_tables())
        });
        after_write.push(us);
        let snapshot = store.snapshot(id).expect("document is live");
        let (_, us) = phase.time("navigate.navtables_build", d, || {
            NavTables::build(snapshot.grammar())
        });
        build.push(us);
        let (count, us) = phase.time("navigate.preorder_labels", d, || {
            snapshot.preorder_labels().count()
        });
        labels += count;
        scan_us += us;
    }
    let mut sweeps = Vec::new();
    for i in 0..100 {
        sweeps.push(phase.time("store.maintain", i, || store.maintain()).1);
    }

    let (mut evaluate, mut count, mut matches) = (Vec::new(), Vec::new(), 0usize);
    let mut read_s = 0.0;
    for (index, req) in plan.reads.iter().enumerate() {
        let snapshot = store.snapshot(ids[req.doc()]).expect("document is live");
        match *req {
            ReadReq::Query { doc, path } => {
                let query = PathQuery::parse(plan.path(doc, path)).expect("fixed paths parse");
                let (found, us) = phase.time("query.evaluate", index, || snapshot.query(&query));
                evaluate.push(us);
                read_s += us / 1e6;
                matches += found.len();
                count.push(
                    phase
                        .time("query.count", index, || snapshot.query_count(&query))
                        .1,
                );
            }
            ReadReq::ToXml { .. } => {
                let (text, us) = phase.time("store.to_xml", index, || {
                    snapshot.to_xml().map(|t| t.to_xml())
                });
                assert!(text.is_ok(), "snapshot serialises");
                read_s += us / 1e6;
            }
        }
    }
    phase.close();
    m.insert(
        "store.snapshot_after_write_us",
        (median_or_zero(&after_write), "us"),
    );
    m.insert(
        "store.maintain_us_per_batch",
        (median_or_zero(&sweeps), "us"),
    );
    m.insert(
        "store.symbol_bytes",
        (store.symbol_stats().resident_bytes() as f64, "B"),
    );
    m.insert(
        "navigate.navtables_build_us",
        (median_or_zero(&build), "us"),
    );
    m.insert(
        "navigate.preorder_labels_per_s",
        (ratio(labels as f64, scan_us / 1e6), "1/s"),
    );
    m.insert("query.evaluate_us_p50", (median_or_zero(&evaluate), "us"));
    m.insert("query.count_us_p50", (median_or_zero(&count), "us"));
    m.insert(
        "query.matches_per_query",
        (ratio(matches as f64, evaluate.len() as f64), "count"),
    );
    read_s
}

fn open_durable(dir: &Path) -> (DurableStore, grammar_repair::RecoveryReport) {
    DurableStore::open(dir.to_str().expect("run directory is UTF-8")).expect("durable store opens")
}

fn load_durable(plan: &Plan, store: &DurableStore) -> Vec<DocId> {
    plan.docs
        .iter()
        .map(|doc| store.load_xml(&doc.tree).expect("corpus loads"))
        .collect()
}

/// `DurableStore::apply_batch` over the write script, then checkpoint,
/// tail, reopen and first touch. Returns the script's wall time and how
/// many in-process results disagreed with the oracle.
fn durable_rung(plan: &Plan, dir: &Path, tracer: &Tracer, m: &mut Metrics) -> (f64, u64) {
    let (store, _) = open_durable(dir);
    let ids = load_durable(plan, &store);
    let phase = Phase::open(Some(tracer), "trace.rung.durable");
    for (index, req) in merged_writes(plan).into_iter().enumerate() {
        let (result, _) = phase.time("durable.apply_batch", index, || {
            store.apply_batch(ids[req.doc], &req.ops)
        });
        result.expect("scripted ops apply");
    }
    let wall = phase.close();

    let phase = Phase::open(Some(tracer), "trace.durable_lifecycle");
    let (report, checkpoint_us) = phase.time("durable.checkpoint", 0, || store.checkpoint());
    let checkpoint_bytes = report.expect("checkpoint succeeds").bytes;
    for req in &plan.tail {
        store
            .apply_batch(ids[req.doc], &req.ops)
            .expect("scripted ops apply");
    }
    drop(store);
    let ((store, recovery), _) = phase.time("durable.open", 0, || open_durable(dir));
    let mut first_touch = Vec::new();
    let mut mismatches = 0;
    for (d, &id) in ids.iter().enumerate() {
        let (found, us) = phase.time("durable.first_touch", d, || {
            store.query_str(id, plan.path(d, 0))
        });
        first_touch.push(us);
        let recovered = store.to_xml(id).map(|t| t.to_xml());
        if found.map(|f| f.len()).ok() != Some(plan.final_state(d).counts[0])
            || recovered.ok().as_deref() != Some(&plan.final_state(d).xml)
        {
            mismatches += 1;
        }
    }
    phase.close();
    m.insert("durable.checkpoint_ms", (checkpoint_us / 1e3, "ms"));
    m.insert("durable.checkpoint_bytes", (checkpoint_bytes as f64, "B"));
    m.insert(
        "durable.open_ms",
        (recovery.open_elapsed.as_secs_f64() * 1e3, "ms"),
    );
    m.insert(
        "durable.replay_us_per_record",
        (
            ratio(
                recovery.replay_elapsed.as_secs_f64() * 1e6,
                recovery.replayed as f64,
            ),
            "us",
        ),
    );
    m.insert(
        "durable.first_touch_us_per_doc",
        (median_or_zero(&first_touch), "us"),
    );
    (wall, mismatches)
}

/// The WAL primitives on the script's own records.
fn wal_rung(plan: &Plan, dir: &Path, ids: &[DocId], tracer: &Tracer, m: &mut Metrics) {
    /// Each commit is an fsync; a sample is enough.
    const COMMITS: usize = 400;
    std::fs::create_dir_all(dir).expect("run directory is writable");
    let path = dir
        .join("probe.log")
        .to_str()
        .expect("run directory is UTF-8")
        .to_string();
    let wal = Wal::new(Arc::new(DiskFs), path.clone(), 0);
    let phase = Phase::open(Some(tracer), "trace.wal");
    let (mut encode_us, mut commit_us, mut committed) = (0.0, 0.0, 0usize);
    let writes = merged_writes(plan);
    for (index, req) in writes.iter().enumerate() {
        let record = WalRecord::ApplyBatch {
            doc: ids[req.doc],
            ops: &req.ops,
        };
        encode_us += phase
            .time("wal.encode_frame", index, || {
                encode_frame(index as u64 + 1, &record)
            })
            .1;
        if index < COMMITS {
            let (lsn, us) = phase.time("wal.commit", index, || wal.commit(&record));
            lsn.expect("commit succeeds");
            commit_us += us;
            committed += 1;
        }
    }
    let bytes = std::fs::read(&path).expect("probe log is readable");
    let (replay, read_us) = phase.time("wal.read_log", 0, || read_log(&bytes));
    let records = replay.map(|r| r.records.len()).unwrap_or(0);
    phase.close();
    m.insert(
        "wal.encode_frame_us_per_record",
        (ratio(encode_us, writes.len() as f64), "us"),
    );
    m.insert(
        "wal.commit_us_per_record",
        (ratio(commit_us, committed as f64), "us"),
    );
    m.insert(
        "wal.read_log_us_per_record",
        (ratio(read_us, records as f64), "us"),
    );
}

/// `IngestQueue` over a durable store, no background drainer: each window
/// of as many batches as the end-to-end loop keeps in flight is submitted,
/// flushed as one coalesced group commit, and redeemed.
fn queue_rung(plan: &Plan, dir: &Path, tracer: &Tracer, m: &mut Metrics) -> f64 {
    let (store, _) = open_durable(dir);
    let ids = load_durable(plan, &store);
    let queue = IngestQueue::new(Arc::new(store));
    let window = match plan.write_loop {
        WriteLoop::Closed { depth } => depth * plan.writes.len(),
        WriteLoop::Open { .. } => 1,
    };
    let (mut submit, mut flush_us, mut batches) = (Vec::new(), 0.0, 0usize);
    let phase = Phase::open(Some(tracer), "trace.rung.queue");
    let writes = merged_writes(plan);
    for (w, chunk) in writes.chunks(window).enumerate() {
        let mut tickets = Vec::with_capacity(chunk.len());
        for (i, req) in chunk.iter().enumerate() {
            let (ticket, us) = phase.time("queue.submit", w * window + i, || {
                queue.submit(ids[req.doc], req.ops.clone())
            });
            submit.push(us);
            tickets.push(ticket.expect("unbounded queue accepts"));
        }
        flush_us += phase.time("queue.flush", w * window, || queue.flush()).1;
        batches += chunk.len();
        for ticket in tickets {
            queue.wait(ticket).expect("scripted ops apply");
        }
    }
    let wall = phase.close();
    m.insert("queue.submit_us", (median_or_zero(&submit), "us"));
    m.insert(
        "queue.flush_us_per_batch",
        (ratio(flush_us, batches as f64), "us"),
    );
    wall
}

/// Request decode and response encode on the script's own frames.
fn codec_rung(plan: &Plan, ids: &[DocId], tracer: &Tracer, m: &mut Metrics) {
    let phase = Phase::open(Some(tracer), "trace.server_codec");
    let (mut decode, mut encode) = (Vec::new(), Vec::new());
    for (index, req) in merged_writes(plan).into_iter().enumerate() {
        let frame = encode_request(
            index as u64,
            &Request::ApplyBatch {
                doc: ids[req.doc],
                ops: req.ops.clone(),
            },
        );
        let (decoded, us) = phase.time("server.request_decode", index, || {
            decode_request(&frame[FRAME_HEADER_LEN..])
        });
        assert!(decoded.is_ok(), "own frame decodes");
        decode.push(us);
        let reply = Response::Applied {
            stats: WireBatchStats::default(),
        };
        encode.push(
            phase
                .time("server.response_encode", index, || {
                    encode_response(index as u64, &reply)
                })
                .1,
        );
    }
    phase.close();
    m.insert("server.request_decode_us", (median_or_zero(&decode), "us"));
    m.insert("server.response_encode_us", (median_or_zero(&encode), "us"));
}

/// Per-layer numbers only the real server process shows: tails of the ack
/// latency, the idle round trip, and counters from its `Stats` replies.
fn server_metrics(rounds: &[Observed], m: &mut Metrics) {
    let acks: Vec<f64> = rounds
        .iter()
        .flat_map(|o| &o.acks)
        .filter(|a| !a.warmup)
        .map(|a| a.ms)
        .collect();
    let rtt: Vec<f64> = rounds
        .iter()
        .flat_map(|o| o.noop_rtt_us.iter().copied())
        .collect();
    let lateness: Vec<f64> = rounds
        .iter()
        .flat_map(|o| o.lateness_ms.iter().copied())
        .collect();
    let total = |f: &dyn Fn(&Observed) -> f64| rounds.iter().map(f).sum::<f64>();
    let acked = total(&|o| o.acks.len() as f64);
    // A document whose grammar is smaller before a batch than it was after
    // the previous one was recompressed in between. Batches the queue
    // coalesced into one job all carry that job's counts: one sighting.
    let mut seen = 0usize;
    for o in rounds {
        let mut last: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for ack in &o.acks {
            let job = (ack.stats.edges_before, ack.stats.edges_after);
            if last
                .insert(ack.doc, job)
                .is_some_and(|before| before != job && job.0 < before.1)
            {
                seen += 1;
            }
        }
    }
    m.insert("server.noop_rtt_us", (median_or_zero(&rtt), "us"));
    m.insert(
        "store.stale_read_share",
        (
            ratio(
                total(&|o| o.reads.stale as f64),
                total(&|o| o.reads.replies as f64),
            ),
            "ratio",
        ),
    );
    m.insert("server.write_ack_p95_ms", (quantile(&acks, 0.95), "ms"));
    m.insert("server.write_ack_p99_ms", (quantile(&acks, 0.99), "ms"));
    m.insert("server.write_ack_max_ms", (quantile(&acks, 1.0), "ms"));
    m.insert(
        "server.recompressions_seen",
        (seen as f64 / rounds.len() as f64, "count"),
    );
    m.insert(
        "client.lateness_p99_ms",
        (
            if lateness.is_empty() {
                0.0
            } else {
                quantile(&lateness, 0.99)
            },
            "ms",
        ),
    );
    m.insert(
        "queue.batches_per_flush",
        (
            ratio(
                total(&|o| {
                    (o.stats_after_writes.submitted - o.stats_before_writes.submitted) as f64
                }),
                total(&|o| (o.stats_after_writes.flushes - o.stats_before_writes.flushes) as f64),
            ),
            "count",
        ),
    );
    m.insert(
        "wal.fsyncs_per_acked_batch",
        (
            ratio(
                total(&|o| {
                    (o.stats_after_writes.wal_syncs - o.stats_before_writes.wal_syncs) as f64
                }),
                acked,
            ),
            "count",
        ),
    );
    m.insert(
        "wal.bytes_per_op",
        (
            ratio(
                total(&|o| o.wal_bytes as f64),
                total(&|o| o.write_ops as f64),
            ),
            "B",
        ),
    );
}

/// One line of the time-budget table: a rung of the stack replayed over
/// the write script.
pub struct BudgetLine {
    pub layer: &'static str,
    /// The rung's wall time, as measured.
    pub wall_s: f64,
    /// Wall time minus the wall time of the rung below (see the module
    /// docs for when this is negative).
    pub self_s: f64,
}

/// What a trace run produced.
pub struct TraceReport {
    pub metrics: Metrics,
    pub budget: Vec<BudgetLine>,
    /// In-process results that disagreed with the oracle or with the store.
    pub mismatches: u64,
}

/// Runs the in-process rungs for `plan` and combines them with the traced
/// end-to-end `rounds` (see the module docs). `scratch` must be inside the
/// checkout; it is created here and removed again.
pub fn run(plan: &Plan, rounds: &[Observed], tracer: &Tracer, scratch: &Path) -> TraceReport {
    let mut m = Metrics::new();
    server_metrics(rounds, &mut m);
    corpus_rung(plan, tracer, &mut m);
    let (store, ids) = load_store(plan, Some(tracer));
    let loaded: Vec<Grammar> = ids
        .iter()
        .map(|&id| {
            let snapshot = store.snapshot(id).expect("document is live");
            snapshot.grammar().clone()
        })
        .collect();
    let (store_s, fired) = store_rung(plan, &store, &ids, Some(tracer));
    let update = update_rung(plan, loaded, &fired, tracer, &mut m);
    let read_s = read_rung(plan, &store, &ids, tracer, &mut m);
    codec_rung(plan, &ids, tracer, &mut m);
    drop(store);
    let (store, ids) = load_store(plan, None);
    let (untraced_s, _) = store_rung(plan, &store, &ids, None);
    drop(store);

    std::fs::create_dir_all(scratch).expect("run directory is writable");
    let (durable_s, mismatches) = durable_rung(plan, &scratch.join("durable"), tracer, &mut m);
    wal_rung(plan, &scratch.join("wal"), &ids, tracer, &mut m);
    let queue_s = queue_rung(plan, &scratch.join("queue"), tracer, &mut m);
    let _ = std::fs::remove_dir_all(scratch);

    // The end-to-end side of the budget: the least disturbed traced round.
    let server_s = rounds
        .iter()
        .map(|o| o.write_wall_s)
        .fold(f64::MAX, f64::min);
    let read_wall_s = rounds
        .iter()
        .map(|o| o.reads.wall_s)
        .fold(f64::MAX, f64::min);
    let ack_p50 = median_or_zero(
        &rounds
            .iter()
            .flat_map(|o| &o.acks)
            .filter(|a| !a.warmup)
            .map(|a| a.ms)
            .collect::<Vec<_>>(),
    );
    let batches = update.batches as f64;
    m.insert(
        "durable.apply_overhead_us_per_batch",
        ((durable_s - store_s) * 1e6 / batches, "us"),
    );
    m.insert(
        "store.apply_overhead_us_per_batch",
        (
            (store_s - update.update_s - update.repair_s) * 1e6 / batches,
            "us",
        ),
    );
    m.insert(
        "repair.recompress_busy_share",
        (ratio(update.repair_s, server_s), "ratio"),
    );
    // Share of the median ack spent waiting for a drain rather than being
    // served: one batch's durable service time against the ack latency.
    m.insert(
        "queue.wait_share",
        (
            (1.0 - ratio(durable_s * 1e3 / batches, ack_p50)).max(0.0),
            "ratio",
        ),
    );
    m.insert(
        "server.read_overhead_share",
        ((1.0 - ratio(read_s, read_wall_s)).max(0.0), "ratio"),
    );
    m.insert(
        "trace.overhead_share",
        (ratio(store_s - untraced_s, untraced_s), "ratio"),
    );

    let walls = [
        ("server", "trace.rung.server_s", server_s),
        ("queue", "trace.rung.queue_s", queue_s),
        ("durable+wal", "trace.rung.durable_s", durable_s),
        ("store", "trace.rung.store_s", store_s),
        (
            "update+repair",
            "trace.rung.update_s",
            update.update_s + update.repair_s,
        ),
        ("  of which repair", "trace.rung.repair_s", update.repair_s),
    ];
    let budget = walls
        .iter()
        .enumerate()
        .map(|(rung, &(layer, name, wall_s))| {
            m.insert(name, (wall_s, "s"));
            // `update+repair` and `repair` have nothing below them.
            let below = walls
                .get(rung + 1)
                .filter(|_| rung < 4)
                .map_or(0.0, |w| w.2);
            BudgetLine {
                layer,
                wall_s,
                self_s: wall_s - below,
            }
        })
        .collect();
    TraceReport {
        metrics: m,
        budget,
        mismatches: mismatches + update.mismatches,
    }
}

/// Writes metrics, budget table, per-name span totals and the raw spans.
pub fn write_file(
    path: &Path,
    workload: &str,
    env_json: &str,
    report: &TraceReport,
    tracer: &Tracer,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\n  \"workload\": \"{workload}\",\n  \"env\": {env_json},\n  \"metrics\": {{"
    );
    let lines: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let _ = writeln!(out, "{}\n  }},\n  \"time_budget\": [", lines.join(",\n"));
    let lines: Vec<String> = report
        .budget
        .iter()
        .map(|b| {
            format!(
                "    {{\"layer\": \"{}\", \"wall_s\": {}, \"self_s\": {}}}",
                b.layer.trim(),
                b.wall_s,
                b.self_s
            )
        })
        .collect();
    let _ = writeln!(out, "{}\n  ],\n  \"span_totals\": [", lines.join(",\n"));
    let lines: Vec<String> = tracer
        .summary()
        .iter()
        .map(|(name, (count, total, own))| format!("    {{\"name\": \"{name}\", \"count\": {count}, \"total_us\": {total:.1}, \"self_us\": {own:.1}}}"))
        .collect();
    let _ = writeln!(out, "{}\n  ],\n  \"spans\": [", lines.join(",\n"));
    let spans = tracer.spans.lock().expect("span buffer lock");
    let lines: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!("    {{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_us\": {:.1}, \"end_us\": {:.1}}}", s.name, s.request, s.start_us, s.end_us)
        })
        .collect();
    let _ = writeln!(out, "{}\n  ]\n}}", lines.join(",\n"));
    std::fs::write(path, out)
}
