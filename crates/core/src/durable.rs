//! `DurableStore` — a crash-safe [`DomStore`]: every mutation is written
//! ahead to a [`crate::wal::Wal`], checkpoints serialize the whole store
//! atomically, and [`DurableStore::open`] recovers the exact pre-crash state
//! by restoring the last checkpoint and replaying the log tail.
//!
//! # What is logged, and when
//!
//! Each mutating call commits exactly one record *before* touching the
//! in-memory store (fsync-before-apply — see the [`crate::wal`] module docs
//! for the commit protocol):
//!
//! * [`DurableStore::load_xml`] logs the XML fragment itself; replay re-runs
//!   the same compression against the same shared-alphabet state, so the
//!   recovered grammar and [`DocId`] are bit-identical to the original. The
//!   compression runs before the commit; it touches only the shared
//!   alphabet, which no document reads until the load's slab insert, and
//!   a fragment it rejects is not logged.
//! * [`DurableStore::load_grammar`] logs the grammar's binary encoding.
//! * [`DurableStore::remove`] logs the removed id; replay reproduces the
//!   slab's free-list state (and therefore all later id assignments).
//! * [`DurableStore::apply_batch`] logs the batch as one `ApplyBatch` record
//!   (a single update is a one-op batch); [`DurableStore::apply_batch_many`]
//!   logs **one** `ApplyMany` record for the whole fan-out, so the
//!   multi-document batch pays one fsync. The ingestion queue
//!   ([`crate::queue::IngestQueue`]) writes each drain as one such record,
//!   one job per submitted batch; a document's jobs apply in job order,
//!   live and on replay.
//!
//! Maintenance (recompression) is deliberately **not** logged: it never
//! changes the derived document, so replaying the update log against the
//! checkpoint reproduces the same documents regardless of when
//! recompressions ran.
//!
//! # Ordering discipline
//!
//! Replay applies records strictly in LSN order, so the log order must be
//! the in-memory apply order. The store has **one commit order**: a single
//! mutex every logged mutation holds across *commit + apply*. The log is
//! therefore one total order, the order the paper's updates are defined
//! in, and replaying it reproduces the store exactly. Reads take no part
//! in it. The one writer `sltxml serve` has, the queue's drain, already
//! runs one flush at a time, so the order costs it nothing.
//!
//! Work that need not be ordered stays outside it, so loads and writes,
//! which `sltxml serve` runs on different threads, do not stall each
//! other. A load compresses before it takes the order; loads are ordered
//! among themselves by a second lock that only they take, because
//! compression interns into the shared alphabet and replay must intern in
//! log order.
//!
//! An update's own recompression (see the store's module docs) runs
//! inside the order, as part of its apply. It never changes a derived
//! document, but it changes the bytes every later job of that document
//! starts from: run after the order is released, it could land after the
//! document's next job, and the bytes would depend on how jobs were
//! grouped into drains. Inside the order, a checkpoint cut also sees every
//! document at a job boundary with its trigger already run. The cost: a
//! load's slab insert and the next drain wait while it runs.
//!
//! # Checkpoints and recovery
//!
//! [`DurableStore::checkpoint`] takes a **consistent cut**: under the
//! commit order it copies only pointers — the durable LSN as `base_lsn`,
//! the slab layout, the symbol image, and each live document's undecoded
//! payload or grammar `Arc`. No commit sits between its append and its
//! apply while the order is held, so every document is cut exactly at
//! `base_lsn`. The symbol image may also hold the alphabet of a load still
//! compressing; no document in the image uses it, and replaying that load
//! re-interns it at the same ids. Encoding, the CRCs and the file write
//! run after the order is released, so writers and loads keep flowing;
//! copy-on-write keeps the cut's grammars immutable, and each is dropped
//! once encoded, so a writer pays at most one clone. The image is written
//! in the paged checkpoint-v3 layout (documented in [`crate::wal`])
//! **atomically** (temp + rename); the log is truncated afterwards only if
//! nothing committed since the cut ([`crate::wal::Wal::truncate_if_at`] —
//! otherwise the log survives and replay skips the covered records).
//!
//! Recovery reads the checkpoint (if any), adopts the symbol-table image
//! wholesale and installs every document as an undecoded lazy payload
//! (decoded on first touch — cold start is O(open) + O(touched docs), not
//! O(fleet)), then replays log records with `lsn > checkpoint_lsn`,
//! skipping per-document updates with `lsn <= doc_lsn`. This writer sets
//! every `doc_lsn` to `base_lsn`; images from older writers, which
//! serialized documents one at a time while updates flowed, can carry a
//! later one, and the filter keeps those readable. A torn final record is
//! truncated silently; genuinely corrupt records surface as
//! [`RepairError::WalCorrupt`]. Replayed operations that failed originally
//! (stale ids, out-of-range targets) fail identically on replay — per-op
//! errors are deliberately not fatal to recovery. A `LoadGrammar` payload
//! that fails to decode is *not* such a per-op error: the original commit
//! encoded a real grammar, so an undecodable payload behind a valid frame
//! CRC is inconsistency, and it too surfaces as [`RepairError::WalCorrupt`].
//! A checkpoint file of any version other than 3 — none was ever written —
//! is refused with a typed "unsupported version" [`RepairError::Storage`]
//! error rather than ignored: silently starting empty would replay the log
//! tail onto the wrong state.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sltgrammar::serialize;
use sltgrammar::Grammar;
use xmltree::updates::UpdateOp;
use xmltree::wire::{self, WireReader};
use xmltree::XmlTree;

use crate::error::{RepairError, Result};
use crate::frame::{read_doc, read_u32, write_doc};
use crate::query::QueryMatches;
use crate::store::{DocId, DomStore, MaintenanceReport, SlabLayout};
use crate::update::BatchStats;
use crate::wal::{read_log, DiskFs, StorageFs, Wal, WalEntry, WalRecord};

/// Magic bytes of the checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"SLCK";
/// Version byte of the paged, offset-indexed checkpoint format written by
/// [`DurableStore::checkpoint`] (layout documented in [`crate::wal`]) — the
/// only version there is; any other is refused on open.
pub const CHECKPOINT_VERSION_V3: u8 = 3;

/// What [`DurableStore::open`] found and did, including the open-time
/// breakdown: with a v3 checkpoint, `checkpoint_elapsed` covers reading and
/// validating the image (no grammar decodes — `lazy_docs` counts the
/// documents left undecoded for first touch) and `replay_elapsed` covers
/// the log tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN recorded in the checkpoint (0 when none existed).
    pub checkpoint_lsn: u64,
    /// Documents restored from the checkpoint.
    pub checkpoint_docs: usize,
    /// Log records replayed (those with `lsn > checkpoint_lsn` not already
    /// folded into a document's checkpoint extent).
    pub replayed: u64,
    /// LSN of the last durable record after recovery.
    pub last_lsn: u64,
    /// Whether a torn final record was truncated from the log.
    pub torn_tail: bool,
    /// Bytes the torn-tail truncation removed.
    pub truncated_bytes: u64,
    /// Documents restored as undecoded lazy payloads (v3 checkpoints),
    /// still pending first touch when `open` returned.
    pub lazy_docs: usize,
    /// Time spent reading/validating the checkpoint image.
    pub checkpoint_elapsed: Duration,
    /// Time spent scanning and replaying the log tail.
    pub replay_elapsed: Duration,
    /// Total wall time of `open`.
    pub open_elapsed: Duration,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered to lsn {} (checkpoint: lsn {}, {} docs, {} left lazy; \
             replayed {} records{}; open {:?} = checkpoint {:?} + replay {:?})",
            self.last_lsn,
            self.checkpoint_lsn,
            self.checkpoint_docs,
            self.lazy_docs,
            self.replayed,
            if self.torn_tail {
                format!("; truncated a torn tail of {} bytes", self.truncated_bytes)
            } else {
                String::new()
            },
            self.open_elapsed,
            self.checkpoint_elapsed,
            self.replay_elapsed,
        )
    }
}

/// What [`DurableStore::checkpoint`] wrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Base LSN of the checkpoint: the image folds in exactly the records
    /// at or below it.
    pub last_lsn: u64,
    /// Documents serialized into the checkpoint.
    pub documents: usize,
    /// Size of the checkpoint file in bytes.
    pub bytes: usize,
    /// Whether the log could be truncated afterwards (false when a writer
    /// committed after the cut — replay skips the covered records either
    /// way).
    pub log_truncated: bool,
}

impl std::fmt::Display for CheckpointReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint at lsn {}: {} docs, {} bytes; log {}",
            self.last_lsn,
            self.documents,
            self.bytes,
            if self.log_truncated { "truncated" } else { "kept (writers active)" }
        )
    }
}

/// A crash-safe multi-document store: a [`DomStore`] whose every mutation
/// is write-ahead logged, plus checkpointing and recovery (see the module
/// docs).
pub struct DurableStore {
    store: DomStore,
    wal: Wal,
    fs: Arc<dyn StorageFs>,
    checkpoint_path: String,
    /// The commit order: every logged mutation holds it across commit and
    /// apply, so log order is apply order (see the module docs).
    order: Mutex<()>,
    /// Orders loads among themselves from interning to insert: a load
    /// interns into the shared alphabet before it commits, so loads must
    /// reach the log in interning order. Only loads take it.
    loads: Mutex<()>,
    /// Serializes checkpoints among themselves, so images reach the file in
    /// cut order: an older cut landing after a newer one had truncated the
    /// log would lose the records between them. Commits never take it.
    checkpointing: Mutex<()>,
}

fn log_path(dir: &str) -> String {
    format!("{dir}/wal.log")
}

fn checkpoint_path(dir: &str) -> String {
    format!("{dir}/checkpoint.slck")
}

impl DurableStore {
    /// Opens (or creates) a durable store in `dir` on the real filesystem,
    /// recovering whatever a previous incarnation left there. The directory
    /// is created if missing.
    pub fn open(dir: &str) -> Result<(Self, RecoveryReport)> {
        std::fs::create_dir_all(dir).map_err(|e| RepairError::Storage {
            detail: format!("create `{dir}`: {e}"),
        })?;
        Self::open_with(Arc::new(DiskFs), dir)
    }

    /// Opens (or creates) a durable store over an injected storage backend —
    /// the seam the fault-injection suite drives with
    /// [`crate::wal::testing::FailpointFs`].
    pub fn open_with(fs: Arc<dyn StorageFs>, dir: &str) -> Result<(Self, RecoveryReport)> {
        let open_start = Instant::now();
        let log = log_path(dir);
        let ckpt = checkpoint_path(dir);
        let store = DomStore::new();
        let mut report = RecoveryReport::default();
        // Per-document fold horizons of a v3 checkpoint: replay skips a
        // document's updates at or below its recorded `doc_lsn`.
        let mut doc_lsns: HashMap<DocId, u64> = HashMap::new();

        if let Some(bytes) = fs.read(&ckpt)? {
            let image = decode_checkpoint(&bytes)?;
            report.checkpoint_lsn = image.base_lsn;
            report.checkpoint_docs = image.docs.len();
            let mut lazy = Vec::with_capacity(image.docs.len());
            for doc in image.docs {
                doc_lsns.insert(doc.id, doc.doc_lsn);
                lazy.push((doc.id, doc.payload, doc.crc));
            }
            store.restore_slab_lazy(image.layout, image.segments, lazy)?;
        }
        report.checkpoint_elapsed = open_start.elapsed();

        let replay_start = Instant::now();
        let log_bytes = fs.read(&log)?.unwrap_or_default();
        let replay = read_log(&log_bytes)?;
        if replay.torn {
            report.torn_tail = true;
            report.truncated_bytes = log_bytes.len() as u64 - replay.valid_len;
            fs.set_len(&log, replay.valid_len)?;
            fs.sync(&log)?;
        }
        let horizon = report.checkpoint_lsn.max(replay.last_lsn());
        report.last_lsn = doc_lsns.values().fold(horizon, |last, &doc_lsn| last.max(doc_lsn));
        for (lsn, offset, entry) in replay.records {
            if lsn <= report.checkpoint_lsn {
                continue; // already folded into the checkpoint for every doc
            }
            let Some(entry) = filter_folded(entry, lsn, &doc_lsns) else {
                continue; // folded into every targeted document's extent
            };
            apply_entry(&store, lsn, offset, entry)?;
            report.replayed += 1;
        }
        report.replay_elapsed = replay_start.elapsed();
        report.lazy_docs = store.pending_count();
        report.open_elapsed = open_start.elapsed();

        let wal = Wal::new(fs.clone(), log, report.last_lsn);
        Ok((
            DurableStore {
                store,
                wal,
                fs,
                checkpoint_path: ckpt,
                order: Mutex::new(()),
                loads: Mutex::new(()),
                checkpointing: Mutex::new(()),
            },
            report,
        ))
    }

    // ----- logged mutations (fsync before apply; see the module docs) -----

    /// Commits `record`, then runs `apply`, both under the commit order —
    /// the one place a mutation enters the log.
    fn commit_then<T>(&self, record: &WalRecord<'_>, apply: impl FnOnce() -> T) -> Result<T> {
        let _order = self.order.lock().expect("commit order never poisoned");
        self.wal.commit(record)?;
        Ok(apply())
    }

    /// Durable [`DomStore::load_xml`]: the fragment is compressed, then
    /// logged and fsync'd, then added to the store. Only the log append and
    /// the slab insert hold the commit order; a fragment the store rejects
    /// changes nothing and is not logged.
    pub fn load_xml(&self, xml: &XmlTree) -> Result<DocId> {
        let _loads = self.loads.lock().expect("load lock never poisoned");
        let grammar = self.store.compress_for_load(xml)?;
        self.commit_then(&WalRecord::LoadXml { tree: xml }, || self.store.insert_loaded(grammar))
    }

    /// Durable [`DomStore::load_grammar`]: the grammar's binary encoding is
    /// logged, then the grammar joins the store.
    pub fn load_grammar(&self, grammar: Grammar) -> Result<DocId> {
        let bytes = serialize::encode(&grammar);
        let _loads = self.loads.lock().expect("load lock never poisoned");
        self.commit_then(&WalRecord::LoadGrammar { bytes: &bytes }, || self.store.load_grammar(grammar))?
    }

    /// Durable [`DomStore::remove`].
    pub fn remove(&self, doc: DocId) -> Result<Grammar> {
        self.commit_then(&WalRecord::Remove { doc }, || self.store.remove(doc))?
    }

    /// Durable [`DomStore::apply_batch`], the job's recompression included.
    pub fn apply_batch(
        &self,
        doc: DocId,
        ops: &[UpdateOp],
    ) -> Result<(BatchStats, MaintenanceReport)> {
        self.commit_then(&WalRecord::ApplyBatch { doc, ops }, || self.store.apply_batch(doc, ops))?
    }

    /// Durable [`DomStore::apply_batch_many`]: **one** log record (one
    /// fsync) covers the whole multi-document fan-out, the jobs'
    /// recompressions included.
    pub fn apply_batch_many(
        &self,
        jobs: &[(DocId, Vec<UpdateOp>)],
    ) -> (Vec<Result<BatchStats>>, MaintenanceReport) {
        if jobs.is_empty() {
            return (Vec::new(), MaintenanceReport::default());
        }
        match self.commit_then(&WalRecord::ApplyMany { jobs }, || self.store.apply_batch_many(jobs)) {
            Ok(applied) => applied,
            Err(e) => (jobs.iter().map(|_| Err(e.clone())).collect(), MaintenanceReport::default()),
        }
    }

    // ----- checkpointing -----

    /// Writes a checkpoint in the paged v3 layout (see [`crate::wal`]) as a
    /// **consistent cut** at `base_lsn`: the commit order is held only to
    /// copy pointers (the durable LSN, slab layout, symbol image, and each
    /// document's payload or grammar `Arc`). Encoding, the CRCs and the
    /// write run after it is released, so writers and lifecycle events
    /// keep flowing. The image is written **atomically** (temp + rename)
    /// and the log truncated only if nothing committed since the cut. After
    /// a crash at any point of this sequence, recovery sees either the old
    /// checkpoint plus the full log or the new checkpoint (plus a log whose
    /// covered records it skips by LSN) — never a half state.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let _checkpointing = self.checkpointing.lock().expect("checkpoint lock never poisoned");
        let (base_lsn, segments, (layout, cut)) = {
            let _order = self.order.lock().expect("commit order never poisoned");
            (self.wal.durable_lsn(), self.store.symbol_image(), self.store.checkpoint_cut())
        };
        // No commit sits between its append and its apply while the order
        // is held, so every document is cut exactly at `base_lsn`.
        let docs: Vec<DocExtent> = cut
            .into_iter()
            .map(|(id, doc)| {
                let (payload, crc) = doc.encode();
                DocExtent { id, doc_lsn: base_lsn, payload, crc }
            })
            .collect();
        let bytes = encode_checkpoint_v3(base_lsn, &layout, &segments, &docs);
        self.fs.write_atomic(&self.checkpoint_path, &bytes)?;
        let log_truncated = self.wal.truncate_if_at(base_lsn)?;
        Ok(CheckpointReport {
            last_lsn: base_lsn,
            documents: docs.len(),
            bytes: bytes.len(),
            log_truncated,
        })
    }

    // ----- read surface (reads need no logging) -----

    /// The wrapped [`DomStore`], for its full read surface (snapshots,
    /// grammars, sizes) and for unlogged maintenance —
    /// [`DomStore::maintain`] / [`DomStore::recompress`] never change a
    /// derived document, so replay is unaffected by when (or whether) they
    /// ran. *Updating* documents through this reference **bypasses the
    /// log** — recovered state will not include such changes; use the
    /// logged methods above instead.
    pub fn dom(&self) -> &DomStore {
        &self.store
    }

    /// See [`DomStore::to_xml`].
    pub fn to_xml(&self, doc: DocId) -> Result<XmlTree> {
        self.store.to_xml(doc)
    }

    /// See [`DomStore::xml_text`].
    pub fn xml_text(&self, doc: DocId, budget: usize) -> Result<String> {
        self.store.xml_text(doc, budget)
    }

    /// See [`DomStore::query_str`].
    pub fn query_str(&self, doc: DocId, query: &str) -> Result<QueryMatches> {
        self.store.query_str(doc, query)
    }

    /// See [`DomStore::doc_ids`].
    pub fn doc_ids(&self) -> Vec<DocId> {
        self.store.doc_ids()
    }

    /// See [`DomStore::contains`].
    pub fn contains(&self, doc: DocId) -> bool {
        self.store.contains(doc)
    }

    /// See [`DomStore::len`].
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// See [`DomStore::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// LSN of the last durably committed record.
    pub fn durable_lsn(&self) -> u64 {
        self.wal.durable_lsn()
    }

    /// Number of log fsyncs so far: one per commit. Coalescing writes into
    /// fewer commits is the ingestion queue's drain.
    pub fn wal_sync_count(&self) -> u64 {
        self.wal.sync_count()
    }
}

/// Replays one decoded record against the store. Per-op failures are
/// expected (they reproduce failures of the original run — stale ids,
/// out-of-range targets) and deliberately non-fatal. A `LoadGrammar`
/// payload that fails to decode is different: its frame passed the CRC, so
/// this is genuine inconsistency, and silently skipping the load would
/// shift every later slab assignment away from the pre-crash state — it
/// surfaces as [`RepairError::WalCorrupt`] instead.
fn apply_entry(store: &DomStore, lsn: u64, offset: u64, entry: WalEntry) -> Result<()> {
    match entry {
        WalEntry::LoadXml { tree } => {
            let _ = store.load_xml(&tree);
        }
        WalEntry::LoadGrammar { bytes } => {
            let grammar = serialize::decode(&bytes).map_err(|e| RepairError::WalCorrupt {
                lsn: lsn - 1,
                offset,
                detail: format!(
                    "record lsn {lsn}: LoadGrammar payload fails to decode despite a valid \
                     record checksum: {e}"
                ),
            })?;
            let _ = store.load_grammar(grammar);
        }
        WalEntry::Remove { doc } => {
            let _ = store.remove(doc);
        }
        WalEntry::ApplyBatch { doc, ops } => {
            let _ = store.apply_batch(doc, &ops);
        }
        WalEntry::ApplyMany { jobs } => {
            let _ = store.apply_batch_many(&jobs);
        }
    }
    Ok(())
}

// ----- checkpoint file format -----

fn ckpt_err(detail: impl Into<String>) -> RepairError {
    RepairError::Storage {
        detail: format!("checkpoint corrupt: {}", detail.into()),
    }
}

// ----- checkpoint v3 (paged, offset-indexed; layout in `crate::wal`) -----

/// One document's extent in a v3 checkpoint: the serialized grammar bytes,
/// the LSN horizon folded into them, and the CRC the lazy materialization
/// path verifies on first touch.
struct DocExtent {
    id: DocId,
    doc_lsn: u64,
    payload: Vec<u8>,
    crc: u32,
}

/// A decoded checkpoint file: payloads adopted as undecoded bytes.
struct CheckpointImage {
    base_lsn: u64,
    layout: SlabLayout,
    segments: Vec<(Vec<String>, Vec<usize>)>,
    docs: Vec<DocExtent>,
}

/// Bytes before the first section: magic, version, nine `u64` header
/// fields, and the header CRC.
const V3_HEADER_LEN: usize = 4 + 1 + 72 + 4;

fn encode_checkpoint_v3(
    base_lsn: u64,
    layout: &SlabLayout,
    segments: &[(Vec<String>, Vec<usize>)],
    docs: &[DocExtent],
) -> Vec<u8> {
    // Section bodies first; the header offsets depend on their lengths.
    let mut slab = Vec::new();
    wire::write_varint(&mut slab, layout.generations.len() as u64);
    for &generation in &layout.generations {
        wire::write_varint(&mut slab, generation as u64);
    }
    wire::write_varint(&mut slab, layout.free.len() as u64);
    for &slot in &layout.free {
        wire::write_varint(&mut slab, slot as u64);
    }
    wire::write_varint(&mut slab, layout.live.len() as u64);
    for &id in &layout.live {
        write_doc(&mut slab, id);
    }

    let mut symtab = Vec::new();
    wire::write_varint(&mut symtab, segments.len() as u64);
    for (names, ranks) in segments {
        wire::write_varint(&mut symtab, names.len() as u64);
        for (name, &rank) in names.iter().zip(ranks) {
            wire::write_varint(&mut symtab, rank as u64);
            wire::write_varint(&mut symtab, name.len() as u64);
            symtab.extend_from_slice(name.as_bytes());
        }
    }

    let mut extents = Vec::new();
    wire::write_varint(&mut extents, docs.len() as u64);
    let mut payload_off = 0u64;
    for doc in docs {
        write_doc(&mut extents, doc.id);
        wire::write_varint(&mut extents, doc.doc_lsn);
        wire::write_varint(&mut extents, payload_off);
        wire::write_varint(&mut extents, doc.payload.len() as u64);
        extents.extend_from_slice(&doc.crc.to_le_bytes());
        payload_off += doc.payload.len() as u64;
    }

    let payloads: Vec<&[u8]> = docs.iter().map(|doc| &doc.payload[..]).collect();
    seal_checkpoint(base_lsn, [&slab, &symtab, &extents], &payloads)
}

/// Lays the three section bodies and the docs region out behind the v3
/// header: absolute `(offset, length)` pairs, the header CRC, one CRC in
/// front of each section.
fn seal_checkpoint(base_lsn: u64, sections: [&[u8]; 3], payloads: &[&[u8]]) -> Vec<u8> {
    let crc32 = sltgrammar::crc32::crc32;
    let mut fields = vec![base_lsn];
    let mut end = V3_HEADER_LEN as u64;
    for body in sections {
        let len = (body.len() + 4) as u64;
        fields.extend([end, len]);
        end += len;
    }
    let docs_len: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    fields.extend([end, docs_len]);

    let mut out = Vec::with_capacity((end + docs_len) as usize);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.push(CHECKPOINT_VERSION_V3);
    for field in fields {
        out.extend_from_slice(&field.to_le_bytes());
    }
    let header_crc = crc32(&out[5..77]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    for body in sections {
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
    }
    for payload in payloads {
        out.extend_from_slice(payload);
    }
    out
}

fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointImage> {
    let crc32 = sltgrammar::crc32::crc32;
    if bytes.len() < 5 || &bytes[..4] != CHECKPOINT_MAGIC {
        return Err(ckpt_err("bad magic bytes"));
    }
    if bytes[4] != CHECKPOINT_VERSION_V3 {
        return Err(ckpt_err(format!("unsupported version {}", bytes[4])));
    }
    if bytes.len() < V3_HEADER_LEN {
        return Err(ckpt_err("v3 header truncated"));
    }
    let expected = u32::from_le_bytes(bytes[77..81].try_into().expect("4 bytes"));
    let found = crc32(&bytes[5..77]);
    if expected != found {
        return Err(ckpt_err(format!(
            "v3 header checksum mismatch (stored {expected:#010x}, found {found:#010x})"
        )));
    }
    let mut fields = [0u64; 9];
    for (i, f) in fields.iter_mut().enumerate() {
        let at = 5 + i * 8;
        *f = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    }
    let [base_lsn, slab_off, slab_len, symtab_off, symtab_len, extents_off, extents_len, docs_off, docs_len] =
        fields;
    // Every byte of the file must be accounted for: header, then the three
    // checksummed sections back to back, then the docs region — no gaps, no
    // overlaps, no tail. (Docs-region bytes are covered by the per-extent
    // payload CRCs, verified at first touch rather than here.)
    let file_len = bytes.len() as u64;
    let mut cursor = V3_HEADER_LEN as u64;
    for (name, off, len, min) in [
        ("slab", slab_off, slab_len, 4u64),
        ("symbol-table", symtab_off, symtab_len, 4),
        ("extents", extents_off, extents_len, 4),
        ("docs", docs_off, docs_len, 0),
    ] {
        if off != cursor {
            return Err(ckpt_err(format!(
                "v3 {name} section at offset {off} does not follow the previous section \
                 (expected offset {cursor})"
            )));
        }
        if len < min {
            return Err(ckpt_err(format!(
                "v3 {name} section length {len} is shorter than its checksum"
            )));
        }
        cursor = off
            .checked_add(len)
            .filter(|&end| end <= file_len)
            .ok_or_else(|| {
                ckpt_err(format!(
                    "v3 {name} section (offset {off}, length {len}) exceeds the file"
                ))
            })?;
    }
    if cursor != file_len {
        return Err(ckpt_err(format!(
            "v3 trailing bytes: sections end at {cursor} but the file is {file_len} bytes"
        )));
    }
    let section = |off: u64, len: u64, name: &str| -> Result<&[u8]> {
        let start = off as usize;
        let body = &bytes[start + 4..start + len as usize];
        let expected = u32::from_le_bytes(bytes[start..start + 4].try_into().expect("4 bytes"));
        let found = crc32(body);
        if expected != found {
            return Err(ckpt_err(format!(
                "v3 {name} section checksum mismatch (stored {expected:#010x}, found {found:#010x})"
            )));
        }
        Ok(body)
    };
    let fail = |e: xmltree::XmlError| ckpt_err(e.to_string());

    let mut r = WireReader::new(section(slab_off, slab_len, "slab")?);
    let mut layout = SlabLayout::default();
    let slots = r.count(1, "slot").map_err(fail)?;
    for _ in 0..slots {
        layout.generations.push(read_u32(&mut r, "slot generation").map_err(ckpt_err)?);
    }
    let free = r.count(1, "free-slot").map_err(fail)?;
    for _ in 0..free {
        layout.free.push(read_u32(&mut r, "free slot").map_err(ckpt_err)?);
    }
    let live = r.count(2, "live-doc").map_err(fail)?;
    for _ in 0..live {
        layout.live.push(read_doc(&mut r).map_err(ckpt_err)?);
    }
    if !r.finished() {
        return Err(ckpt_err("v3 slab section has trailing bytes"));
    }

    let mut r = WireReader::new(section(symtab_off, symtab_len, "symbol-table")?);
    let segment_count = r.count(1, "symbol segment").map_err(fail)?;
    let mut segments = Vec::with_capacity(segment_count);
    for _ in 0..segment_count {
        let symbol_count = r.count(2, "symbol").map_err(fail)?;
        let mut names = Vec::with_capacity(symbol_count);
        let mut ranks = Vec::with_capacity(symbol_count);
        for _ in 0..symbol_count {
            ranks.push(r.varint().map_err(fail)? as usize);
            let len = r.varint().map_err(fail)? as usize;
            let name = r.bytes(len).map_err(fail)?;
            names.push(
                std::str::from_utf8(name)
                    .map_err(|_| ckpt_err("v3 symbol name is not valid UTF-8"))?
                    .to_string(),
            );
        }
        segments.push((names, ranks));
    }
    if !r.finished() {
        return Err(ckpt_err("v3 symbol-table section has trailing bytes"));
    }

    let mut r = WireReader::new(section(extents_off, extents_len, "extents")?);
    let doc_count = r.count(9, "document extent").map_err(fail)?;
    let mut docs = Vec::with_capacity(doc_count);
    for _ in 0..doc_count {
        let id = read_doc(&mut r).map_err(ckpt_err)?;
        let doc_lsn = r.varint().map_err(fail)?;
        let payload_off = r.varint().map_err(fail)?;
        let payload_len = r.varint().map_err(fail)?;
        let crc = u32::from_le_bytes(r.bytes(4).map_err(fail)?.try_into().expect("4 bytes"));
        payload_off
            .checked_add(payload_len)
            .filter(|&end| end <= docs_len)
            .ok_or_else(|| {
                ckpt_err(format!(
                    "v3 document extent (offset {payload_off}, length {payload_len}) exceeds \
                     the docs region of {docs_len} bytes"
                ))
            })?;
        let start = (docs_off + payload_off) as usize;
        let payload = bytes[start..start + payload_len as usize].to_vec();
        docs.push(DocExtent {
            id,
            doc_lsn,
            payload,
            crc,
        });
    }
    if !r.finished() {
        return Err(ckpt_err("v3 extents section has trailing bytes"));
    }
    Ok(CheckpointImage {
        base_lsn,
        layout,
        segments,
        docs,
    })
}

/// Drops (or trims) a replayed record whose effects the checkpoint already
/// folded into a document extent. A record counts as replayed only when
/// some part of it survives this filter. Only images from older writers
/// carry a `doc_lsn` above `base_lsn`; those writers let loads and removes
/// wait out the checkpoint, so lifecycle records are never filtered.
fn filter_folded(entry: WalEntry, lsn: u64, doc_lsns: &HashMap<DocId, u64>) -> Option<WalEntry> {
    let folded = |doc: &DocId| doc_lsns.get(doc).is_some_and(|&d| lsn <= d);
    match entry {
        WalEntry::ApplyBatch { doc, .. } if folded(&doc) => None,
        WalEntry::ApplyMany { mut jobs } => {
            jobs.retain(|(doc, _)| !folded(doc));
            (!jobs.is_empty()).then_some(WalEntry::ApplyMany { jobs })
        }
        other => Some(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::testing::FailpointFs;
    use xmltree::parse::parse_xml;

    fn doc(tag: &str, n: usize) -> XmlTree {
        let mut s = format!("<{tag}>");
        for _ in 0..n {
            s.push_str("<item><title/><body><p/><p/></body></item>");
        }
        s.push_str(&format!("</{tag}>"));
        parse_xml(&s).unwrap()
    }

    fn mem_store() -> (Arc<FailpointFs>, DurableStore) {
        let fs = Arc::new(FailpointFs::new());
        let (store, report) = DurableStore::open_with(fs.clone(), "db").unwrap();
        // Timings are the only nonzero fields on a fresh open.
        assert_eq!(
            report,
            RecoveryReport {
                checkpoint_elapsed: report.checkpoint_elapsed,
                replay_elapsed: report.replay_elapsed,
                open_elapsed: report.open_elapsed,
                ..RecoveryReport::default()
            }
        );
        (fs, store)
    }

    #[test]
    fn loads_and_updates_replay_to_identical_state() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 4)).unwrap();
        let b = store.load_xml(&doc("blog", 3)).unwrap();
        store
            .apply_batch(a, &[UpdateOp::Rename { target: 1, label: "entry".into() }])
            .unwrap();
        store
            .apply_batch(b, &[UpdateOp::Delete { target: 1 }])
            .unwrap();
        let want_a = store.to_xml(a).unwrap().to_xml();
        let want_b = store.to_xml(b).unwrap().to_xml();
        drop(store); // "crash": memory gone, fs survives

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.replayed, 4);
        assert!(!report.torn_tail);
        assert_eq!(recovered.doc_ids(), vec![a, b], "ids survive recovery");
        assert_eq!(recovered.to_xml(a).unwrap().to_xml(), want_a);
        assert_eq!(recovered.to_xml(b).unwrap().to_xml(), want_b);
    }

    #[test]
    fn mid_chunk_splice_error_replays_to_the_partial_state() {
        // The WAL logs an ApplyBatch record *before* the apply; a splice-time
        // error leaves the batch's already-spliced prefix applied in memory.
        // Recovery replays the same record through the same non-fatal
        // apply_batch, so the recovered document must equal the in-memory
        // partial state, byte for byte — not the batch-start state.
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let b = store.load_xml(&doc("blog", 3)).unwrap();
        let before_a = store.to_xml(a).unwrap().to_xml();

        // Doc a: rename + insert splice fine, then the delete lands on a null
        // node (preorder 3 is <title/>'s empty child list) and errors.
        let frag = parse_xml("<ad/>").unwrap();
        let ops_a = vec![
            UpdateOp::Rename { target: 1, label: "entry".into() },
            UpdateOp::InsertBefore { target: 5, fragment: frag },
            UpdateOp::Delete { target: 3 },
        ];
        assert!(store.apply_batch(a, &ops_a).is_err());
        // Doc b: the rename to the reserved null label errors after a
        // successful insert in the same batch.
        let ops_b = vec![
            UpdateOp::InsertBefore {
                target: 1,
                fragment: parse_xml("<promo/>").unwrap(),
            },
            UpdateOp::Rename { target: 3, label: "#".into() },
        ];
        assert!(store.apply_batch(b, &ops_b).is_err());

        let want_a = store.to_xml(a).unwrap().to_xml();
        let want_b = store.to_xml(b).unwrap().to_xml();
        assert_ne!(want_a, before_a, "the failed batch's prefix must be applied");
        drop(store); // crash with the poisoned records in the log

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.replayed, 4);
        assert_eq!(
            recovered.to_xml(a).unwrap().to_xml(),
            want_a,
            "replay must reproduce the partial state of the failed batch"
        );
        assert_eq!(recovered.to_xml(b).unwrap().to_xml(), want_b);
    }

    #[test]
    fn an_out_of_range_target_replays_to_the_applied_prefix() {
        // An out-of-range target fails like any other op: the ops before it
        // stay applied. Doc a takes the batch as one ApplyBatch record, doc b
        // as two tickets of one flush (two jobs of one ApplyMany record),
        // doc c just the prefix. Replay must rebuild all three byte for
        // byte.
        let (fs, store) = mem_store();
        let store = Arc::new(store);
        let ops = vec![
            UpdateOp::Rename { target: 1, label: "entry".into() },
            UpdateOp::InsertBefore { target: 5, fragment: parse_xml("<ad/>").unwrap() },
            UpdateOp::Delete { target: 1 << 40 },
        ];
        let out_of_range =
            |r: Result<BatchStats>| matches!(r, Err(RepairError::TargetOutOfRange { .. }));
        let [a, b, c] = [(); 3].map(|()| store.load_xml(&doc("feed", 3)).unwrap());

        assert!(out_of_range(
            store.apply_batch(a, &ops).map(|(stats, _)| stats)
        ));
        let queue = crate::queue::IngestQueue::new(store.clone());
        let tickets = [
            queue.submit(b, ops[..2].to_vec()).unwrap(),
            queue.submit(b, ops[2..].to_vec()).unwrap(),
        ];
        assert_eq!(queue.flush(), 2, "one job per ticket");
        assert_eq!(queue.wait(tickets[0]).unwrap().ops, 2, "the prefix ticket succeeds");
        assert!(out_of_range(queue.wait(tickets[1])), "only the failing ticket errs");
        store.apply_batch(c, &ops[..2]).unwrap();

        let prefix = store.to_xml(c).unwrap().to_xml();
        for id in [a, b] {
            assert_eq!(
                store.to_xml(id).unwrap().to_xml(),
                prefix,
                "the prefix is applied"
            );
        }
        let bytes = |s: &DurableStore| -> Vec<Vec<u8>> {
            [a, b, c]
                .iter()
                .map(|&id| serialize::encode(&s.dom().grammar(id).unwrap()))
                .collect()
        };
        let want = bytes(&store);
        drop(queue);
        drop(store);

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.replayed, 6);
        assert_eq!(bytes(&recovered), want, "replay reproduces every grammar");
    }

    #[test]
    fn checkpoint_restores_without_replay_and_truncates_the_log() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 4)).unwrap();
        store
            .apply_batch(a, &[UpdateOp::Rename { target: 1, label: "entry".into() }])
            .unwrap();
        let report = store.checkpoint().unwrap();
        assert_eq!(report.last_lsn, 2);
        assert_eq!(report.documents, 1);
        assert_eq!(fs.file("db/wal.log").unwrap().len(), 0, "log truncated");
        let want = store.to_xml(a).unwrap().to_xml();
        drop(store);

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.checkpoint_lsn, 2);
        assert_eq!(report.replayed, 0);
        assert_eq!(recovered.to_xml(a).unwrap().to_xml(), want);
    }

    #[test]
    fn removal_and_slot_reuse_replay_identically() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 2)).unwrap();
        let b = store.load_xml(&doc("blog", 2)).unwrap();
        store.remove(a).unwrap();
        let c = store.load_xml(&doc("log", 2)).unwrap();
        assert_eq!(c.slot(), a.slot(), "slot reused");
        assert_ne!(c.generation(), a.generation());
        drop(store);

        let (recovered, _) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(recovered.doc_ids(), vec![b, c]);
        assert!(!recovered.contains(a), "stale id stays dead after recovery");
    }

    #[test]
    fn checkpoint_then_more_writes_replays_only_the_tail() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 4)).unwrap();
        store.checkpoint().unwrap();
        store
            .apply_batch(a, &[UpdateOp::Rename { target: 1, label: "x".into() }])
            .unwrap();
        let b = store.load_xml(&doc("blog", 2)).unwrap();
        let want_a = store.to_xml(a).unwrap().to_xml();
        let want_b = store.to_xml(b).unwrap().to_xml();
        drop(store);

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.checkpoint_lsn, 1);
        assert_eq!(report.replayed, 2);
        assert_eq!(recovered.to_xml(a).unwrap().to_xml(), want_a);
        assert_eq!(recovered.to_xml(b).unwrap().to_xml(), want_b);
    }

    #[test]
    fn load_grammar_records_replay() {
        let (fs, store) = mem_store();
        let plain = DomStore::new();
        let tmp = plain.load_xml(&doc("feed", 3)).unwrap();
        let grammar = plain.remove(tmp).unwrap();
        let id = store.load_grammar(grammar).unwrap();
        let want = store.to_xml(id).unwrap().to_xml();
        drop(store);
        let (recovered, _) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(recovered.to_xml(id).unwrap().to_xml(), want);
    }

    #[test]
    fn apply_batch_many_is_one_record_one_fsync() {
        let (fs, store) = mem_store();
        let ids: Vec<DocId> = (0..4).map(|i| store.load_xml(&doc("feed", 2 + i)).unwrap()).collect();
        let syncs_before = fs.sync_count();
        let jobs: Vec<(DocId, Vec<UpdateOp>)> = ids
            .iter()
            .map(|&id| (id, vec![UpdateOp::Rename { target: 1, label: "x".into() }]))
            .collect();
        let (results, _) = store.apply_batch_many(&jobs);
        for r in results {
            r.unwrap();
        }
        assert_eq!(fs.sync_count() - syncs_before, 1, "one fsync for the whole fan-out");
        let wants: Vec<String> = ids.iter().map(|&id| store.to_xml(id).unwrap().to_xml()).collect();
        drop(store);
        let (recovered, _) = DurableStore::open_with(fs, "db").unwrap();
        for (&id, want) in ids.iter().zip(&wants) {
            assert_eq!(&recovered.to_xml(id).unwrap().to_xml(), want);
        }
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        let pristine = fs.file("db/checkpoint.slck").unwrap();

        // A flip in the indexed part of the file (here: a header field)
        // fails at open.
        let mut bytes = pristine.clone();
        bytes[6] ^= 0x10;
        fs.set_file("db/checkpoint.slck", bytes);
        assert!(matches!(
            DurableStore::open_with(fs.clone(), "db"),
            Err(RepairError::Storage { .. })
        ));

        // A flip in the lazy docs region (the file's tail) passes open —
        // nothing decodes the payload yet — and surfaces as a typed error
        // on first touch.
        let mut bytes = pristine;
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs.set_file("db/checkpoint.slck", bytes);
        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.lazy_docs, 1);
        assert!(matches!(
            recovered.to_xml(a),
            Err(RepairError::Storage { .. })
        ));
    }

    #[test]
    fn version_1_checkpoints_are_refused_with_a_typed_error() {
        let (fs, store) = mem_store();
        store.load_xml(&doc("feed", 2)).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        // The same image behind version byte 1 — a format nothing ever
        // wrote. Open must refuse it loudly: ignoring the file would start
        // from an empty store and replay the log tail onto the wrong state.
        let mut bytes = fs.file("db/checkpoint.slck").unwrap();
        bytes[4] = 1;
        fs.set_file("db/checkpoint.slck", bytes);
        match DurableStore::open_with(fs, "db") {
            Err(RepairError::Storage { detail }) => {
                assert_eq!(detail, "checkpoint corrupt: unsupported version 1")
            }
            Err(other) => panic!("expected the typed version error, got {other:?}"),
            Ok(_) => panic!("a version-1 checkpoint must not open"),
        }
    }

    #[test]
    fn document_ids_above_u32_are_rejected_by_every_decoder() {
        use xmltree::wire::write_varint;
        // A slot of 2^32 + 1 narrowed to u32 would alias document 1. Each of
        // the three places a document id is read from outside bytes gets one,
        // behind a valid CRC, and must answer with its own typed error.
        let mut wide = Vec::new();
        write_varint(&mut wide, (1u64 << 32) + 1); // slot
        write_varint(&mut wide, 1); // generation

        // The WAL: version, lsn 1, kind 2 (Remove), the id.
        let mut record = vec![crate::wal::WAL_VERSION, 1, 2];
        record.extend_from_slice(&wide);
        let fs = Arc::new(FailpointFs::new());
        fs.set_file("db/wal.log", crate::frame::seal(&record));
        match DurableStore::open_with(fs, "db") {
            Err(RepairError::WalCorrupt { detail, .. }) => {
                assert!(detail.contains("out of range"), "{detail}")
            }
            other => panic!("expected WalCorrupt, got {:?}", other.map(|_| ())),
        }

        // The wire: version, request id 7, kind 4 (ToXml), the id.
        let mut request = vec![crate::server::PROTOCOL_VERSION, 7, 4];
        request.extend_from_slice(&wide);
        let frame = crate::frame::seal(&request);
        match crate::server::decode_request(&frame[crate::frame::FRAME_HEADER_LEN..]) {
            Err(RepairError::Protocol { detail }) => {
                assert!(detail.contains("out of range"), "{detail}")
            }
            other => panic!("expected Protocol, got {other:?}"),
        }

        // The checkpoint, twice — the slab's live list and the extent table
        // (one slot, generation 1, no free slots, no symbols) — and once
        // with honest ids: the rejections are about the ids, not the
        // hand-built framing.
        let slab_head = [1u8, 1, 0, 1]; // 1 slot (generation 1), 0 free, 1 live
        let honest = [0u8, 1];
        let extent_tail = [0u8, 0, 0, 0, 0, 0, 0]; // doc_lsn, offset, len, crc32
        for (live_id, extent_id) in [(&wide[..], &honest[..]), (&honest, &wide), (&honest, &honest)] {
            let slab = [&slab_head[..], live_id].concat();
            let extents = [&[1u8][..], extent_id, &extent_tail].concat();
            let fs = Arc::new(FailpointFs::new());
            fs.set_file(
                "db/checkpoint.slck",
                seal_checkpoint(0, [&slab, &[0], &extents], &[]),
            );
            match DurableStore::open_with(fs, "db") {
                Ok((store, report)) => {
                    assert_eq!((live_id, extent_id), (&honest[..], &honest[..]));
                    assert_eq!((report.checkpoint_docs, store.len()), (1, 1));
                }
                Err(RepairError::Storage { detail }) => assert!(
                    detail.starts_with("checkpoint corrupt") && detail.contains("out of range"),
                    "{detail}"
                ),
                Err(other) => panic!("expected a corrupt checkpoint, got {other:?}"),
            }
        }
    }

    /// A [`StorageFs`] whose `write_atomic` meets the test at `gate` once
    /// when it parks and once more to be released.
    struct ParkingFs {
        inner: FailpointFs,
        gate: std::sync::Barrier,
    }

    impl StorageFs for ParkingFs {
        fn append(&self, path: &str, bytes: &[u8]) -> Result<()> {
            self.inner.append(path, bytes)
        }
        fn sync(&self, path: &str) -> Result<()> {
            self.inner.sync(path)
        }
        fn read(&self, path: &str) -> Result<Option<Vec<u8>>> {
            self.inner.read(path)
        }
        fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<()> {
            self.gate.wait();
            self.gate.wait();
            self.inner.write_atomic(path, bytes)
        }
        fn set_len(&self, path: &str, len: u64) -> Result<()> {
            self.inner.set_len(path, len)
        }
    }

    #[test]
    fn a_checkpoint_being_written_blocks_no_load_remove_write_or_read() {
        use std::sync::mpsc::{sync_channel, RecvTimeoutError};
        let gate = std::sync::Barrier::new(2);
        let fs = Arc::new(ParkingFs { inner: FailpointFs::new(), gate });
        let store = Arc::new(DurableStore::open_with(fs.clone(), "db").unwrap().0);
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let b = store.load_xml(&doc("blog", 3)).unwrap();
        let c = store.load_xml(&doc("log", 2)).unwrap();
        let ckpt = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.checkpoint())
        };
        fs.gate.wait(); // the checkpoint is parked inside `write_atomic`

        // While the image is parked, the whole write surface and the reads
        // complete — on a helper thread, so a block fails instead of hanging.
        let (done_tx, done) = sync_channel(1);
        let worker = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let d = store.load_xml(&doc("note", 2)).unwrap();
                store.remove(c).unwrap();
                for id in [a, b, d] {
                    let rename = UpdateOp::Rename { target: 1, label: "entry".into() };
                    store.apply_batch(id, &[rename]).unwrap();
                    store.to_xml(id).unwrap();
                    store.query_str(id, "//entry").unwrap();
                }
                done_tx.send(()).unwrap();
            })
        };
        let blocked = done.recv_timeout(Duration::from_secs(30)) == Err(RecvTimeoutError::Timeout);
        assert!(!blocked, "a load, remove, write or read blocked behind the checkpoint write");
        worker.join().unwrap();

        fs.gate.wait();
        let report = ckpt.join().unwrap().unwrap();
        assert_eq!((report.last_lsn, report.documents), (3, 3));
        assert!(!report.log_truncated, "writes landed after the cut");
        let image = decode_checkpoint(&fs.inner.file("db/checkpoint.slck").unwrap()).unwrap();
        assert!(image.base_lsn == 3 && image.docs.iter().all(|extent| extent.doc_lsn == 3));

        let documents = |store: &DurableStore| -> Vec<(DocId, String)> {
            let xml = |id| store.to_xml(id).unwrap().to_xml();
            store.doc_ids().into_iter().map(|id| (id, xml(id))).collect()
        };
        let want = documents(&store);
        drop(store);
        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.replayed, 5, "exactly the records after the cut replay");
        assert_eq!(documents(&recovered), want);
    }

    #[test]
    fn concurrent_loads_replay_to_bit_identical_grammars() {
        // Loads compress outside the commit order but intern into the
        // shared alphabet, so the log must carry them in interning order:
        // replay then assigns every label the id it had, and each loaded
        // grammar re-encodes to the same bytes. A writer runs beside them.
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..4 {
                        store.load_xml(&doc(&format!("t{t}d{i}"), 2 + 20 * i)).unwrap();
                    }
                });
            }
            scope.spawn(|| {
                for i in 0..16 {
                    let rename = UpdateOp::Rename { target: 1, label: format!("r{i}") };
                    store.apply_batch(a, std::slice::from_ref(&rename)).unwrap();
                }
            });
        });
        let grammars = |store: &DurableStore| -> Vec<(DocId, Vec<u8>)> {
            let ids = store.doc_ids().into_iter().filter(|&id| id != a);
            ids.map(|id| (id, serialize::encode(&store.dom().grammar(id).unwrap()))).collect()
        };
        let (want, want_a) = (grammars(&store), store.to_xml(a).unwrap().to_xml());
        assert_eq!(want.len(), 16);
        drop(store);
        let (recovered, _) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(grammars(&recovered), want);
        assert_eq!(recovered.to_xml(a).unwrap().to_xml(), want_a);
    }

    #[test]
    fn images_with_a_doc_lsn_past_base_skip_exactly_the_folded_records() {
        // Older writers serialized documents one at a time while updates
        // flowed, so an extent could fold records past `base_lsn`. Build
        // such an image by hand: base 1 (the load), doc extent at lsn 2 (an
        // insert, which must not apply twice), and a log holding lsn 3 too.
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let insert = UpdateOp::InsertBefore { target: 1, fragment: parse_xml("<ad/>").unwrap() };
        store.apply_batch(a, std::slice::from_ref(&insert)).unwrap();
        let (layout, cut) = store.store.checkpoint_cut();
        let docs: Vec<DocExtent> = cut
            .into_iter()
            .map(|(id, doc)| {
                let (payload, crc) = doc.encode();
                DocExtent { id, doc_lsn: 2, payload, crc }
            })
            .collect();
        let image = encode_checkpoint_v3(1, &layout, &store.store.symbol_image(), &docs);
        let rename = UpdateOp::Rename { target: 1, label: "entry".into() };
        store.apply_batch(a, std::slice::from_ref(&rename)).unwrap();
        let want = store.to_xml(a).unwrap().to_xml();
        drop(store);
        fs.set_file("db/checkpoint.slck", image);

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!((report.checkpoint_lsn, report.replayed, report.last_lsn), (1, 1, 3));
        assert_eq!(recovered.to_xml(a).unwrap().to_xml(), want);
    }

    #[test]
    fn undecodable_load_grammar_record_is_corruption() {
        let fs = Arc::new(FailpointFs::new());
        // A frame whose CRC is valid but whose LoadGrammar payload is not a
        // grammar encoding: replay must fail loudly, not skip the load.
        let frame = crate::wal::encode_frame(
            1,
            &WalRecord::LoadGrammar { bytes: b"not a grammar encoding" },
        );
        fs.set_file("db/wal.log", frame);
        assert!(matches!(
            DurableStore::open_with(fs, "db"),
            Err(RepairError::WalCorrupt { lsn: 0, .. })
        ));
    }

    #[test]
    fn corrupt_mid_log_record_is_a_typed_error() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        store
            .apply_batch(a, &[UpdateOp::Rename { target: 1, label: "x".into() }])
            .unwrap();
        drop(store);
        let mut bytes = fs.file("db/wal.log").unwrap();
        bytes[10] ^= 0x20; // inside the first record's payload
        fs.set_file("db/wal.log", bytes);
        assert!(matches!(
            DurableStore::open_with(fs, "db"),
            Err(RepairError::WalCorrupt { .. })
        ));
    }
}
