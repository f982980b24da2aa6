//! Write-ahead op log for the durable store: framed, checksummed, versioned
//! records over an injectable storage backend.
//!
//! # Commit protocol
//!
//! Every mutation of a [`crate::durable::DurableStore`] becomes exactly one
//! log record, assigned a **log sequence number** (LSN, 1-based, strictly
//! sequential) when it is appended. The durability discipline is
//! *fsync-before-apply*: a record is appended to the log file and fsync'd
//! **before** the corresponding in-memory change is made, so any state a
//! reader could ever observe is reconstructible by replay. A crash between
//! fsync and apply merely means recovery replays a record whose effect was
//! never visible — replay is idempotent against that because recovery starts
//! from the checkpoint, not from the crashed process's memory.
//!
//! **One committer at a time.** [`Wal::commit`] encodes, appends and
//! fsyncs under the writer's own mutex, so one commit is one fsync
//! ([`Wal::sync_count`]). The durable store already serializes its commits
//! through one commit order, so there is never a second committer to wait
//! for; group commit happens one layer up, where the ingestion queue's
//! drain writes many submitted batches as one record. The durable LSN and the
//! fsync count are published as atomics after each fsync, so a stats reader
//! never waits behind one in flight. A failed append or fsync poisons the
//! log (the record cannot be half-trusted); every later commit fails with
//! the same storage error.
//!
//! # Record format
//!
//! Records travel in the shared [`crate::frame`] envelope (`length | crc32 |
//! payload`); the payload is
//!
//! ```text
//! payload: version u8 | lsn varint | kind u8 | body
//! ```
//!
//! Bodies use the `xmltree::wire` encoding for trees and update operations
//! and the frame module's `(slot, generation)` pair for document ids.
//! Record kinds cover the store's whole mutation surface: document loads
//! (as the XML fragment, or as encoded grammar bytes), removal, per-document
//! update batches, and the multi-document batch (one record, and so one
//! fsync, per `apply_batch_many` call).
//!
//! # Torn-tail rule
//!
//! [`read_log`] distinguishes two failure shapes. An **incomplete final
//! frame** — the file ends before the frame's declared length — is exactly
//! what a crash mid-append leaves behind; it is reported as a torn tail and
//! recovery truncates it silently (the record never committed: its fsync
//! cannot have returned). A **complete frame that fails its CRC, version,
//! or LSN-sequence check** is genuine corruption of already-durable data and
//! yields the typed [`RepairError::WalCorrupt`] instead — silently dropping
//! a record whose fsync succeeded would break the durability contract.
//!
//! # Checkpoint atomicity
//!
//! Checkpoints are written through [`StorageFs::write_atomic`] (temp file,
//! fsync, rename, parent-directory fsync): the checkpoint file is always
//! either the complete old one or the complete new one, and the rename
//! itself is durable — a directory entry only committed to the directory's
//! own metadata is lost by a power cut, so the parent is fsync'd before
//! `write_atomic` returns. The log is truncated only *after* that directory
//! fsync succeeds; a crash in between is harmless because replay skips
//! records with `lsn <= checkpoint_lsn` — truncation is an optimization,
//! not a correctness step. The same directory-durability rule covers the
//! log file's creation: [`DiskFs::append`] fsyncs the parent when it
//! creates the file, before the first commit can report durability.
//!
//! A checkpoint is a consistent cut at its base LSN, but writers keep
//! committing while it is encoded and written, so the log may already hold
//! later records. [`Wal::truncate_if_at`] therefore truncates only when the
//! durable LSN still equals the checkpoint's base LSN; otherwise the log
//! survives until the next quiescent checkpoint and replay skips the
//! records at or below the base LSN.
//!
//! # Checkpoint-v3 on-disk layout
//!
//! Version 3 of the checkpoint file (written by
//! [`crate::durable::DurableStore::checkpoint`]) is a paged, offset-indexed
//! image designed for O(open) cold starts: `open()` validates and adopts
//! the header, slab, symbol-table image and extent table, but does **not**
//! decode any grammar — per-document extents are handed to the store as
//! raw bytes and decoded lazily on first touch.
//!
//! ```text
//! magic "SLCK" | version u8 = 3
//! header (fixed width, 72 bytes + CRC):
//!   base_lsn u64-LE                 every record with lsn <= base_lsn is folded in
//!   slab_off u64    slab_len u64    \
//!   symtab_off u64  symtab_len u64   } absolute byte extents of the sections
//!   extents_off u64 extents_len u64  }
//!   docs_off u64    docs_len u64    /
//!   crc32 u32-LE of the 9 fields above
//! slab section:    crc32 u32-LE | slot generations, free list, live list (varints)
//! symtab section:  crc32 u32-LE | sealed segment count, then per segment:
//!                    symbol count, per symbol (rank varint, name len varint, name)
//!                  — the master symbol table's segment runs, boundaries intact,
//!                    adopted wholesale on open (no per-symbol re-intern)
//! extents section: crc32 u32-LE | doc count, then per doc:
//!                    slot varint, generation varint, doc_lsn varint,
//!                    payload offset varint (relative to docs_off),
//!                    payload length varint, payload crc32 u32-LE
//! docs section:    concatenated per-doc payloads (sltgrammar's
//!                  shared-alphabet encoding; no framing of their own)
//! ```
//!
//! Integrity is layered: the header CRC covers the section offsets (a
//! corrupt offset cannot cause an out-of-bounds or OOM-sized read — every
//! extent is also bounds-checked against the file), each section carries
//! its own CRC, and each document payload carries a CRC **in the extent
//! table** that is verified only when the document is first materialized —
//! the deliberate trade-off that keeps open O(1) in fleet size: bit rot in
//! a cold document surfaces as a typed [`RepairError::Storage`] on first
//! touch rather than at open. `doc_lsn` is the highest LSN folded into that
//! document's payload; every document is cut at the image's `base_lsn`, so
//! an extent recording any other `doc_lsn` is refused as corrupt. No other
//! version was ever written; a file carrying one is refused with a typed
//! "unsupported version" error.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use xmltree::updates::UpdateOp;
use xmltree::wire::{self, WireReader};
use xmltree::XmlTree;

use crate::error::{RepairError, Result};
use crate::frame::{self, read_doc, write_doc, FRAME_HEADER_LEN};
use crate::store::DocId;

/// Version byte of the record payload format.
pub const WAL_VERSION: u8 = 1;

fn storage_err(op: &str, path: &str, e: std::io::Error) -> RepairError {
    RepairError::Storage {
        detail: format!("{op} `{path}`: {e}"),
    }
}

/// Fsyncs the parent directory of `path`: file creation and rename are
/// directory mutations, durable only once the directory itself is synced.
fn sync_parent_dir(path: &str) -> Result<()> {
    let parent = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."));
    std::fs::File::open(parent)
        .and_then(|d| d.sync_all())
        .map_err(|e| storage_err("sync parent directory of", path, e))
}

/// The storage operations the durable layer needs, as an injectable trait:
/// [`DiskFs`] is the real implementation, `testing::FailpointFs` the
/// fault-injecting in-memory one the kill-and-recover suite drives.
pub trait StorageFs: Send + Sync {
    /// Appends `bytes` to the file at `path`, creating it if missing.
    fn append(&self, path: &str, bytes: &[u8]) -> Result<()>;
    /// Forces the file's content to durable storage (fsync).
    fn sync(&self, path: &str) -> Result<()>;
    /// Reads the whole file; `Ok(None)` when it does not exist.
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>>;
    /// Replaces the file's content atomically and durably (temp file,
    /// fsync, rename, parent-directory fsync): after a crash — including a
    /// power loss — the file holds either the old or the new content, never
    /// a mix.
    fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<()>;
    /// Truncates the file to `len` bytes.
    fn set_len(&self, path: &str, len: u64) -> Result<()>;
}

/// [`StorageFs`] over the real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskFs;

impl StorageFs for DiskFs {
    fn append(&self, path: &str, bytes: &[u8]) -> Result<()> {
        use std::io::Write;
        let created = !std::path::Path::new(path).exists();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| storage_err("open for append", path, e))?;
        file.write_all(bytes).map_err(|e| storage_err("append to", path, e))?;
        if created {
            // The new directory entry must be durable too, or a power loss
            // after the first commit's fsync could lose the whole file.
            sync_parent_dir(path)?;
        }
        Ok(())
    }

    fn sync(&self, path: &str) -> Result<()> {
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| storage_err("sync", path, e))
    }

    fn read(&self, path: &str) -> Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(storage_err("read", path, e)),
        }
    }

    fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<()> {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, bytes).map_err(|e| storage_err("write", &tmp, e))?;
        std::fs::File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(|e| storage_err("sync", &tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| storage_err("rename into", path, e))?;
        // The rename is durable only once the directory entry is: fsync the
        // parent before reporting success — callers truncate the log on it.
        sync_parent_dir(path)
    }

    fn set_len(&self, path: &str, len: u64) -> Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(len))
            .map_err(|e| storage_err("truncate", path, e))
    }
}

// ----- records -----

/// A record to be committed, borrowing the caller's data (encode side).
#[derive(Debug, Clone, Copy)]
pub enum WalRecord<'a> {
    /// A document load from an XML fragment ([`crate::store::DomStore::load_xml`]).
    LoadXml {
        /// The document, replayed through `load_xml` for bit-identical
        /// compression and alphabet interning.
        tree: &'a XmlTree,
    },
    /// A document load from an already-compressed grammar, carried as its
    /// `sltgrammar::serialize` encoding.
    LoadGrammar {
        /// The encoded grammar bytes.
        bytes: &'a [u8],
    },
    /// A document removal.
    Remove {
        /// The removed document.
        doc: DocId,
    },
    /// One update batch against one document (a single update is a batch of
    /// one).
    ApplyBatch {
        /// The targeted document (possibly already stale — replay reproduces
        /// the original failure in that case).
        doc: DocId,
        /// The operations, in order.
        ops: &'a [UpdateOp],
    },
    /// One multi-document batch (`apply_batch_many`): one record — and
    /// therefore at most one fsync — for the whole fan-out.
    ApplyMany {
        /// The per-document jobs, in job order; a document may have
        /// several, which apply in job order.
        jobs: &'a [(DocId, Vec<UpdateOp>)],
    },
}

/// A decoded record (owned; the replay side of [`WalRecord`]).
#[derive(Debug, Clone)]
pub enum WalEntry {
    /// See [`WalRecord::LoadXml`].
    LoadXml {
        /// The document to load.
        tree: XmlTree,
    },
    /// See [`WalRecord::LoadGrammar`].
    LoadGrammar {
        /// The encoded grammar bytes.
        bytes: Vec<u8>,
    },
    /// See [`WalRecord::Remove`].
    Remove {
        /// The removed document.
        doc: DocId,
    },
    /// See [`WalRecord::ApplyBatch`].
    ApplyBatch {
        /// The targeted document.
        doc: DocId,
        /// The operations, in order.
        ops: Vec<UpdateOp>,
    },
    /// See [`WalRecord::ApplyMany`].
    ApplyMany {
        /// The per-document jobs, in job order.
        jobs: Vec<(DocId, Vec<UpdateOp>)>,
    },
}

/// Encodes one record into a complete frame (length, CRC, payload).
pub fn encode_frame(lsn: u64, record: &WalRecord<'_>) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.push(WAL_VERSION);
    wire::write_varint(&mut payload, lsn);
    match record {
        WalRecord::LoadXml { tree } => {
            payload.push(0);
            wire::write_tree(&mut payload, tree);
        }
        WalRecord::LoadGrammar { bytes } => {
            payload.push(1);
            wire::write_varint(&mut payload, bytes.len() as u64);
            payload.extend_from_slice(bytes);
        }
        WalRecord::Remove { doc } => {
            payload.push(2);
            write_doc(&mut payload, *doc);
        }
        WalRecord::ApplyBatch { doc, ops } => {
            payload.push(3);
            write_doc(&mut payload, *doc);
            wire::write_ops(&mut payload, ops);
        }
        WalRecord::ApplyMany { jobs } => {
            payload.push(4);
            wire::write_varint(&mut payload, jobs.len() as u64);
            for (doc, ops) in jobs.iter() {
                write_doc(&mut payload, *doc);
                wire::write_ops(&mut payload, ops);
            }
        }
    }
    frame::seal(&payload)
}

/// Decodes one frame payload into `(lsn, entry)`.
fn decode_payload(payload: &[u8]) -> std::result::Result<(u64, WalEntry), String> {
    let mut r = WireReader::new(payload);
    let fail = |e: xmltree::XmlError| e.to_string();
    let version = r.byte().map_err(fail)?;
    if version != WAL_VERSION {
        return Err(format!("unsupported record version {version}"));
    }
    let lsn = r.varint().map_err(fail)?;
    let entry = match r.byte().map_err(fail)? {
        0 => WalEntry::LoadXml {
            tree: r.tree().map_err(fail)?,
        },
        1 => {
            let len = r.varint().map_err(fail)? as usize;
            WalEntry::LoadGrammar {
                bytes: r.bytes(len).map_err(fail)?.to_vec(),
            }
        }
        2 => WalEntry::Remove {
            doc: read_doc(&mut r)?,
        },
        3 => WalEntry::ApplyBatch {
            doc: read_doc(&mut r)?,
            ops: r.ops().map_err(fail)?,
        },
        4 => {
            let count = r.varint().map_err(fail)? as usize;
            let mut jobs = Vec::new();
            for _ in 0..count {
                let doc = read_doc(&mut r)?;
                jobs.push((doc, r.ops().map_err(fail)?));
            }
            WalEntry::ApplyMany { jobs }
        }
        other => return Err(format!("unknown record kind {other}")),
    };
    if !r.finished() {
        return Err("trailing bytes after the record body".to_string());
    }
    Ok((lsn, entry))
}

/// The outcome of scanning a log file (see the module docs for the
/// torn-tail rule).
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Intact records in LSN order, as `(lsn, frame byte offset, entry)`.
    pub records: Vec<(u64, u64, WalEntry)>,
    /// Length in bytes of the valid prefix (everything before the torn
    /// tail, or the whole file when intact).
    pub valid_len: u64,
    /// Whether an incomplete final frame was found (and excluded).
    pub torn: bool,
}

impl WalReplay {
    /// LSN of the last intact record (0 when the log is empty).
    pub fn last_lsn(&self) -> u64 {
        self.records.last().map_or(0, |(lsn, _, _)| *lsn)
    }
}

/// Scans a log file's bytes. Incomplete trailing frames are reported as a
/// torn tail; complete frames failing their CRC / version / LSN-sequence
/// checks yield [`RepairError::WalCorrupt`].
pub fn read_log(bytes: &[u8]) -> Result<WalReplay> {
    let mut replay = WalReplay::default();
    let mut pos = 0usize;
    let mut prev_lsn = 0u64;
    while pos < bytes.len() {
        let corrupt = |detail: String| RepairError::WalCorrupt {
            lsn: prev_lsn,
            offset: pos as u64,
            detail,
        };
        let Some(header) = bytes[pos..].first_chunk::<FRAME_HEADER_LEN>() else {
            replay.torn = true;
            break;
        };
        let body = &bytes[pos + FRAME_HEADER_LEN..];
        let len = frame::payload_len(header) as usize;
        if body.len() < len {
            // The frame's payload never made it to disk: a torn final write.
            replay.torn = true;
            break;
        }
        let payload = &body[..len];
        frame::verify(header, payload).map_err(|e| corrupt(format!("record {e}")))?;
        let (lsn, entry) = decode_payload(payload).map_err(corrupt)?;
        if prev_lsn != 0 && lsn != prev_lsn + 1 {
            return Err(corrupt(format!(
                "record lsn {lsn} breaks the sequence after {prev_lsn}"
            )));
        }
        prev_lsn = lsn;
        let frame_offset = pos as u64;
        pos += FRAME_HEADER_LEN + len;
        replay.valid_len = pos as u64;
        replay.records.push((lsn, frame_offset, entry));
    }
    Ok(replay)
}

// ----- the log writer -----

/// The write-ahead log: sequential LSN assignment, fsync-before-return
/// (see the module docs).
pub struct Wal {
    fs: Arc<dyn StorageFs>,
    path: String,
    /// Serializes appends and truncation. Holds the poison: set once an
    /// append/fsync fails (the tail state on storage is unknown), after
    /// which every later commit fails fast.
    poisoned: Mutex<Option<String>>,
    /// Highest LSN appended *and* fsync'd; written only under `poisoned`,
    /// read lock-free so a stats reader never waits behind an fsync. Its
    /// `Release` store follows the `syncs` increment, so a reader whose
    /// `Acquire` load sees an LSN also sees the fsync that covered it.
    durable_lsn: AtomicU64,
    syncs: AtomicU64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("path", &self.path).finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens a log writer over `path`, continuing after `last_lsn` (0 for a
    /// fresh log). The caller is responsible for having scanned/truncated
    /// the existing file first ([`read_log`]).
    pub fn new(fs: Arc<dyn StorageFs>, path: String, last_lsn: u64) -> Self {
        Wal {
            fs,
            path,
            poisoned: Mutex::new(None),
            durable_lsn: AtomicU64::new(last_lsn),
            syncs: AtomicU64::new(0),
        }
    }

    /// Locks the writer, failing fast once the log is poisoned.
    fn lock(&self) -> Result<MutexGuard<'_, Option<String>>> {
        let guard = self.poisoned.lock().expect("wal lock never poisoned");
        match &*guard {
            Some(detail) => Err(RepairError::Storage { detail: detail.clone() }),
            None => Ok(guard),
        }
    }

    /// Commits one record: assigns it the next LSN, appends its frame and
    /// fsyncs, all under the writer's lock. Returns the record's LSN.
    pub fn commit(&self, record: &WalRecord<'_>) -> Result<u64> {
        let mut poisoned = self.lock()?;
        let lsn = self.durable_lsn.load(Ordering::Acquire) + 1;
        let frame = encode_frame(lsn, record);
        let result = self
            .fs
            .append(&self.path, &frame)
            .and_then(|()| self.fs.sync(&self.path));
        if let Err(e) = result {
            *poisoned = Some(e.to_string());
            return Err(e);
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.durable_lsn.store(lsn, Ordering::Release);
        Ok(lsn)
    }

    /// Number of fsyncs performed so far (one per commit).
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// LSN of the last durably committed record.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn.load(Ordering::Acquire)
    }

    /// Truncates the log only if it is provably covered by a checkpoint
    /// whose base LSN is `lsn`: nothing may have committed since. Returns
    /// whether the truncation happened. A checkpoint encodes its cut
    /// without holding the store's commit order, so a writer may commit
    /// meanwhile; the log then simply survives until the next quiescent
    /// checkpoint — truncation stays an optimization, never a correctness
    /// step. The writer's lock is held across the truncate so no commit
    /// can append between the check and the `set_len`.
    pub fn truncate_if_at(&self, lsn: u64) -> Result<bool> {
        let _guard = self.lock()?;
        if self.durable_lsn() != lsn {
            return Ok(false);
        }
        self.fs.set_len(&self.path, 0)?;
        self.fs.sync(&self.path)?;
        Ok(true)
    }
}

pub mod testing {
    //! Fault injection for the durable layer: an in-memory [`StorageFs`]
    //! that kills the "process" at a configurable point of its I/O stream.
    //!
    //! Fault accounting: appending `n` bytes consumes `n` fault points (and
    //! a kill mid-append leaves the prefix written — exactly a torn write);
    //! `sync`, the rename step of `write_atomic`, and `set_len` consume one
    //! point each (they either happened or didn't). Killing at every point
    //! `k` of a workload's total therefore simulates a crash at every byte
    //! offset and after every sync, which is what the kill-and-recover
    //! differential suite iterates.

    use super::*;
    use std::collections::HashMap;

    #[derive(Debug, Default)]
    struct FailState {
        files: HashMap<String, Vec<u8>>,
        /// Remaining fault points; `None` = no fault armed.
        budget: Option<u64>,
        /// Total points consumed since the last [`FailpointFs::reset_consumed`].
        consumed: u64,
        /// Set once the budget ran out: every later operation fails until
        /// [`FailpointFs::disarm`] (the "process" is dead; the files map is
        /// the disk image the next incarnation recovers from).
        dead: bool,
        syncs: u64,
        /// Artificial latency added to every `sync` — models a slow disk.
        sync_delay: Option<std::time::Duration>,
    }

    /// An in-memory [`StorageFs`] with an armable kill point (see the
    /// module docs for the accounting).
    #[derive(Debug, Default)]
    pub struct FailpointFs {
        state: Mutex<FailState>,
    }

    impl FailpointFs {
        /// A fresh, empty, unarmed filesystem.
        pub fn new() -> Self {
            Self::default()
        }

        /// Arms the kill: the filesystem dies after `points` further fault
        /// points are consumed.
        pub fn arm(&self, points: u64) {
            let mut st = self.state.lock().expect("failpoint lock");
            st.budget = Some(points);
            st.dead = false;
        }

        /// Disarms the kill and revives the filesystem — the files are the
        /// disk image the crash left behind, ready for recovery.
        pub fn disarm(&self) {
            let mut st = self.state.lock().expect("failpoint lock");
            st.budget = None;
            st.dead = false;
        }

        /// Whether the armed kill has fired.
        pub fn is_dead(&self) -> bool {
            self.state.lock().expect("failpoint lock").dead
        }

        /// Total fault points consumed so far — the size of the kill matrix.
        pub fn consumed(&self) -> u64 {
            self.state.lock().expect("failpoint lock").consumed
        }

        /// Resets the consumed-points counter (not the files).
        pub fn reset_consumed(&self) {
            self.state.lock().expect("failpoint lock").consumed = 0;
        }

        /// Number of successful syncs (for fsync-count assertions).
        pub fn sync_count(&self) -> u64 {
            self.state.lock().expect("failpoint lock").syncs
        }

        /// Makes every subsequent `sync` sleep for `delay` first — a slow
        /// fsync, so writes pile up in the ingestion queue behind the
        /// in-flight drain and tests can pin how they group.
        pub fn set_sync_delay(&self, delay: std::time::Duration) {
            self.state.lock().expect("failpoint lock").sync_delay = Some(delay);
        }

        /// Raw content of a file, if present (post-mortem inspection).
        pub fn file(&self, path: &str) -> Option<Vec<u8>> {
            self.state.lock().expect("failpoint lock").files.get(path).cloned()
        }

        /// Overwrites a file's bytes directly — for corruption tests that
        /// flip bits behind the log writer's back.
        pub fn set_file(&self, path: &str, bytes: Vec<u8>) {
            self.state
                .lock()
                .expect("failpoint lock")
                .files
                .insert(path.to_string(), bytes);
        }

        fn dead_err() -> RepairError {
            RepairError::Storage {
                detail: "injected fault: storage is dead".to_string(),
            }
        }

        /// Consumes up to `wanted` points; returns how many were granted.
        /// Granting fewer than `wanted` kills the filesystem.
        fn charge(st: &mut FailState, wanted: u64) -> u64 {
            st.consumed += wanted;
            match st.budget {
                None => wanted,
                Some(left) => {
                    if left >= wanted {
                        st.budget = Some(left - wanted);
                        wanted
                    } else {
                        st.budget = Some(0);
                        st.dead = true;
                        left
                    }
                }
            }
        }
    }

    impl StorageFs for FailpointFs {
        fn append(&self, path: &str, bytes: &[u8]) -> Result<()> {
            let mut st = self.state.lock().expect("failpoint lock");
            if st.dead {
                return Err(Self::dead_err());
            }
            let granted = Self::charge(&mut st, bytes.len() as u64) as usize;
            let dead = st.dead;
            st.files
                .entry(path.to_string())
                .or_default()
                .extend_from_slice(&bytes[..granted]);
            if dead {
                return Err(RepairError::Storage {
                    detail: format!(
                        "injected fault: append died after {granted} of {} bytes",
                        bytes.len()
                    ),
                });
            }
            Ok(())
        }

        fn sync(&self, path: &str) -> Result<()> {
            let delay = self.state.lock().expect("failpoint lock").sync_delay;
            if let Some(delay) = delay {
                // Sleep outside the lock: a slow fsync must not block
                // unrelated file operations, only this sync's caller.
                std::thread::sleep(delay);
            }
            let mut st = self.state.lock().expect("failpoint lock");
            if st.dead {
                return Err(Self::dead_err());
            }
            if Self::charge(&mut st, 1) < 1 {
                return Err(RepairError::Storage {
                    detail: format!("injected fault: sync of `{path}` died"),
                });
            }
            st.syncs += 1;
            Ok(())
        }

        fn read(&self, path: &str) -> Result<Option<Vec<u8>>> {
            let st = self.state.lock().expect("failpoint lock");
            if st.dead {
                return Err(Self::dead_err());
            }
            Ok(st.files.get(path).cloned())
        }

        fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<()> {
            let mut st = self.state.lock().expect("failpoint lock");
            if st.dead {
                return Err(Self::dead_err());
            }
            // The temp-file write: a kill here loses the (invisible) temp
            // file and leaves the destination untouched.
            let granted = Self::charge(&mut st, bytes.len() as u64);
            if (granted as usize) < bytes.len() {
                return Err(RepairError::Storage {
                    detail: "injected fault: atomic write died in the temp file".to_string(),
                });
            }
            // The rename: one point; a kill here also leaves the old file.
            if Self::charge(&mut st, 1) < 1 {
                return Err(RepairError::Storage {
                    detail: "injected fault: atomic write died before the rename".to_string(),
                });
            }
            st.files.insert(path.to_string(), bytes.to_vec());
            Ok(())
        }

        fn set_len(&self, path: &str, len: u64) -> Result<()> {
            let mut st = self.state.lock().expect("failpoint lock");
            if st.dead {
                return Err(Self::dead_err());
            }
            if Self::charge(&mut st, 1) < 1 {
                return Err(RepairError::Storage {
                    detail: format!("injected fault: truncate of `{path}` died"),
                });
            }
            let file = st.files.entry(path.to_string()).or_default();
            file.truncate(len as usize);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::FailpointFs;
    use super::*;
    use sltgrammar::crc32::crc32;
    use xmltree::parse::parse_xml;

    fn sample_entries() -> Vec<Vec<u8>> {
        let tree = parse_xml("<a><b/><c/></a>").unwrap();
        let doc = DocId::from_parts(0, 1);
        let ops = vec![
            UpdateOp::Rename { target: 1, label: "x".into() },
            UpdateOp::Delete { target: 3 },
        ];
        vec![
            encode_frame(1, &WalRecord::LoadXml { tree: &tree }),
            encode_frame(2, &WalRecord::ApplyBatch { doc, ops: &ops }),
            encode_frame(3, &WalRecord::Remove { doc }),
            encode_frame(
                4,
                &WalRecord::ApplyMany {
                    jobs: &[(doc, ops.clone()), (DocId::from_parts(1, 1), vec![])],
                },
            ),
            encode_frame(5, &WalRecord::LoadGrammar { bytes: b"not really a grammar" }),
        ]
    }

    #[test]
    fn frames_roundtrip_through_read_log() {
        let mut log = Vec::new();
        for frame in sample_entries() {
            log.extend_from_slice(&frame);
        }
        let replay = read_log(&log).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.last_lsn(), 5);
        assert!(!replay.torn);
        assert_eq!(replay.valid_len, log.len() as u64);
        assert!(matches!(replay.records[0].2, WalEntry::LoadXml { .. }));
        assert!(matches!(replay.records[1].2, WalEntry::ApplyBatch { ref ops, .. } if ops.len() == 2));
        assert!(matches!(replay.records[2].2, WalEntry::Remove { .. }));
        assert!(matches!(replay.records[3].2, WalEntry::ApplyMany { ref jobs } if jobs.len() == 2));
        assert!(matches!(replay.records[4].2, WalEntry::LoadGrammar { .. }));
        let offsets: Vec<u64> = replay.records.iter().map(|(_, off, _)| *off).collect();
        let mut expected_offset = 0u64;
        for (frame, &offset) in sample_entries().iter().zip(&offsets) {
            assert_eq!(offset, expected_offset);
            expected_offset += frame.len() as u64;
        }
    }

    #[test]
    fn every_torn_tail_is_detected_and_prefix_kept() {
        let frames = sample_entries();
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for frame in &frames {
            log.extend_from_slice(frame);
            boundaries.push(log.len());
        }
        for cut in 0..log.len() {
            let replay = read_log(&log[..cut]).expect("torn tails are not errors");
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(replay.records.len(), complete, "cut at {cut}");
            assert_eq!(replay.torn, !boundaries.contains(&cut), "cut at {cut}");
            assert_eq!(replay.valid_len as usize, boundaries[complete], "cut at {cut}");
        }
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let frames = sample_entries();
        let mut log = Vec::new();
        for frame in &frames {
            log.extend_from_slice(frame);
        }
        // Flip one payload byte of the second frame: its CRC check fires.
        let mut bad = log.clone();
        let offset = frames[0].len() + 10;
        bad[offset] ^= 0x01;
        match read_log(&bad) {
            Err(RepairError::WalCorrupt { lsn, .. }) => assert_eq!(lsn, 1),
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        // A wrong version byte in a mid-log frame is corruption too.
        let mut bad = log.clone();
        let payload_start = frames[0].len() + 8;
        let payload_len = u32::from_le_bytes(
            log[frames[0].len()..frames[0].len() + 4].try_into().unwrap(),
        ) as usize;
        bad[payload_start] = 99;
        let crc = crc32(&bad[payload_start..payload_start + payload_len]);
        bad[frames[0].len() + 4..frames[0].len() + 8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(read_log(&bad), Err(RepairError::WalCorrupt { .. })));
    }

    #[test]
    fn lsn_gaps_are_corruption() {
        let tree = parse_xml("<a/>").unwrap();
        let mut log = Vec::new();
        log.extend_from_slice(&encode_frame(1, &WalRecord::LoadXml { tree: &tree }));
        log.extend_from_slice(&encode_frame(3, &WalRecord::LoadXml { tree: &tree }));
        assert!(matches!(read_log(&log), Err(RepairError::WalCorrupt { lsn: 1, .. })));
    }

    #[test]
    fn commit_assigns_sequential_lsns_and_survives_reads() {
        let fs = Arc::new(FailpointFs::new());
        let wal = Wal::new(fs.clone(), "wal.log".into(), 0);
        let tree = parse_xml("<a><b/></a>").unwrap();
        for expected in 1..=5u64 {
            let lsn = wal.commit(&WalRecord::LoadXml { tree: &tree }).unwrap();
            assert_eq!(lsn, expected);
        }
        assert_eq!(wal.durable_lsn(), 5);
        let bytes = fs.read("wal.log").unwrap().unwrap();
        let replay = read_log(&bytes).unwrap();
        assert_eq!(replay.last_lsn(), 5);
        assert!(!replay.torn);
    }

    #[test]
    fn a_failed_flush_poisons_the_log() {
        let fs = Arc::new(FailpointFs::new());
        let wal = Wal::new(fs.clone(), "wal.log".into(), 0);
        let tree = parse_xml("<a/>").unwrap();
        wal.commit(&WalRecord::LoadXml { tree: &tree }).unwrap();
        fs.arm(2); // dies mid-append of the next frame
        assert!(wal.commit(&WalRecord::LoadXml { tree: &tree }).is_err());
        fs.disarm();
        // Poisoned: even with storage revived, the writer refuses.
        assert!(matches!(
            wal.commit(&WalRecord::LoadXml { tree: &tree }),
            Err(RepairError::Storage { .. })
        ));
        // The on-disk image is a valid prefix plus a torn tail.
        let bytes = fs.file("wal.log").unwrap();
        let replay = read_log(&bytes).unwrap();
        assert_eq!(replay.last_lsn(), 1);
        assert!(replay.torn);
    }

    #[test]
    fn concurrent_commits_get_sequential_lsns_and_one_fsync_each() {
        let fs = Arc::new(FailpointFs::new());
        let wal = Wal::new(fs.clone(), "wal.log".into(), 0);
        let tree = parse_xml("<a><b/><c/></a>").unwrap();
        let threads = 8;
        let commits_per_thread = 16;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (wal, tree) = (&wal, &tree);
                scope.spawn(move || {
                    for _ in 0..commits_per_thread {
                        wal.commit(&WalRecord::LoadXml { tree }).unwrap();
                    }
                });
            }
        });
        let total = (threads * commits_per_thread) as u64;
        assert_eq!(wal.durable_lsn(), total);
        assert_eq!(wal.sync_count(), total, "one fsync per commit");
        // `read_log` rejects any gap or repeat, so `total` intact records
        // ending at `total` are the LSNs 1..=total, one per commit.
        let replay = read_log(&fs.read("wal.log").unwrap().unwrap()).unwrap();
        assert_eq!((replay.records.len() as u64, replay.last_lsn()), (total, total));
        assert!(!replay.torn);
    }
}
