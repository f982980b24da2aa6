//! `DomStore` — the document handle: a concurrent multi-document session
//! with a shared symbol table, snapshot reads, and per-document,
//! debt-triggered recompression.
//!
//! The paper's motivating scenario is a long-lived service that keeps XML
//! documents in memory in compressed form while serving interleaved reads
//! and updates. Documents are loaded into the store, addressed by [`DocId`],
//! and served through one read and update surface — cursors, streaming
//! preorder, path queries, point label reads, update batches; a single
//! document is a store of one.
//! The store is `Send + Sync`: many threads share one `DomStore` (or clones
//! of an `Arc<DomStore>`), reads wait on a writer at most for a pointer
//! swap, and writes to distinct documents proceed in parallel. A write
//! that leaves its document due for recompression runs that recompression
//! itself, before it returns.
//!
//! # Concurrency architecture: shards, snapshots, epochs
//!
//! The store is sharded per document. Each live [`DocId`] resolves (under
//! the document map's read lock, held only to clone one `Arc`) to a
//! `DocShard` holding
//!
//! * the **write state** — the authoritative grammar behind the shard's own
//!   `Mutex`, so writers to *different* documents never contend; and
//! * the **published snapshot** — an `Arc` of (grammar, lazily built
//!   [`NavTables`]) behind an `RwLock<Arc<_>>` publication cell, the
//!   version readers see.
//!
//! **Readers never hold a lock across work.** A read resolves the document
//! map, checks the shard's `clean` flag (atomic load), and loads the
//! published snapshot: each is one read-lock acquire, held only to clone
//! an `Arc`. Writers hold the cell's write lock only to swap the
//! pointer, and drop the old value after releasing it. The read then runs
//! entirely on immutable `Arc`-shared state: the snapshot grammar, its
//! `NavTables` (built on first use through a `OnceLock`), and the sealed
//! symbol segments shared with the master table.
//!
//! **Writers copy on write.** An update locks its shard, mutates the grammar
//! through `Arc::make_mut` — deep-cloning at most once per read→write phase
//! transition, since the published snapshot keeps the old `Arc` alive — and
//! marks the shard dirty. The next reader republishes: if the shard lock is
//! free it publishes the current grammar (an `Arc` clone, not a copy); if a
//! writer is mid-flight it serves the previous published snapshot instead of
//! blocking. Readers therefore observe **snapshot semantics**: every read
//! runs on one internally consistent document version, at least as new as
//! the last completed-and-published write, never a torn intermediate state.
//! A thread that writes and then reads with no concurrent writer always sees
//! its own write (the publish path catches up through the uncontended lock).
//!
//! **Recompression swaps atomically.** A recompression (triggered by a job's
//! debt, forced by [`DomStore::recompress`], or run by [`DomStore::maintain`])
//! recompresses **aside** — on a copy-on-write clone under the shard lock,
//! never touching the published snapshot — and then publishes the result
//! with one atomic swap. In-flight readers finish on the old snapshot `Arc`
//! (which stays fully usable for as long as anyone holds it); subsequent
//! reads get the new one. This is an MVCC-flavored red/green split: the red
//! (write) and green (published) versions share all unchanged structure
//! through `Arc`s and diverge only while a writer is active.
//!
//! Lock discipline, for auditing: the **master symbol table lock** is taken
//! only at load/seal time ([`DomStore::load_xml`] / [`DomStore::load_many`] /
//! [`DomStore::load_grammar`]) and by [`DomStore::symbol_stats`] /
//! [`DomStore::symbols`]; the **map lock** is read to resolve an id and
//! written to insert, remove or materialize a document in place; each
//! **shard lock** serializes writes to one document and the publish of its
//! snapshot; a cell lock is innermost wherever it is taken. **No shard lock
//! is taken while the map lock is held.** std's `RwLock` queues new readers
//! behind a waiting writer, so a scan parked on a busy shard under the map's
//! read guard would stall every read in the store behind the next load.
//! [`DomStore::maintain`] collects its candidates under the read guard (debts
//! are atomics) and drops it before it resolves or recompresses;
//! [`DomStore::symbol_stats`], the checkpoint cut and [`DomStore::clone`]
//! copy the map and walk the copy. Only the checkpoint restore nests two
//! locks: the master lock under the map's write lock. Steady-state reads
//! take only two read locks: the map's and the snapshot cell's.
//!
//! # The live isolation session
//!
//! A point write is navigation by the paper's precomputed `size(A, 0..k)`
//! plus a local splice; the precomputation is meant to be paid once per
//! document, not once per update. A shard's write state is therefore the
//! grammar **and** an `Option<`[`IsolationBatch`]`>` under the one shard
//! mutex. `DomStore::apply_batch_one` — the only writer every layer above
//! funnels into, recovery replay included — takes the session (building it
//! with one size-only pass over the grammar if absent), runs the batch
//! through it ([`crate::update::apply_batch_in`]) and puts it back. The
//! session caches sizes and decides nothing, so the grammar after every call
//! is byte-identical to the sessionless [`crate::update::apply_batch`].
//!
//! The session is only ever **dropped and rebuilt, never repaired**:
//!
//! * recompression drops it (new rules, compacted arenas);
//! * any `Err` from a batch drops it (a failing splice may have
//!   half-reported itself);
//! * [`DomStore::remove`] and [`DomStore::clone`] hand out grammars without
//!   one.
//!
//! It survives the two things that look like foreign mutations but are not:
//! the copy-on-write clone behind `Arc::make_mut` (a cloned grammar keeps
//! every arena node id and every rule id, so the tables describe the copy),
//! and `Grammar::gc` inside a deleting batch (surviving rules are never
//! renumbered; the batch reports the dropped edges itself). So a document
//! pays one cold build per recompression epoch, at its first write.
//!
//! # Shared symbol table
//!
//! Collections of similar documents share most of their label alphabet (the
//! observation behind structural self-indexes over XML collections), so the
//! store owns one **master** [`SymbolTable`] and loads every document
//! against it: the document's labels are interned into the master, the
//! master's tail is sealed into an immutable shared segment
//! ([`SymbolTable::seal`]), and the document's grammar receives a clone that
//! *shares* the segments instead of copying the strings. The invariants:
//!
//! * ids below a table's [`SymbolTable::shared_len`] mean the **same label in
//!   every document** of the store (and in the master) — the property a
//!   cross-document index or query planner needs;
//! * labels interned by later updates (fresh rename labels, fragment labels)
//!   go to the owning document's private local tail and never perturb other
//!   documents — updating document A cannot change document B's
//!   serialization, ids, or cached tables;
//! * one resident copy of the common alphabet serves the whole store: with N
//!   similar documents the per-store label-table footprint is O(alphabet +
//!   Σ private tails) instead of N × O(alphabet) (reported by
//!   [`DomStore::symbol_stats`], which counts each shared segment once no
//!   matter how many write states and published snapshots reference it).
//!
//! Existing grammars join through [`DomStore::load_grammar`], which re-interns
//! their alphabet into the master and relabels the rule bodies
//! ([`sltgrammar::Grammar::relabel_terms`]) — a no-op when the id
//! assignment already agrees.
//!
//! # Generation-tagged document ids
//!
//! Document slots are a slab: [`DomStore::remove`] frees a slot for reuse,
//! and every insertion bumps the slot's generation counter. A [`DocId`]
//! carries both slot and generation, so a stale id held across a
//! remove/insert cycle fails with [`RepairError::NoSuchDocument`] instead of
//! silently addressing whichever document reused the slot (ABA safety —
//! a prerequisite for handing ids to concurrent holders). [`DomStore::maintain`]
//! iterates the live list only, so heavy churn does not grow its scan.
//!
//! # Debt-based recompression, decided per job
//!
//! The store recompresses by **update debt**: per document, the edge-count
//! growth since its last recompression
//! (`debt = edges_now − edges_at_last_recompress`), i.e. exactly the blow-up
//! GrammarRePair exists to undo. The decision belongs to the job that
//! caused it: after a job (one [`DomStore::apply_batch`], or one job of
//! [`DomStore::apply_batch_many`]) that mutated its document — applied ops,
//! or the isolation growth a failing op leaves behind — the document is
//! recompressed, still under its shard lock, iff its own debt reached
//! [`DomStore::debt_threshold`] (`usize::MAX`: never). A request that
//! mutates nothing recompresses nothing, and no request ever recompresses
//! another document.
//!
//! The recompression runs on the job's own thread and finishes before the
//! document's next job, so a document's bytes are a function of its own
//! job sequence: not of how its jobs were grouped into calls, nor of other
//! documents' debt, nor of thread timing. Replaying the same jobs
//! reproduces the same bytes. It holds the document's shard lock while it
//! runs: readers keep the published snapshot, and the document's next
//! write waits.
//!
//! The paper's fixed-interval policy ("recompress every 100 updates") is a
//! caller's loop: count calls and run [`DomStore::recompress`].
//!
//! # Example
//!
//! ```
//! use grammar_repair::store::DomStore;
//! use xmltree::parse::parse_xml;
//! use xmltree::updates::UpdateOp;
//!
//! let store = DomStore::new();
//! let a = store.load_xml(&parse_xml("<log><e/><e/></log>").unwrap()).unwrap();
//! let b = store.load_xml(&parse_xml("<log><e/><e/><e/></log>").unwrap()).unwrap();
//! // One shared alphabet: both documents agree on every load-time id.
//! assert_eq!(
//!     store.grammar(a).unwrap().symbols.get("e"),
//!     store.grammar(b).unwrap().symbols.get("e"),
//! );
//! // Updates address one document and never perturb the others; reads are
//! // `&self` and can run from any thread.
//! store.apply_batch(a, &[UpdateOp::Rename { target: 1, label: "entry".into() }]).unwrap();
//! assert_eq!(store.label_at(a, 1).unwrap(), "entry");
//! assert_eq!(store.query_str(b, "//e").unwrap().len(), 3);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use sltgrammar::crc32::crc32;
use sltgrammar::fingerprint::derived_size;
use sltgrammar::{serialize, Grammar, SymbolTable};
use xmltree::binary::to_binary;
use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

use crate::error::{RepairError, Result};
use crate::navigate::{write_xml, xml_tree, Cursor, NavTables, PreorderLabels};
use crate::query::{PathQuery, QueryMatches};
use crate::repair::{GrammarRePair, RepairStats};
use crate::isolate::IsolationBatch;
use crate::update::{apply_batch_in, mutation_mark, BatchStats};

/// The distinct terminals occurring in `g`'s rule bodies — a document's own
/// alphabet, as opposed to whatever else its symbol table carries.
fn used_terms(g: &Grammar) -> std::collections::HashSet<sltgrammar::TermId> {
    let mut used = std::collections::HashSet::new();
    for nt in g.nonterminals() {
        let rhs = &g.rule(nt).rhs;
        for node in rhs.preorder() {
            if let sltgrammar::NodeKind::Term(t) = rhs.kind(node) {
                used.insert(t);
            }
        }
    }
    used
}

/// The current value of a publication cell: one read-lock acquire, held
/// only for the `Arc` clone.
fn load_cell<T>(cell: &RwLock<Arc<T>>) -> Arc<T> {
    cell.read().expect("cell lock never poisoned").clone()
}

/// Replaces a publication cell's value. The old value is dropped after the
/// write guard is released: it can own a whole grammar and its `NavTables`,
/// and freeing those under the lock would stall readers.
fn store_cell<T>(cell: &RwLock<Arc<T>>, value: Arc<T>) {
    let old = std::mem::replace(&mut *cell.write().expect("cell lock never poisoned"), value);
    drop(old);
}

/// Store-level identifier of a loaded document: a slab slot plus its
/// generation. Slots are reused after [`DomStore::remove`], generations never
/// are, so a stale id fails cleanly with [`RepairError::NoSuchDocument`]
/// instead of aliasing whichever document reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId {
    slot: u32,
    generation: u32,
}

impl DocId {
    /// Slab slot of the document (reused across removals; not unique over
    /// the store's lifetime — the `(slot, generation)` pair is).
    #[inline]
    pub fn slot(self) -> u32 {
        self.slot
    }

    /// Generation of the slot this id was minted at.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Index into the store's slot vector.
    #[inline]
    pub fn index(self) -> usize {
        self.slot as usize
    }

    /// Reassembles an id from its parts — for the durable layer, which logs
    /// and replays `(slot, generation)` pairs. A reassembled id is only as
    /// valid as the pair it was built from; resolution still checks the
    /// generation.
    #[inline]
    pub(crate) fn from_parts(slot: u32, generation: u32) -> Self {
        DocId { slot, generation }
    }
}

/// The debt threshold a new store starts with (see the module docs).
const DEFAULT_DEBT_THRESHOLD: usize = 512;

/// Which documents a call recompressed.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// `(document, recompression stats)`. For the apply calls: the jobs' own
    /// recompressions, in job order. For [`DomStore::maintain`]: in live
    /// order.
    pub drained: Vec<(DocId, RepairStats)>,
}

impl MaintenanceReport {
    /// Whether the call recompressed anything.
    pub fn is_empty(&self) -> bool {
        self.drained.is_empty()
    }
}

/// Resident label-table footprint of a store (estimated heap bytes),
/// separating the shared alphabet from private per-document tails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbolStats {
    /// Bytes of the shared segments, each resident allocation counted once
    /// across the master, every document's write state, and every published
    /// snapshot.
    pub shared_bytes: usize,
    /// Bytes of the private local tails (master + all documents; a published
    /// snapshot lagging behind its write state counts its own tail copy).
    pub private_bytes: usize,
    /// What per-document tables would occupy instead: each document
    /// privately interning exactly the labels its grammar uses (what
    /// compressing it alone, as [`GrammarRePair::compress_xml`] does, builds)
    /// — a conservative baseline, since a real private table would also keep
    /// labels that updates have since removed from the document.
    pub unshared_bytes: usize,
    /// Number of symbols in the master table.
    pub master_symbols: usize,
}

impl SymbolStats {
    /// Actual resident total under sharing.
    pub fn resident_bytes(&self) -> usize {
        self.shared_bytes + self.private_bytes
    }
}

/// The immutable state behind one published document version: the grammar
/// plus its navigation tables, built lazily on first read and shared by
/// every reader of this version from then on.
#[derive(Debug)]
struct SnapshotInner {
    grammar: Arc<Grammar>,
    nav: OnceLock<Arc<NavTables>>,
}

impl SnapshotInner {
    fn of(grammar: Arc<Grammar>) -> Arc<Self> {
        Arc::new(SnapshotInner {
            grammar,
            nav: OnceLock::new(),
        })
    }
}

/// An owned, immutable view of one document version.
///
/// A snapshot is what the store's read path hands out: it stays
/// fully readable — cursors, preorder streaming, queries, point reads — for
/// as long as the handle lives, unaffected by concurrent updates or
/// recompressions of the document (which publish *new* snapshots instead of
/// touching this one). Cloning is an `Arc` clone.
#[derive(Debug, Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotInner>,
}

impl Snapshot {
    /// The snapshot's grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.inner.grammar
    }

    /// The snapshot's grammar as an owned `Arc` (cheap; shares the data).
    pub fn grammar_arc(&self) -> Arc<Grammar> {
        self.inner.grammar.clone()
    }

    /// The snapshot's [`NavTables`], built on first use and shared (same
    /// `Arc`) by every subsequent read of this snapshot.
    pub fn nav_tables(&self) -> Arc<NavTables> {
        self.inner
            .nav
            .get_or_init(|| Arc::new(NavTables::build(&self.inner.grammar)))
            .clone()
    }

    /// A navigation cursor at the document root.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor::with_tables(&self.inner.grammar, self.nav_tables())
    }

    /// A streaming preorder label iterator over the snapshot.
    pub fn preorder_labels(&self) -> PreorderLabels<'_> {
        PreorderLabels::with_tables(&self.inner.grammar, self.nav_tables())
    }

    /// Number of nodes of the snapshot's (uncompressed) binary tree.
    pub fn derived_size(&self) -> u128 {
        derived_size(&self.inner.grammar)
    }

    /// Label of the node at `preorder_index` of the snapshot's binary tree.
    pub fn label_at(&self, preorder_index: u128) -> Result<String> {
        let mut cursor = self.cursor();
        if cursor.node_at_preorder(preorder_index) {
            return Ok(cursor.label().to_string());
        }
        Err(RepairError::TargetOutOfRange {
            index: preorder_index,
            size: self.derived_size(),
        })
    }

    /// Materializes a path query against the snapshot through the memoized,
    /// output-sensitive evaluator.
    pub fn query(&self, query: &PathQuery) -> QueryMatches {
        query.evaluate_with_tables(&self.inner.grammar, &self.nav_tables())
    }

    /// Counts the matches of a path query without materializing them.
    pub fn query_count(&self, query: &PathQuery) -> u128 {
        query.count(&self.inner.grammar)
    }

    /// Builds the snapshot's document as an [`XmlTree`], walking the cached
    /// tables ([`navigate::xml_tree`](crate::navigate::xml_tree)).
    pub fn to_xml(&self) -> Result<XmlTree> {
        xml_tree(&self.inner.grammar, &self.nav_tables())
    }

    /// Serializes the snapshot's document to XML text, walking the cached
    /// tables ([`write_xml`]). Fails with [`RepairError::OutputTooLarge`]
    /// once the text would exceed `budget` bytes.
    pub fn xml_text(&self, budget: usize) -> Result<String> {
        let mut text = String::new();
        write_xml(&self.inner.grammar, &self.nav_tables(), budget, &mut text)?;
        Ok(text)
    }
}

/// What a shard's lock guards: the authoritative grammar and the live
/// isolation session that describes it (see "The live isolation session" in
/// the module docs).
#[derive(Debug)]
struct WriteState {
    /// The authoritative grammar. `Arc::make_mut` gives writers copy-on-write
    /// against the published snapshot: the deep clone happens at most once
    /// per read→write phase transition, in-place mutation otherwise.
    grammar: Arc<Grammar>,
    /// The size tables of `grammar`, kept from the last successful batch.
    /// `None` until the first write, and again after anything but
    /// [`DomStore::apply_batch_one`] touched the grammar.
    session: Option<IsolationBatch>,
}

/// One document of the store: write state behind the shard's own lock,
/// published snapshot behind a publication cell (see the module docs).
#[derive(Debug)]
struct DocShard {
    write: Mutex<WriteState>,
    published: RwLock<Arc<SnapshotInner>>,
    /// Whether `published` reflects the write state. Cleared by writers,
    /// set by the (lazy) publish and by recompression's eager publish.
    clean: AtomicBool,
    /// Edge count right after the last recompression (or load) — the debt
    /// baseline.
    baseline_edges: AtomicUsize,
    /// Cached current edge count, maintained from update statistics so debt
    /// checks never walk the grammar.
    current_edges: AtomicUsize,
    total_updates: AtomicUsize,
    recompressions: AtomicUsize,
}

impl DocShard {
    fn new(grammar: Grammar) -> Self {
        let edges = grammar.edge_count();
        let grammar = Arc::new(grammar);
        DocShard {
            published: RwLock::new(SnapshotInner::of(grammar.clone())),
            write: Mutex::new(WriteState {
                grammar,
                session: None,
            }),
            clean: AtomicBool::new(true),
            baseline_edges: AtomicUsize::new(edges),
            current_edges: AtomicUsize::new(edges),
            total_updates: AtomicUsize::new(0),
            recompressions: AtomicUsize::new(0),
        }
    }

    /// The authoritative grammar (an `Arc` clone taken under the shard lock).
    fn grammar(&self) -> Arc<Grammar> {
        self.write
            .lock()
            .expect("shard lock never poisoned")
            .grammar
            .clone()
    }

    /// A deep-ish copy for [`DomStore::clone`]: shares the grammar `Arc`
    /// (copy-on-write protects both sides), copies the counters. The copy
    /// starts without a session and builds its own on its first write.
    fn duplicate(&self) -> Self {
        let grammar = self.grammar();
        DocShard {
            published: RwLock::new(SnapshotInner::of(grammar.clone())),
            write: Mutex::new(WriteState {
                grammar,
                session: None,
            }),
            clean: AtomicBool::new(true),
            baseline_edges: AtomicUsize::new(self.baseline_edges.load(Ordering::Relaxed)),
            current_edges: AtomicUsize::new(self.current_edges.load(Ordering::Relaxed)),
            total_updates: AtomicUsize::new(self.total_updates.load(Ordering::Relaxed)),
            recompressions: AtomicUsize::new(self.recompressions.load(Ordering::Relaxed)),
        }
    }

    fn debt(&self) -> usize {
        self.current_edges
            .load(Ordering::Relaxed)
            .saturating_sub(self.baseline_edges.load(Ordering::Relaxed))
    }

    /// The read path. Steady state (`clean`): an atomic load and one cell
    /// load. After a write: republish through the uncontended shard lock,
    /// or — if a writer holds it right now — serve the previous published
    /// snapshot rather than block (snapshot semantics; see the module docs).
    fn snapshot(&self) -> Snapshot {
        if self.clean.load(Ordering::Acquire) {
            return Snapshot {
                inner: load_cell(&self.published),
            };
        }
        match self.write.try_lock() {
            Ok(guard) => {
                let inner = SnapshotInner::of(guard.grammar.clone());
                store_cell(&self.published, inner.clone());
                self.clean.store(true, Ordering::Release);
                drop(guard);
                Snapshot { inner }
            }
            Err(_) => Snapshot {
                inner: load_cell(&self.published),
            },
        }
    }

    /// Publishes the current write state while already holding the shard
    /// lock — the atomic snapshot swap after a recompression.
    fn publish_locked(&self, grammar: &Arc<Grammar>) {
        store_cell(&self.published, SnapshotInner::of(grammar.clone()));
        self.clean.store(true, Ordering::Release);
    }
}

/// A checkpointed document not yet decoded: the raw shared-alphabet payload
/// ([`sltgrammar::serialize::encode_with_shared`]) a lazy restore installs,
/// decoded on first touch. The CRC comes from the checkpoint's extent table
/// and is verified at materialization time, not at open — the trade-off
/// that keeps cold start O(open) (see the layout docs in `core::wal`).
#[derive(Debug)]
pub(crate) struct PendingDoc {
    bytes: Vec<u8>,
    crc: u32,
}

/// One slab slot: its current generation plus the shard, if live — or the
/// undecoded checkpoint payload of a lazily restored document.
#[derive(Debug, Clone, Default)]
struct Slot {
    generation: u32,
    shard: Option<Arc<DocShard>>,
    pending: Option<Arc<PendingDoc>>,
}

/// The document map readers resolve through. Writers mutate it in place
/// under the map's write lock (see the lock discipline in the module docs).
#[derive(Debug, Clone, Default)]
struct DocMap {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Live ids in insertion order — what `doc_ids` reports and what
    /// maintenance sweeps iterate (dead slots are never scanned).
    live: Vec<DocId>,
}

impl DocMap {
    fn get(&self, doc: DocId) -> Option<&Arc<DocShard>> {
        let slot = self.slots.get(doc.index())?;
        if slot.generation != doc.generation {
            return None;
        }
        slot.shard.as_ref()
    }
}

/// Private helpers (see the module docs for the lock discipline).
impl DomStore {
    /// The document map's read guard. Hold it only to copy out of the map:
    /// never across a shard lock (see the module docs).
    fn map(&self) -> RwLockReadGuard<'_, DocMap> {
        self.map.read().expect("map lock never poisoned")
    }

    fn map_mut(&self) -> RwLockWriteGuard<'_, DocMap> {
        self.map.write().expect("map lock never poisoned")
    }

    fn resolve(&self, doc: DocId) -> Result<Arc<DocShard>> {
        let pending = {
            let map = self.map();
            let slot = map
                .slots
                .get(doc.index())
                .filter(|slot| slot.generation == doc.generation)
                .ok_or(RepairError::NoSuchDocument { id: doc.slot })?;
            if let Some(shard) = &slot.shard {
                return Ok(shard.clone());
            }
            slot.pending.clone().ok_or(RepairError::NoSuchDocument { id: doc.slot })?
        };
        self.materialize(doc, pending)
    }

    /// Decodes a lazily restored document and swaps its shard into the map —
    /// the first-touch half of the O(open) restore. The CRC check and decode
    /// run outside every lock: racing materializers decode the same bytes
    /// against the same frozen shared prefix and agree; one installs its
    /// shard, the rest adopt the winner's.
    fn materialize(&self, doc: DocId, pending: Arc<PendingDoc>) -> Result<Arc<DocShard>> {
        let found = crc32(&pending.bytes);
        if found != pending.crc {
            return Err(RepairError::Storage {
                detail: format!(
                    "checkpoint corrupt: document payload (slot {}, generation {}) fails \
                     its CRC (expected {:08x}, found {found:08x})",
                    doc.slot, doc.generation, pending.crc
                ),
            });
        }
        let master = self.symbols.lock().expect("master lock never poisoned").clone();
        let grammar =
            serialize::decode_with_shared(&pending.bytes, &master).map_err(|e| {
                RepairError::Storage {
                    detail: format!(
                        "checkpoint corrupt: document (slot {}, generation {}): {e}",
                        doc.slot, doc.generation
                    ),
                }
            })?;
        let shard = Arc::new(DocShard::new(grammar));
        let mut map = self.map_mut();
        let slot = map
            .slots
            .get_mut(doc.index())
            .filter(|slot| slot.generation == doc.generation)
            .ok_or(RepairError::NoSuchDocument { id: doc.slot })?;
        if let Some(existing) = &slot.shard {
            // Lost the materialization race; the winner's shard is canonical.
            return Ok(existing.clone());
        }
        if slot.pending.is_none() {
            // Removed since the pending payload was read: its slot is free.
            return Err(RepairError::NoSuchDocument { id: doc.slot });
        }
        slot.pending = None;
        slot.shard = Some(shard.clone());
        Ok(shard)
    }

    /// Interns `xml`'s alphabet into the master under the master lock and
    /// returns a sealed table clone for the document. The expensive
    /// compression runs *outside* the lock on that clone — concurrent loads
    /// only serialize on this (cheap) walk, which also keeps id assignment
    /// identical to fully sequential loads.
    fn intern_labels(&self, xml: &XmlTree) -> Result<SymbolTable> {
        let mut master = self.symbols.lock().expect("master lock never poisoned");
        // Intern into a scratch clone and commit only on success: a rank
        // conflict partway through the document must not leave its earlier
        // labels behind in the master (the clone shares the sealed segments,
        // so this copies at most the usually-empty local tail).
        let mut scratch = master.clone();
        to_binary(xml, &mut scratch)?;
        scratch.seal();
        *master = scratch.clone();
        Ok(scratch)
    }

    /// Re-interns the labels `grammar`'s rule bodies actually use into the
    /// master table (committing only on success), relabels the bodies when
    /// the id assignment differs, and replaces the grammar's table with a
    /// sealed master clone — the shared-alphabet rebase behind
    /// [`DomStore::load_grammar`] and checkpoint restoration.
    fn rebase_onto_master(&self, grammar: &mut Grammar) -> Result<()> {
        let used = used_terms(grammar);
        let mut master = self.symbols.lock().expect("master lock");
        // Intern into a scratch clone first: interning keeps the symbols
        // added before a rank conflict, and a half-absorbed foreign
        // alphabet must not poison the master on failure.
        let mut scratch = master.clone();
        let mut map = Vec::with_capacity(grammar.symbols.len());
        for (id, name, rank) in grammar.symbols.iter() {
            // Unused ids keep themselves as placeholders: they never
            // occur in a body, so `relabel_terms` never reads them, and
            // an all-identity map still short-circuits the relabel walk.
            map.push(if used.contains(&id) {
                scratch.intern(name, rank)?
            } else {
                id
            });
        }
        scratch.seal();
        *master = scratch.clone();
        drop(master);
        grammar.relabel_terms(&map);
        grammar.symbols = scratch;
        Ok(())
    }

    /// Adds a compressed grammar to the slab: the last step of every load,
    /// and the one [`crate::durable`] runs under its commit order after
    /// [`DomStore::compress_for_load`].
    pub(crate) fn insert_loaded(&self, grammar: Grammar) -> DocId {
        let shard = Arc::new(DocShard::new(grammar));
        let mut map = self.map_mut();
        let slot = map.free.pop().unwrap_or_else(|| {
            map.slots.push(Slot::default());
            (map.slots.len() - 1) as u32
        });
        let entry = &mut map.slots[slot as usize];
        entry.generation += 1;
        entry.shard = Some(shard);
        let id = DocId {
            slot,
            generation: entry.generation,
        };
        map.live.push(id);
        id
    }

    /// Applies one job under the shard lock and does the shard's whole
    /// post-update bookkeeping, ending with the job's own recompression (see
    /// the module docs). What a call costs follows from what it did to the
    /// grammar, not from how it ended: a job that left the grammar untouched
    /// (empty, stale id, rejected before anything was isolated) keeps the
    /// published snapshot clean and recompresses nothing; any mutation —
    /// applied ops, or the isolation growth a splice-time failure leaves
    /// behind — dirties the snapshot and is tracked as debt. Returns the
    /// recompression's stats if the job ran one.
    fn apply_batch_one(
        &self,
        doc: DocId,
        ops: &[UpdateOp],
    ) -> (Result<BatchStats>, Option<RepairStats>) {
        let shard = match self.resolve(doc) {
            Ok(shard) => shard,
            Err(e) => return (Err(e), None),
        };
        let mut guard = shard.write.lock().expect("shard lock never poisoned");
        let state = &mut *guard;
        // The copy-on-write clone (if a snapshot shares the grammar) keeps
        // every node and rule id, so a session taken before it stays valid.
        let grammar = Arc::make_mut(&mut state.grammar);
        let before = mutation_mark(grammar);
        let mut session = state
            .session
            .take()
            .unwrap_or_else(|| IsolationBatch::new(grammar));
        let result = apply_batch_in(&mut session, grammar, ops);
        // A failed batch may have half-reported a splice: its session is
        // dropped and the next write rebuilds one.
        state.session = result.is_ok().then_some(session);
        let mutated = mutation_mark(grammar) != before;
        if mutated {
            let edges = match &result {
                Ok(stats) => stats.edges_after,
                Err(_) => grammar.edge_count(),
            };
            shard.current_edges.store(edges, Ordering::Relaxed);
            shard.clean.store(false, Ordering::Release);
        }
        if result.is_ok() {
            shard.total_updates.fetch_add(ops.len(), Ordering::Relaxed);
        }
        if !mutated || !self.due(&shard) {
            return (result, None);
        }
        (result, Some(self.recompress_locked(&shard, state)))
    }

    /// Whether `shard`'s debt has reached the threshold (taken as at least
    /// 1: a document without debt is never due).
    fn due(&self, shard: &DocShard) -> bool {
        shard.debt() >= self.debt_threshold.load(Ordering::Relaxed).max(1)
    }

    /// Recompresses `shard`'s write state, whose lock the caller holds, and
    /// publishes the result.
    fn recompress_locked(&self, shard: &DocShard, state: &mut WriteState) -> RepairStats {
        // Recompress aside: `make_mut` clones iff a published snapshot (or
        // other reader) still shares this grammar, so in-flight readers keep
        // their version while the recompressor works on the copy.
        // New rules, compacted arenas: nothing the session knew survives.
        state.session = None;
        let stats = self.repair.recompress(Arc::make_mut(&mut state.grammar));
        shard.current_edges.store(stats.output_edges, Ordering::Relaxed);
        shard.baseline_edges.store(stats.output_edges, Ordering::Relaxed);
        shard.recompressions.fetch_add(1, Ordering::Relaxed);
        // The atomic swap: publish the recompressed grammar; readers holding
        // the old snapshot finish on it undisturbed.
        shard.publish_locked(&state.grammar);
        stats
    }
}

/// How many OS threads a parallel multi-document operation fans out over.
fn pool_size(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    jobs.min(cores).clamp(1, 8)
}

/// Runs `work(i)` for every `i < jobs` on a small scoped worker pool,
/// collecting results in index order. Serial when the pool would be size 1.
fn fan_out<T: Send>(jobs: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = pool_size(jobs);
    if workers <= 1 {
        return (0..jobs).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let out = work(i);
                *results[i].lock().expect("result slot never poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot never poisoned")
                .expect("every job index is visited exactly once")
        })
        .collect()
}

/// A concurrent multi-document session: many compressed documents behind one
/// shared symbol table, each recompressed when its own debt calls for it (see
/// the module docs).
///
/// `DomStore` is `Send + Sync`; share it across threads directly or behind an
/// `Arc`. Reads ([`DomStore::snapshot`] and everything built on it) are
/// `&self` and wait on a writer at most for a pointer swap; writes to
/// distinct documents run in parallel.
#[derive(Debug)]
pub struct DomStore {
    symbols: Mutex<SymbolTable>,
    map: RwLock<DocMap>,
    repair: GrammarRePair,
    /// A document is due for recompression once its debt reaches this.
    debt_threshold: AtomicUsize,
}

// Compile-time guarantee: the store and its snapshots cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DomStore>();
    assert_send_sync::<Snapshot>();
};

impl Default for DomStore {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for DomStore {
    /// Clones the store's *contents*: the copy shares grammar data
    /// structurally (copy-on-write, so writes to either side never show in
    /// the other) but has its own locks, debt threshold, and document map,
    /// with every [`DocId`] preserved. It is the cheap way to a fresh copy
    /// of a loaded store, with no document recompressed: the store benches
    /// clone one per iteration so every iteration writes to the same
    /// starting state.
    fn clone(&self) -> Self {
        let master = self.symbols.lock().expect("master lock").clone();
        // Duplicating a shard takes its lock: walk a copy of the map.
        let src = self.map().clone();
        let slots = src
            .slots
            .iter()
            .map(|slot| Slot {
                generation: slot.generation,
                shard: slot.shard.as_ref().map(|s| Arc::new(s.duplicate())),
                // Undecoded payloads are immutable; the clone shares them.
                pending: slot.pending.clone(),
            })
            .collect();
        let map = DocMap {
            slots,
            free: src.free,
            live: src.live,
        };
        DomStore {
            symbols: Mutex::new(master),
            map: RwLock::new(map),
            repair: self.repair.clone(),
            debt_threshold: AtomicUsize::new(self.debt_threshold()),
        }
    }
}

impl DomStore {
    /// Creates an empty store with the default debt threshold (512 edges).
    pub fn new() -> Self {
        DomStore {
            symbols: Mutex::new(SymbolTable::new()),
            map: RwLock::new(DocMap::default()),
            repair: GrammarRePair::default(),
            debt_threshold: AtomicUsize::new(DEFAULT_DEBT_THRESHOLD),
        }
    }

    /// Uses a custom debt threshold (see [`DomStore::set_debt_threshold`]).
    pub fn with_debt_threshold(self, edges: usize) -> Self {
        self.set_debt_threshold(edges);
        self
    }

    /// The debt (edges) at which a job's document is due for recompression.
    pub fn debt_threshold(&self) -> usize {
        self.debt_threshold.load(Ordering::Relaxed)
    }

    /// Sets the debt threshold. It is taken as at least 1, since a document
    /// without debt is never due; `usize::MAX` leaves every document to
    /// [`DomStore::recompress`].
    pub fn set_debt_threshold(&self, edges: usize) {
        self.debt_threshold.store(edges, Ordering::Relaxed);
    }

    // ----- loading and membership -----

    /// Compresses `xml` against the shared symbol table and adds it to the
    /// store. The document's load-time alphabet is interned into the master
    /// table and sealed, so similar documents share one resident alphabet.
    /// Only the (cheap) interning holds the master lock; compression runs
    /// on the sealed clone, so concurrent loads overlap.
    ///
    /// Fails (without adding the document or touching the master table) when
    /// a label clashes with a different rank already interned in the store.
    pub fn load_xml(&self, xml: &XmlTree) -> Result<DocId> {
        Ok(self.insert_loaded(self.compress_for_load(xml)?))
    }

    /// [`DomStore::load_xml`] short of adding the document: interns the
    /// alphabet into the master and compresses. The durable layer logs the
    /// load between this and [`DomStore::insert_loaded`], so compression
    /// stays outside its commit order.
    pub(crate) fn compress_for_load(&self, xml: &XmlTree) -> Result<Grammar> {
        let mut table = self.intern_labels(xml)?;
        Ok(self.repair.compress_xml_shared(xml, &mut table)?.0)
    }

    /// Loads many documents, compressing them in parallel on a small worker
    /// pool. Ids, shared-alphabet assignment, and the resulting grammars are
    /// identical to loading the same sequence one [`DomStore::load_xml`] at a
    /// time: alphabets are interned serially (in order) first, then the
    /// per-document compressions — independent by construction — fan out.
    ///
    /// On error no document is added; alphabets of documents interned before
    /// the failing one remain in the master (harmless: unused shared labels).
    pub fn load_many(&self, xmls: &[XmlTree]) -> Result<Vec<DocId>> {
        let mut tables = Vec::with_capacity(xmls.len());
        for xml in xmls {
            tables.push(self.intern_labels(xml)?);
        }
        let grammars = fan_out(xmls.len(), |i| {
            let mut table = tables[i].clone();
            self.repair
                .compress_xml_shared(&xmls[i], &mut table)
                .map(|(grammar, _)| grammar)
        });
        let mut ids = Vec::with_capacity(xmls.len());
        for grammar in grammars {
            ids.push(self.insert_loaded(grammar?));
        }
        Ok(ids)
    }

    /// Adds an already-compressed grammar to the store, rebasing it onto the
    /// shared symbol table: its alphabet is re-interned into the master,
    /// its rule bodies are relabelled when the id assignment differs, and
    /// its table is replaced by a clone of the master's — after which the
    /// invariants of the module docs hold for it like for any loaded
    /// document.
    ///
    /// Only labels the grammar's rule bodies actually use are interned —
    /// stale entries in the foreign table (e.g. labels renamed away before
    /// the grammar left another store) neither join the shared alphabet nor
    /// cause spurious rank conflicts. Fails (without adding the document or
    /// touching the master table) when a *used* label clashes with a
    /// different rank already interned in the store.
    pub fn load_grammar(&self, mut grammar: Grammar) -> Result<DocId> {
        self.rebase_onto_master(&mut grammar)?;
        Ok(self.insert_loaded(grammar))
    }

    /// Removes a document and returns its grammar (with its private table).
    /// The slot becomes reusable; the removed [`DocId`] never resolves again
    /// (generation tagging). Operations racing with the removal either
    /// resolve the shard first and complete against the document's final
    /// state (which this call may then return without them) or fail with
    /// [`RepairError::NoSuchDocument`].
    pub fn remove(&self, doc: DocId) -> Result<Grammar> {
        // A lazily restored document is decoded first: the call returns the
        // grammar, and a corrupt payload must surface as the typed decode
        // error here rather than as a bogus `NoSuchDocument`.
        self.resolve(doc)?;
        let shard = {
            let mut map = self.map_mut();
            let entry = map
                .slots
                .get_mut(doc.index())
                .filter(|slot| slot.generation == doc.generation)
                .and_then(|slot| {
                    slot.pending = None;
                    slot.shard.take()
                })
                .ok_or(RepairError::NoSuchDocument { id: doc.slot })?;
            map.free.push(doc.slot);
            map.live.retain(|&id| id != doc);
            entry
        };
        // Unwrap as far as sharing allows; clone only if snapshots of the
        // final state are still held elsewhere.
        let grammar = match Arc::try_unwrap(shard) {
            Ok(shard) => {
                let state = shard.write.into_inner().expect("shard lock never poisoned");
                drop(shard.published); // releases the snapshot's grammar ref
                state.grammar
            }
            Err(shard) => shard.grammar(),
        };
        Ok(Arc::try_unwrap(grammar).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Whether `doc` names a live document (including one still in
    /// undecoded, lazily restored form).
    pub fn contains(&self, doc: DocId) -> bool {
        self.map().slots.get(doc.index()).is_some_and(|slot| {
            slot.generation == doc.generation
                && (slot.shard.is_some() || slot.pending.is_some())
        })
    }

    /// Ids of all live documents, in insertion order.
    pub fn doc_ids(&self) -> Vec<DocId> {
        self.map().live.clone()
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.map().live.len()
    }

    /// Whether the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ----- shared-table introspection -----

    /// The master symbol table (a clone sharing the sealed segments — cheap).
    pub fn symbols(&self) -> SymbolTable {
        self.symbols.lock().expect("master lock").clone()
    }

    /// Resident label-table footprint of the store, deduplicating shared
    /// segments across the master, every document's write state, and every
    /// published snapshot (see [`SymbolStats`]) — a segment referenced from
    /// N snapshots still counts once. It walks a copy of the document map,
    /// so waiting on a busy shard blocks no other caller.
    pub fn symbol_stats(&self) -> SymbolStats {
        let mut seen = std::collections::HashSet::new();
        let mut stats = SymbolStats::default();
        let mut visit = |table: &SymbolTable, stats: &mut SymbolStats| {
            for (key, bytes) in table.shared_segments() {
                if seen.insert(key) {
                    stats.shared_bytes += bytes;
                }
            }
            stats.private_bytes += table.local_heap_bytes();
        };
        {
            let master = self.symbols.lock().expect("master lock");
            stats.master_symbols = master.len();
            visit(&master, &mut stats);
        }
        // Reading a write state takes its shard lock: walk a copy of the map.
        let map = self.map().clone();
        for &id in &map.live {
            let Some(shard) = map.get(id) else { continue };
            let write = shard.grammar();
            visit(&write.symbols, &mut stats);
            // Per-document baseline: only the labels this grammar uses.
            stats.unshared_bytes += used_terms(&write)
                .into_iter()
                .map(|t| write.symbols.symbol_heap_bytes(t))
                .sum::<usize>();
            // A published snapshot lagging behind the write state holds its
            // own table object: shared segments dedup through `seen`, a
            // diverged local tail is honestly a second resident copy.
            let published = load_cell(&shard.published);
            if !Arc::ptr_eq(&published.grammar, &write) {
                visit(&published.grammar.symbols, &mut stats);
            }
        }
        stats
    }

    // ----- per-document read surface -----

    /// The current published [`Snapshot`] of a document — the entry point of
    /// the read path; every other read method is sugar over it.
    /// The snapshot stays valid (and immutable) for as long as it is held,
    /// across concurrent updates, recompressions, and removal.
    pub fn snapshot(&self, doc: DocId) -> Result<Snapshot> {
        Ok(self.resolve(doc)?.snapshot())
    }

    /// A document's current grammar (an `Arc` into the published snapshot).
    pub fn grammar(&self, doc: DocId) -> Result<Arc<Grammar>> {
        Ok(self.snapshot(doc)?.grammar_arc())
    }

    /// Current grammar size in edges (the paper's size measure).
    pub fn edge_count(&self, doc: DocId) -> Result<usize> {
        Ok(self.resolve(doc)?.current_edges.load(Ordering::Relaxed))
    }

    /// Number of nodes of the document's (uncompressed) binary tree.
    pub fn derived_size(&self, doc: DocId) -> Result<u128> {
        Ok(self.snapshot(doc)?.derived_size())
    }

    /// Update debt of a document: edge growth since its last recompression.
    pub fn debt(&self, doc: DocId) -> Result<usize> {
        Ok(self.resolve(doc)?.debt())
    }

    /// Number of updates applied to a document so far.
    pub fn total_updates(&self, doc: DocId) -> Result<usize> {
        Ok(self.resolve(doc)?.total_updates.load(Ordering::Relaxed))
    }

    /// Number of recompressions of a document so far (triggered by a job, run by [`DomStore::maintain`], or forced).
    pub fn recompressions(&self, doc: DocId) -> Result<usize> {
        Ok(self.resolve(doc)?.recompressions.load(Ordering::Relaxed))
    }

    /// The shared [`NavTables`] of a document's published snapshot — built
    /// on first use, then the same `Arc` for every read until the next
    /// mutation publishes a new snapshot.
    pub fn nav_tables(&self, doc: DocId) -> Result<Arc<NavTables>> {
        Ok(self.snapshot(doc)?.nav_tables())
    }

    /// Label of the node at `preorder_index` of a document's binary tree — a
    /// read-only positional jump through the snapshot tables. (For cursors
    /// and streaming iterators, which borrow their snapshot, take a
    /// [`DomStore::snapshot`] and use [`Snapshot::cursor`] /
    /// [`Snapshot::preorder_labels`].)
    pub fn label_at(&self, doc: DocId, preorder_index: u128) -> Result<String> {
        self.snapshot(doc)?.label_at(preorder_index)
    }

    /// Materializes a path query against a document through the memoized,
    /// output-sensitive evaluator over the snapshot tables.
    pub fn query(&self, doc: DocId, query: &PathQuery) -> Result<QueryMatches> {
        Ok(self.snapshot(doc)?.query(query))
    }

    /// Parses and materializes a path query in one call.
    pub fn query_str(&self, doc: DocId, query: &str) -> Result<QueryMatches> {
        self.query(doc, &PathQuery::parse(query)?)
    }

    /// Counts the matches of a path query without materializing them.
    pub fn query_count(&self, doc: DocId, query: &PathQuery) -> Result<u128> {
        Ok(self.snapshot(doc)?.query_count(query))
    }

    /// Builds a document as an [`XmlTree`] (see [`Snapshot::to_xml`]).
    pub fn to_xml(&self, doc: DocId) -> Result<XmlTree> {
        self.snapshot(doc)?.to_xml()
    }

    /// Serializes a document to XML text within `budget` bytes (see
    /// [`Snapshot::xml_text`]).
    pub fn xml_text(&self, doc: DocId, budget: usize) -> Result<String> {
        self.snapshot(doc)?.xml_text(budget)
    }

    // ----- updates and recompression -----

    /// Applies an operation sequence to a document one op at a time through
    /// the document's isolation session (see [`crate::update`]), then
    /// recompresses the document on the calling thread if this job left it
    /// due (see the module docs); the report lists that recompression. This
    /// is the store's only write entry point: a single op is the batch
    /// `std::slice::from_ref(&op)`.
    ///
    /// A batch that leaves the grammar untouched — empty, or failing at its
    /// first op before anything was isolated (see
    /// [`crate::update::apply_batch`]) — costs nothing: the published
    /// snapshot stays current and nothing is recompressed. On any other
    /// error the document reflects every op before the failing one, plus the
    /// failing op's isolation growth, which is tracked as debt, so failing
    /// updates cannot starve recompression. A recompression triggered by a
    /// *failing* batch has no channel back to the caller (`Err` carries no
    /// report); callers counting recompressions exactly should observe
    /// [`DomStore::recompressions`] instead.
    pub fn apply_batch(
        &self,
        doc: DocId,
        ops: &[UpdateOp],
    ) -> Result<(BatchStats, MaintenanceReport)> {
        let (result, recompressed) = self.apply_batch_one(doc, ops);
        let drained = recompressed.map(|stats| (doc, stats)).into_iter().collect();
        result.map(|stats| (stats, MaintenanceReport { drained }))
    }

    /// Applies a list of per-document batches over a small worker pool —
    /// the fan-out counterpart of [`DomStore::apply_batch`] for
    /// cross-document write workloads. Jobs addressing *distinct* documents
    /// run concurrently on their own shards; a document's jobs apply in
    /// job order on one worker, each with its own outcome and its own
    /// recompression trigger, so the result is that of applying the jobs
    /// one [`DomStore::apply_batch`] at a time.
    ///
    /// Returns per-job results in job order, plus the jobs' recompressions
    /// (failed jobs' included) in job order.
    pub fn apply_batch_many(
        &self,
        jobs: &[(DocId, Vec<UpdateOp>)],
    ) -> (Vec<Result<BatchStats>>, MaintenanceReport) {
        // One group per document, in first-job order.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<DocId, usize> = HashMap::new();
        for (i, (doc, _)) in jobs.iter().enumerate() {
            let g = *group_of.entry(*doc).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }
        let mut outcomes: Vec<_> = fan_out(groups.len(), |g| {
            groups[g]
                .iter()
                .map(|&i| (i, self.apply_batch_one(jobs[i].0, &jobs[i].1)))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        outcomes.sort_unstable_by_key(|&(i, _)| i);
        let mut report = MaintenanceReport::default();
        let results = outcomes
            .into_iter()
            .map(|(i, (result, recompressed))| {
                report.drained.extend(recompressed.map(|stats| (jobs[i].0, stats)));
                result
            })
            .collect();
        (results, report)
    }

    /// Recompresses every document whose debt is at or over the threshold,
    /// in live order, and returns what it recompressed (possibly nothing).
    /// Every job recompresses its own document once it is due, so only a
    /// [`DomStore::set_debt_threshold`] that lowers the threshold leaves
    /// documents due for this to find; otherwise it is a scan of the live
    /// list that finds nothing (the benchmark's tracer times exactly that).
    /// Safe to call from any thread; each recompression runs aside and
    /// swaps the document's snapshot atomically.
    pub fn maintain(&self) -> MaintenanceReport {
        // Debts are atomics: the scan takes no shard lock, and the guard is
        // gone before anything below resolves or recompresses.
        let due: Vec<DocId> = {
            let map = self.map();
            map.live
                .iter()
                .copied()
                .filter(|&id| map.get(id).is_some_and(|shard| self.due(shard)))
                .collect()
        };
        let mut report = MaintenanceReport::default();
        for id in due {
            // Re-resolve and re-check under the lock: the document may have
            // been removed, or recompressed by its own job, since the scan.
            let Ok(shard) = self.resolve(id) else { continue };
            let mut guard = shard.write.lock().expect("shard lock never poisoned");
            if self.due(&shard) {
                report.drained.push((id, self.recompress_locked(&shard, &mut guard)));
            }
        }
        report
    }

    /// Forces a recompression of one document, resetting its debt baseline.
    /// The recompression runs aside on the shard (readers stay on the old
    /// snapshot) and publishes with one atomic swap.
    pub fn recompress(&self, doc: DocId) -> Result<RepairStats> {
        let shard = self.resolve(doc)?;
        let mut guard = shard.write.lock().expect("shard lock never poisoned");
        Ok(self.recompress_locked(&shard, &mut guard))
    }


    /// Test seam: runs `inspect` on a document's authoritative write state —
    /// the grammar and the live isolation session, if one is kept — under
    /// the shard lock, without publishing a snapshot (so the next write does
    /// not copy). The differential suites use it to compare the write-state
    /// bytes against a sessionless twin and to run
    /// [`IsolationBatch::assert_matches_rebuild`] after every call.
    #[doc(hidden)]
    pub fn inspect_write_state<R>(
        &self,
        doc: DocId,
        inspect: impl FnOnce(&Grammar, Option<&IsolationBatch>) -> R,
    ) -> Result<R> {
        let shard = self.resolve(doc)?;
        let guard = shard.write.lock().expect("shard lock never poisoned");
        Ok(inspect(&guard.grammar, guard.session.as_ref()))
    }

    // ----- slab capture/restore (the durable layer's checkpoint seam) -----

    /// A checkpoint cut, read from one map snapshot: the slab layout —
    /// per-slot generations, the free list, the live list — and, per live
    /// document, its undecoded payload or its authoritative grammar. Only
    /// pointers are copied; [`CutDoc::encode`] does the work later, off
    /// every lock. Restoring the exact layout (and then replaying the logged
    /// lifecycle events in order) makes [`DocId`] assignment after recovery
    /// identical to the original run.
    pub(crate) fn checkpoint_cut(&self) -> (SlabLayout, Vec<(DocId, CutDoc)>) {
        // Reading a write state takes its shard lock: walk a copy of the map.
        let map = self.map().clone();
        let docs = map
            .live
            .iter()
            .map(|&id| {
                let slot = &map.slots[id.index()];
                let doc = match (&slot.shard, &slot.pending) {
                    (Some(shard), _) => CutDoc::Live(shard.grammar()),
                    (None, Some(pending)) => CutDoc::Pending(pending.clone()),
                    (None, None) => unreachable!("a live slot holds a shard or a payload"),
                };
                (id, doc)
            })
            .collect();
        let layout = SlabLayout {
            generations: map.slots.iter().map(|slot| slot.generation).collect(),
            free: map.free.clone(),
            live: map.live.clone(),
        };
        (layout, docs)
    }

    /// Rebuilds an **empty** store from a checkpoint-v3 image: the master
    /// symbol table is adopted wholesale from its sealed segment runs (no
    /// per-symbol re-intern, segment boundaries intact) and every document
    /// is installed as an undecoded pending payload `(bytes, crc)` at its
    /// recorded `(slot, generation)`, decoded lazily on first touch — so
    /// the restore itself is O(image), not O(decode + rebase) over the
    /// fleet.
    pub(crate) fn restore_slab_lazy(
        &self,
        layout: SlabLayout,
        segments: Vec<(Vec<String>, Vec<usize>)>,
        docs: Vec<(DocId, Vec<u8>, u32)>,
    ) -> Result<()> {
        let mut map = self.map_mut();
        if !map.live.is_empty() {
            return Err(RepairError::Storage {
                detail: "checkpoint restore requires an empty store".to_string(),
            });
        }
        let master =
            SymbolTable::from_sealed_segments(segments).map_err(|e| RepairError::Storage {
                detail: format!("checkpoint corrupt: symbol table image: {e}"),
            })?;
        *self.symbols.lock().expect("master lock never poisoned") = master;
        let mut slots: Vec<Slot> = layout
            .generations
            .iter()
            .map(|&generation| Slot {
                generation,
                shard: None,
                pending: None,
            })
            .collect();
        for (id, bytes, crc) in docs {
            let slot = slots.get_mut(id.index()).ok_or(RepairError::Storage {
                detail: format!("checkpoint document slot {} exceeds the slab", id.slot),
            })?;
            if slot.generation != id.generation || slot.pending.is_some() {
                return Err(RepairError::Storage {
                    detail: format!(
                        "checkpoint document (slot {}, generation {}) conflicts with the slab layout",
                        id.slot, id.generation
                    ),
                });
            }
            slot.pending = Some(Arc::new(PendingDoc { bytes, crc }));
        }
        for &id in &layout.live {
            let ok = slots
                .get(id.index())
                .is_some_and(|slot| slot.generation == id.generation && slot.pending.is_some());
            if !ok {
                return Err(RepairError::Storage {
                    detail: format!("checkpoint live document (slot {}) has no payload", id.slot),
                });
            }
        }
        *map = DocMap {
            slots,
            free: layout.free,
            live: layout.live,
        };
        Ok(())
    }

    /// The master symbol table's sealed segment runs — the checkpoint-v3
    /// symbol image adopted wholesale on restore. The master is always
    /// fully sealed (loads commit sealed scratch tables), so the runs
    /// cover every shared id any document references.
    pub(crate) fn symbol_image(&self) -> Vec<(Vec<String>, Vec<usize>)> {
        let master = self.symbols.lock().expect("master lock never poisoned");
        debug_assert_eq!(master.shared_len(), master.len(), "master is always sealed");
        master
            .sealed_segment_runs()
            .map(|(names, ranks)| (names.to_vec(), ranks.to_vec()))
            .collect()
    }

    /// Number of documents still in undecoded, lazily restored form.
    pub(crate) fn pending_count(&self) -> usize {
        self.map().slots.iter().filter(|slot| slot.pending.is_some()).count()
    }
}

/// One live document in a checkpoint cut ([`DomStore::checkpoint_cut`]).
pub(crate) enum CutDoc {
    /// A lazily restored document, never decoded since.
    Pending(Arc<PendingDoc>),
    /// A materialized document's authoritative grammar; copy-on-write keeps
    /// it immutable while the cut holds it.
    Live(Arc<Grammar>),
}

impl CutDoc {
    /// The checkpoint-v3 extent payload, with its CRC: a pending document's
    /// stored bytes verbatim (never decoded just to be re-encoded), a live
    /// grammar serialized. Consumes the cut's reference, so a writer to
    /// this document pays no copy-on-write clone once it is encoded.
    pub(crate) fn encode(self) -> (Vec<u8>, u32) {
        match self {
            CutDoc::Pending(pending) => (pending.bytes.clone(), pending.crc),
            CutDoc::Live(grammar) => {
                let bytes = serialize::encode_with_shared(&grammar);
                let crc = crc32(&bytes);
                (bytes, crc)
            }
        }
    }
}

/// Snapshot of the document slab's layout (see [`DomStore::checkpoint_cut`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct SlabLayout {
    /// Per-slot generation counters, in slot order.
    pub generations: Vec<u32>,
    /// Free slots, in stack order (the next insertion pops the last).
    pub free: Vec<u32>,
    /// Live ids, in insertion order.
    pub live: Vec<DocId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use xmltree::parse::parse_xml;

    fn doc(tag: &str, n: usize) -> XmlTree {
        let mut s = format!("<{tag}>");
        for _ in 0..n {
            s.push_str("<item><title/><body><p/><p/></body></item>");
        }
        s.push_str(&format!("</{tag}>"));
        parse_xml(&s).unwrap()
    }

    /// Preorder indices (in the binary tree) of all element nodes of `xml`.
    fn element_positions(xml: &XmlTree) -> Vec<usize> {
        let mut symbols = SymbolTable::new();
        let bin = xmltree::binary::to_binary(xml, &mut symbols).unwrap();
        bin.preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| {
                matches!(bin.kind(n), sltgrammar::NodeKind::Term(t) if !symbols.is_null(t))
            })
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn loading_shares_the_alphabet_and_round_trips() {
        let store = DomStore::new();
        let a = store.load_xml(&doc("feed", 6)).unwrap();
        let b = store.load_xml(&doc("feed", 9)).unwrap();
        let c = store.load_xml(&doc("blog", 4)).unwrap();
        assert_eq!(store.len(), 3);
        for (id, xml) in [(a, doc("feed", 6)), (b, doc("feed", 9)), (c, doc("blog", 4))] {
            assert_eq!(store.to_xml(id).unwrap().to_xml(), xml.to_xml());
        }
        let stats = store.symbol_stats();
        assert!(
            stats.resident_bytes() < stats.unshared_bytes,
            "sharing must beat per-document tables: {stats:?}"
        );
        // All load-time labels are shared; nothing is private yet.
        assert_eq!(stats.private_bytes, 0);
    }

    #[test]
    fn load_many_matches_sequential_loads_exactly() {
        let xmls = vec![doc("feed", 6), doc("blog", 4), doc("feed", 9), doc("log", 5)];
        let parallel = DomStore::new();
        let par_ids = parallel.load_many(&xmls).unwrap();
        let sequential = DomStore::new();
        let seq_ids: Vec<DocId> = xmls.iter().map(|x| sequential.load_xml(x).unwrap()).collect();
        assert_eq!(par_ids, seq_ids, "id assignment must match sequential loads");
        assert_eq!(parallel.symbols().len(), sequential.symbols().len());
        for (&p, &s) in par_ids.iter().zip(&seq_ids) {
            assert_eq!(
                parallel.to_xml(p).unwrap().to_xml(),
                sequential.to_xml(s).unwrap().to_xml()
            );
            assert_eq!(
                parallel.edge_count(p).unwrap(),
                sequential.edge_count(s).unwrap(),
                "parallel compression must produce the sequential grammar"
            );
        }
        // Shared ids agree between the two stores (same interning order).
        for name in ["feed", "item", "title", "#"] {
            assert_eq!(parallel.symbols().get(name), sequential.symbols().get(name));
        }
    }

    #[test]
    fn shared_ids_agree_across_documents() {
        let store = DomStore::new();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let b = store.load_xml(&doc("feed", 5)).unwrap();
        let ga = store.grammar(a).unwrap();
        let gb = store.grammar(b).unwrap();
        for name in ["feed", "item", "title", "body", "p", "#"] {
            let ia = ga.symbols.get(name).expect("label interned");
            assert_eq!(Some(ia), gb.symbols.get(name), "id of `{name}` must agree");
            assert_eq!(Some(ia), store.symbols().get(name));
        }
    }

    #[test]
    fn reads_resolve_through_one_published_snapshot() {
        let store = DomStore::new();
        let a = store.load_xml(&doc("feed", 5)).unwrap();
        let t1 = store.nav_tables(a).unwrap();
        let t2 = store.nav_tables(a).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        let snap = store.snapshot(a).unwrap();
        assert_eq!(snap.cursor().label(), "feed");
        assert_eq!(store.label_at(a, 1).unwrap(), "item");
        let last = store.derived_size(a).unwrap() - 1;
        assert_eq!(store.label_at(a, last).unwrap(), "#");
        assert_eq!(store.query_str(a, "//item").unwrap().len(), 5);
        let q = PathQuery::parse("//item/title").unwrap();
        assert_eq!(
            store.query(a, &q).unwrap().len() as u128,
            store.query_count(a, &q).unwrap()
        );
        let labels: usize = snap.preorder_labels().count();
        assert_eq!(labels as u128, store.derived_size(a).unwrap());
        // Reads never invalidate the snapshot.
        let t3 = store.nav_tables(a).unwrap();
        assert!(Arc::ptr_eq(&t1, &t3));
    }

    #[test]
    fn held_snapshots_survive_updates_and_recompression() {
        let store = DomStore::new();
        let xml = doc("feed", 6);
        let elements = element_positions(&xml);
        let a = store.load_xml(&xml).unwrap();
        let old = store.snapshot(a).unwrap();
        let old_xml = old.to_xml().unwrap().to_xml();
        let old_tables = old.nav_tables();

        store
            .apply_batch(a, &[UpdateOp::Rename { target: elements[1], label: "renamed".into() }])
            .unwrap();
        store.recompress(a).unwrap();

        // The held snapshot is bit-for-bit the pre-update document…
        assert_eq!(old.to_xml().unwrap().to_xml(), old_xml);
        assert!(Arc::ptr_eq(&old.nav_tables(), &old_tables));
        // …while fresh reads see the new version through a new snapshot.
        let new = store.snapshot(a).unwrap();
        assert!(!Arc::ptr_eq(&old.grammar_arc(), &new.grammar_arc()));
        assert_eq!(new.label_at(elements[1] as u128).unwrap(), "renamed");
    }

    #[test]
    fn cached_nav_tables_survive_reads_and_refresh_after_mutations() {
        let xml = doc("feed", 8);
        let elements = element_positions(&xml);
        let store = unswept_store();
        let a = store.load_xml(&xml).unwrap();

        // Repeated reads share one snapshot.
        let t1 = store.nav_tables(a).unwrap();
        assert_eq!(store.snapshot(a).unwrap().cursor().label(), "feed");
        let q = PathQuery::parse("//item/title").unwrap();
        assert_eq!(store.query(a, &q).unwrap().len() as u128, store.query_count(a, &q).unwrap());
        assert_eq!(store.query_str(a, "//item").unwrap().len(), 8);
        assert!(Arc::ptr_eq(&t1, &store.nav_tables(a).unwrap()), "reads share the tables");

        // A write publishes new tables on the next read…
        store
            .apply_batch(a, &[UpdateOp::Rename { target: elements[1], label: "entry".into() }])
            .unwrap();
        let t2 = store.nav_tables(a).unwrap();
        assert!(!Arc::ptr_eq(&t1, &t2), "a write must replace the tables");
        assert_eq!(store.query_str(a, "//entry").unwrap().len(), 1);

        // …and so does a recompression.
        store.recompress(a).unwrap();
        let t3 = store.nav_tables(a).unwrap();
        assert!(!Arc::ptr_eq(&t2, &t3), "a recompression must replace the tables");
        assert_eq!(store.query_str(a, "//entry").unwrap().len(), 1);
        let snap = store.snapshot(a).unwrap();
        assert_eq!(snap.preorder_labels().count() as u128, snap.derived_size());
    }

    #[test]
    fn batched_and_sequential_paths_produce_the_same_document() {
        let xml = doc("feed", 12);
        let elements = element_positions(&xml);
        let ops: Vec<UpdateOp> = (0..8)
            .map(|i| UpdateOp::Rename {
                target: elements[3 * i + 1],
                label: format!("tag{i}"),
            })
            .collect();
        // A low threshold: recompressions fire between the single ops.
        let store = DomStore::new().with_debt_threshold(16);
        let sequential = store.load_xml(&xml).unwrap();
        let batched = store.load_xml(&xml).unwrap();
        for op in &ops {
            store.apply_batch(sequential, std::slice::from_ref(op)).unwrap();
        }
        store.apply_batch(batched, &ops).unwrap();
        assert!(store.recompressions(sequential).unwrap() >= 1);
        assert_eq!(
            store.to_xml(batched).unwrap().to_xml(),
            store.to_xml(sequential).unwrap().to_xml()
        );
    }

    #[test]
    fn apply_batch_many_applies_a_documents_jobs_in_job_order() {
        let rename = |target, label: &str| UpdateOp::Rename { target, label: label.into() };
        let out_of_range = UpdateOp::Delete { target: 1 << 40 };
        let insert = UpdateOp::InsertBefore {
            target: 5,
            fragment: parse_xml("<ad/>").unwrap(),
        };
        // Three documents, a's jobs interleaved with the others', two
        // failing jobs (one after an applied prefix), and a later job of
        // each failing document that must still apply.
        let jobs_at = |[a, b, c]: [DocId; 3]| -> Vec<(DocId, Vec<UpdateOp>)> {
            vec![
                (a, vec![rename(1, "a1")]),
                (b, vec![rename(1, "b1")]),
                (a, vec![insert.clone(), rename(2, "a2")]),
                (c, vec![rename(1, "c1")]),
                (a, vec![out_of_range.clone()]),
                (b, vec![rename(2, "b2"), out_of_range.clone()]),
                (a, vec![rename(2, "a3")]),
                (b, vec![rename(5, "b3")]),
            ]
        };
        let loaded = || {
            let store = unswept_store();
            let ids = [doc("feed", 3), doc("blog", 3), doc("log", 2)]
                .map(|x| store.load_xml(&x).unwrap());
            (store, ids)
        };
        let bytes = |store: &DomStore, ids: [DocId; 3]| {
            ids.map(|id| serialize::encode(&store.grammar(id).unwrap()))
        };

        let (twin, twin_ids) = loaded();
        let want: Vec<Result<BatchStats>> = jobs_at(twin_ids)
            .iter()
            .map(|(doc, ops)| twin.apply_batch(*doc, ops).map(|(stats, _)| stats))
            .collect();
        assert_eq!(want.iter().filter(|r| r.is_err()).count(), 2);
        let want_bytes = bytes(&twin, twin_ids);

        // Repeat to shake the fan-out schedule.
        for round in 0..20 {
            let (store, ids) = loaded();
            let (results, _) = store.apply_batch_many(&jobs_at(ids));
            assert_eq!(results, want, "round {round}: per-job results");
            assert_eq!(bytes(&store, ids), want_bytes, "round {round}: grammars");
        }
    }

    /// A store whose writes never recompress: debt builds up until a test
    /// lowers the threshold and calls `maintain` itself.
    fn unswept_store() -> DomStore {
        DomStore::new().with_debt_threshold(usize::MAX)
    }

    #[test]
    fn updates_accrue_debt_and_maintain_drains_the_due_documents() {
        let store = unswept_store();
        let hot_xml = doc("feed", 10);
        let elements = element_positions(&hot_xml);
        let hot = store.load_xml(&hot_xml).unwrap();
        let cold = store.load_xml(&doc("blog", 10)).unwrap();
        assert_eq!(store.debt(hot).unwrap(), 0);
        for i in 0..6 {
            store
                .apply_batch(
                    hot,
                    &[UpdateOp::Rename {
                        target: elements[3 * i + 1],
                        label: format!("hot{i}"),
                    }],
                )
                .unwrap();
        }
        assert!(store.debt(hot).unwrap() >= 10, "renames blow the grammar up");
        assert_eq!(store.debt(cold).unwrap(), 0);
        assert_eq!(store.recompressions(hot).unwrap(), 0, "no recompression at usize::MAX");
        store.set_debt_threshold(10);
        let report = store.maintain();
        assert_eq!(report.drained.len(), 1);
        assert_eq!(report.drained[0].0, hot);
        assert_eq!(store.debt(hot).unwrap(), 0);
        assert_eq!(store.recompressions(hot).unwrap(), 1);
        assert_eq!(store.recompressions(cold).unwrap(), 0, "cold docs are left alone");
        // Nothing due → nothing recompressed.
        assert!(store.maintain().is_empty());
    }

    #[test]
    fn auto_maintenance_runs_after_updates_and_batches() {
        let store = DomStore::new().with_debt_threshold(8);
        let xml = doc("feed", 12);
        let elements = element_positions(&xml);
        let a = store.load_xml(&xml).unwrap();
        let mut drained = 0;
        for i in 0..20 {
            let (_, report) = store
                .apply_batch(
                    a,
                    &[UpdateOp::Rename {
                        target: elements[2 * (i % 8) + 1],
                        label: format!("x{i}"),
                    }],
                )
                .unwrap();
            drained += report.drained.len();
        }
        assert!(drained >= 1, "jobs must recompress once debt builds");
        assert_eq!(store.recompressions(a).unwrap(), drained);
        store.grammar(a).unwrap().validate().unwrap();
        // The cached edge count the debt policy runs on stays exact.
        assert_eq!(
            store.edge_count(a).unwrap(),
            store.grammar(a).unwrap().edge_count()
        );
    }

    #[test]
    fn removed_documents_fail_cleanly_and_ids_are_not_reused() {
        let store = DomStore::new();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let g = store.remove(a).unwrap();
        g.validate().unwrap();
        assert!(!store.contains(a));
        assert!(matches!(
            store.label_at(a, 0),
            Err(RepairError::NoSuchDocument { .. })
        ));
        assert!(matches!(store.remove(a), Err(RepairError::NoSuchDocument { .. })));
        let b = store.load_xml(&doc("blog", 3)).unwrap();
        assert_ne!(a, b, "ids are never reused");
        assert_eq!(store.doc_ids(), vec![b]);
    }

    #[test]
    fn generation_tags_make_stale_ids_aba_safe_under_slot_reuse() {
        let store = DomStore::new();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        store.remove(a).unwrap();
        let b = store.load_xml(&doc("blog", 3)).unwrap();
        // The slot is reused, the id is not: the stale id must NOT address b.
        assert_eq!(a.slot(), b.slot(), "the slab must reuse the freed slot");
        assert!(a.generation() < b.generation());
        assert!(matches!(
            store.query_str(a, "//item"),
            Err(RepairError::NoSuchDocument { .. })
        ));
        assert_eq!(store.label_at(b, 0).unwrap(), "blog");
        // Churn: repeated remove/load cycles keep the slot vector bounded
        // and `maintain` only visits live documents.
        for i in 0..10 {
            let id = store.load_xml(&doc("churn", 2 + i % 3)).unwrap();
            store.remove(id).unwrap();
        }
        assert_eq!(store.len(), 1);
        assert_eq!(store.doc_ids(), vec![b]);
        assert!(store.maintain().is_empty());
        assert!(
            self::DomStore::new().map().slots.is_empty(),
            "sanity: fresh stores start with no slots"
        );
        assert!(
            store.map().slots.len() <= 2,
            "freed slots must be reused, not appended"
        );
    }

    #[test]
    fn published_snapshots_do_not_inflate_resident_bytes() {
        let store = DomStore::new();
        let xml = doc("feed", 6);
        let elements = element_positions(&xml);
        let a = store.load_xml(&xml).unwrap();
        let b = store.load_xml(&doc("blog", 4)).unwrap();
        let baseline = store.symbol_stats();

        // Hold several published snapshots and diverge the write state from
        // the published one: the sealed segments are now referenced from the
        // master, two write grammars, and the held snapshots — and must
        // still count once.
        let snap_a1 = store.snapshot(a).unwrap();
        let snap_b = store.snapshot(b).unwrap();
        store
            .apply_batch(a, &[UpdateOp::Rename { target: elements[1], label: "zzz_private".into() }])
            .unwrap();
        let snap_a2 = store.snapshot(a).unwrap();
        let stats = store.symbol_stats();
        assert_eq!(
            stats.shared_bytes, baseline.shared_bytes,
            "shared segments must count once across all snapshots: {stats:?}"
        );
        // The rename interned a private label: only tail bytes may grow.
        assert!(stats.private_bytes > baseline.private_bytes);
        drop((snap_a1, snap_a2, snap_b));
    }

    #[test]
    fn cloned_stores_are_independent() {
        let store = DomStore::new();
        let xml = doc("feed", 5);
        let elements = element_positions(&xml);
        let a = store.load_xml(&xml).unwrap();
        let before = store.to_xml(a).unwrap().to_xml();
        let copy = store.clone();
        assert_eq!(copy.to_xml(a).unwrap().to_xml(), before, "ids survive cloning");
        copy.apply_batch(a, &[UpdateOp::Rename { target: elements[1], label: "only_copy".into() }])
            .unwrap();
        assert_eq!(store.to_xml(a).unwrap().to_xml(), before, "copy-on-write isolation");
        assert_ne!(copy.to_xml(a).unwrap().to_xml(), before);
    }

    #[test]
    fn a_scan_waiting_on_a_busy_shard_blocks_no_load_and_no_read() {
        use std::sync::mpsc::channel;
        let store = DomStore::new();
        let a = store.load_xml(&doc("feed", 4)).unwrap();
        let b = store.load_xml(&doc("blog", 4)).unwrap();
        let store = &store;
        let (held_tx, held_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                store
                    .inspect_write_state(a, |_, _| {
                        held_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                    })
                    .unwrap();
            });
            held_rx.recv().unwrap();
            // A scan that parks on A's shard, then a load that needs the
            // map's write lock, then reads of B. The sleeps only give each
            // call time to block; they cannot make a correct store fail.
            scope.spawn(move || store.symbol_stats());
            std::thread::sleep(Duration::from_millis(50));
            let loaded = done_tx.clone();
            scope.spawn(move || loaded.send(store.load_xml(&doc("log", 3)).is_ok()).unwrap());
            std::thread::sleep(Duration::from_millis(50));
            scope.spawn(move || {
                let read = store.snapshot(b).is_ok() && store.label_at(b, 1).is_ok();
                done_tx.send(read).unwrap();
            });
            let wait = Duration::from_secs(10);
            let done: Vec<bool> = (0..2).map_while(|_| done_rx.recv_timeout(wait).ok()).collect();
            // Release A before asserting, so a failure cannot hang the scope.
            release_tx.send(()).unwrap();
            assert_eq!(done, [true, true], "the load and the reads finish while A is held");
        });
    }

    #[test]
    fn a_document_pays_one_cold_build_per_recompression_epoch() {
        let builds = || crate::isolate::COLD_BUILDS.with(|c| c.get());
        let store = unswept_store();
        let xml = doc("feed", 8);
        let elements = element_positions(&xml);
        let a = store.load_xml(&xml).unwrap();
        let b = store.load_xml(&xml).unwrap();
        let rename = |k: usize| UpdateOp::Rename {
            target: elements[1 + k % (elements.len() - 1)],
            label: format!("fresh_{k}"),
        };
        let start = builds();
        for k in 0..6 {
            store.apply_batch(a, &[rename(k)]).unwrap();
            store.apply_batch(b, &[rename(k), rename(k + 7)]).unwrap();
            // A read publishes the write state: the next write copies the
            // grammar, and the session carries over to the copy.
            store.snapshot(a).unwrap();
        }
        assert_eq!(builds() - start, 2, "one build per document, not per call");

        store.recompress(a).unwrap();
        for k in 6..9 {
            store.apply_batch(a, &[rename(k)]).unwrap();
            store.apply_batch(b, &[rename(k)]).unwrap();
        }
        assert_eq!(builds() - start, 3, "recompression starts a new epoch for `a` only");

        // A failed batch — rejected before isolation or after it — drops the
        // session; the next write builds a fresh one.
        let null_label = UpdateOp::Rename { target: 1, label: "#".into() };
        assert!(store.apply_batch(b, std::slice::from_ref(&null_label)).is_err());
        assert_eq!(builds() - start, 3, "a kept session serves the failing call");
        store.apply_batch(b, &[rename(9)]).unwrap();
        assert_eq!(builds() - start, 4, "fresh build after an Err");
        store.apply_batch(b, &[rename(10)]).unwrap();
        assert_eq!(builds() - start, 4);

        // A cloned store shares grammars, not sessions.
        let copy = store.clone();
        copy.apply_batch(a, &[rename(11)]).unwrap();
        store.apply_batch(a, &[rename(11)]).unwrap();
        assert_eq!(builds() - start, 5, "the clone builds its own; the original keeps its");
    }

    #[test]
    fn failed_load_grammar_leaves_the_master_table_untouched() {
        use sltgrammar::text::parse_grammar;
        let store = DomStore::new();
        store.load_xml(&doc("feed", 3)).unwrap();
        let symbols_before = store.symbols().len();
        // A foreign monadic grammar: `fresh` (rank 1) absorbs fine before
        // `item` conflicts with the store's rank-2 interning — the failed
        // load must not leave `fresh` (or anything else) behind.
        let foreign = parse_grammar("S -> fresh(item(#))").unwrap();
        assert!(store.load_grammar(foreign).is_err());
        assert_eq!(store.len(), 1);
        assert_eq!(store.symbols().len(), symbols_before);
        assert!(store.symbols().get("fresh").is_none(), "no partial absorb");
        // The store still loads ordinary documents using the same labels.
        store.load_xml(&doc("feed", 2)).unwrap();
    }

    #[test]
    fn failed_load_xml_leaves_the_master_table_untouched() {
        use sltgrammar::text::parse_grammar;
        let store = DomStore::new();
        // A monadic grammar interns `item` at rank 1 into the store.
        store.load_grammar(parse_grammar("S -> item(#)").unwrap()).unwrap();
        let symbols_before = store.symbols().len();
        // Loading XML that uses <item> (rank 2) fails — and must not leave
        // the document's *other* labels behind in the master.
        let xml = parse_xml("<feed><item/><other/></feed>").unwrap();
        assert!(store.load_xml(&xml).is_err());
        assert_eq!(store.len(), 1);
        assert_eq!(store.symbols().len(), symbols_before);
        assert!(store.symbols().get("feed").is_none(), "no partial intern");
        assert_eq!(store.symbol_stats().private_bytes, 0);
    }

    #[test]
    fn load_grammar_ignores_unused_foreign_labels() {
        // The foreign table carries a stale `item` at rank 1 that no rule
        // body uses; it must neither conflict with the store's rank-2 `item`
        // nor join the shared alphabet.
        let store = DomStore::new();
        store.load_xml(&doc("feed", 3)).unwrap();
        let mut foreign_symbols = SymbolTable::new();
        foreign_symbols.intern("item", 1).unwrap();
        let xml = parse_xml("<other><x/></other>").unwrap();
        let bin = xmltree::binary::to_binary(&xml, &mut foreign_symbols).unwrap();
        let foreign = sltgrammar::Grammar::new(foreign_symbols, bin);
        let id = store.load_grammar(foreign).unwrap();
        assert_eq!(store.to_xml(id).unwrap().to_xml(), xml.to_xml());
        assert_eq!(
            store.symbols().rank(store.symbols().get("item").unwrap()),
            2,
            "the store-wide `item` keeps its XML rank"
        );
        assert_eq!(store.query_str(id, "//x").unwrap().len(), 1);
    }

    #[test]
    fn load_grammar_rebases_foreign_alphabets() {
        // A grammar compressed privately (its own table, different id order)
        // joins the store and keeps serializing identically.
        let store = DomStore::new();
        store.load_xml(&doc("feed", 4)).unwrap();
        let xml = parse_xml("<other><title/><feed/><zzz/></other>").unwrap();
        let (foreign, _) = GrammarRePair::default().compress_xml(&xml);
        let id = store.load_grammar(foreign).unwrap();
        assert_eq!(store.to_xml(id).unwrap().to_xml(), xml.to_xml());
        // Rebased labels share the store-wide ids.
        let g = store.grammar(id).unwrap();
        assert_eq!(g.symbols.get("title"), store.symbols().get("title"));
        assert_eq!(store.query_str(id, "//zzz").unwrap().len(), 1);
    }
}
