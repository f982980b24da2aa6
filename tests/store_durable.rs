//! Kill-and-recover differential suite for the durable [`DurableStore`].
//!
//! The durable layer promises that a crash at *any* instant loses at most
//! the in-flight operation: after recovery the store is byte-identical (per
//! document, via `to_xml`) to an uninterrupted oracle that executed exactly
//! the committed prefix of the same workload. These tests script a mixed
//! workload (loads, update batches, removals, slot reuse, checkpoints) over
//! the fault-injecting [`FailpointFs`], kill the "process" at every fault
//! point — every byte offset of every write, after every fsync, around the
//! checkpoint rename — recover from the surviving disk image, and compare
//! against the oracle replay. In debug builds the kill matrix is strided to
//! keep `cargo test` quick; CI runs the full matrix in release.

use std::sync::Arc;

use proptest::prelude::*;
use slt_xml::datasets::workload::{random_update_sequence, WorkloadMix};
use slt_xml::grammar_repair::wal::testing::FailpointFs;
use slt_xml::grammar_repair::RepairError;
use slt_xml::xmltree::parse::parse_xml;
use slt_xml::xmltree::updates::UpdateOp;
use slt_xml::xmltree::XmlTree;
use slt_xml::{DocId, DomStore, DurableStore, IngestQueue};

/// Structurally different documents over overlapping alphabets.
fn corpus() -> Vec<XmlTree> {
    let mut feed = String::from("<feed>");
    for _ in 0..6 {
        feed.push_str("<item><title/><body><p/><p/></body></item>");
    }
    feed.push_str("</feed>");
    let mut blog = String::from("<blog>");
    for _ in 0..5 {
        blog.push_str("<post><title/><body><p/></body><comments><c/></comments></post>");
    }
    blog.push_str("</blog>");
    let mut log = String::from("<log>");
    for _ in 0..6 {
        log.push_str("<entry><ts/><message/><level/></entry>");
    }
    log.push_str("</log>");
    vec![
        parse_xml(&feed).unwrap(),
        parse_xml(&blog).unwrap(),
        parse_xml(&log).unwrap(),
    ]
}

fn workload(xml: &XmlTree, count: usize, seed: u64) -> Vec<UpdateOp> {
    random_update_sequence(
        xml,
        count,
        seed,
        WorkloadMix {
            insert_probability: 0.6,
            rename_probability: 0.5,
            locality: 0.7,
            ..WorkloadMix::default()
        },
    )
}

/// One step of the scripted workload. `Apply` and `Remove` reference
/// documents by load order (index into the ids accumulated so far), so the
/// same script replays identically on the durable store and the oracle.
#[derive(Clone)]
enum Action {
    Load(usize),
    Apply(usize, Vec<UpdateOp>),
    Remove(usize),
    Checkpoint,
}

/// A deterministic mixed workload over three documents: interleaved update
/// batches, a mid-script removal with slot reuse, and (optionally)
/// checkpoints at two different log depths. Every non-checkpoint action is
/// exactly one WAL record, so the recovered `last_lsn` counts committed
/// actions directly.
fn script(with_checkpoints: bool) -> (Vec<XmlTree>, Vec<Action>) {
    let docs = corpus();
    let s0 = workload(&docs[0], 12, 0xD0C0);
    let s1 = workload(&docs[1], 8, 0xD0C1);
    let s2 = workload(&docs[2], 12, 0xD0C2);
    let s3 = workload(&docs[1], 8, 0xD0C3); // for the re-loaded blog
    let chunk = |s: &[UpdateOp], i: usize| s[i * 4..(i + 1) * 4].to_vec();

    let mut actions = vec![
        Action::Load(0),
        Action::Load(1),
        Action::Load(2),
        Action::Apply(0, chunk(&s0, 0)),
        Action::Apply(1, chunk(&s1, 0)),
        Action::Apply(2, chunk(&s2, 0)),
    ];
    if with_checkpoints {
        actions.push(Action::Checkpoint);
    }
    actions.extend([
        Action::Apply(0, chunk(&s0, 1)),
        Action::Remove(1),
        Action::Load(1), // reuses doc 1's slot under a fresh generation
        Action::Apply(2, chunk(&s2, 1)),
        Action::Apply(3, chunk(&s3, 0)),
    ]);
    if with_checkpoints {
        actions.push(Action::Checkpoint);
    }
    actions.extend([
        Action::Apply(0, chunk(&s0, 2)),
        Action::Apply(2, chunk(&s2, 2)),
        Action::Apply(3, chunk(&s3, 1)),
    ]);
    (docs, actions)
}

/// Runs the script until it completes or the injected fault kills the
/// store; every error is the dead disk (the workloads themselves are valid).
fn run_script(store: &DurableStore, corpus: &[XmlTree], actions: &[Action]) {
    let mut ids: Vec<DocId> = Vec::new();
    for action in actions {
        let ok = match action {
            Action::Load(c) => match store.load_xml(&corpus[*c]) {
                Ok(id) => {
                    ids.push(id);
                    true
                }
                Err(_) => false,
            },
            Action::Apply(d, ops) => store.apply_batch(ids[*d], ops).is_ok(),
            Action::Remove(d) => store.remove(ids[*d]).is_ok(),
            Action::Checkpoint => store.checkpoint().is_ok(),
        };
        if !ok {
            return; // the disk is dead; the rest of the script is lost
        }
    }
}

/// The uninterrupted oracle: a plain in-memory [`DomStore`] executing
/// exactly the first `committed` logged actions of the script.
fn oracle_store(corpus: &[XmlTree], actions: &[Action], committed: u64) -> DomStore {
    let store = DomStore::new();
    let mut ids: Vec<DocId> = Vec::new();
    let mut lsn = 0u64;
    for action in actions {
        if matches!(action, Action::Checkpoint) {
            continue; // checkpoints write no log record
        }
        if lsn == committed {
            break;
        }
        lsn += 1;
        match action {
            Action::Load(c) => ids.push(store.load_xml(&corpus[*c]).unwrap()),
            Action::Apply(d, ops) => {
                store.apply_batch(ids[*d], ops).unwrap();
            }
            Action::Remove(d) => {
                store.remove(ids[*d]).unwrap();
            }
            Action::Checkpoint => unreachable!(),
        }
    }
    assert_eq!(lsn, committed, "script shorter than the committed prefix");
    store
}

/// Byte-identical state: same live ids in the same order, and the same
/// serialization for every document.
fn assert_matches_oracle(recovered: &DurableStore, oracle: &DomStore, context: &str) {
    assert_eq!(recovered.doc_ids(), oracle.doc_ids(), "{context}: live document ids");
    for id in oracle.doc_ids() {
        assert_eq!(
            recovered.to_xml(id).unwrap().to_xml(),
            oracle.to_xml(id).unwrap().to_xml(),
            "{context}: document {id:?} diverged from the oracle"
        );
    }
}

/// Sizes the kill matrix: total fault points one uninterrupted script
/// consumes.
fn total_fault_points(corpus: &[XmlTree], actions: &[Action]) -> u64 {
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    run_script(&store, corpus, actions);
    drop(store);
    fs.consumed()
}

fn matrix_stride(total: u64) -> u64 {
    if cfg!(debug_assertions) {
        (total / 48).max(1) // ~48 kill points in debug; CI covers all in release
    } else {
        1
    }
}

/// Crashes the store at a given fault point, recovers from the surviving
/// disk image, and checks the recovered state against the oracle replay of
/// the committed prefix.
fn crash_recover_compare(corpus: &[XmlTree], actions: &[Action], point: u64) {
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    fs.arm(point);
    run_script(&store, corpus, actions);
    fs.disarm();
    drop(store); // the process is gone; `fs` is the disk image

    let (recovered, report) = DurableStore::open_with(fs, "db")
        .unwrap_or_else(|e| panic!("recovery after kill at point {point} failed: {e}"));
    let oracle = oracle_store(corpus, actions, report.last_lsn);
    assert_matches_oracle(&recovered, &oracle, &format!("kill at point {point}"));
}

/// The tentpole guarantee: killing the store at **every** fault point of a
/// mixed workload (every byte of every append, every fsync) and recovering
/// always yields exactly the committed prefix of the workload.
#[test]
fn kill_at_every_fault_point_recovers_the_committed_prefix() {
    let (corpus, actions) = script(false);
    let total = total_fault_points(&corpus, &actions);
    assert!(total > 200, "matrix suspiciously small: {total} fault points");
    let stride = matrix_stride(total);
    let mut point = 1;
    while point <= total {
        crash_recover_compare(&corpus, &actions, point);
        point += stride;
    }
}

/// Same matrix with checkpoints in the middle of the workload: a kill
/// before, during (temp write or rename), or after a checkpoint must leave
/// either the old state + full log or the new snapshot + skippable log —
/// never a half state.
#[test]
fn kill_around_checkpoints_never_loses_committed_state() {
    let (corpus, actions) = script(true);
    let total = total_fault_points(&corpus, &actions);
    let stride = matrix_stride(total);
    let mut point = 1;
    while point <= total {
        crash_recover_compare(&corpus, &actions, point);
        point += stride;
    }
}

/// A crash *during recovery* (while truncating the torn tail) is itself
/// recoverable: recovery is idempotent.
#[test]
fn crash_during_recovery_is_recoverable() {
    let (corpus, actions) = script(false);
    let total = total_fault_points(&corpus, &actions);
    // Kill mid-append somewhere in the middle of the workload so the log
    // has a torn tail recovery must truncate.
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    fs.arm(total / 2);
    run_script(&store, &corpus, &actions);
    fs.disarm();
    drop(store);

    // First recovery attempt dies partway through its own disk writes.
    for budget in 0..3 {
        fs.arm(budget);
        let _ = DurableStore::open_with(fs.clone(), "db");
        fs.disarm();
    }
    // The final attempt must still converge to the committed prefix.
    let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
    let oracle = oracle_store(&corpus, &actions, report.last_lsn);
    assert_matches_oracle(&recovered, &oracle, "recovery after interrupted recoveries");
}

/// A recovered store is a fully functional store: it accepts new writes,
/// checkpoints, and survives a second crash.
#[test]
fn recovered_store_accepts_writes_and_survives_a_second_crash() {
    let (corpus, actions) = script(false);
    let total = total_fault_points(&corpus, &actions);
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    fs.arm(2 * total / 3);
    run_script(&store, &corpus, &actions);
    fs.disarm();
    drop(store);

    // Recover, then write through the recovered store.
    let (recovered, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    let live = recovered.doc_ids();
    assert!(!live.is_empty());
    recovered
        .apply_batch(live[0], &workload(&corpus[0], 4, 0xAF7E2)[..2])
        .unwrap();
    let extra = recovered.load_xml(&corpus[2]).unwrap();
    recovered.checkpoint().unwrap();
    let wants: Vec<(DocId, String)> = recovered
        .doc_ids()
        .into_iter()
        .map(|id| (id, recovered.to_xml(id).unwrap().to_xml()))
        .collect();
    drop(recovered); // second "crash", right after a checkpoint

    let (again, report) = DurableStore::open_with(fs, "db").unwrap();
    assert_eq!(report.replayed, 0, "checkpoint covered everything");
    assert!(again.contains(extra));
    for (id, want) in wants {
        assert_eq!(again.to_xml(id).unwrap().to_xml(), want);
    }
}

/// Concurrent writers to distinct documents commit through the store's one
/// commit order — one record and one fsync each (sharing fsyncs is the
/// ingestion queue's job) — and the interleaved log still recovers every
/// document to its single-threaded oracle state.
#[test]
fn concurrent_writers_share_fsyncs_and_recover_to_per_doc_oracles() {
    let docs = corpus();
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    let ids: Vec<DocId> = docs.iter().map(|x| store.load_xml(x).unwrap()).collect();
    let schedules: Vec<Vec<UpdateOp>> = docs
        .iter()
        .enumerate()
        .map(|(i, xml)| workload(xml, 16, 0xFEED + i as u64))
        .collect();

    let store_ref = &store;
    std::thread::scope(|scope| {
        for (d, &id) in ids.iter().enumerate() {
            let schedule = &schedules[d];
            scope.spawn(move || {
                for batch in schedule.chunks(2) {
                    store_ref.apply_batch(id, batch).expect("workload stays valid");
                }
            });
        }
    });
    let commits = 3 + (16 / 2) * 3; // loads + batches
    assert_eq!(store.durable_lsn(), commits as u64);
    assert_eq!(store.wal_sync_count(), commits as u64, "one fsync per commit");
    drop(store);

    // Per-document recovery oracle: the log interleaving across documents is
    // nondeterministic, but each document's batches are ordered, so each must
    // recover to its sequential replay.
    let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
    assert_eq!(report.last_lsn, commits as u64);
    let oracle = DomStore::new();
    let oracle_ids: Vec<DocId> = docs.iter().map(|x| oracle.load_xml(x).unwrap()).collect();
    for (&id, schedule) in oracle_ids.iter().zip(&schedules) {
        oracle.apply_batch(id, schedule).unwrap();
    }
    assert_eq!(recovered.doc_ids(), oracle_ids);
    for &id in &oracle_ids {
        assert_eq!(
            recovered.to_xml(id).unwrap().to_xml(),
            oracle.to_xml(id).unwrap().to_xml()
        );
    }
}

/// The torn-tail rule end to end: garbage appended by a crashed writer is
/// silently truncated, while a flipped bit *inside* the log is a typed,
/// loud error — never silent data loss.
#[test]
fn torn_tails_truncate_silently_but_interior_corruption_is_loud() {
    let (corpus, actions) = script(false);
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    run_script(&store, &corpus, &actions);
    drop(store);
    let clean = fs.file("db/wal.log").unwrap();

    // Torn tail: half a frame header, then half a payload.
    for garbage in [&[0x99u8][..], &[40, 0, 0, 0, 7, 7, 7, 7, 1, 2, 3][..]] {
        let mut torn = clean.clone();
        torn.extend_from_slice(garbage);
        fs.set_file("db/wal.log", torn);
        let (recovered, report) = DurableStore::open_with(fs.clone(), "db").unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.truncated_bytes, garbage.len() as u64);
        let oracle = oracle_store(&corpus, &actions, report.last_lsn);
        assert_matches_oracle(&recovered, &oracle, "torn tail");
        assert_eq!(
            fs.file("db/wal.log").unwrap().len(),
            clean.len(),
            "recovery must truncate the torn bytes on disk"
        );
    }

    // Interior corruption: flip one byte in the middle of the log.
    let mut corrupt = clean.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x08;
    fs.set_file("db/wal.log", corrupt);
    let err = DurableStore::open_with(fs, "db")
        .err()
        .expect("interior corruption must fail recovery loudly");
    assert!(matches!(err, RepairError::WalCorrupt { .. }), "got {err:?}");
}

// ----- ingestion-queue kill matrix -----

/// One step of the scripted *queued* workload. Submits enqueue without
/// logging anything; only drains (`Flush`) reach the WAL, as a single
/// record each with one job per submission.
#[derive(Clone)]
enum QueueAction {
    Load(usize),
    Submit(usize, Vec<UpdateOp>),
    Flush,
    Checkpoint,
}

/// A deterministic queued workload over three documents: bursts of
/// per-document submissions drained by flushes, and a mid-script
/// checkpoint taken while a batch is still queued.
fn queue_script() -> (Vec<XmlTree>, Vec<QueueAction>) {
    let docs = corpus();
    let s0 = workload(&docs[0], 12, 0xBEE0);
    let s1 = workload(&docs[1], 8, 0xBEE1);
    let s2 = workload(&docs[2], 12, 0xBEE2);
    let chunk = |s: &[UpdateOp], i: usize| s[i * 4..(i + 1) * 4].to_vec();

    let actions = vec![
        QueueAction::Load(0),
        QueueAction::Load(1),
        QueueAction::Load(2),
        // A mixed burst: two chunks of doc 0 and one each of docs 1 and 2
        // drain as one four-job ApplyMany record.
        QueueAction::Submit(0, chunk(&s0, 0)),
        QueueAction::Submit(1, chunk(&s1, 0)),
        QueueAction::Submit(0, chunk(&s0, 1)),
        QueueAction::Submit(2, chunk(&s2, 0)),
        QueueAction::Flush,
        // A two-job drain, then a batch that stays queued across the
        // checkpoint and reaches the log only with the flush after it.
        QueueAction::Submit(2, chunk(&s2, 1)),
        QueueAction::Submit(1, chunk(&s1, 1)),
        QueueAction::Flush,
        QueueAction::Submit(0, chunk(&s0, 2)),
        QueueAction::Checkpoint,
        QueueAction::Flush,
        QueueAction::Submit(2, chunk(&s2, 2)),
        QueueAction::Flush,
    ];
    (docs, actions)
}

/// Runs the queued script until it completes or the injected fault kills
/// the store. Tickets are awaited after every full flush, so a dead disk
/// (surfacing as per-job commit errors) stops the script like `run_script`.
fn run_queue_script(store: &Arc<DurableStore>, corpus: &[XmlTree], actions: &[QueueAction]) {
    let queue = IngestQueue::new(Arc::clone(store));
    let mut ids: Vec<DocId> = Vec::new();
    let mut outstanding: Vec<slt_xml::grammar_repair::queue::Ticket> = Vec::new();
    for action in actions {
        let ok = match action {
            QueueAction::Load(c) => match store.load_xml(&corpus[*c]) {
                Ok(id) => {
                    ids.push(id);
                    true
                }
                Err(_) => false,
            },
            QueueAction::Submit(d, ops) => {
                let ticket = queue
                    .submit(ids[*d], ops.clone())
                    .expect("unbounded queue accepts every submission");
                outstanding.push(ticket);
                true
            }
            QueueAction::Flush => {
                queue.flush();
                outstanding.drain(..).all(|t| queue.wait(t).is_ok())
            }
            QueueAction::Checkpoint => store.checkpoint().is_ok(),
        };
        if !ok {
            return; // the disk is dead; the rest of the script is lost
        }
    }
}

/// The queue oracle: applies each submission as its own batch on a plain
/// in-memory store, counting one LSN per drained record (loads count
/// one each; checkpoints and submits none), stopping at the committed
/// prefix.
fn queue_oracle(corpus: &[XmlTree], actions: &[QueueAction], committed: u64) -> DomStore {
    let store = DomStore::new();
    let mut ids: Vec<DocId> = Vec::new();
    let mut pending: Vec<(usize, Vec<UpdateOp>)> = Vec::new();
    let mut lsn = 0u64;
    for action in actions {
        match action {
            QueueAction::Load(c) => {
                if lsn == committed {
                    return store;
                }
                lsn += 1;
                ids.push(store.load_xml(&corpus[*c]).unwrap());
            }
            QueueAction::Submit(d, ops) => pending.push((*d, ops.clone())),
            QueueAction::Flush => {
                if pending.is_empty() {
                    continue;
                }
                if lsn == committed {
                    return store;
                }
                lsn += 1;
                // One job per submission, in submission order.
                for (d, ops) in pending.drain(..) {
                    store.apply_batch(ids[d], &ops).unwrap();
                }
            }
            QueueAction::Checkpoint => {}
        }
    }
    assert_eq!(lsn, committed, "script shorter than the committed prefix");
    store
}

/// The queued analogue of the main kill matrix: a crash at **every** fault
/// point of a workload whose writes reach the log only as queued
/// `ApplyMany` drains (plus one v3 checkpoint with a batch queued
/// across it) recovers exactly the committed prefix — a mid-flush kill loses the
/// whole drain, never half of one.
#[test]
fn kill_during_coalesced_flushes_recovers_the_committed_prefix() {
    let (corpus, actions) = queue_script();
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    let store = Arc::new(store);
    run_queue_script(&store, &corpus, &actions);
    drop(store);
    let total = fs.consumed();
    assert!(total > 100, "matrix suspiciously small: {total} fault points");

    let stride = matrix_stride(total);
    let mut point = 1;
    while point <= total {
        let fs = Arc::new(FailpointFs::new());
        let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
        let store = Arc::new(store);
        fs.arm(point);
        run_queue_script(&store, &corpus, &actions);
        fs.disarm();
        drop(store);

        let (recovered, report) = DurableStore::open_with(fs, "db")
            .unwrap_or_else(|e| panic!("recovery after kill at point {point} failed: {e}"));
        let oracle = queue_oracle(&corpus, &actions, report.last_lsn);
        assert_matches_oracle(
            &recovered,
            &oracle,
            &format!("queued kill at point {point}"),
        );
        point += stride;
    }
}

// ----- checkpoint-v3 adversarial proptests -----

/// Builds a real v3 checkpoint image (with an empty covering log) for the
/// adversarial tests: three documents, a batch each, then a quiescent
/// checkpoint — so the log truncates and the checkpoint alone carries the
/// state.
fn v3_checkpoint_image() -> (Vec<u8>, usize) {
    let docs = corpus();
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    for (i, xml) in docs.iter().enumerate() {
        let id = store.load_xml(xml).unwrap();
        store
            .apply_batch(id, &workload(xml, 4, 0xC4E0 + i as u64))
            .unwrap();
    }
    let report = store.checkpoint().unwrap();
    assert!(report.log_truncated, "single-threaded checkpoint is quiescent");
    drop(store);
    (fs.file("db/checkpoint.slck").unwrap(), docs.len())
}

/// Opens a store whose disk holds exactly `checkpoint` (and no log) and
/// touches every document, forcing lazy materialization. Returns `Err` if
/// the open or any touch reports corruption.
fn open_and_touch_all(checkpoint: Vec<u8>) -> Result<(), RepairError> {
    let fs = Arc::new(FailpointFs::new());
    fs.set_file("db/checkpoint.slck", checkpoint);
    let (store, _) = DurableStore::open_with(fs, "db")?;
    for id in store.doc_ids() {
        store.to_xml(id)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every byte of a v3 checkpoint is covered by some integrity check:
    /// the header and the three indexed sections by CRCs verified at open,
    /// the lazy docs region by per-extent payload CRCs verified at first
    /// touch. A single bit flip anywhere must therefore surface as a typed
    /// error from open or from touching the documents — never silently,
    /// never as a panic.
    #[test]
    fn prop_v3_bit_flips_are_always_detected(seed in any::<u64>()) {
        let (pristine, doc_count) = v3_checkpoint_image();
        let bit = (seed as usize) % (pristine.len() * 8);
        let mut flipped = pristine;
        flipped[bit / 8] ^= 1 << (bit % 8);
        let outcome = open_and_touch_all(flipped);
        prop_assert!(outcome.is_err(), "flipped bit {} went undetected across {} docs", bit, doc_count);
        prop_assert!(
            matches!(outcome, Err(RepairError::Storage { .. })),
            "corruption must be the typed checkpoint error, got {:?}", outcome
        );
    }

    /// Truncating a v3 checkpoint at any length fails at open: the header
    /// demands the file end exactly where the docs region ends.
    #[test]
    fn prop_v3_truncations_fail_at_open(seed in any::<u64>()) {
        let (pristine, _) = v3_checkpoint_image();
        let len = (seed as usize) % pristine.len();
        let outcome = open_and_touch_all(pristine[..len].to_vec());
        prop_assert!(outcome.is_err(), "truncation to {} bytes went undetected", len);
    }

    /// Arbitrary bytes — raw or hiding behind the real magic and version —
    /// never panic the checkpoint decoder and never open successfully
    /// unless they happen to decode into a consistent (empty) image.
    #[test]
    fn prop_v3_decoder_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = open_and_touch_all(bytes.clone());
        let mut framed = b"SLCK\x03".to_vec();
        framed.extend_from_slice(&bytes);
        let _ = open_and_touch_all(framed);
        // No version-1 format exists: whatever follows the byte is refused.
        let mut legacy = b"SLCK\x01".to_vec();
        legacy.extend_from_slice(&bytes);
        prop_assert!(matches!(
            open_and_touch_all(legacy),
            Err(RepairError::Storage { .. })
        ));
    }
}
