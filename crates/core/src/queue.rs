//! Store-level ingestion queue: group commit in front of a
//! [`DurableStore`].
//!
//! High-throughput ingestion workloads submit many small per-document
//! batches. Pushing each one through [`DurableStore::apply_batch`] pays one
//! WAL record and one fsync per batch. The [`IngestQueue`] decouples
//! *submission* from *durability*: writers enqueue batches without
//! blocking, and a **drain** hands everything pending to the store as a
//! single [`ApplyMany`](crate::wal::WalEntry) record, so the whole drain
//! costs one fsync no matter how many batches it absorbed.
//!
//! # One job per batch
//!
//! A drain writes one job per submitted batch, in submission order, and
//! each ticket gets its own job's result. Ordering a document's jobs is
//! the store's business ([`DomStore::apply_batch_many`]), so live apply and
//! replay of the record reach the same state, and one failing batch fails
//! alone.
//!
//! [`DomStore::apply_batch_many`]: crate::store::DomStore::apply_batch_many
//!
//! # Drain ordering
//!
//! There is one drain shape, [`flush`](IngestQueue::flush) — called by the
//! background drainer, by hand, or by a lone [`wait`](IngestQueue::wait) —
//! and at most one runs at a time; later drains wait for the running one to
//! finish. Because every drain commits its WAL record before the next drain
//! starts, log order equals drain order, and a batch submitted *during* an
//! in-flight drain simply lands in the next one; per-document submission
//! order is never reordered across drains. Every drain takes the whole
//! pending list, so the queued tickets are always one contiguous range.
//! Submissions themselves never wait on a drain. A job that leaves its
//! document due recompresses it inside the store's apply path, before that
//! document's next job, so a drain's grouping never decides a document's
//! bytes.
//!
//! A writer that needs its batch durable **now** waits on its ticket (which
//! flushes inline when no drainer is installed). Mixing queued submissions
//! with *direct* [`DurableStore`] mutations of the same document is the one
//! thing the queue cannot order — flush first.
//!
//! # Drain-policy state machine
//!
//! [`start_drainer`](IngestQueue::start_drainer) installs a background
//! thread that makes queued work durable without anyone calling
//! [`flush`](IngestQueue::flush). The drainer is a three-state loop over
//! the queue lock:
//!
//! ```text
//!            submit / stop            watermark or deadline hit
//!   IDLE ---------------------> ARMED ---------------------> DRAINING
//!    ^   (queue empty: park on    |  (queue non-empty: park     |
//!    |    the drain condvar)      |   until the earliest        |
//!    |                            |   deadline)                 |
//!    +----------------------------+------- flush done ---------+
//! ```
//!
//! In ARMED the drainer computes three triggers from [`DrainPolicy`] and
//! fires a [`flush`](IngestQueue::flush) when any holds:
//!
//! * **size** — queued op count reached `max_pending_ops` (submissions
//!   signal the drain condvar, so this fires immediately, not at the next
//!   timer tick);
//! * **age** — the oldest queued batch has waited `max_batch_age`, which
//!   bounds the durability latency of every acknowledged-after-drain
//!   write;
//! * **idle** — no submission arrived for `idle_flush`, so the queue
//!   stops waiting for more batches that are not coming.
//!
//! Otherwise it parks until the earliest of the age/idle deadlines.
//! [`stop_drainer`](IngestQueue::stop_drainer) runs one final flush after
//! the loop exits, so stopping never strands queued work. While a drainer
//! is installed, [`wait`](IngestQueue::wait) and
//! [`wait_timeout`](IngestQueue::wait_timeout) park instead of
//! self-flushing — an inline flush would commit a half-gathered group and
//! defeat the policy's group-commit window; without a drainer, `wait` keeps
//! its lone-writer guarantee and flushes inline.
//!
//! # Backpressure
//!
//! A queue built with [`IngestQueue::with_config`] and a
//! `high_watermark_ops` bound refuses to let submissions outrun the disk:
//! once the queued op count would exceed the watermark,
//! [`submit`](IngestQueue::submit) either parks until a drain makes room
//! ([`BackpressurePolicy::Block`]) or returns
//! [`QueueError::WouldBlock`] ([`BackpressurePolicy::Fail`]) so a server
//! edge can push the retry to its client. Two escape valves keep the
//! bound deadlock-free: a submission to an **empty** queue is always
//! accepted (a single oversized batch must not wedge), and blocked
//! submitters are woken by every drain completion.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xmltree::updates::UpdateOp;

use crate::durable::DurableStore;
use crate::error::{RepairError, Result};
use crate::store::DocId;
use crate::update::BatchStats;

/// Receipt for one submitted batch; redeem it with
/// [`IngestQueue::wait`]. Tickets are single-use: the result is consumed
/// by the first wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Typed failures of the queue edge, distinct from store errors so a
/// caller (the network server above all) can map each to a different
/// reply without string-matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueError {
    /// The queue is at its high-watermark and the backpressure policy is
    /// [`BackpressurePolicy::Fail`]; retry after a drain.
    WouldBlock {
        /// Ops queued when the submission was refused.
        pending_ops: usize,
        /// The configured bound it would have exceeded.
        high_watermark: usize,
    },
    /// [`IngestQueue::wait_timeout`] gave up before the ticket's drain
    /// completed; the batch is still queued (or still draining) and the
    /// ticket stays redeemable.
    Timeout {
        /// How long the caller waited.
        waited: Duration,
    },
    /// The drain ran and the store failed the batch (or the ticket was
    /// unknown); this is the queue-edge wrapper of the store outcome.
    Store(RepairError),
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::WouldBlock {
                pending_ops,
                high_watermark,
            } => write!(
                f,
                "ingest queue backpressure: {pending_ops} ops pending \
                 (high watermark {high_watermark})"
            ),
            QueueError::Timeout { waited } => {
                write!(f, "ingest queue: no drain within {waited:?}")
            }
            QueueError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueueError {}

impl From<RepairError> for QueueError {
    fn from(e: RepairError) -> Self {
        QueueError::Store(e)
    }
}

/// What [`IngestQueue::submit`] does when the queue is at its
/// high-watermark (see [`QueueConfig`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Park the submitter until a drain makes room (default).
    #[default]
    Block,
    /// Return [`QueueError::WouldBlock`] immediately.
    Fail,
}

/// Bounds on the queue (see the module docs' *Backpressure* section).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueConfig {
    /// Refuse/park submissions that would push the queued op count above
    /// this bound (`None` = unbounded, the [`IngestQueue::new`] default).
    pub high_watermark_ops: Option<usize>,
    /// What `submit` does at the watermark.
    pub backpressure: BackpressurePolicy,
}

/// Watermarks of the background drainer (see the module docs'
/// *Drain-policy state machine* section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPolicy {
    /// Flush as soon as this many ops are queued.
    pub max_pending_ops: usize,
    /// Flush once the oldest queued batch has waited this long — the
    /// durability-latency bound of the policy.
    pub max_batch_age: Duration,
    /// Flush when no new submission arrived for this long.
    pub idle_flush: Duration,
}

impl Default for DrainPolicy {
    fn default() -> Self {
        DrainPolicy {
            max_pending_ops: 256,
            max_batch_age: Duration::from_millis(5),
            idle_flush: Duration::from_millis(1),
        }
    }
}

/// Counters the queue keeps across its lifetime (see
/// [`IngestQueue::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Batches accepted by [`IngestQueue::submit`].
    pub submitted: u64,
    /// Drains that wrote an `ApplyMany` record ([`IngestQueue::flush`]
    /// with a non-empty pending list).
    pub flushes: u64,
    /// Ops currently queued (submitted but not yet drained) — a snapshot,
    /// not a lifetime counter; the drain policy's size trigger watches it.
    pub pending_ops: u64,
    /// Age of the oldest queued batch at the moment [`IngestQueue::stats`]
    /// was called (`None` when the queue is empty); the drain policy's age
    /// trigger watches it.
    pub oldest_pending_age: Option<Duration>,
}

struct PendingBatch {
    ticket: u64,
    doc: DocId,
    ops: Vec<UpdateOp>,
    /// When the batch was submitted — feeds `oldest_pending_age` and the
    /// drain policy's age and idle triggers.
    at: Instant,
}

#[derive(Default)]
struct QueueState {
    pending: Vec<PendingBatch>,
    /// Ops across `pending` (maintained, not recomputed — the watermark
    /// checks run on every submit).
    pending_ops: usize,
    next_ticket: u64,
    results: HashMap<u64, Result<BatchStats>>,
    /// A drain is in flight with the state lock released; later drains
    /// wait on the condvar.
    draining: bool,
    /// A background drainer is installed: `wait` parks instead of
    /// self-flushing (see the module docs' drain-policy section).
    drainer_active: bool,
    /// Tells the drainer thread to exit at its next wakeup.
    drainer_stop: bool,
    stats: QueueStats,
}

/// An ingestion queue in front of a [`DurableStore`] (see the module
/// docs for the job, ordering, drain-policy and backpressure
/// contracts).
pub struct IngestQueue {
    store: Arc<DurableStore>,
    config: QueueConfig,
    state: Mutex<QueueState>,
    /// Waiters on results and blocked submitters park here; every drain
    /// completion broadcasts.
    cond: Condvar,
    /// The background drainer parks here; submissions and stop requests
    /// signal it.
    drain_cond: Condvar,
    drainer: Mutex<Option<JoinHandle<()>>>,
}

impl IngestQueue {
    /// Creates an empty, unbounded queue feeding `store`.
    pub fn new(store: Arc<DurableStore>) -> Self {
        Self::with_config(store, QueueConfig::default())
    }

    /// Creates an empty queue with explicit backpressure bounds.
    pub fn with_config(store: Arc<DurableStore>, config: QueueConfig) -> Self {
        IngestQueue {
            store,
            config,
            state: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            drain_cond: Condvar::new(),
            drainer: Mutex::new(None),
        }
    }

    /// The store this queue drains into.
    pub fn store(&self) -> &Arc<DurableStore> {
        &self.store
    }

    /// Enqueues one batch for `doc`. Nothing is logged or applied until
    /// the next [`flush`](IngestQueue::flush), a policy drain, or
    /// [`wait`](IngestQueue::wait) on the ticket.
    ///
    /// On an unbounded queue (the [`new`](IngestQueue::new) default) this
    /// never blocks and never fails — drains in progress don't stall
    /// submissions. With a [`QueueConfig`] high-watermark it applies the
    /// configured backpressure: park until a drain makes room
    /// ([`BackpressurePolicy::Block`] — something must be draining, a
    /// background drainer or another thread, or the park never ends) or
    /// fail fast with [`QueueError::WouldBlock`]
    /// ([`BackpressurePolicy::Fail`]).
    pub fn submit(
        &self,
        doc: DocId,
        ops: Vec<UpdateOp>,
    ) -> std::result::Result<Ticket, QueueError> {
        let mut st = self.state.lock().expect("queue lock never poisoned");
        if let Some(watermark) = self.config.high_watermark_ops {
            // An oversized batch on an empty queue is always accepted:
            // refusing it could never succeed, and parking it would wedge.
            while !st.pending.is_empty() && st.pending_ops + ops.len() > watermark {
                match self.config.backpressure {
                    BackpressurePolicy::Fail => {
                        return Err(QueueError::WouldBlock {
                            pending_ops: st.pending_ops,
                            high_watermark: watermark,
                        })
                    }
                    BackpressurePolicy::Block => {
                        st = self.cond.wait(st).expect("queue lock never poisoned");
                    }
                }
            }
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.stats.submitted += 1;
        st.pending_ops += ops.len();
        st.pending.push(PendingBatch {
            ticket,
            doc,
            ops,
            at: Instant::now(),
        });
        drop(st);
        // Wake the drainer so the size watermark fires now, not at the
        // next timer tick.
        self.drain_cond.notify_all();
        Ok(Ticket(ticket))
    }

    /// Drains everything pending as **one** `ApplyMany` record — one job
    /// per batch in submission order, one fsync — and
    /// posts each job's outcome to its ticket. Waits first if another drain
    /// is in flight. Returns the number of batches drained.
    pub fn flush(&self) -> usize {
        let mut st = self.state.lock().expect("queue lock never poisoned");
        while st.draining {
            st = self.cond.wait(st).expect("queue lock never poisoned");
        }
        if st.pending.is_empty() {
            return 0;
        }
        let batches = std::mem::take(&mut st.pending);
        st.pending_ops = 0;
        st.draining = true;
        drop(st);

        let (tickets, jobs): (Vec<u64>, Vec<(DocId, Vec<UpdateOp>)>) =
            batches.into_iter().map(|b| (b.ticket, (b.doc, b.ops))).unzip();
        let (results, _maintenance) = self.store.apply_batch_many(&jobs);

        let mut st = self.state.lock().expect("queue lock never poisoned");
        st.stats.flushes += 1;
        st.results.extend(tickets.into_iter().zip(results));
        st.draining = false;
        drop(st);
        self.cond.notify_all();
        jobs.len()
    }

    /// Blocks until `ticket`'s batch is durable and applied, then returns
    /// its outcome. If the batch is still queued, no drain is running and
    /// no background drainer is installed, the caller becomes the flush
    /// leader itself (a lone writer never deadlocks waiting for someone
    /// else to flush); with a drainer installed it parks until the policy
    /// drain lands. Waiting on a ticket whose result was already consumed
    /// is an error.
    pub fn wait(&self, ticket: Ticket) -> Result<BatchStats> {
        match self.wait_deadline(ticket, None) {
            Ok(stats) => Ok(stats),
            Err(QueueError::Store(e)) => Err(e),
            Err(e @ QueueError::WouldBlock { .. }) | Err(e @ QueueError::Timeout { .. }) => {
                unreachable!("deadline-less wait cannot report {e}")
            }
        }
    }

    /// [`wait`](IngestQueue::wait) with a bound: gives up with
    /// [`QueueError::Timeout`] if the ticket's drain has not completed
    /// within `timeout`, so a server worker never parks forever on a
    /// ticket whose drain leader died. The ticket stays redeemable — a
    /// later wait (or the next drain) can still consume its result.
    pub fn wait_timeout(
        &self,
        ticket: Ticket,
        timeout: Duration,
    ) -> std::result::Result<BatchStats, QueueError> {
        self.wait_deadline(ticket, Some(timeout))
    }

    fn wait_deadline(
        &self,
        ticket: Ticket,
        timeout: Option<Duration>,
    ) -> std::result::Result<BatchStats, QueueError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.state.lock().expect("queue lock never poisoned");
        loop {
            if let Some(result) = st.results.remove(&ticket.0) {
                return result.map_err(QueueError::Store);
            }
            // Tickets are issued in order and every drain takes the whole
            // list, so what is queued is the contiguous range from the first
            // pending ticket up to the next one to be issued.
            let queued = st
                .pending
                .first()
                .is_some_and(|b| (b.ticket..st.next_ticket).contains(&ticket.0));
            if queued && !st.draining && !st.drainer_active {
                drop(st);
                self.flush();
                st = self.state.lock().expect("queue lock never poisoned");
                continue;
            }
            if !queued && !st.draining {
                return Err(QueueError::Store(RepairError::Storage {
                    detail: format!(
                        "ingest queue: unknown ticket {} (results are consumed once)",
                        ticket.0
                    ),
                }));
            }
            st = match deadline {
                None => self.cond.wait(st).expect("queue lock never poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(QueueError::Timeout {
                            waited: timeout.expect("deadline implies timeout"),
                        });
                    }
                    self.cond
                        .wait_timeout(st, deadline - now)
                        .expect("queue lock never poisoned")
                        .0
                }
            };
        }
    }

    /// Installs the background drainer (see the module docs' drain-policy
    /// state machine). Returns `false` — and changes nothing — if one is
    /// already running. While installed, queued work becomes durable on
    /// the policy's size/age/idle triggers and [`wait`](IngestQueue::wait)
    /// parks instead of self-flushing.
    pub fn start_drainer(self: &Arc<Self>, policy: DrainPolicy) -> bool {
        let mut slot = self.drainer.lock().expect("drainer lock never poisoned");
        if slot.is_some() {
            return false;
        }
        {
            let mut st = self.state.lock().expect("queue lock never poisoned");
            st.drainer_active = true;
            st.drainer_stop = false;
        }
        let queue = Arc::clone(self);
        *slot = Some(
            std::thread::Builder::new()
                .name("ingest-drainer".into())
                .spawn(move || queue.drain_loop(policy))
                .expect("spawning the drainer thread"),
        );
        true
    }

    /// Stops the background drainer after one final flush (queued work is
    /// never stranded). No-op when none is running.
    pub fn stop_drainer(&self) {
        let handle = {
            let mut slot = self.drainer.lock().expect("drainer lock never poisoned");
            let handle = slot.take();
            if handle.is_some() {
                let mut st = self.state.lock().expect("queue lock never poisoned");
                st.drainer_stop = true;
            }
            handle
        };
        let Some(handle) = handle else { return };
        self.drain_cond.notify_all();
        handle.join().expect("drainer never panics");
        let mut st = self.state.lock().expect("queue lock never poisoned");
        st.drainer_active = false;
        st.drainer_stop = false;
        drop(st);
        // Waiters may now become flush leaders themselves again.
        self.cond.notify_all();
    }

    fn drain_loop(&self, policy: DrainPolicy) {
        let mut st = self.state.lock().expect("queue lock never poisoned");
        loop {
            if st.drainer_stop {
                break;
            }
            if st.pending.is_empty() {
                // IDLE: nothing to age out; park until a submission or a
                // stop request signals.
                st = self.drain_cond.wait(st).expect("queue lock never poisoned");
                continue;
            }
            // ARMED: fire on any trigger, else park until the earliest
            // deadline.
            let now = Instant::now();
            let oldest = st
                .pending
                .first()
                .map(|b| now.saturating_duration_since(b.at))
                .unwrap_or_default();
            let idle = st
                .pending
                .last()
                .map(|b| now.saturating_duration_since(b.at))
                .unwrap_or_default();
            if st.pending_ops >= policy.max_pending_ops
                || oldest >= policy.max_batch_age
                || idle >= policy.idle_flush
            {
                drop(st);
                self.flush();
                st = self.state.lock().expect("queue lock never poisoned");
                continue;
            }
            let until = (policy.max_batch_age - oldest).min(policy.idle_flush - idle);
            st = self
                .drain_cond
                .wait_timeout(st, until)
                .expect("queue lock never poisoned")
                .0;
        }
        drop(st);
        self.flush();
    }

    /// Batches currently queued (submitted but not yet drained).
    pub fn pending_batches(&self) -> usize {
        self.state
            .lock()
            .expect("queue lock never poisoned")
            .pending
            .len()
    }

    /// Lifetime counters (submissions, flushes)
    /// plus the point-in-time queue depth (`pending_ops`,
    /// `oldest_pending_age`) the drain policy watches.
    pub fn stats(&self) -> QueueStats {
        let st = self.state.lock().expect("queue lock never poisoned");
        let mut stats = st.stats;
        stats.pending_ops = st.pending_ops as u64;
        stats.oldest_pending_age = st.pending.first().map(|b| b.at.elapsed());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::testing::FailpointFs;
    use xmltree::parse::parse_xml;
    use xmltree::XmlTree;

    fn doc(tag: &str, n: usize) -> XmlTree {
        let mut s = format!("<{tag}>");
        for _ in 0..n {
            s.push_str("<item><title/><body><p/><p/></body></item>");
        }
        s.push_str(&format!("</{tag}>"));
        parse_xml(&s).unwrap()
    }

    fn queue() -> (Arc<FailpointFs>, Arc<DurableStore>, IngestQueue) {
        let fs = Arc::new(FailpointFs::new());
        let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
        let store = Arc::new(store);
        (fs, store.clone(), IngestQueue::new(store))
    }

    fn rename(target: u32, label: &str) -> UpdateOp {
        UpdateOp::Rename {
            target: target as usize,
            label: label.into(),
        }
    }

    #[test]
    fn a_flush_logs_one_job_per_batch_in_one_record() {
        let (fs, store, queue) = queue();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let b = store.load_xml(&doc("blog", 3)).unwrap();
        let syncs_before = fs.sync_count();

        let t1 = queue.submit(a, vec![rename(1, "entry")]).unwrap();
        let t2 = queue.submit(b, vec![rename(1, "post")]).unwrap();
        let t3 = queue.submit(a, vec![rename(5, "note"), rename(2, "head")]).unwrap();
        assert_eq!(queue.pending_batches(), 3);

        assert_eq!(queue.flush(), 3);
        assert_eq!(fs.sync_count() - syncs_before, 1, "one record, one fsync");

        // Each ticket reports its own batch, not its document's.
        for (t, ops) in [(t1, 1), (t2, 1), (t3, 2)] {
            assert_eq!(queue.wait(t).unwrap().ops, ops);
        }
        let a_xml = store.to_xml(a).unwrap().to_xml();
        assert!(a_xml.contains("<entry") && a_xml.contains("<note") && a_xml.contains("<head"));
        assert!(store.to_xml(b).unwrap().to_xml().contains("<post"));
        let stats = queue.stats();
        assert_eq!((stats.submitted, stats.flushes), (3, 1));
    }

    #[test]
    fn a_wait_on_any_queued_ticket_drains_the_whole_contiguous_range() {
        let (_fs, store, queue) = queue();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let b = store.load_xml(&doc("blog", 3)).unwrap();

        // A drained earlier range, so the queued one does not start at 0.
        let t0 = queue.submit(a, vec![rename(1, "first")]).unwrap();
        queue.flush();
        let ta = queue.submit(a, vec![rename(1, "entry")]).unwrap();
        let tb = queue.submit(b, vec![rename(1, "post")]).unwrap();
        let tc = queue.submit(a, vec![rename(5, "note")]).unwrap();

        // Waiting on the middle ticket finds it queued by its position in
        // the range and becomes the flush leader for all three.
        assert_eq!(queue.wait(tb).unwrap().ops, 1);
        assert_eq!(queue.pending_batches(), 0, "one drain takes everything");
        assert_eq!(queue.stats().flushes, 2);
        for t in [t0, ta, tc] {
            queue.wait(t).unwrap();
        }
        assert!(store.to_xml(a).unwrap().to_xml().contains("<note"));

        // Outside the range on either side: consumed, and never issued.
        queue.submit(b, vec![rename(5, "later")]).unwrap();
        assert!(queue.wait(tb).is_err(), "results are consumed once");
        assert!(queue.wait(Ticket(99)).is_err(), "never issued");
        assert_eq!(queue.pending_batches(), 1, "a bad ticket drains nothing");
    }

    #[test]
    fn wait_becomes_the_flush_leader_when_nobody_drains() {
        let (_fs, store, queue) = queue();
        let a = store.load_xml(&doc("feed", 2)).unwrap();
        let t = queue.submit(a, vec![rename(1, "entry")]).unwrap();
        assert_eq!(queue.wait(t).unwrap().ops, 1, "wait flushed inline");
        assert_eq!(queue.pending_batches(), 0);
        // A ticket's result is consumed exactly once.
        assert!(queue.wait(t).is_err());
    }

    #[test]
    fn a_failing_batch_fails_alone() {
        let (_fs, store, queue) = queue();
        let a = store.load_xml(&doc("feed", 2)).unwrap();
        let good = queue.submit(a, vec![rename(1, "entry")]).unwrap();
        // The reserved "#" label is rejected.
        let bad = queue.submit(a, vec![rename(5, "#")]).unwrap();
        let later = queue.submit(a, vec![rename(2, "after")]).unwrap();
        assert_eq!(queue.flush(), 3);
        assert_eq!(queue.wait(good).unwrap().ops, 1);
        assert!(queue.wait(bad).is_err());
        assert_eq!(queue.wait(later).unwrap().ops, 1, "a later batch still applies");
        let xml = store.to_xml(a).unwrap().to_xml();
        assert!(xml.contains("<entry>") && xml.contains("<after"));
    }

    #[test]
    fn concurrent_submitters_share_group_commits() {
        let (fs, store, queue) = queue();
        let queue = Arc::new(queue);
        let mut ids = Vec::new();
        for d in 0..4 {
            ids.push(store.load_xml(&doc(&format!("doc{d}"), 3)).unwrap());
        }
        let syncs_before = fs.sync_count();
        let threads: Vec<_> = ids
            .iter()
            .map(|&id| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut tickets = Vec::new();
                    for i in 0..8 {
                        tickets.push(queue.submit(id, vec![rename(1, &format!("r{i}"))]).unwrap());
                    }
                    for t in tickets {
                        queue.wait(t).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let flushed_syncs = fs.sync_count() - syncs_before;
        let stats = queue.stats();
        assert_eq!(stats.submitted, 32);
        assert_eq!(flushed_syncs, stats.flushes, "one fsync per drain");
        assert!(
            flushed_syncs < 32,
            "group commit must beat one fsync per submitted batch"
        );
    }

    #[test]
    fn stats_report_queue_depth_and_age() {
        let (_fs, store, queue) = queue();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        assert_eq!(queue.stats().pending_ops, 0);
        assert_eq!(queue.stats().oldest_pending_age, None);
        queue.submit(a, vec![rename(1, "x"), rename(5, "y")]).unwrap();
        queue.submit(a, vec![rename(2, "z")]).unwrap();
        let stats = queue.stats();
        assert_eq!(stats.pending_ops, 3, "op count, not batch count");
        assert!(stats.oldest_pending_age.is_some());
        queue.flush();
        let stats = queue.stats();
        assert_eq!(stats.pending_ops, 0);
        assert_eq!(stats.oldest_pending_age, None);
    }

    #[test]
    fn drainer_flushes_without_explicit_flush() {
        let (fs, store, queue) = queue();
        let queue = Arc::new(queue);
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        assert!(queue.start_drainer(DrainPolicy {
            max_pending_ops: 1_000_000,
            max_batch_age: Duration::from_millis(2),
            idle_flush: Duration::from_millis(1),
        }));
        assert!(!queue.start_drainer(DrainPolicy::default()), "one drainer at a time");
        let syncs_before = fs.sync_count();
        let t1 = queue.submit(a, vec![rename(1, "entry")]).unwrap();
        let t2 = queue.submit(a, vec![rename(5, "note")]).unwrap();
        // No flush() anywhere: the age/idle trigger must land the drain.
        assert_eq!(queue.wait(t1).unwrap().ops, 1);
        assert_eq!(queue.wait(t2).unwrap().ops, 1);
        assert!(fs.sync_count() > syncs_before);
        queue.stop_drainer();
        let xml = store.to_xml(a).unwrap().to_xml();
        assert!(xml.contains("<entry") && xml.contains("<note"));
    }

    #[test]
    fn drainer_size_trigger_fires_before_any_deadline() {
        let (_fs, store, queue) = queue();
        let queue = Arc::new(queue);
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        assert!(queue.start_drainer(DrainPolicy {
            max_pending_ops: 2,
            max_batch_age: Duration::from_secs(3600),
            idle_flush: Duration::from_secs(3600),
        }));
        let t = queue.submit(a, vec![rename(1, "a1"), rename(5, "a2")]).unwrap();
        // Timers are an hour out; only the size watermark can drain this.
        assert_eq!(
            queue.wait_timeout(t, Duration::from_secs(20)).unwrap().ops,
            2
        );
        queue.stop_drainer();
    }

    #[test]
    fn stop_drainer_flushes_the_tail() {
        let (_fs, store, queue) = queue();
        let queue = Arc::new(queue);
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        assert!(queue.start_drainer(DrainPolicy {
            max_pending_ops: 1_000_000,
            max_batch_age: Duration::from_secs(3600),
            idle_flush: Duration::from_secs(3600),
        }));
        let t = queue.submit(a, vec![rename(1, "entry")]).unwrap();
        queue.stop_drainer();
        assert_eq!(queue.wait(t).unwrap().ops, 1, "final flush drained it");
    }

    #[test]
    fn wait_timeout_reports_a_stalled_drain_leader() {
        let (_fs, store, queue) = queue();
        let queue = Arc::new(queue);
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        // A drainer whose every trigger is an hour away models a stalled
        // drain leader: wait_timeout must give up instead of parking
        // forever or self-flushing (which would defeat the policy).
        assert!(queue.start_drainer(DrainPolicy {
            max_pending_ops: 1_000_000,
            max_batch_age: Duration::from_secs(3600),
            idle_flush: Duration::from_secs(3600),
        }));
        let t = queue.submit(a, vec![rename(1, "entry")]).unwrap();
        let err = queue.wait_timeout(t, Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, QueueError::Timeout { .. }), "got {err}");
        // The ticket stays redeemable: stopping the drainer flushes the
        // tail and the same ticket then resolves.
        queue.stop_drainer();
        assert_eq!(queue.wait_timeout(t, Duration::from_secs(20)).unwrap().ops, 1);
    }

    #[test]
    fn backpressure_fail_returns_would_block() {
        let (_fs, store, _) = queue();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let queue = IngestQueue::with_config(
            Arc::clone(&store),
            QueueConfig {
                high_watermark_ops: Some(3),
                backpressure: BackpressurePolicy::Fail,
            },
        );
        // An oversized first batch is accepted: the queue was empty.
        let t0 = queue.submit(a, vec![rename(1, "a"), rename(5, "b"), rename(2, "c"), rename(4, "d")]).unwrap();
        let err = queue.submit(a, vec![rename(7, "e")]).unwrap_err();
        assert!(
            matches!(
                err,
                QueueError::WouldBlock {
                    pending_ops: 4,
                    high_watermark: 3
                }
            ),
            "got {err}"
        );
        // A drain makes room again.
        queue.flush();
        assert_eq!(queue.wait(t0).unwrap().ops, 4);
        let t1 = queue.submit(a, vec![rename(7, "e")]).unwrap();
        assert_eq!(queue.wait(t1).unwrap().ops, 1);
    }

    #[test]
    fn backpressure_block_parks_until_a_drain_makes_room() {
        let (_fs, store, _) = queue();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let queue = Arc::new(IngestQueue::with_config(
            Arc::clone(&store),
            QueueConfig {
                high_watermark_ops: Some(2),
                backpressure: BackpressurePolicy::Block,
            },
        ));
        queue.submit(a, vec![rename(1, "a"), rename(5, "b")]).unwrap();
        let submitter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                // Parks at the watermark until the main thread drains.
                let t = queue.submit(a, vec![rename(2, "c")]).unwrap();
                queue.wait(t).unwrap().ops
            })
        };
        // Give the submitter a moment to reach the watermark park, then
        // drain to release it.
        std::thread::sleep(Duration::from_millis(20));
        queue.flush();
        // The released submission may need one more drain.
        loop {
            if submitter.is_finished() {
                break;
            }
            queue.flush();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(submitter.join().unwrap(), 1);
        assert!(store.to_xml(a).unwrap().to_xml().contains("<c"));
    }
}
