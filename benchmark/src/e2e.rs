//! Replays a [`Plan`] through a real `sltxml serve` process over its unix
//! socket and records what a client sees.
//!
//! One call of [`run_round`] is one **round** on a fresh directory, its
//! phases one after another: *set-up* (spawn + load the corpus) → *write*
//! → *read* → mid-run `Checkpoint` → *tail* writes (the un-checkpointed
//! WAL) → one empty batch per document (its reply carries the grammar
//! size) → verify → `SIGKILL` → *recover* (restart on the killed
//! directory) → verify → final `Checkpoint`. Every reply is checked against the
//! plan's uncompressed oracle. The client is this one process with at most
//! two threads.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use grammar_repair::client::PendingApply;
use grammar_repair::server::{WireBatchStats, WireStats};
use grammar_repair::{Client, DocId};

use crate::plan::{DocState, Plan, ReadReq, WriteLoop, WriteReq};
use crate::server_proc::ServerProc;
use crate::trace::Tracer;

/// Share of each phase's requests treated as warm-up: they are sent and
/// checked like any other but their latencies are not kept.
const WARMUP_SHARE: f64 = 0.02;

/// Requests sent, and how many of them failed: an error reply, a lost
/// connection or a reply the oracle disagrees with.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if ok {
            self.ok()
        } else {
            self.fail(note())
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// One acked `ApplyBatch`.
pub struct Ack {
    pub doc: usize,
    /// Ops the batch holds in the script. (`stats.ops` is the count of the
    /// coalesced job the server applied, which may span several batches.)
    pub ops: usize,
    /// Submit (or due time, in the open loop) → `Applied` in hand.
    pub ms: f64,
    pub stats: WireBatchStats,
    pub warmup: bool,
}

/// What one connection's write script measured.
struct WriteResult {
    start: Instant,
    end: Instant,
    acks: Vec<Ack>,
    /// How late the open-loop generator sent each batch.
    lateness_ms: Vec<f64>,
    tally: Tally,
}

/// What the read script measured.
#[derive(Default)]
pub struct ReadResult {
    pub wall_s: f64,
    pub replies: usize,
    pub query_us: Vec<f64>,
    pub to_xml_bytes: usize,
    pub to_xml_s: f64,
    /// Replies that showed a state older than the batches acked when the
    /// request was sent (possible only beside a writer; see [`Visible`]).
    pub stale: usize,
    tally: Tally,
}

/// Everything one round observed; `main` turns rounds into metrics.
pub struct Observed {
    pub tally: Tally,
    /// Spawn → `listening` → last corpus document acked.
    pub setup_s: f64,
    /// `listening` → last corpus document acked.
    pub load_s: f64,
    pub write_wall_s: f64,
    pub write_ops: usize,
    pub acks: Vec<Ack>,
    pub lateness_ms: Vec<f64>,
    pub reads: ReadResult,
    /// Grammar edges per document at the end of the script, as an empty
    /// closing batch reports them.
    pub grammar_edges: Vec<u64>,
    /// Spawn on the killed directory → one `Query` answered per document.
    pub recover_ms: f64,
    pub checkpoint_bytes: u64,
    pub peak_rss_mb: f64,
    /// `Stats` round trips on an idle server (trace runs only).
    pub noop_rtt_us: Vec<f64>,
    /// Server counters around the write phase.
    pub stats_before_writes: WireStats,
    pub stats_after_writes: WireStats,
    /// WAL bytes the write phase appended.
    pub wal_bytes: u64,
}

/// Per-document write progress the concurrent reader checks replies
/// against (see [`Visible::Moving`]).
struct Progress {
    submitted: Vec<AtomicUsize>,
    acked: Vec<AtomicUsize>,
}

struct InFlight {
    sent: Instant,
    doc: usize,
    ops: usize,
    index: usize,
    pending: PendingApply,
}

fn await_ack(
    inflight: InFlight,
    warmup: usize,
    progress: Option<&Progress>,
    tracer: Option<&Tracer>,
    out: &mut WriteResult,
) {
    match inflight.pending.wait_applied() {
        Ok(stats) => {
            let now = Instant::now();
            if let Some(p) = progress {
                p.acked[inflight.doc].fetch_add(1, Ordering::SeqCst);
            }
            if let Some(t) = tracer {
                t.record(
                    "client.apply_batch",
                    inflight.index as u64,
                    inflight.sent,
                    now,
                );
            }
            out.tally.ok();
            out.end = now;
            out.acks.push(Ack {
                doc: inflight.doc,
                ops: inflight.ops,
                ms: (now - inflight.sent).as_secs_f64() * 1e3,
                stats,
                warmup: inflight.index < warmup,
            });
        }
        Err(e) => out.tally.fail(format!(
            "ApplyBatch #{} on doc {}: {e}",
            inflight.index, inflight.doc
        )),
    }
}

/// Replays one connection's write script (see [`WriteLoop`]).
fn drive_writes(
    client: &Client,
    ids: &[DocId],
    script: &[WriteReq],
    write_loop: WriteLoop,
    progress: Option<&Progress>,
    tracer: Option<&Tracer>,
) -> WriteResult {
    let warmup = (script.len() as f64 * WARMUP_SHARE).ceil() as usize;
    let start = Instant::now();
    let mut out = WriteResult {
        start,
        end: start,
        acks: Vec::with_capacity(script.len()),
        lateness_ms: Vec::new(),
        tally: Tally::default(),
    };
    let send = |index: usize, sent: Instant, out: &mut WriteResult| -> Option<InFlight> {
        let req = &script[index];
        if let Some(p) = progress {
            p.submitted[req.doc].fetch_add(1, Ordering::SeqCst);
        }
        match client.begin_apply_batch(ids[req.doc], req.ops.clone()) {
            Ok(pending) => Some(InFlight {
                sent,
                doc: req.doc,
                ops: req.ops.len(),
                index,
                pending,
            }),
            Err(e) => {
                out.tally.fail(format!("sending ApplyBatch #{index}: {e}"));
                None
            }
        }
    };
    match write_loop {
        WriteLoop::Closed { depth } => {
            let mut window: VecDeque<InFlight> = VecDeque::with_capacity(depth);
            for index in 0..script.len() {
                if window.len() == depth {
                    let oldest = window.pop_front().expect("window is full");
                    await_ack(oldest, warmup, progress, tracer, &mut out);
                }
                window.extend(send(index, Instant::now(), &mut out));
            }
            for inflight in window {
                await_ack(inflight, warmup, progress, tracer, &mut out);
            }
        }
        WriteLoop::Open { rate } => {
            // One thread both sends and reaps. It sleeps to each due time,
            // sends every batch that is due by then (a stall makes that a
            // burst, which is what an independent sender would have queued
            // meanwhile), and only then blocks for the acks — each timed
            // from when its batch was *due*, so a stall's cost to the
            // batches behind it is counted.
            let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
            let mut next = 0;
            while next < script.len() {
                let wait = due(next).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let mut burst = Vec::new();
                while next < script.len() {
                    let now = Instant::now();
                    if due(next) > now {
                        break;
                    }
                    out.lateness_ms.push((now - due(next)).as_secs_f64() * 1e3);
                    burst.extend(send(next, due(next), &mut out));
                    next += 1;
                }
                for inflight in burst {
                    await_ack(inflight, warmup, progress, tracer, &mut out);
                }
            }
        }
    }
    out
}

/// Which oracle states a read reply may show.
enum Visible<'a> {
    /// Nothing is being written: every reply shows the state `back` places
    /// from the end of the document's state list.
    Settled { back: usize },
    /// A writer runs beside the reader. The store serves its last
    /// *published* snapshot while a writer or a recompression holds the
    /// document (see `grammar_repair::store`), so an acked batch may not be
    /// visible yet: a reply must show a state no older than the newest one
    /// this connection has already been shown and no newer than the batches
    /// submitted when it arrived. Replies older than the batches acked when
    /// the request was sent are counted as stale.
    Moving(&'a Progress),
}

/// Replays the read script on one closed-loop connection.
fn drive_reads(
    client: &Client,
    ids: &[DocId],
    plan: &Plan,
    visible: Visible,
    tracer: Option<&Tracer>,
) -> ReadResult {
    let script = &plan.reads;
    let warmup = (script.len() as f64 * WARMUP_SHARE).ceil() as usize;
    let mut out = ReadResult::default();
    // Newest state each document has shown this connection so far.
    let mut shown = vec![0usize; ids.len()];
    let start = Instant::now();
    for (index, req) in script.iter().enumerate() {
        let doc = req.doc();
        let states = &plan.states[doc];
        let acked = match visible {
            Visible::Settled { back } => states.len() - 1 - back,
            Visible::Moving(progress) => progress.acked[doc].load(Ordering::SeqCst),
        };
        let sent = Instant::now();
        let reply = match *req {
            ReadReq::Query { path, .. } => client
                .query(ids[doc], plan.path(doc, path))
                .map(|matches| (Some(path), matches.len(), String::new())),
            ReadReq::ToXml { .. } => client.to_xml(ids[doc]).map(|text| (None, 0, text)),
        };
        let done = Instant::now();
        let (path, count, text) = match reply {
            Ok(reply) => reply,
            Err(e) => {
                out.tally.fail(format!("read #{index} on doc {doc}: {e}"));
                continue;
            }
        };
        let (oldest, newest) = match visible {
            Visible::Settled { .. } => (acked, acked),
            Visible::Moving(progress) => {
                (shown[doc], progress.submitted[doc].load(Ordering::SeqCst))
            }
        };
        out.replies += 1;
        let span = if path.is_some() {
            if index >= warmup {
                out.query_us.push((done - sent).as_secs_f64() * 1e6);
            }
            "client.query"
        } else {
            out.to_xml_s += (done - sent).as_secs_f64();
            out.to_xml_bytes += text.len();
            "client.to_xml"
        };
        if let Some(t) = tracer {
            t.record(span, index as u64, sent, done);
        }
        let fits = |state: &DocState| match path {
            Some(path) => state.counts[path] == count,
            None => state.xml == text,
        };
        // Equal counts cannot tell neighbouring states apart; the oldest
        // fit is the safe floor for the next reply.
        match (oldest..=newest).find(|&at| fits(&states[at])) {
            Some(at) => {
                out.tally.ok();
                shown[doc] = at;
                out.stale += usize::from(at < acked);
            }
            None => out.tally.fail(format!(
                "read #{index} ({}) on doc {doc} fits no state {oldest}..={newest} (fits {:?})",
                path.map_or("ToXml", |p| plan.path(doc, p)),
                states.iter().position(fits)
            )),
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Spawns a server on a fresh directory and loads the corpus; returns the
/// server, the document ids and the `(set-up, load-only)` seconds.
fn set_up(
    dir: &Path,
    sock: &Path,
    plan: &Plan,
    tally: &mut Tally,
) -> Result<(ServerProc, Vec<DocId>, f64, f64), String> {
    let spawned = Instant::now();
    let server = ServerProc::spawn(dir, sock)?;
    let client = server.client();
    let mut ids = Vec::with_capacity(plan.docs.len());
    for (d, doc) in plan.docs.iter().enumerate() {
        match client.load_xml(&doc.tree) {
            Ok(id) => {
                tally.ok();
                ids.push(id);
            }
            Err(e) => {
                tally.fail(format!("LoadXml of doc {d}: {e}"));
                return Err(format!("loading doc {d}: {e}"));
            }
        }
    }
    let done = Instant::now();
    let setup_s = (done - spawned).as_secs_f64();
    let load_s = (done - server.listening_at).as_secs_f64();
    Ok((server, ids, setup_s, load_s))
}

/// `ToXml` and every path's `Query` of every document against `state`.
fn verify_all(client: &Client, ids: &[DocId], plan: &Plan, what: &str, tally: &mut Tally) {
    for (doc, &id) in ids.iter().enumerate() {
        let state = plan.final_state(doc);
        match client.to_xml(id) {
            Ok(text) => tally.check(text == state.xml, || {
                format!("{what}: ToXml of doc {doc} differs from the oracle")
            }),
            Err(e) => tally.fail(format!("{what}: ToXml of doc {doc}: {e}")),
        }
        for path in 0..4 {
            match client.query(id, plan.path(doc, path)) {
                Ok(m) => tally.check(m.len() == state.counts[path], || {
                    format!(
                        "{what}: Query {} on doc {doc}: {} matches, oracle {}",
                        plan.path(doc, path),
                        m.len(),
                        state.counts[path]
                    )
                }),
                Err(e) => tally.fail(format!("{what}: Query on doc {doc}: {e}")),
            }
        }
    }
}

/// Counts one request into `tally`; a failed one yields the default.
fn counted<T: Default>(tally: &mut Tally, what: &str, result: grammar_repair::Result<T>) -> T {
    match result {
        Ok(value) => {
            tally.ok();
            value
        }
        Err(e) => {
            tally.fail(format!("{what}: {e}"));
            T::default()
        }
    }
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log"))
        .map(|m| m.len())
        .unwrap_or(0)
}

/// Replays the plan for one round (see the module docs), recording
/// client-side spans when given a tracer. `run_dir` must be inside the
/// checkout; it is created here and removed again.
pub fn run_round(plan: &Plan, run_dir: &Path, tracer: Option<&Tracer>) -> Result<Observed, String> {
    std::fs::create_dir_all(run_dir).map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let result = round_in(plan, run_dir, tracer);
    let _ = std::fs::remove_dir_all(run_dir);
    result
}

fn round_in(plan: &Plan, run_dir: &Path, tracer: Option<&Tracer>) -> Result<Observed, String> {
    let mut tally = Tally::default();
    let sock: PathBuf = run_dir.join("s.sock");
    let dir = run_dir.join("wal");
    let (server, ids, setup_s, load_s) = set_up(&dir, &sock, plan, &mut tally)?;
    let client = server.client();

    // Write phase (with the reader beside it when reads are concurrent).
    let stats_before_writes = counted(&mut tally, "Stats", client.stats());
    let wal_before = wal_len(&dir);
    let progress = Progress {
        submitted: ids.iter().map(|_| AtomicUsize::new(0)).collect(),
        acked: ids.iter().map(|_| AtomicUsize::new(0)).collect(),
    };
    let progress_ref = plan.reads_concurrent.then_some(&progress);
    // At most two client threads: this one and one more, which is the
    // second writer connection or the concurrent reader, never both.
    assert!(
        plan.writes.len() + usize::from(plan.reads_concurrent) <= 2,
        "a plan needs at most two client threads"
    );
    let second_client = server.client();
    let (first, second, concurrent_reads) = std::thread::scope(|scope| {
        let reader = plan.reads_concurrent.then(|| {
            scope.spawn(|| {
                drive_reads(
                    &second_client,
                    &ids,
                    plan,
                    Visible::Moving(&progress),
                    tracer,
                )
            })
        });
        let writer = plan.writes.get(1).map(|script| {
            scope
                .spawn(|| drive_writes(&second_client, &ids, script, plan.write_loop, None, tracer))
        });
        let first = drive_writes(
            &client,
            &ids,
            &plan.writes[0],
            plan.write_loop,
            progress_ref,
            tracer,
        );
        let join = "client thread panicked";
        (
            first,
            writer.map(|h| h.join().expect(join)),
            reader.map(|h| h.join().expect(join)),
        )
    });
    let stats_after_writes = counted(&mut tally, "Stats", client.stats());
    let wal_bytes = wal_len(&dir).saturating_sub(wal_before);

    let mut start = first.start;
    let mut end = first.end;
    let mut acks = Vec::new();
    let mut lateness_ms = Vec::new();
    for result in [Some(first), second].into_iter().flatten() {
        start = start.min(result.start);
        end = end.max(result.end);
        acks.extend(result.acks);
        lateness_ms.extend(result.lateness_ms);
        tally.merge(result.tally);
    }
    let write_wall_s = (end - start).as_secs_f64();
    let write_ops: usize = acks.iter().map(|a| a.ops).sum();

    // Read phase on the quiescent server, unless it ran beside the writes
    // or belongs after the restart.
    let mut reads = match concurrent_reads {
        Some(r) => r,
        None if plan.reads_after_restart => ReadResult::default(),
        None => drive_reads(&client, &ids, plan, Visible::Settled { back: 1 }, tracer),
    };

    let mut noop_rtt_us = Vec::new();
    if tracer.is_some() {
        for _ in 0..500 {
            let sent = Instant::now();
            counted(&mut tally, "Stats", client.stats());
            noop_rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
    }

    // Mid-run checkpoint, then the tail recovery will have to replay.
    counted(&mut tally, "Checkpoint", client.checkpoint());
    let tail = drive_writes(
        &client,
        &ids,
        &plan.tail,
        WriteLoop::Closed { depth: 1 },
        None,
        None,
    );
    tally.merge(tail.tally);
    // An empty batch changes nothing and reports the grammar the store
    // holds now, after whatever recompression the last real batch set off.
    let grammar_edges: Vec<u64> = ids
        .iter()
        .map(|&id| {
            counted(&mut tally, "ApplyBatch", client.apply_batch(id, Vec::new())).edges_after
        })
        .collect();
    verify_all(&client, &ids, plan, "before the kill", &mut tally);
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(client);
    drop(second_client);
    server.kill();

    // Recovery: restart → listening → one Query answered per document.
    let spawned = Instant::now();
    let server = ServerProc::spawn(&dir, &sock)?;
    let client = server.client();
    for (doc, &id) in ids.iter().enumerate() {
        match client.query(id, plan.path(doc, 0)) {
            Ok(m) => tally.check(m.len() == plan.final_state(doc).counts[0], || {
                format!(
                    "after recovery: Query on doc {doc}: {} matches, oracle {}",
                    m.len(),
                    plan.final_state(doc).counts[0]
                )
            }),
            Err(e) => tally.fail(format!("after recovery: Query on doc {doc}: {e}")),
        }
    }
    let recover_ms = spawned.elapsed().as_secs_f64() * 1e3;
    if plan.reads_after_restart {
        reads = drive_reads(&client, &ids, plan, Visible::Settled { back: 0 }, tracer);
    }
    // Zero lost acked writes: every batch above was acked before the kill.
    verify_all(&client, &ids, plan, "after recovery", &mut tally);
    let checkpoint_bytes = counted(&mut tally, "Checkpoint", client.checkpoint()).bytes;
    drop(client);
    server.kill();

    tally.merge(std::mem::take(&mut reads.tally));
    Ok(Observed {
        tally,
        setup_s,
        load_s,
        write_wall_s,
        write_ops,
        acks,
        lateness_ms,
        reads,
        grammar_edges,
        recover_ms,
        checkpoint_bytes,
        peak_rss_mb,
        noop_rtt_us,
        stats_before_writes,
        stats_after_writes,
        wal_bytes,
    })
}
