//! Network service edge: a wire-protocol server over the ingestion queue.
//!
//! This module puts a socket in front of a [`DurableStore`]: writes route
//! through an [`IngestQueue`] with a background [`DrainPolicy`] drainer
//! (so every client gets group-committed fsyncs without anyone calling
//! `flush()`), reads route through the store's lock-free snapshots, and
//! both speak one std-only, length-prefixed binary protocol over TCP or
//! unix sockets. The client side lives in [`crate::client`].
//!
//! # Frame layout
//!
//! Every request and response travels as one frame in the envelope the
//! WAL uses on disk ([`crate::frame`]):
//!
//! ```text
//! frame:   length u32-LE | crc32 u32-LE (of payload) | payload
//! payload: version u8 | request-id varint | kind u8 | body
//! ```
//!
//! Varints are the WAL's LEB128 (`xmltree::wire`), and bodies reuse the
//! wire codecs — trees travel as [`write_tree`] images, op batches as
//! [`write_ops`] sequences, documents as the frame module's range-checked
//! `(slot, generation)` varint pairs. The request id is chosen by the client and echoed verbatim in
//! the response, which is what makes pipelining work: a client may write
//! several requests before reading any reply and match replies by id.
//! Replies are **not** guaranteed to arrive in request order — reads are
//! answered by the connection's reader thread while write acks come from
//! its ack worker as group commits land — so clients must dispatch by id.
//!
//! A frame whose `length` exceeds the configured cap is rejected *before*
//! any allocation, and every decoded count is bounded by the bytes that
//! could possibly back it — arbitrary bytes on the socket can produce a
//! typed error, never an OOM. On any protocol violation (bad CRC, bad
//! version, unknown kind, trailing bytes, oversized frame) the server
//! sends one best-effort [`Response::Error`] with
//! [`ErrorCode::Protocol`] and **closes the connection**: after a framing
//! error the byte stream can no longer be trusted to be frame-aligned.
//! Store-level failures (bad target index, unknown document …) are not
//! protocol errors — they come back as [`ErrorCode::Store`] replies on a
//! connection that stays open.
//!
//! The cap binds replies too. [`Request::ToXml`] writes the document text
//! from the snapshot's tables with a budget of `max_frame_len` minus the
//! reply's header bytes, and stops as soon as the text exceeds it. The
//! client then gets an [`ErrorCode::Store`] reply naming the cap, instead of
//! a frame its reader would reject by closing the connection and failing
//! every request in flight on it.
//!
//! # Ack semantics
//!
//! [`Request::ApplyBatch`] is acknowledged **only after the
//! group-committed fsync**: the reader thread submits to the queue and
//! hands the ticket to the connection's ack worker, which parks in
//! [`IngestQueue::wait_timeout`] and writes the `Applied` reply when the
//! queue posts the ticket's result — which happens only after the drain's
//! WAL record is fsync'd and applied. Decoupling the ack from the reader
//! is what lets a pipelined connection keep feeding the queue while
//! earlier batches await their fsync, so its acked batches share group
//! commits instead of paying one fsync each. A client that has
//! the `Applied` reply in hand therefore holds a durable write — the
//! kill-and-recover suite (`tests/server_durable.rs`) pins exactly this.
//! It is also a visible write: every `Query` or `ToXml` sent after the
//! `Applied` reply arrived, on any connection, sees it.
//! Each request is its own job in the drain's record, so each reply is
//! that request's own outcome: a failing request fails no other, not even
//! a later one for the same document in the same drain. If no drain lands
//! within 30 s the client gets [`ErrorCode::Timeout`] instead of a worker
//! thread parked forever.
//! [`Request::LoadXml`] commits its own WAL record (loads are not
//! queued), so its `Loaded` reply carries the same guarantee.
//!
//! # Backpressure rules
//!
//! The queue is built with the server's [`QueueConfig`]. With a
//! high-watermark and [`BackpressurePolicy::Fail`], a submission over the
//! bound is answered with [`ErrorCode::Backpressure`] — the retry is
//! pushed to the client, and the connection stays open. With
//! [`BackpressurePolicy::Block`] (default) the handler thread itself
//! parks in `submit`, which transfers the backpressure to the socket:
//! the client's later requests sit unread in the kernel buffer until the
//! disk catches up. Reads never backpressure — they touch only
//! snapshots.
//!
//! [`BackpressurePolicy::Fail`]: crate::queue::BackpressurePolicy::Fail
//! [`BackpressurePolicy::Block`]: crate::queue::BackpressurePolicy::Block
//! [`write_tree`]: xmltree::wire::write_tree
//! [`write_ops`]: xmltree::wire::write_ops

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use xmltree::updates::UpdateOp;
use xmltree::wire::{write_ops, write_tree, write_varint, WireReader};
use xmltree::XmlTree;

use crate::durable::DurableStore;
use crate::error::{RepairError, Result};
use crate::frame::{self, read_doc, write_doc};
use crate::query::QueryMatches;
use crate::queue::{DrainPolicy, IngestQueue, QueueConfig, QueueError};
use crate::store::DocId;
use crate::update::BatchStats;

pub use crate::frame::FRAME_HEADER_LEN;

/// Protocol version byte every frame starts its payload with.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default bound on a single frame's payload (requests *and* responses).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 64 << 20;

/// Payload bytes of an `Xml` reply besides its text: version, request-id
/// varint (≤ 10), kind, text-length varint (≤ 10).
const XML_REPLY_OVERHEAD: usize = 22;

/// One request record (see the module docs for the frame layout).
#[derive(Debug, Clone)]
pub enum Request {
    /// Compress and load a document; replied with [`Response::Loaded`]
    /// once the load's WAL record is durable.
    LoadXml {
        /// The document to load.
        tree: XmlTree,
    },
    /// Submit one update batch through the ingestion queue; replied with
    /// [`Response::Applied`] only after the group-committed fsync (see
    /// the module docs' ack semantics).
    ApplyBatch {
        /// Target document.
        doc: DocId,
        /// The batch, applied with the store's non-fatal per-op
        /// semantics.
        ops: Vec<UpdateOp>,
    },
    /// Evaluate a path query against the document's current snapshot.
    Query {
        /// Target document.
        doc: DocId,
        /// Query source, parsed server-side (`PathQuery` syntax).
        path: String,
    },
    /// Serialize the document's current snapshot back to XML text.
    ToXml {
        /// Target document.
        doc: DocId,
    },
    /// Write a consistent-cut paged checkpoint and (if possible) truncate
    /// the log.
    Checkpoint,
    /// Server, store and queue counters.
    Stats,
}

/// Why a [`Response::Error`] was sent; decides whether the connection
/// survives the reply (only protocol violations close it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or its body failed validation; the connection is closed
    /// after this reply.
    Protocol,
    /// The store rejected the operation (unknown document, bad target,
    /// I/O failure …); the connection stays open.
    Store,
    /// No drain landed within the server's reply timeout; the batch may
    /// still commit later — the client must treat it as *unknown*, not
    /// as failed.
    Timeout,
    /// The queue is at its high-watermark under
    /// [`BackpressurePolicy::Fail`](crate::queue::BackpressurePolicy::Fail);
    /// retry after a drain.
    Backpressure,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Protocol => 0,
            ErrorCode::Store => 1,
            ErrorCode::Timeout => 2,
            ErrorCode::Backpressure => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(ErrorCode::Protocol),
            1 => Some(ErrorCode::Store),
            2 => Some(ErrorCode::Timeout),
            3 => Some(ErrorCode::Backpressure),
            _ => None,
        }
    }
}

/// The subset of [`BatchStats`] that crosses the wire with an `Applied`
/// reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireBatchStats {
    /// Ops applied (including no-ops skipped by non-fatal semantics).
    pub ops: u64,
    /// [`BatchStats::chunks`]: 1 for a non-empty batch, 0 for an empty one.
    /// Kept so the `Applied` reply's bytes stay what clients decode.
    pub chunks: u64,
    /// Grammar edges before the batch.
    pub edges_before: u64,
    /// Grammar edges after the batch.
    pub edges_after: u64,
}

impl From<BatchStats> for WireBatchStats {
    fn from(s: BatchStats) -> Self {
        WireBatchStats {
            ops: s.ops as u64,
            chunks: s.chunks as u64,
            edges_before: s.edges_before as u64,
            edges_after: s.edges_after as u64,
        }
    }
}

/// The checkpoint outcome that crosses the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCheckpoint {
    /// Base LSN of the checkpoint.
    pub last_lsn: u64,
    /// Documents serialized.
    pub documents: u64,
    /// Checkpoint file size in bytes.
    pub bytes: u64,
    /// Whether the log could be truncated afterwards.
    pub log_truncated: bool,
}

/// Server, store and queue counters returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Documents live in the store.
    pub documents: u64,
    /// Highest fsync'd LSN.
    pub durable_lsn: u64,
    /// WAL fsyncs since open — compare against request counts to see the
    /// group-commit win.
    pub wal_syncs: u64,
    /// Batches accepted by the queue over its lifetime.
    pub submitted: u64,
    /// Queue drains that wrote a record.
    pub flushes: u64,
    /// Batches drained so far (`submitted` minus those still queued): a
    /// drain writes one job per batch. The name is kept for protocol 1.
    pub coalesced_jobs: u64,
    /// Ops queued right now.
    pub pending_ops: u64,
    /// Age of the oldest queued batch in microseconds (`None` when the
    /// queue is empty).
    pub oldest_pending_age_us: Option<u64>,
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Requests answered since the server started.
    pub requests: u64,
}

/// One response record; the request id of the frame echoes the request
/// it answers.
#[derive(Debug, Clone)]
pub enum Response {
    /// The request failed; see [`ErrorCode`] for whether the connection
    /// survives.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// [`Request::LoadXml`] succeeded and is durable.
    Loaded {
        /// Id of the freshly loaded document.
        doc: DocId,
    },
    /// [`Request::ApplyBatch`] is durable and applied.
    Applied {
        /// Outcome of the batch.
        stats: WireBatchStats,
    },
    /// [`Request::Query`] result.
    Matches {
        /// Matches in document order.
        matches: QueryMatches,
    },
    /// [`Request::ToXml`] result.
    Xml {
        /// Serialized document text.
        text: String,
    },
    /// [`Request::Checkpoint`] succeeded.
    CheckpointDone {
        /// What the checkpoint covered.
        report: WireCheckpoint,
    },
    /// [`Request::Stats`] result.
    Stats {
        /// Current counters.
        stats: WireStats,
    },
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

fn write_string(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn proto_err(detail: impl Into<String>) -> RepairError {
    RepairError::Protocol {
        detail: detail.into(),
    }
}

/// Encodes one request as a complete frame (header included).
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut p = vec![PROTOCOL_VERSION];
    write_varint(&mut p, id);
    match req {
        Request::LoadXml { tree } => {
            p.push(1);
            write_tree(&mut p, tree);
        }
        Request::ApplyBatch { doc, ops } => {
            p.push(2);
            write_doc(&mut p, *doc);
            write_ops(&mut p, ops);
        }
        Request::Query { doc, path } => {
            p.push(3);
            write_doc(&mut p, *doc);
            write_string(&mut p, path);
        }
        Request::ToXml { doc } => {
            p.push(4);
            write_doc(&mut p, *doc);
        }
        Request::Checkpoint => p.push(5),
        Request::Stats => p.push(6),
    }
    frame::seal(&p)
}

/// Decodes a request payload (the bytes *after* the frame header, CRC
/// already verified). Returns the request id alongside the request; every
/// failure is a typed [`RepairError::Protocol`].
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request)> {
    let mut r = WireReader::new(payload);
    let version = r.byte().map_err(|e| proto_err(e.to_string()))?;
    if version != PROTOCOL_VERSION {
        return Err(proto_err(format!(
            "unsupported protocol version {version} (expected {PROTOCOL_VERSION})"
        )));
    }
    let id = r.varint().map_err(|e| proto_err(e.to_string()))?;
    let kind = r.byte().map_err(|e| proto_err(e.to_string()))?;
    let req = match kind {
        1 => Request::LoadXml {
            tree: r.tree().map_err(|e| proto_err(e.to_string()))?,
        },
        2 => {
            let doc = read_doc(&mut r).map_err(proto_err)?;
            let ops = r.ops().map_err(|e| proto_err(e.to_string()))?;
            Request::ApplyBatch { doc, ops }
        }
        3 => {
            let doc = read_doc(&mut r).map_err(proto_err)?;
            let path = r.string().map_err(|e| proto_err(e.to_string()))?;
            Request::Query { doc, path }
        }
        4 => Request::ToXml {
            doc: read_doc(&mut r).map_err(proto_err)?,
        },
        5 => Request::Checkpoint,
        6 => Request::Stats,
        other => return Err(proto_err(format!("unknown request kind {other}"))),
    };
    if !r.finished() {
        return Err(proto_err(format!(
            "{} trailing bytes after request body",
            r.remaining()
        )));
    }
    Ok((id, req))
}

/// Encodes one response as a complete frame (header included).
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut p = vec![PROTOCOL_VERSION];
    write_varint(&mut p, id);
    match resp {
        Response::Error { code, message } => {
            p.push(0);
            p.push(code.to_byte());
            write_string(&mut p, message);
        }
        Response::Loaded { doc } => {
            p.push(1);
            write_doc(&mut p, *doc);
        }
        Response::Applied { stats } => {
            p.push(2);
            for v in [stats.ops, stats.chunks, stats.edges_before, stats.edges_after] {
                write_varint(&mut p, v);
            }
        }
        Response::Matches { matches } => {
            p.push(3);
            write_varint(&mut p, matches.positions.len() as u64);
            for &pos in &matches.positions {
                write_varint(&mut p, pos);
            }
            for label in &matches.labels {
                write_string(&mut p, label);
            }
        }
        Response::Xml { text } => {
            p.push(4);
            write_string(&mut p, text);
        }
        Response::CheckpointDone { report } => {
            p.push(5);
            write_varint(&mut p, report.last_lsn);
            write_varint(&mut p, report.documents);
            write_varint(&mut p, report.bytes);
            p.push(report.log_truncated as u8);
        }
        Response::Stats { stats } => {
            p.push(6);
            for v in [
                stats.documents,
                stats.durable_lsn,
                stats.wal_syncs,
                stats.submitted,
                stats.flushes,
                stats.coalesced_jobs,
                stats.pending_ops,
                stats.connections,
                stats.requests,
            ] {
                write_varint(&mut p, v);
            }
            match stats.oldest_pending_age_us {
                None => p.push(0),
                Some(us) => {
                    p.push(1);
                    write_varint(&mut p, us);
                }
            }
        }
    }
    frame::seal(&p)
}

/// Decodes a response payload (CRC already verified); the mirror of
/// [`decode_response`]'s producer, used by [`crate::client`].
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response)> {
    let mut r = WireReader::new(payload);
    let version = r.byte().map_err(|e| proto_err(e.to_string()))?;
    if version != PROTOCOL_VERSION {
        return Err(proto_err(format!(
            "unsupported protocol version {version} (expected {PROTOCOL_VERSION})"
        )));
    }
    let id = r.varint().map_err(|e| proto_err(e.to_string()))?;
    let kind = r.byte().map_err(|e| proto_err(e.to_string()))?;
    let resp = match kind {
        0 => {
            let code = r.byte().map_err(|e| proto_err(e.to_string()))?;
            let code = ErrorCode::from_byte(code)
                .ok_or_else(|| proto_err(format!("unknown error code {code}")))?;
            let message = r.string().map_err(|e| proto_err(e.to_string()))?;
            Response::Error { code, message }
        }
        1 => Response::Loaded {
            doc: read_doc(&mut r).map_err(proto_err)?,
        },
        2 => {
            let mut vals = [0u64; 4];
            for v in vals.iter_mut() {
                *v = r.varint().map_err(|e| proto_err(e.to_string()))?;
            }
            Response::Applied {
                stats: WireBatchStats {
                    ops: vals[0],
                    chunks: vals[1],
                    edges_before: vals[2],
                    edges_after: vals[3],
                },
            }
        }
        3 => {
            let n = r.count(1, "match").map_err(|e| proto_err(e.to_string()))?;
            let mut positions = Vec::with_capacity(n);
            for _ in 0..n {
                positions.push(r.varint().map_err(|e| proto_err(e.to_string()))?);
            }
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(r.string().map_err(|e| proto_err(e.to_string()))?);
            }
            Response::Matches {
                matches: QueryMatches { positions, labels },
            }
        }
        4 => Response::Xml {
            text: r.string().map_err(|e| proto_err(e.to_string()))?,
        },
        5 => {
            let last_lsn = r.varint().map_err(|e| proto_err(e.to_string()))?;
            let documents = r.varint().map_err(|e| proto_err(e.to_string()))?;
            let bytes = r.varint().map_err(|e| proto_err(e.to_string()))?;
            let log_truncated = match r.byte().map_err(|e| proto_err(e.to_string()))? {
                0 => false,
                1 => true,
                other => return Err(proto_err(format!("bad bool byte {other}"))),
            };
            Response::CheckpointDone {
                report: WireCheckpoint {
                    last_lsn,
                    documents,
                    bytes,
                    log_truncated,
                },
            }
        }
        6 => {
            let mut vals = [0u64; 9];
            for v in vals.iter_mut() {
                *v = r.varint().map_err(|e| proto_err(e.to_string()))?;
            }
            let oldest_pending_age_us = match r.byte().map_err(|e| proto_err(e.to_string()))? {
                0 => None,
                1 => Some(r.varint().map_err(|e| proto_err(e.to_string()))?),
                other => return Err(proto_err(format!("bad option byte {other}"))),
            };
            Response::Stats {
                stats: WireStats {
                    documents: vals[0],
                    durable_lsn: vals[1],
                    wal_syncs: vals[2],
                    submitted: vals[3],
                    flushes: vals[4],
                    coalesced_jobs: vals[5],
                    pending_ops: vals[6],
                    connections: vals[7],
                    requests: vals[8],
                    oldest_pending_age_us,
                },
            }
        }
        other => return Err(proto_err(format!("unknown response kind {other}"))),
    };
    if !r.finished() {
        return Err(proto_err(format!(
            "{} trailing bytes after response body",
            r.remaining()
        )));
    }
    Ok((id, resp))
}

// ---------------------------------------------------------------------------
// Stream plumbing shared by server and client
// ---------------------------------------------------------------------------

/// One connected socket, TCP or unix; the protocol is identical on both.
#[derive(Debug)]
pub(crate) enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

pub(crate) enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// Clean end of stream before the first byte.
    Eof,
    /// The stop flag was raised while polling.
    Stopped,
    /// The stream died (including EOF mid-frame).
    Failed(String),
}

/// Fills `buf` from `stream`, tolerating read-timeout wakeups (the
/// server's shutdown poll) and partial reads. `started` marks whether
/// earlier bytes of the same frame were already consumed — EOF is clean
/// only on a frame boundary.
pub(crate) fn read_full(
    stream: &mut Conn,
    buf: &mut [u8],
    stop: Option<&AtomicBool>,
    started: bool,
) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && !started {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Failed("connection closed mid-frame".into())
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
                ) =>
            {
                if let Some(stop) = stop {
                    if stop.load(Ordering::Acquire) {
                        return ReadOutcome::Stopped;
                    }
                } else if e.kind() != io::ErrorKind::Interrupted {
                    // No stop flag to poll (client side): a timeout is a
                    // dead peer.
                    return ReadOutcome::Failed(format!("read timed out: {e}"));
                }
            }
            Err(e) => return ReadOutcome::Failed(e.to_string()),
        }
    }
    ReadOutcome::Full
}

pub(crate) enum FrameOutcome {
    /// A CRC-verified payload.
    Payload(Vec<u8>),
    /// Clean end of stream between frames.
    Eof,
    /// The stop flag was raised.
    Stopped,
    /// The stream died.
    Io(String),
    /// The bytes are not a valid frame (oversized or CRC mismatch); the
    /// stream is no longer frame-aligned.
    Corrupt(String),
}

/// Reads one frame: header, length bound, payload, CRC check.
pub(crate) fn read_frame(stream: &mut Conn, stop: Option<&AtomicBool>, max_len: u32) -> FrameOutcome {
    let mut header = [0u8; FRAME_HEADER_LEN];
    match read_full(stream, &mut header, stop, false) {
        ReadOutcome::Full => {}
        ReadOutcome::Eof => return FrameOutcome::Eof,
        ReadOutcome::Stopped => return FrameOutcome::Stopped,
        ReadOutcome::Failed(e) => return FrameOutcome::Io(e),
    }
    let len = frame::payload_len(&header);
    if len > max_len {
        // Reject before allocating: arbitrary bytes must not drive memory.
        return FrameOutcome::Corrupt(format!(
            "frame length {len} exceeds the {max_len}-byte cap"
        ));
    }
    let mut payload = vec![0u8; len as usize];
    match read_full(stream, &mut payload, stop, true) {
        ReadOutcome::Full => {}
        ReadOutcome::Eof => unreachable!("mid-frame EOF reports Failed"),
        ReadOutcome::Stopped => return FrameOutcome::Stopped,
        ReadOutcome::Failed(e) => return FrameOutcome::Io(e),
    }
    if let Err(e) = frame::verify(&header, &payload) {
        return FrameOutcome::Corrupt(format!("frame {e}"));
    }
    FrameOutcome::Payload(payload)
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// How long an `ApplyBatch` ack waits for its drain before answering
/// [`ErrorCode::Timeout`].
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// What a deployment sets on one [`Server`]. The queue's drainer always
/// runs [`DrainPolicy::default`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Backpressure bounds of the queue (see the module docs).
    pub queue: QueueConfig,
    /// Reject request frames longer than this before allocating.
    pub max_frame_len: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue: QueueConfig::default(),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// Point-in-time counters of a running [`Server`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered (including error replies).
    pub requests: u64,
    /// Frames rejected as protocol violations.
    pub protocol_errors: u64,
}

struct Shared {
    queue: Arc<IngestQueue>,
    config: ServerConfig,
    stop: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    /// Running connection handler threads by connection number. A handler
    /// drops its own entry when it exits; shutdown joins the rest.
    handlers: Mutex<HashMap<u64, JoinHandle<()>>>,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A running wire-protocol server (see the module docs). Dropping the
/// server shuts it down: the acceptor stops, every connection handler is
/// joined, and the queue's drainer runs one final flush.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
}

impl Server {
    /// Serves `store` over TCP on `addr` (e.g. `"127.0.0.1:0"`; the
    /// ephemeral port is readable via [`local_addr`](Server::local_addr)).
    pub fn serve_tcp(store: Arc<DurableStore>, addr: &str, config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr).map_err(|e| RepairError::Storage {
            detail: format!("binding tcp listener on {addr}: {e}"),
        })?;
        let tcp_addr = listener.local_addr().ok();
        Self::start(store, Listener::Tcp(listener), tcp_addr, config)
    }

    /// Serves `store` over a unix-domain socket bound at `path` (removed
    /// and re-created if a stale socket file is present).
    #[cfg(unix)]
    pub fn serve_unix(
        store: Arc<DurableStore>,
        path: &Path,
        config: ServerConfig,
    ) -> Result<Server> {
        if path.exists() {
            let _ = std::fs::remove_file(path);
        }
        let listener = UnixListener::bind(path).map_err(|e| RepairError::Storage {
            detail: format!("binding unix listener at {}: {e}", path.display()),
        })?;
        Self::start(store, Listener::Unix(listener), None, config)
    }

    fn start(
        store: Arc<DurableStore>,
        listener: Listener,
        tcp_addr: Option<SocketAddr>,
        config: ServerConfig,
    ) -> Result<Server> {
        let queue = Arc::new(IngestQueue::with_config(store, config.queue));
        queue.start_drainer(DrainPolicy::default());
        let shared = Arc::new(Shared {
            queue,
            config,
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            handlers: Mutex::new(HashMap::new()),
        });
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(true),
        }
        .map_err(|e| RepairError::Storage {
            detail: format!("setting listener non-blocking: {e}"),
        })?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sltxml-acceptor".into())
                .spawn(move || accept_loop(&shared, listener))
                .map_err(|e| RepairError::Storage {
                    detail: format!("spawning acceptor: {e}"),
                })?
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            tcp_addr,
        })
    }

    /// The bound TCP address (`None` for unix-socket servers).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The ingestion queue the server routes writes through (its store is
    /// reachable via [`IngestQueue::store`]).
    pub fn queue(&self) -> &Arc<IngestQueue> {
        &self.shared.queue
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, joins every connection handler, and stops the
    /// queue's drainer (one final flush — queued acked work is already
    /// durable by definition, this drains the unacked tail). Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handlers = std::mem::take(
            &mut *self
                .shared
                .handlers
                .lock()
                .expect("handler list lock never poisoned"),
        );
        for h in handlers.into_values() {
            let _ = h.join();
        }
        self.shared.queue.stop_drainer();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        };
        match accepted {
            Ok(conn) => {
                // The accepted socket inherits non-blocking on some
                // platforms; handlers want blocking reads with a timeout
                // poll for the stop flag.
                let blocking_ok = match &conn {
                    Conn::Tcp(s) => s.set_nonblocking(false).is_ok(),
                    #[cfg(unix)]
                    Conn::Unix(s) => s.set_nonblocking(false).is_ok(),
                };
                if !blocking_ok || conn.set_read_timeout(Some(Duration::from_millis(25))).is_err()
                {
                    continue;
                }
                let number = shared.connections.fetch_add(1, Ordering::Relaxed);
                let shared_conn = Arc::clone(shared);
                // Held across the spawn, so the handler's own removal
                // always finds its entry. A handler that panics keeps its
                // entry, and shutdown joins it.
                let mut handlers = shared
                    .handlers
                    .lock()
                    .expect("handler list lock never poisoned");
                let handle = std::thread::Builder::new()
                    .name("sltxml-conn".into())
                    .spawn(move || {
                        handle_conn(&shared_conn, conn);
                        shared_conn
                            .handlers
                            .lock()
                            .expect("handler list lock never poisoned")
                            .remove(&number);
                    });
                if let Ok(handle) = handle {
                    handlers.insert(number, handle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Writes one response frame under the connection's writer lock. Returns
/// `false` once the peer is gone (the caller stops serving).
fn send_reply(writer: &Mutex<Conn>, id: u64, response: &Response) -> bool {
    let reply = encode_response(id, response);
    let mut w = writer.lock().expect("reply writer lock never poisoned");
    w.write_all(&reply).is_ok() && w.flush().is_ok()
}

/// The per-connection ack worker: redeems queued tickets in submission
/// order and writes `Applied` replies as group commits land. Runs until
/// the reader drops its channel sender; keeps redeeming (without
/// writing) after the first failed write so no ticket result is left
/// unconsumed in the queue.
fn ack_loop(
    queue: &IngestQueue,
    writer: &Mutex<Conn>,
    acks: &mpsc::Receiver<(u64, crate::queue::Ticket)>,
) {
    let mut broken = false;
    while let Ok((id, ticket)) = acks.recv() {
        let response = match queue.wait_timeout(ticket, REPLY_TIMEOUT) {
            Ok(stats) => Response::Applied {
                stats: stats.into(),
            },
            Err(e @ QueueError::Timeout { .. }) => Response::Error {
                code: ErrorCode::Timeout,
                message: e.to_string(),
            },
            Err(QueueError::Store(e)) => store_error(e),
            Err(e @ QueueError::WouldBlock { .. }) => Response::Error {
                code: ErrorCode::Backpressure,
                message: e.to_string(),
            },
        };
        if !broken && !send_reply(writer, id, &response) {
            broken = true;
        }
    }
}

fn handle_conn(shared: &Shared, mut conn: Conn) {
    let Ok(writer) = conn.try_clone() else { return };
    let writer = Arc::new(Mutex::new(writer));
    let (ack_tx, ack_rx) = mpsc::channel();
    let acker = {
        let writer = Arc::clone(&writer);
        let queue = Arc::clone(&shared.queue);
        std::thread::Builder::new()
            .name("sltxml-ack".into())
            .spawn(move || ack_loop(&queue, &writer, &ack_rx))
    };
    let Ok(acker) = acker else { return };

    loop {
        let payload = match read_frame(&mut conn, Some(&shared.stop), shared.config.max_frame_len)
        {
            FrameOutcome::Payload(p) => p,
            FrameOutcome::Eof | FrameOutcome::Stopped | FrameOutcome::Io(_) => break,
            FrameOutcome::Corrupt(detail) => {
                // The stream is no longer frame-aligned: one typed reply,
                // then close.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                shared.requests.fetch_add(1, Ordering::Relaxed);
                send_reply(
                    &writer,
                    0,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: detail,
                    },
                );
                conn.shutdown();
                break;
            }
        };
        let (id, request) = match decode_request(&payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                shared.requests.fetch_add(1, Ordering::Relaxed);
                send_reply(
                    &writer,
                    0,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    },
                );
                conn.shutdown();
                break;
            }
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            // Submit on the reader thread (so Block-mode backpressure
            // stalls frame intake), ack from the worker (so pipelined
            // batches share group commits).
            Request::ApplyBatch { doc, ops } => match shared.queue.submit(doc, ops) {
                Ok(ticket) => {
                    if ack_tx.send((id, ticket)).is_err() {
                        break;
                    }
                }
                Err(e @ QueueError::WouldBlock { .. }) => {
                    let busy = Response::Error {
                        code: ErrorCode::Backpressure,
                        message: e.to_string(),
                    };
                    if !send_reply(&writer, id, &busy) {
                        break;
                    }
                }
                Err(e) => {
                    let failed = Response::Error {
                        code: ErrorCode::Store,
                        message: e.to_string(),
                    };
                    if !send_reply(&writer, id, &failed) {
                        break;
                    }
                }
            },
            other => {
                let response = dispatch(shared, other);
                if !send_reply(&writer, id, &response) {
                    break;
                }
            }
        }
    }
    drop(ack_tx);
    let _ = acker.join();
}

fn store_error(e: RepairError) -> Response {
    Response::Error {
        code: ErrorCode::Store,
        message: e.to_string(),
    }
}

fn dispatch(shared: &Shared, request: Request) -> Response {
    let store = shared.queue.store();
    match request {
        Request::LoadXml { tree } => match store.load_xml(&tree) {
            // load_xml returns with its WAL record committed and fsync'd:
            // this reply is an ack in the same sense as Applied.
            Ok(doc) => Response::Loaded { doc },
            Err(e) => store_error(e),
        },
        // ApplyBatch never reaches dispatch: `handle_conn` intercepts it
        // so the ack can come from the connection's ack worker.
        Request::ApplyBatch { .. } => Response::Error {
            code: ErrorCode::Protocol,
            message: "ApplyBatch is served by the connection's ack worker".into(),
        },
        Request::Query { doc, path } => match store.query_str(doc, &path) {
            Ok(matches) => Response::Matches { matches },
            Err(e) => store_error(e),
        },
        Request::ToXml { doc } => {
            let cap = shared.config.max_frame_len;
            let budget = (cap as usize).saturating_sub(XML_REPLY_OVERHEAD);
            match store.xml_text(doc, budget) {
                Ok(text) => Response::Xml { text },
                Err(RepairError::OutputTooLarge { .. }) => Response::Error {
                    code: ErrorCode::Store,
                    message: format!("document text does not fit the {cap}-byte frame cap"),
                },
                Err(e) => store_error(e),
            }
        }
        Request::Checkpoint => match store.checkpoint() {
            Ok(report) => Response::CheckpointDone {
                report: WireCheckpoint {
                    last_lsn: report.last_lsn,
                    documents: report.documents as u64,
                    bytes: report.bytes as u64,
                    log_truncated: report.log_truncated,
                },
            },
            Err(e) => store_error(e),
        },
        Request::Stats => {
            let queued = shared.queue.pending_batches() as u64;
            let q = shared.queue.stats();
            Response::Stats {
                stats: WireStats {
                    documents: store.len() as u64,
                    durable_lsn: store.durable_lsn(),
                    wal_syncs: store.wal_sync_count(),
                    submitted: q.submitted,
                    flushes: q.flushes,
                    coalesced_jobs: q.submitted.saturating_sub(queued),
                    pending_ops: q.pending_ops,
                    oldest_pending_age_us: q
                        .oldest_pending_age
                        .map(|age| age.as_micros().min(u64::MAX as u128) as u64),
                    connections: shared.connections.load(Ordering::Relaxed),
                    requests: shared.requests.load(Ordering::Relaxed),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::crc32::crc32;
    use xmltree::parse::parse_xml;

    fn sample_tree() -> XmlTree {
        parse_xml("<feed><item><title/><body><p/><p/></body></item></feed>").unwrap()
    }

    #[test]
    fn requests_roundtrip_through_the_codec() {
        let doc = DocId::from_parts(3, 7);
        let requests = vec![
            Request::LoadXml { tree: sample_tree() },
            Request::ApplyBatch {
                doc,
                ops: vec![UpdateOp::Rename {
                    target: 1,
                    label: "entry".into(),
                }],
            },
            Request::Query {
                doc,
                path: "//item/title".into(),
            },
            Request::ToXml { doc },
            Request::Checkpoint,
            Request::Stats,
        ];
        for (i, req) in requests.into_iter().enumerate() {
            let frame = encode_request(i as u64 + 10, &req);
            let payload = &frame[FRAME_HEADER_LEN..];
            assert_eq!(
                u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize,
                payload.len()
            );
            assert_eq!(
                u32::from_le_bytes(frame[4..8].try_into().unwrap()),
                crc32(payload)
            );
            let (id, decoded) = decode_request(payload).unwrap();
            assert_eq!(id, i as u64 + 10);
            // Re-encoding the decoded request must reproduce the frame
            // byte for byte (the codec is canonical).
            assert_eq!(encode_request(id, &decoded), frame);
        }
    }

    #[test]
    fn responses_roundtrip_through_the_codec() {
        let responses = vec![
            Response::Error {
                code: ErrorCode::Backpressure,
                message: "full".into(),
            },
            Response::Loaded {
                doc: DocId::from_parts(0, 1),
            },
            Response::Applied {
                stats: WireBatchStats {
                    ops: 4,
                    chunks: 2,
                    edges_before: 100,
                    edges_after: 104,
                },
            },
            Response::Matches {
                matches: QueryMatches {
                    positions: vec![1, 5, 9],
                    labels: vec!["a".into(), "b".into(), "c".into()],
                },
            },
            Response::Xml {
                text: "<feed/>".into(),
            },
            Response::CheckpointDone {
                report: WireCheckpoint {
                    last_lsn: 42,
                    documents: 3,
                    bytes: 1024,
                    log_truncated: true,
                },
            },
            Response::Stats {
                stats: WireStats {
                    documents: 2,
                    durable_lsn: 17,
                    wal_syncs: 5,
                    submitted: 100,
                    flushes: 4,
                    coalesced_jobs: 8,
                    pending_ops: 12,
                    oldest_pending_age_us: Some(1500),
                    connections: 3,
                    requests: 120,
                },
            },
        ];
        for (i, resp) in responses.into_iter().enumerate() {
            let frame = encode_response(i as u64, &resp);
            let (id, decoded) = decode_response(&frame[FRAME_HEADER_LEN..]).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(encode_response(id, &decoded), frame);
        }
    }

    #[test]
    fn corrupt_payloads_decode_to_typed_errors() {
        // Unknown kind.
        let mut p = vec![PROTOCOL_VERSION];
        write_varint(&mut p, 1);
        p.push(200);
        assert!(matches!(
            decode_request(&p),
            Err(RepairError::Protocol { .. })
        ));
        // Bad version.
        assert!(matches!(
            decode_request(&[99, 0, 5]),
            Err(RepairError::Protocol { .. })
        ));
        // Trailing bytes.
        let mut frame = encode_request(1, &Request::Checkpoint);
        frame.push(0xFF);
        assert!(matches!(
            decode_request(&frame[FRAME_HEADER_LEN..]),
            Err(RepairError::Protocol { .. })
        ));
        // Truncated body.
        let frame = encode_request(
            1,
            &Request::Query {
                doc: DocId::from_parts(1, 1),
                path: "//a".into(),
            },
        );
        let payload = &frame[FRAME_HEADER_LEN..];
        assert!(matches!(
            decode_request(&payload[..payload.len() - 2]),
            Err(RepairError::Protocol { .. })
        ));
        // A match count no remaining bytes could back must not allocate.
        let mut p = vec![PROTOCOL_VERSION];
        write_varint(&mut p, 1);
        p.push(3);
        write_varint(&mut p, u64::MAX >> 8);
        assert!(matches!(
            decode_response(&p),
            Err(RepairError::Protocol { .. })
        ));
    }

    #[test]
    fn a_closed_connection_drops_its_handler_entry() {
        let fs = Arc::new(crate::wal::testing::FailpointFs::new());
        let (store, _) = DurableStore::open_with(fs, "db").unwrap();
        let server =
            Server::serve_tcp(Arc::new(store), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        for _ in 0..32 {
            let client = crate::client::Client::connect_tcp(addr.clone());
            client.stats().unwrap();
        }
        assert_eq!(server.stats().connections, 32);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let running = || server.shared.handlers.lock().unwrap().len();
        while running() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(running(), 0, "every closed connection's handler is gone");
    }
}
