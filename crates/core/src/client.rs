//! Synchronous, reconnecting, pipelined client for the
//! [`core::server`](crate::server) wire protocol.
//!
//! One [`Client`] owns one socket shared by any number of threads:
//! requests are written under a single writer lock (frames never
//! interleave), replies are dispatched by request id under a
//! reader-leader protocol — whichever waiting thread finds no leader
//! becomes it, reads exactly one frame, posts the reply into a shared
//! map by id, and hands leadership back. This mirrors the ingestion
//! queue's flush leadership and is what makes **pipelining** work: N
//! threads (or one thread using [`Client::begin`]) can have N requests
//! in flight on one socket, which is how the server's drain policy gets
//! whole windows of batches to coalesce into one fsync.
//!
//! # Reconnection
//!
//! The client stores its [`Endpoint`], not just a stream. When the
//! connection dies (I/O error, timeout, server restart), every in-flight
//! request fails with a storage error, the socket is dropped, and the
//! **next** request dials a fresh connection. Failed requests are *not*
//! resent automatically: an `ApplyBatch` whose reply was lost may or may
//! not have committed (the classic exactly-once impossibility), so the
//! retry decision belongs to the caller, who knows whether the batch is
//! idempotent.
//!
//! # Error mapping
//!
//! A [`Response::Error`] reply maps onto [`RepairError`] by its
//! [`ErrorCode`]: `Protocol` → [`RepairError::Protocol`], everything
//! else → [`RepairError::Storage`] with the code name prefixed to the
//! message (`timeout: …`, `backpressure: …`), so callers can branch on
//! the prefix without a wire-level enum in their signatures.

use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

use crate::error::{RepairError, Result};
use crate::query::QueryMatches;
use crate::server::{
    decode_response, encode_request, read_frame, Conn, ErrorCode, FrameOutcome, Request, Response,
    WireBatchStats, WireCheckpoint, WireStats, DEFAULT_MAX_FRAME_LEN,
};
use crate::store::DocId;

/// Where a [`Client`] dials (kept for reconnection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address in `host:port` form.
    Tcp(String),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Client tuning.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Reject response frames longer than this before allocating.
    pub max_frame_len: u32,
    /// Per-read socket timeout; a reply slower than this poisons the
    /// connection (the server's own reply timeout should be shorter).
    pub read_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_timeout: Duration::from_secs(60),
        }
    }
}

struct WriteState {
    /// The live connection's writing half (`None` between connections).
    conn: Option<Conn>,
    /// Bumped on every reconnect so a stale reader can't poison the
    /// replacement connection.
    epoch: u64,
    next_id: u64,
}

struct ReadState {
    /// Request ids written but not yet answered.
    inflight: HashSet<u64>,
    /// Replies posted by the reader leader, keyed by request id.
    ready: HashMap<u64, Result<Response>>,
    /// A thread is currently reading one frame.
    leader: bool,
}

struct Inner {
    endpoint: Endpoint,
    config: ClientConfig,
    /// Lock order: `write` before `read`, never the reverse.
    write: Mutex<WriteState>,
    read: Mutex<ReadState>,
    cond: Condvar,
}

/// A pipelined request in flight; redeem it with [`Pending::wait`].
#[must_use = "a pipelined request's reply must be waited on"]
pub struct Pending {
    inner: Arc<Inner>,
    id: u64,
    /// Reading half of the connection the request was written to.
    conn: Conn,
    epoch: u64,
}

/// A synchronous wire-protocol client (see the module docs). Cheap to
/// clone; clones share the socket and its pipeline.
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
}

impl Client {
    /// Creates a client for `endpoint` with default tuning. Dialing is
    /// lazy: the first request connects.
    pub fn connect(endpoint: Endpoint) -> Client {
        Client::with_config(endpoint, ClientConfig::default())
    }

    /// Creates a client with explicit tuning (dialing stays lazy).
    pub fn with_config(endpoint: Endpoint, config: ClientConfig) -> Client {
        Client {
            inner: Arc::new(Inner {
                endpoint,
                config,
                write: Mutex::new(WriteState {
                    conn: None,
                    epoch: 0,
                    next_id: 1,
                }),
                read: Mutex::new(ReadState {
                    inflight: HashSet::new(),
                    ready: HashMap::new(),
                    leader: false,
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// Convenience constructor for a TCP endpoint.
    pub fn connect_tcp(addr: impl Into<String>) -> Client {
        Client::connect(Endpoint::Tcp(addr.into()))
    }

    /// Convenience constructor for a unix-socket endpoint.
    #[cfg(unix)]
    pub fn connect_unix(path: impl Into<PathBuf>) -> Client {
        Client::connect(Endpoint::Unix(path.into()))
    }

    fn dial(&self) -> Result<Conn> {
        let conn = match &self.inner.endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr)
                .map(|s| {
                    let _ = s.set_nodelay(true);
                    Conn::Tcp(s)
                })
                .map_err(|e| RepairError::Storage {
                    detail: format!("connecting to {addr}: {e}"),
                })?,
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path)
                .map(Conn::Unix)
                .map_err(|e| RepairError::Storage {
                    detail: format!("connecting to {}: {e}", path.display()),
                })?,
        };
        conn.set_read_timeout(Some(self.inner.config.read_timeout))
            .map_err(|e| RepairError::Storage {
                detail: format!("setting read timeout: {e}"),
            })?;
        Ok(conn)
    }

    /// Writes one request without waiting for its reply — the pipelining
    /// primitive. Several `begin`s may be outstanding on one socket;
    /// redeem each with [`Pending::wait`] (any order).
    pub fn begin(&self, request: &Request) -> Result<Pending> {
        use std::io::Write as _;
        let mut ws = self.inner.write.lock().expect("client lock never poisoned");
        if ws.conn.is_none() {
            ws.conn = Some(self.dial()?);
        }
        let id = ws.next_id;
        ws.next_id += 1;
        let epoch = ws.epoch;
        let frame = encode_request(id, request);
        let write_result = {
            let conn = ws.conn.as_mut().expect("connected above");
            conn.write_all(&frame).and_then(|_| conn.flush())
        };
        if let Err(e) = write_result {
            ws.conn = None;
            ws.epoch += 1;
            return Err(RepairError::Storage {
                detail: format!("connection lost writing request: {e}"),
            });
        }
        let reader = ws
            .conn
            .as_ref()
            .expect("connected above")
            .try_clone()
            .map_err(|e| RepairError::Storage {
                detail: format!("cloning socket reader: {e}"),
            })?;
        // write → read lock order.
        self.inner
            .read
            .lock()
            .expect("client lock never poisoned")
            .inflight
            .insert(id);
        drop(ws);
        Ok(Pending {
            inner: Arc::clone(&self.inner),
            id,
            conn: reader,
            epoch,
        })
    }

    /// Sends one request and blocks for its reply.
    pub fn request(&self, request: &Request) -> Result<Response> {
        self.begin(request)?.wait()
    }

    fn expect_ok<T>(
        result: Result<Response>,
        extract: impl FnOnce(Response) -> std::result::Result<T, Response>,
    ) -> Result<T> {
        match result? {
            Response::Error { code, message } => Err(match code {
                ErrorCode::Protocol => RepairError::Protocol { detail: message },
                ErrorCode::Store => RepairError::Storage { detail: message },
                ErrorCode::Timeout => RepairError::Storage {
                    detail: format!("timeout: {message}"),
                },
                ErrorCode::Backpressure => RepairError::Storage {
                    detail: format!("backpressure: {message}"),
                },
            }),
            other => extract(other).map_err(|unexpected| RepairError::Protocol {
                detail: format!("unexpected response variant: {unexpected:?}"),
            }),
        }
    }

    /// Loads a document on the server; the returned id is durable.
    pub fn load_xml(&self, tree: &XmlTree) -> Result<DocId> {
        Self::expect_ok(
            self.request(&Request::LoadXml { tree: tree.clone() }),
            |r| match r {
                Response::Loaded { doc } => Ok(doc),
                other => Err(other),
            },
        )
    }

    /// Applies one batch and blocks until the server acks it as durable.
    pub fn apply_batch(&self, doc: DocId, ops: Vec<UpdateOp>) -> Result<WireBatchStats> {
        self.begin_apply_batch(doc, ops)?.wait_applied()
    }

    /// Pipelined [`apply_batch`](Client::apply_batch): writes the request
    /// and returns immediately; redeem with [`PendingApply::wait_applied`].
    pub fn begin_apply_batch(&self, doc: DocId, ops: Vec<UpdateOp>) -> Result<PendingApply> {
        Ok(PendingApply {
            pending: self.begin(&Request::ApplyBatch { doc, ops })?,
        })
    }

    /// Evaluates a path query against the document's current snapshot.
    pub fn query(&self, doc: DocId, path: &str) -> Result<QueryMatches> {
        Self::expect_ok(
            self.request(&Request::Query {
                doc,
                path: path.into(),
            }),
            |r| match r {
                Response::Matches { matches } => Ok(matches),
                other => Err(other),
            },
        )
    }

    /// Serializes the document's current snapshot to XML text.
    pub fn to_xml(&self, doc: DocId) -> Result<String> {
        Self::expect_ok(self.request(&Request::ToXml { doc }), |r| match r {
            Response::Xml { text } => Ok(text),
            other => Err(other),
        })
    }

    /// Asks the server for a consistent-cut paged checkpoint.
    pub fn checkpoint(&self) -> Result<WireCheckpoint> {
        Self::expect_ok(self.request(&Request::Checkpoint), |r| match r {
            Response::CheckpointDone { report } => Ok(report),
            other => Err(other),
        })
    }

    /// Fetches server, store and queue counters.
    pub fn stats(&self) -> Result<WireStats> {
        Self::expect_ok(self.request(&Request::Stats), |r| match r {
            Response::Stats { stats } => Ok(stats),
            other => Err(other),
        })
    }
}

impl Pending {
    /// Blocks until this request's reply arrives (other threads' replies
    /// are dispatched to them, not discarded).
    pub fn wait(self) -> Result<Response> {
        let inner = Arc::clone(&self.inner);
        let Pending {
            id,
            mut conn,
            epoch,
            ..
        } = self;
        let max_len = inner.config.max_frame_len;
        let mut rs = inner.read.lock().expect("client lock never poisoned");
        loop {
            if let Some(reply) = rs.ready.remove(&id) {
                return reply;
            }
            if !rs.inflight.contains(&id) {
                return Err(RepairError::Storage {
                    detail: "reply already consumed".into(),
                });
            }
            if !rs.leader {
                rs.leader = true;
                drop(rs);
                let outcome = read_frame(&mut conn, None, max_len);
                rs = inner.read.lock().expect("client lock never poisoned");
                rs.leader = false;
                match outcome {
                    FrameOutcome::Payload(payload) => match decode_response(&payload) {
                        Ok((rid, response)) => {
                            if rs.inflight.remove(&rid) {
                                rs.ready.insert(rid, Ok(response));
                            }
                        }
                        Err(e) => {
                            // Framing is intact but the payload is not a
                            // response we understand; the stream itself
                            // is still aligned, yet we cannot know whose
                            // reply this was — poison everything.
                            rs = poison(&inner, rs, epoch, e.to_string());
                        }
                    },
                    FrameOutcome::Eof => {
                        rs = poison(&inner, rs, epoch, "server closed the connection".into());
                    }
                    FrameOutcome::Io(e) | FrameOutcome::Corrupt(e) => {
                        rs = poison(&inner, rs, epoch, e);
                    }
                    FrameOutcome::Stopped => unreachable!("client reads pass no stop flag"),
                }
                inner.cond.notify_all();
                continue;
            }
            rs = inner.cond.wait(rs).expect("client lock never poisoned");
        }
    }
}

/// Fails every in-flight request and drops the connection so the next
/// request redials. Releases the read lock before taking the write lock
/// (write → read order is never inverted) and hands back a fresh read
/// guard; the error results are posted before the lock is released, so
/// no waiter can observe a half-poisoned pipeline.
fn poison<'a>(
    inner: &'a Inner,
    mut rs: std::sync::MutexGuard<'a, ReadState>,
    epoch: u64,
    detail: String,
) -> std::sync::MutexGuard<'a, ReadState> {
    let ids: Vec<u64> = rs.inflight.drain().collect();
    for id in ids {
        rs.ready.insert(
            id,
            Err(RepairError::Storage {
                detail: format!("connection lost: {detail}"),
            }),
        );
    }
    drop(rs);
    {
        let mut ws = inner.write.lock().expect("client lock never poisoned");
        // A stale reader (from before a reconnect) must not tear down the
        // replacement connection — the epoch check pins the victim.
        if ws.epoch == epoch {
            if let Some(conn) = ws.conn.take() {
                conn.shutdown();
            }
            ws.epoch += 1;
        }
    }
    inner.read.lock().expect("client lock never poisoned")
}

/// A pipelined [`Client::begin_apply_batch`] in flight.
#[must_use = "a pipelined batch's ack must be waited on"]
pub struct PendingApply {
    pending: Pending,
}

impl PendingApply {
    /// Blocks until the server acks the batch as durable.
    pub fn wait_applied(self) -> Result<WireBatchStats> {
        Client::expect_ok(self.pending.wait(), |r| match r {
            Response::Applied { stats } => Ok(stats),
            other => Err(other),
        })
    }
}
