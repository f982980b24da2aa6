//! Wire-protocol integration and robustness suite for `core::server` /
//! `core::client`.
//!
//! The first half drives a live server end to end over TCP and unix
//! sockets (load → apply → query → serialize → checkpoint → stats) and
//! pins the coalescing contract: pipelined acknowledged batches share
//! group-committed fsyncs. The second half mirrors the v3-image
//! corruption suite at the network edge: arbitrary bytes, bit-flipped
//! valid frames and truncated frames must produce a typed protocol error
//! reply and a closed connection — never a panic, a hang, or an
//! allocation driven by attacker-controlled lengths — and the server
//! must keep serving fresh connections afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use grammar_repair::durable::DurableStore;
use grammar_repair::queue::DrainPolicy;
use grammar_repair::server::{
    encode_request, ErrorCode, Request, Response, Server, ServerConfig, FRAME_HEADER_LEN,
};
use grammar_repair::wal::testing::FailpointFs;
use grammar_repair::{Client, ClientConfig, DocId, Endpoint, RepairError};
use proptest::prelude::*;
use xmltree::parse::parse_xml;
use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

fn doc(tag: &str, n: usize) -> XmlTree {
    let mut s = format!("<{tag}>");
    for _ in 0..n {
        s.push_str("<item><title/><body><p/><p/></body></item>");
    }
    s.push_str(&format!("</{tag}>"));
    parse_xml(&s).unwrap()
}

fn rename(target: u32, label: &str) -> UpdateOp {
    UpdateOp::Rename {
        target: target as usize,
        label: label.into(),
    }
}

/// A snappy drain policy so tests don't sit in coalescing windows.
fn test_config() -> ServerConfig {
    ServerConfig {
        drain: DrainPolicy {
            max_pending_ops: 64,
            max_batch_age: Duration::from_millis(2),
            idle_flush: Duration::from_millis(1),
        },
        reply_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    }
}

fn tcp_server() -> (Arc<FailpointFs>, Server, Client) {
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    let server = Server::serve_tcp(Arc::new(store), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr().unwrap();
    let client = Client::connect_tcp(addr.to_string());
    (fs, server, client)
}

fn temp_sock(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "sltxml-test-{}-{name}.sock",
        std::process::id()
    ));
    p
}

#[test]
fn full_session_roundtrips_over_tcp() {
    let (_fs, server, client) = tcp_server();

    let a = client.load_xml(&doc("feed", 3)).unwrap();
    let b = client.load_xml(&doc("blog", 2)).unwrap();
    assert_ne!(a, b);

    let stats = client.apply_batch(a, vec![rename(1, "entry"), rename(5, "note")]).unwrap();
    assert_eq!(stats.ops, 2);

    let matches = client.query(a, "//entry").unwrap();
    assert_eq!(matches.labels, vec!["entry".to_string()]);

    let xml = client.to_xml(a).unwrap();
    assert!(xml.contains("<entry") && xml.contains("<note"));
    assert!(client.to_xml(b).unwrap().contains("<blog"));

    let report = client.checkpoint().unwrap();
    assert_eq!(report.documents, 2);

    let stats = client.stats().unwrap();
    assert_eq!(stats.documents, 2);
    assert!(stats.requests >= 6);
    assert!(stats.wal_syncs > 0);

    // Store-level failures keep the connection open.
    let err = client.apply_batch(a, vec![rename(3, "null-target")]).unwrap_err();
    assert!(matches!(err, RepairError::Storage { .. }), "got {err}");
    assert!(client.to_xml(a).unwrap().contains("<entry"), "connection survived");

    drop(server);
}

#[cfg(unix)]
#[test]
fn full_session_roundtrips_over_unix_socket() {
    let path = temp_sock("roundtrip");
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    let server = Server::serve_unix(Arc::new(store), &path, test_config()).unwrap();
    let client = Client::connect_unix(&path);

    let a = client.load_xml(&doc("feed", 2)).unwrap();
    client.apply_batch(a, vec![rename(1, "entry")]).unwrap();
    assert!(client.to_xml(a).unwrap().contains("<entry"));
    let stats = client.stats().unwrap();
    assert_eq!(stats.documents, 1);

    drop(server);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pipelined_acks_share_group_commits() {
    let (fs, server, client) = tcp_server();
    let a = client.load_xml(&doc("feed", 4)).unwrap();

    let syncs_before = fs.sync_count();
    const BATCHES: usize = 24;
    let pending: Vec<_> = (0..BATCHES)
        .map(|i| {
            client
                .begin_apply_batch(a, vec![rename(1, &format!("r{i}"))])
                .unwrap()
        })
        .collect();
    for p in pending {
        assert!(p.wait_applied().unwrap().ops >= 1);
    }
    let syncs = fs.sync_count() - syncs_before;
    assert!(
        (syncs as usize) < BATCHES,
        "{BATCHES} acknowledged batches must share fsyncs, got {syncs}"
    );
    drop(server);
}

#[test]
fn concurrent_clients_share_one_server() {
    let (_fs, server, client) = tcp_server();
    let mut ids = Vec::new();
    for d in 0..4 {
        ids.push(client.load_xml(&doc(&format!("doc{d}"), 3)).unwrap());
    }
    let threads: Vec<_> = ids
        .iter()
        .map(|&id| {
            let client = client.clone();
            std::thread::spawn(move || {
                for i in 0..6 {
                    client
                        .apply_batch(id, vec![rename(1, &format!("t{i}"))])
                        .unwrap();
                }
                client.to_xml(id).unwrap()
            })
        })
        .collect();
    for t in threads {
        assert!(t.join().unwrap().contains("<t5"));
    }
    let stats = server.stats();
    assert!(stats.requests >= 4 + 24 + 4);
    drop(server);
}

#[test]
fn client_reconnects_after_a_dead_connection() {
    let (fs, server, _) = tcp_server();
    let addr = server.local_addr().unwrap();
    // An impatient client: replies slower than 100 ms poison its
    // connection.
    let client = Client::with_config(
        Endpoint::Tcp(addr.to_string()),
        ClientConfig {
            read_timeout: Duration::from_millis(100),
            ..ClientConfig::default()
        },
    );
    let a = client.load_xml(&doc("feed", 2)).unwrap();

    // Stall the disk: the ack cannot arrive before the client times out.
    fs.set_sync_delay(Duration::from_millis(400));
    let err = client.apply_batch(a, vec![rename(1, "slow")]).unwrap_err();
    assert!(
        err.to_string().contains("connection lost"),
        "expected a poisoned connection, got {err}"
    );

    // The lost reply's batch may or may not have committed (the module
    // docs' retry caveat); either way the *next* request must redial
    // transparently and succeed.
    fs.set_sync_delay(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(500));
    assert!(client.to_xml(a).unwrap().contains("<item"));

    // A protocol-error close on one raw connection never disturbs the
    // reconnected client.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0xFF; 32]).unwrap();
    raw.flush().unwrap();
    let mut buf = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = raw.read_to_end(&mut buf);
    drop(raw);
    assert!(client.to_xml(a).unwrap().contains("<item"));
    drop(server);
}

/// A `ToXml` reply that would not fit the frame cap comes back as a store
/// error naming the cap, and the connection survives: a query pipelined
/// behind it on the same socket still gets its answer.
#[test]
fn oversized_to_xml_replies_fail_alone() {
    const CAP: u32 = 4096;
    let fs = Arc::new(FailpointFs::new());
    let (store, _) = DurableStore::open_with(fs, "db").unwrap();
    let config = ServerConfig {
        max_frame_len: CAP,
        ..test_config()
    };
    let server = Server::serve_tcp(Arc::new(store), "127.0.0.1:0", config).unwrap();
    let client = Client::with_config(
        Endpoint::Tcp(server.local_addr().unwrap().to_string()),
        ClientConfig {
            max_frame_len: CAP,
            ..ClientConfig::default()
        },
    );

    // 24 nested elements with 100-byte labels: ~2.5 KB on the wire as a
    // tree image, ~4.9 KB as text (every label is printed twice).
    let label = "x".repeat(100);
    let mut deep = XmlTree::new(&label);
    let mut at = deep.root();
    for _ in 1..24 {
        at = deep.add_child(at, &label);
    }
    assert!(deep.to_xml().len() > CAP as usize);
    let big = client.load_xml(&deep).unwrap();
    let small = client.load_xml(&doc("feed", 1)).unwrap();

    let to_xml = client.begin(&Request::ToXml { doc: big }).unwrap();
    let query = client
        .begin(&Request::Query {
            doc: big,
            path: format!("//{label}"),
        })
        .unwrap();
    match to_xml.wait().unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Store);
            assert!(
                message.contains(&format!("{CAP}-byte frame cap")),
                "got {message}"
            );
        }
        other => panic!("expected a store error, got {other:?}"),
    }
    match query.wait().unwrap() {
        Response::Matches { matches } => assert_eq!(matches.len(), 24),
        other => panic!("expected matches, got {other:?}"),
    }
    assert_eq!(client.to_xml(small).unwrap(), doc("feed", 1).to_xml());
    let err = client.to_xml(big).unwrap_err();
    assert!(matches!(err, RepairError::Storage { .. }), "got {err}");
    drop(server);
}

/// Sends raw bytes on a fresh connection, half-closes the write side,
/// and drains whatever the server sends back until it closes. Returns
/// the reply bytes. The 10 s timeout turns a hung server into a test
/// failure instead of a CI deadlock.
fn poke(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(bytes).unwrap();
    raw.flush().unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = Vec::new();
    let _ = raw.read_to_end(&mut reply);
    reply
}

/// A reply, if any, must be a single well-formed protocol-error frame.
fn assert_protocol_error_or_close(reply: &[u8]) {
    if reply.is_empty() {
        return; // closed without reply: mid-frame EOF
    }
    assert!(reply.len() >= FRAME_HEADER_LEN, "torn reply: {reply:?}");
    let payload = &reply[FRAME_HEADER_LEN..];
    let (_, response) = grammar_repair::server::decode_response(payload).unwrap();
    match response {
        grammar_repair::server::Response::Error { code, .. } => {
            assert_eq!(code, grammar_repair::server::ErrorCode::Protocol);
        }
        other => panic!("expected a protocol error reply, got {other:?}"),
    }
}

fn valid_frame(doc: DocId) -> Vec<u8> {
    encode_request(
        7,
        &Request::ApplyBatch {
            doc,
            ops: vec![rename(1, "entry")],
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary bytes never panic, hang, or OOM the server; every
    /// outcome is a typed error reply or a plain close, and the server
    /// keeps serving real clients afterwards.
    #[test]
    fn prop_server_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let (_fs, server, client) = tcp_server();
        let addr = server.local_addr().unwrap();
        let reply = poke(addr, &bytes);
        assert_protocol_error_or_close(&reply);
        // The server survived: a fresh, well-formed session succeeds.
        let a = client.load_xml(&doc("probe", 1)).unwrap();
        prop_assert!(client.to_xml(a).unwrap().contains("<probe"));
    }

    /// A single flipped bit anywhere in a valid frame is always caught
    /// by the length bound or the CRC — typed error or close, and no
    /// state change from the corrupted request.
    #[test]
    fn prop_bit_flipped_frames_are_rejected(seed in any::<u64>()) {
        let (_fs, server, client) = tcp_server();
        let addr = server.local_addr().unwrap();
        let a = client.load_xml(&doc("feed", 2)).unwrap();

        let mut frame = valid_frame(a);
        let bit = (seed as usize) % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        let reply = poke(addr, &frame);
        assert_protocol_error_or_close(&reply);
        // The corrupt ApplyBatch must not have landed.
        prop_assert!(!client.to_xml(a).unwrap().contains("<entry"));
        drop(server);
    }

    /// Every truncation of a valid frame closes cleanly (mid-frame EOF)
    /// or with a typed error; the partial request never applies.
    #[test]
    fn prop_truncated_frames_never_apply(seed in any::<u64>()) {
        let (_fs, server, client) = tcp_server();
        let addr = server.local_addr().unwrap();
        let a = client.load_xml(&doc("feed", 2)).unwrap();

        let frame = valid_frame(a);
        let len = (seed as usize) % frame.len();
        let reply = poke(addr, &frame[..len]);
        assert_protocol_error_or_close(&reply);
        prop_assert!(!client.to_xml(a).unwrap().contains("<entry"));
        drop(server);
    }
}

#[test]
fn oversized_length_headers_are_rejected_without_allocating() {
    let (_fs, server, _client) = tcp_server();
    let addr = server.local_addr().unwrap();
    // length = u32::MAX: a naive decoder would try a 4 GiB allocation.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 64]);
    let reply = poke(addr, &bytes);
    assert!(!reply.is_empty(), "an oversized length is detectable before EOF");
    assert_protocol_error_or_close(&reply);
    assert_eq!(server.stats().protocol_errors, 1);
    drop(server);
}
