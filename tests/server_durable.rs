//! Kill-and-recover suite at the network edge: acknowledged replies are
//! durable writes.
//!
//! `core::server` promises that an `Applied` (or `Loaded`) reply is sent
//! only after the write's WAL record is group-committed and fsync'd. These
//! tests drive a scripted session through a real socket and a real
//! [`Client`], kill the *disk* (via [`FailpointFs`]) at every fault point
//! the uninterrupted session consumes, recover a fresh [`DurableStore`]
//! from the surviving image, and pin the one-sided guarantee: **every
//! write the client saw acknowledged is present after recovery**. Unacked
//! writes may or may not have landed (the fsync can beat the reply to the
//! kill) — that direction is deliberately unchecked.
//!
//! Every batch renames a globally unique `(doc, target)` pair to a
//! globally unique label, so the post-recovery check is a simple
//! order-independent serialization scan. In debug builds the kill matrix
//! is strided to keep `cargo test` quick; CI runs a denser matrix in
//! release.

use std::sync::Arc;

use slt_xml::grammar_repair::server::ServerConfig;
use slt_xml::grammar_repair::wal::testing::FailpointFs;
use slt_xml::xmltree::parse::parse_xml;
use slt_xml::xmltree::updates::UpdateOp;
use slt_xml::xmltree::XmlTree;
use slt_xml::{Client, DocId, DurableStore, Server};

fn doc(tag: &str) -> XmlTree {
    let mut s = format!("<{tag}>");
    for _ in 0..3 {
        s.push_str("<item><title/><body><p/><p/></body></item>");
    }
    s.push_str(&format!("</{tag}>"));
    parse_xml(&s).unwrap()
}

/// The scripted session: two loads, six single-rename batches with
/// globally unique `(doc index, target, label)` triples, and one
/// mid-session checkpoint. Target preorder indices are non-null nodes of
/// the 3-item document's binary encoding.
const BATCHES: [(usize, usize, &str); 6] = [
    (0, 1, "ra0"),
    (1, 2, "rb0"),
    (0, 4, "ra1"),
    (1, 5, "rb1"),
    (0, 7, "ra2"),
    (1, 11, "rb2"),
];

/// One write the client saw acknowledged over the socket.
enum Acked {
    Load { doc: DocId, tag: &'static str },
    Rename { doc: DocId, label: &'static str },
}

/// Drives the session over a live TCP connection, collecting every
/// acknowledged write. Errors are expected — they are the dead disk
/// showing through as `Storage` replies; the script simply carries on.
fn run_session(client: &Client) -> Vec<Acked> {
    let mut acked = Vec::new();
    let mut ids: [Option<DocId>; 2] = [None, None];
    for (i, tag) in ["feed", "blog"].into_iter().enumerate() {
        if let Ok(id) = client.load_xml(&doc(tag)) {
            ids[i] = Some(id);
            acked.push(Acked::Load { doc: id, tag });
        }
    }
    for (i, (d, target, label)) in BATCHES.into_iter().enumerate() {
        if i == 3 {
            let _ = client.checkpoint(); // may fail on a dead disk
        }
        let Some(id) = ids[d] else { continue };
        let op = UpdateOp::Rename {
            target,
            label: (*label).into(),
        };
        if client.apply_batch(id, vec![op]).is_ok() {
            acked.push(Acked::Rename { doc: id, label });
        }
    }
    acked
}

fn start_server(fs: &Arc<FailpointFs>) -> (Server, Client) {
    let (store, _) = DurableStore::open_with(fs.clone(), "db").unwrap();
    let server =
        Server::serve_tcp(Arc::new(store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect_tcp(server.local_addr().unwrap().to_string());
    (server, client)
}

/// Sizes the kill matrix: fault points one uninterrupted session consumes
/// (counted from after server startup, like the kill runs arm after it).
fn total_fault_points() -> u64 {
    let fs = Arc::new(FailpointFs::new());
    let (server, client) = start_server(&fs);
    fs.reset_consumed();
    let acked = run_session(&client);
    assert_eq!(acked.len(), 8, "unarmed session must ack everything");
    drop(client);
    drop(server);
    fs.consumed()
}

/// Kills the disk at `point`, recovers, and asserts every acked write
/// survived.
fn kill_recover_check(point: u64) {
    let fs = Arc::new(FailpointFs::new());
    let (server, client) = start_server(&fs);
    fs.arm(point);
    let acked = run_session(&client);
    drop(client);
    drop(server); // joins handlers, final queue flush hits the dead disk
    fs.disarm();

    let (recovered, _) = DurableStore::open_with(fs, "db")
        .unwrap_or_else(|e| panic!("recovery after kill at point {point} failed: {e}"));
    for ack in &acked {
        match ack {
            Acked::Load { doc, tag } => {
                let xml = recovered
                    .to_xml(*doc)
                    .unwrap_or_else(|e| {
                        panic!("kill at {point}: acked load of <{tag}> lost: {e}")
                    })
                    .to_xml();
                assert!(
                    xml.starts_with(&format!("<{tag}")),
                    "kill at {point}: acked doc {doc:?} recovered with wrong root"
                );
            }
            Acked::Rename { doc, label } => {
                let xml = recovered
                    .to_xml(*doc)
                    .unwrap_or_else(|e| {
                        panic!("kill at {point}: doc of acked rename {label} lost: {e}")
                    })
                    .to_xml();
                assert!(
                    xml.contains(&format!("<{label}")),
                    "kill at {point}: acked rename to {label} missing after recovery"
                );
            }
        }
    }
}

fn matrix_stride(total: u64) -> u64 {
    if cfg!(debug_assertions) {
        (total / 48).max(1) // ~48 kill points in debug; CI runs denser in release
    } else {
        (total / 384).max(1)
    }
}

/// The satellite guarantee: a reply on the socket is a durable write, at
/// every instant the disk can die under a live server session.
#[test]
fn acked_replies_survive_a_kill_at_every_fault_point() {
    let total = total_fault_points();
    assert!(total > 100, "matrix suspiciously small: {total} fault points");
    let stride = matrix_stride(total);
    let mut point = 1;
    while point <= total {
        kill_recover_check(point);
        point += stride;
    }
    // Past-the-end arming: the kill never fires, everything is acked and
    // everything recovers.
    kill_recover_check(total + 1000);
}
