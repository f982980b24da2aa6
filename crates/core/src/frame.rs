//! The one framing and the one document-id codec of the service stack.
//!
//! The write-ahead log ([`crate::wal`]) and the wire protocol
//! ([`crate::server`] / [`crate::client`]) move their records in the same
//! envelope:
//!
//! ```text
//! frame: length u32-LE | crc32 u32-LE (of payload) | payload
//! ```
//!
//! [`seal`] is the only writer of that header and [`verify`] the only
//! checker; what differs between the two users is how the bytes arrive (a
//! whole file vs. a socket read in two steps) and what a bad frame means
//! (torn tail or [`WalCorrupt`](crate::RepairError::WalCorrupt) vs. a
//! [`Protocol`](crate::RepairError::Protocol) reply), so both stay with the
//! caller.
//!
//! Documents are addressed everywhere — log records, requests, replies, the
//! checkpoint's slab and extent tables — as a `(slot, generation)` varint
//! pair. [`read_doc`] rejects a component above `u32::MAX` instead of
//! narrowing it: a silently truncated id would alias *another* document on
//! replay. Callers wrap the returned detail in their own typed error.

use sltgrammar::crc32::crc32;
use xmltree::wire::{write_varint, WireReader};

use crate::store::DocId;

/// Frame header size: `length u32-LE | crc32 u32-LE`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Seals `payload` into a complete frame (header included).
pub(crate) fn seal(payload: &[u8]) -> Vec<u8> {
    // A longer payload would wrap the length field and misalign every frame
    // behind it; nothing this process frames comes near the limit.
    let len = u32::try_from(payload.len()).expect("frame payloads stay below 4 GiB");
    let mut frame = Vec::with_capacity(payload.len() + FRAME_HEADER_LEN);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The payload length a frame header declares — read it first to know how
/// many bytes to fetch (and to bound them), then [`verify`] the payload.
pub(crate) fn payload_len(header: &[u8; FRAME_HEADER_LEN]) -> u32 {
    u32::from_le_bytes(header[..4].try_into().expect("4 bytes"))
}

/// Checks `payload` — the [`payload_len`] bytes that followed `header` —
/// against the CRC the header declares.
pub(crate) fn verify(
    header: &[u8; FRAME_HEADER_LEN],
    payload: &[u8],
) -> std::result::Result<(), String> {
    let stored = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let found = crc32(payload);
    if stored != found {
        return Err(format!(
            "checksum mismatch (header {stored:#010x}, payload {found:#010x})"
        ));
    }
    Ok(())
}

/// Appends a document id as its `(slot, generation)` varint pair.
pub(crate) fn write_doc(out: &mut Vec<u8>, doc: DocId) {
    write_varint(out, doc.slot() as u64);
    write_varint(out, doc.generation() as u64);
}

/// Reads a varint that must fit a `u32` (slots, generations).
pub(crate) fn read_u32(r: &mut WireReader<'_>, what: &str) -> std::result::Result<u32, String> {
    let value = r.varint().map_err(|e| e.to_string())?;
    u32::try_from(value).map_err(|_| format!("{what} {value} out of range"))
}

/// Reads a document id written by [`write_doc`], range-checking both parts.
pub(crate) fn read_doc(r: &mut WireReader<'_>) -> std::result::Result<DocId, String> {
    let slot = read_u32(r, "document slot")?;
    let generation = read_u32(r, "document generation")?;
    Ok(DocId::from_parts(slot, generation))
}
