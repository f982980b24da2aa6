//! Wire encoding of trees and update operations for the durable store.
//!
//! The write-ahead log (`core::wal`) persists [`UpdateOp`] batches and
//! [`XmlTree`] fragments as record payloads. This module is their byte
//! format: LEB128 varints throughout, trees written in preorder as
//! `(label, child count)` pairs so the shape is reconstructed from the
//! stream alone, and operations tagged with one byte.
//!
//! ```text
//! tree:   node count (varint), then per node in preorder:
//!           label length (varint), label bytes (UTF-8), child count (varint)
//! op:     tag 0 = Rename       + target (varint) + label (varint len + bytes)
//!         tag 1 = InsertBefore + target (varint) + tree
//!         tag 2 = Delete       + target (varint)
//! batch:  op count (varint), then each op
//! ```
//!
//! Framing (length prefix, CRC, versioning) is the log's job, not this
//! module's: these encoders produce raw payload bytes. Decoding is
//! nevertheless hardened the same way as `sltgrammar::serialize`: every
//! count is bounded by the bytes actually remaining before it can size an
//! allocation, so corrupt input yields [`XmlError::Decode`], never a panic
//! or an OOM-sized reservation.

use crate::error::{Result, XmlError};
use crate::tree::XmlTree;
use crate::updates::UpdateOp;

/// Appends a LEB128 varint to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends the wire encoding of a tree to `out`.
pub fn write_tree(out: &mut Vec<u8>, tree: &XmlTree) {
    let preorder = tree.preorder();
    write_varint(out, preorder.len() as u64);
    for &node in &preorder {
        write_string(out, tree.label(node));
        write_varint(out, tree.children(node).len() as u64);
    }
}

/// Appends the wire encoding of a single update operation to `out`.
pub fn write_op(out: &mut Vec<u8>, op: &UpdateOp) {
    match op {
        UpdateOp::Rename { target, label } => {
            out.push(0);
            write_varint(out, *target as u64);
            write_string(out, label);
        }
        UpdateOp::InsertBefore { target, fragment } => {
            out.push(1);
            write_varint(out, *target as u64);
            write_tree(out, fragment);
        }
        UpdateOp::Delete { target } => {
            out.push(2);
            write_varint(out, *target as u64);
        }
    }
}

/// Appends the wire encoding of an operation batch (count-prefixed) to `out`.
pub fn write_ops(out: &mut Vec<u8>, ops: &[UpdateOp]) {
    write_varint(out, ops.len() as u64);
    for op in ops {
        write_op(out, op);
    }
}

/// Cursor over wire-encoded bytes. Exposes the primitive readers so callers
/// (the WAL record decoder) can interleave their own fields with trees and
/// operations in one payload.
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.data.len()
    }

    fn error(&self, detail: &str) -> XmlError {
        XmlError::Decode {
            offset: self.pos,
            detail: detail.to_string(),
        }
    }

    /// Reads one byte.
    pub fn byte(&mut self) -> Result<u8> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift >= 63 && byte > 1 {
                return Err(self.error("varint overflows 64 bits"));
            }
            value |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads `len` raw bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| self.error("unexpected end of input"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let len = self.varint()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.error("label is not valid UTF-8"))
    }

    /// Reads a count varint bounded by the bytes remaining: each counted
    /// element occupies at least `min_bytes` of input, so a larger count is
    /// corrupt and must not size an allocation. `min_bytes` must be nonzero.
    pub fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize> {
        let n = self.varint()?;
        if n > (self.remaining() / min_bytes) as u64 {
            return Err(self.error(&format!(
                "{what} count {n} exceeds what the remaining input could hold"
            )));
        }
        Ok(n as usize)
    }

    /// Reads a wire-encoded tree.
    pub fn tree(&mut self) -> Result<XmlTree> {
        // Each node is at least 2 bytes (empty label length + child count).
        let node_count = self.count(2, "tree node")?;
        if node_count == 0 {
            return Err(self.error("tree must have at least a root node"));
        }
        let root_label = self.string()?;
        let root_children = self.varint()? as usize;
        let mut tree = XmlTree::new(&root_label);
        let mut read = 1usize;
        // Stack of (node, children still expected); children attach in
        // preorder under the innermost node that still expects some.
        let mut stack = vec![(tree.root(), root_children)];
        while let Some(top) = stack.last_mut() {
            if top.1 == 0 {
                stack.pop();
                continue;
            }
            top.1 -= 1;
            let parent = top.0;
            if read == node_count {
                return Err(self.error("tree structure claims more nodes than its count"));
            }
            let label = self.string()?;
            let children = self.varint()? as usize;
            let node = tree.add_child(parent, &label);
            read += 1;
            stack.push((node, children));
        }
        if read != node_count {
            return Err(self.error("tree structure ended before its node count was reached"));
        }
        Ok(tree)
    }

    /// Reads a wire-encoded update operation.
    pub fn op(&mut self) -> Result<UpdateOp> {
        match self.byte()? {
            0 => Ok(UpdateOp::Rename {
                target: self.varint()? as usize,
                label: self.string()?,
            }),
            1 => Ok(UpdateOp::InsertBefore {
                target: self.varint()? as usize,
                fragment: self.tree()?,
            }),
            2 => Ok(UpdateOp::Delete {
                target: self.varint()? as usize,
            }),
            other => Err(self.error(&format!("unknown update-op tag {other}"))),
        }
    }

    /// Reads a count-prefixed operation batch.
    pub fn ops(&mut self) -> Result<Vec<UpdateOp>> {
        // The smallest op (Delete) is 2 bytes: tag + target varint.
        let n = self.count(2, "update-op")?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(self.op()?);
        }
        Ok(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_xml;

    fn sample_tree() -> XmlTree {
        parse_xml("<library><book><chapter/><chapter/></book><book/><dvd/></library>").unwrap()
    }

    fn sample_ops() -> Vec<UpdateOp> {
        vec![
            UpdateOp::Rename {
                target: 3,
                label: "section".into(),
            },
            UpdateOp::InsertBefore {
                target: 5,
                fragment: sample_tree(),
            },
            UpdateOp::Delete { target: 1 },
        ]
    }

    #[test]
    fn tree_roundtrips() {
        let tree = sample_tree();
        let mut bytes = Vec::new();
        write_tree(&mut bytes, &tree);
        let mut r = WireReader::new(&bytes);
        let back = r.tree().unwrap();
        assert!(r.finished());
        assert_eq!(tree.to_xml(), back.to_xml());
    }

    #[test]
    fn single_node_tree_roundtrips() {
        let tree = XmlTree::new("only");
        let mut bytes = Vec::new();
        write_tree(&mut bytes, &tree);
        let back = WireReader::new(&bytes).tree().unwrap();
        assert_eq!(tree.to_xml(), back.to_xml());
    }

    #[test]
    fn op_batch_roundtrips() {
        let ops = sample_ops();
        let mut bytes = Vec::new();
        write_ops(&mut bytes, &ops);
        let mut r = WireReader::new(&bytes);
        let back = r.ops().unwrap();
        assert!(r.finished());
        assert_eq!(back.len(), ops.len());
        for (a, b) in ops.iter().zip(&back) {
            assert_eq!(a.target(), b.target());
            match (a, b) {
                (UpdateOp::Rename { label: x, .. }, UpdateOp::Rename { label: y, .. }) => {
                    assert_eq!(x, y)
                }
                (
                    UpdateOp::InsertBefore { fragment: x, .. },
                    UpdateOp::InsertBefore { fragment: y, .. },
                ) => assert_eq!(x.to_xml(), y.to_xml()),
                (UpdateOp::Delete { .. }, UpdateOp::Delete { .. }) => {}
                other => panic!("op kind changed in roundtrip: {other:?}"),
            }
        }
    }

    #[test]
    fn truncations_error_and_never_panic() {
        let mut bytes = Vec::new();
        write_ops(&mut bytes, &sample_ops());
        for len in 0..bytes.len() {
            assert!(
                WireReader::new(&bytes[..len]).ops().is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn corrupt_counts_cannot_cause_huge_allocations() {
        // A batch claiming ~2^60 ops with a 3-byte payload must be rejected
        // by the remaining-bytes bound before any allocation happens.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 1u64 << 60);
        bytes.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            WireReader::new(&bytes).ops(),
            Err(XmlError::Decode { .. })
        ));
        // Same for a tree node count.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 1u64 << 60);
        assert!(WireReader::new(&bytes).tree().is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // A deterministic pseudo-random byte fuzz over the op decoder.
        let mut state = 0x1234_5678_9abc_def0u64;
        for round in 0..200 {
            let len = (round % 37) as usize;
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                bytes.push((state >> 33) as u8);
            }
            let _ = WireReader::new(&bytes).ops();
            let _ = WireReader::new(&bytes).tree();
            let _ = WireReader::new(&bytes).op();
        }
    }

    #[test]
    fn tree_with_mismatched_structure_is_rejected() {
        let tree = sample_tree();
        let mut bytes = Vec::new();
        write_tree(&mut bytes, &tree);
        // Claim one more node than the structure provides.
        let mut bigger = Vec::new();
        write_varint(&mut bigger, tree.node_count() as u64 + 1);
        bigger.extend_from_slice(&bytes[1..]); // node_count fits one byte here
        assert!(WireReader::new(&bigger).tree().is_err());
    }
}
