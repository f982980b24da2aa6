//! Error types for GrammarRePair and grammar updates.

use std::fmt;

/// Errors raised by grammar recompression and update operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// A target preorder index does not exist in the derived tree.
    TargetOutOfRange {
        /// The requested 0-based preorder index.
        index: u128,
        /// Number of nodes in the derived tree.
        size: u128,
    },
    /// The targeted node cannot be updated this way (e.g. renaming a null node).
    InvalidUpdate {
        /// Description of the violation.
        detail: String,
    },
    /// A path query could not be parsed or evaluated.
    InvalidQuery {
        /// Description of the violation.
        detail: String,
    },
    /// A document id does not name a live document of the store.
    NoSuchDocument {
        /// The raw id that failed to resolve.
        id: u32,
    },
    /// An underlying grammar error (validation, derivation limit, …).
    Grammar(sltgrammar::GrammarError),
    /// An underlying XML error (fragment conversion, …).
    Xml(xmltree::XmlError),
    /// Serialized output would exceed the caller's byte budget (a `ToXml`
    /// reply larger than the server's frame cap).
    OutputTooLarge {
        /// The budget in bytes.
        limit: usize,
    },
    /// A storage operation of the durable layer failed (I/O error, or an
    /// injected fault in tests).
    Storage {
        /// Description of the failed operation.
        detail: String,
    },
    /// A wire-protocol frame failed validation (bad CRC, oversized length,
    /// unknown record kind, malformed body) — the network edge's analogue
    /// of `WalCorrupt`, raised by `core::server` / `core::client`.
    Protocol {
        /// Description of the violation.
        detail: String,
    },
    /// A write-ahead-log record failed its integrity check *before* the end
    /// of the log — genuine corruption, as opposed to the torn final record
    /// a crash legitimately leaves behind (which recovery truncates).
    WalCorrupt {
        /// Sequence number of the last intact record, 0 when none.
        lsn: u64,
        /// Byte offset of the corrupt frame in the log file.
        offset: u64,
        /// Description of the problem.
        detail: String,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::TargetOutOfRange { index, size } => write!(
                f,
                "target preorder index {index} is out of range (derived tree has {size} nodes)"
            ),
            RepairError::InvalidUpdate { detail } => write!(f, "invalid update: {detail}"),
            RepairError::NoSuchDocument { id } => {
                write!(f, "document #{id} is not loaded in this store")
            }
            RepairError::InvalidQuery { detail } => write!(f, "invalid query: {detail}"),
            RepairError::Grammar(e) => write!(f, "grammar error: {e}"),
            RepairError::Xml(e) => write!(f, "xml error: {e}"),
            RepairError::OutputTooLarge { limit } => {
                write!(f, "output exceeds the {limit}-byte limit")
            }
            RepairError::Storage { detail } => write!(f, "storage error: {detail}"),
            RepairError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            RepairError::WalCorrupt { lsn, offset, detail } => write!(
                f,
                "write-ahead log corrupt at byte {offset} (last intact record: lsn {lsn}): {detail}"
            ),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<sltgrammar::GrammarError> for RepairError {
    fn from(e: sltgrammar::GrammarError) -> Self {
        RepairError::Grammar(e)
    }
}

impl From<xmltree::XmlError> for RepairError {
    fn from(e: xmltree::XmlError) -> Self {
        RepairError::Xml(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, RepairError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = RepairError::TargetOutOfRange { index: 10, size: 5 };
        assert!(e.to_string().contains("10"));
        let g: RepairError = sltgrammar::GrammarError::Parse {
            line: 1,
            detail: "x".into(),
        }
        .into();
        assert!(matches!(g, RepairError::Grammar(_)));
        let x: RepairError = xmltree::XmlError::Empty.into();
        assert!(matches!(x, RepairError::Xml(_)));
    }
}
