//! # slt-xml — incremental updates on compressed XML (ICDE 2016 reproduction)
//!
//! Facade crate re-exporting the whole workspace: the SLCF grammar substrate,
//! the XML structure model, the TreeRePair baseline, GrammarRePair with
//! grammar updates, the synthetic evaluation corpus, and the related-work
//! baselines (minimal DAG sharing and succinct DOM trees). The runnable
//! examples in `examples/` and the cross-crate integration and property tests
//! in `tests/` live on this crate.
//!
//! See the individual crates for the full API documentation:
//! [`sltgrammar`], [`xmltree`], [`treerepair`], [`grammar_repair`],
//! [`datasets`], [`dag_xml`], [`succinct_xml`].

#![warn(missing_docs)]

pub use dag_xml;
pub use datasets;
pub use grammar_repair;
pub use sltgrammar;
pub use succinct_xml;
pub use treerepair;
pub use xmltree;

/// Convenience re-export of the mutable compressed document handle: many
/// compressed documents behind one shared symbol table and a debt-based
/// recompression scheduler.
pub use grammar_repair::store::{DocId, DomStore, Snapshot};

/// Convenience re-export of the crash-safe store: a [`DomStore`] behind a
/// write-ahead log with checkpointing and recovery.
pub use grammar_repair::durable::{CheckpointReport, DurableStore, RecoveryReport};

/// Convenience re-export of the ingestion queue that coalesces submitted
/// batches into single group-committed WAL records in front of a
/// [`DurableStore`].
pub use grammar_repair::queue::IngestQueue;

/// Convenience re-export of the network service edge: a wire-protocol
/// server over the ingestion queue and its reconnecting, pipelining
/// client library.
pub use grammar_repair::client::{Client, ClientConfig, Endpoint};
/// Convenience re-export of the wire-protocol server (see [`Client`]).
pub use grammar_repair::server::{Server, ServerConfig};

/// Convenience re-export of the read-only navigation cursor over a grammar.
pub use grammar_repair::navigate::Cursor;

/// Convenience re-export of the path-query engine over compressed documents.
pub use grammar_repair::query::PathQuery;
