//! The live isolation session decides nothing.
//!
//! A [`DomStore`] keeps one `IsolationBatch` per document across calls; the
//! sessionless `update::apply_batch` builds one per call. This suite drives
//! the same operation stream — three corpora × the default, `paper_mix(0.5)`
//! and rename-heavy mixes, one op and a few ops at a time — through a store
//! document and through a **twin grammar** on the sessionless path,
//! interleaving everything that could make a kept session stale: snapshot
//! reads (the next write copies the grammar), forced and scheduler-driven
//! recompressions, deletes that `gc` rules away, and requests that fail
//! before, during and after isolation. After **every** call
//!
//! * the write-state grammar's `serialize::encode` bytes equal the twin's,
//! * the `BatchStats` or the error value equal the twin's,
//! * the document equals the uncompressed `xmltree::updates` oracle, and
//! * the kept session (if any) equals a fresh `IsolationBatch::new`
//!   (`assert_matches_rebuild`), is present after an `Ok`, and is gone after
//!   an `Err` or a recompression.

use slt_xml::datasets::random::{medline_like, treebank_like, xmark_like};
use slt_xml::datasets::workload::{random_update_sequence, WorkloadMix};
use slt_xml::grammar_repair::repair::GrammarRePair;
use slt_xml::grammar_repair::store::SchedulerConfig;
use slt_xml::grammar_repair::update;
use slt_xml::grammar_repair::RepairError;
use slt_xml::sltgrammar::derive::val;
use slt_xml::sltgrammar::text::parse_grammar;
use slt_xml::sltgrammar::{serialize, Grammar, NodeKind, RhsTree, SymbolTable};
use slt_xml::xmltree::binary::{from_binary, to_binary};
use slt_xml::xmltree::parse::parse_xml;
use slt_xml::xmltree::updates::{self as reference, UpdateOp};
use slt_xml::xmltree::XmlTree;
use slt_xml::{DocId, DomStore};

/// A label the store's shared alphabet holds with rank 1, so renaming an
/// element (rank 2) to it is a rank conflict discovered at splice time.
const RANK_CONFLICT_LABEL: &str = "odd";
const OUT_OF_RANGE: usize = 1 << 40;

/// The uncompressed ground-truth document.
struct Oracle {
    bin: RhsTree,
    symbols: SymbolTable,
}

impl Oracle {
    fn new(xml: &XmlTree) -> Self {
        let mut symbols = SymbolTable::new();
        let bin = to_binary(xml, &mut symbols).expect("valid document");
        Oracle { bin, symbols }
    }

    fn apply(&mut self, op: &UpdateOp) {
        reference::apply_update(&mut self.bin, &mut self.symbols, op)
            .expect("oracle rejects a workload operation");
    }

    fn serialization(&self) -> String {
        from_binary(&self.bin, &self.symbols)
            .expect("oracle stays a well-formed document")
            .to_xml()
    }

    /// Preorder index of the `k`-th null node (wrapping).
    fn null_position(&self, k: usize) -> usize {
        let nulls: Vec<usize> = self
            .bin
            .preorder()
            .iter()
            .enumerate()
            .filter(
                |(_, &n)| matches!(self.bin.kind(n), NodeKind::Term(t) if self.symbols.is_null(t)),
            )
            .map(|(i, _)| i)
            .collect();
        nulls[k % nulls.len()]
    }
}

fn document_of(g: &Grammar) -> String {
    let bin = val(g).expect("document stays materializable");
    from_binary(&bin, &g.symbols)
        .expect("grammar derives a well-formed document")
        .to_xml()
}

/// One store document, its sessionless twin and the oracle, in lockstep.
struct Lockstep {
    store: DomStore,
    doc: DocId,
    twin: Grammar,
    oracle: Oracle,
    repair: GrammarRePair,
    recompressions: usize,
    /// How many of them the scheduler's inline sweeps ran.
    swept: usize,
    context: String,
    calls: usize,
}

impl Lockstep {
    fn new(xml: &XmlTree, context: String) -> Self {
        let store = DomStore::new().with_scheduler(SchedulerConfig {
            // Low enough that inline sweeps fire several times per scenario.
            debt_threshold: 96,
            ..SchedulerConfig::default()
        });
        // Seeds the shared alphabet with a rank-1 label (see the constant).
        store
            .load_grammar(parse_grammar(&format!("S -> {RANK_CONFLICT_LABEL}(#)")).unwrap())
            .unwrap();
        let doc = store.load_xml(xml).unwrap();
        let twin = store
            .inspect_write_state(doc, |g, session| {
                assert!(session.is_none(), "no session before the first write");
                g.clone()
            })
            .unwrap();
        Lockstep {
            store,
            doc,
            twin,
            oracle: Oracle::new(xml),
            repair: GrammarRePair::default(),
            recompressions: 0,
            swept: 0,
            context,
            calls: 0,
        }
    }

    /// Runs one batch through both paths and checks everything observable.
    /// `oracle_ops` is what the call is expected to leave applied.
    fn call(&mut self, ops: &[UpdateOp], oracle_ops: &[UpdateOp]) -> Result<(), RepairError> {
        self.calls += 1;
        let context = format!("{} call {} ({ops:?})", self.context, self.calls);
        let got = self.store.apply_batch(self.doc, ops);
        let want = update::apply_batch(&mut self.twin, ops);
        for op in oracle_ops {
            self.oracle.apply(op);
        }
        // A sweep (inline, whole-store) may have recompressed the document,
        // after an `Err` too; mirror it on the twin.
        let recompressions = self.store.recompressions(self.doc).unwrap();
        let swept = recompressions > self.recompressions;
        assert!(
            recompressions <= self.recompressions + 1,
            "{context}: one sweep per call"
        );
        if swept {
            self.repair.recompress(&mut self.twin);
            self.recompressions = recompressions;
            self.swept += 1;
        }
        match (&got, &want) {
            (Ok((stats, report)), Ok(twin_stats)) => {
                assert_eq!(stats, twin_stats, "{context}: batch statistics");
                assert_eq!(
                    report.drained.iter().any(|(id, _)| *id == self.doc),
                    swept,
                    "{context}: the report names the sweep"
                );
            }
            (Err(e), Err(twin_e)) => assert_eq!(e, twin_e, "{context}: error value"),
            _ => panic!("{context}: store returned {got:?}, sessionless path {want:?}"),
        }
        self.check(&context, got.is_ok() && !swept);
        got.map(|_| ())
    }

    /// Forces a recompression on both sides.
    fn recompress(&mut self) {
        self.store.recompress(self.doc).unwrap();
        self.repair.recompress(&mut self.twin);
        self.recompressions += 1;
        let context = format!("{} after forced recompression", self.context);
        self.check(&context, false);
    }

    /// Bytes, document, session coherence. `expect_session` is whether the
    /// last thing that happened to the document was a successful batch.
    fn check(&self, context: &str, expect_session: bool) {
        let twin_bytes = serialize::encode(&self.twin);
        let expected_doc = self.oracle.serialization();
        self.store
            .inspect_write_state(self.doc, |g, session| {
                assert!(
                    serialize::encode(g) == twin_bytes,
                    "{context}: grammar bytes diverged"
                );
                assert_eq!(document_of(g), expected_doc, "{context}: document diverged");
                assert_eq!(session.is_some(), expect_session, "{context}: session kept");
                if let Some(session) = session {
                    session.assert_matches_rebuild(g);
                }
            })
            .unwrap();
    }

    /// A snapshot read: publishes the write state, so the next write copies
    /// the grammar while the session stays.
    fn read(&self) -> slt_xml::Snapshot {
        let snapshot = self.store.snapshot(self.doc).unwrap();
        assert_eq!(
            snapshot.to_xml().unwrap().to_xml(),
            self.oracle.serialization(),
            "{}: snapshot read diverged",
            self.context
        );
        snapshot
    }

    /// Every way a request can be refused, alone and behind a valid rename
    /// (which always stays applied: a batch keeps the ops before its first
    /// failure).
    fn rejected_requests(&mut self, round: usize) {
        let probe = UpdateOp::Rename {
            target: 0,
            label: format!("probe_{round}"),
        };
        let null = self.oracle.null_position(7 * round + 3);
        let rename = |target: usize, label: &str| UpdateOp::Rename {
            target,
            label: label.to_string(),
        };
        let refusals = [
            UpdateOp::Delete {
                target: OUT_OF_RANGE,
            },
            rename(OUT_OF_RANGE, "x"),
            rename(1, "#"),
            rename(null, "x"),
            UpdateOp::Delete { target: null },
            rename(1, RANK_CONFLICT_LABEL),
        ];
        for (k, bad) in refusals.into_iter().enumerate() {
            let alone = self.call(std::slice::from_ref(&bad), &[]);
            assert!(alone.is_err(), "{}: {bad:?} must be refused", self.context);
            if k % 2 == round % 2 {
                // Rebuild the session before the next refusal, so refusals
                // hit both a kept session and a missing one.
                self.call(&[], &[]).unwrap();
            }
            let behind = self.call(&[probe.clone(), bad], std::slice::from_ref(&probe));
            assert!(
                behind.is_err(),
                "{}: refusal behind a valid op",
                self.context
            );
        }
    }
}

fn corpora() -> Vec<(&'static str, XmlTree)> {
    vec![
        ("xmark", xmark_like(4, 11)),
        ("medline", medline_like(5, 12)),
        ("treebank", treebank_like(8, 13)),
    ]
}

fn mixes() -> Vec<(&'static str, WorkloadMix)> {
    vec![
        ("default", WorkloadMix::default()),
        ("paper_mix(0.5)", WorkloadMix::paper_mix(0.5)),
        (
            "rename-heavy",
            WorkloadMix {
                rename_probability: 0.7,
                // Of the rest, a third are deletes: `gc` runs under a live
                // session.
                insert_probability: 0.65,
                ..WorkloadMix::default()
            },
        ),
    ]
}

#[test]
fn live_session_is_indistinguishable_from_a_session_per_call() {
    let mut swept = 0;
    for (corpus, xml) in corpora() {
        for (m, (mix_name, mix)) in mixes().into_iter().enumerate() {
            for &step in &[1usize, 3] {
                let context = format!("{corpus} / {mix_name} / {step} op(s) per call");
                let ops = random_update_sequence(&xml, 72, 0x5E55 + m as u64, mix);
                let mut run = Lockstep::new(&xml, context);
                let mut held = Vec::new();
                for (i, batch) in ops.chunks(step).enumerate() {
                    run.call(batch, batch).unwrap();
                    // Reads on a pattern coprime to the call pattern: some
                    // writes copy the grammar, runs of others edit in place.
                    if i % 3 == 1 {
                        held.push(run.read());
                    }
                    if i % 5 == 4 {
                        held.clear();
                    }
                    if i % 11 == 6 {
                        run.recompress();
                    }
                    if i % 19 == 7 {
                        run.rejected_requests(i);
                    }
                }
                assert!(
                    run.recompressions >= 2,
                    "{}: scenario must cross recompression epochs",
                    run.context
                );
                run.twin.validate().unwrap();
                swept += run.swept;
            }
        }
    }
    assert!(
        swept >= 9,
        "inline sweeps must interleave too (saw {swept})"
    );
}

#[test]
fn a_deleting_batch_that_collects_rules_keeps_the_session_coherent() {
    // Four identical sections: deleting three of them orphans nothing, but
    // deleting inside the last reference to a rule does — drive deletes until
    // `gc` has actually dropped rules under a live session.
    let mut text = String::from("<book>");
    for _ in 0..4 {
        text.push_str("<sec><h/><p><i/><b/></p><p><i/><b/></p></sec>");
    }
    text.push_str("<app><x/><y/><z/></app></book>");
    let xml = parse_xml(&text).unwrap();
    let mut run = Lockstep::new(&xml, "gc under a live session".to_string());
    let rules_at_load = run.twin.rule_count();
    assert!(rules_at_load > 1, "the document must compress");
    run.call(&[], &[]).unwrap();
    // Delete the first child of the root until only one is left: every
    // section goes, and with the last one the rules only they referenced.
    loop {
        let children = {
            let bin = &run.oracle.bin;
            let first = bin.children(bin.root())[0];
            bin.walk_from(first).count()
        };
        if children <= 2 * 4 + 1 {
            break; // only <app> (4 elements, 9 binary nodes) is left
        }
        let op = UpdateOp::Delete { target: 1 };
        run.call(std::slice::from_ref(&op), std::slice::from_ref(&op))
            .unwrap();
    }
    assert!(
        run.twin.rule_count() < rules_at_load,
        "the deletes must have collected rules ({} of {rules_at_load} left)",
        run.twin.rule_count()
    );
}
