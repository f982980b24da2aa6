//! Updates on grammar-compressed XML (paper Section III and V-C).
//!
//! All three update operations — rename, insert-before, delete-subtree — are
//! executed directly on the grammar: the target node is made explicit in the
//! start rule by [path isolation](crate::isolate) and the operation is then a
//! local splice on the start rule's right-hand side. No decompression of the
//! document takes place; repeated updates gradually blow the grammar up, which
//! is what [`crate::repair::GrammarRePair`] undoes.
//!
//! # One path: the batch
//!
//! [`apply_batch_in`] is the only implementation, and a single operation is
//! a batch of one. [`apply_update`] is the one adapter that spells it: the
//! benchmark's trace times sessionless single ops through it, and
//! [`crate::udc`]'s update phase loops it, one isolation session per op.
//!
//! # One session per document, not per call
//!
//! [`apply_batch_in`] runs a batch through an [`IsolationBatch`] session the
//! caller owns. The session is the paper's `size(A, 0..k)` precomputation
//! plus the start rule's subtree sizes and the grammar's edge total; it is
//! patched through every inlining and splice, so it is as valid after the
//! call as before it, and the next call — a point write, typically — pays
//! only for the path it touches. [`crate::store::DomStore`] keeps one per
//! document. The holder's contract is [`crate::isolate`]'s: the session
//! survives a clone of the grammar and everything this module does to it,
//! and must be **dropped** (never patched) when anything else mutates the
//! grammar (recompression) or when a call here returns `Err` — a failing
//! splice may have half-reported itself. [`apply_batch`] is the sessionless
//! adapter: a fresh session per call, the same grammar byte for byte (the
//! session caches sizes, it decides nothing).
//!
//! # One op at a time
//!
//! A call applies its operations in order, each addressed against the
//! document the ones before it produced: FLUX's sequential composition of
//! atomic updates. Each op is the paper's `iso(G, u)` followed by a local
//! splice on the start rule. [`IsolationBatch::isolate_one`] inlines exactly
//! the references on the path to the target, the splice edits the start rule,
//! and the session is told what the splice did. The per-rule size tables stay
//! valid across splices and the start rule's subtree sizes are patched, so an
//! op pays only for the references it inlines; a path an earlier op made
//! explicit is walked, not inlined again. Unreachable rules are garbage
//! collected once per call that reached a delete, not per delete, and also
//! when that call fails.
//!
//! # Failure
//!
//! The first op that fails ends the call with its error. The ops before it
//! stay applied and the ops after it are not, exactly as if each op had been
//! applied on its own, as `xmltree::updates` applies them. The failing op
//! itself changes no document, though it may have isolated its target first:
//! an out-of-range target and a rename to the reserved null label are refused
//! before anything is isolated, a null target or a label rank conflict only
//! after.

use sltgrammar::{Grammar, NodeId, NodeKind};
use xmltree::binary::to_binary;
use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

use crate::error::{RepairError, Result};
use crate::isolate::{IsolationBatch, IsolationStats};

fn expect_element(g: &Grammar, node: NodeId) -> Result<()> {
    let kind = g.rule(g.start()).rhs.kind(node);
    match kind {
        NodeKind::Term(t) if !g.symbols.is_null(t) => Ok(()),
        NodeKind::Term(_) => Err(RepairError::InvalidUpdate {
            detail: "target node is a null node".to_string(),
        }),
        _ => Err(RepairError::InvalidUpdate {
            detail: "target node is not a terminal".to_string(),
        }),
    }
}

/// A rename may not produce the reserved null label. Checked before the
/// target is isolated, so a rejected rename costs the grammar nothing.
fn check_label(label: &str) -> Result<()> {
    if label == sltgrammar::NULL_SYMBOL_NAME {
        return Err(RepairError::InvalidUpdate {
            detail: "cannot rename a node to the null symbol".to_string(),
        });
    }
    Ok(())
}

/// Splice part of a rename: relabels the already-isolated start-rule node
/// (the label already passed [`check_label`]).
fn rename_node(g: &mut Grammar, node: NodeId, label: &str) -> Result<()> {
    expect_element(g, node)?;
    let term = g
        .symbols
        .intern(label, 2)
        .map_err(|_| RepairError::InvalidUpdate {
            detail: format!("label `{label}` is already used with a different rank"),
        })?;
    let start = g.start();
    g.rule_mut(start).rhs.set_kind(node, NodeKind::Term(term));
    Ok(())
}

/// Splice part of `insert_before`: grafts `fragment` before the
/// already-isolated start-rule node. Returns the graft root and the number of
/// derived nodes the document grew by (`2n` for an n-element fragment,
/// whether the target was an element or a consumed null).
fn insert_node(g: &mut Grammar, node: NodeId, fragment: &XmlTree) -> Result<(NodeId, u128)> {
    let target_is_null = match g.rule(g.start()).rhs.kind(node) {
        NodeKind::Term(t) => g.symbols.is_null(t),
        _ => unreachable!("isolation returns terminal nodes"),
    };
    let frag_bin = to_binary(fragment, &mut g.symbols)?;
    let start = g.start();
    let rhs = &mut g.rule_mut(start).rhs;
    let frag_root = rhs.clone_subtree_from(&frag_bin, frag_bin.root());
    // The rightmost leaf of a binary-encoded element is always its trailing
    // null "next sibling" slot.
    let mut attach = frag_root;
    while let Some(&last) = rhs.children(attach).last() {
        attach = last;
    }
    rhs.replace_subtree(node, frag_root);
    if !target_is_null {
        rhs.replace_subtree(attach, node);
    }
    Ok((frag_root, 2 * fragment.node_count() as u128))
}

/// Splice part of `delete`: removes the element subtree at the
/// already-isolated start-rule node (an element — see [`expect_element`]).
/// The caller is responsible for `gc`.
fn delete_node(g: &mut Grammar, node: NodeId) {
    let start = g.start();
    let rhs = &mut g.rule_mut(start).rhs;
    let next_sibling = rhs.children(node)[1];
    rhs.detach(next_sibling);
    rhs.replace_subtree(node, next_sibling);
}

/// Applies one [`UpdateOp`] (shared with the uncompressed reference semantics)
/// to the grammar: a batch of one, on a fresh isolation session.
pub fn apply_update(g: &mut Grammar, op: &UpdateOp) -> Result<BatchStats> {
    apply_batch(g, std::slice::from_ref(op))
}

/// Statistics of one [`apply_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of operations applied.
    pub ops: usize,
    /// 1 for a non-empty batch, 0 for an empty one. Ops are applied one at
    /// a time, so there is nothing to count; the field stays because the
    /// wire reply ([`crate::server::WireBatchStats`]) and the benchmark's
    /// trace carry it.
    pub chunks: usize,
    /// Total isolation cost over all ops.
    pub isolation: IsolationStats,
    /// Grammar edges before the batch.
    pub edges_before: usize,
    /// Grammar edges after the batch.
    pub edges_after: usize,
}

/// A cheap signature of everything an update can touch — splices and
/// inlinings bump the start rule's version, `gc` changes the rule count,
/// interning grows the symbol table. Equal marks before and after a call
/// mean it left `g` exactly as it found it; holders use that to decide what
/// a failed request costs them (nothing).
pub(crate) fn mutation_mark(g: &Grammar) -> (u64, usize, usize) {
    (
        g.rule(g.start()).rhs.version(),
        g.rule_count(),
        g.symbols.len(),
    )
}

/// Applies a sequence of updates, each addressed against the document the
/// ones before it produced (see the module docs). The size tables are
/// computed once per call and a path isolated for one op is explicit for
/// the next. This is the sessionless adapter of [`apply_batch_in`]: it
/// builds an [`IsolationBatch`] (one size-only pass over the grammar) and
/// drops it afterwards.
///
/// The resulting document is identical to [`apply_update`] looped over
/// `ops` and to the uncompressed `xmltree::updates` oracle's (asserted
/// byte-for-byte by the differential update-oracle harness). The grammars
/// differ at most by
/// unreachable rules: a call collects garbage once, not after every delete.
///
/// # Errors
///
/// The first failing op's error. The ops before it stay applied, the ops
/// after it are not (see the module docs). A batch of one therefore fails
/// without touching the grammar unless its target had to be isolated to
/// discover the failure.
pub fn apply_batch(g: &mut Grammar, ops: &[UpdateOp]) -> Result<BatchStats> {
    apply_batch_in(&mut IsolationBatch::new(g), g, ops)
}

/// [`apply_batch`] through a session the caller keeps (see the module docs):
/// `batch` must describe `g` — built from it, or carried from earlier calls
/// with nothing else having mutated `g` in between (a clone of `g` counts as
/// `g`). On `Ok` the session describes the updated grammar and may be kept;
/// on `Err` it must be dropped. The grammar and the returned statistics are
/// identical to the sessionless call's.
pub fn apply_batch_in(
    batch: &mut IsolationBatch,
    g: &mut Grammar,
    ops: &[UpdateOp],
) -> Result<BatchStats> {
    debug_assert_eq!(batch.edges(), g.edge_count(), "session edge total on entry");
    let inlinings_before = batch.stats().inlinings;
    let edges_before = batch.edges();
    let mut deletes = false;
    let applied = ops.iter().try_for_each(|op| {
        deletes |= matches!(op, UpdateOp::Delete { .. });
        apply_op(batch, g, op)
    });
    if deletes && g.gc() > 0 {
        batch.note_gc(g);
    }
    applied?;
    debug_assert_eq!(batch.edges(), g.edge_count(), "session edge total on exit");
    Ok(BatchStats {
        ops: ops.len(),
        chunks: usize::from(!ops.is_empty()),
        isolation: IsolationStats {
            inlinings: batch.stats().inlinings - inlinings_before,
        },
        edges_before,
        edges_after: batch.edges(),
    })
}

/// One op: `iso(G, u)`, then the splice, reported to the session.
fn apply_op(batch: &mut IsolationBatch, g: &mut Grammar, op: &UpdateOp) -> Result<()> {
    if let UpdateOp::Rename { label, .. } = op {
        check_label(label)?;
    }
    let node = batch.isolate_one(g, op.target() as u128)?;
    match op {
        UpdateOp::Rename { label, .. } => rename_node(g, node, label)?,
        UpdateOp::InsertBefore { fragment, .. } => {
            let (frag_root, grown) = insert_node(g, node, fragment)?;
            batch.note_inserted(g, frag_root, grown);
        }
        UpdateOp::Delete { .. } => {
            expect_element(g, node)?;
            let rhs = &g.rule(g.start()).rhs;
            let parent = rhs.parent(node);
            let content = rhs.children(node)[0];
            let removed = 1 + batch.subtree_size(content);
            let removed_edges = 1 + rhs.subtree_size(content);
            delete_node(g, node);
            batch.note_removed(g, parent, removed, removed_edges);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::fingerprint::fingerprint;
    use sltgrammar::SymbolTable;
    use treerepair::TreeRePair;
    use xmltree::binary::{from_binary, to_binary, tree_fingerprint};
    use xmltree::parse::parse_xml;
    use xmltree::updates as reference;

    /// Compresses a document and returns both the grammar and the uncompressed
    /// binary tree (the reference for oracle comparisons).
    fn setup(doc: &str) -> (Grammar, sltgrammar::RhsTree, SymbolTable) {
        let xml = parse_xml(doc).unwrap();
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let (g, _) = TreeRePair::default().compress_binary(symbols.clone(), bin.clone());
        (g, bin, symbols)
    }

    fn assert_equivalent(g: &Grammar, bin: &sltgrammar::RhsTree, symbols: &SymbolTable) {
        assert_eq!(fingerprint(g), tree_fingerprint(bin, symbols));
    }

    const DOC: &str = "<lib><book><ch/><ch/></book><book><ch/><ch/></book>\
                       <book><ch/><ch/></book><book><ch/><ch/></book></lib>";

    #[test]
    fn rename_matches_reference_semantics() {
        let (mut g, mut bin, mut symbols) = setup(DOC);
        // Rename the second book (find its preorder index in the binary tree).
        let idx = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        let op = UpdateOp::Rename {
            target: idx,
            label: "magazine".to_string(),
        };
        apply_update(&mut g, &op).unwrap();
        reference::apply_update(&mut bin, &mut symbols, &op).unwrap();
        g.validate().unwrap();
        assert_equivalent(&g, &bin, &symbols);
    }

    #[test]
    fn insert_matches_reference_semantics() {
        let (mut g, mut bin, mut symbols) = setup(DOC);
        let fragment = parse_xml("<appendix><note/></appendix>").unwrap();
        // Insert before the third book.
        let idx = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .nth(2)
            .unwrap();
        let op = UpdateOp::InsertBefore {
            target: idx,
            fragment,
        };
        apply_update(&mut g, &op).unwrap();
        reference::apply_update(&mut bin, &mut symbols, &op).unwrap();
        g.validate().unwrap();
        assert_equivalent(&g, &bin, &symbols);
    }

    #[test]
    fn insert_at_null_position_matches_reference_semantics() {
        let (mut g, mut bin, mut symbols) = setup(DOC);
        let fragment = parse_xml("<toc/>").unwrap();
        // First null node in preorder = the empty child list of the first <ch/>.
        let idx = bin
            .preorder()
            .iter()
            .enumerate()
            .find(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.is_null(t)))
            .map(|(i, _)| i)
            .unwrap();
        let op = UpdateOp::InsertBefore {
            target: idx,
            fragment,
        };
        apply_update(&mut g, &op).unwrap();
        reference::apply_update(&mut bin, &mut symbols, &op).unwrap();
        g.validate().unwrap();
        assert_equivalent(&g, &bin, &symbols);
    }

    #[test]
    fn delete_matches_reference_semantics() {
        let (mut g, mut bin, mut symbols) = setup(DOC);
        let idx = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        let op = UpdateOp::Delete { target: idx };
        apply_update(&mut g, &op).unwrap();
        reference::apply_update(&mut bin, &mut symbols, &op).unwrap();
        g.validate().unwrap();
        assert_equivalent(&g, &bin, &symbols);
        // The document lost one book element and its two chapters.
        let back = from_binary(&bin, &symbols).unwrap();
        assert_eq!(back.preorder().len(), 13 - 3);
    }

    #[test]
    fn rename_rejects_null_targets_and_labels() {
        let (mut g, bin, symbols) = setup(DOC);
        let null_idx = bin
            .preorder()
            .iter()
            .enumerate()
            .find(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.is_null(t)))
            .map(|(i, _)| i)
            .unwrap();
        let rename = |target: usize, label: &str| UpdateOp::Rename {
            target,
            label: label.to_string(),
        };
        assert!(apply_update(&mut g, &rename(null_idx, "x")).is_err());
        assert!(apply_update(&mut g, &rename(0, "#")).is_err());
        assert!(matches!(
            apply_update(&mut g, &rename(10_000, "x")),
            Err(RepairError::TargetOutOfRange { .. })
        ));
    }

    /// Applies `ops` sequentially to the reference binary tree and returns its
    /// fingerprint.
    fn reference_after(
        bin: &sltgrammar::RhsTree,
        symbols: &SymbolTable,
        ops: &[UpdateOp],
    ) -> sltgrammar::fingerprint::Fingerprint {
        let mut bin = bin.clone();
        let mut symbols = symbols.clone();
        for op in ops {
            reference::apply_update(&mut bin, &mut symbols, op).unwrap();
        }
        tree_fingerprint(&bin, &symbols)
    }

    #[test]
    fn batched_renames_match_the_sequential_semantics_in_one_chunk() {
        let (mut g, bin, symbols) = setup(DOC);
        let elements: Vec<usize> = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if !symbols.is_null(t)))
            .map(|(i, _)| i)
            .collect();
        let ops: Vec<UpdateOp> = elements
            .iter()
            .step_by(2)
            .enumerate()
            .map(|(k, &idx)| UpdateOp::Rename {
                target: idx,
                label: format!("fresh{k}"),
            })
            .collect();
        let expected = reference_after(&bin, &symbols, &ops);
        let stats = apply_batch(&mut g, &ops).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), expected);
        assert_eq!(stats.ops, ops.len());
    }

    #[test]
    fn batched_inserts_remap_later_targets_through_earlier_fragments() {
        let (mut g, bin, symbols) = setup(DOC);
        // Two inserts before the same element: the second op's target is the
        // element's coordinate shifted by the first fragment.
        let idx = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        let frag_a = parse_xml("<a><p/></a>").unwrap(); // 2 elements -> shift 4
        let frag_b = parse_xml("<b/>").unwrap();
        let ops = vec![
            UpdateOp::InsertBefore {
                target: idx,
                fragment: frag_a,
            },
            UpdateOp::InsertBefore {
                target: idx + 4,
                fragment: frag_b,
            },
            UpdateOp::Rename {
                target: idx + 4 + 2,
                label: "magazine".to_string(),
            },
        ];
        let expected = reference_after(&bin, &symbols, &ops);
        apply_batch(&mut g, &ops).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), expected);
    }

    #[test]
    fn a_batch_keeps_exactly_the_ops_before_its_first_failure() {
        let (g0, bin, symbols) = setup(DOC);
        let books: Vec<usize> = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .collect();
        // <x><y/></x> takes 4 preorder positions: x at books[0], y after it.
        let insert = UpdateOp::InsertBefore {
            target: books[0],
            fragment: parse_xml("<x><y/></x>").unwrap(),
        };
        let rename = |target: usize| UpdateOp::Rename {
            target,
            label: "shelf".to_string(),
        };
        let bad = UpdateOp::Delete { target: 100_000 };
        // (case, batch, how many of its ops the sequential oracle applies)
        let cases = [
            ("empty", vec![], 0),
            (
                "rename inside the fragment",
                vec![insert.clone(), rename(books[0] + 1)],
                2,
            ),
            (
                "failure after a rename inside the fragment",
                vec![insert.clone(), rename(books[0] + 1), bad.clone()],
                2,
            ),
            (
                "failure after a rename elsewhere",
                vec![insert.clone(), rename(books[2] + 4), bad.clone()],
                2,
            ),
            ("failure first", vec![bad, rename(0)], 0),
        ];
        for (case, ops, applied) in cases {
            let mut g = g0.clone();
            let result = apply_batch(&mut g, &ops);
            g.validate().unwrap();
            assert_eq!(
                fingerprint(&g),
                reference_after(&bin, &symbols, &ops[..applied]),
                "{case}: the document after the call"
            );
            let mut sequential = g0.clone();
            let one_by_one = ops
                .iter()
                .try_for_each(|op| apply_update(&mut sequential, op).map(drop));
            assert_eq!(
                fingerprint(&g),
                fingerprint(&sequential),
                "{case}: op by op"
            );
            match result {
                Ok(stats) => {
                    assert_eq!(applied, ops.len(), "{case}: must fail");
                    assert!(one_by_one.is_ok());
                    assert_eq!(stats.chunks, usize::from(!ops.is_empty()), "{case}");
                }
                Err(e) => {
                    assert!(applied < ops.len(), "{case}: must succeed, got {e:?}");
                    assert_eq!(one_by_one.unwrap_err(), e, "{case}: error");
                }
            }
        }
    }

    #[test]
    fn batched_deletes_keep_later_targets_in_the_same_chunk() {
        let (mut g, bin, symbols) = setup(DOC);
        let books: Vec<usize> = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .collect();
        // A book subtree occupies 6 binary preorder positions (the element
        // plus its 2-chapter content). Delete the second book, rename the
        // third (which slid into its place), then delete the fourth at its
        // shifted coordinate.
        assert_eq!(books[2] - books[1], 6);
        let ops = vec![
            UpdateOp::Delete { target: books[1] },
            UpdateOp::Rename {
                target: books[1],
                label: "promoted".to_string(),
            },
            UpdateOp::Delete { target: books[3] - 6 },
        ];
        let expected = reference_after(&bin, &symbols, &ops);
        apply_batch(&mut g, &ops).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), expected);
    }

    #[test]
    fn deleting_a_subtree_swallows_regions_planned_inside_it() {
        let (mut g, bin, symbols) = setup(DOC);
        let books: Vec<usize> = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .collect();
        let ops = vec![
            // Grow the second book's content by a fresh element...
            UpdateOp::InsertBefore {
                target: books[1] + 1,
                fragment: parse_xml("<x/>").unwrap(),
            },
            // ...delete a chapter inside it (at its shifted coordinate)...
            UpdateOp::Delete { target: books[1] + 3 },
            // ...then delete the whole book, both edits with it: the rename
            // after it must land on the third book.
            UpdateOp::Delete { target: books[1] },
            UpdateOp::Rename {
                target: books[1],
                label: "survivor".to_string(),
            },
        ];
        let expected = reference_after(&bin, &symbols, &ops);
        apply_batch(&mut g, &ops).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), expected);
    }

    #[test]
    fn deleting_at_a_null_position_fails_like_the_sequential_api() {
        let (mut g, bin, symbols) = setup(DOC);
        let null_idx = bin
            .preorder()
            .iter()
            .enumerate()
            .find(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.is_null(t)))
            .map(|(i, _)| i)
            .unwrap();
        // The rename before the null delete stays applied; the op after it
        // never runs.
        let ops = vec![
            UpdateOp::Rename {
                target: 0,
                label: "shelf".to_string(),
            },
            UpdateOp::Delete { target: null_idx },
            UpdateOp::Rename {
                target: 0,
                label: "never".to_string(),
            },
        ];
        let err = apply_batch(&mut g, &ops).unwrap_err();
        assert!(matches!(err, RepairError::InvalidUpdate { .. }));
        g.validate().unwrap();
        let expected = reference_after(
            &bin,
            &symbols,
            &[UpdateOp::Rename {
                target: 0,
                label: "shelf".to_string(),
            }],
        );
        assert_eq!(fingerprint(&g), expected);
    }

    #[test]
    fn empty_and_singleton_batches_behave_like_the_sequential_api() {
        let (mut g, bin, symbols) = setup(DOC);
        let stats = apply_batch(&mut g, &[]).unwrap();
        assert_eq!(stats.ops, 0);
        let op = UpdateOp::Rename {
            target: 0,
            label: "shelf".to_string(),
        };
        let mut sequential = g.clone();
        apply_update(&mut sequential, &op).unwrap();
        apply_batch(&mut g, std::slice::from_ref(&op)).unwrap();
        assert_eq!(fingerprint(&g), fingerprint(&sequential));
        assert_eq!(
            fingerprint(&g),
            reference_after(&bin, &symbols, std::slice::from_ref(&op))
        );
    }

    #[test]
    fn batched_updates_reject_invalid_targets() {
        let (mut g, _, _) = setup(DOC);
        assert!(matches!(
            apply_batch(
                &mut g,
                &[UpdateOp::Delete { target: 100_000 }],
            ),
            Err(RepairError::TargetOutOfRange { .. })
        ));
    }

    #[test]
    fn update_sequences_blow_the_grammar_up_only_moderately() {
        // A sequence of renames on a well-compressed document: each isolation
        // grows the grammar, but never beyond a factor 2 per update (Lemma 1);
        // in aggregate the blow-up stays far below repeated doubling because
        // later isolations reuse already-isolated paths.
        let mut doc = String::from("<log>");
        for _ in 0..50 {
            doc.push_str("<e><t/><m/></e>");
        }
        doc.push_str("</log>");
        let (mut g, bin, symbols) = setup(&doc);
        let compressed = g.edge_count();
        let element_positions: Vec<usize> = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if !symbols.is_null(t)))
            .map(|(i, _)| i)
            .collect();
        for (k, &pos) in element_positions.iter().step_by(7).enumerate() {
            let op = UpdateOp::Rename {
                target: pos,
                label: format!("fresh{k}"),
            };
            apply_update(&mut g, &op).unwrap();
        }
        g.validate().unwrap();
        assert!(g.edge_count() > compressed);
        // Repeated isolation can at worst unfold the document; it never exceeds
        // (roughly) the uncompressed binary tree size.
        let uncompressed = bin.edge_count();
        assert!(g.edge_count() <= uncompressed + 10 * compressed);
    }
}
