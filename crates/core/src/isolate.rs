//! Path isolation (paper Section III-A).
//!
//! To update a node `u` of the derived tree `val(G)` we first make `u` appear
//! as an explicit terminal node in the start rule: starting from the start
//! rule's root we navigate towards `u` using the precomputed segment sizes
//! `size(A, 0..k)` and inline exactly the nonterminal references on the path
//! that produce `u`. Lemma 1 of the paper bounds the growth caused by a single
//! isolation by a factor of two, because every rule is inlined at most once.
//!
//! There is one walk: [`IsolationBatch::isolate_one`]. A session computes the
//! per-rule size tables ([`RuleSizes`]) and the start rule's subtree sizes
//! once, descends from the start rule's root to one target at a time, and
//! patches subtree sizes incrementally after each inlining instead of
//! recomputing them. A reference one isolation inlined is explicit for every
//! later one, so isolations sharing a path prefix inline it once and the
//! Lemma-1 factor-two growth bound holds per *distinct* root-to-target path,
//! not per target. [`isolate`] is a session of one isolation.
//!
//! # How long a session lives
//!
//! The paper pays the `size(A, 0..k)` precomputation once, not per update. A
//! session is therefore a cache of *sizes only* — it decides nothing, so a
//! grammar driven through a long-lived session is byte-identical to one
//! driven through a fresh session per call — and it stays coherent for as
//! long as every mutation of the grammar is reported to it:
//!
//! * inlinings happen inside the session ([`IsolationBatch::isolate_one`]);
//! * splices of the start rule are reported by [`crate::update`] through
//!   [`note_inserted`](IsolationBatch::note_inserted) /
//!   [`note_removed`](IsolationBatch::note_removed), and a rule-dropping
//!   [`Grammar::gc`] through [`note_gc`](IsolationBatch::note_gc);
//! * a **clone** of the grammar (the store's copy-on-write `Arc::make_mut`)
//!   preserves every arena [`NodeId`] and every [`NtId`], so the tables
//!   describe the copy exactly as they described the original;
//! * [`Grammar::gc`] never renumbers surviving rules, and the rules it drops
//!   are unreachable, so their stale table rows are never read.
//!
//! Anything else invalidates it — recompression (new rules, compacted
//! arenas), a failed update call (the splice that failed may have been
//! half-reported), replacing the grammar — and the only repair is to drop the
//! session and build a new one: [`IsolationBatch::new`] is one size-only pass
//! over the grammar. [`crate::store::DomStore`] keeps one session per
//! document beside its write-state grammar on exactly these rules;
//! [`IsolationBatch::assert_matches_rebuild`] is the oracle that a kept
//! session equals a fresh one.

use sltgrammar::derive::RuleSizes;
use sltgrammar::fingerprint::derived_size;
use sltgrammar::{Grammar, NodeId, NodeKind};

use crate::error::{RepairError, Result};

/// Statistics of one path isolation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsolationStats {
    /// Number of rules inlined into the start rule.
    pub inlinings: usize,
}

/// Makes the node with 0-based preorder index `target` of the derived tree
/// `val(G)` explicit in the start rule and returns its node id there — the
/// paper's `iso(G, u)`, as a one-target [`IsolationBatch`] session.
pub fn isolate(g: &mut Grammar, target: u128) -> Result<(NodeId, IsolationStats)> {
    let mut batch = IsolationBatch::new(g);
    let node = batch.isolate_one(g, target)?;
    Ok((node, batch.stats()))
}

/// A path-isolation session over one grammar (see the module docs for its
/// lifetime).
///
/// Construction computes the per-rule size tables and the start rule's
/// subtree sizes **once**; every subsequent isolation through the same session
/// reuses them, patching the subtree-size table incrementally after each
/// inlining (arena node ids are never reused, so entries of surviving nodes
/// stay valid). Callers that splice the start rule (updates) must report
/// every splice so the size table, the derived size and the edge total
/// follow the document. Splices only ever edit the start rule, so the
/// per-rule tables stay valid across them — one session spans a whole
/// [`crate::update::apply_batch`] call, and any number of calls after it,
/// keeping the Lemma-1 factor-two growth bound per *distinct* isolated path.
///
/// All tables are dense: per-rule sizes by `NtId::index()`, start-rule
/// subtree sizes by `NodeId::index()`.
#[derive(Debug)]
pub struct IsolationBatch {
    rules: RuleSizes,
    /// Derived subtree size of every sized start-rule node; `0` marks an
    /// arena slot not sized yet (a start-rule node derives at least itself).
    sizes: Vec<u128>,
    total: u128,
    /// The grammar's edge total, carried through inlinings and splices so no
    /// call has to walk the rules for it.
    edges: usize,
    stats: IsolationStats,
}

#[cfg(test)]
thread_local! {
    /// Sessions built on this thread — what "one cold build per document per
    /// recompression epoch" is asserted against.
    pub(crate) static COLD_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl IsolationBatch {
    /// Prepares a session for the current grammar: one size-only pass over
    /// the rules (callees first) plus one over the start rule.
    pub fn new(g: &Grammar) -> Self {
        #[cfg(test)]
        COLD_BUILDS.with(|c| c.set(c.get() + 1));
        let rules = RuleSizes::new(g);
        let edges = g
            .nonterminals()
            .iter()
            .map(|&nt| rules.rhs_nodes(nt) - 1)
            .sum();
        let mut batch = IsolationBatch {
            total: rules.own(g.start()),
            rules,
            sizes: Vec::new(),
            edges,
            stats: IsolationStats::default(),
        };
        batch.fill_sizes(g, g.rule(g.start()).rhs.root());
        batch
    }

    /// Inlinings performed through this session so far.
    pub fn stats(&self) -> IsolationStats {
        self.stats
    }

    /// Number of nodes of the derived tree (cached at session start and
    /// maintained across splices reported through
    /// [`note_inserted`](Self::note_inserted) /
    /// [`note_removed`](Self::note_removed)).
    pub fn derived_size(&self) -> u128 {
        self.total
    }

    /// The grammar's edge count ([`Grammar::edge_count`]), carried instead of
    /// walked.
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Derived subtree size of an explicit start-rule node, per the session's
    /// size table.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a start-rule node the session has sized (every
    /// node reachable at session start or touched by an isolation is).
    pub fn subtree_size(&self, node: NodeId) -> u128 {
        let size = self.sizes[node.index()];
        assert_ne!(size, 0, "start-rule node was never sized");
        size
    }

    /// Records an insert splice: the fragment rooted at the fresh start-rule
    /// node `frag_root` was grafted in, growing the derived tree by `grown`
    /// nodes. Sizes of the fresh fragment nodes are filled in (the grafted old
    /// subtree keeps its entries — arena ids are never recycled) and every
    /// ancestor of the graft point grows by `grown`. A fragment is all
    /// terminals, so the start rule grows by the same number of edges.
    pub fn note_inserted(&mut self, g: &Grammar, frag_root: NodeId, grown: u128) {
        self.fill_sizes(g, frag_root);
        let rhs = &g.rule(g.start()).rhs;
        self.resize_ancestors(g, rhs.parent(frag_root), |s| s + grown);
        self.total += grown;
        self.edges += grown as usize;
    }

    /// Records a delete splice: a subtree of `removed` derived nodes, held in
    /// `removed_edges` start-rule nodes, was spliced out from under `parent`
    /// (`None` when the start rule's root itself was replaced). Entries of the
    /// detached nodes are left behind; they are never re-attached, so the
    /// stale entries are unreachable.
    pub fn note_removed(
        &mut self,
        g: &Grammar,
        parent: Option<NodeId>,
        removed: u128,
        removed_edges: usize,
    ) {
        self.resize_ancestors(g, parent, |s| s - removed);
        self.total -= removed;
        self.edges -= removed_edges;
    }

    /// Records that [`Grammar::gc`] dropped rules: their edges leave the
    /// total. Their table rows stay behind, unreachable like the rules.
    pub fn note_gc(&mut self, g: &Grammar) {
        self.edges = g.edge_count();
    }

    /// Applies `resize` to the size of `from` and of every ancestor above it.
    fn resize_ancestors(&mut self, g: &Grammar, from: Option<NodeId>, resize: impl Fn(u128) -> u128) {
        let rhs = &g.rule(g.start()).rhs;
        let mut cur = from;
        while let Some(p) = cur {
            debug_assert_ne!(self.sizes[p.index()], 0, "ancestors of a splice point are sized");
            self.sizes[p.index()] = resize(self.sizes[p.index()]);
            cur = rhs.parent(p);
        }
    }

    /// Panics unless this session equals a fresh [`IsolationBatch::new`] of
    /// `g` in everything a later call can read: own and segment sizes of every
    /// live callee, the size of every start-rule node reachable from the root,
    /// the derived size and the carried edge total. The oracle behind keeping
    /// a session alive across calls (O(grammar); for tests and debugging).
    pub fn assert_matches_rebuild(&self, g: &Grammar) {
        let fresh = IsolationBatch::new(g);
        // The start rule's own row goes stale with the first splice and is
        // never read (nothing calls the start rule): `total` stands in for it.
        for nt in g.nonterminals().into_iter().filter(|&nt| nt != g.start()) {
            let name = &g.rule(nt).name;
            assert_eq!(self.rules.own(nt), fresh.rules.own(nt), "own size of rule {name}");
            assert_eq!(
                self.rules.segments(nt),
                fresh.rules.segments(nt),
                "segment sizes of rule {name}"
            );
        }
        let rhs = &g.rule(g.start()).rhs;
        for node in rhs.walk_from(rhs.root()) {
            assert_eq!(
                self.sizes.get(node.index()).copied().unwrap_or(0),
                fresh.sizes[node.index()],
                "subtree size of start-rule node {node:?}"
            );
        }
        assert_eq!(self.total, fresh.total, "derived size");
        assert_eq!(self.edges, fresh.edges, "edge total");
        assert_eq!(fresh.edges, g.edge_count(), "edge total of a fresh session");
    }

    /// Makes the node at 0-based preorder index `target` of the derived tree
    /// explicit in the start rule and returns its node id there: one descent
    /// from the start rule's root that inlines exactly the references whose
    /// own content derives the target. A reference an earlier isolation of
    /// this session inlined is explicit now and is walked, not inlined again.
    /// An out-of-range target fails before anything is inlined.
    pub fn isolate_one(&mut self, g: &mut Grammar, target: u128) -> Result<NodeId> {
        if target >= self.total {
            return Err(RepairError::TargetOutOfRange {
                index: target,
                size: self.total,
            });
        }
        let start = g.start();
        let mut node = g.rule(start).rhs.root();
        // Offset of the target within the subtree derived from `node`.
        let mut rem = target;
        loop {
            debug_assert!(
                rem < self.sizes[node.index()],
                "the target lies under `node`"
            );
            let rhs = &g.rule(start).rhs;
            match rhs.kind(node) {
                NodeKind::Term(_) if rem == 0 => return Ok(node),
                NodeKind::Term(_) => {
                    rem -= 1;
                    for &c in rhs.children(node) {
                        let s = self.sizes[c.index()];
                        if rem < s {
                            node = c;
                            break;
                        }
                        rem -= s;
                    }
                }
                NodeKind::Nt(callee) => {
                    // The callee's segments and the arguments interleave.
                    // Scan with a separate offset: `rem` must survive intact
                    // when the target lies in a segment and the reference is
                    // inlined and walked again from the same position.
                    let args = rhs.children(node);
                    let mut offset = 0;
                    let mut into_arg = None;
                    for (j, &seg) in self.rules.segments(callee).iter().enumerate() {
                        offset += seg;
                        if rem < offset {
                            break;
                        }
                        let Some(&arg) = args.get(j) else { break };
                        let s = self.sizes[arg.index()];
                        if rem < offset + s {
                            into_arg = Some((arg, rem - offset));
                            break;
                        }
                        offset += s;
                    }
                    if let Some((arg, within)) = into_arg {
                        node = arg;
                        rem = within;
                    } else {
                        let params = args.len();
                        let copy = g.inline_at(start, node);
                        self.stats.inlinings += 1;
                        // The copy holds the callee's nodes minus its
                        // parameters; the reference node is gone.
                        self.edges += self.rules.rhs_nodes(callee) - params - 1;
                        self.fill_sizes(g, copy);
                        node = copy;
                    }
                }
                NodeKind::Param(_) => {
                    unreachable!("the start rule has rank 0 and contains no parameters")
                }
            }
        }
    }

    /// Computes subtree sizes for the nodes freshly created by an inlining or
    /// a graft. Nodes already present in the table (the grafted argument
    /// subtrees and everything outside the copy) are reused, not descended
    /// into — arena ids are never recycled, so present entries are always
    /// current.
    fn fill_sizes(&mut self, g: &Grammar, root: NodeId) {
        self.rules
            .fill_subtree_sizes(&g.rule(g.start()).rhs, root, &mut self.sizes);
    }
}

/// Reads the terminal label at preorder index `target` of the derived tree.
///
/// This is a **read-only** lookup: it resolves through freshly built
/// [`crate::navigate::NavTables`] and a positional cursor jump
/// ([`crate::navigate::Cursor::node_at_preorder`]) instead of isolating the
/// path, so the grammar is never mutated by a read. Holders with a cached
/// table snapshot ([`crate::store::DomStore`]) answer the same lookup
/// without the O(grammar) table build this convenience wrapper pays.
pub fn label_at(g: &Grammar, target: u128) -> Result<String> {
    let mut cursor = crate::navigate::Cursor::new(g);
    if !cursor.node_at_preorder(target) {
        return Err(RepairError::TargetOutOfRange {
            index: target,
            size: derived_size(g),
        });
    }
    Ok(cursor.label().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::fingerprint::fingerprint;
    use sltgrammar::text::parse_grammar;

    #[test]
    fn isolation_preserves_the_derived_tree_and_bounds_growth() {
        let mut g = parse_grammar(
            "S -> f(A(B,B),#)\n\
             B -> A(#,#)\n\
             A -> a(#, a(y1, y2))",
        )
        .unwrap();
        let before = fingerprint(&g);
        let size_before = g.edge_count();
        let (_, stats) = isolate(&mut g, 7).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), before);
        assert!(stats.inlinings >= 1);
        // Lemma 1: |iso(G, u)| <= 2 |G| (edge counts; allow the small additive
        // slack caused by counting per-rule edges).
        assert!(g.edge_count() <= 2 * size_before + 2);
    }

    #[test]
    fn labels_along_the_derived_tree_match_val() {
        let g0 = parse_grammar(
            "S -> f(A(B,B),#)\n\
             B -> A(#,#)\n\
             A -> a(#, a(y1, y2))",
        )
        .unwrap();
        let val = sltgrammar::derive::val(&g0).unwrap();
        let expected: Vec<String> = val
            .preorder()
            .iter()
            .map(|&n| match val.kind(n) {
                NodeKind::Term(t) => g0.symbols.name(t).to_string(),
                _ => unreachable!(),
            })
            .collect();
        for (i, want) in expected.iter().enumerate() {
            let got = label_at(&g0, i as u128).unwrap();
            assert_eq!(&got, want, "label mismatch at preorder index {i}");
        }
    }

    #[test]
    fn exponential_grammar_positions_are_reachable() {
        // The paper's G_exp example: a chain of doubling rules deriving a^1024
        // (as a monadic tree with a null leaf).
        let mut text = String::from("S -> A1(A1(#))\n");
        for i in 1..=9 {
            text.push_str(&format!("A{i} -> A{}(A{}(y1))\n", i + 1, i + 1));
        }
        text.push_str("A10 -> a(y1)");
        let g0 = parse_grammar(&text).unwrap();
        assert_eq!(derived_size(&g0), 1025);
        // Rename position 333 (0-based 332): only a logarithmic number of rules
        // must be inlined.
        let mut g = g0.clone();
        let before = fingerprint(&g);
        let (node, stats) = isolate(&mut g, 332).unwrap();
        assert!(g.rule(g.start()).rhs.kind(node).is_term());
        assert_eq!(fingerprint(&g), before);
        assert!(stats.inlinings <= 11);
        assert!(g.edge_count() <= 2 * g0.edge_count() + 2);
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        let mut g = parse_grammar("S -> a(#,#)").unwrap();
        assert!(matches!(
            isolate(&mut g, 3),
            Err(RepairError::TargetOutOfRange { .. })
        ));
        assert!(isolate(&mut g, 2).is_ok());
    }

    #[test]
    fn isolating_an_already_explicit_node_does_not_inline() {
        let mut g = parse_grammar("S -> f(a(#,#),#)").unwrap();
        let (_, stats) = isolate(&mut g, 1).unwrap();
        assert_eq!(stats.inlinings, 0);
    }

    fn shared_grammar() -> Grammar {
        parse_grammar(
            "S -> f(A(B,B),#)\n\
             B -> A(#,#)\n\
             A -> a(#, a(y1, y2))",
        )
        .unwrap()
    }

    /// Isolates `targets` one after another through one session, as a
    /// batch of updates does.
    fn isolate_in_turn(g: &mut Grammar, targets: &[u128]) -> (Vec<NodeId>, IsolationStats) {
        let mut batch = IsolationBatch::new(g);
        let nodes = targets
            .iter()
            .map(|&t| batch.isolate_one(g, t).unwrap())
            .collect();
        batch.assert_matches_rebuild(g);
        (nodes, batch.stats())
    }

    #[test]
    fn batched_isolation_resolves_every_target_like_single_isolation() {
        let g0 = shared_grammar();
        let total = derived_size(&g0);
        let targets: Vec<u128> = (0..total).collect();
        let mut g = g0.clone();
        let before = fingerprint(&g);
        let (nodes, _) = isolate_in_turn(&mut g, &targets);
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), before);
        // Every resolved node carries the label single isolation would find:
        // later isolations never move a node an earlier one made explicit.
        for (i, &node) in nodes.iter().enumerate() {
            let got = match g.rule(g.start()).rhs.kind(node) {
                NodeKind::Term(t) => g.symbols.name(t).to_string(),
                other => panic!("expected terminal, got {other:?}"),
            };
            let want = label_at(&g0, i as u128).unwrap();
            assert_eq!(got, want, "label mismatch at preorder index {i}");
        }
        // Isolating everything at worst unfolds the document.
        assert!(g.edge_count() as u128 <= 2 * total);
    }

    #[test]
    fn batched_isolation_shares_path_prefixes() {
        // Two targets under the same deep chain: the session must walk the
        // chain the first isolation made explicit, not inline it again.
        let mut text = String::from("S -> A1(A1(#))\n");
        for i in 1..=9 {
            text.push_str(&format!("A{i} -> A{}(A{}(y1))\n", i + 1, i + 1));
        }
        text.push_str("A10 -> a(y1)");
        let g0 = parse_grammar(&text).unwrap();
        let mut g = g0.clone();
        let (_, single) = isolate(&mut g, 332).unwrap();
        let mut g = g0.clone();
        let before = fingerprint(&g);
        let (nodes, batched) = isolate_in_turn(&mut g, &[332, 333]);
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), before);
        assert_ne!(nodes[0], nodes[1]);
        // Adjacent positions share almost the whole path: the second
        // isolation pays at most one inlining.
        assert!(
            batched.inlinings <= single.inlinings + 1,
            "session inlined {} vs single {}",
            batched.inlinings,
            single.inlinings
        );
    }

    #[test]
    fn batched_isolation_handles_duplicates_and_empty_batches() {
        let mut g = shared_grammar();
        let (nodes, _) = isolate_in_turn(&mut g, &[4, 4, 2]);
        assert_eq!(nodes[0], nodes[1]);
        assert_ne!(nodes[0], nodes[2]);
        let (none, stats) = isolate_in_turn(&mut g, &[]);
        assert!(none.is_empty());
        assert_eq!(stats.inlinings, 0);
    }

    #[test]
    fn batched_isolation_rejects_out_of_range_targets_before_mutating() {
        let mut g = shared_grammar();
        let mut batch = IsolationBatch::new(&g);
        batch.isolate_one(&mut g, 4).unwrap();
        let before = (g.edge_count(), g.rule(g.start()).rhs.version());
        assert!(matches!(
            batch.isolate_one(&mut g, 10_000),
            Err(RepairError::TargetOutOfRange { .. })
        ));
        assert_eq!(
            (g.edge_count(), g.rule(g.start()).rhs.version()),
            before,
            "a failed isolation must not touch the grammar"
        );
        batch.assert_matches_rebuild(&g);
    }
}
