//! Derivation: materializing `val_G(S)` and derived-size computations.
//!
//! Every size in this module comes from [`RuleSizes`], one bottom-up,
//! size-only pass over the grammar. [`crate::fingerprint::summaries`] computes
//! the same lengths alongside a hash of every label; callers that only want
//! lengths use this module and pay for no hashing.

use std::collections::HashMap;

use crate::error::{GrammarError, Result};
use crate::grammar::Grammar;
use crate::node::{NodeId, NodeKind};
use crate::rhs::RhsTree;
use crate::symbol::NtId;

/// Default node limit for [`val`]; grammars deriving larger trees must use
/// [`val_limited`] explicitly.
pub const DEFAULT_VAL_LIMIT: u64 = 50_000_000;

/// Dense per-rule size tables — the paper's `size(A, 0..k)` precomputation —
/// built by one size-only pass: a DFS post-order over the call graph
/// (callees first) on `nt_bound()`-sized vectors, no label hashing, no
/// hashed call graph. Every table is indexed by [`NtId::index`]; slots of
/// removed rules read as empty. All sizes saturate at `u128::MAX`, exactly
/// like the lengths in [`crate::fingerprint::summaries`].
#[derive(Debug)]
pub struct RuleSizes {
    /// `own[A]`: nodes `val(A)` contributes itself, excluding argument trees.
    own: Vec<u128>,
    /// Rule `A`'s `rank + 1` segment sizes are
    /// `segments[seg_start[A]..seg_start[A + 1]]`.
    seg_start: Vec<u32>,
    segments: Vec<u128>,
    /// `rhs_nodes[A]`: nodes of `A`'s right-hand side (its edge count + 1).
    rhs_nodes: Vec<u32>,
}

/// DFS colours of [`RuleSizes::new`].
const NEW: u8 = 0;
const OPEN: u8 = 1;
const DONE: u8 = 2;

impl RuleSizes {
    /// Sizes every live rule of `g` (reachable from the start rule or not).
    ///
    /// # Panics
    ///
    /// Panics if the grammar is not straight-line.
    pub fn new(g: &Grammar) -> Self {
        let bound = g.nt_bound();
        let mut seg_start = Vec::with_capacity(bound + 1);
        let mut total = 0u32;
        for i in 0..bound {
            seg_start.push(total);
            if let Some(rule) = g.try_rule(NtId(i as u32)) {
                total += rule.rank as u32 + 1;
            }
        }
        seg_start.push(total);
        let mut tables = RuleSizes {
            own: vec![0; bound],
            seg_start,
            segments: vec![0; total as usize],
            rhs_nodes: vec![0; bound],
        };
        // `order[seg_start[A] + i]` is the parameter behind the `i`-th hole
        // of `val(A)` in preorder (the identity unless a rule lists its
        // parameters out of order). Only the pass itself needs it.
        let mut order = vec![0u32; total as usize];
        let mut frames = Vec::new();
        let mut state = vec![NEW; bound];
        // One entry per rule on the current call chain: the rule and where
        // its scan for not-yet-sized callees resumes.
        let mut chain: Vec<(NtId, Option<NodeId>)> = Vec::new();
        for i in 0..bound {
            let nt = NtId(i as u32);
            if state[i] != NEW || !g.has_rule(nt) {
                continue;
            }
            state[i] = OPEN;
            chain.push((nt, Some(g.rule(nt).rhs.root())));
            while let Some(&(nt, mut cursor)) = chain.last() {
                let rhs = &g.rule(nt).rhs;
                let mut unsized_callee = None;
                while let Some(node) = cursor {
                    cursor = rhs.preorder_next(rhs.root(), node);
                    if let NodeKind::Nt(callee) = rhs.kind(node) {
                        match state[callee.index()] {
                            DONE => {}
                            NEW => {
                                unsized_callee = Some(callee);
                                break;
                            }
                            _ => panic!("size tables require a straight-line grammar"),
                        }
                    }
                }
                match unsized_callee {
                    Some(callee) => {
                        chain.last_mut().expect("chain is non-empty").1 = cursor;
                        state[callee.index()] = OPEN;
                        chain.push((callee, Some(g.rule(callee).rhs.root())));
                    }
                    None => {
                        tables.size_rule(g, nt, &mut order, &mut frames);
                        state[nt.index()] = DONE;
                        chain.pop();
                    }
                }
            }
        }
        tables
    }

    /// Fills in the tables of `nt`, whose callees are all sized: one walk of
    /// its right-hand side in the preorder of `val(nt)` — at a nonterminal
    /// reference the callee's segments interleave with the argument subtrees.
    fn size_rule(
        &mut self,
        g: &Grammar,
        nt: NtId,
        order: &mut [u32],
        frames: &mut Vec<(NodeId, usize)>,
    ) {
        let rule = g.rule(nt);
        let rhs = &rule.rhs;
        let base = self.seg_start[nt.index()] as usize;
        let mut seg = 0;
        let mut acc: u128 = 0;
        let mut nodes = 0u32;
        frames.clear();
        frames.push((rhs.root(), 0));
        while let Some(frame) = frames.last_mut() {
            // `visit` counts how often the walk has stood on `node`: once on
            // entry, once more after each child it descended into.
            let (node, visit) = *frame;
            frame.1 += 1;
            nodes += u32::from(visit == 0);
            let children = rhs.children(node);
            let descend = match rhs.kind(node) {
                NodeKind::Term(_) => {
                    if visit == 0 {
                        acc = acc.saturating_add(1);
                    }
                    children.get(visit).copied()
                }
                NodeKind::Param(p) => {
                    assert!(seg < rule.rank, "rule `{}` has more parameters than its rank", rule.name);
                    self.segments[base + seg] = acc;
                    order[base + seg] = p;
                    seg += 1;
                    acc = 0;
                    None
                }
                NodeKind::Nt(callee) => {
                    let callee_base = self.seg_start[callee.index()] as usize;
                    debug_assert_eq!(
                        children.len() + 1,
                        self.seg_start[callee.index() + 1] as usize - callee_base,
                        "a reference passes one argument per parameter"
                    );
                    acc = acc.saturating_add(self.segments[callee_base + visit]);
                    (visit < children.len()).then(|| children[order[callee_base + visit] as usize])
                }
            };
            match descend {
                Some(child) => frames.push((child, 0)),
                None => {
                    frames.pop();
                }
            }
        }
        assert_eq!(seg, rule.rank, "rule `{}` has fewer parameters than its rank", rule.name);
        self.segments[base + seg] = acc;
        self.own[nt.index()] = self.segments[base..=base + seg]
            .iter()
            .fold(0u128, |a, &b| a.saturating_add(b));
        self.rhs_nodes[nt.index()] = nodes;
    }

    /// Number of nodes `val(nt)` contributes on its own, excluding the trees
    /// substituted for its parameters.
    #[inline]
    pub fn own(&self, nt: NtId) -> u128 {
        self.own[nt.index()]
    }

    /// The paper's `size(nt, 0) .. size(nt, k)`: the number of nodes of
    /// `val(nt)` before `y1`, between consecutive parameters, and after `yk`
    /// in preorder.
    #[inline]
    pub fn segments(&self, nt: NtId) -> &[u128] {
        &self.segments[self.seg_start[nt.index()] as usize..self.seg_start[nt.index() + 1] as usize]
    }

    /// Number of nodes of `nt`'s right-hand side at the time of the pass.
    #[inline]
    pub fn rhs_nodes(&self, nt: NtId) -> usize {
        self.rhs_nodes[nt.index()] as usize
    }

    /// Derived subtree sizes of `rhs` below `root`, into the dense table
    /// `sizes` (indexed by [`NodeId::index`], grown to the arena, `0` =
    /// not sized yet): the number of nodes of the derived tree rooted at each
    /// node — a reference contributes its rule's own size plus its argument
    /// subtrees, a parameter nothing (its content is the caller's). Nodes
    /// already sized are reused, not descended into.
    pub fn fill_subtree_sizes(&self, rhs: &RhsTree, root: NodeId, sizes: &mut Vec<u128>) {
        if sizes.len() < rhs.arena_len() {
            sizes.resize(rhs.arena_len(), 0);
        }
        let mut stack = vec![(root, false)];
        while let Some((n, children_done)) = stack.pop() {
            if sizes[n.index()] != 0 {
                continue;
            }
            if children_done {
                let children_sum = rhs
                    .children(n)
                    .iter()
                    .fold(0u128, |a, c| a.saturating_add(sizes[c.index()]));
                sizes[n.index()] = match rhs.kind(n) {
                    NodeKind::Term(_) => children_sum.saturating_add(1),
                    NodeKind::Nt(b) => children_sum.saturating_add(self.own(b)),
                    NodeKind::Param(_) => 0,
                };
            } else {
                stack.push((n, true));
                for &c in rhs.children(n) {
                    if sizes[c.index()] == 0 {
                        stack.push((c, false));
                    }
                }
            }
        }
    }
}

/// Per-rule number of nodes `val(A)` contributes on its own (excluding the
/// trees substituted for its parameters) — a map view of [`RuleSizes::own`].
pub fn own_sizes(g: &Grammar) -> HashMap<NtId, u128> {
    let sizes = RuleSizes::new(g);
    g.nonterminals()
        .into_iter()
        .map(|nt| (nt, sizes.own(nt)))
        .collect()
}

/// Per-rule segment sizes `size(A, 0) .. size(A, k)` of the paper — a map
/// view of [`RuleSizes::segments`].
pub fn segment_sizes(g: &Grammar) -> HashMap<NtId, Vec<u128>> {
    let sizes = RuleSizes::new(g);
    g.nonterminals()
        .into_iter()
        .map(|nt| (nt, sizes.segments(nt).to_vec()))
        .collect()
}

/// Materializes the derived tree `val_G(S)` as a plain [`RhsTree`] containing
/// only terminal nodes, provided it does not exceed `limit` nodes.
pub fn val_limited(g: &Grammar, limit: u64) -> Result<RhsTree> {
    let size = crate::fingerprint::derived_size(g);
    if size > limit as u128 {
        return Err(GrammarError::DerivationTooLarge { limit });
    }
    let mut tree = g.rule(g.start()).rhs.clone();
    loop {
        let nts: Vec<NodeId> = tree
            .preorder()
            .into_iter()
            .filter(|&n| tree.kind(n).is_nt())
            .collect();
        if nts.is_empty() {
            break;
        }
        for node in nts {
            let callee = tree
                .kind(node)
                .as_nt()
                .expect("collected nodes are nonterminal references");
            let callee_rhs = g.rule(callee).rhs.clone();
            tree.inline_at(node, &callee_rhs);
        }
    }
    tree.compact();
    Ok(tree)
}

/// Materializes `val_G(S)` with the default limit of [`DEFAULT_VAL_LIMIT`] nodes.
pub fn val(g: &Grammar) -> Result<RhsTree> {
    val_limited(g, DEFAULT_VAL_LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{derived_size, fingerprint, label_code, summaries, Segment};
    use crate::text::parse_grammar;

    fn paper_grammar() -> Grammar {
        parse_grammar("S -> f(A(B,B),#)\nB -> A(#,#)\nA -> a(#, a(y1, y2))").unwrap()
    }

    #[test]
    fn val_materializes_the_paper_example() {
        let g = paper_grammar();
        let t = val(&g).unwrap();
        assert_eq!(t.node_count(), 15);
        // No nonterminals or parameters remain.
        assert!(t
            .preorder()
            .iter()
            .all(|&n| t.kind(n).is_term()));
        // The preorder hash of the materialized tree equals the grammar fingerprint.
        let mut seg = Segment::empty();
        for n in t.preorder() {
            let term = t.kind(n).as_term().unwrap();
            seg.push_label(label_code(g.symbols.name(term)));
        }
        let fp = fingerprint(&g);
        assert_eq!(seg.hash, fp.hash);
        assert_eq!(seg.len, fp.size);
    }

    #[test]
    fn val_respects_the_limit() {
        let mut text = String::from("S -> f(A1,#)\n");
        for i in 1..30 {
            text.push_str(&format!("A{i} -> g(A{},A{})\n", i + 1, i + 1));
        }
        text.push_str("A30 -> a");
        let g = parse_grammar(&text).unwrap();
        let err = val_limited(&g, 1_000).unwrap_err();
        assert!(matches!(err, GrammarError::DerivationTooLarge { .. }));
    }

    #[test]
    fn own_sizes_and_subtree_sizes_are_consistent() {
        let g = paper_grammar();
        let own = own_sizes(&g);
        let a = g.nt_by_name("A").unwrap();
        let b = g.nt_by_name("B").unwrap();
        assert_eq!(own[&a], 3); // a, #, a — parameters excluded
        assert_eq!(own[&b], 5); // A(#,#) derives a(#, a(#, #))
        assert_eq!(own[&g.start()], 15);

        let start_rhs = &g.rule(g.start()).rhs;
        let mut sizes = Vec::new();
        RuleSizes::new(&g).fill_subtree_sizes(start_rhs, start_rhs.root(), &mut sizes);
        assert_eq!(sizes[start_rhs.root().index()], 15);
        // f(A(B,B),#): the reference to A spans everything but f and the null.
        assert_eq!(sizes[start_rhs.children(start_rhs.root())[0].index()], 13);
    }

    #[test]
    fn segment_sizes_for_paper_running_example() {
        let g = paper_grammar();
        let a = g.nt_by_name("A").unwrap();
        let sizes = segment_sizes(&g);
        // val(A) = a(#, a(y1, y2)): before y1 -> a,#,a = 3 nodes; between y1,y2 -> 0; after -> 0.
        assert_eq!(sizes[&a], vec![3, 0, 0]);
    }

    /// The size-only pass and the hashing pass agree on every length.
    fn assert_sizes_match_summaries(g: &Grammar) {
        let all = summaries(g);
        let sizes = RuleSizes::new(g);
        let own = own_sizes(g);
        let segments = segment_sizes(g);
        assert_eq!(own.len(), all.len());
        assert_eq!(segments.len(), all.len());
        for (nt, summary) in &all {
            let rule = g.rule(*nt);
            assert_eq!(own[nt], summary.own_size, "own size of {}", rule.name);
            assert_eq!(sizes.own(*nt), summary.own_size);
            assert_eq!(segments[nt], summary.segment_sizes(rule.rank), "segments of {}", rule.name);
            assert_eq!(sizes.segments(*nt), &segments[nt][..]);
            assert_eq!(sizes.rhs_nodes(*nt), rule.rhs.node_count());
        }
        assert_eq!(derived_size(g), fingerprint(g).size);
        assert_eq!(derived_size(g), all[&g.start()].own_size);
    }

    #[test]
    fn size_only_pass_matches_the_fingerprint_summaries() {
        assert_sizes_match_summaries(&paper_grammar());
        // Three parameters with content between them, and a rule listing its
        // parameters out of order.
        assert_sizes_match_summaries(
            &parse_grammar("S -> r(A(x,B(x,r(x)),x))\nA -> f(y1, g(h(a, y2), g(a, y3)))\nB -> b(y2, y1)")
                .unwrap(),
        );

        // 140 doubling rules: every size past the 128th saturates.
        let mut text = String::from("S -> f(A1(#),#)\n");
        for i in 1..140 {
            text.push_str(&format!("A{i} -> A{}(A{}(y1))\n", i + 1, i + 1));
        }
        text.push_str("A140 -> a(a(y1,#),#)");
        let exp = parse_grammar(&text).unwrap();
        assert_eq!(derived_size(&exp), u128::MAX);
        assert_sizes_match_summaries(&exp);

        // Removed rule slots: an orphan collected by `gc`, and a rule inlined
        // away, leave holes in the id space that the dense tables skip.
        let mut g = paper_grammar();
        let orphan = RhsTree::singleton(NodeKind::Term(g.symbols.null()));
        g.add_rule("Orphan", 0, orphan);
        assert_sizes_match_summaries(&g);
        assert_eq!(g.gc(), 1);
        let b = g.nt_by_name("B").unwrap();
        g.inline_everywhere_and_remove(b);
        let late = RhsTree::singleton(NodeKind::Term(g.symbols.null()));
        g.add_rule("Late", 0, late);
        assert_eq!(g.nt_bound(), 5);
        assert_eq!(g.rule_count(), 3);
        assert_sizes_match_summaries(&g);
        assert_eq!(derived_size(&g), 15);
    }
}
