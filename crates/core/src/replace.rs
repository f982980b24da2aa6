//! Replacing all occurrences of a digram directly on a grammar
//! (paper Section IV-B/IV-E, Algorithms 5–8).
//!
//! Rules are processed callees-first (anti-straight-line order). For every rule
//! that contains occurrence generators of the chosen digram, three phases run:
//!
//! 1. **Localization** — the minimal inlining steps that make the `a`- and
//!    `b`-nodes of every crossing occurrence explicit within the rule
//!    (Algorithm 5 / the inlining part of Algorithm 7).
//! 2. **Local replacement** — every local occurrence is replaced by the fresh
//!    pattern nonterminal, top-down greedy along chains of overlapping
//!    (equal-label) occurrences, exactly as TreeRePair does on trees.
//! 3. **Fragment export** (optimized mode only, Algorithm 8) — connected
//!    fragments that are not needed by callers are moved into new rules, so that
//!    later inlinings of this rule stay small ("lemma generation").
//!
//! Phases 1 and 2 are *occurrence-driven*: the caller supplies, per rule, the
//! nodes that generate candidates of the digram ([`Sites`]), and the phases
//! touch only those nodes, the copies that localization inlines, and the
//! argument subtrees hanging off those copies. No node outside that set can
//! become an occurrence during the round — inlining and fragment export
//! preserve every resolved digram, and a replacement only creates digrams
//! that mention the fresh pattern rule — so nothing else is ever scanned.

use sltgrammar::{FxHashMap, FxHashSet, Grammar, NodeId, NodeKind, NtId, RhsTree};
use treerepair::Digram;

use crate::occurrences::{is_transparent_nt, tree_child, tree_parent, FrozenSet, Sites};

/// Statistics of one digram replacement pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaceStats {
    /// Number of inlining steps performed during localization.
    pub inlinings: usize,
    /// Number of occurrences replaced by the pattern nonterminal.
    pub replacements: usize,
    /// Number of fragment rules exported (optimized mode only).
    pub exported_rules: usize,
    /// Number of chain resolutions (`TREEPARENT` + `TREECHILD` of one node)
    /// localization performed — a deterministic work counter.
    pub resolved_candidates: usize,
}

/// Reference-site counts of every rule, maintained *incrementally* through
/// the splices of replacement rounds.
///
/// [`export_fragments`] needs to know whether a rule is referenced more than
/// once. The counts are seeded once per recompression run — from
/// [`crate::occ_index::OccIndex::ref_counts`]'s call graph on the incremental
/// path, from one `Grammar::ref_counts` walk per round on the rebuild oracle
/// path — and kept exact across a round's mutation kinds: adding or removing
/// the pattern rule, inlining a callee (one reference gone, the callee's body
/// references copied in), replacing occurrences by the pattern rule, and
/// exporting a fragment into a fresh rule.
#[derive(Debug, Clone, Default)]
pub struct RefCounts {
    /// Indexed by [`NtId`]; rules past the end have no references.
    counts: Vec<u64>,
}

impl RefCounts {
    /// Seeds the counts with one full-grammar walk (the rebuild oracle path).
    pub fn from_grammar(g: &Grammar) -> Self {
        let mut refs = RefCounts::default();
        for nt in g.nonterminals() {
            refs.add_rule_body(g, nt);
        }
        refs
    }

    /// Seeds the counts from an already-maintained call graph (the
    /// [`crate::occ_index::OccIndex`] path — no body walk).
    pub fn from_counts(counts: impl IntoIterator<Item = (NtId, u64)>) -> Self {
        let mut refs = RefCounts::default();
        for (nt, count) in counts {
            refs.add(nt, count);
        }
        refs
    }

    /// Current number of reference sites of `nt`.
    pub fn count(&self, nt: NtId) -> u64 {
        self.counts.get(nt.index()).copied().unwrap_or(0)
    }

    /// Whether the counts equal a fresh walk over every rule body.
    pub fn matches(&self, g: &Grammar) -> bool {
        let walked = RefCounts::from_grammar(g);
        (0..g.nt_bound().max(self.counts.len())).all(|i| {
            let nt = NtId(i as u32);
            self.count(nt) == walked.count(nt)
        })
    }

    /// Adds `delta` references to `nt`.
    fn add(&mut self, nt: NtId, delta: u64) {
        if nt.index() >= self.counts.len() {
            self.counts.resize(nt.index() + 1, 0);
        }
        self.counts[nt.index()] += delta;
    }

    /// Removes `delta` references from `nt`.
    fn sub(&mut self, nt: NtId, delta: u64) {
        let slot = &mut self.counts[nt.index()];
        debug_assert!(*slot >= delta, "reference count underflow");
        *slot = slot.saturating_sub(delta);
    }

    /// Accounts the references contributed by `rule`'s current body (used to
    /// fold a freshly added pattern rule into seeded counts).
    pub fn add_rule_body(&mut self, g: &Grammar, rule: NtId) {
        let rhs = &g.rule(rule).rhs;
        for node in rhs.walk_from(rhs.root()) {
            if let NodeKind::Nt(callee) = rhs.kind(node) {
                self.add(callee, 1);
            }
        }
    }

    /// Retracts the references contributed by `rule`'s current body (used
    /// before a useless pattern rule is removed again).
    pub fn remove_rule_body(&mut self, g: &Grammar, rule: NtId) {
        let rhs = &g.rule(rule).rhs;
        for node in rhs.walk_from(rhs.root()) {
            if let NodeKind::Nt(callee) = rhs.kind(node) {
                self.sub(callee, 1);
            }
        }
    }

    /// Accounts one inlining of `callee`: the consumed reference site goes
    /// away and a copy of the callee's body (with its reference sites) is
    /// spliced into the caller. Must be called with the callee body in the
    /// state that is actually inlined (i.e. after any fragment export on it).
    fn note_inline(&mut self, g: &Grammar, callee: NtId) {
        self.sub(callee, 1);
        self.add_rule_body(g, callee);
    }

    /// Accounts `n` digram replacements by pattern rule `x`: each removes the
    /// occurrence's parent and child nodes (which are reference sites when
    /// the digram end is a frozen nonterminal) and adds one reference to `x`.
    fn note_replacements(&mut self, digram: &Digram, x: NtId, n: u64) {
        if n == 0 {
            return;
        }
        if let NodeKind::Nt(p) = digram.parent {
            self.sub(p, n);
        }
        if let NodeKind::Nt(c) = digram.child {
            self.sub(c, n);
        }
        self.add(x, n);
    }
}

/// Replaces all occurrences of `digram` in the grammar by references to the
/// (already created, frozen) pattern rule `x`.
///
/// `sites` lists the rules containing occurrence generators of the digram in
/// anti-straight-line order (callees first), each with its candidate nodes —
/// as collected by [`crate::occurrences::DigramOccs::sites`] or maintained by
/// [`crate::occ_index::OccIndex::sites`]; only those rules and, within them,
/// only those nodes and what localization inlines around them are visited.
/// With `optimize` set, fragment export keeps intermediate rules small.
pub fn replace_all_occurrences(
    g: &mut Grammar,
    digram: &Digram,
    x: NtId,
    sites: &Sites,
    frozen: &FrozenSet,
    optimize: bool,
    refs: &mut RefCounts,
) -> ReplaceStats {
    let mut stats = ReplaceStats::default();
    // Rules already reduced by fragment export in this round ("lemma generation"
    // cache): reducing a multiply-referenced rule once benefits every later
    // inlining of it.
    let mut reduced: FxHashSet<NtId> = FxHashSet::default();

    for (rule, nodes) in sites {
        let rule = *rule;
        debug_assert!(!frozen.contains(&rule), "frozen rules hold no generators");
        let occurrences =
            localize(g, rule, digram, nodes, frozen, optimize, &mut reduced, refs, &mut stats);
        let replaced = replace_local(g, rule, digram, x, &occurrences);
        refs.note_replacements(digram, x, replaced as u64);
        stats.replacements += replaced;
        if optimize {
            stats.exported_rules += export_fragments(g, rule, refs);
            reduced.insert(rule);
        }
    }
    stats
}

/// Phase 1: inline transparent nonterminals until every occurrence of `digram`
/// generated by one of `nodes` has both its `a`- and `b`-node inside `rule`.
/// Returns every node found to generate an occurrence along the way — the
/// child ends [`replace_local`] has to look at.
///
/// The first pass inspects the supplied candidate nodes; each later pass
/// inspects only what the previous pass inlined: the fresh copies (whose
/// roots and inner references may need further inlining) and the argument
/// subtrees re-attached below them. Candidates are re-verified by a chain
/// walk because callees processed earlier in the round may have replaced the
/// node a cached resolution ended at.
///
/// In optimized mode, a multiply-referenced callee is first reduced by fragment
/// export (once per round) so that every inlined copy of it stays small — the
/// paper's "lemma generation".
#[allow(clippy::too_many_arguments)]
pub fn localize(
    g: &mut Grammar,
    rule: NtId,
    digram: &Digram,
    nodes: &[NodeId],
    frozen: &FrozenSet,
    optimize: bool,
    reduced: &mut FxHashSet<NtId>,
    refs: &mut RefCounts,
    stats: &mut ReplaceStats,
) -> Vec<NodeId> {
    let mut occurrences: Vec<NodeId> = Vec::new();
    let mut inspect: Vec<NodeId> = nodes.to_vec();
    loop {
        let mut targets: Vec<NodeId> = Vec::new();
        {
            let rhs = &g.rule(rule).rhs;
            let root = rhs.root();
            for &node in &inspect {
                if node == root || rhs.kind(node).is_param() || rhs.is_floating(node) {
                    continue;
                }
                stats.resolved_candidates += 1;
                let Some((tp, index)) = tree_parent(g, rule, node, frozen) else {
                    continue;
                };
                if index != digram.child_index {
                    continue;
                }
                let tc = tree_child(g, rule, node, frozen);
                let tp_kind = g.rule(tp.0).rhs.kind(tp.1);
                let tc_kind = g.rule(tc.0).rhs.kind(tc.1);
                if tp_kind != digram.parent || tc_kind != digram.child {
                    continue;
                }
                // Equal-label occurrences crossing a rule root are never replaced.
                if digram.equal_labels() && is_transparent_nt(rhs.kind(node), frozen) {
                    continue;
                }
                occurrences.push(node);
                let parent = rhs.parent(node).expect("non-root node has a parent");
                if is_transparent_nt(rhs.kind(parent), frozen) {
                    targets.push(parent);
                } else if is_transparent_nt(rhs.kind(node), frozen) {
                    targets.push(node);
                }
            }
        }
        targets.sort_unstable();
        targets.dedup();
        if targets.is_empty() {
            return occurrences;
        }
        let created_from = g.rule(rule).rhs.arena_len();
        for node in targets {
            let callee = g.rule(rule).rhs.kind(node).as_nt().expect("targets are references");
            if optimize && !reduced.contains(&callee) {
                stats.exported_rules += export_fragments(g, callee, refs);
                reduced.insert(callee);
            }
            refs.note_inline(g, callee);
            g.inline_at(rule, node);
            stats.inlinings += 1;
        }
        // Next pass: the inlined copies and the old subtrees now hanging off them.
        let rhs = &g.rule(rule).rhs;
        inspect.clear();
        for index in created_from..rhs.arena_len() {
            let fresh = NodeId(index as u32);
            inspect.push(fresh);
            inspect.extend(rhs.children(fresh).iter().filter(|c| c.index() < created_from));
        }
    }
}

/// Phase 2: replaces every local occurrence of `digram` inside `rule` whose
/// child end is one of `candidates` by a reference to the pattern rule `x`.
/// Occurrences of an equal-label digram overlap along chains; each chain is
/// replaced greedily from its top, which is what a preorder pass over the
/// whole rule would do. Returns the number of replacements.
pub fn replace_local(
    g: &mut Grammar,
    rule: NtId,
    digram: &Digram,
    x: NtId,
    candidates: &[NodeId],
) -> usize {
    let rhs = &mut g.rule_mut(rule).rhs;
    let i = digram.child_index;
    // The parent end of the local occurrence whose child end is `node`, if any.
    let occurrence = |rhs: &RhsTree, node: NodeId| -> Option<NodeId> {
        let parent = rhs.parent(node)?;
        (rhs.kind(parent) == digram.parent
            && rhs.kind(node) == digram.child
            && rhs.children(parent).get(i) == Some(&node))
        .then_some(parent)
    };
    let mut replacements = 0;
    for &candidate in candidates {
        let mut node = candidate;
        let Some(mut parent) = occurrence(rhs, node) else { continue };
        if digram.equal_labels() {
            // Climb to the top of the chain: the occurrence whose parent end
            // is not itself the child end of another occurrence.
            while let Some(above) = occurrence(rhs, parent) {
                node = parent;
                parent = above;
            }
        }
        loop {
            // The next link down the chain that survives this replacement
            // starts at the child end's own `i`-th child.
            let below = rhs.children(node).get(i).copied();
            rhs.replace_digram(parent, i, NodeKind::Nt(x));
            replacements += 1;
            if !digram.equal_labels() {
                break;
            }
            let Some(next_parent) = below else { break };
            let Some(&next) = rhs.children(next_parent).get(i) else { break };
            if occurrence(rhs, next) != Some(next_parent) {
                break;
            }
            node = next;
            parent = next_parent;
        }
    }
    replacements
}

/// Phase 3 (Algorithm 8): exports maximal connected fragments of nodes that are
/// not needed by callers into fresh rules, provided the rule is referenced more
/// than once. The "needed" (marked) nodes are the rule's root and the parents of
/// its parameters — the nodes callers may have to isolate when they inline this
/// rule. Returns the number of exported rules.
///
/// The reference-count check reads the maintained [`RefCounts`] instead of
/// re-walking the grammar per call; exported rules are folded back into the
/// counts.
pub fn export_fragments(g: &mut Grammar, rule: NtId, refs: &mut RefCounts) -> usize {
    if refs.count(rule) <= 1 {
        return 0;
    }

    // Marks and fragment roots. Exports only ever move unmarked nodes, so
    // the marks computed here hold for the whole call.
    let rank = g.rule(rule).rank;
    let rhs = &g.rule(rule).rhs;
    let mut marks: FxHashSet<NodeId> = FxHashSet::default();
    marks.insert(rhs.root());
    marks.extend((0..rank as u32).filter_map(|i| rhs.parent(rhs.find_param(i)?)));
    let in_fragment = |node: NodeId| !marks.contains(&node) && !rhs.kind(node).is_param();
    let fragments: Vec<NodeId> = rhs
        .walk_from(rhs.root())
        .filter(|&node| {
            // The (marked) root is the only node without a parent.
            in_fragment(node) && !rhs.parent(node).is_some_and(in_fragment)
        })
        .collect();

    let mut exported = 0;
    for fragment_root in fragments {
        let rhs = &g.rule(rule).rhs;
        let (fragment_nodes, cut_points) = collect_fragment(rhs, fragment_root, &marks);
        if fragment_nodes.len() < 2 {
            continue;
        }

        // Build the exported rule body: a copy of the fragment with each cut
        // subtree replaced by a fresh parameter (in preorder order).
        let new_rhs = build_exported_rhs(rhs, fragment_root, &fragment_nodes, &cut_points);
        let rank = cut_points.len();
        let new_rule = g.add_rule_fresh("F", rank, new_rhs);
        // The fragment's own reference sites merely move into the new rule;
        // the call node below is the only net change.
        refs.add(new_rule, 1);

        // Replace the fragment inside the original rule by a reference to the
        // new rule applied to the cut subtrees.
        let rhs = &mut g.rule_mut(rule).rhs;
        for &c in &cut_points {
            rhs.detach(c);
        }
        let call = rhs.add_node(NodeKind::Nt(new_rule), cut_points);
        rhs.replace_subtree(fragment_root, call);
        exported += 1;
    }
    exported
}

/// Collects the connected fragment of non-marked, non-parameter nodes rooted at
/// `root`, together with the cut points (children of fragment nodes that are
/// marked or parameters), both in preorder order.
fn collect_fragment(
    rhs: &RhsTree,
    root: NodeId,
    marks: &FxHashSet<NodeId>,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut fragment = Vec::new();
    let mut cuts = Vec::new();
    // True preorder walk: both fragment nodes and cut points are pushed, but
    // cut points are never descended into. This keeps the cut points (and thus
    // the exported rule's parameters) in preorder order.
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        let is_cut = marks.contains(&node) || rhs.kind(node).is_param();
        if is_cut {
            cuts.push(node);
            continue;
        }
        fragment.push(node);
        for &c in rhs.children(node).iter().rev() {
            stack.push(c);
        }
    }
    (fragment, cuts)
}

/// Builds the right-hand side of the exported rule: the fragment with cut
/// subtrees replaced by parameters `y1..yk` in preorder order.
fn build_exported_rhs(
    rhs: &RhsTree,
    root: NodeId,
    fragment: &[NodeId],
    cuts: &[NodeId],
) -> RhsTree {
    let fragment_set: FxHashSet<NodeId> = fragment.iter().copied().collect();
    let cut_index: FxHashMap<NodeId, u32> = cuts
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i as u32))
        .collect();
    let mut out = RhsTree::singleton(NodeKind::Param(u32::MAX));

    // Bottom-up copy: children before parents (reverse preorder of the fragment
    // including cut leaves).
    let mut new_ids: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    let mut order: Vec<NodeId> = Vec::new();
    let mut walk = vec![root];
    while let Some(node) = walk.pop() {
        order.push(node);
        if fragment_set.contains(&node) {
            for &c in rhs.children(node).iter().rev() {
                walk.push(c);
            }
        }
    }
    for &node in order.iter().rev() {
        if let Some(&i) = cut_index.get(&node) {
            let id = out.add_leaf(NodeKind::Param(i));
            new_ids.insert(node, id);
        } else {
            let children: Vec<NodeId> = rhs.children(node).iter().map(|c| new_ids[c]).collect();
            let id = out.add_node(rhs.kind(node), children);
            new_ids.insert(node, id);
        }
    }
    out.set_root(new_ids[&root]);
    out.compact();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occurrences::retrieve_occs;
    use sltgrammar::fingerprint::fingerprint;
    use sltgrammar::text::parse_grammar;
    use treerepair::digram::pattern_rhs;

    fn digram(g: &Grammar, parent: &str, index: usize, child: &str) -> Digram {
        Digram {
            parent: NodeKind::Term(g.symbols.get(parent).unwrap()),
            child_index: index,
            child: NodeKind::Term(g.symbols.get(child).unwrap()),
        }
    }

    /// Runs one replacement round for the given digram and checks the derived
    /// tree is unchanged. Returns the statistics and the fresh pattern rule.
    fn run_round_with_rule(g: &mut Grammar, d: &Digram, optimize: bool) -> (ReplaceStats, NtId) {
        let before = fingerprint(g);
        let frozen = FrozenSet::default();
        let occs = retrieve_occs(g, &frozen);
        let sites = occs.get(d).map(|o| o.sites()).unwrap_or_default();
        let rank = d.pattern_rank(g);
        let x = g.add_rule_fresh("X", rank, pattern_rhs(g, d));
        let mut frozen_after = frozen;
        frozen_after.insert(x);
        let mut refs = RefCounts::from_grammar(g);
        let stats = replace_all_occurrences(g, d, x, &sites, &frozen_after, optimize, &mut refs);
        assert!(refs.matches(g), "maintained reference counts must match a fresh walk");
        g.gc();
        g.validate().unwrap();
        assert_eq!(fingerprint(g), before, "derived tree must be preserved");
        (stats, x)
    }

    fn run_round(g: &mut Grammar, d: &Digram, optimize: bool) -> ReplaceStats {
        run_round_with_rule(g, d, optimize).0
    }

    #[test]
    fn local_occurrences_are_replaced_within_one_rule() {
        let mut g = parse_grammar("S -> f(a(b(#,#),#), a(b(#,#),#))").unwrap();
        let d = digram(&g, "a", 0, "b");
        let stats = run_round(&mut g, &d, false);
        assert_eq!(stats.replacements, 2);
        assert_eq!(stats.inlinings, 0);
    }

    #[test]
    fn crossing_occurrence_triggers_inlining_of_the_callee() {
        // The b-node is the root of rule B; the a-parents are in S.
        let mut g = parse_grammar("S -> f(a(B,#), a(B,#))\nB -> b(c,#)").unwrap();
        let d = digram(&g, "a", 0, "b");
        let stats = run_round(&mut g, &d, false);
        assert_eq!(stats.replacements, 2);
        assert!(stats.inlinings >= 2);
    }

    #[test]
    fn crossing_occurrence_through_parameters_inlines_the_caller_side() {
        // The a-node is inside rule A (parent of y1); the b-node is the argument
        // supplied by S: occurrences cross the parameter boundary.
        let mut g = parse_grammar("S -> f(A(b(#,#)), A(b(#,#)))\nA -> a(y1,#)").unwrap();
        let d = digram(&g, "a", 0, "b");
        let stats = run_round(&mut g, &d, false);
        assert_eq!(stats.replacements, 2);
        assert!(stats.inlinings >= 2);
    }

    #[test]
    fn concluding_example_of_section_iv() {
        // Grammar 1 of the paper (embedded under a start rule so that A, B, C
        // are all referenced "elsewhere" as the paper assumes).
        let mut g = parse_grammar(
            "S -> r(C, r(C, r(A(c,c), B(c))))\n\
             C -> A(B(#),#)\n\
             A -> a(y1, a(B(#), a(#, y2)))\n\
             B -> b(y1,#)",
        )
        .unwrap();
        let d = digram(&g, "a", 0, "b");
        let (stats, x) = run_round_with_rule(&mut g, &d, true);
        // Two generators: (A,4) and (C,2); both get replaced.
        assert_eq!(stats.replacements, 2);
        // The X rule exists and is used.
        assert!(g.ref_counts()[&x] >= 2);
    }

    #[test]
    fn equal_label_digrams_never_cross_rule_roots() {
        let mut g = parse_grammar("S -> a(#, a(#, A))\nA -> a(#, a(#, #))").unwrap();
        let d = digram(&g, "a", 1, "a");
        let stats = run_round(&mut g, &d, false);
        // One occurrence inside S and one inside A are replaced; the crossing
        // S→A pair is left alone, so no inlining happens at all.
        assert_eq!(stats.replacements, 2);
        assert_eq!(stats.inlinings, 0);
    }

    #[test]
    fn fragment_export_keeps_multiply_referenced_rules_small() {
        // Rule A is called twice and contains a large unneeded middle part.
        let mut g = parse_grammar(
            "S -> f(A(b(#,#)), A(b(#,#)))\n\
             A -> a(y1, c(d(#,#), c(d(#,#), e(#,#))))",
        )
        .unwrap();
        let d = digram(&g, "a", 0, "b");
        let edges_unoptimized = {
            let mut g2 = g.clone();
            run_round(&mut g2, &d, false);
            g2.edge_count()
        };
        let stats = run_round(&mut g, &d, true);
        assert!(stats.exported_rules >= 1, "expected at least one exported fragment");
        assert!(
            g.edge_count() <= edges_unoptimized,
            "optimized replacement must not be larger: {} vs {}",
            g.edge_count(),
            edges_unoptimized
        );
    }

    #[test]
    fn a_callee_uncovered_by_the_first_pass_is_reduced_before_the_second() {
        // The b-ends sit two references deep: pass 1 inlines P and uncovers
        // the Q references, pass 2 inlines those — after Q, referenced from
        // five more places, had its c(d,d) fragment exported.
        let mut g = parse_grammar(
            "S -> f(a(P,#), f(a(P,#), g(g(Q,Q), g(Q,Q))))\n\
             P -> Q\n\
             Q -> b(c(d(#,#),d(#,#)),#)",
        )
        .unwrap();
        let d = digram(&g, "a", 0, "b");
        let stats = run_round(&mut g, &d, true);
        assert_eq!(stats.replacements, 2);
        assert_eq!(stats.inlinings, 4);
        assert_eq!(stats.exported_rules, 1);
        // Pass 1 inspects the two supplied nodes, pass 2 the two fresh Q
        // references, pass 3 the two inlined bodies (3 nodes each).
        assert_eq!(stats.resolved_candidates, 2 + 2 + 6);
    }

    #[test]
    fn equal_label_chains_are_replaced_top_down_from_any_entry_point() {
        // A chain of five a-nodes along child 1: the greedy pairs are
        // (n0,n1) and (n2,n3) whichever candidate the pass meets first.
        let mut g = parse_grammar("S -> a(#, a(#, a(#, a(#, a(#, #)))))").unwrap();
        let d = digram(&g, "a", 1, "a");
        let stats = run_round(&mut g, &d, false);
        assert_eq!(stats.replacements, 2);
        let printed = sltgrammar::text::print_grammar(&g);
        assert!(printed.contains("S -> X1(#,#,X1(#,#,a(#,#)))"), "{printed}");
    }

    #[test]
    fn replacement_handles_digrams_with_null_children() {
        let mut g = parse_grammar("S -> f(a(#,#), f(a(#,#), a(#,#)))").unwrap();
        let d = digram(&g, "a", 0, "#");
        let stats = run_round(&mut g, &d, false);
        assert_eq!(stats.replacements, 3);
    }

    #[test]
    fn root_occurrence_of_a_rule_is_replaced_in_place() {
        // The a(b(..)..) occurrence is entirely inside rule R whose root is the
        // a-node: replacement happens locally and all callers benefit.
        let mut g = parse_grammar("S -> f(R, R)\nR -> a(b(#,#),#)").unwrap();
        let d = digram(&g, "a", 0, "b");
        let stats = run_round(&mut g, &d, false);
        assert_eq!(stats.replacements, 1);
        assert_eq!(stats.inlinings, 0);
    }
}
