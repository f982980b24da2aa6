//! Digram occurrence generators on SLCF grammars (paper Section IV-A).
//!
//! On a grammar, a digram occurrence of `(a, i, b)` in the derived tree need not
//! be visible inside a single rule: the `a`-node and the `b`-node can live in
//! different rules, connected through nonterminal references and parameters.
//! Every occurrence has a unique *generator*: the (non-root, non-parameter) node
//! whose parent edge realizes it. `TREEPARENT` and `TREECHILD` walk from a
//! generator through transparent nonterminals to the terminal (or frozen
//! pattern) nodes forming the digram, and `RETRIEVEOCCS` collects, per digram,
//! all generators together with their usage-weighted occurrence count.
//!
//! # Delta propagation across recompression rounds
//!
//! [`retrieve_occs`] is a full-grammar walk. Rebuilding it per replacement
//! round makes `GrammarRePair::recompress` pay O(grammar) per round — the cost
//! the paper's update model forbids. [`crate::occ_index::OccIndex`] therefore
//! maintains the same table incrementally, one *candidate* per generator
//! node; these are the invariants that make a node-granular delta sound:
//!
//! * **A candidate depends on three things only.** The digram a node `v` of
//!   rule `R` generates is a function of `v`'s own label, the label of `v`'s
//!   parent in `R` together with `v`'s child index, and the bodies of the
//!   callees the two chain walks enter. Nothing else in `R` matters — neither
//!   walk ever takes a second step inside `R`.
//! * **A splice reports itself through the arena.** Right-hand sides are
//!   append-only between compactions ([`sltgrammar::RhsTree`] module docs), so
//!   "what did this round do to `R`" is read off two watermarks: the nodes
//!   with an id past the recorded `arena_len` were created, and the subtrees
//!   rooted at the journal entries past the recorded journal length lost
//!   their parent. Labels never change in place during recompression, and a
//!   node only ever gets a new parent by becoming the child of a created
//!   node, so the candidates to re-resolve in `R` are exactly: the created
//!   nodes, their children, and nothing else; the candidates to retract are
//!   the ones generated by nodes inside detached subtrees.
//! * **Chain walks are downward-only and see a callee through its ports.**
//!   `TREEPARENT`/`TREECHILD` from a node of rule `R` enter only (transitive)
//!   callees of `R` — never callers — and inside a callee `C` they look at
//!   exactly one thing: `TREECHILD` at `C`'s root, `TREEPARENT` at the parent
//!   (and child index) of one parameter ([`Port`]). The index records, per
//!   callee and port, the individual candidates whose walks came through
//!   (`dependents`). A splice inside `C` that leaves a port's node where it
//!   was cannot change any cached resolution; when a port does move — the
//!   root or a parameter's parent was replaced — precisely the candidates
//!   recorded under it are re-resolved, not the rules that contain them.
//! * **Freezing is monotone and confined to fresh rules.** The frozen set only
//!   ever gains rules created *after* every existing node was last resolved,
//!   and no pre-existing body references a fresh rule; a cached chain can
//!   therefore never cross a rule that later becomes frozen, so cached
//!   resolutions stay valid under freezing.
//! * **Weights factor through usage.** A generator in rule `R` contributes
//!   `usage(R)` to its digram's weight. Usage changes (inlining shifts
//!   reference counts) are propagated as `count × (usage_new − usage_old)`
//!   deltas per (rule, digram) pair without touching candidate sets. Usage and
//!   the anti-straight-line order are global properties of the call graph;
//!   they are recomputed per round by one flat pass over the rule array.
//! * **Equal-label digrams are order-sensitive — across shared tree parents.**
//!   Their greedy overlap resolution follows the global scan order
//!   (anti-straight-line over rules, preorder within a rule), so it cannot be
//!   patched by deltas. Two candidates can only compete for an endpoint in
//!   two ways: along a chain of `i`-th children inside one rule, which every
//!   scan order resolves top-down, or at a tree parent inside a callee that
//!   several call sites resolve to, where the first site in scan order wins.
//!   While no candidate of the digram has such a foreign tree parent the
//!   index recounts changed lists chain by chain; otherwise it replays the
//!   canonical order over all of the digram's lists, whenever one of them or
//!   the relative order of their rules changed, ranking a rule's candidates
//!   by a flat preorder pass over that rule's arena when the rule was spliced
//!   since it was last ranked.
//! * **Localization inspects candidates, not generators.** Replacement never
//!   applies the overlap test: it localizes and greedily replaces *every*
//!   candidate of the selected digram inside the rules that hold at least
//!   one recorded generator. [`DigramOccs::sites`] therefore hands
//!   [`crate::replace::replace_all_occurrences`] the pre-overlap candidate
//!   nodes of those rules.

use sltgrammar::{FxHashMap, FxHashSet, Grammar, NodeId, NodeKind, NtId};
use treerepair::Digram;

/// The occurrence sites of one digram handed to
/// [`crate::replace::replace_all_occurrences`]: every rule holding at least
/// one generator, in anti-straight-line order (callees first), each with the
/// nodes of *all* its candidates of the digram (sorted by node id).
pub type Sites = Vec<(NtId, Vec<NodeId>)>;

/// Set of rules introduced by the *current* GrammarRePair run. They represent
/// already-replaced digrams and behave like terminals: chain walks stop at them
/// and they are never inlined or rescanned.
pub type FrozenSet = FxHashSet<NtId>;

/// Whether `kind` is a reference to a rule the current run may still look into
/// (i.e. a nonterminal that is not frozen).
pub fn is_transparent_nt(kind: NodeKind, frozen: &FrozenSet) -> bool {
    match kind {
        NodeKind::Nt(nt) => !frozen.contains(&nt),
        _ => false,
    }
}

/// A grammar-level address: a node within the right-hand side of a rule — the
/// paper's `(R, n)` pairs.
pub type GrammarNode = (NtId, NodeId);

/// One digram occurrence generator together with the resolved digram ends.
#[derive(Debug, Clone, Copy)]
pub struct Generator {
    /// Rule containing the generator node.
    pub rule: NtId,
    /// The generator node itself.
    pub node: NodeId,
    /// The resolved tree parent (rule, node) — labelled `a`.
    pub tree_parent: GrammarNode,
    /// The resolved tree child (rule, node) — labelled `b`.
    pub tree_child: GrammarNode,
}

/// Occurrence information for one digram.
#[derive(Debug, Clone, Default)]
pub struct DigramOccs {
    /// All recorded (non-overlapping) generators.
    pub generators: Vec<Generator>,
    /// Every candidate of the digram in scan order, before the equal-label
    /// overlap test (generator nodes that are themselves transparent
    /// references excluded). Equals the generator nodes for other digrams.
    pub candidates: Vec<GrammarNode>,
    /// Usage-weighted number of occurrences in the derived tree (saturating).
    pub weight: u64,
    /// Tree-parent and tree-child nodes already used, for overlap checks of
    /// equal-label digrams.
    used_parents: FxHashSet<GrammarNode>,
    used_children: FxHashSet<GrammarNode>,
}

impl DigramOccs {
    fn would_overlap(&self, parent: GrammarNode, child: GrammarNode) -> bool {
        overlaps(&self.used_parents, &self.used_children, parent, child)
    }

    /// The replacement sites of this digram: the candidates of every rule
    /// with a recorded generator, grouped per rule in scan (anti-SL) order.
    pub fn sites(&self) -> Sites {
        let generator_rules: FxHashSet<NtId> = self.generators.iter().map(|g| g.rule).collect();
        let mut sites: Sites = Vec::new();
        for &(rule, node) in &self.candidates {
            if !generator_rules.contains(&rule) {
                continue;
            }
            match sites.last_mut() {
                Some((last, nodes)) if *last == rule => nodes.push(node),
                _ => sites.push((rule, vec![node])),
            }
        }
        for (_, nodes) in &mut sites {
            nodes.sort_unstable();
        }
        sites
    }
}

/// The equal-label overlap predicate shared by [`retrieve_occs`] and the
/// incremental index's replay: an occurrence `(parent, child)` overlaps the
/// already recorded ones if either endpoint was already used as an endpoint.
pub fn overlaps(
    used_parents: &FxHashSet<GrammarNode>,
    used_children: &FxHashSet<GrammarNode>,
    parent: GrammarNode,
    child: GrammarNode,
) -> bool {
    used_children.contains(&parent)
        || used_parents.contains(&child)
        || used_children.contains(&child)
        || used_parents.contains(&parent)
}

/// How a chain walk entered a callee — the only parts of the callee's body the
/// walk's result depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// `TREECHILD` descended to the callee's root.
    Root,
    /// `TREEPARENT` continued at the parent of this (0-based) parameter.
    Param(u32),
}

/// `TREECHILD` (paper Algorithm 2): follow transparent nonterminal references
/// downwards (to the referenced rule's root) until a terminal or frozen node is
/// reached.
pub fn tree_child(g: &Grammar, rule: NtId, node: NodeId, frozen: &FrozenSet) -> GrammarNode {
    tree_child_traced(g, rule, node, frozen, &mut |_, _| {})
}

/// [`tree_child`] that additionally reports every rule the walk enters, and
/// through which [`Port`], to `entered` (the incremental index's
/// chain-dependency hook).
pub fn tree_child_traced(
    g: &Grammar,
    rule: NtId,
    node: NodeId,
    frozen: &FrozenSet,
    entered: &mut impl FnMut(NtId, Port),
) -> GrammarNode {
    let mut rule = rule;
    let mut node = node;
    loop {
        let kind = g.rule(rule).rhs.kind(node);
        match kind {
            NodeKind::Nt(callee) if !frozen.contains(&callee) => {
                entered(callee, Port::Root);
                rule = callee;
                node = g.rule(callee).rhs.root();
            }
            _ => return (rule, node),
        }
    }
}

/// `TREEPARENT` (paper Algorithm 3): follow the parent upwards; whenever the
/// parent is a transparent nonterminal reference, continue at the corresponding
/// parameter's parent inside the referenced rule. Returns the tree parent node
/// and the child index of the edge.
///
/// The node must not be the root of its rule.
pub fn tree_parent(
    g: &Grammar,
    rule: NtId,
    node: NodeId,
    frozen: &FrozenSet,
) -> Option<(GrammarNode, usize)> {
    tree_parent_traced(g, rule, node, frozen, &mut |_, _| {})
}

/// [`tree_parent`] that additionally reports every rule the walk enters, and
/// through which [`Port`], to `entered` (the incremental index's
/// chain-dependency hook).
pub fn tree_parent_traced(
    g: &Grammar,
    rule: NtId,
    node: NodeId,
    frozen: &FrozenSet,
    entered: &mut impl FnMut(NtId, Port),
) -> Option<(GrammarNode, usize)> {
    let mut rule = rule;
    let mut node = node;
    loop {
        let rhs = &g.rule(rule).rhs;
        let parent = rhs.parent(node)?;
        let index = rhs.child_index(node)?;
        match rhs.kind(parent) {
            NodeKind::Nt(callee) if !frozen.contains(&callee) => {
                // The node is the `index`-th argument of the reference: continue
                // at the parameter node y_{index+1} inside the callee.
                entered(callee, Port::Param(index as u32));
                let callee_rhs = &g.rule(callee).rhs;
                let param = callee_rhs.find_param(index as u32)?;
                rule = callee;
                node = param;
            }
            _ => return Some(((rule, parent), index)),
        }
    }
}

/// The digram label of a grammar node once chains have been resolved: terminals
/// and frozen references stand for themselves.
pub fn resolved_kind(g: &Grammar, (rule, node): GrammarNode) -> NodeKind {
    g.rule(rule).rhs.kind(node)
}

/// `RETRIEVEOCCS` (paper Algorithm 4): collects, per digram, the non-overlapping
/// occurrence generators over the whole grammar together with usage-weighted
/// occurrence counts. Frozen rules are not scanned.
///
/// This full walk is the *rebuild oracle*: `GrammarRePair` with the
/// [`treerepair::DigramSelector::NaiveScan`] selector calls it per round, and
/// the incremental [`crate::occ_index::OccIndex`] must agree with it exactly.
pub fn retrieve_occs(g: &Grammar, frozen: &FrozenSet) -> FxHashMap<Digram, DigramOccs> {
    let order = g
        .anti_sl_order()
        .expect("occurrence retrieval requires a straight-line grammar");
    let usage = g.usage();
    let mut table: FxHashMap<Digram, DigramOccs> = FxHashMap::default();

    for &rule in &order {
        if frozen.contains(&rule) {
            continue;
        }
        let rhs = &g.rule(rule).rhs;
        let root = rhs.root();
        for node in rhs.preorder() {
            if node == root || rhs.kind(node).is_param() {
                continue;
            }
            let Some((tp, index)) = tree_parent(g, rule, node, frozen) else {
                continue;
            };
            let tc = tree_child(g, rule, node, frozen);
            let digram = Digram {
                parent: resolved_kind(g, tp),
                child_index: index,
                child: resolved_kind(g, tc),
            };
            let entry = table.entry(digram).or_default();
            if digram.equal_labels() {
                // Never record equal-label occurrences whose tree child is the
                // root of another rule (the generator node is a nonterminal).
                if is_transparent_nt(rhs.kind(node), frozen) {
                    continue;
                }
                if entry.would_overlap(tp, tc) {
                    entry.candidates.push((rule, node));
                    continue;
                }
            }
            entry.candidates.push((rule, node));
            entry.used_parents.insert(tp);
            entry.used_children.insert(tc);
            entry.generators.push(Generator {
                rule,
                node,
                tree_parent: tp,
                tree_child: tc,
            });
            entry.weight = entry
                .weight
                .saturating_add(usage.get(&rule).copied().unwrap_or(0));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::text::parse_grammar;

    /// The paper's "Grammar 1" fragment, embedded under a start rule that calls
    /// C three times and A twice (so usage(C)=3, usage(A)=2·1+3=5).
    fn grammar1() -> Grammar {
        parse_grammar(
            "S -> r(C, r(C, r(C, r(A(#,#), A(#,#)))))\n\
             C -> A(B(#),#)\n\
             A -> a(y1, a(B(#), a(#, y2)))\n\
             B -> b(y1,#)",
        )
        .unwrap()
    }

    fn term(g: &Grammar, name: &str) -> NodeKind {
        NodeKind::Term(g.symbols.get(name).unwrap())
    }

    #[test]
    fn tree_child_follows_rule_roots() {
        let g = grammar1();
        let frozen = FrozenSet::default();
        let c = g.nt_by_name("C").unwrap();
        let b = g.nt_by_name("B").unwrap();
        // Node (C,2) in paper addressing: the B-labelled argument of the A
        // reference in rule C. Its tree child is the b-labelled root of rule B.
        let rhs = &g.rule(c).rhs;
        let node = rhs.nth_preorder(2).unwrap();
        assert!(rhs.kind(node).is_nt());
        let (child_rule, child_node) = tree_child(&g, c, node, &frozen);
        assert_eq!(child_rule, b);
        assert_eq!(child_node, g.rule(child_rule).rhs.root());
        assert_eq!(resolved_kind(&g, (child_rule, child_node)), term(&g, "b"));
    }

    #[test]
    fn tree_parent_follows_parameters_into_callers() {
        let g = grammar1();
        let frozen = FrozenSet::default();
        let c = g.nt_by_name("C").unwrap();
        let a = g.nt_by_name("A").unwrap();
        // Node (C,2) is the first argument of the A reference; its tree parent
        // is the a-labelled root of rule A (the parent of y1), child index 0 —
        // the paper's TREEPARENT(C,2) = ((A,1), 1).
        let rhs = &g.rule(c).rhs;
        let node = rhs.nth_preorder(2).unwrap();
        let ((prule, pnode), idx) = tree_parent(&g, c, node, &frozen).unwrap();
        assert_eq!(prule, a);
        assert_eq!(idx, 0);
        assert_eq!(resolved_kind(&g, (prule, pnode)), term(&g, "a"));
        assert_eq!(pnode, g.rule(a).rhs.root());
    }

    #[test]
    fn retrieve_occs_weights_by_usage() {
        let g = grammar1();
        let frozen = FrozenSet::default();
        let table = retrieve_occs(&g, &frozen);
        // The digram (a,1,b) (paper notation) is generated by (A,4) [the B(#)
        // inside rule A, weight usage(A)=5] and by (C,3) [the B(#) argument
        // inside rule C, weight usage(C)=3]: total weight 8.
        let a = term(&g, "a");
        let b = term(&g, "b");
        let d = Digram {
            parent: a,
            child_index: 0,
            child: b,
        };
        let occs = table.get(&d).expect("digram (a,1,b) present");
        assert_eq!(occs.generators.len(), 2);
        assert_eq!(occs.weight, 8);
    }

    #[test]
    fn equal_label_digrams_do_not_cross_rule_roots() {
        // S calls A twice; within A there is an (a,2,a) chain; the A-references
        // themselves would form crossing occurrences which must not be counted.
        let g = parse_grammar(
            "S -> a(#, a(#, A))\n\
             A -> a(#, a(#, #))",
        )
        .unwrap();
        let frozen = FrozenSet::default();
        let table = retrieve_occs(&g, &frozen);
        let a = term(&g, "a");
        let d = Digram {
            parent: a,
            child_index: 1,
            child: a,
        };
        let occs = table.get(&d).expect("digram (a,2,a) present");
        // One occurrence inside S (its two a's) and one inside A; the crossing
        // occurrence S→A is not recorded because its tree child is A's root.
        assert_eq!(occs.generators.len(), 2);
        for gen in &occs.generators {
            assert!(!g.rule(gen.rule).rhs.kind(gen.node).is_nt());
        }
    }

    #[test]
    fn frozen_rules_behave_like_terminals() {
        let g = parse_grammar(
            "S -> f(X(#), X(#))\n\
             X -> a(b(y1,#),#)",
        )
        .unwrap();
        let x = g.nt_by_name("X").unwrap();
        let mut frozen = FrozenSet::default();
        frozen.insert(x);
        let table = retrieve_occs(&g, &frozen);
        // With X frozen, the only digrams seen from S are (f,i,X) and the ones
        // inside S; nothing inside X is scanned and no chain enters X.
        let fx0 = Digram {
            parent: term(&g, "f"),
            child_index: 0,
            child: NodeKind::Nt(x),
        };
        assert!(table.contains_key(&fx0));
        for d in table.keys() {
            assert_ne!(d.parent, term(&g, "b"));
            assert_ne!(d.child, term(&g, "b"));
        }
    }
}
