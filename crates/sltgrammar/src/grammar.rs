//! The SLCF tree grammar type and whole-grammar operations.

use std::collections::{HashMap, HashSet};

use crate::error::{GrammarError, Result};
use crate::node::{NodeId, NodeKind};
use crate::rhs::RhsTree;
use crate::symbol::{NtId, SymbolTable, TermId};

/// One grammar rule `A → t_A`.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Human-readable name of the nonterminal (unique within the grammar).
    pub name: String,
    /// Rank of the nonterminal, i.e. the number of formal parameters of the rule.
    pub rank: usize,
    /// The right-hand side tree over terminals, nonterminals and parameters.
    pub rhs: RhsTree,
}

/// A straight-line linear context-free (SLCF) tree grammar.
///
/// The grammar owns a [`SymbolTable`] of ranked terminals and a set of rules
/// indexed by [`NtId`]. Exactly one rule is the start rule; it has rank 0 and is
/// never referenced by other rules. The grammar must be non-recursive
/// (*straight-line*), which [`Grammar::validate`] checks.
///
/// Rule bodies are only ever mutated through [`RhsTree`] operations, each of
/// which bumps the body's [`RhsTree::version`]; "which rules changed since I
/// last looked" is therefore answerable per rule in O(1), which is what keeps
/// the incremental occurrence index honest across splices.
#[derive(Debug, Clone)]
pub struct Grammar {
    /// Terminal alphabet.
    pub symbols: SymbolTable,
    rules: Vec<Option<Rule>>,
    names: HashMap<String, NtId>,
    start: NtId,
    fresh_counter: u64,
}

impl Grammar {
    /// Creates a grammar whose start rule `S` has the given right-hand side.
    pub fn new(symbols: SymbolTable, start_rhs: RhsTree) -> Self {
        let mut g = Grammar {
            symbols,
            rules: Vec::new(),
            names: HashMap::new(),
            start: NtId(0),
            fresh_counter: 0,
        };
        let start = g.add_rule("S", 0, start_rhs);
        g.start = start;
        g
    }

    /// Adds a rule with the given name, rank and right-hand side.
    ///
    /// If the name is already taken, a fresh suffix is appended.
    pub fn add_rule(&mut self, name: &str, rank: usize, rhs: RhsTree) -> NtId {
        let id = NtId(self.rules.len() as u32);
        let mut unique = name.to_string();
        while self.names.contains_key(&unique) {
            self.fresh_counter += 1;
            unique = format!("{name}_{}", self.fresh_counter);
        }
        self.names.insert(unique.clone(), id);
        self.rules.push(Some(Rule {
            name: unique,
            rank,
            rhs,
        }));
        id
    }

    /// Adds a rule with a freshly generated name starting with `prefix`.
    pub fn add_rule_fresh(&mut self, prefix: &str, rank: usize, rhs: RhsTree) -> NtId {
        self.fresh_counter += 1;
        let name = format!("{prefix}{}", self.fresh_counter);
        self.add_rule(&name, rank, rhs)
    }

    /// Renames a rule, keeping the name index consistent. If the new name is
    /// taken, a unique suffix is appended. Returns the name actually used.
    pub fn rename_rule(&mut self, nt: NtId, new_name: &str) -> String {
        let old = self.rule(nt).name.clone();
        self.names.remove(&old);
        let mut unique = new_name.to_string();
        while self.names.contains_key(&unique) {
            self.fresh_counter += 1;
            unique = format!("{new_name}_{}", self.fresh_counter);
        }
        self.names.insert(unique.clone(), nt);
        self.rule_mut(nt).name = unique.clone();
        unique
    }

    /// Removes a rule. The caller must ensure no live references to it remain.
    pub fn remove_rule(&mut self, nt: NtId) {
        if let Some(rule) = self.rules[nt.index()].take() {
            self.names.remove(&rule.name);
        }
    }

    /// Whether the rule still exists.
    pub fn has_rule(&self, nt: NtId) -> bool {
        self.rules
            .get(nt.index())
            .map(|r| r.is_some())
            .unwrap_or(false)
    }

    /// The rule for `nt`. Panics if the rule was removed.
    pub fn rule(&self, nt: NtId) -> &Rule {
        self.rules[nt.index()]
            .as_ref()
            .expect("rule exists (not removed)")
    }

    /// Mutable access to a rule. Panics if the rule was removed.
    pub fn rule_mut(&mut self, nt: NtId) -> &mut Rule {
        self.rules[nt.index()]
            .as_mut()
            .expect("rule exists (not removed)")
    }

    /// The rule for `nt`, or `None` if removed.
    pub fn try_rule(&self, nt: NtId) -> Option<&Rule> {
        self.rules.get(nt.index()).and_then(|r| r.as_ref())
    }

    /// The start nonterminal.
    pub fn start(&self) -> NtId {
        self.start
    }

    /// Looks up a nonterminal by name.
    pub fn nt_by_name(&self, name: &str) -> Option<NtId> {
        self.names.get(name).copied()
    }

    /// All live nonterminal ids (start included), in id order.
    pub fn nonterminals(&self) -> Vec<NtId> {
        (0..self.rules.len() as u32)
            .map(NtId)
            .filter(|&nt| self.has_rule(nt))
            .collect()
    }

    /// Number of live rules.
    pub fn rule_count(&self) -> usize {
        self.rules.iter().filter(|r| r.is_some()).count()
    }

    /// Total number of nodes over all rule right-hand sides.
    pub fn node_count(&self) -> usize {
        self.nonterminals()
            .iter()
            .map(|&nt| self.rule(nt).rhs.node_count())
            .sum()
    }

    /// Total number of edges over all rule right-hand sides — the paper's
    /// grammar size measure ("c-edges").
    pub fn edge_count(&self) -> usize {
        self.nonterminals()
            .iter()
            .map(|&nt| self.rule(nt).rhs.edge_count())
            .sum()
    }

    /// For every nonterminal `Q`, the list of nodes `(R, v)` such that node `v`
    /// in the right-hand side of `R` is labelled `Q` — the paper's `ref_G(Q)`.
    pub fn refs(&self) -> HashMap<NtId, Vec<(NtId, NodeId)>> {
        let mut out: HashMap<NtId, Vec<(NtId, NodeId)>> = HashMap::new();
        for nt in self.nonterminals() {
            out.entry(nt).or_default();
        }
        for caller in self.nonterminals() {
            let rhs = &self.rule(caller).rhs;
            for node in rhs.preorder() {
                if let NodeKind::Nt(callee) = rhs.kind(node) {
                    out.entry(callee).or_default().push((caller, node));
                }
            }
        }
        out
    }

    /// Number of references of each nonterminal.
    pub fn ref_counts(&self) -> HashMap<NtId, usize> {
        self.refs()
            .into_iter()
            .map(|(nt, v)| (nt, v.len()))
            .collect()
    }

    /// The paper's `usage_G(Q)`: how many times `Q` is used when deriving the
    /// tree `val_G(S)`. Saturating at `u64::MAX`.
    pub fn usage(&self) -> HashMap<NtId, u64> {
        let order = self
            .anti_sl_order()
            .expect("usage requires a straight-line grammar");
        let refs = self.refs();
        let mut usage: HashMap<NtId, u64> = HashMap::new();
        usage.insert(self.start, 1);
        // Process callers before callees: reverse anti-SL order.
        for &nt in order.iter().rev() {
            if nt == self.start {
                continue;
            }
            let mut u: u64 = 0;
            for &(caller, _) in refs.get(&nt).map(|v| v.as_slice()).unwrap_or(&[]) {
                let cu = usage.get(&caller).copied().unwrap_or(0);
                u = u.saturating_add(cu);
            }
            usage.insert(nt, u);
        }
        usage
    }

    /// Returns the nonterminals in *anti-straight-line* order: every rule comes
    /// before all rules that (directly or indirectly) call it, i.e. callees
    /// first, callers last, the start rule at the very end.
    ///
    /// Fails with [`GrammarError::NotStraightLine`] if the call graph is cyclic.
    pub fn anti_sl_order(&self) -> Result<Vec<NtId>> {
        // Kahn's algorithm on edges caller -> callee; output callees first.
        let nts = self.nonterminals();
        let mut callees: HashMap<NtId, HashSet<NtId>> = HashMap::new();
        let mut callers: HashMap<NtId, HashSet<NtId>> = HashMap::new();
        for &nt in &nts {
            callees.entry(nt).or_default();
            callers.entry(nt).or_default();
        }
        for &caller in &nts {
            let rhs = &self.rule(caller).rhs;
            for node in rhs.preorder() {
                if let NodeKind::Nt(callee) = rhs.kind(node) {
                    if caller == callee {
                        return Err(GrammarError::NotStraightLine {
                            nonterminal: self.rule(caller).name.clone(),
                        });
                    }
                    callees.entry(caller).or_default().insert(callee);
                    callers.entry(callee).or_default().insert(caller);
                }
            }
        }
        // Start with rules that call nothing.
        let mut remaining_out: HashMap<NtId, usize> =
            nts.iter().map(|&nt| (nt, callees[&nt].len())).collect();
        let mut queue: Vec<NtId> = nts
            .iter()
            .copied()
            .filter(|nt| remaining_out[nt] == 0)
            .collect();
        queue.sort();
        let mut order = Vec::with_capacity(nts.len());
        let mut qi = 0;
        while qi < queue.len() {
            let nt = queue[qi];
            qi += 1;
            order.push(nt);
            let mut released: Vec<NtId> = Vec::new();
            for &caller in &callers[&nt] {
                let c = remaining_out.get_mut(&caller).expect("caller present");
                *c -= 1;
                if *c == 0 {
                    released.push(caller);
                }
            }
            released.sort();
            queue.extend(released);
        }
        if order.len() != nts.len() {
            let on_cycle = nts
                .iter()
                .find(|nt| !order.contains(nt))
                .expect("cycle implies a missing nonterminal");
            return Err(GrammarError::NotStraightLine {
                nonterminal: self.rule(*on_cycle).name.clone(),
            });
        }
        Ok(order)
    }

    /// Inlines the rule referenced by `node` (which must be a nonterminal node
    /// in `caller`'s right-hand side) at that node. Returns the root of the
    /// inlined copy. The callee rule itself is left untouched.
    ///
    /// Like every splice, the change reports itself through the caller's
    /// [`RhsTree::version`] counter and arena watermarks — incremental
    /// consumers (the occurrence index, prune's size cache) detect it without
    /// explicit notification. The callee body is read in place (no clone), so
    /// the cost is the size of the inlined body, not of the callee's arena.
    pub fn inline_at(&mut self, caller: NtId, node: NodeId) -> NodeId {
        let callee = self
            .rule(caller)
            .rhs
            .kind(node)
            .as_nt()
            .expect("inline target must be a nonterminal node");
        assert_ne!(caller, callee, "a straight-line rule never references itself");
        let (low, high) = self.rules.split_at_mut(caller.index().max(callee.index()));
        let (caller_slot, callee_slot) = if caller < callee {
            (&mut low[caller.index()], &high[0])
        } else {
            (&mut high[0], &low[callee.index()])
        };
        let callee_rhs = &callee_slot.as_ref().expect("rule exists (not removed)").rhs;
        let caller_rule = caller_slot.as_mut().expect("rule exists (not removed)");
        caller_rule.rhs.inline_at(node, callee_rhs)
    }

    /// One past the largest [`NtId`] index ever handed out: the length a
    /// dense, id-indexed side table needs. Removed rules keep their slot.
    pub fn nt_bound(&self) -> usize {
        self.rules.len()
    }

    /// Inlines `nt` at every reference and removes its rule.
    pub fn inline_everywhere_and_remove(&mut self, nt: NtId) {
        assert_ne!(nt, self.start, "cannot remove the start rule");
        let refs = self.refs();
        if let Some(sites) = refs.get(&nt) {
            let callee_rhs = self.rule(nt).rhs.clone();
            for &(caller, node) in sites {
                self.rule_mut(caller).rhs.inline_at(node, &callee_rhs);
            }
        }
        self.remove_rule(nt);
    }

    /// Rewrites every terminal node through `map` (`map[old.index()]` is the
    /// replacement id), the grammar half of rebasing a document onto a shared
    /// [`SymbolTable`] (see [`SymbolTable::absorb`]). Returns the number of
    /// nodes relabelled; when the map is the identity nothing is touched and
    /// no [`RhsTree::version`] counter moves, so cached navigation survives.
    ///
    /// The caller is responsible for installing a table that actually defines
    /// the mapped ids (typically a clone of the table `map` came from).
    pub fn relabel_terms(&mut self, map: &[TermId]) -> usize {
        if map.iter().enumerate().all(|(i, t)| t.index() == i) {
            return 0;
        }
        let mut relabelled = 0;
        for nt in self.nonterminals() {
            let rhs = &self.rule(nt).rhs;
            let changes: Vec<(NodeId, TermId)> = rhs
                .preorder()
                .into_iter()
                .filter_map(|node| match rhs.kind(node) {
                    NodeKind::Term(t) if map[t.index()] != t => Some((node, map[t.index()])),
                    _ => None,
                })
                .collect();
            relabelled += changes.len();
            let rhs = &mut self.rule_mut(nt).rhs;
            for (node, term) in changes {
                rhs.set_kind(node, NodeKind::Term(term));
            }
        }
        relabelled
    }

    /// Removes rules unreachable from the start rule. Returns how many were removed.
    pub fn gc(&mut self) -> usize {
        let mut reachable: HashSet<NtId> = HashSet::new();
        let mut stack = vec![self.start];
        while let Some(nt) = stack.pop() {
            if !reachable.insert(nt) {
                continue;
            }
            let rhs = &self.rule(nt).rhs;
            for node in rhs.preorder() {
                if let NodeKind::Nt(callee) = rhs.kind(node) {
                    if !reachable.contains(&callee) {
                        stack.push(callee);
                    }
                }
            }
        }
        let mut removed = 0;
        for nt in self.nonterminals() {
            if !reachable.contains(&nt) {
                self.remove_rule(nt);
                removed += 1;
            }
        }
        removed
    }

    /// Compacts all rule arenas, dropping garbage nodes. Invalidates node ids.
    pub fn compact(&mut self) {
        for nt in self.nonterminals() {
            self.rule_mut(nt).rhs.compact();
        }
    }

    /// Validates the grammar:
    /// * every node's child count matches its label rank,
    /// * every rule uses parameters `y1..yk` exactly once each,
    /// * no right-hand side is a single parameter node,
    /// * every referenced nonterminal has a rule and is called with `rank` arguments,
    /// * the start rule has rank 0 and is not referenced,
    /// * the grammar is straight-line.
    pub fn validate(&self) -> Result<()> {
        let refs = self.refs();
        if self.rule(self.start).rank != 0 {
            return Err(GrammarError::BadStartRule {
                detail: "start rule must have rank 0".to_string(),
            });
        }
        if !refs
            .get(&self.start)
            .map(|v| v.is_empty())
            .unwrap_or(true)
        {
            return Err(GrammarError::BadStartRule {
                detail: "start rule must not be referenced by any rule".to_string(),
            });
        }
        for nt in self.nonterminals() {
            let rule = self.rule(nt);
            let rhs = &rule.rhs;
            if rhs.node_count() == 1 && rhs.kind(rhs.root()).is_param() {
                return Err(GrammarError::SingleParameterRhs {
                    rule: rule.name.clone(),
                });
            }
            let mut seen_params: HashMap<u32, usize> = HashMap::new();
            for node in rhs.preorder() {
                let nchildren = rhs.children(node).len();
                match rhs.kind(node) {
                    NodeKind::Term(t) => {
                        let want = self.symbols.rank(t);
                        if nchildren != want {
                            return Err(GrammarError::ArityMismatch {
                                node: format!(
                                    "terminal `{}` in rule `{}`",
                                    self.symbols.name(t),
                                    rule.name
                                ),
                                expected: want,
                                found: nchildren,
                            });
                        }
                    }
                    NodeKind::Nt(callee) => {
                        let callee_rule = self.try_rule(callee).ok_or_else(|| {
                            GrammarError::MissingRule {
                                nonterminal: format!("nt#{}", callee.0),
                            }
                        })?;
                        if nchildren != callee_rule.rank {
                            return Err(GrammarError::ArityMismatch {
                                node: format!(
                                    "nonterminal `{}` referenced in rule `{}`",
                                    callee_rule.name, rule.name
                                ),
                                expected: callee_rule.rank,
                                found: nchildren,
                            });
                        }
                    }
                    NodeKind::Param(i) => {
                        if nchildren != 0 {
                            return Err(GrammarError::ArityMismatch {
                                node: format!("parameter y{} in rule `{}`", i + 1, rule.name),
                                expected: 0,
                                found: nchildren,
                            });
                        }
                        *seen_params.entry(i).or_insert(0) += 1;
                        if rhs.find_param(i) != Some(node) {
                            return Err(GrammarError::BadParameters {
                                rule: rule.name.clone(),
                                detail: format!("parameter table out of sync for y{}", i + 1),
                            });
                        }
                    }
                }
            }
            for i in 0..rule.rank as u32 {
                match seen_params.get(&i) {
                    Some(1) => {}
                    Some(n) => {
                        return Err(GrammarError::BadParameters {
                            rule: rule.name.clone(),
                            detail: format!("parameter y{} occurs {n} times", i + 1),
                        })
                    }
                    None => {
                        return Err(GrammarError::BadParameters {
                            rule: rule.name.clone(),
                            detail: format!("parameter y{} does not occur", i + 1),
                        })
                    }
                }
            }
            if seen_params.keys().any(|&i| i as usize >= rule.rank) {
                return Err(GrammarError::BadParameters {
                    rule: rule.name.clone(),
                    detail: "parameter index exceeds rule rank".to_string(),
                });
            }
        }
        self.anti_sl_order()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::parse_grammar;

    fn sample() -> Grammar {
        // The grammar from the paper's preliminaries:
        // S -> f(A(B,B),#), B -> A(#,#), A -> a(#, a(y1, y2))
        parse_grammar(
            "S -> f(A(B,B),#)\n\
             B -> A(#,#)\n\
             A -> a(#, a(y1, y2))",
        )
        .unwrap()
    }

    #[test]
    fn paper_example_parses_and_validates() {
        let g = sample();
        g.validate().unwrap();
        assert_eq!(g.rule_count(), 3);
        let s = g.start();
        assert_eq!(g.rule(s).name, "S");
        assert_eq!(g.rule(s).rank, 0);
    }

    #[test]
    fn refs_and_usage_match_paper_definitions() {
        let g = sample();
        let a = g.nt_by_name("A").unwrap();
        let b = g.nt_by_name("B").unwrap();
        let refs = g.refs();
        // A is referenced once in S and once in B.
        assert_eq!(refs[&a].len(), 2);
        // B is referenced twice in S.
        assert_eq!(refs[&b].len(), 2);
        let usage = g.usage();
        assert_eq!(usage[&g.start()], 1);
        assert_eq!(usage[&b], 2);
        // usage(A) = usage(S) * 1 + usage(B) * 1 = 1 + 2 = 3.
        assert_eq!(usage[&a], 3);
    }

    #[test]
    fn anti_sl_order_puts_callees_first() {
        let g = sample();
        let order = g.anti_sl_order().unwrap();
        let pos = |name: &str| {
            let nt = g.nt_by_name(name).unwrap();
            order.iter().position(|&x| x == nt).unwrap()
        };
        assert!(pos("A") < pos("B"));
        assert!(pos("B") < pos("S"));
        assert!(pos("A") < pos("S"));
    }

    #[test]
    fn recursive_grammar_is_rejected() {
        let err = parse_grammar("S -> f(A,#)\nA -> g(A)").unwrap_err();
        assert!(matches!(err, GrammarError::NotStraightLine { .. }));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        // `a` used with 2 children in one place and 1 child in another cannot
        // even be interned; simulate by parsing, which reports a rank mismatch.
        let err = parse_grammar("S -> a(a(#,#))").unwrap_err();
        assert!(matches!(err, GrammarError::RankMismatch { .. }));
    }

    #[test]
    fn missing_parameter_is_rejected() {
        let err = parse_grammar("S -> f(A(#,#),#)\nA -> g(y2)").unwrap_err();
        assert!(matches!(err, GrammarError::BadParameters { .. }));
    }

    #[test]
    fn call_arity_mismatch_is_rejected() {
        let err = parse_grammar("S -> f(A(#),#)\nA -> g(y1,y2)").unwrap_err();
        assert!(matches!(err, GrammarError::ArityMismatch { .. }));
    }

    #[test]
    fn inline_at_preserves_derived_tree() {
        let mut g = sample();
        let before = crate::fingerprint::fingerprint(&g);
        // Inline B at its first reference in S (the paper's example yields
        // S -> f(A(A(#,#), B), #)).
        let b = g.nt_by_name("B").unwrap();
        let refs = g.refs();
        let &(caller, node) = refs[&b].first().unwrap();
        g.inline_at(caller, node);
        g.validate().unwrap();
        let after = crate::fingerprint::fingerprint(&g);
        assert_eq!(before, after);
    }

    #[test]
    fn inline_everywhere_and_remove_then_gc() {
        let mut g = sample();
        let before = crate::fingerprint::fingerprint(&g);
        let b = g.nt_by_name("B").unwrap();
        g.inline_everywhere_and_remove(b);
        assert_eq!(g.rule_count(), 2);
        g.validate().unwrap();
        assert_eq!(before, crate::fingerprint::fingerprint(&g));
        // Nothing unreachable to collect.
        assert_eq!(g.gc(), 0);
    }

    #[test]
    fn gc_removes_unreachable_rules() {
        let mut g = sample();
        let rhs = RhsTree::singleton(NodeKind::Term(g.symbols.null()));
        let root = rhs.root();
        let _ = root;
        g.add_rule("Orphan", 0, rhs);
        assert_eq!(g.rule_count(), 4);
        assert_eq!(g.gc(), 1);
        assert_eq!(g.rule_count(), 3);
    }

    #[test]
    fn edge_count_matches_paper_size_measure() {
        let g = sample();
        // S rhs: f,A,B,B,# = 5 nodes -> 4 edges; B rhs: A,#,# = 3 nodes -> 2 edges;
        // A rhs: a,#,a,y1,y2 = 5 nodes -> 4 edges. Total 10.
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.node_count(), 13);
    }

    #[test]
    fn add_rule_deduplicates_names() {
        let mut g = sample();
        let rhs = RhsTree::singleton(NodeKind::Term(g.symbols.null()));
        let id = g.add_rule("A", 0, rhs);
        assert_ne!(g.rule(id).name, "A");
        assert!(g.nt_by_name(&g.rule(id).name.clone()).is_some());
    }
}
