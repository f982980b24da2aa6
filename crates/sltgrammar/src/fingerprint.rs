//! Composable fingerprints of the derived tree `val_G(S)`.
//!
//! The derived tree of an SLCF grammar can be exponentially larger than the
//! grammar, so equality of derived trees cannot in general be checked by
//! materializing them. This module computes, in a single bottom-up pass over the
//! grammar, a *summary* of every rule: the preorder label sequence of `val(A)`
//! decomposed into hashed segments separated by parameter markers. Summaries
//! compose under substitution, so the summary of the start rule yields the exact
//! length and a collision-resistant hash of the preorder label sequence of the
//! full derived tree — the grammar's [`Fingerprint`].
//!
//! Because every symbol has a fixed rank, the preorder label sequence uniquely
//! determines the tree, so equal fingerprints are (modulo hash collisions)
//! equal derived trees. Label codes are derived from symbol *names*, so
//! fingerprints are comparable across different grammars and across plain trees
//! (see `xmltree`).

use std::collections::HashMap;

use crate::grammar::Grammar;
use crate::node::{NodeId, NodeKind};
use crate::symbol::NtId;

/// Multiplier of the polynomial rolling hash (odd, so it is invertible mod 2^64).
const HASH_BASE: u64 = 0x100000001b3;

/// FNV-1a hash of a label name — the per-symbol code fed into the sequence hash.
pub fn label_code(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    // Avoid the (astronomically unlikely) zero code so empty labels still count.
    h | 1
}

/// `HASH_BASE ^ len (mod 2^64)` via binary exponentiation; `len` may be huge.
fn base_pow(len: u128) -> u64 {
    let mut result: u64 = 1;
    let mut base = HASH_BASE;
    let mut e = len;
    while e > 0 {
        if e & 1 == 1 {
            result = result.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        e >>= 1;
    }
    result
}

/// A hashed contiguous piece of a preorder label sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Number of labels in the piece (saturating).
    pub len: u128,
    /// Polynomial hash of the piece.
    pub hash: u64,
}

impl Segment {
    /// The empty segment.
    pub fn empty() -> Self {
        Segment { len: 0, hash: 0 }
    }

    /// Appends a single label code.
    pub fn push_label(&mut self, code: u64) {
        self.hash = self.hash.wrapping_mul(HASH_BASE).wrapping_add(code);
        self.len = self.len.saturating_add(1);
    }

    /// Appends another segment (concatenation).
    pub fn append(&mut self, other: Segment) {
        self.hash = self
            .hash
            .wrapping_mul(base_pow(other.len))
            .wrapping_add(other.hash);
        self.len = self.len.saturating_add(other.len);
    }
}

/// One item of a rule summary: either a hashed segment of terminal labels or a
/// marker where the derivation of the `j`-th argument is substituted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryItem {
    /// A contiguous hashed run of labels produced by the rule itself (and its callees).
    Seg(Segment),
    /// Placeholder for parameter `y_{j+1}` (0-based index stored).
    Param(u32),
}

/// Summary of `val(A)` for one rule `A`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSummary {
    /// Alternating segments and parameter markers, in preorder.
    pub items: Vec<SummaryItem>,
    /// Total number of nodes `val(A)` contributes itself (excluding argument trees).
    pub own_size: u128,
}

impl RuleSummary {
    /// The `k + 1` segment sizes of the paper: number of nodes before `y1`,
    /// between consecutive parameters, and after the last parameter.
    pub fn segment_sizes(&self, rank: usize) -> Vec<u128> {
        let mut out = Vec::with_capacity(rank + 1);
        let mut acc: u128 = 0;
        for item in &self.items {
            match item {
                SummaryItem::Seg(s) => acc = acc.saturating_add(s.len),
                SummaryItem::Param(_) => {
                    out.push(acc);
                    acc = 0;
                }
            }
        }
        out.push(acc);
        // Rules always have exactly `rank` parameters, so this holds by construction.
        debug_assert_eq!(out.len(), rank + 1);
        out
    }
}

/// Exact size and hash of the derived tree's preorder label sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Number of nodes of `val_G(S)` (saturating at `u128::MAX`).
    pub size: u128,
    /// Polynomial hash of the preorder label sequence of `val_G(S)`.
    pub hash: u64,
}

struct SummaryBuilder {
    items: Vec<SummaryItem>,
    current: Segment,
    own_size: u128,
}

impl SummaryBuilder {
    fn new() -> Self {
        SummaryBuilder {
            items: Vec::new(),
            current: Segment::empty(),
            own_size: 0,
        }
    }

    fn push_label(&mut self, code: u64) {
        self.current.push_label(code);
        self.own_size = self.own_size.saturating_add(1);
    }

    fn append_segment(&mut self, seg: Segment) {
        self.current.append(seg);
        self.own_size = self.own_size.saturating_add(seg.len);
    }

    fn push_param(&mut self, j: u32) {
        if self.current.len > 0 {
            self.items.push(SummaryItem::Seg(self.current));
        }
        self.current = Segment::empty();
        self.items.push(SummaryItem::Param(j));
    }

    fn finish(mut self) -> RuleSummary {
        if self.current.len > 0 || self.items.is_empty() {
            self.items.push(SummaryItem::Seg(self.current));
        }
        RuleSummary {
            items: self.items,
            own_size: self.own_size,
        }
    }
}

/// Work item of the iterative summary computation.
enum Work {
    /// Visit a node of the rule's own right-hand side.
    Node(NodeId),
    /// Continue replaying a callee's summary items, substituting arguments.
    NtItem {
        nt: NtId,
        item_idx: usize,
        args: Vec<NodeId>,
    },
}

/// Computes the summary of one rule, given the summaries of all rules it calls.
fn rule_summary(g: &Grammar, nt: NtId, done: &HashMap<NtId, RuleSummary>) -> RuleSummary {
    let rhs = &g.rule(nt).rhs;
    let mut builder = SummaryBuilder::new();
    let mut stack = vec![Work::Node(rhs.root())];
    while let Some(work) = stack.pop() {
        match work {
            Work::Node(node) => match rhs.kind(node) {
                NodeKind::Term(t) => {
                    builder.push_label(label_code(g.symbols.name(t)));
                    for &c in rhs.children(node).iter().rev() {
                        stack.push(Work::Node(c));
                    }
                }
                NodeKind::Param(j) => builder.push_param(j),
                NodeKind::Nt(callee) => {
                    let args = rhs.children(node).to_vec();
                    stack.push(Work::NtItem {
                        nt: callee,
                        item_idx: 0,
                        args,
                    });
                }
            },
            Work::NtItem { nt, item_idx, args } => {
                let summary = &done[&nt];
                if item_idx >= summary.items.len() {
                    continue;
                }
                // Re-push the continuation first so substituted subtrees are
                // processed before the remaining items.
                stack.push(Work::NtItem {
                    nt,
                    item_idx: item_idx + 1,
                    args: args.clone(),
                });
                match summary.items[item_idx] {
                    SummaryItem::Seg(seg) => builder.append_segment(seg),
                    SummaryItem::Param(j) => stack.push(Work::Node(args[j as usize])),
                }
            }
        }
    }
    builder.finish()
}

/// Computes summaries for all rules, callees first.
pub fn summaries(g: &Grammar) -> HashMap<NtId, RuleSummary> {
    let order = g
        .anti_sl_order()
        .expect("fingerprint requires a straight-line grammar");
    let mut done: HashMap<NtId, RuleSummary> = HashMap::with_capacity(order.len());
    for nt in order {
        let s = rule_summary(g, nt, &done);
        done.insert(nt, s);
    }
    done
}

/// Size and hash of the derived tree `val_G(S)`.
pub fn fingerprint(g: &Grammar) -> Fingerprint {
    let all = summaries(g);
    let start = &all[&g.start()];
    let mut seg = Segment::empty();
    for item in &start.items {
        match item {
            SummaryItem::Seg(s) => seg.append(*s),
            SummaryItem::Param(_) => {
                unreachable!("start rule has rank 0 and therefore no parameters")
            }
        }
    }
    Fingerprint {
        size: start.own_size,
        hash: seg.hash,
    }
}

/// Number of nodes of the derived tree (saturating) — a length, so it comes
/// from the size-only pass ([`crate::derive::RuleSizes`]) and hashes nothing.
pub fn derived_size(g: &Grammar) -> u128 {
    crate::derive::RuleSizes::new(g).own(g.start())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::parse_grammar;

    #[test]
    fn label_code_is_stable_and_nonzero() {
        assert_eq!(label_code("a"), label_code("a"));
        assert_ne!(label_code("a"), label_code("b"));
        assert_ne!(label_code(""), 0);
    }

    #[test]
    fn segment_concatenation_is_associative() {
        let mut a = Segment::empty();
        a.push_label(label_code("x"));
        let mut b = Segment::empty();
        b.push_label(label_code("y"));
        b.push_label(label_code("z"));

        // (x . y) . z == x . (y . z)
        let mut xy = a;
        let mut only_y = Segment::empty();
        only_y.push_label(label_code("y"));
        xy.append(only_y);
        let mut z = Segment::empty();
        z.push_label(label_code("z"));
        let mut left = xy;
        left.append(z);

        let mut right = a;
        right.append(b);
        assert_eq!(left, right);
    }

    #[test]
    fn fingerprint_matches_between_equivalent_grammars() {
        // Paper example vs its fully inlined version: both derive
        // f(a(#, a(a(#,a(#,#)), a(#,a(#,#)))), #).
        let g1 = parse_grammar(
            "S -> f(A(B,B),#)\nB -> A(#,#)\nA -> a(#, a(y1, y2))",
        )
        .unwrap();
        let g2 = parse_grammar(
            "S -> f(a(#, a(a(#,a(#,#)), a(#,a(#,#)))), #)",
        )
        .unwrap();
        assert_eq!(fingerprint(&g1), fingerprint(&g2));
        assert_eq!(derived_size(&g1), 15);
    }

    #[test]
    fn fingerprint_distinguishes_different_trees() {
        let g1 = parse_grammar("S -> f(a(#,#),#)").unwrap();
        let g2 = parse_grammar("S -> f(b(#,#),#)").unwrap();
        assert_ne!(fingerprint(&g1), fingerprint(&g2));
        // Same multiset of labels, different shape.
        let g3 = parse_grammar("S -> f(a(#,a(#,#)),#)").unwrap();
        let g4 = parse_grammar("S -> f(a(a(#,#),#),#)").unwrap();
        assert_ne!(fingerprint(&g3), fingerprint(&g4));
    }

    #[test]
    fn exponential_grammar_size_is_exact() {
        // A chain of k doubling rules: derived size = 2^k leaves.
        let mut text = String::from("S -> f(A1,#)\n");
        let k = 40;
        for i in 1..k {
            text.push_str(&format!("A{i} -> g(A{},A{})\n", i + 1, i + 1));
        }
        text.push_str(&format!("A{k} -> a"));
        let g = parse_grammar(&text).unwrap();
        // Own sizes: leaf a = 1; each level: 1 + 2 * below; total chain below S:
        let mut below: u128 = 1;
        for _ in 1..k {
            below = 1 + 2 * below;
        }
        assert_eq!(derived_size(&g), 2 + below);
    }

    #[test]
    fn segment_sizes_match_paper_example() {
        // val(A) = f(y1, g(h(a, y2), g(a, y3))): size(A,0)=1, size(A,1)=3, size(A,2)=2, size(A,3)=0.
        let g = parse_grammar(
            "S -> r(A(x,x,x))\nA -> f(y1, g(h(a, y2), g(a, y3)))",
        )
        .unwrap();
        let a = g.nt_by_name("A").unwrap();
        let all = summaries(&g);
        assert_eq!(all[&a].segment_sizes(3), vec![1, 3, 2, 0]);
    }
}
