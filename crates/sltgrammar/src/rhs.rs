//! Arena-based right-hand-side trees of grammar rules.
//!
//! An [`RhsTree`] stores the tree of one rule right-hand side in a flat arena of
//! nodes with parent pointers. All structural operations the compression and
//! update algorithms need — inlining a callee rule at a reference, replacing a
//! digram occurrence by a fresh nonterminal, exporting a fragment into a new
//! rule — are local splice operations on this arena.
//!
//! Nodes detached by splices remain allocated as garbage until [`RhsTree::compact`]
//! is called; all size queries therefore traverse from the root and never scan
//! the raw arena.
//!
//! Every mutating operation bumps a monotonically increasing [`RhsTree::version`]
//! counter. Coarse consumers (navigation tables, caches of rule sizes) record
//! the version they last observed and treat any mismatch as "this right-hand
//! side changed, re-derive everything you cached about it".
//!
//! # Enumerating what a splice changed
//!
//! Between two [`RhsTree::compact`] calls the arena is **append-only**: node
//! ids are never reused and a node's label never moves to another id. A
//! node-granular consumer (the grammar-side occurrence index) can therefore
//! enumerate exactly what changed since it last looked from two watermarks:
//!
//! * every node *created* since then has an id `>=` the [`RhsTree::arena_len`]
//!   it recorded, and
//! * every subtree that *lost its parent* since then is rooted at an entry of
//!   [`RhsTree::detached_journal`] past the journal length it recorded (a
//!   journaled root that has a parent again was re-attached under a created
//!   node and is reachable from there). Splices that move children to a node
//!   they create in the same call ([`RhsTree::inline_at`]'s arguments,
//!   [`RhsTree::replace_digram`]'s grandchildren) journal only what they
//!   leave behind.
//!
//! Any old node whose parent edge changed is a child of a created node —
//! re-parenting only happens through [`RhsTree::add_node`],
//! [`RhsTree::replace_subtree`] and [`RhsTree::push_child`] — so no splice has
//! to report the parent/child pairs it touched.

use crate::fxhash::FxHashMap;
use crate::node::{NodeId, NodeKind};

/// One node of a right-hand-side tree.
#[derive(Debug, Clone)]
pub struct RhsNode {
    /// Label of the node.
    pub kind: NodeKind,
    /// Parent node, `None` for the root and for detached (garbage) nodes.
    pub parent: Option<NodeId>,
    /// Children in left-to-right order; length must equal the label's rank.
    pub children: Vec<NodeId>,
}

/// Arena tree representing one rule right-hand side.
#[derive(Debug, Clone)]
pub struct RhsTree {
    nodes: Vec<RhsNode>,
    root: NodeId,
    /// Mutation counter: bumped by every structural or label change. See the
    /// module docs; cloning preserves the current value.
    version: u64,
    /// `params[i]` is the node most recently labelled `Param(i)` (or
    /// [`NO_NODE`]). A right-hand side holds one node per parameter for its
    /// whole arena lifetime — splices move parameter nodes, they never copy
    /// them — which makes [`RhsTree::find_param`] a table lookup.
    params: Vec<NodeId>,
    /// Roots of subtrees that lost their parent since the last
    /// [`RhsTree::compact`], in detachment order (see the module docs).
    detached: Vec<NodeId>,
}

/// Sentinel for "no node" in the parameter table.
const NO_NODE: NodeId = NodeId(u32::MAX);

impl RhsTree {
    /// Creates a tree consisting of a single node with the given label.
    pub fn singleton(kind: NodeKind) -> Self {
        let mut tree = RhsTree {
            nodes: vec![RhsNode {
                kind,
                parent: None,
                children: Vec::new(),
            }],
            root: NodeId(0),
            version: 0,
            params: Vec::new(),
            detached: Vec::new(),
        };
        tree.note_param(kind, NodeId(0));
        tree
    }

    /// Records `id` in the parameter table if `kind` is a parameter.
    fn note_param(&mut self, kind: NodeKind, id: NodeId) {
        if let NodeKind::Param(i) = kind {
            // `u32::MAX` is the placeholder label of not-yet-rooted builders.
            if i != u32::MAX {
                let i = i as usize;
                if i >= self.params.len() {
                    self.params.resize(i + 1, NO_NODE);
                }
                self.params[i] = id;
            }
        }
    }

    /// Current mutation version. Any mutating call makes this strictly larger;
    /// two reads returning the same value bracket a span with no changes.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Adds a floating node (no parent) with already-added children.
    ///
    /// The children must currently be floating (roots of detached subtrees or
    /// freshly added nodes); they are re-parented under the new node.
    pub fn add_node(&mut self, kind: NodeKind, children: Vec<NodeId>) -> NodeId {
        self.version += 1;
        let id = NodeId(self.nodes.len() as u32);
        for &c in &children {
            debug_assert!(self.nodes[c.index()].parent.is_none(), "child must be floating");
            self.nodes[c.index()].parent = Some(id);
        }
        self.nodes.push(RhsNode {
            kind,
            parent: None,
            children,
        });
        self.note_param(kind, id);
        id
    }

    /// Adds a floating leaf node.
    pub fn add_leaf(&mut self, kind: NodeKind) -> NodeId {
        self.add_node(kind, Vec::new())
    }

    /// Makes `id` the root of the tree. The node must be floating.
    pub fn set_root(&mut self, id: NodeId) {
        debug_assert!(self.nodes[id.index()].parent.is_none());
        self.version += 1;
        self.root = id;
    }

    /// Root node of the tree.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Label of a node.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()].kind
    }

    /// Overwrites the label of a node (used by rename updates). The caller is
    /// responsible for keeping the child count consistent with the new label's
    /// rank.
    pub fn set_kind(&mut self, id: NodeId, kind: NodeKind) {
        self.version += 1;
        if let NodeKind::Param(old) = self.nodes[id.index()].kind {
            if self.params.get(old as usize) == Some(&id) {
                self.params[old as usize] = NO_NODE;
            }
        }
        self.nodes[id.index()].kind = kind;
        self.note_param(kind, id);
    }

    /// Children of a node.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// Position of `id` among its parent's children (0-based).
    pub fn child_index(&self, id: NodeId) -> Option<usize> {
        let p = self.parent(id)?;
        self.children(p).iter().position(|&c| c == id)
    }

    /// Total number of nodes in the arena, including garbage. Useful as a
    /// capacity indicator and as the *created-nodes watermark* of the module
    /// docs; use [`RhsTree::node_count`] for the logical size.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Roots of the subtrees that lost their parent since the last
    /// [`RhsTree::compact`], oldest first. Append-only between compactions, so
    /// a consumer that remembers the length it saw reads exactly the
    /// detachments that happened since. An entry may have been re-attached
    /// afterwards (check [`RhsTree::is_floating`]) and may repeat.
    pub fn detached_journal(&self) -> &[NodeId] {
        &self.detached
    }

    /// Whether `id` currently has no parent and is not the root, i.e. it is the
    /// root of a detached (garbage or not-yet-attached) subtree.
    #[inline]
    pub fn is_floating(&self, id: NodeId) -> bool {
        id != self.root && self.nodes[id.index()].parent.is_none()
    }

    /// The node after `node` in the preorder of the subtree rooted at `top`,
    /// found through parent links — no stack, no allocation. Costs O(rank) per
    /// upward step (the position scan in the parent's child list).
    pub fn preorder_next(&self, top: NodeId, node: NodeId) -> Option<NodeId> {
        if let Some(&first) = self.children(node).first() {
            return Some(first);
        }
        let mut n = node;
        while n != top {
            let p = self.nodes[n.index()].parent?;
            let siblings = self.children(p);
            let pos = siblings.iter().position(|&c| c == n)?;
            if let Some(&next) = siblings.get(pos + 1) {
                return Some(next);
            }
            n = p;
        }
        None
    }

    /// Allocation-free preorder iterator over the subtree rooted at `top`.
    pub fn walk_from(&self, top: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(Some(top), move |&n| self.preorder_next(top, n))
    }

    /// Number of nodes reachable from the root.
    pub fn node_count(&self) -> usize {
        self.subtree_size(self.root)
    }

    /// Number of edges reachable from the root (`node_count - 1`).
    pub fn edge_count(&self) -> usize {
        self.node_count().saturating_sub(1)
    }

    /// Number of nodes in the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.walk_from(id).count()
    }

    /// Preorder traversal of the whole tree.
    pub fn preorder(&self) -> Vec<NodeId> {
        self.preorder_from(self.root)
    }

    /// Preorder traversal of the subtree rooted at `id`.
    pub fn preorder_from(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            let ch = self.children(n);
            for &c in ch.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The `n`-th node (1-based) of the tree in preorder — the paper's `(R, n)`
    /// addressing. Returns `None` if `n` is 0 or exceeds the node count.
    pub fn nth_preorder(&self, n: usize) -> Option<NodeId> {
        if n == 0 {
            return None;
        }
        self.preorder().get(n - 1).copied()
    }

    /// 1-based preorder index of a node (inverse of [`RhsTree::nth_preorder`]).
    pub fn preorder_index(&self, id: NodeId) -> Option<usize> {
        self.preorder().iter().position(|&x| x == id).map(|i| i + 1)
    }

    /// Parameter nodes `(index, node)` in preorder.
    pub fn param_nodes(&self) -> Vec<(u32, NodeId)> {
        self.walk_from(self.root)
            .filter_map(|id| self.kind(id).as_param().map(|p| (p, id)))
            .collect()
    }

    /// The node labelled with parameter `i` (0-based), if present — an O(1)
    /// lookup in the table the mutators maintain. Relies on the right-hand
    /// side holding at most one node per parameter index over its arena
    /// lifetime (true of every splice in this workspace: linear grammars use
    /// each parameter once and splices move parameter nodes without copying
    /// them); [`RhsTree::check_links`] verifies the table against a full walk.
    #[inline]
    pub fn find_param(&self, i: u32) -> Option<NodeId> {
        self.params
            .get(i as usize)
            .copied()
            .filter(|&id| id != NO_NODE)
    }

    /// Detaches `id` from its parent, making it a floating subtree root.
    /// Does nothing if `id` is the root or already floating.
    pub fn detach(&mut self, id: NodeId) {
        self.version += 1;
        if let Some(p) = self.nodes[id.index()].parent {
            self.detached.push(id);
            let pos = self.nodes[p.index()]
                .children
                .iter()
                .position(|&c| c == id)
                .expect("parent/child links consistent");
            self.nodes[p.index()].children.remove(pos);
            self.nodes[id.index()].parent = None;
        }
    }

    /// Replaces the subtree rooted at `at` by the floating subtree rooted at
    /// `replacement`. The old subtree at `at` becomes floating garbage.
    pub fn replace_subtree(&mut self, at: NodeId, replacement: NodeId) {
        debug_assert!(self.nodes[replacement.index()].parent.is_none());
        self.version += 1;
        self.detached.push(at);
        if at == self.root {
            self.nodes[at.index()].parent = None;
            self.root = replacement;
            return;
        }
        let parent = self.nodes[at.index()].parent.expect("non-root node has a parent");
        let pos = self.nodes[parent.index()]
            .children
            .iter()
            .position(|&c| c == at)
            .expect("parent/child links consistent");
        self.nodes[parent.index()].children[pos] = replacement;
        self.nodes[replacement.index()].parent = Some(parent);
        self.nodes[at.index()].parent = None;
    }

    /// The RePair splice: replaces the digram occurrence formed by `parent` and
    /// its `i`-th child by one fresh node labelled `kind`, whose children are
    /// `parent`'s children with the `i`-th replaced by that child's children.
    /// Returns the fresh node, which takes `parent`'s place. Both old nodes
    /// become childless garbage (and are journaled as detached).
    pub fn replace_digram(&mut self, parent: NodeId, i: usize, kind: NodeKind) -> NodeId {
        let mut children = std::mem::take(&mut self.nodes[parent.index()].children);
        let child = children[i];
        let inner = std::mem::take(&mut self.nodes[child.index()].children);
        children.splice(i..=i, inner);
        self.nodes[child.index()].parent = None;
        self.detached.push(child);
        for &c in &children {
            self.nodes[c.index()].parent = None;
        }
        let fresh = self.add_node(kind, children);
        self.replace_subtree(parent, fresh);
        fresh
    }

    /// Attaches the floating subtree `child` as the last child of `parent`.
    pub fn push_child(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(self.nodes[child.index()].parent.is_none());
        self.version += 1;
        self.nodes[parent.index()].children.push(child);
        self.nodes[child.index()].parent = Some(parent);
    }

    /// Copies the subtree rooted at `src_node` of `src` into this arena and
    /// returns the id of the (floating) copy root. Parameters are copied verbatim.
    pub fn clone_subtree_from(&mut self, src: &RhsTree, src_node: NodeId) -> NodeId {
        // Iterative post-order copy to avoid recursion depth limits on deep trees.
        // We copy children first, then the node itself.
        let order = src.preorder_from(src_node);
        let mut new_ids: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        for &n in order.iter().rev() {
            let child_copies: Vec<NodeId> = src
                .children(n)
                .iter()
                .map(|c| {
                    let id = new_ids[c];
                    // children were added floating; keep them floating until attached below
                    id
                })
                .collect();
            let id = self.add_node(src.kind(n), child_copies);
            new_ids.insert(n, id);
        }
        new_ids[&src_node]
    }

    /// Copies the subtree rooted at `node` of this tree and returns the floating copy root.
    pub fn clone_subtree(&mut self, node: NodeId) -> NodeId {
        let order = self.preorder_from(node);
        let mut new_ids: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        for &n in order.iter().rev() {
            let child_copies: Vec<NodeId> =
                self.children(n).iter().map(|c| new_ids[c]).collect();
            let id = self.add_node(self.kind(n), child_copies);
            new_ids.insert(n, id);
        }
        new_ids[&node]
    }

    /// Inlines `rule_rhs` (the right-hand side of the rule labelling node `at`,
    /// which must be a nonterminal reference) at `at`.
    ///
    /// The `j`-th parameter of the copy is substituted by the subtree that was
    /// the `j`-th child (argument) of `at`. Returns the id of the root of the
    /// inlined copy, which now occupies `at`'s former position.
    pub fn inline_at(&mut self, at: NodeId, rule_rhs: &RhsTree) -> NodeId {
        debug_assert!(self.kind(at).is_nt(), "inline_at target must be a nonterminal node");
        self.version += 1;
        // Detach argument subtrees.
        let args: Vec<NodeId> = self.children(at).to_vec();
        for &a in &args {
            self.nodes[a.index()].parent = None;
        }
        self.nodes[at.index()].children.clear();

        // Copy the rule body bottom-up, substituting parameters by the argument
        // subtrees. Walking the preorder backwards visits every node after all
        // of its children, with the finished children on top of `done` in
        // left-to-right order — no source-to-copy map is needed.
        let order = rule_rhs.preorder();
        let mut done: Vec<NodeId> = Vec::new();
        for &n in order.iter().rev() {
            let copy = match rule_rhs.kind(n) {
                NodeKind::Param(j) => args[j as usize],
                kind => {
                    let arity = rule_rhs.children(n).len();
                    let children: Vec<NodeId> = done.drain(done.len() - arity..).rev().collect();
                    self.add_node(kind, children)
                }
            };
            done.push(copy);
        }
        let new_root = done.pop().expect("a rule body has a root");
        debug_assert!(done.is_empty());
        self.replace_subtree(at, new_root);
        new_root
    }

    /// Rebuilds the arena keeping only nodes reachable from the root.
    ///
    /// All previously held [`NodeId`]s are invalidated; only call this when no
    /// external node ids are retained.
    pub fn compact(&mut self) {
        self.version += 1;
        let order = self.preorder();
        let mut map: FxHashMap<NodeId, NodeId> =
            FxHashMap::with_capacity_and_hasher(order.len(), Default::default());
        for (i, &old) in order.iter().enumerate() {
            map.insert(old, NodeId(i as u32));
        }
        let mut nodes = Vec::with_capacity(order.len());
        for &old in &order {
            let n = &self.nodes[old.index()];
            nodes.push(RhsNode {
                kind: n.kind,
                parent: n.parent.map(|p| map[&p]),
                children: n.children.iter().map(|c| map[c]).collect(),
            });
        }
        self.nodes = nodes;
        self.root = map[&self.root];
        self.detached = Vec::new();
        self.params.clear();
        for i in 0..self.nodes.len() {
            self.note_param(self.nodes[i].kind, NodeId(i as u32));
        }
    }

    /// Checks structural invariants: parent/child links are consistent, the
    /// reachable part of the arena forms a tree rooted at `root`, and the
    /// parameter table agrees with the reachable parameter nodes.
    pub fn check_links(&self) -> bool {
        let order = self.preorder();
        let mut seen = std::collections::HashSet::new();
        for &n in &order {
            if !seen.insert(n) {
                return false; // node reachable twice => not a tree
            }
            if let NodeKind::Param(i) = self.kind(n) {
                if i != u32::MAX && self.find_param(i) != Some(n) {
                    return false;
                }
            }
            for &c in self.children(n) {
                if self.parent(c) != Some(n) {
                    return false;
                }
            }
        }
        self.parent(self.root).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::TermId;

    fn term(i: u32) -> NodeKind {
        NodeKind::Term(TermId(i))
    }

    /// Builds a(b, c(d)) and returns (tree, ids).
    fn sample() -> (RhsTree, Vec<NodeId>) {
        let mut t = RhsTree::singleton(term(0)); // a
        let a = t.root();
        let b = t.add_leaf(term(1));
        let d = t.add_leaf(term(3));
        let c = t.add_node(term(2), vec![d]);
        t.push_child(a, b);
        t.push_child(a, c);
        (t, vec![a, b, c, d])
    }

    #[test]
    fn build_and_navigate() {
        let (t, ids) = sample();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.children(ids[0]), &[ids[1], ids[2]]);
        assert_eq!(t.parent(ids[3]), Some(ids[2]));
        assert_eq!(t.child_index(ids[2]), Some(1));
        assert_eq!(t.child_index(ids[0]), None);
        assert!(t.check_links());
    }

    #[test]
    fn preorder_addressing_is_one_based() {
        let (t, ids) = sample();
        let pre = t.preorder();
        assert_eq!(pre, vec![ids[0], ids[1], ids[2], ids[3]]);
        assert_eq!(t.nth_preorder(1), Some(ids[0]));
        assert_eq!(t.nth_preorder(4), Some(ids[3]));
        assert_eq!(t.nth_preorder(0), None);
        assert_eq!(t.nth_preorder(5), None);
        assert_eq!(t.preorder_index(ids[2]), Some(3));
    }

    #[test]
    fn replace_subtree_splices_correctly() {
        let (mut t, ids) = sample();
        let fresh = t.add_leaf(term(9));
        t.replace_subtree(ids[2], fresh);
        assert_eq!(t.children(ids[0]), &[ids[1], fresh]);
        assert_eq!(t.node_count(), 3);
        assert!(t.check_links());

        // Replacing the root swaps the root pointer.
        let fresh2 = t.add_leaf(term(8));
        let root = t.root();
        t.replace_subtree(root, fresh2);
        assert_eq!(t.root(), fresh2);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn clone_subtree_duplicates_structure() {
        let (mut t, ids) = sample();
        let copy = t.clone_subtree(ids[2]); // c(d)
        assert_eq!(t.kind(copy), term(2));
        assert_eq!(t.children(copy).len(), 1);
        assert_eq!(t.kind(t.children(copy)[0]), term(3));
        assert!(t.parent(copy).is_none());
        // Original untouched.
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn inline_substitutes_parameters_by_arguments() {
        // Rule body: f(y1, g(y2))   — inline at node Nt with args (b, c)
        use crate::symbol::NtId;
        let mut body = RhsTree::singleton(term(10)); // f
        let f = body.root();
        let y1 = body.add_leaf(NodeKind::Param(0));
        let y2 = body.add_leaf(NodeKind::Param(1));
        let g = body.add_node(term(11), vec![y2]);
        body.push_child(f, y1);
        body.push_child(f, g);

        // Host: root = a(A(b, c))
        let mut host = RhsTree::singleton(term(0));
        let a = host.root();
        let b = host.add_leaf(term(1));
        let c = host.add_leaf(term(2));
        let call = host.add_node(NodeKind::Nt(NtId(0)), vec![b, c]);
        host.push_child(a, call);

        let new_root = host.inline_at(call, &body);
        // Expect a(f(b, g(c)))
        assert_eq!(host.kind(new_root), term(10));
        assert_eq!(host.children(a), &[new_root]);
        let f_children = host.children(new_root).to_vec();
        assert_eq!(f_children.len(), 2);
        assert_eq!(host.kind(f_children[0]), term(1));
        assert_eq!(host.kind(f_children[1]), term(11));
        assert_eq!(host.kind(host.children(f_children[1])[0]), term(2));
        assert_eq!(host.node_count(), 5);
        assert!(host.check_links());
    }

    #[test]
    fn compact_preserves_shape() {
        let (mut t, ids) = sample();
        let fresh = t.add_leaf(term(9));
        t.replace_subtree(ids[2], fresh); // creates garbage
        let before: Vec<_> = t.preorder().iter().map(|&n| t.kind(n)).collect();
        t.compact();
        let after: Vec<_> = t.preorder().iter().map(|&n| t.kind(n)).collect();
        assert_eq!(before, after);
        assert_eq!(t.arena_len(), t.node_count());
        assert!(t.check_links());
    }

    #[test]
    fn detach_and_push_child_move_subtrees() {
        let (mut t, ids) = sample();
        t.detach(ids[1]); // detach b
        assert_eq!(t.node_count(), 3);
        assert!(t.parent(ids[1]).is_none());
        t.push_child(ids[3], ids[1]); // d gets child b (ranks not checked here)
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.parent(ids[1]), Some(ids[3]));
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let (mut t, ids) = sample();
        let mut last = t.version();
        let expect_bump = |t: &RhsTree, last: &mut u64, what: &str| {
            assert!(t.version() > *last, "{what} must bump the version");
            *last = t.version();
        };
        t.add_leaf(term(7));
        expect_bump(&t, &mut last, "add_leaf");
        t.set_kind(ids[1], term(8));
        expect_bump(&t, &mut last, "set_kind");
        t.detach(ids[1]);
        expect_bump(&t, &mut last, "detach");
        t.push_child(ids[0], ids[1]);
        expect_bump(&t, &mut last, "push_child");
        let fresh = t.add_leaf(term(9));
        t.replace_subtree(ids[2], fresh);
        expect_bump(&t, &mut last, "replace_subtree");
        t.compact();
        expect_bump(&t, &mut last, "compact");
        // Read-only calls leave it alone.
        let _ = t.preorder();
        let _ = t.node_count();
        assert_eq!(t.version(), last);
    }

    #[test]
    fn detached_journal_records_what_splices_leave_behind() {
        let (mut t, ids) = sample(); // a(b, c(d))
        assert!(t.detached_journal().is_empty());
        let mark = t.arena_len();

        // Replace the digram (a, 1, c) by one node: a and c become garbage,
        // b and d hang off the fresh node.
        let fresh = t.replace_digram(ids[0], 1, term(7));
        assert_eq!(t.root(), fresh);
        assert_eq!(t.children(fresh), &[ids[1], ids[3]]);
        assert_eq!(fresh.index(), mark, "created nodes sit past the old arena length");
        let mut journal = t.detached_journal().to_vec();
        journal.sort();
        assert_eq!(journal, vec![ids[0], ids[2]]);
        for &gone in &[ids[0], ids[2]] {
            assert!(t.is_floating(gone));
            assert!(t.children(gone).is_empty());
        }
        assert!(!t.is_floating(ids[1]) && !t.is_floating(fresh));
        assert!(t.check_links());

        // Inlining journals only the consumed reference node.
        use crate::symbol::NtId;
        let mut body = RhsTree::singleton(term(10));
        let y = body.add_leaf(NodeKind::Param(0));
        let root = body.root();
        body.push_child(root, y);
        let mut host = RhsTree::singleton(term(0));
        let arg = host.add_leaf(term(1));
        let call = host.add_node(NodeKind::Nt(NtId(0)), vec![arg]);
        let host_root = host.root();
        host.push_child(host_root, call);
        host.inline_at(call, &body);
        assert_eq!(host.detached_journal(), &[call]);
        assert!(!host.is_floating(arg));

        // Compaction starts a new epoch.
        host.compact();
        assert!(host.detached_journal().is_empty());
    }

    #[test]
    fn stackless_walk_matches_preorder() {
        let (mut t, ids) = sample();
        assert_eq!(t.walk_from(t.root()).collect::<Vec<_>>(), t.preorder());
        assert_eq!(t.walk_from(ids[2]).collect::<Vec<_>>(), t.preorder_from(ids[2]));
        assert_eq!(t.subtree_size(ids[2]), 2);
        assert_eq!(t.subtree_size(ids[1]), 1);
        // A detached subtree is walked from its own top.
        t.detach(ids[2]);
        assert_eq!(t.walk_from(ids[2]).collect::<Vec<_>>(), vec![ids[2], ids[3]]);
        assert_eq!(t.node_count(), 2);
    }

    #[test]
    fn param_table_follows_relabels_and_compaction() {
        let mut t = RhsTree::singleton(term(0));
        let r = t.root();
        let p0 = t.add_leaf(NodeKind::Param(0));
        let x = t.add_leaf(term(1));
        t.push_child(r, x);
        t.push_child(r, p0);
        assert_eq!(t.find_param(0), Some(p0));
        // Relabelling moves the parameter to another node.
        t.set_kind(p0, term(2));
        assert_eq!(t.find_param(0), None);
        t.set_kind(x, NodeKind::Param(0));
        assert_eq!(t.find_param(0), Some(x));
        assert!(t.check_links());
        // Compaction renumbers nodes and rebuilds the table.
        t.add_leaf(term(9));
        t.compact();
        let y = t.find_param(0).expect("parameter survives compaction");
        assert_eq!(t.kind(y), NodeKind::Param(0));
        assert!(t.check_links());
    }

    #[test]
    fn param_helpers() {
        let mut t = RhsTree::singleton(term(0));
        let r = t.root();
        let p0 = t.add_leaf(NodeKind::Param(0));
        let p1 = t.add_leaf(NodeKind::Param(1));
        t.push_child(r, p1);
        t.push_child(r, p0);
        let params = t.param_nodes();
        assert_eq!(params.len(), 2);
        assert_eq!(t.find_param(0), Some(p0));
        assert_eq!(t.find_param(1), Some(p1));
        assert_eq!(t.find_param(2), None);
    }
}
