//! Incrementally maintained, node-granular grammar-side digram occurrence index.
//!
//! [`crate::occurrences::retrieve_occs`] recomputes the full occurrence table
//! — every chain walk, every overlap check, every usage weight — from scratch.
//! Calling it once per replacement round puts an O(grammar) term into every
//! round. [`OccIndex`] keeps the same information *persistent across rounds*,
//! the way `treerepair::OccTable` does on trees: it is built once at the
//! start of a recompression run and then [`OccIndex::refresh`]ed after each
//! round at a cost proportional to what the round changed — even when nearly
//! all of the grammar sits in one rule, as it does right after path isolation
//! and when a document is first compressed.
//!
//! # What is cached
//!
//! One *candidate* per generator node: the digram the node's parent edge
//! realizes once both chain walks are resolved, and the resolved tree parent.
//! Candidates are grouped per (rule, digram) into node lists; per digram the
//! index keeps the exact usage-weighted count and the set of contributing
//! rules, and forwards every weight change to the embedded
//! [`FrequencyBucketQueue`]. Alongside, per rule: the number of indexed nodes
//! (the live edge count) and the callee multiplicities (the call graph), both
//! kept exact across rounds rather than rebuilt.
//!
//! # The refresh contract
//!
//! A splice does not report what it touched. Right-hand-side arenas are
//! append-only between compactions, so the index reads a round's effect on a
//! rule off two watermarks it recorded at the previous refresh (see
//! [`sltgrammar::RhsTree`] and the invariants in [`crate::occurrences`]):
//!
//! 1. subtrees rooted at new entries of the rule's detached-roots journal that
//!    are still floating were cut out: every indexed node inside is
//!    un-indexed and its candidate retracted;
//! 2. nodes past the recorded arena length that are attached were created:
//!    they are indexed, and they and their (old) children are resolved — a
//!    candidate depends only on the node's label, its parent's label and
//!    child index, and the callees its walks enter, and an old node only ever
//!    changes parent by becoming the child of a created node;
//! 3. a chain walk sees a callee only through a *port* — its root, or the
//!    parent of one parameter. When a spliced rule's port is no longer the
//!    node it was, exactly the cached candidates (of any rule) whose walk
//!    came through that port are re-resolved — the per-callee, per-port
//!    `dependents` lists record individual candidates, not dependent rules —
//!    and a splice that leaves the ports alone re-resolves nothing outside
//!    its own rule;
//! 4. rules that appeared are scanned once, rules that vanished retract their
//!    lists.
//!
//! Two global properties cannot be patched locally and are recomputed by flat
//! passes over dense id-indexed vectors (no hashing, no allocation once the
//! scratch buffers are warm):
//!
//! * every refresh: which live rules were spliced (one version compare per
//!   live rule), and the anti-straight-line order and `usage` of every rule —
//!   one Kahn pass over the maintained caller lists and one accumulation
//!   pass over the callee lists, mirroring [`Grammar::anti_sl_order`]'s
//!   tie-breaking. Usage shifts are applied as `count × Δusage` weight deltas
//!   per (rule, digram) list. Exactness needs both: replacement visits
//!   generator rules in that order, and usage is a saturating fixpoint over
//!   the whole call graph;
//! * on demand: preorder ranks of one rule's arena — only to replay an
//!   equal-label digram *in order* (below) over a rule that holds at least
//!   two of its candidates and was spliced since it was last ranked.
//!
//! # Equal-label digrams
//!
//! The occurrences of `(a, i, a)` are what the canonical greedy scan —
//! anti-SL order over rules, preorder within a rule, skip what overlaps an
//! accepted occurrence — accepts, so deltas alone cannot maintain them. Per
//! (rule, digram) list the index keeps the accepted count and recounts it
//! when the list changed:
//!
//! * while every candidate's tree parent is a node of the candidate's own
//!   rule (always the case when a tree is compressed from scratch: nothing is
//!   transparent), occurrences can only overlap along chains of `i`-th
//!   children inside one rule, every scan order takes a chain top-down, and a
//!   chain of `k` candidates yields `⌈k/2⌉` occurrences — the changed lists
//!   are recounted by walking their chains, no ranks and no other rule
//!   involved;
//! * once a tree parent lies inside a callee (several call sites can then
//!   compete for one node), the digram is replayed in canonical order over
//!   all its lists — whenever a list changed or the relative order of its
//!   contributing rules did.
//!
//! The result is bit-for-bit the table [`crate::occurrences::retrieve_occs`]
//! would build on the current grammar — same weights (saturating semantics
//! included), same replacement sites, same selection under the queue's
//! deterministic tie-breaking. [`OccIndex::assert_matches_rebuild`] checks
//! exactly that; `tests/recompress_incremental.rs` runs it after every round
//! and asserts byte-identical output grammars against the per-round rebuild
//! oracle.

use sltgrammar::{FxHashMap, FxHashSet, Grammar, NodeId, NodeKind, NtId, RhsTree};
use treerepair::{Digram, FrequencyBucketQueue};

use crate::occurrences::{
    is_transparent_nt, overlaps, resolved_kind, retrieve_occs, tree_child_traced,
    tree_parent_traced, FrozenSet, GrammarNode, Port, Sites,
};

/// Interned digram id (index into `OccIndex::entries`).
type DigramId = u32;

const NO_DIGRAM: DigramId = u32::MAX;
/// "Not in the current order" marker of `OccIndex::order_pos`.
const NO_POS: u32 = u32::MAX;
/// "Never ranked / not in preorder" marker for version stamps.
const NEVER: u64 = u64::MAX;

/// What the index knows about one arena node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Not reachable from the root when last looked at (or never looked at).
    Unseen,
    /// Reachable: counted in the rule's size and call-graph edges.
    Indexed,
    /// Seen inside a detached subtree; garbage until the next compaction.
    Dead,
}

/// Per-node record: the node's candidate (if it generates one) and the
/// bookkeeping to retract it in O(1).
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The digram this node generates, [`NO_DIGRAM`] for roots, parameters
    /// and nodes of frozen rules.
    digram: DigramId,
    /// Position in the (rule, digram) node list.
    pos: u32,
    /// Resolved tree parent (the tree child of a candidate that takes part in
    /// equal-label replay is the node itself).
    tree_parent: GrammarNode,
    /// Bumped whenever the candidate is retracted or re-resolved; queued work
    /// and `dependents` entries carry the value they were created under and
    /// are void once it moved on.
    gen: u32,
    state: NodeState,
    /// The node is a transparent reference — equal-label digrams never
    /// record such candidates (their tree child is another rule's root).
    transparent: bool,
}

impl Slot {
    /// Whether the slot holds a candidate that takes part in equal-label
    /// scans and whose tree parent lies outside its own rule `nt`.
    fn is_foreign_to(&self, nt: NtId) -> bool {
        !self.transparent && self.tree_parent.0 != nt
    }

    const EMPTY: Slot = Slot {
        digram: NO_DIGRAM,
        pos: 0,
        tree_parent: (NtId(0), NodeId(0)),
        gen: 0,
        state: NodeState::Unseen,
        transparent: false,
    };
}

/// The candidates of one digram inside one rule.
#[derive(Debug, Clone)]
struct Occs {
    /// Generator nodes, unordered unless `ranked_at` says otherwise.
    nodes: Vec<NodeId>,
    /// Equal-label only: occurrences the canonical greedy scan accepts
    /// (every candidate counts for other digrams). The entry's weight holds
    /// `accepted × usage(rule)` for this list.
    accepted: u32,
    /// Equal-label only: the list changed since `accepted` was computed.
    dirty: bool,
    /// Position of the rule in the digram's `Entry::rules`.
    entry_pos: u32,
    /// The rule's rhs version at which `nodes` was sorted into preorder.
    ranked_at: u64,
}

/// What the index knows about one rule besides its place in the call graph.
#[derive(Debug, Clone)]
struct RuleState {
    /// Frozen rules contribute size and call-graph edges but no candidates.
    frozen: bool,
    /// Arena length and journal length at the last refresh.
    arena_mark: usize,
    journal_mark: usize,
    /// Indexed (reachable) nodes; the rule has `nodes - 1` edges.
    nodes: usize,
    slots: Vec<Slot>,
    lists: FxHashMap<DigramId, Occs>,
    /// Preorder ranks by arena index, valid for rhs version `ranked_at`.
    rank: Vec<u32>,
    ranked_at: u64,
}

impl Default for RuleState {
    fn default() -> Self {
        RuleState {
            frozen: false,
            arena_mark: 0,
            journal_mark: 0,
            nodes: 0,
            slots: Vec::new(),
            lists: FxHashMap::default(),
            rank: Vec::new(),
            ranked_at: NEVER,
        }
    }
}

/// Per-digram aggregate state. Entries whose last candidate went away are
/// recycled, so the table follows the live digrams, not every digram seen.
#[derive(Debug, Clone)]
struct Entry {
    digram: Digram,
    /// Exact usage-weighted occurrence count. `i128` so that delta
    /// application never wraps; clamped to `u64` at the queue boundary, which
    /// reproduces the oracle's saturating additions (a sum of non-negative
    /// saturating adds equals `min(Σ, u64::MAX)`).
    weight: i128,
    /// Rules holding at least one candidate (each list knows its position).
    rules: Vec<NtId>,
    /// Weight currently registered in the queue.
    queued: u64,
    /// Queued for the weight flush at the end of this refresh.
    touched: bool,
    /// Equal-label digrams count accepted occurrences, not candidates.
    equal: Option<Box<EqualLabel>>,
}

/// What an equal-label digram needs on top: its occurrences are whatever the
/// canonical greedy scan accepts, which deltas cannot express.
#[derive(Debug, Clone, Default)]
struct EqualLabel {
    /// Some list changed since the last recount.
    stale: bool,
    /// The rules whose lists turned dirty.
    dirty_rules: Vec<NtId>,
    /// Candidates whose tree parent lies in another rule. While there are
    /// none, occurrences overlap only along chains inside one rule and the
    /// scan order across chains and rules is immaterial.
    foreign: u32,
    /// The contributing rules in the order the last ordered replay scanned
    /// them (empty after a chain recount).
    replayed: Vec<NtId>,
    /// Whether the entry is in `OccIndex::ordered_entries`.
    listed: bool,
}

/// A candidate to (re-)resolve, valid while the node's slot still carries `gen`.
#[derive(Debug, Clone, Copy)]
struct Pending {
    rule: NtId,
    node: NodeId,
    gen: u32,
}

/// One [`Port`] of a rule: the node a walk through it lands on (with the
/// child index it continues under) as of the last refresh, and the cached
/// candidates whose walks came through.
#[derive(Debug, Clone, Default)]
struct PortState {
    place: Option<(NodeId, usize)>,
    through: Vec<Pending>,
}

impl PortState {
    /// Records where the port is now; if that is not where it was, moves the
    /// walks through it into `work`.
    fn release_if_moved(&mut self, now: Option<(NodeId, usize)>, work: &mut Vec<Pending>) {
        if std::mem::replace(&mut self.place, now) != now {
            work.append(&mut self.through);
        }
    }
}

/// The candidates whose chain walks came through one rule, per [`Port`].
#[derive(Debug, Clone, Default)]
struct Dependents {
    root: PortState,
    params: Vec<PortState>,
}

impl Dependents {
    /// Moves the walks through every port that is not where it was into
    /// `work` and records the ports' current places.
    fn release_moved(&mut self, rhs: &RhsTree, rank: usize, work: &mut Vec<Pending>) {
        self.root.release_if_moved(Some((rhs.root(), 0)), work);
        self.params.resize_with(rank, PortState::default);
        for (j, port) in self.params.iter_mut().enumerate() {
            let parent = |y| Some((rhs.parent(y)?, rhs.child_index(y)?));
            port.release_if_moved(rhs.find_param(j as u32).and_then(parent), work);
        }
    }

    fn through(&mut self, port: Port) -> &mut Vec<Pending> {
        match port {
            Port::Root => &mut self.root.through,
            Port::Param(j) => &mut self.params[j as usize].through,
        }
    }
}

/// The persistent grammar-side occurrence table with its embedded selection
/// queue. See the module docs for the refresh contract.
///
/// Per-rule data is split by temperature: `versions`, `callees` and `callers`
/// are what the per-round passes over the rule array read, everything else
/// lives in `rules`. All four are indexed by [`NtId`].
#[derive(Debug, Clone, Default)]
pub struct OccIndex {
    /// Tracked (live) rules, ascending — what the per-round passes iterate,
    /// so their cost follows the live grammar, not the id space.
    live: Vec<NtId>,
    /// Rhs version at the last refresh; [`NEVER`] for untracked rule ids.
    versions: Vec<u64>,
    /// Callee multiplicities per rule, sorted by callee id.
    callees: Vec<Vec<(NtId, u32)>>,
    /// Distinct callers per rule, ascending.
    callers: Vec<Vec<NtId>>,
    rules: Vec<RuleState>,
    /// `dependents[c]`: the candidates whose chain walks entered rule `c`.
    dependents: Vec<Dependents>,
    ids: FxHashMap<Digram, DigramId>,
    entries: Vec<Entry>,
    /// Recyclable slots of `entries`.
    free_entries: Vec<DigramId>,
    /// Equal-label entries last counted by an ordered replay over ≥ 2 rules.
    ordered_entries: Vec<DigramId>,
    queue: FrequencyBucketQueue,
    /// Indexed by [`NtId`]; 0 for untracked ids.
    usage: Vec<u64>,
    /// Current anti-straight-line rule order (callees first) and its inverse.
    order: Vec<NtId>,
    order_pos: Vec<u32>,
    total_nodes: usize,
    resolved_candidates: usize,
    rank_pass_nodes: usize,
    created_nodes: usize,
    // Work lists of the refresh in progress.
    work: Vec<Pending>,
    stack: Vec<NodeId>,
    touched: Vec<DigramId>,
    stale: Vec<DigramId>,
    // Scratch of the order/usage pass, kept for its capacity.
    out_degree: Vec<u32>,
    new_order: Vec<NtId>,
    new_usage: Vec<u64>,
}

impl OccIndex {
    /// Builds the index for the current grammar (a refresh from the empty
    /// state: every rule is new).
    pub fn build(g: &Grammar, frozen: &FrozenSet) -> Self {
        let mut index = OccIndex::default();
        index.refresh(g, frozen);
        index.created_nodes = 0;
        index
    }

    /// Re-synchronizes the index with the grammar after a replacement round
    /// (or any sequence of structural rule splices; labels must not change in
    /// place). See the module docs for what is touched.
    pub fn refresh(&mut self, g: &Grammar, frozen: &FrozenSet) {
        let (tracked_bound, bound) = (self.versions.len(), g.nt_bound());
        if tracked_bound < bound {
            self.versions.resize(bound, NEVER);
            self.callees.resize_with(bound, Vec::new);
            self.callers.resize_with(bound, Vec::new);
            self.rules.resize_with(bound, RuleState::default);
            self.dependents.resize_with(bound, Dependents::default);
            self.usage.resize(bound, 0);
            self.order_pos.resize(bound, NO_POS);
            self.out_degree.resize(bound, 0);
            self.new_usage.resize(bound, 0);
        }
        // Splices self-report through the version counter; what exactly
        // happened is then read off the arena watermarks.
        self.rank_pass_nodes += self.live.len();
        let mut dropped = false;
        for k in 0..self.live.len() {
            let nt = self.live[k];
            let version = g.try_rule(nt).map_or(NEVER, |rule| rule.rhs.version());
            if version == std::mem::replace(&mut self.versions[nt.index()], version) {
                continue;
            }
            if version == NEVER {
                self.drop_rule(nt);
                dropped = true;
            } else {
                self.sync_rule(g, nt);
            }
        }
        if dropped {
            self.live.retain(|nt| self.versions[nt.index()] != NEVER);
        }
        // Rule ids are never reused, so new rules sit past the old bound.
        for i in tracked_bound..bound {
            let nt = NtId(i as u32);
            if let Some(rule) = g.try_rule(nt) {
                self.versions[i] = rule.rhs.version();
                self.live.push(nt);
                self.adopt_rule(g, nt, frozen.contains(&nt));
            }
        }
        self.resolve_pending(g, frozen);
        let order_changed = self.recompute_order_and_usage(g.start());
        self.recount_stale(g, order_changed);
        self.flush_queue();
    }

    // ----- structural sync (what was created, what was detached) ---------

    /// Starts tracking a rule the index has not seen: one scan of its body.
    fn adopt_rule(&mut self, g: &Grammar, nt: NtId, frozen: bool) {
        let rhs = &g.rule(nt).rhs;
        let state = &mut self.rules[nt.index()];
        *state = RuleState {
            frozen,
            arena_mark: rhs.arena_len(),
            journal_mark: rhs.detached_journal().len(),
            ..RuleState::default()
        };
        state.slots.resize(rhs.arena_len(), Slot::EMPTY);
        self.created_nodes += rhs.arena_len();
        self.index_subtree(rhs, nt, rhs.root());
        self.dependents[nt.index()].release_moved(rhs, g.rule(nt).rank, &mut self.work);
    }

    /// Applies what happened to a tracked rule since the last refresh.
    fn sync_rule(&mut self, g: &Grammar, nt: NtId) {
        let rhs = &g.rule(nt).rhs;
        let state = &mut self.rules[nt.index()];
        let created_from = std::mem::replace(&mut state.arena_mark, rhs.arena_len());
        let journal = rhs.detached_journal();
        let journal_from = std::mem::replace(&mut state.journal_mark, journal.len());
        state.slots.resize(rhs.arena_len(), Slot::EMPTY);
        self.created_nodes += rhs.arena_len() - created_from;

        for &top in &journal[journal_from..] {
            if rhs.is_floating(top) {
                self.unindex_subtree(rhs, nt, top);
            } else {
                // Re-attached elsewhere: its parent edge may have changed.
                self.queue_node(nt, top);
            }
        }
        for index in created_from..rhs.arena_len() {
            let node = NodeId(index as u32);
            if self.rules[nt.index()].slots[index].state == NodeState::Unseen
                && !rhs.is_floating(node)
            {
                self.index_subtree(rhs, nt, node);
            }
        }
        // Cached candidates whose chain walk came through a port of this
        // rule that moved are re-resolved (and re-register themselves if
        // their new walk still enters).
        self.dependents[nt.index()].release_moved(rhs, g.rule(nt).rank, &mut self.work);
    }

    /// Stops tracking a rule that left the grammar.
    fn drop_rule(&mut self, nt: NtId) {
        let state = std::mem::take(&mut self.rules[nt.index()]);
        let usage = std::mem::take(&mut self.usage[nt.index()]) as i128;
        self.dependents[nt.index()] = Dependents::default();
        self.order_pos[nt.index()] = NO_POS;
        self.total_nodes -= state.nodes;
        for (callee, _) in std::mem::take(&mut self.callees[nt.index()]) {
            let callers = &mut self.callers[callee.index()];
            callers.retain(|&caller| caller != nt);
        }
        for (&d, occs) in &state.lists {
            let entry = &mut self.entries[d as usize];
            if let Some(equal) = &mut entry.equal {
                entry.weight -= occs.accepted as i128 * usage;
                let foreign = |node: &&NodeId| state.slots[node.index()].is_foreign_to(nt);
                equal.foreign -= occs.nodes.iter().filter(foreign).count() as u32;
                mark(&mut equal.stale, &mut self.stale, d);
            } else {
                entry.weight -= occs.nodes.len() as i128 * usage;
            }
            mark(&mut entry.touched, &mut self.touched, d);
            self.unlist_rule(d, occs.entry_pos);
        }
    }

    /// Removes the rule at `pos` from the digram's rule list (its candidate
    /// list is gone) and tells the rule that takes its place.
    fn unlist_rule(&mut self, d: DigramId, pos: u32) {
        let rules = &mut self.entries[d as usize].rules;
        rules.swap_remove(pos as usize);
        if let Some(&moved) = rules.get(pos as usize) {
            let occs = self.rules[moved.index()].lists.get_mut(&d);
            occs.expect("listed rules hold a list").entry_pos = pos;
        }
    }

    /// Indexes every not-yet-indexed node of the subtree rooted at `top` and
    /// queues the nodes for resolution. Already indexed nodes met on the way
    /// (old subtrees re-attached below fresh nodes) are queued — their parent
    /// edge changed — but not descended into.
    fn index_subtree(&mut self, rhs: &RhsTree, nt: NtId, top: NodeId) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(top);
        while let Some(node) = stack.pop() {
            let state = &mut self.rules[nt.index()];
            if state.slots[node.index()].state != NodeState::Indexed {
                state.slots[node.index()].state = NodeState::Indexed;
                state.nodes += 1;
                self.total_nodes += 1;
                stack.extend_from_slice(rhs.children(node));
                if let NodeKind::Nt(callee) = rhs.kind(node) {
                    self.add_call(nt, callee);
                }
            }
            self.queue_node(nt, node);
        }
        self.stack = stack;
    }

    /// Un-indexes the detached subtree rooted at `top`.
    fn unindex_subtree(&mut self, rhs: &RhsTree, nt: NtId, top: NodeId) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(top);
        while let Some(node) = stack.pop() {
            stack.extend_from_slice(rhs.children(node));
            let state = &mut self.rules[nt.index()];
            let was = std::mem::replace(&mut state.slots[node.index()].state, NodeState::Dead);
            if was == NodeState::Indexed {
                state.nodes -= 1;
                self.total_nodes -= 1;
                if let NodeKind::Nt(callee) = rhs.kind(node) {
                    self.remove_call(nt, callee);
                }
                self.retract(nt, node);
            }
        }
        self.stack = stack;
    }

    /// Counts one more reference site of `callee` inside `caller`.
    fn add_call(&mut self, caller: NtId, callee: NtId) {
        let callees = &mut self.callees[caller.index()];
        match callees.binary_search_by_key(&callee, |&(c, _)| c) {
            Ok(i) => callees[i].1 += 1,
            Err(i) => {
                callees.insert(i, (callee, 1));
                let callers = &mut self.callers[callee.index()];
                let at = callers.binary_search(&caller).expect_err("a new call edge");
                callers.insert(at, caller);
            }
        }
    }

    /// Counts one reference site of `callee` inside `caller` less.
    fn remove_call(&mut self, caller: NtId, callee: NtId) {
        let callees = &mut self.callees[caller.index()];
        let i = callees
            .binary_search_by_key(&callee, |&(c, _)| c)
            .expect("an indexed reference was counted");
        callees[i].1 -= 1;
        if callees[i].1 == 0 {
            callees.remove(i);
            let callers = &mut self.callers[callee.index()];
            let at = callers.binary_search(&caller).expect("the edge had a caller entry");
            callers.remove(at);
        }
    }

    /// Queues an indexed node of a transparent rule for (re-)resolution.
    fn queue_node(&mut self, nt: NtId, node: NodeId) {
        let state = &self.rules[nt.index()];
        let slot = &state.slots[node.index()];
        if !state.frozen && slot.state == NodeState::Indexed {
            self.work.push(Pending {
                rule: nt,
                node,
                gen: slot.gen,
            });
        }
    }

    // ----- candidates ------------------------------------------------------

    /// Removes the node's candidate (if any) from its list and aggregate.
    fn retract(&mut self, nt: NtId, node: NodeId) {
        let state = &mut self.rules[nt.index()];
        let slot = &mut state.slots[node.index()];
        slot.gen = slot.gen.wrapping_add(1);
        let d = std::mem::replace(&mut slot.digram, NO_DIGRAM);
        if d == NO_DIGRAM {
            return;
        }
        let (pos, foreign) = (slot.pos as usize, slot.is_foreign_to(nt));
        let occs = state.lists.get_mut(&d).expect("a candidate sits in its list");
        occs.nodes.swap_remove(pos);
        occs.ranked_at = NEVER;
        if let Some(&moved) = occs.nodes.get(pos) {
            state.slots[moved.index()].pos = pos as u32;
        }
        let usage = self.usage[nt.index()] as i128;
        let entry = &mut self.entries[d as usize];
        let emptied = occs.nodes.is_empty().then_some(occs.entry_pos);
        if let Some(equal) = &mut entry.equal {
            equal.foreign -= foreign as u32;
            if emptied.is_some() {
                entry.weight -= occs.accepted as i128 * usage;
            } else if !std::mem::replace(&mut occs.dirty, true) {
                equal.dirty_rules.push(nt);
            }
            mark(&mut equal.stale, &mut self.stale, d);
        } else {
            entry.weight -= usage;
        }
        mark(&mut entry.touched, &mut self.touched, d);
        if let Some(pos) = emptied {
            state.lists.remove(&d);
            self.unlist_rule(d, pos);
        }
    }

    /// Resolves every queued node against the current grammar: retracts its
    /// old candidate, walks both chains, registers the new one.
    fn resolve_pending(&mut self, g: &Grammar, frozen: &FrozenSet) {
        let mut work = std::mem::take(&mut self.work);
        let mut entered: Vec<(NtId, Port)> = Vec::new();
        for &Pending { rule, node, gen } in &work {
            if self.versions[rule.index()] == NEVER {
                continue;
            }
            let slot = &self.rules[rule.index()].slots[node.index()];
            if slot.state != NodeState::Indexed || slot.gen != gen {
                continue; // detached, or already handled in this refresh
            }
            self.retract(rule, node);
            let rhs = &g.rule(rule).rhs;
            if node == rhs.root() || rhs.kind(node).is_param() {
                continue;
            }
            self.resolved_candidates += 1;
            entered.clear();
            let Some((tp, index)) =
                tree_parent_traced(g, rule, node, frozen, &mut |c, port| entered.push((c, port)))
            else {
                continue;
            };
            let tc =
                tree_child_traced(g, rule, node, frozen, &mut |c, port| entered.push((c, port)));
            let digram = Digram {
                parent: resolved_kind(g, tp),
                child_index: index,
                child: resolved_kind(g, tc),
            };
            let transparent = is_transparent_nt(rhs.kind(node), frozen);
            let gen = self.register(rule, node, digram, tp, transparent);
            for &(callee, port) in &entered {
                let through = self.dependents[callee.index()].through(port);
                through.push(Pending { rule, node, gen });
            }
        }
        work.clear();
        self.work = work;
    }

    /// Records `node` as a candidate of `digram`; returns the slot's `gen`.
    fn register(
        &mut self,
        nt: NtId,
        node: NodeId,
        digram: Digram,
        tree_parent: GrammarNode,
        transparent: bool,
    ) -> u32 {
        let d = match self.ids.get(&digram) {
            Some(&d) => d,
            None => {
                let entry = Entry {
                    digram,
                    weight: 0,
                    rules: Vec::new(),
                    queued: 0,
                    touched: false,
                    equal: digram.equal_labels().then(Box::default),
                };
                let d = match self.free_entries.pop() {
                    Some(d) => {
                        self.entries[d as usize] = entry;
                        d
                    }
                    None => {
                        self.entries.push(entry);
                        self.entries.len() as DigramId - 1
                    }
                };
                self.ids.insert(digram, d);
                d
            }
        };
        let state = &mut self.rules[nt.index()];
        let entry = &mut self.entries[d as usize];
        let occs = state.lists.entry(d).or_insert_with(|| {
            entry.rules.push(nt);
            Occs {
                nodes: Vec::new(),
                accepted: 0,
                dirty: false,
                entry_pos: entry.rules.len() as u32 - 1,
                ranked_at: NEVER,
            }
        });
        let slot = &mut state.slots[node.index()];
        slot.digram = d;
        slot.pos = occs.nodes.len() as u32;
        slot.tree_parent = tree_parent;
        slot.transparent = transparent;
        occs.nodes.push(node);
        occs.ranked_at = NEVER;
        if let Some(equal) = &mut entry.equal {
            equal.foreign += slot.is_foreign_to(nt) as u32;
            if !std::mem::replace(&mut occs.dirty, true) {
                equal.dirty_rules.push(nt);
            }
            mark(&mut equal.stale, &mut self.stale, d);
        } else {
            entry.weight += self.usage[nt.index()] as i128;
        }
        mark(&mut entry.touched, &mut self.touched, d);
        slot.gen
    }

    // ----- global passes ---------------------------------------------------

    /// Kahn's algorithm over the maintained call graph, byte-for-byte
    /// mirroring [`Grammar::anti_sl_order`]'s tie-breaking (ascending seeds,
    /// ascending release batches): callees first, start rule last. Then
    /// usage — `usage(start) = 1`, every reference site contributes its
    /// caller's usage (saturating), callers first — and the `count × Δusage`
    /// weight deltas. Returns whether the relative order of two rules that
    /// were already ordered before changed.
    fn recompute_order_and_usage(&mut self, start: NtId) -> bool {
        self.rank_pass_nodes += self.live.len();
        self.new_order.clear();
        for &nt in &self.live {
            self.out_degree[nt.index()] = self.callees[nt.index()].len() as u32;
            self.new_usage[nt.index()] = 0;
            if self.callees[nt.index()].is_empty() {
                self.new_order.push(nt);
            }
        }
        let mut next = 0;
        while next < self.new_order.len() {
            let nt = self.new_order[next];
            next += 1;
            // Caller lists are ascending, so every release batch is too.
            self.rank_pass_nodes += self.callers[nt.index()].len();
            for &caller in &self.callers[nt.index()] {
                let remaining = &mut self.out_degree[caller.index()];
                *remaining -= 1;
                if *remaining == 0 {
                    self.new_order.push(caller);
                }
            }
        }
        debug_assert_eq!(self.new_order.len(), self.live.len(), "call graph must be acyclic");

        // Install the positions; rules that were ordered before must still
        // come in ascending old position, or the relative order changed.
        let mut order_changed = false;
        let mut last = None;
        for (pos, &nt) in self.new_order.iter().enumerate() {
            let before = std::mem::replace(&mut self.order_pos[nt.index()], pos as u32);
            if before != NO_POS {
                order_changed |= last.is_some_and(|l| before < l);
                last = Some(before);
            }
        }
        std::mem::swap(&mut self.order, &mut self.new_order);

        self.new_usage[start.index()] = 1;
        for &caller in self.order.iter().rev() {
            let u = self.new_usage[caller.index()];
            if u == 0 {
                continue;
            }
            for &(callee, count) in &self.callees[caller.index()] {
                let add = (u as u128).saturating_mul(count as u128).min(u64::MAX as u128) as u64;
                let slot = &mut self.new_usage[callee.index()];
                *slot = slot.saturating_add(add);
            }
        }
        // Every weight factors through usage(rule), so a usage shift is a
        // `count × Δ` adjustment per (rule, digram) list.
        for &nt in &self.order {
            let new = self.new_usage[nt.index()];
            let delta = new as i128 - std::mem::replace(&mut self.usage[nt.index()], new) as i128;
            if delta == 0 {
                continue;
            }
            for (&d, occs) in &self.rules[nt.index()].lists {
                let entry = &mut self.entries[d as usize];
                let count = match entry.equal {
                    Some(_) => occs.accepted as usize,
                    None => occs.nodes.len(),
                };
                entry.weight += count as i128 * delta;
                mark(&mut entry.touched, &mut self.touched, d);
            }
        }
        order_changed
    }

    /// Brings the accepted counts of equal-label digrams up to date: those
    /// whose lists changed, plus — when rules moved relative to each other —
    /// those whose last ordered replay scanned its rules in another order.
    fn recount_stale(&mut self, g: &Grammar, order_changed: bool) {
        if order_changed {
            // Recycled entries drop out of the list here.
            let (entries, order_pos, stale) = (&mut self.entries, &self.order_pos, &mut self.stale);
            self.ordered_entries.retain(|&d| {
                let Some(equal) = &mut entries[d as usize].equal else { return false };
                let in_order = equal
                    .replayed
                    .windows(2)
                    .all(|w| order_pos[w[0].index()] < order_pos[w[1].index()]);
                if !in_order {
                    mark(&mut equal.stale, stale, d);
                }
                equal.listed
            });
        }
        let mut stale = std::mem::take(&mut self.stale);
        for &d in &stale {
            let entry = &mut self.entries[d as usize];
            let mut equal = entry.equal.take().expect("only equal-label digrams go stale");
            equal.stale = false;
            if equal.foreign == 0 {
                self.recount_chains(g, d, &mut equal);
            } else {
                self.replay_in_order(g, d, &mut equal);
            }
            let entry = &mut self.entries[d as usize];
            entry.equal = Some(equal);
            mark(&mut entry.touched, &mut self.touched, d);
        }
        stale.clear();
        self.stale = stale;
    }

    /// Equal-label recount while every candidate's tree parent is its own
    /// rule's node: occurrences then overlap only along chains `n0 → n1 → …`
    /// (each the `i`-th child of the previous) inside one rule, the canonical
    /// scan takes every chain top-down whatever the order across chains, and
    /// a chain of `k` candidates yields `⌈k/2⌉` occurrences. Only lists that
    /// changed are recounted; no ranks, no overlap sets.
    fn recount_chains(&mut self, g: &Grammar, d: DigramId, equal: &mut EqualLabel) {
        let entry = &mut self.entries[d as usize];
        let i = entry.digram.child_index;
        equal.replayed.clear();
        for nt in equal.dirty_rules.drain(..) {
            let state = &mut self.rules[nt.index()];
            let Some(occs) = state.lists.get_mut(&d) else { continue };
            if !std::mem::replace(&mut occs.dirty, false) {
                continue;
            }
            let rhs = &g.rule(nt).rhs;
            let slots = &state.slots;
            let links = |node: NodeId| {
                let slot = &slots[node.index()];
                slot.digram == d && !slot.transparent
            };
            let mut accepted = 0;
            for &top in &occs.nodes {
                let parent = rhs.parent(top).expect("generators are not roots");
                if !links(top) || links(parent) {
                    continue; // skipped by the scan, or not the top of its chain
                }
                let mut length: u32 = 1;
                let mut node = top;
                while let Some(&below) = rhs.children(node).get(i).filter(|&&c| links(c)) {
                    node = below;
                    length += 1;
                }
                accepted += length.div_ceil(2);
            }
            let usage = self.usage[nt.index()] as i128;
            entry.weight += (accepted as i128 - occs.accepted as i128) * usage;
            occs.accepted = accepted;
        }
    }

    /// Equal-label recount in the general case: replays the canonical greedy
    /// scan — rules in anti-SL order, candidates in preorder — over all lists
    /// of the digram, ranking a rule's arena first if it was spliced since.
    fn replay_in_order(&mut self, g: &Grammar, d: DigramId, equal: &mut EqualLabel) {
        let entry = &mut self.entries[d as usize];
        equal.dirty_rules.clear();
        equal.replayed.clear();
        equal.replayed.extend_from_slice(&entry.rules);
        equal.replayed.sort_unstable_by_key(|nt| self.order_pos[nt.index()]);
        let mut used_parents: FxHashSet<GrammarNode> = FxHashSet::default();
        let mut used_children: FxHashSet<GrammarNode> = FxHashSet::default();
        for &nt in &equal.replayed {
            let rhs = &g.rule(nt).rhs;
            let state = &mut self.rules[nt.index()];
            let occs = state.lists.get_mut(&d).expect("contributing rules hold a list");
            if occs.nodes.len() > 1 && occs.ranked_at != rhs.version() {
                if state.ranked_at != rhs.version() {
                    state.rank.resize(rhs.arena_len(), 0);
                    for (rank, node) in rhs.walk_from(rhs.root()).enumerate() {
                        state.rank[node.index()] = rank as u32;
                    }
                    state.ranked_at = rhs.version();
                    self.rank_pass_nodes += state.nodes;
                }
                occs.nodes.sort_unstable_by_key(|node| state.rank[node.index()]);
                for (pos, node) in occs.nodes.iter().enumerate() {
                    state.slots[node.index()].pos = pos as u32;
                }
                occs.ranked_at = rhs.version();
            }
            let mut accepted = 0;
            for &node in &occs.nodes {
                let slot = &state.slots[node.index()];
                let (tp, tc) = (slot.tree_parent, (nt, node));
                if slot.transparent || overlaps(&used_parents, &used_children, tp, tc) {
                    continue;
                }
                used_parents.insert(tp);
                used_children.insert(tc);
                accepted += 1;
            }
            let usage = self.usage[nt.index()] as i128;
            entry.weight += (accepted as i128 - occs.accepted as i128) * usage;
            occs.accepted = accepted;
            occs.dirty = false;
        }
        if equal.replayed.len() > 1 && !std::mem::replace(&mut equal.listed, true) {
            self.ordered_entries.push(d);
        }
    }

    /// Forwards net weight changes to the queue and recycles the entries
    /// whose last candidate went away.
    fn flush_queue(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        for &d in &touched {
            let entry = &mut self.entries[d as usize];
            entry.touched = false;
            let weight = clamp_weight(entry.weight);
            if weight != entry.queued {
                self.queue.update(&entry.digram, entry.queued, weight);
                entry.queued = weight;
            }
            if entry.rules.is_empty() {
                debug_assert_eq!(entry.weight, 0, "no candidates, no weight");
                self.ids.remove(&entry.digram);
                entry.equal = None;
                self.free_entries.push(d);
            }
        }
        touched.clear();
        self.touched = touched;
    }

    // ----- queries ---------------------------------------------------------

    /// Most frequent digram with weight ≥ `min_occurrences` whose pattern rank
    /// does not exceed `max_rank`, ties broken by [`Digram::sort_key`] — the
    /// digram the rebuild oracle would select. Rank-ineligible digrams are
    /// excluded permanently (ranks never change).
    pub fn select_best(
        &mut self,
        g: &Grammar,
        min_occurrences: u64,
        max_rank: usize,
    ) -> Option<Digram> {
        self.queue
            .pop_best(min_occurrences, |d| d.pattern_rank(g) <= max_rank)
    }

    /// The replacement sites of `digram`: the rules holding at least one
    /// recorded (accepted) occurrence, in anti-straight-line order, each with
    /// all of its candidate nodes sorted by id — what
    /// [`crate::replace::replace_all_occurrences`] visits, identical to
    /// [`crate::occurrences::DigramOccs::sites`] on a fresh rebuild.
    pub fn sites(&self, digram: &Digram) -> Sites {
        let Some(&d) = self.ids.get(digram) else { return Sites::new() };
        let entry = &self.entries[d as usize];
        let list = |nt: &NtId| &self.rules[nt.index()].lists[&d];
        let mut rules: Vec<NtId> = entry
            .rules
            .iter()
            .copied()
            .filter(|nt| entry.equal.is_none() || list(nt).accepted > 0)
            .collect();
        rules.sort_unstable_by_key(|nt| self.order_pos[nt.index()]);
        rules
            .into_iter()
            .map(|nt| {
                let slots = &self.rules[nt.index()].slots;
                let mut nodes: Vec<NodeId> = list(&nt)
                    .nodes
                    .iter()
                    .copied()
                    .filter(|node| entry.equal.is_none() || !slots[node.index()].transparent)
                    .collect();
                nodes.sort_unstable();
                (nt, nodes)
            })
            .collect()
    }

    /// Permanently bans a digram from selection (its replacement produced
    /// nothing; retrying would never terminate).
    pub fn exclude(&mut self, digram: &Digram) {
        let queued = match self.ids.get(digram) {
            Some(&d) => std::mem::take(&mut self.entries[d as usize].queued),
            None => 0,
        };
        self.queue.exclude(digram, queued);
    }

    /// Current anti-straight-line rule order (callees first, start rule last),
    /// identical to [`Grammar::anti_sl_order`] but derived from the maintained
    /// call graph without walking rule bodies.
    pub fn order(&self) -> &[NtId] {
        &self.order
    }

    /// Reference-site counts of every referenced rule, summed from the
    /// maintained call-graph multiplicities — the same numbers
    /// [`Grammar::ref_counts`] produces with a full body walk.
    pub fn ref_counts(&self) -> FxHashMap<NtId, u64> {
        let mut out: FxHashMap<NtId, u64> = FxHashMap::default();
        for &(callee, count) in self.callees.iter().flatten() {
            *out.entry(callee).or_insert(0) += count as u64;
        }
        out
    }

    /// Live grammar edge count, maintained arithmetically alongside the node
    /// states (mirrors [`Grammar::edge_count`] without the walk).
    pub fn edge_count(&self) -> usize {
        self.total_nodes - self.live.len()
    }

    /// Current usage-weighted occurrence count of a digram (0 if untracked).
    pub fn weight(&self, digram: &Digram) -> u64 {
        self.ids
            .get(digram)
            .map(|&d| clamp_weight(self.entries[d as usize].weight))
            .unwrap_or(0)
    }

    /// Number of digrams that currently have candidates.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no digram has candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chain resolutions (`TREEPARENT` + `TREECHILD` of one node) performed
    /// by all refreshes so far — a deterministic work counter.
    pub fn resolved_candidates(&self) -> usize {
        self.resolved_candidates
    }

    /// Rules, call edges and arena nodes visited by the flat global passes
    /// (change detection and order/usage over the rule array, preorder ranks
    /// of a rule's arena) of all refreshes so far.
    pub fn rank_pass_nodes(&self) -> usize {
        self.rank_pass_nodes
    }

    /// Arena nodes created (by inlining, replacement, fragment export and in
    /// new rules) since the index was built.
    pub fn created_nodes(&self) -> usize {
        self.created_nodes
    }

    /// Approximate heap footprint of the index in bytes (per-node slots,
    /// candidate lists, call graph, dependents, digram table) — for
    /// reporting only.
    pub fn heap_bytes(&self) -> usize {
        fn vec_bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        fn map_bytes<K, V, S>(m: &std::collections::HashMap<K, V, S>) -> usize {
            m.capacity() * (std::mem::size_of::<(K, V)>() + 1)
        }
        let per_rule = self.rules.iter().map(|state| {
            let lists = state.lists.values().map(|occs| vec_bytes(&occs.nodes));
            vec_bytes(&state.slots) + vec_bytes(&state.rank) + map_bytes(&state.lists)
                + lists.sum::<usize>()
        });
        let call_graph = self.callees.iter().map(vec_bytes).chain(self.callers.iter().map(vec_bytes));
        let ports = self.dependents.iter().flat_map(|d| d.params.iter().chain([&d.root]));
        per_rule.sum::<usize>()
            + call_graph.sum::<usize>()
            + ports.map(|port| vec_bytes(&port.through)).sum::<usize>()
            + vec_bytes(&self.rules)
            + vec_bytes(&self.dependents)
            + vec_bytes(&self.entries)
            + map_bytes(&self.ids)
    }

    /// Asserts the index agrees with a fresh [`retrieve_occs`] rebuild on the
    /// current grammar: same order, edge count and reference counts; for
    /// every digram the same clamped weight and the same replacement sites
    /// (generator rules in order *and* their candidate nodes). O(grammar) —
    /// the differential oracle of the test suites, never called by the
    /// recompression loop.
    pub fn assert_matches_rebuild(&self, g: &Grammar, frozen: &FrozenSet) {
        assert_eq!(self.order(), g.anti_sl_order().unwrap().as_slice(), "order");
        assert_eq!(self.edge_count(), g.edge_count(), "edge count");
        let walked: FxHashMap<NtId, u64> = g
            .ref_counts()
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .map(|(nt, c)| (nt, c as u64))
            .collect();
        assert_eq!(self.ref_counts(), walked, "call-graph reference counts");
        let oracle = retrieve_occs(g, frozen);
        for (digram, occs) in &oracle {
            assert_eq!(self.weight(digram), occs.weight, "weight mismatch for {digram:?}");
            assert_eq!(self.sites(digram), occs.sites(), "sites mismatch for {digram:?}");
        }
        // Entries the oracle does not list must carry weight 0.
        for (digram, &d) in &self.ids {
            if !oracle.contains_key(digram) {
                assert_eq!(self.entries[d as usize].weight, 0, "ghost entry {digram:?}");
            }
        }
    }
}

/// Sets a per-entry work-list flag and queues the entry once.
fn mark(flag: &mut bool, list: &mut Vec<DigramId>, d: DigramId) {
    if !*flag {
        *flag = true;
        list.push(d);
    }
}

/// Oracle-equivalent clamp: a sequence of saturating additions of
/// non-negative values equals the exact sum clamped to `u64::MAX`.
fn clamp_weight(weight: i128) -> u64 {
    weight.clamp(0, u64::MAX as i128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replace::{replace_all_occurrences, RefCounts};
    use sltgrammar::text::parse_grammar;
    use treerepair::digram::pattern_rhs;

    fn digram(g: &Grammar, parent: &str, index: usize, child: &str) -> Digram {
        Digram {
            parent: NodeKind::Term(g.symbols.get(parent).unwrap()),
            child_index: index,
            child: NodeKind::Term(g.symbols.get(child).unwrap()),
        }
    }

    #[test]
    fn initial_build_matches_retrieve_occs() {
        let g = parse_grammar(
            "S -> r(C, r(C, r(C, r(A(#,#), A(#,#)))))\n\
             C -> A(B(#),#)\n\
             A -> a(y1, a(B(#), a(#, y2)))\n\
             B -> b(y1,#)",
        )
        .unwrap();
        let frozen = FrozenSet::default();
        let index = OccIndex::build(&g, &frozen);
        index.assert_matches_rebuild(&g, &frozen);
        assert!(!index.is_empty());
        assert!(index.len() >= 4);
    }

    #[test]
    fn refresh_tracks_a_replacement_round() {
        let mut g = parse_grammar(
            "S -> f(a(b(#,#),#), f(a(b(#,#),#), a(b(#,#),#)))",
        )
        .unwrap();
        let mut frozen = FrozenSet::default();
        let mut index = OccIndex::build(&g, &frozen);
        index.assert_matches_rebuild(&g, &frozen);

        let d = digram(&g, "a", 0, "b");
        assert_eq!(index.weight(&d), 3);
        let sites = index.sites(&d);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1.len(), 3);
        let rank = d.pattern_rank(&g);
        let x = g.add_rule_fresh("X", rank, pattern_rhs(&g, &d));
        frozen.insert(x);
        let mut refs = RefCounts::from_counts(index.ref_counts());
        refs.add_rule_body(&g, x);
        let stats = replace_all_occurrences(&mut g, &d, x, &sites, &frozen, true, &mut refs);
        assert_eq!(stats.replacements, 3);
        assert!(refs.matches(&g));

        let resolved_before = index.resolved_candidates();
        index.refresh(&g, &frozen);
        index.assert_matches_rebuild(&g, &frozen);
        assert_eq!(index.weight(&d), 0, "replaced digram must vanish");
        // Three X nodes and their 3 × 3 children — not the 22 nodes of S.
        assert!(index.resolved_candidates() - resolved_before <= 12);
    }

    #[test]
    fn refresh_follows_chain_dependencies_into_changed_callees() {
        // The (a,1,b) occurrences in S resolve through B; splicing B's body
        // must re-resolve exactly the candidates whose walks entered it.
        let mut g = parse_grammar(
            "S -> f(a(B,#), a(B,#))\n\
             B -> b(c,#)",
        )
        .unwrap();
        let frozen = FrozenSet::default();
        let mut index = OccIndex::build(&g, &frozen);
        index.assert_matches_rebuild(&g, &frozen);

        // Replace B's root by a d-labelled copy of itself: every chain
        // through B now resolves differently.
        let b = g.nt_by_name("B").unwrap();
        let d_term = g.symbols.intern("d", 2).unwrap();
        let rhs = &mut g.rule_mut(b).rhs;
        let root = rhs.root();
        let children = rhs.children(root).to_vec();
        for &c in &children {
            rhs.detach(c);
        }
        let fresh = rhs.add_node(NodeKind::Term(d_term), children);
        rhs.replace_subtree(root, fresh);
        let resolved_before = index.resolved_candidates();
        index.refresh(&g, &frozen);
        index.assert_matches_rebuild(&g, &frozen);
        assert_eq!(index.weight(&digram(&g, "a", 0, "b")), 0);
        assert_eq!(index.weight(&digram(&g, "a", 0, "d")), 2);
        // B's two children plus the two dependents in S.
        assert_eq!(index.resolved_candidates() - resolved_before, 4);
    }

    #[test]
    fn equal_label_digrams_replay_the_canonical_overlap_resolution() {
        let g = parse_grammar("S -> a(#, a(#, A))\nA -> a(#, a(#, #))").unwrap();
        let frozen = FrozenSet::default();
        let index = OccIndex::build(&g, &frozen);
        index.assert_matches_rebuild(&g, &frozen);
        let a = NodeKind::Term(g.symbols.get("a").unwrap());
        let d = Digram {
            parent: a,
            child_index: 1,
            child: a,
        };
        // One occurrence in S, one in A (the crossing S→A pair is skipped).
        assert_eq!(index.weight(&d), 2);
        assert_eq!(index.sites(&d).len(), 2);
    }

    #[test]
    fn equal_label_counts_survive_foreign_tree_parents_coming_and_going() {
        // Both A arguments share the tree parent inside A (a foreign tree
        // parent: ordered replay), next to a purely local chain of three.
        let mut g = parse_grammar(
            "S -> r(A(a(#,#)), r(A(a(#,#)), a(a(a(#,#),#),#)))\n\
             A -> a(y1,#)",
        )
        .unwrap();
        let frozen = FrozenSet::default();
        let mut index = OccIndex::build(&g, &frozen);
        index.assert_matches_rebuild(&g, &frozen);
        let d = digram(&g, "a", 0, "a");
        // One of the two sharers plus one pair of the local chain.
        assert_eq!(index.weight(&d), 2);
        let sites = index.sites(&d);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1.len(), 4, "sites list candidates, not accepted occurrences");

        // Inlining both call sites makes every tree parent local again: the
        // digram falls back to chain counting, on the changed list only.
        let s = g.start();
        let calls: Vec<NodeId> = {
            let rhs = &g.rule(s).rhs;
            rhs.preorder().into_iter().filter(|&n| rhs.kind(n).is_nt()).collect()
        };
        for call in calls {
            g.inline_at(s, call);
        }
        let ranked_before = index.rank_pass_nodes();
        index.refresh(&g, &frozen);
        index.assert_matches_rebuild(&g, &frozen);
        assert_eq!(index.weight(&d), 3);
        // Change detection and the order pass visit the 2 live rules and
        // their call edges (none left) — no arena was ranked.
        assert_eq!(index.rank_pass_nodes() - ranked_before, 4);
    }

    #[test]
    fn excluded_digrams_never_come_back() {
        let g = parse_grammar("S -> f(a(b(#,#),#), a(b(#,#),#))").unwrap();
        let frozen = FrozenSet::default();
        let mut index = OccIndex::build(&g, &frozen);
        let d = digram(&g, "a", 0, "b");
        index.exclude(&d);
        assert_ne!(index.select_best(&g, 2, 4), Some(d));
        index.refresh(&g, &frozen);
        assert_ne!(index.select_best(&g, 2, 4), Some(d));
    }

    #[test]
    fn usage_shifts_propagate_as_weight_deltas() {
        // Deleting one reference to A halves usage(A); the weights of the
        // digrams generated inside A must follow without a rescan of A.
        let mut g = parse_grammar(
            "S -> f(A, A)\n\
             A -> g(a(b(#,#),#))",
        )
        .unwrap();
        let frozen = FrozenSet::default();
        let mut index = OccIndex::build(&g, &frozen);
        let d = digram(&g, "a", 0, "b");
        assert_eq!(index.weight(&d), 2);
        // Replace the second A reference in S by a null leaf.
        let s = g.start();
        let site = {
            let rhs = &g.rule(s).rhs;
            rhs.preorder()
                .into_iter()
                .filter(|&n| rhs.kind(n).is_nt())
                .nth(1)
                .unwrap()
        };
        let null = g.symbols.null();
        let rhs = &mut g.rule_mut(s).rhs;
        let leaf = rhs.add_leaf(NodeKind::Term(null));
        rhs.replace_subtree(site, leaf);
        let resolved_before = index.resolved_candidates();
        index.refresh(&g, &frozen);
        index.assert_matches_rebuild(&g, &frozen);
        assert_eq!(index.weight(&d), 1);
        assert_eq!(index.resolved_candidates() - resolved_before, 1, "only the fresh leaf");
    }
}
