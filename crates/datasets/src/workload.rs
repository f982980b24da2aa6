//! Random update workloads (paper Section V-C), with a locality knob.
//!
//! The paper evaluates sequences of random insert/delete operations (90 %
//! inserts, 10 % deletes) and sequences of random renames to fresh labels. The
//! generators below produce such sequences against an evolving document: every
//! generated operation is applied to an uncompressed reference copy so that the
//! next operation's target index is valid, mirroring how the paper derives its
//! workloads from the original documents.
//!
//! [`random_update_sequence`] additionally supports a **rename mix** and a
//! **locality knob**: with probability [`WorkloadMix::locality`] an
//! operation's target is drawn from the subtree of a periodically re-anchored
//! *cluster* element instead of the whole document. High-locality sequences
//! share long root-to-target path prefixes — the workload shape FLUX-style
//! functional update programs produce and the one batched path isolation
//! (`grammar_repair::update::apply_batch`) is built for. The legacy
//! generators ([`random_insert_delete_sequence`],
//! [`random_rename_sequence`]) keep their historical RNG streams so committed
//! bench baselines stay comparable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sltgrammar::{NodeId, NodeKind, RhsTree, SymbolTable};
use xmltree::binary::to_binary;
use xmltree::updates::{apply_update, UpdateOp};
use xmltree::{XmlNodeId, XmlTree};

/// Mix of operations in a generated workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadMix {
    /// Probability of an insert among the non-rename operations (the
    /// remainder are deletes).
    pub insert_probability: f64,
    /// Maximum number of elements in an inserted fragment.
    pub max_fragment_size: usize,
    /// Probability that an operation is a rename to a fresh label (honored by
    /// [`random_update_sequence`]; the paper's Figure-6 workload is 1.0).
    pub rename_probability: f64,
    /// Probability that an operation's target is drawn from the current
    /// locality cluster — the subtree of a periodically re-anchored element —
    /// instead of the whole document (honored by [`random_update_sequence`]).
    /// 0.0 yields uniform targets, values near 1.0 yield long shared
    /// root-to-target path prefixes.
    pub locality: f64,
    /// Re-anchor the locality cluster after this many operations.
    pub cluster_every: usize,
}

impl WorkloadMix {
    /// A high-locality mix dominated by renames and inserts: consecutive ops
    /// share most of their isolated path.
    pub fn clustered(locality: f64) -> Self {
        WorkloadMix {
            insert_probability: 0.95,
            rename_probability: 0.6,
            locality,
            cluster_every: 25,
            ..WorkloadMix::default()
        }
    }

    /// The paper's Section V-C mix — 90 % inserts / 10 % deletes, no renames —
    /// with a locality knob. `paper_mix(0.0)` equals [`WorkloadMix::default`];
    /// higher locality clusters the mixed stream the way a real write-heavy
    /// session does.
    pub fn paper_mix(locality: f64) -> Self {
        WorkloadMix {
            locality,
            ..WorkloadMix::default()
        }
    }
}

impl Default for WorkloadMix {
    fn default() -> Self {
        // The paper's mix: 90 % inserts, 10 % deletes, uniform targets.
        WorkloadMix {
            insert_probability: 0.9,
            max_fragment_size: 6,
            rename_probability: 0.0,
            locality: 0.0,
            cluster_every: 16,
        }
    }
}

/// Generates a sequence of `count` random insert/delete operations against
/// `xml`, 90 % inserts / 10 % deletes by default. Operations are valid when
/// applied in order starting from `xml`.
pub fn random_insert_delete_sequence(
    xml: &XmlTree,
    count: usize,
    seed: u64,
    mix: WorkloadMix,
) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = xml.labels();
    let mut symbols = SymbolTable::new();
    let mut reference = to_binary(xml, &mut symbols).expect("valid document");
    let mut ops = Vec::with_capacity(count);

    for _ in 0..count {
        let op = if rng.gen_bool(mix.insert_probability) {
            let target = random_node(&reference, &mut rng, |_, _| true);
            let fragment = random_fragment(&labels, &mut rng, mix.max_fragment_size);
            UpdateOp::InsertBefore { target, fragment }
        } else {
            // Delete a random non-root element; if none exists fall back to insert.
            match try_random_node(&reference, &mut rng, |bin, n| {
                n != bin.root()
                    && matches!(bin.kind(n), NodeKind::Term(t) if !symbols.is_null(t))
            }) {
                Some(target) => UpdateOp::Delete { target },
                None => {
                    let target = random_node(&reference, &mut rng, |_, _| true);
                    let fragment = random_fragment(&labels, &mut rng, mix.max_fragment_size);
                    UpdateOp::InsertBefore { target, fragment }
                }
            }
        };
        apply_update(&mut reference, &mut symbols, &op)
            .expect("generated operations are valid by construction");
        ops.push(op);
    }
    ops
}

/// Generates `count` random rename operations to fresh labels (the Figure 6
/// workload), valid when applied in order starting from `xml`.
pub fn random_rename_sequence(xml: &XmlTree, count: usize, seed: u64) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut symbols = SymbolTable::new();
    let mut reference = to_binary(xml, &mut symbols).expect("valid document");
    let mut ops = Vec::with_capacity(count);
    for k in 0..count {
        let target = random_node(&reference, &mut rng, |bin, n| {
            matches!(bin.kind(n), NodeKind::Term(t) if !symbols.is_null(t))
        });
        let op = UpdateOp::Rename {
            target,
            label: format!("fresh_label_{k}"),
        };
        apply_update(&mut reference, &mut symbols, &op)
            .expect("generated operations are valid by construction");
        ops.push(op);
    }
    ops
}

/// Generates `count` random operations honoring the full [`WorkloadMix`]:
/// rename probability, insert/delete split, and target locality. Operations
/// are valid when applied in order starting from `xml`.
///
/// With `locality > 0.0` the generator keeps a *cluster anchor* — a random
/// element of the evolving document, re-drawn every
/// [`WorkloadMix::cluster_every`] operations or when an update removes it —
/// and draws clustered targets from the anchor's subtree only.
pub fn random_update_sequence(
    xml: &XmlTree,
    count: usize,
    seed: u64,
    mix: WorkloadMix,
) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = xml.labels();
    let mut symbols = SymbolTable::new();
    let mut reference = to_binary(xml, &mut symbols).expect("valid document");
    let mut ops = Vec::with_capacity(count);
    let mut anchor: Option<NodeId> = None;

    for k in 0..count {
        if mix.locality > 0.0 {
            let stale = k % mix.cluster_every.max(1) == 0
                || !anchor.map(|a| is_attached(&reference, a)).unwrap_or(false);
            if stale {
                anchor = try_random_node(&reference, &mut rng, |bin, n| {
                    matches!(bin.kind(n), NodeKind::Term(t) if !symbols.is_null(t))
                })
                .map(|idx| reference.preorder()[idx]);
            }
        }
        let scope = if mix.locality > 0.0 && rng.gen_bool(mix.locality) {
            anchor.filter(|&a| is_attached(&reference, a))
        } else {
            None
        };

        let op = if mix.rename_probability > 0.0 && rng.gen_bool(mix.rename_probability) {
            let target = scoped_random_node(&reference, scope, &mut rng, |bin, n| {
                matches!(bin.kind(n), NodeKind::Term(t) if !symbols.is_null(t))
            })
            .expect("documents always contain at least one element");
            UpdateOp::Rename {
                target,
                label: format!("fresh_label_{k}"),
            }
        } else if rng.gen_bool(mix.insert_probability) {
            let target = scoped_random_node(&reference, scope, &mut rng, |_, _| true)
                .expect("documents always contain at least one node");
            let fragment = random_fragment(&labels, &mut rng, mix.max_fragment_size);
            UpdateOp::InsertBefore { target, fragment }
        } else {
            // Delete a random non-root element; fall back to an insert when
            // the scope holds none (e.g. the anchor is a leaf).
            match scoped_random_node(&reference, scope, &mut rng, |bin, n| {
                n != bin.root()
                    && n != scope.unwrap_or_else(|| bin.root())
                    && matches!(bin.kind(n), NodeKind::Term(t) if !symbols.is_null(t))
            }) {
                Some(target) => UpdateOp::Delete { target },
                None => {
                    let target = scoped_random_node(&reference, scope, &mut rng, |_, _| true)
                        .expect("documents always contain at least one node");
                    let fragment = random_fragment(&labels, &mut rng, mix.max_fragment_size);
                    UpdateOp::InsertBefore { target, fragment }
                }
            }
        };
        apply_update(&mut reference, &mut symbols, &op)
            .expect("generated operations are valid by construction");
        ops.push(op);
    }
    ops
}

/// Whether `node` is still part of the tree (updates detach removed subtrees,
/// clearing the parent link at the cut).
fn is_attached(bin: &RhsTree, node: NodeId) -> bool {
    let mut cur = node;
    loop {
        if cur == bin.root() {
            return true;
        }
        match bin.parent(cur) {
            Some(p) => cur = p,
            None => return false,
        }
    }
}

/// Random accepted preorder index, restricted to the subtree of `scope` when
/// given. Returns `None` if no node in scope is accepted.
fn scoped_random_node(
    bin: &RhsTree,
    scope: Option<NodeId>,
    rng: &mut StdRng,
    accept: impl Fn(&RhsTree, sltgrammar::NodeId) -> bool,
) -> Option<usize> {
    match scope {
        None => try_random_node(bin, rng, accept),
        Some(root) => {
            let in_scope: std::collections::HashSet<sltgrammar::NodeId> =
                bin.preorder_from(root).into_iter().collect();
            try_random_node(bin, rng, |bin, n| in_scope.contains(&n) && accept(bin, n))
        }
    }
}

fn try_random_node(
    bin: &RhsTree,
    rng: &mut StdRng,
    accept: impl Fn(&RhsTree, sltgrammar::NodeId) -> bool,
) -> Option<usize> {
    let pre = bin.preorder();
    let candidates: Vec<usize> = pre
        .iter()
        .enumerate()
        .filter(|(_, &n)| accept(bin, n))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.gen_range(0..candidates.len())])
}

fn random_node(
    bin: &RhsTree,
    rng: &mut StdRng,
    accept: impl Fn(&RhsTree, sltgrammar::NodeId) -> bool,
) -> usize {
    try_random_node(bin, rng, accept).expect("document always has at least one node")
}

/// Builds a small random element fragment using the document's own labels.
fn random_fragment(labels: &[String], rng: &mut StdRng, max_size: usize) -> XmlTree {
    let pick = |rng: &mut StdRng| labels[rng.gen_range(0..labels.len())].clone();
    let mut t = XmlTree::new(&pick(rng));
    let mut nodes: Vec<XmlNodeId> = vec![t.root()];
    let extra = rng.gen_range(0..max_size.max(1));
    for _ in 0..extra {
        let parent = nodes[rng.gen_range(0..nodes.len())];
        let child = t.add_child(parent, &pick(rng));
        nodes.push(child);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::binary::from_binary;

    fn doc() -> XmlTree {
        crate::regular::exi_weblog_like(30)
    }

    #[test]
    fn sequences_are_deterministic_and_have_the_right_mix() {
        let xml = doc();
        let a = random_insert_delete_sequence(&xml, 200, 11, WorkloadMix::default());
        let b = random_insert_delete_sequence(&xml, 200, 11, WorkloadMix::default());
        assert_eq!(a.len(), 200);
        let signature = |ops: &[UpdateOp]| {
            ops.iter()
                .map(|op| match op {
                    UpdateOp::InsertBefore { target, .. } => format!("i{target}"),
                    UpdateOp::Delete { target } => format!("d{target}"),
                    UpdateOp::Rename { target, .. } => format!("r{target}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(signature(&a), signature(&b));
        let inserts = a
            .iter()
            .filter(|op| matches!(op, UpdateOp::InsertBefore { .. }))
            .count();
        assert!(
            (150..=200).contains(&inserts),
            "expected roughly 90% inserts, got {inserts}/200"
        );
    }

    #[test]
    fn generated_sequences_apply_cleanly_to_the_reference_tree() {
        let xml = doc();
        let ops = random_insert_delete_sequence(&xml, 150, 3, WorkloadMix::default());
        let mut symbols = SymbolTable::new();
        let mut bin = to_binary(&xml, &mut symbols).unwrap();
        for op in &ops {
            apply_update(&mut bin, &mut symbols, op).unwrap();
        }
        // Still a well-formed document. (No assertion on net growth: deletes
        // remove whole subtrees, so the size balance of a particular sequence
        // is RNG-stream luck, not a property of the generator.)
        let back = from_binary(&bin, &symbols).unwrap();
        assert!(back.node_count() >= 1);
        let inserts = ops
            .iter()
            .filter(|op| matches!(op, UpdateOp::InsertBefore { .. }))
            .count();
        assert!(
            inserts > ops.len() / 2,
            "inserts must dominate the default 90% mix, got {inserts}/{}",
            ops.len()
        );
    }

    #[test]
    fn mixed_sequences_are_deterministic_and_honor_the_rename_mix() {
        let xml = doc();
        let mix = WorkloadMix {
            rename_probability: 0.5,
            locality: 0.8,
            ..WorkloadMix::default()
        };
        let a = random_update_sequence(&xml, 200, 9, mix);
        let b = random_update_sequence(&xml, 200, 9, mix);
        let signature = |ops: &[UpdateOp]| {
            ops.iter()
                .map(|op| format!("{:?}:{}", std::mem::discriminant(op), op.target()))
                .collect::<Vec<_>>()
        };
        assert_eq!(signature(&a), signature(&b));
        let renames = a
            .iter()
            .filter(|op| matches!(op, UpdateOp::Rename { .. }))
            .count();
        assert!(
            (60..=140).contains(&renames),
            "expected roughly half renames, got {renames}/200"
        );
        // The sequence applies cleanly to a fresh reference copy.
        let mut symbols = SymbolTable::new();
        let mut bin = to_binary(&xml, &mut symbols).unwrap();
        for op in &a {
            apply_update(&mut bin, &mut symbols, op).unwrap();
        }
    }

    #[test]
    fn high_locality_sequences_cluster_their_targets() {
        // With a sticky cluster, consecutive targets inside one anchor period
        // must be much closer to each other than uniform targets are.
        let xml = crate::regular::exi_weblog_like(120);
        let spread = |ops: &[UpdateOp]| {
            let gaps: Vec<i64> = ops
                .windows(2)
                .map(|w| (w[1].target() as i64 - w[0].target() as i64).abs())
                .collect();
            let mut sorted = gaps.clone();
            sorted.sort_unstable();
            sorted[sorted.len() / 2]
        };
        let local = random_update_sequence(
            &xml,
            150,
            3,
            WorkloadMix {
                rename_probability: 1.0,
                locality: 0.95,
                cluster_every: 30,
                ..WorkloadMix::default()
            },
        );
        let uniform = random_update_sequence(
            &xml,
            150,
            3,
            WorkloadMix {
                rename_probability: 1.0,
                locality: 0.0,
                ..WorkloadMix::default()
            },
        );
        assert!(
            spread(&local) * 4 < spread(&uniform),
            "local median gap {} should be far below uniform {}",
            spread(&local),
            spread(&uniform)
        );
    }

    #[test]
    fn zero_locality_update_sequences_match_the_paper_mix() {
        let xml = doc();
        let ops = random_update_sequence(&xml, 200, 17, WorkloadMix::default());
        let inserts = ops
            .iter()
            .filter(|op| matches!(op, UpdateOp::InsertBefore { .. }))
            .count();
        assert!(
            (150..=200).contains(&inserts),
            "expected roughly 90% inserts, got {inserts}/200"
        );
        assert!(ops.iter().all(|op| !matches!(op, UpdateOp::Rename { .. })));
    }

    #[test]
    fn rename_sequences_only_touch_elements() {
        let xml = doc();
        let ops = random_rename_sequence(&xml, 50, 5);
        assert_eq!(ops.len(), 50);
        let mut symbols = SymbolTable::new();
        let mut bin = to_binary(&xml, &mut symbols).unwrap();
        for op in &ops {
            assert!(matches!(op, UpdateOp::Rename { .. }));
            apply_update(&mut bin, &mut symbols, op).unwrap();
        }
        // Renames to fresh labels never change the node count.
        assert_eq!(bin.node_count(), 2 * xml.node_count() + 1);
    }
}
