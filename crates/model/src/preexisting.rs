//! The pre-existing server set `E ⊆ N` (§2.1 of the paper).
//!
//! Each pre-existing server carries its *original* operation mode, which the
//! mode-change costs `changedᵢᵢ'` and deletion costs `deleteᵢ` of Eq. 4 refer
//! to. For single-mode problems every entry uses mode 0.
//!
//! The paper's Experiment 3 does not state the original modes of its five
//! pre-existing servers; this type makes the choice explicit and
//! configurable (our experiments default to the highest mode, matching the
//! single-mode model where a pre-existing replica is a full-capacity server
//! — see `docs/ARCHITECTURE.md` at the repository root).
//!
//! The set is a sorted map, which is what its wire form and its
//! node-ordered iteration need. Solvers look servers up per node through
//! the dense index an [`Instance`](crate::Instance) builds from it
//! ([`Instance::pre_existing_mode`](crate::Instance::pre_existing_mode)).

use crate::error::ModelError;
use crate::modes::{ModeIdx, ModeSet};
use crate::placement::Placement;
use replica_tree::{NodeId, Tree};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Pre-existing servers with their original modes.
///
/// Lookups here walk a B-tree; an [`Instance`](crate::Instance) also keeps
/// a per-node index of the same set for the solvers' hot loops.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreExisting {
    entries: BTreeMap<NodeId, ModeIdx>,
}

impl PreExisting {
    /// The empty set (the `NoPre` problem variants).
    pub fn none() -> Self {
        PreExisting::default()
    }

    /// All listed nodes pre-exist at `mode`.
    pub fn at_mode<I: IntoIterator<Item = NodeId>>(nodes: I, mode: ModeIdx) -> Self {
        PreExisting {
            entries: nodes.into_iter().map(|n| (n, mode)).collect(),
        }
    }

    /// Explicit per-node original modes.
    pub fn from_map(entries: BTreeMap<NodeId, ModeIdx>) -> Self {
        PreExisting { entries }
    }

    /// Number of pre-existing servers `E = |E|`.
    #[inline]
    pub fn count(&self) -> usize {
        self.entries.len()
    }

    /// True if no server pre-exists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Original mode of `node` if it pre-exists.
    #[inline]
    pub fn mode_of(&self, node: NodeId) -> Option<ModeIdx> {
        self.entries.get(&node).copied()
    }

    /// True if `node` holds a pre-existing replica.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.contains_key(&node)
    }

    /// Iterator over `(node, original mode)` in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, ModeIdx)> + '_ {
        self.entries.iter().map(|(&n, &m)| (n, m))
    }

    /// The pre-existing nodes in order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.entries.keys().copied().collect()
    }

    /// Per-original-mode tally `Eᵢ` (length = mode count).
    pub fn count_by_mode(&self, modes: usize) -> Vec<u64> {
        let mut by_mode = vec![0u64; modes];
        for &m in self.entries.values() {
            by_mode[m] += 1;
        }
        by_mode
    }

    /// Checks that every entry names a real node and a real mode that a
    /// [`Placement`] can hold (at most [`Placement::MAX_MODE`]).
    pub fn validate(&self, tree: &Tree, modes: &ModeSet) -> Result<(), ModelError> {
        for (&node, &mode) in &self.entries {
            if node.index() >= tree.internal_count() {
                return Err(ModelError::InvalidPreExisting(format!(
                    "node {node} outside the tree"
                )));
            }
            if mode >= modes.count() {
                return Err(ModelError::InvalidPreExisting(format!(
                    "node {node} has unknown original mode index {mode}"
                )));
            }
            if mode > Placement::MAX_MODE {
                return Err(ModelError::InvalidPreExisting(format!(
                    "node {node} has original mode index {mode} past {}",
                    Placement::MAX_MODE
                )));
            }
        }
        Ok(())
    }

    /// The dense per-node index of this set over a tree of `nodes` internal
    /// nodes: entry `j` is node `j`'s original mode, `None` when it holds no
    /// pre-existing server. The set must have passed
    /// [`PreExisting::validate`] against that tree, which bounds every node
    /// and mode.
    pub(crate) fn mode_index(&self, nodes: usize) -> Vec<Option<u8>> {
        let mut index = vec![None; nodes];
        for (&node, &mode) in &self.entries {
            index[node.index()] = u8::try_from(mode).ok();
        }
        index
    }
}

impl FromIterator<(NodeId, ModeIdx)> for PreExisting {
    fn from_iter<I: IntoIterator<Item = (NodeId, ModeIdx)>>(iter: I) -> Self {
        PreExisting {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replica_tree::TreeBuilder;

    fn tree() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r);
        b.add_child(a);
        b.build().unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        let pre = PreExisting::at_mode([n1, n2], 1);
        assert_eq!(pre.count(), 2);
        assert!(pre.contains(n1));
        assert_eq!(pre.mode_of(n2), Some(1));
        assert_eq!(pre.mode_of(NodeId::from_index(0)), None);
        assert_eq!(pre.nodes(), vec![n1, n2]);
        assert_eq!(pre.count_by_mode(2), vec![0, 2]);
        assert!(PreExisting::none().is_empty());
    }

    #[test]
    fn validation() {
        let t = tree();
        let modes = ModeSet::new(vec![5, 10]).unwrap();
        let ok = PreExisting::at_mode([NodeId::from_index(1)], 1);
        assert!(ok.validate(&t, &modes).is_ok());
        let bad_node = PreExisting::at_mode([NodeId::from_index(9)], 0);
        assert!(bad_node.validate(&t, &modes).is_err());
        let bad_mode = PreExisting::at_mode([NodeId::from_index(1)], 7);
        assert!(bad_mode.validate(&t, &modes).is_err());

        // Modes up to Placement::MAX_MODE index; one past it is rejected.
        let many = ModeSet::new((1..=300).collect()).unwrap();
        let top = PreExisting::at_mode([NodeId::from_index(2)], Placement::MAX_MODE);
        assert!(top.validate(&t, &many).is_ok());
        assert_eq!(top.mode_index(3), vec![None, None, Some(u8::MAX)]);
        let past = PreExisting::at_mode([NodeId::from_index(2)], Placement::MAX_MODE + 1);
        assert!(past.validate(&t, &many).is_err());
    }

    #[test]
    fn from_iterator_and_serde() {
        let pre: PreExisting = [(NodeId::from_index(0), 0), (NodeId::from_index(2), 1)]
            .into_iter()
            .collect();
        let json = serde_json::to_string(&pre).unwrap();
        let back: PreExisting = serde_json::from_str(&json).unwrap();
        assert_eq!(back, pre);
    }
}
