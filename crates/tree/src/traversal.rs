//! Depths and per-subtree tallies.
//!
//! Every dynamic program in `replica-core` processes nodes bottom-up
//! (children strictly before parents), in the order
//! [`Tree::post_order`] caches at construction. [`SubtreeCounts`]
//! precomputes, for each node `j`, how many internal nodes / pre-existing
//! servers / requests live in `subtree_j` — these bounds are what keep the
//! DP tables small.

use crate::arena::Tree;
use crate::ids::NodeId;

/// Depth of every node (root = 0), indexed by node index.
pub fn depths(tree: &Tree) -> Vec<u32> {
    let mut depth = vec![0u32; tree.internal_count()];
    // Reversed post order visits every parent before its children.
    for &node in tree.post_order().iter().rev() {
        if let Some(p) = tree.parent(node) {
            depth[node.index()] = depth[p.index()] + 1;
        }
    }
    depth
}

/// Height of the tree: max depth over internal nodes (a single root has
/// height 0).
pub fn height(tree: &Tree) -> u32 {
    depths(tree).into_iter().max().unwrap_or(0)
}

/// Per-node subtree tallies.
///
/// All counts follow the paper's convention for `subtree_j`: they cover the
/// subtree rooted at `j` **excluding `j` itself** (DP tables at `j` count
/// servers strictly below `j`; whether `j` gets a replica is decided at its
/// parent). Inclusive variants are provided for callers that need them.
#[derive(Clone, Debug)]
pub struct SubtreeCounts {
    /// Internal nodes strictly below `j`.
    pub internal_below: Vec<u32>,
    /// Pre-existing servers strictly below `j` (only populated via
    /// [`SubtreeCounts::with_pre_existing`]).
    pub pre_existing_below: Vec<u32>,
    /// Total client requests in the subtree of `j`, **including** clients
    /// attached to `j` itself (requests attached to `j` do flow through `j`).
    pub requests_within: Vec<u64>,
}

impl SubtreeCounts {
    /// Computes tallies with an empty pre-existing set.
    pub fn new(tree: &Tree) -> Self {
        Self::with_pre_existing(tree, &[])
    }

    /// Computes tallies; `pre_existing` marks the servers already present in
    /// the tree (the set `E` of the paper).
    pub fn with_pre_existing(tree: &Tree, pre_existing: &[NodeId]) -> Self {
        let n = tree.internal_count();
        let mut is_pre = vec![false; n];
        for &e in pre_existing {
            is_pre[e.index()] = true;
        }
        let mut internal_below = vec![0u32; n];
        let mut pre_existing_below = vec![0u32; n];
        let mut requests_within = vec![0u64; n];
        for &node in tree.post_order() {
            let i = node.index();
            requests_within[i] = tree.client_load(node);
            for &c in tree.children(node) {
                let ci = c.index();
                internal_below[i] += internal_below[ci] + 1;
                pre_existing_below[i] += pre_existing_below[ci] + u32::from(is_pre[ci]);
                requests_within[i] += requests_within[ci];
            }
        }
        SubtreeCounts {
            internal_below,
            pre_existing_below,
            requests_within,
        }
    }

    /// Internal nodes in the subtree of `j`, including `j`.
    #[inline]
    pub fn internal_within(&self, node: NodeId) -> u32 {
        self.internal_below[node.index()] + 1
    }

    /// New-server slots strictly below `j` (internal nodes that are *not*
    /// pre-existing).
    #[inline]
    pub fn new_slots_below(&self, node: NodeId) -> u32 {
        self.internal_below[node.index()] - self.pre_existing_below[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    /// root ── a ── c
    ///      └─ b
    /// clients: c:5, b:2, root:1
    fn sample() -> (Tree, [NodeId; 4]) {
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        let b = bld.add_child(r);
        let c = bld.add_child(a);
        bld.add_client(c, 5);
        bld.add_client(b, 2);
        bld.add_client(r, 1);
        (bld.build().unwrap(), [r, a, b, c])
    }

    #[test]
    fn depths_and_height() {
        let (t, [r, a, b, c]) = sample();
        let d = depths(&t);
        assert_eq!(d[r.index()], 0);
        assert_eq!(d[a.index()], 1);
        assert_eq!(d[b.index()], 1);
        assert_eq!(d[c.index()], 2);
        assert_eq!(height(&t), 2);
    }

    #[test]
    fn subtree_counts_exclude_self() {
        let (t, [r, a, b, c]) = sample();
        let s = SubtreeCounts::with_pre_existing(&t, &[a, c]);
        assert_eq!(s.internal_below[r.index()], 3);
        assert_eq!(s.internal_below[a.index()], 1);
        assert_eq!(s.internal_below[c.index()], 0);
        assert_eq!(s.pre_existing_below[r.index()], 2);
        assert_eq!(s.pre_existing_below[a.index()], 1); // c below a
        assert_eq!(s.pre_existing_below[c.index()], 0);
        assert_eq!(s.requests_within[r.index()], 8);
        assert_eq!(s.requests_within[a.index()], 5);
        assert_eq!(s.requests_within[b.index()], 2);
        assert_eq!(s.internal_within(r), 4);
        assert_eq!(s.new_slots_below(r), 1); // b only
    }

    #[test]
    fn single_node_tree() {
        let t = TreeBuilder::new().build().unwrap();
        assert_eq!(t.post_order(), &[t.root()]);
        assert_eq!(height(&t), 0);
        let s = SubtreeCounts::new(&t);
        assert_eq!(s.internal_below[0], 0);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut b = TreeBuilder::new();
        let mut cur = b.root();
        for _ in 0..100_000 {
            cur = b.add_child(cur);
        }
        let t = b.build().unwrap();
        assert_eq!(t.post_order().len(), 100_001);
        assert_eq!(height(&t), 100_000);
    }
}
