//! Flat post-order tree layout — the solver hot-path substrate.
//!
//! [`FlatTree`] re-indexes a [`Tree`] by **post-order position**: node at
//! position `p` appears after every node in its subtree, and the subtree of
//! `p` is the *contiguous* range `first(p) ..= p`. Children, clients and
//! aggregated client demand of every node are packed into shared flat arrays
//! with per-position offset windows, so a bottom-up dynamic program is a
//! single forward scan `for p in 0..len()` whose per-position tables and
//! subtrees sit next to each other. The [`Tree`] itself is packed too, but
//! indexed by node id; this layout adds the position order, contiguous
//! subtrees and a demand snapshot that [`FlatTree::refresh_demand`] keeps
//! current.
//!
//! ## Invariants
//!
//! The layout order is **exactly** [`Tree::post_order`] (the left-to-right
//! post-order the tree caches at construction), which pins these
//! properties:
//!
//! ```text
//! positions:   0 1 2 ... n-1          (root is always n-1)
//! subtree(p):  [first(p) ..= p]       contiguous, nested or disjoint
//! children(p): ascending positions,   last child at some q < p, and the
//!              left-to-right child     windows of the children partition
//!              order of the Tree       [first(p) ..= p-1]
//! ```
//!
//! Subtree = contiguous range is what makes *incremental* re-solves cheap:
//! when only one subtree's demand changes, the affected DP slice is
//! `first(p)..=p` and everything outside it can be reused verbatim.
//!
//! A `FlatTree` snapshots client demand at build time ([`FlatTree::rebuild`]
//! is allocation-free on reuse, so per-solve refresh is cheap).
//!
//! ```
//! use replica_tree::{FlatTree, TreeBuilder};
//!
//! let mut b = TreeBuilder::new();
//! let root = b.root();
//! let a = b.add_child(root);
//! let c = b.add_child(a);
//! b.add_client(c, 5);
//! b.add_client(root, 1);
//! let tree = b.build().unwrap();
//!
//! let flat = FlatTree::new(&tree);
//! let rp = flat.root_position();
//! assert_eq!(rp, flat.len() - 1);                 // root is last
//! assert_eq!(flat.subtree_range(rp), 0..flat.len()); // whole tree
//! assert_eq!(flat.subtree_load(rp), 6);           // 5 + 1
//! let cp = flat.position_of(c);
//! assert_eq!(flat.subtree_range(cp), cp..cp + 1); // leaf: itself only
//! assert_eq!(flat.client_load(cp), 5);
//! assert_eq!(flat.node_at(flat.position_of(a)), a);
//! ```

use crate::arena::Tree;
use crate::ids::{ClientId, NodeId};

/// Dense post-order layout of a [`Tree`] (see the [module docs](self)).
///
/// All per-node data is indexed by **post-order position** (`usize` in
/// `0..len()`), not by [`NodeId`]; [`FlatTree::position_of`] /
/// [`FlatTree::node_at`] convert between the two.
#[derive(Clone, Debug, Default)]
pub struct FlatTree {
    /// `order[p]` = node at post-order position `p`.
    order: Vec<NodeId>,
    /// `post[node.index()]` = post-order position of `node`.
    post: Vec<u32>,
    /// `first[p]` = first position of `p`'s subtree (subtree = `first[p]..=p`).
    first: Vec<u32>,
    /// `parent[p]` = parent position (`u32::MAX` for the root).
    parent: Vec<u32>,
    /// Per-position child windows into `children`: `children_off[p]..children_off[p+1]`.
    children_off: Vec<u32>,
    /// Children as post-order positions, ascending within each window.
    children: Vec<u32>,
    /// Per-position client windows into `clients`: `client_off[p]..client_off[p+1]`.
    client_off: Vec<u32>,
    /// Clients grouped by owning position.
    clients: Vec<ClientId>,
    /// Direct client demand per position (the paper's `client(j)`).
    client_load: Vec<u64>,
    /// Aggregated demand of the whole subtree, including the node itself.
    subtree_load: Vec<u64>,
}

impl FlatTree {
    /// Builds the layout for `tree`.
    pub fn new(tree: &Tree) -> Self {
        let mut flat = FlatTree::default();
        flat.rebuild(tree);
        flat
    }

    /// Recomputes the layout for `tree`, reusing this value's allocations.
    ///
    /// Demand is re-snapshotted from the tree's current client requests, so
    /// call this after [`Tree::set_requests`] updates. O(N + C), no
    /// allocation once the buffers have grown to the tree's size.
    pub fn rebuild(&mut self, tree: &Tree) {
        let n = tree.internal_count();
        // The tree's own post order: solvers iterating `FlatTree` positions
        // visit nodes in exactly the order the tree-walking solvers did.
        self.order.clear();
        self.order.extend_from_slice(tree.post_order());

        self.post.clear();
        self.post.resize(n, 0);
        for (p, node) in self.order.iter().enumerate() {
            self.post[node.index()] = p as u32;
        }

        self.parent.clear();
        self.children_off.clear();
        self.children.clear();
        self.client_off.clear();
        self.clients.clear();
        self.client_load.clear();
        self.first.clear();
        self.subtree_load.clear();

        for (p, &node) in self.order.iter().enumerate() {
            self.children_off.push(self.children.len() as u32);
            self.client_off.push(self.clients.len() as u32);
            self.parent.push(match tree.parent(node) {
                Some(par) => self.post[par.index()],
                None => u32::MAX,
            });
            // Child positions in the tree's left-to-right order; post-order
            // makes them ascending, with the leftmost child's subtree first.
            let mut first = p as u32;
            let load = tree.client_load(node);
            let mut agg = load;
            let mut prev_child: Option<u32> = None;
            for &c in tree.children(node) {
                let cp = self.post[c.index()];
                debug_assert!(
                    prev_child.is_none_or(|prev| prev < cp) && cp < p as u32,
                    "child positions ascend and precede the parent"
                );
                prev_child = Some(cp);
                self.children.push(cp);
                first = first.min(self.first[cp as usize]);
                agg += self.subtree_load[cp as usize];
            }
            self.clients.extend_from_slice(tree.clients_of(node));
            self.first.push(first);
            self.client_load.push(load);
            self.subtree_load.push(agg);
        }
        self.children_off.push(self.children.len() as u32);
        self.client_off.push(self.clients.len() as u32);
    }

    /// Number of internal nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the layout has not been built (a [`Tree`] always has a root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The root's position — always `len() - 1` in post order.
    #[inline]
    pub fn root_position(&self) -> usize {
        self.order.len() - 1
    }

    /// Node at position `p`.
    #[inline]
    pub fn node_at(&self, p: usize) -> NodeId {
        self.order[p]
    }

    /// Position of `node`.
    #[inline]
    pub fn position_of(&self, node: NodeId) -> usize {
        self.post[node.index()] as usize
    }

    /// Parent position of `p`, or `None` for the root.
    #[inline]
    pub fn parent_position(&self, p: usize) -> Option<usize> {
        match self.parent[p] {
            u32::MAX => None,
            q => Some(q as usize),
        }
    }

    /// Child positions of `p`, ascending (= the tree's left-to-right order).
    #[inline]
    pub fn children(&self, p: usize) -> &[u32] {
        &self.children[self.children_off[p] as usize..self.children_off[p + 1] as usize]
    }

    /// Clients attached directly to the node at `p`.
    #[inline]
    pub fn clients(&self, p: usize) -> &[ClientId] {
        &self.clients[self.client_off[p] as usize..self.client_off[p + 1] as usize]
    }

    /// Direct client demand of the node at `p` (snapshot of
    /// [`Tree::client_load`] at build time).
    #[inline]
    pub fn client_load(&self, p: usize) -> u64 {
        self.client_load[p]
    }

    /// Aggregated demand of the subtree rooted at `p`, including `p` itself.
    #[inline]
    pub fn subtree_load(&self, p: usize) -> u64 {
        self.subtree_load[p]
    }

    /// The contiguous position range of `p`'s subtree (inclusive of `p`,
    /// which is the last element).
    #[inline]
    pub fn subtree_range(&self, p: usize) -> std::ops::Range<usize> {
        self.first[p] as usize..p + 1
    }

    /// Number of nodes in `p`'s subtree, including `p`.
    #[inline]
    pub fn subtree_size(&self, p: usize) -> usize {
        p + 1 - self.first[p] as usize
    }

    /// All positions, bottom-up (children strictly before parents).
    #[inline]
    pub fn positions(&self) -> std::ops::Range<usize> {
        0..self.order.len()
    }

    /// Re-snapshots the direct client demand of `node` from `tree` and
    /// propagates the (exact, integer) difference into the aggregated
    /// subtree loads along the root path. Returns whether anything
    /// changed.
    ///
    /// This is the incremental counterpart of [`FlatTree::rebuild`]: after
    /// [`Tree::set_requests`] updates to clients of `node`, calling this is
    /// equivalent — bit for bit, since all loads are `u64` sums — to a full
    /// rebuild, at O(depth) instead of O(N + C). Topology must be the tree
    /// this layout was built from (positions never move; only demand does).
    pub fn refresh_demand(&mut self, tree: &Tree, node: NodeId) -> bool {
        let p = self.position_of(node);
        let load = tree.client_load(node);
        let old = self.client_load[p];
        if load == old {
            return false;
        }
        self.client_load[p] = load;
        // u64 subtree sums are exact, so adding the signed difference along
        // the root path reproduces what a full rebuild would recompute.
        let delta = load as i128 - old as i128;
        let mut q = p;
        loop {
            self.subtree_load[q] = (self.subtree_load[q] as i128 + delta) as u64;
            match self.parent_position(q) {
                Some(parent) => q = parent,
                None => break,
            }
        }
        true
    }
}

/// A mark-and-sweep dirty-position set over a [`FlatTree`].
///
/// Incremental solvers mark the positions whose inputs changed (typically
/// via [`DirtySet::mark_node`] after a demand update) and then
/// [`DirtySet::sweep`] once per epoch: the sweep closes the marked set
/// under the parent relation — a node's DP state depends on its children's,
/// so every ancestor of a dirty position must be recomputed too — and
/// returns the closure in **ascending position order**, which in post order
/// is exactly bottom-up recompute order (children before parents).
///
/// Marking is idempotent and O(1); the sweep is O(closure · log closure)
/// and leaves the set empty for the next epoch.
///
/// ```
/// use replica_tree::{DirtySet, FlatTree, TreeBuilder};
///
/// let mut b = TreeBuilder::new();
/// let root = b.root();
/// let a = b.add_child(root);
/// let c = b.add_child(a);
/// b.add_client(c, 5);
/// let tree = b.build().unwrap();
/// let flat = FlatTree::new(&tree);
///
/// let mut dirty = DirtySet::with_len(flat.len());
/// dirty.mark_node(&flat, c);
/// let mut out = Vec::new();
/// dirty.sweep(&flat, &mut out);
/// // The closure is c plus its ancestors, bottom-up.
/// assert_eq!(out, vec![flat.position_of(c), flat.position_of(a),
///                      flat.position_of(root)]);
/// assert!(dirty.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DirtySet {
    /// `flags[p]`: `p` is marked (or already collected during a sweep).
    flags: Vec<bool>,
    /// Marked positions, unordered, deduplicated via `flags`.
    marked: Vec<usize>,
}

impl DirtySet {
    /// An empty set sized for a layout of `len` positions.
    pub fn with_len(len: usize) -> Self {
        DirtySet {
            flags: vec![false; len],
            marked: Vec::new(),
        }
    }

    /// Resizes for a layout of `len` positions, clearing all marks.
    pub fn reset(&mut self, len: usize) {
        self.flags.clear();
        self.flags.resize(len, false);
        self.marked.clear();
    }

    /// Marks position `p` dirty (idempotent).
    pub fn mark(&mut self, p: usize) {
        if !self.flags[p] {
            self.flags[p] = true;
            self.marked.push(p);
        }
    }

    /// Marks the position of `node` in `flat` dirty.
    pub fn mark_node(&mut self, flat: &FlatTree, node: NodeId) {
        self.mark(flat.position_of(node));
    }

    /// Number of positions marked since the last sweep (before ancestor
    /// closure).
    pub fn marked_len(&self) -> usize {
        self.marked.len()
    }

    /// Whether nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.marked.is_empty()
    }

    /// Sweeps the set: fills `out` with the marked positions closed under
    /// the parent relation of `flat`, sorted ascending (= bottom-up in post
    /// order), and clears every mark.
    pub fn sweep(&mut self, flat: &FlatTree, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.marked);
        // Close under ancestors: appended parents are processed in turn
        // (a parent position is always greater than its child's, so the
        // walk terminates at the root).
        let mut i = 0;
        while i < out.len() {
            if let Some(parent) = flat.parent_position(out[i]) {
                if !self.flags[parent] {
                    self.flags[parent] = true;
                    out.push(parent);
                }
            }
            i += 1;
        }
        out.sort_unstable();
        for &p in out.iter() {
            self.flags[p] = false;
        }
        self.marked.clear();
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
    fn order_matches_tree_post_order() {
        let (t, _) = sample();
        let flat = FlatTree::new(&t);
        let got: Vec<_> = flat.positions().map(|p| flat.node_at(p)).collect();
        assert_eq!(got, t.post_order());
    }

    #[test]
    fn subtree_ranges_and_windows() {
        let (t, [r, a, b, c]) = sample();
        let flat = FlatTree::new(&t);
        let (rp, ap, bp, cp) = (
            flat.position_of(r),
            flat.position_of(a),
            flat.position_of(b),
            flat.position_of(c),
        );
        // post order: c, a, b, r
        assert_eq!((cp, ap, bp, rp), (0, 1, 2, 3));
        assert_eq!(flat.root_position(), rp);
        assert_eq!(flat.subtree_range(rp), 0..4);
        assert_eq!(flat.subtree_range(ap), 0..2);
        assert_eq!(flat.subtree_range(bp), 2..3);
        assert_eq!(flat.subtree_size(ap), 2);
        assert_eq!(flat.children(rp), &[ap as u32, bp as u32]);
        assert_eq!(flat.children(cp), &[] as &[u32]);
        assert_eq!(flat.parent_position(rp), None);
        assert_eq!(flat.parent_position(cp), Some(ap));
        assert_eq!(flat.clients(cp), t.clients_of(c));
        assert_eq!(flat.client_load(rp), 1);
        assert_eq!(flat.subtree_load(rp), 8);
        assert_eq!(flat.subtree_load(ap), 5);
        assert_eq!(flat.subtree_load(bp), 2);
    }

    #[test]
    fn rebuild_reuses_and_resnapshots() {
        let (t, _) = sample();
        let mut flat = FlatTree::new(&t);

        let mut b2 = TreeBuilder::new();
        let r2 = b2.root();
        let x = b2.add_child(r2);
        let k = b2.add_client(x, 7);
        let mut t2 = b2.build().unwrap();
        flat.rebuild(&t2);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.subtree_load(flat.root_position()), 7);

        t2.set_requests(k, 11);
        flat.rebuild(&t2);
        assert_eq!(flat.subtree_load(flat.root_position()), 11);
    }

    #[test]
    fn refresh_demand_matches_full_rebuild() {
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        let b = bld.add_child(r);
        let c = bld.add_child(a);
        let kc = bld.add_client(c, 5);
        let kb = bld.add_client(b, 2);
        bld.add_client(r, 1);
        let mut tree = bld.build().unwrap();
        let mut flat = FlatTree::new(&tree);

        // Raise c's demand: c and its ancestors change, b is untouched.
        tree.set_requests(kc, 9);
        assert!(flat.refresh_demand(&tree, c));
        let reference = FlatTree::new(&tree);
        for p in flat.positions() {
            assert_eq!(flat.client_load(p), reference.client_load(p));
            assert_eq!(flat.subtree_load(p), reference.subtree_load(p));
        }

        // Lower b's demand to zero (a signed delta downward).
        tree.set_requests(kb, 0);
        assert!(flat.refresh_demand(&tree, b));
        let reference = FlatTree::new(&tree);
        for p in flat.positions() {
            assert_eq!(flat.subtree_load(p), reference.subtree_load(p));
        }

        // No-op refresh reports no change.
        assert!(!flat.refresh_demand(&tree, b));
        assert!(!flat.refresh_demand(&tree, r));
    }

    #[test]
    fn dirty_set_sweeps_ancestor_closure_bottom_up() {
        let (t, [r, a, b, c]) = sample();
        let flat = FlatTree::new(&t);
        let mut dirty = DirtySet::with_len(flat.len());
        assert!(dirty.is_empty());

        // Marking is idempotent; sweep closes under parents, ascending.
        dirty.mark_node(&flat, c);
        dirty.mark_node(&flat, c);
        dirty.mark_node(&flat, b);
        assert_eq!(dirty.marked_len(), 2);
        let mut out = Vec::new();
        dirty.sweep(&flat, &mut out);
        let expected = {
            let mut v = vec![
                flat.position_of(c),
                flat.position_of(a),
                flat.position_of(b),
                flat.position_of(r),
            ];
            v.sort_unstable();
            v
        };
        assert_eq!(out, expected);
        assert!(dirty.is_empty());

        // The sweep cleared every flag: the same marks work again.
        dirty.mark_node(&flat, a);
        dirty.sweep(&flat, &mut out);
        assert_eq!(out, vec![flat.position_of(a), flat.position_of(r)]);

        // Root alone closes to just the root.
        dirty.mark_node(&flat, r);
        dirty.sweep(&flat, &mut out);
        assert_eq!(out, vec![flat.position_of(r)]);

        // reset resizes and clears.
        dirty.mark(0);
        dirty.reset(flat.len());
        assert!(dirty.is_empty());
        dirty.sweep(&flat, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut b = TreeBuilder::new();
        let mut cur = b.root();
        for _ in 0..100_000 {
            cur = b.add_child(cur);
        }
        b.add_client(cur, 3);
        let t = b.build().unwrap();
        let flat = FlatTree::new(&t);
        assert_eq!(flat.len(), 100_001);
        assert_eq!(flat.subtree_load(flat.root_position()), 3);
        assert_eq!(flat.subtree_range(flat.root_position()).len(), 100_001);
    }
}
