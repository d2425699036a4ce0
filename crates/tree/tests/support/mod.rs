//! Test-side reference for the packed [`Tree`]: a post order written
//! recursively, independent of the order the tree caches.

use replica_tree::{NodeId, Tree};

/// Every node after its children's subtrees, children left to right, the
/// root last.
pub fn recursive_post_order(tree: &Tree) -> Vec<NodeId> {
    fn visit(tree: &Tree, node: NodeId, out: &mut Vec<NodeId>) {
        for &c in tree.children(node) {
            visit(tree, c, out);
        }
        out.push(node);
    }
    let mut out = Vec::with_capacity(tree.internal_count());
    visit(tree, tree.root(), &mut out);
    out
}
