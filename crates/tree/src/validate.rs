//! Structural validation of [`Tree`]s.
//!
//! Trees produced by [`TreeBuilder`](crate::TreeBuilder) are valid by
//! construction, but trees can also arrive through deserialization; both
//! paths funnel through [`validate`] so that every algorithm downstream can
//! assume a well-formed tree. Validation reads the packed form, so a
//! deserialized tree is checked after its lists are packed and before
//! anything derived from them (demand, post order) is computed.

use crate::arena::Tree;
use crate::ids::NodeId;
use std::fmt;

/// Structural defects detected by [`validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The arena holds no nodes at all.
    Empty,
    /// Node 0 (the root) has a parent pointer.
    RootHasParent,
    /// A non-root node has no parent pointer.
    OrphanNode(NodeId),
    /// `child`'s parent pointer and `parent`'s child list disagree.
    LinkMismatch { parent: NodeId, child: NodeId },
    /// A node or client handle points outside the arena.
    DanglingHandle(String),
    /// Parent pointers contain a cycle or a node unreachable from the root.
    NotATree(NodeId),
    /// A client's attach pointer and the node's client list disagree.
    ClientLinkMismatch(String),
    /// The client volumes sum past `u64::MAX`, so per-node and subtree
    /// demand sums would wrap.
    DemandOverflow,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "tree has no nodes"),
            TreeError::RootHasParent => write!(f, "root node has a parent pointer"),
            TreeError::OrphanNode(n) => write!(f, "non-root node {n} has no parent"),
            TreeError::LinkMismatch { parent, child } => {
                write!(
                    f,
                    "parent/child links disagree between {parent} and {child}"
                )
            }
            TreeError::DanglingHandle(what) => write!(f, "dangling handle: {what}"),
            TreeError::NotATree(n) => {
                write!(
                    f,
                    "node {n} is unreachable from the root or lies on a cycle"
                )
            }
            TreeError::ClientLinkMismatch(what) => write!(f, "client link mismatch: {what}"),
            TreeError::DemandOverflow => {
                write!(f, "total client demand exceeds {}", u64::MAX)
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Checks tree consistency: single root, mutual parent/child links, client
/// links (each client listed once, under the node it attaches to), global
/// reachability (connected + acyclic), and a total client demand that fits
/// a `u64` — every per-node and subtree demand sum is at most that total,
/// so none of them can wrap.
pub fn validate(tree: &Tree) -> Result<(), TreeError> {
    check(tree, &mut Vec::new()).map(drop)
}

/// [`validate`], returning the total client demand. `visit` receives the
/// reachability walk's visit order: children pushed left to right onto a
/// stack, so reversed it is the tree's post order.
///
/// Reads only the packed topology and the client records, and checks every
/// handle before dereferencing it, so it never panics on packed wire input.
pub(crate) fn check(tree: &Tree, visit: &mut Vec<NodeId>) -> Result<u64, TreeError> {
    let n = tree.parent.len();
    if n == 0 {
        return Err(TreeError::Empty);
    }
    if tree.parent[0].is_some() {
        return Err(TreeError::RootHasParent);
    }

    for (idx, &parent) in tree.parent.iter().enumerate() {
        let id = NodeId::from_index(idx);
        if idx != 0 {
            match parent {
                None => return Err(TreeError::OrphanNode(id)),
                Some(p) if p.index() >= n => {
                    return Err(TreeError::DanglingHandle(format!("parent of {id}")))
                }
                Some(p) => {
                    if !tree.children(p).contains(&id) {
                        return Err(TreeError::LinkMismatch {
                            parent: p,
                            child: id,
                        });
                    }
                }
            }
        }
        for &c in tree.children(id) {
            if c.index() >= n {
                return Err(TreeError::DanglingHandle(format!("child of {id}")));
            }
            if tree.parent[c.index()] != Some(id) {
                return Err(TreeError::LinkMismatch {
                    parent: id,
                    child: c,
                });
            }
        }
        for &cl in tree.clients_of(id) {
            match tree.clients.get(cl.index()) {
                None => return Err(TreeError::DanglingHandle(format!("client of {id}"))),
                Some(client) if client.attach != id => {
                    return Err(TreeError::ClientLinkMismatch(format!(
                        "client {cl} listed under {id} but attached to {}",
                        client.attach
                    )))
                }
                Some(_) => {}
            }
        }
    }

    let mut demand = 0u64;
    for (idx, client) in tree.clients.iter().enumerate() {
        demand = demand
            .checked_add(client.requests)
            .ok_or(TreeError::DemandOverflow)?;
        if client.attach.index() >= n {
            return Err(TreeError::DanglingHandle(format!("attach of client {idx}")));
        }
        let cl = crate::ids::ClientId::from_index(idx);
        if !tree.clients_of(client.attach).contains(&cl) {
            return Err(TreeError::ClientLinkMismatch(format!(
                "client {cl} attached to {} but not listed there",
                client.attach
            )));
        }
    }
    // Every client is listed under its node and every listing names a
    // client attached there, so a surplus listing is a client listed twice
    // (which would count its demand twice).
    if tree.node_clients.len() != tree.clients.len() {
        let mut listed = vec![false; tree.clients.len()];
        for id in (0..n).map(NodeId::from_index) {
            for &cl in tree.clients_of(id) {
                if std::mem::replace(&mut listed[cl.index()], true) {
                    return Err(TreeError::ClientLinkMismatch(format!(
                        "client {cl} listed twice under {id}"
                    )));
                }
            }
        }
    }

    // Reachability from the root: counts double as a cycle check because the
    // parent/child links were verified mutual above.
    let mut seen = vec![false; n];
    let mut stack = vec![tree.root()];
    visit.clear();
    visit.reserve(n);
    while let Some(node) = stack.pop() {
        if seen[node.index()] {
            return Err(TreeError::NotATree(node));
        }
        seen[node.index()] = true;
        visit.push(node);
        stack.extend_from_slice(tree.children(node));
    }
    if visit.len() != n {
        let missing = seen.iter().position(|&s| !s).expect("some node unseen");
        return Err(TreeError::NotATree(NodeId::from_index(missing)));
    }
    Ok(demand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{Client, NodeData};
    use crate::TreeBuilder;

    fn valid_tree() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r);
        b.add_child(a);
        b.add_client(a, 3);
        b.build().unwrap()
    }

    /// The wire lists of [`valid_tree`], for a test to corrupt.
    fn raw() -> (Vec<NodeData>, Vec<Client>) {
        let t = valid_tree();
        (t.wire_nodes().collect(), t.clients.clone())
    }

    /// Packs corrupted wire lists without validating them.
    fn packed(nodes: Vec<NodeData>, clients: Vec<Client>) -> Tree {
        Tree::pack_wire(nodes, clients).unwrap()
    }

    #[test]
    fn builder_trees_validate() {
        assert!(validate(&valid_tree()).is_ok());
        let (nodes, clients) = raw();
        assert!(validate(&packed(nodes, clients)).is_ok());
    }

    #[test]
    fn detects_root_with_parent() {
        let (mut nodes, clients) = raw();
        nodes[0].parent = Some(NodeId::from_index(1));
        let t = packed(nodes, clients);
        assert_eq!(validate(&t), Err(TreeError::RootHasParent));
    }

    #[test]
    fn detects_orphan() {
        // Clearing a parent pointer trips either the orphan check or the
        // mutual-link check, depending on which node is scanned first.
        let (mut nodes, clients) = raw();
        nodes[2].parent = None;
        let t = packed(nodes, clients);
        assert!(matches!(
            validate(&t),
            Err(TreeError::OrphanNode(_)) | Err(TreeError::LinkMismatch { .. })
        ));
    }

    #[test]
    fn detects_link_mismatch() {
        let (mut nodes, clients) = raw();
        nodes[2].parent = Some(NodeId::from_index(0));
        let t = packed(nodes, clients);
        assert!(matches!(validate(&t), Err(TreeError::LinkMismatch { .. })));
    }

    #[test]
    fn detects_client_mismatch() {
        let (nodes, mut clients) = raw();
        clients[0].attach = NodeId::from_index(2);
        let t = packed(nodes, clients);
        assert!(matches!(
            validate(&t),
            Err(TreeError::ClientLinkMismatch(_))
        ));
    }

    #[test]
    fn detects_dangling_child() {
        let (mut nodes, clients) = raw();
        nodes[2].children.push(NodeId::from_index(99));
        let t = packed(nodes, clients);
        assert!(matches!(validate(&t), Err(TreeError::DanglingHandle(_))));
    }

    #[test]
    fn detects_client_listed_twice() {
        let (mut nodes, clients) = raw();
        let k = nodes[1].clients[0];
        nodes[1].clients.push(k);
        let t = packed(nodes, clients);
        assert_eq!(
            validate(&t),
            Err(TreeError::ClientLinkMismatch(
                "client c0 listed twice under n1".into()
            ))
        );
    }

    #[test]
    fn error_display_is_informative() {
        let err = TreeError::OrphanNode(NodeId::from_index(4));
        assert!(err.to_string().contains("n4"));
    }
}
