//! Incremental construction of [`Tree`]s.
//!
//! The builder starts with an implicit root and only allows appending
//! children/clients to already-existing nodes, so the result is acyclic and
//! connected by construction. [`TreeBuilder::build`] still runs the full
//! [structural validation](crate::validate) so that hand-assembled or
//! deserialized trees go through the same checks.

use crate::arena::{Client, Tree};
use crate::ids::{ClientId, NodeId};
use crate::validate::TreeError;

/// Builder for [`Tree`]; see the [module docs](self).
///
/// It keeps only parent links and client records; [`TreeBuilder::build`]
/// packs them into the tree's child and client windows.
#[derive(Clone, Debug, Default)]
pub struct TreeBuilder {
    parent: Vec<Option<NodeId>>,
    clients: Vec<Client>,
}

impl TreeBuilder {
    /// Creates a builder holding just the root node.
    pub fn new() -> Self {
        TreeBuilder {
            parent: vec![None],
            clients: Vec::new(),
        }
    }

    /// Creates a builder pre-sized for `internal` internal nodes and
    /// `clients` clients.
    pub fn with_capacity(internal: usize, clients: usize) -> Self {
        let mut parent = Vec::with_capacity(internal.max(1));
        parent.push(None);
        TreeBuilder {
            parent,
            clients: Vec::with_capacity(clients),
        }
    }

    /// Handle of the root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::from_index(0)
    }

    /// Number of internal nodes added so far (root included).
    #[inline]
    pub fn internal_count(&self) -> usize {
        self.parent.len()
    }

    /// Appends a new internal node under `parent` and returns its handle.
    ///
    /// # Panics
    /// Panics if `parent` is not a handle issued by this builder.
    pub fn add_child(&mut self, parent: NodeId) -> NodeId {
        assert!(
            parent.index() < self.parent.len(),
            "unknown parent {parent}"
        );
        let id = NodeId::from_index(self.parent.len());
        self.parent.push(Some(parent));
        id
    }

    /// Attaches a client issuing `requests` requests under `node` and returns
    /// its handle.
    ///
    /// # Panics
    /// Panics if `node` is not a handle issued by this builder.
    pub fn add_client(&mut self, node: NodeId, requests: u64) -> ClientId {
        assert!(node.index() < self.parent.len(), "unknown node {node}");
        let id = ClientId::from_index(self.clients.len());
        self.clients.push(Client {
            attach: node,
            requests,
        });
        id
    }

    /// Finalizes the tree, running structural validation. Children and
    /// clients keep their insertion order.
    pub fn build(self) -> Result<Tree, TreeError> {
        Tree::from_links(self.parent, self.clients)
    }

    /// Test/bench convenience: attaches one client with `requests` requests
    /// to every internal node that has none, then builds.
    ///
    /// Construction through the builder cannot produce structural errors, so
    /// this unwraps internally.
    pub fn build_with_clients_everywhere(mut self, requests: u64) -> Tree {
        let mut has_client = vec![false; self.parent.len()];
        for c in &self.clients {
            has_client[c.attach.index()] = true;
        }
        for (idx, has) in has_client.into_iter().enumerate() {
            if !has {
                self.add_client(NodeId::from_index(idx), requests);
            }
        }
        self.build()
            .expect("builder-constructed trees are structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_single_root() {
        let t = TreeBuilder::new().build().unwrap();
        assert_eq!(t.internal_count(), 1);
        assert_eq!(t.client_count(), 0);
    }

    #[test]
    fn children_registered_in_order() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let c1 = b.add_child(r);
        let c2 = b.add_child(r);
        let c3 = b.add_child(c1);
        let t = b.build().unwrap();
        assert_eq!(t.children(r), &[c1, c2]);
        assert_eq!(t.children(c1), &[c3]);
        assert_eq!(t.parent(c3), Some(c1));
    }

    #[test]
    #[should_panic(expected = "unknown parent")]
    fn rejects_foreign_parent() {
        let mut b = TreeBuilder::new();
        b.add_child(NodeId::from_index(5));
    }

    #[test]
    fn clients_everywhere_fills_gaps() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r);
        b.add_client(a, 7);
        let t = b.build_with_clients_everywhere(2);
        assert_eq!(t.client_count(), 2);
        assert_eq!(t.client_load(r), 2);
        assert_eq!(t.client_load(a), 7);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = TreeBuilder::with_capacity(10, 10);
        let r = b.root();
        b.add_child(r);
        assert_eq!(b.internal_count(), 2);
        let t = b.build().unwrap();
        assert_eq!(t.internal_count(), 2);
    }
}
