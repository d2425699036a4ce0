//! Packed storage for distribution trees.
//!
//! A [`Tree`] freezes its topology at construction (the paper's *fixed
//! distribution tree*) and stores it in flat arrays: a parent array, child
//! and client windows over two shared arrays, the direct client demand of
//! every node, and the post-order, computed once. The only mutation allowed
//! is updating client request volumes, which is what the dynamic update
//! strategies of §6 of the paper need; [`Tree::set_requests`] keeps the
//! per-node demand and the total current.

use crate::ids::{ClientId, NodeId};
use crate::validate::TreeError;
use serde::{Deserialize, Serialize};

/// A leaf client: attached to an internal node, issuing `requests` requests
/// per time unit (the `r_i` of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Client {
    /// Internal node this client hangs from.
    pub attach: NodeId,
    /// Requests issued per time unit (`r_i`).
    pub requests: u64,
}

/// One node as the JSON wire form spells it (see
/// [`serde_impl`](crate::serde_impl)).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct NodeData {
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    pub(crate) clients: Vec<ClientId>,
}

/// A fixed distribution tree: internal nodes `N` + leaf clients `C`.
///
/// Node 0 is always the root `r`. The structure is append-only during
/// construction (see [`TreeBuilder`](crate::TreeBuilder)) and topologically
/// frozen afterwards; client request volumes remain mutable through
/// [`Tree::set_requests`].
///
/// Deserialization runs the full [structural validation](crate::validate),
/// so a `Tree` in hand is always well-formed (see
/// [`serde_impl`](crate::serde_impl)).
#[derive(Clone, Debug)]
pub struct Tree {
    /// `parent[i]` = parent of node `i`, `None` for the root.
    pub(crate) parent: Vec<Option<NodeId>>,
    /// Node `i`'s children are `children[child_off[i]..child_off[i + 1]]`.
    pub(crate) child_off: Vec<u32>,
    pub(crate) children: Vec<NodeId>,
    /// Node `i`'s clients are `node_clients[client_off[i]..client_off[i + 1]]`.
    pub(crate) client_off: Vec<u32>,
    pub(crate) node_clients: Vec<ClientId>,
    pub(crate) clients: Vec<Client>,
    /// `load[i]` = requests of the clients attached directly to node `i`.
    load: Vec<u64>,
    /// Requests of all clients; validation bounds it by `u64::MAX`.
    total: u64,
    /// Every node after all of its descendants.
    post: Vec<NodeId>,
}

/// A window end offset, or the typed error for a list too long to address.
fn offset(len: usize) -> Result<u32, TreeError> {
    u32::try_from(len)
        .map_err(|_| TreeError::DanglingHandle(format!("{len} handles past u32 offsets")))
}

/// Counting sort by owner: owner `i`'s items land in
/// `items[off[i]..off[i + 1]]`, in input order. Every owner is `< owners`.
fn group_by_owner<T: Copy>(
    owners: usize,
    pairs: impl Iterator<Item = (usize, T)> + Clone,
) -> Result<(Vec<u32>, Vec<T>), TreeError> {
    let mut cursor = vec![0usize; owners + 1];
    for (owner, _) in pairs.clone() {
        cursor[owner + 1] += 1;
    }
    for i in 0..owners {
        cursor[i + 1] += cursor[i];
    }
    let off = cursor
        .iter()
        .map(|&c| offset(c))
        .collect::<Result<Vec<u32>, _>>()?;
    let Some((_, fill)) = pairs.clone().next() else {
        return Ok((off, Vec::new()));
    };
    let mut items = vec![fill; cursor[owners]];
    for (owner, item) in pairs {
        items[cursor[owner]] = item;
        cursor[owner] += 1;
    }
    Ok((off, items))
}

impl Tree {
    fn packed(
        parent: Vec<Option<NodeId>>,
        (child_off, children): (Vec<u32>, Vec<NodeId>),
        (client_off, node_clients): (Vec<u32>, Vec<ClientId>),
        clients: Vec<Client>,
    ) -> Tree {
        Tree {
            parent,
            child_off,
            children,
            client_off,
            node_clients,
            clients,
            load: Vec::new(),
            total: 0,
            post: Vec::new(),
        }
    }

    /// Packs parent links and client records, as
    /// [`TreeBuilder`](crate::TreeBuilder) keeps them, into windows in
    /// ascending id order. Every link must name an existing node.
    pub(crate) fn from_links(
        parent: Vec<Option<NodeId>>,
        clients: Vec<Client>,
    ) -> Result<Tree, TreeError> {
        let n = parent.len();
        let children = group_by_owner(
            n,
            parent
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|p| (p.index(), NodeId::from_index(i)))),
        )?;
        let node_clients = group_by_owner(
            n,
            clients
                .iter()
                .enumerate()
                .map(|(i, c)| (c.attach.index(), ClientId::from_index(i))),
        )?;
        Tree::packed(parent, children, node_clients, clients).finish()
    }

    /// Packs the wire form's per-node lists, in list order, without
    /// checking them: no handle is dereferenced, so any input packs.
    /// [`Tree::finish`] validates the result.
    pub(crate) fn pack_wire(nodes: Vec<NodeData>, clients: Vec<Client>) -> Result<Tree, TreeError> {
        let mut parent = Vec::with_capacity(nodes.len());
        let mut child_off = Vec::with_capacity(nodes.len() + 1);
        let mut client_off = Vec::with_capacity(nodes.len() + 1);
        let (mut children, mut node_clients) = (Vec::new(), Vec::new());
        child_off.push(0);
        client_off.push(0);
        for node in nodes {
            parent.push(node.parent);
            children.extend_from_slice(&node.children);
            node_clients.extend_from_slice(&node.clients);
            child_off.push(offset(children.len())?);
            client_off.push(offset(node_clients.len())?);
        }
        Ok(Tree::packed(
            parent,
            (child_off, children),
            (client_off, node_clients),
            clients,
        ))
    }

    /// The wire form's per-node lists (the inverse of [`Tree::pack_wire`]).
    pub(crate) fn wire_nodes(&self) -> impl Iterator<Item = NodeData> + '_ {
        self.internal_nodes().map(|node| NodeData {
            parent: self.parent(node),
            children: self.children(node).to_vec(),
            clients: self.clients_of(node).to_vec(),
        })
    }

    /// Validates a packed tree, then derives what the accessors read: the
    /// post-order (validation's reachability walk, reversed), the per-node
    /// demand and the total.
    pub(crate) fn finish(mut self) -> Result<Tree, TreeError> {
        let mut visit = Vec::new();
        self.total = crate::validate::check(&self, &mut visit)?;
        visit.reverse();
        self.post = visit;
        self.load = vec![0; self.parent.len()];
        for c in &self.clients {
            // No wrap: every node's demand is part of the checked total.
            self.load[c.attach.index()] += c.requests;
        }
        Ok(self)
    }

    /// The root node `r` (always node 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of internal nodes (`|N|` — the `N` of the complexity bounds).
    #[inline]
    pub fn internal_count(&self) -> usize {
        self.parent.len()
    }

    /// Number of clients (`|C|`).
    #[inline]
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Iterator over all internal node handles in index order.
    pub fn internal_nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.parent.len()).map(NodeId::from_index)
    }

    /// Iterator over all client handles in index order.
    pub fn client_ids(&self) -> impl ExactSizeIterator<Item = ClientId> + '_ {
        (0..self.clients.len()).map(ClientId::from_index)
    }

    /// Parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Internal-node children of `node`, left to right.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.children[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// Clients directly attached to `node`.
    #[inline]
    pub fn clients_of(&self, node: NodeId) -> &[ClientId] {
        let i = node.index();
        &self.node_clients[self.client_off[i] as usize..self.client_off[i + 1] as usize]
    }

    /// All nodes in post order: every node after all of its descendants,
    /// siblings' subtrees left to right, the root last.
    ///
    /// Computed once at construction (iteratively, so arbitrarily deep
    /// trees are fine). [`FlatTree`](crate::FlatTree) positions are indices
    /// into this slice.
    #[inline]
    pub fn post_order(&self) -> &[NodeId] {
        &self.post
    }

    /// The client record behind a handle.
    #[inline]
    pub fn client(&self, client: ClientId) -> &Client {
        &self.clients[client.index()]
    }

    /// Requests issued by `client` (`r_i`).
    #[inline]
    pub fn requests(&self, client: ClientId) -> u64 {
        self.clients[client.index()].requests
    }

    /// Updates the request volume of `client`, and with it the demand of its
    /// node and the total.
    ///
    /// This is the only mutation the type permits: topology is fixed, request
    /// volumes evolve over time (paper §6, dynamic replica management).
    ///
    /// # Panics
    /// Panics, naming the client and its node, if the total demand would
    /// pass `u64::MAX`. Validation rejects such a tree, and keeping the bound
    /// under mutation keeps every per-node and subtree sum exact.
    #[inline]
    pub fn set_requests(&mut self, client: ClientId, requests: u64) {
        let Client {
            attach,
            requests: old,
        } = self.clients[client.index()];
        let total = (self.total - old).checked_add(requests).unwrap_or_else(|| {
            panic!(
                "client {client} at {attach}: {requests} requests take the total demand past {}",
                u64::MAX
            )
        });
        self.clients[client.index()].requests = requests;
        // Exact: `old` is part of the node's demand, and the result is part
        // of the new total.
        self.load[attach.index()] = self.load[attach.index()] - old + requests;
        self.total = total;
    }

    /// Sum of requests of the clients attached directly to `node` — the
    /// `client(j)` accumulator of Algorithm 2 in the paper.
    #[inline]
    pub fn client_load(&self, node: NodeId) -> u64 {
        self.load[node.index()]
    }

    /// Total request volume over the whole tree.
    #[inline]
    pub fn total_requests(&self) -> u64 {
        self.total
    }

    /// True if `node` has no internal-node children (it may still have
    /// clients).
    #[inline]
    pub fn is_internal_leaf(&self, node: NodeId) -> bool {
        self.children(node).is_empty()
    }

    /// Walks up from `node` to the root, yielding `node` first.
    pub fn path_to_root(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(Some(node), move |&n| self.parent(n))
    }

    /// True if `ancestor` lies on the path from `node` to the root
    /// (inclusive: a node is its own ancestor).
    pub fn is_ancestor_or_self(&self, ancestor: NodeId, node: NodeId) -> bool {
        self.path_to_root(node).any(|n| n == ancestor)
    }
}

#[cfg(test)]
mod tests {
    use crate::TreeBuilder;

    #[test]
    fn basic_accessors() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let a = b.add_child(root);
        let bb = b.add_child(root);
        let c = b.add_child(a);
        let k1 = b.add_client(c, 5);
        b.add_client(bb, 2);
        b.add_client(root, 1);
        let t = b.build().unwrap();

        assert_eq!(t.internal_count(), 4);
        assert_eq!(t.client_count(), 3);
        assert_eq!(t.root(), root);
        assert_eq!(t.parent(root), None);
        assert_eq!(t.parent(c), Some(a));
        assert_eq!(t.children(root), &[a, bb]);
        assert_eq!(t.clients_of(c).len(), 1);
        assert_eq!(t.requests(k1), 5);
        assert_eq!(t.client_load(c), 5);
        assert_eq!(t.client_load(a), 0);
        assert_eq!(t.total_requests(), 8);
        assert!(t.is_internal_leaf(c));
        assert!(!t.is_internal_leaf(a));
        // Post order: c, a, bb, root.
        assert_eq!(t.post_order(), &[c, a, bb, root]);
    }

    #[test]
    fn path_and_ancestry() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let a = b.add_child(root);
        let c = b.add_child(a);
        let d = b.add_child(root);
        let t = b.build_with_clients_everywhere(1);

        let path: Vec<_> = t.path_to_root(c).collect();
        assert_eq!(path, vec![c, a, root]);
        assert!(t.is_ancestor_or_self(root, c));
        assert!(t.is_ancestor_or_self(a, c));
        assert!(t.is_ancestor_or_self(c, c));
        assert!(!t.is_ancestor_or_self(d, c));
        assert!(!t.is_ancestor_or_self(c, a));
    }

    #[test]
    fn request_mutation() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let k = b.add_client(root, 3);
        let j = b.add_client(root, 4);
        let mut t = b.build().unwrap();
        assert_eq!(t.total_requests(), 7);
        t.set_requests(k, 9);
        assert_eq!(t.requests(k), 9);
        assert_eq!(t.client_load(root), 13);
        assert_eq!(t.total_requests(), 13);
        t.set_requests(j, 0);
        assert_eq!(t.client_load(root), 9);
        assert_eq!(t.total_requests(), 9);
    }

    #[test]
    fn demand_up_to_the_bound_is_exact() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let a = b.add_child(root);
        let k = b.add_client(root, 1);
        let j = b.add_client(a, 1);
        let mut t = b.build().unwrap();
        t.set_requests(k, u64::MAX - 1);
        assert_eq!(t.total_requests(), u64::MAX);
        t.set_requests(k, 0);
        t.set_requests(j, u64::MAX);
        assert_eq!(t.client_load(a), u64::MAX);
        assert_eq!(t.client_load(root), 0);
    }

    #[test]
    #[should_panic(expected = "client c1 at n1")]
    fn demand_past_u64_max_panics() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let a = b.add_child(root);
        b.add_client(root, u64::MAX - 1);
        let j = b.add_client(a, 1);
        let mut t = b.build().unwrap();
        t.set_requests(j, 2);
    }
}
