//! The **closest** request-service policy (§2.1 of the paper).
//!
//! Each client `i` is served by `server(i)`: the first node on the path from
//! `i` up to the root that holds a replica. From a tree and a placement this
//! module derives, in one bottom-up pass over the tree's post order and
//! one top-down pass over its reverse:
//!
//! * `inflow(j)` — requests reaching node `j` from its subtree (its own
//!   clients plus whatever its children let through),
//! * `outflow(j)` — requests continuing above `j` (zero when `j` is a
//!   server: a replica absorbs everything that reaches it),
//! * per-server loads (`req_j`, Eq. 1) and per-client server assignment.
//!
//! Feasibility of a placement is exactly: `outflow(root) = 0` and every
//! server's load fits its assigned mode capacity.

use crate::error::ModelError;
use crate::modes::ModeSet;
use crate::placement::Placement;
use replica_tree::{ClientId, NodeId, Tree};

/// The result of routing all requests under the closest policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// `server_of[c]` = the server of client `c`, `None` if unserved.
    pub server_of: Vec<Option<NodeId>>,
    /// `inflow[j]` = requests reaching node `j` (this is the load `req_j`
    /// when `j` is a server).
    pub inflow: Vec<u64>,
    /// `outflow[j]` = requests passing above `j` (0 for servers).
    pub outflow: Vec<u64>,
}

impl Assignment {
    /// Routes requests for `placement`; pure function of the inputs, never
    /// fails (feasibility is judged separately by [`Assignment::validate`] or
    /// [`compute_validated`]).
    pub fn compute(tree: &Tree, placement: &Placement) -> Self {
        let n = tree.internal_count();
        debug_assert_eq!(placement.slots(), n, "placement sized for a different tree");
        let mut inflow = vec![0u64; n];
        let mut outflow = vec![0u64; n];
        let order = tree.post_order();
        for &node in order {
            let i = node.index();
            let mut f = tree.client_load(node);
            for &c in tree.children(node) {
                f += outflow[c.index()];
            }
            inflow[i] = f;
            outflow[i] = if placement.has_server(node) { 0 } else { f };
        }

        // nearest[j] = closest server at-or-above j; the reversed post order
        // visits every parent before its children.
        let mut nearest: Vec<Option<NodeId>> = vec![None; n];
        for &node in order.iter().rev() {
            let i = node.index();
            nearest[i] = if placement.has_server(node) {
                Some(node)
            } else {
                tree.parent(node).and_then(|p| nearest[p.index()])
            };
        }
        let server_of = tree
            .client_ids()
            .map(|c| nearest[tree.client(c).attach.index()])
            .collect();
        Assignment {
            server_of,
            inflow,
            outflow,
        }
    }

    /// Load of the server at `node` (meaningful only for servers).
    #[inline]
    pub fn load(&self, node: NodeId) -> u64 {
        self.inflow[node.index()]
    }

    /// Checks Eq. 1 (capacity) and full coverage for `placement`.
    pub fn validate(
        &self,
        tree: &Tree,
        placement: &Placement,
        modes: &ModeSet,
    ) -> Result<(), ModelError> {
        for (node, mode) in placement.servers() {
            if mode >= modes.count() {
                return Err(ModelError::InvalidPlacement(format!(
                    "server {node} assigned unknown mode index {mode}"
                )));
            }
            let load = self.load(node);
            let capacity = modes.capacity(mode);
            if load > capacity {
                return Err(ModelError::Overloaded {
                    node,
                    load,
                    capacity,
                });
            }
        }
        if self.outflow[tree.root().index()] > 0 {
            let unserved = self
                .server_of
                .iter()
                .position(Option::is_none)
                .map(ClientId::from_index)
                .expect("positive root outflow implies an unserved client");
            return Err(ModelError::Unserved(unserved));
        }
        Ok(())
    }
}

/// Routes and validates in one call.
pub fn compute_validated(
    tree: &Tree,
    placement: &Placement,
    modes: &ModeSet,
) -> Result<Assignment, ModelError> {
    let a = Assignment::compute(tree, placement);
    a.validate(tree, placement, modes)?;
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use replica_tree::TreeBuilder;

    /// The paper's Figure 1 topology:
    ///
    /// ```text
    ///        r (2 clients… varies)
    ///        |
    ///        A
    ///       / \
    ///      B   C
    ///     (B pre-existing; clients: B:3, C:4)
    /// ```
    fn fig1_tree(root_requests: u64) -> (Tree, [NodeId; 4]) {
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        let b = bld.add_child(a);
        let c = bld.add_child(a);
        bld.add_client(b, 3);
        bld.add_client(c, 4);
        if root_requests > 0 {
            bld.add_client(r, root_requests);
        }
        (bld.build().unwrap(), [r, a, b, c])
    }

    #[test]
    fn flows_without_servers() {
        let (t, [r, a, b, c]) = fig1_tree(2);
        let p = Placement::empty(&t);
        let asg = Assignment::compute(&t, &p);
        assert_eq!(asg.inflow[b.index()], 3);
        assert_eq!(asg.inflow[c.index()], 4);
        assert_eq!(asg.inflow[a.index()], 7);
        assert_eq!(asg.inflow[r.index()], 9);
        assert_eq!(asg.outflow[r.index()], 9);
        assert!(asg.server_of.iter().all(Option::is_none));
    }

    #[test]
    fn closest_server_wins() {
        let (t, [r, a, b, _c]) = fig1_tree(2);
        let mut p = Placement::empty(&t);
        p.insert(b, 0);
        p.insert(r, 0);
        let asg = Assignment::compute(&t, &p);
        // B absorbs its own 3 requests; C's 4 and the root's 2 go to r.
        assert_eq!(asg.load(b), 3);
        assert_eq!(asg.load(r), 6);
        assert_eq!(asg.outflow[a.index()], 4);
        assert_eq!(asg.outflow[r.index()], 0);
        // Clients: c0 at B → B; c1 at C → r; c2 at root → r.
        assert_eq!(asg.server_of[0], Some(b));
        assert_eq!(asg.server_of[1], Some(r));
        assert_eq!(asg.server_of[2], Some(r));
    }

    #[test]
    fn validation_accepts_feasible() {
        let (t, [r, _a, b, _c]) = fig1_tree(2);
        let modes = ModeSet::single(10).unwrap();
        let mut p = Placement::empty(&t);
        p.insert(b, 0);
        p.insert(r, 0);
        assert!(compute_validated(&t, &p, &modes).is_ok());
    }

    #[test]
    fn validation_rejects_uncovered() {
        let (t, [_r, _a, b, _c]) = fig1_tree(2);
        let modes = ModeSet::single(10).unwrap();
        let mut p = Placement::empty(&t);
        p.insert(b, 0);
        let err = compute_validated(&t, &p, &modes).unwrap_err();
        assert!(matches!(err, ModelError::Unserved(_)));
    }

    #[test]
    fn validation_rejects_overload() {
        let (t, [r, _a, _b, _c]) = fig1_tree(2);
        let modes = ModeSet::new(vec![5, 8]).unwrap();
        let mut p = Placement::empty(&t);
        p.insert(r, 1); // 9 requests > W₂ = 8
        let err = compute_validated(&t, &p, &modes).unwrap_err();
        assert_eq!(
            err,
            ModelError::Overloaded {
                node: r,
                load: 9,
                capacity: 8
            }
        );
    }

    #[test]
    fn validation_rejects_unknown_mode() {
        let (t, [r, ..]) = fig1_tree(0);
        let modes = ModeSet::single(10).unwrap();
        let mut p = Placement::empty(&t);
        p.insert(r, 3);
        let err = compute_validated(&t, &p, &modes).unwrap_err();
        assert!(matches!(err, ModelError::InvalidPlacement(_)));
    }

    #[test]
    fn server_absorbs_for_mode_capacity_check_only_below() {
        // A server lower in the tree shields its ancestors.
        let (t, [r, a, b, c]) = fig1_tree(2);
        let modes = ModeSet::single(6).unwrap();
        let mut p = Placement::empty(&t);
        p.insert(a, 0); // absorbs 7 > 6: overloaded
        p.insert(r, 0);
        let err = compute_validated(&t, &p, &modes).unwrap_err();
        assert_eq!(
            err,
            ModelError::Overloaded {
                node: a,
                load: 7,
                capacity: 6
            }
        );

        // With B and C as servers, A passes nothing.
        let mut p = Placement::empty(&t);
        p.insert(b, 0);
        p.insert(c, 0);
        p.insert(r, 0);
        let asg = compute_validated(&t, &p, &modes).unwrap();
        assert_eq!(asg.load(r), 2);
        assert_eq!(asg.outflow[a.index()], 0);
    }
}
