//! The `MinCost-WithPre` dynamic program — §3.2 of the paper (Algorithms
//! 1–4, Theorem 1).
//!
//! With pre-existing servers, cost (Eq. 2) trades off reusing resources
//! against load-balancing onto new servers, and no greedy choice is safe
//! (Figure 1 of the paper). The DP keeps, at every node `j`, a
//! two-dimensional table
//!
//! > `minr_j[e][n]` = the minimum number of requests that must traverse `j`
//! > when exactly `e` pre-existing and `n` new servers are placed in
//! > `subtree_j` (excluding `j`),
//!
//! filled bottom-up by merging children one at a time. Lemma 1 justifies
//! keeping only the flow-minimal representative per `(e, n)`: cost depends
//! only on the counts, and a smaller traversing flow can only help above.
//! The optimum is found by scanning the root table with Eq. 2 (Algorithm 4).
//!
//! Worst-case complexity `O(N · (N−E+1)² · (E+1)²) ⊆ O(N⁵)`; per-subtree
//! table bounds (a node's table is sized by the pre-existing/new slots of
//! its own subtree) keep practical instances far below that.
//!
//! Reconstruction re-runs each node's merge sequence with backpointers
//! instead of storing the paper's per-entry `req` maps, halving peak memory
//! at the price of a second (cheap) pass along the chosen path.

use replica_model::{le_tolerant, Instance, ModelError, Placement};
use replica_tree::{traversal, NodeId, Tree};

/// Flow sentinel for "no solution with these counts".
const INFEASIBLE: u64 = u64::MAX;

/// Outcome of the `MinCost-WithPre` DP.
#[derive(Clone, Debug)]
pub struct MinCostResult {
    /// A cost-optimal placement (modes all 0).
    pub placement: Placement,
    /// Total servers `R`.
    pub servers: u64,
    /// Reused pre-existing servers `e`.
    pub reused: u64,
    /// Eq. 2 cost of the solution.
    pub cost: f64,
}

/// Dense `(e, n) → min flow` table with per-subtree dimensions.
#[derive(Clone)]
struct Table2 {
    e_max: usize,
    n_max: usize,
    flow: Vec<u64>,
}

impl Table2 {
    fn new(e_max: usize, n_max: usize) -> Self {
        Table2 {
            e_max,
            n_max,
            flow: vec![INFEASIBLE; (e_max + 1) * (n_max + 1)],
        }
    }

    #[inline]
    fn idx(&self, e: usize, n: usize) -> usize {
        debug_assert!(e <= self.e_max && n <= self.n_max);
        e * (self.n_max + 1) + n
    }

    #[inline]
    fn get(&self, e: usize, n: usize) -> u64 {
        self.flow[self.idx(e, n)]
    }

    #[inline]
    fn set(&mut self, e: usize, n: usize, value: u64) {
        let i = self.idx(e, n);
        self.flow[i] = value;
    }

    /// Iterator over reachable `(e, n, flow)` entries.
    fn entries(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let width = self.n_max + 1;
        self.flow
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f != INFEASIBLE)
            .map(move |(i, &f)| (i / width, i % width, f))
    }
}

/// Backpointer of one merge step: the `(e, n)` consumed from the
/// already-merged left table, plus whether a replica went on the child.
type BackPtr = Option<(u32, u32, bool)>;

/// Solves `MinCost-WithPre` for a single-mode instance.
///
/// # Panics
/// Panics if the instance has more than one mode (the power-aware problems
/// are handled by [`dp_power`](crate::dp_power)).
pub fn solve_min_cost(instance: &Instance) -> Result<MinCostResult, ModelError> {
    assert_eq!(
        instance.mode_count(),
        1,
        "MinCost-WithPre is the single-mode problem; use dp_power for modes"
    );
    let tree = instance.tree();
    let capacity = instance.max_capacity();
    let pre_nodes = instance.pre_existing().nodes();
    let is_pre = pre_flags(tree, &pre_nodes);
    let tables = forward_pass(tree, capacity, &is_pre)?;

    // Algorithm 4: scan the root table with Eq. 2.
    let root = tree.root();
    let e_total = pre_nodes.len() as u64;
    let root_is_pre = is_pre[root.index()];
    let mut best: Option<(f64, u64, u64, usize, usize, bool)> = None; // cost, R, reused, e, n, root server
    let consider = |cost: f64,
                    servers: u64,
                    reused: u64,
                    e: usize,
                    n: usize,
                    at_root: bool,
                    best: &mut Option<(f64, u64, u64, usize, usize, bool)>| {
        let better = match best {
            None => true,
            Some((bc, bs, br, ..)) => {
                cost < *bc - replica_model::COST_EPSILON
                    || (le_tolerant(cost, *bc)
                        && (servers < *bs || (servers == *bs && reused > *br)))
            }
        };
        if better {
            *best = Some((cost, servers, reused, e, n, at_root));
        }
    };
    for (e, n, flow) in tables[root.index()].entries() {
        let (e64, n64) = (e as u64, n as u64);
        if flow == 0 {
            // No replica needed at the root.
            let cost = instance.cost().eq2(e64 + n64, e64, e_total);
            consider(cost, e64 + n64, e64, e, n, false, &mut best);
        }
        // A replica at the root absorbs the residual flow (flow ≤ W always
        // holds for stored entries). Considered even when flow = 0: with
        // expensive deletions, keeping an idle server can be cheaper.
        let (servers, reused) = if root_is_pre {
            (e64 + n64 + 1, e64 + 1)
        } else {
            (e64 + n64 + 1, e64)
        };
        let cost = instance.cost().eq2(servers, reused, e_total);
        consider(cost, servers, reused, e, n, true, &mut best);
    }

    let (cost, servers, reused, e, n, at_root) = best.ok_or_else(|| {
        ModelError::Infeasible("no feasible replica placement for any (e, n)".into())
    })?;

    let mut placement = Placement::empty(tree);
    if at_root {
        placement.insert(root, 0);
    }
    reconstruct(
        tree,
        capacity,
        &is_pre,
        &tables,
        root,
        (e, n),
        &mut placement,
    );
    debug_assert_eq!(placement.server_count() as u64, servers);
    Ok(MinCostResult {
        placement,
        servers,
        reused,
        cost,
    })
}

fn pre_flags(tree: &Tree, pre_nodes: &[NodeId]) -> Vec<bool> {
    let mut is_pre = vec![false; tree.internal_count()];
    for &p in pre_nodes {
        is_pre[p.index()] = true;
    }
    is_pre
}

/// Bottom-up pass (Algorithms 1–3): fills every node's `(e, n)` table.
fn forward_pass(tree: &Tree, capacity: u64, is_pre: &[bool]) -> Result<Vec<Table2>, ModelError> {
    let pre_nodes: Vec<NodeId> = tree
        .internal_nodes()
        .filter(|n| is_pre[n.index()])
        .collect();
    let counts = traversal::SubtreeCounts::with_pre_existing(tree, &pre_nodes);

    let mut tables: Vec<Table2> = (0..tree.internal_count())
        .map(|_| Table2::new(0, 0))
        .collect();
    for &node in tree.post_order() {
        let direct = tree.client_load(node);
        if direct > capacity {
            return Err(ModelError::Infeasible(format!(
                "clients attached to {node} bundle {direct} requests > capacity {capacity}"
            )));
        }
        let e_cap = counts.pre_existing_below[node.index()] as usize;
        let n_cap = counts.new_slots_below(node) as usize;
        let mut table = Table2::new(e_cap, n_cap);
        table.set(0, 0, direct);
        for &child in tree.children(node) {
            merge_child(
                &mut table,
                &tables[child.index()],
                capacity,
                is_pre[child.index()],
                None,
            );
        }
        tables[node.index()] = table;
    }
    Ok(tables)
}

/// One `merge(j, i)` step of Algorithm 3.
///
/// `left` is `j`'s table accumulated over previously processed children; the
/// result overwrites `left`. With `backptrs`, records the decision behind
/// each entry (reconstruction only).
fn merge_child(
    left: &mut Table2,
    child: &Table2,
    capacity: u64,
    child_is_pre: bool,
    mut backptrs: Option<&mut Vec<BackPtr>>,
) {
    let prev = left.clone();
    left.flow.fill(INFEASIBLE);
    if let Some(bp) = backptrs.as_deref_mut() {
        bp.clear();
        bp.resize(left.flow.len(), None);
    }
    let (de, dn) = if child_is_pre { (1, 0) } else { (0, 1) };

    for (e1, n1, f1) in prev.entries() {
        for (e2, n2, f2) in child.entries() {
            // Option a — no replica on the child: flows add and must remain
            // serveable by some ancestor.
            let combined = f1 + f2;
            if combined <= capacity {
                let (e, n) = (e1 + e2, n1 + n2);
                let i = left.idx(e, n);
                if combined < left.flow[i] {
                    left.flow[i] = combined;
                    if let Some(bp) = backptrs.as_deref_mut() {
                        bp[i] = Some((e1 as u32, n1 as u32, false));
                    }
                }
            }
            // Option b — replica on the child (its load is the subtree flow
            // f2 ≤ capacity, which holds for every stored entry): the child
            // contributes no traversing requests, and the replica itself is
            // accounted as pre-existing or new depending on the child.
            let (e, n) = (e1 + e2 + de, n1 + n2 + dn);
            if e <= left.e_max && n <= left.n_max {
                let i = left.idx(e, n);
                if f1 < left.flow[i] {
                    left.flow[i] = f1;
                    if let Some(bp) = backptrs.as_deref_mut() {
                        bp[i] = Some((e1 as u32, n1 as u32, true));
                    }
                }
            }
        }
    }
}

/// Rebuilds the replica set achieving `tables[start][target]` by re-running
/// merge sequences with backpointers (iterative worklist: no recursion, so
/// path-shaped trees of any height are fine).
fn reconstruct(
    tree: &Tree,
    capacity: u64,
    is_pre: &[bool],
    tables: &[Table2],
    start: NodeId,
    target: (usize, usize),
    placement: &mut Placement,
) {
    let mut work: Vec<(NodeId, usize, usize)> = vec![(start, target.0, target.1)];
    while let Some((node, e_target, n_target)) = work.pop() {
        let children = tree.children(node);
        if children.is_empty() {
            debug_assert_eq!((e_target, n_target), (0, 0));
            continue;
        }
        let final_table = &tables[node.index()];
        let mut table = Table2::new(final_table.e_max, final_table.n_max);
        table.set(0, 0, tree.client_load(node));
        let mut steps: Vec<Vec<BackPtr>> = Vec::with_capacity(children.len());
        for &child in children {
            let mut bp: Vec<BackPtr> = Vec::new();
            merge_child(
                &mut table,
                &tables[child.index()],
                capacity,
                is_pre[child.index()],
                Some(&mut bp),
            );
            steps.push(bp);
        }
        debug_assert_eq!(
            table.get(e_target, n_target),
            final_table.get(e_target, n_target),
            "recomputed table must match the forward pass"
        );

        let (mut e_cur, mut n_cur) = (e_target, n_target);
        for (k, &child) in children.iter().enumerate().rev() {
            let i = table.idx(e_cur, n_cur);
            let (e1, n1, server) = steps[k][i].expect("reachable entries must carry a backpointer");
            let (e1, n1) = (e1 as usize, n1 as usize);
            let (de, dn) = if is_pre[child.index()] {
                (1, 0)
            } else {
                (0, 1)
            };
            let (e_child, n_child) = if server {
                (e_cur - e1 - de, n_cur - n1 - dn)
            } else {
                (e_cur - e1, n_cur - n1)
            };
            if server {
                placement.insert(child, 0);
            }
            if e_child > 0 || n_child > 0 || server {
                work.push((child, e_child, n_child));
            }
            e_cur = e1;
            n_cur = n1;
        }
        debug_assert_eq!((e_cur, n_cur), (0, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp_mincost_nopre::solve_min_count;
    use crate::greedy::greedy_min_replicas;
    use replica_model::{compute_validated, ModeSet, Solution};
    use replica_tree::{generate, GeneratorConfig, NodeId, TreeBuilder};

    fn assert_valid(instance: &Instance, placement: &Placement) {
        let modes = ModeSet::single(instance.max_capacity()).unwrap();
        compute_validated(instance.tree(), placement, &modes)
            .expect("DP placement must be feasible");
    }

    /// Figure 1 of the paper: pre-existing replica at B. Keeping B leaves
    /// C's 7 requests going up from A; replacing it with a server at C
    /// leaves B's 4; covering both leaves none (W = 10).
    fn fig1(root_requests: u64) -> (Instance, [NodeId; 4]) {
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        let b = bld.add_child(a);
        let c = bld.add_child(a);
        bld.add_client(b, 4);
        bld.add_client(c, 7);
        bld.add_client(r, root_requests);
        let tree = bld.build().unwrap();
        let inst = Instance::min_cost(tree, 10, [b], 0.1, 0.01).unwrap();
        (inst, [r, a, b, c])
    }

    #[test]
    fn fig1_two_root_requests_reuses_b() {
        // Paper: "if the root r has two client requests, then it was better
        // to keep the pre-existing server B" (root load 7 + 2 = 9 ≤ 10).
        let (inst, [r, _a, b, _c]) = fig1(2);
        let res = solve_min_cost(&inst).unwrap();
        assert_eq!(res.servers, 2);
        assert_eq!(res.reused, 1, "B must be reused");
        assert!(res.placement.has_server(b));
        assert!(res.placement.has_server(r));
        // Eq. 2: 2 + 1·0.1 + 0·0.01.
        assert!((res.cost - 2.1).abs() < 1e-9);
        assert_valid(&inst, &res.placement);
    }

    #[test]
    fn fig1_four_root_requests_drops_b() {
        // Paper: "if it has four requests, two new servers are needed … keep
        // one server at node C and one server at node r".
        let (inst, [r, _a, b, c]) = fig1(4);
        let res = solve_min_cost(&inst).unwrap();
        assert_eq!(res.servers, 2);
        assert_eq!(res.reused, 0, "B becomes useless");
        assert!(res.placement.has_server(c));
        assert!(res.placement.has_server(r));
        assert!(!res.placement.has_server(b));
        // Eq. 2: 2 + 2·0.1 + 1·0.01.
        assert!((res.cost - 2.21).abs() < 1e-9);
        assert_valid(&inst, &res.placement);
    }

    #[test]
    fn cost_matches_reevaluation() {
        // The DP's claimed cost must equal the model's independent Eq. 2/4
        // evaluation of the reconstructed placement.
        let (inst, _) = fig1(4);
        let res = solve_min_cost(&inst).unwrap();
        let sol = Solution::evaluate(&inst, &res.placement).unwrap();
        assert!((sol.cost - res.cost).abs() < 1e-9);
    }

    #[test]
    fn no_pre_existing_matches_other_solvers() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..30 {
            let cfg = if i % 2 == 0 {
                GeneratorConfig::paper_fat(35)
            } else {
                GeneratorConfig::paper_high(35)
            };
            let tree = generate::random_tree(&cfg, &mut rng);
            let gr = greedy_min_replicas(&tree, 10).unwrap().servers;
            let nopre = solve_min_count(&tree, 10).unwrap().servers;
            let inst = Instance::min_cost(tree, 10, [], 0.1, 0.01).unwrap();
            let withpre = solve_min_cost(&inst).unwrap();
            assert_eq!(withpre.servers, gr, "tree {i}");
            assert_eq!(withpre.servers, nopre, "tree {i}");
            assert_eq!(withpre.reused, 0);
            assert_valid(&inst, &withpre.placement);
        }
    }

    #[test]
    fn preexisting_preserves_min_count_and_beats_greedy_reuse() {
        // With create + 2·delete < 1 the DP keeps the minimum count (paper
        // §2.1) while reusing at least as many servers as an oblivious GR.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..25 {
            let tree = generate::random_tree(&GeneratorConfig::paper_fat(40), &mut rng);
            let pre = generate::random_pre_existing(&tree, 12, &mut rng);
            let gr = greedy_min_replicas(&tree, 10).unwrap();
            let gr_reused = pre.iter().filter(|&&p| gr.placement.has_server(p)).count() as u64;
            let inst = Instance::min_cost(tree, 10, pre, 0.1, 0.01).unwrap();
            let dp = solve_min_cost(&inst).unwrap();
            assert_eq!(dp.servers, gr.servers, "same optimal count");
            assert!(
                dp.reused >= gr_reused,
                "DP reuse {} must be ≥ oblivious greedy reuse {gr_reused}",
                dp.reused
            );
            assert_valid(&inst, &dp.placement);
            let sol = Solution::evaluate(&inst, &dp.placement).unwrap();
            assert!((sol.cost - dp.cost).abs() < 1e-9);
            assert_eq!(sol.counts.reused_total(), dp.reused);
        }
    }

    #[test]
    fn all_nodes_preexisting() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let tree = generate::random_tree(&GeneratorConfig::paper_fat(30), &mut rng);
        let all: Vec<NodeId> = tree.internal_nodes().collect();
        let gr = greedy_min_replicas(&tree, 10).unwrap().servers;
        let inst = Instance::min_cost(tree, 10, all, 0.1, 0.01).unwrap();
        let dp = solve_min_cost(&inst).unwrap();
        // Every chosen server is a reuse.
        assert_eq!(dp.reused, dp.servers);
        assert_eq!(dp.servers, gr);
    }

    #[test]
    fn expensive_deletion_keeps_idle_servers() {
        // delete = 5 ≫ 1 + create: cheaper to keep a useless pre-existing
        // server powered than to delete it.
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        bld.add_client(r, 2);
        let tree = bld.build().unwrap();
        let inst = Instance::min_cost(tree, 10, [a], 0.1, 5.0).unwrap();
        let res = solve_min_cost(&inst).unwrap();
        // Keeping a (idle, load 0) costs 1; deleting costs 5.
        assert!(res.placement.has_server(a), "idle reuse must beat deletion");
        assert_eq!(res.reused, 1);
        assert_valid(&inst, &res.placement);
    }

    #[test]
    fn infeasible_instance_errors() {
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        bld.add_client(r, 11);
        let inst = Instance::min_cost(bld.build().unwrap(), 10, [], 0.1, 0.01).unwrap();
        assert!(solve_min_cost(&inst).is_err());
    }
}
