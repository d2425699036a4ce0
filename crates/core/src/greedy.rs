//! The greedy replica-count minimizer (`GR`) of Wu, Lin & Liu \[19\].
//!
//! For the classical `MinCost-NoPre` problem (closest policy, identical
//! capacity `W`, no pre-existing servers) the following bottom-up greedy is
//! optimal in the number of replicas:
//!
//! 1. process nodes in post order, accumulating the *flow* of each node
//!    (client requests plus whatever its children let through);
//! 2. whenever the flow of node `j` exceeds `W`, repeatedly place a replica
//!    on the child subtree contributing the most flow (largest-first) until
//!    the residual fits — requests attached directly to `j` can never be
//!    absorbed below `j`, so if they alone exceed `W` the instance is
//!    infeasible;
//! 3. at the root, any residual flow gets a final replica.
//!
//! Largest-first simultaneously minimizes the number of replicas placed for
//! `j`'s constraint *and* the residual flow passed upward, and placing at a
//! child's root dominates placing deeper in its subtree; an exchange
//! argument then yields global optimality (see \[19\] for the full proof — the
//! test-suite cross-validates against two independent dynamic programs).
//!
//! `GR` is the baseline the paper compares against in every experiment: it
//! is oblivious to pre-existing servers (Experiments 1–2) and to power
//! (Experiment 3, where it is swept over capacities — see
//! [`greedy_power`](crate::greedy_power)).

use replica_model::{ModelError, Placement};
use replica_tree::{FlatTree, NodeId, Tree};

/// Outcome of the greedy placement.
#[derive(Clone, Debug)]
pub struct GreedyResult {
    /// Replica set (all modes 0; `GR` is mode-agnostic — re-mode with
    /// [`ModePolicy::LowestFeasible`](replica_model::ModePolicy) if needed).
    pub placement: Placement,
    /// Number of replicas placed.
    pub servers: u64,
}

/// Reusable working memory for [`greedy_min_replicas_flat`].
///
/// The greedy is the hottest per-instance path of fleet evaluation (the
/// `GR` capacity sweep re-runs it `W_M − W₁ + 1` times per instance);
/// keeping the per-node flow table, the child-contribution buffer and the
/// server list alive across runs makes those runs allocation-free after
/// the first. [`crate::SolveArena`] bundles this with the shared
/// [`FlatTree`].
#[derive(Default)]
pub struct GreedyScratch {
    flow: Vec<u64>,
    contributions: Vec<(u64, NodeId)>,
    /// The last pass's servers as `(node, load)`, in placement order.
    placed: Vec<(NodeId, u64)>,
}

impl GreedyScratch {
    /// The servers of the last successful [`greedy_pass`] as `(node,
    /// load)`: each one's closest-policy load is its flow when placed.
    pub(crate) fn placed(&self) -> &[(NodeId, u64)] {
        &self.placed
    }
}

/// Runs `GR` with capacity `capacity` and returns a replica-count-optimal
/// placement.
///
/// Fails with [`ModelError::Infeasible`] when some node's direct client load
/// exceeds `capacity` (those requests are inseparable under the closest
/// policy).
///
/// Builds a fresh [`FlatTree`] per call; sweep-style callers that solve the
/// same tree repeatedly should build the layout once and call
/// [`greedy_min_replicas_flat`] directly (see [`crate::greedy_power`]).
pub fn greedy_min_replicas(tree: &Tree, capacity: u64) -> Result<GreedyResult, ModelError> {
    let mut scratch = GreedyScratch::default();
    greedy_min_replicas_flat(&FlatTree::new(tree), capacity, &mut scratch)
}

/// The flat-layout `GR` kernel: one forward scan over post-order positions.
///
/// `flat` must be freshly [rebuilt](FlatTree::rebuild) against the tree's
/// current demand (the layout snapshots client loads). Placements are
/// bit-identical to the pre-flat pointer traversal
/// (the test suite's `reference::greedy_min_replicas`): positions are visited in the
/// exact `traversal::post_order` sequence and the largest-first absorb sorts
/// the same `(flow, NodeId)` keys.
pub fn greedy_min_replicas_flat(
    flat: &FlatTree,
    capacity: u64,
    scratch: &mut GreedyScratch,
) -> Result<GreedyResult, ModelError> {
    greedy_pass(flat, capacity, scratch)?;
    let mut placement = Placement::with_slots(flat.len());
    for &(node, _) in scratch.placed() {
        placement.insert(node, 0);
    }
    let servers = placement.server_count() as u64;
    Ok(GreedyResult { placement, servers })
}

/// The kernel behind [`greedy_min_replicas_flat`]: places `GR`'s servers
/// into `scratch` (see [`GreedyScratch::placed`]) without building a
/// placement, so a capacity sweep scores every pass from its servers'
/// loads and builds a placement only for the pass it keeps.
pub(crate) fn greedy_pass(
    flat: &FlatTree,
    capacity: u64,
    scratch: &mut GreedyScratch,
) -> Result<(), ModelError> {
    assert!(capacity > 0, "capacity must be positive");
    let GreedyScratch {
        flow,
        contributions,
        placed,
    } = scratch;
    flow.clear();
    flow.resize(flat.len(), 0);
    placed.clear();

    for p in flat.positions() {
        let direct = flat.client_load(p);
        if direct > capacity {
            let node = flat.node_at(p);
            return Err(ModelError::Infeasible(format!(
                "clients attached to {node} bundle {direct} requests > capacity {capacity}"
            )));
        }
        let mut f = direct;
        contributions.clear();
        for &c in flat.children(p) {
            let fc = flow[c as usize];
            if fc > 0 {
                contributions.push((fc, flat.node_at(c as usize)));
            }
            f += fc;
        }
        if f > capacity {
            // Absorb the largest child flows first.
            contributions.sort_unstable_by(|a, b| b.cmp(a));
            for &(fc, c) in contributions.iter() {
                placed.push((c, fc));
                f -= fc;
                if f <= capacity {
                    break;
                }
            }
            debug_assert!(
                f <= capacity,
                "direct load fits, so absorbing every child flow must too"
            );
        }
        flow[p] = f;
    }

    let root = flat.root_position();
    if flow[root] > 0 {
        placed.push((flat.node_at(root), flow[root]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use replica_model::{compute_validated, ModeSet};
    use replica_tree::{generate, GeneratorConfig, TreeBuilder};

    fn assert_valid(tree: &Tree, placement: &Placement, w: u64) {
        let modes = ModeSet::single(w).unwrap();
        compute_validated(tree, placement, &modes).expect("greedy placement must be feasible");
    }

    #[test]
    fn single_node_with_client() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        b.add_client(r, 5);
        let t = b.build().unwrap();
        let g = greedy_min_replicas(&t, 10).unwrap();
        assert_eq!(g.servers, 1);
        assert!(g.placement.has_server(r));
        assert_valid(&t, &g.placement, 10);
    }

    #[test]
    fn no_clients_no_servers() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        b.add_child(r);
        let t = b.build().unwrap();
        let g = greedy_min_replicas(&t, 10).unwrap();
        assert_eq!(g.servers, 0);
    }

    #[test]
    fn absorbs_largest_child_first() {
        // root with three children carrying 6, 5, 5; W = 10.
        // Largest-first: absorb the 6, pass 10 to the root → 2 servers.
        let mut b = TreeBuilder::new();
        let r = b.root();
        let c6 = b.add_child(r);
        let c5a = b.add_child(r);
        let c5b = b.add_child(r);
        b.add_client(c6, 6);
        b.add_client(c5a, 5);
        b.add_client(c5b, 5);
        let t = b.build().unwrap();
        let g = greedy_min_replicas(&t, 10).unwrap();
        assert_eq!(g.servers, 2);
        assert!(g.placement.has_server(c6));
        assert!(g.placement.has_server(r));
        assert_valid(&t, &g.placement, 10);
    }

    #[test]
    fn fig1_without_preexisting() {
        // Figure 1 of the paper (ignoring the pre-existing replica at B):
        // clients B:3, C:4, root:2, W = 10 → one server at the root suffices.
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        let b = bld.add_child(a);
        let c = bld.add_child(a);
        bld.add_client(b, 3);
        bld.add_client(c, 4);
        bld.add_client(r, 2);
        let t = bld.build().unwrap();
        let g = greedy_min_replicas(&t, 10).unwrap();
        assert_eq!(g.servers, 1);
        assert!(g.placement.has_server(r));
    }

    #[test]
    fn infeasible_bundle_detected() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r);
        b.add_client(a, 7);
        b.add_client(a, 6); // 13 inseparable requests
        let t = b.build().unwrap();
        assert!(matches!(
            greedy_min_replicas(&t, 10),
            Err(ModelError::Infeasible(_))
        ));
        assert!(greedy_min_replicas(&t, 13).is_ok());
    }

    #[test]
    fn deep_chain_places_periodically() {
        // 30-node chain, a 4-request client at every node, W = 10:
        // a server absorbs at most 2 nodes' worth (8) plus part of the next.
        let mut b = TreeBuilder::new();
        let mut cur = b.root();
        b.add_client(cur, 4);
        for _ in 1..30 {
            cur = b.add_child(cur);
            b.add_client(cur, 4);
        }
        let t = b.build().unwrap();
        let g = greedy_min_replicas(&t, 10).unwrap();
        assert_valid(&t, &g.placement, 10);
        // 120 total requests / 10 per server = at least 12 servers.
        assert!(g.servers >= 12, "needs ≥ 12 servers, got {}", g.servers);
    }

    #[test]
    fn greedy_is_feasible_on_random_trees() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(97);
        for i in 0..40 {
            let cfg = if i % 2 == 0 {
                GeneratorConfig::paper_fat(60)
            } else {
                GeneratorConfig::paper_high(60)
            };
            let t = generate::random_tree(&cfg, &mut rng);
            let g = greedy_min_replicas(&t, 10).unwrap();
            assert_valid(&t, &g.placement, 10);
            let stats = replica_tree::TreeStats::compute(&t);
            assert!(g.servers >= stats.server_lower_bound(10));
        }
    }
}
