//! Property-based tests of the closest-policy semantics: the fast routing
//! engine vs the naive reference, flow conservation, solution-count
//! identities, and the Eq. 2 / Eq. 4 correspondence.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_model::{
    Assignment, CostModel, Instance, ModeSet, Placement, PowerModel, PreExisting, Solution,
};
use replica_tree::{generate, GeneratorConfig, NodeId};

#[path = "support/reference.rs"]
mod reference;

fn tree_and_placement(seed: u64, nodes: usize, density: f64) -> (replica_tree::Tree, Placement) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = GeneratorConfig {
        internal_nodes: nodes,
        children_range: (1, 5),
        client_probability: 0.7,
        requests_range: (1, 9),
    };
    let tree = generate::random_tree(&cfg, &mut rng);
    let mut placement = Placement::empty(&tree);
    for n in tree.internal_nodes() {
        if rng.random_bool(density) {
            placement.insert(n, rng.random_range(0..2));
        }
    }
    (tree, placement)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_routing_equals_reference(
        seed in 0u64..100_000,
        nodes in 1usize..60,
        density in 0.0f64..1.0,
    ) {
        let (tree, placement) = tree_and_placement(seed, nodes, density);
        reference::assert_matches_reference(&tree, &placement);
    }

    #[test]
    fn served_plus_escaped_equals_total(
        seed in 0u64..100_000,
        nodes in 1usize..60,
        density in 0.0f64..1.0,
    ) {
        let (tree, placement) = tree_and_placement(seed, nodes, density);
        let a = Assignment::compute(&tree, &placement);
        let served: u64 = placement.servers().map(|(n, _)| a.load(n)).sum();
        prop_assert_eq!(served + a.outflow[tree.root().index()], tree.total_requests());
        // Every client is either unserved or routed to a true ancestor.
        for (c, server) in tree.client_ids().zip(&a.server_of) {
            if let Some(s) = server {
                prop_assert!(tree.is_ancestor_or_self(*s, tree.client(c).attach));
                prop_assert!(placement.has_server(*s));
            }
        }
    }

    #[test]
    fn solution_counts_are_a_partition(
        seed in 0u64..100_000,
        nodes in 2usize..40,
        pre_count in 0usize..8,
    ) {
        let (tree, placement) = tree_and_placement(seed, nodes, 0.8);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut pre_nodes: Vec<NodeId> = tree.internal_nodes().collect();
        for i in (1..pre_nodes.len()).rev() {
            pre_nodes.swap(i, rng.random_range(0..=i));
        }
        pre_nodes.truncate(pre_count.min(tree.internal_count()));
        let pre: PreExisting =
            pre_nodes.iter().map(|&n| (n, rng.random_range(0..2usize))).collect();
        let instance = Instance::builder(tree)
            .modes(ModeSet::new(vec![9, 18]).unwrap())
            .pre_existing(pre)
            .cost(CostModel::uniform(2, 0.3, 0.1, 0.02))
            .power(PowerModel::new(1.0, 2.0))
            .build()
            .unwrap();
        let Ok(sol) = Solution::evaluate(&instance, &placement) else {
            return Ok(()); // infeasible placements are out of scope here
        };
        // Identities: servers split into new + reused; pre-existing split
        // into reused + deleted.
        prop_assert_eq!(
            sol.counts.total_servers(),
            placement.server_count() as u64
        );
        prop_assert_eq!(
            sol.counts.reused_total() + sol.counts.deleted_total(),
            instance.pre_existing().count() as u64
        );
        // Eq. 4 equals the per-server regrouped sum (the pruned DP's view).
        let m = instance.modes().count();
        let mut regrouped: f64 = instance
            .pre_existing()
            .iter()
            .map(|(_, o)| instance.cost().deleted_server(o))
            .sum();
        for (node, mode) in sol.placement.servers() {
            regrouped += match instance.pre_existing().mode_of(node) {
                Some(o) => instance.cost().reused_server(o, mode)
                    - instance.cost().deleted_server(o),
                None => instance.cost().new_server(mode),
            };
        }
        prop_assert!((regrouped - sol.cost).abs() < 1e-9,
            "regrouped {regrouped} vs Eq.4 {}", sol.cost);
        let _ = m;
    }

    #[test]
    fn lowest_feasible_never_increases_power(
        seed in 0u64..100_000,
        nodes in 2usize..40,
    ) {
        let (tree, placement) = tree_and_placement(seed, nodes, 0.8);
        let instance = Instance::builder(tree)
            .modes(ModeSet::new(vec![9, 18]).unwrap())
            .power(PowerModel::new(5.0, 3.0))
            .build()
            .unwrap();
        // Force everything to the top mode, then compare policies.
        let mut top = placement.clone();
        for (n, _) in placement.servers() {
            top.insert(n, 1);
        }
        let assigned = Solution::evaluate(&instance, &top);
        let lowered = Solution::evaluate_with_policy(
            &instance,
            &top,
            replica_model::ModePolicy::LowestFeasible,
        );
        match (assigned, lowered) {
            (Ok(a), Ok(l)) => prop_assert!(l.power <= a.power + 1e-9),
            (Err(_), Err(_)) => {}
            // Top-mode placement can only be *more* permissive, so this
            // direction is impossible:
            (Err(_), Ok(_)) => {}
            (Ok(_), Err(_)) => prop_assert!(false, "lowering broke feasibility"),
        }
    }
}
