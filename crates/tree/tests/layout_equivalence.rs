//! Property battery for the flat post-order layout ([`replica_tree::FlatTree`]).
//!
//! The flat layout is the substrate every hot solver iterates, so its
//! invariants are load-bearing for the whole workspace: post-order
//! positions must be a permutation agreeing with the pointer traversal,
//! subtree ranges must be contiguous and properly nested, the packed
//! children/client windows must round-trip against the pointer arena, and
//! the precomputed per-node demand aggregates must equal recomputation
//! from scratch. Each law is checked over arbitrary generator
//! configurations and seeds, and again after in-place `rebuild` reuse.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use replica_tree::{generate, traversal, FlatTree, GeneratorConfig, Tree};

mod support;

fn arbitrary_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        1usize..120,
        1usize..4,
        0usize..6,
        0.0f64..1.0,
        1u64..8,
        0u64..8,
    )
        .prop_map(|(nodes, cmin, cextra, p, rmin, rextra)| GeneratorConfig {
            internal_nodes: nodes,
            children_range: (cmin, cmin + cextra),
            client_probability: p,
            requests_range: (rmin, rmin + rextra),
        })
}

fn arbitrary_tree() -> impl Strategy<Value = Tree> {
    (arbitrary_config(), 0u64..10_000)
        .prop_map(|(cfg, seed)| generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Positions are a permutation of the nodes, the inverse map is
    /// consistent both ways, and the order is *exactly* the left-to-right
    /// post-order, here written recursively in the test (the bit-identity
    /// prerequisite for the flat solvers).
    #[test]
    fn positions_are_the_post_order_permutation(tree in arbitrary_tree()) {
        let flat = FlatTree::new(&tree);
        prop_assert_eq!(flat.len(), tree.internal_count());
        let mut seen = vec![false; flat.len()];
        for p in flat.positions() {
            let n = flat.node_at(p);
            prop_assert!(!seen[n.index()], "node visited twice");
            seen[n.index()] = true;
            prop_assert_eq!(flat.position_of(n), p);
        }
        prop_assert!(seen.into_iter().all(|s| s));
        let reference = support::recursive_post_order(&tree);
        for (p, n) in reference.iter().enumerate() {
            prop_assert_eq!(flat.node_at(p), *n);
        }
        prop_assert_eq!(flat.root_position(), flat.len() - 1);
        prop_assert_eq!(flat.node_at(flat.root_position()), tree.root());
    }

    /// Every subtree is a contiguous position range ending at its root,
    /// the range content is exactly the pointer-reachable descendant set,
    /// and ranges are properly nested (child ⊂ parent, siblings disjoint).
    #[test]
    fn subtree_ranges_are_contiguous_and_nested(tree in arbitrary_tree()) {
        let flat = FlatTree::new(&tree);
        for p in flat.positions() {
            let range = flat.subtree_range(p);
            prop_assert_eq!(range.end, p + 1, "subtree ends at its root");
            prop_assert_eq!(flat.subtree_size(p), range.len());

            // Pointer-walk the subtree and compare the position sets.
            let mut reachable = vec![flat.node_at(p)];
            let mut i = 0;
            while i < reachable.len() {
                reachable.extend(tree.children(reachable[i]).iter().copied());
                i += 1;
            }
            let mut expected: Vec<usize> =
                reachable.iter().map(|&n| flat.position_of(n)).collect();
            expected.sort_unstable();
            let actual: Vec<usize> = range.clone().collect();
            prop_assert_eq!(actual, expected, "range == descendant set");

            // Nesting: each child's range sits inside the parent's strict
            // prefix, and consecutive children's ranges are adjacent —
            // which makes sibling ranges pairwise disjoint.
            let mut cursor = range.start;
            for &c in flat.children(p) {
                let child = flat.subtree_range(c as usize);
                prop_assert_eq!(child.start, cursor, "children pack left to right");
                prop_assert!(child.end <= p, "child range precedes the parent");
                cursor = child.end;
            }
            prop_assert_eq!(cursor, p, "children + self tile the whole range");
        }
    }

    /// The packed children and client windows round-trip against the
    /// pointer arena: same elements, same order, and child positions
    /// ascend strictly below the parent's.
    #[test]
    fn windows_round_trip_against_pointer_tree(tree in arbitrary_tree()) {
        let flat = FlatTree::new(&tree);
        for p in flat.positions() {
            let n = flat.node_at(p);

            let from_window: Vec<_> = flat
                .children(p)
                .iter()
                .map(|&c| flat.node_at(c as usize))
                .collect();
            prop_assert_eq!(&from_window[..], tree.children(n));
            let mut prev = None;
            for &c in flat.children(p) {
                prop_assert!((c as usize) < p, "children precede the parent");
                prop_assert!(prev.is_none_or(|q| q < c), "child positions ascend");
                prop_assert_eq!(flat.parent_position(c as usize), Some(p));
                prev = Some(c);
            }

            prop_assert_eq!(flat.clients(p), tree.clients_of(n));
        }
        prop_assert_eq!(flat.parent_position(flat.root_position()), None);
    }

    /// Precomputed demand aggregates equal recomputation: per-node client
    /// load against the arena, subtree load against [`SubtreeCounts`], and
    /// the root carries the whole tree's demand.
    #[test]
    fn demand_aggregates_equal_recomputation(tree in arbitrary_tree()) {
        let flat = FlatTree::new(&tree);
        let counts = traversal::SubtreeCounts::new(&tree);
        for p in flat.positions() {
            let n = flat.node_at(p);
            let direct: u64 = flat.clients(p).iter().map(|&c| tree.requests(c)).sum();
            prop_assert_eq!(flat.client_load(p), direct);
            prop_assert_eq!(flat.client_load(p), tree.client_load(n));
            prop_assert_eq!(flat.subtree_load(p), counts.requests_within[n.index()]);

            // Bottom-up decomposition straight off the flat arrays.
            let children_sum: u64 = flat
                .children(p)
                .iter()
                .map(|&c| flat.subtree_load(c as usize))
                .sum();
            prop_assert_eq!(flat.subtree_load(p), flat.client_load(p) + children_sum);
        }
        prop_assert_eq!(flat.subtree_load(flat.root_position()), tree.total_requests());
    }

    /// `rebuild` on a warm layout (arbitrary previous occupant, larger or
    /// smaller) yields byte-for-byte the same views as a fresh build.
    #[test]
    fn rebuild_reuse_equals_fresh_build(
        previous in arbitrary_tree(),
        tree in arbitrary_tree(),
    ) {
        let mut warm = FlatTree::new(&previous);
        warm.rebuild(&tree);
        let fresh = FlatTree::new(&tree);
        prop_assert_eq!(warm.len(), fresh.len());
        for p in fresh.positions() {
            prop_assert_eq!(warm.node_at(p), fresh.node_at(p));
            prop_assert_eq!(warm.children(p), fresh.children(p));
            prop_assert_eq!(warm.clients(p), fresh.clients(p));
            prop_assert_eq!(warm.client_load(p), fresh.client_load(p));
            prop_assert_eq!(warm.subtree_load(p), fresh.subtree_load(p));
            prop_assert_eq!(warm.subtree_range(p), fresh.subtree_range(p));
            prop_assert_eq!(warm.parent_position(p), fresh.parent_position(p));
        }
    }
}
