//! Property-based tests of the tree substrate: generator invariants,
//! traversal laws, text-format round trips and serde stability under
//! arbitrary seeds and configurations, and the packed storage pinned
//! against references rebuilt in the test.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use replica_tree::{
    generate, text_format, traversal, ClientId, GeneratorConfig, NodeId, Tree, TreeBuilder,
    TreeStats,
};
use serde::Deserialize;

mod support;

/// The wire form's node list, parsed into plain structs: a reference for
/// the packed windows that shares no code with the tree's storage.
#[derive(Deserialize)]
struct WireTree {
    nodes: Vec<WireNode>,
    clients: Vec<WireClient>,
}

#[derive(Deserialize)]
struct WireNode {
    parent: Option<u32>,
    children: Vec<u32>,
    clients: Vec<u32>,
}

#[derive(Deserialize)]
struct WireClient {
    attach: u32,
    requests: u64,
}

/// The reference rebuilt from `tree`'s serialized node list.
fn wire_of(tree: &Tree) -> WireTree {
    serde_json::from_str(&serde_json::to_string(tree).unwrap()).unwrap()
}

/// `tree`'s accessors against `wire`, and its post order against the
/// recursive one.
fn check_packed(tree: &Tree, wire: &WireTree) -> Result<(), String> {
    prop_assert_eq!(tree.internal_count(), wire.nodes.len());
    prop_assert_eq!(tree.client_count(), wire.clients.len());
    let ids = |list: &[u32]| list.iter().map(|&i| i as usize).collect::<Vec<_>>();
    for (i, node) in wire.nodes.iter().enumerate() {
        let n = NodeId::from_index(i);
        prop_assert_eq!(
            tree.parent(n).map(NodeId::index),
            node.parent.map(|p| p as usize)
        );
        let children: Vec<usize> = tree.children(n).iter().map(|c| c.index()).collect();
        prop_assert_eq!(children, ids(&node.children));
        let clients: Vec<usize> = tree.clients_of(n).iter().map(|c| c.index()).collect();
        prop_assert_eq!(clients, ids(&node.clients));
        prop_assert_eq!(tree.is_internal_leaf(n), node.children.is_empty());
    }
    for (i, client) in wire.clients.iter().enumerate() {
        let c = tree.client(ClientId::from_index(i));
        prop_assert_eq!(c.attach.index(), client.attach as usize);
        prop_assert_eq!(c.requests, client.requests);
    }
    prop_assert_eq!(tree.post_order(), &support::recursive_post_order(tree)[..]);
    Ok(())
}

/// Applies `updates` (client picked modulo the client count) through
/// `set_requests`, checking every node's demand and the total after each.
fn check_demand_under_updates(tree: &mut Tree, updates: &[(usize, u64)]) -> Result<(), String> {
    let check = |tree: &Tree| -> Result<(), String> {
        let mut total = 0;
        for n in tree.internal_nodes() {
            let sum: u64 = tree.clients_of(n).iter().map(|&c| tree.requests(c)).sum();
            prop_assert_eq!(tree.client_load(n), sum, "demand of {}", n);
            total += sum;
        }
        prop_assert_eq!(tree.total_requests(), total);
        Ok(())
    };
    check(tree)?;
    if tree.client_count() == 0 {
        return Ok(());
    }
    for &(pick, requests) in updates {
        tree.set_requests(ClientId::from_index(pick % tree.client_count()), requests);
        check(tree)?;
    }
    Ok(())
}

/// One builder step: a child (`true`) or a client, under the node picked
/// modulo the nodes so far, with the given requests for a client.
type BuildStep = (bool, usize, u64);

fn updates() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..10_000, 0u64..1_000), 0..24)
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generator_respects_every_configured_bound(
        cfg in arbitrary_config(),
        seed in 0u64..10_000,
    ) {
        let tree = generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(tree.internal_count(), cfg.internal_nodes);
        let stats = TreeStats::compute(&tree);
        prop_assert!(stats.max_children <= cfg.children_range.1);
        for c in tree.client_ids() {
            let r = tree.requests(c);
            prop_assert!(r >= cfg.requests_range.0 && r <= cfg.requests_range.1);
        }
        // Clients only attach where the generator promised: one per node max.
        for n in tree.internal_nodes() {
            prop_assert!(tree.clients_of(n).len() <= 1);
        }
    }

    #[test]
    fn traversals_visit_each_node_exactly_once(
        cfg in arbitrary_config(),
        seed in 0u64..10_000,
    ) {
        let tree = generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed));
        let post = tree.post_order();
        prop_assert_eq!(post.len(), tree.internal_count());
        let mut seen = vec![false; tree.internal_count()];
        for n in post {
            prop_assert!(!seen[n.index()], "duplicate in post order");
            seen[n.index()] = true;
        }
        // Post order puts every parent after its children, so reversed it
        // puts parents first.
        let mut pos = vec![0usize; tree.internal_count()];
        for (i, n) in post.iter().enumerate() {
            pos[n.index()] = i;
        }
        for n in tree.internal_nodes() {
            if let Some(p) = tree.parent(n) {
                prop_assert!(pos[p.index()] > pos[n.index()]);
            }
        }
        prop_assert_eq!(post.last(), Some(&tree.root()));
    }

    /// Generated trees and their JSON round trips: the packed windows, the
    /// cached post order and the per-node demand under `set_requests`.
    #[test]
    fn generated_trees_pack_like_their_wire_form(
        cfg in arbitrary_config(),
        seed in 0u64..10_000,
        updates in updates(),
    ) {
        let mut tree = generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed));
        let wire = wire_of(&tree);
        check_packed(&tree, &wire)?;
        let mut back: Tree = serde_json::from_str(&serde_json::to_string(&tree).unwrap()).unwrap();
        check_packed(&back, &wire)?;
        check_demand_under_updates(&mut tree, &updates)?;
        check_demand_under_updates(&mut back, &updates)?;
    }

    /// Builder trees from random steps: windows keep insertion order (the
    /// steps' own record), the serialized node list spells the same, and a
    /// JSON round trip reads back the same storage.
    #[test]
    fn builder_trees_pack_in_insertion_order(
        steps in prop::collection::vec((0u32..2, 0usize..1_000, 0u64..50), 0..80),
        updates in updates(),
    ) {
        let steps: Vec<BuildStep> = steps.into_iter().map(|(k, at, r)| (k == 0, at, r)).collect();
        let mut b = TreeBuilder::new();
        let mut parent = vec![None];
        let mut children = vec![Vec::new()];
        let mut clients = vec![Vec::new()];
        let mut records = Vec::new();
        for &(is_child, at, requests) in &steps {
            let node = NodeId::from_index(at % b.internal_count());
            if is_child {
                let id = b.add_child(node);
                parent.push(Some(node.index() as u32));
                children[node.index()].push(id.index() as u32);
                children.push(Vec::new());
                clients.push(Vec::new());
            } else {
                let id = b.add_client(node, requests);
                clients[node.index()].push(id.index() as u32);
                records.push((node.index() as u32, requests));
            }
        }
        let mut tree = b.build().unwrap();
        let expected = WireTree {
            nodes: (0..parent.len())
                .map(|i| WireNode {
                    parent: parent[i],
                    children: children[i].clone(),
                    clients: clients[i].clone(),
                })
                .collect(),
            clients: records
                .iter()
                .map(|&(attach, requests)| WireClient { attach, requests })
                .collect(),
        };
        check_packed(&tree, &expected)?;
        check_packed(&tree, &wire_of(&tree))?;
        let mut back: Tree = serde_json::from_str(&serde_json::to_string(&tree).unwrap()).unwrap();
        check_packed(&back, &expected)?;
        check_demand_under_updates(&mut tree, &updates)?;
        check_demand_under_updates(&mut back, &updates)?;
    }

    #[test]
    fn subtree_requests_decompose(
        cfg in arbitrary_config(),
        seed in 0u64..10_000,
    ) {
        let tree = generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed));
        let counts = traversal::SubtreeCounts::new(&tree);
        // Root subtree carries everything.
        prop_assert_eq!(
            counts.requests_within[tree.root().index()],
            tree.total_requests()
        );
        // And every node's tally is its own load plus its children's.
        for n in tree.internal_nodes() {
            let children_sum: u64 = tree
                .children(n)
                .iter()
                .map(|c| counts.requests_within[c.index()])
                .sum();
            prop_assert_eq!(
                counts.requests_within[n.index()],
                tree.client_load(n) + children_sum
            );
        }
    }

    #[test]
    fn text_format_round_trips_any_generated_tree(
        cfg in arbitrary_config(),
        seed in 0u64..10_000,
    ) {
        let tree = generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed));
        let text = text_format::to_text(&tree);
        let back = text_format::parse(&text).unwrap();
        prop_assert_eq!(text_format::to_text(&back), text);
        prop_assert_eq!(back.internal_count(), tree.internal_count());
        prop_assert_eq!(back.total_requests(), tree.total_requests());
        prop_assert_eq!(
            traversal::height(&back),
            traversal::height(&tree)
        );
    }

    #[test]
    fn serde_preserves_stats(
        cfg in arbitrary_config(),
        seed in 0u64..10_000,
    ) {
        let tree = generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed));
        let json = serde_json::to_string(&tree).unwrap();
        let back: replica_tree::Tree = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(TreeStats::compute(&back), TreeStats::compute(&tree));
    }
}
