//! A deliberately naive reference implementation of the closest policy.
//!
//! [`Assignment`] computes routing with two
//! linear passes; this module recomputes the same quantities the slow,
//! obviously-correct way (walk each client's root path, then sum loads per
//! server). It exists purely so the test suite can differentially test the
//! fast engine — none of the algorithms use it.

use replica_model::{Assignment, Placement};
use replica_tree::{NodeId, Tree};

/// Walks up from each client to its first server — `O(C · depth)`.
pub fn servers_by_walking(tree: &Tree, placement: &Placement) -> Vec<Option<NodeId>> {
    tree.client_ids()
        .map(|c| {
            tree.path_to_root(tree.client(c).attach)
                .find(|&n| placement.has_server(n))
        })
        .collect()
}

/// Per-server loads by summing each client's volume at its server.
pub fn loads_by_summing(tree: &Tree, placement: &Placement) -> Vec<u64> {
    let servers = servers_by_walking(tree, placement);
    let mut loads = vec![0u64; tree.internal_count()];
    for (c, server) in tree.client_ids().zip(servers) {
        if let Some(s) = server {
            loads[s.index()] += tree.requests(c);
        }
    }
    loads
}

/// Asserts the fast [`Assignment`] agrees with the naive recomputation.
///
/// Intended for tests: panics with a descriptive message on divergence.
pub fn assert_matches_reference(tree: &Tree, placement: &Placement) {
    let fast = Assignment::compute(tree, placement);
    let slow_servers = servers_by_walking(tree, placement);
    assert_eq!(
        fast.server_of, slow_servers,
        "per-client server assignment diverged"
    );
    let slow_loads = loads_by_summing(tree, placement);
    for (node, _) in placement.servers() {
        assert_eq!(
            fast.load(node),
            slow_loads[node.index()],
            "load of server {node} diverged"
        );
    }
    // Flow conservation: total requests = served + escaping at the root.
    let served: u64 = placement.servers().map(|(n, _)| fast.load(n)).sum();
    let escaped = fast.outflow[tree.root().index()];
    assert_eq!(
        served + escaped,
        tree.total_requests(),
        "flow conservation violated"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use replica_tree::{generate, GeneratorConfig};

    #[test]
    fn fast_engine_matches_reference_on_random_placements() {
        let mut rng = StdRng::seed_from_u64(31);
        for i in 0..30 {
            let cfg = if i % 2 == 0 {
                GeneratorConfig::paper_fat(50)
            } else {
                GeneratorConfig::paper_high(50)
            };
            let tree = generate::random_tree(&cfg, &mut rng);
            // Random placements of varying density, including empty.
            for density in [0.0, 0.1, 0.4, 0.9] {
                let mut placement = Placement::empty(&tree);
                for n in tree.internal_nodes() {
                    if rng.random_bool(density) {
                        placement.insert(n, 0);
                    }
                }
                assert_matches_reference(&tree, &placement);
            }
        }
    }

    #[test]
    fn deep_path_with_sparse_servers() {
        let tree = generate::path(200, 5);
        for idx in [0usize, 50, 199] {
            let placement =
                Placement::from_nodes(&tree, [replica_tree::NodeId::from_index(idx)], 0);
            assert_matches_reference(&tree, &placement);
        }
    }
}
