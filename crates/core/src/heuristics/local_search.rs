//! First-improvement hill climbing over placements.
//!
//! Starting from any feasible, budget-respecting placement (typically the
//! [`power_greedy`](super::power_greedy) outcome), repeatedly scans a move
//! neighborhood and applies the first strictly improving move
//! (lexicographically lower `(power, cost)`), until a full scan yields no
//! improvement or the iteration cap is hit.
//!
//! Moves:
//! * **Remove** a server (its load spills to the next ancestor server);
//! * **Add** a server at an empty node (off-loads its nearest server);
//! * **Relocate** a server to its parent or one of its children;
//!
//! re-moding is implicit: every candidate is evaluated under
//! `ModePolicy::LowestFeasible`, so modes always track loads.

use super::{better, score, HeuristicResult};
use replica_model::{Instance, ModelError, Placement};
use replica_tree::NodeId;

/// Tuning for [`solve`].
#[derive(Clone, Copy, Debug)]
pub struct LocalSearchOptions {
    /// Maximum number of applied improvements.
    pub max_steps: usize,
}

impl Default for LocalSearchOptions {
    fn default() -> Self {
        LocalSearchOptions { max_steps: 10_000 }
    }
}

/// Runs hill climbing from `start`; returns the local optimum reached.
///
/// `start` must itself score within the budget, otherwise an
/// `Err(Infeasible)` is returned (seed with a constructive heuristic first).
pub fn solve(
    instance: &Instance,
    start: &Placement,
    cost_bound: f64,
    options: LocalSearchOptions,
) -> Result<HeuristicResult, ModelError> {
    let mut incumbent = score(instance, start, cost_bound).ok_or_else(|| {
        ModelError::Infeasible("local search needs a feasible, in-budget starting point".into())
    })?;

    let tree = instance.tree();
    let mut steps = 0usize;
    'outer: while steps < options.max_steps {
        for node in tree.internal_nodes() {
            if let Some(improved) = try_moves(instance, &incumbent, node, cost_bound) {
                incumbent = improved;
                steps += 1;
                continue 'outer; // restart the scan from the new incumbent
            }
        }
        break; // full scan without improvement: local optimum
    }
    Ok(incumbent)
}

/// Tries all moves anchored at `node`, returning the first improvement.
fn try_moves(
    instance: &Instance,
    incumbent: &HeuristicResult,
    node: NodeId,
    cost_bound: f64,
) -> Option<HeuristicResult> {
    let tree = instance.tree();
    let has = incumbent.placement.has_server(node);
    let mut candidates: Vec<Placement> = Vec::new();

    if has {
        // Remove.
        let mut p = incumbent.placement.clone();
        p.remove(node);
        candidates.push(p);
        // Relocate to the parent.
        if let Some(parent) = tree.parent(node) {
            if !incumbent.placement.has_server(parent) {
                let mut p = incumbent.placement.clone();
                p.remove(node);
                p.insert(parent, 0);
                candidates.push(p);
            }
        }
        // Relocate to each child.
        for &child in tree.children(node) {
            if !incumbent.placement.has_server(child) {
                let mut p = incumbent.placement.clone();
                p.remove(node);
                p.insert(child, 0);
                candidates.push(p);
            }
        }
    } else {
        // Add.
        let mut p = incumbent.placement.clone();
        p.insert(node, 0);
        candidates.push(p);
    }

    candidates
        .into_iter()
        .filter_map(|p| score(instance, &p, cost_bound))
        .find(|c| better(c.power, c.cost, incumbent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::power_greedy;
    use replica_model::{compute_validated, ModeSet, PowerModel};
    use replica_tree::{generate, GeneratorConfig, TreeBuilder};

    fn instance(seed: u64, n: usize) -> Instance {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::random_tree(&GeneratorConfig::paper_power(n), &mut rng);
        let modes = ModeSet::new(vec![5, 10]).unwrap();
        let power = PowerModel::paper_experiment3(&modes);
        Instance::builder(tree)
            .modes(modes)
            .power(power)
            .build()
            .unwrap()
    }

    #[test]
    fn never_worsens_the_seed() {
        for seed in 0..10 {
            let inst = instance(seed, 30);
            let seed_result = power_greedy::solve(&inst, f64::INFINITY).unwrap();
            let polished = solve(
                &inst,
                &seed_result.placement,
                f64::INFINITY,
                LocalSearchOptions::default(),
            )
            .unwrap();
            assert!(polished.power <= seed_result.power + 1e-9);
            compute_validated(inst.tree(), &polished.placement, inst.modes()).unwrap();
        }
    }

    #[test]
    fn fixes_an_obviously_bad_seed() {
        // Root-only W₂ server for a 4-request client; moving nothing beats
        // re-moding down, which LowestFeasible already does — so craft a
        // case where relocation wins: server at root, but the client hangs
        // from a deep child; power is mode-driven so relocation is neutral,
        // while *removal* of redundant servers is the win tested here.
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r);
        b.add_client(a, 3);
        let inst = Instance::builder(b.build().unwrap())
            .modes(ModeSet::new(vec![5, 10]).unwrap())
            .power(PowerModel::new(1.0, 2.0))
            .build()
            .unwrap();
        // Seed: servers at both r and a (redundant).
        let mut seedp = Placement::empty(inst.tree());
        seedp.insert(r, 1);
        seedp.insert(a, 1);
        let res = solve(&inst, &seedp, f64::INFINITY, LocalSearchOptions::default()).unwrap();
        assert_eq!(
            res.servers, 1,
            "hill climbing must drop the redundant server"
        );
        assert!((res.power - 26.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_seed_is_rejected() {
        let inst = instance(1, 20);
        let empty = Placement::empty(inst.tree());
        assert!(solve(&inst, &empty, f64::INFINITY, LocalSearchOptions::default()).is_err());
    }

    #[test]
    fn step_cap_is_honored() {
        let inst = instance(2, 30);
        let seed_result = power_greedy::solve(&inst, f64::INFINITY).unwrap();
        let capped = solve(
            &inst,
            &seed_result.placement,
            f64::INFINITY,
            LocalSearchOptions { max_steps: 0 },
        )
        .unwrap();
        assert!(
            (capped.power - seed_result.power).abs() < 1e-9,
            "0 steps = seed unchanged"
        );
    }
}
