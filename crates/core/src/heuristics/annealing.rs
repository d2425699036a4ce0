//! Seeded simulated annealing over placements.
//!
//! Escapes the local optima that [`local_search`](super::local_search) gets
//! stuck in by occasionally accepting worsening moves with probability
//! `exp(−ΔE/T)` under a geometric cooling schedule. Energy is the power of
//! the placement; infeasible or over-budget proposals are rejected outright,
//! so the walk stays inside the feasible, in-budget region. Fully
//! deterministic given the seed.

use super::{better, score, HeuristicResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_model::{Instance, ModelError, Placement};
use replica_tree::NodeId;

/// Annealing schedule parameters.
#[derive(Clone, Copy, Debug)]
pub struct AnnealingOptions {
    /// Number of proposals.
    pub iterations: usize,
    /// Initial temperature as a fraction of the seed's power.
    pub initial_temperature_fraction: f64,
    /// Geometric cooling factor applied every [`Self::cooling_interval`].
    pub cooling: f64,
    /// Proposals between cooling steps.
    pub cooling_interval: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealingOptions {
    fn default() -> Self {
        AnnealingOptions {
            iterations: 20_000,
            initial_temperature_fraction: 0.05,
            cooling: 0.95,
            cooling_interval: 200,
            seed: 0xA11EA,
        }
    }
}

/// Runs annealing from `start`; returns the best placement visited.
pub fn solve(
    instance: &Instance,
    start: &Placement,
    cost_bound: f64,
    options: AnnealingOptions,
) -> Result<HeuristicResult, ModelError> {
    let mut current = score(instance, start, cost_bound).ok_or_else(|| {
        ModelError::Infeasible("annealing needs a feasible, in-budget starting point".into())
    })?;
    let mut best = current.clone();

    let tree = instance.tree();
    let n = tree.internal_count();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut temperature = (current.power * options.initial_temperature_fraction).max(1e-6);

    for step in 0..options.iterations {
        if step > 0 && step % options.cooling_interval == 0 {
            temperature *= options.cooling;
        }
        let node = NodeId::from_index(rng.random_range(0..n));
        let proposal = propose(tree, &current.placement, node, &mut rng);
        let Some(candidate) = score(instance, &proposal, cost_bound) else {
            continue;
        };
        let delta = candidate.power - current.power;
        let accept = delta <= 0.0 || rng.random::<f64>() < (-delta / temperature).exp();
        if accept {
            current = candidate;
            if better(current.power, current.cost, &best) {
                best = current.clone();
            }
        }
    }
    Ok(best)
}

/// Random move anchored at `node`: toggle, or relocate to a random
/// neighbor.
fn propose(
    tree: &replica_tree::Tree,
    placement: &Placement,
    node: NodeId,
    rng: &mut StdRng,
) -> Placement {
    let mut p = placement.clone();
    if p.has_server(node) {
        // Either drop it, or slide it to a random neighbor.
        let children = tree.children(node);
        let slide = !children.is_empty() && rng.random_bool(0.5);
        p.remove(node);
        if slide {
            let target = if tree.parent(node).is_some() && rng.random_bool(0.3) {
                tree.parent(node).expect("checked above")
            } else {
                children[rng.random_range(0..children.len())]
            };
            p.insert(target, 0);
        }
    } else {
        p.insert(node, 0);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::power_greedy;
    use replica_model::{compute_validated, ModeSet, PowerModel};
    use replica_tree::{generate, GeneratorConfig};

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
    fn never_worse_than_seed_and_feasible() {
        for seed in 0..6 {
            let inst = instance(seed, 25);
            let start = power_greedy::solve(&inst, f64::INFINITY).unwrap();
            let opts = AnnealingOptions {
                iterations: 3_000,
                ..Default::default()
            };
            let res = solve(&inst, &start.placement, f64::INFINITY, opts).unwrap();
            assert!(res.power <= start.power + 1e-9);
            compute_validated(inst.tree(), &res.placement, inst.modes()).unwrap();
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = instance(9, 25);
        let start = power_greedy::solve(&inst, f64::INFINITY).unwrap();
        let opts = AnnealingOptions {
            iterations: 2_000,
            seed: 7,
            ..Default::default()
        };
        let a = solve(&inst, &start.placement, f64::INFINITY, opts).unwrap();
        let b = solve(&inst, &start.placement, f64::INFINITY, opts).unwrap();
        assert_eq!(a.placement, b.placement);
        assert!((a.power - b.power).abs() < 1e-12);
    }

    #[test]
    fn budget_is_never_violated() {
        let inst = instance(11, 25);
        let start = power_greedy::solve(&inst, f64::INFINITY).unwrap();
        let bound = start.cost + 1.0;
        let opts = AnnealingOptions {
            iterations: 2_000,
            ..Default::default()
        };
        let res = solve(&inst, &start.placement, bound, opts).unwrap();
        assert!(res.cost <= bound + 1e-9);
    }

    #[test]
    fn rejects_infeasible_seed() {
        let inst = instance(12, 20);
        let empty = Placement::empty(inst.tree());
        assert!(solve(&inst, &empty, f64::INFINITY, AnnealingOptions::default()).is_err());
    }
}
