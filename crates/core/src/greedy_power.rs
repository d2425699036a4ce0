//! The power-adapted greedy baseline (`GR`) of Experiment 3 (§5.2).
//!
//! The paper compares its bi-criteria DP against the algorithm of \[19\]
//! "modified for power as explained above": `GR` knows nothing about power,
//! but it can be swept over the capacity value — *"we try all values
//! 5 ≤ W ≤ 10, and compute the corresponding cost and power consumption.
//! To be fair, when a server has 5 requests or less, we operate it under the
//! first mode `W₁`. Given a bound on the cost, we keep the solution that
//! minimizes the power consumption."*
//!
//! Concretely: for each trial capacity `W` run the
//! [`greedy_min_replicas`](crate::greedy::greedy_min_replicas) kernel,
//! operate every placed server at the smallest mode that fits its actual
//! load (the [`ModePolicy::LowestFeasible`](replica_model::ModePolicy)
//! mode, read off the kernel's flow at the server), and keep, per budget,
//! the feasible sweep point of minimal power. Pre-existing servers are
//! reused *incidentally* when the greedy happens to choose them.
//!
//! Each sweep point is scored from its servers alone: the pass tallies
//! them into [`SolutionCounts`] and takes Eq. 4 cost and Eq. 3 power from
//! [`SolutionCounts::cost_and_power`], the call
//! [`Solution::evaluate_with_policy`](replica_model::Solution::evaluate_with_policy)
//! scores with, so every score is bit-identical to evaluating the
//! placement (`tests/tally_oracle.rs` checks it on every point). A
//! placement is built only for a point that is returned: every point for
//! [`paper_sweep`], the winner alone for [`solve`] and for
//! [`IncrementalDp::greedy_fallback`](crate::IncrementalDp::greedy_fallback),
//! which share one sweep driver.

use crate::arena::SolveArena;
use crate::greedy::{greedy_pass, GreedyScratch};
use replica_model::{le_tolerant, Instance, ModelError, Placement, SolutionCounts};
use replica_tree::{FlatTree, NodeId};

/// One sweep point of the `GR` baseline.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Trial capacity handed to the greedy.
    pub trial_capacity: u64,
    /// The placement (modes already lowered to the load-fitting mode).
    pub placement: Placement,
    /// Eq. 4 cost.
    pub cost: f64,
    /// Eq. 3 power.
    pub power: f64,
    /// Server count.
    pub servers: u64,
}

/// One scored trial capacity, as the sweep driver hands it over.
struct Pass<'a> {
    trial_capacity: u64,
    cost: f64,
    power: f64,
    instance: &'a Instance,
    /// The pass's servers as `(node, load)`.
    placed: &'a [(NodeId, u64)],
}

impl Pass<'_> {
    /// The sweep point, its placement built from the servers.
    fn point(&self) -> SweepPoint {
        let mut placement = Placement::empty(self.instance.tree());
        for &(node, load) in self.placed {
            placement.insert(node, lowest_mode(self.instance, load));
        }
        SweepPoint {
            trial_capacity: self.trial_capacity,
            placement,
            cost: self.cost,
            power: self.power,
            servers: self.placed.len() as u64,
        }
    }
}

/// The load-fitting mode of a `GR` server. Cannot fail: every load is
/// ≤ the trial capacity ≤ `W_M`.
fn lowest_mode(instance: &Instance, load: u64) -> usize {
    instance
        .modes()
        .mode_for_load(load)
        .expect("greedy loads with trial W ≤ W_M fit a mode")
}

/// The sweep driver: runs the greedy kernel over `flat` (fresh for
/// `instance`'s tree) for every trial capacity `W₁..=W_M`, tallies each
/// feasible pass's servers at their load-fitting modes, and hands the
/// scored pass to `visit`. Infeasible trial capacities (bundle larger
/// than the trial `W`) are skipped.
fn sweep(
    instance: &Instance,
    flat: &FlatTree,
    scratch: &mut GreedyScratch,
    mut visit: impl FnMut(&Pass<'_>),
) {
    let empty = SolutionCounts::empty(instance);
    let mut counts = empty.clone();
    for w in instance.modes().capacity(0)..=instance.max_capacity() {
        if greedy_pass(flat, w, scratch).is_err() {
            continue;
        }
        counts.reset_to(&empty);
        for &(node, load) in scratch.placed() {
            counts.add_server(instance, node, lowest_mode(instance, load));
        }
        let (cost, power) = counts.cost_and_power(instance);
        visit(&Pass {
            trial_capacity: w,
            cost,
            power,
            instance,
            placed: scratch.placed(),
        });
    }
}

/// Runs the greedy for every trial capacity of the paper's sweep range —
/// every integer `W` from `W₁` to `W_M` — and scores each outcome.
/// Infeasible trial capacities (bundle larger than the trial `W`) are
/// skipped.
///
/// The flat layout is rebuilt **once** per instance in `arena` and every
/// trial capacity re-runs the allocation-free greedy kernel over it; with
/// a per-thread arena (the fleet hot path) the whole sweep allocates
/// nothing in steady state beyond the returned placements.
pub fn paper_sweep(instance: &Instance, arena: &mut SolveArena) -> Vec<SweepPoint> {
    arena.flat.rebuild(instance.tree());
    let mut out = Vec::new();
    sweep(instance, &arena.flat, &mut arena.greedy, |pass| {
        out.push(pass.point())
    });
    out
}

/// Minimum-power sweep point with cost within `cost_bound`.
pub fn best_within(points: &[SweepPoint], cost_bound: f64) -> Option<&SweepPoint> {
    points
        .iter()
        .filter(|p| le_tolerant(p.cost, cost_bound))
        .min_by(|a, b| a.power.total_cmp(&b.power).then(a.cost.total_cmp(&b.cost)))
}

/// [`paper_sweep`] + [`best_within`] in one call, building only the
/// winner's placement.
pub fn solve(
    instance: &Instance,
    cost_bound: f64,
    arena: &mut SolveArena,
) -> Result<SweepPoint, ModelError> {
    arena.flat.rebuild(instance.tree());
    solve_flat(instance, &arena.flat, &mut arena.greedy, cost_bound)
}

/// [`solve`] over a layout the caller keeps fresh for `instance`'s tree
/// (the warm start of
/// [`IncrementalDp::greedy_fallback`](crate::IncrementalDp::greedy_fallback)).
/// A pass builds its placement only when it beats the incumbent; ties
/// keep the earlier trial capacity, as [`best_within`] does.
pub(crate) fn solve_flat(
    instance: &Instance,
    flat: &FlatTree,
    scratch: &mut GreedyScratch,
    cost_bound: f64,
) -> Result<SweepPoint, ModelError> {
    let mut best: Option<SweepPoint> = None;
    sweep(instance, flat, scratch, |pass| {
        let wins = le_tolerant(pass.cost, cost_bound)
            && best.as_ref().is_none_or(|b| {
                pass.power
                    .total_cmp(&b.power)
                    .then(pass.cost.total_cmp(&b.cost))
                    .is_lt()
            });
        if wins {
            best = Some(pass.point());
        }
    });
    best.ok_or_else(|| {
        ModelError::Infeasible(format!(
            "greedy sweep finds nothing under cost {cost_bound}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use replica_model::{CostModel, ModePolicy, ModeSet, PowerModel, PreExisting, Solution};
    use replica_tree::{generate, GeneratorConfig, TreeBuilder};

    fn sweep(instance: &Instance) -> Vec<SweepPoint> {
        paper_sweep(instance, &mut SolveArena::default())
    }

    fn paper_like_instance(seed: u64) -> Instance {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::random_tree(&GeneratorConfig::paper_power(30), &mut rng);
        let pre = generate::random_pre_existing(&tree, 3, &mut rng);
        let modes = ModeSet::new(vec![5, 10]).unwrap();
        let power = PowerModel::paper_experiment3(&modes);
        Instance::builder(tree)
            .modes(modes)
            .pre_existing(PreExisting::at_mode(pre, 1))
            .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
            .power(power)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_covers_capacities_and_modes_follow_load() {
        let inst = paper_like_instance(1);
        let points = sweep(&inst);
        assert!(!points.is_empty());
        for p in &points {
            assert!((5..=10).contains(&p.trial_capacity));
            // All modes must be load-determined: re-evaluating under
            // LowestFeasible must not change anything.
            let sol =
                Solution::evaluate_with_policy(&inst, &p.placement, ModePolicy::LowestFeasible)
                    .unwrap();
            assert_eq!(sol.placement, p.placement);
            assert!((sol.power - p.power).abs() < 1e-9);
        }
    }

    #[test]
    fn smaller_trial_capacity_means_more_servers() {
        let inst = paper_like_instance(2);
        let points = sweep(&inst);
        let at = |w: u64| {
            points
                .iter()
                .find(|p| p.trial_capacity == w)
                .map(|p| p.servers)
        };
        if let (Some(s5), Some(s10)) = (at(5), at(10)) {
            assert!(s5 >= s10, "W=5 needs at least as many servers as W=10");
        }
    }

    #[test]
    fn best_within_respects_bound() {
        let inst = paper_like_instance(3);
        let points = sweep(&inst);
        let unbounded = best_within(&points, f64::INFINITY).unwrap();
        for p in &points {
            assert!(unbounded.power <= p.power + 1e-9);
        }
        // A bound below every cost yields nothing.
        assert!(best_within(&points, 0.0).is_none());
    }

    #[test]
    fn infeasible_bound_is_an_error() {
        let inst = paper_like_instance(4);
        let mut arena = SolveArena::default();
        assert!(solve(&inst, 0.0, &mut arena).is_err());
        assert!(solve(&inst, f64::INFINITY, &mut arena).is_ok());
    }

    #[test]
    fn sweep_tries_exactly_the_first_to_the_largest_mode_capacity() {
        let mut b = TreeBuilder::new();
        b.add_client(b.root(), 3);
        let inst = Instance::builder(b.build().unwrap())
            .modes(ModeSet::new(vec![5, 7, 10]).unwrap())
            .build()
            .unwrap();
        let tried: Vec<u64> = sweep(&inst).iter().map(|p| p.trial_capacity).collect();
        assert_eq!(tried, (5..=10).collect::<Vec<_>>());
    }
}
