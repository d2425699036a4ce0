//! The amortized budget-sweep API: one run per instance answers *every*
//! cost budget.
//!
//! The paper's power/cost trade-off experiment (Figures 8–11) sweeps ~30
//! cost bounds per tree. For the exact DPs the bound never enters the
//! recursion — it only filters the root scan — so a single run yields the
//! whole budget → (cost, power) [`Frontier`]; the capacity-swept `GR`
//! baseline likewise computes its handful of sweep points once. Forcing
//! those algorithms through the per-solve [`Solver::solve`] interface
//! would re-run them per bound and defeat the amortization.
//!
//! This module closes that gap at the registry level:
//!
//! * a [`Solver`] row with an amortized path carries it as its frontier
//!   function, reported by [`Solver::amortized_sweep`];
//! * [`Registry::sweep`](crate::registry::Registry::sweep) runs the row's
//!   acceptance check, then its frontier when it has one, and otherwise
//!   falls back to [`sweep_via_solves`] — one plain solve per requested
//!   budget — so *every* registered solver answers the same question
//!   through one API.
//!
//! Frontier extraction itself lives in [`replica_core::frontier`]; the
//! engine prunes with `epsilon = 0.0`, which preserves the best-within-
//! budget answer of the raw candidate set exactly.

use crate::solver::{EngineError, SolveOptions, Solver};
use replica_core::frontier::pareto_filter;
use replica_model::{le_tolerant, Instance};
use std::time::Duration;

/// One point of a budget sweep: a feasible `(cost, power)` trade-off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrontierPoint {
    /// Eq. 2 / Eq. 4 reconfiguration cost of the placement.
    pub cost: f64,
    /// Eq. 3 power of the placement.
    pub power: f64,
}

/// The budget → (cost, power) trade-off curve of one solver on one
/// instance: points sorted by strictly increasing cost and strictly
/// decreasing power.
///
/// For any budget `b`, [`Frontier::best_within`]`(b)` equals the minimum
/// power the producing solver can reach at cost ≤ `b` — the front is
/// pruned exactly (no epsilon), so nothing achievable is lost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Frontier {
    points: Vec<FrontierPoint>,
}

impl Frontier {
    /// Builds a frontier from raw `(cost, power)` points, pruning
    /// dominated ones.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        Frontier {
            points: pareto_filter(points, 0.0)
                .into_iter()
                .map(|(cost, power)| FrontierPoint { cost, power })
                .collect(),
        }
    }

    /// The pruned points, sorted by increasing cost.
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// Number of frontier points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep found no feasible placement at all.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The minimum-power point with cost within `cost_bound` (tolerant
    /// comparison, matching the DPs' root-scan filter).
    pub fn best_within(&self, cost_bound: f64) -> Option<FrontierPoint> {
        // Sorted by cost with strictly decreasing power: the last
        // affordable point is the best one.
        self.points
            .iter()
            .rev()
            .find(|p| le_tolerant(p.cost, cost_bound))
            .copied()
    }

    /// Samples the frontier at each budget: the achievable minimum power,
    /// or `None` where no placement fits.
    pub fn sample(&self, budgets: &[f64]) -> Vec<Option<f64>> {
        budgets
            .iter()
            .map(|&b| self.best_within(b).map(|p| p.power))
            .collect()
    }
}

/// The outcome of a registry-level budget sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Name of the producing solver (registry key).
    pub solver: &'static str,
    /// The budget → (cost, power) frontier.
    pub frontier: Frontier,
    /// Wall-clock time of the whole sweep (one amortized run, or the sum
    /// of the per-budget fallback solves).
    pub wall: Duration,
    /// `true` when the solver's amortized frontier produced it,
    /// `false` for the per-budget fallback adapter.
    pub amortized: bool,
}

/// The generic fallback adapter: one [`Solver::solve`] per budget, the
/// outcomes pruned into a [`Frontier`].
///
/// Solvers that ignore [`SolveOptions::cost_bound`] (capability flag
/// `cost_bound = false`) are solved once — every budget would repeat the
/// identical computation. An `Err` is returned only when *no* budget
/// admits a solution; the error of the loosest budget is reported.
pub fn sweep_via_solves(
    solver: &Solver,
    instance: &Instance,
    options: &SolveOptions,
    budgets: &[f64],
) -> Result<Frontier, EngineError> {
    let budget_insensitive = !solver.capabilities().cost_bound;
    let effective: &[f64] = if budgets.is_empty() || budget_insensitive {
        &[options.cost_bound]
    } else {
        budgets
    };
    let mut points = Vec::new();
    let mut last_err = None;
    for &bound in effective {
        let per_budget = SolveOptions {
            cost_bound: bound,
            ..*options
        };
        match solver.solve(instance, &per_budget) {
            Ok(outcome) => points.push((outcome.cost, outcome.power)),
            Err(e) => last_err = Some(e),
        }
    }
    if points.is_empty() {
        return Err(last_err
            .unwrap_or_else(|| EngineError::Unsupported("sweep invoked with no budgets".into())));
    }
    Ok(Frontier::from_points(points))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frontier() -> Frontier {
        Frontier::from_points(vec![
            (2.0, 12.0),
            (1.0, 12.0), // (2, 12) is dominated by this
            (3.0, 9.0),
            (4.0, 9.0), // dominated
            (6.0, 5.0),
        ])
    }

    #[test]
    fn from_points_prunes_dominated() {
        let f = frontier();
        assert_eq!(f.len(), 3);
        assert_eq!(
            f.points(),
            &[
                FrontierPoint {
                    cost: 1.0,
                    power: 12.0
                },
                FrontierPoint {
                    cost: 3.0,
                    power: 9.0
                },
                FrontierPoint {
                    cost: 6.0,
                    power: 5.0
                },
            ]
        );
    }

    #[test]
    fn best_within_walks_the_front() {
        let f = frontier();
        assert_eq!(f.best_within(0.5), None);
        assert_eq!(f.best_within(1.0).unwrap().power, 12.0);
        assert_eq!(f.best_within(2.5).unwrap().power, 12.0);
        assert_eq!(f.best_within(3.0).unwrap().power, 9.0);
        assert_eq!(f.best_within(f64::INFINITY).unwrap().power, 5.0);
    }

    #[test]
    fn sample_mirrors_best_within() {
        let f = frontier();
        assert_eq!(
            f.sample(&[0.5, 3.0, 100.0]),
            vec![None, Some(9.0), Some(5.0)]
        );
        assert!(Frontier::default()
            .sample(&[1.0])
            .iter()
            .all(Option::is_none));
    }
}
