//! (flow, power)-front battery: the unbounded `MinPower` solve against the
//! every-budget 3-D solve.
//!
//! With no cost bound the pruned DP keeps (flow, power) fronts with cost
//! as the tie-break, dropping an entry whose power trails a kept entry of
//! no larger flow by more than the certified rounding slack `S` (see the
//! `dp_power_pruned` module docs). The promise is that this changes
//! nothing a caller reads but the placement's choice among tied optima:
//! feasibility, the claimed cost and power bits, and the server count all
//! equal the 3-D solve's, and the placement re-evaluates to its own claim.
//! The instances are the shared ones of `support/instances.rs`, whose
//! random static powers make power sums round, which is where a slack
//! that is too small breaks the cost tie-break.

use proptest::prelude::*;
use replica_core::dp_power_pruned::{
    solve_min_power_bounded_cost_in, PrunedPowerDp, PrunedScratch,
};
use replica_model::{Instance, ModelError, Placement, Solution};
use std::cell::RefCell;

#[path = "support/instances.rs"]
mod instances;

use instances::arbitrary_instance;

thread_local! {
    /// One scratch across every case and both routes — deliberately dirty,
    /// and switching front kinds between solves.
    static SCRATCH: RefCell<PrunedScratch> = RefCell::new(PrunedScratch::default());
}

/// The unbounded optimum through the every-budget route: 3-D fronts, then
/// the budget filter at +∞.
fn every_budget(instance: &Instance) -> Result<(Placement, f64, f64), ModelError> {
    SCRATCH.with(|cell| {
        let scratch = &mut cell.borrow_mut();
        let dp = PrunedPowerDp::run_in(instance, scratch)?;
        let best = *dp
            .best_within(f64::INFINITY)
            .expect("a feasible run has candidates");
        let placement = dp.reconstruct(&best);
        dp.recycle(scratch);
        Ok((placement?, best.cost, best.power))
    })
}

/// The unbounded optimum through the (flow, power) fronts.
fn min_power(instance: &Instance) -> Result<(Placement, f64, f64), ModelError> {
    SCRATCH.with(|cell| {
        solve_min_power_bounded_cost_in(instance, f64::INFINITY, &mut cell.borrow_mut())
    })
}

/// `value` is within 1e-9 relative of `claim`.
fn near(value: f64, claim: f64) -> bool {
    (value - claim).abs() <= 1e-9 * claim.abs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Same feasibility, same cost and power bits, same server count; the
    /// (flow, power) placement re-evaluates to its own claim.
    #[test]
    fn min_power_front_matches_the_every_budget_solve(instance in arbitrary_instance(45)) {
        match (min_power(&instance), every_budget(&instance)) {
            (Ok((fp, fc, fw)), Ok((rp, rc, rw))) => {
                prop_assert_eq!(fc.to_bits(), rc.to_bits(), "cost {} vs {}", fc, rc);
                prop_assert_eq!(fw.to_bits(), rw.to_bits(), "power {} vs {}", fw, rw);
                prop_assert_eq!(fp.server_count(), rp.server_count(), "server count");
                let sol = Solution::evaluate(&instance, &fp)
                    .map_err(|e| format!("placement does not evaluate: {e}"))?;
                prop_assert!(
                    near(sol.cost, fc) && near(sol.power, fw),
                    "placement re-evaluates to ({}, {}), claims ({}, {})",
                    sol.cost, sol.power, fc, fw
                );
            }
            (Err(_), Err(_)) => {}
            (f, r) => prop_assert!(
                false,
                "feasibility: (flow, power) ok={} vs every-budget ok={}",
                f.is_ok(), r.is_ok()
            ),
        }
    }
}
