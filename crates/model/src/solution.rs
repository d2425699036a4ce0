//! Evaluated placements: server counts, cost and power of a solution.
//!
//! [`SolutionCounts`] tallies the quantities of §2.2 of the paper — `nᵢ`
//! (new servers at mode `i`), `eᵢᵢ'` (reused servers re-moded `i → i'`) and
//! `kᵢ` (deleted pre-existing servers of original mode `i`) — from which both
//! the cost (Eq. 4) and the power (Eq. 3) of the placement follow.

use crate::assignment::Assignment;
use crate::error::ModelError;
use crate::instance::Instance;
use crate::modes::ModeIdx;
use crate::placement::Placement;
use replica_tree::NodeId;
use serde::{Deserialize, Serialize};

/// How to decide the operated mode of each server when evaluating.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModePolicy {
    /// Honor the modes stored in the placement (mode-as-decision semantics;
    /// the DP algorithms produce such placements).
    Assigned,
    /// Re-mode every server to the smallest mode that fits its load — the
    /// load-determined `mode(j)` of §2.2 (`W_{i−1} < req_j ≤ W_i`).
    LowestFeasible,
}

/// The `nᵢ` / `eᵢᵢ'` / `kᵢ` tallies of a placement.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolutionCounts {
    /// `new_by_mode[i]` = `nᵢ`: new servers operated at mode `i`.
    pub new_by_mode: Vec<u64>,
    /// `reused[i][i']` = `eᵢᵢ'`: pre-existing servers re-moded `i → i'`.
    pub reused: Vec<Vec<u64>>,
    /// `deleted_by_mode[i]` = `kᵢ`: pre-existing servers (original mode `i`)
    /// not reused.
    pub deleted_by_mode: Vec<u64>,
}

impl SolutionCounts {
    /// Total number of servers `R = Σnᵢ + Σeᵢᵢ'`.
    pub fn total_servers(&self) -> u64 {
        self.new_by_mode.iter().sum::<u64>() + self.reused.iter().flatten().sum::<u64>()
    }

    /// Number of reused pre-existing servers `e = Σᵢᵢ' eᵢᵢ'`.
    pub fn reused_total(&self) -> u64 {
        self.reused.iter().flatten().sum()
    }

    /// Number of deleted pre-existing servers `Σkᵢ`.
    pub fn deleted_total(&self) -> u64 {
        self.deleted_by_mode.iter().sum()
    }

    /// The tallies of the empty placement on `instance`: no server, and
    /// every pre-existing server deleted (`kᵢ = Eᵢ`). A placement is
    /// tallied into it server by server with
    /// [`SolutionCounts::add_server`].
    pub fn empty(instance: &Instance) -> Self {
        let m = instance.mode_count();
        SolutionCounts {
            new_by_mode: vec![0; m],
            reused: vec![vec![0; m]; m],
            deleted_by_mode: instance.pre_existing().count_by_mode(m),
        }
    }

    /// Overwrites these tallies with `empty`'s (see
    /// [`SolutionCounts::empty`]) in place, so a sweep that tallies one
    /// candidate after another reuses one set of buffers.
    pub fn reset_to(&mut self, empty: &SolutionCounts) {
        self.new_by_mode.copy_from_slice(&empty.new_by_mode);
        for (row, from) in self.reused.iter_mut().zip(&empty.reused) {
            row.copy_from_slice(from);
        }
        self.deleted_by_mode.copy_from_slice(&empty.deleted_by_mode);
    }

    /// Tallies one server at `node` operated at `mode`: a reuse
    /// `e_{orig,mode}` of the pre-existing server there, which is then
    /// no longer deleted, or else a new server `n_mode`. Each node is
    /// added at most once.
    #[inline]
    pub fn add_server(&mut self, instance: &Instance, node: NodeId, mode: ModeIdx) {
        match instance.pre_existing_mode(node) {
            Some(orig) => {
                self.reused[orig][mode] += 1;
                self.deleted_by_mode[orig] -= 1;
            }
            None => self.new_by_mode[mode] += 1,
        }
    }

    /// Eq. 4 cost and Eq. 3 power of the tallied servers on `instance`.
    /// [`Solution::evaluate_with_policy`] and the heuristic sweeps in
    /// `replica-core` both score through here, so equal tallies give
    /// bit-equal scores.
    pub fn cost_and_power(&self, instance: &Instance) -> (f64, f64) {
        let cost = instance
            .cost()
            .total(&self.new_by_mode, &self.reused, &self.deleted_by_mode);
        let power = instance
            .power()
            .total(instance.modes(), &self.by_operated_mode());
        (cost, power)
    }

    /// Servers per *operated* mode (`by_mode[i'] = nᵢ' + Σᵢ eᵢᵢ'`), the
    /// input of Eq. 3.
    pub fn by_operated_mode(&self) -> Vec<u64> {
        let m = self.new_by_mode.len();
        let mut out = self.new_by_mode.clone();
        for row in &self.reused {
            for (ip, &e) in row.iter().enumerate() {
                out[ip] += e;
            }
        }
        debug_assert_eq!(out.len(), m);
        out
    }
}

/// A placement together with its routing, tallies, cost and power.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The replica set with assigned modes (post `ModePolicy` rewriting).
    pub placement: Placement,
    /// Request routing under the closest policy.
    pub assignment: Assignment,
    /// The `nᵢ` / `eᵢᵢ'` / `kᵢ` tallies.
    pub counts: SolutionCounts,
    /// Eq. 4 (reduces to Eq. 2 when `M = 1`).
    pub cost: f64,
    /// Eq. 3.
    pub power: f64,
}

impl Solution {
    /// Evaluates `placement` against `instance` honoring assigned modes.
    ///
    /// Fails if the placement is invalid (unknown mode), overloads a server
    /// or leaves a client unserved.
    pub fn evaluate(instance: &Instance, placement: &Placement) -> Result<Self, ModelError> {
        Self::evaluate_with_policy(instance, placement, ModePolicy::Assigned)
    }

    /// Evaluates `placement` under the given [`ModePolicy`].
    pub fn evaluate_with_policy(
        instance: &Instance,
        placement: &Placement,
        policy: ModePolicy,
    ) -> Result<Self, ModelError> {
        let tree = instance.tree();
        let modes = instance.modes();
        let mut placement = placement.clone();
        let assignment = Assignment::compute(tree, &placement);

        if policy == ModePolicy::LowestFeasible {
            // Routing is independent of modes, so re-moding after routing is
            // sound. Servers in node order, as `servers()` lists them.
            for node in tree.internal_nodes() {
                if !placement.has_server(node) {
                    continue;
                }
                let load = assignment.load(node);
                let mode = modes.mode_for_load(load).ok_or(ModelError::Overloaded {
                    node,
                    load,
                    capacity: modes.max_capacity(),
                })?;
                placement.insert(node, mode);
            }
        }

        assignment.validate(tree, &placement, modes)?;

        let mut counts = SolutionCounts::empty(instance);
        for (node, mode) in placement.servers() {
            counts.add_server(instance, node, mode);
        }
        let (cost, power) = counts.cost_and_power(instance);
        Ok(Solution {
            placement,
            assignment,
            counts,
            cost,
            power,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::modes::ModeSet;
    use crate::power::PowerModel;
    use crate::preexisting::PreExisting;
    use replica_tree::{NodeId, TreeBuilder};

    /// Figure 1 of the paper: root — A — {B, C}; clients B:3, C:4, r:2.
    /// B holds a pre-existing replica.
    fn fig1_instance() -> (Instance, [NodeId; 4]) {
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        let b = bld.add_child(a);
        let c = bld.add_child(a);
        bld.add_client(b, 3);
        bld.add_client(c, 4);
        bld.add_client(r, 2);
        let tree = bld.build().unwrap();
        let inst = Instance::builder(tree)
            .capacity(10)
            .pre_existing(PreExisting::at_mode([b], 0))
            .cost(CostModel::simple(0.1, 0.01))
            .build()
            .unwrap();
        (inst, [r, a, b, c])
    }

    #[test]
    fn counts_cost_power_keep_b() {
        // Keep the pre-existing server at B, add one at the root.
        let (inst, [r, _a, b, _c]) = fig1_instance();
        let mut p = Placement::empty(inst.tree());
        p.insert(b, 0);
        p.insert(r, 0);
        let s = Solution::evaluate(&inst, &p).unwrap();
        assert_eq!(s.counts.total_servers(), 2);
        assert_eq!(s.counts.reused_total(), 1);
        assert_eq!(s.counts.deleted_total(), 0);
        // Eq. 2: R + (R−e)·create + (E−e)·delete = 2 + 0.1 + 0.
        assert!((s.cost - 2.1).abs() < 1e-12);
        assert_eq!(s.assignment.load(b), 3);
        assert_eq!(s.assignment.load(r), 6);
    }

    #[test]
    fn counts_cost_drop_b() {
        // Remove B, serve everything from C and the root (the "four requests
        // at the root" branch of the paper's Figure 1 discussion).
        let (inst, [r, _a, _b, c]) = fig1_instance();
        let mut p = Placement::empty(inst.tree());
        p.insert(c, 0);
        p.insert(r, 0);
        let s = Solution::evaluate(&inst, &p).unwrap();
        assert_eq!(s.counts.total_servers(), 2);
        assert_eq!(s.counts.reused_total(), 0);
        assert_eq!(s.counts.deleted_total(), 1);
        // 2 servers, 2 creations, 1 deletion: 2 + 0.2 + 0.01.
        assert!((s.cost - 2.21).abs() < 1e-12);
    }

    #[test]
    fn unserved_client_is_an_error() {
        let (inst, [_r, _a, b, _c]) = fig1_instance();
        let p = Placement::from_nodes(inst.tree(), [b], 0);
        assert!(matches!(
            Solution::evaluate(&inst, &p),
            Err(ModelError::Unserved(_))
        ));
    }

    fn two_mode_instance() -> (Instance, [NodeId; 4]) {
        // Figure 2 of the paper: modes {7, 10}, P = 10 + W².
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        let b = bld.add_child(a);
        let c = bld.add_child(a);
        bld.add_client(b, 7);
        bld.add_client(c, 3);
        bld.add_client(r, 4);
        let tree = bld.build().unwrap();
        let inst = Instance::builder(tree)
            .modes(ModeSet::new(vec![7, 10]).unwrap())
            .power(PowerModel::new(10.0, 2.0))
            .build()
            .unwrap();
        (inst, [r, a, b, c])
    }

    #[test]
    fn figure2_power_tradeoff() {
        let (inst, [r, a, b, c]) = two_mode_instance();

        // Option 1: server at A in W₂ (absorbs 10), root in W₁ (4 requests).
        let mut p1 = Placement::empty(inst.tree());
        p1.insert(a, 1);
        p1.insert(r, 0);
        let s1 = Solution::evaluate(&inst, &p1).unwrap();
        assert!((s1.power - (110.0 + 59.0)).abs() < 1e-9);

        // Option 2: B and C in W₁ (paper: worse than one W₂ server at A).
        let mut p2 = Placement::empty(inst.tree());
        p2.insert(b, 0);
        p2.insert(c, 0);
        p2.insert(r, 0);
        let s2 = Solution::evaluate(&inst, &p2).unwrap();
        assert!(s2.power > s1.power);

        // Option 3: server at C in W₁ lets 3 requests through to the root.
        let mut p3 = Placement::empty(inst.tree());
        p3.insert(c, 0);
        p3.insert(r, 1); // root load = 7 + 4 = 11 > 10? No: B's 7 pass A… 7+3 absorbed? —
                         // B:7 flows up through A (no server), +4 at root = 11 with C absorbed 3.
        assert!(
            Solution::evaluate(&inst, &p3).is_err(),
            "root overloads at 11 > 10"
        );
    }

    #[test]
    fn lowest_feasible_remodes() {
        let (inst, [r, a, _b, _c]) = two_mode_instance();
        // Assign W₂ everywhere; LowestFeasible should demote the root
        // (load 4 ≤ 7) to W₁ while keeping A (load 10) at W₂.
        let mut p = Placement::empty(inst.tree());
        p.insert(a, 1);
        p.insert(r, 1);
        let s = Solution::evaluate_with_policy(&inst, &p, ModePolicy::LowestFeasible).unwrap();
        assert_eq!(s.placement.mode_of(r), Some(0));
        assert_eq!(s.placement.mode_of(a), Some(1));
        let by_mode = s.counts.by_operated_mode();
        assert_eq!(by_mode, vec![1, 1]);
    }

    #[test]
    fn mode_change_tallies() {
        // Pre-existing at mode 1, reused at mode 0 → e₁₀ = 1 (a downgrade).
        let (inst0, [r, a, _b, _c]) = two_mode_instance();
        let mut inst = inst0;
        inst.set_pre_existing(PreExisting::at_mode([r], 1)).unwrap();
        let mut p = Placement::empty(inst.tree());
        p.insert(a, 1);
        p.insert(r, 0);
        let s = Solution::evaluate(&inst, &p).unwrap();
        assert_eq!(s.counts.reused[1][0], 1);
        assert_eq!(s.counts.new_by_mode, vec![0, 1]);
        assert_eq!(s.counts.deleted_total(), 0);
        assert_eq!(s.counts.by_operated_mode(), vec![1, 1]);
    }
}
