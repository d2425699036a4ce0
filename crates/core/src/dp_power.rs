//! The `MinPower-BoundedCost` dynamic program — §4.3 of the paper
//! (Theorem 3), covering both the `NoPre` and `WithPre` variants and, with
//! an infinite budget, plain `MinPower`.
//!
//! `MinPower` is NP-complete for arbitrarily many modes (Theorem 2, see
//! [`np_gadget`](crate::np_gadget)), so this DP is exponential in `M` but
//! polynomial for any fixed `M`: each node keeps a *sparse* table
//!
//! > state `(n₁ … n_M, e₁₁ … e_MM)` → minimum flow traversing the node,
//!
//! where `nᵢ` counts new servers assigned mode `i` and `eᵢᵢ'` reused
//! pre-existing servers re-moded `i → i'` inside the subtree (excluding the
//! node itself). States are bit-packed `u128` keys
//! ([`crate::state::StateCodec`]), merged child-by-child exactly
//! like the `MinCost` DP but with an extra mode choice whenever a replica is
//! placed. The Lemma 1 argument carries over verbatim: cost (Eq. 4) and
//! power (Eq. 3) depend only on the state vector, so the flow-minimal
//! representative per state dominates.
//!
//! The cost bound plays no role inside the recursion — it only filters the
//! root scan. [`PowerDp`] therefore exposes the full set of root
//! [`RootCandidate`]s: one DP run answers *every* budget (this is how the
//! experiment harness sweeps Figure 8's x-axis with a single run per tree)
//! and yields the whole cost/power Pareto front.
//!
//! ## Hot path and determinism
//!
//! The forward pass iterates the [`FlatTree`] post-order layout; the layout,
//! the outer table vector and the per-position unit-key buffers live in a
//! reusable [`FullScratch`]. The per-node hash tables themselves are created
//! **fresh** each solve on purpose: `FxHashMap` iteration order depends on
//! the map's capacity history, the root scan's candidate order feeds
//! `best_within`'s tie-breaking, and reusing maps across solves would make
//! equally-optimal tie winners depend on what was solved before. Fresh maps
//! with the same capacity hints keep every run bit-identical to the pre-flat
//! implementation (the test suite's `reference::full_solve` pins this).

use crate::state::{StateCodec, StateKey};
use replica_model::{le_tolerant, Instance, ModeIdx, ModelError, Placement};
use replica_tree::FlatTree;
use rustc_hash::FxHashMap;

/// Sparse DP table: packed state → minimal traversing flow.
type Table = FxHashMap<StateKey, u64>;

/// A feasible aggregate solution read off the root table.
#[derive(Clone, Debug)]
pub struct RootCandidate {
    /// State over `subtree_root` (excluding the root itself).
    pub table_key: StateKey,
    /// Flow left at the root by that state.
    pub flow: u64,
    /// Mode of a replica placed at the root, if any.
    pub root_mode: Option<ModeIdx>,
    /// Eq. 4 cost of the full solution.
    pub cost: f64,
    /// Eq. 3 power of the full solution.
    pub power: f64,
    /// Total server count.
    pub servers: u64,
}

/// A reconstructed optimal solution.
#[derive(Clone, Debug)]
pub struct PowerResult {
    /// The replica set with assigned modes.
    pub placement: Placement,
    /// Eq. 4 cost.
    pub cost: f64,
    /// Eq. 3 power.
    pub power: f64,
    /// Total server count.
    pub servers: u64,
}

/// Reusable working memory for [`PowerDp::run_in`]: the flat layout, the
/// outer table vector and the per-position unit-key buffers. Inner hash
/// tables are deliberately *not* pooled (see the module docs on
/// determinism).
#[derive(Default)]
pub struct FullScratch {
    flat: FlatTree,
    tables: Vec<Table>,
    /// `unit_keys[p][mode]`: state increment for a replica at position `p`
    /// assigned `mode`.
    unit_keys: Vec<Vec<StateKey>>,
}

/// A completed DP run: per-node tables plus the evaluated root candidates.
pub struct PowerDp<'a> {
    instance: &'a Instance,
    codec: StateCodec,
    scratch: FullScratch,
    candidates: Vec<RootCandidate>,
}

impl<'a> PowerDp<'a> {
    /// Runs the forward pass and the root scan.
    pub fn run(instance: &'a Instance) -> Result<Self, ModelError> {
        Self::run_in(instance, &mut FullScratch::default())
    }

    /// [`PowerDp::run`] borrowing `scratch`'s buffers; hand them back with
    /// [`PowerDp::recycle`] (the error path returns them immediately).
    pub fn run_in(instance: &'a Instance, scratch: &mut FullScratch) -> Result<Self, ModelError> {
        let pre = instance.pre_existing();
        let m = instance.mode_count();
        let tree = instance.tree();
        let max_new = (tree.internal_count() - pre.count()) as u64;
        let codec = StateCodec::new(m, max_new, pre.count() as u64)?;
        let wmax = instance.max_capacity();

        let mut s = std::mem::take(scratch);
        s.flat.rebuild(tree);
        let n = s.flat.len();

        s.unit_keys.truncate(n);
        for v in &mut s.unit_keys {
            v.clear();
        }
        s.unit_keys.resize_with(n, Vec::new);
        for p in 0..n {
            let orig = instance.pre_existing_mode(s.flat.node_at(p));
            let keys = &mut s.unit_keys[p];
            keys.extend((0..m).map(|mode| match orig {
                Some(orig) => codec.bump_reused(codec.zero(), orig, mode),
                None => codec.bump_new(codec.zero(), mode),
            }));
        }

        // Fresh inner tables every solve — bit-identical iteration order
        // (module docs); only the outer vector's allocation is reused.
        s.tables.clear();
        s.tables.resize_with(n, Table::default);
        for p in 0..n {
            let direct = s.flat.client_load(p);
            let mut table = Table::default();
            if direct <= wmax {
                table.insert(codec.zero(), direct);
            }
            // An unserveable client bundle leaves the table empty, which
            // propagates to an empty root table → Infeasible below.
            for &child in s.flat.children(p) {
                table = merge_child(
                    &codec,
                    instance,
                    &table,
                    &s.tables[child as usize],
                    &s.unit_keys[child as usize],
                );
                if table.is_empty() {
                    break;
                }
            }
            s.tables[p] = table;
        }

        let root = s.flat.root_position();
        let candidates = root_scan(instance, &codec, &s.tables[root], &s.unit_keys[root]);
        if candidates.is_empty() {
            *scratch = s;
            return Err(ModelError::Infeasible(
                "no feasible placement exists for this instance".into(),
            ));
        }
        Ok(PowerDp {
            instance,
            codec,
            scratch: s,
            candidates,
        })
    }

    /// Returns the working memory to `scratch` for the next solve.
    pub fn recycle(self, scratch: &mut FullScratch) {
        *scratch = self.scratch;
    }

    /// All feasible aggregate solutions at the root (every budget filter and
    /// the Pareto front derive from these).
    pub fn candidates(&self) -> &[RootCandidate] {
        &self.candidates
    }

    /// Minimum-power candidate with cost within `cost_bound`
    /// (`f64::INFINITY` recovers plain `MinPower`). Ties break toward lower
    /// cost, then fewer servers.
    pub fn best_within(&self, cost_bound: f64) -> Option<&RootCandidate> {
        self.candidates
            .iter()
            .filter(|c| le_tolerant(c.cost, cost_bound))
            .min_by(|a, b| {
                a.power
                    .total_cmp(&b.power)
                    .then(a.cost.total_cmp(&b.cost))
                    .then(a.servers.cmp(&b.servers))
            })
    }

    /// Raw `(cost, power)` pairs of every root candidate — the input to a
    /// budget-sweep frontier (see [`crate::frontier`]).
    pub fn cost_power_points(&self) -> Vec<(f64, f64)> {
        self.candidates.iter().map(|c| (c.cost, c.power)).collect()
    }

    /// The cost/power Pareto front, sorted by increasing cost, strictly
    /// decreasing power (near-ties within `COST_EPSILON` collapsed).
    pub fn pareto_front(&self) -> Vec<(f64, f64)> {
        crate::frontier::pareto_filter(self.cost_power_points(), replica_model::COST_EPSILON)
    }

    /// Rebuilds a full placement achieving `candidate`.
    pub fn reconstruct(&self, candidate: &RootCandidate) -> Result<PowerResult, ModelError> {
        let s = &self.scratch;
        let flat = &s.flat;
        let modes = self.instance.modes();
        let mut placement = Placement::with_slots(flat.len());
        if let Some(mode) = candidate.root_mode {
            placement.insert(flat.node_at(flat.root_position()), mode);
        }

        // Worklist backtrack, re-running each node's merge sequence.
        let mut work: Vec<(usize, StateKey, u64)> =
            vec![(flat.root_position(), candidate.table_key, candidate.flow)];
        while let Some((p, key_target, flow_target)) = work.pop() {
            let children = flat.children(p);
            if children.is_empty() {
                debug_assert_eq!(key_target, self.codec.zero());
                debug_assert_eq!(flow_target, flat.client_load(p));
                continue;
            }
            // Recompute intermediate tables left-to-right.
            let wmax = self.instance.max_capacity();
            let mut inter: Vec<Table> = Vec::with_capacity(children.len() + 1);
            let mut table = Table::default();
            table.insert(self.codec.zero(), flat.client_load(p));
            inter.push(table);
            for &child in children {
                let next = merge_child(
                    &self.codec,
                    self.instance,
                    inter.last().expect("intermediate tables start non-empty"),
                    &s.tables[child as usize],
                    &s.unit_keys[child as usize],
                );
                inter.push(next);
            }

            // Walk the merges backwards, locating a producer of each target.
            let mut key_cur = key_target;
            let mut flow_cur = flow_target;
            for (k, &child) in children.iter().enumerate().rev() {
                let left = &inter[k];
                let child_table = &s.tables[child as usize];
                let unit = &s.unit_keys[child as usize];
                let mut found = None;
                'search: for (&k1, &f1) in left {
                    for (&k2, &f2) in child_table {
                        if k1 + k2 == key_cur && f1 + f2 == flow_cur && f1 + f2 <= wmax {
                            found = Some((k1, f1, k2, f2, None));
                            break 'search;
                        }
                        if f1 == flow_cur {
                            for (mode, &u) in unit.iter().enumerate() {
                                if modes.fits(mode, f2) && k1 + k2 + u == key_cur {
                                    found = Some((k1, f1, k2, f2, Some(mode)));
                                    break 'search;
                                }
                            }
                        }
                    }
                }
                let (k1, f1, k2, f2, server_mode) = found.ok_or_else(|| {
                    let (node, child_node) = (flat.node_at(p), flat.node_at(child as usize));
                    ModelError::Infeasible(format!(
                        "internal error: no producer for state at {node} (child {child_node})"
                    ))
                })?;
                if let Some(mode) = server_mode {
                    placement.insert(flat.node_at(child as usize), mode);
                }
                work.push((child as usize, k2, f2));
                key_cur = k1;
                flow_cur = f1;
            }
            debug_assert_eq!(key_cur, self.codec.zero());
            debug_assert_eq!(flow_cur, flat.client_load(p));
        }

        Ok(PowerResult {
            placement,
            cost: candidate.cost,
            power: candidate.power,
            servers: candidate.servers,
        })
    }
}

/// Inserts `flow` at `key` keeping the minimum.
#[inline]
fn insert_min(table: &mut Table, key: StateKey, flow: u64) {
    table
        .entry(key)
        .and_modify(|f| {
            if flow < *f {
                *f = flow;
            }
        })
        .or_insert(flow);
}

/// One merge step: combines the accumulated table of a node with one child's
/// table, considering "no replica at the child" plus "replica at the child
/// in each feasible mode".
fn merge_child(
    codec: &StateCodec,
    instance: &Instance,
    left: &Table,
    child: &Table,
    unit_keys: &[StateKey],
) -> Table {
    let modes = instance.modes();
    let wmax = instance.max_capacity();
    let m = modes.count();
    let mut out =
        Table::with_capacity_and_hasher(left.len().max(child.len()) * 2, Default::default());
    for (&k1, &f1) in left {
        for (&k2, &f2) in child {
            // Option a — no replica on the child: flows add up.
            let combined = f1 + f2;
            if combined <= wmax {
                insert_min(&mut out, codec.combine(k1, k2), combined);
            }
            // Option b — replica on the child at each mode that fits its
            // subtree flow f2 (its load). Smallest feasible mode first.
            if let Some(first) = modes.mode_for_load(f2) {
                let base = codec.combine(k1, k2);
                for &unit in unit_keys.iter().take(m).skip(first) {
                    insert_min(&mut out, base + unit, f1);
                }
            }
        }
    }
    out
}

/// Algorithm 4 analogue: expands every root-table state with the root
/// replica decision and evaluates Eq. 3 / Eq. 4.
fn root_scan(
    instance: &Instance,
    codec: &StateCodec,
    root_table: &Table,
    root_units: &[StateKey],
) -> Vec<RootCandidate> {
    let modes = instance.modes();
    let mut out = Vec::new();
    for (&key, &flow) in root_table {
        if flow == 0 {
            out.push(evaluate(instance, codec, key, flow, None));
        }
        if let Some(first) = modes.mode_for_load(flow) {
            for (mode, &unit) in root_units.iter().enumerate().skip(first) {
                out.push(evaluate(instance, codec, key + unit, flow, Some(mode)));
            }
        }
    }
    out
}

/// Evaluates cost and power of a complete (root-decided) state.
fn evaluate(
    instance: &Instance,
    codec: &StateCodec,
    full_key: StateKey,
    flow: u64,
    root_mode: Option<ModeIdx>,
) -> RootCandidate {
    let state = codec.decode(full_key);
    let m = codec.modes;
    // Deleted pre-existing servers: those not reused, per original mode.
    let e_by_mode = instance.pre_existing().count_by_mode(m);
    let mut deleted = vec![0u64; m];
    for (i, &total) in e_by_mode.iter().enumerate() {
        let reused: u64 = state.reused[i].iter().sum();
        debug_assert!(reused <= total);
        deleted[i] = total - reused;
    }
    let cost = instance
        .cost()
        .total(&state.new_by_mode, &state.reused, &deleted);
    // Operated-mode tally for Eq. 3.
    let mut by_mode = state.new_by_mode.clone();
    for row in &state.reused {
        for (ip, &e) in row.iter().enumerate() {
            by_mode[ip] += e;
        }
    }
    let power = instance.power().total(instance.modes(), &by_mode);
    RootCandidate {
        table_key: root_mode.map_or(full_key, |mode| {
            let unit = match instance.pre_existing_mode(instance.tree().root()) {
                Some(orig) => codec.bump_reused(codec.zero(), orig, mode),
                None => codec.bump_new(codec.zero(), mode),
            };
            full_key - unit
        }),
        flow,
        root_mode,
        cost,
        power,
        servers: state.total_servers(),
    }
}

/// Solves `MinPower` (no cost constraint) and reconstructs an optimal
/// placement.
pub fn solve_min_power(instance: &Instance) -> Result<PowerResult, ModelError> {
    solve_min_power_bounded_cost(instance, f64::INFINITY)
}

/// Solves `MinPower-BoundedCost`: minimum power with cost ≤ `cost_bound`.
pub fn solve_min_power_bounded_cost(
    instance: &Instance,
    cost_bound: f64,
) -> Result<PowerResult, ModelError> {
    let dp = PowerDp::run(instance)?;
    let best = dp.best_within(cost_bound).ok_or_else(|| {
        ModelError::Infeasible(format!("no placement fits the cost bound {cost_bound}"))
    })?;
    dp.reconstruct(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use replica_model::{CostModel, ModeSet, PowerModel, PreExisting, Solution};
    use replica_tree::{NodeId, TreeBuilder};

    /// Figure 2 of the paper: modes {7, 10}, P = 10 + W², clients 3 (B),
    /// 7 (C) and a configurable root client.
    fn fig2(root_requests: u64) -> (Instance, [NodeId; 4]) {
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        let b = bld.add_child(a);
        let c = bld.add_child(a);
        bld.add_client(b, 3);
        bld.add_client(c, 7);
        bld.add_client(r, root_requests);
        let tree = bld.build().unwrap();
        let inst = Instance::builder(tree)
            .modes(ModeSet::new(vec![7, 10]).unwrap())
            .power(PowerModel::new(10.0, 2.0))
            .build()
            .unwrap();
        (inst, [r, a, b, c])
    }

    #[test]
    fn fig2_four_root_requests_lets_requests_through() {
        // Paper: "if the root r has four client requests, then it is better
        // to let some requests through (one server at node C)".
        let (inst, [r, a, _b, c]) = fig2(4);
        let res = solve_min_power(&inst).unwrap();
        // Expected optimum: server at C (W₁) + root (W₁): 2·(10 + 49) = 118.
        assert!((res.power - 118.0).abs() < 1e-9, "power {}", res.power);
        assert!(res.placement.has_server(c));
        assert!(res.placement.has_server(r));
        assert!(!res.placement.has_server(a));
        assert_eq!(res.placement.mode_of(c), Some(0));
        assert_eq!(res.placement.mode_of(r), Some(0));
        let sol = Solution::evaluate(&inst, &res.placement).unwrap();
        assert!((sol.power - res.power).abs() < 1e-9);
    }

    #[test]
    fn fig2_ten_root_requests_blocks_subtree() {
        // Paper: "if it has ten requests, it is necessary to have no request
        // going through A" — one server at A in W₂ plus the root in W₂.
        let (inst, [r, a, b, c]) = fig2(10);
        let res = solve_min_power(&inst).unwrap();
        let sol = Solution::evaluate(&inst, &res.placement).unwrap();
        assert!((sol.power - res.power).abs() < 1e-9);
        // A at W₂ (10 + 100) + root at W₂ (10 + 100) = 220; the alternative
        // B&C at W₁ (2·59) + root W₂ (110) = 228 is worse.
        assert!((res.power - 220.0).abs() < 1e-9, "power {}", res.power);
        assert!(res.placement.has_server(a));
        assert_eq!(res.placement.mode_of(a), Some(1));
        assert!(res.placement.has_server(r));
        assert!(!res.placement.has_server(b) && !res.placement.has_server(c));
    }

    #[test]
    fn single_mode_collapses_to_min_count_shape() {
        // With one mode, minimal power = static-dominated ⇒ minimal servers.
        let (instance, _) = fig2(4);
        let tree = instance.tree().clone();
        let inst = Instance::builder(tree)
            .capacity(10)
            .power(PowerModel::new(100.0, 2.0))
            .build()
            .unwrap();
        let res = solve_min_power(&inst).unwrap();
        let gr = crate::greedy::greedy_min_replicas(inst.tree(), 10).unwrap();
        assert_eq!(res.servers, gr.servers);
    }

    #[test]
    fn bounded_cost_filters_and_is_monotone() {
        let (inst0, [r, a, b, c]) = fig2(4);
        // Make servers expensive to create and pre-exist B at mode 1.
        let tree = inst0.tree().clone();
        let inst = Instance::builder(tree)
            .modes(ModeSet::new(vec![7, 10]).unwrap())
            .power(PowerModel::new(10.0, 2.0))
            .pre_existing(PreExisting::at_mode([b], 1))
            .cost(CostModel::uniform(2, 0.5, 0.25, 0.1))
            .build()
            .unwrap();
        let dp = PowerDp::run(&inst).unwrap();
        let mut last_power = f64::INFINITY;
        let mut found_any = false;
        for bound in [1.0f64, 2.0, 2.5, 3.0, 4.0, 10.0] {
            if let Some(cand) = dp.best_within(bound) {
                assert!(le_tolerant(cand.cost, bound));
                assert!(
                    cand.power <= last_power + 1e-9,
                    "power must be non-increasing in the budget"
                );
                last_power = cand.power;
                found_any = true;
                let rec = dp.reconstruct(cand).unwrap();
                let sol = Solution::evaluate(&inst, &rec.placement).unwrap();
                assert!((sol.cost - cand.cost).abs() < 1e-9, "cost re-evaluation");
                assert!((sol.power - cand.power).abs() < 1e-9, "power re-evaluation");
            }
        }
        assert!(found_any);
        let _ = (r, a, c);
    }

    #[test]
    fn pareto_front_is_strictly_improving() {
        let (inst, _) = fig2(4);
        let dp = PowerDp::run(&inst).unwrap();
        let front = dp.pareto_front();
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].0 < w[1].0, "costs strictly increase");
            assert!(w[0].1 > w[1].1, "power strictly decreases");
        }
    }

    #[test]
    fn infeasible_instance_is_detected() {
        let mut bld = TreeBuilder::new();
        bld.add_client(bld.root(), 11);
        let inst = Instance::builder(bld.build().unwrap())
            .modes(ModeSet::new(vec![5, 10]).unwrap())
            .build()
            .unwrap();
        assert!(matches!(
            PowerDp::run(&inst),
            Err(ModelError::Infeasible(_))
        ));
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch across differently-sized instances must reproduce the
        // fresh-scratch pipeline exactly (incl. hash-order tie-breaking).
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use replica_tree::{generate, GeneratorConfig};
        let mut scratch = FullScratch::default();
        for (seed, nodes) in [(7u64, 20usize), (8, 9), (9, 28)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = generate::random_tree(&GeneratorConfig::paper_power(nodes), &mut rng);
            let pre: PreExisting = generate::random_pre_existing(&tree, 3, &mut rng)
                .into_iter()
                .map(|n| (n, rng.random_range(0..2)))
                .collect();
            let inst = Instance::builder(tree)
                .modes(ModeSet::new(vec![5, 10]).unwrap())
                .pre_existing(pre)
                .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
                .power(PowerModel::paper_experiment3(
                    &ModeSet::new(vec![5, 10]).unwrap(),
                ))
                .build()
                .unwrap();
            let fresh = PowerDp::run(&inst).unwrap();
            let reused = PowerDp::run_in(&inst, &mut scratch).unwrap();
            for bound in [15.0, 30.0, f64::INFINITY] {
                let f = fresh.best_within(bound).map(|c| {
                    (
                        c.power.to_bits(),
                        c.cost.to_bits(),
                        c.servers,
                        c.table_key,
                        c.root_mode,
                    )
                });
                let r = reused.best_within(bound).map(|c| {
                    (
                        c.power.to_bits(),
                        c.cost.to_bits(),
                        c.servers,
                        c.table_key,
                        c.root_mode,
                    )
                });
                assert_eq!(f, r, "seed {seed} bound {bound}");
                if let (Some(fc), Some(rc)) = (fresh.best_within(bound), reused.best_within(bound))
                {
                    let fp = fresh.reconstruct(fc).unwrap();
                    let rp = reused.reconstruct(rc).unwrap();
                    assert_eq!(fp.placement, rp.placement, "seed {seed} bound {bound}");
                }
            }
            reused.recycle(&mut scratch);
        }
    }
}
