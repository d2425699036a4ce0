//! Pre-flat-layout reference solvers — the equivalence-battery oracle.
//!
//! The hot solvers (`replica_core::{greedy, greedy_power, dp_power_pruned,
//! dp_power}`) iterate the cache-friendly `replica_tree::FlatTree`
//! post-order layout. This module retains their original tree-walking
//! implementations (a loop over `Tree::post_order` reading
//! `Tree::children`) **verbatim**, so the test batteries can prove the flat
//! solvers return *bit-identical* solutions — same placement, same
//! `f64::to_bits` cost and power — on arbitrary instances, including
//! pre-existing-replica and cost-budget modes.
//!
//! It is test support, not part of the library: test files include it with
//! `#[path = "support/reference.rs"] mod reference;`. Do not "optimize"
//! this module — its entire value is staying byte-for-byte faithful to the
//! pre-flat operation sequence.

use replica_core::greedy::GreedyResult;
use replica_core::greedy_power::SweepPoint;
use replica_core::state::{StateCodec, StateKey};
use replica_model::{le_tolerant, Instance, ModeIdx, ModePolicy, ModelError, Placement, Solution};
use replica_tree::{NodeId, Tree};
use rustc_hash::FxHashMap;

// ---------------------------------------------------------------------------
// Greedy (GR) — pre-flat copy of `replica_core::greedy::greedy_min_replicas`.
// ---------------------------------------------------------------------------

/// Pre-flat `GR`: post-order pointer traversal, largest-child-first absorb.
pub fn greedy_min_replicas(tree: &Tree, capacity: u64) -> Result<GreedyResult, ModelError> {
    assert!(capacity > 0, "capacity must be positive");
    let n = tree.internal_count();
    let mut placement = Placement::empty(tree);
    let mut flow = vec![0u64; n];
    let mut contributions: Vec<(u64, NodeId)> = Vec::new();

    for &node in tree.post_order() {
        let direct = tree.client_load(node);
        if direct > capacity {
            return Err(ModelError::Infeasible(format!(
                "clients attached to {node} bundle {direct} requests > capacity {capacity}"
            )));
        }
        let mut f = direct;
        contributions.clear();
        for &c in tree.children(node) {
            let fc = flow[c.index()];
            if fc > 0 {
                contributions.push((fc, c));
            }
            f += fc;
        }
        if f > capacity {
            contributions.sort_unstable_by(|a, b| b.cmp(a));
            for &(fc, c) in contributions.iter() {
                placement.insert(c, 0);
                f -= fc;
                if f <= capacity {
                    break;
                }
            }
        }
        flow[node.index()] = f;
    }

    let root = tree.root();
    if flow[root.index()] > 0 {
        placement.insert(root, 0);
    }
    let servers = placement.server_count() as u64;
    Ok(GreedyResult { placement, servers })
}

// ---------------------------------------------------------------------------
// Greedy power sweep — pre-flat copy of `replica_core::greedy_power`.
// ---------------------------------------------------------------------------

/// Pre-flat capacity sweep of the `GR` baseline (paper range `W₁..=W_M`).
pub fn greedy_power_sweep(instance: &Instance) -> Vec<SweepPoint> {
    let lo = instance.modes().capacity(0);
    let hi = instance.max_capacity();
    let mut out = Vec::new();
    for w in lo..=hi {
        if w == 0 || w > instance.max_capacity() {
            continue;
        }
        let Ok(greedy) = greedy_min_replicas(instance.tree(), w) else {
            continue;
        };
        let sol =
            Solution::evaluate_with_policy(instance, &greedy.placement, ModePolicy::LowestFeasible)
                .expect("greedy placements with trial W ≤ W_M are feasible");
        out.push(SweepPoint {
            trial_capacity: w,
            placement: sol.placement.clone(),
            cost: sol.cost,
            power: sol.power,
            servers: sol.counts.total_servers(),
        });
    }
    out
}

/// Pre-flat `greedy_power::solve`: sweep + min-power-within-budget filter.
pub fn greedy_power_solve(instance: &Instance, cost_bound: f64) -> Result<SweepPoint, ModelError> {
    let points = greedy_power_sweep(instance);
    points
        .iter()
        .filter(|p| le_tolerant(p.cost, cost_bound))
        .min_by(|a, b| a.power.total_cmp(&b.power).then(a.cost.total_cmp(&b.cost)))
        .cloned()
        .ok_or_else(|| {
            ModelError::Infeasible(format!(
                "greedy sweep finds nothing under cost {cost_bound}"
            ))
        })
}

// ---------------------------------------------------------------------------
// Dominance-pruned DP — pre-flat copy of `replica_core::dp_power_pruned`.
// ---------------------------------------------------------------------------

/// One pruned-table entry (identical layout to
/// `replica_core::dp_power_pruned::Triple`, duplicated so this module stays
/// self-contained).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Triple {
    flow: u64,
    cost: f64,
    power: f64,
}

struct Weights {
    cost: Vec<Vec<f64>>,
    power: Vec<f64>,
}

fn weights(instance: &Instance) -> Weights {
    let tree = instance.tree();
    let modes = instance.modes();
    let cost_model = instance.cost();
    let pre = instance.pre_existing();
    let power: Vec<f64> = modes
        .indices()
        .map(|m| instance.power().server_power(modes, m))
        .collect();
    let cost = tree
        .internal_nodes()
        .map(|node| {
            modes
                .indices()
                .map(|m| match pre.mode_of(node) {
                    Some(o) => cost_model.reused_server(o, m) - cost_model.deleted_server(o),
                    None => cost_model.new_server(m),
                })
                .collect()
        })
        .collect();
    Weights { cost, power }
}

fn prune(entries: &mut Vec<Triple>) {
    entries.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then(a.power.total_cmp(&b.power))
            .then(a.flow.cmp(&b.flow))
    });
    let mut kept: Vec<Triple> = Vec::with_capacity(entries.len().min(64));
    for &e in entries.iter() {
        if !kept.iter().any(|k| k.power <= e.power && k.flow <= e.flow) {
            kept.push(e);
        }
    }
    *entries = kept;
}

fn merge(
    instance: &Instance,
    w: &Weights,
    child_node: NodeId,
    left: &[Triple],
    child: &[Triple],
) -> Vec<Triple> {
    let modes = instance.modes();
    let wmax = instance.max_capacity();
    let m = modes.count();
    let mut out = Vec::with_capacity(left.len() * (m + 1));
    for l in left {
        for c in child {
            let combined = l.flow + c.flow;
            if combined <= wmax {
                out.push(Triple {
                    flow: combined,
                    cost: l.cost + c.cost,
                    power: l.power + c.power,
                });
            }
            if let Some(first) = modes.mode_for_load(c.flow) {
                for mode in first..m {
                    out.push(Triple {
                        flow: l.flow,
                        cost: l.cost + c.cost + w.cost[child_node.index()][mode],
                        power: l.power + c.power + w.power[mode],
                    });
                }
            }
        }
    }
    prune(&mut out);
    out
}

/// Pre-flat `dp_power_pruned::solve_min_power_bounded_cost`: full pipeline
/// (forward pass, root scan, budget filter, bit-exact backtrack).
pub fn pruned_solve(
    instance: &Instance,
    cost_bound: f64,
) -> Result<(Placement, f64, f64), ModelError> {
    let tree = instance.tree();
    let w = weights(instance);
    let wmax = instance.max_capacity();
    let delete_constant: f64 = instance
        .pre_existing()
        .iter()
        .map(|(_, orig)| instance.cost().deleted_server(orig))
        .sum();

    let mut tables: Vec<Vec<Triple>> = vec![Vec::new(); tree.internal_count()];
    for &node in tree.post_order() {
        let direct = tree.client_load(node);
        let mut table = Vec::new();
        if direct <= wmax {
            table.push(Triple {
                flow: direct,
                cost: 0.0,
                power: 0.0,
            });
        }
        for &child in tree.children(node) {
            if table.is_empty() {
                break;
            }
            table = merge(instance, &w, child, &table, &tables[child.index()]);
        }
        tables[node.index()] = table;
    }

    // Root scan.
    let modes = instance.modes();
    let root = tree.root();
    let mut candidates: Vec<(Triple, Option<ModeIdx>, f64, f64)> = Vec::new();
    for &t in &tables[root.index()] {
        if t.flow == 0 {
            candidates.push((t, None, t.cost + delete_constant, t.power));
        }
        if let Some(first) = modes.mode_for_load(t.flow) {
            for mode in first..modes.count() {
                candidates.push((
                    t,
                    Some(mode),
                    t.cost + w.cost[root.index()][mode] + delete_constant,
                    t.power + w.power[mode],
                ));
            }
        }
    }
    if candidates.is_empty() {
        return Err(ModelError::Infeasible(
            "no feasible placement exists for this instance".into(),
        ));
    }
    let &(triple, root_mode, cost, power) = candidates
        .iter()
        .filter(|c| le_tolerant(c.2, cost_bound))
        .min_by(|a, b| a.3.total_cmp(&b.3).then(a.2.total_cmp(&b.2)))
        .ok_or_else(|| {
            ModelError::Infeasible(format!("no placement fits the cost bound {cost_bound}"))
        })?;

    // Reconstruct.
    let m = modes.count();
    let mut placement = Placement::empty(tree);
    if let Some(mode) = root_mode {
        placement.insert(tree.root(), mode);
    }
    let mut work: Vec<(NodeId, Triple)> = vec![(tree.root(), triple)];
    while let Some((node, target)) = work.pop() {
        let children = tree.children(node);
        if children.is_empty() {
            continue;
        }
        let mut inter: Vec<Vec<Triple>> = Vec::with_capacity(children.len() + 1);
        inter.push(vec![Triple {
            flow: tree.client_load(node),
            cost: 0.0,
            power: 0.0,
        }]);
        for &child in children {
            let next = merge(
                instance,
                &w,
                child,
                inter.last().expect("non-empty"),
                &tables[child.index()],
            );
            inter.push(next);
        }

        let mut cur = target;
        for (k, &child) in children.iter().enumerate().rev() {
            let left = &inter[k];
            let child_table = &tables[child.index()];
            let mut found = None;
            'search: for l in left {
                for c in child_table {
                    #[allow(clippy::float_cmp)] // bit-reproducible sums
                    if l.flow + c.flow == cur.flow
                        && l.flow + c.flow <= wmax
                        && l.cost + c.cost == cur.cost
                        && l.power + c.power == cur.power
                    {
                        found = Some((*l, *c, None));
                        break 'search;
                    }
                    if l.flow == cur.flow {
                        if let Some(first) = modes.mode_for_load(c.flow) {
                            for mode in first..m {
                                #[allow(clippy::float_cmp)]
                                if l.cost + c.cost + w.cost[child.index()][mode] == cur.cost
                                    && l.power + c.power + w.power[mode] == cur.power
                                {
                                    found = Some((*l, *c, Some(mode)));
                                    break 'search;
                                }
                            }
                        }
                    }
                }
            }
            let (l, c, server_mode) = found.ok_or_else(|| {
                ModelError::Infeasible(format!(
                    "internal error: no producer for pruned state at {node}"
                ))
            })?;
            if let Some(mode) = server_mode {
                placement.insert(child, mode);
            }
            work.push((child, c));
            cur = l;
        }
    }
    Ok((placement, cost, power))
}

// ---------------------------------------------------------------------------
// Full-state DP — pre-flat copy of `replica_core::dp_power` (serial merge path).
// ---------------------------------------------------------------------------

type Table = FxHashMap<StateKey, u64>;

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

fn merge_child(
    codec: &StateCodec,
    instance: &Instance,
    left: &Table,
    child: &Table,
    unit_keys: &[StateKey],
) -> Table {
    let mut out =
        Table::with_capacity_and_hasher(left.len().max(child.len()) * 2, Default::default());
    let modes = instance.modes();
    let wmax = instance.max_capacity();
    let m = modes.count();
    for (&k1, &f1) in left {
        for (&k2, &f2) in child {
            let combined = f1 + f2;
            if combined <= wmax {
                insert_min(&mut out, codec.combine(k1, k2), combined);
            }
            if let Some(first) = modes.mode_for_load(f2) {
                let base = codec.combine(k1, k2);
                for (mode, &unit) in unit_keys.iter().enumerate().take(m).skip(first) {
                    let _ = mode;
                    insert_min(&mut out, base + unit, f1);
                }
            }
        }
    }
    out
}

/// Pre-flat `dp_power::solve_min_power_bounded_cost` (serial merges): full
/// pipeline returning the reconstructed placement plus `(cost, power)`.
pub fn full_solve(
    instance: &Instance,
    cost_bound: f64,
) -> Result<(Placement, f64, f64), ModelError> {
    let tree = instance.tree();
    let pre = instance.pre_existing();
    let m = instance.mode_count();
    let max_new = (tree.internal_count() - pre.count()) as u64;
    let codec = StateCodec::new(m, max_new, pre.count() as u64)?;
    let wmax = instance.max_capacity();
    let modes = instance.modes();

    let unit_keys: Vec<Vec<StateKey>> = tree
        .internal_nodes()
        .map(|node| {
            (0..m)
                .map(|mode| match pre.mode_of(node) {
                    Some(orig) => codec.bump_reused(codec.zero(), orig, mode),
                    None => codec.bump_new(codec.zero(), mode),
                })
                .collect()
        })
        .collect();

    let mut tables: Vec<Table> = vec![Table::default(); tree.internal_count()];
    for &node in tree.post_order() {
        let direct = tree.client_load(node);
        let mut table = Table::default();
        if direct <= wmax {
            table.insert(codec.zero(), direct);
        }
        for &child in tree.children(node) {
            table = merge_child(
                &codec,
                instance,
                &table,
                &tables[child.index()],
                &unit_keys[child.index()],
            );
            if table.is_empty() {
                break;
            }
        }
        tables[node.index()] = table;
    }

    // Root scan + budget filter (same tie-breaks as `PowerDp::best_within`).
    let root = tree.root();
    let mut candidates: Vec<(StateKey, u64, Option<ModeIdx>, f64, f64, u64)> = Vec::new();
    for (&key, &flow) in &tables[root.index()] {
        if flow == 0 {
            let (cost, power, servers) = evaluate(instance, &codec, key);
            candidates.push((key, flow, None, cost, power, servers));
        }
        if let Some(first) = modes.mode_for_load(flow) {
            for (mode, &unit) in unit_keys[root.index()].iter().enumerate().skip(first) {
                let (cost, power, servers) = evaluate(instance, &codec, key + unit);
                candidates.push((key, flow, Some(mode), cost, power, servers));
            }
        }
    }
    if candidates.is_empty() {
        return Err(ModelError::Infeasible(
            "no feasible placement exists for this instance".into(),
        ));
    }
    let &(key_target, flow_target, root_mode, cost, power, _servers) = candidates
        .iter()
        .filter(|c| le_tolerant(c.3, cost_bound))
        .min_by(|a, b| {
            a.4.total_cmp(&b.4)
                .then(a.3.total_cmp(&b.3))
                .then(a.5.cmp(&b.5))
        })
        .ok_or_else(|| {
            ModelError::Infeasible(format!("no placement fits the cost bound {cost_bound}"))
        })?;

    // Reconstruct (worklist backtrack re-running each node's merges).
    let mut placement = Placement::empty(tree);
    if let Some(mode) = root_mode {
        placement.insert(tree.root(), mode);
    }
    let mut work: Vec<(NodeId, StateKey, u64)> = vec![(tree.root(), key_target, flow_target)];
    while let Some((node, key_target, flow_target)) = work.pop() {
        let children = tree.children(node);
        if children.is_empty() {
            continue;
        }
        let mut inter: Vec<Table> = Vec::with_capacity(children.len() + 1);
        let mut table = Table::default();
        table.insert(codec.zero(), tree.client_load(node));
        inter.push(table);
        for &child in children {
            let next = merge_child(
                &codec,
                instance,
                inter.last().expect("intermediate tables start non-empty"),
                &tables[child.index()],
                &unit_keys[child.index()],
            );
            inter.push(next);
        }

        let mut key_cur = key_target;
        let mut flow_cur = flow_target;
        for (k, &child) in children.iter().enumerate().rev() {
            let left = &inter[k];
            let child_table = &tables[child.index()];
            let unit = &unit_keys[child.index()];
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
                ModelError::Infeasible(format!(
                    "internal error: no producer for state at {node} (child {child})"
                ))
            })?;
            if let Some(mode) = server_mode {
                placement.insert(child, mode);
            }
            work.push((child, k2, f2));
            key_cur = k1;
            flow_cur = f1;
        }
    }
    Ok((placement, cost, power))
}

/// Evaluates Eq. 3 / Eq. 4 of a complete (root-decided) state.
fn evaluate(instance: &Instance, codec: &StateCodec, full_key: StateKey) -> (f64, f64, u64) {
    let state = codec.decode(full_key);
    let m = codec.modes;
    let e_by_mode = instance.pre_existing().count_by_mode(m);
    let mut deleted = vec![0u64; m];
    for (i, &total) in e_by_mode.iter().enumerate() {
        let reused: u64 = state.reused[i].iter().sum();
        deleted[i] = total - reused;
    }
    let cost = instance
        .cost()
        .total(&state.new_by_mode, &state.reused, &deleted);
    let mut by_mode = state.new_by_mode.clone();
    for row in &state.reused {
        for (ip, &e) in row.iter().enumerate() {
            by_mode[ip] += e;
        }
    }
    let power = instance.power().total(instance.modes(), &by_mode);
    (cost, power, state.total_servers())
}
