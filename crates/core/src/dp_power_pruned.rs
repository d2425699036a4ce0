//! Dominance-pruned exact power DP — an optimization beyond the paper.
//!
//! The §4.3 algorithm keys its tables by the full state vector
//! `(n₁…n_M, e₁₁…e_MM)`, which is what drives the `O(N^{2M²+2M+1})` bound.
//! But observe that both objectives are *additive per server* with
//! coefficients that depend only on the server's (origin, assigned mode):
//!
//! * power: `P_static + W_m^α` per server (Eq. 3 term by term);
//! * cost: Eq. 4 regroups as
//!   `Σᵢ deleteᵢ·Eᵢ + Σ_new (1 + create_m) + Σ_reused (1 + changed_om − delete_o)`
//!   — a global constant plus one additive weight per placed server.
//!
//! Hence a subtree's influence on any completion is fully captured by the
//! triple **(traversing flow, partial cost, partial power)**, and a triple
//! that is component-wise dominated can never beat its dominator under any
//! budget: every table can be pruned to its 3-D Pareto front. The state
//! *vector* disappears entirely; what remains is exactly the information
//! the root scan needs. On paper-sized instances this shrinks tables by an
//! order of magnitude and more (see the `ablation` bench), while the
//! returned optima are bit-equal to [`dp_power`](crate::dp_power) — the
//! test suite and the oracle enforce this.
//!
//! Reconstruction reads what the forward pass kept: each position's fold
//! prefixes (the accumulated table before each child merge), so the
//! backtrack matches partial costs/powers with exact `f64` equality against
//! the very tables the fold built, and re-merges nothing.
//!
//! ## One driver
//!
//! The forward pass iterates the [`FlatTree`] post-order layout (one dense
//! scan, children as position windows). All of its state — the layout, the
//! flattened weight arrays, the per-position tables and fold prefixes, the
//! merge/prune buffers, the root candidates — lives in one [`PrunedScratch`],
//! and two callers drive it through the same fold step and the same
//! backtrack:
//!
//! * [`PrunedPowerDp::run_in`] (the batch solve) folds every position from
//!   its base and backtracks into an empty placement, never skipping;
//! * [`IncrementalDp`](crate::incremental::IncrementalDp) refolds only its
//!   dirty sweep, each position from its first changed child, and
//!   backtracks into the previous placement, skipping subtrees whose
//!   decisions cannot have changed.
//!
//! A batch solve is an incremental solve with every position dirty. The
//! scratch is borrowed by [`PrunedPowerDp::run_for`] and returned by
//! [`PrunedPowerDp::recycle`], so fleet batches solve with zero
//! steady-state allocation. Results are bit-identical to the pre-flat
//! pointer traversal (the test suite's `reference::pruned_solve` pins
//! this).
//!
//! ## Two front kinds
//!
//! What a table must keep depends on the budget, so the cost bound a solve
//! starts with fixes the kind of front for the whole solve:
//!
//! * **3-D (flow, cost, power)**, above: any finite bound, and
//!   [`PrunedPowerDp::run_in`], which answers every budget (amortized
//!   sweeps, [`PrunedPowerDp::pareto_front`]). This is Theorem 3's
//!   `MinPower-BoundedCost` (§4.3). At α > 1 the front grows with subtree
//!   size, so the solve is about quadratic in the tree.
//! * **(flow, power), cost as the tie-break**: a bound of +∞, the paper's
//!   `MinPower` (§4.2). An entry `e` is dropped when a kept `k` with
//!   `k.flow ≤ e.flow` either 3-D-dominates it or has
//!   `k.power + S < e.power`. About `W_M + 1` entries per table survive,
//!   so the solve is `O(n·W_M²)`: pseudo-polynomial, as Theorem 2's
//!   2-Partition reduction requires.
//!
//! The slack `S = 2·(n + 1)·n·P_max·ε` (n positions, `P_max` the largest
//! server power, ε = `f64::EPSILON`) keeps the cost tie-break exact when
//! power sums round. Powers are ≥ 0 and a placement has at most one server
//! per position, so every partial power sum is ≤ n·P_max, and one `f64`
//! addition moves the gap between two such sums by at most n·P_max·ε. A
//! table entry passes through at most 2n − 1 additions before the root
//! scan: at most two per merge on its way up, plus the root server. So
//! every completion of `k` ends strictly below the same completion of
//! `e`, and `e` can neither win nor tie. The relation is transitive, so
//! the prune stays a pure function of the candidate set (mid-merge
//! compaction relies on that), and the optimum's cost and power are
//! bit-identical to the 3-D solve's. Tied optima may put servers at
//! different but equivalent positions.

use replica_model::{le_tolerant, Instance, ModeIdx, ModelError, Placement};
use replica_tree::FlatTree;

/// One table entry: everything a completion needs to know about a subtree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Triple {
    /// Requests traversing the subtree root upward.
    pub flow: u64,
    /// Additive cost of the servers placed inside (excluding the global
    /// deletion constant).
    pub cost: f64,
    /// Additive power of the servers placed inside.
    pub power: f64,
}

/// A feasible aggregate solution at the root.
#[derive(Clone, Copy, Debug)]
pub struct PrunedCandidate {
    /// Table triple this candidate extends.
    pub triple: Triple,
    /// Mode of a replica placed at the root, if any.
    pub root_mode: Option<ModeIdx>,
    /// Full Eq. 4 cost (deletion constant included).
    pub cost: f64,
    /// Full Eq. 3 power.
    pub power: f64,
}

/// The forward-pass state of the pruned DP, reusable across solves.
///
/// Holds the flat layout, the flattened per-(position, mode) weights, the
/// per-position Pareto tables and fold prefixes, the merge/prune buffers,
/// and the root candidates. After one solve has grown the buffers,
/// subsequent solves of same-sized trees allocate nothing.
#[derive(Default)]
pub struct PrunedScratch {
    pub(crate) flat: FlatTree,
    /// `wcost[p * m + mode]`: additive cost of a server at position `p`.
    wcost: Vec<f64>,
    /// `wpower[mode]`: additive power of a server at `mode`.
    wpower: Vec<f64>,
    /// The global Eq. 4 deletion constant `Σᵢ deleteᵢ·Eᵢ`.
    delete_constant: f64,
    /// The front kind the tables hold, fixed by [`PrunedScratch::forward`].
    front: Front,
    /// The cost bound the tables were built for: they answer every budget
    /// at or above it.
    built_for: f64,
    /// `tables[p]`: the Pareto table of position `p`.
    tables: Vec<Vec<Triple>>,
    /// `prefixes[p][k - 1]`: the fold accumulator of position `p` before
    /// merging its child `k ≥ 1`. The accumulator before child 0 is the
    /// base, one triple rebuilt from `client_load(p)` when needed, so
    /// leaves and single-child positions keep no prefix at all.
    prefixes: Vec<Vec<Vec<Triple>>>,
    next: Vec<Triple>,
    kept: Vec<Triple>,
    served: Vec<Served>,
    served_kept: Vec<Served>,
    merge: MergeScratch,
    pub(crate) candidates: Vec<PrunedCandidate>,
}

/// A child outcome paired with one feasible server mode's weights — the
/// candidate pool for "place a replica at the child" merge outputs.
///
/// Kept as the four addends rather than their sums: the forward pass must
/// reproduce the original `l + c + w` float summation order bit for bit,
/// so dominance between served outcomes is judged component-wise (`cost`,
/// `power`, `wcost`, `wpower` all ≤) — exactly the condition under which
/// the dominator's output beats the dominated one for *every* left entry
/// under IEEE-754 addition monotonicity.
#[derive(Clone, Copy)]
struct Served {
    cost: f64,
    power: f64,
    wcost: f64,
    wpower: f64,
}

/// Which Pareto front the tables hold (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Front {
    /// (flow, cost, power): answers every budget.
    #[default]
    Full,
    /// (flow, power) with cost as the tie-break: answers an unbounded
    /// budget only. `slack` is the certified rounding bound `S`.
    MinPower { slack: f64 },
}

impl Front {
    /// The kind a solve for budgets `≥ cost_bound` needs: the (flow,
    /// power) front for +∞, the 3-D front otherwise. `positions` and
    /// `wpower` size the slack.
    fn for_bound(cost_bound: f64, positions: usize, wpower: &[f64]) -> Front {
        if cost_bound != f64::INFINITY {
            return Front::Full;
        }
        let n = positions as f64;
        let pmax = wpower.iter().fold(0.0, |a: f64, &b| a.max(b));
        Front::MinPower {
            slack: 2.0 * (n + 1.0) * n * pmax * f64::EPSILON,
        }
    }
}

/// A completed pruned-DP run.
pub struct PrunedPowerDp<'a> {
    instance: &'a Instance,
    scratch: PrunedScratch,
}

/// Flow ceiling up to which [`prune_full_into`] uses the O(1) bucketed
/// dominance test; larger capacities fall back to the front scan.
const MAX_FLOW_BUCKETS: u64 = 4096;

/// Prunes to `front`, keeping the survivors in `entries`; `kept` is the
/// filter buffer. `wmax` is the instance's flow ceiling — every entry's
/// flow is ≤ `wmax` by construction (infeasible combinations are never
/// pushed).
fn prune_into(entries: &mut Vec<Triple>, kept: &mut Vec<Triple>, wmax: u64, front: Front) {
    match front {
        Front::Full => prune_full_into(entries, kept, wmax),
        Front::MinPower { slack } => prune_min_power_into(entries, kept, slack),
    }
}

/// Prunes to the 3-D Pareto front (minimal flow/cost/power), sorted by
/// cost.
fn prune_full_into(entries: &mut Vec<Triple>, kept: &mut Vec<Triple>, wmax: u64) {
    // Unstable sort is safe: comparator-equal triples are bit-identical
    // (total_cmp is a total order on the raw representation), so any
    // permutation of an equal run yields the same sequence.
    entries.sort_unstable_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then(a.power.total_cmp(&b.power))
            .then(a.flow.cmp(&b.flow))
    });
    kept.clear();
    // Everything already kept has cost ≤ e.cost (sort order), so e is
    // dominated iff some kept entry also has power ≤ and flow ≤.
    if wmax <= MAX_FLOW_BUCKETS {
        // minpow[f] = min power over kept entries with flow ≤ f. It is
        // non-increasing in f, so the membership test collapses to one
        // lookup and inserts stop updating at the first already-lower
        // slot.
        let mut minpow = vec![f64::INFINITY; wmax as usize + 1];
        for &e in entries.iter() {
            if minpow[e.flow as usize] <= e.power {
                continue;
            }
            kept.push(e);
            for slot in &mut minpow[e.flow as usize..] {
                if *slot > e.power {
                    *slot = e.power;
                } else {
                    break;
                }
            }
        }
    } else {
        for &e in entries.iter() {
            if !kept.iter().any(|k| k.power <= e.power && k.flow <= e.flow) {
                kept.push(e);
            }
        }
    }
    std::mem::swap(entries, kept);
}

/// Prunes to the (flow, power) front with cost as the tie-break, sorted
/// by power: drops `e` when a kept `k` with `k.flow ≤ e.flow` either
/// 3-D-dominates it or has `k.power + slack < e.power` (the module docs
/// prove both safe). Kept entries arrive in power order, so those more
/// than `slack` below `e` form a growing prefix, summarized by its minimum
/// flow; only the short window above it is scanned for 3-D dominance.
fn prune_min_power_into(entries: &mut Vec<Triple>, kept: &mut Vec<Triple>, slack: f64) {
    // Unstable sort is safe for the same reason as in `prune_full_into`.
    entries.sort_unstable_by(|a, b| {
        a.power
            .total_cmp(&b.power)
            .then(a.cost.total_cmp(&b.cost))
            .then(a.flow.cmp(&b.flow))
    });
    kept.clear();
    let (mut far, mut far_flow) = (0, u64::MAX);
    for &e in entries.iter() {
        while far < kept.len() && kept[far].power + slack < e.power {
            far_flow = far_flow.min(kept[far].flow);
            far += 1;
        }
        let dominated = (far > 0 && far_flow <= e.flow)
            || kept[far..]
                .iter()
                .any(|k| k.flow <= e.flow && k.cost <= e.cost && k.power <= e.power);
        if !dominated {
            kept.push(e);
        }
    }
    std::mem::swap(entries, kept);
}

/// Allocating [`prune_into`] (unit tests).
#[cfg(test)]
fn prune(entries: &mut Vec<Triple>, wmax: u64, front: Front) {
    let mut kept = Vec::with_capacity(entries.len().min(64));
    prune_into(entries, &mut kept, wmax, front);
}

/// Prunes served outcomes to their component-wise Pareto front (see
/// [`Served`] for why dominance must be judged on the addends).
fn prune_served_into(entries: &mut Vec<Served>, kept: &mut Vec<Served>) {
    entries.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then(a.power.total_cmp(&b.power))
            .then(a.wcost.total_cmp(&b.wcost))
            .then(a.wpower.total_cmp(&b.wpower))
    });
    kept.clear();
    for &e in entries.iter() {
        if !kept
            .iter()
            .any(|k| k.power <= e.power && k.wcost <= e.wcost && k.wpower <= e.wpower)
        {
            kept.push(e);
        }
    }
    std::mem::swap(entries, kept);
}

/// `out` is compacted whenever it outgrows this floor (or four times its
/// last Pareto front, whichever is larger): the buffer and every sort stay
/// proportional to the front, not to the full `left × child` product.
const COMPACT_FLOOR: usize = 8 * 1024;

/// Reusable working memory for [`merge_into`]'s flow bucketing and
/// push-side dominance prefilter. One instance serves a whole forward
/// pass; after the first merge has grown the buffers nothing allocates.
#[derive(Default)]
struct MergeScratch {
    /// The child table counting-sorted by flow, so the capacity-feasible
    /// partners of a left entry form a contiguous prefix.
    by_flow: Vec<Triple>,
    /// Bucket boundaries: entries with flow ≤ f are `by_flow[..starts[f + 1]]`.
    starts: Vec<usize>,
    cursor: Vec<usize>,
    /// `stairs[f]`: the last compaction's 3-D front restricted to flow
    /// ≤ f, as a (cost ascending, power strictly descending) staircase. A
    /// candidate dominated by it can be dropped *before* entering the
    /// sort buffer — the dominating front entry is still in `out`, so
    /// the final front is unchanged.
    stairs: Vec<Vec<(f64, f64)>>,
}

/// Is `(flow, cost, power)` dominated by the staircase front?
///
/// `stairs[flow]` only holds front entries with flow ≤ `flow`, sorted by
/// cost with power strictly decreasing — so the rightmost entry with
/// cost ≤ `cost` carries the minimum power over every front entry that
/// could dominate, and one binary search decides.
#[inline]
fn stair_dominated(stairs: &[Vec<(f64, f64)>], flow: u64, cost: f64, power: f64) -> bool {
    let s = &stairs[flow as usize];
    let i = s.partition_point(|&(c, _)| c <= cost);
    i > 0 && s[i - 1].1 <= power
}

/// Rebuilds the per-flow staircases from a cost-sorted 3-D front (the
/// [`prune_full_into`] output order). Walking the front in cost order means a
/// bucket push only needs a power check against the bucket's last entry;
/// buckets are cumulative in flow, so once an entry stops improving one
/// bucket it cannot improve any later one.
fn rebuild_stairs(front: &[Triple], wmax: usize, stairs: &mut Vec<Vec<(f64, f64)>>) {
    if stairs.len() < wmax + 1 {
        stairs.resize_with(wmax + 1, Vec::new);
    }
    for s in stairs.iter_mut() {
        s.clear();
    }
    for e in front {
        for s in stairs[e.flow as usize..=wmax].iter_mut() {
            match s.last() {
                Some(&(_, p)) if p <= e.power => break,
                _ => s.push((e.cost, e.power)),
            }
        }
    }
}

/// One merge step into caller buffers (the forward-pass kernel).
///
/// The resulting table is the `front` of every combination, and
/// [`prune_into`] is a pure function of the candidate *set* — so the
/// enumeration below may drop candidates it can prove dominated, visit
/// pairs in any order, and compact `out` mid-flight without changing a
/// bit of the output. The liberties taken, which together keep
/// datacenter-sized merges out of quadratic time and memory:
///
/// * **Served-outcome collapse**: a "replica at the child" output reuses
///   the left entry's flow, so among `(child entry, mode)` pairs only the
///   component-wise front ([`Served`]) can survive the final prune; it is
///   computed once per merge instead of rediscovered per left entry.
/// * **Chunked compaction**: `out` is pruned whenever it outgrows
///   [`COMPACT_FLOOR`] (or 4× its last front), so the buffer and each
///   sort stay front-sized instead of cross-product-sized.
/// * **Flow-bucketed enumeration**: the child table is counting-sorted
///   by flow, so a left entry's capacity-feasible partners are a
///   contiguous prefix and infeasible pairs are never visited.
/// * **Push-side prefilter**: after each compaction the surviving front
///   is folded into per-flow staircases ([`MergeScratch::stairs`]); a
///   later candidate it dominates is dropped by one binary search
///   instead of being pushed, sorted, and discarded — near the root
///   well over 99% of candidates die here.
///
/// The last two serve 3-D merges with `wmax ≤ MAX_FLOW_BUCKETS`. (flow,
/// power) fronts hold about `W_M + 1` entries, so their merges take the
/// plain pair loop: bucketing would cost more per merge than it saves.
#[allow(clippy::too_many_arguments)]
fn merge_into(
    instance: &Instance,
    front: Front,
    wcost: &[f64],
    wpower: &[f64],
    child_pos: usize,
    left: &[Triple],
    child: &[Triple],
    out: &mut Vec<Triple>,
    kept: &mut Vec<Triple>,
    served: &mut Vec<Served>,
    served_kept: &mut Vec<Served>,
    mscratch: &mut MergeScratch,
) {
    let modes = instance.modes();
    let wmax = instance.max_capacity();
    let m = modes.count();

    served.clear();
    for c in child {
        if let Some(first) = modes.mode_for_load(c.flow) {
            for mode in first..m {
                served.push(Served {
                    cost: c.cost,
                    power: c.power,
                    wcost: wcost[child_pos * m + mode],
                    wpower: wpower[mode],
                });
            }
        }
    }
    prune_served_into(served, served_kept);

    // Pair enumeration order is free: [`prune_into`]'s total sort makes
    // the pruned table a pure function of the candidate *set* (see the
    // liberties listed above), and each candidate's
    // sums are per-pair, so bucketing the child table by flow changes
    // neither values nor the final front. What it buys: for an
    // accumulator entry with flow `fl`, only child entries with flow
    // ≤ `wmax − fl` can combine, and with the child grouped by flow
    // those form a contiguous prefix — the capacity check moves out of
    // the inner loop and infeasible pairs are never visited at all.
    out.clear();
    let mut compact_at = COMPACT_FLOOR;
    if wmax <= MAX_FLOW_BUCKETS && front == Front::Full {
        let w = wmax as usize;
        // Counting-sort `child` by flow; `starts[f]` = first index of
        // bucket `f`, so entries with flow ≤ f are `by_flow[..starts[f + 1]]`.
        mscratch.starts.clear();
        mscratch.starts.resize(w + 2, 0);
        for c in child {
            mscratch.starts[c.flow as usize + 1] += 1;
        }
        for f in 0..=w {
            mscratch.starts[f + 1] += mscratch.starts[f];
        }
        mscratch.cursor.clone_from(&mscratch.starts);
        mscratch.by_flow.clear();
        mscratch.by_flow.resize(
            child.len(),
            Triple {
                flow: 0,
                cost: 0.0,
                power: 0.0,
            },
        );
        for c in child {
            let slot = mscratch.cursor[c.flow as usize];
            mscratch.by_flow[slot] = *c;
            mscratch.cursor[c.flow as usize] = slot + 1;
        }
        if mscratch.stairs.len() < w + 1 {
            mscratch.stairs.resize_with(w + 1, Vec::new);
        }
        for s in mscratch.stairs.iter_mut() {
            s.clear();
        }
        for l in left {
            let budget = (wmax - l.flow) as usize;
            for c in &mscratch.by_flow[..mscratch.starts[budget + 1]] {
                let flow = l.flow + c.flow;
                let cost = l.cost + c.cost;
                let power = l.power + c.power;
                if !stair_dominated(&mscratch.stairs, flow, cost, power) {
                    out.push(Triple { flow, cost, power });
                }
            }
            // Same addition order as the pre-collapse code: (l + c) + w.
            for s in served.iter() {
                let cost = l.cost + s.cost + s.wcost;
                let power = l.power + s.power + s.wpower;
                if !stair_dominated(&mscratch.stairs, l.flow, cost, power) {
                    out.push(Triple {
                        flow: l.flow,
                        cost,
                        power,
                    });
                }
            }
            if out.len() >= compact_at {
                prune_full_into(out, kept, wmax);
                compact_at = COMPACT_FLOOR.max(out.len() * 4);
                rebuild_stairs(out, w, &mut mscratch.stairs);
            }
        }
    } else {
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
            }
            // Same addition order as the pre-collapse code: (l + c) + w.
            for s in served.iter() {
                out.push(Triple {
                    flow: l.flow,
                    cost: l.cost + s.cost + s.wcost,
                    power: l.power + s.power + s.wpower,
                });
            }
            if out.len() >= compact_at {
                prune_into(out, kept, wmax, front);
                compact_at = COMPACT_FLOOR.max(out.len() * 4);
            }
        }
    }
    prune_into(out, kept, wmax, front);
}

/// The fold base of position `p`: its direct client load, no server yet.
fn fold_base(flat: &FlatTree, p: usize) -> [Triple; 1] {
    [Triple {
        flow: flat.client_load(p),
        cost: 0.0,
        power: 0.0,
    }]
}

impl PrunedScratch {
    /// The batch forward pass for budgets `≥ cost_bound`: lays `instance`
    /// out, fills the weights, picks the front kind from `cost_bound`,
    /// folds every position from its base and scans the root.
    pub(crate) fn forward(&mut self, instance: &Instance, cost_bound: f64) {
        let modes = instance.modes();
        let cost_model = instance.cost();
        let pre = instance.pre_existing();
        self.flat.rebuild(instance.tree());
        self.wpower.clear();
        self.wpower.extend(
            modes
                .indices()
                .map(|mode| instance.power().server_power(modes, mode)),
        );
        self.wcost.clear();
        self.wcost.reserve(self.flat.len() * modes.count());
        for p in self.flat.positions() {
            let orig = instance.pre_existing_mode(self.flat.node_at(p));
            for mode in modes.indices() {
                self.wcost.push(match orig {
                    // Reusing cancels the deletion this server would have
                    // paid inside the global constant.
                    Some(o) => cost_model.reused_server(o, mode) - cost_model.deleted_server(o),
                    None => cost_model.new_server(mode),
                });
            }
        }
        self.delete_constant = pre.iter().map(|(_, o)| cost_model.deleted_server(o)).sum();
        let n = self.flat.len();
        self.front = Front::for_bound(cost_bound, n, &self.wpower);
        self.built_for = cost_bound;
        self.tables.resize_with(n, Vec::new);
        self.prefixes.resize_with(n, Vec::new);
        for p in 0..n {
            self.compute_position(instance, p, 0);
        }
        self.scan_root(instance);
    }

    /// Refolds position `p`'s children into `tables[p]`, from fold index
    /// `start` on — THE forward-pass step. Its children's tables must
    /// already be current.
    ///
    /// `start` is the fold index of the first child whose table changed
    /// since `p` was last folded (0 when `p`'s direct load changed, and
    /// always 0 in the batch pass). The prefixes before it are reused
    /// verbatim and only the fold's suffix re-merges. Because that suffix
    /// runs the *same* [`merge_into`] calls on bit-identical inputs that a
    /// fold from the base would reach, the table is bit-identical to a
    /// from-scratch solve by construction.
    pub(crate) fn compute_position(&mut self, instance: &Instance, p: usize, start: usize) {
        let PrunedScratch {
            flat,
            wcost,
            wpower,
            front,
            tables,
            prefixes,
            next,
            kept,
            served,
            served_kept,
            merge,
            ..
        } = self;
        let children = flat.children(p);
        let len = children.len();
        let prefixes = &mut prefixes[p];
        prefixes.resize_with(len.saturating_sub(1), Vec::new);
        let base = fold_base(flat, p);
        let base: &[Triple] = if base[0].flow <= instance.max_capacity() {
            &base
        } else {
            &[]
        };
        if len == 0 {
            tables[p].clear();
            tables[p].extend_from_slice(base);
            return;
        }
        for k in start..len {
            let left: &[Triple] = if k == 0 { base } else { &prefixes[k - 1] };
            if left.is_empty() {
                // An empty accumulator stays empty through every further
                // merge; clear the stale suffix so a later suffix-only
                // refold sees it.
                for later in &mut prefixes[k..] {
                    later.clear();
                }
                tables[p].clear();
                return;
            }
            let child = children[k] as usize;
            merge_into(
                instance,
                *front,
                wcost,
                wpower,
                child,
                left,
                &tables[child],
                next,
                kept,
                served,
                served_kept,
                merge,
            );
            // Copy rather than swap: the slot stays sized to its table and
            // `next` keeps its capacity, so re-solves retain no more memory.
            let slot = if k + 1 < len {
                &mut prefixes[k]
            } else {
                &mut tables[p]
            };
            slot.clear();
            slot.extend_from_slice(next);
        }
    }

    /// Scans the root table into the feasible candidate set (the
    /// no-replica option for flow 0, plus every feasible root mode per
    /// entry).
    pub(crate) fn scan_root(&mut self, instance: &Instance) {
        let modes = instance.modes();
        let m = modes.count();
        let root = self.flat.root_position();
        self.candidates.clear();
        for &t in &self.tables[root] {
            if t.flow == 0 {
                self.candidates.push(PrunedCandidate {
                    triple: t,
                    root_mode: None,
                    cost: t.cost + self.delete_constant,
                    power: t.power,
                });
            }
            if let Some(first) = modes.mode_for_load(t.flow) {
                for mode in first..m {
                    self.candidates.push(PrunedCandidate {
                        triple: t,
                        root_mode: Some(mode),
                        cost: t.cost + self.wcost[root * m + mode] + self.delete_constant,
                        power: t.power + self.wpower[mode],
                    });
                }
            }
        }
    }

    /// Minimum-power candidate with cost within `cost_bound` (ties broken
    /// by cost — deterministic because `total_cmp` is a total order).
    /// `cost_bound` must be one the tables were built for.
    pub(crate) fn best_within(&self, cost_bound: f64) -> Option<&PrunedCandidate> {
        debug_assert!(
            cost_bound >= self.built_for || cost_bound.is_nan(),
            "tables built for budgets ≥ {} cannot answer {cost_bound}",
            self.built_for
        );
        self.candidates
            .iter()
            .filter(|c| le_tolerant(c.cost, cost_bound))
            .min_by(|a, b| a.power.total_cmp(&b.power).then(a.cost.total_cmp(&b.cost)))
    }

    /// Total entries across all position tables.
    pub(crate) fn table_entries(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    /// Backtracks `candidate` into `placement` over the cached tables and
    /// fold prefixes — THE backtrack (bit-exact matching, see module docs).
    ///
    /// `visit(p, target)` is called once per position the backtrack
    /// reaches, with the exact [`Triple`] that subtree must produce.
    /// Returning `true` asserts `placement` already holds the correct
    /// sub-placement for `subtree(p)`, and the walk skips it entirely. This
    /// is sound because the backtrack below `p` is a deterministic pure
    /// function of `(tables of subtree(p), target)`: if neither changed
    /// since the sub-placement in the seed was produced, the decisions —
    /// and therefore the sub-placement — are bit-for-bit the same. A
    /// `false` return expands `p`, *overwriting* the seed: every child slot
    /// is explicitly set or cleared, so stale seed servers cannot leak
    /// through an expanded region.
    pub(crate) fn reconstruct(
        &self,
        instance: &Instance,
        candidate: &PrunedCandidate,
        placement: &mut Placement,
        visit: &mut dyn FnMut(usize, &Triple) -> bool,
    ) -> Result<(), ModelError> {
        let flat = &self.flat;
        let root_node = flat.node_at(flat.root_position());
        match candidate.root_mode {
            Some(mode) => placement.insert(root_node, mode),
            None => {
                placement.remove(root_node);
            }
        }
        let modes = instance.modes();
        let wmax = instance.max_capacity();
        let m = modes.count();
        let (wcost, wpower) = (&self.wcost, &self.wpower);

        let mut work: Vec<(usize, Triple)> = vec![(flat.root_position(), candidate.triple)];
        while let Some((p, target)) = work.pop() {
            if visit(p, &target) {
                continue;
            }
            let children = flat.children(p);
            if children.is_empty() {
                debug_assert_eq!(target.flow, flat.client_load(p));
                continue;
            }
            let base = fold_base(flat, p);
            let mut cur = target;
            for (k, &child) in children.iter().enumerate().rev() {
                // The accumulated table before child `k`, as the fold left it.
                let left: &[Triple] = if k == 0 {
                    &base
                } else {
                    &self.prefixes[p][k - 1]
                };
                let child_table = &self.tables[child as usize];
                let mut found = None;
                'search: for l in left {
                    for c in child_table {
                        // Option a: no replica on the child.
                        #[allow(clippy::float_cmp)] // bit-reproducible sums
                        if l.flow + c.flow == cur.flow
                            && l.flow + c.flow <= wmax
                            && l.cost + c.cost == cur.cost
                            && l.power + c.power == cur.power
                        {
                            found = Some((*l, *c, None));
                            break 'search;
                        }
                        // Option b: replica at the child in some mode.
                        if l.flow == cur.flow {
                            if let Some(first) = modes.mode_for_load(c.flow) {
                                for mode in first..m {
                                    #[allow(clippy::float_cmp)]
                                    if l.cost + c.cost + wcost[child as usize * m + mode]
                                        == cur.cost
                                        && l.power + c.power + wpower[mode] == cur.power
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
                    let node = flat.node_at(p);
                    ModelError::Infeasible(format!(
                        "internal error: no producer for pruned state at {node}"
                    ))
                })?;
                match server_mode {
                    Some(mode) => placement.insert(flat.node_at(child as usize), mode),
                    None => {
                        placement.remove(flat.node_at(child as usize));
                    }
                }
                work.push((child as usize, c));
                cur = l;
            }
        }
        Ok(())
    }
}

impl<'a> PrunedPowerDp<'a> {
    /// Runs the forward pass and the root scan with one-shot scratch,
    /// answering every budget.
    pub fn run(instance: &'a Instance) -> Result<Self, ModelError> {
        Self::run_in(instance, &mut PrunedScratch::default())
    }

    /// Runs the forward pass and the root scan for every budget (the 3-D
    /// front), borrowing `scratch`'s buffers.
    pub fn run_in(instance: &'a Instance, scratch: &mut PrunedScratch) -> Result<Self, ModelError> {
        Self::run_for(instance, f64::NEG_INFINITY, scratch)
    }

    /// Runs the forward pass and the root scan with the fronts that
    /// [`PrunedPowerDp::best_within`] needs for every budget
    /// `b ≥ cost_bound`: the (flow, power) front when `cost_bound` is +∞,
    /// the 3-D front otherwise (see the module docs). Borrows `scratch`'s
    /// buffers; hand them back with [`PrunedPowerDp::recycle`] once done
    /// (the error path returns them immediately).
    pub fn run_for(
        instance: &'a Instance,
        cost_bound: f64,
        scratch: &mut PrunedScratch,
    ) -> Result<Self, ModelError> {
        let mut s = std::mem::take(scratch);
        s.forward(instance, cost_bound);
        if s.candidates.is_empty() {
            *scratch = s;
            return Err(ModelError::Infeasible(
                "no feasible placement exists for this instance".into(),
            ));
        }
        Ok(PrunedPowerDp {
            instance,
            scratch: s,
        })
    }

    /// Returns the working memory to `scratch` for the next solve.
    pub fn recycle(self, scratch: &mut PrunedScratch) {
        *scratch = self.scratch;
    }

    /// All root candidates.
    pub fn candidates(&self) -> &[PrunedCandidate] {
        &self.scratch.candidates
    }

    /// Total entries across all node tables (the ablation metric).
    pub fn table_entries(&self) -> usize {
        self.scratch.table_entries()
    }

    /// Minimum-power candidate with cost within `cost_bound`, which must
    /// be at or above the bound the run was built for.
    pub fn best_within(&self, cost_bound: f64) -> Option<&PrunedCandidate> {
        self.scratch.best_within(cost_bound)
    }

    /// Raw `(cost, power)` pairs of every root candidate — the input to a
    /// budget-sweep frontier (see [`crate::frontier`]).
    pub fn cost_power_points(&self) -> Vec<(f64, f64)> {
        self.candidates()
            .iter()
            .map(|c| (c.cost, c.power))
            .collect()
    }

    /// The cost/power Pareto front (increasing cost, decreasing power,
    /// near-ties within `COST_EPSILON` collapsed).
    pub fn pareto_front(&self) -> Vec<(f64, f64)> {
        crate::frontier::pareto_filter(self.cost_power_points(), replica_model::COST_EPSILON)
    }

    /// Rebuilds a placement achieving `candidate`: the one backtrack, over
    /// an empty placement, with a visitor that never skips.
    pub fn reconstruct(&self, candidate: &PrunedCandidate) -> Result<Placement, ModelError> {
        let mut placement = Placement::with_slots(self.scratch.flat.len());
        self.scratch
            .reconstruct(self.instance, candidate, &mut placement, &mut |_, _| false)?;
        Ok(placement)
    }
}

/// Convenience: minimum power within a budget, via the pruned DP.
pub fn solve_min_power_bounded_cost(
    instance: &Instance,
    cost_bound: f64,
) -> Result<(Placement, f64, f64), ModelError> {
    solve_min_power_bounded_cost_in(instance, cost_bound, &mut PrunedScratch::default())
}

/// [`solve_min_power_bounded_cost`] with reusable working memory — the fleet
/// hot path (one [`PrunedScratch`] per thread, zero steady-state allocation).
pub fn solve_min_power_bounded_cost_in(
    instance: &Instance,
    cost_bound: f64,
    scratch: &mut PrunedScratch,
) -> Result<(Placement, f64, f64), ModelError> {
    let dp = PrunedPowerDp::run_for(instance, cost_bound, scratch)?;
    let best = match dp.best_within(cost_bound) {
        Some(&b) => b,
        None => {
            dp.recycle(scratch);
            return Err(ModelError::Infeasible(format!(
                "no placement fits the cost bound {cost_bound}"
            )));
        }
    };
    let placement = dp.reconstruct(&best);
    dp.recycle(scratch);
    Ok((placement?, best.cost, best.power))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp_power::PowerDp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use replica_model::{CostModel, ModeSet, PowerModel, PreExisting, Solution};
    use replica_tree::{generate, GeneratorConfig};

    fn random_instance(seed: u64, nodes: usize, pre_count: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::random_tree(&GeneratorConfig::paper_power(nodes), &mut rng);
        let pre: PreExisting = generate::random_pre_existing(&tree, pre_count, &mut rng)
            .into_iter()
            .map(|n| (n, rng.random_range(0..2)))
            .collect();
        let modes = ModeSet::new(vec![5, 10]).unwrap();
        let power = PowerModel::paper_experiment3(&modes);
        Instance::builder(tree)
            .modes(modes)
            .pre_existing(pre)
            .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
            .power(power)
            .build()
            .unwrap()
    }

    #[test]
    fn prune_keeps_exact_pareto_front() {
        let mut entries = vec![
            Triple {
                flow: 5,
                cost: 2.0,
                power: 10.0,
            },
            Triple {
                flow: 5,
                cost: 2.0,
                power: 10.0,
            }, // duplicate
            Triple {
                flow: 6,
                cost: 2.0,
                power: 10.0,
            }, // dominated (flow)
            Triple {
                flow: 4,
                cost: 3.0,
                power: 12.0,
            }, // kept (best flow)
            Triple {
                flow: 5,
                cost: 1.0,
                power: 20.0,
            }, // kept (best cost)
            Triple {
                flow: 9,
                cost: 9.0,
                power: 9.0,
            }, // kept (best power)
            Triple {
                flow: 9,
                cost: 9.5,
                power: 9.0,
            }, // dominated (cost)
        ];
        // Exercise both dominance paths: the bucketed test and the scan.
        let mut scanned = entries.clone();
        prune(&mut entries, 10, Front::Full);
        prune(&mut scanned, MAX_FLOW_BUCKETS + 1, Front::Full);
        assert_eq!(entries, scanned);
        assert_eq!(entries.len(), 4);
        assert!(entries.contains(&Triple {
            flow: 5,
            cost: 2.0,
            power: 10.0
        }));
        assert!(entries.contains(&Triple {
            flow: 4,
            cost: 3.0,
            power: 12.0
        }));
        assert!(entries.contains(&Triple {
            flow: 5,
            cost: 1.0,
            power: 20.0
        }));
        assert!(entries.contains(&Triple {
            flow: 9,
            cost: 9.0,
            power: 9.0
        }));
    }

    #[test]
    fn min_power_prune_drops_only_beyond_the_slack() {
        let n = 1000;
        let front = Front::for_bound(f64::INFINITY, n, &[137.5, 1012.5]);
        assert_eq!(
            Front::for_bound(1e6, n, &[137.5, 1012.5]),
            Front::Full,
            "a finite bound keeps the 3-D front"
        );
        let Front::MinPower { slack } = front else {
            panic!("an unbounded solve keeps the (flow, power) front");
        };
        assert_eq!(slack, 2.0 * 1001.0 * 1000.0 * 1012.5 * f64::EPSILON);
        let cheap = Triple {
            flow: 5,
            cost: 1.0,
            power: 5000.0,
        };
        // Lower in power by less than the slack: the cheaper entry of the
        // same flow may still win the cost tie-break once sums round.
        let near = Triple {
            cost: 2.0,
            power: cheap.power - slack / 2.0,
            ..cheap
        };
        assert!(near.power < cheap.power);
        let mut entries = vec![cheap, near];
        prune(&mut entries, 10, front);
        assert_eq!(entries, vec![near, cheap]);
        // Lower by more than the slack: it drops the cheaper entry, and so
        // does any lower power at a flow no larger.
        let far = Triple {
            cost: 2.0,
            power: cheap.power - 2.0 * slack,
            ..cheap
        };
        for lower in [far, Triple { flow: 4, ..far }] {
            let mut entries = vec![cheap, lower];
            prune(&mut entries, 10, front);
            assert_eq!(entries, vec![lower]);
        }
        // A larger flow protects it; within the slack, 3-D dominance
        // still drops.
        let mut entries = vec![cheap, Triple { flow: 6, ..far }];
        prune(&mut entries, 10, front);
        assert_eq!(entries.len(), 2);
        let dominated = Triple {
            flow: 6,
            cost: 1.5,
            power: cheap.power + slack / 2.0,
        };
        let mut entries = vec![dominated, cheap, cheap];
        prune(&mut entries, 10, front);
        assert_eq!(entries, vec![cheap]);
    }

    #[test]
    fn matches_full_state_dp_across_budgets() {
        for seed in 0..12 {
            let inst = random_instance(seed, 25, 3);
            let full = PowerDp::run(&inst).unwrap();
            let pruned = PrunedPowerDp::run(&inst).unwrap();
            for bound in [10.0f64, 20.0, 30.0, 45.0, f64::INFINITY] {
                let f = full.best_within(bound).map(|c| (c.power, c.cost));
                let p = pruned.best_within(bound).map(|c| (c.power, c.cost));
                match (f, p) {
                    (Some((fp, fc)), Some((pp, pc))) => {
                        assert!(
                            (fp - pp).abs() < 1e-6,
                            "seed {seed} bound {bound}: power {fp} vs {pp}"
                        );
                        assert!(
                            (fc - pc).abs() < 1e-6,
                            "seed {seed} bound {bound}: cost {fc} vs {pc}"
                        );
                    }
                    (None, None) => {}
                    other => panic!("seed {seed} bound {bound}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pareto_fronts_induce_the_same_budget_function() {
        // Front *points* can merge differently when float sums land within
        // epsilon of each other, so compare the semantics instead: at every
        // cost that appears on either front, the best power within that
        // budget must agree.
        for seed in 20..26 {
            let inst = random_instance(seed, 20, 2);
            let full = PowerDp::run(&inst).unwrap();
            let pruned = PrunedPowerDp::run(&inst).unwrap();
            let mut probes: Vec<f64> = full
                .pareto_front()
                .into_iter()
                .chain(pruned.pareto_front())
                .map(|(c, _)| c)
                .collect();
            probes.push(f64::INFINITY);
            for bound in probes {
                let f = full
                    .best_within(bound)
                    .map(|c| c.power)
                    .expect("front point");
                let p = pruned
                    .best_within(bound)
                    .map(|c| c.power)
                    .expect("front point");
                assert!(
                    (f - p).abs() < 1e-6,
                    "seed {seed} bound {bound}: {f} vs {p}"
                );
            }
        }
    }

    #[test]
    fn reconstruction_reevaluates_exactly() {
        for seed in 30..36 {
            let inst = random_instance(seed, 25, 3);
            let dp = PrunedPowerDp::run(&inst).unwrap();
            for bound in [20.0, 35.0, f64::INFINITY] {
                if let Some(&best) = dp.best_within(bound) {
                    let placement = dp.reconstruct(&best).unwrap();
                    let sol = Solution::evaluate(&inst, &placement).unwrap();
                    assert!((sol.cost - best.cost).abs() < 1e-9, "seed {seed}");
                    assert!((sol.power - best.power).abs() < 1e-6, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn tables_are_much_smaller_than_state_space() {
        let inst = random_instance(99, 40, 5);
        let pruned = PrunedPowerDp::run(&inst).unwrap();
        // A 40-node instance has thousands of reachable state vectors; the
        // Pareto tables stay tiny.
        assert!(
            pruned.table_entries() < 40 * 200,
            "pruned tables unexpectedly large: {}",
            pruned.table_entries()
        );
    }

    /// Summed capacity of every table and fold prefix.
    fn retained(s: &PrunedScratch) -> usize {
        s.tables
            .iter()
            .chain(s.prefixes.iter().flatten())
            .map(Vec::capacity)
            .sum()
    }

    #[test]
    fn re_solves_retain_the_same_table_memory() {
        // Each fold copies its merge result into the slot, so slots stay
        // sized to their tables and the working buffers keep their own
        // capacity: re-solving one instance retains no more memory than
        // the second solve did, through either driver.
        let inst = random_instance(41, 300, 30);
        let mut scratch = PrunedScratch::default();
        let mut batch = Vec::new();
        for _ in 0..5 {
            PrunedPowerDp::run_in(&inst, &mut scratch)
                .unwrap()
                .recycle(&mut scratch);
            batch.push(retained(&scratch));
        }
        assert_eq!(batch[1], batch[4], "batch re-solves: {batch:?}");

        let mut dp = crate::IncrementalDp::new(inst, f64::INFINITY);
        let mut epochs = Vec::new();
        for _ in 0..5 {
            dp.mark_all();
            dp.resolve().unwrap();
            epochs.push(retained(&dp.scratch));
        }
        assert_eq!(epochs[1], epochs[4], "incremental epochs: {epochs:?}");
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch across different instances (growing and shrinking
        // trees) must reproduce the fresh-scratch pipeline exactly.
        let mut scratch = PrunedScratch::default();
        for (seed, nodes) in [(3u64, 30usize), (4, 12), (5, 45), (6, 8)] {
            let inst = random_instance(seed, nodes, 3);
            let fresh = solve_min_power_bounded_cost(&inst, 25.0);
            let reused = solve_min_power_bounded_cost_in(&inst, 25.0, &mut scratch);
            match (fresh, reused) {
                (Ok((fp, fc, fw)), Ok((rp, rc, rw))) => {
                    assert_eq!(fp, rp, "seed {seed}: placements diverge");
                    assert_eq!(fc.to_bits(), rc.to_bits(), "seed {seed}: cost bits");
                    assert_eq!(fw.to_bits(), rw.to_bits(), "seed {seed}: power bits");
                }
                (Err(_), Err(_)) => {}
                other => panic!("seed {seed}: {other:?}"),
            }
        }
    }
}
