//! The `solve-a3` workload: repeated exact `dp_power` solves through
//! [`Registry::solve`] on a 10⁴-node α = 3 fat tree.
//!
//! Superlinear power makes the exact cost/power frontiers grow with
//! subtree size, so the forward merge and the backtrack are the whole
//! cost; no serve code runs. The traced run times the same solve through
//! the registry and, separately, its two public stages
//! ([`PrunedPowerDp::run_in`] and [`PrunedPowerDp::reconstruct`]).

use crate::{peak_rss_mb, seeded_demand, stats, trace::Tracer, Run, PEAK_RSS_AFTER, TOPOLOGY_SEED};
use replica_bench::fat_power_instance;
use replica_core::dp_power_pruned::solve_min_power_bounded_cost;
use replica_core::{PrunedPowerDp, PrunedScratch};
use replica_engine::{Registry, SolveOptions};
use replica_model::{Instance, Placement, Solution};
use replica_tree::FlatTree;
use std::time::{Duration, Instant};

/// Internal nodes of the α = 3 fat tree.
pub const NODES: usize = 10_000;

/// Relative tolerance between a solver's claimed optimum and the model
/// layer's re-evaluation of its placement (the `scale_guard` test's).
const CLAIM_TOLERANCE: f64 = 1e-9;

/// The workload's instance for `seed`: the fixed α = 3 fat tree with
/// seed-drawn demand.
pub fn instance(seed: u64) -> Instance {
    seeded_demand(fat_power_instance(TOPOLOGY_SEED, NODES, NODES / 10), seed)
}

/// One set-up, the instance build, timed into `run.setup_s`. One runs
/// before every solve and is dropped at once (the solves all use the
/// first), so set-ups are spread over the whole run like the solves, a
/// disturbed moment of a shared machine moves set-up time no more than
/// solve time, and set-up memory does not pile up.
fn set_up(seed: u64, run: &mut Run, tracer: &mut Tracer) -> Instance {
    let start = Instant::now();
    let instance = tracer.time("tree.generate", 0, || instance(seed));
    run.setup_s.push(start.elapsed().as_secs_f64());
    instance
}

/// Runs `solve-a3` for `seconds` and checks its outputs.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let instance = set_up(seed, &mut run, tracer);
    if tracer.is_on() {
        let _layout = tracer.time("layout.build", 0, || FlatTree::new(instance.tree()));
    }
    let registry = Registry::with_all();
    let options = SolveOptions::default();
    let mut scratch = PrunedScratch::default();
    let mut outcomes = Outcomes::default();
    let mut claims = Outcomes::default();
    let mut inner_ms = Vec::new();
    let mut shape = (0usize, 0usize, 0usize);

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut solve = 0u64;
    while (solve as usize) < PEAK_RSS_AFTER || start.elapsed() < budget {
        solve += 1;
        drop(set_up(seed, &mut run, tracer));
        let began = Instant::now();
        let outcome = tracer.time("registry.solve", solve, || {
            registry.solve("dp_power", &instance, &options)
        });
        let took = began.elapsed();
        run.op_ms.push(took.as_secs_f64() * 1e3);
        run.wall += took;
        match outcome {
            Ok(outcome) => {
                inner_ms.push(outcome.wall.as_secs_f64() * 1e3);
                outcomes.add((outcome.placement, outcome.cost, outcome.power));
                run.work += 1;
            }
            Err(e) => {
                run.failed += 1;
                run.mismatch(format!("solve {solve}: {e}"));
            }
        }
        if tracer.is_on() {
            // The same solve, stage by stage, through the public calls.
            let dp = tracer
                .time("pruned.forward", solve, || {
                    PrunedPowerDp::run_in(&instance, &mut scratch)
                })
                .map_err(|e| format!("forward pass: {e}"))?;
            let best = *dp
                .best_within(options.cost_bound)
                .ok_or("no root candidate")?;
            let placement = tracer
                .time("pruned.reconstruct", solve, || dp.reconstruct(&best))
                .map_err(|e| format!("reconstruct: {e}"))?;
            shape = (
                dp.table_entries(),
                dp.candidates().len(),
                dp.pareto_front().len(),
            );
            claims.add((placement, best.cost, best.power));
            dp.recycle(&mut scratch);
        }
        if solve as usize == PEAK_RSS_AFTER {
            run.peak_rss_mb = peak_rss_mb();
        }
    }
    run.attempted = solve;

    check(&instance, &outcomes, &claims, &mut run)?;
    let n = run.op_ms.len();
    if let Some(p50) = stats::median(&run.op_ms) {
        run.note(
            "solve_p50_s",
            p50 / 1e3,
            "s",
            &format!("n={n}; no tail at this sample size"),
        );
    }
    if tracer.is_on() {
        layers(tracer, &inner_ms, shape, &mut run);
    }
    Ok(run)
}

/// A solve's placement, cost and power.
type Answer = (Placement, f64, f64);

/// The distinct answers of repeated solves, each with how often it came
/// back, so the benchmark keeps one placement however many solves run.
#[derive(Default)]
struct Outcomes(Vec<(Answer, u64)>);

impl Outcomes {
    fn add(&mut self, answer: Answer) {
        let same = |(p, c, w): &Answer| {
            (c.to_bits(), w.to_bits()) == (answer.1.to_bits(), answer.2.to_bits()) && *p == answer.0
        };
        match self.0.iter_mut().find(|(seen, _)| same(seen)) {
            Some((_, count)) => *count += 1,
            None => self.0.push((answer, 1)),
        }
    }
}

/// The correctness gate, after timing: every returned placement, pushed
/// through the model layer, matches the exact optimum's claimed cost and
/// power within the tie-aware tolerance, and every solve returned the
/// same answer.
fn check(
    instance: &Instance,
    outcomes: &Outcomes,
    claims: &Outcomes,
    run: &mut Run,
) -> Result<(), String> {
    let (_, claim_cost, claim_power) = solve_min_power_bounded_cost(instance, f64::INFINITY)
        .map_err(|e| format!("reference solve: {e}"))?;
    let near = |a: f64, b: f64| (a - b).abs() <= CLAIM_TOLERANCE * b.abs();
    let mut wrong = 0u64;
    for ((placement, cost, power), count) in outcomes.0.iter().chain(&claims.0) {
        match Solution::evaluate(instance, placement) {
            Ok(sol) if near(sol.cost, claim_cost) && near(sol.power, claim_power) => {}
            Ok(sol) => {
                wrong += count;
                run.mismatch(format!(
                    "placement re-evaluates to ({}, {}), optimum claims ({claim_cost}, {claim_power})",
                    sol.cost, sol.power
                ));
            }
            Err(e) => {
                wrong += count;
                run.mismatch(format!("placement does not evaluate: {e}"));
            }
        }
        if !(near(*cost, claim_cost) && near(*power, claim_power)) {
            wrong += count;
            run.mismatch(format!("solve returned ({cost}, {power})"));
        }
    }
    if outcomes.0.len() > 1 {
        wrong += outcomes
            .0
            .iter()
            .skip(1)
            .map(|(_, count)| count)
            .sum::<u64>();
        run.mismatch(format!(
            "repeated solves of one instance returned {} different answers",
            outcomes.0.len()
        ));
    }
    run.failed += wrong.min(run.attempted - run.failed);
    Ok(())
}

/// Per-layer values from the traced solves. `inner_ms` is the solver's
/// own timing of each registry solve (forward pass, reconstruct and arena
/// recycling), so a registry span minus it is the dispatch and model-layer
/// re-evaluation around the kernel, measured on the same call.
fn layers(
    tracer: &Tracer,
    inner_ms: &[f64],
    (entries, candidates, front): (usize, usize, usize),
    run: &mut Run,
) {
    let spans = tracer.spans();
    let ms = |name| crate::trace::durations_ms(spans, name);
    let median = |values: &[f64]| stats::median(values).unwrap_or(0.0);
    let forward = ms("pruned.forward");
    let reconstruct = ms("pruned.reconstruct");
    let overhead: Vec<f64> = ms("registry.solve")
        .iter()
        .zip(inner_ms)
        .map(|(total, inner)| total - inner)
        .collect();
    let share: Vec<f64> = forward
        .iter()
        .zip(&reconstruct)
        .map(|(f, r)| r / (f + r))
        .collect();
    let l = &mut run.layers;
    l.insert("tree.generate_ms", median(&ms("tree.generate")));
    l.insert("layout.build_ms", median(&ms("layout.build")));
    l.insert("pruned.forward_ms", median(&forward));
    l.insert("pruned.reconstruct_ms", median(&reconstruct));
    l.insert("pruned.reconstruct_share", median(&share));
    l.insert("pruned.table_entries", entries as f64);
    l.insert("pruned.root_candidates", candidates as f64);
    l.insert("pruned.front_len", front as f64);
    l.insert("registry.overhead_ms", median(&overhead));
}
