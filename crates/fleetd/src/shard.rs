//! The shard report: what one worker ships back to the coordinator.
//!
//! A [`ShardReport`] is its shard's raw cell stream, in job order: the
//! serialization of the engine's `Fleet::run_shard` cell tap. The merge
//! replays those cells through one sequential fold, which is the only
//! way to continue the *combined* FNV cell checksum (FNV over a
//! concatenation cannot be assembled from the parts' end states) and
//! the order-sensitive quantile sketches.
//!
//! The shard-local `cell_count` and exact [`checksum`] let the merge
//! verify each report's integrity in isolation before folding it into
//! the campaign totals.

use replica_engine::fleet::{CellOutcome, CellResult, FleetCell};
use replica_engine::seeding::{fnv1a, FNV_OFFSET};
use serde::{Deserialize, Serialize};

/// How one recorded `(instance, solver)` evaluation ended — the
/// serializable mirror of the engine's [`CellResult`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CellStatus {
    /// The solver produced a placement.
    Solved {
        /// Eq. 2/4 cost.
        cost: f64,
        /// Eq. 3 power.
        power: f64,
        /// Server count.
        servers: u64,
    },
    /// The instance is outside the solver's capabilities.
    Unsupported,
    /// The solver ran and failed.
    Failed {
        /// The solver's error rendering.
        error: String,
    },
}

/// One recorded cell of a shard's stream, in job order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellRecord {
    /// Scenario label of the instance.
    pub scenario: String,
    /// Instance index within the scenario.
    pub instance: usize,
    /// Solver name (registry key).
    pub solver: String,
    /// Outcome of the evaluation.
    pub status: CellStatus,
    /// Wall-clock seconds of the solve, as measured by the worker (the
    /// merged report's timing columns reflect worker measurements).
    pub wall: f64,
}

impl CellRecord {
    /// Records one observed fleet cell.
    pub fn from_cell(cell: &FleetCell) -> CellRecord {
        CellRecord {
            scenario: cell.scenario.to_string(),
            instance: cell.instance,
            solver: cell.solver.to_string(),
            status: match &cell.result {
                CellResult::Solved(o) => CellStatus::Solved {
                    cost: o.cost,
                    power: o.power,
                    servers: o.servers,
                },
                CellResult::Unsupported => CellStatus::Unsupported,
                CellResult::Failed(error) => CellStatus::Failed {
                    error: error.clone(),
                },
            },
            wall: cell.wall_seconds,
        }
    }

    /// Rebuilds the engine-side result for replay through a fold.
    pub fn result(&self) -> CellResult {
        match &self.status {
            CellStatus::Solved {
                cost,
                power,
                servers,
            } => CellResult::Solved(CellOutcome {
                cost: *cost,
                power: *power,
                servers: *servers,
            }),
            CellStatus::Unsupported => CellResult::Unsupported,
            CellStatus::Failed { error } => CellResult::Failed(error.clone()),
        }
    }
}

/// One worker's complete output for one shard.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardReport {
    /// Echo of the plan's campaign fingerprint (merge refuses reports
    /// from a different campaign).
    pub fingerprint: u64,
    /// This shard's index.
    pub shard: usize,
    /// Attempt generation that produced this report (0 = first launch;
    /// defaults on deserialization so pre-fencing reports stay
    /// readable). The fenced merge rejects reports whose attempt is not
    /// the scheduler's winning generation — the zombie fence.
    #[serde(default)]
    pub attempt: usize,
    /// Total shards in the plan this report was produced under.
    pub shard_count: usize,
    /// First job of the shard (global index, inclusive).
    pub start: usize,
    /// Past-the-end job (global index, exclusive).
    pub end: usize,
    /// Shard-local cell count (jobs × solvers of this shard only).
    pub cell_count: usize,
    /// [`checksum`] of `cells`: the merge recomputes it before it folds,
    /// so a cell changed in any bit of any field fails the merge. It
    /// covers wall times too, so two runs of one shard differ: it checks
    /// integrity, not determinism, and it is *not* the combined
    /// campaign checksum.
    pub checksum: u64,
    /// The raw cell stream, in job order, row-major by solver.
    pub cells: Vec<CellRecord>,
}

/// FNV-1a over every field of every cell, in stream order: scenario,
/// instance, solver, the status with its cost, power, server count or
/// error text, and the wall time. Floats enter by their bits and strings
/// with their length, so one ulp of a cost or a moved wall time changes
/// the checksum, where the digest line's nine decimals would not.
pub fn checksum(cells: &[CellRecord]) -> u64 {
    let word = |hash: u64, value: u64| fnv1a(hash, &value.to_le_bytes());
    let text = |hash: u64, s: &str| fnv1a(word(hash, s.len() as u64), s.as_bytes());
    cells.iter().fold(FNV_OFFSET, |hash, cell| {
        let hash = text(hash, &cell.scenario);
        let hash = word(hash, cell.instance as u64);
        let hash = text(hash, &cell.solver);
        let hash = match &cell.status {
            CellStatus::Solved {
                cost,
                power,
                servers,
            } => {
                let hash = word(fnv1a(hash, &[0]), cost.to_bits());
                word(word(hash, power.to_bits()), *servers)
            }
            CellStatus::Unsupported => fnv1a(hash, &[1]),
            CellStatus::Failed { error } => text(fnv1a(hash, &[2]), error),
        };
        word(hash, cell.wall.to_bits())
    })
}
