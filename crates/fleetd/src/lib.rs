//! # `replica-fleetd` — multi-process sharded fleet orchestration
//!
//! The engine's [`Fleet`](replica_engine::Fleet) parallelizes a
//! campaign *within* one process; this crate shards it *across*
//! processes — and merges the pieces back **byte-identically**.
//!
//! Campaign descriptions are the engine's declarative spec layer
//! ([`replica_engine::spec`]): a [`CampaignSpec`] — loaded from a
//! `--spec file.json` or built internally from the legacy CLI flags —
//! is validated against the solver [`Registry`](replica_engine::Registry)
//! and the scenario families *before any job runs*, and resolves into
//! the self-contained [`Campaign`] that shard plans embed. Committed
//! example specs live under `examples/campaigns/` at the repository
//! root. The protocol:
//!
//! 1. **[`plan`]** — split the campaign's deterministic job space into
//!    contiguous shard manifests, in job order ([`ShardPlan`]).
//! 2. **[`worker`]** — one process per shard, `O(shard)` in time and
//!    memory: rebuild the campaign's lazy **job space** from the plan
//!    (instances are pure functions of `(scenario, seed, index)`), run
//!    the shard's range against it through the in-process engine with
//!    *global* job seeding — only the shard's own jobs are ever
//!    constructed — and serialize a [`ShardReport`]: the raw cell
//!    stream plus mergeable per-group accumulator state.
//! 3. **[`merge`]** — fold the shard cell streams, in shard order,
//!    through the engine's [`FleetFold`](replica_engine::FleetFold):
//!    because that replays the exact sequential fold of an unsharded
//!    run, the merged aggregates, cell count and FNV cell checksum are
//!    byte-identical to a single-process `Fleet::run` *by construction*
//!    — and the independently merged
//!    [`GroupState`](replica_engine::GroupState)s cross-check it on
//!    every merge.
//! 4. **[`coordinator`]** — spawn the workers
//!    ([`std::process::Command`], re-invoking the same binary), collect
//!    and merge, optionally prove equivalence against a fresh
//!    single-process run.
//!
//! The `fleetd` binary ([`cli`]) exposes the protocol as `spec` /
//! `plan` / `work` / `merge` / `run` / `status` / `analyze`
//! subcommands with
//! table, CSV and JSON output (the engine's
//! [`render`](replica_engine::render); the spec's `output` field is
//! the default rendering). Every failure is a
//! typed [`FleetdError`] — campaign problems surface the engine's
//! [`SpecError`] with its did-you-mean suggestions intact. The shard
//! determinism suite pins the contract: any shard count merges to the
//! identical report.
//!
//! The coordinator is a **supervisor**, not a fire-once fan-out: shard
//! attempts live in a claim-based pool ([`pool`] — atomic per-attempt
//! `shard-K.aA.claim.json` files, safe on any shared filesystem), a
//! pure scheduling state machine ([`sched`]) retries failed or stale
//! workers with bounded backoff (`--max-retries`) and optionally lets
//! idle slots steal any eligible manifest (`--steal`), and **attempt
//! generation fencing** (every report, heartbeat and claim carries its
//! attempt number) guarantees a zombie worker's late report can never
//! be merged over a retry's. The deterministic [`fault`] injection seam
//! (`--inject kill:3@5,hang:7,…`, test-only) is how the fault battery
//! proves it: any kill/hang/truncate/stale schedule either merges to
//! the byte-identical single-process digest or fails with a typed
//! [`FleetdError`] — never a wrong answer, never a hang.
//!
//! Telemetry ([`heartbeat`], `replica-obs`) rides alongside: every
//! worker maintains a `shard-K.hb.json` heartbeat next to its report,
//! the coordinator folds those into a live status ticker (and
//! `fleetd status DIR` renders them on demand, in any output format),
//! and `--trace` captures the run's span/progress/histogram event
//! stream as JSONL. Supervision decisions — claims, launches, steals,
//! retries with their backoff gates, stale-kills, fence rejections,
//! terminal verdicts — are themselves events: the supervisor always
//! writes them to `sched.trace.jsonl` in the work directory, and
//! `fleetd analyze DIR` reads the whole stream back through the
//! `replica-obs` trace reader into a forensic report (phase profiles,
//! slowest solves, per-shard attempt timelines, slot occupancy). All
//! of it is strictly out-of-band — deterministic outputs are
//! byte-identical with telemetry on or off.
//!
//! ## Quickstart (in-process workers)
//!
//! ```
//! use replica_engine::{CampaignSpec, Registry, ScenarioSet};
//! use replica_fleetd::ShardPlan;
//! use replica_fleetd::coordinator::{run_plan, run_single_process, Workers};
//!
//! let campaign = CampaignSpec::builder()
//!     .scenario_set(ScenarioSet::Standard, 12)
//!     .instances_per_scenario(1)
//!     .solvers(["dp_power", "greedy_power"])
//!     .seed(42)
//!     .build()
//!     .validate(&Registry::with_all())
//!     .unwrap();
//! let plan = ShardPlan::new(campaign, 3).unwrap();
//!
//! let merged = run_plan(&plan, &Workers::InProcess).unwrap();
//! let single = run_single_process(&plan).unwrap();
//! assert_eq!(merged.digest(), single.digest());
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod coordinator;
pub mod error;
pub mod fault;
pub mod heartbeat;
pub mod merge;
pub mod plan;
pub mod pool;
pub mod sched;
pub mod shard;
pub mod worker;

pub use error::FleetdError;
pub use fault::{Fault, FaultKind, FaultPlan};
pub use heartbeat::{Heartbeat, ShardStatus, WorkerState};
pub use merge::{merge_reports, merge_reports_fenced};
pub use plan::{plan_shards, ShardManifest, ShardPlan};
pub use pool::ClaimRecord;
pub use sched::{FailureOutcome, Launch, Phase, SchedConfig, Scheduler};
pub use shard::{CellRecord, CellStatus, ShardReport};

// The campaign description and rendering layers live in the engine's
// spec/output modules; re-exported here under their historical names so
// `replica_fleetd::Campaign` keeps working.
pub use coordinator::Workers;
pub use replica_engine::output::OutputFormat as Format;
pub use replica_engine::spec::{Campaign, CampaignSpec, ScenarioSet, SpecError};
