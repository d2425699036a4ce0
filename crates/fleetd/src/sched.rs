//! The pure scheduling state machine behind the supervised coordinator.
//!
//! [`Scheduler`] decides *what to launch when* — bounded retries with
//! exponential backoff, bounded concurrency (slots), strict-order vs
//! work-stealing dispatch, and attempt fencing — as a pure function of
//! the caller-supplied clock. No files, no processes, no
//! `SystemTime::now()`: the subprocess supervisor drives it with the
//! real clock, the in-process fault runner drives it with a virtual
//! clock that jumps straight to [`Scheduler::next_wakeup_ms`], and the
//! unit tests drive it by hand. That is what makes the Live → Stale →
//! reassigned transition pinnable without sleeping anywhere.
//!
//! Each shard walks one lifecycle:
//!
//! ```text
//!             launches()                 on_success(k, a)
//! Pending ───────────────▶ Running{a} ───────────────────▶ Done{a}
//!    ▲                        │
//!    │   a < max_retries      │ on_failure(k, a)   (exit ≠ 0, torn
//!    └────────────────────────┤                     report, stale
//!         backoff(a), a+1     │ a == max_retries    heartbeat kill)
//!                             ▼
//!                         Exhausted{a}
//! ```
//!
//! Fencing: `on_success` / `on_failure` carry the attempt generation
//! and are **ignored unless it matches the running attempt** — a
//! zombie's late verdict cannot move a shard that has since been
//! reassigned, in either direction.

use serde::{Deserialize, Serialize};

/// Scheduling policy knobs (CLI flags `--max-retries`, `--slots`,
/// `--steal`, `--stale-ms`, `--backoff-ms` map straight onto these).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// Retries per shard after the first attempt (attempt generations
    /// `0..=max_retries`).
    pub max_retries: usize,
    /// Concurrent attempt slots (subprocess workers in flight).
    pub slots: usize,
    /// Whether idle slots may claim any eligible shard (work stealing)
    /// instead of waiting in strict shard order.
    pub steal: bool,
    /// Heartbeat age beyond which a Running worker counts as stale.
    pub stale_ms: u64,
    /// Base retry backoff; attempt `a` fails → its retry waits
    /// `backoff_ms × 2^a`, capped at [`SchedConfig::BACKOFF_CAP_MS`].
    pub backoff_ms: u64,
}

impl SchedConfig {
    /// Ceiling for the exponential backoff.
    pub const BACKOFF_CAP_MS: u64 = 5_000;

    /// Backoff before launching the retry that follows a failed
    /// attempt `attempt`: exponential, capped.
    pub fn backoff_after(&self, attempt: usize) -> u64 {
        let factor = 1u64 << attempt.min(16) as u32;
        (self.backoff_ms.saturating_mul(factor)).min(Self::BACKOFF_CAP_MS)
    }
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            max_retries: 2,
            slots: usize::MAX,
            steal: false,
            stale_ms: 10_000,
            backoff_ms: 200,
        }
    }
}

/// Where one shard stands in its retry lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Waiting to launch attempt `attempt`, not before `not_before_ms`.
    Pending {
        /// Next attempt generation to launch.
        attempt: usize,
        /// Earliest launch time (backoff gate; 0 for attempt 0).
        not_before_ms: u64,
    },
    /// Attempt `attempt` is in flight.
    Running {
        /// The in-flight attempt generation.
        attempt: usize,
    },
    /// Attempt `attempt` delivered the shard's report.
    Done {
        /// The winning attempt generation.
        attempt: usize,
    },
    /// Every allowed attempt failed; `attempt` is the last one.
    Exhausted {
        /// The final failed attempt generation.
        attempt: usize,
    },
}

/// One launch decision: start attempt `attempt` of shard `shard`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Launch {
    /// Shard to run.
    pub shard: usize,
    /// Attempt generation to run it as.
    pub attempt: usize,
    /// Whether this launch jumped past a backoff-gated earlier shard —
    /// a work steal (only possible with `steal` on). Telemetry reports
    /// it as a `steal` supervision event instead of a plain `launch`.
    pub stolen: bool,
}

/// What [`Scheduler::on_failure`] decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureOutcome {
    /// The shard will be retried as `attempt`, no earlier than
    /// `not_before_ms`.
    WillRetry {
        /// The next attempt generation.
        attempt: usize,
        /// Its backoff gate.
        not_before_ms: u64,
    },
    /// Retries are spent; the shard is terminally failed.
    Exhausted,
    /// The verdict named a superseded attempt and was fenced off.
    Fenced,
}

/// The retry/steal scheduler: shard phases plus the policy, advanced by
/// caller events. See the module docs for the state diagram.
#[derive(Clone, Debug)]
pub struct Scheduler {
    config: SchedConfig,
    phases: Vec<Phase>,
}

impl Scheduler {
    /// A scheduler for `shard_count` shards, all immediately pending
    /// their first attempt.
    pub fn new(shard_count: usize, config: SchedConfig) -> Scheduler {
        Scheduler {
            config,
            phases: vec![
                Phase::Pending {
                    attempt: 0,
                    not_before_ms: 0,
                };
                shard_count
            ],
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &SchedConfig {
        &self.config
    }

    /// Current phase of shard `shard`.
    pub fn phase(&self, shard: usize) -> Phase {
        self.phases[shard]
    }

    /// Attempts to launch now, at `now_ms`: fills every free slot with
    /// an eligible pending shard and marks those shards Running.
    ///
    /// Dispatch order is where stealing lives. With `steal` off, slots
    /// honour strict shard order: the scan stops at the first shard
    /// still gated by backoff, so nothing later jumps the queue
    /// (head-of-line blocking — launch order stays a prefix-respecting
    /// sequence). With `steal` on, idle slots skip past gated shards
    /// and claim the lowest-indexed eligible manifest — the idle-host
    /// behaviour the ROADMAP asks for, safe because claims and attempt
    /// fencing make ownership explicit.
    pub fn launches(&mut self, now_ms: u64) -> Vec<Launch> {
        let running = self
            .phases
            .iter()
            .filter(|p| matches!(p, Phase::Running { .. }))
            .count();
        let mut free = self.config.slots.saturating_sub(running);
        let mut launches = Vec::new();
        let mut skipped_gated = false;
        for shard in 0..self.phases.len() {
            if free == 0 {
                break;
            }
            match self.phases[shard] {
                Phase::Pending {
                    attempt,
                    not_before_ms,
                } => {
                    if not_before_ms <= now_ms {
                        self.phases[shard] = Phase::Running { attempt };
                        launches.push(Launch {
                            shard,
                            attempt,
                            stolen: skipped_gated,
                        });
                        free -= 1;
                    } else if !self.config.steal {
                        break;
                    } else {
                        // An idle slot is about to jump this gated
                        // shard: every later launch this round is a
                        // steal.
                        skipped_gated = true;
                    }
                }
                Phase::Running { .. } | Phase::Done { .. } | Phase::Exhausted { .. } => {}
            }
        }
        launches
    }

    /// Records that attempt `attempt` of shard `shard` delivered its
    /// report. Returns `false` (and changes nothing) when the attempt
    /// is not the one in flight — the zombie fence.
    pub fn on_success(&mut self, shard: usize, attempt: usize) -> bool {
        match self.phases[shard] {
            Phase::Running { attempt: current } if current == attempt => {
                self.phases[shard] = Phase::Done { attempt };
                true
            }
            _ => false,
        }
    }

    /// Records that attempt `attempt` of shard `shard` failed (worker
    /// exit, torn report, or a stale-heartbeat kill) at `now_ms`.
    /// Schedules the retry behind its backoff gate, or exhausts the
    /// shard; verdicts about superseded attempts are fenced off.
    pub fn on_failure(&mut self, shard: usize, attempt: usize, now_ms: u64) -> FailureOutcome {
        match self.phases[shard] {
            Phase::Running { attempt: current } if current == attempt => {
                if attempt < self.config.max_retries {
                    let next = attempt + 1;
                    let not_before_ms = now_ms + self.config.backoff_after(attempt);
                    self.phases[shard] = Phase::Pending {
                        attempt: next,
                        not_before_ms,
                    };
                    FailureOutcome::WillRetry {
                        attempt: next,
                        not_before_ms,
                    }
                } else {
                    self.phases[shard] = Phase::Exhausted { attempt };
                    FailureOutcome::Exhausted
                }
            }
            _ => FailureOutcome::Fenced,
        }
    }

    /// The attempt currently in flight for shard `shard`, if any.
    pub fn running_attempt(&self, shard: usize) -> Option<usize> {
        match self.phases[shard] {
            Phase::Running { attempt } => Some(attempt),
            _ => None,
        }
    }

    /// Whether every shard reached a terminal phase (Done or
    /// Exhausted) — nothing left to launch, nothing in flight.
    pub fn all_settled(&self) -> bool {
        self.phases
            .iter()
            .all(|p| matches!(p, Phase::Done { .. } | Phase::Exhausted { .. }))
    }

    /// The next time a launch could possibly happen — the virtual
    /// clock's next stop when nothing is in flight. Mirrors the
    /// dispatch order of [`Scheduler::launches`]: with stealing it is
    /// the earliest gate among all pending shards; in strict order it
    /// is the *first* pending shard's gate, because the scan never
    /// reaches past a gated head-of-line shard. `None` when no shard is
    /// pending.
    pub fn next_wakeup_ms(&self) -> Option<u64> {
        let mut gates = self.phases.iter().filter_map(|p| match p {
            Phase::Pending { not_before_ms, .. } => Some(*not_before_ms),
            _ => None,
        });
        if self.config.steal {
            gates.min()
        } else {
            gates.next()
        }
    }

    /// The winning attempt per shard: `winning[k] = Some(a)` when
    /// shard `k` finished as attempt `a`. The fenced merge consumes
    /// this to reject zombie reports.
    pub fn winning_attempts(&self) -> Vec<Option<usize>> {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Done { attempt } => Some(*attempt),
                _ => None,
            })
            .collect()
    }

    /// Shards that ran out of retries, with their final attempt.
    pub fn exhausted(&self) -> Vec<(usize, usize)> {
        self.phases
            .iter()
            .enumerate()
            .filter_map(|(shard, p)| match p {
                Phase::Exhausted { attempt } => Some((shard, *attempt)),
                _ => None,
            })
            .collect()
    }

    /// Total attempts launched so far across all shards (for the
    /// retry count the CLI reports).
    pub fn attempts_launched(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Pending { attempt, .. } => *attempt,
                Phase::Running { attempt }
                | Phase::Done { attempt }
                | Phase::Exhausted { attempt } => attempt + 1,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heartbeat::{Heartbeat, ShardStatus, WorkerState};

    fn config() -> SchedConfig {
        SchedConfig {
            max_retries: 2,
            slots: usize::MAX,
            steal: false,
            stale_ms: 10_000,
            backoff_ms: 200,
        }
    }

    #[test]
    fn clean_run_launches_every_shard_once() {
        let mut sched = Scheduler::new(3, config());
        let launches = sched.launches(0);
        assert_eq!(
            launches,
            (0..3)
                .map(|shard| Launch {
                    shard,
                    attempt: 0,
                    stolen: false
                })
                .collect::<Vec<_>>()
        );
        assert!(sched.launches(0).is_empty(), "everything is in flight");
        for shard in 0..3 {
            assert!(sched.on_success(shard, 0));
        }
        assert!(sched.all_settled());
        assert_eq!(sched.winning_attempts(), vec![Some(0); 3]);
        assert!(sched.exhausted().is_empty());
        assert_eq!(sched.attempts_launched(), 3);
    }

    /// Satellite pin: heartbeat goes Live → Stale, the coordinator
    /// treats Stale as a failure, and the scheduler reassigns the shard
    /// as the next attempt generation. Pure functions end to end — no
    /// clocks, no sleeps.
    #[test]
    fn live_to_stale_heartbeat_reassigns_the_shard() {
        let config = config();
        let mut sched = Scheduler::new(2, config);
        sched.launches(0);

        // The worker heartbeats at t=1000: Live — the scheduler leaves
        // it alone.
        let mut hb = Heartbeat::starting_attempt(1, 0, 8);
        hb.updated_unix_ms = 1_000;
        assert_eq!(hb.status(2_000, config.stale_ms), ShardStatus::Live);

        // Same heartbeat, 20 s later: Stale. The coordinator maps the
        // classification to a failure of the in-flight attempt…
        let now = 21_000;
        assert_eq!(hb.status(now, config.stale_ms), ShardStatus::Stale);
        let attempt = sched.running_attempt(1).unwrap();
        assert_eq!(attempt, 0);
        let outcome = sched.on_failure(1, attempt, now);
        assert_eq!(
            outcome,
            FailureOutcome::WillRetry {
                attempt: 1,
                not_before_ms: now + 200,
            }
        );

        // …and the shard relaunches as attempt 1 once the backoff
        // passes — reassigned, new generation.
        assert!(sched.launches(now).is_empty(), "gated by backoff");
        assert_eq!(
            sched.launches(now + 200),
            vec![Launch {
                shard: 1,
                attempt: 1,
                stolen: false
            }]
        );
        assert!(sched.on_success(1, 1));
        assert!(sched.on_success(0, 0));
        assert_eq!(sched.winning_attempts(), vec![Some(0), Some(1)]);
        // Terminal heartbeats never classify stale, so a Done shard can
        // never be "reassigned" by an old file.
        hb.state = WorkerState::Done;
        assert_eq!(hb.status(now + 100_000, config.stale_ms), ShardStatus::Done);
    }

    #[test]
    fn zombie_verdicts_are_fenced_off() {
        let mut sched = Scheduler::new(1, config());
        sched.launches(0);
        sched.on_failure(0, 0, 1_000); // attempt 0 dies, retry scheduled
        assert_eq!(
            sched.launches(1_200),
            vec![Launch {
                shard: 0,
                attempt: 1,
                stolen: false
            }]
        );

        // The attempt-0 zombie wakes up and reports success: fenced.
        assert!(!sched.on_success(0, 0));
        assert_eq!(sched.running_attempt(0), Some(1));
        // A duplicate failure verdict for attempt 0 is fenced too.
        assert_eq!(sched.on_failure(0, 0, 1_300), FailureOutcome::Fenced);

        // The real attempt 1 wins; late zombie noise still changes
        // nothing afterwards.
        assert!(sched.on_success(0, 1));
        assert!(!sched.on_success(0, 0));
        assert_eq!(sched.winning_attempts(), vec![Some(1)]);
    }

    #[test]
    fn retries_are_bounded_and_backoff_grows_exponentially() {
        let mut sched = Scheduler::new(1, config());
        let mut now = 0;
        let mut gates = Vec::new();
        // max_retries = 2 → attempts 0, 1, 2 and no more.
        for attempt in 0..2 {
            assert_eq!(
                sched.launches(now),
                vec![Launch {
                    shard: 0,
                    attempt,
                    stolen: false
                }]
            );
            match sched.on_failure(0, attempt, now) {
                FailureOutcome::WillRetry { not_before_ms, .. } => {
                    gates.push(not_before_ms - now);
                    now = not_before_ms;
                }
                other => panic!("expected retry, got {other:?}"),
            }
        }
        assert_eq!(gates, vec![200, 400], "exponential backoff");
        assert_eq!(
            sched.launches(now),
            vec![Launch {
                shard: 0,
                attempt: 2,
                stolen: false
            }]
        );
        assert_eq!(sched.on_failure(0, 2, now), FailureOutcome::Exhausted);
        assert!(sched.all_settled());
        assert_eq!(sched.exhausted(), vec![(0, 2)]);
        assert_eq!(sched.winning_attempts(), vec![None]);
        assert!(
            sched.launches(now + 100_000).is_empty(),
            "exhausted stays down"
        );
        assert_eq!(sched.attempts_launched(), 3);

        // The cap: a long failure chain can't back off past the ceiling.
        let long = SchedConfig {
            backoff_ms: 200,
            ..config()
        };
        assert_eq!(long.backoff_after(0), 200);
        assert_eq!(long.backoff_after(4), 3_200);
        assert_eq!(long.backoff_after(5), SchedConfig::BACKOFF_CAP_MS);
        assert_eq!(long.backoff_after(60), SchedConfig::BACKOFF_CAP_MS);
    }

    #[test]
    fn stealing_fills_idle_slots_that_strict_order_leaves_empty() {
        let base = SchedConfig {
            slots: 1,
            ..config()
        };

        // Shard 0's first attempt fails; its retry is gated behind
        // backoff. The single free slot now has a choice.
        let run = |steal: bool| {
            let mut sched = Scheduler::new(3, SchedConfig { steal, ..base });
            assert_eq!(
                sched.launches(0),
                vec![Launch {
                    shard: 0,
                    attempt: 0,
                    stolen: false
                }]
            );
            sched.on_failure(0, 0, 100);
            sched.launches(150)
        };

        // Strict order: head-of-line blocking — the slot waits for
        // shard 0's backoff even though shards 1 and 2 are ready.
        assert_eq!(run(false), vec![]);
        // Stealing: the idle slot skips the gated shard and claims the
        // lowest-indexed eligible manifest — and the launch is marked
        // as a steal so telemetry can report it.
        assert_eq!(
            run(true),
            vec![Launch {
                shard: 1,
                attempt: 0,
                stolen: true
            }]
        );

        // Once the backoff passes, strict order resumes with shard 0's
        // retry — stealing changed scheduling, not outcomes.
        let mut sched = Scheduler::new(
            3,
            SchedConfig {
                steal: false,
                ..base
            },
        );
        sched.launches(0);
        sched.on_failure(0, 0, 100);
        assert_eq!(sched.next_wakeup_ms(), Some(300));
        assert_eq!(
            sched.launches(300),
            vec![Launch {
                shard: 0,
                attempt: 1,
                stolen: false
            }]
        );

        // Slots bound concurrency under stealing too.
        let mut sched = Scheduler::new(
            4,
            SchedConfig {
                steal: true,
                slots: 2,
                ..base
            },
        );
        assert_eq!(sched.launches(0).len(), 2);
        assert_eq!(sched.launches(0), vec![], "both slots busy");
        sched.on_success(0, 0);
        assert_eq!(
            sched.launches(0),
            vec![Launch {
                shard: 2,
                attempt: 0,
                stolen: false
            }]
        );
    }
}
