//! The claim-based shard pool: per-attempt files in the work directory.
//!
//! A supervised run keyed every artifact of shard `K`'s attempt `A` by
//! both numbers — **the attempt generation is the fence**:
//!
//! ```text
//! shard-K.aA.claim.json   ownership claim (created atomically, exactly once)
//! shard-K.aA.json         the attempt's shard report
//! shard-K.aA.hb.json      the attempt's heartbeat
//! shard-K.aA.stderr       the attempt's captured stderr
//! shard-K.aA.trace.jsonl  the attempt's JSONL trace (when tracing)
//! ```
//!
//! Because a superseded attempt writes only to *its own* files, a zombie
//! worker — one the coordinator gave up on that later wakes up and
//! finishes — can never overwrite the retry's report; the merge reads
//! the winning attempt's file and [`crate::merge::merge_reports_fenced`]
//! double-checks the attempt number embedded in every report.
//!
//! **Claims** make the pool safe for *concurrent claimers* (work
//! stealing across coordinator slots today, across hosts on a shared
//! filesystem tomorrow): [`try_claim`] publishes a fully written claim
//! record via [`std::fs::hard_link`] from a unique temp file — link
//! succeeds for exactly one claimer (`EEXIST` for everyone else, on any
//! POSIX filesystem, NFS included) and the linked file is complete at
//! publication, so a reader never observes a torn claim. Claims are
//! never deleted: a lost attempt's claim simply becomes history, and the
//! next attempt claims its own generation.

use crate::error::FleetdError;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-call suffix of claim temp files: claimer threads of one process
/// share its pid, so the pid alone does not keep their temp files apart.
static CLAIM_SEQ: AtomicU64 = AtomicU64::new(0);

/// The ownership record one claimer publishes for one shard attempt.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClaimRecord {
    /// Claimed shard index.
    pub shard: usize,
    /// Claimed attempt generation.
    pub attempt: usize,
    /// Who claims it (coordinator slot label, hostname, …) — purely
    /// diagnostic.
    pub owner: String,
    /// OS process id of the claimer.
    pub pid: u32,
    /// Wall-clock claim stamp (Unix epoch, milliseconds).
    pub claimed_unix_ms: u64,
}

impl ClaimRecord {
    /// A claim by `owner` on `(shard, attempt)`, stamped now.
    pub fn new(shard: usize, attempt: usize, owner: impl Into<String>) -> ClaimRecord {
        ClaimRecord {
            shard,
            attempt,
            owner: owner.into(),
            pid: std::process::id(),
            claimed_unix_ms: crate::heartbeat::now_unix_ms(),
        }
    }
}

/// Claim file path for `(shard, attempt)` in `dir`.
pub fn claim_path(dir: &Path, shard: usize, attempt: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.a{attempt}.claim.json"))
}

/// Report file path for `(shard, attempt)` in `dir`.
pub fn report_path(dir: &Path, shard: usize, attempt: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.a{attempt}.json"))
}

/// Captured-stderr file path for `(shard, attempt)` in `dir`.
pub fn stderr_path(dir: &Path, shard: usize, attempt: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.a{attempt}.stderr"))
}

/// JSONL trace file path for `(shard, attempt)` in `dir`.
pub fn trace_path(dir: &Path, shard: usize, attempt: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.a{attempt}.trace.jsonl"))
}

/// Attempts to claim `(record.shard, record.attempt)` in `dir`.
///
/// Returns `Ok(true)` when this call won the claim, `Ok(false)` when
/// another claimer already holds it, `Err` only on real I/O trouble.
/// The publish is atomic and torn-read-free: the record is fully
/// written to a claimer-unique temp file first, then hard-linked to the
/// claim path — exactly one link wins, and the winner's content is
/// complete before it becomes visible.
pub fn try_claim(dir: &Path, record: &ClaimRecord) -> Result<bool, FleetdError> {
    let path = claim_path(dir, record.shard, record.attempt);
    let io = |path: &Path, message: String| FleetdError::Io {
        path: path.display().to_string(),
        message,
    };
    let json =
        serde_json::to_string(record).map_err(|e| io(&path, format!("serializing claim: {e}")))?;
    // `Relaxed`: the counter only has to hand out distinct values.
    let tmp = dir.join(format!(
        "shard-{}.a{}.claim.{}.{}.tmp",
        record.shard,
        record.attempt,
        std::process::id(),
        CLAIM_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, json).map_err(|e| io(&tmp, format!("cannot write claim temp: {e}")))?;
    let won = match fs::hard_link(&tmp, &path) {
        Ok(()) => true,
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => false,
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            return Err(io(&path, format!("cannot publish claim: {e}")));
        }
    };
    let _ = fs::remove_file(&tmp);
    Ok(won)
}

/// Loads a published claim.
pub fn load_claim(dir: &Path, shard: usize, attempt: usize) -> Result<ClaimRecord, FleetdError> {
    crate::coordinator::read_json(&claim_path(dir, shard, attempt))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fleetd-pool-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn attempt_files_are_disjoint_per_generation() {
        let dir = PathBuf::from("/work");
        assert_eq!(
            claim_path(&dir, 3, 0).to_str().unwrap(),
            "/work/shard-3.a0.claim.json"
        );
        assert_eq!(
            report_path(&dir, 3, 1).to_str().unwrap(),
            "/work/shard-3.a1.json"
        );
        assert_ne!(report_path(&dir, 3, 0), report_path(&dir, 3, 1));
        assert_eq!(
            trace_path(&dir, 0, 2).to_str().unwrap(),
            "/work/shard-0.a2.trace.jsonl"
        );
        assert!(stderr_path(&dir, 7, 0)
            .to_str()
            .unwrap()
            .ends_with(".a0.stderr"));
    }

    #[test]
    fn exactly_one_claimer_wins_and_the_record_round_trips() {
        let dir = pool_dir("claim");
        let first = ClaimRecord::new(2, 1, "slot-0");
        let second = ClaimRecord::new(2, 1, "slot-3");
        assert!(try_claim(&dir, &first).unwrap(), "first claim wins");
        assert!(!try_claim(&dir, &second).unwrap(), "second claim loses");
        // The published record is the winner's, intact.
        let loaded = load_claim(&dir, 2, 1).unwrap();
        assert_eq!(loaded, first);
        // A different attempt generation is a fresh claim.
        assert!(try_claim(&dir, &ClaimRecord::new(2, 2, "slot-3")).unwrap());
        // No temp litter.
        let litter: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(litter.is_empty(), "{litter:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_claimers_produce_exactly_one_winner() {
        let dir = pool_dir("race");
        // The barrier releases all 8 claimers at once, so every attempt
        // generation is a real race, not a likely one.
        for attempt in 0..32 {
            let start = std::sync::Barrier::new(8);
            let winners: usize = std::thread::scope(|scope| {
                (0..8)
                    .map(|slot| {
                        let (dir, start) = (&dir, &start);
                        scope.spawn(move || {
                            let record = ClaimRecord::new(0, attempt, format!("slot-{slot}"));
                            start.wait();
                            try_claim(dir, &record).unwrap() as usize
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum()
            });
            assert_eq!(
                winners, 1,
                "attempt {attempt}: exactly one of 8 racing claimers may win"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
