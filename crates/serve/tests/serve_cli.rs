//! End-to-end `placed` battery: the CLI is run in-process
//! (`cli::main`), exactly as the binary would, against temp files.
//!
//! The load-bearing checks mirror the CI smoke job:
//!
//! * deterministic outputs are **byte-identical across runs** of the
//!   same stream;
//! * an `--oracle` run (from-scratch pruned DP every epoch) is
//!   **byte-identical** to the incremental run in the deterministic
//!   formats — the bit-identity contract, observed at the very end of
//!   the pipe;
//! * `--trace` produces a well-formed obs stream that `fleetd analyze`'s
//!   reader parses, with the decision-latency histogram present.

use replica_serve::cli;
use replica_serve::wire::ServeEvent;
use replica_tree::ClientId;
use std::path::PathBuf;

/// A unique temp path per test (+ tag), cleaned up best-effort.
fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("replica-serve-test-{}-{tag}", std::process::id()))
}

fn run(args: &[&str]) -> i32 {
    cli::main(args.iter().map(|s| s.to_string()).collect())
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

#[test]
fn generated_runs_are_byte_identical_across_invocations() {
    for preset in ["walk-drift", "quiet-churn", "subtree-mix"] {
        let a = temp(&format!("gen-a-{preset}"));
        let b = temp(&format!("gen-b-{preset}"));
        for out in [&a, &b] {
            let code = run(&[
                "--generate",
                preset,
                "--nodes",
                "60",
                "--epochs",
                "6",
                "--rate",
                "12",
                "--format",
                "json-det",
                "--out",
                out.to_str().unwrap(),
            ]);
            assert_eq!(code, 0, "{preset} run failed");
        }
        assert_eq!(read(&a), read(&b), "{preset} must replay byte-identically");
        let lines = read(&a);
        // 1 initial epoch + 6 generated + 1 summary.
        assert_eq!(lines.lines().count(), 8, "{preset}: {lines}");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }
}

#[test]
fn oracle_and_incremental_byte_match_on_a_replay() {
    // A committed-style replay: deltas in bursts with epoch marks.
    let replay = temp("replay-events");
    let mut text = String::new();
    for epoch in 0..5u64 {
        for i in 0..10u64 {
            let event = ServeEvent::Delta {
                // The 80-node fat instance has 30 clients; stay in range.
                client: ClientId::from_index(((epoch * 17 + i * 7) % 30) as usize),
                volume: (epoch + i * 3) % 10,
            };
            text.push_str(&event.to_json_line());
            text.push('\n');
        }
        text.push_str(&ServeEvent::Epoch.to_json_line());
        text.push('\n');
    }
    std::fs::write(&replay, &text).unwrap();

    for format in ["json-det", "table-det"] {
        let incremental = temp(&format!("replay-incr-{format}"));
        let oracle = temp(&format!("replay-oracle-{format}"));
        let base = [
            "--replay",
            replay.to_str().unwrap(),
            "--nodes",
            "80",
            "--format",
            format,
        ];
        let code = run(&[&base[..], &["--out", incremental.to_str().unwrap()]].concat());
        assert_eq!(code, 0);
        let code = run(&[&base[..], &["--oracle", "--out", oracle.to_str().unwrap()]].concat());
        assert_eq!(code, 0);
        assert_eq!(
            read(&incremental),
            read(&oracle),
            "{format}: oracle must byte-match the incremental run"
        );
        std::fs::remove_file(&incremental).ok();
        std::fs::remove_file(&oracle).ok();
    }
    std::fs::remove_file(&replay).ok();
}

#[test]
fn replay_without_final_epoch_mark_solves_implicitly() {
    let replay = temp("replay-implicit");
    let mut text = String::new();
    for i in 0..6u64 {
        text.push_str(
            &ServeEvent::Delta {
                client: ClientId::from_index(i as usize),
                volume: 9,
            }
            .to_json_line(),
        );
        text.push('\n');
    }
    std::fs::write(&replay, &text).unwrap();
    let out = temp("replay-implicit-out");
    let code = run(&[
        "--replay",
        replay.to_str().unwrap(),
        "--nodes",
        "40",
        "--format",
        "json-det",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    let rendered = read(&out);
    // epoch 0, the implicit epoch 1, and the summary.
    assert_eq!(rendered.lines().count(), 3, "{rendered}");
    assert!(rendered.contains("\"epoch\":1"), "{rendered}");
    std::fs::remove_file(&replay).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn bad_replay_lines_fail_with_exit_one() {
    let replay = temp("replay-bad");
    std::fs::write(&replay, "{\"event\":\"resolve\"}\n").unwrap();
    let out = temp("replay-bad-out");
    let code = run(&[
        "--replay",
        replay.to_str().unwrap(),
        "--nodes",
        "40",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 1);
    // Out-of-range client indexes are rejected, not a later panic.
    std::fs::write(
        &replay,
        "{\"event\":\"delta\",\"client\":999999,\"volume\":1}\n",
    )
    .unwrap();
    let code = run(&[
        "--replay",
        replay.to_str().unwrap(),
        "--nodes",
        "40",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 1);
    std::fs::remove_file(&replay).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn unknown_flags_and_conflicting_sources_are_usage_errors() {
    assert_eq!(run(&["--frobnicate", "3"]), 2);
    assert_eq!(run(&["--stdin", "--generate", "walk-drift"]), 2);
    assert_eq!(run(&["--generate", "nope"]), 2);
    assert_eq!(run(&["--alpha", "2"]), 2);
    assert_eq!(run(&["--format", "yaml"]), 2);
    assert_eq!(run(&["--epochs", "1", "--epochs", "2"]), 2);
    assert_eq!(run(&["--stdin", "--stdin"]), 2);
    assert_eq!(run(&["help"]), 0);
}

#[test]
fn trace_stream_is_analyzable() {
    use replica_obs::{Event, Trace};

    let out = temp("trace-out");
    let trace_path = temp("trace-jsonl");
    let code = run(&[
        "--generate",
        "subtree-mix",
        "--nodes",
        "60",
        "--epochs",
        "5",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    let trace = Trace::parse(&read(&trace_path));
    assert!(trace.errors.is_empty(), "{:?}", trace.errors);
    let mut campaigns = 0;
    let mut solves = 0;
    let mut histogram = None;
    for line in &trace.lines {
        match &line.event {
            Event::SpanEnd { name, .. } if name == "campaign" => campaigns += 1,
            Event::SpanEnd { name, .. } if name == "solve" => solves += 1,
            Event::Histogram { name, unit, stats } if name == "serve.decision_latency_ms" => {
                assert_eq!(unit, "ms");
                histogram = Some(*stats);
            }
            _ => {}
        }
    }
    assert_eq!(campaigns, 1, "one campaign span per session");
    assert_eq!(solves, 6, "epoch 0 + 5 generated epochs");
    let stats = histogram.expect("decision-latency histogram must be emitted");
    assert_eq!(stats.count, 6);
    assert!(stats.p99 >= stats.p50 && stats.p50 >= 0.0);
    std::fs::remove_file(&out).ok();
    std::fs::remove_file(&trace_path).ok();
}
