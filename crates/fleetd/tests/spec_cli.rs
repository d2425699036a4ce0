//! The `--spec` acceptance contract, end to end through the CLI:
//!
//! * a campaign built from legacy `fleetd` flags and the same campaign
//!   loaded from a `--spec` file produce **byte-identical** merged
//!   outputs (the spec/flag paths are one wire format), across
//!   different shard counts;
//! * `fleetd spec` emits exactly the JSON the legacy flags build, and
//!   that JSON round-trips through `--spec`;
//! * configuration errors surface as typed spec errors with exit-code 1
//!   before any job runs, usage errors with exit-code 2.

use replica_fleetd::cli;
use replica_fleetd::{Campaign, CampaignSpec};
use std::path::PathBuf;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleetd-spec-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> i32 {
    cli::main(args.iter().map(|s| s.to_string()).collect())
}

/// The shared legacy flags of the equivalence tests.
const FLAGS: &[&str] = &[
    "--scenarios",
    "standard",
    "--nodes",
    "12",
    "--count",
    "1",
    "--solvers",
    "dp_power,greedy_power",
    "--reference",
    "dp_power",
    "--seed",
    "42",
];

#[test]
fn legacy_flags_and_spec_file_merge_byte_identically() {
    let dir = workdir("equivalence");
    let spec_path = dir.join("campaign.json");

    // `fleetd spec` emits the spec the legacy flags build…
    let mut spec_args = vec!["spec"];
    spec_args.extend_from_slice(FLAGS);
    let out = spec_path.to_string_lossy().into_owned();
    spec_args.extend_from_slice(&["--out", &out]);
    assert_eq!(run(&spec_args), 0, "fleetd spec must succeed");

    // …which is valid spec JSON.
    let spec = CampaignSpec::load(&spec_path).unwrap();
    assert_eq!(spec.seed, Some(42));

    // Legacy flags, 3 in-process shards.
    let legacy = dir.join("legacy.json");
    let mut legacy_args = vec!["run"];
    legacy_args.extend_from_slice(FLAGS);
    let legacy_out = legacy.to_string_lossy().into_owned();
    legacy_args.extend_from_slice(&[
        "--shards",
        "3",
        "--in-process",
        "--no-verify",
        "--format",
        "json-det",
        "--out",
        &legacy_out,
    ]);
    assert_eq!(run(&legacy_args), 0, "legacy-flag run must succeed");

    // The emitted spec, different shard count, still in-process.
    let fromspec = dir.join("fromspec.json");
    let fromspec_out = fromspec.to_string_lossy().into_owned();
    assert_eq!(
        run(&[
            "run",
            "--spec",
            &out,
            "--shards",
            "5",
            "--in-process",
            "--no-verify",
            "--format",
            "json-det",
            "--out",
            &fromspec_out,
        ]),
        0,
        "spec-file run must succeed"
    );

    // Acceptance criterion: byte-identical merged outputs.
    let a = std::fs::read_to_string(&legacy).unwrap();
    let b = std::fs::read_to_string(&fromspec).unwrap();
    assert_eq!(
        a, b,
        "flag-built and spec-loaded campaigns must merge identically"
    );
    assert!(a.contains("cell_checksum"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spec_digest_equals_legacy_digest_through_the_library() {
    // The same criterion at the library level, digest-deep: identical
    // fingerprints and merged digests for any sharding.
    let spec = CampaignSpec::builder()
        .scenario_set(replica_fleetd::ScenarioSet::Standard, 12)
        .instances_per_scenario(1)
        .solvers(["dp_power", "greedy_power"])
        .reference("dp_power")
        .seed(42)
        .build();
    let registry = replica_engine::Registry::with_all();
    let from_spec = CampaignSpec::from_json(&spec.to_json())
        .unwrap()
        .validate(&registry)
        .unwrap();
    let mut from_flags = Campaign::from_set("standard", 12, 1, 42).unwrap();
    from_flags.solvers = vec!["dp_power".into(), "greedy_power".into()];
    from_flags.reference = Some("dp_power".into());
    assert_eq!(from_spec.fingerprint(), from_flags.fingerprint());

    let digest = |campaign: &Campaign, shards: usize| {
        let plan = replica_fleetd::ShardPlan::new(campaign.clone(), shards).unwrap();
        replica_fleetd::coordinator::run_plan(&plan, &replica_fleetd::Workers::InProcess)
            .unwrap()
            .digest()
    };
    assert_eq!(digest(&from_spec, 4), digest(&from_flags, 2));
}

#[test]
fn spec_subcommand_embeds_the_format_preference() {
    let dir = workdir("spec-format");
    let path = dir.join("spec.json");
    let out = path.to_string_lossy().into_owned();
    assert_eq!(
        run(&[
            "spec",
            "--scenarios",
            "standard",
            "--nodes",
            "12",
            "--format",
            "json-det",
            "--out",
            &out,
        ]),
        0
    );
    let spec = CampaignSpec::load(&path).unwrap();
    assert_eq!(
        spec.output,
        Some(replica_fleetd::Format::JsonDeterministic),
        "--format must land in the emitted spec's output field"
    );
    // And a bogus format dies at emission time.
    assert_eq!(run(&["spec", "--format", "yaml", "--out", &out]), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_specs_die_before_any_job_runs() {
    let dir = workdir("errors");

    // Unknown solver in a spec file → validation error, exit 1.
    let typo = dir.join("typo.json");
    std::fs::write(
        &typo,
        r#"{"scenario_set":{"set":"standard","nodes":12},"solvers":["dp_pwoer"]}"#,
    )
    .unwrap();
    let typo_path = typo.to_string_lossy().into_owned();
    assert_eq!(run(&["run", "--spec", &typo_path, "--in-process"]), 1);
    assert_eq!(
        run(&["plan", "--spec", &typo_path, "--out", "/dev/null"]),
        1
    );

    // Unknown scenario set → same.
    let set = dir.join("set.json");
    std::fs::write(&set, r#"{"scenario_set":{"set":"standrad","nodes":12}}"#).unwrap();
    let set_path = set.to_string_lossy().into_owned();
    assert_eq!(run(&["spec", "--spec", &set_path]), 1);

    // Malformed JSON → parse error, exit 1.
    let broken = dir.join("broken.json");
    std::fs::write(&broken, "{oops").unwrap();
    let broken_path = broken.to_string_lossy().into_owned();
    assert_eq!(run(&["run", "--spec", &broken_path, "--in-process"]), 1);

    // Missing file → I/O error, exit 1.
    let missing = dir.join("missing.json").to_string_lossy().into_owned();
    assert_eq!(run(&["run", "--spec", &missing, "--in-process"]), 1);

    // Mixing --spec with campaign flags → usage error, exit 2.
    assert_eq!(
        run(&["run", "--spec", &missing, "--seed", "7", "--in-process"]),
        2
    );

    // A typo'd legacy solver flag dies at validation too.
    assert_eq!(
        run(&["plan", "--solvers", "greedy_pwr", "--out", "/dev/null"]),
        1
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spec_output_field_drives_the_default_rendering() {
    let dir = workdir("output-format");
    let spec_path = dir.join("det.json");
    std::fs::write(
        &spec_path,
        r#"{"scenario_set":{"set":"standard","nodes":12},"instances_per_scenario":1,
           "solvers":["greedy_power"],"seed":1,"output":"json-det"}"#,
    )
    .unwrap();
    let spec_arg = spec_path.to_string_lossy().into_owned();
    let out = dir.join("report.json");
    let out_arg = out.to_string_lossy().into_owned();
    // No --format: the spec's `output` field decides.
    assert_eq!(
        run(&[
            "run",
            "--spec",
            &spec_arg,
            "--shards",
            "2",
            "--in-process",
            "--no-verify",
            "--out",
            &out_arg,
        ]),
        0
    );
    let text = std::fs::read_to_string(&out).unwrap();
    assert!(text.starts_with('{'), "json-det rendering: {text}");
    assert!(
        text.contains("\"mean_servers\":") && !text.contains("\"mean_wall_seconds\""),
        "deterministic JSON: summaries without their timing keys"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
