//! Hostile input against every decoder of outside bytes: the serve wire,
//! campaign specs, traces, shard plans and reports, heartbeats, claims,
//! trees and instances. Every input must end in a typed error: no panic,
//! and no stack overflow on deep nesting.

use power_replica::engine::{Campaign, CampaignSpec, Demand, Scenario, Topology};
use power_replica::fleetd::{ClaimRecord, Heartbeat, ShardPlan, ShardReport, WorkerState};
use power_replica::prelude::*;
use power_replica::serve::wire::ServeEvent;
use rand::{rngs::StdRng, SeedableRng};
use replica_obs::{Event, Stats, Trace};

type Decode = Box<dyn Fn(&str) -> Result<(), String>>;

/// One decoder under test and a document it accepts.
struct Decoder {
    name: &'static str,
    sample: String,
    decode: Decode,
}

fn decoder(name: &'static str, sample: String, decode: Decode) -> Decoder {
    Decoder {
        name,
        sample,
        decode,
    }
}

fn typed<T, E: std::fmt::Display>(result: Result<T, E>) -> Result<(), String> {
    result.map(|_| ()).map_err(|e| e.to_string())
}

fn tiny_plan() -> ShardPlan {
    let mut campaign = Campaign::from_set("standard", 12, 1, 9).unwrap();
    campaign.scenarios.truncate(2);
    campaign.solvers = vec!["greedy_power".into(), "dp_power".into()];
    ShardPlan::new(campaign, 2).unwrap()
}

fn small_instance() -> Instance {
    let mut rng = StdRng::seed_from_u64(5);
    let tree = random_tree(&GeneratorConfig::paper_power(12), &mut rng);
    let pre = random_pre_existing(&tree, 3, &mut rng);
    Instance::min_cost(tree, 10, pre, 0.1, 0.01).unwrap()
}

fn decoders() -> Vec<Decoder> {
    let plan = tiny_plan();
    let report = power_replica::fleetd::worker::run_shard(&plan, 0).unwrap();
    let heartbeat = Heartbeat {
        shard: 1,
        attempt: 0,
        pid: 4242,
        state: WorkerState::Running,
        jobs_done: 1,
        jobs_total: 2,
        cells_done: 2,
        updated_unix_ms: 1_700_000_000_000,
    };
    let instance = small_instance();
    let trace_line = Event::Histogram {
        name: "fat/uniform/12n dp_power".into(),
        unit: "ms".into(),
        stats: Stats {
            count: 3,
            mean: 1.5,
            min: 0.5,
            max: 2.5,
            p50: 1.25,
            p90: 2.25,
            p99: 2.5,
        },
    }
    .to_json_line(Some(17));
    vec![
        decoder(
            "ServeEvent::parse",
            "{\"event\":\"delta\",\"client\":3,\"volume\":7}".into(),
            Box::new(|s| typed(ServeEvent::parse(s, 1))),
        ),
        decoder(
            "CampaignSpec::from_json",
            include_str!("../examples/campaigns/standard-small.json")
                .trim_end()
                .into(),
            Box::new(|s| typed(CampaignSpec::from_json(s))),
        ),
        decoder(
            "Trace::parse",
            trace_line,
            Box::new(|s| {
                let trace = Trace::parse(s);
                match trace.errors.first() {
                    Some(e) if e.line() == Some(1) => Err(e.to_string()),
                    Some(e) => panic!("error without its line number: {e}"),
                    None => Ok(()),
                }
            }),
        ),
        decoder(
            "ShardPlan",
            serde_json::to_string(&plan).unwrap(),
            Box::new(|s| typed(serde_json::from_str::<ShardPlan>(s))),
        ),
        decoder(
            "ShardReport",
            serde_json::to_string(&report).unwrap(),
            Box::new(|s| typed(serde_json::from_str::<ShardReport>(s))),
        ),
        decoder(
            "Heartbeat",
            serde_json::to_string(&heartbeat).unwrap(),
            Box::new(|s| typed(serde_json::from_str::<Heartbeat>(s))),
        ),
        decoder(
            "ClaimRecord",
            serde_json::to_string(&ClaimRecord::new(1, 2, "slot-0")).unwrap(),
            Box::new(|s| typed(serde_json::from_str::<ClaimRecord>(s))),
        ),
        decoder(
            "Tree",
            serde_json::to_string(instance.tree()).unwrap(),
            Box::new(|s| typed(serde_json::from_str::<Tree>(s))),
        ),
        decoder(
            "Instance",
            serde_json::to_string(&instance).unwrap(),
            Box::new(|s| typed(serde_json::from_str::<Instance>(s))),
        ),
    ]
}

/// The byte range of the sample's first number that follows a `:`.
fn first_number(sample: &str) -> std::ops::Range<usize> {
    let bytes = sample.as_bytes();
    let mut from = 0;
    loop {
        let colon = from + sample[from..].find(':').expect("every sample has a number");
        let start = colon
            + 1
            + bytes[colon + 1..]
                .iter()
                .take_while(|&&b| b == b' ')
                .count();
        let end = start
            + bytes[start..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
        if end > start {
            return start..end;
        }
        from = colon + 1;
    }
}

/// The hostile inputs built from one valid sample.
fn hostile(sample: &str) -> Vec<(String, String)> {
    // Just inside the first key's opening quote.
    let key = sample.find('"').expect("every sample is an object") + 1;
    let in_key = |text: &str| format!("{}{text}{}", &sample[..key], &sample[key..]);
    let number = first_number(sample);
    let as_number =
        |text: &str| format!("{}{text}{}", &sample[..number.start], &sample[number.end..]);
    let mut inputs = vec![
        ("10^5 arrays deep".to_string(), "[".repeat(100_000)),
        ("10^5 objects deep".to_string(), "{\"a\":".repeat(100_000)),
        ("lone high surrogate".to_string(), in_key("\\ud83c")),
        ("lone low surrogate".to_string(), in_key("\\udf32")),
        ("raw control byte".to_string(), in_key("\u{1}")),
        (
            "multi-byte char in a \\u escape".to_string(),
            in_key("\\u000é"),
        ),
    ];
    for bad in ["+1", ".5", "1."] {
        inputs.push((format!("number {bad}"), as_number(bad)));
    }
    for (end, _) in sample.char_indices().skip(1) {
        inputs.push((format!("prefix of {end} bytes"), sample[..end].to_string()));
    }
    inputs
}

#[test]
fn every_decoder_ends_every_hostile_input_in_a_typed_error() {
    for decoder in decoders() {
        let name = decoder.name;
        if let Err(e) = (decoder.decode)(&decoder.sample) {
            panic!("{name} rejects its own sample: {e}\n{}", decoder.sample);
        }
        for (what, input) in hostile(&decoder.sample) {
            assert!(
                (decoder.decode)(&input).is_err(),
                "{name} accepted {what}: {input:.200}"
            );
        }
    }
}

#[test]
fn an_escaped_surrogate_pair_in_a_scenario_name_decodes_and_round_trips() {
    let mut scenario = Scenario::new(Topology::Fat, Demand::Uniform, 12);
    scenario.name = "\u{1F332} forest".into();
    let spec = CampaignSpec::builder()
        .scenarios(vec![scenario])
        .solvers(["greedy_power"])
        .build();
    // Python's `json.dumps` writes astral characters as surrogate pairs.
    let python = spec.to_json().replace('\u{1F332}', "\\ud83c\\udf32");
    assert!(python.contains("\\ud83c\\udf32 forest"), "{python}");
    let decoded = CampaignSpec::from_json(&python).unwrap();
    assert_eq!(decoded, spec);
    assert_eq!(CampaignSpec::from_json(&decoded.to_json()).unwrap(), spec);
}
