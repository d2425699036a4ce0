//! Declarative campaigns: load a spec file, validate it, run it.
//!
//! The whole run — scenarios, solver lineup, seed, batch size, output
//! preference — is described by one JSON document (the engine's
//! [`CampaignSpec`]). Validation happens at load time against the
//! solver registry and the scenario families, so a typo'd solver name
//! dies with a "did you mean?" before any job runs; a valid spec
//! resolves into the self-contained `Campaign` that `fleetd` also
//! shards across processes (`fleetd run --spec FILE`).
//!
//! ```text
//! cargo run --release --example campaign_spec [SPEC.json]
//! ```
//!
//! Defaults to the committed `examples/campaigns/inline-worst-cases.json`
//! (two inline worst-case scenario families under a cost bound).

use power_replica::engine::obs::Obs;
use power_replica::engine::{render, CampaignSpec, Fleet, Registry, ScenarioSet};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "examples/campaigns/inline-worst-cases.json".into());

    let registry = Registry::with_all();

    // Load → validate. Both steps return a typed SpecError with an
    // actionable message; demonstrate the did-you-mean on a broken spec
    // first.
    let broken = CampaignSpec::builder()
        .scenario_set(ScenarioSet::Standard, 12)
        .solvers(["dp_powr"])
        .build();
    if let Err(e) = broken.validate(&registry) {
        println!("a broken spec fails at load time:\n  {e}\n");
    }

    let spec = CampaignSpec::load(&path).expect("the spec loads");
    let campaign = match spec.validate(&registry) {
        Ok(campaign) => campaign,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{path}: {} scenarios × {} instances × {} solvers, seed {}, \
         cost bound {}",
        campaign.scenarios.len(),
        campaign.instances_per_scenario,
        campaign.solvers.len(),
        campaign.seed,
        campaign
            .cost_bound
            .map_or("∞".to_string(), |b| format!("{b}")),
    );

    // A validated campaign cannot fail to build a fleet.
    let fleet = Fleet::new(&registry, &campaign).expect("validated campaign");
    let report = fleet.run(&campaign.space(), &Obs::noop());

    // The spec even names its preferred rendering.
    println!("{}", render(&report, campaign.output));
    println!(
        "digest: {} cells, checksum {:016x} — rerunning this spec \
         reproduces these bytes exactly",
        report.cell_count, report.cell_checksum
    );
}
