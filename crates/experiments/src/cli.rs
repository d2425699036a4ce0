//! Minimal flag parsing for the `experiments` binary.
//!
//! Deliberately tiny (the workspace adds no CLI dependency for one binary):
//! `--name` flags with an optional following value, order-insensitive.
//! Each command accepts only the flags [`USAGE`] lists for it
//! ([`accepted_flags`]): a misspelled flag is an error, not a silently
//! ignored entry that runs the wrong experiment.

use replica_engine::spec::CAMPAIGN_FLAG_NAMES;

/// The `experiments` help text.
pub const USAGE: &str = "\
usage: experiments <command> [flags]

commands:
  exp1    Figures 4/6  — reuse of pre-existing servers, DP vs GR
  exp2    Figures 5/7  — cumulative reuse over 20 update steps
  exp3    Figures 8-11 — inverse power vs cost bound
  scale   §5 runtime claims — DP wall-clock vs tree size
  heur    §6 heuristics quality vs the exact DP (not a paper figure)
  strat   §6 update-strategy trade-off matrix (not a paper figure)
  fleet   spec-driven scenario-fleet campaign through the engine
  all     everything above except fleet (use --quick for a smoke run)

flags (a command rejects any flag not listed for it):
  --high             exp1, exp2: high trees (2-4 children) instead of fat (6-9)
  --variant NAME     exp3: fig8 (default) | fig9 | fig10 | fig11
  --trees N          exp1-3, heur, strat, all: override the tree count
  --nodes N          exp1-3, heur, strat, all: override the internal-node count
  --steps N          exp2, strat, all: override the step count
  --seed N           exp1-3, heur, all: override the experiment seed
  --quick            all but fleet: scaled-down run
  --paper            scale, all: paper-scale targets (minutes!)
  --out DIR          every command: output directory for CSVs (default: results)

fleet flags (a campaign spec, validated before any job runs):
  --spec FILE        load a CampaignSpec JSON (see examples/campaigns/)
  --scenarios SET    standard | churn | extended   [default: standard]
  --nodes N          internal nodes per tree       [default: 16]
  --count K          instances per scenario        [default: 2]
  --solvers a,b,c    registry solver names         [default: dp_power,greedy_power,heur_power_greedy]
  --reference NAME   gap/speedup baseline
  --seed N           fleet seed
  --batch-jobs N     streaming batch size          [default: 64]
  --threads N        worker threads                [default: the machine's]
  --cost-bound X     cost budget per solve
  --budgets a,b,c    budget grid: adds an amortized frontier sweep
  --format F         table | table-det | csv | json | json-det
  --trace FILE       write a JSONL telemetry trace of the run (spans,
                     progress, timing histograms); strictly out-of-band —
                     the report is byte-identical with or without it
  --analyze          after the run, parse the trace back and print the
                     forensic report (phase profile, slowest solves,
                     throughput) to stderr; uses --trace FILE when given,
                     a temporary trace otherwise";

/// The flags `command` accepts, as [`USAGE`] lists them; `None` for a
/// command that does not exist.
pub fn accepted_flags(command: &str) -> Option<Vec<&'static str>> {
    let mut flags = match command {
        "exp1" => vec!["high", "seed"],
        "exp2" => vec!["high", "steps", "seed"],
        "exp3" => vec!["variant", "seed"],
        "heur" => vec!["seed"],
        "strat" => vec!["steps"],
        "all" => vec!["steps", "seed", "paper"],
        "scale" => return Some(vec!["paper", "quick", "out"]),
        "fleet" => {
            let mut flags = CAMPAIGN_FLAG_NAMES.to_vec();
            flags.extend(["format", "trace", "analyze", "out"]);
            return Some(flags);
        }
        _ => return None,
    };
    flags.extend(["trees", "nodes", "quick", "out"]);
    Some(flags)
}

/// Parsed `--flag [value]` pairs.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// Flag name → optional value, in appearance order.
    pub flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses raw arguments (everything after the subcommand); a flag
    /// outside `accepted` is an error.
    pub fn parse(raw: &[String], accepted: &[&str]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            if let Some(name) = arg.strip_prefix("--") {
                if !accepted.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            }
            i += 1;
        }
        Ok(Args { flags })
    }

    /// True if the flag appeared (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The flag's value, if the flag appeared with one.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The flag's value parsed as `usize`; `Err` carries a message for the
    /// caller to surface.
    pub fn get_usize(&self, name: &str) -> Result<Option<usize>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} wants a number, got {v:?}")),
        }
    }

    /// Adds a flag programmatically (used by the `all` command to fan out
    /// variants).
    pub fn with_flag(mut self, name: &str, value: Option<&str>) -> Self {
        self.flags
            .push((name.to_string(), value.map(str::to_string)));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Args {
        Args::parse(&raw(args), &accepted_flags("exp1").unwrap()).unwrap()
    }

    #[test]
    fn flags_with_and_without_values() {
        let a = parse(&["--trees", "50", "--high", "--out", "dir"]);
        assert_eq!(a.get("trees"), Some("50"));
        assert!(a.has("high"));
        assert_eq!(a.get("high"), None);
        assert_eq!(a.get("out"), Some("dir"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn flag_followed_by_flag_has_no_value() {
        let a = parse(&["--quick", "--trees", "10"]);
        assert_eq!(a.get("quick"), None);
        assert_eq!(a.get_usize("trees").unwrap(), Some(10));
    }

    #[test]
    fn numeric_parsing_reports_errors() {
        let a = parse(&["--trees", "many"]);
        let err = a.get_usize("trees").unwrap_err();
        assert!(err.contains("trees") && err.contains("many"));
        assert_eq!(parse(&[]).get_usize("trees").unwrap(), None);
    }

    #[test]
    fn non_flag_tokens_are_ignored() {
        let a = parse(&["stray", "--seed", "7", "stray2"]);
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.flags.len(), 1);
    }

    #[test]
    fn each_command_rejects_flags_it_does_not_take() {
        let fleet = accepted_flags("fleet").unwrap();
        let typo = ["--scenarios", "standard", "--solvrs", "greedy"];
        assert_eq!(
            Args::parse(&raw(&typo), &fleet).unwrap_err(),
            "unknown flag --solvrs"
        );
        assert!(Args::parse(&raw(&["--solvers", "greedy"]), &fleet).is_ok());
        let exp1 = accepted_flags("exp1").unwrap();
        assert!(Args::parse(&raw(&["--solvers", "greedy"]), &exp1).is_err());
        assert!(Args::parse(&raw(&["--steps", "3"]), &exp1).is_err());
        assert!(Args::parse(&raw(&["--steps", "3"]), &accepted_flags("exp2").unwrap()).is_ok());
        assert_eq!(accepted_flags("exp9"), None);
        // Every accepted flag is documented.
        for command in [
            "exp1", "exp2", "exp3", "scale", "heur", "strat", "fleet", "all",
        ] {
            for flag in accepted_flags(command).unwrap() {
                assert!(USAGE.contains(&format!("--{flag} ")), "{command} --{flag}");
            }
        }
    }

    #[test]
    fn with_flag_appends() {
        let a = parse(&["--quick"]).with_flag("variant", Some("fig9"));
        assert!(a.has("quick"));
        assert_eq!(a.get("variant"), Some("fig9"));
    }
}
