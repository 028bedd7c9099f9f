//! Registry parity: a `kind = "experiment"` scenario cell (and so
//! `spp repro <id>`) dispatches to exactly the experiment module's
//! own `run` function, so its report text is bit-identical to a
//! direct module invocation — checked here on the cheap experiments.

use spp_bench::scenario_cli::registry;
use spp_bench::{Backend, Opts};
use spp_scenario::{run_fleet, FleetConfig, ScenarioSpec, Status};

fn opts(steps: usize) -> Opts {
    Opts {
        full: false,
        steps,
        backend: Backend::Cycle,
    }
}

type DirectRunner = fn(&Opts) -> String;

#[test]
fn registry_dispatch_is_bit_identical_to_direct_module_calls() {
    // (id, direct runner) pairs for the cheap experiments; dispatch
    // through the registry must reproduce their output byte for byte.
    let cases: [(&str, DirectRunner); 3] = [
        ("latency", spp_bench::latency::run),
        ("fig2", spp_bench::fig2::run),
        ("table1", spp_bench::table1::run),
    ];
    let reg = registry();
    for (id, direct) in cases {
        let registered = reg.get(id).unwrap_or_else(|| panic!("{id} not registered"));
        let via_engine = registered(&opts(2));
        let direct_out = direct(&opts(2));
        assert_eq!(via_engine, direct_out, "{id}: engine output diverged");
        assert!(!direct_out.is_empty(), "{id}: empty report");
        // Determinism across invocations, not just across call paths.
        assert_eq!(registered(&opts(2)), via_engine, "{id}: non-deterministic");
    }
}

#[test]
fn experiment_scenario_cells_run_under_the_fleet() {
    let specs = [
        ScenarioSpec::experiment("latency-cell", "latency"),
        ScenarioSpec::experiment("fig2-cell", "fig2"),
    ];
    let report = run_fleet(
        &specs,
        &registry(),
        &FleetConfig {
            workers: 2,
            ..FleetConfig::default()
        },
    );
    assert_eq!(report.results.len(), 2);
    for r in &report.results {
        assert!(
            matches!(r.status, Status::Pass),
            "{}: {:?}",
            r.name,
            r.status
        );
        assert!(r.as_expected);
    }
}

#[test]
fn an_unknown_experiment_id_is_a_contained_failure() {
    let spec = ScenarioSpec::experiment("ghost", "no-such-experiment");
    let report = run_fleet(
        &[spec],
        &registry(),
        &FleetConfig {
            workers: 1,
            ..FleetConfig::default()
        },
    );
    match &report.results[0].status {
        Status::Fail { error } => assert!(error.contains("no-such-experiment"), "{error}"),
        other => panic!("expected contained failure, got {other:?}"),
    }
}
