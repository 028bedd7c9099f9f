//! Registry parity: a `kind = "experiment"` scenario cell (and so
//! `spp repro <id>`) dispatches to exactly the experiment module's
//! own `run` function, so its report text is bit-identical to a
//! direct module invocation — checked here on the cheap experiments.
//! Workload parity: a protocol- or insight-campaign cell is the run of
//! the matching `WorkloadSpec` cell.

use spp_bench::scenario_cli::registry;
use spp_bench::{insight, protocol, Opts};
use spp_core::{CancelToken, ProtocolKind};
use spp_scenario::{
    run_fleet, run_workload, FleetConfig, PlacementPolicy, ScenarioKind, ScenarioSpec, Status,
    WorkloadApp,
};

fn opts(steps: usize) -> Opts {
    Opts { full: false, steps }
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

#[test]
fn protocol_and_insight_cells_match_their_workload_spec_cells() {
    let pic = WorkloadApp::Pic { mesh: (8, 8, 8) };
    assert_eq!(protocol::APPS[0], pic);
    assert_eq!(insight::APPS[0], pic);
    let ScenarioKind::Workload(mut spec) = ScenarioSpec::workload("pic-parity", pic).kind else {
        unreachable!()
    };
    spec.hypernodes = 2;
    spec.threads = 16;
    spec.steps = 1;
    spec.protocol = ProtocolKind::DashSci;
    spec.placement = PlacementPolicy::Uniform;
    let want = run_workload(&spec, &CancelToken::new(), None).expect("spec cell runs");
    assert!(want.cycles > 0);

    let cell = protocol::run_cell(ProtocolKind::DashSci, 2, pic, 1);
    assert_eq!(cell.cycles, want.cycles, "protocol cell cycles");
    assert_eq!(cell.stats, want.stats, "protocol cell MemStats");

    // Insight's plain twin: the cell's own run with no heatmap mounted.
    let plain = spp_core::Machine::spp1000(2).with_protocol(ProtocolKind::DashSci);
    let (cycles, m) = protocol::run_app(plain, insight::APPS[0], 1);
    assert_eq!(cycles, want.cycles, "insight plain-twin cycles");
    assert_eq!(m.stats, want.stats, "insight plain-twin MemStats");
    let attributed = insight::run_cell(ProtocolKind::DashSci, insight::APPS[0], 1);
    assert!(attributed.transparent);
    assert_eq!(
        (attributed.cycles, attributed.stats),
        (want.cycles, want.stats)
    );
}
