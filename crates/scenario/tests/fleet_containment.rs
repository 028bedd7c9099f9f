//! Fleet containment: a 20-cell matrix with deliberately misbehaving
//! scenarios — panics, a hang, a golden mismatch, a repeat offender —
//! must complete with every cell classified and the fleet intact.
//!
//! This is the acceptance scenario of the engine: no injected failure
//! may abort the fleet, lose a result row, or leak into a neighboring
//! cell's classification.

use spp_scenario::{
    run_fleet, BuiltinOp, Expectation, FleetConfig, Registry, ScenarioKind, ScenarioSpec, Status,
    WorkloadApp,
};

fn kernel(name: &str, elems: usize) -> ScenarioSpec {
    let mut s = ScenarioSpec::workload(name, WorkloadApp::KernelStream { elems });
    if let ScenarioKind::Workload(ref mut w) = s.kind {
        w.steps = 2;
        w.threads = 4;
    }
    s
}

/// The 20-cell matrix: 16 healthy cells, two panickers (one with
/// retries, so it also exercises quarantine), one hanger, one golden
/// mismatch.
fn matrix() -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for i in 0..12 {
        specs.push(kernel(&format!("healthy-{i:02}"), 64 + i * 16));
    }
    for i in 0..4 {
        specs.push(ScenarioSpec::builtin(&format!("noop-{i}"), BuiltinOp::Noop));
    }

    let mut panic1 = ScenarioSpec::builtin(
        "injected-panic",
        BuiltinOp::Panic {
            message: "injected panic".into(),
        },
    );
    panic1.expect = Expectation::Fail;
    specs.push(panic1);

    let mut repeat = ScenarioSpec::builtin(
        "repeat-offender",
        BuiltinOp::Panic {
            message: "panics every attempt".into(),
        },
    );
    repeat.expect = Expectation::Fail;
    repeat.retries = 2;
    repeat.backoff_ms = 1;
    specs.push(repeat);

    let mut hang = ScenarioSpec::builtin("injected-hang", BuiltinOp::Hang);
    hang.expect = Expectation::Timeout;
    hang.timeout_secs = 1.0;
    specs.push(hang);

    let mut diverging = kernel("injected-divergence", 128);
    diverging.expect = Expectation::GoldenMismatch;
    diverging.golden.cycles = Some(1);
    specs.push(diverging);

    assert_eq!(specs.len(), 20);
    specs
}

#[test]
fn injected_failures_are_contained_classified_and_summarized() {
    let specs = matrix();
    let report = run_fleet(
        &specs,
        &Registry::new(),
        &FleetConfig {
            workers: 6,
            ..FleetConfig::default()
        },
    );

    // Every cell produced a result row, in spec order.
    assert_eq!(report.results.len(), 20);
    for (spec, res) in specs.iter().zip(&report.results) {
        assert_eq!(spec.name, res.name, "result rows out of order");
    }

    let by_name = |n: &str| {
        report
            .results
            .iter()
            .find(|r| r.name == n)
            .unwrap_or_else(|| panic!("no result for {n}"))
    };

    // The injected panic is a contained failure carrying its message.
    let p = by_name("injected-panic");
    assert!(matches!(&p.status, Status::Fail { error } if error.contains("injected panic")));
    assert!(p.as_expected && !p.quarantined);

    // The repeat offender exhausted its retries and was quarantined.
    let q = by_name("repeat-offender");
    assert!(matches!(q.status, Status::Fail { .. }));
    assert_eq!(q.attempts, 3, "retries=2 means three attempts");
    assert!(q.quarantined, "exhausting retries must quarantine the cell");
    assert!(q.as_expected);

    // The hang was cancelled by the wall-clock supervisor.
    let h = by_name("injected-hang");
    assert!(matches!(h.status, Status::Timeout));
    assert!(h.as_expected);

    // The golden divergence is a structured diff, not a panic.
    let g = by_name("injected-divergence");
    match &g.status {
        Status::GoldenMismatch { diffs } => {
            assert_eq!(diffs.len(), 1);
            assert_eq!(diffs[0].0, "cycles");
            assert_eq!(diffs[0].1, 1, "expected side of the diff");
            assert!(diffs[0].2 > 1, "got side carries the real cycle count");
        }
        other => panic!("expected a golden mismatch, got {other:?}"),
    }

    // Healthy neighbours were untouched by the misbehaving cells.
    let (pass, fail, timeout, mismatch, quarantined) = report.counts();
    assert_eq!(
        (pass, fail, timeout, mismatch, quarantined),
        (16, 2, 1, 1, 1),
        "summary counters"
    );
    assert!(
        report.all_as_expected(),
        "every outcome matched its declared expect"
    );

    // The summary renders every classification.
    let rendered = report.render();
    for needle in [
        "injected-panic",
        "injected-hang",
        "injected-divergence",
        "ALL AS EXPECTED",
    ] {
        assert!(
            rendered.contains(needle),
            "summary missing {needle:?}:\n{rendered}"
        );
    }
}

#[test]
fn fleet_reports_are_deterministic_across_runs_and_worker_counts() {
    let specs = matrix();
    let a = run_fleet(
        &specs,
        &Registry::new(),
        &FleetConfig {
            workers: 6,
            ..FleetConfig::default()
        },
    );
    let b = run_fleet(
        &specs,
        &Registry::new(),
        &FleetConfig {
            workers: 2,
            ..FleetConfig::default()
        },
    );
    // Wall-clock seconds vary run to run; the JSON deliberately
    // excludes them, so the reports must be byte-identical even
    // across different worker counts.
    assert_eq!(a.to_json().report(), b.to_json().report());
}

#[test]
fn an_unexpected_outcome_fails_the_fleet_but_still_reports() {
    let mut specs = matrix();
    // Flip one expectation: the panicking cell now claims it passes.
    specs[16].expect = Expectation::Pass;
    assert_eq!(specs[16].name, "injected-panic");

    let report = run_fleet(
        &specs,
        &Registry::new(),
        &FleetConfig {
            workers: 4,
            ..FleetConfig::default()
        },
    );
    assert_eq!(report.results.len(), 20, "report still complete");
    assert!(!report.all_as_expected());
    let p = report
        .results
        .iter()
        .find(|r| r.name == "injected-panic")
        .unwrap();
    assert!(!p.as_expected);
    assert!(
        report.render().contains("UNEXPECTED"),
        "{}",
        report.render()
    );
}
