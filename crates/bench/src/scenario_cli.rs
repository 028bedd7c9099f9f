//! The experiment registry and the supervised runner behind `spp`.
//!
//! [`registry`] is the one list of experiments. Each entry is the
//! module's own `run(&Opts)`, so a `kind = "experiment"` spec,
//! `spp repro <id>` and the `spp serve` job service all call exactly
//! the same function. Every run goes through the scenario engine's
//! supervised fleet: [`repro_main`] builds one experiment cell per
//! requested id, and [`fleet_main`] validates or runs whole spec
//! matrices.

use crate::Opts;
use spp_scenario::{run_fleet, ExperimentFn, FleetConfig, Registry, ScenarioKind, ScenarioSpec};
use std::path::{Path, PathBuf};

/// Every experiment, in the order `spp repro all` runs them: the
/// paper's memory latencies and primitives first (§6, Figs 2–4), then
/// its applications (Tables 1–2, Figs 6–8), then the studies beyond
/// the paper.
pub fn registry() -> Registry {
    let experiments: [(&str, ExperimentFn); 21] = [
        ("latency", crate::latency::run),
        ("fig2", crate::fig2::run),
        ("fig3", crate::fig3::run),
        ("fig4", crate::fig4::run),
        ("table1", crate::table1::run),
        ("table2", crate::table2::run),
        ("fig7", crate::fig7::run),
        ("fig6", crate::fig6::run),
        ("fig8", crate::fig8::run),
        ("scale", crate::scale::run),
        ("cache", crate::cachestudy::run),
        ("sensitivity", crate::sensitivity::run),
        ("bus", crate::bus::run),
        ("faults", crate::faults::run),
        ("chaos", crate::chaos::run),
        ("backend", crate::backend::run),
        ("trace", crate::trace::run),
        ("race", crate::race::run),
        ("protocol", crate::protocol::run),
        ("recovery", crate::recovery::run),
        ("insight", crate::insight::run),
    ];
    let mut r = Registry::new();
    for (id, run) in experiments {
        r.register(id, run);
    }
    r
}

/// `spp repro <id>|all [--full] [--steps N]`:
/// run one registered experiment, or every one in registry order, as
/// a supervised fleet with one worker. A panicking experiment is a
/// contained FAIL and the sweep goes on. Reports land under `dir`
/// (see [`run_and_report`]); the heartbeat stream's `end` event of a
/// failed cell carries its error text, so even a sweep killed hard
/// leaves a record of every finished cell. Returns the process exit
/// code: 0 iff every cell passed, 2 on a bad command line.
pub fn repro_main(args: &[String], registry: &Registry, dir: &Path) -> i32 {
    let usage = || {
        format!(
            "{}\n  <id> is all or one of: {}",
            Opts::usage(),
            registry.ids().join(", ")
        )
    };
    let Some((target, rest)) = args.split_first() else {
        eprintln!("error: repro needs an experiment id\n{}", usage());
        return 2;
    };
    let opts = match Opts::try_parse(rest.iter().cloned()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return 2;
        }
    };
    let ids = match target.as_str() {
        "all" => registry.ids(),
        id if registry.get(id).is_some() => vec![id],
        other => {
            eprintln!("error: no experiment {other:?}\n{}", usage());
            return 2;
        }
    };
    let specs: Vec<ScenarioSpec> = ids
        .into_iter()
        .map(|id| {
            let mut spec = ScenarioSpec::experiment(&format!("repro-{id}"), id);
            if let ScenarioKind::Experiment(e) = &mut spec.kind {
                e.opts = opts.clone();
            }
            spec
        })
        .collect();
    run_and_report(&specs, registry, 1, None, dir)
}

/// Run `specs` under the supervised fleet and write its reports under
/// `dir`: `BENCH_scenarios.json` and `scenarios_summary.txt` when the
/// fleet ends, `scenarios_heartbeat.jsonl` live as cells start and
/// end. Returns 0 iff every cell's outcome matched its spec's
/// declared `expect`, else 1.
pub fn run_and_report(
    specs: &[ScenarioSpec],
    registry: &Registry,
    workers: usize,
    max_timeout_secs: Option<f64>,
    dir: &Path,
) -> i32 {
    // Live telemetry: the fleet streams per-cell lifecycle heartbeats
    // as it runs, so `tail -f` shows progress long before the
    // deterministic reports land.
    let cfg = FleetConfig {
        workers,
        checkpoint_dir: Some(dir.join("checkpoints")),
        max_timeout_secs,
        heartbeat_path: Some(dir.join("scenarios_heartbeat.jsonl")),
    };
    let report = run_fleet(specs, registry, &cfg);
    print!("{}", report.render());
    // Atomic temp-file + rename: a crash mid-write leaves the
    // previous report intact, never a torn one.
    if let Err(e) = spp_scenario::write_report(dir, "BENCH_scenarios.json", &report.to_json())
        .and_then(|_| {
            spp_core::atomic_write_str(&dir.join("scenarios_summary.txt"), &report.render())
        })
    {
        eprintln!("[could not write reports under {}: {e}]", dir.display());
    } else {
        println!(
            "[reports written to {}]",
            dir.join("BENCH_scenarios.json").display()
        );
    }
    i32::from(!report.all_as_expected())
}

/// Collect spec files from path arguments: a `.toml` file is taken
/// as-is, a directory contributes its immediate `*.toml` children in
/// sorted order (deterministic fleet order).
pub fn collect_spec_paths(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::new();
    for a in args {
        let p = Path::new(a);
        if p.is_dir() {
            let mut children: Vec<PathBuf> = std::fs::read_dir(p)
                .map_err(|e| format!("{a}: {e}"))?
                .filter_map(|entry| entry.ok().map(|d| d.path()))
                .filter(|c| c.extension().is_some_and(|x| x == "toml"))
                .collect();
            children.sort();
            if children.is_empty() {
                return Err(format!("{a}: no .toml specs in directory"));
            }
            paths.extend(children);
        } else if p.is_file() {
            paths.push(p.to_path_buf());
        } else {
            return Err(format!("{a}: no such file or directory"));
        }
    }
    if paths.is_empty() {
        return Err("no scenario specs given".to_string());
    }
    Ok(paths)
}

/// Load every spec, collecting **all** failures — unreadable files,
/// parse/validation errors, duplicate names — instead of stopping at
/// the first, so one `validate` pass reports every broken spec in a
/// directory. Valid specs come back in path order alongside the
/// per-path error messages.
pub fn load_specs_collecting(paths: &[PathBuf]) -> (Vec<ScenarioSpec>, Vec<String>) {
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    let mut errors = Vec::new();
    for p in paths {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                errors.push(format!("{}: {e}", p.display()));
                continue;
            }
        };
        match ScenarioSpec::from_toml_str(&text) {
            Ok(spec) => {
                if specs.iter().any(|s| s.name == spec.name) {
                    errors.push(format!(
                        "{}: duplicate scenario name {:?}",
                        p.display(),
                        spec.name
                    ));
                } else {
                    specs.push(spec);
                }
            }
            Err(e) => errors.push(format!("{}: {e}", p.display())),
        }
    }
    (specs, errors)
}

/// Load and validate every spec, rejecting duplicate names (the
/// report and quarantine key). Fail-fast face of
/// [`load_specs_collecting`]: the first collected error, if any.
pub fn load_specs(paths: &[PathBuf]) -> Result<Vec<ScenarioSpec>, String> {
    let (specs, errors) = load_specs_collecting(paths);
    match errors.into_iter().next() {
        None => Ok(specs),
        Some(e) => Err(e),
    }
}

const FLEET_USAGE: &str = "usage: spp run|validate [options] <spec.toml|dir>...\n\
     \x20 validate             parse + validate specs, print the matrix, run nothing\n\
     \x20 run                  execute the matrix under the supervised fleet\n\
     \x20   --workers N        host worker threads (default 4)\n\
     \x20   --max-timeout S    cap every spec's timeout at S seconds\n\
     \x20 reports land under target/repro (override with SPP_REPRO_DIR):\n\
     \x20 BENCH_scenarios.json + scenarios_summary.txt, always written,\n\
     \x20 even when cells panic, hang, or diverge";

/// `spp validate` and `spp run`: validate or run a spec matrix
/// (`args[0]` is the verb). Returns the process exit code — for
/// `run`, zero iff every cell's outcome matched its spec's declared
/// `expect`.
pub fn fleet_main(args: &[String], registry: &Registry) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{FLEET_USAGE}");
        return 2;
    };

    let mut workers = 4usize;
    let mut max_timeout: Option<f64> = None;
    let mut paths_args: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => {
                    eprintln!("error: --workers needs a positive integer\n{FLEET_USAGE}");
                    return 2;
                }
            },
            "--max-timeout" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) if s > 0.0 => max_timeout = Some(s),
                _ => {
                    eprintln!("error: --max-timeout needs a positive number\n{FLEET_USAGE}");
                    return 2;
                }
            },
            other => paths_args.push(other.to_string()),
        }
    }

    let paths = match collect_spec_paths(&paths_args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{FLEET_USAGE}");
            return 2;
        }
    };

    match cmd.as_str() {
        "validate" => {
            // Collect every broken spec before exiting nonzero, so one
            // pass over a directory reports the whole damage.
            let (specs, errors) = load_specs_collecting(&paths);
            for s in &specs {
                let kind = match &s.kind {
                    ScenarioKind::Experiment(e) => format!("experiment:{}", e.id),
                    ScenarioKind::Workload(w) => format!("workload:{}", w.app.label()),
                    ScenarioKind::Builtin(b) => format!("builtin:{}", b.label()),
                };
                println!(
                    "ok  {:<28} {:<22} expect={}",
                    s.name,
                    kind,
                    s.expect.label()
                );
            }
            for e in &errors {
                eprintln!("err {e}");
            }
            if errors.is_empty() {
                println!("{} specs valid", specs.len());
                0
            } else {
                println!("{} specs valid, {} invalid", specs.len(), errors.len());
                2
            }
        }
        "run" => {
            let specs = match load_specs(&paths) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}\n{FLEET_USAGE}");
                    return 2;
                }
            };
            run_and_report(&specs, registry, workers, max_timeout, &crate::repro_dir())
        }
        other => {
            eprintln!("error: unknown command {other:?}\n{FLEET_USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("spp-scenario-cli-{tag}"));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn the_registry_and_the_experiment_specs_list_the_same_ids() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/experiments");
        let paths = collect_spec_paths(&[dir.to_string_lossy().into_owned()]).unwrap();
        let spec_ids: std::collections::BTreeSet<String> = load_specs(&paths)
            .unwrap()
            .into_iter()
            .filter_map(|s| match s.kind {
                ScenarioKind::Experiment(e) => Some(e.id),
                _ => None,
            })
            .collect();
        let registered: std::collections::BTreeSet<String> =
            registry().ids().into_iter().map(String::from).collect();
        assert_eq!(registered, spec_ids);
    }

    fn ok_run(_: &Opts) -> String {
        "fine".to_string()
    }

    fn panicking_run(_: &Opts) -> String {
        panic!("injected failure for the sweep test");
    }

    fn sweep_registry() -> Registry {
        let mut r = Registry::new();
        r.register("first", ok_run);
        r.register("broken", panicking_run);
        r.register("last", ok_run);
        r
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_panicking_experiment_does_not_stop_the_sweep() {
        let d = tempdir("repro-all");
        let code = repro_main(&strings(&["all", "--steps", "1"]), &sweep_registry(), &d);
        assert_eq!(code, 1, "a failed cell fails the sweep");

        let json = spp_core::json::parse(
            &std::fs::read_to_string(d.join("BENCH_scenarios.json")).unwrap(),
        )
        .unwrap();
        let Some(spp_core::json::Json::Arr(results)) = json.get("results") else {
            panic!("no results array: {json:?}");
        };
        let rows: Vec<(&str, &str)> = results
            .iter()
            .map(|r| (r.str_field("name").unwrap(), r.str_field("status").unwrap()))
            .collect();
        assert_eq!(
            rows,
            [
                ("repro-first", "pass"),
                ("repro-broken", "fail"),
                ("repro-last", "pass")
            ],
            "all three run, in registry order, past the failure"
        );
        assert!(std::fs::read_to_string(d.join("scenarios_summary.txt"))
            .unwrap()
            .contains("UNEXPECTED OUTCOMES"));

        // The heartbeat stream is the kill-safe record: each finished
        // cell's `end` event is on disk as soon as the cell ends, and a
        // failed cell's carries its error text.
        let beats = spp_scenario::read_heartbeat_stream(&d.join("scenarios_heartbeat.jsonl"))
            .unwrap()
            .lines;
        let ends: Vec<spp_core::json::Json> = beats
            .iter()
            .map(|l| spp_core::json::parse(l).unwrap())
            .filter(|b| b.str_field("event") == Some("end"))
            .collect();
        assert_eq!(ends.len(), 3);
        assert_eq!(ends[1].str_field("cell"), Some("repro-broken"));
        assert!(
            ends[1]
                .str_field("error")
                .is_some_and(|e| e.contains("injected failure")),
            "{:?}",
            ends[1]
        );
        assert_eq!(ends[0].get("error"), None);
        assert_eq!(ends[2].get("error"), None);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn repro_runs_one_id_alone() {
        let d = tempdir("repro-one");
        assert_eq!(repro_main(&strings(&["last"]), &sweep_registry(), &d), 0);
        let json = std::fs::read_to_string(d.join("BENCH_scenarios.json")).unwrap();
        assert!(json.contains("\"total\": 1, \"pass\": 1"), "{json}");
        assert_eq!(repro_main(&strings(&["broken"]), &sweep_registry(), &d), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn spec_collection_is_sorted_and_rejects_duplicates() {
        let d = tempdir("collect");
        std::fs::write(
            d.join("b.toml"),
            "schema = 1\n[scenario]\nname = \"b\"\nkind = \"builtin\"\n[builtin]\nop = \"noop\"\n",
        )
        .unwrap();
        std::fs::write(
            d.join("a.toml"),
            "schema = 1\n[scenario]\nname = \"a\"\nkind = \"builtin\"\n[builtin]\nop = \"noop\"\n",
        )
        .unwrap();
        let paths = collect_spec_paths(&[d.to_string_lossy().into_owned()]).unwrap();
        assert!(paths[0].ends_with("a.toml"));
        assert!(paths[1].ends_with("b.toml"));
        let specs = load_specs(&paths).unwrap();
        assert_eq!(specs[0].name, "a");

        std::fs::write(
            d.join("c.toml"),
            "schema = 1\n[scenario]\nname = \"a\"\nkind = \"builtin\"\n[builtin]\nop = \"noop\"\n",
        )
        .unwrap();
        let paths = collect_spec_paths(&[d.to_string_lossy().into_owned()]).unwrap();
        let err = load_specs(&paths).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn validate_collects_every_broken_spec_before_failing() {
        let d = tempdir("collect-all");
        std::fs::write(
            d.join("a-good.toml"),
            "schema = 1\n[scenario]\nname = \"good\"\nkind = \"builtin\"\n[builtin]\nop = \"noop\"\n",
        )
        .unwrap();
        std::fs::write(d.join("b-bad.toml"), "schema = 1\nthis is not toml [").unwrap();
        std::fs::write(
            d.join("c-bad.toml"),
            "schema = 1\n[scenario]\nname = \"x\"\nkind = \"magic\"\n",
        )
        .unwrap();
        let paths = collect_spec_paths(&[d.to_string_lossy().into_owned()]).unwrap();
        let (specs, errors) = load_specs_collecting(&paths);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name, "good");
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("b-bad.toml"), "{errors:?}");
        assert!(errors[1].contains("c-bad.toml"), "{errors:?}");
        // The fail-fast face surfaces the first of the same errors.
        assert_eq!(load_specs(&paths).unwrap_err(), errors[0]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_paths_and_empty_dirs_are_errors() {
        assert!(collect_spec_paths(&["/no/such/path".into()]).is_err());
        let d = tempdir("empty");
        assert!(collect_spec_paths(&[d.to_string_lossy().into_owned()])
            .unwrap_err()
            .contains("no .toml"));
        let _ = std::fs::remove_dir_all(&d);
    }
}
