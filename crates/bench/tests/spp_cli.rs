//! The `spp` command line rejects bad input with exit code 2 and a
//! usage message, before running anything.

use std::process::Command;

/// Run `spp` with `args`; returns (exit code, stderr).
fn spp(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spp"))
        .args(args)
        .env("SPP_REPRO_DIR", std::env::temp_dir().join("spp-cli-test"))
        .output()
        .expect("spp runs");
    (
        out.status.code().expect("exited normally"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_arguments_print_the_usage() {
    let (code, err) = spp(&[]);
    assert_eq!(code, 2);
    assert!(err.contains("usage: spp <command>"), "{err}");
}

#[test]
fn an_unknown_verb_prints_the_usage() {
    let (code, err) = spp(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown command \"frobnicate\""), "{err}");
    assert!(err.contains("usage: spp <command>"), "{err}");
}

#[test]
fn an_unknown_or_missing_experiment_id_lists_the_registered_ones() {
    for (args, why) in [
        (&["repro", "no-such-id"][..], "no experiment \"no-such-id\""),
        (&["repro"], "repro needs an experiment id"),
    ] {
        let (code, err) = spp(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(err.contains(why), "{err}");
        assert!(err.contains("usage: spp repro"), "{err}");
        for id in spp_bench::scenario_cli::registry().ids() {
            assert!(err.contains(id), "{id} missing from: {err}");
        }
    }
}

#[test]
fn bad_experiment_options_print_the_usage() {
    for (args, why) in [
        (&["--steps", "0"][..], "at least 1"),
        (&["--bogus"], "unknown argument --bogus"),
        (&["--steps"], "needs a value"),
        (&["--steps", "abc"], "positive integer"),
    ] {
        let mut argv = vec!["repro", "latency"];
        argv.extend_from_slice(args);
        let (code, err) = spp(&argv);
        assert_eq!(code, 2, "{argv:?}");
        assert!(err.contains(why), "{argv:?}: {err}");
        assert!(err.contains("usage: spp repro"), "{argv:?}: {err}");
    }
}
