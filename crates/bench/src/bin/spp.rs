//! `spp`: the one command line of the SPP-1000 reproduction.
//!
//! * `spp repro <id>|all [--full] [--steps N]`
//!   regenerates one paper artifact, or every registered one in
//!   order, as a supervised fleet (crash-contained, PASS/FAIL
//!   classified, exit code 0 iff every cell passed);
//! * `spp run` and `spp validate` execute or check scenario spec
//!   matrices;
//! * `spp serve`, `submit`, `status`, `result`, `cancel`, `health`,
//!   `drain` and `shutdown` run and drive the crash-recoverable job
//!   service.
//!
//! Reports land under `target/repro/` (override with
//! `SPP_REPRO_DIR`).

use spp_bench::scenario_cli::{fleet_main, registry, repro_main};

const USAGE: &str = "usage: spp <command> [options]\n\
     \x20 repro <id>|all [--full] [--steps N]\n\
     \x20                    run registered experiments as a supervised fleet\n\
     \x20 run [--workers N] [--max-timeout S] <spec.toml|dir>...\n\
     \x20                    execute a scenario spec matrix\n\
     \x20 validate <spec.toml|dir>...\n\
     \x20                    parse and validate specs, run nothing\n\
     \x20 serve|submit|status|result|cancel|health|drain|shutdown ...\n\
     \x20                    the job service (a bad option prints its usage)\n\
     reports land under target/repro (override with SPP_REPRO_DIR)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("repro") => repro_main(&args[1..], &registry(), &spp_bench::repro_dir()),
        Some("run" | "validate") => fleet_main(&args, &registry()),
        Some(
            "serve" | "submit" | "status" | "result" | "cancel" | "health" | "drain" | "shutdown",
        ) => spp_serve::serve_main(&args, registry()),
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
