//! The job service's verbs of the `spp` command line: `spp serve`
//! runs the service; the other verbs are thin protocol clients.

use crate::client::{endpoint_of, request};
use crate::json::{esc, parse};
use crate::server::{ServeConfig, Server};
use spp_scenario::Registry;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "\
usage: spp <service command> [options]

service commands:
  serve     --state-dir DIR [--addr H:P] [--workers N] [--lane-cap N]
            [--total-cap N] [--stall-after-secs S] [--compact-every N]
            run the service (endpoint lands in <state-dir>/endpoint)
  submit    (--state-dir DIR | --addr H:P) [--priority high|normal|low]
            [--deadline-ms N] SPEC.toml...
            submit scenario spec files; prints one reply line per spec
  status    (--state-dir DIR | --addr H:P) JOB      print job status
  result    (--state-dir DIR | --addr H:P) JOB      print the raw result line
  cancel    (--state-dir DIR | --addr H:P) JOB      cancel a job
  health    (--state-dir DIR | --addr H:P)          print service health
  drain     (--state-dir DIR | --addr H:P)          finish queued work, take no more
  shutdown  (--state-dir DIR | --addr H:P)          stop the server
";

struct Parsed {
    state_dir: Option<PathBuf>,
    addr: Option<String>,
    workers: usize,
    lane_cap: usize,
    total_cap: usize,
    stall_after_secs: f64,
    compact_every: usize,
    priority: String,
    deadline_ms: u64,
    rest: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut p = Parsed {
        state_dir: None,
        addr: None,
        workers: 2,
        lane_cap: 16,
        total_cap: 32,
        stall_after_secs: 10.0,
        compact_every: 64,
        priority: "normal".to_string(),
        deadline_ms: 0,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--state-dir" => p.state_dir = Some(PathBuf::from(grab("--state-dir")?)),
            "--addr" => p.addr = Some(grab("--addr")?),
            "--workers" => {
                p.workers = grab("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--lane-cap" => {
                p.lane_cap = grab("--lane-cap")?
                    .parse()
                    .map_err(|e| format!("--lane-cap: {e}"))?;
            }
            "--total-cap" => {
                p.total_cap = grab("--total-cap")?
                    .parse()
                    .map_err(|e| format!("--total-cap: {e}"))?;
            }
            "--stall-after-secs" => {
                p.stall_after_secs = grab("--stall-after-secs")?
                    .parse()
                    .map_err(|e| format!("--stall-after-secs: {e}"))?;
            }
            "--compact-every" => {
                p.compact_every = grab("--compact-every")?
                    .parse()
                    .map_err(|e| format!("--compact-every: {e}"))?;
            }
            "--priority" => p.priority = grab("--priority")?,
            "--deadline-ms" => {
                p.deadline_ms = grab("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => p.rest.push(other.to_string()),
        }
    }
    Ok(p)
}

fn resolve_addr(p: &Parsed) -> Result<String, String> {
    if let Some(a) = &p.addr {
        return Ok(a.clone());
    }
    let Some(dir) = &p.state_dir else {
        return Err("need --addr or --state-dir to reach the server".to_string());
    };
    endpoint_of(dir).map_err(|e| e.to_string())
}

/// True when a reply line says `"ok": true`.
fn reply_ok(reply: &str) -> bool {
    parse(reply).ok().and_then(|v| v.bool_field("ok")) == Some(true)
}

/// Entry point for the service verbs of the `spp` binary (`args[0]`
/// is the verb). `registry` supplies the experiment implementations
/// `kind = "experiment"` specs dispatch to. Returns the process exit
/// code.
pub fn serve_main(args: &[String], registry: Registry) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return 2;
    };
    let p = match parse_args(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("spp-serve: {e}");
            eprint!("{USAGE}");
            return 2;
        }
    };
    match cmd.as_str() {
        "serve" => {
            let Some(dir) = &p.state_dir else {
                eprintln!("spp-serve: serve needs --state-dir");
                return 2;
            };
            let mut cfg = ServeConfig::new(dir);
            if let Some(a) = &p.addr {
                cfg.addr = a.clone();
            }
            cfg.workers = p.workers.max(1);
            cfg.lane_cap = p.lane_cap.max(1);
            cfg.total_cap = p.total_cap.max(1);
            cfg.stall_after = Duration::from_secs_f64(p.stall_after_secs.max(0.01));
            cfg.compact_every = p.compact_every.max(1);
            match Server::start(cfg, registry) {
                Ok(server) => {
                    println!("spp-serve listening on {}", server.addr());
                    server.wait();
                    0
                }
                Err(e) => {
                    eprintln!("spp-serve: {e}");
                    1
                }
            }
        }
        "submit" => {
            let addr = match resolve_addr(&p) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("spp-serve: {e}");
                    return 2;
                }
            };
            if p.rest.is_empty() {
                eprintln!("spp-serve: submit needs at least one spec file");
                return 2;
            }
            let mut failed = false;
            for path in &p.rest {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("spp-serve: {path}: {e}");
                        failed = true;
                        continue;
                    }
                };
                let req = format!(
                    "{{\"cmd\": \"submit\", \"priority\": \"{}\", \"deadline_ms\": {}, \
                     \"spec\": \"{}\"}}",
                    esc(&p.priority),
                    p.deadline_ms,
                    esc(&text)
                );
                match request(&addr, &req) {
                    Ok(reply) => {
                        println!("{reply}");
                        failed |= !reply_ok(&reply);
                    }
                    Err(e) => {
                        eprintln!("spp-serve: {path}: {e}");
                        failed = true;
                    }
                }
            }
            i32::from(failed)
        }
        "status" | "cancel" => {
            let addr = match resolve_addr(&p) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("spp-serve: {e}");
                    return 2;
                }
            };
            let Some(job) = p.rest.first() else {
                eprintln!("spp-serve: {cmd} needs a job id");
                return 2;
            };
            let req = format!("{{\"cmd\": \"{cmd}\", \"job\": \"{}\"}}", esc(job));
            match request(&addr, &req) {
                Ok(reply) => {
                    println!("{reply}");
                    i32::from(!reply_ok(&reply))
                }
                Err(e) => {
                    eprintln!("spp-serve: {e}");
                    1
                }
            }
        }
        "result" => {
            let addr = match resolve_addr(&p) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("spp-serve: {e}");
                    return 2;
                }
            };
            let Some(job) = p.rest.first() else {
                eprintln!("spp-serve: result needs a job id");
                return 2;
            };
            let req = format!("{{\"cmd\": \"result\", \"job\": \"{}\"}}", esc(job));
            match request(&addr, &req) {
                Ok(reply) => match parse(&reply) {
                    Ok(v) if v.bool_field("ok") == Some(true) => {
                        // Print the raw result line alone: it contains
                        // only deterministic observables, so two runs
                        // of the same spec are byte-comparable.
                        println!("{}", v.str_field("result").unwrap_or_default());
                        0
                    }
                    _ => {
                        eprintln!("{reply}");
                        1
                    }
                },
                Err(e) => {
                    eprintln!("spp-serve: {e}");
                    1
                }
            }
        }
        "health" | "drain" | "shutdown" => {
            let addr = match resolve_addr(&p) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("spp-serve: {e}");
                    return 2;
                }
            };
            let req = format!("{{\"cmd\": \"{cmd}\"}}");
            match request(&addr, &req) {
                Ok(reply) => {
                    println!("{reply}");
                    i32::from(!reply_ok(&reply))
                }
                Err(e) => {
                    eprintln!("spp-serve: {e}");
                    1
                }
            }
        }
        other => {
            eprintln!("spp-serve: unknown command {other:?}");
            eprint!("{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_unknowns_are_rejected() {
        let args: Vec<String> = ["--workers", "4", "--priority", "high", "spec.toml"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let p = parse_args(&args).unwrap();
        assert_eq!(p.workers, 4);
        assert_eq!(p.priority, "high");
        assert_eq!(p.rest, ["spec.toml"]);
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--workers".to_string()]).is_err());
    }

    #[test]
    fn reply_ok_reads_the_ok_field() {
        assert!(reply_ok("{\"ok\": true, \"job\": \"j1\"}"));
        assert!(!reply_ok("{\"ok\": false, \"error\": \"queue-full\"}"));
        assert!(!reply_ok("not json"));
    }
}
