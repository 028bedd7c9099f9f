//! End-to-end tests of the job service over its real TCP protocol:
//! admission, caching, cancellation, deadlines, liveness, preemption,
//! and crash recovery — all in-process, each test on its own state
//! directory and ephemeral port.

use spp_scenario::Registry;
use spp_serve::{parse, request, Json, Priority, Record, ServeConfig, Server};
use std::path::Path;
use std::time::{Duration, Instant};

fn tdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("spp-serve-it-{name}"));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start(dir: &Path, tune: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut cfg = ServeConfig::new(dir);
    cfg.workers = 2;
    tune(&mut cfg);
    Server::start(cfg, Registry::new()).expect("server starts")
}

fn req(server: &Server, line: &str) -> Json {
    let reply = request(&server.addr().to_string(), line).expect("request round-trips");
    parse(&reply).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"))
}

fn submit_line(spec: &str, priority: Priority, deadline_ms: u64) -> String {
    Json::obj()
        .with("cmd", "submit")
        .with("priority", priority.label())
        .with("deadline_ms", deadline_ms)
        .with("spec", spec)
        .compact()
}

fn submit(server: &Server, spec: &str, priority: Priority, deadline_ms: u64) -> Json {
    req(server, &submit_line(spec, priority, deadline_ms))
}

fn status(server: &Server, job: &str) -> Json {
    req(
        server,
        &Json::obj().with("cmd", "status").with("job", job).compact(),
    )
}

fn result_line(server: &Server, job: &str) -> Option<String> {
    let v = req(
        server,
        &Json::obj().with("cmd", "result").with("job", job).compact(),
    );
    if v.bool_field("ok") == Some(true) {
        v.str_field("result").map(str::to_string)
    } else {
        None
    }
}

/// Poll `pred` until it holds or `secs` elapse.
fn wait_for(secs: u64, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

fn wait_state(server: &Server, job: &str, want: &str, secs: u64) {
    let ok = wait_for(secs, || {
        status(server, job).str_field("state") == Some(want)
    });
    assert!(
        ok,
        "job {job} never reached {want:?}; last status: {:?}",
        status(server, job)
    );
}

fn noop_spec(name: &str) -> String {
    format!(
        "schema = 1\n[scenario]\nname = \"{name}\"\nkind = \"builtin\"\n\
         timeout_secs = 30.0\n[builtin]\nop = \"noop\"\n"
    )
}

fn hang_spec(name: &str, timeout_secs: f64) -> String {
    format!(
        "schema = 1\n[scenario]\nname = \"{name}\"\nkind = \"builtin\"\n\
         timeout_secs = {timeout_secs}\n[builtin]\nop = \"hang\"\n"
    )
}

fn kernel_spec(name: &str, steps: usize, checkpoint_every: usize) -> String {
    format!(
        "schema = 1\n[scenario]\nname = \"{name}\"\nkind = \"workload\"\n\
         steps = {steps}\ncheckpoint_every = {checkpoint_every}\ntimeout_secs = 300.0\n\
         [workload]\napp = \"kernel-stream\"\nelems = 4096\n\
         [topology]\nhypernodes = 2\n[placement]\nthreads = 8\npolicy = \"uniform\"\n"
    )
}

/// A kernel-stream job sized to run for a couple of host seconds with
/// frequent checkpoints — long enough to kill or preempt mid-flight.
fn long_kernel_spec(name: &str) -> String {
    kernel_spec(name, 1200, 10)
}

#[test]
fn submit_status_result_roundtrip() {
    let dir = tdir("roundtrip");
    let server = start(&dir, |_| {});

    let r = submit(&server, &noop_spec("rt-noop"), Priority::Normal, 0);
    assert_eq!(r.bool_field("ok"), Some(true), "{r:?}");
    assert_eq!(r.bool_field("cached"), Some(false));
    let noop_job = r.str_field("job").unwrap().to_string();
    let digest = r.str_field("digest").unwrap().to_string();
    assert_eq!(digest.len(), 16, "digest is 16 hex digits: {digest}");

    let r = submit(
        &server,
        &kernel_spec("rt-kernel", 4, 0),
        Priority::Normal,
        0,
    );
    let kernel_job = r.str_field("job").unwrap().to_string();
    assert_ne!(noop_job, kernel_job);

    wait_state(&server, &noop_job, "done", 30);
    wait_state(&server, &kernel_job, "done", 60);

    let noop_result = result_line(&server, &noop_job).expect("noop result");
    assert_eq!(
        noop_result,
        "{\"digest\": \"D\", \"status\": \"pass\"}".replace('D', &digest)
    );
    let kernel_result = result_line(&server, &kernel_job).expect("kernel result");
    let parsed = parse(&kernel_result).expect("result is JSON");
    assert_eq!(parsed.str_field("status"), Some("pass"));
    assert!(parsed.int_field("cycles").unwrap() > 0);
    assert!(parsed.int_field("reads").unwrap() > 0);

    let s = status(&server, &kernel_job);
    assert_eq!(s.int_field("attempts"), Some(1));
    assert_eq!(s.bool_field("resumed"), Some(false));

    let v = req(&server, "{\"cmd\": \"status\", \"job\": \"j999\"}");
    assert_eq!(v.str_field("error"), Some("no-such-job"));

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_submission_hits_the_cache_byte_identically() {
    let dir = tdir("cache");
    let server = start(&dir, |_| {});
    let spec = kernel_spec("cache-kernel", 6, 0);

    let first = submit(&server, &spec, Priority::Normal, 0);
    let job = first.str_field("job").unwrap().to_string();
    wait_state(&server, &job, "done", 60);
    let bytes1 = result_line(&server, &job).unwrap();

    // Same simulation, different formatting/field order: the
    // canonical digest must coalesce them.
    let reordered = "schema = 1\n\
         [placement]\nthreads = 8\npolicy = \"uniform\"\n[topology]\nhypernodes = 2\n\
         [workload]\nelems = 4096\napp = \"kernel-stream\"\n\
         [scenario]\nkind = \"workload\"\nname = \"cache-kernel\"\nsteps = 6\n\
         timeout_secs = 300.0\ncheckpoint_every = 0\n";
    let dup = submit(&server, reordered, Priority::Normal, 0);
    assert_eq!(dup.bool_field("cached"), Some(true), "{dup:?}");
    let dup_job = dup.str_field("job").unwrap().to_string();
    let bytes2 = result_line(&server, &dup_job).unwrap();
    assert_eq!(bytes1, bytes2, "cache hits must be byte-identical");

    let health = req(&server, "{\"cmd\": \"health\"}");
    assert!(health.int_field("cache_hits").unwrap() >= 1, "{health:?}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_returns_typed_rejections_never_hangs() {
    let dir = tdir("overload");
    let server = start(&dir, |cfg| {
        cfg.workers = 1;
        cfg.lane_cap = 1;
        cfg.total_cap = 2;
    });

    // Occupy the only worker with a hang, then fill the queue.
    let r = submit(&server, &hang_spec("ov-h1", 60.0), Priority::Normal, 0);
    let h1 = r.str_field("job").unwrap().to_string();
    assert!(wait_for(30, || {
        status(&server, &h1).str_field("state") == Some("running")
    }));

    let ok2 = submit(&server, &hang_spec("ov-h2", 60.0), Priority::Normal, 0);
    assert_eq!(ok2.bool_field("ok"), Some(true));

    let full = submit(&server, &hang_spec("ov-h3", 60.0), Priority::Normal, 0);
    assert_eq!(full.bool_field("ok"), Some(false));
    assert_eq!(full.str_field("error"), Some("queue-full"), "{full:?}");

    // The high lane still has room — until the total cap bites.
    let ok4 = submit(&server, &hang_spec("ov-h4", 60.0), Priority::High, 0);
    assert_eq!(ok4.bool_field("ok"), Some(true), "{ok4:?}");
    let over = submit(&server, &hang_spec("ov-h5", 60.0), Priority::High, 0);
    assert_eq!(over.str_field("error"), Some("overloaded"), "{over:?}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_stops_a_running_job() {
    let dir = tdir("cancel");
    let server = start(&dir, |_| {});
    let r = submit(
        &server,
        &hang_spec("cancel-hang", 120.0),
        Priority::Normal,
        0,
    );
    let job = r.str_field("job").unwrap().to_string();
    assert!(wait_for(30, || {
        status(&server, &job).str_field("state") == Some("running")
    }));

    let c = req(
        &server,
        &Json::obj()
            .with("cmd", "cancel")
            .with("job", &job)
            .compact(),
    );
    assert_eq!(c.bool_field("ok"), Some(true));
    wait_state(&server, &job, "cancelled", 30);
    assert!(
        result_line(&server, &job).is_none(),
        "no result for cancelled"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expired_deadlines_shed_queued_work() {
    let dir = tdir("deadline");
    let server = start(&dir, |cfg| cfg.workers = 1);
    // A multi-second job holds the worker; the noop behind it has a
    // 50ms deadline it cannot make.
    let long = submit(&server, &long_kernel_spec("dl-long"), Priority::Normal, 0);
    let long_job = long.str_field("job").unwrap().to_string();
    let shed = submit(&server, &noop_spec("dl-noop"), Priority::Normal, 50);
    let shed_job = shed.str_field("job").unwrap().to_string();

    wait_state(&server, &shed_job, "deadline-expired", 120);
    let s = status(&server, &shed_job);
    assert!(s.str_field("error").unwrap().contains("deadline"), "{s:?}");
    wait_state(&server, &long_job, "done", 120);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn liveness_separates_stalled_from_progressing() {
    let dir = tdir("stall");
    let server = start(&dir, |cfg| {
        cfg.workers = 2;
        cfg.stall_after = Duration::from_millis(300);
    });

    let hang = submit(&server, &hang_spec("lv-hang", 120.0), Priority::Normal, 0);
    let hang_job = hang.str_field("job").unwrap().to_string();
    let sim = submit(&server, &long_kernel_spec("lv-kernel"), Priority::Normal, 0);
    let sim_job = sim.str_field("job").unwrap().to_string();

    // The hang publishes no progress: stalled after stall_after.
    assert!(wait_for(30, || {
        let s = status(&server, &hang_job);
        s.str_field("state") == Some("running") && s.bool_field("stalled") == Some(true)
    }));
    // The simulation's progress clock keeps moving: never stalled,
    // even though it runs much longer than stall_after.
    assert!(wait_for(30, || {
        let s = status(&server, &sim_job);
        s.str_field("state") == Some("running") && s.int_field("progress_cycles").unwrap() > 0
    }));
    let s = status(&server, &sim_job);
    if s.str_field("state") == Some("running") {
        assert_eq!(s.bool_field("stalled"), Some(false), "{s:?}");
    }

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_replays_the_journal_and_serves_cached_results() {
    let dir = tdir("restart");
    let spec = kernel_spec("restart-kernel", 6, 0);
    let (job, noop_job, bytes1, noop_bytes1);
    {
        let server = start(&dir, |_| {});
        let r = submit(&server, &spec, Priority::Normal, 0);
        job = r.str_field("job").unwrap().to_string();
        let n = submit(&server, &noop_spec("restart-noop"), Priority::Normal, 0);
        noop_job = n.str_field("job").unwrap().to_string();
        wait_state(&server, &job, "done", 60);
        wait_state(&server, &noop_job, "done", 30);
        bytes1 = result_line(&server, &job).unwrap();
        noop_bytes1 = result_line(&server, &noop_job).unwrap();
        server.stop();
    }

    // Same state dir, new process-equivalent: everything must be
    // there, byte-for-byte, without re-running anything.
    let server = start(&dir, |_| {});
    assert_eq!(
        status(&server, &job).str_field("state"),
        Some("done"),
        "terminal state survives restart"
    );
    assert_eq!(result_line(&server, &job).unwrap(), bytes1);
    assert_eq!(result_line(&server, &noop_job).unwrap(), noop_bytes1);

    // Resubmission after restart is a cache hit.
    let dup = submit(&server, &spec, Priority::Normal, 0);
    assert_eq!(dup.bool_field("cached"), Some(true), "{dup:?}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_killed_job_resumes_from_its_checkpoint_bit_identically() {
    // Reference: the same spec run to completion, undisturbed.
    let base_dir = tdir("killref");
    let spec = long_kernel_spec("kill-kernel");
    let baseline = {
        let server = start(&base_dir, |_| {});
        let r = submit(&server, &spec, Priority::Normal, 0);
        let job = r.str_field("job").unwrap().to_string();
        wait_state(&server, &job, "done", 120);
        let bytes = result_line(&server, &job).unwrap();
        server.stop();
        let _ = std::fs::remove_dir_all(&base_dir);
        bytes
    };

    // Victim: killed crash-style mid-run, after at least one
    // checkpoint has landed on disk.
    let dir = tdir("killrun");
    let job = {
        let server = start(&dir, |cfg| cfg.workers = 1);
        let r = submit(&server, &spec, Priority::Normal, 0);
        let job = r.str_field("job").unwrap().to_string();
        let side = dir.join("checkpoints").join(format!("{job}.step"));
        assert!(
            wait_for(60, || side.is_file()),
            "no checkpoint ever written"
        );
        server.stop(); // cancels the attempt, journals no end — a kill
        job
    };

    // Restart: the journal shows start-without-end; the job
    // re-enqueues and resumes from its snapshot.
    let server = start(&dir, |cfg| cfg.workers = 1);
    let health = req(&server, "{\"cmd\": \"health\"}");
    assert!(
        health.int_field("interrupted_resumed").unwrap() >= 1,
        "{health:?}"
    );
    wait_state(&server, &job, "done", 120);
    let s = status(&server, &job);
    assert_eq!(s.bool_field("resumed"), Some(true), "{s:?}");
    assert!(s.int_field("attempts").unwrap() >= 2, "{s:?}");
    assert_eq!(
        result_line(&server, &job).unwrap(),
        baseline,
        "a killed-and-resumed run must be byte-identical to an uninterrupted one"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn high_priority_preempts_and_the_victim_resumes_byte_identically() {
    let base_dir = tdir("preemptref");
    let spec = long_kernel_spec("preempt-kernel");
    let baseline = {
        let server = start(&base_dir, |_| {});
        let r = submit(&server, &spec, Priority::Normal, 0);
        let job = r.str_field("job").unwrap().to_string();
        wait_state(&server, &job, "done", 120);
        let bytes = result_line(&server, &job).unwrap();
        server.stop();
        let _ = std::fs::remove_dir_all(&base_dir);
        bytes
    };

    let dir = tdir("preempt");
    let server = start(&dir, |cfg| cfg.workers = 1);
    let low = submit(&server, &spec, Priority::Low, 0);
    let low_job = low.str_field("job").unwrap().to_string();
    assert!(wait_for(30, || {
        let s = status(&server, &low_job);
        s.str_field("state") == Some("running") && s.int_field("progress_cycles").unwrap() > 0
    }));

    // All workers busy + high-priority arrival = the low job is
    // checkpointed out at its next cancellation poll.
    let high = submit(&server, &noop_spec("preempt-noop"), Priority::High, 0);
    let high_job = high.str_field("job").unwrap().to_string();
    wait_state(&server, &high_job, "done", 60);

    wait_state(&server, &low_job, "done", 180);
    let s = status(&server, &low_job);
    assert!(s.int_field("preempts").unwrap() >= 1, "{s:?}");
    assert_eq!(
        result_line(&server, &low_job).unwrap(),
        baseline,
        "a preempted-and-resumed run must be byte-identical to an uninterrupted one"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_finishes_queued_work_and_refuses_new_submissions() {
    let dir = tdir("drain");
    let server = start(&dir, |_| {});
    let r = submit(
        &server,
        &kernel_spec("drain-kernel", 6, 0),
        Priority::Normal,
        0,
    );
    let job = r.str_field("job").unwrap().to_string();

    let d = req(&server, "{\"cmd\": \"drain\"}");
    assert_eq!(d.bool_field("drained"), Some(true), "{d:?}");
    assert_eq!(status(&server, &job).str_field("state"), Some("done"));

    let refused = submit(&server, &noop_spec("drain-late"), Priority::Normal, 0);
    assert_eq!(refused.str_field("error"), Some("draining"), "{refused:?}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reply_bytes_are_pinned() {
    let dir = tdir("reply-pins");
    let server = start(&dir, |_| {});
    let raw = |line: &str| request(&server.addr().to_string(), line).expect("request round-trips");

    let sub = raw(&submit_line(&noop_spec("pin-noop"), Priority::Low, 5_000));
    let digest = parse(&sub)
        .unwrap()
        .str_field("digest")
        .unwrap()
        .to_string();
    let pin = |want: &str| want.replace("DIGEST", &digest);
    assert_eq!(
        sub,
        pin("{\"ok\": true, \"job\": \"j1\", \"digest\": \"DIGEST\", \"cached\": false}")
    );
    wait_state(&server, "j1", "done", 30);
    assert_eq!(
        raw("{\"cmd\": \"status\", \"job\": \"j1\"}"),
        pin(
            "{\"ok\": true, \"job\": \"j1\", \"digest\": \"DIGEST\", \"state\": \"done\", \
             \"priority\": \"low\", \"attempts\": 1, \"preempts\": 0, \"resumed\": false, \
             \"progress_cycles\": 0, \"stalled\": false}"
        )
    );
    assert_eq!(
        raw("{\"cmd\": \"result\", \"job\": \"j1\"}"),
        pin("{\"ok\": true, \"job\": \"j1\", \
             \"result\": \"{\\\"digest\\\": \\\"DIGEST\\\", \\\"status\\\": \\\"pass\\\"}\"}")
    );
    assert_eq!(
        raw(&submit_line(&noop_spec("pin-noop"), Priority::Normal, 0)),
        pin("{\"ok\": true, \"job\": \"j1\", \"digest\": \"DIGEST\", \"cached\": true}")
    );
    assert_eq!(
        raw("{\"cmd\": \"cancel\", \"job\": \"j1\"}"),
        "{\"ok\": true, \"job\": \"j1\", \"state\": \"done\"}"
    );
    assert_eq!(
        raw("{\"cmd\": \"status\", \"job\": \"j9\"}"),
        "{\"ok\": false, \"error\": \"no-such-job\", \"detail\": \"unknown job \\\"j9\\\"\"}"
    );
    assert_eq!(
        raw("{\"cmd\": \"submit\"}"),
        "{\"ok\": false, \"error\": \"bad-request\", \"detail\": \"submit without a spec\"}"
    );
    assert_eq!(
        raw("{\"cmd\": \"fly\"}"),
        "{\"ok\": false, \"error\": \"bad-request\", \"detail\": \"unknown cmd Some(\\\"fly\\\")\"}"
    );
    assert_eq!(
        raw("{\"cmd\": [1,"),
        "{\"ok\": false, \"error\": \"bad-request\", \
         \"detail\": \"json error at byte 11: expected a JSON value\"}"
    );
    assert_eq!(
        raw("{\"cmd\": \"drain\"}"),
        "{\"ok\": true, \"drained\": true, \"jobs\": {\"cancelled\": 0, \
         \"deadline-expired\": 0, \"done\": 1, \"failed\": 0, \"pending\": 0, \
         \"quarantined\": 0, \"running\": 0}}"
    );
    assert_eq!(
        raw("{\"cmd\": \"health\"}"),
        "{\"ok\": true, \"version\": \"0.1.0\", \"draining\": true, \"workers\": 2, \
         \"busy\": 0, \"backlog\": {\"high\": 0, \"normal\": 0, \"low\": 0}, \
         \"jobs\": {\"cancelled\": 0, \"deadline-expired\": 0, \"done\": 1, \"failed\": 0, \
         \"pending\": 0, \"quarantined\": 0, \"running\": 0}, \"cache_hits\": 1, \
         \"journal\": {\"since_compact\": 0, \"truncated\": 0, \"malformed\": 0}, \
         \"interrupted_resumed\": 0, \"running_jobs\": []}"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tests/fixtures/journal.jsonl` and `tests/fixtures/state.json` were
/// written by a `spp serve` session (five jobs: done, done with a
/// kernel result, failed, golden mismatch, cancelled while running).
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn journal_records_on_disk_rewrite_byte_identically() {
    let journal = fixture("journal.jsonl");
    assert!(journal.lines().count() >= 10);
    for line in journal.lines() {
        let rec = Record::from_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(rec.to_line(), line);
    }
}

#[test]
fn a_snapshot_on_disk_replays_and_is_rewritten_byte_identically() {
    let dir = tdir("fixture-replay");
    std::fs::create_dir_all(&dir).unwrap();
    let state = fixture("state.json");
    std::fs::write(dir.join("state.json"), &state).unwrap();
    let server = start(&dir, |_| {});
    assert_eq!(status(&server, "j3").str_field("state"), Some("failed"));
    assert_eq!(
        status(&server, "j5").str_field("error"),
        Some("cancelled by client")
    );
    let golden = parse(&result_line(&server, "j4").unwrap()).unwrap();
    assert_eq!(golden.str_field("status"), Some("golden-mismatch"));
    let d = req(&server, "{\"cmd\": \"drain\"}");
    assert_eq!(d.bool_field("drained"), Some(true), "{d:?}");
    assert_eq!(
        std::fs::read_to_string(dir.join("state.json")).unwrap(),
        state
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
