//! End-to-end tests for the serve loop: two-tenant fairness and
//! interleaving, the snapshot/stop/resume cycle (bit-exact on a
//! slicing-invariant tier), and every fail-closed exit-2 path.

use pp_bench::schema::{parse, Value};
use pp_serve::server::{run, Config};
use pp_serve::snapshot::SnapshotFile;
use pp_serve::wire::validate_event;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Routes every envelope the tests produce into one scratch directory
/// (process-wide: `PP_BENCH_DIR` is read by `write_json` at done-time),
/// and pins a 4-thread pool so multi-tenant rounds really fan out to
/// workers even on a single-core runner. Every test calls this (via
/// `drive`) before the server touches the pool, so the `OnceLock`-backed
/// `pool::parallelism()` always observes the override.
fn bench_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("pp_serve_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("PP_BENCH_DIR", &dir);
        std::env::set_var("PP_POOL_THREADS", "4");
        dir
    })
}

fn scratch_file(name: &str) -> PathBuf {
    bench_dir().join(name)
}

/// Runs the server over the given request lines and returns
/// `(exit_code, validated_event_docs)`.
fn drive(requests: &str, quantum: u64) -> (i32, Vec<Value>) {
    bench_dir();
    let mut out = Vec::new();
    let code = run(
        Cursor::new(requests.to_string()),
        &mut out,
        Config { quantum },
    );
    let text = String::from_utf8(out).unwrap();
    let mut events = Vec::new();
    for line in text.lines() {
        let doc = parse(line).unwrap_or_else(|e| panic!("unparseable event `{line}`: {e}"));
        validate_event(&doc).unwrap_or_else(|e| panic!("invalid event `{line}`: {e}"));
        events.push(doc);
    }
    (code, events)
}

fn kind(ev: &Value) -> &str {
    ev.get("event").and_then(Value::as_str).unwrap()
}

fn str_of<'a>(ev: &'a Value, key: &str) -> &'a str {
    ev.get(key).and_then(Value::as_str).unwrap()
}

fn u64_of(ev: &Value, key: &str) -> u64 {
    ev.get(key).and_then(Value::as_f64).unwrap() as u64
}

fn counts_of(ev: &Value) -> Vec<u64> {
    ev.get("class_counts")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.as_f64().unwrap() as u64)
        .collect()
}

fn submit(tenant: &str, job: &str, spec: &str) -> String {
    format!(
        "{{\"schema_version\":1,\"op\":\"submit\",\"tenant\":\"{tenant}\",\
         \"job\":\"{job}\",\"spec\":{spec}}}\n"
    )
}

fn torus_spec(engine: &str, steps: u64, observe: u64, shock: &str) -> String {
    format!(
        "{{\"protocol\":\"diversification\",\"weights\":[1.0,1.0,2.0],\
         \"topology\":\"torus\",\"rows\":8,\"cols\":8,\"n\":64,\
         \"engine\":\"{engine}\",\"seed\":11,\"steps\":{steps},\
         \"observe_every\":{observe},\"init\":\"balanced\",\"shock\":{shock}}}"
    )
}

fn complete_spec(engine: &str, n: usize, steps: u64, observe: u64) -> String {
    format!(
        "{{\"protocol\":\"diversification\",\"weights\":[1.0,2.0],\
         \"topology\":\"complete\",\"n\":{n},\"engine\":\"{engine}\",\"seed\":22,\
         \"steps\":{steps},\"observe_every\":{observe},\"init\":\"single_minority\",\
         \"shock\":null}}"
    )
}

#[test]
fn two_tenants_interleave_and_the_slower_gets_at_least_40_percent() {
    // Steps are large enough that neither job can finish inside the
    // reader thread's submission-delivery latency (see the parallel
    // rounds test below for the same caveat).
    let requests = format!(
        "{}{}",
        submit(
            "alpha",
            "grid",
            &torus_spec("turbo", 2_000_000, 32_768, "null")
        ),
        submit(
            "beta",
            "dense-run",
            &complete_spec("dense", 200, 2_000_000, 32_768)
        ),
    );
    let (code, events) = drive(&requests, 1024);
    assert_eq!(code, 0, "clean EOF drain");

    // Both tenants must show progress before either finishes.
    let first_done = events.iter().position(|e| kind(e) == "done").unwrap();
    let progressed: Vec<&str> = events[..first_done]
        .iter()
        .filter(|e| kind(e) == "progress")
        .map(|e| str_of(e, "tenant"))
        .collect();
    assert!(
        progressed.contains(&"alpha") && progressed.contains(&"beta"),
        "expected interleaved progress from both tenants, saw {progressed:?}"
    );

    // Fairness gate at the moment of first completion: the slower tenant
    // holds at least 40% of all granted steps.
    let done = &events[first_done];
    let (mine, total) = (u64_of(done, "tenant_steps"), u64_of(done, "total_steps"));
    let slower = mine.min(total - mine);
    assert!(
        slower * 100 >= total * 40,
        "slower tenant got {slower}/{total} steps (< 40%)"
    );

    // Population conservation in every observation (no shocks here).
    for ev in &events {
        match kind(ev) {
            "progress" | "done" => {
                let n = if str_of(ev, "tenant") == "alpha" {
                    64
                } else {
                    200
                };
                assert_eq!(counts_of(ev).iter().sum::<u64>(), n);
            }
            _ => {}
        }
    }

    // Both jobs finish and write validating envelopes.
    let dones: Vec<&Value> = events.iter().filter(|e| kind(e) == "done").collect();
    assert_eq!(dones.len(), 2);
    for done in dones {
        let bench = str_of(done, "bench");
        let json = std::fs::read_to_string(bench).unwrap();
        pp_bench::output::validate_json(&json).unwrap();
    }
    assert_eq!(kind(events.last().unwrap()), "shutdown");
}

#[test]
fn parallel_rounds_keep_fairness_and_stay_deterministic() {
    // The data plane executes each round's slices on pool workers
    // (4 threads here — see `bench_dir`). Three tenants on three
    // different slicing-invariant tiers check the contract from three
    // sides: the event stream is a pure function of the request stream
    // (two identical runs agree event-for-event), three-way fairness
    // holds at first completion, and co-tenancy leaves each engine's
    // trajectory untouched (the contended final counts equal a solo
    // run's, bit for bit).
    // Step counts are deliberately large: submissions arrive through the
    // reader thread *while rounds are already running*, so a job short
    // enough to finish in under a scheduler hiccup could complete before
    // its co-tenants even arrive. At 2M steps (tens of ms per job) the
    // arrival race is noise and the three-way contention window is wide.
    let specs = [
        (
            "alpha",
            "grid",
            torus_spec("turbo", 2_000_000, 32_768, "null"),
        ),
        (
            "beta",
            "shards",
            complete_spec("sharded", 128, 2_000_000, 32_768),
        ),
        (
            "gamma",
            "plain",
            complete_spec("packed", 96, 2_000_000, 32_768),
        ),
    ];
    let requests: String = specs
        .iter()
        .map(|(t, j, s)| submit(t, j, s))
        .collect::<Vec<_>>()
        .join("");
    // Per-tenant event history. The *interleaving across tenants* can
    // legitimately shift with submission-arrival timing (the reader
    // thread races the first rounds), but each tenant's own sequence of
    // observation clocks and class counts is a pure function of its spec
    // — worker scheduling inside a round must never show through.
    let essentials = |events: &[Value], tenant: &str| -> Vec<(String, u64, Vec<u64>)> {
        events
            .iter()
            .filter(|e| matches!(kind(e), "progress" | "done") && str_of(e, "tenant") == tenant)
            .map(|e| (kind(e).to_string(), u64_of(e, "clock"), counts_of(e)))
            .collect()
    };

    let (code, events) = drive(&requests, 1024);
    assert_eq!(code, 0);
    let (code, replay) = drive(&requests, 1024);
    assert_eq!(code, 0);
    for (tenant, _, _) in &specs {
        assert_eq!(
            essentials(&events, tenant),
            essentials(&replay, tenant),
            "tenant {tenant}: the event stream must not depend on worker scheduling"
        );
    }

    // All three tenants progress before the first completion, and the
    // first finisher holds no more than its fair share lets it: every
    // tenant stays at or above a quarter of the granted steps.
    let first_done = events.iter().position(|e| kind(e) == "done").unwrap();
    for (tenant, _, _) in &specs {
        assert!(
            events[..first_done]
                .iter()
                .any(|e| kind(e) == "progress" && str_of(e, "tenant") == *tenant),
            "tenant {tenant} showed no progress before the first done"
        );
    }
    let done = &events[first_done];
    let (mine, total) = (u64_of(done, "tenant_steps"), u64_of(done, "total_steps"));
    assert!(
        mine * 100 >= total * 25,
        "first finisher got {mine}/{total} steps (< 25% of three-way split)"
    );

    // Solo runs of the same jobs: identical final counts. (All three
    // tiers here are slicing-invariant, so co-tenancy must be invisible
    // to the trajectory.)
    for (tenant, job, spec) in &specs {
        let (code, solo) = drive(&submit(tenant, job, spec), 1024);
        assert_eq!(code, 0);
        let solo_done = solo.iter().find(|e| kind(e) == "done").unwrap();
        let contended_done = events
            .iter()
            .find(|e| kind(e) == "done" && str_of(e, "tenant") == *tenant)
            .unwrap();
        assert_eq!(
            counts_of(solo_done),
            counts_of(contended_done),
            "tenant {tenant}: co-tenancy perturbed the trajectory"
        );
    }
}

#[test]
fn snapshot_stop_resume_matches_the_uninterrupted_run_bit_for_bit() {
    // Turbo is slicing-invariant, so the resumed trajectory must equal the
    // uninterrupted one exactly — even though the resumed server slices
    // with a different quantum. A mid-run shock (fired before the
    // snapshot) checks that `shock_applied` rides the snapshot file.
    // The snapshot threshold sits millions of steps in so the request
    // always arrives (reader-thread latency) while the clock is still
    // below it.
    let spec = torus_spec(
        "turbo",
        8_000_000,
        2_000_000,
        "{\"kind\":\"inject_colour\",\"at\":7777}",
    );
    let snap_path = scratch_file("turbo_mid.ppsnap");
    let snap_str = snap_path.display().to_string();

    // Leg 1: run to the snapshot point, stop.
    let requests = format!(
        "{}{{\"schema_version\":1,\"op\":\"snapshot\",\"tenant\":\"solo\",\"job\":\"grid\",\
         \"path\":\"{snap_str}\",\"at\":4000000,\"stop\":true}}\n",
        submit("solo", "grid", &spec),
    );
    let (code, events) = drive(&requests, 2048);
    assert_eq!(code, 0);
    let snap_ev = events.iter().find(|e| kind(e) == "snapshot").unwrap();
    let snap_clock = u64_of(snap_ev, "clock");
    assert!(
        (4_000_000..4_020_000).contains(&snap_clock),
        "snapshot fires at the first slice boundary at or after 4000000, got {snap_clock}"
    );
    assert!(
        events.iter().any(|e| kind(e) == "shock"),
        "shock fired before snapshot"
    );
    assert!(
        !events.iter().any(|e| kind(e) == "done"),
        "job was stopped, not finished"
    );

    // Leg 2: resume in a fresh server with a different quantum.
    let requests = format!("{{\"schema_version\":1,\"op\":\"resume\",\"path\":\"{snap_str}\"}}\n");
    let (code, events) = drive(&requests, 512);
    assert_eq!(code, 0);
    let resumed = events.iter().find(|e| kind(e) == "resumed").unwrap();
    assert_eq!(u64_of(resumed, "clock"), snap_clock);
    let done = events.iter().find(|e| kind(e) == "done").unwrap();
    assert!(
        !events.iter().any(|e| kind(e) == "shock"),
        "a resumed post-shock job must not re-fire its shock"
    );
    let resumed_counts = counts_of(done);
    let resumed_clock = u64_of(done, "clock");

    // Leg 3: the uninterrupted control run.
    let (code, events) = drive(&submit("solo", "grid", &spec), 2048);
    assert_eq!(code, 0);
    let done = events.iter().find(|e| kind(e) == "done").unwrap();
    assert_eq!(u64_of(done, "clock"), resumed_clock);
    assert_eq!(counts_of(done), resumed_counts, "resume must be bit-exact");
}

#[test]
fn corrupted_and_truncated_snapshots_are_rejected_with_exit_2() {
    // A genuine snapshot to corrupt. The step target is effectively
    // unreachable so the job cannot complete before the reader thread
    // delivers the snapshot request — the run always ends via the
    // `stop: true` snapshot, never via `done`.
    let spec = torus_spec("packed", 100_000_000, 100_000_000, "null");
    let snap_path = scratch_file("to_corrupt.ppsnap");
    let snap_str = snap_path.display().to_string();
    let requests = format!(
        "{}{{\"schema_version\":1,\"op\":\"snapshot\",\"tenant\":\"t\",\"job\":\"j\",\
         \"path\":\"{snap_str}\",\"at\":1000,\"stop\":true}}\n",
        submit("t", "j", &spec),
    );
    let (code, _) = drive(&requests, 256);
    assert_eq!(code, 0);
    let good = std::fs::read_to_string(&snap_path).unwrap();

    let resume_req =
        |p: &str| format!("{{\"schema_version\":1,\"op\":\"resume\",\"path\":\"{p}\"}}\n");

    // Identity edit: checksum mismatch. (The replaced text must really
    // occur — a silent no-op would make this test vacuous.)
    assert!(good.contains("\"tenant\": \"t\""));
    let bad_path = scratch_file("corrupt.ppsnap");
    std::fs::write(
        &bad_path,
        good.replace("\"tenant\": \"t\"", "\"tenant\": \"u\""),
    )
    .unwrap();
    let (code, events) = drive(&resume_req(&bad_path.display().to_string()), 256);
    assert_eq!(code, 2, "corrupt snapshot must exit 2, never resume");
    assert!(events.iter().any(|e| kind(e) == "error"));

    // Truncated file: never parses.
    let trunc_path = scratch_file("truncated.ppsnap");
    std::fs::write(&trunc_path, &good[..good.len() / 2]).unwrap();
    let (code, events) = drive(&resume_req(&trunc_path.display().to_string()), 256);
    assert_eq!(code, 2);
    assert!(events.iter().any(|e| kind(e) == "error"));

    // Missing file: same fail-closed path.
    let (code, _) = drive(&resume_req("/nonexistent/nowhere.ppsnap"), 256);
    assert_eq!(code, 2);

    // Impossible populations behind a correct checksum (re-rendered, so
    // only the population check can catch them): too small for the
    // engine, one off the 8x8 torus, and too large to allocate.
    for n in [1, 65, 1_000_000_000_000] {
        let mut file = SnapshotFile::parse(&good).unwrap();
        file.engine.n = n;
        let path = scratch_file(&format!("population_{n}.ppsnap"));
        std::fs::write(&path, file.render()).unwrap();
        let (code, events) = drive(&resume_req(&path.display().to_string()), 256);
        assert_eq!(code, 2, "engine.n = {n} must exit 2, never build an engine");
        assert!(events.iter().any(|e| kind(e) == "error"));
    }
}

#[test]
fn a_snapshot_taken_after_a_resizing_shock_resumes() {
    // add_agents grows the complete graph from 96 to 120 agents before the
    // snapshot, so the file's engine population differs from `spec.n` and
    // the parser must derive it from the fired shock.
    let spec = "{\"protocol\":\"diversification\",\"weights\":[1.0,2.0],\
                \"topology\":\"complete\",\"n\":96,\"engine\":\"packed\",\"seed\":5,\
                \"steps\":4000000,\"observe_every\":4000000,\"init\":\"balanced\",\
                \"shock\":{\"kind\":\"add_agents\",\"at\":1000}}";
    let snap_path = scratch_file("grown.ppsnap");
    let snap_str = snap_path.display().to_string();
    let requests = format!(
        "{}{{\"schema_version\":1,\"op\":\"snapshot\",\"tenant\":\"g\",\"job\":\"j\",\
         \"path\":\"{snap_str}\",\"at\":2000,\"stop\":true}}\n",
        submit("g", "j", spec),
    );
    let (code, events) = drive(&requests, 256);
    assert_eq!(code, 0);
    let shock = events.iter().find(|e| kind(e) == "shock").unwrap();
    assert_eq!(u64_of(shock, "n_after"), 120);
    assert!(events.iter().any(|e| kind(e) == "snapshot"));

    let requests = format!("{{\"schema_version\":1,\"op\":\"resume\",\"path\":\"{snap_str}\"}}\n");
    let (code, events) = drive(&requests, 4096);
    assert_eq!(code, 0, "an honest post-shock snapshot must resume");
    assert!(events.iter().any(|e| kind(e) == "resumed"));
    let done = events.iter().find(|e| kind(e) == "done").unwrap();
    assert_eq!(counts_of(done).iter().sum::<u64>(), 120);
}

#[test]
fn malformed_and_misdirected_requests_exit_2() {
    // Unparseable request line.
    let (code, events) = drive("{\"schema_version\":1,\"op\":\"reboot\"}\n", 256);
    assert_eq!(code, 2);
    assert!(events.iter().any(|e| kind(e) == "error"));

    // Snapshot of a job that was never submitted.
    let (code, events) = drive(
        "{\"schema_version\":1,\"op\":\"snapshot\",\"tenant\":\"ghost\",\"job\":\"x\",\
         \"path\":\"/tmp/x.ppsnap\",\"at\":5}\n",
        256,
    );
    assert_eq!(code, 2);
    assert!(events.iter().any(|e| kind(e) == "error"));

    // Duplicate submit of a live job. The first job's step target is
    // unreachable so it is still live when the duplicate arrives.
    let spec = complete_spec("agent", 32, 100_000_000, 100_000_000);
    let requests = format!(
        "{}{}",
        submit("t", "same", &spec),
        submit("t", "same", &spec)
    );
    let (code, _) = drive(&requests, 256);
    assert_eq!(code, 2);
}

#[test]
fn every_engine_tier_serves_a_job_to_completion() {
    for engine in ["agent", "packed", "turbo", "sharded", "vec", "dense"] {
        let spec = complete_spec(engine, 96, 3_000, 1_500);
        let (code, events) = drive(&submit("tier", engine, &spec), 512);
        assert_eq!(code, 0, "tier `{engine}` failed");
        let done = events.iter().find(|e| kind(e) == "done").unwrap();
        assert!(u64_of(done, "clock") >= 3_000);
        assert_eq!(counts_of(done).iter().sum::<u64>(), 96, "tier `{engine}`");
    }
}
