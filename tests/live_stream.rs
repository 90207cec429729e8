//! End-to-end live telemetry checks: a run with `--live-out` must emit
//! monotonically-timestamped delta frames that `pioeval watch` replays
//! to exactly the totals the same run reports post-mortem via
//! `--metrics json` (round-trip equivalence), `--quiet` must silence
//! the always-on summary line, `watch --follow-until-done` must fail on
//! a stream that never completes, `compare` must render trends over an
//! archived bench history, and suspicious `--live-out` paths must draw
//! a PIO060 warning without aborting the run.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        Value::I64(n) => *n as u64,
        Value::F64(f) => *f as u64,
        other => panic!("expected number, got {other:?}"),
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

fn as_map(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Map(entries) => entries,
        other => panic!("expected object, got {other:?}"),
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pioeval-live-test-{}-{name}", std::process::id()))
}

fn pioeval(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pioeval"))
        .args(args)
        .output()
        .expect("failed to spawn pioeval")
}

#[test]
fn live_out_round_trips_to_watch_totals() {
    let live = scratch("roundtrip.jsonl");
    let live_s = live.to_str().unwrap();
    let output = pioeval(&[
        "run",
        "--workload",
        "ior",
        "--ranks",
        "4",
        "--metrics",
        "json",
        "--run-id",
        "rt1",
        "--live-interval",
        "10",
        "--live-out",
        live_s,
    ]);
    assert!(
        output.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let metrics =
        serde_json::parse(&String::from_utf8(output.stdout).unwrap()).expect("metrics document");

    let watch = pioeval(&["watch", live_s, "--follow-until-done", "--json"]);
    std::fs::remove_file(&live).ok();
    assert!(
        watch.status.success(),
        "watch failed: {}",
        String::from_utf8_lossy(&watch.stderr)
    );
    let replay =
        serde_json::parse(&String::from_utf8(watch.stdout).unwrap()).expect("watch document");
    assert_eq!(as_str(replay.get("schema").unwrap()), "pioeval-watch/1");
    assert_eq!(as_str(replay.get("run").unwrap()), "rt1");
    assert!(as_u64(replay.get("frames").unwrap()) >= 2);
    assert_eq!(replay.get("done"), Some(&Value::Bool(true)));

    // Round trip: summed frame deltas == post-mortem counter totals.
    let post = replay.get("counters").expect("replayed counters");
    for (name, total) in as_map(metrics.get("counters").expect("metrics counters")) {
        let total = as_u64(total);
        if total == 0 {
            continue; // never-incremented counters emit no frames
        }
        let replayed = post.get(name).map(as_u64);
        assert_eq!(
            replayed,
            Some(total),
            "counter {name} diverged between stream replay and post-mortem"
        );
    }
    // And nothing extra: every replayed counter exists post-mortem.
    let metric_counters = metrics.get("counters").unwrap();
    for (name, replayed) in as_map(post) {
        assert_eq!(
            metric_counters.get(name).map(as_u64),
            Some(as_u64(replayed)),
            "counter {name} replayed but absent post-mortem"
        );
    }
}

#[test]
fn live_frames_are_monotonic_delta_encoded_and_end_with_done() {
    let live = scratch("frames.jsonl");
    let output = pioeval(&[
        "run",
        "--workload",
        "dlio",
        "--ranks",
        "8",
        "--live-interval",
        "5",
        "--live-out",
        live.to_str().unwrap(),
    ]);
    assert!(output.status.success());
    let text = std::fs::read_to_string(&live).expect("live frames written");
    std::fs::remove_file(&live).ok();
    let frames: Vec<Value> = text
        .lines()
        .map(|l| serde_json::parse(l).expect("frame parses"))
        .collect();
    assert!(
        frames.len() >= 2,
        "expected >=2 frames, got {}",
        frames.len()
    );
    let mut last_t = 0;
    let mut last_seq = None;
    for f in &frames {
        assert_eq!(as_str(f.get("schema").unwrap()), "pioeval-live/1");
        let t = as_u64(f.get("t_us").unwrap());
        assert!(t >= last_t, "t_us must be monotonic");
        last_t = t;
        let seq = as_u64(f.get("seq").unwrap());
        if let Some(prev) = last_seq {
            assert_eq!(seq, prev + 1, "seq must be dense");
        }
        last_seq = Some(seq);
    }
    assert_eq!(
        as_str(frames.last().unwrap().get("kind").unwrap()),
        "done",
        "stream must end with a done frame"
    );
    // Delta encoding: the full-run totals must need more than one frame's
    // counters section, i.e. at least one intermediate delta fired.
    assert!(
        frames
            .iter()
            .filter(|f| f.get("counters").is_some())
            .count()
            >= 1
    );
}

#[test]
fn quiet_flag_suppresses_summary_line() {
    let output = pioeval(&["run", "--workload", "ior", "--ranks", "2", "--quiet"]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !stdout.contains("telemetry:"),
        "--quiet must drop the summary line: {stdout}"
    );
    // The measurement report itself still prints.
    assert!(stdout.contains("makespan"), "report missing: {stdout}");
}

#[test]
fn watch_follow_until_done_fails_without_done_frame() {
    let live = scratch("nodone.jsonl");
    std::fs::write(
        &live,
        "{\"schema\":\"pioeval-live/1\",\"run\":\"r\",\"seq\":0,\"t_us\":10,\
         \"kind\":\"delta\",\"phase\":\"a\",\"open_spans\":1,\
         \"counters\":{\"des.live.events\":5}}\n",
    )
    .unwrap();
    let watch = pioeval(&[
        "watch",
        live.to_str().unwrap(),
        "--follow-until-done",
        "--timeout",
        "0.3",
    ]);
    assert!(
        !watch.status.success(),
        "follow-until-done must fail when the stream never completes"
    );
    // Without the flag the same truncated stream is fine.
    let watch = pioeval(&[
        "watch",
        live.to_str().unwrap(),
        "--timeout",
        "0.3",
        "--json",
    ]);
    std::fs::remove_file(&live).ok();
    assert!(watch.status.success());
    let replay = serde_json::parse(&String::from_utf8(watch.stdout).unwrap()).unwrap();
    assert_eq!(replay.get("done"), Some(&Value::Bool(false)));
    assert_eq!(
        replay
            .get("counters")
            .and_then(|c| c.get("des.live.events"))
            .map(as_u64),
        Some(5)
    );
}

#[test]
fn compare_renders_trends_over_archived_history() {
    let hist = scratch("history.jsonl");
    std::fs::write(
        &hist,
        concat!(
            // An older run still carries a row the bench no longer has.
            "{\"schema\": \"pioeval-bench-history/1\", \"rev\": \"0ld0000\", \"timestamp\": \"0\", ",
            "\"benches\": [{\"name\": \"phold_seq\", \"events_per_sec\": 90.0}, ",
            "{\"name\": \"ior_ranks4\", \"events_per_sec\": 40.0}]}\n",
            "{\"schema\": \"pioeval-bench-history/1\", \"rev\": \"abc1234\", \"timestamp\": \"1\", ",
            "\"benches\": [{\"name\": \"phold_seq\", \"events_per_sec\": 100.0}, ",
            "{\"name\": \"phold_par_t2\", \"events_per_sec\": 150.0}]}\n",
            "{\"schema\": \"pioeval-bench-history/1\", \"rev\": \"def5678\", \"timestamp\": \"2\", ",
            "\"benches\": [{\"name\": \"phold_seq\", \"events_per_sec\": 110.0}, ",
            "{\"name\": \"phold_par_t2\", \"events_per_sec\": 165.0}]}\n",
        ),
    )
    .unwrap();
    let output = pioeval(&[
        "compare",
        "--last",
        "2",
        "--history",
        hist.to_str().unwrap(),
    ]);
    // The default window reaches back to the run with the deleted row.
    let all = pioeval(&["compare", "--history", hist.to_str().unwrap()]);
    std::fs::remove_file(&hist).ok();
    assert!(
        output.status.success(),
        "compare failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("phold_par_t2"), "{stdout}");
    assert!(stdout.contains("vs prev"), "{stdout}");
    assert!(stdout.contains("def5678"), "newest rev shown: {stdout}");
    assert!(
        all.status.success(),
        "compare over a deleted row failed: {}",
        String::from_utf8_lossy(&all.stderr)
    );
    let stdout = String::from_utf8_lossy(&all.stdout);
    assert!(stdout.contains("0ld0000 .. def5678"), "{stdout}");
    assert!(
        stdout.contains("phold_par_t2"),
        "newest rows shown: {stdout}"
    );
    assert!(
        !stdout.contains("ior_ranks4"),
        "deleted row rendered: {stdout}"
    );
}

#[test]
fn live_out_inside_target_warns_pio060_but_runs() {
    // `target/` exists in a cargo workspace and is exactly the trap
    // PIO060 calls out; the run must still succeed.
    let live = format!("target/pioeval-live-test-{}.jsonl", std::process::id());
    let output = pioeval(&[
        "run",
        "--workload",
        "ior",
        "--ranks",
        "2",
        "--quiet",
        "--live-out",
        &live,
    ]);
    std::fs::remove_file(&live).ok();
    assert!(
        output.status.success(),
        "PIO060 is a warning, not an error: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("PIO060"), "warning missing: {stderr}");
}

#[test]
fn trace_out_carries_live_counter_tracks() {
    let live = scratch("trace-live.jsonl");
    let trace = scratch("trace.json");
    let output = pioeval(&[
        "run",
        "--workload",
        "ior",
        "--ranks",
        "4",
        "--live-interval",
        "10",
        "--live-out",
        live.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(output.status.success());
    let text = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&live).ok();
    std::fs::remove_file(&trace).ok();
    let doc = serde_json::parse(&text).expect("trace parses");
    let Some(Value::Seq(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    let counter_tracks: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").map(as_str) == Some("C"))
        .map(|e| as_str(e.get("name").unwrap()))
        .collect();
    assert!(
        counter_tracks.contains(&"des.live.events"),
        "live counter series missing from trace: {counter_tracks:?}"
    );
}

/// Integer nanoseconds from a trace time printed as microseconds with
/// three decimals (`"ts": 12.345` → 12345), read from the event's text so
/// no float rounding can hide a lost nanosecond.
fn ns_field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} missing: {line}"))
        + pat.len();
    let text: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    let (us, frac) = text.split_once('.').expect("three decimals");
    assert_eq!(frac.len(), 3, "{line}");
    us.parse::<u64>().unwrap() * 1000 + frac.parse::<u64>().unwrap()
}

/// `run ... --profile-out P --trace-out T`; returns (profile text, trace).
fn profiled_run(tag: &str, threads: Option<&str>) -> (Option<String>, String) {
    let profile = scratch(&format!("{tag}-profile.json"));
    let trace = scratch(&format!("{tag}-trace.json"));
    let mut args = vec![
        "run",
        "--workload",
        "ior",
        "--ranks",
        "16",
        "--quiet",
        "--profile-out",
        profile.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ];
    if let Some(t) = threads {
        args.extend(["--des-threads", t]);
    }
    let output = pioeval(&args);
    assert!(
        output.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let prof = std::fs::read_to_string(&profile).ok();
    let text = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&profile).ok();
    std::fs::remove_file(&trace).ok();
    (prof, text)
}

#[test]
fn trace_out_carries_worker_phase_tracks_when_profiling() {
    let (prof, text) = profiled_run("merged", Some("2"));
    let prof = serde_json::parse(&prof.expect("profile written")).expect("profile parses");
    let Some(Value::Seq(workers)) = prof.get("workers") else {
        panic!("profile has no workers");
    };
    assert_eq!(workers.len(), 2);
    // The writer puts one event per line; keep each event's text next
    // to its parse so times can be read back exactly.
    let events: Vec<(&str, Value)> = text
        .lines()
        .filter(|l| l.starts_with("{\"ph\""))
        .map(|l| {
            let l = l.trim_end_matches(',');
            (l, serde_json::parse(l).expect("event parses"))
        })
        .collect();
    let field = |e: &Value, k: &str| e.get(k).map(as_u64);
    let named = |ph_name: &str, pid: u64| -> Vec<(u64, String)> {
        events
            .iter()
            .filter(|(_, e)| e.get("ph").map(as_str) == Some("M"))
            .filter(|(_, e)| as_str(e.get("name").unwrap()) == ph_name)
            .filter(|(_, e)| field(e, "pid") == Some(pid))
            .map(|(_, e)| {
                let name = as_str(e.get("args").and_then(|a| a.get("name")).unwrap());
                (field(e, "tid").unwrap(), name.to_string())
            })
            .collect()
    };
    assert_eq!(named("process_name", 2), [(0, "des-workers".to_string())]);
    let tracks = named("thread_name", 2);
    assert_eq!(tracks.len(), workers.len() + 1, "{tracks:?}");
    assert!(tracks.contains(&(workers.len() as u64, "windows".to_string())));

    let sim = pioeval::obs::names::SPAN_CORE_SIMULATE;
    let (sim_line, _) = events
        .iter()
        .find(|(_, e)| e.get("name").map(as_str) == Some(sim) && field(e, "pid") == Some(1))
        .expect("core.simulate span");
    let sim_start = ns_field(sim_line, "ts");
    let sim_end = sim_start + ns_field(sim_line, "dur");

    for w in workers {
        let id = as_u64(w.get("worker").unwrap());
        assert!(
            tracks
                .iter()
                .any(|(tid, n)| *tid == id && n.starts_with("worker ")),
            "worker {id} has no named track: {tracks:?}"
        );
        for phase in ["compute", "mailbox", "barrier", "stall"] {
            let mut sum = 0;
            for (line, e) in &events {
                if e.get("ph").map(as_str) != Some("X")
                    || field(e, "pid") != Some(2)
                    || field(e, "tid") != Some(id)
                {
                    continue;
                }
                let (ts, dur) = (ns_field(line, "ts"), ns_field(line, "dur"));
                assert!(
                    sim_start <= ts && ts + dur <= sim_end,
                    "worker slice outside {sim}: {line}"
                );
                if as_str(e.get("name").unwrap()) == phase {
                    sum += dur;
                }
            }
            let want = as_u64(w.get(&format!("{phase}_ns")).unwrap());
            assert_eq!(sum, want, "worker {id} {phase}");
        }
    }

    // A sequential run has no workers, so the trace gets no process 2.
    let (prof, text) = profiled_run("sequential", None);
    assert!(prof.is_none(), "a sequential run writes no profile");
    assert!(!text.contains("des-workers"));
    assert!(!text.contains("\"pid\": 2"));
}
