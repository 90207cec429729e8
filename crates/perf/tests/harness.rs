//! The benchmark harness at a tiny size: 16 ranks per workload.

use pioeval_perf::metrics::{bounded_end_to_end, PER_LAYER};
use pioeval_perf::pass::{render, traced, untraced, Plan};
use pioeval_perf::trip::{
    check, decomposed_trip, entity_events, plain_trip, report_counts, Tracer,
};
use pioeval_perf::workload::{Case, Workload};
use serde::Value;
use std::path::Path;

const RANKS: u32 = 16;

fn case(w: Workload, seed: u64) -> Case {
    Case::new(w, Some(RANKS), seed)
}

/// The decomposed trip must measure the real pipeline: same fingerprint
/// and same simulated counts as `measure_target_instrumented`, and the
/// counted trip must attribute every event to a layer.
#[test]
fn decomposed_trip_matches_the_pipeline() {
    for w in Workload::ALL {
        let case = case(w, 42);
        let plain = plain_trip(&case).unwrap();
        let plain_fp = check(&case, &plain).unwrap();
        let mut tracer = Tracer::default();
        let decomposed = decomposed_trip(&case, &mut tracer, 0).unwrap();
        assert_eq!(
            check(&case, &decomposed.trip).unwrap(),
            plain_fp,
            "{}",
            w.name()
        );
        let counts = report_counts(&decomposed.trip.report);
        assert_eq!(counts, report_counts(&plain.report), "{}", w.name());
        for (name, v) in &counts {
            assert!(
                decomposed.values.contains(&(*name, *v)),
                "{}: decomposed trip lacks {name}",
                w.name()
            );
        }
        let by_layer = entity_events(&case).unwrap();
        let total: u64 = by_layer.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, plain_fp.events, "{}", w.name());
        let root = tracer.spans().iter().find(|s| s.parent.is_none()).unwrap();
        let children: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| s.dur_ns())
            .sum();
        assert!(
            children <= root.dur_ns(),
            "{}: stages overrun the trip",
            w.name()
        );
    }
}

#[test]
fn seeds_reach_the_workload() {
    let dl = Workload::DlObjTraced64;
    let fp = |seed| {
        let case = case(dl, seed);
        check(&case, &plain_trip(&case).unwrap()).unwrap()
    };
    assert_eq!(fp(42), fp(42));
    assert_ne!(fp(42), fp(7), "DSL random offsets must follow the seed");
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json `{key}` is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

/// `BENCHMARK.json` names exactly the metrics the harness defines.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for (key, defs) in [
        ("end_to_end", bounded_end_to_end()),
        ("per_layer", PER_LAYER.to_vec()),
    ] {
        let listed: Vec<(&str, &str, &str)> = list(&doc, key)
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let defined: Vec<(&str, &str, &str)> =
            defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
        assert_eq!(listed, defined, "{key}");
    }
}

/// Both passes, all five workloads at 16 ranks and 2 trips: every metric
/// of `BENCHMARK.json` is printed with its unit, and nothing fails.
#[test]
fn both_passes_print_every_metric() {
    let exe = Path::new(env!("CARGO_BIN_EXE_pioeval-perf"));
    let plan = Plan {
        ranks: Some(RANKS),
        rounds: 1,
        warm_trips: 2,
        traced_pairs: 2,
        ..Plan::new(Workload::ALL.to_vec(), 42)
    };
    let spans = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf-smoke");
    let mut outcomes = untraced(&plan, exe);
    for o in &outcomes {
        assert_eq!(o.failures, Vec::<String>::new(), "{}", o.workload.name());
        assert!(o.metrics.contains(&("error_rate".to_string(), 0.0)));
    }
    outcomes.extend(traced(&plan, exe, &spans));
    let report = render(&outcomes);
    for o in &outcomes {
        assert_eq!(o.failures, Vec::<String>::new(), "{}", o.workload.name());
    }
    let doc = benchmark_json();
    for m in list(&doc, "end_to_end")
        .iter()
        .chain(list(&doc, "per_layer"))
    {
        let (name, unit) = (text(m, "name"), text(m, "unit"));
        let printed = report.lines().any(|line| {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            tokens.len() == 3 && tokens[0] == name && tokens[2] == unit
        });
        assert!(
            printed,
            "`{name}` not printed with unit `{unit}`:\n{report}"
        );
    }
    for w in Workload::ALL {
        let path = pioeval_perf::pass::span_path(&spans, w);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() > 2, "{}", path.display());
    }
}
