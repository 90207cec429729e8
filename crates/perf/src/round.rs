//! The child side: one fresh process per round.
//!
//! A pass spawns the benchmark binary again with the arguments of a
//! [`Child`]; the child runs its trips and prints one line per fact on
//! stdout, which the parent reads back with [`Line::parse`]:
//!
//! ```text
//! cold <wall_ns>                 the round's first, untimed-for-stats trip
//! warm <wall_ns> <events>        a timed trip of an untraced round
//! plain <wall_ns>                a plain trip of a traced round
//! decomposed <wall_ns>           a decomposed trip of a traced round
//! fail <message>                 a trip that errored or failed an oracle
//! fingerprint <fields>           the round's fingerprint
//! setup_end_unix_ns <ns>         when the cold trip ended
//! hwm_kb <kB>                    the process's peak resident set
//! layer <metric> <value>         a per-layer metric of a traced round
//! closure <layers_ms> <trip_ms>  stage self times summed vs the trip
//! ```

use crate::metrics::median;
use crate::trip::{
    check, decomposed_trip, entity_events, plain_trip, self_times, status_kb, Fingerprint, Tracer,
    Trip, ROOT_SPAN,
};
use crate::workload::{Case, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// What one child process runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Child {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Rank override (`None`: the workload's full size).
    pub ranks: Option<u32>,
    /// Round index within the pass.
    pub round: u32,
    /// Minimum timed trips (untraced) or plain/decomposed pairs (traced).
    pub trips: u32,
    /// Keep adding trips past the minimum until this much time has
    /// passed since the child started.
    pub budget: Option<Duration>,
    /// Traced round: write spans here.
    pub spans: Option<PathBuf>,
}

impl Child {
    /// Command-line arguments that make the binary run this child.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--child".to_string(),
            self.workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--round".to_string(),
            self.round.to_string(),
            "--trips".to_string(),
            self.trips.to_string(),
        ];
        if let Some(r) = self.ranks {
            args.extend(["--ranks".to_string(), r.to_string()]);
        }
        if let Some(b) = self.budget {
            args.extend(["--budget-ms".to_string(), b.as_millis().to_string()]);
        }
        if let Some(p) = &self.spans {
            args.extend(["--spans".to_string(), p.display().to_string()]);
        }
        args
    }

    /// Inverse of [`Child::to_args`] (the arguments after the binary).
    pub fn from_args(args: &[String]) -> Result<Child, String> {
        let mut child = Child {
            workload: Workload::IorPfs4096,
            seed: 0,
            ranks: None,
            round: 0,
            trips: 0,
            budget: None,
            spans: None,
        };
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("bad number `{v}`"));
        for pair in args.chunks(2) {
            let [key, value] = pair else {
                return Err(format!("missing value for {}", pair[0]));
            };
            match key.as_str() {
                "--child" => {
                    child.workload = Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?
                }
                "--seed" => child.seed = num(value)?,
                "--round" => child.round = num(value)? as u32,
                "--trips" => child.trips = num(value)? as u32,
                "--ranks" => child.ranks = Some(num(value)? as u32),
                "--budget-ms" => child.budget = Some(Duration::from_millis(num(value)?)),
                "--spans" => child.spans = Some(PathBuf::from(value)),
                other => return Err(format!("unknown child option {other}")),
            }
        }
        Ok(child)
    }

    /// Run the round, printing its lines to stdout.
    pub fn run(&self) {
        let started = Instant::now();
        let case = Case::new(self.workload, self.ranks, self.seed);
        let more =
            |done: u32| done < self.trips || self.budget.is_some_and(|b| started.elapsed() < b);
        let lines = if let Some(path) = &self.spans {
            traced_round(&case, more, path)
        } else {
            untraced_round(&case, self.round, more)
        };
        for line in lines {
            println!("{}", line.render());
        }
    }
}

/// One line of the child protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Line {
    /// The round's cold trip.
    Cold(u64),
    /// A timed trip of an untraced round: wall ns, DES events.
    Warm(u64, u64),
    /// A plain trip of a traced round.
    Plain(u64),
    /// A decomposed trip of a traced round.
    Decomposed(u64),
    /// A failed trip.
    Fail(String),
    /// The round's fingerprint.
    Fingerprint(Fingerprint),
    /// Unix time (ns) the cold trip ended.
    SetupEnd(u64),
    /// Peak resident set, kB.
    HwmKb(u64),
    /// A per-layer metric.
    Layer(String, f64),
    /// Median stage self times summed, and the median decomposed trip, ms.
    Closure(f64, f64),
}

impl Line {
    /// The line as printed.
    pub fn render(&self) -> String {
        match self {
            Line::Cold(ns) => format!("cold {ns}"),
            Line::Warm(ns, ev) => format!("warm {ns} {ev}"),
            Line::Plain(ns) => format!("plain {ns}"),
            Line::Decomposed(ns) => format!("decomposed {ns}"),
            Line::Fail(msg) => format!("fail {}", msg.replace('\n', " ")),
            Line::Fingerprint(fp) => format!("fingerprint {}", fp.encode()),
            Line::SetupEnd(ns) => format!("setup_end_unix_ns {ns}"),
            Line::HwmKb(kb) => format!("hwm_kb {kb}"),
            Line::Layer(name, v) => format!("layer {name} {v:?}"),
            Line::Closure(a, b) => format!("closure {a:?} {b:?}"),
        }
    }

    /// Parse a printed line; `None` for anything else.
    pub fn parse(text: &str) -> Option<Line> {
        let (key, rest) = text.split_once(' ')?;
        let int = || rest.parse::<u64>().ok();
        Some(match key {
            "cold" => Line::Cold(int()?),
            "warm" => {
                let (a, b) = rest.split_once(' ')?;
                Line::Warm(a.parse().ok()?, b.parse().ok()?)
            }
            "plain" => Line::Plain(int()?),
            "decomposed" => Line::Decomposed(int()?),
            "fail" => Line::Fail(rest.to_string()),
            "fingerprint" => Line::Fingerprint(Fingerprint::decode(rest)?),
            "setup_end_unix_ns" => Line::SetupEnd(int()?),
            "hwm_kb" => Line::HwmKb(int()?),
            "layer" => {
                let (name, v) = rest.split_once(' ')?;
                Line::Layer(name.to_string(), v.parse().ok()?)
            }
            "closure" => {
                let (a, b) = rest.split_once(' ')?;
                Line::Closure(a.parse().ok()?, b.parse().ok()?)
            }
            _ => return None,
        })
    }
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Checks each trip's oracles and its fingerprint against the round's
/// first one.
struct Oracle<'a> {
    case: &'a Case,
    first: Option<Fingerprint>,
}

impl Oracle<'_> {
    /// Run a plain trip and check it.
    fn plain_trip(&mut self) -> Result<Trip, String> {
        let trip = plain_trip(self.case)?;
        self.check(&trip)?;
        Ok(trip)
    }

    fn check(&mut self, trip: &Trip) -> Result<(), String> {
        let fp = check(self.case, trip)?;
        match self.first {
            None => self.first = Some(fp),
            Some(first) if first != fp => {
                return Err(format!("fingerprint {fp:?} differs from first {first:?}"))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

/// An untraced round: one cold trip, then timed trips while `more`.
/// Round 0 of a workload with a [`Workload::reference`] also checks its
/// fingerprint against the reference workload's (untimed).
fn untraced_round(case: &Case, round: u32, more: impl Fn(u32) -> bool) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut oracle = Oracle { case, first: None };
    let mut trip = |cold: bool, lines: &mut Vec<Line>| match oracle.plain_trip() {
        Ok(t) if cold => lines.push(Line::Cold(t.wall.as_nanos() as u64)),
        Ok(t) => lines.push(Line::Warm(t.wall.as_nanos() as u64, t.events)),
        Err(e) => lines.push(Line::Fail(e)),
    };
    trip(true, &mut lines);
    lines.push(Line::SetupEnd(unix_ns()));
    let mut warm = 0;
    while more(warm) {
        trip(false, &mut lines);
        warm += 1;
    }
    lines.push(Line::HwmKb(status_kb("VmHWM")));
    if let (0, Some(reference), Some(fp)) = (round, case.workload.reference(), oracle.first) {
        let ref_case = Case::new(reference, Some(case.ranks), case.seed);
        match plain_trip(&ref_case).and_then(|t| check(&ref_case, &t)) {
            Ok(ref_fp) if ref_fp == fp => {}
            Ok(ref_fp) => lines.push(Line::Fail(format!(
                "fingerprint {fp:?} differs from {}'s {ref_fp:?}",
                reference.name()
            ))),
            Err(e) => lines.push(Line::Fail(format!("{}: {e}", reference.name()))),
        }
    }
    if let Some(fp) = oracle.first {
        lines.push(Line::Fingerprint(fp));
    }
    lines
}

/// A traced round: a cold plain trip, then plain and decomposed trips
/// alternating while `more` (counted in pairs), then one counted trip.
/// Writes every decomposed trip's spans to `spans_path` at the end.
fn traced_round(case: &Case, more: impl Fn(u32) -> bool, spans_path: &Path) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut oracle = Oracle { case, first: None };
    let mut tracer = Tracer::default();
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut plain_ms = Vec::new();
    let mut decomposed_ms = Vec::new();

    match oracle.plain_trip() {
        Ok(t) => lines.push(Line::Cold(t.wall.as_nanos() as u64)),
        Err(e) => lines.push(Line::Fail(e)),
    }
    let mut pairs = 0;
    while more(pairs) {
        match oracle.plain_trip() {
            Ok(t) => {
                plain_ms.push(t.wall.as_secs_f64() * 1e3);
                lines.push(Line::Plain(t.wall.as_nanos() as u64));
            }
            Err(e) => lines.push(Line::Fail(e)),
        }
        let outcome = decomposed_trip(case, &mut tracer, pairs)
            .and_then(|d| oracle.check(&d.trip).map(|()| d));
        match outcome {
            Ok(d) => {
                decomposed_ms.push(d.trip.wall.as_secs_f64() * 1e3);
                lines.push(Line::Decomposed(d.trip.wall.as_nanos() as u64));
                for (name, v) in d.values {
                    values.entry(name.to_string()).or_default().push(v);
                }
            }
            Err(e) => lines.push(Line::Fail(e)),
        }
        pairs += 1;
    }
    match entity_events(case) {
        Ok(sums) => {
            let total: u64 = sums.iter().map(|&(_, n)| n).sum();
            let expected = oracle.first.map_or(total, |fp| fp.events);
            if total != expected {
                lines.push(Line::Fail(format!(
                    "counted trip ran {total} events, plain trips {expected}"
                )));
            }
            for (metric, n) in sums.into_iter().filter(|&(_, n)| n > 0) {
                values.insert(metric.to_string(), vec![n as f64]);
            }
        }
        Err(e) => lines.push(Line::Fail(e)),
    }

    let mut stage_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (name, ns) in self_times(tracer.spans()) {
        let metric = if name == ROOT_SPAN {
            "core.self_ms".to_string()
        } else {
            format!("{name}_ms")
        };
        stage_ms.entry(metric).or_default().push(ns as f64 / 1e6);
    }
    let stage_ms: BTreeMap<String, f64> = stage_ms
        .into_iter()
        .map(|(name, v)| (name, median(&v)))
        .collect();
    lines.push(Line::Closure(
        stage_ms.values().sum(),
        median(&decomposed_ms),
    ));
    let mut layer: BTreeMap<String, f64> = values
        .iter()
        .map(|(name, v)| (name.clone(), median(v)))
        .chain(stage_ms)
        .collect();
    if let (Some(&sim_ms), Some(&events)) = (layer.get("des.simulate_ms"), layer.get("des.events"))
    {
        layer.insert("des.ns_per_event".into(), sim_ms * 1e6 / events.max(1.0));
    }
    let overheads: Vec<f64> = plain_ms
        .iter()
        .zip(&decomposed_ms)
        .map(|(p, d)| d - p)
        .collect();
    if !overheads.is_empty() {
        layer.insert(
            "core.trace_overhead_pct".into(),
            100.0 * median(&overheads) / median(&plain_ms),
        );
    }
    lines.extend(layer.into_iter().map(|(n, v)| Line::Layer(n, v)));

    let written = spans_path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(spans_path, tracer.to_jsonl()));
    if let Err(e) = written {
        lines.push(Line::Fail(format!(
            "cannot write {}: {e}",
            spans_path.display()
        )));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_args_round_trip() {
        let child = Child {
            workload: Workload::DlObjTraced64,
            seed: 7,
            ranks: Some(16),
            round: 3,
            trips: 2,
            budget: Some(Duration::from_millis(1500)),
            spans: Some(PathBuf::from("target/perf/x.spans.jsonl")),
        };
        assert_eq!(Child::from_args(&child.to_args()).unwrap(), child);
    }

    #[test]
    fn lines_round_trip() {
        let fp = Fingerprint {
            events: 1,
            makespan_ns: 2,
            bytes_read: 3,
            bytes_written: 4,
            records: 5,
            requests: 6,
        };
        for line in [
            Line::Cold(5),
            Line::Warm(5, 9),
            Line::Plain(1),
            Line::Decomposed(2),
            Line::Fail("rank never finished".into()),
            Line::Fingerprint(fp),
            Line::SetupEnd(11),
            Line::HwmKb(12),
            Line::Layer("des.events".into(), 0.5),
            Line::Closure(1.25, 1.5),
        ] {
            assert_eq!(Line::parse(&line.render()), Some(line));
        }
        assert_eq!(Line::parse("noise"), None);
    }
}
