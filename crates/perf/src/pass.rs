//! The parent side: plan a pass, run its rounds one child at a time, and
//! turn the children's lines into metrics.

use crate::metrics::{lookup, median, quantile, PER_LAYER};
use crate::round::{Child, Line};
use crate::trip::{kb_to_mb, Fingerprint};
use crate::workload::Workload;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// What a pass runs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Workloads, interleaved within each round.
    pub workloads: Vec<Workload>,
    /// Workload seed.
    pub seed: u64,
    /// Rank override for every workload (`None`: full size).
    pub ranks: Option<u32>,
    /// Child processes per workload in the untraced pass.
    pub rounds: u32,
    /// Minimum timed trips per untraced round, after its cold trip.
    pub warm_trips: u32,
    /// Minimum plain/decomposed pairs in a traced round.
    pub traced_pairs: u32,
    /// Time to measure each workload for; rounds keep adding trips past
    /// their minimum until their share of it has passed.
    pub seconds: Option<f64>,
}

impl Plan {
    /// The full-size plan: 5 rounds of 1 cold + 8 timed trips per
    /// workload, and 10 pairs in a traced round.
    pub fn new(workloads: Vec<Workload>, seed: u64) -> Plan {
        Plan {
            workloads,
            seed,
            ranks: None,
            rounds: 5,
            warm_trips: 8,
            traced_pairs: 10,
            seconds: None,
        }
    }
}

/// One workload's result from a pass.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Trips attempted.
    pub attempted: u64,
    /// Why each failed trip failed.
    pub failures: Vec<String>,
    /// Metrics by name, in table order.
    pub metrics: Vec<(String, f64)>,
    /// The fingerprint every trip reproduced.
    pub fingerprint: Option<Fingerprint>,
    /// Human-readable context (sample counts, quartiles, closure).
    pub note: String,
}

impl Outcome {
    fn new(workload: Workload) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            fingerprint: None,
            note: String::new(),
        }
    }

    /// Trips failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failures.push(why);
    }

    /// Record the fingerprint of another round; a different one fails.
    fn agree(&mut self, fp: Fingerprint) {
        match self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(first) if first != fp => {
                self.fail(format!("round fingerprint {fp:?} differs from {first:?}"))
            }
            Some(_) => {}
        }
    }
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Run one child to completion; returns when it started (unix ns) and
/// its lines, with a `fail` line if it did not exit cleanly.
fn spawn(exe: &Path, child: &Child) -> (u64, Vec<Line>) {
    let started = unix_ns();
    let output = Command::new(exe)
        .args(child.to_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let mut lines = Vec::new();
    match output {
        Ok(out) => {
            lines.extend(
                String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .filter_map(Line::parse),
            );
            if !out.status.success() {
                lines.push(Line::Fail(format!("round exited with {}", out.status)));
            }
        }
        Err(e) => lines.push(Line::Fail(format!("cannot start round: {e}"))),
    }
    (started, lines)
}

/// The untraced pass: `plan.rounds` rounds, each a fresh child per
/// workload, workloads interleaved within a round; one child at a time.
///
/// Each timing metric is the median over the rounds of that round's own
/// statistic. The host's speed drifts in episodes of seconds; a median
/// over rounds ignores an episode that slows fewer than half of them,
/// where a percentile of the pooled trips would follow it.
pub fn untraced(plan: &Plan, exe: &Path) -> Vec<Outcome> {
    struct Acc {
        out: Outcome,
        warm_s: Vec<f64>,
        round_p50: Vec<f64>,
        round_p75: Vec<f64>,
        round_rate: Vec<f64>,
        setup_s: Vec<f64>,
        hwm_kb: u64,
    }
    let mut accs: Vec<Acc> = plan
        .workloads
        .iter()
        .map(|&w| Acc {
            out: Outcome::new(w),
            warm_s: Vec::new(),
            round_p50: Vec::new(),
            round_p75: Vec::new(),
            round_rate: Vec::new(),
            setup_s: Vec::new(),
            hwm_kb: 0,
        })
        .collect();
    let budget = plan
        .seconds
        .map(|s| Duration::from_secs_f64(s / plan.rounds.max(1) as f64));
    for round in 0..plan.rounds {
        for acc in &mut accs {
            let child = Child {
                workload: acc.out.workload,
                seed: plan.seed,
                ranks: plan.ranks,
                round,
                trips: plan.warm_trips,
                budget,
                spans: None,
            };
            let (started, lines) = spawn(exe, &child);
            let (mut trip_s, mut rates) = (Vec::new(), Vec::new());
            for line in lines {
                match line {
                    Line::Cold(_) => acc.out.attempted += 1,
                    Line::Warm(ns, events) => {
                        acc.out.attempted += 1;
                        let s = ns as f64 / 1e9;
                        trip_s.push(s);
                        rates.push(events as f64 / s);
                    }
                    Line::Fail(why) => acc.out.fail(why),
                    Line::Fingerprint(fp) => acc.out.agree(fp),
                    Line::SetupEnd(ns) => acc.setup_s.push(ns.saturating_sub(started) as f64 / 1e9),
                    Line::HwmKb(kb) => acc.hwm_kb = acc.hwm_kb.max(kb),
                    _ => {}
                }
            }
            if !trip_s.is_empty() {
                acc.round_p50.push(median(&trip_s));
                acc.round_p75.push(quantile(&trip_s, 0.75));
                acc.round_rate.push(median(&rates));
                acc.warm_s.extend(trip_s);
            }
        }
    }
    // A workload with a reference must reproduce it exactly.
    for i in 0..accs.len() {
        let Some(reference) = accs[i].out.workload.reference() else {
            continue;
        };
        let ref_fp = accs
            .iter()
            .find(|a| a.out.workload == reference)
            .and_then(|a| a.out.fingerprint);
        if let (Some(fp), Some(ref_fp)) = (accs[i].out.fingerprint, ref_fp) {
            if fp != ref_fp {
                let why = format!(
                    "fingerprint {fp:?} differs from {}'s {ref_fp:?}",
                    reference.name()
                );
                accs[i].out.fail(why);
            }
        }
    }
    accs.into_iter()
        .map(|mut acc| {
            let out = &mut acc.out;
            out.metrics = vec![
                ("trip_s_p50".into(), median(&acc.round_p50)),
                ("trip_s_p75".into(), median(&acc.round_p75)),
                ("events_per_s".into(), median(&acc.round_rate)),
                ("setup_s".into(), median(&acc.setup_s)),
                ("peak_rss_mb".into(), kb_to_mb(acc.hwm_kb)),
                (
                    "error_rate".into(),
                    out.failed() as f64 / out.attempted.max(1) as f64,
                ),
            ];
            out.note = format!(
                "{} timed trips, pooled trip_s p25 {:.4} p50 {:.4} p75 {:.4}; {} rounds",
                acc.warm_s.len(),
                quantile(&acc.warm_s, 0.25),
                median(&acc.warm_s),
                quantile(&acc.warm_s, 0.75),
                acc.setup_s.len()
            );
            acc.out
        })
        .collect()
}

/// The traced pass: one child per workload, writing its spans to
/// `<span_dir>/<workload>.spans.jsonl`.
pub fn traced(plan: &Plan, exe: &Path, span_dir: &Path) -> Vec<Outcome> {
    plan.workloads
        .iter()
        .map(|&w| {
            let child = Child {
                workload: w,
                seed: plan.seed,
                ranks: plan.ranks,
                round: 0,
                trips: plan.traced_pairs,
                budget: plan.seconds.map(Duration::from_secs_f64),
                spans: Some(span_path(span_dir, w)),
            };
            let mut out = Outcome::new(w);
            let (mut plain, mut decomposed) = (0, 0);
            for line in spawn(exe, &child).1 {
                match line {
                    Line::Cold(_) => out.attempted += 1,
                    Line::Plain(_) => {
                        out.attempted += 1;
                        plain += 1;
                    }
                    Line::Decomposed(_) => {
                        out.attempted += 1;
                        decomposed += 1;
                    }
                    Line::Fail(why) => out.fail(why),
                    Line::Layer(name, v) => out.metrics.push((name, v)),
                    Line::Closure(stages, trip) => {
                        out.note = format!(
                            "{plain} plain + {decomposed} decomposed trips; stage self times \
                             sum to {stages:.3} ms vs decomposed trip {trip:.3} ms ({:+.2}%)",
                            100.0 * (stages - trip) / trip.max(f64::MIN_POSITIVE)
                        )
                    }
                    _ => {}
                }
            }
            out.metrics
                .sort_by_key(|(n, _)| PER_LAYER.iter().position(|d| d.name == n));
            out
        })
        .collect()
}

/// Where a traced round writes its spans.
pub fn span_path(dir: &Path, w: Workload) -> PathBuf {
    dir.join(format!("{}.spans.jsonl", w.name()))
}

/// The human-readable report: one block per workload, one metric per
/// line as `name value unit`.
pub fn render(outcomes: &[Outcome]) -> String {
    let mut s = String::new();
    for o in outcomes {
        let _ = writeln!(s, "{}: {}", o.workload.name(), o.note);
        for (name, v) in &o.metrics {
            let unit = lookup(name).map_or("", |d| d.unit);
            let _ = writeln!(s, "  {name:<30} {:>16} {unit}", format_value(*v));
        }
        let _ = writeln!(s, "  {} of {} trips failed", o.failed(), o.attempted);
        for why in &o.failures {
            let _ = writeln!(s, "  FAILED: {why}");
        }
    }
    s
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}
