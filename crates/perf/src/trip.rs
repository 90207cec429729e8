//! One evaluation trip, three ways.
//!
//! * [`plain_trip`] is what a `pioeval run`/`dsl` user pays: the DSL
//!   pre-flight where there is one, `measure_target_instrumented`, and on
//!   the traced workload the request-trace JSONL, summary and bottleneck
//!   class. Only this call is timed.
//! * [`decomposed_trip`] calls the same public stages one by one and
//!   records a [`Span`] around each, so each layer's host time can be
//!   read off. It builds the same [`MeasurementReport`].
//! * [`entity_events`] reruns the job with per-entity event counting.
//!
//! [`check`] applies the output oracles to a trip's report and returns its
//! [`Fingerprint`].

use crate::workload::Case;
use pioeval::core::{measure_target_instrumented, MeasurementReport};
use pioeval::des::ExecMode;
use pioeval::iostack::{
    collect_on, drain_request_events, enable_request_trace, launch_on, JobSpec, StackConfig,
    StorageTarget,
};
use pioeval::monitor::{analyze_profile, classify_bottleneck, SystemAnalysis};
use pioeval::reqtrace::{assemble, summarize, write_jsonl};
use pioeval::trace::DxtTrace;
use pioeval::types::SimTime;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What every correct trip of one case must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// DES events processed.
    pub events: u64,
    /// Simulated makespan.
    pub makespan_ns: u64,
    /// POSIX bytes read.
    pub bytes_read: u64,
    /// POSIX bytes written.
    pub bytes_written: u64,
    /// Captured layer records.
    pub records: u64,
    /// Traced requests (0 with tracing off).
    pub requests: u64,
}

impl Fingerprint {
    /// Space-separated fields, in declaration order.
    pub fn encode(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.events,
            self.makespan_ns,
            self.bytes_read,
            self.bytes_written,
            self.records,
            self.requests
        )
    }

    /// Inverse of [`Fingerprint::encode`].
    pub fn decode(text: &str) -> Option<Fingerprint> {
        let v: Vec<u64> = text
            .split_whitespace()
            .map(|s| s.parse().ok())
            .collect::<Option<_>>()?;
        let [events, makespan_ns, bytes_read, bytes_written, records, requests] = v[..] else {
            return None;
        };
        Some(Fingerprint {
            events,
            makespan_ns,
            bytes_read,
            bytes_written,
            records,
            requests,
        })
    }
}

/// A finished trip: its host time, the DES events it ran, and its report.
pub struct Trip {
    /// Host wall time of the measured call.
    pub wall: Duration,
    /// DES events processed.
    pub events: u64,
    /// Every data product of the trip.
    pub report: MeasurementReport,
}

/// Total DES events the process has run, from the global telemetry
/// counter every executor publishes to.
fn des_events() -> u64 {
    pioeval::obs::global()
        .counter(pioeval::obs::names::DES_EVENTS)
        .get()
}

/// One plain trip, timed end to end.
pub fn plain_trip(case: &Case) -> Result<Trip, String> {
    let w = case.workload;
    let before = des_events();
    let start = Instant::now();
    let source = w.source()?;
    let report = measure_target_instrumented(
        &case.target,
        &source,
        case.ranks,
        StackConfig::default(),
        case.seed,
        &case.exec,
        w.request_trace(),
        false,
    )
    .map_err(|e| e.to_string())?;
    if let Some(asm) = &report.requests {
        let jsonl = write_jsonl(&asm.requests, asm.incomplete);
        let summary = summarize(&asm.requests, asm.incomplete);
        black_box((jsonl.len(), classify_bottleneck(summary.shares())));
    }
    let wall = start.elapsed();
    Ok(Trip {
        wall,
        events: des_events() - before,
        report,
    })
}

/// Apply the output oracles to a trip and return its fingerprint. Every
/// rank must finish; a traced trip must have no incomplete request and
/// every request's queue + service + device + fabric must equal its
/// latency; a resilient trip must inject a failure and conserve bytes
/// (`acked = replicated + lost`).
pub fn check(case: &Case, trip: &Trip) -> Result<Fingerprint, String> {
    let report = &trip.report;
    let makespan = report.makespan().ok_or("a rank never finished")?;
    if case.workload.request_trace() {
        let asm = report.requests.as_ref().ok_or("no request trace")?;
        if asm.incomplete != 0 {
            return Err(format!("{} incomplete requests", asm.incomplete));
        }
        if let Some(r) = asm
            .requests
            .iter()
            .find(|r| r.breakdown().iter().sum::<u64>() != r.latency().as_nanos())
        {
            return Err(format!(
                "request {:#x} segments do not sum to latency",
                r.tid
            ));
        }
    }
    if case.workload.resilient() {
        let res = report.resilience.as_ref().ok_or("no resilience report")?;
        if res.failures_injected == 0 {
            return Err("no failure injected".into());
        }
        if !res.conserves_bytes() {
            return Err(format!(
                "acked {} != replicated {} + lost {}",
                res.acked_bytes, res.replicated_bytes, res.data_loss_bytes
            ));
        }
    }
    Ok(Fingerprint {
        events: trip.events,
        makespan_ns: makespan.as_nanos(),
        bytes_read: report.job.bytes_read(),
        bytes_written: report.job.bytes_written(),
        records: report.job.records.iter().map(Vec::len).sum::<usize>() as u64,
        requests: report
            .requests
            .as_ref()
            .map_or(0, |a| a.requests.len() as u64),
    })
}

/// Simulated outputs and counts read off a report, by per-layer metric
/// name. They are identical on both trip paths and move only when the
/// model changes.
pub fn report_counts(report: &MeasurementReport) -> Vec<(&'static str, f64)> {
    let mut out = vec![
        (
            "iostack.makespan_ms",
            report.makespan().map_or(0.0, |m| m.as_nanos() as f64 / 1e6),
        ),
        (
            "trace.records",
            report.job.records.iter().map(Vec::len).sum::<usize>() as f64,
        ),
    ];
    if report.gateways.is_empty() {
        out.push(("pfs.mds_ops", report.mds_ops as f64));
    } else {
        let p99 = report.gateways.iter().map(|g| g.queue_p99).max();
        out.push((
            "objstore.gateway_wait_p99_us",
            p99.map_or(0.0, |d| d.as_nanos() as f64 / 1e3),
        ));
    }
    if let Some(res) = &report.resilience {
        out.push(("resil.failures", res.failures_injected as f64));
        out.push(("resil.acked_mb", res.acked_bytes as f64 / 1e6));
        out.push(("resil.lost_mb", res.data_loss_bytes as f64 / 1e6));
    }
    if let Some(asm) = &report.requests {
        let summary = summarize(&asm.requests, asm.incomplete);
        out.push(("reqtrace.requests", asm.requests.len() as f64));
        out.push((
            "reqtrace.p99_us",
            summary.latency.p99.as_nanos() as f64 / 1e3,
        ));
    }
    out
}

/// Name of a decomposed trip's root span. Its self time (the trip minus
/// its stages: statistics, system analysis, drops and glue) is
/// `core.self_ms`.
pub const ROOT_SPAN: &str = "core.trip";

/// One timed interval of a decomposed trip.
#[derive(Clone, Debug)]
pub struct Span {
    /// The trip this span belongs to.
    pub trip: u32,
    /// Unique id within the recorder.
    pub id: u32,
    /// The enclosing span (`None` for a trip's root).
    pub parent: Option<u32>,
    /// Stage name, e.g. `des.simulate`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Keeps the spans of every decomposed trip in memory.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, trip: u32, parent: Option<u32>, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trip,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name` under `parent`.
    fn stage<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let trip = self.spans[parent as usize].trip;
        let id = self.open(trip, Some(parent), name);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"trip\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                     \"start_ns\":{},\"end_ns\":{}}}\n",
                    s.trip, s.id, s.name, s.start_ns, s.end_ns
                )
            })
            .collect()
    }
}

/// Each span's self time: its duration minus its children's, as
/// `(name, ns)`.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| (s.name, s.dur_ns().saturating_sub(c)))
        .collect()
}

/// A decomposed trip: the trip itself plus the per-layer observations
/// only the stage-by-stage path can make.
pub struct Decomposed {
    /// The trip; its wall time is the root span's duration.
    pub trip: Trip,
    /// Per-layer observations by metric name.
    pub values: Vec<(&'static str, f64)>,
}

/// Resident-set figures of this process from `/proc/self/status`, in
/// kB (0 where the file does not exist).
pub fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// kB (as `/proc` reports them) to MB (10^6 bytes).
pub(crate) fn kb_to_mb(kb: u64) -> f64 {
    kb as f64 * 1024.0 / 1e6
}

/// One trip through the public stages, each inside a span of `tracer`
/// (trip id `trip_id`). Mirrors `measure_target_instrumented` call for
/// call, then adds the request-trace outputs as [`plain_trip`] does.
pub fn decomposed_trip(
    case: &Case,
    tracer: &mut Tracer,
    trip_id: u32,
) -> Result<Decomposed, String> {
    let w = case.workload;
    let root = tracer.open(trip_id, None, ROOT_SPAN);
    let source = if w.is_dsl() {
        tracer.stage(root, "lint.check", || w.source())?
    } else {
        w.source()?
    };
    let mut target = tracer
        .stage(root, "core.build", || case.target.build())
        .map_err(|e| e.to_string())?;
    let programs = tracer.stage(root, "workloads.lower", || {
        source.programs(case.ranks, case.seed)
    });
    let ops = programs.iter().map(Vec::len).sum::<usize>();
    let spec = JobSpec {
        programs,
        stack: StackConfig::default(),
        start: SimTime::ZERO,
    };
    let handle = tracer.stage(root, "iostack.launch", || {
        let handle = launch_on(&mut target, &spec);
        if w.request_trace() {
            enable_request_trace(&mut target, &handle);
        }
        handle
    });
    let profiled = matches!(case.exec, ExecMode::Parallel(_));
    let (run, exec_profile) = tracer.stage(root, "des.simulate", || {
        if profiled {
            target.run_exec_profiled(&case.exec)
        } else {
            (target.run_exec(&case.exec), None)
        }
    });
    let rss_after_simulate = status_kb("VmRSS");
    let mut marks = 0;
    let requests = w.request_trace().then(|| {
        let events = tracer.stage(root, "reqtrace.drain", || {
            drain_request_events(&mut target, &handle)
        });
        marks = events.len();
        tracer.stage(root, "reqtrace.assemble", || assemble(&events))
    });
    let job = tracer.stage(root, "iostack.collect", || collect_on(&target, &handle));
    let (all_records, profile) = tracer.stage(root, "trace.profile", || {
        (job.all_records(), job.merged_profile())
    });
    let dxt = tracer.stage(root, "trace.dxt", || DxtTrace::from_records(&all_records));
    let (servers, mds_ops, fabrics, burst_buffers, gateways) = match &mut target {
        StorageTarget::Pfs(c) => (
            c.oss_stats(),
            c.mds_requests(),
            c.fabric_stats(),
            c.ionode_stats(),
            Vec::new(),
        ),
        StorageTarget::ObjStore(c) => (
            c.storage_stats(),
            c.shard_requests(),
            c.fabric_stats(),
            Vec::new(),
            c.gateway_stats(),
        ),
    };
    let resilience = target.resilience();
    let timelines: Vec<_> = servers
        .iter()
        .flat_map(|s| s.timelines.iter().cloned())
        .collect();
    let analysis = SystemAnalysis::from_timelines(&timelines);
    drop((timelines, all_records, target, spec));
    let report = MeasurementReport {
        job,
        profile,
        dxt,
        servers,
        mds_ops,
        analysis,
        fabrics,
        burst_buffers,
        gateways,
        requests,
        resilience,
        exec_profile,
    };
    let mut values = vec![
        ("workloads.ops", ops as f64),
        ("des.events", run.events as f64),
        ("des.rss_mb", kb_to_mb(rss_after_simulate)),
    ];
    if let Some(asm) = &report.requests {
        let jsonl = tracer.stage(root, "reqtrace.write", || {
            write_jsonl(&asm.requests, asm.incomplete)
        });
        let rss = status_kb("VmRSS");
        tracer.stage(root, "reqtrace.summarize", || {
            let summary = summarize(&asm.requests, asm.incomplete);
            black_box(classify_bottleneck(summary.shares()));
        });
        values.push(("reqtrace.marks", marks as f64));
        values.push(("reqtrace.jsonl_mb", jsonl.len() as f64 / 1e6));
        values.push(("reqtrace.rss_mb", kb_to_mb(rss)));
    }
    tracer.close(root);
    let wall = Duration::from_nanos(tracer.spans[root as usize].dur_ns());

    if let Some(prof) = &report.exec_profile {
        let a = analyze_profile(prof);
        let worker_windows: u64 = prof.workers.iter().map(|w| w.windows).sum();
        let null_windows: u64 = prof.workers.iter().map(|w| w.null_windows).sum();
        values.extend([
            ("des.windows", a.windows as f64),
            (
                "des.events_per_window",
                run.events as f64 / a.windows.max(1) as f64,
            ),
            (
                "des.null_window_share",
                null_windows as f64 / worker_windows.max(1) as f64,
            ),
            ("des.parallel_efficiency", a.parallel_efficiency),
            ("des.stall_share", a.stall_share),
            ("des.barrier_share", a.barrier_share),
            ("des.ceiling_inf_lookahead", a.ceiling_infinite_lookahead),
        ]);
    }
    values.extend(report_counts(&report));
    Ok(Decomposed {
        trip: Trip {
            wall,
            events: run.events,
            report,
        },
        values,
    })
}

/// Entity-name prefix → per-layer metric for per-entity event counts.
pub const ENTITY_KINDS: [(&str, &str); 11] = [
    ("rank", "iostack.events.rank"),
    ("coordinator", "iostack.events.coordinator"),
    ("compute-fabric", "pfs.events.compute_fabric"),
    ("storage-fabric", "pfs.events.storage_fabric"),
    ("mds", "pfs.events.mds"),
    ("oss", "pfs.events.oss"),
    ("ionode", "pfs.events.ionode"),
    ("repl-fabric", "resil.events.repl_fabric"),
    ("gateway", "objstore.events.gateway"),
    ("shard", "objstore.events.shard"),
    ("node", "objstore.events.node"),
];

/// Run the case once with per-entity event counting (sequential) and
/// sum the counts by entity kind, as `(metric, events)` in
/// [`ENTITY_KINDS`] order. Errors on an entity of unknown kind.
pub fn entity_events(case: &Case) -> Result<Vec<(&'static str, u64)>, String> {
    let source = case.workload.source()?;
    let mut target = case.target.build().map_err(|e| e.to_string())?;
    let spec = JobSpec {
        programs: source.programs(case.ranks, case.seed),
        stack: StackConfig::default(),
        start: SimTime::ZERO,
    };
    let handle = launch_on(&mut target, &spec);
    if case.workload.request_trace() {
        enable_request_trace(&mut target, &handle);
    }
    let (sim, counts) = match &mut target {
        StorageTarget::Pfs(c) => {
            let (_, counts) = c.run_counted();
            (&c.sim, counts)
        }
        StorageTarget::ObjStore(c) => {
            let (_, counts) = c.run_counted();
            (&c.sim, counts)
        }
    };
    let mut sums = ENTITY_KINDS.map(|(_, metric)| (metric, 0u64));
    for (i, n) in counts.into_iter().enumerate() {
        let name = sim.entity_name(pioeval::des::EntityId(i as u32));
        let kind = name.trim_end_matches(|c: char| c.is_ascii_digit());
        let slot = ENTITY_KINDS
            .iter()
            .position(|&(k, _)| k == kind)
            .ok_or_else(|| format!("entity `{name}` has no layer"))?;
        sums[slot].1 += n;
    }
    Ok(sums.to_vec())
}
