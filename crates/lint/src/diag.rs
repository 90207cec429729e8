//! Diagnostic primitives: stable codes, severities, source spans, and
//! report rendering (human and JSON).

use pioeval_obs::export::esc;
use std::fmt;

/// Stable diagnostic codes. The `PIO0xx` string of each code is part of
/// the tool's public contract — scripts grep for them — so codes are
/// never renumbered; retired codes are left unassigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// PIO001: input could not be parsed at all.
    Syntax,
    /// PIO010: statement references a file that was never declared.
    UndeclaredFile,
    /// PIO011: file declared but never referenced.
    UnusedFile,
    /// PIO012: `create` on a file that is already open.
    DoubleCreate,
    /// PIO013: operation on a file before it is created or opened.
    IoBeforeCreate,
    /// PIO014: operation on a file after it was closed.
    UseAfterClose,
    /// PIO015: file still open at end of program.
    NeverClosed,
    /// PIO016: data operation transfers zero bytes.
    ZeroSize,
    /// PIO017: data operation with `x0` repeat count (a no-op).
    ZeroCount,
    /// PIO018: `repeat 0` block (dead code).
    EmptyRepeat,
    /// PIO019: sequential access runs past the rank's lane on a shared
    /// file, spilling into the next rank's lane.
    LaneOverflow,
    /// PIO020: two ranks write overlapping byte ranges of a shared file
    /// with no barrier ordering the writes.
    SharedWriteRace,
    /// PIO021: a `barrier` executes on only a subset of ranks (inside an
    /// `onrank` block), so barrier counts diverge across ranks and the
    /// program deadlocks at run time.
    RankDivergentBarrier,
    /// PIO022: statement is unreachable (inside `repeat 0`, or inside
    /// `onrank` blocks guarding contradictory ranks).
    UnreachableCode,
    /// PIO023: read of a byte range no statement ever writes (on a file
    /// created, not opened, by this program — so it starts empty).
    ReadNeverWritten,
    /// PIO024: the cursor runs past the file's declared `size`.
    CursorPastDeclaredSize,
    /// PIO030: stripe count exceeds the number of OSTs (will be clamped).
    StripeOverOsts,
    /// PIO031: zero stripe size or stripe count.
    ZeroStripe,
    /// PIO032: fabric with zero link bandwidth.
    ZeroFabricBw,
    /// PIO033: storage device with zero bandwidth.
    ZeroDeviceBw,
    /// PIO034: engine lookahead is zero, or a fabric latency is below
    /// the lookahead (either stalls / breaks the conservative engine).
    BadLookahead,
    /// PIO035: burst-buffer capacity smaller than one stripe.
    BurstBufferTooSmall,
    /// PIO036: structurally empty cluster (zero clients/servers/...).
    StructuralZero,
    /// PIO040: workflow stage reads from itself or a later stage.
    DagCycle,
    /// PIO041: workflow stage reads from a stage index that does not exist.
    DagDangling,
    /// PIO042: non-final workflow stage whose outputs nothing reads.
    DagDeadStage,
    /// PIO043: workflow stage reads from a stage that produces no files.
    DagEmptyUpstream,
    /// PIO044: interference campaign declares fewer than two jobs.
    CampaignTooFewJobs,
    /// PIO045: campaign job references a workload that was never declared.
    CampaignUnknownWorkload,
    /// PIO050: replication factor exceeds the number of storage nodes.
    ObjReplicationExceedsNodes,
    /// PIO051: object-store part size is zero.
    ObjZeroPartSize,
    /// PIO052: object store configured with no gateways.
    ObjNoGateways,
    /// PIO053: erasure width (data + parity) exceeds the storage nodes.
    ObjErasureExceedsNodes,
    /// PIO060: a live/trace output path points inside `target/` (wiped
    /// by `cargo clean`, ignored by git — almost always a mistake).
    OutputInTarget,
    /// PIO061: a live/trace output path is not writable at pre-flight,
    /// so a long campaign would only fail at finalize.
    OutputNotWritable,
    /// PIO070: the write-ack policy and replication setting disagree
    /// (waiting for a replica that can never exist, or replication on a
    /// backend where the ack mode has no effect).
    ResilAckReplicaMismatch,
    /// PIO071: geographic ack mode with a malformed site latency matrix
    /// (not square, missing sites, or asymmetric).
    ResilGeoMatrixInvalid,
    /// PIO072: a failure is scheduled beyond the stated horizon, or an
    /// MTBF schedule has no horizon to draw from.
    ResilFailureBeyondHorizon,
    /// PIO073: a failure targets an entity the cluster does not have.
    ResilFailureTargetMissing,
}

impl Code {
    /// The stable `PIO0xx` identifier.
    pub const fn as_str(self) -> &'static str {
        match self {
            Code::Syntax => "PIO001",
            Code::UndeclaredFile => "PIO010",
            Code::UnusedFile => "PIO011",
            Code::DoubleCreate => "PIO012",
            Code::IoBeforeCreate => "PIO013",
            Code::UseAfterClose => "PIO014",
            Code::NeverClosed => "PIO015",
            Code::ZeroSize => "PIO016",
            Code::ZeroCount => "PIO017",
            Code::EmptyRepeat => "PIO018",
            Code::LaneOverflow => "PIO019",
            Code::SharedWriteRace => "PIO020",
            Code::RankDivergentBarrier => "PIO021",
            Code::UnreachableCode => "PIO022",
            Code::ReadNeverWritten => "PIO023",
            Code::CursorPastDeclaredSize => "PIO024",
            Code::StripeOverOsts => "PIO030",
            Code::ZeroStripe => "PIO031",
            Code::ZeroFabricBw => "PIO032",
            Code::ZeroDeviceBw => "PIO033",
            Code::BadLookahead => "PIO034",
            Code::BurstBufferTooSmall => "PIO035",
            Code::StructuralZero => "PIO036",
            Code::DagCycle => "PIO040",
            Code::DagDangling => "PIO041",
            Code::DagDeadStage => "PIO042",
            Code::DagEmptyUpstream => "PIO043",
            Code::CampaignTooFewJobs => "PIO044",
            Code::CampaignUnknownWorkload => "PIO045",
            Code::ObjReplicationExceedsNodes => "PIO050",
            Code::ObjZeroPartSize => "PIO051",
            Code::ObjNoGateways => "PIO052",
            Code::ObjErasureExceedsNodes => "PIO053",
            Code::OutputInTarget => "PIO060",
            Code::OutputNotWritable => "PIO061",
            Code::ResilAckReplicaMismatch => "PIO070",
            Code::ResilGeoMatrixInvalid => "PIO071",
            Code::ResilFailureBeyondHorizon => "PIO072",
            Code::ResilFailureTargetMissing => "PIO073",
        }
    }

    /// Every assigned code, in `PIO0xx` order. Drives `--explain`
    /// listings and the uniqueness test.
    pub const ALL: &'static [Code] = &[
        Code::Syntax,
        Code::UndeclaredFile,
        Code::UnusedFile,
        Code::DoubleCreate,
        Code::IoBeforeCreate,
        Code::UseAfterClose,
        Code::NeverClosed,
        Code::ZeroSize,
        Code::ZeroCount,
        Code::EmptyRepeat,
        Code::LaneOverflow,
        Code::SharedWriteRace,
        Code::RankDivergentBarrier,
        Code::UnreachableCode,
        Code::ReadNeverWritten,
        Code::CursorPastDeclaredSize,
        Code::StripeOverOsts,
        Code::ZeroStripe,
        Code::ZeroFabricBw,
        Code::ZeroDeviceBw,
        Code::BadLookahead,
        Code::BurstBufferTooSmall,
        Code::StructuralZero,
        Code::DagCycle,
        Code::DagDangling,
        Code::DagDeadStage,
        Code::DagEmptyUpstream,
        Code::CampaignTooFewJobs,
        Code::CampaignUnknownWorkload,
        Code::ObjReplicationExceedsNodes,
        Code::ObjZeroPartSize,
        Code::ObjNoGateways,
        Code::ObjErasureExceedsNodes,
        Code::OutputInTarget,
        Code::OutputNotWritable,
        Code::ResilAckReplicaMismatch,
        Code::ResilGeoMatrixInvalid,
        Code::ResilFailureBeyondHorizon,
        Code::ResilFailureTargetMissing,
    ];

    /// Look up a code by its `PIO0xx` identifier (case-insensitive).
    pub fn parse(s: &str) -> Option<Code> {
        let s = s.to_ascii_uppercase();
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// A short title for the code (the first line of `--explain`).
    pub const fn title(self) -> &'static str {
        match self {
            Code::Syntax => "input could not be parsed",
            Code::UndeclaredFile => "reference to an undeclared file",
            Code::UnusedFile => "file declared but never used",
            Code::DoubleCreate => "create of a file that is already open",
            Code::IoBeforeCreate => "operation before the file is created or opened",
            Code::UseAfterClose => "operation after the file was closed",
            Code::NeverClosed => "file still open at end of program",
            Code::ZeroSize => "data operation transfers zero bytes",
            Code::ZeroCount => "data operation repeated zero times",
            Code::EmptyRepeat => "`repeat 0` block never executes",
            Code::LaneOverflow => "access runs past the rank's lane",
            Code::SharedWriteRace => "cross-rank overlapping writes with no barrier",
            Code::RankDivergentBarrier => "barrier reached by a subset of ranks",
            Code::UnreachableCode => "statement can never execute",
            Code::ReadNeverWritten => "read of a byte range nothing writes",
            Code::CursorPastDeclaredSize => "access past the declared file size",
            Code::StripeOverOsts => "stripe count exceeds the OST count",
            Code::ZeroStripe => "zero stripe size or stripe count",
            Code::ZeroFabricBw => "fabric link with zero bandwidth",
            Code::ZeroDeviceBw => "storage device with zero bandwidth",
            Code::BadLookahead => "lookahead is zero or exceeds a fabric latency",
            Code::BurstBufferTooSmall => "burst buffer smaller than one stripe",
            Code::StructuralZero => "structurally empty cluster or job",
            Code::DagCycle => "workflow stage reads itself or a later stage",
            Code::DagDangling => "workflow stage reads a missing stage",
            Code::DagDeadStage => "workflow stage output nothing reads",
            Code::DagEmptyUpstream => "workflow stage reads a stage with no files",
            Code::CampaignTooFewJobs => "campaign with fewer than two jobs",
            Code::CampaignUnknownWorkload => "job references an unknown workload",
            Code::ObjReplicationExceedsNodes => "replication factor exceeds storage nodes",
            Code::ObjZeroPartSize => "object-store part size is zero",
            Code::ObjNoGateways => "object store with no gateways",
            Code::ObjErasureExceedsNodes => "erasure width exceeds storage nodes",
            Code::OutputInTarget => "output path inside target/",
            Code::OutputNotWritable => "output path not writable",
            Code::ResilAckReplicaMismatch => "ack policy and replication disagree",
            Code::ResilGeoMatrixInvalid => "geographic site matrix is malformed",
            Code::ResilFailureBeyondHorizon => "failure scheduled beyond the horizon",
            Code::ResilFailureTargetMissing => "failure targets a missing entity",
        }
    }

    /// A multi-line explanation of what the code means, why it matters,
    /// and how the analysis finds it (`pioeval lint --explain PIO0xx`).
    pub const fn explain(self) -> &'static str {
        match self {
            Code::Syntax => {
                "The input failed to parse; nothing else can be checked. The parse\n\
                 error (with its source line) is included in the message."
            }
            Code::UndeclaredFile => {
                "A statement names a file with no `file <name> ...` declaration.\n\
                 Expansion would have no lane or scope to assign, so this is an error."
            }
            Code::UnusedFile => {
                "The file is declared but no statement references it. Usually a typo\n\
                 in a statement (which then also raises PIO010) or leftover cruft."
            }
            Code::DoubleCreate => {
                "`create` ran while the file was already open — commonly a `create`\n\
                 inside a `repeat` block that should sit before the loop."
            }
            Code::IoBeforeCreate => {
                "A data or handle operation ran before any `create`/`open`. The\n\
                 lifecycle pass runs the open/close state machine over every path,\n\
                 executing `repeat` bodies twice so cross-iteration bugs surface."
            }
            Code::UseAfterClose => {
                "A data or handle operation ran after `close`. See PIO013 for how\n\
                 the lifecycle pass walks the program."
            }
            Code::NeverClosed => {
                "The file is still open when the program ends. Harmless for the\n\
                 simulator but usually indicates a missing `close`."
            }
            Code::ZeroSize => {
                "A read or write transfers 0 bytes. The simulator would accept it\n\
                 but it almost certainly means a bad size literal."
            }
            Code::ZeroCount => "`x0` makes the statement a no-op; dead code, warning only.",
            Code::EmptyRepeat => {
                "`repeat 0` never runs its body. The body is also reported\n\
                 unreachable (PIO022) via the control-flow graph."
            }
            Code::LaneOverflow => {
                "On a shared file each rank owns the byte lane\n\
                 [rank*lane, (rank+1)*lane). The abstract interpreter tracks every\n\
                 cursor as a strided interval (base + k*stride per loop level) and\n\
                 flags accesses whose closed-form maximum leaves the lane. Spilling\n\
                 into a neighbour's lane is legal but usually unintended — and a\n\
                 race (PIO020) if the neighbour writes there in the same epoch."
            }
            Code::SharedWriteRace => {
                "Two ranks write overlapping bytes of a shared file in the same\n\
                 barrier epoch, so the final contents depend on scheduling. The\n\
                 detector works on the program's control-flow graph: write ranges\n\
                 are strided intervals in closed form (no loop unrolling, no\n\
                 iteration budget), epochs are affine in loop counters, and the\n\
                 cross-rank shift is solved exactly over all rank distances — the\n\
                 result is sound for any rank count."
            }
            Code::RankDivergentBarrier => {
                "A `barrier` sits inside an `onrank` block, so only that rank\n\
                 arrives at the collective while every other rank skips it. Barrier\n\
                 counts diverge across ranks and the program deadlocks at run time."
            }
            Code::UnreachableCode => {
                "The statement can never execute: its basic block is unreachable in\n\
                 the control-flow graph (a `repeat 0` body) or its `onrank` guards\n\
                 contradict (nested `onrank` with different ranks)."
            }
            Code::ReadNeverWritten => {
                "A read covers a byte range that no statement in the program writes,\n\
                 on a file the program itself creates (so it starts empty). The\n\
                 simulator will happily read zeroes; real benchmarks usually intend\n\
                 to read data written earlier. Files `open`ed (pre-existing) are\n\
                 exempt. Best-effort: rank-guarded writes are credited to all ranks."
            }
            Code::CursorPastDeclaredSize => {
                "The file declares `size <bytes>` and some access's closed-form\n\
                 maximum reaches past it. For shared files the per-rank lane\n\
                 [0, lane) is checked against the declared size as well."
            }
            Code::StripeOverOsts => {
                "layout.stripe_count exceeds the number of OSTs; the simulator\n\
                 clamps it, so declared and effective layout disagree."
            }
            Code::ZeroStripe => "A zero stripe size or stripe count makes striping undefined.",
            Code::ZeroFabricBw => "A fabric link with zero bandwidth would never drain.",
            Code::ZeroDeviceBw => "A storage device with zero bandwidth would never drain.",
            Code::BadLookahead => {
                "The conservative parallel engine requires 0 < lookahead <= every\n\
                 cross-node fabric latency; violating either stalls or breaks it."
            }
            Code::BurstBufferTooSmall => {
                "A burst buffer smaller than one stripe cannot absorb any write."
            }
            Code::StructuralZero => {
                "A structurally empty configuration: zero clients, servers, or job\n\
                 ranks. Nothing can be simulated."
            }
            Code::DagCycle => {
                "Workflow stages execute in index order; a stage reading its own or\n\
                 a later stage's output can never be satisfied."
            }
            Code::DagDangling => "The stage reads from a stage index that does not exist.",
            Code::DagDeadStage => {
                "A non-final stage writes files that no later stage reads; its\n\
                 output is dead weight in the pipeline."
            }
            Code::DagEmptyUpstream => {
                "The stage reads from a stage that produces zero files per rank."
            }
            Code::CampaignTooFewJobs => {
                "An interference campaign needs at least two concurrent jobs to\n\
                 measure cross-job slowdown."
            }
            Code::CampaignUnknownWorkload => {
                "A `job` line names a workload block that was never declared."
            }
            Code::ObjReplicationExceedsNodes => {
                "Replication factor exceeds the number of storage nodes, so some\n\
                 replicas would share a node (no extra durability)."
            }
            Code::ObjZeroPartSize => "Multipart uploads with a zero part size make no progress.",
            Code::ObjNoGateways => "Every object request passes a gateway; zero gateways stall.",
            Code::ObjErasureExceedsNodes => {
                "data + parity shards exceed the storage nodes, so shards share\n\
                 nodes and the code cannot tolerate a node loss."
            }
            Code::OutputInTarget => {
                "The output path points inside target/ — wiped by `cargo clean`,\n\
                 ignored by git; almost always a mistake."
            }
            Code::OutputNotWritable => {
                "Pre-flight probed the output path (opening the file if it exists,\n\
                 otherwise creating and removing a sibling probe file) and the OS\n\
                 refused; a long campaign would only fail at finalize. The message\n\
                 carries the OS error string."
            }
            Code::ResilAckReplicaMismatch => {
                "The write-ack policy waits for replica acknowledgements\n\
                 (local_plus_one or geographic) but the configuration cannot\n\
                 provide one: replication below 2, or fewer than two I/O nodes\n\
                 to replicate between. Writes would ACK exactly as local_only\n\
                 does while the report claims a stronger policy. On the\n\
                 object-store backend the ack mode has no effect at all —\n\
                 durability there comes from placement width."
            }
            Code::ResilGeoMatrixInvalid => {
                "The geographic ack mode reads the cross-site latency from the\n\
                 site matrix; a matrix that is not square, names fewer than two\n\
                 sites, or is asymmetric gives the replica leg an undefined or\n\
                 direction-dependent cost. Missing/non-square matrices are\n\
                 errors; asymmetry is a warning (the maximum entry is used)."
            }
            Code::ResilFailureBeyondHorizon => {
                "A scripted failure fires after the schedule's stated horizon\n\
                 (it will still fire — the horizon only bounds MTBF sampling),\n\
                 or an MTBF schedule has a zero horizon and so can never draw\n\
                 an event. The former is a warning, the latter an error."
            }
            Code::ResilFailureTargetMissing => {
                "A scripted failure names a target index outside the cluster\n\
                 (node beyond the I/O-node or storage-node count, gateway\n\
                 beyond the gateway count), or a failure kind the backend\n\
                 cannot express (gateway/degraded-read failures on the PFS\n\
                 path, I/O-node semantics on a store without that tier). The\n\
                 simulator skips such events, so the run would silently\n\
                 measure less than the schedule promises."
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but runnable; reported, does not fail the lint.
    Warning,
    /// The input is wrong; `pioeval run` refuses to start.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// 1-based source line, when the input has lines (DSL only).
    pub line: Option<u32>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => {
                write!(
                    f,
                    "{} [{}] line {}: {}",
                    self.severity, self.code, n, self.message
                )
            }
            None => write!(f, "{} [{}] {}", self.severity, self.code, self.message),
        }
    }
}

/// The outcome of linting one input.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, in source order where lines exist.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an error.
    pub fn error(&mut self, code: Code, line: Option<u32>, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            line,
        });
    }

    /// Record a warning.
    pub fn warn(&mut self, code: Code, line: Option<u32>, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            line,
        });
    }

    /// Fold another report's findings into this one.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True when no error-severity findings exist (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// True when a finding with `code` exists.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Sort findings by line (unspanned findings last), then by code.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by_key(|d| (d.line.unwrap_or(u32::MAX), d.code));
    }

    /// Render for terminals: one line per finding plus a summary.
    ///
    /// `input` names the linted source (file path or `<config>`).
    pub fn render_human(&self, input: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            match d.line {
                Some(n) => out.push_str(&format!(
                    "{}:{}: {} [{}] {}\n",
                    input, n, d.severity, d.code, d.message
                )),
                None => out.push_str(&format!(
                    "{}: {} [{}] {}\n",
                    input, d.severity, d.code, d.message
                )),
            }
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s)\n",
            input,
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Render as a JSON object:
    /// `{"errors": N, "warnings": N, "diagnostics": [{code, severity,
    /// line?, message}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.warning_count()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",",
                d.code, d.severity
            ));
            if let Some(n) = d.line {
                out.push_str(&format!("\"line\":{n},"));
            }
            out.push_str(&format!("\"message\":\"{}\"}}", esc(&d.message)));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &c in Code::ALL {
            let s = c.as_str();
            assert!(s.starts_with("PIO"), "{s}");
            assert_eq!(s.len(), 6, "{s}");
            assert!(seen.insert(s), "duplicate code {s}");
            assert!(!c.title().is_empty());
            assert!(!c.explain().is_empty());
            assert_eq!(Code::parse(s), Some(c));
            assert_eq!(Code::parse(&s.to_ascii_lowercase()), Some(c));
        }
        assert_eq!(seen.len(), Code::ALL.len());
        assert_eq!(Code::parse("PIO999"), None);
        // New codes slot into the DSL range in order.
        assert_eq!(Code::RankDivergentBarrier.as_str(), "PIO021");
        assert_eq!(Code::UnreachableCode.as_str(), "PIO022");
        assert_eq!(Code::ReadNeverWritten.as_str(), "PIO023");
        assert_eq!(Code::CursorPastDeclaredSize.as_str(), "PIO024");
    }

    #[test]
    fn report_counts_and_rendering() {
        let mut r = LintReport::new();
        r.warn(Code::LaneOverflow, Some(7), "spills into next lane");
        r.error(Code::UndeclaredFile, Some(3), "undeclared file `x`");
        r.error(Code::ZeroStripe, None, "stripe_size is 0");
        assert_eq!(r.error_count(), 2);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean());
        assert!(r.has(Code::LaneOverflow));
        assert!(!r.has(Code::DagCycle));
        r.sort();
        assert_eq!(r.diagnostics[0].line, Some(3));
        assert_eq!(r.diagnostics[2].line, None);
        let human = r.render_human("a.pio");
        assert!(human.contains("a.pio:3: error [PIO010]"));
        assert!(human.contains("2 error(s), 1 warning(s)"));
        let json = r.to_json();
        assert!(json.contains("\"errors\":2"));
        assert!(json.contains("\"code\":\"PIO019\""));
        assert!(json.contains("\"line\":7"));
    }

    #[test]
    fn json_escapes_messages() {
        let mut r = LintReport::new();
        r.error(Code::Syntax, None, "bad \"quote\"\nnewline");
        let json = r.to_json();
        assert!(json.contains("bad \\\"quote\\\"\\nnewline"));
    }
}
