//! The rank entity: interprets a compiled action list against the
//! storage simulator, emitting layer records and counters as it goes.

use crate::config::CaptureConfig;
use crate::plan::{Action, RELEASE_TAG};
use crate::target::StoragePort;
use pioeval_des::{Ctx, Entity, EntityId, Envelope};
use pioeval_pfs::msg::{payload_bytes, PfsMsg, RequestId};
use pioeval_trace::JobProfile;
use pioeval_types::{
    tid_for, FileId, IoKind, Layer, LayerRecord, Rank, RecordOp, ReqMark, ReqOp, SimDuration,
    SimTime, NO_COLLECTIVE,
};
use std::collections::{HashMap, HashSet};

/// Always-on cheap counters (the "profile mode" floor of Sec. IV-A2).
#[derive(Clone, Copy, Debug, Default)]
pub struct RankCounters {
    /// POSIX-level read calls.
    pub posix_reads: u64,
    /// POSIX-level write calls.
    pub posix_writes: u64,
    /// POSIX-level metadata calls.
    pub posix_meta: u64,
    /// Bytes read at the POSIX level.
    pub bytes_read: u64,
    /// Bytes written at the POSIX level.
    pub bytes_written: u64,
    /// Wall time spent inside data calls.
    pub time_in_data: SimDuration,
    /// Wall time spent inside metadata calls.
    pub time_in_meta: SimDuration,
    /// Wall time spent waiting at barriers.
    pub time_in_barrier: SimDuration,
    /// Wall time spent computing.
    pub time_computing: SimDuration,
    /// Shuffle payload bytes sent (two-phase collective I/O).
    pub shuffle_bytes_sent: u64,
}

/// What the rank is currently blocked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Waiting {
    /// Ready to advance.
    None,
    /// Outstanding storage RPCs.
    Rpcs,
    /// A compute (or instrumentation-overhead) timer.
    Timer,
    /// A barrier release with this tag.
    Barrier(u64),
    /// Shuffle payload: (tag, bytes still expected).
    Shuffle(u64, u64),
}

const TOKEN_COMPUTE: u64 = 1;
const TOKEN_OVERHEAD: u64 = 2;

/// One rank of a job: interprets its compiled [`Action`] list.
pub struct RankClient {
    port: StoragePort,
    rank: Rank,
    coordinator: EntityId,
    /// Entity of rank 0; rank `r` is `first_rank + r` (shuffle sends).
    first_rank: EntityId,
    actions: Vec<Action>,
    pc: usize,
    waiting: Waiting,
    pending: HashSet<RequestId>,
    /// Shuffle bytes received, per tag (may arrive before the wait).
    received: HashMap<u64, u64>,
    /// Barrier releases received before the rank reached the barrier
    /// (possible when another event delays this rank's arrival).
    early_releases: HashSet<u64>,
    /// Open observation intervals: (layer, op, file, offset, len, start).
    record_stack: Vec<(Layer, RecordOp, FileId, u64, u64, SimTime)>,
    capture: CaptureConfig,
    overhead_debt: SimDuration,
    action_start: SimTime,
    /// Captured layer records.
    pub records: Vec<LayerRecord>,
    /// Always-on streaming Darshan-style profile (maintained even in
    /// profile-only capture mode — it IS the profile mode's product).
    pub profile: JobProfile,
    /// Always-on counters.
    pub counters: RankCounters,
    /// When the rank started executing.
    pub started_at: Option<SimTime>,
    /// When the rank finished its program.
    pub finished_at: Option<SimTime>,
    /// Collective instance the rank is currently inside, or
    /// [`NO_COLLECTIVE`]. SPMD programs open collectives in the same
    /// order on every rank, so the running count is a cross-rank-aligned
    /// instance index.
    active_collective: u32,
    /// Number of collective records opened so far.
    next_collective: u32,
}

impl RankClient {
    /// A rank entity executing `actions`. The job's ranks are the
    /// contiguous entity range that starts at `first_rank` (rank 0), so a
    /// shuffle send to rank `r` goes to entity `first_rank + r`.
    pub fn new(
        port: StoragePort,
        rank: Rank,
        coordinator: EntityId,
        first_rank: EntityId,
        actions: Vec<Action>,
        capture: CaptureConfig,
    ) -> Self {
        RankClient {
            port,
            rank,
            coordinator,
            first_rank,
            actions,
            pc: 0,
            waiting: Waiting::None,
            pending: HashSet::new(),
            received: HashMap::new(),
            early_releases: HashSet::new(),
            record_stack: Vec::new(),
            capture,
            overhead_debt: SimDuration::ZERO,
            action_start: SimTime::ZERO,
            records: Vec::new(),
            profile: JobProfile::new(),
            counters: RankCounters::default(),
            started_at: None,
            finished_at: None,
            active_collective: NO_COLLECTIVE,
            next_collective: 0,
        }
    }

    /// Record the client-side Issue mark for an outgoing RPC.
    fn mark_issue(
        &self,
        ctx: &mut Ctx<'_, PfsMsg>,
        id: RequestId,
        op: ReqOp,
        file: FileId,
        bytes: u64,
    ) {
        let mark = ReqMark::Issue {
            rank: self.rank.0,
            op,
            file: file.0,
            bytes,
            collective: self.active_collective,
            at: ctx.now(),
        };
        ctx.trace(tid_for(ctx.me().0, id), mark);
    }

    /// Feed the streaming profile (always) and retain the full record if
    /// its layer is captured (charging the per-record overhead).
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        layer: Layer,
        op: RecordOp,
        file: FileId,
        offset: u64,
        len: u64,
        start: SimTime,
        end: SimTime,
    ) {
        let record = LayerRecord {
            layer,
            rank: self.rank,
            file,
            op,
            offset,
            len,
            start,
            end,
        };
        self.profile.observe(&record);
        if self.capture.captures(layer) {
            self.records.push(record);
            self.overhead_debt += self.capture.overhead_per_record;
        }
    }

    /// Advance through actions until one blocks.
    fn advance(&mut self, ctx: &mut Ctx<'_, PfsMsg>) {
        self.waiting = Waiting::None;
        loop {
            // Pay any accumulated instrumentation overhead first.
            if !self.overhead_debt.is_zero() {
                let debt = self.overhead_debt;
                self.overhead_debt = SimDuration::ZERO;
                self.waiting = Waiting::Timer;
                ctx.send_self(
                    debt,
                    PfsMsg::Timer {
                        token: TOKEN_OVERHEAD,
                    },
                );
                return;
            }
            if self.pc >= self.actions.len() {
                if self.finished_at.is_none() {
                    self.finished_at = Some(ctx.now());
                }
                return;
            }
            let action = self.actions[self.pc].clone();
            self.action_start = ctx.now();
            match action {
                Action::RecordStart {
                    layer,
                    op,
                    file,
                    offset,
                    len,
                } => {
                    if matches!(op, RecordOp::CollectiveData(_)) {
                        self.active_collective = self.next_collective;
                        self.next_collective += 1;
                    }
                    self.record_stack
                        .push((layer, op, file, offset, len, ctx.now()));
                    self.pc += 1;
                }
                Action::RecordEnd => {
                    let (layer, op, file, offset, len, start) = self
                        .record_stack
                        .pop()
                        .expect("RecordEnd without RecordStart");
                    if matches!(op, RecordOp::CollectiveData(_)) {
                        self.active_collective = NO_COLLECTIVE;
                    }
                    self.emit(layer, op, file, offset, len, start, ctx.now());
                    self.pc += 1;
                }
                Action::Compute { dur } => {
                    self.waiting = Waiting::Timer;
                    ctx.send_self(
                        dur,
                        PfsMsg::Timer {
                            token: TOKEN_COMPUTE,
                        },
                    );
                    return;
                }
                Action::Meta { op, file } => {
                    let (hop, msg, id) = self.port.meta(op, file);
                    if ctx.tracing() {
                        self.mark_issue(ctx, id, ReqOp::Meta(op), file, 0);
                    }
                    self.pending.insert(id);
                    self.waiting = Waiting::Rpcs;
                    ctx.send(hop, ctx.lookahead(), msg);
                    return;
                }
                Action::Data {
                    kind,
                    file,
                    offset,
                    len,
                } => {
                    if len == 0 {
                        self.pc += 1;
                        continue;
                    }
                    let rpcs = self
                        .port
                        .data(kind, file, offset, len)
                        .expect("data access to a file this rank never opened");
                    let op = match kind {
                        IoKind::Read => ReqOp::Read,
                        IoKind::Write => ReqOp::Write,
                    };
                    for (hop, msg, id) in rpcs {
                        if ctx.tracing() {
                            self.mark_issue(ctx, id, op, file, payload_bytes(&msg));
                        }
                        self.pending.insert(id);
                        ctx.send(hop, ctx.lookahead(), msg);
                    }
                    self.waiting = Waiting::Rpcs;
                    return;
                }
                Action::BarrierEnter { tag } => {
                    if self.early_releases.remove(&tag) {
                        // Release already arrived (we were the last to
                        // finish other work): pass straight through.
                        self.finish_barrier(ctx.now(), ctx.now());
                        self.pc += 1;
                        continue;
                    }
                    let (hop, msg) = self.port.app(self.coordinator, tag, 0);
                    ctx.send(hop, ctx.lookahead(), msg);
                    self.waiting = Waiting::Barrier(tag);
                    return;
                }
                Action::ShuffleSend {
                    to_rank,
                    bytes,
                    tag,
                } => {
                    let dst = EntityId(self.first_rank.0 + to_rank);
                    let (hop, msg) = self.port.app(dst, tag, bytes);
                    self.counters.shuffle_bytes_sent += bytes;
                    ctx.send(hop, ctx.lookahead(), msg);
                    self.pc += 1;
                }
                Action::ShuffleWait { tag, expect_bytes } => {
                    let got = self.received.get(&tag).copied().unwrap_or(0);
                    if got >= expect_bytes {
                        self.received.remove(&tag);
                        self.pc += 1;
                        continue;
                    }
                    self.waiting = Waiting::Shuffle(tag, expect_bytes);
                    return;
                }
            }
        }
    }

    fn finish_barrier(&mut self, start: SimTime, end: SimTime) {
        self.counters.time_in_barrier += end.since(start);
        self.emit(
            Layer::Application,
            RecordOp::Barrier,
            FileId::new(u32::MAX),
            0,
            0,
            start,
            end,
        );
    }

    /// Complete the currently-blocking Data/Meta action.
    fn complete_storage_action(&mut self, ctx: &mut Ctx<'_, PfsMsg>) {
        let start = self.action_start;
        let end = ctx.now();
        match self.actions[self.pc].clone() {
            Action::Meta { op, file } => {
                self.counters.posix_meta += 1;
                self.counters.time_in_meta += end.since(start);
                self.emit(Layer::Posix, RecordOp::Meta(op), file, 0, 0, start, end);
            }
            Action::Data {
                kind,
                file,
                offset,
                len,
            } => {
                match kind {
                    IoKind::Read => {
                        self.counters.posix_reads += 1;
                        self.counters.bytes_read += len;
                    }
                    IoKind::Write => {
                        self.counters.posix_writes += 1;
                        self.counters.bytes_written += len;
                    }
                }
                self.counters.time_in_data += end.since(start);
                self.emit(
                    Layer::Posix,
                    RecordOp::Data(kind),
                    file,
                    offset,
                    len,
                    start,
                    end,
                );
            }
            other => panic!("storage completion while executing {other:?}"),
        }
        self.pc += 1;
        self.advance(ctx);
    }
}

impl Entity<PfsMsg> for RankClient {
    fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
        match ev.msg {
            PfsMsg::Start => {
                self.started_at = Some(ctx.now());
                self.advance(ctx);
            }
            PfsMsg::Timer { token } => match token {
                TOKEN_COMPUTE => {
                    let start = self.action_start;
                    let end = ctx.now();
                    self.counters.time_computing += end.since(start);
                    self.emit(
                        Layer::Application,
                        RecordOp::Compute,
                        FileId::new(u32::MAX),
                        0,
                        0,
                        start,
                        end,
                    );
                    self.pc += 1;
                    self.advance(ctx);
                }
                TOKEN_OVERHEAD => self.advance(ctx),
                other => panic!("unknown timer token {other}"),
            },
            PfsMsg::MetaDone(rep) => {
                ctx.trace(rep.tid, ReqMark::Done { at: ctx.now() });
                self.port.on_meta_reply(&rep);
                if self.pending.remove(&rep.id) && self.pending.is_empty() {
                    self.complete_storage_action(ctx);
                }
            }
            PfsMsg::IoDone(rep) => {
                ctx.trace(rep.tid, ReqMark::Done { at: ctx.now() });
                if self.pending.remove(&rep.id) && self.pending.is_empty() {
                    self.complete_storage_action(ctx);
                }
            }
            PfsMsg::ObjDone(rep) => {
                ctx.trace(rep.tid, ReqMark::Done { at: ctx.now() });
                self.port.on_obj_reply(&rep);
                if self.pending.remove(&rep.id) && self.pending.is_empty() {
                    self.complete_storage_action(ctx);
                }
            }
            PfsMsg::App { tag, bytes } => {
                if tag & RELEASE_TAG != 0 {
                    let barrier_tag = tag & !RELEASE_TAG;
                    if self.waiting == Waiting::Barrier(barrier_tag) {
                        self.finish_barrier(self.action_start, ctx.now());
                        self.pc += 1;
                        self.advance(ctx);
                    } else {
                        self.early_releases.insert(barrier_tag);
                    }
                } else {
                    // Shuffle payload.
                    *self.received.entry(tag).or_insert(0) += bytes;
                    if let Waiting::Shuffle(wtag, expect) = self.waiting {
                        if wtag == tag && self.received.get(&tag).copied().unwrap_or(0) >= expect {
                            self.received.remove(&tag);
                            self.pc += 1;
                            self.advance(ctx);
                        }
                    }
                }
            }
            other => panic!("rank received unexpected message: {other:?}"),
        }
    }
}
