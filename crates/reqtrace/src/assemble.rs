//! Span assembly: raw recorder events → attributed per-request records.

use pioeval_types::{
    ReqEvent, ReqMark, ReqOp, ServerKind, SimDuration, SimTime, Tid, NO_COLLECTIVE,
};
use std::collections::HashMap;

/// Pseudo-entity id for wire/lookahead gaps between recorded marks
/// (time on the wire that no single fabric entity observed).
pub const WIRE_ENTITY: u32 = u32::MAX;

/// The four latency layers every nanosecond of a request is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Waiting in a server FIFO queue or gateway admission slot.
    Queue,
    /// Server protocol processing (non-device residency).
    Service,
    /// Storage-media service (OST / burst-buffer SSD device time).
    Device,
    /// Fabric transmission plus wire/lookahead gaps between marks.
    Fabric,
}

/// All buckets, in reporting order.
pub const BUCKETS: [Bucket; 4] = [
    Bucket::Queue,
    Bucket::Service,
    Bucket::Device,
    Bucket::Fabric,
];

impl Bucket {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Queue => "queue",
            Bucket::Service => "service",
            Bucket::Device => "device",
            Bucket::Fabric => "fabric",
        }
    }

    /// Parse a [`Bucket::name`] back.
    pub fn parse(name: &str) -> Option<Bucket> {
        BUCKETS.iter().copied().find(|b| b.name() == name)
    }

    /// Index into [`BUCKETS`]-shaped arrays.
    pub fn index(self) -> usize {
        match self {
            Bucket::Queue => 0,
            Bucket::Service => 1,
            Bucket::Device => 2,
            Bucket::Fabric => 3,
        }
    }
}

/// One attributed segment of a request's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The entity the time was spent at ([`WIRE_ENTITY`] for gaps).
    pub entity: u32,
    /// Where the time was spent.
    pub label: SpanLabel,
    /// Which latency layer the segment is charged to.
    pub bucket: Bucket,
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
}

impl Span {
    /// Segment length.
    pub fn len(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// True for zero-length segments.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Where a [`Span`]'s time was spent. The names form a closed set of
/// plain ASCII words, so trace writers print them without escaping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanLabel {
    /// A wire/lookahead gap between marks ([`WIRE_ENTITY`]).
    Wire,
    /// A fabric hop.
    Fabric,
    /// A residency at a server of this kind.
    Server(ServerKind),
}

impl SpanLabel {
    /// Stable name: `"wire"`, `"fabric"` or the [`ServerKind::name`].
    pub fn name(self) -> &'static str {
        match self {
            SpanLabel::Wire => "wire",
            SpanLabel::Fabric => "fabric",
            SpanLabel::Server(kind) => kind.name(),
        }
    }

    /// Parse a [`SpanLabel::name`] back.
    pub fn parse(name: &str) -> Option<SpanLabel> {
        match name {
            "wire" => Some(SpanLabel::Wire),
            "fabric" => Some(SpanLabel::Fabric),
            _ => ServerKind::parse(name).map(SpanLabel::Server),
        }
    }
}

/// One fully-assembled traced request.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestRecord {
    /// Globally-unique trace id.
    pub tid: Tid,
    /// Issuing rank index.
    pub rank: u32,
    /// Operation class.
    pub op: ReqOp,
    /// Target file / object key index.
    pub file: u32,
    /// Payload bytes (0 for metadata).
    pub bytes: u64,
    /// Collective-instance index, or [`NO_COLLECTIVE`].
    pub collective: u32,
    /// Client send time.
    pub issue: SimTime,
    /// Client reply-delivery time.
    pub done: SimTime,
    /// Attributed segments tiling `[issue, done]` in order.
    pub spans: Vec<Span>,
}

impl RequestRecord {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.done.since(self.issue)
    }

    /// Per-bucket nanoseconds, indexed like [`BUCKETS`].
    pub fn breakdown(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for s in &self.spans {
            out[s.bucket.index()] += s.len().as_nanos();
        }
        out
    }

    /// True when this request ran inside a collective operation.
    pub fn in_collective(&self) -> bool {
        self.collective != NO_COLLECTIVE
    }
}

/// The result of assembling a run's raw events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Assembly {
    /// Completed root requests, sorted by (issue time, tid).
    pub requests: Vec<RequestRecord>,
    /// Root requests with an Issue mark but no Done mark (the run ended
    /// with the request in flight).
    pub incomplete: usize,
}

/// The drained events grouped by request without moving them: slot
/// `s`'s marks are `events[order[i]]` for `i` in `bounds[s]..bounds[s + 1]`,
/// in `(start, entity, seq)` order.
struct Grouped<'a> {
    events: &'a [ReqEvent],
    /// Every marked tid's slot, in order of first appearance.
    slots: HashMap<Tid, u32>,
    bounds: Vec<u32>,
    order: Vec<u32>,
    /// `(issue time, tid, slot)` of every slot with an Issue mark.
    roots: Vec<(SimTime, Tid, usize)>,
}

impl<'a> Grouped<'a> {
    /// Counting sort by slot (which keeps drain order inside a slot),
    /// then a stable sort of each slot's few marks — the same order a
    /// stable per-tid sort of the drained events gives. The roots are
    /// picked out while each slot's marks are still in cache.
    fn new(events: &'a [ReqEvent]) -> Self {
        assert!(
            events.len() < u32::MAX as usize,
            "request trace exceeds u32::MAX marks"
        );
        let mut slots = HashMap::new();
        let slot_of: Vec<u32> = events
            .iter()
            .map(|e| {
                let next = slots.len() as u32;
                *slots.entry(e.tid).or_insert(next)
            })
            .collect();
        let len = slots.len();
        let mut bounds = vec![0u32; len + 1];
        for &s in &slot_of {
            bounds[s as usize] += 1;
        }
        let mut sum = 0;
        for b in &mut bounds[..len] {
            sum += *b;
            *b = sum;
        }
        bounds[len] = sum;
        // Fill back to front: each slot's end moves down to its start,
        // and later marks land behind earlier ones.
        let mut order = vec![0u32; events.len()];
        for (i, &s) in slot_of.iter().enumerate().rev() {
            let b = &mut bounds[s as usize];
            *b -= 1;
            order[*b as usize] = i as u32;
        }
        drop(slot_of);
        let mut roots = Vec::new();
        for (s, w) in bounds.windows(2).enumerate() {
            let marks = &mut order[w[0] as usize..w[1] as usize];
            marks.sort_by_key(|&i| {
                let e = &events[i as usize];
                (e.mark.start(), e.entity, e.seq)
            });
            let issue = marks.iter().find_map(|&i| match events[i as usize] {
                ReqEvent {
                    tid,
                    mark: ReqMark::Issue { at, .. },
                    ..
                } => Some((at, tid, s)),
                _ => None,
            });
            roots.extend(issue);
        }
        roots.sort_unstable();
        Grouped {
            events,
            slots,
            bounds,
            order,
            roots,
        }
    }

    /// Where slot `s`'s marks sit in `order`.
    fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s] as usize..self.bounds[s + 1] as usize
    }

    /// Slot `s`'s marks, in timeline order.
    fn slot(&self, s: usize) -> impl DoubleEndedIterator<Item = &'a ReqEvent> + '_ {
        self.order[self.range(s)]
            .iter()
            .map(|&i| &self.events[i as usize])
    }

    /// `tid`'s marks, in timeline order (empty when it has none).
    fn marks(&self, tid: Tid) -> impl Iterator<Item = &'a ReqEvent> + '_ {
        let range = self
            .slots
            .get(&tid)
            .map_or(0..0, |&s| self.range(s as usize));
        self.order[range].iter().map(|&i| &self.events[i as usize])
    }
}

/// Group raw events by request and attribute each completed root
/// request's latency. Child requests (tids without an Issue mark) are
/// folded into their parents via their Spawn marks; they never appear
/// as records of their own.
///
/// Linear in the number of marks: a counting sort groups them by
/// request, and only each request's own few marks are sorted.
pub fn assemble(events: &[ReqEvent]) -> Assembly {
    let grouped = Grouped::new(events);
    let mut out = Assembly {
        requests: Vec::with_capacity(grouped.roots.len()),
        incomplete: 0,
    };
    let mut spans = Vec::new();
    for &(issue, tid, s) in &grouped.roots {
        let (rank, op, file, bytes, collective) = grouped
            .slot(s)
            .find_map(|e| match e.mark {
                ReqMark::Issue {
                    rank,
                    op,
                    file,
                    bytes,
                    collective,
                    ..
                } => Some((rank, op, file, bytes, collective)),
                _ => None,
            })
            .expect("a root slot has an Issue mark");
        let Some(done) = grouped.slot(s).rev().find_map(|e| match e.mark {
            ReqMark::Done { at } => Some(at),
            _ => None,
        }) else {
            out.incomplete += 1;
            continue;
        };
        spans.clear();
        let cursor = walk(tid, issue, &grouped, &mut spans);
        // The Done mark advances the cursor at least to the delivery
        // time. Eagerly-recorded residencies can reach past it (an SSD
        // completion recorded at absorb, outlived by a failure-flushed
        // early ACK), so clamp the tiling to [issue, done].
        debug_assert!(cursor >= done, "cursor stopped short of done");
        for s in &mut spans {
            s.start = s.start.min(done);
            s.end = s.end.min(done);
        }
        spans.retain(|s| !s.is_empty());
        out.requests.push(RequestRecord {
            tid,
            rank,
            op,
            file,
            bytes,
            collective,
            issue,
            done,
            spans: spans.to_vec(),
        });
    }
    out
}

/// Append a wire-gap span covering `[from, to)` (no-op when empty).
fn gap(spans: &mut Vec<Span>, from: SimTime, to: SimTime) {
    if to > from {
        spans.push(Span {
            entity: WIRE_ENTITY,
            label: SpanLabel::Wire,
            bucket: Bucket::Fabric,
            start: from,
            end: to,
        });
    }
}

/// The last instant any of `tid`'s marks covers (used to pick the
/// critical child among fan-out siblings).
fn last_covered(tid: Tid, grouped: &Grouped) -> Option<SimTime> {
    grouped
        .marks(tid)
        .map(|e| match e.mark {
            ReqMark::Issue { at, .. } => at,
            ReqMark::Hop { depart, .. } => depart,
            ReqMark::Server { depart, .. } => depart,
            ReqMark::Spawn { at, .. } => at,
            ReqMark::Done { at } => at,
        })
        .max()
}

/// Walk `tid`'s marks starting at `from`, appending attributed spans
/// that tile the timeline with a monotone cursor, and return the final
/// cursor position. Marks are clamped forward so that spans can never
/// overlap even if the recorded intervals were inconsistent.
fn walk(tid: Tid, from: SimTime, grouped: &Grouped, spans: &mut Vec<Span>) -> SimTime {
    let mut cursor = from;
    let mut marks = grouped.marks(tid).peekable();
    while let Some(&ReqEvent { entity, mark, .. }) = marks.next() {
        match mark {
            ReqMark::Issue { .. } | ReqMark::Spawn { .. } => {
                // A Spawn not following a Server mark has nothing to
                // refine.
            }
            ReqMark::Hop { arrive, depart } => {
                let arrive = arrive.max(cursor);
                let depart = depart.max(arrive);
                gap(spans, cursor, arrive);
                spans.push(Span {
                    entity,
                    label: SpanLabel::Fabric,
                    bucket: Bucket::Fabric,
                    start: arrive,
                    end: depart,
                });
                cursor = depart;
            }
            ReqMark::Server {
                kind,
                arrive,
                queue,
                depart,
            } => {
                let arrive = arrive.max(cursor);
                let depart = depart.max(arrive);
                gap(spans, cursor, arrive);
                let queue_end = arrive.saturating_add(queue).min(depart);
                let label = SpanLabel::Server(kind);
                spans.push(Span {
                    entity,
                    label,
                    bucket: Bucket::Queue,
                    start: arrive,
                    end: queue_end,
                });
                // The children this server spawned for this request
                // (their Spawn marks sort inside our interval). Refine
                // through the critical child: the spawned sub-request
                // that finishes last bounds the parent's completion, so
                // its own hops/queues/devices replace the parent's
                // opaque residency where they overlap.
                let mut critical = None;
                while let Some(ReqMark::Spawn { child, at }) = marks.peek().map(|e| e.mark) {
                    if at > depart {
                        break;
                    }
                    marks.next();
                    if let Some(end) = last_covered(child, grouped) {
                        critical = critical.max(Some((end, child, at)));
                    }
                }
                let inner = if kind.is_device() {
                    Bucket::Device
                } else {
                    Bucket::Service
                };
                let mut service_from = queue_end;
                if let Some((_, child, spawn_at)) = critical {
                    let spawn_at = spawn_at.clamp(queue_end, depart);
                    spans.push(Span {
                        entity,
                        label,
                        bucket: inner,
                        start: queue_end,
                        end: spawn_at,
                    });
                    let child_base = spans.len();
                    service_from = walk(child, spawn_at, grouped, spans).min(depart);
                    // A child can outlive its parent's recorded
                    // residency — a replication leg still in flight
                    // when its failed node flushed the client ACK —
                    // so clamp its spans to the parent's window to
                    // keep the tiling non-overlapping.
                    for s in &mut spans[child_base..] {
                        s.start = s.start.min(depart);
                        s.end = s.end.min(depart);
                    }
                }
                spans.push(Span {
                    entity,
                    label,
                    bucket: inner,
                    start: service_from,
                    end: depart,
                });
                cursor = depart;
            }
            ReqMark::Done { at } => {
                let at = at.max(cursor);
                gap(spans, cursor, at);
                cursor = at;
            }
        }
    }
    cursor
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: Tid, entity: u32, seq: u32, mark: ReqMark) -> ReqEvent {
        ReqEvent {
            tid,
            entity,
            seq,
            mark,
        }
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn simple_request_tiles_exactly() {
        // issue@0 → fabric 10..20 → oss arrive@30 queue 5 depart@100
        // → fabric 110..120 → done@130.
        let events = vec![
            ev(
                7,
                1,
                0,
                ReqMark::Issue {
                    rank: 0,
                    op: ReqOp::Write,
                    file: 3,
                    bytes: 4096,
                    collective: NO_COLLECTIVE,
                    at: t(0),
                },
            ),
            ev(
                7,
                2,
                0,
                ReqMark::Hop {
                    arrive: t(10),
                    depart: t(20),
                },
            ),
            ev(
                7,
                3,
                0,
                ReqMark::Server {
                    kind: ServerKind::OssDevice,
                    arrive: t(30),
                    queue: SimDuration::from_nanos(5),
                    depart: t(100),
                },
            ),
            ev(
                7,
                2,
                1,
                ReqMark::Hop {
                    arrive: t(110),
                    depart: t(120),
                },
            ),
            ev(7, 1, 1, ReqMark::Done { at: t(130) }),
        ];
        let asm = assemble(&events);
        assert_eq!(asm.requests.len(), 1);
        assert_eq!(asm.incomplete, 0);
        let r = &asm.requests[0];
        assert_eq!(r.latency(), SimDuration::from_nanos(130));
        let b = r.breakdown();
        assert_eq!(b[Bucket::Queue.index()], 5);
        assert_eq!(b[Bucket::Device.index()], 65);
        assert_eq!(b[Bucket::Service.index()], 0);
        // fabric = hops (10+10) + gaps (0..10, 20..30, 100..110, 120..130).
        assert_eq!(b[Bucket::Fabric.index()], 60);
        assert_eq!(b.iter().sum::<u64>(), 130);
    }

    #[test]
    fn critical_child_refines_parent_residency() {
        // Gateway holds 10..100 (queue 20), spawns child@40; child device
        // 50..80 (queue 10). Parent service = [30,40] + [80,100] = 30.
        let events = vec![
            ev(
                1,
                9,
                0,
                ReqMark::Issue {
                    rank: 2,
                    op: ReqOp::Read,
                    file: 0,
                    bytes: 100,
                    collective: 4,
                    at: t(0),
                },
            ),
            ev(
                1,
                5,
                0,
                ReqMark::Server {
                    kind: ServerKind::Gateway,
                    arrive: t(10),
                    queue: SimDuration::from_nanos(20),
                    depart: t(100),
                },
            ),
            ev(
                1,
                5,
                1,
                ReqMark::Spawn {
                    child: 99,
                    at: t(40),
                },
            ),
            ev(
                99,
                6,
                0,
                ReqMark::Server {
                    kind: ServerKind::OssDevice,
                    arrive: t(50),
                    queue: SimDuration::from_nanos(10),
                    depart: t(80),
                },
            ),
            ev(1, 9, 1, ReqMark::Done { at: t(120) }),
        ];
        let asm = assemble(&events);
        assert_eq!(asm.requests.len(), 1, "child tid must not become a record");
        let r = &asm.requests[0];
        assert!(r.in_collective());
        let b = r.breakdown();
        assert_eq!(b[Bucket::Queue.index()], 20 + 10);
        assert_eq!(b[Bucket::Service.index()], 30);
        assert_eq!(b[Bucket::Device.index()], 20);
        // gaps: 0..10 (wire), 40..50 (to child), 100..120 (reply).
        assert_eq!(b[Bucket::Fabric.index()], 40);
        assert_eq!(b.iter().sum::<u64>(), 120);
    }

    #[test]
    fn unfinished_requests_count_as_incomplete() {
        let events = vec![ev(
            3,
            1,
            0,
            ReqMark::Issue {
                rank: 0,
                op: ReqOp::Meta(pioeval_types::MetaOp::Create),
                file: 1,
                bytes: 0,
                collective: NO_COLLECTIVE,
                at: t(5),
            },
        )];
        let asm = assemble(&events);
        assert!(asm.requests.is_empty());
        assert_eq!(asm.incomplete, 1);
    }
}
