//! Reference implementations the production code is checked against:
//! a per-tid `HashMap` assembler that sorts one `Vec` per tid, and a
//! JSONL writer that formats each record with `format!`. Differential
//! properties pin [`crate::assemble::assemble`] and
//! [`crate::file::write_jsonl`] to them on random mark sets.

use crate::assemble::{Assembly, Bucket, RequestRecord, Span, SpanLabel, WIRE_ENTITY};
use crate::file::FORMAT;
use pioeval_obs::export::esc;
use pioeval_types::{ReqEvent, ReqMark, SimTime, Tid};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The per-tid `HashMap` assembler: one `Vec` per tid, each sorted.
pub fn assemble(events: &[ReqEvent]) -> Assembly {
    let mut by_tid: HashMap<Tid, Vec<ReqEvent>> = HashMap::new();
    for ev in events {
        by_tid.entry(ev.tid).or_default().push(*ev);
    }
    for list in by_tid.values_mut() {
        list.sort_by_key(|e| (e.mark.start(), e.entity, e.seq));
    }

    let mut roots: Vec<(SimTime, Tid)> = Vec::new();
    for (&tid, list) in &by_tid {
        if let Some(at) = list.iter().find_map(|e| match e.mark {
            ReqMark::Issue { at, .. } => Some(at),
            _ => None,
        }) {
            roots.push((at, tid));
        }
    }
    roots.sort();

    let mut out = Assembly::default();
    for (_, tid) in roots {
        let list = &by_tid[&tid];
        let Some((rank, op, file, bytes, collective, issue)) =
            list.iter().find_map(|e| match e.mark {
                ReqMark::Issue {
                    rank,
                    op,
                    file,
                    bytes,
                    collective,
                    at,
                } => Some((rank, op, file, bytes, collective, at)),
                _ => None,
            })
        else {
            continue;
        };
        let Some(done) = list.iter().rev().find_map(|e| match e.mark {
            ReqMark::Done { at } => Some(at),
            _ => None,
        }) else {
            out.incomplete += 1;
            continue;
        };
        let mut spans = Vec::new();
        let cursor = walk(tid, issue, &by_tid, &mut spans);
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
            spans,
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
fn last_covered(tid: Tid, by_tid: &HashMap<Tid, Vec<ReqEvent>>) -> Option<SimTime> {
    by_tid
        .get(&tid)?
        .iter()
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
fn walk(
    tid: Tid,
    from: SimTime,
    by_tid: &HashMap<Tid, Vec<ReqEvent>>,
    spans: &mut Vec<Span>,
) -> SimTime {
    let mut cursor = from;
    let Some(list) = by_tid.get(&tid) else {
        return cursor;
    };
    let marks: Vec<(u32, ReqMark)> = list.iter().map(|e| (e.entity, e.mark)).collect();
    let mut i = 0;
    while i < marks.len() {
        let (entity, mark) = marks[i];
        match mark {
            ReqMark::Issue { .. } => i += 1,
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
                i += 1;
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
                spans.push(Span {
                    entity,
                    label: SpanLabel::Server(kind),
                    bucket: Bucket::Queue,
                    start: arrive,
                    end: queue_end,
                });
                // Collect the children this server spawned for this
                // request (their Spawn marks sort inside our interval).
                let mut children: Vec<(Tid, SimTime)> = Vec::new();
                let mut j = i + 1;
                while j < marks.len() {
                    match marks[j].1 {
                        ReqMark::Spawn { child, at } if at <= depart => {
                            children.push((child, at));
                            j += 1;
                        }
                        _ => break,
                    }
                }
                i = j;
                let inner = if kind.is_device() {
                    Bucket::Device
                } else {
                    Bucket::Service
                };
                // Refine through the critical child: the spawned
                // sub-request that finishes last bounds the parent's
                // completion, so its own hops/queues/devices replace
                // the parent's opaque residency where they overlap.
                let critical = children
                    .iter()
                    .filter_map(|&(c, at)| last_covered(c, by_tid).map(|end| (end, c, at)))
                    .max();
                if let Some((_, child, spawn_at)) = critical {
                    let spawn_at = spawn_at.clamp(queue_end, depart);
                    spans.push(Span {
                        entity,
                        label: SpanLabel::Server(kind),
                        bucket: inner,
                        start: queue_end,
                        end: spawn_at,
                    });
                    let child_base = spans.len();
                    let child_end = walk(child, spawn_at, by_tid, spans).min(depart);
                    // A child can outlive its parent's recorded
                    // residency — a replication leg still in flight
                    // when its failed node flushed the client ACK —
                    // so clamp its spans to the parent's window to
                    // keep the tiling non-overlapping.
                    for s in &mut spans[child_base..] {
                        s.start = s.start.min(depart);
                        s.end = s.end.min(depart);
                    }
                    spans.push(Span {
                        entity,
                        label: SpanLabel::Server(kind),
                        bucket: inner,
                        start: child_end,
                        end: depart,
                    });
                } else {
                    spans.push(Span {
                        entity,
                        label: SpanLabel::Server(kind),
                        bucket: inner,
                        start: queue_end,
                        end: depart,
                    });
                }
                cursor = depart;
            }
            // A Spawn not following a Server mark has nothing to refine.
            ReqMark::Spawn { .. } => i += 1,
            ReqMark::Done { at } => {
                let at = at.max(cursor);
                gap(spans, cursor, at);
                cursor = at;
                i += 1;
            }
        }
    }
    cursor
}

/// The `format!`-per-record JSONL writer.
pub fn write_jsonl(requests: &[RequestRecord], incomplete: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"format\":\"{FORMAT}\",\"requests\":{},\"incomplete\":{}}}\n",
        requests.len(),
        incomplete
    ));
    for r in requests {
        let b = r.breakdown();
        out.push_str(&format!(
            "{{\"tid\":{},\"rank\":{},\"op\":\"{}\",\"file\":{},\"bytes\":{},\"collective\":{},\
             \"issue_ns\":{},\"done_ns\":{},\"latency_ns\":{},\
             \"queue_ns\":{},\"service_ns\":{},\"device_ns\":{},\"fabric_ns\":{},\"spans\":[",
            r.tid,
            r.rank,
            r.op.name(),
            r.file,
            r.bytes,
            if r.in_collective() {
                r.collective.to_string()
            } else {
                "null".to_string()
            },
            r.issue.as_nanos(),
            r.done.as_nanos(),
            r.latency().as_nanos(),
            b[0],
            b[1],
            b[2],
            b[3],
        ));
        for (i, s) in r.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"entity\":{},\"label\":\"{}\",\"bucket\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.entity,
                esc(s.label.name()),
                s.bucket.name(),
                s.start.as_nanos(),
                s.end.as_nanos(),
            );
        }
        out.push_str("]}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_types::{tid_for, MetaOp, ReqOp, ServerKind, SimDuration, NO_COLLECTIVE};
    use proptest::prelude::*;

    /// splitmix64: a tiny deterministic stream for building mark sets.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn time(&mut self) -> SimTime {
            SimTime::from_nanos(self.below(24))
        }
    }

    /// How a trace hands out tids.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Tids {
        /// Consecutive ids per owner, like the simulator.
        Dense,
        /// Random 64-bit tids, like hand-built traces.
        Random,
    }

    /// Builds one random trace. Times, entities and sequence numbers
    /// come from small ranges so equal `(start, entity, seq)` keys occur
    /// often; intervals are random, so the walker's clamping runs too.
    struct TraceGen {
        g: Gen,
        tids: Tids,
        next_id: [u32; 6],
        events: Vec<ReqEvent>,
    }

    impl TraceGen {
        /// A fresh tid: roots on owners 0..3, children on 3,
        /// grandchildren on 4.
        fn tid(&mut self, owner: u32) -> Tid {
            match self.tids {
                Tids::Dense => {
                    let id = self.next_id[owner as usize];
                    self.next_id[owner as usize] += 1;
                    tid_for(owner, id as u64)
                }
                Tids::Random => self.g.next(),
            }
        }

        fn push(&mut self, tid: Tid, mark: ReqMark) {
            let (entity, seq) = (self.g.below(3) as u32, self.g.below(2) as u32);
            self.events.push(ReqEvent {
                tid,
                entity,
                seq,
                mark,
            });
        }

        /// Hops and server residencies for `tid`; a server may spawn
        /// children while `depth < 2`, so spawn chains reach two deep.
        fn body(&mut self, tid: Tid, depth: u32) {
            for _ in 0..self.g.below(5) {
                let arrive = self.g.time();
                let depart = self.g.time();
                if self.g.below(2) == 0 {
                    self.push(tid, ReqMark::Hop { arrive, depart });
                    continue;
                }
                let kinds = [
                    ServerKind::OssDevice,
                    ServerKind::Mds,
                    ServerKind::IoNodeSsd,
                    ServerKind::Gateway,
                    ServerKind::Shard,
                    ServerKind::Replica,
                ];
                let kind = kinds[self.g.below(kinds.len() as u64) as usize];
                let queue = SimDuration::from_nanos(self.g.below(20));
                self.push(
                    tid,
                    ReqMark::Server {
                        kind,
                        arrive,
                        queue,
                        depart,
                    },
                );
                if depth < 2 {
                    for _ in 0..self.g.below(3) {
                        let child = self.tid(3 + depth);
                        // Mostly inside the residency, sometimes at or
                        // just past its end.
                        let (lo, hi) = (arrive.min(depart), arrive.max(depart));
                        let at = lo.saturating_add(SimDuration::from_nanos(
                            self.g.below(hi.since(lo).as_nanos() + 3),
                        ));
                        self.push(tid, ReqMark::Spawn { child, at });
                        // A quarter of the children record nothing.
                        if self.g.below(4) != 0 {
                            self.body(child, depth + 1);
                        }
                    }
                }
            }
        }

        fn trace(seed: u64, tids: Tids) -> Vec<ReqEvent> {
            let mut t = TraceGen {
                g: Gen(seed),
                tids,
                next_id: [0; 6],
                events: Vec::new(),
            };
            for _ in 0..3 + t.g.below(10) {
                let owner = t.g.below(3) as u32;
                let tid = t.tid(owner);
                let op =
                    [ReqOp::Read, ReqOp::Write, ReqOp::Meta(MetaOp::Stat)][t.g.below(3) as usize];
                let collective = if t.g.below(2) == 0 {
                    NO_COLLECTIVE
                } else {
                    t.g.below(4) as u32
                };
                let issue = ReqMark::Issue {
                    rank: t.g.below(4) as u32,
                    op,
                    file: t.g.below(8) as u32,
                    bytes: t.g.below(1 << 20),
                    collective,
                    at: t.g.time(),
                };
                t.push(tid, issue);
                t.body(tid, 0);
                // A quarter of the roots are still in flight.
                if t.g.below(4) != 0 {
                    let at = t.g.time();
                    t.push(tid, ReqMark::Done { at });
                }
            }
            // Drain order is arbitrary: shuffle (Fisher-Yates).
            for i in (1..t.events.len()).rev() {
                let j = t.g.below(i as u64 + 1) as usize;
                t.events.swap(i, j);
            }
            t.events
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The counting-sort assembler and the new writer reproduce the
        /// per-tid `HashMap` assembler and the `format!` writer exactly,
        /// on simulator-shaped and on random tids.
        #[test]
        fn assembler_and_writer_match_the_oracles(
            seed in 0u64..u64::MAX,
            tids in prop::sample::select(vec![Tids::Dense, Tids::Random]),
        ) {
            let events = TraceGen::trace(seed, tids);
            let got = crate::assemble::assemble(&events);
            let want = assemble(&events);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                crate::file::write_jsonl(&got.requests, got.incomplete),
                write_jsonl(&want.requests, want.incomplete)
            );
        }
    }

    #[test]
    fn spawn_at_the_server_depart_is_still_a_child() {
        // The gateway holds 10..100 and spawns A at 40 (active to 80)
        // and B exactly at 100 (active to 150). B finishes last, so it
        // is the critical child even though it starts at the depart.
        let t = SimTime::from_nanos;
        let ev = |tid, entity, seq, mark| ReqEvent {
            tid,
            entity,
            seq,
            mark,
        };
        let (root, a, b) = (tid_for(0, 0), tid_for(1, 0), tid_for(1, 1));
        let server = |arrive, depart| ReqMark::Server {
            kind: ServerKind::Gateway,
            arrive: t(arrive),
            queue: SimDuration::from_nanos(5),
            depart: t(depart),
        };
        let events = vec![
            ev(
                root,
                0,
                0,
                ReqMark::Issue {
                    rank: 0,
                    op: ReqOp::Read,
                    file: 0,
                    bytes: 1,
                    collective: NO_COLLECTIVE,
                    at: t(0),
                },
            ),
            ev(root, 1, 0, server(10, 100)),
            ev(
                root,
                1,
                1,
                ReqMark::Spawn {
                    child: a,
                    at: t(40),
                },
            ),
            ev(
                root,
                1,
                2,
                ReqMark::Spawn {
                    child: b,
                    at: t(100),
                },
            ),
            ev(a, 2, 0, server(50, 80)),
            ev(b, 2, 1, server(100, 150)),
            ev(root, 0, 1, ReqMark::Done { at: t(200) }),
        ];
        let want = assemble(&events);
        assert_eq!(crate::assemble::assemble(&events), want);
        // B is the critical child, so A's queue never shows up.
        let queue = want.requests[0].breakdown()[Bucket::Queue.index()];
        assert_eq!(queue, 5);
    }

    #[test]
    fn generated_traces_cover_the_edge_cases() {
        // Across a few seeds the generator must produce every shape the
        // property is meant to cover.
        let (mut chains, mut unmarked, mut in_flight, mut key_ties) = (0, 0, 0, 0);
        for seed in 0..64 {
            let events = TraceGen::trace(seed, Tids::Dense);
            let marked: std::collections::HashSet<Tid> = events.iter().map(|e| e.tid).collect();
            let owner_of = |tid: Tid| (tid >> 32) as u32 - 1;
            for e in &events {
                if let ReqMark::Spawn { child, .. } = e.mark {
                    if !marked.contains(&child) {
                        unmarked += 1;
                    } else if owner_of(child) == 4 {
                        chains += 1;
                    }
                }
            }
            in_flight += assemble(&events).incomplete;
            let mut keys: Vec<_> = events
                .iter()
                .map(|e| (e.tid, e.mark.start(), e.entity, e.seq))
                .collect();
            keys.sort_unstable();
            key_ties += keys.windows(2).filter(|w| w[0] == w[1]).count();
        }
        assert!(chains > 0, "no spawn chain two deep");
        assert!(unmarked > 0, "no spawned child without marks");
        assert!(in_flight > 0, "no root without Done");
        assert!(key_ties > 0, "no equal (start, entity, seq) keys");
    }
}
