//! The pending-event queue: a binary min-heap ordered by [`EventKey`].

use crate::event::{Envelope, EventKey};
use pioeval_types::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Heap entry: orders by `key` only (reversed for a min-heap).
///
/// `msg` is `None` only while [`EventQueue::hold`] has lent the payload
/// to a handler; no other method ever sees such an entry.
struct Entry<M> {
    key: EventKey,
    msg: Option<M>,
}

impl<M> Entry<M> {
    fn new(ev: Envelope<M>) -> Self {
        Entry {
            key: ev.key,
            msg: Some(ev.msg),
        }
    }

    fn into_envelope(self) -> Envelope<M> {
        Envelope {
            key: self.key,
            msg: self.msg.expect("held event escaped its hold"),
        }
    }
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key on top.
        other.key.cmp(&self.key)
    }
}

/// The top entry while its payload is out with a handler. If the
/// handler unwinds, dropping the guard pops the entry, so the event is
/// consumed exactly as a plain [`EventQueue::pop`] would have consumed it.
struct Held<'a, M>(Option<PeekMut<'a, Entry<M>>>);

impl<M> Drop for Held<'_, M> {
    fn drop(&mut self) {
        if let Some(top) = self.0.take() {
            PeekMut::pop(top);
        }
    }
}

/// A pending-event set ordered by [`EventKey`].
///
/// The sequential executor drives it through [`EventQueue::hold`]: the
/// earliest event is handed to its handler while its entry stays at the
/// top of the heap, and the first event the handler emits takes that
/// entry's place with a single sift-down. On the storage models nearly
/// every event emits about one successor, so this replaces a full
/// pop-then-push per event. [`EventQueue::pop`],
/// [`EventQueue::push_batch`] and [`EventQueue::take_all`] serve the
/// parallel executor's window stores and the hand-off between executors.
pub struct EventQueue<M> {
    heap: BinaryHeap<Entry<M>>,
    /// Emit buffer lent to [`EventQueue::hold`]'s handler; always empty
    /// between calls, kept for its capacity.
    emitted: Vec<Envelope<M>>,
    /// High-water mark of queue length (reported in run statistics).
    pub max_len: usize,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            emitted: Vec::new(),
            max_len: 0,
        }
    }

    /// Insert an event.
    pub fn push(&mut self, ev: Envelope<M>) {
        self.heap.push(Entry::new(ev));
        self.max_len = self.max_len.max(self.heap.len());
    }

    /// Insert an event without updating the high-water mark.
    ///
    /// The parallel executor samples queue occupancy at window boundaries
    /// instead of per push (see `RunResult::max_queue`), so its hot path
    /// skips the per-push book-keeping.
    pub fn push_untracked(&mut self, ev: Envelope<M>) {
        self.heap.push(Entry::new(ev));
    }

    /// Bulk-insert a batch, draining `batch` in place, then update the
    /// high-water mark once.
    ///
    /// When the batch is at least as large as the current heap the whole
    /// set is re-heapified in O(len + batch) instead of paying
    /// O(batch × log len) sift-ups; smaller batches fall back to plain
    /// pushes (a push into a random position is O(1) amortized, so a
    /// rebuild only wins once the batch dominates). The parallel
    /// executor's window stores and check-in route through here, and so
    /// do the emits [`EventQueue::hold`] does not settle in place.
    pub fn push_batch(&mut self, batch: &mut Vec<Envelope<M>>) {
        if batch.len() >= self.heap.len() {
            let mut items = std::mem::take(&mut self.heap).into_vec();
            items.extend(batch.drain(..).map(Entry::new));
            self.heap = BinaryHeap::from(items);
        } else {
            for ev in batch.drain(..) {
                self.heap.push(Entry::new(ev));
            }
        }
        self.max_len = self.max_len.max(self.heap.len());
    }

    /// Hand the earliest event to `handler`, then settle what it emitted.
    ///
    /// `handler` receives the event and an empty emit buffer; whatever
    /// it appends there is queued before `hold` returns.
    /// The earliest entry stays at the top of the heap while the handler
    /// runs. Afterwards the first emitted event replaces it in place with
    /// one sift-down, and any further emits go through
    /// [`EventQueue::push_batch`]; if nothing was emitted the entry is
    /// popped. The resulting pending set, its length and the high-water
    /// mark are exactly those of [`EventQueue::pop`] followed by
    /// `push_batch(emitted)`.
    ///
    /// Returns how many events the handler emitted, or `None` (without
    /// calling `handler`) when the queue is empty. While the handler
    /// runs, the pending depth without the held event is
    /// `len() - 1` before the call, or `len() - emitted` after it.
    pub fn hold<F>(&mut self, handler: F) -> Option<usize>
    where
        F: FnOnce(Envelope<M>, &mut Vec<Envelope<M>>),
    {
        let emitted = &mut self.emitted;
        // Emits of a handler that unwound die with its event.
        emitted.clear();
        let n = {
            let mut held = Held(Some(self.heap.peek_mut()?));
            let top = held.0.as_mut().expect("held entry present");
            let ev = Envelope {
                key: top.key,
                msg: top.msg.take().expect("held event escaped its hold"),
            };
            handler(ev, emitted);
            let mut top = held.0.take().expect("held entry present");
            if emitted.is_empty() {
                PeekMut::pop(top);
                0
            } else {
                // The first emit fills the hole (the drop of `top` sifts it
                // down). `swap_remove` reorders the rest, which cannot
                // change the pop order: keys are unique.
                let n = emitted.len();
                *top = Entry::new(emitted.swap_remove(0));
                n
            }
        };
        let mut rest = std::mem::take(&mut self.emitted);
        self.push_batch(&mut rest);
        self.emitted = rest;
        Some(n)
    }

    /// Remove every queued event, in no particular order, in O(n).
    ///
    /// Used to repartition the pending set across executor-local heaps
    /// without n × O(log n) pops.
    pub fn take_all(&mut self) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .map(Entry::into_envelope)
            .collect()
    }

    /// Remove and return the event with the smallest key.
    pub fn pop(&mut self) -> Option<Envelope<M>> {
        self.heap.pop().map(Entry::into_envelope)
    }

    /// The smallest key currently queued.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|e| e.key)
    }

    /// Timestamp of the earliest queued event, or `None` when empty.
    pub fn next_time(&self) -> Option<SimTime> {
        self.peek_key().map(|k| k.time)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EntityId, EventKey};
    use proptest::prelude::*;

    fn ev(t: u64, dst: u32, src: u32, seq: u64, msg: u32) -> Envelope<u32> {
        Envelope {
            key: EventKey {
                time: SimTime::from_nanos(t),
                dst: EntityId(dst),
                src: EntityId(src),
                seq,
            },
            msg,
        }
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = EventQueue::new();
        q.push(ev(30, 0, 0, 2, 3));
        q.push(ev(10, 0, 0, 0, 1));
        q.push(ev(20, 0, 0, 1, 2));
        assert_eq!(q.pop().unwrap().msg, 1);
        assert_eq!(q.pop().unwrap().msg, 2);
        assert_eq!(q.pop().unwrap().msg, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn tie_break_is_stable() {
        let mut q = EventQueue::new();
        q.push(ev(10, 1, 5, 7, 100));
        q.push(ev(10, 1, 5, 6, 99));
        q.push(ev(10, 0, 9, 0, 98));
        assert_eq!(q.pop().unwrap().msg, 98); // lower dst first
        assert_eq!(q.pop().unwrap().msg, 99); // then lower seq
        assert_eq!(q.pop().unwrap().msg, 100);
    }

    #[test]
    fn tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(ev(i, 0, 0, i, 0));
        }
        q.pop();
        q.pop();
        assert_eq!(q.max_len, 5);
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
    }

    #[test]
    fn push_batch_preserves_key_order() {
        // Small batch (push path) and dominating batch (rebuild path)
        // must both interleave correctly with existing events.
        for preload in [0usize, 1, 16] {
            let mut q = EventQueue::new();
            for i in 0..preload {
                q.push(ev(i as u64 * 10, 0, 0, i as u64, i as u32));
            }
            let mut batch: Vec<_> = (0..8)
                .map(|i| ev(5 + i * 10, 1, 1, i, 100 + i as u32))
                .collect();
            let expect_len = preload + batch.len();
            q.push_batch(&mut batch);
            assert!(batch.is_empty());
            assert_eq!(q.len(), expect_len);
            assert_eq!(q.max_len, expect_len);
            let mut last = None;
            while let Some(e) = q.pop() {
                if let Some(prev) = last {
                    assert!(prev < e.key, "out of order");
                }
                last = Some(e.key);
            }
        }
    }

    #[test]
    fn push_untracked_skips_high_water_mark() {
        let mut q = EventQueue::new();
        q.push_untracked(ev(1, 0, 0, 0, 0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.max_len, 0);
    }

    #[test]
    fn take_all_empties_queue() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(ev(i, 0, 0, i, i as u32));
        }
        let all = q.take_all();
        assert_eq!(all.len(), 5);
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|e| e.msg), None);
    }

    #[test]
    fn hold_on_empty_queue_skips_handler() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.hold(|_, _| panic!("handler called")), None);
    }

    #[test]
    fn hold_without_emits_pops() {
        let mut q = EventQueue::new();
        for i in 0..3 {
            q.push(ev(10 * (3 - i), 0, 0, i, (3 - i) as u32));
        }
        let mut seen = None;
        assert_eq!(q.hold(|e, _| seen = Some(e.msg)), Some(0));
        assert_eq!(seen, Some(1));
        assert_eq!((q.len(), q.max_len), (2, 3));
        assert_eq!(q.pop().map(|e| e.msg), Some(2));
        assert_eq!(q.pop().map(|e| e.msg), Some(3));
    }

    #[test]
    fn settled_event_can_become_new_minimum() {
        let mut q = EventQueue::new();
        q.push(ev(10, 0, 0, 0, 1));
        q.push(ev(20, 0, 0, 1, 2));
        // The first emit (t=30) fills the hole, but the second (t=12)
        // is the new minimum and must surface ahead of it.
        let n = q.hold(|e, out| {
            assert_eq!(e.msg, 1);
            out.push(ev(30, 1, 0, 2, 3));
            out.push(ev(12, 1, 0, 3, 4));
        });
        assert_eq!(n, Some(2));
        assert_eq!((q.len(), q.max_len), (3, 3));
        // A lone emit at the handled time with a lower destination is the
        // new minimum straight from the hole.
        q.hold(|e, out| {
            assert_eq!(e.msg, 4);
            out.push(ev(12, 0, 1, 0, 5));
        });
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.msg)).collect();
        assert_eq!(order, vec![5, 2, 3]);
    }

    #[test]
    fn panicking_handler_consumes_its_event() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.push(ev(i, 0, 0, i, i as u32));
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.hold(|_, out| {
                out.push(ev(99, 0, 0, 9, 9));
                panic!("handler failed");
            })
        }));
        assert!(unwound.is_err());
        // The held event is gone, as a pop would have left it, and no
        // entry without a payload remains.
        // Its emit is dropped too: the next settle queues only its own.
        assert_eq!(q.len(), 3);
        assert_eq!(q.hold(|_, _| {}), Some(0));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.msg)).collect();
        assert_eq!(order, vec![2, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hold-and-settle is observationally a pop followed by
        /// `push_batch` of the handler's emits: same events in the same
        /// order, same length and high-water mark after every step.
        #[test]
        fn hold_matches_pop_then_push_batch(
            seed in 0u64..u64::MAX,
            preload in 1usize..24,
            steps in 1usize..400,
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let mut held = EventQueue::new();
            let mut reference = EventQueue::new();
            let mut seq = 0u64;
            for _ in 0..preload {
                seq += 1;
                let e = ev(rng.below(100), rng.below(4) as u32, 0, seq, seq as u32);
                held.push(e.clone());
                reference.push(e);
            }
            for _ in 0..steps {
                let mut handled = None;
                let mut emits = Vec::new();
                let settled = held.hold(|e, out| {
                    for _ in 0..rng.below(4) {
                        seq += 1;
                        let t = e.key.time.as_nanos() + rng.below(50);
                        out.push(ev(t, rng.below(4) as u32, e.key.dst.0, seq, seq as u32));
                    }
                    emits = out.clone();
                    handled = Some((e.key, e.msg));
                });
                let expect = reference.pop().map(|e| (e.key, e.msg));
                prop_assert_eq!(handled, expect);
                if expect.is_none() {
                    prop_assert_eq!(settled, None);
                    break;
                }
                prop_assert_eq!(settled, Some(emits.len()));
                reference.push_batch(&mut emits);
                prop_assert_eq!(held.len(), reference.len());
                prop_assert_eq!(held.max_len, reference.max_len);
            }
            let rest = |q: &mut EventQueue<u32>| {
                std::iter::from_fn(|| q.pop().map(|e| (e.key, e.msg))).collect::<Vec<_>>()
            };
            prop_assert_eq!(rest(&mut held), rest(&mut reference));
        }
    }

    #[test]
    fn next_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(ev(50, 0, 0, 0, 0));
        q.push(ev(40, 0, 0, 1, 0));
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(40)));
    }
}
