//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] orders events by simulated time with strict FIFO
//! tie-breaking for events scheduled at the same cycle, so a
//! simulation that schedules the same events in the same order always
//! replays identically. This determinism is load-bearing: the paper's
//! measurements (Table 2) are reproduced by replaying identical
//! request streams through the network model.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// A pending event: its due time plus a sequence number for FIFO
/// tie-breaking.
#[derive(Debug)]
struct Entry<T> {
    due: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, for
        // ties, the first-scheduled) entry is popped first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use cedar_sim::event::EventQueue;
/// use cedar_sim::time::Cycle;
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle::new(3), "b");
/// q.schedule(Cycle::new(3), "c"); // same cycle: FIFO order preserved
/// q.schedule(Cycle::new(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    last_popped: Option<Cycle>,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: None,
        }
    }

    /// Schedules `payload` to fire at absolute time `due`.
    ///
    /// Scheduling in the past (before the last popped event) is
    /// rejected because it would silently reorder causality.
    ///
    /// # Panics
    ///
    /// Panics if `due` precedes the time of the most recently popped
    /// event.
    pub fn schedule(&mut self, due: Cycle, payload: T) {
        if let Some(now) = self.last_popped {
            assert!(
                due >= now,
                "event scheduled in the past: due {due} but simulation already at {now}"
            );
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { due, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        let entry = self.heap.pop()?;
        debug_assert!(
            self.last_popped.is_none_or(|now| entry.due >= now),
            "heap yielded an event before the current time"
        );
        self.last_popped = Some(entry.due);
        Some((entry.due, entry.payload))
    }

    /// Returns the due time of the earliest pending event without
    /// removing it.
    #[inline]
    #[must_use]
    pub fn peek_due(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.due)
    }

    /// The number of pending events.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event, i.e. the current
    /// simulation time, if any event has fired yet.
    #[inline]
    #[must_use]
    pub fn now(&self) -> Option<Cycle> {
        self.last_popped
    }

    /// Drops all pending events and resets the clock and the FIFO
    /// tie-break counter: a cleared queue is indistinguishable from a
    /// newly built one, so a simulation reusing the allocation replays
    /// identically to one starting fresh.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.last_popped = None;
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T: cedar_snap::Snapshot> cedar_snap::Snapshot for EventQueue<T> {
    fn snap(&self, w: &mut cedar_snap::SnapWriter) {
        // BinaryHeap iteration order is unspecified, so canonicalize:
        // entries sorted by (due, seq) — their exact pop order. The
        // restored heap may lay its array out differently, but pop
        // order (the only observable) is identical because (due, seq)
        // is a total order.
        let mut entries: Vec<&Entry<T>> = self.heap.iter().collect();
        entries.sort_by_key(|e| (e.due, e.seq));
        w.put_usize(entries.len());
        for e in entries {
            e.due.snap(w);
            w.put_u64(e.seq);
            e.payload.snap(w);
        }
        w.put_u64(self.next_seq);
        self.last_popped.snap(w);
    }
    fn restore(r: &mut cedar_snap::SnapReader<'_>) -> Result<Self, cedar_snap::SnapError> {
        let len = r.get_usize()?;
        if len > r.remaining() {
            return Err(cedar_snap::SnapError::Truncated);
        }
        let mut heap = BinaryHeap::with_capacity(len.min(cedar_snap::MAX_PREALLOC));
        for _ in 0..len {
            let due = Cycle::restore(r)?;
            let seq = r.get_u64()?;
            let payload = T::restore(r)?;
            heap.push(Entry { due, seq, payload });
        }
        Ok(EventQueue {
            heap,
            next_seq: r.get_u64()?,
            last_popped: Option::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::CycleDelta;
    use cedar_snap::Snapshot;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), 10);
        q.schedule(Cycle::new(1), 1);
        q.schedule(Cycle::new(5), 5);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, [1, 5, 10]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), None);
        q.schedule(Cycle::new(3), ());
        q.pop();
        assert_eq!(q.now(), Some(Cycle::new(3)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), ());
        q.pop();
        q.schedule(Cycle::new(5), ());
    }

    #[test]
    fn allows_scheduling_at_current_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), 1);
        q.pop();
        q.schedule(Cycle::new(10), 2); // same time as `now` is fine
        assert_eq!(q.pop(), Some((Cycle::new(10), 2)));
    }

    #[test]
    fn peek_due_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(2), ());
        assert_eq!(q.peek_due(), Some(Cycle::new(2)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_resets_clock() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), ());
        q.pop();
        q.clear();
        assert!(q.is_empty());
        // After clear we may schedule earlier than the old clock.
        q.schedule(Cycle::new(1), ());
        assert_eq!(q.pop(), Some((Cycle::new(1), ())));
    }

    #[test]
    fn clear_resets_the_tie_break_counter() {
        let mut fresh = EventQueue::new();
        let mut reused = EventQueue::new();
        for i in 0..3 {
            reused.schedule(Cycle::new(7), i);
        }
        while reused.pop().is_some() {}
        reused.clear();
        // After clear, the reused queue must be indistinguishable from
        // a fresh one — including the private seq numbers visible via
        // Debug, which a stale counter would shift.
        for q in [&mut fresh, &mut reused] {
            q.schedule(Cycle::new(5), 100);
            q.schedule(Cycle::new(5), 200);
        }
        assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
        assert_eq!(fresh.pop(), reused.pop());
    }

    #[test]
    fn restored_queue_pops_in_identical_order() {
        let mut q = EventQueue::new();
        // Mixed times with FIFO ties, taken mid-run so the clock and
        // the seq counter are both nonzero at checkpoint time.
        for i in 0..20u64 {
            q.schedule(Cycle::new(5 + i % 3), i);
        }
        q.pop();
        q.pop();
        let bytes = q.to_snapshot_bytes();
        let mut restored = EventQueue::<u64>::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.now(), q.now());
        // Both queues must drain identically and accept identical
        // follow-up scheduling (same seq counter).
        for queue in [&mut q, &mut restored] {
            queue.schedule(Cycle::new(9), 999);
        }
        loop {
            let a = q.pop();
            let b = restored.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_causal() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(1), "a");
        let (t, _) = q.pop().unwrap();
        // Event handlers typically schedule follow-ups relative to now.
        q.schedule(t + CycleDelta::new(4), "b");
        q.schedule(t + CycleDelta::new(2), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }
}
