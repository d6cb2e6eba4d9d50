//! Bounded, priority-laned job queue with admission control.
//!
//! The queue is the service's backpressure point: capacity is fixed at
//! construction, and a push against a full queue fails *immediately*
//! with a typed rejection instead of blocking the accept loop — the
//! client learns the server is saturated while its connection is still
//! healthy. Three priority lanes (high / normal / low) drain strictly
//! in priority order, FIFO within a lane, so dequeue order is a pure
//! function of push order and priorities.
//!
//! Closing the queue is how graceful drain starts: pushes stop being
//! admitted, poppers drain what remains, and `pop_batch` returns `None`
//! only once the queue is both closed and empty — each worker's
//! signal to exit; the last one out completes the drain.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::job::JobSpec;

/// Number of priority lanes (0 = high, 2 = low).
pub const LANES: usize = 3;

/// One admitted job waiting for the worker tier.
#[derive(Debug, Clone)]
pub struct JobTicket {
    /// Server-wide admission sequence number (also the trace tid).
    pub seq: u64,
    /// Content-addressed dedup key of [`JobTicket::spec`].
    pub key: String,
    /// The work itself.
    pub spec: JobSpec,
    /// Priority lane, clamped to `0..LANES` (0 is most urgent).
    pub priority: u8,
    /// When admission control accepted the job.
    pub enqueued_at: Instant,
    /// Latest instant at which starting the job is still useful.
    pub deadline: Option<Instant>,
}

/// Why a push was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; shed load at the caller.
    Full,
    /// The queue is closed (server draining); no new work.
    Closed,
}

#[derive(Debug)]
struct QueueState {
    lanes: [VecDeque<JobTicket>; LANES],
    depth: usize,
    closed: bool,
}

/// The bounded priority queue between admission and the worker tier.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// Creates a queue admitting at most `capacity` jobs at once.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                depth: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The admission capacity this queue was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued (not yet handed to a worker).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").depth
    }

    /// Admits `ticket`, or rejects it without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when at capacity, [`PushError::Closed`] when
    /// draining.
    pub fn push(&self, ticket: JobTicket) -> Result<(), PushError> {
        let mut st = self.state.lock().expect("queue lock poisoned");
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.depth >= self.capacity {
            return Err(PushError::Full);
        }
        let lane = usize::from(ticket.priority).min(LANES - 1);
        st.lanes[lane].push_back(ticket);
        st.depth += 1;
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until work is available, then pops up to `max` jobs in
    /// priority order (FIFO within a lane). Returns `None` once the
    /// queue is closed *and* empty — drain complete.
    #[must_use]
    pub fn pop_batch(&self, max: usize) -> Option<Vec<JobTicket>> {
        let mut st = self.state.lock().expect("queue lock poisoned");
        loop {
            if st.depth > 0 {
                let take = max.min(st.depth).max(1);
                let mut batch = Vec::with_capacity(take);
                'fill: for lane in 0..LANES {
                    while let Some(ticket) = st.lanes[lane].pop_front() {
                        batch.push(ticket);
                        if batch.len() == take {
                            break 'fill;
                        }
                    }
                }
                st.depth -= batch.len();
                return Some(batch);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("queue lock poisoned");
        }
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// poppers drain the backlog and then observe `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Whether [`close`](JobQueue::close) has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock poisoned").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket(seq: u64, priority: u8) -> JobTicket {
        JobTicket {
            seq,
            key: format!("k{seq}"),
            spec: JobSpec::Table2 {
                kernel: 0,
                ces: 1,
                blocks: 1,
            },
            priority,
            enqueued_at: Instant::now(),
            deadline: None,
        }
    }

    #[test]
    fn drains_priority_order_fifo_within_lane() {
        let q = JobQueue::new(16);
        for (seq, pri) in [(0, 2), (1, 0), (2, 1), (3, 0), (4, 2), (5, 1)] {
            q.push(ticket(seq, pri)).unwrap();
        }
        let batch = q.pop_batch(16).unwrap();
        let seqs: Vec<u64> = batch.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, [1, 3, 2, 5, 0, 4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn batch_size_is_respected() {
        let q = JobQueue::new(16);
        for seq in 0..5 {
            q.push(ticket(seq, 1)).unwrap();
        }
        assert_eq!(q.pop_batch(2).unwrap().len(), 2);
        assert_eq!(q.pop_batch(2).unwrap().len(), 2);
        assert_eq!(q.pop_batch(2).unwrap().len(), 1);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = JobQueue::new(2);
        q.push(ticket(0, 1)).unwrap();
        q.push(ticket(1, 1)).unwrap();
        assert_eq!(q.push(ticket(2, 1)), Err(PushError::Full));
        let _ = q.pop_batch(1).unwrap();
        q.push(ticket(3, 1)).unwrap();
    }

    #[test]
    fn close_drains_then_signals_none() {
        let q = JobQueue::new(8);
        q.push(ticket(0, 1)).unwrap();
        q.close();
        assert_eq!(q.push(ticket(1, 1)), Err(PushError::Closed));
        assert_eq!(q.pop_batch(8).unwrap().len(), 1);
        assert!(q.pop_batch(8).is_none(), "closed+empty must end the drain");
    }

    #[test]
    fn out_of_range_priority_clamps_to_lowest_lane() {
        let q = JobQueue::new(4);
        q.push(ticket(0, 250)).unwrap();
        q.push(ticket(1, 0)).unwrap();
        let seqs: Vec<u64> = q.pop_batch(4).unwrap().iter().map(|t| t.seq).collect();
        assert_eq!(seqs, [1, 0]);
    }

    #[test]
    fn blocked_popper_wakes_on_push() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        let q2 = q.clone();
        let popper = std::thread::spawn(move || q2.pop_batch(4).map(|b| b.len()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(ticket(0, 1)).unwrap();
        assert_eq!(popper.join().unwrap(), Some(1));
    }
}
