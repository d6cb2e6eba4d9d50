//! The scoped work-stealing pool behind [`run_sweep`].
//!
//! Layout: every worker owns a deque of `(index, input)` tasks,
//! seeded round-robin so a sweep whose cost ramps with the input
//! (heavier CE counts, higher fault rates) starts roughly balanced.
//! A worker pops from the *back* of its own deque and, when empty,
//! steals half a victim's deque from the *front* — the owner-LIFO /
//! thief-FIFO discipline with batched steals, here with a mutex per
//! deque instead of lock-free CAS loops because sweep points are
//! whole simulations (microseconds to seconds each) and a steal per
//! dry spell, rather than per point, keeps the lock traffic noise
//! even when points are short.
//!
//! Sweeps never spawn subtasks, so termination is trivial: once
//! every deque is empty it stays empty, and a worker that finds no
//! work anywhere exits. Results travel back over an `mpsc` channel
//! as `(index, result)` pairs and are committed to their input-order
//! slots after the scope joins, which is what makes the output
//! independent of scheduling.
//!
//! Cancellation is cooperative and point-granular: a [`CancelToken`]
//! is consulted between points, never inside one, so a cancelled
//! sweep stops at the next point boundary with every already-started
//! point run to completion. The serving tier uses this for deadline
//! and shutdown aborts; a cancelled sweep yields no results at all
//! (its callers must not observe a partial, order-broken output).
//!
//! [`run_sweep`]: crate::run_sweep

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

type PointOutcome<T> = Result<T, Box<dyn std::any::Any + Send>>;

/// A cooperative stop flag for sweep execution.
///
/// Cloning shares the flag; any clone can [`cancel`](CancelToken::cancel)
/// and every worker observes it at its next point boundary. Tokens are
/// cheap (one `Arc<AtomicBool>`) and a fresh token is never cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; already-running points
    /// finish, no further point starts.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Error returned by [`run_sweep_streaming_on`] when its token fired
/// before every point completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("sweep cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

/// Runs `f` over every input on exactly `threads` workers and
/// returns the results in input order.
///
/// `threads <= 1`, one input or none bypasses the pool and runs
/// inline on the caller's thread — the serial reference execution
/// that parallel runs are guaranteed to reproduce bit-for-bit.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed failing point — the
/// same one a serial execution would have surfaced first.
pub fn run_sweep_on<I, T, F>(threads: usize, inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    match run_sweep_streaming_on(threads, inputs, f, &CancelToken::new(), |_, _| {}) {
        Ok(results) => results,
        Err(Cancelled) => unreachable!("a fresh token never cancels"),
    }
}

/// [`run_sweep_on`] with a cooperative [`CancelToken`] consulted
/// between points, calling `notify(index, &result)` as each point
/// completes, on whatever thread ran it, *before* the sweep as a whole
/// finishes.
///
/// On `Ok` the output is bit-identical to the serial map, whatever
/// the thread count. On `Err(Cancelled)` at least one point never
/// ran and no result `Vec` is returned, so callers never observe a
/// partial sweep. A token that fires only after every point has
/// already finished still returns `Ok` — cancellation is a request,
/// not a post-hoc invalidation.
///
/// This is the streaming primitive behind the serving tier's
/// dispatcher: per-job replies leave for the wire the moment their
/// point completes instead of waiting for the batch barrier. The
/// ordered `Vec` is still returned (bit-identical to serial) for
/// callers that want both.
///
/// Contract:
///
/// * `notify` runs exactly once per *completed* point — never for a
///   point that panicked or was skipped by cancellation.
/// * Notification order is scheduling-dependent; only the returned
///   `Vec` is input-ordered. `notify` must therefore derive everything
///   from `(index, result)`.
/// * On `Err(Cancelled)`, notifications already delivered stay
///   delivered. Callers that must resolve *every* point (the serving
///   tier's exactly-once reply guarantee) track notified indices in
///   the closure and resolve the rest themselves.
///
/// # Errors
///
/// Returns [`Cancelled`] when the token fired before every point ran.
///
/// # Panics
///
/// A panicking point takes precedence over cancellation: the
/// lowest-indexed panic among the points that ran is re-raised.
pub fn run_sweep_streaming_on<I, T, F, N>(
    threads: usize,
    inputs: Vec<I>,
    f: F,
    cancel: &CancelToken,
    notify: N,
) -> Result<Vec<T>, Cancelled>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
    N: Fn(usize, &T) + Sync,
{
    let n = inputs.len();
    if threads <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        for (idx, input) in inputs.into_iter().enumerate() {
            if cancel.is_cancelled() {
                return Err(Cancelled);
            }
            let result = f(input);
            notify(idx, &result);
            out.push(result);
        }
        return Ok(out);
    }
    let workers = threads.min(n);

    // Seed the deques round-robin: task i lands on worker i % workers.
    let mut deques: Vec<Mutex<VecDeque<(usize, I)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (idx, input) in inputs.into_iter().enumerate() {
        deques[idx % workers]
            .get_mut()
            .expect("fresh mutex")
            .push_back((idx, input));
    }

    let (tx, rx) = mpsc::channel::<(usize, PointOutcome<T>)>();
    let deques = &deques;
    let f = &f;
    let notify = &notify;
    std::thread::scope(|scope| {
        for me in 0..workers {
            let tx = tx.clone();
            let cancel = cancel.clone();
            scope.spawn(move || {
                while !cancel.is_cancelled() {
                    let Some((idx, input)) = next_task(deques, me) else {
                        break;
                    };
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(input)));
                    if let Ok(result) = &outcome {
                        notify(idx, result);
                    }
                    // A send can only fail if the receiver is gone,
                    // which means the caller is already unwinding.
                    let _ = tx.send((idx, outcome));
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<PointOutcome<T>>> = (0..n).map(|_| None).collect();
    for (idx, outcome) in rx.try_iter() {
        debug_assert!(slots[idx].is_none(), "point {idx} committed twice");
        slots[idx] = Some(outcome);
    }
    // Panics win over cancellation, lowest index first — the same
    // failure a serial execution would have surfaced.
    if let Some(i) = slots.iter().position(|s| matches!(s, Some(Err(_)))) {
        match slots.swap_remove(i) {
            Some(Err(payload)) => resume_unwind(payload),
            _ => unreachable!("slot {i} held the first panic"),
        }
    }
    if slots.iter().any(Option::is_none) {
        debug_assert!(
            cancel.is_cancelled(),
            "a point vanished without cancellation"
        );
        return Err(Cancelled);
    }
    Ok(slots
        .into_iter()
        .map(|slot| match slot.expect("every slot checked complete") {
            Ok(result) => result,
            Err(_) => unreachable!("panics already re-raised"),
        })
        .collect())
}

/// Grabs the next task for worker `me`: own deque from the back,
/// then a *batch* from the front of each victim's in turn. `None`
/// means the sweep is drained — tasks are never added after seeding,
/// so empty is final.
///
/// Stealing takes half the victim's remaining tasks, not one: a
/// worker that went dry once is likely to keep stealing (its share of
/// the sweep was cheap), and re-visiting the victim's lock per point
/// serializes short-point sweeps on lock traffic. One steal per dry
/// spell keeps both deques busy for the rest of the imbalance.
fn next_task<I>(deques: &[Mutex<VecDeque<(usize, I)>>], me: usize) -> Option<(usize, I)> {
    if let Some(task) = deques[me].lock().expect("no poisoned deques").pop_back() {
        return Some(task);
    }
    let workers = deques.len();
    for offset in 1..workers {
        let victim = (me + offset) % workers;
        let mut batch: VecDeque<(usize, I)> = {
            let mut v = deques[victim].lock().expect("no poisoned deques");
            let take = v.len().div_ceil(2);
            if take == 0 {
                continue;
            }
            v.drain(..take).collect()
        };
        let task = batch.pop_front().expect("batch holds at least one task");
        if !batch.is_empty() {
            let mut own = deques[me].lock().expect("no poisoned deques");
            debug_assert!(own.is_empty(), "stealing with local work buffered");
            *own = batch;
        }
        return Some(task);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_point_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_sweep_on(4, (0usize..257).collect(), |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out.iter().copied().collect::<BTreeSet<_>>().len(), 257);
    }

    #[test]
    fn stealing_drains_a_lopsided_sweep() {
        // With round-robin seeding and 2 workers, all the heavy tasks
        // land on worker 0 (even indices). Worker 1 must steal them
        // for the sweep to finish; either way the output order holds.
        let inputs: Vec<u64> = (0..16).collect();
        let expected: Vec<u64> = inputs.iter().map(|&x| x + 1).collect();
        let out = run_sweep_on(2, inputs, |x| {
            if x % 2 == 0 {
                let mut acc = x;
                for i in 0..400_000u64 {
                    acc = acc.wrapping_mul(2862933555777941757).wrapping_add(i);
                }
                std::hint::black_box(acc);
            }
            x + 1
        });
        assert_eq!(out, expected);
    }

    #[test]
    fn batched_stealing_runs_a_short_point_storm_exactly_once() {
        // Thousands of near-empty points: the worst case for per-point
        // steal locking. Every point must still run exactly once and
        // land in its input-order slot.
        let n = 10_000usize;
        let counter = AtomicUsize::new(0);
        let out = run_sweep_on(8, (0..n).collect(), |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i * 3
        });
        assert_eq!(counter.load(Ordering::Relaxed), n);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn inline_path_used_for_single_thread() {
        // The serial path must not spawn: observable via thread ids.
        let main_id = std::thread::current().id();
        let out = run_sweep_on(1, vec![(), (), ()], |()| std::thread::current().id());
        assert!(out.iter().all(|&id| id == main_id));
    }

    #[test]
    fn pre_cancelled_token_runs_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        for threads in [1, 4] {
            let result = run_sweep_streaming_on(
                threads,
                (0u64..32).collect(),
                |x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    x
                },
                &token,
                |_, _| {},
            );
            assert_eq!(result, Err(Cancelled), "{threads} threads");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no point may start");
    }

    #[test]
    fn mid_sweep_cancel_stops_at_a_point_boundary() {
        // The closure itself cancels after a few points — the most
        // deterministic way to fire mid-sweep. Serial and parallel
        // must both refuse to return a partial result.
        for threads in [1, 4] {
            let token = CancelToken::new();
            let ran = AtomicUsize::new(0);
            let result = run_sweep_streaming_on(
                threads,
                (0u64..64).collect(),
                |x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if x == 2 {
                        token.cancel();
                    }
                    x
                },
                &token,
                |_, _| {},
            );
            assert_eq!(result, Err(Cancelled), "{threads} threads");
            let ran = ran.load(Ordering::Relaxed);
            assert!(ran < 64, "cancellation must stop the sweep, ran {ran}");
        }
    }

    #[test]
    fn late_cancel_after_completion_still_ok() {
        let token = CancelToken::new();
        let out = run_sweep_streaming_on(4, (0u64..8).collect(), |x| x * 2, &token, |_, _| {});
        token.cancel();
        assert_eq!(out, Ok((0..8).map(|x| x * 2).collect()));
    }

    #[test]
    #[should_panic(expected = "point 0 exploded")]
    fn panic_wins_over_cancellation() {
        // Point 0 both cancels the sweep and panics: the panic must be
        // re-raised, not swallowed into Err(Cancelled).
        let token = CancelToken::new();
        let _ = run_sweep_streaming_on(
            4,
            vec![0u64, 1, 2, 3],
            |x| {
                if x == 0 {
                    token.cancel();
                    panic!("point 0 exploded");
                }
                x
            },
            &token,
            |_, _| {},
        );
    }

    #[test]
    fn streaming_notifies_every_point_exactly_once() {
        for threads in [1, 4] {
            let notified = Mutex::new(vec![0u32; 64]);
            let out = run_sweep_streaming_on(
                threads,
                (0u64..64).collect(),
                |x| x * 2,
                &CancelToken::new(),
                |idx, &result| {
                    assert_eq!(result, (idx as u64) * 2, "notify sees the point's result");
                    notified.lock().unwrap()[idx] += 1;
                },
            )
            .unwrap();
            assert_eq!(out, (0u64..64).map(|x| x * 2).collect::<Vec<_>>());
            assert!(
                notified.lock().unwrap().iter().all(|&n| n == 1),
                "{threads} threads: every point notified exactly once"
            );
        }
    }

    #[test]
    fn streaming_cancel_keeps_delivered_notifications() {
        // Cancel fires mid-sweep; the sweep returns Err but the
        // notifications already delivered are the caller's record of
        // which points genuinely completed.
        for threads in [1, 4] {
            let token = CancelToken::new();
            let notified = Mutex::new(BTreeSet::new());
            let result = run_sweep_streaming_on(
                threads,
                (0u64..64).collect(),
                |x| {
                    if x == 3 {
                        token.cancel();
                    }
                    x
                },
                &token,
                |idx, _| {
                    notified.lock().unwrap().insert(idx);
                },
            );
            assert_eq!(result, Err(Cancelled), "{threads} threads");
            let seen = notified.lock().unwrap();
            assert!(!seen.is_empty(), "the cancelling point itself completed");
            assert!(seen.len() < 64, "cancellation stopped the sweep");
        }
    }

    #[test]
    fn streaming_never_notifies_a_panicked_point() {
        let notified = Mutex::new(BTreeSet::new());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_sweep_streaming_on(
                4,
                (0u64..16).collect(),
                |x| {
                    assert!(x != 5, "point {x} exploded");
                    x
                },
                &CancelToken::new(),
                |idx, _| {
                    notified.lock().unwrap().insert(idx);
                },
            )
        }));
        assert!(result.is_err(), "panic must propagate");
        assert!(
            !notified.lock().unwrap().contains(&5),
            "the panicked point must not have been notified"
        );
    }

    #[test]
    fn worker_panics_propagate_lowest_index_first() {
        let result = std::panic::catch_unwind(|| {
            run_sweep_on(4, (0u64..16).collect(), |x| {
                assert!(x % 5 != 3, "point {x} exploded");
                x
            })
        });
        let payload = result.expect_err("sweep must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("assert! payload is a String");
        assert_eq!(msg, "point 3 exploded");
    }
}
