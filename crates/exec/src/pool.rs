//! The scoped work-stealing pool behind [`run_sweep_on`].
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
//! independent of scheduling. There is no cancellation: a panicking
//! point is caught, the rest of the sweep still runs, and the
//! lowest-indexed panic is re-raised once every worker has joined.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;

type PointOutcome<T> = Result<T, Box<dyn std::any::Any + Send>>;

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
    let n = inputs.len();
    if threads <= 1 || n <= 1 {
        return inputs.into_iter().map(f).collect();
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
    std::thread::scope(|scope| {
        for me in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some((idx, input)) = next_task(deques, me) {
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(input)));
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
    // Lowest index first — the failure a serial execution would have
    // surfaced.
    if let Some(i) = slots.iter().position(|s| matches!(s, Some(Err(_)))) {
        match slots.swap_remove(i) {
            Some(Err(payload)) => resume_unwind(payload),
            _ => unreachable!("slot {i} held the first panic"),
        }
    }
    slots
        .into_iter()
        .map(|slot| match slot.expect("every point ran") {
            Ok(result) => result,
            Err(_) => unreachable!("panics already re-raised"),
        })
        .collect()
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
