//! A std-only fork-join worker pool for embarrassingly parallel
//! simulation fan-out.
//!
//! Every experiment harness in the workspace runs many *independent*
//! simulations (one per variant, per sweep point, per figure), each
//! building its own `Hierarchy`. [`parallel_map`] distributes such a
//! work-list over `std::thread::scope` workers and collects results in
//! **input order**, so parallel runs produce byte-identical output to
//! `jobs = 1` — parallelism never perturbs simulated cycles, energy, or
//! RNG streams, because each item's simulation is self-contained and the
//! only shared state is the slot its result is written to.
//!
//! The pool is deliberately dependency-free (the build environment is
//! offline; no rayon/crossbeam) and unstructured work-stealing is not
//! needed: items are claimed from a shared atomic cursor, which load-
//! balances uneven item costs (simulations vary by orders of magnitude)
//! without any queue allocation.
//!
//! Panics in workers propagate: `std::thread::scope` re-raises a child
//! panic on join, so a failing simulation fails the whole map, like the
//! serial loop it replaces. The experiment runners, which must survive
//! a failing experiment, use [`parallel_map_catch`], which isolates
//! each item's panic into an `Err` carrying the panic payload instead.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use when the caller does not specify:
/// the machine's available parallelism, or 1 if it cannot be queried.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `jobs` worker threads, returning the
/// results in input order.
///
/// `f` receives `(index, item)` so callers can label work without
/// capturing per-item state. With `jobs <= 1` (or a single item) the map
/// degenerates to the plain serial loop on the calling thread — no
/// threads are spawned, which keeps single-job runs bit-for-bit
/// identical to pre-pool behavior and makes `--jobs 1` a meaningful
/// determinism baseline.
///
/// # Panics
///
/// Re-raises the panic of any `f` invocation that panicked (after all
/// workers have stopped).
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    // Items are handed out via an atomic cursor; each result lands in
    // the slot of its input index. Mutexes are uncontended (each slot is
    // touched by exactly one worker) — they only exist to make the
    // slot writes safe across threads without unsafe code.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("item claimed twice");
                let r = f(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Render a panic payload as text: the `&str`/`String` message when the
/// panic carried one (the overwhelmingly common case), a placeholder
/// otherwise.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Like [`parallel_map`], but a panicking `f` invocation yields
/// `Err(panic message)` for that item while every other item still
/// completes — the panic-isolating mode every experiment runner uses.
///
/// The closure must not leave shared state half-mutated when it panics;
/// experiment harnesses satisfy this because each item's simulation is
/// self-contained (the `AssertUnwindSafe` below is sound for the same
/// reason `parallel_map`'s determinism argument holds).
pub fn parallel_map_catch<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    parallel_map(jobs, items, |i, x| {
        catch_unwind(AssertUnwindSafe(|| f(i, x))).map_err(panic_message)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(8, items, |i, x| {
            // Stagger completion so late indices often finish first.
            std::thread::sleep(std::time::Duration::from_micros((100 - x) * 10));
            (i, x * 2)
        });
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, i as u64 * 2);
        }
    }

    #[test]
    fn jobs_one_runs_serially_on_caller_thread() {
        let caller = std::thread::current().id();
        let out = parallel_map(1, vec![1, 2, 3], |_, x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let out = parallel_map(64, vec![10u64, 20], |i, x| x + i as u64);
        assert_eq!(out, vec![10, 21]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = parallel_map(4, Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(16, items, |_, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(4, (0..32).collect::<Vec<u64>>(), |_, x| {
                if x == 17 {
                    panic!("boom in worker");
                }
                x
            })
        });
        assert!(result.is_err(), "panic in a worker must fail the map");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn catch_isolates_panics_and_keeps_order() {
        let out = parallel_map_catch(4, (0..32).collect::<Vec<u64>>(), |_, x| {
            if x == 17 {
                panic!("boom on {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            if i == 17 {
                assert_eq!(r.as_ref().unwrap_err(), "boom on 17");
            } else {
                assert_eq!(*r, Ok(i as u64 * 2));
            }
        }
    }

    #[test]
    fn catch_serial_path_also_isolates() {
        let out = parallel_map_catch(1, vec![1u32, 2, 3], |_, x| {
            if x == 2 {
                panic!("static str payload");
            }
            x
        });
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1].as_ref().unwrap_err(), "static str payload");
        assert_eq!(out[2], Ok(3));
    }

    #[test]
    fn catch_all_ok_matches_plain_map() {
        let out = parallel_map_catch(8, (0..64).collect::<Vec<u64>>(), |i, x| x + i as u64);
        assert!(out.iter().enumerate().all(|(i, r)| *r == Ok(2 * i as u64)));
    }
}
