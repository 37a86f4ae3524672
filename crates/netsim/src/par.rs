//! Deterministic parallel map over independent work items.
//!
//! Experiment sweeps are grids of *independent* simulation cells — each
//! cell builds its own [`crate::Sim`], runs it, and returns a row. The
//! cells share nothing, so they can run on any number of OS threads;
//! determinism is preserved because [`par_map`] reassembles results **in
//! input order**, making the output a pure function of the items and the
//! mapping function, regardless of thread count or scheduling.
//!
//! The pool is a hand-rolled scoped-thread worker loop over
//! [`std::thread::scope`] (this repo vendors no crates.io dependencies;
//! see DESIGN.md "Vendored dependency shims"). The calling thread is one
//! of the workers: it spawns `jobs − 1` threads and runs the same claim
//! loop itself. Workers claim the next unclaimed item through a shared
//! atomic cursor, so a slow cell never blocks the queue behind it
//! (dynamic load balancing: on a 2-vCPU host E11's 512-site cells cost
//! 5–9× its 64-site ones, and E10's 32-site NERD cell about 40× its
//! neighbours). The cursor hands out the **last** item first: grids
//! declare their size axes ascending, so the costliest cells start at
//! once instead of last.
//!
//! ```
//! use netsim::par::par_map;
//!
//! let squares = par_map(4, (0u64..100).collect(), |x| x * x);
//! assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count the host offers (`std::thread::available_parallelism`,
/// 1 when unknown). The `jobs = 0` convention in the experiment layer
/// resolves to this.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `jobs` threads, the caller's included,
/// returning the results **in input order**.
///
/// * `jobs` is clamped to `[1, items.len()]`; `jobs <= 1` (or a single
///   item) runs inline on the caller's thread, in input order, with no
///   pool at all, so a serial run has zero threading overhead.
/// * Otherwise `jobs − 1` threads are spawned and the caller works
///   beside them, so no thread (and no allocator arena) sits idle.
/// * Items are claimed dynamically (atomic cursor), last item first,
///   not pre-chunked: result `i` is always `f(items[i])`, but *when*
///   each item runs is scheduling-dependent. Callers therefore get
///   byte-identical output for any `jobs` as long as `f` is a pure
///   function of its item.
/// * A panic in any worker, the caller included, propagates to the
///   caller once all workers have been joined (via
///   [`std::thread::scope`]).
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }

    // One slot per item: the input moves out when a worker claims it,
    // the output moves in when the worker finishes. Slot locks are held
    // only for the take/store moments (never across `f`), so contention
    // is two uncontended lock ops per item.
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|item| Mutex::new((Some(item), None)))
        .collect();
    // Claim `k` is item `n - 1 - k`: the last-declared item goes first.
    let claimed = AtomicUsize::new(0);
    let work = || loop {
        let k = claimed.fetch_add(1, Ordering::Relaxed);
        if k >= n {
            break;
        }
        let i = n - 1 - k;
        let item = {
            let mut slot = slots[i].lock().expect("slot lock");
            slot.0.take().expect("item claimed exactly once")
        };
        let result = f(item);
        slots[i].lock().expect("slot lock").1 = Some(result);
    };

    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(work);
        }
        work();
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked")
                .1
                .expect("every item was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    #[test]
    fn preserves_input_order_at_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 64, 1000] {
            let got = par_map(jobs, items.clone(), |x| x * 3 + 1);
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(8, empty, |x| x + 1), Vec::<u32>::new());
        assert_eq!(par_map(8, vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let calls = AtomicU64::new(0);
        let got = par_map(4, (0..100).collect::<Vec<u64>>(), |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn moves_non_copy_items_and_results() {
        let items: Vec<String> = (0..20).map(|i| format!("item-{i}")).collect();
        let got = par_map(3, items, |s| s.to_uppercase());
        assert_eq!(got[7], "ITEM-7");
        assert_eq!(got.len(), 20);
    }

    #[test]
    fn propagates_worker_panics() {
        let outcome = std::panic::catch_unwind(|| {
            par_map(4, (0..32).collect::<Vec<u32>>(), |x| {
                if x == 17 {
                    panic!("cell 17 exploded");
                }
                x
            })
        });
        assert!(outcome.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn serial_path_propagates_panics_too() {
        let outcome = std::panic::catch_unwind(|| {
            par_map(1, vec![1u32, 2, 3], |x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(outcome.is_err());
    }

    /// The distinct threads in `ids`, in first-seen order.
    fn distinct(ids: &Mutex<Vec<ThreadId>>) -> Vec<ThreadId> {
        let mut seen = Vec::new();
        for id in ids.lock().unwrap().iter() {
            if !seen.contains(id) {
                seen.push(*id);
            }
        }
        seen
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Both items wait for each other, so they run on two threads at
        // once: the caller's and one spawned worker.
        let meet = Barrier::new(2);
        let ids = Mutex::new(Vec::new());
        par_map(2, vec![0u8, 1], |_| {
            meet.wait();
            ids.lock().unwrap().push(thread::current().id());
        });
        let ids = distinct(&ids);
        let caller = thread::current().id();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids.iter().filter(|&&id| id == caller).count(), 1);
    }

    #[test]
    fn a_panic_on_the_callers_item_joins_the_other_worker() {
        let caller = thread::current().id();
        let meet = Barrier::new(2);
        let panicking = AtomicBool::new(false);
        let other_done = AtomicBool::new(false);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(2, vec![0u8, 1], |_| {
                meet.wait();
                if thread::current().id() == caller {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("the caller's cell exploded");
                }
                // Finish only once the caller's panic has begun; bounded,
                // so a pool whose caller runs no item fails, not hangs.
                for _ in 0..1_000_000 {
                    if panicking.load(Ordering::SeqCst) {
                        break;
                    }
                    thread::yield_now();
                }
                for _ in 0..100 {
                    thread::yield_now();
                }
                other_done.store(true, Ordering::SeqCst);
            })
        }));
        assert!(outcome.is_err(), "the caller's panic must reach the caller");
        assert!(
            other_done.load(Ordering::SeqCst),
            "the other worker is joined before the panic resumes"
        );
    }

    #[test]
    fn at_most_jobs_threads_run_items() {
        let ids = Mutex::new(Vec::new());
        par_map(3, (0..300).collect::<Vec<u32>>(), |x| {
            ids.lock().unwrap().push(thread::current().id());
            x
        });
        let n = distinct(&ids).len();
        assert!((1..=3).contains(&n), "{n} threads ran items at jobs = 3");
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }
}
