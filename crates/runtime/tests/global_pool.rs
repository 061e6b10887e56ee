//! The process-global pool under nesting and concurrent callers. One test
//! binary of its own: it reconfigures the global pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Run `f` on a fresh thread and fail if it has not returned within `secs`.
/// A deadlocked call never returns, so on a timeout its thread is left
/// behind rather than joined.
fn within(secs: u64, what: &str, f: impl FnOnce() -> usize + Send + 'static) -> usize {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let got = rx
        .recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what} did not finish within {secs} s"));
    worker.join().expect("the timed thread returned");
    got
}

#[test]
fn global_calls_nest_and_run_concurrently() {
    ssdrec_runtime::set_threads(2);

    // A global call made inside a chunk of a global call.
    let nested = within(5, "a nested global parallel_for", || {
        let total = AtomicUsize::new(0);
        ssdrec_runtime::parallel_for(4, 1, |_, _| {
            ssdrec_runtime::parallel_for(4, 1, |s, e| {
                total.fetch_add(e - s, Ordering::Relaxed);
            });
        });
        total.into_inner()
    });
    assert_eq!(nested, 16);

    // Two independent callers whose calls overlap in time: each chunk waits
    // until both callers are inside their calls, which cannot happen if one
    // caller holds the pool for the duration of its call.
    let both = within(5, "two overlapping global calls", || {
        let inside = std::sync::Arc::new(std::sync::Barrier::new(2));
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let inside = std::sync::Arc::clone(&inside);
                std::thread::spawn(move || {
                    let ran = AtomicUsize::new(0);
                    ssdrec_runtime::parallel_for(1, 1, |_, _| {
                        inside.wait();
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                    ran.into_inner()
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().expect("caller")).sum()
    });
    assert_eq!(both, 2);

    ssdrec_runtime::set_threads(1);
}
