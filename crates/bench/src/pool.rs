//! The worker pool both orchestrators run on: the sweep's four passes
//! ([`crate::sweep::run_sweep`]) and the fuzz campaign (`subword-fuzz`'s
//! `run_campaign_with` and `replay`).
//!
//! rayon would be the off-the-shelf choice; the workspace builds offline
//! with its external crates stubbed (DESIGN.md §5), so this is ~30 lines
//! of `std::thread` (DESIGN.md §4).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use subword_compile::verify::contained;

/// How many workers a pool runs: the host's available parallelism (4
/// when it cannot be read). No setting overrides it; a one-worker pool
/// is the sequential case.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Run `job(i)` for every `i` in `0..n` on up to `threads` scoped
/// workers that pull indices from one shared counter, so one slow job
/// (FFT1024 in a sweep, a failing case's minimization in a fuzz
/// campaign) never serializes the rest behind it. A panicking job costs
/// only its own result, as `Err("panicked: …")`: an unwinding worker
/// would leave the remaining slots unfilled and re-panic the scope join.
/// Results come back in index order.
pub fn pool<T: Send>(
    threads: usize,
    n: usize,
    job: impl Fn(usize) -> Result<T, String> + Sync,
) -> Vec<Result<T, String>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let outcome =
                    contained(|| job(i)).unwrap_or_else(|msg| Err(format!("panicked: {msg}")));
                *slot.lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool exited before finishing its jobs")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panicking job costs only its own slot: the single worker that
    /// ran it goes on to drain every later job, and results come back in
    /// index order.
    #[test]
    fn a_worker_keeps_draining_after_a_panicking_job() {
        let results = pool(1, 4, |i| {
            if i == 0 {
                panic!("job {i} failed");
            }
            Ok(i * 10)
        });
        assert_eq!(results, [Err("panicked: job 0 failed".to_string()), Ok(10), Ok(20), Ok(30)]);
    }
}
