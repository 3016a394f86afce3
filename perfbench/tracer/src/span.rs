//! Timing spans and counters, kept per thread in memory.
//!
//! A span times one call into a layer. Its *self time* is its duration
//! minus the time its child spans on the same thread cover, so the self
//! times of all spans on a thread sum to the time its top-level spans
//! cover. Worker threads hand their ledger back when they finish; the
//! caller merges them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one thread recorded.
#[derive(Default)]
pub struct Ledger {
    /// Self time per span name.
    pub self_time: BTreeMap<&'static str, Duration>,
    /// Event counts per counter name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Time covered by top-level spans.
    pub covered: Duration,
    /// Start of the first and end of the last top-level span.
    pub extent: Option<(Instant, Instant)>,
}

impl Ledger {
    /// Fold `other`'s times and counts into `self` (extents are
    /// per-thread and not merged).
    pub fn absorb(&mut self, other: &Ledger) {
        for (k, v) in &other.self_time {
            *self.self_time.entry(k).or_default() += *v;
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_default() += *v;
        }
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::default();
    /// Child time accumulated by each open span, innermost last.
    static OPEN: RefCell<Vec<Duration>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    OPEN.with(|o| o.borrow_mut().push(Duration::ZERO));
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let took = end - start;
    let (children, top) = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let children = o.pop().expect("span stack underflow");
        if let Some(parent) = o.last_mut() {
            *parent += took;
        }
        (children, o.is_empty())
    });
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        *l.self_time.entry(name).or_default() += took.saturating_sub(children);
        if top {
            l.covered += took;
            l.extent = Some(match l.extent {
                Some((first, _)) => (first, end),
                None => (start, end),
            });
        }
    });
    out
}

/// Add `n` to the counter `name`.
pub fn count(name: &'static str, n: u64) {
    LEDGER.with(|l| *l.borrow_mut().counters.entry(name).or_default() += n);
}

/// Take this thread's ledger, leaving an empty one.
pub fn take() -> Ledger {
    LEDGER.with(|l| std::mem::take(&mut *l.borrow_mut()))
}
