//! Simulated memory's free list is shared by all threads: a buffer that
//! one thread's machine returned serves the next machine on any thread.
//! This is the only test in its binary, so no test running beside it
//! takes buffers from the list or returns them.

use std::sync::Barrier;
use std::thread;

use subword_sim::memory::buffers_allocated;
use subword_sim::{Machine, MachineConfig};

/// Rounds of two scoped threads, each building a machine, writing its
/// memory and holding it until the other has built its own, allocate
/// two buffers in all: the first round's, which every later round's
/// new threads take back from the list, re-zeroed.
#[test]
fn threads_that_end_leave_their_buffers_to_later_threads() {
    let before = buffers_allocated();
    for round in 0..4 {
        let both_built = Barrier::new(2);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut m = Machine::new(MachineConfig::default());
                    assert_eq!(m.mem.load_u64(0x1000), Ok(0), "a reused buffer is zeroed");
                    m.mem.store_u64(0x1000, u64::MAX).unwrap();
                    both_built.wait();
                });
            }
        });
        assert_eq!(buffers_allocated() - before, 2, "after round {round}");
    }
}
