//! Timing replay: the out-of-order model's timing, memoised per
//! straight-line region (after FastSim: Schnarr and Larus, "Fast
//! Out-of-Order Processor Simulation Using Memoization", ASPLOS 1998).
//!
//! Timing never feeds back into functional state, so a run can execute a
//! whole region of the threaded engine's partition
//! ([`RegionIndex`]) first and time it at the region's end. What
//! `OooTiming::instr` computes over the region is then a function of:
//!
//! * the timing state at the region's entry, relative to the dispatch
//!   frontier `F` ([`OooTiming::encode`]);
//! * each instruction's routed read mask and whether its memory operand
//!   lands in the SPU window.
//!
//! The second part is sparse. An instruction's inputs are its predecoded
//! reads and no window access, unless the execution notes one word for
//! it ([`Memo::note`]): routed reads that differ from the predecoded
//! ones, or a window access. Most instructions note nothing, so
//! executing a region costs little beyond `Machine::exec`, and a miss
//! rebuilds the inputs from the predecoded table and the noted words.
//! Two executions with equal noted words have equal inputs, instruction
//! by instruction.
//!
//! The timing never reads an address, so none is in the key. A memo
//! [`Entry`] holds that key, the exit state relative to the exit
//! frontier, the frontier's advance, the terminator's execute-complete
//! cycle (its mispredict redirect is still applied live) and the
//! statistics deltas, the region's instruction counts included, so a
//! replay is one add.
//!
//! **Chaining.** After a replay the state stays virtual: an entry and a
//! frontier. The next region is looked up among that entry's links by
//! (region, dynamic inputs) alone, since its state is that entry's exit
//! state. `OooTiming` is materialised only on a chain miss, a mispredict
//! that moves the frontier, a region that is stepped (barrier, `halt`,
//! not yet engaged) and a fault.
//!
//! **Faults.** A region is deferred only when [`ADVANCE_SLACK`] bounds
//! its frontier within `max_cycles`, so `MaxCyclesExceeded` is always
//! raised by the stepped path. A functional fault inside a deferred
//! region times the instructions before it, so the error and the
//! statistics left behind equal the stepped path's.

use std::cmp::Reverse;

use super::{count, routed_reads, OooTiming, StartRing, ADVANCE_SLACK};
use crate::decode::DecodedProgram;
use crate::error::SimError;
use crate::machine::{ExecEffect, Machine};
use crate::model::issue::{IssueRules, RegionKind};
use crate::model::OooStats;
use crate::stats::SimStats;
use crate::translate::RegionIndex;
use subword_isa::instr::RegMask;
use subword_isa::program::Program;

/// When the memo is built: at a run's 8th taken backward branch. A loop
/// of a few trips (the fuzz generator's run 2–8, so at most 7 back
/// edges) never builds one.
pub(super) const BUILD_AT: u32 = 8;

/// A region's entries, counted from the memo's build, up to its first
/// keyed one: a region entered only once more (straight-line code
/// between loops) is timed one instruction at a time and never keyed.
const ENGAGE_AT: u32 = 2;

/// Memo entries kept per region; later misses are timed one
/// instruction at a time.
const MAX_ENTRIES_PER_REGION: usize = 64;

/// Successor links kept per memo entry.
const MAX_LINKS: usize = 8;

/// Whether two runs of noted words are equal. Most regions note none,
/// and an empty boxed slice points at the dangling address 8: `==` on
/// two empty slices still calls `memcmp` with length 0, which glibc's
/// AVX-512 `memcmp` serves with a masked load from that address, taking
/// a fault-suppression assist on page 0 (~110 ns a compare, against
/// ~1 ns with the empty case tested first, in a standalone `rustc -O`
/// loop on a glibc 2.36 AVX-512 host). So the empty case never reaches
/// `memcmp`.
#[inline]
fn same_words(a: &[u64], b: &[u64]) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}

/// One memoised region timing.
struct Entry {
    /// Frontier-relative entry state ([`OooTiming::encode`]).
    state: Box<[u64]>,
    /// Noted words ([`Memo::note`]).
    inputs: Box<[u64]>,
    /// Frontier-relative exit state.
    exit: Box<[u64]>,
    /// Exit frontier minus entry frontier.
    advance: u64,
    /// The terminator's execute-complete cycle minus the entry frontier.
    exec_end: u64,
    /// The exit state's `last_retire` minus the exit frontier.
    tail: u64,
    /// Statistics the region added: its instruction counts,
    /// `stall_cycles` and the occupancy counters.
    stats: SimStats,
    /// [`OooStats`] the timing added; `rob_peak` is the region's own
    /// peak.
    ooo: OooStats,
    /// `(region, entry)`: entries keyed on this entry's exit state.
    links: Vec<(u32, u32)>,
}

/// The timing state after a replay, not yet materialised: `entry`'s exit
/// state at `frontier`. `synced` when `OooTiming` already holds an
/// equivalent state (right after a recording).
#[derive(Clone, Copy)]
struct Virtual {
    entry: u32,
    frontier: u64,
    synced: bool,
}

/// One run's timing memo: the region partition, one table of entries
/// (bounded per region) and the virtual state, plus the region being
/// executed.
pub(super) struct Memo {
    index: RegionIndex,
    /// Each memoised region's instruction counts ([`count`]), part of
    /// every entry's statistics.
    counts: Vec<SimStats>,
    /// Entries into each region since the memo was built.
    entered: Vec<u32>,
    /// Each region's entries, for lookups from a materialised state.
    table: Vec<Vec<u32>>,
    entries: Vec<Entry>,
    virt: Option<Virtual>,
    /// The region being executed, `start..end`, and the words its
    /// instructions noted so far.
    start: usize,
    end: usize,
    inputs: Vec<u64>,
    /// Scratch for a materialised state's key.
    key: Vec<u64>,
}

/// Whether a region's timing is memoised: barrier and `halt` regions
/// are always stepped.
fn memoised(kind: RegionKind) -> bool {
    !matches!(kind, RegionKind::Barrier | RegionKind::Halt)
}

impl Memo {
    pub(super) fn new(program: &Program, decoded: &DecodedProgram, rules: &IssueRules) -> Memo {
        let index = RegionIndex::new(program);
        let n = index.regions.len();
        let counts = index.regions.iter().map(|r| {
            let mut counts = SimStats::default();
            if memoised(r.kind) {
                (r.start..r.end).for_each(|pc| count(&mut counts, decoded.get(pc), rules));
            }
            counts
        });
        Memo {
            counts: counts.collect(),
            index,
            entered: vec![0; n],
            table: vec![Vec::new(); n],
            entries: Vec::new(),
            virt: None,
            start: 0,
            end: 0,
            inputs: Vec::new(),
            key: Vec::new(),
        }
    }

    pub(super) fn regions(&self) -> usize {
        self.index.regions.len()
    }

    /// Count an entry into the region that starts at `pc`, if one does,
    /// and return its index when its timing is memoised from this entry
    /// on.
    pub(super) fn engaged_at(&mut self, pc: usize) -> Option<usize> {
        let r = self.index.starting_at(pc)?;
        if !memoised(self.index.regions[r].kind) {
            return None;
        }
        let entered = &mut self.entered[r];
        *entered = entered.saturating_add(1);
        (*entered >= ENGAGE_AT).then_some(r)
    }

    /// Make `tm` the live timing state.
    pub(super) fn materialise(&mut self, tm: &mut OooTiming) {
        if let Some(v) = self.virt.take() {
            if !v.synced {
                tm.restore(&self.entries[v.entry as usize].exit, v.frontier);
            }
        }
    }

    /// `max(fetch, last_retire)` of the current state: no cycle it holds
    /// is later.
    fn reach(&self, tm: &OooTiming) -> u64 {
        match self.virt {
            Some(v) if !v.synced => v.frontier + self.entries[v.entry as usize].tail,
            _ => tm.fetch.max(tm.last_retire),
        }
    }

    /// Start executing the region `start..end`.
    fn begin(&mut self, start: usize, end: usize) {
        (self.start, self.end) = (start, end);
        self.inputs.clear();
    }

    /// Note the timing inputs of the executed instruction at `pc` whose
    /// inputs are not its static ones (routed `reads` other than its
    /// predecoded reads, or a window access): one word of its offset in
    /// the region, `reads` and the window bit `mmio`.
    #[inline]
    fn note(&mut self, pc: usize, reads: RegMask, mmio: bool) {
        let offset = (pc - self.start) as u64;
        let (mm, gp) = (u64::from(reads.mm), u64::from(reads.gp));
        self.inputs.push(offset << 32 | u64::from(mmio) << 24 | gp << 8 | mm);
    }

    /// Time the executed region `r` from the memo, recording it on a
    /// miss; returns the terminator's execute-complete cycle.
    fn time(
        &mut self,
        tm: &mut OooTiming,
        decoded: &DecodedProgram,
        r: usize,
        m: &mut Machine,
    ) -> u64 {
        if let Some(v) = self.virt {
            let links = &self.entries[v.entry as usize].links;
            let hit = links.iter().find(|&&(region, e)| {
                region as usize == r && same_words(&self.entries[e as usize].inputs, &self.inputs)
            });
            if let Some(&(_, e)) = hit {
                return self.replay(e, v.frontier, m);
            }
        }
        let from = self.virt.map(|v| v.entry);
        self.materialise(tm);
        tm.settle(&mut m.stats);
        m.translation.rekeys += 1;
        self.key.clear();
        tm.encode(&mut self.key);
        debug_assert!(from.is_none_or(|from| *self.entries[from as usize].exit == *self.key));
        let found = self.table[r].iter().copied().find(|&e| {
            let e = &self.entries[e as usize];
            same_words(&e.inputs, &self.inputs) && *e.state == *self.key
        });
        let (e, exec_end) = match found {
            Some(e) => (e, self.replay(e, tm.fetch, m)),
            None if self.table[r].len() < MAX_ENTRIES_PER_REGION => self.record(tm, decoded, r, m),
            None => {
                m.stats += self.counts[r];
                return self.step(tm, decoded, m, self.end);
            }
        };
        if let Some(links) = from.map(|from| &mut self.entries[from as usize].links) {
            if links.len() < MAX_LINKS {
                links.push((r as u32, e));
            }
        }
        exec_end
    }

    /// Time the executed instructions `start..end` one at a time on the
    /// live state, each with its predecoded reads and no window access
    /// unless it noted a word; returns the last one's execute-complete
    /// cycle.
    fn step(
        &mut self,
        tm: &mut OooTiming,
        decoded: &DecodedProgram,
        m: &mut Machine,
        end: usize,
    ) -> u64 {
        self.materialise(tm);
        let mut noted = self.inputs.iter().peekable();
        let mut exec_end = 0;
        for pc in self.start..end {
            let d = decoded.get(pc);
            let offset = (pc - self.start) as u64;
            let (reads, mmio) = match noted.next_if(|&&word| word >> 32 == offset) {
                Some(&word) => {
                    (RegMask { mm: word as u8, gp: (word >> 8) as u16 }, word >> 24 & 1 != 0)
                }
                None => (d.reads, false),
            };
            exec_end = tm.instr(d, reads, mmio, &mut m.stats, &mut m.ooo);
        }
        m.translation.fallback_slots += (end - self.start) as u64;
        exec_end
    }

    /// Time the region stepwise from the settled live state keyed in
    /// [`Memo::key`] and keep what it did, its instruction counts
    /// included, as region `r`'s new entry, which the state then chains
    /// from. Returns the entry and the terminator's execute-complete
    /// cycle.
    fn record(
        &mut self,
        tm: &mut OooTiming,
        decoded: &DecodedProgram,
        r: usize,
        m: &mut Machine,
    ) -> (u32, u64) {
        let (frontier, stats_before, ooo_before) = (tm.fetch, m.stats, m.ooo);
        m.stats += self.counts[r];
        m.ooo.rob_peak = 0;
        let exec_end = self.step(tm, decoded, m, self.end);
        tm.settle(&mut m.stats);
        let mut exit = Vec::new();
        tm.encode(&mut exit);
        let ooo = &mut m.ooo;
        let added = OooStats {
            rob_stall_cycles: ooo.rob_stall_cycles - ooo_before.rob_stall_cycles,
            rs_stall_cycles: ooo.rs_stall_cycles - ooo_before.rs_stall_cycles,
            sb_stall_cycles: ooo.sb_stall_cycles - ooo_before.sb_stall_cycles,
            rename_stalls: ooo.rename_stalls - ooo_before.rename_stalls,
            rob_occupancy_sum: ooo.rob_occupancy_sum - ooo_before.rob_occupancy_sum,
            rob_peak: ooo.rob_peak,
            dispatched: ooo.dispatched - ooo_before.dispatched,
        };
        ooo.rob_peak = ooo.rob_peak.max(ooo_before.rob_peak);
        let id = self.entries.len() as u32;
        self.entries.push(Entry {
            state: self.key.as_slice().into(),
            inputs: self.inputs.as_slice().into(),
            exit: exit.into(),
            advance: tm.fetch - frontier,
            exec_end: exec_end - frontier,
            tail: tm.last_retire.saturating_sub(tm.fetch),
            stats: m.stats - stats_before,
            ooo: added,
            links: Vec::new(),
        });
        self.table[r].push(id);
        m.translation.translations += 1;
        self.virt = Some(Virtual { entry: id, frontier: tm.fetch, synced: true });
        (id, exec_end)
    }

    /// Apply entry `e` to a region entered at `frontier`: add its
    /// statistics and make its exit state the virtual state. Returns the
    /// terminator's execute-complete cycle.
    fn replay(&mut self, e: u32, frontier: u64, m: &mut Machine) -> u64 {
        let entry = &self.entries[e as usize];
        m.stats += entry.stats;
        let (ooo, add) = (&mut m.ooo, &entry.ooo);
        ooo.rob_stall_cycles += add.rob_stall_cycles;
        ooo.rs_stall_cycles += add.rs_stall_cycles;
        ooo.sb_stall_cycles += add.sb_stall_cycles;
        ooo.rename_stalls += add.rename_stalls;
        ooo.rob_occupancy_sum += add.rob_occupancy_sum;
        ooo.rob_peak = ooo.rob_peak.max(add.rob_peak);
        ooo.dispatched += add.dispatched;
        m.translation.replays += 1;
        m.translation.replayed_slots += (self.end - self.start) as u64;
        let (advance, exec_end) = (entry.advance, entry.exec_end);
        self.virt = Some(Virtual { entry: e, frontier: frontier + advance, synced: false });
        frontier + exec_end
    }

    /// Raise the dispatch frontier to `to` (a mispredict's fetch
    /// redirect), materialising the state when it moves.
    fn redirect(&mut self, tm: &mut OooTiming, to: u64) {
        if self.virt.is_some_and(|v| to <= v.frontier) {
            return;
        }
        self.materialise(tm);
        tm.fetch = tm.fetch.max(to);
    }
}

impl Machine {
    /// Execute region `r`, which starts at `*pc`, and time it through
    /// `memo`. Returns `false`, having executed nothing, when the region
    /// might push the dispatch frontier past `max_cycles`: the caller
    /// then steps it and faults exactly where stepping does.
    pub(super) fn run_region(
        &mut self,
        program: &Program,
        decoded: &DecodedProgram,
        tm: &mut OooTiming,
        memo: &mut Memo,
        r: usize,
        pc: &mut usize,
    ) -> Result<bool, SimError> {
        let region = memo.index.regions[r];
        let longest = self.rules.scalar_mul_latency.max(self.rules.mmx_mul_latency);
        let span = (region.end - region.start) as u64 * (longest + ADVANCE_SLACK);
        if memo.reach(tm).saturating_add(span) > self.cfg.max_cycles {
            return Ok(false);
        }
        memo.begin(region.start, region.end);
        let mut last = ExecEffect::default();
        for at in region.start..region.end {
            // `ooo_exec` written out, so that `exec` is called here
            // directly: through an inlined `ooo_exec` the replay ran ~30%
            // slower. An instruction notes a word only when its inputs are
            // not the static ones.
            let (i, d) = (&program.instrs[at], decoded.get(at));
            let routing = self.take_routing();
            let window = self.stats.mmio_accesses;
            match self.exec(program, i, &routing, at) {
                Ok(eff) => {
                    let reads = routed_reads(i, d, &routing);
                    let mmio = self.stats.mmio_accesses != window;
                    if reads != d.reads || mmio {
                        memo.note(at, reads, mmio);
                    }
                    last = eff;
                }
                Err(err) => {
                    // Count and time what executed, as stepping would have.
                    for pc in region.start..at {
                        count(&mut self.stats, decoded.get(pc), &self.rules);
                    }
                    memo.step(tm, decoded, self, at);
                    return Err(err);
                }
            }
        }
        let exec_end = memo.time(tm, decoded, r, self);
        *pc = region.end;
        if let Some(taken) = last.branch {
            if let Some(pen) = self.resolve_branch(region.end - 1, taken) {
                memo.redirect(tm, exec_end + pen);
            }
            if let Some(target) = last.redirect {
                *pc = target;
            }
        }
        Ok(true)
    }
}

impl OooTiming {
    /// Fold the start ring below the dispatch frontier and release the
    /// entries that retired or started before it. Exact between any two
    /// instructions: no start lands below the frontier, and the next
    /// dispatch releases the same entries before it reads any.
    fn settle(&mut self, stats: &mut SimStats) {
        self.started.fold_below(self.fetch, stats);
        self.free_before(self.fetch);
    }

    /// Append the settled state relative to the frontier `F`. Every
    /// later read of a register, flag or unit cycle and of `last_retire`
    /// takes a max with a cycle at or after `F`, so those are clamped at
    /// `F`; `disp_n` counts only when `disp_at` is `F`, and `retire_n`
    /// only when `last_retire` is past it.
    fn encode(&self, out: &mut Vec<u64>) {
        let f = self.fetch;
        let rel = |c: u64| c.saturating_sub(f);
        out.push(self.rob.len() as u64);
        out.extend(self.rob.iter().map(|&r| r - f));
        out.push(self.rs.len() as u64);
        let rs = out.len();
        out.extend(self.rs.iter().map(|&Reverse(start)| start - f));
        out[rs..].sort_unstable();
        out.push(self.sb.len() as u64);
        out.extend(self.sb.iter().map(|&r| r - f));
        let ring = &self.started;
        let mask = ring.slots.len() as u64 - 1;
        out.push(ring.end.saturating_sub(f));
        out.extend((f..ring.end).map(|c| {
            let (total, mmx) = ring.slots[(c & mask) as usize];
            total | mmx << 32
        }));
        let units = [
            self.flags_avail,
            self.mmx_mul_free,
            self.scalar_mul_free,
            self.mem_port_free,
            self.shifter_free,
        ];
        out.extend(self.mm_avail.iter().chain(&self.gp_avail).chain(&units).map(|&c| rel(c)));
        out.push(if self.disp_at == f { self.disp_n } else { 0 });
        if self.last_retire > f {
            out.extend([self.last_retire - f, self.retire_n]);
        } else {
            out.extend([0, 0]);
        }
    }

    /// Become the state `words` ([`OooTiming::encode`]) encodes at
    /// frontier `f`.
    fn restore(&mut self, words: &[u64], f: u64) {
        let mut words = words;
        let mut take = |n: usize| {
            let (head, rest) = words.split_at(n);
            words = rest;
            head
        };
        self.fetch = f;
        let n = take(1)[0] as usize;
        self.rob.clear();
        self.rob.extend(take(n).iter().map(|&r| f + r));
        let n = take(1)[0] as usize;
        self.rs.clear();
        self.rs.extend(take(n).iter().map(|&start| Reverse(f + start)));
        let n = take(1)[0] as usize;
        self.sb.clear();
        self.sb.extend(take(n).iter().map(|&r| f + r));
        let n = take(1)[0] as usize;
        self.started.restore(f, take(n));
        let units = [
            &mut self.flags_avail,
            &mut self.mmx_mul_free,
            &mut self.scalar_mul_free,
            &mut self.mem_port_free,
            &mut self.shifter_free,
        ];
        let cycles = self.mm_avail.iter_mut().chain(&mut self.gp_avail).chain(units);
        for (cycle, &r) in cycles.zip(take(29)) {
            *cycle = f + r;
        }
        self.disp_at = f;
        self.disp_n = take(1)[0];
        self.last_retire = f + take(1)[0];
        self.retire_n = take(1)[0];
        debug_assert!(words.is_empty(), "an encoded state has no trailing words");
    }
}

impl StartRing {
    /// Replace the live span with `counts` (`total | mmx << 32` per
    /// cycle) from cycle `base` on.
    fn restore(&mut self, base: u64, counts: &[u64]) {
        let mask = self.slots.len() as u64 - 1;
        for cycle in self.base..self.end {
            self.slots[(cycle & mask) as usize] = (0, 0);
        }
        if counts.len() > self.slots.len() {
            self.slots = vec![(0, 0); counts.len().next_power_of_two()];
        }
        let mask = self.slots.len() as u64 - 1;
        for (cycle, &count) in (base..).zip(counts) {
            self.slots[(cycle & mask) as usize] = (count & 0xffff_ffff, count >> 32);
        }
        self.base = base;
        self.end = base + counts.len() as u64;
    }
}
