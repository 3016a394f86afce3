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
//!   lands in the SPU window;
//! * for each load, the youngest of its older store candidates (the
//!   entry store buffer's entries, then the region's stores) that its
//!   bytes overlap, if that is one of the last [`STORE_BUFFER`]. The
//!   store buffer always holds a suffix of the candidates, at most
//!   [`STORE_BUFFER`] long, and a load waits for the youngest
//!   overlapping entry in it: that is this candidate if it is still
//!   buffered, and no older overlapping candidate can be buffered when
//!   it is not.
//!
//! Addresses are not in the key. A memo [`Entry`] holds that key, the
//! exit state relative to the exit frontier, the frontier's advance, the
//! terminator's execute-complete cycle (its mispredict redirect is still
//! applied live) and the statistics deltas. The exit store buffer is the
//! last few candidates, so a replay hands it their live addresses.
//!
//! **Chaining.** After a replay the state stays virtual: an entry, a
//! frontier and the store buffer's addresses. The next region is looked
//! up among that entry's links by (region, dynamic inputs) alone, since
//! its state is that entry's exit state. `OooTiming` is materialised
//! only on a chain miss, a mispredict that moves the frontier, a region
//! that is stepped (barrier, `halt`, not yet engaged) and a fault.
//!
//! **Faults.** A region is deferred only when [`ADVANCE_SLACK`] bounds
//! its frontier within `max_cycles`, so `MaxCyclesExceeded` is always
//! raised by the stepped path. A functional fault inside a deferred
//! region times the instructions before it, so the error and the
//! statistics left behind equal the stepped path's.

use std::cmp::Reverse;

use super::{count, OooTiming, SbEntry, StartRing, ADVANCE_SLACK, STORE_BUFFER};
use crate::decode::{DecodedInstr, DecodedProgram};
use crate::error::SimError;
use crate::machine::{ExecEffect, Machine};
use crate::model::issue::{IssueRules, RegionKind};
use crate::model::OooStats;
use crate::stats::SimStats;
use crate::translate::RegionIndex;
use subword_isa::instr::RegMask;
use subword_isa::program::Program;
use subword_spu::mmio::in_mmio_range;

/// When the memo engages: a run builds it at its 8th taken backward
/// branch, and a region's 8th entry after that is its first keyed one.
/// Loops of a few trips (the fuzz generator's run 2–8) never pay for a
/// memo.
pub(super) const ENGAGE_AT: u32 = 8;

/// Memo entries kept per region; later misses are timed one
/// instruction at a time.
const MAX_ENTRIES_PER_REGION: usize = 64;

/// Successor links kept per memo entry.
const MAX_LINKS: usize = 8;

/// A load's input word when its memory operand lands in the SPU window.
const WINDOW_LOAD: u64 = u64::MAX;

/// One memoised region timing.
struct Entry {
    /// Frontier-relative entry state ([`OooTiming::encode`]).
    state: Box<[u64]>,
    /// Dynamic inputs (see [`Memo::push`]).
    inputs: Box<[u64]>,
    /// Frontier-relative exit state.
    exit: Box<[u64]>,
    /// Store-buffer entries in `exit`: the region's last `exit_sb` store
    /// candidates.
    exit_sb: usize,
    /// Exit frontier minus entry frontier.
    advance: u64,
    /// The terminator's execute-complete cycle minus the entry frontier.
    exec_end: u64,
    /// The exit state's `last_retire` minus the exit frontier.
    tail: u64,
    /// Statistics the timing added: `stall_cycles` and the occupancy
    /// counters.
    stats: SimStats,
    /// [`OooStats`] the timing added; `rob_peak` is the region's own
    /// peak.
    ooo: OooStats,
    /// `(region, entry)`: entries keyed on this entry's exit state.
    links: Vec<(u32, u32)>,
}

/// The timing state after a replay, not yet materialised: `entry`'s exit
/// state at `frontier`, with [`Memo::sb`] its store buffer's live
/// addresses. `synced` when `OooTiming` already holds an equivalent
/// state (right after a recording).
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
    /// Each memoised region's instruction counts ([`count`]), added once
    /// per completed execution.
    counts: Vec<SimStats>,
    /// Entries into each region so far.
    entered: Vec<u32>,
    /// Each region's entries, for lookups from a materialised state.
    table: Vec<Vec<u32>>,
    entries: Vec<Entry>,
    virt: Option<Virtual>,
    /// `(address, size)` of the virtual state's store-buffer entries.
    sb: Vec<(u32, u32)>,
    /// The region being executed: its first `pc`, each executed
    /// instruction's `(reads, addr)`, its dynamic inputs, and its store
    /// candidates' `(address, size)`.
    start: usize,
    timed: Vec<(RegMask, Option<u32>)>,
    inputs: Vec<u64>,
    cands: Vec<(u32, u32)>,
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
            sb: Vec::new(),
            start: 0,
            timed: Vec::new(),
            inputs: Vec::new(),
            cands: Vec::new(),
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
                tm.restore(&self.entries[v.entry as usize].exit, v.frontier, &self.sb);
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

    /// Start executing the region at `start`: its store candidates begin
    /// with the entry store buffer's entries that retire at or after the
    /// frontier.
    fn begin(&mut self, tm: &OooTiming, start: usize) {
        self.start = start;
        self.timed.clear();
        self.inputs.clear();
        self.cands.clear();
        match self.virt {
            Some(v) if !v.synced => self.cands.extend_from_slice(&self.sb),
            _ => self
                .cands
                .extend(tm.sb.iter().filter(|e| e.retire >= tm.fetch).map(|e| (e.addr, e.size))),
        }
    }

    /// Buffer one executed instruction and append its dynamic inputs: a
    /// routable instruction's routed read mask, and a memory operand's
    /// window bit or, for a load outside the window, how many candidates
    /// back its youngest overlapping recent one is (0 for none). Which
    /// instructions add words is static, so the words line up.
    fn push(&mut self, d: &DecodedInstr, reads: RegMask, addr: Option<u32>) {
        self.timed.push((reads, addr));
        if d.routable {
            self.inputs.push(u64::from(reads.mm) | u64::from(reads.gp) << 8);
        }
        let Some(addr) = addr else { return };
        let mmio = in_mmio_range(addr);
        let size = u32::from(d.mem_bytes);
        if d.flags.is_load() {
            let recent = &self.cands[self.cands.len().saturating_sub(STORE_BUFFER)..];
            let overlap = recent.iter().rev().position(|&(a, s)| a < addr + size && addr < a + s);
            let word = overlap.map_or(0, |back| back as u64 + 1);
            self.inputs.push(if mmio { WINDOW_LOAD } else { word });
        } else {
            self.inputs.push(u64::from(mmio));
        }
        if d.flags.is_store() && !mmio {
            self.cands.push((addr, size));
        }
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
            let inputs = &self.inputs[..];
            let hit = links.iter().find(|&&(region, e)| {
                region as usize == r && *self.entries[e as usize].inputs == *inputs
            });
            if let Some(&(_, e)) = hit {
                return self.replay(e, v.frontier, m);
            }
        }
        let from = self.virt.map(|v| v.entry);
        self.materialise(tm);
        tm.settle(&mut m.stats);
        self.key.clear();
        tm.encode(&mut self.key);
        debug_assert!(from.is_none_or(|from| *self.entries[from as usize].exit == *self.key));
        let (key, inputs) = (&self.key[..], &self.inputs[..]);
        let found = self.table[r].iter().copied().find(|&e| {
            let e = &self.entries[e as usize];
            *e.inputs == *inputs && *e.state == *key
        });
        let (e, exec_end) = match found {
            Some(e) => (e, self.replay(e, tm.fetch, m)),
            None if self.table[r].len() < MAX_ENTRIES_PER_REGION => self.record(tm, decoded, r, m),
            None => return self.step(tm, decoded, m),
        };
        if let Some(links) = from.map(|from| &mut self.entries[from as usize].links) {
            if links.len() < MAX_LINKS {
                links.push((r as u32, e));
            }
        }
        exec_end
    }

    /// Time the buffered instructions one at a time on the live state;
    /// returns the last one's execute-complete cycle.
    fn step(&mut self, tm: &mut OooTiming, decoded: &DecodedProgram, m: &mut Machine) -> u64 {
        self.materialise(tm);
        let mut exec_end = 0;
        for (k, &(reads, addr)) in self.timed.iter().enumerate() {
            exec_end = tm.instr(decoded.get(self.start + k), reads, addr, &mut m.stats, &mut m.ooo);
        }
        m.translation.fallback_slots += self.timed.len() as u64;
        exec_end
    }

    /// Time the region stepwise from the settled live state keyed in
    /// [`Memo::key`] and keep what it did as region `r`'s new entry,
    /// which the state then chains from. Returns the entry and the
    /// terminator's execute-complete cycle.
    fn record(
        &mut self,
        tm: &mut OooTiming,
        decoded: &DecodedProgram,
        r: usize,
        m: &mut Machine,
    ) -> (u32, u64) {
        let (frontier, stats_before, ooo_before) = (tm.fetch, m.stats, m.ooo);
        m.ooo.rob_peak = 0;
        let exec_end = self.step(tm, decoded, m);
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
            flushes: 0,
        };
        ooo.rob_peak = ooo.rob_peak.max(ooo_before.rob_peak);
        let id = self.entries.len() as u32;
        self.entries.push(Entry {
            state: self.key.as_slice().into(),
            inputs: self.inputs.as_slice().into(),
            exit: exit.into(),
            exit_sb: tm.sb.len(),
            advance: tm.fetch - frontier,
            exec_end: exec_end - frontier,
            tail: tm.last_retire.saturating_sub(tm.fetch),
            stats: m.stats - stats_before,
            ooo: added,
            links: Vec::new(),
        });
        self.table[r].push(id);
        m.translation.translations += 1;
        self.keep_sb(tm.sb.len());
        debug_assert!(self.sb.iter().map(|c| c.0).eq(tm.sb.iter().map(|e| e.addr)));
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
        m.translation.replayed_slots += self.timed.len() as u64;
        let (exit_sb, advance, exec_end) = (entry.exit_sb, entry.advance, entry.exec_end);
        self.keep_sb(exit_sb);
        self.virt = Some(Virtual { entry: e, frontier: frontier + advance, synced: false });
        frontier + exec_end
    }

    /// Keep the last `n` store candidates as the store buffer.
    fn keep_sb(&mut self, n: usize) {
        self.sb.clear();
        self.sb.extend_from_slice(&self.cands[self.cands.len() - n..]);
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
        memo.begin(tm, region.start);
        let mut last = ExecEffect::default();
        for at in region.start..region.end {
            match self.ooo_exec(program, decoded, at) {
                Ok((eff, reads, addr)) => {
                    memo.push(decoded.get(at), reads, addr);
                    last = eff;
                }
                Err(err) => {
                    // Count and time what executed, as stepping would have.
                    for pc in region.start..at {
                        count(&mut self.stats, decoded.get(pc), &self.rules);
                    }
                    memo.step(tm, decoded, self);
                    return Err(err);
                }
            }
        }
        self.stats += memo.counts[r];
        let exec_end = memo.time(tm, decoded, r, self);
        *pc = region.end;
        if let Some(taken) = last.branch {
            if let Some(pen) = self.resolve_branch(region.end - 1, taken) {
                memo.redirect(tm, exec_end + pen);
                self.ooo.flushes += 1;
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
    /// later read of a register, flag or unit cycle, of a store's
    /// data-ready cycle and of `last_retire` takes a max with a cycle at
    /// or after `F`, so those are clamped at `F`; `disp_n` counts only
    /// when `disp_at` is `F`, and `retire_n` only when `last_retire` is
    /// past it.
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
        for e in &self.sb {
            out.extend([e.retire - f, e.size.into(), rel(e.data_ready)]);
        }
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
    /// frontier `f`, with `sb` the `(address, size)` of its store-buffer
    /// entries.
    fn restore(&mut self, words: &[u64], f: u64, sb: &[(u32, u32)]) {
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
        debug_assert_eq!(n, sb.len());
        self.sb.clear();
        for (e, &(addr, size)) in take(3 * n).chunks(3).zip(sb) {
            debug_assert_eq!(e[1], u64::from(size));
            self.sb.push_back(SbEntry { retire: f + e[0], addr, size, data_ready: f + e[2] });
        }
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
