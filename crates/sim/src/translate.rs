//! Trace recording and replay: the threaded execution engine.
//!
//! The decoded engine re-decides pairing, scoreboard readiness and SPU
//! routing through a match per issue slot on every loop iteration, even
//! though a steady-state iteration makes exactly the same decisions as
//! the previous one. This module keeps, per straight-line region (the
//! scheduler's partition — [`crate::issue::regions_of`]) and per
//! distinct entry state, a flat issue trace: the slots the stepper issued
//! the first time the region ran from that state. Replaying a trace
//! executes the region's instructions (register and memory semantics and
//! the SPU controller's steps always run live) but skips the per-slot
//! issue machinery, then applies the region's recorded statistics in one
//! `+=`.
//!
//! ## Recording
//!
//! On a region's first entry under a new signature the engine steps the
//! region with `Machine::step_slot`, the slot loop the decoded and
//! reference engines run, and keeps what it issued:
//!
//! * each slot's U and V `pc` and its issue cycle relative to the entry;
//! * the statistics delta, minus the counters a replay accounts live:
//!   `branches`, `mispredicts` and `mispredict_cycles`, which the
//!   terminator's branch resolution counts, and `mmio_accesses`, which
//!   `exec` counts;
//! * the cycle advance, minus the terminator's mispredict penalty;
//! * at each slot led by a store, the same delta and advance so far: the
//!   prefix a replay that aborts at that slot accounts.
//!
//! The issue procedure therefore exists once, in the stepper, and a trace
//! carries whatever the stepper counts.
//!
//! ## Entry signatures
//!
//! A region's issue schedule is fully determined by its entry state:
//!
//! * the **relative scoreboard** — each MMX register's ready cycle minus
//!   the entry cycle (bounded by the multiplier latency);
//! * the **SPU controller state** — active context, state id, committed
//!   crossbar window base, and the two loop counters, *clamped* at
//!   `span + 1`: a counter that cannot reach zero within the region
//!   takes the same arcs no matter its exact value, so all such values
//!   share one trace;
//! * the **microcode store generation** — a counter bumped on every
//!   store that stages state-table bytes in the SPU window. Such a
//!   store can change a state's routing behind an otherwise-unchanged
//!   signature, so traces never survive one. Control-register stores
//!   (GO/counters/entry) don't invalidate anything: their effects are
//!   fully visible in the controller state the signature captures, which
//!   is what lets per-block SPU re-arm loops keep their traces warm.
//!
//! Traces are cached per region keyed by this signature; a mismatch
//! records afresh (up to a small cap), and dynamic events fall back to
//! the stepper for exactly the affected slots.
//!
//! ## Stores into the SPU window
//!
//! Such a store can change the routing, and so the pairing, of every
//! slot after it, which the signature captured at the region's entry
//! cannot foresee:
//!
//! * **Barrier regions** (statically identifiable SPU MMIO accesses) are
//!   never recorded — the stepper executes them, and the store
//!   generation moves underneath every cached signature.
//! * A **recording** that reaches a slot led by a register-addressed
//!   store whose effective address lands in the window stops before it
//!   and keeps no trace; the stepper carries on from that slot.
//! * A **replay** that reaches such a store aborts *before* it executes:
//!   the prefix is accounted from the snapshot recorded at that slot,
//!   and the stepper re-issues from the aborted slot with live routing.
//!
//! ## Other fallbacks
//!
//! * A replay that could cross [`MachineConfig::max_cycles`] falls back
//!   wholesale so the stepper reproduces the exact fault.
//! * **Taken/not-taken branch outcomes** need no fallback: a region's
//!   terminating branch is executed live during replay and resolved
//!   (predictor update, penalty, redirect) exactly as the stepper would,
//!   through the same `Machine::resolve_branch`.
//! * A **fallthrough region's last instruction** is left to the stepper
//!   unless a slot pairs it inward: the dynamic pairing window crosses
//!   region boundaries (the slot formed at the region's tail may pair
//!   with the next region's head), which a per-region trace cannot
//!   hold.
//!
//! The result is bit-identical [`SimStats`], architectural state and
//! faults across all three engines — enforced suite-wide by the
//! differential tests — at a multiple of the decoded engine's simulated
//! MIPS on loop-dominated kernels.
//!
//! [`MachineConfig::max_cycles`]: crate::machine::MachineConfig::max_cycles

use crate::decode::DecodedProgram;
use crate::error::SimError;
use crate::machine::{ExecEffect, Machine};
use crate::model::issue::{regions_of, Region, RegionKind};
use crate::stats::SimStats;
use subword_isa::instr::Instr;
use subword_isa::program::Program;
use subword_spu::mmio::in_mmio_range;

/// Traces cached per region before further entry states fall back to the
/// stepper (counter-countdown tails of SPU loops produce a few distinct
/// signatures per region; runaways would just thrash).
const MAX_TRACES_PER_REGION: usize = 16;

/// Largest relative scoreboard distance a signature can carry. Bounded
/// by the MMX multiply latency in practice; configurations beyond this
/// simply never record.
const MAX_MM_REL: u64 = 255;

/// Sentinel for "no V slot".
const NO_V: u32 = u32::MAX;

/// Host-side telemetry of the threaded engine (see
/// [`Machine::translation`]). Not part of [`SimStats`]: the simulated
/// machine's statistics must be identical across engines.
///
/// On the out-of-order model the same fields describe its timing memo
/// ([`crate::model::ooo`]): a translation is a region timing recorded,
/// a replay one applied from the memo, and a slot is one instruction,
/// its timing replayed or computed one instruction at a time (`aborts`
/// stays 0, and `regions` is 0 until the run builds its memo).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Straight-line regions in the program's partition.
    pub regions: u64,
    /// Traces recorded (cache misses that kept a trace).
    pub translations: u64,
    /// Completed trace replays.
    pub replays: u64,
    /// Issue slots retired through trace replay.
    pub replayed_slots: u64,
    /// Replays aborted mid-trace (dynamic MMIO store).
    pub aborts: u64,
    /// Issue slots retired through the stepper, recordings included.
    pub fallback_slots: u64,
    /// Out-of-order model only: lookups of a materialised timing state,
    /// each an encoding of the state and a scan of the region's entries
    /// (0 on the in-order engines).
    pub rekeys: u64,
}

/// SPU controller component of an entry signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SpuSig {
    /// Controller idle (or no SPU fitted): every slot fetches straight.
    Off,
    /// Controller live: routing starts from this state.
    Active {
        ctx: usize,
        state: u8,
        /// Loop counters, clamped at `span + 1` (see module docs).
        counters: [u32; 2],
        /// Crossbar window base the context was committed with. A GO
        /// store re-commits the context with the CONFIG window-base
        /// bits, which changes routing without touching staged
        /// microcode (the store generation), so it must be part of the
        /// signature.
        window_base: u8,
    },
}

/// Everything the issue schedule of one region entry depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EntrySig {
    /// Per-register MMX ready cycle relative to the entry cycle.
    mm_rel: [u8; 8],
    spu: SpuSig,
    /// [`Machine`]'s MMIO store generation at capture.
    gen: u64,
}

/// One recorded issue slot of a trace.
#[derive(Clone, Copy, Debug)]
struct TraceSlot {
    /// `pc` of the U-pipe instruction.
    u: u32,
    /// `pc` of the V-pipe instruction, or [`NO_V`].
    v: u32,
    /// Issue cycle relative to region entry (stalls included).
    rel: u64,
}

/// What the stepper accounted from a region's entry to one point of a
/// recording, as a replay applies it in bulk.
#[derive(Clone, Copy, Debug)]
struct Account {
    /// The statistics delta, minus the counters a replay accounts live:
    /// `branches`, `mispredicts` and `mispredict_cycles` (the
    /// terminator's branch resolution) and `mmio_accesses` (`exec`).
    stats: SimStats,
    /// Cycles since the entry.
    cycles: u64,
}

/// A recorded region: the slot array plus everything needed to apply
/// its effects in bulk.
#[derive(Clone, Debug)]
struct Trace {
    sig: EntrySig,
    slots: Vec<TraceSlot>,
    /// A full replay, before any terminator mispredict penalty.
    whole: Account,
    /// `pc` after a full replay when no branch redirects.
    end_pc: usize,
    /// The prefix before each store-led slot, with the slot's index, in
    /// slot order: the only slots a replay can abort at. Kept apart from
    /// `slots` so the replay loop walks a dense array.
    prefixes: Vec<(usize, Account)>,
}

/// A program's straight-line region partition ([`regions_of`]), indexed
/// by start `pc`: what the threaded engine records traces over, and what
/// the out-of-order model memoises its timing over
/// ([`crate::model::ooo`]).
pub(crate) struct RegionIndex {
    pub(crate) regions: Vec<Region>,
    /// `pc` → region index for region *starts* (`u32::MAX` elsewhere).
    region_at: Vec<u32>,
}

impl RegionIndex {
    pub(crate) fn new(program: &Program) -> RegionIndex {
        let regions = regions_of(program);
        let mut region_at = vec![u32::MAX; program.instrs.len() + 1];
        for (k, r) in regions.iter().enumerate() {
            region_at[r.start] = k as u32;
        }
        RegionIndex { regions, region_at }
    }

    /// Index of the region that starts at `pc`, if one does.
    #[inline]
    pub(crate) fn starting_at(&self, pc: usize) -> Option<usize> {
        self.region_at.get(pc).copied().filter(|&r| r != u32::MAX).map(|r| r as usize)
    }
}

/// Per-run translation state: the region partition and the trace caches.
struct Translator {
    index: RegionIndex,
    caches: Vec<Vec<Trace>>,
    /// Regions that can never replay (barriers, no slot to record).
    never: Vec<bool>,
}

impl Translator {
    fn new(program: &Program) -> Translator {
        let index = RegionIndex::new(program);
        let never = index
            .regions
            .iter()
            .map(|r| r.kind == RegionKind::Barrier || u_limit(r) <= r.start)
            .collect();
        let caches = index.regions.iter().map(|_| Vec::new()).collect();
        Translator { index, caches, never }
    }
}

/// One past the last `pc` a slot of `region`'s trace may lead with: a
/// region ending in `halt` never issues it, and a fallthrough region's
/// last instruction is left to the stepper unless a slot pairs it inward
/// (see the module docs).
fn u_limit(region: &Region) -> usize {
    match region.kind {
        RegionKind::Halt | RegionKind::Fallthrough => region.end - 1,
        RegionKind::Loop | RegionKind::Branch | RegionKind::Barrier => region.end,
    }
}

impl Machine {
    /// Run `program` on the threaded engine: record straight-line
    /// regions from the stepper and replay them, falling back to the
    /// stepper for dynamic events. Bit-identical to
    /// [`Machine::run_reference`] in statistics, architectural state and
    /// faults. In-order only: [`Machine::run`] sends the out-of-order
    /// model elsewhere before choosing an engine.
    pub(crate) fn run_threaded(&mut self, program: &Program) -> Result<SimStats, SimError> {
        self.begin_run()?;
        let decoded = DecodedProgram::decode(program);
        let mut tr = Translator::new(program);
        self.translation.regions = tr.index.regions.len() as u64;
        let mut pc = 0usize;
        loop {
            if let Some(ridx) = tr.index.starting_at(pc) {
                if !tr.never[ridx]
                    && self.enter_region(program, &decoded, &mut tr, ridx, &mut pc)?
                {
                    continue;
                }
            }
            if self.step_slot(program, Some(&decoded), &mut pc)?.is_none() {
                break;
            }
            self.translation.fallback_slots += 1;
        }
        Ok(self.finish_run())
    }

    /// Replay the region starting at `*pc`, or record it on a new entry
    /// signature. Returns `true` if the machine advanced; `false` asks
    /// the caller to step.
    fn enter_region(
        &mut self,
        program: &Program,
        decoded: &DecodedProgram,
        tr: &mut Translator,
        ridx: usize,
        pc: &mut usize,
    ) -> Result<bool, SimError> {
        let region = tr.index.regions[ridx];
        let Some(sig) = self.entry_sig(&region) else {
            return Ok(false);
        };
        let cache = &mut tr.caches[ridx];
        let Some(trace) = cache.iter().find(|t| t.sig == sig) else {
            if cache.len() >= MAX_TRACES_PER_REGION {
                return Ok(false);
            }
            return self.record(program, decoded, &region, sig, cache, pc);
        };
        // A replay crossing the cycle budget falls back wholesale: the
        // stepper then faults at the exact slot the oracle would.
        if self.cycle + trace.whole.cycles > self.cfg.max_cycles {
            return Ok(false);
        }
        self.replay(program, decoded, &region, trace, pc)
    }

    /// Capture the entry signature for `region` at the current machine
    /// state. `None` when the state cannot be summarised (scoreboard
    /// distance beyond [`MAX_MM_REL`]).
    fn entry_sig(&self, region: &Region) -> Option<EntrySig> {
        let mut mm_rel = [0u8; 8];
        for (slot, &ready) in mm_rel.iter_mut().zip(&self.mm_ready) {
            let rel = ready.saturating_sub(self.cycle);
            if rel > MAX_MM_REL {
                return None;
            }
            *slot = rel as u8;
        }
        let span = (region.end - region.start) as u32;
        let spu = match &self.spu {
            Some(s) if s.controller.is_active() => SpuSig::Active {
                ctx: s.controller.active_context(),
                state: s.controller.current_state(),
                counters: s.controller.counters().map(|c| c.min(span + 1)),
                window_base: s.controller.window_base(),
            },
            _ => SpuSig::Off,
        };
        Some(EntrySig { mm_rel, spu, gen: self.mmio_store_gen })
    }

    /// Step `region` from its start at `*pc` and keep what the stepper
    /// issued as `sig`'s trace in `cache`. Stops before a slot led by a
    /// store into the SPU window and then keeps no trace (see the module
    /// docs). Returns `true` if the machine advanced.
    ///
    /// Cold and out of line: recordings are rare, and inlining this into
    /// the replay path slows every replay.
    #[cold]
    #[inline(never)]
    fn record(
        &mut self,
        program: &Program,
        decoded: &DecodedProgram,
        region: &Region,
        sig: EntrySig,
        cache: &mut Vec<Trace>,
        pc: &mut usize,
    ) -> Result<bool, SimError> {
        let (entry_stats, entry_cycle) = (self.stats, self.cycle);
        let limit = u_limit(region);
        let mut slots = Vec::with_capacity(region.end - region.start);
        let mut prefixes = Vec::new();
        let mut penalty = 0;
        // The `pc` after the last recorded slot, before any redirect.
        let mut next = *pc;
        while next < limit {
            if decoded.get(next).flags.is_store() {
                if self.lands_in_window(&program.instrs[next]) {
                    return Ok(!slots.is_empty());
                }
                prefixes.push((slots.len(), self.account_since(entry_stats, entry_cycle)));
            }
            let slot = self
                .step_slot(program, Some(decoded), pc)?
                .expect("a region's issuable range holds no halt");
            self.translation.fallback_slots += 1;
            slots.push(TraceSlot {
                u: slot.u as u32,
                v: slot.v.map_or(NO_V, |v| v as u32),
                rel: slot.cycle - entry_cycle,
            });
            penalty += slot.mispredict_penalty;
            next = slot.v.unwrap_or(slot.u) + 1;
        }
        let mut whole = self.account_since(entry_stats, entry_cycle);
        whole.cycles -= penalty;
        cache.push(Trace { sig, slots, whole, end_pc: next, prefixes });
        self.translation.translations += 1;
        Ok(true)
    }

    /// What the machine accounted since its statistics were
    /// `entry_stats` and its clock `entry_cycle`, as a trace keeps it.
    fn account_since(&self, entry_stats: SimStats, entry_cycle: u64) -> Account {
        let stats = self.stats - entry_stats;
        Account {
            stats: SimStats {
                branches: 0,
                mispredicts: 0,
                mispredict_cycles: 0,
                mmio_accesses: 0,
                ..stats
            },
            cycles: self.cycle - entry_cycle,
        }
    }

    /// Apply `account` to a replay that entered its region at
    /// `entry_cycle`.
    fn apply(&mut self, account: &Account, entry_cycle: u64) {
        self.stats += account.stats;
        self.cycle = entry_cycle + account.cycles;
    }

    /// Whether `i`'s memory operand lands in the SPU window at the
    /// current register state.
    fn lands_in_window(&self, i: &Instr) -> bool {
        i.mem_operand().is_some_and(|m| in_mmio_range(self.ea(m)))
    }

    /// Replay `trace`: execute every recorded slot (live semantics, live
    /// controller stepping), then apply the bulk statistics, set the
    /// clock forward and resolve the region's terminating branch.
    /// Returns `true` when the machine advanced.
    fn replay(
        &mut self,
        program: &Program,
        decoded: &DecodedProgram,
        region: &Region,
        trace: &Trace,
        pc: &mut usize,
    ) -> Result<bool, SimError> {
        let entry_cycle = self.cycle;
        let mut last_eff = ExecEffect::default();
        for (si, slot) in trace.slots.iter().enumerate() {
            let u_pc = slot.u as usize;
            let i0 = &program.instrs[u_pc];
            // Dynamic-address MMIO store: the recorded routing is stale
            // from here on. Account the completed prefix and hand the
            // slot to the stepper.
            if decoded.get(u_pc).flags.is_store() && self.lands_in_window(i0) {
                return Ok(self.abort_replay(trace, si, entry_cycle, pc));
            }
            // The clock tracks each slot's issue cycle so multiplier
            // retires land exactly where the stepper puts them.
            self.cycle = entry_cycle + slot.rel;
            let routing0 = self.take_routing();
            last_eff = self.exec(program, i0, &routing0, u_pc)?;
            if slot.v != NO_V {
                let v_pc = slot.v as usize;
                let routing1 = self.take_routing();
                last_eff = self.exec(program, &program.instrs[v_pc], &routing1, v_pc)?;
            }
        }
        self.apply(&trace.whole, entry_cycle);
        self.translation.replays += 1;
        self.translation.replayed_slots += trace.slots.len() as u64;
        *pc = trace.end_pc;
        if matches!(region.kind, RegionKind::Loop | RegionKind::Branch) {
            let bpc = region.end - 1;
            let taken = last_eff.branch.expect("region terminator must be a branch");
            if let Some(pen) = self.resolve_branch(bpc, taken) {
                self.cycle += pen;
            }
            if let Some(t) = last_eff.redirect {
                *pc = t;
            }
        }
        Ok(true)
    }

    /// Account the `si` replayed slots of an aborted replay from the
    /// prefix recorded at slot `si` (their execution side effects already
    /// happened live) and position `pc` and the clock so the stepper
    /// re-issues slot `si` exactly as if it had been stepping all along.
    /// Returns `true` when the machine advanced.
    fn abort_replay(&mut self, trace: &Trace, si: usize, entry_cycle: u64, pc: &mut usize) -> bool {
        let (_, prefix) = trace
            .prefixes
            .iter()
            .find(|(slot, _)| *slot == si)
            .expect("the recording snapshots every store-led slot");
        self.apply(prefix, entry_cycle);
        self.translation.aborts += 1;
        self.translation.replayed_slots += si as u64;
        *pc = trace.slots[si].u as usize;
        si > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use subword_isa::asm::assemble;
    use subword_isa::lane::from_iwords;
    use subword_isa::op::{Cond, MmxOp};
    use subword_isa::reg::gp::*;
    use subword_isa::reg::MmReg::*;
    use subword_isa::ProgramBuilder;
    use subword_spu::crossbar::ByteRoute;
    use subword_spu::mmio::{emit_spu_go, emit_spu_setup, SpuMmio, CONTEXT_STRIDE, SPU_MMIO_BASE};
    use subword_spu::{SpuProgram, SHAPE_D};

    fn assert_threaded_matches_reference(
        mut setup: impl FnMut(&mut Machine),
        program: &Program,
    ) -> (SimStats, TranslationStats) {
        let mut reference = Machine::new(MachineConfig {
            engine: crate::machine::ExecEngine::Reference,
            spu_fitted: true,
            crossbar: SHAPE_D,
            ..Default::default()
        });
        setup(&mut reference);
        let want = reference.run(program).unwrap();

        let mut threaded = Machine::new(MachineConfig {
            engine: crate::machine::ExecEngine::Threaded,
            spu_fitted: true,
            crossbar: SHAPE_D,
            ..Default::default()
        });
        setup(&mut threaded);
        let got = threaded.run(program).unwrap();

        assert_eq!(got, want, "threaded SimStats diverged from reference");
        assert_eq!(threaded.regs.read_mm(MM0), reference.regs.read_mm(MM0));
        assert_eq!(threaded.regs.read_gp(R0), reference.regs.read_gp(R0));
        (got, threaded.translation)
    }

    #[test]
    fn steady_state_loop_replays() {
        let p = assemble(
            "t",
            "mov r0, 500\nloop:\n pmullw mm0, mm1\n paddw mm2, mm0\n sub r0, 1\n jnz loop\n halt\n",
        )
        .unwrap();
        let (_, tl) = assert_threaded_matches_reference(|_| {}, &p);
        assert!(tl.replays >= 490, "loop iterations should replay, got {tl:?}");
        // One trace for the warm loop entry, at most a couple more for
        // the cold entries.
        assert!(tl.translations <= 4, "trace cache should converge, got {tl:?}");
    }

    #[test]
    fn routed_spu_loop_replays_with_signature_tail() {
        let trips = 50u64;
        let op_a = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
        let op_b = ByteRoute::from_reg_words([(MM0, 2), (MM1, 2), (MM0, 3), (MM1, 3)]);
        let spu_prog = SpuProgram::single_loop(
            "dot",
            &[(Some(op_a), Some(op_b)), (Some(op_a), Some(op_b)), (None, None), (None, None)],
            trips,
        );
        let mut b = ProgramBuilder::new("spu-loop");
        emit_spu_setup(&mut b, 0, &spu_prog);
        b.mov_ri(R0, trips as i32);
        emit_spu_go(&mut b, 0, &spu_prog);
        let l = b.bind_here("loop");
        b.mmx_rr(MmxOp::Pmulhw, MM2, MM2);
        b.mmx_rr(MmxOp::Pmullw, MM3, MM3);
        b.alu_ri(subword_isa::op::AluOp::Sub, R0, 1);
        b.jcc(Cond::Ne, l);
        b.halt();
        let p = b.finish().unwrap();

        let (_, tl) = assert_threaded_matches_reference(
            |m| {
                m.regs.write_mm(MM0, from_iwords([1, 2, 3, 4]));
                m.regs.write_mm(MM1, from_iwords([5, 6, 7, 8]));
            },
            &p,
        );
        assert!(tl.replays > trips / 2, "routed loop should replay, got {tl:?}");
    }

    /// A register-addressed store into the SPU window mid-loop aborts the
    /// replay at that slot without breaking equivalence. The first pass
    /// stores to ordinary memory and records the trace; later passes
    /// store to CNTR0 of an unused context, a control register, so the
    /// signature stays put and the trace replays up to the store.
    #[test]
    fn dynamic_mmio_store_aborts_replay() {
        let mut b = ProgramBuilder::new("dyn-mmio");
        b.mov_ri(R1, 0x100);
        b.mov_ri(R0, 40);
        let l = b.bind_here("loop");
        b.mmx_rr(MmxOp::Paddw, MM0, MM1);
        b.store(subword_isa::Mem::base(R1), R2);
        b.mov_ri(R1, (SPU_MMIO_BASE + 3 * CONTEXT_STRIDE + 0x8) as i32);
        b.alu_ri(subword_isa::op::AluOp::Sub, R0, 1);
        b.jcc(Cond::Ne, l);
        b.halt();
        let p = b.finish().unwrap();

        let (stats, tl) = assert_threaded_matches_reference(|_| {}, &p);
        assert_eq!(stats.mmio_accesses, 39);
        assert_eq!(tl.aborts, 39, "every pass after the recording should abort, got {tl:?}");
    }

    /// A recording stops before a store into the SPU window. The first
    /// pass arms the SPU with a GO store through a register, and the
    /// routed `paddw` cannot pair with the next one; the program idles
    /// within the pass, so the next entry has the same signature but
    /// stores to ordinary memory and pairs the two. A trace recorded
    /// through the GO store would replay the first pass's pairing there.
    #[test]
    fn recording_stops_before_a_window_store() {
        let reads_mm2 =
            SpuProgram::single_loop("war", &[(None, Some(ByteRoute::identity(MM2)))], 1);
        let mut b = ProgramBuilder::new("go-first-pass");
        emit_spu_setup(&mut b, 0, &reads_mm2);
        b.mov_ri(R1, SPU_MMIO_BASE as i32);
        b.mov_ri(R3, SpuMmio::go_config(0, 0) as i32);
        b.mov_ri(R0, 20);
        let l = b.bind_here("loop");
        b.store(subword_isa::Mem::base(R1), R3);
        b.mmx_rr(MmxOp::Paddw, MM0, MM1);
        b.mmx_rr(MmxOp::Paddw, MM2, MM3);
        b.mov_ri(R1, 0x100);
        b.alu_ri(subword_isa::op::AluOp::Sub, R0, 1);
        b.jcc(Cond::Ne, l);
        b.halt();
        let p = b.finish().unwrap();

        let (stats, tl) = assert_threaded_matches_reference(|_| {}, &p);
        assert_eq!((stats.spu_activations, stats.spu_routed), (1, 1));
        assert!(tl.replays > 0, "the ordinary-memory passes should replay, got {tl:?}");
    }

    /// A store that lands in the SPU window on every entry stops every
    /// recording before it, so the loop keeps no trace and never replays.
    #[test]
    fn window_store_on_every_entry_keeps_no_trace() {
        let mut b = ProgramBuilder::new("mmio-every-pass");
        // r1 points into an unused staging byte of context 3.
        b.mov_ri(R1, (SPU_MMIO_BASE + 3 * CONTEXT_STRIDE + 0x1000) as i32);
        b.mov_ri(R0, 40);
        let l = b.bind_here("loop");
        b.mmx_rr(MmxOp::Paddw, MM0, MM1);
        b.store(subword_isa::Mem::base(R1), R2);
        b.alu_ri(subword_isa::op::AluOp::Sub, R0, 1);
        b.jcc(Cond::Ne, l);
        b.halt();
        let p = b.finish().unwrap();

        let (stats, tl) = assert_threaded_matches_reference(|_| {}, &p);
        assert_eq!(stats.mmio_accesses, 40);
        assert_eq!((tl.replays, tl.aborts), (0, 0), "the loop should keep no trace, got {tl:?}");
    }

    #[test]
    fn max_cycles_fault_is_identical() {
        let p = assemble("t", "l:\n jmp l\n halt\n").unwrap();
        let cfg = MachineConfig { max_cycles: 1000, ..Default::default() };
        let mut threaded = Machine::new(cfg.clone());
        let te = threaded.run(&p).unwrap_err();
        let mut reference = Machine::new(cfg);
        let re = reference.run_reference(&p).unwrap_err();
        assert_eq!(te.to_string(), re.to_string());
    }

    #[test]
    fn translation_stats_stay_out_of_simstats() {
        let p = assemble("t", "mov r0, 9\nl:\n sub r0, 1\n jnz l\n halt\n").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        let threaded = m.run(&p).unwrap();
        assert!(m.translation.replays > 0);
        assert_eq!(m.translation.rekeys, 0, "only the out-of-order memo re-keys");
        let mut d = Machine::new(MachineConfig::default());
        let decoded = d.run_decoded(&p).unwrap();
        assert_eq!(d.translation, TranslationStats::default());
        assert_eq!(threaded, decoded);
    }
}
