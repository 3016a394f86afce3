//! Trace recording and replay: the threaded execution engine.
//!
//! The decoded engine re-decides pairing, scoreboard readiness and SPU
//! routing through a match per issue slot on every loop iteration, even
//! though a steady-state iteration makes exactly the same decisions as
//! the previous one. This module keeps, per straight-line region (the
//! scheduler's partition — [`crate::issue::regions_of`]) and per
//! distinct entry state, a trace: what the stepper accounted the first
//! time the region ran from that state. Replaying a trace executes the
//! region's instructions in program order (register and memory semantics
//! and the SPU controller's steps always run live; `Machine::exec` reads
//! no clock, so nothing needs an issue cycle) but skips the issue
//! machinery, then applies the recorded account in one step.
//!
//! ## Recording
//!
//! On a region's first entry under a new signature the engine steps the
//! region with `Machine::step_slot`, the slot loop the decoded and
//! reference engines run, and keeps:
//!
//! * the `pc` range `start..end_pc` the stepper issued;
//! * one account of the whole range: the statistics delta minus the
//!   counters the terminator's live branch resolution counts
//!   (`branches`, `mispredicts` and `mispredict_cycles`), the cycle
//!   advance minus the terminator's mispredict penalty, the exit
//!   scoreboard relative to the entry cycle, and the number of slots;
//! * at each slot led by a memory access, the same account so far: the
//!   prefix a replay that stops at that slot applies.
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
//! * the **SPU controller state** — active context, state id and the two
//!   loop counters, *clamped* at `span + 1`: a counter that cannot reach
//!   zero within the region takes the same arcs no matter its exact
//!   value, so all such values share one trace;
//! * the controller's **load count** ([`SpuController::loads`]). Only a
//!   load changes what a context routes, and a GO loads only when it
//!   finds a restaged image or a new window base. Staging stores and
//!   re-arming GOs therefore keep every trace, which is what lets
//!   per-block re-arm loops stay warm.
//!
//! Traces are cached per region keyed by this signature; a mismatch
//! records afresh (up to a small cap).
//!
//! ## The one stop rule
//!
//! Recording and replay hand the stepper every memory access whose
//! address leaves ordinary memory: lies past its last 8 bytes, the
//! widest access. The SPU window lies above memory, so no access size is
//! needed. Only such an access can fault, or change the routing of the
//! slots after it, which the entry signature cannot foresee. Memory
//! accesses issue only in the U pipe, so each leads its slot:
//!
//! * **Barrier regions** (statically identifiable SPU MMIO accesses) are
//!   never recorded.
//! * A **recording** that reaches a slot led by such an access stops
//!   before it and keeps no trace; the stepper carries on from that slot.
//! * A **replay** that reaches one stops *before* it executes: the prefix
//!   recorded at that slot is applied, and the stepper re-issues the slot
//!   with live routing.
//!
//! A replay therefore never faults. Every fault is raised by the
//! stepper, and leaves the statistics stepping leaves.
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
//! [`SpuController::loads`]: subword_spu::controller::SpuController::loads

use crate::decode::DecodedProgram;
use crate::error::SimError;
use crate::machine::{ExecEffect, Machine};
use crate::memory::MEMORY_SIZE;
use crate::model::issue::{regions_of, Region, RegionKind};
use crate::stats::SimStats;
use subword_isa::instr::Instr;
use subword_isa::program::Program;

/// Traces cached per region before further entry states fall back to the
/// stepper (counter-countdown tails of SPU loops produce a few distinct
/// signatures per region; runaways would just thrash).
const MAX_TRACES_PER_REGION: usize = 16;

/// Largest relative scoreboard distance a signature can carry. Bounded
/// by the MMX multiply latency in practice; configurations beyond this
/// simply never record.
const MAX_MM_REL: u64 = 255;

/// The highest address at which an access of any size (at most 8 bytes)
/// stays in ordinary memory (see the module docs).
const LAST_ORDINARY: u32 = (MEMORY_SIZE - 8) as u32;

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
    /// Replays stopped before a memory access that leaves ordinary
    /// memory.
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
    },
}

/// Everything the issue schedule of one region entry depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EntrySig {
    /// Per-register MMX ready cycle relative to the entry cycle.
    mm_rel: [u8; 8],
    spu: SpuSig,
    /// Programs the SPU controller had loaded at capture (0 without an
    /// SPU).
    loads: u64,
}

/// What the stepper accounted from a region's entry to one point of a
/// recording, as a replay applies it in bulk.
#[derive(Clone, Copy, Debug)]
struct Account {
    /// The statistics delta, minus the counters the terminator's live
    /// branch resolution counts: `branches`, `mispredicts` and
    /// `mispredict_cycles`.
    stats: SimStats,
    /// Cycles since the entry.
    cycles: u64,
    /// Each MMX register's ready cycle minus the entry cycle, 0 for one
    /// that was ready by the entry.
    mm_ready: [u64; 8],
    /// Issue slots stepped since the entry.
    slots: u64,
}

/// A recorded region: the `pc` range the stepper issued from the
/// region's start, and what it accounted there.
#[derive(Clone, Debug)]
struct Trace {
    sig: EntrySig,
    /// One past the last `pc` issued: where a full replay goes on when
    /// no branch redirects.
    end_pc: usize,
    /// A full replay, before any terminator mispredict penalty.
    whole: Account,
    /// The prefix before each slot led by a memory access, with that
    /// slot's `pc`, in `pc` order: the only places a replay stops.
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
            },
            _ => SpuSig::Off,
        };
        let loads = self.spu.as_ref().map_or(0, |s| s.controller.loads());
        Some(EntrySig { mm_rel, spu, loads })
    }

    /// Step `region` from its start at `*pc` and keep what the stepper
    /// accounted as `sig`'s trace in `cache`. Stops before a slot led by
    /// a memory access that leaves ordinary memory and then keeps no
    /// trace (see the module docs). Returns `true` if the machine
    /// advanced.
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
        let mut prefixes = Vec::new();
        let (mut slots, mut penalty) = (0, 0);
        // The `pc` after the last recorded slot, before any redirect.
        let mut next = *pc;
        while next < limit {
            if decoded.get(next).flags.is_mem_access() {
                if self.leaves_memory(&program.instrs[next]) {
                    return Ok(slots > 0);
                }
                prefixes.push((next, self.account_since(entry_stats, entry_cycle, slots)));
            }
            let slot = self
                .step_slot(program, Some(decoded), pc)?
                .expect("a region's issuable range holds no halt");
            self.translation.fallback_slots += 1;
            slots += 1;
            penalty += slot.mispredict_penalty;
            next = slot.v.unwrap_or(slot.u) + 1;
        }
        let mut whole = self.account_since(entry_stats, entry_cycle, slots);
        whole.cycles -= penalty;
        cache.push(Trace { sig, end_pc: next, whole, prefixes });
        self.translation.translations += 1;
        Ok(true)
    }

    /// What the machine accounted over `slots` issue slots since its
    /// statistics were `entry_stats` and its clock `entry_cycle`, as a
    /// trace keeps it.
    fn account_since(&self, entry_stats: SimStats, entry_cycle: u64, slots: u64) -> Account {
        let stats = self.stats - entry_stats;
        Account {
            stats: SimStats { branches: 0, mispredicts: 0, mispredict_cycles: 0, ..stats },
            cycles: self.cycle - entry_cycle,
            mm_ready: self.mm_ready.map(|ready| ready.saturating_sub(entry_cycle)),
            slots,
        }
    }

    /// Apply `account` to a replay that entered its region at
    /// `entry_cycle`. A register ready by the entry is set ready at the
    /// entry, which the issue procedure, whose clock never goes back,
    /// cannot tell from its earlier ready cycle.
    fn apply(&mut self, account: &Account, entry_cycle: u64) {
        self.stats += account.stats;
        self.cycle = entry_cycle + account.cycles;
        for (ready, rel) in self.mm_ready.iter_mut().zip(account.mm_ready) {
            *ready = entry_cycle + rel;
        }
        self.translation.replayed_slots += account.slots;
    }

    /// Whether `i`'s memory operand leaves ordinary memory at the current
    /// register state: its address lies above [`LAST_ORDINARY`].
    fn leaves_memory(&self, i: &Instr) -> bool {
        i.mem_operand().is_some_and(|m| self.ea(m) > LAST_ORDINARY)
    }

    /// Replay `trace`: execute its `pc` range in program order (live
    /// semantics, live controller stepping), then apply the whole
    /// account and resolve the region's terminating branch. Returns
    /// `true` when the machine advanced.
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
        for at in region.start..trace.end_pc {
            let i = &program.instrs[at];
            if decoded.get(at).flags.is_mem_access() && self.leaves_memory(i) {
                self.stop_replay(trace, at, entry_cycle, pc);
                return Ok(at > region.start);
            }
            let routing = self.take_routing();
            last_eff = self.exec(program, i, &routing, at)?;
        }
        self.apply(&trace.whole, entry_cycle);
        self.translation.replays += 1;
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

    /// Stop a replay before the memory access at `at`: apply the prefix
    /// recorded at its slot (what executed before it already happened
    /// live) and leave `pc` there, so the stepper issues that slot
    /// exactly as if it had been stepping all along.
    fn stop_replay(&mut self, trace: &Trace, at: usize, entry_cycle: u64, pc: &mut usize) {
        let (_, prefix) = trace
            .prefixes
            .iter()
            .find(|&&(slot, _)| slot == at)
            .expect("the recording keeps a prefix at every memory access");
        self.apply(prefix, entry_cycle);
        self.translation.aborts += 1;
        *pc = at;
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
        assert_eq!(threaded.regs.mm, reference.regs.mm);
        assert_eq!(threaded.regs.gp, reference.regs.gp);
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

    /// A register-addressed store into the SPU window mid-loop stops the
    /// replay at that slot without breaking equivalence. The first pass
    /// stores to ordinary memory and records the trace; later passes
    /// stage CNTR0 of an unused context, which loads nothing, so the
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

    /// A GO that loads a restaged program makes the loop record again.
    /// Two passes run one routed loop, context 0 restaged between them so
    /// that the `movq`'s routed operand reads `mm2`, which the `paddw`
    /// before it writes, instead of `mm1`: the first pass pairs the two,
    /// the second cannot. Both passes enter the loop in the same
    /// controller state, so only the load count tells their signatures
    /// apart.
    #[test]
    fn a_restaged_program_records_again() {
        let trips = 20u64;
        let reads = |src| {
            let (straight, movq) = ((None, None), (None, Some(ByteRoute::identity(src))));
            SpuProgram::single_loop("restage", &[straight, movq, straight, straight], trips)
        };
        let (first, second) = (reads(MM1), reads(MM2));
        let mut b = ProgramBuilder::new("restage");
        emit_spu_setup(&mut b, 0, &first);
        b.mov_ri(R1, 2);
        let pass = b.bind_here("pass");
        b.mov_ri(R0, trips as i32);
        emit_spu_go(&mut b, 0, &first);
        let l = b.bind_here("loop");
        b.mmx_rr(MmxOp::Paddw, MM2, MM3);
        b.movq_rr(MM4, MM5);
        b.alu_ri(subword_isa::op::AluOp::Sub, R0, 1);
        b.jcc(Cond::Ne, l);
        emit_spu_setup(&mut b, 0, &second);
        b.alu_ri(subword_isa::op::AluOp::Sub, R1, 1);
        b.jcc(Cond::Ne, pass);
        b.halt();
        let p = b.finish().unwrap();

        let setup = |m: &mut Machine| {
            m.regs.write_mm(MM1, from_iwords([1, 2, 3, 4]));
            m.regs.write_mm(MM3, from_iwords([5, 6, 7, 8]));
        };
        let (stats, tl) = assert_threaded_matches_reference(setup, &p);
        assert_eq!((stats.spu_activations, stats.spu_routed), (2, 2 * trips));
        assert!(tl.replays > trips, "both passes should replay, got {tl:?}");
        let mut m = Machine::new(MachineConfig::with_spu(SHAPE_D));
        setup(&mut m);
        m.run(&p).unwrap();
        assert_eq!(m.regs.read_mm(MM4), m.regs.read_mm(MM2), "the second pass reads mm2");
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
