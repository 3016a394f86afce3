//! The out-of-order pipeline model: a small dynamically scheduled core
//! over the same ISA, functional units and SPU as the in-order pipe.
//!
//! # Functional-first, timing-directed
//!
//! The model executes instructions **functionally in strict program
//! order** (the shared `Machine::exec`), exactly like the in-order
//! engines: registers, memory, SPU controller trajectory and
//! branch-predictor updates are bit-identical across pipeline models by
//! construction. A separate timing layer then computes *when* each
//! instruction would have dispatched, executed and retired on one fixed
//! core, a small Pentium-Pro-class machine — deliberately modest, since
//! the question is whether *any* dynamic ILP extraction erodes the SPU
//! lifting win, not whether an ideal dataflow machine would:
//!
//! * a **reorder buffer** (24 instructions in flight, in-order
//!   retirement, 3 per cycle);
//! * **reservation stations** (12 dispatched-but-waiting ops);
//! * a **register-availability table** over the full MMX+GP
//!   [`RegMask`] space plus the flags — the rename view: only true
//!   (RAW) dependencies delay execution, WAR/WAW are eliminated;
//! * a **store buffer** (8 dispatched, not yet retired stores): a
//!   capacity queue that stalls dispatch when it is full;
//! * shared structural resources matching the in-order pipe: one
//!   pipelined MMX multiplier, one blocking scalar multiplier (both with
//!   the machine's [`IssueRules`] latencies), one MMX shifter, one memory
//!   port, and 3 dispatches / execution starts per cycle.
//!
//! The sizes are this module's constants, not configuration: every
//! number the repository reports was measured on this one core.
//!
//! The one memory port starts memory ops in program order, one per
//! cycle, and no store is a multiply, so a store's data is ready by the
//! time the port takes the next op: every load starts after the data of
//! every older store. The timing therefore needs no address — no
//! forwarding, no disambiguation — only whether a memory operand lands
//! in the SPU window.
//!
//! Because fetch always follows the architecturally correct path, a
//! mispredicted branch costs a fetch-redirect bubble (resume at the
//! branch's execute-complete plus the BTB's
//! [`effective_mispredict_penalty`]) rather than squashed wrong-path
//! work; `SimStats::mispredict_cycles` stays the same penalty × count
//! under both models. MMIO accesses (the SPU window) are full fences:
//! the device must observe program order, so a window access dispatches
//! only after all older instructions retire and holds younger dispatch
//! until it retires itself.
//!
//! Timing never feeds back into functional state, so every count-type
//! [`SimStats`] field is model-invariant; `cycles`, `stall_cycles` and
//! the per-cycle occupancy counters (`pairs`/`singles`/`mmx_pairs`/
//! `mmx_active_cycles`, reinterpreted as execution-start occupancy per
//! cycle) are where the models differ — that difference *is* the
//! measurement. OoO-internal pressure counters land in
//! [`Machine::ooo`] ([`OooStats`]).
//!
//! # Bookkeeping cost
//!
//! Everything static about an instruction — its class, register sets
//! and flag dependences — comes predecoded from [`DecodedProgram`]; per
//! dynamic instruction the model derives only the routed read mask and
//! the window bit of a memory operand. The reservation
//! stations are a min-heap of execution-start cycles, and the per-cycle
//! start counts live in a power-of-two ring (`StartRing`) whose cycles
//! are folded into the statistics as soon as the dispatch frontier
//! passes them.
//!
//! # Timing replay
//!
//! Under [`ExecEngine::Threaded`], the default engine, a run memoises
//! this timing per straight-line region (the `memo` submodule, DESIGN.md
//! §14): once the run has taken 8 backward branches, from a region's
//! 2nd entry on it executes the region first, then looks its timing up
//! by the entry state taken relative to the dispatch frontier plus the
//! region's dynamic inputs, and on a hit applies the recorded statistics
//! and exit state instead of timing each instruction. Under
//! [`ExecEngine::Decoded`] and [`ExecEngine::Reference`] every
//! instruction is timed, so those engines are the oracle the replay is
//! checked against: both paths leave bit-identical [`SimStats`],
//! [`OooStats`], architectural state and faults.
//!
//! [`ExecEngine::Threaded`]: crate::ExecEngine::Threaded
//! [`ExecEngine::Decoded`]: crate::ExecEngine::Decoded
//! [`ExecEngine::Reference`]: crate::ExecEngine::Reference
//! [`effective_mispredict_penalty`]: crate::MachineConfig::effective_mispredict_penalty
//! [`IssueRules`]: crate::issue::IssueRules
//! [`RegMask`]: subword_isa::instr::RegMask

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::decode::{DecodedInstr, DecodedProgram};
use crate::error::SimError;
use crate::machine::{ExecEffect, ExecEngine, Machine};
use crate::model::issue::IssueRules;
use crate::model::pipeline::effective_read_mask;
use crate::model::OooStats;
use crate::stats::SimStats;
use subword_isa::instr::{Instr, RegMask};
use subword_isa::program::Program;
use subword_spu::controller::StepRouting;

mod memo;
use memo::Memo;

/// Reorder-buffer entries (in-flight instructions).
const ROB_ENTRIES: usize = 24;
/// Reservation-station entries (dispatched but not yet executing).
const RS_ENTRIES: usize = 12;
/// Instructions dispatched (renamed + ROB-allocated) per cycle; also
/// the execution starts per cycle.
const ISSUE_WIDTH: u64 = 3;
/// Instructions retired per cycle.
const RETIRE_WIDTH: u64 = 3;
/// Store-buffer entries (stores dispatched but not yet retired).
const STORE_BUFFER: usize = 8;
/// How far one instruction can move `max(fetch, last_retire)` beyond the
/// longest multiply latency. Every cycle the timing state holds is at or
/// below that maximum, so the instruction dispatches at most 1 past it
/// (a resource wait or the rename width), starts at most
/// `(ROB_ENTRIES - 1) / ISSUE_WIDTH` full cycles later (only its ≤ 23
/// in-flight elders can hold a start at or after its dispatch) and
/// retires at most 1 past its result (the retire width). `instr`
/// asserts it in debug builds; the timing memo defers a region only when
/// this bound keeps its frontier within `max_cycles`.
const ADVANCE_SLACK: u64 = (ROB_ENTRIES as u64 - 1) / ISSUE_WIDTH + 2;

/// Executions started per cycle, `(total, mmx)`, for the cycles that
/// are not yet final: a power-of-two ring indexed by `cycle & mask`,
/// covering `base..end`. Every slot outside that span is zero.
struct StartRing {
    slots: Vec<(u64, u64)>,
    /// Oldest cycle not yet folded into the statistics.
    base: u64,
    /// One past the youngest cycle with a start.
    end: u64,
}

impl StartRing {
    fn new(span: u64) -> StartRing {
        StartRing { slots: vec![(0, 0); span.next_power_of_two() as usize], base: 0, end: 0 }
    }

    /// Start one execution at the first cycle from `at` on that has
    /// fewer than `width` starts; returns that cycle. `at` is never
    /// below `base`: no op starts before it dispatches.
    #[inline]
    fn claim(&mut self, mut at: u64, width: u64, mmx: bool) -> u64 {
        debug_assert!(at >= self.base, "start {at} below the folded frontier {}", self.base);
        loop {
            if at - self.base >= self.slots.len() as u64 {
                self.grow(at);
            }
            let mask = self.slots.len() as u64 - 1;
            let slot = &mut self.slots[(at & mask) as usize];
            if slot.0 < width {
                slot.0 += 1;
                slot.1 += u64::from(mmx);
                self.end = self.end.max(at + 1);
                return at;
            }
            at += 1;
        }
    }

    /// Double the ring until it spans `base..=at`, keeping every live
    /// slot at its cycle.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, at: u64) {
        let mut len = self.slots.len() * 2;
        while at - self.base >= len as u64 {
            len *= 2;
        }
        let mut slots = vec![(0, 0); len];
        let (old, new) = (self.slots.len() as u64 - 1, len as u64 - 1);
        for cycle in self.base..self.end {
            slots[(cycle & new) as usize] = self.slots[(cycle & old) as usize];
        }
        self.slots = slots;
    }

    /// Fold every cycle below `frontier` into the occupancy statistics:
    /// `pairs` = cycles with ≥ 2 starts, `singles` = exactly one,
    /// `mmx_pairs` = ≥ 2 MMX starts, `mmx_active_cycles` = ≥ 1 MMX
    /// start — the closest out-of-order analogue of the in-order U/V
    /// pairing counters, and deliberately reported in the same fields.
    fn fold_below(&mut self, frontier: u64, stats: &mut SimStats) {
        let mask = self.slots.len() as u64 - 1;
        for cycle in self.base..frontier.min(self.end) {
            let (total, mmx) = std::mem::take(&mut self.slots[(cycle & mask) as usize]);
            stats.pairs += u64::from(total >= 2);
            stats.singles += u64::from(total == 1);
            stats.mmx_pairs += u64::from(mmx >= 2);
            stats.mmx_active_cycles += u64::from(mmx >= 1);
        }
        self.base = self.base.max(frontier);
    }
}

/// Indices of the set bits of `mask`, lowest first.
#[inline]
fn set_bits(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// The timing state machine. Lives only for the duration of one run;
/// persistent outputs go to [`SimStats`] / [`OooStats`].
struct OooTiming {
    /// The machine's multiply latencies, each at least 1.
    rules: IssueRules,
    /// Earliest dispatch cycle for the next instruction (the fetch /
    /// rename frontier; monotonic).
    fetch: u64,
    /// Dispatch-bandwidth bookkeeping: instructions renamed in the
    /// cycle `disp_at`.
    disp_at: u64,
    disp_n: u64,
    /// Retire cycles of in-flight instructions, oldest first
    /// (non-decreasing: retirement is in order).
    rob: VecDeque<u64>,
    /// Execution-start cycles of dispatched ops, earliest on top (an
    /// entry is freed once its execution begins).
    rs: BinaryHeap<Reverse<u64>>,
    /// Retire cycles of in-flight stores outside the SPU window, oldest
    /// first.
    sb: VecDeque<u64>,
    /// Executions started per cycle, folded into the pairing/occupancy
    /// statistics once the cycle is final (below the dispatch frontier:
    /// no future op can start earlier than it dispatches).
    started: StartRing,
    /// The register-availability table: cycle at which each register's
    /// newest value is available. Indexed by architectural name, but
    /// because writes simply overwrite the entry in program order this
    /// *is* the renamed view — readers wait only for the producing
    /// write (RAW); WAR/WAW never delay anyone.
    mm_avail: [u64; 8],
    gp_avail: [u64; 16],
    flags_avail: u64,
    /// Structural next-free cycles.
    mmx_mul_free: u64,
    scalar_mul_free: u64,
    mem_port_free: u64,
    shifter_free: u64,
    /// In-order retirement frontier + per-cycle retire count. The
    /// retire cycle of the youngest instruction, and so the run's final
    /// cycle count once the program halts.
    last_retire: u64,
    retire_n: u64,
}

impl OooTiming {
    fn new(rules: IssueRules) -> OooTiming {
        // A ROB's worth of back-to-back longest-latency ops spans this
        // many cycles past the dispatch frontier (at most 24 × 1025
        // under `MachineConfig::MAX_MUL_LATENCY`); a longer span grows
        // the ring.
        let longest = rules.scalar_mul_latency.max(rules.mmx_mul_latency);
        let span = ROB_ENTRIES as u64 * (longest + 1);
        OooTiming {
            rules,
            fetch: 0,
            disp_at: 0,
            disp_n: 0,
            rob: VecDeque::with_capacity(ROB_ENTRIES),
            rs: BinaryHeap::with_capacity(RS_ENTRIES),
            sb: VecDeque::with_capacity(STORE_BUFFER),
            started: StartRing::new(span),
            mm_avail: [0; 8],
            gp_avail: [0; 16],
            flags_avail: 0,
            mmx_mul_free: 0,
            scalar_mul_free: 0,
            mem_port_free: 0,
            shifter_free: 0,
            last_retire: 0,
            retire_n: 0,
        }
    }

    /// Release resources whose occupancy ended before cycle `t`.
    fn free_before(&mut self, t: u64) {
        while self.rob.front().is_some_and(|&r| r < t) {
            self.rob.pop_front();
        }
        while self.sb.front().is_some_and(|&r| r < t) {
            self.sb.pop_front();
        }
        while self.rs.peek().is_some_and(|&Reverse(start)| start < t) {
            self.rs.pop();
        }
    }

    /// Time one instruction through dispatch → execute → retire: `d` is
    /// its predecoded metadata, `reads` its (routed) register reads and
    /// `mmio` whether its memory operand lands in the SPU window.
    /// Returns its execute-complete cycle (when a dependent consumer — or
    /// a redirected fetch — could first proceed).
    fn instr(
        &mut self,
        d: &DecodedInstr,
        reads: RegMask,
        mmio: bool,
        penalty_stats: &mut SimStats,
        ooo: &mut OooStats,
    ) -> u64 {
        let f = d.flags;
        let mem = f.is_load() || f.is_store();
        let plain_store = f.is_store() && !mmio;
        let reach = self.fetch.max(self.last_retire);

        // ---- dispatch: rename + allocate ROB/RS/SB entries ------------
        // An MMIO access fences: it dispatches only once every older
        // instruction has retired.
        let mut t = if mmio { self.fetch.max(self.last_retire) } else { self.fetch };
        let mut resource_stalled = false;
        loop {
            self.free_before(t);
            let mut wait = t;
            // 0 = none, 1 = ROB, 2 = RS, 3 = SB; on ties the oldest
            // (outermost) structure is charged.
            let mut cause = 0u8;
            if self.rob.len() >= ROB_ENTRIES {
                let w = self.rob.front().copied().unwrap_or(t) + 1;
                if w > wait {
                    wait = w;
                    cause = 1;
                }
            }
            if self.rs.len() >= RS_ENTRIES {
                let w = self.rs.peek().map_or(t, |&Reverse(start)| start) + 1;
                if w > wait {
                    wait = w;
                    cause = 2;
                }
            }
            if plain_store && self.sb.len() >= STORE_BUFFER {
                let w = self.sb.front().copied().unwrap_or(t) + 1;
                if w > wait {
                    wait = w;
                    cause = 3;
                }
            }
            if wait == t {
                // Resources fit; check rename bandwidth.
                if self.disp_at == t && self.disp_n >= ISSUE_WIDTH {
                    t += 1;
                    continue;
                }
                break;
            }
            resource_stalled = true;
            match cause {
                1 => ooo.rob_stall_cycles += wait - t,
                2 => ooo.rs_stall_cycles += wait - t,
                _ => ooo.sb_stall_cycles += wait - t,
            }
            t = wait;
        }
        if resource_stalled {
            ooo.rename_stalls += 1;
        }
        if self.disp_at != t {
            self.disp_at = t;
            self.disp_n = 0;
        }
        self.disp_n += 1;
        self.fetch = t;
        ooo.dispatched += 1;
        ooo.rob_occupancy_sum += self.rob.len() as u64 + 1;
        ooo.rob_peak = ooo.rob_peak.max(self.rob.len() as u64 + 1);

        // ---- operand readiness (RAW through the availability table) ---
        let mut ready = t;
        for b in set_bits(reads.mm.into()) {
            ready = ready.max(self.mm_avail[b]);
        }
        for b in set_bits(reads.gp) {
            ready = ready.max(self.gp_avail[b]);
        }
        if f.reads_flags() {
            ready = ready.max(self.flags_avail);
        }

        // ---- execution start: structural units + start bandwidth ------
        // One memory port, in program order: a load starts after every
        // older store's data (its start + 1), so nothing forwards.
        let mut start = ready;
        if f.is_mmx_multiply() {
            start = start.max(self.mmx_mul_free);
        }
        if f.is_scalar_multiply() {
            start = start.max(self.scalar_mul_free);
        }
        if f.is_mmx_shifter() {
            start = start.max(self.shifter_free);
        }
        if mem {
            start = start.max(self.mem_port_free);
        }
        let start = self.started.claim(start, ISSUE_WIDTH, f.is_mmx());
        // Reserve the units at the granted start cycle.
        if f.is_mmx_multiply() {
            self.mmx_mul_free = start + 1; // pipelined: 1/cycle
        }
        if f.is_scalar_multiply() {
            self.scalar_mul_free = start + self.rules.scalar_mul_latency; // blocking
        }
        if f.is_mmx_shifter() {
            self.shifter_free = start + 1;
        }
        if mem {
            self.mem_port_free = start + 1;
        }
        self.rs.push(Reverse(start));
        penalty_stats.stall_cycles += start - t;

        // ---- completion: result availability --------------------------
        let latency = if f.is_mmx_multiply() {
            self.rules.mmx_mul_latency
        } else if f.is_scalar_multiply() {
            self.rules.scalar_mul_latency
        } else {
            1
        };
        let end = start + latency;
        for b in set_bits(d.writes.mm.into()) {
            self.mm_avail[b] = end;
        }
        for b in set_bits(d.writes.gp) {
            self.gp_avail[b] = end;
        }
        if f.writes_flags() {
            self.flags_avail = end;
        }

        // ---- in-order retirement --------------------------------------
        let mut retire = end.max(self.last_retire);
        if retire == self.last_retire {
            if self.retire_n >= RETIRE_WIDTH {
                retire += 1;
                self.retire_n = 1;
            } else {
                self.retire_n += 1;
            }
        } else {
            self.retire_n = 1;
        }
        self.last_retire = retire;
        self.rob.push_back(retire);
        if plain_store {
            self.sb.push_back(retire);
        }
        if mmio {
            // The fence also holds younger dispatch until the window
            // access itself has retired.
            self.fetch = self.fetch.max(retire);
        }

        // Cycles below the dispatch frontier are final: fold them.
        self.started.fold_below(self.fetch, penalty_stats);
        debug_assert!(
            self.fetch.max(self.last_retire)
                <= reach
                    + self.rules.scalar_mul_latency.max(self.rules.mmx_mul_latency)
                    + ADVANCE_SLACK,
            "one instruction moved the timing state past ADVANCE_SLACK"
        );
        end
    }
}

impl Machine {
    /// Run `program` on the out-of-order pipeline model
    /// ([`crate::model::ooo`]). Architectural results are bit-identical
    /// to every in-order engine; only the timing-derived statistics
    /// differ, and the OoO-internal pressure counters are left in
    /// [`Machine::ooo`]. Under [`ExecEngine::Threaded`] region timings
    /// replay from the memo, whose telemetry is left in
    /// [`Machine::translation`]; the other engines time every
    /// instruction, with the same results.
    pub(crate) fn run_ooo(&mut self, program: &Program) -> Result<SimStats, SimError> {
        self.begin_run()?;
        let decoded = DecodedProgram::decode(program);
        let mut tm = OooTiming::new(self.rules);
        let threaded = self.cfg.engine == ExecEngine::Threaded;
        // The timing memo is built at the run's `BUILD_AT`-th taken
        // backward branch, so a run that loops less never pays for one.
        let mut memo: Option<Memo> = None;
        let mut back_edges = 0;
        let mut pc = 0usize;
        loop {
            if let Some(memo) = &mut memo {
                if let Some(r) = memo.engaged_at(pc) {
                    if self.run_region(program, &decoded, &mut tm, memo, r, &mut pc)? {
                        continue;
                    }
                }
                memo.materialise(&mut tm);
            }
            if tm.fetch > self.cfg.max_cycles {
                return Err(SimError::MaxCyclesExceeded { pc, limit: self.cfg.max_cycles });
            }
            let Some(i) = program.instrs.get(pc) else {
                return Err(SimError::NoHalt);
            };
            if matches!(i, Instr::Halt) {
                break;
            }
            let (eff, reads, mmio) = self.ooo_exec(program, &decoded, pc)?;
            count(&mut self.stats, decoded.get(pc), &self.rules);
            let exec_end = tm.instr(decoded.get(pc), reads, mmio, &mut self.stats, &mut self.ooo);
            if threaded {
                self.translation.fallback_slots += 1;
            }

            // Branch resolution: predictor updates in program order
            // (bit-identical mispredict sequence); a mispredict costs a
            // fetch-redirect bubble from the resolving execute.
            if let Some(pen) = eff.branch.and_then(|taken| self.resolve_branch(pc, taken)) {
                tm.fetch = tm.fetch.max(exec_end + pen);
            }
            match eff.redirect {
                Some(target) => {
                    if threaded && memo.is_none() && target <= pc {
                        back_edges += 1;
                        if back_edges == memo::BUILD_AT {
                            let built = Memo::new(program, &decoded, &self.rules);
                            self.translation.regions = built.regions() as u64;
                            memo = Some(built);
                        }
                    }
                    pc = target;
                }
                None => pc += 1,
            }
        }
        tm.started.fold_below(u64::MAX, &mut self.stats);
        self.cycle = tm.last_retire;
        Ok(self.finish_run())
    }

    /// Execute the instruction at `pc`, returning its effect and what its
    /// timing reads: the routed register reads ([`routed_reads`]) and
    /// whether its memory operand landed in the SPU window.
    #[inline]
    fn ooo_exec(
        &mut self,
        program: &Program,
        decoded: &DecodedProgram,
        pc: usize,
    ) -> Result<(ExecEffect, RegMask, bool), SimError> {
        let i = program.instrs[pc];
        // The controller advances once per issued instruction — the same
        // trajectory as the in-order engines, because the functional
        // loop *is* program order.
        let routing = self.take_routing();
        // `exec` counts each SPU-window access, and a memory operand is
        // accessed once, so the count moves exactly when it lands there.
        let window = self.stats.mmio_accesses;
        let eff = self.exec(program, &i, &routing, pc)?;
        Ok((eff, routed_reads(&i, decoded.get(pc), &routing), self.stats.mmio_accesses != window))
    }
}

/// The register reads the timing of `i` (predecoded as `d`) waits on
/// under `routing`: its predecoded reads, unless the SPU routes one of
/// its operands.
#[inline(always)]
fn routed_reads(i: &Instr, d: &DecodedInstr, routing: &StepRouting) -> RegMask {
    if routing.routes_anything() && d.routable {
        effective_read_mask(i, routing)
    } else {
        d.reads
    }
}

/// Count one executed instruction `d` on the out-of-order model.
fn count(stats: &mut SimStats, d: &DecodedInstr, rules: &IssueRules) {
    stats.count(d.flags);
    if d.flags.is_scalar_multiply() {
        // Same definition as in-order: `imul` is unpairable there, so
        // this is scalar_multiplies × extra either way.
        stats.imul_block_cycles += rules.imul_extra_cycles();
    }
}

#[cfg(test)]
mod tests {
    use super::StartRing;
    use crate::machine::{ExecEngine, Machine, MachineConfig};
    use crate::model::{OooStats, PipelineKind};
    use crate::SimStats;
    use subword_isa::asm::assemble;
    use subword_isa::op::{AluOp, MmxOp};
    use subword_isa::program::Program;
    use subword_isa::reg::gp::R1;
    use subword_isa::reg::MmReg::*;
    use subword_isa::ProgramBuilder;
    use subword_spu::crossbar::ByteRoute;
    use subword_spu::mmio::{emit_spu_go, SpuMmio, SPU_MMIO_BASE};
    use subword_spu::{SpuProgram, SHAPE_D};

    fn cycles(src: &str) -> (u64, u64) {
        let p = assemble("t", src).unwrap();
        let mut cfg = MachineConfig::default();
        let mut inorder = Machine::new(cfg.clone());
        let a = inorder.run_decoded(&p).unwrap();
        cfg.pipeline = PipelineKind::OutOfOrder;
        let mut ooo = Machine::new(cfg);
        let b = ooo.run(&p).unwrap();
        // Count-type statistics are model-invariant by construction.
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.branches, b.branches);
        assert_eq!(a.mispredicts, b.mispredicts);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.stores, b.stores);
        (a.cycles, b.cycles)
    }

    #[test]
    fn dependent_chain_matches_in_order() {
        // A serial MMX multiply chain extracts no ILP: the OoO core is
        // latency-bound exactly like the in-order pipe.
        let (io, ooo) = cycles(
            r#"
            pmullw mm0, mm1
            pmullw mm0, mm1
            pmullw mm0, mm1
            halt
        "#,
        );
        // Both models issue at cycles 0, L, 2L — the chain extracts no
        // ILP. The counters differ only at the boundary: in-order stops
        // one cycle after the last issue slot, OoO at the last retire
        // (which waits out the final multiply's full latency).
        assert_eq!(ooo, io + 2);
    }

    #[test]
    fn independent_ops_beat_dual_issue() {
        // Eight independent adds: the in-order pipe needs 4 dual-issue
        // slots; a 3-wide OoO core does better.
        let src = r#"
            paddw mm0, mm0
            paddw mm1, mm1
            paddw mm2, mm2
            paddw mm3, mm3
            paddw mm4, mm4
            paddw mm5, mm5
            paddw mm6, mm6
            paddw mm7, mm7
            halt
        "#;
        let (io, ooo) = cycles(src);
        assert!(ooo < io, "ooo {ooo} should beat in-order {io}");
    }

    #[test]
    fn war_hazard_does_not_delay_renamed_core() {
        // mov r1, r0 ; mov r0, 7 — WAR on r0. Renaming removes it; the
        // timing must not serialize (both start in cycle 0).
        let src = r#"
            mov r1, r0
            mov r0, 7
            mov r2, r0
            halt
        "#;
        let (_, ooo) = cycles(src);
        assert!(ooo <= 3, "renamed WAR chain took {ooo} cycles");
    }

    #[test]
    fn a_load_reads_the_value_an_older_store_wrote() {
        // Store then load of the same address: functional execution is
        // in program order, so the load reads the stored value.
        // `timing_is_pinned` pins the same program's timing.
        let src = r#"
            mov r0, 4096
            mov r1, 1234
            mov [r0], r1
            mov r2, [r0]
            halt
        "#;
        let p = assemble("t", src).unwrap();
        let cfg = MachineConfig { pipeline: PipelineKind::OutOfOrder, ..MachineConfig::default() };
        let mut m = Machine::new(cfg);
        m.run(&p).unwrap();
        assert_eq!(m.regs.read_gp(subword_isa::reg::gp::R2), 1234);
    }

    #[test]
    fn max_cycles_guard_fires() {
        let src = r#"
        top:
            jmp top
        "#;
        let p = assemble("t", src).unwrap();
        let cfg = MachineConfig {
            pipeline: PipelineKind::OutOfOrder,
            max_cycles: 1000,
            ..MachineConfig::default()
        };
        let err = Machine::new(cfg).run(&p).unwrap_err();
        assert!(matches!(err, crate::SimError::MaxCyclesExceeded { .. }), "{err:?}");
    }

    #[test]
    fn start_ring_grows_wraps_and_folds_exactly() {
        let occupancy = |s: &SimStats| [s.pairs, s.singles, s.mmx_pairs, s.mmx_active_cycles];
        let mut stats = SimStats::default();
        let mut ring = StartRing::new(4);
        assert_eq!(ring.claim(2, 1, false), 2);
        assert_eq!(ring.claim(2, 1, false), 3, "a full cycle passes the start on");
        ring.fold_below(2, &mut stats);
        assert_eq!(occupancy(&stats), [0; 4], "nothing started below cycle 2");
        assert_eq!(ring.claim(5, 1, false), 5, "wraps onto the slot cycle 1 used");
        // Cycle 9 is 7 past the base: the ring doubles to 8 slots and
        // every live cycle keeps its count.
        assert_eq!(ring.claim(9, 1, true), 9);
        assert_eq!(ring.slots.len(), 8);
        assert_eq!(ring.claim(5, 1, false), 6);
        // A start far beyond doubling grows the ring in one step.
        assert_eq!(ring.claim(40, 2, true), 40);
        assert_eq!(ring.claim(40, 2, true), 40);
        assert_eq!(ring.slots.len(), 64);
        ring.fold_below(u64::MAX, &mut stats);
        // Singles at 2, 3, 5, 6 and 9; an MMX pair at 40.
        assert_eq!(occupancy(&stats), [1, 5, 1, 2]);
    }

    /// The timing-derived [`crate::SimStats`] fields of one run, in the
    /// order `cycles`, `pairs`, `singles`, `mmx_pairs`,
    /// `mmx_active_cycles`, `stall_cycles`, then `mispredicts`, the
    /// count of its fetch redirects.
    type Timing = [u64; 7];

    /// Run `p` on the out-of-order model (after `prepare`), stepping its
    /// timing and replaying it, and assert its timing fields and its
    /// whole [`OooStats`] on both paths.
    fn assert_pinned(
        name: &str,
        p: &Program,
        cfg: MachineConfig,
        prepare: impl Fn(&mut Machine),
        timing: Timing,
        ooo: OooStats,
    ) {
        for engine in [ExecEngine::Decoded, ExecEngine::Threaded] {
            let cfg = MachineConfig { engine, pipeline: PipelineKind::OutOfOrder, ..cfg.clone() };
            let mut m = Machine::new(cfg);
            prepare(&mut m);
            let s = m.run(p).unwrap_or_else(|e| panic!("{name}/{engine:?}: {e}"));
            let got = [
                s.cycles,
                s.pairs,
                s.singles,
                s.mmx_pairs,
                s.mmx_active_cycles,
                s.stall_cycles,
                s.mispredicts,
            ];
            assert_eq!(got, timing, "{name}/{engine:?}: timing fields");
            assert_eq!(m.ooo, ooo, "{name}/{engine:?}: OooStats");
        }
    }

    fn asm(body: &str) -> Program {
        assemble("t", &format!("{body}halt\n")).unwrap()
    }

    /// `line(i)` for each `i` in `0..n`, one per line.
    fn lines(n: usize, line: impl Fn(usize) -> String) -> String {
        (0..n).map(|i| line(i) + "\n").collect()
    }

    /// Pins the model's full output on one short program per back-end
    /// structure — store buffer, reservation stations, reorder buffer,
    /// fetch redirects, program-order memory and the MMIO fence — so a
    /// change to how the timing is computed cannot change what it
    /// computes. Each is asserted stepped and replayed; the loops' 50 and
    /// 200 trips are where the replay engages. `BENCH_cycles_ooo.json`
    /// gates only per-block cycles, and no suite kernel fills the store
    /// buffer.
    #[test]
    fn timing_is_pinned() {
        let dflt = MachineConfig::default;

        let stores = lines(12, |i| format!("mov [r0+{}], r1", 4 * i));
        let burst = asm(&format!("mov r0, 4096\n{stores}"));
        #[rustfmt::skip]
        let burst_ooo = OooStats {
            rob_stall_cycles: 0, rs_stall_cycles: 0, sb_stall_cycles: 4, rename_stalls: 4,
            rob_occupancy_sum: 74, rob_peak: 8, dispatched: 13,
        };
        assert_pinned("store burst", &burst, dflt(), |_| {}, [13, 0, 13, 0, 0, 51, 0], burst_ooo);

        let adds = lines(16, |i| format!("paddw mm{}, mm0", 1 + i % 7));
        let rs = asm(&format!("pmullw mm0, mm0\npmullw mm0, mm0\n{adds}"));
        #[rustfmt::skip]
        let rs_ooo = OooStats {
            rob_stall_cycles: 0, rs_stall_cycles: 4, sb_stall_cycles: 0, rename_stalls: 2,
            rob_occupancy_sum: 158, rob_peak: 15, dispatched: 18,
        };
        assert_pinned("RS full", &rs, dflt(), |_| {}, [12, 5, 3, 5, 8, 79, 0], rs_ooo);

        let adds = lines(30, |i| format!("add r{}, 1", 2 + i % 14));
        let rob = asm(&format!("imul r1, r1\nimul r1, r1\n{adds}"));
        #[rustfmt::skip]
        let rob_ooo = OooStats {
            rob_stall_cycles: 14, rs_stall_cycles: 0, sb_stall_cycles: 0, rename_stalls: 4,
            rob_occupancy_sum: 484, rob_peak: 24, dispatched: 32,
        };
        assert_pinned("ROB full", &rob, dflt(), |_| {}, [28, 10, 3, 0, 0, 9, 0], rob_ooo);

        let lp = asm("mov r0, 50\ntop:\npmullw mm0, mm1\nsub r0, 1\njnz top\n");
        #[rustfmt::skip]
        let lp_ooo = OooStats {
            rob_stall_cycles: 115, rs_stall_cycles: 0, sb_stall_cycles: 0, rename_stalls: 39,
            rob_occupancy_sum: 3085, rob_peak: 24, dispatched: 151,
        };
        assert_pinned("loop", &lp, dflt(), |_| {}, [154, 12, 124, 0, 50, 921, 2], lp_ooo);

        let mem = asm("mov r0, 4096\nmov r1, 1234\nmov [r0], r1\nmov r2, [r0]\n");
        #[rustfmt::skip]
        let mem_ooo = OooStats {
            rob_stall_cycles: 0, rs_stall_cycles: 0, sb_stall_cycles: 0, rename_stalls: 0,
            rob_occupancy_sum: 10, rob_peak: 4, dispatched: 4,
        };
        assert_pinned("program-order memory", &mem, dflt(), |_| {}, [3, 1, 2, 0, 0, 2, 0], mem_ooo);

        // A load that alternately overlaps the slow store before it and
        // misses it times like one that always or never does: the model,
        // and its timing memo's key, need no address.
        let overlap = |r4: u32, toggle: u32| {
            asm(&format!(
                "mov r0, 4096\nmov r4, {r4}\nmov r2, 200\nmov r1, 3\ntop:\nimul r1, r1\n\
                 mov [r0], r1\nmov r3, [r0+r4]\nxor r4, {toggle}\nsub r2, 1\njnz top\n"
            ))
        };
        #[rustfmt::skip]
        let overlap_ooo = OooStats {
            rob_stall_cycles: 1364, rs_stall_cycles: 394, sb_stall_cycles: 0, rename_stalls: 979,
            rob_occupancy_sum: 27744, rob_peak: 24, dispatched: 1204,
        };
        for (name, r4, toggle) in [("toggled", 0, 64), ("overlapping", 0, 0), ("disjoint", 64, 0)] {
            let timing = [1805, 204, 792, 0, 0, 18594, 2];
            assert_pinned(name, &overlap(r4, toggle), dflt(), |_| {}, timing, overlap_ooo);
        }

        // A GO store between independent work: the MMIO fence waits for
        // the blocking multiply to retire and holds the routed movq back
        // until the GO store itself has retired.
        let swap = ByteRoute::from_reg_words([(MM0, 3), (MM0, 2), (MM0, 1), (MM0, 0)]);
        let spu_prog = SpuProgram::single_loop("rev", &[(None, Some(swap))], 1);
        let mut b = ProgramBuilder::new("go");
        b.mmx_rr(MmxOp::Paddw, MM1, MM1);
        b.alu_rr(AluOp::Imul, R1, R1);
        b.mmx_rr(MmxOp::Paddw, MM2, MM2);
        emit_spu_go(&mut b, 0, &spu_prog);
        b.movq_rr(MM3, MM0);
        b.mmx_rr(MmxOp::Paddw, MM4, MM4);
        b.halt();
        let go = b.finish().unwrap();
        // The program is staged host-side through the MMIO window, so the
        // pinned program holds only the GO store and its neighbours.
        let stage = |m: &mut Machine| {
            let spu = m.spu.as_mut().unwrap();
            let mut store = |off, v| spu.write(SPU_MMIO_BASE + off, v, 8).unwrap();
            for (w, word) in spu_prog.states[0].1.encode_words().into_iter().enumerate() {
                store(SpuMmio::state_word_offset(0, 0, w), word);
            }
            store(SpuMmio::counter_offset(0, 0), spu_prog.counter_init[0].into());
            store(SpuMmio::counter_offset(0, 1), spu_prog.counter_init[1].into());
        };
        #[rustfmt::skip]
        let go_ooo = OooStats {
            rob_stall_cycles: 0, rs_stall_cycles: 0, sb_stall_cycles: 0, rename_stalls: 0,
            rob_occupancy_sum: 14, rob_peak: 3, dispatched: 6,
        };
        let spu = MachineConfig::with_spu(SHAPE_D);
        assert_pinned("GO store fence", &go, spu, stage, [11, 2, 1, 2, 2, 0, 0], go_ooo);
    }
}
