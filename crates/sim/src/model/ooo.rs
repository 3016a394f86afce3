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
//! instruction would have dispatched, executed and retired on a core
//! with:
//!
//! * a **reorder buffer** (`rob_entries` in flight, in-order retirement,
//!   `retire_width`/cycle);
//! * **reservation stations** (`rs_entries` dispatched-but-waiting ops);
//! * a **register-availability table** over the full MMX+GP
//!   [`RegMask`] space plus the flags — the rename view: only true
//!   (RAW) dependencies delay execution, WAR/WAW are eliminated;
//! * a **store buffer** (`store_buffer` in-flight stores; loads
//!   disambiguate against it by actual effective address — an oracle
//!   memory-dependence predictor, the generous-to-OoO choice);
//! * shared structural resources matching the in-order pipe: one
//!   pipelined MMX multiplier (`mmx_mul_latency`), one blocking scalar
//!   multiplier (`scalar_mul_latency`), one MMX shifter, one memory
//!   port, and `issue_width` dispatches / execution starts per cycle.
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
//! [`effective_mispredict_penalty`]: crate::MachineConfig::effective_mispredict_penalty
//! [`RegMask`]: subword_isa::instr::RegMask

use std::collections::{BTreeMap, VecDeque};

use crate::decode::DecodedProgram;
use crate::error::SimError;
use crate::machine::{Machine, MachineConfig};
use crate::model::pipeline::effective_read_mask;
use crate::model::{OooParams, OooStats};
use crate::stats::SimStats;
use subword_isa::instr::{Instr, MmxOperand, RegMask};
use subword_isa::program::Program;
use subword_spu::mmio::in_mmio_range;

/// One instruction's memory reference, resolved to an effective address
/// *before* execution (so the address is computed from the same
/// register values execution itself sees).
#[derive(Clone, Copy)]
struct MemRef {
    addr: u32,
    size: u32,
    store: bool,
    mmio: bool,
}

/// Timing-relevant description of one dispatched instruction.
struct OpDesc {
    reads: RegMask,
    writes: RegMask,
    /// The flags dependence, tracked apart because [`RegMask`] carries
    /// no flags bit.
    reads_flags: bool,
    writes_flags: bool,
    is_mmx: bool,
    mmx_mul: bool,
    scalar_mul: bool,
    shifter: bool,
    mem: Option<MemRef>,
}

/// An in-flight (dispatched, not yet retired) store buffer entry.
#[derive(Clone, Copy)]
struct SbEntry {
    retire: u64,
    addr: u32,
    size: u32,
    /// Cycle the store's data is available for forwarding.
    data_ready: u64,
}

/// The timing state machine. Lives only for the duration of one run;
/// persistent outputs go to [`SimStats`] / [`OooStats`].
struct OooTiming {
    p: OooParams,
    mmx_mul_latency: u64,
    scalar_mul_latency: u64,
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
    /// Execution-start cycles of dispatched ops (entry freed once
    /// execution begins). Small (`rs_entries`), scanned linearly.
    rs: Vec<u64>,
    /// In-flight stores, oldest first.
    sb: VecDeque<SbEntry>,
    /// Executions started per cycle `(total, mmx)` — folded into the
    /// pairing/occupancy statistics once the cycle is final (below the
    /// dispatch frontier: no future op can start earlier than it
    /// dispatches).
    started: BTreeMap<u64, (u64, u64)>,
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
    /// In-order retirement frontier + per-cycle retire count.
    last_retire: u64,
    retire_n: u64,
    /// Retire cycle of the youngest retired instruction (== the run's
    /// final cycle count once the program halts).
    completion: u64,
}

impl OooTiming {
    fn new(cfg: &MachineConfig) -> OooTiming {
        OooTiming {
            p: cfg.ooo,
            mmx_mul_latency: cfg.mmx_mul_latency,
            scalar_mul_latency: cfg.scalar_mul_latency.max(1),
            fetch: 0,
            disp_at: 0,
            disp_n: 0,
            rob: VecDeque::new(),
            rs: Vec::new(),
            sb: VecDeque::new(),
            started: BTreeMap::new(),
            mm_avail: [0; 8],
            gp_avail: [0; 16],
            flags_avail: 0,
            mmx_mul_free: 0,
            scalar_mul_free: 0,
            mem_port_free: 0,
            shifter_free: 0,
            last_retire: 0,
            retire_n: 0,
            completion: 0,
        }
    }

    /// Release resources whose occupancy ended before cycle `t`.
    fn free_before(&mut self, t: u64) {
        while self.rob.front().is_some_and(|&r| r < t) {
            self.rob.pop_front();
        }
        while self.sb.front().is_some_and(|e| e.retire < t) {
            self.sb.pop_front();
        }
        self.rs.retain(|&start| start >= t);
    }

    /// Time one instruction through dispatch → execute → retire.
    /// Returns its execute-complete cycle (when a dependent consumer —
    /// or a redirected fetch — could first proceed).
    fn instr(&mut self, op: &OpDesc, penalty_stats: &mut SimStats, ooo: &mut OooStats) -> u64 {
        let p = self.p;
        let mmio = op.mem.is_some_and(|m| m.mmio);
        let plain_store = op.mem.is_some_and(|m| m.store && !m.mmio);

        // ---- dispatch: rename + allocate ROB/RS/SB entries ------------
        // An MMIO access fences: it dispatches only once every older
        // instruction has retired.
        let mut t = if mmio { self.fetch.max(self.completion) } else { self.fetch };
        let mut resource_stalled = false;
        loop {
            self.free_before(t);
            let mut wait = t;
            // 0 = none, 1 = ROB, 2 = RS, 3 = SB; on ties the oldest
            // (outermost) structure is charged.
            let mut cause = 0u8;
            if self.rob.len() as u64 >= p.rob_entries {
                let w = self.rob.front().copied().unwrap_or(t) + 1;
                if w > wait {
                    wait = w;
                    cause = 1;
                }
            }
            if self.rs.len() as u64 >= p.rs_entries {
                let w = self.rs.iter().copied().min().unwrap_or(t) + 1;
                if w > wait {
                    wait = w;
                    cause = 2;
                }
            }
            if plain_store && self.sb.len() as u64 >= p.store_buffer {
                let w = self.sb.front().map(|e| e.retire).unwrap_or(t) + 1;
                if w > wait {
                    wait = w;
                    cause = 3;
                }
            }
            if wait == t {
                // Resources fit; check rename bandwidth.
                if self.disp_at == t && self.disp_n >= p.issue_width {
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
        for (b, &avail) in self.mm_avail.iter().enumerate() {
            if op.reads.mm & (1 << b) != 0 {
                ready = ready.max(avail);
            }
        }
        for (b, &avail) in self.gp_avail.iter().enumerate() {
            if op.reads.gp & (1 << b) != 0 {
                ready = ready.max(avail);
            }
        }
        if op.reads_flags {
            ready = ready.max(self.flags_avail);
        }
        // Loads wait for the youngest older overlapping in-flight store
        // (exact-address disambiguation; forwarding at data-ready).
        if let Some(m) = op.mem {
            if !m.store && !m.mmio {
                for e in self.sb.iter().rev() {
                    let overlap = e.addr < m.addr + m.size && m.addr < e.addr + e.size;
                    if overlap {
                        ready = ready.max(e.data_ready);
                        break;
                    }
                }
            }
        }

        // ---- execution start: structural units + start bandwidth ------
        let mut start = ready;
        if op.mmx_mul {
            start = start.max(self.mmx_mul_free);
        }
        if op.scalar_mul {
            start = start.max(self.scalar_mul_free);
        }
        if op.shifter {
            start = start.max(self.shifter_free);
        }
        if op.mem.is_some() {
            start = start.max(self.mem_port_free);
        }
        loop {
            let slot = self.started.entry(start).or_insert((0, 0));
            if slot.0 < p.issue_width {
                slot.0 += 1;
                if op.is_mmx {
                    slot.1 += 1;
                }
                break;
            }
            start += 1;
        }
        // Reserve the units at the granted start cycle.
        if op.mmx_mul {
            self.mmx_mul_free = start + 1; // pipelined: 1/cycle
        }
        if op.scalar_mul {
            self.scalar_mul_free = start + self.scalar_mul_latency; // blocking
        }
        if op.shifter {
            self.shifter_free = start + 1;
        }
        if op.mem.is_some() {
            self.mem_port_free = start + 1;
        }
        self.rs.push(start);
        penalty_stats.stall_cycles += start - t;

        // ---- completion: result availability --------------------------
        let latency = if op.mmx_mul {
            self.mmx_mul_latency.max(1)
        } else if op.scalar_mul {
            self.scalar_mul_latency
        } else {
            1
        };
        let end = start + latency;
        for b in 0..8 {
            if op.writes.mm & (1 << b) != 0 {
                self.mm_avail[b] = end;
            }
        }
        for b in 0..16 {
            if op.writes.gp & (1 << b) != 0 {
                self.gp_avail[b] = end;
            }
        }
        if op.writes_flags {
            self.flags_avail = end;
        }

        // ---- in-order retirement --------------------------------------
        let mut retire = end.max(self.last_retire);
        if retire == self.last_retire {
            if self.retire_n >= p.retire_width {
                retire += 1;
                self.retire_n = 1;
            } else {
                self.retire_n += 1;
            }
        } else {
            self.retire_n = 1;
        }
        self.last_retire = retire;
        self.completion = retire;
        self.rob.push_back(retire);
        if let Some(m) = op.mem {
            if m.store && !m.mmio {
                self.sb.push_back(SbEntry { retire, addr: m.addr, size: m.size, data_ready: end });
            }
        }
        if mmio {
            // The fence also holds younger dispatch until the window
            // access itself has retired.
            self.fetch = self.fetch.max(retire);
        }

        // Cycles below the dispatch frontier are final (no future op
        // can start earlier than it dispatches): fold them into the
        // occupancy stats and keep the live map small.
        if self.started.len() > 64 {
            let frontier = self.fetch;
            fold_started(&mut self.started, Some(frontier), penalty_stats);
        }
        end
    }
}

/// Fold per-cycle execution-start counts into the occupancy statistics:
/// `pairs` = cycles with ≥ 2 starts, `singles` = exactly one,
/// `mmx_pairs` = ≥ 2 MMX starts, `mmx_active_cycles` = ≥ 1 MMX start —
/// the closest out-of-order analogue of the in-order U/V pairing
/// counters, and deliberately reported in the same fields.
fn fold_started(started: &mut BTreeMap<u64, (u64, u64)>, below: Option<u64>, stats: &mut SimStats) {
    while let Some((&cycle, &(total, mmx))) = started.first_key_value() {
        if below.is_some_and(|limit| cycle >= limit) {
            break;
        }
        started.remove(&cycle);
        if total >= 2 {
            stats.pairs += 1;
        } else if total == 1 {
            stats.singles += 1;
        }
        if mmx >= 2 {
            stats.mmx_pairs += 1;
        }
        if mmx >= 1 {
            stats.mmx_active_cycles += 1;
        }
    }
}

impl Machine {
    /// Resolve `i`'s memory reference against the *current* register
    /// state — called before `Machine::exec`, which therefore sees the
    /// same addresses.
    fn mem_ref_of(&self, i: &Instr) -> Option<MemRef> {
        let (addr, size, store) = match i {
            Instr::Mmx { src: MmxOperand::Mem(m), .. } => (self.ea(m), 8, false),
            Instr::MovqLoad { addr, .. } => (self.ea(addr), 8, false),
            Instr::MovqStore { addr, .. } => (self.ea(addr), 8, true),
            Instr::MovdLoad { addr, .. } => (self.ea(addr), 4, false),
            Instr::MovdStore { addr, .. } => (self.ea(addr), 4, true),
            Instr::Load { addr, .. } => (self.ea(addr), 4, false),
            Instr::Store { addr, .. } | Instr::StoreI { addr, .. } => (self.ea(addr), 4, true),
            Instr::LoadW { addr, .. } => (self.ea(addr), 2, false),
            Instr::StoreW { addr, .. } => (self.ea(addr), 2, true),
            _ => return None,
        };
        Some(MemRef { addr, size, store, mmio: in_mmio_range(addr) })
    }

    /// Run `program` on the out-of-order pipeline model
    /// ([`crate::model::ooo`]). Architectural results are bit-identical
    /// to every in-order engine; only the timing-derived statistics
    /// differ, and the OoO-internal pressure counters are left in
    /// [`Machine::ooo`].
    pub(crate) fn run_ooo(&mut self, program: &Program) -> Result<SimStats, SimError> {
        self.begin_run();
        let decoded = DecodedProgram::decode(program);
        let use_routing = self.spu.is_some() && decoded.any_spu_routable;
        let mut tm = OooTiming::new(&self.cfg);
        let mut pc = 0usize;
        loop {
            if tm.fetch > self.cfg.max_cycles {
                return Err(SimError::MaxCyclesExceeded { pc, limit: self.cfg.max_cycles });
            }
            let Some(i) = program.instrs.get(pc).copied() else {
                return Err(SimError::NoHalt);
            };
            if matches!(i, Instr::Halt) {
                break;
            }
            let d = *decoded.get(pc);

            // The controller advances once per issued instruction —
            // the same trajectory as the in-order engines, because the
            // functional loop *is* program order.
            let routing = self.take_routing();
            let reads = if use_routing && routing.routes_anything() && d.routable {
                effective_read_mask(&i, &routing)
            } else {
                d.reads
            };
            let mem = self.mem_ref_of(&i);

            // Functional execution (shared with the in-order engines).
            let eff = self.exec(program, &i, &routing, pc)?;
            self.account(d.flags);
            if d.flags.is_scalar_multiply() {
                // Same definition as in-order: `imul` is unpairable
                // there, so this is scalar_multiplies × extra either way.
                self.stats.imul_block_cycles += self.rules.imul_extra_cycles();
            }

            // Timing.
            let op = OpDesc {
                reads,
                writes: d.writes,
                reads_flags: i.reads_flags(),
                writes_flags: i.writes_flags(),
                is_mmx: d.flags.is_mmx(),
                mmx_mul: d.flags.is_mmx_multiply(),
                scalar_mul: d.flags.is_scalar_multiply(),
                shifter: d.flags.is_mmx_shifter(),
                mem,
            };
            let exec_end = tm.instr(&op, &mut self.stats, &mut self.ooo);

            // Branch resolution: predictor updates in program order
            // (bit-identical mispredict sequence); a mispredict costs a
            // fetch-redirect bubble from the resolving execute.
            if let Some(pen) = eff.branch.and_then(|taken| self.resolve_branch(pc, taken)) {
                tm.fetch = tm.fetch.max(exec_end + pen);
                self.ooo.flushes += 1;
            }
            pc += 1;
            if let Some(target) = eff.redirect {
                pc = target;
            }
        }
        fold_started(&mut tm.started, None, &mut self.stats);
        self.cycle = tm.completion;
        Ok(self.finish_run())
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::{Machine, MachineConfig};
    use crate::model::PipelineKind;
    use subword_isa::asm::assemble;

    fn cycles(src: &str, tweak: impl Fn(&mut MachineConfig)) -> (u64, u64) {
        let p = assemble("t", src).unwrap();
        let mut cfg = MachineConfig::default();
        tweak(&mut cfg);
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
            |_| {},
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
        let (io, ooo) = cycles(src, |_| {});
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
        let (_, ooo) = cycles(src, |_| {});
        assert!(ooo <= 3, "renamed WAR chain took {ooo} cycles");
    }

    #[test]
    fn rob_of_one_serializes() {
        let src = r#"
            paddw mm0, mm0
            paddw mm1, mm1
            paddw mm2, mm2
            paddw mm3, mm3
            halt
        "#;
        let p = assemble("t", src).unwrap();
        let mut cfg =
            MachineConfig { pipeline: PipelineKind::OutOfOrder, ..MachineConfig::default() };
        let wide = Machine::new(cfg.clone()).run(&p).unwrap().cycles;
        cfg.ooo.rob_entries = 1;
        let mut m = Machine::new(cfg);
        let narrow = m.run(&p).unwrap().cycles;
        assert!(narrow > wide, "ROB=1 ({narrow}) should be slower than ROB=24 ({wide})");
        assert!(m.ooo.rob_stall_cycles > 0);
        assert_eq!(m.ooo.dispatched, 4);
    }

    #[test]
    fn store_load_forwarding_orders_through_memory() {
        // Store then load of the same address: the load must wait for
        // the store's data. Architectural result checked against the
        // in-order engine; timing must show the serialization.
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
}
