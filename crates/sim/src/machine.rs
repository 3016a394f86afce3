//! The machine: configuration, architectural state, and the cycle-level
//! execution loop.

use crate::branch::{Predictor, PredictorKind};
use crate::error::SimError;
use crate::memory::Memory;
use crate::model::issue::IssueRules;
use crate::model::{OooStats, PipelineKind};
use crate::regfile::RegFile;
use crate::stats::SimStats;
use subword_isa::instr::{GpOperand, Instr, MmxOperand};
use subword_isa::op::AluOp;
use subword_isa::program::Program;
use subword_isa::semantics;
use subword_isa::Mem;
use subword_spu::controller::{SpuController, StepRouting};
use subword_spu::mmio::{in_mmio_range, SpuMmio};
use subword_spu::CrossbarShape;

/// Which execution engine [`Machine::run`] uses. All three must produce
/// bit-identical [`SimStats`] and architectural state; the differential
/// tests enforce this over the full kernel suite.
///
/// Under the out-of-order model ([`PipelineKind::OutOfOrder`]) the
/// engine picks how that model's timing is evaluated: `Threaded`
/// replays memoised per-region timings, and `Decoded` and `Reference`
/// time every instruction ([`crate::model::ooo`]). Both leave identical
/// [`SimStats`], [`Machine::ooo`] and architectural state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecEngine {
    /// The original allocating `Vec<RegRef>` path, kept as the oracle.
    /// Under the out-of-order model, every instruction is timed.
    Reference,
    /// Predecoded metadata + mask-based checks, stepped one slot at a
    /// time. Under the out-of-order model, every instruction is timed.
    Decoded,
    /// Record and replay: each straight-line region's issue slots are
    /// recorded from the decoded stepper once per entry state, and
    /// steady-state loop iterations replay them ([`crate::translate`]).
    /// Under the out-of-order model, region timings are memoised and
    /// replayed.
    #[default]
    Threaded,
}

/// Machine configuration: the settable parameters of both pipeline
/// models. The out-of-order core's structure sizes are not among them;
/// they are constants of [`crate::model::ooo`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Base mispredict penalty in cycles (Pentium-class: 4).
    pub mispredict_penalty: u64,
    /// Whether the SPU is fitted. Adds one pipe stage, i.e. +1 cycle of
    /// mispredict penalty (paper §5.1), and enables the MMIO window.
    pub spu_fitted: bool,
    /// Crossbar shape of the fitted SPU.
    pub crossbar: CrossbarShape,
    /// MMX multiply latency in cycles (P55C: 3, pipelined). Both models
    /// time a 0 as 1 ([`crate::issue::IssueRules::of`]), and every run
    /// refuses a value above [`MachineConfig::MAX_MUL_LATENCY`] with
    /// [`SimError::LatencyAboveBound`].
    pub mmx_mul_latency: u64,
    /// Scalar multiply cost in cycles (Pentium `imul`: ~9, blocking).
    /// Both models time a 0 as 1, and every run refuses a value above
    /// [`MachineConfig::MAX_MUL_LATENCY`] with
    /// [`SimError::LatencyAboveBound`].
    pub scalar_mul_latency: u64,
    /// Cycle budget guard against runaway programs.
    pub max_cycles: u64,
    /// BTB entries (power of two).
    pub btb_entries: usize,
    /// Direction-predictor model (BTB = Pentium class; gshare exists for
    /// sensitivity analysis).
    pub predictor_kind: PredictorKind,
    /// Execution engine [`Machine::run`] dispatches to.
    pub engine: ExecEngine,
    /// Pipeline model the run is timed on
    /// ([`crate::model`]; in-order by default). Orthogonal to `engine`:
    /// the engine picks *how* the in-order semantics are evaluated,
    /// the model picks *which* timing semantics apply at all.
    pub pipeline: PipelineKind,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mispredict_penalty: 4,
            spu_fitted: false,
            crossbar: subword_spu::SHAPE_A,
            mmx_mul_latency: 3,
            scalar_mul_latency: 9,
            max_cycles: 2_000_000_000,
            btb_entries: crate::branch::DEFAULT_BTB_ENTRIES,
            predictor_kind: PredictorKind::default(),
            engine: ExecEngine::default(),
            pipeline: PipelineKind::default(),
        }
    }
}

impl MachineConfig {
    /// Largest multiply latency, in cycles, a run accepts for either
    /// latency field. It is far above any latency studied (the `all`
    /// sensitivity section goes up to 15), and it bounds the
    /// out-of-order model's start ring, whose span follows the longest
    /// latency (DESIGN.md §14).
    pub const MAX_MUL_LATENCY: u64 = 1024;

    /// The paper's baseline: MMX Pentium without SPU.
    pub fn mmx_only() -> Self {
        Self::default()
    }

    /// MMX Pentium with the SPU fitted (shape `A` unless overridden).
    pub fn with_spu(shape: CrossbarShape) -> Self {
        MachineConfig { spu_fitted: true, crossbar: shape, ..Self::default() }
    }

    /// Effective mispredict penalty including the SPU pipe stage.
    pub fn effective_mispredict_penalty(&self) -> u64 {
        self.mispredict_penalty + if self.spu_fitted { 1 } else { 0 }
    }
}

/// A [`MachineConfig`] fixed at [`Machine::new`]. It reads as the
/// config through `Deref` and cannot be written, because the machine
/// derives its issue rules, SPU and predictor from it once.
///
/// ```compile_fail,E0594
/// use subword_sim::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::default());
/// m.cfg.scalar_mul_latency = 100;
/// ```
pub struct FrozenConfig(MachineConfig);

impl std::ops::Deref for FrozenConfig {
    type Target = MachineConfig;

    fn deref(&self) -> &MachineConfig {
        &self.0
    }
}

/// Effect of executing one instruction (control-flow outcome).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ExecEffect {
    /// `Some(target)` if a taken branch redirects fetch.
    pub(crate) redirect: Option<usize>,
    /// `Some(taken)` if a branch executed.
    pub(crate) branch: Option<bool>,
}

/// The simulated machine.
pub struct Machine {
    /// Configuration, read-only after construction.
    pub cfg: FrozenConfig,
    /// Architectural registers.
    pub regs: RegFile,
    /// Physical memory.
    pub mem: Memory,
    /// The memory-mapped SPU, when fitted.
    pub spu: Option<SpuMmio>,
    /// Branch predictor.
    pub predictor: Predictor,
    /// Statistics of the current/last run.
    pub stats: SimStats,
    /// Trace record-and-replay telemetry of the current/last threaded run
    /// (zeroed by the other engines), or on the out-of-order model of
    /// its timing memo. Host-side observability only — deliberately
    /// **not** part of [`SimStats`], which must stay engine-invariant.
    pub translation: crate::translate::TranslationStats,
    /// Out-of-order model internals of the current/last run (zeroed by
    /// the in-order paths). Host-side observability only — same split
    /// from [`SimStats`] as `translation`, and for the same reason:
    /// `SimStats` is the surface the models are *compared* on.
    pub ooo: OooStats,
    /// Result-latency scoreboard for the MMX registers: cycle at which
    /// each register's value is available.
    pub(crate) mm_ready: [u64; 8],
    pub(crate) cycle: u64,
    /// Issue-rule parameters derived from `cfg` (see [`crate::issue`]).
    pub(crate) rules: IssueRules,
    /// Generation counter bumped on every MMIO store that stages
    /// microcode (state-table bytes). Such a store can change a state's
    /// routing behind an unchanged trace-entry signature, so cached
    /// signatures embed the generation they were captured under and miss
    /// when it moves. Control-register stores (CONFIG/counters/entry)
    /// don't bump it: their effects are fully visible in the controller
    /// state the signatures capture.
    pub(crate) mmio_store_gen: u64,
}

impl Machine {
    /// Build a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Machine {
        let spu = if cfg.spu_fitted {
            Some(SpuMmio::new(SpuController::new(cfg.crossbar)))
        } else {
            None
        };
        Machine {
            regs: RegFile::default(),
            mem: Memory::new(),
            spu,
            predictor: Predictor::new(cfg.predictor_kind, cfg.btb_entries),
            stats: SimStats::default(),
            translation: crate::translate::TranslationStats::default(),
            ooo: OooStats::default(),
            mm_ready: [0; 8],
            cycle: 0,
            rules: IssueRules::of(&cfg),
            mmio_store_gen: 0,
            cfg: FrozenConfig(cfg),
        }
    }

    /// Run `program` to `halt` on the configured engine
    /// ([`MachineConfig::engine`]; threaded by default) and pipeline
    /// model ([`MachineConfig::pipeline`]; in-order by default). On the
    /// out-of-order model the threaded engine replays memoised region
    /// timings and the other two time every instruction, with identical
    /// results. Statistics are reset at entry and returned (they also
    /// remain readable in [`Machine::stats`]); architectural state
    /// persists across runs.
    ///
    /// ```
    /// use subword_sim::{Machine, MachineConfig};
    ///
    /// let p = subword_isa::asm::assemble("demo", r#"
    ///     mov r0, 100
    /// top:
    ///     paddw mm0, mm1
    ///     sub r0, 1
    ///     jnz top
    ///     halt
    /// "#).unwrap();
    /// let mut m = Machine::new(MachineConfig::mmx_only());
    /// let stats = m.run(&p).unwrap();
    /// assert_eq!(stats.branches, 100);
    /// assert!(stats.ipc() > 1.0); // paddw+sub pair, jnz single
    /// ```
    pub fn run(&mut self, program: &Program) -> Result<SimStats, SimError> {
        // Pipeline model first: the engines are alternative evaluators
        // of the *in-order* timing semantics, so under the out-of-order
        // model they all take the one OoO path, where the engine only
        // chooses between replaying and stepping its timing
        // (architectural results are engine- and model-invariant either
        // way).
        if self.cfg.pipeline == PipelineKind::OutOfOrder {
            return self.run_ooo(program);
        }
        match self.cfg.engine {
            ExecEngine::Reference => self.run_reference(program),
            ExecEngine::Decoded => self.run_decoded(program),
            ExecEngine::Threaded => self.run_threaded(program),
        }
    }

    /// Reset per-run state (statistics, scoreboard, cycle counter), or
    /// refuse the run when a multiply latency is above
    /// [`MachineConfig::MAX_MUL_LATENCY`]. Every engine and both models
    /// start here, so none of them ever times such a latency. Predictor
    /// and architectural state persist across runs.
    pub(crate) fn begin_run(&mut self) -> Result<(), SimError> {
        let IssueRules { mmx_mul_latency, scalar_mul_latency } = self.rules;
        for (field, latency) in
            [("mmx_mul_latency", mmx_mul_latency), ("scalar_mul_latency", scalar_mul_latency)]
        {
            if latency > MachineConfig::MAX_MUL_LATENCY {
                let bound = MachineConfig::MAX_MUL_LATENCY;
                return Err(SimError::LatencyAboveBound { field, latency, bound });
            }
        }
        self.stats = SimStats::default();
        self.translation = crate::translate::TranslationStats::default();
        self.ooo = OooStats::default();
        self.mm_ready = [0; 8];
        self.cycle = 0;
        Ok(())
    }

    /// Finalise and return the run's statistics.
    pub(crate) fn finish_run(&mut self) -> SimStats {
        self.stats.cycles = self.cycle;
        if let Some(spu) = &self.spu {
            let u = spu.controller.usage;
            self.stats.spu_steps = u.steps;
            self.stats.spu_routed = u.routed_steps;
            self.stats.spu_activations = u.activations;
        }
        self.stats
    }

    /// Resolve the branch executed at `pc`: count it and update the
    /// predictor, and on a mispredict count it and its penalty. Returns
    /// the penalty, `Some` only on a mispredict (so a zero penalty still
    /// counts as one); the caller places it on its own timeline.
    pub(crate) fn resolve_branch(&mut self, pc: usize, taken: bool) -> Option<u64> {
        self.stats.branches += 1;
        if !self.predictor.update(pc as u32, taken) {
            return None;
        }
        let penalty = self.cfg.effective_mispredict_penalty();
        self.stats.mispredicts += 1;
        self.stats.mispredict_cycles += penalty;
        Some(penalty)
    }

    /// A small fingerprint of SPU control state used to detect
    /// serialising control-register writes inside an issue slot.
    pub(crate) fn spu_signature(&self) -> (bool, u64, usize) {
        match &self.spu {
            Some(s) => (
                s.controller.is_active(),
                s.controller.usage.activations,
                s.controller.active_context(),
            ),
            None => (false, 0, 0),
        }
    }

    /// Routing for the next two issue slots, in one controller walk.
    pub(crate) fn peek_routing_pair(&self) -> (StepRouting, StepRouting) {
        match &self.spu {
            Some(s) => s.controller.peek_routing_pair(),
            None => (StepRouting::default(), StepRouting::default()),
        }
    }

    pub(crate) fn take_routing(&mut self) -> StepRouting {
        match &mut self.spu {
            Some(s) => s.controller.on_issue(),
            None => StepRouting::default(),
        }
    }

    // ---- memory with MMIO intercept -------------------------------------

    fn load_mem(&mut self, addr: u32, size: usize, pc: usize) -> Result<u64, SimError> {
        if in_mmio_range(addr) {
            self.stats.mmio_accesses += 1;
            return match &self.spu {
                Some(s) => Ok(s.read(addr, size)),
                None => Err(SimError::SpuNotFitted { pc }),
            };
        }
        let r = match size {
            1 => self.mem.load_u8(addr).map(u64::from),
            2 => self.mem.load_u16(addr).map(u64::from),
            4 => self.mem.load_u32(addr).map(u64::from),
            _ => self.mem.load_u64(addr),
        };
        r.map_err(|(addr, size)| SimError::MemOutOfBounds { addr, size, pc })
    }

    pub(crate) fn store_mem(
        &mut self,
        addr: u32,
        v: u64,
        size: usize,
        pc: usize,
    ) -> Result<(), SimError> {
        if in_mmio_range(addr) {
            self.stats.mmio_accesses += 1;
            if subword_spu::mmio::store_stages_microcode(addr) {
                self.mmio_store_gen += 1;
            }
            return match &mut self.spu {
                Some(s) => {
                    s.write(addr, v, size).map_err(|err| SimError::Spu { pc, err })?;
                    Ok(())
                }
                None => Err(SimError::SpuNotFitted { pc }),
            };
        }
        let r = match size {
            1 => self.mem.store_u8(addr, v as u8),
            2 => self.mem.store_u16(addr, v as u16),
            4 => self.mem.store_u32(addr, v as u32),
            _ => self.mem.store_u64(addr, v),
        };
        r.map_err(|(addr, size)| SimError::MemOutOfBounds { addr, size, pc })
    }

    #[inline]
    pub(crate) fn ea(&self, m: &Mem) -> u32 {
        m.effective(|r| self.regs.read_gp(r))
    }

    // ---- operand fetch with SPU routing ---------------------------------

    /// First MMX operand (destination-as-source): the crossbar gather of
    /// `route_a` when the SPU routes it, else the register itself.
    #[inline]
    fn mmx_operand_a(&self, dst: subword_isa::reg::MmReg, routing: &StepRouting) -> u64 {
        match routing.route_a {
            Some(r) => r.apply(&self.regs.spu_view()),
            None => self.regs.read_mm(dst),
        }
    }

    // ---- execution -------------------------------------------------------

    pub(crate) fn exec(
        &mut self,
        program: &Program,
        i: &Instr,
        routing: &StepRouting,
        pc: usize,
    ) -> Result<ExecEffect, SimError> {
        match i {
            Instr::Mmx { op, dst, src } => {
                let a = self.mmx_operand_a(*dst, routing);
                let b = match src {
                    MmxOperand::Reg(r) => match routing.route_b {
                        Some(rt) => rt.apply(&self.regs.spu_view()),
                        None => self.regs.read_mm(*r),
                    },
                    MmxOperand::Mem(m) => {
                        let addr = self.ea(m);
                        self.load_mem(addr, 8, pc)?
                    }
                    MmxOperand::Imm(v) => *v as u64,
                };
                let result = semantics::eval(*op, a, b);
                // Multiply results become ready after the pipelined
                // multiplier latency.
                if op.is_multiply() {
                    self.mm_ready[dst.index()] = self.rules.mul_retire(self.cycle);
                }
                self.regs.write_mm(*dst, result);
                Ok(ExecEffect::default())
            }
            Instr::MovqLoad { dst, addr } => {
                let a = self.ea(addr);
                let v = self.load_mem(a, 8, pc)?;
                self.regs.write_mm(*dst, v);
                Ok(ExecEffect::default())
            }
            Instr::MovqStore { addr, src } => {
                let v = self.mmx_operand_a(*src, routing);
                let a = self.ea(addr);
                self.store_mem(a, v, 8, pc)?;
                Ok(ExecEffect::default())
            }
            Instr::MovdLoad { dst, addr } => {
                let a = self.ea(addr);
                let v = self.load_mem(a, 4, pc)?;
                self.regs.write_mm(*dst, v);
                Ok(ExecEffect::default())
            }
            Instr::MovdStore { addr, src } => {
                let v = self.mmx_operand_a(*src, routing) as u32;
                let a = self.ea(addr);
                self.store_mem(a, v as u64, 4, pc)?;
                Ok(ExecEffect::default())
            }
            Instr::MovdToMm { dst, src } => {
                self.regs.write_mm(*dst, self.regs.read_gp(*src) as u64);
                Ok(ExecEffect::default())
            }
            Instr::MovdFromMm { dst, src } => {
                let v = self.mmx_operand_a(*src, routing) as u32;
                self.regs.write_gp(*dst, v);
                Ok(ExecEffect::default())
            }
            Instr::Emms => Ok(ExecEffect::default()),
            Instr::Alu { op, dst, src } => {
                let a = self.regs.read_gp(*dst);
                let b = match src {
                    GpOperand::Reg(r) => self.regs.read_gp(*r),
                    GpOperand::Imm(v) => *v as u32,
                };
                let result = match op {
                    AluOp::Mov => b,
                    AluOp::Add => {
                        let r = a.wrapping_add(b);
                        self.regs.set_flags_add(a, b, r);
                        r
                    }
                    AluOp::Sub => {
                        let r = a.wrapping_sub(b);
                        self.regs.set_flags_sub(a, b, r);
                        r
                    }
                    AluOp::And => {
                        let r = a & b;
                        self.regs.set_flags_logic(r);
                        r
                    }
                    AluOp::Or => {
                        let r = a | b;
                        self.regs.set_flags_logic(r);
                        r
                    }
                    AluOp::Xor => {
                        let r = a ^ b;
                        self.regs.set_flags_logic(r);
                        r
                    }
                    AluOp::Shl => {
                        let r = if b >= 32 { 0 } else { a << b };
                        self.regs.set_flags_logic(r);
                        r
                    }
                    AluOp::Shr => {
                        let r = if b >= 32 { 0 } else { a >> b };
                        self.regs.set_flags_logic(r);
                        r
                    }
                    AluOp::Sar => {
                        let r = ((a as i32) >> (b.min(31))) as u32;
                        self.regs.set_flags_logic(r);
                        r
                    }
                    AluOp::Imul => {
                        let r = (a as i32).wrapping_mul(b as i32) as u32;
                        self.regs.set_flags_logic(r);
                        r
                    }
                };
                self.regs.write_gp(*dst, result);
                Ok(ExecEffect::default())
            }
            Instr::Load { dst, addr } => {
                let a = self.ea(addr);
                let v = self.load_mem(a, 4, pc)? as u32;
                self.regs.write_gp(*dst, v);
                Ok(ExecEffect::default())
            }
            Instr::Store { addr, src } => {
                let v = self.regs.read_gp(*src);
                let a = self.ea(addr);
                self.store_mem(a, v as u64, 4, pc)?;
                Ok(ExecEffect::default())
            }
            Instr::StoreI { addr, imm } => {
                let a = self.ea(addr);
                self.store_mem(a, *imm as u64, 4, pc)?;
                Ok(ExecEffect::default())
            }
            Instr::LoadW { dst, addr, signed } => {
                let a = self.ea(addr);
                let raw = self.load_mem(a, 2, pc)? as u16;
                let v = if *signed { raw as i16 as i32 as u32 } else { raw as u32 };
                self.regs.write_gp(*dst, v);
                Ok(ExecEffect::default())
            }
            Instr::StoreW { addr, src } => {
                let v = self.regs.read_gp(*src) as u16;
                let a = self.ea(addr);
                self.store_mem(a, v as u64, 2, pc)?;
                Ok(ExecEffect::default())
            }
            Instr::Lea { dst, addr } => {
                let a = self.ea(addr);
                self.regs.write_gp(*dst, a);
                Ok(ExecEffect::default())
            }
            Instr::Cmp { a, b } => {
                let x = self.regs.read_gp(*a);
                let y = match b {
                    GpOperand::Reg(r) => self.regs.read_gp(*r),
                    GpOperand::Imm(v) => *v as u32,
                };
                let r = x.wrapping_sub(y);
                self.regs.set_flags_sub(x, y, r);
                Ok(ExecEffect::default())
            }
            Instr::Test { a, b } => {
                let x = self.regs.read_gp(*a);
                let y = match b {
                    GpOperand::Reg(r) => self.regs.read_gp(*r),
                    GpOperand::Imm(v) => *v as u32,
                };
                self.regs.set_flags_logic(x & y);
                Ok(ExecEffect::default())
            }
            Instr::Jmp { target } => {
                Ok(ExecEffect { redirect: Some(program.resolve(*target)), branch: Some(true) })
            }
            Instr::Jcc { cond, target } => {
                let f = self.regs.flags;
                let taken = cond.eval(f.zf, f.sf, f.cf, f.of);
                Ok(ExecEffect {
                    redirect: taken.then(|| program.resolve(*target)),
                    branch: Some(taken),
                })
            }
            Instr::Nop => Ok(ExecEffect::default()),
            Instr::Halt => unreachable!("halt handled by the fetch loop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::asm::assemble;
    use subword_isa::lane::{from_iwords, iwords_of};
    use subword_isa::op::{Cond, MmxOp};
    use subword_isa::reg::gp::*;
    use subword_isa::reg::MmReg::*;
    use subword_isa::ProgramBuilder;
    use subword_spu::crossbar::ByteRoute;
    use subword_spu::mmio::{emit_spu_go, emit_spu_setup};
    use subword_spu::{SpuProgram, SHAPE_A, SHAPE_D};

    fn run_asm(src: &str) -> (Machine, SimStats) {
        let p = assemble("t", src).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        let s = m.run(&p).unwrap();
        (m, s)
    }

    #[test]
    fn straight_line_cycle_count() {
        // Four independent 1-cycle instructions dual-issue into 2 slots.
        let (_, s) =
            run_asm("paddw mm0, mm1\n psubw mm2, mm3\n pxor mm4, mm5\n pand mm6, mm7\n halt\n");
        assert_eq!(s.instructions, 4);
        assert_eq!(s.pairs, 2);
        assert_eq!(s.singles, 0);
        assert_eq!(s.cycles, 2);
        assert_eq!(s.mmx_active_cycles, 2);
    }

    #[test]
    fn dependent_chain_single_issues() {
        let (_, s) = run_asm("paddw mm0, mm1\n paddw mm0, mm2\n paddw mm0, mm3\n halt\n");
        assert_eq!(s.pairs, 0);
        assert_eq!(s.singles, 3);
        assert_eq!(s.cycles, 3);
    }

    #[test]
    fn multiply_latency_stalls_dependent() {
        // pmullw result ready at cycle+3; dependent padd issues at cycle 3
        // instead of 1: 2 stall cycles.
        let (_, s) = run_asm("pmullw mm0, mm1\n paddw mm2, mm0\n halt\n");
        assert_eq!(s.stall_cycles, 2);
        assert_eq!(s.cycles, 4); // slot0 @0, stall 1..3, slot @3 -> 4 cycles

        // Independent work can fill the latency for free: two filler pairs
        // occupy cycles 1 and 2, so the dependent add issues at 3 with no
        // stall.
        let (_, s2) = run_asm(
            "pmullw mm0, mm1\n add r1, 1\n add r2, 1\n add r3, 1\n add r4, 1\n paddw mm2, mm0\n halt\n",
        );
        assert_eq!(s2.stall_cycles, 0);
        assert_eq!(s2.cycles, 4);
        assert_eq!(s2.pairs, 2);
    }

    #[test]
    fn pipelined_multiplier_one_per_cycle() {
        // Independent multiplies issue one per cycle (single multiplier,
        // but pipelined).
        let (_, s) = run_asm("pmullw mm0, mm4\n pmullw mm1, mm5\n pmullw mm2, mm6\n halt\n");
        assert_eq!(s.cycles, 3);
        assert_eq!(s.stall_cycles, 0);
    }

    #[test]
    fn scalar_imul_blocks_pipe() {
        let (_, s) = run_asm("mov r0, 7\n imul r0, r0\n add r1, 1\n halt\n");
        // mov+imul cannot pair; imul burns 9 cycles; add single-issues.
        assert_eq!(s.cycles, 1 + 9 + 1);
        assert_eq!(s.imul_block_cycles, 8);
        assert_eq!(s.scalar_multiplies, 1);
    }

    #[test]
    fn loop_branch_statistics() {
        let (_, s) = run_asm("mov r0, 100\nloop:\n paddw mm0, mm1\n sub r0, 1\n jnz loop\n halt\n");
        assert_eq!(s.branches, 100);
        // Cold first-taken miss + final exit miss.
        assert_eq!(s.mispredicts, 2);
        assert_eq!(s.mispredict_cycles, 2 * 4);
        // First pass: (mov,paddw) pair, (sub,jnz) pair. Steady state:
        // (paddw,sub) pair + jnz single.
        assert_eq!(s.pairs, 101);
        assert_eq!(s.singles, 99);
        assert_eq!(s.instructions, 1 + 300);
    }

    #[test]
    fn spu_adds_one_cycle_to_mispredict() {
        let p = assemble("t", "mov r0, 10\nl:\n sub r0, 1\n jnz l\n halt\n").unwrap();
        let mut base = Machine::new(MachineConfig::mmx_only());
        let sb = base.run(&p).unwrap();
        let mut spu = Machine::new(MachineConfig::with_spu(SHAPE_A));
        let ss = spu.run(&p).unwrap();
        assert_eq!(sb.mispredicts, ss.mispredicts);
        assert_eq!(sb.mispredict_cycles + sb.mispredicts, ss.mispredict_cycles);
        assert_eq!(ss.cycles, sb.cycles + sb.mispredicts);
    }

    #[test]
    fn memory_roundtrip_and_mmx_semantics() {
        let p = assemble(
            "t",
            r#"
            mov r0, 0x100
            movq mm0, [r0]
            paddsw mm0, [r0+8]
            movq [r0+16], mm0
            halt
        "#,
        )
        .unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.mem.write_i16s(0x100, &[30000, -30000, 5, -5]).unwrap();
        m.mem.write_i16s(0x108, &[10000, -10000, 1, 5]).unwrap();
        m.run(&p).unwrap();
        assert_eq!(m.mem.read_i16s(0x110, 4).unwrap(), vec![32767, -32768, 6, 0]);
    }

    #[test]
    fn fault_reports() {
        let p = assemble("t", "mov r0, 0x7fffff00\n movq mm0, [r0]\n halt\n").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        assert!(matches!(m.run(&p), Err(SimError::MemOutOfBounds { pc: 1, .. })));

        let p = assemble("t", "nop\n").unwrap();
        assert!(matches!(m.run(&p), Err(SimError::NoHalt)));

        let p = assemble("t", "l:\n jmp l\n halt\n").unwrap();
        let mut m = Machine::new(MachineConfig { max_cycles: 1000, ..Default::default() });
        assert!(matches!(m.run(&p), Err(SimError::MaxCyclesExceeded { .. })));

        // MMIO access without an SPU fitted.
        let p = assemble("t", "mov [0xF0000000], 1\n halt\n").unwrap();
        let mut m = Machine::new(MachineConfig::mmx_only());
        assert!(matches!(m.run(&p), Err(SimError::SpuNotFitted { pc: 0 })));
    }

    /// Paper Figure 5/7 end-to-end: the SPU-routed dot-product loop
    /// computes a*c, e*g, b*d, f*h without any unpack instructions.
    #[test]
    fn figure5_routed_dot_product() {
        let (a, b, c, d) = (100i16, 200, 300, 400);
        let (e, f_, g, h) = (11i16, 22, 33, 44);

        let op_a = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
        let op_b = ByteRoute::from_reg_words([(MM0, 2), (MM1, 2), (MM0, 3), (MM1, 3)]);
        let trips = 10u64;
        // Loop body: pmulhw, pmullw, sub, jnz = 4 dynamic instructions.
        let spu_prog = SpuProgram::single_loop(
            "fig5",
            &[(Some(op_a), Some(op_b)), (Some(op_a), Some(op_b)), (None, None), (None, None)],
            trips,
        );

        let mut b_ = ProgramBuilder::new("dot");
        emit_spu_setup(&mut b_, 0, &spu_prog);
        b_.mov_ri(R0, trips as i32);
        emit_spu_go(&mut b_, 0, &spu_prog);
        let l = b_.bind_here("loop");
        b_.mmx_rr(MmxOp::Pmulhw, MM2, MM2);
        b_.mmx_rr(MmxOp::Pmullw, MM3, MM3);
        b_.alu_ri(subword_isa::op::AluOp::Sub, R0, 1);
        b_.jcc(Cond::Ne, l);
        b_.mark_loop(l, Some(trips));
        b_.halt();
        let prog = b_.finish().unwrap();

        let mut m = Machine::new(MachineConfig::with_spu(SHAPE_D));
        m.regs.write_mm(MM0, from_iwords([a, b, c, d]));
        m.regs.write_mm(MM1, from_iwords([e, f_, g, h]));
        let s = m.run(&prog).unwrap();

        // Functional result: high and low halves of [a,e,b,f]*[c,g,d,h].
        let expect_lo: [i16; 4] = [
            (a as i32 * c as i32) as i16,
            (e as i32 * g as i32) as i16,
            (b as i32 * d as i32) as i16,
            (f_ as i32 * h as i32) as i16,
        ];
        let expect_hi: [i16; 4] = [
            ((a as i32 * c as i32) >> 16) as i16,
            ((e as i32 * g as i32) >> 16) as i16,
            ((b as i32 * d as i32) >> 16) as i16,
            ((f_ as i32 * h as i32) >> 16) as i16,
        ];
        assert_eq!(iwords_of(m.regs.read_mm(MM3)), expect_lo);
        assert_eq!(iwords_of(m.regs.read_mm(MM2)), expect_hi);

        // The controller stepped 4 states × 10 trips and routed the two
        // multiplies each iteration.
        assert_eq!(s.spu_steps, 40);
        assert_eq!(s.spu_routed, 20);
        assert_eq!(s.spu_activations, 1);
        assert!(!m.spu.as_ref().unwrap().controller.is_active());
    }

    /// Program the SPU entirely from simulated code through the
    /// memory-mapped window (paper §4's programming model), then re-arm it
    /// for a second block with a single GO store.
    #[test]
    fn mmio_setup_inside_program_and_rearm() {
        let swap = ByteRoute::from_reg_words([(MM0, 1), (MM0, 0), (MM0, 3), (MM0, 2)]);
        let trips = 3u64;
        // Body: movq (routed gather), sub, jnz.
        let spu_prog = SpuProgram::single_loop(
            "swap",
            &[(None, Some(swap)), (None, None), (None, None)],
            trips,
        );

        let mut b = ProgramBuilder::new("mmio-setup");
        let setup_stores = emit_spu_setup(&mut b, 0, &spu_prog);
        assert!(setup_stores > 0);
        // Two blocks, each armed by one GO store. The GO must immediately
        // precede the loop: the controller steps on *every* instruction,
        // so anything between GO and the loop head would consume states.
        for _ in 0..2 {
            b.mov_ri(R0, trips as i32);
            emit_spu_go(&mut b, 0, &spu_prog);
            let l = b.bind_here(format!("blk{}", b.here()));
            b.movq_rr(MM2, MM0);
            b.alu_ri(subword_isa::op::AluOp::Sub, R0, 1);
            b.jcc(Cond::Ne, l);
        }
        b.halt();
        let prog = b.finish().unwrap();

        let mut m = Machine::new(MachineConfig::with_spu(SHAPE_D));
        m.regs.write_mm(MM0, from_iwords([10, 20, 30, 40]));
        let s = m.run(&prog).unwrap();
        assert_eq!(iwords_of(m.regs.read_mm(MM2)), [20, 10, 40, 30]);
        assert_eq!(s.spu_activations, 2);
        assert_eq!(s.spu_steps, 2 * 3 * trips);
        assert!(s.mmio_accesses as usize >= setup_stores + 2);
    }

    /// A GO store cancels pairing (serialising), so the instruction after
    /// it still receives SPU routing.
    #[test]
    fn go_store_serialises_slot() {
        let swap = ByteRoute::from_reg_words([(MM0, 3), (MM0, 2), (MM0, 1), (MM0, 0)]);
        let spu_prog = SpuProgram::single_loop("rev", &[(None, Some(swap))], 1);
        let mut b = ProgramBuilder::new("serial");
        emit_spu_setup(&mut b, 0, &spu_prog);
        emit_spu_go(&mut b, 0, &spu_prog);
        // This movq would otherwise pair with the GO store.
        b.movq_rr(MM1, MM0);
        b.halt();
        let prog = b.finish().unwrap();
        let mut m = Machine::new(MachineConfig::with_spu(SHAPE_D));
        m.regs.write_mm(MM0, from_iwords([1, 2, 3, 4]));
        m.run(&prog).unwrap();
        assert_eq!(iwords_of(m.regs.read_mm(MM1)), [4, 3, 2, 1]);
    }

    /// Inter-word gather: one routed movq pulls a "column" from four
    /// registers — the operation the paper says removes the 4x4 transpose's
    /// inter-word restriction.
    #[test]
    fn interword_column_gather() {
        let col0 = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM2, 0), (MM3, 0)]);
        let spu_prog = SpuProgram::single_loop("col", &[(None, Some(col0))], 1);
        let mut b = ProgramBuilder::new("gather");
        emit_spu_setup(&mut b, 0, &spu_prog);
        emit_spu_go(&mut b, 0, &spu_prog);
        b.movq_rr(MM4, MM4);
        b.halt();
        let prog = b.finish().unwrap();
        let mut m = Machine::new(MachineConfig::with_spu(SHAPE_D));
        for (i, r) in [MM0, MM1, MM2, MM3].into_iter().enumerate() {
            m.regs.write_mm(r, from_iwords([10 * (i as i16 + 1), -1, -1, -1]));
        }
        m.run(&prog).unwrap();
        assert_eq!(iwords_of(m.regs.read_mm(MM4)), [10, 20, 30, 40]);
    }

    #[test]
    fn movq_store_with_routing() {
        let gather = ByteRoute::from_reg_words([(MM1, 3), (MM1, 2), (MM1, 1), (MM1, 0)]);
        let spu_prog = SpuProgram::single_loop("st", &[(Some(gather), None)], 1);
        let mut b = ProgramBuilder::new("store-routed");
        emit_spu_setup(&mut b, 0, &spu_prog);
        emit_spu_go(&mut b, 0, &spu_prog);
        b.mov_ri(R0, 0x200);
        b.movq_store(subword_isa::Mem::base(R0), MM0);
        b.halt();
        let prog = b.finish().unwrap();
        let mut m = Machine::new(MachineConfig::with_spu(SHAPE_D));
        m.regs.write_mm(MM1, from_iwords([1, 2, 3, 4]));
        m.regs.write_mm(MM0, from_iwords([9, 9, 9, 9]));
        m.run(&prog).unwrap();
        // Wait: GO store, then mov (straight state consumed), then store.
        // The single-state program routes the *first* instruction after
        // GO, which is `mov r0` (scalar — routing ignored), so the store
        // is NOT routed. Verify straight behaviour then re-check with the
        // mov hoisted before GO.
        assert_eq!(m.mem.read_i16s(0x200, 4).unwrap(), vec![9, 9, 9, 9]);

        let mut b = ProgramBuilder::new("store-routed2");
        emit_spu_setup(&mut b, 0, &spu_prog);
        b.mov_ri(R0, 0x200);
        emit_spu_go(&mut b, 0, &spu_prog);
        b.movq_store(subword_isa::Mem::base(R0), MM0);
        b.halt();
        let prog = b.finish().unwrap();
        let mut m = Machine::new(MachineConfig::with_spu(SHAPE_D));
        m.regs.write_mm(MM1, from_iwords([1, 2, 3, 4]));
        m.regs.write_mm(MM0, from_iwords([9, 9, 9, 9]));
        m.run(&prog).unwrap();
        assert_eq!(m.mem.read_i16s(0x200, 4).unwrap(), vec![4, 3, 2, 1]);
    }

    #[test]
    fn spu_variant_is_faster_on_permute_heavy_loop() {
        // MMX-only: the two unpacks serialise (single shifter) and need an
        // extra register copy. SPU: the multiply fetches pre-permuted
        // operands directly.
        let trips = 200;
        let mmx_src = format!(
            "mov r0, {trips}\nloop:\n movq mm2, mm0\n punpcklwd mm2, mm1\n punpckhwd mm0, mm1\n pmullw mm2, mm0\n sub r0, 1\n jnz loop\n halt\n"
        );
        let mmx_prog = assemble("mmx", &mmx_src).unwrap();
        let mut m0 = Machine::new(MachineConfig::mmx_only());
        let s0 = m0.run(&mmx_prog).unwrap();

        let op_a = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
        let op_b = ByteRoute::from_reg_words([(MM0, 2), (MM1, 2), (MM0, 3), (MM1, 3)]);
        let spu_prog = SpuProgram::single_loop(
            "dot",
            &[(Some(op_a), Some(op_b)), (None, None), (None, None)],
            trips,
        );
        let mut b = ProgramBuilder::new("spu");
        emit_spu_setup(&mut b, 0, &spu_prog);
        b.mov_ri(R0, trips as i32);
        emit_spu_go(&mut b, 0, &spu_prog);
        let l = b.bind_here("loop");
        b.mmx_rr(MmxOp::Pmullw, MM2, MM2);
        b.alu_ri(subword_isa::op::AluOp::Sub, R0, 1);
        b.jcc(Cond::Ne, l);
        b.halt();
        let spu_prog_isa = b.finish().unwrap();
        let mut m1 = Machine::new(MachineConfig::with_spu(SHAPE_D));
        let s1 = m1.run(&spu_prog_isa).unwrap();

        assert!(s1.cycles < s0.cycles, "SPU {} cycles should beat MMX {}", s1.cycles, s0.cycles);
        // Per iteration: movq copy + two unpacks are all realignment-class.
        assert_eq!(s0.mmx_realignments, 3 * trips);
        assert_eq!(s1.mmx_realignments, 0);
    }
}
