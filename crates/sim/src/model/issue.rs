//! The issue rules: the single source of truth for dual-issue slot
//! formation shared by every consumer that replays them.
//!
//! Two layers replay the Pentium-MMX issue procedure:
//!
//! * the simulator's dynamic slot loop ([`Machine::run`](crate::Machine)),
//!   from which the threaded engine also records its traces
//!   ([`crate::translate`]), and
//! * the compiler's list scheduler (`subword-compile::schedule`), whose
//!   cost model is a static replay of the same procedure.
//!
//! Before this module existed, the scoreboard walk, the multiplier
//! retire rule and the blocking-`imul` slot cost were re-implemented in
//! each of those places, held together by a "static replay must mirror
//! the sim" comment contract. Now the arithmetic lives here once:
//! [`IssueRules`] carries the latencies, [`IssueOp`] the per-instruction
//! issue metadata, and [`replay_order`] the straight-line replay the
//! scheduler costs orders with. Pairing *legality* already has its
//! single home in [`crate::pipeline`] ([`can_pair`]); this module owns
//! the *timing* half.
//!
//! The reference engine ([`ExecEngine::Reference`](crate::ExecEngine)) is
//! deliberately **not** a consumer: it keeps its own inline `Vec`-based
//! logic so it remains an independent oracle for all of the above.
//!
//! The straight-line region partition ([`regions_of`]) also lives here:
//! the scheduler and the threaded engine's traces must agree on what a
//! region is (branch targets and MMIO barriers delimit them), so they
//! share one definition.
//!
//! Replaying two independent adds dual-issues them in one cycle; making
//! the second read the first's destination forces two single-issue
//! cycles (the conformance page `docs/spec/03-pairing-and-scoreboard.md`
//! pins the same behaviour on the full machine):
//!
//! ```
//! use subword_isa::asm::assemble;
//! use subword_sim::issue::{replay_order, IssueRules, SlotOp};
//! use subword_spu::controller::StepRouting;
//!
//! let ops = |src: &str| -> Vec<SlotOp> {
//!     assemble("demo", src).unwrap().instrs.iter()
//!         .map(|i| SlotOp::new(i.clone(), StepRouting::default()))
//!         .collect()
//! };
//! let rules = IssueRules::default_model();
//!
//! let pairable = ops("paddw mm0, mm1\npaddw mm2, mm3\n");
//! let (cost, _, _) = replay_order(&rules, &pairable, &[0, 1], false, 1);
//! assert_eq!((cost.pairs, cost.singles, cost.cycles), (1, 0, 1));
//!
//! let dependent = ops("paddw mm0, mm1\npaddw mm2, mm0\n");
//! let (cost, _, _) = replay_order(&rules, &dependent, &[0, 1], false, 1);
//! assert_eq!((cost.pairs, cost.singles, cost.cycles), (0, 2, 2));
//! ```

use crate::machine::MachineConfig;
use crate::pipeline::{can_pair, effective_read_mask};
use subword_isa::instr::Instr;
use subword_isa::program::Program;
use subword_spu::controller::StepRouting;
use subword_spu::mmio::in_mmio_range;

/// Machine parameters of the issue procedure. Constructed from a
/// [`MachineConfig`] (the simulator) or from the default one (the
/// compiler's cost model, which must stay deterministic across hosts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IssueRules {
    /// MMX multiply latency in cycles (pipelined multiplier), ≥ 1.
    pub mmx_mul_latency: u64,
    /// Scalar multiply cost in cycles (blocking `imul`), ≥ 1.
    pub scalar_mul_latency: u64,
}

impl IssueRules {
    /// The rules a machine with configuration `cfg` issues under. Both
    /// pipeline models read their multiply latencies from here. A latency
    /// of 0 is timed as 1: a result is never available in the cycle its
    /// multiply issues, and a blocking `imul` occupies at least its slot.
    pub fn of(cfg: &MachineConfig) -> IssueRules {
        IssueRules {
            mmx_mul_latency: cfg.mmx_mul_latency.max(1),
            scalar_mul_latency: cfg.scalar_mul_latency.max(1),
        }
    }

    /// The default-machine rules — what the compiler's static replay
    /// uses. Sensitivity sweeps that vary latencies still get a legal
    /// (just possibly non-optimal) schedule.
    pub fn default_model() -> IssueRules {
        Self::of(&MachineConfig::default())
    }

    /// Earliest cycle at which every MMX register in `mm_reads` is
    /// available — the scoreboard walk the decoded stepper and
    /// [`replay_order`] run per slot.
    #[inline]
    pub fn operand_ready(mut mm_reads: u8, mm_ready: &[u64; 8]) -> u64 {
        let mut t = 0;
        while mm_reads != 0 {
            t = t.max(mm_ready[mm_reads.trailing_zeros() as usize]);
            mm_reads &= mm_reads - 1;
        }
        t
    }

    /// Cycle at which a multiply issued at `issue_cycle` retires its
    /// destination.
    #[inline]
    pub fn mul_retire(&self, issue_cycle: u64) -> u64 {
        issue_cycle + self.mmx_mul_latency
    }

    /// Cycles an issue slot occupies: 1, or the blocking scalar-multiply
    /// latency.
    #[inline]
    pub fn slot_cycles(&self, scalar_mul_in_slot: bool) -> u64 {
        if scalar_mul_in_slot {
            self.scalar_mul_latency
        } else {
            1
        }
    }

    /// Extra cycles a blocking scalar multiply adds beyond the 1-cycle
    /// slot (the `imul_block_cycles` statistic).
    #[inline]
    pub fn imul_extra_cycles(&self) -> u64 {
        self.scalar_mul_latency - 1
    }

    /// Apply `op`'s scoreboard effect for an issue at `issue_cycle`.
    #[inline]
    pub fn retire(&self, op: &IssueOp, issue_cycle: u64, mm_ready: &mut [u64; 8]) {
        if let Some(dst) = op.mmx_mul_dst {
            mm_ready[dst as usize] = self.mul_retire(issue_cycle);
        }
    }
}

/// Per-instruction metadata the issue procedure consumes: the effective
/// MMX read set (through SPU routes, when supplied) and the two latency
/// classes.
#[derive(Clone, Copy, Debug, Default)]
pub struct IssueOp {
    /// MMX registers read (bitmask), through `routing` when routable.
    pub mm_reads: u8,
    /// `Some(dst index)` for MMX multiplies (pipelined result latency).
    pub mmx_mul_dst: Option<u8>,
    /// Blocking scalar multiply.
    pub scalar_mul: bool,
}

impl IssueOp {
    /// Evaluate `i`'s issue metadata under `routing`.
    pub fn of(i: &Instr, routing: &StepRouting) -> IssueOp {
        IssueOp {
            mm_reads: effective_read_mask(i, routing).mm,
            mmx_mul_dst: match (i.is_mmx_multiply(), i) {
                (true, Instr::Mmx { dst, .. }) => Some(dst.index() as u8),
                _ => None,
            },
            scalar_mul: i.is_scalar_multiply(),
        }
    }
}

/// One instruction as the static replay sees it: the instruction, its
/// routing, and the precomputed issue metadata.
#[derive(Clone, Debug)]
pub struct SlotOp {
    /// The instruction.
    pub instr: Instr,
    /// SPU routing it executes under (`default()` = straight).
    pub routing: StepRouting,
    /// Precomputed issue metadata.
    pub op: IssueOp,
}

impl SlotOp {
    /// Build a replay node for `instr` under `routing`.
    pub fn new(instr: Instr, routing: StepRouting) -> SlotOp {
        SlotOp { op: IssueOp::of(&instr, &routing), instr, routing }
    }
}

/// Cost of one replayed order (the scheduler's acceptance metric).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayCost {
    /// Cycles consumed (measured iterations only, for loops).
    pub cycles: u64,
    /// Dual-issued slots.
    pub pairs: u64,
    /// Single-issued slots.
    pub singles: u64,
}

/// Replay `order` over `ops` exactly as the simulator issues a
/// straight-line stretch: pairing via [`can_pair`], scoreboard via
/// [`IssueRules::operand_ready`], multiplier retire and blocking scalar
/// multiplies via [`IssueRules`]. `looped` replays `loop_iters`
/// iterations with scoreboard carry-over and costs only the post-warm-up
/// ones (the first seeds the carry). Also returns the exit state — final
/// cycle and absolute scoreboard — for cross-boundary dominance checks.
pub fn replay_order(
    rules: &IssueRules,
    ops: &[SlotOp],
    order: &[usize],
    looped: bool,
    loop_iters: usize,
) -> (ReplayCost, u64, [u64; 8]) {
    let iters = if looped { loop_iters } else { 1 };
    let measure_from = usize::from(looped);
    let mut cycle = 0u64;
    let mut mm_ready = [0u64; 8];
    let mut cost = ReplayCost::default();
    for it in 0..iters {
        let iter_start = cycle;
        let mut pairs = 0u64;
        let mut singles = 0u64;
        let mut k = 0;
        while k < order.len() {
            let u = &ops[order[k]];
            cycle = cycle.max(IssueRules::operand_ready(u.op.mm_reads, &mm_ready));
            let v = order.get(k + 1).map(|&j| &ops[j]).filter(|v| {
                can_pair(&u.instr, &u.routing, &v.instr, &v.routing)
                    && IssueRules::operand_ready(v.op.mm_reads, &mm_ready) <= cycle
            });
            let mut scalar_mul = false;
            for x in [Some(u), v].into_iter().flatten() {
                rules.retire(&x.op, cycle, &mut mm_ready);
                scalar_mul |= x.op.scalar_mul;
            }
            if v.is_some() {
                pairs += 1;
                k += 2;
            } else {
                singles += 1;
                k += 1;
            }
            cycle += rules.slot_cycles(scalar_mul);
        }
        if it >= measure_from {
            cost.cycles += cycle - iter_start;
            cost.pairs += pairs;
            cost.singles += singles;
        }
    }
    (cost, cycle, mm_ready)
}

// ---- straight-line region partition ------------------------------------

/// How a region ends — what its terminating instruction is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// Ends with a branch whose target is the region's own start (a loop
    /// body, back edge included).
    Loop,
    /// Ends with any other branch (included in the region).
    Branch,
    /// Ends with `halt` (included in the region, never issued).
    Halt,
    /// Ends because the next instruction starts a region (bound label) or
    /// the program ends.
    Fallthrough,
    /// A singleton statically-identifiable SPU MMIO access: a hard
    /// barrier — the decoupled controller steps once per issued
    /// instruction, and a GO store must stay immediately ahead of its
    /// loop. Never scheduled, never recorded as a trace.
    Barrier,
}

/// A maximal straight-line region (half-open instruction range).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First instruction.
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
    /// Terminator class.
    pub kind: RegionKind,
}

/// A statically identifiable SPU MMIO access. The compiler only ever
/// emits MMIO traffic with absolute addressing (`Mem::abs`), so this is
/// exact for compiler-generated programs; hand-written programs that
/// compute an MMIO address in a register are handled dynamically by the
/// engines (the threaded engine hands every memory access whose address
/// leaves ordinary memory to its stepper).
pub fn is_mmio_barrier(i: &Instr) -> bool {
    i.mem_operand().is_some_and(|m| m.regs().next().is_none() && in_mmio_range(m.disp as u32))
}

/// Partition `program` into straight-line regions: branches and `halt`
/// end a region (and stay inside it), every bound label position and
/// loop head starts one (control may join there), and statically
/// identifiable MMIO accesses are [`RegionKind::Barrier`] singletons.
/// Every instruction belongs to exactly one region.
pub fn regions_of(program: &Program) -> Vec<Region> {
    let n = program.instrs.len();
    let mut starts = vec![false; n + 1];
    for id in 0..program.label_count() {
        if let Some(pos) = program.label_position(subword_isa::program::Label(id as u32)) {
            starts[pos] = true;
        }
    }
    for l in &program.loops {
        starts[l.head] = true;
    }

    let mut regions = Vec::new();
    let mut push = |start: usize, end: usize, kind: RegionKind| {
        if start < end {
            regions.push(Region { start, end, kind });
        }
    };
    let mut s = 0;
    let mut pc = 0;
    while pc < n {
        let i = &program.instrs[pc];
        if is_mmio_barrier(i) {
            push(s, pc, RegionKind::Fallthrough);
            push(pc, pc + 1, RegionKind::Barrier);
            s = pc + 1;
        } else if i.is_branch() || matches!(i, Instr::Halt) {
            let kind = match i.branch_target() {
                Some(t) if program.resolve(t) == s => RegionKind::Loop,
                Some(_) => RegionKind::Branch,
                None if i.is_branch() => RegionKind::Branch,
                None => RegionKind::Halt,
            };
            push(s, pc + 1, kind);
            s = pc + 1;
        } else if pc + 1 < n && starts[pc + 1] {
            push(s, pc + 1, RegionKind::Fallthrough);
            s = pc + 1;
        }
        pc += 1;
    }
    push(s, n, RegionKind::Fallthrough);
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::asm::assemble;

    #[test]
    fn rules_mirror_config() {
        let cfg =
            MachineConfig { mmx_mul_latency: 5, scalar_mul_latency: 11, ..Default::default() };
        let r = IssueRules::of(&cfg);
        assert_eq!(r.mul_retire(7), 12);
        assert_eq!(r.slot_cycles(false), 1);
        assert_eq!(r.slot_cycles(true), 11);
        assert_eq!(r.imul_extra_cycles(), 10);
        assert_eq!(IssueRules::default_model(), IssueRules::of(&MachineConfig::default()));
    }

    #[test]
    fn zero_latencies_time_as_one_on_both_models() {
        use crate::machine::{ExecEngine, Machine};
        use crate::model::PipelineKind;
        let p = assemble("t", "mov r0, 3\nimul r0, r0\npmullw mm0, mm1\npaddw mm2, mm0\nhalt\n")
            .unwrap();
        let run = |latency: u64, engine: ExecEngine, pipeline: PipelineKind| {
            let cfg = MachineConfig {
                mmx_mul_latency: latency,
                scalar_mul_latency: latency,
                engine,
                pipeline,
                ..MachineConfig::default()
            };
            Machine::new(cfg).run(&p).unwrap()
        };
        for (engine, pipeline) in [
            (ExecEngine::Reference, PipelineKind::InOrder),
            (ExecEngine::Decoded, PipelineKind::InOrder),
            (ExecEngine::Threaded, PipelineKind::InOrder),
            (ExecEngine::default(), PipelineKind::OutOfOrder),
        ] {
            let one = run(1, engine, pipeline);
            assert_eq!(one.imul_block_cycles, 0, "{engine:?}/{pipeline:?}");
            assert_eq!(run(0, engine, pipeline), one, "{engine:?}/{pipeline:?}");
        }
    }

    /// Every engine and both models refuse a multiply latency above
    /// `MachineConfig::MAX_MUL_LATENCY` with an error naming the field
    /// and the bound; at the bound itself the run completes and times
    /// the whole latency.
    #[test]
    fn latencies_above_the_bound_are_refused_on_both_models() {
        use crate::machine::{ExecEngine, Machine};
        use crate::model::PipelineKind;
        use crate::SimError;
        let bound = MachineConfig::MAX_MUL_LATENCY;
        let p = assemble(
            "t",
            "mov r0, 3\nimul r0, r0\nadd r1, r0\npmullw mm0, mm1\npaddw mm2, mm0\nhalt\n",
        )
        .unwrap();
        for (engine, pipeline) in [
            (ExecEngine::Reference, PipelineKind::InOrder),
            (ExecEngine::Decoded, PipelineKind::InOrder),
            (ExecEngine::Threaded, PipelineKind::InOrder),
            (ExecEngine::default(), PipelineKind::OutOfOrder),
        ] {
            for field in ["mmx_mul_latency", "scalar_mul_latency"] {
                let run = |latency: u64| {
                    let mut cfg = MachineConfig { engine, pipeline, ..MachineConfig::default() };
                    match field {
                        "mmx_mul_latency" => cfg.mmx_mul_latency = latency,
                        _ => cfg.scalar_mul_latency = latency,
                    }
                    Machine::new(cfg).run(&p)
                };
                for latency in [bound + 1, 1 << 40, u64::MAX / 2, u64::MAX] {
                    assert_eq!(
                        run(latency),
                        Err(SimError::LatencyAboveBound { field, latency, bound }),
                        "{engine:?}/{pipeline:?} {field} = {latency}"
                    );
                }
                let at_bound = run(bound).unwrap();
                assert!(at_bound.cycles > bound, "{engine:?}/{pipeline:?} {field}: {at_bound:?}");
            }
        }
    }

    #[test]
    fn operand_ready_is_max_over_mask() {
        let mut mm_ready = [0u64; 8];
        mm_ready[2] = 9;
        mm_ready[5] = 4;
        assert_eq!(IssueRules::operand_ready(0, &mm_ready), 0);
        assert_eq!(IssueRules::operand_ready(1 << 5, &mm_ready), 4);
        assert_eq!(IssueRules::operand_ready((1 << 2) | (1 << 5), &mm_ready), 9);
    }

    #[test]
    fn issue_op_classifies() {
        let p = assemble("t", "pmullw mm3, mm1\n imul r0, r1\n paddw mm0, mm2\n").unwrap();
        let straight = StepRouting::default();
        let mul = IssueOp::of(&p.instrs[0], &straight);
        assert_eq!(mul.mmx_mul_dst, Some(3));
        assert!(!mul.scalar_mul);
        assert_eq!(mul.mm_reads, (1 << 3) | (1 << 1));
        let imul = IssueOp::of(&p.instrs[1], &straight);
        assert!(imul.scalar_mul);
        assert_eq!(imul.mmx_mul_dst, None);
        let add = IssueOp::of(&p.instrs[2], &straight);
        assert_eq!(add.mmx_mul_dst, None);
        assert!(!add.scalar_mul);
    }

    #[test]
    fn replay_counts_pairs_and_latency() {
        // paddw/psubw pair; dependent paddw stalls on nothing; pmullw
        // then a dependent read stalls to the multiplier latency.
        let p = assemble("t", "pmullw mm0, mm1\n paddw mm2, mm0\n").unwrap();
        let ops: Vec<SlotOp> =
            p.instrs.iter().map(|i| SlotOp::new(*i, StepRouting::default())).collect();
        let rules = IssueRules::default_model();
        let (cost, end, ready) = replay_order(&rules, &ops, &[0, 1], false, 0);
        // mul @0 (mm0 ready at 3), dependent add stalls to 3, slot @3.
        assert_eq!(cost.pairs, 0);
        assert_eq!(cost.singles, 2);
        assert_eq!(end, 4);
        assert_eq!(ready[0], 3);
    }

    #[test]
    fn loop_replay_measures_steady_state() {
        let p = assemble("t", "pmullw mm0, mm1\n paddw mm2, mm3\n").unwrap();
        let ops: Vec<SlotOp> =
            p.instrs.iter().map(|i| SlotOp::new(*i, StepRouting::default())).collect();
        let rules = IssueRules::default_model();
        let (once, _, _) = replay_order(&rules, &ops, &[0, 1], false, 0);
        let (steady, _, _) = replay_order(&rules, &ops, &[0, 1], true, 4);
        // Steady state re-pairs identically each iteration (3 measured
        // iterations of the same 1-slot pair), but the loop-carried
        // `mm0` dependence stalls each re-issue of the multiply to the
        // multiplier latency — a cost the cold first iteration hides.
        assert_eq!(once.pairs, 1);
        assert_eq!(once.cycles, 1);
        assert_eq!(steady.pairs, 3);
        assert_eq!(steady.cycles, 3 * rules.mmx_mul_latency);
    }

    #[test]
    fn regions_partition_whole_program() {
        let p = assemble(
            "t",
            r#"
            mov r0, 8
            mov [0xF0000000], 1
        loop:
            paddw mm0, mm1
            sub r0, 1
            jnz loop
            jmp done
        done:
            halt
        "#,
        )
        .unwrap();
        let regions = regions_of(&p);
        // Every pc in exactly one region, in order.
        let mut pc = 0;
        for r in &regions {
            assert_eq!(r.start, pc);
            assert!(r.end > r.start);
            pc = r.end;
        }
        assert_eq!(pc, p.instrs.len());
        assert!(regions.iter().any(|r| r.kind == RegionKind::Barrier && r.end - r.start == 1));
        assert!(regions.iter().any(|r| r.kind == RegionKind::Loop));
        assert!(regions.iter().any(|r| r.kind == RegionKind::Branch));
        assert!(regions.iter().any(|r| r.kind == RegionKind::Halt));
    }

    #[test]
    fn loop_region_spans_head_to_back_edge() {
        let p =
            assemble("t", ".trips l 4\nl:\n paddw mm0, mm1\n sub r0, 1\n jnz l\n halt\n").unwrap();
        let regions = regions_of(&p);
        let l = regions.iter().find(|r| r.kind == RegionKind::Loop).expect("loop region");
        assert_eq!((l.start, l.end), (0, 3));
    }
}
