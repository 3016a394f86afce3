//! Scheduler correctness on programs the kernel suite never writes:
//!
//! 1. a property test: for arbitrary straight-line programs, the
//!    scheduled program is a dependence-preserving permutation of the
//!    input (checked against an *independent* dependence definition
//!    built on the allocating `Vec<RegRef>` API, not the masks the
//!    scheduler itself uses), and executing both leaves bit-identical
//!    architectural state;
//! 2. a lifted loop the scheduler must reorder with its SPU routes
//!    permuted in lockstep, winning cycles without changing values.
//!
//! The full-suite side — every kernel's scheduled variants bit-identical
//! to their unscheduled forms and never slower, under shapes A–D — is
//! `subword-sim`'s `tests/differential.rs` matrix.

use proptest::prelude::*;
use subword_compile::verify::{compare, run, ArchState, Compared, TestSetup};
use subword_compile::{lift_permutes, schedule_program};
use subword_isa::instr::{GpOperand, Instr, MmxOperand};
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, MmxOp};
use subword_isa::program::Program;
use subword_isa::reg::{GpReg, MmReg};
use subword_isa::ProgramBuilder;
use subword_sim::MachineConfig;
use subword_spu::SHAPE_A;

fn mm(i: u8) -> MmReg {
    MmReg::from_index(i as usize & 7).unwrap()
}

fn gp(i: u8) -> GpReg {
    GpReg::from_index(i as usize & 15).unwrap()
}

/// Straight-line instructions that always execute in bounds: memory
/// traffic goes through `r0` (pinned to 0x1000 and never written), and
/// scalar destinations avoid `r0`.
fn straight_instr() -> BoxedStrategy<Instr> {
    let n_mmx = MmxOp::ALL.len();
    let n_alu = AluOp::ALL.len();
    prop_oneof![
        (0..n_mmx, 0u8..8, 0u8..8).prop_map(move |(op, dst, src)| Instr::Mmx {
            op: MmxOp::ALL[op],
            dst: mm(dst),
            src: MmxOperand::Reg(mm(src)),
        }),
        (0u8..8, 0u8..8).prop_map(|(dst, slot)| Instr::MovqLoad {
            dst: mm(dst),
            addr: Mem::base_disp(gp(0), (slot as i32) * 8),
        }),
        (0u8..8, 0u8..8).prop_map(|(src, slot)| Instr::MovqStore {
            addr: Mem::base_disp(gp(0), 0x200 + (slot as i32) * 8),
            src: mm(src),
        }),
        (0..n_alu, 1u8..16, 1u8..16).prop_map(move |(op, dst, src)| Instr::Alu {
            op: AluOp::ALL[op],
            dst: gp(dst),
            src: GpOperand::Reg(gp(src)),
        }),
        (0..n_alu, 1u8..16, -50i32..50).prop_map(move |(op, dst, imm)| Instr::Alu {
            op: AluOp::ALL[op],
            dst: gp(dst),
            src: GpOperand::Imm(imm),
        }),
        (1u8..16, 0u8..16).prop_map(|(a, b)| Instr::Cmp { a: gp(a), b: GpOperand::Reg(gp(b)) }),
        (0u8..8, 1u8..16).prop_map(|(dst, src)| Instr::MovdToMm { dst: mm(dst), src: gp(src) }),
        (1u8..16, 0u8..8).prop_map(|(dst, src)| Instr::MovdFromMm { dst: gp(dst), src: mm(src) }),
    ]
    .boxed()
}

fn build_straight(instrs: &[Instr]) -> Program {
    let mut b = ProgramBuilder::new("prop");
    for i in instrs {
        b.raw(*i);
    }
    b.halt();
    b.finish().unwrap()
}

/// The test's own dependence definition, written against the allocating
/// `Vec<RegRef>` API (the scheduler works on `RegMask`s and
/// `effective_read_mask`, so agreement here is a cross-implementation
/// check, not a tautology).
fn must_stay_ordered(a: &Instr, b: &Instr) -> bool {
    let raw = a.writes().is_some_and(|w| b.reads().contains(&w));
    let war = b.writes().is_some_and(|w| a.reads().contains(&w));
    let waw = a.writes().is_some() && a.writes() == b.writes();
    let flags = (a.writes_flags() && (b.reads_flags() || b.writes_flags()))
        || (a.reads_flags() && b.writes_flags());
    let mem = a.is_mem_access() && b.is_mem_access() && (a.is_store() || b.is_store());
    raw || war || waw || flags || mem
}

/// All of memory, as one output range.
fn whole_memory() -> Vec<(u32, usize)> {
    vec![(0, MachineConfig::default().memory_size)]
}

/// The canonical initial state: `r0` pinned to 0x1000 (and never
/// written), every other register distinct, a patterned 1 KiB arena.
fn canonical_setup() -> TestSetup {
    TestSetup {
        mem_init: vec![(0x1000, (0..0x400u32).map(|i| (i * 7 + 13) as u8).collect())],
        reg_init: (0..16u8)
            .map(|r| (gp(r), if r == 0 { 0x1000 } else { 0x40 + 3 * r as u32 }))
            .collect(),
        mm_init: (0..8u8)
            .map(|r| (mm(r), 0x0123_4567_89ab_cdef ^ (0x1111_1111_1111_1111 * r as u64)))
            .collect(),
        outputs: whole_memory(),
    }
}

/// Run `p` from `setup` on `cfg`, capturing all of memory.
fn run_whole(p: &Program, setup: &TestSetup, cfg: MachineConfig) -> ArchState {
    run(p, setup, cfg).expect("program runs to halt")
}

/// Registers, flags and all of memory must agree.
fn assert_same_arch_state(a: &ArchState, b: &ArchState, label: &str) {
    if let Some(diff) = compare(a, b, Compared::Arch) {
        panic!("{label}: {diff}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scheduled straight-line programs are dependence-preserving
    /// permutations with unchanged architectural semantics.
    #[test]
    fn scheduled_is_a_dependence_preserving_permutation(
        instrs in proptest::collection::vec(straight_instr(), 3..24)
    ) {
        let p = build_straight(&instrs);
        let (s, report) = schedule_program(&p);

        // Same length, halt still last, and a genuine permutation: the
        // instruction multisets match.
        prop_assert_eq!(s.instrs.len(), p.instrs.len());
        prop_assert_eq!(*s.instrs.last().unwrap(), Instr::Halt);
        let mut a = p.instrs.clone();
        let mut b = s.instrs.clone();
        let key = |i: &Instr| format!("{i}");
        a.sort_by_key(key);
        b.sort_by_key(key);
        prop_assert_eq!(a, b, "not a permutation");

        // Every dependent pair keeps its relative order.
        let n = instrs.len();
        let pos = |ins: &Instr, from: &[Instr]| -> Vec<usize> {
            from.iter().enumerate().filter(|(_, x)| *x == ins).map(|(k, _)| k).collect()
        };
        for i in 0..n {
            for j in (i + 1)..n {
                if must_stay_ordered(&instrs[i], &instrs[j]) {
                    // With duplicates, match occurrence counts: the k-th
                    // occurrence ordering is preserved iff for equal
                    // instructions the check is vacuous, so compare
                    // first/last feasible positions conservatively.
                    let pi = pos(&instrs[i], &s.instrs);
                    let pj = pos(&instrs[j], &s.instrs);
                    prop_assert!(
                        pi.iter().min() < pj.iter().max(),
                        "dependence {} -> {} inverted", instrs[i], instrs[j]
                    );
                }
            }
        }

        // Bit-identical architectural outcome, same instruction count,
        // never more cycles.
        let setup = canonical_setup();
        let m0 = run_whole(&p, &setup, MachineConfig::mmx_only());
        let m1 = run_whole(&s, &setup, MachineConfig::mmx_only());
        assert_same_arch_state(&m0, &m1, "prop");
        prop_assert_eq!(m0.stats.instructions, m1.stats.instructions);
        prop_assert!(
            m1.stats.cycles <= m0.stats.cycles,
            "scheduled {} cycles > unscheduled {} (moved {})",
            m1.stats.cycles, m0.stats.cycles, report.moved
        );
    }
}

/// A lifted loop whose kept body has two adjacent routed multiplies: the
/// scheduler must interleave them with the scalar tail — permuting the
/// SPU states in lockstep — and win a cycle per iteration without
/// changing the computed values.
#[test]
fn lifted_loop_reorders_with_routes_permuted() {
    let src = r#"
        .trips loop 50
        mov r0, 50
    loop:
        movq mm2, mm0
        punpcklwd mm2, mm1
        pmulhw mm4, mm2
        movq mm3, mm0
        punpckhwd mm3, mm1
        pmullw mm5, mm3
        sub r0, 1
        jnz loop
        halt
    "#;
    let p = subword_isa::asm::assemble("reorder", src).unwrap();
    let lifted = lift_permutes(&p, &SHAPE_A).unwrap();
    assert_eq!(lifted.report.removed_static, 4, "all four realignments lift");

    // The scheduled program is a different emission order, and its SPU
    // program routes different state indices than the unscheduled one.
    assert_ne!(lifted.program.instrs, lifted.scheduled.program.instrs);
    assert!(lifted.scheduled.moved > 0);
    assert_eq!(lifted.spu_programs.len(), 1);
    let routed_states = |p: &subword_spu::SpuProgram| -> Vec<u8> {
        p.states
            .iter()
            .filter(|(_, s)| s.route_a.is_some() || s.route_b.is_some())
            .map(|(i, _)| *i)
            .collect()
    };
    assert_ne!(
        routed_states(&lifted.spu_programs[0].1),
        routed_states(&lifted.scheduled.spu_programs[0].1),
        "SPU states must be permuted along with the body"
    );

    // Same values, strictly fewer cycles.
    let setup = TestSetup {
        mm_init: vec![(mm(0), 0x0004_0003_0002_0001), (mm(1), 0x0008_0007_0006_0005)],
        outputs: whole_memory(),
        ..TestSetup::default()
    };
    let m0 = run_whole(&lifted.program, &setup, MachineConfig::with_spu(SHAPE_A));
    let m1 = run_whole(&lifted.scheduled.program, &setup, MachineConfig::with_spu(SHAPE_A));
    assert_same_arch_state(&m0, &m1, "reorder");
    assert_eq!(m0.stats.spu_routed, m1.stats.spu_routed);
    assert!(
        m1.stats.cycles < m0.stats.cycles,
        "scheduled ({}) must beat unscheduled ({}) on this loop",
        m1.stats.cycles,
        m0.stats.cycles
    );
    assert!(m1.stats.pair_rate() > m0.stats.pair_rate());
}
