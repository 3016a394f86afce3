//! Scheduler correctness, two ways:
//!
//! 1. a property test: for arbitrary straight-line programs, the
//!    scheduled program is a dependence-preserving permutation of the
//!    input (checked against an *independent* dependence definition
//!    built on the allocating `Vec<RegRef>` API, not the masks the
//!    scheduler itself uses), and executing both leaves bit-identical
//!    architectural state;
//! 2. a full-suite differential through the execution matrix
//!    (`subword_compile::verify`): every kernel's four variants under
//!    shapes A, B and D, each checked against its reference variant on
//!    its row of the exemption table, with all of memory as the output —
//!    golden outputs, registers, flags and memory bit-identical,
//!    instruction counts equal, and a scheduled variant never costs a
//!    cycle.

use proptest::prelude::*;
use subword_compile::verify::{
    build_variants, compare, plain_lift, run, ArchState, Compared, TestSetup, Variant,
};
use subword_compile::{lift_permutes, schedule_program};
use subword_isa::instr::{GpOperand, Instr, MmxOperand};
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, MmxOp};
use subword_isa::program::Program;
use subword_isa::reg::{GpReg, MmReg};
use subword_isa::ProgramBuilder;
use subword_kernels::suite::{all_suites, dotprod_example};
use subword_sim::MachineConfig;
use subword_spu::{SHAPE_A, SHAPE_B, SHAPE_D};

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

/// Full-suite differential: every variant of every kernel is
/// observationally identical to its reference variant (golden outputs,
/// registers, flags, all of memory; the MMX file exempt where lifting
/// renames it) and a scheduled variant is never slower.
#[test]
fn suite_scheduled_variants_are_bit_identical_and_never_slower() {
    let mut entries = all_suites();
    entries.push(dotprod_example());
    for shape in [SHAPE_A, SHAPE_B, SHAPE_D] {
        for e in &entries {
            let name = e.kernel.name();
            let build = e.kernel.build(e.blocks_small);
            let setup = TestSetup { outputs: whole_memory(), ..build.setup.clone() };
            let built = build_variants(build.program.clone(), &Variant::ALL, &shape, &plain_lift)
                .unwrap_or_else(|err| panic!("{name}: {err}"));
            let states: Vec<(Variant, ArchState)> = built
                .programs
                .iter()
                .map(|(variant, program)| {
                    let label = format!("{name}/{}/{}", variant.name(), shape.name);
                    let cfg = variant.machine(&MachineConfig::default(), &shape);
                    let state =
                        run(program, &setup, cfg).unwrap_or_else(|err| panic!("{label}: {err}"));
                    build.check_state(&state, &label).unwrap_or_else(|err| panic!("{err}"));
                    (*variant, state)
                })
                .collect();
            let state_of = |v: Variant| &states.iter().find(|(w, _)| *w == v).unwrap().1;
            for (variant, state) in &states {
                let Some((against, compared)) = variant.checked_against() else { continue };
                let label =
                    format!("{name}/{} vs {}/{}", variant.name(), against.name(), shape.name);
                let reference = state_of(against);
                if let Some(diff) = compare(reference, state, compared) {
                    panic!("{label}: {diff}");
                }
                if *variant == Variant::Lifted {
                    continue;
                }
                let (s0, s1) = (&reference.stats, &state.stats);
                assert_eq!(s0.instructions, s1.instructions, "{label}");
                assert_eq!(s0.spu_steps, s1.spu_steps, "{label}: controller stepped apart");
                assert_eq!(s0.spu_routed, s1.spu_routed, "{label}: routed counts differ");
                assert!(
                    s1.cycles <= s0.cycles,
                    "{label}: scheduled slower ({} > {})",
                    s1.cycles,
                    s0.cycles
                );
            }
        }
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

/// Cached artifacts replay the scheduled variant bit-identically to a
/// fresh lift, across block counts.
#[test]
fn artifact_replays_scheduled_variant_identically() {
    let build = |blocks: u64| {
        subword_isa::asm::assemble(
            "demo",
            &format!(
                r#"
                .trips loop {blocks}
                mov r0, {blocks}
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
            "#
            ),
        )
        .unwrap()
    };
    let art = subword_compile::analyze(&build(4), &SHAPE_A).unwrap();
    for blocks in [2u64, 4, 32] {
        let p = build(blocks);
        let replayed = art.apply(&p).unwrap();
        let fresh = lift_permutes(&p, &SHAPE_A).unwrap();
        assert_eq!(replayed.scheduled.program.instrs, fresh.scheduled.program.instrs);
        assert_eq!(replayed.scheduled.moved, fresh.scheduled.moved);
        assert_eq!(replayed.scheduled.spu_programs.len(), fresh.scheduled.spu_programs.len());
        for ((ca, pa), (cb, pb)) in
            replayed.scheduled.spu_programs.iter().zip(&fresh.scheduled.spu_programs)
        {
            assert_eq!(ca, cb);
            assert_eq!(pa, pb);
        }
    }
}
