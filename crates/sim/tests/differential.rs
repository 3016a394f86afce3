//! The full execution matrix over the kernel suite, one test per crossbar
//! shape: every suite kernel plus the Figure 5 example, in all four
//! compile variants of `subword_compile::verify` — the MMX-only program
//! and its list-scheduled form, and the SPU-lifted program (routed
//! operand fetch, GO serialisation, the mask-based pairing path, trace
//! invalidation around MMIO barriers) unscheduled and scheduled.
//!
//! Each variant goes through `verify::agree`: the Reference, Decoded and
//! Threaded engines must agree **bit-for-bit** on the whole state —
//! `SimStats`, both register files, flags and all of memory — and the
//! out-of-order model on all of it except the timing statistics. The
//! agreed state must hold the golden kernel outputs, each variant must
//! match its reference variant on its row of the exemption table, and a
//! scheduled variant must execute the same instructions and SPU steps as
//! its unscheduled form in no more cycles.
//!
//! Over the same suite, the issue-slot trace of `Machine::run_traced`
//! must account for the statistics of its run.

use subword_compile::verify::{
    agree, build_variants, check_references, plain_lift, run, ArchState, TestSetup, Variant,
    ENGINES,
};
use subword_kernels::suite::{all_suites, dotprod_example};
use subword_sim::memory::MEMORY_SIZE;
use subword_sim::trace::SlotTrace;
use subword_sim::MachineConfig;
use subword_spu::{CrossbarShape, SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D};

/// The matrix under `shape`, with all of memory as the output.
fn suite_matrix(shape: &CrossbarShape) {
    let mut entries = all_suites();
    entries.push(dotprod_example());
    for e in entries {
        let name = e.kernel.name();
        let build = e.kernel.build(e.blocks_small);
        let built = build_variants(build.program.clone(), &Variant::ALL, shape, &plain_lift)
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        let base = MachineConfig::default();
        let setup = TestSetup { outputs: vec![(0, MEMORY_SIZE)], ..build.setup.clone() };
        let states: Vec<(Variant, ArchState)> = built
            .programs
            .iter()
            .map(|(variant, program)| {
                let label = format!("{name}/{}-{}", variant.name(), shape.name);
                let state = agree(*variant, program, &setup, &variant.machine(&base, shape))
                    .unwrap_or_else(|d| panic!("{label}: {d}"));
                build.check_state(&state, &label).unwrap_or_else(|err| panic!("{err}"));
                (*variant, state)
            })
            .collect();
        check_references(&states).unwrap_or_else(|d| panic!("{name}/{}: {d}", shape.name));

        // Scheduling reorders, never adds or drops work, and never slows.
        let state_of = |v: Variant| &states.iter().find(|(w, _)| *w == v).expect("built").1.stats;
        for (plain, scheduled) in
            [(Variant::Baseline, Variant::Scheduled), (Variant::Lifted, Variant::ScheduledLifted)]
        {
            let label = format!("{name}/{} vs {}/{}", scheduled.name(), plain.name(), shape.name);
            let (s0, s1) = (state_of(plain), state_of(scheduled));
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

#[test]
fn suite_matrix_shape_a() {
    suite_matrix(&SHAPE_A);
}

#[test]
fn suite_matrix_shape_b() {
    suite_matrix(&SHAPE_B);
}

#[test]
fn suite_matrix_shape_c() {
    suite_matrix(&SHAPE_C);
}

#[test]
fn suite_matrix_shape_d() {
    suite_matrix(&SHAPE_D);
}

/// Every suite kernel, MMX-only and lifted at shape D: the traced slots
/// add up to the run's stall, slot-mix, instruction and cycle counts, and
/// the traced run's statistics equal the threaded engine's.
#[test]
fn traced_slots_account_for_the_run() {
    let mut entries = all_suites();
    entries.push(dotprod_example());
    for e in entries {
        let name = e.kernel.name();
        let build = e.kernel.build(e.blocks_small);
        let variants = [Variant::Baseline, Variant::Lifted];
        let built = build_variants(build.program.clone(), &variants, &SHAPE_D, &plain_lift)
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        for (variant, program) in &built.programs {
            let label = format!("{name}/{}", variant.name());
            let cfg = variant.machine(&MachineConfig::default(), &SHAPE_D);
            let mut m = build.setup.machine(cfg.clone()).unwrap();
            let mut slots: Vec<SlotTrace> = Vec::new();
            let stats = m.run_traced(program, &mut |slot| slots.push(slot)).unwrap();
            let threaded = run(program, &build.setup, cfg).unwrap();
            assert_eq!(stats, threaded.stats, "{label}: traced run differs from threaded");

            let sum = |f: fn(&SlotTrace) -> u64| slots.iter().map(f).sum::<u64>();
            let paired = slots.iter().filter(|s| s.v.is_some()).count() as u64;
            assert_eq!(sum(|s| s.stall_before), stats.stall_cycles, "{label}: stalls");
            assert_eq!(paired, stats.pairs, "{label}: pairs");
            assert_eq!(slots.len() as u64 - paired, stats.singles, "{label}: singles");
            assert_eq!(slots.len() as u64 + paired, stats.instructions, "{label}: instructions");
            assert_eq!(
                sum(|s| s.stall_before + s.slot_cycles + s.mispredict_penalty),
                stats.cycles,
                "{label}: cycles"
            );
        }
    }
}

/// The engines also agree on error classification (runaway-program
/// guard), not just successful runs.
#[test]
fn engines_agree_on_max_cycles_fault() {
    let p = subword_isa::asm::assemble("t", "l:\n jmp l\n halt\n").unwrap();
    let faults = ENGINES.map(|engine| {
        let cfg = MachineConfig { engine, max_cycles: 1000, ..Default::default() };
        run(&p, &TestSetup::default(), cfg).unwrap_err()
    });
    assert_eq!(faults[0], faults[1]);
    assert_eq!(faults[0], faults[2]);
}
