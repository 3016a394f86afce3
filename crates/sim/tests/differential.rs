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
//! its unscheduled form in no more cycles. Each variant also goes through
//! `verify::ooo_replay_agrees`: on the out-of-order model, the threaded
//! engine's replayed timing must equal the decoded engine's stepped
//! timing on the whole state, `OooStats` included, here and at the large
//! block count.
//!
//! Over the same suite, the issue-slot trace of `Machine::run_traced`
//! must account for the statistics of its run.

use subword_compile::verify::{
    agree, build_variants, check_references, ooo_replay_agrees, plain_lift, run, ArchState,
    TestSetup, Variant, ENGINES,
};
use subword_isa::reg::gp::{R2, R3, R4, R5};
use subword_isa::{AluOp, Cond, Mem, ProgramBuilder};
use subword_kernels::suite::{all_suites, dotprod_example};
use subword_sim::memory::MEMORY_SIZE;
use subword_sim::model::inorder::Issued;
use subword_sim::{ExecEngine, Machine, MachineConfig, PipelineKind, SimError, SimStats};
use subword_spu::mmio::{SpuMmio, SPU_MMIO_BASE};
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
                let cfg = variant.machine(&base, shape);
                let state = agree(*variant, program, &setup, &cfg)
                    .unwrap_or_else(|d| panic!("{label}: {d}"));
                ooo_replay_agrees(program, &setup, &cfg).unwrap_or_else(|d| panic!("{label}: {d}"));
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

/// Every suite kernel at its large block count, all four variants under
/// shape D: the out-of-order model's replayed timing equals its stepped
/// timing on the whole state, and replays most of each run. The replay's
/// work on the lifted FFT1024 is pinned by count: its 3-trip inner loops
/// exit through a mispredict on every trip of their outer loops, and
/// each of those redirects materialises the timing state, so the run
/// keys a materialised state 1,884 times and times 647 of its 615,354
/// instructions one at a time.
#[test]
fn ooo_replay_matches_stepping_at_large_block_count() {
    let mut entries = all_suites();
    entries.push(dotprod_example());
    for e in entries {
        let name = e.kernel.name();
        let build = e.kernel.build(e.blocks_large);
        let built = build_variants(build.program.clone(), &Variant::ALL, &SHAPE_D, &plain_lift)
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        let setup = TestSetup { outputs: vec![(0, MEMORY_SIZE)], ..build.setup.clone() };
        for (variant, program) in &built.programs {
            let label = format!("{name}/{}", variant.name());
            let cfg = variant.machine(&MachineConfig::default(), &SHAPE_D);
            let tl =
                ooo_replay_agrees(program, &setup, &cfg).unwrap_or_else(|d| panic!("{label}: {d}"));
            let share = tl.replayed_slots as f64 / (tl.replayed_slots + tl.fallback_slots) as f64;
            assert!(share > 0.5, "{label}: replayed {share:.3} of the run: {tl:?}");
            if (name, *variant) == ("FFT1024", Variant::Lifted) {
                assert_eq!((tl.rekeys, tl.fallback_slots), (1_884, 647), "{label}: {tl:?}");
                assert_eq!(tl.replayed_slots + tl.fallback_slots, 615_354, "{label}: {tl:?}");
            }
        }
    }
}

/// A register-addressed load that lands in the SPU window on every other
/// trip of a 40-trip loop, inside a region whose timing the out-of-order
/// model replays. A window access is a fence, so the two kinds of trip
/// time apart, and only the load's noted window bit tells them apart in
/// the memo's key. Each trip begins with an absolute store to a counter
/// register of context 3, which nothing arms: a barrier region, always
/// stepped, whose fence drains the timing state, so the load's region is
/// entered from the same state on every trip. No suite kernel or
/// generated case puts a window access on the replay path: they reach
/// the window only through absolute addresses, which are barriers.
#[test]
fn ooo_replay_tells_a_window_load_from_a_memory_load() {
    let counter = |c| SPU_MMIO_BASE + SpuMmio::counter_offset(3, c);
    let mut b = ProgramBuilder::new("window-load");
    b.mov_ri(R2, 40);
    b.mov_ri(R5, counter(1) as i32);
    let top = b.bind_here("top");
    b.store_imm(Mem::abs(counter(0)), 7);
    b.load(R3, Mem::base(R5));
    b.alu_rr(AluOp::Add, R4, R3);
    b.alu_ri(AluOp::Xor, R5, (counter(1) ^ 4096) as i32);
    b.alu_ri(AluOp::Sub, R2, 1);
    b.jcc(Cond::Ne, top);
    b.halt();
    let program = b.finish().unwrap();
    let cfg = MachineConfig::with_spu(SHAPE_D);
    let tl =
        ooo_replay_agrees(&program, &TestSetup::default(), &cfg).unwrap_or_else(|d| panic!("{d}"));
    assert!(tl.replays > 0, "the load's region must replay: {tl:?}");
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
            let mut slots: Vec<Issued> = Vec::new();
            let stats = m.run_traced(program, &mut |slot| slots.push(slot)).unwrap();
            let threaded = run(program, &build.setup, cfg).unwrap();
            assert_eq!(stats, threaded.stats, "{label}: traced run differs from threaded");

            let sum = |f: fn(&Issued) -> u64| slots.iter().map(f).sum::<u64>();
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
/// guard), not just successful runs. On the out-of-order model, a run
/// that replays timing faults like one that steps it, and leaves the same
/// `SimStats` and `OooStats` behind: on a 20-instruction loop whose cycle
/// limit falls inside an iteration after the memo has engaged, and on a
/// loop whose load leaves memory in its 65th iteration.
#[test]
fn engines_agree_on_max_cycles_fault() {
    let p = subword_isa::asm::assemble("t", "l:\n jmp l\n halt\n").unwrap();
    let faults = ENGINES.map(|engine| {
        let cfg = MachineConfig { engine, max_cycles: 1000, ..Default::default() };
        run(&p, &TestSetup::default(), cfg).unwrap_err()
    });
    assert_eq!(faults[0], faults[1]);
    assert_eq!(faults[0], faults[2]);

    let body = "pmullw mm0, mm1\n paddw mm2, mm0\n movq mm3, [r1]\n paddw mm3, mm2\n \
                movq [r1+8], mm3\n psllq mm4, 3\n add r2, 7\n imul r3, r2\n pxor mm5, mm4\n \
                movq mm6, [r1+8]\n paddw mm6, mm5\n punpcklwd mm7, mm6\n add r4, r3\n \
                mov [r1+16], r4\n psrlq mm1, 1\n por mm1, mm7\n";
    let mid_iteration =
        format!("mov r0, 1000\nmov r1, 256\nl:\n {body} sub r0, 1\n jnz l\n halt\n");
    let off_the_end = format!(
        "mov r0, 1000\nmov r1, 0\nl:\n {body} add r1, 0x10000\n sub r0, 1\n jnz l\n halt\n"
    );
    for (name, src, max_cycles) in
        [("mid-iteration", &mid_iteration, 777), ("load", &off_the_end, u64::MAX)]
    {
        let (err, stats) = ooo_fault_agrees(name, src, max_cycles);
        match (name, &err) {
            ("mid-iteration", &SimError::MaxCyclesExceeded { pc, .. }) => {
                assert!((3..19).contains(&pc), "{name}: the limit fell at pc {pc}")
            }
            ("load", &SimError::MemOutOfBounds { pc, addr, .. }) => {
                assert_eq!((pc, addr, stats.branches), (4, 0x40_0000, 64), "{name}")
            }
            _ => panic!("{name}: unexpected fault {err:?}"),
        }
    }
}

/// Run `src` on the out-of-order model with a `max_cycles` limit, timing
/// every instruction and replaying region timings, and require both to
/// fault alike and leave the same `SimStats` and `OooStats` after the
/// memo has replayed. Returns the error and the statistics.
fn ooo_fault_agrees(name: &str, src: &str, max_cycles: u64) -> (SimError, SimStats) {
    let ooo_fault = |engine| {
        let p = subword_isa::asm::assemble("t", src).unwrap();
        let cfg = MachineConfig {
            engine,
            pipeline: PipelineKind::OutOfOrder,
            max_cycles,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg);
        let err = m.run(&p).expect_err("the run faults");
        (err, m.stats, m.ooo, m.translation.replays)
    };
    let (err, stats, ooo, _) = ooo_fault(ExecEngine::Decoded);
    let (replay_err, replay_stats, replay_ooo, replays) = ooo_fault(ExecEngine::Threaded);
    assert!(replays > 0, "{name}: the memo never engaged");
    assert_eq!(replay_err, err, "{name}");
    assert_eq!(replay_stats, stats, "{name}");
    assert_eq!(replay_ooo, ooo, "{name}");
    (err, stats)
}

/// An FFT-shaped program: a 3-trip inner loop whose exit mispredicts on
/// every trip of a 60-trip outer loop, then a region that loads through
/// `r2` and steps it by `stride`. Each mispredict redirect moves the
/// frontier past the replayed inner exit, so the state is materialised
/// and raised there, unsettled, as stepping leaves it. Replayed and
/// stepped timing agree on the whole state, and on two faults that fall
/// in the region right after a mispredicted inner exit: a cycle limit,
/// and a load that leaves memory on the 41st outer trip, before any
/// instruction of that region is timed.
#[test]
fn ooo_replay_faults_right_after_a_mispredicted_loop_exit() {
    let fft_shaped = |base: u32, stride: u32| {
        format!(
            "mov r0, 60\nmov r2, {base}\nouter:\n mov r1, 3\ninner:\n pmullw mm0, mm1\n \
             paddw mm2, mm0\n sub r1, 1\n jnz inner\n movq mm3, [r2]\n paddw mm3, mm2\n \
             add r2, {stride}\n sub r0, 1\n jnz outer\n halt\n"
        )
    };
    // `movq mm3, [r2]`, the first instruction after the inner exit.
    const AFTER_EXIT: usize = 7;
    let src = fft_shaped(0x1000, 8);
    let p = subword_isa::asm::assemble("t", &src).unwrap();
    let cfg = MachineConfig::default();
    let tl = ooo_replay_agrees(&p, &TestSetup::default(), &cfg).unwrap_or_else(|d| panic!("{d}"));
    let stats = run(&p, &TestSetup::default(), cfg).unwrap().stats;
    assert_eq!(stats.mispredicts, 63, "60 inner exits and 3 more");
    // The region after each mispredicted inner exit keys a materialised state.
    assert_eq!(tl.rekeys, 62, "{tl:?}");

    let (err, stats) = ooo_fault_agrees("cycle limit", &src, 606);
    assert_eq!(err, SimError::MaxCyclesExceeded { pc: AFTER_EXIT, limit: 606 });
    assert_eq!(stats.mispredicts, 52, "the limit falls late in the outer loop");

    let top = MEMORY_SIZE as u32;
    let (err, stats) =
        ooo_fault_agrees("load", &fft_shaped(top - 40 * 0x1_0000, 0x1_0000), u64::MAX);
    match err {
        SimError::MemOutOfBounds { pc, addr, .. } => assert_eq!((pc, addr), (AFTER_EXIT, top)),
        _ => panic!("unexpected fault {err:?}"),
    }
    assert_eq!(stats.loads, 40, "{stats:?}");
}
