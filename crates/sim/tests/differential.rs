//! Differential test of the **three** execution engines and the two
//! pipeline models over the full kernel suite, driven through the
//! execution matrix (`subword_compile::verify`):
//!
//! * [`ExecEngine::Reference`] — the allocating `Vec<RegRef>` oracle,
//! * [`ExecEngine::Decoded`] — the predecoded, mask-based stepper,
//! * [`ExecEngine::Threaded`] — the trace-translated replayer,
//!
//! in every machine variant the suite exercises:
//!
//! * MMX-only baseline programs, plus their list-scheduled forms;
//! * SPU-lifted programs (compiled by `subword-compile`, so the runs
//!   exercise routed operand fetch, GO serialisation, the dynamic
//!   mask-based pairing path and trace invalidation around MMIO
//!   barriers) under shapes A–D, both unscheduled and scheduled.
//!
//! Every run must produce the golden kernel outputs. The engines must
//! agree **bit-for-bit** on the whole state — `SimStats`, both register
//! files, flags and all of memory; the in-order and out-of-order models
//! on all of it except the timing statistics. Any divergence indicts
//! the predecode layer, the mask-based hazard checks, the trace
//! translator's pre-resolved issue schedules or the out-of-order model.

use subword_compile::verify::{
    build_variants, compare, plain_lift, run, ArchState, Compared, TestSetup, Variant, ENGINES,
};
use subword_isa::program::Program;
use subword_kernels::framework::KernelBuild;
use subword_kernels::suite::{all_suites, dotprod_example};
use subword_sim::{MachineConfig, PipelineKind};
use subword_spu::{CrossbarShape, SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D};

/// Run `program` (a variant of `build`'s) under `cfg`, check the goldens
/// and capture the whole state, all of memory included.
fn run_checked(
    build: &KernelBuild,
    program: &Program,
    cfg: MachineConfig,
    label: &str,
) -> ArchState {
    let setup = TestSetup { outputs: vec![(0, cfg.memory_size)], ..build.setup.clone() };
    let state = run(program, &setup, cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
    build.check_state(&state, label).unwrap_or_else(|e| panic!("golden mismatch: {e}"));
    state
}

/// For every suite kernel, each of `variants` with its machine under
/// `shape`: `check(build, program, machine, label)`.
fn for_each_variant(
    shape: &CrossbarShape,
    variants: &[Variant],
    check: impl Fn(&KernelBuild, &Program, &MachineConfig, &str),
) {
    let mut entries = all_suites();
    entries.push(dotprod_example());
    for e in entries {
        let build = e.kernel.build(e.blocks_small);
        let built = build_variants(build.program.clone(), variants, shape, &plain_lift)
            .unwrap_or_else(|err| panic!("{}: {err}", e.kernel.name()));
        for (variant, program) in &built.programs {
            let machine = variant.machine(&MachineConfig::default(), shape);
            let label = format!("{}/{}-{}", e.kernel.name(), variant.name(), shape.name);
            check(&build, program, &machine, &label);
        }
    }
}

fn assert_engines_agree(build: &KernelBuild, program: &Program, cfg: &MachineConfig, label: &str) {
    let states = ENGINES
        .map(|engine| run_checked(build, program, MachineConfig { engine, ..cfg.clone() }, label));
    for (engine, state) in ENGINES.iter().zip(&states).skip(1) {
        if let Some(diff) = compare(&states[0], state, Compared::All) {
            panic!("{label}: Reference vs {engine:?}: {diff}");
        }
    }
}

/// Architectural state, all of memory and golden outputs must be
/// bit-identical between the in-order and out-of-order pipeline models;
/// every model-invariant count must match too. Only the timing
/// statistics may differ.
fn assert_models_agree(build: &KernelBuild, program: &Program, cfg: &MachineConfig, label: &str) {
    let [inorder, ooo] = [PipelineKind::InOrder, PipelineKind::OutOfOrder].map(|pipeline| {
        run_checked(build, program, MachineConfig { pipeline, ..cfg.clone() }, label)
    });
    if let Some(diff) = compare(&inorder, &ooo, Compared::Counts) {
        panic!("{label}: in-order vs ooo: {diff}");
    }
}

const BASELINES: [Variant; 2] = [Variant::Baseline, Variant::Scheduled];
const LIFTED: [Variant; 2] = [Variant::Lifted, Variant::ScheduledLifted];

/// MMX-only baseline: every suite kernel, all three engines, in both the
/// builder's emission order and the list-scheduled order.
#[test]
fn baseline_suite_engines_agree() {
    for_each_variant(&SHAPE_A, &BASELINES, assert_engines_agree);
}

/// SPU-lifted variants under shapes A–D, unscheduled and scheduled: the
/// runs route operands through the crossbar, so the dynamic (mask-based)
/// pairing/scoreboard paths and the translator's routing-walk signatures
/// are exercised, not just the straight-routing fast path.
#[test]
fn spu_suite_engines_agree() {
    for shape in [SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D] {
        for_each_variant(&shape, &LIFTED, assert_engines_agree);
    }
}

/// Pipeline-model differential, MMX-only baseline: every suite kernel,
/// emission order and list-scheduled, in-order vs out-of-order.
#[test]
fn baseline_suite_pipeline_models_agree() {
    for_each_variant(&SHAPE_A, &BASELINES, assert_models_agree);
}

/// Pipeline-model differential, SPU-lifted variants under shapes A–D:
/// the out-of-order model must drive the SPU controller through the
/// identical trajectory (routing happens at the functional issue, which
/// is program order under both models).
#[test]
fn spu_suite_pipeline_models_agree() {
    for shape in [SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D] {
        for_each_variant(&shape, &LIFTED, assert_models_agree);
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
