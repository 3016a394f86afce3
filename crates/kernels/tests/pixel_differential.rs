//! Differential test of the pixel/video kernel family: every kernel's
//! **four variants** — as-built MMX, list-scheduled MMX, SPU-lifted, and
//! scheduled SPU-lifted — run at **both** suite block scales through the
//! execution matrix (`subword_compile::verify`).
//!
//! Checks, per (kernel, variant, scale):
//!
//! * the three engines agree bit-for-bit on `SimStats`, both register
//!   files, the flags and every declared output range, and the
//!   out-of-order model on all of it but the timing (`verify::agree`);
//! * the golden scalar-reference outputs hold byte for byte;
//! * each variant matches its reference variant on its row of the
//!   exemption table (`verify::check_references`).
//!
//! This is the pixel-family counterpart of `subword-sim`'s full-suite
//! matrix: it adds the large block scale, and the byte-lane routes these
//! kernels lift (zero-extension interleaves, routed multiplier operands)
//! exercise crossbar paths the word-granular signal kernels never touch.

use subword_compile::verify::{agree, build_variants, check_references, plain_lift, Variant};
use subword_kernels::suite::pixel_suite;
use subword_sim::MachineConfig;
use subword_spu::SHAPE_A;

#[test]
fn pixel_kernels_four_variants_two_scales() {
    for e in pixel_suite() {
        for blocks in [e.blocks_small, e.blocks_large] {
            let name = e.kernel.name();
            let build = e.kernel.build(blocks);
            // Shape A routes the full byte-lane networks of every pixel
            // kernel.
            let built = build_variants(build.program.clone(), &Variant::ALL, &SHAPE_A, &plain_lift)
                .unwrap_or_else(|err| panic!("{name}: {err}"));
            assert!(
                built.report.as_ref().is_some_and(|r| r.removed_static > 0),
                "{name}: the pixel kernels must actually lift under shape A"
            );
            let mut states = Vec::new();
            for (variant, program) in &built.programs {
                let label = format!("{name}/{blocks}/{}", variant.name());
                let machine = variant.machine(&MachineConfig::default(), &SHAPE_A);
                let state = agree(*variant, program, &build.setup, &machine)
                    .unwrap_or_else(|d| panic!("{label}: {d}"));
                build.check_state(&state, &label).unwrap_or_else(|err| panic!("{err}"));
                states.push((*variant, state));
            }
            check_references(&states).unwrap_or_else(|d| panic!("{name}/{blocks}: {d}"));
        }
    }
}

/// At least two pixel kernels must lift loops into SPU programs (the
/// family's headline claim), and every lift preserves dynamic multiply
/// counts — routing moves bytes, never arithmetic.
#[test]
fn lift_coverage_across_the_family() {
    let mut lifted_kernels = 0;
    for e in pixel_suite() {
        let name = e.kernel.name();
        let base = e.kernel.build(e.blocks_small);
        let lifted = subword_compile::lift_permutes(&base.program, &SHAPE_A).unwrap();
        if !lifted.spu_programs.is_empty() {
            lifted_kernels += 1;
        }
        let [mmx, spu] = [(Variant::Baseline, &base.program), (Variant::Lifted, &lifted.program)]
            .map(|(variant, program)| {
                let machine = variant.machine(&MachineConfig::default(), &SHAPE_A);
                let label = format!("{name}/{}", variant.name());
                base.run_checked(program, machine, &label).unwrap()
            });
        assert_eq!(
            mmx.stats.mmx_multiplies, spu.stats.mmx_multiplies,
            "{name}: lifting must not change dynamic multiply counts"
        );
    }
    assert!(lifted_kernels >= 2, "only {lifted_kernels} pixel kernels lift under shape A");
}
