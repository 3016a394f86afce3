//! Differential equivalence of every kernel: the lifted (SPU) variant
//! must produce byte-identical outputs to the MMX-only variant *and* to
//! the scalar golden reference, under both the full and the minimal
//! crossbar shapes.

use subword::compile::lift_permutes;
use subword::kernels::suite::{dotprod_example, paper_suite};
use subword::prelude::*;

#[test]
fn all_kernels_match_reference_on_both_variants_and_shapes() {
    let mut entries = paper_suite();
    entries.push(dotprod_example());
    for e in entries {
        let base = e.kernel.build(2);
        base.run_checked(&base.program, MachineConfig::mmx_only(), e.kernel.name()).unwrap();
        for shape in [SHAPE_A, SHAPE_D] {
            let lifted = lift_permutes(&base.program, &shape)
                .unwrap_or_else(|err| panic!("{}: {err}", e.kernel.name()));
            let label = format!("{}+spu/{}", e.kernel.name(), shape.name);
            base.run_checked(&lifted.program, MachineConfig::with_spu(shape), &label).unwrap();
        }
    }
}

#[test]
fn lifted_programs_remove_realignments_without_adding_mmx() {
    for e in paper_suite() {
        let base = e.kernel.build(1);
        let lifted = lift_permutes(&base.program, &SHAPE_A).unwrap();
        let mix_before = base.program.static_mix();
        let mix_after = lifted.program.static_mix();
        assert!(mix_after.mmx <= mix_before.mmx, "{}: MMX count grew", e.kernel.name());
        assert_eq!(
            mix_before.mmx - mix_after.mmx,
            lifted.report.removed_static,
            "{}: removal accounting",
            e.kernel.name()
        );
        // Setup stores are scalar, not MMX.
        assert!(mix_after.total > mix_before.total - lifted.report.removed_static);
    }
}
