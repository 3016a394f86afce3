//! Static accounting of the lift on every paper kernel: lifting removes
//! realignments and never adds MMX instructions. That every kernel's
//! variants match each other and the scalar golden reference is checked
//! by `subword-sim`'s `tests/differential.rs` matrix, under all four
//! crossbar shapes.

use subword::compile::lift_permutes;
use subword::kernels::suite::paper_suite;
use subword::prelude::*;

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
