//! The generic kernels at sizes the paper does not use: the windowing,
//! padding and replication arithmetic must hold for any tap count and any
//! power-of-two FFT length, and the lifted variants must stay bit-exact.

use subword_compile::lift_permutes;
use subword_kernels::k_fft::Fft;
use subword_kernels::k_fir::Fir;
use subword_kernels::Kernel;
use subword_sim::MachineConfig;
use subword_spu::SHAPE_A;

fn check_both_variants(kernel: &dyn Kernel) {
    let build = kernel.build(2);
    build.run_checked(&build.program, MachineConfig::mmx_only(), kernel.name()).unwrap();

    let lifted = lift_permutes(&build.program, &SHAPE_A).unwrap();
    let label = format!("{}+spu", kernel.name());
    build.run_checked(&lifted.program, MachineConfig::with_spu(SHAPE_A), &label).unwrap();
}

#[test]
fn fir_arbitrary_tap_counts() {
    check_both_variants(&Fir::<4>);
    check_both_variants(&Fir::<8>);
    check_both_variants(&Fir::<16>);
    check_both_variants(&Fir::<20>);
}

#[test]
fn fir_tap_count_not_multiple_of_four() {
    // LEAD rounds up to the next group multiple; the replicated table
    // zero-pads the remainder.
    check_both_variants(&Fir::<5>);
    check_both_variants(&Fir::<10>);
    check_both_variants(&Fir::<17>);
}

#[test]
fn fft_other_power_of_two_lengths() {
    check_both_variants(&Fft::<16>);
    check_both_variants(&Fft::<64>);
    check_both_variants(&Fft::<256>);
}

#[test]
fn fft_512() {
    check_both_variants(&Fft::<512>);
}
