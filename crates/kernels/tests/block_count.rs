//! The block count is a run input: every kernel builds one program at
//! every block count, and its setups differ only in the block register.
//! The sweep's compile cache hands a job's first lift to its second
//! block count on exactly this property.

use subword_isa::reg::GpReg;
use subword_kernels::framework::{block_count, BLOCKS};
use subword_kernels::k_fft::Fft;
use subword_kernels::k_fir::Fir;
use subword_kernels::suite::{all_suites, dotprod_example};
use subword_kernels::{Kernel, KernelBuild};

/// A build's initial registers other than the block register.
fn other_regs(build: &KernelBuild) -> Vec<(GpReg, u32)> {
    build.setup.reg_init.iter().copied().filter(|(r, _)| *r != BLOCKS).collect()
}

fn assert_block_count_is_an_input(kernel: &dyn Kernel, small: u64, large: u64) {
    let name = kernel.name();
    let (a, b) = (kernel.build(small), kernel.build(large));
    assert_eq!(a.program, b.program, "{name}: the program depends on the block count");
    for (build, blocks) in [(&a, small), (&b, large)] {
        let set: Vec<_> = build.setup.reg_init.iter().filter(|(r, _)| *r == BLOCKS).collect();
        assert_eq!(set, [&block_count(blocks)], "{name}: block register at {blocks} blocks");
    }
    assert_eq!(other_regs(&a), other_regs(&b), "{name}: other registers");
    assert_eq!(a.setup.mem_init, b.setup.mem_init, "{name}: memory image");
    assert_eq!(a.setup.mm_init, b.setup.mm_init, "{name}: MMX registers");
    assert_eq!(a.setup.outputs, b.setup.outputs, "{name}: output ranges");
}

#[test]
fn suite_kernels_build_one_program_at_every_block_count() {
    let mut entries = all_suites();
    entries.push(dotprod_example());
    for e in entries {
        assert_block_count_is_an_input(e.kernel, e.blocks_small, e.blocks_large);
    }
}

#[test]
fn generic_sizes_build_one_program_at_every_block_count() {
    let kernels: [&dyn Kernel; 11] = [
        &Fir::<4>,
        &Fir::<5>,
        &Fir::<8>,
        &Fir::<10>,
        &Fir::<16>,
        &Fir::<17>,
        &Fir::<20>,
        &Fft::<16>,
        &Fft::<64>,
        &Fft::<256>,
        &Fft::<512>,
    ];
    for kernel in kernels {
        assert_block_count_is_an_input(kernel, 1, 3);
    }
}
