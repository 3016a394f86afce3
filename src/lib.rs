//! # subword
//!
//! A full reproduction of **"Efficient Orchestration of Sub-Word
//! Parallelism in Media Processors"** (John Oliver, Venkatesh Akella,
//! Frederic Chong — SPAA 2004) as a Rust workspace: the Sub-word
//! Permutation Unit (SPU), the Pentium-MMX machine it plugs into, the
//! compiler pass that programs it, the silicon-cost models, and the eight
//! media kernels of the paper's evaluation.
//!
//! ## Crates
//!
//! * [`isa`] — MMX + scalar instruction set, packed semantics, program
//!   IR, builder DSL, text assembler, code-size model.
//! * [`spu`] — the paper's contribution: unified 64-byte register view,
//!   crossbar interconnect (Table 1 shapes A–D), decoupled 128-state
//!   controller with zero-overhead loop counters, memory-mapped
//!   programming interface, multi-context support.
//! * [`sim`] — cycle-level dual-pipe (U/V) simulator with the published
//!   MMX pairing rules, branch prediction, and SPU operand routing.
//! * [`hw`] — crossbar area/delay and control-memory models calibrated
//!   against Table 1; technology scaling; die-overhead accounting.
//! * [`compile`] — automatic SPU code generation: byte-provenance
//!   chains, realignment lifting, loop-counter allocation, differential
//!   verification.
//! * [`kernels`] — the Figure 9 suite (FIR12/22, IIR, FFT1024/128, DCT,
//!   matrix multiply, matrix transpose) plus the Figure 5 dot-product,
//!   each with a bit-exact scalar reference.
//!
//! ## Quick start
//!
//! ```
//! use subword::prelude::*;
//!
//! // The paper's Figure 7 SPU program: a three-state loop whose first
//! // two states route the dot-product multiplier operands.
//! let op_a = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
//! let op_b = ByteRoute::from_reg_words([(MM0, 2), (MM1, 2), (MM0, 3), (MM1, 3)]);
//! let prog = SpuProgram::single_loop(
//!     "dot",
//!     &[(Some(op_a), Some(op_b)), (Some(op_a), Some(op_b)), (None, None)],
//!     10,
//! );
//! assert_eq!(prog.counter_init[0], 30); // the paper's 10 × 3
//! assert!(prog.validate(&SHAPE_D).is_ok()); // fits the smallest crossbar
//! ```
//!
//! Reproduce the evaluation (every table and figure, printed from one
//! sweep in one process):
//!
//! ```text
//! cargo run --release -p subword-bench --bin all
//! ```

pub use subword_compile as compile;
pub use subword_hw as hw;
pub use subword_isa as isa;
pub use subword_kernels as kernels;
pub use subword_sim as sim;
pub use subword_spu as spu;

/// The most commonly used items in one import.
pub mod prelude {
    pub use subword_compile::{differential, lift_permutes, TestSetup};
    pub use subword_isa::builder::ProgramBuilder;
    pub use subword_isa::mem::Mem;
    pub use subword_isa::op::{AluOp, Cond, MmxOp};
    pub use subword_isa::reg::gp::*;
    pub use subword_isa::reg::MmReg::*;
    pub use subword_isa::{Instr, Program};
    pub use subword_sim::{Machine, MachineConfig, SimStats};
    pub use subword_spu::mmio::{emit_spu_go, emit_spu_setup};
    pub use subword_spu::{
        ByteRoute, CrossbarShape, SpuProgram, SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D,
    };
}
