//! # subword-spu
//!
//! The **Sub-word Permutation Unit** (SPU) of Oliver, Akella & Chong,
//! *"Efficient Orchestration of Sub-Word Parallelism in Media Processors"*
//! (SPAA 2004) — the paper's primary contribution.
//!
//! The SPU sits between the register file and the MMX functional units and
//! consists of three parts (paper §3, Figure 4):
//!
//! * the **SPU register** — a unified 512-bit (64-byte) view over the eight
//!   MMX registers, making every sub-word in the file addressable and thus
//!   removing *inter-word* restrictions (the simulator's
//!   `RegFile::spu_view`; routes read it as [`crossbar::FILE_BYTES`] bytes);
//! * the **SPU interconnect** — a byte- or 16-bit-granular crossbar routing
//!   any visible sub-word to any operand lane of the MMX pipes, removing
//!   *intra-word* restrictions ([`crossbar`]; the four configurations of the
//!   paper's Table 1 are [`crossbar::SHAPE_A`] through [`crossbar::SHAPE_D`]);
//! * the **SPU controller** — a decoupled, 128-state, horizontally
//!   micro-programmed state machine with two zero-overhead loop counters
//!   that steps once per dynamic instruction and selects the crossbar
//!   configuration for that instruction ([`controller`], [`microcode`]).
//!
//! The controller is programmed through memory-mapped control registers
//! ([`mmio`]) or host-side via [`program::SpuProgram`]. State 127 is the
//! idle state: reaching it clears the GO bit and re-initialises the
//! counters (paper §4).

pub mod controller;
pub mod crossbar;
pub mod microcode;
pub mod mmio;
pub mod program;

pub use controller::{SpuController, StepRouting};
pub use crossbar::{ByteRoute, CrossbarShape, SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D};
pub use microcode::{SpuState, IDLE_STATE, NUM_STATES};
pub use program::{SpuError, SpuProgram};
