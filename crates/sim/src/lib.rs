//! # subword-sim
//!
//! A cycle-level simulator of the paper's evaluation machine: a Pentium
//! with the MMX media co-processor (P55C), optionally augmented with the
//! Sub-word Permutation Unit.
//!
//! The pipeline model implements the published MMX issue rules (paper §2):
//!
//! * two pipes, **U** and **V**; both execute arithmetic and logic;
//! * only one instruction of a pair may be a **multiply** (single MMX
//!   multiplier; three-cycle pipelined latency);
//! * only one instruction of a pair may be a **shift/pack/unpack**
//!   (single shifter unit);
//! * instructions that access **memory** use the U pipe;
//! * the pair must not write the same destination and must have **no
//!   RAW/WAR dependencies** between the pipes;
//! * a branch may only occupy the V pipe (i.e. be the second of a pair).
//!
//! Scalar `imul` is long-latency and unpairable (the Pentium integer
//! multiplier blocks the pipe), which is what makes the recurrence-bound
//! IIR and the scalar-heavy FFT kernels insensitive to MMX-side
//! improvements — the effect the paper's Figure 9 shows.
//!
//! Branches are predicted by a Pentium-style BTB with 2-bit saturating
//! counters ([`branch`]); the mispredict penalty grows by one cycle when
//! the SPU pipe stage is fitted (paper §5.1).
//!
//! The SPU hooks in at **operand fetch**: while the controller's GO bit is
//! set, every issued instruction advances the controller by one state and
//! MMX instructions have their register operands routed through the
//! crossbar from the unified register view ([`machine::Machine`]).

pub mod branch;
pub mod decode;
pub mod error;
pub mod machine;
pub mod memory;
pub mod model;
pub mod regfile;
pub mod stats;
pub mod translate;

// The issue-rule and pairing modules moved under the pipeline-model
// layer; these aliases keep the long-standing `subword_sim::issue` /
// `subword_sim::pipeline` paths (used heavily by the compiler) valid.
pub use model::{issue, pipeline};

pub use error::SimError;
pub use machine::{ExecEngine, Machine, MachineConfig};
pub use memory::Memory;
pub use model::{OooStats, PipelineKind};
pub use stats::SimStats;
