//! Simulator errors.

use std::fmt;
use subword_spu::SpuError;

/// A machine fault terminating simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Memory access outside the configured physical memory.
    MemOutOfBounds {
        /// Faulting physical address.
        addr: u32,
        /// Access width in bytes.
        size: usize,
        /// Program counter of the faulting instruction.
        pc: usize,
    },
    /// Execution ran past the end of the program without `halt`.
    NoHalt,
    /// The cycle budget was exhausted (runaway program guard).
    MaxCyclesExceeded {
        /// Program counter when the budget ran out.
        pc: usize,
        /// The configured limit.
        limit: u64,
    },
    /// An SPU programming or activation error surfaced through the
    /// memory-mapped interface.
    Spu {
        /// Program counter of the faulting store.
        pc: usize,
        /// Underlying SPU error.
        err: SpuError,
    },
    /// An SPU MMIO access was attempted but the machine has no SPU fitted.
    SpuNotFitted {
        /// Program counter of the faulting access.
        pc: usize,
    },
    /// An out-of-order run was configured with a zero-sized structure
    /// or width, which could never hold an instruction; nothing ran.
    ZeroOooParam {
        /// Name of the [`crate::OooParams`] field that is 0.
        field: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MemOutOfBounds { addr, size, pc } => {
                write!(f, "pc {pc}: {size}-byte access at {addr:#010x} out of bounds")
            }
            SimError::NoHalt => write!(f, "program ran past its end without halt"),
            SimError::MaxCyclesExceeded { pc, limit } => {
                write!(f, "pc {pc}: exceeded cycle budget of {limit}")
            }
            SimError::Spu { pc, err } => write!(f, "pc {pc}: SPU error: {err}"),
            SimError::SpuNotFitted { pc } => {
                write!(f, "pc {pc}: SPU MMIO access but no SPU fitted")
            }
            SimError::ZeroOooParam { field } => {
                write!(f, "out-of-order parameter `{field}` is 0; it must be at least 1")
            }
        }
    }
}

impl std::error::Error for SimError {}
