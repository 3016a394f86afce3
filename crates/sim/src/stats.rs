//! Run-time statistics — the simulator's replacement for the paper's
//! VTune measurements.

use std::fmt;
use std::ops::{AddAssign, Sub};

/// Counters collected over a simulation run.
///
/// All the quantities the paper's evaluation reports are derivable from
/// these: Figure 9's cycle counts and MMX-active fractions, Table 2's
/// branch statistics, and (with the compiler's report) Table 3's
/// off-loaded-permutation accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Clock cycles executed.
    pub cycles: u64,
    /// Dynamic instructions retired (excluding `halt`).
    pub instructions: u64,
    /// Dynamic MMX-unit instructions.
    pub mmx_instructions: u64,
    /// Dynamic scalar instructions (including branches).
    pub scalar_instructions: u64,
    /// Dynamic MMX realignment (pack/unpack/byte-shift/reg-move)
    /// instructions actually executed.
    pub mmx_realignments: u64,
    /// Dynamic MMX multiplies.
    pub mmx_multiplies: u64,
    /// Dynamic scalar multiplies.
    pub scalar_multiplies: u64,
    /// Branches executed (conditional and unconditional).
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Cycles lost to mispredict penalties.
    pub mispredict_cycles: u64,
    /// Cycles lost to scoreboard (result-latency) stalls.
    pub stall_cycles: u64,
    /// Extra cycles consumed by blocking scalar multiplies.
    pub imul_block_cycles: u64,
    /// Issue slots that dual-issued (U+V).
    pub pairs: u64,
    /// Issue slots that single-issued.
    pub singles: u64,
    /// Issue slots that dual-issued with MMX instructions in *both*
    /// pipes — the media-op dual-issue the scheduler orchestrates for.
    pub mmx_pairs: u64,
    /// Cycles in which at least one MMX instruction issued (the hashed
    /// portion of the paper's Figure 9 bars).
    pub mmx_active_cycles: u64,
    /// Memory loads executed.
    pub loads: u64,
    /// Memory stores executed.
    pub stores: u64,
    /// Instructions whose operands were routed by the SPU.
    pub spu_routed: u64,
    /// SPU controller steps consumed.
    pub spu_steps: u64,
    /// SPU GO activations.
    pub spu_activations: u64,
    /// Stores/loads handled by the SPU MMIO window (setup traffic).
    pub mmio_accesses: u64,
}

/// The timing-derived counters, which each pipeline model defines for
/// itself: `cycles`, `stall_cycles`, `imul_block_cycles` and the
/// per-cycle pairing/occupancy counters.
pub const TIMING_COUNTERS: [&str; 7] = [
    "cycles",
    "stall_cycles",
    "imul_block_cycles",
    "pairs",
    "singles",
    "mmx_pairs",
    "mmx_active_cycles",
];

impl SimStats {
    /// Every counter with its field name, in declaration order — the one
    /// list the report schema, the conformance `expect` keys and the
    /// field-wise arithmetic derive from.
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 22] {
        [
            ("cycles", &mut self.cycles),
            ("instructions", &mut self.instructions),
            ("mmx_instructions", &mut self.mmx_instructions),
            ("scalar_instructions", &mut self.scalar_instructions),
            ("mmx_realignments", &mut self.mmx_realignments),
            ("mmx_multiplies", &mut self.mmx_multiplies),
            ("scalar_multiplies", &mut self.scalar_multiplies),
            ("branches", &mut self.branches),
            ("mispredicts", &mut self.mispredicts),
            ("mispredict_cycles", &mut self.mispredict_cycles),
            ("stall_cycles", &mut self.stall_cycles),
            ("imul_block_cycles", &mut self.imul_block_cycles),
            ("pairs", &mut self.pairs),
            ("singles", &mut self.singles),
            ("mmx_pairs", &mut self.mmx_pairs),
            ("mmx_active_cycles", &mut self.mmx_active_cycles),
            ("loads", &mut self.loads),
            ("stores", &mut self.stores),
            ("spu_routed", &mut self.spu_routed),
            ("spu_steps", &mut self.spu_steps),
            ("spu_activations", &mut self.spu_activations),
            ("mmio_accesses", &mut self.mmio_accesses),
        ]
    }

    /// [`SimStats::counters_mut`] by value.
    pub fn counters(&self) -> [(&'static str, u64); 22] {
        let mut copy = *self;
        copy.counters_mut().map(|(name, v)| (name, *v))
    }

    /// One counter by field name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters().into_iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// The count-type fields that must be **pipeline-model invariant**:
    /// they describe *what* the program did (instruction classes, memory
    /// traffic, branch outcomes, SPU activity), not *when*, so the
    /// in-order and out-of-order models ([`crate::model`]) must agree on
    /// them bit-for-bit. The cross-model differential tests and the fuzz
    /// oracle compare exactly this set: every counter but the
    /// [`TIMING_COUNTERS`].
    ///
    /// `mispredict_cycles` qualifies even though it is measured in
    /// cycles: it is penalty × mispredict count under both models.
    pub fn model_invariant_counts(&self) -> impl Iterator<Item = (&'static str, u64)> {
        self.counters().into_iter().filter(|(name, _)| !TIMING_COUNTERS.contains(name))
    }

    /// First model-invariant count on which `self` and `other` disagree
    /// — `None` when a pipeline-model change left all counts intact, as
    /// it must.
    pub fn count_divergence(&self, other: &SimStats) -> Option<String> {
        self.model_invariant_counts()
            .zip(other.model_invariant_counts())
            .find(|(a, b)| a.1 != b.1)
            .map(|(a, b)| format!("{} differs: {} vs {}", a.0, a.1, b.1))
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of executed instructions that are MMX.
    pub fn mmx_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mmx_instructions as f64 / self.instructions as f64
        }
    }

    /// Fraction of cycles with MMX activity (Figure 9's hashed bars).
    pub fn mmx_active_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mmx_active_cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of issue slots that dual-issued — the orchestration
    /// quality signal the scheduling pass is judged by.
    pub fn pair_rate(&self) -> f64 {
        let slots = self.pairs + self.singles;
        if slots == 0 {
            0.0
        } else {
            self.pairs as f64 / slots as f64
        }
    }

    /// Mispredicted branches as a fraction of clocks — the "Missed
    /// Branches %" column of the paper's Table 2.
    pub fn miss_per_clock(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.cycles as f64
        }
    }

    /// Realignment instructions as a fraction of MMX instructions.
    pub fn realignment_fraction_of_mmx(&self) -> f64 {
        if self.mmx_instructions == 0 {
            0.0
        } else {
            self.mmx_realignments as f64 / self.mmx_instructions as f64
        }
    }
}

impl Sub for SimStats {
    type Output = SimStats;

    /// Field-wise difference — used to extract steady-state windows
    /// (`stats(K2 blocks) - stats(K1 blocks)`).
    fn sub(mut self, o: SimStats) -> SimStats {
        for ((_, a), (_, b)) in self.counters_mut().into_iter().zip(o.counters()) {
            *a -= b;
        }
        self
    }
}

impl AddAssign for SimStats {
    /// Field-wise accumulation — used by the trace replayer to apply a
    /// region's pre-counted statistics in one shot. Written out field by
    /// field rather than over [`SimStats::counters_mut`]: it runs once
    /// per trace replay.
    fn add_assign(&mut self, o: SimStats) {
        self.cycles += o.cycles;
        self.instructions += o.instructions;
        self.mmx_instructions += o.mmx_instructions;
        self.scalar_instructions += o.scalar_instructions;
        self.mmx_realignments += o.mmx_realignments;
        self.mmx_multiplies += o.mmx_multiplies;
        self.scalar_multiplies += o.scalar_multiplies;
        self.branches += o.branches;
        self.mispredicts += o.mispredicts;
        self.mispredict_cycles += o.mispredict_cycles;
        self.stall_cycles += o.stall_cycles;
        self.imul_block_cycles += o.imul_block_cycles;
        self.pairs += o.pairs;
        self.singles += o.singles;
        self.mmx_pairs += o.mmx_pairs;
        self.mmx_active_cycles += o.mmx_active_cycles;
        self.loads += o.loads;
        self.stores += o.stores;
        self.spu_routed += o.spu_routed;
        self.spu_steps += o.spu_steps;
        self.spu_activations += o.spu_activations;
        self.mmio_accesses += o.mmio_accesses;
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles            {:>12}", self.cycles)?;
        writeln!(f, "instructions      {:>12}  (ipc {:.2})", self.instructions, self.ipc())?;
        writeln!(
            f,
            "  mmx             {:>12}  ({:.1}% of instrs, {:.1}% of cycles active)",
            self.mmx_instructions,
            100.0 * self.mmx_fraction(),
            100.0 * self.mmx_active_fraction()
        )?;
        writeln!(
            f,
            "  mmx realign     {:>12}  ({:.1}% of mmx)",
            self.mmx_realignments,
            100.0 * self.realignment_fraction_of_mmx()
        )?;
        writeln!(f, "  mmx multiplies  {:>12}", self.mmx_multiplies)?;
        writeln!(f, "  scalar          {:>12}", self.scalar_instructions)?;
        writeln!(
            f,
            "branches          {:>12}  missed {} ({:.3}% of clocks)",
            self.branches,
            self.mispredicts,
            100.0 * self.miss_per_clock()
        )?;
        writeln!(
            f,
            "slots             {:>12} pairs / {} singles ({:.1}% paired, {} mmx pairs)",
            self.pairs,
            self.singles,
            100.0 * self.pair_rate(),
            self.mmx_pairs
        )?;
        writeln!(
            f,
            "stalls            {:>12} scoreboard, {} mispredict, {} imul",
            self.stall_cycles, self.mispredict_cycles, self.imul_block_cycles
        )?;
        writeln!(
            f,
            "spu               {:>12} routed / {} steps / {} activations",
            self.spu_routed, self.spu_steps, self.spu_activations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let s = SimStats {
            cycles: 1000,
            instructions: 1500,
            mmx_instructions: 600,
            mmx_realignments: 120,
            mmx_active_cycles: 500,
            mispredicts: 2,
            ..Default::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        assert!((s.mmx_fraction() - 0.4).abs() < 1e-12);
        assert!((s.mmx_active_fraction() - 0.5).abs() < 1e-12);
        assert!((s.miss_per_clock() - 0.002).abs() < 1e-12);
        assert!((s.realignment_fraction_of_mmx() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mmx_fraction(), 0.0);
        assert_eq!(s.miss_per_clock(), 0.0);
        assert_eq!(s.pair_rate(), 0.0);
    }

    #[test]
    fn pair_rate_is_paired_slot_fraction() {
        let s = SimStats { pairs: 30, singles: 10, mmx_pairs: 12, ..Default::default() };
        assert!((s.pair_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn subtraction_extracts_windows() {
        let a = SimStats { cycles: 100, instructions: 150, ..Default::default() };
        let b = SimStats { cycles: 250, instructions: 390, ..Default::default() };
        let w = b - a;
        assert_eq!(w.cycles, 150);
        assert_eq!(w.instructions, 240);
    }
}
