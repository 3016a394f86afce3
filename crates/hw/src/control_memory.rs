//! Control-memory (micro-code store) sizing.
//!
//! The paper: *"The control memory size in our implementation is given by a
//! simple formula 128*(15+K) where K is the number of addressable
//! locations"* — `K` being the interconnect select field width
//! (`out_ports × log2(in_ports)`, see
//! [`subword_spu::microcode::control_memory_bits`]).
//!
//! Solving Table 1's four published control-memory areas against their bit
//! counts gives ≈ 50 µm²/bit, a plausible 0.25 µm 6-T SRAM macro density;
//! that single coefficient reproduces all four areas within 12 %
//! (the B row is the outlier — the paper's own numbers are round).

use subword_spu::crossbar::CrossbarShape;
use subword_spu::microcode::control_memory_bits;

/// SRAM-macro area model for the controller's micro-code store.
#[derive(Clone, Copy, Debug)]
pub struct ControlMemoryModel {
    /// mm² per bit of control memory.
    pub mm2_per_bit: f64,
}

impl Default for ControlMemoryModel {
    fn default() -> Self {
        Self::CALIBRATED_025UM
    }
}

impl ControlMemoryModel {
    /// Calibrated against Table 1 (0.25 µm).
    pub const CALIBRATED_025UM: ControlMemoryModel = ControlMemoryModel { mm2_per_bit: 50e-6 };

    /// Bits of control memory for one context of the controller.
    pub fn bits(&self, shape: &CrossbarShape) -> u32 {
        control_memory_bits(shape)
    }

    /// Control-memory area for `contexts` copies of the control registers
    /// (paper §3: "Additional contexts of the SPU control registers would
    /// cost additional area").
    pub fn area_mm2(&self, shape: &CrossbarShape, contexts: usize) -> f64 {
        self.bits(shape) as f64 * contexts as f64 * self.mm2_per_bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::CrossbarModel;
    use subword_spu::crossbar::CANONICAL_SHAPES;

    #[test]
    fn bit_counts_follow_paper_formula() {
        let m = ControlMemoryModel::default();
        let shapes = CANONICAL_SHAPES;
        assert_eq!(m.bits(&shapes[0]), 128 * (15 + 192));
        assert_eq!(m.bits(&shapes[1]), 128 * (15 + 160));
        assert_eq!(m.bits(&shapes[2]), 128 * (15 + 80));
        assert_eq!(m.bits(&shapes[3]), 128 * (15 + 64));
    }

    #[test]
    fn single_context_areas_near_table1() {
        let m = ControlMemoryModel::default();
        for s in CANONICAL_SHAPES {
            let paper = CrossbarModel::paper_point(&s).unwrap().control_mem_mm2;
            let model = m.area_mm2(&s, 1);
            let res = ((model - paper) / paper).abs();
            assert!(
                res < 0.15,
                "shape {}: model {model:.3} mm² vs paper {paper:.3} mm² ({:.0}% off)",
                s.name,
                100.0 * res
            );
        }
    }

    #[test]
    fn contexts_scale_linearly() {
        let m = ControlMemoryModel::default();
        let s = CANONICAL_SHAPES[3];
        assert!((m.area_mm2(&s, 4) / m.area_mm2(&s, 1) - 4.0).abs() < 1e-12);
    }
}
