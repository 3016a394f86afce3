//! Crossbar area and delay model.
//!
//! ## Area
//!
//! A folded crossbar (the Princeton VSP layout style the paper cites) is
//! dominated by two components:
//!
//! * the **wiring grid** — input wires crossing output wires:
//!   `A_grid = c_grid × (in_ports · port_bits) × (out_ports · port_bits)`;
//! * the **crosspoint switches** — one pass-gate group per
//!   (input port, output port) pair, `port_bits` wide:
//!   `A_xp = c_xp × in_ports × out_ports × port_bits`.
//!
//! Fitting the two coefficients to the paper's four published
//! configurations gives `c_grid = 9.9e-6 mm²/wire²` and
//! `c_xp = 4.17e-4 mm²/switch-bit`, which reproduces all four Table 1
//! areas within 1 % (see the `calibration` tests).
//!
//! ## Delay
//!
//! The published delays do not follow a single physical term; a
//! three-parameter fit `t = α·port_bits + β·log2(in_ports) + γ` (select
//! fan-in depth dominates; wider ports slightly shorten the decode path)
//! reproduces Table 1 within 8 %. Both the analytic value and the
//! published calibration points are exposed so harnesses can print
//! *paper vs model* side by side.

use subword_spu::crossbar::CrossbarShape;

/// Fitted coefficients for the 0.25 µm, 2-metal process of the paper.
#[derive(Clone, Copy, Debug)]
pub struct CrossbarModel {
    /// mm² per (input wire × output wire) of the wiring grid.
    pub c_grid: f64,
    /// mm² per crosspoint switch bit.
    pub c_xp: f64,
    /// ns per bit of port width (negative: wider ports need fewer select
    /// levels per delivered bit).
    pub t_width: f64,
    /// ns per doubling of input ports (select tree depth).
    pub t_fanin: f64,
    /// ns constant (drivers, sense).
    pub t_const: f64,
}

impl Default for CrossbarModel {
    fn default() -> Self {
        Self::CALIBRATED_025UM
    }
}

/// A published Table 1 row for comparison printing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperPoint {
    /// Shape name ("A".."D").
    pub shape: &'static str,
    /// Interconnect area, mm².
    pub area_mm2: f64,
    /// Interconnect delay, ns.
    pub delay_ns: f64,
    /// Control memory size, mm².
    pub control_mem_mm2: f64,
}

/// The paper's Table 1 (0.25 µm, 2-metal CMOS).
// Shape A's published delay happens to read 3.14 ns — data, not π.
#[allow(clippy::approx_constant)]
pub const TABLE1: [PaperPoint; 4] = [
    PaperPoint { shape: "A", area_mm2: 8.14, delay_ns: 3.14, control_mem_mm2: 1.35 },
    PaperPoint { shape: "B", area_mm2: 4.07, delay_ns: 2.29, control_mem_mm2: 1.1 },
    PaperPoint { shape: "C", area_mm2: 4.72, delay_ns: 1.95, control_mem_mm2: 0.6 },
    PaperPoint { shape: "D", area_mm2: 2.36, delay_ns: 0.95, control_mem_mm2: 0.5 },
];

impl CrossbarModel {
    /// Coefficients calibrated against Table 1 in the 0.25 µm 2-metal
    /// process.
    pub const CALIBRATED_025UM: CrossbarModel = CrossbarModel {
        c_grid: 9.9e-6,
        c_xp: 4.17e-4,
        t_width: -0.0425,
        t_fanin: 0.925,
        t_const: -1.995,
    };

    /// Wiring-grid area term in mm².
    pub fn grid_area(&self, s: &CrossbarShape) -> f64 {
        let in_wires = s.in_ports as f64 * s.port_bits as f64;
        let out_wires = s.out_ports as f64 * s.port_bits as f64;
        self.c_grid * in_wires * out_wires
    }

    /// Crosspoint-switch area term in mm².
    pub fn crosspoint_area(&self, s: &CrossbarShape) -> f64 {
        self.c_xp * s.in_ports as f64 * s.out_ports as f64 * s.port_bits as f64
    }

    /// Total interconnect area in mm² (0.25 µm, 2-metal).
    pub fn area_mm2(&self, s: &CrossbarShape) -> f64 {
        self.grid_area(s) + self.crosspoint_area(s)
    }

    /// Interconnect delay in ns (0.25 µm, 2-metal).
    pub fn delay_ns(&self, s: &CrossbarShape) -> f64 {
        let fanin = (s.in_ports as f64).log2();
        (self.t_width * s.port_bits as f64 + self.t_fanin * fanin + self.t_const).max(0.1)
    }

    /// The published Table 1 row for a canonical shape, if any.
    pub fn paper_point(s: &CrossbarShape) -> Option<&'static PaperPoint> {
        TABLE1.iter().find(|p| p.shape == s.name)
    }

    /// Relative model error versus the published area for a canonical
    /// shape.
    pub fn area_residual(&self, s: &CrossbarShape) -> Option<f64> {
        Self::paper_point(s).map(|p| (self.area_mm2(s) - p.area_mm2) / p.area_mm2)
    }

    /// Relative model error versus the published delay.
    pub fn delay_residual(&self, s: &CrossbarShape) -> Option<f64> {
        Self::paper_point(s).map(|p| (self.delay_ns(s) - p.delay_ns) / p.delay_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_spu::crossbar::{CANONICAL_SHAPES, SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D};

    #[test]
    fn area_reproduces_table1_within_one_percent() {
        let m = CrossbarModel::default();
        for s in CANONICAL_SHAPES {
            let res = m.area_residual(&s).unwrap().abs();
            assert!(
                res < 0.01,
                "shape {} area {:.3} vs paper {:.3} ({:.1}% off)",
                s.name,
                m.area_mm2(&s),
                CrossbarModel::paper_point(&s).unwrap().area_mm2,
                100.0 * res
            );
        }
    }

    #[test]
    fn delay_reproduces_table1_within_ten_percent() {
        let m = CrossbarModel::default();
        for s in CANONICAL_SHAPES {
            let res = m.delay_residual(&s).unwrap().abs();
            assert!(
                res < 0.10,
                "shape {} delay {:.3} vs paper {:.3} ({:.1}% off)",
                s.name,
                m.delay_ns(&s),
                CrossbarModel::paper_point(&s).unwrap().delay_ns,
                100.0 * res
            );
        }
    }

    #[test]
    fn halving_inputs_halves_grid_area() {
        // Table 1 structure: A (64x32) is exactly twice B (32x32) in both
        // grid and crosspoint terms.
        let m = CrossbarModel::default();
        assert!((m.area_mm2(&SHAPE_A) / m.area_mm2(&SHAPE_B) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wider_ports_trade_grid_for_crosspoints() {
        // C reaches the whole file like A (same wire count) but with 16-bit
        // ports: same grid term, half the crosspoint bits of A.
        let m = CrossbarModel::default();
        assert!((m.grid_area(&SHAPE_A) - m.grid_area(&SHAPE_C)).abs() < 1e-9);
        assert!((m.crosspoint_area(&SHAPE_A) / m.crosspoint_area(&SHAPE_C) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ordering_matches_paper() {
        // Area: A > C > B > D; delay: A > B > C > D.
        let m = CrossbarModel::default();
        let a = |s: &CrossbarShape| m.area_mm2(s);
        let d = |s: &CrossbarShape| m.delay_ns(s);
        assert!(a(&SHAPE_A) > a(&SHAPE_C));
        assert!(a(&SHAPE_C) > a(&SHAPE_B));
        assert!(a(&SHAPE_B) > a(&SHAPE_D));
        assert!(d(&SHAPE_A) > d(&SHAPE_B));
        assert!(d(&SHAPE_B) > d(&SHAPE_C));
        assert!(d(&SHAPE_C) > d(&SHAPE_D));
    }

    #[test]
    fn delay_never_negative() {
        let m = CrossbarModel::default();
        let tiny = CrossbarShape { name: "tiny", in_ports: 2, out_ports: 2, port_bits: 16 };
        assert!(m.delay_ns(&tiny) > 0.0);
    }
}
