//! SPU controller micro-code: the horizontal program word of paper
//! Figure 6 and its binary encoding.
//!
//! Each of the 128 controller states holds:
//!
//! * `CNTRx` — which of the two zero-overhead loop counters this state
//!   decrements (1 bit);
//! * the interconnect output field — source selectors for the operand
//!   lanes (the paper's `K`-bit field; 192 bits for shape A);
//! * `NextState0` — successor when the selected counter reaches zero
//!   (7 bits);
//! * `NextState1` — successor otherwise (7 bits).
//!
//! The paper's control-memory sizing formula `128 × (15 + K)` is exposed as
//! [`control_memory_bits`]: 15 = 1 (CNTRx) + 7 + 7 (next-state fields).
//!
//! Those four fields are the whole word. Paper §6 names operand modes as
//! a possible extension (*"additional modes could be added to the SPU,
//! like sign extension, negation, or even more complex operations"*);
//! the evaluated SPU has none, and neither does this one: a routed
//! operand reaches the functional unit exactly as the crossbar gathered
//! it.
//!
//! For the memory-mapped interface each state is serialised to four 64-bit
//! words ([`SpuState::encode_words`] / [`SpuState::decode_words`]); this is
//! a software transport format, distinct from the hardware bit-width
//! accounting above.

use crate::crossbar::{ByteRoute, CrossbarShape};

/// Number of controller states.
pub const NUM_STATES: usize = 128;

/// The reserved idle state: *"State 127 in the SPU controller is a special
/// idle state - when the control reaches this state the SPU is
/// automatically disabled and the counters are reset to their initial
/// values"* (paper §4).
pub const IDLE_STATE: u8 = 127;

/// One horizontal micro-code word (paper Figure 6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpuState {
    /// Which counter this state decrements (0 or 1).
    pub cntr: u8,
    /// Routing for the first operand lane (the destination-as-source read
    /// of a two-operand MMX instruction); `None` = straight.
    pub route_a: Option<ByteRoute>,
    /// Routing for the second operand lane; `None` = straight.
    pub route_b: Option<ByteRoute>,
    /// Successor when the selected counter reaches zero.
    pub next0: u8,
    /// Successor otherwise.
    pub next1: u8,
}

impl Default for SpuState {
    /// A "straight" state that parks the controller in idle.
    fn default() -> Self {
        SpuState { cntr: 0, route_a: None, route_b: None, next0: IDLE_STATE, next1: IDLE_STATE }
    }
}

impl SpuState {
    /// A state with straight (identity) routing.
    pub fn straight(cntr: u8, next0: u8, next1: u8) -> SpuState {
        SpuState { cntr, next0, next1, ..Default::default() }
    }

    /// A state with explicit operand routing.
    pub fn routed(
        cntr: u8,
        route_a: Option<ByteRoute>,
        route_b: Option<ByteRoute>,
        next0: u8,
        next1: u8,
    ) -> SpuState {
        SpuState { cntr, route_a, route_b, next0, next1 }
    }

    /// True if either operand lane is routed.
    pub fn routes_anything(&self) -> bool {
        self.route_a.is_some() || self.route_b.is_some()
    }

    /// Serialise to the four-word MMIO transport format.
    ///
    /// * word 0: bit 0 = CNTRx; bits 8..15 = next0; bits 16..23 = next1;
    ///   bit 24 = route A present; bit 25 = route B present. Every other
    ///   bit, 26..31 among them, is reserved: zero here, ignored by
    ///   [`SpuState::decode_words`].
    /// * word 1: route A byte selectors (selector `i` in bits `8i..8i+8`).
    /// * word 2: route B byte selectors.
    /// * word 3: reserved (zero here, ignored on decode).
    pub fn encode_words(&self) -> [u64; 4] {
        let mut w0 = (self.cntr as u64 & 1) | (self.next0 as u64) << 8 | (self.next1 as u64) << 16;
        let mut w1 = 0u64;
        let mut w2 = 0u64;
        if let Some(r) = self.route_a {
            w0 |= 1 << 24;
            w1 = u64::from_le_bytes(r.0);
        }
        if let Some(r) = self.route_b {
            w0 |= 1 << 25;
            w2 = u64::from_le_bytes(r.0);
        }
        [w0, w1, w2, 0]
    }

    /// Deserialise from the four-word MMIO transport format. Reserved
    /// bits and word 3 do not affect the result.
    pub fn decode_words(w: [u64; 4]) -> SpuState {
        let cntr = (w[0] & 1) as u8;
        let next0 = ((w[0] >> 8) & 0x7f) as u8;
        let next1 = ((w[0] >> 16) & 0x7f) as u8;
        let route_a =
            if w[0] & (1 << 24) != 0 { Some(ByteRoute(w[1].to_le_bytes())) } else { None };
        let route_b =
            if w[0] & (1 << 25) != 0 { Some(ByteRoute(w[2].to_le_bytes())) } else { None };
        SpuState { cntr, route_a, route_b, next0, next1 }
    }

    /// Hardware width of one micro-word for a given interconnect shape:
    /// `15 + K` bits (the paper's formula).
    pub fn hw_bits(shape: &CrossbarShape) -> u32 {
        15 + shape.control_bits()
    }
}

/// The paper's control-memory sizing formula: `128 × (15 + K)` bits, where
/// `K` is the interconnect control field width of the shape.
pub fn control_memory_bits(shape: &CrossbarShape) -> u32 {
    NUM_STATES as u32 * SpuState::hw_bits(shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::{SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D};
    use subword_isa::reg::MmReg::*;

    /// Figure 6: one state word for the full configuration is
    /// 1 + 192 + 7 + 7 = 207 bits; control memory is 128 such words.
    #[test]
    fn microcode_word_width_matches_figure6() {
        assert_eq!(SpuState::hw_bits(&SHAPE_A), 15 + 192);
        assert_eq!(control_memory_bits(&SHAPE_A), 128 * 207);
    }

    /// Table 1's four control-memory sizes follow `128*(15+K)`.
    #[test]
    fn control_memory_formula_all_shapes() {
        assert_eq!(control_memory_bits(&SHAPE_A), 128 * (15 + 192));
        assert_eq!(control_memory_bits(&SHAPE_B), 128 * (15 + 160));
        assert_eq!(control_memory_bits(&SHAPE_C), 128 * (15 + 80));
        assert_eq!(control_memory_bits(&SHAPE_D), 128 * (15 + 64));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cases = [
            SpuState::default(),
            SpuState::straight(1, 5, 6),
            SpuState::routed(0, Some(ByteRoute::identity(MM3)), None, IDLE_STATE, 2),
            SpuState::routed(
                1,
                Some(ByteRoute([0, 1, 8, 9, 2, 3, 10, 11])),
                Some(ByteRoute([4, 5, 12, 13, 6, 7, 14, 15])),
                0,
                1,
            ),
        ];
        for s in cases {
            assert_eq!(SpuState::decode_words(s.encode_words()), s);
        }
    }

    #[test]
    fn decode_masks_next_state_to_7_bits() {
        let mut w = SpuState::straight(0, 3, 4).encode_words();
        w[0] |= 0xff00; // garbage in the high bit of next0's byte
        let s = SpuState::decode_words(w);
        assert_eq!(s.next0, 0x7f);
    }

    /// Reserved bits carry nothing: setting any of word 0's bits 26..31,
    /// or any bit of word 3, decodes to the same state.
    #[test]
    fn reserved_bits_are_ignored_on_decode() {
        let states = [
            SpuState::straight(1, 5, 6),
            SpuState::routed(
                0,
                Some(ByteRoute([0, 1, 8, 9, 2, 3, 10, 11])),
                Some(ByteRoute::identity(MM3)),
                IDLE_STATE,
                2,
            ),
        ];
        for s in states {
            let clean = s.encode_words();
            for high in (26..32).map(|bit| 1u64 << bit).chain([0x3f << 26]) {
                let mut w = clean;
                w[0] |= high;
                w[3] = 0xdead_beef_0bad_f00d;
                assert_eq!(SpuState::decode_words(w), s, "word 0 | {high:#x}");
            }
        }
    }

    #[test]
    fn default_state_parks_in_idle() {
        let d = SpuState::default();
        assert_eq!(d.next0, IDLE_STATE);
        assert_eq!(d.next1, IDLE_STATE);
        assert!(!d.routes_anything());
    }
}
