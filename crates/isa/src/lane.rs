//! Sub-word lane views over 64-bit packed vectors.
//!
//! Lane index 0 is the least-significant sub-word (the rightmost element in
//! the paper's figures). All conversions are little-endian and loss-free.

/// Sub-word granularity of an MMX vector: packed bytes, words, double-words,
/// or the whole quad-word.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Lane {
    /// 8-bit packed bytes (8 lanes).
    B,
    /// 16-bit packed words (4 lanes).
    W,
    /// 32-bit packed double-words (2 lanes).
    D,
    /// 64-bit quad-word (1 lane).
    Q,
}

impl Lane {
    /// Width of one lane in bits.
    #[inline]
    pub const fn bits(self) -> u32 {
        match self {
            Lane::B => 8,
            Lane::W => 16,
            Lane::D => 32,
            Lane::Q => 64,
        }
    }

    /// Width of one lane in bytes.
    #[inline]
    pub const fn bytes(self) -> usize {
        (self.bits() / 8) as usize
    }

    /// Number of lanes in a 64-bit vector.
    #[inline]
    pub const fn count(self) -> usize {
        64 / self.bits() as usize
    }
}

/// Split a 64-bit vector into its 8 bytes, lane 0 first.
#[inline]
pub const fn bytes_of(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// Assemble a 64-bit vector from 8 bytes, lane 0 first.
#[inline]
pub const fn from_bytes(b: [u8; 8]) -> u64 {
    u64::from_le_bytes(b)
}

/// Split a 64-bit vector into its 4 unsigned 16-bit words, lane 0 first.
#[inline]
pub fn words_of(v: u64) -> [u16; 4] {
    std::array::from_fn(|i| (v >> (16 * i)) as u16)
}

/// Assemble a 64-bit vector from 4 unsigned words, lane 0 first.
#[inline]
pub fn from_words(w: [u16; 4]) -> u64 {
    w.iter().enumerate().fold(0u64, |acc, (i, &x)| acc | (x as u64) << (16 * i))
}

/// Split a 64-bit vector into its 4 signed 16-bit words, lane 0 first.
#[inline]
pub fn iwords_of(v: u64) -> [i16; 4] {
    std::array::from_fn(|i| (v >> (16 * i)) as u16 as i16)
}

/// Assemble a 64-bit vector from 4 signed words, lane 0 first.
#[inline]
pub fn from_iwords(w: [i16; 4]) -> u64 {
    from_words(w.map(|x| x as u16))
}

/// Split a 64-bit vector into its 2 unsigned 32-bit double-words.
#[inline]
pub fn dwords_of(v: u64) -> [u32; 2] {
    [v as u32, (v >> 32) as u32]
}

/// Assemble a 64-bit vector from 2 unsigned double-words.
#[inline]
pub fn from_dwords(d: [u32; 2]) -> u64 {
    d[0] as u64 | (d[1] as u64) << 32
}

/// Split a 64-bit vector into its 2 signed 32-bit double-words.
#[inline]
pub fn idwords_of(v: u64) -> [i32; 2] {
    [v as u32 as i32, (v >> 32) as u32 as i32]
}

/// Assemble a 64-bit vector from 2 signed double-words.
#[inline]
pub fn from_idwords(d: [i32; 2]) -> u64 {
    from_dwords(d.map(|x| x as u32))
}

/// Split a 64-bit vector into its 8 signed bytes, lane 0 first.
#[inline]
pub fn ibytes_of(v: u64) -> [i8; 8] {
    bytes_of(v).map(|b| b as i8)
}

/// Assemble a 64-bit vector from 8 signed bytes, lane 0 first.
#[inline]
pub fn from_ibytes(b: [i8; 8]) -> u64 {
    from_bytes(b.map(|x| x as u8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_geometry() {
        assert_eq!(Lane::B.count(), 8);
        assert_eq!(Lane::W.count(), 4);
        assert_eq!(Lane::D.count(), 2);
        assert_eq!(Lane::Q.count(), 1);
        assert_eq!(Lane::W.bytes(), 2);
    }

    #[test]
    fn word_roundtrip() {
        let v = 0x0123_4567_89ab_cdefu64;
        assert_eq!(from_words(words_of(v)), v);
        assert_eq!(from_iwords(iwords_of(v)), v);
        assert_eq!(from_dwords(dwords_of(v)), v);
        assert_eq!(from_idwords(idwords_of(v)), v);
        assert_eq!(from_bytes(bytes_of(v)), v);
        assert_eq!(from_ibytes(ibytes_of(v)), v);
    }

    #[test]
    fn lane0_is_least_significant() {
        let v = from_words([0x1111, 0x2222, 0x3333, 0x4444]);
        assert_eq!(v & 0xffff, 0x1111);
        assert_eq!(words_of(v)[3], 0x4444);
    }

    #[test]
    fn signed_views() {
        let v = from_iwords([-1, -2, 3, -32768]);
        assert_eq!(iwords_of(v), [-1, -2, 3, -32768]);
        let v = from_idwords([-5, i32::MIN]);
        assert_eq!(idwords_of(v), [-5, i32::MIN]);
        let v = from_ibytes([-1, 2, -3, 4, -5, 6, -7, -128]);
        assert_eq!(ibytes_of(v), [-1, 2, -3, 4, -5, 6, -7, -128]);
    }
}
