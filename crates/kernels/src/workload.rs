//! Deterministic, seeded workload generators.
//!
//! The paper drives its kernels with signal-processing block workloads
//! (150-sample blocks for the filters, 128/1024-sample transforms, 8×8
//! and 16×16 matrices). These generators produce seeded pseudo-random
//! Q15 data so every run — reference, MMX, MMX+SPU — sees identical
//! inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded stream of i16 samples bounded away from the Q15 rails (so the
/// filters exercise no saturation unless a test wants it).
pub fn samples(seed: u64, n: usize, amplitude: i16) -> Vec<i16> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-(amplitude as i32)..=amplitude as i32) as i16).collect()
}

/// A seeded Q15 coefficient set scaled so an `n_taps`-tap dot product
/// cannot overflow 16.16 headroom.
pub fn coefficients(seed: u64, n_taps: usize) -> Vec<i16> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bound = (24576 / n_taps.max(1)) as i32; // Σ|c| ≤ 0.75 in Q15
    (0..n_taps).map(|_| rng.gen_range(-bound..=bound) as i16).collect()
}

/// A seeded `rows × cols` i16 matrix in row-major order.
pub fn matrix(seed: u64, rows: usize, cols: usize, amplitude: i16) -> Vec<i16> {
    samples(seed, rows * cols, amplitude)
}

/// Sine test signal in Q15 (for spot-checking the FFT bins).
pub fn sine(n: usize, cycles: f64, amplitude: f64) -> Vec<i16> {
    (0..n)
        .map(|i| {
            let x = amplitude * (2.0 * std::f64::consts::PI * cycles * i as f64 / n as f64).sin();
            crate::fixed::to_q15(x)
        })
        .collect()
}

/// Seeded stream of full-range u8 pixels (the pixel-family kernels'
/// native element type).
pub fn pixels(seed: u64, n: usize) -> Vec<u8> {
    pixels_max(seed, n, 255)
}

/// Seeded stream of u8 values bounded to `0..=max` (alpha planes use
/// `max = 128`, a Q7 coverage factor, so blend products stay inside the
/// signed-16 multiplier).
pub fn pixels_max(seed: u64, n: usize, max: u8) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..=max as i32) as u8).collect()
}

/// A seeded `w × h` u8 image in row-major order with stride `w`.
pub fn image(seed: u64, w: usize, h: usize) -> Vec<u8> {
    pixels(seed, w * h)
}

/// i16 slice to little-endian bytes.
pub fn to_bytes(v: &[i16]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// u32 slice to little-endian bytes.
pub fn to_bytes_u32(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(samples(42, 100, 1000), samples(42, 100, 1000));
        assert_ne!(samples(42, 100, 1000), samples(43, 100, 1000));
    }

    #[test]
    fn pixel_generators_deterministic_across_calls() {
        assert_eq!(pixels(9, 256), pixels(9, 256));
        assert_ne!(pixels(9, 256), pixels(10, 256));
        assert_eq!(pixels_max(9, 64, 128), pixels_max(9, 64, 128));
        assert_eq!(image(3, 16, 16), image(3, 16, 16));
        assert_eq!(image(3, 16, 16), pixels(3, 256));
    }

    #[test]
    fn pixel_bounds_and_coverage() {
        for &p in &pixels_max(1, 10_000, 128) {
            assert!(p <= 128);
        }
        // Full-range pixels actually cover the rails (saturation paths in
        // the pixel kernels must see extreme bytes).
        let p = pixels(2, 10_000);
        assert!(p.contains(&0));
        assert!(p.contains(&255));
    }

    #[test]
    fn amplitude_respected() {
        for s in samples(7, 10_000, 500) {
            assert!(s.abs() <= 500);
        }
    }

    #[test]
    fn coefficient_energy_bounded() {
        for taps in [4usize, 12, 22] {
            let c = coefficients(1, taps);
            let sum: i32 = c.iter().map(|&x| (x as i32).abs()).sum();
            assert!(sum <= 24576, "{taps} taps: Σ|c| = {sum}");
        }
    }

    #[test]
    fn sine_peaks_near_amplitude() {
        let s = sine(256, 4.0, 0.9);
        let max = s.iter().map(|&x| x as i32).max().unwrap();
        assert!((max - (0.9f64 * 32768.0) as i32).abs() < 100);
    }

    #[test]
    fn byte_conversions() {
        assert_eq!(to_bytes(&[0x0201, -2]), vec![0x01, 0x02, 0xfe, 0xff]);
    }
}
