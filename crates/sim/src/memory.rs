//! Flat little-endian physical memory.
//!
//! The paper's evaluation assumes code and data resident in L1 ("The code
//! is assumed to reside in L1 cache for all the experiments"), so memory
//! accesses are single-cycle and the model is one flat array of
//! [`MEMORY_SIZE`] bytes with one bounds compare per access. The SPU's
//! memory-mapped window is intercepted by the machine before reaching
//! this module.
//!
//! Every machine starts from zeroed memory, but a run writes little of it
//! (136 bytes for a fuzz case, under 388 KiB for a kernel), so zeroing all
//! of it per machine would cost more than the simulation. Instead each
//! thread keeps one spare all-zero buffer: `Memory::new` takes it, and
//! allocates a zeroed one only when the spare is in use. Every write
//! widens the written window `lo..hi`; every byte outside that window is
//! zero. Dropping a `Memory` zeroes exactly the window and puts the buffer
//! back as the thread's spare, so zeroing happens at teardown and never
//! inside a run.

use std::cell::Cell;

/// Physical memory of every simulated machine, in bytes.
pub const MEMORY_SIZE: usize = 4 << 20;

/// Source for re-zeroing a written window. Copying from it is a `memcpy`
/// even in debug builds, where `fill(0)` is a byte loop.
static ZEROS: [u8; 4096] = [0; 4096];

thread_local! {
    /// This thread's spare all-zero buffer of [`MEMORY_SIZE`] bytes.
    static SPARE: Cell<Option<Vec<u8>>> = const { Cell::new(None) };
}

/// Flat byte-addressable memory of [`MEMORY_SIZE`] bytes.
#[derive(Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    /// Start of the written window: every byte outside `lo..hi` is zero.
    lo: usize,
    /// End of the written window.
    hi: usize,
}

/// Result of a memory access: the faulting address on error.
pub type MemResult<T> = Result<T, (u32, usize)>;

impl Memory {
    /// Zeroed memory: this thread's spare buffer, or a new one if the
    /// spare is in use.
    pub(crate) fn new() -> Memory {
        let bytes = SPARE.take().unwrap_or_else(|| vec![0; MEMORY_SIZE]);
        Memory { bytes, lo: MEMORY_SIZE, hi: 0 }
    }

    #[inline]
    fn check(&self, addr: u32, size: usize) -> MemResult<usize> {
        let a = addr as usize;
        if a.checked_add(size).is_some_and(|end| end <= self.bytes.len()) {
            Ok(a)
        } else {
            Err((addr, size))
        }
    }

    /// Widen the written window over `a..a + len`.
    #[inline]
    fn written(&mut self, a: usize, len: usize) {
        self.lo = self.lo.min(a);
        self.hi = self.hi.max(a + len);
    }

    /// Load `N` bytes.
    #[inline]
    pub fn load<const N: usize>(&self, addr: u32) -> MemResult<[u8; N]> {
        let a = self.check(addr, N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[a..a + N]);
        Ok(out)
    }

    /// Store `N` bytes.
    #[inline]
    pub fn store<const N: usize>(&mut self, addr: u32, v: [u8; N]) -> MemResult<()> {
        let a = self.check(addr, N)?;
        self.bytes[a..a + N].copy_from_slice(&v);
        self.written(a, N);
        Ok(())
    }

    /// 8-bit load.
    pub fn load_u8(&self, addr: u32) -> MemResult<u8> {
        Ok(self.load::<1>(addr)?[0])
    }

    /// 16-bit load.
    pub fn load_u16(&self, addr: u32) -> MemResult<u16> {
        Ok(u16::from_le_bytes(self.load(addr)?))
    }

    /// 32-bit load.
    pub fn load_u32(&self, addr: u32) -> MemResult<u32> {
        Ok(u32::from_le_bytes(self.load(addr)?))
    }

    /// 64-bit load.
    pub fn load_u64(&self, addr: u32) -> MemResult<u64> {
        Ok(u64::from_le_bytes(self.load(addr)?))
    }

    /// 8-bit store.
    pub fn store_u8(&mut self, addr: u32, v: u8) -> MemResult<()> {
        self.store(addr, [v])
    }

    /// 16-bit store.
    pub fn store_u16(&mut self, addr: u32, v: u16) -> MemResult<()> {
        self.store(addr, v.to_le_bytes())
    }

    /// 32-bit store.
    pub fn store_u32(&mut self, addr: u32, v: u32) -> MemResult<()> {
        self.store(addr, v.to_le_bytes())
    }

    /// 64-bit store.
    pub fn store_u64(&mut self, addr: u32, v: u64) -> MemResult<()> {
        self.store(addr, v.to_le_bytes())
    }

    /// Copy a byte slice into memory (test/workload setup).
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> MemResult<()> {
        let a = self.check(addr, data.len())?;
        self.bytes[a..a + data.len()].copy_from_slice(data);
        self.written(a, data.len());
        Ok(())
    }

    /// Read a byte slice out of memory.
    pub fn read_bytes(&self, addr: u32, len: usize) -> MemResult<&[u8]> {
        let a = self.check(addr, len)?;
        Ok(&self.bytes[a..a + len])
    }

    /// Write a slice of `i16` samples (little-endian), the dominant media
    /// data type in the paper's kernels.
    pub fn write_i16s(&mut self, addr: u32, data: &[i16]) -> MemResult<()> {
        for (i, &v) in data.iter().enumerate() {
            self.store_u16(addr + (i * 2) as u32, v as u16)?;
        }
        Ok(())
    }

    /// Read a slice of `i16` samples.
    pub fn read_i16s(&self, addr: u32, n: usize) -> MemResult<Vec<i16>> {
        (0..n).map(|i| Ok(self.load_u16(addr + (i * 2) as u32)? as i16)).collect()
    }
}

impl Drop for Memory {
    /// Zero the written window and keep the buffer as this thread's spare.
    fn drop(&mut self) {
        if self.lo < self.hi {
            for chunk in self.bytes[self.lo..self.hi].chunks_mut(ZEROS.len()) {
                chunk.copy_from_slice(&ZEROS[..chunk.len()]);
            }
        }
        let bytes = std::mem::take(&mut self.bytes);
        // During thread teardown the slot may be gone: the buffer is freed.
        let _ = SPARE.try_with(|spare| spare.set(Some(bytes)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One past the last byte of memory.
    const TOP: u32 = MEMORY_SIZE as u32;

    #[test]
    fn little_endian_roundtrip() {
        let mut m = Memory::new();
        let a = TOP - 64;
        m.store_u64(a, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.load_u8(a).unwrap(), 0x08);
        assert_eq!(m.load_u16(a).unwrap(), 0x0708);
        assert_eq!(m.load_u32(a + 4).unwrap(), 0x0102_0304);
        assert_eq!(m.load_u64(a).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn unaligned_access_is_legal() {
        // Pentium movq tolerates unaligned addresses; the model allows
        // them (no extra penalty is modelled — kernels use aligned data).
        let mut m = Memory::new();
        m.store_u64(TOP - 61, 0xdead_beef_0bad_f00d).unwrap();
        assert_eq!(m.load_u64(TOP - 61).unwrap(), 0xdead_beef_0bad_f00d);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = Memory::new();
        let base = TOP - 16;
        assert_eq!(m.load_u64(base + 9), Err((base + 9, 8)));
        assert_eq!(m.load_u64(base + 16), Err((base + 16, 8)));
        assert!(m.load_u64(base + 8).is_ok());
        assert_eq!(m.store_u32(base + 13, 0), Err((base + 13, 4)));
        assert_eq!(m.load_u8(u32::MAX), Err((u32::MAX, 1)));
    }

    #[test]
    fn sample_helpers() {
        let mut m = Memory::new();
        m.write_i16s(TOP - 64, &[-1, 2, -3]).unwrap();
        assert_eq!(m.read_i16s(TOP - 64, 3).unwrap(), vec![-1, 2, -3]);
    }

    /// A store at the top and a setup write below the window's start are
    /// both re-zeroed before the buffer serves the next `Memory`.
    #[test]
    fn a_dropped_memory_leaves_no_writes_behind() {
        let mut m = Memory::new();
        m.store_u64(TOP - 8, u64::MAX).unwrap();
        m.write_bytes(0x100, &[0xff; 8]).unwrap();
        drop(m);
        let m = Memory::new();
        assert_eq!(m.load_u64(TOP - 8), Ok(0));
        assert_eq!(m.load_u64(0x100), Ok(0));
    }
}
