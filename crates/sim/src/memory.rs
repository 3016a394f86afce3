//! Flat little-endian physical memory.
//!
//! The paper's evaluation assumes code and data resident in L1 ("The code
//! is assumed to reside in L1 cache for all the experiments"), so memory
//! accesses are single-cycle and the model is a plain byte array with
//! bounds checking. The SPU's memory-mapped window is intercepted by the
//! machine before reaching this module.

/// Physical memory of every simulated machine, in bytes.
pub const MEMORY_SIZE: usize = 4 << 20;

/// Flat byte-addressable memory.
#[derive(Clone, Debug)]
pub struct Memory {
    bytes: Vec<u8>,
}

/// Result of a memory access: the faulting address on error.
pub type MemResult<T> = Result<T, (u32, usize)>;

impl Memory {
    /// Allocate `size` bytes of zeroed memory.
    pub fn new(size: usize) -> Memory {
        Memory { bytes: vec![0; size] }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_roundtrip() {
        let mut m = Memory::new(64);
        m.store_u64(0, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.load_u8(0).unwrap(), 0x08);
        assert_eq!(m.load_u16(0).unwrap(), 0x0708);
        assert_eq!(m.load_u32(4).unwrap(), 0x0102_0304);
        assert_eq!(m.load_u64(0).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn unaligned_access_is_legal() {
        // Pentium movq tolerates unaligned addresses; the model allows
        // them (no extra penalty is modelled — kernels use aligned data).
        let mut m = Memory::new(64);
        m.store_u64(3, 0xdead_beef_0bad_f00d).unwrap();
        assert_eq!(m.load_u64(3).unwrap(), 0xdead_beef_0bad_f00d);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = Memory::new(16);
        assert_eq!(m.load_u64(9), Err((9, 8)));
        assert_eq!(m.load_u64(16), Err((16, 8)));
        assert!(m.load_u64(8).is_ok());
        assert_eq!(m.store_u32(13, 0), Err((13, 4)));
        assert_eq!(m.load_u8(u32::MAX), Err((u32::MAX, 1)));
    }

    #[test]
    fn sample_helpers() {
        let mut m = Memory::new(64);
        m.write_i16s(0, &[-1, 2, -3]).unwrap();
        assert_eq!(m.read_i16s(0, 3).unwrap(), vec![-1, 2, -3]);
    }
}
