//! Memory-mapped programming interface.
//!
//! Paper §3/§4: *"the SPU has control registers that are memory-mapped,
//! hence the need for a connection to memory"* — software programs the
//! controller with ordinary stores before executing a computational loop,
//! then arms it by writing the GO bit of the configuration register.
//!
//! ## Address map (byte offsets from [`SPU_MMIO_BASE`], per context)
//!
//! | offset               | register |
//! |----------------------|----------|
//! | `0x0000`             | CONFIG: bit 0 = GO, bits 4..5 = context select, bits 8..10 = window base |
//! | `0x0008`             | CNTR0 initial value |
//! | `0x0010`             | CNTR1 initial value |
//! | `0x0018`             | ENTRY state |
//! | `0x0020`             | STATUS (read-only): bit 0 = GO, bits 8..14 = current state |
//! | `0x0100 + 32·s + 8·w`| word `w` (0..4) of state `s` (see [`SpuState::encode_words`]) |
//!
//! Contexts are `0x1800` apart; CONFIG/STATUS are global (context
//! select lives *in* CONFIG). Writing GO=1 decodes the selected context's
//! staging image into the controller, validates it against the crossbar
//! shape, and activates. A validation failure leaves the controller
//! inactive and is reported to the caller (the simulator surfaces it as a
//! machine fault). A GO that re-arms a context whose staging bytes and
//! window base are unchanged since its last successful GO only
//! activates: the controller already holds that decode, and its load
//! count ([`SpuController::loads`]) stays put. A staging store changes
//! nothing the controller routes until the next GO loads it.

use crate::controller::{SpuController, CONTEXTS};
use crate::microcode::{SpuState, IDLE_STATE};
use crate::program::{SpuError, SpuProgram};

/// Base physical address of the SPU register window.
pub const SPU_MMIO_BASE: u32 = 0xF000_0000;

/// Size of one context's staging region.
pub const CONTEXT_STRIDE: u32 = 0x1800;

/// Offset of the state table inside a context region.
pub const STATE_TABLE_OFF: u32 = 0x100;

/// Total size of the mapped window ([`CONTEXTS`] contexts).
pub const SPU_MMIO_SIZE: u32 = CONTEXT_STRIDE * CONTEXTS as u32;

// CONFIG's 2-bit context-select field addresses every context.
const _: () = assert!(CONTEXTS == 4);

/// True if a physical address falls inside the SPU window.
#[inline]
pub fn in_mmio_range(addr: u32) -> bool {
    (SPU_MMIO_BASE..SPU_MMIO_BASE.wrapping_add(SPU_MMIO_SIZE)).contains(&addr)
}

/// Staging image for one context (raw bytes written by software).
#[derive(Clone)]
struct Staging {
    bytes: Vec<u8>,
}

impl Default for Staging {
    fn default() -> Self {
        Staging { bytes: vec![0; CONTEXT_STRIDE as usize] }
    }
}

impl Staging {
    fn read_u64(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.bytes[off..off + 8]);
        u64::from_le_bytes(b)
    }
}

/// The memory-mapped front-end wrapping an [`SpuController`].
pub struct SpuMmio {
    /// The wrapped controller. Program it through [`SpuMmio::write`]: a
    /// GO that re-arms an unchanged context keeps whatever the
    /// controller holds for it.
    pub controller: SpuController,
    staging: Vec<Staging>,
    config: u64,
    /// Per context, the window base of the last GO that committed its
    /// current staging bytes into the controller; `None` once a store
    /// into the context's region changes them, and before any GO.
    committed: [Option<u8>; CONTEXTS],
}

impl SpuMmio {
    /// Wrap a controller.
    pub fn new(controller: SpuController) -> SpuMmio {
        SpuMmio {
            controller,
            staging: vec![Staging::default(); CONTEXTS],
            config: 0,
            committed: [None; CONTEXTS],
        }
    }

    /// Handle a store of `size` bytes (1, 2, 4 or 8) at `addr`.
    ///
    /// Returns `Ok(true)` if a GO write activated the controller,
    /// `Ok(false)` otherwise.
    pub fn write(&mut self, addr: u32, value: u64, size: usize) -> Result<bool, SpuError> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let off = addr.wrapping_sub(SPU_MMIO_BASE);
        if off == 0 {
            // CONFIG register (any width hits the low bytes).
            self.config = value;
            let ctx = ((value >> 4) & 0x3) as usize;
            // Selecting a context ends the running activation, so a GO
            // whose commit fails leaves the controller inactive.
            self.controller.select_context(ctx);
            if value & 1 != 0 {
                self.commit_and_activate(ctx, ((value >> 8) & 0x7) as u8)?;
                return Ok(true);
            }
            return Ok(false);
        }
        let ctx = (off / CONTEXT_STRIDE) as usize;
        let within = (off % CONTEXT_STRIDE) as usize;
        if ctx >= self.staging.len() || within + size > CONTEXT_STRIDE as usize {
            return Err(SpuError::BadMmioImage { reason: "store outside context region" });
        }
        self.staging[ctx].bytes[within..within + size]
            .copy_from_slice(&value.to_le_bytes()[..size]);
        self.committed[ctx] = None;
        Ok(false)
    }

    /// Handle a load of `size` bytes at `addr`.
    pub fn read(&self, addr: u32, size: usize) -> u64 {
        let off = addr.wrapping_sub(SPU_MMIO_BASE);
        if off == 0 {
            return self.config & mask(size);
        }
        if off == 0x20 {
            let status = (self.controller.is_active() as u64)
                | (self.controller.current_state() as u64) << 8;
            return status & mask(size);
        }
        let ctx = (off / CONTEXT_STRIDE) as usize;
        let within = (off % CONTEXT_STRIDE) as usize;
        if ctx >= self.staging.len() || within + size > CONTEXT_STRIDE as usize {
            return 0;
        }
        let mut b = [0u8; 8];
        b[..size].copy_from_slice(&self.staging[ctx].bytes[within..within + size]);
        u64::from_le_bytes(b)
    }

    /// Decode a staged context image into a program, load and activate
    /// it; or only activate it, when the controller already holds the
    /// decode of these staging bytes at this window base.
    fn commit_and_activate(&mut self, ctx: usize, window_base: u8) -> Result<(), SpuError> {
        if self.committed[ctx] != Some(window_base) {
            let prog = self.decode_context(ctx, window_base)?;
            self.controller.load_program(ctx, &prog)?;
            self.committed[ctx] = Some(window_base);
        }
        self.controller.activate();
        Ok(())
    }

    /// Decode the staged bytes of context `ctx` into an [`SpuProgram`].
    ///
    /// A state counts as programmed when its decoded fields differ from
    /// an all-zero image's (counter 0, no routes, both successors state
    /// 0), so reserved bits, which decoding ignores, never make a state
    /// programmed. Real programs always set a next-state field, so the
    /// filter drops none of their states.
    fn decode_context(&self, ctx: usize, window_base: u8) -> Result<SpuProgram, SpuError> {
        let st = &self.staging[ctx];
        let counter_init = [st.read_u64(0x8) as u32, st.read_u64(0x10) as u32];
        let entry = (st.read_u64(0x18) & 0x7f) as u8;
        let unprogrammed = SpuState::decode_words([0; 4]);
        let mut states = Vec::new();
        for s in 0..IDLE_STATE {
            let base = STATE_TABLE_OFF as usize + s as usize * 32;
            let words = [
                st.read_u64(base),
                st.read_u64(base + 8),
                st.read_u64(base + 16),
                st.read_u64(base + 24),
            ];
            // All-zero words decode to `unprogrammed`: skip the decode.
            if words == [0; 4] {
                continue;
            }
            let state = SpuState::decode_words(words);
            if state != unprogrammed {
                states.push((s, state));
            }
        }
        if states.is_empty() {
            return Err(SpuError::BadMmioImage { reason: "no programmed states" });
        }
        Ok(SpuProgram { name: format!("mmio-ctx{ctx}"), states, counter_init, entry, window_base })
    }

    /// Byte offset (relative to [`SPU_MMIO_BASE`]) of word `w` of state `s`
    /// in context `ctx` — used by code generators emitting setup stores.
    pub fn state_word_offset(ctx: usize, state: u8, word: usize) -> u32 {
        assert!(state < IDLE_STATE && word < 4);
        ctx as u32 * CONTEXT_STRIDE + STATE_TABLE_OFF + state as u32 * 32 + word as u32 * 8
    }

    /// Offset of the CNTRx init register.
    pub fn counter_offset(ctx: usize, counter: usize) -> u32 {
        assert!(counter < 2);
        ctx as u32 * CONTEXT_STRIDE + 0x8 + counter as u32 * 8
    }

    /// Offset of the ENTRY register.
    pub fn entry_offset(ctx: usize) -> u32 {
        ctx as u32 * CONTEXT_STRIDE + 0x18
    }

    /// The CONFIG word that selects context `ctx`, window base `wb`, and
    /// sets GO.
    pub fn go_config(ctx: usize, wb: u8) -> u64 {
        1 | ((ctx as u64 & 3) << 4) | ((wb as u64 & 7) << 8)
    }
}

/// Emit the store sequence that programs `prog` into context `ctx` through
/// the memory-mapped interface — the in-program setup prologue of paper §4
/// ("it has to be programmed ... before executing a computational loop").
///
/// Zero halves of state words are skipped (the staging image is zeroed at
/// reset), which is why the paper's start-up cost is modest. The GO write
/// is **not** emitted; arm the unit per activation with
/// [`emit_spu_go`].
pub fn emit_spu_setup(b: &mut subword_isa::ProgramBuilder, ctx: usize, prog: &SpuProgram) -> usize {
    use subword_isa::Mem;
    let start = b.here();
    let store32 = |b: &mut subword_isa::ProgramBuilder, off: u32, v: u32| {
        if v != 0 {
            b.store_imm(Mem::abs(SPU_MMIO_BASE + off), v);
        }
    };
    for (id, s) in &prog.states {
        for (w, word) in s.encode_words().iter().enumerate() {
            let off = SpuMmio::state_word_offset(ctx, *id, w);
            store32(b, off, *word as u32);
            store32(b, off + 4, (*word >> 32) as u32);
        }
    }
    store32(b, SpuMmio::counter_offset(ctx, 0), prog.counter_init[0]);
    store32(b, SpuMmio::counter_offset(ctx, 1), prog.counter_init[1]);
    store32(b, SpuMmio::entry_offset(ctx), prog.entry as u32);
    b.here() - start
}

/// Emit the single GO store arming context `ctx` of the SPU (window base
/// comes from the program).
pub fn emit_spu_go(b: &mut subword_isa::ProgramBuilder, ctx: usize, prog: &SpuProgram) {
    use subword_isa::Mem;
    b.store_imm(Mem::abs(SPU_MMIO_BASE), SpuMmio::go_config(ctx, prog.window_base) as u32);
}

#[inline]
fn mask(size: usize) -> u64 {
    if size >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * size)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::{ByteRoute, SHAPE_D};
    use subword_isa::reg::MmReg::*;

    fn mmio() -> SpuMmio {
        SpuMmio::new(SpuController::new(SHAPE_D))
    }

    fn write_program_via_stores(m: &mut SpuMmio, ctx: usize) {
        // Figure 7 program: 3 states, counter 30.
        let op_a = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
        let op_b = ByteRoute::from_reg_words([(MM0, 2), (MM1, 2), (MM0, 3), (MM1, 3)]);
        let states = [
            SpuState::routed(0, Some(op_a), Some(op_b), IDLE_STATE, 1),
            SpuState::routed(0, Some(op_a), Some(op_b), IDLE_STATE, 2),
            SpuState::straight(0, IDLE_STATE, 0),
        ];
        for (sid, s) in states.iter().enumerate() {
            for (w, word) in s.encode_words().iter().enumerate() {
                let off = SpuMmio::state_word_offset(ctx, sid as u8, w);
                m.write(SPU_MMIO_BASE + off, *word, 8).unwrap();
            }
        }
        m.write(SPU_MMIO_BASE + SpuMmio::counter_offset(ctx, 0), 30, 4).unwrap();
        m.write(SPU_MMIO_BASE + SpuMmio::counter_offset(ctx, 1), 1, 4).unwrap();
        m.write(SPU_MMIO_BASE + SpuMmio::entry_offset(ctx), 0, 4).unwrap();
    }

    #[test]
    fn program_through_stores_then_go() {
        let mut m = mmio();
        write_program_via_stores(&mut m, 0);
        let activated = m.write(SPU_MMIO_BASE, SpuMmio::go_config(0, 0), 4).unwrap();
        assert!(activated);
        assert!(m.controller.is_active());
        // Walk the 30 steps.
        let mut routed = 0;
        for _ in 0..30 {
            if m.controller.on_issue().routes_anything() {
                routed += 1;
            }
        }
        assert_eq!(routed, 20);
        assert!(!m.controller.is_active());
        // STATUS reads back inactive + idle state.
        let status = m.read(SPU_MMIO_BASE + 0x20, 4);
        assert_eq!(status & 1, 0);
        assert_eq!((status >> 8) & 0x7f, IDLE_STATE as u64);
    }

    #[test]
    fn go_on_empty_context_fails() {
        let mut m = mmio();
        let err = m.write(SPU_MMIO_BASE, 1, 4).unwrap_err();
        assert!(matches!(err, SpuError::BadMmioImage { .. }));
        assert!(!m.controller.is_active());
    }

    /// Reserved bits do not program a state: a state 1 whose only
    /// nonzero bit is reserved (in word 3, or in word 0 above the route
    /// flags) stays unprogrammed, so entering it faults.
    #[test]
    fn reserved_bits_do_not_program_a_state() {
        for (word, value) in [(3, 1), (0, 1 << 26)] {
            let mut m = mmio();
            let stage = |m: &mut SpuMmio, off: u32, v: u64| m.write(SPU_MMIO_BASE + off, v, 8);
            stage(&mut m, SpuMmio::state_word_offset(0, 0, 0), 0x7f7f00).unwrap();
            stage(&mut m, SpuMmio::entry_offset(0), 1).unwrap();
            stage(&mut m, SpuMmio::counter_offset(0, 0), 5).unwrap();
            stage(&mut m, SpuMmio::state_word_offset(0, 1, word), value).unwrap();
            let err = m.write(SPU_MMIO_BASE, SpuMmio::go_config(0, 0), 4).unwrap_err();
            assert_eq!(err, SpuError::BadEntry { entry: 1 }, "word {word} = {value:#x}");
            assert!(!m.controller.is_active());
        }
    }

    /// Walk the active program to idle; how many of its steps route.
    fn routed_steps(m: &mut SpuMmio) -> usize {
        let mut routed = 0;
        while m.controller.is_active() {
            routed += usize::from(m.controller.on_issue().routes_anything());
        }
        routed
    }

    /// A GO re-arms the context it committed last without restaging, and
    /// a store into the context's region between two GOs takes effect on
    /// the second: here a new CNTR0 and a rewritten state word.
    #[test]
    fn a_restage_between_gos_takes_effect() {
        let mut m = mmio();
        write_program_via_stores(&mut m, 0);
        let go = |m: &mut SpuMmio| m.write(SPU_MMIO_BASE, SpuMmio::go_config(0, 0), 4);
        go(&mut m).unwrap();
        assert_eq!(routed_steps(&mut m), 20);
        go(&mut m).unwrap();
        assert_eq!(routed_steps(&mut m), 20, "re-armed from the committed decode");
        assert_eq!(m.controller.loads(), 1, "a re-arm loads nothing");

        m.write(SPU_MMIO_BASE + SpuMmio::counter_offset(0, 0), 12, 4).unwrap();
        go(&mut m).unwrap();
        assert_eq!(routed_steps(&mut m), 8, "the new CNTR0 counts");

        let straight = SpuState::straight(0, IDLE_STATE, 2).encode_words();
        for (w, word) in straight.into_iter().enumerate() {
            m.write(SPU_MMIO_BASE + SpuMmio::state_word_offset(0, 1, w), word, 8).unwrap();
        }
        go(&mut m).unwrap();
        assert_eq!(routed_steps(&mut m), 4, "state 1 no longer routes");
        assert_eq!(m.controller.usage.activations, 4);
        assert_eq!(m.controller.loads(), 3, "each restage loads once");
    }

    /// A GO under another window base commits the context again, and a
    /// GO under the base it committed last only re-arms.
    #[test]
    fn a_new_window_base_recommits() {
        let mut m = mmio();
        // One routed state whose sources (mm1, mm2) lie in the windows
        // based at both mm0 and mm1.
        let route = ByteRoute::from_reg_words([(MM1, 0), (MM2, 0), (MM1, 1), (MM2, 1)]);
        let state = SpuState::routed(0, Some(route), None, IDLE_STATE, 0);
        for (w, word) in state.encode_words().into_iter().enumerate() {
            m.write(SPU_MMIO_BASE + SpuMmio::state_word_offset(0, 0, w), word, 8).unwrap();
        }
        m.write(SPU_MMIO_BASE + SpuMmio::counter_offset(0, 0), 1, 4).unwrap();
        for (wb, loads) in [(0, 1), (1, 2), (1, 2), (0, 3)] {
            m.write(SPU_MMIO_BASE, SpuMmio::go_config(0, wb), 4).unwrap();
            assert_eq!(m.controller.loads(), loads, "window base {wb}");
        }
    }

    /// A bad image faults on every GO, not only on the first: no record
    /// of a failed commit survives it. Each failed GO leaves the
    /// controller inactive, also when it arrives while the earlier
    /// activation is still running.
    #[test]
    fn a_bad_image_faults_on_every_go() {
        for running in [false, true] {
            let mut m = mmio();
            write_program_via_stores(&mut m, 0);
            m.write(SPU_MMIO_BASE, SpuMmio::go_config(0, 0), 4).unwrap();
            if running {
                m.controller.on_issue();
                assert!(m.controller.is_active());
            } else {
                assert_eq!(routed_steps(&mut m), 20);
            }
            // ENTRY now names state 5, which is not programmed.
            m.write(SPU_MMIO_BASE + SpuMmio::entry_offset(0), 5, 4).unwrap();
            for _ in 0..2 {
                let err = m.write(SPU_MMIO_BASE, SpuMmio::go_config(0, 0), 4).unwrap_err();
                assert_eq!(err, SpuError::BadEntry { entry: 5 }, "running: {running}");
                assert!(!m.controller.is_active(), "running: {running}");
            }
        }
    }

    #[test]
    fn config_clears_go() {
        let mut m = mmio();
        write_program_via_stores(&mut m, 0);
        m.write(SPU_MMIO_BASE, SpuMmio::go_config(0, 0), 4).unwrap();
        assert!(m.controller.is_active());
        m.write(SPU_MMIO_BASE, 0, 4).unwrap();
        assert!(!m.controller.is_active());
    }

    #[test]
    fn context_regions_are_independent() {
        let mut m = mmio();
        write_program_via_stores(&mut m, 1);
        // GO on context 0 fails (empty)...
        assert!(m.write(SPU_MMIO_BASE, SpuMmio::go_config(0, 0), 4).is_err());
        // ... GO on context 1 succeeds.
        assert!(m.write(SPU_MMIO_BASE, SpuMmio::go_config(1, 0), 4).unwrap());
        assert!(m.controller.is_active());
        assert_eq!(m.controller.active_context(), 1);
    }

    #[test]
    fn staging_reads_back() {
        let mut m = mmio();
        let off = SpuMmio::state_word_offset(0, 5, 1);
        m.write(SPU_MMIO_BASE + off, 0xdead_beef_cafe_f00d, 8).unwrap();
        assert_eq!(m.read(SPU_MMIO_BASE + off, 8), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(SPU_MMIO_BASE + off, 4), 0xcafe_f00d);
    }

    #[test]
    fn partial_width_writes_merge() {
        let mut m = mmio();
        let off = SpuMmio::counter_offset(0, 0);
        m.write(SPU_MMIO_BASE + off, 0x1234, 2).unwrap();
        m.write(SPU_MMIO_BASE + off + 2, 0x56, 1).unwrap();
        assert_eq!(m.read(SPU_MMIO_BASE + off, 4), 0x0056_1234);
    }

    #[test]
    fn range_check() {
        assert!(in_mmio_range(SPU_MMIO_BASE));
        assert!(in_mmio_range(SPU_MMIO_BASE + SPU_MMIO_SIZE - 1));
        assert!(!in_mmio_range(SPU_MMIO_BASE + SPU_MMIO_SIZE));
        assert!(!in_mmio_range(0x1000));
    }

    #[test]
    fn out_of_region_store_rejected() {
        let mut m = mmio();
        let err = m.write(SPU_MMIO_BASE + SPU_MMIO_SIZE - 4, 0, 8).unwrap_err();
        assert!(matches!(err, SpuError::BadMmioImage { .. }));
    }
}
