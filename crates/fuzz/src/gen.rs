//! Seed-keyed generation of well-formed counted-loop programs.
//!
//! A [`FuzzCase`] is the *data* form of one generated program: a step
//! list plus the loop trip count, crossbar shape, initial register rails
//! and a memory-image seed. The program itself is rebuilt from that data
//! by [`build_program`] — deterministically, so a case round-trips
//! through the JSON corpus ([`crate::corpus`]) and shrinks structurally
//! under the minimizer ([`mod@crate::minimize`]) without ever re-running the
//! generator.
//!
//! The grammar deliberately targets the pipeline's hard spots:
//!
//! * counted loops with an optional interior label (multi-region bodies
//!   — a fallthrough trace feeding a loop trace, stressing the threaded
//!   engine's entry signatures);
//! * MMX/GP mixes including `movd` traffic both directions;
//! * saturating ops ([`MMX_OPS`]) over rail-biased initial registers
//!   ([`RAILS`]: u8/i16 extremes), so saturation actually clips;
//! * realignment chains (`RouteSpan` emits a `movq` copy feeding a
//!   consumer — the lifting pass's removal candidates) across wide
//!   register spans, which windowed shapes (B/D) can only lift through
//!   register compaction;
//! * stores into the SPU MMIO window next to (and across) the
//!   microcode-staging boundary, which bump the threaded engine's
//!   staging generation and invalidate cached traces.

use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::program::Program;
use subword_isa::reg::{GpReg, MmReg};
use subword_isa::ProgramBuilder;
use subword_spu::controller::CONTEXTS;
use subword_spu::mmio::{CONTEXT_STRIDE, SPU_MMIO_BASE, STATE_TABLE_OFF};

/// Base of the generated programs' data region.
pub const MEM_BASE: u32 = 0x1_0000;

/// Number of 8-byte data slots loads/stores address.
pub const MEM_SLOTS: u32 = 16;

/// Bytes of the data region an oracle must compare (one extra slot so
/// off-by-one slot arithmetic would be visible).
pub const MEM_LEN: usize = (MEM_SLOTS as usize + 1) * 8;

/// Deterministic SplitMix64 — the same generator the vendored proptest
/// stub uses, so one seed always means one case.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Register-to-register MMX ops the generator draws from: wrapping and
/// saturating arithmetic, multiplies, logicals, compares, packs, unpacks
/// and `movq` — the full realignment class included, so generated bodies
/// contain liftable candidates.
pub const MMX_OPS: [MmxOp; 26] = [
    MmxOp::Paddb,
    MmxOp::Paddw,
    MmxOp::Psubb,
    MmxOp::Paddsb,
    MmxOp::Paddsw,
    MmxOp::Paddusb,
    MmxOp::Paddusw,
    MmxOp::Psubsb,
    MmxOp::Psubsw,
    MmxOp::Psubusb,
    MmxOp::Psubusw,
    MmxOp::Pmullw,
    MmxOp::Pmulhw,
    MmxOp::Pmaddwd,
    MmxOp::Pand,
    MmxOp::Por,
    MmxOp::Pxor,
    MmxOp::Pcmpeqb,
    MmxOp::Pcmpgtw,
    MmxOp::Movq,
    MmxOp::Punpcklbw,
    MmxOp::Punpcklwd,
    MmxOp::Punpckhwd,
    MmxOp::Punpckhdq,
    MmxOp::Packssdw,
    MmxOp::Packuswb,
];

/// Ops of [`MMX_OPS`] that saturate to the u8/i16 rails.
pub const SATURATING_OPS: [MmxOp; 11] = [
    MmxOp::Paddsb,
    MmxOp::Paddsw,
    MmxOp::Paddusb,
    MmxOp::Paddusw,
    MmxOp::Psubsb,
    MmxOp::Psubsw,
    MmxOp::Psubusb,
    MmxOp::Psubusw,
    MmxOp::Packssdw,
    MmxOp::Packuswb,
    MmxOp::Packsswb,
];

/// Immediate-form shifts.
pub const SHIFT_OPS: [MmxOp; 6] =
    [MmxOp::Psllw, MmxOp::Pslld, MmxOp::Psllq, MmxOp::Psrlw, MmxOp::Psrlq, MmxOp::Psraw];

/// Scalar ALU ops (loop-counter-safe subset plus a blocking multiply).
pub const ALU_OPS: [AluOp; 7] =
    [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor, AluOp::Shl, AluOp::Imul];

/// Offsets inside one SPU context region the `MmioStore` step writes to:
/// control staging (counters, entry) below [`STATE_TABLE_OFF`] and
/// microcode staging at and above it, the boundary sitting between
/// index 3 and 4. Offset 0 (the CONFIG/GO register) is deliberately
/// absent: the generator stages bytes, it never arms the controller with
/// a garbage image.
pub const MMIO_OFFS: [u32; 8] = [
    0x8,                  // counter 0 staging
    0x10,                 // counter 1 staging
    0x18,                 // entry-state staging
    STATE_TABLE_OFF - 8,  // last control word before the table
    STATE_TABLE_OFF,      // first microcode word
    STATE_TABLE_OFF + 8,  // state 0, word 1
    STATE_TABLE_OFF + 32, // state 1
    CONTEXT_STRIDE - 8,   // last microcode word of the region
];

/// Rail-biased 64-bit initial register patterns: zeros, all-ones, and
/// the i16/u8 saturation extremes the saturating ops clip against.
pub const RAILS: [u64; 8] = [
    0,
    u64::MAX,
    0x7FFF_7FFF_7FFF_7FFF,
    0x8000_8000_8000_8000,
    0x7F7F_7F7F_7F7F_7F7F,
    0x8080_8080_8080_8080,
    0x00FF_00FF_00FF_00FF,
    0x0001_0001_0001_0001,
];

/// One generated loop-body step. Register fields are reduced modulo the
/// relevant file size at build time, so any byte values form a
/// well-formed step (the minimizer relies on this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `op mm[dst], mm[src]` from [`MMX_OPS`].
    Mmx { op: u8, dst: u8, src: u8 },
    /// `shift mm[dst], imm` from [`SHIFT_OPS`] (imm up to 65: one past
    /// the widest lane, so overshift paths run too).
    MmxImm { op: u8, dst: u8, imm: u8 },
    /// `movq mm[dst], [slot]`.
    Load { dst: u8, slot: u8 },
    /// `movq [slot], mm[src]`.
    Store { src: u8, slot: u8 },
    /// `op r[1 + dst%7], r[src%8]` from [`ALU_OPS`] (r0 is the loop
    /// counter and is never a destination).
    Alu { op: u8, dst: u8, src: u8 },
    /// `op r[1 + dst%7], imm`.
    AluImm { op: u8, dst: u8, imm: i32 },
    /// `movd r[1 + dst%7], mm[src]`.
    MovdFromMm { dst: u8, src: u8 },
    /// `movd mm[dst], r[src%8]`.
    MovdToMm { dst: u8, src: u8 },
    /// A liftable realignment chain: `movq mm[tmp], mm[far]` then
    /// `paddw mm[acc], mm[tmp]` — the copy is a removal candidate whose
    /// route gathers from `far`, stretching the route span across the
    /// register file (the windowed shapes' compaction trigger).
    RouteSpan { far: u8, tmp: u8, acc: u8 },
    /// `mov [SPU_MMIO_BASE + ctx*stride + MMIO_OFFS[off]], imm` — a
    /// staging store near the microcode boundary.
    MmioStore { ctx: u8, off: u8, imm: u32 },
}

impl Step {
    /// Instructions this step emits.
    pub fn width(&self) -> usize {
        match self {
            Step::RouteSpan { .. } => 2,
            _ => 1,
        }
    }
}

/// One generated program in data form: everything [`build_program`]
/// needs, and nothing else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// Seed this case was generated from (provenance only — a minimized
    /// case keeps its ancestor's seed).
    pub seed: u64,
    /// Index into [`subword_spu::crossbar::CANONICAL_SHAPES`].
    pub shape: u8,
    /// Loop trip count.
    pub trips: u64,
    /// Bind an interior label after this many steps (`Some(k)` with
    /// `0 < k < steps.len()` splits the body into two regions).
    pub split: Option<u8>,
    /// The loop body.
    pub steps: Vec<Step>,
    /// Initial MMX register file.
    pub mm_init: [u64; 8],
    /// Seed expanded into the initial data-region bytes.
    pub mem_seed: u64,
}

impl FuzzCase {
    /// The crossbar shape this case compiles under.
    pub fn crossbar(&self) -> subword_spu::crossbar::CrossbarShape {
        subword_spu::crossbar::CANONICAL_SHAPES[self.shape as usize % 4]
    }

    /// The initial data-region image ([`MEM_LEN`] bytes at [`MEM_BASE`]).
    pub fn initial_memory(&self) -> Vec<u8> {
        let mut rng = Rng::new(self.mem_seed);
        (0..MEM_LEN).map(|_| rng.next_u64() as u8).collect()
    }

    /// The case's initial state for a run: the MMX preloads and the data
    /// region image, with the data region as the output range.
    pub fn setup(&self) -> TestSetup {
        TestSetup {
            mem_init: vec![(MEM_BASE, self.initial_memory())],
            mm_init: MmReg::ALL.into_iter().zip(self.mm_init).collect(),
            outputs: vec![(MEM_BASE, MEM_LEN)],
            ..TestSetup::default()
        }
    }

    /// Total instructions of the built program (prologue, body, back
    /// edge and halt included) — the denominator of the minimizer's
    /// shrink ratio.
    pub fn instruction_count(&self) -> usize {
        4 + self.steps.iter().map(Step::width).sum::<usize>()
    }

    /// An upper bound on the cycles a healthy run may take: every
    /// dynamic instruction is given a generous worst-case latency
    /// (blocking multiply + mispredict + MMIO round-trip all stack well
    /// below it). A run exceeding this bound indicts the simulator — or
    /// a non-terminating transform — not the program.
    pub fn static_cycle_bound(&self) -> u64 {
        let body = self.steps.iter().map(Step::width).sum::<usize>() as u64 + 2;
        (4 + body * self.trips) * 64
    }

    /// Drop steps the current step list can no longer anchor (a split
    /// at or past the end). Called by the minimizer after deletions.
    pub fn normalize(&mut self) {
        match self.split {
            Some(k) if (k as usize) < self.steps.len() && k > 0 => {}
            _ => self.split = None,
        }
    }
}

/// Generate the case keyed by `seed`.
pub fn generate(seed: u64) -> FuzzCase {
    let mut rng = Rng::new(seed);
    let shape = rng.below(4) as u8;
    let trips = 2 + rng.below(7);
    let n_steps = 1 + rng.below(20) as usize;
    let steps: Vec<Step> = (0..n_steps).map(|_| random_step(&mut rng)).collect();
    let split = if n_steps >= 2 && rng.chance(1, 3) {
        Some((1 + rng.below(n_steps as u64 - 1)) as u8)
    } else {
        None
    };
    let mm_init = std::array::from_fn(|_| {
        if rng.chance(1, 2) {
            RAILS[rng.below(RAILS.len() as u64) as usize]
        } else {
            rng.next_u64()
        }
    });
    let mem_seed = rng.next_u64();
    let mut case = FuzzCase { seed, shape, trips, split, steps, mm_init, mem_seed };
    case.normalize();
    case
}

fn random_step(rng: &mut Rng) -> Step {
    let b = |rng: &mut Rng| rng.next_u64() as u8;
    // Weighted draw: plain MMX traffic dominates, the targeted features
    // (route spans, MMIO staging stores, saturating pressure) each get a
    // dedicated slice so their measured rates stay meaningful.
    match rng.below(20) {
        0..=5 => Step::Mmx { op: b(rng), dst: b(rng), src: b(rng) },
        // Extra saturation pressure: MMX_OPS[3..=10] are the eight
        // saturating add/sub forms.
        6 => Step::Mmx { op: (3 + rng.below(8)) as u8, dst: b(rng), src: b(rng) },
        7..=8 => Step::MmxImm { op: b(rng), dst: b(rng), imm: (rng.below(66)) as u8 },
        9..=10 => Step::Load { dst: b(rng), slot: b(rng) },
        11..=12 => Step::Store { src: b(rng), slot: b(rng) },
        13 => Step::Alu { op: b(rng), dst: b(rng), src: b(rng) },
        14 => Step::AluImm { op: b(rng), dst: b(rng), imm: rng.next_u64() as i32 },
        15 => Step::MovdFromMm { dst: b(rng), src: b(rng) },
        16 => Step::MovdToMm { dst: b(rng), src: b(rng) },
        17..=18 => Step::RouteSpan { far: b(rng), tmp: b(rng), acc: b(rng) },
        _ => Step::MmioStore { ctx: b(rng), off: b(rng), imm: rng.next_u64() as u32 },
    }
}

fn mm(i: u8) -> MmReg {
    MmReg::from_index(i as usize & 7).expect("index masked into the file")
}

fn gp_dst(i: u8) -> GpReg {
    GpReg::from_index(1 + (i as usize % 7)).expect("index within the scalar file")
}

fn gp_src(i: u8) -> GpReg {
    GpReg::from_index(i as usize & 7).expect("index masked into the file")
}

fn slot_addr(slot: u8) -> Mem {
    Mem::abs(MEM_BASE + (slot as u32 % MEM_SLOTS) * 8)
}

/// The [`MMX_OPS`] entry a `Mmx` step's `op` byte selects.
pub fn step_mmx_op(op: u8) -> MmxOp {
    MMX_OPS[op as usize % MMX_OPS.len()]
}

/// Build the program a case describes. The skeleton is fixed — counter
/// init, loop label, body, `sub`/`jnz` back edge, loop metadata, halt —
/// so every case is structurally valid by construction; `finish()`
/// re-validates anyway and any error is surfaced (never panicked) so the
/// oracle can contain it.
pub fn build_program(case: &FuzzCase) -> Result<Program, String> {
    let mut b = ProgramBuilder::new(format!("fuzz-{:016x}", case.seed));
    b.mov_ri(GpReg::from_index(0).expect("r0 exists"), case.trips as i32);
    let l = b.bind_here("loop");
    for (k, s) in case.steps.iter().enumerate() {
        if case.split == Some(k as u8) && k > 0 {
            b.bind_here("split");
        }
        emit_step(&mut b, s);
    }
    b.alu_ri(AluOp::Sub, GpReg::from_index(0).expect("r0 exists"), 1);
    b.jcc(Cond::Ne, l);
    b.mark_loop(l, Some(case.trips));
    b.halt();
    b.finish().map_err(|e| format!("builder rejected generated program: {e}"))
}

fn emit_step(b: &mut ProgramBuilder, s: &Step) {
    match *s {
        Step::Mmx { op, dst, src } => {
            b.mmx_rr(step_mmx_op(op), mm(dst), mm(src));
        }
        Step::MmxImm { op, dst, imm } => {
            b.mmx_ri(SHIFT_OPS[op as usize % SHIFT_OPS.len()], mm(dst), imm % 66);
        }
        Step::Load { dst, slot } => {
            b.movq_load(mm(dst), slot_addr(slot));
        }
        Step::Store { src, slot } => {
            b.movq_store(slot_addr(slot), mm(src));
        }
        Step::Alu { op, dst, src } => {
            b.alu_rr(ALU_OPS[op as usize % ALU_OPS.len()], gp_dst(dst), gp_src(src));
        }
        Step::AluImm { op, dst, imm } => {
            b.alu_ri(ALU_OPS[op as usize % ALU_OPS.len()], gp_dst(dst), imm);
        }
        Step::MovdFromMm { dst, src } => {
            b.movd_from_mm(gp_dst(dst), mm(src));
        }
        Step::MovdToMm { dst, src } => {
            b.movd_to_mm(mm(dst), gp_src(src));
        }
        Step::RouteSpan { far, tmp, acc } => {
            // Keep the three registers distinct so the copy is a real
            // realignment (a `movq mm, mm` self-move is not liftable)
            // and the consumer reads the copy, not itself.
            let f = far & 7;
            let t = (f + 1 + (tmp % 7)) & 7;
            let mut a = (t + 1 + (acc % 7)) & 7;
            if a == f {
                a = (a + 1) & 7;
                if a == t {
                    a = (a + 1) & 7;
                }
            }
            b.movq_rr(mm(t), mm(f));
            b.mmx_rr(MmxOp::Paddw, mm(a), mm(t));
        }
        Step::MmioStore { ctx, off, imm } => {
            let addr = SPU_MMIO_BASE
                + (ctx as u32 % CONTEXTS as u32) * CONTEXT_STRIDE
                + MMIO_OFFS[off as usize % MMIO_OFFS.len()];
            b.store_imm(Mem::abs(addr), imm);
        }
    }
}

/// Which targeted grammar features a case exercises (the generator
/// validity test measures these rates over a large sample).
#[derive(Clone, Copy, Debug, Default)]
pub struct Features {
    /// At least one saturating MMX op.
    pub saturating: bool,
    /// At least one realignment-class instruction (lift candidates).
    pub realignment: bool,
    /// At least one `RouteSpan` chain.
    pub route_span: bool,
    /// At least one MMIO staging store.
    pub mmio_store: bool,
    /// An interior label (multi-region body).
    pub multi_region: bool,
    /// At least one scalar ALU step.
    pub scalar: bool,
}

/// Feature census of one case.
pub fn features(case: &FuzzCase) -> Features {
    let mut f = Features { multi_region: case.split.is_some(), ..Features::default() };
    for s in &case.steps {
        match s {
            Step::Mmx { op, .. } => {
                let op = step_mmx_op(*op);
                f.saturating |= SATURATING_OPS.contains(&op);
                f.realignment |= op.is_realignment_class();
            }
            Step::RouteSpan { .. } => {
                f.route_span = true;
                f.realignment = true;
            }
            Step::MmioStore { .. } => f.mmio_store = true,
            Step::Alu { .. } | Step::AluImm { .. } => f.scalar = true,
            _ => {}
        }
    }
    f
}
