//! # subword-kernels
//!
//! The evaluation workloads, in two [`suite::Family`]s: the **paper**
//! family — the eight Intel IPP media routines of Figure 9 / Tables 2–3
//! re-implemented as hand-tuned MMX assembly for the `subword-sim`
//! machine, plus the Figure 5 dot-product running example — and the
//! **pixel** family (SAD candidate search, YUV→RGB, alpha blend, 3×3
//! convolution), u8 image kernels where the saturating arithmetic and
//! byte-lane shuffles of the paper's §2 dominate (DESIGN.md §8).
//!
//! Every kernel provides
//!
//! * a **scalar golden reference** in plain Rust ([`refimpl`]) with
//!   bit-exact fixed-point semantics,
//! * an **MMX-only program** following the documented IPP idioms
//!   (coefficient replication in the FIRs, scalar recurrences in the IIR,
//!   scalar butterflies in the FFTs, `pmaddwd`-based matrix kernels,
//!   Figure 3 unpack networks in the transpose),
//! * and, through `subword-compile`'s automatic lifting pass, an
//!   **MMX+SPU variant** whose realignment instructions are folded into
//!   SPU routings — the paper's §5.2.1 methodology ("each of the
//!   algorithms is re-coded to avoid utilizing the permutation
//!   instructions that can be addressed by the SPU unit").
//!
//! [`suite`] assembles the per-family benchmark lists and [`paper`]
//! records the published Table 2/3 numbers for paper-vs-measured
//! reporting.
//! [`measure`] runs the simulations (baseline/SPU, optionally scheduled,
//! × two block counts) that extract steady-state per-block statistics.

pub mod fixed;
pub mod framework;
pub mod k_blend;
pub mod k_conv3x3;
pub mod k_dct;
pub mod k_dotprod;
pub mod k_fft;
pub mod k_fir;
pub mod k_iir;
pub mod k_matmul;
pub mod k_sad;
pub mod k_transpose;
pub mod k_yuv;
pub mod paper;
pub mod refimpl;
pub mod suite;
pub mod workload;

pub use framework::{
    measure, Kernel, KernelBuild, MeasureOpts, Measurement, MeasurementRecord, VariantStats,
};
pub use paper::PaperRow;
pub use suite::{all_suites, family_suite, paper_suite, pixel_suite, Family, SuiteEntry};
