//! Pipeline-model layer: the seam between *what* instructions do and
//! *when* they are considered issued, executed and retired.
//!
//! Everything timing-related in the simulator lives behind this module:
//!
//! * [`issue`] — the machine-model parameters shared with the compiler
//!   (slot costs, operand-ready scoreboard queries, static replay);
//! * [`pipeline`] — pairing legality and effective (post-routing)
//!   operand sets;
//! * [`inorder`] — the Pentium/P55C dual-issue in-order pipe: the
//!   paper's evaluation machine, and the model every committed baseline
//!   number was measured on;
//! * [`ooo`] — one fixed small out-of-order core (24-entry reorder
//!   buffer, 12 reservation stations, 3-wide, 8-entry store buffer,
//!   in-order retirement) used as a sensitivity axis: does SPU lifting
//!   still pay once the core extracts its own ILP? Its sizes are
//!   constants of that module, not configuration.
//!
//! # The seam contract
//!
//! A pipeline model decides **timing only**. Architectural results —
//! registers, memory, SPU controller trajectory, branch-predictor
//! updates, golden outputs — are produced by the shared functional
//! executor (`Machine::exec` in [`crate::machine`]) in program order under
//! *every* model, so they are bit-identical across
//! [`PipelineKind::InOrder`] and [`PipelineKind::OutOfOrder`] by
//! construction (the differential tests and the fuzz oracle enforce
//! this). Only the timing-derived [`crate::SimStats`] fields (`cycles`,
//! `stall_cycles`, `imul_block_cycles` and the pairing/occupancy
//! counters) may differ between models; every count-type field is
//! model-invariant.
//!
//! The model is selected by [`MachineConfig::pipeline`]
//! (default [`PipelineKind::InOrder`], so every pre-existing baseline
//! stays bit-identical), orthogonally to the execution *engine*
//! ([`crate::ExecEngine`]), which picks how the semantics are evaluated
//! (reference / decoded / trace-threaded).
//! [`Machine::run`](crate::Machine::run) checks the model first: under
//! [`PipelineKind::OutOfOrder`] every engine setting takes the one
//! out-of-order run path, so the in-order engines never see that model
//! (threaded traces bake in in-order pairing decisions and could not
//! replay it). On that path the engine picks how the timing is
//! evaluated: [`ExecEngine::Threaded`](crate::ExecEngine::Threaded), the
//! default, replays memoised per-region timings ([`ooo`]'s timing
//! replay), while [`ExecEngine::Decoded`](crate::ExecEngine::Decoded)
//! and [`ExecEngine::Reference`](crate::ExecEngine::Reference) time
//! every instruction. Both give bit-identical statistics, so the
//! stepping engines are the replay's oracle.
//!
//! The PR 3 static scheduler deliberately stays bound to the in-order
//! model: its acceptance test is [`issue::replay_order`] on the
//! dual-issue pairing rules. Under the out-of-order model its schedules
//! still execute correctly (same architectural results) but carry no
//! cycle guarantee — measuring by how much its win shrinks there is the
//! experiment, not a bug.
//!
//! [`MachineConfig::pipeline`]: crate::MachineConfig::pipeline

pub mod inorder;
pub mod issue;
pub mod ooo;
pub mod pipeline;

/// Which pipeline model [`crate::machine::Machine::run`] times the
/// program on. Selecting a model never changes architectural results —
/// only the timing-derived statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PipelineKind {
    /// Pentium/P55C dual-issue in-order pipe (the paper's machine):
    /// U/V pairing rules, MMX result scoreboard, blocking scalar
    /// multiplier. The default, and the model the scheduler's
    /// never-slower contract is defined on.
    #[default]
    InOrder,
    /// Small out-of-order core ([`ooo`]): ROB + reservation stations +
    /// register-availability table + store buffer, in-order retirement.
    OutOfOrder,
}

impl PipelineKind {
    /// Stable lower-case name used in report columns, cache keys and
    /// CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineKind::InOrder => "in-order",
            PipelineKind::OutOfOrder => "ooo",
        }
    }

    /// Parse a CLI/report spelling. Accepts the [`Self::name`] forms
    /// plus common aliases (`inorder`, `out-of-order`).
    pub fn from_name(s: &str) -> Option<PipelineKind> {
        match s {
            "in-order" | "inorder" => Some(PipelineKind::InOrder),
            "ooo" | "out-of-order" | "outoforder" => Some(PipelineKind::OutOfOrder),
            _ => None,
        }
    }
}

/// Out-of-order-specific counters, kept beside [`crate::SimStats`]
/// rather than inside it (the same split as
/// [`crate::translate::TranslationStats`]): `SimStats` stays the
/// model-comparable surface, these describe one model's internals.
/// Zeroed by every run; only the out-of-order path fills them in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OooStats {
    /// Dispatch cycles lost because the reorder buffer was full.
    pub rob_stall_cycles: u64,
    /// Dispatch cycles lost because the reservation stations were full.
    pub rs_stall_cycles: u64,
    /// Dispatch cycles lost because the store buffer was full.
    pub sb_stall_cycles: u64,
    /// Instructions whose dispatch stalled on any back-end resource
    /// (ROB/RS/store-buffer), i.e. rename-stage stalls.
    pub rename_stalls: u64,
    /// Sum over dispatches of the ROB occupancy observed at dispatch;
    /// divide by dispatch count ([`OooStats::dispatched`]) for the mean.
    pub rob_occupancy_sum: u64,
    /// Peak ROB occupancy (including the dispatching instruction).
    pub rob_peak: u64,
    /// Instructions dispatched (= retired: the functional executor never
    /// fetches a wrong path, so no work is thrown away; mispredicts cost
    /// fetch-redirect bubbles, not squashed instructions).
    pub dispatched: u64,
    /// Fetch redirects taken (mispredicted branches resolved at
    /// execute).
    pub flushes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_kind_names_round_trip() {
        for k in [PipelineKind::InOrder, PipelineKind::OutOfOrder] {
            assert_eq!(PipelineKind::from_name(k.name()), Some(k));
        }
        assert_eq!(PipelineKind::from_name("inorder"), Some(PipelineKind::InOrder));
        assert_eq!(PipelineKind::from_name("out-of-order"), Some(PipelineKind::OutOfOrder));
        assert_eq!(PipelineKind::from_name("vliw"), None);
    }

    #[test]
    fn default_pipeline_is_in_order() {
        assert_eq!(PipelineKind::default(), PipelineKind::InOrder);
    }
}
