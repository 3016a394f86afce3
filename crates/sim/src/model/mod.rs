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
//! * [`ooo`] — a small out-of-order core (reorder buffer, reservation
//!   stations, register-availability table, store buffer with in-order
//!   retirement) used as a sensitivity axis: does SPU lifting still pay
//!   once the core extracts its own ILP?
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
//! ([`crate::ExecEngine`]), which only picks how the in-order semantics
//! are evaluated (reference / decoded / trace-threaded).
//! [`Machine::run`](crate::Machine::run) checks the model first: under
//! [`PipelineKind::OutOfOrder`] every engine setting takes the one
//! out-of-order run path, so no engine ever sees that model (threaded
//! traces bake in in-order pairing decisions and could not replay it).
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

/// Size parameters of the out-of-order backend. The defaults sketch a
/// small Pentium-Pro-class core — deliberately modest, since the
/// question is whether *any* dynamic ILP extraction erodes the SPU
/// lifting win, not whether an ideal dataflow machine would. Every field
/// must be at least 1: an out-of-order run refuses a zero
/// ([`crate::SimError::ZeroOooParam`]) rather than wait forever for a
/// structure that can never hold an instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OooParams {
    /// Reorder-buffer entries (in-flight instructions).
    pub rob_entries: u64,
    /// Reservation-station entries (dispatched but not yet executing).
    pub rs_entries: u64,
    /// Instructions dispatched (renamed + ROB-allocated) per cycle; also
    /// the execution-start bandwidth per cycle.
    pub issue_width: u64,
    /// Instructions retired per cycle.
    pub retire_width: u64,
    /// Store-buffer entries (stores dispatched but not yet retired).
    pub store_buffer: u64,
}

impl Default for OooParams {
    fn default() -> Self {
        OooParams {
            rob_entries: 24,
            rs_entries: 12,
            issue_width: 3,
            retire_width: 3,
            store_buffer: 8,
        }
    }
}

impl OooParams {
    /// The first field that is 0, by name, or `None` when every
    /// structure can hold an instruction.
    pub(crate) fn zero_field(&self) -> Option<&'static str> {
        [
            ("rob_entries", self.rob_entries),
            ("rs_entries", self.rs_entries),
            ("issue_width", self.issue_width),
            ("retire_width", self.retire_width),
            ("store_buffer", self.store_buffer),
        ]
        .into_iter()
        .find_map(|(name, n)| (n == 0).then_some(name))
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

impl OooStats {
    /// Mean ROB occupancy observed at dispatch.
    pub fn avg_rob_occupancy(&self) -> f64 {
        if self.dispatched == 0 {
            0.0
        } else {
            self.rob_occupancy_sum as f64 / self.dispatched as f64
        }
    }
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
        let p = OooParams::default();
        assert!(p.rob_entries >= p.rs_entries);
        assert_eq!(p.zero_field(), None);
    }
}
