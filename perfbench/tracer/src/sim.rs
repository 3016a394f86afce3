//! One simulator run with its spans and model counters.

use crate::span::{count, span};
use subword_isa::program::Program;
use subword_sim::{ExecEngine, Machine, MachineConfig, PipelineKind, SimStats};

/// Span and instruction-counter names of the simulator layer `cfg`
/// selects. Under the out-of-order model every engine runs the one
/// out-of-order path, so the engine does not name the layer there.
fn layer(cfg: &MachineConfig) -> (&'static str, &'static str) {
    match (cfg.pipeline, cfg.engine) {
        (PipelineKind::OutOfOrder, _) => ("sim.ooo", "sim.ooo.instructions"),
        (PipelineKind::InOrder, ExecEngine::Reference) => {
            ("sim.reference", "sim.reference.instructions")
        }
        (PipelineKind::InOrder, ExecEngine::Decoded) => ("sim.decoded", "sim.decoded.instructions"),
        (PipelineKind::InOrder, ExecEngine::Threaded) => {
            ("sim.threaded.inorder", "sim.threaded.inorder.instructions")
        }
    }
}

/// Build a machine for `cfg`, initialise it with `init`, run `program`
/// on it and record the run's counters. Machine construction and
/// initialisation are the `sim.machine` layer; the run itself is the
/// engine's layer.
pub fn run(
    cfg: MachineConfig,
    program: &Program,
    init: impl FnOnce(&mut Machine) -> Result<(), String>,
) -> Result<(Machine, SimStats), String> {
    let (name, instructions) = layer(&cfg);
    let mut m = span("sim.machine", || {
        let mut m = Machine::new(cfg);
        init(&mut m).map(|()| m)
    })?;
    let stats = span(name, || m.run(program)).map_err(|e| e.to_string())?;
    count(instructions, stats.instructions);
    if m.cfg.pipeline == PipelineKind::OutOfOrder {
        count("model.ooo.cycles", stats.cycles);
        count("model.ooo.rob_stall_cycles", m.ooo.rob_stall_cycles);
        count("model.ooo.rob_occupancy_sum", m.ooo.rob_occupancy_sum);
        count("model.ooo.dispatched", m.ooo.dispatched);
    } else {
        count("model.inorder.cycles", stats.cycles);
        count("model.inorder.stall_cycles", stats.stall_cycles);
        count("model.inorder.pairs", stats.pairs);
        count("model.inorder.singles", stats.singles);
        if m.cfg.engine == ExecEngine::Threaded {
            count("sim.translate.replayed_slots", m.translation.replayed_slots);
            count("sim.translate.fallback_slots", m.translation.fallback_slots);
        }
    }
    Ok((m, stats))
}
