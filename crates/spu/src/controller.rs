//! The decoupled SPU controller (paper §3, Figure 8).
//!
//! A dynamically-programmed state machine that steps **once per dynamic
//! instruction** while the GO bit is set, supplying the crossbar
//! configuration for that instruction's operand fetch. Two counters give
//! zero-overhead looping: each state names one counter; the counter
//! decrements on the step; on reaching zero the controller takes the
//! state's `NextState0` arc and the counter auto-reloads its programmed
//! initial value ("the SPU automatically restores the CNTR value to its
//! original programmed state after reaching zero" — paper §4), which is
//! what makes two-deep loop nests free. Reaching state 127 (idle) clears
//! GO.
//!
//! Multiple *contexts* (full copies of the control state) support fast
//! switching between kernels (paper §3: "The SPU can support several copies
//! of the SPU control registers, allowing for fast context switching").

use crate::crossbar::{ByteRoute, CrossbarShape};
use crate::microcode::{SpuState, IDLE_STATE, NUM_STATES};
use crate::program::{SpuError, SpuProgram};

/// Number of contexts every controller holds (the paper evaluates a
/// single-context SPU; extra contexts cost area — see `subword-hw`). The
/// MMIO map ([`crate::mmio`]) addresses exactly this many, and the
/// lifting pass assigns at most this many loops to the SPU.
pub const CONTEXTS: usize = 4;

/// One loaded context: dense state table + counter programming.
#[derive(Clone, Debug)]
pub struct SpuContext {
    states: Box<[SpuState; NUM_STATES]>,
    counter_init: [u32; 2],
    entry: u8,
}

impl Default for SpuContext {
    fn default() -> Self {
        SpuContext {
            states: Box::new([SpuState::default(); NUM_STATES]),
            counter_init: [1, 1],
            entry: 0,
        }
    }
}

impl SpuContext {
    /// The routing the state supplies to the instruction issued while it
    /// is current.
    fn routing_of(&self, state: u8) -> StepRouting {
        let s = self.states[state as usize];
        StepRouting { route_a: s.route_a, route_b: s.route_b }
    }

    /// One controller step from `(state, counters)`: decrement the
    /// state's counter; zero takes the `NextState0` arc and auto-reloads
    /// the counter. This is **the** counter/arc arithmetic —
    /// [`SpuController::on_issue`] and the peek methods all call it, so a
    /// peek can never drift from the live controller.
    fn advance(&self, state: u8, mut counters: [u32; 2]) -> (u8, [u32; 2]) {
        let s = self.states[state as usize];
        let c = (s.cntr & 1) as usize;
        counters[c] = counters[c].saturating_sub(1);
        if counters[c] == 0 {
            counters[c] = self.counter_init[c];
            (s.next0, counters)
        } else {
            (s.next1, counters)
        }
    }
}

/// The routing decision for one issued instruction: the two crossbar
/// routes of the current state. A routed operand is the gathered value
/// itself; nothing transforms it on the way to the functional unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepRouting {
    /// Routing for the first operand lane (`None` = straight).
    pub route_a: Option<ByteRoute>,
    /// Routing for the second operand lane (`None` = straight).
    pub route_b: Option<ByteRoute>,
}

impl StepRouting {
    /// True if either lane is routed.
    pub fn routes_anything(&self) -> bool {
        self.route_a.is_some() || self.route_b.is_some()
    }
}

/// Usage counters for Table 3-style accounting. Each one is reported:
/// the simulator copies them into its run statistics as `spu_steps`,
/// `spu_routed` and `spu_activations`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpuUsage {
    /// Controller steps taken (= dynamic instructions executed under GO).
    pub steps: u64,
    /// Steps whose state routed at least one operand (= permutations
    /// off-loaded to the SPU).
    pub routed_steps: u64,
    /// GO activations.
    pub activations: u64,
}

/// The SPU controller with its contexts and run state.
#[derive(Clone, Debug)]
pub struct SpuController {
    /// Interconnect shape this controller drives (routes are validated
    /// against it at load time).
    pub shape: CrossbarShape,
    contexts: [SpuContext; CONTEXTS],
    active: usize,
    go: bool,
    state: u8,
    counters: [u32; 2],
    /// Programs loaded into any context ([`SpuController::loads`]).
    loads: u64,
    /// Usage statistics.
    pub usage: SpuUsage,
}

impl SpuController {
    /// A controller with [`CONTEXTS`] empty contexts.
    pub fn new(shape: CrossbarShape) -> SpuController {
        SpuController {
            shape,
            contexts: Default::default(),
            active: 0,
            go: false,
            state: IDLE_STATE,
            counters: [1, 1],
            loads: 0,
            usage: SpuUsage::default(),
        }
    }

    /// Load a validated program into context `slot`.
    pub fn load_program(&mut self, slot: usize, prog: &SpuProgram) -> Result<(), SpuError> {
        prog.validate(&self.shape)?;
        let ctx = &mut self.contexts[slot];
        ctx.states = prog.dense_states();
        ctx.counter_init = prog.counter_init;
        ctx.entry = prog.entry;
        self.loads += 1;
        Ok(())
    }

    /// Programs loaded so far: the successful [`load_program`] calls.
    /// Nothing else changes what a context routes, so two moments with
    /// the same count and the same live state (active context, state,
    /// counters) route alike until the next load.
    ///
    /// [`load_program`]: SpuController::load_program
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Select the active context (models the config-register context
    /// field). Deactivates the controller.
    pub fn select_context(&mut self, slot: usize) {
        assert!(slot < self.contexts.len(), "context {slot} out of range");
        self.active = slot;
        self.go = false;
        self.state = IDLE_STATE;
    }

    /// Currently selected context index.
    pub fn active_context(&self) -> usize {
        self.active
    }

    /// Write the GO bit: enter the active context's entry state with
    /// freshly initialised counters.
    pub fn activate(&mut self) {
        let ctx = &self.contexts[self.active];
        self.state = ctx.entry;
        self.counters = ctx.counter_init;
        self.go = true;
        self.usage.activations += 1;
    }

    /// Clear the GO bit (exception handlers do this — paper §4: "on an
    /// exception, we can either ensure that the exception handler disables
    /// the SPU by writing to the SPU control register, or switches to a
    /// free context").
    pub fn deactivate(&mut self) {
        self.go = false;
        self.state = IDLE_STATE;
    }

    /// True while the controller is live.
    pub fn is_active(&self) -> bool {
        self.go
    }

    /// Current state id (for status reads and debugging).
    pub fn current_state(&self) -> u8 {
        self.state
    }

    /// Current counter values.
    pub fn counters(&self) -> [u32; 2] {
        self.counters
    }

    /// Called by the pipeline for **every dynamic instruction issued**
    /// while the controller may be active. Returns the routing to apply to
    /// this instruction's operand fetch and advances the state machine.
    ///
    /// When inactive this is a no-op returning straight routing ("When the
    /// SPU is not active, data is transferred to the MMX computational
    /// units as it exists in the register file").
    pub fn on_issue(&mut self) -> StepRouting {
        if !self.go {
            return StepRouting::default();
        }
        let ctx = &self.contexts[self.active];
        let routing = ctx.routing_of(self.state);
        self.usage.steps += 1;
        if routing.routes_anything() {
            self.usage.routed_steps += 1;
        }
        let (state, counters) = ctx.advance(self.state, self.counters);
        self.state = state;
        self.counters = counters;
        if self.state == IDLE_STATE {
            // Idle: disable and leave counters at their (re-initialised)
            // values.
            self.go = false;
        }
        routing
    }

    /// The routing the controller would apply to the `n`-th next issued
    /// instruction (`n = 0` is the immediate next), **without** mutating
    /// controller state.
    ///
    /// The pipeline uses this during pairing analysis: the second slot of
    /// a candidate pair needs its routing (and thus its effective register
    /// reads) before either instruction has issued.
    pub fn peek_routing(&self, n: usize) -> StepRouting {
        if !self.go {
            return StepRouting::default();
        }
        let ctx = &self.contexts[self.active];
        let mut state = self.state;
        let mut counters = self.counters;
        for _ in 0..n {
            (state, counters) = ctx.advance(state, counters);
            if state == IDLE_STATE {
                return StepRouting::default();
            }
        }
        ctx.routing_of(state)
    }

    /// The routings for the next **two** issued instructions, in one
    /// walk — equivalent to `(peek_routing(0), peek_routing(1))` but
    /// without redoing the first step's counter arithmetic. The pipeline
    /// calls this once per issue slot during pairing analysis.
    pub fn peek_routing_pair(&self) -> (StepRouting, StepRouting) {
        if !self.go {
            return (StepRouting::default(), StepRouting::default());
        }
        let ctx = &self.contexts[self.active];
        let (next, _) = ctx.advance(self.state, self.counters);
        let second = if next == IDLE_STATE { StepRouting::default() } else { ctx.routing_of(next) };
        (ctx.routing_of(self.state), second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::{SHAPE_A, SHAPE_D};
    use subword_isa::reg::MmReg::*;

    fn dot_program() -> SpuProgram {
        let op_a = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
        let op_b = ByteRoute::from_reg_words([(MM0, 2), (MM1, 2), (MM0, 3), (MM1, 3)]);
        SpuProgram::single_loop(
            "dot",
            &[(Some(op_a), Some(op_b)), (Some(op_a), Some(op_b)), (None, None)],
            10,
        )
    }

    /// Walk the paper's Figure 7 program: 3 states × 10 iterations = 30
    /// steps, then automatic idle + counter re-initialisation.
    #[test]
    fn figure7_thirty_steps_then_idle() {
        let mut c = SpuController::new(SHAPE_D);
        c.load_program(0, &dot_program()).unwrap();
        c.activate();
        assert!(c.is_active());
        let mut routed = 0;
        for step in 0..30 {
            assert!(c.is_active(), "inactive at step {step}");
            let r = c.on_issue();
            if r.routes_anything() {
                routed += 1;
            }
            // States 0 and 1 route; state 2 (the jump) is straight.
            assert_eq!(r.routes_anything(), step % 3 != 2);
        }
        assert!(!c.is_active(), "controller should idle after 30 steps");
        assert_eq!(routed, 20);
        assert_eq!(c.usage.steps, 30);
        assert_eq!(c.usage.routed_steps, 20);
        // Counters auto-reloaded for the next activation.
        assert_eq!(c.counters()[0], 30);
        // Re-arming works without reprogramming.
        c.activate();
        assert!(c.is_active());
        assert_eq!(c.current_state(), 0);
        assert_eq!(c.counters()[0], 30);
    }

    #[test]
    fn inactive_controller_routes_straight() {
        let mut c = SpuController::new(SHAPE_A);
        assert_eq!(c.on_issue(), StepRouting::default());
        assert_eq!(c.usage.steps, 0);
    }

    /// A two-deep loop nest using both counters: inner body of 2 states
    /// run 3 times per outer iteration, outer body of 1 extra state, 4
    /// outer iterations. Counter 0 counts inner steps (2*3, auto-reloading
    /// per outer iteration), counter 1 counts outer-tail steps (1*4).
    #[test]
    fn nested_loops_with_two_counters() {
        let inner_len = 2u32;
        let inner_trips = 3u32;
        let outer_trips = 4u32;
        let prog = SpuProgram {
            name: "nest".into(),
            states: vec![
                // Inner body: states 0,1 cycling, exit to 2 when CNTR0=0.
                (0, SpuState::straight(0, 2, 1)), // also exits here if count hits 0 mid-body (won't)
                (1, SpuState::straight(0, 2, 0)),
                // Outer tail: state 2 on CNTR1; loops back to inner or idles.
                (2, SpuState::straight(1, IDLE_STATE, 0)),
            ],
            counter_init: [inner_len * inner_trips, outer_trips],
            entry: 0,
            window_base: 0,
        };
        let mut c = SpuController::new(SHAPE_A);
        c.load_program(0, &prog).unwrap();
        c.activate();
        let mut steps = 0u32;
        while c.is_active() {
            c.on_issue();
            steps += 1;
            assert!(steps < 1000, "runaway controller");
        }
        // Total dynamic steps: outer_trips * (inner_len*inner_trips + 1).
        assert_eq!(steps, outer_trips * (inner_len * inner_trips + 1));
    }

    /// `peek_routing_pair` equals `(peek_routing(0), peek_routing(1))` at
    /// every point of a program's execution, including across the idle
    /// transition.
    #[test]
    fn peek_pair_matches_individual_peeks() {
        let mut c = SpuController::new(SHAPE_D);
        c.load_program(0, &dot_program()).unwrap();
        assert_eq!(c.peek_routing_pair(), (StepRouting::default(), StepRouting::default()));
        c.activate();
        for step in 0..30 {
            assert_eq!(
                c.peek_routing_pair(),
                (c.peek_routing(0), c.peek_routing(1)),
                "divergence at step {step}"
            );
            c.on_issue();
        }
        assert_eq!(c.peek_routing_pair(), (StepRouting::default(), StepRouting::default()));
    }

    #[test]
    fn context_switching() {
        let mut c = SpuController::new(SHAPE_D);
        c.load_program(0, &dot_program()).unwrap();
        let other = SpuProgram::single_loop("other", &[(None, None)], 5);
        c.load_program(1, &other).unwrap();

        // Context 0 runs `dot` (30 steps), which outlasts `other`'s five.
        c.activate();
        for _ in 0..6 {
            assert!(c.is_active());
            c.on_issue();
        }
        c.select_context(1);
        assert!(!c.is_active(), "context switch deactivates");
        assert_eq!(c.active_context(), 1);
        c.activate();
        for _ in 0..5 {
            assert!(c.is_active());
            c.on_issue();
        }
        assert!(!c.is_active());
    }

    #[test]
    fn load_rejects_invalid_for_shape() {
        // Byte scatter cannot load into a 16-bit-port controller.
        let scatter = ByteRoute([7, 6, 5, 4, 3, 2, 1, 0]);
        let p = SpuProgram::single_loop("s", &[(Some(scatter), None)], 1);
        let mut c = SpuController::new(SHAPE_D);
        assert!(matches!(c.load_program(0, &p), Err(SpuError::Route { .. })));
        let mut c = SpuController::new(SHAPE_A);
        assert!(c.load_program(0, &p).is_ok());
    }

    #[test]
    fn deactivate_parks_controller() {
        let mut c = SpuController::new(SHAPE_D);
        c.load_program(0, &dot_program()).unwrap();
        c.activate();
        c.on_issue();
        c.deactivate();
        assert!(!c.is_active());
        assert_eq!(c.current_state(), IDLE_STATE);
        assert_eq!(c.on_issue(), StepRouting::default());
    }
}
