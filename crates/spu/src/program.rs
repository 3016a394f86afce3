//! Host-side SPU programs: a named set of micro-code states plus counter
//! initialisation, entry state and window base, with validation against a
//! crossbar shape.
//!
//! The canonical single-loop pattern (paper Figure 7) is built by
//! [`SpuProgram::single_loop`]: states `0..L-1` cycle through the loop body
//! (one state per dynamic instruction), all selecting counter 0, all with
//! `NextState0 = IDLE`; the counter is initialised to
//! `L × trip_count` — exactly the `10 * 3 = 30` of the paper's dot-product
//! example.

use crate::crossbar::{ByteRoute, CrossbarShape, RouteError};
use crate::microcode::{SpuState, IDLE_STATE, NUM_STATES};
use std::fmt;

/// Errors raised when validating or loading an SPU program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpuError {
    /// State id ≥ 127 used for a programmable state.
    ReservedState { id: u8 },
    /// Entry state is idle or undefined.
    BadEntry { entry: u8 },
    /// A next-state pointer references an undefined state.
    UndefinedNext { from: u8, to: u8 },
    /// A counter used by some state has a zero initial value.
    ZeroCounter { counter: u8 },
    /// A route is not expressible in the target crossbar shape.
    Route { state: u8, err: RouteError },
    /// More states than the controller holds.
    TooManyStates { count: usize },
    /// The MMIO region contained an undecodable program.
    BadMmioImage { reason: &'static str },
}

impl fmt::Display for SpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpuError::ReservedState { id } => write!(f, "state {id} is reserved (idle)"),
            SpuError::BadEntry { entry } => write!(f, "entry state {entry} is not programmable"),
            SpuError::UndefinedNext { from, to } => {
                write!(f, "state {from} points to undefined state {to}")
            }
            SpuError::ZeroCounter { counter } => {
                write!(f, "counter {counter} is selected but initialised to zero")
            }
            SpuError::Route { state, err } => write!(f, "state {state}: {err}"),
            SpuError::TooManyStates { count } => {
                write!(f, "{count} states exceed the {NUM_STATES}-state controller")
            }
            SpuError::BadMmioImage { reason } => write!(f, "bad MMIO program image: {reason}"),
        }
    }
}

impl std::error::Error for SpuError {}

/// A complete SPU controller program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpuProgram {
    /// Name for reports.
    pub name: String,
    /// Sparse state table: `(state id, state)`. Ids must be `< 127` and
    /// unique.
    pub states: Vec<(u8, SpuState)>,
    /// Initial values of the two zero-overhead loop counters.
    pub counter_init: [u32; 2],
    /// State the controller starts in when GO is written.
    pub entry: u8,
    /// Window base register for windowed crossbar shapes.
    pub window_base: u8,
}

impl SpuProgram {
    /// An empty program (never routes; enters idle on first step).
    pub fn empty(name: impl Into<String>) -> SpuProgram {
        SpuProgram {
            name: name.into(),
            states: vec![(0, SpuState::default())],
            counter_init: [1, 1],
            entry: 0,
            window_base: 0,
        }
    }

    /// Build the paper's canonical single-loop program (Figure 7): one
    /// state per dynamic instruction of the loop body, cycling
    /// `0 → 1 → … → L-1 → 0`, all on counter 0 with
    /// `counter_init = L × trips` and `NextState0 = IDLE`.
    ///
    /// `body[i]` gives the operand routes for the `i`-th instruction of
    /// the loop body (`(None, None)` = straight).
    pub fn single_loop(
        name: impl Into<String>,
        body: &[(Option<ByteRoute>, Option<ByteRoute>)],
        trips: u64,
    ) -> SpuProgram {
        assert!(!body.is_empty(), "empty loop body");
        assert!(body.len() < NUM_STATES, "loop body exceeds controller states");
        let len = body.len() as u8;
        let states = body
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let next1 = ((i as u8) + 1) % len;
                (i as u8, SpuState::routed(0, *a, *b, IDLE_STATE, next1))
            })
            .collect();
        SpuProgram {
            name: name.into(),
            states,
            counter_init: [body.len() as u32 * trips as u32, 1],
            entry: 0,
            window_base: 0,
        }
    }

    /// Total number of programmed states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of states that route at least one operand.
    pub fn routed_state_count(&self) -> usize {
        self.states.iter().filter(|(_, s)| s.routes_anything()).count()
    }

    /// The register span `(lo, hi)` covered by every route in the
    /// program, or `None` when no state routes anything.
    pub fn route_reg_span(&self) -> Option<(u8, u8)> {
        let mut span: Option<(u8, u8)> = None;
        for (_, s) in &self.states {
            for route in [s.route_a, s.route_b].into_iter().flatten() {
                let (base, regs) = route.reg_span();
                let (lo, hi) = span.unwrap_or((base, base + regs - 1));
                span = Some((lo.min(base), hi.max(base + regs - 1)));
            }
        }
        span
    }

    /// The window base register under which every route in this program
    /// falls inside `shape`'s register window, computed directly from the
    /// routes' register span — `None` when the span exceeds the window.
    /// This is the single definition of the window-base search: the
    /// lifting pass and [`SpuProgram::minimal_shape`] both place windows
    /// through it (a span that fits has a base iff any base validates, so
    /// the closed form is equivalent to trying every base). The returned
    /// base does not imply the routes are otherwise expressible — 16-bit
    /// port alignment is a separate, base-independent check that
    /// [`SpuProgram::validate`] still performs.
    pub fn fit_window(&self, shape: &CrossbarShape) -> Option<u8> {
        if shape.full_reach() {
            return Some(0);
        }
        let regs = shape.window_regs() as u8;
        let Some((lo, hi)) = self.route_reg_span() else {
            return Some(0); // nothing routed: any base works
        };
        if hi - lo + 1 > regs {
            return None;
        }
        // Lowest base whose window [base, base+regs) still covers `hi`.
        Some((hi + 1).saturating_sub(regs).min(lo))
    }

    /// The smallest canonical crossbar shape (searching D, C, B, A in
    /// increasing cost order) that can express every route in this
    /// program, along with a window base that works, if any.
    pub fn minimal_shape(&self) -> Option<(CrossbarShape, u8)> {
        use crate::crossbar::{SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D};
        for shape in [SHAPE_D, SHAPE_C, SHAPE_B, SHAPE_A] {
            let Some(base) = self.fit_window(&shape) else { continue };
            let mut candidate = self.clone();
            candidate.window_base = base;
            if candidate.validate(&shape).is_ok() {
                return Some((shape, base));
            }
        }
        None
    }

    /// Validate the program against a crossbar shape.
    pub fn validate(&self, shape: &CrossbarShape) -> Result<(), SpuError> {
        if self.states.len() >= NUM_STATES {
            return Err(SpuError::TooManyStates { count: self.states.len() });
        }
        let mut defined = [false; NUM_STATES];
        defined[IDLE_STATE as usize] = true;
        for (id, _) in &self.states {
            if *id >= IDLE_STATE {
                return Err(SpuError::ReservedState { id: *id });
            }
            defined[*id as usize] = true;
        }
        if self.entry >= IDLE_STATE || !defined[self.entry as usize] {
            return Err(SpuError::BadEntry { entry: self.entry });
        }
        let mut counter_used = [false; 2];
        for (id, s) in &self.states {
            counter_used[(s.cntr & 1) as usize] = true;
            for to in [s.next0, s.next1] {
                if !defined[to as usize & (NUM_STATES - 1)] {
                    return Err(SpuError::UndefinedNext { from: *id, to });
                }
            }
            for route in [s.route_a, s.route_b].into_iter().flatten() {
                shape
                    .validate_route(&route, self.window_base)
                    .map_err(|err| SpuError::Route { state: *id, err })?;
            }
        }
        for (c, used) in counter_used.iter().enumerate() {
            if *used && self.counter_init[c] == 0 {
                return Err(SpuError::ZeroCounter { counter: c as u8 });
            }
        }
        Ok(())
    }

    /// Materialise the dense 128-entry state table (unprogrammed states
    /// default to park-in-idle).
    pub fn dense_states(&self) -> Box<[SpuState; NUM_STATES]> {
        let mut t = Box::new([SpuState::default(); NUM_STATES]);
        for (id, s) in &self.states {
            t[*id as usize] = *s;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::{SHAPE_A, SHAPE_C, SHAPE_D};
    use subword_isa::reg::MmReg::*;

    /// The dot-product routing of paper Figure 5/7.
    fn figure7_program() -> SpuProgram {
        // pmulhw: operands [a e b f] × [c g d h] where MM0=[a b c d],
        // MM1=[e f g h].
        let op_a = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
        let op_b = ByteRoute::from_reg_words([(MM0, 2), (MM1, 2), (MM0, 3), (MM1, 3)]);
        SpuProgram::single_loop(
            "fig7-dot",
            &[
                (Some(op_a), Some(op_b)), // pmulhw
                (Some(op_a), Some(op_b)), // pmullw
                (None, None),             // jump
            ],
            10,
        )
    }

    /// Paper Figure 7: CNTR0 = 10 × 3 = 30; exit state is IDLE.
    #[test]
    fn figure7_counter_is_thirty() {
        let p = figure7_program();
        assert_eq!(p.counter_init[0], 30);
        assert_eq!(p.state_count(), 3);
        assert_eq!(p.routed_state_count(), 2);
        for (_, s) in &p.states {
            assert_eq!(s.next0, IDLE_STATE);
        }
        // next1 cycles 0 → 1 → 2 → 0.
        let dense = p.dense_states();
        assert_eq!(dense[0].next1, 1);
        assert_eq!(dense[1].next1, 2);
        assert_eq!(dense[2].next1, 0);
    }

    #[test]
    fn figure7_fits_shape_d() {
        // Paper §5.1: every application fits configuration D. The
        // dot-product routes touch MM0/MM1 word lanes only.
        let p = figure7_program();
        assert!(p.validate(&SHAPE_D).is_ok());
        assert!(p.validate(&SHAPE_C).is_ok());
        assert!(p.validate(&SHAPE_A).is_ok());
        assert_eq!(p.minimal_shape().unwrap().0.name, "D");
    }

    #[test]
    fn minimal_shape_escalates_for_byte_scatter() {
        // A byte-granular reversal cannot use 16-bit ports.
        let rev = ByteRoute([7, 6, 5, 4, 3, 2, 1, 0]);
        let p = SpuProgram::single_loop("rev", &[(Some(rev), None)], 1);
        let (shape, _) = p.minimal_shape().unwrap();
        assert_eq!(shape.name, "B"); // byte ports, window suffices
    }

    #[test]
    fn minimal_shape_escalates_for_wide_word_reach() {
        // Word routes spanning MM0..MM7 need full reach at word
        // granularity: shape C.
        let r = ByteRoute::from_reg_words([(MM0, 0), (MM7, 3), (MM3, 1), (MM5, 2)]);
        let p = SpuProgram::single_loop("wide", &[(Some(r), None)], 1);
        let (shape, _) = p.minimal_shape().unwrap();
        assert_eq!(shape.name, "C");
    }

    #[test]
    fn fit_window_places_the_span_from_the_routes() {
        use crate::crossbar::SHAPE_B;
        // Routes over mm4..mm7: the only 4-register window is base 4.
        let r = ByteRoute::from_reg_words([(MM4, 0), (MM5, 0), (MM6, 0), (MM7, 0)]);
        let p = SpuProgram::single_loop("w", &[(Some(r), None)], 1);
        assert_eq!(p.route_reg_span(), Some((4, 7)));
        assert_eq!(p.fit_window(&SHAPE_D), Some(4));
        // A one-register route sits at its own base (clamped to cover hi).
        let one = ByteRoute::identity(MM2);
        let p1 = SpuProgram::single_loop("one", &[(Some(one), None)], 1);
        assert_eq!(p1.fit_window(&SHAPE_D), Some(0));
        // Span wider than the window: no base exists.
        let wide = ByteRoute::from_reg_words([(MM0, 0), (MM7, 0), (MM3, 0), (MM5, 0)]);
        let pw = SpuProgram::single_loop("wide", &[(Some(wide), None)], 1);
        assert_eq!(pw.fit_window(&SHAPE_D), None);
        assert_eq!(pw.fit_window(&SHAPE_B), None);
        // Full-reach shapes never need a window; routeless programs fit
        // anywhere.
        assert_eq!(pw.fit_window(&SHAPE_A), Some(0));
        let idle = SpuProgram::single_loop("idle", &[(None, None)], 1);
        assert_eq!(idle.route_reg_span(), None);
        assert_eq!(idle.fit_window(&SHAPE_D), Some(0));
        // The computed base always validates when one exists at all.
        let mut placed = p.clone();
        placed.window_base = p.fit_window(&SHAPE_D).unwrap();
        assert!(placed.validate(&SHAPE_D).is_ok());
    }

    #[test]
    fn validation_rejects_reserved_and_undefined() {
        let mut p = SpuProgram::empty("bad");
        p.states = vec![(127, SpuState::default())];
        p.entry = 127;
        assert!(matches!(p.validate(&SHAPE_A), Err(SpuError::ReservedState { id: 127 })));

        let mut p = SpuProgram::empty("bad2");
        p.states = vec![(0, SpuState::straight(0, IDLE_STATE, 9))];
        assert!(matches!(p.validate(&SHAPE_A), Err(SpuError::UndefinedNext { from: 0, to: 9 })));

        let mut p = SpuProgram::empty("bad3");
        p.entry = 5;
        assert!(matches!(p.validate(&SHAPE_A), Err(SpuError::BadEntry { entry: 5 })));
    }

    #[test]
    fn validation_rejects_zero_counter() {
        let mut p = SpuProgram::single_loop("z", &[(None, None)], 1);
        p.counter_init[0] = 0;
        assert!(matches!(p.validate(&SHAPE_A), Err(SpuError::ZeroCounter { counter: 0 })));
    }

    #[test]
    fn validation_rejects_window_violations() {
        let r = ByteRoute::from_reg_words([(MM6, 0), (MM7, 0), (MM6, 1), (MM7, 1)]);
        let mut p = SpuProgram::single_loop("w", &[(Some(r), None)], 1);
        p.window_base = 0;
        assert!(matches!(p.validate(&SHAPE_D), Err(SpuError::Route { .. })));
        p.window_base = 4;
        assert!(p.validate(&SHAPE_D).is_ok());
    }

    #[test]
    fn dense_states_fill_with_idle_parking() {
        let p = figure7_program();
        let dense = p.dense_states();
        assert_eq!(dense[50], SpuState::default());
        assert_eq!(dense[IDLE_STATE as usize], SpuState::default());
    }
}
