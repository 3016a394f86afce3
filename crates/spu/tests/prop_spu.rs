//! Property-based tests of the SPU: crossbar routing laws, microcode
//! round-trips, controller step-count invariants, and MMIO transport.

use proptest::prelude::*;
use subword_spu::controller::SpuController;
use subword_spu::crossbar::{ByteRoute, SHAPE_A, SHAPE_C, SHAPE_D};
use subword_spu::microcode::{SpuState, IDLE_STATE};
use subword_spu::mmio::{SpuMmio, SPU_MMIO_BASE};
use subword_spu::SpuProgram;

fn arb_route() -> impl Strategy<Value = ByteRoute> {
    proptest::array::uniform8(0u8..64).prop_map(ByteRoute)
}

fn arb_word_route() -> impl Strategy<Value = ByteRoute> {
    proptest::array::uniform4(0u8..32).prop_map(ByteRoute::from_words)
}

proptest! {
    /// Routing is a pure gather: every output byte equals the selected
    /// file byte; applying twice with the identity is idempotent.
    #[test]
    fn route_is_a_gather(route in arb_route(), file in proptest::array::uniform32(any::<u8>())) {
        // Build a full 64-byte file from 32 random bytes doubled.
        let mut f = [0u8; 64];
        f[..32].copy_from_slice(&file);
        f[32..].copy_from_slice(&file);
        let out = route.apply(&f).to_le_bytes();
        for (i, &sel) in route.0.iter().enumerate() {
            prop_assert_eq!(out[i], f[sel as usize]);
        }
    }

    /// Word-granular routes always validate on word-port shapes; byte
    /// scatters validate on shape A.
    #[test]
    fn shape_validation_laws(wr in arb_word_route(), br in arb_route()) {
        prop_assert!(SHAPE_C.validate_route(&wr, 0).is_ok());
        prop_assert!(SHAPE_A.validate_route(&br, 0).is_ok());
        // Shape D accepts word routes whose sources fit one window.
        let (base, span) = wr.reg_span();
        if span <= 4 {
            let wb = base.min(4);
            prop_assert!(SHAPE_D.validate_route(&wr, wb).is_ok());
        }
    }

    /// Microcode words survive the MMIO transport encoding.
    #[test]
    fn microcode_roundtrip(
        cntr in 0u8..2,
        next0 in 0u8..128,
        next1 in 0u8..128,
        ra in proptest::option::of(arb_route()),
        rb in proptest::option::of(arb_route()),
    ) {
        let s = SpuState { cntr, route_a: ra, route_b: rb, next0, next1 };
        prop_assert_eq!(SpuState::decode_words(s.encode_words()), s);
    }

    /// A single-loop program steps exactly `body × trips` times, routes
    /// exactly `routed_states × trips` operand fetches, then idles with
    /// counters restored.
    #[test]
    fn controller_step_budget(
        body_len in 1usize..20,
        routed in proptest::collection::vec(any::<bool>(), 1..20),
        trips in 1u64..30,
    ) {
        let body: Vec<_> = routed
            .iter()
            .take(body_len.max(1))
            .map(|r| {
                if *r {
                    (Some(ByteRoute::identity(subword_isa::reg::MmReg::MM1)), None)
                } else {
                    (None, None)
                }
            })
            .collect();
        if body.is_empty() {
            return Ok(());
        }
        let prog = SpuProgram::single_loop("prop", &body, trips);
        let mut c = SpuController::new(SHAPE_A);
        c.load_program(0, &prog).unwrap();
        c.activate();
        let mut steps = 0u64;
        let mut routed_steps = 0u64;
        while c.is_active() {
            let r = c.on_issue();
            steps += 1;
            if r.routes_anything() {
                routed_steps += 1;
            }
            prop_assert!(steps <= body.len() as u64 * trips, "runaway controller");
        }
        prop_assert_eq!(steps, body.len() as u64 * trips);
        let expected_routed = body.iter().filter(|(a, _)| a.is_some()).count() as u64 * trips;
        prop_assert_eq!(routed_steps, expected_routed);
        prop_assert_eq!(c.counters()[0], (body.len() as u64 * trips) as u32);
        prop_assert_eq!(c.current_state(), IDLE_STATE);
    }

    /// peek_routing(n) always equals what the n-th on_issue() returns.
    #[test]
    fn peek_matches_steps(
        routed in proptest::collection::vec(any::<bool>(), 1..12),
        trips in 1u64..8,
        lookahead in 1usize..10,
    ) {
        let body: Vec<_> = routed
            .iter()
            .map(|r| {
                if *r {
                    (None, Some(ByteRoute::identity(subword_isa::reg::MmReg::MM3)))
                } else {
                    (None, None)
                }
            })
            .collect();
        let prog = SpuProgram::single_loop("peek", &body, trips);
        let mut c = SpuController::new(SHAPE_A);
        c.load_program(0, &prog).unwrap();
        c.activate();
        let total = body.len() * trips as usize;
        for _ in 0..total.min(40) {
            let predicted: Vec<_> = (0..lookahead).map(|n| c.peek_routing(n)).collect();
            let mut probe = c.clone();
            for p in predicted {
                prop_assert_eq!(p, probe.on_issue());
            }
            c.on_issue();
            if !c.is_active() {
                break;
            }
        }
    }

    /// Programs written through the MMIO window decode back to the same
    /// behaviour as host-side loading.
    #[test]
    fn mmio_transport_equivalence(
        routed in proptest::collection::vec(any::<bool>(), 1..10),
        trips in 1u64..10,
    ) {
        let body: Vec<_> = routed
            .iter()
            .map(|r| {
                if *r {
                    (Some(ByteRoute::from_words([3, 1, 2, 0])), None)
                } else {
                    (None, None)
                }
            })
            .collect();
        let prog = SpuProgram::single_loop("mmio", &body, trips);

        // Path 1: host-side install.
        let mut host = SpuController::new(SHAPE_C);
        host.load_program(0, &prog).unwrap();
        host.activate();

        // Path 2: through stores + GO.
        let mut mmio = SpuMmio::new(SpuController::new(SHAPE_C));
        for (id, s) in &prog.states {
            for (w, word) in s.encode_words().iter().enumerate() {
                let off = SpuMmio::state_word_offset(0, *id, w);
                mmio.write(SPU_MMIO_BASE + off, *word, 8).unwrap();
            }
        }
        mmio.write(SPU_MMIO_BASE + SpuMmio::counter_offset(0, 0), prog.counter_init[0] as u64, 4).unwrap();
        mmio.write(SPU_MMIO_BASE + SpuMmio::counter_offset(0, 1), prog.counter_init[1] as u64, 4).unwrap();
        mmio.write(SPU_MMIO_BASE + SpuMmio::entry_offset(0), prog.entry as u64, 4).unwrap();
        mmio.write(SPU_MMIO_BASE, SpuMmio::go_config(0, prog.window_base), 4).unwrap();

        // Identical step-by-step behaviour.
        let mut steps = 0;
        loop {
            prop_assert_eq!(host.is_active(), mmio.controller.is_active());
            if !host.is_active() || steps > 200 {
                break;
            }
            prop_assert_eq!(host.on_issue(), mmio.controller.on_issue());
            steps += 1;
        }
    }
}
