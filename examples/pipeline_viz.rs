//! Pipeline visualiser: issue-slot-by-issue-slot view of the paper's
//! pairing rules in action — which instructions dual-issue into U/V,
//! where the single-multiplier and single-shifter rules serialise the
//! stream, where multiply latency stalls land, and how SPU routing
//! changes the picture.
//!
//! ```text
//! cargo run --release --example pipeline_viz
//! ```

use subword::prelude::*;
use subword_isa::lane::from_iwords;

fn trace_run(name: &str, m: &mut Machine, p: &subword_isa::Program) {
    println!("---- {name} ----");
    let mut rows = Vec::new();
    let stats = m.run_traced(p, &mut |slot| rows.push(slot.render(p))).expect("run");
    for r in &rows {
        println!("{r}");
    }
    println!(
        "=> {} cycles, {} instructions, {} pairs, {} singles, {} stall cycles\n",
        stats.cycles, stats.instructions, stats.pairs, stats.singles, stats.stall_cycles
    );
}

fn main() {
    // One iteration of the Figure 5 dot-product body, MMX-only: watch
    // the two unpacks fight over the single shifter and the multiplies
    // over the single multiplier.
    let mut b = ProgramBuilder::new("mmx");
    b.movq_rr(MM2, MM0);
    b.mmx_rr(MmxOp::Punpcklwd, MM2, MM1);
    b.mmx_rr(MmxOp::Punpckhwd, MM0, MM1);
    b.movq_rr(MM3, MM2);
    b.mmx_rr(MmxOp::Pmullw, MM2, MM0);
    b.mmx_rr(MmxOp::Pmulhw, MM3, MM0);
    b.movq_store(Mem::abs(0x1000), MM2);
    b.movq_store(Mem::abs(0x1008), MM3);
    b.halt();
    let mmx = b.finish().unwrap();

    let mut m = Machine::new(MachineConfig::mmx_only());
    m.regs.write_mm(MM0, from_iwords([1, 2, 3, 4]));
    m.regs.write_mm(MM1, from_iwords([5, 6, 7, 8]));
    trace_run("Figure 5 body, MMX only", &mut m, &mmx);

    // The same work with the SPU: permutes gone, multiplies routed.
    let op_a = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
    let op_b = ByteRoute::from_reg_words([(MM0, 2), (MM1, 2), (MM0, 3), (MM1, 3)]);
    let spu_prog = SpuProgram::single_loop(
        "dot",
        &[(Some(op_a), Some(op_b)), (Some(op_a), Some(op_b)), (None, None), (None, None)],
        1,
    );
    let mut b = ProgramBuilder::new("spu");
    emit_spu_setup(&mut b, 0, &spu_prog);
    emit_spu_go(&mut b, 0, &spu_prog);
    b.mmx_rr(MmxOp::Pmullw, MM2, MM2);
    b.mmx_rr(MmxOp::Pmulhw, MM3, MM3);
    b.movq_store(Mem::abs(0x1000), MM2);
    b.movq_store(Mem::abs(0x1008), MM3);
    b.halt();
    let spu = b.finish().unwrap();

    let mut m = Machine::new(MachineConfig::with_spu(SHAPE_D));
    m.regs.write_mm(MM0, from_iwords([1, 2, 3, 4]));
    m.regs.write_mm(MM1, from_iwords([5, 6, 7, 8]));
    println!("(setup stores elided from commentary; watch for «routed» marks)");
    trace_run("Figure 5 body, MMX + SPU", &mut m, &spu);

    // A multiply-latency demonstration: dependent use 3 cycles later.
    let p =
        subword::isa::asm::assemble("lat", "pmullw mm0, mm1\n paddw mm2, mm0\n add r1, 1\n halt\n")
            .unwrap();
    let mut m = Machine::new(MachineConfig::mmx_only());
    trace_run("multiplier latency: dependent paddw stalls", &mut m, &p);
}
