//! Regenerates **Table 1**: delay and area for the four SPU crossbar
//! configurations in 0.25 µm 2-metal CMOS, plus the §5.1 die-overhead
//! claim at 0.18 µm.

use subword_bench::Table;
use subword_hw::control_memory::ControlMemoryModel;
use subword_hw::crossbar::CrossbarModel;
use subword_hw::die::DieOverhead;
use subword_hw::technology::Technology;
use subword_spu::crossbar::CANONICAL_SHAPES;
use subword_spu::microcode::control_memory_bits;

fn main() {
    println!("Table 1 — SPU interconnect configurations (0.25um, 2-metal CMOS)\n");
    let xbar = CrossbarModel::default();
    let cmem = ControlMemoryModel::default();

    let mut t = Table::new(&[
        "config",
        "description",
        "area mm2 (model)",
        "area (paper)",
        "delay ns (model)",
        "delay (paper)",
        "ctrl-mem mm2 (model)",
        "ctrl-mem (paper)",
        "ctrl bits 128*(15+K)",
    ]);
    for s in CANONICAL_SHAPES {
        let p = CrossbarModel::paper_point(&s).unwrap();
        t.row(vec![
            s.name.to_string(),
            format!("{}x{} crossbar, {}-bit ports", s.in_ports, s.out_ports, s.port_bits),
            format!("{:.2}", xbar.area_mm2(&s)),
            format!("{:.2}", p.area_mm2),
            format!("{:.2}", xbar.delay_ns(&s)),
            format!("{:.2}", p.delay_ns),
            format!("{:.2}", cmem.area_mm2(&s, 1)),
            format!("{:.2}", p.control_mem_mm2),
            control_memory_bits(&s).to_string(),
        ]);
    }
    println!("{}", t.render());

    println!("Die overhead scaled to the 106 mm2 0.18um Pentium III (paper §5.1):\n");
    let mut d =
        Table::new(&["config", "contexts", "SPU mm2 @0.18um", "% of die", "delay ns @0.18um"]);
    for s in CANONICAL_SHAPES {
        for contexts in [1usize, 4] {
            let o = DieOverhead::evaluate(&s, contexts, &Technology::PIII_018);
            d.row(vec![
                s.name.to_string(),
                contexts.to_string(),
                format!("{:.2}", o.total_mm2_target),
                format!("{:.2}", 100.0 * o.die_fraction),
                format!("{:.2}", o.delay_ns_target),
            ]);
        }
    }
    println!("{}", d.render());
    println!("paper: \"less than 1% area overhead\" (assuming further transistor");
    println!("sizing and >2 metal layers; our conservative scaling lands shape D");
    println!("near 1-2% — see EXPERIMENTS.md).");
}
