"""The benchmark's statistics: iteration percentiles, simulated
speed-up geomeans and the gap to the paper's Table 3."""

import math
import statistics

# Paper Table 3, "Total Instr" column: off-loaded permutations as a
# percentage of all instructions, per Figure 9 kernel. The same published
# numbers are `pct_total_instr` in `crates/kernels/src/paper.rs`; they are
# the repository's only reference results.
PAPER_TABLE3_TOTAL_PCT = {
    "FIR12": 7.42,
    "FIR22": 6.48,
    "IIR": 6.28,
    "FFT1024": 3.92,
    "FFT128": 3.58,
    "DCT": 16.75,
    "Matrix Multiply": 14.49,
    "Matrix Transpose": 17.55,
}

# Table 3 was measured on the paper's crossbar shape A.
TABLE3_SHAPE = "A"

# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it, as (value, percentile, sample count).

    With fewer than 2 * TAIL_BEYOND samples that percentile would lie
    below the median, so the slowest sample (p100) is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, n
    at_or_below = n - TAIL_BEYOND
    return xs[at_or_below - 1], 100.0 * at_or_below / n, n


def geomean(ratios):
    ratios = list(ratios)
    if not ratios or min(ratios) <= 0:
        raise ValueError("geomean needs positive ratios")
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def spu_speedup_geomean(cells):
    """Geomean over sweep cells of baseline per-block cycles divided by
    SPU per-block cycles."""
    return geomean(
        c["baseline_per_block"]["cycles"] / c["spu_per_block"]["cycles"] for c in cells
    )


def sched_speedup_geomean(cells):
    """Geomean over sweep cells and both variants (MMX-only, MMX+SPU) of
    unscheduled per-block cycles divided by scheduled ones."""
    return geomean(
        c[plain + "_per_block"]["cycles"] / c["sched_" + plain + "_per_block"]["cycles"]
        for c in cells
        for plain in ("baseline", "spu")
    )


def offloaded_total_pct(cell):
    """Off-loaded permutations as a percentage of total instructions:
    the realignments the SPU variant no longer executes, over all
    instructions of the MMX-only variant, per block."""
    base, spu = cell["baseline_per_block"], cell["spu_per_block"]
    return 100.0 * (base["mmx_realignments"] - spu["mmx_realignments"]) / base["instructions"]


def table3_err_pp(cells):
    """Mean absolute gap, in percentage points, between the measured
    off-loaded share at shape A and the paper's Table 3 column, over the
    eight paper kernels."""
    measured = {
        c["kernel"]: offloaded_total_pct(c)
        for c in cells
        if c["shape"] == TABLE3_SHAPE and c["kernel"] in PAPER_TABLE3_TOTAL_PCT
    }
    missing = set(PAPER_TABLE3_TOTAL_PCT) - set(measured)
    if missing:
        raise ValueError(f"no shape-{TABLE3_SHAPE} cell for {sorted(missing)}")
    gaps = [abs(measured[k] - paper) for k, paper in PAPER_TABLE3_TOTAL_PCT.items()]
    return sum(gaps) / len(gaps)


def fuzz_speedups(outcomes):
    """(SPU, scheduler) speed-up geomeans over fuzz cases, from each
    case's in-order cycles in the order baseline, scheduled, lifted,
    scheduled-lifted (the last two only for cases the lift transformed).
    The SPU ratio is baseline over lifted, on lifted cases; the scheduler
    ratios are baseline over scheduled and lifted over scheduled-lifted."""
    cycles = [o["cycles"] for o in outcomes]
    spu = geomean(c[0] / c[2] for c in cycles if len(c) == 4)
    sched = geomean(
        r for c in cycles for r in [c[0] / c[1]] + ([c[2] / c[3]] if len(c) == 4 else [])
    )
    return spu, sched


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (the steadiness figure the benchmark is tuned against)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
