"""Tests for the benchmark's statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import benchstats


def stats(cycles=0, instructions=0, mmx_realignments=0):
    return {"cycles": cycles, "instructions": instructions, "mmx_realignments": mmx_realignments}


def cell(kernel, shape="A", base=None, spu=None, sched_base=None, sched_spu=None):
    return {
        "kernel": kernel,
        "shape": shape,
        "baseline_per_block": base or stats(1),
        "spu_per_block": spu or stats(1),
        "sched_baseline_per_block": sched_base or stats(1),
        "sched_spu_per_block": sched_spu or stats(1),
    }


class Tail(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        value, pct, n = benchstats.tail(range(1, 31))
        self.assertEqual((value, n), (20, 30))
        self.assertAlmostEqual(pct, 200 / 3)
        self.assertEqual(sum(1 for x in range(1, 31) if x > value), 10)

    def test_p90_of_a_hundred(self):
        self.assertEqual(benchstats.tail(reversed(range(1, 101))), (90, 90.0, 100))

    def test_twenty_samples_give_the_median(self):
        self.assertEqual(benchstats.tail(range(1, 21)), (10, 50.0, 20))

    def test_few_samples_give_the_slowest(self):
        self.assertEqual(benchstats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(benchstats.tail(range(19)), (18, 100.0, 19))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            benchstats.tail([])


class Geomeans(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(benchstats.geomean([2, 8]), 4)
        self.assertAlmostEqual(benchstats.geomean([1.5]), 1.5)
        for bad in ([], [1, 0], [-1]):
            with self.assertRaises(ValueError):
                benchstats.geomean(bad)

    def test_spu_speedup(self):
        cells = [
            cell("a", base=stats(200), spu=stats(100)),
            cell("b", base=stats(300), spu=stats(100)),
        ]
        self.assertAlmostEqual(benchstats.spu_speedup_geomean(cells), math.sqrt(6))

    def test_sched_speedup_covers_both_variants(self):
        c = cell(
            "a",
            base=stats(120),
            sched_base=stats(100),
            spu=stats(110),
            sched_spu=stats(100),
        )
        self.assertAlmostEqual(benchstats.sched_speedup_geomean([c]), math.sqrt(1.2 * 1.1))

    def test_fuzz_speedups(self):
        outcomes = [{"cycles": [100, 80]}, {"cycles": [120, 100, 60, 50]}]
        spu, sched = benchstats.fuzz_speedups(outcomes)
        self.assertAlmostEqual(spu, 2.0)
        self.assertAlmostEqual(sched, (1.25 * 1.2 * 1.2) ** (1 / 3))


class Table3(unittest.TestCase):
    # Per-block (instructions, realignments) of the MMX-only variant and
    # realignments of the SPU variant at shape A, as the sweep measures
    # them today.
    MEASURED = {
        "FIR12": (2742, 304, 152),
        "FIR22": (4110, 304, 152),
        "IIR": (11259, 152, 38),
        "FFT1024": (206648, 1536, 0),
        "FFT128": (18761, 192, 0),
        "DCT": (1606, 416, 136),
        "Matrix Multiply": (5926, 1152, 288),
        "Matrix Transpose": (631, 128, 32),
    }

    def cells(self):
        out = []
        for kernel, (instructions, base_realign, spu_realign) in self.MEASURED.items():
            base = stats(1, instructions, base_realign)
            out.append(cell(kernel, base=base, spu=stats(1, 0, spu_realign)))
            # Other shapes and kernels outside the paper do not count.
            out.append(cell(kernel, shape="B", base=base, spu=stats(1, 0, base_realign)))
        out.append(cell("SAD", base=stats(1, 100, 50), spu=stats(1, 0, 0)))
        return out

    def test_matches_hand_computation(self):
        # Measured share vs the paper's Table 3 "Total Instr" column:
        #   FIR12    152/2742   = 5.5434 vs  7.42 -> 1.8766
        #   FIR22    152/4110   = 3.6983 vs  6.48 -> 2.7817
        #   IIR      114/11259  = 1.0125 vs  6.28 -> 5.2675
        #   FFT1024  1536/206648= 0.7433 vs  3.92 -> 3.1767
        #   FFT128   192/18761  = 1.0234 vs  3.58 -> 2.5566
        #   DCT      280/1606   = 17.4346 vs 16.75 -> 0.6846
        #   MatMul   864/5926   = 14.5798 vs 14.49 -> 0.0898
        #   Transp.  96/631     = 15.2139 vs 17.55 -> 2.3361
        # mean = 18.7696 / 8 = 2.3462
        self.assertAlmostEqual(benchstats.table3_err_pp(self.cells()), 2.3462, places=4)

    def test_exact_match_is_zero(self):
        cells = [
            cell(k, base=stats(1, 10000, round(100 * pct)), spu=stats(1, 0, 0))
            for k, pct in benchstats.PAPER_TABLE3_TOTAL_PCT.items()
        ]
        self.assertAlmostEqual(benchstats.table3_err_pp(cells), 0.0)

    def test_missing_kernel_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.table3_err_pp(self.cells()[2:])


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        self.assertAlmostEqual(benchstats.quartile_spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(benchstats.quartile_spread([2.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
