#!/usr/bin/env python3
"""Benchmark of the `sweep` and `fuzz` binaries.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the binaries and the tracer, sets
the workload up, then runs its command as one child process at a time
(a closed loop with one client) for `--seconds`, checking every output.
With `--trace 1` the loop alternates the untraced command with the
in-process traced replica and reports per-layer metrics instead.
README.md in this directory describes the workloads and metrics.

A human-readable report goes to standard error; the last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

import benchstats

ROOT = os.getcwd()
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
WORK = os.path.join(ROOT, ".bench_work")
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
BASELINE = "BENCH_cycles.json"
CORPUS = "crates/fuzz/corpus"

FUZZ_CASES = 200  # generated cases per fuzz iteration
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 850

STAT_SETS = ("baseline", "spu", "sched_baseline", "sched_spu")
# Counts an out-of-order cell must share with the matching in-order cell.
INVARIANT_COUNTS = ("instructions", "mmx_realignments", "loads", "stores", "spu_routed")

SIMULATED = ("spu_speedup_geomean", "sched_speedup_geomean", "table3_err_pp")

CORPUS_RE = re.compile(r"corpus: (\d+) entries, (\d+) failing")
SHARD_RE = re.compile(
    r"(\d+) cases run .*, (\d+) lifted, (\d+) compacted, (\d+) variants diffed, (\d+) failures"
)


def work(name):
    return os.path.join(WORK, name)


def binary(name):
    return os.path.join(TARGET, "release", name)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    tracer = os.path.join(HERE, "tracer", "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "subword-bench", "--bin", "sweep"]
        + ["-p", "subword-fuzz", "--bin", "fuzz"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", tracer],
    ):
        p = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
        if p.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}\n{p.stderr[-4000:]}")


class Child:
    """One finished child process: exit code, wall seconds, peak RSS in
    KiB and its output."""

    def __init__(self, cmd):
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        out, err = work("child.out"), work("child.err")
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        _, status, usage = os.wait4(pid, 0)
        self.wall = time.perf_counter() - start
        killer.cancel()
        self.rc = os.waitstatus_to_exitcode(status)
        self.rss_kib = usage.ru_maxrss
        with open(out) as f:
            self.out = f.read()
        with open(err) as f:
            self.err = f.read()


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def parse(child):
    """The JSON document a successful child printed, or None."""
    try:
        return json.loads(child.out) if child.rc == 0 else None
    except ValueError:
        return None


def cell_key(c):
    return (c["kernel"], c["shape"], c["scale"])


def load_baseline():
    return {cell_key(c): c for c in load_json(BASELINE)["cells"]}


def within_baseline(cell, baseline):
    """The cell is gated and none of its per-block cycle counts is worse
    than the committed baseline."""
    base = baseline.get(cell_key(cell))
    return base is not None and all(
        cell[s + "_per_block"]["cycles"] <= base[s] for s in STAT_SETS
    )


def simulated(cell):
    """A cell without its host-side fields."""
    return {k: v for k, v in cell.items() if k not in ("wall_nanos", "cached")}


class Sweep:
    """A `sweep` workload. Set-up runs an in-order sweep into an empty
    store: its report is the reference every iteration is checked
    against, and its store is what `sweep-warm` replays."""

    def __init__(self, pipeline, store):
        self.pipeline = pipeline
        self.store = store  # None, "cold" (emptied per iteration) or "warm"
        self.baseline = load_baseline()
        self.ops = len(self.baseline)
        self.ref = None
        self.first_ooo = None
        self.metrics = None

    def setup(self):
        shutil.rmtree(work("warm-store"), ignore_errors=True)
        child = Child([binary("sweep"), "--cache-dir", work("warm-store"), work("ref.json")])
        report = load_json(work("ref.json"))
        if child.rc != 0 or report is None:
            sys.exit(f"set-up sweep failed:\n{child.err[-4000:]}")
        ref = {cell_key(c): simulated(c) for c in report["cells"]}
        if set(ref) != set(self.baseline):
            sys.exit("set-up sweep does not cover the cells of the committed baseline")
        if self.ref is not None and ref != self.ref:
            sys.exit("set-up sweeps disagree: the simulator is not deterministic")
        self.ref = ref

    def args(self, report):
        args = []
        if self.pipeline == "ooo":
            args += ["--pipeline", "ooo"]
        if self.store:
            store = "store" if self.store == "cold" else "warm-store"
            args += ["--cache-dir", work(store)]
            args += ["--check-baseline", BASELINE, "--diff-out", work("diff.txt")]
        return args + [work(report)]

    def before(self):
        if self.store == "cold":
            shutil.rmtree(work("store"), ignore_errors=True)

    def command(self):
        return [binary("sweep")] + self.args("report.json")

    def tracer_command(self):
        return [binary("perfbench-tracer"), "sweep"] + self.args("trace-report.json")

    def check(self, rc, report_name):
        """Failed cells of one report: every cell when the process failed
        or the report is unreadable; otherwise each cell that is missing,
        slower than the committed baseline (in-order), or whose simulated
        content drifted from the reference (in-order) or from the first
        out-of-order report, or whose model-invariant counts differ from
        the in-order reference (out-of-order)."""
        report = load_json(work(report_name)) if rc == 0 else None
        if report is None:
            return self.ops
        cells = {cell_key(c): c for c in report["cells"]}
        if set(cells) != set(self.baseline):
            return self.ops
        if self.pipeline == "ooo" and self.first_ooo is None:
            self.first_ooo = {k: simulated(c) for k, c in cells.items()}
        failed = 0
        for key, cell in cells.items():
            ref = self.ref[key]
            if self.pipeline == "ooo":
                ok = simulated(cell) == self.first_ooo[key] and all(
                    cell[s + part][f] == ref[s + part][f]
                    for s in STAT_SETS
                    for part in ("_per_block", "_total")
                    for f in INVARIANT_COUNTS
                )
            else:
                ok = simulated(cell) == ref and within_baseline(cell, self.baseline)
            failed += not ok
        if failed == 0 and self.metrics is None:
            ordered = list(cells.values())
            self.metrics = {
                "spu_speedup_geomean": benchstats.spu_speedup_geomean(ordered),
                "sched_speedup_geomean": benchstats.sched_speedup_geomean(ordered),
                "table3_err_pp": benchstats.table3_err_pp(ordered),
            }
        return failed

    def run_child(self):
        self.before()
        child = Child(self.command())
        return child, self.ops, self.check(child.rc, "report.json")

    def run_tracer(self):
        self.before()
        child = Child(self.tracer_command())
        failed = self.check(child.rc, "trace-report.json")
        return child, self.ops, failed, parse(child) if failed < self.ops else None

    def finish(self):
        return 0


class Fuzz:
    """The `fuzz` workload: the committed corpus plus FUZZ_CASES cases
    generated from a base seed derived from `--seed`. Set-up is one
    iteration, as a warm-up."""

    def __init__(self, seed):
        # Spread benchmark seeds apart so that two seeds share no cases.
        self.base = (seed * 0x9E3779B97F4A7C15) % 2**64
        self.corpus = len([f for f in os.listdir(CORPUS) if f.endswith(".json")])
        self.ops = FUZZ_CASES + self.corpus
        self.signature = None
        self.metrics = None

    def args(self):
        return ["--corpus", CORPUS, "--seed", str(self.base), "--count", str(FUZZ_CASES)]

    def setup(self):
        Child([binary("fuzz")] + self.args())

    def agree(self, signature):
        """Record the first iteration's counts; later ones must match."""
        if self.signature is None:
            self.signature = signature
        return signature == self.signature

    def run_child(self):
        """Failed cases: those the corpus replay or the campaign reports
        failing, or all of them on a non-zero exit, an unreadable summary
        or counts that drift between iterations."""
        child = Child([binary("fuzz")] + self.args())
        corpus, shard = CORPUS_RE.search(child.out), SHARD_RE.search(child.out)
        if child.rc != 0 or not corpus or not shard:
            return child, self.ops, self.ops
        entries, failing = map(int, corpus.groups())
        cases, lifted, compacted, variants, failures = map(int, shard.groups())
        signature = (entries, cases, lifted, compacted, variants)
        if entries != self.corpus or cases != FUZZ_CASES or not self.agree(signature):
            return child, self.ops, self.ops
        return child, self.ops, failing + failures

    def replica(self):
        """Run the tracer's in-process replica of one iteration; its
        counts must match the binary's."""
        child = Child([binary("perfbench-tracer"), "fuzz"] + self.args())
        doc = parse(child)
        if doc is None:
            return child, None
        cases = doc["cases"]
        signature = (
            len(doc["corpus"]),
            len(cases),
            sum(c["lifted"] for c in cases),
            sum(c["compacted"] for c in cases),
            sum(c["variants"] for c in cases),
        )
        return child, doc if self.agree(signature) else None

    def run_tracer(self):
        child, doc = self.replica()
        return child, self.ops, 0 if doc else self.ops, doc

    def finish(self):
        """Simulated metrics, computed after the timed loop: the
        speed-ups over this run's cases from the tracer's replica, and
        the Table 3 gap from the paper kernels, which `sweep --family
        paper` measures (its cells checked against the committed
        baseline). Returns the number of failed checks."""
        _, doc = self.replica()
        child = Child([binary("sweep"), "--family", "paper", work("paper.json")])
        paper = load_json(work("paper.json")) if child.rc == 0 else None
        baseline = load_baseline()
        if (
            doc is None
            or paper is None
            or not all(within_baseline(c, baseline) for c in paper["cells"])
        ):
            return 1
        spu, sched = benchstats.fuzz_speedups(doc["corpus"] + doc["cases"])
        self.metrics = {
            "spu_speedup_geomean": spu,
            "sched_speedup_geomean": sched,
            "table3_err_pp": benchstats.table3_err_pp(paper["cells"]),
        }
        return 0


def make_workload(name, seed):
    if name == "sweep-cold":
        return Sweep("inorder", "cold")
    if name == "sweep-warm":
        return Sweep("inorder", "warm")
    if name == "sweep-ooo":
        return Sweep("ooo", None)
    if name == "fuzz":
        return Fuzz(seed)
    sys.exit(f"unknown workload `{name}`")


# Span names the tracer records, by the per-layer busy metric they feed.
BUSY_LAYERS = {
    "json.parse.busy_s": ["json.parse"],
    "json.encode.busy_s": ["json.encode"],
    "store.key.busy_s": ["store.key"],
    "store.load.busy_s": ["store.open", "store.load"],
    "store.save.busy_s": ["store.save"],
    "sim.machine.busy_s": ["sim.machine"],
    "sim.threaded.inorder.busy_s": ["sim.threaded.inorder"],
    "sim.ooo.busy_s": ["sim.ooo"],
    "sim.reference.busy_s": ["sim.reference"],
    "sim.decoded.busy_s": ["sim.decoded"],
    "kernels.build.busy_s": ["kernels.build"],
    "kernels.check.busy_s": ["kernels.check"],
    "compile.lift.busy_s": ["compile.lift"],
    "compile.schedule.busy_s": ["compile.schedule"],
    "sweep.job.busy_s": ["sweep.job"],
    "fuzz.gen.busy_s": ["fuzz.gen"],
    "fuzz.oracle.busy_s": ["fuzz.oracle"],
    "gate.busy_s": ["gate"],
    "io.busy_s": ["io"],
}


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(traces, child_walls, tracer_walls):
    """Per-layer metrics over the traced iterations: busy times are
    per-iteration means of span self time; fractions and rates use the
    summed counts."""
    n = len(traces)
    busy, c = Counter(), Counter()
    for t in traces:
        busy.update(t["self_s"])
        c.update(t["counters"])
    known = {s for spans in BUSY_LAYERS.values() for s in spans}
    if set(busy) - known:
        sys.exit(f"tracer recorded unmapped spans {sorted(set(busy) - known)}")
    m = {name: sum(busy[s] for s in spans) / n for name, spans in BUSY_LAYERS.items()}
    pools = [t["pool"] for t in traces if t["pool"]]
    cases = [o for t in traces for o in t["corpus"] + t["cases"]]
    store_lookups = c["store.hits"] + c["store.misses"] + c["store.invalidated"]
    m.update(
        {
            "json.parse.mb_per_s": ratio(c["json.parse.bytes"] / 1e6, busy["json.parse"]),
            "store.hit_frac": ratio(c["store.hits"], store_lookups),
            "store.invalidated": c["store.invalidated"] / n,
            "sim.threaded.inorder.mips": ratio(
                c["sim.threaded.inorder.instructions"] / 1e6, busy["sim.threaded.inorder"]
            ),
            "sim.translate.replay_frac": ratio(
                c["sim.translate.replayed_slots"],
                c["sim.translate.replayed_slots"] + c["sim.translate.fallback_slots"],
            ),
            "sim.ooo.mips": ratio(c["sim.ooo.instructions"] / 1e6, busy["sim.ooo"]),
            "compile.lift.transformed_frac": ratio(
                c["compile.lift.transformed"], c["compile.lift.calls"]
            ),
            "compile.cache.hit_frac": ratio(
                c["compile.cache.hits"], c["compile.cache.hits"] + c["compile.cache.misses"]
            ),
            "sweep.pool.busy_s": sum(p["busy_s"] for p in pools) / n,
            "sweep.pool.idle_frac": ratio(
                sum(p["idle_s"] for p in pools), sum(p["wall_s"] * p["workers"] for p in pools)
            ),
            "fuzz.lifted_frac": ratio(sum(o["lifted"] for o in cases), len(cases)),
            "fuzz.variants_per_case": ratio(sum(o["variants"] for o in cases), len(cases)),
            "model.inorder.pair_rate": ratio(
                c["model.inorder.pairs"], c["model.inorder.pairs"] + c["model.inorder.singles"]
            ),
            "model.inorder.stall_frac": ratio(
                c["model.inorder.stall_cycles"], c["model.inorder.cycles"]
            ),
            "model.ooo.rob_stall_frac": ratio(
                c["model.ooo.rob_stall_cycles"], c["model.ooo.cycles"]
            ),
            "model.ooo.rob_occupancy_mean": ratio(
                c["model.ooo.rob_occupancy_sum"], c["model.ooo.dispatched"]
            ),
            "traced_wall_s": statistics.median(t["wall_s"] for t in traces),
            "unaccounted_frac": ratio(
                sum(t["unaccounted_s"] for t in traces), sum(t["capacity_s"] for t in traces)
            ),
            "trace_overhead_frac": statistics.median(tracer_walls) / statistics.median(child_walls)
            - 1,
        }
    )
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    build()
    os.makedirs(WORK, exist_ok=True)
    wl = make_workload(args.workload, args.seed)

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)

    attempted = failed = 0
    walls, rss, rates, traces, tracer_walls = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        child, ops, bad = wl.run_child()
        attempted, failed = attempted + ops, failed + bad
        walls.append(child.wall)
        rates.append((ops - bad) / child.wall)
        rss.append(child.rss_kib)
        if args.trace:
            tracer, ops, bad, doc = wl.run_tracer()
            attempted, failed = attempted + ops, failed + bad
            tracer_walls.append(tracer.wall)
            if doc:
                traces.append(doc)
        if time.perf_counter() >= deadline:
            break
    if not args.trace and wl.finish():
        failed = attempted

    if args.trace:
        if not traces:
            sys.exit("no traced iteration succeeded")
        values = layer_metrics(traces, walls, tracer_walls)
        kind = "per_layer"
    else:
        tail, pct, n = benchstats.tail(walls)
        values = {
            "iter_p50_s": statistics.median(walls),
            "iter_tail_s": tail,
            "ops_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(rss) / 1024,
            "setup_s": statistics.median(setups),
            "ok_frac": 1 - failed / attempted,
            **(wl.metrics or dict.fromkeys(SIMULATED, 0.0)),
        }
        kind = "end_to_end"
        print(
            f"{args.workload}: {n} iterations; iter_tail_s is p{pct:.1f} of {n}; "
            f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})",
            file=sys.stderr,
        )
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(values) != set(units):
        sys.exit(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    for name in units:
        print(f"  {name:32} {values[name]:14.6g} {units[name]}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )


if __name__ == "__main__":
    main()
