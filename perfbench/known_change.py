"""Check that a slowdown of known size passes through the normalization.

    python3 perfbench/known_change.py --workload f4a3 --kind {cpu,mem} --seconds 60

Run from the root of a source checkout.  One process, pinned to one CPU as
in worker.py, runs blocks of BLOCK cycles: plain ones, and ones with a
wrapper around microloc.solver.solve that first does fixed extra work:
Fraction sums (cpu, little memory) or building and summing 15000 small
tuples, a few MB of fresh objects (mem).  For each arm it prints the median
wall and normalized op time and the median calibration.  If the operation's
own memory use moved the calibration, the two arms' calibrations would
differ and the normalized ratio would fall short of the wall ratio.
"""

import argparse
import os
import shutil
import statistics
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
from inputs import write_doc  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

BLOCK = 10
SEED = 1


def extra_cpu():
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(1, i)
    return acc


def extra_mem():
    rows = [(i, str(i), [i]) for i in range(15000)]
    return sum(r[0] for r in rows)


def swap(modules, old, new):
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--kind", required=True, choices=("cpu", "mem"))
    ap.add_argument("--seconds", type=float, required=True)
    cfg = ap.parse_args(argv)
    extra = extra_cpu if cfg.kind == "cpu" else extra_mem
    os.sched_setaffinity(0, {worker.current_cpu()})

    root = os.path.dirname(HERE)
    cli_main = worker.import_microloc(root)
    workdir = os.path.join(root, ".perfbench_work", f"known-change-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        argvs = []
        for k, op in enumerate(plan(cfg.workload, SEED, root)):
            extra_args = [] if op["doc"] is None else \
                ["--dataset", write_doc(op["doc"], workdir, f"{k}-{op['name']}.json")]
            argvs.append(op["args"] + extra_args)
        modules = [m for n, m in sys.modules.items()
                   if n == "microloc" or n.startswith("microloc.")]
        plain = sys.modules["microloc.solver"].solve

        def slowed(*args, **kwargs):
            extra()
            return plain(*args, **kwargs)

        loop = worker.Loop(cli_main, argvs, worker.Calibration())
        loop.cycle()
        loop.reset()
        arms = []
        start = perf_counter()
        while perf_counter() - start < cfg.seconds:
            arm = len(arms) // (BLOCK * len(argvs)) % 2
            if arm:
                swap(modules, plain, slowed)
            try:
                for _ in range(BLOCK):
                    loop.cycle()
            finally:
                swap(modules, slowed, plain)
            arms += [arm] * (BLOCK * len(argvs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = loop.samples()
    med = {}
    for arm, label in ((0, "plain"), (1, f"+{cfg.kind}")):
        wall = statistics.median(w for (_, w, _), a in zip(samples, arms) if a == arm)
        norm = statistics.median(n for (_, _, n), a in zip(samples, arms) if a == arm)
        cal = statistics.median(c for c, a in zip(loop.cals[1:], arms) if a == arm)
        med[arm] = wall, norm
        print(f"{label:6s} {arms.count(arm):4d} ops  wall p50 {wall:9.3f} ms  "
              f"normalized p50 {norm:9.3f} ms  calibration {cal:.4f} ms")
    print(f"ratio  wall {med[1][0] / med[0][0]:.4f}  normalized {med[1][1] / med[0][1]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
