"""Workload process: runs microloc in-process, one operation at a time.

    python3 perfbench/worker.py ROOT WORKDIR --workload W --seed N --seconds S
        [--setup-only] [--trace 0|1] [--spans PATH]

The process pins itself to one CPU.  Set-up puts ROOT/src first on
sys.path, imports microloc, writes the workload's datasets into WORKDIR and
runs one warm-up cycle; then it prints "ready", and "cal <ms>", the
machine's speed at that point (see Calibration).  With --setup-only the
process ends there.  Otherwise it runs whole cycles as a closed loop with
one client, until S seconds have passed and MIN_OPS operations are done
(untraced; at most MAX_FACTOR * S seconds) or for S seconds (traced), and
writes WORKDIR/result.json: (cycle index, wall ms, normalized ms) of every
operation, each distinct (op, exit code, stdout, stderr) with its count,
and, traced, the per-layer metrics.  Output checking is left to run.py,
which does not import microloc.
"""

import argparse
import io
import json
import math
import os
import random
import resource
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from inputs import write_doc  # noqa: E402
from workloads import plan  # noqa: E402

CAL_REF_MS = 1.6           # Calibration() on a quiet 2.0 GHz host, Python 3.11
CAL_TABLE = 40000           # about 4 MB of RSS, left out of peak_rss_mb
CAL_LOOKUPS = 3000
MIN_OPS = 120               # at least 10 samples beyond p90
MAX_FACTOR = 4              # stop chasing MIN_OPS after this many times --seconds


def import_microloc(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import microloc.cli
    if not os.path.abspath(microloc.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"microloc was imported from {microloc.cli.__file__}, not {src}")
    return microloc.cli.main


def rss_mb():
    """This process's resident set size now, in MB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_cpu():
    """The CPU this process runs on now (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return min(os.sched_getaffinity(0))


class Calibration:
    """Fixed pure-Python work whose time follows the host's speed.

    On a shared host the same operation's wall time drifts by up to half
    over seconds to minutes.  Two kernels drift with it: Fraction row
    updates on small dicts (the solver's inner loop, cache-resident) and
    random lookups in a table of a few MB (cache-missing).  Neither alone
    follows the drift closely; their geometric mean does.  Calling the
    object returns that mean in ms.
    """

    def __init__(self):
        # int keys and values keep the table out of the garbage collector's scans
        rng = random.Random(0)
        self.table = {rng.getrandbits(62): i for i in range(CAL_TABLE)}
        self.keys = rng.sample(list(self.table), CAL_LOOKUPS)

    def __call__(self):
        t0 = perf_counter()
        rows = [{j: Fraction(j + 1, 3) for j in range(20)} for _ in range(8)]
        for row in rows[1:]:
            f = row[0]
            for k, v in rows[0].items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        counts = {}
        for i in range(2000):
            key = ("m", i % 53, "x")
            counts[key] = counts.get(key, 0) + i
        t1 = perf_counter()
        acc = 0
        for key in self.keys:
            acc += self.table[key]
        t2 = perf_counter()
        return math.sqrt((t1 - t0) * (t2 - t1)) * 1000.0


class Loop:
    """Runs operations and keeps their timings and distinct outputs.

    A calibration run follows every operation (and precedes the first).
    Operation k's scale is CAL_REF_MS over the median of the calibrations
    cals[k-2 .. k+3], the three on either side of it, and its normalized
    time is its wall time times that scale.
    """

    def __init__(self, main, argvs, calibrate):
        self.main = main
        self.argvs = argvs
        self.calibrate = calibrate
        self.tracer = None
        self.reset()

    def reset(self):
        self.outputs = Counter()
        self.output_bytes = []
        self.records = []          # (cycle index, wall ms, traced) per op id
        self.cals = [self.calibrate()]

    def one(self, i, traced):
        argv = self.argvs[i]
        out, err = io.StringIO(), io.StringIO()
        op_id = len(self.records)
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if traced:
                    rc = self.tracer.call(op_id, lambda: self.main(argv))
                else:
                    rc = self.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception as e:
                rc = f"raised {type(e).__name__}: {e}"
        ms = (perf_counter() - start) * 1000.0
        self.cals.append(self.calibrate())
        self.records.append((i, ms, traced))
        text, etext = out.getvalue(), err.getvalue()
        self.outputs[(i, rc, text, etext)] += 1
        if traced:
            self.output_bytes.append(len(text.encode("utf-8")) + len(etext.encode("utf-8")))

    def cycle(self, traced=False):
        for i in range(len(self.argvs)):
            self.one(i, traced)

    def scales(self):
        return [CAL_REF_MS / statistics.median(self.cals[max(0, k - 2):k + 4])
                for k in range(len(self.records))]

    def samples(self, traced=False):
        """(cycle index, wall ms, normalized ms) of the untraced or the traced operations."""
        return [(i, ms, ms * scale) for (i, ms, t), scale in zip(self.records, self.scales())
                if t == traced]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("workdir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    cfg = ap.parse_args(argv)
    # operations and calibration runs share one CPU, so one speed applies to both
    os.sched_setaffinity(0, {current_cpu()})

    cli_main = import_microloc(cfg.root)
    os.makedirs(cfg.workdir, exist_ok=True)
    argvs = []
    for k, op in enumerate(plan(cfg.workload, cfg.seed, cfg.root)):
        extra = [] if op["doc"] is None else \
            ["--dataset", write_doc(op["doc"], cfg.workdir, f"{k}-{op['name']}.json")]
        argvs.append(op["args"] + extra)
    Loop(cli_main, argvs, lambda: 1.0).cycle()
    print("ready", flush=True)
    # the machine's speed during set-up, measured as in the timed loop: after an operation.
    # The table stays resident from here on; peak_rss_mb leaves it out.
    peak_before, rss_before = peak_rss_mb(), rss_mb()
    calibrate = Calibration()
    table_mb = rss_mb() - rss_before
    loop = Loop(cli_main, argvs, calibrate)
    for _ in range(3):
        loop.one(0, False)
    print(f"cal {statistics.median(loop.cals[1:])}", flush=True)
    if cfg.setup_only:
        return 0

    loop.reset()
    start = perf_counter()
    if cfg.trace:
        from spans import Tracer, child_breakdown, layer_metrics
        loop.tracer = tracer = Tracer()
        while perf_counter() - start < cfg.seconds:
            loop.cycle()
            tracer.install()
            try:
                loop.cycle(traced=True)
            finally:
                tracer.uninstall()
        plain, traced = loop.samples(), loop.samples(traced=True)
        layers = layer_metrics(tracer.spans, loop.scales(), loop.output_bytes)
        # each traced cycle follows an untraced one, so zip pairs runs of the same input;
        # the median paired difference is the shift of op_ms.p50, with far less noise
        # than the difference of two p50s over a mix of inputs
        layers["trace_overhead_ms"] = statistics.median(t[2] - p[2] for p, t in zip(plain, traced))
        result = dict(samples=plain, traced_samples=traced, per_layer=layers,
                      breakdown=child_breakdown(tracer.spans, loop.scales()))
        tracer.dump(cfg.spans)
    else:
        while True:
            loop.cycle()
            elapsed = perf_counter() - start
            if elapsed >= cfg.seconds and (len(loop.records) >= MIN_OPS
                                           or elapsed >= MAX_FACTOR * cfg.seconds):
                break
        result = dict(samples=loop.samples(), elapsed_s=elapsed,
                      cal_ms=statistics.median(loop.cals))
    result["peak_rss_mb"] = max(peak_before, peak_rss_mb() - table_mb)
    result["calibration_table_mb"] = table_mb
    result["outputs"] = [{"op": i, "rc": rc, "stdout": out, "stderr": err, "count": n}
                         for (i, rc, out, err), n in loop.outputs.items()]
    with open(os.path.join(cfg.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
