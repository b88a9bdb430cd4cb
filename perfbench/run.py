"""microloc benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {f4a3,chain,conflict} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the one holding src/microloc and
tests/golden.py).  Operations run in a worker process (worker.py) as a
closed loop with one client, in one thread; this process never imports
microloc.  It checks every operation's output against reference.py, prints
each metric with its unit, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 gives the end-to-end metrics: op_ms.p50 and op_ms.p90 (one
operation's time), ops_per_s, setup_s (fresh interpreter to ready, median
of 4 to 10 interpreters) and peak_rss_mb (the measuring worker's
maximum RSS, less its calibration table).  Times are normalized to a fixed
machine speed by the calibration runs in worker.py; the wall-time figures
are printed as well.  A run measures whole cycles until at least --seconds
have passed and worker.MIN_OPS operations are done, so that at least ten
samples lie beyond p90.  error_rate is failed / attempted, and on chain the
growth exponent of median op_ms in n is printed too.

--trace 1 gives the per-layer metrics of spans.py, from cycles that
alternate between untraced and traced, for --seconds in all.

Generated datasets go to .perfbench_work/ and span files to
.perfbench_out/ under the checkout; the work directory is removed at exit.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import (check_chain_report, check_conflict, check_f4_report,  # noqa: E402
                       consistent, load_golden, reference_system)
from worker import CAL_REF_MS  # noqa: E402
from workloads import CHAIN_SIZES, WORKLOADS, plan  # noqa: E402

SETUP_RUNS = 3          # set-up-only interpreters, besides the measuring one: at least
SETUP_SECONDS = 4.0     # this many, and up to 3 * SETUP_RUNS until they took this long,
                        # so that a short set-up has enough samples to outweigh host noise
CHILD_TIMEOUT = 170

E2E_UNITS = {"op_ms.p50": "ms", "op_ms.p90": "ms", "ops_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def checkout_root():
    root = os.path.dirname(HERE)
    for need in ("src/microloc/__init__.py", "src/microloc/cli.py", "tests/golden.py"):
        if not os.path.isfile(os.path.join(root, need)):
            raise BenchError(f"{need} not found under {root}: run from a source checkout")
    return root


def start_worker(root, workdir, cfg, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), root, workdir,
           "--workload", cfg.workload, "--seed", str(cfg.seed), "--seconds", str(cfg.seconds),
           *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    cal = proc.stdout.readline().split()
    if line.strip() != "ready" or len(cal) != 2 or cal[0] != "cal":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready: {line!r}")
    return proc, ready * CAL_REF_MS / float(cal[1])


def finish(proc):
    try:
        proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def checkers(root, ops):
    """One output checker per operation of the cycle."""
    golden = load_golden(os.path.join(root, "tests", "golden.py"))
    out = []
    for op in ops:
        chk = op["check"]
        if chk["kind"] == "f4":
            out.append(lambda rc, so, se, f=chk["format"]: check_f4_report(golden, rc, so, se, f))
        elif chk["kind"] == "chain":
            out.append(lambda rc, so, se, n=chk["n"], f=chk["format"]:
                       check_chain_report(n, rc, so, se, f))
        else:
            # confirm the input is inconsistent before it is used
            system = reference_system(op["doc"])
            if consistent(list(system.values())):
                raise BenchError(f"{op['name']} is not inconsistent; the workload is broken")
            out.append(lambda rc, so, se, s=system: check_conflict(s, rc, so, se))
    return out


def tally(outputs, checks, ops):
    """(attempted, failed, complaints) over the distinct outputs and their counts."""
    attempted = failed = 0
    complaints = []
    for o in outputs:
        attempted += o["count"]
        bad = checks[o["op"]](o["rc"], o["stdout"], o["stderr"])
        if bad:
            failed += o["count"]
            complaints.append(f"{ops[o['op']]['name']} x{o['count']}: {'; '.join(bad)}")
    return attempted, failed, complaints


def growth_exponent(samples):
    """Least-squares slope of log median op_ms against log n over the chain sizes."""
    xs, ys = [], []
    for i, n in enumerate(CHAIN_SIZES):
        ms = [norm for k, _, norm in samples if k == i]
        xs.append(math.log(n))
        ys.append(math.log(statistics.median(ms)))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def bench(cfg):
    root = checkout_root()
    ops = plan(cfg.workload, cfg.seed, root)
    checks = checkers(root, ops)
    tag = f"{cfg.workload}-s{cfg.seed}-t{cfg.trace}-p{os.getpid()}"
    workdir = os.path.join(root, ".perfbench_work", tag)
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    try:
        setups = []
        if not cfg.trace:
            t0 = perf_counter()
            while len(setups) < SETUP_RUNS or (perf_counter() - t0 < SETUP_SECONDS
                                               and len(setups) < 3 * SETUP_RUNS):
                proc, ready = start_worker(root, os.path.join(workdir, f"setup{len(setups)}"),
                                           cfg, "--setup-only")
                finish(proc)
                setups.append(ready)
        spans_path = os.path.join(outdir, f"spans-{cfg.workload}-s{cfg.seed}.jsonl")
        proc, ready = start_worker(
            root, os.path.join(workdir, "run"), cfg, "--trace", str(cfg.trace),
            "--spans", spans_path)
        finish(proc)
        setups.append(ready)
        with open(os.path.join(workdir, "run", "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    attempted, failed, complaints = tally(result["outputs"], checks, ops)

    samples = result["samples"]
    times = [norm for _, _, norm in samples]
    wall = [w for _, w, _ in samples]
    print(f"workload {cfg.workload} (seed {cfg.seed}, trace {cfg.trace}): {WORKLOADS[cfg.workload]}")
    print(f"  cycle: {', '.join(op['name'] for op in ops)}; one client, closed loop")
    if cfg.trace:
        print(f"  samples: {len(times)} untraced, {len(result['traced_samples'])} traced")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["per_layer"].items()}
        for name, ms in result["breakdown"][:5]:
            print(f"  child of cli.main: {name:40s} {ms:10.3f} ms/op")
    else:
        values = {
            "op_ms.p50": statistics.median(times),
            "op_ms.p90": statistics.quantiles(times, n=10)[8],
            "ops_per_s": 1000.0 * len(times) / sum(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        beyond = sum(1 for t in times if t > values["op_ms.p90"])
        print(f"  samples: {len(times)} operations in {result['elapsed_s']:.2f} s, "
              f"{beyond} beyond p90; setup samples {[round(s, 3) for s in setups]}")
        print(f"  calibration: median {result['cal_ms']:.4f} ms against CAL_REF_MS {CAL_REF_MS}")
        print(f"  peak_rss_mb leaves out the calibration table, "
              f"{result['calibration_table_mb']:.2f} MB")
        print(f"  wall time (not normalized): op_ms.p50 {statistics.median(wall):.4f} ms, "
              f"op_ms.p90 {statistics.quantiles(wall, n=10)[8]:.4f} ms, "
              f"ops_per_s {len(wall) / result['elapsed_s']:.4f} 1/s (calibration runs included)")
        if cfg.workload == "chain":
            print(f"  growth_exponent  {growth_exponent(samples):.4f}  "
                  f"(slope of log median op_ms in log n, n = {list(CHAIN_SIZES)})")
    print(f"  error_rate  {failed / attempted if attempted else 1.0:.4f}  ({failed}/{attempted})")
    for c in complaints[:10]:
        print(f"  ERROR {c}")
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:14.4f} {m['unit']}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cfg = ap.parse_args(argv)
    try:
        out = bench(cfg)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
