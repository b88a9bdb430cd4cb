"""The three workloads, as fixed cycles of CLI operations.

An operation is one `microloc.cli.main(argv)` call.  `plan` lists a
workload's cycle; each entry names the dataset document the operation
reads (None for the bundled case), the argv without `--dataset PATH`, and
how reference.py checks the output.  The same (workload, seed) always gives
the same cycle and the same documents.
"""

import json
import os

from inputs import chain_doc, corrupt_kl, orbit_id

WORKLOADS = {
    "f4a3": "report on the bundled F4(a3) case, text and machine output: work split "
            "between elimination and the verify, packets and render layers",
    "chain": "report on generated chains, n = 6..30: dominated by elimination, shows "
             "system size and the growth curve",
    "conflict": "solve on inconsistent inputs (exit 1): the solver's failure path, "
                "which re-eliminates once per suspect equation",
}
CHAIN_SIZES = (6, 12, 18, 24, 30)
# five inputs of distinct cost, so that p50 and p90 fall mid-input rather than
# between two; chain24 is left out because its conflict alone takes over 1 s
CONFLICT_CHAIN_SIZES = (6, 9, 12, 18)
# the KL record the conflict tests corrupt in the bundled case
F4_CORRUPTION = (("S9", "(1)"), ("S10", "(1)"), 5)


def bundled_doc(root):
    with open(os.path.join(root, "src", "microloc", "data", "f4a3.json"), encoding="utf-8") as fh:
        return json.load(fh)


def chain_corruption(n):
    """Raise P(A(n/2-1) <- A(n/2)) from 1 to 2 in the middle of the chain."""
    mid = n // 2
    return (orbit_id(mid - 1), "(1)"), (orbit_id(mid), "(1)"), 2


def plan(workload, seed, root):
    """The workload's cycle: a list of dicts with name, doc, args and check."""
    if workload == "f4a3":
        formats = ["text", "machine"] if seed % 2 == 0 else ["machine", "text"]
        return [{"name": f"f4a3-{fmt}", "doc": None, "args": ["report", "--format", fmt],
                 "check": {"kind": "f4", "format": fmt}} for fmt in formats]
    if workload == "chain":
        return [{"name": f"chain{n}", "doc": chain_doc(n, seed),
                 "args": ["report", "--format", "machine"],
                 "check": {"kind": "chain", "n": n, "format": "machine"}} for n in CHAIN_SIZES]
    if workload == "conflict":
        ops = [{"name": "f4a3-corrupt", "doc": corrupt_kl(bundled_doc(root), *F4_CORRUPTION)}]
        ops += [{"name": f"chain{n}-corrupt", "doc": corrupt_kl(chain_doc(n, seed), *chain_corruption(n))}
                for n in CONFLICT_CHAIN_SIZES]
        for op in ops:
            op["args"] = ["solve"]
            op["check"] = {"kind": "conflict"}
        return ops
    raise ValueError(f"unknown workload {workload!r}")
