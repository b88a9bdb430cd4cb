"""Spans around microloc's public layer functions, installed only for traced runs.

`Tracer.install` replaces each function in TRACED with a wrapper, in every
loaded microloc module that holds it as an attribute, so calls made through
`microloc.cli` and through sibling modules are both seen.  `uninstall`
puts the originals back.  A span is (name, start, end, parent, op, info):
times from perf_counter, parent the index of the enclosing span or None,
op the operation id, info the size counts read from the return value or
the exception.
"""

import functools
import json
import sys
from collections import Counter
from time import perf_counter

TRACED = {
    "data": ["load_bundled_dataset", "load_dataset", "loads_dataset", "validate_dataset"],
    "duality": ["validate_duality"],
    "euler": ["euler_matrix"],
    "solver": ["build_constraints", "solve", "parameter_bounds", "reconstruct_local_euler",
               "special_cc_localization", "verify_fourier_symmetry"],
    "packets": ["all_micro_packets", "basic_arthur_packet", "verify_weak_equals_union",
                "verify_az_micro_compatibility", "micro_packet"],
}
ROOT = "cli.main"
RULES = ("expansion", "support", "leading", "symmetry", "diagonal")


def _sizes(name, result):
    """Size counts read from a layer's public return value."""
    if name == "euler.euler_matrix":
        return {"unknown_cells": len(result.unknown_cells())}
    if name == "solver.build_constraints":
        rules = Counter(eq.tag[0] for eq in result.equations)
        out = {"equations": len(result.equations), "unknowns": len(result.unknowns),
               "skipped": len(result.skipped)}
        out.update({f"equations.{r}": rules.get(r, 0) for r in RULES})
        return out
    if name == "solver.solve":
        return {"free_parameters": len(result.free_parameters),
                "residual_unknowns": len(result.residual_unknowns),
                "cc_nonzero": sum(len(cc.mult) for cc in result.cc_table.values())}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._patched = []

    def install(self):
        modules = {n: m for n, m in sys.modules.items()
                   if n == "microloc" or n.startswith("microloc.")}
        for short, names in TRACED.items():
            home = modules[f"microloc.{short}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for mod in modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _open(self, name):
        span = [name, perf_counter(), None, self.stack[-1] if self.stack else None, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                tracer._close(span)
                tags = getattr(e, "tags", None)
                span[5] = {"error": type(e).__name__}
                if tags is not None:
                    span[5]["conflict_tags"] = len(tags)
                raise
            tracer._close(span)
            span[5] = _sizes(name, result)
            return result
        return wrapper

    def call(self, op_id, fn):
        """Run fn() as operation op_id under a root span."""
        self.op = op_id
        span = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(span)
            self.op = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")


def _durations(spans, scales):
    """Normalized ms of each span: wall time times its operation's scale."""
    return [(end - start) * 1000.0 * scales[op] for _, start, end, _, op, _ in spans]


def layer_metrics(spans, scales, output_bytes):
    """Per-layer metrics from the spans of the traced operations.

    scales maps an operation id to the factor that normalizes its times
    (see worker.Loop); only ids that have spans are read.

    A `_ms` metric is the normalized time spent in the named functions per
    operation, counting a call only when no enclosing span has the same
    metric (so load_dataset inside load_bundled_dataset is not counted
    twice).  Size
    counts are means over the calls that produced them.  `solver.solve_ms`
    counts solves that returned and `solver.conflict_ms` the ones that
    raised InconsistentSystem.
    """
    dur = _durations(spans, scales)
    ops = len({s[4] for s in spans})

    def group_ms(pred):
        total = 0.0
        for i, (name, _, _, parent, _, info) in enumerate(spans):
            if not pred(name, info):
                continue
            p = parent
            while p is not None and not pred(spans[p][0], spans[p][5]):
                p = spans[p][3]
            if p is None:
                total += dur[i]
        return total / ops

    def named(*names):
        return lambda n, info: n in names

    def mean_info(name, key):
        vals = [s[5][key] for s in spans if s[0] == name and s[5] and key in s[5]]
        return sum(vals) / len(vals) if vals else 0.0

    def calls(name):
        return sum(1 for s in spans if s[0] == name) / ops

    def failed(n, info):
        return n == "solver.solve" and bool(info) and info.get("error") == "InconsistentSystem"

    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    root_self = sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0] == ROOT)

    m = {
        "data.load_ms": group_ms(named("data.load_bundled_dataset", "data.load_dataset",
                                       "data.loads_dataset")),
        "data.validate_ms": group_ms(named("data.validate_dataset")),
        "euler.euler_matrix_ms": group_ms(named("euler.euler_matrix")),
        "euler.euler_matrix.calls": calls("euler.euler_matrix"),
        "euler.unknown_cells": mean_info("euler.euler_matrix", "unknown_cells"),
        "solver.build_constraints_ms": group_ms(named("solver.build_constraints")),
    }
    for key in ("equations", *(f"equations.{r}" for r in RULES), "unknowns", "skipped"):
        m[f"solver.{key}"] = mean_info("solver.build_constraints", key)
    m["solver.solve_ms"] = group_ms(lambda n, info: n == "solver.solve" and not failed(n, info))
    m["solver.parameter_bounds_ms"] = group_ms(named("solver.parameter_bounds"))
    for key in ("free_parameters", "residual_unknowns", "cc_nonzero"):
        m[f"solver.{key}"] = mean_info("solver.solve", key)
    m["solver.conflict_ms"] = group_ms(failed)
    m["solver.conflict_tags"] = mean_info("solver.solve", "conflict_tags")
    for fname in ("reconstruct_local_euler", "special_cc_localization", "verify_fourier_symmetry"):
        m[f"solver.{fname}_ms"] = group_ms(named(f"solver.{fname}"))
    for fname in ("all_micro_packets", "basic_arthur_packet", "verify_weak_equals_union",
                  "verify_az_micro_compatibility"):
        m[f"packets.{fname}_ms"] = group_ms(named(f"packets.{fname}"))
    m["packets.micro_packet.calls"] = calls("packets.micro_packet")
    m["cli.self_ms"] = root_self / ops
    m["cli.output_bytes"] = sum(output_bytes) / len(output_bytes)
    return m


def child_breakdown(spans, scales):
    """Normalized ms per operation in each direct child of the root span, largest first."""
    dur = _durations(spans, scales)
    ops = len({s[4] for s in spans})
    per = Counter()
    for i, s in enumerate(spans):
        if s[3] is not None and spans[s[3]][0] == ROOT:
            per[s[0]] += dur[i] / ops
    return per.most_common()
