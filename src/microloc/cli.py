"""Command line front end.

Subcommands: validate, solve, cc, packets, verify, report.  Every one reads
a dataset (bundled case by default), prints text for reading or a
deterministic JSON document with --format machine, and exits 0 on success,
1 when violations or verification failures were found, 2 when the input
could not be read or was invalid (bad file, bad schema, bad --set value).

--set name=value specializes the solved report before printing, through
SolveReport.substitute, which checks the value against the derived bounds;
an inadmissible value exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .affine import AffineInt
from .data import SchemaError, load_bundled_dataset, load_dataset, validate_dataset
from .duality import hat
from .euler import UNKNOWN, euler_matrix
from .packets import all_micro_packets, basic_arthur_packet, simplified_arthur_parameters, \
    unitarity_report, verify_az_micro_compatibility, verify_weak_equals_union, \
    weak_arthur_packet
from .solver import ComputationError, InadmissibleAssignment, InconsistentSystem, \
    build_constraints, check_halfinteger_roots, localization_check_terms, \
    reconstruct_local_euler, solve, special_cc_localization


class CLIError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- plumbing

def _load(cfg):
    try:
        if cfg.dataset:
            return load_dataset(cfg.dataset)
        return load_bundled_dataset()
    except (OSError, SchemaError) as e:
        raise CLIError(f"cannot load dataset: {e}", 2) from None


def _assignment(cfg):
    out = {}
    for item in cfg.set or []:
        name, eq, value = item.partition("=")
        if not eq:
            raise CLIError(f"--set expects name=value, got {item!r}", 2)
        try:
            value = int(value)
        except ValueError:
            raise CLIError(f"--set {name}: value {value!r} is not an integer", 2) from None
        if out.get(name, value) != value:
            raise CLIError(f"--set {name}: given both {out[name]} and {value}", 2)
        out[name] = value
    return out


def _solved(ds):
    try:
        return solve(build_constraints(ds, euler_matrix(ds)))
    except InconsistentSystem as e:
        raise CLIError(str(e), 1) from None


def _substituted(sr, assignment):
    try:
        return sr.substitute(assignment)
    except InadmissibleAssignment as e:
        raise CLIError(str(e), 2) from None


def _require_valid(ds, sink):
    violations = validate_dataset(ds)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        raise CLIError(f"dataset has {len(violations)} violations", 1)


# ---------------------------------------------------------------- rendering

def _jvalue(v):
    if isinstance(v, AffineInt):
        if v.is_constant():
            c = v.constant
            return c if type(c) is int else str(c)
        return str(v)
    return v


def _term(coeff, orbit):
    if coeff == 1:
        return f"[{orbit}]"
    s = str(coeff)
    if any(ch in s[1:] for ch in "+-"):
        s = f"({s})"
    return f"{s}[{orbit}]"


def _cycle_line(ds, cc):
    desc = [o.id for o in reversed(ds.orbits)]
    terms = [_term(cc.mult[o], o) for o in desc if o in cc.mult]
    body = " + ".join(terms) if terms else "0"
    src = f"({cc.source[0]},{cc.source[1]})"
    return f"CC(IC{src}) = {body}"


def _cc_lines(ds, sr):
    return [_cycle_line(ds, sr.cc_table[src]) for src in ds.local_systems()]


def _cc_doc(ds, sr):
    rows = []
    for src in ds.local_systems():
        cc = sr.cc_table[src]
        mult = [{"orbit": o.id, "value": _jvalue(cc.mult[o.id])}
                for o in reversed(ds.orbits) if o.id in cc.mult]
        rows.append({"source": list(src), "mult": mult})
    return {"dataset": ds.name, "cycles": rows}


def _bound_lines(sr):
    out = []
    for b in sr.bounds or []:
        pieces = []
        if b.lower is not None:
            pieces.append(f"{b.parameter} >= {b.lower}")
        if b.upper is not None:
            pieces.append(f"{b.parameter} <= {b.upper}")
        if not pieces:
            pieces.append(f"{b.parameter} unconstrained")
        wit = ""
        if b.tight_lower_witnesses:
            src, orb = b.tight_lower_witnesses[0]
            wit = f"   [tight at CC(IC({src[0]},{src[1]})) over {orb}]"
        out.append("  " + " and ".join(pieces) + (" (infeasible)" if not b.feasible else "") + wit)
    if sr.bound_note:
        out.append(f"  note: {sr.bound_note}")
    if not out:
        out.append("  none")
    return out


def _bounds_doc(sr):
    return [{
        "parameter": b.parameter, "lower": b.lower, "upper": b.upper,
        "tight_lower_witnesses": [[list(s), o] for s, o in b.tight_lower_witnesses],
        "tight_upper_witnesses": [[list(s), o] for s, o in b.tight_upper_witnesses],
        "feasible": b.feasible,
    } for b in sr.bounds or []]


def _solve_lines(ds, sr):
    lines = [
        f"dataset {ds.name}: {len(ds.orbits)} orbits, {len(ds.local_systems())} local systems",
        f"equations: {sr.equation_count} (expansion rows skipped for unknown cells: {len(sr.skipped)})",
        f"free parameters ({len(sr.free_parameters)}): {', '.join(sr.free_parameters) or 'none'}",
        "bounds:",
        *_bound_lines(sr),
        f"index entries left parametric: {len(sr.residual_unknowns)}",
    ]
    return lines


def _solve_doc(ds, sr):
    return {
        "dataset": ds.name,
        "equations": sr.equation_count,
        "skipped": [{"anchor": s.anchor, "source": list(s.source),
                     "missing": [[o, list(src)] for o, src in s.missing]}
                    for s in sr.skipped],
        "free_parameters": list(sr.free_parameters),
        "bounds": _bounds_doc(sr),
        "residual": [list(p) for p in sr.residual_unknowns],
        "cmatrix": [{"row": a, "col": b, "value": _jvalue(v)}
                    for (a, b), v in sorted(sr.cmatrix.entries.items())],
        "cycles": _cc_doc(ds, sr)["cycles"],
    }


def _packet_label(p):
    if p.kind == "micro":
        return f"micro {p.anchor}"
    if p.anchor:
        return f"{p.kind} (anchor {p.anchor})"
    return p.kind


def _packet_line(p):
    body = " ".join(p.members) or "(empty)"
    if p.indeterminate:
        body += f"   indeterminate: {' '.join(p.indeterminate)}"
    return f"{_packet_label(p)}: {body}"


def _packet_doc(p):
    return {"kind": p.kind, "anchor": p.anchor,
            "members": list(p.members), "indeterminate": list(p.indeterminate)}


def _banner_lines(ds):
    flagged = [r.id for r in ds.catalog if not r.iwahori_spherical]
    if not flagged:
        return []
    return [
        f"note: {', '.join(flagged)} lies outside the Iwahori-spherical range covered",
        "by the matching of evaluation data; statements involving it rest on the",
        "duality pairing declared in the dataset.",
    ]


# ---------------------------------------------------------------- commands

def _cmd_validate(ds, cfg, sink):
    violations = validate_dataset(ds)
    if cfg.format == "machine":
        sink.append(json.dumps(
            {"dataset": ds.name, "ok": not violations,
             "violations": [{"code": v.code, "detail": v.detail} for v in violations]},
            sort_keys=True, indent=2))
    else:
        if violations:
            sink.extend(str(v) for v in violations)
        else:
            sink.append(f"dataset {ds.name}: ok")
    return 1 if violations else 0


def _cmd_solve(ds, cfg, sink):
    _require_valid(ds, sink)
    sr = _substituted(_solved(ds), _assignment(cfg))
    if cfg.format == "machine":
        sink.append(json.dumps(_solve_doc(ds, sr), sort_keys=True, indent=2))
    else:
        sink.extend(_solve_lines(ds, sr))
    return 0


def _cmd_cc(ds, cfg, sink):
    _require_valid(ds, sink)
    sr = _substituted(_solved(ds), _assignment(cfg))
    if cfg.format == "machine":
        sink.append(json.dumps(_cc_doc(ds, sr), sort_keys=True, indent=2))
    else:
        sink.extend(_cc_lines(ds, sr))
    return 0


@contextmanager
def _computing():
    """A ComputationError or ValueError inside ends the command with exit 1."""
    try:
        yield
    except (ComputationError, ValueError) as e:
        raise CLIError(str(e), 1) from None


def _packets_bundle(ds, sr):
    micro = all_micro_packets(sr, ds.catalog)
    basic = basic_arthur_packet(sr, ds.catalog)
    weak = weak_arthur_packet(ds, ds.catalog)
    return micro, basic, weak


def _cmd_packets(ds, cfg, sink):
    _require_valid(ds, sink)
    sr = _substituted(_solved(ds), _assignment(cfg))
    with _computing():
        micro, basic, weak = _packets_bundle(ds, sr)
    if cfg.format == "machine":
        doc = {"dataset": ds.name,
               "micro": [_packet_doc(p) for p in micro.values()],
               "basic": _packet_doc(basic),
               "weak": _packet_doc(weak)}
        sink.append(json.dumps(doc, sort_keys=True, indent=2))
    else:
        sink.extend(_banner_lines(ds))
        sink.extend(_packet_line(p) for p in micro.values())
        sink.append(_packet_line(basic))
        sink.append(_packet_line(weak))
    return 0


def _verify_checks(ds, sr):
    """(name, ok, detail) triples for the whole battery."""
    from .solver import verify_fourier_symmetry

    checks = []

    bad = verify_fourier_symmetry(sr)
    n = len(ds.local_systems()) * len(ds.orbits)
    checks.append(("fourier-symmetry", not bad,
                   f"{n} identities" if not bad else f"{len(bad)} mismatches: {bad[:3]}"))

    negative = []
    for src, cc in sr.cc_table.items():
        for o, v in cc.mult.items():
            if v.is_constant() and v.constant < 0:
                negative.append((src, o))
    feasible = all(b.feasible for b in sr.bounds or [])
    checks.append(("multiplicities-admissible", not negative and feasible,
                   "bounds feasible, no negative constants" if not negative and feasible
                   else f"negative at {negative[:3]}" if negative else "bounds infeasible"))

    try:
        wu = verify_weak_equals_union(ds, sr, ds.catalog)
        checks.append(("weak-equals-union", wu.equal,
                       f"{len(wu.weak.members)} members over anchors {', '.join(wu.anchors)}"
                       if wu.equal else
                       f"weak {list(wu.weak.members)} vs union {list(wu.union_members)}"))
    except (ComputationError, KeyError, ValueError) as e:
        checks.append(("weak-equals-union", False, str(e)))

    compat = verify_az_micro_compatibility(sr, ds.catalog, ds.duality)
    bad = [r for r in compat if not r.ok]
    checks.append(("az-compatibility", not bad,
                   f"{len(compat)} anchors" if not bad
                   else "mismatch at " + ", ".join(r.anchor for r in bad)))

    try:
        basic = basic_arthur_packet(sr, ds.catalog)
        checks.append(("basic-packet", True,
                       f"{len(basic.members)} members at anchor {basic.anchor}"))
    except ComputationError as e:
        checks.append(("basic-packet", False, str(e)))

    try:
        loc = special_cc_localization(ds, sr)
        at = ", ".join(f"{o}: {loc.mult[o]}" for o in ds.conormal_dense_exceptions)
        checks.append(("localization", True, f"pinned {at}"))
    except ComputationError as e:
        checks.append(("localization", False, str(e)))

    em = euler_matrix(ds)
    rec = reconstruct_local_euler(sr, list(sr.cc_table.values()))
    compared = mism = 0
    for (src, t), v in em.entries.items():
        if v is UNKNOWN:
            continue
        r = rec.entries.get((src, t))
        if r is UNKNOWN or r is None:
            continue
        compared += 1
        if r != v:
            mism += 1
    checks.append(("euler-roundtrip", mism == 0,
                   f"{compared} cells agree" if mism == 0 else f"{mism} cells disagree"))

    ok_b = check_halfinteger_roots(ds.b_function)
    checks.append(("b-function", ok_b,
                   "no roots in Z+1/2" if ok_b else "half-integer root present"))
    return checks


def _cmd_verify(ds, cfg, sink):
    violations = validate_dataset(ds)
    checks = [("dataset-valid", not violations,
               "no violations" if not violations
               else "; ".join(str(v) for v in violations))]
    if not violations:
        sr = _substituted(_solved(ds), _assignment(cfg))
        checks.extend(_verify_checks(ds, sr))
    ok = all(c[1] for c in checks)
    if cfg.format == "machine":
        sink.append(json.dumps(
            {"dataset": ds.name, "ok": ok,
             "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in checks]},
            sort_keys=True, indent=2))
    else:
        width = max(len(n) for n, _, _ in checks)
        for n, o, d in checks:
            sink.append(f"{n.ljust(width)}  {'ok' if o else 'FAIL'}  {d}")
    return 0 if ok else 1


def _cmd_report(ds, cfg, sink):
    _require_valid(ds, sink)
    sr = _substituted(_solved(ds), _assignment(cfg))
    with _computing():
        micro, basic, weak = _packets_bundle(ds, sr)
        wu = verify_weak_equals_union(ds, sr, ds.catalog)
        arthur = simplified_arthur_parameters(ds)
        loc_terms = localization_check_terms(ds)
    packets = list(micro.values()) + [basic, weak]
    unit = unitarity_report(ds.catalog, packets)
    checks = _verify_checks(ds, sr)

    if cfg.format == "machine":
        doc = {
            "dataset": ds.name,
            "ambient_dim": ds.ambient_dim,
            "solve": _solve_doc(ds, sr),
            "packets": {"micro": [_packet_doc(p) for p in micro.values()],
                        "basic": _packet_doc(basic), "weak": _packet_doc(weak)},
            "weak_equals_union": wu.equal,
            "arthur_parameters": arthur,
            "unitarity": unit,
            "b_function": [str(r) for r in ds.b_function],
            "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in checks],
            "assumption_notes": _banner_lines(ds),
        }
        sink.append(json.dumps(doc, sort_keys=True, indent=2))
        return 0 if all(c[1] for c in checks) else 1

    sink.append(f"=== {ds.name} ===")
    sink.append("")
    for o in ds.orbits:
        irr = ", ".join(f"{lab} (dim {d})" for lab, d in o.group.irreps)
        sink.append(f"  {o.id}: dim {o.dim}, group {o.group.name}, irreps {irr}")
    sink.append("")
    sink.extend(_banner_lines(ds))
    sink.append("")
    sink.append("-- solve --")
    sink.extend(_solve_lines(ds, sr))
    sink.append("")
    sink.append("-- characteristic cycles --")
    sink.extend(_cc_lines(ds, sr))
    sink.append("")
    sink.append("-- index matrix --")
    for o in reversed(ds.orbits):
        cols = [b.id for b in ds.orbits if ds.poset.leq(o.id, b.id)]
        cells = [f"c({o.id},{b}) = {sr.cmatrix.entry(o.id, b)}" for b in cols]
        sink.append("  " + "; ".join(cells))
    sink.append("")
    sink.append("-- localization pinning --")
    for probe, terms in loc_terms.items():
        prods = " ".join(f"{'+' if t['product'] >= 0 else '-'} {abs(t['product'])}"
                         for t in terms[1:] if t["product"])
        sink.append(f"  0 = m(({probe[0]},{probe[1]})) {prods}".rstrip())
    sink.append("")
    sink.append("-- packets --")
    sink.extend(_packet_line(p) for p in micro.values())
    sink.append(_packet_line(basic))
    sink.append(_packet_line(weak))
    sink.append(f"weak packet equals union over dual anchors: "
                f"{'yes' if wu.equal else 'NO'}")
    sink.append("")
    sink.append("-- parameter family --")
    for row in arthur:
        sink.append(f"  {row['label']}: support {row['support']}, dual {row['dual']}")
    sink.append("")
    sink.append("-- unitarity --")
    for row in unit:
        if row["nonunitary"] or row["nonunitary_indeterminate"]:
            bad = ", ".join(row["nonunitary"] + row["nonunitary_indeterminate"])
            label = row["kind"] + (f" {row['anchor']}" if row["anchor"] else "")
            sink.append(f"  {label}: not unitary: {bad}")
    if all(r["all_unitary"] for r in unit):
        sink.append("  every packet member unitary")
    sink.append("")
    sink.append(f"b-function roots: {', '.join(str(r) for r in ds.b_function)}")
    sink.append("")
    sink.append("-- checks --")
    width = max(len(n) for n, _, _ in checks)
    for n, o, d in checks:
        sink.append(f"{n.ljust(width)}  {'ok' if o else 'FAIL'}  {d}")
    return 0 if all(c[1] for c in checks) else 1


COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "cc": _cmd_cc,
    "packets": _cmd_packets,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def run(cfg):
    """Execute one parsed invocation; returns the process exit code."""
    sink = []
    try:
        ds = _load(cfg)
        code = COMMANDS[cfg.command](ds, cfg, sink)
    except CLIError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    text = "\n".join(sink) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {cfg.out}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dataset", metavar="PATH",
                        help="dataset JSON file (default: bundled case)")
    common.add_argument("--format", choices=("text", "machine"), default="text",
                        help="human text or deterministic JSON")
    common.add_argument("--out", metavar="PATH", help="write output to a file")
    common.add_argument("--set", action="append", metavar="NAME=INT",
                        help="substitute an integer for a free parameter "
                             "(checked against the derived bounds; repeatable)")
    parser = argparse.ArgumentParser(
        prog="microloc",
        description="exact characteristic-cycle and packet computations")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common],
                   help="check dataset invariants, list violations")
    sub.add_parser("solve", parents=[common],
                   help="solve the index system, summarize parameters and bounds")
    sub.add_parser("cc", parents=[common],
                   help="print the characteristic cycle table")
    sub.add_parser("packets", parents=[common],
                   help="micro, basic and weak packets")
    sub.add_parser("verify", parents=[common],
                   help="run the verification battery, one line per check")
    sub.add_parser("report", parents=[common],
                   help="full report: cycles, index matrix, packets, checks")
    return parser


def main(argv=None):
    cfg = build_parser().parse_args(argv)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
