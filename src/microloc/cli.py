"""Command line front end.

Subcommands: validate, solve, cc, packets, verify, report.  Every one reads
a dataset (bundled case by default) and builds one JSON-ready document.
--format machine prints that document as deterministic JSON, exactly
json.dumps(doc, sort_keys=True, indent=2) and a newline; the text form is
rendered from the document alone, so the two carry the same facts.  The
exit code is 0 on success, 1 when violations or verification failures were
found, 2 when the input could not be read or was invalid (bad file, bad
schema, bad --set value).  verify and report take their checks from
checks.verify_battery; the CLI adds only dataset-valid, and renders.

--set name=value specializes the solved report before printing, through
SolveReport.substitute, which checks the value against the derived bounds;
an inadmissible value exits 2.
"""

import argparse
import gc
import re
import sys
from contextlib import contextmanager
from functools import cache, partial
from json.encoder import encode_basestring_ascii

from .affine import AffineInt
from .checks import Check, verify_battery
from .data import SchemaError, load_bundled_dataset, load_dataset, validate_dataset
from .euler import euler_matrix
from .packets import all_micro_packets, basic_arthur_packet, simplified_arthur_parameters, \
    unitarity_report, verify_weak_equals_union, weak_arthur_packet
from .solver import ComputationError, InadmissibleAssignment, InconsistentSystem, \
    build_constraints, localization_check_terms, solve


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
    """The --set values as {name: int}; a value is ASCII [+-]?[0-9]+."""
    out = {}
    for item in cfg.set or []:
        name, eq, value = item.partition("=")
        if not eq:
            raise CLIError(f"--set expects name=value, got {item!r}", 2)
        if not re.fullmatch("[+-]?[0-9]+", value):
            raise CLIError(f"--set {name}: value {value!r} is not an integer", 2)
        value = int(value)
        if out.get(name, value) != value:
            raise CLIError(f"--set {name}: given both {out[name]} and {value}", 2)
        out[name] = value
    return out


def _solution(ds, cfg):
    """The solved report with the --set values put in."""
    try:
        sr = solve(build_constraints(ds, euler_matrix(ds)))
    except InconsistentSystem as e:
        raise CLIError(str(e), 1) from None
    assignment = _assignment(cfg)
    try:
        return sr.substitute(assignment)
    except InadmissibleAssignment as e:
        raise CLIError(str(e), 2) from None


def _require_valid(ds):
    violations = validate_dataset(ds)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        raise CLIError(f"dataset has {len(violations)} violations", 1)


@contextmanager
def _computing():
    """A ComputationError or ValueError inside ends the command with exit 1."""
    try:
        yield
    except (ComputationError, ValueError) as e:
        raise CLIError(str(e), 1) from None


# ---------------------------------------------------------------- documents

def _jvalue(v):
    if isinstance(v, AffineInt):
        if v.is_constant():
            c = v.constant
            return c if type(c) is int else str(c)
        return str(v)
    return v


def _cc_doc(sr):
    ds = sr.dataset
    rows = []
    top_down = [o.id for o in reversed(ds.orbits)]
    for src in ds.local_systems():
        cc = sr.cc_table[src]
        mult = [{"orbit": t, "value": _jvalue(cc.mult[t])} for t in top_down if t in cc.mult]
        rows.append({"source": list(src), "mult": mult})
    return {"dataset": ds.name, "cycles": rows}


def _bounds_doc(sr):
    return [{
        "parameter": b.parameter, "lower": b.lower, "upper": b.upper,
        "tight_lower_witnesses": [[list(s), o] for s, o in b.tight_lower_witnesses],
        "tight_upper_witnesses": [[list(s), o] for s, o in b.tight_upper_witnesses],
        "feasible": b.feasible,
    } for b in sr.bounds or []]


def _solve_doc(sr):
    ds = sr.dataset
    entries = sr.cmatrix.entries
    return {
        "dataset": ds.name,
        "orbit_count": len(ds.orbits),
        "local_system_count": len(ds.local_systems()),
        "equations": sr.equation_count,
        "skipped": [{"anchor": s.anchor, "source": list(s.source),
                     "missing": [[o, list(src)] for o, src in s.missing]}
                    for s in sr.skipped],
        "free_parameters": list(sr.free_parameters),
        "bounds": _bounds_doc(sr),
        "bound_note": sr.bound_note,
        "residual": [list(p) for p in sr.residual_unknowns],
        "cmatrix": [{"row": a, "col": b, "value": _jvalue(entries[a, b])}
                    for a, b in sorted(entries)],
        "cycles": _cc_doc(sr)["cycles"],
    }


def _packets(sr):
    """The micro-packets in anchor order, then the basic and the weak packet."""
    return [*all_micro_packets(sr).values(), basic_arthur_packet(sr),
            weak_arthur_packet(sr.dataset)]


def _packet_doc(p):
    return {"kind": p.kind, "anchor": p.anchor,
            "members": list(p.members), "indeterminate": list(p.indeterminate)}


def _packets_doc(packets):
    *micro, basic, weak = packets
    return {"micro": [_packet_doc(p) for p in micro],
            "basic": _packet_doc(basic), "weak": _packet_doc(weak)}


def _assumption_notes(ds):
    flagged = [r.id for r in ds.catalog if not r.iwahori_spherical]
    if not flagged:
        return []
    return [
        f"note: {', '.join(flagged)} lies outside the Iwahori-spherical range covered",
        "by the matching of evaluation data; statements involving it rest on the",
        "duality pairing declared in the dataset.",
    ]


# ---------------------------------------------------------------- commands

def _cmd_validate(ds, cfg):
    violations = validate_dataset(ds)
    return (1 if violations else 0), {
        "dataset": ds.name, "ok": not violations,
        "violations": [{"code": v.code, "detail": v.detail} for v in violations]}


def _cmd_solve(ds, cfg):
    _require_valid(ds)
    return 0, _solve_doc(_solution(ds, cfg))


def _cmd_cc(ds, cfg):
    _require_valid(ds)
    return 0, _cc_doc(_solution(ds, cfg))


def _cmd_packets(ds, cfg):
    _require_valid(ds)
    sr = _solution(ds, cfg)
    with _computing():
        packets = _packets(sr)
    return 0, {"dataset": ds.name, **_packets_doc(packets),
               "assumption_notes": _assumption_notes(ds)}


def _cmd_verify(ds, cfg):
    violations = validate_dataset(ds)
    checks = [Check("dataset-valid", not violations,
                    "no violations" if not violations
                    else "; ".join(str(v) for v in violations))]
    if not violations:
        checks += verify_battery(_solution(ds, cfg))
    ok = all(c.ok for c in checks)
    return (0 if ok else 1), {"dataset": ds.name, "ok": ok,
                              "checks": [c._asdict() for c in checks]}


def _cmd_report(ds, cfg):
    _require_valid(ds)
    sr = _solution(ds, cfg)
    with _computing():
        packets = _packets(sr)
        wu = verify_weak_equals_union(sr)
        arthur = simplified_arthur_parameters(ds)
        loc_terms = localization_check_terms(ds)
    unit = unitarity_report(ds.catalog, packets)
    checks = verify_battery(sr)
    doc = {
        "dataset": ds.name,
        "ambient_dim": ds.ambient_dim,
        "orbits": [{"id": o.id, "dim": o.dim, "group": o.group.name,
                    "irreps": [[lab, d] for lab, d in o.group.irreps]} for o in ds.orbits],
        "solve": _solve_doc(sr),
        "localization": [{"probe": list(probe), "composition_terms": terms}
                         for probe, terms in loc_terms.items()],
        "packets": _packets_doc(packets),
        "weak_equals_union": wu.equal,
        "arthur_parameters": arthur,
        "unitarity": unit,
        "b_function": [str(r) for r in ds.b_function],
        "checks": [c._asdict() for c in checks],
        "assumption_notes": _assumption_notes(ds),
    }
    return (0 if all(c.ok for c in checks) else 1), doc


# ---------------------------------------------------------------- machine

def _machine_json(doc):
    """doc as the text json.dumps(doc, sort_keys=True, indent=2) gives.

    With indent set, json.dumps runs CPython's pure-Python encoder; this
    writer makes the same bytes in one recursive pass that appends to a
    list and escapes strings with the C function json itself uses.  It
    takes what the documents hold: dicts with str keys, lists and tuples,
    str, int, True, False and None.  Anything else, a float included,
    raises TypeError.  The documents are mostly lists of records of one
    key set, so the key order and the encoded key heads are made once per
    record shape (see _write_json).
    """
    parts = []
    _write_json(doc, "\n", parts.append)
    return "".join(parts)


def _write_json(v, nl, put):
    """Pass v's JSON text to put in pieces; nl is the newline and indent of v's line.

    A module-level function rather than a closure over put: a recursive
    closure is a reference cycle, which would keep the whole output alive
    until the next collection.  str and int children, most of a document,
    are written inline without a call.  A dict is written by _write_record
    from its shape, its sorted keys with their heads; a list item that is
    a dict with the same keys as the list's previous dict item reuses that
    item's shape, so the keys are sorted and checked once per run of equal
    key sets.
    """
    if isinstance(v, str):
        put(encode_basestring_ascii(v))
    elif v is None:
        put("null")
    elif v is True:
        put("true")
    elif v is False:
        put("false")
    elif isinstance(v, int):
        put(int.__repr__(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        keys = shape = None
        for x in v:
            if type(x) is str:
                put(sep + encode_basestring_ascii(x))
            elif type(x) is int:
                put(sep + int.__repr__(x))
            elif type(x) is dict and x:
                if x.keys() != keys:
                    keys, shape = x.keys(), _shape(x, inner)
                put(sep)
                _write_record(x, shape, inner, put)
            else:
                put(sep)
                _write_json(x, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif isinstance(v, dict):
        if not v:
            put("{}")
            return
        _write_record(v, _shape(v, nl), nl, put)
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _shape(d, nl):
    """d's keys in sorted order, each with the text that goes before its value."""
    inner = nl + "  "
    sep = "{" + inner
    out = []
    for k in sorted(d):
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {type(k).__name__}")
        out.append((k, sep + encode_basestring_ascii(k) + ": "))
        sep = "," + inner
    return out


def _write_record(d, shape, nl, put):
    """Write the non-empty dict d, whose keys and heads are shape, at indent nl."""
    inner = nl + "  "
    for k, head in shape:
        x = d[k]
        if type(x) is str:
            put(head + encode_basestring_ascii(x))
        elif type(x) is int:
            put(head + int.__repr__(x))
        else:
            put(head)
            _write_json(x, inner, put)
    put(nl + "}")


# ---------------------------------------------------------------- text
# Each renderer reads only its command's document and returns the lines.

def _term(coeff, orbit):
    if coeff == 1:
        return f"[{orbit}]"
    s = str(coeff)
    if any(ch in s[1:] for ch in "+-"):
        s = f"({s})"
    return f"{s}[{orbit}]"


def _cc_text(doc):
    out = []
    for row in doc["cycles"]:
        body = " + ".join(_term(m["value"], m["orbit"]) for m in row["mult"]) or "0"
        src = row["source"]
        out.append(f"CC(IC({src[0]},{src[1]})) = {body}")
    return out


def _bound_lines(solve_doc):
    out = []
    for b in solve_doc["bounds"]:
        pieces = []
        if b["lower"] is not None:
            pieces.append(f"{b['parameter']} >= {b['lower']}")
        if b["upper"] is not None:
            pieces.append(f"{b['parameter']} <= {b['upper']}")
        wit = ""
        if b["tight_lower_witnesses"]:
            src, orb = b["tight_lower_witnesses"][0]
            wit = f"   [tight at CC(IC({src[0]},{src[1]})) over {orb}]"
        infeasible = "" if b["feasible"] else " (infeasible)"
        out.append("  " + " and ".join(pieces) + infeasible + wit)
    if solve_doc["bound_note"]:
        out.append(f"  note: {solve_doc['bound_note']}")
    return out or ["  none"]


def _index_lines(orbits, cmatrix):
    """One line per orbit, top down: its entries c(a,b), b in orbit order."""
    rank = {o["id"]: i for i, o in enumerate(orbits)}
    rows = {o["id"]: [] for o in orbits}
    for e in sorted(cmatrix, key=lambda e: rank[e["col"]]):
        rows[e["row"]].append(f"c({e['row']},{e['col']}) = {e['value']}")
    return ["  " + "; ".join(rows[o["id"]]) for o in reversed(orbits)]


def _packet_line(p):
    if p["kind"] == "micro":
        label = f"micro {p['anchor']}"
    elif p["anchor"]:
        label = f"{p['kind']} (anchor {p['anchor']})"
    else:
        label = p["kind"]
    body = " ".join(p["members"]) or "(empty)"
    if p["indeterminate"]:
        body += f"   indeterminate: {' '.join(p['indeterminate'])}"
    return f"{label}: {body}"


def _packet_lines(packets_doc):
    return [_packet_line(p) for p in
            [*packets_doc["micro"], packets_doc["basic"], packets_doc["weak"]]]


def _validate_text(doc):
    if doc["violations"]:
        return [f"[{v['code']}] {v['detail']}" for v in doc["violations"]]
    return [f"dataset {doc['dataset']}: ok"]


def _solve_text(doc):
    fp = doc["free_parameters"]
    return [
        f"dataset {doc['dataset']}: {doc['orbit_count']} orbits, "
        f"{doc['local_system_count']} local systems",
        f"equations: {doc['equations']} "
        f"(expansion rows skipped for unknown cells: {len(doc['skipped'])})",
        f"free parameters ({len(fp)}): {', '.join(fp) or 'none'}",
        "bounds:",
        *_bound_lines(doc),
        f"index entries left parametric: {len(doc['residual'])}",
    ]


def _packets_text(doc):
    return doc["assumption_notes"] + _packet_lines(doc)


def _verify_text(doc):
    width = max(len(c["name"]) for c in doc["checks"])
    return [f"{c['name'].ljust(width)}  {'ok' if c['ok'] else 'FAIL'}  {c['detail']}"
            for c in doc["checks"]]


def _report_text(doc):
    solve_doc = doc["solve"]
    out = [f"=== {doc['dataset']} ===", ""]
    for o in doc["orbits"]:
        irr = ", ".join(f"{lab} (dim {d})" for lab, d in o["irreps"])
        out.append(f"  {o['id']}: dim {o['dim']}, group {o['group']}, irreps {irr}")
    out += ["", *doc["assumption_notes"],
            "", "-- solve --", *_solve_text(solve_doc),
            "", "-- characteristic cycles --", *_cc_text(solve_doc),
            "", "-- index matrix --", *_index_lines(doc["orbits"], solve_doc["cmatrix"]),
            "", "-- localization pinning --"]
    for loc in doc["localization"]:
        probe = loc["probe"]
        prods = " ".join(f"{'+' if t['product'] >= 0 else '-'} {abs(t['product'])}"
                         for t in loc["composition_terms"][1:] if t["product"])
        out.append(f"  0 = m(({probe[0]},{probe[1]})) {prods}".rstrip())
    out += ["", "-- packets --", *_packet_lines(doc["packets"]),
            "weak packet equals union over dual anchors: "
            f"{'yes' if doc['weak_equals_union'] else 'NO'}",
            "", "-- parameter family --"]
    out += [f"  {r['label']}: support {r['support']}, dual {r['dual']}"
            for r in doc["arthur_parameters"]]
    out += ["", "-- unitarity --"]
    for row in doc["unitarity"]:
        if row["nonunitary"] or row["nonunitary_indeterminate"]:
            bad = ", ".join(row["nonunitary"] + row["nonunitary_indeterminate"])
            label = row["kind"] + (f" {row['anchor']}" if row["anchor"] else "")
            out.append(f"  {label}: not unitary: {bad}")
    if all(r["all_unitary"] for r in doc["unitarity"]):
        out.append("  every packet member unitary")
    out += ["", f"b-function roots: {', '.join(doc['b_function'])}",
            "", "-- checks --", *_verify_text(doc)]
    return out


# name -> (command: (ds, cfg) -> (exit code, document), text renderer)
COMMANDS = {
    "validate": (_cmd_validate, _validate_text),
    "solve": (_cmd_solve, _solve_text),
    "cc": (_cmd_cc, _cc_text),
    "packets": (_cmd_packets, _packets_text),
    "verify": (_cmd_verify, _verify_text),
    "report": (_cmd_report, _report_text),
}


def run(cfg):
    """Execute one parsed invocation; returns the process exit code."""
    try:
        _assignment(cfg)       # the --set syntax, checked for every command
        ds = _load(cfg)
        command, render = COMMANDS[cfg.command]
        code, doc = command(ds, cfg)
    except CLIError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    if cfg.format == "machine":
        text = _machine_json(doc) + "\n"
    else:
        text = "\n".join(render(doc)) + "\n"
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


class _UsageFormatter(argparse.HelpFormatter):
    """argparse's formatter, cut from its root section once the text is made.

    The root section and the formatter refer to each other, so every usage
    or error message argparse prints would leave a reference cycle.  The
    full --help text nests sections that link to their parents; that cycle
    stays, and main's closing collection frees it.
    """

    def format_help(self):
        text = super().format_help()
        self._root_section = self._current_section = None
        return text


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
        prog="microloc", formatter_class=_UsageFormatter,
        description="exact characteristic-cycle and packet computations")
    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, parents=[common], formatter_class=_UsageFormatter)
    add("validate", help="check dataset invariants, list violations")
    add("solve", help="solve the index system, summarize parameters and bounds")
    add("cc", help="print the characteristic cycle table")
    add("packets", help="micro, basic and weak packets")
    add("verify", help="run the verification battery, one line per check")
    add("report", help="full report: cycles, index matrix, packets, checks")
    return parser


@cache
def _parser():
    """The parser, built once per process: building it costs far more than a parse."""
    return build_parser()


def main(argv=None):
    """Parse argv and run it; returns the exit code.

    The cyclic garbage collector is paused for the command: no command
    creates a reference cycle (tests/test_cli_gc.py checks each one), so
    the young collections it would run find nothing to free.  Once the
    command ends, one collection runs in their place: of the oldest
    generation whose count exceeds its threshold, as the automatic
    collector would choose, and of the young generation when none does.
    So a caller that runs many commands in one process still gets its
    middle and full collections.  A collector that the caller has disabled
    stays disabled.
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        return run(_parser().parse_args(argv))
    finally:
        if paused:
            gc.enable()
            gc.collect(_due_generation())


def _due_generation():
    """The oldest generation whose count exceeds its threshold, or 0."""
    counts, limits = gc.get_count(), gc.get_threshold()
    return next((g for g in (2, 1) if counts[g] > limits[g]), 0)


if __name__ == "__main__":
    sys.exit(main())
