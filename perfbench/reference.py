"""Reference checks that do not use the code under test.

Nothing here imports microloc.  The F4(a3) answers come from the frozen
values in tests/golden.py, the chain answers from the closed form of the
construction in inputs.py, and conflicts are confirmed with sympy over
QQ on a constraint system built here from the dataset document, following
the rules documented in microloc/solver.py and microloc/euler.py.

Every check function returns a list of complaint strings; empty means the
output is correct.
"""

import ast
import json
import re
from fractions import Fraction

from inputs import SIGN, orbit_id

_TERM = re.compile(r"([+-]?)(\d*)(c?)")
CONFLICT_PREFIX = "error: inconsistent system; minimal conflicting subset: "


def load_golden(path):
    """The frozen F4(a3) values, read as literals from the golden file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("CC_TABLE", "C_ENTRIES", "PACKETS"):
                out[name] = ast.literal_eval(node.value)
    return out


def affine_in_c(text):
    """'c-2' / '-3c' / '4' / 4 as a (constant, c-coefficient) pair; None if not affine in c."""
    if isinstance(text, int):
        return (text, 0)
    text = str(text).strip().strip("()")
    if not text:
        return None
    const = coef = 0
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or (not m.group(2) and not m.group(3)):
            return None
        sign = -1 if m.group(1) == "-" else 1
        if m.group(3):
            coef += sign * int(m.group(2) or 1)
        else:
            const += sign * int(m.group(2))
        pos = m.end()
    return (const, coef)


# ---------------------------------------------------------------- text parsing

_CC_LINE = re.compile(r"^CC\(IC\((\w+),(\([^)]*\))\)\) = (.*)$")
_CC_TERM = re.compile(r"^(\(.*\)|[^\[]*)\[(\w+)\]$")
_C_CELL = re.compile(r"^c\((\w+),(\w+)\) = (.*)$")


def _text_cycles(lines):
    cycles = {}
    for line in lines:
        m = _CC_LINE.match(line)
        if not m:
            continue
        mult = {}
        if m.group(3) != "0":
            for term in m.group(3).split(" + "):
                t = _CC_TERM.match(term)
                if not t:
                    return None
                mult[t.group(2)] = affine_in_c(t.group(1) or "1")
        cycles[(m.group(1), m.group(2))] = mult
    return cycles


def _text_cmatrix(lines):
    cells = {}
    for line in lines:
        if not line.startswith("  c("):
            continue
        for cell in line.strip().split("; "):
            m = _C_CELL.match(cell)
            if m:
                cells[(m.group(1), m.group(2))] = m.group(3)
    return cells


def _text_micro(lines):
    out = {}
    for line in lines:
        if not line.startswith("micro "):
            continue
        head, _, body = line.partition(": ")
        members, _, maybe = body.partition("   indeterminate: ")
        out[head.split()[1]] = (sorted(members.split()), sorted(maybe.split()))
    return out


def _machine_cycles(doc):
    return {tuple(row["source"]): {m["orbit"]: affine_in_c(m["value"]) for m in row["mult"]}
            for row in doc["solve"]["cycles"]}


def _machine_cmatrix(doc):
    return {(e["row"], e["col"]): e["value"] for e in doc["solve"]["cmatrix"]}


def _machine_micro(doc):
    return {p["anchor"]: (sorted(p["members"]), sorted(p["indeterminate"]))
            for p in doc["packets"]["micro"]}


def _parse_report(stdout, fmt):
    """(cycles, cmatrix, micro, bounds, checks_ok, free_parameters) from report output."""
    if fmt == "machine":
        doc = json.loads(stdout)
        bounds = [(b["parameter"], b["lower"], b["upper"]) for b in doc["solve"]["bounds"]]
        return (_machine_cycles(doc), _machine_cmatrix(doc), _machine_micro(doc),
                bounds, all(c["ok"] for c in doc["checks"]), doc["solve"]["free_parameters"])
    lines = stdout.splitlines()
    bounds = []
    for line in lines[lines.index("bounds:") + 1:]:
        if not line.startswith("  ") or line.startswith("  note:"):
            break
        m = re.match(r"^  (\w+) >= (-?\d+)", line)
        if m:
            bounds.append((m.group(1), int(m.group(2)), None))
        elif line.strip() != "none":
            bounds.append((line.strip(), None, None))
    checks = lines[lines.index("-- checks --") + 1:]
    checks_ok = bool(checks) and all(line.split()[1] == "ok" for line in checks if line)
    free = re.search(r"^free parameters \(\d+\): (.*)$", stdout, re.M).group(1)
    return (_text_cycles(lines), _text_cmatrix(lines), _text_micro(lines), bounds,
            checks_ok, [] if free == "none" else free.split(", "))


# ---------------------------------------------------------------- per-workload checks

def check_f4_report(golden, rc, stdout, stderr, fmt):
    """report on the bundled case against the frozen golden values."""
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[:200]}"]
    try:
        cycles, cmatrix, micro, bounds, checks_ok, _ = _parse_report(stdout, fmt)
    except (ValueError, KeyError, AttributeError, TypeError, IndexError) as e:
        return [f"unparseable {fmt} output: {e!r}"]
    bad = []
    want_cc = golden["CC_TABLE"]
    if cycles != want_cc:
        diff = sorted(k for k in set(want_cc) | set(cycles or {})
                      if (cycles or {}).get(k) != want_cc.get(k))
        bad.append(f"cycle table differs at {diff[:3]}")
    for pair, want in golden["C_ENTRIES"].items():
        if affine_in_c(cmatrix.get(pair)) != want:
            bad.append(f"c{pair} = {cmatrix.get(pair)!r}, golden {want}")
    want_micro = {a: (sorted(m), sorted(i)) for a, (m, i) in golden["PACKETS"].items()}
    if micro != want_micro:
        bad.append("micro-packets differ from golden")
    if ("c", 2, None) not in bounds:
        bad.append(f"bound c >= 2 missing: {bounds}")
    if not checks_ok:
        bad.append("a verify check failed")
    return bad


def check_chain_report(n, rc, stdout, stderr, fmt):
    """report on the n-chain against the closed form of the construction.

    CC(IC(Ai,(1))) = [Ai], the top sign sheaf's cycle is the sum of all
    conormals, nothing stays free, and the index matrix is (-1)^t on the
    diagonal, (-1)^(t+1) just above it and 0 elsewhere.
    """
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[:200]}"]
    try:
        cycles, cmatrix, _, bounds, checks_ok, free = _parse_report(stdout, fmt)
    except (ValueError, KeyError, AttributeError, TypeError, IndexError) as e:
        return [f"unparseable {fmt} output: {e!r}"]
    ids = [orbit_id(i) for i in range(n)]
    want_cc = {(a, "(1)"): {a: (1, 0)} for a in ids}
    want_cc[(ids[-1], SIGN)] = {a: (1, 0) for a in ids}
    want_c = {}
    for t in range(n):
        for u in range(t, n):
            want_c[(ids[t], ids[u])] = (-1) ** t if u == t else (-1) ** (t + 1) if u == t + 1 else 0
    bad = []
    if cycles != want_cc:
        bad.append("cycle table differs from the closed form")
    got_c = {k: affine_in_c(v) for k, v in cmatrix.items()}
    if got_c != {k: (v, 0) for k, v in want_c.items()}:
        bad.append("index matrix differs from the closed form")
    if free or bounds:
        bad.append(f"free parameters {free} / bounds {bounds}, expected none")
    if not checks_ok:
        bad.append("a verify check failed")
    return bad


def split_tags(text, known):
    """Split the ', '-joined tag list using the known tag texts; None if it does not parse."""
    tags, pos = [], 0
    by_len = sorted(known, key=len, reverse=True)
    while pos < len(text):
        hit = next((t for t in by_len if text.startswith(t, pos)), None)
        if hit is None:
            return None
        tags.append(hit)
        pos += len(hit)
        if text.startswith(", ", pos):
            pos += 2
        elif pos != len(text):
            return None
    return tags


def check_conflict(system, rc, stdout, stderr):
    """solve on an inconsistent input: exit 1 and a non-empty, inconsistent tag subset."""
    if rc != 1:
        return [f"exit code {rc}, expected 1"]
    line = stderr.strip()
    if stdout.strip() or "\n" in line or not line.startswith(CONFLICT_PREFIX):
        return [f"unexpected output: {line[:200]!r}"]
    tags = split_tags(line[len(CONFLICT_PREFIX):], system)
    if not tags:
        return [f"no parseable tag subset in {line[:200]!r}"]
    if consistent([system[t] for t in tags]):
        return [f"reported subset of {len(tags)} equations is consistent"]
    return []


# ---------------------------------------------------------------- independent system

def reference_system(doc):
    """tag text -> (coeffs dict, rhs) for the dataset document's rule system.

    Built from the document alone, by the rules the solver documents:
    support, leading, expansion (skipped where a local Euler value is not
    pinned), symmetry under fourier/hat, and the diagonal normalization.
    """
    dims = {o["id"]: o["dim"] for o in doc["orbits"]}
    irreps = {o["id"]: o["group"]["irreps"] for o in doc["orbits"]}
    order = [o["id"] for o in doc["orbits"]]
    up = {x: {x} for x in order}
    changed = True
    while changed:
        changed = False
        for a, b in doc["covers"]:
            for x in order:
                if a in up[x] and b not in up[x]:
                    up[x].add(b)
                    changed = True

    def leq(a, b):
        return b in up[a]

    per, total = {}, {}
    for r in doc["kl"]:
        torb, tirr = r["target"]
        key = (torb, tuple(r["source"]))
        if tirr is None:
            total[key] = r["value"]
        else:
            per[(torb, tirr, tuple(r["source"]))] = r["value"]

    def chi(src, t):
        """Local Euler value of IC(src) along t, or None when not pinned."""
        sign = (-1) ** dims[src[0]]
        if t == src[0]:
            return sign * dict(irreps[t])[src[1]]
        if not leq(t, src[0]):
            return 0
        acc = 0
        for lab, d in irreps[t]:
            v = per.get((t, lab, src))
            if v is None and total.get((t, src)) == 0:
                v = 0
            if v is None:
                break
            acc += d * v
        else:
            return sign * acc
        if (t, src) in total:
            return sign * total[(t, src)]
        return None

    def tag(kind, *rest):
        return f"{kind}({', '.join(str(x) for x in rest)})"

    sources = [(o, lab) for o in order for lab, _ in irreps[o]]
    hat, fourier = {}, {}
    for a, b in doc["duality"]["hat"]:
        hat[a], hat[b] = b, a
    for a, b in doc["duality"]["fourier"]:
        fourier[tuple(a)], fourier[tuple(b)] = tuple(b), tuple(a)

    out = {}
    for src in sources:
        for t in order:
            m = ("m", src, t)
            if not leq(t, src[0]):
                out[tag("support", src, t)] = ({m: 1}, 0)
                continue
            if t == src[0]:
                out[tag("leading", src)] = ({m: 1}, dict(irreps[t])[src[1]])
            interval = [u for u in order if leq(t, u) and leq(u, src[0])]
            values = {u: chi(src, u) for u in interval}
            if any(v is None for v in values.values()):
                continue
            row = {m: -1}
            row.update({("c", t, u): v for u, v in values.items() if v})
            out[tag("expansion", src, t)] = (row, 0)
    for src in sources:
        for t in order:
            a, b = ("m", src, t), ("m", fourier[src], hat[t])
            if a != b:
                out[tag("symmetry", src, t)] = ({a: 1, b: -1}, 0)
    if doc.get("diagonal_rule", True):
        for o in order:
            out[tag("diagonal", o)] = ({("c", o, o): 1}, (-1) ** dims[o])
    return out


def consistent(equations):
    """True iff the equations have a rational solution (sympy rref over QQ)."""
    from sympy import Matrix, Rational

    variables = sorted({v for row, _ in equations for v in row}, key=repr)
    col = {v: j for j, v in enumerate(variables)}
    rows = []
    for row, rhs in equations:
        r = [Rational(0)] * (len(variables) + 1)
        for v, c in row.items():
            r[col[v]] = Rational(Fraction(c).numerator, Fraction(c).denominator)
        r[-1] = Rational(rhs)
        rows.append(r)
    _, pivots = Matrix(rows).rref()
    return len(variables) not in pivots
