"""Exact parametric solver for index coefficients and characteristic cycles.

The pipeline runs in three stages.  build_constraints assembles one sparse
linear system over two families of unknowns:

  ("m", source, anchor)   cycle multiplicity of the anchor conormal in the
                          cycle of the source's sheaf,
  ("c", a, b)             index-matrix entries, one per comparable orbit pair.

Each equation is emitted once, as a (coeffs, rhs, tag) row whose
coefficients are keyed by integer column id, the variable's index in the
system's unknowns; the variable-keyed Equations are a view of these rows,
built only when something reads them.  Every row is in one row form, which
ConstraintSystem establishes and no later stage checks again: each column
once, every coefficient nonzero, every value exact.

The generating rules, tagged on every equation:

  expansion   m[src, anchor] = sum over U in [anchor, src-orbit] of
              c(anchor, U) * chi_loc(src, U); skipped (and reported) when a
              chi_loc cell is UNKNOWN, never guessed.
  support     m[src, anchor] = 0 when the anchor is not below the source.
  leading     m[src, src-orbit] = rank of the source local system.
  symmetry    m[src, anchor] = m[fourier(src), hat(anchor)].
  diagonal    c(S, S) = (-1)^dim(S)  (dataset can switch this rule off).

Most of the system only ties m-unknowns down: the support, leading and
symmetry rows are 346 of F4(a3)'s 429 rows, and 63 of its 240 m-columns
are nonzero in the answer.  So build_constraints keeps that part as
structure, not rows: the duality image, which ties m[src, t] to
m[fourier(src), hat(t)], and the pins, 0 for a cell whose anchor lies
outside its source's closure and the source's rank for a leading cell.

The expansion rows hold about n^3/6 nonzeros on a chain of n orbits, yet
their answer is sparse too (on chain30, 59 of 465 index entries are
nonzero), and build_constraints solves most of them itself, anchor by
anchor, by forward substitution (_substitute), whose values go to the
presolve as pins; a failed check is a contradicted row.  An anchor it
cannot settle falls back, its expansion rows built as rows.  Every chain
anchor is settled; on F4(a3), 3 of the 12 are, so 51 of its 71
expansion rows reach the presolve.  The full tagged system
(ConstraintSystem.rows) is assembled only when something reads it; no
solve does.

solve presolves once (_presolve), its columns in the fixed variable order
(m-variables first, then c-variables by falling row dimension), from the
image, the pins, the substituted values and the rows left: the expansion
rows of the anchors that fall back and the diagonal rows.  The presolve
derives the classes itself, each represented by its latest column, and
propagates the pins and those of singleton rows.  The image is an
involution, so a class no row holds is a pair {a, image[a]} that takes
its pin directly, and only the columns the rows hold and their images
reach the union-find and the propagation: 90 of chain90's 12,285
columns, 113 of F4(a3)'s 311.  For a fixed column order the RREF is
unique, so solve may reach it any way it likes; a substituted value is
constant on the whole solution set, a pivot with an empty remainder.
That settles every chain system with no elimination, and leaves F4(a3)
30 rows over 21 columns of its 429 x 311.  Only what remains goes
through deterministic exact Gaussian elimination over the rationals
(_eliminate), over the unpinned class representatives in column order,
its rows in input order, with a pivot rule that depends on nothing else.
So the same dataset always yields the same pivots, the same free
parameters, and the same names: a free parameter is a class
representative that is neither pinned nor a pivot.  Every value, from
the coefficients build_constraints emits through the row entries and
right-hand sides to the AffineInt results, is an int where it is
integral and a Fraction otherwise (affine.exact), which keeps the common
case (every value of the bundled case and of the chain family is a small
integer) off Fraction arithmetic; every division goes through
affine.div, since / on two ints would give a float.  Every downstream
quantity is an AffineInt over the free names, built once per class and
handed to the columns of its class only where it is not zero.

An inconsistent system raises InconsistentSystem with a minimal conflicting
subset of tags.  Its seeds are the rows the presolve contradicts, named by
their ids in the full system, and the rows whose check the substitution
failed.  Only the rows of the seeds' anchors and of their hat images
are built, in the full system's order (_seed_rows: 38 of F4(a3)'s 429
rows with P(S9 <- S10) raised to 5, 496 of 7,441 on chain60 with its
middle KL value raised), and eliminated again in full (_conflict).  The
rows joined to no seed are consistent and share no column with a seed,
so the first conflicting row is the one an elimination of the whole
system meets.  The equations combined into it, replayed from the
elimination's log of row updates (_combined), are reduced by a drop-one
deletion filter that decides every trial by one elimination step on a
basis of their left null space (_minimal_conflict).  A successful solve
never runs the full elimination, and no solve builds the full rows.

Stage 3 takes the solved report alone: characteristic_cycle,
parameter_bounds, reconstruct_local_euler, special_cc_localization and
verify_fourier_symmetry read the dataset from sr.dataset and the cycles
from sr.cc_table, so every check runs against the one table solved.  The
solved table is sparse (on chain30, 59 of 465 index entries and 60 of 930
cycle entries are nonzero), and the checks visit what can change their
answer: verify_fourier_symmetry compares a cell only where one side holds
an entry, and reconstruct_local_euler subtracts over a target's nonzero
index entries, up to the first orbit above the target that failed (see
its docstring).

The record types: Equation, SkippedExpansion and Bound are namedtuple
subclasses, frozen and equal by value; a Bound's witness lists default to
fresh empty lists.  CMatrix, CharacteristicCycle and SolveReport are plain
classes whose fields may be assigned (_report fills in the bounds after
construction); they compare by their fields and have no hash.
"""

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction

from ._record import Record
from .affine import AffineInt, ZERO, div, exact
from .duality import fourier_partner, hat
from .euler import UNKNOWN, EulerMatrix, InsufficientKLData, MultiplicityMatrices, \
    composition_terms


class InconsistentSystem(Exception):
    def __init__(self, tags):
        self.tags = list(tags)
        lines = ", ".join(_tag_text(t) for t in self.tags)
        super().__init__(f"inconsistent system; minimal conflicting subset: {lines}")


class MultiParameterMultiplicity(Exception):
    """Bound derivation is limited to single-parameter affine forms."""

    def __init__(self, entries):
        self.entries = entries
        super().__init__(f"multi-parameter multiplicity at {entries}")


class ComputationError(Exception):
    pass


class InadmissibleAssignment(Exception):
    """A parameter assignment names an unknown parameter or breaks a bound."""

    def __init__(self, complaints):
        self.complaints = list(complaints)
        super().__init__("; ".join(self.complaints))


def _tag_text(tag):
    kind, *rest = tag
    return f"{kind}({', '.join(str(x) for x in rest)})"


class Equation(namedtuple("Equation", "coeffs rhs tag")):
    # the variable-keyed form of one row of a ConstraintSystem, which builds
    # these only when its equations are read: coeffs holds (var, value)
    # pairs in a deterministic order, and values are ints where integral,
    # else Fractions
    __slots__ = ()


class SkippedExpansion(namedtuple("SkippedExpansion", "anchor source missing")):
    # missing: the (target_orbit, source) chi_loc cells
    __slots__ = ()


class ConstraintSystem:
    """The tagged system over unknowns.

    rows holds each equation once as a (coeffs, rhs, tag) tuple whose
    coefficients are keyed by column id, the variable's index in unknowns,
    in the one row form the solver relies on: each column appears once,
    every coefficient is nonzero, and coefficients and right-hand side are
    exact (affine.exact).  A system built by hand from Equations, as here,
    is brought into that form, repeated columns summed and zero sums
    dropped; equations is the same rows keyed by variable, as Equations,
    built on first read, and equation_count is their number.

    What the presolve reads is kept apart from rows: the rows it takes
    (presolve_rows) and their ids in rows (presolve_ids, None for their own
    indices), the duality image (image: column a is tied to image[a], as a
    symmetry row would tie it, wherever the two differ), the pins (pins:
    (column, value, row id), the column's class equals value as row id
    says), the values forward substitution fixed, as pins of the same form
    (substituted), and the ids of the rows whose check failed
    (contradicted).  A system built by
    hand hands every row to the presolve, with an empty image and no pins;
    one from build_constraints assembles its rows on first read
    (_all_rows), and solve never reads them.  The tests, and perfbench's
    size counts, read rows and equations.
    """

    def __init__(self, dataset, unknowns, equations, skipped):
        col = {v: j for j, v in enumerate(unknowns)}
        self.dataset = dataset
        self.unknowns = unknowns
        self.skipped = skipped
        rows = []
        for eq in equations:
            summed = {}
            for v, x in eq.coeffs:
                k = col[v]
                summed[k] = summed.get(k, 0) + x
            rows.append((tuple((k, exact(x)) for k, x in summed.items() if x),
                         exact(eq.rhs), eq.tag))
        self._rows = self.presolve_rows = rows
        self.presolve_ids = None
        self.image = ()
        self.pins = []
        self.substituted = []
        self.contradicted = []
        self.equation_count = len(rows)
        self._equations = None

    @property
    def rows(self):
        if self._rows is None:
            self._rows = _all_rows(self)
        return self._rows

    @property
    def equations(self):
        if self._equations is None:
            u = self.unknowns
            self._equations = [Equation(tuple((u[k], x) for k, x in coeffs), rhs, tag)
                               for coeffs, rhs, tag in self.rows]
        return self._equations


class CMatrix(Record):
    _fields = ("entries",)

    def __init__(self, entries):
        self.entries = entries         # (a, b) -> AffineInt, comparable pairs only

    def entry(self, a, b):
        return self.entries.get((a, b), ZERO)


class CharacteristicCycle(Record):
    _fields = ("source", "mult")

    def __init__(self, source, mult):
        self.source = source
        self.mult = mult               # orbit -> AffineInt, nonzero entries only

    def at(self, orbit):
        return self.mult.get(orbit, ZERO)


class Bound(namedtuple("Bound", "parameter lower upper "
                       "tight_lower_witnesses tight_upper_witnesses")):
    # lower and upper are ints or None; each witness list defaults to a
    # fresh empty list
    __slots__ = ()

    def __new__(cls, parameter, lower, upper, tight_lower_witnesses=None,
                tight_upper_witnesses=None):
        return super().__new__(
            cls, parameter, lower, upper,
            [] if tight_lower_witnesses is None else tight_lower_witnesses,
            [] if tight_upper_witnesses is None else tight_upper_witnesses)

    @property
    def feasible(self):
        return self.lower is None or self.upper is None or self.lower <= self.upper


class SolveReport(Record):
    """The solved index entries, cycles, free parameters and bounds.

    by_anchor reads the cycle table by anchor: orbit -> the (rep id,
    multiplicity) of each catalog entry whose cycle holds an entry there,
    zeros included, in catalog order.  It is built on first read and
    rebuilt once cc_table or dataset is replaced, so a table edited in
    place after a read is not seen: assign a new one (substitute builds a
    new report).  A catalog parameter with no cycle fails every read.
    """

    _fields = ("dataset", "cmatrix", "cc_table", "free_parameters", "residual_unknowns",
               "skipped", "bounds", "bound_note", "equation_count")

    def __init__(self, dataset, cmatrix, cc_table, free_parameters, residual_unknowns,
                 skipped, bounds, bound_note="", equation_count=0):
        self.dataset = dataset
        self.cmatrix = cmatrix
        self.cc_table = cc_table       # source ls -> CharacteristicCycle, theorem row order
        self.free_parameters = free_parameters
        self.residual_unknowns = residual_unknowns
        self.skipped = skipped
        self.bounds = bounds           # list of Bound, or None
        self.bound_note = bound_note
        self.equation_count = equation_count
        self._by_anchor = None         # (cc_table, dataset, view) once read

    @property
    def by_anchor(self):
        kept = self._by_anchor
        if kept is None or kept[0] is not self.cc_table or kept[1] is not self.dataset:
            table, view = self.cc_table, {}
            for rep_id, param in self.dataset._rep_params:
                for o, v in table[param].mult.items():
                    view.setdefault(o, []).append((rep_id, v))
            kept = self._by_anchor = (table, self.dataset, view)
        return kept[2]

    def substitute(self, assignment):
        """This report with integers put in for some free parameters.

        The assignment is checked against the derived bounds first and
        raises InadmissibleAssignment with admissible_assignment's
        complaints.  The result keeps the parameters not assigned and
        derives its bounds afresh; an empty assignment returns self.
        """
        if not assignment:
            return self
        complaints = admissible_assignment(self, assignment)
        if complaints:
            raise InadmissibleAssignment(complaints)

        def sub(v):
            out = v.substitute(assignment)
            return out if isinstance(out, AffineInt) else ZERO + out

        centries, residual = {}, []
        for k, v in self.cmatrix.entries.items():
            centries[k] = v = sub(v)
            if not v.is_constant():
                residual.append(k)
        return _report(
            self.dataset, centries,
            {src: {o: sub(v) for o, v in cc.mult.items()} for src, cc in self.cc_table.items()},
            [p for p in self.free_parameters if p not in assignment],
            residual, self.skipped, self.equation_count)


def _report(ds, centries, mults, free_parameters, residual, skipped, equation_count):
    """The SolveReport of these index entries and multiplicities.

    Each cycle keeps its nonzero multiplicities, the residual unknowns are
    the pairs of residual (the index pairs whose entry carries a parameter,
    which the caller collects) sorted by _cvar_key, and the bounds are
    derived, or bound_note says why they could not be.
    """
    dims = {o.id: o.dim for o in ds.orbits}
    residual = sorted(residual, key=lambda p: _cvar_key(p, dims))
    cc_table = {src: CharacteristicCycle(src, {o: v for o, v in mult.items() if v})
                for src, mult in mults.items()}
    report = SolveReport(ds, CMatrix(centries), cc_table, free_parameters, residual,
                         skipped, None, "", equation_count)
    try:
        report.bounds = parameter_bounds(report)
    except MultiParameterMultiplicity as e:
        report.bound_note = str(e)
    return report


# ---------------------------------------------------------------- stage 1

def _cvar_key(pair, dims):
    a, b = pair
    return (-dims[a], a, dims[b], b)


def _require_precondition(ds, dims, partners=(), hats=()):
    """Raise a ValueError naming the first failed check of the solver's
    precondition by its validate_dataset code: no orbit id repeats,
    dimension rises along every cover (so falling dimension is a linear
    extension), and fourier and hat, as index lists where given, are
    involutions."""
    failed = [("duplicate-orbit", "an orbit id repeats")] if len(dims) != len(ds.orbits) else []
    failed += [("cover-dim", f"dimension does not rise along the cover ({a}, {b})")
               for a, b in ds.poset.covers if dims[a] >= dims[b]]
    failed += [("fourier-not-involutive", f"fourier is no involution at {ds.local_systems()[s]}")
               for s, f in enumerate(partners) if partners[f] != s]
    failed += [("hat-not-involutive", f"hat is no involution at {ds.orbits[k].id}")
               for k, h in enumerate(hats) if hats[h] != k]
    if failed:
        code, detail = failed[0]
        raise ValueError(f"{detail} [{code}]: the solver needs a dataset validate_dataset accepts")


def build_constraints(ds, em):
    """Assemble the full rule system against a (possibly partial) chi_loc matrix.

    ds must pass the checks of validate_dataset that the walk relies on
    (_require_precondition); a map that is not total raises its KeyError.

    The rows come rule by rule: per source, its support, leading and
    expansion rows anchor by anchor, then the symmetry rows, then the
    diagonal rows.  Most of the system is kept as structure for the
    presolve, not as rows:
      - the duality image, the column m[fourier(src), hat(t)] of each
        m[src, t] (image);
      - the pins, one per support and leading row, in row order, as
        (column, value, row id): 0 for a cell whose anchor lies outside
        its source's closure, the source's rank for a leading cell; the
        presolve puts each onto its column's class (pins);
      - the values that forward substitution fixes on the expansion rows
        of each anchor it settles, as pins of the same form
        (substituted), and the ids of the rows of those anchors that the
        values contradict (contradicted); see _substitute.
    The rows the presolve takes are the expansion rows of the anchors that
    fall back, each walking its anchor's interval in stored order, and the
    diagonal rows.  An anchor falls back when one of its expansions is
    skipped or when _substitute cannot settle it.  The support, leading
    and symmetry rows, and the expansion rows of the settled anchors, are
    assembled on first read of rows (_all_rows), in the order above, or,
    on a conflict, for the anchors its seeds reach (_seed_rows), from what
    the system keeps of the layout: the expansion row builder and ids, the
    anchors' hat images, the pins' values by column and the m-column of
    each pin and expansion row by id.
    """
    poset = ds.poset
    d = ds.duality
    sources = ds.local_systems()
    anchors = [o.id for o in ds.orbits]
    dims = {o.id: o.dim for o in ds.orbits}
    n = len(anchors)
    at = {t: k for k, t in enumerate(anchors)}

    ups = poset._up

    mvars = [("m", src, t) for src in sources for t in anchors]
    # the comparable pairs in _cvar_key order: rows by falling (dim, id),
    # columns by rising (dim, id)
    rising = sorted(anchors, key=lambda b: (dims[b], b))
    cpairs = []
    for a in sorted(anchors, key=lambda a: (-dims[a], a)):
        up = ups[a]
        cpairs += [(a, b) for b in rising if b in up]
    unknowns = mvars + [("c",) + p for p in cpairs]
    # column ids: m[src, t] is s * n + k for the s-th source and the k-th
    # anchor, and c(t, u) is ccol[t][u], after every m
    ccol = {t: {} for t in anchors}
    for j, (a, b) in enumerate(cpairs, len(mvars)):
        ccol[a][b] = j

    chis = []              # each source's chi_loc cells over its closure, in stored order
    expansions = {}        # m-column -> id of its expansion row, for each row not skipped
    fallback = set()       # the indices of the anchors that fall back
    pins = []              # (column, value, row id) of each support and leading row
    owner = []             # the m-column of each support, leading and expansion row, by id
    skipped = []
    for s, src in enumerate(sources):
        s_orb = src[0]
        closure = poset._down[s_orb]
        row = em.rows[src]
        chi = {u: row[u] for u in poset.ids if u in closure}
        chis.append(chi)
        unknown = [u for u, v in chi.items() if v is UNKNOWN]
        for k, t in enumerate(anchors):
            mv = s * n + k
            if t not in closure:
                pins.append((mv, 0, len(owner)))
                owner.append(mv)
                continue
            if t == s_orb:
                pins.append((mv, ds.ls_dim(src), len(owner)))
                owner.append(mv)
            if unknown:
                up = ups[t]
                missing = [(u, src) for u in unknown if u in up]
                if missing:
                    skipped.append(SkippedExpansion(t, src, tuple(missing)))
                    fallback.add(k)
                    continue
            expansions[mv] = len(owner)
            owner.append(mv)
    i = len(owner)

    # image[a] is the column m[src, t] is tied to: m[fourier(src), hat(t)],
    # one symmetry row for each a it differs from; the first source's
    # partner is looked up before any hat image, so a dataset that lacks
    # both raises the KeyError of the partner
    source_index = {src: s for s, src in enumerate(sources)}
    partners = []
    image = []
    hats = ()
    for src in sources:
        f = source_index[fourier_partner(d, src)]
        partners.append(f)
        if not hats:
            hats = [at[hat(d, t)] for t in anchors]
        image += [f * n + h for h in hats]
    i += sum(a != b for a, b in enumerate(image))

    _require_precondition(ds, dims, partners, hats)
    substituted, contradicted = _substitute(anchors, dims, ups, sources, chis, ccol,
                                            expansions, image, pins, fallback)

    upper = {}             # anchor -> its up-set in stored order

    def expansion(mv):
        # the expansion row of column mv: the anchor's up-set in stored
        # order, cut to the source's closure, is the interval [t, orb(src)]
        s, k = divmod(mv, n)
        src, t = sources[s], anchors[k]
        if t not in upper:
            upper[t] = [u for u in poset.ids if u in ups[t]]
        chi, cols = chis[s], ccol[t]
        coeffs = [(mv, -1)]
        for u in upper[t]:
            v = chi.get(u)
            if v:
                coeffs.append((cols[u], v))
        return tuple(coeffs), 0, ("expansion", src, t)

    rows = []              # the expansion rows of the anchors that fall back, the diagonal rows
    ids = []               # the id of each in the full system
    if fallback:
        for mv, j in expansions.items():
            if mv % n in fallback:
                rows.append(expansion(mv))
                ids.append(j)

    if ds.diagonal_rule:
        for o in ds.orbits:
            rows.append((((ccol[o.id][o.id], 1),), -1 if o.dim % 2 else 1, ("diagonal", o.id)))
            ids.append(i)
            i += 1

    cs = ConstraintSystem.__new__(ConstraintSystem)
    cs.dataset, cs.unknowns, cs.skipped = ds, unknowns, skipped
    cs.presolve_rows, cs.presolve_ids, cs.image, cs.pins = rows, ids, image, pins
    cs.substituted, cs.contradicted = substituted, contradicted
    cs.equation_count = i
    cs._rows = cs._equations = None
    cs._layout = expansion, expansions, hats, {a: x for a, x, _ in pins}, owner
    return cs


def _residual(acc, pairs, values, closure):
    """acc - sum(c * values[u]) over the pairs (u, c) with u in closure, in order.

    The residual of the expansion identity m[s, t] - sum over u of
    c(t, u) * chi_loc(s, u): acc is m[s, t], the pairs are the nonzero
    index entries c(t, u), values holds chi_loc(s, u) and closure is the
    source's closure.  The c and the values are exact constants or
    AffineInts that carry a parameter, as _plain leaves them, and so is the
    result; acc may also be an AffineInt that carries none.  The sum goes
    into one constant and one coefficient map, not through an AffineInt per
    product; the first product of two forms that both carry a parameter
    raises AffineInt's ValueError.
    """
    if isinstance(acc, AffineInt):
        const, co = acc.constant, dict(acc.coeffs)
    else:
        const, co = acc, None
    for u, c in pairs:
        if u not in closure:
            continue
        v = values[u]
        if type(c) is AffineInt:
            if type(v) is AffineInt:
                raise ValueError(f"product of {c} and {v} is not affine")
            c, v = v, c
        if type(v) is AffineInt:
            const -= c * v.constant
            if co is None:
                co = {}
            for n, x in v.coeffs.items():
                co[n] = co.get(n, 0) - c * x
        else:
            const -= c * v
    if co:
        co = {n: exact(x) for n, x in co.items() if x}
        if co:
            return AffineInt._make(exact(const), co)
    return exact(const)


def _substitute(anchors, dims, ups, sources, chis, ccol, expansions, image, pins, fallback):
    """Fix the c-columns of each anchor not in fallback by forward substitution.

    For anchor t, the expansion row of source s reads
    m[s, t] = sum over u in [t, orb(s)] of c(t, u) * chi_loc(s, u).  The
    orbits u above t are walked by rising dimension, which, with dimension
    rising along every cover, is a linear extension, so when u is reached
    every c(t, v) with v below u is fixed.  The first source s on u with
    chi_loc(s, u) != 0 (its rank up to sign) whose m-class holds a known
    value fixes c(t, u) from its row's residual over the nonzero c(t, v)
    found so far (_residual, chi_loc(s, .) as values and closure); every
    other row on u then fixes its m-class from that sum, when no value is
    known for it, or checks it.  A class is {a, image[a]}, the image being
    an involution here; its value is known from a pin or from a row of an
    anchor walked before.  An anchor with an orbit u on which no source's
    class is known falls back: it is added to fallback and its values are
    not pinned, its rows going to the presolve; the classes it fixed stay
    known, since they follow from those rows.

    Returns (substituted, contradicted): each fixed value, c-column or
    m-column, as a pin (column, value, row id) and, in ascending order,
    the ids of the rows whose check failed.  Every value is a consequence
    of the rows, so it is a pivot with an empty remainder in the RREF;
    with the pins, the rows of the settled anchors add nothing but the
    failed checks, and each of those lies in an inconsistent part of the
    system, as a contradicted row of _presolve does.
    """
    n = len(anchors)
    known = {}             # m-class (its larger column) -> its value
    for a, value, _ in pins:
        known.setdefault(a if a > image[a] else image[a], value)
    on = {}                # orbit -> (m-column at the 0th anchor, chi_loc cells) of its sources
    for s, src in enumerate(sources):
        on.setdefault(src[0], []).append((s * n, chis[s]))
    rank = {t: r for r, t in enumerate(sorted(anchors, key=dims.__getitem__))}

    def settle(k, t):
        # (fixed, failed) of anchor t, or None when it falls back
        cols = ccol[t]
        nonzero = []       # (v, c(t, v)) for each nonzero c(t, v) fixed so far
        fixed, failed = [], []
        for u in sorted(ups[t], key=rank.__getitem__):
            here = []      # (m-column, class, chi_loc cells) of each source on u
            pivot = None
            for b, chi in on.get(u, ()):
                a = b + k
                r = a if a > image[a] else image[a]
                if pivot is None and r in known and chi[u]:
                    pivot = a
                    c = div(_residual(known[r], nonzero, chi, chi), chi[u])
                    fixed.append((cols[u], c, expansions[a]))
                else:
                    here.append((a, r, chi))
            if pivot is None:
                return None
            if c:
                nonzero.append((u, c))
            for a, r, chi in here:
                x = -_residual(0, nonzero, chi, chi)
                if r not in known:
                    known[r] = x
                    fixed.append((a, x, expansions[a]))
                elif known[r] != x:
                    failed.append(expansions[a])
        return fixed, failed

    substituted, contradicted = [], []
    for k, t in enumerate(anchors):
        if k not in fallback:
            out = settle(k, t)
            if out is None:
                fallback.add(k)
            else:
                substituted += out[0]
                contradicted += out[1]
    return substituted, sorted(contradicted)


def _find(parent, k):
    """The root of k in a union-find forest, compressing the path to it."""
    r = k
    while r in parent:
        r = parent[r]
    while k != r:
        parent[k], k = r, parent[k]
    return r


def _all_rows(cs):
    """The full tagged system of a system from build_constraints, in its order:
    the rows of every anchor (_anchor_rows), which only the tests and
    perfbench's size counts read."""
    return _anchor_rows(cs, range(len(cs.dataset.orbits)))


def _seed_rows(cs, seeds):
    """The rows of the part of cs's full system the seeds reach, in its order.

    A system built by hand gives all its rows.  Every row of a system from
    build_constraints holds only columns of one anchor t, m[src, t] and
    c(t, u), but a symmetry row, which ties m[src, t] to
    m[fourier(src), hat(t)].  So the rows joined to a seed through shared
    columns lie in the seed's anchor and its hat image, hat being an
    involution, and this gives the rows of those anchors (_anchor_rows).
    A seed is a pin or an expansion row, whose m-column the layout keeps
    by id, or a diagonal row, one of the last n rows in orbit order; the
    presolve takes no symmetry row.
    """
    if cs.presolve_ids is None:
        return cs.rows
    hats, owner = cs._layout[2], cs._layout[4]
    n = len(cs.dataset.orbits)
    seeded = {owner[i] % n if i < len(owner) else i - cs.equation_count + n for i in seeds}
    return _anchor_rows(cs, seeded | {hats[k] for k in seeded})


def _anchor_rows(cs, reach):
    """The rows of these anchors (by index) of a system from build_constraints,
    in the full system's order.

    An anchor t's rows are the pins and the expansion rows of its columns
    m[src, t], the symmetry rows of those columns whose image is another
    column, and its diagonal row.  The full system holds, over the
    m-columns in ascending order, each column's pin and then its expansion
    row; then the symmetry rows, in column order; then the diagonal rows,
    in orbit order.  So the columns of the anchors, taken in ascending
    order, give the rows in that order; a column's pin value comes from
    the layout's map by column, so only the pins of these anchors are read.
    """
    expansion, expansions, _, pins, _ = cs._layout
    image, u = cs.image, cs.unknowns
    n = len(cs.dataset.orbits)
    reach = sorted(reach)
    cols = [s * n + k for s in range(len(image) // n if n else 0) for k in reach]
    out = []
    for a in cols:
        if a in pins:
            _, src, t = u[a]
            out.append((((a, 1),), pins[a], ("leading", src) if t == src[0]
                        else ("support", src, t)))
        if a in expansions:
            out.append(expansion(a))
    out += [(((a, 1), (image[a], -1)), 0, ("symmetry",) + u[a][1:])
            for a in cols if image[a] != a]
    if cs.dataset.diagonal_rule:
        out += [cs.presolve_rows[k - n] for k in reach]
    return out


# ---------------------------------------------------------------- stage 2

def _eliminate(equations, var_order):
    """Sparse RREF of (coeffs, rhs, tag) triples, as Equations and the rows
    of a ConstraintSystem are.  Returns (pivots, rows, rhss,
    conflict_row_or_None, merges).

    The input must be in ConstraintSystem's row form, and elimination keeps
    it: a conflict is a row left empty with a nonzero right-hand side.

    pivots maps variable -> row index; each returned row is fully reduced
    (no pivot variable of another row appears in it).  merges is the log
    of row updates, in order: (j, i) when pivot row i was subtracted from
    row j.  Only a conflict needs the input equations combined into a row,
    and _combined replays the log for that one row.

    A column index (variable -> ids of the rows holding a nonzero entry in
    it) is built from the input and kept current as entries fill in or
    cancel, so each variable visits only the rows of its own column.  The
    pivot for v is the unused row of v's column with the fewest entries,
    ties going to the lowest row index.
    """
    rows = []
    rhss = []
    column = {}
    for i, (coeffs, rhs, _) in enumerate(equations):
        rows.append(dict(coeffs))
        rhss.append(rhs)
        for k, _ in coeffs:
            column.setdefault(k, set()).add(i)
    merges = []
    pivots = {}
    used = set()
    for v in var_order:
        holders = sorted(column.get(v, ()))
        i = None
        for j in holders:
            if j not in used and (i is None or len(rows[j]) < size):
                i, size = j, len(rows[j])
        if i is None:
            continue
        pivot_row = rows[i]
        piv = pivot_row[v]
        if piv != 1:
            rows[i] = pivot_row = {k: div(val, piv) for k, val in pivot_row.items()}
            rhss[i] = div(rhss[i], piv)
        for j in holders:
            if j == i:
                continue
            row = rows[j]
            f = row[v]
            for k, val in pivot_row.items():
                old = row.get(k, 0)
                nv = old - f * val
                if nv:
                    if type(nv) is not int:
                        nv = exact(nv)
                    if not old:
                        column.setdefault(k, set()).add(j)
                    row[k] = nv
                elif row.pop(k, None):
                    column[k].discard(j)
            nv = rhss[j] - f * rhss[i]
            rhss[j] = nv if type(nv) is int else exact(nv)
            merges.append((j, i))
        pivots[v] = i
        used.add(i)
    conflict = next((i for i, row in enumerate(rows)
                     if not row and rhss[i] != 0), None)
    return pivots, rows, rhss, conflict, merges


def _combined(merges, r):
    """The input equations combined into row r, replayed from the merge log.

    Row j holds equation j combined with everything pivot row i held when
    i was subtracted from it, so walking the log backwards from {r} and
    taking i in whenever j is already in gives every equation that reached
    r, and no other.
    """
    out = {r}
    for j, i in reversed(merges):
        if j in out:
            out.add(i)
    return out


# marks the unit column of one suspect equation in _minimal_conflict
_MARKER = object()


def _minimal_conflict(equations, suspects, var_order):
    """Greedy drop-one reduction of a conflicting equation subset.

    The deletion filter of Chinneck and Dravnieks: try the suspects in
    sorted order and drop each one whose removal leaves the rest
    inconsistent.  A set S of equations A_S x = b_S is inconsistent exactly
    when its left null space N = {y : y^T A_S = 0} holds a y with
    y^T b_S != 0.  One elimination of [A_S | I] gives a basis of N: the
    rows whose part in the real unknowns (all of them in var_order) reduces
    to zero, each carrying its unit part y and its value y^T b_S.  Without
    equation i the null space is {y in N : y_i = 0}, one elimination step
    on coordinate i away from that basis; the trial is inconsistent iff
    some vector of the reduced basis has a nonzero value, and on a drop
    the reduced basis becomes the basis.
    """
    current = sorted(suspects)
    marked = [(equations[j][0] + (((_MARKER, j), 1),), equations[j][1], None)
              for j in current]
    pivots, rows, rhss, _, _ = _eliminate(marked, var_order)
    used = set(pivots.values())
    basis = [({k[1]: val for k, val in rows[r].items()}, rhss[r])
             for r in range(len(rows)) if r not in used]
    for i in list(current):
        pivot = next((b for b in basis if i in b[0]), None)
        trial = [b if i not in b[0] else _cancel(b, pivot, i)
                 for b in basis if b is not pivot]
        if any(value for _, value in trial):
            current.remove(i)
            basis = trial
    return current


def _cancel(b, pivot, i):
    """b minus the multiple of pivot that clears coordinate i."""
    (y, value), (py, pvalue) = b, pivot
    f = div(y[i], py[i])
    out = dict(y)
    for k, x in py.items():
        nv = out.get(k, 0) - f * x
        if nv:
            out[k] = exact(nv)
        else:
            del out[k]
    return out, exact(value - f * pvalue)


def _presolve(system, ids=None, image=(), pins=()):
    """Solve the rows of a system, and name the rows that contradict it.

    system is a list of rows in ConstraintSystem's row form and ids the id
    of each (default: its index).  image, an involution, ties column a to
    column image[a], as a symmetry row a - image[a] = 0 would, for every a
    it differs from.  pins lists (column, value,
    id) facts: the column's class equals value, as row id says; a value
    forward substitution fixed is constant on the whole solution set, so
    it pins its column as any pin does.  A system built by hand gives every
    row, an empty image and no pins; build_constraints says what it gives.
    Four steps, none of which can change the result, since for a fixed
    column order the RREF is unique:
      1. merge every column the rows hold with its image, and the
         columns of every equality row (two entries, opposite
         coefficients, rhs 0), by one union-find, each class represented
         by its latest column: in the RREF every other member of a class
         is a pivot, and the class's own value is its representative's.
         A class no row holds is the pair {a, image[a]}, so a pin on any
         other column goes straight into solved, onto the larger column
         of its pair;
      2. rewrite every other row onto the representatives, adding the
         coefficients that land on one and dropping those that cancel, so
         the rows keep ConstraintSystem's row form;
      3. queue the other pins and those of the singleton rows, and take
         them last first: pin the class, and substitute the pin into the
         rows of its column, queueing the pin of any row left with one
         entry;
      4. eliminate whatever rows remain with _eliminate, over the unpinned
         representatives they hold, in column order.
    Returns (solved, contradicted, rep).  rep maps each column the
    union-find merged into another to its representative; any other column
    a belongs to the class of the larger of a and image[a] (of a itself
    past the image).  solved is {column: (rest, rhs)} for every
    representative that is not free: the column equals
    rhs - sum(rest[k] * k) over free columns k.  The free columns are the
    representatives neither pinned nor pivots.  contradicted lists, in
    ascending order, the ids of the rows and pins that a step reduces to
    0 = nonzero: a row rewritten to empty, a second pin of one class with
    another value (the pins of a class are taken last first in step 1 as
    in step 3, so the one named is the earlier), or an empty row that the
    elimination leaves.  Each such row is dropped and the steps go on, so
    every inconsistent component of the system (its rows joined through
    shared columns) that the failed checks of the substitution miss holds
    one; solved is meaningful only when neither names a row.
    """
    solved = {}
    empty = {}             # the remainder of every pinned class, one dict that nothing changes
    contradicted = []
    m = len(image)
    held = {k for coeffs, _, _ in system for k, _ in coeffs}
    held.update([image[a] for a in held if a < m])
    for k, value, i in reversed(pins):
        if k not in held:
            r = image[k] if k < m else k
            if solved.setdefault(k if r < k else r, (empty, value))[1] != value:
                contradicted.append(i)
    pins = [p for p in pins if p[0] in held]
    # a pair already joined from its smaller end is not joined again, and
    # two columns that are both roots need no find
    parent = {}
    for a in [a for a in held if a < m]:
        b = image[a]
        if a == b or b < a and image[b] == a:
            continue
        if a in parent or b in parent:
            a, b = _find(parent, a), _find(parent, b)
            if a == b:
                continue
        parent[min(a, b)] = max(a, b)
    if ids is None:
        ids = range(len(system))
    others = []
    for i, (coeffs, rhs, _) in zip(ids, system):
        if len(coeffs) == 2 and rhs == 0:
            (a, x), (b, y) = coeffs
            if x == -y:
                a, b = _find(parent, a), _find(parent, b)
                if a != b:
                    parent[min(a, b)] = max(a, b)
                continue
        others.append((i, coeffs, rhs))
    rep = {k: _find(parent, k) for k in parent}

    queue = [(_find(parent, k), value, i) for k, value, i in pins]
    ids = []               # the id of each row below
    rows = []
    rhss = []
    column = {}            # representative -> ids of the rows holding it
    for i, coeffs, rhs in others:
        new = dict(coeffs)
        for k in rep.keys() & new.keys():
            x = new.pop(k)
            r = rep[k]
            if r in new:
                x = exact(new[r] + x)
                if not x:
                    del new[r]
                    continue
            new[r] = x
        if len(new) == 1:
            (k, a), = new.items()
            queue.append((k, div(rhs, a), i))
            continue
        if not new:
            if rhs != 0:
                contradicted.append(i)
            continue
        j = len(rows)
        ids.append(i)
        rows.append(new)
        rhss.append(rhs)
        for k in new:
            if k in column:
                column[k].append(j)
            else:
                column[k] = [j]

    while queue:
        k, value, i = queue.pop()
        if k in solved:
            if solved[k][1] != value:
                contradicted.append(i)
            continue
        solved[k] = (empty, value)
        for j in column.pop(k, ()):
            row = rows[j]
            if row is None:
                continue
            f = row.pop(k)
            nv = rhss[j] - f * value
            rhss[j] = nv = nv if type(nv) is int else exact(nv)
            # a kept row holds two entries or more and each pin takes one,
            # so a row leaves here at one and is never emptied
            if len(row) == 1:
                (r, a), = row.items()
                queue.append((r, div(nv, a), ids[j]))
                rows[j] = None

    remaining = [(tuple(row.items()), rhs, None)
                 for row, rhs in zip(rows, rhss) if row is not None]
    pivots, erows, erhss, conflict, _ = _eliminate(remaining, sorted(column))
    if conflict is not None:
        origin = [i for i, row in zip(ids, rows) if row is not None]
        contradicted += [origin[j] for j, row in enumerate(erows) if not row and erhss[j]]
    for v, i in pivots.items():
        solved[v] = ({k: x for k, x in erows[i].items() if k != v}, erhss[i])
    return solved, sorted(contradicted), rep


def _conflict(system):
    """The tags of a minimal conflicting subset of an inconsistent system.

    system is a list of rows in the full system's order, every row joined
    to a seed included (_seed_rows gives them): a seed is a row that
    _presolve reduced to 0 = nonzero or whose check the forward
    substitution failed.  Every row is eliminated in full, in input
    order, over the columns in order.  The rows joined to no seed form
    components that share no column with the seeds' and are consistent,
    since every inconsistent component holds a seed, so they leave the
    pivots and merges of the seeds' components as they are, and this meets
    the first conflicting row of one elimination of the whole system; the
    equations combined into it go to _minimal_conflict.
    """
    cols = sorted({k for coeffs, _, _ in system for k, _ in coeffs})
    _, _, _, c, merges = _eliminate(system, cols)
    return [system[i][2] for i in _minimal_conflict(system, _combined(merges, c), cols)]


def solve(cs):
    """Presolve the system, name whatever stays free, and assemble the report.

    The system is presolved once, its columns in the order of cs.unknowns
    (_presolve), from what cs hands the presolve, never cs.rows; that gives
    the pivots, the free columns and every expression of one elimination
    of the whole system.  If the presolve contradicts some rows or pins, or
    a check of the substitution failed, the tags raised are those one
    elimination of the whole system gives: _conflict over the rows of the
    anchors those rows reach (_seed_rows).

    Values are built once per class: for each solved class that is not
    zero, and for each free class, looked for only when the solved classes
    leave a column out.  A value goes to the columns of its class, so an
    m-cell whose class is zero is absent from its cycle.

    Free c-variables are named p_<row>_<col>.  One of them gets the short
    name "c": the pair (E, top) where E is the dataset's single orbit whose
    conormal carries no dense orbit, matching the designation the bundled
    case fixes.  Free m-variables (possible when skipped expansion rows
    leave an m-class untied) are named q_<anchor>_<orbit>_<irrep>, after
    their class's representative.
    """
    ds = cs.dataset
    image, m, unknowns = cs.image, len(cs.image), cs.unknowns
    solved, contradicted, rep = _presolve(cs.presolve_rows, cs.presolve_ids, image,
                                          cs.pins + cs.substituted)
    if contradicted or cs.contradicted:
        raise InconsistentSystem(_conflict(_seed_rows(cs, contradicted + cs.contradicted)))

    top = ds.poset.top()
    short_pair = None
    if len(ds.conormal_dense_exceptions) == 1:
        short_pair = ("c", ds.conormal_dense_exceptions[0], top)
    names = {}             # free column -> its parameter name

    def name(j):
        if j not in names:
            v = unknowns[j]
            if v[0] == "c":
                names[j] = "c" if v == short_pair else f"p_{v[1]}_{v[2]}"
            else:
                names[j] = f"q_{v[2]}_{v[1][0]}_{v[1][1]}"
        return names[j]

    members = {}           # representative -> its class, for each class rep maps into
    for k, r in rep.items():
        members.setdefault(r, [r]).append(k)
    left = len(unknowns) - len(rep) - len(solved)    # the columns no solved class takes
    for r in solved:
        if r < m and image[r] != r and r not in members:
            left -= 1      # the smaller column of a pair
    values = {r: AffineInt._make(rhs, {name(k): -x for k, x in rest.items()})
              for r, (rest, rhs) in solved.items() if rest or rhs}
    if left:
        for j in range(len(unknowns)):
            if j not in rep and j not in solved and (j >= m or image[j] <= j):
                values[j] = AffineInt.parameter(name(j))
    cells = {}             # column -> its class's value, where that is not zero
    for r, x in values.items():
        for j in members.get(r) or ((r, image[r]) if r < m else (r,)):
            cells[j] = x
    centries = {(a, b): ZERO for kind, a, b in unknowns[m:] if kind == "c"}
    mults = {src: {} for src in ds.local_systems()}
    residual = []          # the c-pairs whose class value carries a parameter
    for j in sorted(cells):
        kind, a, b = unknowns[j]
        if kind == "c":
            centries[a, b] = x = cells[j]
            if not x.is_constant():
                residual.append((a, b))
        else:
            mults[a][b] = cells[j]
    params = sorted(names.values(), key=lambda n: (n != "c", n.startswith("q_"), n))
    return _report(ds, centries, mults, params, residual, list(cs.skipped), cs.equation_count)


# ---------------------------------------------------------------- stage 3

def characteristic_cycle(sr, ls):
    ls = tuple(ls)
    try:
        return sr.cc_table[ls]
    except KeyError:
        raise KeyError(f"unknown local system {ls}") from None


def parameter_bounds(sr):
    """Tightest integer bounds forced by nonnegativity of cycle multiplicities.

    Every multiplicity a + b*p with b != 0 forces p >= ceil(-a/b) or
    p <= floor(-a/b) depending on the sign of b.  Multiplicities involving
    two or more parameters are outside this rule and raise.
    """
    multi = []
    per_param = {}
    for src, cc in sr.cc_table.items():
        for orbit, v in cc.mult.items():
            if not v.coeffs:
                continue
            if len(v.coeffs) > 1:
                multi.append((src, orbit, sorted(v.coeffs)))
                continue
            (name, b), = v.coeffs.items()
            a = v.constant
            box = per_param.setdefault(name, {"lo": [], "hi": []})
            # floor division is exact on ints and Fractions alike
            if b > 0:
                box["lo"].append((-(a // b), (src, orbit)))   # ceil(-a/b)
            else:
                box["hi"].append((-a // b, (src, orbit)))     # floor(-a/b)
    if multi:
        raise MultiParameterMultiplicity(multi)
    out = []
    for name in sorted(per_param, key=lambda n: (n != "c", n)):
        box = per_param[name]
        lower = max((x for x, _ in box["lo"]), default=None)
        upper = min((x for x, _ in box["hi"]), default=None)
        out.append(Bound(
            parameter=name, lower=lower, upper=upper,
            tight_lower_witnesses=sorted(w for x, w in box["lo"] if x == lower),
            tight_upper_witnesses=sorted(w for x, w in box["hi"] if x == upper),
        ))
    return out


def admissible_assignment(sr, assignment):
    """Check an integer parameter assignment against the derived bounds.

    Returns a list of complaint strings; empty means admissible.  Parameters
    without bounds accept any integer.
    """
    out = []
    known = set(sr.free_parameters)
    for name, value in assignment.items():
        if name not in known:
            out.append(f"unknown parameter {name!r}")
    for b in sr.bounds or []:
        v = assignment.get(b.parameter)
        if v is None:
            continue
        if b.lower is not None and v < b.lower:
            out.append(f"{b.parameter} = {v} violates {b.parameter} >= {b.lower}")
        if b.upper is not None and v > b.upper:
            out.append(f"{b.parameter} = {v} violates {b.parameter} <= {b.upper}")
    return out


def _plain(v):
    """An AffineInt that carries no parameter as its exact constant; v otherwise."""
    return v.constant if isinstance(v, AffineInt) and not v.coeffs else v


def reconstruct_local_euler(sr):
    """Invert the index matrix against sr.cc_table, source by source.

    The sources, and so the rows of the result, come in the table's order.
    Each row holds the source's support zeros first, in stored order, then
    its closure's cells in visiting order; the failures are keyed by cell.
    The poset's closure and up-set rows are read in place, not copied.
    The inversion runs top-down inside each source's closure: the value at a
    target is the target's cycle multiplicity minus contributions of the
    strictly higher targets, divided by the diagonal entry.  Each orbit's
    diagonal entry is read once per call, with whether it can be inverted
    and, if not, the error text its cells fail with.  Entries where a
    free parameter survives come back UNKNOWN and are listed in the result's
    failures mapping; this is the oracle that pins evaluation values no
    quoted source covers.  A constant value is kept exact (an int where
    integral, else a Fraction), so a diagonal entry other than +-1 can give
    a non-integral value that disagrees with any evaluation table.

    Every source visits its closure in one order fixed for the call, by
    falling dimension, then id: a linear extension of the poset, as the
    report's dataset must pass _require_precondition or raise its
    ValueError.  The contributions come from the target's nonzero index
    entries c(t, u) above it, in stored order (_residual), up to the stored
    position of the first orbit above the target that failed; the target
    then fails with an upstream failure at that orbit.  The products
    before it are summed first, so one that is not affine raises its
    ValueError instead.  A source costs O(n) for its zero entries and its
    targets, and each target O(failed orbits so far + nonzero entries above
    it); with nothing failed, as on a chain, no target looks further.

    Index entries and intermediate values are plain ints and Fractions
    wherever they are constant, and so is a multiplicity once _residual has
    taken it; only a value that really carries a parameter is an AffineInt.
    """
    ds = sr.dataset
    poset = ds.poset
    dims = {o.id: o.dim for o in ds.orbits}
    _require_precondition(ds, dims)
    all_orbits = [o.id for o in ds.orbits]
    cm = {k: _plain(v) for k, v in sr.cmatrix.entries.items()}
    ups = poset._up
    order = sorted(dims, key=lambda o: (-dims[o], o))
    stored = {o: i for i, o in enumerate(poset.ids)}

    def place(pair):
        return stored[pair[0]]

    # the nonzero c(t, u) with u strictly above t, in stored order
    above = {t: [] for t in all_orbits}
    for (t, u), c in cm.items():
        if c and t != u and t in ups and u in ups[t]:
            above[t].append((u, c))
    for pairs in above.values():
        pairs.sort(key=place)
    # each orbit's diagonal entry, with the error text when it cannot be inverted
    diagonal = {}
    for t in order:
        diag = cm.get((t, t), 0)
        bad = isinstance(diag, AffineInt) or diag == 0
        diagonal[t] = diag, f"diagonal entry at {t} is {diag}, cannot invert" if bad else ""
    rows = {}
    failures = {}
    sources = list(sr.cc_table)
    for src, cc in sr.cc_table.items():
        closure = poset._down[src[0]]
        internal = {}
        pending = set()    # the closure's orbits that failed
        row = rows[src] = dict.fromkeys([t for t in all_orbits if t not in closure], 0)
        for t in order:
            if t not in closure:
                continue
            diag, error = diagonal[t]
            try:
                if error:
                    raise ComputationError(error)
                stop = min(map(stored.get, pending & ups[t]), default=None) \
                    if pending else None
                pairs = above[t] if stop is None else \
                    above[t][:bisect_left(above[t], stop, key=place)]
                acc = _residual(cc.mult.get(t, 0), pairs, internal, closure)
                if stop is not None:
                    raise ComputationError(f"upstream failure at {poset.ids[stop]}")
                val = acc / diag if isinstance(acc, AffineInt) else div(acc, diag)
            except (ComputationError, ValueError) as e:
                row[t] = UNKNOWN
                failures[(src, t)] = str(e)
                pending.add(t)
                continue
            internal[t] = val
            if isinstance(val, AffineInt):
                row[t] = UNKNOWN
                failures[(src, t)] = \
                    f"parameter does not cancel: {', '.join(sorted(val.coeffs))}"
            else:
                row[t] = val
    return EulerMatrix(sources, all_orbits, rows, failures=failures)


def _exception_label(ds, e):
    """The local system of exception orbit e; the pinning step needs exactly one."""
    labels = ds.orbit(e).group.labels()
    if len(labels) != 1:
        raise ComputationError(
            f"exception orbit {e} carries {len(labels)} local systems; "
            "the pinning step needs exactly one")
    return labels[0]


def _pinned(fn, *args):
    """fn(*args), with unpinned evaluation data raised as ComputationError."""
    try:
        return fn(*args)
    except InsufficientKLData as e:
        raise ComputationError(
            f"insufficient KL data for the localization check: {e.pairs}") from None


def special_cc_localization(sr):
    """Cycle of the open-orbit sign sheaf via the localization recipe.

    Multiplicity 1 on every conormal carrying a dense orbit.  Each listed
    exception orbit carries one local system, and its coefficient is read
    off total[e], where total[o] = sum over g of mg(g, (top, triv)) * CC(g)[o]
    decomposes the cycle against the multiplicity column of the standard
    sheaf at the open orbit's trivial local system.  The sum runs over the
    local systems g on the exceptions' up-sets and the top orbit, and every
    other orbit of that region must get total 1.  Coefficients outside the
    region cannot be cross-checked from a partial evaluation table and are
    not.

    The dataset is sr.dataset, and the result must equal the sign sheaf's
    row of sr.cc_table.  The sign sheaf is the top orbit's last local
    system; a top orbit that carries only the trivial one has none, and
    raises ComputationError.
    """
    ds = sr.dataset
    top = ds.poset.top()
    top_labels = ds.orbit(top).group.labels()
    if len(top_labels) == 1:
        raise ComputationError(
            f"top orbit {top} carries one local system; the localization "
            "recipe needs a sign local system besides the trivial one")
    col, sign = (top, top_labels[0]), top_labels[-1]
    exceptions = ds.conormal_dense_exceptions
    mm = MultiplicityMatrices(ds)
    for e in exceptions:
        # fetched before the region walk, so a KL gap under e is named first
        _pinned(mm.mg, (e, _exception_label(ds, e)), col)

    region = sorted({top}.union(*(ds.poset.up_set(e) for e in exceptions)),
                    key=lambda o: (-ds.orbit(o).dim, o))
    total = {o.id: AffineInt(0) for o in ds.orbits}
    for orb in region:
        for lab in ds.orbit(orb).group.labels():
            m = _pinned(mm.mg, (orb, lab), col)
            if m:
                for o2, v in sr.cc_table[(orb, lab)].mult.items():
                    total[o2] += m * v
    for orb in region:
        if orb not in exceptions and total[orb] != 1:
            raise ComputationError(
                f"localization decomposition does not close at {orb}: "
                f"remainder {1 - total[orb]}")

    mult = {o.id: total[o.id] if o.id in exceptions else AffineInt(1) for o in ds.orbits}
    result = CharacteristicCycle((top, sign), {o: v for o, v in mult.items() if v})
    table_row = sr.cc_table.get((top, sign))
    if table_row is not None and table_row.mult != result.mult:
        raise ComputationError(
            "localization cycle disagrees with the solved table row for "
            f"({top},{sign})")
    return result


def localization_check_terms(ds):
    """The term breakdown behind the localization pinning, for reports.

    Raises ComputationError where special_cc_localization does on an
    exception orbit's local systems, so no report shows a pinning line
    that the pinning step rejects.
    """
    top = ds.poset.top()
    triv = ds.orbit(top).group.labels()[0]
    mm = MultiplicityMatrices(ds)
    out = {}
    for e in ds.conormal_dense_exceptions:
        lab = _exception_label(ds, e)
        out[(e, lab)] = _pinned(composition_terms, mm, (e, lab), (top, triv))
    return out


def check_halfinteger_roots(roots):
    """True iff no root lies in Z + 1/2."""
    rs = [Fraction(r) for r in roots]
    if not rs:
        raise ValueError("empty root list")
    return not any(r.denominator == 2 for r in rs)


def verify_fourier_symmetry(sr):
    """All pairwise symmetry identities on solver output; returns mismatches.

    A mismatch is (source, orbit, lhs, rhs), in local-system order and then
    orbit order; a cell that neither cycle holds is ZERO on both sides and
    is not compared.
    """
    ds = sr.dataset
    duals = [(o.id, hat(ds.duality, o.id)) for o in ds.orbits]
    out = []
    for src in ds.local_systems():
        cc, fcc = sr.cc_table[src], sr.cc_table[fourier_partner(ds.duality, src)]
        mult, fmult = cc.mult, fcc.mult
        for t, dual in duals:
            if t in mult or dual in fmult:
                lhs, rhs = cc.at(t), fcc.at(dual)
                if lhs != rhs:
                    out.append((src, t, lhs, rhs))
    return out
