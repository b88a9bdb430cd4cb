"""Local Euler characteristics and the geometric multiplicity matrix.

Conventions, fixed once here and used everywhere:

 * chi_loc at target orbit T of the sheaf attached to source (S, L) is
   (-1)^dim(S) * sum over irreps L'' of T's group of dim(L'') * P((T,L''),(S,L))
   where P(..) is the pinned evaluation at 1.
 * Same-orbit evaluations are normalized away: P((S,L''),(S,L)) = delta(L'',L).
 * Evaluations vanish unless the target orbit lies in the source's closure.
 * Anything the table does not pin is UNKNOWN, an explicit sentinel.  Missing
   data never silently becomes 0; only support and normalization fill cells.

The signed transition matrix cg(d,g) = (-1)^(dim d + dim g) * P(d,g) writes
simple objects in terms of standard ones; its inverse mg gives composition
multiplicities of standards.  mg columns are computed by back-substitution,
fetching cg entries only where the running column is nonzero, so partially
pinned tables still resolve the columns whose support avoids the gaps.  mg
and composition_terms take these terms from one walk of the interval.

Every known value here is a plain int.  Signs (-1)^k are taken from the
parity of k, never as a power, so they stay ints for any integer dim,
negative ones included.  euler_matrix keys its cells by source row, not by
a (source, target) pair per cell: it works out what a source's cells share
(its sign, same-orbit value, closure and row of the KL index) once per
source, starts the row at 0 on every orbit and computes only the cells in
the closure, each pinned value read from the KL row with one dict lookup
(_pinned, as kl_value does); local_euler is the one-cell view of it.
"""


class _Unknown:
    __slots__ = ()

    def __repr__(self):
        return "unknown"

    def __bool__(self):
        raise TypeError("unknown euler value has no truth value")


UNKNOWN = _Unknown()


class InsufficientKLData(Exception):
    """A computation needed evaluation pairs the table does not pin."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        super().__init__(f"unpinned KL pairs: {self.pairs}")


def kl_value(ds, target_ls, source):
    """Pinned evaluation P(target_ls, source) or UNKNOWN.

    Applies normalization (same orbit), support (incomparable orbits), and
    the zero-sum shortcut: a pinned orbit-level sum of 0 forces every
    per-irrep value to 0 since evaluations are nonnegative.
    """
    t_orb = target_ls[0]
    s_orb = source[0]
    if t_orb == s_orb:
        return 1 if target_ls[1] == source[1] else 0
    if not ds.poset.leq(t_orb, s_orb):
        return 0
    return _pinned(ds.kl.row(source), (t_orb, target_ls[1]), ds.orbit(t_orb).group.irreps)


def _pinned(row, ls, irreps):
    """kl_value for ls's orbit, with these irreps, strictly below the
    source's, read from the source's row of the KL index (KLTable.row)."""
    rec = row[0].get(ls)
    if rec is not None:
        return rec.value
    srec = row[1].get(ls[0])
    if srec is not None:
        if srec.value == 0:
            return 0
        if len(irreps) == 1:
            d = irreps[0][1]
            if srec.value % d == 0:
                return srec.value // d
    return UNKNOWN


def _sign(dim):
    """(-1)^dim as an int, for any integer dim, negative ones included."""
    return -1 if dim % 2 else 1


def _source_facts(ds, source):
    """What every cell of one source shares: its sign, its same-orbit value
    sign * dim(L), its closure (the poset's own row) and its KL index row."""
    s_orb, s_irr = source
    orbit = ds.orbit(s_orb)
    for lab, d in orbit.group.irreps:
        if lab == s_irr:
            break
    else:
        raise KeyError(f"unknown irrep {s_irr!r} on orbit {s_orb}")
    sign = _sign(orbit.dim)
    return sign, sign * d, ds.poset._down[s_orb], ds.kl.row(tuple(source))


def _cell(ds, source, facts, t, irreps):
    """chi_loc of IC(source) along orbit t with these irreps, given _source_facts."""
    sign, same_orbit, closure, row = facts
    if t == source[0]:
        return same_orbit
    if t not in closure:
        return 0
    # try per-irrep first, fall back to a pinned orbit-level sum
    total = 0
    for lab, d in irreps:
        v = _pinned(row, (t, lab), irreps)
        if v is UNKNOWN:
            srec = row[1].get(t)
            return UNKNOWN if srec is None else sign * srec.value
        total += d * v
    return sign * total


def local_euler(ds, source, target):
    """chi_loc of IC(source) along the target orbit, or UNKNOWN."""
    irreps = ds.orbit(target).group.irreps
    return _cell(ds, source, _source_facts(ds, source), target, irreps)


class EulerMatrix:
    """chi_loc values for every (source local system, target orbit) pair.

    rows maps each source to its row {target orbit: value}, in the order the
    cells were written: orbit order for euler_matrix, support zeros first
    and then the closure in visiting order for reconstruct_local_euler.
    rows is kept, not copied.  entries is the flat {(source, target): value}
    view of the rows, in the same order, built on each read.  failures,
    populated by reconstruction, maps a cell to the reason its value stayed
    UNKNOWN.
    """

    def __init__(self, sources, targets, rows, failures=None):
        self.sources = list(sources)
        self.targets = list(targets)
        self.rows = rows
        self.failures = dict(failures or {})

    @property
    def entries(self):
        return {(src, t): v for src, row in self.rows.items() for t, v in row.items()}

    def value(self, source, target):
        try:
            return self.rows[tuple(source)][target]
        except KeyError:
            raise KeyError(f"no cell ({source}, {target})") from None

    def known_items(self):
        return [((src, t), v) for src, row in self.rows.items() for t, v in row.items()
                if v is not UNKNOWN]

    def unknown_cells(self):
        return [(src, t) for src, row in self.rows.items() for t, v in row.items()
                if v is UNKNOWN]


def euler_matrix(ds):
    """The full matrix over the dataset; cells may be UNKNOWN."""
    sources = ds.local_systems()
    targets = [(o.id, o.group.irreps) for o in ds.orbits]
    ids = [t for t, _ in targets]
    rows = {}
    for source in sources:
        facts = _source_facts(ds, source)
        closure = facts[2]
        row = rows[source] = dict.fromkeys(ids, 0)
        for t, irreps in targets:
            if t in closure:
                row[t] = _cell(ds, source, facts, t, irreps)
    return EulerMatrix(sources, ids, rows)


class MultiplicityMatrices:
    """Lazy view of the signed transition matrix cg and its inverse mg.

    Entries are materialized on demand.  cg is kl_value with its sign; mg
    columns are solved top-down.  Requests that hit unpinned pairs raise
    InsufficientKLData naming them.
    """

    def __init__(self, ds):
        self.ds = ds
        self._mg = {}

    def cg(self, d, g):
        d, g = tuple(d), tuple(g)
        v = kl_value(self.ds, d, g)
        if v is UNKNOWN:
            raise InsufficientKLData([(d, g)])
        return _sign(self.ds.orbit(d[0]).dim + self.ds.orbit(g[0]).dim) * v

    def mg(self, d, col):
        d, col = tuple(d), tuple(col)
        if d[0] == col[0]:
            return 1 if d == col else 0
        if not self.ds.poset.leq(d[0], col[0]):
            return 0
        key = (d, col)
        if key not in self._mg:
            self._mg[key] = -sum(c * m for _, c, m in self._terms(d, col))
        return self._mg[key]

    def _terms(self, d, col):
        """(g, cg(d, g), mg(g, col)) for each g strictly above d's orbit in
        the interval up to col's orbit, in interval order, where mg(g, col)
        is nonzero; a zero entry never demands a cg fetch.  d's orbit lies
        strictly below col's."""
        for orb in self.ds.poset.interval(d[0], col[0]):
            if orb == d[0]:
                continue
            for lab in self.ds.orbit(orb).group.labels():
                g = (orb, lab)
                m = self.mg(g, col)
                if m != 0:
                    yield g, self.cg(d, g), m


def composition_terms(mm, probe, column):
    """The terms cg(probe, g) * mg(g, column), diagonal term first, then each
    g above probe's orbit where mg(g, column) is nonzero.  The products sum
    to 1 when probe == column and to 0 otherwise, mg being the inverse of cg."""
    probe, column = tuple(probe), tuple(column)
    own = mm.mg(probe, column)
    terms = [{"gamma": probe, "cg": 1, "mg": own, "product": own}]
    if probe[0] == column[0] or not mm.ds.poset.leq(probe[0], column[0]):
        return terms
    return terms + [{"gamma": g, "cg": c, "mg": m, "product": c * m}
                    for g, c, m in mm._terms(probe, column)]
