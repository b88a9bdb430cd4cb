"""Finite orbit posets given by cover relations.

The closure order is the reflexive-transitive hull of the covers.  Reachability
sets are precomputed once as the rows _up and _down (other modules read them
in place, never changing them).  Bad input (cycles, dimension drops) is
tolerated at construction so that the validator can report it.  A poset is a
Record: equal by its ids, dimensions, covers and ambient dimension, no hash.
"""

from collections import namedtuple

from ._record import Record


class Violation(namedtuple("Violation", "code detail subject", defaults=((),))):
    """One structural defect found by a validator: a frozen record."""
    __slots__ = ()

    def __str__(self):
        return f"[{self.code}] {self.detail}"


class OrbitPoset(Record):
    _fields = ("ids", "dim", "covers", "ambient_dim")

    def __init__(self, ids, dims, covers, ambient_dim=None):
        self.ids = list(ids)
        self.dim = dict(dims)
        self.covers = [tuple(c) for c in covers]
        self.ambient_dim = ambient_dim
        for a, b in self.covers:
            if a not in self.dim or b not in self.dim:
                raise KeyError(f"cover ({a},{b}) references an unknown orbit")
        # up[x] = all y with x <= y: one search from each id along the covers
        succ = {}
        for a, b in self.covers:
            succ.setdefault(a, []).append(b)
        up = {}
        for x in self.ids:
            seen = {x}
            stack = [x]
            while stack:
                for y in succ.get(stack.pop(), ()):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            up[x] = seen
        down = {x: set() for x in self.ids}
        for y, above in up.items():
            for x in above:
                if x in down:
                    down[x].add(y)
        self._up = up
        self._down = down

    def __contains__(self, x):
        return x in self.dim

    def check_ids(self, *xs):
        for x in xs:
            if x not in self.dim:
                raise KeyError(f"unknown orbit id {x!r}")

    def leq(self, a, b):
        up = self._up.get(a)
        if up is not None and a in self.dim and b in self.dim:
            return b in up
        # on any miss, the checked path raises the unknown-id error
        self.check_ids(a, b)
        return b in self._up[a]

    def up_set(self, a):
        self.check_ids(a)
        return set(self._up[a])

    def down_set(self, a):
        self.check_ids(a)
        return set(self._down[a])

    def interval(self, a, b):
        """All x with a <= x <= b, in the stored id order."""
        self.check_ids(a, b)
        return [x for x in self.ids if x in self._up[a] and b in self._up[x]]

    def maximal(self):
        return [x for x in self.ids if self._up[x] == {x}]

    def minimal(self):
        return [x for x in self.ids if self._down[x] == {x}]

    def top(self):
        tops = self.maximal()
        if len(tops) != 1:
            raise ValueError(f"poset has {len(tops)} maximal elements, expected 1")
        return tops[0]

    def bottom(self):
        bots = self.minimal()
        if len(bots) != 1:
            raise ValueError(f"poset has {len(bots)} minimal elements, expected 1")
        return bots[0]


def closure_leq(poset, a, b):
    """True iff orbit a lies in the closure of orbit b."""
    return poset.leq(a, b)


def validate_poset(poset):
    """Check acyclicity, dimension monotonicity, unique top and bottom."""
    out = []
    seen = set()
    for x in poset.ids:
        if x in seen:
            out.append(Violation("duplicate-orbit", f"orbit id {x} repeated", (x,)))
        seen.add(x)
    for a, b in poset.covers:
        # a cycle makes two distinct orbits mutually comparable
        if a != b and poset.leq(a, b) and poset.leq(b, a):
            out.append(Violation("cover-cycle", f"cover graph cyclic through ({a},{b})", (a, b)))
        if poset.dim[a] >= poset.dim[b]:
            out.append(Violation(
                "cover-dim", f"dim decreases along cover ({a},{b}): "
                f"{poset.dim[a]} >= {poset.dim[b]}", (a, b)))
    if len(poset.maximal()) != 1:
        out.append(Violation("no-unique-top", f"maximal orbits: {sorted(poset.maximal())}"))
    if len(poset.minimal()) != 1:
        out.append(Violation("no-unique-bottom", f"minimal orbits: {sorted(poset.minimal())}"))
    if poset.ambient_dim is not None and len(poset.maximal()) == 1:
        t = poset.maximal()[0]
        if poset.dim[t] != poset.ambient_dim:
            out.append(Violation(
                "top-not-dense", f"top orbit {t} has dim {poset.dim[t]}, "
                f"ambient is {poset.ambient_dim}", (t,)))
    return out
