"""The two dualities: hat on orbits, fourier on local systems.

Both are involutions given as pair lists in the dataset.  hat reverses the
closure order on the special piece (not poset-wide; see validate_duality).
fourier moves a local system to the geometric parameter of
its partner representation; its orbit part composed with hat is what the
solver's symmetry constraints consume.
"""

from .poset import Violation


def hat(d, s):
    """Hat-dual orbit of s."""
    try:
        return d.hat_map[s]
    except KeyError:
        raise KeyError(f"orbit {s!r} has no hat image") from None


def fourier_partner(d, ls):
    """Partner local system of ls under the fourier involution."""
    try:
        return d.fourier_map[tuple(ls)]
    except KeyError:
        raise KeyError(f"local system {ls!r} has no fourier partner") from None


def validate_duality(ds):
    """Involutivity of both maps, totality, and order reversal of hat: for
    a <= b in scope, hat(b) <= hat(a), read off the poset's up- and
    down-set rows in place, broken pairs taken in scope order."""
    out = []
    d = ds.duality
    orbit_ids = [o.id for o in ds.orbits]

    unmatched = [x for x in orbit_ids if x not in d.hat_map]
    if unmatched:
        out.append(Violation(
            "hat-not-total",
            f"not involutive ({', '.join(unmatched)} unmatched)", tuple(unmatched)))
    for x in orbit_ids:
        y = d.hat_map.get(x)
        if y is not None and d.hat_map.get(y) != x:
            out.append(Violation(
                "hat-not-involutive", f"hat(hat({x})) = {d.hat_map.get(y)} != {x}", (x,)))

    # pair lists may disagree with the derived map when an orbit occurs twice
    seen = {}
    for a, b in d.hat_pairs:
        for x, y in ((a, b), (b, a)):
            if x in seen and seen[x] != y:
                out.append(Violation(
                    "hat-conflict", f"orbit {x} paired with both {seen[x]} and {y}", (x,)))
            seen[x] = y

    # order reversal holds on the special piece, not poset-wide: hat is the
    # composite of an order-reversing conormal matching with a triple flip,
    # and the flip disturbs closure order away from the special orbits
    # (here e.g. S4 < S7 with both orbits hat-fixed).  Scope accordingly;
    # datasets without a declared special piece are checked in full.
    up, down, hat_map = ds.poset._up, ds.poset._down, d.hat_map
    scope = [x for x in (ds.special_piece or orbit_ids) if x in ds.poset and x in hat_map]
    broken = []
    for a in scope:
        above, below = up[a], down[hat_map[a]]
        broken += [(a, b) for b in scope if b in above and hat_map[b] not in below]
    if broken:
        a, b = broken[0]
        more = f" and {len(broken) - 1} more pairs" if len(broken) > 1 else ""
        out.append(Violation(
            "hat-not-order-reversing",
            f"order-reversal broken at ({a},{b}){more}", (a, b)))

    all_ls = ds.local_systems()
    known_ls = set(all_ls)
    unmatched_ls = [ls for ls in all_ls if ls not in d.fourier_map]
    if unmatched_ls:
        out.append(Violation(
            "fourier-not-total",
            f"local systems without a fourier partner: {unmatched_ls}"))
    for ls in all_ls:
        p = d.fourier_map.get(ls)
        if p is not None:
            if p not in known_ls:
                out.append(Violation(
                    "fourier-unknown", f"fourier({ls}) = {p} is not a local system", ls))
            elif d.fourier_map.get(p) != ls:
                out.append(Violation(
                    "fourier-not-involutive", f"fourier(fourier({ls})) = {d.fourier_map.get(p)}", ls))
    return out
