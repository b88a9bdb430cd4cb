"""The verify battery: the paper's checkable claims, run on one solved report.

verify_battery(sr) returns one Check per claim, in a fixed order: Fourier
symmetry of the cycles, admissible multiplicities, the weak packet as the
union of micro-packets, AZ/duality compatibility, the basic packet, the
localization pinning, the Euler round trip and the b-function roots.  A
check whose computation raises ComputationError records the error text as
a failure; the battery passes when every record's ok is true.
"""

from collections import namedtuple

from .euler import UNKNOWN, euler_matrix
from .packets import basic_arthur_packet, verify_az_micro_compatibility, verify_weak_equals_union
from .solver import ComputationError, check_halfinteger_roots, reconstruct_local_euler, \
    special_cc_localization, verify_fourier_symmetry


class Check(namedtuple("Check", "name ok detail")):
    """One check's verdict: its name, whether it passed, and a one-line detail."""
    __slots__ = ()


def verify_battery(sr):
    """The battery's Check records for the solved report sr, in order."""
    ds = sr.dataset
    checks = []

    bad = verify_fourier_symmetry(sr)
    n = len(ds.local_systems()) * len(ds.orbits)
    checks.append(Check("fourier-symmetry", not bad,
                        f"{n} identities" if not bad else f"{len(bad)} mismatches: {bad[:3]}"))

    negative = [(src, o) for src, cc in sr.cc_table.items() for o, v in cc.mult.items()
                if v.is_constant() and v.constant < 0]
    feasible = all(b.feasible for b in sr.bounds or [])
    checks.append(Check("multiplicities-admissible", not negative and feasible,
                        "bounds feasible, no negative constants" if not negative and feasible
                        else f"negative at {negative[:3]}" if negative else "bounds infeasible"))

    try:
        wu = verify_weak_equals_union(sr)
        checks.append(Check("weak-equals-union", wu.equal,
                            f"{len(wu.weak.members)} members over anchors {', '.join(wu.anchors)}"
                            if wu.equal else
                            f"weak {list(wu.weak.members)} vs union {list(wu.union_members)}"
                            + (f", indeterminate {list(wu.union_indeterminate)}"
                               if wu.union_indeterminate else "")))
    except (ComputationError, KeyError, ValueError) as e:
        checks.append(Check("weak-equals-union", False, str(e)))

    try:
        compat = verify_az_micro_compatibility(sr)
        bad = [r for r in compat if not r.ok]
        checks.append(Check("az-compatibility", not bad,
                            f"{len(compat)} anchors" if not bad
                            else "mismatch at " + ", ".join(r.anchor for r in bad)))
    except ComputationError as e:
        checks.append(Check("az-compatibility", False, str(e)))

    try:
        basic = basic_arthur_packet(sr)
        checks.append(Check("basic-packet", True,
                            f"{len(basic.members)} members at anchor {basic.anchor}"))
    except ComputationError as e:
        checks.append(Check("basic-packet", False, str(e)))

    try:
        loc = special_cc_localization(sr)
        at = ", ".join(f"{o}: {loc.at(o)}" for o in ds.conormal_dense_exceptions)
        checks.append(Check("localization", True, f"pinned {at}"))
    except ComputationError as e:
        checks.append(Check("localization", False, str(e)))

    # the two matrices compared row by row, on the cells both know
    rec = reconstruct_local_euler(sr).rows
    both = mism = 0
    for src, row in euler_matrix(ds).rows.items():
        got = rec.get(src, {})
        for t, v in row.items():
            r = got.get(t, UNKNOWN)
            if v is not UNKNOWN and r is not UNKNOWN:
                both += 1
                mism += r != v
    checks.append(Check("euler-roundtrip", mism == 0,
                        f"{both} cells agree" if mism == 0 else f"{mism} cells disagree"))

    ok_b = check_halfinteger_roots(ds.b_function)
    checks.append(Check("b-function", ok_b,
                        "no roots in Z+1/2" if ok_b else "half-integer root present"))
    return checks
