"""Packet constructions on top of a solved cycle table.

A representation enters the micro-packet of an anchor orbit when the cycle
of its parameter's sheaf meets that orbit's conormal.  With free parameters
in play, membership is decided over the admissible integer points of the
derived bounds: identically zero means out, never zero means in, zero at
some admissible points but not all means indeterminate, and the three cases
are kept apart rather than collapsed.  A cycle holds its nonzero entries
only, so an anchor absent from it is out without being classified; an
explicit zero entry, which hand-built tables may hold, is classified, and
is out too.  micro_packet reads the report's by-anchor view of its table
(SolveReport.by_anchor, built once per table), which lists each anchor's
entries in catalog order; a report is edited by assigning it a new table,
not by changing its table in place.

A function that needs the cycles takes the solved report alone and reads
the catalog and the duality from sr.dataset; members come in catalog order.
The checks choose their anchors from the dataset: verify_weak_equals_union
the duals of the special piece, and verify_az_micro_compatibility those
duals too, or every orbit when the dataset declares no special piece.
Packet, WeakUnionReport and AZCompatReport are namedtuple subclasses:
frozen, equal by value, and built once per call.  `rep in packet` asks
whether rep is a member, definite or indeterminate.
"""

from collections import namedtuple

from .affine import div
from .duality import hat
from .solver import ComputationError


class Packet(namedtuple("Packet", "kind anchor members indeterminate", defaults=((),))):
    # anchor is None for a packet that has none; `in` asks for a member,
    # definite or indeterminate, not for a field
    __slots__ = ()

    def __contains__(self, rep_id):
        return rep_id in self.members or rep_id in self.indeterminate


class WeakUnionReport(namedtuple("WeakUnionReport", "equal weak anchors per_anchor "
                                 "union_members union_indeterminate")):
    __slots__ = ()


class AZCompatReport(namedtuple("AZCompatReport", "anchor dual_anchor ok az_image expected "
                                "az_indeterminate expected_indeterminate",
                                defaults=((),) * 4)):
    __slots__ = ()


def _catalog_order(catalog):
    return {rep.id: i for i, rep in enumerate(catalog)}


def _by_id(catalog):
    return {rep.id: rep for rep in catalog}


def _bound_for(sr, name):
    for b in sr.bounds or []:
        if b.parameter == name:
            return b
    return None


def _classify(sr, value):
    """'out' / 'in' / 'indeterminate' for one multiplicity over the bounds."""
    if not value:
        return "out"
    if value.is_constant():
        return "in"
    if len(value.coeffs) > 1:
        raise ComputationError(
            f"packet membership needs single-parameter multiplicities, got {value}")
    if sr.bounds is None:
        raise ComputationError("no usable bounds; cannot classify membership")
    (name, b), = value.coeffs.items()
    root = div(-value.constant, b)
    if type(root) is not int:
        return "in"
    bound = _bound_for(sr, name)
    lo = bound.lower if bound else None
    hi = bound.upper if bound else None
    if (lo is not None and root < lo) or (hi is not None and root > hi):
        return "in"
    if lo is not None and lo == hi == root:
        return "out"
    return "indeterminate"


def _dual_anchors(ds, orbits):
    """The hat images of orbits, each once, in order of first appearance."""
    return list(dict.fromkeys(hat(ds.duality, s) for s in orbits))


def micro_packet(sr, anchor):
    """All representations whose parameter's cycle meets the anchor conormal.

    Reads the anchor's entries from sr.by_anchor, so a packet costs the
    entries its anchor holds, not the catalog.  An unknown anchor raises
    KeyError; so does, for any anchor and before any entry is classified,
    a catalog parameter whose cycle the table lacks.
    """
    if anchor not in sr.dataset.poset:
        raise KeyError(f"unknown orbit {anchor}")
    members, maybe = [], []
    for rep_id, value in sr.by_anchor.get(anchor, ()):
        kind = _classify(sr, value)
        if kind == "in":
            members.append(rep_id)
        elif kind == "indeterminate":
            maybe.append(rep_id)
    return Packet("micro", anchor, tuple(members), tuple(maybe))


def basic_arthur_packet(sr):
    """Duals of the representations whose parameter sits on the open orbit.

    Cross-checked against the micro-packet anchored at the dual of the open
    orbit; a mismatch means the dataset's duality and cycle data disagree.
    """
    ds = sr.dataset
    top = ds.poset.top()
    order = _catalog_order(ds.catalog)
    members = sorted(
        (rep.az_partner for rep in ds.catalog if rep.param[0] == top), key=order.get)
    anchor = hat(ds.duality, top)
    mic = micro_packet(sr, anchor)
    if set(members) != set(mic.members) or mic.indeterminate:
        raise ComputationError(
            f"dual basic packet {members} does not match the micro-packet "
            f"{list(mic.members)} at {anchor}")
    return Packet("basic-arthur", anchor, tuple(members))


def weak_arthur_packet(ds):
    """Duals of the representations whose parameter orbit lies in the special piece."""
    if not ds.special_piece:
        raise ValueError("dataset declares no special piece")
    special = set(ds.special_piece)
    order = _catalog_order(ds.catalog)
    ids = set(order)
    members = set()
    for rep in ds.catalog:
        if rep.param[0] in special:
            if rep.az_partner not in ids:
                raise KeyError(f"{rep.id} names unknown dual {rep.az_partner}")
            members.add(rep.az_partner)
    return Packet("weak-arthur", None, tuple(sorted(members, key=order.get)))


def all_micro_packets(sr):
    """Micro-packet at every orbit, in dataset orbit order."""
    return {o.id: micro_packet(sr, o.id) for o in sr.dataset.orbits}


def verify_weak_equals_union(sr):
    """The weak packet against the union of micro-packets over dual anchors.

    Anchors are the duals of the special-piece orbits.  Equality is set
    equality of definite members with no indeterminate membership anywhere
    in the union.
    """
    ds = sr.dataset
    anchors = _dual_anchors(ds, ds.special_piece)
    per = {a: micro_packet(sr, a) for a in anchors}
    order = _catalog_order(ds.catalog)
    union = sorted({m for p in per.values() for m in p.members}, key=order.get)
    maybe = sorted({m for p in per.values() for m in p.indeterminate}, key=order.get)
    weak = weak_arthur_packet(ds)
    equal = not maybe and set(union) == set(weak.members)
    return WeakUnionReport(equal, weak, anchors, per, tuple(union), tuple(maybe))


def verify_az_micro_compatibility(sr):
    """Per anchor S: the dual image of the packet at S equals the packet at hat(S).

    Definite members and indeterminate members are compared separately,
    since a parameter-dependent multiplicity stays parameter-dependent on
    the dual side.  The anchors are the duals of the special-piece orbits,
    or every orbit when no special piece is declared.
    """
    ds = sr.dataset
    d = ds.duality
    anchors = _dual_anchors(ds, ds.special_piece or [o.id for o in ds.orbits])
    by_id = _by_id(ds.catalog)
    order = _catalog_order(ds.catalog)

    def image(ids):
        return tuple(sorted((by_id[r].az_partner for r in ids), key=order.get))

    reports = []
    for a in anchors:
        here = micro_packet(sr, a)
        there = micro_packet(sr, hat(d, a))
        got, want = image(here.members), there.members
        got_ind, want_ind = image(here.indeterminate), there.indeterminate
        ok = set(got) == set(want) and set(got_ind) == set(want_ind)
        reports.append(AZCompatReport(
            a, hat(d, a), ok, got, want, got_ind, want_ind))
    return reports


def simplified_arthur_parameters(ds):
    """One row per labeled parameter: its support orbit and the dual orbit.

    Checks that the dual orbit of every row is itself the support of some
    row, so the family is closed under duality.
    """
    rows = []
    supports = {rec.langlands for rec in ds.arthur_type}
    for rec in ds.arthur_type:
        dual = hat(ds.duality, rec.langlands)
        if dual not in supports:
            raise ComputationError(
                f"arthur-type family not closed under duality: {rec.label} "
                f"has dual support {dual} with no matching row")
        rows.append({"label": rec.label, "support": rec.langlands, "dual": dual})
    return rows


def unitarity_report(catalog, packets):
    """Unitarity flags across packets; rows follow the packets' order."""
    by_id = _by_id(catalog)
    rows = []
    for p in packets:
        nonunitary = [r for r in p.members if not by_id[r].unitary]
        maybe_nonunitary = [r for r in p.indeterminate if not by_id[r].unitary]
        rows.append({
            "kind": p.kind,
            "anchor": p.anchor,
            "members": list(p.members),
            "indeterminate": list(p.indeterminate),
            "nonunitary": nonunitary,
            "nonunitary_indeterminate": maybe_nonunitary,
            "all_unitary": not nonunitary and not maybe_nonunitary,
        })
    return rows
