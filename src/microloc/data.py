"""Dataset model and loader.

A dataset is one JSON document carrying the whole case study: the orbit poset
with component groups, the two duality maps, pinned Kazhdan-Lusztig
evaluations, the representation catalog, and the small amount of side data
the verification procedures need (special piece, parameter list, b-function
roots).  Loading is schema-shape checking only; semantic invariants live in
validate_dataset so that broken data can be reported rather than thrown.

Local systems are plain (orbit_id, irrep_label) tuples throughout.

The record types: ComponentGroup, Orbit, Representation, ArthurParameter
and KLRecord are frozen records, namedtuple subclasses, so equal values
compare and hash equal and a field cannot be assigned.  Dataset, KLTable
and DualityData are plain classes that build lookup tables when they are
constructed; they compare by their fields, as dataclasses would, and have
no hash.  KLTable indexes its records by source in one pass, the last
record of a key winning, and notes in the same pass the keys that repeat;
every reader of the KL data (euler, validation) reads that index.  Loading
the bundled case reads its file through this module's loader; nothing here
imports importlib.resources except bundled_dataset_path.
"""

import json
import os
import re
from collections import namedtuple
from fractions import Fraction

from ._record import Record
from .poset import OrbitPoset, Violation, validate_poset

SCHEMA_VERSION = 1


class SchemaError(Exception):
    """The file does not have the documented shape."""


class ComponentGroup(namedtuple("ComponentGroup", "name irreps")):
    # irreps: (label, dim) pairs, in declared order
    __slots__ = ()

    def labels(self):
        return [lab for lab, _ in self.irreps]

    def irrep_dim(self, label):
        for lab, d in self.irreps:
            if lab == label:
                return d
        raise KeyError(f"no irrep {label!r} in group {self.name}")


class Orbit(namedtuple("Orbit", "id dim group")):
    __slots__ = ()


class Representation(namedtuple(
        "Representation", "id param az_partner iwahori_spherical unitary")):
    # param: its local system
    __slots__ = ()


class ArthurParameter(namedtuple("ArthurParameter", "label langlands")):
    # langlands: an orbit id; the dual orbit is hat(langlands)
    __slots__ = ()


class KLRecord(namedtuple("KLRecord",
                          "target_orbit target_irrep source value provenance note",
                          defaults=("",))):
    """One pinned evaluation P(1).

    target_irrep None means the record pins the dimension-weighted sum over
    the target orbit's irreps instead of a single entry.  value 0 with
    target_irrep None pins every per-irrep entry to 0, values being
    nonnegative.  provenance is "transcribed" or "reconstructed".
    """
    __slots__ = ()


class KLTable(Record):
    """The KL records and their index, built in one pass over the records.

    by_source maps a source to (per-irrep map by (orbit, irrep), orbit-sum
    map by orbit), the last record of a key winning.  repeats lists each
    key (target orbit, target irrep, source) that equals an earlier
    record's, in record order, as validation reports them.  Each record's
    fields are read by position.
    """
    _fields = ("records",)
    _NO_ROW = ({}, {})

    def __init__(self, records):
        self.records = records
        self.by_source = index = {}
        self.repeats = repeats = []
        for r in records:
            torb, tirr, source = r[0], r[1], r[2]
            row = index.get(source) or index.setdefault(source, ({}, {}))
            if tirr is None:
                cells, key = row[1], torb
            else:
                cells, key = row[0], (torb, tirr)
            if key in cells:
                repeats.append((torb, tirr, source))
            cells[key] = r

    def row(self, source):
        """The source's (per-irrep map, orbit-sum map); empty maps if none."""
        return self.by_source.get(source, self._NO_ROW)


class DualityData(Record):
    _fields = ("hat_pairs", "fourier_pairs")

    def __init__(self, hat_pairs, fourier_pairs):
        self.hat_pairs = hat_pairs            # of (orbit, orbit)
        self.fourier_pairs = fourier_pairs    # of (LocalSystem, LocalSystem)
        self.hat_map = {}
        for a, b in self.hat_pairs:
            self.hat_map[a] = b
            self.hat_map[b] = a
        self.fourier_map = {}
        for a, b in self.fourier_pairs:
            self.fourier_map[tuple(a)] = tuple(b)
            self.fourier_map[tuple(b)] = tuple(a)


class Dataset(Record):
    _fields = ("name", "schema_version", "ambient_dim", "orbits", "poset", "duality", "kl",
               "catalog", "special_piece", "arthur_type", "conormal_dense_exceptions",
               "b_function", "notes", "diagonal_rule")

    def __init__(self, name, schema_version, ambient_dim, orbits, poset, duality, kl,
                 catalog, special_piece, arthur_type, conormal_dense_exceptions,
                 b_function, notes=None, diagonal_rule=True):
        self.name = name
        self.schema_version = schema_version
        self.ambient_dim = ambient_dim
        self.orbits = orbits
        self.poset = poset
        self.duality = duality
        self.kl = kl
        self.catalog = catalog
        self.special_piece = special_piece
        self.arthur_type = arthur_type
        self.conormal_dense_exceptions = conormal_dense_exceptions
        self.b_function = b_function
        self.notes = [] if notes is None else notes
        # the diagonal normalization c(S,S) = (-1)^dim(S); switchable per dataset
        self.diagonal_rule = diagonal_rule
        self._orbit = {o.id: o for o in orbits}
        self._rep = {r.id: r for r in catalog}
        # each entry's id and parameter, for the loops that read them per cell
        self._rep_params = [(r.id, r.param) for r in catalog]

    def orbit(self, oid):
        try:
            return self._orbit[oid]
        except KeyError:
            raise KeyError(f"unknown orbit id {oid!r}") from None

    def local_systems(self):
        """All (orbit, irrep) pairs, orbit order then declared irrep order."""
        return [(oid, lab) for oid, _, group in self.orbits for lab, _ in group.irreps]

    def ls_dim(self, ls):
        return self.orbit(ls[0]).group.irrep_dim(ls[1])

    def representation(self, rid):
        try:
            return self._rep[rid]
        except KeyError:
            raise KeyError(f"unknown representation id {rid!r}") from None


# ---------------------------------------------------------------- loading

def _need(obj, key, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object, got {obj!r}")
    if key not in obj:
        raise SchemaError(f"missing key {key!r} in {where}")
    return obj[key]


_ROOT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _is_int(x):
    # bool is a subclass of int, but true is not a count
    return isinstance(x, int) and not isinstance(x, bool)


def _list(raw, where):
    if not isinstance(raw, (list, tuple)):
        raise SchemaError(f"{where} must be a list, got {raw!r}")
    return raw


def _str(raw, where):
    if not isinstance(raw, str):
        raise SchemaError(f"{where} must be a string, got {raw!r}")
    return raw


def _bool(raw, where):
    if not isinstance(raw, bool):
        raise SchemaError(f"{where} must be true or false, got {raw!r}")
    return raw


def _pair(raw, where):
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise SchemaError(f"{where} must be a pair, got {raw!r}")
    return raw[0], raw[1]


def _ls(raw, where):
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2
            and isinstance(raw[0], str) and isinstance(raw[1], str)):
        raise SchemaError(f"{where}: local system must be [orbit, irrep], got {raw!r}")
    return (raw[0], raw[1])


def loads_dataset(doc):
    """Build a Dataset from a parsed JSON document (shape checks only)."""
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    version = _need(doc, "schema_version", "document")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise SchemaError(f"schema_version {version!r} unsupported (expected {SCHEMA_VERSION})")

    orbits = []
    for raw in _list(_need(doc, "orbits", "document"), "orbits"):
        oid = _str(_need(raw, "id", "orbit"), "orbit id")
        dim = _need(raw, "dim", f"orbit {oid}")
        if not _is_int(dim):
            raise SchemaError(f"orbit {oid}: dim must be an integer, got {dim!r}")
        gr = _need(raw, "group", f"orbit {oid}")
        irreps = []
        for item in _list(_need(gr, "irreps", "group"), f"irreps on orbit {oid}"):
            lab, d = _pair(item, f"irrep entry on orbit {oid}")
            if not isinstance(lab, str) or not _is_int(d) or d < 1:
                raise SchemaError(f"bad irrep entry {item!r} on orbit {oid}")
            irreps.append((lab, d))
        if len({lab for lab, _ in irreps}) != len(irreps):
            raise SchemaError(f"duplicate irrep label on orbit {oid}")
        orbits.append(Orbit(
            id=oid, dim=dim,
            group=ComponentGroup(_str(_need(gr, "name", "group"), f"group name on orbit {oid}"),
                                 tuple(irreps)),
        ))
    orbit_ids = {o.id for o in orbits}
    if len(orbit_ids) != len(orbits):
        raise SchemaError("duplicate orbit ids")

    def check_orbit(x, where):
        if not (isinstance(x, str) and x in orbit_ids):
            raise SchemaError(f"{where} references unknown orbit {x!r}")
        return x

    covers = []
    for raw in _list(_need(doc, "covers", "document"), "covers"):
        a, b = _pair(raw, "cover")
        covers.append((check_orbit(a, "cover"), check_orbit(b, "cover")))

    ambient_dim = _need(doc, "ambient_dim", "document")
    if not _is_int(ambient_dim):
        raise SchemaError(f"ambient_dim must be an integer, got {ambient_dim!r}")
    poset = OrbitPoset(
        [o.id for o in orbits], {o.id: o.dim for o in orbits}, covers,
        ambient_dim=ambient_dim)

    labels = {o.id: set(o.group.labels()) for o in orbits}

    def check_ls(ls, where):
        if ls[0] not in orbit_ids:
            raise SchemaError(f"{where}: unknown orbit {ls[0]!r}")
        if ls[1] not in labels[ls[0]]:
            raise SchemaError(f"{where}: unknown irrep {ls[1]!r} on orbit {ls[0]}")
        return ls

    dual = _need(doc, "duality", "document")
    hat_pairs = []
    for p in _list(_need(dual, "hat", "duality"), "hat"):
        a, b = _pair(p, "hat pair")
        hat_pairs.append((check_orbit(a, "hat pair"), check_orbit(b, "hat pair")))
    fourier_pairs = []
    for p in _list(_need(dual, "fourier", "duality"), "fourier"):
        a, b = _pair(p, "fourier pair")
        fourier_pairs.append((
            check_ls(_ls(a, "fourier"), "fourier"),
            check_ls(_ls(b, "fourier"), "fourier")))

    records = []
    for raw in _list(_need(doc, "kl", "document"), "kl"):
        # exact JSON types pass one test; any other record meets its fault below
        tgt, src = (raw.get("target"), raw.get("source")) if type(raw) is dict else (0, 0)
        if type(tgt) is list and type(src) is list and len(tgt) == len(src) == 2:
            (torb, tirr), (sorb, sirr), value = tgt, src, raw.get("value")
            prov, note = raw.get("provenance"), raw.get("note", "")
            if (type(torb) is str and type(sorb) is str and type(sirr) is str
                    and type(value) is int and type(note) is str
                    and torb in labels and sirr in labels.get(sorb, ()) and value >= 0
                    and (tirr is None or type(tirr) is str and tirr in labels[torb])
                    and prov in ("transcribed", "reconstructed")):
                records.append(
                    tuple.__new__(KLRecord, (torb, tirr, (sorb, sirr), value, prov, note)))
                continue
        tgt = _need(raw, "target", "kl record")
        if not (isinstance(tgt, (list, tuple)) and len(tgt) == 2):
            raise SchemaError(f"kl target must be [orbit, irrep-or-null], got {tgt!r}")
        torb, tirr = check_orbit(tgt[0], "kl target"), tgt[1]
        # a label is a string; anything else, hashable or not, is unknown
        if tirr is not None and not (isinstance(tirr, str) and tirr in labels[torb]):
            raise SchemaError(f"kl target irrep {tirr!r} unknown on {torb}")
        source = check_ls(_ls(_need(raw, "source", "kl record"), "kl source"), "kl source")
        value = _need(raw, "value", "kl record")
        if not _is_int(value) or value < 0:
            raise SchemaError(f"kl value must be a nonnegative integer, got {value!r}")
        prov = _need(raw, "provenance", "kl record")
        if prov not in ("transcribed", "reconstructed"):
            raise SchemaError(f"unknown provenance {prov!r}")
        note = _str(raw.get("note", ""), "kl record note")
        records.append(KLRecord(torb, tirr, source, value, prov, note))

    catalog = []
    for raw in _list(_need(doc, "catalog", "document"), "catalog"):
        where = "catalog entry"
        catalog.append(Representation(
            _str(_need(raw, "id", where), "catalog id"),
            check_ls(_ls(_need(raw, "param", where), "catalog"), "catalog"),
            _str(_need(raw, "az", where), "catalog az"),
            _bool(_need(raw, "iwahori_spherical", where), "catalog iwahori_spherical"),
            _bool(_need(raw, "unitary", where), "catalog unitary")))

    special = [check_orbit(x, "special_piece")
               for x in _list(_need(doc, "special_piece", "document"), "special_piece")]

    arthur = []
    for raw in _list(_need(doc, "arthur_type", "document"), "arthur_type"):
        lang = check_orbit(_need(raw, "langlands", "arthur_type entry"), "arthur_type")
        label = _str(_need(raw, "label", "arthur_type entry"), "arthur_type label")
        arthur.append(ArthurParameter(label, lang))

    exceptions = [check_orbit(x, "conormal_dense_exceptions")
                  for x in _list(doc.get("conormal_dense_exceptions", []),
                                 "conormal_dense_exceptions")]

    roots = []
    for raw in _list(_need(doc, "b_function", "document"), "b_function"):
        # exact fraction strings or integers; true is not the root 1, and
        # "1e3000000" would take Fraction seconds to build
        if not (_is_int(raw) or isinstance(raw, str) and _ROOT.fullmatch(raw)):
            raise SchemaError(f"bad b-function root {raw!r}: not a fraction string")
        try:
            # the pattern has checked the string; Fraction need not parse it again
            num, _, den = raw.partition("/") if isinstance(raw, str) else (raw, "", "")
            roots.append(Fraction(int(num), int(den or 1)))
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"bad b-function root {raw!r}: {e}") from None

    return Dataset(
        name=_str(_need(doc, "name", "document"), "name"),
        schema_version=version,
        ambient_dim=ambient_dim,
        orbits=orbits,
        poset=poset,
        duality=DualityData(hat_pairs, fourier_pairs),
        kl=KLTable(records),
        catalog=catalog,
        special_piece=special,
        arthur_type=arthur,
        conormal_dense_exceptions=exceptions,
        b_function=roots,
        notes=[_str(x, "note") for x in _list(doc.get("notes", []), "notes")],
        diagonal_rule=_bool(doc.get("diagonal_rule", True), "diagonal_rule"),
    )


def load_dataset(path):
    """Parse a dataset file.

    Raises SchemaError for a file that is not UTF-8 or that json cannot
    parse within the interpreter's limits, and for malformed documents;
    OSError for unreadable paths.  No semantic validation happens here; run validate_dataset on the
    result.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise SchemaError(f"not UTF-8: {e}") from None
    return _parse(text)


def _parse(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    except ValueError as e:
        # an integer literal past Python's int-conversion digit limit
        raise SchemaError(f"unreadable JSON number: {e}") from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply to parse") from None
    return loads_dataset(doc)


def bundled_dataset_path():
    """Filesystem path of the F4(a3) case data shipped with the package."""
    from importlib import resources
    return resources.files(__package__).joinpath("data", "f4a3.json")


def load_bundled_dataset():
    """The F4(a3) case shipped with the package.

    The file is read through this module's own loader, which reads it from
    a zipped package too, so loading imports no resource machinery.
    """
    path = os.path.join(os.path.dirname(__file__), "data", "f4a3.json")
    return _parse(__spec__.loader.get_data(path).decode("utf-8"))


# ---------------------------------------------------------------- validation

def _repeats(keys):
    """Each key that equals an earlier one, in order."""
    seen = set()
    return [k for k in keys if k in seen or seen.add(k)]


def validate_dataset(ds):
    """Collect structural violations; empty list means the dataset is sound.

    Pure and idempotent.  Covers the poset axioms, the catalog bijections,
    repeated keys, KL normalization and support, and delegates the duality
    laws to validate_duality.
    """
    from .duality import validate_duality

    out = list(validate_poset(ds.poset))

    for code, what, keys in (
            ("catalog-duplicate-id", "catalog id", [r.id for r in ds.catalog]),
            ("exception-duplicate", "exception orbit", ds.conormal_dense_exceptions),
            ("arthur-duplicate-label", "arthur_type label", [p.label for p in ds.arthur_type])):
        out.extend(Violation(code, f"{what} {k} repeated", (k,)) for k in _repeats(keys))
    all_ls = ds.local_systems()
    params = [r.param for r in ds.catalog]
    if len(set(params)) != len(params):
        out.append(Violation("param-not-injective", "two catalog entries share a parameter"))
    missing = set(all_ls) - set(params)
    if missing:
        out.append(Violation(
            "param-not-onto",
            f"local systems without a representation: {sorted(missing)}"))
    ids = {r.id for r in ds.catalog}
    for r in ds.catalog:
        if r.az_partner not in ids:
            out.append(Violation(
                "az-unknown-id", f"az partner {r.az_partner} of {r.id} not in catalog",
                (r.id,)))
        elif ds.representation(r.az_partner).az_partner != r.id:
            out.append(Violation(
                "az-not-involutive",
                f"az not involutive / not bijective at {r.id} "
                f"(az(az({r.id})) = {ds.representation(r.az_partner).az_partner})",
                (r.id,)))

    # KLTable keeps the last record of a key: their order would decide the answer
    records = ds.kl.records
    for torb, tirr, source in ds.kl.repeats:
        out.append(Violation("kl-duplicate", f"kl record ({torb},{tirr}) <- {source} repeated",
                             (torb, tirr) + source))
    up = ds.poset._up
    for r in records:
        torb, src_orb = r[0], r[2][0]
        if torb == src_orb:
            out.append(Violation(
                "kl-same-orbit",
                f"kl record with target orbit equal to source orbit {src_orb}; "
                "same-orbit values are fixed by normalization and must not be stored",
                (src_orb,)))
        elif src_orb not in up[torb]:
            out.append(Violation(
                "kl-support",
                f"kl record at target {torb} outside the closure "
                f"of source orbit {src_orb}", (torb, src_orb)))
    # stored per-irrep values must fit under any stored orbit-level sum,
    # and a complete per-irrep set must reproduce the sum exactly; sums in
    # the order their keys first occur, values read from the index
    for torb, source in dict.fromkeys((r[0], r[2]) for r in records if r[1] is None):
        per, sums = ds.kl.by_source[source]
        sum_rec, irreps = sums[torb], ds.orbit(torb).group.irreps
        vals = [per.get((torb, lab)) for lab, _ in irreps]
        for (lab, d), v in zip(irreps, vals):
            if v is not None and d * v.value > sum_rec.value:
                out.append(Violation(
                    "kl-exceeds-sum",
                    f"per-irrep value {v.value} at ({torb},{lab}) <- {source} "
                    f"exceeds the stored orbit sum {sum_rec.value}",
                    (torb, lab) + source))
        if all(v is not None for v in vals):
            total = sum(d * v.value for (_, d), v in zip(irreps, vals))
            if total != sum_rec.value:
                out.append(Violation(
                    "kl-sum-mismatch",
                    f"stored sum {sum_rec.value} at ({torb} <- {source}) "
                    f"disagrees with per-irrep total {total}", (torb,) + source))

    if not ds.b_function:
        out.append(Violation("b-function-empty", "b_function lists no roots"))
    for x in ds.special_piece:
        if x not in ds.poset:
            out.append(Violation("special-unknown", f"unknown orbit {x} in special_piece"))
    out.extend(Violation("exception-top", f"exception orbit {e} is the top orbit, whose "
                         "conormal (the zero section) has a dense orbit", (e,))
               for e in ds.conormal_dense_exceptions if e in ds.poset.maximal())
    hats = ds.duality.hat_map
    for p in ds.arthur_type:
        if p.langlands not in hats:
            out.append(Violation(
                "arthur-no-hat", f"parameter {p.label}: orbit {p.langlands} has no hat image",
                (p.label,)))

    out.extend(validate_duality(ds))
    return out
