"""The KL index by source against an independent copy of the per-record lookups.

KLTable indexes its records by source once, at load, and every reader of
the KL data (euler_matrix, local_euler, kl_value, MultiplicityMatrices.cg)
reads that index through one cell rule.  test_euler.py compares
euler_matrix with local_euler, which read the same index, so that
comparison checks no lookup independently.  Here a test-only copy of the
lookups the index replaced (records keyed by 3-tuples, and one
pinned-value call per cell) gives every cell, evaluation and signed
transition entry, and the package must agree with it on the bundled case
and its KL bumps, on chains, on the mutants of test_mutations.py, on a
dataset that repeats a key (the last record wins) and on orbit-sum
records over targets with several irreps, or with one irrep of dimension
above 1.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from microloc.data import loads_dataset, validate_dataset
from microloc.euler import (InsufficientKLData, MultiplicityMatrices, UNKNOWN, euler_matrix,
                            kl_value)
from microloc.poset import Violation
from chains import chain_doc
from test_euler import _outcome
from test_mutations import mutants


class _PerRecord:
    """Test-only copy of the per-record lookups: _per keyed by (target
    orbit, target irrep, source), _sum by (target orbit, source), the last
    record of a key winning, and the cell rule read cell by cell."""

    def __init__(self, ds):
        self.ds = ds
        self._per, self._sum = {}, {}
        for r in ds.kl.records:
            if r.target_irrep is None:
                self._sum[(r.target_orbit, r.source)] = r
            else:
                self._per[(r.target_orbit, r.target_irrep, r.source)] = r

    def _pinned_value(self, target_ls, source):
        rec = self._per.get((target_ls[0], target_ls[1], source))
        if rec is not None:
            return rec.value
        srec = self._sum.get((target_ls[0], source))
        if srec is not None:
            if srec.value == 0:
                return 0
            irreps = self.ds.orbit(target_ls[0]).group.irreps
            if len(irreps) == 1 and srec.value % irreps[0][1] == 0:
                return srec.value // irreps[0][1]
        return UNKNOWN

    def kl_value(self, target_ls, source):
        if target_ls[0] == source[0]:
            return 1 if target_ls[1] == source[1] else 0
        if not self.ds.poset.leq(target_ls[0], source[0]):
            return 0
        return self._pinned_value(target_ls, source)

    def _cell(self, source, t):
        orbit = self.ds.orbit(source[0])
        sign = -1 if orbit.dim % 2 else 1
        if t == source[0]:
            return sign * orbit.group.irrep_dim(source[1])
        if t not in self.ds.poset.down_set(source[0]):
            return 0
        total = 0
        for lab, d in self.ds.orbit(t).group.irreps:
            v = self._pinned_value((t, lab), source)
            if v is UNKNOWN:
                srec = self._sum.get((t, source))
                return UNKNOWN if srec is None else sign * srec.value
            total += d * v
        return sign * total

    def cg(self, d, g):
        v = self.kl_value(d, g)
        if v is UNKNOWN:
            raise InsufficientKLData([(d, g)])
        sign = (self.ds.orbit(d[0]).dim + self.ds.orbit(g[0]).dim) % 2
        return -v if sign else v


def _same(got, want):
    return got is want if want is UNKNOWN else (type(got), got) == (type(want), want)


def check_against_per_record(ds):
    """euler_matrix, kl_value and cg agree with _PerRecord everywhere; the
    kinds of cell that were reached, for the callers' coverage checks."""
    ref = _PerRecord(ds)
    lss = ds.local_systems()
    em = euler_matrix(ds)
    assert list(em.entries) == [(s, o.id) for s in lss for o in ds.orbits]
    kinds = set()
    for (src, t), v in em.entries.items():
        want = ref._cell(src, t)
        assert _same(v, want), (src, t, v, want)
        kinds.add("unknown" if want is UNKNOWN else "known")
    mm = MultiplicityMatrices(ds)
    for d in lss:
        for g in lss:
            want = ref.kl_value(d, g)
            assert _same(kl_value(ds, d, g), want), (d, g)
            assert _outcome(mm.cg, d, g) == _outcome(ref.cg, d, g), (d, g)
            if want is not UNKNOWN and d[0] != g[0] and ds.poset.leq(d[0], g[0]) \
                    and (d[0], d[1], g) not in ref._per:
                kinds.add("from-sum")
    return kinds


def _bumped(doc, i):
    doc = copy.deepcopy(doc)
    doc["kl"][i]["value"] += 1
    return doc


def test_bundled_case_and_its_kl_bumps(bundled_doc):
    kinds = check_against_per_record(loads_dataset(bundled_doc))
    # the bundled case pins some values only through orbit sums, and leaves
    # some cells unpinned
    assert kinds == {"known", "unknown", "from-sum"}
    for i in range(len(bundled_doc["kl"])):
        check_against_per_record(loads_dataset(_bumped(bundled_doc, i)))


@pytest.mark.parametrize("n", [3, 6, 9, 12, 18])
def test_chains(n):
    check_against_per_record(loads_dataset(chain_doc(n)))


@seed(2701)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_mutants(bundled_doc, data):
    doc, shuffled = data.draw(mutants(bundled_doc), label="mutant")
    check_against_per_record(loads_dataset(doc))
    check_against_per_record(loads_dataset(shuffled))


def _record(target, source, value):
    return {"target": list(target), "source": list(source), "value": value,
            "provenance": "transcribed"}


def test_repeated_key_last_record_wins(bundled_doc):
    doc = copy.deepcopy(bundled_doc)
    # a per-irrep key and an orbit-sum key, each given again with new values
    doc["kl"].append(_record(["S9", "(1)"], ["S10", "(1)"], 3))
    doc["kl"].append(_record(["S8", None], ["S11", "(4)"], 7))
    doc["kl"].append(_record(["S9", "(1)"], ["S10", "(1)"], 2))
    ds = loads_dataset(doc)
    check_against_per_record(ds)
    assert kl_value(ds, ("S9", "(1)"), ("S10", "(1)")) == 2
    assert ds.kl.row(("S11", "(4)"))[1].get("S8").value == 7
    # S11 has even dimension, so chi_loc at S8 is the sum itself
    assert euler_matrix(ds).value(("S11", "(4)"), "S8") == 7


@pytest.mark.parametrize("value", [0, 3])
def test_sum_only_record_on_a_target_with_several_irreps(bundled_doc, value):
    # S9 has irreps (1) and (1^2); its per-irrep records under (S10,(1))
    # give way to one orbit sum
    doc = copy.deepcopy(bundled_doc)
    doc["kl"] = [r for r in doc["kl"]
                 if not (r["target"][0] == "S9" and r["source"] == ["S10", "(1)"])]
    doc["kl"].append(_record(["S9", None], ["S10", "(1)"], value))
    ds = loads_dataset(doc)
    check_against_per_record(ds)
    # the zero-sum shortcut pins each irrep to 0; another sum pins neither,
    # but the cell, the sum with S10's sign, is still known
    want = 0 if value == 0 else UNKNOWN
    assert _same(kl_value(ds, ("S9", "(1^2)"), ("S10", "(1)")), want)
    assert euler_matrix(ds).value(("S10", "(1)"), "S9") == -value


def test_sum_only_records_on_a_single_irrep_of_dimension_two():
    # chain6 with A1's one irrep of dimension 2: a sum divisible by 2 pins
    # the value, an odd one leaves it UNKNOWN but pins the cell
    doc = chain_doc(6)
    doc["orbits"][1]["group"]["irreps"][0][1] = 2
    doc["kl"] = [r for r in doc["kl"] if not (r["target"][0] == "A1"
                                              and r["source"][0] in ("A3", "A4"))]
    doc["kl"] += [_record(["A1", None], ["A3", "(1)"], 4),
                  _record(["A1", None], ["A4", "(1)"], 3)]
    ds = loads_dataset(doc)
    check_against_per_record(ds)
    assert kl_value(ds, ("A1", "(1)"), ("A3", "(1)")) == 2
    assert kl_value(ds, ("A1", "(1)"), ("A4", "(1)")) is UNKNOWN
    em = euler_matrix(ds)
    assert (em.value(("A3", "(1)"), "A1"), em.value(("A4", "(1)"), "A1")) == (-4, 3)


def _repeated_keys(keys):
    """Each key equal to an earlier one, in order, by a quadratic scan."""
    return [k for j, k in enumerate(keys) if k in keys[:j]]


# chain4's keys below its top (Z/2, irreps (1) and (1^2)): per-irrep keys
# and orbit-sum keys, so that a key repeats in either map of a source's row
_KEYS = [(t, i, s) for s in [("A3", "(1)"), ("A3", "(1^2)"), ("A2", "(1)")]
         for t in ["A0", "A1"] for i in ["(1)", None]]


@settings(max_examples=150, deadline=None, database=None)
@given(keys=st.lists(st.sampled_from(_KEYS), max_size=14),
       values=st.lists(st.integers(0, 2), min_size=14, max_size=14))
def test_repeats_are_the_keys_seen_before(keys, values):
    doc = chain_doc(4)
    doc["kl"] = [{"target": [t, i], "source": list(s), "value": v,
                  "provenance": "reconstructed"} for (t, i, s), v in zip(keys, values)]
    ds = loads_dataset(doc)
    want = _repeated_keys(keys)
    assert ds.kl.repeats == want
    assert [v for v in validate_dataset(ds) if v.code == "kl-duplicate"] == [
        Violation("kl-duplicate", f"kl record ({t},{i}) <- {s} repeated", (t, i) + s)
        for t, i, s in want]
    # the last record of a key wins
    last = {k: r for k, r in zip(keys, ds.kl.records)}
    for (t, i, s), r in last.items():
        per, sums = ds.kl.row(s)
        assert (sums[t] if i is None else per[(t, i)]) is r
