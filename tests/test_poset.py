"""Closure order on the orbit poset, checked against brute-force reachability."""

import random

import pytest

from microloc.poset import OrbitPoset, closure_leq, validate_poset


def brute_reachable(ids, covers, a, b):
    """Reflexive-transitive reachability by plain graph search."""
    if a == b:
        return True
    frontier = [a]
    seen = {a}
    while frontier:
        x = frontier.pop()
        for u, v in covers:
            if u == x and v not in seen:
                if v == b:
                    return True
                seen.add(v)
                frontier.append(v)
    return False


def random_dag(rng, n, messy=False):
    """Covers of a random DAG on n ids; with messy, also back edges (so
    cycles), self-covers and repeated covers, in shuffled order."""
    ids = [f"o{i}" for i in range(n)]
    dims = {x: i for i, x in enumerate(ids)}
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                covers.append((ids[i], ids[j]))
    if messy:
        i, j = sorted(rng.sample(range(n), 2))
        covers += [(ids[i], ids[j]), (ids[j], ids[i])]
        for _ in range(rng.randint(0, 2)):
            i, j = sorted(rng.sample(range(n), 2))
            covers.append((ids[j], ids[i]))
        covers.append((x := rng.choice(ids), x))
        covers += rng.sample(covers, min(2, len(covers)))
        rng.shuffle(covers)
    return ids, dims, covers


def _seeds(seeds):
    """(seed, messy) cases: each seed plain, id "<seed>", and messy, id "messy-<seed>"."""
    return [pytest.param(s, False, id=str(s)) for s in seeds] + \
        [pytest.param(s, True, id=f"messy-{s}") for s in seeds]


@pytest.mark.parametrize("seed, messy", _seeds(range(8)))
def test_leq_matches_reachability_oracle(seed, messy):
    rng = random.Random(seed)
    ids, dims, covers = random_dag(rng, rng.randint(3, 9), messy)
    p = OrbitPoset(ids, dims, covers)
    for a in ids:
        for b in ids:
            assert p.leq(a, b) == brute_reachable(ids, covers, a, b), (a, b, covers)


@pytest.mark.parametrize("seed, messy", _seeds(range(8, 12)))
def test_up_down_interval_against_oracle(seed, messy):
    rng = random.Random(seed)
    ids, dims, covers = random_dag(rng, rng.randint(3, 9), messy)
    p = OrbitPoset(ids, dims, covers)
    for a in ids:
        up = {b for b in ids if brute_reachable(ids, covers, a, b)}
        down = {b for b in ids if brute_reachable(ids, covers, b, a)}
        assert p.up_set(a) == up
        assert p.down_set(a) == down
        for b in ids:
            want = [x for x in ids
                    if brute_reachable(ids, covers, a, x)
                    and brute_reachable(ids, covers, x, b)]
            assert p.interval(a, b) == want


@pytest.mark.parametrize("seed", range(12, 20))
def test_cycles_reported_against_oracle(seed):
    """validate_poset names a cover as cyclic exactly when its two distinct
    ends reach each other; self-covers and repeats are not cycles."""
    rng = random.Random(seed)
    ids, dims, covers = random_dag(rng, rng.randint(3, 9), messy=True)
    got = [v.subject for v in validate_poset(OrbitPoset(ids, dims, covers))
           if v.code == "cover-cycle"]
    want = [(a, b) for a, b in covers if a != b
            and brute_reachable(ids, covers, a, b) and brute_reachable(ids, covers, b, a)]
    assert got == want
    assert want


def test_bundled_poset_shape(dataset):
    p = dataset.poset
    assert p.bottom() == "S0"
    assert p.top() == "S11"
    assert validate_poset(p) == []
    # the two middle chains: S3 and S4 cover S2 and are incomparable
    assert p.leq("S2", "S3") and p.leq("S2", "S4")
    assert not p.leq("S3", "S4") and not p.leq("S4", "S3")
    assert not p.leq("S6", "S9")
    assert closure_leq(p, "S5", "S9")


def test_unknown_ids_raise(dataset):
    with pytest.raises(KeyError):
        dataset.poset.leq("S0", "S99")
    with pytest.raises(KeyError):
        dataset.poset.up_set("nope")


def _checked_leq(p, a, b):
    """leq with both ids checked first, on every call."""
    p.check_ids(a, b)
    return b in p._up[a]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def test_leq_errors_match_checked_path():
    # "x" is listed but has no dim, "y" has a dim but is not listed
    p = OrbitPoset(["a", "b", "x"], {"a": 0, "b": 1, "y": 2}, [("a", "b")])
    probes = ["a", "b", "x", "y", "z", ["a"]]
    for a in probes:
        for b in probes:
            assert _outcome(p.leq, a, b) == _outcome(_checked_leq, p, a, b), (a, b)


def test_validators_flag_bad_structure():
    p = OrbitPoset(["a", "b"], {"a": 2, "b": 1}, [("a", "b")])
    codes = {v.code for v in validate_poset(p)}
    assert "cover-dim" in codes

    q = OrbitPoset(["a", "b", "c"], {"a": 0, "b": 1, "c": 2},
                   [("a", "b"), ("b", "a")])
    codes = {v.code for v in validate_poset(q)}
    assert "cover-cycle" in codes

    r = OrbitPoset(["a", "b"], {"a": 0, "b": 1}, [], ambient_dim=5)
    codes = {v.code for v in validate_poset(r)}
    assert "no-unique-top" in codes and "no-unique-bottom" in codes


def test_top_not_dense_flagged():
    p = OrbitPoset(["a", "b"], {"a": 0, "b": 1}, [("a", "b")], ambient_dim=7)
    assert any(v.code == "top-not-dense" for v in validate_poset(p))
