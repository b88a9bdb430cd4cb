"""Semantic edits of the bundled case, and what must hold for each.

A mutant is the bundled document with one to four edits: a KL value
changed or a KL record dropped, an orbit dimension or an irrep dimension
changed, the conormal-dense exceptions or the special piece edited, a
cover dropped, added or reversed, or the diagonal rule switched.  Most
mutants are valid datasets whose KL data no longer pins every cell, so
expansions are skipped and some m-classes may stay free (q_ names), which
neither the bundled case nor the chains reach.

For every mutant, every command of the CLI ends in-process with exit 0, 1
or 2 and no traceback.  When the mutant is valid and solves, the solved
values satisfy every tagged equation, the values forward substitution
fixes and the presolve of the rest give every column the expression the
presolve of the full rows gives it, and the machine report is
byte-identical after the KL records and the covers are shuffled; the
mutants with a free m-class, and a few others, are also checked against
sympy's rref, which fixes their q_ names to the latest column of each
class.  When it is valid and does not solve, the tags raised are
inconsistent under sympy and consistent after any one is dropped, and are
what the search over the full rows gives from the seeds of the presolve of
the full rows; the rows the conflict path builds are checked as in
tests/test_conflict_rows.py.

The draw is pinned by a fixed hypothesis seed, with the example database
off, so a run draws the same mutants whatever the string hash seed (CI
runs this file under two seeds) and whatever checks the test body makes.
"""

import copy
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from microloc.cli import main
from microloc.data import loads_dataset, validate_dataset
from microloc.euler import euler_matrix
from microloc.solver import InconsistentSystem, _presolve, build_constraints, solve
from test_conflict_rows import _full_conflict, check_seed_rows
from test_mclasses import _check_against_full_rows
from test_presolve import _check_solve_against_rref
from test_solver_conflict import _residual_failures
from test_solver_oracle import _check_minimal_conflict

COMMANDS = ("validate", "solve", "cc", "packets", "verify", "report")


def _edit(draw, doc):
    """Apply one semantic edit, drawn from draw, to doc in place."""
    orbits = [o["id"] for o in doc["orbits"]]
    kind = draw(st.sampled_from(["kl-value", "kl-drop", "orbit-dim", "irrep-dim",
                                 "exception", "special", "cover", "diagonal"]))
    if kind in ("kl-value", "kl-drop") and doc["kl"]:
        i = draw(st.integers(0, len(doc["kl"]) - 1))
        if kind == "kl-drop":
            del doc["kl"][i]
        else:
            doc["kl"][i]["value"] = draw(st.integers(0, 3))
    elif kind == "orbit-dim":
        o = doc["orbits"][draw(st.integers(0, len(orbits) - 1))]
        o["dim"] += draw(st.sampled_from([-1, 1]))
    elif kind == "irrep-dim":
        irreps = doc["orbits"][draw(st.integers(0, len(orbits) - 1))]["group"]["irreps"]
        irreps[draw(st.integers(0, len(irreps) - 1))][1] = draw(st.integers(1, 3))
    elif kind == "exception":
        doc["conormal_dense_exceptions"] = draw(
            st.lists(st.sampled_from(orbits), max_size=2, unique=True))
    elif kind == "special":
        special = doc["special_piece"]
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add" or not special:
            special.append(draw(st.sampled_from([x for x in orbits if x not in special])))
        elif action == "drop":
            del special[draw(st.integers(0, len(special) - 1))]
        else:
            special[draw(st.integers(0, len(special) - 1))] = draw(st.sampled_from(orbits))
    elif kind == "cover":
        covers = doc["covers"]
        action = draw(st.sampled_from(["drop", "add", "reverse"]))
        if action == "add":
            covers.append([draw(st.sampled_from(orbits)), draw(st.sampled_from(orbits))])
        else:
            i = draw(st.integers(0, len(covers) - 1))
            if action == "drop":
                del covers[i]
            else:
                covers[i] = covers[i][::-1]
    elif kind == "diagonal":
        doc["diagonal_rule"] = not doc.get("diagonal_rule", True)


@st.composite
def mutants(draw, base):
    """(mutant, shuffled): the mutant, and a copy with its kl and covers permuted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 4))):
        _edit(draw, doc)
    shuffled = copy.deepcopy(doc)
    for key in ("kl", "covers"):
        shuffled[key] = [shuffled[key][i]
                         for i in draw(st.permutations(range(len(shuffled[key]))))]
    return doc, shuffled


# the solved mutants a run checks against sympy's rref: each one with a
# free m-class, and every RREF_EVERY-th of the others
RREF_EVERY = 10
_solved = itertools.count()


@seed(2301)
@settings(max_examples=80, deadline=2000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_mutant(bundled_doc, tmp_path, capsys, data):
    doc, shuffled = data.draw(mutants(bundled_doc), label="mutant")
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        assert main([command, "--dataset", str(path)]) in (0, 1, 2), command
        assert "Traceback" not in capsys.readouterr().err, command

    ds = loads_dataset(doc)
    if validate_dataset(ds):
        return
    cs = build_constraints(ds, euler_matrix(ds))
    try:
        sr = solve(cs)
    except InconsistentSystem as e:
        _check_minimal_conflict(cs)
        # the rows the conflict path builds are the full rows at their ids,
        # and the failed checks and the presolve of the rest reach the
        # conflict that the presolve of the full rows reaches
        check_seed_rows(cs, e.tags)
        assert _full_conflict(cs.rows, _presolve(cs.rows)[1]) == e.tags
        return
    assert _residual_failures(cs, sr) == []
    _check_against_full_rows(cs, cs.rows)

    reports = []
    for d in (doc, shuffled):
        path.write_text(json.dumps(d))
        code = main(["report", "--format", "machine", "--dataset", str(path)])
        reports.append((code, capsys.readouterr().out))
    assert reports[0] == reports[1]

    if any(p.startswith("q_") for p in sr.free_parameters) or \
            next(_solved) % RREF_EVERY == 0:
        _check_solve_against_rref(cs)
