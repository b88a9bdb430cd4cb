"""Whole CLI outputs, compared with snapshots in tests/snapshots/.

The snapshots were written by the package itself, so they pin regressions
only; they are not independent expected values like tests/golden.py.  A
text snapshot must match byte for byte: stdout, stderr and exit code.  A
machine snapshot is the JSON document on stdout; the current document
must hold every key and value of the snapshot, and may add only the keys
in NEW_KEYS, which carry facts that the text shows.  The machine bytes
themselves must be exactly json.dumps(doc, sort_keys=True, indent=2) and a
newline, so a change in indentation, key order or escaping shows too.

To write the snapshots of some cases, after a deliberate output change or
for a new case, run
`PYTHONPATH=src python tests/test_cli_snapshots.py --write NAME [NAME ...]`
from the repository root.  It rewrites only the named cases' files and
their entries in exits.json; the other snapshots keep the keys they were
frozen with.  An unknown name is refused with the list of valid ones.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from microloc.cli import main
from chains import chain_doc

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"
COMMANDS = ("validate", "solve", "cc", "packets", "verify", "report")

# case name -> (input, argv); input "f4" is the bundled case
TEXT_CASES = {c: ("f4", [c]) for c in COMMANDS}
TEXT_CASES.update({
    "cc-set-c2": ("f4", ["cc", "--set", "c=2"]),
    "report-set-c2": ("f4", ["report", "--set", "c=2"]),
    "report-chain6": ("chain6", ["report"]),
    "validate-broken": ("broken", ["validate"]),
    "verify-broken": ("broken", ["verify"]),
    "solve-conflict": ("f4-corrupt", ["solve"]),
})
MACHINE_CASES = {f"{c}-machine": ("f4", [c, "--format", "machine"]) for c in COMMANDS}
MACHINE_CASES["report-chain6-machine"] = ("chain6", ["report", "--format", "machine"])
MACHINE_CASES["solve-set-c3-machine"] = ("f4", ["solve", "--set", "c=3", "--format", "machine"])

_SOLVE_KEYS = {("orbit_count",), ("local_system_count",), ("bound_note",)}
# command -> key paths a machine document may hold beyond its snapshot
NEW_KEYS = {
    "validate": set(),
    "solve": _SOLVE_KEYS,
    "cc": set(),
    "packets": {("assumption_notes",)},
    "verify": set(),
    "report": {("orbits",), ("localization",)} | {("solve",) + k for k in _SOLVE_KEYS},
}


def broken_doc(bundled):
    """The bundled document with the cover S10 < S11 reversed."""
    doc = copy.deepcopy(bundled)
    i = doc["covers"].index(["S10", "S11"])
    doc["covers"][i] = ["S11", "S10"]
    return doc


def corrupt_doc(bundled):
    """The bundled document with P(S9:(1) <- S10:(1)) raised from 1 to 5: inconsistent."""
    doc = copy.deepcopy(bundled)
    (rec,) = [r for r in doc["kl"]
              if r["target"] == ["S9", "(1)"] and r["source"] == ["S10", "(1)"]]
    rec["value"] = 5
    return doc


def write_inputs(directory, bundled):
    """Dataset files for the cases' inputs, written into directory."""
    paths = {"f4": None}
    for name, doc in (("chain6", chain_doc(6)), ("broken", broken_doc(bundled)),
                      ("f4-corrupt", corrupt_doc(bundled))):
        p = Path(directory) / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_case(case, paths):
    source, argv = case
    if paths[source]:
        argv = argv + ["--dataset", paths[source]]
    return run_cli(argv)


def _exits():
    return json.loads((SNAPSHOTS / "exits.json").read_text(encoding="utf-8"))


def added_keys(old, new, path=()):
    """Key paths present in new but not in old.

    Every key of old must be in new with an equal value; dicts are compared
    key by key, anything else (lists included) must serialize to the same
    JSON, so 3 and 3.0 or 1 and true differ.
    """
    if not (isinstance(old, dict) and isinstance(new, dict)):
        assert json.dumps(old, sort_keys=True) == json.dumps(new, sort_keys=True), \
            f"value changed at {'.'.join(path) or 'top'}"
        return set()
    missing = old.keys() - new.keys()
    assert not missing, f"keys dropped at {'.'.join(path) or 'top'}: {sorted(missing)}"
    out = {path + (k,) for k in new.keys() - old.keys()}
    for k in old:
        out |= added_keys(old[k], new[k], path + (k,))
    return out


def check_text_case(name, paths):
    code, out, err = run_case(TEXT_CASES[name], paths)
    want = _exits()[name]
    assert (code, err) == (want["exit"], want["stderr"])
    assert out == (SNAPSHOTS / f"{name}.txt").read_text(encoding="utf-8")


def check_machine_case(name, paths):
    code, out, err = run_case(MACHINE_CASES[name], paths)
    want = _exits()[name]
    assert (code, err) == (want["exit"], want["stderr"])
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    old = json.loads((SNAPSHOTS / f"{name}.json").read_text(encoding="utf-8"))
    command = MACHINE_CASES[name][1][0]
    assert added_keys(old, doc) <= NEW_KEYS[command]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, bundled_doc):
    return write_inputs(tmp_path_factory.mktemp("snapshot-inputs"), bundled_doc)


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_snapshot(name, inputs):
    check_text_case(name, inputs)


@pytest.mark.parametrize("name", sorted(MACHINE_CASES))
def test_machine_snapshot(name, inputs):
    check_machine_case(name, inputs)


def test_added_keys_rejects_changes():
    assert added_keys({"a": 1, "b": {"c": [1]}}, {"a": 1, "b": {"c": [1], "d": 2}}) == {("b", "d")}
    with pytest.raises(AssertionError):
        added_keys({"a": [1, 2]}, {"a": [1]})
    with pytest.raises(AssertionError):
        added_keys({"a": [3]}, {"a": [3.0]})
    with pytest.raises(AssertionError):
        added_keys({"a": 1, "b": 2}, {"a": 1})


def test_write_touches_only_the_named_cases(tmp_path):
    (tmp_path / "exits.json").write_text((SNAPSHOTS / "exits.json").read_text(encoding="utf-8"))
    _write(["validate", "cc-machine"], tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["cc-machine.json", "exits.json", "validate.txt"]
    for name in ("validate.txt", "cc-machine.json", "exits.json"):
        assert (tmp_path / name).read_text() == (SNAPSHOTS / name).read_text(), name
    (tmp_path / "validate.txt").unlink()
    with pytest.raises(SystemExit, match="unknown case nosuch; valid cases: cc, cc-machine"):
        _write(["validate", "nosuch"], tmp_path)
    assert not (tmp_path / "validate.txt").exists()


def bundled_doc_from_package():
    import microloc.data
    path = Path(microloc.data.__file__).parent / "data" / "f4a3.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _write(names, directory=SNAPSHOTS):
    """Write the named cases' snapshots into directory and merge their exits.json entries."""
    cases = {**TEXT_CASES, **MACHINE_CASES}
    unknown = [n for n in names if n not in cases]
    if unknown:
        raise SystemExit(f"unknown case {', '.join(unknown)}; valid cases: "
                         f"{', '.join(sorted(cases))}")
    exits_path = directory / "exits.json"
    exits = json.loads(exits_path.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(tmp, bundled_doc_from_package())
        for name in names:
            code, out, err = run_case(cases[name], paths)
            exits[name] = {"exit": code, "stderr": err}
            suffix = "txt" if name in TEXT_CASES else "json"
            (directory / f"{name}.{suffix}").write_text(out, encoding="utf-8")
    exits_path.write_text(json.dumps(exits, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or not sys.argv[2:]:
        raise SystemExit(__doc__)
    _write(sys.argv[2:])
