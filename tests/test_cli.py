"""The command line: exit codes, text rendering, and machine output."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from microloc.cli import _bound_lines, _bounds_doc, main
from microloc.solver import Bound, MultiParameterMultiplicity
from chains import chain_doc, zero_exception_doc
from test_cli_snapshots import broken_doc, corrupt_doc


@pytest.fixture
def broken_dataset_path(bundled_doc, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(broken_doc(bundled_doc)))
    return str(p)


@pytest.fixture
def mismatched_basic_path(tmp_path):
    """A valid chain whose az map pairs the top sign representation with R0.

    The dual basic packet then disagrees with the micro-packet at A0, so
    the basic packet raises ComputationError.
    """
    doc = chain_doc(4)
    az = {"R0": "Rsign", "Rsign": "R0", "R3": "R3"}
    for rep in doc["catalog"]:
        rep["az"] = az.get(rep["id"], rep["az"])
    p = tmp_path / "mismatched.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_validate_ok(capsys):
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == "dataset F4(a3): ok\n"


def test_validate_reports_violations(capsys, broken_dataset_path):
    assert main(["validate", "--dataset", broken_dataset_path]) == 1
    out = capsys.readouterr().out
    assert "[cover-dim]" in out and "(S11,S10)" in out


def test_missing_dataset_file_is_a_usage_error(capsys):
    assert main(["validate", "--dataset", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_other_commands_refuse_invalid_data(capsys, broken_dataset_path):
    assert main(["solve", "--dataset", broken_dataset_path]) == 1
    err = capsys.readouterr().err
    assert "[cover-dim]" in err and "36 violations" in err


def test_solve_text_output(capsys):
    assert main(["solve"]) == 0
    out = capsys.readouterr().out
    assert "equations: 429 (expansion rows skipped for unknown cells: 75)" in out
    assert "c >= 2   [tight at CC(IC(S8,(1))) over S4]" in out


def test_cc_text_output(capsys):
    assert main(["cc"]) == 0
    out = capsys.readouterr().out
    assert "CC(IC(S8,(1))) = [S8] + [S7] + 2[S6] + 2[S5] + (c-2)[S4] + [S3]" in out
    assert "CC(IC(S4,(1))) = [S4]" in out


def test_cc_with_substitution(capsys):
    assert main(["cc", "--set", "c=2"]) == 0
    out = capsys.readouterr().out
    assert "CC(IC(S8,(1))) = [S8] + [S7] + 2[S6] + 2[S5] + [S3]" in out
    assert "CC(IC(S9,(1^2))) = [S9] + [S7] + 2[S4] + [S2]" in out


def test_inadmissible_substitution_rejected(capsys):
    assert main(["cc", "--set", "c=1"]) == 2
    assert "c = 1 violates c >= 2" in capsys.readouterr().err


def test_unknown_parameter_rejected(capsys):
    assert main(["cc", "--set", "zz=3"]) == 2
    assert "unknown parameter 'zz'" in capsys.readouterr().err


def test_malformed_set_argument_rejected(capsys):
    assert main(["cc", "--set", "c=two"]) == 2
    assert "error:" in capsys.readouterr().err
    # only ASCII [+-]?[0-9]+ is a value: int() alone would read 2_0 as 20,
    # an Arabic-Indic digit as 3, and " 3" as 3
    for value in ("2_0", "\u0663", " 3", "3 ", "3.0", "+", ""):
        assert main(["cc", "--set", f"c={value}"]) == 2, value
        assert capsys.readouterr().err == f"error: --set c: value {value!r} is not an integer\n"
    # the syntax is checked for every command, also those that solve nothing
    for command in ("validate", "solve", "cc", "packets", "verify", "report"):
        assert main([command, "--set", "c="]) == 2, command
        assert main([command, "--set", "c"]) == 2, command
        assert capsys.readouterr().err == ("error: --set c: value '' is not an integer\n"
                                           "error: --set expects name=value, got 'c'\n")
    assert main(["cc", "--set", "c=+2"]) == main(["cc", "--set", "c=2"]) == 0
    # a value past the interpreter's limit on int-string digits, where it sets one
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        capsys.readouterr()
        assert main(["cc", "--set", f"c=-{'1' * (limit + 1)}"]) == 2
        assert capsys.readouterr().err == \
            f"error: --set c: value of {limit + 1} digits is too long to read\n"


def test_conflicting_repeated_set_rejected(capsys):
    assert main(["cc", "--set", "c=2", "--set", "c=3"]) == 2
    assert capsys.readouterr().err == "error: --set c: given both 2 and 3\n"
    # the same value twice is no conflict
    assert main(["cc", "--set", "c=2", "--set", "c=2"]) == 0
    assert "CC(IC(S9,(1^2))) = [S9] + [S7] + 2[S4] + [S2]" in capsys.readouterr().out


def test_packets_text_output(capsys):
    assert main(["packets"]) == 0
    out = capsys.readouterr().out
    assert "micro S4: X5 X7 X9 X11 X16   indeterminate: X8" in out
    assert "basic" in out and "weak" in out


def test_verify_battery(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    for name in ["dataset-valid", "fourier-symmetry", "multiplicities-admissible",
                 "weak-equals-union", "az-compatibility", "basic-packet",
                 "localization", "euler-roundtrip", "b-function"]:
        assert name in out, name
    assert "240 identities" in out
    assert "165 cells agree" in out
    assert out.count(" ok ") == 9


def test_verify_fails_on_broken_dataset(capsys, broken_dataset_path):
    assert main(["verify", "--dataset", broken_dataset_path]) == 1


def test_machine_output_is_stable_json(capsys):
    assert main(["report", "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--format", "machine"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["dataset"] == "F4(a3)"


def test_machine_solve_document(capsys):
    assert main(["solve", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equations"] == 429
    (b,) = doc["bounds"]
    assert (b["parameter"], b["lower"], b["upper"]) == ("c", 2, None)
    assert b["tight_lower_witnesses"] == [[["S8", "(1)"], "S4"]]


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["verify", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "b-function" in target.read_text()


def test_machine_out_file_holds_the_printed_bytes(tmp_path, capsys):
    assert main(["report", "--format", "machine"]) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "report.json"
    assert main(["report", "--format", "machine", "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == printed.encode("utf-8")


def test_out_to_an_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    assert main(["verify", "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_negative_multiplicities_named_by_verify(bundled_doc, tmp_path, capsys):
    # KL value 3 for S7 <- (S8,(1)) still solves, with three negative cells
    doc = copy.deepcopy(bundled_doc)
    (rec,) = [r for r in doc["kl"] if r["target"] == ["S7", None]
              and r["source"] == ["S8", "(1)"]]
    rec["value"] = 3
    p = tmp_path / "negative.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", "--dataset", str(p), "--format", "machine"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["multiplicities-admissible"] == {
        "name": "multiplicities-admissible", "ok": False,
        "detail": "negative at [(('S8', '(1)'), 'S5'), (('S8', '(1)'), 'S6'), "
                  "(('S8', '(1)'), 'S7')]"}


def test_failed_weak_equals_union_names_the_indeterminate_members(bundled_doc, tmp_path,
                                                                  capsys):
    # without the diagonal rule and the KL record S9 <- (S11,(1^4)), X5
    # depends on a parameter: the two lists agree and the check still fails
    doc = copy.deepcopy(bundled_doc)
    doc["diagonal_rule"] = False
    doc["kl"] = [r for r in doc["kl"]
                 if (r["target"], r["source"]) != (["S9", None], ["S11", "(1^4)"])]
    p = tmp_path / "indeterminate.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", "--dataset", str(p), "--format", "machine"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    members = "['X5', 'X7', 'X8', 'X9', 'X11', 'X13', 'X15', 'X17', 'X18', 'X19', 'X20']"
    assert checks["weak-equals-union"] == {
        "name": "weak-equals-union", "ok": False,
        "detail": f"weak {members} vs union {members}, indeterminate ['X5']"}


def test_report_text_sections(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "-- index matrix --" in out
    assert "c(S4,S9) = c+1" in out
    assert "0 = m((S4,(1))) - 1 + 2 - 1" in out
    assert "X16" in out


@pytest.mark.parametrize("command", ["packets", "report"])
def test_packet_failure_is_a_one_line_error(capsys, mismatched_basic_path, command):
    assert main(["validate", "--dataset", mismatched_basic_path]) == 0
    capsys.readouterr()
    assert main([command, "--dataset", mismatched_basic_path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dual basic packet ['R0', 'R3'] does not match " \
                  "the micro-packet ['R0', 'Rsign'] at A0\n"


def test_unpinned_localization_data_is_not_a_traceback(capsys, bundled_doc, tmp_path):
    # without P(S9,(1) <- S10,(1)) the localization pairing cannot be evaluated
    doc = copy.deepcopy(bundled_doc)
    doc["kl"] = [r for r in doc["kl"]
                 if (r["target"], r["source"]) != (["S9", "(1)"], ["S10", "(1)"])]
    p = tmp_path / "unpinned.json"
    p.write_text(json.dumps(doc))
    why = "insufficient KL data for the localization check: " \
          "[(('S9', '(1)'), ('S10', '(1)'))]"
    assert main(["verify", "--dataset", str(p)]) == 1
    assert f"localization               FAIL  {why}\n" in capsys.readouterr().out
    assert main(["report", "--dataset", str(p)]) == 1
    assert capsys.readouterr() == ("", f"error: {why}\n")


def test_unbounded_packets_fail_verify_without_a_traceback(capsys, bundled_doc, tmp_path):
    # without these two orbit-sum records no bound on c is derived, so no
    # micro-packet member can be classified
    doc = copy.deepcopy(bundled_doc)
    doc["kl"] = [r for r in doc["kl"]
                 if (r["target"], r["source"]) not in ((["S8", None], ["S11", "(4)"]),
                                                       (["S8", None], ["S11", "(22)"]))]
    assert len(doc["kl"]) == len(bundled_doc["kl"]) - 2
    p = tmp_path / "unbounded.json"
    p.write_text(json.dumps(doc))
    why = "no usable bounds; cannot classify membership"
    assert main(["validate", "--dataset", str(p)]) == 0
    capsys.readouterr()
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "microloc", "verify", "--dataset", str(p)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"az-compatibility           FAIL  {why}\n" in proc.stdout
    for command in ("report", "packets"):
        assert main([command, "--dataset", str(p)]) == 1
        assert capsys.readouterr() == ("", f"error: {why}\n")


def test_an_exception_pinned_at_zero_passes_verify_and_report(capsys, tmp_path):
    # the localization cycle holds no entry for an exception pinned at 0
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(zero_exception_doc()))
    for command in ("verify", "report"):
        assert main([command, "--dataset", str(p)]) == 0, command
        out, err = capsys.readouterr()
        assert "localization               ok  pinned A1: 0\n" in out
        assert err == ""


def test_output_does_not_follow_the_hash_seed(bundled_doc, tmp_path):
    # the conflict of the benchmark's f4a3-corrupt input
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(corrupt_doc(bundled_doc)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    for args in (["report"], ["packets"], ["solve", "--dataset", str(corrupt)]):
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "microloc", *args], env=env,
                                  capture_output=True, timeout=120)
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert runs[0] == runs[1], args
        assert runs[0][0] == (1 if args[0] == "solve" else 0), runs[0]


def test_importing_the_cli_loads_no_heavy_module():
    # each of these costs milliseconds at start-up, and a command needs none
    heavy = ("dataclasses", "inspect", "typing", "importlib.resources", "pathlib")
    home = str(Path(sys.modules["microloc"].__file__).resolve().parents[1])
    code = f"import sys, microloc.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=home),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_bound_lines_of_an_upper_bound_and_a_note():
    # the bundled case has one lower bound and no note; the text form also
    # writes an upper bound, the witness of a tight lower bound, an
    # infeasible pair and the note saying why bounds could not be derived
    src = ("A1", "(1)")
    bounds = [Bound("p", None, 3, [], [(src, "A0")]), Bound("q", 4, 1, [(src, "A1")], [])]
    note = str(MultiParameterMultiplicity([(src, "A0", ["p", "q"])]))
    doc = {"bounds": _bounds_doc(SimpleNamespace(bounds=bounds)), "bound_note": note}
    assert _bound_lines(doc) == [
        "  p <= 3",
        "  q >= 4 and q <= 1 (infeasible)   [tight at CC(IC(A1,(1))) over A1]",
        "  note: multi-parameter multiplicity at [(('A1', '(1)'), 'A0', ['p', 'q'])]",
    ]
    assert _bound_lines({"bounds": [], "bound_note": ""}) == ["  none"]
