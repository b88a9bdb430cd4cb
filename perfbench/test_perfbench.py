"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They check the inputs (generated chains validate, corrupted inputs are
inconsistent), the independent reference (its constraint system matches the
library's, its checks accept the library's outputs) and the error count (a
deliberately wrong output is counted as failed).
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from microloc import build_constraints, euler_matrix, loads_dataset, validate_dataset  # noqa: E402
from microloc.cli import main as cli_main  # noqa: E402
from microloc.solver import _tag_text  # noqa: E402

from inputs import chain_doc, corrupt_kl, write_doc  # noqa: E402
from reference import affine_in_c, consistent, reference_system  # noqa: E402
from run import checkers, tally  # noqa: E402
from workloads import CHAIN_SIZES, CONFLICT_CHAIN_SIZES, bundled_doc, plan  # noqa: E402

SEEDS = range(4)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", sorted(set(CHAIN_SIZES) | set(CONFLICT_CHAIN_SIZES) | {7}))
def test_generated_chain_validates_clean(n, seed):
    assert validate_dataset(loads_dataset(chain_doc(n, seed))) == []


@pytest.mark.parametrize("n", [6, 7, 12])
def test_generated_chain_passes_verify(tmp_path, n):
    path = write_doc(chain_doc(n, 0), str(tmp_path), "chain.json")
    rc, out, _ = run_cli(["verify", "--dataset", path, "--format", "machine"])
    assert rc == 0
    assert all(c["ok"] for c in json.loads(out)["checks"])


def test_seed_only_reorders_records():
    a, b = chain_doc(12, 1), chain_doc(12, 2)
    assert a != b
    for key in ("kl", "covers", "catalog"):
        assert sorted(map(json.dumps, a[key])) == sorted(map(json.dumps, b[key]))


@pytest.mark.parametrize("doc", [bundled_doc(ROOT), chain_doc(6, 0), chain_doc(12, 3)],
                         ids=["f4a3", "chain6", "chain12"])
def test_reference_system_matches_library(doc):
    ds = loads_dataset(doc)
    cs = build_constraints(ds, euler_matrix(ds))
    lib = {_tag_text(e.tag): ({k: v for k, v in e.coeffs}, e.rhs) for e in cs.equations}
    assert reference_system(doc) == lib


def test_conflict_inputs_are_inconsistent_and_clean_ones_are_not():
    for op in plan("conflict", 0, ROOT):
        assert not consistent(list(reference_system(op["doc"]).values())), op["name"]
    assert consistent(list(reference_system(chain_doc(12, 0)).values()))
    assert consistent(list(reference_system(bundled_doc(ROOT)).values()))


def test_corrupt_kl_requires_one_record():
    with pytest.raises(ValueError):
        corrupt_kl(chain_doc(6, 0), ["A5", "(1)"], ["A0", "(1)"], 2)


@pytest.mark.parametrize("text,pair", [
    (4, (4, 0)), ("c-2", (-2, 1)), ("-3c", (0, -3)), ("(c+1)", (1, 1)), ("c", (0, 1)),
    ("-c", (0, -1)), ("0", (0, 0)), ("p_S6_S8", None), ("", None)])
def test_affine_in_c(text, pair):
    assert affine_in_c(text) == pair


def _outputs(workload, tmp_path):
    """One real output per operation of the workload's cycle, as the worker records them."""
    ops = plan(workload, 0, ROOT)
    outputs = []
    for k, op in enumerate(ops):
        argv = list(op["args"])
        if op["doc"] is not None:
            argv += ["--dataset", write_doc(op["doc"], str(tmp_path), f"{k}.json")]
        rc, out, err = run_cli(argv)
        outputs.append({"op": k, "rc": rc, "stdout": out, "stderr": err, "count": 3})
    return ops, outputs


@pytest.mark.parametrize("workload", ["f4a3", "chain", "conflict"])
def test_correct_outputs_pass(workload, tmp_path):
    ops, outputs = _outputs(workload, tmp_path)
    attempted, failed, complaints = tally(outputs, checkers(ROOT, ops), ops)
    assert (attempted, failed, complaints) == (3 * len(ops), 0, [])


def _edit_json(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, sort_keys=True, indent=2)


WRONG = {
    # one golden cycle entry off by one
    "f4a3": lambda o: o.replace("(c-2)[S4]", "(c-1)[S4]").replace('"value": "c-2"', '"value": "c-1"'),
    # one index entry off the closed form
    "chain": lambda o: _edit_json(o, lambda d: d["solve"]["cmatrix"][0].update(value=7)),
    # a tag that is not in the system
    "conflict": lambda o: o.replace("minimal conflicting subset: ", "minimal conflicting subset: bogus(), "),
}


@pytest.mark.parametrize("workload", ["f4a3", "chain", "conflict"])
def test_wrong_output_is_counted_as_error(workload, tmp_path):
    ops, outputs = _outputs(workload, tmp_path)
    key = "stderr" if workload == "conflict" else "stdout"
    bad = dict(outputs[0], **{key: WRONG[workload](outputs[0][key])})
    assert bad[key] != outputs[0][key]
    attempted, failed, complaints = tally([bad] + outputs[1:], checkers(ROOT, ops), ops)
    assert attempted == 3 * len(ops)
    assert failed == 3 and len(complaints) == 1


@pytest.mark.parametrize("workload", ["f4a3", "chain", "conflict"])
def test_wrong_exit_code_is_counted_as_error(workload, tmp_path):
    ops, outputs = _outputs(workload, tmp_path)
    bad = [dict(o, rc=2) for o in outputs]
    attempted, failed, _ = tally(bad, checkers(ROOT, ops), ops)
    assert failed == attempted == 3 * len(ops)


def test_metric_names_match_benchmark_json(tmp_path):
    from run import E2E_UNITS, layer_unit
    from spans import Tracer, layer_metrics

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call(0, lambda: run_cli(["report"]))
    finally:
        tracer.uninstall()
    names = set(layer_metrics(tracer.spans, [1.0], [1])) | {"trace_overhead_ms"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: layer_unit(n) for n in names}


def test_f4_report_span_counts():
    from spans import Tracer, child_breakdown, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        tracer.call(0, lambda: run_cli(["report"]))
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer.spans, [1.0], [1])
    assert m["euler.euler_matrix.calls"] == 2
    assert m["packets.micro_packet.calls"] == 34
    assert (m["solver.equations"], m["solver.unknowns"], m["solver.free_parameters"]) == (429, 311, 41)
    assert child_breakdown(tracer.spans, [1.0])[0][0] == "solver.solve"
    # wrappers are gone again
    import microloc.cli
    assert not hasattr(microloc.cli.euler_matrix, "__wrapped__")
