"""The CLI creates no reference cycles, and main restores the collector's state.

cli.main pauses the cyclic garbage collector for the length of a command.
That is safe only while a command leaves no cyclic garbage: anything a
cycle holds would stay in memory until the pause ends.  Each case below
runs one command once to warm caches and lazy imports, then again with
gc.DEBUG_SAVEALL set, so that every object a collection would free is kept
in gc.garbage instead; the list must stay empty.
"""

import gc
import json

import pytest

from microloc import cli
from chains import chain_doc
from test_cli_snapshots import run_cli, write_inputs

COMMANDS = ("validate", "solve", "cc", "packets", "verify", "report")
FORMATS = ("text", "machine")
INPUTS = ("f4", "chain30", "broken", "f4-corrupt")


@pytest.fixture(scope="module")
def paths(tmp_path_factory, bundled_doc):
    d = tmp_path_factory.mktemp("gc-inputs")
    out = write_inputs(d, bundled_doc)
    for name, text in (("chain30", json.dumps(chain_doc(30))), ("bad-json", "{not json")):
        (d / f"{name}.json").write_text(text)
        out[name] = str(d / f"{name}.json")
    out["missing"] = str(d / "missing.json")
    return out


def _invoke(argv):
    try:
        return run_cli(argv)[0]
    except SystemExit as e:
        return e.code


def cyclic_garbage(argv):
    """(exit code, objects a collection finds unreachable) of a warm run of argv."""
    _invoke(argv)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = _invoke(argv)
        gc.collect()
        found = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return code, found


# case id -> (input, argv, expected exit code); "broken" fails validation,
# "f4-corrupt" validates but its system is inconsistent
CASES = {f"{c}-{fmt}-{src}": (src, [c, "--format", fmt],
                              int(src == "broken" or src == "f4-corrupt" and c != "validate"))
         for src in INPUTS for c in COMMANDS for fmt in FORMATS}
CASES.update({
    "inadmissible-set": ("f4", ["solve", "--set", "c=1"], 2),
    "missing-file": ("missing", ["report"], 2),
    "bad-json": ("bad-json", ["report"], 2),
    "argparse-error": ("f4", ["report", "--format", "yaml"], 2),
})


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_leaves_no_cyclic_garbage(case, paths):
    src, argv, want = CASES[case]
    if paths[src]:
        argv = argv + ["--dataset", paths[src]]
    code, found = cyclic_garbage(argv)
    assert code == want
    assert found == []


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv", [["validate"], ["report", "--format", "yaml"]], ids=repr)
def test_main_restores_collector_state(enabled, argv):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        _invoke(argv)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_command_runs_with_collector_paused(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(gc.isenabled()) or 0)
    assert gc.isenabled()
    assert cli.main(["validate"]) == 0
    assert seen == [False]
    assert gc.isenabled()


def test_many_commands_get_an_older_collection():
    # each command ends with one collection, which raises the next older
    # generation's count; once generation 1's count passes its threshold,
    # the next command must collect generation 1, as the automatic
    # collector would, and not generation 0 again
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        for _ in range(gc.get_threshold()[1] + 2):
            assert _invoke(["validate"]) == 0
    finally:
        gc.callbacks.remove(record)
    assert 1 in seen
