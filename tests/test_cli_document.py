"""Every text output is rendered from its command's machine document.

For each snapshot case, the command's text renderer applied to the parsed
machine output must give the text output byte for byte, so the text
shows no fact that the machine document lacks.  A case that fails before
building a document must print nothing in either format.
"""

import json

import pytest

from microloc.cli import COMMANDS
from test_cli_snapshots import TEXT_CASES, run_case, write_inputs


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, bundled_doc):
    return write_inputs(tmp_path_factory.mktemp("document-inputs"), bundled_doc)


def check_text_from_document(name, paths):
    source, argv = TEXT_CASES[name]
    code, text, err = run_case((source, argv), paths)
    mcode, machine, merr = run_case((source, argv + ["--format", "machine"]), paths)
    assert (code, err) == (mcode, merr)
    if not machine:
        # the command failed before it built a document (solve-conflict)
        assert code and text == ""
        return
    _, render = COMMANDS[argv[0]]
    assert "\n".join(render(json.loads(machine))) + "\n" == text


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_is_rendered_from_the_document(name, inputs):
    check_text_from_document(name, inputs)
