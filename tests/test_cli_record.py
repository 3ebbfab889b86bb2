"""Every output of the command line, pinned: each file that the commands of
``cli_record.py`` write on this checkout holds the values of the committed
``cli_record.json``, labels and integers exactly and floats within 1e-12
relative (the fit report within its twelfth significant digit). A change
that moves an output on purpose regenerates the record with
``PYTHONPATH=src python tests/cli_record.py``, which prints what moved."""

import json

import pytest

from cli_record import RECORD, changes, record, tolerance

PINNED = json.loads(RECORD.read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return record(tmp_path_factory.mktemp("cli-record"))


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_matches_the_record(outputs, name):
    moved = [(row, column, change) for row, column, change in changes(PINNED[name], outputs[name])
             if not change <= tolerance(name)]
    assert not moved, f"{len(moved)} fields moved; the first at (row, column, change) {moved[0]}"
