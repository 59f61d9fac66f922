"""Golden values of the ten figure presets.

``figure_golden.json`` pins each preset's header, its row count and ten
sampled rows (the first, the last and eight evenly spaced rows between
them) as the CSV tokens ``ndpa figure`` wrote for them.  Regenerate it,
after a deliberate change of the presets, with

    PYTHONPATH=src python3 tests/test_figure_golden.py > tests/figure_golden.json
"""

import csv
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest

from ndpa.cli import FIGURE_NAMES, run_figure

GOLDEN = os.path.join(os.path.dirname(__file__), "figure_golden.json")
SAMPLES = 10
REL = 1e-12


def _preset_csv(name, directory):
    path = os.path.join(directory, f"{name}.csv")
    run_figure(name, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sample(name, directory):
    header, rows = _preset_csv(name, directory)
    picks = np.linspace(0, len(rows) - 1, SAMPLES).astype(int).tolist()
    return {"header": header, "rows": len(rows),
            "samples": {str(i): rows[i] for i in picks}}


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_preset():
    assert sorted(_golden()) == sorted(FIGURE_NAMES)


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_preset_matches_golden(name, tmp_path):
    want = _golden()[name]
    header, rows = _preset_csv(name, str(tmp_path))
    assert header == want["header"]
    assert len(rows) == want["rows"]
    for index, want_row in want["samples"].items():
        got_row = rows[int(index)]
        assert got_row[0] == want_row[0], (name, index, "gt")
        for col, (got, ref) in enumerate(zip(got_row[1:], want_row[1:]), start=1):
            if not math.isfinite(float(ref)):
                assert got == ref, (name, index, header[col])
            else:
                assert float(got) == pytest.approx(float(ref), rel=REL, abs=0.0), \
                    (name, index, header[col])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: _sample(name, tmp) for name in FIGURE_NAMES}
    json.dump(table, sys.stdout, indent=1)
    sys.stdout.write("\n")
