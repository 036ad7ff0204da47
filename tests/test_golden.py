"""Golden `paracr analyze --format json` reports, compared byte for byte.

Each file under ``tests/golden/`` is the report of one surface at the default
weight cap and flow seed.  A refactor must leave every one of them unchanged.
Regenerate them only for an intended change of the report:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from paracr.poly import format_fraction
from paracr.report import analyze, report_to_dict
from conftest import rational_gamma_surfaces, suite_surfaces

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_surfaces():
    return suite_surfaces() + rational_gamma_surfaces()


def golden_name(s):
    coeffs = (format_fraction(g).replace("/", "o").replace("-", "m") for g in s.gamma)
    return f"k{s.k}_" + "_".join(coeffs) + ".json"


def report_json(s):
    # the bytes `paracr analyze --format json` prints
    return json.dumps(report_to_dict(analyze(s.k, s.gamma)), sort_keys=True, indent=2) + "\n"


def test_golden_names_are_distinct():
    names = [golden_name(s) for s in golden_surfaces()]
    assert len(set(names)) == len(names) == 19


@pytest.mark.parametrize("s", golden_surfaces(), ids=golden_name)
def test_report_matches_golden(s):
    expected = (GOLDEN_DIR / golden_name(s)).read_text(encoding="utf-8")
    assert report_json(s) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for s in golden_surfaces():
        (GOLDEN_DIR / golden_name(s)).write_text(report_json(s), encoding="utf-8")
