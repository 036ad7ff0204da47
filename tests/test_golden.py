"""Golden `paracr analyze --format json` reports and RK4 endpoints, compared exactly.

Each report file under ``tests/golden/`` is the report of one surface at the
default weight cap and flow seed: the acceptance suite, two surfaces with
non-integral gamma and the benchmark's k ladder (k up to 20).
``rk4_endpoints.json`` holds, as ``float.hex``, the RK4 oracle's endpoints for
every closed form of acceptance criterion 7's three representatives at the
first three admitted sample points, plus ``repr`` of each flow's
``rk4_mismatch``.  A refactor must leave every
one of them unchanged.  Regenerate them only for an intended change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from paracr.flows import (
    EXP_V0,
    EXP_V0PRIME,
    EXP_VK,
    EXP_VM1,
    EXP_VMK,
    flow,
    flow_time,
    rk4_mismatch,
    rk4_oracle,
    sample_on_surface,
)
from paracr.poly import format_fraction
from paracr.report import analyze, report_to_dict
from paracr.surface import ModelSurface
from conftest import (
    binomial_gamma,
    k_ladder_surfaces,
    monomial_gamma,
    rational_gamma_surfaces,
    suite_surfaces,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
RK4_GOLDEN = GOLDEN_DIR / "rk4_endpoints.json"
RK4_STEPS = 1000
RK4_POINTS = 3


def golden_name(s):
    coeffs = (format_fraction(g).replace("/", "o").replace("-", "m") for g in s.gamma)
    return f"k{s.k}_" + "_".join(coeffs) + ".json"


def golden_surfaces():
    surfaces = suite_surfaces() + rational_gamma_surfaces()
    names = {golden_name(s) for s in surfaces}
    # the ladder's monomial k = 6 is also a suite surface
    return surfaces + [s for s in k_ladder_surfaces() if golden_name(s) not in names]


def report_json(s):
    # the bytes `paracr analyze --format json` prints
    return json.dumps(report_to_dict(analyze(s.k, s.gamma)), sort_keys=True, indent=2) + "\n"


def test_golden_names_are_distinct():
    names = [golden_name(s) for s in golden_surfaces()]
    assert len(set(names)) == len(names) == 26


def test_k_ladder_is_covered():
    names = {golden_name(s) for s in golden_surfaces()}
    ladder = [golden_name(s) for s in k_ladder_surfaces()]
    assert len(set(ladder)) == 8
    assert set(ladder) <= names


@pytest.mark.parametrize("s", golden_surfaces(), ids=golden_name)
def test_report_matches_golden(s):
    expected = (GOLDEN_DIR / golden_name(s)).read_text(encoding="utf-8")
    assert report_json(s) == expected


def rk4_flows():
    """Criterion 7's representatives with every closed form each one admits."""
    exp_t = Fraction(math.exp(0.1)).limit_denominator(10**12)
    tenth = Fraction(1, 10)
    cases = [
        (ModelSurface(4, monomial_gamma(4, 2)), [(EXP_V0PRIME, exp_t), (EXP_VK, tenth)]),
        (ModelSurface(3, binomial_gamma(3)), [(EXP_VM1, tenth)]),
        (ModelSurface(4, (1, 0, 1)), []),
    ]
    for s, extra in cases:
        for name, param in [(EXP_VMK, tenth), (EXP_V0, exp_t)] + extra:
            yield s, flow(name, s, param)


def rk4_record(s, fm):
    samples = sample_on_surface(s, 20)
    exists = fm.ode_domain_check or fm.domain_check
    admitted = [
        fp
        for fp in (tuple(float(v) for v in p) for p in samples)
        if fm.domain_check(fp) is None and exists(fp) is None
    ]
    endpoints = [
        [c.hex() for c in rk4_oracle(fm.generator, fp, flow_time(fm), RK4_STEPS)]
        for fp in admitted[:RK4_POINTS]
    ]
    return {
        "endpoints": endpoints,
        "mismatch": repr(rk4_mismatch(fm, samples, steps=RK4_STEPS)),
    }


def rk4_golden():
    return {golden_name(s)[: -len(".json")] + "/" + fm.name: rk4_record(s, fm) for s, fm in rk4_flows()}


def test_rk4_endpoints_match_golden():
    expected = json.loads(RK4_GOLDEN.read_text(encoding="utf-8"))
    assert len(expected) == 9
    assert all(len(rec["endpoints"]) == RK4_POINTS for rec in expected.values())
    assert rk4_golden() == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for s in golden_surfaces():
        (GOLDEN_DIR / golden_name(s)).write_text(report_json(s), encoding="utf-8")
    RK4_GOLDEN.write_text(json.dumps(rk4_golden(), sort_keys=True, indent=2) + "\n", encoding="utf-8")
