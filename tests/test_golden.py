"""Golden `paracr analyze --format json` reports, CLI outputs and RK4 endpoints,
compared exactly.

Each report file under ``tests/golden/`` is the report of one surface at the
default weight cap and flow seed: the acceptance suite, two surfaces with
non-integral gamma and the benchmark's k ladder (k up to 20).
``rk4_endpoints.json`` holds, as ``float.hex``, the RK4 oracle's endpoints for
every closed form of acceptance criterion 7's three representatives at the
first three admitted sample points, plus ``repr`` of each flow's
``rk4_mismatch``.  ``cli_outputs.json`` holds the stdout and the exit code
of ``paracr.cli.main`` for each argv in ``CLI_CASES``: every subcommand in
both formats, every case kind, locus kind and discrete group, and usage
errors.  A refactor must leave every one of them unchanged.  Regenerate them
only for an intended change:

    PYTHONPATH=src python tests/test_golden.py

Every golden report, and every `analyze --format json` output among the CLI
cases, also validates against ``ANALYSIS_REPORT_SCHEMA``, and the schema is
checked to close each object of one binomial report.
"""

import contextlib
import io
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from paracr.cli import main as cli_main
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
from paracr.report import ANALYSIS_REPORT_SCHEMA, analyze, report_to_dict
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
CLI_GOLDEN = GOLDEN_DIR / "cli_outputs.json"
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
    jsonschema.validate(json.loads(expected), ANALYSIS_REPORT_SCHEMA)


# a binomial report: it has a normalization object, and its case delta and nu
BINOMIAL_GOLDEN = GOLDEN_DIR / "k3_3_3.json"


def binomial_report():
    return json.loads(BINOMIAL_GOLDEN.read_text(encoding="utf-8"))


def report_objects(report):
    """(label, object, keys the object may leave out) for each object of a report."""
    objects = [
        ("report", report, set()),
        ("case", report["case"], {"iota", "delta", "nu"}),
        ("finite_type", report["finite_type"], {"k", "gamma", "normalized"}),
        ("singular_locus", report["singular_locus"], {"line", "line_count"}),
        ("normalization", report["normalization"], set()),
        ("normalization.change", report["normalization"]["change"], set()),
        ("normalization.model_change", report["normalization"]["model_change"], set()),
        ("algebra", report["algebra"], set()),
        (
            "algebra.profile",
            report["algebra"]["profile"],
            {"derived_killing_signature", "ad_eigenvalue_data"},
        ),
        ("discrete_group", report["discrete_group"], set()),
    ]
    for i, v in enumerate(report["flow_verification"]):
        objects.append((f"flow_verification[{i}]", v, set()))
        objects += [
            (f"flow_verification[{i}].checks[{j}]", c, {"max_residual", "detail"})
            for j, c in enumerate(v["checks"])
        ]
    return objects


CLOSED_OBJECTS = [label for label, _, _ in report_objects(binomial_report())]


def test_closed_objects_cover_the_report():
    # the root, six objects, two coordinate maps, the profile, three flows and their nine checks
    assert len(CLOSED_OBJECTS) == 22


@pytest.mark.parametrize("label", CLOSED_OBJECTS)
def test_schema_closes_every_object(label):
    report = binomial_report()
    obj, optional = next((o, opt) for l, o, opt in report_objects(report) if l == label)
    jsonschema.validate(report, ANALYSIS_REPORT_SCHEMA)
    obj["unknown_key"] = 0
    with pytest.raises(jsonschema.ValidationError, match="'unknown_key' was unexpected"):
        jsonschema.validate(report, ANALYSIS_REPORT_SCHEMA)
    del obj["unknown_key"]
    for key in list(obj):
        value = obj.pop(key)
        if key in optional:
            jsonschema.validate(report, ANALYSIS_REPORT_SCHEMA)
        else:
            with pytest.raises(jsonschema.ValidationError, match=f"'{key}' is a required property"):
                jsonschema.validate(report, ANALYSIS_REPORT_SCHEMA)
        obj[key] = value


def test_schema_admits_null_normalization_and_profile():
    report = binomial_report()
    report["normalization"] = None
    jsonschema.validate(report, ANALYSIS_REPORT_SCHEMA)
    report["algebra"]["profile"] = None
    jsonschema.validate(report, ANALYSIS_REPORT_SCHEMA)


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


# (k, gamma): monomial PENCIL Z2xZ2, binomial LINE Z2, generic POINT Z2xZ2,
# generic PENCIL Z2, boundary monomial LINE b, generic PENCIL of one line,
# rational binomial
CLI_SURFACES = [
    ("4", "0,1,0"),
    ("3", "3,3"),
    ("4", "1,0,1"),
    ("5", "1,1,0,0"),
    ("3", "0,1"),
    ("5", "1/4,-1/6,1/6,-1/4"),
    ("4", "4/3,4/3,16/27"),
]
# binomial k = 10 fails a float flow check: exit 3
FAILING_FLOWS = ("10", "10,45,120,210,252,210,120,45,10")
FORMATS = (("--format", "text"), ("--format", "json"))


def _cli_cases():
    cases = []
    for command in ("analyze", "singular-locus", "flows", "discrete"):
        surfaces = CLI_SURFACES + [FAILING_FLOWS] * (command in ("analyze", "flows"))
        for k, gamma in surfaces:
            cases += [[command, "--k", k, "--gamma", gamma, *f] for f in FORMATS]
    for k, gamma, weight in (("4", "0,1,0", "0"), ("3", "3,3", "-1"), ("4", "1,0,1", "4")):
        argv = ["solve-weight", "--k", k, "--gamma", gamma, "--weight", weight]
        cases += [argv + list(f) for f in FORMATS]
    for phi in (
        "x^2 b^2",
        "x^3 b + x b^3 + b^2 + a^2",
        "x b + b^2 + a b",
        "x^2 + x^3 b - a^2 b",
        "a^2 + b^3",
        "a x^2 + a^2 b",
        "x^4 + a^2",
    ):
        cases += [["finite-type", "--phi", phi, *f] for f in FORMATS]
    for psi, order in (("x^2", "4"), ("a", "3"), ("-x^2*b", "3")):
        cases += [["embed", "--psi", psi, "--order", order, *f] for f in FORMATS]
    cases += [
        ["analyze", "--k", "4", "--gamma", "0,1,0", "--weight-cap", "8"],
        ["flows", "--k", "4", "--gamma", "1,0,1", "--tolerance", "1e-6", "--format", "json"],
        ["analyze", "--k", "2", "--gamma", "1"],
        ["analyze", "--k", "3", "--gamma", "3,3", "--weight-cap", "37"],
        ["solve-weight", "--k", "3", "--gamma", "3,3", "--weight", "200"],
        ["singular-locus", "--k", "3", "--gamma", "0,0"],
        ["finite-type", "--phi", "y + b x"],
        ["embed", "--psi", "x^2", "--order", "0"],
    ]
    return cases


CLI_CASES = _cli_cases()


def run_cli(argv):
    """(exit code, stdout) of `paracr <argv>` with PARACR_SEED unset."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return code, out.getvalue()


def cli_record(argv):
    code, stdout = run_cli(argv)
    return {"argv": list(argv), "exit_code": code, "stdout": stdout}


@pytest.fixture(scope="module")
def cli_golden():
    records = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    return {tuple(rec["argv"]): rec for rec in records}


def test_cli_golden_covers_the_cases(cli_golden):
    assert list(cli_golden) == [tuple(argv) for argv in CLI_CASES]


@pytest.mark.parametrize("argv", CLI_CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, cli_golden, monkeypatch):
    monkeypatch.delenv("PARACR_SEED", raising=False)
    record = cli_record(argv)
    assert record == cli_golden[tuple(argv)]
    if argv[0] == "analyze" and argv[-2:] == ["--format", "json"]:
        jsonschema.validate(json.loads(record["stdout"]), ANALYSIS_REPORT_SCHEMA)


if __name__ == "__main__":
    os.environ.pop("PARACR_SEED", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for s in golden_surfaces():
        (GOLDEN_DIR / golden_name(s)).write_text(report_json(s), encoding="utf-8")
    RK4_GOLDEN.write_text(json.dumps(rk4_golden(), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    records = [cli_record(argv) for argv in CLI_CASES]
    CLI_GOLDEN.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
