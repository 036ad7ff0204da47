import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import paracr
from paracr.cli import (
    EXIT_CLOSURE,
    EXIT_FLOW,
    EXIT_OK,
    EXIT_USAGE,
    MAX_WEIGHT_DIGITS,
    main,
)
from paracr import cli as cli_mod
from paracr.report import ANALYSIS_REPORT_SCHEMA, analyze, report_to_dict
from paracr.surface import ModelSurface
from conftest import poly_st


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class BoundsPassed(Exception):
    """Raised in place of the computation a command starts once its input is within bounds."""


def stop_after_bounds(monkeypatch):
    """Make ``analyze`` and ``solve-weight`` raise ``BoundsPassed`` instead of computing."""

    def passed(*args, **kwargs):
        raise BoundsPassed

    monkeypatch.setattr(cli_mod.report_mod, "analyze", passed)
    monkeypatch.setattr(cli_mod, "solve_weight", passed)


class TestAnalyze:
    def test_case_i(self, capsys):
        code, out, _ = run(capsys, "analyze", "--k", "4", "--gamma", "0,1,0")
        assert code == EXIT_OK
        assert "classification: SL2_PLUS_CENTER" in out
        assert "discrete group: Z2xZ2" in out

    def test_case_ii(self, capsys):
        code, out, _ = run(capsys, "analyze", "--k", "3", "--gamma", "3,3")
        assert code == EXIT_OK
        assert "classification: SOLVABLE_3D_WEIGHTS_K_1" in out
        assert "BINOMIAL (delta=1, nu=1)" in out
        assert "normalized form: gamma* = (3, 3)" in out

    def test_case_iii(self, capsys):
        code, out, _ = run(capsys, "analyze", "--k", "4", "--gamma", "1,0,1")
        assert code == EXIT_OK
        assert "classification: AFFINE_LINE_2D" in out
        assert "singular locus: POINT" in out

    def test_json_validates_against_schema(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--k", "3", "--gamma", "3,3", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        jsonschema.validate(payload, ANALYSIS_REPORT_SCHEMA)

    def test_boundary_monomial_warns(self, capsys):
        code, out, _ = run(capsys, "analyze", "--k", "4", "--gamma", "1,0,0")
        assert code == EXIT_OK
        assert "warning: dimension:" in out
        assert "warning: boundary:" in out


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        argv = ("analyze", "--k", "4", "--gamma", "0,1,0", "--format", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_json_round_trip_lossless(self):
        rep = analyze(4, (0, 1, 0))
        d = report_to_dict(rep)
        assert json.loads(json.dumps(d)) == d

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run(capsys, "analyze", "--k", "4", "--gamma", "1,0,1")
        _, json_out, _ = run(
            capsys, "analyze", "--k", "4", "--gamma", "1,0,1", "--format", "json"
        )
        payload = json.loads(json_out)
        assert f"algebra dimension: {payload['algebra']['dimension']}" in text_out
        assert f"classification: {payload['algebra']['classification']}" in text_out
        for g in payload["gamma"]:
            assert g in text_out


class TestUsageErrors:
    def test_low_degree(self, capsys):
        code, _, err = run(capsys, "analyze", "--k", "2", "--gamma", "1")
        assert code == EXIT_USAGE
        assert "k >= 3" in err

    def test_bad_gamma(self, capsys):
        code, _, err = run(capsys, "analyze", "--k", "3", "--gamma", "1,boom")
        assert code == EXIT_USAGE

    def test_zero_gamma(self, capsys):
        code, _, err = run(capsys, "analyze", "--k", "3", "--gamma", "0,0")
        assert code == EXIT_USAGE

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == EXIT_USAGE

    def test_poly_parse_error_position(self, capsys):
        code, _, err = run(capsys, "finite-type", "--phi", "a*b + q")
        assert code == EXIT_USAGE
        assert "position" in err

    def test_phi_with_y_rejected(self, capsys):
        code, _, err = run(capsys, "finite-type", "--phi", "y + b x")
        assert code == EXIT_USAGE
        assert "phi" in err

    def test_psi_with_y_rejected(self, capsys):
        code, _, err = run(capsys, "embed", "--psi", "y")
        assert code == EXIT_USAGE

    def test_small_weight_cap_rejected(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--k", "4", "--gamma", "0,1,0", "--weight-cap", "2"
        )
        assert code == EXIT_USAGE
        assert "weight-cap" in err

    @pytest.mark.parametrize("cap", ["37", "1000"])
    def test_large_weight_cap_rejected_fast(self, capsys, cap):
        start = time.perf_counter()
        code, _, err = run(
            capsys, "analyze", "--k", "3", "--gamma", "3,3", "--weight-cap", cap
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert "--weight-cap" in err and "[3, 36]" in err

    @pytest.mark.parametrize("cap", ["3", "9", "32", "36"])
    def test_weight_cap_bounds_allowed(self, capsys, cap):
        # 9 = 3k; 32 is the benchmark's weight_ladder cap at k = 3
        code, out, _ = run(
            capsys, "analyze", "--k", "3", "--gamma", "3,3", "--weight-cap", cap, "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["algebra"]["dimension"] == 3

    def test_weight_ladder_cap_at_k4_allowed(self, capsys):
        # the benchmark's weight_ladder cap at k = 4
        code, out, _ = run(
            capsys, "analyze", "--k", "4", "--gamma", "1,0,1", "--weight-cap", "32", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["algebra"]["dimension"] == 2

    def test_weight_cap_over_absolute_bound_rejected_fast(self, capsys, monkeypatch):
        # 12k bounds the cap at every k: cap 480 at k = 40 passes, 481 is refused at once
        gamma = ",".join(str(1 + i % 9) for i in range(39))
        argv = ["analyze", "--k", "40", "--gamma", gamma, "--format", "json"]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--weight-cap", "481")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert "--weight-cap must lie in [40, 480] for k=40" in err
        stop_after_bounds(monkeypatch)
        with pytest.raises(BoundsPassed):
            main(argv + ["--weight-cap", "480"])

    def test_largest_weight_cap_at_k40_allowed(self, capsys):
        gamma = ",".join(str(1 + i % 9) for i in range(39))
        argv = ["analyze", "--k", "40", "--gamma", gamma, "--format", "json"]
        code, out, _ = run(capsys, *argv, "--weight-cap", "480")
        assert code == EXIT_OK
        assert json.loads(out)["algebra"]["dimension"] == 2
        code, _, _ = run(capsys, *argv, "--weight-cap", "481")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("weight", ["-4", "37", "200"])
    def test_weight_out_of_range_rejected_fast(self, capsys, weight):
        start = time.perf_counter()
        code, _, err = run(
            capsys, "solve-weight", "--k", "3", "--gamma", "3,3", "--weight", weight
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert "--weight" in err and "[-3, 36]" in err

    @pytest.mark.parametrize("weight", ["-3", "36"])
    def test_weight_bounds_allowed(self, capsys, weight):
        code, out, _ = run(
            capsys, "solve-weight", "--k", "3", "--gamma", "3,3", "--weight", weight
        )
        assert code == EXIT_OK
        assert f"weight {weight}:" in out

    @pytest.mark.parametrize(
        "command, flag, counted, weight",
        [
            ("solve-weight", "--weight", "weight 2k = 16", 16),
            ("analyze", "--weight-cap", "weight 2k = 16", 16),
        ],
        ids=["solve-weight---weight", "analyze---weight-cap"],
    )
    def test_weight_times_gamma_digits_over_bound_rejected_fast(
        self, capsys, monkeypatch, command, flag, counted, weight
    ):
        # solve-weight at weight 96 and analyze with a cap of 96 both count as
        # weight 2k = 16 at k = 8
        def argv(digits):
            nines = "9" * digits
            gamma = f"{nines},1,{nines},2,{nines},3,1/{nines}"
            return [command, "--k", "8", "--gamma", gamma, flag, "96"]

        start = time.perf_counter()
        code, out, err = run(capsys, *argv(2000))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{counted} times 2000" in err and f"bound {MAX_WEIGHT_DIGITS:,}" in err
        stop_after_bounds(monkeypatch)
        with pytest.raises(BoundsPassed):
            main(argv(MAX_WEIGHT_DIGITS // weight))
        code, _, err = run(capsys, *argv(MAX_WEIGHT_DIGITS // weight + 1))
        assert code == EXIT_USAGE and f"{counted} times" in err

    @pytest.mark.parametrize("gamma", ["3,{}", "1/{},3", "-{}/7,1"])
    def test_weight_times_gamma_digits_at_bound_allowed(self, capsys, gamma):
        # solve-weight counts as weight 2k = 6 at k = 3, up to its largest weight 12k = 36
        most = MAX_WEIGHT_DIGITS // 6
        argv = ["solve-weight", "--k", "3", "--weight", "36", "--format", "json", "--gamma"]
        code, out, _ = run(capsys, *argv, gamma.format("9" * most))
        assert code == EXIT_OK
        assert json.loads(out)["weight"] == 36
        code, _, err = run(capsys, *argv, gamma.format("9" * (most + 1)))
        assert code == EXIT_USAGE
        assert f"weight 2k = 6 times {most + 1}" in err


    @pytest.mark.parametrize("k", ["41", "1000"])
    def test_large_degree_rejected_fast(self, capsys, k):
        start = time.perf_counter()
        code, _, err = run(capsys, "analyze", "--k", k, "--gamma", "1," * 38 + "1")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert "--k" in err and "[3, 40]" in err

    def test_degree_bound_allowed(self, capsys):
        gamma = ",".join(["0"] * 19 + ["1"] + ["0"] * 19)
        code, _, _ = run(capsys, "singular-locus", "--k", "40", "--gamma", gamma)
        assert code == EXIT_OK

    @pytest.mark.parametrize("order", ["0", "65", "1000"])
    def test_order_out_of_range_rejected_fast(self, capsys, order):
        start = time.perf_counter()
        code, _, err = run(capsys, "embed", "--psi", "a^2+b^3+x*a*b", "--order", order)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert "--order" in err and "[1, 64]" in err

    def test_order_bound_allowed(self, capsys):
        code, out, _ = run(capsys, "embed", "--psi", "a^2+b^3+x*a*b", "--order", "64")
        assert code == EXIT_OK
        assert "c_64 = " in out

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            ("finite-type", "--phi", "x^201*b"),
            ("finite-type", "--phi", "x^99999999999*b"),
            ("finite-type", "--phi", "x*b^2 + b + a^100*a^101"),
            ("embed", "--psi", "a^10000000"),
        ],
    )
    def test_exponent_over_bound_rejected_fast(self, capsys, command, flag, text):
        start = time.perf_counter()
        code, _, err = run(capsys, command, flag, text)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert f"{flag} exponents must be at most 200" in err

    def test_exponent_bound_allowed(self, capsys):
        code, out, _ = run(capsys, "finite-type", "--phi", "x^200*b", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["k"] == 201

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            ("finite-type", "--phi", "9" * 5000 + " x b"),
            ("embed", "--psi", "a^" + "9" * 5000),
        ],
        ids=["phi-coefficient", "psi-exponent"],
    )
    def test_integer_literal_over_digit_limit_rejected(self, capsys, command, flag, text):
        code, _, err = run(capsys, command, flag, text)
        assert code == EXIT_USAGE
        assert "integer literal of 5000 digits" in err

    @pytest.mark.parametrize("command", ["analyze", "flows"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "1e400", "abc"])
    def test_tolerance_out_of_range_rejected(self, capsys, command, value):
        # nan and -1 used to fail a correct EXP_VK (exit 3), inf passed any residual
        code, out, err = run(
            capsys, command, "--k", "4", "--gamma", "0,1,0", f"--tolerance={value}"
        )
        assert code == EXIT_USAGE and out == ""
        assert "--tolerance" in err and "finite number >= 0" in err

    def test_negative_tolerance_as_separate_value_rejected(self, capsys):
        code, _, err = run(capsys, "flows", "--k", "4", "--gamma", "0,1,0", "--tolerance", "-1")
        assert code == EXIT_USAGE
        assert "--tolerance" in err

    @pytest.mark.parametrize("command", ["analyze", "flows"])
    @pytest.mark.parametrize("value", ["0", "1e-9", "1e300"])
    def test_tolerance_bounds_allowed(self, capsys, command, value):
        # the generic k=4 flows have float residual exactly 0, so tolerance 0 passes too
        code, _, _ = run(capsys, command, "--k", "4", "--gamma", "1,0,1", "--tolerance", value)
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", ["analyze", "flows"])
    def test_zero_tolerance_reaches_proportionality(self, capsys, command):
        # EXP_Vm1's float proportionality residual on binomial k=3 is about 2e-15
        code, out, _ = run(capsys, command, "--k", "3", "--gamma", "3,3", "--tolerance", "0")
        assert code == EXIT_FLOW
        fail_lines = [line for line in out.splitlines() if line.startswith("  ") and ": FAIL" in line]
        assert len(fail_lines) == 1
        assert "para_cr_proportionality: FAIL" in fail_lines[0]
        assert fail_lines[0].endswith(": tolerance 0")


def test_import_loads_no_dataclass_machinery():
    # a fresh interpreter without site, so no startup hook imports these first
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(paracr.__file__)))
    code = (
        "import sys, paracr, paracr.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestDashValues:
    """Values that start with "-" parse as values, as in the "--flag=value" form."""

    @pytest.mark.parametrize(
        "command, k, gamma, extra",
        [
            ("analyze", "3", "-1,1", ()),
            ("analyze", "4", "-3/2,-1/2,2", ()),
            ("solve-weight", "4", "-3/2,-1/2,2", ("--weight", "0")),
        ],
    )
    def test_negative_gamma(self, capsys, command, k, gamma, extra):
        head = (command, "--k", k)
        tail = extra + ("--format", "json")
        code, out, err = run(capsys, *head, "--gamma", gamma, *tail)
        assert code == EXIT_OK, err
        assert json.loads(out)
        assert run(capsys, *head, f"--gamma={gamma}", *tail) == (EXIT_OK, out, "")

    def test_negative_phi_and_psi(self, capsys):
        for argv in (
            ("finite-type", "--phi", "-x^3+b*x^2"),
            ("embed", "--psi", "-x^2*b", "--order", "3"),
        ):
            code, out, err = run(capsys, *argv, "--format", "json")
            assert code == EXIT_OK, err
            joined = (argv[0], f"{argv[1]}={argv[2]}") + argv[3:] + ("--format", "json")
            assert run(capsys, *joined) == (EXIT_OK, out, "")

    def test_missing_value_still_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--k", "3", "--gamma", "--format", "json")
        assert code == EXIT_USAGE
        assert "--gamma" in err


class TestSubcommands:
    def test_solve_weight(self, capsys):
        code, out, _ = run(
            capsys, "solve-weight", "--k", "3", "--gamma", "3,3", "--weight", "-1"
        )
        assert code == EXIT_OK
        assert "dimension 1" in out
        assert "3 b^2" in out

    def test_finite_type_infinite(self, capsys):
        code, out, _ = run(capsys, "finite-type", "--phi", "a*b")
        assert code == EXIT_OK
        assert out.strip() == "INFINITE"

    def test_finite_type_finite(self, capsys):
        code, out, _ = run(capsys, "finite-type", "--phi", "x^3 + b x^2")
        assert code == EXIT_OK
        assert "FINITE k=3" in out

    def test_singular_locus(self, capsys):
        code, out, _ = run(capsys, "singular-locus", "--k", "4", "--gamma", "1,0,1")
        assert code == EXIT_OK
        assert out.strip() == "POINT"

    def test_embed(self, capsys):
        code, out, _ = run(capsys, "embed", "--psi", "a", "--order", "4")
        assert code == EXIT_OK
        for coeff in ("c_0 = a", "c_1 = -a", "c_2 = 1/2 a", "c_3 = -1/6 a", "c_4 = 1/24 a"):
            assert coeff in out

    def test_flows(self, capsys):
        code, out, _ = run(capsys, "flows", "--k", "3", "--gamma", "3,3")
        assert code == EXIT_OK
        assert "EXP_Vm1: pass" in out

    def test_discrete(self, capsys):
        code, out, _ = run(capsys, "discrete", "--k", "5", "--gamma", "1,0,1,0")
        assert code == EXIT_OK
        assert "Z2xZ2" in out

    def test_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PARACR_SEED", "12345")
        code, out1, _ = run(capsys, "flows", "--k", "4", "--gamma", "0,1,0")
        assert code == EXIT_OK
        code, out2, _ = run(capsys, "flows", "--k", "4", "--gamma", "0,1,0")
        assert out1 == out2
        monkeypatch.setenv("PARACR_SEED", "not-an-int")
        code, _, err = run(capsys, "flows", "--k", "4", "--gamma", "0,1,0")
        assert code == EXIT_USAGE


class TestSharedSerializers:
    """Each subcommand's JSON is the matching object of the analyze report."""

    SURFACES = [("4", "0,1,0"), ("3", "3,3"), ("4", "1,0,1")]

    @pytest.mark.parametrize("k,gamma", SURFACES)
    def test_subcommands_match_analyze(self, capsys, monkeypatch, k, gamma):
        monkeypatch.setenv("PARACR_SEED", "4242")

        def payload(*argv):
            code, out, err = run(capsys, *argv, "--format", "json")
            assert code == EXIT_OK, err
            return json.loads(out)

        report = payload("analyze", "--k", k, "--gamma", gamma)
        surface = ("--k", k, "--gamma", gamma)
        assert payload("singular-locus", *surface) == report["singular_locus"]
        assert payload("discrete", *surface) == report["discrete_group"]
        assert payload("flows", *surface) == {"flows": report["flow_verification"]}
        phi = ModelSurface(int(k), tuple(Fraction(g) for g in gamma.split(","))).p.to_text()
        assert payload("finite-type", "--phi", phi) == report["finite_type"]


class TestFiniteTypeBound:
    @pytest.mark.parametrize(
        "phi", ["x^5 b^5 + a^5 b + b^2 + a^2", "x^9 b^9 + a^5 b + b^2 + a^2"]
    )
    def test_elimination_bound_exits_64_quickly(self, capsys, phi):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "finite-type", "--phi", phi)
        assert time.perf_counter() - t0 < 2.0
        assert (code, out) == (EXIT_USAGE, "")
        assert "MAX_ELIMINATION_TERMS" in err


class TestFiniteTypeStepBound:
    def test_oversized_step_exits_64_quickly(self, capsys):
        # one step multiplies out 171,711 terms from 104; it ran 8 s unbounded
        t0 = time.perf_counter()
        code, out, err = run(capsys, "finite-type", "--phi", "x^99b^99+a^99b+b^2+a^2")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert "MAX_STEP_TERMS" in err and "20,000" in err

    def test_step_digits_exit_64_quickly(self, capsys):
        # every exponent and literal is in bounds, but the one step's 203 terms would
        # hold 163 million digits; unbounded it ran over 120 s
        t0 = time.perf_counter()
        code, out, err = run(capsys, "finite-type", "--phi", f"a^200 + {'9' * 4000}*b + x*b^2")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert "MAX_STEP_DIGITS" in err and "5,000,000" in err


def _alternating_gamma(k, digits):
    # gammas alternating a number of `digits` nines and small ints, the last 1/D
    big = "9" * digits
    return ",".join([big if i % 2 == 0 else str(i) for i in range(k - 2)] + ["1/" + big])


class TestScanDigitBound:
    """singular-locus, analyze with or without a cap, and solve-weight at any
    weight count as weight 2k against MAX_WEIGHT_DIGITS."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--k", "40", "--gamma", _alternating_gamma(40, 2000)),
            ("analyze", "--k", "40", "--weight-cap", "40", "--gamma", _alternating_gamma(40, 300)),
            ("singular-locus", "--k", "20", "--gamma", _alternating_gamma(20, 2000)),
            ("singular-locus", "--k", "40", "--gamma", _alternating_gamma(40, 300)),
            ("solve-weight", "--k", "40", "--weight", "480", "--gamma", _alternating_gamma(40, 151)),
        ],
        ids=[
            "analyze-k40-2000", "analyze-k40-300-cap", "locus-k20-2000", "locus-k40-300",
            "solve-weight-k40-151",
        ],
    )
    def test_large_gammas_exit_64_quickly(self, capsys, argv):
        # unbounded, singular_locus took 18.6 s at k = 20 and 9.6 s at k = 40
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert f"weight 2k = {2 * int(argv[2])} times" in err
        assert f"bound {MAX_WEIGHT_DIGITS:,}" in err

    def test_tall_cap_with_large_gammas_exits_64_quickly(self, capsys, monkeypatch):
        # at k = 10 and cap 12k = 120, 2k = 20 times 601 digits is over 12,000; 600 pass
        argv = ["analyze", "--k", "10", "--weight-cap", "120", "--format", "json", "--gamma"]
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv, _alternating_gamma(10, 601))
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert "weight 2k = 20 times 601" in err
        stop_after_bounds(monkeypatch)
        with pytest.raises(BoundsPassed):
            main(argv + [_alternating_gamma(10, 600)])

    @pytest.mark.parametrize(
        "k, cap, most_digits",
        [
            (10, 120, 600), (10, 20, 600), (10, 19, 600),
            (3, 36, 2000), (40, 480, 150), (7, None, 857),
        ],
    )
    def test_counted_weight_at_the_edge(self, capsys, monkeypatch, k, cap, most_digits):
        # 2k times the digits against the bound, whatever the cap
        stop_after_bounds(monkeypatch)
        cap_flag = [] if cap is None else ["--weight-cap", str(cap)]
        for digits, accepted in ((most_digits, True), (most_digits + 1, False)):
            gamma = ",".join([f"1/{10**digits - 1}"] * (k - 1))
            argv = ["analyze", "--k", str(k), "--gamma", gamma] + cap_flag
            if accepted:
                with pytest.raises(BoundsPassed):
                    main(argv)
            else:
                code, _, err = run(capsys, *argv)
                assert code == EXIT_USAGE
                assert f"weight 2k = {2 * k} times {digits}" in err

    def test_worst_accepted_case(self, capsys):
        # 2k = 80 times 150 digits is exactly MAX_WEIGHT_DIGITS, at the largest cap 12k
        gamma = _alternating_gamma(40, 150)
        code, out, _ = run(
            capsys, "analyze", "--k", "40", "--gamma", gamma, "--weight-cap", "480",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["k"] == 40
        code, out, _ = run(capsys, "singular-locus", "--k", "40", "--gamma", gamma)
        assert code == EXIT_OK
        code, out, _ = run(
            capsys, "solve-weight", "--k", "40", "--gamma", gamma, "--weight", "480"
        )
        assert code == EXIT_OK
        assert out == "weight 480: dimension 0 (system 80 x 4)\n"


# every command that takes --gamma, with the flags it needs besides --k and --gamma
_GAMMA_COMMANDS = [
    ("analyze",), ("solve-weight", "--weight", "3"), ("singular-locus",), ("flows",), ("discrete",),
]


class TestGammaExponentBound:
    """A decimal exponent of a gamma over MAX_WEIGHT_DIGITS in magnitude is
    refused before Fraction() builds its power of 10, which for 1e10000000
    alone took 13.5 s."""

    @pytest.mark.parametrize("command", _GAMMA_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize(
        "gamma",
        ["1e100000000,1", "1,-2E+12001", "1e-12_001,1", "1,00012001e0_0012001", "1e١٢٠٠١,1"],
    )
    def test_refused_fast(self, capsys, command, gamma):
        start = time.perf_counter()
        code, out, err = run(capsys, command[0], "--k", "3", "--gamma", gamma, *command[1:])
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (EXIT_USAGE, "")
        assert f"is over the bound {MAX_WEIGHT_DIGITS:,} in magnitude" in err

    @pytest.mark.parametrize("part", ["1e12000", "-1E-12000", "7e+0012000", "3e12_000", "1e٠٠١٢٠٠٠"])
    def test_exponent_at_the_bound_is_read(self, part):
        if sys.version_info < (3, 11) and "_" in part:
            pytest.skip("Fraction reads '_' between digits from Python 3.11")
        assert cli_mod._parse_gamma(f"{part}, 1") == [Fraction(part), 1]

    @pytest.mark.parametrize(
        "command, expected",
        [(c, EXIT_USAGE) for c in _GAMMA_COMMANDS[:4]] + [(_GAMMA_COMMANDS[4], EXIT_OK)],
        ids=lambda c: c[0] if isinstance(c, tuple) else str(c),
    )
    def test_gamma_digits_checked_where_computed_with(self, capsys, command, expected):
        # flows seeds its samples from the repr of the gammas, and str(int)
        # refuses an integer over 4,300 digits; it counts them as analyze
        # does, while discrete only compares polynomials and prints signs
        code, out, err = run(capsys, command[0], "--k", "3", "--gamma", "1e5000,1", *command[1:])
        assert code == expected
        if expected == EXIT_USAGE:
            assert out == "" and "times 5001" in err
        else:
            assert out.startswith("Z2") and err == ""

    @pytest.mark.parametrize("gamma, command", [("1e100000000,1", "analyze"), ("1e5000,1", "flows")])
    def test_console_exits_64_without_traceback(self, gamma, command):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(paracr.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "paracr.cli", command, "--k", "3", "--gamma", gamma],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestExitCodeMapping:
    def test_closure_violation_exit(self, capsys, monkeypatch):
        import paracr.cli as cli_mod

        real_analyze = cli_mod.report_mod.analyze

        def fake_analyze(*args, **kwargs):
            rep = real_analyze(*args, **kwargs)
            return rep._replace(warnings=rep.warnings + ("closure: synthetic violation",))

        monkeypatch.setattr(cli_mod.report_mod, "analyze", fake_analyze)
        code, _, _ = run(capsys, "analyze", "--k", "4", "--gamma", "0,1,0")
        assert code == EXIT_CLOSURE

    def test_flow_failure_exit(self, capsys):
        # an absurdly tight tolerance forces the radical flow checks to fail
        code, out, _ = run(
            capsys,
            "analyze",
            "--k",
            "4",
            "--gamma",
            "0,1,0",
            "--tolerance",
            "1e-30",
        )
        assert code == EXIT_FLOW


class TestFloatOverflow:
    """Gammas whose samples overflow a float end in a failed check, not a traceback."""

    @pytest.mark.parametrize("command", ["analyze", "flows"])
    @pytest.mark.parametrize("gamma", ["1e400,1", "1e300,1"])
    def test_exit_flow_failure(self, capsys, command, gamma):
        code, out, err = run(capsys, command, "--k", "3", "--gamma", gamma, "--format", "json")
        assert (code, err) == (EXIT_FLOW, "")
        payload = json.loads(out)
        if command == "analyze":
            jsonschema.validate(payload, ANALYSIS_REPORT_SCHEMA)
            verifications = payload["flow_verification"]
        else:
            verifications = payload["flows"]
        failed = [v for v in verifications if not v["passed"]]
        assert failed
        for v in failed:
            assert any("float overflow at" in c["detail"] for c in v["checks"] if not c["passed"])

    @pytest.mark.parametrize("command", ["analyze", "flows"])
    def test_text_names_the_overflow(self, capsys, command):
        code, out, err = run(capsys, command, "--k", "3", "--gamma", "1e400,1")
        assert (code, err) == (EXIT_FLOW, "")
        fail_lines = [line for line in out.splitlines() if line.startswith("  ") and ": FAIL" in line]
        assert fail_lines
        for line in fail_lines:
            assert "float overflow at" in line, line

    @pytest.mark.parametrize("big", [10**400, 10**300], ids=["1e400", "1e300"])
    def test_report_analyze(self, big):
        rep = analyze(3, (Fraction(big), 1), flow_samples=6)
        assert not rep.flows_passed
        failed = [v for v in rep.flow_verifications if not v.passed]
        assert failed
        for v in failed:
            assert any("float overflow at" in c.detail for c in v.checks if not c.passed)


class TestOutputDigitBound:
    """A computed number over the interpreter's 4,300-digit printing limit is a usage error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("finite-type", "--phi", f"x*b^2 + {'7' * 3000}*b + a^2"),
            # 2,000 digits, the most that weight 2k = 6 allows under MAX_WEIGHT_DIGITS
            ("analyze", "--k", "3", "--gamma", "3,3" + "0" * 1999, "--format", "json"),
            ("analyze", "--k", "3", "--gamma", "3,3" + "0" * 1999),
        ],
        ids=["finite-type", "analyze-json", "analyze-text"],
    )
    def test_exits_64_naming_the_bound(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "4,300-digit output bound" in err
        assert "Traceback" not in err


_LONG = "7" * 2000
_GAMMA_ENTRIES = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.sampled_from(["1e300", "-1e300", "1e-300"]),
    st.sampled_from([_LONG, "-" + _LONG, "1/" + _LONG, _LONG + "/3", "3" + "0" * 2000]),
)
_BAD_GAMMA_ENTRIES = st.sampled_from(["nan", "inf", "abc", "", "1/", "1/0", "0x1", "-"])
_POLY_TEXT = st.one_of(
    poly_st(("x", "a", "b")).map(lambda p: p.to_text()),
    st.text(alphabet="xyab0123456789+-*/^ ", max_size=30),
    st.sampled_from(
        ["x*b^2 + b + a^2", "x^3 + b x^2", "a", f"x*b^2 + {_LONG}*b + a^2", f"{_LONG} x b"]
    ),
)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(
        ["analyze", "solve-weight", "finite-type", "singular-locus", "embed", "flows", "discrete"]
    ))
    if command in ("finite-type", "embed"):
        argv = [command, "--phi" if command == "finite-type" else "--psi", draw(_POLY_TEXT)]
        if command == "embed":
            argv += ["--order", str(draw(st.integers(0, 12)))]
    else:
        k = draw(st.integers(2, 8))
        size = draw(st.sampled_from([k - 1] * 6 + [k - 2, k]))
        gamma = draw(st.lists(_GAMMA_ENTRIES, min_size=size, max_size=size))
        if gamma and draw(st.integers(0, 3)) == 0:
            gamma[draw(st.integers(0, size - 1))] = draw(_BAD_GAMMA_ENTRIES)
        argv = [command, "--k", str(k), "--gamma", ",".join(gamma)]
        # weights and weight caps reach the 12k bound: analyze skips every weight
        # the prolongation proves {0}, so even a cap of 12k stays fast
        if command == "solve-weight":
            argv += ["--weight", str(draw(st.integers(-k, 12 * k)))]
        if command == "analyze" and draw(st.booleans()):
            argv += ["--weight-cap", str(draw(st.integers(k, 12 * k)))]
        if command in ("analyze", "flows"):
            argv += ["--tolerance", draw(st.sampled_from(["1e-9", "1e-6", "0"]))]
    return argv + ["--format", draw(st.sampled_from(["text", "json"]))]


class TestFuzz:
    """Any argument vector ends in a documented exit code, fast, without a traceback."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_cli_argv())
    def test_documented_exit_within_budget(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 5.0, argv
        assert code in (EXIT_OK, EXIT_CLOSURE, EXIT_FLOW, EXIT_USAGE), argv
        assert "Traceback" not in err.getvalue()
