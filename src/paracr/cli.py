"""Command-line front end.

Subcommands: analyze | solve-weight | finite-type | singular-locus | embed |
flows | discrete.  Exit codes: 0 success, 2 closure violation, 3 flow
verification failure, 64 usage or parse errors.  The environment variable
PARACR_SEED fixes the sampling seed used by flow verification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, List, Optional

from . import flows as flows_mod
from . import report as report_mod
from .report import describe_locus, describe_type, fail_detail
from .embedding import EmbeddingError, solve_embedding
from .normalform import (
    DefiningFunction,
    NormalFormError,
    detect_case,
    finite_type,
    singular_locus,
)
from .poly import Poly, PolyParseError, UnsupportedDegreeError, format_fraction
from .solver import solve_weight
from .surface import InvalidSurfaceError, ModelSurface

EXIT_OK = 0
EXIT_CLOSURE = 2
EXIT_FLOW = 3
EXIT_USAGE = 64
MAX_WEIGHT_PER_K = 12  # bounds the per-weight system; weight 200 at k = 3 runs for minutes
MAX_K = 40  # generic analyze takes about 1.6 s at k = 40 and 12 s at k = 60
MAX_ORDER = 64  # embed of a^2+b^3+x*a*b: 0.6 s at order 64, 23 s and 43 MB at order 200
# flags whose values may start with "-", as in --gamma -1,1 or --phi "-x^3"
_DASH_VALUE_FLAGS = ("--gamma", "--phi", "--psi")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_gamma(text: str) -> List[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid gamma list {text!r}: {exc}")


def _tolerance(text: str) -> float:
    # NaN or a negative tolerance fails a correct flow, and inf passes any
    # residual, so neither checks anything
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _seed() -> int:
    raw = os.environ.get("PARACR_SEED")
    if raw is None:
        return flows_mod.DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"PARACR_SEED must be an integer, got {raw!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="paracr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_surface_flags(p):
        p.add_argument("--k", type=int, required=True, help=f"degree, in [3, {MAX_K}]")
        p.add_argument("--gamma", type=str, required=True,
                       help="comma-separated rationals, e.g. 0,1,0 or -3/2,1")

    def add_tolerance_flag(p):
        p.add_argument("--tolerance", type=_tolerance, default=1e-9,
                       help="absolute limit of every float check of a flow (para-CR "
                            "proportionality; EXP_VK's surface and group law), "
                            "finite and >= 0; default 1e-9")

    p = sub.add_parser("analyze", help="full pipeline report")
    add_surface_flags(p)
    p.add_argument("--weight-cap", type=int, default=None, help="in [k, 12k]; default 3k")
    add_tolerance_flag(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("solve-weight", help="kernel basis at one weight")
    add_surface_flags(p)
    p.add_argument("--weight", type=int, required=True, help="weight, in [-k, 12k]")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("finite-type", help="type detection for y = a + phi")
    p.add_argument("--phi", type=str, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("singular-locus", help="zero locus trichotomy of P_xb")
    add_surface_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("embed", help="series solution of the transport problem")
    p.add_argument("--psi", type=str, required=True)
    p.add_argument("--order", type=int, default=8, help=f"series order, in [1, {MAX_ORDER}]")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("flows", help="verify the admissible named flows")
    add_surface_flags(p)
    add_tolerance_flag(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("discrete", help="discrete automorphism group")
    add_surface_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit(payload: dict, render: Callable[[dict], str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(render(payload), end="")


def _surface(args) -> ModelSurface:
    if args.k > MAX_K:
        raise UsageError(f"--k must lie in [3, {MAX_K}], got {args.k}")
    gamma = _parse_gamma(args.gamma)
    try:
        return ModelSurface(args.k, tuple(gamma))
    except (UnsupportedDegreeError, InvalidSurfaceError) as exc:
        raise UsageError(str(exc))


def _cmd_analyze(args) -> int:
    surface = _surface(args)
    k, cap = surface.k, args.weight_cap
    if cap is not None and not k <= cap <= MAX_WEIGHT_PER_K * k:
        raise UsageError(f"--weight-cap must lie in [{k}, {MAX_WEIGHT_PER_K * k}] for k={k}")
    rep = report_mod.analyze(
        surface.k,
        surface.gamma,
        weight_cap=args.weight_cap,
        seed=_seed(),
        tolerance=args.tolerance,
    )
    _emit(report_mod.report_to_dict(rep), report_mod.render_report, args.format)
    if rep.has_closure_violation:
        return EXIT_CLOSURE
    if not rep.flows_passed:
        return EXIT_FLOW
    return EXIT_OK


def _weight_text(d: dict) -> str:
    rows, cols = d["system_shape"]
    lines = [f"weight {d['weight']}: dimension {d['dimension']} (system {rows} x {cols})"]
    for g in d["generators"]:
        lines.append(f"  alpha={g['alpha']} | beta={g['beta']} | xi={g['xi']} | eta={g['eta']}")
    return "\n".join(lines) + "\n"


def _cmd_solve_weight(args) -> int:
    surface = _surface(args)
    k = surface.k
    if not -k <= args.weight <= MAX_WEIGHT_PER_K * k:
        raise UsageError(f"--weight must lie in [{-k}, {MAX_WEIGHT_PER_K * k}] for k={k}")
    kb = solve_weight(surface, args.weight)
    payload = {
        "k": surface.k,
        "gamma": [format_fraction(g) for g in surface.gamma],
        "weight": kb.weight,
        "dimension": kb.dimension,
        "system_shape": list(kb.system_shape),
        "generators": [
            {
                "alpha": f.alpha.to_text(),
                "beta": f.beta.to_text(),
                "xi": f.xi.to_text(),
                "eta": f.eta.to_text(),
            }
            for f in kb.basis
        ],
    }
    _emit(payload, _weight_text, args.format)
    return EXIT_OK


def _type_text(d: dict) -> str:
    suffix = f" normalized={d['normalized']}" if "normalized" in d else ""
    return describe_type(d) + suffix + "\n"


def _cmd_finite_type(args) -> int:
    result = finite_type(DefiningFunction(Poly.parse(args.phi)))
    _emit(report_mod.type_dict(result), _type_text, args.format)
    return EXIT_OK


def _cmd_singular_locus(args) -> int:
    locus = singular_locus(_surface(args))
    _emit(report_mod.locus_dict(locus), lambda d: describe_locus(d) + "\n", args.format)
    return EXIT_OK


def _embed_text(d: dict) -> str:
    lines = [f"psi = {d['psi']}, order {d['order']}"]
    lines += [f"  c_{n} = {c}" for n, c in enumerate(d["coefficients"])]
    return "\n".join(lines) + "\n"


def _cmd_embed(args) -> int:
    psi = Poly.parse(args.psi)
    if not 1 <= args.order <= MAX_ORDER:
        raise UsageError(f"--order must lie in [1, {MAX_ORDER}], got {args.order}")
    series = solve_embedding(psi, args.order)
    payload = {
        "psi": psi.to_text(),
        "order": series.order,
        "coefficients": [c.to_text() for c in series.coeffs],
    }
    _emit(payload, _embed_text, args.format)
    return EXIT_OK


def _flows_text(d: dict) -> str:
    lines = []
    for v in d["flows"]:
        lines.append(f"{v['flow']}: {'pass' if v['passed'] else 'FAIL'}")
        for c in v["checks"]:
            status = "pass" if c["passed"] else "FAIL"
            residual = "none" if c["max_residual"] is None else f"{c['max_residual']:.3e}"
            lines.append(f"  {c['check']}: {status} (max residual {residual}){fail_detail(c)}")
    return "\n".join(lines) + "\n"


def _cmd_flows(args) -> int:
    surface = _surface(args)
    verifications = report_mod.verify_flows(surface, detect_case(surface), _seed(), args.tolerance)
    payload = {"flows": [report_mod.verification_dict(v) for v in verifications]}
    _emit(payload, _flows_text, args.format)
    return EXIT_OK if all(v.passed for v in verifications) else EXIT_FLOW


def _discrete_text(d: dict) -> str:
    lines = [d["kind"]]
    for sx, sy, sa, sb in d["generators"]:
        lines.append(f"  (x, y, a, b) -> ({sx:+d} x, {sy:+d} y, {sa:+d} a, {sb:+d} b)")
    return "\n".join(lines) + "\n"


def _cmd_discrete(args) -> int:
    group = flows_mod.discrete_group(_surface(args))
    _emit(report_mod.discrete_dict(group), _discrete_text, args.format)
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "solve-weight": _cmd_solve_weight,
    "finite-type": _cmd_finite_type,
    "singular-locus": _cmd_singular_locus,
    "embed": _cmd_embed,
    "flows": _cmd_flows,
    "discrete": _cmd_discrete,
}


def _attach_dash_values(argv: List[str]) -> List[str]:
    # argparse reads "--gamma -1,1" as a flag with no value; pass it as "--gamma=-1,1"
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in _DASH_VALUE_FLAGS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_dash_values(argv))
        return _COMMANDS[args.command](args)
    except (
        UsageError,
        PolyParseError,
        UnsupportedDegreeError,
        InvalidSurfaceError,
        NormalFormError,
        EmbeddingError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
