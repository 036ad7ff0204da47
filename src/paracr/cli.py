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
import re
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
from .poly import (
    OutputDigitsError,
    Poly,
    PolyParseError,
    UnsupportedDegreeError,
    format_fraction,
)
from .solver import solve_weight
from .surface import InvalidSurfaceError, ModelSurface

EXIT_OK = 0
EXIT_CLOSURE = 2
EXIT_FLOW = 3
EXIT_USAGE = 64
# --weight lies in [-k, 12k] and --weight-cap in [k, 12k]: solve-weight and analyze
# solve each weight on the preimage of the weight k below, solve-weight up the residue
# class of its weight mod k; cap 480 at k = 40 takes 0.4-0.55 s end to end
MAX_WEIGHT_PER_K = 12
# 2k times the most decimal digits of a gamma numerator or denominator: the powers of
# y = a + P carry coefficients that grow with the gammas, and analyze, solve-weight,
# singular-locus and flows all count as weight 2k (2,000-digit gammas: 18.6 s in
# singular_locus at k = 20).  At weight or cap 12k with the most digits this allows,
# analyze ran in 0.2-1.4 s end to end for each k tried in [3, 40], and solve-weight
# solves in 0.007-0.013 s at k = 3 (2,000 digits), 8 (750) and 20 (300) and in
# 0.011-0.021 s at k = 40 (150), 0.12-0.25 s end to end
MAX_WEIGHT_DIGITS = 12_000
MAX_K = 40  # generic analyze takes about 0.45 s at k = 40, end to end
MAX_ORDER = 64  # embed of a^2+b^3+x*a*b: 0.6 s at order 64, 23 s and 43 MB at order 200
# --phi and --psi exponents: finite-type expands (a - g)^N, 0.45 s at a^200 and 8.5 s
# at a^1000; x^N b takes 0.6 s at N = 10^5 and 42.5 s at 10^7
MAX_EXPONENT = 200
# flags whose values may start with "-", as in --gamma -1,1 or --phi "-x^3"
_DASH_VALUE_FLAGS = ("--gamma", "--phi", "--psi")
# the decimal exponent of a gamma, in every spelling Fraction() reads: E or e,
# a sign, leading zeros, "_" between digits and any Unicode decimal digits
_EXPONENT_RE = re.compile(r"e[-+]?([\d_]+)\Z", re.IGNORECASE)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_gamma(text: str) -> List[Fraction]:
    parts = [part.strip() for part in text.split(",")]
    for part in parts:
        # Fraction() builds 10**|exponent| ("1e10000000" alone takes 13 s), and a gamma
        # of more than MAX_WEIGHT_DIGITS digits is refused later in any case
        m = _EXPONENT_RE.search(part)
        digits = "".join(str(int(d)) for d in m.group(1) if d != "_").lstrip("0") if m else ""
        if len(digits) > len(str(MAX_WEIGHT_DIGITS)) or int(digits or 0) > MAX_WEIGHT_DIGITS:
            raise UsageError(f"invalid gamma list {text!r}: the exponent of {part!r} is "
                             f"over the bound {MAX_WEIGHT_DIGITS:,} in magnitude")
    try:
        return [Fraction(part) for part in parts]
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
        p.add_argument("--tolerance", type=_tolerance, default=flows_mod.DEFAULT_TOLERANCE,
                       help="absolute limit of every float check of a flow (para-CR "
                            "proportionality; EXP_VK's surface and group law), "
                            "finite and >= 0; default 1e-9")

    p = sub.add_parser("analyze", help="full pipeline report")
    add_surface_flags(p)
    p.add_argument("--weight-cap", type=int, default=None,
                   help="in [k, 12k]; 2k times the most digits of a gamma numerator or "
                        f"denominator must be at most {MAX_WEIGHT_DIGITS:,}, also with no cap; "
                        "default: scan until the algebra is proved complete")
    add_tolerance_flag(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("solve-weight", help="kernel basis at one weight")
    add_surface_flags(p)
    p.add_argument("--weight", type=int, required=True,
                   help="weight, in [-k, 12k]; 2k times the most digits of a gamma "
                        f"numerator or denominator must be at most {MAX_WEIGHT_DIGITS:,}")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("finite-type", help="type detection for y = a + phi")
    p.add_argument("--phi", type=str, required=True,
                   help=f"polynomial in x, a, b; exponents at most {MAX_EXPONENT}")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("singular-locus", help="zero locus trichotomy of P_xb",
                       description="2k times the most digits of a gamma numerator or "
                                   f"denominator must be at most {MAX_WEIGHT_DIGITS:,}")
    add_surface_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("embed", help="series solution of the transport problem")
    p.add_argument("--psi", type=str, required=True,
                   help=f"polynomial in x, a, b; exponents at most {MAX_EXPONENT}")
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


def _poly_flag(flag: str, text: str) -> Poly:
    p = Poly.parse(text)
    top = max((max(exp) for exp, _ in p.items()), default=0)
    if top > MAX_EXPONENT:
        raise UsageError(f"{flag} exponents must be at most {MAX_EXPONENT}, got {top}")
    return p


def _digits(n: int) -> int:
    # decimal digits of |n|, without str(), which refuses integers over 4,300 digits
    n = abs(n)
    d = int(n.bit_length() * math.log10(2))
    return d + (n >= 10**d)


def _surface(args) -> ModelSurface:
    if args.k > MAX_K:
        raise UsageError(f"--k must lie in [3, {MAX_K}], got {args.k}")
    gamma = _parse_gamma(args.gamma)
    try:
        return ModelSurface(args.k, tuple(gamma))
    except (UnsupportedDegreeError, InvalidSurfaceError) as exc:
        raise UsageError(str(exc))


def _check_gamma_digits(surface: ModelSurface) -> None:
    digits = max(_digits(v) for g in surface.gamma for v in (g.numerator, g.denominator))
    if 2 * surface.k * digits > MAX_WEIGHT_DIGITS:
        raise UsageError(
            f"weight 2k = {2 * surface.k} times {digits}, the most digits of a gamma "
            f"numerator or denominator, is over the bound {MAX_WEIGHT_DIGITS:,}"
        )


def _cmd_analyze(args) -> int:
    surface = _surface(args)
    k, cap = surface.k, args.weight_cap
    if cap is not None and not k <= cap <= MAX_WEIGHT_PER_K * k:
        raise UsageError(f"--weight-cap must lie in [{k}, {MAX_WEIGHT_PER_K * k}] for k={k}")
    _check_gamma_digits(surface)
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
    _check_gamma_digits(surface)
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
    result = finite_type(DefiningFunction(_poly_flag("--phi", args.phi)))
    _emit(report_mod.type_dict(result), _type_text, args.format)
    return EXIT_OK


def _cmd_singular_locus(args) -> int:
    surface = _surface(args)
    _check_gamma_digits(surface)
    locus = singular_locus(surface)
    _emit(report_mod.locus_dict(locus), lambda d: describe_locus(d) + "\n", args.format)
    return EXIT_OK


def _embed_text(d: dict) -> str:
    lines = [f"psi = {d['psi']}, order {d['order']}"]
    lines += [f"  c_{n} = {c}" for n, c in enumerate(d["coefficients"])]
    return "\n".join(lines) + "\n"


def _cmd_embed(args) -> int:
    psi = _poly_flag("--psi", args.psi)
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
    # the same digit bound as analyze, which prints the same flow objects
    _check_gamma_digits(surface)
    verifications = flows_mod.verify_flows(surface, detect_case(surface), _seed(), args.tolerance)
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
        OutputDigitsError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
