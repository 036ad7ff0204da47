"""Pipeline orchestration and deterministic report serialization.

``analyze`` runs case detection, finite-type echo, the singular locus, the
full graded algebra with profile and classification, the discrete group and
flow verification, and collects warnings (closure violations, dimension
discrepancies against the expected three-case pattern, a monomial exponent
at the boundary iota = 1 or k - 1, the rejected EXP_Vm1 transcription).
Reports serialize to a stable JSON object: rationals as "p/q" strings,
polynomials as grammar strings, keys sorted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import flows as flows_mod
from . import liealg
from .normalform import (
    BINOMIAL,
    GENERIC,
    LINE,
    MONOMIAL,
    BinomialNormalization,
    CaseDetection,
    DefiningFunction,
    SingularLocus,
    TypeResult,
    detect_case,
    finite_type,
    normalize_binomial,
    singular_locus,
)
from .poly import Rational, as_fraction, format_fraction
from .solver import solve_algebra
from .surface import ModelSurface

# algebra dimension of the three-case pattern, by detected case
_EXPECTED_DIMENSION = {MONOMIAL: 4, BINOMIAL: 3, GENERIC: 2}


class AlgebraSummary(NamedTuple):
    dimension: int
    weights: Tuple[int, ...]
    generators: Tuple[str, ...]
    structure_constants: Tuple[Tuple[Tuple[Rational, ...], ...], ...]
    profile: Optional[liealg.AlgebraProfile]
    classification: str


class AnalysisReport(NamedTuple):
    k: int
    gamma: Tuple[Fraction, ...]
    case: CaseDetection
    finite_type: TypeResult
    locus: SingularLocus
    normalization: Optional[BinomialNormalization]
    algebra: AlgebraSummary
    discrete: flows_mod.DiscreteGroup
    flow_verifications: Tuple[flows_mod.FlowVerification, ...]
    warnings: Tuple[str, ...]

    @property
    def has_closure_violation(self) -> bool:
        return any(w.startswith("closure:") for w in self.warnings)

    @property
    def flows_passed(self) -> bool:
        return all(v.passed for v in self.flow_verifications)


def analyze(
    k: int,
    gamma: Sequence,
    weight_cap: Optional[int] = None,
    seed: int = flows_mod.DEFAULT_SEED,
    tolerance: float = flows_mod.DEFAULT_TOLERANCE,
    flow_samples: int = flows_mod.DEFAULT_FLOW_SAMPLES,
) -> AnalysisReport:
    surface = ModelSurface(k, tuple(as_fraction(g) for g in gamma))
    detection = detect_case(surface)
    type_echo = finite_type(DefiningFunction(surface.p))
    locus = singular_locus(surface)
    normalization = (
        normalize_binomial(surface, detection) if detection.kind == BINOMIAL else None
    )
    algebra = solve_algebra(surface, weight_cap)
    warnings: List[str] = []
    for violation in algebra.closure_violations:
        warnings.append(f"closure: {violation.describe()}")
    if algebra.closure_violations:
        label, summary_profile = liealg.OTHER, None
    else:
        summary_profile = liealg.profile(liealg.structure_constants(algebra))
        label = liealg.classify(summary_profile).label
    expected = _EXPECTED_DIMENSION[detection.kind]
    if algebra.dimension != expected:
        extra = sorted(
            w
            for w in set(algebra.weights)
            if w not in (-k, 0, k)
        )
        warnings.append(
            f"dimension: computed algebra dimension {algebra.dimension} differs "
            f"from the {expected} expected for the {detection.kind} case"
            + (f"; extra generator weights {extra}" if extra else "")
        )
    if detection.kind == MONOMIAL and detection.iota in (1, k - 1):
        warnings.append(
            f"boundary: monomial exponent iota={detection.iota} sits at the "
            "boundary; all returned generators have exactly zero tangency residual"
        )
    if detection.kind == BINOMIAL:
        warnings.append(flows_mod.vm1_transcription_mismatch(surface))

    verifications = flows_mod.verify_flows(surface, detection, seed, tolerance, flow_samples)
    discrete = flows_mod.discrete_group(surface)
    summary = AlgebraSummary(
        dimension=algebra.dimension,
        weights=algebra.weights,
        generators=tuple(
            f"[{w}] " + _field_text(f) for w, f in algebra.generators
        ),
        structure_constants=algebra.structure_constants,
        profile=summary_profile,
        classification=label,
    )
    return AnalysisReport(
        k=k,
        gamma=surface.gamma,
        case=detection,
        finite_type=type_echo,
        locus=locus,
        normalization=normalization,
        algebra=summary,
        discrete=discrete,
        flow_verifications=verifications,
        warnings=tuple(warnings),
    )


def _field_text(f) -> str:
    return (
        f"alpha={f.alpha.to_text()}; beta={f.beta.to_text()}; "
        f"xi={f.xi.to_text()}; eta={f.eta.to_text()}"
    )


# -- serialization -------------------------------------------------------------


def _fractions(seq) -> List[str]:
    return [format_fraction(v) for v in seq]


def _case_dict(c: CaseDetection) -> Dict:
    out: Dict = {"kind": c.kind}
    if c.kind == MONOMIAL:
        out["iota"] = c.iota
    if c.kind == BINOMIAL:
        out["delta"] = format_fraction(c.delta)
        out["nu"] = format_fraction(c.nu)
    return out


def type_dict(t: TypeResult) -> Dict:
    out: Dict = {"kind": t.kind}
    if t.is_finite:
        out["k"] = t.k
        out["gamma"] = _fractions(t.gamma)
        out["normalized"] = t.normalized.to_text()
    return out


def locus_dict(l: SingularLocus) -> Dict:
    out: Dict = {"kind": l.kind}
    if l.kind == LINE:
        out["line"] = l.line.to_text()
    if l.line_count is not None:
        out["line_count"] = l.line_count
    return out


def _profile_dict(p: Optional[liealg.AlgebraProfile]) -> Optional[Dict]:
    if p is None:
        return None
    return {
        "dimension": p.dimension,
        "derived_series_dims": list(p.derived_series_dims),
        "center_dim": p.center_dim,
        "killing_rank": p.killing_rank,
        "killing_signature": list(p.killing_signature),
        "is_solvable": p.is_solvable,
        "derived_killing_signature": (
            list(p.derived_killing_signature)
            if p.derived_killing_signature is not None
            else None
        ),
        "ad_eigenvalue_data": (
            _fractions(p.ad_eigenvalue_data)
            if p.ad_eigenvalue_data is not None
            else None
        ),
    }


def verification_dict(v: flows_mod.FlowVerification) -> Dict:
    return {
        "flow": v.flow_name,
        "params": list(v.params),
        "passed": v.passed,
        "checks": [
            {
                "check": c.check,
                "passed": c.passed,
                "exact": c.exact,
                "max_residual": c.max_residual,
                "detail": c.detail,
            }
            for c in v.checks
        ],
    }


def discrete_dict(g: flows_mod.DiscreteGroup) -> Dict:
    return {"kind": g.kind, "generators": [list(e.signs()) for e in g.generators]}


def _normalization_dict(n: Optional[BinomialNormalization]) -> Optional[Dict]:
    if n is None:
        return None
    return {
        "change": {
            "x": n.change.x_map.to_text(),
            "y": n.change.y_map.to_text(),
            "a": n.change.a_map.to_text(),
            "b": n.change.b_map.to_text(),
        },
        "model_change": {
            "x": n.model_change.x_map.to_text(),
            "y": n.model_change.y_map.to_text(),
            "a": n.model_change.a_map.to_text(),
            "b": n.model_change.b_map.to_text(),
        },
        "normalized_gamma": _fractions(n.normalized.gamma),
    }


def report_to_dict(r: AnalysisReport) -> Dict:
    return {
        "k": r.k,
        "gamma": _fractions(r.gamma),
        "case": _case_dict(r.case),
        "finite_type": type_dict(r.finite_type),
        "singular_locus": locus_dict(r.locus),
        "normalization": _normalization_dict(r.normalization),
        "algebra": {
            "dimension": r.algebra.dimension,
            "weights": list(r.algebra.weights),
            "generators": list(r.algebra.generators),
            "structure_constants": [
                [_fractions(cell) for cell in row]
                for row in r.algebra.structure_constants
            ],
            "profile": _profile_dict(r.algebra.profile),
            "classification": r.algebra.classification,
        },
        "discrete_group": discrete_dict(r.discrete),
        "flow_verification": [verification_dict(v) for v in r.flow_verifications],
        "warnings": list(r.warnings),
    }


def render_text(r: AnalysisReport) -> str:
    return render_report(report_to_dict(r))


def render_report(d: Dict) -> str:
    """The text report of a dict from ``report_to_dict``."""
    lines = [
        f"surface: k={d['k']} gamma=({', '.join(d['gamma'])})",
        f"case: {_describe_case(d['case'])}",
        f"finite type: {describe_type(d['finite_type'])}",
        f"singular locus: {describe_locus(d['singular_locus'])}",
        f"algebra dimension: {d['algebra']['dimension']}",
        f"algebra weights: {d['algebra']['weights']}",
        f"classification: {d['algebra']['classification']}",
    ]
    norm = d["normalization"]
    if norm is not None:
        lines.append(
            "normalized form: gamma* = (" + ", ".join(norm["normalized_gamma"]) + ")"
            + f" via x* = {norm['model_change']['x']}, y* = {norm['model_change']['y']},"
            + f" a* = {norm['model_change']['a']}, b* = {norm['model_change']['b']}"
        )
    for gen in d["algebra"]["generators"]:
        lines.append(f"  generator {gen}")
    prof = d["algebra"]["profile"]
    if prof is not None:
        lines.append(
            "profile: derived dims "
            + str(prof["derived_series_dims"])
            + f", center {prof['center_dim']}"
            + f", killing signature {tuple(prof['killing_signature'])}"
            + f", solvable {prof['is_solvable']}"
        )
        if prof["ad_eigenvalue_data"]:
            lines.append(
                "grading eigenvalues on nilradical: "
                + ", ".join(prof["ad_eigenvalue_data"])
            )
    lines.append(f"discrete group: {d['discrete_group']['kind']}")
    for v in d["flow_verification"]:
        status = "pass" if v["passed"] else "FAIL"
        lines.append(f"flow {v['flow']} (param {', '.join(v['params'])}): {status}")
        for c in v["checks"]:
            mode = "exact" if c["exact"] else "float"
            residual = "none" if c["max_residual"] is None else f"{c['max_residual']:.3e}"
            lines.append(
                f"  {c['check']}: {'pass' if c['passed'] else 'FAIL'} "
                f"({mode}, max residual {residual}){fail_detail(c)}"
            )
    for w in d["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


def fail_detail(c: Dict) -> str:
    """The suffix of a check's text line: ": <detail>" when it failed with a
    detail, else empty, so a passed check's line ends at its residual."""
    return f": {c['detail']}" if not c["passed"] and c["detail"] else ""


def _describe_case(c: Dict) -> str:
    if c["kind"] == MONOMIAL:
        return f"MONOMIAL (iota={c['iota']})"
    if c["kind"] == BINOMIAL:
        return f"BINOMIAL (delta={c['delta']}, nu={c['nu']})"
    return GENERIC


def describe_type(t: Dict) -> str:
    if t["kind"] == "FINITE":
        return f"FINITE k={t['k']} gamma=({', '.join(t['gamma'])})"
    return t["kind"]


def describe_locus(l: Dict) -> str:
    if l["kind"] == LINE:
        return f"LINE ({l['line']})"
    if l["kind"] == "PENCIL":
        return f"PENCIL ({l['line_count']} real lines)"
    return l["kind"]


# -- JSON schema ----------------------------------------------------------------

_RATIONAL = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}

ANALYSIS_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": [
        "k",
        "gamma",
        "case",
        "finite_type",
        "singular_locus",
        "normalization",
        "algebra",
        "discrete_group",
        "flow_verification",
        "warnings",
    ],
    "properties": {
        "k": {"type": "integer", "minimum": 3},
        "gamma": {"type": "array", "items": _RATIONAL},
        "case": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["MONOMIAL", "BINOMIAL", "GENERIC"]},
                "iota": {"type": "integer"},
                "delta": _RATIONAL,
                "nu": _RATIONAL,
            },
            "additionalProperties": False,
        },
        "finite_type": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["FINITE", "INFINITE"]},
                "k": {"type": "integer"},
                "gamma": {"type": "array", "items": _RATIONAL},
                "normalized": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "singular_locus": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["POINT", "LINE", "PENCIL"]},
                "line": {"type": "string"},
                "line_count": {"type": "integer"},
            },
            "additionalProperties": False,
        },
        "normalization": {
            "type": ["object", "null"],
            "required": ["change", "model_change", "normalized_gamma"],
            "properties": {
                "change": {
                    "type": "object",
                    "additionalProperties": {"type": "string"},
                },
                "model_change": {
                    "type": "object",
                    "additionalProperties": {"type": "string"},
                },
                "normalized_gamma": {"type": "array", "items": _RATIONAL},
            },
            "additionalProperties": False,
        },
        "algebra": {
            "type": "object",
            "required": [
                "dimension",
                "weights",
                "generators",
                "structure_constants",
                "profile",
                "classification",
            ],
            "properties": {
                "dimension": {"type": "integer"},
                "weights": {"type": "array", "items": {"type": "integer"}},
                "generators": {"type": "array", "items": {"type": "string"}},
                "structure_constants": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "array", "items": _RATIONAL},
                    },
                },
                "profile": {
                    "type": ["object", "null"],
                    "required": [
                        "dimension",
                        "derived_series_dims",
                        "center_dim",
                        "killing_rank",
                        "killing_signature",
                        "is_solvable",
                    ],
                    "properties": {
                        "dimension": {"type": "integer"},
                        "derived_series_dims": {
                            "type": "array",
                            "items": {"type": "integer"},
                        },
                        "center_dim": {"type": "integer"},
                        "killing_rank": {"type": "integer"},
                        "killing_signature": {
                            "type": "array",
                            "items": {"type": "integer"},
                        },
                        "is_solvable": {"type": "boolean"},
                        "derived_killing_signature": {
                            "type": ["array", "null"],
                            "items": {"type": "integer"},
                        },
                        "ad_eigenvalue_data": {
                            "type": ["array", "null"],
                            "items": _RATIONAL,
                        },
                    },
                    "additionalProperties": False,
                },
                "classification": {
                    "enum": [
                        liealg.SL2_PLUS_CENTER,
                        liealg.SOLVABLE_3D_WEIGHTS_K_1,
                        liealg.AFFINE_LINE_2D,
                        liealg.OTHER,
                    ]
                },
            },
            "additionalProperties": False,
        },
        "discrete_group": {
            "type": "object",
            "required": ["kind", "generators"],
            "properties": {
                "kind": {"enum": ["Z2", "Z2xZ2"]},
                "generators": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"enum": [1, -1]},
                        "minItems": 4,
                        "maxItems": 4,
                    },
                },
            },
            "additionalProperties": False,
        },
        "flow_verification": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["flow", "params", "passed", "checks"],
                "properties": {
                    "flow": {"type": "string"},
                    "params": {"type": "array", "items": {"type": "string"}},
                    "passed": {"type": "boolean"},
                    "checks": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["check", "passed", "exact"],
                            "properties": {
                                "check": {"type": "string"},
                                "passed": {"type": "boolean"},
                                "exact": {"type": "boolean"},
                                "max_residual": {"type": ["number", "null"]},
                                "detail": {"type": "string"},
                            },
                            "additionalProperties": False,
                        },
                    },
                },
                "additionalProperties": False,
            },
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
}
