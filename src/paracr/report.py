"""Pipeline orchestration and deterministic report serialization.

``analyze`` runs case detection, finite-type echo, the singular locus, the
full graded algebra with profile and classification, the discrete group and
flow verification, and collects warnings (closure violations, dimension
discrepancies against the expected three-case pattern, a monomial exponent
at the boundary iota = 1 or k - 1, the rejected EXP_Vm1 transcription).
Reports serialize to a stable JSON object: rationals as "p/q" strings,
polynomials as grammar strings, keys sorted.  Each result type has one
serializer (``type_dict``, ``locus_dict``, ``discrete_dict``,
``verification_dict``, ``weight_dict``, ``embedding_dict``), and a record whose
JSON keys are its field names is written from its own fields.
``ANALYSIS_REPORT_SCHEMA`` is built by one closed-object helper, so a key the
schema does not name fails validation in every object of the report, the two
coordinate maps of ``normalization`` included.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import flows as flows_mod
from . import liealg
from .embedding import EmbeddingSeries
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
from .poly import Poly, Rational, as_fraction, format_fraction
from .solver import KernelBasis, solve_algebra
from .surface import ModelSurface, ParaVectorField

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
    warnings = [f"closure: {violation.describe()}" for violation in algebra.closure_violations]
    if algebra.closure_violations:
        label, summary_profile = liealg.OTHER, None
    else:
        summary_profile = liealg.profile(liealg.structure_constants(algebra))
        label = liealg.classify(summary_profile).label
    expected = _EXPECTED_DIMENSION[detection.kind]
    if algebra.dimension != expected:
        extra = sorted(set(algebra.weights) - {-k, 0, k})
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


# -- serialization -------------------------------------------------------------


def _fractions(seq) -> List[str]:
    return [format_fraction(v) for v in seq]


def _component_texts(f: ParaVectorField) -> Dict[str, str]:
    return {name: getattr(f, name).to_text() for name in f.__match_args__}


def _field_text(f: ParaVectorField) -> str:
    return "; ".join(f"{name}={text}" for name, text in _component_texts(f).items())


def _lists(record: NamedTuple) -> Dict:
    """A record's fields by name, each plain tuple (not a record) written as a list."""
    return {name: list(v) if type(v) is tuple else v for name, v in record._asdict().items()}


def _kind_dict(record: NamedTuple, **write: Callable) -> Dict:
    """A record tagged by its ``kind``, whose fields are None unless its kind has
    them: the fields that are set, by name, each through its writer in ``write``."""
    return {
        name: write[name](v) if name in write else v
        for name, v in record._asdict().items()
        if v is not None
    }


def _case_dict(c: CaseDetection) -> Dict:
    return _kind_dict(c, delta=format_fraction, nu=format_fraction)


def type_dict(t: TypeResult) -> Dict:
    return _kind_dict(t, gamma=_fractions, normalized=Poly.to_text)


def locus_dict(l: SingularLocus) -> Dict:
    return _kind_dict(l, line=Poly.to_text)


def _profile_dict(p: Optional[liealg.AlgebraProfile]) -> Optional[Dict]:
    if p is None:
        return None
    eigenvalues = p.ad_eigenvalue_data
    return {
        **_lists(p),
        "ad_eigenvalue_data": None if eigenvalues is None else _fractions(eigenvalues),
    }


def verification_dict(v: flows_mod.FlowVerification) -> Dict:
    return {
        "flow": v.flow_name,
        "params": list(v.params),
        "passed": v.passed,
        "checks": [c._asdict() for c in v.checks],
    }


def flows_dict(verifications: Sequence[flows_mod.FlowVerification]) -> Dict:
    """The JSON of the ``flows`` subcommand: ``flow_verification`` of the report."""
    return {"flows": [verification_dict(v) for v in verifications]}


def discrete_dict(g: flows_mod.DiscreteGroup) -> Dict:
    # each sign map (lam, rho, mu) as its factors on x, y, a, b
    return {"kind": g.kind, "generators": [[e.lam, e.mu, e.mu, e.rho] for e in g.generators]}


def weight_dict(s: ModelSurface, kb: KernelBasis) -> Dict:
    return {
        "k": s.k,
        "gamma": _fractions(s.gamma),
        "weight": kb.weight,
        "dimension": kb.dimension,
        "system_shape": list(kb.system_shape),
        "generators": [_component_texts(f) for f in kb.basis],
    }


def embedding_dict(series: EmbeddingSeries) -> Dict:
    return {
        "psi": series.psi.to_text(),
        "order": series.order,
        "coefficients": [c.to_text() for c in series.coeffs],
    }


def _normalization_dict(n: Optional[BinomialNormalization]) -> Optional[Dict]:
    if n is None:
        return None
    # the x_map, y_map, a_map and b_map fields of each CoordinateChange, keyed x, y, a, b
    change, model_change = (
        {name.removesuffix("_map"): p.to_text() for name, p in c._asdict().items()}
        for c in (n.change, n.model_change)
    )
    return {
        "change": change,
        "model_change": model_change,
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
            **_lists(r.algebra),
            "structure_constants": [
                [_fractions(cell) for cell in row] for row in r.algebra.structure_constants
            ],
            "profile": _profile_dict(r.algebra.profile),
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


def _array(items: Dict, nullable: bool = False) -> Dict:
    return {"type": ["array", "null"] if nullable else "array", "items": items}


def _object(required: Dict, optional: Optional[Dict] = None, nullable: bool = False) -> Dict:
    """A closed object: it must hold each key of ``required``, may hold each key
    of ``optional``, and may hold no other key."""
    return {
        "type": ["object", "null"] if nullable else "object",
        "required": list(required),
        "properties": {**required, **(optional or {})},
        "additionalProperties": False,
    }


_RATIONAL = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}
_INTEGER = {"type": "integer"}
_STRING = {"type": "string"}
_BOOLEAN = {"type": "boolean"}
_RATIONALS = _array(_RATIONAL)
_INTEGERS = _array(_INTEGER)
_STRINGS = _array(_STRING)

ANALYSIS_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    **_object({
        "k": {"type": "integer", "minimum": 3},
        "gamma": _RATIONALS,
        "case": _object(
            {"kind": {"enum": [MONOMIAL, BINOMIAL, GENERIC]}},
            {"iota": _INTEGER, "delta": _RATIONAL, "nu": _RATIONAL},
        ),
        "finite_type": _object(
            {"kind": {"enum": ["FINITE", "INFINITE"]}},
            {"k": _INTEGER, "gamma": _RATIONALS, "normalized": _STRING},
        ),
        "singular_locus": _object(
            {"kind": {"enum": ["POINT", LINE, "PENCIL"]}},
            {"line": _STRING, "line_count": _INTEGER},
        ),
        "normalization": _object(
            {
                # the two coordinate maps: the image of each of x, y, a, b as polynomial text
                "change": _object(dict.fromkeys("xyab", _STRING)),
                "model_change": _object(dict.fromkeys("xyab", _STRING)),
                "normalized_gamma": _RATIONALS,
            },
            nullable=True,
        ),
        "algebra": _object({
            "dimension": _INTEGER,
            "weights": _INTEGERS,
            "generators": _STRINGS,
            "structure_constants": _array(_array(_RATIONALS)),
            "profile": _object(
                {
                    "dimension": _INTEGER,
                    "derived_series_dims": _INTEGERS,
                    "center_dim": _INTEGER,
                    "killing_rank": _INTEGER,
                    "killing_signature": _INTEGERS,
                    "is_solvable": _BOOLEAN,
                },
                {
                    "derived_killing_signature": _array(_INTEGER, nullable=True),
                    "ad_eigenvalue_data": _array(_RATIONAL, nullable=True),
                },
                nullable=True,
            ),
            "classification": {
                "enum": [
                    liealg.SL2_PLUS_CENTER,
                    liealg.SOLVABLE_3D_WEIGHTS_K_1,
                    liealg.AFFINE_LINE_2D,
                    liealg.OTHER,
                ]
            },
        }),
        "discrete_group": _object({
            "kind": {"enum": ["Z2", "Z2xZ2"]},
            "generators": _array({**_array({"enum": [1, -1]}), "minItems": 4, "maxItems": 4}),
        }),
        "flow_verification": _array(_object({
            "flow": _STRING,
            "params": _STRINGS,
            "passed": _BOOLEAN,
            "checks": _array(_object(
                {"check": _STRING, "passed": _BOOLEAN, "exact": _BOOLEAN},
                {"max_residual": {"type": ["number", "null"]}, "detail": _STRING},
            )),
        })),
        "warnings": _STRINGS,
    }),
}
