"""One benchmark worker: a fresh interpreter that runs one pass and exits.

Reads a JSON job on stdin and writes one JSON result on stdout.  Modes:

- ``setup``: import paracr and build the items; report the time taken, raw
  and in reference seconds (``calib.py``).
- ``pass``: run every item once, closed loop, tracing off; check each answer
  against the known results before the next item starts.  Times are also
  given in reference seconds, from a ``calib.Sampler`` that runs from the
  start of set-up to the end of the pass (unless the job says ``sample:
  false``).
- ``trace``: run the same items stage by stage through the public functions
  of each layer, recording spans and counts.

Only public names of paracr are used; paracr must be importable (the load
generator puts the repository's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import time

# set-up time = importing paracr + building the items, so paracr is imported
# below this line, not with the standard imports
SETUP_START = time.perf_counter()

import calib  # noqa: E402

SAMPLER = calib.Sampler()
SAMPLER.start()
SETUP_MARK = SAMPLER.mark(SETUP_START)

import contextlib
import io
import json
import os
import resource
import sys
from fractions import Fraction

from paracr import cli, flows, liealg, linalg, normalform, poly, report, solver, surface
from workloads import FLOW_SAMPLES, RK4_STEPS

# Flow parameters and group-law partners used by `analyze`; the traced
# pipeline repeats them, and the verdict comparison catches any drift.
FLOW_PARAMS = {
    "EXP_Vmk": (Fraction(1), Fraction(1, 2)),
    "EXP_V0": (Fraction(2), Fraction(3, 2)),
    "EXP_V0PRIME": (Fraction(3), Fraction(2)),
    "EXP_VK": (Fraction(1, 10), Fraction(1, 7)),
    "EXP_Vm1": (Fraction(1, 10), Fraction(1, 7)),
}

now = time.perf_counter


def _build(items):
    built = []
    for item in items:
        s = surface.ModelSurface(item["k"], tuple(Fraction(g) for g in item["gamma"]))
        item_flows = [(name, Fraction(p)) for name, p in item.get("flows", ())]
        built.append((item, s, item_flows))
    return built


def _cap(item):
    return item["cap"] if item["cap"] is not None else 3 * item["k"]


def _analyze_failures(item, verdict, warnings):
    exp = item["expect"]
    out = []
    for key in ("case", "dimension", "classification", "locus"):
        if exp[key] is not None and verdict[key] != exp[key]:
            out.append(f"{key} {verdict[key]!r} != known {exp[key]!r}")
    failed_flows = [name for name, _, ok in verdict["flows"] if not ok]
    if failed_flows:
        out.append(f"flow verification failed: {failed_flows}")
    if not verdict["flows"]:
        out.append("no flow was verified")
    out += [w for w in warnings if w.startswith("closure:")]
    return out


def _report_verdict(rep):
    return {
        "case": rep.case.kind,
        "dimension": rep.algebra.dimension,
        "classification": rep.algebra.classification,
        "locus": rep.locus.kind,
        "flows": [[v.flow_name, list(v.params), v.passed] for v in rep.flow_verifications],
    }


def _report_json(rep):
    # byte-identical to what `paracr analyze --format json` prints
    return json.dumps(report.report_to_dict(rep), sort_keys=True, indent=2) + "\n"


def _rk4_points(fm, samples):
    """The sample points that rk4_mismatch would not skip (it skips the others).

    The points are acceptance criterion 7's: `sample_on_surface(s, 20)` at
    paracr's default seed, not the workload seed, so the RK4 work is the same
    for every seed.  An empty list is reported, so a pass over none is caught.
    """
    exists = fm.ode_domain_check or fm.domain_check
    points = []
    for p in samples:
        fp = tuple(float(v) for v in p)
        if fm.domain_check(fp) is None and exists(fp) is None:
            points.append(p)
    return points


def _rk4_failures(item, worst, admitted):
    out = []
    for name, w in worst.items():
        if not w < item["expect"]["max_mismatch"]:
            out.append(f"{name}: rk4 mismatch {w!r} >= {item['expect']['max_mismatch']}")
    for name, n in admitted.items():
        if n == 0:
            out.append(f"{name}: rk4 oracle checked no sample")
    return out


def _oracle_failures(item, dim):
    if dim != item["expect"]["dimension"]:
        return [f"dimension {dim} != known {item['expect']['dimension']}"]
    return []


# -- untraced pass ----------------------------------------------------------------


def _pass_item(item, s, item_flows, seed):
    """Run and check one item; returns its record and, for `analyze`, the report."""
    t0 = now()
    if item["kind"] == "analyze":
        rep = report.analyze(item["k"], s.gamma, weight_cap=item["cap"], seed=seed,
                             flow_samples=FLOW_SAMPLES)
        t1 = now()
        json.dumps(report.report_to_dict(rep), sort_keys=True)
        report.render_text(rep)
        verdict = _report_verdict(rep)
        return {"pipeline_s": t1 - t0, "verdict": verdict,
                "failures": _analyze_failures(item, verdict, rep.warnings)}, rep
    if item["kind"] == "oracle":
        dim = 0
        failures = []
        try:
            for m in range(-s.k, _cap(item) + 1):
                dim += solver.solve_weight(s, m).dimension
                solver.brute_force_check(s, m)
        except solver.OracleMismatchError as exc:
            failures.append(f"oracle: {exc}")
        t1 = now()
        failures += _oracle_failures(item, dim)
        return {"pipeline_s": t1 - t0, "verdict": {"dimension": dim}, "failures": failures}, None
    samples = flows.sample_on_surface(s, FLOW_SAMPLES)
    worst, admitted = {}, {}
    for name, param in item_flows:
        fm = flows.flow(name, s, param)
        points = _rk4_points(fm, samples)
        worst[name] = flows.rk4_mismatch(fm, points, steps=RK4_STEPS)
        admitted[name] = len(points)
    t1 = now()
    return {"pipeline_s": t1 - t0, "verdict": {"worst": worst, "admitted": admitted},
            "failures": _rk4_failures(item, worst, admitted)}, None


def run_pass(built, seed, cli_items):
    _require_cold()
    results = []
    for item, s, item_flows in built:
        mark = SAMPLER.mark()
        try:
            rec, rep = _pass_item(item, s, item_flows, seed)
        except Exception as exc:  # an item that raises is a failed item; go on
            rec, rep = {"failures": [f"raised {exc!r}"]}, None
        item_s, item_ref_s = SAMPLER.since(mark)
        rec.update(id=item["id"], item_s=item_s, item_ref_s=item_ref_s)
        if rep is not None:
            rec["json"] = _report_json(rep)
        results.append(rec)
    SAMPLER.stop()
    pass_s = sum(rec["item_s"] for rec in results)
    pass_ref_s = sum(rec["item_ref_s"] for rec in results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # reference JSON for the child CLI calls, outside the timed pass
    done = {(it["k"], tuple(it["gamma"]), it["cap"]): r.get("json")
            for (it, _, _), r in zip(built, results)}
    cli_json = {}
    for c in cli_items:
        key = (c["k"], tuple(c["gamma"]), c["cap"])
        if done.get(key) is None:
            rep = report.analyze(c["k"], [Fraction(g) for g in c["gamma"]],
                                 weight_cap=c["cap"], seed=seed)
            done[key] = _report_json(rep)
        cli_json[c["id"]] = done[key]
    return {"pass_s": pass_s, "pass_ref_s": pass_ref_s, "rss_mb": rss_mb, "items": results,
            "cli_json": cli_json}


def _require_cold():
    # a warm solve_weight cache would time cache hits, not the cold cost a user pays
    if solver.solve_weight.cache_info().currsize != 0:
        raise RuntimeError("solve_weight cache is not empty before the pass")


# -- traced pass --------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent, item) and counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, item):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now(), None, parent, item])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = now()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


def _kernel_probe(tr, item_id, s, cap):
    """Residual assembly and Bareiss elimination timed apart; returns kernel dims."""
    dims = {}
    for m in range(-s.k, cap + 1):
        with tr.span("surface.tangency_residual", item_id):
            ansatz = solver.build_ansatz(s, m)
            residuals = [surface.tangency_residual(ansatz.unit_field(i), s)
                         for i in range(len(ansatz))]
        tr.count("surface.residual_terms", sum(len(r) for r in residuals))
        if not residuals:
            dims[m] = 0
            continue
        with tr.span("solver.assemble_rows", item_id):
            monomials = sorted({e for r in residuals for e, _ in r.items()}, key=poly.order_key)
            rows = [[r.coefficient(e) for r in residuals] for e in monomials]
        with tr.span("linalg.nullspace_bareiss", item_id):
            kernel = linalg.nullspace_bareiss(rows, len(ansatz))
        dims[m] = len(kernel)
    return dims


def _solve_weights(tr, item_id, s, cap, oracle):
    dims = {}
    for m in range(-s.k, cap + 1):
        with tr.span("solver.solve_weight", item_id):
            kb = solver.solve_weight(s, m)
        dims[m] = kb.dimension
        tr.count("solver.weights_solved", 1)
        tr.count("solver.system_entries", kb.system_shape[0] * kb.system_shape[1])
        tr.count("solver.kernel_dim", kb.dimension)
        if oracle:
            with tr.span("solver.brute_force_check", item_id):
                ob = solver.brute_force_check(s, m)
            tr.count("solver.oracle_points", ob.system_shape[0])
    return dims


def _traced_analyze(tr, item, s, seed):
    """The stages of `report.analyze`, in its order, each in its own span."""
    iid, cap = item["id"], _cap(item)
    with tr.span("normalform.detect_case", iid):
        detection = normalform.detect_case(s)
    with tr.span("normalform.finite_type", iid):
        normalform.finite_type(normalform.DefiningFunction(s.p))
    with tr.span("normalform.singular_locus", iid):
        locus = normalform.singular_locus(s)
    if detection.kind == normalform.BINOMIAL:
        with tr.span("normalform.normalize_binomial", iid):
            normalform.normalize_binomial(s, detection)
    _solve_weights(tr, iid, s, cap, oracle=False)
    with tr.span("solver.solve_algebra", iid):
        algebra = solver.solve_algebra(s, item["cap"])
    tr.count("solver.bracket_pairs", algebra.dimension * (algebra.dimension - 1) // 2)
    label = liealg.OTHER
    if not algebra.closure_violations:
        with tr.span("liealg.structure_constants", iid):
            sc = liealg.structure_constants(algebra)
        with tr.span("liealg.profile", iid):
            prof = liealg.profile(sc)
        with tr.span("liealg.classify", iid):
            label = liealg.classify(prof).label
    if detection.kind == normalform.BINOMIAL:
        with tr.span("flows.vm1_transcription_mismatch", iid):
            flows.vm1_transcription_mismatch(s)
    with tr.span("flows.sample_on_surface", iid):
        samples = flows.sample_on_surface(s, FLOW_SAMPLES, seed=seed)
    verdicts = []
    for name in flows.admissible_flow_names(detection):
        param, partner = FLOW_PARAMS[name]
        with tr.span("flows.flow", iid):
            fm = flows.flow(name, s, param)
        with tr.span("flows.verify_flow", iid):
            ver = flows.verify_flow(fm, samples, group_partner=partner)
        tr.count("flows.samples_checked", len(ver.witnesses))
        verdicts.append([ver.flow_name, list(ver.params), ver.passed])
    with tr.span("flows.discrete_group", iid):
        flows.discrete_group(s)
    return {
        "case": detection.kind,
        "dimension": algebra.dimension,
        "classification": label,
        "locus": locus.kind,
        "flows": verdicts,
    }


def _cli_args(item):
    args = ["analyze", "--k", str(item["k"]), "--gamma=" + ",".join(item["gamma"])]
    if item["cap"] is not None:
        args += ["--weight-cap", str(item["cap"])]
    return args + ["--format", "json"]


def _trace_item(tr, item, s, item_flows, seed):
    iid = item["id"]
    failures = []
    if item["kind"] in ("analyze", "oracle"):
        # residual assembly and elimination timed apart, outside the pipeline span
        probe = _kernel_probe(tr, iid, s, _cap(item))
    if item["kind"] == "analyze":
        with tr.span("pipeline", iid):
            verdict = _traced_analyze(tr, item, s, seed)
        if probe != {m: solver.solve_weight(s, m).dimension for m in probe}:
            failures.append("Bareiss probe kernel dimensions differ from solve_weight")
        rep = report.analyze(item["k"], s.gamma, weight_cap=item["cap"], seed=seed,
                             flow_samples=FLOW_SAMPLES)
        with tr.span("report.report_to_dict", iid):
            report.report_to_dict(rep)
        with tr.span("report.render_text", iid):
            report.render_text(rep)
        out = io.StringIO()
        with tr.span("cli.main", iid), contextlib.redirect_stdout(out):
            code = cli.main(_cli_args(item))
        if code != 0:
            failures.append(f"cli.main exited {code}")
        failures += _analyze_failures(item, verdict, rep.warnings)
        return {"verdict": verdict, "json": out.getvalue(), "failures": failures}
    if item["kind"] == "oracle":
        try:
            with tr.span("pipeline", iid):
                dims = _solve_weights(tr, iid, s, _cap(item), oracle=True)
        except solver.OracleMismatchError as exc:
            return {"failures": [f"oracle: {exc}"]}
        if probe != dims:
            failures.append("Bareiss probe kernel dimensions differ from solve_weight")
        dim = sum(dims.values())
        failures += _oracle_failures(item, dim)
        return {"verdict": {"dimension": dim}, "failures": failures}
    worst, admitted = {}, {}
    with tr.span("pipeline", iid):
        with tr.span("flows.sample_on_surface", iid):
            samples = flows.sample_on_surface(s, FLOW_SAMPLES)
        for name, param in item_flows:
            with tr.span("flows.flow", iid):
                fm = flows.flow(name, s, param)
            points = _rk4_points(fm, samples)
            with tr.span("flows.rk4_mismatch", iid):
                worst[name] = flows.rk4_mismatch(fm, points, steps=RK4_STEPS)
            admitted[name] = len(points)
    tr.count("flows.samples_checked", sum(admitted.values()))
    failures += _rk4_failures(item, worst, admitted)
    return {"verdict": {"worst": worst, "admitted": admitted}, "failures": failures}


def run_trace(built, seed):
    _require_cold()
    os.environ["PARACR_SEED"] = str(seed)  # what `paracr analyze` reads for its seed
    tr = Tracer()
    results = []
    for item, s, item_flows in built:
        try:
            rec = _trace_item(tr, item, s, item_flows, seed)
        except Exception as exc:  # an item that raises is a failed item; go on
            rec = {"failures": [f"raised {exc!r}"]}
        rec["id"] = item["id"]
        results.append(rec)
    return {"items": results, "spans": tr.spans, "counts": tr.counts}


def main():
    job = json.load(sys.stdin)
    built = _build(job["items"])
    setup_s, setup_ref_s = SAMPLER.since(SETUP_MARK)
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s}
    if job["mode"] != "pass" or not job.get("sample", True):
        SAMPLER.stop()  # spans and the traced run's reference times stay unperturbed
    if job["mode"] == "pass":
        result.update(run_pass(built, job["seed"], job["cli_items"]))
    elif job["mode"] == "trace":
        result.update(run_trace(built, job["seed"]))
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
