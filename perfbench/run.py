"""paracr benchmark: the load generator.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from anywhere; paracr is imported from the ``src`` directory next to
this one.  Every timed pass runs in a fresh worker process
(``perfbench/worker.py``), one at a time, so each pass pays the cold cost a
`paracr` user pays.  With ``--trace 0`` the end-to-end metrics are printed,
in reference seconds (``perfbench/calib.py``: the host's CPU speed swings);
the raw medians are printed with the environment.  With ``--trace 1`` one
untraced and one traced pass give the per-layer metrics, in raw seconds.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment,
every failure and (when traced) every span go to ``.bench_out/`` at the
repository root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUPS = 15  # fresh-worker set-ups per run, at least (each pass gives two)
IMPORT_WORKERS = 3
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
STAGES = (
    "solver.solve_weight",
    "surface.tangency_residual",
    "linalg.nullspace_bareiss",
    "solver.solve_algebra",
    "liealg.structure_constants",
    "liealg.profile",
    "liealg.classify",
    "normalform.detect_case",
    "normalform.finite_type",
    "normalform.singular_locus",
    "normalform.normalize_binomial",
    "flows.sample_on_surface",
    "flows.flow",
    "flows.verify_flow",
    "flows.discrete_group",
    "solver.brute_force_check",
    "flows.rk4_mismatch",
    "report.report_to_dict",
    "report.render_text",
    "cli.main",
)
COUNTS = (
    "solver.weights_solved",
    "solver.system_entries",
    "solver.kernel_dim",
    "surface.residual_terms",
    "solver.bracket_pairs",
    "flows.samples_checked",
    "solver.oracle_points",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in STAGES},
    "cli.import_s": "s",
    "cli.analyze_child_s": "s",
    **{name: "count" for name in COUNTS},
    **{name: "s" for name in workloads.per_item_metric_names()},
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
    "env.calib_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Run:
    """One invocation: its deadline, its checked items and its failures."""

    def __init__(self, workload, seed, seconds, smoke=False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.items = workloads.items_for(workload, seed)
        if smoke:
            self.items = self.items[:1]
        self.smoke = smoke
        self.attempted = 0
        self.failures = []

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.start)

    def check(self, item_id, failures):
        self.attempted += 1
        if failures:
            self.failures.append({"item": item_id, "failures": list(failures)})

    def child(self, args, stdin=None):
        env = dict(os.environ, PYTHONPATH=str(SRC), PARACR_SEED=str(self.seed))
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before starting a child process")
        try:
            return subprocess.run(
                [sys.executable, *args], input=stdin, capture_output=True, text=True,
                cwd=ROOT, env=env, timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            raise BenchError(f"child {args[:2]} did not finish within the run deadline")

    def worker(self, mode, items, cli_items=(), sample=True):
        job = {"mode": mode, "seed": self.seed, "items": items, "cli_items": list(cli_items),
               "sample": sample}
        proc = self.child([str(HERE / "worker.py")], stdin=json.dumps(job))
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout)


# -- end-to-end (tracing off) --------------------------------------------------


def end_to_end(run):
    """Passes, each in a fresh worker, for about --seconds (at least one pass).

    Times are the workers' reference seconds; the raw ones go to the record.
    """
    run.worker("setup", run.items)  # may compile bytecode in a fresh checkout; not timed
    passes = []
    setups = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = run.worker("pass", run.items)
        for rec in result["items"]:
            run.check(rec["id"], rec["failures"])
        passes.append(result)
        # a set-up-only worker after each pass, so set-up is sampled across the run
        setups += [result, run.worker("setup", run.items)]
        last = time.perf_counter() - t0
        # stop where the measured time lands closest to --seconds
        if run.smoke or time.perf_counter() - start + last / 2 >= run.seconds:
            break
        if run.remaining() < 1.5 * last + 10:  # room for one more pass and the set-ups
            break
    while len(setups) < SETUPS:
        setups.append(run.worker("setup", run.items))
    metrics = {
        "wall_s": statistics.median(p["pass_ref_s"] for p in passes),
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    detail = {
        "passes": [p["pass_ref_s"] for p in passes],
        "passes_raw": [p["pass_s"] for p in passes],
        "setups": [s["setup_ref_s"] for s in setups],
        "setups_raw": [s["setup_s"] for s in setups],
        "items": [{r["id"]: [r["item_s"], r["item_ref_s"]] for r in p["items"]} for p in passes],
    }
    return metrics, detail


# -- per layer (traced run) ---------------------------------------------------------


def cli_call(run, c, reference):
    """One child `paracr analyze` call, checked against the in-process JSON."""
    args = ["-m", "paracr.cli", "analyze", "--k", str(c["k"]),
            "--gamma=" + ",".join(c["gamma"]), "--format", "json"]
    t0 = time.perf_counter()
    proc = run.child(args)
    wall = time.perf_counter() - t0
    failures = []
    if proc.returncode != 0:
        failures.append(f"paracr analyze exited {proc.returncode}: {proc.stderr[-500:]}")
    if proc.stdout != reference[c["id"]]:
        failures.append("paracr analyze JSON differs from the in-process report")
    run.check(c["id"], failures)
    return wall


def import_times(run):
    code = ("import time; t0 = time.perf_counter(); import paracr.cli; "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_WORKERS):
        proc = run.child(["-c", code])
        if proc.returncode != 0:
            raise BenchError(f"import paracr.cli failed: {proc.stderr[-2000:]}")
        times.append(float(proc.stdout))
    return times


def span_metrics(spans, untraced):
    """Stage totals, and how the traced pipeline spans compare with the untraced items.

    ``unaccounted``: untraced item time minus the stage spans directly under
    the item's pipeline span.  ``overhead``: the pipeline span minus the
    untraced item time.  Both are summed over items.
    """
    totals = {name: 0.0 for name in STAGES}
    children = {}
    pipelines = {}
    for index, (name, start, end, parent, item) in enumerate(spans):
        if name in totals:
            totals[name] += end - start
        if name == "pipeline":
            pipelines[index] = (item, end - start)
        elif parent is not None:
            children[parent] = children.get(parent, 0.0) + end - start
    unaccounted = overhead = 0.0
    for index, (item, duration) in pipelines.items():
        unaccounted += untraced[item] - children.get(index, 0.0)
        overhead += duration - untraced[item]
    return totals, unaccounted, overhead


def per_layer(run):
    cli_items = workloads.cli_items(run.items)
    plain = run.worker("pass", run.items, cli_items, sample=False)
    traced = run.worker("trace", run.items)
    untraced = {}
    for rec in plain["items"]:
        run.check(rec["id"], rec["failures"])
        untraced[rec["id"]] = rec.get("pipeline_s", 0.0)
    plain_by_id = {rec["id"]: rec for rec in plain["items"]}
    for rec in traced["items"]:
        failures = list(rec["failures"])
        ref = plain_by_id[rec["id"]]
        if rec.get("verdict") != ref.get("verdict"):
            failures.append(f"traced verdict {rec.get('verdict')} != untraced {ref.get('verdict')}")
        if rec.get("json") != ref.get("json"):
            failures.append("traced report JSON differs from the untraced run")
        run.check(rec["id"] + "/traced", failures)
    totals, unaccounted, overhead = span_metrics(traced["spans"], untraced)
    metrics = {f"{name}_s": totals[name] for name in STAGES}
    metrics["cli.import_s"] = statistics.median(import_times(run))
    metrics["cli.analyze_child_s"] = statistics.median(
        cli_call(run, c, plain["cli_json"]) for c in cli_items
    )
    for name in COUNTS:
        metrics[name] = traced["counts"].get(name, 0)
    for name in workloads.per_item_metric_names():
        metrics[name] = untraced.get(name.split(".", 2)[2], 0.0)
    metrics["trace.unaccounted_s"] = unaccounted
    metrics["trace.overhead_s"] = overhead
    return metrics, {"spans": traced["spans"]}


# -- environment --------------------------------------------------------------------


def read_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(run):
    return {
        "python": platform.python_version(),
        "commit": read_commit(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "smoke": run.smoke,
    }


# -- entry point ----------------------------------------------------------------------


def execute(workload, seed, seconds, trace, smoke=False, items=None):
    """Run one workload and return the result object (last line of output)."""
    if not (SRC / "paracr" / "__init__.py").is_file():
        raise BenchError(f"paracr sources not found under {SRC}")
    run = Run(workload, seed, seconds, smoke)
    if items is not None:
        run.items = items
    env = environment(run)
    speed = statistics.median(calib.sample() for _ in range(200))
    env["calib_s"] = speed
    if trace:
        metrics, detail = per_layer(run)
        metrics["env.calib_s"] = speed
        units = PER_LAYER
    else:
        metrics, detail = end_to_end(run)
        env["wall_raw_s"] = statistics.median(detail["passes_raw"])
        env["setup_raw_s"] = statistics.median(detail["setups_raw"])
        units = END_TO_END
    env["loadavg_end"] = os.getloadavg()
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "failures": run.failures, **detail}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return result, env, run.failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="paracr benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one item, one pass")
    args = parser.parse_args(argv)
    try:
        result, env, failures = execute(args.workload, args.seed, args.seconds,
                                        args.trace, args.smoke)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    for f in failures:
        print(f"FAILED {f['item']}: {'; '.join(f['failures'])}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
