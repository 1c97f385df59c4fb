"""Solver benchmark: time to solution, set-up and peak memory of blocksolve.

    python3 perfbench/run.py --workload rb-nested --seed 1 --seconds 40 \
        --trace 0

Runs one workload (see workloads.py, or `all` for each in turn) as a closed
loop: one case at a time, each in a fresh single-threaded interpreter
(case.py).  Once MIN_FULL cases have passed their correctness gates it
starts no case that would end after --seconds, judged by the median length
of the cases so far.  The inputs are fixed PDE problems, so every --seed
runs the same cases; the seed only names the run.

--trace 0 reports the end-to-end metrics (medians over the cases).  Times
are wall times scaled to a fixed machine speed: each case times a fixed
probe around its `cli.main` call, and its times are multiplied by
REFERENCE_PROBE_S / (its probe time).
--trace 1 adds one traced case, with a span around every layer entry point,
and reports the per-layer metrics of that case plus its tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The full
record of every case is written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

from layers import UNITS, layer_metrics  # noqa: E402
from workloads import L2_RTOL, WORKLOADS  # noqa: E402

MIN_FULL = 3
# no case may push the whole run past this many seconds
HARD_LIMIT_S = 170.0

END_TO_END = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "linear_its": "count"}
# printed beside the end-to-end metrics, but not bounded in BENCHMARK.json:
# solve_s of poisson-aij-3d is a few hundredths of a second, newton_its is 0
# on linear problems, failed_runs is 0 when all is well (the JSON result
# carries it as failed / attempted), and wall_total_s (total_s unscaled) and
# speed (REFERENCE_PROBE_S / probe time) drift with the machine
EXTRA = {"solve_s": "s", "newton_its": "count", "failed_runs": "share",
         "wall_total_s": "s", "speed": "ratio"}
TIMES = ("total_s", "setup_s", "solve_s")
# median time of case.probe() on the machine the benchmark was written on
# (see README.md): scaled times read as seconds at that machine's usual speed
REFERENCE_PROBE_S = 0.14
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def scaled(case, name):
    """A case's metric, with times scaled to the reference machine speed."""
    if name in TIMES:
        return case[name] * REFERENCE_PROBE_S / case["probe_s"]
    if name == "wall_total_s":
        return case["total_s"]
    if name == "speed":
        return REFERENCE_PROBE_S / case["probe_s"]
    return case[name]


def _child_env():
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
                **SINGLE_THREAD)


def run_case(workload, size, mode, deadline, spans=None):
    """One case in a fresh interpreter; returns its record, with `error`
    set when it did not finish or did not pass its gates."""
    cmd = [sys.executable, str(HERE / "case.py"), "--workload", workload,
           "--size", size, "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    timeout = max(1.0, deadline - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "wall_s": time.monotonic() - started,
                "error": f"timed out after {timeout:.0f} s"}
    wall_s = time.monotonic() - started
    lines = proc.stdout.strip().splitlines() or [""]
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 else None
    except json.JSONDecodeError:
        record = None
    if record is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
        return {"mode": mode, "wall_s": wall_s,
                "error": f"exit status {proc.returncode}: {tail[0]}"}
    record["wall_s"] = wall_s
    error = gate(record, WORKLOADS[workload].get("l2_error", {}).get(size))
    if error:
        record["error"] = error
    return record


def gate(record, l2_ref):
    """Why a case's outputs are wrong, or None."""
    if record["exit_code"] != 0:
        return f"cli.main returned {record['exit_code']}"
    if not record["converged"]:
        return "outermost solve did not converge"
    if not record["rel_residual"] <= record["rtol"]:
        return (f"relative residual {record['rel_residual']:.3e} above "
                f"rtol {record['rtol']:.1e}")
    l2 = record.get("l2_error")
    if l2_ref is not None and not (l2 is not None
                                   and abs(l2 - l2_ref) <= L2_RTOL * l2_ref):
        return f"l2_error {l2}, expected {l2_ref:.6e}"
    return None


def schedule(trace):
    """Endless sequence of case modes.  The traced case follows the first
    full case, so that the untraced cases it is compared with run both
    before and after it."""
    yield "full"
    if trace:
        yield "trace"
    while True:
        yield "full"


def run_workload(workload, seed, seconds, trace, size="full"):
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    cases = []
    spans_path = OUT / f"spans-{workload}-{size}-seed{seed}.json"
    for mode in schedule(trace):
        passed = [c["wall_s"] for c in cases
                  if c["mode"] == "full" and "error" not in c]
        failed = any("error" in c for c in cases)
        ends = (time.monotonic() - start
                + (statistics.median(passed) if passed else 0.0))
        if (len(passed) >= MIN_FULL or failed) and ends > seconds:
            break
        if time.monotonic() >= deadline:
            break
        cases.append(run_case(workload, size, mode, deadline,
                              spans_path if mode == "trace" else None))

    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "cases": cases}
    traced = next((c for c in cases if c["mode"] == "trace"), None)
    if traced is not None and "error" not in traced:
        with open(spans_path) as fh:
            metrics = layer_metrics(json.load(fh))
        untraced = [c for c in cases if c["mode"] == "full"
                    and "error" not in c]
        if untraced:
            metrics["trace.overhead_s"] = (
                scaled(traced, "total_s")
                - statistics.median(scaled(c, "total_s") for c in untraced))
        mismatch = [k for k in ("linear_its", "newton_its", "rel_residual",
                                "l2_error")
                    if any(c.get(k) != traced.get(k) for c in untraced)]
        if mismatch or not untraced:
            traced["error"] = ("traced run differs from untraced runs in "
                               + ", ".join(mismatch or ["(no untraced run)"]))
        result["layers"] = metrics
    return result


def _summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def end_to_end(result):
    """Every end-to-end metric (and the extras) as (median, q1, q3, n)."""
    cases = result["cases"]
    full = [c for c in cases if c["mode"] == "full" and "error" not in c]
    rows = {}
    for name in (*END_TO_END, *EXTRA):
        if full and name != "failed_runs":
            rows[name] = (*_summary([scaled(c, name) for c in full]),
                          len(full))
    failed = sum(1 for c in cases if "error" in c) / max(len(cases), 1)
    rows["failed_runs"] = (failed, failed, failed, len(cases))
    return rows


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            **SINGLE_THREAD}


def report(result):
    """Print the human-readable lines of one workload; return its JSON
    metrics."""
    w = result["workload"]
    rows = end_to_end(result)
    print(f"== {w}  seed={result['seed']}  cases={len(result['cases'])}")
    for case in result["cases"]:
        if "error" in case:
            print(f"   FAILED {case['mode']} case: {case['error']}")
    for name, unit in {**END_TO_END, **EXTRA}.items():
        if name in rows:
            med, q1, q3, n = rows[name]
            print(f"   {name:<14} {med:>12.6g} {unit:<6} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
    if result["trace"]:
        layers = result.get("layers", {})
        for name, unit in UNITS.items():
            if name in layers:
                seconds = (f"  ({layers[name] * layers['trace.total_s']:.4g}"
                           " s)" if unit == "share" else "")
                print(f"   {name:<36} {layers[name]:>12.6g} {unit}{seconds}")
        return {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
    return {k: {"value": rows[k][0], "unit": u}
            for k, u in END_TO_END.items() if k in rows}


def missing_inputs():
    """Files the benchmark needs from the checkout that are not there."""
    need = [ROOT / "src" / "blocksolve" / "cli.py"]
    for spec in WORKLOADS.values():
        argv = spec["full"]
        need += [ROOT / argv[i + 1] for i, a in enumerate(argv)
                 if a == "--options-file"]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny meshes, for a quick check of the harness")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so that subprocess.run kills and reaps the
    # running case instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = missing_inputs()
    if missing:
        print("perfbench: run from a blocksolve checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    OUT.mkdir(exist_ok=True)
    for w in names:
        result = run_workload(w, args.seed, args.seconds, args.trace,
                              args.size)
        result["environment"] = env
        name = f"{w}-{args.size}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(result, indent=1))
        attempted += len(result["cases"])
        failed += sum(1 for c in result["cases"] if "error" in c)
        m = report(result)
        metrics.update(m if len(names) == 1
                       else {f"{w}/{k}": v for k, v in m.items()})
    expected = UNITS if args.trace else END_TO_END
    complete = all((k if len(names) == 1 else f"{w}/{k}") in metrics
                   for w in names for k in expected)
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
