"""Run one workload once, in this (fresh) interpreter, and print its result.

    python3 perfbench/case.py --workload rb-nested --mode full

Modes:
  full   time the whole `cli.main` call; the only hook installed notes the
         first entry into `KSP.solve` or `NewtonSolver.solve` (the end of
         set-up) and how long that outermost solve takes.
  trace  as `full`, with a span around every layer entry point
         (see tracer.py); the spans are written to --spans as JSON.

Just before and just after `cli.main` the case times `probe()`, a fixed
mix of interpreter and numpy work, so that run.py can take out the drift
in speed of a shared machine (see README.md, "Machine speed").

The last line of standard output is one JSON object with the timings,
probe times, iteration counts, residuals and peak resident memory of this
process.
Each run needs its own process: `blocksolve.forms` caches geometry per
mesh for the life of the process, so a second case in the same
interpreter would start with warm caches and a larger resident set.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def probe():
    """Seconds taken by a fixed piece of work like a case's: a Python loop
    of small numpy products, as in element kernels, then dense products."""
    rng = np.random.default_rng(0)
    a, x, b = rng.random((20, 20)), rng.random(20), rng.random((200, 200))
    t0 = time.perf_counter()
    s = 0.0
    for i in range(60000):
        y = a @ x
        s += float(y[i % 20]) * 0.5
    for _ in range(20):
        b @ b
    return time.perf_counter() - t0


class SolveClock:
    """Times the first (hence outermost) solve call and keeps its result."""

    def __init__(self):
        self.entered = None
        self.left = None
        self.solver = None
        self.args = None
        self.result = None

    def wrap(self, fn):
        def clocked(solver, *args, **kwargs):
            if self.entered is not None:
                return fn(solver, *args, **kwargs)
            self.entered = time.perf_counter()
            result = fn(solver, *args, **kwargs)
            self.left = time.perf_counter()
            self.solver, self.args, self.result = solver, args, result
            return result
        return clocked


def _outcome(clock):
    """Iteration counts and the final relative residual of the outermost
    solve, measured the way that solver tests convergence."""
    solver, report = clock.solver, clock.result[1]
    if hasattr(report, "linear_iterations"):     # NewtonReport
        norms = report.residual_norms
        return {"converged": bool(report.converged),
                "linear_its": int(report.linear_iterations),
                "newton_its": int(report.iterations),
                "rel_residual": norms[-1] / norms[0],
                "rtol": solver.rtol}
    # a KSP started from zero: its initial residual is b
    b = clock.args[1]
    if solver.side == "left" and solver.pc is not None:
        z = solver.pc.apply(b)
        rnorm0 = (np.sqrt(abs(np.dot(b, z))) if solver.type == "cg"
                  else np.linalg.norm(z))
    else:
        rnorm0 = np.linalg.norm(b)
    return {"converged": bool(report.converged),
            "linear_its": int(report.iterations),
            "newton_its": 0,
            "rel_residual": report.residual_norm / rnorm0,
            "rtol": solver.rtol}


def run(workload, size, mode, spans_path=None):
    if not (ROOT / "src" / "blocksolve" / "cli.py").is_file():
        raise SystemExit(f"blocksolve sources not found under {ROOT / 'src'}")
    from blocksolve import cli, krylov, newton

    clock = SolveClock()
    krylov.KSP.solve = clock.wrap(krylov.KSP.solve)
    newton.NewtonSolver.solve = clock.wrap(newton.NewtonSolver.solve)
    call = cli.main
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        call = tracer.wrap(cli.main, "cli.main")

    argv = WORKLOADS[workload][size]
    out = io.StringIO()
    result = {"workload": workload, "size": size, "mode": mode}
    probe_before = probe()
    c0, t0 = time.process_time(), time.perf_counter()
    code = call(argv, stdout=out)
    t1, c1 = time.perf_counter(), time.process_time()
    result.update(exit_code=code, total_s=t1 - t0, cpu_s=c1 - c0,
                  setup_s=clock.entered - t0,
                  solve_s=clock.left - clock.entered,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  probe_s=(probe_before + probe()) / 2)
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    result.update(_outcome(clock))
    match = re.search(r"l2_error=(\S+)", out.getvalue())
    if match:
        result["l2_error"] = float(match.group(1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--mode", default="full",
                        choices=("full", "trace"))
    parser.add_argument("--spans", help="span output file (trace mode)")
    args = parser.parse_args(argv)
    if args.mode == "trace" and not args.spans:
        parser.error("--mode trace needs --spans")
    print(json.dumps(run(args.workload, args.size, args.mode, args.spans)))


if __name__ == "__main__":
    main()
