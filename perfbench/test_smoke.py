"""Smoke test of the benchmark harness, on tiny meshes (about a minute).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that run.py emits every metric of BENCHMARK.json, with its unit, on
every workload, that the layers each workload exercises show work, and
that the module self times of the traced case add up to its total.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import MODULES, UNITS  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics that must be non-zero on a workload: the layers it runs
RUNS = {
    "poisson-schwarz": [
        "mesh.build_share", "spaces.function_space_calls",
        "forms.kernel_calls", "forms.action_calls", "forms.assemble_calls",
        "forms.load_vector_share", "operators.matfree_apply_calls",
        "operators.matfree_flops_per_apply", "krylov.solve_calls",
        "krylov.op_applies", "precond.schwarz.setup_share",
        "precond.schwarz.apply_calls", "factory.tree_builds",
        "problems.l2_error_share"],
    "rb-nested": [
        "mesh.build_share", "spaces.function_space_calls",
        "forms.kernel_calls", "forms.action_calls", "forms.assemble_calls",
        "forms.residual_calls", "operators.matfree_apply_calls",
        "operators.csr_apply_calls", "operators.extract_sub_calls",
        "krylov.iterations", "krylov.applies_per_iteration",
        *[f"precond.{t}.apply_calls" for t in
          ("lu", "sor", "assembled", "telescope", "ksp", "fieldsplit",
           "pcd")],
        "precond.fieldsplit.setup_share", "precond.pcd.setup_share",
        "precond.schur.apply_calls", "factory.tree_builds", "newton.its",
        "newton.self_share"],
    "poisson-aij-3d": [
        "mesh.build_share", "spaces.function_space_calls",
        "forms.kernel_calls", "forms.assemble_calls",
        "forms.space_eval_share", "operators.csr_apply_calls",
        "precond.sor.setup_share", "precond.sor.apply_calls",
        "krylov.solve_calls"],
}
# layers a workload must not reach: the benchmark's "no change" predictions
IDLE = {
    "poisson-schwarz": ["newton.its", "forms.residual_calls",
                        "precond.fieldsplit.apply_calls"],
    "rb-nested": ["precond.schwarz.apply_calls", "problems.l2_error_share"],
    "poisson-aij-3d": ["forms.action_calls", "precond.schwarz.apply_calls",
                       "problems.l2_error_share"],
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--size", "tiny", "--seconds", "0", "--seed", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_names_and_units_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(UNITS.items())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(RUNS) == set(IDLE) == set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(workload):
    out = _run(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_metrics(workload):
    out = _run(workload, 1)
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == UNITS
    value = {k: v["value"] for k, v in metrics.items()}
    assert [k for k in RUNS[workload] if not value[k] > 0] == []
    assert [k for k in IDLE[workload] if value[k] != 0] == []
    shares = sum(value[f"{m}.self_share"] for m in MODULES)
    assert shares == pytest.approx(1.0, rel=1e-9)
