"""Each script in scripts/ runs at its smallest size and prints its CSV
header and one row, so a change to the library API cannot break them
unnoticed.  Beside the 3D run of rb_scaling.py, the same tree is checked in
process on the unit cube against criterion 7's bounds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from blocksolve.options import OptionsDB
from blocksolve.problems import ConvectionConfig, run_convection

ROOT = Path(__file__).resolve().parents[1]

SMALLEST = {
    "schwarz_robustness.py": (["--ns", "4", "--degrees", "2"],
                              "degree,n,dofs,iterations"),
    "rb_scaling.py": (["--ns", "4"], "n,dofs,newton_its,outer_krylov_its"),
    "pcd_robustness.py": (["--ns", "4"],
                          "n,dofs,newton_its,linear_its,outer_per_step"),
}


def _run(script, args, header):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(header.split(","))
    return lines[1].split(",")


@pytest.mark.parametrize("script", sorted(SMALLEST))
def test_script_runs(script):
    _run(script, *SMALLEST[script])


def test_rb_scaling_runs_in_3d():
    # the unit cube at n=2: P2 velocity, P1 pressure and temperature
    n, dofs, *_ = _run("rb_scaling.py", ["--dim", "3", "--ns", "2"],
                       SMALLEST["rb_scaling.py"][1])
    assert (n, dofs) == ("2", str(3 * 125 + 27 + 27))


def test_rb_iterative_newton_and_outer_work_flat_in_3d():
    # criterion 7's bounds on the unit cube at n = 2, 3 and 4: at most 5
    # Newton steps each, and outer iterations per step at n=4 at most 1.5
    # times those at n=2
    per_step = {}
    for n in (2, 3, 4):
        db = OptionsDB().parse_file(str(ROOT / "configs"
                                        / "rb-iterative.opts"))
        rep = run_convection(ConvectionConfig(n=n, dim=3), db)["report"]
        assert rep.converged and rep.iterations <= 5, (n, rep.iterations)
        per_step[n] = rep.linear_iterations / rep.iterations
    assert per_step[4] <= 1.5 * per_step[2], per_step
