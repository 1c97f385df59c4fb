"""Each script in scripts/ runs at its smallest size and prints its CSV
header and one row, so a change to the library API cannot break them
unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
