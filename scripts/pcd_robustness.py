#!/usr/bin/env python3
"""Outer Krylov iterations per Newton step for the lid-driven cavity
with the Schur-complement fieldsplit + pressure convection-diffusion
preconditioner, over a mesh refinement sweep."""

import argparse
import pathlib

from blocksolve.options import OptionsDB
from blocksolve.problems import CavityConfig, run_cavity

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / \
    "cavity-pcd.opts"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ns", default="8,16,32")
    ap.add_argument("--re", type=float, default=10.0)
    args = ap.parse_args()

    print("n,dofs,newton_its,linear_its,outer_per_step")
    for n in (int(n) for n in args.ns.split(",")):
        db = OptionsDB().parse_file(str(CONFIG))
        res = run_cavity(CavityConfig(n=n, re=args.re), db)
        rep = res["report"]
        per = rep.linear_iterations / max(rep.iterations, 1)
        print(f"{n},{res['dofs']},{rep.iterations},"
              f"{rep.linear_iterations},{per:.1f}")


if __name__ == "__main__":
    main()
