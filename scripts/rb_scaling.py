#!/usr/bin/env python3
"""Newton and outer Krylov iteration counts for the buoyancy-driven
convection problem with the full nested fieldsplit/Schur/PCD tree, on the
unit square (--dim 2) or the unit cube (--dim 3)."""

import argparse
import pathlib

from blocksolve.options import OptionsDB
from blocksolve.problems import ConvectionConfig, run_convection

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / \
    "rb-iterative.opts"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ns", default="8,16,32")
    ap.add_argument("--dim", type=int, choices=(2, 3), default=2)
    ap.add_argument("--ra", type=float, default=200.0)
    ap.add_argument("--pr", type=float, default=6.18)
    args = ap.parse_args()

    print("n,dofs,newton_its,outer_krylov_its")
    for n in (int(n) for n in args.ns.split(",")):
        db = OptionsDB().parse_file(str(CONFIG))
        res = run_convection(ConvectionConfig(n=n, dim=args.dim, ra=args.ra,
                                              pr=args.pr), db)
        rep = res["report"]
        print(f"{n},{res['dofs']},{rep.iterations},{rep.linear_iterations}")


if __name__ == "__main__":
    main()
