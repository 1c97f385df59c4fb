#!/usr/bin/env python3
"""Iteration counts for CG + two-level additive Schwarz on Poisson,
swept over mesh size and polynomial degree."""

import argparse
import pathlib

from blocksolve.options import OptionsDB
from blocksolve.problems import PoissonConfig, run_poisson

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / \
    "poisson-schwarz.opts"


def solve(n, degree):
    db = OptionsDB().parse_file(str(CONFIG))
    res = run_poisson(PoissonConfig(n=n, degree=degree, mms=True), db)
    return res["dofs"], res["report"].iterations


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ns", default="8,16,32,64")
    ap.add_argument("--degrees", default="2,3,4")
    args = ap.parse_args()

    print("degree,n,dofs,iterations")
    for degree in (int(d) for d in args.degrees.split(",")):
        for n in (int(n) for n in args.ns.split(",")):
            dofs, its = solve(n, degree)
            print(f"{degree},{n},{dofs},{its}")


if __name__ == "__main__":
    main()
